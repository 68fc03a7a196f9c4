"""Command-line interface.

Subcommands: train, eval, detect, bench, oracle, perturb. Global flags
--config / --seed / --verbose apply to every subcommand; GRIDLANDER_CONFIG
provides the config path when --config is absent. Exit codes: 0 success,
1 runtime or numeric fault, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import cores, dqn, metrics, perturb, persistence, plots, tabular
from .config import ENV_VAR, AppConfig, build_section, load_config
from .env import EnvConfig, enumerate_mdp
from .errors import ContractViolation, NumericFault
from .metrics import EvalSample
from .rng import Rng
from .vital import MultimodalImage, detect as vital_detect, init_weights

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand; the
    # subparser copies only write into the namespace when explicitly given
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="path to a JSON config file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed (default 0)")
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="gridlander",
        description="Landing-marker detection and grid-world DQN landing agent.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the landing agent", parents=[common])
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--episodes", type=int, help="override the episode budget")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a trained agent")
    p_eval.add_argument("--checkpoint", help="dqn checkpoint path")
    p_eval.add_argument("--oracle", action="store_true",
                        help="roll the value-iteration policy out on the tabulated windless"
                             " MDP instead of a checkpoint")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--wind", type=float, help="override wind probability")
    p_eval.add_argument("--out", help="directory for traces and plots")

    p_detect = sub.add_parser("detect", parents=[common], help="run the marker detector")
    p_detect.add_argument("--checkpoint", help="vital checkpoint (random weights if absent)")
    p_detect.add_argument("--image", help="one PPM image")
    p_detect.add_argument("--batch", help="directory with images and a labels.csv")
    p_detect.add_argument("--perturb", action="append", default=[],
                          help="perturbation directive, e.g. disable=lidar,thermal")
    p_detect.add_argument("--out", help="where to write the metrics report (labelled batch only)")

    p_bench = sub.add_parser("bench", parents=[common], help="time detector inference")
    p_bench.add_argument("--checkpoint", help="vital checkpoint (random weights if absent)")
    p_bench.add_argument("--iters", type=int, default=20)
    p_bench.add_argument("--warmup", type=int, default=3)

    p_oracle = sub.add_parser("oracle", parents=[common], help="solve the grid MDP exactly")
    p_oracle.add_argument("--gamma", type=float, help="override the discount factor")
    p_oracle.add_argument("--ql-steps", type=int, default=100000)

    p_pert = sub.add_parser("perturb", parents=[common], help="write perturbed copies of images")
    p_pert.add_argument("--image", action="append", required=True, help="input PPM (repeatable)")
    p_pert.add_argument("--perturb", action="append", required=True,
                        help="perturbation directive (repeatable, applied in order)")
    p_pert.add_argument("--out", required=True, help="output directory")
    return parser


def _load_weights_or_random(checkpoint, cfg: AppConfig, seed: int):
    if checkpoint:
        return persistence.load_vital_checkpoint(checkpoint)
    return init_weights(cfg.detector, seed)


def _out_dir(path: str, names, inputs) -> Path:
    """``--out`` as a directory to make or fill with the files ``names``,
    checked before any work: the path, or else the nearest of its parents
    that exists, is a directory, and none of the files is a directory or one
    of the command's ``inputs``."""
    p = Path(path)
    nearest = next((a for a in (p, *p.parents) if a.exists()), p)
    if not nearest.is_dir():
        raise ContractViolation(f"--out {path}: {nearest} is not a directory")
    taken = next((p / n for n in names if (p / n).is_dir()), None) if p.is_dir() else None
    if taken is not None:
        raise ContractViolation(f"--out {path}: {taken} is a directory")
    _check_inputs_kept(path, [p / n for n in names], inputs)
    return p


def _check_inputs_kept(out: str, outputs, inputs) -> None:
    """Refuse an ``--out`` under which one of ``outputs`` is one of ``inputs``."""
    kept = {Path(p).resolve() for p in inputs if p}
    overwritten = next((p for p in outputs if Path(p).resolve() in kept), None)
    if overwritten is not None:
        raise ContractViolation(f"--out {out}: {overwritten} is an input")


def _cmd_train(args, cfg: AppConfig) -> int:
    train_cfg = cfg.train
    if args.episodes is not None:
        train_cfg = replace(train_cfg, episodes=args.episodes)
    dqn.check_q_network_env(cfg.env)
    names = ckpt, trace, curve = ("dqn.ckpt", "reward_trace.csv", "reward_curve.svg")
    out_dir = _out_dir(args.out, names, [args.config])
    out_dir.mkdir(parents=True, exist_ok=True)

    result = dqn.train(cfg.env, train_cfg, args.seed)
    persistence.save_dqn_checkpoint(
        out_dir / ckpt,
        result.network,
        {"env": asdict(cfg.env), "train": asdict(train_cfg), "seed": args.seed},
    )
    persistence.write_reward_trace(out_dir / trace, result.trace)
    plots.write_reward_curve(out_dir / curve, result.trace)
    tail = result.trace.moving_average()[-1] if result.trace.returns else float("nan")
    print(
        f"trained {result.episodes_run} episodes"
        f" ({'stop criterion met' if result.stopped_early else 'episode cap reached'});"
        f" final moving average {tail:.1f}"
    )
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_eval(args, cfg: AppConfig) -> int:
    if args.oracle == bool(args.checkpoint):
        raise ContractViolation("eval needs exactly one of --checkpoint or --oracle")
    episode_files = [f"episode_{i:03d}.csv" for i in range(args.episodes)]
    projections = ("trajectories_xy.svg", "trajectories_xz.svg")
    out_files = episode_files + list(projections)
    out_dir = _out_dir(args.out, out_files, [args.checkpoint, args.config]) if args.out else None
    env_cfg = cfg.env
    if not args.oracle:
        net, meta = persistence.load_dqn_checkpoint(args.checkpoint)
        if "env" in meta:
            env_cfg = build_section(EnvConfig, meta["env"], "checkpoint env")
    if args.wind is not None:
        env_cfg = replace(env_cfg, wind_probability=args.wind)

    if args.oracle:
        mdp = enumerate_mdp(env_cfg)
        solution = tabular.value_iteration(mdp, cfg.train.gamma)
        result = tabular.evaluate_on_table(mdp, solution.policy, args.episodes, args.seed)
    else:
        dqn.check_q_network_env(env_cfg)
        result = dqn.evaluate(net, env_cfg, args.episodes, args.seed)

    print(f"success rate: {result.success_rate:.3f}")
    print(f"mean return: {result.mean_return:.1f}")
    print(f"mean touchdown deviation (m): {result.mean_final_deviation_m:.2f}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, log in zip(episode_files, result.traces):
            persistence.write_episode_trace(out_dir / name, log)
        plots.write_trajectory_projections(
            *(out_dir / name for name in projections), result.traces, env_cfg
        )
        print(f"traces in {out_dir}")
    return EXIT_OK


def _parse_perturbations(specs, seed: int):
    return [perturb.parse_perturbation(s, seed=seed + i) for i, s in enumerate(specs)]


def _processes(frames: int) -> int:
    """How many processes share ``frames`` independent frames: as many as
    ``cores.cpu_share`` allows, and no more than ``frames``. So one frame,
    or a BLAS that already fills the CPUs, never forks here."""
    return 1 if frames < 2 else min(frames, cores.cpu_share())


def _in_order(work, n: int, processes: int):
    """Yield ``work(k)`` for k = 0..n-1, in order. This process computes the
    k ≡ 0 (mod ``processes``) itself; forked child j (``cores.children``)
    computes the k ≡ j and pickles one ``(ok, value)`` per k into its link,
    stopping at its first exception, which is raised here when its k comes
    up, after every earlier result. A result that cannot be pickled ends the
    child early. ``work`` must be a pure function of k, so every split yields
    the same values. Each child is killed and reaped before this returns or
    raises, however it ends."""
    if processes < 2:
        yield from map(work, range(n))
        return

    def life(j, fd):
        with open(fd, "wb", closefd=False) as out:
            for k in range(j, n, processes):
                try:
                    item = (True, work(k))
                except BaseException as exc:
                    item = (False, exc)
                out.write(pickle.dumps(item))
                out.flush()
                if not item[0]:
                    break

    with cores.children(processes, life) as (links, _):
        readers = [open(fd, "rb", closefd=False) for fd in links]
        for k in range(n):
            if k % processes == 0:
                yield work(k)
                continue
            try:
                ok, value = pickle.load(readers[k % processes - 1])
            except EOFError:
                raise ChildProcessError(f"the process detecting frame {k} ended early") from None
            if not ok:
                raise value
            yield value


def _cmd_detect(args, cfg: AppConfig) -> int:
    if bool(args.image) == bool(args.batch):
        raise ContractViolation("detect needs exactly one of --image or --batch")
    labelled = False
    if args.image:  # a batch of one, reported in its own two-line form
        paths_and_truths = [(Path(args.image), None)]
    else:
        batch_dir = Path(args.batch)
        if not batch_dir.is_dir():
            raise ContractViolation(f"batch directory not found: {batch_dir}")
        labels_path = batch_dir / "labels.csv"
        labelled = labels_path.exists()
        if labelled:
            records = persistence.read_sample_records(labels_path)
            if not records:
                raise ContractViolation(f"{labels_path} lists no images")
            paths_and_truths = [(batch_dir / r.image_path, r.truth) for r in records]
        else:
            paths_and_truths = [(p, None) for p in sorted(batch_dir.glob("*.ppm"))]
            if not paths_and_truths:
                raise ContractViolation(f"no labels.csv and no .ppm files in {batch_dir}")
    if args.out and not labelled:
        raise ContractViolation("--out needs ground truth: a --batch directory with labels.csv")
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ContractViolation(f"--out {args.out} must name a file in an existing directory")
    if args.out:
        inputs = [labels_path, *(p for p, _ in paths_and_truths), args.checkpoint, args.config]
        _check_inputs_kept(args.out, [args.out], inputs)
    missing = next((p for p, _ in paths_and_truths if not p.is_file()), None)
    if missing is not None:
        raise ContractViolation(f"image not found: {missing}")
    perts = _parse_perturbations(args.perturb, args.seed)
    weights = _load_weights_or_random(args.checkpoint, cfg, args.seed)

    n = len(paths_and_truths)
    processes = _processes(n)
    lanes = cores.cpu_share() // processes  # each frame's share of the CPUs

    def frame(k):
        img_path, truth = paths_and_truths[k]
        img = persistence.read_ppm(img_path, cfg.ppm_channel_order)
        img, truth = perturb.apply_all(perts, img, truth)
        return vital_detect(img, weights, lanes), truth

    samples = []
    with contextlib.closing(_in_order(frame, n, processes)) as results:
        for (img_path, _), (det, truth) in zip(paths_and_truths, results):
            b = det.bbox
            box = f"{b.x_min:.4f} {b.y_min:.4f} {b.x_max:.4f} {b.y_max:.4f}"
            if args.image:
                print(f"objectness: {det.objectness:.4f}")
                print(f"bbox: {box}")
            else:
                print(f"{img_path.name}: objectness {det.objectness:.4f} bbox {box}")
            samples.append(EvalSample(det.objectness, det.bbox, truth))
    if labelled:  # metrics need ground truth
        report = metrics.metrics_report(samples)
        print(metrics.format_metrics_table({"batch": report}), end="")
        print(json.dumps(report, sort_keys=True))
        if args.out:
            persistence.write_metrics_json(args.out, report)
    return EXIT_OK


def _cmd_bench(args, cfg: AppConfig) -> int:
    if args.iters < 1 or args.warmup < 0:
        raise ContractViolation("bench needs --iters >= 1 and --warmup >= 0")
    weights = _load_weights_or_random(args.checkpoint, cfg, args.seed)
    rng = Rng(args.seed).derive(7)
    shape = (3, cfg.detector.image_size, cfg.detector.image_size)

    def random_image():
        return MultimodalImage(rng.uniform(size=shape).astype(np.float32))

    for _ in range(args.warmup):
        vital_detect(random_image(), weights)
    latencies = []
    detections = []
    for _ in range(args.iters):
        img = random_image()
        t0 = time.perf_counter()
        det = vital_detect(img, weights)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        b = det.bbox
        detections.append((det.objectness, b.x_min, b.y_min, b.x_max, b.y_max))
    digest = hashlib.sha256(np.array(detections, dtype=np.float64).tobytes()).hexdigest()
    lat = np.array(latencies)
    mean = float(lat.mean())
    print(f"input shape: {shape}")
    print(f"iters: {args.iters} (warmup {args.warmup})")
    print(f"latency mean: {mean:.2f} ms")
    print(f"latency p50: {float(np.percentile(lat, 50)):.2f} ms")
    print(f"latency p95: {float(np.percentile(lat, 95)):.2f} ms")
    print(f"latency min: {float(lat.min()):.2f} ms")
    print(f"latency max: {float(lat.max()):.2f} ms")
    print(f"throughput: {1000.0 / mean:.2f} images/s")
    print(f"output sha256: {digest}")
    return EXIT_OK


def _cmd_oracle(args, cfg: AppConfig) -> int:
    gamma = args.gamma if args.gamma is not None else cfg.train.gamma
    if not 0.0 <= gamma <= 1.0:
        raise ContractViolation("gamma must lie in [0,1]")
    if args.ql_steps < 1:
        raise ContractViolation("--ql-steps must be positive")
    mdp = enumerate_mdp(cfg.env)
    solution = tabular.value_iteration(mdp, gamma)
    success = tabular.success_rate_from_all_starts(mdp, solution.policy)
    q_table = tabular.q_learning(mdp, gamma, alpha=0.1, steps=args.ql_steps)
    agreement = tabular.greedy_agreement(q_table, solution.q)
    print(f"states: {mdp.n_states} ({mdp.n_nonterminal} non-terminal)")
    print(f"value iteration sweeps: {solution.sweeps}")
    print(f"optimal policy success rate: {success:.3f}")
    print(f"q-learning policy agreement: {agreement:.3f}")
    return EXIT_OK


def _cmd_perturb(args, cfg: AppConfig) -> int:
    names = [Path(image).name for image in args.image]
    clash = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if clash is not None:
        raise ContractViolation(f"two --image inputs share the file name {clash!r}")
    out_dir = _out_dir(args.out, names + ["manifest.json"], [*args.image, args.config])
    outputs = [out_dir / n for n in names]
    manifest_path = out_dir / "manifest.json"
    if manifest_path in outputs:
        raise ContractViolation(f"--out {args.out}: {manifest_path} is the manifest")
    perts = _parse_perturbations(args.perturb, args.seed)
    perturbed = []  # every input is read and perturbed before anything is written
    for image in args.image:
        src = Path(image)
        if not src.is_file():
            raise ContractViolation(f"image not found: {image}")
        img, _ = perturb.apply_all(perts, persistence.read_ppm(src, cfg.ppm_channel_order))
        perturbed.append((src, img))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for dst, (src, img) in zip(outputs, perturbed):
        persistence.write_ppm(dst, img, cfg.ppm_channel_order)
        manifest.append(
            {
                "input": str(src),
                "output": str(dst),
                "perturbations": [p.params() for p in perts],
            }
        )
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(manifest)} images and {manifest_path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "detect": _cmd_detect,
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
    "perturb": _cmd_perturb,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.config = os.environ.get(ENV_VAR) if args.config is None else args.config
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ContractViolation, persistence.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_FAULT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    finally:
        cores.release()  # a command's detector lanes end with it


def entrypoint() -> None:
    sys.exit(main())
