"""Command-line interface.

Subcommands: train, eval, detect, bench, oracle, perturb. Global flags
--config / --seed / --verbose apply to every subcommand; GRIDLANDER_CONFIG
provides the config path when --config is absent. Exit codes: 0 success,
1 runtime or numeric fault, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dqn, metrics, perturb, persistence, plots, tabular
from .config import AppConfig, build_section, load_config
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


def _cmd_train(args, cfg: AppConfig) -> int:
    train_cfg = cfg.train
    if args.episodes is not None:
        train_cfg = replace(train_cfg, episodes=args.episodes)
    dqn.check_q_network_env(cfg.env)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = dqn.train(cfg.env, train_cfg, args.seed)
    persistence.save_dqn_checkpoint(
        out_dir / "dqn.ckpt",
        result.network,
        {"env": asdict(cfg.env), "train": asdict(train_cfg), "seed": args.seed},
    )
    persistence.write_reward_trace(out_dir / "reward_trace.csv", result.trace)
    plots.write_reward_curve(out_dir / "reward_curve.svg", result.trace)
    tail = result.trace.moving_average()[-1] if result.trace.returns else float("nan")
    print(
        f"trained {result.episodes_run} episodes"
        f" ({'stop criterion met' if result.stopped_early else 'episode cap reached'});"
        f" final moving average {tail:.1f}"
    )
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_eval(args, cfg: AppConfig) -> int:
    env_cfg = cfg.env
    if not args.oracle:
        if not args.checkpoint:
            raise ContractViolation("eval needs --checkpoint or --oracle")
        net, meta = persistence.load_dqn_checkpoint(args.checkpoint)
        if isinstance(meta, dict) and "env" in meta:
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
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, log in enumerate(result.traces):
            persistence.write_episode_trace(out_dir / f"episode_{i:03d}.csv", log)
        plots.write_trajectory_projections(
            out_dir / "trajectories_xy.svg", out_dir / "trajectories_xz.svg",
            result.traces[: len(plots._TRACE_COLORS)], env_cfg,
        )
        print(f"traces in {out_dir}")
    return EXIT_OK


def _parse_perturbations(specs, seed: int):
    return [perturb.parse_perturbation(s, seed=seed + i) for i, s in enumerate(specs)]


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
    missing = next((p for p, _ in paths_and_truths if not p.is_file()), None)
    if missing is not None:
        raise ContractViolation(f"image not found: {missing}")
    perts = _parse_perturbations(args.perturb, args.seed)
    weights = _load_weights_or_random(args.checkpoint, cfg, args.seed)
    samples = []
    for img_path, truth in paths_and_truths:
        img = persistence.read_ppm(img_path, cfg.ppm_channel_order)
        img, truth = perturb.apply_all(perts, img, truth)
        det = vital_detect(img, weights)
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
    out_dir = Path(args.out)
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
    for src, img in perturbed:
        dst = out_dir / src.name
        persistence.write_ppm(dst, img, cfg.ppm_channel_order)
        manifest.append(
            {
                "input": str(src),
                "output": str(dst),
                "perturbations": [p.params() for p in perts],
            }
        )
    manifest_path = out_dir / "manifest.json"
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


def entrypoint() -> None:
    sys.exit(main())
