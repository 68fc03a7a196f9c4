#!/usr/bin/env python3
"""gridlander benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of detect-batch, control, train, oracle, or ``all``. The
run builds its inputs from the seed under ``.perfbench_work/`` in the
checkout. An untraced run then starts three fresh interpreters one after
another (``worker.py``); each times its own set-up and measures for a third
of S seconds, and the run pools what they measured. Every output is
checked. It prints each metric as
``name value unit`` and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The exit code is 0 when every output check passed, 1 when
one failed and 2 when the program cannot be imported or run.

A traced run repeats each unit of work twice, once untraced and once with
every span wrapper installed, flipping the order from pair to pair; the
median ratio of the two gives the tracing overhead. The spans of the
latest traced run of a workload go to ``.perfbench_work/spans/WORKLOAD.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads here or in a worker. The workloads
# have a single caller; a second BLAS thread sped detection up by about 6%
# for 75% more CPU time and slowed DQN training's small matrices by a third,
# and on a shared 2-vCPU host it made runs of train spread past their bound.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("detect-batch", "control", "train", "oracle")
# Fresh interpreters per untraced run, one after another. Each times its own
# set-up, so a run samples set-up several times, and pooling them evens out
# what differs from one process to the next.
WORKERS = 3


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    """Import gridlander from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gridlander

    if not Path(gridlander.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gridlander imported from {gridlander.__file__}, not {src}")


def _measure_in_workers(wl, spec_path: Path, seconds: float) -> list[dict]:
    """An untraced run: ``WORKERS`` fresh interpreters one after another, each
    timing its own set-up and measuring a share of the time."""
    min_units = max(wl.kinds, -(-wl.min_units // WORKERS))
    shared = spec_path.parent / "shared.pkl"
    results = []
    for k in range(WORKERS):
        out = spec_path.parent / f"worker{k}.pkl"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(seconds / WORKERS),
             str(min_units), str(shared), str(out)],
            stdout=sys.stderr, timeout=50, check=True,
        )
        results.append(pickle.loads(out.read_bytes()))
    return results


def run_one(args, bench: dict) -> tuple[dict, list[str]]:
    import inputs
    import workloads
    from tracer import SpanSummary, Tracer, default_targets

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = inputs.generate(args.workload, args.seed, workdir)
        wl = workloads.make(spec)
        if not args.trace:
            workers = _measure_in_workers(wl, workdir / "spec.json", args.seconds)
            phases = [p for w in workers for p in w["phases"]]
            phase = workloads.Phase.merged([w["phases"][1] for w in workers])
            metrics = {
                "setup_s": statistics.median(w["setup_s"] for w in workers),
                "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
                "ops_per_s": phase.ops_per_s(),
                "latency_ms_p50": phase.latency_ms(0.5),
            }
            wl.notes = workers[0]["notes"]
            extra = wl.aliases(phase)
        else:
            wl.setup()
            prep = workloads.Phase()
            wl.prepare(prep)
            tracer = Tracer(default_targets(), wl.op_boundary)
            plain, traced, overhead = workloads.measure_paired(wl, args.seconds, tracer)
            (WORK / "spans").mkdir(exist_ok=True)
            tracer.write(WORK / "spans" / f"{args.workload}.npz")
            summary = SpanSummary(tracer)
            if not summary.consistent:
                traced.fail(1, "child spans overrun their parent span")
            repeats = workloads.repeat_mismatches(traced, tracer)
            if repeats:
                traced.fail(repeats, "calls per span differ between repeats of one unit")
            names = [m["name"] for m in bench["per_layer"]]
            metrics = workloads.per_layer(names, wl, summary, overhead)
            phases = [prep, plain, traced]
            extra = [f"trace.spans {len(tracer)} count", f"trace.pairs {len(overhead)} count"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    lines = wl.notes + extra + [f"failed_share {failed / max(attempted, 1)!r} ratio"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return result | {"metrics": metrics}, lines + [f"error: {e}" for e in errors]


def _emit(result: dict, lines: list[str], bench: dict, trace: int) -> None:
    """Print the metrics in BENCHMARK.json's order and units, then the JSON line."""
    declared = bench["per_layer" if trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    if mismatch:
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for line in lines:
        print(line)
    print(json.dumps(result | {"metrics": metrics}), flush=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_program()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    result, lines = run_one(args, bench)
    _emit(result, lines, bench, args.trace)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
