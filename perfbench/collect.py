#!/usr/bin/env python3
"""Measure the baseline: a traced run of every workload, then two sets of ten runs.

    python3 perfbench/collect.py [--out perfbench/BASELINE.json]

Each set runs ``run.py`` on seeds 0-9 for every workload in BENCHMARK.json,
with its ``run_seconds``; the second set starts after the first has ended.
For each end-to-end metric and set it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, and how far the second
set's median lies from the first's, in the direction the metric gets
worse. One traced run per workload (seed 0), made first because it checks
the most, gives the per-layer split.
The output also records the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import THREAD_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(10)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": THREAD_ENV,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    traced = {w: run(w, SEEDS[0], seconds, 1) for w in names}
    sets = []
    for k in range(SETS):
        sets.append({w: [run(w, seed, seconds, 0) for seed in SEEDS] for w in names})
        print(f"set {k + 1} done", flush=True)

    report = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in names:
        entry = {"end_to_end": {}}
        for name, m in metrics.items():
            per_set = [spread([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            entry["end_to_end"][name] = {"bound": m["bound"], "sets": per_set, "second_worse_by": worse}
            spreads = " ".join(f"{s['spread']:.4f}" for s in per_set)
            flag = "" if name == "setup_s" or max(s["spread"] for s in per_set) < m["bound"] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"{w:13s} {name:15s} median {first:12.4f} spreads {spreads} "
                  f"second worse by {worse:+.4f} (bound {m['bound']}){flag}", flush=True)
        entry["per_layer"] = {k: v["value"] for k, v in traced[w]["metrics"].items() if v["value"]}
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
