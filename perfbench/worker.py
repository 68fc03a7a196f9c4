"""One measuring process of an untraced benchmark run.

    python3 perfbench/worker.py SPEC SECONDS MIN_UNITS SHARED OUT

Times the workload's set-up from interpreter start: importing gridlander,
building or loading the models the workload uses and one warm-up forward,
as ``Workload.setup`` defines it. Then it measures for SECONDS, and for at
least MIN_UNITS units. Every worker first does the workload's untimed
preparation, which also warms the process up; the first worker leaves the
references it records in SHARED, and later workers load them, so their
outputs must match the first worker's byte for byte.
OUT receives a pickle of the set-up time, the peak resident set, the notes
and the measured phases.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(spec: str, seconds: str, min_units: str, shared: str, out: str) -> None:
    wl = workloads.make(json.loads(Path(spec).read_text()))
    wl.setup()
    setup_s = time.perf_counter() - T0
    prep = workloads.Phase()
    wl.prepare(prep)
    first = not Path(shared).exists()
    if not first:
        reference, notes = pickle.loads(Path(shared).read_bytes())
        if wl.reference and wl.reference != reference:
            prep.fail(1, "preparation differs from the first worker's")
        wl.reference, wl.notes = reference, notes
    phase = workloads.measure(wl, float(seconds), int(min_units))
    if first:
        Path(shared).write_bytes(pickle.dumps((wl.reference, wl.notes)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "peak_rss_mb": rss_mb, "notes": wl.notes, "phases": [prep, phase]}
    Path(out).write_bytes(pickle.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
