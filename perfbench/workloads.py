"""The four benchmark workloads: set-up, timed closed loop and output checks.

Every workload runs one caller at a time. A measuring process repeats a
*unit* of work until its time is up, timing each unit on its own and
checking its outputs outside the timed span:

============  =======================================  ==========================
workload      unit (its kinds)                         operation
============  =======================================  ==========================
detect-batch  one ``detect --batch`` call (per         a labelled frame
              directory)
control       one image-to-action step                 the step
train         one ``train --episodes E`` call          an environment step
oracle        ``oracle`` + ``eval --oracle`` on one    a grid cell audited
              grid (per grid; three make a sweep)
============  =======================================  ==========================

``ops_per_s`` is the operations in one unit of each kind over the sum of
each kind's median unit time. ``latency_ms_p50`` is the median time of one
operation where the harness sees each end (a frame's output line, a
control step); where operations run inside one CLI call (train, oracle) it
is the inverse of ``ops_per_s``.

The CLI workloads call ``gridlander.cli.main`` in process; ``control`` calls
the library, since the control loop has no command yet. The first unit of
each kind is the reference: it gets the full output checks, and every later
unit must reproduce its output byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridlander import cli, dqn, geometry, perturb, persistence, tabular, vital
from gridlander.env import Action, EnvConfig, LanderState, LandingEnv, Terminal, enumerate_mdp
from gridlander.losses import BBox
from gridlander.rng import Rng

import inputs
import workcount
from tracer import SpanSummary, Tracer

clock = time.perf_counter

# Checks call these bindings, captured before any tracer is installed, so
# that checking a step records no spans.
_bbox_to_offsets = geometry.bbox_to_offsets
_offsets_to_state = geometry.offsets_to_state
_discretize = geometry.discretize

CONTROL_MIN_STEPS = 100  # so that the step p90 has ten samples beyond it
REPORT_KEYS = {"tpr", "recall", "f1", "ap50", "ap50_95"}
AGREEMENT_MIN = 0.95  # acceptance criterion 2's threshold
_FRAME_LINE = re.compile(r"(\S+): objectness (\S+) bbox (\S+) (\S+) (\S+) (\S+)")


@dataclass
class Phase:
    """What one stretch of measurement produced."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    busy_s: float = 0.0
    unit_s: dict = field(default_factory=dict)  # kind -> wall time of each unit of that kind
    unit_ops: dict = field(default_factory=dict)  # kind -> operations in one unit of that kind
    latencies_ms: list = field(default_factory=list)  # per operation, where it can be seen
    units: list = field(default_factory=list)  # (key, first span, end span) when traced
    errors: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)

    @classmethod
    def merged(cls, phases: list["Phase"]) -> "Phase":
        """One phase holding what all of ``phases`` measured."""
        out = cls()
        for p in phases:
            out.attempted += p.attempted
            out.failed += p.failed
            out.ops += p.ops
            out.busy_s += p.busy_s
            for name in ("latencies_ms", "units", "errors"):
                getattr(out, name).extend(getattr(p, name))
            for kind, times in p.unit_s.items():
                out.unit_s.setdefault(kind, []).extend(times)
            out.unit_ops.update(p.unit_ops)
        return out

    def record(self, kind: str, ops: int, wall_s: float) -> None:
        """Note one completed unit of ``kind`` holding ``ops`` operations."""
        self.ops += ops
        self.busy_s += wall_s
        self.unit_s.setdefault(kind, []).append(wall_s)
        self.unit_ops[kind] = ops

    def ops_per_s(self) -> float:
        """Operations of one unit of each kind over the sum of each kind's
        median unit time."""
        ops = sum(self.unit_ops.values())
        return ops / sum(statistics.median(t) for t in self.unit_s.values())

    def latency_ms(self, q: float = 0.5) -> float:
        """The ``q`` quantile of per-operation latency where the run sees each
        operation end; otherwise the mean time per operation of a median unit."""
        if self.latencies_ms:
            return float(np.quantile(self.latencies_ms, q))
        return 1e3 / self.ops_per_s()


@dataclass
class CliRun:
    rc: int | None
    stdout: str
    stderr: str
    wall_s: float
    line_s: list  # when each stdout line was written, from the call start


class _StampedStdout(io.StringIO):
    """Captured stdout that notes when each line arrives."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        if "\n" in s:
            self.stamps.append(clock())
        return n


def run_cli(argv: list[str], tracer: Tracer | None = None) -> CliRun:
    """``gridlander.cli.main(argv)`` in process, with its output captured."""
    out, err = _StampedStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.cli_call():
                    rc = cli.main(argv)
        except Exception:  # a crashing call is a failed operation; the run goes on
            rc = None
            err.write(traceback.format_exc())
        t1 = clock()
    return CliRun(rc, out.getvalue(), err.getvalue(), t1 - t0, [s - t0 for s in out.stamps])


def _cli_error(run: CliRun) -> str:
    tail = run.stderr.strip().splitlines()[-1:] or ["no message"]
    return f"exit {run.rc}: {tail[0]}"


def detection_ok(objectness: float, x_min: float, y_min: float, x_max: float, y_max: float) -> bool:
    """Objectness in [0,1] and an ordered box inside [0,1]."""
    return 0.0 <= objectness <= 1.0 and 0.0 <= x_min <= x_max <= 1.0 and 0.0 <= y_min <= y_max <= 1.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    op_boundary: str | None = None  # span that starts each operation when traced
    kinds = 1  # distinct units; the first of each kind is the reference
    min_units = 1

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.seed = spec["seed"]
        self.workdir = Path(spec["workdir"])
        self.reference: dict = {}
        self.notes: list[str] = []  # extra lines for the run's printout

    def setup(self) -> None:
        """Build or load the models the workload uses and run one warm-up."""

    def prepare(self, phase: Phase) -> None:
        """Untimed work each measuring process does once before measuring."""

    def run_unit(self, i: int, phase: Phase, tracer: Tracer | None) -> str:
        """Run and check unit ``i``; return the key of its kind."""
        raise NotImplementedError

    def aliases(self, phase: Phase) -> list[str]:
        """The workload's own names for its end-to-end figures."""
        return []


class DetectBatch(Workload):
    op_boundary = "persistence.read_ppm"

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.batches = spec["batches"]
        self.kinds = self.min_units = len(self.batches)

    def setup(self) -> None:
        self.weights = persistence.load_vital_checkpoint(self.spec["checkpoint"])
        first = self.batches[0]
        vital.detect(persistence.read_ppm(Path(first["dir"]) / first["frames"][0]), self.weights)

    def _argv(self, k: int) -> list[str]:
        b = self.batches[k]
        argv = ["--seed", str(self.seed), "detect", "--batch", b["dir"],
                "--checkpoint", self.spec["checkpoint"], "--out", str(self.workdir / f"report{k}.json")]
        return argv + ["--perturb", b["perturb"]]

    def run_unit(self, i: int, phase: Phase, tracer: Tracer | None) -> str:
        k = i % len(self.batches)
        run = run_cli(self._argv(k), tracer)
        frames = self.batches[k]["frames"]
        phase.attempted += len(frames)
        phase.record(f"batch{k}", len(frames), run.wall_s)
        phase.latencies_ms.extend(1e3 * np.diff([0.0] + run.line_s[: len(frames)]))
        bad, why = self._check(k, run)
        if bad:
            phase.fail(bad, f"detect batch{k}: {why}")
        return f"batch{k}"

    def aliases(self, phase: Phase) -> list[str]:
        return [f"detect.images_per_s {phase.ops_per_s()!r} 1/s"]

    def _check(self, k: int, run: CliRun) -> tuple[int, str]:
        frames = self.batches[k]["frames"]
        if run.rc != 0:
            return len(frames), _cli_error(run)
        if k in self.reference:
            same = run.stdout == self.reference[k]
            return (0, "") if same else (len(frames), "output differs from the first call")
        lines = run.stdout.splitlines()
        bad = 0
        for name, line in zip(frames, lines + [""] * len(frames)):
            m = _FRAME_LINE.fullmatch(line)
            if not m or m[1] != name or not detection_ok(*(float(v) for v in m.groups()[1:])):
                bad += 1
        try:
            report = json.loads(lines[-1])
            written = json.loads((self.workdir / f"report{k}.json").read_text())
        except (IndexError, ValueError, OSError) as exc:
            return len(frames), f"no metrics report: {exc}"
        if set(report) != REPORT_KEYS or written != report:
            return len(frames), "metrics report lacks the five columns"
        if lines and lines[0] != self._rerun_first_frame(k):
            bad += 1
        self.reference[k] = run.stdout
        return bad, "frame lines fail the detection contract or the re-run"

    def _rerun_first_frame(self, k: int) -> str:
        """The first frame's line, recomputed through ``vital.detect``."""
        b = self.batches[k]
        img = persistence.read_ppm(Path(b["dir"]) / b["frames"][0])
        img, _ = perturb.apply_all([perturb.parse_perturbation(b["perturb"], seed=self.seed)], img)
        det = vital.detect(img, self.weights)
        x = det.bbox
        return (f"{b['frames'][0]}: objectness {det.objectness:.4f} "
                f"bbox {x.x_min:.4f} {x.y_min:.4f} {x.x_max:.4f} {x.y_max:.4f}")


class Control(Workload):
    min_units = CONTROL_MIN_STEPS

    def setup(self) -> None:
        self.weights = persistence.load_vital_checkpoint(self.spec["checkpoint"])
        self.net = dqn.init_qnetwork(self.seed)
        self.env_cfg = EnvConfig()
        self.env = LandingEnv(self.env_cfg)
        self.pool = inputs.perturbation_pool(inputs.robustness_script())
        self.frame_rng = Rng(self.seed).derive(13)
        self.episodes = 0
        self._restart()
        img, _ = inputs.render_marker(self.env.state, self.frame_rng)
        vital.detect(img, self.weights)
        dqn.q_values(self.net, self.env.state, self.env_cfg)

    def _restart(self) -> None:
        starts = self.spec["starts"]
        self.env.reset(LanderState(*starts[self.episodes % len(starts)]))
        self.episodes += 1

    def run_unit(self, i: int, phase: Phase, tracer: Tracer | None) -> str:
        if tracer is not None:
            tracer.next_op()
        draws = self.spec["perturbations"]
        pert = self.pool[draws[i % len(draws)]]
        truth = self.env.state
        phase.attempted += 1
        t0 = clock()
        try:
            img, marker_px = inputs.render_marker(truth, self.frame_rng)
            img, _ = perturb.apply_all([pert], img)
            det = vital.detect(img, self.weights)
            b = det.bbox
            w, h = inputs.CONTROL_CAMERA.width, inputs.CONTROL_CAMERA.height
            box_px = BBox(b.x_min * w, b.y_min * h, b.x_max * w, b.y_max * h)
            du, dv = geometry.bbox_to_offsets(box_px, inputs.CONTROL_CAMERA)
            estimate = geometry.offsets_to_state(du, dv, truth.dz, inputs.CONTROL_CAMERA)
            cell = geometry.discretize(estimate, self.env_cfg)
            action = Action(int(np.argmax(dqn.q_values(self.net, cell, self.env_cfg))))
            out = self.env.step(action)
        except Exception as exc:  # a failed step is counted and the episode restarts
            phase.fail(1, f"control step {i}: {exc!r}")
            self._restart()
            return "step"
        t1 = clock()
        phase.record("step", 1, t1 - t0)
        phase.latencies_ms.append(1e3 * (t1 - t0))
        why = self._check(det, cell, marker_px, truth)
        if why:
            phase.fail(1, f"control step {i}: {why}")
        if out.terminal is not Terminal.NONE:
            self._restart()
        return "step"

    def aliases(self, phase: Phase) -> list[str]:
        return [f"control.step_ms_p50 {phase.latency_ms(0.5)!r} ms",
                f"control.step_ms_p90 {phase.latency_ms(0.9)!r} ms",
                f"control.steps {len(phase.latencies_ms)} count"]

    def _check(self, det, cell: LanderState, marker_px: BBox, truth: LanderState) -> str:
        if not detection_ok(det.objectness, *det.bbox.corners):
            return "detection outside the contract"
        r = self.env_cfg.resolution
        ranges = (self.env_cfg.x_range, self.env_cfg.y_range, self.env_cfg.z_range)
        if any(v / r != round(v / r) or not lo <= v <= hi for v, (lo, hi) in zip(cell, ranges)):
            return f"discretized state {cell} is off the grid"
        if _discretize(cell, self.env_cfg) != cell:
            return "discretize is not idempotent"
        du, dv = _bbox_to_offsets(marker_px, inputs.CONTROL_CAMERA)
        recovered = _discretize(_offsets_to_state(du, dv, truth.dz, inputs.CONTROL_CAMERA), self.env_cfg)
        if recovered != truth:
            return f"marker box recovers {recovered}, not the true cell {truth}"
        return ""


class Train(Workload):
    op_boundary = "dqn.select_action"

    def _argv(self) -> list[str]:
        return ["--seed", str(self.seed), "train", "--out", str(self.workdir / "train"),
                "--episodes", str(self.spec["episodes"])]

    def setup(self) -> None:
        net = dqn.init_qnetwork(self.seed)
        dqn.q_values(net, LanderState(1.0, 1.0, 4.0), EnvConfig())

    def prepare(self, phase: Phase) -> None:
        """One untimed reference call: counts its environment steps, checks
        its files and records their digests. The first call in a process
        ran about a quarter slower than later ones, so it also serves as the
        warm-up."""
        counter = Tracer([(LandingEnv, "step", "env.step")])
        counter.install()
        try:
            run = run_cli(self._argv())
        finally:
            counter.remove()
        phase.attempted += 1
        out = self.workdir / "train"
        try:
            if run.rc != 0:
                raise ValueError(_cli_error(run))
            rows = (out / "reward_trace.csv").read_text().splitlines()[1:]
            if len(rows) != self.spec["episodes"]:
                raise ValueError(f"reward_trace.csv has {len(rows)} rows")
            persistence.load_dqn_checkpoint(out / "dqn.ckpt")
        except (ValueError, OSError) as exc:
            phase.fail(1, f"train reference call: {exc}")
            return
        self.reference = {
            "stdout": run.stdout,
            "digests": {n: _sha256(out / n) for n in ("dqn.ckpt", "reward_trace.csv")},
            "steps": len(counter),
        }
        self.notes += [f"train.{n}.sha256 {d}" for n, d in self.reference["digests"].items()]
        self.notes.append(f"train.env_steps {len(counter)} count")

    def run_unit(self, i: int, phase: Phase, tracer: Tracer | None) -> str:
        lo = len(tracer) if tracer is not None else 0
        run = run_cli(self._argv(), tracer)
        phase.attempted += 1
        ref = self.reference
        steps = ref.get("steps", 0)
        phase.record("call", steps, run.wall_s)
        out = self.workdir / "train"
        if run.rc != 0:
            phase.fail(1, f"train call: {_cli_error(run)}")
        elif not ref or run.stdout != ref["stdout"] or any(
            _sha256(out / n) != d for n, d in ref["digests"].items()
        ):
            phase.fail(1, "train call differs from the reference call")
        elif tracer is not None and tracer.counts(lo, len(tracer))[tracer.names.index("env.step")] != steps:
            phase.fail(1, "traced train call took another number of env steps")
        return "call"

    def aliases(self, phase: Phase) -> list[str]:
        return [f"train.env_steps_per_s {phase.ops_per_s()!r} 1/s",
                f"train.calls {len(phase.unit_s['call'])} count"]


class Oracle(Workload):
    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.kinds = len(spec["grids"])
        self.vi_sweeps: dict[int, int] = {}  # value-iteration sweeps per grid

    def setup(self) -> None:
        tabular.value_iteration(enumerate_mdp(EnvConfig()), inputs.ORACLE_GAMMA)

    def run_unit(self, i: int, phase: Phase, tracer: Tracer | None) -> str:
        g = i % len(self.spec["grids"])
        grid = self.spec["grids"][g]
        if tracer is not None:
            tracer.next_op()
        common = ["--seed", str(self.seed), "--config", grid["config"]]
        solve = run_cli(common + ["oracle", "--gamma", str(inputs.ORACLE_GAMMA),
                                  "--ql-steps", str(grid["ql_steps"])], tracer)
        audit = run_cli(common + ["eval", "--oracle"], tracer)
        phase.attempted += 1
        phase.record(f"grid{g}", grid["states"], solve.wall_s + audit.wall_s)
        why = self._check(g, solve, audit)
        if why:
            phase.fail(1, f"oracle grid{g}: {why}")
        return f"grid{g}"

    def aliases(self, phase: Phase) -> list[str]:
        sweep_s = sum(statistics.median(t) for t in phase.unit_s.values())
        return [f"oracle.sweep_s {sweep_s!r} s",
                f"oracle.sweeps {min(len(t) for t in phase.unit_s.values())} count"]

    def _check(self, g: int, solve: CliRun, audit: CliRun) -> str:
        for run in (solve, audit):
            if run.rc != 0:
                return _cli_error(run)
        if g in self.reference:
            return "" if (solve.stdout, audit.stdout) == self.reference[g] else "output differs from the first sweep"
        fields = dict(
            line.split(": ", 1) for line in (solve.stdout + audit.stdout).splitlines() if ": " in line
        )
        try:
            sweeps = int(fields["value iteration sweeps"])
            agreement = float(fields["q-learning policy agreement"])
            optimal = fields["optimal policy success rate"]
            landed = fields["success rate"]
        except (KeyError, ValueError) as exc:
            return f"unreadable output: {exc!r}"
        self.vi_sweeps[g] = sweeps
        self.notes.append(f"oracle.grid{g}.value_iteration_sweeps {sweeps} count")
        if optimal != "1.000" or landed != "1.000":
            return f"success rates {optimal} and {landed}, not 1.000"
        if agreement < AGREEMENT_MIN:
            return f"q-learning agreement {agreement} below {AGREEMENT_MIN}"
        self.reference[g] = (solve.stdout, audit.stdout)
        return ""


WORKLOADS = {"detect-batch": DetectBatch, "control": Control, "train": Train, "oracle": Oracle}


def make(spec: dict) -> Workload:
    return WORKLOADS[spec["workload"]](spec)


def measure(wl: Workload, seconds: float, min_units: int) -> Phase:
    """Run units untraced until ``min_units`` have run and the next unit,
    if it takes as long as the last one of its kind, would end after
    ``seconds``. Unit ``i`` is of kind ``i % wl.kinds``."""
    phase = Phase()
    deadline = clock() + seconds
    i, last = 0, [0.0] * wl.kinds
    while i < min_units or clock() + last[i % wl.kinds] <= deadline:
        t0 = clock()
        wl.run_unit(i, phase, None)
        last[i % wl.kinds] = clock() - t0
        i += 1
    return phase


def measure_paired(wl: Workload, seconds: float, tracer: Tracer) -> tuple[Phase, Phase, list[float]]:
    """Run each unit twice, once untraced and once with the wrappers installed,
    until ``seconds`` have passed and every kind has run traced. The order
    within a pair flips after every round of kinds, so drift in machine
    speed cancels; the first round runs untraced first, so the reference
    unit of each kind, whose checks call into the program, records no spans.
    Returns the untraced and traced phases and each pair's traced over
    untraced time per operation."""
    plain, traced = Phase(), Phase()
    ratios = []
    deadline = clock() + seconds
    i = 0
    while clock() < deadline or i < wl.kinds:
        per_op = {}
        for on in (False, True) if (i // wl.kinds) % 2 == 0 else (True, False):
            phase = traced if on else plain
            busy, ops, lo = phase.busy_s, phase.ops, len(tracer)
            if on:
                tracer.install()
                try:
                    key = wl.run_unit(i, phase, tracer)
                finally:
                    tracer.remove()
                phase.units.append((key, lo, len(tracer)))
            else:
                wl.run_unit(i, phase, None)
            if phase.ops > ops:
                per_op[on] = (phase.busy_s - busy) / (phase.ops - ops)
        if len(per_op) == 2:
            ratios.append(per_op[True] / per_op[False])
        i += 1
    return plain, traced, ratios


def repeat_mismatches(phase: Phase, tracer: Tracer) -> int:
    """Units whose calls per span name differ from the first unit of their kind."""
    first: dict = {}
    bad = 0
    for key, lo, hi in phase.units:
        counts = tracer.counts(lo, hi)
        if key not in first:
            first[key] = counts
        elif not np.array_equal(counts, first[key]):
            bad += 1
    return bad


# Spans timed once per CLI call rather than once per operation.
CALL_LEVEL = {
    "cli.main", "dqn.train", "metrics.metrics_report", "persistence.load_vital_checkpoint",
    "persistence.save_dqn_checkpoint", "persistence.write_reward_trace", "plots.write_reward_curve",
}
_SCALE = {"ms": 1e3, "self_ms": 1e3, "us": 1e6}


def per_layer(names: list[str], wl: Workload, s: SpanSummary, overhead: list[float]) -> dict:
    """Every per-layer metric in ``names``; 0 where its layer did not run.

    ``span.ms`` / ``span.us`` are the median, over the operations in which
    the span ran, of its summed time per operation (per CLI call for
    ``CALL_LEVEL`` spans); ``span.self_ms`` is the same for self time and
    ``span.calls`` is calls per operation. FLOP and byte counts are
    computed from layer shapes (see ``workcount``). ``overhead`` holds each
    traced/untraced pair's time ratio from ``measure_paired``.
    """
    n_ops = max(s.n_ops, 1)
    detector = workcount.detector_work(vital.VitalConfig())
    ran_detector = s.count("vital.detect") > 0
    ran_td = s.count("dqn.td_update") > 0

    def per_op(span: str, stat: str = "ms") -> float:
        by = "call" if span in CALL_LEVEL else "op"
        return s.group_median(span, by, self_time=stat == "self_ms") * _SCALE[stat]

    def gflops(flops: float, span: str) -> float:
        seconds = per_op(span) / 1e3
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    qnet_per_op = workcount.qnet_forward_flops() * s.count("dqn.q_values") / n_ops
    special = {
        "vital.flop_per_frame": sum(f for f, _ in detector.values()) if ran_detector else 0,
        "vital.bytes_per_frame": sum(b for _, b in detector.values()) if ran_detector else 0,
        "dqn.td_update.flop": workcount.td_update_flops() if ran_td else 0,
        "dqn.td_update.gflops_per_s": gflops(workcount.td_update_flops(), "dqn.td_update"),
        "tabular.value_iteration.sweeps": statistics.median(wl.vi_sweeps.values())
        if isinstance(wl, Oracle) else 0,
        "tabular.q_learning.updates_per_s": _ql_rate(wl, s),
        "trace.overhead_pct": 100.0 * (statistics.median(overhead) - 1.0),
    }
    for family, span in (("conv", "nncore.conv2d_forward"), ("attention", "nncore.multihead_attention"),
                         ("dense", "nncore.dense_forward")):
        flops = detector[family][0] + (qnet_per_op if family == "dense" else 0)
        special[f"{span}.gflops_per_s"] = gflops(flops, span) if ran_detector else 0.0

    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        values[name] = s.count(span) / n_ops if stat == "calls" else per_op(span, stat)
    return values


def _ql_rate(wl: Workload, s: SpanSummary) -> float:
    """Median over grids of Q-learning updates per second."""
    if not isinstance(wl, Oracle):
        return 0.0
    totals = s.group_totals("tabular.q_learning")
    grids = wl.spec["grids"]
    return statistics.median(grids[op % len(grids)]["ql_steps"] / t for op, t in totals.items())
