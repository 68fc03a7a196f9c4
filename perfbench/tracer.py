"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each gridlander module at the names
their callers resolve, so the package itself stays untouched. The imports
bind functions to local names, so wrapping only the defining module would
miss calls: ``cli`` binds ``detect`` as ``vital_detect`` and
``enumerate_mdp``, ``vital`` binds the ``nncore`` kernels, ``dqn`` binds
``dense_*`` and ``tabular`` binds ``transition``. Methods are wrapped on
their classes.

Each call records a span (name, start, end, parent span, operation id, CLI
call id) in flat arrays. Nothing is installed until ``install`` and
``remove`` restores every original, so an untraced run executes the
package's own functions.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np


def default_targets():
    """(owner, attribute, span name) for every traced call site."""
    from gridlander import (
        cli, dqn, env, geometry, metrics, nncore, perturb, persistence, plots, tabular, vital,
    )

    targets = [(vital, "detect", "vital.detect"), (cli, "vital_detect", "vital.detect")]
    targets += [(vital, f, f"vital.{f}") for f in ("stem_forward", "assemble_tokens", "encoder_forward")]
    targets += [
        (vital, f, f"nncore.{f}")
        for f in (
            "conv2d_forward", "batchnorm_inference", "maxpool2_forward", "layernorm", "gelu",
            "dense_forward", "multihead_attention",
        )
    ]
    targets += [(dqn, f, f"nncore.{f}") for f in ("dense_forward", "dense_preactivation", "dense_backward")]
    targets += [(nncore, "dense_preactivation", "nncore.dense_preactivation")]
    targets += [
        (dqn, f, f"dqn.{f}")
        for f in ("train", "td_update", "compute_targets", "soft_update", "select_action",
                  "q_values", "evaluate_policy")
    ]
    targets += [
        (dqn.ReplayBuffer, "sample", "dqn.replay_sample"),
        (dqn.AdamOptimizer, "step", "dqn.adam_step"),
        (env, "transition", "env.transition"),
        (tabular, "transition", "env.transition"),
        (env.LandingEnv, "step", "env.step"),
        (cli, "enumerate_mdp", "env.enumerate_mdp"),
    ]
    targets += [
        (tabular, f, f"tabular.{f}")
        for f in ("value_iteration", "success_rate_from_all_starts", "policy_rollout",
                  "q_learning", "greedy_agreement")
    ]
    targets += [
        (perturb, "apply_all", "perturb.apply_all"),
        (metrics, "metrics_report", "metrics.metrics_report"),
        (metrics, "iou", "losses.iou"),
    ]
    targets += [(geometry, f, f"geometry.{f}") for f in ("bbox_to_offsets", "offsets_to_state", "discretize")]
    targets += [
        (persistence, f, f"persistence.{f}")
        for f in ("read_ppm", "load_vital_checkpoint", "save_dqn_checkpoint", "write_reward_trace")
    ]
    targets += [(plots, "write_reward_curve", "plots.write_reward_curve")]
    return targets


class Tracer:
    """In-memory span recorder.

    ``op_boundary`` names a span whose every entry starts a new operation
    (a frame or an env step inside one CLI call); otherwise the harness
    calls ``next_op``.
    """

    def __init__(self, targets, op_boundary: str | None = None) -> None:
        self.targets = targets
        self.op_boundary = op_boundary
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.call = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.call_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_op(self) -> None:
        self.op_id += 1

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        starts_op = name == self.op_boundary
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_op:
                tracer.op_id += 1
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    @contextlib.contextmanager
    def cli_call(self):
        """Span one ``cli.main`` call made by the harness."""
        self.call_id += 1
        idx = self._open(self._intern("cli.main"))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        for owner, attr, name in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self, lo: int, hi: int) -> np.ndarray:
        """Calls per span name among spans ``lo:hi``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        return np.bincount(ids, minlength=len(self.names))

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            call=np.frombuffer(self.call, dtype=np.int32),
        )


class SpanSummary:
    """Self times and per-operation aggregates over recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start)
        end = np.frombuffer(tracer.end)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int32).copy()
        self.call = np.frombuffer(tracer.call, dtype=np.int32).copy()
        self.n_ops = tracer.op_id + 1
        self.duration = end - start
        nested = self.parent >= 0
        parents = self.parent[nested]
        child_time = np.bincount(parents, weights=self.duration[nested], minlength=len(start))
        # a layer's self time: its span minus the time its child spans cover
        self.self_time = self.duration - child_time
        inside = (start[nested] >= start[parents]) & (end[nested] <= end[parents])
        self.consistent = bool(inside.all() and (self.self_time >= -1e-9).all())

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def group_totals(self, name: str, by: str = "op", self_time: bool = False) -> dict[int, float]:
        """Summed span time of ``name`` per operation (or CLI call) it ran in."""
        mask = self._mask(name)
        keys = (self.op if by == "op" else self.call)[mask]
        values = (self.self_time if self_time else self.duration)[mask]
        groups, inverse = np.unique(keys, return_inverse=True)
        return dict(zip(groups.tolist(), np.bincount(inverse, weights=values).tolist()))

    def group_median(self, name: str, by: str = "op", self_time: bool = False) -> float:
        """Median of ``group_totals``; 0 if ``name`` never ran."""
        totals = self.group_totals(name, by, self_time)
        return float(np.median(list(totals.values()))) if totals else 0.0
