"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The training criterion is
the long pole (a few minutes of CPU); everything else finishes in seconds
to about a minute.
"""

import json
import math
import time

import numpy as np
import pytest

from gridlander import dqn, metrics, perturb, tabular, vital
from gridlander.cli import main as cli_main
from gridlander.dqn import TrainConfig
from gridlander.env import (
    Action,
    EnvConfig,
    LanderState,
    Terminal,
    enumerate_mdp,
    transition,
)
from gridlander.losses import BBox, ciou_loss, diou_loss, focal_loss, giou_loss, iou
from gridlander.metrics import EvalSample
from gridlander.persistence import write_ppm
from gridlander.rng import Rng
from gridlander.vital import MultimodalImage, VitalConfig

from helpers import fd_grad, rel_err
from test_env import RewardBookkeeper
from test_losses import _ciou_pieces, _degenerate_pair

ENV = EnvConfig()


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(f"\n{line}")
    assert ok, line


def test_criterion_1_dqn_convergence():
    t0 = time.time()
    result = dqn.train(ENV, TrainConfig(), seed=0)
    train_time = time.time() - t0
    first = float(np.mean(result.trace.returns[:100]))
    last = float(np.mean(result.trace.returns[-100:]))
    evaluation = dqn.evaluate(result.network, ENV, episodes=100, seed=123)
    ok = (
        last > first
        and evaluation.success_rate >= 0.90
        and evaluation.mean_final_deviation_m <= 1.0
        and train_time <= 900.0
    )
    report(
        1,
        ok,
        "dqn convergence: moving average "
        f"{first:.1f} -> {last:.1f}, success {evaluation.success_rate:.2f}, "
        f"deviation {evaluation.mean_final_deviation_m:.2f} m, "
        f"{result.episodes_run} episodes in {train_time:.0f}s",
    )


def test_criterion_2_oracle_optimality():
    t0 = time.time()
    gamma = 0.9  # oracle discount; see decisions ledger on the 0.99 near-ties
    mdp = enumerate_mdp(ENV)
    solution = tabular.value_iteration(mdp, gamma)
    success = tabular.success_rate_from_all_starts(mdp, solution.policy)
    q_table = tabular.q_learning(mdp, gamma, alpha=0.1, steps=100_000)
    agreement = tabular.greedy_agreement(q_table, solution.q)
    elapsed = time.time() - t0
    ok = success == 1.0 and agreement >= 0.95 and elapsed <= 60.0
    report(
        2,
        ok,
        f"oracle optimality: VI success {success:.3f}, "
        f"q-learning agreement {agreement:.3f} in {elapsed:.0f}s",
    )


def test_criterion_3_reward_function_fidelity():
    rng = Rng(2024)
    max_err = 0.0
    landings = 0
    outside = 0
    for _ in range(10_000):
        start = LanderState(
            float(rng.integers(13)) - 6.0,
            float(rng.integers(13)) - 6.0,
            float(rng.integers(8)) + 1.0,
        )
        book = RewardBookkeeper(ENV, start)
        state = start
        for _ in range(40):
            out = transition(state, Action(int(rng.integers(5))), ENV)
            expected = book.step(state, out.next)
            max_err = max(max_err, abs(out.reward - expected))
            if out.terminal is Terminal.LANDED_SUCCESS:
                landings += 1
                assert out.reward == 400.0
            elif out.terminal is Terminal.LANDED_OUTSIDE:
                outside += 1
                assert out.reward == -200.0 * out.next.horizontal_distance()
            state = out.next
            if out.terminal is not Terminal.NONE:
                break
    ok = max_err <= 1e-6 and landings > 0 and outside > 0
    report(
        3,
        ok,
        f"reward fidelity: max per-step deviation {max_err:.2e} over 1e4 trajectories "
        f"({landings} successes, {outside} outside landings, both exact)",
    )


def test_criterion_4_loss_family_correctness():
    rng = np.random.default_rng(4)

    def random_box():
        x0, y0 = rng.uniform(-3, 3, size=2)
        w, h = rng.uniform(0.2, 3, size=2)
        return BBox(x0, y0, x0 + w, y0 + h)

    ordering_ok = True
    for _ in range(1000):
        a, b = random_box(), random_box()
        i = iou(a, b)
        ordering_ok &= (1.0 - giou_loss(a, b)[0]) <= i + 1e-12
        ordering_ok &= (1.0 - diou_loss(a, b)[0]) <= i + 1e-12

    same = BBox(0.3, 0.4, 1.3, 2.0)
    identical_ok = all(fn(same, same)[0] == pytest.approx(0.0, abs=1e-12)
                       for fn in (giou_loss, diou_loss, ciou_loss))

    pred, truth = BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)
    disjoint_ok = (
        abs((1.0 - giou_loss(pred, truth)[0]) - (-7.0 / 9.0)) < 1e-9
        and abs((1.0 - diou_loss(pred, truth)[0]) - (-4.0 / 9.0)) < 1e-9
    )

    grad_ok = True
    checked = 0
    while checked < 40:
        p, t = random_box(), random_box()
        if _degenerate_pair(p, t):
            continue
        corners = np.array(p.corners, dtype=np.float64)
        for fn in (giou_loss, diou_loss):
            numeric = fd_grad(lambda: fn(BBox(*corners), t)[0], corners)
            grad_ok &= rel_err(fn(BBox(*corners), t)[1], numeric, floor=1e-4).max() < 1e-4
        iou0, dist0, v0 = _ciou_pieces(corners, t)
        alpha0 = v0 / ((1.0 - iou0) + v0) if (1.0 - iou0) + v0 > 0 else 0.0

        def frozen():
            i_v, d_v, v_v = _ciou_pieces(corners, t)
            return 1.0 - (i_v - d_v - alpha0 * v_v)

        numeric = fd_grad(frozen, corners)
        grad_ok &= rel_err(ciou_loss(BBox(*corners), t)[1], numeric, floor=1e-4).max() < 1e-4
        checked += 1

    focal_ok = True
    for _ in range(300):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(2))
        loss, _ = focal_loss(p, y, alpha=0.5, gamma=0.0)
        bce = -math.log(p) if y == 1 else -math.log(1.0 - p)
        focal_ok &= abs(loss - 0.5 * bce) < 1e-9

    ok = ordering_ok and identical_ok and disjoint_ok and grad_ok and focal_ok
    report(
        4,
        ok,
        "loss family: ordering x1000, closed forms at 1e-9, gradients at 1e-4, "
        "focal gamma=0 vs 0.5*BCE at 1e-9",
    )


def test_criterion_5_detector_shape_invariants():
    cfg = VitalConfig()
    worst_row_sum = 0.0
    for trial in range(100):
        weights = vital.init_weights(cfg, seed=trial)
        img = MultimodalImage(
            np.random.default_rng(10_000 + trial).random((3, 160, 160)).astype(np.float32)
        )
        stems = {}
        for idx, modality in enumerate(vital.MODALITIES):
            out = vital.stem_forward(weights.stems[modality], img.planes[idx][None], cfg)
            assert out.shape == (128, 20, 20)
            stems[modality] = out
        tokens = vital.assemble_tokens(stems["visual"], stems["thermal"], stems["lidar"], weights)
        assert tokens.shape == (401, 384)
        encoded, maps = vital.encoder_forward(tokens, weights, collect_attention=True)
        assert encoded.shape == (401, 384)
        for attn in maps:
            worst_row_sum = max(worst_row_sum, float(np.abs(attn.sum(axis=-1) - 1.0).max()))
        det = vital.detect(img, weights)
        assert 0.0 <= det.objectness <= 1.0
        assert det.bbox.x_min <= det.bbox.x_max and det.bbox.y_min <= det.bbox.y_max

    # zeroing every attention / FFN projection turns the encoder into identity
    w0 = vital.init_weights(cfg, seed=1234)
    for layer in w0.encoder:
        a = layer.attention
        for arr in (a.wq, a.wk, a.wv, a.wo, a.bq, a.bk, a.bv, a.bo):
            arr[:] = 0.0
        for dense in (layer.ffn_in, layer.ffn_out):
            dense.weights[:] = 0.0
            dense.bias[:] = 0.0
    probe = np.random.default_rng(77).standard_normal((401, 384)).astype(np.float32)
    identity_ok = np.array_equal(vital.encoder_forward(probe, w0), probe)

    ok = worst_row_sum <= 1e-6 and identity_ok
    report(
        5,
        ok,
        f"detector invariants: 100 seeded weight sets, worst attention row-sum "
        f"error {worst_row_sum:.1e}, residual-zero identity {identity_ok}",
    )


def test_criterion_6_perturbation_suite():
    rng = np.random.default_rng(6)
    img = MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))
    box = BBox(0.125, 0.25, 0.375, 0.5)  # dyadic label coordinates

    flips_ok = True
    for flip in (perturb.flip_h, perturb.flip_v):
        once, b1 = flip(img, box)
        twice, b2 = flip(once, b1)
        flips_ok &= np.array_equal(twice.planes, img.planes) and b2 == box

    base = MultimodalImage(np.full((3, 160, 160), 0.5, dtype=np.float32))
    corrupted = total = 0
    for seed in range(14):
        out = perturb.salt_pepper(base, 0.002, seed=seed)
        corrupted += int((out.planes != np.float32(0.5)).sum())
        total += out.planes.size
    rate = corrupted / total
    rate_ok = total > 1_000_000 and abs(rate - 0.002) <= 0.1 * 0.002

    disabled = perturb.disable_modalities(img, {"thermal"})
    disable_ok = (
        not disabled.planes[1].any()
        and np.array_equal(disabled.planes[0], img.planes[0])
        and np.array_equal(disabled.planes[2], img.planes[2])
    )

    range_ok = True
    for pert in (
        perturb.Perturbation("brightness", delta=0.9),
        perturb.Perturbation("brightness", delta=-0.9),
        perturb.Perturbation("fog", low=0.1, high=0.5, seed=1),
        perturb.Perturbation("salt_pepper", prob=0.05, seed=2),
        perturb.Perturbation("disable", modalities=("visual",)),
        perturb.Perturbation("flip_h"),
        perturb.Perturbation("flip_v"),
    ):
        out, _ = perturb.apply_perturbation(pert, img)
        range_ok &= out.planes.shape == (3, 160, 160)
        range_ok &= 0.0 <= out.planes.min() and out.planes.max() <= 1.0

    ok = flips_ok and rate_ok and disable_ok and range_ok
    report(
        6,
        ok,
        f"perturbations: flip involutions exact, salt-pepper rate {rate:.5f} "
        f"vs 0.002 over {total} px, modality zeroing exact, ranges preserved",
    )


def test_criterion_7_reproducibility(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"train": {"episodes": 3}}))

    train_blobs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        code = cli_main(["--config", str(cfg_path), "--seed", "21",
                         "train", "--out", str(out)])
        assert code == 0
        train_blobs.append(
            ((out / "reward_trace.csv").read_bytes(), (out / "dqn.ckpt").read_bytes())
        )
    train_ok = train_blobs[0] == train_blobs[1]

    eval_blobs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        code = cli_main(["--seed", "22", "eval", "--checkpoint",
                         str(tmp_path / "t1" / "dqn.ckpt"),
                         "--episodes", "3", "--out", str(out)])
        assert code == 0
        eval_blobs.append(b"".join(sorted(
            p.read_bytes() for p in out.glob("episode_*.csv")
        )))
    eval_ok = eval_blobs[0] == eval_blobs[1]

    src = tmp_path / "img.ppm"
    write_ppm(src, MultimodalImage(
        np.random.default_rng(3).random((3, 160, 160)).astype(np.float32)))
    pert_blobs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        code = cli_main(["--seed", "23", "perturb", "--image", str(src),
                         "--perturb", "fog=0.1,0.5", "--perturb", "salt_pepper=0.01",
                         "--out", str(out)])
        assert code == 0
        pert_blobs.append((out / "img.ppm").read_bytes())
    pert_ok = pert_blobs[0] == pert_blobs[1]

    capsys.readouterr()  # swallow CLI prints before the report line
    ok = train_ok and eval_ok and pert_ok
    report(
        7,
        ok,
        f"reproducibility: train {train_ok}, eval {eval_ok}, perturb {pert_ok} "
        "(byte-identical outputs under fixed seeds)",
    )


def test_criterion_8_benchmark_latency(capsys):
    code = cli_main(["--seed", "8", "bench", "--iters", "5", "--warmup", "2"])
    stdout = capsys.readouterr().out
    assert code == 0
    stats = {}
    for line in stdout.splitlines():
        if line.startswith("latency"):
            stats[line.split(":")[0].split()[1]] = float(line.split(":")[1].replace("ms", ""))
    ok = (
        {"mean", "p50", "p95"} <= set(stats)
        and stats["mean"] <= 500.0
        and stats["p50"] <= 500.0
        and "(3, 160, 160)" in stdout
    )
    report(
        8,
        ok,
        f"benchmark: mean {stats.get('mean', float('nan')):.0f} ms, "
        f"p50 {stats.get('p50', float('nan')):.0f} ms, "
        f"p95 {stats.get('p95', float('nan')):.0f} ms on (3,160,160), budget 500 ms",
    )


def test_criterion_9_metric_oracle():
    unit = BBox(0.0, 0.0, 1.0, 1.0)

    def sample(score, iou_with_truth=None):
        if iou_with_truth is None:
            return EvalSample(score, BBox(0.0, 0.0, 0.5, 0.5), None)
        return EvalSample(score, BBox(0.0, 0.0, 1.0, iou_with_truth), unit)

    five = [
        sample(0.95, 0.8),
        sample(0.90, 0.3),
        sample(0.80, None),
        sample(0.60, 0.6),
        sample(0.30, 0.55),
    ]
    # exhaustive hand enumeration of the PR curve (see test_metrics for the
    # ranked table): AP50 = (26 * 1.0 + 50 * 0.6) / 101
    ap_ok = abs(metrics.average_precision(five, 0.5) - 56.0 / 101.0) < 1e-9

    counts = metrics.Counts(tp=8, fp=1, tn=1, fn=2)
    acc_obj_v = metrics.acc_obj(counts, alpha=0.85)
    acc_obj_ok = abs(acc_obj_v - (0.85 * 0.8 + 0.15 * 0.5)) < 1e-12

    box_samples = [sample(0.9, 1.0), sample(0.8, 1.0 / 7.0), sample(0.7, 1e-12)]
    acc_box_v = metrics.acc_box(box_samples)
    acc_box_ok = abs(acc_box_v - 8.0 / 21.0) < 1e-9

    acc_ok = abs(metrics.acc(acc_box_v, acc_obj_v, 0.5) - 0.5 * (acc_box_v + acc_obj_v)) < 1e-12

    ok = ap_ok and acc_obj_ok and acc_box_ok and acc_ok
    report(
        9,
        ok,
        f"metric oracle: AP50 {metrics.average_precision(five, 0.5):.9f} == 56/101, "
        f"acc_obj 0.755, acc_box 8/21, acc blend exact",
    )
