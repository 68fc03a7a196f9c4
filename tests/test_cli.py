import hashlib
import json
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridlander import cli, perturb
from gridlander.cli import main
from gridlander.dqn import QNetwork, TrainConfig, init_qnetwork
from gridlander.env import EnvConfig
from gridlander.persistence import (
    LABELS_HEADER,
    SampleRecord,
    load_dqn_checkpoint,
    qnetwork_tensors,
    read_ppm,
    save_checkpoint,
    save_dqn_checkpoint,
    save_vital_checkpoint,
    vital_tensors,
    write_ppm,
    write_sample_records,
)
from gridlander.vital import MultimodalImage, VitalConfig, init_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_image(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


SMALL_ENV = {
    "env": {"x_range": [-2, 2], "y_range": [-2, 2], "z_range": [0, 3]},
    "train": {"episodes": 3},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_ENV))
    return str(path)


# --- train -------------------------------------------------------------------


def test_train_single_episode(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "--seed", "3", "train", "--out", str(out), "--episodes", "1"
    )
    assert code == 0
    trace = (out / "reward_trace.csv").read_text().splitlines()
    assert trace[0] == "episode,return,moving_avg,epsilon"
    assert len(trace) == 2
    assert (out / "dqn.ckpt").exists()
    assert (out / "reward_curve.svg").read_text().startswith("<svg")


def test_train_byte_identical_under_seed(tmp_path, capsys, small_config):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "--config", small_config, "--seed", "11", "train", "--out", str(out)
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "reward_trace.csv").read_bytes() == (outs[1] / "reward_trace.csv").read_bytes()
    assert (outs[0] / "dqn.ckpt").read_bytes() == (outs[1] / "dqn.ckpt").read_bytes()


def test_train_outputs_match_recorded_digests(tmp_path, capsys):
    # SHA-256 digests recorded from the per-tensor DQN core (float32 layers,
    # list-backed replay); the flat-parameter core must reproduce them
    out = tmp_path / "run"
    code, _, _ = run(capsys, "--seed", "0", "train", "--episodes", "50", "--out", str(out))
    assert code == 0
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest("dqn.ckpt") == "960c60ac6a89ca66e3040c6bf621185a64e2ff53fb8f5050d0db838b8594e825"
    assert digest("reward_trace.csv") == (
        "d9ea5b713b1c33a9742da319488ac655b95e60626c8c1e3b879dc94996a96323"
    )


def test_train_invalid_episodes(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--out", str(tmp_path / "x"), "--episodes", "0")
    assert code == 2
    assert "error" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "raw,named",
    [
        ({"train": {"stop_window": -3}}, "stop_window"),
        ({"train": {"stop_window": 0}}, "stop_window"),
        ({"train": {"learning_rate": -1}}, "learning_rate"),
        ({"train": {"learning_rate": float("nan")}}, "learning_rate"),
        ({"train": {"eps_decrement": -0.5}}, "eps_decrement"),
        ({"train": {"replay_capacity": 10**18}}, "replay_capacity"),
        ({"env": {"x_range": [-6, 0]}}, "x_range"),
        ({"env": {"y_range": [-6, 0]}}, "y_range"),
        ({"env": {"x_range": [-1e18, 1e18]}}, "x_range"),
        ({"env": {"z_range": [0, 1]}}, "no eligible start altitudes"),
        # finite weights whose shaping overflows at the farthest cell
        ({"env": {"x_range": [-2, 2], "y_range": [-2, 2], "z_range": [0, 3],
                  "k_weights": [1e308, 1, 1]}}, "reward overflows"),
    ],
)
def test_train_rejects_unusable_settings_before_writing(tmp_path, capsys, raw, named):
    """Settings that used to end in a traceback, a silent misreading or a late
    exit 2 are rejected with one line before --out exists."""
    cfg, out = tmp_path / "bad.json", tmp_path / "o"
    cfg.write_text(json.dumps(raw))
    code, stdout, err = run(capsys, "--config", str(cfg), "train", "--episodes", "3", "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert named in err
    assert not out.exists()


# --- eval --------------------------------------------------------------------


def test_eval_zero_episodes_is_usage_error(tmp_path, capsys, small_config):
    code, _, err = run(
        capsys, "--config", small_config, "eval", "--oracle", "--episodes", "0"
    )
    assert code == 2
    assert "error" in err


def test_eval_oracle_policy_full_success(capsys, small_config, tmp_path):
    out = tmp_path / "eval"
    code, stdout, _ = run(
        capsys,
        "--config", small_config, "--seed", "5",
        "eval", "--oracle", "--episodes", "10", "--out", str(out),
    )
    assert code == 0
    assert "success rate: 1.000" in stdout
    # deviation printed with two decimals and in meters
    dev_line = [l for l in stdout.splitlines() if "deviation" in l][0]
    assert "(m)" in dev_line
    assert len(dev_line.split(":")[1].strip().split(".")[-1]) == 2
    assert (out / "trajectories_xy.svg").exists()
    assert (out / "trajectories_xz.svg").exists()
    assert (out / "episode_000.csv").exists()


# SHA-256 over `eval --oracle --episodes 30 --out` stdout (without the
# "traces in" line) and the digest of every file written, recorded from the
# rollouts that stepped LandingEnv live; the table rollout must reproduce them
ORACLE_EVAL_GOLDEN = [
    ({"x_range": [-6, 6], "y_range": [-6, 6], "z_range": [0, 8], "k_weights": [1, 1, 2],
      "landing_zone_radius": 1.5, "boundary_mode": "clamp"},
     "6915541de1aa787ef5d70d9ee817b2e8bff960df961b00a0f414a4c6e60d7f5e"),
    ({"x_range": [-9, 9], "y_range": [-9, 9], "z_range": [0, 12], "k_weights": [2, 2, 1],
      "boundary_mode": "crash", "max_steps": 14},  # some episodes run out of steps
     "4c91fdc42da009501ac318283b0a6116c926f5362b4402e6ba55c96386418f41"),
]


@pytest.mark.parametrize("env,expected", ORACLE_EVAL_GOLDEN)
def test_eval_oracle_outputs_match_recorded_digests(tmp_path, capsys, env, expected):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"env": env, "train": {"gamma": 0.9}}))
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "--config", str(config), "--seed", "7",
                          "eval", "--oracle", "--episodes", "30", "--out", str(out))
    assert code == 0
    lines = [l for l in stdout.splitlines(keepends=True) if not l.startswith("traces in ")]
    digest = hashlib.sha256("".join(lines).encode())
    files = sorted(out.iterdir())
    assert len(files) == 32  # 30 episode traces and two projections
    for path in files:
        digest.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    assert digest.hexdigest() == expected


def test_eval_checkpoint_roundtrip(tmp_path, capsys, small_config):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "--config", small_config, "--seed", "2",
                     "train", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(
        capsys, "eval", "--checkpoint", str(out / "dqn.ckpt"), "--episodes", "4", "--seed", "9"
    )
    assert code == 0
    assert "success rate" in stdout
    # the stored env config rides along in the checkpoint
    _, meta = load_dqn_checkpoint(out / "dqn.ckpt")
    assert meta["env"]["x_range"] == [-2, 2]


def test_eval_checkpoint_unknown_env_key_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "dqn.ckpt"
    save_dqn_checkpoint(ckpt, init_qnetwork(0), {"env": {"gravity": 9.8}})
    code, stdout, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--episodes", "1")
    _assert_one_line_usage_error(code, stdout, err)
    assert "gravity" in err


def test_eval_checkpoint_wind_keeps_stored_grid(tmp_path, capsys):
    ckpt = tmp_path / "dqn.ckpt"
    save_dqn_checkpoint(ckpt, init_qnetwork(0), {"env": SMALL_ENV["env"]})
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "--seed", "3", "eval", "--checkpoint", str(ckpt),
                     "--episodes", "6", "--wind", "0.0", "--out", str(out))
    assert code == 0
    for trace in out.glob("episode_*.csv"):
        for row in trace.read_text().splitlines()[1:]:
            dx, dy, dz = (float(v) for v in row.split(",")[1:4])
            assert abs(dx) <= 2 and abs(dy) <= 2 and 0 <= dz <= 3


@pytest.mark.parametrize("env", [{"x_range": [-2, 0]}, {"y_range": [-2, 0]}])
def test_eval_checkpoint_rejects_a_range_ending_at_zero(tmp_path, capsys, env):
    """The Q-network's input divides by each range's upper bound; the oracle
    commands, which read no Q-network, keep accepting such a grid."""
    ckpt, out = tmp_path / "dqn.ckpt", tmp_path / "o"
    save_dqn_checkpoint(ckpt, init_qnetwork(0), {"env": {**SMALL_ENV["env"], **env}})
    code, stdout, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--episodes", "2",
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert list(env)[0] in err
    assert not out.exists()
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"env": {**SMALL_ENV["env"], **env}}))
    for command in (["oracle", "--ql-steps", "500"], ["eval", "--oracle", "--episodes", "2"]):
        code, _, err = run(capsys, "--config", str(cfg), *command)
        assert (code, err) == (0, "")


def test_eval_needs_checkpoint_or_oracle(capsys):
    code, _, err = run(capsys, "eval", "--episodes", "2")
    assert code == 2


def test_eval_oracle_with_checkpoint_exit_2(tmp_path, capsys, small_config):
    code, stdout, err = run(capsys, "--config", small_config, "eval", "--oracle",
                            "--checkpoint", str(tmp_path / "missing.ckpt"), "--episodes", "2")
    _assert_one_line_usage_error(code, stdout, err)
    assert err == "error: eval needs exactly one of --checkpoint or --oracle\n"


# SHA-256 digests recorded from the Q-network forward that chained
# nncore.dense_forward per layer, before q_values ran through the TD step's
# batch forward
EVAL_GOLDEN = {
    "stdout": "db445ab2bf89764b37b0820ee6cc3ef6326ec02663c3f9c71c5f517d681b0152",
    "episode_000.csv": "c13aa113f07b4f53974f42a4cdead1ce4f899104ec24308109baec4eec598eed",
    "episode_001.csv": "3b6fd46625c30b3700dca973d2ddfb2fbe58cd01dbaf171a5beb35836f50c8dc",
    "episode_002.csv": "070fd92ea2658b6b1ef0b6596e692ad3f9bb97e742d4dbfdbe50640837bd13be",
    "episode_003.csv": "323aee6202ea2d58e5e87cd4fb09d4d14f1893ec817c417a0075932c72ba4c85",
    "episode_004.csv": "e63af088343be59412661c298117e359465d2d2cc277a34c02ab10f8adff0e13",
    "episode_005.csv": "ae7d8110010b17fb8ca28c49b53a4650c165dfa2f90edbe054a83967f4f426d0",
    "episode_006.csv": "aa3efbbc5fa0417a95dfc452ecf986f2212e899b951a35b878b2ac62c603dc4f",
    "episode_007.csv": "6ac9aeab2edb823924a6438ca6f784b01950f25f27bd00c76ccd3a902c527bf0",
    "episode_008.csv": "0487da0031bb66dc4ed121ee87960c4137f7acfd22f1aa53e577dbb00edce265",
    "episode_009.csv": "4508ed5f8d6e37430ee04de619206a48487fd098f911fb91536e0b64ee335534",
    "episode_010.csv": "6a967ddaf2b9d5d623f925907a719c56aad853615ea96e097816d64a61cba8ab",
    "episode_011.csv": "e886d8252baf503bd22edf8fe7071e745e2ad7d7359f82f1c9a5739c12a489f9",
    "episode_012.csv": "7eca7d68909481682486fa0ab368546c34342532f597caf055cf389eec17d2bb",
    "episode_013.csv": "322ee5583a512535d41ad19084c6d3ed17fe862f2bac43faa54c82386ffdc032",
    "episode_014.csv": "497c1f9544c7fd04237c8ffbae36f1066dc0af987bc2bcabc06a5b4dda4f1ed2",
    "episode_015.csv": "257d03bfab81336ead2af50ee3b6330010e8d4451c18c8d818836c19aeadfbb1",
    "episode_016.csv": "be202f937b8985af14d7bd04d1770cd465f58611004afe4473b7b49a1ccfaf13",
    "episode_017.csv": "7d4e5b48d66e4669e4a194ac8db4090c0fef76ce99adc19909f64bd9ce26c16a",
    "episode_018.csv": "84e26f9d85fe05c9ecacd08187a8483053e55e35bdb8a527be898459df03a269",
    "episode_019.csv": "0076aef977d820ea75b90de947c63789e1f41aae93b1a8bd5a69f9648032246c",
    "trajectories_xy.svg": "fda5b014acf483aedf57189c5baacf442eba51fe309757cc11560de807218426",
    "trajectories_xz.svg": "61537ef66cfc64b5dc88d704a802226a7545e592489120ed914432edf8613d04",
}


def test_eval_checkpoint_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --out keeps the "traces in" line fixed
    save_dqn_checkpoint("q5.ckpt", init_qnetwork(5), {})
    code, stdout, _ = run(capsys, "--seed", "3", "eval", "--checkpoint", "q5.ckpt",
                          "--episodes", "20", "--out", "out")
    assert code == 0
    digest = lambda blob: hashlib.sha256(blob).hexdigest()
    found = {p.name: digest(p.read_bytes()) for p in (tmp_path / "out").iterdir()}
    assert {"stdout": digest(stdout.encode()), **found} == EVAL_GOLDEN


def _homing_qnetwork(descend: float) -> QNetwork:
    """A Q-network that moves toward the pad along its larger horizontal
    offset, and descends once both normalized offsets are below ``descend``."""
    net = QNetwork()
    layers = net.layers
    layers[0].weights[:4, :2] = [[1, 0], [-1, 0], [0, 1], [0, -1]]  # relu(+-dx), relu(+-dy)
    for layer in layers[1:3]:
        layer.weights[:4, :4] = np.eye(4)
    layers[3].weights[:4, :4] = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    layers[3].bias[4] = descend
    return net


# SHA-256 over `eval --checkpoint --wind 0.3 --out` stdout and the digest of
# every file written, recorded while the live reward wrote out its own shaping
# sum and payoffs. Gusts push the homing policy across the landing-zone edge;
# the first grid lands inside and outside it, the second lands, crashes and
# runs out of steps.
EVAL_WIND_GOLDEN = [
    ({}, "ea3aeb2bfe76c8853ce145c2a5e415dd177d19fd2d6d3fe6a30711f611a42a84"),
    ({"x_range": [-3, 3], "y_range": [-2, 2], "boundary_mode": "crash", "landing_zone_radius": 1.5,
      "k_weights": [1, 2, 1], "max_steps": 12},
     "18b02004671bc0f9ecbfabca573f0d9ba84a785d6d2330152a908525cab677bb"),
]


@pytest.mark.parametrize("env,expected", EVAL_WIND_GOLDEN)
def test_eval_checkpoint_wind_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch, env,
                                                             expected):
    monkeypatch.chdir(tmp_path)  # a relative --out keeps the "traces in" line fixed
    save_dqn_checkpoint("homing.ckpt", _homing_qnetwork(0.25), {"env": env})
    code, stdout, _ = run(capsys, "--seed", "3", "eval", "--checkpoint", "homing.ckpt",
                          "--episodes", "20", "--wind", "0.3", "--out", "out")
    assert code == 0
    digest = hashlib.sha256(stdout.encode())
    for path in sorted((tmp_path / "out").iterdir()):
        digest.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    assert digest.hexdigest() == expected


def test_eval_checkpoint_extra_tensor_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "dqn.ckpt"
    tensors = {**qnetwork_tensors(init_qnetwork(0)), "layer4.weights": np.zeros((5, 5), np.float32)}
    save_checkpoint(ckpt, "dqn", {}, tensors)
    code, stdout, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--episodes", "1")
    _assert_one_line_usage_error(code, stdout, err)
    assert "layer4.weights" in err


# --- detect ------------------------------------------------------------------


def test_detect_missing_image_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.ppm"
    code, _, err = run(capsys, "detect", "--image", str(missing))
    assert code == 2
    assert "nope.ppm" in err


def test_detect_single_image(tmp_path, capsys):
    path = tmp_path / "img.ppm"
    write_ppm(path, make_image(1))
    code, stdout, _ = run(capsys, "--seed", "4", "detect", "--image", str(path))
    assert code == 0
    assert "objectness:" in stdout
    assert "bbox:" in stdout


def test_detect_with_perturbation_directive(tmp_path, capsys):
    path = tmp_path / "img.ppm"
    write_ppm(path, make_image(2))
    code, stdout, _ = run(
        capsys, "detect", "--image", str(path), "--perturb", "disable=lidar,thermal"
    )
    assert code == 0
    assert "objectness:" in stdout


def test_detect_batch_emits_metrics(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    records = []
    for i in range(3):
        name = f"img_{i}.ppm"
        write_ppm(batch / name, make_image(10 + i))
        records.append(SampleRecord(name, 0.25, 0.25, 0.75, 0.75, 1 if i < 2 else 0))
    write_sample_records(batch / "labels.csv", records)
    out_json = tmp_path / "metrics.json"
    code, stdout, _ = run(
        capsys, "detect", "--batch", str(batch), "--out", str(out_json)
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert "ap50" in report
    assert "ap50" in stdout
    assert "TPR" in stdout  # table header


SMALL_VITAL = VitalConfig(embed_dim=8, encoder_layers=1, ffn_hidden=16, heads=3, stem_channels=(2, 2, 2))


def test_detect_with_checkpoint(tmp_path, capsys):
    ckpt, image = tmp_path / "vital.ckpt", tmp_path / "img.ppm"
    save_vital_checkpoint(ckpt, init_weights(SMALL_VITAL, 0))
    write_ppm(image, make_image(3))
    code, stdout, _ = run(capsys, "detect", "--image", str(image), "--checkpoint", str(ckpt))
    assert code == 0
    assert "objectness:" in stdout


@pytest.mark.parametrize(
    "config",
    [
        {},
        {k: v for k, v in asdict(SMALL_VITAL).items() if k != "heads"},
        {**asdict(SMALL_VITAL), "heads": "6"},
        {**asdict(SMALL_VITAL), "depth": 2},
        {**asdict(SMALL_VITAL), "heads": 5},
    ],
)
def test_detect_checkpoint_bad_detector_config_exit_2(tmp_path, capsys, config):
    # the container is CRC-valid; only the stored detector config is wrong
    ckpt, image = tmp_path / "vital.ckpt", tmp_path / "img.ppm"
    save_checkpoint(ckpt, "vital", config, vital_tensors(init_weights(SMALL_VITAL, 0)))
    write_ppm(image, make_image(3))
    code, stdout, err = run(capsys, "detect", "--image", str(image), "--checkpoint", str(ckpt))
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error:")


def test_detect_checkpoint_extra_tensor_exit_2(tmp_path, capsys):
    ckpt, image = tmp_path / "vital.ckpt", tmp_path / "img.ppm"
    weights = init_weights(SMALL_VITAL, 0)
    tensors = {**vital_tensors(weights), "encoder1.attn.wq": np.zeros((6, 6), np.float32)}
    save_checkpoint(ckpt, "vital", asdict(SMALL_VITAL), tensors)
    write_ppm(image, make_image(3))
    code, stdout, err = run(capsys, "detect", "--image", str(image), "--checkpoint", str(ckpt))
    _assert_one_line_usage_error(code, stdout, err)
    assert "encoder1.attn.wq" in err


def test_detect_requires_one_input_mode(capsys):
    code, _, _ = run(capsys, "detect")
    assert code == 2


# --- bench -------------------------------------------------------------------


def test_bench_single_iteration(capsys):
    code, stdout, _ = run(capsys, "bench", "--iters", "1", "--warmup", "0")
    assert code == 0
    lines = {l.split(":")[0]: l.split(":", 1)[1] for l in stdout.splitlines() if ":" in l}
    mean = float(lines["latency mean"].replace("ms", ""))
    p50 = float(lines["latency p50"].replace("ms", ""))
    p95 = float(lines["latency p95"].replace("ms", ""))
    assert mean == pytest.approx(p50) == pytest.approx(p95)
    assert "(3, 160, 160)" in stdout


def test_bench_mean_within_min_max(capsys):
    code, stdout, _ = run(capsys, "bench", "--iters", "4", "--warmup", "1")
    assert code == 0
    vals = {}
    for line in stdout.splitlines():
        if line.startswith("latency"):
            key = line.split(":")[0].split()[1]
            vals[key] = float(line.split(":")[1].replace("ms", ""))
    assert vals["min"] <= vals["mean"] <= vals["max"]
    assert vals["min"] <= vals["p50"] <= vals["p95"] <= vals["max"]


def test_bench_stability_two_runs(capsys):
    means, digests = [], []
    for _ in range(2):
        code, stdout, _ = run(capsys, "bench", "--iters", "5", "--warmup", "2")
        assert code == 0
        digests.append([l for l in stdout.splitlines() if l.startswith("output sha256:")])
        line = [l for l in stdout.splitlines() if l.startswith("latency mean")][0]
        means.append(float(line.split(":")[1].replace("ms", "")))
    assert abs(means[0] - means[1]) <= 0.2 * max(means)
    assert digests[0] == digests[1]


def test_bench_output_digest(capsys):
    # SHA-256 of the float64 (objectness, x_min, y_min, x_max, y_max) rows
    code, stdout, _ = run(capsys, "bench", "--iters", "2", "--warmup", "0")
    assert code == 0
    assert stdout.splitlines()[-1] == (
        "output sha256: 54ec4feeb3e089e2d41c7b656451008b30f85bf44096661979119005fb3dd956"
    )


def test_detect_batch_without_labels_lists_detections(tmp_path, capsys):
    batch = tmp_path / "imgs"
    batch.mkdir()
    for i in range(2):
        write_ppm(batch / f"img_{i}.ppm", make_image(30 + i))
    code, stdout, _ = run(capsys, "detect", "--batch", str(batch))
    assert code == 0
    assert stdout.count("objectness") == 2
    assert "TPR" not in stdout  # no ground truth, no metrics table


@pytest.mark.parametrize("mode", ["--image", "--batch"])
def test_detect_out_without_ground_truth_exit_2(tmp_path, capsys, mode):
    """--out needs a labelled batch: with --image, or a batch without
    labels.csv, detect exits 2 before it loads weights or writes a file."""
    image = tmp_path / "img_0.ppm"
    write_ppm(image, make_image(40))
    out_json = tmp_path / "metrics.json"
    target = image if mode == "--image" else tmp_path  # a batch with no labels.csv
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run(
        capsys, "detect", mode, str(target), "--checkpoint", str(tmp_path / "missing.ckpt"),
        "--out", str(out_json),
    )
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error: --out needs ground truth")  # not the missing checkpoint
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("field", ["x_min", "objectness"])
def test_detect_batch_non_numeric_label_exit_2(tmp_path, capsys, field):
    """A labels.csv field that is not a number names the file and line."""
    batch = tmp_path / "batch"
    batch.mkdir()
    write_ppm(batch / "img_0.ppm", make_image(60))
    row = {"x_min": "img_0.ppm,abc,0.25,0.75,0.75,1",
           "objectness": "img_0.ppm,0.25,0.25,0.75,0.75,yes"}[field]
    (batch / "labels.csv").write_text(f"{LABELS_HEADER}\n{row}\n")
    out_json = tmp_path / "metrics.json"
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--out", str(out_json))
    _assert_one_line_usage_error(code, stdout, err)
    assert "labels.csv:2:" in err
    assert not out_json.exists()


@pytest.mark.parametrize("row", ["img_0.ppm,10,10,50,50,1", "img_0.ppm,-0.25,0.25,0.75,0.75,1",
                                 "img_0.ppm,0.25,0.25,0.75,1.5,1"])
def test_detect_batch_label_outside_unit_square_exit_2(tmp_path, capsys, row):
    """Box corners are normalized to [0, 1]; a labelled row outside names the
    file and line, instead of scoring AP 0 against a box no detection reaches."""
    batch = tmp_path / "batch"
    batch.mkdir()
    write_ppm(batch / "img_0.ppm", make_image(60))
    (batch / "labels.csv").write_text(f"{LABELS_HEADER}\n{row}\n")
    out_json = tmp_path / "metrics.json"
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--out", str(out_json))
    _assert_one_line_usage_error(code, stdout, err)
    assert "labels.csv:2:" in err and "[0, 1]" in err
    assert not out_json.exists()


def test_detect_batch_labels_without_rows_exit_2_before_weights(tmp_path, capsys):
    """A labels.csv with only its header scores no image: detect exits 2
    before it reads weights, as for an unlabelled directory with no frame."""
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "labels.csv").write_text(f"{LABELS_HEADER}\n")
    out_json = tmp_path / "metrics.json"
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--out", str(out_json),
                            "--checkpoint", str(tmp_path / "missing.ckpt"))
    _assert_one_line_usage_error(code, stdout, err)
    assert "labels.csv lists no images" in err  # not the missing checkpoint
    assert not out_json.exists()


def test_detect_batch_labels_not_utf8_exit_2(tmp_path, capsys):
    """A labels.csv that is not UTF-8 names the file, whatever the locale."""
    batch = tmp_path / "batch"
    batch.mkdir()
    write_ppm(batch / "img_0.ppm", make_image(60))
    (batch / "labels.csv").write_bytes(
        f"{LABELS_HEADER}\n".encode() + b"img_0.ppm\xff\xfe,0.25,0.25,0.75,0.75,1\n"
    )
    out_json = tmp_path / "metrics.json"
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--out", str(out_json))
    _assert_one_line_usage_error(code, stdout, err)
    assert "labels.csv" in err and "not UTF-8" in err
    assert not out_json.exists()


def test_detect_batch_missing_frame_exit_2_before_any_work(tmp_path, capsys):
    """A labels.csv row naming a missing frame stops detect before it loads
    weights or prints a detection, whatever rows come before it."""
    batch = tmp_path / "batch"
    batch.mkdir()
    records = []
    for i in range(3):
        name = f"img_{i:03d}.ppm"
        if i < 2:
            write_ppm(batch / name, make_image(50 + i))
        records.append(SampleRecord(name, 0.25, 0.25, 0.75, 0.75, 1))
    write_sample_records(batch / "labels.csv", records)
    ckpt, out_json = tmp_path / "vital.ckpt", tmp_path / "metrics.json"
    save_vital_checkpoint(ckpt, init_weights(SMALL_VITAL, 0))
    code, stdout, err = run(
        capsys, "detect", "--batch", str(batch), "--checkpoint", str(ckpt), "--out", str(out_json)
    )
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error: image not found:") and "img_002.ppm" in err
    assert not out_json.exists()


@pytest.mark.parametrize("name,named", [("", "labels.csv:3: empty image field"), ("sub", "batch/sub")])
def test_detect_batch_row_naming_no_file_exit_2_before_any_work(tmp_path, capsys, name, named):
    """A labels.csv row whose image field is empty, or names a directory,
    stops detect before it loads weights or prints a detection."""
    batch = tmp_path / "batch"
    (batch / "sub").mkdir(parents=True)
    write_ppm(batch / "img_000.ppm", make_image(52))
    write_sample_records(batch / "labels.csv", [
        SampleRecord("img_000.ppm", 0.25, 0.25, 0.75, 0.75, 1),
        SampleRecord(name, 0.1, 0.1, 0.5, 0.5, 1),
    ])
    ckpt = tmp_path / "vital.ckpt"
    save_vital_checkpoint(ckpt, init_weights(SMALL_VITAL, 0))
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--checkpoint", str(ckpt))
    _assert_one_line_usage_error(code, stdout, err)
    assert named in err


def test_detect_parses_perturbations_before_loading_weights(tmp_path, capsys):
    image = tmp_path / "img.ppm"
    write_ppm(image, make_image(53))
    code, stdout, err = run(capsys, "detect", "--image", str(image),
                            "--checkpoint", str(tmp_path / "missing.ckpt"), "--perturb", "blur=3")
    _assert_one_line_usage_error(code, stdout, err)
    assert "unknown perturbation 'blur'" in err


def test_bench_rejects_image_size_other_than_frame(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"detector": {"image_size": 80, "patch_side": 10}}))
    code, stdout, err = run(capsys, "--config", str(cfg), "bench", "--iters", "1")
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error:") and "image_size" in err


def test_bench_rejects_bad_iters(capsys):
    code, _, _ = run(capsys, "bench", "--iters", "0")
    assert code == 2


# --- oracle ------------------------------------------------------------------


def test_oracle_reports_default_grid(capsys):
    code, stdout, _ = run(capsys, "oracle", "--ql-steps", "2000")
    assert code == 0
    assert "1521" in stdout
    assert "optimal policy success rate: 1.000" in stdout


def test_oracle_commands_never_step_the_live_env(tmp_path, capsys, monkeypatch, small_config):
    # both oracle commands roll out on the enumerated table; falling back to
    # live rollouts would change no output, only halve the oracle's speed
    from gridlander import env, tabular

    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((env, "transition"), (tabular, "transition"), (env.LandingEnv, "step")):
        count(owner, name)
    for argv in (["oracle", "--ql-steps", "1000"],
                 ["eval", "--oracle", "--episodes", "5", "--out", str(tmp_path / "traces")]):
        assert run(capsys, "--config", small_config, *argv)[0] == 0
    assert calls == []
    # the counters see a live rollout
    save_dqn_checkpoint(tmp_path / "q.ckpt", init_qnetwork(0), {})
    assert run(capsys, "eval", "--checkpoint", str(tmp_path / "q.ckpt"), "--episodes", "1")[0] == 0
    assert {"step", "transition"} <= set(calls)


def test_oracle_small_grid_state_count(capsys, small_config):
    code, stdout, _ = run(capsys, "--config", small_config, "oracle", "--ql-steps", "1000")
    assert code == 0
    assert "states: 100 (75 non-terminal)" in stdout  # 5*5*4 grid


def test_oracle_rejects_bad_gamma(capsys):
    code, _, _ = run(capsys, "oracle", "--gamma", "1.5")
    assert code == 2


# --- perturb -----------------------------------------------------------------


def test_perturb_writes_outputs_and_manifest(tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, make_image(3))
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "--seed", "6",
        "perturb", "--image", str(src), "--perturb", "disable=lidar", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest[0]["perturbations"] == [{"kind": "disable", "modalities": ["lidar"]}]
    perturbed = read_ppm(out / "img.ppm")
    assert not perturbed.planes[2].any()
    assert perturbed.planes[0].any()


def test_perturb_byte_identical_under_seed(tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, make_image(4))
    blobs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "--seed", "8",
            "perturb", "--image", str(src),
            "--perturb", "salt_pepper=0.01", "--perturb", "fog=0.1,0.5",
            "--out", str(out),
        )
        assert code == 0
        blobs.append((out / "img.ppm").read_bytes())
    assert blobs[0] == blobs[1]


def test_perturb_invalid_spec_no_side_effects(tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, make_image(5))
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "perturb", "--image", str(src), "--perturb", "sharpen=2", "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("spec", ["brightness=abc", "fog=a,b", "salt_pepper="])
def test_perturb_non_numeric_argument_exit_2(tmp_path, capsys, spec):
    src = tmp_path / "img.ppm"
    write_ppm(src, make_image(5))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "perturb", "--image", str(src), "--perturb", spec,
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith(f"error: {spec.partition('=')[0]}= expects a number")
    assert not out.exists()


def test_perturb_non_integer_ppm_header_exit_2(tmp_path, capsys):
    src = tmp_path / "img.ppm"
    src.write_bytes(b"P6\nxx 160\n255\n" + bytes(160 * 160 * 3))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "perturb", "--image", str(src), "--perturb", "flip_h",
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert str(src) in err and "not integers" in err
    assert not out.exists()


_PPM_HEADER = b"P6\n160 160\n255\n"
_PPM_PIXELS = bytes(range(256)) * (160 * 160 * 3 // 256)
_DIRECTIVE_ARG = (
    st.text(max_size=12)
    | st.floats(-2.0, 2.0).map(repr)
    | st.lists(st.floats(0.0, 1.0).map(repr), min_size=1, max_size=3).map(",".join)
    | st.sampled_from(["", "visual", "lidar,thermal", "sonar"])
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    directives=st.lists(st.tuples(st.sampled_from(perturb._KINDS), _DIRECTIVE_ARG).map("=".join),
                        min_size=1, max_size=2),
    header_edits=st.lists(st.tuples(st.integers(0, len(_PPM_HEADER) - 1), st.integers(0, 255)),
                          max_size=2),
)
def test_perturb_fuzzed_directives_and_ppm_headers(tmp_path, capsys, directives, header_edits):
    """Any directive argument and any few overwritten PPM header bytes end in
    exit 0, or in exit 2 with one error line and no --out directory."""
    header = bytearray(_PPM_HEADER)
    for i, byte in header_edits:
        header[i] = byte
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        src, out = Path(work) / "img.ppm", Path(work) / "out"
        src.write_bytes(bytes(header) + _PPM_PIXELS)
        argv = ["perturb", "--image", str(src), "--out", str(out)]
        for d in directives:
            argv += ["--perturb", d]
        code, stdout, err = run(capsys, *argv)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            _assert_one_line_usage_error(code, stdout, err)
            assert not out.exists()


def test_perturb_bad_later_image_writes_nothing(tmp_path, capsys):
    good, small = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(good, make_image(5))
    small.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "perturb", "--image", str(good), "--image", str(small),
                            "--perturb", "fog=0.1,0.5", "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert "2x2" in err
    assert not (out / "a.ppm").exists() and not (out / "manifest.json").exists()


def test_perturb_rejects_inputs_sharing_a_file_name(tmp_path, capsys):
    for d in ("x", "y"):
        (tmp_path / d).mkdir()
        write_ppm(tmp_path / d / "a.ppm", make_image(5))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "perturb", "--image", str(tmp_path / "x" / "a.ppm"),
                            "--image", str(tmp_path / "y" / "a.ppm"),
                            "--perturb", "fog=0.1,0.5", "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error:") and "'a.ppm'" in err
    assert not out.exists()


# --- config handling ------------------------------------------------------------


def test_invalid_config_exits_2_without_side_effects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"env": {"resolution": -1}}))
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "--config", str(bad), "train", "--out", str(out), "--episodes", "1"
    )
    assert code == 2
    assert not out.exists()


def test_unknown_config_section_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"enviroment": {}}))
    code, _, err = run(capsys, "--config", str(bad), "oracle")
    assert code == 2
    assert "enviroment" in err


def _assert_one_line_usage_error(code, stdout, err):
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "env",
    [{"resolution": 0.3}, {"x_range": [-6.5, 6.0]}, {"z_range": [0.0, 0.5]}, {"z_range": [0.0, 0.0]}],
)
@pytest.mark.parametrize("command", [["oracle"], ["eval", "--oracle"]])
def test_oracle_rejects_grids_without_whole_cells(tmp_path, capsys, env, command):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"env": env}))
    _assert_one_line_usage_error(*run(capsys, "--config", str(cfg), *command))


@pytest.mark.parametrize(
    "raw",
    [
        {"env": {"x_range": 5}},
        {"env": {"k_weights": [1.0, 1.0]}},
        {"env": {"max_steps": True}},
        {"env": {"boundary_mode": None}},
        {"train": {"gamma": "0.9"}},
        {"train": {"episodes": "3"}},
        {"detector": {"heads": None}},
        {"camera": {"center": [1.0, "2"]}},
        {"env": []},
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    code, stdout, err = run(capsys, "--config", str(cfg), "oracle")
    _assert_one_line_usage_error(code, stdout, err)
    assert list(raw)[0] in err


@pytest.mark.parametrize(
    "raw",
    [
        {"detector": {"heads": 0}},
        {"detector": {"embed_dim": -6}},
        {"detector": {"image_size": 4, "patch_side": 0}},
        {"ppm_channel_order": 5},
        {"ppm_channel_order": [1, "thermal", "lidar"]},
        {"ppm_channel_order": ["visual", "visual", "lidar"]},
        {"detector": {"embed_dim": 10**400}},
    ],
)
def test_config_value_errors_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    _assert_one_line_usage_error(*run(capsys, "--config", str(cfg), "oracle"))


def test_config_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"env": \xff}')
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "--config", str(cfg), "train", "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert str(cfg) in err and "not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "env",
    [
        {"resolution": float("nan")},
        {"x_range": [-1e308, 1e308]},
        {"x_range": [-2, 2], "y_range": [-2, 2], "z_range": [0, 3], "k_weights": [1e308, 1, 1]},
    ],
)
@pytest.mark.parametrize("command", [["oracle"], ["eval", "--oracle"]])
def test_non_finite_env_values_exit_2(tmp_path, capsys, env, command):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"env": env}))  # NaN is written as the bare token NaN
    _assert_one_line_usage_error(*run(capsys, "--config", str(cfg), *command))


@pytest.mark.parametrize("command", [["oracle"], ["eval", "--oracle", "--out"]])
def test_oracle_with_wind_exits_2_and_writes_nothing(tmp_path, capsys, command):
    cfg = tmp_path / "windy.json"
    cfg.write_text(json.dumps({"env": {"wind_probability": 0.5}}))
    out = tmp_path / "out"
    argv = [*command, str(out)] if command[-1] == "--out" else command
    code, stdout, err = run(capsys, "--config", str(cfg), *argv)
    _assert_one_line_usage_error(code, stdout, err)
    assert err == "error: the tabular oracle needs wind disabled\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["oracle"], ["eval", "--oracle"]])
def test_oracle_without_start_altitudes_exits_2(tmp_path, capsys, command):
    # one layer at 1 m: the grid is valid, but no start lies at 2 m or above
    cfg = tmp_path / "low.json"
    cfg.write_text(json.dumps({"env": {"z_range": [0.0, 1.0]}}))
    code, stdout, err = run(capsys, "--config", str(cfg), *command)
    _assert_one_line_usage_error(code, stdout, err)
    assert err == "error: no eligible start altitudes\n"


@pytest.mark.parametrize("command", [["oracle"], ["eval", "--oracle"]])
def test_grid_too_large_to_allocate_exits_1(tmp_path, capsys, command):
    # 2e15 cells per axis: numpy refuses the allocation at once
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"env": {"x_range": [-1e15, 1e15]}}))
    code, stdout, err = run(capsys, "--config", str(cfg), *command)
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")
    assert "Traceback" not in err


@pytest.mark.parametrize("steps", ["-3", "0"])
def test_oracle_rejects_non_positive_ql_steps(capsys, steps):
    _assert_one_line_usage_error(*run(capsys, "oracle", "--ql-steps", steps))


def test_config_env_var_fallback(tmp_path, capsys, monkeypatch, small_config):
    monkeypatch.setenv("GRIDLANDER_CONFIG", small_config)
    code, stdout, _ = run(capsys, "oracle", "--ql-steps", "1000")
    assert code == 0
    assert "states: 100" in stdout


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent/config.json", "oracle")
    assert code == 2


def test_unknown_subcommand_usage(capsys):
    assert main(["frobnicate"]) == 2


# --- paths of the wrong kind ---------------------------------------------------------


def test_config_directory_exit_2(tmp_path, capsys):
    code, stdout, err = run(capsys, "--config", str(tmp_path), "oracle")
    _assert_one_line_usage_error(code, stdout, err)
    assert err.startswith("error: config file not found or not a regular file:")


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", [["detect", "--image", "IMG"], ["bench", "--iters", "1"],
                                     ["eval"]], ids=["detect", "bench", "eval"])
def test_checkpoint_missing_or_not_a_file_exit_2(tmp_path, capsys, kind, command):
    image, ckpt = tmp_path / "img.ppm", tmp_path / "vital.ckpt"
    write_ppm(image, make_image(80))
    if kind == "directory":
        ckpt.mkdir()
    argv = [str(image) if a == "IMG" else a for a in command]
    code, stdout, err = run(capsys, *argv, "--checkpoint", str(ckpt))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: checkpoint not found or not a regular file: {ckpt}\n"


def test_detect_batch_labels_directory_exit_2(tmp_path, capsys):
    batch = tmp_path / "batch"
    (batch / "labels.csv").mkdir(parents=True)
    write_ppm(batch / "img_0.ppm", make_image(81))
    code, stdout, err = run(capsys, "detect", "--batch", str(batch))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: {batch / 'labels.csv'} is not a regular file\n"


def test_detect_batch_out_directory_exit_2_before_any_work(tmp_path, capsys):
    batch, out = tmp_path / "batch", tmp_path / "metrics"
    batch.mkdir()
    out.mkdir()
    write_ppm(batch / "img_0.ppm", make_image(82))
    write_sample_records(batch / "labels.csv", [SampleRecord("img_0.ppm", 0.25, 0.25, 0.75, 0.75, 1)])
    ckpt = tmp_path / "vital.ckpt"
    save_vital_checkpoint(ckpt, init_weights(SMALL_VITAL, 0))
    code, stdout, err = run(capsys, "detect", "--batch", str(batch), "--checkpoint", str(ckpt),
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert "must name a file in an existing directory" in err


@pytest.mark.parametrize("kind", ["labels", "image", "checkpoint", "config", "GRIDLANDER_CONFIG"])
def test_detect_out_naming_an_input_exit_2_before_reading_weights(tmp_path, capsys, monkeypatch,
                                                                   kind):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_ppm(batch / "img_0.ppm", make_image(87))
    write_sample_records(batch / "labels.csv", [SampleRecord("img_0.ppm", 0.25, 0.25, 0.75, 0.75, 1)])
    ckpt, config = tmp_path / "vital.ckpt", tmp_path / "config.json"
    save_vital_checkpoint(ckpt, init_weights(SMALL_VITAL, 0))
    config.write_text("{}")
    target = {"labels": batch / "labels.csv", "image": batch / "img_0.ppm",
              "checkpoint": ckpt}.get(kind, config)
    before = target.read_bytes()
    config_args = ["--config", str(config)] if kind == "config" else []
    if kind == "GRIDLANDER_CONFIG":
        monkeypatch.setenv("GRIDLANDER_CONFIG", str(config))
    monkeypatch.setattr(cli, "_load_weights_or_random", lambda *a: pytest.fail("weights read"))
    code, stdout, err = run(capsys, *config_args, "detect", "--batch", str(batch),
                            "--checkpoint", str(ckpt), "--out", str(target))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {target}: {target} is an input\n"
    assert target.read_bytes() == before


def test_eval_oracle_out_file_exit_2_before_any_work(tmp_path, capsys, small_config):
    out = tmp_path / "traces"
    out.write_text("")
    code, stdout, err = run(capsys, "--config", small_config, "eval", "--oracle",
                            "--episodes", "3", "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {out} is not a directory\n"


@pytest.mark.parametrize("below", ["", "sub"])
def test_train_out_file_exit_2_before_any_work(tmp_path, capsys, small_config, below):
    blocker = tmp_path / "run"
    blocker.write_text("")
    out = blocker / below if below else blocker
    code, stdout, err = run(capsys, "--config", small_config, "train", "--out", str(out),
                            "--episodes", "1")
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {blocker} is not a directory\n"


def test_perturb_out_file_exit_2_before_any_work(tmp_path, capsys):
    image, out = tmp_path / "img.ppm", tmp_path / "perturbed"
    write_ppm(image, make_image(83))
    out.write_text("")
    code, stdout, err = run(capsys, "perturb", "--image", str(image), "--perturb", "flip_h",
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {out} is not a directory\n"
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "command,target",
    [
        (["train", "--episodes", "2"], "dqn.ckpt"),
        (["train", "--episodes", "2"], "reward_curve.svg"),
        (["eval", "--oracle", "--episodes", "3"], "episode_002.csv"),
        (["eval", "--oracle", "--episodes", "3"], "trajectories_xz.svg"),
        (["perturb", "--image", "IMG", "--perturb", "flip_h"], "img.ppm"),
        (["perturb", "--image", "IMG", "--perturb", "flip_h"], "manifest.json"),
    ],
)
def test_output_file_that_is_a_directory_exit_2_before_any_work(tmp_path, capsys, small_config,
                                                                command, target):
    image, out = tmp_path / "img.ppm", tmp_path / "out"
    write_ppm(image, make_image(84))
    (out / target).mkdir(parents=True)
    argv = [str(image) if a == "IMG" else a for a in command]
    code, stdout, err = run(capsys, "--config", small_config, *argv, "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {out / target} is a directory\n"
    assert [p.name for p in out.iterdir()] == [target]


def test_perturb_out_holding_an_input_exit_2_before_writing(tmp_path, capsys):
    image = tmp_path / "a.ppm"
    write_ppm(image, make_image(85))
    before = image.read_bytes()
    code, stdout, err = run(capsys, "perturb", "--image", str(image), "--perturb", "flip_h",
                            "--out", str(tmp_path))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {tmp_path}: {image} is an input\n"
    assert image.read_bytes() == before
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "command,input_flag,name",
    [
        (["train", "--episodes", "1"], "--config", "reward_trace.csv"),
        (["eval", "--oracle", "--episodes", "2"], "--config", "episode_001.csv"),
        (["eval", "--episodes", "2"], "--checkpoint", "trajectories_xy.svg"),
        (["perturb", "--image", "IMG", "--perturb", "flip_h"], "--config", "manifest.json"),
    ],
)
def test_out_dir_holding_an_input_exit_2_before_any_work(tmp_path, capsys, command, input_flag,
                                                           name):
    image, out = tmp_path / "img.ppm", tmp_path / "out"
    write_ppm(image, make_image(88))
    out.mkdir()
    held = out / name
    command = [str(image) if a == "IMG" else a for a in command]
    if input_flag == "--config":
        held.write_text(json.dumps(SMALL_ENV))
        argv = ["--config", str(held), *command]
    else:
        save_dqn_checkpoint(held, init_qnetwork(0), {"env": SMALL_ENV["env"]})
        argv = [*command, "--checkpoint", str(held)]
    before = held.read_bytes()
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {held} is an input\n"
    assert [p.name for p in out.iterdir()] == [name] and held.read_bytes() == before


def test_perturb_input_named_like_the_manifest_exit_2_before_writing(tmp_path, capsys):
    image, out = tmp_path / "in" / "manifest.json", tmp_path / "out"
    image.parent.mkdir()
    write_ppm(image, make_image(86))
    code, stdout, err = run(capsys, "perturb", "--image", str(image), "--perturb", "flip_h",
                            "--out", str(out))
    _assert_one_line_usage_error(code, stdout, err)
    assert err == f"error: --out {out}: {out / 'manifest.json'} is the manifest\n"
    assert not out.exists()


# --- every subcommand under drawn inputs -----------------------------------------

_ODD_VALUES = [-3, -1, 0, 0.5, 1, 2, 10**400, float("nan"), float("inf"), "1", None, True, [1, 2, 3]]
_RANGES = [[-2, 0], [-2, -0.0], [0, 2], [2, -2], [-2.5, 2], [0, 1], [0, 0], [1, 3], [-1e18, 1e18], 5]
_SECTION_KEYS = {
    "env": [f.name for f in fields(EnvConfig)] + ["typo"],
    "train": [f.name for f in fields(TrainConfig)] + ["typo"],
    "detector": [f.name for f in fields(VitalConfig)] + ["typo"],
}
_LABEL_ROWS = [
    "img.ppm,0.25,0.25,0.75,0.75,1", "img.ppm,0,0,0,0,0", "img.ppm,0.1,0.2,0.3,0.4,1",
    "img.ppm,0,0,1,1,0", "img.ppm,10,10,50,50,1",
    "img.ppm,-0.5,0,1,1,1", "img.ppm,0.5,0.5,0.1,0.1,1", "img.ppm,nan,0,1,1,1", "img.ppm,0,0,1,1,2",
    "img.ppm,abc,0,1,1,1", "img.ppm,0,0,1,1", "missing.ppm,0,0,1,1,1", "bad.ppm,0,0,1,1,1",
]
_DIRECTIVES = ["flip_h", "fog=0.5,0.1", "fog=0.1,0.5", "disable=sonar", "brightness=0.3", "salt_pepper=2"]


@st.composite
def _fuzz_config(draw):
    """Config file bytes, or None for a --config path with no file: the small
    grid and detector with a few fields replaced, or not a config at all."""
    kind = draw(st.sampled_from(["mutated"] * 12 + ["missing", "not json", "not an object", "not utf-8"]))
    if kind != "mutated":
        return {"missing": None, "not json": b"{", "not an object": b"[1]",
                "not utf-8": b'{"env": \xff}'}[kind]
    raw = {"env": dict(SMALL_ENV["env"]), "detector": asdict(SMALL_VITAL)}
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        section = draw(st.sampled_from(["env", "env", "train", "train", "detector", "other"]))
        if section == "other":
            name = draw(st.sampled_from(["camera", "ppm_channel_order", "env", "train"]))
            raw[name] = draw(st.sampled_from(
                [{"width": 160}, ["lidar", "visual", "thermal"], ["visual"], 5, []]))
        elif isinstance(raw.setdefault(section, {}), dict):
            key = draw(st.sampled_from(_SECTION_KEYS[section]))
            raw[section][key] = draw(st.sampled_from(_RANGES if key.endswith("range") else _ODD_VALUES))
    return json.dumps(raw).encode()


def _maybe(draw, flag, values):
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


@st.composite
def _fuzz_argv(draw):
    """A command line with symbolic file names: OUT, BATCH and those of
    ``fuzz_inputs``. Train runs one episode; bench one frame of the small
    detector the config names."""
    command = draw(st.sampled_from(["train", "eval", "eval", "oracle", "detect", "detect", "bench",
                                    "perturb"]))
    argv = _maybe(draw, "--seed", ["0", "7", "-1"]) + [command]
    vital = ["vital.ckpt", "dqn.ckpt", "garbage.ckpt", "missing.ckpt"]
    if command == "train":
        argv += ["--out", "OUT", "--episodes", draw(st.sampled_from(["1", "1", "0", "-2", "x"]))]
    elif command == "eval":
        argv += draw(st.sampled_from([["--oracle"], [], ["--checkpoint", "dqn.ckpt"],
                                      ["--checkpoint", "dqn_zero_bound.ckpt"],
                                      ["--checkpoint", "vital.ckpt"], ["--checkpoint", "garbage.ckpt"]]))
        argv += ["--episodes", draw(st.sampled_from(["2", "0", "-1"]))]
        argv += _maybe(draw, "--wind", ["0.5", "2", "nan"]) + _maybe(draw, "--out", ["OUT"])
    elif command == "oracle":
        argv += ["--ql-steps", draw(st.sampled_from(["500", "0", "-3"]))]
        argv += _maybe(draw, "--gamma", ["0.9", "1.5", "nan"])
    elif command == "detect":
        argv += draw(st.sampled_from([["--batch", "BATCH"], ["--batch", "BATCH"], ["--image", "img.ppm"],
                                      ["--image", "bad.ppm"], ["--image", "missing.ppm"], []]))
        argv += _maybe(draw, "--checkpoint", vital) + _maybe(draw, "--perturb", _DIRECTIVES)
        argv += _maybe(draw, "--out", ["OUT"])
    elif command == "bench":
        argv += ["--iters", draw(st.sampled_from(["1", "0", "x"])),
                 "--warmup", draw(st.sampled_from(["0", "-1"]))] + _maybe(draw, "--checkpoint", vital)
    else:
        argv += ["--image", draw(st.sampled_from(["img.ppm", "bad.ppm", "missing.ppm"])),
                 "--perturb", draw(st.sampled_from(_DIRECTIVES)), "--out", "OUT"]
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The files a fuzzed command line may name; 'missing' ones do not exist."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    write_ppm(root / "img.ppm", make_image(70))
    (root / "bad.ppm").write_bytes(b"P6\n160 16x\n255\n" + bytes(160 * 160 * 3))
    save_vital_checkpoint(root / "vital.ckpt", init_weights(SMALL_VITAL, 0))
    save_dqn_checkpoint(root / "dqn.ckpt", init_qnetwork(0), {"env": SMALL_ENV["env"]})
    save_dqn_checkpoint(root / "dqn_zero_bound.ckpt", init_qnetwork(0),
                        {"env": {**SMALL_ENV["env"], "y_range": [-2, 0]}})
    (root / "garbage.ckpt").write_bytes(b"GRIDLANDER-CKPT\x00" + bytes(40))
    return root


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=_fuzz_config(), argv=_fuzz_argv(), verbose=st.booleans(),
       labels=st.none() | st.lists(st.sampled_from(_LABEL_ROWS), max_size=3).map(
           lambda rows: "\n".join([LABELS_HEADER, *rows]) + "\n"))
def test_cli_fuzzed_commands_configs_and_files(tmp_path, capsys, fuzz_inputs, config, argv,
                                               verbose, labels):
    """Any subcommand, with drawn flags, bad values, missing or malformed files,
    mutated config JSON and labels.csv rows, exits 0, 1 or 2 without a
    traceback, and leaves no --out behind when it exits 2."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        out, batch, cfg = work / "out", work / "batch", work / "config.json"
        batch.mkdir()
        for name in ("img.ppm", "bad.ppm"):
            (batch / name).write_bytes((fuzz_inputs / name).read_bytes())
        if labels is not None:
            (batch / "labels.csv").write_text(labels)
        if config is not None:
            cfg.write_bytes(config)
        paths = {"OUT": out, "BATCH": batch, **{p.name: p for p in fuzz_inputs.iterdir()},
                 "missing.ppm": work / "missing.ppm", "missing.ckpt": work / "missing.ckpt"}
        resolved = [str(paths.get(a, a)) for a in argv]
        code, _, err = run(capsys, "--config", str(cfg), *(["--verbose"] if verbose else []),
                           *resolved)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert not out.exists()
