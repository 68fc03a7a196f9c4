import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from gridlander.cli import main
from gridlander.dqn import init_qnetwork
from gridlander.persistence import (
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


def test_eval_needs_checkpoint_or_oracle(capsys):
    code, _, err = run(capsys, "eval", "--episodes", "2")
    assert code == 2


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
    assert not perturbed.lidar.any()
    assert perturbed.visual.any()


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
    ],
)
def test_config_value_errors_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    _assert_one_line_usage_error(*run(capsys, "--config", str(cfg), "oracle"))


@pytest.mark.parametrize(
    "env", [{"resolution": float("nan")}, {"x_range": [-1e308, 1e308]}]
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
