import hashlib
import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander import persistence
from gridlander.cli import main
from gridlander.dqn import EpisodeLog, EpisodeStep, RewardTrace, init_qnetwork
from gridlander.env import Action, LanderState, Terminal
from gridlander.errors import ContractViolation
from gridlander.persistence import (
    Checkpoint,
    FormatError,
    IntegrityError,
    SchemaError,
    load_checkpoint,
    load_dqn_checkpoint,
    load_vital_checkpoint,
    qnetwork_tensors,
    read_ppm,
    read_sample_records,
    save_checkpoint,
    save_dqn_checkpoint,
    save_vital_checkpoint,
    SampleRecord,
    vital_tensors,
    write_episode_trace,
    write_metrics_json,
    write_ppm,
    write_reward_trace,
    write_sample_records,
)
from gridlander.vital import MODALITIES, MultimodalImage, VitalConfig, empty_weights, init_weights


# --- checkpoint container ------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": np.array([0.0, -0.0, 1.5, -2.25], dtype=np.float32),
    }
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "dqn", {"note": 1}, tensors)
    loaded = load_checkpoint(path)
    assert loaded.model_kind == "dqn"
    assert loaded.config == {"note": 1}
    for name, arr in tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes()  # incl. signed zero
    # negative zero preserved bit-for-bit
    assert np.signbit(loaded.tensors["b"][1])


def test_checkpoint_flipped_byte_fails_checksum(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "dqn", {}, {"a": np.ones(8, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[-7] ^= 0xFF  # inside the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT-AT-ALL" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_wrong_kind_schema_error(tmp_path):
    path = tmp_path / "v.ckpt"
    weights = init_weights(VitalConfig(), seed=1)
    save_vital_checkpoint(path, weights)
    with pytest.raises(SchemaError):
        load_checkpoint(path, expect_kind="dqn")
    with pytest.raises(SchemaError):
        load_dqn_checkpoint(path)


def test_checkpoint_deterministic_bytes(tmp_path):
    net = init_qnetwork(2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_dqn_checkpoint(p1, net, {"seed": 2})
    save_dqn_checkpoint(p2, net, {"seed": 2})
    assert p1.read_bytes() == p2.read_bytes()


def test_dqn_checkpoint_roundtrip(tmp_path):
    net = init_qnetwork(3)
    path = tmp_path / "dqn.ckpt"
    save_dqn_checkpoint(path, net, {"lr": 0.001})
    loaded, meta = load_dqn_checkpoint(path)
    assert meta == {"lr": 0.001}
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_dqn_checkpoint_shape_schema(tmp_path):
    net = init_qnetwork(4)
    tensors = qnetwork_tensors(net)
    tensors["layer0.weights"] = tensors["layer0.weights"][:, :2]
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, "dqn", {}, tensors)
    with pytest.raises(SchemaError):
        load_dqn_checkpoint(path)


def test_dqn_checkpoint_extra_tensor_schema_error(tmp_path):
    tensors = {**qnetwork_tensors(init_qnetwork(4)), "layer4.bias": np.zeros(5, np.float32)}
    path = tmp_path / "extra.ckpt"
    save_checkpoint(path, "dqn", {}, tensors)
    with pytest.raises(SchemaError, match="layer4.bias"):
        load_dqn_checkpoint(path)


def _with_header(data: bytes, header) -> bytes:
    """The checkpoint ``data`` with its JSON header replaced (header length kept
    consistent; the CRC covers only the payload, so it still matches)."""
    (old_len,) = struct.unpack_from("<I", data, 20)
    raw = json.dumps(header).encode("utf-8")
    return data[:20] + struct.pack("<I", len(raw)) + raw + data[24 + old_len :]


def _dqn_checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.ckpt"
    save_dqn_checkpoint(path, init_qnetwork(0), {"seed": 0})
    return path.read_bytes()


def _header_of(data: bytes) -> dict:
    (n,) = struct.unpack_from("<I", data, 20)
    return json.loads(data[24 : 24 + n])


def _first_entry(**changes):
    return lambda h: {**h, "tensors": [{**h["tensors"][0], **changes}] + h["tensors"][1:]}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: [h],
        lambda h: {k: v for k, v in h.items() if k != "tensors"},
        lambda h: {**h, "tensors": {"layer0.weights": 1}},
        lambda h: {**h, "config": [1, 2]},
        _first_entry(offset=-4),
        _first_entry(offset=2**30),
        _first_entry(shape=[256, 2]),
        _first_entry(length="3072"),
        _first_entry(name=None),
    ],
)
def test_checkpoint_malformed_header_integrity_error(tmp_path, mutate):
    data = _dqn_checkpoint_bytes(tmp_path)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_with_header(data, mutate(_header_of(data))))
    with pytest.raises(IntegrityError):
        load_dqn_checkpoint(path)


_SCALARS = st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.floats(allow_nan=False)
_JSON = st.recursive(
    _SCALARS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
_KEYS = st.sampled_from(["model_kind", "config", "tensors", "name", "shape", "offset", "length"])


@st.composite
def _mutated_headers(draw, header):
    """A valid header with one part replaced, deleted or duplicated."""
    header = json.loads(json.dumps(header))
    kind = draw(st.sampled_from(["whole", "top", "entry", "entries"]))
    if kind == "whole":
        return draw(_JSON)
    if kind == "top":
        key = draw(_KEYS)
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(_JSON)
        return header
    entries = header["tensors"]
    i = draw(st.integers(0, len(entries) - 1))
    if kind == "entries":
        op = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if op == "drop":
            del entries[i]
        elif op == "duplicate":
            entries.insert(i, dict(entries[i]))
        else:
            entries[i] = draw(_JSON)
        return header
    key = draw(_KEYS)
    if draw(st.booleans()):
        entries[i].pop(key, None)
    else:
        small_shape = st.lists(st.integers(-2, 300), max_size=3)
        entries[i][key] = draw(st.integers(-8, 2**33) | small_shape | _JSON)
    return header


@pytest.fixture(scope="module")
def valid_dqn_checkpoint(tmp_path_factory):
    return _dqn_checkpoint_bytes(tmp_path_factory.mktemp("ckpt"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_header_fault_injection(tmp_path_factory, valid_dqn_checkpoint, data):
    header = data.draw(_mutated_headers(_header_of(valid_dqn_checkpoint)))
    path = tmp_path_factory.mktemp("fault") / "x.ckpt"
    path.write_bytes(_with_header(valid_dqn_checkpoint, header))
    try:
        net, _ = load_dqn_checkpoint(path)
    except FormatError:
        return
    assert net.flat.size > 0


def test_vital_checkpoint_roundtrip(tmp_path):
    weights = init_weights(VitalConfig(), seed=5)
    path = tmp_path / "vital.ckpt"
    save_vital_checkpoint(path, weights)
    loaded = load_vital_checkpoint(path)
    assert loaded.config == weights.config
    a, b = vital_tensors(weights), vital_tensors(loaded)
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_vital_checkpoint_golden_digest(tmp_path):
    # recorded before the detector weight tree had one builder; pins tensor
    # order, the config JSON and the random draw order of init_weights
    path = tmp_path / "vital.ckpt"
    save_vital_checkpoint(path, init_weights(VitalConfig(), 0))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "36dd922f5ae056c8203ab690e70b5ff361e0e6afe8bd372748f7188fc4f8d9be"


def test_vital_checkpoint_roundtrip_small_config(tmp_path):
    config = VitalConfig(embed_dim=8, encoder_layers=1, ffn_hidden=16, heads=3, stem_channels=(2, 2, 2))
    weights = init_weights(config, seed=2)
    path = tmp_path / "small.ckpt"
    save_vital_checkpoint(path, weights)
    loaded = load_vital_checkpoint(path)
    assert loaded.config == config
    a, b = vital_tensors(weights), vital_tensors(loaded)
    assert list(a) == list(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name
        assert b[name].flags.writeable, name


def test_vital_checkpoint_missing_tensor_schema_error(tmp_path):
    weights = init_weights(VitalConfig(embed_dim=8, encoder_layers=1, ffn_hidden=16, heads=3), 0)
    tensors = vital_tensors(weights)
    del tensors["encoder0.attn.wk"]
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, "vital", asdict(weights.config), tensors)
    with pytest.raises(SchemaError, match="encoder0.attn.wk"):
        load_vital_checkpoint(path)
    tensors["encoder0.attn.wk"] = np.zeros((3, 3), dtype=np.float32)
    save_checkpoint(path, "vital", asdict(weights.config), tensors)
    with pytest.raises(SchemaError, match="shape"):
        load_vital_checkpoint(path)


def test_vital_checkpoint_extra_tensor_schema_error(tmp_path):
    # a 2-layer detector's tensors under a 1-layer config
    config = VitalConfig(embed_dim=8, encoder_layers=2, ffn_hidden=16, heads=3)
    weights = init_weights(config, 0)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(path, "vital", {**asdict(config), "encoder_layers": 1}, vital_tensors(weights))
    with pytest.raises(SchemaError, match="encoder1.ln_attn.gamma"):
        load_vital_checkpoint(path)


# --- streamed loading: layout faults and memory ----------------------------------

SMALL_VITAL = VitalConfig(embed_dim=8, encoder_layers=1, ffn_hidden=16, heads=3, stem_channels=(2, 2, 2))


def _truncated_payload(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _overlapping_entries(data: bytes) -> bytes:
    header = _header_of(data)
    header["tensors"][1]["offset"] = header["tensors"][0]["offset"]
    return _with_header(data, header)


def _out_of_order_entries(data: bytes) -> bytes:
    header = _header_of(data)
    entries = header["tensors"]
    entries[0], entries[1] = entries[1], entries[0]
    return _with_header(data, header)


def _crc_mismatch(data: bytes) -> bytes:
    return data[:-4] + struct.pack("<I", struct.unpack("<I", data[-4:])[0] ^ 1)


@pytest.mark.parametrize(
    "fault", [_truncated_payload, _overlapping_entries, _out_of_order_entries, _crc_mismatch]
)
def test_vital_checkpoint_layout_faults(tmp_path, capsys, monkeypatch, fault):
    """Each fault is an IntegrityError, found before a weight tree is even
    built, and `detect` reports it on one line with exit code 2."""
    good = tmp_path / "good.ckpt"
    save_vital_checkpoint(good, init_weights(SMALL_VITAL, 0))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(fault(good.read_bytes()))
    built = []
    monkeypatch.setattr(persistence, "empty_weights", lambda config: built.append(config))
    with pytest.raises(IntegrityError):
        load_vital_checkpoint(path)
    assert built == []
    image = tmp_path / "img.ppm"
    write_ppm(image, random_image(0))
    code = main(["detect", "--image", str(image), "--checkpoint", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert built == []


def test_load_vital_checkpoint_holds_no_copy_of_the_file(tmp_path):
    """The traced peak of a load stays within the weights it returns plus
    2 MiB: the checksum pass reuses one 1 MiB buffer and each tensor is read
    straight into the weight tree."""
    weights = init_weights(VitalConfig(), 0)
    path = tmp_path / "vital.ckpt"
    save_vital_checkpoint(path, weights)
    size = sum(arr.nbytes for arr in vital_tensors(weights).values())
    del weights
    load_vital_checkpoint(path)
    tracemalloc.start()
    try:
        loaded = load_vital_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.config == VitalConfig()
    assert peak < size + 2 * 2**20


# --- tensor naming: the tree walk against the old hand-written tables ----------


def _reference_qnetwork_tensors(net):
    out = {}
    for i, layer in enumerate(net.layers):
        out[f"layer{i}.weights"] = layer.weights
        out[f"layer{i}.bias"] = layer.bias
    return out


def _reference_vital_tensors(weights):
    def conv(p, c):
        return [(f"{p}.kernels", c.kernels), (f"{p}.bias", c.bias)]

    def bn(p, b):
        return [(f"{p}.{k}", getattr(b, k)) for k in ("gamma", "beta", "mean", "var")]

    def ln(p, l):
        return [(f"{p}.gamma", l.gamma), (f"{p}.beta", l.beta)]

    def dense(p, d):
        return [(f"{p}.weights", d.weights), (f"{p}.bias", d.bias)]

    def head(p, h):
        out = ln(f"{p}.ln_in", h.ln_in) + dense(f"{p}.hidden", h.hidden)
        return out + ln(f"{p}.ln_hidden", h.ln_hidden) + dense(f"{p}.out", h.out)

    entries = []
    for modality in MODALITIES:
        stem = weights.stems[modality]
        for b, block in enumerate(stem.blocks):
            p = f"stem.{modality}.block{b}"
            entries += conv(f"{p}.conv1", block.conv1) + bn(f"{p}.bn1", block.bn1)
            entries += conv(f"{p}.conv2", block.conv2) + bn(f"{p}.bn2", block.bn2)
            entries += conv(f"{p}.residual", block.residual)
        entries += conv(f"stem.{modality}.final", stem.final_conv)
    entries += [("class_token", weights.class_token), ("positional", weights.positional)]
    for i, layer in enumerate(weights.encoder):
        p = f"encoder{i}"
        entries += ln(f"{p}.ln_attn", layer.ln_attn)
        entries += [(f"{p}.attn.{k}", getattr(layer.attention, k))
                    for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")]
        entries += ln(f"{p}.ln_ffn", layer.ln_ffn)
        entries += dense(f"{p}.ffn_in", layer.ffn_in) + dense(f"{p}.ffn_out", layer.ffn_out)
    entries += head("head.objectness", weights.head_objectness) + head("head.box", weights.head_box)
    return dict(entries)


def _assert_same_entries(walked, reference):
    assert list(walked) == list(reference)
    for name, arr in reference.items():
        assert walked[name] is arr, name


@st.composite
def _small_vital_configs(draw):
    embed_dim = draw(st.integers(1, 8))
    token_dim = 3 * embed_dim
    heads = draw(st.sampled_from([h for h in range(1, token_dim + 1) if token_dim % h == 0]))
    return VitalConfig(
        embed_dim=embed_dim,
        encoder_layers=draw(st.integers(0, 3)),
        ffn_hidden=draw(st.integers(1, 8)),
        heads=heads,
        stem_channels=tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))),
    )


@settings(max_examples=50, deadline=None)
@given(config=_small_vital_configs())
def test_vital_tensor_names_follow_the_weight_tree(config):
    weights = empty_weights(config)
    _assert_same_entries(vital_tensors(weights), _reference_vital_tensors(weights))


def test_vital_tensor_names_default_config():
    weights = empty_weights(VitalConfig())
    _assert_same_entries(vital_tensors(weights), _reference_vital_tensors(weights))


def test_qnetwork_tensor_names_follow_the_layers():
    net = init_qnetwork(0)
    _assert_same_entries(qnetwork_tensors(net), _reference_qnetwork_tensors(net))


def test_checkpoint_tensors_are_read_only_views(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "dqn", {}, {"a": np.arange(6, dtype=np.float32).reshape(2, 3)})
    arr = load_checkpoint(path).tensors["a"]
    assert arr.shape == (2, 3) and arr.dtype == np.float32
    assert not arr.flags.writeable


def test_checkpoint_rejects_unknown_kind(tmp_path):
    with pytest.raises(ContractViolation):
        save_checkpoint(tmp_path / "x.ckpt", "mystery", {}, {})


# --- PPM ------------------------------------------------------------------------


def random_image(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


def test_ppm_roundtrip_quantization_bound(tmp_path):
    img = random_image(6)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.abs(back.planes - img.planes).max() <= 0.5 / 255.0 + 1e-9


def test_ppm_zero_image_exact(tmp_path):
    img = MultimodalImage(np.zeros((3, 160, 160), dtype=np.float32))
    path = tmp_path / "zero.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path).planes, img.planes)


def test_ppm_quantized_values_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(7)
    quantized = (rng.integers(0, 256, size=(3, 160, 160)) / 255.0).astype(np.float32)
    img = MultimodalImage(quantized)
    path = tmp_path / "q.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path).planes, img.planes)


def test_ppm_channel_order_swap(tmp_path):
    img = random_image(8)
    path = tmp_path / "img.ppm"
    write_ppm(path, img, channel_order=("lidar", "thermal", "visual"))
    # reading with the same order restores modalities
    back = read_ppm(path, channel_order=("lidar", "thermal", "visual"))
    assert np.abs(back.planes - img.planes).max() <= 0.5 / 255.0 + 1e-9
    # reading with the default order swaps visual and lidar
    swapped = read_ppm(path)
    assert np.abs(swapped.visual - back.lidar).max() == 0.0
    assert np.abs(swapped.lidar - back.visual).max() == 0.0


def test_ppm_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n160 160\n255\n" + b"\x00" * (160 * 160))
    with pytest.raises(FormatError):
        read_ppm(p)
    p2 = tmp_path / "small.ppm"
    p2.write_bytes(b"P6\n8 8\n255\n" + b"\x00" * (8 * 8 * 3))
    with pytest.raises(FormatError):
        read_ppm(p2)
    p3 = tmp_path / "trunc.ppm"
    p3.write_bytes(b"P6\n160 160\n255\n" + b"\x00" * 100)
    with pytest.raises(FormatError):
        read_ppm(p3)


def test_ppm_write_deterministic(tmp_path):
    img = random_image(9)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, img)
    write_ppm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def test_ppm_bad_channel_order():
    with pytest.raises(ContractViolation):
        write_ppm("/tmp/never.ppm", random_image(10), channel_order=("visual", "visual", "lidar"))


# --- sample records ---------------------------------------------------------------


def test_sample_records_roundtrip(tmp_path):
    records = [
        SampleRecord("img_000.ppm", 0.1, 0.2, 0.3, 0.4, 1),
        SampleRecord("bild_ä.ppm", 0.0, 0.0, 0.0, 0.0, 0),
    ]
    path = tmp_path / "labels.csv"
    write_sample_records(path, records)
    assert "bild_ä.ppm".encode("utf-8") in path.read_bytes()  # UTF-8 whatever the locale
    back = read_sample_records(path)
    assert back == records
    assert back[0].truth is not None
    assert back[1].truth is None


def test_sample_record_validation():
    with pytest.raises(ContractViolation):
        SampleRecord("x.ppm", 0.5, 0.0, 0.1, 1.0, 1)  # inverted box
    with pytest.raises(ContractViolation):
        SampleRecord("x.ppm", 0, 0, 1, 1, 2)


def test_sample_records_bad_header(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("path,x0\n")
    with pytest.raises(FormatError):
        read_sample_records(p)


# --- traces and reports -------------------------------------------------------------


def test_episode_trace_header_only(tmp_path):
    log = EpisodeLog(LanderState(1, 2, 3), [], 0.0, Terminal.NONE)
    path = tmp_path / "trace.csv"
    write_episode_trace(path, log)
    assert path.read_text() == "step,dx,dy,dz,action,reward,terminal\n"


def test_episode_trace_one_step(tmp_path):
    step = EpisodeStep(0, LanderState(0, 0, 0), Action.DESCEND, 400.0, Terminal.LANDED_SUCCESS)
    log = EpisodeLog(LanderState(0, 0, 1), [step], 400.0, Terminal.LANDED_SUCCESS)
    path = tmp_path / "trace.csv"
    write_episode_trace(path, log)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,0.0,0.0,0.0,descend,400.0,landed_success"


def test_reward_trace_csv(tmp_path):
    trace = RewardTrace(returns=[1.0, 2.0], epsilons=[1.0, 0.995])
    path = tmp_path / "rewards.csv"
    write_reward_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,return,moving_avg,epsilon"
    assert lines[1] == "1,1.0,1.0,1.0"
    assert lines[2] == "2,2.0,1.5,0.995"


def test_metrics_json_schema(tmp_path):
    import json

    report = {"tpr": 1.0, "recall": 1.0, "f1": 1.0, "ap50": 0.5, "ap50_95": 0.25}
    path = tmp_path / "metrics.json"
    write_metrics_json(path, report)
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"tpr", "recall", "f1", "ap50", "ap50_95"}
    assert path.read_text().endswith("\n")
