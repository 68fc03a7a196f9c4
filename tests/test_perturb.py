import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander.errors import ContractViolation
from gridlander.losses import BBox
from gridlander.perturb import (
    Perturbation,
    apply_all,
    apply_perturbation,
    brightness,
    disable_modalities,
    flip_h,
    flip_v,
    fog,
    parse_perturbation,
    salt_pepper,
)
from gridlander.vital import MultimodalImage


def image_from_seed(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


def checksum(plane):
    return float(np.asarray(plane, dtype=np.float64).sum())


# --- modality disabling -----------------------------------------------------------


def test_disable_nothing_is_identity():
    img = image_from_seed(0)
    out = disable_modalities(img, set())
    assert np.array_equal(out.planes, img.planes)


def test_disable_everything_zeroes_image():
    out = disable_modalities(image_from_seed(1), {"visual", "thermal", "lidar"})
    assert not out.planes.any()


def test_disable_lidar_only():
    img = image_from_seed(2)
    out = disable_modalities(img, {"lidar"})
    assert checksum(out.planes[2]) == 0.0
    assert checksum(out.planes[0]) == checksum(img.planes[0])
    assert checksum(out.planes[1]) == checksum(img.planes[1])
    assert np.array_equal(out.planes[0], img.planes[0])


def test_disable_is_idempotent():
    img = image_from_seed(3)
    once = disable_modalities(img, {"thermal"})
    twice = disable_modalities(once, {"thermal"})
    assert np.array_equal(once.planes, twice.planes)


def test_disable_unknown_modality():
    with pytest.raises(ContractViolation):
        disable_modalities(image_from_seed(4), {"sonar"})


# --- brightness -------------------------------------------------------------------


def test_brightness_zero_is_identity():
    img = image_from_seed(5)
    assert np.array_equal(brightness(img, 0.0).planes, img.planes)


def test_brightness_minus_one_blacks_visual():
    img = image_from_seed(6)
    out = brightness(img, -1.0)
    assert not out.planes[0].any()
    assert np.array_equal(out.planes[1], img.planes[1])
    assert np.array_equal(out.planes[2], img.planes[2])


def test_brightness_midgray_scaling():
    planes = np.full((3, 160, 160), 0.4, dtype=np.float32)
    out = brightness(MultimodalImage(planes), 0.5)
    assert np.allclose(out.planes[0], 0.6, atol=1e-6)
    assert np.allclose(out.planes[1], 0.4, atol=0)


def test_brightness_clamps_to_unit_range():
    planes = np.full((3, 160, 160), 0.9, dtype=np.float32)
    out = brightness(MultimodalImage(planes), 0.9)
    assert out.planes[0].max() == 1.0


def test_brightness_delta_out_of_range():
    with pytest.raises(ContractViolation):
        brightness(image_from_seed(8), 1.5)


# --- fog -------------------------------------------------------------------------


def test_fog_zero_is_identity():
    img = image_from_seed(9)
    out = fog(img, 0.0, 0.0, seed=1)
    assert np.allclose(out.planes, img.planes, atol=1e-7)


def test_fog_full_saturates_white():
    img = image_from_seed(10)
    out = fog(img, 1.0, 1.0, seed=2)
    assert np.allclose(out.planes, 1.0, atol=1e-7)


def test_fog_brightens_dark_image_and_is_seeded():
    dark = MultimodalImage(np.full((3, 160, 160), 0.05, dtype=np.float32))
    a = fog(dark, 0.1, 0.5, seed=3)
    b = fog(dark, 0.1, 0.5, seed=3)
    c = fog(dark, 0.1, 0.5, seed=4)
    assert a.planes.mean() > dark.planes.mean()
    assert np.array_equal(a.planes, b.planes)
    assert not np.array_equal(a.planes, c.planes)


def test_fog_bad_range():
    with pytest.raises(ContractViolation):
        fog(image_from_seed(11), 0.6, 0.5, seed=0)


# --- salt and pepper ---------------------------------------------------------------


def test_salt_pepper_zero_probability_identity():
    img = image_from_seed(12)
    assert np.array_equal(salt_pepper(img, 0.0, seed=5).planes, img.planes)


def test_salt_pepper_empirical_rate():
    base = MultimodalImage(np.full((3, 160, 160), 0.5, dtype=np.float32))
    prob = 0.002
    corrupted = 0
    total = 0
    for seed in range(14):  # 14 * 76800 > 1e6 pixels
        out = salt_pepper(base, prob, seed=seed)
        changed = out.planes != np.float32(0.5)
        corrupted += int(changed.sum())
        total += out.planes.size
    assert total > 1_000_000
    rate = corrupted / total
    assert abs(rate - prob) <= 0.1 * prob


def test_salt_pepper_values_are_binary_extremes():
    base = MultimodalImage(np.full((3, 160, 160), 0.5, dtype=np.float32))
    out = salt_pepper(base, 0.5, seed=6)
    changed = out.planes[out.planes != np.float32(0.5)]
    assert set(np.unique(changed)) <= {np.float32(0.0), np.float32(1.0)}
    assert (changed == 1.0).any() and (changed == 0.0).any()


def test_salt_pepper_deterministic():
    img = image_from_seed(13)
    a = salt_pepper(img, 0.01, seed=7)
    b = salt_pepper(img, 0.01, seed=7)
    assert np.array_equal(a.planes, b.planes)


# --- flips ------------------------------------------------------------------------


def test_flip_h_involution():
    # dyadic label coordinates (multiples of 1/256) mirror bit-exactly
    img = image_from_seed(14)
    box = BBox(0.125, 0.25, 0.375, 0.5)
    once, box1 = flip_h(img, box)
    twice, box2 = flip_h(once, box1)
    assert np.array_equal(twice.planes, img.planes)
    assert box2 == box


def test_flip_v_involution():
    img = image_from_seed(15)
    box = BBox(33 / 256, 0.5, 0.625, 191 / 256)
    once, box1 = flip_v(img, box)
    twice, box2 = flip_v(once, box1)
    assert np.array_equal(twice.planes, img.planes)
    assert box2 == box


def test_flip_involution_near_exact_for_arbitrary_labels():
    img = image_from_seed(20)
    box = BBox(0.1, 0.2, 0.3, 0.4)
    once, box1 = flip_h(img, box)
    twice, box2 = flip_h(once, box1)
    assert np.array_equal(twice.planes, img.planes)
    assert box2.corners == pytest.approx(box.corners, abs=1e-15)


def test_flip_h_bbox_mirror_arithmetic():
    _, box = flip_h(image_from_seed(16), BBox(0.1, 0.2, 0.3, 0.4))
    assert box.corners == pytest.approx((0.7, 0.2, 0.9, 0.4))


def test_flip_v_bbox_mirror_arithmetic():
    _, box = flip_v(image_from_seed(17), BBox(0.1, 0.2, 0.3, 0.4))
    assert box.corners == pytest.approx((0.1, 0.6, 0.3, 0.8))


def test_flip_h_moves_pixels():
    img = image_from_seed(18)
    out, _ = flip_h(img)
    assert np.array_equal(out.planes, img.planes[:, :, ::-1])


# --- shared properties --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(["disable", "brightness", "fog", "salt_pepper", "flip_h", "flip_v"]),
)
def test_all_transforms_preserve_shape_and_range(seed, kind):
    rng = np.random.default_rng(seed)
    img = MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))
    if kind == "disable":
        pert = Perturbation("disable", modalities=("thermal",))
    elif kind == "brightness":
        pert = Perturbation("brightness", delta=float(rng.uniform(-1, 1)))
    elif kind == "fog":
        lo = float(rng.uniform(0, 0.5))
        pert = Perturbation("fog", low=lo, high=float(rng.uniform(lo, 1.0)), seed=seed)
    elif kind == "salt_pepper":
        pert = Perturbation("salt_pepper", prob=float(rng.uniform(0, 0.2)), seed=seed)
    else:
        pert = Perturbation(kind)
    out, _ = apply_perturbation(pert, img)
    assert out.planes.shape == (3, 160, 160)
    assert out.planes.min() >= 0.0 and out.planes.max() <= 1.0


# --- directive parsing ---------------------------------------------------------------


def test_parse_disable_list():
    p = parse_perturbation("disable=lidar,thermal")
    assert p.kind == "disable" and p.modalities == ("lidar", "thermal")


def test_parse_numeric_directives():
    assert parse_perturbation("brightness=-0.5").delta == -0.5
    f = parse_perturbation("fog=0.1,0.5", seed=9)
    assert (f.low, f.high, f.seed) == (0.1, 0.5, 9)
    assert parse_perturbation("salt_pepper=0.002").prob == 0.002


def test_parse_flips_and_errors():
    assert parse_perturbation("flip_h").kind == "flip_h"
    with pytest.raises(ContractViolation):
        parse_perturbation("blur=3")
    with pytest.raises(ContractViolation):
        parse_perturbation("disable=")
    with pytest.raises(ContractViolation):
        parse_perturbation("flip_h=1")


def test_apply_all_chains_and_remaps_bbox():
    img = image_from_seed(19)
    box = BBox(0.1, 0.2, 0.3, 0.4)
    perts = [parse_perturbation("disable=lidar"), parse_perturbation("flip_h")]
    out, mapped = apply_all(perts, img, box)
    assert not out.planes[2].any()
    assert mapped.corners == pytest.approx((0.7, 0.2, 0.9, 0.4))
