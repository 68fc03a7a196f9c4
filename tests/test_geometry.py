import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander.env import EnvConfig, LanderState
from gridlander.errors import ContractViolation
from gridlander.geometry import (
    CameraFrame,
    bbox_to_offsets,
    discretize,
    offsets_to_state,
)
from gridlander.losses import BBox

from helpers import translated

FRAME = CameraFrame()
CFG = EnvConfig()


def test_frame_defaults():
    assert (FRAME.cx, FRAME.cy) == (80.0, 80.0)
    with pytest.raises(ContractViolation):
        CameraFrame(width=0)
    with pytest.raises(ContractViolation):
        CameraFrame(meters_per_pixel_per_meter=0.0)


def test_centered_box_gives_zero_offsets():
    du, dv = bbox_to_offsets(BBox(70, 70, 90, 90), FRAME)
    assert (du, dv) == (0.0, 0.0)


def test_offcenter_box():
    du, dv = bbox_to_offsets(BBox(100, 60, 120, 80), FRAME)
    assert (du, dv) == (30.0, -10.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-40, max_value=40, allow_nan=False))
def test_center_mode_translation_equivariance(t):
    base = BBox(40, 50, 70, 90)
    moved = translated(base, t, 0.0)
    du0, dv0 = bbox_to_offsets(base, FRAME)
    du1, dv1 = bbox_to_offsets(moved, FRAME)
    assert du1 - du0 == pytest.approx(t, abs=1e-9)
    assert dv1 == dv0


def test_offsets_to_state_zero():
    assert offsets_to_state(0.0, 0.0, 5.0, FRAME) == LanderState(0.0, 0.0, 5.0)


def test_offsets_to_state_zero_altitude_degenerate():
    assert offsets_to_state(123.0, -55.0, 0.0, FRAME) == LanderState(0.0, 0.0, 0.0)


def test_offsets_to_state_scaling():
    s = offsets_to_state(40.0, 0.0, 5.0, FRAME)
    assert s.dx == pytest.approx(1.0)
    assert s.dz == 5.0


def test_offsets_to_state_negative_altitude():
    with pytest.raises(ContractViolation):
        offsets_to_state(0.0, 0.0, -1.0, FRAME)


def test_centered_box_zero_state_any_altitude():
    for alt in (0.5, 3.0, 7.5):
        du, dv = bbox_to_offsets(BBox(70, 70, 90, 90), FRAME)
        s = offsets_to_state(du, dv, alt, FRAME)
        assert (s.dx, s.dy) == (0.0, 0.0)
        assert s.dz == alt


# --- discretization -----------------------------------------------------------


def test_discretize_rounding_rule():
    assert discretize(LanderState(0.4, -0.6, 3.5), CFG) == LanderState(0.0, -1.0, 4.0)


def test_discretize_half_rounds_away_from_zero():
    assert discretize(LanderState(0.5, -0.5, 2.5), CFG) == LanderState(1.0, -1.0, 3.0)


def test_discretize_idempotent_on_grid():
    s = LanderState(-3.0, 5.0, 2.0)
    assert discretize(s, CFG) == s
    assert discretize(discretize(LanderState(1.3, 2.7, 6.1), CFG), CFG) == discretize(
        LanderState(1.3, 2.7, 6.1), CFG
    )


def test_discretize_clamps():
    assert discretize(LanderState(9.0, -9.0, 12.0), CFG) == LanderState(6.0, -6.0, 8.0)


def test_discretize_finer_resolution():
    cfg = EnvConfig(resolution=0.5)
    assert discretize(LanderState(0.74, 0.76, 3.1), cfg) == LanderState(0.5, 1.0, 3.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=0, max_value=20, allow_nan=False),
)
def test_discretize_idempotent_property(dx, dy, dz):
    once = discretize(LanderState(dx, dy, dz), CFG)
    assert discretize(once, CFG) == once
    assert CFG.x_range[0] <= once.dx <= CFG.x_range[1]
    assert CFG.y_range[0] <= once.dy <= CFG.y_range[1]
    assert 0.0 <= once.dz <= CFG.z_range[1]
