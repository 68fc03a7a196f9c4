import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander.env import (
    TERMINALS,
    Action,
    EnvConfig,
    LanderState,
    LandingEnv,
    Terminal,
    approach_shaping,
    altitude_shaping,
    enumerate_mdp,
    inside_zone,
    reset_state,
    reward,
    shaping,
    transition,
)
from gridlander.errors import ContractViolation
from gridlander.rng import Rng
from gridlander.tabular import q_learning

from helpers import table_state

CFG = EnvConfig()


class RewardBookkeeper:
    """Step-by-step transcription of the shaping bookkeeping, carrying the
    previous-shaping value across steps exactly as the update rules state.

    Kept deliberately independent of the library implementation: it uses its
    own shaping formulas and the explicit shaping / next_shaping dance.
    """

    def __init__(self, cfg: EnvConfig, start: LanderState) -> None:
        self.cfg = cfg
        self.was_inside = self._inside(start)
        self.prev_shaping = self._landing(start) if self.was_inside else self._approach(start)

    def _inside(self, s):
        return math.hypot(s.dx, s.dy) <= self.cfg.landing_zone_radius

    def _approach(self, s):
        kx, ky, kz = self.cfg.k_weights
        return -100.0 * math.sqrt(kx * s.dx**2 + ky * s.dy**2 + kz * s.dz**2)

    def _landing(self, s):
        kz = self.cfg.k_weights[2]
        return -100.0 * math.sqrt(kz * s.dz**2)

    def step(self, prev: LanderState, new: LanderState) -> float:
        inside_now = self._inside(new)
        r_appr = self._approach(new)
        r_land = self._landing(new)
        if inside_now:
            if self.was_inside:
                shaping_value = r_land
                next_shaping = shaping_value
            else:
                shaping_value = r_appr
                next_shaping = r_land
        else:
            if self.was_inside:  # left the landing zone: rebase to the
                self.prev_shaping = self._approach(prev)  # state it came from
            shaping_value = r_appr
            next_shaping = shaping_value
        value = shaping_value - self.prev_shaping
        self.prev_shaping = next_shaping
        if new.dz <= 0.0:
            if inside_now:
                value = 400.0
            else:
                value = -200.0 * math.hypot(new.dx, new.dy)
        self.was_inside = inside_now
        return value


# --- shaping -------------------------------------------------------------------


def test_shaping_zero_state():
    assert shaping(LanderState(0, 0, 0), (1, 1, 1), inside=False) == 0.0
    assert shaping(LanderState(0, 0, 0), (1, 1, 1), inside=True) == 0.0


def test_shaping_345_triangle():
    assert shaping(LanderState(3, 4, 0), (1, 1, 1), inside=False) == pytest.approx(-500.0)


def test_shaping_inside_altitude_only():
    assert shaping(LanderState(0, 0, 8), (1, 1, 1), inside=True) == pytest.approx(-800.0)
    # the horizontal offset is ignored on the inside branch
    assert shaping(LanderState(1, 0, 8), (1, 1, 1), inside=True) == pytest.approx(-800.0)


def test_shaping_weights():
    assert shaping(LanderState(0, 0, 2), (1, 1, 4), inside=True) == pytest.approx(-400.0)


# --- step basics ----------------------------------------------------------------


def test_step_descend_unit_move():
    out = transition(LanderState(2, 3, 5), Action.DESCEND, CFG)
    assert out.next == LanderState(2, 3, 4)
    assert out.terminal is Terminal.NONE


def test_step_boundary_clamp():
    out = transition(LanderState(6, 0, 5), Action.FORWARD, CFG)
    assert out.next == LanderState(6, 0, 5)
    assert out.terminal is Terminal.NONE
    assert out.reward == pytest.approx(0.0)


def test_step_landing_success_reward_400():
    out = transition(LanderState(0, 0, 1), Action.DESCEND, CFG)
    assert out.terminal is Terminal.LANDED_SUCCESS
    assert out.next == LanderState(0, 0, 0)
    assert out.reward == 400.0


def test_step_landing_outside():
    out = transition(LanderState(3, 4, 1), Action.DESCEND, CFG)
    assert out.terminal is Terminal.LANDED_OUTSIDE
    assert out.reward == pytest.approx(-200.0 * 5.0)


def test_step_terminal_state_rejected():
    with pytest.raises(ContractViolation):
        transition(LanderState(0, 0, 0), Action.DESCEND, CFG)


def test_action_axis_mapping():
    s = LanderState(0, 0, 5)
    assert transition(s, Action.FORWARD, CFG).next == LanderState(1, 0, 5)
    assert transition(s, Action.BACKWARD, CFG).next == LanderState(-1, 0, 5)
    assert transition(s, Action.LEFT, CFG).next == LanderState(0, 1, 5)
    assert transition(s, Action.RIGHT, CFG).next == LanderState(0, -1, 5)
    assert transition(s, Action.DESCEND, CFG).next == LanderState(0, 0, 4)


def test_horizontal_actions_never_change_altitude():
    rng = Rng(5)
    for _ in range(200):
        s = reset_state(CFG, rng)
        for action in (Action.FORWARD, Action.BACKWARD, Action.LEFT, Action.RIGHT):
            assert transition(s, action, CFG).next.dz == s.dz


def test_boundary_crash_mode():
    crash_cfg = EnvConfig(boundary_mode="crash")
    out = transition(LanderState(6, 0, 5), Action.FORWARD, crash_cfg)
    assert out.terminal is Terminal.OUT_OF_BOUNDS
    assert out.reward == pytest.approx(-200.0 * 6.0)


# --- reward function --------------------------------------------------------------


def test_reward_success_overrides_shaping():
    assert reward(LanderState(1, 0, 1), LanderState(1, 0, 0), CFG) == 400.0
    assert reward(LanderState(0, 0, 1), LanderState(0, 0, 0), CFG) == 400.0


def test_reward_outside_landing_distance_two():
    assert reward(LanderState(2, 0, 1), LanderState(2, 0, 0), CFG) == pytest.approx(-400.0)


def test_reward_three_step_scripted_trajectory():
    # (5, 0, 3) -Backward-> (4, 0, 3) -Backward-> (3, 0, 3) -Descend-> (3, 0, 2)
    cfg = CFG
    states = [
        LanderState(5, 0, 3),
        LanderState(4, 0, 3),
        LanderState(3, 0, 3),
        LanderState(3, 0, 2),
    ]
    book = RewardBookkeeper(cfg, states[0])
    expected = [
        -100.0 * (math.sqrt(25) - math.sqrt(34)),
        -100.0 * (math.sqrt(18) - math.sqrt(25)),
        -100.0 * (math.sqrt(13) - math.sqrt(18)),
    ]
    for prev, nxt, want in zip(states, states[1:], expected):
        got = reward(prev, nxt, cfg)
        assert got == pytest.approx(book.step(prev, nxt), abs=1e-9)
        assert got == pytest.approx(want, abs=1e-9)


def test_reward_zone_entry_and_exit_cycle_nets_zero():
    cfg = CFG
    z = 5.0
    outside, inside = LanderState(2, 0, z), LanderState(1, 0, z)
    enter = reward(outside, inside, cfg)
    leave = reward(inside, outside, cfg)
    assert enter == pytest.approx(-leave, abs=1e-9)
    assert enter > 0.0


def test_reward_matches_bookkeeper_on_random_trajectories():
    rng = Rng(99)
    actions = list(Action)
    for _ in range(300):
        state = reset_state(CFG, rng)
        book = RewardBookkeeper(CFG, state)
        for _ in range(60):
            action = actions[int(rng.integers(5))]
            out = transition(state, action, CFG)
            assert out.reward == pytest.approx(book.step(state, out.next), abs=1e-6)
            state = out.next
            if out.terminal is not Terminal.NONE:
                break


def test_shaping_telescoping_outside_zone():
    # a path that never enters the landing zone telescopes exactly
    cfg = CFG
    states = [LanderState(6, 6, 8)]
    for action in [Action.BACKWARD, Action.DESCEND, Action.LEFT, Action.DESCEND, Action.BACKWARD]:
        states.append(transition(states[-1], action, cfg).next)
    total = sum(reward(a, b, cfg) for a, b in zip(states, states[1:]))
    expected = approach_shaping(states[-1], cfg) - approach_shaping(states[0], cfg)
    assert total == pytest.approx(expected, abs=1e-6)


def test_inside_zone_boundary_inclusive():
    assert inside_zone(LanderState(1, 0, 3), CFG)
    assert not inside_zone(LanderState(1, 1, 3), CFG)
    assert altitude_shaping(LanderState(1, 0, 3), CFG) == pytest.approx(-300.0)


# --- reset -------------------------------------------------------------------------


def test_reset_bounds_1000():
    rng = Rng(7)
    xs = set(CFG.axis_values("x"))
    for _ in range(1000):
        s = reset_state(CFG, rng)
        assert s.dx in xs and s.dy in xs
        assert 2.0 <= s.dz <= 8.0
        assert s.dz == int(s.dz)


def test_reset_deterministic_under_seed():
    r1, r2 = Rng(3), Rng(3)
    seq1 = [reset_state(CFG, r1) for _ in range(50)]
    seq2 = [reset_state(CFG, r2) for _ in range(50)]
    assert seq1 == seq2


def eligible_starts(config: EnvConfig) -> list[LanderState]:
    """Every on-grid state with dz >= 2, in scan order."""
    out = []
    for z in config.axis_values("z"):
        if z < 2.0 - 1e-9:
            continue
        for x in config.axis_values("x"):
            for y in config.axis_values("y"):
                out.append(LanderState(float(x), float(y), float(z)))
    return out


def test_reset_coverage_of_eligible_cells():
    rng = Rng(11)
    eligible = {tuple(s) for s in eligible_starts(CFG)}
    assert len(eligible) == 13 * 13 * 7
    seen = {tuple(reset_state(CFG, rng)) for _ in range(100000)}
    assert seen <= eligible
    assert len(seen) / len(eligible) >= 0.9


# --- stateful environment -------------------------------------------------------------


def test_env_step_budget_max_steps():
    cfg = EnvConfig(max_steps=3)
    env = LandingEnv(cfg)
    env.reset(LanderState(6, 6, 8))
    for _ in range(2):
        assert env.step(Action.FORWARD).terminal is Terminal.NONE
    out = env.step(Action.FORWARD)
    assert out.terminal is Terminal.MAX_STEPS
    with pytest.raises(ContractViolation):
        env.step(Action.FORWARD)


def test_env_landing_on_final_step_counts_as_landing():
    cfg = EnvConfig(max_steps=1)
    env = LandingEnv(cfg)
    env.reset(LanderState(0, 0, 1))
    assert env.step(Action.DESCEND).terminal is Terminal.LANDED_SUCCESS


def test_env_requires_reset_first():
    env = LandingEnv(CFG)
    with pytest.raises(ContractViolation):
        env.step(Action.DESCEND)


def test_wind_requires_rng():
    cfg = EnvConfig(wind_probability=0.5)
    with pytest.raises(ContractViolation):
        transition(LanderState(0, 0, 5), Action.DESCEND, cfg)


def test_wind_deterministic_and_displaces_horizontally():
    cfg = EnvConfig(wind_probability=1.0)
    outs1 = [transition(LanderState(0, 0, 5), Action.DESCEND, cfg, Rng(4)) for _ in range(1)]
    outs2 = [transition(LanderState(0, 0, 5), Action.DESCEND, cfg, Rng(4)) for _ in range(1)]
    assert outs1 == outs2
    moved = transition(LanderState(0, 0, 5), Action.DESCEND, cfg, Rng(4)).next
    assert moved.dz == 4.0
    assert abs(moved.dx) + abs(moved.dy) == 1.0  # one-cell gust


# --- config validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"resolution": math.nan},
        {"resolution": math.inf},
        {"landing_zone_radius": math.nan},
        {"x_range": (math.nan, 1.0)},
        {"y_range": (-math.inf, 1.0)},
        {"z_range": (0.0, math.inf)},
        {"k_weights": (1.0, math.nan, 1.0)},
        {"wind_probability": math.nan},
        {"max_steps": 10**400},  # an int no float can hold
        {"x_range": (-1e308, 1e308)},  # hi - lo overflows
        {"resolution": 5e-324},  # the cell count overflows
        # the shaping sum, then the outside-landing penalty, overflows at the farthest cell
        {"x_range": (-2.0, 2.0), "y_range": (-2.0, 2.0), "z_range": (0.0, 3.0),
         "k_weights": (1e308, 1.0, 1.0)},
        {"x_range": (-1e306, 1e306), "resolution": 1e300, "k_weights": (0.0, 0.0, 0.0)},
    ],
)
def test_config_rejects_non_finite_values(overrides):
    with pytest.raises(ContractViolation):
        EnvConfig(**overrides)


def test_config_accepts_weights_whose_reward_stays_finite():
    cfg = EnvConfig(x_range=(-2.0, 2.0), y_range=(-2.0, 2.0), z_range=(0.0, 3.0),
                    k_weights=(1e200, 1.0, 1.0))
    assert np.isfinite(enumerate_mdp(cfg).rewards).all()


# --- enumerated MDP ---------------------------------------------------------------


def test_enumerate_mdp_counts():
    mdp = enumerate_mdp(CFG)
    assert mdp.n_states == 13 * 13 * 9 == 1521
    assert mdp.n_nonterminal == 13 * 13 * 8 == 1352
    assert mdp.rewards.shape == (1352, 5)


def test_enumerate_mdp_success_entries_are_400():
    mdp = enumerate_mdp(CFG)
    success = 0
    for row in range(mdp.n_nonterminal):
        state = table_state(mdp, int(mdp.nonterminal_indices[row]))
        for a in range(5):
            nxt = table_state(mdp, int(mdp.next_index[row, a]))
            if nxt.dz == 0.0 and inside_zone(nxt, CFG):
                assert mdp.rewards[row, a] == 400.0
                assert mdp.next_row[row, a] < 0
                success += 1
    assert success == 5  # one Descend entry per landing-zone cell


def test_enumerate_mdp_spot_checks_live_step():
    mdp = enumerate_mdp(CFG)
    rng = Rng(21)
    for _ in range(200):
        row = int(rng.integers(mdp.n_nonterminal))
        a = int(rng.integers(5))
        state = table_state(mdp, int(mdp.nonterminal_indices[row]))
        out = transition(state, Action(a), CFG)
        assert tuple(out.next) == tuple(table_state(mdp, int(mdp.next_index[row, a])))
        assert out.reward == mdp.rewards[row, a]
        assert (out.terminal is not Terminal.NONE) == bool(mdp.next_row[row, a] < 0)


def test_enumerate_mdp_rejects_wind():
    with pytest.raises(ContractViolation):
        enumerate_mdp(EnvConfig(wind_probability=0.1))


@settings(max_examples=40, deadline=None)
@given(
    half_x=st.integers(1, 5),
    half_y=st.integers(1, 5),
    height=st.integers(1, 6),
    resolution=st.sampled_from([0.5, 1.0]),
    k_weights=st.tuples(*[st.floats(0.0, 3.0)] * 3),
    radius=st.floats(0.0, 3.0),
    boundary_mode=st.sampled_from(["clamp", "crash"]),
)
def test_enumerate_mdp_matches_per_cell_transition(
    half_x, half_y, height, resolution, k_weights, radius, boundary_mode
):
    cfg = EnvConfig(
        x_range=(-half_x * resolution, half_x * resolution),
        y_range=(-half_y * resolution, half_y * resolution),
        z_range=(0.0, height * resolution),
        resolution=resolution,
        landing_zone_radius=radius,
        k_weights=k_weights,
        boundary_mode=boundary_mode,
    )
    mdp = enumerate_mdp(cfg)
    scan = [
        (float(x), float(y), float(z))
        for z in cfg.axis_values("z")
        for x in cfg.axis_values("x")
        for y in cfg.axis_values("y")
    ]
    assert [tuple(s) for s in mdp.states.tolist()] == scan
    index_of = {s: i for i, s in enumerate(scan)}
    assert mdp.nonterminal_indices.tolist() == [i for i, s in enumerate(scan) if s[2] > 0.0]
    for row, si in enumerate(mdp.nonterminal_indices):
        state = table_state(mdp, int(si))
        assert mdp.row_of(state) == row
        for a in Action:
            out = transition(state, a, cfg)
            assert mdp.next_index[row, a] == index_of[tuple(out.next)]
            assert mdp.rewards[row, a].tobytes() == np.float64(out.reward).tobytes()
            assert TERMINALS[mdp.kind[row, a]] is out.terminal
            if out.terminal is Terminal.NONE:
                assert mdp.next_row[row, a] == mdp.row_of(out.next)
            else:
                assert mdp.next_row[row, a] == -1


@pytest.mark.parametrize(
    "cfg",
    [
        EnvConfig(resolution=0.3),
        EnvConfig(x_range=(-6.5, 6.0)),
        EnvConfig(z_range=(0.0, 0.5)),
        EnvConfig(z_range=(0.0, 0.0)),
    ],
)
def test_enumerate_mdp_rejects_grids_without_whole_cells(cfg):
    with pytest.raises(ContractViolation):
        enumerate_mdp(cfg)


def test_row_of_rejects_terminal_and_off_grid_states():
    mdp = enumerate_mdp(CFG)
    for state in (LanderState(0.0, 0.0, 0.0), LanderState(0.5, 0.0, 1.0), LanderState(7.0, 0.0, 1.0)):
        with pytest.raises(ContractViolation):
            mdp.row_of(state)


def test_q_learning_returns_on_an_empty_table():
    mdp = enumerate_mdp(CFG)
    empty = replace(mdp, nonterminal_indices=mdp.nonterminal_indices[:0])
    assert q_learning(empty, gamma=0.9, steps=10).shape == (0, 5)


def test_grid_closure_random_walk():
    rng = Rng(31)
    env = LandingEnv(CFG, rng)
    xs = set(CFG.axis_values("x"))
    zs = set(CFG.axis_values("z"))
    for _ in range(20):
        state = env.reset()
        while env.terminal is Terminal.NONE:
            out = env.step(Action(int(rng.integers(5))))
            assert out.next.dx in xs and out.next.dy in xs and out.next.dz in zs


def test_config_validation():
    with pytest.raises(ContractViolation):
        EnvConfig(resolution=0.0)
    with pytest.raises(ContractViolation):
        EnvConfig(z_range=(1.0, 8.0))
    with pytest.raises(ContractViolation):
        EnvConfig(k_weights=(1.0, -1.0, 1.0))
    with pytest.raises(ContractViolation):
        EnvConfig(boundary_mode="bounce")
