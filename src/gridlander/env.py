"""Discretized 3D landing environment.

The world is a grid of (dx, dy, dz) offsets from the landing pad, one cell
per resolution step. Five actions move one cell: forward/backward along x,
left/right along y, and descend along z. Touching dz = 0 ends the episode:
inside the landing zone it is a success worth +400, outside it costs
-200 times the horizontal distance to the pad.

Every other step is rewarded with the difference of a distance-based
shaping value. The shaping switches scale at the landing-zone boundary:
outside the zone it spans all three axes, inside it tracks altitude only.
When the vehicle leaves the zone, the carried previous-shaping value is
rebased to the full-scale shaping of the state it came from. With that
bookkeeping the per-step reward reduces to a pure function of (previous
state, next state):

    both states inside the zone -> altitude shaping difference
    otherwise                   -> full shaping difference

A leave/re-enter cycle stays on one layer, since no action climbs. It nets
zero reward only when every zone cell with a neighbour outside the zone has
the same approach shaping kx*dx^2 + ky*dy^2 on its layer. Otherwise a lap
through the zone collects the approach shaping that its in-zone leg
skipped, and the optimal policy can circle instead of landing: with
k_weights (1, 1, 2) and landing_zone_radius 1.5 on the default 13x13x9
grid, ``eval --oracle --seed 7 --episodes 30`` reports success 0.000.

``reward`` implements the reduced form; the test suite carries an
independent step-by-step transcription of the bookkeeping and checks the
two never disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractViolation
from .rng import Rng


START_ALTITUDE = 2.0  # the lowest altitude an episode starts from


class Action(int, Enum):
    FORWARD = 0  # +x
    BACKWARD = 1  # -x
    LEFT = 2  # +y
    RIGHT = 3  # -y
    DESCEND = 4  # -z


_ACTION_DELTAS = {
    Action.FORWARD: (1, 0, 0),
    Action.BACKWARD: (-1, 0, 0),
    Action.LEFT: (0, 1, 0),
    Action.RIGHT: (0, -1, 0),
    Action.DESCEND: (0, 0, -1),
}


class Terminal(Enum):
    NONE = "none"
    LANDED_SUCCESS = "landed_success"
    LANDED_OUTSIDE = "landed_outside"
    OUT_OF_BOUNDS = "out_of_bounds"
    MAX_STEPS = "max_steps"


TERMINALS = tuple(Terminal)  # MdpTable.kind holds indices into this


class LanderState(NamedTuple):
    dx: float
    dy: float
    dz: float

    def horizontal_distance(self) -> float:
        return math.hypot(self.dx, self.dy)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class EnvConfig:
    x_range: tuple[float, float] = (-6.0, 6.0)
    y_range: tuple[float, float] = (-6.0, 6.0)
    z_range: tuple[float, float] = (0.0, 8.0)
    resolution: float = 1.0
    landing_zone_radius: float = 1.0
    k_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    max_steps: int = 200
    wind_probability: float = 0.0
    wind_displacement: int = 1  # grid cells per gust
    boundary_mode: str = "clamp"  # or "crash"

    def __post_init__(self) -> None:
        for name in ("x_range", "y_range", "z_range", "resolution", "landing_zone_radius",
                     "k_weights", "max_steps", "wind_probability", "wind_displacement"):
            value = getattr(self, name)
            if not all(map(_is_finite, value if isinstance(value, tuple) else (value,))):
                raise ContractViolation(f"{name} must be finite, got {value!r}")
        if self.resolution <= 0:
            raise ContractViolation("resolution must be positive")
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range), ("z", self.z_range)):
            if lo > hi:
                raise ContractViolation(f"{name}_range is not ordered")
            # past 2**53 cells a float no longer counts them exactly
            if not (float(hi) - float(lo)) / self.resolution < 2**53:
                raise ContractViolation(
                    f"{name}_range spans too many cells at resolution {self.resolution}"
                )
        if self.z_range[0] != 0.0:
            raise ContractViolation("altitude range must start at ground level 0")
        if any(k < 0 for k in self.k_weights):
            raise ContractViolation("shaping weights must be non-negative")
        # the shaping sum and the outside-landing penalty peak at the farthest cell
        x, y, z = (float(max(map(abs, r))) for r in (self.x_range, self.y_range, self.z_range))
        kx, ky, kz = map(float, self.k_weights)
        peaks = (kx * x * x + ky * y * y + kz * z * z, 200.0 * math.hypot(x, y))
        if not all(map(math.isfinite, peaks)):
            raise ContractViolation(f"the reward overflows at {(x, y, z)} for k_weights {self.k_weights}")
        if self.landing_zone_radius < 0:
            raise ContractViolation("landing zone radius must be non-negative")
        if self.max_steps < 1:
            raise ContractViolation("max_steps must be at least 1")
        if not 0.0 <= self.wind_probability <= 1.0:
            raise ContractViolation("wind probability must lie in [0,1]")
        if self.boundary_mode not in ("clamp", "crash"):
            raise ContractViolation("boundary_mode must be 'clamp' or 'crash'")
        # a bound written -0.0 becomes 0.0, as in enumerate_mdp's states, so
        # that a move clamped to it never yields -0.0; abs keeps an int 0
        for name in ("x_range", "y_range", "z_range"):
            bounds = tuple(abs(v) if v == 0 else v for v in getattr(self, name))
            object.__setattr__(self, name, bounds)

    def axis_values(self, axis: str) -> np.ndarray:
        lo, hi = {"x": self.x_range, "y": self.y_range, "z": self.z_range}[axis]
        n = int(math.floor((hi - lo) / self.resolution + 1e-9)) + 1
        return lo + self.resolution * np.arange(n)

    @cached_property
    def start_axes(self) -> tuple[list[float], list[float], list[float]]:
        """The x and y axis values and the z values from ``START_ALTITUDE``
        up, as floats: the cells ``reset_state`` draws from, built once."""
        xs, ys, zs = (self.axis_values(a) for a in ("x", "y", "z"))
        zs = zs[zs >= START_ALTITUDE - 1e-9]
        return tuple([float(v) for v in axis] for axis in (xs, ys, zs))


def inside_zone(state: LanderState, config: EnvConfig) -> bool:
    return state.horizontal_distance() <= config.landing_zone_radius


def shaping(state: LanderState, k: tuple[float, float, float], inside: bool) -> float:
    """-100 * sqrt(weighted squared offsets); altitude-only inside the zone."""
    kx, ky, kz = k
    if inside:
        return -100.0 * math.sqrt(kz * state.dz * state.dz)
    return -100.0 * math.sqrt(
        kx * state.dx * state.dx + ky * state.dy * state.dy + kz * state.dz * state.dz
    )


def approach_shaping(state: LanderState, config: EnvConfig) -> float:
    return shaping(state, config.k_weights, inside=False)


def altitude_shaping(state: LanderState, config: EnvConfig) -> float:
    return shaping(state, config.k_weights, inside=True)


def reward(prev: LanderState, nxt: LanderState, config: EnvConfig) -> float:
    """Per-step reward for the move prev -> nxt (see module docstring).

    Touchdown overrides the shaping difference: +400 inside the landing
    zone, -200 * horizontal distance outside it.
    """
    if nxt.dz <= 0.0:
        if inside_zone(nxt, config):
            return 400.0
        return -200.0 * nxt.horizontal_distance()
    if inside_zone(prev, config) and inside_zone(nxt, config):
        return altitude_shaping(nxt, config) - altitude_shaping(prev, config)
    return approach_shaping(nxt, config) - approach_shaping(prev, config)


@dataclass(frozen=True)
class StepOutcome:
    next: LanderState
    reward: float
    terminal: Terminal


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def transition(
    state: LanderState,
    action: Action,
    config: EnvConfig,
    rng: Optional[Rng] = None,
) -> StepOutcome:
    """One move without step accounting; pure when wind is disabled.

    Horizontal moves clamp at the grid boundary (or crash, per config);
    reaching dz = 0 classifies the landing by zone membership.
    """
    if state.dz <= 0.0:
        raise ContractViolation(f"cannot step a terminal state {state}")
    ddx, ddy, ddz = _ACTION_DELTAS[Action(action)]
    r = config.resolution
    x = state.dx + ddx * r
    y = state.dy + ddy * r
    z = state.dz + ddz * r
    if config.wind_probability > 0.0:
        if rng is None:
            raise ContractViolation("wind enabled but no rng supplied")
        if rng.uniform() < config.wind_probability:
            # a gust blows the way one of the four horizontal actions moves
            gx, gy, _ = _ACTION_DELTAS[Action(int(rng.integers(4)))]
            x += gx * config.wind_displacement * r
            y += gy * config.wind_displacement * r
    out_of_bounds = not (
        config.x_range[0] <= x <= config.x_range[1]
        and config.y_range[0] <= y <= config.y_range[1]
    )
    x = _clamp(x, config.x_range[0], config.x_range[1])
    y = _clamp(y, config.y_range[0], config.y_range[1])
    z = _clamp(z, 0.0, config.z_range[1])
    nxt = LanderState(x, y, z)

    if out_of_bounds and config.boundary_mode == "crash":
        return StepOutcome(nxt, -200.0 * nxt.horizontal_distance(), Terminal.OUT_OF_BOUNDS)
    rew = reward(state, nxt, config)
    if nxt.dz <= 0.0:
        kind = Terminal.LANDED_SUCCESS if inside_zone(nxt, config) else Terminal.LANDED_OUTSIDE
        return StepOutcome(nxt, rew, kind)
    return StepOutcome(nxt, rew, Terminal.NONE)


def reset_state(config: EnvConfig, rng: Rng) -> LanderState:
    """Uniform random on-grid start with dz >= START_ALTITUDE."""
    xs, ys, zs = config.start_axes
    if not zs:
        raise ContractViolation("no eligible start altitudes")
    x = xs[int(rng.integers(len(xs)))]
    y = ys[int(rng.integers(len(ys)))]
    z = zs[int(rng.integers(len(zs)))]
    return LanderState(x, y, z)


class LandingEnv:
    """Stateful episode wrapper: tracks the step budget and terminal status."""

    def __init__(self, config: EnvConfig, rng: Optional[Rng] = None) -> None:
        if config.wind_probability > 0.0 and rng is None:
            raise ContractViolation("wind enabled but no rng supplied")
        self.config = config
        self.rng = rng
        self.state: Optional[LanderState] = None
        self.steps = 0
        self.terminal = Terminal.NONE

    def reset(self, state: Optional[LanderState] = None) -> LanderState:
        if state is None:
            if self.rng is None:
                raise ContractViolation("reset without an explicit state needs an rng")
            state = reset_state(self.config, self.rng)
        self.state = state
        self.steps = 0
        self.terminal = Terminal.NONE
        return state

    def step(self, action: Action) -> StepOutcome:
        if self.state is None:
            raise ContractViolation("step before reset")
        if self.terminal is not Terminal.NONE:
            raise ContractViolation("episode already terminal")
        out = transition(self.state, action, self.config, self.rng)
        self.steps += 1
        if out.terminal is Terminal.NONE and self.steps >= self.config.max_steps:
            out = StepOutcome(out.next, out.reward, Terminal.MAX_STEPS)
        self.state = out.next
        self.terminal = out.terminal
        return out


@dataclass
class MdpTable:
    """Exhaustive deterministic model of the windless grid MDP.

    ``states`` lists every grid cell in (z, x, y) scan order, so the
    non-terminal (dz > 0) cells follow the ground layer contiguously. They
    are the rows of the (n, 5) transition arrays, in the same order.
    ``kind`` records how each move ends, as ``transition`` classifies it:
    an index into ``TERMINALS``, never MAX_STEPS, which the step budget of
    a rollout decides.
    """

    config: EnvConfig
    shape: tuple[int, int, int]  # cells along (z, x, y)
    states: np.ndarray  # (total, 3) every grid state incl. dz = 0
    nonterminal_indices: np.ndarray  # (n,) indices into states
    next_index: np.ndarray  # (n, 5) index into states of the successor
    next_row: np.ndarray  # (n, 5) row of the successor; -1 when it ends the episode
    rewards: np.ndarray  # (n, 5)
    kind: np.ndarray  # (n, 5) int8 index into TERMINALS; 0 (NONE) where next_row >= 0

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_nonterminal(self) -> int:
        return len(self.nonterminal_indices)

    def row_of(self, state: LanderState) -> int:
        """Row in the transition arrays for a non-terminal grid state."""
        nz, nx, ny = self.shape
        c = self.config
        iz, ix, iy = (
            round((v - lo) / c.resolution)
            for v, lo in ((state.dz, 0.0), (state.dx, c.x_range[0]), (state.dy, c.y_range[0]))
        )
        idx = (iz * nx + ix) * ny + iy
        in_range = 1 <= iz < nz and 0 <= ix < nx and 0 <= iy < ny
        if not in_range or tuple(self.states[idx]) != tuple(state):
            raise ContractViolation(f"{state} is not a non-terminal grid cell")
        return idx - nx * ny


def enumerate_mdp(config: EnvConfig) -> MdpTable:
    """Tabulate (state, action) -> (next, reward, terminal kind); wind must be off.

    Computes every successor with the arithmetic of ``transition`` and
    ``reward``, one action at a time over all non-terminal cells. Every
    successor must be a grid cell, so the ranges must be whole cells of
    ``resolution``.
    """
    if config.wind_probability > 0.0:
        raise ContractViolation("the tabular oracle needs wind disabled")
    xs, ys, zs = (config.axis_values(a) for a in ("x", "y", "z"))
    shape = (len(zs), len(xs), len(ys))
    plane = len(xs) * len(ys)
    grid_z, grid_x, grid_y = np.meshgrid(zs, xs, ys, indexing="ij")
    states = np.stack([grid_x.ravel(), grid_y.ravel(), grid_z.ravel()], axis=1)
    nonterminal = np.arange(plane, len(states))
    if len(nonterminal) == 0:
        raise ContractViolation("the grid has no state above ground level")
    # math.hypot, as LanderState.horizontal_distance uses, per (x, y) column
    dist = np.array([math.hypot(x, y) for x in xs.tolist() for y in ys.tolist()])
    sx, sy, sz = states[nonterminal].T
    s_inside = dist[nonterminal % plane] <= config.landing_zone_radius
    kx, ky, kz = config.k_weights
    r = config.resolution
    (x_lo, x_hi), (y_lo, y_hi) = config.x_range, config.y_range
    running, success, outside, crashed = range(4)  # the first four TERMINALS, in order

    def approach(x, y, z):
        return -100.0 * np.sqrt(kx * x * x + ky * y * y + kz * z * z)

    def altitude(z):
        return -100.0 * np.sqrt(kz * z * z)

    columns = []
    for a in Action:
        ddx, ddy, ddz = _ACTION_DELTAS[a]
        x = sx + ddx * r
        y = sy + ddy * r
        z = sz + ddz * r
        out_of_bounds = ~((x_lo <= x) & (x <= x_hi) & (y_lo <= y) & (y <= y_hi))
        x = np.minimum(np.maximum(x, x_lo), x_hi)
        y = np.minimum(np.maximum(y, y_lo), y_hi)
        z = np.minimum(np.maximum(z, 0.0), config.z_range[1])
        cell = _cell_index(x, y, z, xs, ys, zs, r)
        if (cell < 0).any():
            bad = int(np.argmax(cell < 0))
            raise ContractViolation(
                f"successor {(float(x[bad]), float(y[bad]), float(z[bad]))} is not a grid"
                f" cell; the ranges must be whole cells of resolution {r}"
            )
        n_dist = dist[cell % plane]
        n_inside = n_dist <= config.landing_zone_radius
        touchdown = z <= 0.0
        rew = np.where(
            touchdown,
            np.where(n_inside, 400.0, -200.0 * n_dist),
            np.where(
                s_inside & n_inside,
                altitude(z) - altitude(sz),
                approach(x, y, z) - approach(sx, sy, sz),
            ),
        )
        kind = np.where(touchdown, np.where(n_inside, success, outside), running)
        if config.boundary_mode == "crash":
            rew = np.where(out_of_bounds, -200.0 * n_dist, rew)
            kind = np.where(out_of_bounds, crashed, kind)
        next_row = np.where(kind == running, cell - plane, -1)
        columns.append((cell, next_row, rew, kind.astype(np.int8)))
    next_index, next_row, rewards, kind = (np.stack(c, axis=1) for c in zip(*columns))
    return MdpTable(
        config=config,
        shape=shape,
        states=states,
        nonterminal_indices=nonterminal,
        next_index=next_index,
        next_row=next_row,
        rewards=rewards,
        kind=kind,
    )


def _cell_index(x, y, z, xs, ys, zs, resolution: float) -> np.ndarray:
    """Index into the (z, x, y)-ordered states of each point (x, y, z);
    -1 where the point is not exactly a grid cell."""
    flat = np.zeros(len(x), dtype=np.int64)
    on_grid = np.ones(len(x), dtype=bool)
    for v, axis in ((z, zs), (x, xs), (y, ys)):
        i = np.clip(np.rint((v - axis[0]) / resolution), 0, len(axis) - 1).astype(np.int64)
        flat = flat * len(axis) + i
        on_grid &= axis[i] == v
    return np.where(on_grid, flat, -1)
