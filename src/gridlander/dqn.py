"""Deep Q-learning landing agent.

The Q-network maps a normalized (dx, dy, dz) offset to five action values
through fully connected layers 3 -> 256 -> 256 -> 128 -> 5 (ReLU hidden,
linear output). Training follows the standard recipe: epsilon-greedy
rollouts into a uniform replay buffer, one Huber TD step per environment
step once the buffer holds a batch, a soft-updated target network, and a
per-episode epsilon decay. Training stops early when both the minimum and
the mean return over a trailing window clear their thresholds.

Layout: a network's layers are views into one float32 vector
(``QNetwork.flat``), so Adam and the soft update are in-place vector
operations and a TD step casts each network to float64 once. Replay keeps
normalized states, actions, rewards and continue flags in preallocated
arrays and samples them as a ``ReplayBatch``.

Determinism: a single seed derives independent substreams for weight
initialization, environment resets/wind, exploration, and replay sampling,
so a run is a pure function of (configs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .env import (
    Action,
    EnvConfig,
    LanderState,
    LandingEnv,
    Terminal,
    _is_finite,
)
from .errors import ContractViolation, NumericFault
from .nncore import (
    DenseLayer,
    dense_backward,
    dense_forward,  # unused here; perfbench/tracer.py wraps dqn.dense_forward by name
    dense_preactivation,
)
from .rng import Rng

# (in, out) of each dense layer; ReLU after every layer but the last
QNET_LAYOUT = ((3, 256), (256, 256), (256, 128), (128, 5))


def _dense_views(flat: np.ndarray) -> list[DenseLayer]:
    """Layers over (out,in)/(out,) views of a flat vector, in QNET_LAYOUT order."""
    layers, pos = [], 0
    for in_dim, out_dim in QNET_LAYOUT:
        end = pos + out_dim * in_dim
        w, b = flat[pos:end].reshape(out_dim, in_dim), flat[end : end + out_dim]
        layers.append(DenseLayer(w, b))
        pos = end + out_dim
    return layers


class QNetwork:
    """The Q-network; ``layers`` are views into the float32 vector ``flat``."""

    def __init__(self, layers: list[DenseLayer]) -> None:
        found = tuple((l.in_dim, l.out_dim) for l in layers)
        if found != QNET_LAYOUT:
            raise ContractViolation(f"q-network layout {found} != required {QNET_LAYOUT}")
        parts = [p.ravel() for l in layers for p in (l.weights, l.bias)]
        self.flat = np.concatenate(parts).astype(np.float32, copy=False)
        self.layers = _dense_views(self.flat)
        self._flat64: Optional[np.ndarray] = None

    def clone(self) -> "QNetwork":
        return QNetwork(self.layers)  # one concatenate: a single copy of flat

    def float64_layers(self) -> list[DenseLayer]:
        """The layers over a float64 copy of ``flat``, refreshed in place and
        handed out again by the next call. One reused buffer, not a fresh
        0.8 MB cast per TD step: those page-faulted on every step."""
        if self._flat64 is None:
            self._flat64 = np.empty(self.flat.size)
            self._layers64 = _dense_views(self._flat64)
        self._flat64[:] = self.flat
        return self._layers64


def empty_qnetwork() -> QNetwork:
    """A Q-network with uninitialized parameters, for a loader to fill in place."""
    return QNetwork(_dense_views(np.empty(sum(o * i + o for i, o in QNET_LAYOUT), np.float32)))


def init_qnetwork(seed: int) -> QNetwork:
    """He-initialized weights, zero biases; deterministic under seed."""
    rng = Rng(seed)
    layers = []
    for in_dim, out_dim in QNET_LAYOUT:
        std = math.sqrt(2.0 / in_dim)
        w = rng.normal(size=(out_dim, in_dim), std=std).astype(np.float32)
        layers.append(DenseLayer(w, np.zeros(out_dim, dtype=np.float32)))
    return QNetwork(layers)


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 5000
    eps_initial: float = 1.0
    eps_final: float = 0.1
    eps_decrement: float = 0.005
    gamma: float = 0.99
    learning_rate: float = 0.001
    tau: float = 0.01
    batch_size: int = 32
    replay_capacity: int = 50000
    stop_window: int = 100
    stop_mean_threshold: float = 350.0
    stop_min_threshold: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not _is_finite(getattr(self, f.name)):
                raise ContractViolation(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not 0.0 <= self.eps_final <= self.eps_initial <= 1.0:
            raise ContractViolation("need 0 <= eps_final <= eps_initial <= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ContractViolation("gamma must lie in (0,1]")
        if not 0.0 < self.tau <= 1.0:
            raise ContractViolation("tau must lie in (0,1]")
        if self.episodes < 1 or self.batch_size < 1:
            raise ContractViolation("episodes and batch_size must be positive")
        if self.replay_capacity < self.batch_size:
            raise ContractViolation("replay capacity smaller than one batch")
        if self.replay_capacity >= 2**53:  # the bound EnvConfig puts on cells per axis
            raise ContractViolation("replay_capacity must lie below 2**53")
        if self.learning_rate <= 0.0:
            raise ContractViolation("learning_rate must be positive")
        if self.eps_decrement < 0.0:
            raise ContractViolation("eps_decrement must be non-negative")
        if self.stop_window < 1:
            raise ContractViolation("stop_window must be at least 1")


def epsilon_schedule(completed_episodes: int, cfg: TrainConfig) -> float:
    """epsilon(e) = max(final, initial - e * decrement) after e episodes."""
    return max(cfg.eps_final, cfg.eps_initial - completed_episodes * cfg.eps_decrement)


class ReplayBatch(NamedTuple):
    """Rows of transitions with states already normalized."""

    state: np.ndarray  # (n, 3) float32
    action: np.ndarray  # (n,) int64
    reward: np.ndarray  # (n,) float64
    next_state: np.ndarray  # (n, 3) float32
    cont: np.ndarray  # (n,) float64: 0.0 on a true MDP terminal (not a step-budget cutoff)


class ReplayBuffer:
    """Fixed-capacity ring with uniform without-replacement batch sampling."""

    def __init__(self, capacity: int, rng: Rng, env_cfg: EnvConfig) -> None:
        if capacity < 1:
            raise ContractViolation("capacity must be positive")
        self.capacity, self.rng, self.env_cfg = capacity, rng, env_cfg
        # np.zeros leaves untouched pages uncommitted until the ring reaches them
        self._rings = ReplayBatch(
            np.zeros((capacity, 3), np.float32),
            np.zeros(capacity, np.int64),
            np.zeros(capacity),
            np.zeros((capacity, 3), np.float32),
            np.zeros(capacity),
        )
        self._size = self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self, state: LanderState, action: Action, reward: float, next_state: LanderState, done: bool
    ) -> None:
        i, r = self._cursor, self._rings
        r.state[i] = normalize_state(state, self.env_cfg)
        r.action[i] = int(action)
        r.reward[i] = reward
        r.next_state[i] = normalize_state(next_state, self.env_cfg)
        r.cont[i] = 0.0 if done else 1.0
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> ReplayBatch:
        if batch_size > self._size:
            raise ContractViolation("not enough stored transitions to sample")
        idx = self.rng.sample_without_replacement(self._size, batch_size)
        return ReplayBatch(*(ring[idx] for ring in self._rings))


def check_q_network_env(env_cfg: EnvConfig) -> None:
    """Reject an env the Q-network cannot run on: ``normalize_state``
    divides by each range's upper bound, and episodes need a start cell."""
    for name in ("x_range", "y_range", "z_range"):
        if getattr(env_cfg, name)[1] == 0:
            raise ContractViolation(f"{name} ends at 0, and the Q-network's input divides by it")
    if not env_cfg.start_axes[2]:
        raise ContractViolation("no eligible start altitudes")


def normalize_state(state: LanderState, env_cfg: EnvConfig) -> np.ndarray:
    """Scale offsets by the grid extents before the network sees them."""
    return np.array(
        [
            state.dx / env_cfg.x_range[1],
            state.dy / env_cfg.y_range[1],
            state.dz / env_cfg.z_range[1],
        ],
        dtype=np.float32,
    )


def _forward_batch(layers: list[DenseLayer], h: np.ndarray):
    """Q-values for a (batch, 3) matrix plus per-layer inputs and cached
    preactivations for backprop. The ReLU between layers runs in float64,
    before the cast to float32."""
    inputs, preacts = [], []
    for i, layer in enumerate(layers):
        if i:
            h = np.maximum(z, 0.0).astype(np.float32)
        inputs.append(h)
        z = dense_preactivation(layer, h)
        preacts.append(z)
    return z.astype(np.float32), inputs, preacts


def q_values(net: QNetwork, state: LanderState, env_cfg: EnvConfig) -> np.ndarray:
    """Five action values in Action enum order, through the TD step's forward."""
    q, _, _ = _forward_batch(net.float64_layers(), normalize_state(state, env_cfg)[None])
    return q[0]


def select_action(
    net: QNetwork, state: LanderState, epsilon: float, rng: Rng, env_cfg: EnvConfig
) -> Action:
    """Epsilon-greedy with lowest-index tie-breaking on the greedy branch."""
    if not 0.0 <= epsilon <= 1.0:
        raise ContractViolation("epsilon must lie in [0,1]")
    if epsilon > 0.0 and rng.uniform() < epsilon:
        return Action(int(rng.integers(5)))
    return Action(int(np.argmax(q_values(net, state, env_cfg))))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class AdamOptimizer:
    """Adam with bias correction over one float32 parameter vector.

    ``grad`` is the buffer ``td_update`` fills; the moments and the update
    are computed in place, in the order of the textbook expression.
    """

    def __init__(self, params: np.ndarray) -> None:
        self.m, self.v, self.grad, self._tmp, self._den = (np.zeros_like(params) for _ in range(5))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1**self.t
        b2c = 1.0 - _BETA2**self.t
        m, v, tmp, den = self.m, self.v, self._tmp, self._den
        m *= _BETA1
        np.multiply(grads, 1.0 - _BETA1, out=tmp)
        m += tmp
        v *= _BETA2
        np.multiply(grads, 1.0 - _BETA2, out=tmp)
        tmp *= grads
        v += tmp
        # p -= (lr / b1c) * m / (sqrt(v / b2c) + eps)
        np.multiply(m, lr / b1c, out=tmp)
        np.divide(v, b2c, out=den)
        np.sqrt(den, out=den)
        den += _EPS
        tmp /= den
        params -= tmp


def compute_targets(target_net: QNetwork, batch: ReplayBatch, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'), or y = r on terminal moves."""
    next_q, _, _ = _forward_batch(target_net.float64_layers(), batch.next_state)
    best = next_q.max(axis=1).astype(np.float64)
    return batch.reward + gamma * batch.cont * best


def td_update(
    online: QNetwork,
    target: QNetwork,
    batch: ReplayBatch,
    gamma: float,
    lr: float,
    optimizer: AdamOptimizer,
) -> float:
    """One Huber (delta=1) gradient step on the taken-action Q-values.

    Returns the mean loss over the batch; raises NumericFault on
    non-finite values.
    """
    n = len(batch.action)
    if n == 0:
        raise ContractViolation("td_update needs a non-empty batch")
    y = compute_targets(target, batch, gamma)
    layers = online.float64_layers()
    q, inputs, preacts = _forward_batch(layers, batch.state)
    rows = np.arange(n)
    err = q[rows, batch.action].astype(np.float64) - y
    abs_err = np.abs(err)
    losses = np.where(abs_err <= 1.0, 0.5 * err * err, abs_err - 0.5)
    loss = float(losses.mean())
    if not math.isfinite(loss):
        raise NumericFault(f"non-finite TD loss; |q|max={np.abs(q).max():.3g}")

    g = np.zeros_like(q, dtype=np.float64)
    g[rows, batch.action] = np.clip(err, -1.0, 1.0) / n
    grad_layers = _dense_views(optimizer.grad)
    for i in reversed(range(len(layers))):
        gw, gb, g = dense_backward(layers[i], inputs[i], g)
        grad_layers[i].weights[...] = gw  # float32 rounding, as in a float32 backward
        grad_layers[i].bias[...] = gb
        if i:  # float32 rounding, then back through the ReLU below this layer
            g = g.astype(np.float32).astype(np.float64) * (preacts[i - 1] > 0)
    optimizer.step(online.flat, optimizer.grad, lr)
    return loss


def soft_update(target: QNetwork, online: QNetwork, tau: float) -> None:
    """theta_target += tau * (theta_online - theta_target), in place.

    The incremental form keeps target bitwise unchanged when the networks
    already coincide; tau = 1 short-circuits to an exact copy.
    """
    if not 0.0 <= tau <= 1.0:
        raise ContractViolation("tau must lie in [0,1]")
    if tau == 1.0:
        target.flat[:] = online.flat
        return
    tmp = online.flat - target.flat
    tmp *= np.float32(tau)
    target.flat += tmp


@dataclass
class RewardTrace:
    """Per-episode returns with the window-100 moving average."""

    returns: list[float] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    window: int = 100

    def moving_average(self) -> list[float]:
        out = []
        acc = 0.0
        for i, r in enumerate(self.returns):
            acc += r
            if i >= self.window:
                acc -= self.returns[i - self.window]
            out.append(acc / min(i + 1, self.window))
        return out


@dataclass
class TrainResult:
    network: QNetwork
    trace: RewardTrace
    episodes_run: int
    stopped_early: bool


_DIVERGENCE_LIMIT = 1e6


def train(env_cfg: EnvConfig, cfg: TrainConfig, seed: int) -> TrainResult:
    """Full training loop; deterministic under (configs, seed)."""
    master = Rng(seed)
    online = init_qnetwork(master.derive(0).seed)
    target = online.clone()
    env = LandingEnv(env_cfg, master.derive(1))
    action_rng = master.derive(2)
    buffer = ReplayBuffer(cfg.replay_capacity, master.derive(3), env_cfg)
    optimizer = AdamOptimizer(online.flat)
    trace = RewardTrace()

    stopped_early = False
    episodes_run = 0
    for episode in range(cfg.episodes):
        eps = epsilon_schedule(episode, cfg)
        state = env.reset()
        ep_return = 0.0
        while True:
            action = select_action(online, state, eps, action_rng, env_cfg)
            out = env.step(action)
            done = out.terminal not in (Terminal.NONE, Terminal.MAX_STEPS)
            buffer.push(state, action, out.reward, out.next, done)
            ep_return += out.reward
            state = out.next
            if len(buffer) >= cfg.batch_size:
                td_update(online, target, buffer.sample(cfg.batch_size), cfg.gamma,
                          cfg.learning_rate, optimizer)
                soft_update(target, online, cfg.tau)
            if out.terminal is not Terminal.NONE:
                break
        episodes_run = episode + 1
        trace.returns.append(ep_return)
        trace.epsilons.append(eps)

        q_probe = q_values(online, state, env_cfg)
        if np.abs(q_probe).mean() > _DIVERGENCE_LIMIT:
            raise NumericFault("q-values diverged beyond 1e6")

        if episodes_run >= cfg.stop_window:
            tail = trace.returns[-cfg.stop_window :]
            if min(tail) > cfg.stop_min_threshold and np.mean(tail) > cfg.stop_mean_threshold:
                stopped_early = True
                break
    return TrainResult(online, trace, episodes_run, stopped_early)


@dataclass
class EpisodeStep:
    index: int
    state: LanderState
    action: Action
    reward: float
    terminal: Terminal


@dataclass
class EpisodeLog:
    start: LanderState
    steps: list[EpisodeStep]
    total_reward: float
    terminal: Terminal

    @property
    def final_state(self) -> LanderState:
        return self.steps[-1].state if self.steps else self.start


@dataclass
class EvalResult:
    success_rate: float
    mean_return: float
    mean_final_deviation_m: float  # over episodes that touched down; nan if none
    traces: list[EpisodeLog]


PolicyFn = Callable[[LanderState], Action]


def greedy_policy(net: QNetwork, env_cfg: EnvConfig) -> PolicyFn:
    return lambda s: Action(int(np.argmax(q_values(net, s, env_cfg))))


def rollout(policy: PolicyFn, env: LandingEnv, start: Optional[LanderState] = None) -> EpisodeLog:
    state = env.reset(start)
    first = state
    steps: list[EpisodeStep] = []
    total = 0.0
    while env.terminal is Terminal.NONE:
        action = policy(state)
        out = env.step(action)
        steps.append(EpisodeStep(len(steps), out.next, action, out.reward, out.terminal))
        total += out.reward
        state = out.next
    return EpisodeLog(first, steps, total, env.terminal)


def evaluate_policy(
    policy: PolicyFn, env_cfg: EnvConfig, episodes: int, seed: int
) -> EvalResult:
    """Greedy rollouts from seeded random starts."""
    if episodes < 1:
        raise ContractViolation("evaluation needs at least one episode")
    env = LandingEnv(env_cfg, Rng(seed).derive(1))
    return summarize_episodes([rollout(policy, env) for _ in range(episodes)])


def summarize_episodes(logs: list[EpisodeLog]) -> EvalResult:
    """Success rate, mean return and mean touchdown deviation of the episodes."""
    successes = sum(1 for l in logs if l.terminal is Terminal.LANDED_SUCCESS)
    deviations = [
        l.final_state.horizontal_distance()
        for l in logs
        if l.terminal in (Terminal.LANDED_SUCCESS, Terminal.LANDED_OUTSIDE)
    ]
    return EvalResult(
        success_rate=successes / len(logs),
        mean_return=float(np.mean([l.total_reward for l in logs])),
        mean_final_deviation_m=float(np.mean(deviations)) if deviations else float("nan"),
        traces=logs,
    )


def evaluate(net: QNetwork, env_cfg: EnvConfig, episodes: int, seed: int) -> EvalResult:
    """Evaluate the network's greedy policy (epsilon = 0)."""
    return evaluate_policy(greedy_policy(net, env_cfg), env_cfg, episodes, seed)
