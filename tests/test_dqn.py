import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridlander.dqn import (
    AdamOptimizer,
    QNET_LAYOUT,
    QNetwork,
    ReplayBatch,
    ReplayBuffer,
    TrainConfig,
    compute_targets,
    epsilon_schedule,
    evaluate,
    evaluate_policy,
    greedy_policy,
    init_qnetwork,
    normalize_state,
    q_values,
    select_action,
    soft_update,
    td_update,
    train,
)
from gridlander.env import Action, EnvConfig, LanderState, Terminal, enumerate_mdp, transition
from gridlander.errors import ContractViolation
from gridlander.nncore import (
    DenseLayer,
    dense_backward,
    dense_forward,
    dense_preactivation,
)
from gridlander.rng import Rng
from gridlander.tabular import (
    evaluate_on_table,
    greedy_agreement,
    policy_rollout,
    q_learning,
    success_rate_from_all_starts,
    value_iteration,
)

from helpers import table_state

ENV = EnvConfig()


def zero_network():
    net = init_qnetwork(0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    return net


def constant_q_network(values):
    """Zero hidden path; the output bias pins the Q-vector."""
    net = zero_network()
    net.layers[-1].bias[:] = np.asarray(values, dtype=np.float32)
    return net


# --- q-values -----------------------------------------------------------------


def test_qnetwork_layout_enforced():
    net = init_qnetwork(1)
    with pytest.raises(ContractViolation):
        QNetwork(net.layers[:-1])


def test_q_values_zero_network():
    q = q_values(zero_network(), LanderState(3, -2, 5), ENV)
    assert q.shape == (5,)
    assert not q.any()


def test_q_values_deterministic():
    net = init_qnetwork(2)
    s = LanderState(1, 2, 3)
    assert np.array_equal(q_values(net, s, ENV), q_values(net, s, ENV))


def test_q_values_match_dense_forward_composition():
    net = init_qnetwork(3)
    s = LanderState(-4, 6, 7)
    h = normalize_state(s, ENV)
    for layer in net.layers[:-1]:
        h = np.maximum(dense_forward(layer, h), 0.0)
    h = dense_forward(net.layers[-1], h)
    assert np.abs(q_values(net, s, ENV) - h).max() < 1e-7


def q_values_dense_chain(net, state, env_cfg):
    """The Q-network forward as it was before q_values shared the TD step's
    batch forward: one mat-vec per layer on the float32 weights, each hidden
    layer's ReLU in float64 before the cast to float32."""
    h = normalize_state(state, env_cfg)
    for i, layer in enumerate(net.layers):
        z = dense_preactivation(layer, h)
        h = (np.maximum(z, 0.0) if i < len(net.layers) - 1 else z).astype(np.float32)
    return h


def perturbed_network(seed):
    """He-initialized weights plus noise on every parameter, biases included."""
    net = init_qnetwork(seed)
    net.flat += np.random.default_rng(seed).normal(0.0, 0.05, net.flat.size).astype(np.float32)
    return net


def dense_chain_mismatches(seeds, env_cfg=ENV):
    """How many (network, state) pairs, over the networks
    ``perturbed_network(seed)`` and every non-terminal cell of ``env_cfg``,
    give q_values that differ in any bit from the per-layer chain."""
    mdp = enumerate_mdp(env_cfg)
    cells = [LanderState(*map(float, row)) for row in mdp.states[mdp.nonterminal_indices]]
    bad = 0
    for seed in seeds:
        net = perturbed_network(seed)
        for s in cells:
            new, old = q_values(net, s, env_cfg), q_values_dense_chain(net, s, env_cfg)
            bad += new.tobytes() != old.tobytes()
    return bad


_OFFSET = st.floats(-6.0, 6.0, allow_nan=False, width=32)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       states=st.lists(st.tuples(_OFFSET, _OFFSET, st.floats(0.0, 8.0, width=32)),
                       min_size=1, max_size=20))
def test_q_values_equal_dense_chain_bitwise(seed, states):
    net = perturbed_network(seed)
    for dx, dy, dz in states:
        s = LanderState(dx, dy, dz)
        new, old = q_values(net, s, ENV), q_values_dense_chain(net, s, ENV)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes(), (seed, s)


def test_q_values_equal_dense_chain_bitwise_one_blas_thread():
    # the BLAS kernel a mat-vec and a one-row GEMM take can depend on the
    # thread count, which is fixed when numpy loads: hence a new process
    code = "import test_dqn; print(test_dqn.dense_chain_mismatches(range(5)))"
    tests_dir = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, cwd=tests_dir,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_normalize_state_scaling():
    v = normalize_state(LanderState(6, -6, 8), ENV)
    assert np.allclose(v, [1.0, -1.0, 1.0])


def test_layers_are_views_of_the_flat_vector():
    net = init_qnetwork(14)
    assert net.flat.dtype == np.float32 and net.flat.size == sum(o * i + o for i, o in QNET_LAYOUT)
    net.layers[2].bias[3] = 7.0
    assert 7.0 in net.flat
    twin = net.clone()
    assert twin.flat.tobytes() == net.flat.tobytes()
    twin.layers[0].weights[0, 0] = 123.0
    assert net.layers[0].weights[0, 0] != 123.0


# --- action selection ------------------------------------------------------------


def test_select_action_greedy_argmax():
    net = constant_q_network([1.0, 5.0, 2.0, 0.0, 3.0])
    a = select_action(net, LanderState(0, 0, 5), 0.0, Rng(0), ENV)
    assert a is Action.BACKWARD  # index 1


def test_select_action_tie_break_lowest_index():
    a = select_action(zero_network(), LanderState(2, 2, 2), 0.0, Rng(0), ENV)
    assert a is Action.FORWARD


def test_select_action_epsilon_one_frequencies():
    rng = Rng(17)
    net = zero_network()
    s = LanderState(0, 0, 5)
    counts = np.zeros(5)
    n = 100_000
    for _ in range(n):
        counts[int(select_action(net, s, 1.0, rng, ENV))] += 1
    freqs = counts / n
    assert np.abs(freqs - 0.2).max() <= 0.01


def test_select_action_epsilon_validation():
    with pytest.raises(ContractViolation):
        select_action(zero_network(), LanderState(0, 0, 5), 1.5, Rng(0), ENV)


# --- targets and updates -----------------------------------------------------------


def _transition(s, a, r, s2, done):
    return LanderState(*s), a, r, LanderState(*s2), done


def _batch(*transitions):
    """A ReplayBatch holding the given (state, action, reward, next, done) rows."""
    states = [normalize_state(t[0], ENV) for t in transitions]
    nexts = [normalize_state(t[3], ENV) for t in transitions]
    return ReplayBatch(
        np.array(states, dtype=np.float32).reshape(-1, 3),
        np.array([int(t[1]) for t in transitions], dtype=np.int64),
        np.array([t[2] for t in transitions], dtype=np.float64),
        np.array(nexts, dtype=np.float32).reshape(-1, 3),
        np.array([0.0 if t[4] else 1.0 for t in transitions]),
    )


def test_targets_terminal_equals_reward():
    batch = _batch(_transition((0, 0, 1), Action.DESCEND, 400.0, (0, 0, 0), True))
    y = compute_targets(init_qnetwork(4), batch, gamma=0.99)
    assert y[0] == 400.0


def test_targets_gamma_zero_equals_reward():
    batch = _batch(
        _transition((1, 1, 3), Action.LEFT, -12.5, (1, 2, 3), False),
        _transition((0, 0, 2), Action.DESCEND, 100.0, (0, 0, 1), False),
    )
    y = compute_targets(init_qnetwork(5), batch, gamma=0.0)
    assert np.allclose(y, [-12.5, 100.0])


def test_targets_hand_built_two_state_mdp():
    # two states A=(1,0,2), B=(1,0,1); target net pinned to a constant Q
    target = constant_q_network([1.0, 2.0, 3.0, 4.0, 5.0])
    gamma = 0.9
    batch = _batch(
        _transition((1, 0, 2), Action.DESCEND, -7.0, (1, 0, 1), False),
        _transition((1, 0, 1), Action.DESCEND, 400.0, (1, 0, 0), True),
    )
    y = compute_targets(target, batch, gamma)
    assert abs(y[0] - (-7.0 + 0.9 * 5.0)) < 1e-6
    assert abs(y[1] - 400.0) < 1e-6


def test_td_update_loss_decreases_on_repeated_batch():
    net = init_qnetwork(6)
    target = net.clone()
    optimizer = AdamOptimizer(net.flat)
    batch = _batch(_transition((2, 0, 3), Action.BACKWARD, 55.0, (1, 0, 3), False))
    losses = [
        td_update(net, target, batch, gamma=0.99, lr=0.001, optimizer=optimizer)
        for _ in range(10)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_td_update_empty_batch_rejected():
    net = init_qnetwork(7)
    with pytest.raises(ContractViolation):
        td_update(net, net.clone(), _batch(), 0.99, 0.001, AdamOptimizer(net.flat))


def test_td_update_numeric_fault_on_nonfinite():
    from gridlander.errors import NumericFault

    net = init_qnetwork(13)
    net.layers[0].weights[0, 0] = np.nan
    batch = _batch(_transition((1, 0, 3), Action.FORWARD, 1.0, (2, 0, 3), False))
    with pytest.raises(NumericFault):
        td_update(net, net.clone(), batch, 0.99, 0.001, AdamOptimizer(net.flat))


def _adam_reference(params, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam step the flat in-place optimizer replaced."""
    b1c = 1.0 - beta1**t
    b2c = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        g32 = g.astype(np.float32)
        m *= beta1
        m += (1.0 - beta1) * g32
        v *= beta2
        v += (1.0 - beta2) * g32 * g32
        p -= (lr / b1c) * m / (np.sqrt(v / b2c) + eps)


_F32 = st.sampled_from([0.0, -0.0, 1.0, -1e-3]) | st.floats(-1e4, 1e4, width=32)


@settings(max_examples=60, deadline=None)
@given(
    params=hnp.arrays(np.float32, st.integers(1, 40), elements=_F32),
    grads_seed=st.integers(0, 2**31 - 1),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    steps=st.integers(1, 4),
    lr=st.sampled_from([1e-3, 0.1, 3.0]),
)
def test_flat_adam_matches_per_tensor_expression_bitwise(params, grads_seed, cuts, steps, lr):
    rng = np.random.default_rng(grads_seed)
    bounds = sorted({0, params.size, *(c for c in cuts if c < params.size)})
    flat = params.copy()
    tensors = [params[a:b].copy() for a, b in zip(bounds, bounds[1:])]
    ms = [np.zeros_like(p) for p in tensors]
    vs = [np.zeros_like(p) for p in tensors]
    opt = AdamOptimizer(flat)
    for t in range(1, steps + 1):
        g = (rng.standard_normal(params.size) * 10.0 ** rng.integers(-4, 3)).astype(np.float32)
        g[rng.random(params.size) < 0.2] = 0.0
        opt.step(flat, g, lr)
        _adam_reference(tensors, [g[a:b] for a, b in zip(bounds, bounds[1:])], ms, vs, t, lr)
    assert flat.tobytes() == np.concatenate(tensors).tobytes()
    assert opt.m.tobytes() == np.concatenate(ms).tobytes()
    assert opt.v.tobytes() == np.concatenate(vs).tobytes()


def _td_update_reference(online, target, rows, gamma, lr, state):
    """The TD step before the flat layout: float32 layers cast inside every
    kernel call, per-tensor Adam (``state`` holds its moments and step)."""
    def forward(layers, x):  # ReLU after every layer but the last, in float64
        inputs, preacts, h = [], [], x
        for i, layer in enumerate(layers):
            inputs.append(h)
            z = dense_preactivation(layer, h)
            preacts.append(z)
            h = (np.maximum(z, 0.0) if i < len(layers) - 1 else z).astype(np.float32)
        return h, inputs, preacts

    own = lambda net: [DenseLayer(l.weights.copy(), l.bias.copy()) for l in net.layers]
    online_layers, target_layers = own(online), own(target)
    x = np.stack([normalize_state(t[0], ENV) for t in rows])
    next_x = np.stack([normalize_state(t[3], ENV) for t in rows])
    next_q, _, _ = forward(target_layers, next_x)
    rewards = np.array([t[2] for t in rows], dtype=np.float64)
    cont = np.array([0.0 if t[4] else 1.0 for t in rows])
    y = rewards + gamma * cont * next_q.max(axis=1).astype(np.float64)
    actions = np.array([int(t[1]) for t in rows])
    q, inputs, preacts = forward(online_layers, x)
    err = q[np.arange(len(rows)), actions].astype(np.float64) - y
    grad_q = np.zeros_like(q, dtype=np.float64)
    grad_q[np.arange(len(rows)), actions] = np.clip(err, -1.0, 1.0) / len(rows)
    grads, g = [], grad_q
    for i in reversed(range(len(online_layers))):
        if i < len(online_layers) - 1:  # d(loss)/d(z) through the ReLU
            g = np.asarray(g, dtype=np.float64) * (preacts[i] > 0.0).astype(np.float64)
        gw, gb, g = dense_backward(online_layers[i], inputs[i], g)
        grads += [gb.astype(np.float32), gw.astype(np.float32)]
        g = g.astype(np.float32)
    grads.reverse()
    params = [p for l in online_layers for p in (l.weights, l.bias)]
    state["t"] += 1
    _adam_reference(params, grads, state["m"], state["v"], state["t"], lr)
    return np.concatenate([p.ravel() for p in params])


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(2, 3))
def test_td_update_matches_per_tensor_reference_bitwise(seed, steps):
    rng = np.random.default_rng(seed)
    cell = lambda: (float(rng.integers(-6, 7)), float(rng.integers(-6, 7)),
                    float(rng.integers(9)))
    online, target = init_qnetwork(seed), init_qnetwork(seed + 1)
    opt = AdamOptimizer(online.flat)
    shapes = [p.shape for l in online.layers for p in (l.weights, l.bias)]
    state = {"t": 0, "m": [np.zeros(s, np.float32) for s in shapes],
             "v": [np.zeros(s, np.float32) for s in shapes]}
    for _ in range(steps):
        rows = [
            _transition(cell(), Action(int(rng.integers(5))), float(rng.normal(0.0, 50.0)),
                        cell(), bool(rng.random() < 0.2))
            for _ in range(8)
        ]
        expected = _td_update_reference(online, target, rows, 0.99, 1e-3, state)
        td_update(online, target, _batch(*rows), 0.99, 1e-3, opt)
        assert online.flat.tobytes() == expected.tobytes()


# --- soft update --------------------------------------------------------------------


def test_soft_update_tau_one_copies():
    online, target = init_qnetwork(8), init_qnetwork(9)
    soft_update(target, online, tau=1.0)
    for t, o in zip(target.layers, online.layers):
        assert np.array_equal(t.weights, o.weights)


def test_soft_update_tau_zero_is_noop():
    online, target = init_qnetwork(10), init_qnetwork(11)
    before = [l.weights.copy() for l in target.layers]
    soft_update(target, online, tau=0.0)
    for b, t in zip(before, target.layers):
        assert np.array_equal(b, t.weights)


def test_soft_update_scalar_arithmetic():
    online, target = zero_network(), zero_network()
    online.layers[0].weights[0, 0] = 1.0
    soft_update(target, online, tau=0.01)
    assert target.layers[0].weights[0, 0] == np.float32(0.01)


def test_soft_update_fixed_point_bitwise():
    online = init_qnetwork(12)
    target = online.clone()
    soft_update(target, online, tau=0.37)
    for t, o in zip(target.layers, online.layers):
        assert np.array_equal(t.weights, o.weights)
        assert np.array_equal(t.bias, o.bias)


def _soft_update_reference(target_layers, online_layers, tau):
    """The per-tensor soft update the flat-vector form replaced."""
    for t_layer, o_layer in zip(target_layers, online_layers):
        if tau == 1.0:
            t_layer.weights[:] = o_layer.weights
            t_layer.bias[:] = o_layer.bias
        else:
            t_layer.weights += np.float32(tau) * (o_layer.weights - t_layer.weights)
            t_layer.bias += np.float32(tau) * (o_layer.bias - t_layer.bias)


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    tau=st.sampled_from([0.0, 1.0, 0.01, 0.5]) | st.floats(0.0, 1.0),
    shared=st.floats(0.0, 1.0),
)
def test_flat_soft_update_matches_per_tensor_expression_bitwise(seeds, tau, shared):
    online, target = init_qnetwork(seeds[0]), init_qnetwork(seeds[1])
    same = np.random.default_rng(seeds[0]).random(online.flat.size) < shared
    target.flat[same] = online.flat[same]  # coinciding entries must stay put
    expected = [DenseLayer(l.weights.copy(), l.bias.copy()) for l in target.layers]
    _soft_update_reference(expected, online.layers, tau)
    soft_update(target, online, tau)
    assert target.flat.tobytes() == b"".join(
        p.tobytes() for l in expected for p in (l.weights, l.bias)
    )


# --- replay buffer -------------------------------------------------------------------


def make_transition(i):
    return _transition((i % 6, 0, 3), Action.FORWARD, float(i), (i % 6, 0, 2), False)


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(4, Rng(0), ENV)
    for i in range(6):
        buf.push(*make_transition(i))
    assert len(buf) == 4
    stored = set(buf.sample(4).reward)
    assert stored == {4.0, 5.0, 2.0, 3.0}


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(100, Rng(1), ENV)
    for i in range(50):
        buf.push(*make_transition(i))
    batch = buf.sample(50)
    assert len(set(batch.reward)) == 50
    with pytest.raises(ContractViolation):
        buf.sample(51)


def test_replay_sampling_uniformity_3_sigma():
    buf = ReplayBuffer(100, Rng(0), ENV)
    for i in range(100):
        buf.push(*make_transition(i))
    counts = np.zeros(100)
    draws, k = 3000, 10
    for _ in range(draws):
        for r in buf.sample(k).reward:
            counts[int(r)] += 1
    expected = draws * k / 100.0
    sigma = np.sqrt(draws * k * (1 / 100) * (99 / 100))
    assert np.abs(counts - expected).max() <= 3 * sigma


class _ListRing:
    """The list-of-transitions replay ring the array rings replaced."""

    def __init__(self, capacity, rng):
        self.capacity, self.rng, self.items, self.cursor = capacity, rng, [], 0

    def push(self, t):
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.cursor] = t
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, k):
        idx = self.rng.sample_without_replacement(len(self.items), k)
        return [self.items[int(i)] for i in idx]


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 9),
    pushes=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
    draws=st.lists(st.integers(1, 9), min_size=1, max_size=5),
)
def test_array_ring_matches_list_ring(capacity, pushes, seed, draws):
    rows = [
        _transition((i % 13 - 6, (3 * i) % 13 - 6, i % 9), Action(i % 5), float(i),
                    ((i + 1) % 13 - 6, i % 13 - 6, (i + 4) % 9), i % 3 == 0)
        for i in range(pushes)
    ]
    buf, ring = ReplayBuffer(capacity, Rng(seed), ENV), _ListRing(capacity, Rng(seed))
    for r in rows:
        buf.push(*r)
        ring.push(r)
    assert len(buf) == len(ring.items) == min(pushes, capacity)
    # the ring keeps exactly the newest min(pushes, capacity) transitions
    newest = [float(i) for i in range(pushes - len(buf), pushes)]
    assert sorted(buf.sample(len(buf)).reward) == newest
    ring.sample(len(buf))
    for k in (d for d in draws if d <= len(buf)):
        got, expected = buf.sample(k), _batch(*ring.sample(k))
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- schedules and training ------------------------------------------------------------


def test_epsilon_schedule_table():
    cfg = TrainConfig()
    assert epsilon_schedule(0, cfg) == 1.0
    assert epsilon_schedule(1, cfg) == pytest.approx(0.995)
    assert epsilon_schedule(180, cfg) == pytest.approx(0.1)
    assert epsilon_schedule(181, cfg) == pytest.approx(0.1)
    assert epsilon_schedule(5000, cfg) == pytest.approx(0.1)


def test_train_config_validation():
    with pytest.raises(ContractViolation):
        TrainConfig(eps_final=0.5, eps_initial=0.1)
    with pytest.raises(ContractViolation):
        TrainConfig(gamma=0.0)
    with pytest.raises(ContractViolation):
        TrainConfig(replay_capacity=8, batch_size=32)


def test_train_deterministic_short_run():
    cfg = TrainConfig(episodes=12)
    r1 = train(ENV, cfg, seed=5)
    r2 = train(ENV, cfg, seed=5)
    assert r1.trace.returns == r2.trace.returns
    assert r1.trace.epsilons == r2.trace.epsilons
    for l1, l2 in zip(r1.network.layers, r2.network.layers):
        assert np.array_equal(l1.weights, l2.weights)
    assert r1.episodes_run == 12 and not r1.stopped_early


def test_train_trace_epsilons_follow_schedule():
    cfg = TrainConfig(episodes=8)
    result = train(ENV, cfg, seed=6)
    assert result.trace.epsilons == [epsilon_schedule(e, cfg) for e in range(8)]


def test_moving_average_window():
    from gridlander.dqn import RewardTrace

    trace = RewardTrace(returns=[1.0, 3.0, 5.0], window=2)
    assert trace.moving_average() == [1.0, 2.0, 4.0]


# --- tabular oracles ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mdp():
    return enumerate_mdp(ENV)


@pytest.fixture(scope="module")
def vi(mdp):
    return value_iteration(mdp, gamma=0.99)


def test_value_iteration_terminal_backup(mdp, vi):
    row = mdp.row_of(LanderState(0.0, 0.0, 1.0))
    assert vi.q[row, Action.DESCEND] == pytest.approx(400.0, abs=1e-9)


def test_value_iteration_gamma_zero_greedy_immediate(mdp):
    sol = value_iteration(mdp, gamma=0.0)
    row = mdp.row_of(LanderState(6.0, 0.0, 5.0))
    rewards = mdp.rewards[row]
    assert sol.q[row] == pytest.approx(rewards)
    assert sol.policy[row] == np.argmax(rewards)


def policy_evaluation(mdp, policy, gamma, tol=1e-12, max_sweeps=200000):
    """Iterative evaluation of a deterministic policy on the table."""
    n = mdp.n_nonterminal
    rows = np.arange(n)
    r_pi = mdp.rewards[rows, policy]
    next_pi = mdp.next_row[rows, policy]
    cont_pi = next_pi >= 0
    values = np.zeros(n, dtype=np.float64)
    for _ in range(max_sweeps):
        new_values = r_pi + gamma * np.where(cont_pi, values[next_pi], 0.0)
        delta = np.abs(new_values - values).max()
        values = new_values
        if delta < tol:
            break
    return values


def test_value_iteration_matches_policy_evaluation(mdp, vi):
    v_pi = policy_evaluation(mdp, vi.policy, gamma=0.99)
    assert np.abs(v_pi - vi.values).max() < 1e-6


def test_optimal_policy_lands_from_everywhere(mdp, vi):
    assert success_rate_from_all_starts(mdp, vi.policy) == 1.0


def test_q_learning_converges_toward_optimal_policy(mdp):
    # the oracle comparison runs at gamma = 0.9: with the damped update and
    # a 1e5-step budget, gamma = 0.99 leaves depth-dependent value shrinkage
    # larger than the tiny action gaps its long horizon produces
    vi90 = value_iteration(mdp, gamma=0.9)
    assert success_rate_from_all_starts(mdp, vi90.policy) == 1.0
    q = q_learning(mdp, gamma=0.9, alpha=0.1, steps=100_000)
    assert greedy_agreement(q, vi90.q) >= 0.95


def test_oracle_tables_match_recorded_digests(mdp):
    # SHA-256 digests recorded from the per-cell loop implementation of the
    # table and the solvers; any change in arithmetic or sweep order shows
    digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
    vi90 = value_iteration(mdp, gamma=0.9)
    assert digest(vi90.q) == "8a3505c3781807cdaa0c73bbc3185dcf947da189080e0745b35918a8ddaa5780"
    q = q_learning(mdp, gamma=0.9, alpha=0.1, steps=100_000)
    assert digest(q) == "dbd840a9e69910b0086e47956dd426e72677eff182b32048e3a745d15307cfee"


def value_iteration_row_major(mdp, gamma, tol=1e-9, max_sweeps=200000):
    """The Jacobi sweep over the (n, 5) table that ``value_iteration`` runs
    action-major."""
    next_rows = mdp.next_row
    cont = next_rows >= 0
    values = np.zeros(mdp.n_nonterminal, dtype=np.float64)
    sweeps = 0
    while sweeps < max_sweeps:
        q = mdp.rewards + gamma * np.where(cont, values[next_rows], 0.0)
        new_values = q.max(axis=1)
        delta = np.abs(new_values - values).max()
        values = new_values
        sweeps += 1
        if delta < tol:
            break
    q = mdp.rewards + gamma * np.where(cont, values[next_rows], 0.0)
    return values, q, q.argmax(axis=1), sweeps


def q_learning_per_cell(mdp, gamma, alpha=0.1, steps=100000):
    """The row-by-row Gauss-Seidel sweep that ``q_learning`` runs wave by wave."""
    x, y, z = mdp.states[mdp.nonterminal_indices].T
    order = np.lexsort((y, x, np.abs(x) + np.abs(y), z)).tolist()
    q = [[0.0] * 5 for _ in order]
    done = 0
    while done < steps and order:
        for i in order:
            q_i = q[i]
            rewards = mdp.rewards[i].tolist()
            next_rows = mdp.next_row[i].tolist()
            for a in range(5):
                j = next_rows[a]
                target = rewards[a] if j < 0 else rewards[a] + gamma * max(q[j])
                q_i[a] = (1.0 - alpha) * q_i[a] + alpha * target
                done += 1
                if done >= steps:
                    return np.array(q, dtype=np.float64).reshape(-1, 5)
    return np.array(q, dtype=np.float64).reshape(-1, 5)


@st.composite
def oracle_grids(draw):
    res = draw(st.sampled_from([0.5, 1.0, 2.0]))
    cells = st.integers(0, 3)  # cells on each side of 0; 0 and 0 is a 1-cell axis
    return EnvConfig(
        x_range=(-draw(cells) * res, draw(cells) * res),
        y_range=(-draw(cells) * res, draw(cells) * res),
        z_range=(0.0, draw(st.integers(1, 4)) * res),
        resolution=res,
        k_weights=draw(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3)),
        landing_zone_radius=draw(st.floats(0.0, 3.0)),
        boundary_mode=draw(st.sampled_from(["clamp", "crash"])),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=oracle_grids(), gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       max_sweeps=st.sampled_from([0, 1, 2, 3, 500]))
def test_value_iteration_equals_row_major_sweep_bitwise(cfg, gamma, max_sweeps):
    # 500 stands in for the default: at gamma = 1 a grid with a reward cycle
    # never converges (a radius of a diagonal cell or more, or unequal kx, ky)
    mdp = enumerate_mdp(cfg)
    values, q, policy, sweeps = value_iteration_row_major(mdp, gamma, max_sweeps=max_sweeps)
    sol = value_iteration(mdp, gamma, max_sweeps=max_sweeps)
    assert sol.sweeps == sweeps
    for got, expected in ((sol.values, values), (sol.q, q), (sol.policy, policy)):
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    cfg=oracle_grids(),
    gamma=st.sampled_from([0.0, 0.9, 1.0]),
    alpha=st.sampled_from([0.1, 1.0]),
    # steps = int(per_row * n) + extra: none, a few, one sweep +-, or up to 40n
    budget=st.one_of(
        st.sampled_from([(0, -3), (0, 0), (0, 1), (0, 4), (5, -1), (5, 0), (5, 3)]),
        st.tuples(st.floats(0.0, 40.0), st.just(1)),
    ),
)
def test_q_learning_equals_per_cell_sweep_bitwise(cfg, gamma, alpha, budget):
    mdp = enumerate_mdp(cfg)
    per_row, extra = budget
    steps = int(per_row * mdp.n_nonterminal) + extra
    expected = q_learning_per_cell(mdp, gamma, alpha, steps)
    q = q_learning(mdp, gamma, alpha, steps)
    assert q.shape == expected.shape and q.flags.c_contiguous
    assert q.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(cfg=oracle_grids(), seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.9, 1.0]),
       sweeps=st.floats(0.0, 6.0))
def test_q_learning_equals_per_cell_sweep_on_random_tables(cfg, seed, gamma, sweeps):
    # On a grid every later successor lies in a later wave, because the way
    # back is an earlier successor. Random successors break that, so rows
    # read later successors that an earlier wave of this sweep has updated.
    mdp = enumerate_mdp(cfg)
    n = mdp.n_nonterminal
    rng = np.random.default_rng(seed)
    next_row = rng.integers(-1, n, (n, 5))
    next_row = np.where(rng.random((n, 5)) < 0.1, np.arange(n)[:, None], next_row)
    mdp = dataclasses.replace(mdp, next_row=next_row, rewards=rng.normal(0.0, 100.0, (n, 5)))
    steps = int(sweeps * 5 * n) + 1
    expected = q_learning_per_cell(mdp, gamma, 0.3, steps)
    assert q_learning(mdp, gamma, 0.3, steps).tobytes() == expected.tobytes()


@pytest.mark.parametrize("boundary_mode", ["clamp", "crash"])
def test_q_learning_equals_per_cell_sweep_on_benchmark_grid(boundary_mode):
    # 25x25x17 cells: 40 waves, and self-loops along every wall under clamp
    cfg = EnvConfig(x_range=(-12.0, 12.0), y_range=(-12.0, 12.0), z_range=(0.0, 16.0),
                    boundary_mode=boundary_mode)
    mdp = enumerate_mdp(cfg)
    steps = 2 * 5 * mdp.n_nonterminal + 7
    expected = q_learning_per_cell(mdp, 0.9, 0.1, steps)
    assert q_learning(mdp, 0.9, 0.1, steps).tobytes() == expected.tobytes()


def test_success_rate_needs_an_eligible_start():
    mdp = enumerate_mdp(EnvConfig(z_range=(0.0, 1.0)))
    with pytest.raises(ContractViolation, match="no eligible start altitudes"):
        success_rate_from_all_starts(mdp, np.zeros(mdp.n_nonterminal, dtype=np.int64))


def policy_rollout_by_transition(mdp, policy, start):
    """Reference: the policy followed over ``transition`` directly, with the
    step budget counted here rather than by ``LandingEnv``."""
    state, states, total = start, [start], 0.0
    for _ in range(mdp.config.max_steps):
        out = transition(state, Action(int(policy[mdp.row_of(state)])), mdp.config)
        total += out.reward
        state = out.next
        states.append(state)
        if out.terminal is not Terminal.NONE:
            return states, total, out.terminal
    return states, total, Terminal.MAX_STEPS


@pytest.mark.parametrize("boundary_mode", ["clamp", "crash"])
def test_policy_rollout_returns_what_its_own_loop_returned(boundary_mode):
    mdp = enumerate_mdp(EnvConfig(x_range=(-2.0, 2.0), y_range=(-2.0, 2.0), z_range=(0.0, 4.0),
                                  max_steps=5, boundary_mode=boundary_mode))
    rng = Rng(3)
    random_policy = np.array([int(rng.integers(5)) for _ in range(mdp.n_nonterminal)])
    for policy in (value_iteration(mdp, gamma=0.9).policy, random_policy):
        for i in mdp.nonterminal_indices:
            start = table_state(mdp, int(i))
            assert policy_rollout(mdp, policy, start) == policy_rollout_by_transition(mdp, policy, start)


@pytest.mark.parametrize("boundary_mode", ["clamp", "crash"])
def test_table_rollout_matches_live_rollouts(boundary_mode):
    cfg = EnvConfig(
        x_range=(-3.0, 3.0), y_range=(-3.0, 3.0), z_range=(0.0, 5.0),
        max_steps=8, boundary_mode=boundary_mode,
    )
    mdp = enumerate_mdp(cfg)
    rng = Rng(5)
    random_policy = np.array([int(rng.integers(5)) for _ in range(mdp.n_nonterminal)])
    seen = set()
    for policy in (value_iteration(mdp, gamma=0.9).policy, random_policy):
        for min_altitude in (1.0, 2.0):
            starts = [table_state(mdp, int(i)) for i in mdp.nonterminal_indices]
            kinds = [
                policy_rollout(mdp, policy, s)[2]
                for s in starts
                if s.dz >= min_altitude
            ]
            seen.update(kinds)
            expected = kinds.count(Terminal.LANDED_SUCCESS) / len(kinds)
            assert success_rate_from_all_starts(mdp, policy, min_altitude) == expected
    expected_kinds = {Terminal.LANDED_SUCCESS, Terminal.LANDED_OUTSIDE, Terminal.MAX_STEPS}
    if boundary_mode == "crash":
        expected_kinds.add(Terminal.OUT_OF_BOUNDS)
    assert expected_kinds <= seen


def test_table_evaluation_matches_live_rollouts():
    seen = set()
    for boundary_mode in ("clamp", "crash"):
        for max_steps in (1, 8):
            cfg = EnvConfig(
                x_range=(-3.0, 3.0), y_range=(-3.0, 3.0), z_range=(0.0, 5.0),
                max_steps=max_steps, boundary_mode=boundary_mode,
            )
            mdp = enumerate_mdp(cfg)
            rng = Rng(5)
            random_policy = np.array([int(rng.integers(5)) for _ in range(mdp.n_nonterminal)])
            for policy in (value_iteration(mdp, gamma=0.9).policy, random_policy):
                live_policy = lambda s: Action(int(policy[mdp.row_of(s)]))
                for seed in range(4):
                    table = evaluate_on_table(mdp, policy, 40, seed)
                    live = evaluate_policy(live_policy, cfg, 40, seed)
                    # every field, every step: a float's repr round-trips its bits,
                    # tells -0.0 from 0.0, and compares a nan deviation
                    assert repr(table) == repr(live)
                    seen.update(step.terminal for log in table.traces for step in log.steps)
    assert seen == set(Terminal)


def test_negative_zero_range_bounds_give_identical_table_and_live_traces():
    cfg = EnvConfig(x_range=(-2.0, -0.0), y_range=(-0.0, 2.0), z_range=(0.0, 4.0), max_steps=8)
    assert repr(cfg.x_range) == "(-2.0, 0.0)" and repr(cfg.y_range) == "(0.0, 2.0)"
    mdp = enumerate_mdp(cfg)
    rng = Rng(5)
    policy = np.array([int(rng.integers(5)) for _ in range(mdp.n_nonterminal)])
    table = evaluate_on_table(mdp, policy, 40, 0)
    live = evaluate_policy(lambda s: Action(int(policy[mdp.row_of(s)])), cfg, 40, 0)
    assert repr(table) == repr(live)  # repr tells -0.0 from 0.0
    assert "-0.0" not in repr(live)


def test_greedy_agreement_counts_ties_as_agreement():
    q_opt = np.array([[1.0, 1.0, 0.0]])
    assert greedy_agreement(np.array([[0.0, 5.0, 1.0]]), q_opt) == 1.0
    assert greedy_agreement(np.array([[0.0, 0.0, 5.0]]), q_opt) == 0.0


# --- evaluation -------------------------------------------------------------------------


def test_evaluate_zero_network_reproducible():
    net = zero_network()
    a = evaluate(net, ENV, episodes=10, seed=3)
    b = evaluate(net, ENV, episodes=10, seed=3)
    assert a.success_rate == b.success_rate
    assert a.mean_return == b.mean_return
    assert [t.total_reward for t in a.traces] == [t.total_reward for t in b.traces]


def test_evaluate_oracle_policy_succeeds(mdp, vi):
    policy = lambda s: Action(int(vi.policy[mdp.row_of(s)]))
    result = evaluate_policy(policy, ENV, episodes=25, seed=4)
    assert result.success_rate == 1.0
    assert result.mean_final_deviation_m <= ENV.landing_zone_radius


def test_evaluate_requires_episodes():
    with pytest.raises(ContractViolation):
        evaluate(zero_network(), ENV, episodes=0, seed=0)
