import hashlib

import numpy as np
import pytest

from gridlander.dqn import (
    AdamOptimizer,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    Transition,
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
from gridlander.env import Action, EnvConfig, LanderState, Terminal, enumerate_mdp
from gridlander.errors import ContractViolation
from gridlander.nncore import DenseLayer, dense_forward
from gridlander.rng import Rng
from gridlander.tabular import (
    greedy_agreement,
    policy_evaluation,
    policy_rollout,
    q_learning,
    success_rate_from_all_starts,
    value_iteration,
)

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
    for layer in net.layers:
        h = dense_forward(layer, h)
    assert np.abs(q_values(net, s, ENV) - h).max() < 1e-7


def test_normalize_state_scaling():
    v = normalize_state(LanderState(6, -6, 8), ENV)
    assert np.allclose(v, [1.0, -1.0, 1.0])


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
    return Transition(LanderState(*s), a, r, LanderState(*s2), done)


def test_targets_terminal_equals_reward():
    batch = [_transition((0, 0, 1), Action.DESCEND, 400.0, (0, 0, 0), True)]
    y = compute_targets(init_qnetwork(4), batch, gamma=0.99, env_cfg=ENV)
    assert y[0] == 400.0


def test_targets_gamma_zero_equals_reward():
    batch = [
        _transition((1, 1, 3), Action.LEFT, -12.5, (1, 2, 3), False),
        _transition((0, 0, 2), Action.DESCEND, 100.0, (0, 0, 1), False),
    ]
    y = compute_targets(init_qnetwork(5), batch, gamma=0.0, env_cfg=ENV)
    assert np.allclose(y, [-12.5, 100.0])


def test_targets_hand_built_two_state_mdp():
    # two states A=(1,0,2), B=(1,0,1); target net pinned to a constant Q
    target = constant_q_network([1.0, 2.0, 3.0, 4.0, 5.0])
    gamma = 0.9
    batch = [
        _transition((1, 0, 2), Action.DESCEND, -7.0, (1, 0, 1), False),
        _transition((1, 0, 1), Action.DESCEND, 400.0, (1, 0, 0), True),
    ]
    y = compute_targets(target, batch, gamma, ENV)
    assert abs(y[0] - (-7.0 + 0.9 * 5.0)) < 1e-6
    assert abs(y[1] - 400.0) < 1e-6


def test_td_update_loss_decreases_on_repeated_batch():
    net = init_qnetwork(6)
    target = net.clone()
    optimizer = AdamOptimizer(net.parameters())
    batch = [_transition((2, 0, 3), Action.BACKWARD, 55.0, (1, 0, 3), False)]
    losses = [
        td_update(net, target, batch, gamma=0.99, lr=0.001, optimizer=optimizer, env_cfg=ENV)
        for _ in range(10)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_td_update_empty_batch_rejected():
    net = init_qnetwork(7)
    with pytest.raises(ContractViolation):
        td_update(net, net.clone(), [], 0.99, 0.001, AdamOptimizer(net.parameters()), ENV)


def test_td_update_numeric_fault_on_nonfinite():
    from gridlander.errors import NumericFault

    net = init_qnetwork(13)
    net.layers[0].weights[0, 0] = np.nan
    batch = [_transition((1, 0, 3), Action.FORWARD, 1.0, (2, 0, 3), False)]
    with pytest.raises(NumericFault):
        td_update(net, net.clone(), batch, 0.99, 0.001, AdamOptimizer(net.parameters()), ENV)


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


# --- replay buffer -------------------------------------------------------------------


def make_transition(i):
    return _transition((i % 6, 0, 3), Action.FORWARD, float(i), (i % 6, 0, 2), False)


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(4, Rng(0))
    for i in range(6):
        buf.push(make_transition(i))
    assert len(buf) == 4
    stored = {t.reward for t in buf._items}
    assert stored == {4.0, 5.0, 2.0, 3.0}


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(100, Rng(1))
    for i in range(50):
        buf.push(make_transition(i))
    batch = buf.sample(50)
    assert len({t.reward for t in batch}) == 50
    with pytest.raises(ContractViolation):
        buf.sample(51)


def test_replay_sampling_uniformity_3_sigma():
    buf = ReplayBuffer(100, Rng(0))
    for i in range(100):
        buf.push(make_transition(i))
    counts = np.zeros(100)
    draws, k = 3000, 10
    for _ in range(draws):
        for t in buf.sample(k):
            counts[int(t.reward)] += 1
    expected = draws * k / 100.0
    sigma = np.sqrt(draws * k * (1 / 100) * (99 / 100))
    assert np.abs(counts - expected).max() <= 3 * sigma


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
            starts = [mdp.state(int(i)) for i in mdp.nonterminal_indices]
            kinds = [
                policy_rollout(mdp, policy, s, cfg.max_steps)[2]
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
