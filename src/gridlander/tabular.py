"""Tabular solvers over the enumerated landing MDP.

Value iteration produces the reference optimal policy used to audit the
learned agent. A tabular Q-learning pass applies the classic one-step
update Q <- (1-a) Q + a (r + g max Q') over deterministic exhaustive
sweeps; states are ordered by (altitude, horizontal distance) so value
information propagates backward from the pad within few sweeps.

Every solver reads the table's successor rows directly. The all-starts
success rate steps every eligible start at once on the table, under the
terminal rules of ``policy_rollout``, which follows one start on the live
``transition`` dynamics and is the reference the table rollout is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import Action, LanderState, MdpTable, Terminal, transition


@dataclass
class TabularSolution:
    values: np.ndarray  # (n,) optimal state values over non-terminal rows
    q: np.ndarray  # (n, 5)
    policy: np.ndarray  # (n,) greedy action indices (lowest-index ties)
    sweeps: int


def value_iteration(mdp: MdpTable, gamma: float, tol: float = 1e-9, max_sweeps: int = 200000):
    """Sweep Bellman optimality backups until the sup-norm residual < tol."""
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
    policy = q.argmax(axis=1)
    return TabularSolution(values=values, q=q, policy=policy, sweeps=sweeps)


def policy_evaluation(
    mdp: MdpTable, policy: np.ndarray, gamma: float, tol: float = 1e-12, max_sweeps: int = 200000
) -> np.ndarray:
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


def q_learning(mdp: MdpTable, gamma: float, alpha: float = 0.1, steps: int = 100000) -> np.ndarray:
    """Tabular Q-learning via Q <- (1-a) Q + a (r + g max Q(next)).

    Exploration is an exhaustive deterministic sweep over (state, action)
    pairs, ordered near-to-pad first so each sweep behaves like a damped
    Gauss-Seidel backup.
    """
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


def greedy_agreement(q_learned: np.ndarray, q_optimal: np.ndarray, tol: float = 1e-9) -> float:
    """Fraction of states where the learned greedy action is optimal.

    An action agrees when it attains the optimal Q within tol, so exact
    ties in the optimal table (symmetric states) are not disagreements.
    """
    best = q_optimal.max(axis=1, keepdims=True)
    optimal_set = q_optimal >= best - tol
    picks = q_learned.argmax(axis=1)
    return float(np.mean(optimal_set[np.arange(len(picks)), picks]))


def policy_rollout(
    mdp: MdpTable, policy: np.ndarray, start: LanderState, max_steps: int = 200
):
    """Follow a tabular policy from a start state on the live dynamics.

    Returns (states visited, total reward, terminal kind).
    """
    state = start
    states = [state]
    total = 0.0
    terminal = Terminal.NONE
    for _ in range(max_steps):
        row = mdp.row_of(state)
        out = transition(state, Action(int(policy[row])), mdp.config)
        total += out.reward
        state = out.next
        states.append(state)
        terminal = out.terminal
        if terminal is not Terminal.NONE:
            break
    else:
        terminal = Terminal.MAX_STEPS
    return states, total, terminal


def success_rate_from_all_starts(
    mdp: MdpTable, policy: np.ndarray, min_altitude: float = 2.0
) -> float:
    """Fraction of eligible start cells the policy lands successfully from.

    Every start takes at most ``max_steps`` steps on the table, as in
    ``policy_rollout``; only a LANDED_SUCCESS successor counts.
    """
    rows = np.flatnonzero(mdp.states[mdp.nonterminal_indices, 2] >= min_altitude - 1e-9)
    total = len(rows)
    successes = 0
    for _ in range(mdp.config.max_steps):
        actions = policy[rows]
        successes += int(mdp.landed[rows, actions].sum())
        rows = mdp.next_row[rows, actions]
        rows = rows[rows >= 0]
        if len(rows) == 0:
            break
    return successes / total if total else 0.0
