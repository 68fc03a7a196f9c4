"""Tabular solvers over the enumerated landing MDP.

Value iteration produces the reference optimal policy used to audit the
learned agent. A tabular Q-learning pass applies the classic one-step
update Q <- (1-a) Q + a (r + g max Q') over deterministic exhaustive
sweeps; states are ordered by (altitude, horizontal distance) so value
information propagates backward from the pad within few sweeps. Each
sweep runs as one vector update per wave of rows and action, bit for bit
the row-by-row Gauss-Seidel sweep (see ``q_learning``).

Every solver reads the table's successor rows directly. The all-starts
success rate steps every eligible start at once on the table, under the
terminal rules of ``policy_rollout``, which follows one start on the live
``transition`` dynamics and is the reference the table rollout is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import Action, LanderState, MdpTable, Terminal, transition
from .errors import ContractViolation


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
    """Tabular Q-learning via Q <- (1-a) Q + a (r + g max Q(next)), g in [0, 1].

    Exploration is an exhaustive deterministic sweep over (state, action)
    pairs, ordered near-to-pad first so each sweep behaves like a damped
    Gauss-Seidel backup: rows in sweep order, actions 0..4 within a row,
    ``steps`` updates in all. A successor earlier in the order is read as
    this sweep left it, a later one as the previous sweep left it, and a
    self-loop (a clamped move into a wall) as the row's partly updated
    self.

    The sweep runs one wave at a time (see ``_waves``): no row reads what
    another row of its wave writes, so each wave takes actions 0..4 in
    turn and updates that column for all its rows at once. Earlier
    successors and self-loops read the live table, later successors a
    copy of the row maxima taken as the sweep starts, and terminal moves
    take r. Every update is the same float64 operations on the same
    operands as in a row-by-row sweep, so the table is bit-identical.
    """
    n = mdp.n_nonterminal
    if n == 0 or steps <= 0:  # divmod(-3, 5 * n) leaves a remainder of 5 * n - 3
        return np.zeros((n, 5), dtype=np.float64)
    waves = _waves(mdp)
    q = np.zeros((5, n), dtype=np.float64)  # q[a, c] belongs to table row waves.rows[c]
    rewards = mdp.rewards[waves.rows].T.copy()
    # row maxima by column: [0, n) live, [n, 2n) as the sweep started, and at
    # 2n a -0.0 pad for terminal moves, since r + g * -0.0 is r for any g >= 0.
    # On a grid the way back makes every later successor's wave later, so its
    # live maximum is still the sweep-start one; the copy keeps any table exact.
    maxima = np.zeros(2 * n + 1, dtype=np.float64)
    maxima[2 * n] = -0.0
    sweeps, rest = divmod(steps, 5 * n)
    full = _wave_updates(waves, q, rewards, 5 * n)
    for _ in range(sweeps):
        _sweep(full, maxima, q, gamma, alpha)
    if rest:
        _sweep(_wave_updates(waves, q, rewards, rest), maxima, q, gamma, alpha)
    table = np.empty((n, 5), dtype=np.float64)
    table[waves.rows] = q.T
    return table


class _Waves(NamedTuple):
    rows: np.ndarray  # (n,) table row of each column: wave by wave, sweep order within
    rank: np.ndarray  # (n,) each column's place in the sweep order
    bounds: list[int]  # wave w holds columns bounds[w] to bounds[w + 1]
    src: np.ndarray  # (5, n) where the successor's maximum sits in the maxima vector
    self_loop: np.ndarray  # (5, n) bool: the move leaves the vehicle where it is


def _waves(mdp: MdpTable) -> _Waves:
    """Group the rows of the sweep order into waves.

    A row's wave is one more than the deepest wave among its successors
    that come earlier in the order, and 0 when none do. Computed as a
    fixpoint over all rows at once; it takes one pass per wave, about the
    height plus the largest |x| + |y| in cells.
    """
    n = mdp.n_nonterminal
    x, y, z = mdp.states[mdp.nonterminal_indices].T
    pos = np.empty(n, dtype=np.int64)
    pos[np.lexsort((y, x, np.abs(x) + np.abs(y), z))] = np.arange(n)
    nxt = mdp.next_row
    succ = np.where(nxt >= 0, nxt, 0)
    earlier = (nxt >= 0) & (pos[succ] < pos[:, None])
    depends = np.where(earlier, succ, n).T.copy()  # n points at a pad holding -1
    wave = np.zeros(n + 1, dtype=np.int64)
    wave[n] = -1
    while True:
        deeper = np.maximum.reduce(wave[depends]) + 1
        if np.array_equal(deeper, wave[:n]):
            break
        wave[:n] = deeper
    rows = np.lexsort((pos, wave[:n]))
    column = np.empty(n, dtype=np.int64)
    column[rows] = np.arange(n)
    self_loop = nxt == np.arange(n)[:, None]
    src = np.where(earlier, column[succ], n + column[succ])
    src = np.where((nxt < 0) | self_loop, 2 * n, src)
    return _Waves(
        rows=rows,
        rank=pos[rows],
        bounds=np.searchsorted(wave[rows], np.arange(wave.max() + 2)).tolist(),
        src=src[rows].T.copy(),
        self_loop=self_loop[rows].T.copy(),
    )


def _wave_updates(waves: _Waves, q: np.ndarray, rewards: np.ndarray, limit: int) -> list:
    """Views, wave by wave, for the first ``limit`` updates of a sweep.

    A wave's rows in sweep order are its first columns, so the updates
    before the cut are a prefix of each wave's column for each action.
    """
    updates = []
    for start, stop in zip(waves.bounds, waves.bounds[1:]):
        actions = []
        for a in range(5):
            end = start + int(np.searchsorted(waves.rank[start:stop] * 5 + a, limit))
            loops = start + np.flatnonzero(waves.self_loop[a, start:end])
            actions.append(
                (q[a, start:end], rewards[a, start:end], waves.src[a, start:end], loops - start, loops)
            )
        updates.append((actions, q[:, start:stop], slice(start, stop)))
    return updates


def _sweep(updates: list, maxima: np.ndarray, q: np.ndarray, gamma: float, alpha: float) -> None:
    n = q.shape[1]
    maxima[n:2 * n] = maxima[:n]
    for actions, block, columns in updates:
        for column, reward, src, at, loops in actions:
            best = maxima[src]
            if len(loops):
                best[at] = q[:, loops].max(axis=0)
            target = reward + gamma * best
            column *= 1.0 - alpha
            column += alpha * target
        maxima[columns] = block.max(axis=0)


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
    ``policy_rollout``; only a LANDED_SUCCESS successor counts. A grid with
    no cell at ``min_altitude`` or above has no rate.
    """
    rows = np.flatnonzero(mdp.states[mdp.nonterminal_indices, 2] >= min_altitude - 1e-9)
    total = len(rows)
    if total == 0:
        raise ContractViolation("no eligible start altitudes")
    successes = 0
    for _ in range(mdp.config.max_steps):
        actions = policy[rows]
        successes += int(mdp.landed[rows, actions].sum())
        rows = mdp.next_row[rows, actions]
        rows = rows[rows >= 0]
        if len(rows) == 0:
            break
    return successes / total
