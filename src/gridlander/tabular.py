"""Tabular solvers over the enumerated landing MDP.

Value iteration produces the reference optimal policy used to audit the
learned agent. A tabular Q-learning pass applies the classic one-step
update Q <- (1-a) Q + a (r + g max Q') over deterministic exhaustive
sweeps; states are ordered by (altitude, horizontal distance) so value
information propagates backward from the pad within few sweeps. Each
sweep runs as one vector update per wave of rows and action, bit for bit
the row-by-row Gauss-Seidel sweep (see ``q_learning``).

Every solver reads the table's successor rows directly. One lockstep
rollout on the table steps many starts at once: every eligible start for
the all-starts success rate, and seeded random starts for
``evaluate_on_table``, which ``eval --oracle`` runs. Each move ends as the
table's ``kind`` records; the rollout adds only the step budget of
``LandingEnv.step``, which the live rollouts it is tested against
(``policy_rollout`` and ``dqn.evaluate_policy``) step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dqn import EpisodeLog, EpisodeStep, EvalResult, rollout, summarize_episodes
from .env import (
    START_ALTITUDE, TERMINALS, Action, LanderState, LandingEnv, MdpTable, Terminal, reset_state,
)
from .env import transition  # unused here; perfbench/tracer.py wraps tabular.transition by name
from .errors import ContractViolation
from .rng import Rng


@dataclass
class TabularSolution:
    values: np.ndarray  # (n,) optimal state values over non-terminal rows
    q: np.ndarray  # (n, 5)
    policy: np.ndarray  # (n,) greedy action indices (lowest-index ties)
    sweeps: int


_VI_TOL = 1e-9  # sup-norm residual at which value iteration stops
_TIE_TOL = 1e-9  # an action within this of the optimal Q counts as optimal


def value_iteration(mdp: MdpTable, gamma: float, max_sweeps: int = 200000):
    """Sweep Bellman optimality backups until the sup-norm residual < _VI_TOL.

    Each sweep is a Jacobi backup over action-major (5, n) copies of the
    table, so the maximum over actions is an elementwise maximum of five
    rows. Terminal moves gather the 0.0 padded at index n of the values,
    which gives r + g * 0.0, the same bits as a masked backup. The
    returned q is a transposed view of the action-major table.
    """
    n = mdp.n_nonterminal
    src = mdp.next_row.T.copy()
    src[src < 0] = n
    rewards = mdp.rewards.T.copy()
    padded = np.zeros(n + 1, dtype=np.float64)  # values, then the terminal 0.0
    values = padded[:n]
    q = np.empty((5, n), dtype=np.float64)
    new_values = np.empty(n, dtype=np.float64)
    sweeps, delta = 0, np.inf
    while True:  # each pass backs q up from the values; the last one is returned
        np.take(padded, src, out=q, mode="clip")  # every index is valid; "raise" buffers out
        q *= gamma
        q += rewards
        if sweeps >= max_sweeps or delta < _VI_TOL:
            break
        np.maximum.reduce(q, axis=0, out=new_values)
        values -= new_values  # |old - new| is |new - old| bit for bit
        delta = np.abs(values, out=values).max()
        values[:] = new_values
        sweeps += 1
    del src, rewards  # freed before argmax along axis 0 copies q, to keep the peak low
    return TabularSolution(values=values, q=q.T, policy=q.argmax(axis=0), sweeps=sweeps)


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


def greedy_agreement(q_learned: np.ndarray, q_optimal: np.ndarray) -> float:
    """Fraction of states where the learned greedy action is optimal.

    An action agrees when it attains the optimal Q within _TIE_TOL, so exact
    ties in the optimal table (symmetric states) are not disagreements.
    """
    best = q_optimal.max(axis=1, keepdims=True)
    optimal_set = q_optimal >= best - _TIE_TOL
    picks = q_learned.argmax(axis=1)
    return float(np.mean(optimal_set[np.arange(len(picks)), picks]))


def policy_rollout(mdp: MdpTable, policy: np.ndarray, start: LanderState):
    """Follow a tabular policy from a start state with ``dqn.rollout`` on the
    live windless env, for at most the table config's ``max_steps`` steps.

    Returns (states visited, total reward, terminal kind).
    """
    log = rollout(lambda s: Action(int(policy[mdp.row_of(s)])), LandingEnv(mdp.config), start)
    return [start] + [step.state for step in log.steps], log.total_reward, log.terminal


def success_rate_from_all_starts(
    mdp: MdpTable, policy: np.ndarray, min_altitude: float = START_ALTITUDE
) -> float:
    """Fraction of eligible start cells the policy lands successfully from.

    Every start takes at most ``max_steps`` steps on the table, as in
    ``policy_rollout``; only a move of kind LANDED_SUCCESS counts. A grid
    with no cell at ``min_altitude`` or above has no rate.
    """
    rows = np.flatnonzero(mdp.states[mdp.nonterminal_indices, 2] >= min_altitude - 1e-9)
    if len(rows) == 0:
        raise ContractViolation("no eligible start altitudes")
    landed = mdp.kind == TERMINALS.index(Terminal.LANDED_SUCCESS)
    return sum(int(landed[s.rows, s.actions].sum()) for s in _lockstep(mdp, policy, rows)) / len(rows)


def evaluate_on_table(mdp: MdpTable, policy: np.ndarray, episodes: int, seed: int) -> EvalResult:
    """``dqn.evaluate_policy`` of a tabular policy, rolled out on the table.

    The starts are the ones ``LandingEnv.reset`` draws from the same seed:
    the table is windless, so ``transition`` would draw nothing between
    them. Each step's terminal kind is the table's ``kind`` of its move,
    except that a move that ends nothing at step ``max_steps`` is
    MAX_STEPS, as in ``LandingEnv.step``.
    """
    if episodes < 1:
        raise ContractViolation("evaluation needs at least one episode")
    rng = Rng(seed).derive(1)
    starts = [reset_state(mdp.config, rng) for _ in range(episodes)]
    rows = np.array([mdp.row_of(s) for s in starts], dtype=np.int64)
    out_of_steps = TERMINALS.index(Terminal.MAX_STEPS)
    steps: list[list[EpisodeStep]] = [[] for _ in starts]
    totals = [0.0] * episodes
    for i, step in enumerate(_lockstep(mdp, policy, rows)):
        kinds = mdp.kind[step.rows, step.actions]
        if i + 1 == mdp.config.max_steps:
            kinds = np.where(step.next_rows >= 0, out_of_steps, kinds)
        for e, state, a, r, k in zip(
            step.episodes.tolist(), mdp.states[mdp.next_index[step.rows, step.actions]].tolist(),
            step.actions.tolist(), mdp.rewards[step.rows, step.actions].tolist(), kinds.tolist(),
        ):
            log = steps[e]
            log.append(EpisodeStep(len(log), LanderState(*state), _ACTIONS[a], r, TERMINALS[k]))
            totals[e] += r
    return summarize_episodes([
        EpisodeLog(start, log, total, log[-1].terminal)
        for start, log, total in zip(starts, steps, totals)
    ])


_ACTIONS = tuple(Action)


class _Step(NamedTuple):
    episodes: np.ndarray  # which of the starts are still running
    rows: np.ndarray  # their table rows
    actions: np.ndarray  # the policy's action in each
    next_rows: np.ndarray  # the successor's row, -1 where the move ends the episode


def _lockstep(mdp: MdpTable, policy: np.ndarray, rows: np.ndarray):
    """Step every start row at once on the table, for at most ``max_steps``
    steps, dropping each as its move ends the episode."""
    episodes = np.arange(len(rows))
    for _ in range(mdp.config.max_steps):
        actions = policy[rows]
        next_rows = mdp.next_row[rows, actions]
        yield _Step(episodes, rows, actions, next_rows)
        running = next_rows >= 0
        episodes, rows = episodes[running], next_rows[running]
        if len(rows) == 0:
            return
