"""Data model for discounted turn-based two-player zero-sum stochastic games.

A game is a set of states, each owned by the MIN or the MAX player, with one
or more actions per state. An action carries a reward and a sparse transition
row. A game is three read-only parts: its owner tags, its
:class:`ActionSpace` (the flat pair layout, the rewards and the discount) and
one :class:`ChainView`, a CSR table with a row per pair, in the order the
rows were given. :class:`Action` is only the form in which :func:`make_game`
takes rows and :attr:`StochasticGame.actions` hands them back. Games are
immutable; every transform returns a new game that shares what it does not
change. Restart rows, which spread over the whole state set, are stored by a
compact marker so very large instances stay cheap to build and solve: a
transition law is held as ``P = S + u w^T`` with sparse rows ``S``, a mask
``u`` of restart rows and the restart law ``w = k / sum(k)`` (k = 1 in a game
from :func:`make_game`), and :class:`ChainView` is the one place that reads it.

Strategies, value vectors and Q-functions are plain numpy arrays:

* strategy: int array of shape ``(n_states,)``, one action index per state;
* value vector: float array of shape ``(n_states,)``;
* Q-function: float array of shape ``(n_pairs,)``, indexed by the flat
  state-action pair layout exposed through :class:`ActionSpace`, which also
  holds the one check of each of these shapes.

Every library check of a caller-supplied argument or file raises
:class:`InputError`; every JSON file goes through :func:`read_json` and
:func:`write_json`, and every written file through :func:`write_text`.
"""

from __future__ import annotations

import json
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

MIN_PLAYER = 0
MAX_PLAYER = 1

OWNER_NAMES = {MIN_PLAYER: "min", MAX_PLAYER: "max"}
OWNER_CODES = {"min": MIN_PLAYER, "max": MAX_PLAYER}

# Tolerance on transition row sums. Rows are never renormalized silently.
PROB_TOL = 1e-9
# Largest value scale max|r| / (1 - gamma) a game may have: the return
# variance squares values, and 1e150^2 stays well inside float range.
MAX_VALUE_SCALE = 1e150
# Tolerance of the [0, 1] reward range that mirroring and sampling require.
REWARD_TOL = 1e-12
# The storage rule of :func:`prefer_dense`, from crossovers measured on one
# core (BENCH_11.json). At 2^14 cells a dense matvec beat CSR (4.6 vs 7.4 us
# on (256, 64) rows) and dense LU beat SuperLU (254 vs 344 us on a 128-state
# block with one entry per row); at 25,600-36,864 cells both lost. On
# (1200, 300) rows the dense matvec wins from 40% fill on (124 vs 181 us at
# half fill).
DENSE_SMALL_CELLS = 2 ** 14
DENSE_FILL = 0.5
# Largest matrix held or factored densely: 2^22 floats, 32 MB.
DENSE_MAX_CELLS = 2 ** 22


def prefer_dense(n_rows: int, n_cols: int, nnz: int) -> bool:
    """The one storage rule for a chain's explicit rows: True when a matrix of
    this shape with ``nnz`` entries is held and factored as a dense array
    rather than as a sparse one, i.e. when it is small, or at least half full
    and within the memory bound."""
    cells = n_rows * n_cols
    return cells <= DENSE_SMALL_CELLS or (DENSE_FILL * cells <= nnz
                                          and cells <= DENSE_MAX_CELLS)


class InputError(ValueError):
    """A caller-supplied argument or file the library refuses.

    Raised by the library's argument checks only; internal invariants keep
    their own exception types. The ``sg`` CLI maps it to exit code 2.
    """


def check_discount(gamma: float) -> None:
    """Refuse a discount outside [0, 1): the Bellman operator is then no
    contraction, I - gamma P may be singular, and the exact solvers and chain
    routines have no answer to give."""
    if not (0.0 <= gamma < 1.0):
        raise InputError(f"the exact solvers need gamma in [0, 1), got {gamma}")


@dataclass(frozen=True)
class Action:
    """One action as :func:`make_game` takes it: reward plus a sparse
    transition row.

    ``uniform=True`` marks the row as uniform over *all* states (including
    the origin state); ``next_states``/``probs`` are then ignored.
    """

    reward: float
    next_states: np.ndarray | None = None
    probs: np.ndarray | None = None
    uniform: bool = False


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Flat state-action layout, rewards and discount, without transition data.

    This is the only structural view handed to sampling-based solvers; it
    deliberately omits the transition law. It is the one place the discount
    lives.

    ``choice_states`` lists, in increasing order, the states with more than
    one action, ``choice_pairs`` their pairs in flat order, and
    ``choice_starts`` where each choice state's pairs begin in
    ``choice_pairs``; a one-action state's optimum is its own pair, so greedy
    selection and the improvement sweep reduce over these alone.
    """

    n_states: int
    n_pairs: int
    gamma: float
    is_max: np.ndarray        # (n_states,) bool
    n_actions: np.ndarray     # (n_states,) int
    state_offset: np.ndarray  # (n_states + 1,) int, pair range per state
    pair_state: np.ndarray    # (n_pairs,) int
    rewards: np.ndarray       # (n_pairs,) float
    pair_sign: np.ndarray     # (n_pairs,) float, -1 at MAX pairs, +1 at MIN
    choice_states: np.ndarray  # (n_choice,) int, states with more than one action
    choice_pairs: np.ndarray   # (n_choice_pairs,) int, the pairs of those states
    choice_starts: np.ndarray  # (n_choice,) int, each one's first index in choice_pairs

    def pair_index(self, state: int, action: int) -> int:
        if not (0 <= state < self.n_states):
            raise InputError(f"invalid state {state}")
        if not (0 <= action < self.n_actions[state]):
            raise InputError(f"invalid action {action} at state {state}")
        return int(self.state_offset[state]) + int(action)

    def check_strategy(self, strategy: np.ndarray) -> None:
        """Refuse a strategy (n_states,) or a stack of them (k, n_states)
        that is not integer or picks an action some state does not have."""
        strategy = np.asarray(strategy)
        if strategy.ndim not in (1, 2) or strategy.shape[-1] != self.n_states:
            raise InputError(f"strategy shape {strategy.shape} != ({self.n_states},) "
                             f"or (k, {self.n_states})")
        if strategy.dtype.kind not in "iu":  # 0.5 or True is refused, not truncated
            raise InputError(f"strategy must hold integers, got {strategy.dtype} entries")
        bad = (strategy < 0) | (strategy >= self.n_actions)
        if bad.any():
            raise InputError("strategy picks invalid action at state "
                             f"{int(np.argwhere(bad)[0, -1])}")

    def value_vector(self, v: np.ndarray) -> np.ndarray:
        """``v`` as a float array, refused unless it has one entry per state."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_states,):
            raise InputError(f"value vector shape {v.shape} != ({self.n_states},)")
        return v

    def check_unit_rewards(self) -> None:
        """Refuse rewards outside [0, 1], as mirroring and sampling need."""
        r = self.rewards
        if not ((r >= -REWARD_TOL) & (r <= 1.0 + REWARD_TOL)).all():
            raise InputError("rewards must lie in [0, 1]; apply an affine reward map first")

    def chosen_pairs(self, strategy: np.ndarray) -> np.ndarray:
        """Flat pair index selected by ``strategy`` at every state."""
        return self.state_offset[:-1] + strategy


@dataclass(frozen=True, eq=False)
class ChainView:
    """Transition rows ``P = S + u w^T`` over ``n`` target states.

    ``trans`` holds the explicit rows S (empty for restart rows),
    ``uniform_mask`` marks the restart rows u, and ``weights`` is k, the one
    place the restart law ``w = k / sum(k)`` is defined: k = 1, the uniform
    row, in a game from :func:`make_game`, the class sizes in a :func:`quotient`.

    ``trans`` is a CSR table with the rows in the order given, repeated
    targets included (a game's table is read-only), which ``row_table`` (and
    so the sampler) and ``entries`` read. ``P x``, ``P^T y`` and the dense
    matrix read S in the form :func:`prefer_dense` picks for its shape and
    fill, decided once per view: a read-only dense copy, or ``trans`` itself.
    A game has one view, its ``layout``, and every strategy's chain is read
    from it, with no per-strategy view or matrix.
    """

    trans: sp.csr_matrix          # (n_rows, n_states)
    uniform_mask: np.ndarray      # (n_rows,) bool
    weights: np.ndarray           # (n_states,) float, k

    @cached_property
    def has_uniform(self) -> bool:
        return bool(self.uniform_mask.any())

    @cached_property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    def k_dot(self, x: np.ndarray) -> float:
        """k^T x, summed as ``x.sum()`` sums: with k = 1, k^T x / sum(k) is ``x.mean()``."""
        return float((self.weights * x).sum())

    def spread(self, mass: float) -> np.ndarray:
        """w mass, as k mass / sum(k): ``mass`` on the restart rows pushed one step."""
        return self.weights * mass / self.weight_sum

    @cached_property
    def row_lengths(self) -> np.ndarray:
        """Entries per row of S (0 for a restart row), read-only."""
        return _readonly(np.diff(self.trans.indptr))

    @cached_property
    def _rows(self) -> np.ndarray | sp.csr_matrix:
        """S as the storage rule holds it."""
        if not prefer_dense(*self.trans.shape, self.trans.nnz):
            return self.trans
        rows = self.trans.toarray()
        rows.setflags(write=False)
        return rows

    @cached_property
    def _transpose(self) -> np.ndarray | sp.csr_matrix:
        rows = self._rows
        return rows.T if isinstance(rows, np.ndarray) else rows.T.tocsr()

    def p_dot(self, x: np.ndarray) -> np.ndarray:
        """P x: per-row expectation of ``x`` under one transition."""
        out = self._rows @ x
        if self.has_uniform:
            out = out + self.uniform_mask * (self.k_dot(x) / self.weight_sum)
        return out

    def push(self, y: np.ndarray) -> np.ndarray:
        """S^T y: the mass ``y`` on the rows pushed along their explicit entries."""
        return self._transpose @ y

    def pt_dot(self, y: np.ndarray) -> np.ndarray:
        """P^T y: the mass ``y`` on the rows pushed one step forward."""
        out = self.push(y)
        if self.has_uniform:
            out = out + self.spread(float(self.uniform_mask @ y))
        return out

    def dense(self) -> np.ndarray:
        """P as a dense (n_rows, n_states) array."""
        rows = self._rows
        mat = rows.copy() if isinstance(rows, np.ndarray) else rows.toarray()
        if self.has_uniform:
            mat = mat + np.outer(self.uniform_mask, self.spread(1.0))
        return mat

    def row_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row padded to the widest as ``(support, probs)``, both of
        shape (n_rows, w), with ``probs`` normalised to sum 1 per row.

        A restart row lists every state s at w_s. Padding columns have
        probability 0 and repeat the row's last real target, so a draw that
        lands there (a rounding remainder) still names a real state.
        """
        n = self.trans.shape[1]
        ptr, sparse = self.trans.indptr, ~self.uniform_mask
        lengths = np.where(sparse, self.row_lengths, n)
        col = np.arange(lengths.max())
        # column of each entry, padding clipped to the last real one; for a
        # restart row the column is the target state itself
        support = np.minimum(col, lengths[:, None] - 1)
        pos = ptr[:-1, None][sparse] + support[sparse]
        probs = self.spread(1.0).take(support, mode="clip")  # sparse rows are set below
        probs[sparse] = self.trans.data[pos]
        support[sparse] = self.trans.indices[pos]
        probs[col >= lengths[:, None]] = 0.0
        probs[sparse] /= probs[sparse].sum(axis=1, keepdims=True)
        return support, probs

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The explicit entries of the selected rows, e.g. the pairs a strategy
        picks, as ``(lengths, targets, probs)``: the ``np.diff(indptr)``,
        ``indices`` and ``data`` of ``trans[rows]``, gathered through the
        cached row lengths and their running sum with no matrix built."""
        ptr, lengths = self.trans.indptr, self.row_lengths.take(rows)
        first = np.zeros(lengths.size + 1, dtype=ptr.dtype)
        np.cumsum(lengths, out=first[1:])
        pos = np.repeat(ptr.take(rows) - first[:-1], lengths) + np.arange(first[-1])
        return lengths, self.trans.indices[pos], self.trans.data[pos]


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """Immutable description of a turn-based zero-sum stochastic game.

    ``layout`` holds one row per pair, in the flat pair order of ``space``.
    """

    owners: np.ndarray    # (n_states,) int8, MIN_PLAYER/MAX_PLAYER
    space: ActionSpace
    layout: ChainView

    @property
    def gamma(self) -> float:
        return self.space.gamma

    @property
    def n_states(self) -> int:
        return self.space.n_states

    @property
    def n_pairs(self) -> int:
        return self.space.n_pairs

    def n_actions_at(self, state: int) -> int:
        return int(self.space.n_actions[state])

    @property
    def actions(self) -> tuple[tuple[Action, ...], ...]:
        """The game in the form :func:`make_game` takes, each row a read-only
        view into the table; a restart law other than 1/n comes back as its
        explicit row."""
        lay, off = self.layout, self.space.state_offset.tolist()
        trans, ptr, k = lay.trans, lay.trans.indptr.tolist(), lay.weights
        restart = ({"uniform": True} if (k == k[:1]).all() else
                   {"next_states": _readonly(np.arange(k.size)),
                    "probs": _readonly(lay.spread(1.0))})
        pairs = [Action(reward, **restart) if uniform else
                 Action(reward, trans.indices[lo:hi], trans.data[lo:hi])
                 for reward, uniform, lo, hi in zip(self.space.rewards.tolist(),
                                                    lay.uniform_mask.tolist(),
                                                    ptr, ptr[1:])]
        return tuple(tuple(pairs[off[s]:off[s + 1]]) for s in range(self.n_states))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _space(gamma: float, owners: np.ndarray, n_actions: np.ndarray,
           rewards: np.ndarray) -> ActionSpace:
    """The read-only action space of states with ``n_actions`` pairs each."""
    state_offset = np.zeros(n_actions.size + 1, dtype=np.int64)
    np.cumsum(n_actions, out=state_offset[1:])
    n_pairs = int(state_offset[-1])
    pair_state = np.repeat(np.arange(n_actions.size, dtype=np.int64), n_actions)
    is_max = owners.astype(bool)
    choice = n_actions > 1
    choice_starts = np.cumsum(n_actions[choice]) - n_actions[choice]
    return ActionSpace(
        n_states=n_actions.size,
        n_pairs=n_pairs,
        gamma=float(gamma),
        is_max=_readonly(is_max),
        n_actions=_readonly(n_actions),
        state_offset=_readonly(state_offset),
        pair_state=_readonly(pair_state),
        rewards=_readonly(rewards),
        pair_sign=_readonly(np.where(is_max[pair_state], -1.0, 1.0)),
        choice_states=_readonly(np.flatnonzero(choice)),
        choice_pairs=_readonly(np.flatnonzero(choice[pair_state])),
        choice_starts=_readonly(choice_starts),
    )


def _refuse(fault: str):
    raise InputError(f"invalid game: {fault}")


def make_game(gamma: float,
              owners: Sequence[int],
              actions: Sequence[Sequence[Action]]) -> StochasticGame:
    """A game whose owner tags and rows are copied into one read-only table,
    so later writes to the caller's arrays cannot reach it.

    Rows keep the order they are given in, repeated targets included, so
    :func:`validate` checks them as the caller wrote them. What the table
    cannot hold raises InputError here: owner tags that do not cover every
    state or do not fit an int8, index and probability arrays of different
    shapes, and a target that is not an integer state index.
    """
    tags = np.asarray(owners)
    if tags.shape != (len(actions),):
        _refuse("owner tags do not cover every state")
    owners = _readonly(tags.astype(np.int8))
    if (wrapped := np.flatnonzero(owners != tags)).size:  # 256 would wrap to MIN
        _refuse(f"state {wrapped[0]} has invalid owner tag {tags[wrapped[0]]}")
    rewards, uniform, lengths = [], [], []
    targets, probs = [np.empty(0, dtype=np.int64)], [np.empty(0)]  # a game may have no rows
    for s, acts in enumerate(actions):
        for a, act in enumerate(acts):
            rewards.append(act.reward)
            uniform.append(act.uniform)
            if act.uniform:
                lengths.append(0)
                continue
            idx, p = np.asarray(act.next_states), np.asarray(act.probs, dtype=np.float64)
            if idx.ndim != 1 or idx.shape != p.shape:
                _refuse(f"transition index/probability shape mismatch at ({s},{a})")
            if idx.size and idx.dtype.kind not in "iu":  # 0.7 or True is no state
                _refuse(f"transition target not an integer at ({s},{a})")
            lengths.append(idx.size)
            targets.append(idx)
            probs.append(p)

    space = _space(gamma, owners, np.array([len(acts) for acts in actions], dtype=np.int64),
                   np.array(rewards, dtype=np.float64))
    indptr = np.zeros(space.n_pairs + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate(targets, dtype=np.int64, casting="unsafe")
    if (bad := np.flatnonzero((indices < 0) | (indices >= space.n_states))).size:
        pair = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        s = int(space.pair_state[pair])
        _refuse(f"transition target out of range at ({s},{pair - space.state_offset[s]})")
    trans = sp.csr_matrix((np.concatenate(probs), indices, indptr),
                          shape=(space.n_pairs, space.n_states))
    return _table_game(owners, space, trans, np.array(uniform, dtype=bool), np.ones(space.n_states))


def _table_game(owners: np.ndarray, space: ActionSpace, trans: sp.csr_matrix,
                uniform_mask: np.ndarray, weights: np.ndarray) -> StochasticGame:
    """The game of a row table and restart weights, its arrays made read-only."""
    for arr in (trans.data, trans.indices, trans.indptr):
        arr.setflags(write=False)
    return StochasticGame(owners=owners, space=space,
                          layout=ChainView(trans, _readonly(uniform_mask), _readonly(weights)))


# ---------------------------------------------------------------------------
# validation


def _valid(game: StochasticGame) -> StochasticGame:
    if report := validate(game):
        _refuse("; ".join(report))
    return game


def validate(game: StochasticGame) -> list[str]:
    """Return a report listing every violated structural invariant, state
    by state and action by action, in the order the rows were given.

    An empty list means the game is well-formed. This never raises; loaders
    that want hard failures should raise on a non-empty report. What the
    table cannot hold at all, :func:`make_game` has refused already.
    """
    if game.n_states < 1:
        return ["game has no states"]
    report: list[str] = []
    if not (0.0 < game.gamma < 1.0):
        report.append(f"gamma {game.gamma} outside (0, 1)")
    for s in np.flatnonzero(~np.isin(game.owners, (MIN_PLAYER, MAX_PLAYER))):
        report.append(f"state {s} has invalid owner tag {game.owners[s]}")
    r_max = 0.0
    for s, acts in enumerate(game.actions):
        if len(acts) == 0:
            report.append(f"state {s} has no actions")
        for a, act in enumerate(acts):
            if not np.isfinite(act.reward):
                report.append(f"reward not finite at ({s},{a})")
            else:
                r_max = max(r_max, abs(act.reward))
            if act.uniform:
                continue
            probs = act.probs
            if probs.size == 0:
                report.append(f"empty transition row at ({s},{a})")
                continue
            if not np.isfinite(probs).all():
                report.append(f"transition probability not finite at ({s},{a})")
                continue
            if (probs < 0).any():
                report.append(f"negative transition probability at ({s},{a})")
            total = float(probs.sum())
            if abs(total - 1.0) > PROB_TOL:
                report.append(f"transition sum {total} != 1 at ({s},{a})")
    if 0.0 < game.gamma < 1.0 and r_max / (1.0 - game.gamma) > MAX_VALUE_SCALE:
        report.append(f"value scale max|r|/(1-gamma) = {r_max / (1.0 - game.gamma)} "
                      f"exceeds {MAX_VALUE_SCALE}")
    return report


# ---------------------------------------------------------------------------
# transforms


def mirror(game: StochasticGame) -> StochasticGame:
    """Swap the players' roles: owners flipped, rewards mapped r -> 1 - r.

    Requires rewards in [0, 1]. The mirrored game's optimal value satisfies
    v'*(s) = 1/(1 - gamma) - v*(s), and its min player plays the role of the
    original max player. The copy shares the game's rows.
    """
    space = game.space
    space.check_unit_rewards()
    owners = np.where(game.owners == MIN_PLAYER, MAX_PLAYER, MIN_PLAYER).astype(np.int8)
    return replace(game, owners=_readonly(owners),
                   space=_space(space.gamma, owners, space.n_actions, 1.0 - space.rewards))


def affine_reward_map(game: StochasticGame, scale: float, offset: float) -> StochasticGame:
    """Map rewards r -> (r + offset) / scale, preserving optimal strategies.

    For every strategy the values transform as
    v' = (v + offset / (1 - gamma)) / scale. The copy shares the game's rows.
    """
    if not (scale > 0):
        raise InputError("scale must be positive")
    with np.errstate(over="ignore"):  # an infinite reward is reported by validate
        rewards = _readonly((game.space.rewards + offset) / scale)
    return _valid(replace(game, space=replace(game.space, rewards=rewards)))


def with_gamma(game: StochasticGame, gamma: float) -> StochasticGame:
    """Same states, actions and rewards under a different discount factor.

    The copy shares the game's layout, dense copy of the rows included, and
    every array of its action space; only ``gamma`` is swapped.
    """
    if not (0.0 < gamma < 1.0):
        raise InputError("gamma must lie in (0, 1)")
    return replace(game, space=replace(game.space, gamma=float(gamma)))


def quotient(game: StochasticGame) -> tuple[StochasticGame, np.ndarray]:
    """The exact lumped quotient of ``game`` and the class of each state.

    States with one action whose only row is the restart row and whose
    rewards are exactly equal have the same value under every strategy,
    v(s) = r + gamma w^T v, so each such set merges into one class (exact
    lumping: Kemeny & Snell, *Finite Markov Chains*, 1960, ch. 6; the
    bisimulation quotient of Givan, Dean & Greig, *Artificial Intelligence*
    147, 2003). Every other state is a class of its own. A class's
    representative is its first member and classes are numbered in the order
    of their representatives, so the states with a choice keep their order.
    The quotient is an ordinary game over the classes, with each
    representative's owner, rewards and discount, and its law is again
    ``P = S + u w^T``: an explicit row puts on class C its entries in C,
    summed, and a restart row stays one, its law weighing C by its members'
    total weight (|C| in a game from :func:`make_game`), so it stays out of a
    policy system's active block.

    Returns ``(q, classes)``, with ``q`` the game itself when nothing merges.
    With ``reps = np.unique(classes, return_index=True)[1]``, the first
    member of each class, a strategy maps down as ``sigma[reps]`` and a
    value of ``q`` lifts as ``v_q[classes]``.

    The quotient serves values and strategies only: a class's flux or
    stationary mass is its members' total, so ``verify_pi_path_hi1``,
    ``hi1_distribution_bounds`` and ``hi2_vbar_signs`` stay on the full game.
    """
    space, layout = game.space, game.layout
    n = game.n_states
    first_pair = space.state_offset[:-1]
    lump = np.flatnonzero((space.n_actions == 1) & layout.uniform_mask[first_pair])
    _, first, group = np.unique(space.rewards[first_pair[lump]], return_index=True,
                                return_inverse=True, equal_nan=False)
    states = np.arange(n)
    leader = states.copy()
    leader[lump] = lump[first][group]
    is_rep = leader == states
    if is_rep.all():
        return game, states
    classes = (np.cumsum(is_rep) - 1)[leader]
    reps = np.flatnonzero(is_rep)
    pairs = np.flatnonzero(is_rep[space.pair_state])
    # explicit entries summed into their targets' classes, in row order
    member = sp.csr_matrix((np.ones(n), classes, np.arange(n + 1)), shape=(n, reps.size))
    owners = _readonly(game.owners[reps])
    q_space = _space(space.gamma, owners, space.n_actions[reps], space.rewards[pairs])
    return _table_game(owners, q_space, (layout.trans[pairs] @ member).sorted_indices(),
                       layout.uniform_mask[pairs],
                       np.bincount(classes, weights=layout.weights)), classes


# ---------------------------------------------------------------------------
# JSON documents


def finite_number(x) -> bool:
    """True for a real number, not a bool, that fits a finite float."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def check_fields(obj, names: str, ok, rule: str) -> None:
    """Refuse the first of the fields ``names`` of ``obj`` that fails ``ok``."""
    for name in names.split():
        if not ok(value := getattr(obj, name)):
            raise InputError(f"{name} must be {rule}, got {value!r}")


@contextmanager
def refuse_malformed(kind: str):
    """Guard of every ``from_json_dict``: a missing key or wrong type raises InputError."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = exc if isinstance(exc, InputError) else repr(exc)
        raise InputError(f"malformed {kind} document: {detail}") from exc


def read_json(path: str, parse):
    """``parse`` of the JSON file ``path``; an unreadable or non-JSON file raises InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse(doc)


def write_json(path: str, doc: dict, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` as JSON and a newline; games and reports use indent 1."""
    write_text(path, json.dumps(doc, indent=indent) + "\n")


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written raises InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def to_json_dict(game: StochasticGame) -> dict:
    states = []
    for s, acts in enumerate(game.actions):
        state_acts = []
        for act in acts:
            entry: dict = {"reward": act.reward}
            if act.uniform:
                entry["uniform"] = True
            else:
                entry["next"] = [
                    {"s": int(t), "p": float(p)}
                    for t, p in zip(act.next_states, act.probs)
                ]
            state_acts.append(entry)
        states.append({"owner": OWNER_NAMES[int(game.owners[s])],
                       "actions": state_acts})
    return {"gamma": game.gamma, "states": states}


def from_json_dict(doc: dict) -> StochasticGame:
    with refuse_malformed("game"):
        gamma = float(doc["gamma"])
        owners = []
        actions = []
        for state in doc["states"]:
            owners.append(OWNER_CODES[state["owner"]])
            acts = []
            for entry in state["actions"]:
                if entry.get("uniform", False):
                    acts.append(Action(reward=float(entry["reward"]), uniform=True))
                else:
                    nxt = entry["next"]
                    targets = [e["s"] for e in nxt]
                    # exact type test: rejects floats such as 0.7 and booleans
                    if not set(map(type, targets)) <= {int}:
                        raise InputError(f"transition targets must be integers: {targets}")
                    acts.append(Action(
                        reward=float(entry["reward"]),
                        next_states=np.array(targets, dtype=np.int64),
                        probs=np.array([e["p"] for e in nxt], dtype=np.float64),
                    ))
            actions.append(acts)
    return _valid(make_game(gamma, owners, actions))


def save_game(game: StochasticGame, path: str) -> None:
    write_json(path, to_json_dict(game), indent=1)


def load_game(path: str) -> StochasticGame:
    return read_json(path, from_json_dict)
