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
:class:`InputError`; every JSON file goes through :func:`read_json`, which
parses strict JSON with orjson, and :func:`write_json`, and every written
file through :func:`write_text`. A game document holds each explicit row as
one list of targets and one of probabilities, ``{"s": [...], "p": [...]}``,
which :func:`from_json_dict` reads in one pass into the flat arrays of
:func:`_array_game`, the route every game is built by; the legacy per-entry
rows ``[{"s": t, "p": p}, ...]`` still load, to the same table.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

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
# Largest index an int32 index array holds; a larger table indexes in int64.
INT32_MAX = np.iinfo(np.int32).max
# The deepest nesting of arrays and objects a JSON file may have. orjson
# converts a document on the C stack with no depth limit of its own (3.8.3:
# a valid document nested about 2 * 10^5 deep overflows it and kills the
# process), so deeper text is refused before it is parsed. sg's documents
# nest at most 7 deep, and at 256 the repr of a refused value stays well
# inside Python's recursion limit.
MAX_JSON_DEPTH = 256


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


def check_int(value, name: str, least: int) -> int:
    """``value`` as an int, refused unless it is an integer of at least
    ``least``: a seed (0 up) or a number of draws (1 up). A bool or 2.5 is no
    count, and numpy refuses a negative seed only with its own ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    n_actions: np.ndarray     # (n_states,) int
    state_offset: np.ndarray  # (n_states + 1,) int, pair range per state
    pair_state: np.ndarray    # (n_pairs,) int
    rewards: np.ndarray       # (n_pairs,) float
    pair_sign: np.ndarray     # (n_pairs,) float, -1 at MAX pairs, +1 at MIN
    choice_states: np.ndarray  # (n_choice,) int, states with more than one action
    choice_pairs: np.ndarray   # (n_choice_pairs,) int, the pairs of those states
    choice_starts: np.ndarray  # (n_choice,) int, each one's first index in choice_pairs

    def pair_index(self, state: int, action: int) -> int:
        """Flat index of ``(state, action)``, refused unless both are integers
        in range (a bool or 0.0 is no index)."""
        state, action = check_int(state, "state", 0), check_int(action, "action", 0)
        if state >= self.n_states:
            raise InputError(f"invalid state {state}")
        if action >= self.n_actions[state]:
            raise InputError(f"invalid action {action} at state {state}")
        return int(self.state_offset[state]) + action

    def check_strategy(self, strategy: np.ndarray) -> np.ndarray:
        """Refuse anything but one strategy (n_states,) of integers that
        picks an action every state has; return it as the int64 array the
        pair arithmetic indexes with."""
        return self._checked(strategy, 1)

    def check_strategies(self, strategies: np.ndarray) -> np.ndarray:
        """:meth:`check_strategy` for a stack (k, n_states), one strategy a row."""
        return self._checked(strategies, 2)

    def _checked(self, strategy: np.ndarray, ndim: int) -> np.ndarray:
        """The one body of both checks; ``ndim`` is 1 for a strategy, 2 for a
        stack. A wrong dtype and a wrong shape are both named when both occur."""
        strategy = np.asarray(strategy)
        faults = []
        if strategy.dtype.kind not in "iu":  # 0.5 or True is refused, not truncated
            faults.append(f"strategy must hold integers, got {strategy.dtype} entries")
        if strategy.ndim != ndim or strategy.shape[-1] != self.n_states:
            want = f"({self.n_states},)" if ndim == 1 else f"(k, {self.n_states})"
            faults.append(f"strategy shape {strategy.shape} != {want}")
        if faults:
            raise InputError("; ".join(faults))
        bad = (strategy < 0) | (strategy >= self.n_actions)
        if np.count_nonzero(bad):  # a third of ``bad.any()``'s cost on a hi2 strategy
            raise InputError("strategy picks invalid action at state "
                             f"{int(np.argwhere(bad)[0, -1])}")
        return strategy.astype(np.int64, copy=False)

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
class CsrTable:
    """A read-only table of sparse rows in compressed-row (CSR) form.

    Row i holds the entries ``indptr[i]:indptr[i + 1]`` of ``indices`` (the
    columns) and ``data``, in the order given, repeated columns included.
    The arrays are those ``scipy.sparse.csr_matrix`` would hold for them:
    float data and index arrays of int32 when every index and the shape fit
    one, else int64 (:func:`_csr_table` picks), so scipy can wrap them as
    they are wherever a sparse product is needed.
    """

    data: np.ndarray     # (nnz,) float
    indices: np.ndarray  # (nnz,) int32 or int64, the column of each entry
    indptr: np.ndarray   # (n_rows + 1,) the same dtype, where each row begins
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        """The table as a dense array, the entries of a row added into their
        cells in row order from zero (``np.add.at`` adds in index order), as
        ``csr_matrix.toarray`` adds them, so the bits are the same."""
        n_rows, n_cols = self.shape
        cells = np.repeat(np.arange(n_rows, dtype=np.int64) * n_cols, np.diff(self.indptr))
        cells += self.indices
        dense = np.zeros(n_rows * n_cols)
        np.add.at(dense, cells, self.data)
        return dense.reshape(self.shape)

    def tocsr(self):
        """A ``scipy.sparse.csr_matrix`` over the table's own arrays, for
        sparse products and row gathers; this loads scipy."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def _csr_table(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
               shape: tuple[int, int]) -> CsrTable:
    """The read-only table of these arrays, indexed in int32 when the entry
    count and the shape (unless it is empty) fit one, as scipy's CSR
    constructor picks."""
    shape = (int(shape[0]), int(shape[1]))
    bound = max(shape) if min(shape) else 0
    index = np.int32 if max(bound, int(indptr[-1])) <= INT32_MAX else np.int64
    return CsrTable(_readonly(np.asarray(data, dtype=np.float64)),
                    _readonly(indices.astype(index, copy=False)),
                    _readonly(indptr.astype(index, copy=False)), shape)


@dataclass(frozen=True, eq=False)
class ChainView:
    """Transition rows ``P = S + u w^T`` over ``n`` target states.

    ``trans`` holds the explicit rows S (empty for restart rows),
    ``uniform_mask`` marks the restart rows u, and ``weights`` is k, the one
    place the restart law ``w = k / sum(k)`` is defined: k = 1, the uniform
    row, in a game from :func:`make_game`, the class sizes in a :func:`quotient`.

    ``trans`` is a :class:`CsrTable`, plain numpy arrays with the rows in the
    order given, repeated targets included (a game's table is read-only),
    which ``row_table`` (and so the sampler) and ``entries`` read. ``P x``
    and the dense matrix read S in the form :func:`prefer_dense` picks for
    its shape and fill, decided once per view: a read-only dense copy, or a
    ``scipy.sparse`` CSR matrix over the table's own arrays. Only the latter
    loads scipy, at the view's first product.
    A game has one view, its ``layout``, and every strategy's chain is read
    from it, with no per-strategy view or matrix.
    """

    trans: CsrTable               # (n_rows, n_states)
    uniform_mask: np.ndarray      # (n_rows,) bool
    weights: np.ndarray           # (n_states,) float, k

    @cached_property
    def has_uniform(self) -> bool:
        return bool(self.uniform_mask.any())

    @cached_property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    def k_dot(self, x: np.ndarray) -> float | np.ndarray:
        """k^T x, summed as ``x.sum()`` sums: with k = 1, k^T x / sum(k) is
        ``x.mean()``. A stack ``(k, n)`` gives one sum per row."""
        return (self.weights * x).sum(axis=-1)

    def spread(self, mass: float) -> np.ndarray:
        """w mass, as k mass / sum(k): ``mass`` on the restart rows pushed one step."""
        return self.weights * mass / self.weight_sum

    @cached_property
    def row_lengths(self) -> np.ndarray:
        """Entries per row of S (0 for a restart row), read-only."""
        return _readonly(np.diff(self.trans.indptr))

    @cached_property
    def finite_rows(self) -> np.ndarray:
        """Per row, whether its explicit entries (on a dense-held table, its
        dense row, repeated targets summed) and, on a restart row, the
        restart law are all finite; read-only. Read where a chain is factored
        or scanned, so each game's table is tested once."""
        t = self.trans
        if self.held_dense:
            finite = np.isfinite(self._rows).all(axis=1)
        else:
            finite = np.ones(t.shape[0], dtype=bool)
            if (bad := np.flatnonzero(~np.isfinite(t.data))).size:
                finite[np.searchsorted(t.indptr, bad, side="right") - 1] = False
        if not np.isfinite(self.spread(1.0)).all():
            finite &= ~self.uniform_mask
        return _readonly(finite)

    @cached_property
    def _rows(self):
        """S as the storage rule holds it: a read-only ndarray, or a scipy
        CSR matrix that shares the table's arrays."""
        t = self.trans
        return _readonly(t.toarray()) if prefer_dense(*t.shape, t.nnz) else t.tocsr()

    @property
    def held_dense(self) -> bool:
        """Whether the storage rule holds S as a dense array."""
        return isinstance(self._rows, np.ndarray)

    def p_dot(self, x: np.ndarray) -> np.ndarray:
        """P x: per-row expectation of ``x`` under one transition. A stack
        ``(k, n)`` gives ``(k, n_rows)``, one matrix product for all of it."""
        out = (self._rows @ x.T).T
        if self.has_uniform:
            out = out + self.uniform_mask * (self.k_dot(x) / self.weight_sum)[..., None]
        return out

    def explicit(self, rows: np.ndarray) -> np.ndarray:
        """The explicit rows S at ``rows`` of a dense-held table, in the order
        given, as a dense array of its own (a restart row is zero)."""
        return self._rows.take(rows, axis=0)

    def chain(self, rows: np.ndarray) -> np.ndarray:
        """The rows of P at ``rows`` of a dense-held table, in the order
        given, as a dense array of its own: ``explicit`` with the restart law
        w in each restart row (0 + w, so w bit for bit)."""
        return self._chain_rows.take(rows, axis=0)

    @cached_property
    def _chain_rows(self) -> np.ndarray:
        """``dense()``, read-only; built at the first ``chain``, which only a
        strategy that picks a restart row on a dense-held table calls."""
        return _readonly(self.dense())

    def dense(self) -> np.ndarray:
        """P as a dense (n_rows, n_states) array."""
        mat = self._rows.copy() if self.held_dense else self.trans.toarray()
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
    choice = n_actions > 1
    choice_starts = np.cumsum(n_actions[choice]) - n_actions[choice]
    return ActionSpace(
        n_states=n_actions.size,
        n_pairs=n_pairs,
        gamma=float(gamma),
        n_actions=_readonly(n_actions),
        state_offset=_readonly(state_offset),
        pair_state=_readonly(pair_state),
        rewards=_readonly(rewards),
        pair_sign=_readonly(np.where(owners[pair_state] != MIN_PLAYER, -1.0, 1.0)),
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
    cannot hold raises InputError: here index and probability arrays of
    different shapes and a target that is not an integer, and in
    :func:`_array_game` owner tags that do not cover every state or do not
    fit an int8 and a target outside the state range.
    """
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
    return _array_game(gamma, owners, np.array([len(acts) for acts in actions], dtype=np.int64),
                       np.array(rewards, dtype=np.float64), np.array(uniform, dtype=bool),
                       np.array(lengths, dtype=np.int64),
                       np.concatenate(targets, dtype=np.int64, casting="unsafe"),
                       np.concatenate(probs), np.ones(len(actions)))


def _array_game(gamma: float, owners: Sequence[int], n_actions: np.ndarray,
                rewards: np.ndarray, uniform: np.ndarray, lengths: np.ndarray,
                targets: np.ndarray, probs: np.ndarray, weights: np.ndarray) -> StochasticGame:
    """A game from its row table as flat arrays, the one route by which
    :func:`make_game`, :func:`from_json_dict` and the generators of
    :mod:`sg.hard` build a game.

    Per state: its owner tag, its number of actions and its restart weight
    k. Per pair, in flat order: its reward, whether its row is the restart
    row, and the number of its explicit entries (0 for a restart row). Per
    explicit entry, in row order: its int64 target and its probability. The
    arrays must agree in length, as every caller builds them; they become the
    game's own and are made read-only. Refused with InputError: owner tags
    that do not cover every state or do not fit an int8, and a target
    outside the state range.
    """
    tags = np.asarray(owners)
    if tags.shape != n_actions.shape:
        _refuse("owner tags do not cover every state")
    owners = _readonly(tags.astype(np.int8))
    if (wrapped := np.flatnonzero(owners != tags)).size:  # 256 would wrap to MIN
        _refuse(f"state {wrapped[0]} has invalid owner tag {tags[wrapped[0]]}")
    space = _space(gamma, owners, n_actions, rewards)
    indptr = np.zeros(space.n_pairs + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if (bad := np.flatnonzero((targets < 0) | (targets >= space.n_states))).size:
        pair = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        s = int(space.pair_state[pair])
        _refuse(f"transition target out of range at ({s},{pair - space.state_offset[s]})")
    trans = _csr_table(probs, targets, indptr, (space.n_pairs, space.n_states))
    return _table_game(owners, space, trans, uniform, weights)


def _table_game(owners: np.ndarray, space: ActionSpace, trans: CsrTable,
                uniform_mask: np.ndarray, weights: np.ndarray) -> StochasticGame:
    """The game of a row table and restart weights, its arrays made read-only."""
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
    table cannot hold at all, :func:`make_game` has refused already. Each
    check is one reduction over the flat table; a row's sum is the bits
    ``probs.sum()`` gives, numpy's pairwise sum, which the rows of one
    length get from one ``sum(axis=1)``.
    """
    if game.n_states < 1:
        return ["game has no states"]
    report: list[str] = []
    if not (0.0 < game.gamma < 1.0):
        report.append(f"gamma {game.gamma} outside (0, 1)")
    for s in np.flatnonzero(~np.isin(game.owners, (MIN_PLAYER, MAX_PLAYER))):
        report.append(f"state {s} has invalid owner tag {game.owners[s]}")
    space, lay = game.space, game.layout
    offset, rewards = space.state_offset, space.rewards
    ptr, data, lengths = lay.trans.indptr, lay.trans.data, lay.row_lengths

    def rows_with(entries: np.ndarray) -> np.ndarray:
        """The rows holding at least one of the flagged entries."""
        hit = np.zeros(lengths.size, dtype=bool)
        hit[np.searchsorted(ptr, np.flatnonzero(entries), side="right") - 1] = True
        return hit

    finite_reward = np.isfinite(rewards)
    explicit = ~lay.uniform_mask
    empty = explicit & (lengths == 0)
    non_finite = explicit & ~empty & rows_with(~np.isfinite(data))
    checked = explicit & ~empty & ~non_finite
    sums = np.zeros(lengths.size)
    with np.errstate(over="ignore"):  # a sum past the float range is reported as inf
        widths = np.sort(lengths[checked])  # np.unique would import numpy.ma: 13 ms
        for width in widths[np.diff(widths, prepend=-1) > 0]:
            rows = np.flatnonzero(checked & (lengths == width))
            sums[rows] = data[ptr[rows, None] + np.arange(width)].sum(axis=1)

    def at(pair: int) -> str:
        s = space.pair_state[pair]
        return f"({s},{pair - offset[s]})"

    # each fault keyed by its pair and its rank among that pair's checks; a
    # state with no actions sorts before the pair its actions would begin at
    faults = [((offset[s], 0), f"state {s} has no actions")
              for s in np.flatnonzero(space.n_actions == 0)]
    for rank, mask, fault in ((1, ~finite_reward, "reward not finite"),
                              (2, empty, "empty transition row"),
                              (2, non_finite, "transition probability not finite"),
                              (3, checked & rows_with(data < 0),
                               "negative transition probability")):
        faults += [((pair, rank), f"{fault} at {at(pair)}") for pair in np.flatnonzero(mask)]
    faults += [((pair, 4), f"transition sum {float(sums[pair])} != 1 at {at(pair)}")
               for pair in np.flatnonzero(checked & (np.abs(sums - 1.0) > PROB_TOL))]
    report += [text for _, text in sorted(faults, key=lambda f: f[0])]
    r_max = float(np.abs(rewards[finite_reward]).max(initial=0.0))
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
    total weight (|C| in a game from :func:`make_game`), so on a table held
    sparse it stays out of a policy system's block.

    Returns ``(q, classes)``, with ``q`` the game itself when nothing merges.
    With ``reps = np.unique(classes, return_index=True)[1]``, the first
    member of each class, a strategy maps down as ``sigma[reps]`` and a
    value of ``q`` lifts as ``v_q[classes]``.

    The quotient serves values and strategies: a class's flux or stationary
    mass is its members' total, so ``hi1_distribution_bounds`` stays on the
    full game, while the full game's mean value is the class-size weighted
    mean ``k^T v_q / sum(k)`` (``hi2_vbar_signs``). The hi2 verifier and
    ``hi2_vbar_signs`` solve on this fold of the built instance.
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
    import scipy.sparse as sp
    member = sp.csr_matrix((np.ones(n), classes, np.arange(n + 1)), shape=(n, reps.size))
    folded = (layout.trans.tocsr()[pairs] @ member).sorted_indices()
    owners = _readonly(game.owners[reps])
    q_space = _space(space.gamma, owners, space.n_actions[reps], space.rewards[pairs])
    return _table_game(owners, q_space,
                       _csr_table(folded.data, folded.indices, folded.indptr, folded.shape),
                       layout.uniform_mask[pairs],
                       np.bincount(classes, weights=layout.weights)), classes


# ---------------------------------------------------------------------------
# JSON documents


def finite_number(x) -> bool:
    """True for a real number, not a bool, that fits a finite float."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def finite_numbers(values) -> bool:
    """:func:`finite_number` of every entry of a sequence, at C speed when
    every entry is a float (for which the two tests agree), the common case
    of a long one; any other sequence is tested entry by entry."""
    if set(map(type, values)) <= {float}:
        return all(map(math.isfinite, values))
    return all(map(finite_number, values))


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


# The literals json.dumps writes for non-finite floats, which JSON lacks.
_NON_FINITE = ("NaN", "Infinity", "-Infinity")
_NOT_BRACKET_OR_QUOTE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STRING = re.compile(rb'"[^"]*"')


def read_json(path: str, parse):
    """``parse`` of the JSON file ``path``; a file that cannot be read, is not
    strict JSON (RFC 8259: no ``NaN`` or ``Infinity``, no number past the
    float range, UTF-8 without a byte order mark) or nests deeper than
    :data:`MAX_JSON_DEPTH` raises InputError."""
    try:
        doc = _parse_json(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse(doc)


def _parse_json(path: str):
    """The document of the file ``path``, parsed by orjson, whose decimal to
    double conversion is correctly rounded, so each float is the one
    ``json.dumps`` wrote. orjson is imported here, so ``import sg`` never
    loads it, and the file's bytes are dropped when this returns, before a
    table is built from the document."""
    import orjson
    with open(path, "rb") as fh:
        text = fh.read()
    if (depth := _json_depth(text)) > MAX_JSON_DEPTH:
        raise ValueError(f"nesting depth {depth} exceeds {MAX_JSON_DEPTH}")
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        for literal in _NON_FINITE:
            if exc.doc.startswith(literal, exc.pos):
                raise ValueError(f"non-finite number {literal} at line {exc.lineno} "
                                 f"column {exc.colno}") from exc
        raise


def _json_depth(text: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text ``text``,
    brackets inside strings not counted. Escaped backslashes and quotes are
    dropped first (paired left to right, as a string reads them), then every
    byte but brackets and quotes, then each string; one C pass over the
    text and a short one over what is left."""
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(_STRING.sub(b"", text.translate(None, _NOT_BRACKET_OR_QUOTE)),
                          dtype=np.uint8)
    steps = np.where((marks == ord("[")) | (marks == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def write_json(path: str, doc: dict, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` as JSON and a newline; games and reports use
    indent 1. A non-finite float, which JSON lacks, is refused with
    RuntimeError before the file is opened."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"refusing to write NaN or inf into {path}: {exc}") from exc
    write_text(path, text + "\n")


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written raises InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def to_json_dict(game: StochasticGame) -> dict:
    """The game as a JSON document: each explicit row as one list of targets
    ``"s"`` and one of probabilities ``"p"``, each restart row as
    ``"uniform": true``, a weighted restart law (a quotient's) as its explicit
    row. Each row is the ``tolist()`` of its slice of the table's flat arrays
    (15 ms on the 300 x 4 game, against 21 ms for one ``tolist()`` of the
    whole table cut at ``indptr``), so every number is the Python int or
    float of the table and the document reads back to the same table bit
    for bit."""
    space, lay = game.space, game.layout
    k, ptr = lay.weights, lay.trans.indptr.tolist()
    targets, probs = lay.trans.indices, lay.trans.data
    law = None if (k == k[:1]).all() else (np.arange(k.size), lay.spread(1.0))

    def row(reward: float, uniform: bool, lo: int, hi: int) -> dict:
        if uniform and law is None:
            return {"reward": reward, "uniform": True}
        s, p = law if uniform else (targets[lo:hi], probs[lo:hi])
        return {"reward": reward, "next": {"s": s.tolist(), "p": p.tolist()}}

    rows = list(map(row, space.rewards.tolist(), lay.uniform_mask.tolist(), ptr, ptr[1:]))
    off = space.state_offset.tolist()
    return {"gamma": game.gamma,
            "states": [{"owner": OWNER_NAMES[owner], "actions": rows[off[s]:off[s + 1]]}
                       for s, owner in enumerate(game.owners.tolist())]}


_GAME_KEYS = frozenset(("gamma", "states"))
_STATE_KEYS = frozenset(("owner", "actions"))
_RESTART_KEYS = frozenset(("reward", "uniform"))
_EXPLICIT_KEYS = frozenset(("reward", "next"))
_FLAGGED_KEYS = _EXPLICIT_KEYS | {"uniform"}  # an explicit row with "uniform": false
_ROW_KEYS = frozenset(("s", "p"))
_JSON_INT = frozenset((int,))
_JSON_NUMBER = frozenset((int, float))


def _object(node, keys: frozenset, where: str) -> dict:
    """``node`` if it is a JSON object with exactly the keys ``keys``."""
    if type(node) is not dict or node.keys() != keys:
        got = sorted(map(str, node)) if type(node) is dict else type(node).__name__
        raise InputError(f"{where} must be an object with keys {sorted(keys)}, got {got}")
    return node


def _array(node, where: str) -> list:
    """``node`` if it is a JSON array."""
    if type(node) is not list:
        raise InputError(f"{where} must be a list, got {type(node).__name__}")
    return node


def _number(value, where: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, not a
    bool or a string."""
    if type(value) not in _JSON_NUMBER:
        raise InputError(f"{where} must be a number, got {value!r}")
    return float(value)


def _entries(values: list, kinds: frozenset, what: str) -> list:
    """``values`` if every one has an exact type in ``kinds``: one pass over
    the types, and a second only to name the first that fails."""
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise InputError(f"{what}, got {bad!r}")
    return values


def _compact_row(entries: list, where: str) -> dict:
    """A row in the legacy per-entry form ``[{"s": t, "p": p}, ...]`` as its
    compact twin ``{"s": [t, ...], "p": [p, ...]}``."""
    for entry in entries:
        _object(entry, _ROW_KEYS, f"transition entry at {where}")
    return {"s": [e["s"] for e in entries], "p": [e["p"] for e in entries]}


def from_json_dict(doc: dict) -> StochasticGame:
    """The game of a JSON document, read in one pass into the flat row arrays
    of :func:`_array_game` and then validated.

    An explicit row is ``{"s": [targets], "p": [probabilities]}``; a row in
    the legacy per-entry form ``[{"s": t, "p": p}, ...]`` is read as its
    compact twin and gives the same table. Refused with InputError: a key
    missing or unknown at any level, ``uniform`` other than true or false, a
    restart row that also has ``next``, ``gamma``, a reward or a probability
    that is not a JSON number, a target that is not an int (``0.7``,
    ``true``), ``s`` and ``p`` that are not lists of one length, what
    :func:`_array_game` cannot build and every fault :func:`validate` reports.
    """
    with refuse_malformed("game"):
        _object(doc, _GAME_KEYS, "a game")
        gamma = _number(doc["gamma"], "gamma")
        owners, n_actions, rewards, uniform, lengths = [], [], [], [], []
        targets, probs = [], []  # the rows' own lists, read into arrays sized once
        for s, state in enumerate(_array(doc["states"], "states")):
            owner = _object(state, _STATE_KEYS, f"state {s}")["owner"]
            if type(owner) is not str or owner not in OWNER_CODES:
                raise InputError(f"owner of state {s} must be 'min' or 'max', got {owner!r}")
            owners.append(OWNER_CODES[owner])
            acts = _array(state["actions"], f"actions of state {s}")
            n_actions.append(len(acts))
            for a, act in enumerate(acts):
                where = f"({s},{a})"
                if type(act) is not dict:
                    raise InputError(f"action {where} must be an object, got {type(act).__name__}")
                restart = act.get("uniform", False)
                if type(restart) is not bool:
                    raise InputError(f"uniform must be true or false at {where}, got {restart!r}")
                keys = (_RESTART_KEYS if restart else
                        _FLAGGED_KEYS if "uniform" in act else _EXPLICIT_KEYS)
                rewards.append(_number(_object(act, keys, f"action {where}")["reward"],
                                       f"reward at {where}"))
                uniform.append(restart)
                if restart:
                    lengths.append(0)
                    continue
                row = act["next"]
                if type(row) is list:
                    row = _compact_row(row, where)
                row = _object(row, _ROW_KEYS, f"transition row at {where}")
                row_s, row_p = row["s"], row["p"]
                if type(row_s) is not list or type(row_p) is not list or len(row_s) != len(row_p):
                    raise InputError(f"transition row at {where} must be lists s and p "
                                     "of one length")
                # 0.7 and true are no state; "1.0" and true are no probability
                targets.append(_entries(row_s, _JSON_INT, f"transition target at {where} "
                                        "must be an integer"))
                probs.append(_entries(row_p, _JSON_NUMBER, f"transition probability at "
                                      f"{where} must be a number"))
                lengths.append(len(row_s))
        # read into arrays sized once, not grown as two flat lists: that
        # growth fragmented the heap, about 9 MB more peak RSS on the
        # exact-hard pool
        nnz = sum(lengths)
        rows = (np.array(n_actions, dtype=np.int64), np.array(rewards, dtype=np.float64),
                np.array(uniform, dtype=bool), np.array(lengths, dtype=np.int64),
                np.fromiter(chain.from_iterable(targets), np.int64, count=nnz),
                np.fromiter(chain.from_iterable(probs), np.float64, count=nnz))
    return _valid(_array_game(gamma, owners, *rows, np.ones(len(owners))))


def save_game(game: StochasticGame, path: str) -> None:
    write_json(path, to_json_dict(game), indent=1)


def load_game(path: str) -> StochasticGame:
    return read_json(path, from_json_dict)
