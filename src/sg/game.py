"""Data model for discounted turn-based two-player zero-sum stochastic games.

A game is a set of states, each owned by the MIN or the MAX player, with one
or more actions per state. An action carries a reward and a sparse transition
row. Games are immutable after construction; every transform returns a new
game. Transition rows that are uniform over the whole state set are stored by
a compact marker so very large instances stay cheap to build and solve: a
transition law is held as ``P = S + u 1^T / n`` with sparse rows ``S`` and a
mask ``u`` of uniform rows, and :class:`ChainView` is the one place that
reads it (``P x``, ``P^T y``, the dense matrix, the padded table of
normalised rows, a subset of rows).

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


class InputError(ValueError):
    """A caller-supplied argument or file the library refuses.

    Raised by the library's argument checks only; internal invariants keep
    their own exception types. The ``sg`` CLI maps it to exit code 2.
    """


@dataclass(frozen=True)
class Action:
    """One action: reward plus a sparse transition row.

    ``uniform=True`` marks the row as uniform over *all* states (including
    the origin state); ``next_states``/``probs`` are then ignored.
    """

    reward: float
    next_states: np.ndarray | None = None
    probs: np.ndarray | None = None
    uniform: bool = False


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Flat state-action layout without transition data.

    This is the only structural view handed to sampling-based solvers; it
    deliberately omits the transition law.
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
    pair_ids: np.ndarray      # (n_pairs,) int, arange(n_pairs)

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
    """Transition rows ``P = S + u 1^T / n`` over ``n`` target states.

    ``trans`` holds the explicit rows S (empty for uniform rows);
    ``uniform_mask`` marks the rows u that are uniform over all states.
    """

    trans: sp.csr_matrix          # (n_rows, n_states)
    uniform_mask: np.ndarray      # (n_rows,) bool

    @cached_property
    def has_uniform(self) -> bool:
        return bool(self.uniform_mask.any())

    @cached_property
    def _transpose(self) -> sp.csr_matrix:
        return self.trans.T.tocsr()

    def p_dot(self, x: np.ndarray) -> np.ndarray:
        """P x: per-row expectation of ``x`` under one transition."""
        out = self.trans @ x
        if self.has_uniform:
            out = out + self.uniform_mask * float(x.mean())
        return out

    def pt_dot(self, y: np.ndarray) -> np.ndarray:
        """P^T y: the mass ``y`` on the rows pushed one step forward."""
        out = self._transpose @ y
        if self.has_uniform:
            out = out + float(self.uniform_mask @ y) / self.trans.shape[1]
        return out

    def dense(self) -> np.ndarray:
        """P as a dense (n_rows, n_states) array."""
        mat = self.trans.toarray()
        if self.has_uniform:
            n = self.trans.shape[1]
            mat = mat + np.outer(self.uniform_mask, np.full(n, 1.0 / n))
        return mat

    def row_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row padded to the widest as ``(support, probs)``, both of
        shape (n_rows, w), with ``probs`` normalised to sum 1 per row.

        A uniform row lists every state at 1/n. Padding columns have
        probability 0 and repeat the row's last real target, so a draw that
        lands there (a rounding remainder) still names a real state.
        """
        n = self.trans.shape[1]
        ptr, sparse = self.trans.indptr, ~self.uniform_mask
        lengths = np.where(sparse, np.diff(ptr), n)
        col = np.arange(lengths.max())
        # column of each entry, padding clipped to the last real one; for a
        # uniform row the column is the target state itself
        support = np.minimum(col, lengths[:, None] - 1)
        pos = ptr[:-1, None][sparse] + support[sparse]
        probs = np.full(support.shape, 1.0 / n)
        probs[sparse] = self.trans.data[pos]
        support[sparse] = self.trans.indices[pos]
        probs[col >= lengths[:, None]] = 0.0
        probs[sparse] /= probs[sparse].sum(axis=1, keepdims=True)
        return support, probs

    def restrict(self, rows: np.ndarray) -> ChainView:
        """The chain on the selected rows, e.g. the pairs a strategy picks."""
        return ChainView(self.trans[rows], self.uniform_mask[rows])


@dataclass(frozen=True, eq=False)
class GameLayout(ChainView):
    """Action space plus the all-pairs transition view (one row per pair)."""

    space: ActionSpace


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """Immutable description of a turn-based zero-sum stochastic game."""

    gamma: float
    owners: np.ndarray                 # (n_states,) int8, MIN_PLAYER/MAX_PLAYER
    actions: tuple[tuple[Action, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.actions)

    @property
    def n_pairs(self) -> int:
        return int(self.layout.space.n_pairs)

    @cached_property
    def layout(self) -> GameLayout:
        return _build_layout(self)

    @property
    def space(self) -> ActionSpace:
        return self.layout.space

    def n_actions_at(self, state: int) -> int:
        return len(self.actions[state])


def _build_layout(game: StochasticGame) -> GameLayout:
    n_states = game.n_states
    n_actions = np.array([len(acts) for acts in game.actions], dtype=np.int64)
    state_offset = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(n_actions, out=state_offset[1:])
    n_pairs = int(state_offset[-1])

    rewards = np.empty(n_pairs, dtype=np.float64)
    uniform_mask = np.zeros(n_pairs, dtype=bool)
    pair_state = np.repeat(np.arange(n_states, dtype=np.int64), n_actions)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    pair = 0
    for s, acts in enumerate(game.actions):
        for act in acts:
            rewards[pair] = act.reward
            if act.uniform:
                uniform_mask[pair] = True
            else:
                idx = np.asarray(act.next_states, dtype=np.int64)
                rows.append(np.full(idx.shape, pair, dtype=np.int64))
                cols.append(idx)
                data.append(np.asarray(act.probs, dtype=np.float64))
            pair += 1

    if rows:
        trans = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_pairs, n_states),
        )
    else:
        trans = sp.csr_matrix((n_pairs, n_states))

    is_max = game.owners.astype(bool)
    pair_sign = np.where(is_max[pair_state], -1.0, 1.0)
    pair_ids = np.arange(n_pairs, dtype=np.int64)

    for arr in (n_actions, state_offset, pair_state, rewards, uniform_mask,
                pair_sign, pair_ids):
        arr.setflags(write=False)

    space = ActionSpace(
        n_states=n_states,
        n_pairs=n_pairs,
        gamma=game.gamma,
        is_max=is_max,
        n_actions=n_actions,
        state_offset=state_offset,
        pair_state=pair_state,
        rewards=rewards,
        pair_sign=pair_sign,
        pair_ids=pair_ids,
    )
    return GameLayout(trans=trans, uniform_mask=uniform_mask, space=space)


def frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array that no writable array shares.

    An array that already is one (read-only, owning its memory) is returned
    as it is, so games built from other games' rows share them; anything
    else is copied.
    """
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _owned(act: Action) -> Action:
    """``act`` with read-only rows of its own; uniform rows hold no arrays."""
    if act.uniform:
        return act
    return Action(act.reward, frozen(act.next_states, np.int64), frozen(act.probs, np.float64))


def make_game(gamma: float,
              owners: Sequence[int],
              actions: Sequence[Sequence[Action]]) -> StochasticGame:
    """A game whose owner tags and rows are read-only arrays (see :func:`frozen`),
    so later writes to the caller's arrays cannot reach it."""
    return StochasticGame(gamma=float(gamma), owners=frozen(owners, np.int8),
                          actions=tuple(tuple(map(_owned, acts)) for acts in actions))


# ---------------------------------------------------------------------------
# validation


def _valid(game: StochasticGame) -> StochasticGame:
    if report := validate(game):
        raise InputError("invalid game: " + "; ".join(report))
    return game


def validate(game: StochasticGame) -> list[str]:
    """Return a report listing every violated structural invariant.

    An empty list means the game is well-formed. This never raises; loaders
    that want hard failures should raise on a non-empty report.
    """
    report: list[str] = []
    if game.n_states < 1:
        report.append("game has no states")
        return report
    if not (0.0 < game.gamma < 1.0):
        report.append(f"gamma {game.gamma} outside (0, 1)")
    if len(game.owners) != game.n_states:
        report.append("owner tags do not cover every state")
    else:
        bad = np.flatnonzero(~np.isin(game.owners, (MIN_PLAYER, MAX_PLAYER)))
        for s in bad:
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
            idx = np.asarray(act.next_states)
            probs = np.asarray(act.probs, dtype=np.float64)
            if idx.shape != probs.shape:
                report.append(f"transition index/probability shape mismatch at ({s},{a})")
                continue
            if idx.size == 0:
                report.append(f"empty transition row at ({s},{a})")
                continue
            if idx.min() < 0 or idx.max() >= game.n_states:
                report.append(f"transition target out of range at ({s},{a})")
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
    original max player.
    """
    game.space.check_unit_rewards()
    owners = np.where(game.owners == MIN_PLAYER, MAX_PLAYER, MIN_PLAYER).astype(np.int8)
    actions = tuple(
        tuple(Action(reward=1.0 - act.reward, next_states=act.next_states,
                     probs=act.probs, uniform=act.uniform) for act in acts)
        for acts in game.actions)
    return make_game(game.gamma, owners, actions)


def affine_reward_map(game: StochasticGame, scale: float, offset: float) -> StochasticGame:
    """Map rewards r -> (r + offset) / scale, preserving optimal strategies.

    For every strategy the values transform as
    v' = (v + offset / (1 - gamma)) / scale.
    """
    if not (scale > 0):
        raise InputError("scale must be positive")
    actions = tuple(
        tuple(Action(reward=(act.reward + offset) / scale, next_states=act.next_states,
                     probs=act.probs, uniform=act.uniform) for act in acts)
        for acts in game.actions)
    return _valid(make_game(game.gamma, game.owners, actions))


def with_gamma(game: StochasticGame, gamma: float) -> StochasticGame:
    """Same states, actions and rewards under a different discount factor.

    The copy shares the game's layout arrays and transition rows, which do
    not depend on the discount; only ``gamma`` is swapped.
    """
    if not (0.0 < gamma < 1.0):
        raise InputError("gamma must lie in (0, 1)")
    lay = game.layout
    copy = StochasticGame(gamma=float(gamma), owners=game.owners, actions=game.actions)
    # ``layout`` is a cached property: seed the copy's cache with the shared view
    copy.__dict__["layout"] = GameLayout(
        trans=lay.trans, uniform_mask=lay.uniform_mask,
        space=replace(lay.space, gamma=float(gamma)))
    return copy


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
                        next_states=frozen(targets, np.int64),
                        probs=frozen([e["p"] for e in nxt], np.float64),
                    ))
            actions.append(acts)
    return _valid(make_game(gamma, owners, actions))


def save_game(game: StochasticGame, path: str) -> None:
    write_json(path, to_json_dict(game), indent=1)


def load_game(path: str) -> StochasticGame:
    return read_json(path, from_json_dict)
