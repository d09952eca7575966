"""Validators for monotone value-strategy sequences and variance identities.

These run with full game access, so they can certify from the outside what a
sampling run can only promise with high probability: the monotone chain of a
sequence, its one-sided Bellman inequalities, and the resulting terminal
strategy quality. They also evaluate Markovian (stage-dependent) plans and
check the Bellman-style recursion that ties the variance of the discounted
return to the per-step variance-of-value vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import (apply_strategy, best_response, evaluate, greedy_from_q, optimal_value,
                    q_from_v, PolicyLinearSystem)
from .game import InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame, write_json
from .qvi import DECREASING, INCREASING, VSSequence

CHECK_SLACK = 1e-8


@dataclass
class Violation:
    prop: str
    index: tuple
    lhs: float
    rhs: float
    slack: float

    def __str__(self) -> str:
        return (f"{self.prop} at {self.index}: lhs={self.lhs!r} rhs={self.rhs!r} "
                f"(exceeds slack by {self.slack:.3e})")


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return "PASS (no violations)"
        lines = [f"FAIL ({len(self.violations)} violations)"]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"property": v.prop, "index": list(v.index), "lhs": v.lhs,
                 "rhs": v.rhs, "slack": v.slack}
                for v in self.violations
            ],
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict(), indent=1)


# ---------------------------------------------------------------------------
# variance of value


def variance_of_value(game: StochasticGame, v: np.ndarray) -> np.ndarray:
    """Per-pair variance of v under one transition: P v^2 - (P v)^2, floored at 0."""
    v = np.asarray(v, dtype=np.float64)
    lay = game.layout
    first = lay.p_dot(v)
    second = lay.p_dot(v * v)
    return np.maximum(second - first * first, 0.0)


# ---------------------------------------------------------------------------
# monotone sequence certification


def _optimal_value(game: StochasticGame, vstar: np.ndarray | None) -> np.ndarray:
    """The caller's v*, refused unless it is one finite entry per state, or
    ``optimal_value``'s."""
    if vstar is None:
        return optimal_value(game)[0]
    vstar = game.space.value_vector(vstar)
    if not np.isfinite(vstar).all():  # NaN never exceeds a bound: it would pass
        raise InputError("vstar holds non-finite numbers")
    return vstar


def _refuse_unfit(game: StochasticGame, seq: VSSequence) -> None:
    """Refuse a sequence with an unknown direction, arrays that do not fit
    the game, non-finite numbers or out-of-range strategies."""
    if seq.direction not in (DECREASING, INCREASING):
        raise InputError(f"unknown sequence direction {seq.direction!r}")
    for name, width in (("values", game.n_states), ("strategies", game.n_states),
                        ("q_values", game.n_pairs), ("error_bounds", game.n_pairs)):
        shape = getattr(seq, name).shape
        if shape != seq.values.shape[:1] + (width,):
            raise InputError(f"sequence {name} shape {shape} does not fit a game with "
                             f"{game.n_states} states and {game.n_pairs} pairs")
    if not all(np.isfinite(a).all() for a in (seq.values, seq.q_values, seq.error_bounds)):
        raise InputError("sequence holds non-finite numbers")
    game.space.check_strategy(seq.strategies)


def _check_sequence(game: StochasticGame, seq: VSSequence, sign: float,
                    eps_override, vstar: np.ndarray | None) -> CheckReport:
    """Shared body: sign=+1 checks a decreasing run, -1 an increasing one.

    Refuses an unfit sequence (:func:`_refuse_unfit`) or a non-finite
    ``eps_override`` before checking anything.
    """
    _refuse_unfit(game, seq)
    if eps_override is not None and not np.isfinite(eps_override).all():
        raise InputError("eps_override holds non-finite numbers")
    space = game.space
    vstar = _optimal_value(game, vstar)
    owned = game.owners == (MIN_PLAYER if sign > 0 else MAX_PLAYER)
    values, last = seq.values, seq.values.shape[0] - 1
    # Q(v_i) of every entry as one (entries, n_pairs) stack; one q_from_v per
    # entry, since a stacked matvec would sum in another order
    q = np.array([q_from_v(game, v) for v in values]).reshape(seq.q_values.shape)
    t_sigma = np.take_along_axis(q, space.chosen_pairs(seq.strategies), axis=1)
    t_opt, _ = greedy_from_q(space, q)
    eps = seq.error_bounds[1:] if eps_override is None else np.asarray(eps_override, float)
    # One row per property: name, lhs, rhs, side and the entry of its first
    # row; an entry violates it where side * (lhs - rhs) exceeds CHECK_SLACK.
    # 1: a monotone chain bounded by v*; 2: one-sided fixed-point
    # inequalities read off Q(v_i); 3: the stored Q against the exact backup
    # of v_{i-1}; 4: each value consistent with its own stored Q.
    table = (
        ("1:chain", values[1:], values[:-1], sign, 0),
        ("1:optimal-bound", values[last:], vstar, -sign, last),
        ("2:T-sigma", t_sigma, values, sign, 0),
        ("2:T", t_opt, values, sign, 0),
        ("2:half", np.where(owned, t_sigma, t_opt), values, sign, 0),
        ("3:q-backup", seq.q_values[1:], q[:-1] + sign * eps, sign, 1),
        ("4:greedy", values[1:], greedy_from_q(space, seq.q_values[1:])[0], sign, 1),
    )
    keys, found = [], []
    for rank, (_, lhs, rhs, side, first) in enumerate(table):
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        gap = side * (lhs - rhs) - CHECK_SLACK
        entry, pos = np.nonzero(gap > 0)
        keys.append((entry + first, np.full(entry.size, rank), pos))
        found.append((lhs[entry, pos], rhs[entry, pos], gap[entry, pos]))
    entry, rank, pos = (np.concatenate(k) for k in zip(*keys))
    lhs, rhs, gap = (np.concatenate(f) for f in zip(*found))
    # report order: entry, then property, then state (pair for 3:q-backup)
    return CheckReport([Violation(table[rank[j]][0], (int(entry[j]), int(pos[j])),
                                  float(lhs[j]), float(rhs[j]), float(gap[j]))
                        for j in np.lexsort((pos, rank, entry))])


def check_mdvss(game: StochasticGame, seq: VSSequence,
                eps_override: np.ndarray | float | None = None,
                vstar: np.ndarray | None = None) -> CheckReport:
    """Certify a decreasing sequence: chain above v*, one-sided backups, Q bounds."""
    if seq.direction != DECREASING:
        raise InputError(f"expected a decreasing sequence, got {seq.direction}")
    return _check_sequence(game, seq, +1.0, eps_override, vstar)


def check_mivss(game: StochasticGame, seq: VSSequence,
                eps_override: np.ndarray | float | None = None,
                vstar: np.ndarray | None = None) -> CheckReport:
    """Mirror certification for an increasing sequence."""
    if seq.direction != INCREASING:
        raise InputError(f"expected an increasing sequence, got {seq.direction}")
    return _check_sequence(game, seq, -1.0, eps_override, vstar)


def check_eps_optimal_implication(game: StochasticGame, seq: VSSequence,
                                  vstar: np.ndarray | None = None) -> CheckReport:
    """Terminal strategy quality implied by a valid sequence.

    For a decreasing run with eps = ||v_R - v*||_inf, the opponent's exact
    best response to the terminal min strategy must stay below v* + eps
    entrywise (mirrored for increasing runs). An unfit sequence is refused
    as in :func:`check_mdvss`.
    """
    _refuse_unfit(game, seq)
    vstar = _optimal_value(game, vstar)
    sign = +1.0 if seq.direction == DECREASING else -1.0
    player = MIN_PLAYER if sign > 0 else MAX_PLAYER
    eps = float(np.abs(seq.terminal_value - vstar).max())
    _, v_resp = best_response(game, seq.terminal_strategy, player)
    bound = vstar + sign * eps
    gap = sign * (v_resp - bound) - CHECK_SLACK
    return CheckReport([Violation("eps-optimal", (int(s),), float(v_resp[s]), float(bound[s]),
                                  float(gap[s])) for s in np.flatnonzero(gap > 0)])


# ---------------------------------------------------------------------------
# Markovian plans


@dataclass(frozen=True)
class MarkovianPlan:
    """Stage-dependent plan: finite prefix of strategies, stationary tail."""

    prefix: tuple[np.ndarray, ...]
    tail: np.ndarray

    @staticmethod
    def make(prefix, tail) -> "MarkovianPlan":
        return MarkovianPlan(tuple(np.asarray(p) for p in prefix), np.asarray(tail))


def _var_under(game: StochasticGame, sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-state variance of v under the chosen action's transition."""
    return variance_of_value(game, v)[game.space.chosen_pairs(sigma)]


def markovian_evaluate(game: StochasticGame, plan: MarkovianPlan) -> tuple[list[np.ndarray], np.ndarray]:
    """Stage values and exact return variance of a Markovian plan.

    Returns ``(values, var0)`` where ``values[t]`` is the value-to-go from
    stage t (the last entry is the stationary tail's value) and ``var0`` the
    per-state variance of the discounted return from stage 0, both computed
    by backward recursions on the first and second moments.
    """
    for sigma in plan.prefix + (plan.tail,):
        game.space.check_strategy(sigma)
    gamma = game.gamma

    v_tail = evaluate(game, plan.tail)
    values = [v_tail]
    for sigma in reversed(plan.prefix):
        values.append(apply_strategy(game, values[-1], sigma))
    values.reverse()

    # Tail variance solves (I - gamma^2 P_tail) w = gamma^2 var(v_tail)_tail.
    tail_sys = PolicyLinearSystem(game, plan.tail, discount=gamma * gamma)
    w = tail_sys.solve(gamma * gamma * _var_under(game, plan.tail, v_tail))
    for t in range(len(plan.prefix) - 1, -1, -1):
        sigma = plan.prefix[t]
        pw = game.layout.p_dot(w)[game.space.chosen_pairs(sigma)]
        w = gamma * gamma * (pw + _var_under(game, sigma, values[t + 1]))
    return values, w


def variance_bellman_residual(game: StochasticGame, plan: MarkovianPlan) -> float:
    """Max residual between the two routes to the return variance.

    Route one is the backward second-moment recursion of
    :func:`markovian_evaluate`; route two accumulates the series
    sum_t gamma^(2(t+1)) P_0 ... P_{t-1} var(v_{t+1})_{sigma_t}, truncated
    once gamma^(2t) beta^2 drops below 1e-12.
    """
    values, var_direct = markovian_evaluate(game, plan)
    gamma = game.gamma
    beta = 1.0 / (1.0 - gamma)
    n = game.n_states
    horizon = len(plan.prefix)

    def stage_sigma(t: int) -> np.ndarray:
        return plan.prefix[t] if t < horizon else plan.tail

    def stage_value(t: int) -> np.ndarray:
        return values[min(t, horizon)]

    total = np.zeros(n)
    product = np.eye(n)
    P = game.layout.dense()
    t = 0
    while gamma ** (2 * t) * beta ** 2 >= 1e-12:
        sigma_t = stage_sigma(t)
        w_t = _var_under(game, sigma_t, stage_value(t + 1))
        total = total + gamma ** (2 * (t + 1)) * (product @ w_t)
        # dense forward product B_t = P_0 P_1 ... P_{t-1}; fine at validator sizes
        product = product @ P[game.space.chosen_pairs(sigma_t)]
        t += 1
    return float(np.abs(var_direct - total).max())
