"""Exact full-knowledge planning: Bellman operators and equilibrium solvers.

Conventions shared by every routine here:

* the MIN player minimizes and the MAX player maximizes discounted reward;
* ``greedy_from_q`` breaks ties toward the lowest action index;
* ``improve``, the sweep of policy/strategy iteration, switches a state only
  on a strict improvement and otherwise keeps the incumbent action, which is
  the discipline the worst-case instances rely on;
* one "policy evaluation" is one exact linear solve for a fixed strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .game import ActionSpace, MIN_PLAYER, StochasticGame, validate_strategy

EVAL_RESIDUAL_TOL = 1e-10
STATIONARY_TOL = 1e-10
FLUX_SUM_RTOL = 1e-8
# Most pure strategies an exhaustive scan will enumerate.
MAX_ENUMERATED_STRATEGIES = 10 ** 6


# ---------------------------------------------------------------------------
# traces and reports


@dataclass
class SolveTrace:
    """Per-iteration log of an iterative solver.

    Stored columnar: ``changes[i]`` is a list of ``(state, old, new)`` action
    flips applied after the i-th step. ``policy_evaluations[i]`` counts exact
    linear solves performed up to and including step i (0 for value
    iteration, which never solves a linear system).
    """

    indices: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    changes: list[list[tuple[int, int, int]]] = field(default_factory=list)
    policy_evaluations: list[int] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)

    CSV_HEADER = "iteration,phase,residual,policy_evaluations,num_changes,changes"

    def append(self, index: int, residual: float,
               changes: list[tuple[int, int, int]],
               policy_evaluations: int, phase: str = "") -> None:
        self.indices.append(index)
        self.residuals.append(float(residual))
        self.changes.append(changes)
        self.policy_evaluations.append(policy_evaluations)
        self.phases.append(phase)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def total_policy_evaluations(self) -> int:
        return self.policy_evaluations[-1] if self.policy_evaluations else 0

    def improving_steps(self, phase: str | None = None) -> list[int]:
        """Indices of steps that changed at least one action."""
        return [i for i, ch in enumerate(self.changes)
                if ch and (phase is None or self.phases[i] == phase)]

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for i in range(len(self)):
            enc = "|".join(f"{s}:{old}->{new}" for s, old, new in self.changes[i])
            rows.append(f"{self.indices[i]},{self.phases[i]},{self.residuals[i]!r},"
                        f"{self.policy_evaluations[i]},{len(self.changes[i])},{enc}")
        return rows


@dataclass
class RatioReport:
    """Extremes of stationary mass and discounted flux over scanned strategies."""

    delta_min: float
    delta_max: float
    c_min: float
    c_max: float
    strategies_scanned: int
    strategies_skipped: int = 0
    per_strategy: list[tuple[str, float, float, float, float]] = field(default_factory=list)

    @property
    def flux_ratio(self) -> float:
        return self.delta_max / self.delta_min

    @property
    def ergodicity_ratio(self) -> float:
        return self.c_max / self.c_min

    CSV_HEADER = "strategy,lambda_min,lambda_max,flux_min,flux_max"

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for sid, cmin, cmax, dmin, dmax in self.per_strategy:
            rows.append(f"{sid},{cmin!r},{cmax!r},{dmin!r},{dmax!r}")
        return rows


# ---------------------------------------------------------------------------
# Bellman operators


def q_from_v(game: StochasticGame, v: np.ndarray) -> np.ndarray:
    """Q(v) = r + gamma * P v as a flat per-pair array."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (game.n_states,):
        raise ValueError(f"value vector shape {v.shape} != ({game.n_states},)")
    lay = game.layout
    return lay.space.rewards + game.gamma * lay.p_dot(v)


def greedy_from_q(space: ActionSpace, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state optimum of a flat Q: min on MIN states, max on MAX states.

    Ties break to the lowest action index. Returns (values, strategy).
    """
    if q.shape != (space.n_pairs,):
        raise ValueError(f"q shape {q.shape} != ({space.n_pairs},)")
    pad = space.pad(q)
    v = np.where(space.is_max, pad.max(axis=1), pad.min(axis=1))
    sigma = np.where(space.is_max, pad.argmax(axis=1), pad.argmin(axis=1))
    return v, sigma.astype(np.int64)


def bellman(game: StochasticGame, v: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator."""
    value, _ = greedy_from_q(game.space, q_from_v(game, v))
    return value


def apply_strategy(game: StochasticGame, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """One strategy-restricted backup: r_sigma + gamma * P_sigma v."""
    q = q_from_v(game, v)
    return q[game.space.chosen_pairs(sigma)]


def half_from_q(space: ActionSpace, q: np.ndarray, pi: np.ndarray,
                owned: np.ndarray) -> np.ndarray:
    """Half operator read off a flat Q: ``pi`` on ``owned`` states, the optimum elsewhere."""
    pi = np.asarray(pi)
    if pi.shape != (space.n_states,):
        raise ValueError("pi must assign an action to every state (used on owned ones)")
    bad = owned & ((pi < 0) | (pi >= space.n_actions))
    if bad.any():
        raise ValueError(f"pi undefined or invalid at owned state {int(np.flatnonzero(bad)[0])}")
    opt, _ = greedy_from_q(space, q)
    fixed = q[space.state_offset[:-1] + np.where(owned, pi, 0)]
    return np.where(owned, fixed, opt)


def half_bellman(game: StochasticGame, v: np.ndarray, pi: np.ndarray,
                 player: int) -> np.ndarray:
    """Half operator: ``pi`` fixed on ``player``'s states, the rest optimized."""
    return half_from_q(game.space, q_from_v(game, v), pi, game.owners == player)


# ---------------------------------------------------------------------------
# linear algebra for a fixed strategy

# A fixed strategy yields P_sigma = S + u (1/n) 1^T, the game's chain view on
# the chosen pairs (``sg.game.ChainView``). All solves below factor only
# M = I - gamma*S and fold the uniform rank-one part in via Sherman-Morrison,
# followed by iterative refinement.


class PolicyLinearSystem:
    def __init__(self, game: StochasticGame, sigma: np.ndarray,
                 discount: float | None = None):
        validate_strategy(game, sigma)
        lay = game.layout
        n = game.n_states
        pairs = lay.space.chosen_pairs(np.asarray(sigma, dtype=np.int64))
        self.gamma = game.gamma if discount is None else float(discount)
        self.n = n
        self.chain = lay.restrict(pairs)
        self.u = self.chain.uniform_mask.astype(np.float64)
        self.r = lay.space.rewards[pairs]
        self._lu = None
        self._dense = n <= 64  # small systems solve faster without sparse overhead

    @property
    def lu(self):
        # Factor I - gamma*S lazily; transition-only uses never pay for it.
        if self._lu is None:
            if self._dense:
                import scipy.linalg as sla
                M = np.eye(self.n) - self.gamma * self.chain.trans.toarray()
                self._lu = sla.lu_factor(M)
            else:
                M = sp.identity(self.n, format="csc") - self.gamma * self.chain.trans.tocsc()
                self._lu = spla.splu(M)
        return self._lu

    def _lu_solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        if self._dense:
            import scipy.linalg as sla
            return sla.lu_solve(self.lu, b, trans=1 if transpose else 0)
        return self.lu.solve(b, trans="T" if transpose else "N")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma) x."""
        return x - self.gamma * self.chain.p_dot(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma^T) y."""
        return y - self.gamma * self.chain.pt_dot(y)

    def _solve_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b)
        if self.chain.has_uniform:
            w = self._lu_solve(self.u)
            c = self.gamma / self.n
            t = float(x.sum()) / (1.0 - c * float(w.sum()))
            x = x + c * t * w
        return x

    def _solve_t_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b, transpose=True)
        if self.chain.has_uniform:
            w = self._lu_solve(np.ones(self.n), transpose=True)
            c = self.gamma / self.n
            s = float(self.u @ x) / (1.0 - c * float(self.u @ w))
            x = x + c * s * w
        return x

    def solve(self, b: np.ndarray, rtol: float = 1e-13, refine: int = 4) -> np.ndarray:
        x = self._solve_once(b)
        scale = 1.0 + float(np.abs(b).max(initial=0.0))
        for _ in range(refine):
            res = b - self.matvec(x)
            if float(np.abs(res).max(initial=0.0)) <= rtol * scale:
                break
            x = x + self._solve_once(res)
        return x

    def solve_transpose(self, b: np.ndarray, rtol: float = 1e-13, refine: int = 4) -> np.ndarray:
        x = self._solve_t_once(b)
        scale = 1.0 + float(np.abs(b).max(initial=0.0))
        for _ in range(refine):
            res = b - self.rmatvec(x)
            if float(np.abs(res).max(initial=0.0)) <= rtol * scale:
                break
            x = x + self._solve_t_once(res)
        return x

    def step_distribution(self, lam: np.ndarray) -> np.ndarray:
        """P_sigma^T lam (one chain step on a distribution)."""
        return self.chain.pt_dot(lam)


def evaluate(game: StochasticGame, sigma: np.ndarray) -> np.ndarray:
    """Exact value of a stationary strategy: solves (I - gamma P_sigma) v = r_sigma."""
    sys = PolicyLinearSystem(game, sigma)
    v = sys.solve(sys.r)
    res = float(np.abs(sys.r - sys.matvec(v)).max())
    tol = EVAL_RESIDUAL_TOL * (1.0 + float(np.abs(sys.r).max(initial=0.0)))
    if res > tol:
        raise RuntimeError(f"policy evaluation residual {res} exceeds {tol}")
    return v


def flux(game: StochasticGame, sigma: np.ndarray) -> np.ndarray:
    """Discounted visitation mass x = (I - gamma P_sigma^T)^{-1} 1.

    Entrywise >= 1, and sums to n/(1-gamma) (the resolvent's column sums).
    """
    sys = PolicyLinearSystem(game, sigma)
    x = sys.solve_transpose(np.ones(game.n_states))
    if (x < 1.0 - 1e-9).any():
        raise RuntimeError("flux vector dipped below 1")
    expect = game.n_states / (1.0 - game.gamma)
    if abs(float(x.sum()) - expect) > FLUX_SUM_RTOL * expect:
        raise RuntimeError("flux mass does not match n/(1-gamma)")
    return x


def stationary_distribution(game: StochasticGame, sigma: np.ndarray,
                            tol: float = STATIONARY_TOL,
                            max_iter: int = 10 ** 6) -> np.ndarray:
    """Stationary distribution of P_sigma by power iteration.

    Falls back to Cesaro averaging after the first 10^4 sweeps to cover
    periodic corner cases; raises if the chain has not converged within
    ``max_iter`` sweeps (reducible or periodic chain).
    """
    sys = PolicyLinearSystem(game, sigma)
    n = game.n_states
    lam = np.full(n, 1.0 / n)
    nxt = sys.step_distribution(lam)
    plain_phase = 10 ** 4
    for it in range(max_iter):
        nxt /= nxt.sum()
        if it >= plain_phase:
            nxt = 0.5 * (nxt + lam)
            nxt /= nxt.sum()
        step = sys.step_distribution(nxt)  # also the next sweep's first step
        if float(np.abs(step - nxt).max()) <= tol:
            return nxt
        lam, nxt = nxt, step
    raise RuntimeError("power iteration did not converge; chain may be periodic or reducible")


# ---------------------------------------------------------------------------
# value iteration


def value_iteration(game: StochasticGame, tol: float,
                    v0: np.ndarray | None = None,
                    max_iter: int = 10 ** 7) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """Iterate the Bellman operator until the output is tol-close to v*.

    The sweep residual ||v_i - v_{i-1}||_inf is driven below
    tol * (1 - gamma) / (2 gamma), which converts to a true distance bound
    ||v - v*||_inf <= tol via the contraction factor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gamma = game.gamma
    threshold = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else tol
    v = np.zeros(game.n_states) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    trace = SolveTrace()
    for it in range(1, max_iter + 1):
        q = q_from_v(game, v)
        v_next, _ = greedy_from_q(game.space, q)
        residual = float(np.abs(v_next - v).max())
        trace.append(it, residual, [], 0)
        v = v_next
        if residual <= threshold:
            q = q_from_v(game, v)
            value, sigma = greedy_from_q(game.space, q)
            return v, sigma, trace
    raise RuntimeError(f"value iteration exceeded {max_iter} sweeps")


# ---------------------------------------------------------------------------
# policy iteration


def improve(game: StochasticGame, v: np.ndarray, sigma: np.ndarray,
            improvable: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]], float]:
    """One strict-improvement sweep of ``sigma`` against Q(v).

    A state in ``improvable`` switches only if its best action beats the
    incumbent by more than a tie tolerance scaled to ``v``; among near-optimal
    actions (within that tolerance of the best) the lowest index wins.
    Returns (new strategy, flips as (state, old, new), max improvement).
    """
    space = game.space
    tol = 1e-9 * (1.0 + float(np.abs(v).max(initial=0.0)))
    q = q_from_v(game, v)
    pad = space.pad(q)
    q_inc = q[space.chosen_pairs(sigma)]

    best = np.where(space.is_max, pad.max(axis=1), pad.min(axis=1))
    gain = np.where(space.is_max, best - q_inc, q_inc - best)
    flip_mask = improvable & (gain > tol)

    new_sigma = sigma.copy()
    flips: list[tuple[int, int, int]] = []
    if flip_mask.any():
        near_best = np.where(space.is_max[:, None],
                             pad >= (best - tol)[:, None],
                             pad <= (best + tol)[:, None])
        choice = near_best.argmax(axis=1)
        for s in np.flatnonzero(flip_mask):
            old = int(sigma[s])
            new = int(choice[s])
            if new != old:
                new_sigma[s] = new
                flips.append((int(s), old, new))
    max_gain = float(np.maximum(gain, 0.0)[improvable].max(initial=0.0))
    return new_sigma, flips, max_gain


def _policy_iteration(game: StochasticGame, pi_init: np.ndarray,
                      fixed: tuple[int, np.ndarray] | None,
                      trace: SolveTrace, phase: str,
                      max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Howard iteration over the states not owned by the fixed player.

    Returns the final strategy and its exact value (the last evaluation).
    """
    sigma = np.asarray(pi_init, dtype=np.int64).copy()
    if fixed is not None:
        player, fixed_sigma = fixed
        owned = game.owners == player
        sigma[owned] = np.asarray(fixed_sigma)[owned]
        improvable = ~owned
    else:
        owners = np.unique(game.owners)
        if owners.size > 1:
            raise ValueError("policy_iteration without `fixed` requires a single-player game")
        improvable = np.ones(game.n_states, dtype=bool)
    validate_strategy(game, sigma)

    evals = trace.policy_evaluations[-1] if trace.policy_evaluations else 0
    for it in range(1, max_iter + 1):
        v = evaluate(game, sigma)
        evals += 1
        new_sigma, flips, residual = improve(game, v, sigma, improvable)
        trace.append(it, residual, flips, evals, phase)
        if not flips:
            return sigma, v
        sigma = new_sigma
    raise RuntimeError(f"policy iteration exceeded {max_iter} iterations")


def policy_iteration(game: StochasticGame, pi_init: np.ndarray,
                     fixed: tuple[int, np.ndarray] | None = None,
                     max_iter: int = 10 ** 6) -> tuple[np.ndarray, SolveTrace]:
    """Howard policy iteration with exact evaluations.

    ``fixed=(player, strategy)`` freezes one player's actions, turning the
    game into an MDP for the opponent; without it the game must be owned by
    a single player. Each iteration evaluates exactly once and flips every
    strictly improving state, keeping incumbents on ties.
    """
    trace = SolveTrace()
    sigma, _ = _policy_iteration(game, pi_init, fixed, trace, "", max_iter)
    return sigma, trace


# ---------------------------------------------------------------------------
# strategy iteration


def strategy_iteration(game: StochasticGame, sigma_init: np.ndarray,
                       max_outer: int = 10 ** 5,
                       max_inner: int = 10 ** 6) -> tuple[np.ndarray, SolveTrace]:
    """Two-step equilibrium scheme.

    Each outer iteration (I) fully optimizes the max player against the
    frozen min strategy by policy iteration warm-started at the current joint
    strategy, then (II) applies one greedy min-player update computed from the
    value just evaluated in step I. Stops when neither step changes anything;
    the result is an exact equilibrium.
    """
    validate_strategy(game, sigma_init)
    sigma = np.asarray(sigma_init, dtype=np.int64).copy()
    trace = SolveTrace()
    min_states = game.owners == MIN_PLAYER
    for _ in range(max_outer):
        before = sigma.copy()
        sigma, v = _policy_iteration(game, sigma, (MIN_PLAYER, sigma), trace,
                                     "max-pi", max_inner)
        changed_max = bool((sigma != before).any())

        new_sigma, flips, residual = improve(game, v, sigma, min_states)
        trace.append(0, residual, flips, trace.policy_evaluations[-1], "min-greedy")
        changed_min = bool(flips)
        sigma = new_sigma

        if not changed_max and not changed_min:
            return sigma, trace
    raise RuntimeError(f"strategy iteration exceeded {max_outer} outer iterations")


def best_response(game: StochasticGame, sigma: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray]:
    """Opponent's exact best response to ``player``'s part of ``sigma``.

    Returns (joint strategy, its exact value). The fixed player's actions are
    taken from ``sigma`` on their states.
    """
    trace = SolveTrace()
    joint, v = _policy_iteration(game, sigma, (player, sigma), trace, "", 10 ** 6)
    return joint, v


# ---------------------------------------------------------------------------
# flux / ergodicity scans


def strategy_count(game: StochasticGame) -> int:
    """Number of pure stationary strategies (joint, both players)."""
    return math.prod(int(k) for k in game.space.n_actions)


def enumerate_strategies(game: StochasticGame, limit: int = MAX_ENUMERATED_STRATEGIES):
    total = strategy_count(game)
    if total > limit:
        raise ValueError(f"{total} pure strategies exceed the enumeration cap {limit}")
    for combo in product(*(range(int(k)) for k in game.space.n_actions)):
        yield np.array(combo, dtype=np.int64)


def ratio_scan(game: StochasticGame,
               enumerate_all: bool = True,
               sample: int | None = None,
               seed: int | None = None,
               keep_rows: bool = True) -> RatioReport:
    """Stationary-mass and flux extremes over pure stationary strategies.

    ``enumerate_all=True`` scans every strategy (exact extrema);
    otherwise ``sample`` strategies are drawn uniformly with ``seed``.
    Strategies whose chain does not converge are skipped and counted.
    """
    if enumerate_all:
        strategies = enumerate_strategies(game)
    else:
        if sample is None or seed is None:
            raise ValueError("sampled scan needs both `sample` and `seed`")
        rng = np.random.default_rng(seed)
        counts = game.space.n_actions
        strategies = (rng.integers(0, counts) for _ in range(sample))

    c_min, c_max = np.inf, -np.inf
    d_min, d_max = np.inf, -np.inf
    scanned = skipped = 0
    rows: list[tuple[str, float, float, float, float]] = []
    for sigma in strategies:
        sid = ",".join(str(int(a)) for a in sigma)
        try:
            lam = stationary_distribution(game, sigma)
        except RuntimeError:
            skipped += 1
            continue
        x = flux(game, sigma)
        scanned += 1
        c_min = min(c_min, float(lam.min()))
        c_max = max(c_max, float(lam.max()))
        d_min = min(d_min, float(x.min()))
        d_max = max(d_max, float(x.max()))
        if keep_rows:
            rows.append((sid, float(lam.min()), float(lam.max()),
                         float(x.min()), float(x.max())))
    if scanned == 0:
        raise RuntimeError("no strategy produced a convergent chain")
    return RatioReport(delta_min=d_min, delta_max=d_max, c_min=c_min, c_max=c_max,
                       strategies_scanned=scanned, strategies_skipped=skipped,
                       per_strategy=rows)
