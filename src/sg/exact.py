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
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .game import (ActionSpace, InputError, MIN_PLAYER, StochasticGame, check_discount,
                   prefer_dense)

EVAL_RESIDUAL_TOL = 1e-10
STATIONARY_TOL = 1e-10
STATIONARY_MAX_SWEEPS = 10 ** 6
FLUX_SUM_RTOL = 1e-8
VI_MAX_SWEEPS = 10 ** 7
PI_MAX_ITER = 10 ** 6
SI_MAX_OUTER = 10 ** 5
# Iterative refinement of every linear solve (see ``_refined_solve``).
REFINE_RTOL = 1e-13
REFINE_PASSES = 4
# Power-iteration sweeps before Cesaro averaging takes over.
PLAIN_SWEEPS = 10 ** 4
# Most floats a scan's strategy stack may hold (k * n^2, 8 MB).
STACK_FLOATS = 2 ** 20
# Most pure strategies an exhaustive scan will enumerate.
MAX_ENUMERATED_STRATEGIES = 10 ** 6
# Value-iteration tolerance of ``optimal_value``, the one route to v*.
OPTIMAL_VALUE_TOL = 1e-10


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

    def improving_steps(self) -> list[int]:
        """Indices of steps that changed at least one action."""
        return [i for i, ch in enumerate(self.changes) if ch]

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
    v = game.space.value_vector(v)
    return game.space.rewards + game.gamma * game.layout.p_dot(v)


def _segment_best(space: ActionSpace, q: np.ndarray,
                  slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's optimum and first near-optimal pair in a flat Q.

    ``q`` is one Q ``(n_pairs,)`` or a stack ``(k, n_pairs)``, reduced along
    its last axis. Q is negated at MAX pairs (exact), so one
    ``minimum.reduceat`` over the pair ranges of the states with a choice
    gives every owner's optimum with no padding to the widest state; a
    one-action state's optimum is its own pair. Returns
    ``(q_signed, best, first)``: the signed Q, the signed optimum per state,
    and per state the flat index of its lowest action whose signed Q is
    within ``slack`` of that optimum. Raises ValueError on a non-finite
    optimum, where the tie break would find no action.
    """
    offset = space.state_offset[:-1]
    states, pairs, starts = space.choice_states, space.choice_pairs, space.choice_starts
    q_signed = q * space.pair_sign
    q_choice = q_signed[..., pairs]
    best = q_signed[..., offset]
    best[..., states] = np.minimum.reduceat(q_choice, starts, axis=-1)
    if not np.isfinite(best).all():
        state = int(np.argwhere(~np.isfinite(best))[0, -1])
        raise ValueError(f"Q has a non-finite optimum at state {state}")
    hit = q_choice <= (best + slack)[..., space.pair_state[pairs]]
    first = np.empty(best.shape, dtype=np.int64)
    first[...] = offset
    first[..., states] = np.minimum.reduceat(np.where(hit, pairs, space.n_pairs), starts,
                                             axis=-1)
    return q_signed, best, first


def greedy_from_q(space: ActionSpace, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state optimum of a flat Q: min on MIN states, max on MAX states.

    ``q`` is one Q ``(n_pairs,)`` or a stack ``(k, n_pairs)``; the results
    have the same leading shape. Ties break to the lowest action index.
    Returns (values, strategy); raises ValueError when a state's optimum is
    not finite.
    """
    if q.ndim not in (1, 2) or q.shape[-1] != space.n_pairs:
        raise InputError(f"q shape {q.shape} != ({space.n_pairs},) or (k, {space.n_pairs})")
    _, _, first = _segment_best(space, q)
    return np.take_along_axis(q, first, axis=-1), first - space.state_offset[:-1]


def bellman(game: StochasticGame, v: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator."""
    value, _ = greedy_from_q(game.space, q_from_v(game, v))
    return value


def apply_strategy(game: StochasticGame, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """One strategy-restricted backup: r_sigma + gamma * P_sigma v."""
    game.space.check_strategy(sigma)
    q = q_from_v(game, v)
    return q[game.space.chosen_pairs(sigma)]


def half_from_q(space: ActionSpace, q: np.ndarray, pi: np.ndarray,
                owned: np.ndarray) -> np.ndarray:
    """Half operator read off a flat Q: ``pi`` on ``owned`` states, the optimum elsewhere."""
    pi = np.where(owned, pi, 0)
    space.check_strategy(pi)
    opt, _ = greedy_from_q(space, q)
    return np.where(owned, q[space.chosen_pairs(pi)], opt)


def half_bellman(game: StochasticGame, v: np.ndarray, pi: np.ndarray,
                 player: int) -> np.ndarray:
    """Half operator: ``pi`` fixed on ``player``'s states, the rest optimized."""
    return half_from_q(game.space, q_from_v(game, v), pi, game.owners == player)


# ---------------------------------------------------------------------------
# linear algebra for a fixed strategy

# A fixed strategy yields P_sigma = S + u w^T, with S the chosen pairs'
# explicit rows, u the chosen restart rows and w = k / sum(k) the game's
# restart law. A system builds no chain of its own: P x is the game table's
# ``p_dot`` at the chosen pairs, and P^T y pushes y, put on the chosen pairs,
# through the table's transpose and spreads u^T y by w. Let A be the states
# with an explicit row and those they reach. Permuted, M = I - gamma*S is
# blockdiag(I - gamma*S_AA, I), so only the block on A is assembled, from the
# entries ``ChainView.entries`` gathers, and factored, densely (LAPACK getrf)
# or by SuperLU as ``prefer_dense`` picks for its size and fill; outside A the
# solution is the right-hand side. The rank-one part is folded in by
# Sherman-Morrison, with k and sum(k) read from the table, followed by
# iterative refinement. On the worst-case instances and their quotients A is
# the few dozen chain states.


def _dense_lu(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.lu_factor(m)`` without its wrapper's per-call cost: a
    non-finite entry raises ValueError, an exactly singular m warns."""
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = sla.lapack.dgetrf(m, overwrite_a=True)
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      sla.LinAlgWarning, stacklevel=3)
    return lu, piv


class PolicyLinearSystem:
    def __init__(self, game: StochasticGame, sigma: np.ndarray,
                 discount: float | None = None):
        space, layout = game.space, game.layout
        space.check_strategy(sigma)
        n = game.n_states
        self._pairs = space.chosen_pairs(np.asarray(sigma, dtype=np.int64))
        self.gamma = game.gamma if discount is None else float(discount)
        check_discount(self.gamma)
        self.n = n
        self._layout = layout
        self.r = space.rewards.take(self._pairs)
        uniform = layout.uniform_mask.take(self._pairs)
        self._has_uniform = bool(uniform.any())
        self.u = uniform.astype(np.float64)
        # the states whose chosen row has entries, and those entries
        self._explicit = np.flatnonzero(layout.row_lengths.take(self._pairs))
        self._entries = layout.entries(self._pairs.take(self._explicit))
        targets = self._entries[1]
        active = np.zeros(n, dtype=bool)
        active[self._explicit] = True
        if self._explicit.size < n:
            active[targets] = True
        # None when A is every state: the whole chain is the block
        self._active = None if active.all() else np.flatnonzero(active)
        k = n if self._active is None else self._active.size
        self._dense = prefer_dense(k, k, targets.size)  # every entry of S lies in A x A
        self._lu = None

    @property
    def lu(self):
        # Factor I - gamma*S_AA lazily; transition-only uses never pay for it.
        if self._lu is None:
            lengths, cols, probs = self._entries
            k, rows, A = self.n, self._explicit, self._active
            if A is not None:  # rows and columns renumbered within A
                k, rows, cols = A.size, np.searchsorted(A, rows), np.searchsorted(A, cols)
            if self._dense:
                # each entry added into its cell in row order, as a CSR toarray does
                cells = np.repeat(rows * k, lengths) + cols
                S_AA = np.bincount(cells, weights=probs, minlength=k * k).reshape(k, k)
                self._lu = _dense_lu(np.eye(k) - self.gamma * S_AA)
            else:
                indptr = np.zeros(k + 1, dtype=lengths.dtype)
                indptr[rows + 1] = lengths
                np.cumsum(indptr, out=indptr)
                S_AA = sp.csr_matrix((probs, cols, indptr), shape=(k, k))
                self._lu = spla.splu(sp.identity(k, format="csc") - self.gamma * S_AA.tocsc())
        return self._lu

    def _block_solve(self, b: np.ndarray, transpose: bool) -> np.ndarray:
        if self._dense:
            lu, piv = self.lu
            x, _ = sla.lapack.dgetrs(lu, piv, np.asarray_chkfinite(b), trans=int(transpose))
            return x
        return self.lu.solve(b, trans="T" if transpose else "N")

    def _lu_solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(I - gamma*S)^-1 b, or (I - gamma*S^T)^-1 b: ``b`` outside A, the
        block solve on A."""
        if self._active is None:
            return self._block_solve(b, transpose)
        x = b.copy()
        if self._active.size:
            x[self._active] = self._block_solve(b[self._active], transpose)
        return x

    @cached_property
    def _fold(self) -> tuple[np.ndarray, float]:
        """M^-1 u and k^T M^-1 u, the Sherman-Morrison vector of ``solve``."""
        z = self._lu_solve(self.u)
        return z, self._layout.k_dot(z)

    @cached_property
    def _fold_t(self) -> tuple[np.ndarray, float]:
        """M^-T k and its mass on the restart rows, that of ``solve_transpose``."""
        z = self._lu_solve(self._layout.weights, transpose=True)
        return z, float(self.u @ z)

    def _pt_dot(self, y: np.ndarray) -> np.ndarray:
        """P_sigma^T y: explicit rows push their mass, restart rows spread theirs by w."""
        on_pairs = np.zeros(self._layout.trans.shape[0])
        on_pairs[self._pairs] = y
        out = self._layout.push(on_pairs)
        if self._has_uniform:
            out = out + self._layout.spread(float(self.u @ y))
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma) x, P_sigma x read off the table at the chosen pairs."""
        return x - self.gamma * self._layout.p_dot(x).take(self._pairs)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma^T) y."""
        return y - self.gamma * self._pt_dot(y)

    def _solve_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b)
        if self._has_uniform:
            z, z_weight = self._fold
            c = self.gamma / self._layout.weight_sum
            t = self._layout.k_dot(x) / (1.0 - c * z_weight)
            x = x + c * t * z
        return x

    def _solve_t_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b, transpose=True)
        if self._has_uniform:
            z, z_mass = self._fold_t
            c = self.gamma / self._layout.weight_sum
            s = float(self.u @ x) / (1.0 - c * z_mass)
            x = x + c * s * z
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (I - gamma P_sigma) x = b; ``residual`` then holds b - M x."""
        x, self.residual = _refined_solve(self._solve_once, self.matvec, b)
        return x

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """y with (I - gamma P_sigma^T) y = b; ``residual`` then holds b - M^T y."""
        x, self.residual = _refined_solve(self._solve_t_once, self.rmatvec, b)
        return x

    def step_distribution(self, lam: np.ndarray) -> np.ndarray:
        """P_sigma^T lam (one chain step on a distribution)."""
        return self._pt_dot(lam)


def _refined_solve(solve_once, apply, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``apply(x) = b`` by ``solve_once`` plus iterative refinement.

    ``b`` is one right-hand side (n,) or a stack (k, n). Each row stops at
    its own first pass whose residual is within ``REFINE_RTOL * (1 + max|b|)``,
    at most ``REFINE_PASSES`` passes; a finished row gets a zero correction.
    Returns ``(x, b - apply(x))``, the residual of the x returned.
    """
    x = solve_once(b)
    scale = 1.0 + np.abs(b).max(axis=-1, initial=0.0, keepdims=True)
    for _ in range(REFINE_PASSES):
        res = b - apply(x)
        open_rows = np.abs(res).max(axis=-1, initial=0.0, keepdims=True) > REFINE_RTOL * scale
        if not open_rows.any():
            return x, res
        x = x + solve_once(np.where(open_rows, res, 0.0))
    return x, b - apply(x)


def _check_flux(x: np.ndarray, gamma: float) -> None:
    """Flux rows (n,) or (k, n) are entrywise >= 1 and each sums to n/(1-gamma)."""
    if (x < 1.0 - 1e-9).any():
        raise RuntimeError("flux vector dipped below 1")
    expect = x.shape[-1] / (1.0 - gamma)
    if (np.abs(x.sum(axis=-1) - expect) > FLUX_SUM_RTOL * expect).any():
        raise RuntimeError("flux mass does not match n/(1-gamma)")


def _power_iteration(push, k: int, n: int) -> np.ndarray:
    """Stationary distributions of k chains by power iteration from uniform.

    ``push(y, rows)`` returns P_r^T y_r for the chains ``rows`` (indices into
    the k chains) still running. A chain stops at its own first sweep with
    max|P^T y - y| <= ``STATIONARY_TOL``; after ``PLAIN_SWEEPS`` sweeps each
    iterate is averaged with the previous one (Cesaro) to cover periodic
    chains. Rows of chains not converged within ``STATIONARY_MAX_SWEEPS``
    sweeps are NaN.
    """
    out = np.full((k, n), np.nan)
    rows = np.arange(k)
    lam = np.full((k, n), 1.0 / n)
    nxt = push(lam, rows)
    for it in range(STATIONARY_MAX_SWEEPS):
        nxt /= nxt.sum(axis=1, keepdims=True)
        if it >= PLAIN_SWEEPS:
            nxt = 0.5 * (nxt + lam)
            nxt /= nxt.sum(axis=1, keepdims=True)
        step = push(nxt, rows)  # also the next sweep's first step
        done = np.abs(step - nxt).max(axis=1) <= STATIONARY_TOL
        if done.any():
            out[rows[done]] = nxt[done]
            running = ~done
            rows, nxt, step = rows[running], nxt[running], step[running]
            if rows.size == 0:
                break
        lam, nxt = nxt, step
    return out


def evaluate(game: StochasticGame, sigma: np.ndarray) -> np.ndarray:
    """Exact value of a stationary strategy: solves (I - gamma P_sigma) v = r_sigma.

    The solve is accepted on its normwise backward error (Higham, *Accuracy
    and Stability of Numerical Algorithms*, sec. 7.1): with M = I - gamma
    P_sigma and ||M||_inf <= 1 + gamma, the residual must satisfy
    ||r - M v||_inf <= EVAL_RESIDUAL_TOL (||r||_inf + (1 + gamma) ||v||_inf).
    The bound grows with v, which near gamma = 1 is far larger than r. The
    residual is the one the solve's refinement computed for the v returned.
    """
    sys = PolicyLinearSystem(game, sigma)
    v = sys.solve(sys.r)
    res = float(np.abs(sys.residual).max())
    tol = EVAL_RESIDUAL_TOL * (float(np.abs(sys.r).max(initial=0.0))
                               + (1.0 + sys.gamma) * float(np.abs(v).max(initial=0.0)))
    if not res <= tol:  # a NaN residual is refused too
        raise RuntimeError(f"policy evaluation residual {res} exceeds {tol}")
    return v


def flux(game: StochasticGame, sigma: np.ndarray) -> np.ndarray:
    """Discounted visitation mass x = (I - gamma P_sigma^T)^{-1} 1.

    Entrywise >= 1, and sums to n/(1-gamma) (the resolvent's column sums).
    """
    sys = PolicyLinearSystem(game, sigma)
    x = sys.solve_transpose(np.ones(game.n_states))
    _check_flux(x, game.gamma)
    return x


def stationary_distribution(game: StochasticGame, sigma: np.ndarray) -> np.ndarray:
    """Stationary distribution of P_sigma by power iteration.

    Falls back to Cesaro averaging after the first 10^4 sweeps to cover
    periodic corner cases; raises if the chain has not converged within
    ``STATIONARY_MAX_SWEEPS`` sweeps (reducible or periodic chain).
    """
    sys = PolicyLinearSystem(game, sigma)
    lam = _power_iteration(lambda y, rows: sys.step_distribution(y[0])[None],
                           1, game.n_states)[0]
    if np.isnan(lam[0]):
        raise RuntimeError("power iteration did not converge; chain may be periodic or reducible")
    return lam


# ---------------------------------------------------------------------------
# value iteration


def value_iteration(game: StochasticGame, tol: float) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """Iterate the Bellman operator T from zero until v* is bracketed within tol.

    Stops on the span of the step d = v_i - v_{i-1} (MacQueen 1966; Porteus
    1971). T is monotone and shifts constants by gamma, T(v + c 1) = Tv +
    gamma c 1: the min/max Shapley operator has both, since every row of P
    sums to one and a min or max commutes with adding a constant. So the
    k-th later step v_{i+k} - v_{i+k-1} lies in [gamma^k min d,
    gamma^k max d], and summing them puts v* between v_i + gamma/(1-gamma)
    min d and v_i + gamma/(1-gamma) max d. Iteration stops at the first
    sweep whose bracket is at most tol wide, gamma/(1-gamma) (max d - min d)
    <= tol, and returns the bracket's midpoint, not the last iterate:
    v_i + gamma/(1-gamma) (max d + min d)/2, within tol/2 of v*. This never
    stops later than driving ||d||_inf below tol (1-gamma)/(2 gamma).

    Returns (value, the greedy strategy of Q at that value, trace). The
    trace has one row per sweep made, with residual ||d||_inf.
    """
    if not (tol > 0):
        raise InputError("tol must be positive")
    check_discount(game.gamma)  # the bracket needs a contraction
    scale = game.gamma / (1.0 - game.gamma)
    v = np.zeros(game.n_states)
    trace = SolveTrace()
    for it in range(1, VI_MAX_SWEEPS + 1):
        v_next, _ = greedy_from_q(game.space, q_from_v(game, v))
        d = v_next - v
        lo, hi = float(d.min()), float(d.max())
        trace.append(it, float(np.abs(d).max()), [], 0)
        v = v_next
        if scale * (hi - lo) <= tol:
            v = v + scale * (hi + lo) / 2.0
            _, sigma = greedy_from_q(game.space, q_from_v(game, v))
            return v, sigma, trace
    raise RuntimeError(f"value iteration exceeded {VI_MAX_SWEEPS} sweeps")


def optimal_value(game: StochasticGame) -> tuple[np.ndarray, np.ndarray]:
    """v* within OPTIMAL_VALUE_TOL / 2, and the greedy strategy of Q at it.

    The one route to v* that certificates and experiments read: value
    iteration at ``OPTIMAL_VALUE_TOL``.
    """
    v, sigma, _ = value_iteration(game, OPTIMAL_VALUE_TOL)
    return v, sigma


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
    q_signed, best, first = _segment_best(space, q_from_v(game, v), tol)
    # a one-action state neither gains nor moves: only the choice states count
    states = space.choice_states
    offset, incumbent = space.state_offset[states], sigma[states]
    choice = first[states] - offset
    gain = q_signed[offset + incumbent] - best[states]
    may_move = improvable[states]
    moved = np.flatnonzero(may_move & (gain > tol) & (choice != incumbent))
    new_sigma = sigma.copy()
    new_sigma[states[moved]] = choice[moved]
    flips = list(zip(states[moved].tolist(), incumbent[moved].tolist(),
                     choice[moved].tolist()))
    max_gain = float(np.maximum(gain, 0.0)[may_move].max(initial=0.0))
    return new_sigma, flips, max_gain


def _policy_iteration(game: StochasticGame, pi_init: np.ndarray,
                      fixed: tuple[int, np.ndarray] | None,
                      trace: SolveTrace, phase: str) -> tuple[np.ndarray, np.ndarray]:
    """Howard iteration over the states not owned by the fixed player.

    Returns the final strategy and its exact value (the last evaluation).
    """
    check_discount(game.gamma)
    game.space.check_strategy(pi_init)
    sigma = np.asarray(pi_init, dtype=np.int64).copy()
    if fixed is not None:
        player, fixed_sigma = fixed
        game.space.check_strategy(fixed_sigma)
        owned = game.owners == player
        sigma[owned] = np.asarray(fixed_sigma)[owned]
        improvable = ~owned
    else:
        owners = np.unique(game.owners)
        if owners.size > 1:
            raise InputError("policy_iteration without `fixed` requires a single-player game")
        improvable = np.ones(game.n_states, dtype=bool)

    evals = trace.policy_evaluations[-1] if trace.policy_evaluations else 0
    for it in range(1, PI_MAX_ITER + 1):
        v = evaluate(game, sigma)
        evals += 1
        new_sigma, flips, residual = improve(game, v, sigma, improvable)
        trace.append(it, residual, flips, evals, phase)
        if not flips:
            return sigma, v
        sigma = new_sigma
    raise RuntimeError(f"policy iteration exceeded {PI_MAX_ITER} iterations")


def policy_iteration(game: StochasticGame, pi_init: np.ndarray,
                     fixed: tuple[int, np.ndarray] | None = None) -> tuple[np.ndarray, SolveTrace]:
    """Howard policy iteration with exact evaluations.

    ``fixed=(player, strategy)`` freezes one player's actions, turning the
    game into an MDP for the opponent; without it the game must be owned by
    a single player. Each iteration evaluates exactly once and flips every
    strictly improving state, keeping incumbents on ties.
    """
    trace = SolveTrace()
    sigma, _ = _policy_iteration(game, pi_init, fixed, trace, "")
    return sigma, trace


# ---------------------------------------------------------------------------
# strategy iteration


def strategy_iteration(game: StochasticGame, sigma_init: np.ndarray) -> tuple[np.ndarray, SolveTrace]:
    """Two-step equilibrium scheme.

    Each outer iteration (I) fully optimizes the max player against the
    frozen min strategy by policy iteration warm-started at the current joint
    strategy, then (II) applies one greedy min-player update computed from the
    value just evaluated in step I. Stops when step II changes nothing: the
    max player's strategy is then a best response to the min player's, and
    no min-player switch improves on the value, so the result is an exact
    equilibrium.
    """
    game.space.check_strategy(sigma_init)
    sigma = np.asarray(sigma_init, dtype=np.int64).copy()
    trace = SolveTrace()
    min_states = game.owners == MIN_PLAYER
    for _ in range(SI_MAX_OUTER):
        sigma, v = _policy_iteration(game, sigma, (MIN_PLAYER, sigma), trace, "max-pi")
        new_sigma, flips, residual = improve(game, v, sigma, min_states)
        trace.append(0, residual, flips, trace.policy_evaluations[-1], "min-greedy")
        if not flips:
            return sigma, trace
        sigma = new_sigma
    raise RuntimeError(f"strategy iteration exceeded {SI_MAX_OUTER} outer iterations")


def best_response(game: StochasticGame, sigma: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray]:
    """Opponent's exact best response to ``player``'s part of ``sigma``.

    Returns (joint strategy, its exact value). The fixed player's actions are
    taken from ``sigma`` on their states.
    """
    trace = SolveTrace()
    joint, v = _policy_iteration(game, sigma, (player, sigma), trace, "")
    return joint, v


# ---------------------------------------------------------------------------
# flux / ergodicity scans


def strategy_count(game: StochasticGame) -> int:
    """Number of pure stationary strategies (joint, both players)."""
    return math.prod(int(k) for k in game.space.n_actions)


def _strategy_product(game: StochasticGame):
    """Every pure strategy as a tuple, refusing more than the enumeration cap."""
    if (total := strategy_count(game)) > MAX_ENUMERATED_STRATEGIES:
        raise InputError(f"{total} pure strategies exceed the enumeration cap "
                         f"{MAX_ENUMERATED_STRATEGIES}")
    return product(*(range(int(k)) for k in game.space.n_actions))


def enumerate_strategies(game: StochasticGame):
    for combo in _strategy_product(game):
        yield np.array(combo, dtype=np.int64)


def scan_stack(game: StochasticGame, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions and fluxes of a stack of strategies at once.

    ``sigmas`` is a (k, n) array, one pure strategy per row. Their dense
    chains are gathered once into a (k, n, n) stack; the stationary laws
    follow the power iteration of ``stationary_distribution`` row by row,
    and the fluxes come from one stacked solve of (I - gamma P^T) x = 1 with
    the refinement and checks of ``flux``. Returns ``(lam, x)``, both
    (k, n); the rows of chains that did not converge within
    ``STATIONARY_MAX_SWEEPS`` sweeps are NaN in both.
    """
    game.space.check_strategy(sigmas)
    sigmas = np.asarray(sigmas, dtype=np.int64)
    k, n = sigmas.shape
    P = game.layout.dense()[game.space.chosen_pairs(sigmas)]
    running = P

    def push(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        nonlocal running
        if len(rows) < len(running):  # some chains finished: drop them
            running = P[rows]
        return np.matmul(y[:, None, :], running)[:, 0, :]

    lam = _power_iteration(push, k, n)
    ok = ~np.isnan(lam[:, 0])
    x = np.full((k, n), np.nan)
    if ok.any():
        Pc = P[ok]
        A = np.eye(n) - game.gamma * Pc.transpose(0, 2, 1)
        x[ok], _ = _refined_solve(
            lambda b: np.linalg.solve(A, b[..., None])[..., 0],
            lambda y: y - game.gamma * np.matmul(y[:, None, :], Pc)[:, 0, :],
            np.ones((len(Pc), n)))
        _check_flux(x[ok], game.gamma)
    return lam, x


def _scan_each(game: StochasticGame, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scan_stack`` one strategy at a time, for chains held sparse."""
    lam = np.full(sigmas.shape, np.nan)
    x = np.full(sigmas.shape, np.nan)
    for i, sigma in enumerate(sigmas):
        try:
            lam[i] = stationary_distribution(game, sigma)
        except RuntimeError:
            continue
        x[i] = flux(game, sigma)
    return lam, x


def ratio_scan(game: StochasticGame,
               enumerate_all: bool = True,
               sample: int | None = None,
               seed: int | None = None,
               keep_rows: bool = True) -> RatioReport:
    """Stationary-mass and flux extremes over pure stationary strategies.

    ``enumerate_all=True`` scans every strategy (exact extrema);
    otherwise ``sample`` strategies are drawn uniformly with ``seed``.
    Strategies whose chain does not converge are skipped and counted.
    Strategies are scanned in chunks of at most ``STACK_FLOATS / n^2``: as
    one ``scan_stack`` per chunk when ``prefer_dense`` holds a strategy's chain
    densely (n x n with its mean explicit entries), else one chain at a time.
    """
    check_discount(game.gamma)
    if enumerate_all:
        strategies = _strategy_product(game)
    else:
        if sample is None or seed is None:
            raise InputError("sampled scan needs both `sample` and `seed`")
        if sample < 1:
            raise InputError("sampled scan needs `sample` >= 1")
        rng = np.random.default_rng(seed)
        counts = game.space.n_actions
        strategies = (rng.integers(0, counts) for _ in range(sample))

    n, space = game.n_states, game.space
    e = float(game.layout.row_lengths @ (1.0 / space.n_actions[space.pair_state]))
    scan = scan_stack if prefer_dense(n, n, e) else _scan_each
    chunk = max(1, STACK_FLOATS // (n * n))
    c_min, c_max = np.inf, -np.inf
    d_min, d_max = np.inf, -np.inf
    scanned = skipped = 0
    rows: list[tuple[str, float, float, float, float]] = []
    while block := list(islice(strategies, chunk)):
        sigmas = np.array(block, dtype=np.int64).reshape(len(block), n)
        lam, x = scan(game, sigmas)
        ok = ~np.isnan(lam[:, 0])
        skipped += len(block) - int(ok.sum())
        if not ok.any():
            continue
        sigmas, lam, x = sigmas[ok], lam[ok], x[ok]
        scanned += len(sigmas)
        lo, hi, xlo, xhi = lam.min(axis=1), lam.max(axis=1), x.min(axis=1), x.max(axis=1)
        c_min, c_max = min(c_min, float(lo.min())), max(c_max, float(hi.max()))
        d_min, d_max = min(d_min, float(xlo.min())), max(d_max, float(xhi.max()))
        if keep_rows:
            rows.extend(("|".join(map(str, sigma)), a, b, c, d) for sigma, a, b, c, d
                        in zip(sigmas.tolist(), lo.tolist(), hi.tolist(),
                               xlo.tolist(), xhi.tolist()))
    if scanned == 0:
        raise RuntimeError("no strategy produced a convergent chain")
    return RatioReport(delta_min=d_min, delta_max=d_max, c_min=c_min, c_max=c_max,
                       strategies_scanned=scanned, strategies_skipped=skipped,
                       per_strategy=rows)
