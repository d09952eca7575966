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
from functools import cached_property, partial
from itertools import islice, product

import numpy as np

from .game import (ActionSpace, InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame,
                   check_discount, check_int, prefer_dense)

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
# Most floats a scan's strategy stack may hold (k * n^2, 8 MB); ``scan_stack``
# builds two matrices per chain from it and inverts them, so about 5x that.
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
    """Q(v) = r + gamma * P v as a flat per-pair array; a stack of values
    ``(k, n_states)`` gives a stack ``(k, n_pairs)``."""
    space = game.space
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != space.n_states:  # not a stack: one vector, or refused
        v = space.value_vector(v)
    return space.rewards + game.gamma * game.layout.p_dot(v)


def _segment_best(space: ActionSpace, q: np.ndarray,
                  slack: float | np.ndarray = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's optimum and first near-optimal pair in a flat Q.

    ``q`` is one Q ``(n_pairs,)`` or a stack ``(k, n_pairs)``, reduced along
    its last axis. Q is negated at MAX pairs (exact), so one
    ``minimum.reduceat`` over the pair ranges of the states with a choice
    gives every owner's optimum with no padding to the widest state; a
    one-action state's optimum is its own pair. Returns
    ``(q_signed, best, first)``: the signed Q, the signed optimum per state,
    and per state the flat index of its lowest action whose signed Q is
    within ``slack`` of that optimum (a stack may give one slack per row,
    as shape ``(k, 1)``). Raises ValueError on a non-finite optimum, where
    the tie break would find no action.
    """
    offset = space.state_offset[:-1]
    states, pairs, starts = space.choice_states, space.choice_pairs, space.choice_starts
    q_signed = q * space.pair_sign
    q_choice = q_signed.take(pairs, axis=-1)
    best = q_signed.take(offset, axis=-1)
    best[..., states] = np.minimum.reduceat(q_choice, starts, axis=-1)
    if not np.isfinite(best).all():
        state = int(np.argwhere(~np.isfinite(best))[0, -1])
        raise ValueError(f"Q has a non-finite optimum at state {state}")
    hit = q_choice <= (best + slack).take(space.pair_state.take(pairs), axis=-1)
    first = np.empty(best.shape, dtype=np.int64)
    first[...] = offset
    first[..., states] = np.minimum.reduceat(np.where(hit, pairs, space.n_pairs), starts,
                                             axis=-1)
    return q_signed, best, first


def _row_starts(a: np.ndarray) -> np.ndarray:
    """The flat index of each row's first entry in ``a`` (n,) or (k, n), as a
    ``(..., 1)`` column: ``a.take(index + _row_starts(a))`` reads ``a[..., index]``
    row by row in one flat take."""
    return np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1,))


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
    return q.take(first + _row_starts(q)), first - space.state_offset[:-1]


def bellman(game: StochasticGame, v: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator."""
    value, _ = greedy_from_q(game.space, q_from_v(game, v))
    return value


def apply_strategy(game: StochasticGame, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """One strategy-restricted backup: r_sigma + gamma * P_sigma v."""
    pairs = game.space.chosen_pairs(game.space.check_strategy(sigma))
    return q_from_v(game, v)[pairs]


def _owned(game: StochasticGame, player: int) -> np.ndarray:
    """The states ``player`` owns; a player neither MIN nor MAX is refused,
    since it owns no state and so would fix nothing."""
    if player not in (MIN_PLAYER, MAX_PLAYER):
        raise InputError(f"player must be MIN_PLAYER ({MIN_PLAYER}) or "
                         f"MAX_PLAYER ({MAX_PLAYER}), got {player!r}")
    return game.owners == player


# ---------------------------------------------------------------------------
# linear algebra for a fixed strategy

# A fixed strategy yields P_sigma = S + u w^T, with S the chosen pairs'
# explicit rows, u the chosen restart rows and w = k / sum(k) the game's
# restart law. A system holds S as a block B, applies P x and P^T y as B
# plus the rank-one term, and factors B on a set A of states; outside A,
# I - gamma*S is the identity. Kept apart, w adds no rounding to the
# refinement's residuals: summed into the product on hi2 at T = 400, it left
# a transposed solve 2.2e-12 from the exact one, against 3.8e-14. The
# table's storage decides, once, B, A and where w goes:
# * held densely, B is the n chosen rows and the dense LU factors them with
#   the restart law written in (``ChainView.chain``). Folded by
#   Sherman-Morrison instead, over the 211 strategies the hi2 verifier
#   evaluates on its quotient at T = 10^4, the median relative error against
#   a solve refined in long double went from 3.0e-14 to 2.7e-11, and 207
#   values instead of 2 were off by more than 1e-12;
# * held sparse, B is the rows with entries and the states they reach, kept
#   as its entries (``_Entries``) and factored as ``prefer_dense`` picks, and
#   the restart law is folded in by Sherman-Morrison, so that the states
#   with only a restart row stay outside the factor. On the full worst-case
#   instances A is the few dozen chain states among 10^4 or more.
# A dense factor is of M^T, not M, where M = I - gamma*(B + u w^T). A row
# of P sums to 1 in a valid game (a row of B alone to at most 1) and
# gamma < 1, so M is diagonally dominant by rows, with margin at least
# 1 - gamma in every row, and M^T by columns: partial pivoting on M^T makes
# no row interchange, and its growth factor is at most 2 (Higham, *Accuracy
# and Stability of Numerical Algorithms*, 2nd ed., sec. 9.5).
# M is built in C order, so ``M.T`` is M^T in Fortran order, which dgetrf
# overwrites in place; a solve with M is then dgetrs's transposed solve.
# On M itself f2py first copied the C-order array to Fortran order and
# dgetrf swapped rows: 1,125 interchanges over the 90 probe cells of the
# hi2 quotient at T = 10^4 and 5 random strategies of 300-state games at
# gamma 0.99, against none on M^T.
# Every solve is followed by iterative refinement. The factors are scipy's
# (LAPACK's dgetrf/dgetrs and SuperLU), imported by the functions that make
# and use them, so that importing sg, and running whatever factors nothing,
# never loads scipy; the first factor does, once per process.


def _dense_lu(mt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's dgetrf of ``mt``, overwritten in place when it is in Fortran
    order, as ``M.T`` of a C-order M is: ``scipy.linalg.lu_factor`` without
    its wrapper's per-call cost or its finiteness test, which
    ``PolicyLinearSystem.lu`` makes on the table's rows instead. An exactly
    singular matrix warns."""
    import scipy.linalg as sla
    lu, piv, info = sla.lapack.dgetrf(mt, overwrite_a=True)
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      sla.LinAlgWarning, stacklevel=3)
    return lu, piv


class _Entries:
    """A sparse block as its entries in row order (row, column, probability),
    repeated cells kept. A product adds them into each cell in that order,
    as a CSR product does, so the bits match. A scipy matrix and its
    transpose would cost about 16 and 18 us to build per system, where a
    product on hi1's 9-entry block costs 2 us."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray, k: int):
        self.rows, self.cols, self.probs, self.shape = rows, cols, probs, (k, k)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.bincount(self.rows, weights=self.probs * x[self.cols], minlength=self.shape[0])
        return out.astype(np.float64, copy=False)  # no entries: bincount counts, in int

    @property
    def T(self) -> "_Entries":
        return _Entries(self.cols, self.rows, self.probs, self.shape[0])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        k = self.shape[0]
        return np.bincount(self.rows * k + self.cols, weights=self.probs,
                           minlength=k * k).reshape(k, k)


class _DenseLU:
    """LAPACK's LU of M^T, M = I - gamma*block, behind SuperLU's ``solve``;
    ``block`` is a strategy's rows of P on a dense-held table, the restart
    law inside, or B on A on a sparse-held one.

    M is built in C order, so its ``.T`` is M^T in Fortran order, which
    dgetrf factors in place with no copy. M^T is diagonally dominant by
    columns, so partial pivoting makes no row interchange (``piv`` is
    ``arange(n)``) and the growth factor is at most 2 (Higham, sec. 9.5;
    see the comment above ``_dense_lu``)."""

    def __init__(self, block, gamma: float):
        m = np.multiply(block, -gamma, order="C")
        diagonal = m.reshape(-1)[::m.shape[0] + 1]  # a view, as m is in C order
        diagonal += 1.0
        self._factors = _dense_lu(m.T)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        # the factors are of M^T: M x = b is LAPACK's transposed solve
        import scipy.linalg as sla
        x, _ = sla.lapack.dgetrs(*self._factors, b, trans=int(trans == "N"))
        return x


def _super_lu(block: _Entries, gamma: float):
    """SuperLU of I - gamma*B; the restart law is always folded here.

    One CSC is built from the block's entries and the unit diagonal: each
    cell is 1 or 0 minus the sum, in row order, of its entries times gamma,
    and a cell that comes to exactly 0 is dropped, which is the matrix
    scipy's ``identity - gamma * B`` makes, so the factors are the same."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    k, m = block.shape[0], block.rows.size
    # each cell's key in column-major order: the m entries', then the diagonal's
    keys = np.r_[block.cols.astype(np.int64) * k + block.rows, np.arange(0, k * k, k + 1)]
    cells, at = np.unique(keys, return_inverse=True)
    values = (np.bincount(at[m:], minlength=cells.size)
              - np.bincount(at[:m], weights=gamma * block.probs, minlength=cells.size))
    keep = values != 0
    cells = cells[keep]
    indptr = np.searchsorted(cells, np.arange(0, k * k + 1, k))
    return spla.splu(sp.csc_matrix((values[keep], cells % k, indptr), shape=(k, k)))


class PolicyLinearSystem:
    def __init__(self, game: StochasticGame, sigma: np.ndarray,
                 discount: float | None = None):
        space, layout = game.space, game.layout
        self._pairs = space.chosen_pairs(space.check_strategy(sigma))
        self.gamma = game.gamma if discount is None else float(discount)
        check_discount(self.gamma)
        n = self.n = game.n_states
        self._layout = layout
        self.r = space.rewards.take(self._pairs)
        uniform = layout.uniform_mask.take(self._pairs)
        self._restarts = bool(np.count_nonzero(uniform))
        self.u = uniform.astype(np.float64)
        self._lu = None
        # the block B, applied over every state, and the LU of its part on A
        # (None: every state), with the restart law inside unless folded
        if layout.held_dense:
            self._active, self._block = None, layout.explicit(self._pairs)
            # the LU of the chosen rows of P: B itself when no restart row is
            # chosen, else gathered, the restart law in, at the first factor
            # (a closure over locals, not self, so the system holds no cycle)
            block, pairs, restarts = self._block, self._pairs, self._restarts
            self._factor = lambda gamma: _DenseLU(
                layout.chain(pairs) if restarts else block, gamma)
            self._folds = False
        else:
            rows = np.flatnonzero(layout.row_lengths.take(self._pairs))
            lengths, cols, probs = layout.entries(self._pairs.take(rows))
            active = np.zeros(n, dtype=bool)
            active[rows] = True
            if rows.size < n:
                active[cols] = True
            self._active = None if active.all() else np.flatnonzero(active)
            rows = np.repeat(rows, lengths)
            self._block = _Entries(rows, cols, probs, n)
            k, A = n, self._active
            if A is not None:  # rows and columns renumbered within A
                k, rows, cols = A.size, np.searchsorted(A, rows), np.searchsorted(A, cols)
            factor = _DenseLU if prefer_dense(k, k, cols.size) else _super_lu
            self._factor = partial(factor, _Entries(rows, cols, probs, k))
            self._folds = self._restarts

    @property
    def lu(self):
        # Factored lazily; transition-only uses never pay for it. A chosen row
        # that is not finite is refused here, as scipy's lu_factor refuses it.
        if self._lu is None:
            if not self._layout.finite_rows.take(self._pairs).all():
                raise ValueError("array must not contain infs or NaNs")
            self._lu = self._factor(self.gamma)
        return self._lu

    def _lu_solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M^-1 b or M^-T b, M the matrix that ``lu`` solves with (a dense
        LU holds M^T's factors): the solve on A, ``b`` itself elsewhere."""
        trans = "T" if transpose else "N"
        if self._active is None:
            return self.lu.solve(b, trans=trans)
        x, b_on = b.copy(), b[self._active]
        if b_on.size:  # an empty block has no LU
            x[self._active] = self.lu.solve(b_on, trans=trans)
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma) x: the block's rows, plus the rank-one part
        as ``p_dot`` applies it when the strategy picks a restart row."""
        px = self._block @ x
        if self._restarts:
            px += self.u * (self._layout.k_dot(x) / self._layout.weight_sum)
        return x - self.gamma * px

    def _pt_dot(self, y: np.ndarray) -> np.ndarray:
        """P_sigma^T y: the block's rows push their mass, restart rows spread
        theirs by w."""
        out = self._block.T @ y
        if self._restarts:
            out += self._layout.spread(float(self.u @ y))
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """(I - gamma * P_sigma^T) y."""
        return y - self.gamma * self._pt_dot(y)

    def _solve_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b)
        if self._folds:
            z, z_weight = self._fold
            c = self.gamma / self._layout.weight_sum
            t = self._layout.k_dot(x) / (1.0 - c * z_weight)
            x = x + c * t * z
        return x

    def _solve_t_once(self, b: np.ndarray) -> np.ndarray:
        x = self._lu_solve(b, transpose=True)
        if self._folds:
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


# each row's largest entry, kept as a (..., 1) column; 0 for an empty row
_row_max = partial(np.maximum.reduce, axis=-1, keepdims=True, initial=0.0)


def _refined_solve(solve_once, apply, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``apply(x) = b`` by ``solve_once`` plus iterative refinement.

    ``b`` is one right-hand side (n,) or a stack (k, n). Each row stops at
    its own first pass whose residual is within
    ``REFINE_RTOL * (1 + max|b| + 2 max|x|)``, x the first solve, at most
    ``REFINE_PASSES`` passes; a finished row gets a zero correction. The
    rounding of ``b - M x`` grows with |M||x| as well as with |b|, and
    ``2 max|x|`` stands for ``||M||_inf max|x|`` (||I - gamma P||_inf <=
    1 + gamma), so near gamma = 1, where |x| >> |b|, an accurate answer's
    rounding noise is not taken for an error: a pass would add cond(M)
    times that noise. A row whose residual is NaN counts as finished, and
    its NaN residual is returned for the caller to refuse.
    Returns ``(x, b - apply(x))``, the residual of the x returned.
    """
    x = solve_once(b)
    limit = REFINE_RTOL * (1.0 + _row_max(np.abs(b)) + 2.0 * _row_max(np.abs(x)))
    for _ in range(REFINE_PASSES):
        res = b - apply(x)
        done = ~(_row_max(np.abs(res)) > limit)
        if done.all():
            return x, res
        np.copyto(res, 0.0, where=done)
        x = x + solve_once(res)
    return x, b - apply(x)


def _check_flux(x: np.ndarray, gamma: float) -> None:
    """Flux rows (n,) or (k, n) are entrywise >= 1 and each sums to n/(1-gamma)."""
    if (x < 1.0 - 1e-9).any():
        raise RuntimeError("flux vector dipped below 1")
    expect = x.shape[-1] / (1.0 - gamma)
    if (np.abs(x.sum(axis=-1) - expect) > FLUX_SUM_RTOL * expect).any():
        raise RuntimeError("flux mass does not match n/(1-gamma)")


def _power_iteration(push, n: int) -> np.ndarray:
    """Stationary distribution of one chain by power iteration from uniform.

    ``push(y)`` returns P^T y. A sweep normalizes the last step into the
    iterate and pushes it one step; after ``PLAIN_SWEEPS`` sweeps each
    iterate is first averaged with the previous one (Cesaro) to cover
    periodic chains. The law is the iterate of the first sweep with
    max|P^T y - y| <= ``STATIONARY_TOL``; it is NaN at the first sweep whose
    gap is not finite, and when the chain has not converged within
    ``STATIONARY_MAX_SWEEPS`` sweeps. The iterate, the previous one and the
    gap reuse three arrays: fresh ones each sweep made hi1 at T = 196608
    about 25% slower (one thread, 2-core Xeon host).
    """
    lam, y, gap = np.full(n, 1.0 / n), np.empty(n), np.empty(n)
    step = push(lam)
    for it in range(STATIONARY_MAX_SWEEPS):
        np.divide(step, np.add.reduce(step), out=y)
        if it >= PLAIN_SWEEPS:
            np.add(y, lam, out=y)
            y *= 0.5
            y /= np.add.reduce(y)
        step = push(y)
        d = np.abs(np.subtract(step, y, out=gap), out=gap).max()
        if d <= STATIONARY_TOL:
            return y
        if not np.isfinite(d):
            break
        lam, y = y, lam
    return np.full(n, np.nan)


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
    """Stationary distribution of P_sigma by power iteration from uniform.

    The one-chain route, for a chain held sparse as well as dense (a
    ``ratio_scan`` of dense chains solves for its laws in ``scan_stack``
    instead). Falls back to Cesaro averaging after the first 10^4 sweeps to
    cover periodic corner cases. Convergence is tested after every sweep
    (``_power_iteration``), and the law returned is the iterate of the first
    converged sweep. A chain with several closed classes gets the law that
    the uniform start flows into. Raises if the chain has not converged
    within ``STATIONARY_MAX_SWEEPS`` sweeps (reducible or periodic chain), or
    at the first sweep whose iterate turned non-finite (a NaN in the table,
    which ``sg.game.validate`` reports).
    """
    sys = PolicyLinearSystem(game, sigma)
    lam = _power_iteration(sys.step_distribution, game.n_states)
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
    v, sigma = space.value_vector(v), space.check_strategy(sigma)
    if np.shape(improvable) != (game.n_states,) or np.asarray(improvable).dtype != bool:
        raise InputError(f"improvable must be a boolean mask of shape ({game.n_states},)")
    new_sigma, moved, gain = _improved(game, v, sigma, improvable)
    states = space.choice_states
    flipped = states[moved]
    flips = list(zip(flipped.tolist(), sigma[flipped].tolist(), new_sigma[flipped].tolist()))
    max_gain = float(np.maximum(gain, 0.0)[improvable[states]].max(initial=0.0))
    return new_sigma, flips, max_gain


def _improved(game: StochasticGame, v: np.ndarray, sigma: np.ndarray,
              improvable: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The selection of :func:`improve` for one value and strategy or a stack
    ``(k, n)`` of each, from one Q: a state in ``improvable`` moves to its
    lowest action within the tie tolerance 1e-9 (1 + |v|_inf) of its row's
    best, if that beats the incumbent by more than the tolerance.

    Returns the new strategies and, over ``space.choice_states`` (a
    one-action state neither gains nor moves), which states moved and each
    incumbent's gain.
    """
    space = game.space
    tol = 1e-9 * (1.0 + _row_max(np.abs(v)))
    q_signed, best, first = _segment_best(space, q_from_v(game, v), tol)
    states = space.choice_states
    offset, incumbent = space.state_offset[states], sigma[..., states]
    choice = first[..., states] - offset
    gain = q_signed.take(offset + incumbent + _row_starts(q_signed)) - best[..., states]
    moved = improvable[states] & (gain > tol) & (choice != incumbent)
    new_sigma = sigma.copy()
    new_sigma[..., states] = np.where(moved, choice, incumbent)
    return new_sigma, moved, gain


def _policy_iteration(game: StochasticGame, sigma: np.ndarray, player: int | None,
                      trace: SolveTrace, phase: str) -> tuple[np.ndarray, np.ndarray]:
    """Howard iteration from ``sigma`` over the states ``player`` does not
    own, whose actions stay those of ``sigma``; with ``player`` None, over
    every state of a single-player game.

    Returns the final strategy and its exact value (the last evaluation).
    """
    check_discount(game.gamma)
    sigma = game.space.check_strategy(sigma).copy()
    if player is not None:
        improvable = ~_owned(game, player)
    elif np.unique(game.owners).size > 1:
        raise InputError("policy_iteration requires a single-player game; "
                         "best_response fixes one player of two")
    else:
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


def policy_iteration(game: StochasticGame, pi_init: np.ndarray) -> tuple[np.ndarray, SolveTrace]:
    """Howard policy iteration with exact evaluations on a game owned by a
    single player (an MDP); :func:`best_response` runs it for one player
    against the other's fixed actions. Each iteration evaluates exactly once
    and flips every strictly improving state, keeping incumbents on ties.
    """
    trace = SolveTrace()
    sigma, _ = _policy_iteration(game, pi_init, None, trace, "")
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
    sigma = game.space.check_strategy(sigma_init).copy()
    trace = SolveTrace()
    min_states = game.owners == MIN_PLAYER
    for _ in range(SI_MAX_OUTER):
        sigma, v = _policy_iteration(game, sigma, MIN_PLAYER, trace, "max-pi")
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
    joint, v = _policy_iteration(game, sigma, player, trace, "")
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


def scan_stack(game: StochasticGame, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions and fluxes of a stack of strategies at once.

    ``sigmas`` is a (k, n) array, one pure strategy per row. Their dense
    chains are gathered once into a (k, n, n) stack, and each chain gives two
    linear systems: the bordered stationary system
    (I - P^T + (1/n) 1 1^T) lam = (1/n) 1 (Paige, Styan & Wachter 1975;
    Stewart, *Introduction to the Numerical Solution of Markov Chains*,
    1994), which is nonsingular exactly when the chain has one closed class,
    and the flux system (I - gamma P^T) x = 1. All 2k matrices are inverted
    in one batched call, each factored once, and every pass of the
    refinement of ``_refined_solve`` reuses the inverses. Only when numpy
    refuses the stack (some matrix is exactly singular) does a batched
    ``slogdet`` find those matrices, and the rest are inverted without their
    chains. A law is accepted, as the power iteration's is, when it is
    finite and max|P^T lam - lam| <= ``STATIONARY_TOL``, and when no entry
    is below -``STATIONARY_TOL``; entries in [-``STATIONARY_TOL``, 0) are
    then set to 0. The fluxes get the checks of ``flux``.

    Returns ``(lam, x)``, both (k, n). A chain's rows are NaN in both when
    its table rows are not finite, when either of its matrices is exactly
    singular (an exactly zero pivot; a chain with several closed classes
    may come out so), or when its law is refused.
    """
    sigmas = game.space.check_strategies(sigmas)
    k, n = sigmas.shape
    lam, x = np.full((k, n), np.nan), np.full((k, n), np.nan)
    table = game.layout.dense()
    pairs = game.space.chosen_pairs(sigmas)
    live = np.flatnonzero(game.layout.finite_rows[pairs].all(axis=1))
    PT = table[pairs[live]].transpose(0, 2, 1)
    # M[0] holds each live chain's bordered stationary matrix, M[1] its flux matrix
    M = np.eye(n) - np.array([1.0, game.gamma])[:, None, None, None] * PT
    M[0] += 1.0 / n
    try:
        inverse = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # some LU met an exactly zero pivot: drop those chains
        sign, _ = np.linalg.slogdet(M)  # 0 where that matrix's LU meets one
        solvable = (sign != 0).all(axis=0)
        live, PT, M = live[solvable], PT[solvable], M[:, solvable]
        inverse = np.linalg.inv(M)
    b = np.ones((2, live.size, n))
    b[0] /= n
    (law, flow), _ = _refined_solve(lambda r: np.matmul(inverse, r[..., None])[..., 0],
                                    lambda y: np.matmul(M, y[..., None])[..., 0], b)
    gap = np.abs(np.matmul(PT, law[..., None])[..., 0] - law).max(axis=1)
    ok = (gap <= STATIONARY_TOL) & (law >= -STATIONARY_TOL).all(axis=1)
    lam[live[ok]] = np.maximum(law[ok], 0.0)
    x[live[ok]] = flow[ok]
    _check_flux(x[live[ok]], game.gamma)
    return lam, x


def _scan_dense(game: StochasticGame, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scan_stack``, with every chain it leaves NaN although its rows are
    finite (an exactly singular system or a refused law: a chain with
    several closed classes) scanned again by ``_scan_each``, so that such a
    chain gets the law the uniform start flows into on either route."""
    lam, x = scan_stack(game, sigmas)
    again = np.isnan(lam[:, 0])
    if again.any():
        again &= game.layout.finite_rows[game.space.chosen_pairs(sigmas)].all(axis=1)
        lam[again], x[again] = _scan_each(game, sigmas[again])
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
               sample: int | None = None,
               seed: int | None = None,
               keep_rows: bool = True) -> RatioReport:
    """Stationary-mass and flux extremes over pure stationary strategies.

    Without ``sample`` every strategy is scanned (exact extrema), and a
    ``seed`` is refused, since it would draw nothing; with it, ``sample``
    strategies are drawn uniformly with ``seed``.
    Strategies are scanned in chunks of at most ``STACK_FLOATS / n^2``: as
    one ``scan_stack`` per chunk when ``prefer_dense`` holds a strategy's chain
    densely (n x n with its mean explicit entries), which solves for the
    stationary laws, else one chain at a time by power iteration
    (``stationary_distribution``). A chain the dense route leaves without a
    law although its rows are finite (a singular or refused system, as a
    chain with several closed classes may give) is scanned again one chain
    at a time, so both routes give it the law the uniform start flows into.
    A strategy whose law is still not found (no convergence, or rows that
    are not finite) is skipped and counted.
    """
    check_discount(game.gamma)
    if sample is None:
        if seed is not None:
            raise InputError("a `seed` draws a sampled scan: give `sample` with it")
        strategies = _strategy_product(game)
    else:
        if seed is None:
            raise InputError("sampled scan needs both `sample` and `seed`")
        sample = check_int(sample, "sample", 1)
        rng = np.random.default_rng(check_int(seed, "seed", 0))
        counts = game.space.n_actions
        strategies = (rng.integers(0, counts) for _ in range(sample))

    n, space = game.n_states, game.space
    e = float(game.layout.row_lengths @ (1.0 / space.n_actions[space.pair_state]))
    scan = _scan_dense if prefer_dense(n, n, e) else _scan_each
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
