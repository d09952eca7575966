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
from itertools import islice, product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .game import ActionSpace, InputError, MIN_PLAYER, StochasticGame

EVAL_RESIDUAL_TOL = 1e-10
STATIONARY_TOL = 1e-10
FLUX_SUM_RTOL = 1e-8
PI_MAX_ITER = 10 ** 6
SI_MAX_OUTER = 10 ** 5
# Iterative refinement of every linear solve (see ``_refined_solve``).
REFINE_RTOL = 1e-13
REFINE_PASSES = 4
# Power-iteration sweeps before Cesaro averaging takes over.
PLAIN_SWEEPS = 10 ** 4
# Chains up to this many states are solved densely: per-strategy dense LU
# measured 253 vs 559 us per evaluation against sparse LU, and strategy
# scans stack them (k, n, n) instead of solving one at a time.
DENSE_MAX_STATES = 64
# Most floats a scan's strategy stack may hold (k * n^2, 8 MB).
STACK_FLOATS = 2 ** 20
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
    lay = game.layout
    v = lay.space.value_vector(v)
    return lay.space.rewards + game.gamma * lay.p_dot(v)


def _segment_best(space: ActionSpace, q: np.ndarray,
                  slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's optimum and first near-optimal pair in a flat Q.

    ``q`` is one Q ``(n_pairs,)`` or a stack ``(k, n_pairs)``, reduced along
    its last axis. Q is negated at MAX pairs (exact), so one
    ``minimum.reduceat`` over the pair ranges gives every owner's optimum
    with no padding to the widest state. Returns ``(q_signed, best, first)``:
    the signed Q, the signed optimum per state, and per state the flat index
    of its lowest action whose signed Q is within ``slack`` of that optimum.
    Raises ValueError on a non-finite optimum, where the tie break would find
    no action.
    """
    starts = space.state_offset[:-1]
    q_signed = q * space.pair_sign
    best = np.minimum.reduceat(q_signed, starts, axis=-1)
    if not np.isfinite(best).all():
        state = int(np.argwhere(~np.isfinite(best))[0, -1])
        raise ValueError(f"Q has a non-finite optimum at state {state}")
    hit = q_signed <= (best + slack)[..., space.pair_state]
    first = np.minimum.reduceat(np.where(hit, space.pair_ids, space.n_pairs), starts,
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

# A fixed strategy yields P_sigma = S + u (1/n) 1^T, the game's chain view on
# the chosen pairs (``sg.game.ChainView``). All solves below factor only
# M = I - gamma*S and fold the uniform rank-one part in via Sherman-Morrison,
# followed by iterative refinement.


class PolicyLinearSystem:
    def __init__(self, game: StochasticGame, sigma: np.ndarray,
                 discount: float | None = None):
        lay = game.layout
        lay.space.check_strategy(sigma)
        n = game.n_states
        pairs = lay.space.chosen_pairs(np.asarray(sigma, dtype=np.int64))
        self.gamma = game.gamma if discount is None else float(discount)
        self.n = n
        self.chain = lay.restrict(pairs)
        self.u = self.chain.uniform_mask.astype(np.float64)
        self.r = lay.space.rewards[pairs]
        self._lu = None
        self._dense = n <= DENSE_MAX_STATES

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

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _refined_solve(self._solve_once, self.matvec, b)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        return _refined_solve(self._solve_t_once, self.rmatvec, b)

    def step_distribution(self, lam: np.ndarray) -> np.ndarray:
        """P_sigma^T lam (one chain step on a distribution)."""
        return self.chain.pt_dot(lam)


def _refined_solve(solve_once, apply, b: np.ndarray) -> np.ndarray:
    """Solve ``apply(x) = b`` by ``solve_once`` plus iterative refinement.

    ``b`` is one right-hand side (n,) or a stack (k, n). Each row stops at
    its own first pass whose residual is within ``REFINE_RTOL * (1 + max|b|)``,
    at most ``REFINE_PASSES`` passes; a finished row gets a zero correction.
    """
    x = solve_once(b)
    scale = 1.0 + np.abs(b).max(axis=-1, initial=0.0, keepdims=True)
    for _ in range(REFINE_PASSES):
        res = b - apply(x)
        open_rows = np.abs(res).max(axis=-1, initial=0.0, keepdims=True) > REFINE_RTOL * scale
        if not open_rows.any():
            break
        x = x + solve_once(np.where(open_rows, res, 0.0))
    return x


def _check_flux(x: np.ndarray, gamma: float) -> None:
    """Flux rows (n,) or (k, n) are entrywise >= 1 and each sums to n/(1-gamma)."""
    if (x < 1.0 - 1e-9).any():
        raise RuntimeError("flux vector dipped below 1")
    expect = x.shape[-1] / (1.0 - gamma)
    if (np.abs(x.sum(axis=-1) - expect) > FLUX_SUM_RTOL * expect).any():
        raise RuntimeError("flux mass does not match n/(1-gamma)")


def _power_iteration(push, k: int, n: int, tol: float,
                     max_iter: int) -> np.ndarray:
    """Stationary distributions of k chains by power iteration from uniform.

    ``push(y, rows)`` returns P_r^T y_r for the chains ``rows`` (indices into
    the k chains) still running. A chain stops at its own first sweep with
    max|P^T y - y| <= tol; after ``PLAIN_SWEEPS`` sweeps each iterate is
    averaged with the previous one (Cesaro) to cover periodic chains. Rows
    of chains not converged within ``max_iter`` sweeps are NaN.
    """
    out = np.full((k, n), np.nan)
    rows = np.arange(k)
    lam = np.full((k, n), 1.0 / n)
    nxt = push(lam, rows)
    for it in range(max_iter):
        nxt /= nxt.sum(axis=1, keepdims=True)
        if it >= PLAIN_SWEEPS:
            nxt = 0.5 * (nxt + lam)
            nxt /= nxt.sum(axis=1, keepdims=True)
        step = push(nxt, rows)  # also the next sweep's first step
        done = np.abs(step - nxt).max(axis=1) <= tol
        if done.any():
            out[rows[done]] = nxt[done]
            running = ~done
            rows, nxt, step = rows[running], nxt[running], step[running]
            if rows.size == 0:
                break
        lam, nxt = nxt, step
    return out


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
    _check_flux(x, game.gamma)
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
    lam = _power_iteration(lambda y, rows: sys.step_distribution(y[0])[None],
                           1, game.n_states, tol, max_iter)[0]
    if np.isnan(lam[0]):
        raise RuntimeError("power iteration did not converge; chain may be periodic or reducible")
    return lam


# ---------------------------------------------------------------------------
# value iteration


def value_iteration(game: StochasticGame, tol: float,
                    max_iter: int = 10 ** 7) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """Iterate the Bellman operator from zero until the output is tol-close to v*.

    The sweep residual ||v_i - v_{i-1}||_inf is driven below
    tol * (1 - gamma) / (2 gamma), which converts to a true distance bound
    ||v - v*||_inf <= tol via the contraction factor.
    """
    if not (tol > 0):
        raise InputError("tol must be positive")
    gamma = game.gamma
    threshold = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else tol
    v = np.zeros(game.n_states)
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
    q_signed, best, first = _segment_best(space, q_from_v(game, v), tol)
    choice = first - space.state_offset[:-1]
    gain = q_signed[space.chosen_pairs(sigma)] - best
    moved = np.flatnonzero(improvable & (gain > tol) & (choice != sigma))
    new_sigma = sigma.copy()
    new_sigma[moved] = choice[moved]
    flips = list(zip(moved.tolist(), sigma[moved].tolist(), choice[moved].tolist()))
    max_gain = float(np.maximum(gain, 0.0)[improvable].max(initial=0.0))
    return new_sigma, flips, max_gain


def _policy_iteration(game: StochasticGame, pi_init: np.ndarray,
                      fixed: tuple[int, np.ndarray] | None,
                      trace: SolveTrace, phase: str,
                      max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Howard iteration over the states not owned by the fixed player.

    Returns the final strategy and its exact value (the last evaluation).
    """
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
                     max_iter: int = PI_MAX_ITER) -> tuple[np.ndarray, SolveTrace]:
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


def strategy_iteration(game: StochasticGame, sigma_init: np.ndarray) -> tuple[np.ndarray, SolveTrace]:
    """Two-step equilibrium scheme.

    Each outer iteration (I) fully optimizes the max player against the
    frozen min strategy by policy iteration warm-started at the current joint
    strategy, then (II) applies one greedy min-player update computed from the
    value just evaluated in step I. Stops when neither step changes anything;
    the result is an exact equilibrium.
    """
    game.space.check_strategy(sigma_init)
    sigma = np.asarray(sigma_init, dtype=np.int64).copy()
    trace = SolveTrace()
    min_states = game.owners == MIN_PLAYER
    for _ in range(SI_MAX_OUTER):
        before = sigma.copy()
        sigma, v = _policy_iteration(game, sigma, (MIN_PLAYER, sigma), trace,
                                     "max-pi", PI_MAX_ITER)
        changed_max = bool((sigma != before).any())

        new_sigma, flips, residual = improve(game, v, sigma, min_states)
        trace.append(0, residual, flips, trace.policy_evaluations[-1], "min-greedy")
        changed_min = bool(flips)
        sigma = new_sigma

        if not changed_max and not changed_min:
            return sigma, trace
    raise RuntimeError(f"strategy iteration exceeded {SI_MAX_OUTER} outer iterations")


def best_response(game: StochasticGame, sigma: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray]:
    """Opponent's exact best response to ``player``'s part of ``sigma``.

    Returns (joint strategy, its exact value). The fixed player's actions are
    taken from ``sigma`` on their states.
    """
    trace = SolveTrace()
    joint, v = _policy_iteration(game, sigma, (player, sigma), trace, "", PI_MAX_ITER)
    return joint, v


# ---------------------------------------------------------------------------
# flux / ergodicity scans


def strategy_count(game: StochasticGame) -> int:
    """Number of pure stationary strategies (joint, both players)."""
    return math.prod(int(k) for k in game.space.n_actions)


def _strategy_product(game: StochasticGame, limit: int):
    """Every pure strategy as a tuple, refusing more than ``limit`` of them."""
    total = strategy_count(game)
    if total > limit:
        raise InputError(f"{total} pure strategies exceed the enumeration cap {limit}")
    return product(*(range(int(k)) for k in game.space.n_actions))


def enumerate_strategies(game: StochasticGame, limit: int = MAX_ENUMERATED_STRATEGIES):
    for combo in _strategy_product(game, limit):
        yield np.array(combo, dtype=np.int64)


def scan_stack(game: StochasticGame, sigmas: np.ndarray,
               max_iter: int = 10 ** 6) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions and fluxes of a stack of strategies at once.

    ``sigmas`` is a (k, n) array, one pure strategy per row. Their dense
    chains are gathered once into a (k, n, n) stack; the stationary laws
    follow the power iteration of ``stationary_distribution`` row by row,
    and the fluxes come from one stacked solve of (I - gamma P^T) x = 1 with
    the refinement and checks of ``flux``. Returns ``(lam, x)``, both
    (k, n); the rows of chains that did not converge within ``max_iter``
    sweeps are NaN in both.
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

    lam = _power_iteration(push, k, n, STATIONARY_TOL, max_iter)
    ok = ~np.isnan(lam[:, 0])
    x = np.full((k, n), np.nan)
    if ok.any():
        Pc = P[ok]
        A = np.eye(n) - game.gamma * Pc.transpose(0, 2, 1)
        x[ok] = _refined_solve(lambda b: np.linalg.solve(A, b[..., None])[..., 0],
                               lambda y: y - game.gamma * np.matmul(y[:, None, :], Pc)[:, 0, :],
                               np.ones((len(Pc), n)))
        _check_flux(x[ok], game.gamma)
    return lam, x


def _scan_each(game: StochasticGame, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scan_stack`` one strategy at a time on sparse chains, for games too
    large to stack densely."""
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
    one ``scan_stack`` per chunk on games of up to ``DENSE_MAX_STATES``
    states, one sparse chain at a time on larger games.
    """
    if enumerate_all:
        strategies = _strategy_product(game, MAX_ENUMERATED_STRATEGIES)
    else:
        if sample is None or seed is None:
            raise InputError("sampled scan needs both `sample` and `seed`")
        if sample < 1:
            raise InputError("sampled scan needs `sample` >= 1")
        rng = np.random.default_rng(seed)
        counts = game.space.n_actions
        strategies = (rng.integers(0, counts) for _ in range(sample))

    n = game.n_states
    scan = scan_stack if n <= DENSE_MAX_STATES else _scan_each
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
            rows.extend((",".join(map(str, sigma)), a, b, c, d) for sigma, a, b, c, d
                        in zip(sigmas.tolist(), lo.tolist(), hi.tolist(),
                               xlo.tolist(), xhi.tolist()))
    if scanned == 0:
        raise RuntimeError("no strategy produced a convergent chain")
    return RatioReport(delta_min=d_min, delta_max=d_max, c_min=c_min, c_max=c_max,
                       strategies_scanned=scanned, strategies_skipped=skipped,
                       per_strategy=rows)
