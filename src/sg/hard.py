"""Worst-case instance generators and their path verifiers.

Two families are provided:

* ``build_hi1``: a single-player maximization instance on ``T`` states where
  policy iteration started from the all-uniform policy is forced to correct
  exactly one action per evaluation, walking right-to-left along a chain of
  sqrt-scale length before the policy is anywhere near optimal.

* ``build_hi2``: a two-player instance where the outer min/max alternation
  rebuilds the max player's chain from scratch after every min-player
  correction, so the total number of single-action corrections is quadratic
  in the chain length.

The verifiers rerun the exact solvers on the generated instances and check
the predicted improvement path step by step, emitting machine-checkable
reports instead of crashing on mismatches. Each predicted move is verified
once: the strategy-iteration run checks every move on its own path through
the sequence it visits, and ``check_si_transitions`` probes only the rebuild
moves the run never makes.

Both instances are built from arrays through the table route of
:func:`sg.game.make_game`, with no per-state Python loop. The hi2 run and
probe, and :func:`hi2_vbar_signs`, solve on :func:`sg.game.quotient` of the
built instance, its exact lumped quotient: the ``T`` restart dummies of hi2
have one action, reward 0 and the restart row, so they share one value
under every strategy and form one restart class of weight ``T``, and 10,077
states become 78 at ``T = 10000``. Strategies are laid out over each
class's first member, ``meta.joints(cells, reps)``, and every flip is
reported at its full-game state, so reports, flips, evaluation counts and
phases are those of a full-game run. Over the 211 strategies evaluated at
``T = 10000`` the values agree within 4.6e-11 relative, above the forward
bound eps (1 + gamma)/(1 - gamma) = 3.6e-11 there: one strategy's value
ends 4.9e-11 from a long-double solve, after a refinement pass that the
stop rule asks for on a first solve already within the bound (ROADMAP item
3). The trace's residual column (each sweep's largest improvement) agrees
within 1.3e-12 absolute. The full game's mean value is the class-size weighted mean
k^T v_q / sum(k). The hi1 verifier and :func:`hi1_distribution_bounds`
stay on the full game, which is cheap there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .checks import CheckReport, Violation
from .exact import (SolveTrace, _improved, evaluate, policy_iteration,
                    stationary_distribution, strategy_iteration)
from .game import (InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame, _array_game,
                   check_fields, check_int, finite_number, finite_numbers, quotient,
                   refuse_malformed)

U, R = 0, 1  # action indices on two-action chain states
HI1_MIN_T = 48   # smallest HI1 size with s_prime >= 2
HI1_HORIZON = 4.0  # HI1's horizon 1/(1 - gamma) in units of T
HI2_MIN_T = 400  # smallest HI2 size the default reward scaling supports
# Largest gap between a scaled mean value and its first-order approximation
# that ``hi2_vbar_signs`` accepts.
VBAR_BAND = 10.0


# ---------------------------------------------------------------------------
# the instances' tables: every row is the restart row or one certain step

RESTART = -1  # the target that marks a pair's row as the restart row


def _restarts(count: int, reward: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` one-action states on the restart row, as the
    ``(n_actions, rewards, targets)`` of :func:`_point_game`."""
    return np.ones(count, np.int64), np.full(count, reward, np.float64), np.full(count, RESTART)


def _steps(targets: np.ndarray, reward: float,
           escape: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States that step to ``targets`` with ``reward``; with ``escape`` each
    has the restart row, reward 0, as its first action and the step second."""
    n = targets.size
    if not escape:
        return np.ones(n, np.int64), np.full(n, reward, np.float64), targets
    return (np.full(n, 2, np.int64),
            np.column_stack([np.zeros(n), np.full(n, reward, np.float64)]).ravel(),
            np.column_stack([np.full(n, RESTART), targets]).ravel())


def _point_game(gamma: float, blocks: list) -> StochasticGame:
    """The game of consecutive ``blocks`` of states, each
    ``(owner, n_actions, rewards, targets)``: a pair's row steps to its
    target with probability 1, or is the restart row at ``RESTART``."""
    owners = np.concatenate([np.full(block[1].size, block[0], np.int8) for block in blocks])
    n_actions, rewards, targets = (np.concatenate(column) for column in list(zip(*blocks))[1:])
    step = targets != RESTART
    return _array_game(gamma, owners, n_actions, rewards, ~step, step.astype(np.int64),
                       targets[step], np.ones(np.count_nonzero(step)), np.ones(owners.size))


# ---------------------------------------------------------------------------
# HI1: policy iteration walks one state per evaluation


@dataclass(frozen=True)
class Hi1Meta:
    """Bookkeeping for the policy-iteration instance.

    States are 0-based. The two-action states are the chain positions
    ``T - s_prime - 1 .. T - 2``; the rewarded state is ``T - 1``.
    ``gamma = 1 - 1/(HI1_HORIZON * T)``.
    """

    T: int
    s_prime: int
    gamma: float

    @property
    def chain_states(self) -> range:
        return range(self.T - self.s_prime - 1, self.T - 1)

    def policy_uniform(self) -> np.ndarray:
        return np.zeros(self.T, dtype=np.int64)

    def policy_chain(self, i: int) -> np.ndarray:
        """Policy with the top ``i`` chain states moved to R (0 <= i <= s_prime)."""
        pi = self.policy_uniform()
        pi[self.T - 1 - i:self.T - 1] = R
        return pi

    def policy_extreme(self) -> np.ndarray:
        return self.policy_chain(self.s_prime)


def build_hi1(T: int) -> tuple[StochasticGame, Hi1Meta]:
    """Maximization MDP: uniform restarts everywhere, one state rewarded 1,
    and a short right-moving chain in front of it.

    ``s_prime = floor(sqrt(T/12))`` keeps every policy's stationary mass
    within [1/(2T), (s_prime+1)/T]. Requires T >= HI1_MIN_T so s_prime >= 2,
    and a T small enough that gamma stays below 1 in floating point.
    """
    if not (T >= HI1_MIN_T):
        raise InputError(f"T must be at least {HI1_MIN_T}")
    s_prime = int(math.isqrt(T // 12))
    gamma = 1.0 - 1.0 / (HI1_HORIZON * T)
    if not (gamma < 1.0):
        raise InputError(f"T = {T} rounds gamma = 1 - 1/({HI1_HORIZON:g} T) to 1")
    meta = Hi1Meta(T=T, s_prime=s_prime, gamma=gamma)
    chain = meta.chain_states
    game = _point_game(gamma, [
        (MAX_PLAYER, *_restarts(chain.start, 0.0)),
        (MAX_PLAYER, *_steps(np.arange(chain.start + 1, chain.stop + 1), 0.0, escape=True)),
        (MAX_PLAYER, *_restarts(1, 1.0)),
    ])
    return game, meta


def verify_pi_path_hi1(T: int) -> tuple[SolveTrace, CheckReport]:
    """Run policy iteration from the all-uniform policy and check the path.

    Expected behavior: exactly ``s_prime`` improving iterations, each flipping
    the single state T-2, T-3, ... (0-based) in order, and the quarter-way
    policy still missing more than 0.1 of the final top-state value.
    """
    game, meta = build_hi1(T)
    sigma, trace = policy_iteration(game, meta.policy_uniform())
    violations: list[Violation] = []

    improving = trace.improving_steps()
    if len(improving) != meta.s_prime:
        violations.append(Violation("pi-path:count", (),
                                    float(len(improving)), float(meta.s_prime), 0.0))
    for k, step in enumerate(improving):
        flips = trace.changes[step]
        expected_state = T - 2 - k
        if len(flips) != 1:
            violations.append(Violation("pi-path:single-flip", (step,),
                                        float(len(flips)), 1.0, 0.0))
        elif flips[0] != (expected_state, U, R):
            violations.append(Violation("pi-path:order", (step,),
                                        float(flips[0][0]), float(expected_state), 0.0))
    if not np.array_equal(sigma, meta.policy_extreme()):
        violations.append(Violation("pi-path:terminal", (), 0.0, 1.0, 0.0))

    # 0.1-suboptimality witness at the quarter-way policy
    i_wit = meta.s_prime // 4
    v_wit = evaluate(game, meta.policy_chain(i_wit))
    v_end = evaluate(game, meta.policy_extreme())
    gap = float(v_end[T - 1] - v_wit[T - 1])
    if gap <= 0.1:  # a tenth of the top reward
        violations.append(Violation("pi-path:suboptimality", (i_wit,), gap, 0.1, 0.0))

    return trace, CheckReport(violations)


def hi1_distribution_bounds(T: int, num_policies: int, seed: int) -> CheckReport:
    """Stationary mass of random policies against the [1/(2T), (S'+1)/T] band."""
    game, meta = build_hi1(T)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    lo, hi = 1.0 / (2 * T), (meta.s_prime + 1) / T
    policies = [meta.policy_uniform(), meta.policy_extreme()]
    counts = game.space.n_actions
    policies += [rng.integers(0, counts)
                 for _ in range(check_int(num_policies, "num_policies", 0))]
    violations: list[Violation] = []
    for k, pi in enumerate(policies):
        try:
            lam = stationary_distribution(game, pi)
        except RuntimeError:
            violations.append(Violation("hi1-bounds:non-convergent", (k,), 0.0, 0.0, 0.0))
            continue
        if float(lam.min()) < lo - 1e-12:
            violations.append(Violation("hi1-bounds:lower", (k,), float(lam.min()), lo, 0.0))
        if float(lam.max()) > hi + 1e-12:
            violations.append(Violation("hi1-bounds:upper", (k,), float(lam.max()), hi, 0.0))
    return CheckReport(violations)


# ---------------------------------------------------------------------------
# HI2: strategy iteration pays a quadratic number of corrections


@dataclass(frozen=True)
class Hi2Config:
    """Size and reward knobs of the two-player instance.

    The defaults produced by :func:`default_hi2_rewards` make every exact
    comparison in the predicted improvement path hold with a margin at the
    supported sizes; they are validated by :func:`verify_si_path_hi2` rather
    than assumed.
    """

    T: int
    s_prime: int
    s_b: int
    s_b_prime: int
    switch_rewards: tuple[float, ...]   # r_1 .. r_{S'}, weakly decreasing
    r_goal: float
    r_delta: float
    r_delta_prime: float
    gamma: float

    def __post_init__(self) -> None:
        check_fields(self, "T s_prime s_b s_b_prime", lambda k: type(k) is int and k >= 1,
                     "a positive integer")
        check_fields(self, "r_goal r_delta r_delta_prime", finite_number, "a finite number")
        check_fields(self, "switch_rewards", lambda rs: type(rs) is tuple and finite_numbers(rs),
                     "a tuple of finite numbers")
        check_fields(self, "gamma", lambda g: finite_number(g) and 0 < g < 1, "in (0, 1)")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(doc: dict) -> "Hi2Config":
        with refuse_malformed("reward config"):
            return Hi2Config(**{**doc, "switch_rewards": tuple(doc["switch_rewards"])})


@dataclass(frozen=True)
class Hi2Meta:
    """State indexing and named strategies of the built instance.

    Layout order: ``T`` dummy states, the min chain m_1..m_{S'}, the min
    boosting chain b_1..b_{S_b}, the goal state, the max chain M_1..M_{S'},
    the max boosting chain B_1..B_{S_b'}, and the switching state last.
    """

    config: Hi2Config

    @property
    def T(self) -> int:
        return self.config.T

    @property
    def s_prime(self) -> int:
        return self.config.s_prime

    @property
    def n_states(self) -> int:
        c = self.config
        return c.T + 2 * c.s_prime + c.s_b + c.s_b_prime + 2

    def m(self, j: int) -> int:
        return self.T + (j - 1)

    def b(self, j: int) -> int:
        return self.T + self.s_prime + (j - 1)

    @property
    def goal(self) -> int:
        return self.T + self.s_prime + self.config.s_b

    def M(self, j: int) -> int:
        return self.goal + 1 + (j - 1)

    def B(self, j: int) -> int:
        return self.goal + 1 + self.s_prime + (j - 1)

    @property
    def switch(self) -> int:
        return self.n_states - 1

    def joint(self, i_min: int, i_max: int, z_max: int) -> np.ndarray:
        """(min_i, max_(i,z)): R on m_1..m_{i_min} and on M_1..M_{z_max}, U
        on the rest of both chains, the switch playing a_{i_max}, and every
        single-action state at 0."""
        sigma = np.zeros(self.n_states, dtype=np.int64)
        sigma[self.m(1):self.m(1) + i_min] = R
        sigma[self.M(1):self.M(1) + z_max] = R
        sigma[self.switch] = i_max - 1
        return sigma

    def joints(self, cells, states: np.ndarray) -> np.ndarray:
        """``joint(i_min, i_max, z_max)[states]`` for every row
        (i_min, i_max, z_max) of ``cells``, as a (len(cells), states.size)
        stack laid out over ``states`` alone: a strategy of the lumped
        quotient, with ``states`` its classes' first members."""
        i_min, i_max, z_max = np.asarray(cells, dtype=np.int64).reshape(-1, 3).T[..., None]
        on_m, on_M = states - self.m(1), states - self.M(1)
        sigma = np.where(((0 <= on_m) & (on_m < i_min)) | ((0 <= on_M) & (on_M < z_max)), R, U)
        return np.where(states == self.switch, i_max - 1, sigma)

    def describe(self, sigma: np.ndarray) -> tuple[int, int, int] | None:
        """Recognize a joint strategy as (i_min, i_max, z_max) if it is one."""
        def prefix_length(first: int) -> int | None:
            # R on a chain's first k states and on no other
            flags = sigma[first:first + self.s_prime] == R
            k = int(flags.sum())
            return k if flags[:k].all() else None

        i, z = prefix_length(self.m(1)), prefix_length(self.M(1))
        if i is None or z is None:
            return None
        a = int(sigma[self.switch]) + 1
        return (i, a, z)


def default_hi2_rewards(T: int) -> Hi2Config:
    """Size-scaled reward configuration for the two-player instance.

    Chain lengths scale with sqrt(T); the switch actions share one reward so
    the climbing comparisons reduce to discount-depth differences and the
    incumbent tie rule. The per-step chain rewards scale as 1/sqrt(T). The
    configuration is validated exactly by :func:`verify_si_path_hi2`.
    """
    if not (T >= HI2_MIN_T):
        raise InputError(f"T must be at least {HI2_MIN_T}")
    root = math.isqrt(T)
    s_prime = max(2, root // 10)
    s_b = max(s_prime + 1, int(0.15 * root))
    s_b_prime = max(s_b + 1, int(0.4 * root))
    return Hi2Config(
        T=T,
        s_prime=s_prime,
        s_b=s_b,
        s_b_prime=s_b_prime,
        switch_rewards=tuple([0.65] * s_prime),
        r_goal=1.0,
        r_delta=0.5 / root,
        r_delta_prime=0.5 / root,
        gamma=1.0 - 1.0 / (8.0 * T),
    )


def build_hi2(T: int, config: Hi2Config | None = None) -> tuple[StochasticGame, Hi2Meta]:
    """Assemble the five state groups of the two-player instance.

    Refused unless ``config`` (by default :func:`default_hi2_rewards`) was
    built for ``T`` and has chains the instance can be laid out with. Its
    reward ordering and range are verified and reported by
    :func:`verify_si_path_hi2` rather than enforced here, so deliberately
    broken configurations can witness path failures. Rewards lie in
    [-1, 1]; apply an affine reward map before handing the game to
    sampling-based solvers that need [0, 1].
    """
    c = config or default_hi2_rewards(T)
    if c.T != T:
        raise InputError(f"reward config was built for T={c.T}, not {T}")
    if not (c.s_b > c.s_prime and c.s_b_prime > c.s_prime):
        raise InputError("boosting chains must be longer than the action chains")
    if len(c.switch_rewards) != c.s_prime:
        raise InputError("need one switch reward per min-chain state")
    meta = Hi2Meta(config=c)
    m, b, M, B = meta.m(1), meta.b(1), meta.M(1), meta.B(1)
    # Each chain state j steps to state j - 1, its first state to the head
    # target; an action chain (m, M) may also escape by the restart row.
    return _point_game(c.gamma, [
        (MIN_PLAYER, *_restarts(T, 0.0)),
        (MIN_PLAYER, *_steps(np.r_[b + c.s_b - 1, m:m + c.s_prime - 1], c.r_delta, escape=True)),
        (MIN_PLAYER, *_steps(np.r_[meta.goal, b:b + c.s_b - 1], 0.0, escape=False)),
        (MIN_PLAYER, *_restarts(1, -c.r_goal)),
        (MAX_PLAYER, *_steps(np.r_[B + c.s_b_prime - 1, M:M + c.s_prime - 1],
                             -c.r_delta_prime, escape=True)),
        (MAX_PLAYER, *_steps(np.r_[meta.switch, B:B + c.s_b_prime - 1], 0.0, escape=False)),
        (MAX_PLAYER, np.array([c.s_prime]), np.array(c.switch_rewards, np.float64),
         np.arange(m, m + c.s_prime)),
    ]), meta


def _hi2_quotient(T: int, config: Hi2Config | None) -> tuple[StochasticGame, Hi2Meta, np.ndarray]:
    """The instance's exact lumped quotient, its meta, and the instance's
    first state in each class: a strategy maps down as ``sigma[reps]``."""
    game, meta = build_hi2(T, config)
    q, classes = quotient(game)
    return q, meta, np.unique(classes, return_index=True)[1]


def check_si_transitions(game: StochasticGame, meta: Hi2Meta,
                         reps: np.ndarray) -> list[Violation]:
    """The predicted rebuild moves off the strategy-iteration path.

    From every cell (min_i, max_(i,z)) with 1 <= i < S' and 0 <= z < S', one
    exact evaluate-and-improve sweep over the max player's states must
    rebuild to (min_i, max_(i+1,0)); a failure is reported as ``si-rebuild``
    at (i, z). The other predicted moves (every climb, every min update and
    the rebuild from z = S') lie on the path of the run in
    :func:`verify_si_path_hi2`, which makes the identical sweep from each of
    them, so its visited sequence verifies them there.

    ``game`` is the instance or its lumped quotient, and ``reps`` the
    instance's state behind each of its states (``np.arange`` on the
    instance), over which :meth:`Hi2Meta.joints` lays every cell out. The
    cells are evaluated one at a time and improved together, from one Q of
    the stacked values.
    """
    cells = [(i, z) for i in range(1, meta.s_prime) for z in range(meta.s_prime)]
    sigmas = meta.joints([(i, i, z) for i, z in cells], reps)
    values = np.array([evaluate(game, sigma) for sigma in sigmas]).reshape(sigmas.shape)
    got, _, _ = _improved(game, values, sigmas, game.owners == MAX_PLAYER)
    rebuilt = meta.joints([(i, i + 1, 0) for i in range(1, meta.s_prime)], reps)
    # the cells run i-major, S' of them per i
    missed = (got.reshape(rebuilt.shape[0], meta.s_prime, game.n_states)
              != rebuilt[:, None]).any(axis=-1).ravel()
    return [Violation("si-rebuild", cell, 0.0, 1.0, 0.0)
            for cell, miss in zip(cells, missed.tolist()) if miss]


def expected_si_path(meta: Hi2Meta) -> list[tuple[int, int, int]]:
    """The predicted joint-strategy path as (i_min, i_max, z_max) triples."""
    path = [(0, 1, 0)]
    for i in range(1, meta.s_prime + 1):
        for z in range(1, meta.s_prime + 1):
            path.append((i - 1, i, z))
        path.append((i, i, meta.s_prime))
        if i < meta.s_prime:
            path.append((i, i + 1, 0))
    return path


def verify_si_path_hi2(T: int, config: Hi2Config | None = None) -> tuple[SolveTrace, CheckReport]:
    """Run strategy iteration on the instance and verify the predicted path.

    Checks, in order: the switch rewards (weakly decreasing, inside
    (0, r_goal)), the rebuild moves off the path (:func:`check_si_transitions`),
    the visited strategy sequence of an actual run against the predicted
    path (which verifies every on-path move: a failing move makes the run
    diverge at or before it, reported as the first divergence), that any
    tail after the path moves only the max player, and the count of
    single-action max-player corrections, which must land in
    [S'(S'-1), S'(S'+2)]. The probe and the run solve on the instance's
    lumped quotient; the trace names full-game states.
    """
    lumped, meta, reps = _hi2_quotient(T, config)
    config = meta.config
    violations: list[Violation] = []
    rs = config.switch_rewards
    for k, (r1, r2) in enumerate(zip(rs, rs[1:])):
        if r2 > r1 + 1e-12:
            violations.append(Violation("si-config:reward-order", (k,), r2, r1, r2 - r1))
    for k, r in enumerate(rs):
        if not (0.0 < r < config.r_goal):
            violations.append(Violation("si-config:reward-range", (k,), r, config.r_goal, 0.0))
    violations += check_si_transitions(lumped, meta, reps)

    _, trace = strategy_iteration(lumped, meta.joints([(0, 1, 0)], reps)[0])
    full = reps.tolist()
    trace.changes = [[(full[s], old, new) for s, old, new in ch] for ch in trace.changes]

    # Replay the trace: apply each record's flips to the running strategy and
    # compare the visited strategies, each described as it is reached, with
    # the predicted path.
    path = expected_si_path(meta)
    current = meta.joint(0, 1, 0)
    described = [meta.describe(current)]
    for ch in trace.changes:
        if not ch:
            continue
        for s, old, new in ch:
            current[s] = new
        described.append(meta.describe(current))
    main = described[:len(path)]
    if main != path:
        first_bad = next((k for k, (got, want) in enumerate(zip(main, path))
                          if got != want), len(main))
        violations.append(Violation("si-path:sequence", (first_bad,), 0.0, 1.0, 0.0))
    # Anything after the predicted path may only touch the max player.
    for k in range(len(path), len(described)):
        d = described[k]
        if d is None or d[0] != meta.s_prime:
            violations.append(Violation("si-path:tail", (k,), 0.0, 1.0, 0.0))

    single_flips = si_single_flip_count(trace)
    s_prime = meta.s_prime
    lo, hi = s_prime * (s_prime - 1), s_prime * (s_prime + 2)
    if not (lo <= single_flips <= hi):
        violations.append(Violation("si-path:count", (), float(single_flips),
                                    float(lo), float(hi)))

    report = CheckReport(violations)
    return trace, report


def si_single_flip_count(trace: SolveTrace) -> int:
    """Number of evaluations whose improvement corrected exactly one action
    of the max player (the unit the quadratic lower bound counts)."""
    return sum(1 for k, ch in enumerate(trace.changes)
               if trace.phases[k] == "max-pi" and len(ch) == 1)


def hi2_vbar_signs(T: int, config: Hi2Config | None = None) -> CheckReport:
    """Sign pattern of the scaled mean values over the strategy grid.

    For every min index i and chain depth z, the pair (min_i, max_(i,z)) must
    have negative scaled mean value (the switch route reaches the goal) and
    (min_i, max_(i+1,z)) positive (the switch route escapes it). The positive
    family is also compared against its first-order approximation
    -(i + S_b + 1) r_goal + (1 + z + S_b') r within ``VBAR_BAND``. Each
    mean is read off the instance's lumped quotient (:func:`_scaled_mean`).
    """
    game, meta, reps = _hi2_quotient(T, config)
    c = meta.config
    violations: list[Violation] = []

    def scaled_mean(i: int, a: int, z: int) -> float:
        return _scaled_mean(game, evaluate(game, meta.joints([(i, a, z)], reps)[0]))

    for z in range(0, c.s_prime + 1):
        for i in range(1, c.s_prime + 1):
            y = scaled_mean(i, i, z)
            if y >= 0.0:
                violations.append(Violation("vbar-sign:negative", (i, z), y, 0.0, y))
        for i in range(0, c.s_prime):
            y = scaled_mean(i, i + 1, z)
            if y <= 0.0:
                violations.append(Violation("vbar-sign:positive", (i, z), y, 0.0, -y))
            approx = (-(i + c.s_b + 1) * c.r_goal
                      + (1 + z + c.s_b_prime) * c.switch_rewards[i])
            if abs(y - approx) > VBAR_BAND:
                violations.append(Violation("vbar-sign:band", (i, z), y, approx,
                                            abs(y - approx) - VBAR_BAND))
    return CheckReport(violations)


def _scaled_mean(game: StochasticGame, v: np.ndarray) -> float:
    """The instance's mean value scaled by (1 - gamma) n, read off a value
    ``v`` of its quotient as (1 - gamma) k^T v: the mean is the class-size
    weighted k^T v / sum(k), and sum(k) = n."""
    return (1.0 - game.gamma) * float(game.layout.k_dot(v))
