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

The run and the probe solve on the instance's exact lumped quotient
(:func:`sg.game.quotient`): the ``T`` restart dummies of hi2 have one
action, reward 0 and the restart row, so they share one value under every
strategy and form one class, and 10,077 states become 78 at ``T = 10000``.
Strategies map down through each class's representative, and every flip is
reported at its full-game state, so reports, flips, evaluation counts and
phases are those of a full-game run. Over the 211 strategies evaluated at
``T = 10000`` the values agree within 3.01e-11 relative (the forward bound
eps (1 + gamma)/(1 - gamma) is 3.6e-11 there), and the trace's residual
column (each sweep's largest improvement) within 2.54e-12. The hi1 verifier,
:func:`hi1_distribution_bounds` and :func:`hi2_vbar_signs` stay on the full game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .checks import CheckReport, Violation
from .exact import (SolveTrace, evaluate, improve, policy_iteration,
                    stationary_distribution, strategy_iteration)
from .game import (Action, InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame,
                   check_fields, finite_number, make_game, quotient, refuse_malformed)

U, R = 0, 1  # action indices on two-action chain states
HI1_MIN_T = 48   # smallest HI1 size with s_prime >= 2
HI2_MIN_T = 400  # smallest HI2 size the default reward scaling supports
# Largest gap between a scaled mean value and its first-order approximation
# that ``hi2_vbar_signs`` accepts.
VBAR_BAND = 10.0


# ---------------------------------------------------------------------------
# HI1: policy iteration walks one state per evaluation


@dataclass(frozen=True)
class Hi1Meta:
    """Bookkeeping for the policy-iteration instance.

    States are 0-based. The two-action states are the chain positions
    ``T - s_prime - 1 .. T - 2``; the rewarded state is ``T - 1``.
    ``gamma = 1 - 1/(beta_factor * T)``.
    """

    T: int
    s_prime: int
    beta_factor: float
    gamma: float
    r_top: float = 1.0

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

    def stationary_uniform(self) -> np.ndarray:
        return np.full(self.T, 1.0 / self.T)

    def stationary_extreme(self) -> np.ndarray:
        """Closed form for the all-R policy's stationary distribution."""
        lam = np.ones(self.T)
        lam[self.T - 1 - self.s_prime:] = np.arange(1, self.s_prime + 2)
        return lam / lam.sum()


def build_hi1(T: int, beta_factor: float = 4.0,
              r_top: float = 1.0) -> tuple[StochasticGame, Hi1Meta]:
    """Maximization MDP: uniform restarts everywhere, one rewarded state,
    and a short right-moving chain in front of it.

    ``s_prime = floor(sqrt(T/12))`` keeps every policy's stationary mass
    within [1/(2T), (s_prime+1)/T]. Requires T >= HI1_MIN_T so s_prime >= 2.
    """
    if not (T >= HI1_MIN_T):
        raise InputError(f"T must be at least {HI1_MIN_T}")
    if not (beta_factor >= 1.0):
        raise InputError("beta_factor must be >= 1")
    s_prime = int(math.isqrt(T // 12))
    gamma = 1.0 - 1.0 / (beta_factor * T)
    if not (gamma < 1.0):
        raise InputError(f"beta_factor * T = {beta_factor * T} rounds gamma to 1")
    meta = Hi1Meta(T=T, s_prime=s_prime, beta_factor=beta_factor, gamma=gamma,
                   r_top=r_top)

    actions: list[list[Action]] = []
    for s in range(T):
        reward = meta.r_top if s == T - 1 else 0.0
        acts = [Action(reward=reward, uniform=True)]
        if s in meta.chain_states:
            acts.append(Action(reward=0.0,
                               next_states=np.array([s + 1], dtype=np.int64),
                               probs=np.array([1.0])))
        actions.append(acts)
    owners = np.full(T, MAX_PLAYER, dtype=np.int8)
    game = make_game(gamma, owners, actions)
    return game, meta


def hi1_mean_value(meta: Hi1Meta, i: int) -> float:
    """Closed-form average value of the policy with the top i states on R.

    Derived from the fixed-point equations of that policy: the rewarded state
    feeds a length-i chain, everything else restarts uniformly.
    """
    g, T, r = meta.gamma, meta.T, meta.r_top
    num = r * (1.0 - g ** (i + 1))
    den = T * (1.0 - g) ** 2 - g + (i + 1) * g * (1.0 - g) + g ** (i + 2)
    return num / den


def verify_pi_path_hi1(T: int, beta_factor: float = 4.0) -> tuple[SolveTrace, CheckReport]:
    """Run policy iteration from the all-uniform policy and check the path.

    Expected behavior: exactly ``s_prime`` improving iterations, each flipping
    the single state T-2, T-3, ... (0-based) in order, and the quarter-way
    policy still missing more than 0.1 of the final top-state value.
    """
    game, meta = build_hi1(T, beta_factor)
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
    if gap <= 0.1 * meta.r_top:
        violations.append(Violation("pi-path:suboptimality", (i_wit,),
                                    gap, 0.1 * meta.r_top, 0.0))

    return trace, CheckReport(violations)


def hi1_distribution_bounds(T: int, num_policies: int, seed: int,
                            beta_factor: float = 4.0) -> CheckReport:
    """Stationary mass of random policies against the [1/(2T), (S'+1)/T] band."""
    game, meta = build_hi1(T, beta_factor)
    rng = np.random.default_rng(seed)
    lo, hi = 1.0 / (2 * T), (meta.s_prime + 1) / T
    policies = [meta.policy_uniform(), meta.policy_extreme()]
    counts = game.space.n_actions
    policies += [rng.integers(0, counts) for _ in range(num_policies)]
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
        check_fields(self, "switch_rewards", lambda rs: type(rs) is tuple
                     and all(map(finite_number, rs)), "a tuple of finite numbers")
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

    def min_strategy(self, i: int) -> np.ndarray:
        """Min part: R on m_1..m_i, U elsewhere (single-action states at 0)."""
        pi = np.zeros(self.n_states, dtype=np.int64)
        pi[self.m(1):self.m(1) + i] = R
        return pi

    def max_strategy(self, i: int, z: int) -> np.ndarray:
        """Max part: switch plays a_i, R on M_1..M_z, U on the rest."""
        pi = np.zeros(self.n_states, dtype=np.int64)
        pi[self.switch] = i - 1
        pi[self.M(1):self.M(1) + z] = R
        return pi

    def joint(self, i_min: int, i_max: int, z_max: int) -> np.ndarray:
        return self.min_strategy(i_min) + self.max_strategy(i_max, z_max)

    def describe(self, sigma: np.ndarray) -> tuple[int, int, int] | None:
        """Recognize a joint strategy as (i_min, i_max, z_max) if it is one."""
        def prefix_length(flags: list[bool]) -> int | None:
            k = 0
            while k < len(flags) and flags[k]:
                k += 1
            return None if any(flags[k:]) else k

        i = prefix_length([sigma[self.m(j)] == R for j in range(1, self.s_prime + 1)])
        z = prefix_length([sigma[self.M(j)] == R for j in range(1, self.s_prime + 1)])
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

    Rewards lie in [-1, 1]; apply an affine reward map before handing the
    game to sampling-based solvers that need [0, 1].
    """
    config = config or default_hi2_rewards(T)
    if config.T != T:
        raise InputError(f"reward config was built for T={config.T}, not {T}")
    c = config
    if not (c.s_b > c.s_prime and c.s_b_prime > c.s_prime):
        raise InputError("boosting chains must be longer than the action chains")
    if len(c.switch_rewards) != c.s_prime:
        raise InputError("need one switch reward per min-chain state")
    # Reward ordering/range requirements are verified (and reported) by
    # verify_si_path_hi2 rather than enforced here, so deliberately broken
    # configurations can be used to witness path failures.
    meta = Hi2Meta(config=config)

    n = meta.n_states
    owners = np.empty(n, dtype=np.int8)
    actions: list[list[Action]] = [None] * n  # type: ignore[list-item]

    def point(target: int, reward: float) -> Action:
        return Action(reward=reward,
                      next_states=np.array([target], dtype=np.int64),
                      probs=np.array([1.0]))

    uniform = Action(reward=0.0, uniform=True)

    owners[:c.T] = MIN_PLAYER
    actions[:c.T] = [[uniform]] * c.T
    owners[meta.goal] = MIN_PLAYER
    actions[meta.goal] = [Action(reward=-c.r_goal, uniform=True)]

    # Each chain state j steps to state j - 1, its first state to the head
    # target; an action chain (m, M) may also escape uniformly.
    for state, length, owner, head, reward, escape in (
            (meta.m, c.s_prime, MIN_PLAYER, meta.b(c.s_b), c.r_delta, True),
            (meta.b, c.s_b, MIN_PLAYER, meta.goal, 0.0, False),
            (meta.M, c.s_prime, MAX_PLAYER, meta.B(c.s_b_prime), -c.r_delta_prime, True),
            (meta.B, c.s_b_prime, MAX_PLAYER, meta.switch, 0.0, False)):
        for j in range(1, length + 1):
            step = point(head if j == 1 else state(j - 1), reward)
            owners[state(j)] = owner
            actions[state(j)] = [uniform, step] if escape else [step]

    owners[meta.switch] = MAX_PLAYER
    actions[meta.switch] = [point(meta.m(i), c.switch_rewards[i - 1])
                            for i in range(1, c.s_prime + 1)]

    game = make_game(c.gamma, owners, actions)
    return game, meta


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

    ``game`` is the instance or its quotient, and ``reps`` the instance's
    state behind each of its states (``arange(n)`` for the instance itself).
    """
    max_states = game.owners == MAX_PLAYER
    violations: list[Violation] = []
    for i in range(1, meta.s_prime):
        for z in range(meta.s_prime):
            sigma = meta.joint(i, i, z)[reps]
            got, _, _ = improve(game, evaluate(game, sigma), sigma, max_states)
            if not np.array_equal(got, meta.joint(i, i + 1, 0)[reps]):
                violations.append(Violation("si-rebuild", (i, z), 0.0, 1.0, 0.0))
    return violations


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
    config = config or default_hi2_rewards(T)
    game, meta = build_hi2(T, config)
    lumped, classes = quotient(game)
    reps = np.unique(classes, return_index=True)[1]
    violations: list[Violation] = []
    rs = config.switch_rewards
    for k, (r1, r2) in enumerate(zip(rs, rs[1:])):
        if r2 > r1 + 1e-12:
            violations.append(Violation("si-config:reward-order", (k,), r2, r1, r2 - r1))
    for k, r in enumerate(rs):
        if not (0.0 < r < config.r_goal):
            violations.append(Violation("si-config:reward-range", (k,), r, config.r_goal, 0.0))
    violations += check_si_transitions(lumped, meta, reps)

    sigma0 = meta.joint(0, 1, 0)
    _, trace = strategy_iteration(lumped, sigma0[reps])
    full = reps.tolist()
    trace.changes = [[(full[s], old, new) for s, old, new in ch] for ch in trace.changes]

    # Replay the trace: apply each record's flips to the running strategy and
    # compare the visited strategies with the predicted path.
    path = expected_si_path(meta)
    visited = [sigma0.copy()]
    current = sigma0.copy()
    for ch in trace.changes:
        if not ch:
            continue
        for s, old, new in ch:
            current[s] = new
        visited.append(current.copy())
    described = [meta.describe(s) for s in visited]
    main = described[:len(path)]
    if main != path:
        first_bad = next((k for k, (got, want) in enumerate(zip(main, path))
                          if got != want), len(main))
        violations.append(Violation("si-path:sequence", (first_bad,), 0.0, 1.0, 0.0))
    # Anything after the predicted path may only touch the max player.
    for k in range(len(path), len(visited)):
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
    -(i + S_b + 1) r_goal + (1 + z + S_b') r within ``VBAR_BAND``.
    """
    config = config or default_hi2_rewards(T)
    game, meta = build_hi2(T, config)
    c = config
    scale = (1.0 - c.gamma) * meta.n_states
    violations: list[Violation] = []

    for z in range(0, c.s_prime + 1):
        for i in range(1, c.s_prime + 1):
            y = scale * float(evaluate(game, meta.joint(i, i, z)).mean())
            if y >= 0.0:
                violations.append(Violation("vbar-sign:negative", (i, z), y, 0.0, y))
        for i in range(0, c.s_prime):
            y = scale * float(evaluate(game, meta.joint(i, i + 1, z)).mean())
            if y <= 0.0:
                violations.append(Violation("vbar-sign:positive", (i, z), y, 0.0, -y))
            approx = (-(i + c.s_b + 1) * c.r_goal
                      + (1 + z + c.s_b_prime) * c.switch_rewards[i])
            if abs(y - approx) > VBAR_BAND:
                violations.append(Violation("vbar-sign:band", (i, z), y, approx,
                                            abs(y - approx) - VBAR_BAND))
    return CheckReport(violations)
