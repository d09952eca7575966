"""Variance-reduced Q-value iteration over a generative model.

One run produces a monotone value-strategy sequence: a large initial batch
estimates P v0 per pair together with its empirical variance, the estimate is
shifted to have one-sided error, and each of R rounds then refines the
Q-function with a small batch that only estimates P (v_i - v0), whose range
shrinks as the iterates converge. A per-state repair step keeps the value
sequence monotone (nonincreasing for the decreasing variant, nondecreasing
for the increasing one) and keeps strategies coupled to the values they came
from. The emitted entry i pairs v_i and its strategy with the Q-register the
round read, so the certified inequalities

    Q_i <= r + gamma P v_{i-1} + xi_i      and      v_i <= V[Q_i]

hold with the advertised error vector xi (mirrored for the increasing
variant).

The driver halves the accuracy target u across rounds, feeding each run's
terminal value-strategy pair to the next run, and reads the min-player
strategy off the final sequence; the max player comes from the same machinery
on the role-swapped game. The two halving chains share no state (each has its
own generator streams), so ``solve`` runs them side by side, the max chain
on a worker thread; numpy's multinomial draw releases the GIL, so on two cores
a two-player solve takes about the time of one chain. On a table of at
least ``sampler.BLOCK_TABLE_MIN`` entries the model also draws each batch in
two blocks of pairs on two threads, so a one-player solve uses the second
core too (qvi-wide, 400 x 100, took 0.58x the time, BENCH_26.json). The
draws are those of the blocks' own streams, so the results do not depend on
how they were scheduled.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from .exact import greedy_from_q, optimal_value
from .game import (InputError, _object, check_fields, check_int, finite_number, read_json,
                   refuse_malformed, write_json)
from .generate import clustered_game
from .sampler import GenerativeModel

DECREASING = "decreasing"
INCREASING = "increasing"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QviConstants:
    """Tunable absolute constants of the sampling loops.

    ``c1`` scales the round count, ``c2``/``c3`` the large and small batch
    sizes, ``c`` the confidence-log factor entering the variance shift and
    ``big_c`` the per-round upward/downward drift shift. The overrides pin
    the derived quantities directly (used by scaling experiments).
    """

    c1: float = 4.0
    c2: float = 1.0
    c3: float = 1.0
    c: float = 1.0
    big_c: float = 0.1
    m1_override: int | None = None
    m2_override: int | None = None
    rounds_override: int | None = None

    def __post_init__(self) -> None:
        check_fields(self, "c1 c2 c3 c big_c", lambda x: finite_number(x) and x > 0,
                     "a finite positive number")
        check_fields(self, "m1_override m2_override rounds_override",
                     lambda k: k is None or (type(k) is int and k >= 1), "null or an integer >= 1")

    @staticmethod
    def from_json_dict(doc: dict) -> "QviConstants":
        with refuse_malformed("constants"):
            return QviConstants(**doc)


@dataclass(frozen=True)
class DerivedConstants:
    """Per-run derived quantities for one accuracy target u."""

    u: float
    delta: float
    beta: float
    rounds: int
    m1: int
    m2: int
    log_factor: float   # L
    alpha1: float       # L / m1, <= 1

    def __post_init__(self) -> None:
        check_fields(self, "u delta beta log_factor alpha1", finite_number, "a finite number")
        check_fields(self, "rounds m1 m2", lambda k: type(k) is int and k >= 0,
                     "an integer >= 0")


def _count(name: str, constant: str, override: int | None, planned: float) -> int:
    """``override``, or else ``ceil(planned)``; refused unless finite and below 2**63."""
    count = planned if override is None else override
    if not count < 2 ** 63:  # also refuses inf and nan
        source = constant if override is None else f"{name}_override"
        raise InputError(f"{name} = {count:.6g} from {source} is not a finite integer "
                         "below 2**63")
    return math.ceil(count)


def derive_constants(consts: QviConstants, u: float, delta: float,
                     n_pairs: int, gamma: float) -> DerivedConstants:
    beta = 1.0 / (1.0 - gamma)
    if not (0.0 < u <= beta):
        raise InputError(f"accuracy target u={u} outside (0, beta]")
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0, 1)")
    # ln(beta/u) vanishes at u = beta; floor the factor so the first run still
    # contracts through its full horizon.
    rounds = _count("rounds", "c1", consts.rounds_override,
                    consts.c1 * beta * max(1.0, math.log(beta / u)))
    m1 = _count("m1", "c2", consts.m1_override,
                consts.c2 * beta ** 3 * max(1.0, u ** -2) * math.log(8.0 * n_pairs / delta))
    log_factor = consts.c * math.log(n_pairs / (delta * (1.0 - gamma) * u))
    log_factor = max(log_factor, 1.0)
    if m1 < log_factor:
        m1 = math.ceil(log_factor)
    m2 = _count("m2", "c3", consts.m2_override,
                consts.c3 * beta ** 2 * math.log(2.0 * rounds * n_pairs / delta))
    if (rounds + 1) * n_pairs * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise InputError(f"rounds = {rounds} from c1 or rounds_override makes a run's "
                         f"(rounds + 1) x {n_pairs} float arrays exceed np.intp bytes")
    return DerivedConstants(u=u, delta=delta, beta=beta, rounds=int(rounds),
                            m1=int(m1), m2=int(m2), log_factor=log_factor,
                            alpha1=log_factor / m1)


# The keys of a sequence document; the last two may be left out.
_SEQ_REQUIRED = frozenset(("direction", "values", "q_values", "strategies", "error_bounds"))
_SEQ_KEYS = _SEQ_REQUIRED | {"constants", "samples_used"}


@dataclass
class VSSequence:
    """Iterate log of one QVI run, direction-tagged.

    ``values[i]``, ``strategies[i]`` and ``q_values[i]`` are the i-th
    monotone iterate, its strategy, and the Q-register the i-th round read;
    ``error_bounds[i]`` is the per-pair one-sided error vector certified for
    that Q. Entry 0 holds the inputs (its Q and bound are informational).
    """

    direction: str
    values: np.ndarray        # (R + 1, n_states)
    q_values: np.ndarray      # (R + 1, n_pairs)
    strategies: np.ndarray    # (R + 1, n_states) int
    error_bounds: np.ndarray  # (R + 1, n_pairs)
    constants: DerivedConstants | None = None
    samples_used: int = 0

    @property
    def rounds(self) -> int:
        return self.values.shape[0] - 1

    @property
    def terminal_value(self) -> np.ndarray:
        return self.values[-1]

    @property
    def terminal_strategy(self) -> np.ndarray:
        return self.strategies[-1]

    def to_json_dict(self) -> dict:
        doc = {
            "direction": self.direction,
            "values": self.values.tolist(),
            "q_values": self.q_values.tolist(),
            "strategies": self.strategies.tolist(),
            "error_bounds": self.error_bounds.tolist(),
            "samples_used": self.samples_used,
        }
        if self.constants is not None:
            doc["constants"] = asdict(self.constants)
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "VSSequence":
        with refuse_malformed("sequence"):
            _object(doc, _SEQ_KEYS.intersection(doc) | _SEQ_REQUIRED, "a sequence")
            if doc["direction"] not in (DECREASING, INCREASING):
                raise InputError(f"unknown sequence direction {doc['direction']!r}")
            strategies = np.asarray(doc["strategies"])
            if strategies.dtype.kind != "i":  # 0.5 is refused, not truncated
                raise InputError(f"strategies must be integers, got {strategies.dtype} entries")
            return VSSequence(
                direction=doc["direction"],
                values=_finite_floats(doc, "values"),
                q_values=_finite_floats(doc, "q_values"),
                strategies=strategies.astype(np.int64),
                error_bounds=_finite_floats(doc, "error_bounds"),
                constants=DerivedConstants(**doc["constants"]) if "constants" in doc else None,
                samples_used=check_int(doc.get("samples_used", 0), "samples_used", 0),
            )

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path: str) -> "VSSequence":
        return read_json(path, VSSequence.from_json_dict)


def _finite_floats(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array, refused if an entry is null, which numpy
    reads as NaN: a JSON file holds no other non-finite number, so the
    array is written back as the same document."""
    values = np.asarray(doc[key], dtype=np.float64)
    if not np.isfinite(values).all():
        raise InputError(f"{key} holds a null or a non-finite number")
    return values


def _qvi_run(model: GenerativeModel, u: float, delta: float,
             v0: np.ndarray, sigma0: np.ndarray,
             consts: QviConstants, sign: float) -> VSSequence:
    """Shared body of both monotone runs; sign=+1 decreasing, -1 increasing."""
    space = model.space
    space.check_unit_rewards()
    v0 = space.value_vector(v0)
    sigma0 = space.check_strategy(sigma0)
    d = derive_constants(consts, u, delta, model.n_pairs, model.gamma)
    gamma, beta = model.gamma, d.beta
    r = model.rewards

    start_total, _ = model.sample_count()
    init = model.estimate_mean_and_var(v0, d.m1)
    shift = np.sqrt(d.alpha1 * init.variance) + d.alpha1 ** 0.75 * beta
    w = init.mean + sign * shift
    q = np.clip(r + gamma * w, 0.0, beta)
    drift = consts.big_c * (1.0 - gamma) * u
    xi = 2.0 * np.sqrt(d.alpha1 * init.variance) \
        + 2.0 * (d.alpha1 ** 0.75 * beta + drift)

    n_entries = d.rounds + 1
    values = np.empty((n_entries, model.n_states))
    q_values = np.empty((n_entries, model.n_pairs))
    strategies = np.empty((n_entries, model.n_states), dtype=np.int64)
    error_bounds = np.tile(xi, (n_entries, 1))
    values[0], q_values[0], strategies[0] = v0, q, sigma0

    v_prev, sigma_prev = v0, sigma0
    for i in range(1, n_entries):
        v_new, sigma_new = greedy_from_q(model.space, q)
        # Per-state monotone repair: never move against the run's direction,
        # and keep the strategy paired with the value it produced.
        keep_old = sign * v_new >= sign * v_prev
        v_i = np.where(keep_old, v_prev, v_new)
        sigma_i = np.where(keep_old, sigma_prev, sigma_new)
        values[i], q_values[i], strategies[i] = v_i, q, sigma_i

        diff = model.estimate_diff_mean(v_i, v0, d.m2)
        g = diff.mean + sign * drift
        q = np.clip(r + gamma * (w + g), 0.0, beta)
        v_prev, sigma_prev = v_i, sigma_i

    end_total, _ = model.sample_count()
    return VSSequence(
        direction=DECREASING if sign > 0 else INCREASING,
        values=values, q_values=q_values, strategies=strategies,
        error_bounds=error_bounds, constants=d,
        samples_used=end_total - start_total,
    )


def qvi_mdvss(model: GenerativeModel, u: float, delta: float,
              v0: np.ndarray, sigma0: np.ndarray,
              consts: QviConstants | None = None) -> VSSequence:
    """Monotone decreasing value-strategy run.

    The caller guarantees v* <= v0 <= v* + u, v0 >= T[v0] and
    v0 >= T_sigma0[v0]; these need the unknown v* and are asserted only in
    test harnesses. Estimates are shifted upward so, with probability at
    least 1 - delta, the iterates stay above v* while decreasing toward it.
    """
    return _qvi_run(model, u, delta, v0, sigma0, consts or QviConstants(), +1.0)


def qvi_mivss(model: GenerativeModel, u: float, delta: float,
              v0: np.ndarray, sigma0: np.ndarray,
              consts: QviConstants | None = None) -> VSSequence:
    """Monotone increasing value-strategy run (exact mirror of qvi_mdvss)."""
    return _qvi_run(model, u, delta, v0, sigma0, consts or QviConstants(), -1.0)


@dataclass
class SolveResult:
    """Output of the halving driver: the runs of the min chain
    (``sequences``), those of the mirrored max chain (``mirror_sequences``,
    empty when only the min player was solved) and ``round_ok[j]``, the
    deterministic run invariants (monotone chain, clipped Q) of round j of
    the min chain. Everything else is read off the runs.

    ``min_strategy``/``max_strategy`` are full joint strategies; the entries
    that matter are the min-player states of the former and the max-player
    states of the latter.
    """

    sequences: list[VSSequence]
    mirror_sequences: list[VSSequence]
    round_ok: list[bool]

    @property
    def min_strategy(self) -> np.ndarray:
        return self.sequences[-1].terminal_strategy.copy()

    @property
    def max_strategy(self) -> np.ndarray | None:
        if not self.mirror_sequences:
            return None
        return self.mirror_sequences[-1].terminal_strategy.copy()

    @property
    def value_estimate(self) -> np.ndarray:
        return self.sequences[-1].terminal_value.copy()

    @property
    def u_schedule(self) -> list[float]:
        return [s.constants.u for s in self.sequences]

    @property
    def total_samples(self) -> int:
        return sum(s.samples_used for s in self.sequences + self.mirror_sequences)


def _schedule(gamma: float, epsilon: float, delta: float) -> tuple[list[float], float]:
    """Accuracy targets u_j = beta / 2^j of the halving runs and the failure
    budget of each run."""
    beta = 1.0 / (1.0 - gamma)
    n_rounds = max(1, math.ceil(math.log2(beta / epsilon)))
    return [beta / 2 ** j for j in range(n_rounds)], delta / n_rounds


def planned_samples(n_pairs: int, gamma: float, epsilon: float, delta: float,
                    both_players: bool, consts: QviConstants | None = None) -> int:
    """Draws ``solve`` takes, known before sampling: n_pairs * sum over runs
    of (m1 + rounds * m2), twice over when both players are solved."""
    u_schedule, delta_round = _schedule(gamma, epsilon, delta)
    per_pair = 0
    for u in u_schedule:
        d = derive_constants(consts or QviConstants(), u, delta_round, n_pairs, gamma)
        per_pair += d.m1 + d.rounds * d.m2
    return n_pairs * per_pair * (2 if both_players else 1)


def _halving_chain(model: GenerativeModel, epsilon: float, delta: float,
                   consts: QviConstants) -> tuple[list[VSSequence], list[bool], list[float]]:
    """The decreasing runs of one halving chain, each run's invariant flag and
    its wall seconds. It logs nothing, so that two chains can run at once."""
    beta = 1.0 / (1.0 - model.gamma)
    u_schedule, delta_round = _schedule(model.gamma, epsilon, delta)
    v = np.full(model.n_states, beta)
    sigma = np.zeros(model.n_states, dtype=np.int64)
    oks, seqs, seconds = [], [], []
    for u_j in u_schedule:
        start = time.perf_counter()
        seq = qvi_mdvss(model, u_j, delta_round, v, sigma, consts)
        oks.append(bool((np.diff(seq.values, axis=0) <= 1e-12).all()
                        and (seq.q_values >= -1e-12).all()
                        and (seq.q_values <= beta + 1e-12).all()))
        seconds.append(time.perf_counter() - start)
        v, sigma = seq.terminal_value.copy(), seq.terminal_strategy.copy()
        seqs.append(seq)
    return seqs, oks, seconds


def _log_chain(player: str, seqs: list[VSSequence], oks: list[bool],
               seconds: list[float]) -> None:
    for j, (seq, ok, s) in enumerate(zip(seqs, oks, seconds)):
        d = seq.constants
        log.info("halving round %d: player=%s u=%.6g rounds=%d m1=%d m2=%d "
                 "samples=%d seconds=%.3f round_ok=%s", j, player, d.u, d.rounds, d.m1, d.m2,
                 seq.samples_used, s, ok)


def solve(model: GenerativeModel, epsilon: float, delta: float,
          consts: QviConstants | None = None,
          both_players: bool = True) -> SolveResult:
    """Compute epsilon-optimal strategies from samples alone.

    Runs ceil(log2(beta/epsilon)) decreasing runs with u halved each time
    (u_j = beta / 2^j) and failure budget delta per run chain; the terminal
    strategy's min-player part is epsilon-optimal with probability at least
    1 - delta. The max player, when requested, comes from the identical
    chain on the role-swapped game, run on a worker thread while the min
    chain runs on the caller's. Each chain draws from its own model, so the
    result is bit for bit that of running them one after the other. The
    worker is joined before ``solve`` returns or raises (an error of the min
    chain first), and the rounds are logged once both chains have ended, the
    min chain's first.
    """
    if not (0.0 < epsilon < 1.0):
        raise InputError("epsilon must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0, 1)")
    consts = consts or QviConstants()

    if both_players:
        mirrored = model.mirrored()
        with ThreadPoolExecutor(max_workers=1) as pool:
            max_chain = pool.submit(_halving_chain, mirrored, epsilon, delta, consts)
            seqs, oks, seconds = _halving_chain(model, epsilon, delta, consts)
        mirror = max_chain.result()
    else:
        seqs, oks, seconds = _halving_chain(model, epsilon, delta, consts)
        mirror = [], [], []
    _log_chain("min", seqs, oks, seconds)
    _log_chain("max", *mirror)
    return SolveResult(sequences=seqs, mirror_sequences=mirror[0], round_ok=oks)


# ---------------------------------------------------------------------------
# the big-batch scaling experiment

SCALING_M1 = (100, 1000, 10000, 100000)
SCALING_SLOPE_BAND = (-0.65, -0.35)


def scaling_sweep(seed: int, trials: int) -> tuple[list[tuple[int, int, float]], float]:
    """Sweep the big-batch size over ``SCALING_M1`` on a fixed high-variance
    10-state game.

    Runs a single monotone-decreasing pass per trial, starting u=4 above the
    optimum, with constants chosen so the variance-driven shift dominates the
    other error terms. Returns (rows, slope) where rows are (m1, trial, err)
    and slope is the log-log slope of err against m1, expected inside
    ``SCALING_SLOPE_BAND``.
    """
    trials = check_int(trials, "trials", 1)
    g = clustered_game(10, 3, 0.9, seed=seed)
    vstar, sstar = optimal_value(g)
    u = 4.0
    consts = QviConstants(c1=8.0, c=0.01, big_c=0.01, c3=4.0)
    rows = []
    xs, ys = [], []
    for m1 in SCALING_M1:
        for t in range(trials):
            model = GenerativeModel(g, master_seed=seed * 10 ** 9 + m1 * 100 + t)
            seq = qvi_mdvss(model, u, 0.1, vstar + u, sstar, replace(consts, m1_override=m1))
            err = float(np.abs(seq.terminal_value - vstar).max())
            rows.append((m1, t, err))
            xs.append(np.log10(m1))
            ys.append(np.log10(err))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope
