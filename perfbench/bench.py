"""Workloads, answer checks and metrics of the sgsolver benchmark.

Load is a closed loop from one process: an op starts when the previous one
has ended. Every op's game is generated from the workload seed, written as
game JSON and read back through ``sg.game.load_game`` before measuring
starts; the program never sees the generator. Every answer is checked, and
an op whose check fails or raises counts as failed, not as a crash.

Why these four workloads:

* ``qvi-acceptance`` - the acceptance-gate size (20 states, 4 actions,
  gamma 0.9, eps 0.05, both players). The op is call-bound in the sampler:
  tens of thousands of per-pair batch draws on 20-state rows.
* ``qvi-wide`` - the 400-pair sibling (100 states, min player, eps 0.2).
  Wide rows make the multinomial draw itself dominate, so a sampler change
  that only helps short rows shows here.
* ``exact-hard`` - value iteration at gamma 0.99 on 300 states, strategy
  iteration cross-checked against it, and the quadratic strategy-iteration
  path at T=10000 (sparse LU branch). The sampler is never called.
* ``scan-small`` - every strategy of a 5-state game at three discounts: the
  only workload on the dense (n <= 64) branch of ``PolicyLinearSystem``,
  ``stationary_distribution`` and ``flux``; per-call overhead, many ops.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sg import checks, exact, game as game_mod, hard, qvi
from sg.game import MAX_PLAYER, MIN_PLAYER
from sg.generate import random_game
from sg.sampler import GenerativeModel

from reference import ReferenceKernel
from tracer import Tracer, has_ancestor, outermost, self_times

VI_TOL = 1e-6           # exact-hard value iteration tolerance
VSTAR_TOL = 1e-10       # value iteration used to certify QVI answers
HI2_T = 10_000
SCAN_GAMMAS = (0.9, 0.99, 0.999)
CERT_SLACK = 1e-8
SANDWICH_SLACK = 1e-9
SETUP_REPEATS = 3       # imports and game loads timed per run, at least


@dataclass
class OpResult:
    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "qvi", "exact" or "scan": selects the op
    n_states: int
    n_actions: int
    gamma: float
    op_s: float         # rough op time on a 2-core box; sizes the game pool
    reference: tuple[str, ...]  # reference kernel parts that resemble the op
    epsilon: float = 0.0
    delta: float = 0.0
    both_players: bool = False
    max_pool: int = 256

    def pool_size(self, seconds: float) -> int:
        """Games to generate so that a run of ``seconds`` seldom reuses one."""
        return max(SETUP_REPEATS, min(self.max_pool, math.ceil(1.25 * seconds / self.op_s) + 1))


WORKLOADS = {w.name: w for w in (
    Workload("qvi-acceptance", "qvi", 20, 4, 0.9, op_s=2.0, reference=("draws",),
             epsilon=0.05, delta=0.1, both_players=True),
    Workload("qvi-wide", "qvi", 100, 4, 0.9, op_s=5.0, reference=("widedraws",),
             epsilon=0.2, delta=0.1, both_players=False),
    # A 300-state game is a 24 MB JSON file; the pool stays small and ops
    # cycle through it once it is used up.
    Workload("exact-hard", "exact", 300, 4, 0.99, op_s=2.5,
             reference=("matvec", "splu"), max_pool=6),
    Workload("scan-small", "scan", 5, 2, 0.9, op_s=0.1, reference=("denselu",)),
)}


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# sample accounting


def predicted_samples(n_pairs: int, gamma: float, epsilon: float, delta: float,
                      both_players: bool) -> int:
    """Draws ``qvi.solve`` must take: n_pairs * sum_runs (m1 + rounds*m2).

    The schedule (u_j = beta/2^j over ceil(log2(beta/eps)) runs, failure
    budget split evenly) is restated here so a change to it shows as a
    mismatch; the per-run constants come from ``qvi.derive_constants``.
    """
    beta = 1.0 / (1.0 - gamma)
    n_runs = max(1, math.ceil(math.log2(beta / epsilon)))
    per_chain = 0
    for j in range(n_runs):
        d = qvi.derive_constants(qvi.QviConstants(), beta / 2 ** j,
                                 delta / n_runs, n_pairs, gamma)
        per_chain += n_pairs * (d.m1 + d.rounds * d.m2)
    return per_chain * (2 if both_players else 1)


# ---------------------------------------------------------------------------
# ops and their answer checks


def qvi_op(wl: Workload, game, op_seed: int, expected_samples: int) -> OpResult:
    model = GenerativeModel(game, master_seed=op_seed)
    result = qvi.solve(model, epsilon=wl.epsilon, delta=wl.delta,
                       both_players=wl.both_players)
    vstar, _, vi_trace = exact.value_iteration(game, VSTAR_TOL)
    problems = []
    _, v_resp = exact.best_response(game, result.min_strategy, MIN_PLAYER)
    gaps = [float((v_resp - vstar).max())]
    if wl.both_players:
        _, v_resp = exact.best_response(game, result.max_strategy, MAX_PLAYER)
        gaps.append(float((vstar - v_resp).max()))
    if max(gaps) > wl.epsilon + CERT_SLACK:
        problems.append(f"certificate gap {max(gaps):.3e} > eps {wl.epsilon}")
    bad_seqs = sum(not checks.check_mdvss(game, s, vstar=vstar).passed
                   for s in result.sequences)
    if bad_seqs:
        problems.append(f"{bad_seqs} min-chain sequences fail check_mdvss")
    if not all(result.round_ok):
        problems.append("round invariant failed")
    if result.total_samples != expected_samples:
        problems.append(f"samples {result.total_samples} != predicted {expected_samples}")
    rounds = sum(s.rounds for s in result.sequences + result.mirror_sequences)
    counts = {"samples": result.total_samples, "qvi_rounds": rounds,
              "vi_sweeps": len(vi_trace), "vi_runs": 1}
    counts.update(vi_kernel_figures(game.layout))
    return OpResult(not problems, "; ".join(problems), counts)


def vi_kernel_figures(layout) -> dict:
    """Computed (not measured) bytes and flops of one value-iteration sweep.

    A sweep is q = r + gamma * P v over all pairs, then a min/max per state.
    Bytes count each array the sweep must touch once: the CSR data, indices
    and indptr, v, r, q and the new v; cache misses and temporaries are
    ignored. Flops count the multiply-adds of P v and of the backup, the
    uniform-row fold when there is one, and one comparison per extra action.
    """
    trans = layout.trans
    n_pairs, n_states = trans.shape
    f = trans.data.itemsize
    nbytes = (trans.nnz * (f + trans.indices.itemsize)
              + (n_pairs + 1) * trans.indptr.itemsize
              + 2 * n_states * f + 2 * n_pairs * f)
    flops = 2 * trans.nnz + 2 * n_pairs + (n_pairs - n_states)
    if layout.uniform_mask.any():
        flops += n_states + 2 * n_pairs
    return {"vi_bytes_per_sweep": nbytes, "vi_flops_per_sweep": flops}


def exact_op(wl: Workload, game, op_seed: int, expected_samples: int) -> OpResult:
    v_vi, _, vi_trace = exact.value_iteration(game, VI_TOL)
    sigma_si, _ = exact.strategy_iteration(game, np.zeros(game.n_states, dtype=np.int64))
    v_si = exact.evaluate(game, sigma_si)
    problems = []
    diff = float(np.abs(v_si - v_vi).max())
    if diff > VI_TOL:
        problems.append(f"SI vs VI differ by {diff:.3e} > {VI_TOL}")
    hi2_trace, report = hard.verify_si_path_hi2(HI2_T)
    if not report.passed:
        problems.append(f"hi2 report failed: {len(report.violations)} violations")
    flips = hard.si_single_flip_count(hi2_trace)
    s = hard.default_hi2_rewards(HI2_T).s_prime
    if not (s * (s - 1) <= flips <= s * (s + 2)):
        problems.append(f"single flips {flips} outside [{s * (s - 1)}, {s * (s + 2)}]")
    counts = {"vi_sweeps": len(vi_trace), "si_corrections": flips, "vi_runs": 1}
    counts.update(vi_kernel_figures(game.layout))
    return OpResult(not problems, "; ".join(problems), counts)


def scan_op(wl: Workload, game, op_seed: int, expected_samples: int) -> OpResult:
    problems = []
    n_strategies = math.prod(int(k) for k in game.space.n_actions)
    for gamma in SCAN_GAMMAS:
        rep = exact.ratio_scan(game_mod.with_gamma(game, gamma), keep_rows=False)
        if rep.strategies_skipped or rep.strategies_scanned != n_strategies:
            problems.append(f"gamma {gamma}: scanned {rep.strategies_scanned}, "
                            f"skipped {rep.strategies_skipped} of {n_strategies}")
        beta = 1.0 / (1.0 - gamma)
        lo, hi = beta * rep.c_min / rep.c_max, beta * rep.c_max / rep.c_min
        if not (lo - SANDWICH_SLACK <= rep.delta_min <= rep.delta_max <= hi + SANDWICH_SLACK):
            problems.append(f"gamma {gamma}: flux sandwich violated")
    return OpResult(not problems, "; ".join(problems))


OPS: dict[str, Callable[..., OpResult]] = {"qvi": qvi_op, "exact": exact_op, "scan": scan_op}


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    games: list
    load_s: list[float]
    layout_s: list[float]
    inputs_s: float
    expected_samples: int


def prepare(wl: Workload, seed: int, seconds: float, workdir: Path) -> Setup:
    """Generate the run's games, write them as JSON and load them back timed."""
    t0 = time.perf_counter()
    paths = []
    for i in range(wl.pool_size(seconds)):
        g = random_game(wl.n_states, wl.n_actions, wl.gamma, seed=sub_seed(seed, 0, i))
        path = workdir / f"game-{i}.json"
        path.write_text(json.dumps(game_mod.to_json_dict(g)))
        paths.append(path)
    inputs_s = time.perf_counter() - t0

    games, load_s, layout_s = [], [], []
    for path in paths:
        t0 = time.perf_counter()
        g = game_mod.load_game(str(path))
        t1 = time.perf_counter()
        g.layout
        t2 = time.perf_counter()
        games.append(g)
        load_s.append(t1 - t0)
        layout_s.append(t2 - t1)
    expected = 0
    if wl.kind == "qvi":
        expected = predicted_samples(games[0].n_pairs, wl.gamma, wl.epsilon,
                                     wl.delta, wl.both_players)
    return Setup(games, load_s, layout_s, inputs_s, expected)


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class OpRecord:
    index: int
    traced: bool
    seconds: float
    result: OpResult
    ref_index: int      # the reference timing taken just before the op


def run_ops(wl: Workload, setup: Setup, seed: int, seconds: float,
            tracer: Tracer | None, ref: ReferenceKernel) -> tuple[list[OpRecord], float]:
    """Run ops back to back for ``seconds``.

    With a tracer, odd ops are traced and even ops run the plain program, so
    one run yields both sides of the tracing overhead; such a run has at
    least two ops, a plain run at least one. The reference kernel is timed
    between ops, outside every op's time, and once more after the last.
    """
    op = OPS[wl.kind]
    min_ops = 1 if tracer is None else 2
    records: list[OpRecord] = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        i = len(records)
        game = setup.games[i % len(setup.games)]
        traced = tracer is not None and i % 2 == 1
        ref_index = ref.maybe_time()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.recording(i):
                    result = op(wl, game, sub_seed(seed, 1, i), setup.expected_samples)
            else:
                result = op(wl, game, sub_seed(seed, 1, i), setup.expected_samples)
        except Exception as exc:  # an op that raises is a failed op
            result = OpResult(False, f"{type(exc).__name__}: {exc}")
        records.append(OpRecord(i, traced, time.perf_counter() - t0, result, ref_index))
    elapsed = time.perf_counter() - start
    ref.time()
    return records, elapsed


# ---------------------------------------------------------------------------
# metrics


END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "pass_fraction": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "game.load_s": "s",
    "game.layout_s": "s",
    "game.loads": "count",
    "sampler.calls": "count/op",
    "sampler.busy_s": "s/op",
    "sampler.share": "fraction",
    "sampler.draws": "count/op",
    "sampler.draws_per_s": "1/s",
    "sampler.us_per_pair_batch": "us",
    "qvi.runs": "count/op",
    "qvi.rounds": "count/op",
    "qvi.self_s": "s/op",
    "qvi.share": "fraction",
    "exact.greedy_calls": "count/op",
    "exact.greedy_s": "s/op",
    "exact.vi_sweeps": "count/op",
    "exact.vi_s": "s/op",
    "exact.sweep_us": "us",
    "exact.vi_bytes_per_sweep": "computed_B",
    "exact.vi_flops_per_sweep": "computed_flop",
    "exact.vi_flops_per_byte": "computed_flop/B",
    "exact.evals": "count/op",
    "exact.factors": "count/op",
    "exact.factor_s": "s/op",
    "exact.solves": "count/op",
    "exact.solve_s": "s/op",
    "exact.stationary_s": "s/op",
    "exact.chain_steps": "count/op",
    "exact.flux_s": "s/op",
    "exact.best_response_s": "s/op",
    "checks.calls": "count/op",
    "checks.busy_s": "s/op",
    "checks.share": "fraction",
    "hard.verify_s": "s/op",
    "hard.probe_evals": "count/op",
    "hard.si_corrections": "count/op",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_times(records: list[OpRecord], ref: ReferenceKernel | None) -> list[float]:
    """Op times at reference speed, or raw without ``ref``."""
    return [r.seconds / (ref.slowdown(r.ref_index) if ref else 1.0) for r in records]


def end_to_end(records: list[OpRecord], setup: Setup, import_s: list[float],
               peak_rss_mb: float, ref: ReferenceKernel | None) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    With ``ref``, times are at reference speed: each op's time is divided by
    the host's slowdown measured on either side of it, and set-up by the
    slowdown around set-up (reference timings 0 and 1); without, raw.
    ``setup_s`` is the median time of ``import sg`` in a fresh interpreter
    plus the median time to load one game file and build its layout; each
    is timed at least three times per run. ``ops_per_s`` counts op time only,
    not the reference kernel's.
    """
    times = op_times(records, ref)
    passed = sum(r.result.ok for r in records)
    load = statistics.median(a + b for a, b in zip(setup.load_s, setup.layout_s))
    return {
        "setup_s": (statistics.median(import_s) + load) / (ref.slowdown(0) if ref else 1.0),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "pass_fraction": passed / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(records: list[OpRecord], tracer: Tracer, setup: Setup) -> dict[str, float]:
    """Per-layer metrics from the traced ops of a run, per traced op.

    ``busy_s`` is the time inside a layer's outermost spans, children
    included; ``self_s`` (and ``hard.verify_s``) leaves out time spent in
    child spans. ``sampler.draws`` is counted at the sampler boundary from the
    batch sizes requested. ``exact.evals`` counts fixed-strategy linear
    solves (``evaluate`` and ``flux``), ``exact.factors`` first accesses of a
    system's LU, and ``exact.solve_s`` excludes that factorization. The
    ``game.*`` figures come from set-up, per loaded game. Times here are raw
    seconds; the reference kernel times in the run's report scale them.
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    op_time = sum(r.seconds for r in traced)
    spans = tracer.spans
    own = self_times(spans)
    counts = tracer.counts

    def total(name: str) -> float:
        return sum(r.result.counts.get(name, 0) for r in traced)

    def dur(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def calls(*names: str) -> int:
        return sum(1 for s in spans if s.name in names)

    def layer_self(layer: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    def busy(layer: str) -> float:
        return sum(s.duration for s in outermost(spans, layer))

    sampler_busy = busy("sampler")
    vi_s = dur("exact.value_iteration")
    vi_sweeps = total("vi_sweeps")
    vi_runs = total("vi_runs")
    vi_bytes = _ratio(total("vi_bytes_per_sweep"), vi_runs)
    vi_flops = _ratio(total("vi_flops_per_sweep"), vi_runs)
    solve_names = ("exact.PolicyLinearSystem.solve", "exact.PolicyLinearSystem.solve_transpose")
    qvi_self = layer_self("qvi")
    checks_busy = busy("checks")
    p50_traced = statistics.median(r.seconds for r in traced)
    p50_plain = statistics.median(r.seconds for r in plain)

    raw = {
        "game.load_s": statistics.median(setup.load_s),
        "game.layout_s": statistics.median(setup.layout_s),
        "game.loads": len(setup.load_s),
        "sampler.calls": len(outermost(spans, "sampler")),
        "sampler.busy_s": sampler_busy,
        "sampler.draws": counts["sampler.draws"],
        "qvi.runs": calls("qvi.qvi_mdvss", "qvi.qvi_mivss"),
        "qvi.rounds": total("qvi_rounds"),
        "qvi.self_s": qvi_self,
        "exact.greedy_calls": calls("exact.greedy_from_q"),
        "exact.greedy_s": dur("exact.greedy_from_q"),
        "exact.vi_sweeps": vi_sweeps,
        "exact.vi_s": vi_s,
        "exact.evals": calls("exact.evaluate", "exact.flux"),
        "exact.factors": calls("exact.PolicyLinearSystem.lu"),
        "exact.factor_s": dur("exact.PolicyLinearSystem.lu"),
        "exact.solves": calls(*solve_names),
        "exact.solve_s": sum(t for s, t in zip(spans, own) if s.name in solve_names),
        "exact.stationary_s": dur("exact.stationary_distribution"),
        "exact.chain_steps": counts["exact.PolicyLinearSystem.step_distribution"],
        "exact.flux_s": dur("exact.flux"),
        "exact.best_response_s": dur("exact.best_response"),
        "checks.calls": len(outermost(spans, "checks")),
        "checks.busy_s": checks_busy,
        "hard.verify_s": layer_self("hard"),
        "hard.probe_evals": sum(1 for s in spans if s.name == "exact.evaluate"
                                and has_ancestor(spans, s, "hard.check_si_transitions")),
        "hard.si_corrections": total("si_corrections"),
    }
    # Totals over the traced ops become per-op figures; setup figures stay.
    metrics = {k: (v if k.startswith("game.") else _ratio(v, n)) for k, v in raw.items()}
    metrics.update({
        "sampler.share": _ratio(sampler_busy, op_time),
        "sampler.draws_per_s": _ratio(counts["sampler.draws"], sampler_busy),
        "sampler.us_per_pair_batch": 1e6 * _ratio(sampler_busy, counts["sampler.pair_batches"]),
        "qvi.share": _ratio(qvi_self, op_time),
        "exact.sweep_us": 1e6 * _ratio(vi_s, vi_sweeps),
        "exact.vi_bytes_per_sweep": vi_bytes,
        "exact.vi_flops_per_sweep": vi_flops,
        "exact.vi_flops_per_byte": _ratio(vi_flops, vi_bytes),
        "checks.share": _ratio(checks_busy, op_time),
        "trace.overhead_frac": _ratio(p50_traced - p50_plain, p50_plain),
    })
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
