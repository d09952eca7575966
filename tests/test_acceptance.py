"""Acceptance suite: one test per headline criterion, run at its stated
tolerance. Each test prints a PASS/FAIL line so the whole gate is readable
from the pytest -s output."""

import time
from itertools import product

import numpy as np
import pytest

from sg.checks import check_mdvss, variance_bellman_residual, MarkovianPlan
from sg.cli import SCALING_SLOPE_BAND, scaling_sweep
from sg.exact import (bellman, best_response, flux,
                      ratio_scan, stationary_distribution, value_iteration)
from sg.game import MIN_PLAYER, with_gamma
from sg.generate import random_game
from sg.hard import (default_hi2_rewards, hi1_distribution_bounds,
                     hi2_vbar_signs, si_single_flip_count, verify_pi_path_hi1,
                     verify_si_path_hi2)
from sg.qvi import solve
from sg.sampler import GenerativeModel

EPS, DELTA, GAMMA, N_SEEDS = 0.05, 0.1, 0.9, 20


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def qvi_runs():
    """20 seeded sampling runs on 20-state 4-action games, min player only."""
    t0 = time.time()
    runs = []
    for seed in range(N_SEEDS):
        game = random_game(20, 4, GAMMA, seed=10_000 + seed)
        model = GenerativeModel(game, master_seed=seed)
        result = solve(model, epsilon=EPS, delta=DELTA, both_players=False)
        vstar, _, _ = value_iteration(game, 1e-10)
        runs.append((game, vstar, result))
    return runs, time.time() - t0


@pytest.fixture(scope="module")
def five_state_scan():
    """50 random 5-state games with every strategy scanned at three discounts."""
    data = []
    for seed in range(50):
        base = random_game(5, 2, GAMMA, seed=20_000 + seed)
        per_gamma = {}
        for gamma in (0.9, 0.99, 0.999):
            g = with_gamma(base, gamma)
            per_gamma[gamma] = (g, ratio_scan(g, keep_rows=False))
        data.append(per_gamma)
    return data


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_qvi_epsilon_optimality(qvi_runs):
    runs, elapsed = qvi_runs
    hits = 0
    for game, vstar, result in runs:
        _, v_resp = best_response(game, result.min_strategy, MIN_PLAYER)
        hits += bool((v_resp <= vstar + EPS + 1e-8).all())
    ok = hits >= 18 and elapsed <= 600.0
    _criterion(1, ok, f"{hits}/{N_SEEDS} runs eps-optimal, {elapsed:.1f}s")


def test_criterion_2_mdvss_certification(qvi_runs):
    runs, _ = qvi_runs
    seq_hits = 0
    for game, vstar, result in runs:
        seq_hits += all(check_mdvss(game, s, vstar=vstar).passed
                        for s in result.sequences)
    det_hits = 0
    for seed in range(N_SEEDS):
        game = random_game(20, 4, GAMMA, seed=30_000 + seed, deterministic=True)
        model = GenerativeModel(game, master_seed=seed)
        result = solve(model, epsilon=EPS, delta=DELTA, both_players=False)
        vstar, _, _ = value_iteration(game, 1e-10)
        det_hits += all(check_mdvss(game, s, vstar=vstar).passed
                        for s in result.sequences)
    ok = seq_hits >= round((1 - DELTA) * N_SEEDS) and det_hits == N_SEEDS
    _criterion(2, ok, f"stochastic {seq_hits}/{N_SEEDS}, deterministic {det_hits}/{N_SEEDS}")


def test_criterion_3_hi1_iteration_counts():
    expected = {48: 2, 192: 4, 768: 8}
    ok = True
    counts = {}
    for T, s_prime in expected.items():
        trace, report = verify_pi_path_hi1(T)
        counts[T] = len(trace.improving_steps())
        ok &= report.passed and counts[T] == s_prime
    _criterion(3, ok, f"single-flip iteration counts {counts}")


def test_criterion_4_hi1_stationary_bounds():
    ok = True
    for T in (48, 192):
        report = hi1_distribution_bounds(T, 200, seed=T)
        ok &= report.passed
    _criterion(4, ok, "200 random policies per size, zero bound violations")


def test_criterion_5_hi2_quadratic_counts():
    counts = {}
    ok = True
    for T in (400, 1600):
        trace, report = verify_si_path_hi2(T)
        ok &= report.passed
        s = default_hi2_rewards(T).s_prime
        counts[T] = si_single_flip_count(trace)
        ok &= s * (s - 1) <= counts[T] <= s * (s + 2)
    ratio = counts[1600] / counts[400]
    ok &= 3.5 <= ratio <= 4.5
    _criterion(5, ok, f"corrections {counts}, ratio {ratio:.2f}")


def test_criterion_6_hi2_value_signs():
    report = hi2_vbar_signs(400)
    _criterion(6, report.passed, "sign pattern holds on the full grid at T=400")


def test_criterion_7_flux_sandwich(five_state_scan):
    worst = 0.0
    ok = True
    for per_gamma in five_state_scan:
        for gamma, (g, rep) in per_gamma.items():
            beta = 1.0 / (1.0 - gamma)
            lo = beta * rep.c_min / rep.c_max
            hi = beta * rep.c_max / rep.c_min
            ok &= lo - 1e-9 <= rep.delta_min <= rep.delta_max <= hi + 1e-9
            worst = max(worst, lo - rep.delta_min, rep.delta_max - hi)
    _criterion(7, ok, f"sandwich slack needed {worst:.2e} (allowed 1e-9)")


def test_criterion_8_flux_limit(five_state_scan):
    ok = True
    worst_rel, worst_lim = 0.0, 0.0
    for per_gamma in five_state_scan:
        diffs = []
        for gamma in (0.9, 0.99, 0.999):
            g, rep = per_gamma[gamma]
            diffs.append(abs(rep.flux_ratio - rep.ergodicity_ratio))
        ok &= diffs[0] > diffs[1] > diffs[2]
        g999, rep999 = per_gamma[0.999]
        worst_rel = max(worst_rel, diffs[2] / rep999.ergodicity_ratio)
        # per-state normalization of the flux converges to the stationary law
        for sigma in map(np.array, product(*(range(int(k)) for k in g999.space.n_actions))):
            lam = stationary_distribution(g999, sigma)
            x = flux(g999, sigma)
            worst_lim = max(worst_lim,
                            float(np.abs(0.001 * x / g999.n_states - lam).max()))
    ok &= worst_rel <= 0.05 and worst_lim <= 0.01
    _criterion(8, ok, f"rel ratio gap {worst_rel:.4f} (<=5%), "
                      f"limit gap {worst_lim:.4f} (<=0.01)")


def test_criterion_9_variance_bellman_identity():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = random_game(n, int(rng.integers(1, 4)), 0.85,
                        seed=int(rng.integers(10 ** 6)))
        counts = g.space.n_actions
        prefix = [rng.integers(0, counts) for _ in range(int(rng.integers(0, 4)))]
        plan = MarkovianPlan.make(prefix, rng.integers(0, counts))
        worst = max(worst, variance_bellman_residual(g, plan))
    _criterion(9, worst <= 1e-6, f"max residual {worst:.2e} (<= 1e-6)")


def test_criterion_10_sample_error_scaling():
    _, slope = scaling_sweep(seed=42, trials=10)
    lo, hi = SCALING_SLOPE_BAND
    _criterion(10, lo <= slope <= hi, f"log-log slope {slope:.3f} in [{lo}, {hi}]")


def test_criterion_11_operator_properties():
    rng = np.random.default_rng(110)
    violations = 0
    for seed in range(5):
        g = random_game(8, 3, GAMMA, seed=40_000 + seed)
        beta = 1.0 / (1.0 - g.gamma)
        for _ in range(1000):
            v1 = rng.uniform(-beta, 2 * beta, size=8)
            v2 = rng.uniform(-beta, 2 * beta, size=8)
            if np.abs(bellman(g, v1) - bellman(g, v2)).max() > \
                    g.gamma * np.abs(v1 - v2).max() + 1e-10:
                violations += 1
            low = np.minimum(v1, v2)
            if not (bellman(g, low) <= bellman(g, v1) + 1e-10).all():
                violations += 1
    _criterion(11, violations == 0, f"{violations} violations over 5000 draws")
