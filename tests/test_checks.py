"""Sequence certification, Markovian plans, and the variance identity."""

from itertools import product

import numpy as np
import pytest

from sg.checks import (MarkovianPlan, check_eps_optimal_implication,
                       check_mdvss, check_mivss, markovian_evaluate,
                       variance_bellman_residual, variance_of_value)
from sg.exact import evaluate, q_from_v, value_iteration
from sg.game import Action, InputError, MIN_PLAYER, make_game
from sg.generate import random_game
from sg.qvi import DECREASING, INCREASING, VSSequence

from csr_oracle import as_scipy


def with_uniform_rows(game, share, seed):
    """The same game with about ``share`` of its actions made uniform rows."""
    rng = np.random.default_rng(seed)
    actions = [[Action(reward=a.reward, uniform=True) if rng.random() < share else a
                for a in acts] for acts in game.actions]
    return make_game(game.gamma, game.owners, actions)


def fixed_point_sequence(game, entries=3):
    """Constant sequence sitting at the exact fixed point."""
    vstar, sstar, _ = value_iteration(game, 1e-12)
    qstar = q_from_v(game, vstar)
    n = entries
    return VSSequence(
        direction=DECREASING,
        values=np.tile(vstar, (n, 1)),
        q_values=np.tile(qstar, (n, 1)),
        strategies=np.tile(sstar, (n, 1)),
        error_bounds=np.zeros((n, game.n_pairs)),
    )


# ---------------------------------------------------------------------------
# variance of value


def test_variance_zero_on_point_mass_rows():
    g = random_game(6, 2, 0.9, seed=0, deterministic=True)
    v = np.random.default_rng(0).normal(size=6)
    np.testing.assert_allclose(variance_of_value(g, v), 0.0, atol=1e-12)


def test_variance_zero_on_constant_vector():
    g = random_game(6, 2, 0.9, seed=1)
    np.testing.assert_allclose(variance_of_value(g, np.full(6, 2.5)), 0.0,
                               atol=1e-12)


def test_variance_two_point_row():
    b = 3.0
    acts = [[Action(reward=0.0, next_states=np.array([0, 1]),
                    probs=np.array([0.5, 0.5]))],
            [Action(reward=0.0, next_states=np.array([1]), probs=np.array([1.0]))]]
    g = make_game(0.9, [MIN_PLAYER, MIN_PLAYER], acts)
    var = variance_of_value(g, np.array([0.0, b]))
    assert var[0] == pytest.approx(b * b / 4.0)


def test_variance_popoviciu_bound():
    rng = np.random.default_rng(2)
    for seed in range(10):
        g = random_game(int(rng.integers(2, 8)), 2, 0.9, seed=seed)
        v = rng.uniform(-4, 7, size=g.n_states)
        cap = (v.max() - v.min()) ** 2 / 4.0
        assert (variance_of_value(g, v) <= cap + 1e-12).all()


# ---------------------------------------------------------------------------
# sequence certification


def test_fixed_point_sequence_passes():
    g = random_game(6, 3, 0.9, seed=3)
    seq = fixed_point_sequence(g)
    assert check_mdvss(g, seq).passed


def test_fixed_point_sequence_passes_increasing():
    g = random_game(6, 3, 0.9, seed=3)
    seq = fixed_point_sequence(g)
    seq.direction = INCREASING
    assert check_mivss(g, seq).passed


def test_direction_mismatch_rejected():
    g = random_game(4, 2, 0.9, seed=4)
    seq = fixed_point_sequence(g)
    with pytest.raises(ValueError):
        check_mivss(g, seq)


def test_entry_below_optimum_flags_property_one():
    g = random_game(5, 2, 0.9, seed=5)
    seq = fixed_point_sequence(g)
    seq.values[-1][2] -= 1e-3
    report = check_mdvss(g, seq)
    assert not report.passed
    assert any(v.prop.startswith("1:") for v in report.violations)


def test_breaking_each_property_is_caught():
    g = random_game(5, 2, 0.9, seed=6)

    # chain order violation
    seq = fixed_point_sequence(g)
    seq.values[1][0] += 2e-3  # middle entry above its predecessor... make chain rise
    seq.values[2][0] += 4e-3
    rep = check_mdvss(g, seq)
    assert any(v.prop == "1:chain" for v in rep.violations)

    # fixed-point inequality violation: push a value below its own backup
    seq = fixed_point_sequence(g)
    seq.values[:, 1] -= 5e-3
    rep = check_mdvss(g, seq)
    assert any(v.prop.startswith("2:") for v in rep.violations)

    # q-backup violation: inflate a Q entry beyond the allowed band
    seq = fixed_point_sequence(g)
    seq.q_values[1][3] += 5e-3
    rep = check_mdvss(g, seq)
    assert any(v.prop == "3:q-backup" for v in rep.violations)

    # greedy-consistency violation: raise a value above its Q's greedy value
    seq = fixed_point_sequence(g)
    seq.values[2][0] += 5e-3
    rep = check_mdvss(g, seq)
    assert any(v.prop == "4:greedy" for v in rep.violations)


def test_eps_override_is_respected():
    g = random_game(5, 2, 0.9, seed=7)
    seq = fixed_point_sequence(g)
    seq.q_values[1] += 1e-4  # breaks the zero-error band...
    assert not check_mdvss(g, seq).passed
    assert check_mdvss(g, seq, eps_override=1e-3).passed  # ... but fits a wider one


@pytest.mark.parametrize("bounds, eps_override, message", [
    (lambda n_pairs: np.full((3, n_pairs), np.nan), None, "non-finite"),
    (lambda n_pairs: np.full((3, 1), 5.0), None, "does not fit"),
    (lambda n_pairs: np.zeros((3, n_pairs)), np.nan, "non-finite"),
], ids=["nan-bounds", "column-bounds", "nan-eps-override"])
def test_bounds_that_would_hide_a_broken_q_are_refused(bounds, eps_override, message):
    # Q raised 5.0 above the exact backup: NaN or broadcast bounds of 5.0
    # would let it pass property 3, so the sequence is refused instead.
    g = random_game(5, 2, 0.9, seed=7)
    seq = fixed_point_sequence(g)
    seq.q_values[1] += 5.0
    seq.error_bounds = bounds(g.n_pairs)
    with pytest.raises(InputError, match=message):
        check_mdvss(g, seq, eps_override=eps_override)


def test_eps_optimal_implication_at_fixed_point():
    g = random_game(6, 2, 0.9, seed=8)
    seq = fixed_point_sequence(g)
    assert check_eps_optimal_implication(g, seq).passed


def test_eps_optimal_implication_refuses_a_sequence_from_another_game():
    # used to end in numpy's broadcast ValueError
    seq = fixed_point_sequence(random_game(4, 2, 0.9, seed=8))
    with pytest.raises(InputError, match="does not fit"):
        check_eps_optimal_implication(random_game(6, 2, 0.9, seed=8), seq)


def test_eps_optimal_implication_refuses_an_unknown_direction():
    # used to be read as increasing and pass
    g = random_game(6, 2, 0.9, seed=8)
    seq = fixed_point_sequence(g)
    seq.direction = "sideways"
    with pytest.raises(InputError, match="direction"):
        check_eps_optimal_implication(g, seq)


def test_eps_optimal_implication_refuses_a_nan_terminal_value():
    # used to make eps NaN and pass
    g = random_game(6, 2, 0.9, seed=8)
    seq = fixed_point_sequence(g)
    seq.values[-1, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        check_eps_optimal_implication(g, seq)


def test_eps_optimal_implication_brute_force_two_state():
    g = random_game(2, 2, 0.9, seed=9)
    vstar, _, _ = value_iteration(g, 1e-12)
    # hand-built valid two-entry sequence: start at v* + 0.5, end at v*
    v0 = vstar + 0.5
    q0 = q_from_v(g, v0)
    seq = fixed_point_sequence(g, entries=2)
    seq.values[0] = v0
    seq.q_values[0] = q0
    seq.error_bounds[:] = 1e-9
    report = check_mdvss(g, seq)
    assert report.passed
    assert check_eps_optimal_implication(g, seq).passed
    # brute-force oracle: the terminal min strategy's worst case over all
    # max responses stays within eps of the optimum
    eps = float(np.abs(seq.terminal_value - vstar).max())
    sigma = seq.terminal_strategy
    worst = np.full(2, -np.inf)
    for cand in product(*(range(int(k)) for k in g.space.n_actions)):
        joint = np.array(cand, dtype=np.int64)
        min_states = g.owners == MIN_PLAYER
        joint[min_states] = sigma[min_states]
        worst = np.maximum(worst, evaluate(g, joint))
    assert (worst <= vstar + eps + 1e-8).all()


# ---------------------------------------------------------------------------
# Markovian plans


def test_empty_prefix_reduces_to_stationary_evaluation():
    g = random_game(5, 3, 0.9, seed=10)
    tail = np.array([1, 0, 2, 1, 0])
    values, var0 = markovian_evaluate(g, MarkovianPlan.make([], tail))
    np.testing.assert_allclose(values[0], evaluate(g, tail), atol=1e-10)
    assert (var0 >= -1e-12).all()


def test_deterministic_plan_has_zero_variance():
    g = random_game(5, 2, 0.9, seed=11, deterministic=True)
    plan = MarkovianPlan.make([np.zeros(5, dtype=np.int64)],
                              np.ones(5, dtype=np.int64))
    _, var0 = markovian_evaluate(g, plan)
    np.testing.assert_allclose(var0, 0.0, atol=1e-10)


def test_single_state_plan_has_zero_variance():
    acts = [[Action(reward=0.3, next_states=np.array([0]), probs=np.array([1.0])),
             Action(reward=0.7, next_states=np.array([0]), probs=np.array([1.0]))]]
    g = make_game(0.9, [MIN_PLAYER], acts)
    plan = MarkovianPlan.make([np.array([1])], np.array([0]))
    _, var0 = markovian_evaluate(g, plan)
    assert var0[0] == pytest.approx(0.0, abs=1e-12)
    assert variance_bellman_residual(g, plan) < 1e-12


def test_all_stages_equal_tail_reproduce_evaluate():
    g = random_game(6, 2, 0.9, seed=12)
    tail = np.ones(6, dtype=np.int64)
    plan = MarkovianPlan.make([tail, tail, tail], tail)
    values, _ = markovian_evaluate(g, plan)
    ve = evaluate(g, tail)
    for v in values:
        np.testing.assert_allclose(v, ve, atol=1e-10)


def test_return_variance_matches_monte_carlo():
    g = random_game(3, 2, 0.85, seed=13)
    plan = MarkovianPlan.make([np.array([1, 0, 1]), np.array([0, 1, 0])],
                              np.array([1, 1, 0]))
    values, var0 = markovian_evaluate(g, plan)

    # simulation oracle: truncated trajectories, fully vectorized
    rng = np.random.default_rng(0)
    n_traj, horizon = 200_000, 180
    lay = g.layout
    dense, rew = [], []
    for sig in list(plan.prefix) + [plan.tail]:
        pairs = g.space.chosen_pairs(sig)
        dense.append(np.cumsum(as_scipy(lay.trans)[pairs].toarray(), axis=1))
        rew.append(g.space.rewards[pairs])
    for start in range(3):
        states = np.full(n_traj, start)
        ret = np.zeros(n_traj)
        for t in range(horizon):
            k = min(t, len(plan.prefix))
            ret += g.gamma ** t * rew[k][states]
            u = rng.random(n_traj)
            states = (u[:, None] > dense[k][states]).sum(axis=1)
        mc = ret.var()
        se = mc * np.sqrt(2.0 / n_traj)  # variance-of-variance scale
        assert abs(mc - var0[start]) <= 3 * se + 1e-6


def test_variance_identity_on_random_plans():
    rng = np.random.default_rng(1)
    for k in range(25):
        n = int(rng.integers(2, 7))
        g = random_game(n, int(rng.integers(1, 4)), 0.85,
                        seed=int(rng.integers(10 ** 6)))
        counts = g.space.n_actions
        prefix = [rng.integers(0, counts) for _ in range(int(rng.integers(0, 4)))]
        plan = MarkovianPlan.make(prefix, rng.integers(0, counts))
        for share in (0.0, 0.5, 1.0):
            mixed = with_uniform_rows(g, share, seed=k)
            assert variance_bellman_residual(mixed, plan) <= 1e-6


@pytest.mark.parametrize("check", [check_mdvss, check_eps_optimal_implication])
@pytest.mark.parametrize("vstar, message", [
    (np.zeros(3), "shape"),
    (np.full(6, np.nan), "non-finite"),
], ids=["short-vstar", "nan-vstar"])
def test_a_caller_vstar_that_cannot_certify_is_refused(check, vstar, message):
    # a short v* used to end in numpy's broadcast ValueError, and a NaN v*
    # never exceeded a bound, so every sequence passed
    g = random_game(6, 2, 0.9, seed=8)
    seq = fixed_point_sequence(g)
    seq.values[-1] -= 1.0  # below v*: 1:optimal-bound must fire
    with pytest.raises(InputError, match=message):
        check(g, seq, vstar=vstar)
