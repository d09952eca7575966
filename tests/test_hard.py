"""Worst-case instances: construction, closed forms, and path verification."""

import numpy as np
import pytest

from sg.exact import evaluate, policy_iteration, stationary_distribution
from sg.game import InputError, MAX_PLAYER, MIN_PLAYER, affine_reward_map, validate
from sg.hard import (Hi2Config, build_hi1, build_hi2, default_hi2_rewards,
                     hi1_distribution_bounds, hi1_mean_value, hi2_vbar_signs,
                     si_single_flip_count, verify_pi_path_hi1,
                     verify_si_path_hi2)


# ---------------------------------------------------------------------------
# policy-iteration instance


def test_hi1_structure():
    game, meta = build_hi1(48)
    assert validate(game) == []
    assert meta.s_prime == 2
    two_action = [s for s in range(48) if game.n_actions_at(s) == 2]
    assert two_action == list(meta.chain_states)
    assert len(two_action) == meta.s_prime
    assert (game.owners == MAX_PLAYER).all()
    # only the top state is rewarded
    rewards = game.space.rewards
    assert rewards.sum() == meta.r_top
    assert game.gamma == 1.0 - 1.0 / (4.0 * 48)


def test_hi1_rejects_small_T():
    with pytest.raises(ValueError):
        build_hi1(30)


@pytest.mark.parametrize("beta_factor", [float("nan"), float("inf"), 1e300])
def test_hi1_rejects_a_beta_factor_without_a_discount_below_one(beta_factor):
    with pytest.raises(InputError, match="beta_factor"):
        build_hi1(48, beta_factor=beta_factor)


def test_hi1_stationary_closed_forms_exact():
    game, meta = build_hi1(48)
    lam0 = stationary_distribution(game, meta.policy_uniform())
    np.testing.assert_allclose(lam0, meta.stationary_uniform(), atol=1e-10)
    lame = stationary_distribution(game, meta.policy_extreme())
    np.testing.assert_allclose(lame, meta.stationary_extreme(), atol=1e-10)


def test_hi1_mean_value_formula():
    game, meta = build_hi1(48)
    for i in (0, 1, 2):
        v = evaluate(game, meta.policy_chain(i))
        assert abs(float(v.mean()) - hi1_mean_value(meta, i)) < 1e-8


def test_hi1_pi_path_and_counts():
    for T, expected in ((48, 2), (192, 4)):
        trace, report = verify_pi_path_hi1(T)
        assert report.passed, report.summary()
        assert len(trace.improving_steps()) == expected


def test_hi1_iteration_count_scales_like_sqrt():
    _, r192 = verify_pi_path_hi1(192)
    _, r768 = verify_pi_path_hi1(768)
    assert r192.passed and r768.passed
    t192, _ = verify_pi_path_hi1(192)
    t768, _ = verify_pi_path_hi1(768)
    assert len(t768.improving_steps()) == 2 * len(t192.improving_steps())


def test_hi1_zero_reward_degenerate():
    game, meta = build_hi1(48, r_top=0.0)
    sigma, trace = policy_iteration(game, meta.policy_uniform())
    assert trace.improving_steps() == []
    assert trace.total_policy_evaluations == 1
    np.testing.assert_allclose(evaluate(game, sigma), 0.0, atol=1e-12)


def test_hi1_distribution_bounds_small_sample():
    report = hi1_distribution_bounds(48, 25, seed=0)
    assert report.passed, report.summary()


def test_hi1_verifier_is_deterministic():
    t1, _ = verify_pi_path_hi1(48)
    t2, _ = verify_pi_path_hi1(48)
    assert t1.csv_rows() == t2.csv_rows()


# ---------------------------------------------------------------------------
# strategy-iteration instance


def test_hi2_state_count_and_validation():
    config = default_hi2_rewards(400)
    game, meta = build_hi2(400, config)
    assert meta.n_states == 400 + 2 * config.s_prime + config.s_b + config.s_b_prime + 2
    assert validate(game) == []
    r = game.space.rewards
    assert r.min() >= -1.0 and r.max() <= 1.0
    shifted = affine_reward_map(game, scale=2.0, offset=1.0)
    assert validate(shifted) == []
    assert shifted.space.rewards.min() >= 0.0
    assert shifted.space.rewards.max() <= 1.0


def test_hi2_ownership_split():
    config = default_hi2_rewards(400)
    game, meta = build_hi2(400, config)
    assert game.owners[meta.switch] == MAX_PLAYER
    assert game.owners[meta.goal] == MIN_PLAYER
    assert all(game.owners[meta.m(j)] == MIN_PLAYER
               for j in range(1, config.s_prime + 1))
    assert all(game.owners[meta.M(j)] == MAX_PLAYER
               for j in range(1, config.s_prime + 1))
    assert game.n_actions_at(meta.switch) == config.s_prime


def test_hi2_value_chain_relations():
    """Exact values of the boosting chain decay geometrically to the goal."""
    config = default_hi2_rewards(400)
    game, meta = build_hi2(400, config)
    for (i, z) in ((1, 0), (2, 1), (1, 2)):
        v = evaluate(game, meta.joint(i, i, z))
        vbar = float(v.mean())
        g = config.gamma
        goal_value = -config.r_goal + g * vbar
        assert v[meta.goal] == pytest.approx(goal_value, abs=1e-8)
        for j in range(1, config.s_b + 1):
            assert v[meta.b(j)] == pytest.approx(g ** j * goal_value, abs=1e-8)
        # min-chain states stack the per-step reward on top of the chain decay
        for j in range(1, i + 1):
            expect = g ** (j + config.s_b) * goal_value \
                + (1 - g ** j) / (1 - g) * config.r_delta
            assert v[meta.m(j)] == pytest.approx(expect, abs=1e-8)


def test_hi2_si_path_T400():
    trace, report = verify_si_path_hi2(400)
    assert report.passed, report.summary()
    config = default_hi2_rewards(400)
    n = si_single_flip_count(trace)
    s = config.s_prime
    assert s * (s - 1) <= n <= s * (s + 2)


def test_hi2_si_path_deterministic():
    t1, _ = verify_si_path_hi2(400)
    t2, _ = verify_si_path_hi2(400)
    assert t1.csv_rows() == t2.csv_rows()


def test_hi2_increasing_rewards_break_the_path():
    config = default_hi2_rewards(400)
    bad = Hi2Config(**{**config.to_json_dict(),
                       "switch_rewards": (0.55, 0.75)})
    _, report = verify_si_path_hi2(400, bad)
    assert not report.passed
    assert any(v.prop == "si-config:reward-order" for v in report.violations)
    assert any(v.prop.startswith("si-") and "config" not in v.prop
               for v in report.violations)


def test_hi2_vbar_signs_T400():
    report = hi2_vbar_signs(400)
    assert report.passed, report.summary()


def test_hi2_vbar_signs_out_of_regime_reports_not_crashes():
    config = default_hi2_rewards(400)
    far = Hi2Config(**{**config.to_json_dict(), "gamma": 0.5})
    report = hi2_vbar_signs(400, far)
    # far from the gamma -> 1 regime the pattern may legitimately fail;
    # the point is that it is reported, not raised
    assert report.violations is not None


def test_hi2_flux_ratio_tracks_ergodicity_ratio():
    # at gamma = 1 - 1/(8T) the two extremal ratios agree within a factor 2
    # on a modest strategy sample
    from sg.exact import ratio_scan
    game, _ = build_hi2(400)
    report = ratio_scan(game, enumerate_all=False, sample=20, seed=1,
                        keep_rows=False)
    ratio = report.flux_ratio / report.ergodicity_ratio
    assert 0.5 <= ratio <= 2.0


def test_hi2_config_round_trip():
    config = default_hi2_rewards(400)
    back = Hi2Config.from_json_dict(config.to_json_dict())
    assert back == config
