"""Worst-case instances: construction, closed forms, and path verification."""

import dataclasses

import numpy as np
import pytest

import sg.exact
import sg.hard
from sg.exact import evaluate, policy_iteration, stationary_distribution
from sg.game import (InputError, MAX_PLAYER, MIN_PLAYER, affine_reward_map, make_game,
                     validate)
from sg.hard import (Hi2Config, build_hi1, build_hi2, default_hi2_rewards,
                     hi1_distribution_bounds, hi2_vbar_signs,
                     si_single_flip_count, verify_pi_path_hi1,
                     verify_si_path_hi2)


# ---------------------------------------------------------------------------
# policy-iteration instance


def stationary_uniform(meta):
    """Closed form for the all-uniform policy's stationary distribution."""
    return np.full(meta.T, 1.0 / meta.T)


def stationary_extreme(meta):
    """Closed form for the all-R policy's stationary distribution."""
    lam = np.ones(meta.T)
    lam[meta.T - 1 - meta.s_prime:] = np.arange(1, meta.s_prime + 2)
    return lam / lam.sum()


def hi1_mean_value(meta, i):
    """Closed-form average value of the policy with the top i states on R.

    Derived from the fixed-point equations of that policy: the rewarded state
    (reward 1) feeds a length-i chain, everything else restarts uniformly.
    """
    g, T = meta.gamma, meta.T
    num = 1.0 - g ** (i + 1)
    den = T * (1.0 - g) ** 2 - g + (i + 1) * g * (1.0 - g) + g ** (i + 2)
    return num / den


def test_hi1_structure():
    game, meta = build_hi1(48)
    assert validate(game) == []
    assert meta.s_prime == 2
    two_action = [s for s in range(48) if game.space.n_actions[s] == 2]
    assert two_action == list(meta.chain_states)
    assert len(two_action) == meta.s_prime
    assert (game.owners == MAX_PLAYER).all()
    # only the top state is rewarded
    rewards = game.space.rewards
    assert rewards.sum() == 1.0
    assert game.gamma == 1.0 - 1.0 / (4.0 * 48)


def test_hi1_rejects_small_T():
    with pytest.raises(ValueError):
        build_hi1(30)


def test_hi1_rejects_a_T_whose_discount_rounds_to_one():
    # 1/(4T) = 2**-62 is below half an ulp of 1
    with pytest.raises(InputError, match="rounds gamma"):
        build_hi1(2 ** 60)


def test_hi1_stationary_closed_forms_exact():
    game, meta = build_hi1(48)
    lam0 = stationary_distribution(game, meta.policy_uniform())
    np.testing.assert_allclose(lam0, stationary_uniform(meta), atol=1e-10)
    lame = stationary_distribution(game, meta.policy_extreme())
    np.testing.assert_allclose(lame, stationary_extreme(meta), atol=1e-10)


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
    hi1, meta = build_hi1(48)
    game = make_game(hi1.gamma, hi1.owners,
                     [[dataclasses.replace(act, reward=0.0) for act in acts]
                      for acts in hi1.actions])
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



def doctored_pi(edit):
    """``policy_iteration`` whose strategy and trace ``edit`` rewrites."""
    def run(game, sigma0):
        sigma, trace = policy_iteration(game, sigma0)
        return edit(sigma, trace)
    return run


def drop_last_step(sigma, trace):
    del trace.changes[trace.improving_steps()[-1]]
    return sigma, trace


def add_a_flip(sigma, trace):
    trace.changes[trace.improving_steps()[1]].append((0, 0, 1))
    return sigma, trace


def swap_two_steps(sigma, trace):
    a, b = trace.improving_steps()[:2]
    trace.changes[a], trace.changes[b] = trace.changes[b], trace.changes[a]
    return sigma, trace


def stop_at_the_start(sigma, trace):
    return np.zeros_like(sigma), trace


@pytest.mark.parametrize("edit, want", [
    (drop_last_step, [("pi-path:count", (), 3.0, 4.0)]),
    (add_a_flip, [("pi-path:single-flip", (1,), 2.0, 1.0)]),
    (swap_two_steps, [("pi-path:order", (0,), 189.0, 190.0),
                      ("pi-path:order", (1,), 190.0, 189.0)]),
    (stop_at_the_start, [("pi-path:terminal", (), 0.0, 1.0)]),
], ids=["count", "single-flip", "order", "terminal"])
def test_hi1_verifier_reports_a_doctored_path(edit, want, monkeypatch):
    monkeypatch.setattr(sg.hard, "policy_iteration", doctored_pi(edit))
    _, report = verify_pi_path_hi1(192)  # s_prime = 4: flips at states 190, 189, 188, 187
    assert [(v.prop, v.index, v.lhs, v.rhs) for v in report.violations] == want


def test_hi1_verifier_reports_a_witness_that_is_not_suboptimal(monkeypatch):
    # every policy valued alike: the quarter-way policy misses nothing
    monkeypatch.setattr(sg.hard, "evaluate", lambda game, pi: np.zeros(game.n_states))
    _, report = verify_pi_path_hi1(192)
    assert [(v.prop, v.index, v.lhs, v.rhs) for v in report.violations] == [
        ("pi-path:suboptimality", (1,), 0.0, 0.1)]


def test_hi1_distribution_bounds_reports_each_failing_law(monkeypatch):
    T = 48
    lo, hi = 1.0 / (2 * T), 3.0 / T  # s_prime = 2
    laws = iter([None, np.full(T, 0.25 / T), np.r_[np.full(T - 1, 0.5 / T), 0.5 + 0.5 / T]])

    def stationary(game, pi):
        law = next(laws)
        if law is None:
            raise RuntimeError("did not converge")
        return law

    monkeypatch.setattr(sg.hard, "stationary_distribution", stationary)
    report = hi1_distribution_bounds(T, 1, seed=0)
    assert [(v.prop, v.index, v.lhs, v.rhs) for v in report.violations] == [
        ("hi1-bounds:non-convergent", (0,), 0.0, 0.0),
        ("hi1-bounds:lower", (1,), 0.25 / T, lo),
        ("hi1-bounds:upper", (2,), 0.5 + 0.5 / T, hi)]


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
    assert game.space.n_actions[meta.switch] == config.s_prime


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


def test_hi2_si_path_at_the_benchmark_size(monkeypatch):
    # the exact-hard benchmark's instance: 211 evaluations, 90 probes of the
    # off-path cells and 121 in the run
    probes = []

    def counted(game, sigma, evaluate=sg.hard.evaluate):
        probes.append(sigma)
        return evaluate(game, sigma)

    monkeypatch.setattr(sg.hard, "evaluate", counted)
    trace, report = verify_si_path_hi2(10_000)
    assert report.passed, report.summary()
    assert len(probes) == 90 and trace.total_policy_evaluations == 121
    s = default_hi2_rewards(10_000).s_prime
    assert s * (s - 1) <= si_single_flip_count(trace) <= s * (s + 2)


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



@pytest.mark.parametrize("change, prop, cells", [
    # a goal worth less than the switch: the reaching family is positive
    ({"r_goal": 0.1}, "vbar-sign:negative", [(i, z) for z in range(3) for i in (1, 2)]),
    # rewards far past the first-order regime: the escaping family leaves the band
    ({"r_goal": 50.0, "switch_rewards": (40.0, 40.0)}, "vbar-sign:band",
     [(i, z) for z in range(3) for i in (0, 1)]),
], ids=["negative", "band"])
def test_hi2_vbar_signs_reports_each_cell_out_of_pattern(change, prop, cells):
    config = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), **change})
    report = hi2_vbar_signs(400, config)
    assert [(v.prop, v.index) for v in report.violations] == [(prop, c) for c in cells]
    for v in report.violations:
        if prop == "vbar-sign:negative":
            assert v.lhs >= 0.0 and v.rhs == 0.0 and v.slack == v.lhs
        else:
            assert v.slack == abs(v.lhs - v.rhs) - sg.hard.VBAR_BAND > 0.0


@pytest.mark.parametrize("change, message", [
    ({"s_b": 2}, "boosting chains must be longer"),
    ({"s_b_prime": 1}, "boosting chains must be longer"),
    ({"switch_rewards": (0.65, 0.65, 0.65)}, "one switch reward per min-chain state"),
    ({"switch_rewards": (0.65,)}, "one switch reward per min-chain state"),
], ids=["s_b", "s_b_prime", "three-rewards", "one-reward"])
def test_hi2_refuses_a_config_it_cannot_lay_out(change, message):
    config = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), **change})
    for run in (build_hi2, verify_si_path_hi2, hi2_vbar_signs):
        with pytest.raises(InputError, match=message):
            run(400, config)


def test_hi2_flux_ratio_tracks_ergodicity_ratio():
    # at gamma = 1 - 1/(8T) the two extremal ratios agree within a factor 2
    # on a modest strategy sample
    from sg.exact import ratio_scan
    game, _ = build_hi2(400)
    report = ratio_scan(game, sample=20, seed=1, keep_rows=False)
    ratio = report.flux_ratio / report.ergodicity_ratio
    assert 0.5 <= ratio <= 2.0


def test_hi2_config_round_trip():
    config = default_hi2_rewards(400)
    back = Hi2Config.from_json_dict(config.to_json_dict())
    assert back == config


def test_hi2_verifier_evaluates_off_path_cells_and_the_run_only(monkeypatch):
    # the run verifies every move on its path, so the probe sweeps only the
    # (S'-1) S' off-path rebuild cells, none of which the run evaluates
    calls = {sg.hard: [], sg.exact: []}
    for module in calls:
        def counted(game, sigma, evaluate=module.evaluate, seen=calls[module]):
            seen.append(sigma.tobytes())
            return evaluate(game, sigma)
        monkeypatch.setattr(module, "evaluate", counted)
    trace, report = verify_si_path_hi2(400)
    s = default_hi2_rewards(400).s_prime
    assert report.passed
    assert len(calls[sg.hard]) + len(calls[sg.exact]) == \
        (s - 1) * s + trace.total_policy_evaluations
    assert not set(calls[sg.hard]) & set(calls[sg.exact])
