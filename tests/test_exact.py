"""Exact solvers against independent oracles and closed forms."""

import dataclasses
import json
from itertools import product

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import sg.exact
import sg.game
from sg.cli import write_csv
from sg.exact import (EVAL_RESIDUAL_TOL, PolicyLinearSystem, apply_strategy, bellman,
                      best_response,
                      evaluate, flux, greedy_from_q, improve,
                      policy_iteration, q_from_v, ratio_scan, scan_stack,
                      stationary_distribution, strategy_iteration,
                      value_iteration)
from sg.game import (Action, InputError, MAX_PLAYER, MIN_PLAYER, from_json_dict, make_game,
                     mirror, quotient, to_json_dict, with_gamma)
from sg.checks import MarkovianPlan, markovian_evaluate
from sg.generate import clustered_game, random_game
from sg.hard import build_hi1, build_hi2, verify_si_path_hi2
from sg.qvi import qvi_mdvss
from sg.sampler import GenerativeModel

from csr_oracle import gathered


def naive_q(game, v):
    """Per-entry dot-product oracle for r + gamma * P v."""
    out = []
    for s, acts in enumerate(game.actions):
        for act in acts:
            if act.uniform:
                ev = v.mean()
            else:
                ev = sum(p * v[t] for t, p in zip(act.next_states, act.probs))
            out.append(act.reward + game.gamma * ev)
    return np.array(out)


def all_strategies(game):
    """Every pure strategy of ``game``, one int64 array each."""
    return [np.array(combo, dtype=np.int64)
            for combo in product(*(range(int(k)) for k in game.space.n_actions))]


def half_bellman(game, v, pi, player):
    """The half operator as the certifier's ``2:half`` row forms it: ``pi``
    on ``player``'s states, the optimum of Q(v) elsewhere."""
    q = q_from_v(game, v)
    return np.where(game.owners == player, q[game.space.chosen_pairs(pi)], bellman(game, v))


# ---------------------------------------------------------------------------
# q_from_v / greedy_from_q / the half operator


def test_q_zero_value_gives_rewards():
    g = random_game(4, 3, 0.9, seed=0)
    np.testing.assert_allclose(q_from_v(g, np.zeros(4)), g.space.rewards)


def test_q_fixed_point_one_state():
    g = make_game(0.9, [MAX_PLAYER], [[
        Action(reward=1.0, next_states=np.array([0]), probs=np.array([1.0]))
    ]])
    assert q_from_v(g, np.array([10.0]))[0] == pytest.approx(10.0)


def test_q_matches_naive_oracle():
    g = random_game(4, 3, 0.85, seed=7)
    v = np.random.default_rng(1).normal(size=4)
    np.testing.assert_allclose(q_from_v(g, v), naive_q(g, v), atol=1e-12)


def test_greedy_tie_breaks_to_lowest_index():
    g = make_game(0.9, [MAX_PLAYER], [[
        Action(reward=0.0, uniform=True), Action(reward=0.0, uniform=True),
    ]])
    v, sigma = greedy_from_q(g.space, np.array([2.0, 2.0]))
    assert sigma[0] == 0 and v[0] == 2.0


def test_greedy_min_state():
    g = make_game(0.9, [MIN_PLAYER], [[Action(reward=0.0, uniform=True)] * 3])
    v, sigma = greedy_from_q(g.space, np.array([3.0, 1.0, 2.0]))
    assert v[0] == 1.0 and sigma[0] == 1


def test_greedy_prefers_chain_on_hi1():
    game, meta = build_hi1(48)
    v = evaluate(game, meta.policy_uniform())
    _, sigma = greedy_from_q(game.space, q_from_v(game, v))
    assert sigma[meta.T - 2] == 1  # chain move beats the uniform restart


def test_greedy_refuses_a_non_finite_optimum():
    g = random_game(5, 3, 0.9, seed=4)  # pair 7 is action 1 of state 2
    worst = np.inf if g.owners[2] == MIN_PLAYER else -np.inf
    for bad in (np.nan, -worst):
        q = np.zeros(g.n_pairs)
        q[7] = bad
        with pytest.raises(ValueError, match="non-finite optimum at state 2"):
            greedy_from_q(g.space, q)
    q = np.zeros(g.n_pairs)
    q[7] = worst  # never the optimum, so nothing to refuse
    assert greedy_from_q(g.space, q)[1][2] == 0


@pytest.mark.parametrize("game", [random_game(7, 3, 0.9, seed=8), build_hi1(48)[0]],
                         ids=["square", "ragged"])
def test_greedy_on_a_stack_equals_greedy_row_by_row(game):
    rng = np.random.default_rng(3)
    stack = np.round(rng.normal(size=(6, game.n_pairs)), 1)  # rounding makes ties
    stack[0] = 0.0
    stack[1, ::2] = -0.0
    values, strategies = greedy_from_q(game.space, stack)
    for q, v, sigma in zip(stack, values, strategies):
        v_row, sigma_row = greedy_from_q(game.space, q)
        assert v.tobytes() == v_row.tobytes() and np.array_equal(sigma, sigma_row)


@st.composite
def ragged_q_stacks(draw):
    """A ragged MIN/MAX action space (1-4 actions a state) and a stack of Qs
    rich in ties and signed zeros."""
    n_actions = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    owners = draw(st.lists(st.sampled_from([MIN_PLAYER, MAX_PLAYER]),
                           min_size=len(n_actions), max_size=len(n_actions)))
    point = Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))
    space = make_game(0.9, owners, [[point] * k for k in n_actions]).space
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-1e3, 1e3, allow_subnormal=False))
    k = draw(st.integers(1, 4))
    stack = np.array(draw(st.lists(entry, min_size=k * space.n_pairs,
                                   max_size=k * space.n_pairs))).reshape(k, space.n_pairs)
    return space, stack


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ragged_q_stacks())
def test_greedy_values_are_the_q_of_the_chosen_pairs_bit_for_bit(case):
    # the values are read by one flat take; np.take_along_axis at the chosen
    # pairs is the former reading, for one Q and for a stack
    space, stack = case
    values, strategies = greedy_from_q(space, stack)
    pairs = space.state_offset[:-1] + strategies
    assert same_bits(values, np.take_along_axis(stack, pairs, axis=-1))
    for q, v, sigma in zip(stack, values, strategies):
        v_row, sigma_row = greedy_from_q(space, q)
        assert same_bits(v_row, np.take_along_axis(q, space.state_offset[:-1] + sigma_row,
                                                   axis=-1))
        assert same_bits(v, v_row) and same_bits(sigma, sigma_row)


def test_greedy_refuses_a_stack_of_the_wrong_shape():
    g = random_game(5, 3, 0.9, seed=4)
    for shape in ((2, g.n_pairs + 1), (2, 3, g.n_pairs), ()):
        with pytest.raises(InputError, match="q shape"):
            greedy_from_q(g.space, np.zeros(shape))


def test_greedy_on_a_stack_refuses_a_non_finite_optimum_in_any_row():
    g = random_game(5, 3, 0.9, seed=4)  # pair 7 is action 1 of state 2
    for row in range(3):
        stack = np.zeros((3, g.n_pairs))
        stack[row, 6:9] = np.nan
        with pytest.raises(ValueError, match="non-finite optimum at state 2"):
            greedy_from_q(g.space, stack)


def test_value_iteration_stops_on_overflowing_values(monkeypatch):
    # 1e308 / (1 - 0.9) overflows: the loader refuses such a game, make_game does not
    monkeypatch.setattr(sg.exact, "VI_MAX_SWEEPS", 50)
    g = make_game(0.9, [MIN_PLAYER, MAX_PLAYER], [
        [Action(reward=1e308, next_states=np.array([1]), probs=np.array([1.0]))],
        [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        value_iteration(g, 0.01)


def test_value_iteration_refuses_a_nan_tolerance(monkeypatch):
    monkeypatch.setattr(sg.exact, "VI_MAX_SWEEPS", 1000)
    g = random_game(4, 2, 0.9, seed=0)
    with pytest.raises(InputError, match="tol"):
        value_iteration(g, float("nan"))


# ---------------------------------------------------------------------------
# segmented greedy selection against the padded action grid


def is_max(space):
    """The MAX player's states, read off the sign of each state's first pair."""
    return space.pair_sign[space.state_offset[:-1]] < 0


def padded_grid(space, q):
    """Q spread into (n_states, a_max), missing actions at -inf (MAX) / +inf (MIN)."""
    cols = np.arange(space.n_pairs) - space.state_offset[space.pair_state]
    grid = np.where(is_max(space)[:, None], -np.inf, np.inf) \
        * np.ones((1, int(space.n_actions.max())))
    grid[space.pair_state, cols] = q
    return grid


def padded_greedy(space, q):
    grid, top = padded_grid(space, q), is_max(space)
    v = np.where(top, grid.max(axis=1), grid.min(axis=1))
    sigma = np.where(top, grid.argmax(axis=1), grid.argmin(axis=1))
    return v, sigma.astype(np.int64)


def padded_improve(game, v, sigma, improvable):
    space = game.space
    tol = 1e-9 * (1.0 + float(np.abs(v).max(initial=0.0)))
    q = q_from_v(game, v)
    grid, top = padded_grid(space, q), is_max(space)
    q_inc = q[space.chosen_pairs(sigma)]
    best = np.where(top, grid.max(axis=1), grid.min(axis=1))
    gain = np.where(top, best - q_inc, q_inc - best)
    near_best = np.where(top[:, None], grid >= (best - tol)[:, None],
                         grid <= (best + tol)[:, None])
    choice = near_best.argmax(axis=1)
    new_sigma = sigma.copy()
    flips = []
    for s in np.flatnonzero(improvable & (gain > tol)):
        if choice[s] != sigma[s]:
            new_sigma[s] = choice[s]
            flips.append((int(s), int(sigma[s]), int(choice[s])))
    return new_sigma, flips, float(np.maximum(gain, 0.0)[improvable].max(initial=0.0))


def integer_game(n, rng, jitter=0.0):
    """1-5 actions per state, integer rewards, one successor each, gamma 1/2:
    Q(v) of an integer v is exact, so ties are exact too. ``jitter`` adds 0
    or ``jitter`` to each reward, turning some ties into near-ties."""
    actions = [[Action(reward=float(rng.integers(0, 3)) + jitter * rng.integers(0, 2),
                       next_states=np.array([rng.integers(0, n)]), probs=np.array([1.0]))
                for _ in range(rng.integers(1, 6))] for _ in range(n)]
    return make_game(0.5, rng.integers(0, 2, size=n), actions)


def oracle_games():
    rng = np.random.default_rng(77)
    yield build_hi1(48)[0]
    yield build_hi2(400)[0]
    for owners in ("split", "min", "max"):
        yield random_game(30, 4, 0.9, seed=11, owners=owners)
    for n in (1, 7, 40):
        yield integer_game(n, rng)
        yield integer_game(n, rng, jitter=1e-12)
        yield mixed_row_game(n, 0.9, rng)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_greedy_matches_padded_grid_bit_for_bit():
    rng = np.random.default_rng(5)
    for g in oracle_games():
        for q in (rng.normal(size=g.n_pairs),
                  rng.integers(-2, 3, size=g.n_pairs).astype(np.float64),  # exact ties
                  np.ones(g.n_pairs),                                      # all tied
                  q_from_v(g, rng.uniform(0, 10, size=g.n_states))):
            v, sigma = greedy_from_q(g.space, q)
            v_ref, sigma_ref = padded_greedy(g.space, q)
            assert same_bits(v, v_ref) and same_bits(sigma, sigma_ref)


def test_improve_matches_padded_grid_bit_for_bit():
    rng = np.random.default_rng(6)
    for g in oracle_games():
        sides = (g.owners == MIN_PLAYER, g.owners == MAX_PLAYER, np.ones(g.n_states, bool))
        for v in (rng.normal(size=g.n_states) * 10,
                  rng.integers(-3, 4, size=g.n_states).astype(np.float64),
                  np.zeros(g.n_states)):
            for _ in range(3):
                sigma = rng.integers(0, g.space.n_actions)
                for improvable in sides:
                    got = improve(g, v, sigma, improvable)
                    ref = padded_improve(g, v, sigma, improvable)
                    assert same_bits(got[0], ref[0])
                    assert got[1] == ref[1]
                    assert same_bits(got[2], ref[2])


def test_improve_picks_the_lowest_near_best_action():
    # MAX state: actions 1 and 3 tie for the best; the incumbent 0 is worse
    g = make_game(0.5, [MAX_PLAYER], [[
        Action(reward=r, next_states=np.array([0]), probs=np.array([1.0]))
        for r in (0.0, 2.0, 1.0, 2.0)]])
    sigma, flips, gain = improve(g, np.zeros(1), np.array([0]), np.ones(1, bool))
    assert sigma.tolist() == [1] and flips == [(0, 0, 1)] and gain == 2.0
    # within the tie tolerance of the best counts as best: action 1 again
    g = make_game(0.5, [MAX_PLAYER], [[
        Action(reward=r, next_states=np.array([0]), probs=np.array([1.0]))
        for r in (0.0, 2.0 - 1e-12, 1.0, 2.0)]])
    sigma, flips, gain = improve(g, np.zeros(1), np.array([0]), np.ones(1, bool))
    assert sigma.tolist() == [1] and flips == [(0, 0, 1)] and gain == 2.0
    # an incumbent tied with the best stays
    sigma, flips, gain = improve(g, np.zeros(1), np.array([3]), np.ones(1, bool))
    assert sigma.tolist() == [3] and flips == [] and gain == 0.0


def test_half_bellman_greedy_collapses_to_full_operator():
    g = random_game(6, 3, 0.9, seed=3)
    v = np.random.default_rng(0).uniform(0, 10, size=6)
    _, sigma = greedy_from_q(g.space, q_from_v(g, v))
    for player in (MIN_PLAYER, MAX_PLAYER):
        np.testing.assert_allclose(half_bellman(g, v, sigma, player),
                                   bellman(g, v), atol=1e-12)


def test_half_bellman_fixed_point_at_optimum():
    g = random_game(6, 3, 0.9, seed=4)
    vstar, sstar, _ = value_iteration(g, 1e-11)
    h = half_bellman(g, vstar, sstar, MIN_PLAYER)
    np.testing.assert_allclose(h, vstar, atol=1e-9)


def test_half_bellman_matches_naive_two_state():
    g = random_game(2, 2, 0.7, seed=5)
    v = np.array([1.0, -2.0])
    pi = np.array([1, 0])
    q = naive_q(g, v)
    for player in (MIN_PLAYER, MAX_PLAYER):
        got = half_bellman(g, v, pi, player)
        for s in range(2):
            qs = q[g.space.state_offset[s]:g.space.state_offset[s + 1]]
            if g.owners[s] == player:
                expect = qs[pi[s]]
            elif g.owners[s] == MAX_PLAYER:
                expect = qs.max()
            else:
                expect = qs.min()
            assert got[s] == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_near_myopic_at_tiny_gamma():
    g = random_game(5, 2, 1e-12, seed=8)
    sigma = np.zeros(5, dtype=np.int64)
    r_sigma = g.space.rewards[g.space.chosen_pairs(sigma)]
    np.testing.assert_allclose(evaluate(g, sigma), r_sigma, atol=1e-10)


def test_evaluate_matches_iterative_oracle():
    g = random_game(6, 3, 0.9, seed=9)
    sigma = np.array([1, 0, 2, 1, 0, 2])
    v = np.zeros(6)
    for _ in range(600):  # fixed-strategy value iteration as the oracle
        v = apply_strategy(g, v, sigma)
    np.testing.assert_allclose(evaluate(g, sigma), v, atol=1e-8)


def test_evaluate_is_fixed_point():
    g = random_game(7, 2, 0.95, seed=10)
    sigma = np.ones(7, dtype=np.int64)
    v = evaluate(g, sigma)
    np.testing.assert_allclose(apply_strategy(g, v, sigma), v, atol=1e-9)


# ---------------------------------------------------------------------------
# value iteration


def test_value_iteration_geometric_series():
    g = make_game(0.9, [MAX_PLAYER], [[
        Action(reward=1.0, next_states=np.array([0]), probs=np.array([1.0]))
    ]])
    v, _, _ = value_iteration(g, 1e-10)
    assert v[0] == pytest.approx(10.0, abs=1e-9)


def test_value_iteration_contraction_certificate():
    g = random_game(6, 3, 0.9, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(50):
        v1 = rng.uniform(-5, 15, size=6)
        v2 = rng.uniform(-5, 15, size=6)
        lhs = np.abs(bellman(g, v1) - bellman(g, v2)).max()
        assert lhs <= g.gamma * np.abs(v1 - v2).max() + 1e-12


def test_value_iteration_monotonicity_certificate():
    g = random_game(6, 3, 0.9, seed=12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v1 = rng.uniform(0, 10, size=6)
        v2 = v1 + rng.uniform(0, 2, size=6)
        assert (bellman(g, v1) <= bellman(g, v2) + 1e-12).all()


def test_value_iteration_consistent_with_evaluate():
    g = random_game(6, 2, 0.9, seed=13)
    tol = 1e-6
    v, sigma, _ = value_iteration(g, tol)
    v_sigma = evaluate(g, sigma)
    assert np.abs(v - v_sigma).max() <= 2 * tol / (1 - g.gamma)


def test_value_iteration_stop_rule_bounds_distance():
    g = random_game(8, 3, 0.9, seed=14)
    vstar, _, _ = value_iteration(g, 1e-11)
    for tol in (1e-2, 1e-4):
        v, _, _ = value_iteration(g, tol)
        assert np.abs(v - vstar).max() <= tol


# ---------------------------------------------------------------------------
# policy iteration


def test_policy_iteration_fixed_point_detection():
    g = random_game(5, 3, 0.9, seed=15, owners="max")
    sigma_opt, _ = policy_iteration(g, np.zeros(5, dtype=np.int64))
    sigma, trace = policy_iteration(g, sigma_opt)
    assert trace.total_policy_evaluations == 1
    assert trace.improving_steps() == []
    assert np.array_equal(sigma, sigma_opt)


def test_policy_iteration_matches_value_iteration():
    g = random_game(5, 3, 0.9, seed=16, owners="max")
    sigma, _ = policy_iteration(g, np.zeros(5, dtype=np.int64))
    v_pi = evaluate(g, sigma)
    v_vi, _, _ = value_iteration(g, 1e-10)
    np.testing.assert_allclose(v_pi, v_vi, atol=1e-8)


def test_policy_iteration_values_monotone_for_max_player():
    g = random_game(6, 4, 0.9, seed=17, owners="max")
    sigma = np.zeros(6, dtype=np.int64)
    prev = evaluate(g, sigma)
    while True:
        new_sigma, trace = policy_iteration(g, sigma)
        break
    # re-walk the trace by hand, checking each improvement raises the value
    sigma = np.zeros(6, dtype=np.int64)
    v = evaluate(g, sigma)
    while True:
        q = q_from_v(g, v)
        _, greedy_sigma = greedy_from_q(g.space, q)
        if np.array_equal(greedy_sigma, sigma):
            break
        sigma = greedy_sigma
        v_next = evaluate(g, sigma)
        assert (v_next >= v - 1e-10).all()
        if np.abs(v_next - v).max() < 1e-13:
            break
        v = v_next


def test_policy_iteration_requires_single_owner_without_fixed():
    g = random_game(4, 2, 0.9, seed=18)  # mixed owners
    with pytest.raises(ValueError):
        policy_iteration(g, np.zeros(4, dtype=np.int64))


def test_policy_iteration_with_fixed_player_is_best_response():
    g = random_game(6, 3, 0.9, seed=19)
    sigma = np.zeros(6, dtype=np.int64)
    joint, v = best_response(g, sigma, MIN_PLAYER)
    # fixed player's actions unchanged
    assert np.array_equal(joint[g.owners == MIN_PLAYER], sigma[g.owners == MIN_PLAYER])
    # no max-state action improves on the response value
    q = q_from_v(g, v)
    for s in np.flatnonzero(g.owners == MAX_PLAYER):
        qs = q[g.space.state_offset[s]:g.space.state_offset[s + 1]]
        assert qs.max() <= v[s] + 1e-8


@pytest.mark.parametrize("call", [
    lambda g: best_response(g, np.zeros(3), MIN_PLAYER),
    lambda g: policy_iteration(g, np.zeros(3, dtype=np.int64)),
], ids=["best-response", "short-init"])
def test_a_strategy_of_the_wrong_length_is_refused_before_indexing(call):
    # the fixed player's actions used to be copied in before any check,
    # so a short strategy raised numpy's IndexError
    with pytest.raises(InputError, match="strategy shape"):
        call(random_game(4, 2, 0.9, seed=0))


@pytest.mark.parametrize("call", [
    lambda g, s: best_response(g, s, 5),
], ids=["best-response"])
def test_a_player_that_is_neither_min_nor_max_is_refused(call):
    # such a player owns no state, so this fixed nothing and silently
    # returned a joint optimisation
    g = random_game(6, 2, 0.9, seed=0)
    with pytest.raises(InputError, match="player must be"):
        call(g, np.zeros(6, dtype=np.int64))


@pytest.mark.parametrize("improvable", [np.ones(3, bool), np.ones((6, 1), bool),
                                        np.ones(6, dtype=np.int64)],
                         ids=["short", "column", "integer"])
def test_improve_refuses_a_mask_that_is_not_one_flag_per_state(improvable):
    # a short mask raised numpy's IndexError; an integer one would index states
    g = random_game(6, 2, 0.9, seed=0)
    sigma = np.zeros(6, dtype=np.int64)
    with pytest.raises(InputError, match="improvable must be a boolean mask"):
        improve(g, evaluate(g, sigma), sigma, improvable)


@pytest.mark.parametrize("sigma", [np.full(4, 0.5), np.zeros(4, dtype=bool),
                                   np.ones((2, 4))], ids=["half", "bool", "float-stack"])
def test_a_strategy_that_is_not_integer_is_refused(sigma):
    # 0.5 used to pass the range check and be truncated to action 0 by every caller
    g = random_game(4, 2, 0.9, seed=0)
    with pytest.raises(InputError, match="strategy must hold integers"):
        g.space.check_strategy(sigma)
    calls = [lambda: scan_stack(g, np.atleast_2d(sigma)),
             lambda: qvi_mdvss(GenerativeModel(g, master_seed=0), 1.0, 0.1,
                               np.full(4, 10.0), sigma)]
    if sigma.ndim == 1:
        calls += [lambda: evaluate(g, sigma), lambda: apply_strategy(g, np.zeros(4), sigma),
                  lambda: best_response(g, sigma, MIN_PLAYER),
                  lambda: strategy_iteration(g, sigma),
                  lambda: markovian_evaluate(g, MarkovianPlan.make([sigma], np.zeros(4, int)))]
    for call in calls:
        with pytest.raises(InputError, match="strategy"):
            call()


def test_an_unsigned_strategy_reads_as_the_signed_one():
    # check_strategy accepts unsigned integers, and int64 pair offsets plus
    # uint64 actions make float indices: every caller reads the int64 array
    # that the check returns
    g = random_game(5, 3, 0.9, seed=2)
    v = np.linspace(0.0, 1.0, 5)
    calls = [lambda s: apply_strategy(g, v, s),
             lambda s: improve(g, v, s, g.owners == MAX_PLAYER)[0],
             lambda s: evaluate(g, s),
             lambda s: best_response(g, s, MIN_PLAYER)[1],
             lambda s: markovian_evaluate(g, MarkovianPlan.make([s], s))[1]]
    for call in calls:
        assert same_bits(call(np.zeros(5, np.uint64)), call(np.zeros(5, np.int64)))


# ---------------------------------------------------------------------------
# strategy iteration


def test_strategy_iteration_fixed_point():
    g = random_game(6, 3, 0.9, seed=20)
    sigma_opt, _ = strategy_iteration(g, np.zeros(6, dtype=np.int64))
    sigma, trace = strategy_iteration(g, sigma_opt)
    assert np.array_equal(sigma, sigma_opt)
    assert not any(trace.changes)


def test_strategy_iteration_matches_value_iteration():
    for seed in range(4):
        g = random_game(6, 3, 0.9, seed=21 + seed)
        sigma, _ = strategy_iteration(g, np.zeros(6, dtype=np.int64))
        v = evaluate(g, sigma)
        v_vi, _, _ = value_iteration(g, 1e-9)
        assert np.abs(v - v_vi).max() < 1e-7


def test_strategy_iteration_output_is_equilibrium():
    g = random_game(8, 3, 0.9, seed=25)
    sigma, _ = strategy_iteration(g, np.zeros(8, dtype=np.int64))
    v = evaluate(g, sigma)
    assert np.abs(bellman(g, v) - v).max() <= 1e-8
    # both epsilon-optimality inequalities against exact best responses
    _, v_max_resp = best_response(g, sigma, MIN_PLAYER)
    _, v_min_resp = best_response(g, sigma, MAX_PLAYER)
    assert (v_max_resp <= v + 1e-7).all()
    assert (v_min_resp >= v - 1e-7).all()


@pytest.mark.parametrize("case", ["hi2", (6, 3, 0), (20, 4, 1)],
                         ids=["hi2", "random-6", "random-20"])
def test_strategy_iteration_evaluates_no_strategy_twice(monkeypatch, case):
    # a min step with no flip right after a converged max phase ends the run:
    # another outer pass would only evaluate the same strategy again
    seen = []

    def counted(game, sigma, evaluate=sg.exact.evaluate):
        seen.append(sigma.tobytes())
        return evaluate(game, sigma)

    monkeypatch.setattr(sg.exact, "evaluate", counted)
    if case == "hi2":  # the run checks itself against expected_si_path and the flip band
        g, meta = build_hi2(400)
        trace, report = verify_si_path_hi2(400)
        assert report.passed, report.summary()
        sigma = meta.joint(0, 1, 0)
        for flips in trace.changes:
            for s, _, new in flips:
                sigma[s] = new
    else:
        n, k, seed = case
        g = random_game(n, k, 0.9, seed=seed)
        sigma, trace = strategy_iteration(g, np.zeros(n, dtype=np.int64))
    assert len(seen) == len(set(seen)) == trace.total_policy_evaluations
    v = evaluate(g, sigma)
    _, v_max_resp = best_response(g, sigma, MIN_PLAYER)
    _, v_min_resp = best_response(g, sigma, MAX_PLAYER)
    assert (v_max_resp <= v + 1e-7).all()
    assert (v_min_resp >= v - 1e-7).all()


# ---------------------------------------------------------------------------
# stationary distributions and flux


def test_stationary_uniform_for_doubly_stochastic_chain():
    P = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    acts = [[Action(reward=0.0, next_states=np.arange(3), probs=P[s])]
            for s in range(3)]
    g = make_game(0.9, [MAX_PLAYER] * 3, acts)
    lam = stationary_distribution(g, np.zeros(3, dtype=np.int64))
    np.testing.assert_allclose(lam, 1.0 / 3.0, atol=1e-10)


def _fed_two_cycle():
    # states 0 and 1 cycle, state 2 feeds into the cycle: plain power
    # iteration from the uniform start oscillates forever
    acts = [[Action(reward=0.0, next_states=np.array([1]), probs=np.array([1.0]))],
            [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))],
            [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))]]
    return make_game(0.9, [MAX_PLAYER] * 3, acts)


def test_stationary_cesaro_fallback_handles_periodic_chain():
    g = _fed_two_cycle()
    lam = stationary_distribution(g, np.zeros(3, dtype=np.int64))
    np.testing.assert_allclose(lam, [0.5, 0.5, 0.0], atol=1e-9)


def test_stationary_raises_when_iteration_cap_hit(monkeypatch):
    monkeypatch.setattr(sg.exact, "STATIONARY_MAX_SWEEPS", 100)
    g = _fed_two_cycle()
    with pytest.raises(RuntimeError):
        stationary_distribution(g, np.zeros(3, dtype=np.int64))


def test_flux_identity_chain():
    acts = [[Action(reward=0.0, next_states=np.array([s]), probs=np.array([1.0]))]
            for s in range(4)]
    g = make_game(0.75, [MIN_PLAYER] * 4, acts)
    x = flux(g, np.zeros(4, dtype=np.int64))
    np.testing.assert_allclose(x, 4.0, atol=1e-10)


def test_flux_approaches_stationary_scaled():
    # (1-gamma) x counts discounted visits from every start at once, so its
    # per-state normalization (1-gamma) x / n converges to the stationary law
    game, meta = build_hi1(48)
    g999 = with_gamma(game, 0.999)
    sigma = meta.policy_extreme()
    lam = stationary_distribution(g999, sigma)
    x = flux(g999, sigma)
    assert np.abs((1 - 0.999) * x / 48 - lam).max() <= 0.01


def test_flux_sandwich_per_strategy():
    g = random_game(5, 2, 0.9, seed=26)
    report = ratio_scan(g)
    beta = 1.0 / (1.0 - g.gamma)
    lo = beta * report.c_min / report.c_max
    hi = beta * report.c_max / report.c_min
    assert lo - 1e-9 <= report.delta_min <= report.delta_max <= hi + 1e-9


# ---------------------------------------------------------------------------
# ratio scans


def test_ratio_scan_single_strategy_game():
    # one strategy, fully uniform rows: both extremal pairs collapse
    acts = [[Action(reward=0.0, uniform=True)] for _ in range(4)]
    g = make_game(0.9, [MIN_PLAYER] * 4, acts)
    report = ratio_scan(g)
    assert report.strategies_scanned == 1
    assert report.delta_min == pytest.approx(report.delta_max)
    assert report.c_min == pytest.approx(report.c_max)


def test_ratio_scan_hi1_ergodicity_bound():
    game, meta = build_hi1(48)
    report = ratio_scan(game, keep_rows=False)
    assert report.strategies_scanned == 2 ** meta.s_prime
    assert report.ergodicity_ratio <= 2 * (meta.s_prime + 1)


def test_ratio_scan_sampled_within_enumerated():
    g = random_game(4, 2, 0.9, seed=28)
    full = ratio_scan(g)
    part = ratio_scan(g, sample=10, seed=0)
    assert full.c_min - 1e-12 <= part.c_min and part.c_max <= full.c_max + 1e-12
    assert full.delta_min - 1e-9 <= part.delta_min
    assert part.delta_max <= full.delta_max + 1e-9


def test_a_scan_without_a_sample_is_exhaustive_and_takes_no_seed():
    # only a sampled scan reads a seed, so one given alone is refused, not ignored
    g = random_game(4, 2, 0.9, seed=28)
    assert ratio_scan(g).strategies_scanned == 16
    assert ratio_scan(g, sample=3, seed=1).strategies_scanned == 3
    with pytest.raises(InputError, match="seed"):
        ratio_scan(g, seed=5)
    with pytest.raises(InputError, match="seed"):
        ratio_scan(g, sample=3)


def test_ratio_scan_enumeration_cap():
    g = random_game(8, 6, 0.9, seed=29)
    with pytest.raises(InputError, match="enumeration cap"):
        ratio_scan(g)  # 6^8 strategies


def test_ratio_scan_rejects_empty_sample():
    g = random_game(4, 2, 0.9, seed=28)
    for sample in (0, -3):
        with pytest.raises(ValueError):
            ratio_scan(g, sample=sample, seed=1)


# ---------------------------------------------------------------------------
# the stacked scan against the per-strategy route


def mixed_row_game(n, gamma, rng):
    """1-2 actions per state; rows uniform or on a random support of 2..n states."""
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(rng.integers(1, 3)):
            reward = float(rng.uniform())
            if rng.uniform() < 0.3:
                acts.append(Action(reward=reward, uniform=True))
            else:
                support = np.sort(rng.choice(n, size=rng.integers(min(2, n), n + 1),
                                             replace=False))
                acts.append(Action(reward=reward, next_states=support,
                                   probs=rng.dirichlet(np.ones(support.size))))
        actions.append(acts)
    return make_game(gamma, rng.integers(0, 2, size=n), actions)


def loop_scan(game, strategies):
    """The per-strategy route: (scanned, skipped, per-strategy rows)."""
    scanned = skipped = 0
    rows = []
    for sigma in strategies:
        try:
            lam = stationary_distribution(game, sigma)
        except RuntimeError:
            skipped += 1
            continue
        x = flux(game, sigma)
        scanned += 1
        rows.append(("|".join(str(int(a)) for a in sigma), lam, x))
    return scanned, skipped, rows


def assert_stack_matches_loop(game, sigmas, stack):
    lam, x = stack
    for sigma, lam_row, x_row in zip(sigmas, lam, x):
        try:
            ref_lam = stationary_distribution(game, sigma)
        except RuntimeError:
            assert np.isnan(lam_row).all() and np.isnan(x_row).all()
            continue
        np.testing.assert_allclose(lam_row, ref_lam, rtol=0, atol=1e-9)
        np.testing.assert_allclose(x_row, flux(game, sigma), rtol=1e-10, atol=0)


def test_stack_matches_per_strategy_route_on_mixed_rows():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        base = mixed_row_game(int(rng.integers(2, 7)), 0.9, rng)
        for gamma in (0.9, 0.99, 0.999):
            g = with_gamma(base, gamma)
            sigmas = np.array(all_strategies(g))
            assert_stack_matches_loop(g, sigmas, scan_stack(g, sigmas))
            report = ratio_scan(g)
            scanned, skipped, rows = loop_scan(g, sigmas)
            assert (report.strategies_scanned, report.strategies_skipped) == (scanned, skipped)
            assert [r[0] for r in report.per_strategy] == [r[0] for r in rows]
            for (_, cmin, cmax, dmin, dmax), (_, lam, x) in zip(report.per_strategy, rows):
                np.testing.assert_allclose([cmin, cmax], [lam.min(), lam.max()],
                                           rtol=0, atol=1e-9)
                np.testing.assert_allclose([dmin, dmax], [x.min(), x.max()],
                                           rtol=1e-10, atol=0)


def test_stack_covers_periodic_chains_like_the_per_strategy_route():
    # action 0 at state 0 closes the 0 <-> 1 cycle (periodic, needs the
    # Cesaro phase); action 1 makes state 0 absorbing
    acts = [[Action(reward=0.0, next_states=np.array([1]), probs=np.array([1.0])),
             Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))],
            [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))],
            [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))]]
    g = make_game(0.9, [MAX_PLAYER] * 3, acts)
    sigmas = np.array([[0, 0, 0], [1, 0, 0]])
    lam, x = scan_stack(g, sigmas)
    np.testing.assert_allclose(lam, [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]], atol=1e-9)
    assert_stack_matches_loop(g, sigmas, (lam, x))
    # with too few sweeps the power iteration gives up on the periodic
    # chain, while the stack, which solves for its laws, still finds them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.exact, "STATIONARY_MAX_SWEEPS", 100)
        lam, x = scan_stack(g, sigmas)
        np.testing.assert_allclose(lam, [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]], atol=1e-9)
        assert np.isfinite(x).all()
        with pytest.raises(RuntimeError):
            stationary_distribution(g, sigmas[0])
    report = ratio_scan(g)
    assert (report.strategies_scanned, report.strategies_skipped) == (2, 0)


def test_a_singular_chain_is_skipped_and_counted_not_raised():
    # states 0 and 1 absorb, state 2 picks one of them and state 3 goes to 2:
    # two closed classes, so the bordered stationary matrix is singular
    point = lambda t: Action(reward=0.0, next_states=np.array([t]), probs=np.array([1.0]))
    g = make_game(0.9, [MAX_PLAYER] * 4, [[point(0)], [point(1)], [point(0), point(1)],
                                          [point(2)]])
    sigmas = np.array(all_strategies(g))
    lam, x = scan_stack(g, sigmas)
    assert np.isnan(lam).all() and np.isnan(x).all()
    assert_two_absorbing_laws(g)
    # one chain at a time, power iteration returns the law the uniform start flows into
    np.testing.assert_allclose(stationary_distribution(g, sigmas[0]), [0.75, 0.25, 0, 0],
                               atol=1e-9)
    np.testing.assert_allclose(stationary_distribution(g, sigmas[1]), [0.25, 0.75, 0, 0],
                               atol=1e-9)
    # beside sound chains in the same stack, each singular one is skipped and counted;
    # action 1 at state 1 leads to state 0, which leaves one closed class
    g = make_game(0.9, [MAX_PLAYER] * 4, [[point(0)], [point(1), point(0)],
                                          [point(0), point(1)], [point(2)]])
    sigmas = np.array(all_strategies(g))
    lam, _ = scan_stack(g, sigmas)
    assert np.isnan(lam[:, 0]).tolist() == [True, True, False, False]
    np.testing.assert_allclose(lam[2:], [[1.0, 0, 0, 0]] * 2, atol=1e-9)
    # ratio_scan scans those two again one chain at a time: the uniform start
    # puts 3/4 on the absorbing state that states 2 and 3 flow into
    report = ratio_scan(g)
    assert (report.strategies_scanned, report.strategies_skipped) == (4, 0)
    assert [row[1:3] for row in report.per_strategy] == [(0.0, 0.75), (0.0, 0.75),
                                                         (0.0, 1.0), (0.0, 1.0)]


def assert_two_absorbing_laws(g):
    """``ratio_scan`` of the 4-state game with two absorbing states scans
    both its strategies, though every stacked system is singular, with the
    laws the uniform start flows into, as the power iteration gives them."""
    report = ratio_scan(g)
    assert (report.strategies_scanned, report.strategies_skipped) == (2, 0)
    lam, _ = sg.exact._scan_dense(g, np.array(all_strategies(g)))
    np.testing.assert_allclose(lam, [[0.75, 0.25, 0, 0], [0.25, 0.75, 0, 0]], atol=1e-9)
    assert [row[1:3] for row in report.per_strategy] == [(0.0, 0.75), (0.0, 0.75)]


def test_discounted_copies_share_the_layout_and_scan_alike():
    rng = np.random.default_rng(8)
    base = mixed_row_game(5, 0.9, rng)
    for gamma in (0.9, 0.99, 0.999):
        g = with_gamma(base, gamma)
        assert g.layout.trans is base.layout.trans
        assert g.layout.uniform_mask is base.layout.uniform_mask
        assert g.space.pair_state is base.space.pair_state
        assert g.gamma == g.space.gamma == gamma
        fresh = make_game(gamma, base.owners, base.actions)
        got, want = ratio_scan(g), ratio_scan(fresh)
        assert got.per_strategy == want.per_strategy
        assert (got.delta_min, got.delta_max, got.c_min, got.c_max) == \
            (want.delta_min, want.delta_max, want.c_min, want.c_max)


def test_sampled_scan_keeps_the_per_sample_draws():
    g = random_game(6, 3, 0.9, seed=31)
    report = ratio_scan(g, sample=40, seed=5)
    rng = np.random.default_rng(5)
    drawn = [rng.integers(0, g.space.n_actions) for _ in range(40)]
    assert [r[0] for r in report.per_strategy] == \
        ["|".join(str(int(a)) for a in sigma) for sigma in drawn]


def test_a_stack_where_one_strategy_is_meant_is_refused():
    # each single-strategy entry point used to take the stack through its
    # check and fail later in LAPACK or numpy; scan_stack failed to unpack one
    g = random_game(4, 2, 0.9, seed=0)
    stack, v, mask = np.zeros((2, 4), dtype=np.int64), np.zeros(4), np.ones(4, dtype=bool)
    calls = [lambda: evaluate(g, stack), lambda: flux(g, stack),
             lambda: best_response(g, stack, MIN_PLAYER), lambda: policy_iteration(g, stack),
             lambda: strategy_iteration(g, stack), lambda: stationary_distribution(g, stack),
             lambda: improve(g, v, stack, mask),
             lambda: qvi_mdvss(GenerativeModel(g, master_seed=0), 1.0, 0.1,
                               np.full(4, 10.0), stack)]
    for call in calls:
        with pytest.raises(InputError, match=r"strategy shape \(2, 4\) != \(4,\)"):
            call()
    with pytest.raises(InputError, match=r"strategy shape \(4,\) != \(k, 4\)"):
        scan_stack(g, stack[0])


def point(t):
    """An action that moves to state ``t`` with probability one."""
    return Action(reward=0.0, next_states=np.array([t]), probs=np.array([1.0]))


def game_with_a_singular_chain():
    """``random_game(4, 2, 0.9, seed=3)`` with a third action at every state
    that, played everywhere, gives the chain where states 0 and 1 absorb,
    state 2 goes to state 0 and state 3 to state 2: two closed classes, so
    that strategy's bordered stationary matrix is exactly singular."""
    base = random_game(4, 2, 0.9, seed=3)
    extra = [point(0), point(1), point(0), point(2)]
    return make_game(0.9, base.owners, [list(acts) + [a] for acts, a in zip(base.actions, extra)])


def singular_mixed_stack():
    """Every strategy of ``game_with_a_singular_chain`` on its first two
    actions, with the singular one (action 2 everywhere) in the middle;
    returns the stack and that one's index."""
    regular = np.array(list(product(range(2), repeat=4)), dtype=np.int64)
    at = len(regular) // 2
    return np.insert(regular, at, 2, axis=0), at


def test_a_singular_chain_in_a_stack_leaves_the_other_rows_bit_for_bit():
    g = game_with_a_singular_chain()
    sigmas, at = singular_mixed_stack()
    lam, x = scan_stack(g, sigmas)
    skipped = np.isnan(lam).any(axis=1)
    assert np.flatnonzero(skipped).tolist() == [at]
    assert np.isnan(lam[at]).all() and np.isnan(x[at]).all()
    want_lam, want_x = scan_stack(g, np.delete(sigmas, at, axis=0))
    assert np.isfinite(want_lam).all() and np.isfinite(want_x).all()
    assert np.array_equal(np.delete(lam, at, axis=0), want_lam)
    assert np.array_equal(np.delete(x, at, axis=0), want_x)
    # the game whose every chain has two closed classes leaves every stacked
    # row NaN, and ratio_scan still finds each law
    g = make_game(0.9, [MAX_PLAYER] * 4, [[point(0)], [point(1)], [point(0), point(1)],
                                          [point(2)]])
    assert np.isnan(scan_stack(g, np.array(all_strategies(g)))[0]).all()
    assert_two_absorbing_laws(g)


def counted_linalg(mp):
    """Count the calls of ``np.linalg.inv`` and ``np.linalg.slogdet`` from here on."""
    calls = {"inv": 0, "slogdet": 0}

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted
    for name in calls:
        mp.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


def test_a_regular_stack_is_factored_once():
    g = random_game(5, 2, 0.9, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.exact, "STACK_FLOATS", 8 * 5 * 5)  # 8 strategies a chunk: 4 chunks
        calls = counted_linalg(mp)
        report = ratio_scan(g)
        assert report.strategies_scanned == 32
        assert calls == {"inv": 4, "slogdet": 0}
        # numpy refuses a stack with a singular matrix: one slogdet finds it
        # and the rest are inverted again
        singular = game_with_a_singular_chain()
        calls.update(inv=0, slogdet=0)
        scan_stack(singular, singular_mixed_stack()[0])
        assert calls == {"inv": 2, "slogdet": 1}


def test_scan_stack_rejects_invalid_strategies():
    g = random_game(4, 2, 0.9, seed=28)
    with pytest.raises(ValueError):
        scan_stack(g, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        scan_stack(g, np.array([[0, 0, 2, 0]]))


# ---------------------------------------------------------------------------
# VI, SI and brute-force minimax (Hansen, Miltersen & Zwick, JACM 2013)


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 4))
    owners = draw(st.lists(st.sampled_from([MIN_PLAYER, MAX_PLAYER]), min_size=n, max_size=n))
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(draw(st.integers(1, 3))):
            reward = draw(st.floats(0.0, 1.0))
            if draw(st.integers(0, 3)) == 0:
                acts.append(Action(reward=reward, uniform=True))
                continue
            weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                                    .filter(any)), dtype=np.float64)
            support = np.flatnonzero(weights)
            acts.append(Action(reward=reward, next_states=support,
                               probs=weights[support] / weights.sum()))
        actions.append(acts)
    return make_game(draw(st.sampled_from([0.5, 0.8, 0.9])), owners, actions)


def brute_force_value(game):
    """Entrywise min over MIN strategies of the entrywise max over MAX
    strategies of the exact joint value."""
    owners = np.asarray(game.owners)
    choices = [range(int(k)) for k in game.space.n_actions]
    best = np.full(game.n_states, np.inf)
    for tau in product(*(c if o == MIN_PLAYER else [0] for c, o in zip(choices, owners))):
        worst = np.full(game.n_states, -np.inf)
        for pi in product(*(c if o == MAX_PLAYER else [0] for c, o in zip(choices, owners))):
            sigma = np.where(owners == MIN_PLAYER, tau, pi).astype(np.int64)
            worst = np.maximum(worst, evaluate(game, sigma))
        best = np.minimum(best, worst)
    return best


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_games())
def test_vi_si_and_brute_force_minimax_agree(g):
    v_vi, _, _ = value_iteration(g, 1e-8)
    sigma, _ = strategy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
    v_si = evaluate(g, sigma)
    v_bf = brute_force_value(g)
    np.testing.assert_allclose(v_vi, v_bf, rtol=0, atol=1e-6)
    np.testing.assert_allclose(v_si, v_bf, rtol=0, atol=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_games())
def test_mirror_is_an_involution_on_vi_values(g):
    tol = 1e-8
    v, _, _ = value_iteration(g, tol)
    v_m, _, _ = value_iteration(mirror(g), tol)
    v_mm, _, _ = value_iteration(mirror(mirror(g)), tol)
    np.testing.assert_allclose(v_mm, v, rtol=0, atol=2 * tol)
    np.testing.assert_allclose(v + v_m, 1.0 / (1.0 - g.gamma), rtol=0, atol=2 * tol)


def table_arrays(game):
    """Every array the game is made of, as bytes."""
    trans = game.layout.trans
    return [arr.tobytes() + str(arr.dtype).encode()
            for arr in (trans.data, trans.indices, trans.indptr, game.layout.uniform_mask,
                        game.space.rewards, game.owners)]


def assert_the_table_round_trips(g):
    text = json.dumps(to_json_dict(g), indent=1)
    for h in (make_game(g.gamma, g.owners, g.actions), from_json_dict(to_json_dict(g))):
        assert table_arrays(h) == table_arrays(g)
        assert h.gamma == g.gamma
        assert json.dumps(to_json_dict(h), indent=1) == text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_games())
def test_the_table_round_trips_through_actions_and_json(g):
    assert_the_table_round_trips(g)


@pytest.mark.parametrize("targets, probs", [([2, 0], [0.3, 0.7]),
                                            ([1, 0, 1], [0.25, 0.5, 0.25])])
def test_rows_keep_their_order_and_repeated_targets(targets, probs):
    g = make_game(0.9, [MIN_PLAYER, MAX_PLAYER, MIN_PLAYER], [
        [Action(reward=0.5, next_states=np.array(targets), probs=np.array(probs))],
        [Action(reward=0.25, uniform=True)],
        [Action(reward=1.0, next_states=np.array([1]), probs=np.array([1.0]))]])
    assert g.layout.trans.indices[:len(targets)].tolist() == targets
    assert g.layout.trans.data[:len(probs)].tolist() == probs
    assert_the_table_round_trips(g)


def test_trace_csv_round_trip(tmp_path):
    g = random_game(5, 3, 0.9, seed=30, owners="max")
    _, trace = policy_iteration(g, np.zeros(5, dtype=np.int64))
    path = tmp_path / "trace.csv"
    write_csv(str(path), trace.csv_rows())
    rows = path.read_text().strip().split("\n")
    assert rows[0] == trace.CSV_HEADER
    assert len(rows) == len(trace) + 1
    assert not any("nan" in r.lower() for r in rows)


# ---------------------------------------------------------------------------
# value iteration stopped on the span of its step


def sup_norm_stops_within(game, tol, sweeps):
    """The sup-norm stop rule, as an oracle: True when iterating T from zero
    reaches ||v_i - v_{i-1}||_inf <= tol (1 - gamma) / (2 gamma) within
    ``sweeps`` sweeps."""
    threshold = tol * (1.0 - game.gamma) / (2.0 * game.gamma)
    v = np.zeros(game.n_states)
    for _ in range(sweeps):
        v_next = bellman(game, v)
        if np.abs(v_next - v).max() <= threshold:
            return True
        v = v_next
    return False


def exact_hard_game(seed):
    """The benchmark's first exact-hard game for a workload seed."""
    sub = int(np.random.SeedSequence([seed, 0, 0]).generate_state(1)[0])
    return random_game(300, 4, 0.99, seed=sub)


SPAN_GAMES = {
    "exact-hard-1": (lambda: exact_hard_game(1), 1e-6),
    "exact-hard-7919": (lambda: exact_hard_game(7919), 1e-6),
    "random-20x4": (lambda: random_game(20, 4, 0.9, seed=0), 1e-10),
    "random-100x4": (lambda: random_game(100, 4, 0.9, seed=0), 1e-10),
    "clustered-40x3": (lambda: clustered_game(40, 3, 0.99, seed=0), 1e-8),
    "deterministic-50x3": (lambda: random_game(50, 3, 0.95, seed=0, deterministic=True), 1e-8),
    "hi1-48": (lambda: build_hi1(48)[0], 1e-8),
    "hi2-400": (lambda: build_hi2(400)[0], 1e-8),
}


@pytest.mark.parametrize("name", SPAN_GAMES)
def test_span_stop_is_within_half_tol_of_si_and_never_later_than_sup_norm(name):
    build, tol = SPAN_GAMES[name]
    g = build()
    v, sigma, trace = value_iteration(g, tol)
    si, _ = strategy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
    assert np.abs(v - evaluate(g, si)).max() <= tol / 2
    # the sup-norm rule has not stopped one sweep earlier
    assert not sup_norm_stops_within(g, tol, len(trace) - 1)
    # the strategy is greedy at the returned value, not at the last iterate
    assert np.array_equal(sigma, greedy_from_q(g.space, q_from_v(g, v))[1])


def test_span_stop_takes_a_few_hundred_sweeps_on_hi2():
    g, _ = build_hi2(400)
    _, _, trace = value_iteration(g, 1e-8)
    assert len(trace) <= 200  # the sup-norm rule needs 73,878


def test_span_stop_residual_column_is_the_sup_norm_step():
    g = random_game(6, 3, 0.9, seed=21)
    _, _, trace = value_iteration(g, 1e-9)
    v = np.zeros(6)
    for residual in trace.residuals:
        v_next = bellman(g, v)
        assert residual == np.abs(v_next - v).max()
        v = v_next


def test_span_stop_is_exact_after_one_sweep_on_a_constant_step():
    # every state earns 1 whatever it does: d_1 = 1 everywhere, span 0
    g = make_game(0.9, [MIN_PLAYER, MAX_PLAYER, MIN_PLAYER], [
        [Action(reward=1.0, next_states=np.array([1]), probs=np.array([1.0])),
         Action(reward=1.0, uniform=True)],
        [Action(reward=1.0, next_states=np.array([2, 0]), probs=np.array([0.5, 0.5]))],
        [Action(reward=1.0, next_states=np.array([0]), probs=np.array([1.0]))]])
    v, sigma, trace = value_iteration(g, 1e-12)
    assert len(trace) == 1
    np.testing.assert_allclose(v, 10.0, rtol=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_games(), st.sampled_from([0.5, 0.9, 0.99, 0.999]))
def test_span_stop_is_within_half_tol_of_the_brute_force_minimax(g, gamma):
    g = with_gamma(g, gamma)
    tol = 1e-6
    v, _, _ = value_iteration(g, tol)
    # the oracle's own float error: cond(I - gamma P) * |v| * eps, with
    # cond <= 2/(1 - gamma) and |v| <= 1/(1 - gamma)
    slack = 1e-14 / (1.0 - gamma) ** 2
    assert np.abs(v - brute_force_value(g)).max() <= tol / 2 + slack


def test_optimal_value_agrees_with_strategy_iteration():
    for g in (random_game(20, 4, 0.9, seed=5), clustered_game(10, 3, 0.9, seed=2),
              build_hi2(400)[0]):
        vstar, sstar = sg.exact.optimal_value(g)
        si, _ = strategy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
        assert np.abs(vstar - evaluate(g, si)).max() <= sg.exact.OPTIMAL_VALUE_TOL / 2
        assert np.array_equal(sstar, greedy_from_q(g.space, q_from_v(g, vstar))[1])


def test_evaluate_accepts_every_strategy_near_gamma_one():
    # the backward-error bound scales with |v| ~ 1/(1 - gamma); a bound on
    # |r| alone refused 4 of these 32 correct solves
    g = with_gamma(random_game(5, 2, 0.9, seed=3), 1 - 1e-6)
    P = g.layout.dense()
    for sigma in all_strategies(g):
        pairs = g.space.chosen_pairs(sigma)
        want = np.linalg.solve(np.eye(5) - g.gamma * P[pairs], g.space.rewards[pairs])
        np.testing.assert_allclose(evaluate(g, sigma), want, rtol=1e-8, atol=0)


def test_value_iteration_refuses_an_undiscounted_game(monkeypatch):
    # the span bracket scales by gamma / (1 - gamma); gamma = 1 used to run
    # every sweep of the cap and then fail
    monkeypatch.setattr(sg.exact, "VI_MAX_SWEEPS", 100)
    g = make_game(1.0, [MIN_PLAYER], [[
        Action(reward=1.0, next_states=np.array([0]), probs=np.array([1.0]))]])
    with pytest.raises(InputError, match="gamma"):
        value_iteration(g, 1e-6)


def two_state_cycle(gamma):
    return make_game(gamma, [MIN_PLAYER, MAX_PLAYER], [
        [Action(reward=1.0, next_states=np.array([1]), probs=np.array([1.0]))],
        [Action(reward=0.5, next_states=np.array([0]), probs=np.array([1.0]))]])


ZEROS = np.zeros(2, dtype=np.int64)


@pytest.mark.parametrize("solve", [
    lambda g: value_iteration(g, 1e-6),
    lambda g: policy_iteration(g, ZEROS),
    lambda g: strategy_iteration(g, ZEROS),
    lambda g: best_response(g, ZEROS, MIN_PLAYER),
    lambda g: ratio_scan(g),
], ids=["value_iteration", "policy_iteration", "strategy_iteration", "best_response",
        "ratio_scan"])
@pytest.mark.parametrize("gamma", [1.5, 1.0, -0.5, float("nan")])
def test_iteration_solvers_refuse_a_discount_outside_the_unit_interval(solve, gamma):
    # PI, SI and best_response used to return [0 0] at gamma 1.5, and the scan
    # failed on its flux check
    with pytest.raises(InputError, match=r"gamma in \[0, 1\)"):
        solve(two_state_cycle(gamma))


def test_evaluate_refuses_a_nan_residual():
    # a NaN residual used to compare false against the bound and the NaN
    # value was returned; a NaN reward on uniform rows reaches one
    g = make_game(0.5, [MIN_PLAYER, MIN_PLAYER], [
        [Action(reward=float("nan"), uniform=True)], [Action(reward=0.5, uniform=True)]])
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="residual nan"):
            evaluate(g, np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("route", [
    lambda g: evaluate(g, ZEROS),
    lambda g: flux(g, ZEROS),
    lambda g: stationary_distribution(g, ZEROS),
    lambda g: markovian_evaluate(g, MarkovianPlan.make([ZEROS], ZEROS)),
], ids=["evaluate", "flux", "stationary_distribution", "markovian_evaluate"])
@pytest.mark.parametrize("gamma", [1.5, 1.0, -0.5, float("nan")])
def test_chain_routines_refuse_a_discount_outside_the_unit_interval(route, gamma):
    # evaluate returned [-1.4, -1.6] at gamma 1.5, and flux failed on its
    # flux check
    with pytest.raises(InputError, match=r"gamma in \[0, 1\)"):
        route(two_state_cycle(gamma))


def test_a_policy_system_checks_the_discount_it_uses():
    # the variance tail solves at gamma^2; a system is refused on its own
    # discount, not on the game's
    g = two_state_cycle(0.9)
    PolicyLinearSystem(g, ZEROS, discount=0.81)
    with pytest.raises(InputError, match=r"got 1.0"):
        PolicyLinearSystem(g, ZEROS, discount=1.0)


# ---------------------------------------------------------------------------
# one policy step over the explicit rows and the choice states


class FullChainSystem(PolicyLinearSystem):
    """The route a policy step took when it paid for every state, whatever
    the storage of the game's table: the chain of every chosen pair read by
    ``p_dot`` and :func:`pt_dot`, the active block cut from that n-row chain and
    factored by SuperLU or, transposed as the system's dense factor is, by
    ``scipy.linalg.lu_factor``, the restart law folded in by Sherman-Morrison,
    and the residual of ``evaluate`` from a second ``matvec``. Of the system
    it keeps ``gamma``, ``r``, ``u`` and the refinement of
    ``solve``/``solve_transpose``, and overrides every hook those call."""

    def __init__(self, game, sigma):
        super().__init__(game, sigma)
        lay, rows = game.layout, game.space.chosen_pairs(sigma)
        self.chain = sg.game.ChainView(gathered(lay.trans, rows), lay.uniform_mask[rows],
                                       lay.weights)
        S = self.chain.trans
        active = np.diff(S.indptr) > 0
        if not active.all():
            active[S.indices] = True
        # its own active set, which the test compares with the system's
        self._active = None if active.all() else np.flatnonzero(active)
        A = self._A = np.flatnonzero(active)
        self._S_AA = sp.csr_matrix((S.data, np.searchsorted(A, S.indices),
                                    np.append(S.indptr[A], S.nnz)), shape=(A.size, A.size))
        self._by_lapack = sg.exact.prefer_dense(A.size, A.size, S.nnz)
        self._full_lu = None

    @property
    def lu(self):
        if self._full_lu is None:
            S, k = self._S_AA, self._A.size
            self._full_lu = (sla.lu_factor((np.eye(k) - self.gamma * S.toarray()).T)
                             if self._by_lapack
                             else spla.splu(sp.identity(k, format="csc") - self.gamma * S.tocsc()))
        return self._full_lu

    def _lu_solve(self, b, transpose=False):
        """(I - gamma*S)^-1 b or its transpose: ``b`` outside A, the block solve on A."""
        x, A = b.copy(), self._A
        if A.size:
            x[A] = (sla.lu_solve(self.lu, b[A], trans=int(not transpose)) if self._by_lapack
                    else self.lu.solve(b[A], trans="T" if transpose else "N"))
        return x

    def _solve_once(self, b):
        x = self._lu_solve(b)
        if self.u.any():
            z, c = self._lu_solve(self.u), self.gamma / self.chain.weight_sum
            x = x + c * (self.chain.k_dot(x) / (1.0 - c * self.chain.k_dot(z))) * z
        return x

    def _solve_t_once(self, b):
        x = self._lu_solve(b, transpose=True)
        if self.u.any():
            z = self._lu_solve(self.chain.weights, transpose=True)
            c = self.gamma / self.chain.weight_sum
            x = x + c * (float(self.u @ x) / (1.0 - c * float(self.u @ z))) * z
        return x

    def matvec(self, x):
        return x - self.gamma * self.chain.p_dot(x)

    def rmatvec(self, y):
        return y - self.gamma * pt_dot(self.chain, y)

    def step_distribution(self, lam):
        return pt_dot(self.chain, lam)


def pt_dot(view, y):
    """P^T y on a chain view: its explicit rows, as the storage rule holds
    them, transposed, and the mass on the restart rows spread by w."""
    rows = view._rows
    out = (rows.T if isinstance(rows, np.ndarray) else rows.T.tocsr()) @ y
    if view.has_uniform:
        out = out + view.spread(float(view.uniform_mask @ y))
    return out


STEP_KINDS = ("mixed", "one-action", "all-uniform", "all-choice")


@st.composite
def step_games(draw, kind):
    """A game of 1-8 states and a strategy on it. ``mixed`` mixes one-action
    and choice states, uniform and explicit rows (unsorted, repeated targets
    included) and both owners; the other kinds pin one corner: every state
    one action, every row uniform (an empty block), every state a choice."""
    n = draw(st.integers(1, 8))
    lo, hi = {"one-action": (1, 1), "all-choice": (2, 3)}.get(kind, (1, 3))
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(draw(st.integers(lo, hi))):
            reward = draw(st.floats(0.0, 1.0))
            if kind == "all-uniform" or draw(st.integers(0, 2)) == 0:
                acts.append(Action(reward=reward, uniform=True))
                continue
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
            weights = np.array(draw(st.lists(st.integers(1, 4), min_size=len(targets),
                                             max_size=len(targets))), dtype=np.float64)
            acts.append(Action(reward=reward, next_states=np.array(targets),
                               probs=weights / weights.sum()))
        actions.append(acts)
    owners = draw(st.lists(st.sampled_from([MIN_PLAYER, MAX_PLAYER]), min_size=n, max_size=n))
    game = make_game(draw(st.sampled_from([0.5, 0.9, 0.99])), owners, actions)
    sigma = np.array([draw(st.integers(0, int(k) - 1)) for k in game.space.n_actions],
                     dtype=np.int64)
    return game, sigma


def fresh(game):
    """``game`` over a new view of its table, so that the storage rule in
    force is the one that picks how the table is held."""
    lay = game.layout
    return dataclasses.replace(game, layout=sg.game.ChainView(lay.trans, lay.uniform_mask,
                                                              lay.weights))


def assert_step_matches_the_full_chain(g, sigma, bits):
    """Evaluate, flux, a chain step, greedy and improve against the full
    chain and the padded grid: bit for bit when ``bits``, else within the
    forward error bound of the solve."""
    new, old = PolicyLinearSystem(g, sigma), FullChainSystem(g, sigma)
    if bits:  # the block route: a table held as CSR
        assert (new._active is None) == (old._active is None)
        if new._active is not None:
            assert np.array_equal(new._active, old._active)
    v, v_old = new.solve(new.r), old.solve(old.r)
    res, res_old = new.residual, old.r - old.matvec(v_old)
    x, x_old = new.solve_transpose(np.ones(g.n_states)), old.solve_transpose(np.ones(g.n_states))
    lam = np.random.default_rng(0).dirichlet(np.ones(g.n_states))
    pairs = [(evaluate(g, sigma), v_old), (v, v_old), (x, x_old),
             (new.step_distribution(lam), old.step_distribution(lam))]
    if bits:
        assert all(same_bits(a, b) for a, b in pairs)
        assert same_bits(res, res_old)
    else:
        cond = (1.0 + g.gamma) / (1.0 - g.gamma)
        for a, b in pairs:
            assert np.abs(a - b).max() <= 64 * np.finfo(float).eps * cond * np.abs(b).max()
    for w in (v, np.round(v)):  # rounding makes ties
        q = q_from_v(g, w)
        got, ref = greedy_from_q(g.space, q), padded_greedy(g.space, q)
        assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1])
        for improvable in (g.owners == MIN_PLAYER, g.owners == MAX_PLAYER,
                           np.ones(g.n_states, bool)):
            got, ref = improve(g, w, sigma, improvable), padded_improve(g, w, sigma, improvable)
            assert same_bits(got[0], ref[0]) and got[1] == ref[1] and same_bits(got[2], ref[2])


@pytest.mark.parametrize("kind", STEP_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_policy_step_matches_the_full_chain_and_the_padded_grid(kind, data):
    g, sigma = data.draw(step_games(kind))
    # CSR rows sum each row on its own, so a chain of the explicit rows and
    # one of every row give the same bits; a dense table's system solves its
    # whole gathered chain, so the storage rule is held to a bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.game, "prefer_dense", lambda *shape: False)
        csr = fresh(g)
        if kind == "all-uniform":
            assert PolicyLinearSystem(csr, sigma)._active.size == 0
        assert_step_matches_the_full_chain(csr, sigma, bits=True)
    assert_step_matches_the_full_chain(g, sigma, bits=False)


@st.composite
def factor_games(draw):
    """A game of 1-8 states with explicit rows (repeated targets included)
    and restart rows, and 0-3 restart dummies (one action, the restart row,
    reward 0) that :func:`sg.game.quotient` folds into one class weighted by
    their count, at a discount from 0.5 up to 1 - 1e-9; and a strategy."""
    n, dummies = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(draw(st.integers(1, 3))):
            reward = draw(st.floats(0.0, 1.0))
            if draw(st.integers(0, 2)) == 0:
                acts.append(Action(reward=reward, uniform=True))
                continue
            targets = draw(st.lists(st.integers(0, n + dummies - 1), min_size=1,
                                    max_size=2 * n))
            weights = np.array(draw(st.lists(st.integers(1, 4), min_size=len(targets),
                                             max_size=len(targets))), dtype=np.float64)
            acts.append(Action(reward=reward, next_states=np.array(targets),
                               probs=weights / weights.sum()))
        actions.append(acts)
    actions += [[Action(reward=0.0, uniform=True)] for _ in range(dummies)]
    owners = draw(st.lists(st.sampled_from([MIN_PLAYER, MAX_PLAYER]), min_size=n + dummies,
                           max_size=n + dummies))
    gamma = draw(st.one_of(st.floats(0.5, 0.999), st.sampled_from([1 - 1e-6, 1 - 1e-9])))
    game, _ = quotient(make_game(gamma, owners, actions))
    sigma = np.array([draw(st.integers(0, int(k) - 1)) for k in game.space.n_actions],
                     dtype=np.int64)
    return game, sigma


@pytest.mark.parametrize("dense", [True, False], ids=["held-dense", "held-sparse"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_dense_factor_is_of_m_transposed_with_no_interchange(dense, data):
    # M = I - gamma P_sigma is diagonally dominant by rows, so M^T is by
    # columns: partial pivoting keeps every pivot on the diagonal and the
    # growth factor is at most 2 (Higham 2002, sec. 9.5)
    g, sigma = data.draw(factor_games())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.game, "prefer_dense", lambda *shape: dense)
        g = fresh(g)
        assert g.layout.held_dense == dense
        sys = PolicyLinearSystem(g, sigma)
    lay, pairs, n, gamma = g.layout, g.space.chosen_pairs(sigma), g.n_states, g.gamma
    v, x = evaluate(g, sigma), sys.solve_transpose(np.ones(n))
    # flux makes that solve; its mass check, within FLUX_SUM_RTOL of
    # n/(1 - gamma), cannot hold at 1 - 1e-9, where cond(M) eps alone is 1e-7
    if gamma <= 1 - 1e-6:
        assert same_bits(flux(g, sigma), x)
    M = np.eye(n) - gamma * lay.dense()[pairs]
    # the matrix the system factors: M itself on a dense table; on a sparse
    # one, I - gamma S on the active states, the restart law folded outside
    active = np.arange(n) if sys._active is None else sys._active
    factored = M if dense else (np.eye(n) - gamma * lay.trans.toarray()[pairs])[np.ix_(active,
                                                                                      active)]
    if active.size:
        assert isinstance(sys.lu, sg.exact._DenseLU)
        lu, piv = sys.lu._factors
        assert np.array_equal(piv, np.arange(active.size))
        L, U = np.tril(lu, -1) + np.eye(active.size), np.triu(lu)
        scale = np.abs(factored).max()
        assert np.abs(L @ U - factored.T).max() <= 1e-14 * active.size * scale
        assert np.abs(U).max() <= 2.0 * scale * (1.0 + 1e-12)
    # both answers within evaluate's backward-error bound in the dense M and
    # M^T that numpy solves, and so near numpy's solution
    for got, mat, rhs in ((v, M, g.space.rewards[pairs]), (x, M.T, np.ones(n))):
        bound = EVAL_RESIDUAL_TOL * (np.abs(rhs).max() + (1.0 + gamma) * np.abs(got).max())
        assert np.abs(rhs - mat @ got).max() <= bound
        inverse_norm = np.abs(np.linalg.inv(mat)).sum(axis=1).max()
        assert np.abs(got - np.linalg.solve(mat, rhs)).max() <= 2.0 * inverse_norm * bound


def test_a_policy_step_gathers_only_the_strategys_explicit_rows(monkeypatch):
    # a work count, not a timing: a step reads the game's own table, builds
    # no chain view of a strategy, and gathers the entries of its explicit
    # rows only, not the n rows of its chain
    g, meta = build_hi2(10000)
    gathered, built = [], []
    entries, init = sg.game.ChainView.entries, sg.game.ChainView.__init__

    def spy(view, rows):
        gathered.append(len(rows))
        return entries(view, rows)

    def count(view, *args, **kwargs):
        built.append(view)
        init(view, *args, **kwargs)

    monkeypatch.setattr(sg.game.ChainView, "entries", spy)
    monkeypatch.setattr(sg.game.ChainView, "__init__", count)
    sigma = meta.joint(5, 6, 3)
    explicit = int((np.diff(g.layout.trans.indptr)[g.space.chosen_pairs(sigma)] > 0).sum())
    v = evaluate(g, sigma)
    improve(g, v, sigma, g.owners == MIN_PLAYER)
    assert 0 < sum(gathered) <= explicit < 100
    assert g.n_states not in gathered
    assert built == []


def test_a_policy_system_on_a_sparse_table_reads_only_its_block(monkeypatch):
    # a work count, not a timing: on a table held sparse, evaluate, flux and
    # the stationary law apply the strategy's own block, and no sweep or
    # refinement pass reads every pair's row through P
    g, meta = build_hi2(1600)
    sigma = meta.joint(1, 1, 2)
    applied, p_dot = [], sg.game.ChainView.p_dot

    def spy(view, x):
        applied.append(x.shape)
        return p_dot(view, x)

    monkeypatch.setattr(sg.game.ChainView, "p_dot", spy)
    v, x, lam = evaluate(g, sigma), flux(g, sigma), stationary_distribution(g, sigma)
    assert not g.layout.held_dense
    assert applied == []
    assert np.isfinite(v).all() and np.isfinite(x).all() and np.isfinite(lam).all()


def chain_readings(g, sigma):
    """evaluate, flux, the stationary law (None where it does not converge)
    and one chain step of a fixed distribution."""
    try:
        lam = stationary_distribution(g, sigma)
    except RuntimeError:
        lam = None
    step = PolicyLinearSystem(g, sigma).step_distribution(
        np.random.default_rng(0).dirichlet(np.ones(g.n_states)))
    return evaluate(g, sigma), flux(g, sigma), lam, step


@pytest.mark.parametrize("kind", STEP_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_dense_tables_gathered_chain_matches_the_block_route(kind, data):
    # the same game held as CSR takes the active block and the rank-one fold
    g, sigma = data.draw(step_games(kind))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.game, "prefer_dense", lambda *shape: False)
        csr = fresh(g)
        block = chain_readings(csr, sigma)
    assert g.layout.held_dense and not csr.layout.held_dense
    gathered = chain_readings(g, sigma)
    bound = 64 * np.finfo(float).eps * (1.0 + g.gamma) / (1.0 - g.gamma)
    for a, b in zip(gathered, block):
        assert (a is None) == (b is None)
        if b is not None:
            assert np.abs(a - b).max() <= bound * np.abs(b).max()


@pytest.mark.parametrize("seed", [1, 7919])
def test_strategy_iteration_takes_the_same_path_on_either_route(seed):
    g = exact_hard_game(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.game, "prefer_dense", lambda *shape: False)
        csr = fresh(g)
        sigma_b, trace_b = strategy_iteration(csr, np.zeros(g.n_states, dtype=np.int64))
    assert g.layout.held_dense and not csr.layout.held_dense
    sigma, trace = strategy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
    assert same_bits(sigma, sigma_b)
    assert (trace.changes, trace.policy_evaluations, trace.phases) == (
        trace_b.changes, trace_b.policy_evaluations, trace_b.phases)
    # each residual is a largest gain read off an evaluated value: it moves
    # within the solve's forward bound, as CSR and dense rows round apart
    bound = 64 * np.finfo(float).eps * (1.0 + g.gamma) / (1.0 - g.gamma)
    res, res_b = np.array(trace.residuals), np.array(trace_b.residuals)
    assert np.abs(res - res_b).max() <= bound * np.abs(res_b).max()


@pytest.mark.parametrize("name", ["hi2-quotient", "random-300x4"])
def test_a_policy_system_on_a_dense_table_gathers_no_entries_and_factors_once(
        name, monkeypatch):
    # a work count, not a timing: the chain is the table's n chosen rows, and
    # one n x n LU serves every solve, transposed or not
    if name == "hi2-quotient":
        full, meta = build_hi2(10000)
        g, classes = quotient(full)
        sigma = meta.joint(5, 6, 3)[np.unique(classes, return_index=True)[1]]
    else:
        g = random_game(300, 4, 0.99, seed=1)
        sigma = np.arange(300) % 4
    gathered, factored = [], []
    entries, dense_lu = sg.game.ChainView.entries, sg.exact._dense_lu

    def spy(view, rows):
        gathered.append(len(rows))
        return entries(view, rows)

    def count(m):
        factored.append(m.shape)
        return dense_lu(m)

    monkeypatch.setattr(sg.game.ChainView, "entries", spy)
    monkeypatch.setattr(sg.exact, "_dense_lu", count)
    monkeypatch.setattr(spla, "splu", None)  # no sparse factor either
    sys = PolicyLinearSystem(g, sigma)
    v = sys.solve(sys.r)
    sys.solve_transpose(np.ones(g.n_states))
    sys.step_distribution(np.full(g.n_states, 1.0 / g.n_states))
    assert g.layout.held_dense
    assert gathered == [] and factored == [(g.n_states, g.n_states)]
    assert same_bits(v, evaluate(g, sigma))


def point_game(gamma, owners, rows):
    """Rows given as (target, reward) point masses, a list per state."""
    return make_game(gamma, owners, [[Action(reward=r, next_states=np.array([t]),
                                             probs=np.array([1.0])) for t, r in acts]
                                     for acts in rows])


def test_a_non_finite_optimum_at_a_one_action_state_is_refused():
    # state 1 has one action, and only its reward is not finite
    for bad in (np.nan, np.inf, -np.inf):
        g = point_game(0.9, [MIN_PLAYER, MAX_PLAYER, MIN_PLAYER],
                       [[(0, 0.0), (0, 1.0)], [(2, bad)], [(0, 0.0), (0, 1.0)]])
        v = np.zeros(3)
        with pytest.raises(ValueError, match="non-finite optimum at state 1"):
            greedy_from_q(g.space, q_from_v(g, v))
        with pytest.raises(ValueError, match="non-finite optimum at state 1"):
            improve(g, v, np.zeros(3, dtype=np.int64), np.ones(3, bool))


def test_a_non_finite_block_is_refused():
    g = make_game(0.9, [MIN_PLAYER, MIN_PLAYER], [
        [Action(reward=1.0, next_states=np.array([1]), probs=np.array([np.nan]))],
        [Action(reward=0.5, next_states=np.array([0]), probs=np.array([1.0]))]])
    with pytest.raises(ValueError, match="infs or NaNs"):
        evaluate(g, np.zeros(2, dtype=np.int64))


def test_a_row_whose_repeated_targets_overflow_is_refused():
    # each entry is finite, their sum in the one cell is not: the dense row
    # the factor reads is refused as a non-finite one is
    g = make_game(0.9, [MIN_PLAYER, MIN_PLAYER], [
        [Action(reward=1.0, next_states=np.array([1, 1]), probs=np.array([1e308, 1e308]))],
        [Action(reward=0.5, next_states=np.array([0]), probs=np.array([1.0]))]])
    with np.errstate(over="ignore"):  # the dense row's sum
        assert g.layout.held_dense
        with pytest.raises(ValueError, match="infs or NaNs"):
            evaluate(g, np.zeros(2, dtype=np.int64))


def test_a_singular_block_warns_and_evaluate_refuses_it():
    # rows of mass 2 at gamma 0.5 (validate reports them, make_game keeps
    # them): the block of the cycle is exactly singular, which warns (an
    # error here would pre-empt the residual check), and the NaN residual
    # is refused
    g = make_game(0.5, [MIN_PLAYER, MIN_PLAYER], [
        [Action(reward=1.0, next_states=np.array([1]), probs=np.array([2.0]))],
        [Action(reward=0.5, next_states=np.array([0]), probs=np.array([2.0]))]])
    with np.errstate(all="ignore"), pytest.warns(sla.LinAlgWarning, match="exactly zero"):
        with pytest.raises(RuntimeError, match="residual nan"):
            evaluate(g, np.zeros(2, dtype=np.int64))


def test_a_game_with_no_choice_state_returns_no_flips():
    g = make_game(0.9, [MIN_PLAYER, MAX_PLAYER, MAX_PLAYER], [
        [Action(reward=1.0, uniform=True)],
        [Action(reward=0.0, next_states=np.array([0, 2]), probs=np.array([0.5, 0.5]))],
        [Action(reward=0.5, next_states=np.array([1]), probs=np.array([1.0]))]])
    sigma = np.zeros(3, dtype=np.int64)
    for v in (evaluate(g, sigma), np.array([5.0, -3.0, 1.0])):
        new_sigma, flips, gain = improve(g, v, sigma, np.ones(3, bool))
        assert same_bits(new_sigma, sigma) and flips == [] and same_bits(gain, 0.0)
        q = q_from_v(g, v)
        assert same_bits(greedy_from_q(g.space, q)[0], q)


def test_refinement_returns_the_residual_of_the_answer_it_returns():
    b = np.array([1.0, -2.0, 3.0])
    # an exact solve stops at once; a halving one uses up every pass, and the
    # residual is then taken once more
    for solve_once in (lambda r: r, lambda r: 0.5 * r):
        x, res = sg.exact._refined_solve(solve_once, lambda y: y, b)
        assert same_bits(res, b - x)
    assert np.abs(res).max() == 3.0 / 2 ** (sg.exact.REFINE_PASSES + 1)
