"""The worst-case instances built from arrays, against the Action-loop builds
they replaced, and the hi2 verifier on the quotient folded from them.

``reference_build_hi1`` and ``reference_build_hi2`` are the former builders:
one :class:`Action` per pair through ``make_game``. The array builds must
give the same game bit for bit. The probe's stacked improvement sweep must
pick the strategies that one ``improve`` per cell picks.
"""

import itertools
import math

import numpy as np
import pytest

import sg.game
import sg.hard
from sg.exact import _improved, evaluate, improve, q_from_v, strategy_iteration
from sg.game import Action, MAX_PLAYER, MIN_PLAYER, make_game, quotient
from sg.generate import random_game
from sg.hard import (Hi1Meta, Hi2Config, Hi2Meta, _hi2_quotient, _scaled_mean,
                     build_hi1, build_hi2, default_hi2_rewards, hi2_vbar_signs,
                     verify_si_path_hi2)

EPS = np.finfo(float).eps
# A config of the NEAR set of tests/test_hard_reference.py, off the defaults
# in every reward.
NEAR = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), "switch_rewards": (0.3, 0.3),
                    "r_delta": 0.025, "r_delta_prime": 0.1, "r_goal": 2.0})


def reference_build_hi1(T):
    s_prime = int(math.isqrt(T // 12))
    gamma = 1.0 - 1.0 / (4.0 * T)
    meta = Hi1Meta(T=T, s_prime=s_prime, gamma=gamma)
    actions = []
    for s in range(T):
        reward = 1.0 if s == T - 1 else 0.0
        acts = [Action(reward=reward, uniform=True)]
        if s in meta.chain_states:
            acts.append(Action(reward=0.0, next_states=np.array([s + 1], dtype=np.int64),
                               probs=np.array([1.0])))
        actions.append(acts)
    return make_game(gamma, np.full(T, MAX_PLAYER, dtype=np.int8), actions), meta


def reference_build_hi2(T, config=None):
    c = config or default_hi2_rewards(T)
    meta = Hi2Meta(config=c)
    n = meta.n_states
    owners = np.empty(n, dtype=np.int8)
    actions = [None] * n

    def point(target, reward):
        return Action(reward=reward, next_states=np.array([target], dtype=np.int64),
                      probs=np.array([1.0]))

    uniform = Action(reward=0.0, uniform=True)
    owners[:c.T] = MIN_PLAYER
    actions[:c.T] = [[uniform]] * c.T
    owners[meta.goal] = MIN_PLAYER
    actions[meta.goal] = [Action(reward=-c.r_goal, uniform=True)]
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
    return make_game(c.gamma, owners, actions), meta


def assert_bit_identical(got, want):
    """Owners, the action space's layout and rewards, the table and the
    restart weights equal in dtype and bytes (so -0.0 differs from 0.0)."""
    def same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    same(got.owners, want.owners)
    same(got.space.n_actions, want.space.n_actions)
    same(got.space.rewards, want.space.rewards)
    for name in ("data", "indices", "indptr"):
        same(getattr(got.layout.trans, name), getattr(want.layout.trans, name))
    assert got.layout.trans.shape == want.layout.trans.shape
    same(got.layout.uniform_mask, want.layout.uniform_mask)
    same(got.layout.weights, want.layout.weights)
    assert type(got.gamma) is type(want.gamma) and got.gamma == want.gamma


@pytest.mark.parametrize("T", [48, 192])
def test_build_hi1_equals_its_action_loop_build(T):
    game, meta = build_hi1(T)
    ref, ref_meta = reference_build_hi1(T)
    assert meta == ref_meta
    assert_bit_identical(game, ref)


@pytest.mark.parametrize("T, config", [(400, None), (1600, None), (10_000, None), (400, NEAR)])
def test_build_hi2_equals_its_action_loop_build(T, config):
    game, meta = build_hi2(T, config)
    ref, ref_meta = reference_build_hi2(T, config)
    assert meta == ref_meta
    assert_bit_identical(game, ref)


def test_at_r_goal_zero_the_fold_merges_the_goal_and_the_run_stays_exact():
    # the goal's reward -0.0 equals the dummies' 0.0, so the fold merges the
    # goal into their class
    config = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), "r_goal": 0.0})
    game, meta = build_hi2(400, config)
    folded, classes = quotient(game)
    assert folded.n_states == game.n_states - meta.T and classes[meta.goal] == 0
    # still exact: the verifier reports the full game's run
    _, full = strategy_iteration(game, meta.joint(0, 1, 0))
    trace, _ = verify_si_path_hi2(400, config)
    assert trace.changes == full.changes
    assert trace.policy_evaluations == full.policy_evaluations
    assert trace.phases == full.phases


def probe_cells(meta, reps):
    cells = [(i, z) for i in range(1, meta.s_prime) for z in range(meta.s_prime)]
    return np.array([meta.joint(i, i, z)[reps] for i, z in cells])


def reference_joint(meta, i_min, i_max, z_max):
    """(min_i, max_(i,z)) as the sum of its min part and its max part."""
    lo, hi = np.zeros(meta.n_states, np.int64), np.zeros(meta.n_states, np.int64)
    lo[meta.m(1):meta.m(1) + i_min] = 1
    hi[meta.switch] = i_max - 1
    hi[meta.M(1):meta.M(1) + z_max] = 1
    return lo + hi


@pytest.mark.parametrize("T", [400, 10_000])
def test_named_strategies_are_the_sum_of_their_min_and_max_parts(T):
    meta = Hi2Meta(config=default_hi2_rewards(T))
    s = meta.s_prime
    for i, a, z in itertools.product(range(s + 1), range(1, s + 1), range(s + 1)):
        sigma = meta.joint(i, a, z)
        assert sigma.dtype == np.int64 and sigma.shape == (meta.n_states,)
        np.testing.assert_array_equal(sigma, reference_joint(meta, i, a, z))


@pytest.mark.parametrize("T", [400, 10_000])
def test_the_stacked_sweep_picks_what_improve_picks_on_every_probe_cell(T):
    q, meta, reps = _hi2_quotient(T, None)
    sigmas = probe_cells(meta, reps)
    values = np.array([evaluate(q, sigma) for sigma in sigmas])
    max_states = q.owners == MAX_PLAYER
    stacked, moved, _ = _improved(q, values, sigmas, max_states)
    for sigma, v, got, flipped in zip(sigmas, values, stacked, moved):
        want, flips, _ = improve(q, v, sigma, max_states)
        np.testing.assert_array_equal(got, want)
        assert flipped.sum() == len(flips)


@pytest.mark.parametrize("game", [
    _hi2_quotient(10_000, None)[0],   # held densely
    build_hi2(400)[0],                # held as CSR
    random_game(30, 3, 0.9, seed=4),  # explicit rows only
], ids=["hi2-quotient", "hi2-full", "random"])
def test_stacked_p_dot_rows_match_one_vector_at_a_time(game):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(7, game.n_states)) * np.array([[1e-3], [1], [1e3], [1], [1], [1], [1]])
    stacked = game.layout.p_dot(xs)
    assert stacked.shape == (7, game.n_pairs)
    q = q_from_v(game, xs)
    r_max = np.abs(game.space.rewards).max()
    for x, row, q_row in zip(xs, stacked, q):
        x_max = np.abs(x).max()
        assert np.abs(row - game.layout.p_dot(x)).max() <= 4 * EPS * (1 + x_max)
        assert np.abs(q_row - q_from_v(game, x)).max() <= 4 * EPS * (1 + r_max + x_max)


def test_q_from_v_refuses_a_stack_of_the_wrong_width():
    game = random_game(4, 2, 0.9, seed=0)
    with pytest.raises(sg.game.InputError, match="value vector shape"):
        q_from_v(game, np.zeros((3, 5)))


def test_hi2_vbar_signs_reads_the_full_game_means_off_the_quotient(monkeypatch):
    T = 400
    evaluated = []

    def recorded(game, sigma, evaluate=sg.hard.evaluate):
        v = evaluate(game, sigma)
        evaluated.append((game, sigma, v))
        return v

    monkeypatch.setattr(sg.hard, "evaluate", recorded)
    assert hi2_vbar_signs(T).passed
    full, meta = build_hi2(T)
    s = meta.s_prime
    assert len(evaluated) == 2 * s * (s + 1)
    classes = np.r_[np.zeros(T, dtype=np.int64), 1:full.n_states - T + 1]
    gamma = full.gamma
    for q, sigma, v_q in evaluated:
        assert q.n_states == full.n_states - T + 1
        v = evaluate(full, sigma[classes])
        y_full = (1 - gamma) * full.n_states * float(v.mean())
        bound = EPS * (1 + gamma) / (1 - gamma) * np.abs(v).max()
        assert abs(_scaled_mean(q, v_q) - y_full) <= (1 - gamma) * full.n_states * bound
