"""The exact lumped quotient against the full game it stands for.

``sg.game.quotient`` merges one-action states whose only row is the uniform
row and whose rewards are equal. Values computed on the quotient and lifted
must match values on the full game, and the hi2 verifier, which solves on the
quotient, must report the run that strategy iteration makes on the full game.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sg.game
from sg.exact import PolicyLinearSystem, evaluate, flux, strategy_iteration
from sg.game import (Action, MAX_PLAYER, MIN_PLAYER, load_game, make_game, quotient,
                     save_game, validate)
from sg.generate import random_game
from sg.hard import build_hi2, verify_si_path_hi2

# rewards of the injected lumpable states: few values, so classes form
LUMP_REWARDS = (0.0, 0.5, -1.0)


def reps_of(classes):
    return np.unique(classes, return_index=True)[1]


def loop_quotient_rows(game, classes):
    """The quotient's rows, dense, by a loop over the representatives' actions:
    a uniform row weighs each class by its size, an explicit row adds each
    entry into its target's class in row order."""
    k, n = classes.max() + 1, game.n_states
    sizes = np.bincount(classes)
    rows = []
    for s in reps_of(classes):
        for act in game.actions[s]:
            row = np.zeros(k)
            if act.uniform:
                row += sizes / n
            else:
                for t, p in zip(act.next_states, act.probs):
                    row[classes[t]] += p
            rows.append(row)
    return np.array(rows)


def game_with_lumpable_states(seed, n_core, n_lump, gamma):
    """A game of ``n_core`` random states (one to three actions, uniform or
    sparse rows over all states) and ``n_lump`` one-action uniform states with
    shared rewards, interleaved at random positions."""
    rng = np.random.default_rng(seed)
    n = n_core + n_lump
    lumpable = np.zeros(n, dtype=bool)
    lumpable[rng.choice(n, n_lump, replace=False)] = True
    actions = []
    for s in range(n):
        if lumpable[s]:
            actions.append([Action(reward=float(rng.choice(LUMP_REWARDS)), uniform=True)])
            continue
        acts = []
        for _ in range(int(rng.integers(1, 4))):
            reward = float(rng.uniform(-1.0, 1.0))
            if rng.random() < 0.3:
                acts.append(Action(reward=reward, uniform=True))
            else:
                targets = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
                acts.append(Action(reward=reward, next_states=targets,
                                   probs=rng.dirichlet(np.ones(targets.size))))
        actions.append(acts)
    return make_game(gamma, rng.integers(0, 2, size=n), actions), lumpable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_core=st.integers(1, 5), n_lump=st.integers(1, 6),
       gamma=st.floats(0.5, 0.99))
def test_values_on_the_quotient_lift_to_the_full_game_values(seed, n_core, n_lump, gamma):
    g, lumpable = game_with_lumpable_states(seed, n_core, n_lump, gamma)
    q, classes = quotient(g)
    reps = reps_of(classes)
    assert validate(q) == []
    # the classes: representatives in state order, every class either one
    # state or lumpable states sharing one reward
    assert q.n_states == reps.size == classes.max() + 1
    assert (np.diff(reps) > 0).all() and (classes[reps] == np.arange(q.n_states)).all()
    rewards = g.space.rewards[g.space.state_offset[:-1]]
    merged = np.bincount(classes)[classes] > 1
    assert lumpable[merged].all()
    assert (rewards == rewards[reps][classes]).all()
    assert np.unique(rewards[lumpable]).size + (~lumpable).sum() == q.n_states
    assert (q.owners == g.owners[reps]).all()
    assert (q.space.n_actions == g.space.n_actions[reps]).all()
    np.testing.assert_array_equal(q.layout.dense(), loop_quotient_rows(g, classes))

    rng = np.random.default_rng(seed)
    for _ in range(4):
        sigma = rng.integers(0, g.space.n_actions)
        v = evaluate(g, sigma)
        lifted = evaluate(q, sigma[reps])[classes]
        assert np.abs(lifted - v).max() <= 1e-9 * np.abs(v).max()


def explicit_quotient(game, q, classes):
    """The quotient with its restart rows written out as explicit
    class-weighted rows, built by ``make_game``."""
    rows, off = loop_quotient_rows(game, classes), q.space.state_offset
    acts = [[Action(reward=float(q.space.rewards[p]), next_states=np.flatnonzero(rows[p]),
                    probs=rows[p][rows[p] > 0]) for p in range(off[s], off[s + 1])]
            for s in range(q.n_states)]
    return make_game(game.gamma, q.owners, acts)


def table_rows(view):
    """``row_table`` scattered back into dense rows."""
    support, probs = view.row_table()
    out = np.zeros((support.shape[0], view.trans.shape[1]))
    np.add.at(out, (np.arange(support.shape[0])[:, None], support), probs)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_core=st.integers(1, 5), n_lump=st.integers(1, 6),
       gamma=st.floats(0.5, 0.99))
def test_the_rank_one_quotient_matches_its_explicit_rows(seed, n_core, n_lump, gamma):
    g, _ = game_with_lumpable_states(seed, n_core, n_lump, gamma)
    q, classes = quotient(g)
    e = explicit_quotient(g, q, classes)
    tol = 64 * np.finfo(float).eps * (1.0 + gamma) / (1.0 - gamma)

    def close(a, b):
        assert np.abs(a - b).max() <= tol * np.abs(b).max()

    close(table_rows(q.layout), table_rows(e.layout))
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(q.n_states))
    for _ in range(4):
        sigma = rng.integers(0, q.space.n_actions)
        close(evaluate(q, sigma), evaluate(e, sigma))
        close(flux(q, sigma), flux(e, sigma))
        close(PolicyLinearSystem(q, sigma).step_distribution(lam),
              PolicyLinearSystem(e, sigma).step_distribution(lam))


def test_a_saved_quotient_loads_back_as_the_same_law(tmp_path):
    # make_game knows only the uniform restart row, so the class-weighted one
    # is written as its explicit row
    q, _ = quotient(build_hi2(400)[0])
    save_game(q, str(tmp_path / "q.json"))
    back = load_game(str(tmp_path / "q.json"))
    np.testing.assert_array_equal(back.layout.dense(), q.layout.dense())


def test_a_game_with_nothing_to_lump_is_its_own_quotient():
    g = random_game(4, 2, 0.9, seed=0)
    q, classes = quotient(g)
    assert q is g
    np.testing.assert_array_equal(classes, np.arange(4))
    # one uniform one-action state per reward is a class of its own
    h = make_game(0.9, [MIN_PLAYER, MAX_PLAYER, MIN_PLAYER], [
        [Action(reward=0.0, uniform=True)], [Action(reward=1.0, uniform=True)],
        [Action(reward=0.0, uniform=True),
         Action(reward=0.5, next_states=np.array([1]), probs=np.array([1.0]))]])
    q, classes = quotient(h)
    assert q is h
    np.testing.assert_array_equal(classes, np.arange(3))


def test_the_hi2_quotient_is_one_class_of_dummies_and_the_rest_as_they_are():
    game, meta = build_hi2(400)
    q, classes = quotient(game)
    reps = reps_of(classes)
    assert q.n_states == game.n_states - meta.T + 1
    assert (classes[:meta.T] == 0).all()
    np.testing.assert_array_equal(reps[1:], np.arange(meta.T, game.n_states))
    # a restart row stays one, and its law weighs each class by its size
    assert q.layout.uniform_mask[0] and q.layout.row_lengths[0] == 0
    np.testing.assert_array_equal(q.layout.weights, np.bincount(classes))
    np.testing.assert_array_equal(q.layout.dense()[0], np.bincount(classes) / game.n_states)


@pytest.mark.parametrize("T", [400, 1600])
def test_the_hi2_verifier_reports_the_full_game_run(T):
    game, meta = build_hi2(T)
    sigma0 = meta.joint(0, 1, 0)
    full_sigma, full = strategy_iteration(game, sigma0)
    trace, report = verify_si_path_hi2(T)
    assert report.passed, report.summary()
    assert trace.changes == full.changes
    assert trace.policy_evaluations == full.policy_evaluations
    assert trace.phases == full.phases
    # each residual is a sweep's largest gain, read off an evaluated value
    res, res_full = np.array(trace.residuals), np.array(full.residuals)
    tie = res_full == 0.0
    np.testing.assert_allclose(res[~tie], res_full[~tie], rtol=1e-9)
    # at a tie the gain is 0 only up to rounding: a difference of two
    # values, each within the forward bound eps (1 + gamma)/(1 - gamma) max|v|
    # of the exact one
    bound = 2 * np.finfo(float).eps * (1.0 + game.gamma) / (1.0 - game.gamma)
    assert np.abs(res[tie]).max(initial=0.0) <= bound * np.abs(evaluate(game, full_sigma)).max()
    # every strategy the run visits has the full game's value, lifted
    q, classes = quotient(game)
    reps = reps_of(classes)
    sigma = sigma0.copy()
    for ch in trace.changes:
        for s, _, new in ch:
            sigma[s] = new
        if ch:
            v = evaluate(game, sigma)
            lifted = evaluate(q, sigma[reps])[classes]
            assert np.abs(lifted - v).max() <= 1e-9 * np.abs(v).max()


def test_the_hi2_verifier_builds_every_policy_system_on_the_quotient(monkeypatch):
    # a silent fall back to the full game would build 418-state systems, and
    # explicit restart rows would leave no restart row in any system and, on
    # the block route of a table held as CSR, put every one of the
    # quotient's states in each active block
    sizes, restarts, blocks = [], [], []
    init = PolicyLinearSystem.__init__

    def counted(self, game, sigma, discount=None):
        init(self, game, sigma, discount)
        sizes.append(self.n)
        restarts.append(bool(self.u.any()))
        if not game.layout.held_dense:
            blocks.append(self.n if self._active is None else self._active.size)

    monkeypatch.setattr(PolicyLinearSystem, "__init__", counted)
    q, _ = quotient(build_hi2(400)[0])
    trace, report = verify_si_path_hi2(400)
    assert report.passed
    assert len(sizes) >= trace.total_policy_evaluations > 0
    assert set(sizes) == {q.n_states} and all(restarts)
    assert blocks == []  # the quotient's table is held densely: whole chains
    monkeypatch.setattr(sg.game, "prefer_dense", lambda *shape: False)
    trace, report = verify_si_path_hi2(400)
    assert report.passed
    assert len(blocks) >= trace.total_policy_evaluations > 0
    assert max(blocks) < q.n_states


def test_joints_lays_each_joint_strategy_out_over_the_states_given():
    game, meta = build_hi2(400)
    reps = reps_of(quotient(game)[1])
    every = np.arange(game.n_states)
    cells = [(i, a, z) for i in range(meta.s_prime + 1) for a in (1, 2, meta.s_prime)
             for z in (0, 1, meta.s_prime)]
    for states in (every, reps, reps[::-3]):
        got = meta.joints(cells, states)
        assert got.shape == (len(cells), states.size)
        for cell, sigma in zip(cells, got):
            np.testing.assert_array_equal(sigma, meta.joint(*cell)[states])


def long_double_value(game, sigma, v):
    """``v`` refined in long double against the dense chain of ``sigma``."""
    pairs = game.space.chosen_pairs(sigma)
    p = game.layout.dense()[pairs]
    m = np.eye(game.n_states) - game.gamma * p
    m_long = np.eye(game.n_states, dtype=np.longdouble) - np.longdouble(game.gamma) * p
    r, x = game.space.rewards[pairs].astype(np.longdouble), v.astype(np.longdouble)
    for _ in range(4):
        x = x + np.linalg.solve(m, (r - m_long @ x).astype(np.float64))
    return x


def test_every_value_the_hi2_verifier_evaluates_at_t_10000_is_within_the_forward_bound():
    game, meta = build_hi2(10_000)
    q, classes = quotient(game)
    reps = reps_of(classes)
    trace, report = verify_si_path_hi2(10_000)
    assert report.passed
    sigma = meta.joint(0, 1, 0)
    strategies = [sigma[reps]]
    for ch in trace.changes:
        for s, _, new in ch:
            sigma[s] = new
        if ch:
            strategies.append(sigma[reps])
    cells = [(i, i, z) for i in range(1, meta.s_prime) for z in range(meta.s_prime)]
    strategies += list(meta.joints(cells, reps))
    bound = np.finfo(float).eps * (1.0 + q.gamma) / (1.0 - q.gamma)
    worst = 0.0
    for sigma in strategies:
        v = evaluate(q, sigma)
        x = long_double_value(q, sigma, v)
        worst = max(worst, float(np.abs(v - x).max() / np.abs(x).max()))
    assert worst <= bound
