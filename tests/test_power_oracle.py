"""Stationary laws against the power iteration run sweep by sweep.

``reference_power_iteration`` is the per-sweep stacked loop: every chain of
a stack is tested for convergence after every sweep and stops at its own
first converged sweep. It is the oracle of both routes to a stationary law:
``stationary_distribution``, which iterates one chain, must read it bit for
bit and push for push, and ``scan_stack``, which solves for the laws of a
dense stack, must agree with it within 1e-9 on every chain with one closed
class.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import sg.exact
import sg.game
from sg.exact import ratio_scan, scan_stack, stationary_distribution
from sg.game import Action, MAX_PLAYER, make_game
from sg.generate import random_game
from sg.hard import build_hi1

from test_exact import all_strategies, fresh, mixed_row_game


def reference_power_iteration(push, k, n):
    """The power iteration with a convergence test after every sweep: each
    chain stops at its own first sweep with max|P^T y - y| <= tol, and a
    chain stopped by neither the test nor the cap is NaN. ``push(y, rows,
    out)`` writes P_r^T y_r into ``out`` for the chains ``rows`` still
    running, ``y`` and ``out`` being (len(rows), 1, n)."""
    def pushed(y, rows):
        out = np.empty((len(rows), 1, n))
        push(y[:, None, :], rows, out)
        return out[:, 0, :]

    out = np.full((k, n), np.nan)
    rows = np.arange(k)
    lam = np.full((k, n), 1.0 / n)
    nxt = pushed(lam, rows)
    for it in range(sg.exact.STATIONARY_MAX_SWEEPS):
        nxt /= nxt.sum(axis=1, keepdims=True)
        if it >= sg.exact.PLAIN_SWEEPS:
            nxt = 0.5 * (nxt + lam)
            nxt /= nxt.sum(axis=1, keepdims=True)
        step = pushed(nxt, rows)  # also the next sweep's first step
        done = np.abs(step - nxt).max(axis=1) <= sg.exact.STATIONARY_TOL
        if done.any():
            out[rows[done]] = nxt[done]
            running = ~done
            rows, nxt, step = rows[running], nxt[running], step[running]
            if rows.size == 0:
                break
        lam, nxt = nxt, step
    return out


def reference_one_chain(push, n):
    """The per-sweep loop on one chain, called as ``_power_iteration`` is."""
    def stacked(y, rows, out):
        out[0, 0] = push(y[0, 0])
    return reference_power_iteration(stacked, 1, n)[0]


def reference_stack_laws(g, sigmas):
    """The per-sweep loop over the dense chains of ``sigmas``, all at once."""
    P = g.layout.dense()[g.space.chosen_pairs(sigmas)]

    def push(y, rows, out):
        np.matmul(y, P[rows], out=out)
    return reference_power_iteration(push, len(sigmas), g.n_states)


def closed_classes(P):
    """How many closed communicating classes the chain P has."""
    count, label = connected_components(P > 0, directed=True, connection="strong")
    src, dst = np.nonzero(P > 0)
    leaving = label[src][label[src] != label[dst]]
    return count - np.unique(leaving).size


def counted_pushes(mp):
    """Make ``_power_iteration`` count the chain steps it pushes; the count
    is the length of the list returned."""
    calls, real = [], sg.exact._power_iteration

    def counted(push, n):
        def push_counted(y):
            calls.append(None)
            return push(y)
        return real(push_counted, n)

    mp.setattr(sg.exact, "_power_iteration", counted)
    return calls


def periodic_and_absorbing_game():
    """Action 0 at state 0 closes the 0 <-> 1 cycle (periodic, needs the
    Cesaro phase); action 1 makes state 0 absorbing."""
    point = lambda t: Action(reward=0.0, next_states=np.array([t]), probs=np.array([1.0]))
    return make_game(0.9, [MAX_PLAYER] * 3, [[point(1), point(0)], [point(0)], [point(0)]])


def split_game(gamma, rng):
    """Two closed blocks of one or two states, each row on a random support
    within its block, and a last state that feeds both: every chain has
    two closed classes at least."""
    a, b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    blocks = [np.arange(a), np.arange(a, a + b)]
    actions = []
    for block in blocks:
        for _ in block:
            acts = []
            for _ in range(rng.integers(1, 3)):
                support = np.sort(rng.choice(block, size=rng.integers(1, block.size + 1),
                                             replace=False))
                acts.append(Action(reward=float(rng.uniform()), next_states=support,
                                   probs=rng.dirichlet(np.ones(support.size))))
            actions.append(acts)
    actions.append([Action(reward=0.0, next_states=np.array([0, a]), probs=np.array([0.5, 0.5]))])
    return make_game(gamma, rng.integers(0, 2, size=a + b + 1), actions)


@st.composite
def scan_games(draw):
    kind = draw(st.sampled_from(["random", "mixed", "split", "periodic"]))
    if kind == "periodic":
        return periodic_and_absorbing_game()
    gamma = draw(st.sampled_from([0.9, 0.99, 0.999]))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "random":
        return random_game(draw(st.integers(1, 5)), draw(st.integers(1, 2)), gamma, seed=seed)
    if kind == "split":
        return split_game(gamma, np.random.default_rng(seed))
    return mixed_row_game(draw(st.integers(1, 5)), gamma, np.random.default_rng(seed))


def power_readings(g, sigmas):
    """The stationary law of each strategy (NaN where it raises) on the
    table as held and on the same table held as CSR."""
    def laws(game):
        rows = []
        for sigma in sigmas:
            try:
                rows.append(stationary_distribution(game, sigma))
            except RuntimeError:
                rows.append(np.full(g.n_states, np.nan))
        return np.array(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.game, "prefer_dense", lambda *shape: False)
        csr = fresh(g)
        sparse_laws = laws(csr)
    assert not csr.layout.held_dense
    return laws(g), sparse_laws


def iteration_and_reference(g, sigmas, **constants):
    """power_readings with ``_power_iteration`` and with the per-sweep
    loop, under the module constants given, with the pushes each made."""
    got = []
    for power in (None, reference_one_chain):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(sg.exact, name, value)
            if power is not None:
                mp.setattr(sg.exact, "_power_iteration", power)
            calls = counted_pushes(mp)
            got.append((power_readings(g, sigmas), len(calls)))
    return got


def hi1_case():
    """hi1 at T = 48, whose restart rows push the uniform law, with its
    uniform, extreme and three seeded policies."""
    g, meta = build_hi1(48)
    seeded = np.random.default_rng(0).integers(0, g.space.n_actions, size=(3, g.n_states))
    return g, np.array([meta.policy_uniform(), meta.policy_extreme(), *seeded])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scan_games().map(lambda g: (g, np.array(all_strategies(g)))))
@example(hi1_case())
def test_the_power_iteration_is_the_per_sweep_loop_bit_for_bit(case):
    # 13 sweeps put the Cesaro switch and 101 the cap within reach
    g, sigmas = case
    (got, _), (want, _) = iteration_and_reference(g, sigmas, PLAIN_SWEEPS=13,
                                                  STATIONARY_MAX_SWEEPS=101)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_the_power_iteration_is_the_per_sweep_loop_push_for_push():
    # the iteration pushes exactly what the per-sweep loop does, at the
    # default constants and with the Cesaro switch and the cap brought near
    rng = np.random.default_rng(5)
    for g in (periodic_and_absorbing_game(), mixed_row_game(5, 0.9, rng),
              random_game(4, 2, 0.99, seed=3)):
        sigmas = np.array(all_strategies(g))
        for constants in ({}, {"PLAIN_SWEEPS": 13, "STATIONARY_MAX_SWEEPS": 101}):
            (got, pushes), (want, ref_pushes) = iteration_and_reference(g, sigmas, **constants)
            assert pushes == ref_pushes
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True)


def test_a_converged_chain_makes_the_per_sweep_loops_pushes():
    g = random_game(5, 2, 0.9, seed=11)
    for sigma in all_strategies(g):
        (_, pushes), (_, ref_pushes) = iteration_and_reference(g, sigma[None])
        # one stationary_distribution on each holding
        assert pushes == ref_pushes


def test_an_empty_stack_pushes_nothing():
    # the stack solves for its laws: neither an empty nor a full one iterates
    g = random_game(4, 2, 0.9, seed=28)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.exact, "STATIONARY_MAX_SWEEPS", 1000)
        calls = counted_pushes(mp)
        lam, x = scan_stack(g, np.zeros((0, 4), dtype=np.int64))
        assert lam.shape == x.shape == (0, 4)
        lam, x = scan_stack(g, np.array(all_strategies(g)))
        assert np.isfinite(lam).all() and np.isfinite(x).all()
    assert calls == []


def nan_row_game():
    """State 0's action 0 has a NaN probability (``validate`` reports it);
    its action 1, which makes it absorbing, and the other states are sound."""
    return make_game(0.9, [MAX_PLAYER] * 3, [
        [Action(reward=0.0, next_states=np.array([0, 1]), probs=np.array([np.nan, 0.5])),
         Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))],
        [Action(reward=0.0, next_states=np.array([0]), probs=np.array([1.0]))],
        [Action(reward=0.0, next_states=np.array([0, 2]), probs=np.array([0.5, 0.5]))]])


@pytest.mark.parametrize("held", ["dense", "csr"])
def test_a_non_finite_chain_stops_at_the_first_check(held):
    g = nan_row_game()
    assert sg.game.validate(g)
    with pytest.MonkeyPatch.context() as mp:
        if held == "csr":
            mp.setattr(sg.game, "prefer_dense", lambda *shape: False)
            g = fresh(g)
        assert g.layout.held_dense == (held == "dense")
        mp.setattr(sg.exact, "STATIONARY_MAX_SWEEPS", 1000)
        calls = counted_pushes(mp)
        with pytest.raises(RuntimeError, match="did not converge"):
            stationary_distribution(g, np.zeros(3, dtype=np.int64))
        assert len(calls) <= 2
        lam, x = scan_stack(g, np.array([[0, 0, 0], [1, 0, 0]]))
        assert np.isnan(lam[0]).all() and np.isnan(x[0]).all()
        np.testing.assert_allclose(lam[1], [1.0, 0.0, 0.0], atol=1e-9)
        report = ratio_scan(g)
        assert (report.strategies_scanned, report.strategies_skipped) == (1, 1)
        nan_only = make_game(0.9, [MAX_PLAYER] * 3, [acts[:1] for acts in g.actions])
        calls.clear()
        with pytest.raises(RuntimeError, match="no strategy produced a convergent chain"):
            ratio_scan(nan_only)
        assert len(calls) <= 2
        # the per-sweep loop, given its sweeps, reads the same
        mp.setattr(sg.exact, "_power_iteration", reference_one_chain)
        assert ratio_scan(g).per_strategy == report.per_strategy


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scan_games())
def test_the_stack_solve_agrees_with_the_per_sweep_loop(g):
    sigmas = np.array(all_strategies(g))
    lam, x = scan_stack(g, sigmas)
    want = reference_stack_laws(g, sigmas)
    P = g.layout.dense()[g.space.chosen_pairs(sigmas)]
    for i, chain in enumerate(P):
        solved, converged = not np.isnan(lam[i]).any(), not np.isnan(want[i]).any()
        assert solved == (not np.isnan(x[i]).any())
        if closed_classes(chain) == 1:
            assert solved == converged
            if converged:
                np.testing.assert_allclose(lam[i], want[i], rtol=0, atol=1e-9)
        elif solved:  # any law the solve returns there is a stationary one
            assert lam[i].min() >= 0.0 and abs(lam[i].sum() - 1.0) <= 1e-9
            assert np.abs(lam[i] @ chain - lam[i]).max() <= sg.exact.STATIONARY_TOL
