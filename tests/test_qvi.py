"""Sampling-based Q-value iteration: deterministic guarantees and statistics."""

import logging
import math
import threading

import numpy as np
import pytest

from sg.checks import check_mdvss, check_mivss
from sg.exact import best_response, greedy_from_q, q_from_v, value_iteration
from sg.game import Action, InputError, MAX_PLAYER, make_game
from sg.generate import random_game
from sg.qvi import (DECREASING, INCREASING, QviConstants, VSSequence,
                    _halving_chain, derive_constants, planned_samples, qvi_mdvss,
                    qvi_mivss, solve)
from sg.sampler import GenerativeModel


def small_consts():
    """Lightweight constants for fast statistical tests."""
    return QviConstants(c1=2.0, c2=0.02, c3=0.2, c=0.5, big_c=0.1)


def beta_of(game):
    return 1.0 / (1.0 - game.gamma)


# ---------------------------------------------------------------------------
# derived constants


def test_derived_constants_shapes():
    d = derive_constants(QviConstants(), u=1.0, delta=0.1, n_pairs=80, gamma=0.9)
    assert d.beta == pytest.approx(10.0)
    assert d.rounds == math.ceil(4.0 * 10.0 * math.log(10.0))
    assert d.m1 == math.ceil(1000.0 * math.log(8 * 80 / 0.1))
    assert d.alpha1 <= 1.0
    assert d.m2 == math.ceil(100.0 * math.log(2 * d.rounds * 80 / 0.1))


def test_derived_constants_full_width_target():
    # u = beta must still produce a contracting horizon
    d = derive_constants(QviConstants(), u=10.0, delta=0.1, n_pairs=10, gamma=0.9)
    assert d.rounds >= 40


def test_derived_constants_rejects_bad_u():
    with pytest.raises(ValueError):
        derive_constants(QviConstants(), u=11.0, delta=0.1, n_pairs=10, gamma=0.9)
    with pytest.raises(ValueError):
        derive_constants(QviConstants(), u=0.0, delta=0.1, n_pairs=10, gamma=0.9)


@pytest.mark.parametrize("consts, names", [
    (QviConstants(c1=1e300), "rounds = .* from c1"),
    (QviConstants(c1=1e308), "rounds = inf from c1"),  # c1 * beta overflows to inf
    (QviConstants(c2=1e300), "m1 = .* from c2"),
    (QviConstants(c3=1e300), "m2 = .* from c3"),
    (QviConstants(m1_override=2 ** 63), "m1 = .* from m1_override"),
    (QviConstants(rounds_override=2 ** 62), r"c1 or rounds_override .* exceed np.intp"),
    (QviConstants(c1=1e17), r"c1 or rounds_override .* exceed np.intp"),
], ids=["c1-1e300", "c1-1e308", "c2", "c3", "m1-override", "rounds-override", "c1-1e17"])
def test_a_plan_that_cannot_run_is_refused(consts, names):
    # each used to fail inside the run: a dimension, ceil(inf) or multinomial error
    with pytest.raises(InputError, match=names):
        derive_constants(consts, u=1.0, delta=0.1, n_pairs=80, gamma=0.9)


def test_the_largest_plan_below_the_bound_is_kept():
    d = derive_constants(QviConstants(rounds_override=2 ** 40, m1_override=2 ** 63 - 1),
                         u=1.0, delta=0.1, n_pairs=80, gamma=0.9)
    assert (d.rounds, d.m1) == (2 ** 40, 2 ** 63 - 1)


def test_alpha1_capped_at_one():
    d = derive_constants(QviConstants(m1_override=1), u=1.0, delta=0.1,
                         n_pairs=10, gamma=0.9)
    assert d.alpha1 <= 1.0 and d.m1 >= 1


# ---------------------------------------------------------------------------
# deterministic-transition guarantees (hold surely, not just w.h.p.)


def det_game(seed=0, n=8, gamma=0.9):
    return random_game(n, 3, gamma, seed=seed, deterministic=True)


def test_deterministic_initial_q_dominates_backup():
    g = det_game()
    beta = beta_of(g)
    v0 = np.full(g.n_states, beta)
    model = GenerativeModel(g, master_seed=0)
    seq = qvi_mdvss(model, beta, 0.1, v0, np.zeros(g.n_states, dtype=np.int64),
                    small_consts())
    q0_exact = q_from_v(g, v0)
    assert (seq.q_values[0] >= np.minimum(q0_exact, beta) - 1e-12).all()


def test_deterministic_terminal_stays_above_optimum():
    for seed in range(5):
        g = det_game(seed)
        beta = beta_of(g)
        model = GenerativeModel(g, master_seed=seed)
        seq = qvi_mdvss(model, beta, 0.1, np.full(g.n_states, beta),
                        np.zeros(g.n_states, dtype=np.int64), small_consts())
        vstar, _, _ = value_iteration(g, 1e-10)
        assert (seq.terminal_value >= vstar - 1e-8).all()


def test_deterministic_increasing_stays_below_optimum():
    for seed in range(5):
        g = det_game(seed)
        model = GenerativeModel(g, master_seed=seed)
        seq = qvi_mivss(model, beta_of(g), 0.1, np.zeros(g.n_states),
                        np.zeros(g.n_states, dtype=np.int64), small_consts())
        vstar, _, _ = value_iteration(g, 1e-10)
        assert (seq.terminal_value <= vstar + 1e-8).all()


# ---------------------------------------------------------------------------
# structural invariants of any run


def run_small_mdvss(seed=0):
    g = random_game(10, 3, 0.9, seed=seed)
    model = GenerativeModel(g, master_seed=seed)
    beta = beta_of(g)
    seq = qvi_mdvss(model, beta, 0.1, np.full(10, beta),
                    np.zeros(10, dtype=np.int64), small_consts())
    return g, model, seq


def test_monotone_repair_invariant():
    _, _, seq = run_small_mdvss()
    assert (np.diff(seq.values, axis=0) <= 1e-12).all()


def test_clipping_invariant():
    g, _, seq = run_small_mdvss(1)
    beta = beta_of(g)
    assert (seq.q_values >= -1e-12).all()
    assert (seq.q_values <= beta + 1e-12).all()


def test_error_bounds_nonnegative_and_entry_count():
    g, _, seq = run_small_mdvss(2)
    assert seq.values.shape[0] == seq.constants.rounds + 1
    assert (seq.error_bounds >= 0).all()


def test_strategy_value_coupling():
    g, _, seq = run_small_mdvss(3)
    # every stored value entry equals the greedy value of some earlier-round
    # Q at that state, and the stored strategy picks that action
    for i in range(1, seq.rounds + 1):
        ok = np.zeros(g.n_states, dtype=bool)
        for k in range(1, i + 1):
            vk, sk = greedy_from_q(g.space, seq.q_values[k])
            ok |= (vk == seq.values[i]) & (sk == seq.strategies[i])
        ok |= seq.values[i] == seq.values[0]
        assert ok.all()


def test_mivss_input_condition_from_zero():
    # v0 = 0 always satisfies the increasing-run input condition on
    # nonnegative-reward games: one backup of 0 returns the rewards
    g = random_game(9, 2, 0.9, seed=4)
    assert (q_from_v(g, np.zeros(9)) >= 0).all()
    model = GenerativeModel(g, master_seed=4)
    seq = qvi_mivss(model, beta_of(g), 0.1, np.zeros(9),
                    np.zeros(9, dtype=np.int64), small_consts())
    assert seq.direction == INCREASING
    assert (np.diff(seq.values, axis=0) >= -1e-12).all()


def test_reward_range_enforced():
    g = make_game(0.9, [MAX_PLAYER], [[
        Action(reward=1.5, next_states=np.array([0]), probs=np.array([1.0]))
    ]])
    model = GenerativeModel(g, master_seed=0)
    with pytest.raises(ValueError):
        qvi_mdvss(model, 1.0, 0.1, np.zeros(1), np.zeros(1, dtype=np.int64))


# ---------------------------------------------------------------------------
# statistical behavior at the optimum


def test_warm_start_at_optimum_stays_close():
    g = random_game(10, 3, 0.9, seed=5)
    vstar, sstar, _ = value_iteration(g, 1e-10)
    u = 0.5
    hits = 0
    trials = 30
    for t in range(trials):
        model = GenerativeModel(g, master_seed=1000 + t)
        seq = qvi_mdvss(model, u, 0.1, vstar + u, sstar, small_consts())
        ok = (seq.terminal_value >= vstar - 1e-8).all() and \
             (seq.terminal_value <= vstar + u + 1e-8).all()
        hits += ok
    assert hits >= trials * 0.9


def test_check_mdvss_passes_on_most_runs():
    g = random_game(10, 3, 0.9, seed=6)
    vstar, _, _ = value_iteration(g, 1e-10)
    beta = beta_of(g)
    passed = 0
    trials = 20
    for t in range(trials):
        model = GenerativeModel(g, master_seed=2000 + t)
        seq = qvi_mdvss(model, beta, 0.1, np.full(10, beta),
                        np.zeros(10, dtype=np.int64), small_consts())
        passed += check_mdvss(g, seq, vstar=vstar).passed
    assert passed >= trials * 0.9


def test_check_mivss_passes_on_most_runs():
    g = random_game(10, 3, 0.9, seed=7)
    vstar, _, _ = value_iteration(g, 1e-10)
    passed = 0
    trials = 20
    for t in range(trials):
        model = GenerativeModel(g, master_seed=3000 + t)
        seq = qvi_mivss(model, beta_of(g), 0.1, np.zeros(10),
                        np.zeros(10, dtype=np.int64), small_consts())
        passed += check_mivss(g, seq, vstar=vstar).passed
    assert passed >= trials * 0.9


# ---------------------------------------------------------------------------
# the halving driver


def test_solve_one_state_game():
    g = make_game(0.9, [MAX_PLAYER], [[
        Action(reward=0.4, next_states=np.array([0]), probs=np.array([1.0]))
    ]])
    model = GenerativeModel(g, master_seed=0)
    res = solve(model, epsilon=0.05, delta=0.1)  # default constants
    assert res.min_strategy[0] == 0 and res.max_strategy[0] == 0
    assert abs(res.value_estimate[0] - 4.0) <= 0.05
    assert all(res.round_ok)


def test_solve_schedule_and_sample_accounting():
    g = random_game(6, 2, 0.9, seed=8)
    model = GenerativeModel(g, master_seed=9)
    res = solve(model, epsilon=0.2, delta=0.1, consts=small_consts(),
                both_players=False)
    beta = beta_of(g)
    n_rounds = math.ceil(math.log2(beta / 0.2))
    assert res.u_schedule == [beta / 2 ** j for j in range(n_rounds)]
    expected = sum(g.n_pairs * (d.m1 + d.rounds * d.m2)
                   for d in [s.constants for s in res.sequences])
    assert res.total_samples == expected
    assert model.sample_count()[0] == expected
    assert sum(s.samples_used for s in res.sequences) == expected


@pytest.mark.parametrize("both_players", [False, True])
def test_planned_samples_match_solve(both_players):
    g = random_game(6, 2, 0.9, seed=8)
    model = GenerativeModel(g, master_seed=9)
    res = solve(model, epsilon=0.2, delta=0.1, consts=small_consts(),
                both_players=both_players)
    assert res.total_samples == planned_samples(
        g.n_pairs, g.gamma, 0.2, 0.1, both_players, small_consts())
    # default constants at the acceptance size (20 states x 4 actions)
    assert planned_samples(80, 0.9, 0.05, 0.1, True) == 574_653_120


def test_total_samples_counts_only_this_solve():
    g = random_game(3, 2, 0.5, seed=8)
    model = GenerativeModel(g, master_seed=9)
    planned = planned_samples(g.n_pairs, g.gamma, 0.3, 0.1, True)
    for _ in range(2):  # the second solve reuses the model and its counter
        res = solve(model, epsilon=0.3, delta=0.1)
        assert res.total_samples == planned
    # the model's own counter keeps growing: two min chains, half the plan each
    assert model.sample_count()[0] == planned


def test_halving_rounds_are_logged(caplog):
    g = random_game(6, 2, 0.9, seed=8)
    model = GenerativeModel(g, master_seed=9)
    with caplog.at_level(logging.INFO, logger="sg.qvi"):
        res = solve(model, epsilon=0.2, delta=0.1, consts=small_consts(),
                    both_players=False)
    records = [r for r in caplog.records if r.name == "sg.qvi"]
    assert len(records) == len(res.u_schedule)
    for j, rec in enumerate(records):
        seq = res.sequences[j]
        d = seq.constants
        msg = rec.getMessage()
        assert rec.levelno == logging.INFO and msg.startswith(f"halving round {j}:")
        for field in (f"u={res.u_schedule[j]:.6g}", f"rounds={d.rounds}",
                      f"m1={d.m1}", f"m2={d.m2}", f"samples={seq.samples_used}",
                      "seconds=", f"round_ok={res.round_ok[j]}"):
            assert field in msg


def test_halving_rounds_name_their_player(caplog):
    g = random_game(4, 2, 0.9, seed=8)
    model = GenerativeModel(g, master_seed=9)
    with caplog.at_level(logging.INFO, logger="sg.qvi"):
        res = solve(model, epsilon=0.2, delta=0.1, consts=small_consts(),
                    both_players=True)
    records = [r.getMessage() for r in caplog.records if r.name == "sg.qvi"]
    n = len(res.u_schedule)
    assert len(records) == 2 * n
    # the min chain runs first, then the mirrored max chain
    for j, msg in enumerate(records):
        player = "min" if j < n else "max"
        assert msg.startswith(f"halving round {j % n}: player={player} ")


def test_solve_matches_two_serial_chains_bit_for_bit():
    # the two chains run side by side, yet each keeps its own generators,
    # counter and game, so the result is that of running them one by one.
    # On the 120 x 40 table each chain also draws its two blocks on two
    # threads, four draws at once.
    for g in (random_game(6, 2, 0.9, seed=8), random_game(40, 3, 0.9, seed=8)):
        model = GenerativeModel(g, master_seed=9)
        before = threading.active_count()
        res = solve(model, epsilon=0.2, delta=0.1, consts=small_consts())
        assert threading.active_count() == before

        serial = GenerativeModel(g, master_seed=9)
        assert len(serial._rngs) == (1 if g.n_states == 6 else 2)
        seqs, oks, _ = _halving_chain(serial, 0.2, 0.1, small_consts())
        mirror_seqs, _, _ = _halving_chain(serial.mirrored(), 0.2, 0.1, small_consts())
        assert threading.active_count() == before
        assert res.round_ok == oks
        assert model.sample_count()[0] == serial.sample_count()[0]
        np.testing.assert_array_equal(model.sample_count()[1], serial.sample_count()[1])
        for got, want in zip(res.sequences + res.mirror_sequences, seqs + mirror_seqs,
                             strict=True):
            for field in ("values", "q_values", "strategies", "error_bounds"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert got.direction == want.direction
            assert got.constants == want.constants
            assert got.samples_used == want.samples_used


def _failing_batch(event=None):
    def estimate_diff_mean(*args):
        if event is not None:
            event.set()
        raise RuntimeError("batch failed")
    return estimate_diff_mean


def test_solve_raises_the_max_chains_error_and_leaves_no_thread(monkeypatch):
    model = GenerativeModel(random_game(6, 2, 0.9, seed=8), master_seed=9)
    mirrored = model.mirrored()
    monkeypatch.setattr(mirrored, "estimate_diff_mean", _failing_batch())
    monkeypatch.setattr(model, "mirrored", lambda: mirrored)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="batch failed"):
        solve(model, epsilon=0.2, delta=0.1, consts=small_consts())
    assert threading.active_count() == before


def test_solve_raises_the_min_chains_error_after_joining_the_max_chain(monkeypatch):
    model = GenerativeModel(random_game(6, 2, 0.9, seed=8), master_seed=9)
    mirrored = model.mirrored()
    min_failed = threading.Event()
    batch = mirrored.estimate_diff_mean

    def slow_batch(*args):  # still running when the min chain raises
        min_failed.wait(timeout=10)
        return batch(*args)

    monkeypatch.setattr(model, "estimate_diff_mean", _failing_batch(min_failed))
    monkeypatch.setattr(mirrored, "estimate_diff_mean", slow_batch)
    monkeypatch.setattr(model, "mirrored", lambda: mirrored)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="batch failed"):
        solve(model, epsilon=0.2, delta=0.1, consts=small_consts())
    assert threading.active_count() == before


def test_solve_returns_both_players_epsilon_optimal():
    g = random_game(8, 3, 0.9, seed=10)
    model = GenerativeModel(g, master_seed=11)
    res = solve(model, epsilon=0.1, delta=0.1)  # default constants
    vstar, _, _ = value_iteration(g, 1e-10)
    _, v_min = best_response(g, res.min_strategy, 0)
    _, v_max = best_response(g, res.max_strategy, 1)
    assert (v_min <= vstar + 0.1 + 1e-8).all()
    assert (v_max >= vstar - 0.1 - 1e-8).all()


def test_solve_rejects_bad_epsilon():
    g = random_game(4, 2, 0.9, seed=12)
    model = GenerativeModel(g, master_seed=13)
    with pytest.raises(ValueError):
        solve(model, epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        solve(model, epsilon=1.5, delta=0.1)


def test_sequence_json_round_trip(tmp_path):
    _, _, seq = run_small_mdvss(4)
    path = tmp_path / "seq.json"
    seq.save(str(path))
    back = VSSequence.load(str(path))
    assert back.direction == DECREASING
    np.testing.assert_array_equal(back.values, seq.values)
    np.testing.assert_array_equal(back.q_values, seq.q_values)
    np.testing.assert_array_equal(back.strategies, seq.strategies)
    np.testing.assert_array_equal(back.error_bounds, seq.error_bounds)
    assert back.samples_used == seq.samples_used
