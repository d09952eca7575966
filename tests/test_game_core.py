"""Game model: validation, transforms, JSON round-trips."""

import json
import re

import numpy as np
import pytest

import sg
import sg.cli
from sg.game import (Action, MAX_PLAYER, MIN_PLAYER, affine_reward_map,
                     from_json_dict, load_game, make_game, mirror,
                     save_game, to_json_dict, validate, with_gamma)
from sg.exact import evaluate, strategy_iteration, value_iteration
from sg.generate import random_game
from sg.hard import build_hi1, build_hi2


def one_state_loop(reward=0.5, gamma=0.9, p=1.0):
    return make_game(gamma, [MAX_PLAYER], [[
        Action(reward=reward, next_states=np.array([0]), probs=np.array([p]))
    ]])


def test_input_error_is_one_value_error_type():
    # existing ``except ValueError`` callers keep catching every input check
    assert issubclass(sg.InputError, ValueError)
    assert sg.InputError is sg.game.InputError is sg.cli.InputError


def test_validate_minimal_game():
    assert validate(one_state_loop()) == []


def test_validate_flags_bad_row_sum():
    report = validate(one_state_loop(p=0.98))
    assert len(report) == 1
    assert "transition sum 0.98" in report[0]
    assert "(0,0)" in report[0]


def test_validate_flags_bad_targets_and_gamma():
    # a target the table cannot hold is refused when the game is made
    with pytest.raises(sg.InputError,
                       match=r"^invalid game: transition target out of range at \(0,0\)$"):
        make_game(0.9, [MIN_PLAYER], [[
            Action(reward=0.0, next_states=np.array([3]), probs=np.array([1.0]))
        ]])
    g2 = make_game(1.0 - 1e-18, [MIN_PLAYER], [[Action(reward=0.0, uniform=True)]])
    # gamma rounds to 1.0 in double precision
    assert any("gamma" in r for r in validate(g2))


def test_validate_hi1_instance():
    game, _ = build_hi1(48)
    assert validate(game) == []


def row(targets, probs, reward=0.0):
    return Action(reward=reward, next_states=np.array(targets), probs=np.array(probs))


OK_ROW = row([0], [1.0])


@pytest.mark.parametrize("gamma, owners, actions, report", [
    (0.9, [], [], ["game has no states"]),
    (1.5, [MIN_PLAYER], [[OK_ROW]], ["gamma 1.5 outside (0, 1)"]),
    (0.9, [2], [[OK_ROW]], ["state 0 has invalid owner tag 2"]),
    (0.9, [MIN_PLAYER, MAX_PLAYER], [[OK_ROW], []], ["state 1 has no actions"]),
    (0.9, [MIN_PLAYER], [[row([0], [1.0], reward=float("nan"))]],
     ["reward not finite at (0,0)"]),
    (0.9, [MIN_PLAYER], [[OK_ROW, row([], [])]], ["empty transition row at (0,1)"]),
    (0.9, [MIN_PLAYER], [[row([0], [float("inf")])]],
     ["transition probability not finite at (0,0)"]),
    # the row sums to 1: a table that summed repeated targets would hide this
    (0.9, [MIN_PLAYER], [[row([0, 0], [-0.1, 1.1])]],
     ["negative transition probability at (0,0)"]),
    (0.9, [MIN_PLAYER], [[row([0], [0.98])]], ["transition sum 0.98 != 1 at (0,0)"]),
    (0.9, [MIN_PLAYER], [[row([0], [1.0], reward=1e150)]],
     [f"value scale max|r|/(1-gamma) = {1e150 / (1.0 - 0.9)} exceeds 1e+150"]),
])
def test_validate_reports_each_kind_of_fault(gamma, owners, actions, report):
    assert validate(make_game(gamma, owners, actions)) == report


def test_validate_reports_every_fault_in_state_then_action_order():
    nan = float("nan")
    g = make_game(1.0, [MIN_PLAYER, MAX_PLAYER, MIN_PLAYER, 5, MAX_PLAYER, MIN_PLAYER], [
        [OK_ROW, row([1], [1.0], reward=float("inf"))],
        [],  # no actions, between faulty pairs
        [row([0, 3], [0.5, 0.6], reward=nan), Action(reward=0.0, uniform=True), row([], [])],
        [row([2], [nan]), row([1, 2], [-0.5, 1.5])],
        [Action(reward=nan, uniform=True)],
        [row([5, 4], [0.25, 0.75])]])
    assert validate(g) == [
        "gamma 1.0 outside (0, 1)",
        "state 3 has invalid owner tag 5",
        "reward not finite at (0,1)",
        "state 1 has no actions",
        "reward not finite at (2,0)",
        "transition sum 1.1 != 1 at (2,0)",
        "empty transition row at (2,2)",
        "transition probability not finite at (3,0)",
        "negative transition probability at (3,1)",
        "reward not finite at (4,0)",
    ]


@pytest.mark.parametrize("owners, actions, fault", [
    ([MIN_PLAYER], [[row([3], [1.0])]], "transition target out of range at (0,0)"),
    ([MIN_PLAYER, MIN_PLAYER], [[OK_ROW], [OK_ROW, row([1, -1], [0.5, 0.5])]],
     "transition target out of range at (1,1)"),
    ([MIN_PLAYER], [[OK_ROW, row([0.7], [1.0])]], "transition target not an integer at (0,1)"),
    ([MIN_PLAYER], [[row([True], [1.0])]], "transition target not an integer at (0,0)"),
    ([MIN_PLAYER], [[row([0, 0], [1.0])]],
     "transition index/probability shape mismatch at (0,0)"),
    ([MIN_PLAYER], [[row([[0]], [[1.0]])]],
     "transition index/probability shape mismatch at (0,0)"),
    ([MIN_PLAYER, MAX_PLAYER], [[OK_ROW]], "owner tags do not cover every state"),
    (np.array([MAX_PLAYER, 256]), [[OK_ROW], [OK_ROW]], "state 1 has invalid owner tag 256"),
])
def test_make_game_refuses_what_the_table_cannot_hold(owners, actions, fault):
    # such a game used to be built, and its first solve raised scipy's bare
    # ValueError, or multiplied by an entry outside the matrix
    with pytest.raises(sg.InputError, match=re.escape(f"invalid game: {fault}")):
        make_game(0.9, owners, actions)


def test_mirror_one_state():
    g = one_state_loop(reward=0.0)
    m = mirror(g)
    v = evaluate(g, np.zeros(1, dtype=np.int64))
    vm = evaluate(m, np.zeros(1, dtype=np.int64))
    assert v[0] == 0.0
    assert vm[0] == pytest.approx(1.0 / (1.0 - g.gamma))
    assert v[0] + vm[0] == pytest.approx(1.0 / (1.0 - g.gamma))


def test_mirror_value_sum_two_state():
    g = random_game(2, 2, 0.5, seed=0)
    m = mirror(g)
    v, _, _ = value_iteration(g, 1e-11)
    vm, _, _ = value_iteration(m, 1e-11)
    np.testing.assert_allclose(v + vm, 2.0, atol=1e-9)


def test_mirror_is_involution():
    g = random_game(4, 3, 0.8, seed=1)
    gg = mirror(mirror(g))
    assert gg.gamma == g.gamma
    assert np.array_equal(gg.owners, g.owners)
    for acts, acts2 in zip(g.actions, gg.actions):
        for a, a2 in zip(acts, acts2):
            assert a2.reward == a.reward
            assert np.array_equal(a2.next_states, a.next_states)
            assert np.array_equal(a2.probs, a.probs)


def test_mirror_rejects_out_of_range_rewards():
    g = make_game(0.9, [MIN_PLAYER], [[
        Action(reward=-0.5, next_states=np.array([0]), probs=np.array([1.0]))
    ]])
    with pytest.raises(ValueError):
        mirror(g)


def test_affine_identity():
    g = random_game(3, 2, 0.9, seed=2)
    g2 = affine_reward_map(g, scale=1.0, offset=0.0)
    for acts, acts2 in zip(g.actions, g2.actions):
        for a, a2 in zip(acts, acts2):
            assert a2.reward == a.reward


def test_affine_one_state_closed_form():
    g = one_state_loop(reward=0.3, gamma=0.9)
    v = evaluate(g, np.zeros(1, dtype=np.int64))
    assert v[0] == pytest.approx(3.0)
    g2 = affine_reward_map(g, scale=2.0, offset=0.1)
    v2 = evaluate(g2, np.zeros(1, dtype=np.int64))
    assert v2[0] == pytest.approx(2.0)
    # general contract: v' = (v + offset/(1-gamma)) / scale
    assert v2[0] == pytest.approx((v[0] + 0.1 / 0.1) / 2.0)


def test_affine_preserves_optimal_strategy_on_hi2():
    game, meta = build_hi2(400)
    shifted = affine_reward_map(game, scale=2.0, offset=1.0)
    assert validate(shifted) == []
    r = shifted.space.rewards
    assert r.min() >= 0.0 and r.max() <= 1.0
    start = meta.joint(0, 1, 0)
    sig, _ = strategy_iteration(game, start)
    sig2, _ = strategy_iteration(shifted, start)
    assert np.array_equal(sig, sig2)


def test_affine_rejects_bad_scale():
    with pytest.raises(ValueError):
        affine_reward_map(one_state_loop(), scale=0.0, offset=0.0)


@pytest.mark.parametrize("scale, offset", [(1.0, float("nan")), (1e-300, 1e300)])
def test_affine_map_refuses_non_finite_rewards(scale, offset):
    # the mapped game goes through the loader's validation: NaN or inf rewards
    # never reach a solver
    with pytest.raises(sg.InputError, match="reward not finite"):
        affine_reward_map(random_game(4, 2, 0.9, seed=0), scale=scale, offset=offset)


def test_json_round_trip_bit_exact(tmp_path):
    g = random_game(5, 3, 0.875, seed=3)
    path = tmp_path / "g.json"
    save_game(g, str(path))
    g2 = load_game(str(path))
    assert g2.gamma == g.gamma
    assert np.array_equal(g2.owners, g.owners)
    for acts, acts2 in zip(g.actions, g2.actions):
        for a, a2 in zip(acts, acts2):
            assert a2.reward == a.reward
            assert np.array_equal(a2.probs, a.probs)
    # second serialization is byte-identical
    assert json.dumps(to_json_dict(g)) == json.dumps(to_json_dict(g2))


def test_json_uniform_rows_round_trip(tmp_path):
    game, _ = build_hi1(48)
    path = tmp_path / "hi1.json"
    save_game(game, str(path))
    g2 = load_game(str(path))
    assert g2.layout.uniform_mask.sum() == game.layout.uniform_mask.sum()
    v1 = evaluate(game, np.zeros(48, dtype=np.int64))
    v2 = evaluate(g2, np.zeros(48, dtype=np.int64))
    np.testing.assert_array_equal(v1, v2)


def naive_transition_matrix(game):
    """One dense row per state-action pair, built straight from the actions."""
    n = game.n_states
    rows = []
    for acts in game.actions:
        for act in acts:
            if act.uniform:
                row = np.full(n, 1.0 / n)
            else:
                row = np.zeros(n)
                np.add.at(row, act.next_states, act.probs)
            rows.append(row)
    return np.array(rows)


def test_chain_view_matches_naive_matrix():
    rng = np.random.default_rng(5)
    n = 7
    actions = []
    for s in range(n):
        acts = []
        for a in range(int(rng.integers(1, 4))):
            if (s + a) % 3 == 0:
                acts.append(Action(reward=0.0, uniform=True))
            else:
                support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                acts.append(Action(reward=0.0, next_states=support,
                                   probs=rng.dirichlet(np.ones(support.size))))
        actions.append(acts)
    g = make_game(0.9, [MIN_PLAYER] * n, actions)
    lay = g.layout
    P = naive_transition_matrix(g)
    assert lay.uniform_mask.any() and not lay.uniform_mask.all()

    x = rng.normal(size=n)
    y = rng.normal(size=g.n_pairs)
    np.testing.assert_allclose(lay.dense(), P, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lay.p_dot(x), P @ x, rtol=0, atol=1e-13)
    for _ in range(2):  # the second call reads the cached transpose
        np.testing.assert_allclose(lay.pt_dot(y), P.T @ y, rtol=0, atol=1e-13)
    support, probs = lay.row_table()
    assert support.shape == probs.shape == (g.n_pairs, n)  # a uniform row is n wide
    for pair in range(g.n_pairs):
        row = np.zeros(n)
        np.add.at(row, support[pair], probs[pair])
        np.testing.assert_allclose(row, P[pair], rtol=0, atol=1e-15)
        # padding: probability 0 on the row's last real target
        real = 1 + np.flatnonzero(probs[pair]).max()
        assert (probs[pair, real:] == 0).all()
        assert (support[pair, real:] == support[pair, real - 1]).all()

    # one row per state: a strategy mixing uniform and sparse rows, and one
    # that only picks sparse rows
    mixed = g.space.chosen_pairs(np.array([len(acts) - 1 for acts in g.actions]))
    sparse = np.flatnonzero(~lay.uniform_mask)[:n]
    for rows, has_uniform in ((mixed, True), (sparse, False)):
        view = sg.game.ChainView(lay.trans[rows], lay.uniform_mask[rows], lay.weights)
        z = rng.normal(size=rows.size)
        np.testing.assert_allclose(view.dense(), P[rows], rtol=0, atol=1e-15)
        np.testing.assert_allclose(view.p_dot(x), P[rows] @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(view.pt_dot(z), P[rows].T @ z, rtol=0, atol=1e-13)
        assert view.has_uniform == has_uniform


def test_loader_rejects_invalid_game():
    for target, prob in (
        (0, 0.5),            # row sums to 0.5
        (0, float("nan")),   # NaN slips past the row-sum tolerance
        (0.7, 1.0),          # fractional target would truncate to state 0
        (True, 1.0),         # a boolean is not a state index
    ):
        doc = {"gamma": 0.9, "states": [
            {"owner": "max",
             "actions": [{"reward": 0.0, "next": [{"s": target, "p": prob}]}]}
        ]}
        with pytest.raises(ValueError):
            from_json_dict(doc)


def test_loader_rejects_a_value_scale_past_the_bound():
    def doc(reward):
        return {"gamma": 0.9, "states": [
            {"owner": "min", "actions": [{"reward": reward, "next": [{"s": 1, "p": 1.0}]}]},
            {"owner": "max", "actions": [{"reward": 0.0, "next": [{"s": 0, "p": 1.0}]}]}]}
    for reward in (1e308, -1e308, 1e150):  # max|r| / (1 - 0.9) > 1e150
        with pytest.raises(ValueError, match="value scale"):
            from_json_dict(doc(reward))
    assert from_json_dict(doc(1e148)).space.rewards[0] == 1e148


def test_a_game_keeps_its_rows_when_the_caller_writes_to_theirs():
    # make_game used to store the caller's arrays, so a later write changed
    # the JSON of the game but not the layout its solvers had cached
    targets, probs, owners = np.array([0, 1]), np.array([0.5, 0.5]), np.array([0, 1])
    g = make_game(0.9, owners, [[Action(1.0, targets, probs)],
                                [Action(0.0, uniform=True)]])
    v_before, _, _ = value_iteration(g, 1e-10)
    doc_before = json.dumps(to_json_dict(g))
    probs[:] = [1.0, 0.0]
    targets[:] = [1, 1]
    owners[:] = 1
    assert json.dumps(to_json_dict(g)) == doc_before
    assert value_iteration(g, 1e-10)[0].tobytes() == v_before.tobytes()
    act = g.actions[0][0]
    for arr in (act.next_states, act.probs, g.owners):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_a_game_shares_only_rows_that_no_one_can_write():
    g = random_game(4, 2, 0.9, seed=0)
    lay, space = g.layout, g.space
    # the transforms share the one table, dense copy of its rows included
    for copy in (mirror(g), affine_reward_map(g, 2.0, 0.5), with_gamma(g, 0.5)):
        assert copy.layout is lay
    tables = (lay.trans.data, lay.trans.indices, lay.trans.indptr, lay.uniform_mask,
              lay.weights, lay._rows, lay.row_lengths, g.owners, space.is_max, space.n_actions,
              space.state_offset, space.pair_state, space.rewards, space.pair_sign,
              space.choice_states, space.choice_pairs, space.choice_starts)
    assert not any(arr.flags.writeable for arr in tables)
    # a caller's row, even a read-only view of another game's table, is copied
    act = g.actions[0][0]
    assert np.shares_memory(act.probs, lay.trans.data)
    h = make_game(0.9, g.owners, [[Action(0.5, act.next_states[::-1], act.probs)]] * 4)
    for theirs, ours in ((h.layout.trans.indices, lay.trans.indices),
                         (h.layout.trans.data, lay.trans.data), (h.owners, g.owners)):
        assert not np.shares_memory(theirs, ours)
