"""The form a chain is held and solved in is invisible to its users.

``sg.game.prefer_dense`` picks, per chain view, dense or CSR storage of the
explicit rows. A ``PolicyLinearSystem`` reads that storage once, to pick its
block and factor form: on a table held densely the whole gathered chain,
with the restart law inside its LU; on a table held as CSR the block of the
rows with entries and the states they reach, by dense LU or SuperLU as the
same rule picks, with the restart law folded in by Sherman-Morrison. One
apply and solve path serves both, and each form is checked here against a
dense solve of ``I - gamma P_sigma`` and under both forced forms.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import sg.exact
import sg.game
from sg.exact import PolicyLinearSystem
from sg.game import Action, MAX_PLAYER, MIN_PLAYER, make_game, with_gamma
from sg.generate import random_game
from sg.hard import build_hi1, build_hi2
from sg.qvi import QviConstants, solve
from sg.sampler import GenerativeModel

from csr_oracle import as_scipy, gathered


@pytest.fixture(params=["rule", "dense", "sparse"])
def form(request, monkeypatch):
    """The storage rule as written, or forced to one form everywhere."""
    if request.param != "rule":
        forced = request.param == "dense"
        for module in (sg.game, sg.exact):
            monkeypatch.setattr(module, "prefer_dense", lambda *shape: forced)
    return request.param


def point(target, reward=0.0):
    return Action(reward=reward, next_states=np.array([target]), probs=np.array([1.0]))


def uniform_game():
    """Every row uniform: the active block is empty."""
    acts = [[Action(reward=0.1 * s, uniform=True)] for s in range(5)]
    return make_game(0.9, [MIN_PLAYER] * 5, acts), np.zeros(5, dtype=np.int64)


def reaching_game():
    """State 0's row reaches states 3 and 4, which have no row of their own."""
    acts = [[Action(reward=1.0, next_states=np.array([3, 4]), probs=np.array([0.25, 0.75]))],
            [point(0, 0.5)]]
    acts += [[Action(reward=0.2, uniform=True)] for _ in range(4)]
    return make_game(0.95, [MAX_PLAYER] * 6, acts), np.zeros(6, dtype=np.int64)


def cases():
    hi2, meta2 = build_hi2(400)
    hi1, meta1 = build_hi1(192)
    yield "hi2-start", hi2, meta2.joint(0, 1, 0), None
    yield "hi2-rebuild", hi2, meta2.joint(1, 1, 2), None
    yield "hi1-uniform", hi1, meta1.policy_uniform(), None
    yield "hi1-extreme", hi1, meta1.policy_extreme(), None
    yield "random", random_game(12, 3, 0.9, seed=4), np.arange(12) % 3, None
    yield "uniform", *uniform_game(), None
    yield "reaching", *reaching_game(), None
    g = random_game(10, 2, 0.9, seed=6)
    yield "tail-discount", g, np.arange(10) % 2, g.gamma ** 2
    yield "hi2-tail-discount", hi2, meta2.joint(1, 2, 0), hi2.gamma ** 2


CASES = {name: (g, np.asarray(sigma, dtype=np.int64), d) for name, g, sigma, d in cases()}


def fresh(game):
    """``game`` over a new view of its table, so that the storage rule in
    force is the one that picks how the table is held."""
    lay = game.layout
    return dataclasses.replace(game, layout=sg.game.ChainView(lay.trans, lay.uniform_mask,
                                                              lay.weights))


def assert_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("name", CASES)
def test_solves_match_a_dense_solve(name, form):
    game, sigma, discount = CASES[name]
    game = fresh(game)
    if form != "rule":
        assert game.layout.held_dense == (form == "dense")
    sys = PolicyLinearSystem(game, sigma, discount=discount)
    d = game.gamma if discount is None else discount
    M = np.eye(game.n_states) - d * game.layout.dense()[game.space.chosen_pairs(sigma)]
    rng = np.random.default_rng(len(name))
    for b in (sys.r, np.ones(game.n_states), rng.normal(size=game.n_states)):
        assert_close(sys.solve(b), np.linalg.solve(M, b))
        assert_close(sys.solve_transpose(b), np.linalg.solve(M.T, b))


def test_the_cases_cover_each_route_and_active_block(monkeypatch):
    # the rule gathers the whole chain of a table it holds densely; the
    # active blocks are those of the route it takes for a table held as CSR
    routes = {name: fresh(game).layout.held_dense for name, (game, _, _) in CASES.items()}
    assert {name for name, dense in routes.items() if not dense} == {
        "hi2-start", "hi2-rebuild", "hi2-tail-discount", "hi1-uniform", "hi1-extreme"}
    monkeypatch.setattr(sg.game, "prefer_dense", lambda *shape: False)

    def active(name):
        game, sigma, discount = CASES[name]
        return PolicyLinearSystem(fresh(game), sigma, discount=discount)._active

    assert active("random") is None                    # every state
    assert active("uniform").size == 0                 # no explicit row
    assert active("reaching").tolist() == [0, 1, 3, 4]  # more than the rows 0, 1
    assert 0 < active("hi2-start").size < 30


def views():
    rng = np.random.default_rng(3)
    hi2, meta = build_hi2(400)
    g = random_game(9, 3, 0.9, seed=2)
    mixed = make_game(0.9, [MIN_PLAYER] * 7,
                      [[Action(reward=0.0, uniform=True), point(s, 1.0)] for s in range(6)]
                      + [[Action(reward=0.0, next_states=np.array([0, 5]),
                                 probs=rng.dirichlet(np.ones(2)))]])
    for game, sigma in ((hi2, meta.joint(1, 2, 1)), (g, np.arange(9) % 3),
                        (mixed, np.arange(7) % 2)):
        yield game.layout
        lay, rows = game.layout, game.space.chosen_pairs(sigma)
        yield sg.game.ChainView(gathered(lay.trans, rows), lay.uniform_mask[rows], lay.weights)


def readings(view):
    x = np.random.default_rng(0).normal(size=view.trans.shape[1])
    return view.p_dot(x), view.dense(), *view.row_table()


def test_both_storages_read_alike(monkeypatch):
    for view in views():
        got = {}
        for forced in (True, False):
            monkeypatch.setattr(sg.game, "prefer_dense", lambda *shape: forced)
            copy = sg.game.ChainView(view.trans, view.uniform_mask, view.weights)
            assert isinstance(copy._rows, np.ndarray) == forced
            got[forced] = readings(copy)
        p, dense, support, probs = got[True]
        p_s, dense_s, support_s, probs_s = got[False]
        np.testing.assert_allclose(p, p_s, rtol=0, atol=1e-13)
        assert np.array_equal(dense, dense_s)
        assert np.array_equal(support, support_s) and np.array_equal(probs, probs_s)


def test_a_uniform_restart_law_folds_as_the_mean():
    # k = 1 for every game make_game builds: P x rounds as the uniform fold
    # x.mean() did before the law had weights
    for view in views():
        n = view.trans.shape[1]
        assert (view.weights == 1.0).all()
        x = np.random.default_rng(1).normal(size=n)
        u, px = view.uniform_mask, view._rows @ x
        if view.has_uniform:
            px = px + u * x.mean()
        assert view.p_dot(x).tobytes() == px.tobytes()


def test_the_rule_holds_full_rows_densely_and_sparse_rows_as_csr():
    full = random_game(300, 4, 0.99, seed=1).layout     # (1200, 300), every entry
    hi2 = build_hi2(10000)[0].layout                      # 85 entries in 10^8 cells
    assert isinstance(full._rows, np.ndarray) and not full._rows.flags.writeable
    # a table held sparse is a scipy CSR over the table's own arrays
    assert isinstance(hi2._rows, sp.csr_matrix) and hi2._rows.shape == hi2.trans.shape
    for name in ("data", "indices", "indptr"):
        held, own = getattr(hi2._rows, name), getattr(hi2.trans, name)
        assert np.shares_memory(held, own) and np.array_equal(held, own)
    # a discounted copy shares the dense copy, and callers get their own matrix
    g = random_game(40, 4, 0.9, seed=1)
    copy = with_gamma(g, 0.5)
    assert copy.layout._rows is g.layout._rows
    before = copy.layout.dense()
    copy.layout.dense()[0, 0] += 1.0
    assert np.array_equal(copy.layout.dense(), before)


def test_qvi_is_bit_identical_under_both_storages(monkeypatch):
    consts = QviConstants(c1=2.0, c2=0.02, c3=0.2, c=0.5, big_c=0.1)
    results = []
    for forced in (True, False):
        monkeypatch.setattr(sg.game, "prefer_dense", lambda *shape: forced)
        model = GenerativeModel(random_game(6, 2, 0.9, seed=8), master_seed=9)
        results.append(solve(model, epsilon=0.2, delta=0.1, consts=consts,
                             both_players=True))
    dense, sparse = results
    assert dense.total_samples == sparse.total_samples
    assert np.array_equal(dense.min_strategy, sparse.min_strategy)
    assert np.array_equal(dense.max_strategy, sparse.max_strategy)
    for a, b in zip(dense.sequences + dense.mirror_sequences,
                    sparse.sequences + sparse.mirror_sequences):
        assert a.to_json_dict() == b.to_json_dict()


def gather_cases():
    """(name, layout, rows) selections to gather from each kind of layout."""
    hi2, meta = build_hi2(10000)
    yield "hi2", hi2.layout, hi2.space.chosen_pairs(meta.joint(5, 6, 3))
    hi1, _ = build_hi1(48)
    yield "hi1", hi1.layout, np.arange(hi1.n_pairs)[::-1]
    rand = random_game(7, 3, 0.9, seed=4)
    yield "random", rand.layout, rand.space.chosen_pairs(np.array([2, 0, 1, 1, 0, 2, 2]))
    unif, sigma = uniform_game()
    yield "uniform", unif.layout, unif.space.chosen_pairs(sigma)
    yield "repeated", rand.layout, np.array([4, 4, 0, 20, 4, 0])
    yield "empty", rand.layout, np.array([], dtype=np.int64)


def test_entries_equal_scipy_row_indexing():
    for name, layout, rows in gather_cases():
        got, want = layout.entries(rows), as_scipy(layout.trans)[rows]
        for a, b in zip(got, (np.diff(want.indptr), want.indices, want.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def reference_super_lu(block, gamma):
    """SuperLU of I - gamma*B as scipy's matrix arithmetic builds it."""
    k = block.shape[0]
    indptr = np.zeros(k + 1, dtype=block.cols.dtype)
    np.cumsum(np.bincount(block.rows, minlength=k), out=indptr[1:])
    S = sp.csr_matrix((block.probs, block.cols, indptr), shape=(k, k))
    return spla.splu(sp.identity(k, format="csc") - gamma * S.tocsc())


@st.composite
def sparse_blocks(draw):
    """A block's entries in row order: repeated cells, diagonal entries and
    zero probabilities included."""
    k = draw(st.integers(1, 12))
    m = draw(st.integers(0, 3 * k))
    rows = np.sort(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    cols = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    probs = draw(st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 0.7, 0.25]) | st.floats(0, 0.3),
                          min_size=m, max_size=m))
    return sg.exact._Entries(rows.astype(np.int64), np.array(cols, dtype=np.int64),
                             np.array(probs, dtype=np.float64), k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_blocks(), st.sampled_from([0.5, 0.9, 1 - 1e-6]))
def test_super_lu_factors_the_matrix_scipy_builds(block, gamma):
    got, want = sg.exact._super_lu(block, gamma), reference_super_lu(block, gamma)
    assert np.array_equal(got.perm_r, want.perm_r) and np.array_equal(got.perm_c, want.perm_c)
    for a, b in ((got.L, want.L), (got.U, want.U)):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_super_lu_keys_the_cells_of_a_wide_block_in_int64():
    # scipy holds a small table's columns as int32: a key col * k + row
    # past 2**31 must not wrap
    k = 50_000
    block = sg.exact._Entries(np.array([0, k - 1], dtype=np.int64),
                              np.array([k - 1, k - 2], dtype=np.int32), np.array([0.5, 0.5]), k)
    got, want = sg.exact._super_lu(block, 0.9), reference_super_lu(block, 0.9)
    for a, b in ((got.L, want.L), (got.U, want.U)):
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data)
