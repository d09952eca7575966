"""Generative-model facade: determinism, exactness, accounting."""

import threading

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from sg.game import Action, InputError, MAX_PLAYER, MIN_PLAYER, make_game
from sg.generate import random_game
from sg.sampler import BLOCK_TABLE_MIN, GenerativeModel


def point_mass_game():
    acts = [
        [Action(reward=0.1, next_states=np.array([1]), probs=np.array([1.0]))],
        [Action(reward=0.2, next_states=np.array([0]), probs=np.array([1.0])),
         Action(reward=0.3, next_states=np.array([1]), probs=np.array([1.0]))],
    ]
    return make_game(0.9, [MIN_PLAYER, MAX_PLAYER], acts)


def uniform_game(n=4):
    return make_game(0.9, [MAX_PLAYER] * n,
                     [[Action(reward=0.0, uniform=True)] for _ in range(n)])


def test_point_mass_rows_sample_deterministically():
    model = GenerativeModel(point_mass_game(), master_seed=0)
    assert all(model.sample_transition(0, 0) == 1 for _ in range(20))
    assert all(model.sample_transition(1, 0) == 0 for _ in range(20))


def test_same_seed_reproduces_sequences():
    g = random_game(5, 2, 0.9, seed=1)
    a = GenerativeModel(g, master_seed=42)
    b = GenerativeModel(g, master_seed=42)
    seq_a = [a.sample_transition(2, 1) for _ in range(50)]
    seq_b = [b.sample_transition(2, 1) for _ in range(50)]
    assert seq_a == seq_b
    # batches drawn after the same call history also agree
    v = np.arange(5, dtype=float)
    ea = a.estimate_mean_and_var(v, 100)
    eb = b.estimate_mean_and_var(v, 100)
    np.testing.assert_array_equal(ea.mean, eb.mean)
    np.testing.assert_array_equal(ea.variance, eb.variance)


def test_different_seeds_differ():
    g = random_game(5, 2, 0.9, seed=1)
    a = GenerativeModel(g, master_seed=1)
    b = GenerativeModel(g, master_seed=2)
    assert [a.sample_transition(0, 0) for _ in range(30)] != \
           [b.sample_transition(0, 0) for _ in range(30)]


def test_uniform_row_frequencies():
    model = GenerativeModel(uniform_game(4), master_seed=7)
    draws = np.array([model.sample_transition(0, 0) for _ in range(20000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - 0.25).max() < 0.01


def test_mean_and_var_exact_on_point_mass():
    model = GenerativeModel(point_mass_game(), master_seed=3)
    v = np.array([2.0, 5.0])
    est = model.estimate_mean_and_var(v, 17)
    np.testing.assert_array_equal(est.mean, [5.0, 2.0, 5.0])
    np.testing.assert_array_equal(est.variance, [0.0, 0.0, 0.0])


def test_mean_and_var_constant_vector():
    g = random_game(6, 2, 0.9, seed=4)
    model = GenerativeModel(g, master_seed=5)
    est = model.estimate_mean_and_var(np.full(6, 3.25), 40)
    np.testing.assert_allclose(est.mean, 3.25, atol=1e-12)
    np.testing.assert_allclose(est.variance, 0.0, atol=1e-12)


def test_mean_within_value_range():
    g = random_game(8, 3, 0.9, seed=6)
    model = GenerativeModel(g, master_seed=7)
    v = np.random.default_rng(0).uniform(-3, 9, size=8)
    est = model.estimate_mean_and_var(v, 25)
    assert (est.mean >= v.min() - 1e-12).all()
    assert (est.mean <= v.max() + 1e-12).all()
    assert (est.variance >= 0).all()


def test_indicator_mean_on_uniform_row():
    model = GenerativeModel(uniform_game(4), master_seed=11)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    m = 100_000
    est = model.estimate_mean_and_var(v, m)
    # Bernoulli(1/4): three-sigma band around the true mean
    se = np.sqrt(0.25 * 0.75 / m)
    assert abs(est.mean[0] - 0.25) < 3 * se


def test_diff_mean_zero_when_equal():
    g = random_game(5, 2, 0.9, seed=8)
    model = GenerativeModel(g, master_seed=9)
    v = np.random.default_rng(1).normal(size=5)
    est = model.estimate_diff_mean(v, v, 50)
    np.testing.assert_array_equal(est.mean, 0.0)


def test_diff_mean_exact_on_point_mass():
    model = GenerativeModel(point_mass_game(), master_seed=10)
    v = np.array([1.0, 4.0])
    v0 = np.array([0.5, 1.0])
    est = model.estimate_diff_mean(v, v0, 9)
    np.testing.assert_array_equal(est.mean, [3.0, 0.5, 3.0])


def test_diff_mean_hull_bound():
    g = random_game(6, 3, 0.9, seed=11)
    model = GenerativeModel(g, master_seed=12)
    v0 = np.random.default_rng(2).uniform(0, 10, size=6)
    v = v0 + np.random.default_rng(3).uniform(-0.5, 0.5, size=6)
    est = model.estimate_diff_mean(v, v0, 30)
    u = np.abs(v - v0).max()
    assert (np.abs(est.mean) <= u + 1e-12).all()


def test_sample_counters():
    g = random_game(3, 1, 0.9, seed=13)  # 3 pairs
    model = GenerativeModel(g, master_seed=14)
    total, table = model.sample_count()
    assert total == 0 and table.sum() == 0
    model.estimate_mean_and_var(np.zeros(3), 7)
    total, table = model.sample_count()
    assert total == 21
    assert np.array_equal(table, [7, 7, 7])
    model.sample_transition(0, 0)
    total, table = model.sample_count()
    assert total == 22 and table[0] == 8
    # estimates do not mutate the counters
    before, _ = model.sample_count()
    v = np.zeros(3)
    model.estimate_diff_mean(v, v, 5)
    after, _ = model.sample_count()
    assert after - before == 15


def test_unbiased_over_seeds():
    g = random_game(4, 2, 0.9, seed=15)
    v = np.random.default_rng(4).uniform(0, 10, size=4)
    exact = g.layout.p_dot(v)
    m, n_seeds = 64, 300
    means = np.zeros(g.n_pairs)
    for seed in range(n_seeds):
        model = GenerativeModel(g, master_seed=seed)
        means += model.estimate_mean_and_var(v, m).mean
    means /= n_seeds
    row_var = np.maximum(g.layout.p_dot(v * v) - exact ** 2, 0.0)
    se = np.sqrt(row_var / (m * n_seeds))
    assert (np.abs(means - exact) <= 3.5 * se + 1e-9).all()


def test_invalid_pairs_and_batches_rejected():
    model = GenerativeModel(point_mass_game(), master_seed=16)
    with pytest.raises(ValueError):
        model.sample_transition(0, 1)
    with pytest.raises(ValueError):
        model.sample_transition(5, 0)
    with pytest.raises(ValueError):
        model.estimate_mean_and_var(np.zeros(2), 0)


def test_mirrored_model_shares_shape_but_not_counters():
    g = random_game(5, 2, 0.9, seed=17)
    model = GenerativeModel(g, master_seed=18)
    model.estimate_mean_and_var(np.zeros(5), 5)
    m2 = model.mirrored()
    assert m2.sample_count()[0] == 0
    np.testing.assert_allclose(m2.rewards, 1.0 - model.rewards)
    assert np.array_equal(m2.space.pair_sign, -model.space.pair_sign)


def mixed_row_game(n=6, seed=19, most_actions=3):
    """Uniform and sparse rows side by side; sparse targets sorted and unique."""
    rng = np.random.default_rng(seed)
    actions = []
    for s in range(n):
        acts = []
        for a in range(1 + s % most_actions):
            if (s + a) % 3 == 0:
                acts.append(Action(reward=0.5, uniform=True))
            else:
                support = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                             replace=False))
                acts.append(Action(reward=0.5, next_states=support,
                                   probs=rng.dirichlet(np.ones(support.size))))
        actions.append(acts)
    return make_game(0.9, [MIN_PLAYER, MAX_PLAYER] * (n // 2), actions)


def reference_rows(game):
    """Each pair's ``(support, probs)`` read off the game's actions."""
    n = game.n_states
    return [(np.arange(n), np.full(n, 1.0 / n)) if act.uniform
            else (act.next_states, act.probs / act.probs.sum())
            for acts in game.actions for act in acts]


def padded_rows(game):
    """Reference row table: every row padded to the widest with probability
    0, repeating its last real target."""
    rows = reference_rows(game)
    width = max(support.size for support, _ in rows)
    support = np.array([np.pad(sup, (0, width - sup.size), mode="edge") for sup, _ in rows])
    probs = np.array([np.pad(p, (0, width - p.size)) for _, p in rows])
    return support, probs


def two_block_game():
    """Mixed rows whose 210 x 20 table is at least BLOCK_TABLE_MIN entries."""
    g = mixed_row_game(n=20, seed=41, most_actions=20)
    assert g.layout.row_table()[1].size >= BLOCK_TABLE_MIN
    assert g.layout.uniform_mask.any() and not g.layout.uniform_mask.all()
    return g


def test_acceptance_size_keeps_one_block():
    # the acceptance gate's 20 x 4 games have an 80 x 20 table, under half the crossover
    assert random_game(20, 4, 0.9, seed=0).layout.row_table()[1].size * 2 < BLOCK_TABLE_MIN
    assert mixed_row_game().layout.row_table()[1].size < BLOCK_TABLE_MIN


def model_and_salt(game, master_seed, mirrored):
    model = GenerativeModel(game, master_seed=master_seed)
    return (model.mirrored(), 1) if mirrored else (model, 0)


@pytest.mark.parametrize("mirrored", [False, True])
def test_batches_follow_per_pair_multinomial_reference(mirrored):
    """Bit-exact: a batch is a row-by-row multinomial loop, in pair order, on
    the model's single generator."""
    g = mixed_row_game()
    assert g.layout.uniform_mask.any() and not g.layout.uniform_mask.all()
    master_seed, n = 23, g.n_states
    model, salt = model_and_salt(g, master_seed, mirrored)
    support, probs = padded_rows(g)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(salt,))))

    # integer values make every sum exact, so the check does not depend on
    # the order in which the model reduces the counts
    values = np.random.default_rng(0)
    v, v0 = values.integers(0, 10, size=n) * 1.0, values.integers(0, 10, size=n) * 1.0
    calls = [("var", 40), ("diff", 7), ("var", 3), ("diff", 1)]
    for kind, m in calls:
        mean = np.empty(g.n_pairs)
        var = np.empty(g.n_pairs)
        for pair in range(g.n_pairs):
            counts = rng.multinomial(m, probs[pair])
            if kind == "var":
                mean[pair] = counts @ v[support[pair]] / m
                var[pair] = max(counts @ (v * v)[support[pair]] / m - mean[pair] ** 2, 0.0)
            else:
                mean[pair] = counts @ (v - v0)[support[pair]] / m
        if kind == "var":
            est = model.estimate_mean_and_var(v, m)
            np.testing.assert_array_equal(est.variance, var)
        else:
            est = model.estimate_diff_mean(v, v0, m)
        np.testing.assert_array_equal(est.mean, mean)
    total, table = model.sample_count()
    assert np.array_equal(table, np.full(g.n_pairs, sum(m for _, m in calls)))
    assert total == table.sum()


def batch_counts(model, m, n):
    """Next-state counts of one batch, per pair, read off a single estimate:
    with v(s) = (m + 1)^s the scaled mean is a base-(m + 1) number whose
    digits are the counts (exact while (m + 1)^n stays below 2^53)."""
    base = m + 1
    code = np.rint(model.estimate_diff_mean(base ** np.arange(n) * 1.0, np.zeros(n), m).mean * m)
    return (code.astype(np.int64)[:, None] // base ** np.arange(n)) % base


@pytest.mark.parametrize("mirrored", [False, True])
def test_batches_match_per_pair_substream_oracle_in_distribution(mirrored):
    """The former sampler, one generator per pair, is kept as an oracle:
    pooled counts agree in distribution, accounting exactly, on a one-block
    and on a two-block table. The oracle's keys (salt, 2 + pair) are clear of
    the model's block keys (salt, 0) and (salt, 1), so every pair is compared
    against an independent sample."""
    for g in (mixed_row_game(), two_block_game()):
        master_seed, n, m, batches = 29, g.n_states, 5, 400
        model, salt = model_and_salt(g, master_seed, mirrored)
        rows = reference_rows(g)
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=master_seed, spawn_key=(salt, 2 + pair)))) for pair in range(g.n_pairs)]

        pooled = np.zeros((g.n_pairs, n), dtype=np.int64)
        oracle = np.zeros((g.n_pairs, n), dtype=np.int64)
        for _ in range(batches):
            counts = batch_counts(model, m, n)
            assert (counts.sum(axis=1) == m).all()
            pooled += counts
            for pair, ((support, probs), rng) in enumerate(zip(rows, rngs)):
                np.add.at(oracle[pair], support, rng.multinomial(m, probs))
        # 1e-3 per pair on the 12-pair game; the same family-wise rate on more pairs
        alpha = 1e-3 * 12 / g.n_pairs
        for pair in range(g.n_pairs):
            seen = (pooled[pair] + oracle[pair]) > 0
            if seen.sum() > 1:
                p = chi2_contingency(np.stack([pooled[pair, seen], oracle[pair, seen]])).pvalue
                assert p > alpha, (pair, pooled[pair], oracle[pair])
        total, table = model.sample_count()
        assert np.array_equal(table, np.full(g.n_pairs, batches * m))
        assert total == oracle.sum()


def test_padding_never_draws_outside_the_support():
    """Rows of every width share one padded table; with v the indicator of a
    pair's non-support states, that pair's estimate is exactly 0."""
    g = mixed_row_game(n=8, seed=31)
    support, probs = g.layout.row_table()
    widths = {int(w) for w in np.diff(g.layout.trans.indptr)[~g.layout.uniform_mask]}
    assert len(widths) > 2 and support.shape == (g.n_pairs, g.n_states)
    np.testing.assert_array_equal(support, padded_rows(g)[0])
    model = GenerativeModel(g, master_seed=37)
    zero = np.zeros(g.n_states)
    for pair, row in enumerate(support):
        outside = np.ones(g.n_states)
        outside[row[probs[pair] > 0]] = 0.0
        for _ in range(3):
            assert model.estimate_diff_mean(outside, zero, 10_000).mean[pair] == 0.0


@pytest.mark.parametrize("mirrored", [False, True])
def test_two_block_batches_follow_block_serial_reference(mirrored):
    """Bit-exact: a wide table's batch is one multinomial call per block of
    contiguous pairs, block 0 then block 1, each on its generator keyed
    (salt, block); a single draw uses its pair's block."""
    g = two_block_game()
    master_seed, n, cut = 43, g.n_states, g.n_pairs // 2
    model, salt = model_and_salt(g, master_seed, mirrored)
    support, probs = padded_rows(g)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(salt, b)))) for b in range(2)]
    values = np.random.default_rng(1)
    v, v0 = values.integers(0, 10, size=n) * 1.0, values.integers(0, 10, size=n) * 1.0
    late = g.n_pairs - 1  # a block-1 pair
    state = int(np.searchsorted(g.space.state_offset, late, side="right")) - 1
    action = late - int(g.space.state_offset[state])

    calls = [("var", 40), ("single", 3), ("diff", 7), ("single", 1), ("var", 1)]
    for kind, m in calls:
        if kind == "single":
            for _ in range(m):
                want = support[late, rngs[1].multinomial(1, probs[late]).argmax()]
                assert model.sample_transition(state, action) == want
            continue
        counts = np.concatenate((rngs[0].multinomial(m, probs[:cut]),
                                 rngs[1].multinomial(m, probs[cut:])))
        if kind == "var":
            mean = np.vecdot(v[support], counts) / m
            est = model.estimate_mean_and_var(v, m)
            var = np.maximum(np.vecdot((v * v)[support], counts) / m - mean ** 2, 0.0)
            np.testing.assert_array_equal(est.variance, var)
        else:
            mean = np.vecdot((v - v0)[support], counts) / m
            est = model.estimate_diff_mean(v, v0, m)
        np.testing.assert_array_equal(est.mean, mean)
    total, table = model.sample_count()
    want = np.full(g.n_pairs, 48)
    want[late] += 4
    assert np.array_equal(table, want) and total == want.sum()


class FailingDraws:
    def multinomial(self, *args):
        raise RuntimeError("draw failed")


@pytest.mark.parametrize("block", [0, 1])
def test_a_failed_block_draw_is_raised_on_the_caller_and_leaves_no_thread(monkeypatch,
                                                                         block):
    model = GenerativeModel(two_block_game(), master_seed=53)
    v = np.zeros(model.n_states)
    before = threading.active_count()
    model.estimate_diff_mean(v, v, 5)
    assert threading.active_count() == before
    rngs = list(model._rngs)
    rngs[block] = FailingDraws()
    monkeypatch.setattr(model, "_rngs", rngs)
    with pytest.raises(RuntimeError, match="draw failed"):
        model.estimate_diff_mean(v, v, 5)
    assert threading.active_count() == before
    total, table = model.sample_count()
    assert total == 5 * model.n_pairs and (table == 5).all()


def next_batch(model):
    return model.estimate_diff_mean(np.arange(model.n_states) * 1.0,
                                    np.zeros(model.n_states), 9).mean


@pytest.mark.parametrize("make_game_", [mixed_row_game, two_block_game],
                         ids=["one_block", "two_blocks"])
@pytest.mark.parametrize("m", [True, 2.5, np.float64(3), 0, -1, "3", None])
def test_bad_batch_sizes_are_refused_before_any_draw(make_game_, m):
    g = make_game_()
    model, fresh = GenerativeModel(g, master_seed=59), GenerativeModel(g, master_seed=59)
    v = np.zeros(g.n_states)
    with pytest.raises(InputError, match="batch size"):
        model.estimate_diff_mean(v, v, m)
    with pytest.raises(InputError, match="batch size"):
        model.estimate_mean_and_var(v, m)
    assert model.sample_count()[0] == 0
    np.testing.assert_array_equal(next_batch(model), next_batch(fresh))


@pytest.mark.parametrize("state, action", [(True, 0), (0.0, 0), (0, False),
                                           (np.float64(1), 0), (1, 0.0), (-1, 0)])
def test_non_integer_pairs_are_refused(state, action):
    model = GenerativeModel(point_mass_game(), master_seed=61)
    with pytest.raises(InputError):
        model.sample_transition(state, action)
    with pytest.raises(InputError):
        model.space.pair_index(state, action)
    assert model.sample_count()[0] == 0
    assert model.sample_transition(np.int64(1), np.int32(1)) == 1


def test_draw_counters_refuse_overflow_and_total_exactly():
    model = GenerativeModel(random_game(4, 2, 0.9, seed=67), master_seed=71)  # 8 pairs
    v = np.zeros(4)
    model.estimate_diff_mean(v, v, 2 ** 62)
    total, table = model.sample_count()
    assert total == 8 * 2 ** 62 and (table == 2 ** 62).all()
    with pytest.raises(InputError, match="draw counter"):
        model.estimate_diff_mean(v, v, 2 ** 62)
    model.estimate_diff_mean(v, v, 2 ** 62 - 1)
    assert model.sample_count()[0] == 8 * (2 ** 63 - 1)
    with pytest.raises(InputError, match="draw counter"):
        model.sample_transition(0, 0)
    with pytest.raises(InputError, match="draw counter"):
        model.estimate_diff_mean(v, v, 2 ** 70)
    total, table = model.sample_count()
    assert total == 8 * (2 ** 63 - 1) and (table == 2 ** 63 - 1).all()
