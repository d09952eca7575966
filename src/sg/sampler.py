"""Generative-model facade: sampling-only access to a game's transitions.

Solvers in the learning setting receive only this object. They can read the
game's shape (owners, action counts, rewards, discount) but never the
transition probabilities; the only access to the transition law is drawing
next-state samples. Draws come from generators seeded by the master seed and
the model's salt, so the same seed and the same sequence of calls give the
same results on any machine.

A batch draws the multinomial next-state counts of every pair, row by row in
pair order, which is distributed exactly as averaging the same number of
independent single draws but costs O(support) instead of O(batch). Rows come
from the game's chain view as one padded, normalised table, so the sampler
never looks at how the game stores them.

A table of fewer than :data:`BLOCK_TABLE_MIN` entries (rows x padded width)
is one block: one generator, keyed ``(salt,)``, draws the whole batch in one
call. A wider table is split into two contiguous blocks of pairs, each with
its own generator keyed ``(salt, b)``; a batch draws block 1 on a short-lived
thread while the caller draws block 0 (numpy's multinomial releases the GIL),
so one chain uses two cores. The block count depends on the table's shape
only, never on the machine. A single draw is a one-sample batch on its pair's
row, from its pair's block generator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .game import ActionSpace, InputError, StochasticGame, check_int, mirror

# Smallest row table (pairs x padded width) drawn in two blocks on two
# threads. From two sweeps on 2 cores (BENCH_26.json): with batches of 10^3
# draws, nearly every call of a solve, two blocks with a thread started per
# batch took 1.09-1.10x the time of one call at 1,600 entries (the acceptance
# size's 80 x 20), 0.92-0.96x at 2,400-2,500 and 0.64-0.86x from 4,000 up
# (0.64-0.65x at qvi-wide's 400 x 100). The one 10^5-draw batch of a run
# breaks even later, at 4,000-4,800 entries.
BLOCK_TABLE_MIN = 4096
# Largest per-pair draw counter; a batch that would pass it is refused.
MAX_DRAWS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class BatchEstimate:
    """Per-pair empirical means (and optionally variances) from one batch."""

    mean: np.ndarray              # (n_pairs,)
    variance: np.ndarray | None   # (n_pairs,) or None for plain-mean batches


class GenerativeModel:
    """Sampling oracle over a fixed game: one seeded generator per block of
    pairs, one block unless the row table has :data:`BLOCK_TABLE_MIN`
    entries."""

    def __init__(self, game: StochasticGame, master_seed: int, _salt: int = 0):
        self._game = game
        self.master_seed = check_int(master_seed, "master_seed", 0)
        self._salt = int(_salt)
        self._support, self._probs = game.layout.row_table()
        if self._probs.size < BLOCK_TABLE_MIN:
            keys, self._cut = [(self._salt,)], self.n_pairs
        else:
            keys, self._cut = [(self._salt, 0), (self._salt, 1)], self.n_pairs // 2
        self._rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=key))) for key in keys]
        self._draws = np.zeros(self.n_pairs, dtype=np.int64)
        self._most = 0  # the largest entry of _draws, kept off the batch path

    # -- public structure (no transition data) ---------------------------

    @property
    def space(self) -> ActionSpace:
        return self._game.space

    @property
    def gamma(self) -> float:
        return self._game.gamma

    @property
    def n_states(self) -> int:
        return self.space.n_states

    @property
    def n_pairs(self) -> int:
        return self.space.n_pairs

    @property
    def rewards(self) -> np.ndarray:
        return self.space.rewards

    def mirrored(self) -> "GenerativeModel":
        """Facade over the role-swapped game, with its own counters/stream."""
        return GenerativeModel(mirror(self._game), self.master_seed,
                               _salt=self._salt + 1)

    # -- sampling ---------------------------------------------------------

    def _batch_means(self, m: int, *xs: np.ndarray) -> np.ndarray:
        """Per-pair means of each ``x(s')`` over one fresh m-sample batch.

        Returns an array of shape (len(xs), n_pairs). ``m`` is checked
        before any draw, so a refused batch moves no generator or counter.
        """
        m = check_int(m, "batch size", 1)
        self._check_room(m, self._most)
        if len(self._rngs) == 1:
            counts = self._rngs[0].multinomial(m, self._probs)
        else:
            counts = self._block_counts(m)
        self._draws += m
        self._most += m
        return np.vecdot(np.stack(xs)[:, self._support], counts) / m

    def _block_counts(self, m: int) -> np.ndarray:
        """Counts of both blocks, block 0 drawn on the caller's thread and
        block 1 on a worker. The worker is joined before this returns or
        raises, and its error is raised here."""
        head, tail = self._probs[:self._cut], self._probs[self._cut:]
        drawn = []

        def draw_tail():
            try:
                drawn.append(self._rngs[1].multinomial(m, tail))
            except BaseException as err:  # handed to the caller
                drawn.append(err)

        worker = threading.Thread(target=draw_tail)
        worker.start()
        try:
            head = self._rngs[0].multinomial(m, head)
        finally:
            worker.join()
        if isinstance(drawn[0], BaseException):
            raise drawn[0]
        return np.concatenate((head, drawn[0]))

    @staticmethod
    def _check_room(m: int, drawn: int) -> None:
        """Refuse ``m`` more draws on a pair that has ``drawn``: its int64
        counter would wrap."""
        if m > MAX_DRAWS - drawn:
            raise InputError(f"batch size {m} would carry a pair's draw counter "
                             f"past {MAX_DRAWS}")

    def sample_transition(self, state: int, action: int) -> int:
        """One next-state draw from P(. | state, action): a one-sample batch
        on the generator of the pair's block."""
        pair = self.space.pair_index(state, action)
        self._check_room(1, int(self._draws[pair]))
        rng = self._rngs[0] if pair < self._cut else self._rngs[1]
        col = rng.multinomial(1, self._probs[pair]).argmax()
        self._draws[pair] += 1
        self._most = max(self._most, int(self._draws[pair]))
        return int(self._support[pair, col])

    def estimate_mean_and_var(self, v: np.ndarray, m: int) -> BatchEstimate:
        """Empirical mean and variance of v(s') per pair from m fresh draws."""
        v = self.space.value_vector(v)
        mean, second = self._batch_means(m, v, v * v)
        return BatchEstimate(mean=mean, variance=np.maximum(second - mean * mean, 0.0))

    def estimate_diff_mean(self, v: np.ndarray, v0: np.ndarray, m: int) -> BatchEstimate:
        """Empirical mean of v(s') - v0(s') per pair from m fresh draws."""
        v, v0 = self.space.value_vector(v), self.space.value_vector(v0)
        return BatchEstimate(mean=self._batch_means(m, v - v0)[0], variance=None)

    # -- accounting --------------------------------------------------------

    def sample_count(self) -> tuple[int, np.ndarray]:
        """Total draws, summed exactly in Python ints, and the per-pair draw
        table (a copy)."""
        return sum(self._draws.tolist()), self._draws.copy()
