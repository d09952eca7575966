"""Generative-model facade: sampling-only access to a game's transitions.

Solvers in the learning setting receive only this object. They can read the
game's shape (owners, action counts, rewards, discount) but never the
transition probabilities; the only access to the transition law is drawing
next-state samples. Each model draws from one generator seeded by the master
seed and its salt, so the same seed and the same sequence of calls give the
same results.

A batch draws the multinomial next-state counts of every pair in one call,
row by row in pair order, which is distributed exactly as averaging the same
number of independent single draws but costs O(support) instead of O(batch).
A single draw is a one-sample batch on one row of the same generator. Rows
come from the game's chain view as one padded, normalised table, so the
sampler never looks at how the game stores them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import ActionSpace, InputError, StochasticGame, mirror


@dataclass(frozen=True)
class BatchEstimate:
    """Per-pair empirical means (and optionally variances) from one batch."""

    mean: np.ndarray              # (n_pairs,)
    variance: np.ndarray | None   # (n_pairs,) or None for plain-mean batches


class GenerativeModel:
    """Sampling oracle over a fixed game with one seeded generator."""

    def __init__(self, game: StochasticGame, master_seed: int, _salt: int = 0):
        if not isinstance(master_seed, (int, np.integer)):
            raise InputError("master_seed must be an integer")
        self._game = game
        self._layout = game.layout
        self.master_seed = int(master_seed)
        self._salt = int(_salt)
        self._support, self._probs = self._layout.row_table()
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self._salt,))))
        self._draws = np.zeros(self.n_pairs, dtype=np.int64)

    # -- public structure (no transition data) ---------------------------

    @property
    def space(self) -> ActionSpace:
        return self._layout.space

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

        Returns an array of shape (len(xs), n_pairs).
        """
        if m < 1:
            raise InputError("batch size must be >= 1")
        counts = self._rng.multinomial(m, self._probs)
        self._draws += m
        return np.vecdot(np.stack(xs)[:, self._support], counts) / m

    def sample_transition(self, state: int, action: int) -> int:
        """One next-state draw from P(. | state, action): a one-sample batch."""
        pair = self.space.pair_index(state, action)
        self._draws[pair] += 1
        col = self._rng.multinomial(1, self._probs[pair]).argmax()
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
        """Total draws and the per-pair draw table (a copy)."""
        return int(self._draws.sum()), self._draws.copy()
