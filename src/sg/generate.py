"""Seeded random game generators used by tests and the experiment harness."""

from __future__ import annotations

import numpy as np

from .game import (Action, InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame, frozen,
                   make_game)


def random_game(n_states: int, n_actions: int, gamma: float, seed: int,
                deterministic: bool = False,
                owners: str = "split") -> StochasticGame:
    """Random game with rewards uniform on [0, 1] and dense Dirichlet rows.

    ``owners`` is "split" (random half/half), "min" or "max" (single-player
    MDP). ``deterministic=True`` replaces every row by a point mass, which
    makes sampling noise-free. Dense rows keep every strategy's chain
    irreducible and aperiodic, so stationary distributions always exist.
    """
    rng = np.random.default_rng(seed)
    if owners == "split":
        tags = np.array([MIN_PLAYER, MAX_PLAYER] * ((n_states + 1) // 2))[:n_states]
        rng.shuffle(tags)
    elif owners == "min":
        tags = np.full(n_states, MIN_PLAYER)
    elif owners == "max":
        tags = np.full(n_states, MAX_PLAYER)
    else:
        raise InputError(f"unknown owners spec {owners!r}")

    all_states = frozen(np.arange(n_states), np.int64)  # one read-only row for every action
    actions = []
    for _ in range(n_states):
        acts = []
        for _ in range(n_actions):
            reward = float(rng.uniform(0.0, 1.0))
            if deterministic:
                target = np.array([rng.integers(n_states)], dtype=np.int64)
                acts.append(Action(reward=reward, next_states=target,
                                   probs=np.array([1.0])))
            else:
                probs = rng.dirichlet(np.ones(n_states))
                acts.append(Action(reward=reward, next_states=all_states,
                                   probs=probs))
        actions.append(acts)
    return make_game(gamma, tags, actions)


def clustered_game(n_states: int, n_actions: int, gamma: float, seed: int) -> StochasticGame:
    """Two weakly coupled clusters with low and high rewards.

    The value function spreads across almost the whole [0, 1/(1-gamma)]
    range, so the variance-of-value vector is large; used by the
    sample-error scaling experiment where that variance must dominate.
    """
    rng = np.random.default_rng(seed)
    stickiness = 0.9  # share of each row's mass kept in its own cluster
    half = n_states // 2
    cluster = np.arange(n_states) < half
    all_states = frozen(np.arange(n_states), np.int64)
    tags = np.array([MIN_PLAYER, MAX_PLAYER] * ((n_states + 1) // 2))[:n_states]
    rng.shuffle(tags)
    actions = []
    for s in range(n_states):
        own = cluster == cluster[s]
        base = np.where(own, stickiness / own.sum(), (1 - stickiness) / (~own).sum())
        acts = []
        for _ in range(n_actions):
            jitter = rng.dirichlet(np.ones(n_states)) * 0.05
            probs = base * 0.95 + jitter
            probs = probs / probs.sum()
            reward = float(rng.uniform(0.0, 0.1) if cluster[s] else rng.uniform(0.9, 1.0))
            acts.append(Action(reward=reward, next_states=all_states, probs=probs))
        actions.append(acts)
    return make_game(gamma, tags, actions)
