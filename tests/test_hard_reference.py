"""Differential oracle for the strategy-iteration path verifier.

``reference_probe`` is the full-grid probe that ``check_si_transitions`` ran
before the run verified its own path: one evaluate-and-improve sweep from
every rebuild, climb and min-update cell of the grid. ``reference_verify``
is ``verify_si_path_hi2`` around that probe. On every reward config the
verifier must reach the reference's verdict, report a subset of its
violations, and drop only moves that lie on the predicted path.
"""

import itertools

import numpy as np

from sg.checks import CheckReport, Violation
from sg.exact import evaluate, improve, strategy_iteration
from sg.game import MAX_PLAYER, MIN_PLAYER
from sg.hard import (Hi2Config, build_hi2, default_hi2_rewards, expected_si_path,
                     si_single_flip_count, verify_si_path_hi2)


def reference_probe(game, meta):
    """Every predicted move of the grid, each from its own sweep."""
    def step(sigma, improvable):
        return improve(game, evaluate(game, sigma), sigma, improvable)[0]

    s_prime = meta.s_prime
    max_states = game.owners == MAX_PLAYER
    min_states = game.owners == MIN_PLAYER
    violations = []
    for i in range(0, s_prime):
        for z in range(0, s_prime + 1):
            if i >= 1 and not np.array_equal(step(meta.joint(i, i, z), max_states),
                                             meta.joint(i, i + 1, 0)):
                violations.append(Violation("si-rebuild", (i, z), 0.0, 1.0, 0.0))
            if z < s_prime and not np.array_equal(step(meta.joint(i, i + 1, z), max_states),
                                                  meta.joint(i, i + 1, z + 1)):
                violations.append(Violation("si-climb", (i, z), 0.0, 1.0, 0.0))
        if not np.array_equal(step(meta.joint(i, i + 1, s_prime), min_states),
                              meta.joint(i + 1, i + 1, s_prime)):
            violations.append(Violation("si-min-update", (i,), 0.0, 1.0, 0.0))
    return violations


def reference_verify(T, config):
    game, meta = build_hi2(T, config)
    violations = []
    rs = config.switch_rewards
    for k, (r1, r2) in enumerate(zip(rs, rs[1:])):
        if r2 > r1 + 1e-12:
            violations.append(Violation("si-config:reward-order", (k,), r2, r1, r2 - r1))
    for k, r in enumerate(rs):
        if not (0.0 < r < config.r_goal):
            violations.append(Violation("si-config:reward-range", (k,), r, config.r_goal, 0.0))
    violations += reference_probe(game, meta)

    sigma0 = meta.joint(0, 1, 0)
    _, trace = strategy_iteration(game, sigma0)
    path = expected_si_path(meta)
    visited, current = [sigma0.copy()], sigma0.copy()
    for ch in trace.changes:
        if ch:
            for s, _, new in ch:
                current[s] = new
            visited.append(current.copy())
    described = [meta.describe(s) for s in visited]
    main = described[:len(path)]
    if main != path:
        first_bad = next((k for k, (got, want) in enumerate(zip(main, path))
                          if got != want), len(main))
        violations.append(Violation("si-path:sequence", (first_bad,), 0.0, 1.0, 0.0))
    for k in range(len(path), len(visited)):
        if described[k] is None or described[k][0] != meta.s_prime:
            violations.append(Violation("si-path:tail", (k,), 0.0, 1.0, 0.0))
    flips, s_prime = si_single_flip_count(trace), meta.s_prime
    lo, hi = s_prime * (s_prime - 1), s_prime * (s_prime + 2)
    if not (lo <= flips <= hi):
        violations.append(Violation("si-path:count", (), float(flips), float(lo), float(hi)))
    return CheckReport(violations)


def on_path(key, s_prime):
    """Moves the strategy-iteration run makes itself when it follows the path."""
    prop, index = key
    return prop in ("si-climb", "si-min-update") or (prop == "si-rebuild" and index[1] == s_prime)


def keys(report):
    return [(v.prop, tuple(v.index)) for v in report.violations]


def vary(config, **changes):
    return Hi2Config(**{**config.to_json_dict(), **changes})


# Far from the default regime (every one of them fails), near the default at
# T = 400 (both verdicts, including configs whose only failure is off the
# path), and S' = 5 at T = 2500.
FAR = [
    Hi2Config(T=400, s_prime=2, s_b=10, s_b_prime=16, switch_rewards=rewards, r_goal=r_goal,
              r_delta=r_delta, r_delta_prime=r_delta_prime, gamma=gamma)
    for rewards, gamma, r_delta, r_delta_prime, r_goal in itertools.product(
        [(0.55, 0.75), (0.9, 0.1), (0.95, 0.95), (0.05, 0.05)], [0.5, 0.9],
        [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.1, 0.5, 2.0])
][::9]
NEAR = [vary(default_hi2_rewards(400), switch_rewards=rewards, r_delta=r_delta,
             r_delta_prime=r_delta_prime, r_goal=r_goal)
        for rewards, r_delta, r_delta_prime, r_goal in itertools.product(
            [(0.65, 0.65), (0.3, 0.3), (0.9, 0.9)], [0.0, 0.025, 0.1], [0.0, 0.025, 0.1],
            [0.5, 1.0, 2.0])]
WIDE = [vary(default_hi2_rewards(2500), **changes) for changes in (
    {}, {"r_delta": 0.0}, {"r_goal": 2.0}, {"switch_rewards": (0.7, 0.6, 0.6, 0.5, 0.3)})]


def test_the_verifier_reaches_the_full_grid_verdict_on_every_config():
    failing = dropping = off_path_only = 0
    for config in FAR + NEAR + WIDE:
        reference = reference_verify(config.T, config)
        _, report = verify_si_path_hi2(config.T, config)
        got, want = keys(report), keys(reference)
        dropped = [k for k in want if k not in got]
        assert report.passed == reference.passed, config
        assert set(got) <= set(want), config
        assert all(on_path(k, config.s_prime) for k in dropped), (config, dropped)
        # and in the reference's order: the probe keeps the i-then-z order
        assert got == [k for k in want if k not in dropped], config
        failing += not report.passed
        dropping += bool(dropped)
        off_path_only += {prop for prop, _ in got} == {"si-rebuild"}
    # the configs exercise each case: both verdicts, on-path moves the run
    # verifies instead of the probe, and a failure only the probe sees
    assert failing >= 10 and len(FAR + NEAR + WIDE) - failing >= 10
    assert dropping >= 10 and off_path_only >= 1
