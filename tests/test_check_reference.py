"""Differential oracle for sequence certification.

``reference_check`` is the per-entry loop that certified a value-strategy
sequence before the whole-sequence property table: six collections per entry,
each property computed from its own greedy call. Its report JSON must match
``check_mdvss``/``check_mivss`` byte for byte, on passing and broken
sequences, in both directions and with every form of ``eps_override``.
"""

import json

import numpy as np
import pytest

from sg.checks import (CHECK_SLACK, CheckReport, Violation, check_eps_optimal_implication,
                       check_mdvss, check_mivss)
from sg.exact import best_response, greedy_from_q, q_from_v, value_iteration
from sg.game import MAX_PLAYER, MIN_PLAYER
from sg.generate import random_game
from sg.hard import build_hi1
from sg.qvi import DECREASING, QviConstants, VSSequence, qvi_mdvss, qvi_mivss
from sg.sampler import GenerativeModel


def reference_check(game, seq, sign, eps_override, vstar):
    """Certify ``seq`` one entry at a time, in the report order entry,
    property, state."""
    owned = game.owners == (MIN_PLAYER if sign > 0 else MAX_PLAYER)
    chosen = game.space.chosen_pairs
    n_entries = seq.values.shape[0]
    violations = []

    def collect(prop, i, lhs, rhs, gap):
        for j in np.flatnonzero(gap > 0):
            violations.append(Violation(prop, (i, int(j)), float(lhs[j]), float(rhs[j]),
                                        float(gap[j])))

    q_prev = None
    for i in range(n_entries):
        v_i, sigma_i = seq.values[i], seq.strategies[i]
        if i + 1 < n_entries:
            collect("1:chain", i, seq.values[i + 1], v_i,
                    sign * (seq.values[i + 1] - v_i) - CHECK_SLACK)
        if i == n_entries - 1:
            collect("1:optimal-bound", i, v_i, vstar, sign * (vstar - v_i) - CHECK_SLACK)
        q_i = q_from_v(game, v_i)
        t_sigma, t_opt = q_i[chosen(sigma_i)], greedy_from_q(game.space, q_i)[0]
        for name, backup in (
            ("2:T-sigma", t_sigma),
            ("2:T", t_opt),
            ("2:half", np.where(owned, t_sigma, t_opt)),
        ):
            collect(name, i, backup, v_i, sign * (backup - v_i) - CHECK_SLACK)
        if i > 0:
            eps_i = seq.error_bounds[i] if eps_override is None else eps_override
            target = q_prev + sign * eps_i
            collect("3:q-backup", i, seq.q_values[i], target,
                    sign * (seq.q_values[i] - target) - CHECK_SLACK)
            vq, _ = greedy_from_q(game.space, seq.q_values[i])
            collect("4:greedy", i, v_i, vq, sign * (v_i - vq) - CHECK_SLACK)
        q_prev = q_i
    return CheckReport(violations)


def reference_eps_optimal(game, seq, vstar):
    sign = +1.0 if seq.direction == DECREASING else -1.0
    eps = float(np.abs(seq.terminal_value - vstar).max())
    _, v_resp = best_response(game, seq.terminal_strategy,
                              MIN_PLAYER if sign > 0 else MAX_PLAYER)
    bound = vstar + sign * eps
    gap = sign * (v_resp - bound) - CHECK_SLACK
    return CheckReport([Violation("eps-optimal", (int(s),), float(v_resp[s]),
                                  float(bound[s]), float(gap[s]))
                        for s in np.flatnonzero(gap > 0)])


def as_text(report):
    return json.dumps(report.to_json_dict(), indent=1)


def qvi_sequence(game, decreasing):
    beta = 1.0 / (1.0 - game.gamma)
    model = GenerativeModel(game, master_seed=11)
    consts = QviConstants(c1=2.0, c2=0.02, c3=0.2, c=0.5)
    run, v0 = (qvi_mdvss, np.full(game.n_states, beta)) if decreasing else \
        (qvi_mivss, np.zeros(game.n_states))
    return run(model, beta, 0.1, v0, np.zeros(game.n_states, dtype=np.int64), consts)


def fixed_point_sequence(game, entries=4):
    vstar, sstar, _ = value_iteration(game, 1e-12)
    return VSSequence(direction=DECREASING,
                      values=np.tile(vstar, (entries, 1)),
                      q_values=np.tile(q_from_v(game, vstar), (entries, 1)),
                      strategies=np.tile(sstar, (entries, 1)),
                      error_bounds=np.zeros((entries, game.n_pairs)))


def raise_q(seq, game):
    seq.q_values[1:] += 0.3


def lower_value(seq, game):
    seq.values[2] -= 1.0


def flip_strategies(seq, game):
    seq.strategies[:] = (seq.strategies + 1) % game.space.n_actions


def keep_one_entry(seq, game):
    for name in ("values", "q_values", "strategies", "error_bounds"):
        setattr(seq, name, getattr(seq, name)[:1].copy())


PERTURBATIONS = {"none": lambda seq, game: None, "raise-q": raise_q, "lower-value": lower_value,
                 "flip-strategies": flip_strategies, "one-entry": keep_one_entry}
GAME = random_game(6, 3, 0.9, seed=3)
VSTAR, _, _ = value_iteration(GAME, 1e-12)
EPS_OVERRIDES = {"none": None, "scalar": 0.05,
                 "per-pair": np.random.default_rng(5).uniform(0, 0.2, GAME.n_pairs)}


@pytest.mark.parametrize("decreasing", [True, False], ids=["mdvss", "mivss"])
@pytest.mark.parametrize("perturb", sorted(PERTURBATIONS))
@pytest.mark.parametrize("eps", sorted(EPS_OVERRIDES))
def test_the_property_table_reports_what_the_per_entry_loop_reported(decreasing, perturb, eps):
    seq = qvi_sequence(GAME, decreasing)
    PERTURBATIONS[perturb](seq, GAME)
    sign = 1.0 if decreasing else -1.0
    check = check_mdvss if decreasing else check_mivss
    eps_override = EPS_OVERRIDES[eps]
    expected = reference_check(GAME, seq, sign, eps_override, VSTAR)
    assert as_text(check(GAME, seq, eps_override=eps_override, vstar=VSTAR)) == as_text(expected)
    assert as_text(check_eps_optimal_implication(GAME, seq, vstar=VSTAR)) == \
        as_text(reference_eps_optimal(GAME, seq, VSTAR))


def test_broken_sequences_report_entry_then_property_then_state():
    seq = qvi_sequence(GAME, False)
    for perturb in (raise_q, lower_value, flip_strategies):
        perturb(seq, GAME)
    report = check_mivss(GAME, seq, vstar=VSTAR)
    props = ["1:chain", "1:optimal-bound", "2:T-sigma", "2:T", "2:half", "3:q-backup",
             "4:greedy"]
    keys = [(v.index[0], props.index(v.prop), v.index[1]) for v in report.violations]
    assert len({v.prop for v in report.violations}) >= 3 and len({k[0] for k in keys}) >= 3
    assert keys == sorted(keys)
    assert as_text(report) == as_text(reference_check(GAME, seq, -1.0, None, VSTAR))


@pytest.mark.parametrize("perturb", sorted(PERTURBATIONS))
def test_the_table_matches_the_loop_on_uniform_rows(perturb):
    game, _ = build_hi1(48)  # every state has a uniform restart row
    seq = fixed_point_sequence(game)
    PERTURBATIONS[perturb](seq, game)
    vstar, _, _ = value_iteration(game, 1e-10)
    for sign, check in ((1.0, check_mdvss), (-1.0, check_mivss)):
        seq.direction = DECREASING if sign > 0 else "increasing"
        expected = reference_check(game, seq, sign, None, vstar)
        assert as_text(check(game, seq)) == as_text(expected)
