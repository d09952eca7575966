"""The ledger of answers: the outcomes a change that claims "same answers"
must leave alone, computed through public functions only.

Each case is one public call. Its outcome splits in two parts:

* the integer-valued part (evaluation counts, every step's flips, phases,
  single-flip counts, violation kinds and indices, verdicts, and a QVI
  solve's sample counts, run plans and terminal strategies), which
  ``tests/test_ledger.py`` compares with the committed ``ledger.json``;
* the float columns (residuals, the violations' numbers, a solved
  strategy's value and each QVI run's sequence arrays), which
  ``--digest`` prints as one sha256 per column over ``float.hex`` of each
  entry, so two trees can be compared bit for bit.

    python tests/ledger.py --digest   # one sha256 per float column
    python tests/ledger.py --write    # rewrite ledger.json from this tree

Run as a script, it imports ``sg`` from the checkout's own ``src/`` and runs
BLAS on one thread.

Rewriting ``ledger.json`` changes a check: do it only with the cause of the
changed outcome stated beside the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # as a script, read this checkout's own sg, with BLAS on one thread: a
    # threaded product's rounding depends on the host's thread count, and a
    # digest compares two trees, not two hosts
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

import numpy as np  # noqa: E402
from sg.exact import evaluate, strategy_iteration  # noqa: E402
from sg.generate import random_game  # noqa: E402
from sg.hard import (Hi2Config, default_hi2_rewards, hi2_vbar_signs,  # noqa: E402
                     si_single_flip_count, verify_pi_path_hi1, verify_si_path_hi2)
from sg.qvi import solve  # noqa: E402
from sg.sampler import GenerativeModel  # noqa: E402

PINNED = Path(__file__).with_name("ledger.json")
# A config off the defaults in every reward (the NEAR set of
# tests/test_hard_reference.py).
NEAR = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), "switch_rewards": (0.3, 0.3),
                    "r_delta": 0.025, "r_delta_prime": 0.1, "r_goal": 2.0})
# The goal's reward -0.0 equals the restart dummies' 0.0, so the lumped
# quotient merges the goal into the dummies' class.
GOAL_ZERO = Hi2Config(**{**default_hi2_rewards(400).to_json_dict(), "r_goal": 0.0})


def _report(report) -> tuple[dict, dict]:
    ints = {"passed": report.passed,
            "violations": [[v.prop, list(v.index)] for v in report.violations]}
    floats = {f"violation_{name}": [getattr(v, name) for v in report.violations]
              for name in ("lhs", "rhs", "slack")}
    return ints, floats


def _trace(trace) -> tuple[dict, dict]:
    ints = {"policy_evaluations": trace.policy_evaluations, "phases": trace.phases,
            "changes": [[list(flip) for flip in ch] for ch in trace.changes]}
    return ints, {"residuals": trace.residuals}


def _si(T: int, config: Hi2Config | None = None):
    def run() -> tuple[dict, dict]:
        trace, report = verify_si_path_hi2(T, config)
        ints, floats = _report(report)
        trace_ints, trace_floats = _trace(trace)
        ints.update(trace_ints, single_flips=si_single_flip_count(trace))
        floats.update(trace_floats)
        return ints, floats
    return run


def _pi_hi1(T: int):
    def run() -> tuple[dict, dict]:
        trace, report = verify_pi_path_hi1(T)
        ints, floats = _report(report)
        trace_ints, trace_floats = _trace(trace)
        ints.update(trace_ints)
        floats.update(trace_floats)
        return ints, floats
    return run


def _si_random(seed: int):
    """Strategy iteration from zeros on an exact-hard-sized game (300 states,
    4 actions, gamma 0.99, dense rows): the dense factor's route."""
    def run() -> tuple[dict, dict]:
        game = random_game(300, 4, 0.99, seed=seed)
        sigma, trace = strategy_iteration(game, np.zeros(game.n_states, dtype=np.int64))
        ints, floats = _trace(trace)
        floats["value"] = evaluate(game, sigma).tolist()
        return ints, floats
    return run


class _KeptMirror(GenerativeModel):
    """A model that keeps the role-swapped model it hands ``solve``, so that
    the max chain's per-pair draws can be read after the solve."""

    def mirrored(self) -> GenerativeModel:
        self.mirror = super().mirrored()
        return self.mirror


def _qvi(seed: int):
    """``qvi.solve`` on a qvi-acceptance-sized game (20 states, 4 actions,
    gamma 0.9, eps 0.05, delta 0.1, both players) from master seed ``seed``:
    the sample counts, every run's plan and the terminal strategies are
    pinned, and every run's arrays are float columns."""
    def run() -> tuple[dict, dict]:
        model = _KeptMirror(random_game(20, 4, 0.9, seed=seed), master_seed=seed)
        result = solve(model, epsilon=0.05, delta=0.1, both_players=True)
        ints = {"total_samples": result.total_samples,
                "draws": [model.sample_count()[1].tolist(),
                          model.mirror.sample_count()[1].tolist()],
                "min_strategy": result.min_strategy.tolist(),
                "max_strategy": result.max_strategy.tolist()}
        floats = {}
        for chain, seqs in (("min", result.sequences), ("max", result.mirror_sequences)):
            ints[f"{chain}_runs"] = [[s.rounds, s.constants.m1, s.constants.m2] for s in seqs]
            for j, s in enumerate(seqs):
                for column in ("values", "q_values", "error_bounds", "strategies"):
                    floats[f"{chain}{j}_{column}"] = getattr(s, column).ravel().tolist()
        return ints, floats
    return run


def _vbar(T: int, config: Hi2Config | None = None):
    return lambda: _report(hi2_vbar_signs(T, config))


CASES = {
    "verify_si_path_hi2/T=400": _si(400),
    "verify_si_path_hi2/T=2000": _si(2000),
    "verify_si_path_hi2/T=10000": _si(10_000),
    "verify_si_path_hi2/T=40000": _si(40_000),
    "verify_si_path_hi2/T=400,NEAR": _si(400, NEAR),
    "verify_si_path_hi2/T=400,GOAL_ZERO": _si(400, GOAL_ZERO),
    "hi2_vbar_signs/T=400": _vbar(400),
    "hi2_vbar_signs/T=1600": _vbar(1600),
    "hi2_vbar_signs/T=400,NEAR": _vbar(400, NEAR),
    "hi2_vbar_signs/T=400,GOAL_ZERO": _vbar(400, GOAL_ZERO),
    "verify_pi_path_hi1/T=768": _pi_hi1(768),
    "strategy_iteration/random_game(300,4,0.99,seed=1)": _si_random(1),
    "strategy_iteration/random_game(300,4,0.99,seed=2)": _si_random(2),
    "qvi.solve/random_game(20,4,0.9,seed=1)": _qvi(1),
}


def digest(column: list[float]) -> str:
    return hashlib.sha256("\n".join(float(x).hex() for x in column).encode()).hexdigest()


def dumps(pinned: dict) -> str:
    """The pinned outcomes as JSON, one line per case and field."""
    cases = [f" {json.dumps(name)}: {{\n"
             + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ints.items()))
             + "\n }" for name, ints in sorted(pinned.items())]
    return "{\n" + ",\n".join(cases) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--digest", action="store_true", help="print one sha256 per float column")
    mode.add_argument("--write", action="store_true", help=f"rewrite {PINNED.name}")
    args = p.parse_args(argv)
    pinned = {}
    for name, case in CASES.items():
        ints, floats = case()
        pinned[name] = ints
        if args.digest:
            for column, values in floats.items():
                print(f"{name} {column} {digest(values)}")
    if args.write:
        PINNED.write_text(dumps(pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
