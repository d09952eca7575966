"""Command-line experiment harness.

Subcommands:

* ``solve``   - run an exact or sampling-based solver on a game
* ``hard pi`` - build the policy-iteration worst case and verify its path
* ``hard si`` - build the strategy-iteration worst case and verify its path
* ``flux``    - scan strategies for stationary-mass and flux extremes
* ``check``   - certify a stored value-strategy sequence against a game
* ``scaling`` - sweep the big-batch size and report the error/log-slope

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on malformed input: an unknown flag, an out-of-range argument, an
unreadable or malformed JSON file, an output path that cannot be written,
solver constants whose plan cannot run, or an instance too large for
memory. The harness only maps flags to library calls. The library checks
every argument and document (read by ``sg.game.read_json``) and raises
:class:`sg.game.InputError`, which ``main`` maps to exit 2 with a JSON error
on stderr; the parser raises it for argparse's own usage errors too.
``main`` maps a ``MemoryError`` the same way, as ``out of memory: ...``. The
harness checks only what no library call receives before the run: that
exactly one game source is given, and that the directory of ``--out``
exists.
All randomness flows from ``--seed``; the library refuses a randomized run
without one rather than fall back to a clock seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import checks as checks_mod
from . import exact, game as game_mod, hard, qvi
from .game import InputError, read_json, write_text
from .sampler import GenerativeModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("SG_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_game_arg(args) -> game_mod.StochasticGame:
    sources = [s for s in ("game", "hi1", "hi2") if getattr(args, s, None) is not None]
    _require(len(sources) == 1, "exactly one of --game/--hi1/--hi2 is required")
    if args.game is not None:
        return game_mod.load_game(args.game)
    if args.hi1 is not None:
        g, _ = hard.build_hi1(args.hi1)
        return g
    g, _ = hard.build_hi2(args.hi2)
    # sampling-based methods need [0, 1] rewards
    if getattr(args, "method", None) == "qvi":
        return game_mod.affine_reward_map(g, scale=2.0, offset=1.0)
    return g


def _require(ok: bool, message: str) -> None:
    """Reject, with exit 2, an argument the library never receives."""
    if not ok:
        raise InputError(message)


def write_csv(path: str | None, rows: list[str]) -> None:
    """Write CSV rows to ``path`` (stdout when None); a NaN or infinite field
    is refused before the file is opened, and a path that cannot be written
    raises InputError."""
    text = "\n".join(rows) + "\n"
    for row in rows:
        if not {"nan", "inf", "-inf"}.isdisjoint(row.lower().split(",")):
            raise RuntimeError("refusing to write NaN or inf into a trace")
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _print_value(v: np.ndarray, sigma: np.ndarray) -> None:
    print("value:", " ".join(repr(float(x)) for x in v))
    print("strategy:", " ".join(str(int(a)) for a in sigma))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    g = _load_game_arg(args)
    if args.method == "qvi":
        return _solve_qvi(g, args)
    if args.method == "vi":
        v, sigma, trace = exact.value_iteration(g, args.eps)
        notes = [f"iterations: {len(trace)} Bellman sweeps, until v* lay in a bracket "
                 f"at most {args.eps!r} wide; the value is its midpoint"]
    else:
        run = exact.policy_iteration if args.method == "pi" else exact.strategy_iteration
        sigma, trace = run(g, np.zeros(g.n_states, dtype=np.int64))
        v = exact.evaluate(g, sigma)
        notes = [f"policy evaluations: {trace.total_policy_evaluations}"]
        if args.method == "si":
            residual = float(np.abs(exact.bellman(g, v) - v).max())
            notes.append(f"equilibrium residual: {residual!r}")
    _print_value(v, sigma)
    print(*notes, sep="\n")
    if args.out:
        write_csv(args.out, trace.csv_rows())
    return EXIT_OK


def _solve_qvi(g: game_mod.StochasticGame, args) -> int:
    consts = (read_json(args.constants, qvi.QviConstants.from_json_dict)
              if args.constants else qvi.QviConstants())
    model = GenerativeModel(g, master_seed=args.seed)
    result = qvi.solve(model, epsilon=args.eps, delta=args.delta, consts=consts)
    _print_value(result.value_estimate, result.min_strategy)
    print(f"samples: {result.total_samples}")
    if args.out:
        result.sequences[-1].save(args.out)
    if not args.certify:
        return EXIT_OK

    vstar, _ = exact.optimal_value(g)
    _, v_min = exact.best_response(g, result.min_strategy, game_mod.MIN_PLAYER)
    gap_min = float((v_min - vstar).max())
    print(f"min-player certificate: best response within {gap_min!r} of optimal")
    ok = gap_min <= args.eps + 1e-8
    if result.max_strategy is not None:
        _, v_max = exact.best_response(g, result.max_strategy, game_mod.MAX_PLAYER)
        gap_max = float((vstar - v_max).max())
        print(f"max-player certificate: best response within {gap_max!r} of optimal")
        ok = ok and gap_max <= args.eps + 1e-8
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_hard_pi(args) -> int:
    trace, report = hard.verify_pi_path_hi1(args.T)
    print(report.summary())
    if args.out:
        write_csv(args.out, trace.csv_rows())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_hard_si(args) -> int:
    config = read_json(args.rewards, hard.Hi2Config.from_json_dict) if args.rewards else None
    trace, report = hard.verify_si_path_hi2(args.T, config)
    print(report.summary())
    print(f"single-action corrections: {hard.si_single_flip_count(trace)}")
    if args.out:
        write_csv(args.out, trace.csv_rows())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_flux(args) -> int:
    g = _load_game_arg(args)
    report = exact.ratio_scan(g, sample=args.sample, seed=args.seed)
    print(f"strategies scanned: {report.strategies_scanned} "
          f"(skipped {report.strategies_skipped})")
    print(f"stationary extremes: [{report.c_min!r}, {report.c_max!r}] "
          f"ratio {report.ergodicity_ratio!r}")
    print(f"flux extremes: [{report.delta_min!r}, {report.delta_max!r}] "
          f"ratio {report.flux_ratio!r}")
    if args.out:
        write_csv(args.out, report.csv_rows())
    return EXIT_OK


def cmd_check(args) -> int:
    g = game_mod.load_game(args.game)
    seq = qvi.VSSequence.load(args.seq)
    check = checks_mod.check_mdvss if seq.direction == qvi.DECREASING else checks_mod.check_mivss
    report = check(g, seq, eps_override=args.eps_override)
    print(report.summary())
    if args.out:
        report.save(args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_scaling(args) -> int:
    rows, slope = qvi.scaling_sweep(args.seed, args.trials)
    csv = ["m1,trial,error"]
    csv += [f"{m1},{t},{err!r}" for m1, t, err in rows]
    write_csv(args.out, csv)
    lo, hi = qvi.SCALING_SLOPE_BAND
    print(f"log-log slope: {slope!r} (band [{lo}, {hi}])")
    return EXIT_OK if lo <= slope <= hi else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise InputError, so that they
    leave through ``main`` as a JSON error like every other exit 2."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sg", description="stochastic-game solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_source(p):
        p.add_argument("--game", help="game JSON file")
        p.add_argument("--hi1", type=int, metavar="T",
                       help="policy-iteration hard instance of size T")
        p.add_argument("--hi2", type=int, metavar="T",
                       help="strategy-iteration hard instance of size T")

    p = sub.add_parser("solve", help="solve a game exactly or from samples")
    add_game_source(p)
    p.add_argument("--method", choices=("vi", "pi", "si", "qvi"), default="vi",
                   help="vi: value iteration, stopped on the span of its step; pi/si: "
                        "policy/strategy iteration; qvi: the sampling solver")
    p.add_argument("--eps", type=float, default=0.01,
                   help="vi: widest bracket around v* to stop at (the value is within "
                        "eps/2 of v*); qvi: target accuracy")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int)
    p.add_argument("--constants", help="JSON file overriding solver constants")
    p.add_argument("--certify", action="store_true",
                   help="check the output against exact best responses")
    p.add_argument("--out", help="trace/sequence output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hard", help="build and verify a worst-case instance")
    hard_sub = p.add_subparsers(dest="hard_kind", required=True)
    hp = hard_sub.add_parser("pi", help="policy-iteration instance")
    hp.add_argument("--T", type=int, required=True)
    hp.add_argument("--out", help="trace CSV path")
    hp.set_defaults(func=cmd_hard_pi)
    hs = hard_sub.add_parser("si", help="strategy-iteration instance")
    hs.add_argument("--T", type=int, required=True)
    hs.add_argument("--rewards", help="reward configuration JSON")
    hs.add_argument("--out", help="trace CSV path")
    hs.set_defaults(func=cmd_hard_si)

    p = sub.add_parser("flux", help="stationary/flux extremes over strategies")
    add_game_source(p)
    p.add_argument("--sample", type=int, help="sample this many strategies")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="per-strategy CSV path")
    p.set_defaults(func=cmd_flux)

    p = sub.add_parser("check", help="certify a stored value-strategy sequence")
    p.add_argument("--game", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--eps-override", type=float)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scaling", help="error-vs-batch-size sweep")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        _require(out is None or os.path.isdir(os.path.dirname(out) or "."),
                 f"--out directory of {out} does not exist")
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        sys.stderr.write(json.dumps({"error": f"out of memory: {exc}"}) + "\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
