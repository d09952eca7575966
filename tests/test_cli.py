"""CLI harness: subcommands, exit codes, deterministic CSV output."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from sg.checks import check_mdvss
from sg.cli import main, scaling_sweep, write_csv
from sg.exact import (SolveTrace, bellman, evaluate, policy_iteration, strategy_iteration,
                      value_iteration)
from sg.game import InputError, affine_reward_map, make_game, save_game, write_json
from sg.hard import build_hi1, build_hi2, default_hi2_rewards
from sg.generate import random_game
from sg.qvi import VSSequence, qvi_mdvss, QviConstants, solve
from sg.sampler import GenerativeModel


@pytest.fixture
def game_file(tmp_path):
    g = random_game(5, 2, 0.9, seed=0)
    path = tmp_path / "g.json"
    save_game(g, str(path))
    return g, str(path)


def test_solve_vi_smoke(game_file, capsys):
    _, path = game_file
    assert main(["solve", "--game", path, "--method", "vi", "--eps", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value:")
    assert "strategy:" in out and "iterations:" in out


def test_solve_si_smoke(game_file, capsys):
    _, path = game_file
    assert main(["solve", "--game", path, "--method", "si"]) == 0
    assert "equilibrium residual" in capsys.readouterr().out


def test_solve_pi_rejects_two_player_game(game_file, capsys):
    _, path = game_file
    assert main(["solve", "--game", path, "--method", "pi"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_solve_qvi_requires_seed(game_file, capsys):
    _, path = game_file
    assert main(["solve", "--game", path, "--method", "qvi"]) == 2


def test_solve_qvi_certify(tmp_path, capsys):
    g = random_game(5, 2, 0.9, seed=1)
    path = tmp_path / "g.json"
    save_game(g, str(path))
    code = main(["solve", "--game", str(path), "--method", "qvi",
                 "--eps", "0.2", "--delta", "0.1", "--seed", "7", "--certify"])
    out = capsys.readouterr().out
    assert "certificate" in out
    assert code == 0


def test_hard_pi_trace_rows(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["hard", "pi", "--T", "192", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0].startswith("iteration,")
    flips = [r for r in rows[1:] if r.split(",")[4] == "1"]
    assert len(flips) == 4  # one single-flip row per chain state
    assert not any("nan" in r.lower() for r in rows)


def test_hard_si_smoke(tmp_path, capsys):
    out = tmp_path / "si.csv"
    assert main(["hard", "si", "--T", "400", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "single-action corrections: 4" in text
    assert out.read_text().startswith("iteration,")


def test_hard_si_failing_config_exits_1_and_still_writes_the_trace(tmp_path, capsys):
    rewards = tmp_path / "increasing.json"
    config = {**default_hi2_rewards(400).to_json_dict(), "switch_rewards": [0.55, 0.75]}
    rewards.write_text(json.dumps(config))
    out = tmp_path / "t.csv"
    assert main(["hard", "si", "--T", "400", "--rewards", str(rewards), "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert text.startswith("FAIL") and "si-config:reward-order" in text
    assert "single-action corrections: " in text
    assert out.read_text().startswith("iteration,")


def test_flux_enumerate_smoke(game_file, capsys):
    _, path = game_file
    assert main(["flux", "--game", path]) == 0
    out = capsys.readouterr().out
    assert "flux extremes" in out and "stationary extremes" in out


def test_flux_sampled_deterministic_csv(game_file, tmp_path):
    _, path = game_file
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["flux", "--game", path, "--sample", "8", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("strategy,")


def test_flux_csv_rows_have_one_field_per_column(tmp_path):
    # a strategy written as comma-joined actions spilled 48 fields into a
    # row under a 5-column header
    out = tmp_path / "scan.csv"
    argv = ["flux", "--hi1", "48", "--sample", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "lambda_min", "lambda_max", "flux_min", "flux_max"]
    assert len(rows) == 4 and all(len(row) == 5 for row in rows)


def test_flux_sample_requires_seed(game_file, capsys):
    _, path = game_file
    assert main(["flux", "--game", path, "--sample", "8"]) == 2


def test_flux_seed_without_a_sample_exits_2(game_file, capsys):
    # an exhaustive scan draws nothing, so a seed given to it is refused
    _, path = game_file
    assert main(["flux", "--game", path, "--seed", "5"]) == 2
    assert "seed" in json.loads(capsys.readouterr().err.strip())["error"]


def test_check_accepts_valid_sequence(tmp_path, capsys):
    g = random_game(6, 2, 0.9, seed=2)
    gpath = tmp_path / "g.json"
    save_game(g, str(gpath))
    model = GenerativeModel(g, master_seed=3)
    beta = 1.0 / (1.0 - g.gamma)
    seq = qvi_mdvss(model, beta, 0.1, np.full(6, beta),
                    np.zeros(6, dtype=np.int64),
                    QviConstants(c1=2.0, c2=0.05, c3=0.3, c=0.5))
    spath = tmp_path / "seq.json"
    seq.save(str(spath))
    code = main(["check", "--game", str(gpath), "--seq", str(spath)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_check_flags_broken_sequence(tmp_path, capsys):
    g = random_game(6, 2, 0.9, seed=2)
    gpath = tmp_path / "g.json"
    save_game(g, str(gpath))
    vstar, sstar, _ = value_iteration(g, 1e-11)
    qstar = np.tile(np.zeros(g.n_pairs), (2, 1))
    from sg.exact import q_from_v
    seq = VSSequence(direction="decreasing",
                     values=np.tile(vstar, (2, 1)),
                     q_values=np.tile(q_from_v(g, vstar), (2, 1)),
                     strategies=np.tile(sstar, (2, 1)),
                     error_bounds=np.zeros((2, g.n_pairs)))
    seq.values[1][0] -= 0.05  # dip below the optimum: property-1 break
    spath, rpath = tmp_path / "seq.json", tmp_path / "report.json"
    seq.save(str(spath))
    code = main(["check", "--game", str(gpath), "--seq", str(spath), "--out", str(rpath)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1:" in out
    report = check_mdvss(g, seq)
    assert out == report.summary() + "\n"
    assert json.loads(rpath.read_text()) == json.loads(json.dumps(report.to_json_dict()))


def test_check_unknown_direction_exits_2(tmp_path, capsys):
    g = random_game(6, 2, 0.9, seed=2)
    gpath = tmp_path / "g.json"
    save_game(g, str(gpath))
    vstar, sstar, _ = value_iteration(g, 1e-11)
    seq = VSSequence(direction="sideways", values=np.tile(vstar, (2, 1)),
                     q_values=np.zeros((2, g.n_pairs)),
                     strategies=np.tile(sstar, (2, 1)),
                     error_bounds=np.zeros((2, g.n_pairs)))
    spath = tmp_path / "seq.json"
    seq.save(str(spath))
    assert main(["check", "--game", str(gpath), "--seq", str(spath)]) == 2
    assert "sideways" in json.loads(capsys.readouterr().err.strip())["error"]


def test_check_sequence_from_another_game_exits_2(tmp_path, capsys):
    g1, g2 = random_game(1, 2, 0.9, seed=0), random_game(2, 2, 0.9, seed=0)
    gpath = tmp_path / "g2.json"
    save_game(g2, str(gpath))
    vstar, sstar, _ = value_iteration(g1, 1e-11)
    seq = VSSequence(direction="decreasing", values=np.tile(vstar, (2, 1)),
                     q_values=np.zeros((2, g1.n_pairs)),
                     strategies=np.tile(sstar, (2, 1)),
                     error_bounds=np.zeros((2, g1.n_pairs)))
    spath = tmp_path / "seq.json"
    seq.save(str(spath))
    assert main(["check", "--game", str(gpath), "--seq", str(spath)]) == 2
    assert "does not fit" in json.loads(capsys.readouterr().err.strip())["error"]


def test_check_non_finite_sequence_exits_2(tmp_path, capsys):
    g = random_game(3, 2, 0.9, seed=0)
    gpath = tmp_path / "g.json"
    save_game(g, str(gpath))
    vstar, sstar, _ = value_iteration(g, 1e-11)
    seq = VSSequence(direction="decreasing", values=np.tile(vstar, (2, 1)),
                     q_values=np.zeros((2, g.n_pairs)),
                     strategies=np.tile(sstar, (2, 1)),
                     error_bounds=np.zeros((2, g.n_pairs)))
    seq.q_values[1, 0] = np.nan
    spath = tmp_path / "seq.json"
    spath.write_text(json.dumps(seq.to_json_dict()))  # sg's writer refuses the NaN
    assert main(["check", "--game", str(gpath), "--seq", str(spath)]) == 2
    assert "non-finite" in json.loads(capsys.readouterr().err.strip())["error"]


def test_flux_over_enumeration_cap_exits_2(tmp_path, capsys):
    g = random_game(21, 2, 0.9, seed=4)  # 2^21 > MAX_ENUMERATED_STRATEGIES
    path = tmp_path / "g.json"
    save_game(g, str(path))
    assert main(["flux", "--game", str(path)]) == 2
    assert "enumeration cap" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_flux_sample_below_one_exits_2(sample, game_file, capsys):
    _, path = game_file
    # ratio_scan refuses it; the harness only maps the refusal
    assert main(["flux", "--game", path, "--sample", sample, "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"sample must be an integer >= 1, got {sample}")


@pytest.mark.parametrize("argv", [
    ["flux", "--game", "{game}", "--sample", "3", "--seed", "-1"],
    ["solve", "--game", "{game}", "--method", "qvi", "--seed", "-1", "--eps", "0.5"],
    ["scaling", "--seed", "-1", "--trials", "1"],
], ids=["flux", "solve-qvi", "scaling"])
def test_a_negative_seed_exits_2(argv, game_file, capsys):
    # numpy refused it with a traceback, which exits 1, the code of a failed check
    _, path = game_file
    assert main([path if a == "{game}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be an integer >= 0" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_scaling_trials_below_one_exits_2(trials, capsys):
    # scaling_sweep refuses it before its first run
    assert main(["scaling", "--trials", trials, "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"trials must be an integer >= 1, got {trials}")


def test_malformed_game_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--game", str(bad), "--method", "vi"]) == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err.strip())


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "vi", "--eps", "0"],
    ["hard", "pi", "--T", "10"],
    ["solve", "--method", "qvi", "--eps", "2", "--seed", "1"],
])
def test_out_of_range_argument_exits_2(argv, game_file, capsys):
    _, path = game_file
    if argv[0] == "solve":
        argv = argv + ["--game", path]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("argv", [
    ["solve", "--hi1", "47"],
    ["solve", "--hi2", "399"],
    ["hard", "si", "--T", "399"],
    ["solve", "--hi1", str(2 ** 60)],
    ["solve", "--game", "{game}", "--method", "vi", "--eps", "nan"],
    ["hard", "si", "--T", "500", "--rewards", "{config400}"],
    ["solve", "--game", "{reward15}", "--method", "qvi", "--seed", "1"],
])
def test_library_input_checks_exit_2(argv, game_file, tmp_path, capsys):
    # each argument is checked by the library alone; the CLI only maps the refusal
    g, path = game_file
    config = tmp_path / "hi2-400.json"
    config.write_text(json.dumps(default_hi2_rewards(400).to_json_dict()))
    actions = [list(acts) for acts in g.actions]
    actions[0][0] = replace(actions[0][0], reward=1.5)
    high = tmp_path / "reward15.json"
    save_game(make_game(g.gamma, g.owners, actions), str(high))
    files = {"{game}": path, "{config400}": str(config), "{reward15}": str(high)}
    assert main([files.get(a, a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]


def test_missing_game_source_exits_2(capsys):
    assert main(["solve", "--method", "vi"]) == 2


def test_scaling_emits_csv_and_slope(tmp_path, capsys):
    out = tmp_path / "scal.csv"
    code = main(["scaling", "--seed", "11", "--trials", "3", "--out", str(out)])
    text = capsys.readouterr().out
    assert "log-log slope" in text
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "m1,trial,error"
    assert len(rows) == 1 + 4 * 3
    assert code == 0


def test_scaling_requires_seed(capsys):
    assert main(["scaling"]) == 2


def test_nan_trace_is_refused_and_no_file_is_written(tmp_path):
    # a CSV trace and a JSON document alike, for NaN and both infinities
    for bad in (float("nan"), float("inf"), float("-inf")):
        trace = SolveTrace()
        trace.append(1, 0.5, [], 0)
        trace.append(2, bad, [], 0)
        path, doc = tmp_path / "trace.csv", tmp_path / "doc.json"
        with pytest.raises(RuntimeError, match="NaN"):
            write_csv(str(path), trace.csv_rows())
        with pytest.raises(RuntimeError, match="NaN"):
            write_json(str(doc), {"residuals": trace.residuals})
        assert not path.exists() and not doc.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--game", "{game}", "--method", "vi"],
    ["hard", "pi", "--T", "48"],
    ["solve", "--game", "{game}", "--method", "qvi", "--seed", "1", "--eps", "0.5"],
    ["check", "--game", "{game}", "--seq", "{game}"],
    ["scaling", "--seed", "1", "--trials", "1"],
])
def test_out_in_a_missing_directory_exits_2_before_running(argv, game_file, tmp_path, capsys):
    # the solve used to run to the end and then fail with FileNotFoundError
    _, path = game_file
    argv = [path if a == "{game}" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "does not exist" in json.loads(captured.err)["error"]


def test_writers_refuse_a_path_they_cannot_open(tmp_path):
    path = str(tmp_path / "missing" / "out")
    with pytest.raises(InputError, match="cannot write"):
        write_csv(path, ["a,b"])
    with pytest.raises(InputError, match="cannot write"):
        write_json(path, {})
    with pytest.raises(InputError, match="cannot write"):
        write_json(str(tmp_path), {})  # a directory


@pytest.mark.parametrize("constants, named", [
    ({"c1": 1e300}, "from c1"), ({"c1": 1e308}, "from c1"), ({"c3": 1e300}, "from c3"),
    ({"rounds_override": 2 ** 62}, "rounds_override"),
])
def test_constants_whose_plan_cannot_run_exit_2(constants, named, game_file, tmp_path, capsys):
    # these used to end in a traceback from the run's allocation or sampler
    _, path = game_file
    big = tmp_path / "big.json"
    big.write_text(json.dumps(constants))
    assert main(["solve", "--game", path, "--method", "qvi", "--seed", "1",
                 "--constants", str(big)]) == 2
    assert named in json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# every branch of the harness prints and writes what the library returns


def value_lines(v, sigma):
    return ("value: " + " ".join(repr(float(x)) for x in v) + "\n"
            + "strategy: " + " ".join(str(int(a)) for a in sigma) + "\n")


def test_solve_vi_prints_and_writes_the_library_run(game_file, tmp_path, capsys):
    g, path = game_file
    out = tmp_path / "vi.csv"
    assert main(["solve", "--game", path, "--method", "vi", "--eps", "0.01",
                 "--out", str(out)]) == 0
    v, sigma, trace = value_iteration(g, 0.01)
    assert capsys.readouterr().out == value_lines(v, sigma) + (
        f"iterations: {len(trace)} Bellman sweeps, until v* lay in a bracket "
        f"at most 0.01 wide; the value is its midpoint\n")
    assert out.read_text() == "\n".join(trace.csv_rows()) + "\n"


def test_solve_pi_on_a_single_player_game(tmp_path, capsys):
    g, meta = build_hi1(48)
    out = tmp_path / "pi.csv"
    assert main(["solve", "--hi1", "48", "--method", "pi", "--out", str(out)]) == 0
    sigma, trace = policy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
    assert np.array_equal(sigma, meta.policy_extreme())
    assert capsys.readouterr().out == value_lines(evaluate(g, sigma), sigma) + (
        f"policy evaluations: {meta.s_prime + 1}\n")
    assert trace.total_policy_evaluations == meta.s_prime + 1
    assert out.read_text() == "\n".join(trace.csv_rows()) + "\n"


@pytest.mark.parametrize("source", [["--game", "{game}"], ["--hi2", "400"]], ids=["game", "hi2"])
def test_solve_si_prints_the_residual_and_writes_the_trace(source, game_file, tmp_path, capsys):
    g, path = game_file
    if source[0] == "--hi2":
        g, _ = build_hi2(400)
    out = tmp_path / "si.csv"
    argv = ["solve", *[path if a == "{game}" else a for a in source], "--method", "si"]
    assert main(argv + ["--out", str(out)]) == 0
    sigma, trace = strategy_iteration(g, np.zeros(g.n_states, dtype=np.int64))
    v = evaluate(g, sigma)
    residual = float(np.abs(bellman(g, v) - v).max())
    assert capsys.readouterr().out == value_lines(v, sigma) + (
        f"policy evaluations: {trace.total_policy_evaluations}\n"
        f"equilibrium residual: {residual!r}\n")
    assert out.read_text() == "\n".join(trace.csv_rows()) + "\n"


def test_solve_qvi_on_hi2_maps_rewards_into_the_unit_interval(tmp_path, capsys):
    # hi2's rewards lie in [-1, 1]: unmapped, the sampler would refuse them
    consts = {"m1_override": 20, "m2_override": 10, "rounds_override": 2}
    cpath, out = tmp_path / "c.json", tmp_path / "seq.json"
    cpath.write_text(json.dumps(consts))
    assert main(["solve", "--hi2", "400", "--method", "qvi", "--seed", "1", "--eps", "0.5",
                 "--constants", str(cpath), "--out", str(out)]) == 0
    g = affine_reward_map(build_hi2(400)[0], scale=2.0, offset=1.0)
    result = solve(GenerativeModel(g, master_seed=1), epsilon=0.5, delta=0.1,
                   consts=QviConstants(**consts))
    assert capsys.readouterr().out == value_lines(
        result.value_estimate, result.min_strategy) + f"samples: {result.total_samples}\n"
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(result.sequences[-1].to_json_dict()))


def test_scaling_without_out_writes_its_csv_to_stdout(capsys):
    code = main(["scaling", "--seed", "11", "--trials", "1"])
    rows, slope = scaling_sweep(11, 1)
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "m1,trial,error"
    assert lines[1:5] == [f"{m1},{t},{err!r}" for m1, t, err in rows]
    assert lines[5] == f"log-log slope: {slope!r} (band [-0.65, -0.35])"
    assert code == (0 if -0.65 <= slope <= -0.35 else 1)


@pytest.mark.parametrize("flag", ["--no-such-flag", "--beta-factor"])
def test_an_unknown_flag_exits_2(flag, capsys):
    assert main(["solve", "--hi1", "48", flag, "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv, message", [
    (["hard", "pi", "--T", "abc"], "sg hard pi: argument --T: invalid int value: 'abc'"),
    (["solve", "--method", "xx"], "sg solve: argument --method: invalid choice"),
    (["hard"], "sg hard: the following arguments are required"),
    ([], "sg: the following arguments are required: command"),
])
def test_a_usage_error_exits_2_with_a_json_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"].startswith(message)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sg solve")
