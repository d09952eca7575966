"""Self-tests of the benchmark on tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import sg.exact  # noqa: E402
from sg.generate import random_game  # noqa: E402

import bench  # noqa: E402
from reference import ReferenceKernel  # noqa: E402
from tracer import Span, Tracer, has_ancestor, outermost, self_times  # noqa: E402

TINY_QVI = dataclasses.replace(bench.WORKLOADS["qvi-acceptance"],
                               n_states=3, n_actions=2, epsilon=0.4)


def test_predicted_samples_reproduce_the_stated_counts():
    assert bench.predicted_samples(80, 0.9, 0.05, 0.1, True) == 574_653_120
    assert bench.predicted_samples(400, 0.9, 0.2, 0.1, False) == 369_771_200


def test_sample_oracle_agrees_with_a_solve_and_flags_a_mismatch():
    wl = TINY_QVI
    game = random_game(wl.n_states, wl.n_actions, wl.gamma, seed=3)
    expected = bench.predicted_samples(game.n_pairs, wl.gamma, wl.epsilon,
                                       wl.delta, wl.both_players)
    good = bench.qvi_op(wl, game, 5, expected)
    assert good.ok, good.detail
    assert good.counts["samples"] == expected
    bad = bench.qvi_op(wl, game, 5, expected + 1)
    assert not bad.ok and "predicted" in bad.detail


def test_an_op_that_raises_is_a_failed_op(monkeypatch):
    def boom(*args):
        raise RuntimeError("no convergence")

    monkeypatch.setitem(bench.OPS, "scan", boom)
    wl = bench.WORKLOADS["scan-small"]
    setup = bench.Setup(games=[None], load_s=[0.0], layout_s=[0.0],
                        inputs_s=0.0, expected_samples=0)
    records, _ = bench.run_ops(wl, setup, seed=1, seconds=0.0, tracer=None,
                               ref=ReferenceKernel(wl.reference))
    assert len(records) == 1
    assert not records[0].result.ok
    assert "no convergence" in records[0].result.detail


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, -1, 0, "qvi.solve", 0.0, 10.0),
        Span(1, 0, 0, "sampler.estimate_diff_mean", 1.0, 4.0),
        Span(2, 0, 0, "exact.value_iteration", 5.0, 9.0),
        Span(3, 2, 0, "exact.greedy_from_q", 6.0, 8.0),
        Span(4, -1, 0, "checks.check_mdvss", 10.0, 10.5),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 0.5]
    assert [s.id for s in outermost(spans, "exact")] == [2]
    assert has_ancestor(spans, spans[3], "qvi.solve")
    assert not has_ancestor(spans, spans[4], "qvi.solve")


def test_tracer_records_calls_and_restores_the_program():
    game = random_game(4, 2, 0.9, seed=0)
    original = sg.exact.value_iteration
    tracer = Tracer()
    with tracer.recording(7):
        sg.exact.value_iteration(game, 1e-6)
        sg.exact.flux(game, np.zeros(4, dtype=np.int64))
    assert sg.exact.value_iteration is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "exact.value_iteration"
    assert "exact.greedy_from_q" in names and "exact.PolicyLinearSystem.lu" in names
    assert names.count("exact.PolicyLinearSystem.lu") == 1
    assert all(s.op == 7 and s.end >= s.start for s in tracer.spans)
    assert tracer.spans[1].parent == 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(ROOT, "--workload", "scan-small", "--seed", "1",
                   "--seconds", "0.3", "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "scan-small", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
