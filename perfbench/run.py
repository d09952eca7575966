"""Run one workload of the sgsolver benchmark and print its metrics.

    python3 perfbench/run.py --workload qvi-acceptance --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; the ``sg`` package is imported from
the checkout's own ``src/`` and nowhere else. ``--trace 0`` measures the
end-to-end metrics with the plain program, with times scaled to the speed
of a fixed reference kernel (see ``reference.py``); ``--trace 1`` alternates
plain and traced ops and reports the per-layer metrics, including the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a value
with its unit). The line before it is ``{"report": ...}``: the machine, the
inputs, both seeds, and every figure of the run, including those that only
some workloads have. The same record, and the spans of a traced run, are
written under ``.perfbench/`` at the root of the checkout.

Exit codes: 0 when the run completed (``correct`` says whether every answer
checked out), 2 when the arguments are bad or the checkout has no ``sg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Pinned before numpy loads: the benchmark is single-threaded by design.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Never used while the benchmark or a change measured with it is written:
# kept for re-checking a claim on fresh inputs.
HELD_OUT_SEED = 7919


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args, p


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git files (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def import_seconds(repeats: int) -> list[float]:
    """Time ``import sg`` (with its CLI) in ``repeats`` fresh interpreters."""
    probe = ("import time; t = time.perf_counter(); import sg, sg.cli; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(repeats)]


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    args, parser = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sg" / "__init__.py").is_file():
        print(f"error: no sg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sg
    if Path(sg.__file__).resolve().parent != (SRC / "sg").resolve():
        print(f"error: sg was imported from {sg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench
    from reference import ReferenceKernel
    from tracer import Tracer

    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    ref = ReferenceKernel(wl.reference)
    ref.time()
    import_s = import_seconds(bench.SETUP_REPEATS)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        setup = bench.prepare(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
    ref.time()

    tracer = Tracer() if args.trace else None
    records, elapsed = bench.run_ops(wl, setup, args.seed, args.seconds, tracer, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = bench.end_to_end(records, setup, import_s, peak_rss_mb, None)

    if tracer is not None:
        metrics = bench.with_units(bench.per_layer(records, tracer, setup),
                                   bench.PER_LAYER_UNITS)
    else:
        metrics = bench.with_units(
            bench.end_to_end(records, setup, import_s, peak_rss_mb, ref),
            bench.END_TO_END_UNITS)

    failed = [r for r in records if not r.result.ok]
    plain = bench.op_times([r for r in records if not r.traced], ref)
    extra = {"fail_fraction": {"value": len(failed) / len(records), "unit": "fraction"}}
    if len(plain) >= 100:
        extra["op_p90_s"] = {"value": statistics.quantiles(plain, n=10)[-1], "unit": "s"}
    samples = [r.result.counts["samples"] for r in records if "samples" in r.result.counts]
    if samples:
        extra["samples_per_op"] = {"value": statistics.median_low(samples), "unit": "count"}

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "load": "closed loop, one process, one op in flight",
        "machine": machine_info(),
        "setup": {"import_s": import_s, "inputs_s": setup.inputs_s,
                  "games": len(setup.games), "load_s": setup.load_s,
                  "layout_s": setup.layout_s},
        "ops": {"count": len(records), "elapsed_s": elapsed,
                "seconds": [r.seconds for r in records],
                "traced": [r.traced for r in records]},
        "failures": [{"op": r.index, "detail": r.result.detail} for r in failed],
        "reference": {"parts": ref.parts, "nominal_s": ref.nominal_s,
                      "seconds": ref.seconds,
                      "op_ref_index": [r.ref_index for r in records]},
        "raw_end_to_end": raw,
        "metrics": {**metrics, **extra},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
