"""hjlab benchmark.

    python3 bench/run.py --workload <hj_lines|vdw_progressions|tensor_corpus>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  Whole passes over the workload's items are repeated until the
next one would end past ``--seconds`` (at least one pass), and every pass is
checked against the oracle in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter running ``import hjlab``; median of two samples before every
pass), ``wall_s`` (first item to last verdict of one pass; median over
passes), ``peak_rss_mb`` and ``pass_ratio`` (items matching the oracle /
items attempted; the complement of the fail ratio, which reads 0 on a
correct program).
``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_ratio`` (traced over untraced median ``wall_s``).

The last stdout line is the result JSON; the lines before it carry the
provenance, the deterministic counter block and any failing items.  The full
record, spans included for a traced run, goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PER_PASS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("hj_lines", "vdw_progressions", "tensor_corpus")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup():
    """Seconds for a fresh interpreter to start and ``import hjlab``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hjlab"], cwd=ROOT, env=env, check=True, timeout=60
    )
    return time.perf_counter() - start


def speed_probe():
    """Seconds for a fixed interpreter-bound loop that runs no hjlab code: a
    gauge of how fast the host runs Python right now, recorded next to the
    timings so that a shift in host speed can be told apart from a change in
    the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def provenance(load_1m):
    import numpy

    git = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_WORK_TREE=str(ROOT))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=60)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if rev.returncode == 0:
            git = {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}
    loc = sum(len(p.read_text().splitlines()) for p in (SRC / "hjlab").glob("*.py"))
    return {
        "git": git,
        "src_loc": loc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "load_1m_at_start": load_1m,
    }


def run_passes(workloads, workload, inputs, seconds, tracing=None, before=None):
    """Whole passes until the next would end past ``seconds``; at least one.
    With ``tracing`` given, each pass runs under a fresh set of wrappers and
    yields (pass, tracer, unmeasured layers).  ``before`` is called before
    every pass, inside the time budget."""
    out = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if before is not None:
            before()
        if tracing is None:
            out.append((workloads.run_pass(workload, inputs), None, []))
        else:
            tracer = tracing.Tracer()
            restore, unmeasured = tracing.install(tracer)
            try:
                p = workloads.run_pass(workload, inputs, tracer)
            finally:
                tracing.uninstall(restore)
            out.append((p, tracer, unmeasured))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return out


def main(argv=None):
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not (SRC / "hjlab" / "__init__.py").is_file():
        print(f"error: no hjlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads: one BLAS thread
    sys.path.insert(0, str(SRC))
    import hjlab

    if Path(hjlab.__file__).resolve().parent != SRC / "hjlab":
        print(f"error: imported hjlab from {hjlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(load_1m)}
    golden = workloads.load_golden()
    expected = workloads.expected_items(args.workload, golden)
    inputs = workloads.make_inputs(args.workload, args.seed)

    if args.trace:
        plain = run_passes(workloads, args.workload, inputs, args.seconds / 2)
        traced = run_passes(workloads, args.workload, inputs, args.seconds / 2, tracing)
    else:
        setup, probe = [], []

        def sample_host():
            # set-up samples taken between passes see the same host
            # conditions as the passes do
            for _ in range(SETUP_PER_PASS):
                setup.append(measure_setup())
                probe.append(speed_probe())

        plain = run_passes(workloads, args.workload, inputs, args.seconds, before=sample_host)
        traced = []

    failed = {}
    attempted = 0
    for i, (p, tracer, unmeasured) in enumerate(plain + traced):
        for name, reason in workloads.failures(expected, p).items():
            failed.setdefault(f"pass {i}: {name}", reason)
        attempted += workloads.attempted(expected, p)
        if tracer is not None and not unmeasured:
            # the layer counters are deterministic too; a drift fails the pass
            attempted += 1
            want = golden["layer_counters"][args.workload]
            got = tracing.counter_block(tracer)
            if got != want:
                failed[f"pass {i}: layer counters"] = f"expected {want}, got {got}"

    counters = plain[0][0].observed
    record["counters"] = counters
    record["counters_sha256"] = hashlib.sha256(
        json.dumps(counters, sort_keys=True).encode()).hexdigest()
    walls = [p.wall for p, _, _ in plain]
    record["timings"] = {"wall_s": walls}
    if args.trace:
        per_pass = [tracing.layer_metrics(tracer) for _, tracer, _ in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        }
        traced_walls = [p.wall for p, _, _ in traced]
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics["trace.overhead_ratio"] = overhead
        unmeasured = traced[0][2]
        metrics["trace.unmeasured_layers"] = len(unmeasured)
        record["layer_counters"] = tracing.counter_block(traced[0][1])
        record["unmeasured_layers"] = unmeasured
        record["uncounted_spans"] = sorted(traced[0][1].uncounted)
        record["timings"]["traced_wall_s"] = traced_walls
        record["spans"] = traced[-1][1].spans
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - len(failed)) / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
        record["timings"]["setup_s"] = setup
        record["timings"]["speed_probe_s"] = probe
    record["failed_items"] = failed
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"wall_s per pass ({len(walls)} samples): {[round(w, 4) for w in walls]}")
    if not args.trace:
        print(f"speed probe median: {statistics.median(probe):.4f} s")
    print("counters_sha256 " + record["counters_sha256"])
    print("wait: none; one thread, and every layer call blocks its caller")
    if args.trace and record["unmeasured_layers"]:
        print("unmeasured layers: " + ", ".join(record["unmeasured_layers"]))
    for item, reason in failed.items():
        print(f"FAILED {item}: {reason}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "certificates.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
