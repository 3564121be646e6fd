"""The LOGRES benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads, metrics and caveats: ``perfbench/README.md``.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

BATCH_SPAWNS = 3
WORKER_TIMEOUT = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(main_ms, throughput: float, setups, rss_mb: float):
    """The gated metrics, or ``None`` when the guard refuses the median
    (reported here as missing; the run then fails)."""
    if stats.percentile(main_ms, 50) is None:
        print(f"p50 of {len(main_ms)} samples is missing: fewer than"
              f" {stats.MIN_BEYOND} samples beyond it")
        return None
    return {
        "p50_ms": metric(stats.median(main_ms), "ms"),
        "throughput_ops_s": metric(throughput, "ops/s"),
        "setup_s": metric(stats.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def summary(name: str, values_ms) -> str:
    """``name n=.. p50=.. p90=.. p95=..``; a refused percentile reads
    ``missing``."""
    out = stats.latency_summary(values_ms)
    return f"{name} n={out.pop('n')} " + " ".join(
        f"{k}={'missing' if v is None else f'{v:.2f}'}"
        for k, v in out.items())


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------
def run_serve_workload(name: str, seed: int, seconds: float, trace: bool,
                       root: str, work: str):
    workload = inputs.SERVE_WORKLOADS[name]
    run = serve.run_serve(workload, seed, seconds, trace, root, work)
    ok = [s for s in run.samples if s.status == 200]
    reads = [s.latency_ms for s in ok if s.op.is_read]
    writes = [s.latency_ms for s in ok if not s.op.is_read]
    main = reads if workload.main_op == "read" else writes
    for problem in run.problems:
        print(f"check failed: {problem}")
    failed = run.failed + len(run.problems)
    print(f"{name}: {summary('reads', reads)} ms;"
          f" {summary('writes', writes)} ms;"
          f" error_ratio={failed / max(1, run.attempted):.4f}"
          f" ({failed}/{run.attempted});"
          f" setup_s={[round(s, 4) for s in run.setups]}")
    if trace:
        spans = tracing.load(run.spans_path)
        traced_main = [s.latency_ms for s in run.traced if s.status == 200
                       and (s.op.is_read == (workload.main_op == "read"))]
        overhead = (statistics.mean(traced_main) / statistics.mean(main)
                    if traced_main and main else 0.0)
        return run.attempted, failed, layer_result(layers.serve_metrics(
            spans, run.traced, run.reference_s * 1000.0, overhead))
    return run.attempted, failed, end_to_end(
        main, run.throughput, run.setups, run.peak_rss_mb)


def layer_result(values: dict) -> dict:
    """Every per-layer name; a layer the workload did not run is 0."""
    return {name: metric(float(values.get(name, 0.0)), layers.unit_of(name))
            for name in layers.layer_names()}


# ---------------------------------------------------------------------------
# batch-eval
# ---------------------------------------------------------------------------
def _spawn_worker(root: str, work: str, seed: int, seconds: float,
                  extra: list[str]) -> float:
    """Run one batch worker to completion; returns its set-up time."""
    ready = os.path.join(work, "ready")
    cmd = [sys.executable, os.path.join(HERE, "batch_worker.py"),
           "--seed", str(seed), "--seconds", str(seconds),
           "--ready", ready, *extra]
    proc, _, setup = procs.start("batch worker", cmd, root, ready,
                                 os.path.join(work, "worker.log"))
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        procs.stop(proc)
    if code != 0:
        raise RuntimeError(f"batch worker exited with {code}")
    return setup


def run_batch_workload(seed: int, seconds: float, trace: bool, root: str,
                       work: str):
    setups = [_spawn_worker(root, work, seed, seconds, ["--setup-only"])
              for _ in range(BATCH_SPAWNS - 1)]
    out_path = os.path.join(work, "batch.json")
    extra = ["--out", out_path]
    spans_path = os.path.join(work, "spans.json")
    if trace:
        extra += ["--spans", spans_path]
    setups.append(_spawn_worker(root, work, seed, seconds, extra))
    with open(out_path, encoding="utf-8") as f:
        result = json.load(f)
    evals = sum(len(v) for v in result["eval_ms"].values())
    failed = len(result["mismatches"])
    for fam in result["mismatches"]:
        print(f"check failed: {fam} instance differs from the reference"
              " kernel's")
    per_family = " ".join(
        f"{fam}.eval_ms={stats.median(v):.2f}"
        for fam, v in result["eval_ms"].items())
    print(f"batch-eval: {summary('passes', result['pass_ms'])} ms; {evals}"
          f" evaluations; {per_family};"
          f" setup_s={[round(s, 4) for s in setups]}")
    if trace:
        spans = tracing.load(spans_path)
        overhead = (statistics.mean(result["traced_pass_ms"])
                    / statistics.mean(result["pass_ms"]))
        return evals, failed, layer_result(
            layers.batch_metrics(spans, result, overhead))
    # passes per second of evaluation time (collections excluded)
    ends = [ms / 1000.0 for ms in itertools.accumulate(result["pass_ms"])]
    throughput = stats.windowed_rate(ends, 0.0, ends[-1])
    return evals, failed, end_to_end(result["pass_ms"], throughput, setups,
                                     result["peak_rss_mb"])


# ---------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail(f"no program to measure: {src}/repro is missing"
                    " (run from the root of a source checkout)")
    sys.path.insert(0, src)

    problems = inputs.check_pins(args.workload, args.seed,
                                 inputs.load_pins())
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1

    work = os.path.join(root, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "batch-eval":
            attempted, failed, metrics = run_batch_workload(
                args.seed, args.seconds, bool(args.trace), root, work)
        else:
            attempted, failed, metrics = run_serve_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
