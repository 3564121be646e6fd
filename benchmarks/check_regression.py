"""Guard the hot-path benchmarks against performance regressions.

Compares a benchmark run (pytest-benchmark JSON) against the committed
baseline ``benchmarks/baseline.json`` and fails when any guarded
benchmark is more than ``--threshold`` (default 25%) slower than its
baseline.  Guarded groups are the hot-path experiments E01 (transitive
closure) and A01 (indexing ablation); other experiments are reported but
never fail the check.

    python benchmarks/check_regression.py                # run E01+A01, compare
    python benchmarks/check_regression.py --json run.json  # compare a prior run
    python benchmarks/check_regression.py --update       # rewrite the baseline
    python benchmarks/check_regression.py --plan-gate    # planner speedup gate
    python benchmarks/check_regression.py --bench-gate   # BENCH_* trend gate
    python benchmarks/check_regression.py --all          # every gate in one go

Comparison uses each benchmark's *min* time, which is far less noisy
than the mean on shared machines.  Transient load can still inflate a
whole run, so the suite is executed ``--runs`` times (default 2) and
each benchmark's best time across runs is what gets compared.

``--reports`` runs the *behavioural* gate instead: the reference
workload (benchmarks/telemetry.py) is evaluated under instrumentation
— once with plan=on and once with plan=off, whose count columns must
agree — and the plan=on run report is diffed against the committed
``benchmarks/report_baseline.json`` with ``repro diff`` strict-count
rules — count columns (fires, facts derived/deleted, iterations) are
deterministic and machine-portable, so any count delta on an unchanged
program fails; time columns only fail past a generous threshold that
absorbs machine-to-machine variance.  ``--update-reports`` rewrites
the baseline.

``--plan-gate`` runs the planner acceptance gate: E01 transitive
closure at 1000 edges, plan=on vs plan=off, identical instances
required and plan=on at least ``--speedup-target`` (default 5x) faster
on min time; the planner's JSON for the workload is written to
``benchmarks/results/plan_reference.json`` (the CI artifact).  The same
speedup check also fires in the benchmark comparison whenever a run
contains both ``test_logres_plan_on[1000]`` and
``test_logres_plan_off[1000]``.

``--telemetry-gate`` runs the live-telemetry acceptance gate on the
same E01 1000-edge workload: routing events through an
:class:`~repro.observability.bus.EventBus` (attached sink plus one
live subscriber, the ``repro tail`` shape) must cost at most
``--bus-overhead-target`` (default 5%) over emitting the same events
into a bare sink, and the *uninstrumented* run — the PR 3
zero-overhead-disabled fast path — must stay within
``--disabled-threshold`` of the committed
``test_logres_plan_on[1000]`` baseline (generous, since the committed
number may come from another machine).  It also compares observed runs
with production runs: for every matrix family at 10³ facts, the median
of 8 ABBA-paired ``profile_program`` / ``Engine.run`` time ratios must
be at most 1.25 and the instances identical — a profile must time the
algorithm production runs.

``--bench-gate`` runs the perf-trend gate over the committed
``BENCH_*.json`` history (the ``repro bench`` matrix rows plus the
pytest experiment rows): each (experiment, benchmark, config) series
regresses when its latest min-time exceeds the rolling median of the
preceding window by the trend threshold *and* the absolute floor —
see :mod:`repro.observability.trend`.  The series include the
``exp == "serve"`` rows of ``BENCH_serve.json`` (the p95 request
latencies from ``benchmarks/serve_load.py``).  ``--all`` chains every
gate (timing baseline, plan, telemetry, reports, bench trend) and
fails if any of them fails — the single entry point CI invokes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"
REPORT_BASELINE_PATH = HERE / "report_baseline.json"
#: committed report baselines come from other machines: only a massive
#: slowdown on a count-identical run is worth failing on
REPORT_TIME_THRESHOLD = 10.0
REPORT_TIME_FLOOR_MS = 250.0
GUARDED_GROUPS = ("e01-transitive-closure", "a01-indexing")
GUARDED_TARGETS = [
    str(HERE / "test_e01_transitive_closure.py"),
    str(HERE / "test_a01_indexing_ablation.py"),
]
DEFAULT_THRESHOLD = 0.25
#: ISSUE 6 acceptance: plan=on must be at least this much faster than
#: the plan=off semi-naive baseline on E01 at 1000 edges (min times)
PLAN_SPEEDUP_TARGET = 5.0
PLAN_ON_NAME = "test_logres_plan_on[1000]"
PLAN_OFF_NAME = "test_logres_plan_off[1000]"
#: telemetry gate: bus fan-out may cost at most this much over a bare
#: event sink on the instrumented E01 1000-edge run
BUS_OVERHEAD_TARGET = 0.05
#: telemetry gate: the uninstrumented run vs the committed baseline —
#: generous, the committed min may come from a different machine
DISABLED_OVERHEAD_THRESHOLD = 1.0
#: telemetry gate: median profile_program / Engine.run ratio per matrix
#: family at 10³ facts, over this many ABBA-ordered pairs
OBSERVED_RATIO_BOUND = 1.25
OBSERVED_PAIRS = 8
OBSERVED_SCALE = 1000


def extract(json_path: pathlib.Path) -> dict[str, dict]:
    """``{fullname: {group, min, mean}}`` for every guarded benchmark."""
    payload = json.loads(json_path.read_text())
    out: dict[str, dict] = {}
    for bench in payload.get("benchmarks", []):
        group = bench.get("group") or "ungrouped"
        if group not in GUARDED_GROUPS:
            continue
        out[bench["name"]] = {
            "group": group,
            "min": bench["stats"]["min"],
            "mean": bench["stats"]["mean"],
        }
    return out


def compare(
    baseline: dict[str, dict],
    current: dict[str, dict],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """(report lines, failure lines) for current vs baseline."""
    lines: list[str] = []
    failures: list[str] = []
    for name in sorted(baseline):
        base = baseline[name]
        now = current.get(name)
        if now is None:
            failures.append(f"{name}: present in baseline but not run")
            continue
        ratio = now["min"] / base["min"] if base["min"] else float("inf")
        verdict = "ok"
        if ratio > 1 + threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base['min'] * 1000:.2f} ms →"
                f" {now['min'] * 1000:.2f} ms ({ratio:.2f}x)"
            )
        lines.append(
            f"{verdict:>10}  {name}  {base['min'] * 1000:8.2f} ms →"
            f" {now['min'] * 1000:8.2f} ms  ({ratio:.2f}x)"
        )
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"{'new':>10}  {name}  (no baseline entry)")
    return lines, failures


def plan_speedup_check(current: dict[str, dict],
                       target: float) -> tuple[list[str], list[str]]:
    """When a run measured both the planned and unplanned E01 gate
    benchmarks, require plan=on to be at least ``target``x faster."""
    on = current.get(PLAN_ON_NAME)
    off = current.get(PLAN_OFF_NAME)
    if on is None or off is None:
        return [], []
    speedup = off["min"] / on["min"] if on["min"] else float("inf")
    line = (f"{'plan-gate':>10}  plan=off {off['min'] * 1000:.2f} ms /"
            f" plan=on {on['min'] * 1000:.2f} ms = {speedup:.2f}x"
            f" (target {target:.1f}x)")
    if speedup < target:
        return [line], [
            f"planner speedup {speedup:.2f}x below the"
            f" {target:.1f}x target"
        ]
    return [line], []


def best_of(runs: list[dict[str, dict]]) -> dict[str, dict]:
    """Per-benchmark fastest entry across several extracted runs."""
    out: dict[str, dict] = {}
    for run in runs:
        for name, entry in run.items():
            best = out.get(name)
            if best is None or entry["min"] < best["min"]:
                out[name] = entry
    return out


def run_guarded_benchmarks(json_path: pathlib.Path) -> None:
    from benchmarks.report import run_benchmarks

    run_benchmarks(GUARDED_TARGETS, json_path)


def check_plan_gate(target: float, reps: int) -> int:
    """The planner acceptance gate: E01 at 1000 edges, plan=on vs
    plan=off, identical instances and >= ``target``x faster; writes the
    plan JSON artifact for CI upload."""
    from benchmarks.telemetry import plan_gate_times, write_plan_artifact

    try:
        on_s, off_s = plan_gate_times(reps=reps)
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    speedup = off_s / on_s if on_s else float("inf")
    artifact = write_plan_artifact()
    print(f"plan=off min {off_s * 1000:.1f} ms |"
          f" plan=on min {on_s * 1000:.1f} ms |"
          f" speedup {speedup:.2f}x (target {target:.1f}x)")
    print(f"plan artifact written to {artifact}")
    if speedup < target:
        print(f"\nplanner speedup {speedup:.2f}x below the"
              f" {target:.1f}x target", file=sys.stderr)
        return 1
    print("\nok: planner speedup meets the target")
    return 0


def check_telemetry_gate(baseline_path: pathlib.Path, reps: int,
                         bus_target: float,
                         disabled_threshold: float) -> int:
    """The live-telemetry acceptance gate: bus fan-out overhead vs a
    bare sink bounded by ``bus_target``, the uninstrumented fast path
    still ≈ the committed baseline, and observed runs within
    :data:`OBSERVED_RATIO_BOUND` of production runs on every matrix
    family."""
    from benchmarks.telemetry import (
        bus_throughput,
        observed_vs_production,
        telemetry_gate_times,
    )

    try:
        plain_ts, sink_ts, bus_ts = telemetry_gate_times(reps=reps)
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain_s = min(plain_ts)
    # pair each rep's back-to-back sink/bus runs; each rep times the
    # pair in both orders, so load drift lands symmetrically around
    # the true fan-out cost and the median ratio is a robust estimate
    ratios = sorted(b / s for s, b in zip(sink_ts, bus_ts) if s)
    overhead = (statistics.median(ratios) - 1
                if ratios else float("inf"))
    rate = bus_throughput()
    print(f"plain min {plain_s * 1000:.1f} ms |"
          f" sink min {min(sink_ts) * 1000:.1f} ms |"
          f" bus min {min(bus_ts) * 1000:.1f} ms")
    print("paired bus/sink ratios: "
          + " ".join(f"{r:.3f}" for r in ratios))
    print(f"bus fan-out overhead {overhead:+.2%} (median pair,"
          f" target <= {bus_target:.0%}) |"
          f" bus throughput {rate:,.0f} events/s")
    failures = []
    if overhead > bus_target:
        failures.append(
            f"bus overhead {overhead:+.2%} above the"
            f" {bus_target:.0%} target"
        )
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        entry = baseline.get(PLAN_ON_NAME)
        if entry:
            ratio = plain_s / entry["min"] if entry["min"] else \
                float("inf")
            print(f"disabled path {plain_s * 1000:.1f} ms vs baseline"
                  f" {entry['min'] * 1000:.1f} ms ({ratio:.2f}x,"
                  f" allowed {1 + disabled_threshold:.2f}x)")
            if ratio > 1 + disabled_threshold:
                failures.append(
                    f"uninstrumented run {ratio:.2f}x the committed"
                    f" baseline (allowed"
                    f" {1 + disabled_threshold:.2f}x) — the disabled"
                    " fast path regressed"
                )
    else:
        print(f"note: no baseline at {baseline_path};"
              " disabled-path check skipped")
    observed = observed_vs_production(OBSERVED_SCALE, OBSERVED_PAIRS)
    for family, (ratios, identical) in observed.items():
        ratio = statistics.median(ratios)
        print(f"{family}[{OBSERVED_SCALE}]: profile/production median"
              f" {ratio:.2f}x (allowed {OBSERVED_RATIO_BOUND:.2f}x),"
              f" pairs " + " ".join(f"{r:.2f}" for r in ratios)
              + ("" if identical else " — INSTANCES DIFFER"))
        if not identical:
            failures.append(
                f"{family}: the profiled instance differs from the"
                " production instance"
            )
        if ratio > OBSERVED_RATIO_BOUND:
            failures.append(
                f"{family}: profiled run {ratio:.2f}x the production"
                f" run (allowed {OBSERVED_RATIO_BOUND:.2f}x)"
            )
    if failures:
        for failure in failures:
            print(f"\n{failure}", file=sys.stderr)
        return 1
    print("\nok: telemetry overhead within the gate")
    return 0


def check_reports(baseline_path: pathlib.Path, update: bool,
                  time_threshold: float) -> int:
    """The behavioural gate: fresh reference report vs committed one,
    plus a plan=on / plan=off count-agreement check."""
    from benchmarks.telemetry import reference_report
    from repro.engine import EvalConfig
    from repro.observability.diff import diff_reports
    from repro.observability.report import load_report

    current = reference_report()
    unplanned = reference_report(config=EvalConfig(plan=False))
    plan_diff = diff_reports(
        unplanned, current,
        threshold=time_threshold,
        min_time_ms=REPORT_TIME_FLOOR_MS,
        strict_counts=True,
        baseline_name="<reference run, plan=off>",
        candidate_name="<reference run, plan=on>",
    )
    if plan_diff.regressions():
        print(plan_diff.render_text())
        print(f"\nplan=on and plan=off disagree on"
              f" {len(plan_diff.regressions())} count column(s)",
              file=sys.stderr)
        return 1
    print("ok: plan=on and plan=off report identical counts")
    if update:
        current.write(baseline_path)
        print(f"wrote reference run report baseline to {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(f"error: no report baseline at {baseline_path};"
              " run with --update-reports first", file=sys.stderr)
        return 2
    try:
        baseline = load_report(baseline_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_reports(
        baseline, current,
        threshold=time_threshold,
        min_time_ms=REPORT_TIME_FLOOR_MS,
        strict_counts=True,
        baseline_name=str(baseline_path),
        candidate_name="<fresh reference run>",
    )
    print(diff.render_text())
    if diff.regressions():
        print(f"\n{len(diff.regressions())} report regression(s)",
              file=sys.stderr)
        return 1
    print("\nok: reference run report matches the baseline")
    return 0


def check_bench_gate(root: pathlib.Path, threshold: float,
                     min_time_ms: float, window: int,
                     min_points: int) -> int:
    """The trend gate: every ``BENCH_*.json`` series' latest point vs
    its own rolling-median history (the ``repro bench report`` rule)."""
    from repro.observability.trend import (
        TrendStore,
        render_trend_text,
        trend_report,
    )

    store = TrendStore.load(root)
    report = trend_report(store, threshold=threshold,
                          min_time_ms=min_time_ms, window=window,
                          min_points=min_points)
    print(render_trend_text(report), end="")
    if not store.series:
        print(f"note: no BENCH_*.json history under {root};"
              " trend gate vacuously passes")
        return 0
    if report["regressions"]:
        print(f"\n{len(report['regressions'])} trend regression(s)",
              file=sys.stderr)
        return 1
    return 0


def check_benchmarks(args) -> int:
    """The timing gate: run (or load) the guarded benchmarks and
    compare min times against the committed baseline."""
    if args.json:
        current = extract(pathlib.Path(args.json))
    else:
        runs = []
        for _ in range(max(1, args.runs)):
            json_path = pathlib.Path(tempfile.mkstemp(suffix=".json")[1])
            run_guarded_benchmarks(json_path)
            runs.append(extract(json_path))
        current = best_of(runs)
    if not current:
        print("error: no guarded benchmarks in the run", file=sys.stderr)
        return 2

    baseline_path = pathlib.Path(args.baseline)
    if args.update:
        baseline_path.write_text(json.dumps(current, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote {len(current)} baseline entries to {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(f"error: no baseline at {baseline_path};"
              " run with --update first", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    lines, failures = compare(baseline, current, args.threshold)
    gate_lines, gate_failures = plan_speedup_check(
        current, args.speedup_target
    )
    lines += gate_lines
    failures += gate_failures
    print("\n".join(lines))
    if failures:
        print(f"\n{len(failures)} regression(s) over"
              f" {args.threshold:.0%} threshold:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nok: no benchmark slower than baseline by more than"
          f" {args.threshold:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="reuse an existing benchmark JSON"
                                       " instead of running the suite")
    parser.add_argument("--baseline", default=str(BASELINE_PATH),
                        help="baseline JSON path")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed slowdown fraction (0.25 = 25%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead"
                             " of comparing")
    parser.add_argument("--runs", type=int, default=2,
                        help="benchmark suite executions; each benchmark's"
                             " best time across runs is compared")
    parser.add_argument("--reports", action="store_true",
                        help="run the behavioural gate: diff the fresh"
                             " reference run report against the committed"
                             " baseline (strict counts)")
    parser.add_argument("--report-baseline",
                        default=str(REPORT_BASELINE_PATH),
                        help="committed run-report baseline path")
    parser.add_argument("--report-time-threshold", type=float,
                        default=REPORT_TIME_THRESHOLD,
                        help="allowed report slowdown factor minus one"
                             " (default: 10.0 = 11x)")
    parser.add_argument("--update-reports", action="store_true",
                        help="rewrite the run-report baseline from a"
                             " fresh reference run")
    parser.add_argument("--plan-gate", action="store_true",
                        help="run the planner acceptance gate: E01 at"
                             " 1000 edges, plan=on vs plan=off")
    parser.add_argument("--speedup-target", type=float,
                        default=PLAN_SPEEDUP_TARGET,
                        help="required plan=on speedup factor for the"
                             " plan gate (default: 5.0)")
    parser.add_argument("--gate-reps", type=int, default=3,
                        help="interleaved repetitions for the plan gate"
                             " (min time wins)")
    parser.add_argument("--telemetry-gate", action="store_true",
                        help="run the live-telemetry acceptance gate:"
                             " bus fan-out overhead and the disabled"
                             " fast path on E01 at 1000 edges")
    parser.add_argument("--bus-overhead-target", type=float,
                        default=BUS_OVERHEAD_TARGET,
                        help="allowed bus-vs-bare-sink overhead"
                             " fraction (default: 0.05 = 5%%)")
    parser.add_argument("--disabled-threshold", type=float,
                        default=DISABLED_OVERHEAD_THRESHOLD,
                        help="allowed uninstrumented slowdown fraction"
                             " vs the committed baseline (default: 1.0"
                             " = 2x, generous for cross-machine"
                             " baselines)")
    parser.add_argument("--bench-gate", action="store_true",
                        help="run the trend gate: each BENCH_*.json"
                             " series' latest point vs its rolling-"
                             "median history")
    parser.add_argument("--bench-root", default=str(HERE.parent),
                        help="directory holding the BENCH_*.json"
                             " history (default: the repo root)")
    parser.add_argument("--bench-threshold", type=float, default=None,
                        help="trend-gate relative slowdown (default:"
                             " 0.5 = +50%% over the rolling median)")
    parser.add_argument("--bench-min-time-ms", type=float, default=None,
                        help="trend-gate absolute jitter floor in ms"
                             " (default: 5.0)")
    parser.add_argument("--bench-window", type=int, default=None,
                        help="trend-gate rolling-median window"
                             " (default: 5)")
    parser.add_argument("--bench-min-points", type=int, default=None,
                        help="minimum series length before the trend"
                             " gate flags (default: 3)")
    parser.add_argument("--all", action="store_true",
                        help="run every gate in sequence — timing"
                             " baseline, plan, telemetry, reports and"
                             " bench trend — and fail if any fails")
    args = parser.parse_args(argv)

    def _trend_args() -> tuple:
        from repro.observability import trend

        return (
            pathlib.Path(args.bench_root),
            args.bench_threshold if args.bench_threshold is not None
            else trend.DEFAULT_THRESHOLD,
            args.bench_min_time_ms
            if args.bench_min_time_ms is not None
            else trend.DEFAULT_MIN_TIME_MS,
            args.bench_window if args.bench_window is not None
            else trend.DEFAULT_WINDOW,
            args.bench_min_points if args.bench_min_points is not None
            else trend.DEFAULT_MIN_POINTS,
        )

    def bench_gate() -> int:
        return check_bench_gate(*_trend_args())

    if args.all:
        gates = (
            ("benchmarks", lambda: check_benchmarks(args)),
            ("plan-gate", lambda: check_plan_gate(
                args.speedup_target, args.gate_reps)),
            ("telemetry-gate", lambda: check_telemetry_gate(
                pathlib.Path(args.baseline), max(args.gate_reps, 5),
                args.bus_overhead_target, args.disabled_threshold)),
            ("reports", lambda: check_reports(
                pathlib.Path(args.report_baseline),
                update=args.update_reports,
                time_threshold=args.report_time_threshold)),
            ("bench-gate", bench_gate),
        )
        outcomes: list[tuple[str, int]] = []
        for name, gate in gates:
            print(f"==== {name} ====")
            outcomes.append((name, gate()))
            print()
        print("gate summary: " + "  ".join(
            f"{name}={'ok' if code == 0 else f'FAIL({code})'}"
            for name, code in outcomes
        ))
        return max((code for _, code in outcomes), default=0)

    if args.plan_gate:
        return check_plan_gate(args.speedup_target, args.gate_reps)

    if args.telemetry_gate:
        # resolving a 5% bound needs more samples than the 5x plan
        # bound: min-of-3 on the instrumented run still wobbles ~5%
        return check_telemetry_gate(
            pathlib.Path(args.baseline), max(args.gate_reps, 5),
            args.bus_overhead_target, args.disabled_threshold,
        )

    if args.reports or args.update_reports:
        return check_reports(
            pathlib.Path(args.report_baseline),
            update=args.update_reports,
            time_threshold=args.report_time_threshold,
        )

    if args.bench_gate:
        return bench_gate()

    return check_benchmarks(args)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    sys.exit(main())
