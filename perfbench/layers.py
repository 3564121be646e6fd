"""Per-layer metrics from the spans of a traced run.

Every workload reports every name in :func:`layer_names`; a layer the
workload does not run reports 0.  Times are milliseconds, normalised as
the name says: per operation (``_per_op``, or plain ``_ms`` of a layer
every operation passes), per read, per write, or per call.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Span, children_of, outermost, self_time

SHARE_LAYERS = (
    "unattributed", "transport", "server.admission", "server.registry",
    "server.wal", "storage.persist", "storage.factset", "language.parser",
    "modules.apply", "modules.txn", "modules.state", "engine.fixpoint",
    "engine.planner", "engine.compile", "engine.goals",
    "constraints.checker",
)
GENERIC = (
    "server.http.self_ms", "server.http.transport_ms",
    "server.admission.wait_ms", "server.admission.shed",
    "server.registry.read_lock_wait_ms", "server.registry.write_lock_wait_ms",
    "server.registry.write_lock_hold_ms", "server.registry.snapshot_copy_ms",
    "server.wal.append_ms", "server.wal.bytes_per_write",
    "server.wal.replay_ms_per_record",
    "storage.persist.snapshot_ms", "storage.persist.snapshot_bytes",
    "storage.persist.load_ms",
    "storage.factset.copy_ms", "storage.factset.copies_per_op",
    "language.parser.ms_per_op",
    "modules.apply.ms", "modules.txn.fingerprint_ms",
    "modules.state.materialize_ms", "modules.state.materialize_calls_per_op",
    "engine.fixpoint.run_ms", "engine.fixpoint.runs_per_op",
    "engine.fixpoint.iterations", "engine.fixpoint.derived_per_op",
    "engine.fixpoint.inventions", "engine.fixpoint.reference_ms",
    "engine.planner.build_ms", "engine.planner.plans_per_run",
    "engine.compile.compile_ms", "engine.compile.compiled_share",
    "engine.goals.answer_ms", "engine.goals.answers_per_read",
    "constraints.checker.check_ms",
    "constraints.checker.facts_checked_per_write",
    "constraints.checker.delta_share",
    "trace.overhead_ratio",
)
ENGINE = (
    "engine.fixpoint.run_ms", "engine.fixpoint.iterations",
    "engine.fixpoint.derived_per_op", "engine.fixpoint.inventions",
    "engine.fixpoint.reference_ms", "engine.planner.build_ms",
    "engine.planner.plans_per_run", "engine.compile.compile_ms",
    "engine.compile.compiled_share",
)
PER_FAMILY = ("eval_ms", "profile_ms", "profile_ratio", *ENGINE)
FAMILIES = ("kg", "rbac", "reach", "genealogy")


def layer_names() -> list[str]:
    return [*GENERIC, *(f"share.{layer}" for layer in SHARE_LAYERS),
            *(f"{fam}.{name}" for fam in FAMILIES for name in PER_FAMILY)]


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "ms" or leaf.startswith("ms_") or "_ms" in leaf:
        return "ms"
    if "bytes" in leaf:
        return "B"
    if leaf == "shed":
        return "count"
    for per in ("op", "read", "write", "run"):
        if leaf.endswith(f"_per_{per}"):
            return f"count/{per}"
    if leaf == "iterations":
        return "count/run"
    if leaf == "inventions":
        return "count/op"
    return "ratio"


#: per-layer metrics whose increase is the improvement
HIGHER_IS_BETTER = ("compiled_share", "delta_share")


def better(name: str) -> str:
    return ("higher" if name.rsplit(".", 1)[-1] in HIGHER_IS_BETTER
            else "lower")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sum(spans) -> float:
    return sum(s.duration for s in spans)


def engine_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """The engine.* names over ``spans`` (``ops`` operations)."""
    runs = [s for s in spans if s.layer == "engine.fixpoint"]
    plans = [s for s in spans if s.layer == "engine.planner"]
    compiles = [s for s in spans if s.layer == "engine.compile"]
    return {
        "engine.fixpoint.run_ms": _ms(_div(
            _sum(outermost(spans, "engine.fixpoint")), ops)),
        "engine.fixpoint.runs_per_op": _div(len(runs), ops),
        "engine.fixpoint.iterations": _div(
            sum(s.attrs.get("iterations", 0) for s in runs), len(runs)),
        "engine.fixpoint.derived_per_op": _div(
            sum(s.attrs.get("derived", 0) for s in runs), ops),
        "engine.fixpoint.inventions": _div(
            sum(s.attrs.get("inventions", 0) for s in runs), ops),
        "engine.planner.build_ms": _ms(_div(_sum(plans), len(runs))),
        "engine.planner.plans_per_run": _div(len(plans), len(runs)),
        "engine.compile.compile_ms": _ms(_div(_sum(compiles), len(runs))),
        "engine.compile.compiled_share": _div(
            sum(s.attrs.get("compiled", 0) for s in compiles),
            len(compiles)),
    }


def shares(spans: list[Span], roots: list[Span], client_s: float,
           transport_s: float = 0.0) -> dict[str, float]:
    """Share of client-observed time per layer, by self time."""
    children = children_of(spans)
    root_ids = {r.id for r in roots}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.attrs.get("overlay"):
            continue
        layer = ("unattributed" if span.id in root_ids
                 else span.layer.split(":")[0])
        totals[layer] += self_time(span, children)
    totals["transport"] = transport_s
    return {f"share.{layer}": _div(totals.get(layer, 0.0), client_s)
            for layer in SHARE_LAYERS}


def serve_metrics(spans: list[Span], samples, reference_ms: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced serve phase.  ``samples`` are the
    client's (successful) samples of that phase, joined to the server's
    spans by run id."""
    roots = {s.request: s for s in spans
             if s.layer == "server.http" and s.request is not None}
    matched = [(x, roots[x.run_id]) for x in samples
               if x.status == 200 and x.run_id in roots]
    reads = {x.run_id for x, _ in matched if x.op.is_read}
    writes = {x.run_id for x, _ in matched if not x.op.is_read}
    n_ops, n_reads, n_writes = len(matched), len(reads), len(writes)
    in_ops = [s for s in spans if s.request in reads or s.request in writes]
    in_reads = [s for s in in_ops if s.request in reads]
    in_writes = [s for s in in_ops if s.request in writes]

    def of(group, layer):
        return [s for s in group if s.layer == layer]

    children = children_of(spans)
    transport = sum(x.latency_ms / 1000.0 - root.duration
                    for x, root in matched)
    client = sum(x.latency_ms / 1000.0 for x, _ in matched)
    snapshots = of(spans, "storage.persist:snapshot")
    loads = of(spans, "storage.persist:load")
    opens = [s for s in of(spans, "server.wal:open")
             if s.attrs.get("records")]
    open_loads = [l for l in loads for o in opens
                  if o.start <= l.start and l.end <= o.end]
    appends = of(in_writes, "server.wal:append")
    checks = of(in_writes, "constraints.checker")
    applies = of(in_writes, "modules.apply")
    goals = of(in_reads, "engine.goals")
    snap = of(in_reads, "server.registry:snapshot")
    read_waits = of(in_reads, "server.registry:read_wait")
    out = {
        "server.http.self_ms": _ms(_div(sum(
            self_time(root, children) for _, root in matched), n_ops)),
        "server.http.transport_ms": _ms(_div(transport, n_ops)),
        "server.admission.wait_ms": _ms(_div(
            _sum(of(in_ops, "server.admission")), n_ops)),
        "server.admission.shed": float(sum(
            s.attrs.get("shed", 0) for s in of(spans, "server.admission"))),
        "server.registry.read_lock_wait_ms": _ms(_div(
            _sum(read_waits), n_reads)),
        "server.registry.write_lock_wait_ms": _ms(_div(
            _sum(of(in_writes, "server.registry:write_wait")), n_writes)),
        "server.registry.write_lock_hold_ms": _ms(_div(
            _sum(of(in_writes, "server.registry:write_hold")), n_writes)),
        "server.registry.snapshot_copy_ms": _ms(_div(
            _sum(snap) - _sum(read_waits), n_reads)),
        "server.wal.append_ms": _ms(_div(_sum(appends), n_writes)),
        "server.wal.bytes_per_write": _div(
            sum(s.attrs.get("bytes", 0) for s in appends), len(appends)),
        "server.wal.replay_ms_per_record": _ms(_div(
            _sum(opens) - _sum(open_loads),
            sum(s.attrs["records"] for s in opens))),
        "storage.persist.snapshot_ms": _ms(_div(_sum(snapshots),
                                                len(snapshots))),
        "storage.persist.snapshot_bytes": _div(
            sum(s.attrs.get("bytes", 0) for s in snapshots), len(snapshots)),
        "storage.persist.load_ms": _ms(_div(_sum(loads), len(loads))),
        "storage.factset.copy_ms": _ms(_div(
            _sum(outermost(in_ops, "storage.factset")), n_ops)),
        "storage.factset.copies_per_op": _div(
            len(of(in_ops, "storage.factset")), n_ops),
        "language.parser.ms_per_op": _ms(_div(
            _sum(outermost(in_ops, "language.parser")), n_ops)),
        "modules.apply.ms": _ms(_div(_sum(applies), n_writes)),
        "modules.txn.fingerprint_ms": _ms(_div(
            _sum(of(in_writes, "modules.txn")), n_writes)),
        "modules.state.materialize_ms": _ms(_div(
            _sum(outermost(in_ops, "modules.state")), n_ops)),
        "modules.state.materialize_calls_per_op": _div(
            len(of(in_ops, "modules.state")), n_ops),
        **engine_metrics(in_ops, n_ops),
        "engine.fixpoint.reference_ms": reference_ms,
        "engine.goals.answer_ms": _ms(_div(_sum(goals), n_reads)),
        "engine.goals.answers_per_read": _div(
            sum(s.attrs.get("answers", 0) for s in goals), n_reads),
        "constraints.checker.check_ms": _ms(_div(_sum(checks), n_writes)),
        "constraints.checker.facts_checked_per_write": _div(
            sum(s.attrs.get("facts", 0) for s in checks), n_writes),
        "constraints.checker.delta_share": _div(
            sum(s.attrs.get("delta", 0) for s in applies),
            sum(s.attrs.get("facts", 0) for s in checks)),
        "trace.overhead_ratio": overhead_ratio,
    }
    out.update(shares(in_ops, [root for _, root in matched], client,
                      transport))
    return out


def batch_metrics(spans: list[Span], result: dict,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced batch run (``result`` is the
    worker's output)."""
    from stats import median

    roots = [s for s in spans if s.layer == "batch.eval"]
    by_request = {r.request: r.attrs["family"] for r in roots}
    out = engine_metrics(spans, len(roots))
    out.update({
        "storage.factset.copy_ms": _ms(_div(
            _sum(outermost(spans, "storage.factset")), len(roots))),
        "storage.factset.copies_per_op": _div(
            len([s for s in spans if s.layer == "storage.factset"]),
            len(roots)),
        "language.parser.ms_per_op": _ms(_div(
            _sum(outermost(spans, "language.parser")), len(roots))),
        "engine.fixpoint.reference_ms": _div(
            sum(result["reference_ms"].values()),
            len(result["reference_ms"])),
        "trace.overhead_ratio": overhead_ratio,
    })
    out.update(shares(spans, roots, _sum(roots)))
    for fam in FAMILIES:
        mine = [s for s in spans if by_request.get(s.request) == fam]
        evals = [r for r in roots if r.attrs["family"] == fam]
        eval_ms = median(result["eval_ms"][fam])
        profile_ms = result["profile_ms"][fam]
        out.update({f"{fam}.{k}": v for k, v in
                    engine_metrics(mine, len(evals)).items()
                    if k in ENGINE})
        out[f"{fam}.engine.fixpoint.reference_ms"] = \
            result["reference_ms"][fam]
        out[f"{fam}.eval_ms"] = eval_ms
        out[f"{fam}.profile_ms"] = profile_ms
        out[f"{fam}.profile_ratio"] = _div(profile_ms, eval_ms)
    return out
