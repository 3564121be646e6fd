"""The instrumentation facade the engine talks to.

One :class:`Instrumentation` bundles a :class:`MetricsRegistry`, an
event sink and a :class:`PhaseTimer`.  The engine holds exactly one
(:data:`NULL_INSTRUMENTATION` by default) and guards every emit point
with the precomputed ``enabled`` flag, so the disabled path costs one
attribute read per guard and never allocates an event object.

Typed emit helpers keep the call sites one line each: the helper
updates the per-(rule, stratum, predicate) metrics and, only when a
real sink is attached, constructs and emits the event objects.

Every emitted event is stamped with the **trace-context envelope**
(``run_id`` / ``span_id`` / ``parent_span_id``) from this
instrumentation's :class:`~repro.observability.events.TraceContext`:
boundary pairs (run / stratum / iteration) open a span on the start
event and close it on the end event, point events carry the innermost
open span.  The :class:`PhaseTimer` shares the same context, so timing
spans and event spans interleave in one consistent tree.

When a ``heartbeat_interval`` is set, :meth:`maybe_heartbeat` (called
by the kernels at iteration boundaries) emits a periodic
:class:`~repro.observability.events.Heartbeat` and flushes the sink,
which is what keeps an attached ``repro tail`` live during a long
fixpoint.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.observability.events import (
    ConstraintViolated,
    FactDeleted,
    Heartbeat,
    IterationFinished,
    IterationStarted,
    ModuleRollback,
    OidInvented,
    PlanChosen,
    RuleFired,
    RunFinished,
    RunStarted,
    StratumFinished,
    StratumStarted,
    TraceContext,
    payload_header,
)
from repro.observability.metrics import (
    IndexStats,
    Labels,
    MetricsRegistry,
)
from repro.observability.sink import NULL_SINK, EventSink, MultiSink
from repro.observability.timing import NULL_TIMER, PhaseTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.step import RuleRuntime
    from repro.storage.factset import Fact

clock = time.perf_counter


class Instrumentation:
    """Metrics + event stream + phase timer for one engine run."""

    __slots__ = (
        "metrics", "sink", "timer", "index_stats", "source_file",
        "enabled", "emit_events", "iteration", "stratum", "_rule_meta",
        "trace", "heartbeat_interval", "_heartbeat_last",
        "_run_started_at", "_run_span", "_stratum_span", "_iter_span",
    )

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        source_file: str | None = None,
        trace: TraceContext | None = None,
        heartbeat_interval: float | None = None,
    ):
        self.metrics = metrics
        self.sink = sink if sink is not None else NULL_SINK
        self.emit_events = self.sink is not NULL_SINK
        self.enabled = metrics is not None or self.emit_events
        self.trace = (
            trace if trace is not None
            else TraceContext() if self.enabled else None
        )
        self.timer: Any = (
            PhaseTimer(self.trace) if self.enabled else NULL_TIMER
        )
        self.index_stats = IndexStats()
        self.source_file = source_file
        self.iteration = 0
        self.stratum: int | None = None
        self.heartbeat_interval = heartbeat_interval
        self._heartbeat_last = 0.0
        self._run_started_at = clock()
        self._run_span: str | None = None
        self._stratum_span: str | None = None
        self._iter_span: str | None = None
        # per-rule cached (labels, repr, line, column)
        self._rule_meta: dict[int, tuple[Labels, str, int | None,
                                         int | None]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, source_file: str | None = None) -> "Instrumentation":
        """Metrics-only instrumentation (what ``repro profile`` uses)."""
        return cls(MetricsRegistry(), source_file=source_file)

    def with_extra_sink(self, sink) -> "Instrumentation":
        """A copy that also feeds ``sink``, sharing metrics, timer and
        trace context (so both streams stamp one consistent span tree)."""
        out = Instrumentation(
            self.metrics, source_file=self.source_file,
            trace=self.trace, heartbeat_interval=self.heartbeat_interval,
        )
        out.sink = (
            MultiSink([self.sink, sink])
            if self.sink is not NULL_SINK else sink
        )
        out.emit_events = True
        out.enabled = True
        if out.trace is None:
            out.trace = TraceContext()
        out.timer = self.timer if self.timer is not NULL_TIMER \
            else PhaseTimer(out.trace)
        out.index_stats = self.index_stats
        out._rule_meta = self._rule_meta
        return out

    def phase(self, name: str):
        """Nested timing span (no-op context manager when disabled)."""
        return self.timer.phase(name)

    # ------------------------------------------------------------------
    # emit helpers (call only when ``enabled``)
    # ------------------------------------------------------------------
    def _meta(self, runtime: "RuleRuntime"):
        meta = self._rule_meta.get(runtime.index)
        if meta is None:
            span = runtime.rule.span
            meta = (
                (("rule", str(runtime.index)),),
                repr(runtime.rule),
                span.line if span else None,
                span.column if span else None,
            )
            self._rule_meta[runtime.index] = meta
        return meta

    def _point(self) -> tuple[str | None, str | None, str | None]:
        """``(run_id, span_id, parent)`` for a point event."""
        t = self.trace
        if t is None:
            return None, None, None
        span_id, parent = t.current()
        return t.run_id, span_id, parent

    def run_started(self, semantics: str, n_rules: int) -> None:
        self._run_started_at = clock()
        self._heartbeat_last = self._run_started_at
        if self.emit_events:
            t = self.trace
            span_id, parent = t.start_span()
            self._run_span = span_id
            self.sink.emit(RunStarted(
                semantics=semantics, rules=n_rules,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def run_finished(self, iterations: int, facts: int, inventions: int,
                     elapsed: float) -> None:
        m = self.metrics
        if m is not None:
            st = self.index_stats
            m.inc("factset_index_hits", amount=st.hits)
            m.inc("factset_index_misses", amount=st.misses)
            m.inc("factset_index_builds", amount=st.builds)
            st.hits = st.misses = st.builds = 0
            m.set_gauge("run_iterations", value=iterations)
            m.set_gauge("run_facts", value=facts)
            m.set_gauge("run_inventions", value=inventions)
            m.observe("run_time", value=elapsed)
            fold = getattr(self.sink, "fold_metrics", None)
            if fold is not None:
                fold(m)
        if self.emit_events:
            t = self.trace
            if self._run_span is not None:
                span_id, parent = t.end_span_until(self._run_span)
                self._run_span = None
            else:
                span_id, parent = t.current()
            self.sink.emit(RunFinished(
                iterations=iterations, facts=facts,
                inventions=inventions, elapsed=elapsed,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def stratum_started(self, index: int, n_rules: int) -> None:
        self.stratum = index
        if self.metrics is not None:
            self.metrics.set_gauge(
                "stratum_rules", (("stratum", str(index)),), n_rules
            )
        if self.emit_events:
            t = self.trace
            span_id, parent = t.start_span()
            self._stratum_span = span_id
            self.sink.emit(StratumStarted(
                index=index, rules=n_rules,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def stratum_finished(self, index: int, elapsed: float) -> None:
        self.stratum = None
        if self.metrics is not None:
            self.metrics.observe(
                "stratum_time", (("stratum", str(index)),), elapsed
            )
        if self.emit_events:
            t = self.trace
            if self._stratum_span is not None:
                span_id, parent = t.end_span_until(self._stratum_span)
                self._stratum_span = None
            else:
                span_id, parent = t.current()
            self.sink.emit(StratumFinished(
                index=index, elapsed=elapsed,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def iteration_started(self, number: int) -> None:
        self.iteration = number
        if self.emit_events:
            t = self.trace
            span_id, parent = t.start_span()
            self._iter_span = span_id
            self.sink.emit(IterationStarted(
                number=number,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def iteration_finished(self, number: int, elapsed: float) -> None:
        if self.metrics is not None:
            self.metrics.observe("iteration_time", value=elapsed)
        if self.emit_events:
            t = self.trace
            if self._iter_span is not None:
                span_id, parent = t.end_span_until(self._iter_span)
                self._iter_span = None
            else:
                span_id, parent = t.current()
            self.sink.emit(IterationFinished(
                number=number, elapsed=elapsed,
                run_id=t.run_id, span_id=span_id, parent_span_id=parent,
            ))

    def maybe_heartbeat(self, facts: int, inventions: int = 0) -> None:
        """Emit a :class:`Heartbeat` when the cadence interval elapsed.

        Called by the kernels at iteration boundaries; cheap when the
        interval has not passed (one clock read).  Every heartbeat also
        flushes the sink so a live ``repro tail`` sees current state."""
        interval = self.heartbeat_interval
        if interval is None or not self.emit_events:
            return
        now = clock()
        if now - self._heartbeat_last < interval:
            return
        self._heartbeat_last = now
        run_id, span_id, parent = self._point()
        self.sink.emit(Heartbeat(
            iteration=self.iteration, stratum=self.stratum,
            facts=facts, inventions=inventions,
            elapsed=now - self._run_started_at,
            run_id=run_id, span_id=span_id, parent_span_id=parent,
        ))
        self.flush()

    def rule_fired(
        self,
        runtime: "RuleRuntime",
        contributed: list["Fact"],
        bindings,
    ) -> None:
        """One body valuation contributed ``contributed``: one fact event
        each, a deletion for a negated head.  Events only — the
        evaluation loops count through :meth:`rule_counted`."""
        if self.emit_events and contributed:
            _, rule_repr, line, column = self._meta(runtime)
            cls = FactDeleted if runtime.rule.head.negated else RuleFired
            run_id, span_id, parent = self._point()
            for fact in contributed:
                self.sink.emit(cls(
                    rule_index=runtime.index,
                    rule=rule_repr,
                    pred=fact.pred,
                    fact=repr(fact),
                    iteration=self.iteration,
                    file=self.source_file,
                    line=line,
                    column=column,
                    run_id=run_id,
                    span_id=span_id,
                    parent_span_id=parent,
                    fact_value=fact,
                    rule_value=runtime.rule,
                    bindings_value=bindings,
                ))

    def rule_counted(self, runtime: "RuleRuntime", valuations: int,
                     matched: int, facts: int, inventions: int = 0,
                     compiled: bool = False) -> None:
        """A batch of one rule's counts, the only way rule counts reach
        the registry — the evaluation loops fold one per rule per round:
        ``valuations`` body valuations, ``matched`` of which contributed
        ``facts`` head facts in all (derived, or deleted for a deletion
        head), and ``inventions`` fresh oids.  ``compiled`` records
        that the rule's compiled body ran."""
        m = self.metrics
        if m is None:
            return
        rule_labels = self._meta(runtime)[0]
        head = runtime.rule.head
        if compiled:
            m.set_gauge("rule_compiled", rule_labels, 1)
        if valuations:
            m.inc("rule_valuations", rule_labels, valuations)
        if matched:
            m.inc("rule_valuations_matched", rule_labels, matched)
            m.inc("rule_fires", rule_labels, facts)
            m.inc("rule_facts_deleted" if head.negated
                  else "rule_facts_derived", rule_labels, facts)
            m.inc("pred_facts_contributed", (("pred", head.pred),), facts)
        if valuations > matched:
            m.inc("rule_duplicates", rule_labels, valuations - matched)
        if inventions:
            m.inc("rule_inventions", rule_labels, inventions)

    def rule_evaluated(self, runtime: "RuleRuntime",
                       elapsed: float) -> None:
        """Wall time one rule spent in one full body+head evaluation."""
        if self.metrics is not None:
            rule_labels = self._meta(runtime)[0]
            self.metrics.observe("rule_time", rule_labels, elapsed)

    def invention(self, runtime: "RuleRuntime", oid) -> None:
        """A rule minted ``oid``: one event.  Events only — the
        evaluation loops count inventions through :meth:`rule_counted`."""
        if self.emit_events:
            _, rule_repr, line, column = self._meta(runtime)
            run_id, span_id, parent = self._point()
            self.sink.emit(OidInvented(
                rule_index=runtime.index, rule=rule_repr, oid=repr(oid),
                iteration=self.iteration, file=self.source_file,
                line=line, column=column,
                run_id=run_id, span_id=span_id, parent_span_id=parent,
            ))

    def plan_chosen(self, plan) -> None:
        """The planner fixed literal orders (:mod:`repro.engine.planner`)."""
        if self.metrics is not None:
            labels = (("semantics", plan.semantics),) if plan.stratum is None \
                else (("semantics", plan.semantics),
                      ("stratum", str(plan.stratum)))
            self.metrics.inc("plans_built", labels)
            self.metrics.inc(
                "plan_rules_reordered", labels,
                sum(1 for r in plan.rules if r.reordered),
            )
            self.metrics.inc(
                "plan_rules_fallback", labels,
                sum(1 for r in plan.rules if r.fallback is not None),
            )
        if self.emit_events:
            run_id, span_id, parent = self._point()
            self.sink.emit(PlanChosen(
                semantics=plan.semantics,
                stratum=plan.stratum,
                rules=len(plan.rules),
                plan=plan.to_dict(),
                run_id=run_id, span_id=span_id, parent_span_id=parent,
            ))

    def module_rollback(self, module: str, mode: str, reason: str,
                        error: str, restored: bool = True) -> None:
        """A transactional module application rolled back to its
        savepoint (:mod:`repro.modules.txn`)."""
        if self.metrics is not None:
            self.metrics.inc("module_rollbacks", (("mode", mode),))
        if self.emit_events:
            run_id, span_id, parent = self._point()
            self.sink.emit(ModuleRollback(
                module=module, mode=mode, reason=reason,
                error=error, restored=restored,
                run_id=run_id, span_id=span_id, parent_span_id=parent,
            ))

    def constraint_violation(self, violation) -> None:
        if self.metrics is not None:
            self.metrics.inc(
                "constraint_violations",
                (("kind", violation.kind),),
            )
        if self.emit_events:
            run_id, span_id, parent = self._point()
            self.sink.emit(ConstraintViolated(
                violation_kind=violation.kind,
                predicate=violation.predicate,
                message=violation.message,
                fact=repr(violation.fact)
                if violation.fact is not None else None,
                run_id=run_id, span_id=span_id, parent_span_id=parent,
                violation_value=violation,
            ))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump of everything this instrumentation captured."""
        out = payload_header("metrics-snapshot")
        out["metrics"] = (self.metrics.snapshot()
                          if self.metrics is not None else {})
        out["phases"] = self.timer.to_dict()
        if self.trace is not None:
            out["run_id"] = self.trace.run_id
        timeseries = getattr(self.metrics, "timeseries_snapshot", None)
        if timeseries is not None:
            out["timeseries"] = timeseries()
        return out

    def flush(self) -> None:
        """Push buffered sink output out — heartbeat cadence and the
        resource-guard breach path both route through here."""
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


NULL_INSTRUMENTATION = Instrumentation()
