"""Per-rule cost profiles: the data behind ``repro profile``.

:func:`build_profile` folds an instrumented run's metrics into ranked
per-rule rows (fires, facts derived/deleted, duplicate valuations,
cumulative and self time, % of run) plus per-stratum and per-iteration
breakdowns.  :func:`profile_program` is the one-call harness the CLI
and :mod:`benchmarks.report` share: evaluate a program under full
instrumentation and return the finished profile.

Column semantics are documented in ``docs/OBSERVABILITY.md``; the
invariant the test suite pins is that the ``fires`` column sums to the
tracer's derivation count (every fire event is one derivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.instrument import Instrumentation
from repro.observability.metrics import Labels


@dataclass
class RuleProfileRow:
    """One rule's aggregated cost over a run."""

    index: int
    rule: str
    location: str | None
    fires: int = 0
    derived: int = 0
    deleted: int = 0
    duplicates: int = 0
    valuations: int = 0
    inventions: int = 0
    time_cum: float = 0.0   # body matching + head processing, all rounds
    time_self: float = 0.0  # slowest single evaluation round
    pct: float = 0.0        # time_cum as a share of the whole run
    #: ``compiled`` when the rule's compiled body ran in any round,
    #: else ``generic``
    path: str = "generic"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule,
            "location": self.location,
            "fires": self.fires,
            "derived": self.derived,
            "deleted": self.deleted,
            "duplicates": self.duplicates,
            "valuations": self.valuations,
            "inventions": self.inventions,
            "time_ms": self.time_cum * 1000,
            "self_ms": self.time_self * 1000,
            "pct": self.pct,
            "path": self.path,
        }


@dataclass
class Profile:
    """The full profile of one instrumented run."""

    source_file: str | None
    total_time: float
    iterations: int
    facts: int
    rules: list[RuleProfileRow] = field(default_factory=list)
    strata: list[dict] = field(default_factory=list)
    iteration_times: list[float] = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: the planner's chosen literal orders, one dict per fixpoint scope
    #: (:meth:`repro.engine.planner.Plan.to_dict`); empty when plan=off
    plans: list[dict] = field(default_factory=list)
    #: static interference summary (:mod:`repro.analysis.interference`):
    #: inventor count, interference-edge count, and the independence
    #: certificates per stratum
    analysis: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        from repro.observability.events import payload_header

        return {
            **payload_header("profile"),
            "file": self.source_file,
            "total_ms": self.total_time * 1000,
            "iterations": self.iterations,
            "facts": self.facts,
            "rules": [row.to_dict() for row in self.rules],
            "strata": self.strata,
            "iteration_times_ms": [
                t * 1000 for t in self.iteration_times
            ],
            "phases": self.phases,
            "metrics": self.metrics,
            "plans": self.plans,
            "analysis": self.analysis,
        }

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines = []
        where = f" — {self.source_file}" if self.source_file else ""
        lines.append(
            f"profile{where}: {self.total_time * 1000:.2f} ms,"
            f" {self.iterations} iteration(s), {self.facts} fact(s)"
        )
        lines.append("")
        lines.append("per-rule (ranked by cumulative time):")
        header = (
            f"  {'#':>3} {'fires':>7} {'derived':>8} {'deleted':>8}"
            f" {'dup':>6} {'cum ms':>9} {'self ms':>9} {'% run':>6}"
            f" {'path':>8}  rule"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) + 18))
        for row in self.rules:
            where = f"  [{row.location}]" if row.location else ""
            lines.append(
                f"  {row.index:>3} {row.fires:>7} {row.derived:>8}"
                f" {row.deleted:>8} {row.duplicates:>6}"
                f" {row.time_cum * 1000:>9.2f}"
                f" {row.time_self * 1000:>9.2f}"
                f" {row.pct:>5.1f}%"
                f" {row.path:>8}"
                f"  {_clip(row.rule, 48)}{where}"
            )
        if self.strata:
            lines.append("")
            lines.append("per-stratum:")
            for entry in self.strata:
                lines.append(
                    f"  stratum {entry['index']}: {entry['rules']}"
                    f" rule(s), {entry['time_ms']:.2f} ms"
                )
        if self.iteration_times:
            lines.append("")
            lines.append("per-iteration:")
            for i, elapsed in enumerate(self.iteration_times, start=1):
                lines.append(f"  iteration {i}: {elapsed * 1000:.2f} ms")
        if self.analysis:
            lines.append("")
            lines.append("analysis:")
            lines.append(
                f"  inventing rules: {self.analysis.get('inventors', 0)},"
                f" interference edges: {self.analysis.get('hazards', 0)}"
            )
            for entry in self.analysis.get("strata", []):
                groups = " ".join(
                    "{" + ", ".join(f"r{i}" for i in g) + "}"
                    for g in entry.get("independent_groups", [])
                )
                lines.append(
                    f"  stratum {entry.get('index')}:"
                    f" independent groups {groups or '-'}"
                )
        if self.plans:
            lines.append("")
            lines.append("plans:")
            for plan in self.plans:
                scope = plan.get("semantics", "?")
                if plan.get("stratum") is not None:
                    scope += f", stratum {plan['stratum']}"
                for rp in plan.get("rules", []):
                    order = rp.get("order")
                    shape = "dynamic fallback" if order is None else \
                        "order " + "→".join(str(i) for i in order)
                    lines.append(
                        f"  ({scope}) rule {rp.get('rule')}: {shape},"
                        f" est {rp.get('cost')}"
                    )
        return "\n".join(lines)


def _clip(text: str, width: int) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


def _rule_labels(index: int) -> Labels:
    return (("rule", str(index)),)


def build_profile(engine, obs: Instrumentation) -> Profile:
    """Fold ``obs``'s metrics into a ranked profile of ``engine``'s run."""
    registry = obs.metrics
    if registry is None:
        raise ValueError("build_profile needs metrics-enabled"
                         " instrumentation")
    stats = engine.stats
    total = stats.time_total or sum(stats.time_per_iteration) or 0.0
    rows: list[RuleProfileRow] = []
    for runtime in engine.runtimes:
        if runtime.rule.head is None:
            continue  # denials never fire
        ls = _rule_labels(runtime.index)
        span = runtime.rule.span
        location = None
        if span is not None:
            prefix = obs.source_file or "<source>"
            location = f"{prefix}:{span.line}"
        hist = registry.histogram("rule_time", ls)
        time_cum = hist.total if hist else 0.0
        time_self = hist.max if hist and hist.count else 0.0
        rows.append(RuleProfileRow(
            index=runtime.index,
            rule=repr(runtime.rule),
            location=location,
            fires=int(registry.counter("rule_fires", ls)),
            derived=int(registry.counter("rule_facts_derived", ls)),
            deleted=int(registry.counter("rule_facts_deleted", ls)),
            duplicates=int(registry.counter("rule_duplicates", ls)),
            valuations=int(registry.counter("rule_valuations", ls)),
            inventions=int(registry.counter("rule_inventions", ls)),
            time_cum=time_cum,
            time_self=time_self,
            pct=100 * time_cum / total if total else 0.0,
            path=("compiled" if registry.gauge("rule_compiled", ls)
                  else "generic"),
        ))
    rows.sort(key=lambda r: (-r.time_cum, -r.fires, r.index))
    strata = []
    for ls, hist in sorted(registry.histograms_named("stratum_time")
                           .items()):
        index = int(dict(ls)["stratum"])
        strata.append({
            "index": index,
            "rules": int(registry.gauge("stratum_rules", ls) or 0),
            "time_ms": hist.total * 1000,
        })
    return Profile(
        source_file=obs.source_file,
        total_time=total,
        iterations=stats.iterations,
        facts=int(registry.gauge("run_facts") or stats.facts_derived),
        rules=rows,
        strata=strata,
        iteration_times=list(stats.time_per_iteration),
        phases=obs.timer.to_dict(),
        metrics=registry.snapshot(),
        plans=[plan.to_dict() for plan in getattr(engine, "plans", [])],
        analysis=_analysis_summary(engine),
    )


def _analysis_summary(engine) -> dict:
    """The static interference picture of the profiled program."""
    from repro.analysis.interference import analyze_interference

    analyzed = getattr(engine, "analysis", None)
    if analyzed is None:
        return {}
    inter = analyze_interference(analyzed)
    return {
        "inventors": inter.inventors,
        "hazards": len(inter.all_edges()),
        "strata": [
            {
                "index": s.index,
                "rules": list(s.rules),
                "independent_groups": [list(g) for g in s.groups],
            }
            for s in inter.strata
        ],
    }


def profile_program(
    schema,
    program,
    edb,
    semantics=None,
    config=None,
    source_file: str | None = None,
    sink=None,
):
    """Evaluate ``(schema, program)`` over ``edb`` under full
    instrumentation; returns ``(instance, profile, obs)``.

    The profiled run is the production run: the same kernel, compiled
    bodies and rule order as an uninstrumented ``Engine.run``, with
    per-rule counts folded in at round boundaries.
    """
    from repro.engine import Engine, Semantics

    obs = Instrumentation.capture(source_file=source_file)
    if sink is not None:
        obs = obs.with_extra_sink(sink)
    engine = Engine(schema, program, config=config, instrumentation=obs)
    with obs.phase("fixpoint"):
        instance = engine.run(
            edb, semantics if semantics is not None
            else Semantics.INFLATIONARY,
        )
    return instance, build_profile(engine, obs), obs
