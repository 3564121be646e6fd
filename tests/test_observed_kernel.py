"""Observed runs are production runs.

A profile, a tracer or an event sink must watch the algorithm an
unobserved ``Engine.run`` executes — same kernel, same compiled bodies,
same rule order — not a slower stand-in.  Each matrix family at ~10²
facts runs under every semantics that applies to it, once unobserved
and once per observer; the runs must agree on the instance
fingerprint, whether semi-naive evaluation ran, the iteration count and
which rules ran compiled.  The observers' own accounts must also hold
together: the profile's fires sum to the tracer's derivation count, and
every premise of every recorded derivation holds in the instance.
"""

import io

import pytest

from repro.engine import Engine, Semantics
from repro.engine.trace import Tracer
from repro.engine.valuation import MatchContext, match_literal
from repro.language.ast import Literal, Var
from repro.observability import Instrumentation, JsonlSink
from repro.observability.profile import profile_program
from repro.workloads.families import FAMILIES, factset_fingerprint

SCALE = 100

CASES = [
    (family, semantics)
    for family in FAMILIES
    for semantics in Semantics
    # oid invention has no non-inflationary meaning (kg invents)
    if not (family == "kg" and semantics is Semantics.NONINFLATIONARY)
]


def _ids(case):
    family, semantics = case
    return f"{family}-{semantics.value}"


@pytest.fixture(scope="module", params=CASES, ids=_ids)
def production(request):
    family, semantics = request.param
    schema, program, edb = FAMILIES[family].build(SCALE)
    engine = Engine(schema, program)
    instance = engine.run(edb, semantics)
    return (schema, program, edb, semantics), engine, instance


def _shape(engine, instance):
    return (
        factset_fingerprint(instance),
        engine.stats.used_seminaive,
        engine.stats.iterations,
        {r.index: r.hot for r in engine.runtimes},
    )


def _profiled(unit, monkeypatch, sink=None):
    """``profile_program`` over ``unit``, plus the engine it ran."""
    schema, program, edb, semantics = unit
    engines = []
    original = Engine.run

    def keep_engine(self, *args, **kwargs):
        engines.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", keep_engine)
    instance, profile, _ = profile_program(
        schema, program, edb, semantics=semantics, sink=sink)
    monkeypatch.undo()
    (engine,) = engines
    return engine, instance, profile


def test_profile_runs_the_production_kernel(production, monkeypatch):
    unit, engine, instance = production
    observed, observed_instance, _ = _profiled(unit, monkeypatch)
    assert _shape(observed, observed_instance) == _shape(engine, instance)


def test_tracer_runs_the_production_kernel(production):
    (schema, program, edb, semantics), engine, instance = production
    traced = Engine(schema, program)
    traced_instance = traced.run(edb, semantics, tracer=Tracer())
    assert _shape(traced, traced_instance) == _shape(engine, instance)


def test_jsonl_sink_runs_the_production_kernel(production):
    (schema, program, edb, semantics), engine, instance = production
    stream = io.StringIO()
    obs = Instrumentation(sink=JsonlSink(stream))
    observed = Engine(schema, program, instrumentation=obs)
    observed_instance = observed.run(edb, semantics)
    obs.close()
    assert _shape(observed, observed_instance) == _shape(engine, instance)
    assert '"rule-fire"' in stream.getvalue()


def test_fires_sum_to_tracer_derivations(production, monkeypatch):
    unit, _, _ = production
    tracer = Tracer()
    _, _, profile = _profiled(unit, monkeypatch, sink=tracer)
    assert sum(row.fires for row in profile.rules) == \
        len(tracer.derivations)
    assert all(row.path in ("compiled", "generic")
               for row in profile.rules)


def test_every_traced_premise_holds(production):
    (schema, program, edb, semantics), _, _ = production
    tracer = Tracer()
    instance = Engine(schema, program).run(edb, semantics, tracer=tracer)
    ctx = MatchContext(instance, schema)
    assert tracer.derivations
    for derivation in tracer.derivations:
        bindings = {Var(name): value
                    for name, value in derivation.bindings}
        for literal in derivation.rule.body:
            if isinstance(literal, Literal) and not literal.negated:
                assert next(match_literal(literal, bindings, ctx),
                            None) is not None, (derivation, literal)


def test_compiled_rules_are_reported_compiled():
    """reach pre-arms every rule hot: the profile says so per row."""
    schema, program, edb = FAMILIES["reach"].build(SCALE)
    _, profile, _ = profile_program(schema, program, edb)
    assert [row.path for row in profile.rules] == ["compiled"] * 2
    assert "compiled" in profile.render_text()
    assert all(row["path"] == "compiled"
               for row in profile.to_dict()["rules"])


LINEAR_TC = "anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z)."
NONLINEAR_TC = "anc(a X, d Z) <- anc(a X, d Y), anc(a Y, d Z)."


def _fires_per_kernel(recursive_rule):
    """``({kernel: rows}, new facts)`` for transitive closure over a
    graph with many equal-length paths (in-round repeats are common),
    each kernel profiled with a tracer attached; ``new facts`` counts
    the distinct facts the rules added to the EDB."""
    from repro.engine import EvalConfig
    from repro.language.parser import parse_source
    from repro.language.ast import Program
    from repro.workloads import random_edges

    unit = parse_source(f"""
    associations
      parent = (par: string, chil: string).
      anc = (a: string, d: string).
    rules
      anc(a X, d Y) <- parent(par X, chil Y).
      {recursive_rule}
    """)
    schema, program = unit.schema(), Program(tuple(unit.rules), None)
    edb = random_edges(60, 150, seed=1)
    out = {}
    for name, config in {
        "compiled": EvalConfig(compile_threshold=0),
        "generic": EvalConfig(plan=False),
        "naive": EvalConfig(seminaive=False, plan=False),
    }.items():
        tracer = Tracer()
        instance, profile, _ = profile_program(
            schema, program, edb, config=config, sink=tracer)
        rows = sorted((row.index, row.fires, row.derived, row.path)
                      for row in profile.rules)
        assert sum(row.fires for row in profile.rules) == \
            len(tracer.derivations), name
        out[name] = ([r[:3] for r in rows], [r[3] for r in rows],
                     factset_fingerprint(instance))
    assert out["compiled"][1] == ["compiled", "compiled"]
    assert out["generic"][1] == out["naive"][1] == ["generic", "generic"]
    assert len({fingerprint for _, _, fingerprint in out.values()}) == 1
    distinct = instance.count() - edb.count()
    return {name: rows for name, (rows, _, _) in out.items()}, distinct


def test_fire_counts_agree_across_kernels():
    """A fire is a valuation whose head was absent at the round start,
    however many valuations of one round derive the same new fact — so
    on a rule with one recursive body literal the compiled driver, the
    generic semi-naive loop and the naive kernel count identical
    fires."""
    counts, distinct = _fires_per_kernel(LINEAR_TC)
    assert counts["compiled"] == counts["generic"] == counts["naive"]
    facts = sum(derived for _, _, derived in counts["naive"])
    assert facts > distinct  # the workload does repeat derivations


def test_nonlinear_fire_counts_per_seed_position():
    """With two recursive body literals a semi-naive round seeds each
    position that has new facts, so a valuation joining two new facts
    is enumerated — and counted and traced — once per such position.
    Both semi-naive drivers agree; the naive kernel enumerates each
    valuation once and counts fewer fires for the same instance."""
    counts, _ = _fires_per_kernel(NONLINEAR_TC)
    assert counts["compiled"] == counts["generic"]
    (base, recursive), (naive_base, naive_recursive) = \
        counts["generic"], counts["naive"]
    assert base == naive_base
    assert recursive[1] > naive_recursive[1]
