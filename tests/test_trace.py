"""Tests for derivation tracing and explanation."""

from repro import Engine, FactSet, Oid, TupleValue
from repro.engine.trace import Tracer
from repro.language.parser import parse_source
from repro.storage import Fact


def build(text):
    unit = parse_source(text)
    return unit.schema(), unit.program()


def tc_setup():
    schema, program = build("""
    associations
      parent = (par: string, chil: string).
      anc = (a: string, d: string).
    rules
      anc(a X, d Y) <- parent(par X, chil Y).
      anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
    """)
    edb = FactSet()
    for p, c in [("a", "b"), ("b", "c"), ("c", "d")]:
        edb.add_association("parent", TupleValue(par=p, chil=c))
    return schema, program, edb


class TestRecording:
    def test_every_derived_fact_has_provenance(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        engine = Engine(schema, program)
        out = engine.run(edb, tracer=tracer)
        for fact in out.facts_of("anc"):
            entry = tracer.derivation_of(fact)
            assert entry is not None
            assert entry.rule.head.pred == "anc"
            assert entry.iteration >= 1

    def test_extensional_facts_have_no_provenance(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        Engine(schema, program).run(edb, tracer=tracer)
        edb_fact = next(edb.facts_of("parent"))
        assert tracer.derivation_of(edb_fact) is None

    def test_tracing_keeps_seminaive(self):
        """A tracer observes the production kernel instead of
        switching to the naive one."""
        schema, program, edb = tc_setup()
        plain = Engine(schema, program)
        expected = plain.run(edb)
        traced = Engine(schema, program)
        assert traced.run(edb, tracer=Tracer()) == expected
        assert traced.stats.used_seminaive and plain.stats.used_seminaive
        assert traced.stats.iterations == plain.stats.iterations

    def test_iterations_recorded(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        Engine(schema, program).run(edb, tracer=tracer)
        iterations = {d.iteration for d in tracer.derivations}
        assert len(iterations) >= 2  # base facts, then deeper closure

    def test_deletions_recorded(self):
        schema, program = build("""
        associations
          p = (v: integer).
          kill = (v: integer).
        rules
          ~p(T) <- p(T), kill(T).
        """)
        edb = FactSet()
        edb.add_association("p", TupleValue(v=1))
        edb.add_association("kill", TupleValue(v=1))
        tracer = Tracer()
        Engine(schema, program).run(edb, tracer=tracer)
        deletions = tracer.deletions()
        assert len(deletions) == 1
        assert deletions[0].fact.value["v"] == 1


class TestExplanation:
    def test_tree_reaches_extensional_leaves(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        engine = Engine(schema, program)
        out = engine.run(edb, tracer=tracer)
        target = Fact("anc", TupleValue(a="a", d="d"))
        tree = tracer.explain(target, out, engine.schema)
        assert tree.rule is not None
        rendered = tree.render()
        assert "(extensional)" in rendered
        # the recursive derivation passes through anc(b, d) or similar
        assert rendered.count("anc(") >= 2

    def test_base_fact_explanation_is_one_level(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        engine = Engine(schema, program)
        out = engine.run(edb, tracer=tracer)
        target = Fact("anc", TupleValue(a="a", d="b"))
        tree = tracer.explain(target, out, engine.schema)
        assert len(tree.premises) == 1
        assert tree.premises[0].is_extensional

    def test_unknown_fact_is_extensional_node(self):
        schema, program, edb = tc_setup()
        tracer = Tracer()
        engine = Engine(schema, program)
        out = engine.run(edb, tracer=tracer)
        ghost = Fact("anc", TupleValue(a="zz", d="qq"))
        tree = tracer.explain(ghost, out, engine.schema)
        assert tree.is_extensional

    def test_class_fact_provenance_by_oid(self):
        schema, program = build("""
        classes
          c = (tag: string).
        associations
          seed = (tag: string).
        rules
          c(tag X) <- seed(tag X).
        """)
        edb = FactSet()
        edb.add_association("seed", TupleValue(tag="x"))
        tracer = Tracer()
        engine = Engine(schema, program)
        out = engine.run(edb, tracer=tracer)
        (oid,) = out.oids_of("c")
        fact = Fact("c", out.value_of("c", oid), oid)
        entry = tracer.derivation_of(fact)
        assert entry is not None
        assert entry.rule.head.pred == "c"
