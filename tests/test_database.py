"""Tests for the high-level Database facade."""

import pytest

from repro import (
    NIL,
    Database,
    Mode,
    Module,
    Oid,
    Semantics,
    SetValue,
)
from repro.errors import (
    LogresError,
    ModuleApplicationError,
    SchemaError,
    ValueError_,
)

SOURCE = """
domains
  name = string.
classes
  person = (name, address: string).
  student = (person, school: string).
  student isa person.
associations
  parent = (par: name, chil: name).
rules
  parent(par "eve", chil "abel").
"""


@pytest.fixture
def db():
    return Database.from_source(SOURCE)


class TestConstruction:
    def test_from_source_collects_schema_and_rules(self, db):
        assert db.schema.is_class("person")
        assert len(db.rules) == 1

    def test_repr(self, db):
        assert "rules" in repr(db)


class TestInserts:
    def test_insert_object_returns_oid(self, db):
        oid = db.insert("person", name="sara", address="milano")
        assert isinstance(oid, Oid)
        assert db.objects("person")[oid]["name"] == "sara"

    def test_insert_subclass_propagates_to_superclasses(self, db):
        oid = db.insert("student", name="али", address="x", school="s")
        assert oid in db.objects("person")
        assert db.objects("person")[oid]["name"] == "али"

    def test_insert_association_returns_none(self, db):
        assert db.insert("parent", par="a", chil="b") is None
        assert any(t["par"] == "a" for t in db.tuples("parent"))

    def test_insert_coerces_python_collections(self):
        fdb = Database.from_source("""
        classes
          player = (pname: string, roles: {integer}).
        """)
        oid = fdb.insert("player", pname="a", roles={1, 2})
        assert fdb.objects("player")[oid]["roles"] == SetValue([1, 2])

    def test_insert_unknown_predicate_rejected(self, db):
        with pytest.raises(SchemaError, match="unknown predicate"):
            db.insert("ghost", x=1)

    def test_insert_unknown_attribute_rejected(self, db):
        with pytest.raises(ValueError_, match="no attribute"):
            db.insert("person", name="x", address="y", shoe=42)

    def test_incomplete_association_rejected(self, db):
        with pytest.raises(ValueError_, match="misses"):
            db.insert("parent", par="only-one-side")

    def test_nil_reference_accepted_in_class(self):
        tdb = Database.from_source("""
        classes
          person = (name: string).
          team = (tname: string, captain: person).
        """)
        oid = tdb.insert("team", tname="x", captain=NIL)
        assert tdb.objects("team")[oid]["captain"] == NIL
        assert tdb.check() == []


class TestDeletes:
    def test_delete_association_by_attributes(self, db):
        db.insert("parent", par="a", chil="b")
        db.insert("parent", par="a", chil="c")
        assert db.delete("parent", par="a", chil="b") == 1
        assert db.delete("parent", par="zzz") == 0

    def test_delete_object_by_oid_and_by_attributes(self, db):
        oid = db.insert("person", name="sara", address="m")
        assert db.delete("person", oid=oid) == 1
        db.insert("person", name="ugo", address="r")
        assert db.delete("person", name="ugo") == 1

    def test_delete_through_superclass_cascades_to_subclasses(self, db):
        """isa would re-derive the person from the student fact, so
        deleting the person must delete the student too."""
        s = db.insert("student", name="ada", address="m", school="x")
        assert db.delete("person", oid=s) == 1
        assert s not in db.objects("person")
        assert s not in db.objects("student")


class TestQueriesAndRules:
    def test_query_uses_persistent_rules(self, db):
        answers = db.query('?- parent(par "eve", chil C).')
        assert [a["C"] for a in answers] == ["abel"]

    def test_query_accepts_goal_section_text(self, db):
        answers = db.query('goal\n ?- parent(par P).')
        assert [a["P"] for a in answers] == ["eve"]

    def test_query_without_goal_rejected(self, db):
        with pytest.raises(LogresError):
            db.query("rules\n parent(par \"x\", chil \"y\").")

    def test_add_rules_then_query(self, db):
        db.add_rules("""
          parent(par "abel", chil "enos").
          parent(par X, chil Z) <- parent(par X, chil Y),
                                   parent(par Y, chil Z).
        """)
        answers = db.query('?- parent(par "eve", chil C).')
        assert sorted(a["C"] for a in answers) == ["abel", "enos"]

    def test_instance_cache_invalidated_by_writes(self, db):
        assert len(db.tuples("parent")) == 1
        db.insert("parent", par="x", chil="y")
        assert len(db.tuples("parent")) == 2

    def test_query_hides_oids_in_tuple_bindings(self, db):
        db.insert("person", name="sara", address="m")
        answers = db.query("?- person(P).")
        assert all("self" not in a["P"] for a in answers)


class TestModulesThroughFacade:
    def test_run_module_advances_state(self, db):
        mod = Module.from_source(
            'rules\n  parent(par "abel", chil "enos").', name="m"
        )
        db.run_module(mod, Mode.RIDV)
        assert any(t["chil"] == "enos" for t in db.tuples("parent"))

    def test_rejected_module_preserves_state(self):
        tdb = Database.from_source("""
        classes
          person = (name: string).
        associations
          likes = (who: person, what: string).
        """)
        p = tdb.insert("person", name="a")
        tdb.insert("likes", who=p, what="tea")
        mod = Module.from_source("""
        rules
          ~person(self S) <- person(self S).
        """, name="bad")
        with pytest.raises(ModuleApplicationError):
            tdb.run_module(mod, Mode.RIDV)
        assert p in tdb.objects("person")

    def test_commit_step_runs_before_the_state_advances(self, db):
        mod = Module.from_source(
            'rules\n  parent(par "abel", chil "enos").', name="m"
        )
        before = db.state
        seen = []
        result = db.run_module(
            mod, Mode.RIDV, commit=lambda r: seen.append(db.state)
        )
        assert seen == [before]
        assert db.state is result.state

    def test_failed_commit_step_leaves_state_and_oids(self, db):
        mod = Module.from_source(
            'rules\n  person(name "ugo", address "r").', name="m"
        )
        dumped, oid_next = db.dumps(), db.oidgen.next_number

        def refuse(result):
            assert result.state.edb.count("person") == 1
            raise RuntimeError("commit refused")

        with pytest.raises(RuntimeError, match="refused"):
            db.run_module(mod, Mode.RIDV, commit=refuse)
        assert db.dumps() == dumped
        assert db.oidgen.next_number == oid_next
        assert db.objects("person") == {}


class TestPersistence:
    def test_save_load_roundtrip(self, db, tmp_path):
        db.insert("person", name="sara", address="m")
        db.insert("parent", par="sara", chil="luca")
        path = tmp_path / "db.json"
        db.save(path)
        restored = Database.load(path)
        assert restored.tuples("parent") == db.tuples("parent")
        assert len(restored.objects("person")) == 1
        # fresh oids continue above the persisted ones
        new_oid = restored.insert("person", name="x", address="y")
        assert new_oid.number > max(
            o.number for o in db.objects("person")
        )

    def test_semantics_override_per_query(self, db):
        assert db.query(
            "?- parent(par P).", semantics=Semantics.STRATIFIED
        )


class TestExplain:
    def test_explain_association_fact(self):
        db = Database.from_source("""
        associations
          parent = (par: string, chil: string).
          anc = (a: string, d: string).
        rules
          anc(a X, d Y) <- parent(par X, chil Y).
          anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
        """)
        db.insert("parent", par="a", chil="b")
        db.insert("parent", par="b", chil="c")
        tree = db.explain("anc", a="a", d="c")
        rendered = tree.render()
        assert "(extensional)" in rendered
        assert "rule:" in rendered

    def test_explain_class_fact_by_oid(self):
        db = Database.from_source("""
        classes
          c = (tag: string).
        associations
          seed = (tag: string).
        rules
          c(tag X) <- seed(tag X).
        """)
        db.insert("seed", tag="x")
        (oid,) = db.objects("c")
        tree = db.explain("c", oid=oid)
        assert tree.rule is not None

    def test_explain_missing_fact_rejected(self):
        from repro.errors import EvaluationError

        db = Database.from_source("""
        associations
          p = (v: integer).
        """)
        with pytest.raises(EvaluationError, match="does not hold"):
            db.explain("p", v=42)

    def test_explain_class_requires_oid(self):
        from repro.errors import EvaluationError

        db = Database.from_source("""
        classes
          c = (tag: string).
        """)
        with pytest.raises(EvaluationError, match="oid"):
            db.explain("c")


class TestMaterializeAll:
    def test_edb_coincides_with_instance(self):
        """Section 4.2's materialization strategy: E = I afterwards."""
        db = Database.from_source("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
          tc(a X, b Z) <- edge(a X, b Y), tc(a Y, b Z).
        """)
        db.insert("edge", a="x", b="y")
        db.insert("edge", a="y", b="z")
        added = db.materialize_all()
        assert added == 3  # the three tc tuples became extensional
        assert db.state.edb == db.instance()

    def test_idempotent(self):
        db = Database.from_source("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
        """)
        db.insert("edge", a="x", b="y")
        db.materialize_all()
        assert db.materialize_all() == 0
