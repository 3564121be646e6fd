"""Tests for DatabaseState persistence and evaluation-program assembly."""

from repro import (
    Database,
    DatabaseState,
    FactSet,
    Module,
    TupleValue,
    materialize,
    parse_schema_source,
)
from repro.language.parser import parse_program


def make_state():
    schema = parse_schema_source("""
    classes
      person = (name: string).
      student = (person, school: string).
      student isa person.
    associations
      parent = (par: string, chil: string).
    """)
    edb = FactSet()
    edb.add_association("parent", TupleValue(par="a", chil="b"))
    rules = parse_program("""
      parent(par "b", chil "c").
      <- parent(par X, chil X).
    """).rules
    return DatabaseState(schema, edb, rules)


class TestPayloadRoundTrip:
    def test_dumps_loads_round_trip(self):
        state = make_state()
        restored = Database.loads(Database.from_state(state).dumps()).state
        assert restored.edb == state.edb
        assert restored.rules == state.rules
        assert restored.schema.equations == state.schema.equations
        assert restored.schema.isa_declarations == \
            state.schema.isa_declarations


class TestRulePartitions:
    def test_denials_separated_from_persistent_rules(self):
        state = make_state()
        assert len(state.persistent_rules()) == 1
        assert len(state.denials()) == 1

    def test_evaluation_program_includes_isa_propagation(self):
        state = make_state()
        program = state.evaluation_program()
        names = [r.name for r in program.rules]
        assert "isa:student->person" in names
        # the denial is never part of the evaluation program
        assert not any(r.is_denial for r in program.rules)

    def test_extra_rules_joined_without_denials(self):
        state = make_state()
        extra = parse_program("""
          parent(par "c", chil "d").
          <- parent(par "zz").
        """).rules
        program = state.evaluation_program(extra_rules=extra)
        assert not any(r.is_denial for r in program.rules)
        assert len(program.rules) == 3  # 1 persistent + 1 extra + 1 isa


class TestCopySemantics:
    def test_copy_isolates_edb(self):
        state = make_state()
        clone = state.copy()
        clone.edb.add_association("parent",
                                  TupleValue(par="x", chil="y"))
        assert state.edb.count("parent") == 1

    def test_materialize_does_not_touch_state(self):
        state = make_state()
        before = state.edb.copy()
        materialize(state)
        assert state.edb == before

    def test_repr(self):
        assert "extensional facts" in repr(make_state())
