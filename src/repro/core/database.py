"""The high-level LOGRES database API.

:class:`Database` bundles a database state ``(E, R, S)``, an oid
generator, a consistency checker, and the module machinery behind a small
surface::

    db = Database.from_source('''
        domains
          name = string.
        classes
          person = (name, address: string).
        rules
          ...
    ''')
    sara = db.insert("person", name="sara", address="milano")
    db.run_module(mod, Mode.RIDV)
    answers = db.query("?- person(name N).")

Module application (Section 4.2) advances the state in exactly one
place, :meth:`Database.run_module`; the server's write-ahead log, its
recovery replay and :class:`repro.modules.evolution.Evolution` all apply
modules through it.  :meth:`Database.insert` and :meth:`Database.delete`
are not modules: they edit E directly, copying a new object up to its
superclasses and cascading a deletion down to its subclasses, as isa
requires.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.constraints.checker import ConsistencyChecker, Violation
from repro.core.coerce import to_value
from repro.engine import Engine, EvalConfig, Semantics
from repro.engine.goals import answer_goal
from repro.engine.trace import Tracer
from repro.errors import (
    AbsentFactError,
    EvaluationError,
    GoalError,
    SchemaError,
    ValueError_,
)
from repro.language.ast import Goal, Program, Rule
from repro.language.parser import parse_program, parse_source
from repro.modules.apply import ApplicationResult, apply_module
from repro.modules.module import Mode, Module
from repro.modules.state import DatabaseState, materialize
from repro.storage.factset import Fact, FactSet
from repro.storage.persist import (
    atomic_write_text,
    dumps_state,
    loads_state,
)
from repro.types.schema import Schema
from repro.values.complex import TupleValue, Value
from repro.values.oids import Oid, OidGenerator


class Database:
    """A LOGRES database: one evolving state plus evaluation services."""

    def __init__(
        self,
        schema: Schema | str,
        rules: tuple[Rule, ...] = (),
        semantics: Semantics = Semantics.INFLATIONARY,
        config: EvalConfig | None = None,
    ):
        if isinstance(schema, str):
            unit = parse_source(schema)
            schema_obj = unit.schema()
            rules = tuple(rules) + tuple(unit.rules)
        else:
            schema_obj = schema
        self.state = DatabaseState(schema_obj, FactSet(), tuple(rules))
        self.semantics = semantics
        self.config = config or EvalConfig()
        self.oidgen = OidGenerator()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, text: str, **kwargs) -> "Database":
        """Parse a full LOGRES source unit (schema sections + rules)."""
        return cls(text, **kwargs)

    @classmethod
    def from_state(cls, state: DatabaseState, **kwargs) -> "Database":
        """A database over ``state``; fresh oids start above E's."""
        db = cls(state.schema, **kwargs)
        db.state = state
        db.oidgen.reserve_above(Oid(max(1, state.edb.max_oid_number())))
        return db

    @property
    def state(self) -> DatabaseState:
        return self._state

    @state.setter
    def state(self, state: DatabaseState) -> None:
        self._state = state
        self._instance_cache: FactSet | None = None

    @property
    def schema(self) -> Schema:
        return self.state.schema

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.state.rules

    @property
    def edb(self) -> FactSet:
        return self.state.edb

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, pred: str, **attributes) -> Oid | None:
        """Insert one fact; returns the new oid for class predicates.

        Attribute values may be plain Python data (coerced) and may
        reference objects by :class:`Oid`.
        """
        pred = pred.lower()
        if not self.schema.has(pred):
            raise SchemaError(f"unknown predicate {pred!r}")
        eff = self.schema.effective_type(pred)
        value = TupleValue({
            k.lower(): to_value(v) for k, v in attributes.items()
        })
        for label in value.labels:
            if not eff.has_label(label):
                raise ValueError_(
                    f"predicate {pred!r} has no attribute {label!r}"
                )
        if self.schema.is_class(pred):
            highest = self.state.edb.max_oid_number()
            if highest:
                self.oidgen.reserve_above(Oid(highest))
            oid = self.oidgen.fresh()
            self.state.edb.add_object(pred, oid, value)
            # isa: an object of a subclass is an object of its superclasses
            for sup in self.schema.superclasses(pred):
                sup_labels = self.schema.effective_type(sup).labels
                self.state.edb.add_object(
                    sup, oid, value.project(sup_labels)
                )
            self._instance_cache = None
            return oid
        missing = [
            f.label for f in eff.fields if f.label not in value
        ]
        if missing:
            raise ValueError_(
                f"association {pred!r} tuple misses attributes {missing}"
            )
        self.state.edb.add_association(pred, value)
        self._instance_cache = None
        return None

    def delete(self, pred: str, oid: Oid | None = None, **attributes
               ) -> int:
        """Delete matching extensional facts; returns how many.  An
        object is deleted from the subclasses too (isa re-derives it)."""
        pred = pred.lower()
        removed = 0
        if self.schema.is_class(pred):
            targets = [oid] if oid is not None else [
                f.oid for f in self.state.edb.facts_of(pred)
                if all(
                    f.value.get(k.lower()) == to_value(v)
                    for k, v in attributes.items()
                )
            ]
            classes = [pred] + self.schema.subclasses(pred)
            for target in targets:
                hits = [self.state.edb.discard_oid(c, target)
                        for c in classes]
                if any(hits):
                    removed += 1
        else:
            wanted = {k.lower(): to_value(v) for k, v in attributes.items()}
            for fact in list(self.state.edb.facts_of(pred)):
                if all(fact.value.get(k) == v for k, v in wanted.items()):
                    if self.state.edb.discard(fact):
                        removed += 1
        if removed:
            self._instance_cache = None
        return removed

    def add_rules(self, source_or_rules) -> None:
        """Add persistent rules (the RADI effect, without a module).

        The combined rule set is analyzed eagerly, so unsafe or ill-typed
        rules are rejected here rather than at the next materialization.
        """
        if isinstance(source_or_rules, str):
            new_rules = parse_program(source_or_rules).rules
        else:
            new_rules = tuple(source_or_rules)
        candidate = DatabaseState(
            self.schema, self.state.edb, self.state.rules + new_rules
        )
        from repro.language.analysis import analyze_program

        analyze_program(candidate.evaluation_program(), self.schema)
        self.state = candidate

    def run_module(
        self,
        module: Module,
        mode: Mode,
        semantics: Semantics | None = None,
        check_initial: bool = False,
        config: EvalConfig | None = None,
        commit: Callable[[ApplicationResult], None] | None = None,
    ) -> ApplicationResult:
        """Apply a module; on success the database advances to the new
        state.  On rejection the state is unchanged.

        ``commit(result)``, when given, runs after a legal application
        and before the state advances: it is the caller's commit point
        (a WAL append, a replay check, a history entry).  If it raises,
        the oid generator is rewound and the state is unchanged."""
        oid_next = self.oidgen.next_number
        result = apply_module(
            self.state,
            module,
            mode,
            semantics=semantics or self.semantics,
            config=config or self.config,
            oidgen=self.oidgen,
            check_initial=check_initial,
        )
        if commit is not None:
            try:
                commit(result)
            except BaseException:
                self.oidgen.restore(oid_next)
                raise
        self.state = result.state
        return result

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def instance(self, semantics: Semantics | None = None) -> FactSet:
        """The materialized instance ``I`` of the current ``(E, R, S)``."""
        if semantics is None and self._instance_cache is not None:
            return self._instance_cache
        # a fresh generator per materialization keeps derived oids
        # deterministic across calls (the engine reserves above the EDB)
        result = materialize(
            self.state,
            semantics or self.semantics,
            self.config,
            OidGenerator(),
        )
        if semantics is None:
            self._instance_cache = result
        return result

    def query(self, goal: str | Goal,
              semantics: Semantics | None = None) -> list[dict[str, Value]]:
        """Answer a conjunctive goal against the materialized instance.

        ``goal`` may be source text (``"?- person(name N)."``) or a
        :class:`Goal`.
        """
        if isinstance(goal, str):
            text = goal.strip()
            if not text.startswith("goal"):
                text = "goal\n" + text
            parsed = parse_source(text).goal
            if parsed is None:
                raise GoalError(f"no goal found in {goal!r}")
            goal = parsed
        return answer_goal(goal, self.instance(semantics), self.schema)

    def objects(self, class_name: str) -> dict[Oid, TupleValue]:
        """The oid -> o-value map of one class in the instance."""
        inst = self.instance()
        return {
            fact.oid: fact.value
            for fact in inst.facts_of(class_name)
            if fact.oid is not None
        }

    def tuples(self, association: str) -> set[TupleValue]:
        return {
            fact.value for fact in self.instance().facts_of(association)
        }

    def materialize_all(self) -> int:
        """Make the EDB coincide with the instance (Section 4.2).

        "We can obtain the same situation in LOGRES by declaring all the
        rules in R as RIDV: the effect is to have E = I.  This can either
        be done as a general database strategy, or dynamically at a
        particular moment of the lifetime of the database."

        The persistent rules are re-applied as one RIDV update, so every
        currently derivable fact becomes extensional.  Returns how many
        facts were added to E.
        """
        module = Module(
            name="materialize",
            rules=self.state.persistent_rules(),
        )
        before = self.state.edb.count()
        self.run_module(module, Mode.RIDV)
        return self.state.edb.count() - before

    def explain(self, pred: str | Fact, oid: Oid | None = None,
                **attributes):
        """The derivation tree of one instance fact (debugging aid).

        ``pred`` may be a whole :class:`Fact`, explained as given.
        Otherwise identify an association fact by its attributes and a
        class fact by ``oid``.  Returns a
        :class:`repro.engine.trace.DerivationNode`; extensional facts
        yield a single leaf.  A fact that does not hold raises
        :class:`~repro.errors.AbsentFactError`.
        """
        if isinstance(pred, str):
            pred = pred.lower()
        tracer = Tracer()
        engine = Engine(
            self.schema,
            self.state.evaluation_program(),
            config=self.config,
            oidgen=OidGenerator(),  # mirror instance() determinism
        )
        instance = engine.run(self.state.edb, self.semantics,
                              tracer=tracer)
        if isinstance(pred, Fact):
            fact = pred
        elif self.schema.is_class(pred):
            if oid is None:
                raise EvaluationError(
                    "explaining a class fact requires its oid"
                )
            stored = instance.value_of(pred, oid)
            if stored is None:
                raise AbsentFactError(
                    f"no object {oid!r} in class {pred!r}"
                )
            fact = Fact(pred, stored, oid)
        else:
            wanted = {k.lower(): to_value(v)
                      for k, v in attributes.items()}
            fact = Fact(pred, TupleValue(wanted))
        if fact not in instance:
            raise AbsentFactError(
                f"fact {fact!r} does not hold in the instance"
            )
        return tracer.explain(fact, instance, engine.schema)

    # ------------------------------------------------------------------
    # consistency and persistence
    # ------------------------------------------------------------------
    def check(self) -> list[Violation]:
        """Consistency violations of the current instance."""
        checker = ConsistencyChecker(self.schema, self.state.denials())
        return checker.check(self.instance())

    def dumps(self) -> str:
        return dumps_state(self.schema, self.state.edb,
                           Program(self.state.rules))

    @classmethod
    def loads(cls, text: str, **kwargs) -> "Database":
        schema, edb, program = loads_state(text)
        return cls.from_state(
            DatabaseState(schema, edb, program.rules), **kwargs
        )

    def save(self, path) -> None:
        """Persist atomically: a crash mid-save leaves any previous
        on-disk database intact (``docs/ROBUSTNESS.md``)."""
        atomic_write_text(path, self.dumps())

    @classmethod
    def load(cls, path, **kwargs) -> "Database":
        with open(path, encoding="utf-8") as f:
            return cls.loads(f.read(), **kwargs)

    def __repr__(self) -> str:
        return (
            f"Database({self.state.edb.count()} extensional facts,"
            f" {len(self.state.rules)} rules,"
            f" semantics={self.semantics.value})"
        )
