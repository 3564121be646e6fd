"""Database states ``(E, R, S)`` and instance materialization.

Section 3.1 reinterprets the EDB: "A database state is the triple
(E, R, S): the set of tuples extensionally stored, the rules (which define
more facts), and the schema of the database.  The database instance is the
result of applying the rules R to E."  A predicate may thus be defined
partly extensionally and partly intensionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.constraints.generate import isa_propagation_rules
from repro.engine import Engine, EvalConfig, Semantics
from repro.language.ast import Program, Rule
from repro.storage.factset import FactSet
from repro.types.schema import Schema
from repro.values.oids import OidGenerator


@dataclass
class DatabaseState:
    """One consistent database state ``(E, R, S)``."""

    schema: Schema
    edb: FactSet = field(default_factory=FactSet)
    rules: tuple[Rule, ...] = ()

    def persistent_rules(self) -> tuple[Rule, ...]:
        """R without denials (denials are checked, not evaluated)."""
        return tuple(r for r in self.rules if not r.is_denial)

    def denials(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_denial)

    def evaluation_program(
        self, extra_rules: tuple[Rule, ...] = ()
    ) -> Program:
        """R plus the automatically generated active constraints."""
        auto = tuple(isa_propagation_rules(self.schema))
        return Program(
            self.persistent_rules()
            + tuple(r for r in extra_rules if not r.is_denial)
            + auto
        )

    def copy(self) -> "DatabaseState":
        return replace(self, edb=self.edb.copy(), rules=tuple(self.rules))

    def __repr__(self) -> str:
        return (
            f"DatabaseState({self.edb.count()} extensional facts,"
            f" {len(self.rules)} rules, {self.schema!r})"
        )


def materialize(
    state: DatabaseState,
    semantics: Semantics = Semantics.INFLATIONARY,
    config: EvalConfig | None = None,
    oidgen: OidGenerator | None = None,
    extra_rules: tuple[Rule, ...] = (),
) -> FactSet:
    """The instance ``I`` of ``(E, R, S)``: the fixpoint of R applied to E.

    ``extra_rules`` supports the RIDI mode, where a module's rules join the
    evaluation without becoming persistent.
    """
    engine = Engine(
        state.schema,
        state.evaluation_program(extra_rules),
        config=config,
        oidgen=oidgen,
    )
    return engine.run(state.edb, semantics)
