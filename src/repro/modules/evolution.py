"""Database evolution: sequences of module applications (Section 1).

"The evolution of a LOGRES database is obtained through sequences of
applications of update modules to existing LOGRES database states."
:class:`Evolution` makes that sequence a first-class object: an append-
only log of (module, mode) steps with the state each produced, supporting
atomic multi-step application, inspection, and rollback — possible
because states are immutable values here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import EvalConfig, Semantics
from repro.errors import ModuleApplicationError
from repro.modules.apply import ApplicationResult
from repro.modules.module import Mode, Module
from repro.modules.state import DatabaseState


@dataclass(frozen=True)
class EvolutionStep:
    """One committed step of the evolution log."""

    index: int
    module_name: str
    mode: Mode
    facts_before: int
    facts_after: int
    rules_after: int

    def __repr__(self) -> str:
        delta = self.facts_after - self.facts_before
        sign = "+" if delta >= 0 else ""
        return (
            f"#{self.index} {self.mode.value} {self.module_name!r}"
            f" (E: {sign}{delta} facts, R: {self.rules_after} rules)"
        )


class Evolution:
    """An evolving database: a :class:`~repro.core.database.Database`
    plus its full history.  Each step is one
    :meth:`~repro.core.database.Database.run_module`, whose commit step
    appends the new state and its log entry."""

    def __init__(self, state: DatabaseState,
                 semantics: Semantics = Semantics.INFLATIONARY,
                 config: EvalConfig | None = None):
        from repro.core.database import Database  # core imports modules

        self.db = Database.from_state(state, semantics=semantics,
                                      config=config)
        self._states: list[DatabaseState] = [state]
        self._log: list[EvolutionStep] = []

    @property
    def state(self) -> DatabaseState:
        return self.db.state

    @property
    def log(self) -> list[EvolutionStep]:
        return list(self._log)

    @property
    def version(self) -> int:
        """Number of committed steps."""
        return len(self._log)

    def state_at(self, version: int) -> DatabaseState:
        """The state after ``version`` steps (0 = initial)."""
        if not 0 <= version < len(self._states):
            raise IndexError(
                f"version {version} out of range 0..{self.version}"
            )
        return self._states[version]

    # ------------------------------------------------------------------
    def apply(self, module: Module, mode: Mode) -> ApplicationResult:
        """Apply one module; commits on success, state untouched on
        rejection."""
        before = self.state.edb.count()

        def record(result: ApplicationResult) -> None:
            self._states.append(result.state)
            self._log.append(EvolutionStep(
                index=len(self._log),
                module_name=module.name or "<anonymous>",
                mode=mode,
                facts_before=before,
                facts_after=result.state.edb.count(),
                rules_after=len(result.state.rules),
            ))

        return self.db.run_module(module, mode, check_initial=True,
                                  commit=record)

    def apply_all(
        self, steps: list[tuple[Module, Mode]]
    ) -> list[ApplicationResult]:
        """Apply a sequence atomically: if any step is rejected, the
        evolution is left exactly as before the call."""
        checkpoint = self.version
        try:
            return [self.apply(module, mode) for module, mode in steps]
        except ModuleApplicationError:
            self.rollback(checkpoint)
            raise

    def rollback(self, version: int) -> DatabaseState:
        """Return to the state after ``version`` steps, discarding the
        later part of the history."""
        target = self.state_at(version)
        self.db.state = target
        del self._states[version + 1:]
        del self._log[version:]
        return target

    def __repr__(self) -> str:
        return (
            f"Evolution(version {self.version},"
            f" {self.state.edb.count()} facts,"
            f" {len(self.state.rules)} rules)"
        )
