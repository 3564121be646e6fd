"""Exception hierarchy for the LOGRES reproduction.

Every error raised by the library derives from :class:`LogresError`, so
applications can catch one base class.  The sub-hierarchy mirrors the
compilation pipeline of the system: schema definition errors, parse errors,
static analysis (safety / typing / stratification) errors, runtime
evaluation errors, and consistency violations raised by module application.
"""

from __future__ import annotations


class LogresError(Exception):
    """Base class of every error raised by the library.

    Errors surfaced through the static analyzer additionally carry the
    collected :class:`repro.analysis.Diagnostic` values: ``diagnostic``
    is the finding this exception stands for (or ``None``), and
    ``diagnostics`` is every finding of the analysis run that raised it
    (the fail-fast API raises on the first error but keeps the rest).
    """

    diagnostic = None
    diagnostics: tuple = ()


class SchemaError(LogresError):
    """An ill-formed schema: bad type equation, illegal ``isa`` edge,
    association containing an association, a domain referencing a class,
    duplicate labels, unresolved type names, or a refinement violation."""


class TypeEquationError(SchemaError):
    """A single type equation is syntactically or structurally illegal."""


class IsaError(SchemaError):
    """An illegal generalization edge: cycles, refinement failure, or
    multiple inheritance between classes without a common ancestor."""


class ValueError_(LogresError):
    """A value does not belong to the set denoted by its declared type."""


class OidError(LogresError):
    """Illegal use of object identifiers: dangling reference, nil oid in an
    association, an oid assigned to two unrelated hierarchies, or an o-value
    conflicting with the oid's class."""


class ParseError(LogresError):
    """Raised by the LOGRES text parser.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        self.raw_message = message
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class AnalysisError(LogresError):
    """Base class for static-analysis failures detected at compile time."""


class SafetyError(AnalysisError):
    """A rule violates the safety requirements of Section 3.1: a non-self
    head argument that does not occur in the body, a built-in variable that
    occurs in no ordinary literal, or an argument-less literal over a
    predicate with arguments."""


class TypingError(AnalysisError):
    """Static type checking failed: unification between incompatible types,
    an unknown predicate or label, or a built-in applied to incompatible
    argument types."""


class IllegalOidRuleError(AnalysisError):
    """``C1(X) <- C2(X)`` with C1 and C2 not in the same generalization
    hierarchy: two objects cannot share an oid across hierarchies
    (Section 3.1)."""


class StratificationError(AnalysisError):
    """The program is not stratified with respect to negation or data
    functions and stratified semantics was requested."""


class EvaluationError(LogresError):
    """Runtime failure while computing the fixpoint semantics."""


class AbsentFactError(EvaluationError):
    """The fact to explain does not hold in the instance."""


class GoalError(LogresError, ValueError):
    """Goal text that holds no goal.  Also a :class:`ValueError`: to a
    server it is a malformed request (400), not a failed program."""


class NonTerminationError(EvaluationError):
    """The inflationary sequence exceeded its iteration or oid-invention
    budget (termination is undecidable; Appendix B).

    ``iterations`` is how far the run got; ``stats`` carries the partial
    :class:`repro.engine.fixpoint.EvalStats` of the interrupted run (or
    ``None`` for raisers that have no engine stats, e.g. the ALGRES
    evaluator).
    """

    def __init__(self, message: str, iterations: int = 0, stats=None):
        self.iterations = iterations
        self.stats = stats
        super().__init__(message)


class EvalBudgetExceeded(NonTerminationError):
    """A :class:`repro.engine.guards.ResourceGuard` budget tripped.

    Deterministic runtime interruption: ``budget`` names the budget that
    tripped (``"timeout"``, ``"max_facts"``, ``"max_inventions"``,
    ``"max_fact_size"``, ``"cancelled"``), ``limit`` / ``observed`` are
    the configured bound and the measured value, and ``snapshot`` is a
    consistent partial fact set captured at the breach (the state of the
    last completed iteration boundary), attached by the engine kernel
    that propagated the breach.
    """

    def __init__(
        self,
        message: str,
        budget: str = "",
        limit=None,
        observed=None,
        iterations: int = 0,
        stats=None,
        snapshot=None,
    ):
        super().__init__(message, iterations, stats=stats)
        self.budget = budget
        self.limit = limit
        self.observed = observed
        self.snapshot = snapshot

    def attach(self, stats=None, snapshot=None) -> "EvalBudgetExceeded":
        """Fill in run context at the kernel boundary (first writer wins,
        so the innermost kernel's consistent snapshot is kept)."""
        if stats is not None and self.stats is None:
            self.stats = stats
            self.iterations = stats.iterations
        if snapshot is not None and self.snapshot is None:
            self.snapshot = snapshot
        return self


class TransactionError(LogresError):
    """A savepoint rollback could not restore the pre-apply state
    exactly (fingerprint mismatch after undo) — the database state must
    be considered corrupt."""


class BuiltinError(EvaluationError):
    """A built-in predicate was applied to malformed arguments at runtime."""


class ConsistencyError(LogresError):
    """A database state violates an integrity constraint (active referential
    constraint, passive denial, or structural instance invariant)."""


class ModuleApplicationError(LogresError):
    """A module application is illegal: the initial state is inconsistent,
    the resulting instance is undefined, or a goal was supplied with a
    data-variant mode that forbids it (Section 4.1).

    ``diagnostics`` holds the mode-check findings (codes ``LG7xx``) when
    the failure came from :func:`repro.analysis.check_module_application`.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
        self.diagnostic = self.diagnostics[0] if self.diagnostics else None


class CompilationError(LogresError):
    """The LOGRES-to-ALGRES compiler cannot translate a construct (the
    compilable fragment excludes oid invention and head deletion)."""


class AlgebraError(LogresError):
    """An ill-formed extended-relational-algebra expression or an operator
    applied to schema-incompatible relations."""


class StorageError(LogresError):
    """Fact-store or persistence failure (corrupt payload, version skew)."""
