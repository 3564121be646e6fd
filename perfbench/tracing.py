"""Spans around the public calls of each LOGRES layer.

:func:`install` wraps the calls the per-layer table of ``README.md``
names and records one span per call — ``(id, parent, request, layer,
start, end, attrs)`` — in memory, in the process that runs the program.
The spans are written out once, when that process ends.  Nothing under
``src/`` changes: the wrappers replace attributes of the loaded modules
and classes, and :func:`install` returns the function that restores
them.

Spans of one request share the request id: the ``X-Repro-Run-Id`` the
server returns, or the evaluation number of a batch run.  A layer's
self time is its span's duration minus the part of it its child spans
cover (:func:`self_time`).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.parent, self.request, self.layer,
                self.start, self.end, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Recorder:
    """Spans of one process, kept in memory; per-thread parent stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    def open(self, layer: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None,
                    self.request, layer, time.perf_counter(), 0.0, attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def overlay(self, layer: str, start: float, end: float) -> None:
        """A span measured by hand across calls (a lock held).  It
        overlaps the call spans, so self times ignore it."""
        stack = self._stack()
        with self._lock:
            self.spans.append(Span(
                next(self._ids), stack[-1].id if stack else None,
                self.request, layer, start, end, {"overlay": 1}))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([s.to_list() for s in self.spans], f)


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as f:
        return [Span.from_list(row) for row in json.load(f)]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
def covered(start: float, end: float, intervals) -> float:
    """Length of the part of ``[start, end]`` the intervals cover."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None and not span.attrs.get("overlay"):
            out.setdefault(span.parent, []).append(span)
    return out


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """Span duration minus the time its child spans cover."""
    kids = children.get(span.id, ())
    return span.duration - covered(
        span.start, span.end, [(k.start, k.end) for k in kids])


def outermost(spans, layer: str) -> list[Span]:
    """Spans of ``layer`` with no ancestor of the same layer (so nested
    calls of one layer are counted once)."""
    by_id = {s.id: s for s in spans}
    out = []
    for span in spans:
        if span.layer != layer:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.layer != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


# ---------------------------------------------------------------------------
# the wrappers
# ---------------------------------------------------------------------------
def _timed(recorder: Recorder, layer: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(span, result, args)`` may add
    attributes once the call returned."""

    def wrapper(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            recorder.close(span)
        if after is not None:
            after(span, result, args)
        return result

    return wrapper


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, original, value) -> None:
        """Rebind a module-level function in every loaded ``repro``
        module that imported it by name."""
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "repro" or module is None:
                continue
            if module.__dict__.get(original.__name__) is original:
                self.set(module, original.__name__, value)

    def undo(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def install(recorder: Recorder):
    """Wrap every traced call; returns the function that unwraps them."""
    # import every module whose names get rebound, so the scan sees them
    import repro.cli  # noqa: F401
    import repro.core.database as database
    import repro.server.http as http
    from repro.constraints.checker import ConsistencyChecker
    from repro.engine import compile as compile_mod
    from repro.engine import goals, planner
    from repro.engine.fixpoint import Engine
    from repro.language import parser
    from repro.modules import apply, state, txn
    from repro.modules.module import Module
    from repro.server import registry
    from repro.server.admission import AdmissionController, Overloaded
    from repro.server.registry import ManagedDatabase, RWLock
    from repro.server.wal import WriteAheadLog
    from repro.storage.factset import FactSet

    patches = _Patches()
    rec = recorder

    # -- server.http: one root span per request, keyed by its run id --
    new_run_id = http.new_run_id

    def traced_run_id():
        run_id = new_run_id()
        rec.request = run_id
        return run_id

    patches.set(http, "new_run_id", traced_run_id)
    enter, leave = http.ReproServer.enter_request, \
        http.ReproServer.exit_request

    def enter_request(self):
        rec.open("server.http")
        return enter(self)

    def exit_request(self):
        leave(self)
        stack = rec._stack()
        if stack and stack[0].layer == "server.http":
            rec.close(stack[0])
            stack.clear()
        rec.request = None

    patches.set(http.ReproServer, "enter_request", enter_request)
    patches.set(http.ReproServer, "exit_request", exit_request)

    # -- server.admission --
    admit = AdmissionController.admit

    class _TimedAdmission:
        def __init__(self, inner):
            self._inner = inner

        def __enter__(self):
            span = rec.open("server.admission")
            try:
                return self._inner.__enter__()
            except Overloaded:
                span.attrs["shed"] = 1
                raise
            finally:
                rec.close(span)

        def __exit__(self, *exc):
            return self._inner.__exit__(*exc)

    patches.set(AdmissionController, "admit",
                lambda self: _TimedAdmission(admit(self)))

    # -- server.registry --
    patches.set(RWLock, "acquire_read", _timed(
        rec, "server.registry:read_wait", RWLock.acquire_read))
    acquire_write, release_write = RWLock.acquire_write, RWLock.release_write
    held = threading.local()

    def traced_acquire_write(self):
        span = rec.open("server.registry:write_wait")
        try:
            acquire_write(self)
        finally:
            rec.close(span)
        held.since = time.perf_counter()

    def traced_release_write(self):
        since = getattr(held, "since", None)
        release_write(self)
        if since is not None:
            held.since = None
            rec.overlay("server.registry:write_hold", since,
                        time.perf_counter())

    patches.set(RWLock, "acquire_write", traced_acquire_write)
    patches.set(RWLock, "release_write", traced_release_write)
    patches.set(ManagedDatabase, "read_snapshot", _timed(
        rec, "server.registry:snapshot", ManagedDatabase.read_snapshot))
    patches.set(ManagedDatabase, "apply", _timed(
        rec, "server.registry:apply", ManagedDatabase.apply))

    # -- server.wal --
    wal_append = WriteAheadLog.append

    def traced_append(self, record):
        before = _size(self.path)
        span = rec.open("server.wal:append")
        try:
            return wal_append(self, record)
        finally:
            rec.close(span)
            span.attrs["bytes"] = _size(self.path) - before

    patches.set(WriteAheadLog, "append", traced_append)

    def after_open(span, result, args):
        span.attrs["records"] = args[0].recovered_records

    patches.set(ManagedDatabase, "open", _timed(
        rec, "server.wal:open", ManagedDatabase.open, after_open))

    # -- storage.persist --
    def after_write(span, result, args):
        span.attrs["bytes"] = len(args[1])

    patches.set(registry, "atomic_write_text", _timed(
        rec, "storage.persist:snapshot", registry.atomic_write_text,
        after_write))
    loads = database.Database.__dict__["loads"].__func__
    patches.set(database.Database, "loads", classmethod(_timed(
        rec, "storage.persist:load", loads)))

    # -- storage.factset --
    patches.set(FactSet, "copy", _timed(rec, "storage.factset",
                                        FactSet.copy))

    # -- language.parser --
    patches.everywhere(parser.parse_source, _timed(
        rec, "language.parser", parser.parse_source))
    from_source = Module.__dict__["from_source"].__func__
    patches.set(Module, "from_source", classmethod(_timed(
        rec, "language.parser", from_source)))

    # -- modules --
    def after_apply(span, result, args):
        span.attrs["delta"] = abs(result.state.edb.count()
                                  - args[0].edb.count())

    patches.everywhere(apply.apply_module, _timed(
        rec, "modules.apply", apply.apply_module, after_apply))
    patches.everywhere(txn.state_fingerprints, _timed(
        rec, "modules.txn", txn.state_fingerprints))
    patches.everywhere(state.materialize, _timed(
        rec, "modules.state", state.materialize))

    # -- engine --
    def after_run(span, result, args):
        stats = args[0].stats
        span.attrs.update(iterations=stats.iterations,
                          derived=result.count() - args[1].count(),
                          inventions=stats.inventions)

    patches.set(Engine, "run", _timed(rec, "engine.fixpoint", Engine.run,
                                      after_run))
    patches.everywhere(planner.build_plan, _timed(
        rec, "engine.planner", planner.build_plan))

    def after_compile(span, result, args):
        span.attrs["compiled"] = int(result is not None)

    patches.everywhere(compile_mod.compile_rule, _timed(
        rec, "engine.compile", compile_mod.compile_rule, after_compile))

    def after_answer(span, result, args):
        span.attrs["answers"] = len(result)

    patches.everywhere(goals.answer_goal, _timed(
        rec, "engine.goals", goals.answer_goal, after_answer))

    # -- constraints.checker --
    def after_check(span, result, args):
        span.attrs["facts"] = args[1].count()

    patches.set(ConsistencyChecker, "check", _timed(
        rec, "constraints.checker", ConsistencyChecker.check, after_check))
    return patches.undo


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
