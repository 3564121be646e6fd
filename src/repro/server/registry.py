"""Named persistent databases: locks, snapshots, WAL recovery.

A :class:`ManagedDatabase` wraps one :class:`repro.core.database.Database`
with everything a server needs to share it safely:

* a **reader/writer lock** — writers are serialized; readers take the
  lock only long enough to :meth:`~repro.storage.factset.FactSet.copy`
  a snapshot (the copy carries the hash indexes, PR 1) and evaluate
  entirely outside it, so a long-running read never blocks a write and
  a write never blocks reads;
* the **write-ahead log** (:mod:`repro.server.wal`) appended-and-fsynced
  before any write is acknowledged;
* **snapshot + recovery**: the state is periodically rewritten through
  the crash-safe format-v2 persistence with the covered WAL position
  embedded in the payload, and :meth:`ManagedDatabase.open` replays the
  WAL tail past the snapshot, restoring the oid generator to each
  record's position so the replay is bit-deterministic and verifying
  the recorded post-state fingerprints.

The :class:`DatabaseRegistry` is the tenancy surface: databases are
named files under one data directory, discovered at startup and
creatable at runtime.
"""

from __future__ import annotations

import json
import os
import re
import threading

from repro.core.database import Database
from repro.engine import EvalConfig, Semantics
from repro.errors import LogresError, StorageError
from repro.language.ast import Rule
from repro.modules.apply import ApplicationResult
from repro.modules.module import Mode, Module
from repro.modules.state import DatabaseState
from repro.modules.txn import state_fingerprints
from repro.server.wal import WriteAheadLog, make_record
from repro.storage.persist import atomic_write_text
from repro.testing.faults import FAULTS

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

SNAPSHOT_SUFFIX = ".state.json"
WAL_SUFFIX = ".wal.jsonl"


def validate_name(name: str) -> str:
    """Database names are path components; reject anything that is not
    a short lowercase slug (no traversal, no surprises)."""
    if not _NAME_RE.match(name or ""):
        raise ValueError(
            f"invalid database name {name!r}: expected"
            " [a-z0-9][a-z0-9_-]{0,63}"
        )
    return name


class RWLock:
    """A reader/writer lock: many readers or one writer.

    Writer-preferring: once a writer is waiting, new readers queue
    behind it, so a steady read stream cannot starve writes.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Scope:
        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()

        def __exit__(self, *exc):
            self._release()

    def read(self) -> "_Scope":
        return self._Scope(self.acquire_read, self.release_read)

    def write(self) -> "_Scope":
        return self._Scope(self.acquire_write, self.release_write)


class ManagedDatabase:
    """One named database: Database + RWLock + WAL + snapshots."""

    def __init__(self, name: str, directory: str,
                 snapshot_interval: int = 16):
        self.name = validate_name(name)
        self.directory = os.fspath(directory)
        self.snapshot_interval = max(1, snapshot_interval)
        self.lock = RWLock()
        self.db: Database | None = None
        self.wal = WriteAheadLog(self.wal_path)
        #: seq of the last committed (WAL-appended) write
        self.applied_seq = 0
        #: how many WAL records startup replayed past the snapshot
        self.recovered_records = 0
        self._writes_since_snapshot = 0
        #: snapshot rewrites that failed after a committed write — the
        #: write is still durable (it is in the WAL); this is the
        #: graceful-degradation counter the server surfaces as a metric
        self.snapshot_failures = 0

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, self.name + SNAPSHOT_SUFFIX)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, self.name + WAL_SUFFIX)

    @property
    def exists(self) -> bool:
        return os.path.exists(self.snapshot_path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(self, source: str | Database) -> None:
        """Create from LOGRES source (schema + rules + optional facts),
        or from an already built :class:`Database`, and write the
        initial snapshot."""
        if self.exists:
            raise StorageError(
                f"database {self.name!r} already exists"
            )
        self.db = (Database.from_source(source)
                   if isinstance(source, str) else source)
        self._write_snapshot()

    def open(self) -> None:
        """Load the snapshot and replay the WAL tail past it.

        Replay re-executes each logical record with the oid generator
        restored to the recorded pre-apply position, then proves the
        recovery by comparing the recorded post-apply fingerprints —
        a mismatch means the snapshot/WAL pair is not self-consistent
        and surfaces as :class:`StorageError` (→ LG901)."""
        text = _read_state_file(self.snapshot_path)
        self.db = Database.loads(text)
        envelope = json.loads(text)
        self.applied_seq = int(envelope.get("wal_seq", 0))
        oid_next = envelope.get("oid_next")
        if oid_next:
            # exact position, not just "above the EDB": replay and
            # future applies must consume the same numbers the original
            # process would have
            self.db.oidgen.restore(max(1, int(oid_next)))
        self.recovered_records = 0
        for record in self.wal.records(after_seq=self.applied_seq):
            self._replay(record)
            self.recovered_records += 1
        self._writes_since_snapshot = self.recovered_records

    def close(self, snapshot: bool = True) -> None:
        """Shutdown path: snapshot (fsynced, truncating the WAL) and
        release the log file handle."""
        with self.lock.write():
            if snapshot and self.db is not None:
                if self._writes_since_snapshot:
                    self._write_snapshot()
            self.wal.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_snapshot(self, semantics: Semantics = Semantics.INFLATIONARY,
                      config: EvalConfig | None = None,
                      extra_rules: tuple[Rule, ...] = ()) -> Database:
        """An isolated snapshot for one read request: a
        :class:`Database` whose schema and rule tuple are immutable
        (shared) and whose EDB is copied with its indexes.
        ``extra_rules`` join R in this snapshot only, as in RIDI.
        Taken under the read lock; evaluated outside it."""
        with self.lock.read():
            state = self.db.state
            edb = state.edb.copy()
        return Database.from_state(
            DatabaseState(state.schema, edb,
                          state.rules + tuple(extra_rules)),
            semantics=semantics, config=config,
        )

    def fingerprints(self) -> dict[str, str]:
        with self.lock.read():
            return state_fingerprints(self.db.state)

    def info(self) -> dict:
        with self.lock.read():
            state = self.db.state
            return {
                "name": self.name,
                "facts": state.edb.count(),
                "rules": len(state.rules),
                "applied_seq": self.applied_seq,
                "recovered_records": self.recovered_records,
                "snapshot_failures": self.snapshot_failures,
                "fingerprints": state_fingerprints(state),
            }

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, module_source: str, mode: Mode,
              semantics: Semantics = Semantics.INFLATIONARY,
              config: EvalConfig | None = None,
              module_name: str = "") -> tuple[ApplicationResult, int]:
        """One transactional, durable write.  Returns the application
        result and the committed WAL sequence number.

        Commit protocol: :meth:`Database.run_module` executes under the
        Savepoint (any failure rolls the state back, fingerprint-
        verified), then appends to the WAL (the commit point — on
        append failure the new state is abandoned and the oid generator
        restored), then advances the state; a snapshot may follow."""
        module = Module.from_source(module_source, name=module_name)
        with self.lock.write():
            oid_next_before = self.db.oidgen.next_number

            def append_to_wal(result: ApplicationResult) -> None:
                self.wal.append(make_record(
                    self.applied_seq + 1, "apply",
                    module=module_source,
                    module_name=module_name,
                    mode=mode.value,
                    semantics=semantics.value,
                    oid_next=oid_next_before,
                    post=state_fingerprints(result.state),
                ))
                self.applied_seq += 1

            # RIDI is rule- and data-invariant: a pure query, no state
            # change, nothing to log
            ridi = mode is Mode.RIDI
            result = self.db.run_module(
                module, mode, semantics=semantics, config=config,
                commit=None if ridi else append_to_wal,
            )
            if ridi:
                return result, self.applied_seq
            self._writes_since_snapshot += 1
            if self._writes_since_snapshot >= self.snapshot_interval:
                try:
                    self._write_snapshot()
                except Exception:
                    # the write IS durable (it is in the WAL): whatever
                    # the snapshot rewrite raised — I/O, a budget breach,
                    # a cancellation — it degrades to a longer replay on
                    # the next startup and never to a failed reply
                    self.snapshot_failures += 1
            return result, self.applied_seq

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _replay(self, record: dict) -> None:
        if record.get("kind") != "apply":
            raise StorageError(
                f"write-ahead log {self.wal_path}: unknown record kind"
                f" {record.get('kind')!r}"
            )
        module = Module.from_source(
            record["module"], name=record.get("module_name", "")
        )
        self.db.oidgen.restore(max(1, int(record["oid_next"])))

        def verify(result: ApplicationResult) -> None:
            post = state_fingerprints(result.state)
            recorded = record.get("post") or {}
            if post != recorded:
                drifted = sorted(k for k in post if post[k] != recorded.get(k))
                raise StorageError(
                    f"write-ahead log {self.wal_path}: record"
                    f" {record['seq']} replay diverged on"
                    f" {', '.join(drifted)} (fingerprint mismatch)"
                )

        try:
            self.db.run_module(
                module, Mode(record["mode"]),
                semantics=Semantics(record["semantics"]), commit=verify,
            )
        except StorageError:
            raise
        except LogresError as exc:
            raise StorageError(
                f"write-ahead log {self.wal_path}: replaying committed"
                f" record {record['seq']} failed: {exc}"
            ) from exc
        self.applied_seq = int(record["seq"])

    def _write_snapshot(self) -> None:
        """Atomic snapshot rewrite carrying the covered WAL position.

        The payload is the format-v2 state (checksum over the body, so
        :func:`load_state` verifies it unchanged) plus two envelope
        fields outside the checksummed body: ``wal_seq`` and
        ``oid_next``."""
        if FAULTS.enabled:
            FAULTS.fire("server.snapshot")
        envelope = json.loads(self.db.dumps())
        envelope["wal_seq"] = self.applied_seq
        envelope["oid_next"] = self.db.oidgen.next_number
        atomic_write_text(
            self.snapshot_path,
            json.dumps(envelope, indent=1, sort_keys=True),
        )
        self.wal.truncate(up_to_seq=self.applied_seq)
        self._writes_since_snapshot = 0


def _read_state_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise StorageError(
            f"cannot read database snapshot {path}: {exc}"
        ) from exc


class DatabaseRegistry:
    """Every named database under one data directory."""

    def __init__(self, data_dir: str, snapshot_interval: int = 16):
        self.data_dir = os.fspath(data_dir)
        self.snapshot_interval = snapshot_interval
        self._lock = threading.Lock()
        self._databases: dict[str, ManagedDatabase] = {}

    def open_all(self) -> list[str]:
        """Discover and recover every ``*.state.json`` in the data
        directory; returns the recovered names."""
        os.makedirs(self.data_dir, exist_ok=True)
        names = sorted(
            entry[: -len(SNAPSHOT_SUFFIX)]
            for entry in os.listdir(self.data_dir)
            if entry.endswith(SNAPSHOT_SUFFIX)
        )
        for name in names:
            self.get(name)
        return names

    def get(self, name: str) -> ManagedDatabase:
        validate_name(name)
        with self._lock:
            managed = self._databases.get(name)
            if managed is not None:
                return managed
            managed = ManagedDatabase(
                name, self.data_dir,
                snapshot_interval=self.snapshot_interval,
            )
            if not managed.exists:
                raise KeyError(name)
            # registered before the (possibly slow) recovery so a
            # concurrent get() waits on the same object's lock
            self._databases[name] = managed
        with managed.lock.write():
            if managed.db is None:
                managed.open()
        return managed

    def create(self, name: str, source: str) -> ManagedDatabase:
        validate_name(name)
        os.makedirs(self.data_dir, exist_ok=True)
        with self._lock:
            managed = ManagedDatabase(
                name, self.data_dir,
                snapshot_interval=self.snapshot_interval,
            )
            if name in self._databases or managed.exists:
                raise StorageError(
                    f"database {name!r} already exists"
                )
            self._databases[name] = managed
        try:
            with managed.lock.write():
                managed.create(source)
        except BaseException:
            with self._lock:
                self._databases.pop(name, None)
            raise
        return managed

    def names(self) -> list[str]:
        with self._lock:
            loaded = set(self._databases)
        on_disk = set()
        if os.path.isdir(self.data_dir):
            on_disk = {
                entry[: -len(SNAPSHOT_SUFFIX)]
                for entry in os.listdir(self.data_dir)
                if entry.endswith(SNAPSHOT_SUFFIX)
            }
        return sorted(loaded | on_disk)

    def close_all(self) -> None:
        """Drain path: snapshot + fsync every open database."""
        with self._lock:
            databases = list(self._databases.values())
        for managed in databases:
            managed.close(snapshot=True)
