"""Crash recovery: the WAL/snapshot pair survives every fault point.

The property (docs/SERVE.md): for any injected fault at any durability
point — WAL append, snapshot rewrite, the atomic-write and fsync layers
under it — the reopened database is fingerprint-identical to a no-fault
reference that ran the same committed sequence.  Acknowledged writes
are never lost; unacknowledged ones never half-apply.
"""

import pytest

from repro.engine import EvalConfig, Semantics
from repro.engine.guards import ResourceGuard
from repro.errors import (
    ModuleApplicationError,
    NonTerminationError,
    StorageError,
)
from repro.modules.module import Mode
from repro.server.registry import DatabaseRegistry
from repro.server.wal import WriteAheadLog, make_record
from repro.testing import FAULTS
from repro.testing.faults import FaultSpec

SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""

#: five committed writes, each one new edge of a chain
MODULES = [
    f'rules\n  parent(par "p{i}", chil "p{i + 1}").' for i in range(5)
]

#: invention workload: each write adds employees; the *persistent* rule
#: invents one ip object per (employee, manager) pair, so replay must
#: reproduce the exact invented oids (Appendix B, Def. 8b) for the
#: fingerprints to match
IP_SOURCE = """
classes
  ip = (emp: string, mgr: string).
associations
  emp = (ename: string, nm: string, works: string).
  dept = (dname: string, depmgr: string).
rules
  ip(emp E, mgr M) <- emp(ename E, nm N, works D),
                      dept(dname D, depmgr M), emp(ename M, nm N).
"""

IP_MODULES = [
    'rules\n  dept(dname "d1", depmgr "m1").'
    '\n  emp(ename "m1", nm "smith", works "d9").',
    'rules\n  emp(ename "e1", nm "smith", works "d1").',
    'rules\n  emp(ename "e2", nm "smith", works "d1").',
]


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


def run_sequence(directory, source=SOURCE, modules=MODULES,
                 snapshot_interval=3):
    registry = DatabaseRegistry(directory, snapshot_interval=snapshot_interval)
    managed = registry.create("db", source)
    for module in modules:
        managed.apply(module, Mode.RIDV)
    return registry, managed


def reopen(directory, snapshot_interval=3):
    registry = DatabaseRegistry(directory, snapshot_interval=snapshot_interval)
    return registry.get("db")


class TestCleanRecovery:
    def test_reopen_without_close_equals_live(self, tmp_path):
        """kill -9 semantics: no close(), no final snapshot — the WAL
        tail alone must reconstruct the exact state."""
        _, live = run_sequence(tmp_path / "a")
        recovered = reopen(tmp_path / "a")
        assert recovered.fingerprints() == live.fingerprints()
        assert recovered.applied_seq == live.applied_seq == 5
        assert recovered.recovered_records > 0

    def test_close_then_reopen_replays_nothing(self, tmp_path):
        _, live = run_sequence(tmp_path / "a")
        prints = live.fingerprints()
        live.close()
        recovered = reopen(tmp_path / "a")
        assert recovered.fingerprints() == prints
        assert recovered.recovered_records == 0  # snapshot covered it all

    def test_invention_replays_identical_oids(self, tmp_path):
        _, live = run_sequence(
            tmp_path / "a", source=IP_SOURCE, modules=IP_MODULES,
            snapshot_interval=100,  # force a full replay
        )
        recovered = reopen(tmp_path / "a")
        assert recovered.fingerprints() == live.fingerprints()
        assert recovered.recovered_records == len(IP_MODULES)
        assert (recovered.db.oidgen.next_number
                == live.db.oidgen.next_number)


#: one write per data- or rule-variant mode, each legal after the last
EVERY_MODE = [
    (Mode.RIDV, 'rules\n  parent(par "a", chil "b").'),
    (Mode.RADI, 'rules\n  anc(a X, d X) <- parent(par X).'),
    (Mode.RADV, 'rules\n  parent(par "b", chil "c").'),
    (Mode.RDDI, 'rules\n  anc(a X, d X) <- parent(par X).'),
    (Mode.RDDV, 'rules\n  parent(par "b", chil "c").'),
]


class TestReplayEveryMode:
    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_reopen_without_close_replays_every_mode(self, tmp_path,
                                                      semantics):
        registry = DatabaseRegistry(tmp_path, snapshot_interval=100)
        live = registry.create("db", SOURCE)
        for mode, module in EVERY_MODE:
            live.apply(module, mode, semantics=semantics)
        recovered = reopen(tmp_path, snapshot_interval=100)
        assert recovered.fingerprints() == live.fingerprints()
        assert recovered.recovered_records == 5


class TestWalAppendFaults:
    @pytest.mark.parametrize("action", ["error", "io-error"])
    def test_failed_commit_is_invisible(self, tmp_path, action):
        _, live = run_sequence(tmp_path / "a", modules=MODULES[:3])
        before = live.fingerprints()
        oid_before = live.db.oidgen.next_number
        with FAULTS.inject("server.wal.append", action=action):
            with pytest.raises((RuntimeError, OSError)):
                live.apply(MODULES[3], Mode.RIDV)
        assert live.fingerprints() == before          # state rolled back
        assert live.db.oidgen.next_number == oid_before
        assert live.applied_seq == 3
        # the retry commits, and recovery agrees with a no-fault run
        live.apply(MODULES[3], Mode.RIDV)
        live.apply(MODULES[4], Mode.RIDV)
        _, reference = run_sequence(tmp_path / "ref")
        assert (reopen(tmp_path / "a").fingerprints()
                == reference.fingerprints())


class TestSnapshotFaults:
    @pytest.mark.parametrize("point,action", [
        ("server.snapshot", "error"),
        ("server.snapshot", "io-error"),
        ("server.snapshot", "breach"),
        ("server.snapshot", "cancel"),
        ("storage.write", "io-error"),
        ("storage.fsync", "io-error"),
    ])
    def test_snapshot_failure_degrades_to_longer_replay(
        self, tmp_path, point, action
    ):
        registry = DatabaseRegistry(tmp_path / "a", snapshot_interval=2)
        managed = registry.create("db", SOURCE)
        FAULTS.configure([FaultSpec(point, action=action)])
        for module in MODULES:
            managed.apply(module, Mode.RIDV)  # snapshots fail silently
        FAULTS.clear()
        assert managed.applied_seq == 5
        assert managed.snapshot_failures >= 1     # degraded, not lost
        recovered = reopen(tmp_path / "a")
        assert recovered.fingerprints() == managed.fingerprints()
        assert recovered.applied_seq == 5
        # one-shot fault: the next snapshot attempt self-healed, so the
        # stale window closed again (the failure stayed a *delay*, never
        # a loss)
        assert managed._writes_since_snapshot < len(MODULES)


class TestRecoveryValidation:
    def test_diverging_record_is_rejected(self, tmp_path):
        """A WAL record whose recorded post-state cannot be reproduced
        (bitrot, version skew) must fail recovery loudly, not silently
        load a different database."""
        _, live = run_sequence(tmp_path / "a", modules=MODULES[:2])
        wal = WriteAheadLog(live.wal_path)
        wal.append(make_record(
            3, "apply",
            module=MODULES[2], module_name="", mode="RIDV",
            semantics="inflationary",
            oid_next=live.db.oidgen.next_number,
            post={"schema": "bogus", "edb": "bogus", "program": "bogus"},
        ))
        wal.close()
        with pytest.raises(StorageError, match="diverged"):
            reopen(tmp_path / "a")

    def test_torn_wal_tail_is_ignored_end_to_end(self, tmp_path):
        _, live = run_sequence(tmp_path / "a", modules=MODULES[:3])
        prints = live.fingerprints()
        with open(live.wal_path, "a", encoding="utf-8") as f:
            f.write('{"version": 1, "seq": 99, "torn')  # crash mid-append
        recovered = reopen(tmp_path / "a")
        assert recovered.fingerprints() == prints
        assert recovered.applied_seq == 3

    def test_budget_breach_mid_apply_commits_nothing(self, tmp_path):
        _, live = run_sequence(tmp_path / "a", modules=MODULES[:2])
        before = live.fingerprints()
        guard = ResourceGuard(timeout=0.0000001)
        guard.arm()
        # the breach surfaces wrapped as a rejected application
        with pytest.raises((NonTerminationError, ModuleApplicationError)):
            live.apply(MODULES[2], Mode.RIDV,
                       config=EvalConfig(guard=guard))
        assert live.fingerprints() == before
        assert reopen(tmp_path / "a").fingerprints() == before
