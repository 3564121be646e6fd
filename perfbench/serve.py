"""The serve workloads: a ``repro serve`` subprocess under a closed loop.

One benchmark process drives the server with ``clients`` threads; each
thread sends its next request only after the previous reply arrived.
The server runs as ``python3 -m repro serve`` (untraced) or through
``launch.py`` (traced).  Every check runs outside the timed phase:

* each read's answers equal the reference kernel's on the seeded state;
* at the end, the served database's fingerprints equal those of the
  seeded EDB with the acknowledged writes applied by this process, and
  ``applied_seq`` equals the number of acknowledged writes;
* ``serve-write`` commits writes, ``kill -9``s the server and restarts
  it before the timed phase; every restart must report every
  acknowledged write.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import procs
from stats import vm_hwm_mb, windowed_rate
from inputs import (
    RECOVERY_WRITES,
    ServeWorkload,
    client_stream,
    goal_nodes,
    served_family,
)

DB = "bench"
#: spawns whose spawn-to-ready times give setup_s
SPAWNS = 5
RESTARTS = 3
STOP_TIMEOUT = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# the served database and its independent oracle
# ---------------------------------------------------------------------------
def seed_data_dir(data_dir: str, schema, program, edb) -> None:
    """Write the family as a served database snapshot (the registry's
    on-disk format: the format-v2 state plus ``wal_seq``/``oid_next``)."""
    from repro.core.database import Database
    from repro.modules.state import DatabaseState
    from repro.values.oids import Oid

    db = Database(schema, rules=program.rules)
    db.state = DatabaseState(schema, edb.copy(), program.rules)
    db.oidgen.reserve_above(Oid(max(1, edb.max_oid_number())))
    envelope = json.loads(db.dumps())
    envelope["wal_seq"] = 0
    envelope["oid_next"] = db.oidgen.next_number
    os.makedirs(data_dir, exist_ok=True)
    with open(os.path.join(data_dir, DB + ".state.json"), "w",
              encoding="utf-8") as f:
        json.dump(envelope, f)


class Oracle:
    """The EDB the server should hold: the seeded facts plus every
    acknowledged insert, minus every acknowledged delete."""

    def __init__(self, workload: ServeWorkload, schema, program, edb):
        self.shape = workload.shape
        self.schema = schema
        self.rules = program.rules
        self.edb = edb.copy()
        self.acked = 0

    def apply(self, op) -> None:
        from repro.storage.factset import Fact
        from repro.values.complex import TupleValue

        fact = Fact(self.shape.write_pred, TupleValue(
            **{self.shape.src: op.src, self.shape.dst: op.dst}))
        if op.kind == "insert":
            self.edb.add(fact)
        else:
            self.edb.discard(fact)
        self.acked += 1

    def fingerprints(self) -> dict:
        from repro.modules.state import DatabaseState
        from repro.modules.txn import state_fingerprints

        return state_fingerprints(
            DatabaseState(self.schema, self.edb, self.rules))


def reference_answers(workload: ServeWorkload, schema, program, edb,
                      goals) -> tuple[dict, float]:
    """``({node: answers}, seconds)``: every goal answered on the seeded
    state by the reference kernel, rendered as the server renders them."""
    from repro.engine import Engine, EvalConfig, Semantics
    from repro.engine.goals import answer_goal
    from repro.language.parser import parse_source
    from repro.values.oids import OidGenerator
    from inputs import Op

    started = time.perf_counter()
    instance = Engine(schema, program,
                      config=EvalConfig(incremental=False, plan=False),
                      oidgen=OidGenerator()).run(edb, Semantics.INFLATIONARY)
    elapsed = time.perf_counter() - started
    out = {}
    for node in goals:
        text = Op("read", node, "").body(workload.shape)["goal"]
        goal = parse_source("goal\n" + text).goal
        rows = answer_goal(goal, instance, schema)
        out[node] = canonical_answers(
            [{var: repr(value) for var, value in row.items()}
             for row in rows])
    return out, elapsed


def canonical_answers(rows) -> list[str]:
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on ``data_dir``."""

    def __init__(self, root: str, data_dir: str, spans: str | None):
        self.root = root
        self.data_dir = data_dir
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.host = self.port = None

    def start(self) -> float:
        """Spawn the server; returns the seconds from spawn to ready."""
        ready = os.path.join(self.data_dir, "ready")
        args = ["serve", "--port", "0", "--data-dir", self.data_dir,
                "--ready-file", ready, "--quiet", "--snapshot-interval", "16"]
        if self.spans:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                   "--spans", self.spans, *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.proc, line, setup_s = procs.start(
            "repro serve", cmd, self.root, ready,
            os.path.join(self.data_dir, "server.log"))
        self.host, port = line.split()
        self.port = int(port)
        return setup_s

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def kill(self) -> None:
        """``kill -9``: no drain, no final snapshot."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=STOP_TIMEOUT)

    def stop(self) -> int:
        """SIGTERM: graceful drain; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9

    def ensure_stopped(self) -> None:
        if self.proc is not None:
            procs.stop(self.proc)

    def info(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", f"/v1/db/{DB}")
            resp = conn.getresponse()
            payload = json.loads(resp.read() or b"{}")
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"info returned {resp.status}: {payload}")
        return payload


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    op: object
    start: float
    latency_ms: float
    status: int
    run_id: str | None = None
    payload: dict = field(default_factory=dict)


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, server: Server, workload: ServeWorkload):
        self.server = server
        self.shape = workload.shape
        self.conn = None

    def send(self, op) -> Sample:
        path = f"/v1/db/{DB}/{'run' if op.is_read else 'apply'}"
        body = json.dumps(op.body(self.shape)).encode("utf-8")
        started = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.server.host, self.server.port, timeout=60)
            self.conn.request("POST", path, body=body, headers={
                "Content-Type": "application/json"})
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return Sample(op, started, 0.0, 0)
        latency = (time.perf_counter() - started) * 1000.0
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            payload = {}
        return Sample(op, started, latency, resp.status,
                      resp.getheader("X-Repro-Run-Id"), payload)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def drive(server: Server, workload: ServeWorkload, streams,
          seconds: float) -> tuple[list[Sample], float]:
    """Run every client stream against ``server`` for ``seconds``;
    returns the samples and the requests completed per second."""
    samples: list[Sample] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def loop(stream) -> None:
        client = Client(server, workload)
        mine = []
        try:
            while time.perf_counter() < deadline:
                mine.append(client.send(next(stream)))
        finally:
            client.close()
            with lock:
                samples.extend(mine)

    threads = [threading.Thread(target=loop, args=(s,)) for s in streams]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ends = [s.start + s.latency_ms / 1000.0 for s in samples
            if s.status == 200]
    return samples, windowed_rate(ends, started,
                                  time.perf_counter() - started)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
@dataclass
class ServeRun:
    samples: list[Sample] = field(default_factory=list)
    #: samples of the traced half (trace mode only)
    traced: list[Sample] = field(default_factory=list)
    #: requests completed per second (stats.windowed_rate)
    throughput: float = 0.0
    setups: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference_s: float = 0.0
    spans_path: str | None = None


def _check_durable(server: Server, oracle: Oracle, run: ServeRun,
                   what: str) -> None:
    info = server.info()
    if info.get("applied_seq") != oracle.acked:
        run.problems.append(
            f"{what}: applied_seq {info.get('applied_seq')} !="
            f" {oracle.acked} acknowledged writes")
    if info.get("fingerprints") != oracle.fingerprints():
        run.problems.append(
            f"{what}: served fingerprints differ from the replay of the"
            " acknowledged writes")


def _account(samples, oracle: Oracle, expected: dict, run: ServeRun) -> None:
    """Fold samples into the oracle and count failures (outside timing).
    The clients' writes touch disjoint facts, so their order is free."""
    for s in samples:
        run.attempted += 1
        if s.status != 200:
            run.failed += 1
            continue
        if s.op.is_read:
            got = canonical_answers(s.payload.get("answers", []))
            if got != expected[s.op.src]:
                run.failed += 1
        else:
            oracle.apply(s.op)


def run_serve(workload: ServeWorkload, seed: int, seconds: float,
              trace: bool, root: str, work: str) -> ServeRun:
    schema, program, edb = served_family(workload)
    goals = goal_nodes(workload, seed, edb)
    expected, run_reference = reference_answers(
        workload, schema, program, edb, goals)
    data_dir = os.path.join(work, "data")
    seed_data_dir(data_dir, schema, program, edb)
    oracle = Oracle(workload, schema, program, edb)
    run = ServeRun(reference_s=run_reference)
    spans = os.path.join(work, "spans.json") if trace else None
    run.spans_path = spans
    server = Server(root, data_dir, spans)
    try:
        if workload.recovery:
            server.start()
            setup_client = Client(server, workload)
            writes = (op for op in client_stream(
                workload, seed, workload.clients, goals) if not op.is_read)
            for _ in range(RECOVERY_WRITES):
                sample = setup_client.send(next(writes))
                run.attempted += 1
                if sample.status != 200:
                    run.failed += 1
                    continue
                oracle.apply(sample.op)
            setup_client.close()
            # page cache survives kill -9: this checks recovery logic
            server.kill()
            for n in range(RESTARTS):
                run.setups.append(server.start())
                _check_durable(server, oracle, run, f"restart {n + 1}")
                if n + 1 < RESTARTS:
                    server.kill()
        else:
            for n in range(SPAWNS):
                run.setups.append(server.start())
                if n + 1 < SPAWNS:
                    if server.stop() != 0:
                        run.problems.append("server did not drain cleanly")
        streams = [client_stream(workload, seed, c, goals)
                   for c in range(workload.clients)]
        if trace:
            half = seconds / 2.0
            run.traced, _ = drive(server, workload, streams, half)
            _account(run.traced, oracle, expected, run)
            _check_durable(server, oracle, run, "end of traced phase")
            if server.stop() != 0:
                run.problems.append("traced server did not drain cleanly")
            server = Server(root, data_dir, None)
            server.start()
            seconds = half
        run.samples, run.throughput = drive(server, workload, streams,
                                            seconds)
        _account(run.samples, oracle, expected, run)
        _check_durable(server, oracle, run, "end of run")
        run.peak_rss_mb = server.peak_rss_mb()
        if server.stop() != 0:
            run.problems.append("server did not drain cleanly")
    finally:
        server.ensure_stopped()
    return run
