"""Load generation against a running ``repro serve`` (``docs/SERVE.md``).

N client threads x M requests each, a deterministic read/write mix over
one PR 9 workload family: writes apply small RIDV modules (new facts in
the family's extensional predicates), reads materialize an isolated
snapshot and answer a bounded family goal.  The report carries the
latency quantiles the ``BENCH_serve.json`` trend rows are built from
(``benchmarks/serve_load.py``), plus full status accounting so overload
behaviour (429 + ``Retry-After``) is measurable, not anecdotal.

Everything here speaks plain HTTP (urllib) — the load generator is also
the reference client.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass, field

from repro.core.database import Database
from repro.modules.state import DatabaseState
from repro.server.registry import ManagedDatabase
from repro.workloads.families import FAMILIES, resolve_scale

#: per-family write template: one new extensional fact per apply,
#: parameterized by a client-unique counter so writes never collide
WRITE_TEMPLATES: dict[str, str] = {
    "kg": 'rules\n  relates(src "load{i}", dst "load{i}x").',
    "rbac": 'rules\n  user_role(user "load{i}", role "r0").',
    "reach": 'rules\n  edge(src "load{i}", dst "load{i}x").',
    "genealogy": 'rules\n  parent(par "load{i}", chil "load{i}x").',
}

#: per-family bounded read goal (answers stay small at every scale)
READ_GOALS: dict[str, str] = {
    "kg": '?- influence(src "s0", dst Y).',
    "rbac": '?- can(user "u0", perm P).',
    "reach": '?- reach(src "n0", dst Y).',
    "genealogy": '?- ancestor(anc "p1", des D).',
}


def seed_database(data_dir: str, name: str, family: str,
                  scale: str | int, seed: int = 0) -> ManagedDatabase:
    """Materialize one workload family into a served database: the
    family's program as persistent rules, its generated facts as the
    EDB, snapshotted in the server's on-disk format."""
    fam = FAMILIES[family]
    schema, program, edb = fam.build(resolve_scale(scale), seed)
    managed = ManagedDatabase(name, data_dir)
    managed.create(Database.from_state(
        DatabaseState(schema, edb, program.rules)
    ))
    managed.close()
    return managed


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------
def post_json(base: str, path: str, body: dict,
              timeout: float = 30.0,
              tenant: str | None = None) -> tuple[int, dict, dict]:
    """``(status, payload, headers)`` of one POST; HTTP error statuses
    are returned, not raised (they are data to a load generator)."""
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"),
        method="POST", headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return (resp.status, json.loads(resp.read() or b"{}"),
                    dict(resp.headers))
    except urllib.error.HTTPError as exc:
        try:
            raw = exc.read() or b"{}"
        except (OSError, http.client.HTTPException):
            # the status line arrived but the body was cut (e.g. the
            # server's socket closed mid-drain) — the status is still
            # the answer
            raw = b"{}"
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        return exc.code, payload, dict(exc.headers)


@dataclass
class LoadSpec:
    """One load scenario: N clients x M requests, mixed read/write."""

    family: str = "reach"
    clients: int = 4
    requests: int = 25
    #: every k-th request writes; the rest read (k = round(1/ratio))
    write_ratio: float = 0.25
    timeout: float = 30.0
    tenant: str | None = None


@dataclass
class LoadReport:
    """What N x M requests did: statuses, latencies, shed accounting."""

    spec: LoadSpec
    statuses: Counter = field(default_factory=Counter)
    latencies_ms: list[float] = field(default_factory=list)
    write_latencies_ms: list[float] = field(default_factory=list)
    read_latencies_ms: list[float] = field(default_factory=list)
    retry_after_seen: int = 0
    transport_errors: int = 0
    elapsed_s: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.statuses.values()) + self.transport_errors

    @property
    def throughput_rps(self) -> float:
        return self.total / self.elapsed_s if self.elapsed_s else 0.0

    def quantile_ms(self, q: float, which: str = "all") -> float:
        data = {
            "all": self.latencies_ms,
            "read": self.read_latencies_ms,
            "write": self.write_latencies_ms,
        }[which]
        if not data:
            return 0.0
        ordered = sorted(data)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "clients": self.spec.clients,
            "requests_per_client": self.spec.requests,
            "write_ratio": self.spec.write_ratio,
            "total": self.total,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "retry_after_seen": self.retry_after_seen,
            "transport_errors": self.transport_errors,
            "elapsed_s": round(self.elapsed_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.quantile_ms(0.50), 3),
            "p95_ms": round(self.quantile_ms(0.95), 3),
            "p99_ms": round(self.quantile_ms(0.99), 3),
            "write_p95_ms": round(self.quantile_ms(0.95, "write"), 3),
            "read_p95_ms": round(self.quantile_ms(0.95, "read"), 3),
        }


def run_load(base: str, db_name: str, spec: LoadSpec) -> LoadReport:
    """Drive ``spec.clients`` threads of ``spec.requests`` each against
    ``base`` (e.g. ``http://127.0.0.1:8765``); deterministic mix."""
    write_template = WRITE_TEMPLATES[spec.family]
    read_goal = READ_GOALS[spec.family]
    stride = max(1, round(1 / spec.write_ratio)) if spec.write_ratio else 0
    report = LoadReport(spec)
    lock = threading.Lock()

    def client(client_no: int) -> None:
        for j in range(spec.requests):
            serial = client_no * spec.requests + j
            is_write = stride and (serial % stride == 0)
            if is_write:
                body = {
                    "module": write_template.format(i=serial),
                    "mode": "RIDV",
                }
                op = "apply"
            else:
                body = {"goal": read_goal}
                op = "run"
            started = time.perf_counter()
            try:
                status, _, headers = post_json(
                    base, f"/v1/db/{db_name}/{op}", body,
                    timeout=spec.timeout, tenant=spec.tenant,
                )
            except (OSError, urllib.error.URLError):
                with lock:
                    report.transport_errors += 1
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                report.statuses[status] += 1
                report.latencies_ms.append(elapsed_ms)
                (report.write_latencies_ms if is_write
                 else report.read_latencies_ms).append(elapsed_ms)
                if headers.get("Retry-After"):
                    report.retry_after_seen += 1

    threads = [
        threading.Thread(target=client, args=(n,), daemon=True)
        for n in range(spec.clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.elapsed_s = time.perf_counter() - started
    return report
