"""Seeded inputs of the benchmark: served families and request streams.

Everything here is a pure function of ``(workload, seed)``.  The family
facts come from :mod:`repro.workloads.families`; the request streams are
the benchmark's own, so a change to the program cannot change what the
benchmark asks of it.

Every run uses the same data (family generator seed :data:`DATA_SEED`);
the seed draws what is asked of it — the requests of the serve
workloads, the order of the evaluations of ``batch-eval`` — so the
spread across seeds measures the program on the machine, not the size
of a freshly drawn database.  ``pins.json`` records the fingerprint of each
seeded EDB and the digest of each request stream for a set of seeds, and
:func:`check_pins` refuses to run when either has drifted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

SCALE = 1000
#: requests per client hashed into a stream digest
DIGEST_PREFIX = 1000
#: distinct goal start nodes drawn per run
GOAL_POOL = 64
#: writes committed, then recovered, before a serve-write run is timed
RECOVERY_WRITES = 12
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")
#: family generator seed of every workload's data
DATA_SEED = 0
#: seed whose pins every run checks, whatever seed it was given
CANARY_SEED = 0
BATCH_FAMILIES = ("kg", "rbac", "reach", "genealogy")


@dataclass(frozen=True)
class ServeShape:
    """How one served family is read and written."""

    family: str
    #: predicate the writes insert into and delete from
    write_pred: str
    #: goal predicate of the reads
    goal_pred: str
    #: the labels of ``write_pred`` and ``goal_pred``
    src: str
    dst: str


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    shape: ServeShape
    #: ``(writes, block)``: every block of ``block`` consecutive
    #: requests of a client holds exactly ``writes`` writes, at seeded
    #: positions, so every seed sends the same read/write mix
    mix: tuple[int, int]
    #: the operation p50_ms describes: "read" or "write"
    main_op: str
    clients: int = 2
    #: kill -9 and recover before the timed phase
    recovery: bool = False


KG = ServeShape("kg", "relates", "influence", "src", "dst")
REACH = ServeShape("reach", "edge", "reach", "src", "dst")

SERVE_WORKLOADS = {
    # one client: two concurrent reads contend for the server's
    # interpreter lock, which swings read latency by 10-15% from run to
    # run; serve-write keeps two clients, as its writes are serialized
    "serve-read": ServeWorkload("serve-read", KG, (1, 10), "read",
                                clients=1),
    "serve-write": ServeWorkload("serve-write", REACH, (4, 5), "write",
                                 recovery=True),
}
WORKLOADS = (*SERVE_WORKLOADS, "batch-eval")


def build_family(family: str, seed: int):
    """``(schema, program, edb)`` of one family at the benchmark scale."""
    from repro.workloads.families import FAMILIES

    return FAMILIES[family].build(SCALE, seed)


def served_family(workload: "ServeWorkload"):
    return build_family(workload.shape.family, DATA_SEED)


def batch_families() -> dict:
    return {f: build_family(f, DATA_SEED) for f in BATCH_FAMILIES}


def edb_fingerprint(edb) -> str:
    from repro.workloads.families import factset_fingerprint

    return factset_fingerprint(edb)


@dataclass(frozen=True)
class Op:
    """One request: a read (goal on ``node``) or a write (insert or
    delete of the fact ``(src, dst)`` of the write predicate)."""

    kind: str  # "read" | "insert" | "delete"
    src: str
    dst: str

    @property
    def is_read(self) -> bool:
        return self.kind == "read"

    def body(self, shape: ServeShape) -> dict:
        if self.is_read:
            return {"goal": f'?- {shape.goal_pred}({shape.src} "{self.src}",'
                            f" {shape.dst} Y)."}
        neg = "~" if self.kind == "delete" else ""
        return {"mode": "RIDV",
                "module": f"rules\n  {neg}{shape.write_pred}("
                          f'{shape.src} "{self.src}",'
                          f' {shape.dst} "{self.dst}").'}

    def render(self) -> str:
        return f"{self.kind} {self.src} {self.dst}"


def goal_nodes(workload: ServeWorkload, seed: int, edb) -> tuple[str, ...]:
    """The seeded start nodes of the reads: nodes with an out-edge."""
    shape = workload.shape
    sources = sorted({fact.value[shape.src]
                      for fact in edb.facts_of(shape.write_pred)})
    rng = random.Random(f"{workload.name}/{seed}/goals")
    return tuple(rng.sample(sources, min(GOAL_POOL, len(sources))))


def client_stream(workload: ServeWorkload, seed: int, client: int,
                  goals: tuple[str, ...]):
    """Client ``client``'s endless, deterministic request sequence.

    A write inserts a fact between two fresh constants, ``w<client>-<n>``
    and ``w<client>-<n>x``, so it never touches a goal's start node and
    every write changes the instance by the same amount; every fourth
    write deletes (head negation) the oldest fact this client inserted
    and has not yet deleted.
    """
    rng = random.Random(f"{workload.name}/{seed}/client{client}")
    writes_per_block, block = workload.mix
    live: list[Op] = []
    writes = 0
    while True:
        writing = set(rng.sample(range(block), writes_per_block))
        for slot in range(block):
            if slot not in writing:
                yield Op("read", rng.choice(goals), "")
                continue
            writes += 1
            if writes % 4 == 0 and live:
                victim = live.pop(0)
                yield Op("delete", victim.src, victim.dst)
                continue
            name = f"w{client}-{writes}"
            op = Op("insert", name, name + "x")
            live.append(op)
            yield op


def stream_digest(workload: ServeWorkload, seed: int,
                  goals: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(("goals " + " ".join(goals) + "\n").encode())
    # the extra stream is the recovery writes' (see serve.run_serve)
    for client in range(workload.clients + workload.recovery):
        stream = client_stream(workload, seed, client, goals)
        for _ in range(DIGEST_PREFIX):
            digest.update((next(stream).render() + "\n").encode())
    return digest.hexdigest()[:16]


def pass_orders(seed: int):
    """The endless sequence of batch passes: each a seeded order of the
    four families."""
    rng = random.Random(f"batch-eval/{seed}/order")
    while True:
        order = list(BATCH_FAMILIES)
        rng.shuffle(order)
        yield tuple(order)


def batch_digest(seed: int) -> str:
    digest = hashlib.sha256()
    orders = pass_orders(seed)
    for _ in range(DIGEST_PREFIX):
        digest.update((" ".join(next(orders)) + "\n").encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------
def compute_pins(workload: str, seed: int) -> dict:
    """``{"edb": {family: fingerprint}, "requests": digest}``."""
    if workload == "batch-eval":
        edbs = {f: edb_fingerprint(edb)
                for f, (_, _, edb) in batch_families().items()}
        return {"edb": edbs, "requests": batch_digest(seed)}
    spec = SERVE_WORKLOADS[workload]
    edb = served_family(spec)[2]
    return {"edb": {spec.shape.family: edb_fingerprint(edb)},
            "requests": stream_digest(spec, seed,
                                      goal_nodes(spec, seed, edb))}


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_pins(workload: str, seed: int, pins: dict) -> list[str]:
    """Drift messages (empty when the inputs are as pinned).  Checks the
    run's own seed when it is pinned, and always the canary seed."""
    problems = []
    recorded = pins.get(workload, {})
    for s in sorted({seed, CANARY_SEED}):
        want = recorded.get(str(s))
        if want is None:
            if s == CANARY_SEED:
                problems.append(f"{workload}: no pin for canary seed {s}")
            continue
        got = compute_pins(workload, s)
        if got != want:
            problems.append(
                f"{workload} seed {s}: inputs drifted from pins.json"
                f" (pinned {want}, generated {got})"
            )
    return problems


def write_pins(seeds, path: str = PINS_PATH) -> None:
    pins = {w: {str(s): compute_pins(w, s) for s in seeds}
            for w in WORKLOADS}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    # re-pin after a deliberate change of the inputs:
    #   PYTHONPATH=src python3 perfbench/inputs.py 64
    import sys

    write_pins(range(int(sys.argv[1]) if len(sys.argv) > 1 else 64))
