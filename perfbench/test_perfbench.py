"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from tracing import Span, children_of, covered, outermost, self_time  # noqa: E402,E501


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
def _prefix(workload, seed, client, n=300):
    edb = inputs.served_family(workload)[2]
    goals = inputs.goal_nodes(workload, seed, edb)
    stream = inputs.client_stream(workload, seed, client, goals)
    return goals, [op.render() for op in itertools.islice(stream, n)]


def test_same_seed_same_request_sequence():
    for workload in inputs.SERVE_WORKLOADS.values():
        assert _prefix(workload, 7, 0) == _prefix(workload, 7, 0)
        assert _prefix(workload, 7, 0) != _prefix(workload, 8, 0)
        assert _prefix(workload, 7, 0)[1] != _prefix(workload, 7, 1)[1]


def test_same_seed_same_pass_orders():
    def orders(seed):
        return list(itertools.islice(inputs.pass_orders(seed), 50))

    assert orders(3) == orders(3)
    assert orders(3) != orders(4)
    assert all(sorted(o) == sorted(inputs.BATCH_FAMILIES) for o in orders(3))


def test_same_seed_same_pins():
    for workload in inputs.WORKLOADS:
        assert inputs.compute_pins(workload, 3) == \
            inputs.compute_pins(workload, 3)


def test_committed_pins_hold():
    pins = inputs.load_pins()
    for workload in inputs.WORKLOADS:
        assert inputs.check_pins(workload, 5, pins) == []


def test_pin_drift_is_reported():
    pins = json.loads(json.dumps(inputs.load_pins()))
    pins["serve-read"]["0"]["requests"] = "0" * 16
    assert inputs.check_pins("serve-read", 9, pins)


def test_writes_never_touch_goal_nodes_and_deletes_follow_inserts():
    workload = inputs.SERVE_WORKLOADS["serve-write"]
    goals, _ = _prefix(workload, 2, 0)
    inserted = set()
    ops = itertools.islice(
        inputs.client_stream(workload, 2, 1, goals), 2000)
    kinds = {"read": 0, "insert": 0, "delete": 0}
    for op in ops:
        kinds[op.kind] += 1
        if op.is_read:
            assert op.src in goals
            continue
        assert op.src.startswith("w1-") and op.dst == op.src + "x"
        if op.kind == "insert":
            inserted.add((op.src, op.dst))
        else:
            assert (op.src, op.dst) in inserted
            inserted.remove((op.src, op.dst))
    writes = kinds["insert"] + kinds["delete"]
    assert writes == 1600  # exactly 4 in every block of 5
    assert kinds["delete"] == 400


def test_oracle_matches_the_program_replay():
    """The benchmark's own EDB replay agrees with RIDV module
    application on the fingerprints the server reports."""
    import serve
    from repro.modules.apply import apply_module
    from repro.modules.module import Mode, Module
    from repro.modules.state import DatabaseState
    from repro.modules.txn import state_fingerprints

    workload = inputs.SERVE_WORKLOADS["serve-read"]
    schema, program, edb = inputs.served_family(workload)
    goals = inputs.goal_nodes(workload, 4, edb)
    oracle = serve.Oracle(workload, schema, program, edb)
    state = DatabaseState(schema, edb.copy(), program.rules)
    writes = (op for op in inputs.client_stream(workload, 4, 0, goals)
              if not op.is_read)
    for op in itertools.islice(writes, 5):
        module = Module.from_source(op.body(workload.shape)["module"])
        state = apply_module(state, module, Mode.RIDV,
                             check_initial=False).state
        oracle.apply(op)
    assert oracle.fingerprints() == state_fingerprints(state)


# ---------------------------------------------------------------------------
# percentile guard
# ---------------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values[:99], 90) is None
    assert stats.percentile(values[:20], 50) == 10
    assert stats.percentile(values[:19], 50) is None
    assert stats.percentile(list(range(200)), 95) is not None
    assert stats.percentile(list(range(199)), 95) is None


def test_latency_summary_reports_missing_not_estimated():
    summary = stats.latency_summary([5.0] * 19)
    assert summary == {"n": 19, "p50": None, "p90": None, "p95": None}
    summary = stats.latency_summary([float(x) for x in range(100)])
    assert summary["p50"] == 49.5 and summary["p90"] == 89.0
    assert summary["p95"] is None


def test_windowed_rate_ignores_a_burst_in_one_window():
    steady = [i * 0.1 for i in range(100)]  # 10/s over 10 s
    assert stats.windowed_rate(steady, 0.0, 10.0) == 10.0
    # a stall: nothing completes in the second window
    stalled = [t for t in steady if not 2.0 <= t < 4.0]
    assert stats.windowed_rate(stalled, 0.0, 10.0) == 10.0


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
def _tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (running past the root's end); a has child a1 [2, 3]
    return [
        Span(1, None, "r", "server.http", 0.0, 10.0),
        Span(2, 1, "r", "modules.state", 1.0, 4.0),
        Span(3, 1, "r", "engine.fixpoint", 3.0, 6.0),
        Span(4, 1, "r", "storage.factset", 9.0, 12.0),
        Span(5, 2, "r", "engine.fixpoint", 2.0, 3.0),
        Span(6, 1, "r", "server.registry:write_hold", 0.0, 10.0,
             {"overlay": 1}),
    ]


def test_self_time_subtracts_covered_child_time():
    spans = _tree()
    children = children_of(spans)
    by_id = {s.id: s for s in spans}
    # covered: [1, 6] (a and b overlap) + [9, 10] (c clipped) = 6
    assert self_time(by_id[1], children) == 4.0
    assert self_time(by_id[2], children) == 2.0
    assert self_time(by_id[3], children) == 3.0
    assert self_time(by_id[5], children) == 1.0


def test_covered_merges_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(2, 5), (4, 8), (9, 20)]) == 7
    assert covered(5, 6, [(0, 10)]) == 1


def test_outermost_counts_nested_layer_once():
    spans = _tree()
    assert [s.id for s in outermost(spans, "engine.fixpoint")] == [3, 5]
    nested = spans + [Span(7, 5, "r", "engine.fixpoint", 2.2, 2.8)]
    assert [s.id for s in outermost(nested, "engine.fixpoint")] == [3, 5]


def test_shares_partition_client_time():
    spans = _tree()
    roots = [spans[0]]
    # client saw 12 s: 10 s in the server, 2 s in transport
    out = layers.shares(spans, roots, 12.0, transport_s=2.0)
    assert abs(sum(out.values()) - (4 + 2 + 3 + 3 + 1 + 2) / 12.0) < 1e-12
    assert out["share.unattributed"] == 4 / 12.0
    assert out["share.transport"] == 2 / 12.0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints
# ---------------------------------------------------------------------------
def test_benchmark_json_names_match():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == layers.layer_names()
    import run

    e2e = run.end_to_end(list(range(200)), 1.0, [1.0], 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    for m in spec["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
