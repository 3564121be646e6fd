"""The program process of the ``batch-eval`` workload.

    python3 perfbench/batch_worker.py --seed N --seconds S --ready FILE \
        --out FILE [--setup-only] [--spans FILE]

Set-up builds the four families at the benchmark scale and evaluates
each once, then writes the ready file.  The timed phase repeats
evaluation passes — ``Engine(...).run`` of each family under the default
``EvalConfig()``, the configuration ``repro serve`` runs, in an order
drawn from the seed — until ``--seconds`` have passed.  With ``--spans`` the time is split: an
untraced half, one ``profile_program`` per family, and a traced half
whose layer spans are written to the spans file.  Afterwards every
family's instance is compared with the reference kernel's, modulo oid
renaming (a deterministic program gives the timed evaluations the
same instance).  Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time


def evaluate(family, config=None):
    from repro.engine import Engine, Semantics

    schema, program, edb = family
    return Engine(schema, program, config=config).run(
        edb, Semantics.INFLATIONARY)


def timed_passes(families: dict, orders, seconds: float, recorder=None):
    """``(pass_ms, {family: [eval_ms]})``.

    A pass evaluates every family once, in the next order of ``orders``;
    its time is the sum of the evaluations.  Garbage left by earlier evaluations is collected
    before each one, outside the timed region, so every sample starts
    from the same heap.
    """
    passes, per_family = [], {f: [] for f in families}
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        total = 0.0
        for name in next(orders):
            family = families[name]
            gc.collect()
            if recorder is not None:
                n += 1
                recorder.request = f"{name}:{n}"
                span = recorder.open("batch.eval", family=name)
            t0 = time.perf_counter()
            try:
                evaluate(family)
            finally:
                elapsed = time.perf_counter() - t0
                if recorder is not None:
                    recorder.close(span)
            per_family[name].append(elapsed * 1000.0)
            total += elapsed
        passes.append(total * 1000.0)
    return passes, per_family


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from inputs import batch_families, pass_orders
    from stats import vm_hwm_mb

    families = batch_families()
    orders = pass_orders(args.seed)
    for family in families.values():
        evaluate(family)  # warm-up: lazy imports and caches
    # set-up objects live for the whole run: keep them out of the
    # collections timed_passes makes
    gc.collect()
    gc.freeze()
    with open(args.ready, "w", encoding="utf-8") as f:
        f.write("ready\n")
    if args.setup_only:
        return 0

    out: dict = {"profile_ms": {}, "reference_ms": {}, "mismatches": []}
    seconds = args.seconds / 2.0 if args.spans else args.seconds
    out["pass_ms"], out["eval_ms"] = timed_passes(families, orders, seconds)
    if args.spans:
        from repro.observability.profile import profile_program
        import tracing

        for name, (schema, program, edb) in families.items():
            t0 = time.perf_counter()
            profile_program(schema, program, edb)
            out["profile_ms"][name] = (time.perf_counter() - t0) * 1000.0
        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
        try:
            out["traced_pass_ms"], out["traced_eval_ms"] = timed_passes(
                families, orders, seconds, recorder)
        finally:
            undo()
        recorder.dump(args.spans)

    from repro.engine import EvalConfig

    reference = EvalConfig(incremental=False, plan=False)
    for name, family in families.items():
        t0 = time.perf_counter()
        expected = evaluate(family, reference)
        out["reference_ms"][name] = (time.perf_counter() - t0) * 1000.0
        got = evaluate(family)
        if got != expected and not got.to_instance().isomorphic_to(
                expected.to_instance()):
            out["mismatches"].append(name)
    out["peak_rss_mb"] = vm_hwm_mb()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
