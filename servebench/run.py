"""Serving benchmark for the COD server on the livejournal analogue.

Run from the repository root::

    python3 servebench/run.py --workload hot-fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same operations untraced and then traced, checks
that both passes answer identically, and prints the per-layer metrics.
Every run checks the program's outputs; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the lines before it give each metric with its unit and sample count.
The exit code is 0 only when a result was printed.

Workloads (``BENCHMARK.json`` records why each exists and which layers it
stresses and bypasses):

* ``hot-fleet``: 2-worker shared-pool ``ServingSupervisor``, Zipf-skewed
  hot attributes, two queries in flight.
* ``live-updates``: in-process server over a per-sample-seeded pool;
  structural and attribute-only update batches alternate with queries.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def end_to_end(done, tally) -> dict:
    """``(value, unit, samples)`` per end-to-end metric."""
    from servebench.workloads import median

    lat = done.latencies_s
    return {
        "setup_s": (median(done.setup_s), "s", len(done.setup_s)),
        "query_p50_ms": (median(lat) * 1000.0, "ms", len(lat)),
        "query_p95_ms": (percentile(lat, 95) * 1000.0, "ms", len(lat)),
        "throughput_qps": (ratio(len(lat), done.wall_s), "1/s", len(lat)),
        "ok_ratio": (1.0 - ratio(tally.failed, tally.attempted), "ratio", tally.attempted),
        "memory_pss_mb": (done.memory_mb, "MB", 1),
    }


def per_layer(plain, traced, tracebacks: int) -> dict:
    """``(value, unit, samples)`` per per-layer metric.

    Wrapper counts and self times come from the traced pass; client-side
    latencies (update split, fleet overhead) from the untraced pass.
    """
    from servebench.workloads import median

    led = traced.ledger
    answer_s = led["serving.server.answer"]["total_s"]
    answers = led["serving.server.answer"]["calls"]
    out = {}
    # Layer -> metric prefix; "core.pool.restrict" reports as restrict_calls etc.
    for layer, prefix in (("graph.weighting", "graph.weighting."),
                          ("influence.sampling", "influence.sampling."),
                          ("hierarchy.cluster", "hierarchy.cluster."),
                          ("core.lore", "core.lore."),
                          ("core.compressed", "core.compressed."),
                          ("core.pool.restrict", "core.pool.restrict_")):
        rec = led[layer]
        out[f"{prefix}calls"] = (rec["calls"], "count", 1)
        out[f"{prefix}self_s"] = (rec["self_s"], "s", 1)
        out[f"{prefix}share"] = (ratio(rec["answer_self_s"], answer_s), "ratio", answers)
    out["influence.sampling.samples"] = (
        led["influence.sampling"]["extra"].get("samples", 0), "count", 1)

    lookup = led["core.himor.lookup"]
    out["core.himor.build_s"] = (led["core.himor.build"]["total_s"], "s", 1)
    out["core.himor.repair_s"] = (led["core.himor.repair"]["total_s"], "s", 1)
    out["core.himor.hit_ratio"] = (
        ratio(lookup["extra"].get("hits", 0), lookup["calls"]), "ratio", lookup["calls"])

    servers = traced.worker_health or [traced.health]

    def cache_ratio(name: str):
        hits = sum(h.get("caches", {}).get(name, {}).get("hits", 0) for h in servers)
        misses = sum(h.get("caches", {}).get(name, {}).get("misses", 0) for h in servers)
        return (ratio(hits, hits + misses), "ratio", hits + misses)

    out["core.lore.cache_hit_ratio"] = cache_ratio("lore")
    out["core.pool.materialize_s"] = (led["core.pool.materialize"]["total_s"], "s", 1)
    out["core.pool.repair_s"] = (led["core.pool.repair"]["total_s"], "s", 1)
    out["core.pool.repaired_samples"] = (
        led["core.pool.repair"]["extra"].get("repaired_samples", 0), "count", 1)

    out["dynamic.apply_s"] = (led["dynamic.apply"]["total_s"], "s", 1)
    for kind in ("struct", "attr"):
        values = plain.update_s[kind]
        out[f"dynamic.update_{kind}_p50_ms"] = (median(values) * 1000.0, "ms", len(values))

    out["serving.server.unattributed_s"] = (
        led["serving.server.answer"]["self_s"], "s", answers)
    out["serving.server.weighted_cache_hit_ratio"] = cache_ratio("weighted")
    for rung in ("CODL", "CODL-", "CODU"):
        count = sum(h.get("answered_per_rung", {}).get(rung, 0) for h in servers)
        out[f"serving.server.rung.{rung}"] = (count, "count", 1)
    out["serving.server.rung.refused"] = (sum(h.get("refused", 0) for h in servers), "count", 1)

    overheads = plain.overheads_s
    out["serving.fleet.overhead_p50_ms"] = (median(overheads) * 1000.0, "ms", len(overheads))
    out["serving.fleet.overhead_p95_ms"] = (
        percentile(overheads, 95) * 1000.0, "ms", len(overheads))
    affinity = traced.health.get("affinity", {})
    hits, misses = affinity.get("hits", 0), affinity.get("misses", 0)
    out["serving.fleet.affinity_hit_ratio"] = (ratio(hits, hits + misses), "ratio", hits + misses)
    hits, misses = affinity.get("shard_hits", 0), affinity.get("shard_misses", 0)
    out["serving.fleet.shard_hit_ratio"] = (ratio(hits, hits + misses), "ratio", hits + misses)

    shm = traced.health.get("shm", {})
    segment_bytes = shm.get("segment_bytes", 0) + shm.get("shards", {}).get("bytes", 0)
    out["utils.shm.segment_bytes"] = (segment_bytes, "bytes", 1)
    out["utils.shm.attaches"] = (shm.get("attaches", 0), "count", 1)
    out["utils.shm.tracker_tracebacks"] = (tracebacks, "count", 1)
    out["trace.overhead_ratio"] = (ratio(traced.wall_s, plain.wall_s), "ratio", plain.queries)
    return out


def count_tracker_tracebacks(text: str) -> int:
    """Tracebacks raised inside multiprocessing's resource tracker."""
    blocks = re.split(r"(?m)^(?=Traceback \(most recent call last\):)", text)
    return sum(
        1 for block in blocks
        if block.startswith("Traceback") and "resource_tracker" in block
    )


def run(args, stderr_log: Path) -> int:
    from servebench import inputs
    from servebench.workloads import LIMIT_FACTOR, WORK_PER_SECOND, WORKLOADS, Tally, run_traced

    tally = Tally()
    graph = inputs.load_graph()
    count = max(1, round(args.seconds * WORK_PER_SECOND[args.workload]))
    limit_s = args.seconds * LIMIT_FACTOR
    if args.trace:
        plain, traced = run_traced(args.workload, graph, args.seed, count, limit_s, tally, WORK_DIR)
        done = plain
    else:
        done = WORKLOADS[args.workload](graph, args.seed, count, limit_s, tally)
    # Stop and reap multiprocessing's resource tracker (a process this run
    # started), so everything it reports lands in the log before counting.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    sys.stderr.flush()
    tracebacks = count_tracker_tracebacks(stderr_log.read_text(errors="replace"))
    metrics = per_layer(plain, traced, tracebacks) if args.trace else end_to_end(done, tally)

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {WHY[args.workload]}")
    print(f"  work={count} queries={done.queries} steps={done.steps} wall={done.wall_s:.3f}s "
          f"setups={[round(s, 4) for s in done.setup_s]}")
    print(f"  resource_tracker tracebacks: {tracebacks}")
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit:6s} n={samples}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"servebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    # Route this process's stderr (and that of every child it starts,
    # multiprocessing's resource tracker included) through a file, so
    # tracker tracebacks can be counted; the file is replayed to the real
    # stderr afterwards, so nothing is suppressed.
    WORK_DIR.mkdir(exist_ok=True)
    stderr_log = WORK_DIR / f"stderr-{os.getpid()}.log"
    saved = os.dup(2)
    with open(stderr_log, "w") as sink:
        os.dup2(sink.fileno(), 2)
    try:
        return run(args, stderr_log)
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)
        sys.stderr.write(stderr_log.read_text(errors="replace"))
        stderr_log.unlink()


if __name__ == "__main__":
    sys.exit(main())
