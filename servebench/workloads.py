"""The serving workloads: set-up, timed closed loop, output checks.

Each driver returns a :class:`Pass` per execution of its operations. A
``--trace 0`` run executes one untraced pass; a ``--trace 1`` run executes
an untraced pass and then a traced pass over exactly the same operations
(see :func:`run_traced`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from servebench import inputs
from servebench.ledger import Ledger, merge, read_dumps

#: ``cod serve-sim`` defaults; the server seed is fixed so set-up work does
#: not depend on the workload seed.
SERVER_OPTIONS = {
    "theta": 10,
    "seed": 7,
    "deadline_s": None,
    "sample_budget": None,
    "breaker_threshold": 3,
    "breaker_cooldown_s": 1.0,
    "cache_capacity": 64,
    "fast_sampling": False,
}
FLEET_WORKERS = 2
FLEET_OUTSTANDING = 2
#: Supervisor poll window while a fleet starts: set-up is read to within it.
SETUP_POLL_S = 0.005
#: Untraced set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Work per second of ``--seconds``: the queries (live-updates: cycles of
#: two batches and their queries) one run serves. Fixed work keeps a run's
#: query mix independent of the program's speed; the rates make the timed
#: phase last about ``--seconds`` on a 2-vCPU 2.1 GHz Xeon VM.
WORK_PER_SECOND = {"hot-fleet": 90.0, "live-updates": 0.33}
#: A phase still running after this many times ``--seconds`` stops early,
#: so a much slower program still finishes a traced run in time.
LIMIT_FACTOR = 2.0
#: Hot-fleet queries served before the timed phase, so that it measures the
#: fleet with the hot attributes' caches filled (answers are still checked).
FLEET_WARMUP_QUERIES = 400
#: Hot-fleet queries re-answered by an in-process pooled server.
FLEET_CHECK_QUERIES = 24


class Tally:
    """Operations attempted and failed; every failure is described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def answer(self, answer, query) -> bool:
        """A served answer passes when it is not refused and, if found,
        contains its query node."""
        if answer.refused:
            return self.check(False, f"refused {query}: {answer.notes[-1:]}")
        if answer.members is not None and query.node not in set(
            int(v) for v in answer.members
        ):
            return self.check(False, f"answer to {query} lacks its query node")
        return self.check(True, "")


@dataclass
class Pass:
    """What one execution of a workload's operations measured."""

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    #: Client latency minus the worker's ``answer.elapsed``, per fleet query.
    overheads_s: list[float] = field(default_factory=list)
    update_s: dict = field(default_factory=lambda: {"struct": [], "attr": []})
    wall_s: float = 0.0
    memory_mb: float = 0.0
    answers: list = field(default_factory=list)
    #: ``health()`` of the serving server or supervisor after the phase.
    health: dict = field(default_factory=dict)
    #: Worker ``health()`` blocks (fleet only).
    worker_health: list = field(default_factory=list)
    ledger: "dict | None" = None
    #: Closed-loop steps executed (live-updates: batches and queries).
    steps: int = 0

    @property
    def queries(self) -> int:
        return len(self.latencies_s)


def members_key(answer):
    return None if answer.members is None else tuple(sorted(int(v) for v in answer.members))


def pss_mb(pids) -> float:
    """Proportional set size summed over ``pids``, from smaps_rollup."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def process_memory_mb() -> float:
    children = [p.pid for p in multiprocessing.active_children()]
    return pss_mb([os.getpid(), *children])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ servers


def build_server(graph):
    """A warmed in-process server over a per-sample-seeded pool (the
    configuration of one fleet worker); returns it with its set-up seconds."""
    from repro.core.pool import SharedSamplePool
    from repro.serving import CODServer

    started = time.perf_counter()
    pool = SharedSamplePool(
        graph,
        theta=SERVER_OPTIONS["theta"],
        seed=SERVER_OPTIONS["seed"],
        per_sample_seeds=True,
        fast=SERVER_OPTIONS["fast_sampling"],
    )
    server = CODServer(graph, pool=pool, **SERVER_OPTIONS)
    server.warm()
    return server, time.perf_counter() - started


# --------------------------------------------------------------- hot-fleet


def start_fleet(graph, first_query, tally):
    """Start a fleet; set-up ends when its first answer arrives."""
    from repro.serving import ServingSupervisor

    started = time.perf_counter()
    fleet = ServingSupervisor(
        graph,
        n_workers=FLEET_WORKERS,
        shared_pool=True,
        pool_seeded=True,
        server_options=dict(SERVER_OPTIONS),
    )
    fleet.start()
    seq = fleet.submit(first_query)
    fleet.poll(0.0)
    while fleet.answer_for(seq) is None:
        fleet.poll(SETUP_POLL_S)
    setup = time.perf_counter() - started
    tally.answer(fleet.answer_for(seq), first_query)
    return fleet, setup


def stop_fleet(fleet, tally) -> None:
    """Shut the fleet down; none of this run's segments may survive it."""
    from repro.utils.shm import list_segments

    fleet.shutdown()
    leftover = [s["name"] for s in list_segments() if s["owner_pid"] == os.getpid()]
    tally.check(not leftover, f"shared-memory segments left after shutdown: {leftover}")


def serve_fleet(fleet, queries, tally, out: Pass, count, limit_s):
    """A closed loop keeping ``FLEET_OUTSTANDING`` queries in flight.

    ``submit`` only admits a query; the supervisor dispatches it in
    ``poll``, so each submit is followed by a non-blocking poll (as
    ``cod serve-sim`` does) to put it on a free worker at once.
    """
    pending: dict[int, tuple[int, float]] = {}
    results: dict[int, tuple[float, object]] = {}
    started = time.perf_counter()
    next_index = 0

    def submit_next() -> None:
        nonlocal next_index
        if next_index >= count or time.perf_counter() - started >= limit_s:
            return
        pending[fleet.submit(queries[next_index])] = (next_index, time.perf_counter())
        next_index += 1
        fleet.poll(0.0)

    for _ in range(FLEET_OUTSTANDING):
        submit_next()
    while pending:
        # A non-blocking poll may already have delivered an answer: take it
        # before waiting for the next one.
        done = [seq for seq in pending if fleet.answer_for(seq) is not None]
        if not done:
            fleet.poll(0.05)
            continue
        for seq in done:
            answer = fleet.answer_for(seq)
            index, sent = pending.pop(seq)
            results[index] = (time.perf_counter() - sent, answer)
            submit_next()
    out.wall_s = time.perf_counter() - started
    for index in range(len(results)):
        latency, answer = results[index]
        out.latencies_s.append(latency)
        out.overheads_s.append(latency - answer.elapsed)
        out.answers.append(answer)
        tally.answer(answer, queries[index])


def hot_fleet(graph, seed, count, limit_s, tally, repeats=SETUP_REPEATS,
              checks=True) -> Pass:
    queries = inputs.hot_queries(graph, seed)
    first = queries[-1]  # never reached by the warm-up or the timed phase
    warmup, queries = queries[:FLEET_WARMUP_QUERIES], queries[FLEET_WARMUP_QUERIES:]
    count = min(count, len(queries) - 1)
    out = Pass()
    fleet = None
    for i in range(repeats):
        fleet, setup = start_fleet(graph, first, tally)
        out.setup_s.append(setup)
        if i < repeats - 1:
            stop_fleet(fleet, tally)
    try:
        serve_fleet(fleet, warmup, tally, Pass(), len(warmup), float("inf"))
        serve_fleet(fleet, queries, tally, out, count, limit_s)
        out.memory_mb = process_memory_mb()
        out.health = fleet.health()
        out.worker_health = [
            w["health"] or {} for w in out.health["workers"].values()
        ]
    finally:
        stop_fleet(fleet, tally)
    if checks:
        server, _ = build_server(graph)
        for query, answer in list(zip(queries, out.answers))[:FLEET_CHECK_QUERIES]:
            local = server.answer(query)
            tally.check(
                members_key(local) == members_key(answer),
                f"fleet answer to {query} differs from an in-process pooled server",
            )
    return out


# ------------------------------------------------------------- live-updates


def live_updates(graph, seed, count, limit_s, tally, repeats=SETUP_REPEATS,
                 checks=True) -> Pass:
    """Closed loop over ``count`` cycles of alternating update batches and
    queries; past ``limit_s`` it stops before the next cycle.

    Every set-up is timed on the base graph and the last one serves. With
    ``checks``, the final answers are compared with those of a server built,
    untimed, on ``UpdateLog.replay`` of the base graph.
    """
    from repro.core.himor import graph_checksum
    from repro.dynamic.log import UpdateLog

    steps = inputs.update_schedule(graph, seed, count)
    out = Pass()
    server = None
    for _ in range(repeats):
        server = None  # release the previous set-up before timing the next
        gc.collect()
        server, setup = build_server(graph)
        out.setup_s.append(setup)
    log = UpdateLog()
    last_group: list = []
    started = time.perf_counter()
    for step in steps:
        if step.kind == "struct" and time.perf_counter() - started >= limit_s:
            break
        out.steps += 1
        if step.kind == "query":
            sent = time.perf_counter()
            answer = server.answer(step.query)
            out.latencies_s.append(time.perf_counter() - sent)
            out.answers.append(answer)
            last_group.append((step.query, answer))
            tally.answer(answer, step.query)
            continue
        epoch = server.epoch
        sent = time.perf_counter()
        try:
            report = server.apply_updates(step.updates)
        except Exception as exc:  # an update the program refuses is a failure
            tally.check(False, f"{step.kind} batch failed: {type(exc).__name__}: {exc}")
            continue
        out.update_s[step.kind].append(time.perf_counter() - sent)
        tally.check(report["epoch"] == epoch + 1, f"batch did not advance epoch {epoch}")
        log.append(step.updates)
        last_group = []
    out.wall_s = time.perf_counter() - started
    out.memory_mb = process_memory_mb()
    out.health = server.health()

    replayed = log.replay(graph)
    tally.check(
        graph_checksum(replayed) == graph_checksum(server.graph),
        "served graph differs from the update log replayed on the base graph",
    )
    server = None
    gc.collect()
    if checks:
        fresh, _ = build_server(replayed)
        for query, answer in last_group:
            tally.check(
                members_key(fresh.answer(query)) == members_key(answer),
                f"answer to {query} differs from a server built on the replayed log",
            )
    return out


WORKLOADS = {
    "hot-fleet": hot_fleet,
    "live-updates": live_updates,
}


def run_traced(workload, graph, seed, count, limit_s, tally, work_dir: Path):
    """An untraced pass, then a traced pass over the same operations.

    Returns both passes; the traced one carries the merged ledger of the
    benchmark process and of every fleet worker. Answers of the two passes
    must be equal, query by query.
    """
    driver = WORKLOADS[workload]
    plain = driver(graph, seed, count, limit_s, tally, repeats=1)
    # Replay exactly what the untraced pass completed, however long it takes.
    if workload == "live-updates":
        count = len(plain.update_s["struct"])
    else:
        count = plain.queries
    read_dumps(work_dir)  # discard ledgers a killed earlier run left behind
    ledger = Ledger(dump_dir=work_dir)
    ledger.install()
    try:
        traced = driver(graph, seed, count, float("inf"), tally, repeats=1, checks=False)
    finally:
        ledger.uninstall()
    traced.ledger = merge([ledger.snapshot(), *read_dumps(work_dir)])
    tally.check(
        len(plain.answers) == len(traced.answers),
        f"traced pass answered {len(traced.answers)} queries, untraced {len(plain.answers)}",
    )
    for a, b in zip(plain.answers, traced.answers):
        tally.check(
            members_key(a) == members_key(b) and a.rung == b.rung,
            f"traced answer to {a.query} differs from the untraced one",
        )
    return plain, traced
