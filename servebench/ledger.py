"""Outside-in per-layer ledger: wrappers around the program's public functions.

:meth:`Ledger.install` replaces each function named in :data:`LAYERS` by a
timing wrapper, everywhere the ``repro`` package holds a reference to it
(module globals that imported it by name included), and
:meth:`Ledger.uninstall` puts the originals back. The program itself is not
edited and records nothing extra.

Each wrapper keeps, per layer: calls, inclusive seconds, and *self*
seconds — its time minus the time of wrapped calls nested inside it — split
into time spent inside ``CODServer.answer`` and time spent elsewhere (set-up
and updates). A call nested inside another call of the same layer counts
once. Fleet workers are forked from the benchmark process, so they inherit
the wrappers; the wrapped ``worker_main`` starts each worker from an empty
ledger and writes it to a JSON file when the worker exits, and
:func:`merge` folds those files into the benchmark's own ledger.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

#: Root of the answer-time shares.
ANSWER = "serving.server.answer"

#: layer name -> functions, as (module, qualified name).
LAYERS: "dict[str, tuple[tuple[str, str], ...]]" = {
    "graph.weighting": (("repro.graph.weighting", "attribute_weighted_graph"),),
    "influence.sampling": (
        ("repro.influence.arena", "sample_arena"),
        ("repro.influence.arena", "sample_arena_seeded"),
        ("repro.influence.fastsample", "sample_arena_fast"),
        ("repro.influence.fastsample", "sample_arena_seeded_fast"),
    ),
    "hierarchy.cluster": (("repro.hierarchy.nnchain", "agglomerative_hierarchy"),),
    "core.lore": (("repro.core.lore", "lore_chain"),),
    "core.compressed": (("repro.core.compressed", "compressed_cod"),),
    "core.himor.build": (("repro.core.himor", "HimorIndex.build"),),
    "core.himor.repair": (("repro.core.himor", "HimorIndex.repair"),),
    "core.himor.lookup": (("repro.core.himor", "HimorIndex.largest_qualifying_ancestor"),),
    "core.pool.materialize": (("repro.core.pool", "SharedSamplePool.materialize"),),
    "core.pool.restrict": (("repro.core.pool", "SharedSamplePool.restricted"),),
    "core.pool.repair": (("repro.core.pool", "SharedSamplePool.repair"),),
    "dynamic.apply": (("repro.dynamic.updates", "apply_updates"),),
    ANSWER: (("repro.serving.server", "CODServer.answer"),),
}


def _count_result(layer: str, result, extra: dict) -> None:
    """Per-layer counts read off a wrapped call's return value."""
    if layer == "influence.sampling":
        extra["samples"] = extra.get("samples", 0) + int(result.n_samples)
    elif layer == "core.himor.lookup":
        extra["hits"] = extra.get("hits", 0) + int(result is not None)
    elif layer == "core.pool.repair" and result is not None:
        extra["repaired_samples"] = extra.get("repaired_samples", 0) + int(
            result.n_repaired
        )


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "answer_self_s", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.answer_self_s = 0.0
        self.active = 0
        self.extra: dict = {}

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "answer_self_s": self.answer_self_s,
            "extra": dict(self.extra),
        }


class Ledger:
    """Per-layer call counts and self times for one process."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self._layers = {name: _Layer() for name in LAYERS}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self._layers = {name: _Layer() for name in LAYERS}
        self._stack = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, fn):
        ledger = self  # reset() rebinds the tables: look them up per call

        def wrapper(*args, **kwargs):
            rec = ledger._layers[layer]
            in_answer = ledger._layers[ANSWER].active > 0
            nested = [0.0]
            ledger._stack.append(nested)
            rec.active += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                rec.active -= 1
                ledger._stack.pop()
                if ledger._stack:
                    ledger._stack[-1][0] += elapsed
                own = elapsed - nested[0]
                rec.self_s += own
                if in_answer:
                    rec.answer_self_s += own
                if rec.active == 0:
                    rec.calls += 1
                    rec.total_s += elapsed
            if rec.active == 0:
                _count_result(layer, result, rec.extra)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _wrap_worker_main(self, fn):
        ledger = self

        def worker_main(config, task_queue, event_queue):
            ledger.reset()
            try:
                fn(config, task_queue, event_queue)
            finally:
                ledger.dump(ledger.dump_dir / f"worker-{os.getpid()}.json")

        worker_main.__wrapped__ = fn
        return worker_main

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` (and fleet workers' main)."""
        if self._restore:
            raise RuntimeError("ledger already installed")
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                else:
                    original = getattr(module, qualname)
                    self._replace_everywhere(original, self._wrap(layer, original))
        from repro.serving import worker

        self._replace_everywhere(
            worker.worker_main, self._wrap_worker_main(worker.worker_main)
        )

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # ------------------------------------------------------------- reading

    def snapshot(self) -> dict:
        return {name: rec.as_dict() for name, rec in self._layers.items()}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()))


def merge(snapshots: "list[dict]") -> dict:
    """Sum ledgers of several processes layer by layer."""
    out: dict = {}
    for snap in snapshots:
        for name, rec in snap.items():
            acc = out.setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "answer_self_s": 0.0, "extra": {}},
            )
            for key in ("calls", "total_s", "self_s", "answer_self_s"):
                acc[key] += rec[key]
            for key, value in rec["extra"].items():
                acc["extra"][key] = acc["extra"].get(key, 0) + value
    return out


def read_dumps(dump_dir: Path) -> "list[dict]":
    """Load and delete the ledgers fleet workers wrote on exit."""
    snapshots = []
    for path in sorted(dump_dir.glob("worker-*.json")):
        snapshots.append(json.loads(path.read_text()))
        path.unlink()
    return snapshots
