"""Seeded inputs for the serving benchmark.

Everything a workload feeds the program is generated here from the
workload seed alone: the same seed gives the same queries and the same
update batches. The update schedule is simulated on plain Python sets, so
the benchmark never asks the program what its graph looks like before
deciding what to send it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import load_dataset
from repro.core.problem import CODQuery
from repro.dynamic.updates import AttrUpdate, EdgeUpdate

DATASET = "livejournal"
SCALE = 1.0
K = 5
#: Hot-fleet attribute pool: the attributes held by the most nodes.
HOT_ATTRIBUTES = 32
ZIPF_S = 1.1
#: Queries generated per seed; a run serves a prefix of them.
MAX_QUERIES = 4000
#: Seed of the fixed live-updates feed (see :func:`update_schedule`).
UPDATE_SEED = 7
#: live-updates: structural batches toggle this many edges, attribute
#: batches flip this many node attributes, and each batch is followed by
#: this many paper-protocol queries.
EDGE_TOGGLES = 2
ATTR_FLIPS = 3
QUERIES_PER_BATCH = 8


def load_graph():
    """The livejournal analogue at scale 1.0 (n=4000, m~14.6k)."""
    return load_dataset(DATASET, scale=SCALE).graph


def hot_queries(graph, seed: int) -> list[CODQuery]:
    """Zipf(s~1.1) over the 32 most-held attributes; the node is uniform
    among that attribute's holders."""
    rng = np.random.default_rng(seed)
    universe = sorted(graph.attribute_universe)
    holders = {a: graph.nodes_with_attribute(a) for a in universe}
    top = sorted(universe, key=lambda a: (-len(holders[a]), a))[:HOT_ATTRIBUTES]
    weights = 1.0 / np.arange(1, len(top) + 1) ** ZIPF_S
    picks = rng.choice(len(top), size=MAX_QUERIES, p=weights / weights.sum())
    queries = []
    for pick in picks:
        attribute = top[int(pick)]
        nodes = holders[attribute]
        node = int(nodes[int(rng.integers(len(nodes)))])
        queries.append(CODQuery(node=node, attribute=int(attribute), k=K))
    return queries


@dataclass
class Step:
    """One closed-loop operation of the live-updates schedule."""

    kind: str  # "struct", "attr" or "query"
    updates: tuple = ()
    query: "CODQuery | None" = None


def update_schedule(graph, seed: int, cycles: int) -> list[Step]:
    """``cycles`` rounds of a structural batch and an attribute-only batch,
    each followed by paper-protocol queries drawn on the post-batch graph.

    A structural batch deletes one existing edge and closes one triangle
    (an edge from a node to a neighbour's neighbour), as a social graph
    grows. An attribute batch flips a few random node attributes, never
    leaving a node without attributes.

    The update feed is drawn with :data:`UPDATE_SEED`; the workload seed
    draws the queries. A structural batch costs ~1.3 s when HIMOR is
    repaired and ~2.5 s when it is rebuilt, and these batches set the
    phase's wall time; with a feed per seed, throughput over ten seeds
    ranged 1.9-3.4 queries/s.
    """
    rng = np.random.default_rng(UPDATE_SEED)
    query_rng = np.random.default_rng(seed)
    n = graph.n
    adjacency = [set(int(v) for v in graph.neighbors(u)) for u in range(n)]
    edge_list = sorted(graph.edges())
    edge_pos = {edge: i for i, edge in enumerate(edge_list)}
    attributes = [set(graph.attributes_of(v)) for v in range(n)]
    universe = sorted(graph.attribute_universe)

    def toggle_edge(u: int, v: int, add: bool) -> EdgeUpdate:
        key = (min(u, v), max(u, v))
        if add:
            adjacency[u].add(v)
            adjacency[v].add(u)
            edge_pos[key] = len(edge_list)
            edge_list.append(key)
        else:
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            i = edge_pos.pop(key)
            last = edge_list.pop()
            if i < len(edge_list):
                edge_list[i] = last
                edge_pos[last] = i
        return EdgeUpdate(key[0], key[1], add=add)

    def struct_batch() -> tuple:
        updates = []
        touched: set = set()
        while len(updates) < EDGE_TOGGLES:
            if len(updates) % 2 == 0:
                u, v = edge_list[int(rng.integers(len(edge_list)))]
                if (u, v) in touched or len(adjacency[u]) < 2 or len(adjacency[v]) < 2:
                    continue
                touched.add((u, v))
                updates.append(toggle_edge(u, v, add=False))
            else:
                u = int(rng.integers(n))
                if not adjacency[u]:
                    continue
                via = sorted(adjacency[u])[int(rng.integers(len(adjacency[u])))]
                candidates = sorted(adjacency[via] - adjacency[u] - {u})
                if not candidates:
                    continue
                v = candidates[int(rng.integers(len(candidates)))]
                key = (min(u, v), max(u, v))
                if key in touched:
                    continue
                touched.add(key)
                updates.append(toggle_edge(u, v, add=True))
        return tuple(updates)

    def attr_batch() -> tuple:
        updates = []
        touched: set = set()
        while len(updates) < ATTR_FLIPS:
            node = int(rng.integers(n))
            attribute = universe[int(rng.integers(len(universe)))]
            if (node, attribute) in touched:
                continue
            held = attributes[node]
            if attribute in held:
                if len(held) < 2:
                    continue
                held.discard(attribute)
                updates.append(AttrUpdate(node, attribute, add=False))
            else:
                held.add(attribute)
                updates.append(AttrUpdate(node, attribute, add=True))
            touched.add((node, attribute))
        return tuple(updates)

    def queries() -> list[Step]:
        eligible = [v for v in range(n) if attributes[v]]
        out = []
        for _ in range(QUERIES_PER_BATCH):
            node = eligible[int(query_rng.integers(len(eligible)))]
            held = sorted(attributes[node])
            attribute = held[int(query_rng.integers(len(held)))]
            out.append(Step("query", query=CODQuery(node=node, attribute=attribute, k=K)))
        return out

    steps: list[Step] = []
    for _ in range(cycles):
        steps.append(Step("struct", updates=struct_batch()))
        steps.extend(queries())
        steps.append(Step("attr", updates=attr_batch()))
        steps.extend(queries())
    return steps
