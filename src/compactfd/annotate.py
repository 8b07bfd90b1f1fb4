"""Annotated-instance reduction.

A compact bundle becomes a single-hub bundle after adding a fresh hub vertex
adjacent to the bundle's ball centers: every item is then within beta + 1 of
the hub inside the bundle.  Enumerating one instance per center tuple
(C_1, ..., C_n), with |C_i| <= alpha and the C_i pairwise disjoint, turns a
compact fair-division question into many annotated ones.  Base vertices
outside every center ball can never be allocated in the annotated instance
and are pruned away, so a complete goal can use only the tuples that prune
nothing; tw_dp leaves the others out before annotating them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .compactness import ball, induced_subgraph, is_annotated
from .model import Allocation, Instance


@dataclass(frozen=True)
class AnnotatedInstance:
    """One annotated instance: pruned base plus n zero-valued hub vertices.

    `kept` maps annotated base indices to original vertex ids: annotated
    vertex k (k < len(kept)) is original vertex kept[k].  Hub i sits at index
    len(kept) + i, adjacent exactly to agent i's centers.  `beta` is the
    annotated radius (base beta + 1).
    """

    base: Instance
    centers: tuple[frozenset[int], ...]
    kept: tuple[int, ...]
    instance: Instance
    beta: int

    @property
    def hubs(self) -> tuple[int, ...]:
        k = len(self.kept)
        return tuple(range(k, k + self.base.n))

    @property
    def prunes_nothing(self) -> bool:
        return len(self.kept) == self.base.m

    def to_base_vertex(self, idx: int) -> int:
        return self.kept[idx]


def center_tuples(instance: Instance, alpha: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All tuples (C_1, ..., C_n) of pairwise-disjoint vertex sets, |C_i| <= alpha.

    Per-agent subsets are ordered by size then lexicographically; the tuple
    stream nests agent 1 outermost, so the order is deterministic.  No set
    has more than m vertices, so the sizes stop at min(alpha, m).
    """
    verts = list(range(instance.m))
    sizes = range(min(alpha, instance.m) + 1)
    subsets = [frozenset(c) for size in sizes for c in itertools.combinations(verts, size)]

    def rec(agent: int, used: frozenset[int], acc: list[frozenset[int]]):
        if agent == instance.n:
            yield tuple(acc)
            return
        for cand in subsets:
            if cand & used:
                continue
            acc.append(cand)
            yield from rec(agent + 1, used | cand, acc)
            acc.pop()

    yield from rec(0, frozenset(), [])


def count_center_tuples(m: int, alpha: int, n: int) -> int:
    """Number of disjoint center tuples, used for budgeting."""
    memo: dict[tuple[int, int], int] = {}

    def rec(agents_left: int, pool: int) -> int:
        if agents_left == 0:
            return 1
        key = (agents_left, pool)
        if key not in memo:
            memo[key] = sum(
                comb(pool, s) * rec(agents_left - 1, pool - s) for s in range(min(alpha, pool) + 1)
            )
        return memo[key]

    return rec(n, m)


def build_annotated(
    instance: Instance, centers: tuple[frozenset[int], ...], beta: int
) -> AnnotatedInstance:
    """Annotated instance for one center tuple, with pruning applied.

    `beta` is the base radius; the annotated instance carries beta + 1.
    """
    if len(centers) != instance.n:
        raise ValueError("need one center set per agent")
    graph = instance.graph()
    reachable: set[int] = set()
    for cs in centers:
        for c in cs:
            reachable |= ball(graph, c, beta)
    kept = tuple(sorted(reachable))
    index_of = {orig: k for k, orig in enumerate(kept)}
    k = len(kept)
    n = instance.n
    edges = [
        (index_of[u], index_of[v])
        for (u, v) in instance.edges
        if u in index_of and v in index_of
    ]
    for i, cs in enumerate(centers):
        hub = k + i
        for c in sorted(cs):
            edges.append((index_of[c], hub))
    values = [
        tuple(instance.values[i][orig] for orig in kept) + (0,) * n for i in range(n)
    ]
    annotated = Instance(k + n, edges, values)
    return AnnotatedInstance(instance, tuple(centers), kept, annotated, beta + 1)


def lift_allocation(ann: AnnotatedInstance, allocation: Allocation) -> Allocation:
    """Drop each hub from its bundle and map back to base vertex ids.

    Raises ValueError unless every bundle i contains hub i and induces a
    graph where everything is within the annotated radius of the hub.  Hub
    values are zero, so agent-by-agent values are preserved.
    """
    n = ann.base.n
    if len(allocation.bundles) != n:
        raise ValueError("bundle count mismatch")
    graph = ann.instance.graph()
    hubs = ann.hubs
    lifted = []
    for i, bundle in enumerate(allocation.bundles):
        hub = hubs[i]
        if hub not in bundle:
            raise ValueError(f"bundle {i} does not contain its hub")
        for other in hubs:
            if other != hub and other in bundle:
                raise ValueError(f"bundle {i} contains a foreign hub")
        sub = induced_subgraph(graph, bundle)
        if not is_annotated(sub, hub, ann.beta):
            raise ValueError(f"bundle {i} is not within radius {ann.beta} of its hub")
        lifted.append(frozenset(ann.to_base_vertex(z) for z in bundle if z != hub))
    return Allocation(tuple(lifted))
