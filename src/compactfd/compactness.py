"""Graph metrics (distance, balls, diameter) and compactness recognizers.

A graph is (alpha, beta)-compact when its vertex set can be covered by at
most alpha balls of radius beta, i.e. it has a distance-beta dominating set
of size at most alpha.  The strong variant asks for alpha vertex groups with
all pairwise distances at most beta, measured in the whole checked graph.
Both recognizers work on the graph they are handed; callers checking bundles
must pass the induced subgraph so distances are measured inside the bundle.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .model import Instance

INF = float("inf")


class Graph:
    """Immutable undirected graph on integer vertex labels.

    Labels need not be contiguous, which lets induced subgraphs keep the
    parent's labels. Parallel edges are collapsed; self-loops are rejected.
    """

    __slots__ = ("vertices", "adj", "edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            e = (u, v) if u < v else (v, u)
            eset.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.adj = {v: frozenset(nb) for v, nb in adj.items()}
        self.edges = frozenset(eset)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep` with exactly the parent edges inside `keep`."""
    ks = set(keep)
    missing = ks - set(graph.vertices)
    if missing:
        raise ValueError(f"vertices {sorted(missing)} not in graph")
    edges = [(u, v) for (u, v) in graph.edges if u in ks and v in ks]
    return Graph(ks, edges)


def bfs_distances(graph: Graph, source: int) -> dict[int, int]:
    """Hop distances from `source` to every reachable vertex."""
    if source not in graph.adj:
        raise ValueError(f"vertex {source} not in graph")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in graph.adj[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def distance(graph: Graph, u: int, v: int):
    """Shortest-path edge count between u and v; inf when disconnected."""
    if v not in graph.adj:
        raise ValueError(f"vertex {v} not in graph")
    return bfs_distances(graph, u).get(v, INF)


def ball(graph: Graph, center: int, beta: int) -> frozenset[int]:
    """All vertices within distance beta of `center` (includes the center)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    dist = bfs_distances(graph, center)
    return frozenset(v for v, d in dist.items() if d <= beta)


def diameter(graph: Graph):
    """Maximum pairwise distance; inf if disconnected, 0 for <= 1 vertex."""
    if len(graph.vertices) <= 1:
        return 0
    best = 0
    for v in graph.vertices:
        dist = bfs_distances(graph, v)
        if len(dist) < len(graph.vertices):
            return INF
        best = max(best, max(dist.values()))
    return best


def connected_components(graph: Graph) -> list[frozenset[int]]:
    """Components as vertex sets, ordered by smallest member."""
    seen: set[int] = set()
    comps = []
    for v in graph.vertices:
        if v in seen:
            continue
        comp = frozenset(bfs_distances(graph, v))
        seen |= comp
        comps.append(comp)
    return comps


def is_annotated(graph: Graph, hub: int, beta: int) -> bool:
    """True iff every vertex lies within distance beta of `hub`."""
    if hub not in graph.adj:
        raise ValueError(f"vertex {hub} not in graph")
    return len(ball(graph, hub, beta)) == len(graph.vertices)


@dataclass(frozen=True)
class CenterWitness:
    """Ball centers certifying (alpha, beta)-compactness."""

    centers: tuple[int, ...]


@dataclass(frozen=True)
class StrongCover:
    """Vertex groups certifying strong compactness (pairwise distance <= beta)."""

    groups: tuple[frozenset[int], ...]


def is_compact(graph: Graph, alpha: int, beta: int) -> Optional[CenterWitness]:
    """Search for at most alpha centers whose radius-beta balls cover the graph.

    Returns the witness found first when scanning center sets by size and then
    lexicographically under the vertex order, or None. The empty graph is
    compact with an empty witness.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    m = len(graph.vertices)
    if m == 0:
        return CenterWitness(())
    comps = connected_components(graph)
    if len(comps) > alpha:
        # every ball stays inside one component
        return None
    if beta == 0:
        return CenterWitness(graph.vertices) if m <= alpha else None
    balls = {v: ball(graph, v, beta) for v in graph.vertices}
    for size in range(len(comps), alpha + 1):
        for centers in itertools.combinations(graph.vertices, size):
            covered: set[int] = set()
            for c in centers:
                covered |= balls[c]
            if len(covered) == m:
                return CenterWitness(centers)
    return None


def is_strongly_compact(graph: Graph, alpha: int, beta: int) -> Optional[StrongCover]:
    """Search for at most alpha groups covering the graph, each with all
    pairwise distances <= beta in the full checked graph.

    Any cover can be turned into a partition (subsets inherit the pairwise
    bound), so the search assigns each vertex to exactly one group, opening
    groups in first-use order to avoid revisiting symmetric assignments.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    verts = graph.vertices
    m = len(verts)
    if m == 0:
        return StrongCover(())
    if beta == 0:
        if m <= alpha:
            return StrongCover(tuple(frozenset([v]) for v in verts))
        return None
    if alpha == 1:
        if diameter(graph) <= beta:
            return StrongCover((frozenset(verts),))
        return None
    dist = {v: bfs_distances(graph, v) for v in verts}

    def close(u: int, w: int) -> bool:
        return dist[u].get(w, INF) <= beta

    groups: list[list[int]] = []

    def assign(idx: int) -> bool:
        if idx == m:
            return True
        v = verts[idx]
        for g in groups:
            if all(close(v, w) for w in g):
                g.append(v)
                if assign(idx + 1):
                    return True
                g.pop()
        if len(groups) < alpha:
            groups.append([v])
            if assign(idx + 1):
                return True
            groups.pop()
        return False

    if assign(0):
        return StrongCover(tuple(frozenset(g) for g in groups))
    return None


def _meets_spec(sub: Graph, spec) -> bool:
    """True iff `sub` is (strongly) compact per `spec`.  The recognizer is
    looked up when called, so a wrapper set on this module is used."""
    recognize = is_strongly_compact if spec.strong else is_compact
    return recognize(sub, spec.alpha, spec.beta) is not None


def is_compact_allocation(instance: "Instance", allocation, spec) -> bool:
    """True iff every bundle induces a (strongly) compact subgraph per `spec`.

    Distances are measured inside each bundle's induced subgraph.
    """
    graph = instance.graph()
    return all(_meets_spec(induced_subgraph(graph, b), spec) for b in allocation.bundles)


class BundleCompactnessCache:
    """Memoized per-bundle compactness checks keyed by vertex bitmask.

    Exhaustive solvers test the same bundles across many allocations; the
    cache makes those repeated recognizer calls cheap.
    """

    def __init__(self, instance: "Instance", spec):
        self._graph = instance.graph()
        self._spec = spec
        self._cache: dict[int, bool] = {0: True}

    def check_mask(self, mask: int) -> bool:
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        bundle = []
        rest, z = mask, 0
        while rest:
            if rest & 1:
                bundle.append(z)
            rest >>= 1
            z += 1
        ok = _meets_spec(induced_subgraph(self._graph, bundle), self._spec)
        self._cache[mask] = ok
        return ok

    def check(self, bundle: Iterable[int]) -> bool:
        mask = 0
        for z in bundle:
            mask |= 1 << z
        return self.check_mask(mask)
