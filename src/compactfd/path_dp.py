"""Dynamic programs for proportional (strongly) (1, beta)-compact allocation
on path graphs.

A bundle inducing a single ball cover on a path must be one contiguous block
of at most 2*beta + 1 vertices (beta + 1 in the strong variant), so the DP
sweeps the path left to right assigning disjoint blocks, leaving gaps free.
Its table keys states by a count vector per agent type: how many agents of
each type are already served.  The agents DP is the same table with every
agent her own type, so the vector is the subset of agents served.
Valuations may be a black-box bundle function (additivity is not required);
the additive default uses prefix sums.

A table entry [j, state] says: the agents counted in `state` can all be
given proportional blocks with no vertex after position j allocated.  Peeling
the rightmost block (lo, hi] leads to the predecessor entry [lo, state minus
one agent of the block's type].  Indices include 0 so blocks that touch the
first vertex and fully empty prefixes are representable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .compactness import Graph
from .model import Allocation, Instance


def path_order(graph: Graph) -> list[int]:
    """Vertex order of a simple path; raises ValueError for non-paths.

    The walk starts at the lower-labelled endpoint so the order is
    deterministic.  Graphs with at most one vertex are trivially paths.
    """
    m = len(graph.vertices)
    if m <= 1:
        return list(graph.vertices)
    degs = {v: len(graph.adj[v]) for v in graph.vertices}
    if any(d > 2 for d in degs.values()):
        raise ValueError("graph is not a path: vertex of degree > 2")
    ends = sorted(v for v, d in degs.items() if d == 1)
    if len(ends) != 2 or len(graph.edges) != m - 1:
        raise ValueError("graph is not a path")
    order = [ends[0]]
    prev = None
    cur = ends[0]
    while len(order) < m:
        nxts = [w for w in graph.adj[cur] if w != prev]
        if len(nxts) != 1:
            raise ValueError("graph is not a path")
        prev, cur = cur, nxts[0]
        order.append(cur)
    return order


class PathInstance:
    """An instance whose graph is a path, with block-value access.

    `bundle_value(agent, vertices)` overrides the additive valuation; it must
    return non-negative integers.  The empty bundle is always worth 0.
    """

    def __init__(
        self,
        instance: Instance,
        bundle_value: Optional[Callable[[int, tuple[int, ...]], int]] = None,
    ):
        self.instance = instance
        self.order = path_order(instance.graph())
        self._callback = bundle_value
        if bundle_value is None:
            self._prefix = []
            for row in instance.values:
                acc = [0]
                for pos in range(len(self.order)):
                    acc.append(acc[-1] + row[self.order[pos]])
                self._prefix.append(acc)

    @property
    def m(self) -> int:
        return len(self.order)

    @property
    def n(self) -> int:
        return self.instance.n

    def block_value(self, agent: int, lo: int, hi: int) -> int:
        """Value of the contiguous block order[lo:hi] (half-open, may be empty)."""
        if lo >= hi:
            return 0
        if self._callback is not None:
            return self._callback(agent, tuple(self.order[lo:hi]))
        return self._prefix[agent][hi] - self._prefix[agent][lo]

    def total(self, agent: int) -> int:
        return self.block_value(agent, 0, self.m)


def _block_cap(beta: int, strong: bool) -> int:
    return beta + 1 if strong else 2 * beta + 1


def _proportional_blocks(path: PathInstance, beta: int, strong: bool, payers):
    """blocks[a] = sorted (lo, hi) half-open blocks that are short enough and
    proportional for a.  The empty block (0, 0) is included exactly when the
    agent's total is zero, which is when an empty bundle is proportional."""
    cap = _block_cap(beta, strong)
    n = path.n
    m = path.m
    out = {}
    for a in payers:
        tot = path.total(a)
        good = []
        if tot == 0:
            good.append((0, 0))
        for lo in range(m):
            for hi in range(lo + 1, min(m, lo + cap) + 1):
                if n * path.block_value(a, lo, hi) >= tot:
                    good.append((lo, hi))
        out[a] = good
    return out


@dataclass(frozen=True)
class AgentTypeProfile:
    """Grouping of agents into identical-valuation types."""

    type_of: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.counts)

    def __post_init__(self):
        if sum(self.counts) != len(self.type_of):
            raise ValueError("type counts do not sum to the number of agents")
        for q, c in enumerate(self.counts):
            if sum(1 for t in self.type_of if t == q) != c:
                raise ValueError(f"count mismatch for type {q}")


def derive_type_profile(instance: Instance) -> AgentTypeProfile:
    """Group agents by identical value rows, types numbered by first appearance."""
    seen: dict[tuple[int, ...], int] = {}
    type_of = []
    for row in instance.values:
        if row not in seen:
            seen[row] = len(seen)
        type_of.append(seen[row])
    counts = [0] * len(seen)
    for t in type_of:
        counts[t] += 1
    return AgentTypeProfile(tuple(type_of), tuple(counts))


def solve_prop_path_types(
    path: PathInstance,
    beta: int,
    strong: bool = False,
    profile: Optional[AgentTypeProfile] = None,
) -> Optional[Allocation]:
    """Type-count DP; states carry how many agents of each type are served.

    Without an explicit profile, additive instances are grouped by value row
    and black-box instances treat every agent as her own type.
    """
    m, n = path.m, path.n
    if profile is None:
        if path._callback is None:
            profile = derive_type_profile(path.instance)
        else:
            profile = AgentTypeProfile(tuple(range(n)), tuple([1] * n))
    if len(profile.type_of) != n:
        raise ValueError("profile does not match the instance")
    reps: dict[int, int] = {}
    for a, t in enumerate(profile.type_of):
        reps.setdefault(t, a)
    p = profile.p
    blocks = _proportional_blocks(path, beta, strong, [reps[q] for q in range(p)])
    zero = tuple([0] * p)
    table: dict[tuple, Optional[tuple]] = {(j, zero): None for j in range(m + 1)}
    all_vecs = sorted(
        itertools.product(*[range(c + 1) for c in profile.counts]), key=sum
    )
    for vec in all_vecs:
        if vec == zero:
            continue
        # per type with an agent in vec: the state before that agent's block
        subs = [
            (q, tuple(c - 1 if r == q else c for r, c in enumerate(vec)))
            for q in range(p)
            if vec[q]
        ]
        for j in range(m + 1):
            hit = None
            for q, sub in subs:
                for (lo, hi) in blocks[reps[q]]:
                    if hi <= j and (lo, sub) in table:
                        hit = (q, lo, hi)
                        break
                if hit:
                    break
            if hit:
                table[(j, vec)] = hit
    limit = 1
    for c in profile.counts:
        limit *= c + 1
    assert len(table) <= (m + 1) * limit
    target = tuple(profile.counts)
    start = next(((j, target) for j in range(m + 1) if (j, target) in table), None)
    if start is None:
        return None
    agents_by_type: dict[int, list[int]] = {}
    for a, t in enumerate(profile.type_of):
        agents_by_type.setdefault(t, []).append(a)
    bundles = [frozenset() for _ in range(n)]
    state = start
    while state[1] != zero:
        q, lo, hi = table[state]
        agent = agents_by_type[q].pop()
        bundles[agent] = frozenset(path.order[lo:hi])
        state = (lo, tuple(c - 1 if r == q else c for r, c in enumerate(state[1])))
    return Allocation(tuple(bundles))


def solve_prop_path_agents(
    path: PathInstance, beta: int, strong: bool = False
) -> Optional[Allocation]:
    """Agents DP: the type-count DP with every agent her own type, so the
    count vector is the subset of agents already served."""
    n = path.n
    profile = AgentTypeProfile(tuple(range(n)), (1,) * n)
    return solve_prop_path_types(path, beta, strong, profile)
