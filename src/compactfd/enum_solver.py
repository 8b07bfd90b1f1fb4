"""Bounded-degree enumeration solver.

Every compact bundle sits inside the union of at most alpha balls around its
cover centers, so enumerating center tuples and then subsets of their maximal
ball unions reaches every compact bundle.  Candidate bundles are re-checked
with the recognizer (a subset of a ball union need not be compact in its own
induced subgraph) and deduplicated, then combined disjointly across agents.
`goals` answers the fairness goals from their value matrices, in one group per
first-agent bundle B: as values are nonnegative and bundles disjoint, agent i
values bundle 0 at v_i(B) and any other at most W_i - v_i(B).
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Iterator, Optional

from . import goals
from .compactness import BundleCompactnessCache, ball
from .model import Allocation, CompactnessSpec, FairnessGoal, Instance
from .oracle import BudgetExceededError

DEFAULT_WORK_BUDGET = 5_000_000


def compact_bundles(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> list[frozenset[int]]:
    """All distinct spec-compact bundles, sorted by size then lexicographically.

    Compactness does not depend on the agent, so one candidate list serves
    every agent.  `budget` caps the number of subsets scanned.
    """
    graph = instance.graph()
    balls = {v: ball(graph, v, spec.beta) for v in graph.vertices}
    unions = dict.fromkeys(  # distinct, in center-tuple order
        frozenset().union(*(balls[c] for c in centers))
        for size in range(min(spec.alpha, instance.m) + 1)
        for centers in itertools.combinations(graph.vertices, size)
    )
    maximal: list[frozenset[int]] = []  # a union strictly inside another adds nothing
    for union in sorted(unions, key=len, reverse=True):
        if not any(union < other for other in maximal):
            maximal.append(union)
    work = sum(1 << len(union) for union in maximal)
    if work > budget:
        raise BudgetExceededError(f"candidate scan needs {work} subset checks, budget {budget}")
    cache = BundleCompactnessCache(instance, spec)
    seen: set[frozenset[int]] = set()
    for union in map(sorted, maximal):
        for k in range(len(union) + 1):
            for sub in itertools.combinations(union, k):
                bundle = frozenset(sub)
                if bundle not in seen and cache.check(bundle):
                    seen.add(bundle)
    return sorted(seen, key=lambda b: (len(b), tuple(sorted(b))))


class _BundleSource:
    """Candidates for the goal layer (see `goals`): one group per compact
    bundle the first agent can take, in enumeration order.  A candidate's key
    is its tuple of indices into the `compact_bundles` list, and each bundle's
    value column is computed once per source.  Under a complete goal the last
    agent takes only the bundle of the items left, if it is compact.  `budget`
    also caps the allocations enumerated, over every group opened."""

    def __init__(self, instance: Instance, spec: CompactnessSpec, budget: int):
        self.bundles = compact_bundles(instance, spec, budget)
        self.masks = [sum(1 << z for z in b) for b in self.bundles]
        self.index = {mask: k for k, mask in enumerate(self.masks)}
        self.columns = [tuple(sum(row[z] for z in b) for row in instance.values) for b in self.bundles]
        self.totals = [sum(row) for row in instance.values]
        self.n, self.full, self.budget = instance.n, (1 << instance.m) - 1, budget
        self.enumerated = 0

    def _options(self, depth: int, used: int, pool, complete: bool):
        """The bundles agent `depth` can take from `pool` once `used` is taken."""
        if complete and depth == self.n - 1:
            last = self.index.get(self.full & ~used)
            return () if last is None else (last,)
        return [k for k in pool if not self.masks[k] & used]

    def _keys(self, key: tuple, used: int, pool, complete: bool) -> Iterator[tuple]:
        """Every key extending `key` (the first agents' bundles, `used` their
        items) in enumeration order, each later agent choosing from `pool`."""
        if len(key) == self.n:
            self.enumerated += 1
            if self.enumerated > self.budget:
                raise BudgetExceededError(f"more than {self.budget} compact allocations")
            yield key
            return
        pool = self._options(len(key), used, pool, complete)
        for k in pool:
            yield from self._keys(key + (k,), used | self.masks[k], pool, complete)

    def groups(self, complete: bool):
        """The first level of `_keys`: one group per first bundle B.  Agent i
        values bundle 0 at v_i(B), and the other bundles avoid B and values are
        nonnegative, so each is worth at most W_i - v_i(B) to agent i."""
        n, totals = self.n, self.totals
        pool = self._options(0, 0, range(len(self.bundles)), complete)
        for k in pool:
            col = self.columns[k]
            ub = tuple(col[i] if j == 0 else totals[i] - col[i] for i in range(n) for j in range(n))
            yield ub, partial(self._matrices, (k,), self.masks[k], pool, complete)

    def _matrices(self, first: tuple, used: int, pool, complete: bool):
        columns = self.columns
        for key in self._keys(first, used, pool, complete):
            # zip(*columns) gives the rows of w: one agent's values across the bundles
            yield sum(zip(*[columns[k] for k in key]), ()), key

    def witness(self, key: tuple, _w=None) -> Allocation:
        return Allocation(tuple(self.bundles[k] for k in key))


def enumerate_compact_allocations(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> Iterator[Allocation]:
    """Yield every spec-compact allocation exactly once, deterministically:
    the groups of `_BundleSource` flattened in order."""
    source = _BundleSource(instance, spec, budget)
    for key in source._keys((), 0, range(len(source.bundles)), False):
        yield source.witness(key)


def answer_enum(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    budget: int = DEFAULT_WORK_BUDGET,
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The first enumerated compact allocation meeting the goal (None if there
    is none), and for mms every agent's maximin share from the same pass (None
    for other goals).  ef-po uses the exhaustive utility-vector dominance
    check, so it is only sensible at oracle scale."""
    source = _BundleSource(instance, spec, budget)
    return goals.solve(instance, goal, source.groups, source.witness)


def solve_enum(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    budget: int = DEFAULT_WORK_BUDGET,
) -> Optional[Allocation]:
    """First enumerated compact allocation satisfying the goal, or None."""
    return answer_enum(instance, spec, goal, budget)[0]


def mms_enum(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> list[int]:
    """Maximin share per agent, computed from a full enumeration pass."""
    return goals.maximin(instance, _BundleSource(instance, spec, budget).groups(False))
