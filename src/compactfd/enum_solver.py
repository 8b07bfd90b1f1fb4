"""Bounded-degree enumeration solver.

Every compact bundle sits inside the union of at most alpha balls around its
cover centers, so enumerating center tuples and then subsets of their ball
unions reaches every compact bundle.  Candidate bundles are re-checked with
the recognizer (a subset of a ball union need not be compact in its own
induced subgraph) and deduplicated, then combined disjointly across agents.
The fairness goals are answered by `goals` from the value matrices of the
enumerated allocations.
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
    unions = [
        sorted(frozenset().union(*(balls[c] for c in centers)))
        for size in range(0, spec.alpha + 1)
        for centers in itertools.combinations(graph.vertices, size)
    ]
    work = sum(1 << len(union) for union in unions)
    if work > budget:
        raise BudgetExceededError(f"candidate scan needs {work} subset checks, budget {budget}")
    cache = BundleCompactnessCache(instance, spec)
    seen: set[frozenset[int]] = set()
    for union in unions:
        for k in range(len(union) + 1):
            for sub in itertools.combinations(union, k):
                bundle = frozenset(sub)
                if bundle not in seen and cache.check(bundle):
                    seen.add(bundle)
    return sorted(seen, key=lambda b: (len(b), tuple(sorted(b))))


def enumerate_compact_allocations(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> Iterator[Allocation]:
    """Yield every spec-compact allocation exactly once, deterministically."""
    bundles = compact_bundles(instance, spec, budget)
    masks = [sum(1 << z for z in b) for b in bundles]
    n = instance.n
    chosen: list[frozenset[int]] = []
    yielded = 0

    def rec(agent: int, used: int, pool: list[int]):
        nonlocal yielded
        if agent == n:
            yielded += 1
            if yielded > budget:
                raise BudgetExceededError(f"more than {budget} compact allocations")
            yield Allocation(tuple(chosen))
            return
        remaining = [k for k in pool if not (masks[k] & used)]
        for k in remaining:
            chosen.append(bundles[k])
            yield from rec(agent + 1, used | masks[k], remaining)
            chosen.pop()

    yield from rec(0, 0, list(range(len(bundles))))


def _matrices(instance: Instance, spec: CompactnessSpec, budget: int, complete: bool):
    """Candidates for the goal layer: each enumerated compact allocation (only
    complete ones if `complete`) with its value matrix, keyed by itself.
    Each bundle's value column is computed once per pass."""
    rows, m = instance.values, instance.m
    columns: dict[frozenset[int], tuple[int, ...]] = {}
    for alloc in enumerate_compact_allocations(instance, spec, budget):
        if complete and sum(map(len, alloc.bundles)) != m:
            continue
        per_bundle = []
        for bundle in alloc.bundles:
            col = columns.get(bundle)
            if col is None:
                col = columns[bundle] = tuple(sum(row[z] for z in bundle) for row in rows)
            per_bundle.append(col)
        # zip(*columns) gives the rows of w: one agent's values across the bundles
        yield sum(zip(*per_bundle), ()), alloc


def _groups(instance: Instance, spec: CompactnessSpec, budget: int, complete: bool):
    """The enumeration as a single group without a bound: no bound here is
    cheaper than the matrices themselves."""
    return [(None, partial(_matrices, instance, spec, budget, complete))]


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
    return goals.solve(
        instance, goal, partial(_groups, instance, spec, budget), lambda alloc, _w: alloc
    )


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
    return goals.maximin(instance, _groups(instance, spec, budget, False))
