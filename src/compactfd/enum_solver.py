"""Bounded-degree enumeration solver.

Every compact bundle sits inside the union of at most alpha balls around its
cover centers, so enumerating center tuples and then subsets of their ball
unions reaches every compact bundle.  Candidate bundles are re-checked with
the recognizer (a subset of a ball union need not be compact in its own
induced subgraph) and deduplicated, then combined disjointly across agents.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .compactness import BundleCompactnessCache, ball
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
    bundle_value,
    is_complete,
    is_envy_free,
    max_welfare_upper,
    total_value,
)
from .oracle import BudgetExceededError, distinct_utility_vectors, _dominated

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
    work = 0
    for size in range(0, spec.alpha + 1):
        for centers in itertools.combinations(graph.vertices, size):
            union = frozenset().union(*(balls[c] for c in centers)) if centers else frozenset()
            work += 1 << len(union)
    if work > budget:
        raise BudgetExceededError(f"candidate scan needs {work} subset checks, budget {budget}")
    cache = BundleCompactnessCache(instance, spec)
    seen: set[frozenset[int]] = set()
    for size in range(0, spec.alpha + 1):
        for centers in itertools.combinations(graph.vertices, size):
            union = sorted(frozenset().union(*(balls[c] for c in centers))) if centers else []
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


def solve_enum(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    budget: int = DEFAULT_WORK_BUDGET,
) -> Optional[Allocation]:
    """First enumerated compact allocation satisfying the goal, or None.

    Maximin is `maximin_enum`.  ef-po uses the exhaustive utility-vector
    dominance check, so it is only sensible at oracle scale.
    """
    n = instance.n

    if goal is FairnessGoal.PROPORTIONAL:
        totals = [total_value(instance, i) for i in range(n)]
        for alloc in enumerate_compact_allocations(instance, spec, budget):
            if all(
                n * bundle_value(instance, i, alloc.bundles[i]) >= totals[i] for i in range(n)
            ):
                return alloc
        return None

    if goal is FairnessGoal.EF_COMPLETE:
        for alloc in enumerate_compact_allocations(instance, spec, budget):
            if is_complete(instance, alloc) and is_envy_free(instance, alloc):
                return alloc
        return None

    if goal is FairnessGoal.EF_PARETO:
        vectors = distinct_utility_vectors(instance)
        for alloc in enumerate_compact_allocations(instance, spec, budget):
            if not is_envy_free(instance, alloc):
                continue
            vec = tuple(bundle_value(instance, i, alloc.bundles[i]) for i in range(n))
            if not _dominated(vec, vectors):
                return alloc
        return None

    if goal is FairnessGoal.MAX_WELFARE:
        target = max_welfare_upper(instance)
        for alloc in enumerate_compact_allocations(instance, spec, budget):
            if sum(bundle_value(instance, i, alloc.bundles[i]) for i in range(n)) == target:
                return alloc
        return None

    if goal is FairnessGoal.MAXIMIN:
        return maximin_enum(instance, spec, budget)[0]

    raise ValueError(f"unknown goal {goal!r}")


def maximin_enum(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> tuple[Optional[Allocation], list[int]]:
    """Every agent's maximin share, and the first enumerated compact
    allocation giving each agent at least hers, or None.

    Two passes: the first computes the shares over the enumerated class, the
    second filters by them.
    """
    thresholds = mms_enum(instance, spec, budget)
    n = instance.n
    for alloc in enumerate_compact_allocations(instance, spec, budget):
        if all(bundle_value(instance, i, alloc.bundles[i]) >= thresholds[i] for i in range(n)):
            return alloc, thresholds
    return None, thresholds


def mms_enum(
    instance: Instance, spec: CompactnessSpec, budget: int = DEFAULT_WORK_BUDGET
) -> list[int]:
    """Maximin share per agent, computed from a full enumeration pass."""
    n = instance.n
    best = [0] * n
    for alloc in enumerate_compact_allocations(instance, spec, budget):
        for i in range(n):
            worst = min(bundle_value(instance, i, b) for b in alloc.bundles)
            if worst > best[i]:
                best[i] = worst
    return best
