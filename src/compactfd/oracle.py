"""Brute-force ground truth for tiny instances.

Enumerates all (n+1)^m assignments of vertices to agents-or-unallocated and
checks fairness and compactness exactly.  Deliberately free of pruning
cleverness: the oracle's value is its obviousness.  Every specialized solver
is tested against it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .compactness import BundleCompactnessCache
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
    max_welfare_upper,
    total_value,
)


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive pass would exceed its allocation budget."""


@dataclass(frozen=True)
class OracleBudget:
    """Cap on the (n+1)^m enumeration.

    With abort_on_exceed set, oversized instances raise BudgetExceededError;
    otherwise the caller accepts the cost and the pass runs anyway.  The
    default keeps the oracle to roughly m <= 8 with n <= 3 (4^8 = 65536
    assignments); the Pareto check re-enumerates, so it costs (n+1)^(2m)
    in the worst case.
    """

    max_allocations: int = 500_000
    abort_on_exceed: bool = True

    def __post_init__(self):
        if self.max_allocations < 1:
            raise ValueError("max_allocations must be >= 1")


DEFAULT_BUDGET = OracleBudget()


def assignment_count(instance: Instance) -> int:
    return (instance.n + 1) ** instance.m


def _check_budget(instance: Instance, budget: Optional[OracleBudget]) -> None:
    budget = budget or DEFAULT_BUDGET
    if budget.abort_on_exceed and assignment_count(instance) > budget.max_allocations:
        raise BudgetExceededError(
            f"(n+1)^m = {assignment_count(instance)} exceeds budget {budget.max_allocations}"
        )


def _assignments(instance: Instance):
    """Mixed-radix counter over vertices; digit n means 'unallocated'."""
    return itertools.product(range(instance.n + 1), repeat=instance.m)


def enumerate_allocations(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> Iterator[Allocation]:
    """Yield each of the (n+1)^m allocations exactly once, deterministically."""
    _check_budget(instance, budget)
    n = instance.n
    for digits in _assignments(instance):
        bundles = [[] for _ in range(n)]
        for z, a in enumerate(digits):
            if a < n:
                bundles[a].append(z)
        yield Allocation(tuple(frozenset(b) for b in bundles))


def _scan(instance: Instance, spec: CompactnessSpec):
    """Yield (digits, per-agent bundle masks, per-agent own values) for every
    assignment.  Shared inner loop for the exhaustive passes."""
    n, m = instance.n, instance.m
    rows = [list(r) for r in instance.values]
    for digits in _assignments(instance):
        masks = [0] * n
        vals = [0] * n
        for z in range(m):
            a = digits[z]
            if a < n:
                masks[a] |= 1 << z
                vals[a] += rows[a][z]
        yield digits, masks, vals


def _allocation_from_digits(instance: Instance, digits) -> Allocation:
    n = instance.n
    bundles = [set() for _ in range(n)]
    for z, a in enumerate(digits):
        if a < n:
            bundles[a].add(z)
    return Allocation(tuple(frozenset(b) for b in bundles))


def _value_matrix(instance: Instance, digits) -> list[list[int]]:
    n = instance.n
    mat = [[0] * n for _ in range(n)]
    for z, a in enumerate(digits):
        if a < n:
            for i in range(n):
                mat[i][a] += instance.values[i][z]
    return mat


def distinct_utility_vectors(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> set[tuple[int, ...]]:
    """Set of (v_1(pi(1)), ..., v_n(pi(n))) over all allocations."""
    _check_budget(instance, budget)
    n, m = instance.n, instance.m
    rows = instance.values
    out: set[tuple[int, ...]] = set()
    for digits in _assignments(instance):
        vals = [0] * n
        for z in range(m):
            a = digits[z]
            if a < n:
                vals[a] += rows[a][z]
        out.add(tuple(vals))
    return out


def _dominated(vec, vectors) -> bool:
    for other in vectors:
        if other == vec:
            continue
        if all(o >= u for o, u in zip(other, vec)) and any(o > u for o, u in zip(other, vec)):
            return True
    return False


def is_pareto_optimal(
    instance: Instance, allocation: Allocation, budget: Optional[OracleBudget] = None
) -> bool:
    """Exhaustive check: no allocation weakly improves everyone and strictly
    improves someone.  Quantifies over all allocations, not just compact ones."""
    from .model import bundle_value

    vec = tuple(bundle_value(instance, i, allocation.bundles[i]) for i in range(instance.n))
    return not _dominated(vec, distinct_utility_vectors(instance, budget))


def mms_all(
    instance: Instance, spec: CompactnessSpec, budget: Optional[OracleBudget] = None
) -> list[int]:
    """Exact maximin share of every agent over the spec-compact allocation class."""
    _check_budget(instance, budget)
    n = instance.n
    cache = BundleCompactnessCache(instance, spec)
    best = [0] * n
    rows = instance.values
    for digits, masks, _vals in _scan(instance, spec):
        if not all(cache.check_mask(mk) for mk in masks):
            continue
        for i in range(n):
            row = rows[i]
            per = [0] * n
            for z, a in enumerate(digits):
                if a < n:
                    per[a] += row[z]
            worst = min(per)
            if worst > best[i]:
                best[i] = worst
    return best


def mms_oracle(
    instance: Instance, spec: CompactnessSpec, agent: int, budget: Optional[OracleBudget] = None
) -> int:
    if not (0 <= agent < instance.n):
        raise ValueError(f"agent {agent} out of range")
    return mms_all(instance, spec, budget)[agent]


def solve_oracle(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    budget: Optional[OracleBudget] = None,
) -> Optional[Allocation]:
    """First allocation (in enumeration order) meeting the compactness spec
    and the fairness goal, or None."""
    _check_budget(instance, budget)
    n = instance.n
    cache = BundleCompactnessCache(instance, spec)
    totals = [total_value(instance, i) for i in range(n)]

    if goal is FairnessGoal.PROPORTIONAL:
        for digits, masks, vals in _scan(instance, spec):
            if all(n * vals[i] >= totals[i] for i in range(n)) and all(
                cache.check_mask(mk) for mk in masks
            ):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.MAX_WELFARE:
        target = max_welfare_upper(instance)
        for digits, masks, vals in _scan(instance, spec):
            if sum(vals) == target and all(cache.check_mask(mk) for mk in masks):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.EF_COMPLETE:
        full = (1 << instance.m) - 1
        for digits, masks, vals in _scan(instance, spec):
            got = 0
            for mk in masks:
                got |= mk
            if got != full:
                continue
            mat = _value_matrix(instance, digits)
            if all(mat[i][i] >= mat[i][j] for i in range(n) for j in range(n)) and all(
                cache.check_mask(mk) for mk in masks
            ):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.EF_PARETO:
        vectors = distinct_utility_vectors(instance, budget)
        for digits, masks, vals in _scan(instance, spec):
            mat = _value_matrix(instance, digits)
            if not all(mat[i][i] >= mat[i][j] for i in range(n) for j in range(n)):
                continue
            if not all(cache.check_mask(mk) for mk in masks):
                continue
            if not _dominated(tuple(vals), vectors):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.MAXIMIN:
        return maximin_oracle(instance, spec, budget)[0]

    raise ValueError(f"unknown goal {goal!r}")


def maximin_oracle(
    instance: Instance, spec: CompactnessSpec, budget: Optional[OracleBudget] = None
) -> tuple[Optional[Allocation], list[int]]:
    """Every agent's maximin share, and the first allocation (in enumeration
    order) that is spec-compact and gives each agent at least hers, or None."""
    thresholds = mms_all(instance, spec, budget)
    n = instance.n
    cache = BundleCompactnessCache(instance, spec)
    for digits, masks, vals in _scan(instance, spec):
        if all(vals[i] >= thresholds[i] for i in range(n)) and all(
            cache.check_mask(mk) for mk in masks
        ):
            return _allocation_from_digits(instance, digits), thresholds
    return None, thresholds
