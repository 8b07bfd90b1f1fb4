"""Brute-force ground truth for tiny instances.

Enumerates all (n+1)^m assignments of vertices to agents-or-unallocated, in
the lexicographic order of `itertools.product`, and checks fairness and
compactness exactly.  Deliberately free of pruning cleverness: the oracle's
value is its obviousness, and every specialized solver is tested against it.
The one concession to speed is that `_scan` walks the assignments as an
odometer, updating only what a step changes; the lists it yields are mutated
in place, so every pass copies what it keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import ge
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

    An instance with more than `max_allocations` assignments raises
    BudgetExceededError before any pass runs.  The default keeps the oracle
    to roughly m <= 8 with n <= 3 (4^8 = 65536 assignments); the Pareto
    check re-enumerates, so it costs (n+1)^(2m) in the worst case.
    """

    max_allocations: int = 500_000

    def __post_init__(self):
        if self.max_allocations < 1:
            raise ValueError("max_allocations must be >= 1")


DEFAULT_BUDGET = OracleBudget()


def assignment_count(instance: Instance) -> int:
    return (instance.n + 1) ** instance.m


def _check_budget(instance: Instance, budget: Optional[OracleBudget]) -> None:
    budget = budget or DEFAULT_BUDGET
    if assignment_count(instance) > budget.max_allocations:
        raise BudgetExceededError(
            f"(n+1)^m = {assignment_count(instance)} exceeds budget {budget.max_allocations}"
        )


def enumerate_allocations(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> Iterator[Allocation]:
    """Yield each of the (n+1)^m allocations exactly once, deterministically."""
    _check_budget(instance, budget)
    for digits, _masks, _vals in _scan(instance):
        yield _allocation_from_digits(instance, digits)


def _scan(instance: Instance, matrix: bool = False):
    """Yield (digits, masks, vals) for every assignment, in the order of
    `itertools.product(range(n + 1), repeat=m)`: digits[z] is vertex z's
    agent (n: unallocated) and the last digit turns fastest.  masks[a] is
    agent a's bundle as a bit mask and vals[a] that agent's value for it.
    With `matrix`, the third item is instead the n x n matrix whose [i][a]
    is agent i's value for agent a's bundle.

    A mixed-radix odometer (Knuth, TAOCP 4A, 7.2.1.1, Algorithm M): a step
    moves the rightmost vertex z below n on to the next agent and every
    vertex after z from n back to agent 0, so it touches only the bundles
    those vertices leave and enter.  The three lists are the same objects
    at every step and are mutated in place: a caller copies whatever it
    keeps, as `distinct_utility_vectors` does with `tuple(vals)`."""
    n, m = instance.n, instance.m
    rows = instance.values
    # tail[z]: the bits of vertices z..m-1; suf[i][z]: agent i's value for them
    tail = [((1 << m) - 1) >> z << z for z in range(m + 1)]
    suf = [[sum(row[z:]) for z in range(m + 1)] for row in rows]
    digits, masks = [0] * m, [0] * n
    masks[0] = tail[0]
    if matrix:
        out = [[s[0]] + [0] * (n - 1) for s in suf]
    else:
        out = [suf[0][0]] + [0] * (n - 1)
    agents, last = range(n), m - 1
    while True:
        yield digits, masks, out
        z = last
        while z >= 0 and digits[z] == n:
            digits[z] = 0
            z -= 1
        if z < 0:
            return
        a = digits[z]
        digits[z] = b = a + 1
        bit = 1 << z
        masks[a] ^= bit
        if b < n:
            masks[b] |= bit
        if matrix:
            for i in agents:
                row, val = out[i], rows[i][z]
                row[a] -= val
                if b < n:
                    row[b] += val
        else:
            out[a] -= rows[a][z]
            if b < n:
                out[b] += rows[b][z]
        if z < last:  # vertices z+1..m-1 go from unallocated to agent 0
            masks[0] |= tail[z + 1]
            if matrix:
                for i in agents:
                    out[i][0] += suf[i][z + 1]
            else:
                out[0] += suf[0][z + 1]


def _allocation_from_digits(instance: Instance, digits) -> Allocation:
    n = instance.n
    bundles = [set() for _ in range(n)]
    for z, a in enumerate(digits):
        if a < n:
            bundles[a].add(z)
    return Allocation(tuple(frozenset(b) for b in bundles))


def distinct_utility_vectors(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> set[tuple[int, ...]]:
    """Set of (v_1(pi(1)), ..., v_n(pi(n))) over all allocations."""
    _check_budget(instance, budget)
    return {tuple(vals) for _digits, _masks, vals in _scan(instance)}


def _dominated(vec, vectors) -> bool:
    for other in vectors:
        if other == vec:
            continue
        if all(o >= u for o, u in zip(other, vec)) and any(o > u for o, u in zip(other, vec)):
            return True
    return False


def _envy_free(mat) -> bool:
    return all(row[i] == max(row) for i, row in enumerate(mat))


def mms_all(
    instance: Instance, spec: CompactnessSpec, budget: Optional[OracleBudget] = None
) -> list[int]:
    """Exact maximin share of every agent over the spec-compact allocation class."""
    _check_budget(instance, budget)
    check = BundleCompactnessCache(instance, spec).check_mask
    best = [0] * instance.n
    for _digits, masks, mat in _scan(instance, matrix=True):
        if all(map(check, masks)):
            best = list(map(max, best, map(min, mat)))
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
    check = BundleCompactnessCache(instance, spec).check_mask

    if goal is FairnessGoal.PROPORTIONAL:
        # v >= W/n for an integer v is v >= ceil(W/n)
        shares = [-(-total_value(instance, i) // n) for i in range(n)]
        for digits, masks, vals in _scan(instance):
            if all(map(ge, vals, shares)) and all(map(check, masks)):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.MAX_WELFARE:
        target = max_welfare_upper(instance)
        for digits, masks, vals in _scan(instance):
            if sum(vals) == target and all(map(check, masks)):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.EF_COMPLETE:
        for digits, masks, mat in _scan(instance, matrix=True):
            if n not in digits and _envy_free(mat) and all(map(check, masks)):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.EF_PARETO:
        vectors = distinct_utility_vectors(instance, budget)
        for digits, masks, mat in _scan(instance, matrix=True):
            if not (_envy_free(mat) and all(map(check, masks))):
                continue
            if not _dominated(tuple(row[i] for i, row in enumerate(mat)), vectors):
                return _allocation_from_digits(instance, digits)
        return None

    if goal is FairnessGoal.MAXIMIN:
        return answer_oracle(instance, spec, goal, budget)[0]

    raise ValueError(f"unknown goal {goal!r}")


def answer_oracle(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    budget: Optional[OracleBudget] = None,
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The allocation `solve_oracle` returns, and for mms every agent's
    maximin share (None for other goals): one share pass, then the first
    allocation, in enumeration order, that gives each agent at least hers."""
    if goal is not FairnessGoal.MAXIMIN:
        return solve_oracle(instance, spec, goal, budget), None
    thresholds = mms_all(instance, spec, budget)
    check = BundleCompactnessCache(instance, spec).check_mask
    for digits, masks, vals in _scan(instance):
        if all(map(ge, vals, thresholds)) and all(map(check, masks)):
            return _allocation_from_digits(instance, digits), thresholds
    return None, thresholds
