"""The goal layer: every fairness goal answered from one stream of candidates.

An exact solver lists its compact allocations as `candidates(complete)`,
which yields `(w, key)` in the solver's own order: w is the flat row-major
n x n value matrix (w[i * n + j] is agent i's value for bundle j) and
`witness(key, w)` rebuilds the allocation.  With `complete` set, only
allocations that allocate every item are listed; every other goal is a
question about w alone (ef-po compares the diagonal with all utility
vectors, as Pareto-optimality quantifies over all allocations).

mms takes one pass (`maximin`), and its answer is the allocation a second
pass over the stream would find.  The oracle keeps its own loops, as the
reference the solvers are tested against.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional

from .model import Allocation, FairnessGoal, Instance, max_welfare_upper, total_value
from .oracle import _dominated, distinct_utility_vectors

Matrix = tuple[int, ...]
Candidates = Iterable[tuple[Matrix, Hashable]]


def _envy_free(w: Matrix, n: int) -> bool:
    return all(w[i * n + i] >= w[i * n + j] for i in range(n) for j in range(n))


def accepts(
    instance: Instance, goal: FairnessGoal, shares: Optional[list[int]] = None
) -> Callable[[Matrix], bool]:
    """Predicate on value matrices for a goal; mms needs the agents' `shares`."""
    n = instance.n
    if goal is FairnessGoal.PROPORTIONAL:
        totals = [total_value(instance, i) for i in range(n)]
        return lambda w: all(n * w[i * n + i] >= totals[i] for i in range(n))
    if goal is FairnessGoal.EF_COMPLETE:
        return lambda w: _envy_free(w, n)
    if goal is FairnessGoal.MAX_WELFARE:
        target = max_welfare_upper(instance)
        return lambda w: sum(w[i * n + i] for i in range(n)) == target
    if goal is FairnessGoal.MAXIMIN:
        return lambda w: all(w[i * n + i] >= shares[i] for i in range(n))
    if goal is FairnessGoal.EF_PARETO:
        vectors = distinct_utility_vectors(instance)
        return lambda w: _envy_free(w, n) and not _dominated(
            tuple(w[i * n + i] for i in range(n)), vectors
        )
    raise ValueError(f"unknown goal {goal!r}")


def maximin(instance: Instance, candidates: Candidates) -> tuple[list, list[int]]:
    """One pass: every agent's maximin share (her best worst-bundle value),
    and, in stream order, the first occurrence of each distinct matrix that
    meets all shares.  Shares only grow, so a matrix that falls below them
    is dropped for good; that keeps the held candidates few."""
    n = instance.n
    shares = [0] * n
    meets = accepts(instance, FairnessGoal.MAXIMIN, shares)  # reads the running shares
    kept: dict[Matrix, Hashable] = {}
    for w, key in candidates:
        raised = False
        for i in range(n):
            worst = min(w[i * n : (i + 1) * n])
            if worst > shares[i]:
                shares[i] = worst
                raised = True
        if raised:
            kept = {v: k for v, k in kept.items() if meets(v)}
        if w not in kept and meets(w):
            kept[w] = key
    return list(kept.items()), shares


def solve(
    instance: Instance,
    goal: FairnessGoal,
    candidates: Callable[[bool], Candidates],
    witness: Callable[[Hashable, Matrix], Allocation],
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The first candidate allocation meeting the goal (None if there is
    none), and for mms every agent's maximin share from the same pass (None
    for other goals)."""
    stream = candidates(goal is FairnessGoal.EF_COMPLETE)
    shares = None
    if goal is FairnessGoal.MAXIMIN:
        stream, shares = maximin(instance, stream)
    accept = accepts(instance, goal, shares)
    for w, key in stream:
        if accept(w):
            return witness(key, w), shares
    return None, shares
