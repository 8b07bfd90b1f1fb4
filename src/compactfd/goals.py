"""The goal layer: every fairness goal answered from one stream of candidates.

An exact solver lists its compact allocations as `candidates(complete,
relevant)`, which yields `(w, key)` in the solver's own order: w is the flat
row-major n x n value matrix (w[i * n + j] is agent i's value for bundle j)
and `witness(key, w)` rebuilds the allocation.  With `complete` set, only
allocations that allocate every item are listed; every other goal is a
question about w alone (ef-po compares the diagonal with all utility
vectors, as Pareto-optimality quantifies over all allocations).

`relevant` (None: list everything) lets a source skip a group of
candidates it can bound from above: given a matrix `ub` with w <= ub
componentwise for every w of the group, the source may drop the group when
`relevant(ub)` is false.  The skip is exact because welfare and meeting
the mms shares are upward closed (if w is accepted, so is every matrix
above it): a group whose bound is not accepted holds no accepted matrix.
For mms the predicate reads the running shares, which only grow; a dropped
group could neither raise a share (its row minima are at most the bound's)
nor meet the shares then or later.  So the shares, the first accepted
candidate and its key are those of the full stream.  ef-complete and ef-po
are not upward closed and pass None.  prop is upward closed too, and
`accepts` would serve as its test, but it still passes None (ROADMAP
item 4).

mms takes one pass (`maximin`), and its answer is the allocation a second
pass over the stream would find.  The oracle keeps its own loops, as the
reference the solvers are tested against.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Optional

from .model import Allocation, FairnessGoal, Instance, max_welfare_upper, total_value
from .oracle import _dominated, distinct_utility_vectors

Matrix = tuple[int, ...]
Candidates = Iterable[tuple[Matrix, Hashable]]
Relevance = Optional[Callable[[Matrix], bool]]


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
        # the target bounds every welfare, so >= is == and upward closed
        return lambda w: sum(w[i * n + i] for i in range(n)) >= target
    if goal is FairnessGoal.MAXIMIN:
        return lambda w: all(w[i * n + i] >= shares[i] for i in range(n))
    if goal is FairnessGoal.EF_PARETO:
        vectors = distinct_utility_vectors(instance)
        return lambda w: _envy_free(w, n) and not _dominated(
            tuple(w[i * n + i] for i in range(n)), vectors
        )
    raise ValueError(f"unknown goal {goal!r}")


def maximin(
    instance: Instance, candidates: Callable[[Relevance], Candidates]
) -> tuple[list, list[int]]:
    """One pass: every agent's maximin share (her best worst-bundle value),
    and, in stream order, the first occurrence of each distinct matrix that
    meets all shares.  Shares only grow, so a matrix that falls below them
    is dropped for good; that keeps the held candidates few."""
    n = instance.n
    shares = [0] * n
    meets = accepts(instance, FairnessGoal.MAXIMIN, shares)  # reads the running shares

    def relevant(ub: Matrix) -> bool:  # can a group below ub raise or meet the shares?
        return meets(ub) or any(min(ub[i * n : (i + 1) * n]) > shares[i] for i in range(n))

    kept: dict[Matrix, Hashable] = {}
    for w, key in candidates(relevant):
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
    candidates: Callable[[bool, Relevance], Candidates],
    witness: Callable[[Hashable, Matrix], Allocation],
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The first candidate allocation meeting the goal (None if there is
    none), and for mms every agent's maximin share from the same pass (None
    for other goals)."""
    complete = goal is FairnessGoal.EF_COMPLETE
    if goal is FairnessGoal.MAXIMIN:
        stream, shares = maximin(instance, partial(candidates, complete))
        accept = accepts(instance, goal, shares)
    else:
        shares, accept = None, accepts(instance, goal)
        stream = candidates(complete, accept if goal is FairnessGoal.MAX_WELFARE else None)
    for w, key in stream:
        if accept(w):
            return witness(key, w), shares
    return None, shares
