"""The goal layer: every fairness goal answered from groups of candidates.

An exact solver lists its compact allocations as `groups(complete)`, an
iterable of groups `(ub, matrices)` in the solver's canonical order.
`matrices()` opens a group: it yields `(w, key)` in the group's own order,
where w is the flat row-major n x n value matrix (w[i * n + j] is agent i's
value for bundle j) and `witness(key, w)` rebuilds the allocation.  Every
group carries a bound: `ub` is a matrix with w <= ub componentwise for every
w of the group.  It is a value, computed when the group is listed; a source
that lists its groups lazily never builds those a goal does not reach.  With
`complete` set, only allocations that allocate every item are listed; every
other goal is a question about w alone (ef-po compares the diagonal with all
utility vectors, as Pareto-optimality quantifies over all allocations).

The answer is the first accepted candidate of the stream that opens every
group in canonical order.  prop, welfare and meeting the mms shares are
upward closed (if w is accepted, so is every matrix above it), so a group
whose bound is not accepted holds no accepted matrix and is never opened.
prop, welfare and mms (once it has the shares, below) walk the groups in
order and skip those.  ef-complete is not upward closed, but its accepted
matrices are proportional, and so is their bound: every item is allocated,
so row i of w sums to agent i's total W_i, and envy-freeness makes w[i,i]
the row's largest entry, so n * ub[i,i] >= n * w[i,i] >= W_i.  So
ef-complete skips the groups whose bound fails prop.  ef-po reads no bound.

mms first finds the shares (`maximin`), best bound first (Land and Doig,
Econometrica 28(3), 1960).  It opens the groups in descending order of the
sum of their bound's row minima, ties by canonical rank, and skips every
group that cannot raise a running share (no row minimum of its bound above
that share).  Shares only grow, so a skipped group could not raise one later
either, and the shares are those of the full stream.  The answer walk then
tests bounds and matrices against those shares.  It may open a group the
share pass opened already, so a source that pays to open a group keeps its
matrices (`tw_dp._TupleSource`).  The oracle keeps its own loops, as the
reference the solvers are tested against.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional

from .model import Allocation, FairnessGoal, Instance, max_welfare_upper, total_value
from .oracle import _dominated, distinct_utility_vectors

Matrix = tuple[int, ...]
Candidates = Iterable[tuple[Matrix, Hashable]]
Group = tuple[Matrix, Callable[[], Candidates]]


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


def bound_check(instance: Instance, goal: FairnessGoal) -> Optional[Callable[[Matrix], bool]]:
    """The necessary test `solve` makes on a group's bound: prop for prop and
    ef-complete, welfare for welfare.  None for ef-po, which reads no bound,
    and for mms, whose bound test is its accept test on the shares."""
    if goal in (FairnessGoal.PROPORTIONAL, FairnessGoal.MAX_WELFARE):
        return accepts(instance, goal)
    if goal is FairnessGoal.EF_COMPLETE:
        return accepts(instance, FairnessGoal.PROPORTIONAL)
    return None


def maximin(instance: Instance, groups: Iterable[Group]) -> list[int]:
    """Every agent's maximin share (the best worst-bundle value the agent can
    get), opening the groups best bound first."""
    n = instance.n
    groups = list(groups)
    shares = [0] * n
    floors = [  # per group: the row minima of its bound, which cap its row minima
        [min(ub[i * n : (i + 1) * n]) for i in range(n)] for ub, _ in groups
    ]
    for rank in sorted(range(len(groups)), key=lambda r: (-sum(floors[r]), r)):
        if all(f <= s for f, s in zip(floors[rank], shares)):
            continue  # cannot raise a share, now or later
        for w, _key in groups[rank][1]():
            for i in range(n):
                shares[i] = max(shares[i], min(w[i * n : (i + 1) * n]))
    return shares


def solve(
    instance: Instance,
    goal: FairnessGoal,
    groups: Callable[[bool], Iterable[Group]],
    witness: Callable[[Hashable, Matrix], Allocation],
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The first candidate allocation meeting the goal (None if there is
    none), and for mms every agent's maximin share from the same pass (None
    for other goals)."""
    listed, shares = groups(goal is FairnessGoal.EF_COMPLETE), None
    if goal is FairnessGoal.MAXIMIN:
        listed = list(listed)  # read twice: for the shares, then for the answer
        shares = maximin(instance, listed)
    accept = accepts(instance, goal, shares)
    necessary = accept if shares is not None else bound_check(instance, goal)
    for ub, matrices in listed:
        if necessary is not None and not necessary(ub):
            continue
        for w, key in matrices():
            if accept(w):
                return witness(key, w), shares
    return None, shares
