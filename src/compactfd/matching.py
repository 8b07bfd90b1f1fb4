"""Polynomial solvers for the (alpha, beta) = (1, 0) case.

With a radius of zero every bundle has at most one item, so the graph drops
out entirely.  Proportionality and maximin reduce to saturating matchings in
an agents-items bipartite graph, given as an adjacency list (adj[i] lists the
items agent i accepts); envy-freeness under the exactly-one-item constraint
is solved by iterated Hall-violator removal.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .model import Allocation, Instance, total_value


def maximum_matching(
    adj: Sequence[Sequence[int]], agents: Optional[Iterable[int]] = None
) -> dict[int, int]:
    """Maximum matching via augmenting paths in the agents-items graph where
    agent i accepts the items adj[i]; returns agent -> item.

    Agents are processed in ascending order, so the result is deterministic.
    `agents` restricts which left vertices participate.
    """
    if agents is None:
        agents = range(len(adj))
    item_owner: dict[int, int] = {}
    agent_item: dict[int, int] = {}

    def try_augment(a: int, visited: set[int]) -> bool:
        for z in adj[a]:
            if z in visited:
                continue
            visited.add(z)
            owner = item_owner.get(z)
            if owner is None or try_augment(owner, visited):
                item_owner[z] = a
                agent_item[a] = z
                return True
        return False

    for a in sorted(agents):
        try_augment(a, set())
    return agent_item


def _threshold_matching(instance: Instance, thresholds: list[int]) -> Optional[Allocation]:
    """Match every agent whose threshold is positive to an item worth at
    least that threshold; agents with threshold 0 are content with nothing.

    Returns the single-item allocation or None when no saturating matching
    of the needing agents exists.
    """
    needing = [i for i in range(instance.n) if thresholds[i] > 0]
    adj = [[z for z, v in enumerate(row) if v >= t] for row, t in zip(instance.values, thresholds)]
    matched = maximum_matching(adj, needing)
    if len(matched) < len(needing):
        return None
    bundles = [frozenset() for _ in range(instance.n)]
    for a, z in matched.items():
        bundles[a] = frozenset([z])
    return Allocation(tuple(bundles))


def solve_prop_10(instance: Instance) -> Optional[Allocation]:
    """Proportional (1, 0)-compact allocation or None.

    Agent i accepts item z when n * v_i(z) >= W_i, which in integers is
    v_i(z) >= ceil(W_i / n).  A saturating matching of the agents with
    W_i > 0 is necessary and sufficient; agents with W_i = 0 are
    proportional with an empty bundle, so they never block a yes answer.
    """
    n = instance.n
    return _threshold_matching(instance, [-(-total_value(instance, i) // n) for i in range(n)])


def mms_10(instance: Instance, agent: int) -> int:
    """Maximin share for the one-item bundle class: 0 when m < n, otherwise
    the agent's n-th largest item value."""
    if not (0 <= agent < instance.n):
        raise ValueError(f"agent {agent} out of range")
    if instance.m < instance.n:
        return 0
    ordered = sorted(instance.values[agent], reverse=True)
    return ordered[instance.n - 1]


def solve_mms_10(instance: Instance) -> Optional[Allocation]:
    """Maximin-fair (1, 0)-compact allocation.

    Eligibility is v_i(z) >= mms_10(i).  When m < n every threshold is 0 and
    the empty bundles already satisfy everyone, so the partial matching
    outcome is returned.  A qualifying matching always exists: each agent has
    at least n items at or above her own n-th largest value.
    """
    thresholds = [mms_10(instance, i) for i in range(instance.n)]
    return _threshold_matching(instance, thresholds)


def solve_ef_one_item(instance: Instance) -> Optional[Allocation]:
    """Envy-free assignment of exactly one item per agent, or None.

    Loop: join each agent to her maximum-value items among the remaining
    ones (ties included) and look for a matching saturating all agents.  On
    failure, take the first unmatched agent, collect the agents reachable by
    alternating paths (a Hall violator S with |N(S)| < |S|), delete the items
    N(S), and repeat.  Fewer remaining items than agents means no.
    """
    n = instance.n
    remaining = set(range(instance.m))
    while True:
        if len(remaining) < n:
            return None
        adj = []
        for i in range(n):
            best = max(instance.values[i][z] for z in remaining)
            adj.append(tuple(z for z in sorted(remaining) if instance.values[i][z] == best))
        matched = maximum_matching(adj)
        if len(matched) == n:
            bundles = [frozenset([matched[i]]) for i in range(n)]
            return Allocation(tuple(bundles))
        unmatched = min(i for i in range(n) if i not in matched)
        item_owner = {z: a for a, z in matched.items()}
        reach_agents = {unmatched}
        reach_items: set[int] = set()
        frontier = [unmatched]
        while frontier:
            nxt = []
            for a in frontier:
                for z in adj[a]:
                    if z in reach_items:
                        continue
                    reach_items.add(z)
                    owner = item_owner.get(z)
                    if owner is not None and owner not in reach_agents:
                        reach_agents.add(owner)
                        nxt.append(owner)
            frontier = nxt
        # neighbourhood of the violator; nonempty because favourites exist
        remaining -= reach_items
