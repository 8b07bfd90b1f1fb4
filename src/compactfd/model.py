"""Domain types shared by every solver: instances, allocations, fairness.

An instance is an item graph together with agents holding additive
non-negative integer valuations over the vertices.  Allocations are partial
by default: bundles are pairwise disjoint vertex sets and may be empty.
All fairness predicates compare exact integers (proportionality is checked
as n * v_i(bundle_i) >= v_i(everything), never with floats).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .compactness import Graph


class FairnessGoal(Enum):
    PROPORTIONAL = "prop"
    EF_COMPLETE = "ef-complete"
    EF_PARETO = "ef-po"
    MAXIMIN = "mms"
    MAX_WELFARE = "welfare"


def _int(x, what: str) -> int:
    """x itself if it is an int; anything else, a bool included, is rejected
    instead of being coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class CompactnessSpec:
    """Bundle constraint parameters: cover by `alpha` balls of radius `beta`;
    `strong` switches to the pairwise-distance variant."""

    alpha: int
    beta: int
    strong: bool = False

    def __post_init__(self):
        if _int(self.alpha, "alpha") < 1:
            raise ValueError("alpha must be >= 1")
        if _int(self.beta, "beta") < 0:
            raise ValueError("beta must be >= 0")
        if not isinstance(self.strong, bool):
            raise ValueError(f"strong must be a bool, got {self.strong!r}")


class Instance:
    """Item graph plus agent valuations.

    Vertices are 0..m-1.  `values[i][z]` is agent i's value for item z;
    values are non-negative integers (Python integers are unbounded, so no
    overflow guard is needed for the wide sums n * W_i).
    """

    __slots__ = ("m", "edges", "values", "agent_names", "_graph")

    def __init__(
        self,
        m: int,
        edges: Iterable[Sequence[int]],
        values: Sequence[Sequence[int]],
        agent_names: Optional[Sequence[str]] = None,
    ):
        if _int(m, "m") < 0:
            raise ValueError("m must be a non-negative integer")
        self.m = m
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = _int(e[0], "an edge endpoint"), _int(e[1], "an edge endpoint")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) out of range for m={m}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        self.edges = frozenset(seen)
        if len(values) < 1:
            raise ValueError("need at least one agent")
        rows = []
        for i, row in enumerate(values):
            row = tuple(_int(x, "a value") for x in row)
            if len(row) != m:
                raise ValueError(f"agent {i}: value row has length {len(row)}, expected {m}")
            if any(x < 0 for x in row):
                raise ValueError(f"agent {i}: negative value")
            rows.append(row)
        self.values = tuple(rows)
        if agent_names is not None:
            if len(agent_names) != len(rows):
                raise ValueError("agent_names length mismatch")
            for name in agent_names:
                if not isinstance(name, str):
                    raise ValueError(f"an agent name must be a string, got {name!r}")
            self.agent_names = tuple(agent_names)
        else:
            self.agent_names = None
        self._graph = None

    @property
    def n(self) -> int:
        return len(self.values)

    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = Graph(range(self.m), self.edges)
        return self._graph

    def __repr__(self) -> str:
        return f"Instance(m={self.m}, n={self.n}, |E|={len(self.edges)})"


@dataclass(frozen=True)
class Allocation:
    """Pairwise-disjoint bundles, one per agent; bundles may be empty."""

    bundles: tuple[frozenset[int], ...]

    @staticmethod
    def of(parts: Iterable[Iterable[int]]) -> "Allocation":
        return Allocation(tuple(frozenset(p) for p in parts))

    @staticmethod
    def empty(n: int) -> "Allocation":
        return Allocation(tuple(frozenset() for _ in range(n)))


def validate_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise ValueError unless the allocation is well formed for the instance."""
    if len(allocation.bundles) != instance.n:
        raise ValueError(
            f"allocation has {len(allocation.bundles)} bundles, instance has {instance.n} agents"
        )
    taken: set[int] = set()
    for i, bundle in enumerate(allocation.bundles):
        for z in bundle:
            if not (0 <= z < instance.m):
                raise ValueError(f"bundle {i}: vertex {z} out of range")
            if z in taken:
                raise ValueError(f"vertex {z} appears in two bundles")
        taken |= bundle


def total_value(instance: Instance, agent: int) -> int:
    """W_agent, the agent's value for all items together."""
    if not (0 <= agent < instance.n):
        raise ValueError(f"agent {agent} out of range")
    return sum(instance.values[agent])


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> int:
    row = instance.values[agent]
    return sum(row[z] for z in bundle)


def is_proportional(instance: Instance, allocation: Allocation) -> bool:
    """Each agent gets at least a 1/n share: n * v_i(own) >= W_i, exactly."""
    n = instance.n
    for i in range(n):
        if n * bundle_value(instance, i, allocation.bundles[i]) < total_value(instance, i):
            return False
    return True


def is_envy_free(instance: Instance, allocation: Allocation) -> bool:
    """No agent values another bundle above her own."""
    own = [bundle_value(instance, i, allocation.bundles[i]) for i in range(instance.n)]
    for i in range(instance.n):
        for j in range(instance.n):
            if i != j and own[i] < bundle_value(instance, i, allocation.bundles[j]):
                return False
    return True


def is_complete(instance: Instance, allocation: Allocation) -> bool:
    """True iff the bundles cover every vertex."""
    return sum(len(b) for b in allocation.bundles) == instance.m


def utilitarian_welfare(instance: Instance, allocation: Allocation) -> int:
    return sum(bundle_value(instance, i, allocation.bundles[i]) for i in range(instance.n))


def max_welfare_upper(instance: Instance) -> int:
    """Welfare of a best unconstrained allocation: each item to its top agent."""
    return sum(max(instance.values[i][z] for i in range(instance.n)) for z in range(instance.m))


# ---------------------------------------------------------------------------
# JSON interchange
#
# Canonical on-disk schema:
#   { "m": int, "edges": [[u, v], ...],
#     "agents": [ { "name": str?, "values": [int x m] }, ... ] }


def instance_to_dict(instance: Instance) -> dict:
    agents = []
    for i, row in enumerate(instance.values):
        entry: dict = {"values": list(row)}
        if instance.agent_names is not None:
            entry["name"] = instance.agent_names[i]
        agents.append(entry)
    return {
        "m": instance.m,
        "edges": sorted([u, v] for (u, v) in instance.edges),
        "agents": agents,
    }


def _json_int(x):
    """A number read from JSON: an integral float such as 2.0 is taken as the
    integer it equals.  Anything else is passed on as read, and `Instance`
    rejects it unless it is an int, so a fraction is never truncated."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    for key in ("m", "edges", "agents"):
        if key not in data:
            raise ValueError(f"instance JSON missing key {key!r}")
    agents = data["agents"]
    if not isinstance(agents, list) or not agents:
        raise ValueError("agents must be a non-empty list")
    edges = [
        [_json_int(z) for z in _json_list(e, "an edge")]
        for e in _json_list(data["edges"], "edges")
    ]
    values = []
    names = []
    named = False
    for entry in agents:
        if not isinstance(entry, dict) or "values" not in entry:
            raise ValueError("each agent needs a values row")
        values.append([_json_int(x) for x in _json_list(entry["values"], "values")])
        if "name" in entry:
            named = True
            names.append(entry["name"])
        else:
            names.append("")
    return Instance(
        _json_int(data["m"]),
        edges,
        values,
        agent_names=names if named else None,
    )


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
