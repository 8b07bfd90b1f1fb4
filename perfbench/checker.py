"""Reference answers and the response checker.

References are computed outside the timed region, once per instance and
spec, by folding the compact allocations into which goals have a witness
and every agent's maximin share.  The allocations come from this module's
own oracle-style walk over the (n+1)^m assignments of items to agents, with
every bundle decided by its own compactness search.  The enum solver's
ball-union enumeration, which decides compactness with the program's
recognisers, must yield exactly the same allocations, so a recogniser that
wrongly rejects or accepts a bundle shows as a disagreement instead of
moving the reference along with the answers.

A printed "yes" is then certified on its own terms: well-formed bundles,
printed values equal to the recomputed ones, every bundle (strongly)
compact by this module's own search, and the goal holding in exact
integers.  Nothing here reuses a solver's goal logic.
"""
from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Reference:
    """Which goals admit a compact witness, and each agent's maximin share."""

    exists: tuple[tuple[str, bool], ...]
    mms: tuple[int, ...]

    def has(self, goal: str) -> bool:
        return dict(self.exists)[goal]


def welfare_target(values: list[list[int]]) -> int:
    """Welfare of giving every item to an agent who values it most."""
    return sum(max(col) for col in zip(*values))


def goal_holds(goal: str, mat, totals, target: int, complete: bool) -> bool:
    """prop, welfare or ef-complete, in exact integers, for an allocation
    whose value matrix is mat[i][j] = agent i's value for bundle j."""
    n = len(mat)
    own = [mat[i][i] for i in range(n)]
    if goal == "prop":
        return all(n * own[i] >= totals[i] for i in range(n))
    if goal == "welfare":
        return sum(own) == target
    if goal == "ef-complete":
        return complete and all(own[i] >= mat[i][j] for i in range(n) for j in range(n))
    raise ValueError(f"unknown goal {goal}")


GOAL_FAILURES = {  # the goals goal_holds decides, and why a "yes" fails one
    "prop": "allocation is not proportional",
    "welfare": "welfare is below the unconstrained optimum",
    "ef-complete": "allocation is not complete and envy-free",
}


class Fold:
    """Folds a stream of compact allocations, each a tuple of bundles as bit
    masks over the items, into a Reference."""

    def __init__(self, values: list[list[int]], m: int, worth: dict):
        self.values, self.full, self.n = values, (1 << m) - 1, len(values)
        self.worth = worth  # bundle mask -> its value to each agent, shared across folds
        self.totals = [sum(row) for row in values]
        self.target = welfare_target(values)
        self.best = [0] * self.n
        self.own_vectors: set[tuple[int, ...]] = set()
        self.found = dict.fromkeys(GOAL_FAILURES, False)

    def add(self, masks) -> None:
        n = self.n
        cols = []
        covered = 0
        for b in masks:
            col = self.worth.get(b)
            if col is None:
                items = [z for z in range(b.bit_length()) if b >> z & 1]
                col = self.worth[b] = tuple(sum(row[z] for z in items) for row in self.values)
            cols.append(col)
            covered |= b
        mat = [[col[i] for col in cols] for i in range(n)]
        self.own_vectors.add(tuple(mat[i][i] for i in range(n)))
        for i in range(n):
            worst = min(mat[i])
            if worst > self.best[i]:
                self.best[i] = worst
        complete = covered == self.full
        for goal, found in self.found.items():
            if not found and goal_holds(goal, mat, self.totals, self.target, complete):
                self.found[goal] = True

    def result(self) -> Reference:
        best = self.best
        mms = any(all(v[i] >= best[i] for i in range(self.n)) for v in self.own_vectors)
        found = self.found
        exists = (("prop", found["prop"]), ("mms", mms), ("welfare", found["welfare"]),
                  ("ef-complete", found["ef-complete"]))
        return Reference(exists, tuple(best))


def references(data: dict, specs) -> dict[tuple, Reference]:
    """Oracle references for one instance under each (alpha, beta, strong)
    spec.  Raises ValueError when the enum solver's compact allocations
    differ from the oracle walk's."""
    from compactfd import enum_solver
    from compactfd.model import CompactnessSpec, instance_from_dict

    instance = instance_from_dict(data)
    m, n = instance.m, instance.n
    values = [list(row) for row in instance.values]
    adj = _adjacency(m, data["edges"])
    worth: dict = {}
    out = {}
    for key in specs:
        compact = [
            bundle_is_compact(adj, frozenset(z for z in range(m) if mask >> z & 1), *key)
            for mask in range(1 << m)
        ]
        from_oracle = set(_compact_assignments(n, (1 << m) - 1, compact))
        from_enum = {
            tuple(sum(1 << z for z in b) for b in alloc.bundles)
            for alloc in enum_solver.enumerate_compact_allocations(instance, CompactnessSpec(*key))
        }
        if from_oracle != from_enum:
            raise ValueError(
                f"oracle and enum disagree on {key}: {len(from_oracle - from_enum)} allocations "
                f"only in the oracle's, {len(from_enum - from_oracle)} only in enum's"
            )
        fold = Fold(values, m, worth)
        for masks in from_oracle:
            fold.add(masks)
        out[key] = fold.result()
    return out


def _compact_assignments(n: int, free: int, compact: list[bool], chosen: tuple = ()):
    """Walk the (n+1)^m assignments of the items in `free` to n agents or to
    no one, agent by agent, and yield those whose bundles (bit masks) are all
    compact; a branch stops at its first non-compact bundle."""
    if len(chosen) == n:
        yield chosen
        return
    sub = free
    while True:  # every subset of the items still free, as this agent's bundle
        if compact[sub]:
            yield from _compact_assignments(n, free & ~sub, compact, chosen + (sub,))
        if not sub:
            return
        sub = (sub - 1) & free


# ---------------------------------------------------------------------------
# independent certification of a printed allocation


def _adjacency(m: int, edges: list) -> list[set[int]]:
    adj = [set() for _ in range(m)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _distances_within(adj: list[set[int]], bundle: frozenset[int], src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in bundle and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bundle_is_compact(
    adj: list[set[int]], bundle: frozenset[int], alpha: int, beta: int, strong: bool
) -> bool:
    """Distances are taken inside the bundle's induced subgraph.

    Plain: at most alpha centers whose radius-beta balls cover the bundle.
    Strong: a partition into at most alpha groups of pairwise distance <= beta.
    """
    if not bundle:
        return True
    verts = sorted(bundle)
    dist: dict[int, dict[int, int]] = {}
    reached: set[int] = set()
    parts = 0  # each component of the bundle needs a center, or a group, of its own
    for v in verts:
        dist[v] = _distances_within(adj, bundle, v)
        if v not in reached:
            parts += 1
            if parts > alpha:
                return False
            reached |= dist[v].keys()
    if not strong:
        for size in range(1, alpha + 1):
            for centers in itertools.combinations(verts, size):
                if all(any(dist[c].get(v, beta + 1) <= beta for c in centers) for v in verts):
                    return True
        return False
    groups: list[list[int]] = []

    def place(k: int) -> bool:
        if k == len(verts):
            return True
        v = verts[k]
        for g in groups:
            if all(dist[v].get(w, beta + 1) <= beta for w in g):
                g.append(v)
                if place(k + 1):
                    return True
                g.pop()
        if len(groups) < alpha:
            groups.append([v])
            if place(k + 1):
                return True
            groups.pop()
        return False

    return place(0)


def check_response(
    data: dict,
    goal: str,
    alpha: int,
    beta: int,
    strong: bool,
    ref: Reference,
    exit_code: Optional[int],
    stdout: str,
) -> Optional[str]:
    """None when the response is right; otherwise the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"stdout is not one JSON object: {stdout[:80]!r}"
    if not isinstance(out, dict) or out.get("answer") not in ("yes", "no"):
        return f"no yes/no answer: {stdout[:80]!r}"
    expected = ref.has(goal)
    if out["answer"] == "no":
        return "answered no, the reference has a witness" if expected else None
    if not expected:
        return "answered yes, the reference has no witness"
    return certify(data, goal, alpha, beta, strong, ref, out)


def certify(
    data: dict, goal: str, alpha: int, beta: int, strong: bool, ref: Reference, out: dict
) -> Optional[str]:
    """Check a printed "yes": compactness first, then the goal."""
    m = data["m"]
    values = [agent["values"] for agent in data["agents"]]
    n = len(values)
    raw = out.get("bundles")
    if not isinstance(raw, list) or len(raw) != n:
        return "bundles missing or of the wrong count"
    bundles = []
    seen: set[int] = set()
    for b in raw:
        if not isinstance(b, list) or not all(isinstance(z, int) and 0 <= z < m for z in b):
            return "a bundle holds a vertex out of range"
        fb = frozenset(b)
        if len(fb) != len(b) or fb & seen:
            return "bundles overlap"
        seen |= fb
        bundles.append(fb)
    mat = [[sum(row[z] for z in b) for b in bundles] for row in values]
    if out.get("values") != mat:
        return "printed values differ from the bundles' values"
    adj = _adjacency(m, data["edges"])
    for i, b in enumerate(bundles):
        if not bundle_is_compact(adj, b, alpha, beta, strong):
            return f"bundle {i} is not compact"
    if goal == "mms":
        if out.get("mms") != list(ref.mms):
            return f"printed mms {out.get('mms')} differs from the reference {list(ref.mms)}"
        if not all(mat[i][i] >= ref.mms[i] for i in range(n)):
            return "an agent gets less than its maximin share"
    elif goal in GOAL_FAILURES:
        totals = [sum(row) for row in values]
        if not goal_holds(goal, mat, totals, welfare_target(values), len(seen) == m):
            return GOAL_FAILURES[goal]
    else:
        return f"unknown goal {goal}"
    return None
