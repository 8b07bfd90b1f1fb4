"""Treewidth dynamic program for annotated fair division, plus its drivers.

The DP sweeps a nice tree decomposition of an annotated instance bottom-up.
A state records, per agent: the bag vertices she owns (her hub always
included), a distance label f(z) in [0, beta] for each owned bag vertex, and
a rooted partition of those vertices into the connected components of a
witness forest; plus the full n x n matrix w of values agents assign to the
bundles built so far.  A state is stored iff some allocation of the swept
subgraph realizes it with labels no smaller than hub distances (below); the
root slice then lists exactly the achievable value
matrices of annotated allocations.  The drivers hand those matrices, tuple
by tuple, to the goal layer (`goals`), which answers every fairness goal
from them.

A label is a depth in the witness tree, which is at least the distance
inside the bundle and so at least the graph distance from the hub.  Vertex z
is therefore introduced for agent i only with labels
max(1, d_G(hub_i, z)) .. beta: a smaller label could never reach the root,
so leaving it out shrinks the tables and leaves the root slice unchanged.

State keys are nested tuples: per agent (S, f, blocks, roots) with S sorted,
f aligned to S, blocks sorted by first member, roots sorted; w is a flat
row-major tuple.  That canonical encoding makes states hashable and the
sweep deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .annotate import (
    AnnotatedInstance,
    build_annotated,
    build_annotated_instances,
    center_tuples,
    count_center_tuples,
    lift_allocation,
)
from .compactness import bfs_distances, induced_subgraph, is_annotated
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
    instance_from_dict,
    instance_to_dict,
    total_value,
)
from . import goals as goal_layer
from .oracle import BudgetExceededError
from .treewidth import (
    NiceTreeDecomposition,
    NodeKind,
    TreeDecomposition,
    greedy_decompose,
    nicefy,
)

AgentState = tuple  # (S, f, blocks, roots)
StateKey = tuple  # (agents, w)


# ---------------------------------------------------------------------------
# rooted partitions


def _block_of(blocks: tuple, z: int) -> tuple:
    for blk in blocks:
        if z in blk:
            return blk
    raise KeyError(z)


def _sort_blocks(blocks: Iterable[tuple]) -> tuple:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _join_partition(s: tuple, blocks1: tuple, blocks2: tuple) -> tuple:
    """Finest common coarsening of two partitions of s (lattice join)."""
    parent = {v: v for v in s}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for blocks in (blocks1, blocks2):
        for blk in blocks:
            for v in blk[1:]:
                union(blk[0], v)
    groups: dict[int, list[int]] = {}
    for v in s:
        groups.setdefault(find(v), []).append(v)
    return _sort_blocks(groups.values())


def acyclic_join(
    s: tuple, blocks1: tuple, roots1: tuple, blocks2: tuple, roots2: tuple
) -> Optional[tuple[tuple, tuple]]:
    """Acyclic join of two rooted partitions of s, or None.

    Any graphical representation of a partition is a forest with |s| - #blocks
    edges, so the merge of two representations is acyclic iff the joined
    partition has |blocks1| + |blocks2| - |s| blocks.  The joined roots are
    the common roots; each block must end up with exactly one.
    """
    joined = _join_partition(s, blocks1, blocks2)
    if len(joined) != len(blocks1) + len(blocks2) - len(s):
        return None
    roots = tuple(sorted(set(roots1) & set(roots2)))
    for blk in joined:
        if sum(1 for r in roots if r in blk) != 1:
            return None
    return joined, roots


# ---------------------------------------------------------------------------
# transitions


@dataclass
class DPContext:
    """Precomputed facts shared by all transitions of one DP run."""

    ann: AnnotatedInstance
    complete: bool

    def __post_init__(self):
        inst = self.ann.instance
        self.n = inst.n
        self.values = inst.values
        self.beta = self.ann.beta
        self.hubs = self.ann.hubs
        graph = inst.graph()
        # per hub: graph distance to every vertex within beta of it
        self.hub_dist = [
            {v: d for v, d in bfs_distances(graph, h).items() if d <= self.beta}
            for h in self.hubs
        ]
        self.wmax = max(total_value(inst, i) for i in range(inst.n))


def leaf_states(ctx: DPContext) -> dict[StateKey, tuple]:
    """The single reachable state at a leaf: each hub alone in its bundle."""
    n = ctx.n
    agents = tuple(
        ((ctx.hubs[i],), (0,), ((ctx.hubs[i],),), (ctx.hubs[i],)) for i in range(n)
    )
    w = tuple(ctx.values[i][ctx.hubs[j]] for i in range(n) for j in range(n))
    return {(agents, w): ("leaf",)}


def introduce_vertex_transition(
    child: dict[StateKey, tuple], z: int, ctx: DPContext
) -> dict[StateKey, tuple]:
    n = ctx.n
    out: dict[StateKey, tuple] = {}
    for state in child:
        if not ctx.complete:
            out.setdefault(state, ("skip", state))
        agents, w = state
        for i in range(n):
            dist = ctx.hub_dist[i].get(z)
            if dist is None:
                continue
            s_i, f_i, blocks, roots = agents[i]
            new_s = tuple(sorted(s_i + (z,)))
            pos = new_s.index(z)
            new_blocks = _sort_blocks(blocks + ((z,),))
            new_roots = tuple(sorted(roots + (z,)))
            neww = list(w)
            for p in range(n):
                neww[p * n + i] += ctx.values[p][z]
            for fv in range(max(1, dist), ctx.beta + 1):
                new_f = f_i[:pos] + (fv,) + f_i[pos:]
                new_agents = (
                    agents[:i]
                    + ((new_s, new_f, new_blocks, new_roots),)
                    + agents[i + 1 :]
                )
                out.setdefault((new_agents, tuple(neww)), ("take", state, i, z))
    return out


def forget_transition(
    child: dict[StateKey, tuple], z: int, ctx: DPContext
) -> dict[StateKey, tuple]:
    out: dict[StateKey, tuple] = {}
    for state in child:
        agents, w = state
        owner = None
        for i, (s_i, _f, _b, _r) in enumerate(agents):
            if z in s_i:
                owner = i
                break
        if owner is None:
            out.setdefault(state, ("fwd", state))
            continue
        s_i, f_i, blocks, roots = agents[owner]
        if z in roots:
            continue  # the component would lose its distance anchor
        blk = _block_of(blocks, z)
        if len(blk) == 1:
            continue  # a component may never lose its last bag vertex
        pos = s_i.index(z)
        new_s = s_i[:pos] + s_i[pos + 1 :]
        new_f = f_i[:pos] + f_i[pos + 1 :]
        new_blocks = _sort_blocks(
            [tuple(v for v in b if v != z) if b is blk else b for b in blocks]
        )
        new_agents = (
            agents[:owner] + ((new_s, new_f, new_blocks, roots),) + agents[owner + 1 :]
        )
        out.setdefault((new_agents, w), ("fwd", state))
    return out


def introduce_edge_transition(
    child: dict[StateKey, tuple], edge: tuple[int, int], ctx: DPContext
) -> dict[StateKey, tuple]:
    z1, z2 = edge
    out: dict[StateKey, tuple] = {}
    for state in child:
        out.setdefault(state, ("fwd", state))
        agents, w = state
        for i, (s_i, f_i, blocks, roots) in enumerate(agents):
            if z1 not in s_i or z2 not in s_i:
                continue
            f1, f2 = f_i[s_i.index(z1)], f_i[s_i.index(z2)]
            if abs(f1 - f2) != 1:
                break
            low, high = (z1, z2) if f1 < f2 else (z2, z1)
            if high not in roots:
                break
            blk_low = _block_of(blocks, low)
            blk_high = _block_of(blocks, high)
            if blk_low is blk_high:
                break
            merged = tuple(sorted(blk_low + blk_high))
            new_blocks = _sort_blocks(
                [merged] + [b for b in blocks if b is not blk_low and b is not blk_high]
            )
            new_roots = tuple(r for r in roots if r != high)
            new_agents = (
                agents[:i] + ((s_i, f_i, new_blocks, new_roots),) + agents[i + 1 :]
            )
            out.setdefault((new_agents, w), ("fwd", state))
            break  # the endpoints belong to at most one common agent
    return out


def join_transition(
    left: dict[StateKey, tuple],
    right: dict[StateKey, tuple],
    bag: frozenset[int],
    ctx: DPContext,
) -> dict[StateKey, tuple]:
    n = ctx.n
    # states grouped by each agent's (S, f), the part both sides must share
    buckets_l: dict[tuple, list[StateKey]] = {}
    buckets_r: dict[tuple, list[StateKey]] = {}
    for buckets, table in ((buckets_l, left), (buckets_r, right)):
        for state in table:
            buckets.setdefault(tuple((ag[0], ag[1]) for ag in state[0]), []).append(state)
    # value of each agent's shared bag vertices, subtracted from the summed w
    out: dict[StateKey, tuple] = {}
    for key in (k for k in buckets_l if k in buckets_r):
        overlap = [
            [sum(ctx.values[i][z] for z in key[j][0]) for j in range(n)]
            for i in range(n)
        ]
        for ls in buckets_l[key]:
            for rs in buckets_r[key]:
                joined_agents = []
                ok = True
                for i in range(n):
                    s_i, f_i = key[i]
                    got = acyclic_join(
                        s_i, ls[0][i][2], ls[0][i][3], rs[0][i][2], rs[0][i][3]
                    )
                    if got is None:
                        ok = False
                        break
                    joined_agents.append((s_i, f_i, got[0], got[1]))
                if not ok:
                    continue
                w = tuple(
                    ls[1][i * n + j] + rs[1][i * n + j] - overlap[i][j]
                    for i in range(n)
                    for j in range(n)
                )
                out.setdefault((tuple(joined_agents), w), ("join", ls, rs))
    return out


# ---------------------------------------------------------------------------
# the sweep


def _state_guard(bag_size: int, count: int, ctx: DPContext) -> None:
    n, beta, wmax = ctx.n, ctx.beta, ctx.wmax
    bound = (
        (n + 1) ** bag_size
        * (n + 1) ** bag_size
        * max(bag_size, 1) ** bag_size
        * (beta + 1) ** bag_size
        * (wmax + 1) ** (n * n)
    )
    if count > bound:
        raise RuntimeError(
            f"state table holds {count} entries, above the ceiling {bound}"
        )


@dataclass
class RootTable:
    """Per-node reachable-state maps; the root slice answers all queries."""

    ann: AnnotatedInstance
    nice: NiceTreeDecomposition
    ctx: DPContext
    tables: list[dict[StateKey, tuple]]

    def root_slice(self) -> dict[StateKey, tuple]:
        return self.tables[self.nice.root]

    def root_weights(self) -> set[tuple[int, ...]]:
        """Flat row-major value matrices achievable by annotated allocations."""
        return {state[1] for state in self.root_slice()}

    def root_state_for(self, w: tuple[int, ...]) -> StateKey:
        for state in self.root_slice():
            if state[1] == w:
                return state
        raise KeyError(w)

    def extract(self, root_state: StateKey) -> Allocation:
        """Witness allocation (annotated vertex ids, hubs included) for a
        reachable root state, re-validated before returning."""
        n = self.ctx.n
        assigned: dict[int, int] = {}
        stack = [(self.nice.root, root_state)]
        while stack:
            node_id, state = stack.pop()
            ref = self.tables[node_id][state]
            node = self.nice.nodes[node_id]
            kind = ref[0]
            if kind == "leaf":
                continue
            if kind in ("skip", "fwd"):
                stack.append((node.children[0], ref[1]))
            elif kind == "take":
                _, child_state, agent, vertex = ref
                prev = assigned.get(vertex)
                if prev is not None and prev != agent:
                    raise RuntimeError("witness reconstruction assigned a vertex twice")
                assigned[vertex] = agent
                stack.append((node.children[0], child_state))
            else:  # join
                stack.append((node.children[0], ref[1]))
                stack.append((node.children[1], ref[2]))
        bundles = [set([self.ctx.hubs[i]]) for i in range(n)]
        for vertex, agent in assigned.items():
            bundles[agent].add(vertex)
        alloc = Allocation(tuple(frozenset(b) for b in bundles))
        graph = self.ann.instance.graph()
        w = root_state[1]
        for i in range(n):
            sub = induced_subgraph(graph, alloc.bundles[i])
            if not is_annotated(sub, self.ctx.hubs[i], self.ctx.beta):
                raise RuntimeError(f"extracted bundle {i} is not hub-centred")
            for p in range(n):
                got = sum(self.ctx.values[p][z] for z in alloc.bundles[i])
                if got != w[p * n + i]:
                    raise RuntimeError("extracted values disagree with the root state")
        return alloc


def run_dp(
    ann: AnnotatedInstance, nice: NiceTreeDecomposition, complete: bool = False
) -> RootTable:
    """Bottom-up sweep over the nice decomposition.

    With `complete` set, introduce-vertex nodes lose their "leave it
    unallocated" branch, so only complete allocations of the annotated
    instance survive.
    """
    if frozenset(ann.hubs) != nice.anchors:
        raise ValueError("decomposition anchors must be the hub vertices")
    ctx = DPContext(ann, complete)
    tables: list[dict[StateKey, tuple]] = []
    for node in nice.nodes:
        if node.kind is NodeKind.LEAF:
            table = leaf_states(ctx)
        elif node.kind is NodeKind.INTRODUCE_VERTEX:
            table = introduce_vertex_transition(tables[node.children[0]], node.vertex, ctx)
        elif node.kind is NodeKind.FORGET:
            table = forget_transition(tables[node.children[0]], node.vertex, ctx)
        elif node.kind is NodeKind.INTRODUCE_EDGE:
            table = introduce_edge_transition(tables[node.children[0]], node.edge, ctx)
        else:
            table = join_transition(
                tables[node.children[0]], tables[node.children[1]], node.bag, ctx
            )
        _state_guard(len(node.bag), len(table), ctx)
        tables.append(table)
    return RootTable(ann, nice, ctx, tables)


# ---------------------------------------------------------------------------
# drivers


def _nice_for(ann: AnnotatedInstance, base_td: Optional[TreeDecomposition]) -> NiceTreeDecomposition:
    """Nice decomposition of the annotated graph, from a decomposition of the
    base graph when one is supplied (bags restricted to surviving vertices;
    hub edges are covered because hubs are pinned into every bag)."""
    graph = ann.instance.graph()
    if base_td is None:
        td = greedy_decompose(graph)
    else:
        index_of = {orig: k for k, orig in enumerate(ann.kept)}
        bags = tuple(
            frozenset(index_of[v] for v in bag if v in index_of) for bag in base_td.bags
        )
        td = TreeDecomposition(bags, base_td.edges)
    return nicefy(td, graph, anchors=ann.hubs)


def _check_input(instance: Instance, spec: CompactnessSpec, max_tuples: Optional[int]):
    if spec.strong:
        raise ValueError("no annotated reduction for the strongly compact class")
    if max_tuples is not None:
        count = count_center_tuples(instance.m, spec.alpha, instance.n)
        if count > max_tuples:
            raise BudgetExceededError(
                f"{count} annotated instances exceed the budget of {max_tuples}"
            )


def _tau_worker(payload) -> list[tuple[int, ...]]:
    """Root weight matrices for one center tuple (multiprocessing entry)."""
    data, beta, centers, complete = payload
    instance = instance_from_dict(data)
    ann = build_annotated(instance, tuple(frozenset(c) for c in centers), beta)
    if complete and not ann.prunes_nothing:
        return []
    table = run_dp(ann, _nice_for(ann, None), complete=complete)
    return sorted(table.root_weights())


def _witness(
    instance: Instance,
    spec: CompactnessSpec,
    centers,
    w: tuple[int, ...],
    complete: bool,
    base_td: Optional[TreeDecomposition],
) -> Allocation:
    ann = build_annotated(instance, centers, spec.beta)
    table = run_dp(ann, _nice_for(ann, base_td), complete=complete)
    return lift_allocation(ann, table.extract(table.root_state_for(w)))


class _TupleSource:
    """Candidates for the goal layer: the root matrices of the annotated
    instances, tuple by tuple and sorted within a tuple, keyed by
    (centers, complete).  Under a complete goal, tuples whose pruning drops
    a vertex are skipped (a dropped vertex can never be allocated).

    The witness for the tuple being read comes off its live table; any other
    key, and any key of a pooled sweep (jobs > 1), re-runs its tuple's DP
    (`_witness`).  A tuple's tables are dropped once its matrices are read,
    so a full pass (mms) holds one tuple's tables at a time.
    """

    def __init__(self, instance, spec, td, jobs):
        self.instance, self.spec, self.td, self.jobs = instance, spec, td, jobs
        self._live = None  # (key, table) of the tuple being read

    def candidates(self, complete: bool):
        if self.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            tuples = list(center_tuples(self.instance, self.spec.alpha))
            data = instance_to_dict(self.instance)
            payloads = [
                (data, self.spec.beta, [sorted(c) for c in centers], complete)
                for centers in tuples
            ]
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                for centers, weights in zip(tuples, pool.map(_tau_worker, payloads)):
                    for w in weights:
                        yield w, (centers, complete)
            return
        for ann in build_annotated_instances(self.instance, self.spec):
            if complete and not ann.prunes_nothing:
                continue
            table = run_dp(ann, _nice_for(ann, self.td), complete=complete)
            key = (ann.centers, complete)
            self._live = (key, table)
            for w in sorted(table.root_weights()):
                yield w, key
            self._live = None

    def witness(self, key, w: tuple[int, ...]) -> Allocation:
        if self._live is not None and self._live[0] == key:
            table = self._live[1]
            return lift_allocation(table.ann, table.extract(table.root_state_for(w)))
        centers, complete = key
        return _witness(self.instance, self.spec, centers, w, complete, self.td)


def mms_tw_all(
    instance: Instance,
    spec: CompactnessSpec,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
) -> list[int]:
    """Maximin share of every agent, from one pass over the annotated instances."""
    _check_input(instance, spec, max_tuples)
    source = _TupleSource(instance, spec, td, 1)
    return goal_layer.maximin(instance, source.candidates(False))[1]


def mms_tw(
    instance: Instance,
    spec: CompactnessSpec,
    agent: int,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
) -> int:
    """Maximin share over the compact class: max over annotated instances and
    reachable root matrices of the agent's worst bundle value."""
    if not (0 <= agent < instance.n):
        raise ValueError(f"agent {agent} out of range")
    return mms_tw_all(instance, spec, td, max_tuples)[agent]


def answer_tw(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
    jobs: int = 1,
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """Annotated-reduction driver: the allocation the goal layer finds in the
    root slices of the per-tuple DPs (None if there is none), and for mms
    every agent's maximin share from the same pass (None for other goals).

    ef-po is answered by the exhaustive oracle; Pareto-optimality is not a
    function of the DP state, so this route is desk scale only.
    """
    if goal is FairnessGoal.EF_PARETO:
        _check_input(instance, spec, None)
        from .oracle import solve_oracle

        return solve_oracle(instance, spec, goal), None
    _check_input(instance, spec, max_tuples)
    source = _TupleSource(instance, spec, td, jobs)
    return goal_layer.solve(instance, goal, source.candidates, source.witness)


def solve_tw(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
    jobs: int = 1,
) -> Optional[Allocation]:
    """The allocation `answer_tw` finds for the goal, or None."""
    return answer_tw(instance, spec, goal, td, max_tuples, jobs)[0]


def solve_tw_goals(
    instance: Instance,
    spec: CompactnessSpec,
    goals: Iterable[FairnessGoal],
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
) -> dict[FairnessGoal, Optional[Allocation]]:
    """Answer several goals from shared DP passes.

    All goals except ef-complete read the same unrestricted candidates, so
    one sweep over the annotated instances serves them all; ef-complete gets
    its own completeness-restricted sweep.  Witnesses of the shared sweep
    re-run the single winning instance.
    """
    goals = list(goals)
    if FairnessGoal.EF_PARETO in goals:
        raise ValueError("ef-po is answered by the oracle, not the DP")
    _check_input(instance, spec, max_tuples)
    source = _TupleSource(instance, spec, td, 1)
    open_goals = set(goals) - {FairnessGoal.EF_COMPLETE}
    shared = list(source.candidates(False)) if open_goals else []

    def candidates(complete):
        return source.candidates(True) if complete else shared

    return {
        goal: goal_layer.solve(instance, goal, candidates, source.witness)[0] for goal in goals
    }
