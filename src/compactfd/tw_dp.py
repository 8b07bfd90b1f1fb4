"""Treewidth dynamic program for annotated fair division, plus its drivers.

The DP sweeps a nice tree decomposition of an annotated instance bottom-up.
A state records, per agent: the bag vertices she owns (her hub always
included), a distance label f(z) in [0, beta] for each owned bag vertex, and
a rooted partition of those vertices into the connected components of a
witness forest; plus the full n x n matrix w of values agents assign to the
forgotten part of each bundle built so far.  A state is stored iff some
allocation of the swept subgraph realizes it with labels no smaller than hub
distances (below); the root slice then lists exactly the achievable value
matrices of annotated allocations.

A vertex's values enter w once, when it is forgotten, in its owner's column.
Bag vertices are not yet counted, so the two sides of a join never both
count a vertex and a join simply adds their w.  The root bag holds only the
hubs, which are zero-valued and never forgotten, so at the root w is the
value matrix of the whole bundles.  The drivers hand the goal layer
(`goals`) those matrices as one group per center tuple, with the tuple's
ball bound; the goal layer opens the groups in the order its goal needs, and
a tuple it never opens is never annotated (`_TupleSource`), nor is a tuple
whose balls miss a vertex under a complete goal.  Every tuple's nice
decomposition restricts one decomposition of the base graph, made at most
once per request.  The tuples are swept serially, at most once per source;
every goal, ef-po included, gets its own goal-layer pass with its own bounds
and order (`solve_tw_goals` runs those passes over one shared source).

A label is a depth in the witness tree, which is at least the distance
inside the bundle and so at least the graph distance from the hub.  It is
also at most m, the base item count, since a tree path from the hub passes
through at most m base items.  Vertex z is therefore introduced for agent i
only with labels max(1, d_G(hub_i, z)) .. min(beta, m), beta the annotated
radius: a label outside that range could never reach the root, so leaving
it out shrinks the tables, bounds them whatever beta is, and leaves the root
slice unchanged.

State keys are nested tuples: per agent (S, f, r) with S sorted and f and r
aligned to S, where r[k] is the root of the witness component holding S[k],
so a root is its own entry; w is a flat row-major tuple.  The root map is
the whole rooted partition (Cygan et al., Parameterized Algorithms, 2015,
ch. 7), so every transition is a tuple edit: a take inserts z as its own
root, a forget cuts a vertex that is no root, an edge relabels the upper
end's block to the lower end's root, and a join merges two root maps
(`acyclic_join`).  The encoding is canonical, so states are hashable and the
sweep deterministic.

Every table maps a state to its first predecessor in child order: None at
a leaf, the child state at a unary node, the (left, right) pair at a join.
The witness is read back along them (`RootTable.extract`).  The states of
one node differ mostly in w, so one driver (`_unary`) runs every unary
transition: it lists the bag-local moves (new agent tuple, value column) of
each distinct agent tuple of its input once and then only adds up w per
state; a join memoises its per-agent joins likewise.  The memos live for one
transition call and leave every table and its order as they were.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Iterable, Optional

from .annotate import (
    AnnotatedInstance,
    build_annotated,
    center_tuples,
    count_center_tuples,
    lift_allocation,
)
from .compactness import ball, bfs_distances, induced_subgraph, is_annotated
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
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

StateKey = tuple  # (agents, w)
Table = dict  # StateKey -> its first predecessor in child order
_UNSEEN = object()  # memo miss, where None is a memoised answer


# ---------------------------------------------------------------------------
# rooted partitions


def acyclic_join(s: tuple, r1: tuple, r2: tuple) -> Optional[tuple]:
    """Acyclic join of two rooted partitions of s, or None.

    A rooted partition is a root map aligned with s: r[k] is the root of the
    block holding s[k].  Joining each vertex to its root on both sides merges
    two forests, which must stay acyclic.  The joined roots are the common
    roots, and each joined block must hold exactly one; the result is the
    joined root map.  An acyclic merge has |R1| + |R2| - |s| blocks, no more
    than the common roots, so a join without a block holding two of them
    gives every block exactly one.
    """
    parent = dict(zip(s, s))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in (r1, r2):
        for v, root in zip(s, r):
            if v != root:
                a, b = find(v), find(root)
                if a == b:
                    return None  # the merged forests close a cycle
                parent[a] = b
    root_of = {}
    for v, a, b in zip(s, r1, r2):
        if v == a == b and root_of.setdefault(find(v), v) != v:
            return None  # a joined block with two roots
    return tuple(root_of[find(v)] for v in s)


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
        self.beta = min(self.ann.beta, self.ann.base.m)  # the largest label
        self.hubs = self.ann.hubs
        graph = inst.graph()
        # per hub: graph distance to every vertex within beta of it
        self.hub_dist = [
            {v: d for v, d in bfs_distances(graph, h).items() if d <= self.beta}
            for h in self.hubs
        ]
        self.wmax = max(total_value(inst, i) for i in range(inst.n))
        self.ceilings: dict[int, int] = {}  # state ceiling per bag size (_state_guard)


def leaf_states(ctx: DPContext) -> Table:
    """The single reachable state at a leaf: each hub alone in its bundle,
    nothing forgotten yet.  It has no predecessor."""
    n = ctx.n
    agents = tuple(((ctx.hubs[i],), (0,), (ctx.hubs[i],)) for i in range(n))
    return {(agents, (0,) * (n * n)): None}


def _unary(child: Table, local) -> Table:
    """One unary transition: `local(agents)`, a bag-local helper with its
    node's arguments bound, lists the moves of an agent tuple as (new agents,
    value column added to w or None), once per distinct agent tuple; each
    child state then makes one state per move, mapped first-wins to that
    child state."""
    moves_of: dict[tuple, list] = {}
    out: Table = {}
    for state in child:
        agents, w = state
        moves = moves_of.get(agents)
        if moves is None:
            moves = moves_of[agents] = local(agents)
        for new_agents, column in moves:
            out.setdefault((new_agents, w if column is None else tuple(map(add, w, column))), state)
    return out


def _take_vertex(z: int, movers: list, complete: bool, agents: tuple) -> list:
    """Bag-local part of introducing z: z left out (unless `complete`), then
    per agent i that may take it the agent tuple for each label it may get,
    in label order.  z comes in as the root of its own block, and w counts
    it only once it is forgotten."""
    moves = [] if complete else [(agents, None)]
    for i, labels in movers:
        s_i, f_i, r_i = agents[i]
        pos = bisect(s_i, z)
        new_s = s_i[:pos] + (z,) + s_i[pos:]
        new_r = r_i[:pos] + (z,) + r_i[pos:]
        head, tail = agents[:i], agents[i + 1 :]
        moves += [
            (head + ((new_s, f_i[:pos] + (fv,) + f_i[pos:], new_r),) + tail, None)
            for fv in labels
        ]
    return moves


def introduce_vertex_transition(child: Table, z: int, ctx: DPContext) -> Table:
    # per agent that may take z: the labels it may get
    movers = []
    for i in range(ctx.n):
        dist = ctx.hub_dist[i].get(z)
        labels = range(max(1, dist), ctx.beta + 1) if dist is not None else ()
        if labels:
            movers.append((i, labels))
    return _unary(child, partial(_take_vertex, z, movers, ctx.complete))


def _forget_vertex(z: int, columns: list, agents: tuple) -> list:
    """Bag-local part of forgetting z: the new agent tuple with the value
    column z adds to w (its owner's entry of `columns`, None when z is
    unallocated), or nothing when z is its component's root.  A vertex alone
    in its block is that block's root, so a component never loses its last
    bag vertex either."""
    for owner, (s_i, f_i, r_i) in enumerate(agents):
        if z in s_i:
            break
    else:
        return [(agents, None)]
    pos = s_i.index(z)
    if r_i[pos] == z:
        return []  # the component would lose its distance anchor
    cut = (s_i[:pos] + s_i[pos + 1 :], f_i[:pos] + f_i[pos + 1 :], r_i[:pos] + r_i[pos + 1 :])
    return [(agents[:owner] + (cut,) + agents[owner + 1 :], columns[owner])]


def forget_transition(child: Table, z: int, ctx: DPContext) -> Table:
    n = ctx.n
    # per owner i: z's values, in column i of the flat row-major w
    columns = [
        tuple(ctx.values[p][z] if j == i else 0 for p in range(n) for j in range(n))
        for i in range(n)
    ]
    return _unary(child, partial(_forget_vertex, z, columns))


def _add_edge(z1: int, z2: int, agents: tuple) -> list:
    """Bag-local part of introducing edge z1-z2: the agent tuple as it is,
    then with the edge in the witness forest of the agent owning both ends
    if that agent can use it.  The upper end must be its own root; its block
    joins the lower end's, whose root roots the merged block.  A root
    carries its block's least label, so the lower end is never in the upper
    end's block."""
    moves = [(agents, None)]
    for i, (s_i, f_i, r_i) in enumerate(agents):
        if z1 not in s_i or z2 not in s_i:
            continue
        k1, k2 = s_i.index(z1), s_i.index(z2)
        low, high = (k1, k2) if f_i[k1] < f_i[k2] else (k2, k1)
        top, root = s_i[high], r_i[low]
        if f_i[high] - f_i[low] == 1 and r_i[high] == top:
            new_r = tuple(root if r == top else r for r in r_i)
            moves.append((agents[:i] + ((s_i, f_i, new_r),) + agents[i + 1 :], None))
        break  # the endpoints belong to at most one common agent
    return moves


def introduce_edge_transition(child: Table, edge: tuple[int, int], ctx: DPContext) -> Table:
    return _unary(child, partial(_add_edge, *edge))


def _join_agents(key: tuple, left: tuple, right: tuple, memo: dict) -> Optional[tuple]:
    """Bag-local part of a join: per agent the acyclic join of the two rooted
    partitions, or None if some agent's join has a cycle or a bad root.
    `memo` holds the per-agent joins already computed in this transition."""
    joined = []
    for (s_i, f_i), agent_l, agent_r in zip(key, left, right):
        got = memo.get((agent_l, agent_r), _UNSEEN)
        if got is _UNSEEN:
            r = acyclic_join(s_i, agent_l[2], agent_r[2])
            got = memo[(agent_l, agent_r)] = None if r is None else (s_i, f_i, r)
        if got is None:
            return None
        joined.append(got)
    return tuple(joined)


def join_transition(left: Table, right: Table, bag: frozenset[int], ctx: DPContext) -> Table:
    # states grouped by each agent's (S, f), the part both sides must share
    buckets_l: dict[tuple, list[StateKey]] = {}
    buckets_r: dict[tuple, list[StateKey]] = {}
    for buckets, table in ((buckets_l, left), (buckets_r, right)):
        for state in table:
            buckets.setdefault(tuple((ag[0], ag[1]) for ag in state[0]), []).append(state)
    agent_joins: dict[tuple, Optional[tuple]] = {}
    out: Table = {}
    for key in (k for k in buckets_l if k in buckets_r):
        # per distinct left agent tuple: the right states it joins with, in
        # right order, each with the joined agent tuple
        matches: dict[tuple, list] = {}
        for ls in buckets_l[key]:
            agents, w = ls
            found = matches.get(agents)
            if found is None:
                found = matches[agents] = [
                    (rs, joined)
                    for rs in buckets_r[key]
                    if (joined := _join_agents(key, agents, rs[0], agent_joins)) is not None
                ]
            for rs, new_agents in found:
                out.setdefault((new_agents, tuple(map(add, w, rs[1]))), (ls, rs))
    return out


# ---------------------------------------------------------------------------
# the sweep


def _state_guard(bag_size: int, count: int, ctx: DPContext) -> None:
    bound = ctx.ceilings.get(bag_size)
    if bound is None:
        n, beta, wmax = ctx.n, ctx.beta, ctx.wmax
        bound = ctx.ceilings[bag_size] = (
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
    tables: list[Table]

    def root_slice(self) -> Table:
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
        reachable root state, re-validated before returning.

        It walks the states' predecessors (None at a leaf, the child state at
        a unary node, the (left, right) pair at a join) down from the root.
        At an introduce-vertex node the vertex's owner, if it has one, is the
        agent whose S holds it in the state itself."""
        n = self.ctx.n
        assigned: dict[int, int] = {}
        stack = [(self.nice.root, root_state)]
        join, introduce = NodeKind.JOIN, NodeKind.INTRODUCE_VERTEX
        while stack:
            node_id, state = stack.pop()
            node = self.nice.nodes[node_id]
            prev = self.tables[node_id][state]
            if node.kind is join:
                stack += zip(node.children, prev)
            elif prev is not None:
                if node.kind is introduce:
                    z = node.vertex
                    for owner, (s_i, _f, _r) in enumerate(state[0]):
                        if z in s_i and assigned.setdefault(z, owner) != owner:
                            raise RuntimeError("witness reconstruction assigned a vertex twice")
                stack.append((node.children[0], prev))
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
    tables: list[Table] = []
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
    """Nice decomposition of the annotated graph from a decomposition of the
    base graph (None: its min-fill decomposition).  The bags are restricted to
    the kept vertices, which leaves a decomposition of the pruned base, and
    the hubs are pinned into every bag, which covers their edges."""
    if base_td is None:
        base_td = greedy_decompose(ann.base.graph())
    index_of = {orig: k for k, orig in enumerate(ann.kept)}
    bags = tuple(frozenset(index_of[v] for v in bag if v in index_of) for bag in base_td.bags)
    return nicefy(TreeDecomposition(bags, base_td.edges), ann.instance.graph(), anchors=ann.hubs)


def _check_input(instance: Instance, spec: CompactnessSpec, max_tuples: Optional[int]):
    if spec.strong:
        raise ValueError("no annotated reduction for the strongly compact class")
    if max_tuples is not None:
        count = count_center_tuples(instance.m, spec.alpha, instance.n)
        if count > max_tuples:
            raise BudgetExceededError(
                f"{count} annotated instances exceed the budget of {max_tuples}"
            )


def _sweep(instance: Instance, beta: int, centers: tuple, complete: bool,
           td: Optional[TreeDecomposition]) -> RootTable:
    """The DP over one center tuple's annotated instance, on the nice
    decomposition `_nice_for` makes from `td`."""
    ann = build_annotated(instance, centers, beta)
    return run_dp(ann, _nice_for(ann, td), complete=complete)


def _witness(instance: Instance, spec: CompactnessSpec, centers, w: tuple[int, ...],
             complete: bool, base_td: Optional[TreeDecomposition]) -> Allocation:
    """The allocation of root matrix w, from a re-run of its tuple's DP."""
    table = _sweep(instance, spec.beta, centers, complete, base_td)
    return lift_allocation(table.ann, table.extract(table.root_state_for(w)))


class _TupleSource:
    """Candidates for the goal layer: one group per center tuple, in
    `center_tuples` order (see `goals`).  Opening a group annotates its tuple
    and runs the DP; its candidates are the sorted root matrices, keyed by
    (centers, complete).  Every `tw-dp` answer goes through this one serial
    sweep, so a first-hit goal stops at its hit.

    A group's bound is the tuple's ball bound: bundle j only holds vertices
    within beta of C_j, so no root matrix exceeds ub[p * n + j] = agent p's
    value for the union of the balls around C_j.  It is computed when the
    group is listed, from every vertex's ball computed once per source.
    Under a complete goal a tuple whose balls miss a vertex is not listed:
    that vertex can never be allocated.

    Every tuple's decomposition restricts one base decomposition (`_nice_for`),
    the `td` given or else the base graph's min-fill one, made when the first
    tuple is opened.  A group may be opened twice (mms reads it for the shares
    and for the answer; `solve_tw_goals` shares one source across goals), so
    each swept key keeps its sorted root matrices and is never swept again.
    A freshly swept group's witness comes off its live table; any other key
    re-runs its tuple's DP (`_witness`).  Tables are dropped once read, so a
    pass holds one tuple's tables at a time.
    """

    def __init__(self, instance, spec, td):
        self.instance, self.spec, self.td = instance, spec, td
        graph = instance.graph()
        self._balls = {v: ball(graph, v, spec.beta) for v in graph.vertices}
        self._swept: dict[tuple, list] = {}  # (centers, complete) -> sorted root matrices
        self._live = None  # (key, table) of the tuple being swept

    def groups(self, complete: bool):
        for centers in center_tuples(self.instance, self.spec.alpha):
            reach = [frozenset().union(*(self._balls[c] for c in cs)) for cs in centers]
            if complete and len(frozenset().union(*reach)) < self.instance.m:
                continue
            ub = tuple(sum(row[v] for v in r) for row in self.instance.values for r in reach)
            yield ub, partial(self._matrices, centers, complete)

    def _base_td(self) -> TreeDecomposition:
        if self.td is None:
            self.td = greedy_decompose(self.instance.graph())
        return self.td

    def _matrices(self, centers, complete: bool):
        key = (centers, complete)
        matrices = self._swept.get(key)
        if matrices is None:
            table = _sweep(self.instance, self.spec.beta, centers, complete, self._base_td())
            self._live = (key, table)
            matrices = self._swept[key] = sorted(table.root_weights())
        for w in matrices:
            yield w, key
        self._live = None

    def witness(self, key, w: tuple[int, ...]) -> Allocation:
        if self._live is not None and self._live[0] == key:
            table = self._live[1]
            return lift_allocation(table.ann, table.extract(table.root_state_for(w)))
        centers, complete = key
        return _witness(self.instance, self.spec, centers, w, complete, self._base_td())


def mms_tw_all(
    instance: Instance,
    spec: CompactnessSpec,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
) -> list[int]:
    """Maximin share of every agent: the goal layer's share pass over the
    annotated instances."""
    _check_input(instance, spec, max_tuples)
    return goal_layer.maximin(instance, _TupleSource(instance, spec, td).groups(False))


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
) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """Annotated-reduction driver: the allocation the goal layer finds in the
    root slices of the per-tuple DPs (None if there is none), and for mms
    every agent's maximin share from the same pass (None for other goals).

    ef-po's predicate compares each matrix with every utility vector
    (`oracle.distinct_utility_vectors`), so it runs under the oracle's
    budget; its answer is the first accepted matrix in tuple order.
    """
    _check_input(instance, spec, max_tuples)
    source = _TupleSource(instance, spec, td)
    return goal_layer.solve(instance, goal, source.groups, source.witness)


def solve_tw(
    instance: Instance,
    spec: CompactnessSpec,
    goal: FairnessGoal,
    td: Optional[TreeDecomposition] = None,
    max_tuples: Optional[int] = None,
) -> Optional[Allocation]:
    """The allocation `answer_tw` finds for the goal, or None."""
    return answer_tw(instance, spec, goal, td, max_tuples)[0]


def solve_tw_goals(
    instance: Instance, spec: CompactnessSpec, goals: Iterable[FairnessGoal]
) -> dict[FairnessGoal, Optional[Allocation]]:
    """Each goal's `solve_tw` answer: one goal-layer pass per goal, with that
    goal's bounds and order, over one shared `_TupleSource`, so a tuple is
    swept at most once per (centers, complete) key."""
    _check_input(instance, spec, None)
    source = _TupleSource(instance, spec, None)
    return {g: goal_layer.solve(instance, g, source.groups, source.witness)[0] for g in goals}
