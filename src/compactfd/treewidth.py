"""Tree-decomposition infrastructure: PACE-style parsing, validation, a
min-fill heuristic decomposer, and nicefication.

Nicefication rewrites a rooted decomposition into leaf / introduce-vertex /
introduce-edge / forget / join nodes, pins a set of anchor vertices into
every bag (root and leaf bags equal the anchor set), and introduces every
graph edge exactly once.  Bag vertices of a join necessarily belong to both
children's subgraphs, so a vertex is introduced once per lower boundary of
its bag subtree; it is forgotten exactly once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .compactness import Graph


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..k-1 plus tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def parse_td(text: str) -> TreeDecomposition:
    """Parse PACE-2017-style text: header 's td <#bags> <max-bag-size> <#vertices>',
    bag lines 'b <id> <v...>' with 1-indexed ids, remaining lines tree edges.

    Vertices are converted to 0-indexed.  Comment lines starting with 'c' are
    skipped.  Raises ValueError on malformed input, a negative header field,
    out-of-range bag indices, a bag that lists a vertex twice or holds more
    than the header's max bag size, or node edges that do not form a tree.
    """
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ValueError("duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"malformed header: {line!r}")
            header = (int(parts[2]), int(parts[3]), int(parts[4]))
            if min(header) < 0:
                raise ValueError(f"negative header field: {line!r}")
        elif parts[0] == "b":
            if header is None:
                raise ValueError("bag line before header")
            if len(parts) < 2:
                raise ValueError(f"malformed bag line: {line!r}")
            bid = int(parts[1])
            if not (1 <= bid <= header[0]):
                raise ValueError(f"bag index {bid} out of range")
            if bid in bags:
                raise ValueError(f"duplicate bag {bid}")
            verts = [int(x) for x in parts[2:]]
            if any(not (1 <= v <= header[2]) for v in verts):
                raise ValueError(f"bag {bid}: vertex out of range")
            bag = frozenset(v - 1 for v in verts)
            if len(bag) < len(verts):
                raise ValueError(f"bag {bid}: a vertex listed twice")
            if len(bag) > header[1]:
                raise ValueError(f"bag {bid}: more than {header[1]} vertices")
            bags[bid] = bag
        else:
            if header is None:
                raise ValueError("edge line before header")
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {line!r}")
            a, b = int(parts[0]), int(parts[1])
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ValueError(f"edge ({a}, {b}) out of range")
            edges.append((a - 1, b - 1))
    if header is None:
        raise ValueError("missing header")
    nbags = header[0]
    # the node edges must form a tree: nbags - 1 edges (counted first, so a
    # huge header allocates nothing) and no cycle
    if nbags > 0 and len(edges) != nbags - 1:
        raise ValueError("node edges do not form a tree")
    bag_list = tuple(bags.get(i + 1, frozenset()) for i in range(nbags))
    parent = list(range(nbags))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("node edges contain a cycle")
        parent[ra] = rb
    return TreeDecomposition(bag_list, tuple(edges))


def format_td(td: TreeDecomposition, num_vertices: int) -> str:
    """Emit PACE-style text (1-indexed)."""
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags), default=0)} {num_vertices}"]
    for i, bag in enumerate(td.bags):
        lines.append("b " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def td_violation(graph: Graph, td: TreeDecomposition) -> Optional[str]:
    """First violated decomposition axiom as a message, or None when valid."""
    if not td.bags:
        return "a tree decomposition has at least one bag"
    covered = set()
    for bag in td.bags:
        covered |= bag
    missing = set(graph.vertices) - covered
    if missing:
        return f"vertices {sorted(missing)} not covered by any bag"
    extra = covered - set(graph.vertices)
    if extra:
        return f"bags mention unknown vertices {sorted(extra)}"
    for (u, v) in sorted(graph.edges):
        if not any(u in bag and v in bag for bag in td.bags):
            return f"edge ({u}, {v}) is inside no bag"
    adj: dict[int, list[int]] = {i: [] for i in range(len(td.bags))}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in graph.vertices:
        holders = [i for i, bag in enumerate(td.bags) if v in bag]
        if not holders:
            continue
        seen = {holders[0]}
        stack = [holders[0]]
        holding = set(holders)
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb in holding and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != holding:
            return f"bags containing vertex {v} are not connected in the tree"
    return None


def validate_td(graph: Graph, td: TreeDecomposition) -> bool:
    """Check the three decomposition axioms exactly."""
    return td_violation(graph, td) is None


def greedy_decompose(graph: Graph) -> TreeDecomposition:
    """Min-fill elimination-ordering heuristic.

    Repeatedly eliminates a vertex whose neighbourhood needs the fewest fill
    edges (ties broken by vertex label), records the bag {v} + N(v), and
    connects each bag to the bag of its earliest-eliminated later neighbour.
    Output always validates; the width is not guaranteed optimal.
    """
    verts = list(graph.vertices)
    if not verts:
        return TreeDecomposition((frozenset(),), ())
    adj = {v: set(graph.adj[v]) for v in verts}
    order = []
    bags = []
    alive = set(verts)
    while alive:
        best = None
        best_fill = None
        for v in sorted(alive):
            nbs = adj[v]
            fill = 0
            nb_list = sorted(nbs)
            for i in range(len(nb_list)):
                for j in range(i + 1, len(nb_list)):
                    if nb_list[j] not in adj[nb_list[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        v = best
        nbs = sorted(adj[v])
        bags.append(frozenset([v] + nbs))
        order.append(v)
        for i in range(len(nbs)):
            for j in range(i + 1, len(nbs)):
                adj[nbs[i]].add(nbs[j])
                adj[nbs[j]].add(nbs[i])
        for w in nbs:
            adj[w].discard(v)
        alive.discard(v)
        del adj[v]
    pos = {v: k for k, v in enumerate(order)}
    edges = []
    roots = []
    for k, v in enumerate(order):
        later = [w for w in bags[k] if w != v]
        if later:
            nxt = min(later, key=lambda w: pos[w])
            edges.append((k, pos[nxt]))
        else:
            roots.append(k)
    # link component roots so the node graph is a single tree
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(tuple(bags), tuple(edges))


class NodeKind(Enum):
    LEAF = "leaf"
    INTRODUCE_VERTEX = "introduce-vertex"
    INTRODUCE_EDGE = "introduce-edge"
    FORGET = "forget"
    JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    kind: NodeKind
    bag: frozenset[int]
    children: tuple[int, ...] = ()
    vertex: Optional[int] = None
    edge: Optional[tuple[int, int]] = None


@dataclass
class NiceTreeDecomposition:
    """Rooted nice decomposition; node ids are in post-order (children first),
    so iterating `nodes` in index order is a valid bottom-up sweep.  The
    anchor set is contained in every bag and equals the root and leaf bags.
    """

    nodes: list[NiceNode] = field(default_factory=list)
    anchors: frozenset[int] = frozenset()

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


def nicefy(td: TreeDecomposition, graph: Graph, anchors: Iterable[int] = ()) -> NiceTreeDecomposition:
    """Nicefication with anchors pinned into every bag.

    The original decomposition is rooted at node 0, anchors are added to all
    bags (width grows by at most |anchors|), chains of forget and introduce
    nodes bridge adjacent bags, multi-child nodes become left-folded joins,
    and each graph edge is introduced immediately above the first
    introduce-vertex node (in construction order) of one of its endpoints
    whose bag contains the other endpoint.
    """
    anchor_set = frozenset(anchors)
    if not anchor_set <= set(graph.vertices):
        raise ValueError("anchors must be graph vertices")
    bags = [bag | anchor_set for bag in td.bags]
    padded = TreeDecomposition(tuple(bags), td.edges)
    vio = td_violation(graph, padded)
    if vio:
        raise ValueError(f"invalid tree decomposition: {vio}")
    k = len(bags)
    adj: dict[int, list[int]] = {i: [] for i in range(k)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    children: dict[int, list[int]] = {i: [] for i in range(k)}
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nb in sorted(adj[cur]):
            if nb not in seen:
                seen.add(nb)
                children[cur].append(nb)
                stack.append(nb)

    out = NiceTreeDecomposition(anchors=anchor_set)
    introduced_edges: set[tuple[int, int]] = set()

    def add(node: NiceNode) -> int:
        out.nodes.append(node)
        return len(out.nodes) - 1

    def introduce(top: int, v: int) -> int:
        """Introduce v above `top`, then any not-yet-introduced graph edges
        between v and the new bag."""
        bag = out.nodes[top].bag | {v}
        top = add(NiceNode(NodeKind.INTRODUCE_VERTEX, bag, (top,), vertex=v))
        for u in sorted(out.nodes[top].bag - {v}):
            e = (u, v) if u < v else (v, u)
            if e in graph.edges and e not in introduced_edges:
                introduced_edges.add(e)
                top = add(NiceNode(NodeKind.INTRODUCE_EDGE, bag, (top,), edge=e))
        return top

    def bridge(top: int, target: frozenset[int]) -> int:
        """Forget/introduce chain transforming the bag at `top` into `target`."""
        cur_bag = out.nodes[top].bag
        for v in sorted(cur_bag - target):
            top = add(NiceNode(NodeKind.FORGET, out.nodes[top].bag - {v}, (top,), vertex=v))
        for v in sorted(target - out.nodes[top].bag):
            top = introduce(top, v)
        return top

    # post-order over the rooted decomposition, bridging each child's top to
    # its parent's bag as soon as the child is done; an explicit stack keeps
    # deep decompositions off the interpreter's call stack
    frames = [(0, sorted(children[0]), [])]  # (node, its children, their tops)
    top = None  # top of the node finished last
    while frames:
        t, kids, tops = frames[-1]
        if top is not None:
            tops.append(bridge(top, bags[t]))
            top = None
        if len(tops) < len(kids):
            c = kids[len(tops)]
            frames.append((c, sorted(children[c]), []))
            continue
        frames.pop()
        if not kids:
            top = bridge(add(NiceNode(NodeKind.LEAF, anchor_set)), bags[t])
        else:
            top = tops[0]
            for other in tops[1:]:
                top = add(NiceNode(NodeKind.JOIN, bags[t], (top, other)))
    top = bridge(top, anchor_set)
    # edges between two anchors have no introduce-vertex site; every bag
    # contains both endpoints, so they are introduced just below the root
    for e in sorted(graph.edges):
        if e[0] in anchor_set and e[1] in anchor_set:
            introduced_edges.add(e)
            top = add(NiceNode(NodeKind.INTRODUCE_EDGE, anchor_set, (top,), edge=e))
    assert top == out.root
    if introduced_edges != set(graph.edges):
        missing = set(graph.edges) - introduced_edges
        raise RuntimeError(f"edges never introduced: {sorted(missing)}")
    return out


def nice_violations(nice: NiceTreeDecomposition, graph: Graph) -> list[str]:
    """All invariant violations of a nice decomposition (empty when valid).

    Checks per-kind bag relations, anchor pinning at root and leaves, that
    every graph edge is introduced exactly once inside a bag holding both
    endpoints, that every non-anchor vertex is forgotten exactly once and
    introduced at least once, and the decomposition axioms (coverage and a
    connected occurrence subtree per vertex).
    """
    issues = []
    nodes = nice.nodes
    anchors = nice.anchors
    if not nodes:
        return ["empty decomposition"]
    child_count: dict[int, int] = {}
    for idx, nd in enumerate(nodes):
        for c in nd.children:
            child_count[c] = child_count.get(c, 0) + 1
            if c >= idx:
                issues.append(f"node {idx}: child {c} does not precede it")
    for idx in range(len(nodes) - 1):
        if child_count.get(idx, 0) != 1:
            issues.append(f"node {idx} has {child_count.get(idx, 0)} parents")
    if nodes[nice.root].bag != anchors:
        issues.append("root bag differs from the anchor set")
    edge_seen: dict[tuple[int, int], int] = {}
    forget_count: dict[int, int] = {}
    intro_count: dict[int, int] = {}
    for idx, nd in enumerate(nodes):
        if not anchors <= nd.bag:
            issues.append(f"node {idx}: anchors missing from bag")
        if nd.kind is NodeKind.LEAF:
            if nd.children:
                issues.append(f"leaf {idx} has children")
            if nd.bag != anchors:
                issues.append(f"leaf {idx} bag differs from the anchor set")
        elif nd.kind is NodeKind.INTRODUCE_VERTEX:
            (c,) = nd.children
            v = nd.vertex
            if v in anchors:
                issues.append(f"node {idx} introduces an anchor")
            if nd.bag != nodes[c].bag | {v} or v in nodes[c].bag:
                issues.append(f"introduce-vertex {idx} bag relation broken")
            intro_count[v] = intro_count.get(v, 0) + 1
        elif nd.kind is NodeKind.FORGET:
            (c,) = nd.children
            v = nd.vertex
            if v in anchors:
                issues.append(f"node {idx} forgets an anchor")
            if nd.bag != nodes[c].bag - {v} or v not in nodes[c].bag:
                issues.append(f"forget {idx} bag relation broken")
            forget_count[v] = forget_count.get(v, 0) + 1
        elif nd.kind is NodeKind.INTRODUCE_EDGE:
            (c,) = nd.children
            if nd.bag != nodes[c].bag:
                issues.append(f"introduce-edge {idx} changes the bag")
            if nd.edge not in graph.edges:
                issues.append(f"node {idx} introduces a non-edge {nd.edge}")
            if not (nd.edge[0] in nd.bag and nd.edge[1] in nd.bag):
                issues.append(f"introduce-edge {idx}: endpoints not in bag")
            edge_seen[nd.edge] = edge_seen.get(nd.edge, 0) + 1
        elif nd.kind is NodeKind.JOIN:
            if len(nd.children) != 2:
                issues.append(f"join {idx} does not have two children")
            else:
                a, b = nd.children
                if nodes[a].bag != nd.bag or nodes[b].bag != nd.bag:
                    issues.append(f"join {idx}: children bags differ")
    for e in graph.edges:
        if edge_seen.get(e, 0) != 1:
            issues.append(f"edge {e} introduced {edge_seen.get(e, 0)} times")
    for e, cnt in edge_seen.items():
        if e not in graph.edges:
            issues.append(f"unknown edge {e} introduced")
    for v in graph.vertices:
        if v in anchors:
            continue
        if forget_count.get(v, 0) != 1:
            issues.append(f"vertex {v} forgotten {forget_count.get(v, 0)} times")
        if intro_count.get(v, 0) < 1:
            issues.append(f"vertex {v} never introduced")
    covered = set()
    for nd in nodes:
        covered |= nd.bag
    if covered != set(graph.vertices):
        issues.append("bags do not cover the vertex set exactly")
    # occurrence subtree connectivity: a node set of a tree is connected iff
    # exactly one member has its parent outside the set
    parent = {c: idx for idx, nd in enumerate(nodes) for c in nd.children}
    for v in graph.vertices:
        hold = {i for i, nd in enumerate(nodes) if v in nd.bag}
        if not hold:
            continue
        tops = sum(1 for i in hold if parent.get(i) not in hold)
        if tops != 1:
            issues.append(f"vertex {v}: occurrence set splits into {tops} subtrees")
    return issues
