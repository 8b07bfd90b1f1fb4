import itertools
import random

import pytest

from compactfd import (
    CompactnessSpec,
    Instance,
    is_compact_allocation,
    lift_allocation,
    mms_oracle,
    mms_tw,
    run_dp,
    solve_oracle,
    solve_tw,
)
from compactfd.annotate import build_annotated, center_tuples
from compactfd.compactness import induced_subgraph, is_annotated
from compactfd.model import FairnessGoal, bundle_value, is_proportional
from compactfd.treewidth import TreeDecomposition, nicefy
from compactfd.tw_dp import _nice_for, _sort_blocks, acyclic_join, solve_tw_goals

from conftest import random_instance


def acyclic_join_check(s, part1, part2, part) -> bool:
    """Verify that `part` is the acyclic join of `part1` and `part2`.

    Each argument after `s` is a (blocks, roots) pair of a rooted partition
    of `s`.
    """
    s = tuple(sorted(s))
    blocks1, roots1 = _sort_blocks(part1[0]), tuple(sorted(part1[1]))
    blocks2, roots2 = _sort_blocks(part2[0]), tuple(sorted(part2[1]))
    blocks, roots = _sort_blocks(part[0]), tuple(sorted(part[1]))
    got = acyclic_join(s, blocks1, roots1, blocks2, roots2)
    return got is not None and got == (blocks, roots)


def test_acyclic_join_examples():
    s = ("a", "b")
    assert acyclic_join_check(
        s, ((("a",), ("b",)), ("a", "b")), ((("a", "b"),), ("a",)), ((("a", "b"),), ("a",))
    )
    # identical non-trivial partitions merge into a cycle
    assert not acyclic_join_check(
        s, ((("a", "b"),), ("a",)), ((("a", "b"),), ("a",)), ((("a", "b"),), ("a",))
    )
    singles = ((("a",), ("b",)), ("a", "b"))
    assert acyclic_join_check(s, singles, singles, singles)


def test_hand_trace_two_vertex():
    # hub adjacent to one item worth 5: the achievable bundle values are 0 and 5
    inst = Instance(1, [], [[5]])
    ann = build_annotated(inst, (frozenset([0]),), 0)
    table = run_dp(ann, _nice_for(ann, None))
    assert table.root_weights() == {(0,), (5,)}
    for state in sorted(table.root_slice()):
        alloc = table.extract(state)
        lifted = lift_allocation(ann, alloc)
        got = bundle_value(inst, 0, lifted.bundles[0])
        assert got == state[1][0]


def test_hand_trace_isolated_vertex_pruned():
    # an item outside every center ball is pruned; only the empty outcome remains
    inst = Instance(2, [], [[5, 7]])
    ann = build_annotated(inst, (frozenset([0]),), 0)
    assert ann.kept == (0,)
    table = run_dp(ann, _nice_for(ann, None))
    assert table.root_weights() == {(0,), (5,)}


def test_hand_trace_star_join():
    inst = Instance(2, [], [[3, 4]])
    ann = build_annotated(inst, (frozenset([0, 1]),), 0)
    g = ann.instance.graph()
    td = TreeDecomposition(
        (frozenset(), frozenset([0]), frozenset([1])), ((0, 1), (0, 2))
    )
    nice = nicefy(td, g, anchors=ann.hubs)
    from compactfd.treewidth import NodeKind

    assert any(nd.kind is NodeKind.JOIN for nd in nice.nodes)
    table = run_dp(ann, nice)
    assert table.root_weights() == {(0,), (3,), (4,), (7,)}


def direct_annotated_weights(ann):
    """Independent enumeration of annotated allocations of a small instance."""
    inst = ann.instance
    n = inst.n
    base_count = len(ann.kept)
    graph = inst.graph()
    out = set()
    for digits in itertools.product(range(n + 1), repeat=base_count):
        bundles = [{ann.hubs[i]} for i in range(n)]
        for z, a in enumerate(digits):
            if a < n:
                bundles[a].add(z)
        ok = True
        for i in range(n):
            if not is_annotated(induced_subgraph(graph, bundles[i]), ann.hubs[i], ann.beta):
                ok = False
                break
        if not ok:
            continue
        out.add(
            tuple(
                sum(inst.values[i][z] for z in bundles[j])
                for i in range(n)
                for j in range(n)
            )
        )
    return out


def test_root_slice_sound_and_complete():
    rng = random.Random(71)
    for _ in range(20):
        m = rng.randint(1, 4)
        n = rng.randint(1, 2)
        inst = random_instance(rng, m, n, vmax=4)
        alpha = rng.choice([1, 2])
        beta = rng.choice([0, 1, 2])
        tuples = list(center_tuples(inst, alpha))
        for centers in rng.sample(tuples, min(3, len(tuples))):
            ann = build_annotated(inst, centers, beta)
            table = run_dp(ann, _nice_for(ann, None))
            assert table.root_weights() == direct_annotated_weights(ann)
            # every reachable root state yields a verified witness
            for state in table.root_slice():
                table.extract(state)  # raises on any inconsistency


def test_root_slice_identical_across_decompositions():
    rng = random.Random(72)
    for _ in range(12):
        m = rng.randint(1, 5)
        n = rng.randint(1, 2)
        inst = random_instance(rng, m, n, vmax=4)
        centers = rng.choice(list(center_tuples(inst, 1)))
        ann = build_annotated(inst, centers, rng.choice([0, 1]))
        g = ann.instance.graph()
        narrow = _nice_for(ann, None)
        wide = nicefy(TreeDecomposition((frozenset(g.vertices),), ()), g, anchors=ann.hubs)
        assert run_dp(ann, narrow).root_weights() == run_dp(ann, wide).root_weights()
        # determinism: same decomposition, same slice
        assert run_dp(ann, narrow).root_weights() == run_dp(ann, narrow).root_weights()


def test_solve_tw_agrees_with_oracle():
    rng = random.Random(73)
    goals = [
        FairnessGoal.PROPORTIONAL,
        FairnessGoal.MAXIMIN,
        FairnessGoal.MAX_WELFARE,
        FairnessGoal.EF_COMPLETE,
    ]
    for _ in range(15):
        m = rng.randint(1, 5)
        n = rng.randint(1, 2)
        inst = random_instance(rng, m, n, vmax=5)
        spec = CompactnessSpec(rng.choice([1, 2]), rng.choice([0, 1, 2]))
        for goal in goals:
            o = solve_oracle(inst, spec, goal)
            t = solve_tw(inst, spec, goal)
            assert (o is None) == (t is None), (goal, inst.values, spec)
            if t is not None:
                assert is_compact_allocation(inst, t, spec)


def test_solve_tw_goals_matches_single_goal():
    rng = random.Random(74)
    goals = [
        FairnessGoal.PROPORTIONAL,
        FairnessGoal.MAXIMIN,
        FairnessGoal.MAX_WELFARE,
        FairnessGoal.EF_COMPLETE,
    ]
    for _ in range(8):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2), vmax=4)
        spec = CompactnessSpec(1, rng.choice([0, 1]))
        combined = solve_tw_goals(inst, spec, goals)
        for goal in goals:
            single = solve_tw(inst, spec, goal)
            assert (single is None) == (combined[goal] is None)


def test_mms_tw_matches_oracle():
    rng = random.Random(75)
    for _ in range(12):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2), vmax=5)
        spec = CompactnessSpec(rng.choice([1, 2]), rng.choice([0, 1]))
        for i in range(inst.n):
            assert mms_tw(inst, spec, i) == mms_oracle(inst, spec, i)


def test_ef_po_routed_through_oracle():
    inst = Instance(2, [], [[4, 1], [1, 4]])
    spec = CompactnessSpec(1, 0)
    alloc = solve_tw(inst, spec, FairnessGoal.EF_PARETO)
    assert alloc is not None
    assert alloc.bundles == (frozenset([0]), frozenset([1]))


def test_strong_spec_rejected():
    inst = Instance(2, [], [[1, 1]])
    with pytest.raises(ValueError):
        solve_tw(inst, CompactnessSpec(1, 1, strong=True), FairnessGoal.PROPORTIONAL)


def test_tuple_budget():
    from compactfd.oracle import BudgetExceededError

    inst = Instance(6, [], [[1] * 6, [1] * 6])
    with pytest.raises(BudgetExceededError):
        solve_tw(inst, CompactnessSpec(2, 1), FairnessGoal.PROPORTIONAL, max_tuples=5)


def test_parallel_jobs_same_answer():
    inst = Instance(4, [(0, 1), (1, 2), (2, 3)], [[2, 1, 1, 2], [1, 2, 2, 1]])
    spec = CompactnessSpec(1, 1)
    seq = solve_tw(inst, spec, FairnessGoal.PROPORTIONAL, jobs=1)
    par = solve_tw(inst, spec, FairnessGoal.PROPORTIONAL, jobs=2)
    assert (seq is None) == (par is None)
    if seq is not None:
        assert is_proportional(inst, par)


def test_external_td_used():
    inst = Instance(4, [(0, 1), (1, 2), (2, 3)], [[1, 1, 1, 1], [1, 1, 1, 1]])
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})), ((0, 1), (1, 2))
    )
    spec = CompactnessSpec(1, 1)
    with_td = solve_tw(inst, spec, FairnessGoal.PROPORTIONAL, td=td)
    without = solve_tw(inst, spec, FairnessGoal.PROPORTIONAL)
    assert (with_td is None) == (without is None)
    if with_td is not None:
        assert is_proportional(inst, with_td)


def test_transition_level_hand_trace():
    """Drive the five transitions by hand on the two-vertex instance."""
    from compactfd.tw_dp import (
        DPContext,
        forget_transition,
        introduce_edge_transition,
        introduce_vertex_transition,
        leaf_states,
    )

    inst = Instance(1, [], [[5]])
    ann = build_annotated(inst, (frozenset([0]),), 0)
    ctx = DPContext(ann, complete=False)
    hub = ann.hubs[0]

    base = leaf_states(ctx)
    assert len(base) == 1
    (leaf_state,) = base
    agents, w = leaf_state
    assert agents == (((hub,), (0,), ((hub,),), (hub,)),)
    assert w == (0,)
    # a state with a nonzero hub value is never produced at a leaf
    assert all(state[1] == (0,) for state in base)

    after_v = introduce_vertex_transition(base, 0, ctx)
    # skip branch plus one take (f(0) must be 1 when beta is 1)
    assert leaf_state in after_v
    takes = [s for s in after_v if s != leaf_state]
    assert len(takes) == 1
    take = takes[0]
    assert take[1] == (5,)
    s0, f0, blocks0, roots0 = take[0][0]
    assert s0 == (0, hub) and blocks0 == ((0,), (hub,)) and set(roots0) == {0, hub}

    after_e = introduce_edge_transition(after_v, (0, hub), ctx)
    merged = [
        s for s in after_e if len(s[0][0][2]) == 1 and s[0][0][0] == (0, hub)
    ]
    assert len(merged) == 1
    assert merged[0][0][0][3] == (hub,)  # the non-root endpoint lost its root

    after_f = forget_transition(after_e, 0, ctx)
    # the unmerged take dies (its block {0} is a singleton with 0 as root);
    # the merged state and the skip lineage survive
    assert set(s[1] for s in after_f) == {(0,), (5,)}


def test_introduce_vertex_offers_no_label_below_hub_distance():
    from compactfd.tw_dp import DPContext, introduce_vertex_transition, leaf_states

    # path 0 - 1 with the hub next to 0: vertex 1 sits at distance 2 from it
    inst = Instance(2, [(0, 1)], [[1, 2]])
    ann = build_annotated(inst, (frozenset([0]),), 1)
    ctx = DPContext(ann, complete=False)
    hub = ann.hubs[0]
    assert ann.beta == 2 and ctx.hub_dist[0][1] == 2

    (leaf_state,) = leaf_states(ctx)
    out = introduce_vertex_transition({leaf_state: ("leaf",)}, 1, ctx)
    takes = [s for s in out if s != leaf_state]
    assert [s[0][0][:2] for s in takes] == [((1, hub), (2, 0))]


def test_forget_kills_rootless_components():
    from compactfd.tw_dp import DPContext, forget_transition

    inst = Instance(1, [], [[5]])
    ann = build_annotated(inst, (frozenset([0]),), 0)
    ctx = DPContext(ann, complete=False)
    hub = ann.hubs[0]
    # a state where vertex 0 sits in its own block rooted at itself
    state = ((((0, hub), (1, 0), ((0,), (hub,)), (0, hub)),), (5,))
    out = forget_transition({state: ("leaf",)}, 0, ctx)
    assert out == {}


def test_planar_grid_no_special_casing():
    # a 3x2 grid is planar; it flows through the same decomposer and DP
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    inst = Instance(6, edges, [[2, 1, 1, 1, 1, 2], [1, 2, 1, 1, 2, 1]])
    spec = CompactnessSpec(1, 2)
    for goal in (FairnessGoal.PROPORTIONAL, FairnessGoal.MAX_WELFARE):
        o = solve_oracle(inst, spec, goal)
        t = solve_tw(inst, spec, goal)
        assert (o is None) == (t is None)
        if t is not None:
            assert is_compact_allocation(inst, t, spec)
