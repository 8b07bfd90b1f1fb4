import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from compactfd import goals as goal_layer
from compactfd import tw_dp
from compactfd.annotate import build_annotated, center_tuples, count_center_tuples
from compactfd.compactness import ball, induced_subgraph, is_annotated
from compactfd.model import FairnessGoal, bundle_value, is_proportional
from compactfd.treewidth import TreeDecomposition, greedy_decompose, nicefy
from compactfd.tw_dp import _nice_for, acyclic_join, solve_tw_goals

from conftest import random_instance


def root_map(s, part) -> tuple:
    """The root map (aligned with sorted `s`) of a rooted partition of `s`
    given as a (blocks, roots) pair."""
    blocks, roots = part
    root_of = {v: r for blk in blocks for r in roots if r in blk for v in blk}
    return tuple(root_of[v] for v in s)


def acyclic_join_check(s, part1, part2, part) -> bool:
    """Verify that `part` is the acyclic join of `part1` and `part2`.

    Each argument after `s` is a (blocks, roots) pair of a rooted partition
    of `s`.
    """
    s = tuple(sorted(s))
    got = acyclic_join(s, root_map(s, part1), root_map(s, part2))
    return got is not None and got == root_map(s, part)


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


@st.composite
def rooted_partitions(draw, s):
    """A random partition of `s` with a random root per block, as a root map."""
    labels = [draw(st.integers(0, max(len(s) - 1, 0))) for _ in s]
    roots = {lab: draw(st.sampled_from([v for v, b in zip(s, labels) if b == lab])) for lab in labels}
    return tuple(roots[lab] for lab in labels)


@st.composite
def join_inputs(draw):
    s = tuple(sorted(draw(st.sets(st.integers(0, 9), max_size=6))))
    return s, draw(rooted_partitions(s)), draw(rooted_partitions(s))


def reference_join(s, r1, r2):
    """Merge the two star forests (each vertex joined to its block's root) with
    a plain union-find: None on a cycle, or when some merged component does not
    hold exactly one vertex that is a root on both sides."""
    comp = {v: v for v in s}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for r in (r1, r2):
        for v, root in zip(s, r):
            if v == root:
                continue
            a, b = find(v), find(root)
            if a == b:
                return None
            comp[a] = b
    common = [v for v, a, b in zip(s, r1, r2) if v == a == b]
    members = Counter(find(v) for v in common)
    if any(members[find(v)] != 1 for v in s):
        return None
    return tuple(next(c for c in common if find(c) == find(v)) for v in s)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(join_inputs())
def test_acyclic_join_matches_merged_star_forests(case):
    s, r1, r2 = case
    assert acyclic_join(s, r1, r2) == reference_join(s, r1, r2)


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
    # each item hangs off the hub from its own side of the join; every root
    # state's witness comes back through the join with the value in w
    for state in table.root_slice():
        lifted = lift_allocation(ann, table.extract(state))
        assert (bundle_value(inst, 0, lifted.bundles[0]),) == state[1]


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
        FairnessGoal.EF_PARETO,
    ]
    for _ in range(8):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2), vmax=4)
        spec = CompactnessSpec(1, rng.choice([0, 1]))
        combined = solve_tw_goals(inst, spec, goals)
        for goal in goals:
            assert combined[goal] == solve_tw(inst, spec, goal)


def test_mms_tw_matches_oracle():
    rng = random.Random(75)
    for _ in range(12):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2), vmax=5)
        spec = CompactnessSpec(rng.choice([1, 2]), rng.choice([0, 1]))
        for i in range(inst.n):
            assert mms_tw(inst, spec, i) == mms_oracle(inst, spec, i)


def _small_cases(seed: int, count: int) -> list:
    """Seeded (instance, spec) pairs: m 3..7, n 2..3, alpha 1..2, beta 0..2,
    redrawn until the instance has at most 150 center tuples."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        m, n, alpha = rng.randint(3, 7), rng.randint(2, 3), rng.choice([1, 2])
        if count_center_tuples(m, alpha, n) > 150:
            continue
        shape = rng.choice(["path", "cycle", "star", "random", "edgeless"])
        inst = random_instance(rng, m, n, vmax=rng.choice([3, 6, 12]), shape=shape)
        cases.append((inst, CompactnessSpec(alpha, rng.choice([0, 1, 2]))))
    return cases


def test_ball_bound_dominates_every_root_matrix():
    # bundle j of a tuple lies within beta of C_j, so agent p's value for it
    # is at most her value for the union of those balls
    for inst, spec in _small_cases(94, 10):
        graph, n = inst.graph(), inst.n
        for centers in center_tuples(inst, spec.alpha):
            reach = [set().union(*(ball(graph, c, spec.beta) for c in cs)) for cs in centers]
            ub = [sum(inst.values[p][v] for v in reach[j]) for p in range(n) for j in range(n)]
            ann = build_annotated(inst, centers, spec.beta)
            for w in run_dp(ann, _nice_for(ann, None)).root_weights():
                assert all(a <= b for a, b in zip(w, ub)), (inst.values, centers, w, ub)


def test_bound_check_passes_every_tuple_holding_an_answer():
    # the goal layer skips a tuple whose ball bound fails `bound_check`; for
    # ef-complete that is prop on the bound, which a complete envy-free matrix
    # w <= ub passes: row i sums to W_i and w[i,i] is its largest entry
    held = dict.fromkeys([FairnessGoal.PROPORTIONAL, FairnessGoal.EF_COMPLETE,
                          FairnessGoal.MAX_WELFARE], 0)
    for inst, spec in _small_cases(95, 10):
        graph, n = inst.graph(), inst.n
        for goal in held:
            complete = goal is FairnessGoal.EF_COMPLETE
            accept, necessary = goal_layer.accepts(inst, goal), goal_layer.bound_check(inst, goal)
            for centers in center_tuples(inst, spec.alpha):
                reach = [set().union(*(ball(graph, c, spec.beta) for c in cs)) for cs in centers]
                if complete and len(set().union(*reach)) < inst.m:
                    continue  # a vertex outside every ball is never allocated
                ub = [sum(inst.values[p][v] for v in reach[j]) for p in range(n) for j in range(n)]
                table = tw_dp._sweep(inst, spec.beta, centers, complete, None)
                if any(map(accept, table.root_weights())):
                    held[goal] += 1
                    assert necessary(ub), (goal, inst.values, centers)
    assert all(held.values()), held


def test_solve_tw_goals_sweeps_each_key_once(monkeypatch):
    # the goals share one source: a (centers, complete) key is swept once, and
    # again only by a _witness re-run, at most one per yes answer
    swept, rerun = [], []

    def dp(ann, nice, complete=False, _fn=tw_dp.run_dp):
        swept.append((ann.centers, complete))
        return _fn(ann, nice, complete)

    def witness(instance, spec, centers, w, complete, base_td, _fn=tw_dp._witness):
        rerun.append((centers, complete))
        return _fn(instance, spec, centers, w, complete, base_td)

    monkeypatch.setattr(tw_dp, "run_dp", dp)
    monkeypatch.setattr(tw_dp, "_witness", witness)
    for inst, spec in _small_cases(97, 8):
        swept.clear()
        rerun.clear()
        answers = solve_tw_goals(inst, spec, list(FairnessGoal))
        assert len(rerun) <= sum(alloc is not None for alloc in answers.values())
        sweeps = Counter(swept)
        sweeps.subtract(rerun)
        assert set(sweeps.values()) == {1}, (inst.values, spec)


def test_one_base_decomposition_per_answer_and_no_pruned_tuple_annotated(monkeypatch):
    calls = Counter()
    pruning = []  # annotated instances that prune a vertex, per answer

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def annotate(*args, _fn=tw_dp.build_annotated):
        ann = _fn(*args)
        calls["annotate"] += 1
        if not ann.prunes_nothing:
            pruning.append(ann)
        return ann

    monkeypatch.setattr(tw_dp, "greedy_decompose", counted("decompose", tw_dp.greedy_decompose))
    monkeypatch.setattr(tw_dp, "run_dp", counted("dp", tw_dp.run_dp))
    monkeypatch.setattr(tw_dp, "build_annotated", annotate)
    # on the edgeless instance every ef-complete tuple misses a vertex
    edgeless = (Instance(4, [], [[1, 2, 3, 4], [4, 3, 2, 1]]), CompactnessSpec(1, 1))
    closed = dict.fromkeys(FairnessGoal, 0)  # answers that opened no tuple
    for inst, spec in [edgeless] + _small_cases(96, 10):
        for goal in FairnessGoal:
            for td in (None, greedy_decompose(inst.graph())):
                calls.clear()
                pruning.clear()
                tw_dp.answer_tw(inst, spec, goal, td=td)
                want = int(td is None and calls["dp"] > 0)
                assert calls["decompose"] == want, (goal, inst.values, spec, dict(calls))
                if goal is FairnessGoal.EF_COMPLETE:
                    assert calls["annotate"] == calls["dp"] and not pruning
                closed[goal] += calls["dp"] == 0
    assert closed[FairnessGoal.EF_COMPLETE] > 0


def test_tuple_skip_changes_no_answer(monkeypatch):
    groups, matrices = tw_dp._TupleSource.groups, tw_dp._TupleSource._matrices
    calls, opened = [], []  # per answer: run_dp and _witness calls; tuples opened

    def counted(fn, slot):
        def wrapped(*args, **kwargs):
            calls[-1][slot] += 1
            return fn(*args, **kwargs)
        return wrapped

    def open_all(self, complete):
        # each agent's total in every column of its row: a bound no goal
        # rejects, and the mms share pass opens the groups in canonical order
        n = self.instance.n
        totals = tuple(sum(row) for row in self.instance.values for _ in range(n))
        return [(totals, group) for _ub, group in groups(self, complete)]

    def logged(self, centers, complete):
        seen = []
        opened[-1].append((centers, seen))
        for w, key in matrices(self, centers, complete):
            seen.append(w)
            yield w, key

    def answer(inst, spec, goal, skip):
        calls.append([0, 0])
        opened.append([])
        with monkeypatch.context() as mp:
            mp.setattr(tw_dp, "run_dp", counted(tw_dp.run_dp, 0))
            mp.setattr(tw_dp, "_witness", counted(tw_dp._witness, 1))
            mp.setattr(tw_dp._TupleSource, "_matrices", logged)
            if not skip:
                mp.setattr(tw_dp._TupleSource, "groups", open_all)
            return tw_dp.answer_tw(inst, spec, goal), *calls[-1]

    goals = [FairnessGoal.PROPORTIONAL, FairnessGoal.EF_COMPLETE, FairnessGoal.MAX_WELFARE,
             FairnessGoal.MAXIMIN]
    total_with, total_without = dict.fromkeys(goals, 0), dict.fromkeys(goals, 0)
    # on the path agent 0's share comes from a tuple whose bound does not meet
    # agent 1's running share: it matters only because it raises a share; on
    # the star a bound with rows and columns swapped skips a tuple that sets one
    fixed = [
        (Instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [[3, 6, 4, 4, 3], [10, 4, 6, 0, 12]]),
         CompactnessSpec(1, 0)),
        (Instance(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [[6, 4, 4, 3, 0], [1, 1, 2, 2, 4]]),
         CompactnessSpec(2, 0)),
    ]
    # mms answers in a tuple the share pass left unopened (off the live
    # table), in one it opened (its kept matrices, then one _witness re-run),
    # and one whose matrix the share pass meets first in a tuple ranked after
    # the answer's
    unopened = (Instance(3, [(0, 1), (1, 2)], [[1, 10, 11], [4, 6, 2]]), CompactnessSpec(1, 0))
    reopened = (Instance(3, [(0, 1), (1, 2)], [[5, 6, 1], [7, 4, 8]]), CompactnessSpec(1, 0))
    kept_again = (Instance(4, [(0, 1), (1, 2), (2, 3)], [[1, 10, 1, 4], [3, 6, 7, 0]]),
                  CompactnessSpec(1, 1))
    witnesses = {}
    for inst, spec in fixed + [unopened, reopened, kept_again] + _small_cases(92, 12):
        for goal in goals:
            got, with_skip, witness_calls = answer(inst, spec, goal, True)
            want, without, _ = answer(inst, spec, goal, False)
            assert got == want, (goal, inst.values, inst.edges, spec)
            assert with_skip <= without
            total_with[goal] += with_skip
            total_without[goal] += without
            if goal is FairnessGoal.MAXIMIN:
                witnesses[inst] = witness_calls
    # every goal that reads the bound skips some tuple
    assert all(total_with[goal] < total_without[goal] for goal in goals), (total_with, total_without)
    assert witnesses[unopened[0]] == 0 and witnesses[reopened[0]] == 1

    inst, spec = kept_again
    (alloc, _shares), _, _ = answer(inst, spec, FairnessGoal.MAXIMIN, True)
    n = inst.n
    w = tuple(bundle_value(inst, p, alloc.bundles[j]) for p in range(n) for j in range(n))
    rank = {centers: r for r, centers in enumerate(center_tuples(inst, spec.alpha))}
    holding = [rank[centers] for centers, seen in opened[-1] if w in seen]
    assert holding[0] > min(holding)


def test_strong_spec_rejected():
    inst = Instance(2, [], [[1, 1]])
    with pytest.raises(ValueError):
        solve_tw(inst, CompactnessSpec(1, 1, strong=True), FairnessGoal.PROPORTIONAL)


def test_tuple_budget():
    from compactfd.oracle import BudgetExceededError

    inst = Instance(6, [], [[1] * 6, [1] * 6])
    with pytest.raises(BudgetExceededError):
        solve_tw(inst, CompactnessSpec(2, 1), FairnessGoal.PROPORTIONAL, max_tuples=5)


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
    assert agents == (((hub,), (0,), (hub,)),)
    assert w == (0,)
    # a state with a nonzero hub value is never produced at a leaf
    assert all(state[1] == (0,) for state in base)

    after_v = introduce_vertex_transition(base, 0, ctx)
    # skip branch plus one take (f(0) must be 1 when beta is 1)
    assert leaf_state in after_v
    takes = [s for s in after_v if s != leaf_state]
    assert len(takes) == 1
    take = takes[0]
    assert take[1] == (0,)  # a vertex's value enters w only when it is forgotten
    s0, f0, r0 = take[0][0]
    assert s0 == (0, hub) and r0 == (0, hub)  # two blocks, each its own root

    after_e = introduce_edge_transition(after_v, (0, hub), ctx)
    merged = [
        s for s in after_e if s[0][0][0] == (0, hub) and len(set(s[0][0][2])) == 1
    ]
    assert len(merged) == 1
    assert merged[0][0][0][2] == (hub, hub)  # the non-root endpoint lost its root

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
    state = ((((0, hub), (1, 0), (0, hub)),), (5,))
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


def _state_by_state(transition, child, *args):
    """Drive a unary transition one child state at a time, merging the
    outputs first-wins in child order."""
    merged = {}
    for state, ref in child.items():
        for key, back in transition({state: ref}, *args).items():
            merged.setdefault(key, back)
    return merged


def test_transitions_equal_their_state_by_state_runs():
    """Each transition computes its bag-local update once per distinct agent
    tuple; that sharing must not show: unary transitions give the same keys,
    order and back-pointers as one-state runs, joins the same mapping as
    one-pair runs.  A back-pointer is the state's predecessor: None at a
    leaf, a key of the child table at a unary node, a (left key, right key)
    pair at a join."""
    from compactfd.tw_dp import (
        forget_transition,
        introduce_edge_transition,
        introduce_vertex_transition,
        join_transition,
    )
    from compactfd.treewidth import NodeKind

    unary = {
        NodeKind.INTRODUCE_VERTEX: (introduce_vertex_transition, "vertex"),
        NodeKind.FORGET: (forget_transition, "vertex"),
        NodeKind.INTRODUCE_EDGE: (introduce_edge_transition, "edge"),
    }
    rng = random.Random(76)
    seen = set()
    for _ in range(8):
        inst = random_instance(
            rng, rng.randint(3, 5), rng.randint(1, 2), vmax=4,
            shape=rng.choice(["random", "cycle", "star", "path"]),
        )
        centers = rng.choice(list(center_tuples(inst, 1)))
        ann = build_annotated(inst, centers, rng.choice([1, 2]))
        g = ann.instance.graph()
        whole = frozenset(g.vertices)
        # a root bag with two full children: the join sees full partitions
        forked = nicefy(TreeDecomposition((whole,) * 3, ((0, 1), (0, 2))), g, anchors=ann.hubs)
        for nice, complete in ((_nice_for(ann, None), False), (forked, True), (forked, False)):
            table = run_dp(ann, nice, complete=complete)
            for node_id, node in enumerate(nice.nodes):
                got = table.tables[node_id]
                if node.kind is NodeKind.JOIN:
                    left, right = (table.tables[c] for c in node.children)
                    pairwise = {}
                    for ls, lref in left.items():
                        for rs, rref in right.items():
                            for key, back in join_transition(
                                {ls: lref}, {rs: rref}, node.bag, table.ctx
                            ).items():
                                pairwise.setdefault(key, back)
                    assert got == pairwise
                    assert all(len(prev) == 2 and prev[0] in left and prev[1] in right
                               for prev in got.values())
                elif node.kind in unary:
                    transition, attr = unary[node.kind]
                    child = table.tables[node.children[0]]
                    want = _state_by_state(transition, child, getattr(node, attr), table.ctx)
                    assert list(got.items()) == list(want.items())
                    assert all(prev in child for prev in got.values())
                else:
                    assert list(got.values()) == [None]
                    continue
                if got:
                    seen.add(node.kind)
    assert seen == {NodeKind.JOIN, *unary}
