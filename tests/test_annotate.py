import itertools
import random

import pytest

from compactfd import (
    Allocation,
    CompactnessSpec,
    Instance,
    is_compact,
    is_compact_allocation,
    lift_allocation,
)
from compactfd.annotate import build_annotated, center_tuples, count_center_tuples
from compactfd.compactness import induced_subgraph
from compactfd.model import bundle_value

from conftest import random_instance


def test_tuple_count_alpha1_single_agent():
    inst = Instance(4, [], [[1, 1, 1, 1]])
    anns = [build_annotated(inst, centers, 0) for centers in center_tuples(inst, 1)]
    assert len(anns) == 5  # four singletons plus the empty center set


def test_tuple_count_matches_brute_force():
    rng = random.Random(51)
    for _ in range(15):
        m = rng.randint(0, 5)
        n = rng.randint(1, 3)
        alpha = rng.choice([1, 2])
        inst = random_instance(rng, m, n, vmax=3)
        subsets = [
            frozenset(c)
            for size in range(alpha + 1)
            for c in itertools.combinations(range(m), size)
        ]
        want = sum(
            1
            for combo in itertools.product(subsets, repeat=n)
            if all(
                not (combo[i] & combo[j]) for i in range(n) for j in range(i + 1, n)
            )
        )
        got = len(list(center_tuples(inst, alpha)))
        assert got == want == count_center_tuples(m, alpha, n)


def test_annotated_structure():
    inst = Instance(4, [(0, 1), (1, 2), (2, 3)], [[1, 2, 3, 4], [4, 3, 2, 1]])
    ann = build_annotated(inst, (frozenset([1]), frozenset([3])), 1)
    g = ann.instance.graph()
    # hubs sit after the surviving base vertices, adjacent to their centers
    assert ann.kept == (0, 1, 2, 3)
    h0, h1 = ann.hubs
    assert g.adj[h0] == {1} and g.adj[h1] == {3}
    assert ann.beta == 2
    for i in range(2):
        for h in ann.hubs:
            assert ann.instance.values[i][h] == 0


def test_pruning_drops_unreachable_vertices():
    # a vertex outside every center ball can never be allocated
    inst = Instance(3, [(0, 1)], [[1, 1, 5], [1, 1, 5]])
    ann = build_annotated(inst, (frozenset([0]), frozenset()), 0)
    assert ann.kept == (0,)
    assert not ann.prunes_nothing
    # the pruned base region is compact with n * alpha balls
    sub = induced_subgraph(inst.graph(), ann.kept)
    assert is_compact(sub, 2 * 1, 0) is not None


def test_pruned_region_always_na_compact():
    rng = random.Random(52)
    for _ in range(20):
        m = rng.randint(1, 6)
        n = rng.randint(1, 2)
        alpha = rng.choice([1, 2])
        beta = rng.choice([0, 1])
        inst = random_instance(rng, m, n, vmax=3)
        for centers in itertools.islice(center_tuples(inst, alpha), 0, 40, 7):
            ann = build_annotated(inst, centers, beta)
            if not ann.kept:
                continue
            sub = induced_subgraph(inst.graph(), ann.kept)
            assert is_compact(sub, n * alpha, beta) is not None


def test_lift_examples():
    inst = Instance(3, [(0, 1), (1, 2)], [[2, 3, 4]])
    ann = build_annotated(inst, (frozenset([1]),), 1)
    hub = ann.hubs[0]
    lifted = lift_allocation(ann, Allocation.of([{hub}]))
    assert lifted.bundles == (frozenset(),)
    lifted = lift_allocation(ann, Allocation.of([{hub, 1, 2}]))
    assert lifted.bundles == (frozenset({1, 2}),)
    assert is_compact_allocation(inst, lifted, CompactnessSpec(1, 1))
    # value preservation: hubs are worthless
    assert bundle_value(ann.instance, 0, {hub, 1, 2}) == bundle_value(inst, 0, {1, 2})
    with pytest.raises(ValueError):
        lift_allocation(ann, Allocation.of([{1, 2}]))  # hub missing
    with pytest.raises(ValueError):
        lift_allocation(ann, Allocation.of([{hub, 0, 2}]))  # 2 is too far via the bundle


def test_round_trip_compact_allocation():
    """Any compact allocation's cover centers give an annotated instance in
    which bundle + hub is annotated-valid."""
    rng = random.Random(53)
    for _ in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(1, 2)
        alpha = rng.choice([1, 2])
        beta = rng.choice([0, 1])
        spec = CompactnessSpec(alpha, beta)
        inst = random_instance(rng, m, n, vmax=3)
        digits = [rng.randint(0, n) for _ in range(m)]
        bundles = [set() for _ in range(n)]
        for z, a in enumerate(digits):
            if a < n:
                bundles[a].add(z)
        alloc = Allocation.of(bundles)
        if not is_compact_allocation(inst, alloc, spec):
            continue
        graph = inst.graph()
        centers = []
        for bundle in alloc.bundles:
            witness = is_compact(induced_subgraph(graph, bundle), alpha, beta)
            centers.append(frozenset(witness.centers))
        ann = build_annotated(inst, tuple(centers), beta)
        index_of = {orig: k for k, orig in enumerate(ann.kept)}
        hubbed = Allocation.of(
            [
                {index_of[z] for z in alloc.bundles[i]} | {ann.hubs[i]}
                for i in range(n)
            ]
        )
        lifted = lift_allocation(ann, hubbed)  # raises if not annotated-valid
        assert lifted.bundles == alloc.bundles
