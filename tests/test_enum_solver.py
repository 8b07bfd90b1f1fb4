import random

import pytest

from compactfd import (
    CompactnessSpec,
    Instance,
    enumerate_allocations,
    enumerate_compact_allocations,
    is_compact_allocation,
    solve_enum,
    solve_oracle,
)
from compactfd import goals
from compactfd.compactness import BundleCompactnessCache
from compactfd.enum_solver import compact_bundles, mms_enum
from compactfd.model import FairnessGoal, is_proportional
from compactfd.oracle import BudgetExceededError, mms_all

from conftest import random_instance


def test_empty_graph_single_allocation():
    inst = Instance(0, [], [[], []])
    allocs = list(enumerate_compact_allocations(inst, CompactnessSpec(1, 0)))
    assert len(allocs) == 1
    assert all(not b for b in allocs[0].bundles)


def test_enumerated_set_equals_oracle_filter():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(0, 5)
        n = rng.randint(1, 3)
        inst = random_instance(rng, m, n, vmax=4)
        spec = CompactnessSpec(rng.choice([1, 2, 3]), rng.choice([0, 1, 2]), rng.random() < 0.5)
        cache = BundleCompactnessCache(inst, spec)
        want = {
            a.bundles
            for a in enumerate_allocations(inst)
            if all(cache.check(b) for b in a.bundles)
        }
        got = [a.bundles for a in enumerate_compact_allocations(inst, spec)]
        assert len(got) == len(set(got))  # no duplicates in the stream
        assert set(got) == want


def test_spec_10_bundle_sizes():
    inst = Instance(3, [(0, 1)], [[1, 2, 3], [3, 2, 1]])
    for alloc in enumerate_compact_allocations(inst, CompactnessSpec(1, 0)):
        assert all(len(b) <= 1 for b in alloc.bundles)


def test_star_single_agent():
    inst = Instance(4, [(0, 1), (0, 2), (0, 3)], [[1, 1, 1, 1]])
    alloc = solve_enum(inst, CompactnessSpec(1, 1), FairnessGoal.PROPORTIONAL)
    assert alloc is not None and alloc.bundles[0] == frozenset(range(4))


def test_xac_instances_via_enum():
    from compactfd.generators import XacSource, gen_from_xac, has_exact_cover

    uni = tuple(range(1, 7))
    yes = XacSource(uni, (frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({1, 4, 5})))
    no = XacSource(uni, (frozenset({1, 2, 3}), frozenset({1, 4, 5}), frozenset({2, 4, 6})))
    assert has_exact_cover(yes) and not has_exact_cover(no)
    for source, want in ((yes, True), (no, False)):
        inst = gen_from_xac(source, 3, "prop")
        got = solve_enum(inst, CompactnessSpec(3, 0), FairnessGoal.PROPORTIONAL)
        assert (got is not None) == want
        if got is not None:
            assert is_proportional(inst, got)


def test_goals_agree_with_oracle():
    rng = random.Random(43)
    for _ in range(20):
        m = rng.randint(0, 5)
        n = rng.randint(1, 2)
        inst = random_instance(rng, m, n, vmax=5)
        spec = CompactnessSpec(rng.choice([1, 2]), rng.choice([0, 1]), rng.random() < 0.4)
        for goal in FairnessGoal:
            o = solve_oracle(inst, spec, goal)
            e = solve_enum(inst, spec, goal)
            assert (o is None) == (e is None), (goal, inst.values, spec)
            if e is not None:
                assert is_compact_allocation(inst, e, spec)


def test_two_pass_mms_matches_oracle():
    rng = random.Random(44)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(0, 5), rng.randint(1, 3), vmax=5)
        spec = CompactnessSpec(rng.choice([1, 2]), rng.choice([0, 1]), rng.random() < 0.4)
        assert mms_enum(inst, spec) == mms_all(inst, spec)


def test_budget_guard():
    inst = Instance(8, [], [[1] * 8, [1] * 8])
    with pytest.raises(BudgetExceededError):
        compact_bundles(inst, CompactnessSpec(3, 2), budget=10)
    # both budgets count work done: the 4 maximal ball unions of 3 items, and
    # the 5 allocations (of 151) in the groups that the prop bound lets through
    inst = Instance(6, [(v, v + 1) for v in range(5)], [[1, 3, 2, 4, 2, 1], [0, 2, 2, 2, 1, 3]])
    assert solve_enum(inst, CompactnessSpec(1, 1), FairnessGoal.PROPORTIONAL, budget=32) is None
    with pytest.raises(BudgetExceededError):
        solve_enum(inst, CompactnessSpec(1, 1), FairnessGoal.PROPORTIONAL, budget=31)
    with pytest.raises(BudgetExceededError):
        list(enumerate_compact_allocations(inst, CompactnessSpec(1, 1), budget=150))


def test_group_bounds_leave_matrices_unread(monkeypatch):
    read = []

    def counted(groups):
        def wrapped(complete):
            for ub, matrices in groups(complete):
                def opened(_matrices=matrices):
                    for candidate in _matrices():
                        read.append(candidate)
                        yield candidate
                yield ub, opened
        return wrapped

    solve = goals.solve
    monkeypatch.setattr(
        goals, "solve", lambda inst, goal, groups, witness: solve(inst, goal, counted(groups), witness)
    )
    path = [(v, v + 1) for v in range(5)]
    spec = CompactnessSpec(1, 1)
    for values, goal, found in (
        ([[1, 3, 2, 4, 2, 1], [0, 2, 2, 2, 1, 3]], FairnessGoal.PROPORTIONAL, False),
        ([[2, 4, 1, 1, 3, 4], [4, 3, 3, 1, 1, 1]], FairnessGoal.MAXIMIN, True),
    ):
        inst = Instance(6, path, values)
        read.clear()
        assert (solve_enum(inst, spec, goal) is not None) == found
        # 5 and 36 of the 151 compact allocations
        assert len(read) < len(list(enumerate_compact_allocations(inst, spec)))
