import itertools
import random

import pytest

from compactfd import (
    Allocation,
    CompactnessSpec,
    Instance,
    enumerate_allocations,
    is_compact_allocation,
    mms_oracle,
    solve_oracle,
)
from compactfd import oracle
from compactfd.compactness import BundleCompactnessCache
from compactfd.model import FairnessGoal, bundle_value, is_proportional, utilitarian_welfare
from compactfd.oracle import (
    BudgetExceededError,
    OracleBudget,
    _dominated,
    distinct_utility_vectors,
    mms_all,
)

from conftest import random_instance


def is_pareto_optimal(inst, alloc):
    """No allocation, compact or not, weakly improves every agent and
    strictly improves one."""
    vec = tuple(bundle_value(inst, i, alloc.bundles[i]) for i in range(inst.n))
    return not _dominated(vec, distinct_utility_vectors(inst))


def product_scan(inst):
    """Reference walk: itertools.product, every mask and value rebuilt from
    all m digits.  Yields fresh (digits, masks, value matrix) per step."""
    n = inst.n
    for digits in itertools.product(range(n + 1), repeat=inst.m):
        masks = [0] * n
        mat = [[0] * n for _ in range(n)]
        for z, a in enumerate(digits):
            if a < n:
                masks[a] |= 1 << z
                for i in range(n):
                    mat[i][a] += inst.values[i][z]
        yield digits, masks, mat


def test_enumeration_counts():
    assert len(list(enumerate_allocations(Instance(0, [], [[]])))) == 1
    assert len(list(enumerate_allocations(Instance(1, [], [[1]])))) == 2
    two = Instance(2, [], [[1, 1], [1, 1]])
    allocs = list(enumerate_allocations(two))
    assert len(allocs) == 9
    assert len({a.bundles for a in allocs}) == 9


def test_budget():
    inst = Instance(6, [], [[1] * 6, [1] * 6, [1] * 6])
    with pytest.raises(BudgetExceededError):
        list(enumerate_allocations(inst, OracleBudget(10)))


def test_solve_oracle_partition_example():
    from compactfd.generators import PartitionSource, gen_from_partition

    inst = gen_from_partition(PartitionSource((3, 1, 2, 2)))
    for alpha, beta in [(1, 1), (2, 2)]:
        alloc = solve_oracle(inst, CompactnessSpec(alpha, beta), FairnessGoal.PROPORTIONAL)
        assert alloc is not None
        assert is_proportional(inst, alloc)


def test_solve_oracle_k2_no_instance():
    # two identical agents on a single edge, values [3, 1]: brute force over
    # all nine allocations shows nobody can give agent two her half
    inst = Instance(2, [(0, 1)], [[3, 1], [3, 1]])
    assert solve_oracle(inst, CompactnessSpec(1, 1), FairnessGoal.PROPORTIONAL) is None


def test_solve_oracle_single_agent():
    inst = Instance(4, [(0, 1), (1, 2), (2, 3)], [[2, 1, 1, 3]])
    alloc = solve_oracle(inst, CompactnessSpec(1, 3), FairnessGoal.PROPORTIONAL)
    assert alloc is not None and alloc.bundles[0] == frozenset(range(4))


def test_mms_oracle_examples():
    # fewer items than agents: someone always ends up empty
    small = Instance(1, [], [[5], [5]])
    assert mms_oracle(small, CompactnessSpec(1, 0), 0) == 0
    inst = Instance(3, [], [[5, 3, 2], [5, 3, 2]])
    assert mms_oracle(inst, CompactnessSpec(1, 0), 0) == 3
    solo = Instance(3, [(0, 1)], [[4, 1, 7]])
    # one agent: the best compact bundle value
    assert mms_oracle(solo, CompactnessSpec(1, 0), 0) == 7
    assert mms_oracle(solo, CompactnessSpec(1, 1), 0) == 7  # vertex 2 is isolated
    assert mms_oracle(solo, CompactnessSpec(2, 1), 0) == 12


def test_mms_monotone_in_alpha_and_beta():
    inst = Instance(4, [(0, 1), (2, 3)], [[4, 2, 1, 3], [1, 1, 6, 1]])
    for agent in range(2):
        prev = -1
        for beta in (0, 1, 2):
            cur = mms_oracle(inst, CompactnessSpec(1, beta), agent)
            assert cur >= prev
            prev = cur
        prev = -1
        for alpha in (1, 2, 3):
            cur = mms_oracle(inst, CompactnessSpec(alpha, 1), agent)
            assert cur >= prev
            prev = cur


def test_pareto_examples():
    inst = Instance(2, [], [[1, 0], [0, 5]])
    best = Allocation.of([{0}, {1}])
    assert utilitarian_welfare(inst, best) == 6
    assert is_pareto_optimal(inst, best)
    assert not is_pareto_optimal(inst, Allocation.empty(2))
    solo = Instance(2, [], [[1, 1]])
    assert is_pareto_optimal(solo, Allocation.of([{0, 1}]))


def test_solve_oracle_ef_po():
    inst = Instance(2, [], [[4, 1], [1, 4]])
    alloc = solve_oracle(inst, CompactnessSpec(1, 0), FairnessGoal.EF_PARETO)
    assert alloc is not None
    assert is_pareto_optimal(inst, alloc)
    assert alloc.bundles == (frozenset([0]), frozenset([1]))


def test_returned_allocations_verify():
    inst = Instance(4, [(0, 1), (1, 2), (2, 3)], [[2, 1, 3, 2], [1, 4, 1, 1]])
    for goal in FairnessGoal:
        for spec in (CompactnessSpec(1, 1), CompactnessSpec(2, 0, strong=True)):
            alloc = solve_oracle(inst, spec, goal)
            if alloc is not None:
                assert is_compact_allocation(inst, alloc, spec)


def test_maximin_solution_respects_thresholds():
    inst = Instance(3, [(0, 1)], [[3, 1, 2], [2, 2, 2]])
    spec = CompactnessSpec(1, 1)
    thresholds = mms_all(inst, spec)
    alloc = solve_oracle(inst, spec, FairnessGoal.MAXIMIN)
    assert alloc is not None
    for i in range(2):
        assert bundle_value(inst, i, alloc.bundles[i]) >= thresholds[i]


def test_scan_matches_product_reference():
    rng = random.Random(20231)
    cases = [(0, n) for n in (1, 2, 3)]
    cases += [(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(210)]
    for m, n in cases:
        inst = random_instance(rng, m, n, vmax=9, shape="edgeless")
        want = list(product_scan(inst))
        diag = [(d, tuple(k), tuple(mat[i][i] for i in range(n))) for d, k, mat in want]
        full = [(d, tuple(k), tuple(map(tuple, mat))) for d, k, mat in want]
        assert [(tuple(d), tuple(k), tuple(v)) for d, k, v in oracle._scan(inst)] == diag
        assert [
            (tuple(d), tuple(k), tuple(map(tuple, mat)))
            for d, k, mat in oracle._scan(inst, matrix=True)
        ] == full


def test_mms_all_matches_per_agent_rebuild():
    rng = random.Random(7)
    specs = [
        CompactnessSpec(1, 0),
        CompactnessSpec(1, 1),
        CompactnessSpec(2, 1),
        CompactnessSpec(1, 2, strong=True),
        CompactnessSpec(2, 1, strong=True),
    ]
    for _ in range(40):
        inst = random_instance(rng, rng.randint(0, 6), rng.randint(1, 3), vmax=9)
        n, rows = inst.n, inst.values
        for spec in specs:
            cache = BundleCompactnessCache(inst, spec)
            best = [0] * n
            for digits, masks, _mat in product_scan(inst):
                if not all(cache.check_mask(mk) for mk in masks):
                    continue
                for i in range(n):
                    per = [0] * n
                    for z, a in enumerate(digits):
                        if a < n:
                            per[a] += rows[i][z]
                    best[i] = max(best[i], min(per))
            assert mms_all(inst, spec) == best, (inst.m, inst.edges, rows, spec)
        # the callers that keep what the scan yields must copy it
        assert distinct_utility_vectors(inst) == {
            tuple(mat[i][i] for i in range(n)) for _d, _k, mat in product_scan(inst)
        }
        assert list(enumerate_allocations(inst)) == [
            Allocation(tuple(frozenset(z for z in range(inst.m) if mk >> z & 1) for mk in masks))
            for _d, masks, _mat in product_scan(inst)
        ]
