import json

import pytest
from hypothesis import given, strategies as st

from compactfd import (
    Allocation,
    CompactnessSpec,
    Instance,
    instance_from_dict,
    instance_to_dict,
    is_complete,
    is_envy_free,
    is_proportional,
    total_value,
    utilitarian_welfare,
    validate_allocation,
)
from compactfd.model import bundle_value


def test_total_value_examples():
    empty = Instance(0, [], [[]])
    assert total_value(empty, 0) == 0
    inst = Instance(4, [], [[3, 1, 2, 2]])
    assert total_value(inst, 0) == 8
    two = Instance(2, [], [[1, 1], [5, 0]])
    assert total_value(two, 0) == 2
    assert total_value(two, 1) == 5
    with pytest.raises(ValueError):
        total_value(two, 2)


def test_proportionality_examples():
    inst = Instance(3, [(0, 1), (1, 2)], [[1, 2, 3]])
    assert is_proportional(inst, Allocation.of([{0, 1, 2}]))
    iso = Instance(2, [], [[1, 1], [1, 1]])
    assert is_proportional(iso, Allocation.of([{0}, {1}]))
    skew = Instance(2, [], [[3, 1], [3, 1]])
    assert not is_proportional(skew, Allocation.of([{0}, {1}]))


def test_envy_free_examples():
    skew = Instance(2, [], [[3, 1], [3, 1]])
    assert is_envy_free(skew, Allocation.empty(2))
    same = Instance(2, [], [[2, 2], [2, 2]])
    assert is_envy_free(same, Allocation.of([{0}, {1}]))
    assert not is_envy_free(skew, Allocation.of([{0}, {1}]))


def test_complete_examples():
    empty = Instance(0, [], [[]])
    assert is_complete(empty, Allocation.empty(1))
    inst = Instance(3, [], [[1, 1, 1], [1, 1, 1]])
    assert not is_complete(inst, Allocation.of([{0}, {1}]))
    assert is_complete(inst, Allocation.of([{0, 2}, {1}]))


def test_welfare_examples():
    inst = Instance(4, [], [[3, 1, 2, 2]])
    assert utilitarian_welfare(inst, Allocation.empty(1)) == 0
    assert utilitarian_welfare(inst, Allocation.of([{0, 1, 2, 3}])) == 8
    two = Instance(2, [], [[1, 0], [0, 5]])
    assert utilitarian_welfare(two, Allocation.of([{0}, {1}])) == 6


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(2, [(0, 0)], [[1, 1]])  # self-loop
    with pytest.raises(ValueError):
        Instance(2, [(0, 1), (1, 0)], [[1, 1]])  # duplicate edge
    with pytest.raises(ValueError):
        Instance(2, [(0, 2)], [[1, 1]])  # out of range
    with pytest.raises(ValueError):
        Instance(2, [], [[1]])  # short row
    with pytest.raises(ValueError):
        Instance(2, [], [[1, -1]])  # negative
    with pytest.raises(ValueError):
        Instance(2, [], [])  # no agents
    # non-integers and booleans are rejected, not coerced
    for m, edges, values in [
        (2, [(0.7, 1)], [[1, 1]]),
        (2, [(0, True)], [[1, 1]]),
        (2, [("0", 1)], [[1, 1]]),
        (1, [], [[1.5]]),
        (1, [], [[1.0]]),
        (1, [], [[True]]),
        (1, [], [["3"]]),
        (True, [], [[1]]),
        (2.0, [], [[1, 1]]),
        ("3", [], [[1, 1, 1]]),
    ]:
        with pytest.raises(ValueError):
            Instance(m, edges, values)
    # agent names must be strings
    for name in [5, None, b"a", ["a"]]:
        with pytest.raises(ValueError):
            Instance(1, [], [[1]], agent_names=[name])


def test_allocation_validation():
    inst = Instance(3, [], [[1, 1, 1], [1, 1, 1]])
    validate_allocation(inst, Allocation.of([{0}, {1, 2}]))
    with pytest.raises(ValueError):
        validate_allocation(inst, Allocation.of([{0}, {0}]))
    with pytest.raises(ValueError):
        validate_allocation(inst, Allocation.of([{3}, set()]))
    with pytest.raises(ValueError):
        validate_allocation(inst, Allocation.of([{0}]))


def test_spec_validation():
    with pytest.raises(ValueError):
        CompactnessSpec(0, 0)
    with pytest.raises(ValueError):
        CompactnessSpec(1, -1)
    assert CompactnessSpec(2, 1, strong=True).strong
    for alpha, beta in [(1.0, 1), (True, 1), ("2", 1), (1, 0.0), (1, False), (1, "1")]:
        with pytest.raises(ValueError):
            CompactnessSpec(alpha, beta)
    for strong in ["no", "", 0, 1, None]:
        with pytest.raises(ValueError):
            CompactnessSpec(1, 1, strong=strong)


def test_json_round_trip():
    inst = Instance(3, [(0, 1), (1, 2)], [[1, 2, 3], [3, 2, 1]], agent_names=["a", "b"])
    data = json.loads(json.dumps(instance_to_dict(inst)))
    back = instance_from_dict(data)
    assert back.m == inst.m and back.edges == inst.edges and back.values == inst.values
    assert back.agent_names == ("a", "b")


def test_json_rejects_bad_inputs():
    base = instance_to_dict(Instance(2, [(0, 1)], [[1, 2]]))
    bad = json.loads(json.dumps(base))
    bad["edges"] = [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        instance_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["agents"][0]["values"] = [1]
    with pytest.raises(ValueError):
        instance_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["agents"][0]["values"] = [1, -2]
    with pytest.raises(ValueError):
        instance_from_dict(bad)
    with pytest.raises(ValueError):
        instance_from_dict({"m": 1, "edges": []})
    # non-integral and boolean numbers are rejected, not truncated
    for key, bad_value in [
        ("m", 2.9),
        ("m", True),
        ("edges", [[0, 1.7]]),
        ("edges", [[False, 1]]),
        ("values", [2.5, 1]),
        ("values", [2, True]),
    ]:
        bad = json.loads(json.dumps(base))
        if key == "values":
            bad["agents"][0]["values"] = bad_value
        else:
            bad[key] = bad_value
        with pytest.raises(ValueError):
            instance_from_dict(bad)
    # a name that is not a string is rejected, not stringified
    for bad_name in [None, {"x": 1}, 5, ["a"], True]:
        bad = json.loads(json.dumps(base))
        bad["agents"][0]["name"] = bad_name
        with pytest.raises(ValueError):
            instance_from_dict(bad)
    ok = json.loads(json.dumps(base))
    ok["m"] = 2.0
    assert instance_from_dict(ok).m == 2


@given(
    st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), min_size=2, max_size=3),
    st.integers(1, 5),
    st.data(),
)
def test_fairness_invariant_under_scaling(rows, factor, data):
    """Scaling one agent's values leaves both predicates unchanged: they only
    compare that agent's own valuations."""
    inst = Instance(3, [], rows)
    n = inst.n
    digits = data.draw(st.lists(st.integers(0, n), min_size=3, max_size=3))
    bundles = [set() for _ in range(n)]
    for z, a in enumerate(digits):
        if a < n:
            bundles[a].add(z)
    alloc = Allocation.of(bundles)
    who = data.draw(st.integers(0, n - 1))
    scaled_rows = [
        [x * factor for x in row] if i == who else list(row) for i, row in enumerate(rows)
    ]
    scaled = Instance(3, [], scaled_rows)
    assert is_proportional(inst, alloc) == is_proportional(scaled, alloc)
    assert is_envy_free(inst, alloc) == is_envy_free(scaled, alloc)


@given(
    st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4), min_size=1, max_size=3),
    st.data(),
)
def test_bundle_value_bounded_by_total(rows, data):
    inst = Instance(4, [], rows)
    n = inst.n
    digits = data.draw(st.lists(st.integers(0, n), min_size=4, max_size=4))
    bundles = [set() for _ in range(n)]
    for z, a in enumerate(digits):
        if a < n:
            bundles[a].add(z)
    alloc = Allocation.of(bundles)
    for i in range(n):
        assert bundle_value(inst, i, alloc.bundles[i]) <= total_value(inst, i)
    if is_complete(inst, alloc):
        assert sum(len(b) for b in alloc.bundles) == inst.m
