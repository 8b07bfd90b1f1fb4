"""Property-based differential test: on tiny instances and non-strong specs,
enum and tw-dp must agree with the oracle, and every "yes" must meet its
goal by the model's own predicates."""
from hypothesis import given, settings
from hypothesis import strategies as st

from compactfd import CompactnessSpec, Instance, is_compact_allocation
from compactfd.enum_solver import answer_enum
from compactfd.model import (
    FairnessGoal,
    bundle_value,
    is_complete,
    is_envy_free,
    is_proportional,
    max_welfare_upper,
    utilitarian_welfare,
)
from compactfd.oracle import mms_all, solve_oracle
from compactfd.tw_dp import answer_tw

FIRST_HIT = (FairnessGoal.PROPORTIONAL, FairnessGoal.EF_COMPLETE, FairnessGoal.MAX_WELFARE)


@st.composite
def cases(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 2))
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    row = st.lists(st.integers(0, 4), min_size=m, max_size=m)
    values = draw(st.lists(row, min_size=n, max_size=n))
    spec = CompactnessSpec(draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    return Instance(m, edges, values), spec


def meets(inst, spec, goal, alloc, shares=None) -> bool:
    if not is_compact_allocation(inst, alloc, spec):
        return False
    if goal is FairnessGoal.PROPORTIONAL:
        return is_proportional(inst, alloc)
    if goal is FairnessGoal.EF_COMPLETE:
        return is_envy_free(inst, alloc) and is_complete(inst, alloc)
    if goal is FairnessGoal.MAX_WELFARE:
        return utilitarian_welfare(inst, alloc) == max_welfare_upper(inst)
    return all(bundle_value(inst, i, alloc.bundles[i]) >= shares[i] for i in range(inst.n))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cases())
def test_enum_and_tw_dp_agree_with_the_oracle(case):
    inst, spec = case
    for goal in FIRST_HIT:
        want = solve_oracle(inst, spec, goal)
        assert want is None or meets(inst, spec, goal, want)
        for solver in (answer_enum, answer_tw):
            got, shares = solver(inst, spec, goal)
            assert shares is None
            assert (got is None) == (want is None), (solver.__name__, goal)
            assert got is None or meets(inst, spec, goal, got), (solver.__name__, goal)
    want = mms_all(inst, spec)
    for solver in (answer_enum, answer_tw):
        got, shares = solver(inst, spec, FairnessGoal.MAXIMIN)
        assert shares == want, solver.__name__
        assert got is None or meets(inst, spec, FairnessGoal.MAXIMIN, got, shares)
