"""Property-based differential tests: on tiny instances, every exact solver
must agree with the oracle where it applies (enum and tw-dp on non-strong
specs, matching on (1, 0), the path DP on paths with alpha = 1), and every
"yes" must meet its goal by the model's own predicates.  enum must also
return exactly the first allocation of its own plain stream that meets the
goal, strong specs included, and so must tw-dp: the first accepted root
matrix of its per-tuple DPs, read in tuple order."""
from operator import le

from hypothesis import example, given, settings
from hypothesis import strategies as st

from compactfd import CompactnessSpec, Instance, goals, is_compact_allocation, lift_allocation
from compactfd.annotate import build_annotated, center_tuples
from compactfd.enum_solver import (
    DEFAULT_WORK_BUDGET,
    _BundleSource,
    answer_enum,
    enumerate_compact_allocations,
)
from compactfd.matching import mms_10, solve_mms_10, solve_prop_10
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
from compactfd.path_dp import PathInstance, solve_prop_path_agents
from compactfd.tw_dp import _nice_for, answer_tw, mms_tw_all, run_dp, solve_tw_goals

FIRST_HIT = (FairnessGoal.PROPORTIONAL, FairnessGoal.EF_COMPLETE, FairnessGoal.MAX_WELFARE)


@st.composite
def instances(draw, max_agents=2, path=False, min_agents=1, max_items=5):
    m = draw(st.integers(1, max_items))
    n = draw(st.integers(min_agents, max_agents))
    if path:
        edges = [(v, v + 1) for v in range(m - 1)]
    else:
        pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    row = st.lists(st.integers(0, 4), min_size=m, max_size=m)
    values = draw(st.lists(row, min_size=n, max_size=n))
    return Instance(m, edges, values)


@st.composite
def cases(draw, max_beta=2, **shape):
    inst = draw(instances(**shape))
    alpha, beta = draw(st.integers(1, 2)), draw(st.integers(0, max_beta))
    # alpha and beta may also move to m or past it, which names the class of
    # alpha m and beta m - 1.  At alpha m every assignment of the items to the
    # agents or to no one is a center tuple, and tw-dp sweeps up to (n + 1)^m
    # of them, so those draws stay where that is at most 27.
    if (inst.n + 1) ** inst.m <= 27:
        past_m = st.sampled_from([None, inst.m, inst.m + 1, 10**9])
        alpha, beta = draw(past_m) or alpha, draw(past_m) or beta
    return inst, CompactnessSpec(alpha, beta)


def meets(inst, spec, goal, alloc, shares=None) -> bool:
    if not is_compact_allocation(inst, alloc, spec):
        return False
    if goal is FairnessGoal.PROPORTIONAL:
        return is_proportional(inst, alloc)
    if goal is FairnessGoal.EF_COMPLETE:
        return is_envy_free(inst, alloc) and is_complete(inst, alloc)
    if goal is FairnessGoal.MAX_WELFARE:
        return utilitarian_welfare(inst, alloc) == max_welfare_upper(inst)
    if goal is FairnessGoal.EF_PARETO:
        return is_envy_free(inst, alloc)
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
    check_mms(inst, spec)


def check_mms(inst, spec):
    want = mms_all(inst, spec)
    assert mms_tw_all(inst, spec) == want  # the share pass alone
    found = solve_oracle(inst, spec, FairnessGoal.MAXIMIN) is not None
    for solver in (answer_enum, answer_tw):
        got, shares = solver(inst, spec, FairnessGoal.MAXIMIN)
        assert shares == want, solver.__name__
        assert (got is not None) == found, solver.__name__
        assert got is None or meets(inst, spec, FairnessGoal.MAXIMIN, got, shares)


# three agents multiply the DP states; m <= 4 and beta <= 1 keep this short
@settings(derandomize=True, deadline=None, max_examples=60)
@given(cases(max_beta=1, min_agents=3, max_agents=3, max_items=4))
def test_three_agent_mms_agrees_with_the_oracle(case):
    check_mms(*case)


# the goal layer's ef-po predicate, which enum and tw-dp share
@settings(derandomize=True, deadline=None, max_examples=100)
@given(cases(max_agents=3))
def test_enum_ef_po_agrees_with_the_oracle(case):
    inst, spec = case
    want = solve_oracle(inst, spec, FairnessGoal.EF_PARETO)
    for solver in (answer_enum, answer_tw):
        got, shares = solver(inst, spec, FairnessGoal.EF_PARETO)
        assert shares is None
        assert (got is None) == (want is None), solver.__name__
        assert got is None or meets(inst, spec, FairnessGoal.EF_PARETO, got), solver.__name__


def value_matrix(inst, alloc):
    return tuple(bundle_value(inst, i, b) for i in range(inst.n) for b in alloc.bundles)


# the group bounds decide which allocations enum reads, never which it returns;
# the two n = 1 examples pin ef-complete when the first agent is the last
@settings(derandomize=True, deadline=None, max_examples=150)
@given(cases(max_agents=3, max_items=6), st.booleans())
@example((Instance(2, [(0, 1)], [[1, 2]]), CompactnessSpec(1, 0)), False)
@example((Instance(2, [(0, 1)], [[1, 2]]), CompactnessSpec(1, 1)), False)
def test_enum_answers_with_the_first_match_of_its_stream(case, strong):
    inst, spec = case
    spec = CompactnessSpec(spec.alpha, spec.beta, strong)
    stream = list(enumerate_compact_allocations(inst, spec))
    complete = [alloc for alloc in stream if is_complete(inst, alloc)]
    shares = mms_all(inst, spec)
    for goal in FairnessGoal:
        if goal is FairnessGoal.EF_PARETO and inst.m > 5:
            continue
        accept = goals.accepts(inst, goal, shares)
        candidates = complete if goal is FairnessGoal.EF_COMPLETE else stream
        want = next((a for a in candidates if accept(value_matrix(inst, a))), None)
        got, got_shares = answer_enum(inst, spec, goal)
        assert got == want, goal
        assert got_shares == (shares if goal is FairnessGoal.MAXIMIN else None), goal
    # every group's bound holds, and the groups in order are the stream
    for flag, want in ((False, stream), (True, complete)):
        source = _BundleSource(inst, spec, DEFAULT_WORK_BUDGET)
        flat = []
        for ub, matrices in source.groups(flag):
            for w, key in matrices():
                flat.append(source.witness(key, w))
                assert w == value_matrix(inst, flat[-1]) and all(map(le, w, ub))
        assert flat == want


def plain_tw_stream(inst, spec, complete):
    """Every center tuple's sorted root matrices, each with its root table,
    in `center_tuples` order; a complete goal reads no tuple whose balls
    miss a vertex."""
    for centers in center_tuples(inst, spec.alpha):
        ann = build_annotated(inst, centers, spec.beta)
        if complete and not ann.prunes_nothing:
            continue
        table = run_dp(ann, _nice_for(ann, None), complete)
        yield from ((w, table) for w in sorted(table.root_weights()))


# the group bounds, the best-bound-first share pass and the kept root matrices
# decide which tuples tw-dp sweeps, never which allocation it returns
@settings(derandomize=True, deadline=None, max_examples=60)
@given(cases())
def test_tw_dp_answers_with_the_first_match_of_its_plain_stream(case):
    inst, spec = case
    shares = mms_all(inst, spec)
    streams = {flag: list(plain_tw_stream(inst, spec, flag)) for flag in (False, True)}
    answers = {}
    for goal in FairnessGoal:
        accept = goals.accepts(inst, goal, shares)
        stream = streams[goal is FairnessGoal.EF_COMPLETE]
        hit = next(((w, table) for w, table in stream if accept(w)), None)
        want = None
        if hit is not None:
            w, table = hit
            want = lift_allocation(table.ann, table.extract(table.root_state_for(w)))
        got, got_shares = answer_tw(inst, spec, goal)
        assert got == want, goal
        assert got_shares == (shares if goal is FairnessGoal.MAXIMIN else None), goal
        answers[goal] = got
    assert solve_tw_goals(inst, spec, FairnessGoal) == answers


@settings(derandomize=True, deadline=None, max_examples=150)
@given(instances(max_agents=3))
def test_matching_agrees_with_the_oracle(inst):
    spec = CompactnessSpec(1, 0)
    want = solve_oracle(inst, spec, FairnessGoal.PROPORTIONAL)
    got = solve_prop_10(inst)
    assert (got is None) == (want is None)
    assert got is None or meets(inst, spec, FairnessGoal.PROPORTIONAL, got)
    shares = [mms_10(inst, i) for i in range(inst.n)]
    assert shares == mms_all(inst, spec)
    want = solve_oracle(inst, spec, FairnessGoal.MAXIMIN)
    got = solve_mms_10(inst)
    assert (got is None) == (want is None)
    assert got is None or meets(inst, spec, FairnessGoal.MAXIMIN, got, shares)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(instances(max_agents=3, path=True), st.integers(0, 2), st.booleans())
def test_path_dp_agrees_with_the_oracle(inst, beta, strong):
    spec = CompactnessSpec(1, beta, strong)
    want = solve_oracle(inst, spec, FairnessGoal.PROPORTIONAL)
    got = solve_prop_path_agents(PathInstance(inst), beta, strong)
    assert (got is None) == (want is None), (inst.values, beta, strong)
    assert got is None or meets(inst, spec, FairnessGoal.PROPORTIONAL, got)
