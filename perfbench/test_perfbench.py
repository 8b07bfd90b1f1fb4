"""Self-tests of the benchmark: span arithmetic, the tail rule, the checker.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import latency  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# spans and self time


def _scripted(monkeypatch, times):
    ticks = iter(times)
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))


def test_self_time_subtracts_direct_children(monkeypatch):
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    _scripted(monkeypatch, [0, 1, 3, 4, 5, 6, 8, 10])
    t = tracing.Tracer()
    a = t.open("cli.main")
    b = t.open("model.load")
    t.close(b)
    c = t.open("tw_dp.sweep")
    d = t.open("tw_dp.join")
    t.close(d)
    t.close(c)
    t.close(a)
    assert tracing.self_times(t) == [4, 2, 3, 1]
    totals = tracing.span_totals(t)
    assert totals["cli"]["self_s"] == 4
    assert totals["tw_dp"]["self_s"] == 4  # sweep 3 + join 1
    assert totals["tw_dp"]["entry_calls"] == 1 and totals["tw_dp"]["entry_s"] == 4
    assert totals["tw_dp.join"]["calls"] == 1 and totals["tw_dp.join"]["s"] == 1


def test_bookkeeping_is_kept_out_of_program_layers(monkeypatch):
    # sweep [0, 10] holds join [1, 4] and the join's bookkeeping [4, 7]
    _scripted(monkeypatch, [0, 1, 4, 4, 7, 10])
    t = tracing.Tracer()
    sweep = t.open("tw_dp.sweep")
    join = t.open("tw_dp.join")
    t.close(join)
    book = t.open(tracing.BOOKKEEPING)
    t.close(book)
    t.close(sweep)
    totals = tracing.span_totals(t)
    assert totals["tw_dp.sweep"]["s"] == 7
    assert totals["tw_dp"]["self_s"] == 4 + 3
    assert totals["trace"]["self_s"] == 3


def test_failed_bookkeeping_leaves_the_call_alone():
    t = tracing.Tracer()

    def unreadable(_result, _args):
        raise KeyError("layout changed")

    wrapped = tracing._timed(t, "tw_dp.join", lambda x: x + 1, unreadable)
    assert wrapped(1) == 2
    assert t.counts["trace.bookkeeping_errors"] == 1
    assert [t.span_name(i) for i in range(len(t))] == ["tw_dp.join", tracing.BOOKKEEPING]


def test_spans_record_parent_and_request(tmp_path):
    t = tracing.Tracer()
    t.request = 7
    outer = t.open("cli.main")
    inner = t.open("oracle.solve")
    t.close(inner)
    t.close(outer)
    assert list(t.parent) == [-1, outer]
    assert list(t.request_of) == [7, 7]
    t.write(str(tmp_path / "spans.csv.gz"))
    import gzip

    with gzip.open(tmp_path / "spans.csv.gz", "rt") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "request,span,parent,name,start,end"
    assert lines[2].startswith("7,1,0,oracle.solve,")


# ---------------------------------------------------------------------------
# the tail rule


@pytest.mark.parametrize(
    "n, pct, value",
    [(100, 90, 90), (20, 50, 10), (50, 80, 40), (200, 95, 190), (11, 9, 1)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, value):
    got = latency.tail_percentile(list(range(n, 0, -1)))
    assert got == (pct, value, 10)


def test_tail_counts_only_samples_strictly_beyond():
    # nearest-rank p90 of these is 5, but only 9 samples exceed it
    samples = [1] * 80 + [5] * 11 + [9] * 9
    pct, value, beyond = latency.tail_percentile(samples)
    assert value == 1 and beyond == 20 and pct == 80


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        latency.tail_percentile(list(range(10)))


# ---------------------------------------------------------------------------
# the checker

# path 0-1-2-3; agent 0 likes the left end, agent 1 the right end
PATH = {"m": 4, "edges": [[0, 1], [1, 2], [2, 3]],
        "agents": [{"values": [3, 2, 0, 1]}, {"values": [0, 1, 3, 2]}]}


def _yes(bundles, mms=None):
    values = [[sum(a["values"][z] for z in b) for b in bundles] for a in PATH["agents"]]
    out = {"answer": "yes", "bundles": bundles, "values": values}
    if mms is not None:
        out["mms"] = mms
    return json.dumps(out)


def _reference(alpha, beta, strong):
    return checker.references(PATH, [(alpha, beta, strong)])[alpha, beta, strong]


def _check(goal, stdout, alpha=1, beta=1, strong=False, code=0):
    ref = _reference(alpha, beta, strong)
    return checker.check_response(PATH, goal, alpha, beta, strong, ref, code, stdout)


def test_reference_matches_hand_count():
    ref = _reference(1, 1, False)
    # a bundle is a run of at most three path vertices: agent 0 can split
    # {0} | {1,2,3} into 3 and 3, agent 1 at best {1,2} | {3} into 4 and 2
    assert ref.mms == (3, 2)
    assert ref.has("prop") and ref.has("mms") and ref.has("ef-complete")


def test_oracle_walk_visits_every_assignment_once():
    seen = list(checker._compact_assignments(3, 0b1111, [True] * 16))
    assert len(seen) == len(set(seen)) == 4 ** 4
    assert all(x[i] & x[j] == 0 for x in seen for i in range(3) for j in range(i))


def test_several_specs_match_one_at_a_time():
    specs = [(1, 0, False), (1, 1, False), (2, 1, True)]
    together = checker.references(PATH, specs)
    assert together == {spec: _reference(*spec) for spec in specs}


def test_checker_accepts_a_correct_answer():
    assert _check("prop", _yes([[0, 1], [2, 3]])) is None
    assert _check("mms", _yes([[0, 1], [2, 3]], mms=[3, 2])) is None
    assert _check("ef-complete", _yes([[0, 1], [2, 3]])) is None


def test_checker_flags_a_non_proportional_allocation():
    assert "proportional" in _check("prop", _yes([[2], [0, 1]]))


def test_checker_flags_a_non_compact_allocation():
    # {0, 3} is disconnected, so no single ball covers it
    reason = _check("prop", _yes([[0, 3], [1, 2]]))
    assert "not compact" in reason
    assert "not compact" in _check("prop", _yes([[0, 1, 2, 3], []]), beta=0)


def test_checker_flags_a_wrong_mms_value():
    assert "mms" in _check("mms", _yes([[0, 1], [2, 3]], mms=[3, 3]))
    assert "maximin" in _check("mms", _yes([[1], [2, 3]], mms=[3, 2]))


def test_checker_flags_wrong_answers_and_bad_output():
    assert "reference has a witness" in _check("prop", '{"answer": "no"}')
    assert "exit code" in _check("prop", "", code=2)
    assert "not one JSON" in _check("prop", "method: oracle")
    bad_values = json.loads(_yes([[0, 1], [2, 3]]))
    bad_values["values"][0][0] += 1
    assert "printed values" in _check("prop", json.dumps(bad_values))
    assert "overlap" in _check("prop", _yes([[0, 1], [1, 2]]))
    assert "not complete" in _check("ef-complete", _yes([[0, 1], [3]]))


def test_a_broken_recogniser_shows_as_a_disagreement(monkeypatch):
    from compactfd import compactness

    real = compactness.is_compact
    # reject every three-vertex bundle, which (1, 1) allows on the path
    monkeypatch.setattr(compactness, "is_compact",
                        lambda g, alpha, beta: None if len(g.vertices) == 3 else real(g, alpha, beta))
    with pytest.raises(ValueError, match="disagree"):
        checker.references(PATH, [(1, 1, False)])


def test_strong_compactness_is_pairwise():
    adj = checker._adjacency(4, PATH["edges"])
    # {0,1,2} is one radius-1 ball, but 0 and 2 are two apart
    assert checker.bundle_is_compact(adj, frozenset({0, 1, 2}), 1, 1, False)
    assert not checker.bundle_is_compact(adj, frozenset({0, 1, 2}), 1, 1, True)
    assert checker.bundle_is_compact(adj, frozenset({0, 1, 2}), 2, 1, True)


def test_cli_responses_pass_the_checker(tmp_path):
    from compactfd import cli

    path = tmp_path / "path.json"
    path.write_text(json.dumps(PATH))
    for method in ("oracle", "enum", "tw-dp"):
        for goal in ("prop", "mms", "welfare", "ef-complete"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["solve", str(path), "--goal", goal, "--method", method,
                                 "--alpha", "1", "--beta", "1"])
            assert _check(goal, buf.getvalue(), code=code) is None, (method, goal)


# ---------------------------------------------------------------------------
# workloads and the traced run


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded_and_never_repeat_a_request(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.ROUNDS, workload, 3)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = workloads.build(workload, 5, str(a))
    assert first == workloads.build(workload, 5, str(b))
    for req in first:
        assert (a / req.instance).read_text() == (b / req.instance).read_text()
    keys = [(r.instance, r.goal, r.method, r.alpha, r.beta, r.strong) for r in first]
    assert len(set(keys)) == len(keys)
    assert all("--jobs" in r.argv(str(a)) for r in first)


def test_a_missing_name_is_reported():
    from types import SimpleNamespace

    undo, missing = [], []
    ns = SimpleNamespace(f=lambda: 1, g=lambda: 2)
    tracing._replace(undo, missing, ns, "gone", lambda fn: fn)
    tracing._replace(undo, missing, ns, "f", lambda fn: (lambda: fn() + 1))
    tracing._replace(undo, missing, ns, "g", lambda fn: fn, property)  # no longer a property
    assert not hasattr(ns, "gone") and ns.f() == 2
    assert [(owner, attr) for owner, attr, _ in undo] == [(ns, "f")]
    assert [name.rsplit(".", 1)[1] for name in missing] == ["gone", "g"]


def test_install_reports_a_renamed_hook(monkeypatch):
    from compactfd import tw_dp

    monkeypatch.delattr(tw_dp, "join_transition")
    uninstall, missing = tracing.install(tracing.Tracer())
    uninstall()
    assert missing == ["compactfd.tw_dp.join_transition"]


def test_install_wraps_and_restores_every_attribute(tmp_path):
    from compactfd import cli, compactness, tw_dp

    before = (cli.main, tw_dp.join_transition, compactness.BundleCompactnessCache.check_mask)
    tracer = tracing.Tracer()
    uninstall, missing = tracing.install(tracer)
    assert missing == []
    try:
        path = tmp_path / "path.json"
        path.write_text(json.dumps(PATH))
        with redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(path), "--goal", "mms", "--method", "tw-dp",
                             "--alpha", "1", "--beta", "1"]) == 0
    finally:
        uninstall()
    assert before == (cli.main, tw_dp.join_transition,
                      compactness.BundleCompactnessCache.check_mask)
    metrics = tracing.layer_metrics(tracer, 1, 0.0, 0.0)
    assert metrics["tw_dp.sweeps"][0] > 0
    assert metrics["tw_dp.witness_calls"][0] == 1
    assert metrics["cli.mms_recompute_s"][0] > 0
    assert metrics["oracle.passes"][0] == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = tracing.layer_metrics(tracing.Tracer(), 1, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in names.items()
    }
    assert {m["name"] for m in spec["end_to_end"]} == {
        "requests_per_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb",
    }
