import json
import resource
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compactfd import cli, enum_solver, oracle, tw_dp
from compactfd.annotate import count_center_tuples
from compactfd.cli import main
from compactfd.oracle import mms_oracle
from compactfd.model import Allocation, CompactnessSpec, Instance, instance_from_dict
from compactfd.compactness import is_compact_allocation
from compactfd.model import is_proportional


@pytest.fixture
def partition_instance(tmp_path, capsys):
    rc = main(["gen", "partition", "--numbers", "3,1,2,2"])
    assert rc == 0
    text = capsys.readouterr().out
    path = tmp_path / "inst.json"
    path.write_text(text)
    return path, json.loads(text)


def test_gen_and_solve_round_trip(partition_instance, capsys):
    path, data = partition_instance
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes"
    # the printed allocation re-verifies against the instance
    inst = instance_from_dict(data)
    from compactfd.model import Allocation

    alloc = Allocation.of(out["bundles"])
    assert is_compact_allocation(inst, alloc, CompactnessSpec(1, 1))
    assert is_proportional(inst, alloc)
    assert out["values"][0][0] == sum(data["agents"][0]["values"][z] for z in out["bundles"][0])


def test_recognize_star(tmp_path, capsys):
    star = {
        "m": 4,
        "edges": [[0, 1], [0, 2], [0, 3]],
        "agents": [{"values": [1, 1, 1, 1]}],
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(star))
    rc = main(["recognize", str(path), "--alpha", "1", "--beta", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"compact": True, "witness": [0]}
    rc = main(["recognize", str(path), "--alpha", "1", "--beta", "1", "--strong"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"compact": False}


def test_methods_agree(partition_instance, capsys):
    path, _ = partition_instance
    answers = {}
    for method in ["oracle", "enum", "tw-dp"]:
        rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
                   "--method", method])
        assert rc == 0
        answers[method] = json.loads(capsys.readouterr().out)["answer"]
    assert len(set(answers.values())) == 1


def test_mms_methods(tmp_path, capsys):
    data = {"m": 3, "edges": [], "agents": [{"values": [5, 3, 2]}, {"values": [5, 3, 2]}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    for method in ["oracle", "matching", "tw-dp"]:
        rc = main(["mms", str(path), "--alpha", "1", "--beta", "0", "--agent", "0",
                   "--method", method])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == 3


@pytest.mark.parametrize("method", ["oracle", "enum", "tw-dp"])
def test_mms_solve_takes_shares_from_its_own_pass(method, tmp_path, capsys, monkeypatch):
    data = {
        "m": 5,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
        "agents": [{"values": [3, 1, 2, 2, 1]}, {"values": [1, 2, 2, 1, 3]}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    inst = instance_from_dict(data)
    spec = CompactnessSpec(1, 1)
    shares = [mms_oracle(inst, spec, i) for i in range(inst.n)]

    calls = Counter()
    passes = [
        (tw_dp, "run_dp"),
        (tw_dp, "_witness"),
        (oracle, "mms_all"),
        (enum_solver, "mms_enum"),
        (enum_solver, "enumerate_compact_allocations"),
        (enum_solver, "compact_bundles"),
    ]
    for module, name in passes:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rc = main(["solve", str(path), "--goal", "mms", "--alpha", "1", "--beta", "1",
               "--method", method])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes"
    assert out["mms"] == shares
    expected = {
        "oracle": {"mms_all": 1},
        # the enum goal layer reads one candidate list, grouped by first bundle
        "enum": {"compact_bundles": 1},
        # best bound first: the shares open 6 of the 31 center tuples; the
        # answer walk then re-reads those from memory and sweeps 3 unopened
        # tuples, the last of which yields the answer off its live table (no
        # _witness re-run)
        "tw-dp": {"run_dp": 9},
    }
    assert dict(calls) == expected[method]
    if method == "tw-dp":
        assert calls["run_dp"] < count_center_tuples(inst.m, 1, inst.n) + 1


def test_main_builds_one_parser_and_leaks_no_flags(partition_instance, capsys, monkeypatch):
    path, _ = partition_instance
    specs = []

    def recorded(method, instance, spec, goal, args, _fn=cli._solve_with):
        specs.append((method, spec.strong, goal.value))
        return _fn(method, instance, spec, goal, args)

    monkeypatch.setattr(cli, "_solve_with", recorded)
    cli.build_parser.cache_clear()
    base = ["solve", str(path), "--alpha", "1", "--beta", "1"]
    assert main(base + ["--goal", "mms", "--strong", "--method", "enum"]) == 0
    assert main(base + ["--goal", "prop"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert specs == [("enum", True, "mms"), ("oracle", False, "prop")]
    first, second = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert "mms" in first and "mms" not in second


def test_solve_with_external_td(tmp_path, capsys):
    data = {
        "m": 4,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "agents": [{"values": [1, 1, 1, 1]}, {"values": [1, 1, 1, 1]}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    rc = main(["decompose", str(path), "--out", str(tmp_path / "p.td")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
               "--method", "tw-dp", "--td", str(tmp_path / "p.td")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "yes"


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_solve_rejects_jobs_below_one(jobs, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "edges": [[0, 1]], "agents": [{"values": [1, 1]}]}))
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
               "--method", "tw-dp", "--jobs", jobs])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_solve_accepts_jobs_one_as_a_no_op(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "m": 4,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "agents": [{"values": [2, 1, 1, 2]}, {"values": [1, 2, 2, 1]}],
    }))
    argv = ["solve", str(path), "--alpha", "1", "--beta", "1", "--method", "tw-dp",
            "--goal", "mms"]
    runs = []
    for extra in ([], ["--jobs", "1"]):
        rc = main(argv + extra)
        runs.append((rc, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["answer"] == "yes"


@pytest.mark.parametrize("method", ["oracle", "auto"])
def test_solve_rejects_a_td_that_no_method_reads(method, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "edges": [[0, 1]], "agents": [{"values": [1, 1]}]}))
    for td in (str(tmp_path / "missing.td"), ""):  # an empty path is a path too
        rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
                   "--method", method, "--td", td])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--td" in lines[0]


def test_solve_tw_dp_rejects_an_empty_td_path(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "edges": [[0, 1]], "agents": [{"values": [1, 1]}]}))
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
               "--method", "tw-dp", "--td", ""])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("goal, alpha, beta", [
    ("prop", 1, 1), ("mms", 1, 1), ("welfare", 1, 1), ("ef-complete", 1, 1),
    ("ef-complete", 1, 2),
])
def test_solve_prints_the_same_with_and_without_the_decompose_td(goal, alpha, beta, tmp_path,
                                                                   capsys):
    # without --td every tuple restricts the base graph's min-fill
    # decomposition, which is what `decompose` writes
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "m": 9,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [6, 8], [1, 3]],
        "agents": [{"values": [3, 0, 2, 2, 0, 3, 4, 1, 1]}, {"values": [3, 3, 1, 2, 1, 2, 4, 0, 0]}],
    }))
    td = tmp_path / "p.td"
    assert main(["decompose", str(path), "--out", str(td)]) == 0
    capsys.readouterr()
    argv = ["solve", str(path), "--goal", goal, "--alpha", str(alpha), "--beta", str(beta),
            "--method", "tw-dp"]
    runs = []
    for extra in ([], ["--td", str(td)]):
        assert main(argv + extra) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_solve_uses_the_external_td(tmp_path, capsys, monkeypatch):
    data = {
        "m": 5,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [1, 3]],
        "agents": [{"values": [2, 1, 0, 3, 1]}, {"values": [1, 2, 2, 0, 1]}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    td = tmp_path / "p.td"
    assert main(["decompose", str(path), "--out", str(td)]) == 0
    capsys.readouterr()

    def no_decomposing(graph):
        raise RuntimeError("decomposed although a --td file was given")

    # a sweep or witness that ignores --td decomposes and fails; on this
    # instance every goal reads its witness off the live table, and the mms
    # answer of the second instance (same graph) re-runs its tuple (_witness)
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(
        {**data, "agents": [{"values": [2, 0, 0, 1, 3]}, {"values": [1, 2, 3, 2, 3]}]}
    ))
    witness_calls = []

    def witness(*args, _fn=tw_dp._witness):
        witness_calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(tw_dp, "greedy_decompose", no_decomposing)
    monkeypatch.setattr(tw_dp, "_witness", witness)
    for inst_path, goal in ((path, "mms"), (path, "prop"), (path, "ef-complete"), (rerun, "mms")):
        rc = main(["solve", str(inst_path), "--goal", goal, "--alpha", "1", "--beta", "1",
                   "--method", "tw-dp", "--td", str(td)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["answer"] == "yes"
    assert len(witness_calls) == 1


def test_auto_dispatch(tmp_path, capsys):
    data = {
        "m": 4,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "agents": [{"values": [2, 0, 2, 0]}, {"values": [2, 0, 2, 0]}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "0"])
    assert rc == 0
    err = capsys.readouterr()
    assert json.loads(err.out)["answer"] == "yes"
    assert "matching" in err.err


def test_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["solve", str(missing), "--goal", "prop", "--alpha", "1", "--beta", "1"])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "edges": [[0, 0]], "agents": [{"values": [1, 1]}]}')
    rc = main(["recognize", str(bad), "--alpha", "1", "--beta", "1"])
    assert rc == 2
    capsys.readouterr()
    fractional = tmp_path / "fractional.json"
    fractional.write_text('{"m": 2.9, "edges": [], "agents": [{"values": [1, 1]}]}')
    rc = main(["solve", str(fractional), "--goal", "prop", "--alpha", "1", "--beta", "1"])
    assert rc == 2
    capsys.readouterr()
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text('{"m": 1, "edges": [], "agents": [{"name": null, "values": [1]}]}')
    rc = main(["solve", str(unnamed), "--goal", "prop", "--alpha", "1", "--beta", "1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "m": 12, "edges": [],
        "agents": [{"values": [1] * 12}, {"values": [1] * 12}, {"values": [1] * 12}],
    }))
    rc = main(["solve", str(big), "--goal", "prop", "--alpha", "1", "--beta", "1",
               "--method", "oracle"])
    assert rc == 1  # budget exceeded
    capsys.readouterr()


MISSES = {
    # goal: (a compact allocation that misses it, the shares the solver reports)
    "prop": ([[], []], None),
    "ef-complete": ([[], []], None),
    "welfare": ([[], []], None),
    "mms": ([[], []], [1, 1]),
    "ef-po": ([[0], []], None),
}


@pytest.mark.parametrize("goal", sorted(MISSES))
def test_solve_prints_no_allocation_that_misses_its_goal(goal, tmp_path, capsys, monkeypatch):
    data = {"m": 2, "edges": [[0, 1]], "agents": [{"values": [1, 1]}, {"values": [1, 1]}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    bundles, shares = MISSES[goal]
    monkeypatch.setattr(
        enum_solver, "answer_enum", lambda *args, **kwargs: (Allocation.of(bundles), shares)
    )
    rc = main(["solve", str(path), "--goal", goal, "--alpha", "1", "--beta", "1",
               "--method", "enum"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert goal in err


def _raise_invariant(*args, **kwargs):
    raise RuntimeError("an internal invariant failed")


@pytest.mark.parametrize("owner, name", [(tw_dp, "_state_guard"), (tw_dp.RootTable, "extract")])
def test_internal_invariant_failure_exits_3(owner, name, tmp_path, capsys, monkeypatch):
    data = {"m": 3, "edges": [[0, 1], [1, 2]],
            "agents": [{"values": [2, 1, 1]}, {"values": [1, 1, 2]}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(owner, name, _raise_invariant)
    rc = main(["solve", str(path), "--goal", "prop", "--alpha", "1", "--beta", "1",
               "--method", "tw-dp"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err == "internal error: an internal invariant failed\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "compactfd", "gen", "partition", "--numbers", "2,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["m"] == 2


def _one_cpu_second_in_1_gib():
    resource.setrlimit(resource.RLIMIT_CPU, (1, 1))
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_spec_clamp_floors_keep_the_dispatch_flags(tmp_path, capsys):
    # the flags go to the solvers as given; past m they name the class that
    # alpha max(m, 2) and beta max(m - 1, 1) name, and auto picks the same
    # method and prints the same answer for both (a one-item instance keeps
    # (1, 1), which does not pick matching, and (1, 0), which does)
    one, path = tmp_path / "one.json", tmp_path / "path.json"
    one.write_text(json.dumps({"m": 1, "edges": [], "agents": [{"values": [1]}]}))
    path.write_text(json.dumps({"m": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                                "agents": [{"values": [1, 1, 1, 1]}]}))
    cases = [(one, (1, 1), (1, 1)), (one, (1, 0), (1, 0)), (one, (3, 5), (2, 1)),
             (path, (100, 100), (4, 3)), (path, (2, 2), (2, 2))]
    for inst, flags, in_class in cases:
        for goal in ("prop", "mms"):
            printed = []
            for alpha, beta in (flags, in_class):
                assert main(["solve", str(inst), "--goal", goal, "--alpha", str(alpha),
                             "--beta", str(beta)]) == 0
                out, err = capsys.readouterr()
                assert err.startswith("method: ") and err.count("\n") == 1
                printed.append((out, err))
            assert printed[0] == printed[1], (inst.name, flags, goal)


HUGE = {
    # name: (the subcommand and its flags, the exit code, the flag and value
    # that name the same class within m)
    "td-header": (["solve", "--goal", "prop", "--alpha", "1", "--beta", "1",
                   "--method", "tw-dp", "--td", "{td}"], 2, None),
    "alpha-enum": (["solve", "--goal", "prop", "--alpha", "100000000", "--beta", "1",
                    "--method", "enum"], 0, ("--alpha", "4")),
    "beta-tw-dp": (["solve", "--goal", "prop", "--alpha", "1", "--beta", "100000000",
                    "--method", "tw-dp"], 0, ("--beta", "3")),
    "alpha-mms-tw-dp": (["mms", "--agent", "0", "--alpha", "100000000", "--beta", "1",
                         "--method", "tw-dp"], 0, ("--alpha", "4")),
}


@pytest.mark.parametrize("name", sorted(HUGE))
def test_huge_inputs_answer_or_exit_2_within_a_cpu_second(name, tmp_path, capsys):
    # one child process at a time, under 1 GiB of address space and 1 s of
    # CPU time: work that grows with the .td header or with alpha or beta is
    # killed there instead of filling the machine
    path = tmp_path / "path.json"
    path.write_text(json.dumps({
        "m": 4, "edges": [[0, 1], [1, 2], [2, 3]],
        "agents": [{"values": [1, 2, 3, 4]}, {"values": [4, 3, 2, 1]}],
    }))
    td = tmp_path / "huge.td"
    td.write_text("s td 99999999999 4 4\nb 1 1\n")
    args, code, in_class = HUGE[name]
    argv = [args[0], str(path)] + [a.format(td=td) for a in args[1:]]
    proc = subprocess.run([sys.executable, "-m", "compactfd", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=_one_cpu_second_in_1_gib)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == "" and proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        return
    # alpha or beta past m keeps the compact class, so the answer is the one
    # for the value within m
    flag, value = in_class
    at = argv.index(flag)
    assert main(argv[: at + 1] + [value] + argv[at + 2 :]) == 0
    assert proc.stdout == capsys.readouterr().out


LIBRARY = """
from compactfd import enum_solver, tw_dp
from compactfd.annotate import center_tuples
from compactfd.model import CompactnessSpec as S, FairnessGoal as G, Instance
PATH4 = Instance(4, [(0, 1), (1, 2), (2, 3)], [[1, 2, 3, 4], [4, 3, 2, 1]])
"""
BOUNDED_CALLS = {
    # name: (a library call, its alpha or beta past m, the same within m)
    "answer_tw-beta": ("tw_dp.answer_tw(PATH4, S(1, {}), G.MAXIMIN)", 300, 3),
    "answer_enum-alpha": ("enum_solver.answer_enum(PATH4, S({}, 1), G.PROPORTIONAL)", 10**8, 4),
    "mms_tw_all-alpha": ("tw_dp.mms_tw_all(PATH4, S({}, 1))", 10**8, 4),
    "center_tuples-alpha": ("list(center_tuples(PATH4, {}))", 10**8, 4),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_CALLS))
def test_library_bounds_alpha_and_beta_past_m(name):
    # each loop sized by alpha or beta stops at what it ranges over, so the
    # call answers in a child under 1 s of CPU and 1 GiB, as its class within m
    call, past_m, within_m = BOUNDED_CALLS[name]
    proc = subprocess.run([sys.executable, "-c", f"{LIBRARY}print(repr({call.format(past_m)}))"],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_one_cpu_second_in_1_gib)
    assert proc.returncode == 0, proc.stderr
    namespace: dict = {}
    exec(LIBRARY, namespace)
    assert proc.stdout == repr(eval(call.format(within_m), namespace)) + "\n"


VALID = json.dumps({"m": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                    "agents": [{"values": [1, 2, 3, 4]}, {"values": [4, 3, 2, 1]}]})
_leaf = (st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from([2.5, 1e308, 10**12])
         | st.text(max_size=3))
_json = st.recursive(_leaf, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
    st.sampled_from(["m", "edges", "agents", "values", "name"]), kids, max_size=4), max_leaves=10)
_small = st.integers(-1, 5) | _json
_near_instance = st.fixed_dictionaries({
    "m": _small,
    "edges": st.lists(st.lists(_small, max_size=3), max_size=4) | _json,
    "agents": st.lists(st.fixed_dictionaries({"values": st.lists(_small, max_size=5)},
                                             optional={"name": _json}), max_size=2) | _json,
})
_cut_valid = st.integers(0, len(VALID) - 1).map(lambda k: VALID[:k])
_instance_text = _near_instance.map(json.dumps) | _json.map(json.dumps) | _cut_valid
_token = st.integers(-1, 5).map(str) | st.sampled_from(["99999999999", "x", "1.5", "td"])
_td_line = (st.lists(_token, max_size=3).map(lambda ts: " ".join(["b", *ts]))
            | st.lists(_token, min_size=1, max_size=3).map(" ".join)
            | st.lists(_token, max_size=4).map(lambda ts: " ".join(["s", "td", *ts]))
            | st.just("c a comment"))
_header = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5)).map(
    lambda h: "s td %d %d %d" % h)
_td_text = st.tuples(_header | _td_line, st.lists(_td_line, max_size=5)).map(
    lambda t: "\n".join([t[0], *t[1]]))
_requests = (
    # a malformed instance for each subcommand, or a malformed .td for tw-dp
    st.tuples(_instance_text, st.just(""), st.sampled_from([
        ["recognize"], ["recognize", "--strong"], ["solve", "--goal", "prop"],
        ["solve", "--goal", "mms"], ["solve", "--goal", "welfare", "--method", "enum"],
        ["mms", "--agent", "1"]]))
    | st.tuples(st.just(VALID), _td_text, st.sampled_from([
        ["solve", "--goal", "prop", "--method", "tw-dp", "--td"],
        ["solve", "--goal", "mms", "--method", "tw-dp", "--td"]]))
)


# malformed instance JSON and .td text: every answer is a result or one
# error line, and no exception escapes main
@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_requests, st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 10**8]))
def test_malformed_files_exit_0_or_2(tmp_path, capsys, case, alpha, beta):
    instance_text, td_text, command = case
    inst, td = tmp_path / "inst.json", tmp_path / "inst.td"
    inst.write_text(instance_text)
    td.write_text(td_text)
    argv = [command[0], str(inst), *command[1:]] + ([str(td)] if command[-1] == "--td" else [])
    rc = main(argv + ["--alpha", str(alpha), "--beta", str(beta)])
    out, err = capsys.readouterr()
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    else:
        json.loads(out)


def test_gen_club_cli(capsys):
    rc = main(["gen", "club", "--vertices", "3", "--edges", "0-1,1-2", "--k", "2",
               "--beta", "1", "--alpha", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    inst = instance_from_dict(data)
    assert inst.n == 6 and inst.m == 7
