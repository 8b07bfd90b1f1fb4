import json
import subprocess
import sys
from collections import Counter

import pytest

from compactfd import enum_solver, oracle, tw_dp
from compactfd.annotate import count_center_tuples
from compactfd.cli import main
from compactfd.oracle import mms_oracle
from compactfd.model import Allocation, CompactnessSpec, instance_from_dict
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
        (oracle, "mms_all"),
        (enum_solver, "mms_enum"),
        (enum_solver, "enumerate_compact_allocations"),
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
        # the enum goal layer reads one enumeration pass
        "enum": {"enumerate_compact_allocations": 1},
        # one sweep per center tuple, plus the witness re-run
        "tw-dp": {"run_dp": count_center_tuples(inst.m, 1, inst.n) + 1},
    }
    assert dict(calls) == expected[method]


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


def test_gen_club_cli(capsys):
    rc = main(["gen", "club", "--vertices", "3", "--edges", "0-1,1-2", "--k", "2",
               "--beta", "1", "--alpha", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    inst = instance_from_dict(data)
    assert inst.n == 6 and inst.m == 7
