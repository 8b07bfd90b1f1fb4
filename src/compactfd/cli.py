"""Command-line front end.

Machine-readable JSON goes to stdout, human diagnostics to stderr.  Exit
codes: 0 for a computed result (yes and no alike), 1 when a budget is
exceeded, 2 for malformed input or unsupported combinations, 3 when an
internal invariant fails (a DP table above its ceiling, a witness that does
not re-validate, or a `solve` answer that fails its certification); the
last three print one line on stderr and nothing on stdout.

The argument parser is built once per process (`build_parser` is memoised)
and every `main` call parses into a fresh namespace.  Its subcommand
handlers (`set_defaults(func=cmd_*)`) are therefore bound when it is first
built; replacing a `cmd_*` function afterwards does not reach `main`.

The `jobs` option of `solve` is a compatibility stub: `tw-dp` sweeps its
center tuples serially, and any value but 1 exits 2.  It stays only because
existing callers (the benchmark's request lines) still pass it as 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import enum_solver, matching, oracle, path_dp, tw_dp
from .compactness import is_compact, is_compact_allocation, is_strongly_compact
from .generators import (
    ClubSource,
    PartitionSource,
    XacSource,
    gen_from_club,
    gen_from_partition,
    gen_from_xac,
)
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
    bundle_value,
    instance_to_dict,
    is_complete,
    is_envy_free,
    is_proportional,
    load_instance,
    max_welfare_upper,
    utilitarian_welfare,
    validate_allocation,
)
from .oracle import BudgetExceededError
from .path_dp import PathInstance, path_order
from .treewidth import format_td, greedy_decompose, parse_td, validate_td

GOALS = {g.value: g for g in FairnessGoal}


def _emit(obj) -> None:
    print(json.dumps(obj))


def _alloc_payload(instance: Instance, alloc: Allocation, mms: Optional[list[int]] = None) -> dict:
    values = [
        [bundle_value(instance, i, alloc.bundles[j]) for j in range(instance.n)]
        for i in range(instance.n)
    ]
    out = {
        "answer": "yes",
        "bundles": [sorted(b) for b in alloc.bundles],
        "values": values,
    }
    if mms is not None:
        out["mms"] = mms
    return out


def _is_path(instance: Instance) -> bool:
    try:
        path_order(instance.graph())
        return True
    except ValueError:
        return False


def _auto_method(instance: Instance, spec: CompactnessSpec, goal: FairnessGoal) -> str:
    if (
        (spec.alpha, spec.beta) == (1, 0)
        and goal in (FairnessGoal.PROPORTIONAL, FairnessGoal.MAXIMIN)
    ):
        return "matching"
    if spec.alpha == 1 and goal is FairnessGoal.PROPORTIONAL and _is_path(instance):
        return "path-dp"
    if oracle.assignment_count(instance) <= 4096:
        return "oracle"
    if spec.strong:
        return "enum"
    return "tw-dp"


def _solve_with(method: str, instance: Instance, spec: CompactnessSpec,
                goal: FairnessGoal, args) -> tuple[Optional[Allocation], Optional[list[int]]]:
    """The allocation the method finds, and for the mms goal every agent's
    maximin share as the same solve computed it (None for other goals)."""
    if method == "oracle":
        return oracle.answer_oracle(instance, spec, goal)
    if method == "enum":
        return enum_solver.answer_enum(instance, spec, goal)
    if method == "matching":
        if (spec.alpha, spec.beta) != (1, 0):
            raise ValueError("the matching solver handles alpha=1, beta=0 only")
        if goal is FairnessGoal.PROPORTIONAL:
            return matching.solve_prop_10(instance), None
        if goal is FairnessGoal.MAXIMIN:
            alloc = matching.solve_mms_10(instance)
            return alloc, [matching.mms_10(instance, i) for i in range(instance.n)]
        if goal is FairnessGoal.EF_COMPLETE and instance.m == instance.n:
            # with m == n, one item each is the only complete shape
            return matching.solve_ef_one_item(instance), None
        raise ValueError(f"the matching solver does not support goal {goal.value}")
    if method == "path-dp":
        if spec.alpha != 1 or goal is not FairnessGoal.PROPORTIONAL:
            raise ValueError("the path DP handles alpha=1 with the prop goal only")
        return path_dp.solve_prop_path_agents(PathInstance(instance), spec.beta, spec.strong), None
    if method == "tw-dp":
        td = None
        if args.td is not None:
            with open(args.td, "r", encoding="utf-8") as fh:
                td = parse_td(fh.read())
            if not validate_td(instance.graph(), td):
                raise ValueError("the supplied decomposition is invalid for this graph")
        return tw_dp.answer_tw(instance, spec, goal, td=td)
    raise ValueError(f"unknown method {method!r}")


def cmd_recognize(args) -> int:
    instance = load_instance(args.instance)
    graph, spec = instance.graph(), CompactnessSpec(args.alpha, args.beta, args.strong)
    if spec.strong:
        cover = is_strongly_compact(graph, spec.alpha, spec.beta)
        if cover is None:
            _emit({"compact": False})
        else:
            _emit({"compact": True, "cover": [sorted(g) for g in cover.groups]})
    else:
        witness = is_compact(graph, spec.alpha, spec.beta)
        if witness is None:
            _emit({"compact": False})
        else:
            _emit({"compact": True, "witness": sorted(witness.centers)})
    return 0


def cmd_solve(args) -> int:
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1, got {args.jobs}")
    instance = load_instance(args.instance)
    spec = CompactnessSpec(args.alpha, args.beta, args.strong)
    goal = GOALS[args.goal]
    method = args.method if args.method != "auto" else _auto_method(instance, spec, goal)
    if args.td is not None and method != "tw-dp":
        raise ValueError(f"--td is read only by tw-dp, and the method is {method}")
    if args.method == "auto":
        print(f"method: {method}", file=sys.stderr)
    alloc, mms = _solve_with(method, instance, spec, goal, args)
    if alloc is None:
        _emit({"answer": "no"})
        return 0
    _certify(instance, spec, goal, alloc, mms)
    _emit(_alloc_payload(instance, alloc, mms))
    return 0


def _certify(instance: Instance, spec: CompactnessSpec, goal: FairnessGoal,
             alloc: Allocation, mms: Optional[list[int]]) -> None:
    """Raise RuntimeError unless the allocation is well formed, compact and
    meets the goal.  The checks are the model's own predicates, independent
    of the solvers; mms is checked against the shares that will be printed,
    ef-po only for envy-freeness (Pareto-optimality is an exhaustive check)."""
    try:
        validate_allocation(instance, alloc)
    except ValueError as exc:
        raise RuntimeError(f"solver returned a malformed allocation: {exc}") from None
    if not is_compact_allocation(instance, alloc, spec):
        raise RuntimeError("solver returned a non-compact allocation")
    if goal is FairnessGoal.PROPORTIONAL:
        met = is_proportional(instance, alloc)
    elif goal is FairnessGoal.EF_COMPLETE:
        met = is_envy_free(instance, alloc) and is_complete(instance, alloc)
    elif goal is FairnessGoal.EF_PARETO:
        met = is_envy_free(instance, alloc)
    elif goal is FairnessGoal.MAX_WELFARE:
        met = utilitarian_welfare(instance, alloc) == max_welfare_upper(instance)
    else:
        met = all(
            bundle_value(instance, i, alloc.bundles[i]) >= mms[i] for i in range(instance.n)
        )
    if not met:
        raise RuntimeError(f"solver returned an allocation that misses the {goal.value} goal")


def _mms_with(method: str, instance: Instance, spec: CompactnessSpec, agent: int, args) -> int:
    if method == "matching":
        return matching.mms_10(instance, agent)
    if method == "tw-dp":
        return tw_dp.mms_tw(instance, spec, agent)
    return oracle.mms_oracle(instance, spec, agent)


def cmd_mms(args) -> int:
    instance = load_instance(args.instance)
    spec = CompactnessSpec(args.alpha, args.beta, args.strong)
    if args.method == "matching" and (spec.alpha, spec.beta) != (1, 0):
        raise ValueError("the matching method computes mms for alpha=1, beta=0 only")
    value = _mms_with(args.method, instance, spec, args.agent, args)
    _emit(value)
    return 0


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def cmd_gen(args) -> int:
    if args.family == "partition":
        inst = gen_from_partition(PartitionSource(tuple(_parse_int_list(args.numbers))))
    elif args.family == "xac":
        family = tuple(
            frozenset(_parse_int_list(chunk)) for chunk in args.sets.split(";") if chunk.strip()
        )
        universe = (
            tuple(sorted(_parse_int_list(args.universe)))
            if args.universe
            else tuple(sorted(frozenset().union(*family)))
        )
        source = XacSource(universe, family)
        inst = gen_from_xac(source, source.alpha, args.variant, args.strong)
    else:
        edges = []
        if args.edges.strip():
            for chunk in args.edges.split(","):
                u, v = chunk.split("-")
                edges.append((int(u), int(v)))
        source = ClubSource(args.vertices, tuple(edges), args.k, args.beta)
        inst = gen_from_club(source, args.alpha, args.variant)
    print(json.dumps(instance_to_dict(inst), indent=2))
    return 0


def cmd_decompose(args) -> int:
    instance = load_instance(args.instance)
    td = greedy_decompose(instance.graph())
    if not validate_td(instance.graph(), td):
        raise RuntimeError("decomposer produced an invalid decomposition")
    text = format_td(td, instance.m)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactfd", description="fair division of graphs into compact bundles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p, strong=True):
        p.add_argument("--alpha", type=int, required=True)
        p.add_argument("--beta", type=int, required=True)
        if strong:
            p.add_argument("--strong", action="store_true")

    p = sub.add_parser("recognize", help="test a graph for (strong) compactness")
    p.add_argument("instance")
    add_spec(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("solve", help="find a fair compact allocation")
    p.add_argument("instance")
    p.add_argument("--goal", choices=sorted(GOALS), required=True)
    add_spec(p)
    p.add_argument(
        "--method",
        choices=["auto", "oracle", "enum", "matching", "path-dp", "tw-dp"],
        default="auto",
    )
    p.add_argument("--td", help="external tree decomposition (.td file) for tw-dp")
    p.add_argument("--jobs", type=int, default=1, help="kept for compatibility; must be 1")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mms", help="maximin share of one agent")
    p.add_argument("instance")
    add_spec(p)
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--method", choices=["oracle", "matching", "tw-dp"], default="oracle")
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("gen", help="emit a generated instance as JSON")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("partition")
    g.add_argument("--numbers", required=True, help="comma-separated integers, even sum")
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("xac")
    g.add_argument("--sets", required=True, help="semicolon-separated element lists")
    g.add_argument("--universe", help="element list; defaults to the union of the sets")
    g.add_argument("--variant", choices=["prop", "cef", "poef"], default="prop")
    g.add_argument("--strong", action="store_true")
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("club")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edges", default="", help="comma-separated u-v pairs")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--beta", type=int, required=True)
    g.add_argument("--alpha", type=int, default=1)
    g.add_argument("--variant", choices=["prop", "cef"], default="prop")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="emit a validated tree decomposition")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
