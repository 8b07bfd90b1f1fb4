"""Seeded inputs for the three benchmark workloads.

Every workload is a list of requests built from one seed: the same seed
gives the same instance files and the same request order.  A request is one
`compactfd solve` call; its instance goes to disk as JSON and the program
sees only that file.

Requests come in rounds.  A round holds one request per cell of the
workload's mix, in a seeded order that interleaves goals.  Instances are
drawn afresh for every round, so no request repeats within a run.  A run
times whole rounds, so the requests it completes have the same composition
on every seed.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("tw-sweep", "tw-early", "exhaustive")
DEFAULT_SEED = 1
SHAPES = ("random", "path", "star", "cycle", "clique", "edgeless")


@dataclass(frozen=True)
class Request:
    """One `compactfd solve` call on one generated instance."""

    rid: int
    round: int
    instance: str  # file name inside the run's input directory
    goal: str
    method: str
    alpha: int
    beta: int
    strong: bool

    def argv(self, input_dir: str) -> list[str]:
        out = [
            "solve", os.path.join(input_dir, self.instance),
            "--goal", self.goal, "--method", self.method,
            "--alpha", str(self.alpha), "--beta", str(self.beta),
            "--jobs", "1",
        ]
        if self.strong:
            out.append("--strong")
        return out


def chord_path(rng: random.Random, m: int, n: int) -> dict:
    """A path 0..m-1 plus two non-crossing chords (a, a+2) and (c, c+2).

    Non-crossing chords keep the graph outerplanar, so its treewidth is 2.
    Every agent's values are a shuffle of the same even spread over 0..4, so
    all instances of one size share their totals and differ only in where
    the chords and the values sit.  That keeps the cost of requests of one
    size close together.
    """
    while True:
        a, c = rng.randrange(m - 2), rng.randrange(m - 2)
        if abs(a - c) >= 2:
            break
    edges = [[i, i + 1] for i in range(m - 1)] + [[a, a + 2], [c, c + 2]]
    values = []
    for _ in range(n):
        row = [(k * 5) // m for k in range(m)]
        rng.shuffle(row)
        values.append(row)
    return _instance(m, edges, values)


def shaped(rng: random.Random, m: int, n: int, shape: str, vmax: int, p: float = 0.35) -> dict:
    """Corpus-style instance: one of SHAPES on m vertices, values 0..vmax;
    a "random" graph keeps each edge with probability p."""
    if shape == "path":
        edges = [[i, i + 1] for i in range(m - 1)]
    elif shape == "cycle":
        edges = [[i, (i + 1) % m] for i in range(m)]
    elif shape == "star":
        edges = [[0, i] for i in range(1, m)]
    elif shape == "clique":
        edges = [[u, v] for u in range(m) for v in range(u + 1, m)]
    elif shape == "edgeless":
        edges = []
    else:
        edges = [[u, v] for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    values = [[rng.randint(0, vmax) for _ in range(m)] for _ in range(n)]
    return _instance(m, edges, values)


def _instance(m: int, edges: list, values: list) -> dict:
    return {"m": m, "edges": edges, "agents": [{"values": row} for row in values]}


# ---------------------------------------------------------------------------
# workload mixes
#
# A mix is a list of groups (make, requests): each group draws one instance,
# which serves every (goal, method, alpha, beta, strong) request of the
# group; one reference pass per instance covers all of them.  A mix depends
# on the round number only, never on the seed, so every seed runs the same
# composition; the seed draws edges and values.


def _tw_sweep_mix(rnd: int):
    """Full sweeps on m=8: six mms requests to three welfare requests.

    With that ratio both the median and the tail fall inside the mms
    cluster, away from the gap to the cheaper welfare requests.  One size
    keeps the mms cluster narrow; with 36 requests a run, sizes 9 and 10
    mixed in would put the median on the seam between them."""
    make = (lambda rng: chord_path(rng, 8, 2))
    mms, welfare = ("mms", "tw-dp", 1, 1, False), ("welfare", "tw-dp", 1, 1, False)
    return [(make, [mms, welfare]) for _ in range(3)] + [(make, [mms]) for _ in range(3)]


def _tw_early_mix(rnd: int):
    """First-hit goals on m=9: three ef-complete requests at beta 1, one
    prop at beta 1 and one ef-complete at beta 2 per round.

    At beta 1 almost every center tuple prunes a vertex, so ef-complete is
    the per-tuple set-up plus the prunes_nothing skip; those requests are
    alike and make up three fifths of the mix, so the median falls among
    them.  prop at beta 1 stops at its first hit and forms the tail;
    ef-complete at beta 2 stops at an early hit and re-runs the witness.
    prop stays at beta 1: at beta 2 a "no" answer is a full sweep of 2 to
    8 s.  One size keeps each kind's cost in one cluster.  At m=8 the two
    chords often let two radius-1 balls cover the whole path, so some beta-1
    tuples run a full DP and the ef-complete cluster spreads threefold; m=9
    keeps it tight."""
    make = (lambda rng: chord_path(rng, 9, 2))
    return [
        (make, [("ef-complete", "tw-dp", 1, 1, False),
                ("prop", "tw-dp", 1, 1, False),
                ("ef-complete", "tw-dp", 1, 2, False)]),
        (make, [("ef-complete", "tw-dp", 1, 1, False)]),
        (make, [("ef-complete", "tw-dp", 1, 1, False)]),
    ]


_EXHAUSTIVE_SPECS = [(alpha, beta) for alpha in (1, 2, 3) for beta in (0, 1, 2)]


def _exhaustive_mix(rnd: int):
    """Oracle and enum on every goal over the corpus grid, plus matching on
    (1, 0) and path-dp on paths.

    Per grid cell, the (alpha, beta) pair, the shape, the edge density and
    the strong flag rotate from round to round on fixed schedules, so the
    few costly requests that make up the tail recur in the same proportions
    on every seed.  The grid leaves out m=8 with n=3: its mms requests take
    1 to 4 s, so a run would hold only two or three rounds and its
    throughput would hinge on a handful of draws."""
    groups = []
    grid = [(5, 2), (6, 2), (7, 2), (8, 2), (5, 3), (6, 3), (7, 3)]
    for k, (m, n) in enumerate(grid):
        alpha, beta = _EXHAUSTIVE_SPECS[(k + rnd * len(grid)) % len(_EXHAUSTIVE_SPECS)]
        shape = SHAPES[(k + rnd) % len(SHAPES)]
        p = (0.2, 0.35, 0.6)[(k + rnd) % 3]
        strong = (k + rnd) % 2 == 1
        make = (lambda rng, m=m, n=n, shape=shape, p=p: shaped(rng, m, n, shape, 12, p))
        requests = [(goal, method, alpha, beta, strong)
                    for goal in ("prop", "mms", "welfare", "ef-complete")
                    for method in ("oracle", "enum")]
        requests += [(goal, "matching", 1, 0, False) for goal in ("prop", "mms")]
        groups.append((make, requests))
        make_path = (lambda rng, m=m, n=n: shaped(rng, m, n, "path", 12))
        groups.append((make_path, [("prop", "path-dp", 1, 1 + (k + rnd) % 2, not strong)]))
    return groups


MIXES = {
    "tw-sweep": _tw_sweep_mix,
    "tw-early": _tw_early_mix,
    "exhaustive": _exhaustive_mix,
}

# Rounds per run.  The seed code needs about a run's time for the whole
# list; a slower program is cut at the end of the round in progress when
# the time is up, a faster one finishes the list early.  A fixed list bounds
# the reference work after the timed loop whatever the program's speed.
ROUNDS = {"tw-sweep": 4, "tw-early": 70, "exhaustive": 18}


def build(workload: str, seed: int, input_dir: str) -> list[Request]:
    """Write the instance files for one run and return its requests in order."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    requests: list[Request] = []
    files = 0
    for rnd in range(ROUNDS[workload]):
        batch = []
        for make, wanted in MIXES[workload](rnd):
            name = f"i{files:05d}.json"
            files += 1
            with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
                json.dump(make(rng), fh)
            batch.extend((name, *fields) for fields in wanted)
        rng.shuffle(batch)
        for fields in _interleave_goals(batch):
            requests.append(Request(len(requests), rnd, *fields))
    return requests


def _interleave_goals(batch: list[tuple]) -> list[tuple]:
    """Reorder a shuffled round so consecutive requests cycle through goals,
    keeping the shuffled order within each goal."""
    by_goal: dict[str, list[tuple]] = {}
    for fields in batch:
        by_goal.setdefault(fields[1], []).append(fields)
    queues = list(by_goal.values())
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out
