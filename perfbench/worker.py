"""Closed-loop client: one process, one request in flight, `--jobs 1`.

Runs in a fresh process started by run.py.  It calls `compactfd.cli.main`
in-process for each request, in list order, sending the next request only
after the previous one returns, until the list ends or the time is up.  An
untraced run finishes the round in progress when the time runs out, so it
always times whole rounds, and it keeps going until it has enough requests
for a tail percentile.
Responses are captured and written out for run.py to check; nothing here
judges them.

An untraced run also times the set-up (importing compactfd.cli and building
its parser) in fresh processes, a few before the first request, one between
requests every SETUP_EVERY seconds and a few after the last, so the samples
span the whole run rather than one moment of it.  The time they take is
left out of the loop time.

With --trace 1 every request runs twice, once with the tracing wrappers
installed and once without, the order alternating from request to request;
the difference is the tracing overhead.  End-to-end metrics come only from
untraced runs.  Hooks the tracer could not find are printed to stderr and
recorded, and run.py marks such a run incorrect.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time

import latency

clock = time.perf_counter

SETUP_EVERY = 1.0  # seconds of requests between two set-up samples
SETUP_ENDS = 3  # set-up samples before the first request, and after the last
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import compactfd.cli\n"
    "compactfd.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def setup_sample() -> float:
    """Seconds to import compactfd.cli and build its parser in a fresh
    process, with this process's environment and directory."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def max_rss_mb() -> float:
    """Peak resident set of this process so far (`ru_maxrss`, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call(cli, argv: list[str]) -> dict:
    """One request: wall time around cli.main, exit code, captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a crashed client
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = clock() - t0
    return {"latency": latency, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-400:], "error": error}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("requests", help="JSON list of {rid, round, argv}")
    parser.add_argument("out", help="where to write the responses")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="gzipped span dump (--trace 1)")
    args = parser.parse_args(argv)
    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)

    from compactfd import cli

    import_rss_mb = max_rss_mb()
    tracer = None
    missing: set[str] = set()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    setup: list[float] = []
    if tracer is None:
        setup_sample()  # writes the bytecode cache; not counted
        setup += [setup_sample() for _ in range(SETUP_ENDS)]
    results = []
    overheads = []
    start = clock()
    deadline = start + args.seconds
    paused = 0.0  # set-up sampling inside the loop
    next_setup = start + SETUP_EVERY
    last_round = None
    for k, req in enumerate(requests):
        now = clock()
        if tracer is None and now >= next_setup:
            setup.append(setup_sample())
            spent = clock() - now
            paused += spent
            deadline += spent
            next_setup = now + spent + SETUP_EVERY
        if clock() >= deadline and (
            tracer is not None
            or (req["round"] != last_round and len(results) > latency.TAIL_BEYOND)
        ):
            break
        last_round = req["round"]
        if tracer is None:
            results.append({"rid": req["rid"], **call(cli, req["argv"])})
            continue
        tracer.request = req["rid"]
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            uninstall = None
            if traced:
                uninstall, lost = tracing.install(tracer)
                missing.update(lost)
            try:
                pair[traced] = call(cli, req["argv"])
            finally:
                if uninstall:
                    uninstall()
        overheads.append((pair[True]["latency"], pair[False]["latency"]))
        results.append({"rid": req["rid"], **pair[True], "untraced": pair[False]})
    loop_s = clock() - start - paused
    if tracer is None:
        setup += [setup_sample() for _ in range(SETUP_ENDS)]
    record = {"setup": setup, "loop_s": loop_s, "peak_rss_mb": max_rss_mb(), "import_rss_mb": import_rss_mb,
              "results": results}
    if tracer is not None:
        traced_s = sum(t for t, _ in overheads)
        untraced_s = sum(u for _, u in overheads)
        layers = tracing.layer_metrics(
            tracer,
            len(overheads),
            (traced_s - untraced_s) / max(len(overheads), 1),
            traced_s / untraced_s - 1.0 if untraced_s else 0.0,
        )
        record["layers"] = {name: list(pair) for name, pair in layers.items()}
        record["missing_hooks"] = sorted(missing)
        for name in record["missing_hooks"]:
            print(f"tracing: no hook {name} to wrap", file=sys.stderr)
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
