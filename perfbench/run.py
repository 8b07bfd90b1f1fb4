"""compactfd benchmark: one closed-loop client driving `compactfd solve`.

    python3 perfbench/run.py --workload tw-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from the `src/` directory next
to this one.  Each run writes its instance files, starts a fresh worker
process (PYTHONHASHSEED=0) that sends the requests one at a time until the
time is up and the round in progress is done, then checks every response
against references computed after the timed loop.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  A
traced run whose wrappers miss a hook or fail to update a counter is not
correct, even when every response is.  Full run records go to
.perfbench/results/ and span dumps to .perfbench/traces/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import latency  # noqa: E402
import workloads  # noqa: E402

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_all(requests: dict, results: list, input_dir: Path) -> dict[int, str]:
    """Reason per failed request id.  References are computed only for the
    requests that ran, in one pass per instance for all its specs."""
    ran = [requests[res["rid"]] for res in results]
    specs: dict[str, set] = {}
    for req in ran:
        specs.setdefault(req.instance, set()).add((req.alpha, req.beta, req.strong))
    data, refs = {}, {}
    for name, wanted in specs.items():
        with open(input_dir / name, encoding="utf-8") as fh:
            data[name] = json.load(fh)
        try:
            for spec, ref in checker.references(data[name], wanted).items():
                refs[name, spec] = ref
        except Exception as exc:  # no trustworthy reference: these requests cannot pass
            for spec in wanted:
                refs[name, spec] = f"no reference: {type(exc).__name__}: {exc}"
    failures: dict[int, str] = {}
    for req, res in zip(ran, results):
        ref = refs[req.instance, (req.alpha, req.beta, req.strong)]
        for resp in [res] + ([res["untraced"]] if "untraced" in res else []):
            if isinstance(ref, str):
                reason = ref
            elif resp["error"]:
                reason = resp["error"]
            else:
                reason = checker.check_response(
                    data[req.instance], req.goal, req.alpha, req.beta, req.strong, ref,
                    resp["code"], resp["stdout"],
                )
            if reason:
                if resp["stderr"].strip():
                    reason += f" (stderr: {resp['stderr'].strip()[-200:]})"
                failures[req.rid] = f"{req.method} {req.goal} {req.instance}: {reason}"
                break
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / f"run-{workload}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    (ROOT / ".perfbench" / "results").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "traces").mkdir(exist_ok=True)
    try:
        requests = workloads.build(workload, seed, str(inputs))
        listing = work / "requests.json"
        listing.write_text(json.dumps(
            [{"rid": r.rid, "round": r.round, "argv": r.argv(str(inputs))} for r in requests]
        ))
        out = work / "responses.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(listing), str(out),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        trace_file = ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.csv.gz"
        if trace:
            cmd += ["--trace-file", str(trace_file)]
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=seconds + 120)
        record = json.loads(out.read_text())
        results = record["results"]
        t0 = time.perf_counter()
        failures = check_all({r.rid: r for r in requests}, results, inputs)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(results)
    if attempted == 0:
        raise RuntimeError("no request completed")
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": len(failures), "check_s": check_s,
        "failures": failures,
    }
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in record["layers"].items()}
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
        # metrics a hook no longer feeds would read 0 and pass for a gain
        summary["tracing_faults"] = [f"no hook {name} to wrap" for name in record["missing_hooks"]]
        errors = metrics["trace.bookkeeping_errors"]["value"]
        if errors:
            summary["tracing_faults"].append(f"{errors:g} counter updates failed")
    else:
        ok = [r["latency"] for r in results if r["rid"] not in failures]
        # a failed request is not work done; with too few successes the run
        # is already incorrect, and its latencies are summarised over all
        timed = ok if len(ok) > latency.TAIL_BEYOND else [r["latency"] for r in results]
        pct, tail, beyond = latency.tail_percentile(timed)
        metrics = {
            "requests_per_s": {"value": len(ok) / record["loop_s"], "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(timed), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
        summary.update({
            "import_rss_mb": record["import_rss_mb"],
            "setup_samples": record["setup"],
            "tail_percentile": pct, "tail_beyond": beyond, "samples": len(timed),
            "failed_ratio": len(failures) / attempted,
            "latencies": [r["latency"] for r in results],
        })
    summary["metrics"] = metrics
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (ROOT / ".perfbench" / "results" / name).write_text(json.dumps(summary, indent=1))
    return summary


def describe(summary: dict) -> str:
    """One human-readable line naming every metric with its unit."""
    parts = [f"{summary['workload']} seed={summary['seed']}"]
    for name, m in summary["metrics"].items():
        parts.append(f"{name}={m['value']:.6g} {m['unit']}")
        if name == "peak_rss_mb":
            parts[-1] += f" ({summary['import_rss_mb']:.6g} MB after import)"
        if name == "latency_tail_s":
            parts[-1] += (f" (p{summary['tail_percentile']}, {summary['tail_beyond']} of "
                          f"{summary['samples']} samples beyond)")
    parts.append(f"failed_ratio={summary['failed'] / summary['attempted']:.6g} ratio "
                 f"({summary['failed']}/{summary['attempted']})")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compactfd closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "compactfd" / "cli.py").is_file():
        print(f"error: no compactfd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the references
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for rid, reason in sorted(summary["failures"].items()):
            print(f"FAILED request {rid}: {reason}", file=sys.stderr)
        for fault in summary.get("tracing_faults", ()):
            print(f"TRACING FAULT: {fault}", file=sys.stderr)
        print(describe(summary), flush=True)
        summaries.append(summary)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    faults = sum(len(s.get("tracing_faults", ())) for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and faults == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
