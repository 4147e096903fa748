"""Benchmark for cohomlab: `compute` on seeded group specs and the main-theorem search.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (bench/worker.py), so no
in-process cache can make a pass faster than a user's next invocation of
`cohomlab`. Passes run one at a time, single-threaded, until the next one would
end after S seconds; there is always at least one, and with --trace 1 at least
one untraced and one traced pass, alternating. A warm-up process compiles the
package; import-only probe processes run three times before the first pass
and once after each, so that `setup_s` samples the whole run.

Every time metric is in seconds at a fixed reference speed (bench/speed.py):
each worker samples how fast a reference kernel runs while it works, and
scales its wall-clock times by that, so that the shared machine's speed drift
does not read as a change of the program. Raw wall-clock figures are kept in
the stderr table and in .bench_work/<workload>/passes.json.

Every item's output is checked against values recorded for its spec, and
`compute` output must be byte-identical across all passes of a run, traced or
not. A table of every metric with its unit goes to stderr; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics
(the end-to-end metrics, or with --trace 1 the per-layer ones). The exit code
is 1 when any item failed, and 2 without a result when the benchmark cannot
run at all (its self-checks fail or cohomlab does not import).
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
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS, PER_LAYER, Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_item_s", "s"),
    ("peak_rss_mb", "MB"),
)
PROBES_FIRST = 3
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def self_check() -> None:
    """The declared metrics match BENCHMARK.json, and missing targets read 0."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            decl = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    declared = [(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]]
    if declared != list(PER_LAYER):
        raise BenchError("per-layer metrics in BENCHMARK.json differ from bench/tracer.py PER_LAYER")
    if [(m["name"], m["unit"]) for m in decl["end_to_end"]] != list(END_TO_END):
        raise BenchError("end-to-end metrics in BENCHMARK.json differ from bench/run.py END_TO_END")
    if [w["name"] for w in decl["workloads"]] != list(workloads.WHY):
        raise BenchError("workloads in BENCHMARK.json differ from bench/workloads.py WHY")
    empty = Tracer()
    empty.install({name: types.SimpleNamespace() for name in LAYERS}, [])
    got = empty.metrics()
    want = [name for name, _, _ in PER_LAYER if not name.startswith("trace.")]
    if sorted(got) != sorted(want) or any(got.values()):
        raise BenchError("a tracer whose targets are all missing must report every layer metric as 0")


def run_worker(job: dict, path: str, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env.pop("COHOMLAB_CAP", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path],
        capture_output=True,
        text=True,
        env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def item_medians(reports: list, key: str = "s") -> list:
    """Per item, the median of its time over the given passes.

    Summed, these let a slow moment of the machine spoil one item's sample
    rather than a whole pass total.
    """
    return [statistics.median(r["items"][i][key] for r in reports) for i in range(len(reports[0]["items"]))]


def check_passes(items: list, passes: list, work: str):
    """(items attempted, problems found) over the finished passes of a run."""
    attempted = 0
    problems = []
    digests = {}
    for n, (traced, report) in enumerate(passes):
        for item, res in zip(items, report["items"]):
            attempted += 1
            problem = f"exit code {res['rc']}" if res["rc"] != 0 else ""
            if not problem:
                with open(os.path.join(work, f"{item['name']}.pass{n}.out"), encoding="utf-8") as fh:
                    problem = workloads.check(item, fh.read())
            if not problem and item["spec"] is not None:
                first = digests.setdefault(item["name"], res["sha256"])
                if res["sha256"] != first:
                    problem = "output differs from the first pass of this run" + (" (traced)" if traced else "")
            if problem:
                problems.append(f"{item['name']} pass {n}: {problem}")
    return attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    self_check()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    items = workloads.items(args.workload, args.seed)
    for item in items:
        if item["spec"] is not None:
            item["spec_path"] = os.path.join(work, f"{item['name']}.spec.json")
            with open(item["spec_path"], "w", encoding="utf-8") as fh:
                json.dump(item["spec"], fh)
    job_path = os.path.join(work, "job.json")

    probe = {"root": ROOT, "trace": False, "items": []}
    run_worker(probe, job_path, deadline)  # compiles the package; not measured
    probes = [run_worker(probe, job_path, deadline) for _ in range(PROBES_FIRST)]

    passes = []  # (traced, report)
    durations = []
    crash = ""
    start = time.monotonic()
    while True:
        n = len(passes)
        traced = bool(args.trace) and n % 2 == 1
        job = {
            "root": ROOT,
            "trace": traced,
            "spans": os.path.join(work, "spans.json"),
            "items": [dict(item, out=os.path.join(work, f"{item['name']}.pass{n}.out")) for item in items],
        }
        t = time.monotonic()
        try:
            report = run_worker(job, job_path, deadline)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            crash = f"pass {n} did not finish: {exc}"
            break
        passes.append((traced, report))
        probes.append(run_worker(probe, job_path, deadline))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        need_traced = args.trace and len(passes) < 2
        if not need_traced and elapsed + statistics.median(durations) > args.seconds:
            break

    attempted, problems = check_passes(items, passes, work)
    if crash:
        attempted += len(items)
        problems += [f"{item['name']}: {crash}" for item in items]
    failed = len(problems)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    with open(os.path.join(work, "passes.json"), "w", encoding="utf-8") as fh:
        json.dump({"probes": probes, "passes": [{"traced": t, **r} for t, r in passes]}, fh)
    plain = [r for t, r in passes if not t]
    traced_reports = [r for t, r in passes if t]
    if not plain or (args.trace and not traced_reports):
        raise BenchError("too few passes finished to report")
    setups = [r["setup_s"] for r in probes + plain + traced_reports]
    item_s = item_medians(plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(item_s),
        "slowest_item_s": max(item_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced_reports) for name in traced_reports[0]["layers"]}
        layers["trace.wall_s"] = sum(item_medians(traced_reports))
        layers["trace.base_wall_s"] = e2e["wall_s"]
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        missing = traced_reports[0]["missing"]
        if missing:
            print(f"note: not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced_reports)} traced passes, {len(setups)} imports", file=sys.stderr)
    shown = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    shown["raw_wall_s"] = {"value": sum(item_medians(plain, "raw_s")), "unit": "s"}
    shown["raw_setup_s"] = {"value": statistics.median(r["setup_raw_s"] for r in probes + plain + traced_reports), "unit": "s"}
    shown.update(metrics)
    shown["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"  ({failed} of {attempted} items failed)", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
