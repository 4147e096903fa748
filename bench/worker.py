"""One pass of a workload in a fresh interpreter, as a cohomlab user's invocation gets.

Usage: python3 bench/worker.py JOB.json

JOB.json holds the checkout root, the items of the pass (written by run.py)
and whether to trace. The pass imports cohomlab from `<root>/src`, runs every
item once, and prints one JSON line: import time, per-item exit code, time,
output digest, peak resident memory and, when traced, the per-layer metrics.
With no items it only measures the import. Every time is reported twice: raw
wall-clock seconds, and scaled to the reference speed of bench/speed.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from speed import Sampler

    speed = Sampler()
    speed.start()
    speed.burst()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import cohomlab.cli
    import cohomlab.experiments

    t1 = time.perf_counter()
    speed.burst()
    setup_raw_s, setup_s, setup_ref_s = speed.window(t0, t1)
    if os.path.dirname(os.path.dirname(os.path.abspath(cohomlab.__file__))) != os.path.abspath(src):
        raise SystemExit(f"imported cohomlab from {cohomlab.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import LAYERS, Tracer

        tracer = Tracer()
        mods = {name: sys.modules[f"cohomlab.{name}"] for name in LAYERS}
        namespaces = [m for name, m in sys.modules.items() if name == "cohomlab" or name.startswith("cohomlab.")]
        tracer.install(mods, namespaces)

    results = []
    for item in job["items"]:
        out = item["out"]
        speed.burst()
        t = time.perf_counter()
        if item["spec"] is None:
            verdict = cohomlab.experiments.falsify_main_theorem(item["p"], seed=item["seed"])
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(verdict.to_json_dict(), fh)
            rc = 0 if verdict.passed else 1
        else:
            rc = cohomlab.cli.main(["compute", item["spec_path"], *item["flags"], "--out", out])
        t_end = time.perf_counter()
        speed.burst()
        raw_s, elapsed, ref_s = speed.window(t, t_end)
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        if tracer is not None and item["spec"] is not None:
            tracer.counts["cli.out_bytes"] += len(data)
        results.append({"rc": rc, "s": elapsed, "raw_s": raw_s, "ref_s": ref_s, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})

    speed.stop()
    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_ref_s": setup_ref_s,
        "items": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing"] = tracer.missing
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
