"""One timed pass in a process of its own: python -m hexbench.child SPEC

The address-space limit is set before hexmob or numpy is imported, so a
power-set blow-up in the miner raises MemoryError inside one operation,
which counts as a failed operation, instead of exhausting the machine.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak resident set. getrusage's ru_maxrss would also
    count the parent's resident set at fork, which survives exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    limit = spec["memory_limit"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from hexbench import spans, workloads

    out = Path(spec["out"])
    out.mkdir(parents=True)
    run = workloads.Ops()
    body = workloads.PASSES[spec["workload"]]
    recorder = None
    if spec["traced"]:
        recorder = spans.Recorder()
        spans.install(recorder, spec["rows_by_path"], workloads)
        body = recorder.wrap("bench.pass", body)

    t0 = time.perf_counter()
    results = body(run, spec["files"], out, spec["anchor"])
    wall = time.perf_counter() - t0

    report = {
        "traced": spec["traced"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "ops": run.log,
        "counts": dict(recorder.counts) if recorder else {},
        "spans": recorder.spans if recorder else [],
    }
    if "stdout" in results:
        files = [p for p in out.rglob("*") if p.is_file()]
        report["counts"].update({
            "cli.stdout_bytes": sum(len(t.encode("utf-8")) for t in results["stdout"].values() if t),
            "cli.file_bytes": sum(p.stat().st_size for p in files),
            "cli.nonzero_exits": sum(
                1 for _, _, err in run.log if err and err.startswith("NonZeroExit")
            ),
        })
        if spec["check"]:
            report["both_ways"] = workloads.both_ways(
                spec["files"], out, spec["anchor"], results["stdout"], Path(spec["alt"])
            )
    workloads.write_results(results, out / "results.json")

    tmp = spec["report"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(tmp, spec["report"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
