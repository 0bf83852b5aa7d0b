"""One benchmark run of one workload: set up the world several times, run
timed passes in child processes until the run's seconds are spent, check
the outputs, and reduce everything to the run's record."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from . import checks, spans, workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

#: set-ups per run; setup_s is their median
SETUPS = 3
#: address-space limit of each pass's child process, in bytes
MEMORY_LIMIT = 2 << 30
#: no pass starts after this many seconds of a run, and none outlives the next
START_BY_S = 120
FINISH_BY_S = 170
#: in a traced pass, the largest share of the wall time that may fall
#: outside every layer's span
BENCH_SHARE_MAX = 0.1


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> dict:
    """Run one workload and return its record; the working files are removed.
    A traced run's spans are written to work_root/spans-WORKLOAD-seedN.jsonl
    when it ends."""
    run_dir = Path(work_root) / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = _run(workload, seed, seconds, trace, run_dir)
        if trace:
            record["spans_file"] = str(_write_spans(record.pop("spans"), Path(work_root),
                                                    workload.name, seed))
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            Path(work_root).rmdir()


def _run(workload, seed, seconds, trace, run_dir: Path) -> dict:
    t_start = time.perf_counter()
    setups = []
    for _ in range(SETUPS):
        world, times = workloads.set_up(workload, seed, run_dir / "world")
        setups.append(times)
    anchor = workloads.anchor_of(world.ledger)
    ops_per_pass = workloads.expected_ops(workload, world)

    # Passes alternate untraced and traced in a traced run; the first is
    # always untraced and is the one whose outputs are checked, outside its
    # timed region. Later passes must reproduce its digest.
    reports, failures, digests = [], [], []
    attempted = 0
    spent = 0.0  # wall time of the passes' child processes, start-up included
    k = 0
    while True:
        traced = trace and k % 2 == 1
        timeout = FINISH_BY_S - (time.perf_counter() - t_start)
        t_pass = time.perf_counter()
        report, problem = _child_pass(workload, world, anchor, run_dir / f"pass{k}",
                                      traced=traced, check=k == 0, timeout=timeout)
        spent += time.perf_counter() - t_pass
        attempted += ops_per_pass
        if problem:
            failures += [(f"pass {k}", problem)] * ops_per_pass
        else:
            reports.append(report)
            failures += [(label, err) for label, _, err in report["ops"] if err]
            out = run_dir / f"pass{k}" / "out"
            digests.append(tree_digest(out))
            if k == 0:
                failures += checks.check_pass(workload.name, world, out, report, anchor)
            elif digests[-1] != digests[0]:
                failures.append((f"pass {k}", "outputs differ from the first pass's"))
        shutil.rmtree(run_dir / f"pass{k}", ignore_errors=True)
        k += 1
        if problem or time.perf_counter() - t_start > START_BY_S:
            break
        # stop at the pass count whose passes' wall time comes closest to
        # seconds; a traced run needs an untraced and a traced pass
        if spent * (1 + 0.5 / k) >= seconds and (not trace or k >= 2):
            break

    untraced = [r for r in reports if not r["traced"]]
    traced_reports = [r for r in reports if r["traced"]]
    if trace:
        failures += _trace_problems(traced_reports)
    failed = min(attempted, _distinct_failures(failures))
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "world": world.config,
        "inputs": _inputs(workload, world),
        "passes": {"untraced_s": [r["wall_s"] for r in untraced],
                   "traced_s": [r["wall_s"] for r in traced_reports]},
        "digest": digests[0] if digests and len(set(digests)) == 1 else None,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f"{label}: {msg}" for label, msg in failures[:20]],
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "end_to_end": _end_to_end(workload, world, setups, untraced),
        "op_latency_ms": _latency_summary(workload, untraced),
    }
    if trace:
        record["per_layer"] = _per_layer(world, setups, untraced, traced_reports)
        record["spans"] = [r["spans"] for r in traced_reports]
    return record


def _write_spans(passes: list, directory: Path, workload: str, seed: int) -> Path:
    """One JSON line per span of each traced pass, tagged with workload and pass."""
    path = directory / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans_of_pass in enumerate(passes):
            for name, parent, start, end in spans_of_pass:
                fh.write(json.dumps({"workload": workload, "pass": i, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
    return path


def _distinct_failures(failures: list) -> int:
    """Failed operations: checks of one operation count once, and every
    operation of a pass whose child died counts."""
    per_pass = [f for f in failures if f[0].startswith("pass ")]
    return len(per_pass) + len({label for label, _ in failures if not label.startswith("pass ")})


def _child_pass(workload, world, anchor, pass_dir: Path, traced: bool, check: bool,
                timeout: float):
    """Run one pass in a child process; returns (report, None) or (None, problem)."""
    pass_dir.mkdir()
    spec = {
        "workload": workload.name,
        "files": world.files,
        "rows_by_path": {world.files[k]: n for k, n in world.rows.items()},
        "anchor": anchor,
        "out": str(pass_dir / "out"),
        "alt": str(pass_dir / "alt"),
        "report": str(pass_dir / "report.json"),
        "traced": traced,
        "check": check,
        "memory_limit": MEMORY_LIMIT,
    }
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    (pass_dir / "tmp").mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC_DIR)]),
        # the CLI's stdout path goes through a temp file; keep it in the checkout
        TMPDIR=str(pass_dir / "tmp"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hexbench.child", str(spec_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"pass killed after {timeout:.0f} s"
    if proc.returncode != 0 or not Path(spec["report"]).is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no report"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    return json.loads(Path(spec["report"]).read_text(encoding="utf-8")), None


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(directory)).encode("utf-8") + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _inputs(workload, world) -> dict:
    sizes = {f"{k}_bytes": os.path.getsize(p) for k, p in world.files.items()}
    rows = {f"{k}_rows": n for k, n in world.rows.items()}
    homes = len(workloads.homes(world.ledger))
    return {
        **rows,
        **sizes,
        "pairs": len(world.ledger["pairs"]),
        "homes": homes,
        # cli-batch also writes the seven diaries of one anchor
        "diaries_per_pass": 7 * homes + (7 if workload.name == "cli-batch" else 0),
        "ops_per_pass": workloads.expected_ops(workload, world),
        "rows_parsed_per_pass": workloads.rows_parsed(workload, world),
    }


def _quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _op_medians(untraced) -> dict:
    """Seconds per operation: the median of its times over the untraced
    passes, so that a slow moment of the shared host during one pass moves
    neither the pass time nor the latency quantiles."""
    times: dict = {}
    for r in untraced:
        for label, sec, err in r["ops"]:
            if err is None:
                times.setdefault(label, []).append(sec)
    return {label: statistics.median(t) for label, t in times.items()}


def _latencies(workload, medians: dict) -> list:
    """Milliseconds per latency-sample operation, sorted."""
    return sorted(sec * 1000 for label, sec in medians.items()
                  if label.startswith(workload.latency_prefix))


def _latency_summary(workload, untraced) -> dict:
    latencies = _latencies(workload, _op_medians(untraced))
    if not latencies:
        return {"operations": 0}
    return {"operations": len(latencies), "passes": len(untraced), "max": latencies[-1],
            **{f"p{q}": _quantile(latencies, q) for q in (50, 90, 95, 99)}}


def _end_to_end(workload, world, setups, untraced) -> dict:
    medians = _op_medians(untraced)
    if not medians:
        return {}
    latencies = _latencies(workload, medians)
    # one pass's time, each operation at its median over the passes
    run_s = sum(medians.values())
    return {
        "setup_s": statistics.median(sum(t.values()) for t in setups),
        "run_s": run_s,
        "records_per_s": workloads.rows_parsed(workload, world) / run_s,
        "ops_per_s": len(latencies) / run_s,
        "op_p50_ms": _quantile(latencies, 50) if latencies else 0.0,
        "op_p90_ms": _quantile(latencies, 90) if latencies else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def _trace_problems(traced: list) -> list:
    """The layers' spans must account for the traced pass: the time outside
    all of them, the benchmark's own, is at most BENCH_SHARE_MAX of its wall
    time. The work counts must repeat between traced passes."""
    problems = []
    for r in traced:
        own = spans.self_times(r["spans"]).get("bench.pass", 0.0)
        if own > BENCH_SHARE_MAX * r["wall_s"]:
            problems.append(("trace accounting", f"{own:.4f} s of a {r['wall_s']:.4f} s traced "
                                                 "pass lies outside every layer's span"))
    counts = [r["counts"] for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append(("trace counts", "work counts differ between traced passes"))
    return problems


def _per_layer(world, setups, untraced, traced) -> dict:
    if not traced:
        return {}
    selfs = [spans.self_times(r["spans"]) for r in traced]
    counts = traced[0]["counts"]

    def ratio(kept, total):
        return counts.get(kept, 0) / counts[total] if counts.get(total) else 0.0

    values = {
        "synth.generate_s": statistics.median(t["generate"] for t in setups),
        "synth.write_s": statistics.median(t["write"] for t in setups),
        "synth.od_rows": world.rows["od"],
        "synth.ff_rows": world.rows["footfall"],
        "synth.ledger_bytes": os.path.getsize(world.files["ledger"]),
        "ingest.filter_keep_ratio": ratio("ingest.od_rows_kept", "ingest.od_rows_parsed"),
        "homework.matrix_keep_ratio": ratio("homework.matrix_rows_kept", "homework.matrix_rows_in"),
        "bench.self_s": statistics.median(s.get("bench.pass", 0.0) for s in selfs),
        "bench.trace_overhead_s": (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced)),
    }
    span_names = {name for s in selfs for name in s}
    for name in span_names:
        values[f"{name}_s"] = statistics.median(s.get(name, 0.0) for s in selfs)
    for name, n in counts.items():
        values.setdefault(name, n)
    return values
