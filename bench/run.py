"""hexmob benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]

With --workload, runs that workload once and prints each metric by name and
unit, the run's record as one JSON line, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Without it, runs every workload in turn, prints the same for each, and
exits 1 if any output check failed. Working files live in .bench_work/ at
the repository root and are removed when each run ends; a traced run leaves
its spans there, in spans-WORKLOAD-seedN.jsonl, and names the file in its
record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hexmob benchmark")
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="world seed (default 1)")
    parser.add_argument("--seconds", type=float, help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hexmob" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a hexmob checkout; {ROOT} lacks src/hexmob or BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hexbench import runner, workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    all_correct = True
    for name in [args.workload] if args.workload else names:
        record = runner.run_workload(workloads.WORKLOADS[name], args.seed, seconds,
                                     bool(args.trace), WORK_DIR)
        record["why"] = why[name]
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = record["per_layer" if args.trace else "end_to_end"]
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                if m["name"] in record.get(kind, {}):
                    print(f"{name} {m['name']} = {record[kind][m['name']]:.6g} {m['unit']}")
        print(f"{name} fail_ratio = {record['fail_ratio']:.6g} ({record['failed']} of "
              f"{record['attempted']} operations)")
        for line in record["failures"]:
            print(f"{name} failure: {line}")
        print(json.dumps(record, sort_keys=True))
        correct = record["failed"] == 0
        all_correct = all_correct and correct
        if not values:
            print(f"error: {name}: no operation completed", file=sys.stderr)
            return 1
        if args.workload:
            print(json.dumps({
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared
                },
            }))
    return 0 if all_correct or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
