"""Smoke runs of the benchmark on tiny worlds: every workload completes and
passes its output checks, every declared metric is measured, counts repeat
between runs, and a pass that dies counts all its operations as failed."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from hexbench import runner, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, hexes=40, agents=400, transactions=300 if w.transactions else 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {
        w["name"]: runner.run_workload(tiny(w["name"]), 3, 0, True, root)
        for w in SPEC["workloads"]
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_passes_its_checks(traced):
    for name, record in traced.items():
        assert record["failed"] == 0, (name, record["failures"])
        assert record["attempted"] == 2 * record["inputs"]["ops_per_pass"]
        assert record["digest"], name


def test_input_sizes_match_the_traced_counts(traced):
    for name, record in traced.items():
        layers, inputs = record["per_layer"], record["inputs"]
        assert layers["ingest.rows_parsed"] == inputs["rows_parsed_per_pass"], name
        assert layers.get("diaries.count", 0) == inputs["diaries_per_pass"], name


def test_traced_run_writes_its_spans(traced):
    for name, record in traced.items():
        lines = Path(record["spans_file"]).read_text(encoding="utf-8").splitlines()
        spans = [json.loads(line) for line in lines]
        assert spans and {s["workload"] for s in spans} == {name}
        assert "bench.pass" in {s["name"] for s in spans}


def test_every_declared_metric_is_measured(traced):
    for m in SPEC["end_to_end"]:
        for name, record in traced.items():
            assert record["end_to_end"][m["name"]] > 0, (name, m["name"])
    for m in SPEC["per_layer"]:
        assert any(m["name"] in r["per_layer"] for r in traced.values()), m["name"]


def test_counts_and_outputs_repeat_between_runs(traced, tmp_path):
    again = runner.run_workload(tiny("cli-batch"), 3, 0, True, tmp_path)
    first = traced["cli-batch"]
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"}
    assert {k: v for k, v in again["per_layer"].items() if k in counts} == {
        k: v for k, v in first["per_layer"].items() if k in counts
    }
    assert again["digest"] == first["digest"]


def test_a_pass_that_dies_fails_all_its_operations(tmp_path, monkeypatch):
    # too little address space to import numpy: the child cannot start
    monkeypatch.setattr(runner, "MEMORY_LIMIT", 32 << 20)
    record = runner.run_workload(tiny("cli-batch"), 3, 0, False, tmp_path)
    assert record["attempted"] == record["failed"] == record["inputs"]["ops_per_pass"]
    assert record["end_to_end"] == {}


def test_mine_check_notices_missing_itemsets(tmp_path):
    from hexbench import checks
    from hexmob import mining

    path = tmp_path / "transactions.txt"
    workloads.write_transactions(path, 3, 300)
    itemsets = mining.eclat(mining.read_transactions(path), workloads.MINE_MIN_SUPPORT)
    lines = [" ".join(fs.items) + f"\t{fs.support}" for fs in itemsets]
    assert checks._mined("cli mine", path, "\n".join(lines)) == []
    kept = [line for line in lines if not line.endswith(f"\t{workloads.MINE_MIN_SUPPORT}")]
    assert len(kept) < len(lines)
    assert checks._mined("cli mine", path, "\n".join(kept))
