"""Span recording for the traced run.

The benchmark rebinds each public function of hexmob's modules with a
recorder, wherever callers look it up (a module global, a name imported into
another module, or a class attribute), so spans nest across layers: a CLI
command's span holds the load_od span, a mine_diary span holds its
chain_stages and eclat spans. Spans stay in memory and are handed back when
the pass ends; nothing is written while it runs.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

from hexmob import analytics, cli, diaries, geo, homework, ingest, mining


class Recorder:
    """Spans as [name, parent index, start, end] plus counters of the work
    done inside them."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; name may be a function of the
        call's arguments, count(counts, result, args) tallies its work."""

        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced


def _footfall_rows(rows_by_path: dict):
    def count(c, store, args):
        c["ingest.rows_parsed"] += rows_by_path.get(str(args[0]), 0)

    return count


def _od_rows(rows_by_path: dict):
    def count(c, store, args):
        parsed = rows_by_path.get(str(args[0]), 0)
        c["ingest.rows_parsed"] += parsed
        c["ingest.od_rows_parsed"] += parsed
        c["ingest.od_rows_kept"] += len(store)

    return count


def _calls(key):
    def count(c, result, args):
        c[key] += 1

    return count


def _pairs(c, pairs, args):
    c["homework.pairs"] += len(pairs)


def _matrix(c, matrix, args):
    c["homework.matrix_rows_in"] += len(args[0])
    c["homework.matrix_rows_kept"] += len(matrix.flows)


def _chain(c, stages, args):
    c["diaries.flows_chained"] += sum(len(st.flows) for st in stages)


def _enriched(c, pattern, args):
    c["diaries.hexes_enriched"] += len(pattern.enrichment)


def _json_bytes(c, result, args):
    c["diaries.json_bytes"] += os.path.getsize(args[1])


def _eclat(c, itemsets, args):
    c["mining.eclat_calls"] += 1
    c["mining.transactions"] += len(args[0])
    c["mining.itemsets"] += len(itemsets)
    c["mining.itemsets_max"] = max(c["mining.itemsets_max"], len(itemsets))


def _features(c, exported, args):
    c["geo.features"] += len(exported[0]["features"])


def install(recorder: Recorder, rows_by_path: dict, workloads_module) -> None:
    """Rebind every traced function; the process keeps them until it ends."""
    od_rows = _od_rows(rows_by_path)
    ff_rows = _footfall_rows(rows_by_path)
    table = [
        # (owner, attribute, span name, counter)
        (ingest, "load_od", "ingest.load_od", od_rows),
        (cli, "load_od", "ingest.load_od", od_rows),
        (ingest, "load_footfall", "ingest.load_footfall", ff_rows),
        (cli, "load_footfall", "ingest.load_footfall", ff_rows),
        (ingest, "descriptive_stats", "ingest.stats", None),
        (cli, "descriptive_stats", "ingest.stats", None),
        (ingest.FootfallStore, "mean_daily_count", "ingest.mean_daily_count",
         _calls("ingest.mean_daily_count_calls")),
        (homework, "detect_home_work", "homework.detect", _pairs),
        (homework, "build_homework_matrix", "homework.matrix", _matrix),
        (diaries, "mine_diary", "diaries.mine_diary", _calls("diaries.count")),
        (diaries, "chain_stages", "diaries.chain_stages", _chain),
        (diaries, "enrich", "diaries.enrich", _enriched),
        (diaries, "export_diary_json", "diaries.export", _json_bytes),
        (diaries, "eclat", "mining.eclat", _eclat),
        (mining, "eclat", "mining.eclat", _eclat),
        (mining, "read_transactions", "mining.read", None),
        (mining, "write_itemsets", "mining.write", None),
        (analytics, "day_of_week_totals", "analytics.dow", None),
        (analytics, "day_difference", "analytics.diff", None),
        (analytics, "top_k", "analytics.topk", None),
        (analytics, "temporal_profile", "analytics.profiles", None),
        (geo, "load_boundaries", "geo.load_boundaries", None),
        (geo, "export_geojson", "geo.export", _features),
        (geo, "write_geojson", "geo.write", None),
        # the benchmark's own entry into the CLI, one span per command
        (workloads_module, "cli_call", lambda label, argv: f"cli.{label}", None),
    ]
    for owner, attr, name, count in table:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), count))


def self_times(spans: list) -> dict:
    """Seconds per span name, each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)

