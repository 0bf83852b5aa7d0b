"""Output checks of one pass against the world's ground-truth ledger.

Each check names the operation whose output it read, so that a failed check
counts as a failed operation. They run outside the timed region, on the
first pass of a run; later passes must then reproduce its output digest.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import re
from collections import defaultdict
from pathlib import Path

from hexmob import geo, mining

from .workloads import MINE_MIN_SUPPORT, TOP_K, World, cli_commands, homes


def check_pass(workload: str, world: World, out: Path, report: dict, anchor: dict) -> list:
    """(operation label, problem) for every output that disagrees with the ledger."""
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    ledger = world.ledger
    if workload == "diary-sweep":
        return _pairs("detect_home_work", results["pairs"], ledger) + _diaries(out, ledger, None)
    return _cli(world, out, results["stdout"], report.get("both_ways", {}), anchor)


def _pairs(label: str, got: list, ledger: dict) -> list:
    if got != ledger["pairs"]:
        return [(label, f"{len(got or [])} pairs detected, ledger plants {len(ledger['pairs'])}"
                        " (or their qualifying days differ)")]
    return []


def _daily_totals(label: str, got: dict, ledger: dict) -> list:
    if got != ledger["daily_totals"]:
        bad = sorted(d for d in set(got) | set(ledger["daily_totals"])
                     if got.get(d) != ledger["daily_totals"].get(d))
        return [(label, f"daily totals differ from the ledger on {len(bad)} days, first {bad[:1]}")]
    return []


def _top_k(label: str, got: list, ledger: dict) -> list:
    totals = ledger["od_dest_totals"]
    ranked = sorted(((h, sum(v)) for h, v in totals.items() if sum(v)), key=lambda hv: (-hv[1], hv[0]))
    want = [[h, t] for h, t in ranked[:TOP_K]]
    if [list(x) for x in got or []] != want:
        return [(label, f"top {TOP_K} destination totals differ from the ledger's per-hex totals")]
    return []


def _geojson(label: str, path: Path, n_values: int) -> list:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [(label, f"unreadable GeoJSON: {e}")]
    problems = geo.validate_geojson(doc)
    if problems:
        return [(label, f"{len(problems)} GeoJSON problems, first: {problems[0]}")]
    if len(doc["features"]) != n_values:
        return [(label, f"{len(doc['features'])} features for a layer of {n_values} hexes")]
    return []


def _diaries(directory: Path, ledger: dict, label: str | None) -> list:
    """Every planted chain is a frequent itemset of its home's diary on each
    of the group's active weekdays, and every home has its seven diaries."""

    def op(home, weekday):
        return label or f"diary {home} wd{weekday}"

    failures = []
    want = {(h, wd) for h in homes(ledger) for wd in range(1, 8)}
    have = {}
    for p in directory.glob("diary_*_wd*.json"):
        home, weekday = p.stem[len("diary_"):].rsplit("_wd", 1)
        have[(home, int(weekday))] = p
    for home, weekday in sorted(want - set(have)):
        failures.append((op(home, weekday), "diary file missing"))
    for home, weekday in sorted(set(have) - want):
        failures.append((op(home, weekday), "diary for a home the ledger does not plant"))

    itemsets: dict = {}
    for g in ledger["groups"]:
        if g["kind"] != "worker":
            continue
        for weekday in g["active_weekdays"]:
            key = (g["home"], weekday)
            if key not in have:
                continue
            if key not in itemsets:
                doc = json.loads(have[key].read_text(encoding="utf-8"))
                itemsets[key] = {
                    regime: {tuple(tuple(i) for i in fs["items"]) for fs in sets}
                    for regime, sets in doc["regimes"].items()
                }
            for regime, items in g["chain_by_regime"].items():
                chain = tuple(sorted(tuple(i) for i in items))
                if chain and chain not in itemsets[key].get(regime, ()):
                    failures.append((op(*key), f"planted {regime} chain of cohort "
                                               f"{g['cohort']} ({g['name']}) is not frequent"))
    return failures


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))[1:]


def _cli(world: World, out: Path, stdout: dict, both_ways: dict, anchor: dict) -> list:
    ledger = world.ledger
    failures = []
    for label, _, to_out, can_both in cli_commands(world.files, out, anchor):
        if can_both and not both_ways.get(label):
            failures.append((f"cli {label}", "stdout and the --out file differ"))

    def text(label):
        """What the command wrote, to stdout or to its one --out file."""
        if not (out / label).is_dir():
            return stdout.get(label) or ""
        files = list((out / label).iterdir())
        return files[0].read_text(encoding="utf-8") if len(files) == 1 else ""

    summary = text("ingest_check")
    od = re.search(r"^od: (\d+) records", summary, re.M)
    ff = re.search(r"^footfall: (\d+) records", summary, re.M)
    totals = ledger["totals"]
    if not (od and ff and int(od[1]) == totals["od_post_records"]
            and int(ff[1]) == totals["ff_post_records"]):
        failures.append(("cli ingest_check", "record counts differ from the ledger"))

    pairs = [{"home": h, "work": w, "qualifying_days": days.split(";")}
             for h, w, days in _csv_rows(text("homework"))]
    failures += _pairs("cli homework", pairs, ledger)

    failures += _diaries(out / "diary_all", ledger, "cli diary_all")
    for p in sorted((out / "diary_one").glob("*.json")):
        twin = out / "diary_all" / p.name
        if not twin.is_file() or twin.read_bytes() != p.read_bytes():
            failures.append(("cli diary_one", f"{p.name} differs from the all-anchors run"))
    if len(list((out / "diary_one").glob("*.json"))) != 7:
        failures.append(("cli diary_one", "expected 7 diaries for one anchor"))

    profile = [int(c) for _, _, c in _csv_rows(text("profile"))]
    if profile != ledger["od_dest_totals"].get(anchor["work"]):
        failures.append(("cli profile", "interval counts differ from the ledger"))

    dow = {}
    for weekday, day, total in _csv_rows(text("dow")):
        if dt.date.fromisoformat(day).isoweekday() != int(weekday):
            failures.append(("cli dow", f"{day} filed under weekday {weekday}"))
        dow[day] = int(total)
    failures += _daily_totals("cli dow", dow, ledger)

    topk = [[h, int(t)] for _, h, t in _csv_rows(text("topk"))]
    failures += _top_k("cli topk", topk, ledger)

    failures += _geojson("cli export_geojson", out / "export_geojson" / "layer.geojson",
                         len(_csv_rows(text("diff"))))

    failures += _mined("cli mine", world.files["transactions"], text("mine"))
    return failures


def _mined(label: str, transactions: str, text: str) -> list:
    """The printed itemsets are exactly the frequent ones, each with the
    support support_of gives it."""
    got = {}
    for line in text.splitlines():
        items, tab, support = line.rpartition("\t")
        if not tab or not support.isdigit():
            return [(label, f"unreadable itemset line {line!r}")]
        got[frozenset(items.split())] = int(support)
    want = _frequent(mining.read_transactions(transactions), MINE_MIN_SUPPORT)
    if got == want:
        return []
    missing = sorted(sorted(s) for s in set(want) - set(got))
    extra = sorted(sorted(s) for s in set(got) - set(want))
    wrong = sorted(sorted(s) for s in set(got) & set(want) if got[s] != want[s])
    return [(label, f"{len(missing)} frequent itemsets missing (first {missing[:1]}), "
                    f"{len(extra)} infrequent printed (first {extra[:1]}), "
                    f"{len(wrong)} with a wrong support (first {wrong[:1]})")]


def _frequent(transactions: list, min_support: int) -> dict:
    """Level-wise (Apriori) frequent itemsets -> support, counted with
    support_of: a (k+1)-candidate joins two frequent k-sets that differ in
    their last item and has every k-subset frequent."""
    by_item = defaultdict(list)
    for t in transactions:
        for item in t.items:
            by_item[item].append(t)
    level = {(item,): len(ts) for item, ts in by_item.items() if len(ts) >= min_support}
    found = {}
    while level:
        found.update((frozenset(k), n) for k, n in level.items())
        keys = sorted(level)
        nxt = {}
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if a[:-1] != b[:-1]:
                    break
                cand = a + b[-1:]
                if any(cand[:j] + cand[j + 1:] not in level for j in range(len(cand) - 2)):
                    continue
                # a transaction holding the candidate holds its rarest item
                rarest = min(cand, key=lambda item: len(by_item[item]))
                n = mining.support_of(by_item[rarest], cand)
                if n >= min_support:
                    nxt[cand] = n
        level = nxt
    return found
