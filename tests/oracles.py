"""Independent reference implementations used to check the real ones.

Deliberately written with different data structures and iteration order than
the library code: exhaustive bitmask enumeration, level-wise Apriori and
set-based tid-sets instead of bitset tid-set DFS, per-day flow sets instead
of packed-key indexes, two-pass arithmetic instead of vectorized reductions,
csv.reader rows parsed one at a time instead of whole token columns,
per-day, per-group count dicts instead of packed-key weekday sums,
one f-string per CSV row instead of per-weekday text stamped per date,
frozenset transactions instead of day masks, one frozenset per transaction
line instead of item codes and tid-sets.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from hexmob import synth
from hexmob.ingest import FOOTFALL_HEADER, OD_HEADER, FootfallStore, IngestError, ODStore, read_input
from hexmob.mining import Transaction, eclat
from hexmob.model import FOOTFALL_USER_TYPES, OD_USER_TYPES, SPACE, is_hex_id, month_dates


def brute_force_itemsets(transactions, min_support):
    """Enumerate all 2^n - 1 itemsets over the observed items and keep the
    frequent ones. transactions: iterable of (tid, iterable-of-items)."""
    txns = [(tid, frozenset(items)) for tid, items in transactions]
    items = sorted({i for _, s in txns for i in s})
    n = len(items)
    if n == 0 or not txns:
        return []
    pos = {item: k for k, item in enumerate(items)}
    masks = np.zeros(len(txns), dtype=np.int64)
    for t, (_, s) in enumerate(txns):
        for i in s:
            masks[t] |= 1 << pos[i]
    out = []
    candidates = np.arange(1, 1 << n, dtype=np.int64)
    hits = (masks[None, :] & candidates[:, None]) == candidates[:, None]
    supports = hits.sum(axis=1)
    for m, sup in zip(candidates, supports):
        if sup >= min_support:
            itemset = tuple(items[k] for k in range(n) if m >> k & 1)
            out.append((itemset, int(sup)))
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


def brute_force_homework(
    records,
    min_days=10,
    morning=(1, 2),
    evening=(6, 7),
    disqualifier=(3, 4, 5),
):
    """The reversal-with-repetition rule, replayed naively.

    records: iterable of (origin, destination, day, interval, user_type,
    count) tuples with day a date. Returns {(home, work): sorted day list}.
    """
    per_day_morning = {}
    per_day_evening = {}
    per_day_disq = {}
    hexes = set()
    days = set()
    for o, d, day, iv, _ut, _c in records:
        hexes.add(o)
        hexes.add(d)
        days.add(day)
        if iv in morning:
            per_day_morning.setdefault(day, set()).add((o, d))
        if iv in evening:
            per_day_evening.setdefault(day, set()).add((o, d))
        if iv in disqualifier:
            per_day_disq.setdefault(day, set()).add((o, d))

    result = {}
    empty = set()
    for home in sorted(hexes):
        for work in sorted(hexes):
            if home == work:
                continue
            qualifying = []
            for day in sorted(days):
                if (home, work) not in per_day_morning.get(day, empty):
                    continue
                if (work, home) not in per_day_evening.get(day, empty):
                    continue
                if (work, home) in per_day_disq.get(day, empty):
                    continue
                qualifying.append(day)
            if len(qualifying) >= min_days:
                result[(home, work)] = qualifying
    return result


def two_pass_stats(counts):
    """(count, mean, population std, min, max) via explicit two-pass sums."""
    n = len(counts)
    if n == 0:
        raise ValueError("empty selection")
    mean = math.fsum(counts) / n
    var = math.fsum((c - mean) ** 2 for c in counts) / n
    return n, mean, math.sqrt(var), min(counts), max(counts)


def naive_monthly_aggregate(records):
    """Whole-month per-pair totals over intervals 1..8, plus mean and the
    strictly-below-mean share. records as in brute_force_homework."""
    totals = {}
    for o, d, _day, iv, _ut, c in records:
        if iv == 9:
            continue
        totals[(o, d)] = totals.get((o, d), 0) + c
    if not totals:
        raise ValueError("no records")
    mean = math.fsum(totals.values()) / len(totals)
    below = sum(1 for v in totals.values() if v < mean)
    return totals, mean, below / len(totals)


def naive_mean_daily_count(footfall, hex_id, user_type):
    """Mean daily footfall replayed from plain rows; None without rows.

    footfall: iterable of (hex, day, interval, user_type, count) tuples. A
    day's value is its interval-9 count if that row exists, else the sum of
    its other rows.
    """
    per_day = {}
    for h, day, iv, ut, c in footfall:
        if h == hex_id and ut == user_type:
            per_day.setdefault(day, {})[iv] = c
    if not per_day:
        return None
    values = [
        slots[9] if 9 in slots else sum(c for iv, c in slots.items() if iv != 9)
        for slots in per_day.values()
    ]
    return sum(values) / len(values)


def reference_eclat(transactions, min_support):
    """The former set-based eclat: each item's tid-set is a Python set of
    transaction ids, and every prefix tries every later item, frequent or
    not. transactions: Transaction objects. Returns (items, support) pairs
    sorted by (size, items)."""
    tidsets = {}
    for t in transactions:
        for item in t.items:
            tidsets.setdefault(item, set()).add(t.id)
    items = sorted(tidsets)
    out = []

    def extend(prefix, prefix_tids, start):
        for k in range(start, len(items)):
            item = items[k]
            tids = prefix_tids & tidsets[item] if prefix else tidsets[item]
            if len(tids) >= min_support:
                itemset = prefix + (item,)
                out.append((itemset, len(tids)))
                extend(itemset, tids, k + 1)

    extend((), set(), 0)
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


def apriori_itemsets(transactions, min_support):
    """Level-wise frequent itemsets with supports, each support counted by a
    scan of every transaction. Sorted by (size, items) like eclat."""
    txns = [frozenset(t) for t in transactions]

    def frequent(candidates):
        out = {}
        for c in candidates:
            sup = sum(1 for t in txns if c <= t)
            if sup >= min_support:
                out[c] = sup
        return out

    level = frequent({frozenset([i]) for t in txns for i in t})
    found = dict(level)
    while level:
        # join two frequent k-sets that share their k-1 smallest items
        lasts = {}
        for s in sorted(tuple(sorted(s)) for s in level):
            lasts.setdefault(s[:-1], []).append(s[-1])
        level = frequent({
            frozenset(prefix + pair) for prefix, tail in lasts.items() for pair in combinations(tail, 2)
        })
        found.update(level)
    out = [(tuple(sorted(s)), sup) for s, sup in found.items()]
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


def reference_read_transactions(path):
    """The former transaction reader: a list of one Transaction per line
    that holds a word, its items the frozenset of the line's words, its id
    the line number."""
    text = read_input(path).decode("utf-8").translate(str.maketrans(SPACE, " " * len(SPACE)))
    txns = []
    for n, line in enumerate(text.split("\n"), start=1):
        items = frozenset(line.split(" "))
        if "" in items:
            items -= {""}
        if items:
            txns.append(Transaction(n, items))
    return txns


_REFERENCE_REGIMES = {
    "morning_peak": (1, 2),
    "midday": (3, 4, 5),
    "evening_peak": (6, 7),
    "night": (8, 9),
}
_FOOTFALL_TYPES = ("all", "worker", "resident", "transient")


def reference_diary(records, year, month, anchor, weekday, footfall=(), min_support=None):
    """A diary document as diary_json lays it out, rebuilt from per-day flow sets.

    records: (origin, destination, day, interval, user_type, count) tuples;
    footfall as in naive_mean_daily_count. Each stage rescans every date's
    flow set, mining is apriori_itemsets and the footfall means are replayed
    per hex, so nothing is shared with the library's indexes.
    """
    dates = [
        dt.date(year, month, d)
        for d in range(1, calendar.monthrange(year, month)[1] + 1)
        if dt.date(year, month, d).isoweekday() == weekday
    ]
    if min_support is None:
        min_support = max(2, math.ceil(len(dates) / 2))
    per_day = {}  # date -> {(origin, destination, interval): count over user types}
    for o, d, day, iv, _ut, c in records:
        if 1 <= iv <= 8:
            flows = per_day.setdefault(day, {})
            flows[(o, d, iv)] = flows.get((o, d, iv), 0) + c

    def expand(origins, intervals):
        acc = {}
        for day in dates:
            for (o, d, iv), c in per_day.get(day, {}).items():
                if o in origins and iv in intervals:
                    acc[(o, d, iv)] = acc.get((o, d, iv), 0) + c
        return sorted((o, d, iv, c) for (o, d, iv), c in acc.items())

    stages = [expand({anchor}, (1, 2))]
    for iv in range(2, 9):
        stages.append(expand({f[1] for f in stages[-1]}, (iv,)))

    chained = {f[:3] for st in stages for f in st}
    regimes = {}
    mentioned = set()
    for name, intervals in _REFERENCE_REGIMES.items():
        txns = []
        for day in dates:
            present = {it for it in chained if it[2] in intervals and it in per_day.get(day, {})}
            if present:
                txns.append(present)
        itemsets = apriori_itemsets(txns, min_support)
        regimes[name] = [{"items": [list(i) for i in items], "support": s} for items, s in itemsets]
        mentioned |= {h for items, _ in itemsets for o, d, _iv in items for h in (o, d)}

    intraflow = {str(iv): 0 for iv in range(1, 9)}
    inflow = {str(iv): 0 for iv in range(1, 9)}
    for day in dates:
        for (o, d, iv), c in per_day.get(day, {}).items():
            if d == anchor:
                (intraflow if o == anchor else inflow)[str(iv)] += c

    footfall = list(footfall)
    enrichment = {}
    for h in sorted(mentioned):
        means = {ut: naive_mean_daily_count(footfall, h, ut) for ut in _FOOTFALL_TYPES}
        enrichment[h] = {
            "footfall_mean": {ut: m for ut, m in means.items() if m is not None},
            "extra": {},
        }
    return {
        "anchor": anchor,
        "weekday": weekday,
        "days": [d.isoformat() for d in dates],
        "min_support": min_support,
        "stages": [
            {
                "stage": i,
                "flows": [
                    {"origin": o, "destination": d, "interval": iv, "count": c}
                    for o, d, iv, c in st
                ],
            }
            for i, st in enumerate(stages, start=1)
        ],
        "regimes": regimes,
        "intraflow": intraflow,
        "inflow": inflow,
        "enrichment": enrichment,
    }


def transaction_regime_patterns(records, year, month, weekday, stages, min_support):
    """A diary's regime_patterns as mine_diary mined them before it read day
    masks: per regime, one frozenset Transaction per date of the weekday that
    holds any of the chained flows present that day, mined by eclat.

    records as in reference_diary; stages: the diary's ChainStages, whose
    (origin, destination, interval) flows are the items.
    """
    dates = [
        dt.date(year, month, d)
        for d in range(1, calendar.monthrange(year, month)[1] + 1)
        if dt.date(year, month, d).isoweekday() == weekday
    ]
    present = {}  # date -> {(origin, destination, interval)} of sub-day rows
    for o, d, day, iv, _ut, _c in records:
        if 1 <= iv <= 8:
            present.setdefault(day, set()).add((o, d, iv))
    chained = {f[:3] for st in stages for f in st.flows}
    out = {}
    for name, intervals in _REFERENCE_REGIMES.items():
        txns = []
        for day in dates:
            items = frozenset(it for it in chained if it[2] in intervals and it in present.get(day, ()))
            if items:
                txns.append(Transaction(id=day, items=items))
        out[name] = tuple(eclat(txns, min_support))
    return out


# -- reference CSV loaders ----------------------------------------------
#
# The loaders as they were before ingest read whole columns: csv.reader,
# then one Python iteration per row with int(), date.fromisoformat and one
# numpy scalar store per field. They accept a superset of the documented
# grammar (see the README), so they are only compared on valid files.


def _reference_rows(path, header):
    """(file line, fields) of each non-empty data row."""
    fields = header.split(",")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != fields:
            raise IngestError("bad header", line=1)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise IngestError(f"expected {len(fields)} fields", line=reader.line_num)
            rows.append((reader.line_num, row))
    return rows


def _reference_parse(line, date_s, iv_s, ut, c_s, user_types, least, month_of, date_cache):
    """(day, interval, user code, count) of one row's last four fields."""
    dom = date_cache.get(date_s)
    if dom is None:
        try:
            parsed = dt.date.fromisoformat(date_s)
        except ValueError:
            raise IngestError(f"bad date {date_s!r}", line=line) from None
        month_of.setdefault("month", (parsed.year, parsed.month))
        if (parsed.year, parsed.month) != month_of["month"]:
            raise IngestError("mixed months", line=line)
        dom = date_cache[date_s] = parsed.day
    try:
        iv = int(iv_s)
    except ValueError:
        iv = -1
    if not 1 <= iv <= 9:
        raise IngestError(f"unknown interval index {iv_s!r}", line=line)
    if ut not in user_types:
        raise IngestError(f"unknown user type {ut!r}", line=line)
    try:
        c = int(c_s)
    except ValueError:
        c = -1
    if not least <= c <= np.iinfo(np.int64).max:
        raise IngestError(f"bad count {c_s!r}", line=line)
    return dom, iv, FOOTFALL_USER_TYPES.index(ut), c


def _reference_hex(h, hex_to_code, line):
    if h not in hex_to_code:
        if not is_hex_id(h):
            raise IngestError(f"malformed hex id: {h!r}", line=line)
        hex_to_code[h] = len(hex_to_code)
    return hex_to_code[h]


def reference_load_od(path, user_type_filter=None):
    """An ODStore parsed row by row; duplicates rejected through a set."""
    rows = _reference_rows(path, OD_HEADER)
    n = len(rows)
    hex_to_code, date_cache, month_of, seen = {}, {}, {}, set()
    origin_code = np.empty(n, dtype=np.int32)
    dest_code = np.empty(n, dtype=np.int32)
    day = np.empty(n, dtype=np.int16)
    interval = np.empty(n, dtype=np.int8)
    user_code = np.empty(n, dtype=np.int8)
    count = np.empty(n, dtype=np.int64)
    for i, (line, (o, d, date_s, iv_s, ut, c_s)) in enumerate(rows):
        origin_code[i] = _reference_hex(o, hex_to_code, line)
        dest_code[i] = _reference_hex(d, hex_to_code, line)
        day[i], interval[i], user_code[i], count[i] = _reference_parse(
            line, date_s, iv_s, ut, c_s, OD_USER_TYPES, 1, month_of, date_cache
        )
        key = (o, d, day[i], interval[i], ut)
        if key in seen:
            raise IngestError("duplicate key", line=line)
        seen.add(key)
    keep = np.ones(n, dtype=bool)
    if user_type_filter is not None:
        keep = user_code == FOOTFALL_USER_TYPES.index(user_type_filter)
    year, month = month_of.get("month", (None, None))
    return ODStore(
        tuple(hex_to_code), origin_code[keep], dest_code[keep], day[keep], interval[keep],
        user_code[keep], count[keep], year, month,
    )


def reference_load_footfall(path):
    """A FootfallStore parsed row by row; duplicates rejected through a set."""
    rows = _reference_rows(path, FOOTFALL_HEADER)
    n = len(rows)
    hex_to_code, date_cache, month_of, seen = {}, {}, {}, set()
    hex_code = np.empty(n, dtype=np.int32)
    day = np.empty(n, dtype=np.int16)
    interval = np.empty(n, dtype=np.int8)
    user_code = np.empty(n, dtype=np.int8)
    count = np.empty(n, dtype=np.int64)
    for i, (line, (h, date_s, iv_s, ut, c_s)) in enumerate(rows):
        hex_code[i] = _reference_hex(h, hex_to_code, line)
        day[i], interval[i], user_code[i], count[i] = _reference_parse(
            line, date_s, iv_s, ut, c_s, FOOTFALL_USER_TYPES, 0, month_of, date_cache
        )
        key = (h, day[i], interval[i], ut)
        if key in seen:
            raise IngestError("duplicate footfall key", line=line)
        seen.add(key)
    year, month = month_of.get("month", (None, None))
    return FootfallStore(tuple(hex_to_code), hex_code, day, interval, user_code, count, year, month)


def _fold_by_weekday(pre, dates):
    """Per-date (hex..., date, interval, user type, count) records as the
    ledger's {"1".."7": [[hex..., interval, user type, count], ...]} rows;
    raises AssertionError unless each date repeats its weekday's rows."""
    by_date = {date: [] for date in dates}
    for *hexes, date, iv, ut, c in pre:
        by_date[date].append([*hexes, iv, ut, c])
    folded: dict = {}
    for date, rows in by_date.items():
        if folded.setdefault(str(date.isoweekday()), rows) != rows:
            raise AssertionError(f"{date} does not repeat the rows of its weekday")
    return folded


def reference_generate(config):
    """synth.generate as one count dict per record kind, filled day by day and
    group by group, then sorted as tuples and walked record by record for
    the ledger's totals; the ledger's rows are folded per weekday after a
    check that every date repeats its weekday's rows."""
    config.validate()
    hex_ids, zones, groups = synth._layout(config)
    year, month = config.month

    # keys lead with (day, interval, user_type), so plain tuple order is
    # the files' row order
    od_sub: dict = {}
    ff_sub: dict = {}
    od_full: dict = {}
    ff_full: dict = {}
    dates = month_dates(year, month)
    for day, date in enumerate(dates, start=1):
        wd = date.isoweekday()
        for g in groups:
            if wd not in g["active_weekdays"]:
                continue
            eff = synth._effective_size(g, wd, config.thursday_weight)
            if eff == 0:
                continue
            ff_types = ("worker",) if g["kind"] == "worker" else (g["kind"], "all")
            for iv, (o, d) in g["schedule"].items():
                iv = int(iv)
                key = (day, iv, g["od_user_type"], o, d)
                od_sub[key] = od_sub.get(key, 0) + eff
                for ut in ff_types:
                    fkey = (day, iv, ut, d)
                    ff_sub[fkey] = ff_sub.get(fkey, 0) + eff
            if g["kind"] == "resident":
                ekey = (day, 9, g["od_user_type"], g["home"], g["home"])
                od_full[ekey] = od_full.get(ekey, 0) + eff
                for ut in ("resident", "all"):
                    fkey = (day, 9, ut, g["home"])
                    ff_full[fkey] = ff_full.get(fkey, 0) + eff

    # full-day rows: the sum of the sub-daily windows plus the uncovered
    # early-morning window (residents only)
    for (day, _, ut, o, d), c in od_sub.items():
        key = (day, 9, ut, o, d)
        od_full[key] = od_full.get(key, 0) + c
    for (day, _, ut, h), c in ff_sub.items():
        key = (day, 9, ut, h)
        ff_full[key] = ff_full.get(key, 0) + c

    od_keys = sorted([(*k, c) for part in (od_sub, od_full) for k, c in part.items()])
    od_pre = [(o, d, dates[day - 1], iv, ut, c) for day, iv, ut, o, d, c in od_keys]
    ff_keys = sorted([(*k, c) for part in (ff_sub, ff_full) for k, c in part.items()])
    ff_pre = [(h, dates[day - 1], iv, ut, c) for day, iv, ut, h, c in ff_keys]

    thr = config.suppression_threshold
    od_post = [r for r in od_pre if r[5] >= thr]
    ff_post = [r for r in ff_pre if r[4] >= thr]

    iso = {date: date.isoformat() for date in dates}
    daily_totals = dict.fromkeys(iso.values(), 0)
    origin_totals: dict = {}
    dest_totals: dict = {}
    for o, d, date, iv, ut, c in od_post:
        if iv == 9:
            continue
        daily_totals[iso[date]] += c
        origin_totals.setdefault(o, [0] * 8)[iv - 1] += c
        dest_totals.setdefault(d, [0] * 8)[iv - 1] += c
    suppressed_od = [r for r in od_pre if r[5] < thr]
    suppressed_ff = [r for r in ff_pre if r[4] < thr]
    ledger = synth._build_ledger(config, iso, zones, groups, {
        "od_records": _fold_by_weekday(od_pre, dates),
        "ff_records": _fold_by_weekday(ff_pre, dates),
        "suppression": {
            "threshold": thr,
            "od_records_dropped": len(suppressed_od),
            "od_mass_dropped": sum(r[5] for r in suppressed_od),
            "ff_records_dropped": len(suppressed_ff),
            "ff_mass_dropped": sum(r[4] for r in suppressed_ff),
        },
        "daily_totals": daily_totals,
        "od_origin_totals": origin_totals,
        "od_dest_totals": dest_totals,
        "totals": {
            "od_post_count": sum(r[5] for r in od_post),
            "od_post_records": len(od_post),
            "ff_post_count": sum(r[4] for r in ff_post),
            "ff_post_records": len(ff_post),
        },
    })
    return synth.SynthWorld(
        config=config, od_records=od_post, ff_records=ff_post,
        ledger=ledger, boundaries=synth.make_boundaries(hex_ids),
    )


def reference_write(world, out_dir):
    """SynthWorld.write with one f-string per CSV row, each date's ISO
    string formatted once per day; returns the four paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "od": out / "od.csv",
        "footfall": out / "footfall.csv",
        "ledger": out / "ledger.json",
        "boundaries": out / "boundaries.csv",
    }
    iso = {date: date.isoformat() for date in month_dates(*world.config.month)}
    with open(paths["od"], "w", newline="", encoding="utf-8") as fh:
        fh.write(OD_HEADER + "\n")
        fh.writelines(
            f"{o},{d},{iso[date]},{iv},{ut},{c}\n" for o, d, date, iv, ut, c in world.od_records
        )
    with open(paths["footfall"], "w", newline="", encoding="utf-8") as fh:
        fh.write(FOOTFALL_HEADER + "\n")
        fh.writelines(f"{h},{iso[date]},{iv},{ut},{c}\n" for h, date, iv, ut, c in world.ff_records)
    with open(paths["ledger"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(world.ledger, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    with open(paths["boundaries"], "w", newline="", encoding="utf-8") as fh:
        fh.write("hex,ring\n")
        fh.writelines(f"{h},{world.boundaries[h]}\n" for h in sorted(world.boundaries))
    return paths


def per_date_rows(ledger, key):
    """One record kind of the ledger written out once per date of its month,
    as [hex..., iso date, interval, user type, count] lists in date order."""
    year, month = ledger["month"]
    return [
        row[:-3] + [date.isoformat()] + row[-3:]
        for date in month_dates(year, month)
        for row in ledger[key][str(date.isoweekday())]
    ]


def reference_verify_ledger(ledger, od_store, ff_store):
    """synth.verify_ledger over the per-date record lists of per_date_rows,
    diffed record by record as when the ledger held one copy per date."""
    thr = ledger["suppression"]["threshold"]
    od_seen = {(r.origin, r.destination, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in od_store.iter_records()}
    ff_seen = {(r.hex, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in ff_store.iter_records()}
    return (_reference_diff("od", per_date_rows(ledger, "od_records"), od_seen, thr)
            + _reference_diff("footfall", per_date_rows(ledger, "ff_records"), ff_seen, thr))


def _reference_diff(kind, records, seen, thr):
    expected = {tuple(key): c for *key, c in records if c >= thr}
    report = []
    for key, c in sorted(expected.items()):
        if key not in seen:
            report.append(f"{kind} record missing: {key} count {c}")
        elif seen[key] != c:
            report.append(f"{kind} count mismatch at {key}: ledger {c}, store {seen[key]}")
    for key in sorted(seen):
        if key not in expected:
            report.append(f"{kind} record unexpected: {key} count {seen[key]}")
    return report
