"""Independent reference implementations used to check the real ones.

Deliberately written with different data structures and iteration order than
the library code: exhaustive bitmask enumeration instead of tid-set DFS,
per-day flow sets instead of packed-key indexes, two-pass arithmetic instead
of vectorized reductions.
"""

from __future__ import annotations

import calendar
import datetime as dt
import math

import numpy as np


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
        sets = list(level)
        level = frequent({a | b for a in sets for b in sets if len(a | b) == len(a) + 1})
        found.update(level)
    out = [(tuple(sorted(s)), sup) for s, sup in found.items()]
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


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
