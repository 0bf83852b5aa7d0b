"""Home-work anchor pair detection from reversed commute flows.

A day qualifies a (home, work) pair when the forward flow shows up in the
morning peak, the reverse flow in the evening peak, and the reverse flow is
absent across the midday disqualifier intervals (a midday return means the
morning trip was not a commute). Pairs that qualify on enough days across
the month become anchors.

Detection is type-blind over whatever store it is given; pass a
worker-filtered store to match the intended semantics.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import ODStore

MORNING_INTERVALS = (1, 2)
EVENING_INTERVALS = (6, 7)
DISQUALIFIER_INTERVALS = (3, 4, 5)


@dataclass(frozen=True)
class HomeWorkPair:
    home: str
    work: str
    qualifying_days: tuple[dt.date, ...]

    def __post_init__(self):
        if self.home == self.work:
            raise ValueError("home and work must differ")


@dataclass(frozen=True)
class HomeWorkMatrix:
    """Detected pairs plus the flow store restricted around them.

    scope="hexes" keeps every record touching a pair hex (needed for diary
    chaining, which walks through dwell self-loops and secondary stops);
    scope="edges" keeps only records whose (origin, destination) or reverse
    is itself a detected pair.
    """

    pairs: tuple[HomeWorkPair, ...]
    flows: ODStore
    scope: str = "hexes"

    @cached_property
    def pair_hexes(self) -> frozenset[str]:
        return frozenset(h for p in self.pairs for h in (p.home, p.work))

    def homes(self) -> set[str]:
        return {p.home for p in self.pairs}


def day_qualifies(
    store: ODStore,
    home: str,
    work: str,
    day: dt.date,
    morning_intervals=MORNING_INTERVALS,
    evening_intervals=EVENING_INTERVALS,
    disqualifier_intervals=DISQUALIFIER_INTERVALS,
) -> bool:
    """True iff this day shows home->work in the morning, work->home in the
    evening, and no work->home during the disqualifier intervals. Records
    of any user type count, and the day is matched by its day of month."""
    h, w = store.hex_code(home), store.hex_code(work)
    if home == work or h is None or w is None:
        return False
    on_day = store.day == day.day
    forward = store.interval[on_day & (store.origin_code == h) & (store.dest_code == w)]
    back = store.interval[on_day & (store.origin_code == w) & (store.dest_code == h)]
    return bool(
        np.isin(forward, morning_intervals).any()
        and np.isin(back, evening_intervals).any()
        and not np.isin(back, disqualifier_intervals).any()
    )


def detect_home_work(
    store: ODStore,
    min_days: int = 10,
    morning_intervals=MORNING_INTERVALS,
    evening_intervals=EVENING_INTERVALS,
    disqualifier_intervals=DISQUALIFIER_INTERVALS,
) -> list[HomeWorkPair]:
    """All (home, work) pairs whose qualifying-day count reaches min_days.

    Sorted by (home, work); qualifying days sorted ascending. Candidates are
    the distinct non-self morning flows, so cost scales with commute edges
    rather than all hex pairs.
    """
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    if len(store) == 0:
        return []

    morning_days = _pair_days(store, morning_intervals, skip_self=True)
    evening_days = _pair_days(store, evening_intervals)
    disq_days = _pair_days(store, disqualifier_intervals)

    out = []
    empty: set[int] = set()
    for (h_code, w_code), m_days in morning_days.items():
        reverse = (w_code, h_code)
        days = (m_days & evening_days.get(reverse, empty)) - disq_days.get(reverse, empty)
        if len(days) >= min_days:
            out.append(
                HomeWorkPair(
                    home=store.hex_ids[h_code],
                    work=store.hex_ids[w_code],
                    qualifying_days=tuple(
                        dt.date(store.year, store.month, d) for d in sorted(days)
                    ),
                )
            )
    out.sort(key=lambda p: (p.home, p.work))
    return out


def _pair_days(store: ODStore, intervals, skip_self: bool = False) -> dict[tuple[int, int], set[int]]:
    mask = np.isin(store.interval, list(intervals))
    if skip_self:
        mask &= store.origin_code != store.dest_code
    rows = np.flatnonzero(mask)
    out: dict[tuple[int, int], set[int]] = {}
    o, d, days = store.origin_code[rows], store.dest_code[rows], store.day[rows]
    for i in range(len(rows)):
        out.setdefault((int(o[i]), int(d[i])), set()).add(int(days[i]))
    return out


def build_homework_matrix(
    store: ODStore,
    pairs,
    scope: str = "hexes",
) -> HomeWorkMatrix:
    """Restrict the store around the detected pairs.

    scope="hexes" (default): records whose origin or destination is a pair
    hex, which keeps dwell self-loops and secondary-stop legs so downstream
    chaining can follow a whole day. scope="edges": only records lying on a
    detected pair edge (either direction).
    """
    pairs = tuple(sorted(pairs, key=lambda p: (p.home, p.work)))
    if scope not in ("hexes", "edges"):
        raise ValueError("scope must be 'hexes' or 'edges'")
    if not pairs:
        return HomeWorkMatrix(pairs=(), flows=store.subset(np.empty(0, dtype=np.intp)), scope=scope)

    if scope == "hexes":
        codes = {c for c in (store.hex_code(h) for p in pairs for h in (p.home, p.work)) if c is not None}
        code_arr = np.fromiter(codes, dtype=np.int32, count=len(codes)) if codes else np.empty(0, np.int32)
        mask = np.isin(store.origin_code, code_arr) | np.isin(store.dest_code, code_arr)
    else:
        edge_keys = set()
        for p in pairs:
            hc, wc = store.hex_code(p.home), store.hex_code(p.work)
            if hc is None or wc is None:
                continue
            edge_keys.add(hc << 21 | wc)
            edge_keys.add(wc << 21 | hc)
        keys = store.origin_code.astype(np.int64) << 21 | store.dest_code.astype(np.int64)
        key_arr = np.fromiter(edge_keys, dtype=np.int64, count=len(edge_keys)) if edge_keys else np.empty(0, np.int64)
        mask = np.isin(keys, key_arr)
    return HomeWorkMatrix(pairs=pairs, flows=store.subset(np.flatnonzero(mask)), scope=scope)


def export_pairs_csv(pairs, fh) -> None:
    """Write `home_hex,work_hex,qualifying_days` rows (days semicolon-joined
    ISO) to an open text stream."""
    import csv

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["home_hex", "work_hex", "qualifying_days"])
    for p in sorted(pairs, key=lambda p: (p.home, p.work)):
        w.writerow([p.home, p.work, ";".join(d.isoformat() for d in p.qualifying_days)])
