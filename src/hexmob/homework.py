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

from .ingest import _CODE_BITS, _DAY_BITS, _MAX_HEXES, ODStore
from .model import EVENING_PEAK, MIDDAY, MORNING_PEAK, REGIME_INTERVALS, Range

check_min_days = Range("min_days", 1)


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
    """Detected pairs plus the flow store restricted to the records touching
    a pair hex (build_homework_matrix)."""

    pairs: tuple[HomeWorkPair, ...]
    flows: ODStore

    @cached_property
    def pair_hexes(self) -> frozenset[str]:
        return frozenset(h for p in self.pairs for h in (p.home, p.work))

    def homes(self) -> set[str]:
        return {p.home for p in self.pairs}


def _qualifying(store: ODStore) -> np.ndarray:
    """Packed home(21) | work(21) | day(5) key of every qualifying day of
    the store, ascending.

    Forward legs are keyed by (origin, destination, day), return legs by
    their outward pair (destination, origin, day). A day qualifies when its
    key is a non-self morning key, a key of an evening return, and not a
    key of a midday return.
    """
    o = store.origin_code.astype(np.int64)
    d = store.dest_code.astype(np.int64)
    day = store.day.astype(np.int64)
    forward = (o << _CODE_BITS | d) << _DAY_BITS | day
    back = (d << _CODE_BITS | o) << _DAY_BITS | day
    morning = np.unique(forward[np.isin(store.interval, REGIME_INTERVALS[MORNING_PEAK]) & (o != d)])
    returned = np.isin(morning, back[np.isin(store.interval, REGIME_INTERVALS[EVENING_PEAK])])
    midday = np.isin(morning, back[np.isin(store.interval, REGIME_INTERVALS[MIDDAY])])
    return morning[returned & ~midday]


def day_qualifies(store: ODStore, home: str, work: str, day: dt.date) -> bool:
    """True iff this day shows home->work in the morning, work->home in the
    evening, and no work->home during the disqualifier intervals. Records
    of any user type count. A day outside the store's month, or any day of
    an empty store, never qualifies."""
    h, w = store.hex_code(home), store.hex_code(work)
    if h is None or w is None or (day.year, day.month) != (store.year, store.month):
        return False
    key = (h << _CODE_BITS | w) << _DAY_BITS | day.day
    return key in _qualifying(store.subset(store.day == day.day))


def detect_home_work(store: ODStore, min_days: int = 10) -> list[HomeWorkPair]:
    """All (home, work) pairs whose qualifying-day count reaches min_days.

    Sorted by (home, work); qualifying days sorted ascending. Candidates are
    the distinct non-self morning flows, so cost scales with commute edges
    rather than all hex pairs.
    """
    check_min_days(min_days)
    keys = _qualifying(store)
    pairs, first, n_days = np.unique(keys >> _DAY_BITS, return_index=True, return_counts=True)
    kept = n_days >= min_days
    days = (keys & ((1 << _DAY_BITS) - 1)).tolist()
    out = [
        HomeWorkPair(
            home=store.hex_ids[pair >> _CODE_BITS],
            work=store.hex_ids[pair & (_MAX_HEXES - 1)],
            qualifying_days=tuple(dt.date(store.year, store.month, d) for d in days[i:i + n]),
        )
        for pair, i, n in zip(pairs[kept].tolist(), first[kept].tolist(), n_days[kept].tolist())
    ]
    out.sort(key=lambda p: (p.home, p.work))
    return out


def build_homework_matrix(store: ODStore, pairs) -> HomeWorkMatrix:
    """Restrict the store to the records whose origin or destination is a
    pair hex. That keeps dwell self-loops and secondary-stop legs, so
    downstream chaining can follow a whole day."""
    pairs = tuple(sorted(pairs, key=lambda p: (p.home, p.work)))
    codes = np.array(
        [c for c in (store.hex_code(h) for p in pairs for h in (p.home, p.work)) if c is not None],
        dtype=np.int32,
    )
    mask = np.isin(store.origin_code, codes) | np.isin(store.dest_code, codes)
    return HomeWorkMatrix(pairs=pairs, flows=store.subset(np.flatnonzero(mask)))


def export_pairs_csv(pairs, fh) -> None:
    """Write `home_hex,work_hex,qualifying_days` rows (days semicolon-joined
    ISO) to an open text stream."""
    import csv

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["home_hex", "work_hex", "qualifying_days"])
    for p in sorted(pairs, key=lambda p: (p.home, p.work)):
        w.writerow([p.home, p.work, ";".join(d.isoformat() for d in p.qualifying_days)])
