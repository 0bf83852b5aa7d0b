"""Aggregate analytics over an OD store: per-hex temporal profiles, top-k
hubs, day-of-week daily totals, and weekday-vs-weekday difference layers.

All functions read intervals 1..8 only; full-day rows would double-count.
Every result is a pure function of the store's record multiset, so record
order never matters. Sums are exact (_sums).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .ingest import ODStore, _summable
from .model import (
    FULL_DAY_INTERVAL,
    ROLE_DESTINATION,
    ROLE_ORIGIN,
    SUB_DAY_INTERVALS,
    iso_weekday,
    month_dates,
)


def _role_codes(store: ODStore, role: str) -> np.ndarray:
    if role == ROLE_ORIGIN:
        return store.origin_code
    if role == ROLE_DESTINATION:
        return store.dest_code
    raise ValueError(f"role must be {ROLE_ORIGIN!r} or {ROLE_DESTINATION!r}")


def _subday_mask(store: ODStore) -> np.ndarray:
    return store.interval != FULL_DAY_INTERVAL


def _sums(shape, index, count: np.ndarray) -> np.ndarray:
    """count added up at index into an array of shape, exactly: int64, or
    Python ints when a sum could pass int64."""
    count = _summable(count)
    acc = np.zeros(shape, dtype=count.dtype)
    np.add.at(acc, index, count)
    return acc


@dataclass(frozen=True)
class TemporalProfile:
    hex: str
    role: str
    counts: tuple  # index 0 -> interval 1, ..., index 7 -> interval 8


@dataclass(frozen=True)
class DayOfWeekDistribution:
    role: str
    totals: dict  # weekday 1..7 -> list of (date, daily total), one per calendar day


@dataclass(frozen=True)
class DayDifferenceLayer:
    day_a: int
    day_b: int
    role: str
    values: dict  # hex -> mean daily count on day_a minus day_b


def temporal_profile(store: ODStore, hex_id: str, role: str) -> TemporalProfile:
    """Monthly count per interval 1..8 for one hex in one role; unknown hexes
    get an all-zero profile."""
    role_col = _role_codes(store, role)
    code = store.hex_code(hex_id)
    mask = _subday_mask(store) & (role_col == code) if code is not None else np.zeros(len(store), bool)
    rows = np.flatnonzero(mask)
    acc = _sums(8, store.interval[rows].astype(np.intp) - 1, store.count[rows])
    return TemporalProfile(hex=hex_id, role=role, counts=tuple(int(c) for c in acc))


def all_profiles(store: ODStore, role: str) -> dict:
    """Temporal profiles for every hex that appears in the role column."""
    role_col = _role_codes(store, role)
    rows = np.flatnonzero(_subday_mask(store))
    cell = (role_col[rows], store.interval[rows].astype(np.intp) - 1)
    acc = _sums((len(store.hex_ids), 8), cell, store.count[rows])
    out = {}
    for code in np.flatnonzero((acc != 0).any(axis=1)):
        out[store.hex_ids[code]] = TemporalProfile(
            hex=store.hex_ids[code], role=role, counts=tuple(int(c) for c in acc[code])
        )
    return out


def day_of_week_totals(store: ODStore, role: str = ROLE_DESTINATION) -> DayOfWeekDistribution:
    """Daily flow totals (all hexes, intervals 1..8) for every calendar day of
    the month, grouped by ISO weekday. Days without records contribute zero.
    The totals are role-independent; role is kept for interface symmetry."""
    _role_codes(store, role)
    totals: dict = {wd: [] for wd in range(1, 8)}
    if store.year is None:
        return DayOfWeekDistribution(role=role, totals=totals)
    rows = np.flatnonzero(_subday_mask(store))
    per_day = _sums(32, store.day[rows], store.count[rows])
    for date in month_dates(store.year, store.month):
        totals[iso_weekday(date)].append((date, int(per_day[date.day])))
    return DayOfWeekDistribution(role=role, totals=totals)


def day_difference(
    store: ODStore,
    day_a: int,
    day_b: int,
    role: str = ROLE_DESTINATION,
) -> DayDifferenceLayer:
    """Per hex: mean daily count on weekday day_a minus on day_b.

    Means divide by the weekday's calendar multiplicity (missing days count
    as zero), so 4-occurrence and 5-occurrence weekdays compare fairly.
    Hexes with no records on either weekday are omitted.
    """
    if not (1 <= day_a <= 7 and 1 <= day_b <= 7):
        raise ValueError("weekdays must be 1..7")
    if day_a == day_b:
        raise ValueError("day_a and day_b must differ")
    role_col = _role_codes(store, role)
    values: dict = {}
    if store.year is None:
        return DayDifferenceLayer(day_a=day_a, day_b=day_b, role=role, values=values)

    def weekday_sum(weekday: int) -> tuple[np.ndarray, int]:
        days = [d.day for d in month_dates(store.year, store.month) if iso_weekday(d) == weekday]
        mask = np.isin(store.day, days) & _subday_mask(store)
        rows = np.flatnonzero(mask)
        return _sums(len(store.hex_ids), role_col[rows], store.count[rows]), len(days)

    sum_a, n_a = weekday_sum(day_a)
    sum_b, n_b = weekday_sum(day_b)
    for code in np.flatnonzero((sum_a != 0) | (sum_b != 0)):
        # float(sum) / n rounds as numpy's int64 / int did
        values[store.hex_ids[code]] = float(sum_a[code]) / n_a - float(sum_b[code]) / n_b
    return DayDifferenceLayer(day_a=day_a, day_b=day_b, role=role, values=values)


def top_k(store: ODStore, role: str, k: int) -> list[tuple[str, int]]:
    """Top k hexes by monthly total in the role; ties go to the smaller hex id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    role_col = _role_codes(store, role)
    rows = np.flatnonzero(_subday_mask(store))
    acc = _sums(len(store.hex_ids), role_col[rows], store.count[rows])
    ranked = sorted(
        ((store.hex_ids[c], int(acc[c])) for c in np.flatnonzero(acc != 0)),
        key=lambda hv: (-hv[1], hv[0]),
    )
    return ranked[:k]


# -- CSV export -------------------------------------------------------------
# Each writer takes an open text stream; a file is opened with newline="".


def fmt_float(x: float) -> str:
    """Shortest round-trip float text; -0.0 is normalized so byte output is stable."""
    if x == 0:
        x = 0.0
    return repr(float(x))


def write_profile_csv(profile: TemporalProfile, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["hex", "interval", "count"])
    for iv, c in zip(SUB_DAY_INTERVALS, profile.counts):
        w.writerow([profile.hex, iv, c])


def write_dow_csv(dist: DayOfWeekDistribution, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["weekday", "date", "total"])
    rows = [
        (wd, date, total)
        for wd, day_totals in sorted(dist.totals.items())
        for date, total in day_totals
    ]
    for wd, date, total in sorted(rows, key=lambda r: (r[0], r[1])):
        w.writerow([wd, date.isoformat(), total])


def write_diff_csv(layer: DayDifferenceLayer, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["hex", "diff"])
    for h in sorted(layer.values):
        w.writerow([h, fmt_float(layer.values[h])])


def write_topk_csv(ranked: list[tuple[str, int]], fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["rank", "hex", "total"])
    for i, (h, total) in enumerate(ranked, start=1):
        w.writerow([i, h, total])
