"""CSV ingest and columnar in-memory stores for OD and footfall data.

Both loaders reject the whole file on the first malformed row (silent row
skipping would corrupt downstream detection counts) and report the offending
file line number. Stores keep records in numpy columns with packed-key sorted
indexes, so lookups by (day, interval, origin) are binary searches rather than
dict-of-arrays blowups on big files. Tables that depend only on the store (the
weekday flow index, the footfall means) are built on first use and kept.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    FOOTFALL_USER_TYPES,
    FULL_DAY_INTERVAL,
    OD_USER_TYPES,
    SUB_DAY_INTERVALS,
    FlowRecord,
    FootfallRecord,
    is_hex_id,
    weekday_dates,
)

OD_HEADER = "origin_hex,destination_hex,date,interval,user_type,count"
FOOTFALL_HEADER = "hex,date,interval,user_type,count"

# packed index key layout: day(5) | interval(4) | hex code(21)
_CODE_BITS = 21
_MAX_HEXES = 1 << _CODE_BITS
# counts are stored in int64 columns
_MAX_COUNT = int(np.iinfo(np.int64).max)


class IngestError(ValueError):
    """Malformed input file; line is the 1-based file line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptySelectionError(ValueError):
    """An aggregate was requested over zero records."""


@dataclass(frozen=True)
class StatsSummary:
    """Descriptive statistics over record counts (std is population, divide by N)."""

    count: int
    mean: float
    std: float
    min: int
    max: int


@dataclass(frozen=True)
class MonthlyODAggregate:
    """Whole-month totals per OD pair plus their mean and the below-mean share."""

    totals: dict[tuple[str, str], int]
    mean: float
    below_mean_share: float


def _pack(day: np.ndarray, interval: np.ndarray, code: np.ndarray) -> np.ndarray:
    return (
        day.astype(np.int64) << (_CODE_BITS + 4)
        | interval.astype(np.int64) << _CODE_BITS
        | code.astype(np.int64)
    )


def _flow_key(interval, origin, dest) -> np.ndarray:
    """Packed interval(4) | origin(21) | destination(21) key."""
    return (
        np.asarray(interval, dtype=np.int64) << (2 * _CODE_BITS)
        | np.asarray(origin, dtype=np.int64) << _CODE_BITS
        | np.asarray(dest, dtype=np.int64)
    )


def _count_column(counts: Sequence[int]) -> np.ndarray:
    """counts as an int64 column; a count outside int64 is a ValueError
    naming its record."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        bad = next(i for i, c in enumerate(counts) if not -_MAX_COUNT - 1 <= c <= _MAX_COUNT)
        raise ValueError(f"count {counts[bad]} at record {bad} does not fit in int64") from None


def _summable(count: np.ndarray) -> np.ndarray:
    """count, as Python ints when a sum of all of it could pass int64, so
    that sums over it stay exact like the Python-int sums they replace."""
    if len(count) and int(count.max()) > np.iinfo(np.int64).max // len(count):
        return count.astype(object)
    return count


class _PackedIndex:
    """Sorted packed-key index for exact (day, interval, hex code) lookups."""

    def __init__(self, day: np.ndarray, interval: np.ndarray, code: np.ndarray):
        keys = _pack(day, interval, code)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]

    def rows(self, day: int, interval: int, code: int) -> np.ndarray:
        key = day << (_CODE_BITS + 4) | interval << _CODE_BITS | code
        lo = np.searchsorted(self.sorted_keys, key, side="left")
        hi = np.searchsorted(self.sorted_keys, key, side="right")
        return self.order[lo:hi]


class WeekdayFlows:
    """One weekday's sub-day flows, summed over its dates and user types.

    Each (interval, origin, destination) present on some date of the weekday
    is one entry, holding its summed count and a bitmask of the dates it is
    present on (bit k = the weekday's k-th date). Entries are sorted by
    (interval, origin, destination) for the chain frontier, and a second
    order sorts them by destination for the series into a hex.
    """

    def __init__(self, store: "ODStore", weekday: int):
        dates = [] if store.year is None else weekday_dates(store.year, store.month, weekday)
        position = np.full(32, -1, dtype=np.int64)
        position[[d.day for d in dates]] = np.arange(len(dates))
        pos = position[store.day]
        sel = np.flatnonzero((pos >= 0) & (store.interval != FULL_DAY_INTERVAL))
        self._keys, inverse = np.unique(
            _flow_key(store.interval[sel], store.origin_code[sel], store.dest_code[sel]),
            return_inverse=True,
        )
        rows_count = _summable(store.count[sel])
        count = np.zeros(len(self._keys), dtype=rows_count.dtype)
        np.add.at(count, inverse, rows_count)
        self._day_mask = np.zeros(len(self._keys), dtype=np.int64)
        np.bitwise_or.at(self._day_mask, inverse, np.int64(1) << pos[sel])
        dest = self._keys & (_MAX_HEXES - 1)
        #: one (origin, destination, interval, count) row per entry
        self.flows = np.stack([
            self._keys >> _CODE_BITS & (_MAX_HEXES - 1), dest,
            self._keys >> (2 * _CODE_BITS), count,
        ], axis=1)
        self._origin_keys = self._keys >> _CODE_BITS  # (interval, origin), sorted
        self._dest_order = np.argsort(dest, kind="stable")
        self._sorted_dest = dest[self._dest_order]

    def from_origins(self, intervals, origins) -> list[int]:
        """Entries at any of the intervals leaving any of the origin codes."""
        wanted = np.array([iv << _CODE_BITS | o for iv in intervals for o in origins], dtype=np.int64)
        lo = np.searchsorted(self._origin_keys, wanted, side="left").tolist()
        hi = np.searchsorted(self._origin_keys, wanted, side="right").tolist()
        return [i for a, b in zip(lo, hi) for i in range(a, b)]

    def into(self, dest: int) -> np.ndarray:
        """Entries, at any interval, ending at the destination code."""
        lo = np.searchsorted(self._sorted_dest, dest, side="left")
        hi = np.searchsorted(self._sorted_dest, dest, side="right")
        return self._dest_order[lo:hi]

    def day_masks(self, origins, dests, intervals) -> np.ndarray:
        """Date bitmask per (origin, destination, interval) code triple; each
        triple must be an entry, as every chained flow is."""
        wanted = _flow_key(intervals, origins, dests)
        return self._day_mask[np.searchsorted(self._keys, wanted)]


class ODStore:
    """Validated, immutable, queryable month of OD flow records.

    Columns: origin/destination as int codes into hex_ids, day-of-month,
    interval, user-type code into FOOTFALL_USER_TYPES, count. All records
    share one calendar month and no (origin, destination, day, interval,
    user_type) key repeats.
    """

    def __init__(
        self,
        hex_ids: Sequence[str],
        origin_code: np.ndarray,
        dest_code: np.ndarray,
        day: np.ndarray,
        interval: np.ndarray,
        user_code: np.ndarray,
        count: np.ndarray,
        year: int | None,
        month: int | None,
        _skip_checks: bool = False,
    ):
        self.hex_ids = tuple(hex_ids)
        self._hex_to_code = {h: i for i, h in enumerate(self.hex_ids)}
        self.origin_code = np.asarray(origin_code, dtype=np.int32)
        self.dest_code = np.asarray(dest_code, dtype=np.int32)
        self.day = np.asarray(day, dtype=np.int16)
        self.interval = np.asarray(interval, dtype=np.int8)
        self.user_code = np.asarray(user_code, dtype=np.int8)
        self.count = np.asarray(count, dtype=np.int64)
        self.year = year
        self.month = month
        if not _skip_checks:
            self._check_duplicates()
        self._by_origin = _PackedIndex(self.day, self.interval, self.origin_code)
        self._by_weekday: dict[int, WeekdayFlows] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "ODStore":
        recs = list(records)
        return cls.from_columns(
            origins=[r.origin for r in recs],
            destinations=[r.destination for r in recs],
            dates=[r.day for r in recs],
            intervals=[r.interval for r in recs],
            user_types=[r.user_type for r in recs],
            counts=[r.count for r in recs],
        )

    @classmethod
    def from_columns(
        cls,
        origins: Sequence[str],
        destinations: Sequence[str],
        dates: Sequence[dt.date],
        intervals: Sequence[int],
        user_types: Sequence[str],
        counts: Sequence[int],
    ) -> "ODStore":
        n = len(origins)
        if not (len(destinations) == len(dates) == len(intervals) == len(user_types) == len(counts) == n):
            raise ValueError("column lengths differ")
        hex_to_code: dict[str, int] = {}
        for h in origins:
            _hex_code(h, hex_to_code)
        for h in destinations:
            _hex_code(h, hex_to_code)
        hex_ids = tuple(hex_to_code)
        origin_code = np.fromiter((hex_to_code[h] for h in origins), dtype=np.int32, count=n)
        dest_code = np.fromiter((hex_to_code[h] for h in destinations), dtype=np.int32, count=n)
        year = month = None
        day = np.empty(n, dtype=np.int16)
        for i, d in enumerate(dates):
            if year is None:
                year, month = d.year, d.month
            elif (d.year, d.month) != (year, month):
                raise ValueError(f"mixed months: {year}-{month:02d} and {d.year}-{d.month:02d}")
            day[i] = d.day
        interval = np.asarray(intervals, dtype=np.int8)
        if n and not ((interval >= 1) & (interval <= 9)).all():
            bad = int(np.argmin((interval >= 1) & (interval <= 9)))
            raise ValueError(f"unknown interval index {intervals[bad]} at record {bad}")
        user_code = np.empty(n, dtype=np.int8)
        for i, u in enumerate(user_types):
            if u not in OD_USER_TYPES:
                raise ValueError(f"unknown OD user type {u!r} at record {i}")
            user_code[i] = FOOTFALL_USER_TYPES.index(u)
        count = _count_column(counts)
        if n and count.min() < 1:
            bad = int(np.argmin(count))
            raise ValueError(f"count must be >= 1, got {int(count[bad])} at record {bad}")
        return cls(hex_ids, origin_code, dest_code, day, interval, user_code, count, year, month)

    def _check_duplicates(self) -> None:
        if len(self.count) == 0:
            return
        # key spans user(2) | interval(4) | day(5) | origin(21) | dest(21) = 53 bits
        keys = (
            self.user_code.astype(np.int64) << 51
            | self.interval.astype(np.int64) << 47
            | self.day.astype(np.int64) << 42
            | self.origin_code.astype(np.int64) << 21
            | self.dest_code.astype(np.int64)
        )
        uniq, counts = np.unique(keys, return_counts=True)
        if len(uniq) != len(keys):
            dup_key = uniq[counts > 1][0]
            rows = np.flatnonzero(keys == dup_key)
            r = self.record(int(rows[1]))
            raise ValueError(
                "duplicate record key "
                f"({r.origin},{r.destination},{r.day.isoformat()},{r.interval},{r.user_type})"
                f" at records {rows[0]} and {rows[1]}"
            )

    def subset(self, rows: np.ndarray) -> "ODStore":
        """New store holding the given row indices; invariants carry over."""
        return ODStore(
            self.hex_ids,
            self.origin_code[rows],
            self.dest_code[rows],
            self.day[rows],
            self.interval[rows],
            self.user_code[rows],
            self.count[rows],
            self.year,
            self.month,
            _skip_checks=True,
        )

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.count)

    def hex_code(self, hex_id: str) -> int | None:
        return self._hex_to_code.get(hex_id)

    def record(self, i: int) -> FlowRecord:
        return FlowRecord(
            origin=self.hex_ids[self.origin_code[i]],
            destination=self.hex_ids[self.dest_code[i]],
            day=dt.date(self.year, self.month, int(self.day[i])),
            interval=int(self.interval[i]),
            user_type=FOOTFALL_USER_TYPES[self.user_code[i]],
            count=int(self.count[i]),
        )

    def iter_records(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def dates_present(self) -> list[dt.date]:
        if len(self) == 0:
            return []
        return [dt.date(self.year, self.month, int(d)) for d in np.unique(self.day)]

    def user_types_present(self) -> list[str]:
        return [FOOTFALL_USER_TYPES[c] for c in np.unique(self.user_code)]

    def rows_by_origin(self, day: dt.date, interval: int, origin: str) -> np.ndarray:
        code = self._hex_to_code.get(origin)
        if code is None:
            return np.empty(0, dtype=np.intp)
        return self._by_origin.rows(day.day, interval, code)

    def weekday_flows(self, weekday: int) -> WeekdayFlows:
        """The weekday's flow index, built on first use and kept with the store."""
        if not 1 <= weekday <= 7:
            raise ValueError(f"weekday out of range 1..7: {weekday}")
        index = self._by_weekday.get(weekday)
        if index is None:
            index = self._by_weekday[weekday] = WeekdayFlows(self, weekday)
        return index

    def has_flow(self, origin: str, destination: str, day: dt.date, interval: int) -> bool:
        """True if any record (any user type) carries this directed flow."""
        rows = self.rows_by_origin(day, interval, origin)
        if len(rows) == 0:
            return False
        code = self._hex_to_code.get(destination)
        return code is not None and bool((self.dest_code[rows] == code).any())

    def total_count(self) -> int:
        return int(self.count.sum())


class FootfallStore:
    """Validated month of footfall records, indexed by hex."""

    def __init__(
        self,
        hex_ids: Sequence[str],
        hex_code: np.ndarray,
        day: np.ndarray,
        interval: np.ndarray,
        user_code: np.ndarray,
        count: np.ndarray,
        year: int | None,
        month: int | None,
    ):
        self.hex_ids = tuple(hex_ids)
        self._hex_to_code = {h: i for i, h in enumerate(self.hex_ids)}
        self.hex_col = np.asarray(hex_code, dtype=np.int32)
        self.day = np.asarray(day, dtype=np.int16)
        self.interval = np.asarray(interval, dtype=np.int8)
        self.user_code = np.asarray(user_code, dtype=np.int8)
        self.count = np.asarray(count, dtype=np.int64)
        self.year = year
        self.month = month
        self._check_duplicates()

    @classmethod
    def from_records(cls, records: Iterable[FootfallRecord]) -> "FootfallStore":
        recs = list(records)
        n = len(recs)
        hex_to_code: dict[str, int] = {}
        for r in recs:
            _hex_code(r.hex, hex_to_code)
        hex_ids = tuple(hex_to_code)
        hex_code = np.fromiter((hex_to_code[r.hex] for r in recs), dtype=np.int32, count=n)
        year = month = None
        day = np.empty(n, dtype=np.int16)
        for i, r in enumerate(recs):
            if year is None:
                year, month = r.day.year, r.day.month
            elif (r.day.year, r.day.month) != (year, month):
                raise ValueError(
                    f"mixed months: {year}-{month:02d} and {r.day.year}-{r.day.month:02d}"
                )
            day[i] = r.day.day
        interval = np.asarray([r.interval for r in recs], dtype=np.int8)
        if n and not ((interval >= 1) & (interval <= 9)).all():
            bad = int(np.argmin((interval >= 1) & (interval <= 9)))
            raise ValueError(f"unknown interval index {recs[bad].interval} at record {bad}")
        user_code = np.empty(n, dtype=np.int8)
        for i, r in enumerate(recs):
            if r.user_type not in FOOTFALL_USER_TYPES:
                raise ValueError(f"unknown footfall user type {r.user_type!r} at record {i}")
            user_code[i] = FOOTFALL_USER_TYPES.index(r.user_type)
        count = _count_column([r.count for r in recs])
        if n and count.min() < 0:
            bad = int(np.argmin(count))
            raise ValueError(f"count must be >= 0, got {int(count[bad])} at record {bad}")
        return cls(hex_ids, hex_code, day, interval, user_code, count, year, month)

    def _check_duplicates(self) -> None:
        if len(self.count) == 0:
            return
        keys = (
            self.user_code.astype(np.int64) << 30
            | self.interval.astype(np.int64) << 26
            | self.day.astype(np.int64) << 21
            | self.hex_col.astype(np.int64)
        )
        uniq, counts = np.unique(keys, return_counts=True)
        if len(uniq) != len(keys):
            dup_key = uniq[counts > 1][0]
            rows = np.flatnonzero(keys == dup_key)
            r = self.record(int(rows[1]))
            raise ValueError(
                f"duplicate footfall key ({r.hex},{r.day.isoformat()},{r.interval},{r.user_type})"
                f" at records {rows[0]} and {rows[1]}"
            )

    def __len__(self) -> int:
        return len(self.count)

    def record(self, i: int) -> FootfallRecord:
        return FootfallRecord(
            hex=self.hex_ids[self.hex_col[i]],
            day=dt.date(self.year, self.month, int(self.day[i])),
            interval=int(self.interval[i]),
            user_type=FOOTFALL_USER_TYPES[self.user_code[i]],
            count=int(self.count[i]),
        )

    def iter_records(self) -> Iterator[FootfallRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def mean_daily_count(self, hex_id: str, user_type: str) -> float | None:
        """Mean daily footfall for a hex and user type, over days with data;
        None when the hex has no rows of that type.

        A day's value is its full-day (interval 9) count when present,
        otherwise the sum of its sub-daily interval counts.
        """
        if user_type not in FOOTFALL_USER_TYPES:
            raise ValueError(f"unknown footfall user type {user_type!r}")
        return self._means.get((hex_id, user_type))

    @cached_property
    def _means(self) -> dict[tuple[str, str], float]:
        """Every (hex, user type) mean in one pass. Sums are exact (int64, or
        Python ints when counts are large enough to overflow it) and the
        division is on Python ints, so each mean is the correctly rounded
        quotient, bit-identical to sum(values) / len(values)."""
        if len(self) == 0:
            return {}
        # day key: user(3) | hex(21) | day(5)
        keys = (
            self.user_code.astype(np.int64) << (_CODE_BITS + 5)
            | self.hex_col.astype(np.int64) << 5
            | self.day.astype(np.int64)
        )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        full = self.interval[order] == FULL_DAY_INTERVAL
        count = _summable(self.count[order])
        day_start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        has_full = np.logical_or.reduceat(full, day_start)
        full_count = np.add.reduceat(np.where(full, count, 0), day_start)
        sub_count = np.add.reduceat(np.where(full, 0, count), day_start)
        value = np.where(has_full, full_count, sub_count)
        group = keys[day_start] >> 5  # user | hex
        group_start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        totals = np.add.reduceat(value, group_start).tolist()
        n_days = np.diff(np.r_[group_start, len(group)]).tolist()
        return {
            (self.hex_ids[g & (_MAX_HEXES - 1)], FOOTFALL_USER_TYPES[g >> _CODE_BITS]): t / n
            for g, t, n in zip(group[group_start].tolist(), totals, n_days)
        }

    def total_count(self) -> int:
        return int(self.count.sum())


def _hex_code(h: str, table: dict[str, int]) -> int:
    code = table.get(h)
    if code is None:
        if not is_hex_id(h):
            raise ValueError(f"malformed hex id: {h!r}")
        code = len(table)
        if code >= _MAX_HEXES:
            raise ValueError("too many distinct hexes for packed index")
        table[h] = code
    return code


def _read_rows(path: str | Path, expected_header: str) -> tuple[list[list[str]], int]:
    p = Path(path)
    if not p.exists():
        raise IngestError(f"no such file: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file, expected header", line=1) from None
        if header != expected_header.split(","):
            raise IngestError(
                f"bad header {','.join(header)!r}, expected {expected_header!r}", line=1
            )
        n_fields = len(header)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise IngestError(f"expected {n_fields} fields, got {len(row)}", line=line_no)
            rows.append(row)
    return rows, n_fields


def load_od(path: str | Path, user_type_filter: str | None = None) -> ODStore:
    """Parse and index an OD CSV; the whole file is rejected on any bad row.

    With user_type_filter set, rows of other user types are validated but not
    stored. Duplicate keys and month mixing are checked before filtering.
    """
    if user_type_filter is not None and user_type_filter not in OD_USER_TYPES:
        raise ValueError(f"user_type_filter must be one of {OD_USER_TYPES}")
    rows, _ = _read_rows(path, OD_HEADER)
    n = len(rows)
    hex_to_code: dict[str, int] = {}
    date_cache: dict[str, int] = {}
    year = month = None
    origin_code = np.empty(n, dtype=np.int32)
    dest_code = np.empty(n, dtype=np.int32)
    day = np.empty(n, dtype=np.int16)
    interval = np.empty(n, dtype=np.int8)
    user_code = np.empty(n, dtype=np.int8)
    count = np.empty(n, dtype=np.int64)
    user_lookup = {u: FOOTFALL_USER_TYPES.index(u) for u in OD_USER_TYPES}
    for i, row in enumerate(rows):
        line = i + 2
        o, d, date_s, iv_s, ut, c_s = row
        try:
            origin_code[i] = _hex_code(o, hex_to_code)
            dest_code[i] = _hex_code(d, hex_to_code)
        except ValueError as e:
            raise IngestError(str(e), line=line) from None
        dom = date_cache.get(date_s)
        if dom is None:
            try:
                parsed = dt.date.fromisoformat(date_s)
            except ValueError:
                raise IngestError(f"bad date {date_s!r}", line=line) from None
            if year is None:
                year, month = parsed.year, parsed.month
            elif (parsed.year, parsed.month) != (year, month):
                raise IngestError(
                    f"mixed months: file is {year}-{month:02d} but row has {date_s}", line=line
                )
            dom = parsed.day
            date_cache[date_s] = dom
        day[i] = dom
        try:
            iv = int(iv_s)
        except ValueError:
            iv = -1
        if not 1 <= iv <= 9:
            raise IngestError(f"unknown interval index {iv_s!r}", line=line)
        interval[i] = iv
        uc = user_lookup.get(ut)
        if uc is None:
            raise IngestError(f"unknown user type {ut!r}", line=line)
        user_code[i] = uc
        try:
            c = int(c_s)
        except ValueError:
            c = -1
        if c < 1:
            raise IngestError(f"count must be a positive integer, got {c_s!r}", line=line)
        if c > _MAX_COUNT:
            raise IngestError(f"count {c_s!r} is above the int64 maximum {_MAX_COUNT}", line=line)
        count[i] = c

    _raise_on_duplicate_lines(origin_code, dest_code, day, interval, user_code)

    if user_type_filter is not None:
        keep = user_code == FOOTFALL_USER_TYPES.index(user_type_filter)
        origin_code = origin_code[keep]
        dest_code = dest_code[keep]
        day = day[keep]
        interval = interval[keep]
        user_code = user_code[keep]
        count = count[keep]
    return ODStore(
        tuple(hex_to_code), origin_code, dest_code, day, interval, user_code, count,
        year, month, _skip_checks=True,
    )


def _raise_on_duplicate_lines(origin_code, dest_code, day, interval, user_code) -> None:
    if len(day) == 0:
        return
    keys = (
        user_code.astype(np.int64) << 51
        | interval.astype(np.int64) << 47
        | day.astype(np.int64) << 42
        | origin_code.astype(np.int64) << 21
        | dest_code.astype(np.int64)
    )
    uniq, counts = np.unique(keys, return_counts=True)
    if len(uniq) == len(keys):
        return
    dup_key = uniq[counts > 1][0]
    rows = np.flatnonzero(keys == dup_key)
    raise IngestError(
        f"duplicate key, first seen at line {int(rows[0]) + 2}", line=int(rows[1]) + 2
    )


def load_footfall(path: str | Path) -> FootfallStore:
    """Parse and index a footfall CSV; rejects the whole file on any bad row."""
    rows, _ = _read_rows(path, FOOTFALL_HEADER)
    n = len(rows)
    hex_to_code: dict[str, int] = {}
    date_cache: dict[str, int] = {}
    year = month = None
    hex_code = np.empty(n, dtype=np.int32)
    day = np.empty(n, dtype=np.int16)
    interval = np.empty(n, dtype=np.int8)
    user_code = np.empty(n, dtype=np.int8)
    count = np.empty(n, dtype=np.int64)
    user_lookup = {u: i for i, u in enumerate(FOOTFALL_USER_TYPES)}
    for i, row in enumerate(rows):
        line = i + 2
        h, date_s, iv_s, ut, c_s = row
        try:
            hex_code[i] = _hex_code(h, hex_to_code)
        except ValueError as e:
            raise IngestError(str(e), line=line) from None
        dom = date_cache.get(date_s)
        if dom is None:
            try:
                parsed = dt.date.fromisoformat(date_s)
            except ValueError:
                raise IngestError(f"bad date {date_s!r}", line=line) from None
            if year is None:
                year, month = parsed.year, parsed.month
            elif (parsed.year, parsed.month) != (year, month):
                raise IngestError(
                    f"mixed months: file is {year}-{month:02d} but row has {date_s}", line=line
                )
            dom = parsed.day
            date_cache[date_s] = dom
        day[i] = dom
        try:
            iv = int(iv_s)
        except ValueError:
            iv = -1
        if not 1 <= iv <= 9:
            raise IngestError(f"unknown interval index {iv_s!r}", line=line)
        interval[i] = iv
        uc = user_lookup.get(ut)
        if uc is None:
            raise IngestError(f"unknown user type {ut!r}", line=line)
        user_code[i] = uc
        try:
            c = int(c_s)
        except ValueError:
            c = -1
        if c < 0:
            raise IngestError(f"count must be a non-negative integer, got {c_s!r}", line=line)
        if c > _MAX_COUNT:
            raise IngestError(f"count {c_s!r} is above the int64 maximum {_MAX_COUNT}", line=line)
        count[i] = c
    store = FootfallStore(tuple(hex_to_code), hex_code, day, interval, user_code, count, year, month)
    return store


def descriptive_stats(store: ODStore, user_type: str) -> StatsSummary:
    """count/mean/std/min/max of flow counts for one user type (zeros are absent by schema)."""
    if user_type not in OD_USER_TYPES:
        raise ValueError(f"user type must be one of {OD_USER_TYPES}")
    sel = store.count[store.user_code == FOOTFALL_USER_TYPES.index(user_type)]
    if len(sel) == 0:
        raise EmptySelectionError(f"no records of user type {user_type!r}")
    return StatsSummary(
        count=int(len(sel)),
        mean=float(sel.mean()),
        std=float(sel.std()),
        min=int(sel.min()),
        max=int(sel.max()),
    )


def monthly_od_aggregate(
    store: ODStore,
    user_type: str | None = None,
    include_full_day: bool = False,
) -> MonthlyODAggregate:
    """Whole-month totals per (origin, destination) pair.

    Full-day (interval 9) rows are excluded by default since they re-count the
    sub-daily rows. Returns the totals map, their mean, and the fraction of
    pairs strictly below that mean.
    """
    mask = np.ones(len(store), dtype=bool) if include_full_day else store.interval != FULL_DAY_INTERVAL
    if user_type is not None:
        mask &= store.user_code == FOOTFALL_USER_TYPES.index(user_type)
    rows = np.flatnonzero(mask)
    if len(rows) == 0:
        raise EmptySelectionError("no records selected for monthly aggregate")
    pair_keys = store.origin_code[rows].astype(np.int64) << _CODE_BITS | store.dest_code[rows]
    uniq, inverse = np.unique(pair_keys, return_inverse=True)
    counts = _summable(store.count[rows])
    totals_arr = np.zeros(len(uniq), dtype=counts.dtype)
    np.add.at(totals_arr, inverse, counts)
    mean = float(totals_arr.mean())
    share = float((totals_arr < mean).sum() / len(totals_arr))
    totals = {}
    for key, total in zip(uniq, totals_arr):
        o = store.hex_ids[int(key >> _CODE_BITS)]
        d = store.hex_ids[int(key & (_MAX_HEXES - 1))]
        totals[(o, d)] = int(total)
    return MonthlyODAggregate(totals=totals, mean=mean, below_mean_share=share)
