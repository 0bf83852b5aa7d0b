"""CSV ingest and columnar in-memory stores for OD and footfall data.

Both loaders reject the whole file on the first malformed row (silent row
skipping would corrupt downstream detection counts) and report the offending
file line number. They read a file column by column: the text is split at
every line end and comma, each distinct token of a column is validated once
into a table of values (or of error messages), and whole columns are mapped
through those tables into numpy codes, so no Python code runs once per row.
Stores keep records in numpy columns with packed-key sorted indexes, so
lookups by (day, interval, origin) are binary searches rather than
dict-of-arrays blowups on big files. Tables that depend only on the store (the
origin index, the weekday flow index, the footfall means) are built on first
use and kept.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import methodcaller
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (
    ALL_INTERVALS,
    FOOTFALL_USER_TYPES,
    FULL_DAY_INTERVAL,
    OD_USER_TYPES,
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

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_INTERVAL_TOKENS = {str(iv): iv for iv in ALL_INTERVALS}


class IngestError(ValueError):
    """Malformed input file; line is the 1-based file line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def utf8_error(path: str | Path) -> IngestError:
    """The IngestError for a file that failed to decode as UTF-8, naming the
    line (ended by LF, CRLF or CR) that holds its first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return IngestError(f"not UTF-8: byte {data[e.start]:#04x} ({e.reason})", line=line)
    return IngestError("not UTF-8")  # the file changed since it failed to decode


def csv_records(path: str | Path) -> Iterator[tuple[int, list]]:
    """Yield (line, row) for each record of a UTF-8 csv file, where line is
    the file line the record starts on, so a quoted field spanning lines does
    not shift later numbers. A byte that is not UTF-8 raises utf8_error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            start = 1
            for row in reader:
                yield start, row
                start = reader.line_num + 1
    except UnicodeDecodeError:
        raise utf8_error(path) from None


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


def _flow_key(interval, origin, dest) -> np.ndarray:
    """Packed interval(4) | origin(21) | destination(21) key."""
    return (
        np.asarray(interval, dtype=np.int64) << (2 * _CODE_BITS)
        | np.asarray(origin, dtype=np.int64) << _CODE_BITS
        | np.asarray(dest, dtype=np.int64)
    )


def _first_duplicate(keys: np.ndarray) -> tuple[int, int] | None:
    """The first two rows holding the smallest repeated key, or None."""
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(repeated) == 0:
        return None
    first, second = np.flatnonzero(keys == repeated[0])[:2].tolist()
    return first, second


# -- column rules: the loaders and the store constructors share them ----
# A column table maps each distinct token (or value) of a column to what it
# stands for, or to a _Bad holding the error message of a row that has it.


class _Bad(str):
    """A token's error message, held in its column's table in place of a value."""


def _table(tokens: Iterable, parse: Callable) -> dict:
    """parse applied once to each distinct token, in order of first appearance."""
    return {t: parse(t) for t in dict.fromkeys(tokens)}


def _first_bad(column: Sequence, table: dict) -> int | None:
    """Index of the first entry of column that its table maps to a _Bad."""
    bad = {t for t, v in table.items() if isinstance(v, _Bad)}
    if not bad:
        return None
    hits = np.fromiter(map(bad.__contains__, column), bool, len(column))
    first = int(hits.argmax())
    return first if hits[first] else None


def _raise_bad(table: dict) -> None:
    """ValueError with the message of the table's first bad entry, if any."""
    for v in table.values():
        if isinstance(v, _Bad):
            raise ValueError(v)


def _codes(column: Sequence, table: dict, dtype) -> np.ndarray:
    return np.fromiter(map(table.__getitem__, column), dtype, count=len(column))


def _hex_table(hexes: Iterable[str]) -> dict:
    """Code per distinct hex id, numbered in order of first appearance; a
    malformed id, or one past the packed index's capacity, maps to a _Bad."""
    table: dict = {}
    code = 0
    for h in dict.fromkeys(hexes):
        if not is_hex_id(h):
            table[h] = _Bad(f"malformed hex id: {h!r}")
        elif code == _MAX_HEXES:
            table[h] = _Bad("too many distinct hexes for packed index")
        else:
            table[h] = code
            code += 1
    return table


def _month_days(dates: Iterable[tuple], mixed: Callable) -> tuple[int | None, int | None, dict]:
    """(year, month, day-of-month table) for distinct (key, date) pairs,
    where a date may be a _Bad that is kept. The first date fixes the month;
    a date of another month maps to _Bad(mixed(year, month, key, date))."""
    year = month = None
    days = {}
    for key, d in dates:
        if isinstance(d, _Bad):
            days[key] = d
            continue
        if year is None:
            year, month = d.year, d.month
        days[key] = d.day if (d.year, d.month) == (year, month) else _Bad(mixed(year, month, key, d))
    return year, month, days


def _user_table(user_types: Iterable[str], allowed: tuple[str, ...]) -> dict:
    """FOOTFALL_USER_TYPES code per distinct user type; one outside allowed maps to a _Bad."""
    codes = {u: FOOTFALL_USER_TYPES.index(u) for u in allowed}
    return _table(user_types, lambda u: codes[u] if u in codes else _Bad(f"unknown user type {u!r}"))


def _record_columns(dates, intervals, user_types, counts, allowed: tuple[str, ...], least: int):
    """(year, month, [day, interval, user code, count]) for the record
    fields both stores share; a bad value is a ValueError naming it (and its
    record, where a single record shows it)."""
    distinct = dict.fromkeys(dates)
    year, month, days = _month_days(
        zip(distinct, distinct), lambda y, m, _, d: f"mixed months: {y}-{m:02d} and {d.year}-{d.month:02d}"
    )
    _raise_bad(days)
    interval = np.asarray(intervals, dtype=np.int8)
    if len(interval) and not ((interval >= 1) & (interval <= 9)).all():
        bad = int(np.argmin((interval >= 1) & (interval <= 9)))
        raise ValueError(f"unknown interval index {intervals[bad]} at record {bad}")
    users = _user_table(user_types, allowed)
    bad = _first_bad(user_types, users)
    if bad is not None:
        kind = "OD" if allowed == OD_USER_TYPES else "footfall"
        raise ValueError(f"unknown {kind} user type {user_types[bad]!r} at record {bad}")
    try:
        count = np.asarray(counts, dtype=np.int64)
    except OverflowError:
        bad = next(i for i, c in enumerate(counts) if not -_MAX_COUNT - 1 <= c <= _MAX_COUNT)
        raise ValueError(f"count {counts[bad]} at record {bad} does not fit in int64") from None
    if len(count) and count.min() < least:
        bad = int(np.argmin(count))
        raise ValueError(f"count must be >= {least}, got {int(count[bad])} at record {bad}")
    return year, month, [_codes(dates, days, np.int16), interval, _codes(user_types, users, np.int8), count]


def _summable(count: np.ndarray) -> np.ndarray:
    """count, as Python ints when a sum of all of it could pass int64, so
    that sums over it stay exact like the Python-int sums they replace."""
    if len(count) and int(count.max()) > np.iinfo(np.int64).max // len(count):
        return count.astype(object)
    return count


class _PackedIndex:
    """Sorted packed-key index for exact (day, interval, hex code) lookups."""

    def __init__(self, day: np.ndarray, interval: np.ndarray, code: np.ndarray):
        keys = day.astype(np.int64) << (_CODE_BITS + 4) | interval.astype(np.int64) << _CODE_BITS | code
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
        hexes = _hex_table(chain(origins, destinations))
        _raise_bad(hexes)
        year, month, columns = _record_columns(dates, intervals, user_types, counts, OD_USER_TYPES, 1)
        store = cls(
            tuple(hexes), _codes(origins, hexes, np.int32), _codes(destinations, hexes, np.int32),
            *columns, year, month,
        )
        store._check_duplicates()
        return store

    def _check_duplicates(self, line_of: Callable[[int], int] | None = None) -> None:
        """Reject a repeated (origin, destination, day, interval, user type)
        key, naming its records, or their file lines through line_of."""
        # key spans user(2) | interval(4) | day(5) | origin(21) | dest(21) = 53 bits
        dup = _first_duplicate(
            self.user_code.astype(np.int64) << 51
            | self.interval.astype(np.int64) << 47
            | self.day.astype(np.int64) << 42
            | self.origin_code.astype(np.int64) << 21
            | self.dest_code.astype(np.int64)
        )
        if dup is None:
            return
        first, second = dup
        if line_of is not None:
            raise IngestError(f"duplicate key, first seen at line {line_of(first)}", line=line_of(second))
        r = self.record(second)
        raise ValueError(
            "duplicate record key "
            f"({r.origin},{r.destination},{r.day.isoformat()},{r.interval},{r.user_type})"
            f" at records {first} and {second}"
        )

    def subset(self, rows: np.ndarray) -> "ODStore":
        """New store holding the given rows (indices or a boolean mask);
        invariants carry over."""
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

    @cached_property
    def _by_origin(self) -> _PackedIndex:
        """The (day, interval, origin) index, built on first use: only
        has_flow reads it."""
        return _PackedIndex(self.day, self.interval, self.origin_code)

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

    @classmethod
    def from_records(cls, records: Iterable[FootfallRecord]) -> "FootfallStore":
        recs = list(records)
        hexes_col = [r.hex for r in recs]
        hexes = _hex_table(hexes_col)
        _raise_bad(hexes)
        year, month, columns = _record_columns(
            [r.day for r in recs], [r.interval for r in recs], [r.user_type for r in recs],
            [r.count for r in recs], FOOTFALL_USER_TYPES, 0,
        )
        store = cls(tuple(hexes), _codes(hexes_col, hexes, np.int32), *columns, year, month)
        store._check_duplicates()
        return store

    def _check_duplicates(self, line_of: Callable[[int], int] | None = None) -> None:
        """Reject a repeated (hex, day, interval, user type) key, naming its
        records, or their file lines through line_of."""
        dup = _first_duplicate(
            self.user_code.astype(np.int64) << 30
            | self.interval.astype(np.int64) << 26
            | self.day.astype(np.int64) << 21
            | self.hex_col.astype(np.int64)
        )
        if dup is None:
            return
        first, second = dup
        r = self.record(second)
        key = f"duplicate footfall key ({r.hex},{r.day.isoformat()},{r.interval},{r.user_type})"
        if line_of is not None:
            raise IngestError(f"{key}, first seen at line {line_of(first)}", line=line_of(second))
        raise ValueError(f"{key} at records {first} and {second}")

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


# -- CSV loaders -------------------------------------------------------


def _parse_date(token: str) -> dt.date | _Bad:
    if _DATE_RE.match(token):
        try:
            return dt.date(int(token[:4]), int(token[5:7]), int(token[8:]))
        except ValueError:
            pass
    return _Bad(f"bad date {token!r}")


def _parse_interval(token: str) -> int | _Bad:
    return _INTERVAL_TOKENS.get(token) or _Bad(f"unknown interval index {token!r}")


def _count_parser(least: int) -> Callable[[str], int | _Bad]:
    """Parser of count tokens: ASCII digits, valued from least to the int64 maximum."""
    kind = "positive" if least else "non-negative"

    def parse(token: str) -> int | _Bad:
        if token.isascii() and token.isdigit():
            digits = token.lstrip("0") or "0"
            c = int(digits) if len(digits) <= len(str(_MAX_COUNT)) else _MAX_COUNT + 1
            if c > _MAX_COUNT:
                return _Bad(f"count {token!r} is above the int64 maximum {_MAX_COUNT}")
            if c >= least:
                return c
        return _Bad(f"count must be a {kind} integer, got {token!r}")

    return parse


def _read_columns(
    path: str | Path, header: str
) -> tuple[list[list[str]], Callable[[int], int], IngestError | None]:
    """(columns, line_of, fault) of a CSV: its data rows as one token list
    per header field, the file line of each row, and the IngestError of the
    first line with the wrong field count, or None.

    The text is UTF-8 with an optional BOM and LF, CRLF or CR line ends.
    Empty lines are skipped. Every other line must split at its commas into
    exactly the header's fields, so no field is ever quoted. With a fault,
    the columns hold only the rows before it, so that the caller can report
    an earlier bad token first.
    """
    p = Path(path)
    if not p.exists():
        raise IngestError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise utf8_error(p) from None
    if lines == [""]:
        raise IngestError("empty file, expected header", line=1)
    if lines[0] != header:
        raise IngestError(f"bad header {lines[0]!r}, expected {header!r}", line=1)
    del lines[0]
    if lines and lines[-1] == "":
        lines.pop()  # the final line end
    row_line = None  # each row's file line, kept only when empty lines shift them
    if "" in lines:
        row_line = np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + 2
        lines = list(filter(None, lines))

    def line_of(i: int) -> int:
        return i + 2 if row_line is None else int(row_line[i])

    n_fields = header.count(",") + 1
    commas = np.fromiter(map(methodcaller("count", ","), lines), np.int64, len(lines))
    bad = np.flatnonzero(commas != n_fields - 1)
    fault = None
    if len(bad):
        i = int(bad[0])
        fault = IngestError(f"expected {n_fields} fields, got {int(commas[i]) + 1}", line=line_of(i))
        del lines[i:]
    text = ",".join(lines)
    del lines
    tokens = text.split(",") if text else []
    del text
    return [tokens[j::n_fields] for j in range(n_fields)], line_of, fault


def _load_columns(path: str | Path, header: str, allowed: tuple[str, ...], least: int):
    """(hex_ids, code columns, year, month, line_of) of an OD or footfall
    CSV: one or two hex columns, then date, interval, user type and count.

    The earliest line holding a bad token or the wrong field count is an
    IngestError; a bad token is named by its row's first bad field. The
    first date fixes the month.
    """
    columns, line_of, fault = _read_columns(path, header)
    n_hex = len(columns) - 4
    # hex codes follow first appearance, reading each row's origin then destination
    hexes = _hex_table(columns[0] if n_hex == 1 else chain.from_iterable(zip(*columns[:n_hex])))
    dates, intervals, user_types, counts = columns[n_hex:]
    year, month, days = _month_days(
        _table(dates, _parse_date).items(),
        lambda y, m, token, _: f"mixed months: file is {y}-{m:02d} but row has {token}",
    )
    tables = [hexes] * n_hex + [
        days, _table(intervals, _parse_interval), _user_table(user_types, allowed),
        _table(counts, _count_parser(least)),
    ]
    firsts = ((row, j) for j, row in enumerate(map(_first_bad, columns, tables)) if row is not None)
    row, j = min(firsts, default=(None, None))
    if row is not None:
        raise IngestError(tables[j][columns[j][row]], line=line_of(row))
    if fault is not None:
        raise fault
    dtypes = [np.int32] * n_hex + [np.int16, np.int8, np.int8, np.int64]
    codes = [_codes(column, table, dtype) for column, table, dtype in zip(columns, tables, dtypes)]
    return tuple(hexes), codes, year, month, line_of


def load_od(path: str | Path, user_type_filter: str | None = None) -> ODStore:
    """Parse and index an OD CSV; the whole file is rejected on any bad row.

    With user_type_filter set, rows of other user types are validated but not
    stored. Duplicate keys and month mixing are checked before filtering.
    """
    if user_type_filter is not None and user_type_filter not in OD_USER_TYPES:
        raise ValueError(f"user_type_filter must be one of {OD_USER_TYPES}")
    hex_ids, codes, year, month, line_of = _load_columns(path, OD_HEADER, OD_USER_TYPES, 1)
    store = ODStore(hex_ids, *codes, year, month)
    store._check_duplicates(line_of)
    if user_type_filter is not None:
        store = store.subset(store.user_code == FOOTFALL_USER_TYPES.index(user_type_filter))
    return store


def load_footfall(path: str | Path) -> FootfallStore:
    """Parse and index a footfall CSV; rejects the whole file on any bad row."""
    hex_ids, codes, year, month, line_of = _load_columns(path, FOOTFALL_HEADER, FOOTFALL_USER_TYPES, 0)
    store = FootfallStore(hex_ids, *codes, year, month)
    store._check_duplicates(line_of)
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
