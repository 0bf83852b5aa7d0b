"""CSV ingest and columnar in-memory stores for OD and footfall data.

Both loaders reject the whole file on the first malformed row (silent row
skipping would corrupt downstream detection counts) and report the offending
file line number. They parse a file as bytes: one scan finds every line end
and comma, and numpy kernels check and value every field of every row at
once, reading 8-byte words at fixed offsets from the row and field bounds,
so no Python code runs per row or per token. Only the earliest faulty row is
decoded, and the scalar rules name its fault. Both stores share one core
(_Store) that keeps records in numpy columns; tables that depend only on
the store (the weekday flow index, the footfall means) are built on first
use and kept.
"""

from __future__ import annotations

import calendar
import contextlib
import csv
import datetime as dt
import re
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
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


# -- scalar rules: each returns a token's value or raises ValueError ----


def _hex_code(h: str, code: int) -> int:
    """code, for a hex id that is the code-th distinct one; a malformed id,
    or one past the packed index's capacity, raises."""
    if not is_hex_id(h):
        raise ValueError(f"malformed hex id: {h!r}")
    if code >= _MAX_HEXES:
        raise ValueError("too many distinct hexes for packed index")
    return code


def _parse_date(token: str) -> dt.date:
    if _DATE_RE.match(token):
        try:
            return dt.date(int(token[:4]), int(token[5:7]), int(token[8:]))
        except ValueError:
            pass
    raise ValueError(f"bad date {token!r}")


def _parse_interval(token: str) -> int:
    if token not in _INTERVAL_TOKENS:
        raise ValueError(f"unknown interval index {token!r}")
    return _INTERVAL_TOKENS[token]


def _user_code(token: str, allowed: tuple[str, ...]) -> int:
    """FOOTFALL_USER_TYPES code of a user type in allowed."""
    if token not in allowed:
        raise ValueError(f"unknown user type {token!r}")
    return FOOTFALL_USER_TYPES.index(token)


def _parse_count(token: str, least: int) -> int:
    """A count token: ASCII digits, valued from least to the int64 maximum."""
    if token.isascii() and token.isdigit():
        digits = token.lstrip("0") or "0"
        c = int(digits) if len(digits) <= len(str(_MAX_COUNT)) else _MAX_COUNT + 1
        if c > _MAX_COUNT:
            raise ValueError(f"count {token!r} is above the int64 maximum {_MAX_COUNT}")
        if c >= least:
            return c
    raise ValueError(f"count must be a {'positive' if least else 'non-negative'} integer, got {token!r}")


# -- in-memory records: each value must have its field's type -----------


def _integral(t: type) -> bool:
    """Whether t is an integer type: int or a numpy integer, not bool."""
    return t is not bool and issubclass(t, (int, np.integer))


def _first(values: Sequence, bad: Callable) -> int:
    """Index of the first of values that bad flags."""
    return next(i for i, v in enumerate(values) if bad(v))


def _check_type(name: str, values: Sequence, ok: Callable[[type], bool], what: str) -> None:
    """ValueError naming the first value whose type is not ok, and its
    record; ok runs once per distinct type."""
    wrong = {t for t in set(map(type, values)) if not ok(t)}
    if wrong:
        i = _first(values, lambda v: type(v) in wrong)
        raise ValueError(f"{name} {values[i]!r} at record {i} is not {what}")


def _summable(count: np.ndarray) -> np.ndarray:
    """count, as Python ints when a sum of all of it could pass int64, so
    that sums over it stay exact like the Python-int sums they replace."""
    if len(count) and int(count.max()) > np.iinfo(np.int64).max // len(count):
        return count.astype(object)
    return count


class WeekdayFlows:
    """One weekday's sub-day flows, summed over its dates and user types.

    Each (interval, origin, destination) present on some date of the weekday
    is one entry, holding its summed count and a bitmask of the dates it is
    present on (bit k = dates[k]). The entries are laid out once, from one
    tolist(), in the plain dicts a diary reads, so that a diary makes no
    numpy call: adjacency for the chain frontier, into for the series into a
    hex, and day_mask for the mined items.
    """

    def __init__(self, store: "ODStore", weekday: int):
        #: the weekday's dates in the store's month, ascending
        self.dates = () if store.year is None else tuple(weekday_dates(store.year, store.month, weekday))
        position = np.full(32, -1, dtype=np.int64)
        position[[d.day for d in self.dates]] = np.arange(len(self.dates))
        pos = position[store.day]
        sel = np.flatnonzero((pos >= 0) & (store.interval != FULL_DAY_INTERVAL))
        keys, inverse = np.unique(
            _flow_key(store.interval[sel], store.origin_code[sel], store.dest_code[sel]),
            return_inverse=True,
        )
        rows_count = _summable(store.count[sel])
        count = np.zeros(len(keys), dtype=rows_count.dtype)
        np.add.at(count, inverse, rows_count)
        day_mask = np.zeros(len(keys), dtype=np.int64)
        np.bitwise_or.at(day_mask, inverse, np.int64(1) << pos[sel])
        entries = np.stack([
            keys >> (2 * _CODE_BITS), keys >> _CODE_BITS & (_MAX_HEXES - 1),
            keys & (_MAX_HEXES - 1), count, day_mask,
        ], axis=1).tolist()
        hex_ids = store.hex_ids
        #: (interval, origin code) -> [(origin id, destination id, interval,
        #: count, destination code)], destination codes ascending
        self.adjacency: dict[tuple, list] = {}
        #: destination code -> [(origin code, interval, count)]
        self.into: dict[int, list] = {}
        #: (origin id, destination id, interval) -> date bitmask
        self.day_mask: dict[tuple, int] = {}
        for iv, o, d, c, m in entries:
            flow = (hex_ids[o], hex_ids[d], iv, c, d)
            self.adjacency.setdefault((iv, o), []).append(flow)
            self.into.setdefault(d, []).append((o, iv, c))
            self.day_mask[flow[:3]] = m


class _Store:
    """The core of both stores: a validated, immutable month of records in
    numpy columns. Hex ids are int codes into hex_ids, numbered in order of
    first appearance, one column per hex field of the record; then come
    day-of-month, interval, user-type code into FOOTFALL_USER_TYPES and
    count. All records share one calendar month and no key (every field but
    the count) repeats.

    A store kind declares its record type, file header, allowed user types,
    least count, how its messages name it and its key, and its hex columns.
    """

    _record: type
    _header: str
    _user_types: tuple[str, ...]
    _least: int
    _kind: str
    _key: str
    _hex_columns: tuple[str, ...]

    def __init__(self, hex_ids, hex_codes, day, interval, user_code, count, year, month):
        self.hex_ids = tuple(hex_ids)
        for name, codes in zip(self._hex_columns, hex_codes):
            setattr(self, name, np.asarray(codes, dtype=np.int32))
        self.day = np.asarray(day, dtype=np.int16)
        self.interval = np.asarray(interval, dtype=np.int8)
        self.user_code = np.asarray(user_code, dtype=np.int8)
        self.count = np.asarray(count, dtype=np.int64)
        self.year = year
        self.month = month

    def _hex_codes(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._hex_columns]

    @classmethod
    def from_records(cls, records: Iterable):
        """A store of in-memory records (see _from_columns)."""
        names = [f.name for f in fields(cls._record)]
        columns = list(zip(*map(attrgetter(*names), records)))
        return cls._from_columns(*columns or [()] * len(names))

    @classmethod
    def _from_columns(cls, *columns: Sequence):
        """A store of records given one column per record field. A date must
        be a datetime.date (not a datetime), an interval or count an int or
        numpy integer (not a bool); a bad value is a ValueError naming it
        and, where a single record shows it, its record."""
        *hexes, dates, intervals, user_types, counts = columns
        n = len(counts)
        if any(len(c) != n for c in columns):
            raise ValueError("column lengths differ")
        hex_ids = list(dict.fromkeys(chain.from_iterable(zip(*hexes))))
        for code, h in enumerate(hex_ids):
            _hex_code(h, code)
        code_of = {h: code for code, h in enumerate(hex_ids)}
        hex_codes = [np.fromiter(map(code_of.__getitem__, c), np.int32, n) for c in hexes]
        _check_type("date", dates, lambda t: t is dt.date, "a date")
        days = {d: d.day for d in dates}
        year, month = next(((d.year, d.month) for d in days), (None, None))
        for d in days:
            if (d.year, d.month) != (year, month):
                raise ValueError(f"mixed months: {year}-{month:02d} and {d.year}-{d.month:02d}")
        _check_type("interval", intervals, _integral, "an integer")
        if not set(intervals) <= set(ALL_INTERVALS):
            i = _first(intervals, lambda v: v not in ALL_INTERVALS)
            raise ValueError(f"unknown interval index {intervals[i]} at record {i}")
        users = {u: FOOTFALL_USER_TYPES.index(u) for u in cls._user_types}
        if not set(user_types) <= users.keys():
            i = _first(user_types, lambda u: u not in users)
            raise ValueError(f"unknown {cls._kind} user type {user_types[i]!r} at record {i}")
        _check_type("count", counts, _integral, "an integer")
        try:
            count = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            i = _first(counts, lambda c: not -_MAX_COUNT - 1 <= c <= _MAX_COUNT)
            raise ValueError(f"count {counts[i]} at record {i} does not fit in int64") from None
        if n and count.min() < cls._least:
            i = int(np.argmin(count))
            raise ValueError(f"count must be >= {cls._least}, got {int(count[i])} at record {i}")
        store = cls(
            hex_ids, *hex_codes, np.fromiter(map(days.__getitem__, dates), np.int16, n),
            np.asarray(intervals, dtype=np.int8), np.fromiter(map(users.__getitem__, user_types), np.int8, n),
            count, year, month,
        )
        store._check_duplicates()
        return store

    def _check_duplicates(self, line_of: Callable[[int], int] | None = None) -> None:
        """Reject a repeated key, naming the earliest record that repeats an
        earlier one and where its key was first seen: record indices, or
        file lines through line_of."""
        # user(2) | interval(4) | day(5) | hex(21) per hex column: at most 53 bits
        key = self.user_code.astype(np.int64)
        fields_bits = [(self.interval, 4), (self.day, 5)] + [(c, _CODE_BITS) for c in self._hex_codes()]
        for column, bits in fields_bits:
            key <<= bits
            key |= column
        ordered = np.sort(key)
        if (ordered[1:] != ordered[:-1]).all():
            return
        # per record, the earliest record with its key (np.unique sorts stably)
        _, first_of, inverse = np.unique(key, return_index=True, return_inverse=True)
        first_seen = first_of[inverse]
        second = int(np.argmax(first_seen != np.arange(len(key))))
        first = int(first_seen[second])
        what = f"duplicate {self._key} ({','.join(map(str, astuple(self.record(second))[:-1]))})"
        if line_of is not None:
            raise IngestError(f"{what}, first seen at line {line_of(first)}", line=line_of(second))
        raise ValueError(f"{what} at records {first} and {second}")

    def __len__(self) -> int:
        return len(self.count)

    def record(self, i: int):
        return self._record(
            *(self.hex_ids[codes[i]] for codes in self._hex_codes()),
            dt.date(self.year, self.month, int(self.day[i])),
            int(self.interval[i]),
            FOOTFALL_USER_TYPES[self.user_code[i]],
            int(self.count[i]),
        )

    def iter_records(self) -> Iterator:
        return map(self.record, range(len(self)))

    def total_count(self) -> int:
        return int(self.count.sum())


class ODStore(_Store):
    """Month of OD flow records: origin and destination codes, keyed by
    (origin, destination, day, interval, user_type)."""

    _record = FlowRecord
    _header = OD_HEADER
    _user_types = OD_USER_TYPES
    _least = 1
    _kind = "OD"
    _key = "key"
    _hex_columns = ("origin_code", "dest_code")

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
        super().__init__(hex_ids, (origin_code, dest_code), day, interval, user_code, count, year, month)
        self._by_weekday: dict[int, WeekdayFlows] = {}

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
        return cls._from_columns(origins, destinations, dates, intervals, user_types, counts)

    def subset(self, rows: np.ndarray) -> "ODStore":
        """New store holding the given rows (indices or a boolean mask);
        invariants carry over."""
        columns = [*self._hex_codes(), self.day, self.interval, self.user_code, self.count]
        return ODStore(self.hex_ids, *(c[rows] for c in columns), self.year, self.month)

    def hex_code(self, hex_id: str) -> int | None:
        return self._hex_to_code.get(hex_id)

    @cached_property
    def _hex_to_code(self) -> dict[str, int]:
        return {h: i for i, h in enumerate(self.hex_ids)}

    def dates_present(self) -> list[dt.date]:
        if len(self) == 0:
            return []
        return [dt.date(self.year, self.month, int(d)) for d in np.unique(self.day)]

    def user_types_present(self) -> list[str]:
        return [FOOTFALL_USER_TYPES[c] for c in np.unique(self.user_code)]

    def weekday_flows(self, weekday: int) -> WeekdayFlows:
        """The weekday's flow index, built on first use and kept with the store."""
        if not 1 <= weekday <= 7:
            raise ValueError(f"weekday out of range 1..7: {weekday}")
        index = self._by_weekday.get(weekday)
        if index is None:
            index = self._by_weekday[weekday] = WeekdayFlows(self, weekday)
        return index


class FootfallStore(_Store):
    """Month of footfall records, indexed by hex and keyed by (hex, day,
    interval, user_type)."""

    _record = FootfallRecord
    _header = FOOTFALL_HEADER
    _user_types = FOOTFALL_USER_TYPES
    _least = 0
    _kind = "footfall"
    _key = "footfall key"
    _hex_columns = ("hex_col",)

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
        super().__init__(hex_ids, (hex_code,), day, interval, user_code, count, year, month)

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


# -- the byte parser ----------------------------------------------------
# A file is read once as bytes and cut into rows and fields with
# np.flatnonzero. Every field of every row is then checked and valued by
# numpy kernels over 8-byte words read at fixed offsets from the row or
# field bounds (SWAR: SIMD within a register), so no Python code runs per
# row or per token. Only the earliest faulty row is decoded, and the scalar
# rules above name its fault.

_BOM = b"\xef\xbb\xbf"
_LF, _COMMA = 10, 44
# count tokens of up to this many digits always fit int64: 10**18 - 1 < 2**63 - 1
_SHORT_COUNT = 18
_HIGH_BITS = 0x8080808080808080
_ASCII_ZEROS = 0x3030303030303030
#: mask of the n low bytes of a word, for n = 0..8
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _read_rows(path: str | Path, header: str):
    """(data, start, bounds, line, fault) of a CSV: its bytes, the first
    byte of each data row, the position of the comma or line end closing
    each field as a (rows, fields) array, each row's file line, and the
    IngestError of the first line with the wrong field count, or None.

    The text is UTF-8 with an optional BOM and LF, CRLF or CR line ends.
    Empty lines are skipped. Every other line must split at its commas into
    exactly the header's fields, so no field is ever quoted. With a fault,
    only the rows before it are returned, so that the caller can report an
    earlier bad token first.
    """
    p = Path(path)
    if not p.exists():
        raise IngestError(f"no such file: {p}")
    data = p.read_bytes()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise utf8_error(p) from None
        if data.startswith(_BOM):
            data = data[len(_BOM):]
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data:
        raise IngestError("empty file, expected header", line=1)
    first_end = data.find(b"\n")
    head = data if first_end < 0 else data[:first_end]
    if head != header.encode():
        raise IngestError(f"bad header {head.decode('utf-8')!r}, expected {header!r}", line=1)
    buf = np.frombuffer(data, dtype=np.uint8)
    is_sep = buf == _LF
    is_sep |= buf == _COMMA
    sep = np.flatnonzero(is_sep)  # every comma and line end
    del is_sep
    closes_line = np.flatnonzero(buf[sep] == _LF)
    if not data.endswith(b"\n"):
        sep = np.append(sep, len(data))
        closes_line = np.append(closes_line, len(sep) - 1)
    end = sep[closes_line]  # of each line, the header first
    start = np.r_[0, end[:-1] + 1]
    fields = np.diff(closes_line, prepend=-1)
    empty = end == start
    if empty.any():  # an empty line's end closes no field
        keep = np.ones(len(sep), dtype=bool)
        keep[closes_line[empty]] = False
        sep = sep[keep]
    line = np.flatnonzero(~empty)[1:]  # 0-based; the header is line 0
    start, fields = start[line], fields[line]
    line += 1
    n = header.count(",") + 1
    wrong = np.flatnonzero(fields != n)
    fault = None
    if len(wrong):
        q = int(wrong[0])
        fault = IngestError(f"expected {n} fields, got {int(fields[q])}", line=int(line[q]))
        start, line = start[:q], line[:q]
    return data, start, sep[n:n * (len(start) + 1)].reshape(-1, n), line, fault


def _words(data: bytes) -> np.ndarray:
    """The 8 bytes at each offset of data as a big-endian uint64: a
    strided view, so gathering words at any offsets reads no other bytes."""
    return np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))


def _gather(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The words at offsets at, in native byte order; an offset past the
    last word reads the last word (the callers reject those rows)."""
    return words[np.minimum(at, len(words) - 1)].astype(np.uint64)


def _pattern(spec: str) -> tuple[int, ...]:
    """Constants for _match from an 8-byte spec, one class per byte, most
    significant first: x a lowercase hex digit, d a decimal digit, i an
    interval digit 1-9, . any byte, and any other character itself."""
    classes = {"x": "09af", "d": "09", "i": "19", ".": ""}  # the ends of up to two ranges
    k1 = k2 = k3 = k4 = care = 0
    for shift, c in zip(range(56, -8, -8), spec):
        ends = classes.get(c, c + c)
        lo, hi, lo2, hi2 = [ord(e) for e in ends] + [0x80, 0x7F] * (2 - len(ends) // 2)  # 0x80-0x7F is empty
        k1 |= (0x80 - lo) << shift
        k2 |= (0x7F - hi) << shift
        k3 |= (0x80 - lo2) << shift
        k4 |= (0x7F - hi2) << shift
        care |= (0x80 if ends else 0) << shift
    return k1, k2, k3, k4, care


def _match(x: np.ndarray, pattern: tuple[int, ...], care=None) -> np.ndarray:
    """Whether every byte of each word x that pattern (or care, a high-bit
    mask per word) cares about is ASCII and lies in its class.

    For an ASCII byte b, b + (0x80 - lo) sets the byte's high bit iff
    b >= lo, and b + (0x7F - hi) sets it iff b > hi, with no carry into the
    next byte. A non-ASCII byte may carry, but it fails the word anyway."""
    k1, k2, k3, k4, high = pattern
    if care is None:
        care = high
    inside = (x + k1) & ~(x + k2)
    if k3:
        inside |= (x + k3) & ~(x + k4)
    return (inside & care == care) & (x & care == 0)


def _nibbles(x: np.ndarray) -> np.ndarray:
    """The 32-bit value of 8 hex digits, one per byte of each word: a byte
    b is worth (b & 15) + 9 * (b >> 6), then the nibbles are packed pairwise."""
    x = (x & 0x0F0F0F0F0F0F0F0F) + 9 * (x >> 6 & 0x0101010101010101)
    x = (x >> 4 | x) & 0x00FF00FF00FF00FF
    x = (x >> 8 | x) & 0x0000FFFF0000FFFF
    return (x >> 16 | x) & 0xFFFFFFFF


def _decimal(x: np.ndarray) -> np.ndarray:
    """The value of 8 ASCII decimal digits, one per byte of each word:
    digit pairs, then quads, then the whole, with no carry between lanes."""
    x = x - _ASCII_ZEROS
    x = ((x >> 8) * 10 + x) & 0x00FF00FF00FF00FF
    x = ((x >> 16) * 100 + x) & 0x0000FFFF0000FFFF
    return ((x >> 32) * 10000 + x) & 0xFFFFFFFF


_HEX_WORDS = _pattern("xxxxxxxx"), _pattern("xxxxxxx,")  # a hex id and its comma
_DAY_WORD = _pattern("dd,i,...")  # date's day, interval and their commas
_DIGITS = _pattern("dddddddd")


def _hex_column(words: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ok, key) of the hex ids at offsets at, each followed by a comma:
    whether it is [0-9a-f]{15}, and its 60-bit value."""
    a, b = _gather(words, at), _gather(words, at + 8)
    ok = _match(a, _HEX_WORDS[0]) & _match(b, _HEX_WORDS[1])
    return ok, (_nibbles(a) << 28 | _nibbles(b) >> 4).astype(np.int64)


def _count_column(data: bytes, words: np.ndarray, start: np.ndarray, end: np.ndarray, least: int):
    """(count, ok) of count tokens at [start, end): ASCII digits valued from
    least to the int64 maximum. Tokens of up to 18 digits, which always fit,
    are read as right-aligned words of 8 digits; longer ones, rare, go
    through _parse_count."""
    length = end - start
    count = np.zeros(len(start), dtype=np.int64)
    ok = length >= 1
    for j in range(-(-min(int(length.max(initial=0)), _SHORT_COUNT) // 8)):
        mask = _LOW_BYTES[np.clip(length - 8 * j, 0, 8)]
        x = _gather(words, end - 8 * j - 8)
        ok &= _match(x, _DIGITS, care=mask & _HIGH_BITS)
        count += _decimal(x & mask | _ASCII_ZEROS & ~mask).astype(np.int64) * 10 ** (8 * j)
    ok &= count >= least
    for i in np.flatnonzero(length > _SHORT_COUNT).tolist():
        try:
            count[i] = _parse_count(data[start[i]:end[i]].decode("utf-8"), least)
            ok[i] = True
        except ValueError:
            ok[i] = False
    return count, ok


def _user_codes(
    words: np.ndarray, start: np.ndarray, end: np.ndarray, allowed: tuple[str, ...]
) -> np.ndarray:
    """FOOTFALL_USER_TYPES code of each user-type token at [start, end), or
    -1 for one that is not exactly an allowed type; tokens are compared as
    right-aligned words, 8 bytes at a time."""
    codes = np.full(len(start), -1, dtype=np.int8)
    length = end - start
    last = _gather(words, end - 8)
    for u in allowed:
        b = u.encode()
        hit = length == len(b)
        for j in range(0, len(b), 8):
            chunk = b[max(len(b) - j - 8, 0):len(b) - j]
            x = last if j == 0 else _gather(words, end - j - 8)
            hit &= x & _LOW_BYTES[len(chunk)] == int.from_bytes(chunk, "big")
        codes[hit] = FOOTFALL_USER_TYPES.index(u)
    return codes


def _first_appearance_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code per key, key per code): distinct keys numbered in order of
    first appearance."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    group_start = np.flatnonzero(new)
    first = np.minimum.reduceat(order, group_start) if len(keys) else order
    by_first = np.argsort(first)
    code_of_group = np.empty(len(first), dtype=np.int32)
    code_of_group[by_first] = np.arange(len(first), dtype=np.int32)
    codes = np.empty(len(keys), dtype=np.int32)
    codes[order] = np.repeat(code_of_group, np.diff(np.r_[group_start, len(keys)]))
    return codes, ordered[group_start][by_first]


def _row_fault(tokens: list[str], codes: np.ndarray, year: int | None, month: int | None,
               allowed: tuple[str, ...], least: int) -> str:
    """The message of a row's first bad field, left to right, by the scalar
    rules; codes are the row's first-appearance hex codes, and year and
    month are those of the file's first date."""
    n_hex = len(tokens) - 4
    date, interval, user_type, count = tokens[n_hex:]
    try:
        for h, code in zip(tokens, codes.tolist()):
            _hex_code(h, code)
        d = _parse_date(date)
        if (d.year, d.month) != (year, month):
            return f"mixed months: file is {year}-{month:02d} but row has {date}"
        _parse_interval(interval)
        _user_code(user_type, allowed)
        _parse_count(count, least)
    except ValueError as e:
        return str(e)
    raise RuntimeError(f"the kernels reject a row the scalar rules accept: {tokens}")


def _load(kind: type[_Store], path: str | Path) -> _Store:
    """The store of an OD or footfall CSV: one or two hex columns, then
    date, interval, user type and count.

    The earliest line holding a bad token or the wrong field count is an
    IngestError; a bad token is named by its row's first bad field. The
    first date fixes the month. Last, a repeated key is an IngestError.
    """
    header, allowed, least = kind._header, kind._user_types, kind._least
    data, start, bounds, line, fault = _read_rows(path, header)
    n_hex = header.count(",") - 3
    words = _words(data)
    # A valid row opens with a fixed-width prefix: each hex id and its comma
    # in 16 bytes, then 13 bytes of yyyy-mm-dd,i, then at least 5 more.
    date_at = start + 16 * n_hex
    ok = date_at + 16 <= bounds[:, -1]
    keys = np.empty((len(start), n_hex), dtype=np.int64)
    for j in range(n_hex):
        hex_ok, keys[:, j] = _hex_column(words, start + 16 * j)
        ok &= hex_ok
    hex_codes, hex_keys = _first_appearance_codes(keys.ravel())
    del keys
    hex_codes = hex_codes.reshape(-1, n_hex)
    ok &= (hex_codes < _MAX_HEXES).all(axis=1)
    year_month, rest = _gather(words, date_at), _gather(words, date_at + 8)
    ok &= _match(rest, _DAY_WORD)
    day = ((rest >> 56) * 10 + (rest >> 48 & 0xFF) - 11 * ord("0")).astype(np.int16)
    interval = ((rest >> 32 & 0xFF) - ord("0")).astype(np.int8)
    del rest
    year = month = None
    if len(start):
        # the first row's date fixes the month: every yyyy-mm- must equal its
        with contextlib.suppress(ValueError):
            first = _parse_date(data[start[0]:bounds[0, -1]].decode("utf-8").split(",")[n_hex])
            year, month = first.year, first.month
        ok &= year_month == year_month[0]
        ok &= (day >= 1) & (day <= (calendar.monthrange(year, month)[1] if year else 0))
    del year_month
    user_code = _user_codes(words, bounds[:, -3] + 1, bounds[:, -2], allowed)
    ok &= user_code >= 0
    count, count_ok = _count_column(data, words, bounds[:, -2] + 1, bounds[:, -1], least)
    ok &= count_ok
    bad = np.flatnonzero(~ok)
    if len(bad):
        r = int(bad[0])
        tokens = data[start[r]:bounds[r, -1]].decode("utf-8").split(",")
        raise IngestError(_row_fault(tokens, hex_codes[r], year, month, allowed, least), line=int(line[r]))
    if fault is not None:
        raise fault
    hex_ids = tuple(f"{k:015x}" for k in hex_keys.tolist())
    hex_columns = map(np.ascontiguousarray, hex_codes.T)
    store = kind(hex_ids, *hex_columns, day, interval, user_code, count, year, month)
    store._check_duplicates(lambda i: int(line[i]))
    return store


def load_od(path: str | Path, user_type_filter: str | None = None) -> ODStore:
    """Parse and index an OD CSV; the whole file is rejected on any bad row.

    With user_type_filter set, rows of other user types are validated but not
    stored. Duplicate keys and month mixing are checked before filtering.
    """
    if user_type_filter is not None and user_type_filter not in OD_USER_TYPES:
        raise ValueError(f"user_type_filter must be one of {OD_USER_TYPES}")
    store = _load(ODStore, path)
    if user_type_filter is not None:
        store = store.subset(store.user_code == FOOTFALL_USER_TYPES.index(user_type_filter))
    return store


def load_footfall(path: str | Path) -> FootfallStore:
    """Parse and index a footfall CSV; rejects the whole file on any bad row."""
    return _load(FootfallStore, path)


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
