"""CSV ingest and columnar in-memory stores for OD and footfall data;
read_input reads every input file of the package under one set of rules,
and write_output opens every output file.

The OD and footfall loaders reject the whole file on the first malformed
row (silent row skipping would corrupt downstream detection counts) and
report the offending file line number. They parse a file as bytes and find
its line ends alone: a valid row has one fixed layout up to its count, so
numpy kernels check and value every field from 8-byte words read at fixed
offsets, over blocks of rows that stay in cache, and no Python code runs
per row or per token. A hash table numbers the hex ids in order of first
appearance. Only the earliest rejected row is decoded: its commas tell a
wrong field count, and otherwise the scalar rules name its fault. Both
stores share one core (_Store) that keeps records in numpy columns; tables
that depend only on the store (the weekday flow index, the footfall means)
are built on first use and kept.
"""

from __future__ import annotations

import calendar
import contextlib
import csv
import datetime as dt
import io
import re
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .model import (
    ALL_INTERVALS,
    FOOTFALL_USER_TYPES,
    FULL_DAY_INTERVAL,
    OD_USER_TYPES,
    FlowRecord,
    FootfallRecord,
    check_weekday,
    is_hex_id,
    weekday_dates,
)

OD_HEADER = "origin_hex,destination_hex,date,interval,user_type,count"
FOOTFALL_HEADER = "hex,date,interval,user_type,count"

# widths of a hex code and of a day of the month in packed int64 keys
_CODE_BITS = 21
_MAX_HEXES = 1 << _CODE_BITS
_DAY_BITS = 5
# counts are stored in int64 columns
_INT64_MAX = int(np.iinfo(np.int64).max)

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_INTERVAL_TOKENS = {str(iv): iv for iv in ALL_INTERVALS}
_BOM = b"\xef\xbb\xbf"


class IngestError(ValueError):
    """Malformed input file; line is the 1-based file line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_input(path: str | Path) -> bytes:
    """The bytes of an input file under the rules every reader shares: it
    is UTF-8, a leading byte-order mark is dropped, and CR and CRLF become
    LF. A missing file is an IngestError with no line; a byte that is not
    UTF-8 is one naming its line (ended by LF, CRLF or CR)."""
    try:
        data = Path(path).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise IngestError(f"no such file: {path}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[: e.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise IngestError(f"not UTF-8: byte {data[e.start]:#04x} ({e.reason})", line=line) from None
        data = data.removeprefix(_BOM)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def write_output(path: str | Path) -> TextIO:
    """A new text stream over the output file at path, whose directory must
    exist: UTF-8, with every newline written as LF on any platform."""
    return open(path, "w", newline="", encoding="utf-8")


def csv_records(path: str | Path) -> Iterator[tuple[int, list]]:
    """Yield (line, row) for each record of a csv file read by read_input,
    where line is the file line the record starts on, so a quoted field
    spanning lines does not shift later numbers; a malformed quote is an
    IngestError at that line."""
    reader = csv.reader(io.StringIO(read_input(path).decode("utf-8")), strict=True)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as e:
        raise IngestError(f"bad csv record: {e}", line=start) from None


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


def _od_user_code(user_type: str) -> int:
    """FOOTFALL_USER_TYPES code of an OD user type a caller selects by."""
    if user_type not in OD_USER_TYPES:
        raise ValueError(f"unknown OD user type {user_type!r}, expected {'|'.join(OD_USER_TYPES)}")
    return FOOTFALL_USER_TYPES.index(user_type)


def _parse_count(token: str, least: int) -> int:
    """A count token: ASCII digits, valued from least to the int64 maximum."""
    if token.isascii() and token.isdigit():
        digits = token.lstrip("0") or "0"
        c = int(digits) if len(digits) <= len(str(_INT64_MAX)) else _INT64_MAX + 1
        if c > _INT64_MAX:
            raise ValueError(f"count {token!r} is above the int64 maximum {_INT64_MAX}")
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
    if len(count) and int(count.max()) > _INT64_MAX // len(count):
        return count.astype(object)
    return count


def _sums(shape, index, count: np.ndarray) -> np.ndarray:
    """count added up at index into an array of shape, exactly: int64, or
    Python ints when a sum could pass int64."""
    count = _summable(count)
    acc = np.zeros(shape, dtype=count.dtype)
    np.add.at(acc, index, count)
    return acc


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
        # interval(4) | origin(21) | destination(21)
        keys, inverse = np.unique(
            store.interval[sel].astype(np.int64) << (2 * _CODE_BITS)
            | store.origin_code[sel].astype(np.int64) << _CODE_BITS
            | store.dest_code[sel],
            return_inverse=True,
        )
        count = _sums(len(keys), inverse, store.count[sel])
        day_mask = np.zeros(len(keys), dtype=np.int64)
        np.bitwise_or.at(day_mask, inverse, np.int64(1) << pos[sel])
        entries = np.stack([
            keys >> (2 * _CODE_BITS), keys >> _CODE_BITS & (_MAX_HEXES - 1),
            keys & (_MAX_HEXES - 1), count, day_mask,
        ], axis=1).tolist()
        hex_ids = store.hex_ids
        #: (interval, origin) -> that origin's flows, each an (origin,
        #: destination, interval, count) tuple of hex ids
        self.adjacency: dict[tuple, list] = {}
        #: destination -> the flows into it
        self.into: dict[str, list] = {}
        #: (origin, destination, interval) -> date bitmask
        self.day_mask: dict[tuple, int] = {}
        for iv, o, d, c, m in entries:
            flow = (hex_ids[o], hex_ids[d], iv, c)
            self.adjacency.setdefault((iv, flow[0]), []).append(flow)
            self.into.setdefault(flow[1], []).append(flow)
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

    def __init__(self, hex_ids: Sequence[str], *columns):
        """A store of hex_ids and its columns, in record order: one code
        column per name in _hex_columns (ODStore: origin_code, dest_code;
        FootfallStore: hex_col), then day, interval, user_code and count,
        then the year and month (None for an empty store)."""
        *hex_codes, day, interval, user_code, count, year, month = columns
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
            i = _first(counts, lambda c: not -_INT64_MAX - 1 <= c <= _INT64_MAX)
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
        fields_bits = [(self.interval, 4), (self.day, _DAY_BITS)]
        fields_bits += [(c, _CODE_BITS) for c in self._hex_codes()]
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
        return [dt.date(self.year, self.month, int(d)) for d in np.unique(self.day)]

    def user_types_present(self) -> list[str]:
        return [FOOTFALL_USER_TYPES[c] for c in np.unique(self.user_code)]

    @cached_property
    def _by_weekday(self) -> dict[int, WeekdayFlows]:
        return {}

    def weekday_flows(self, weekday: int) -> WeekdayFlows:
        """The weekday's flow index, built on first use and kept with the store."""
        check_weekday(weekday)
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
            self.user_code.astype(np.int64) << (_CODE_BITS + _DAY_BITS)
            | self.hex_col.astype(np.int64) << _DAY_BITS
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
        group = keys[day_start] >> _DAY_BITS  # user | hex
        group_start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        totals = np.add.reduceat(value, group_start).tolist()
        n_days = np.diff(np.r_[group_start, len(group)]).tolist()
        return {
            (self.hex_ids[g & (_MAX_HEXES - 1)], FOOTFALL_USER_TYPES[g >> _CODE_BITS]): t / n
            for g, t, n in zip(group[group_start].tolist(), totals, n_days)
        }


# -- the byte parser ----------------------------------------------------
# A file is read once as bytes and cut into rows at its line ends; commas
# are never searched for. A valid row has one layout: each hex id and its
# comma in 16 bytes, then 13 bytes of yyyy-mm-dd,i, then a user type and its
# comma, and the count up to the line end. So one gather reads each row's
# first bytes as 8-byte little-endian words, and numpy kernels check and
# value every field from them and from the words before the line end
# (SWAR: SIMD within a register). The hex ids are checked and numbered
# through _HexCodes; the other words check every comma but the one after
# the user type, which is matched with the type, and a count holds none, so
# a row the kernels accept has the header's field count. The kernels run
# over blocks of rows small enough to stay in cache, and no Python code
# runs per row or per token. Only the earliest rejected row is decoded: its
# commas tell a wrong field count, and otherwise the scalar rules above
# name its fault.

_LF = 10
#: bytes scanned for line ends at a time, so that their flags stay in cache
_SCAN_BYTES = 1 << 18
#: rows per kernel block: a block's words stay in a core's L2 cache
_BLOCK_ROWS = 1 << 13
# count tokens of up to this many digits always fit int64: 10**18 - 1 < 2**63 - 1
_SHORT_COUNT = 18
_ASCII_ZEROS = 0x3030303030303030
#: mask of the n high bytes of a word (the last n bytes read), for n = 0..8
_HIGH_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], dtype=np.uint64)
#: ASCII zeros in the other 8 - n bytes
_ZEROS_BEFORE = _ASCII_ZEROS & ~_HIGH_BYTES
#: odd 64-bit constants that mix a hex id's two words into a table slot
_MIX = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F


def _read_rows(path: str | Path, header: str):
    """(data, start, end, line) of a CSV: its bytes, and for each data row
    its first byte, its line end and its file line.

    The file is read by read_input. Its first line must split at its commas
    into header's fields, each equal to its header field unless that one is
    `*`, which stands for any name. Empty lines are skipped. The callers
    split the rows into fields.
    """
    data = read_input(path)
    if not data:
        raise IngestError("empty file, expected header", line=1)
    buf = np.frombuffer(data, dtype=np.uint8)
    is_lf = np.empty(min(len(buf), _SCAN_BYTES), dtype=bool)
    ends = []
    for a in range(0, len(buf), _SCAN_BYTES):
        chunk = buf[a:a + _SCAN_BYTES]
        ends.append(np.flatnonzero(np.equal(chunk, _LF, out=is_lf[:len(chunk)])) + a)
    if not data.endswith(b"\n"):
        ends.append(np.array([len(data)]))
    end = np.concatenate(ends)
    head = data[:end[0]].split(b",")
    names = header.encode().split(b",")
    if len(head) != len(names) or any(n not in (b"*", h) for h, n in zip(head, names)):
        raise IngestError(f"bad header {b','.join(head).decode('utf-8')!r}, expected {header!r}", line=1)
    start, end = end[:-1] + 1, end[1:]
    line = np.arange(2, len(end) + 2)
    full = end > start
    if not full.all():
        start, end, line = start[full], end[full], line[full]
    return data, start, end, line


def _items(data: bytes, width: int) -> np.ndarray:
    """The width bytes at each offset of data as one item: a strided view,
    so gathering items at any offsets reads no other bytes."""
    return np.ndarray((max(len(data) - width + 1, 0),), dtype=f"V{width}", buffer=data, strides=(1,))


def _gather(data: bytes, items: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The items at ascending offsets at, as a (words per item, offsets)
    array of little-endian uint64 words, the first byte lowest; bytes past
    the end of data read as zero."""
    if at[-1] < len(items):
        got = items[at]
    else:  # the last rows of a file
        inside = int(np.searchsorted(at, len(items)))
        got = np.empty(len(at), dtype=items.dtype)
        got[:inside] = items[at[:inside]]
        for i in range(inside, len(at)):
            got[i] = data[at[i]:at[i] + items.itemsize].ljust(items.itemsize, b"\0")
    return np.ascontiguousarray(got.view("<u8").reshape(len(at), -1).T)


def _pattern(spec: str) -> tuple[int, int, int]:
    """Constants for _match from an 8-byte spec, one class per byte, first
    byte lowest: d a decimal digit, i an interval digit 1-9, . any byte,
    and any other character itself."""
    classes = {"d": "09", "i": "19", ".": ""}  # the ends of a range
    below = above = care = 0
    for shift, c in zip(range(0, 64, 8), spec):
        lo, hi = map(ord, classes.get(c, c + c) or "\x80\x7f")  # 0x80-0x7F: no constraint
        below |= (0x80 - lo) << shift
        above |= (0x7F - hi) << shift
        care |= (0x80 if c != "." else 0) << shift
    return below, above, care


def _match(x: np.ndarray, pattern: tuple[int, int, int]) -> np.ndarray:
    """Whether every byte of each word x that pattern cares about is ASCII
    and lies in its class.

    For an ASCII byte b, b + (0x80 - lo) sets the byte's high bit iff
    b >= lo, and b + (0x7F - hi) sets it iff b > hi, with no carry into the
    next byte. A non-ASCII byte may carry, but it fails the word anyway."""
    below, above, care = pattern
    return ((x + below) & ~(x + above) & care == care) & (x & care == 0)


def _nibbles(x: np.ndarray) -> np.ndarray:
    """The 32-bit value of 8 hex digits, one per byte of each word, the
    first most significant: a byte b is worth (b & 15) + 9 * (b >> 6),
    then the nibbles are packed pairwise."""
    x = (x & 0x0F0F0F0F0F0F0F0F) + 9 * (x >> 6 & 0x0101010101010101)
    x = (x << 4 | x >> 8) & 0x00FF00FF00FF00FF
    x = (x << 8 | x >> 16) & 0x0000FFFF0000FFFF
    return (x << 16 | x >> 32) & 0xFFFFFFFF


def _decimal(x: np.ndarray) -> np.ndarray:
    """The value of 8 ASCII decimal digits, one per byte of each word, the
    first most significant: digit pairs, then quads, then the whole, with
    no carry between lanes."""
    x = x - _ASCII_ZEROS
    x = (x * 10 + (x >> 8)) & 0x00FF00FF00FF00FF
    x = (x * 100 + (x >> 16)) & 0x0000FFFF0000FFFF
    return (x * 10000 + (x >> 32)) & 0xFFFFFFFF


_DAY_WORD = _pattern("dd,i,...")  # day, interval and their commas
#: bytes a row's user type and its comma are compared in: enough for any
_USER_TYPE_BYTES = 11


class _HexCodes:
    """Codes of a file's hex ids, numbered block by block in order of first
    appearance, so over the whole file.

    A hex id and its comma are two words. A hash table maps the two words
    to a code, which holds only if that code's own id and comma are the
    same two words, so a collision costs time, never a wrong code. The
    words the table misses (new ids, malformed ones, and ids whose slot
    another holds) are read as 60-bit keys and numbered through a dict.
    """

    def __init__(self):
        self.ids: list[str] = []
        self._code_of: dict[int, int] = {}
        self._words = np.empty((2, 0), dtype=np.uint64)  # each code's id and comma
        self._slots = np.zeros(1, dtype=np.int32)

    def _slot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * _MIX[0] ^ b) * _MIX[1] >> 65 - len(self._slots).bit_length()

    def codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The code of each hex id in a block of rows, one row of a and b
        per hex column: a holds its first 8 bytes, b its last 7 and its
        comma. Words that are not a lowercase hex id and its comma get -1."""
        if self.ids:
            code = self._slots[self._slot(a, b)]
            missed = (self._words[0][code] != a) | (self._words[1][code] != b)
        else:
            code, missed = np.empty(a.shape, dtype=np.int32), np.ones(a.shape, dtype=bool)
        if missed.any():
            row, column = np.nonzero(missed.T)  # in file order
            code[column, row] = self._number(a[column, row], b[column, row])
        return code

    def _number(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keys = _nibbles(a) << 28 | _nibbles(b) >> 4
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        new = [k for k in distinct[np.argsort(first)].tolist() if k not in self._code_of]
        if new:
            n = len(self.ids)
            self._code_of.update(zip(new, range(n, n + len(new))))
            ids = [f"{k:015x}" for k in new]
            self.ids += ids
            words = np.frombuffer("".join(f"{h}," for h in ids).encode(), dtype="<u8").reshape(-1, 2).T
            self._words = np.concatenate([self._words, words], axis=1)
            size = min(1 << 20, 1 << (32 * len(self.ids)).bit_length())  # a few % of ids share a slot
            if size > len(self._slots):
                self._slots = np.zeros(size, dtype=np.int32)
                n, words = 0, self._words
            self._slots[self._slot(*words)] = np.arange(n, len(self.ids))
        code = np.array([self._code_of[k] for k in distinct.tolist()], dtype=np.int32)[inverse]
        return np.where((self._words[0][code] == a) & (self._words[1][code] == b), code, -1)


def _user_codes(low: np.ndarray, high: np.ndarray, allowed: tuple[str, ...]):
    """(code, length) of the user types whose first 8 bytes are the words
    low and next 3 are high: the FOOTFALL_USER_TYPES code of the allowed
    type there with its comma, or -1, and the length of type and comma. A
    type matched with bytes past its line end leaves no room for the count."""
    code = np.full(len(low), -1, dtype=np.int8)
    length = np.zeros(len(low), dtype=np.int64)
    for u in allowed:
        token = u.encode() + b","
        hit = low & (1 << 8 * min(len(token), 8)) - 1 == int.from_bytes(token[:8], "little")
        if len(token) > 8:
            hit &= high & (1 << 8 * (len(token) - 8)) - 1 == int.from_bytes(token[8:], "little")
        code[hit] = FOOTFALL_USER_TYPES.index(u)
        length[hit] = len(token)
    return code, length


def _count_column(data: bytes, words: np.ndarray, start: np.ndarray, end: np.ndarray, least: int):
    """(count, ok) of count tokens at [start, end): ASCII digits valued from
    least to the int64 maximum. Tokens of up to 18 digits, which always fit,
    are read as words of 8 digits right-aligned to end, the bytes before a
    token read as zeros; longer ones, rare, go through _parse_count."""
    length = end - start
    longest = int(length.max(initial=0))
    count = np.zeros(len(start), dtype=np.int64)
    ok = length >= 1
    for j in range(-(-min(longest, _SHORT_COUNT) // 8)):
        digits = np.clip(length - 8 * j, 0, 8)
        x = words[end - 8 * j - 8] & _HIGH_BYTES[digits] | _ZEROS_BEFORE[digits]
        # every byte is 0x30-0x39: its high nibble is 3, and so is that of byte + 6
        high = 0xF0F0F0F0F0F0F0F0
        ok &= (x & high | (x + 0x0606060606060606 & high) >> 4) == 0x3333333333333333
        count += _decimal(x).astype(np.int64) * 10 ** (8 * j)
    ok &= count >= least
    if longest > _SHORT_COUNT:
        for i in np.flatnonzero(length > _SHORT_COUNT).tolist():
            try:
                count[i] = _parse_count(data[start[i]:end[i]].decode("utf-8"), least)
                ok[i] = True
            except ValueError:
                ok[i] = False
    return count, ok


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
    data, start, end, line = _read_rows(path, header)
    n, n_hex = len(start), header.count(",") - 3
    date_at = 16 * n_hex  # of a valid row; each hex id and its comma are 16 bytes
    type_at = date_at + 13  # after yyyy-mm-dd,i,
    prefix = _items(data, type_at + _USER_TYPE_BYTES)  # 16 * n_hex + 24 bytes: whole words
    words = _items(data, 8).view("<u8")
    year = month = None
    first_month = 0  # the first row's yyyy-mm- word
    if n and end[0] - start[0] > date_at + 10:
        with contextlib.suppress(ValueError):
            at = int(start[0]) + date_at
            first = _parse_date(data[at:at + 10].decode("utf-8"))
            year, month = first.year, first.month
            first_month = int.from_bytes(data[at:at + 8], "little")
    month_days = calendar.monthrange(year, month)[1] if year else 0
    hex_codes = np.empty((n_hex, n), dtype=np.int32)
    day = np.empty(n, dtype=np.int16)
    interval = np.empty(n, dtype=np.int8)
    user_code = np.empty(n, dtype=np.int8)
    count = np.empty(n, dtype=np.int64)
    numbering = _HexCodes()
    bad = n  # the first row the kernels reject
    for a in range(0, n, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        s, e = start[rows], end[rows]
        w = _gather(data, prefix, s)
        ok = w[2 * n_hex] == first_month
        code = hex_codes[:, rows] = numbering.codes(w[0:2 * n_hex:2], w[1:2 * n_hex:2])
        ok &= ((code >= 0) & (code < _MAX_HEXES)).all(axis=0)
        dd = w[2 * n_hex + 1]
        ok &= _match(dd, _DAY_WORD)
        dom = (dd & 0xFF) * 10 + (dd >> 8 & 0xFF) - 11 * ord("0")  # unsigned: non-digits wrap past any month
        ok &= (dom >= 1) & (dom <= month_days)
        day[rows] = dom
        interval[rows] = (dd >> 24 & 0xFF) - ord("0")
        low = dd >> 40 | w[2 * n_hex + 2] << 24  # the 8 bytes at type_at; 3 more follow
        code, length = _user_codes(low, w[2 * n_hex + 2] >> 40, allowed)
        user_code[rows] = code
        ok &= code >= 0
        count[rows], count_ok = _count_column(data, words, s + type_at + length, e, least)
        ok &= count_ok
        if not ok.all():
            bad = a + int(np.argmin(ok))
            break
    if bad < n:
        tokens = data[start[bad]:end[bad]].decode("utf-8").split(",")
        if len(tokens) != n_hex + 4:
            raise IngestError(f"expected {n_hex + 4} fields, got {len(tokens)}", line=int(line[bad]))
        fault = _row_fault(tokens, hex_codes[:, bad], year, month, allowed, least)
        raise IngestError(fault, line=int(line[bad]))
    store = kind(numbering.ids, *hex_codes, day, interval, user_code, count, year, month)
    store._check_duplicates(lambda i: int(line[i]))
    return store


def load_od(path: str | Path, user_type_filter: str | None = None) -> ODStore:
    """Parse and index an OD CSV; the whole file is rejected on any bad row.

    With user_type_filter set, rows of other user types are validated but not
    stored. Duplicate keys and month mixing are checked before filtering.
    """
    code = None if user_type_filter is None else _od_user_code(user_type_filter)
    store = _load(ODStore, path)
    return store if code is None else store.subset(store.user_code == code)


def load_footfall(path: str | Path) -> FootfallStore:
    """Parse and index a footfall CSV; rejects the whole file on any bad row."""
    return _load(FootfallStore, path)


def descriptive_stats(store: ODStore, user_type: str) -> StatsSummary:
    """count/mean/std/min/max of flow counts for one user type (zeros are absent by schema)."""
    sel = store.count[store.user_code == _od_user_code(user_type)]
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
        mask &= store.user_code == _od_user_code(user_type)
    rows = np.flatnonzero(mask)
    if len(rows) == 0:
        raise EmptySelectionError("no records selected for monthly aggregate")
    pair_keys = store.origin_code[rows].astype(np.int64) << _CODE_BITS | store.dest_code[rows]
    uniq, inverse = np.unique(pair_keys, return_inverse=True)
    totals_arr = _sums(len(uniq), inverse, store.count[rows])
    mean = float(totals_arr.mean())
    share = float((totals_arr < mean).sum() / len(totals_arr))
    totals = {}
    for key, total in zip(uniq, totals_arr):
        o = store.hex_ids[int(key >> _CODE_BITS)]
        d = store.hex_ids[int(key & (_MAX_HEXES - 1))]
        totals[(o, d)] = int(total)
    return MonthlyODAggregate(totals=totals, mean=mean, below_mean_share=share)
