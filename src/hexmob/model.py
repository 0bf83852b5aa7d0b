"""Shared domain model: hexagon cell ids, the nine-slot time grid, temporal
regimes, user types, value ranges, calendar helpers and the row-view base.

Everything here is an immutable value; instances can be shared freely across
threads.
"""

from __future__ import annotations

import calendar
import datetime as dt
import math
import operator
import re
from dataclasses import dataclass

_HEX_ID_RE = re.compile(r"[0-9a-f]{15}\Z")
#: the whitespace a line can hold, as ingest.read_input ends each at LF; every
#: reader splits and strips at it, never at Unicode's (NBSP, U+2028, \x1c, ...)
SPACE = " \t\f\v"
#: the words of a text: its runs of characters outside SPACE
words = re.compile(f"[^{SPACE}]+").findall
# ASCII digits with an optional minus, fraction and exponent, as every finite
# float's repr is written, between optional SPACE; no underscore, non-ASCII
# digit, nan or inf
_DECIMAL_RE = re.compile(f"[{SPACE}]*-?[0-9]+(?:\\.[0-9]+)?(?:[eE][-+]?[0-9]+)?[{SPACE}]*\\Z")

# The vendor time grid. Slots 1-8 tile 04:00-23:59 without gaps or overlap;
# slot 9 is the full-day aggregate and overlaps all of them. Minutes
# 00:00-03:59 belong only to slot 9.
TIME_INTERVALS: dict[int, tuple[int, int]] = {
    1: (4 * 60, 8 * 60 - 1),
    2: (8 * 60, 10 * 60 - 1),
    3: (10 * 60, 12 * 60 - 1),
    4: (12 * 60, 14 * 60 - 1),
    5: (14 * 60, 16 * 60 - 1),
    6: (16 * 60, 18 * 60 - 1),
    7: (18 * 60, 20 * 60 - 1),
    8: (20 * 60, 24 * 60 - 1),
    9: (0, 24 * 60 - 1),
}

FULL_DAY_INTERVAL = 9
SUB_DAY_INTERVALS: tuple[int, ...] = tuple(range(1, 9))
ALL_INTERVALS: tuple[int, ...] = tuple(range(1, 10))

MORNING_PEAK = "morning_peak"
MIDDAY = "midday"
EVENING_PEAK = "evening_peak"
NIGHT = "night"

# Regimes partition slots 1..9. The full-day slot 9 nominally belongs to the
# night regime but is excluded from chaining and profile work downstream.
REGIME_INTERVALS: dict[str, tuple[int, ...]] = {
    MORNING_PEAK: (1, 2),
    MIDDAY: (3, 4, 5),
    EVENING_PEAK: (6, 7),
    NIGHT: (8, 9),
}

USER_TYPE_ALL = "all"
USER_TYPE_WORKER = "worker"
USER_TYPE_RESIDENT = "resident"
USER_TYPE_TRANSIENT = "transient"

#: user types allowed in OD data / footfall data respectively
OD_USER_TYPES: tuple[str, ...] = (USER_TYPE_ALL, USER_TYPE_WORKER)
FOOTFALL_USER_TYPES: tuple[str, ...] = (
    USER_TYPE_ALL,
    USER_TYPE_WORKER,
    USER_TYPE_RESIDENT,
    USER_TYPE_TRANSIENT,
)

ROLE_ORIGIN = "origin"
ROLE_DESTINATION = "destination"


@dataclass(frozen=True)
class TemporalRegime:
    name: str
    intervals: tuple[int, ...]


@dataclass(frozen=True)
class Range:
    """The range least..most (open if most is inf) of a named value; called
    with a value outside it, NaN included, it raises the value's one message."""

    name: str
    least: float
    most: float = math.inf

    def __call__(self, value) -> None:
        if not self.least <= value <= self.most:
            span = f">= {self.least}" if self.most == math.inf else f"{self.least}..{self.most}"
            raise ValueError(f"{self.name} must be {span}")


check_weekday = Range("weekday", 1, 7)


def parse_decimal(text: str) -> float:
    """The finite float a plain decimal spells, padded with SPACE or not.
    Anything else is a ValueError naming the text: `non-finite value` where
    float() reads nan or an infinity (`nan`, `-inf`, `1e999`), and `bad
    value ..., not a plain decimal` for every other text, whether float()
    takes it (`1_0`, `+1`, `.5`, NBSP beside the digits) or not (`abc`)."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0  # finite, so the pattern below names the fault
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if _DECIMAL_RE.match(text) is None:
        raise ValueError(f"bad value {text!r}, not a plain decimal")
    return value


def is_hex_id(value: str) -> bool:
    """True if value is a well-formed 15-char lowercase hexadecimal cell id."""
    return isinstance(value, str) and _HEX_ID_RE.match(value) is not None


def parse_hex_id(value: str) -> str:
    """Validate a cell id, returning it unchanged; raises ValueError if malformed."""
    if not is_hex_id(value):
        raise ValueError(f"malformed hex id: {value!r}")
    return value


def interval_of(minutes_from_midnight: int) -> set[int]:
    """All slot indices (including the full-day slot 9) covering a minute of the day.

    Minutes in 00:00-03:59 fall only in slot 9.
    """
    m = minutes_from_midnight
    if not 0 <= m <= 1439:
        raise ValueError(f"minute of day out of range 0..1439: {m}")
    return {i for i, (start, end) in TIME_INTERVALS.items() if start <= m <= end}


def regime_of(interval_index: int) -> TemporalRegime:
    """The unique temporal regime containing a slot index."""
    for name, intervals in REGIME_INTERVALS.items():
        if interval_index in intervals:
            return TemporalRegime(name, intervals)
    raise ValueError(f"interval index out of range 1..9: {interval_index}")


@dataclass(frozen=True)
class FlowRecord:
    """One aggregated directed flow count. Origin may equal destination (intraflow)."""

    origin: str
    destination: str
    day: dt.date
    interval: int
    user_type: str
    count: int


@dataclass(frozen=True)
class FootfallRecord:
    hex: str
    day: dt.date
    interval: int
    user_type: str
    count: int


def month_dates(year: int, month: int) -> list[dt.date]:
    """Every calendar date of a month, ascending."""
    n = calendar.monthrange(year, month)[1]
    return [dt.date(year, month, d) for d in range(1, n + 1)]


def weekday_dates(year: int, month: int, weekday: int) -> list[dt.date]:
    """The calendar dates of a month falling on the given ISO weekday."""
    check_weekday(weekday)
    return [d for d in month_dates(year, month) if d.isoweekday() == weekday]


class RowView:
    """Rows read on demand from compact columns: they iterate, count and
    compare. Equal to a list, or another view of its class, holding the
    same rows."""

    def __eq__(self, other):
        if not isinstance(other, (list, type(self))):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))
