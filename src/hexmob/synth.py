"""Deterministic synthetic mobility world: cohort agents on fixed schedules,
emitted in the exact OD/footfall CSV schemas plus a ground-truth ledger.

Design goals, in order: exact recomputability (every emitted number is a
closed-form function of the config), planted-truth recovery (the detected
home-work pairs must equal the designated ones, with no false positives),
and structural realism (dwell self-loops dominate, full-day rows cover an
early-morning window the sub-daily intervals miss, small counts can be
suppressed like the vendor floor).

Population layout: hexes are partitioned into residential / work / amenity
zones, so a non-self morning flow can only be a commute leg — that is what
makes detection exact. Worker cohorts commute between a residential and a
work hex; a cohort may split off a subgroup for a midday shop or an evening
detour through an amenity hex. Resident cohorts dwell at home all day;
transient cohorts roam a fixed cycle. Worker flows are emitted under the
`worker` user type; residents and transients together form the `all` type,
so the two types partition the population and never double count.

Every active group contributes exactly its (Thursday-scaled) size to every
interval 1..8, which pins weekday daily totals: under uniform weights the
Mon-Fri totals are exactly equal (the ledger declares a noise bound of 0),
and a Thursday weight above 1 makes Thursdays strictly busiest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .ingest import _MAX_HEXES, FOOTFALL_HEADER, OD_HEADER, write_output
from .model import (
    FOOTFALL_USER_TYPES,
    FULL_DAY_INTERVAL,
    OD_USER_TYPES,
    REGIME_INTERVALS,
    SUB_DAY_INTERVALS,
    Range,
    RowView,
    month_dates,
    weekday_dates,
)

ALL_WEEKDAYS = frozenset(range(1, 8))
WORKWEEK = frozenset(range(1, 6))
#: the most people a world's busiest day may hold, Thursday-scaled workers plus
#: residents and transients: about 90 times the ~110k of a 2,000-hex, 50k-agent world
MAX_POPULATION = 10**7


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_hexes: int
    n_agents: int
    month: tuple  # (year, month)
    thursday_weight: float = 1.0
    weekend_worker_fraction: float = 0.15
    secondary_activity_rate: float = 0.3
    suppression_threshold: int = 22
    resident_factor: float = 1.0
    transient_factor: float = 0.2

    def validate(self) -> None:
        year, month = self.month
        values = {**vars(self), "year": year, "month": month}
        for name, check in FIELD_RANGES.items():
            # an open range takes infinity
            if isinstance(values[name], float) and not math.isfinite(values[name]):
                raise ValueError(f"{name} must be finite, got {values[name]}")
            check(values[name])
        # a Thursday weight above 1 makes Thursday the busiest day
        busiest = max(1, self.thursday_weight) + self.resident_factor + self.transient_factor
        population = math.inf if self.n_agents > MAX_POPULATION else self.n_agents * busiest
        if population > MAX_POPULATION:
            raise ValueError(
                f"population of n_agents={self.n_agents} with thursday_weight={self.thursday_weight},"
                f" resident_factor={self.resident_factor} and transient_factor={self.transient_factor}"
                f" is {population:.4g}, above the limit of {MAX_POPULATION}"
            )


#: the range of each SynthConfig field, `month` as its year and its month
FIELD_RANGES = {check.name: check for check in (
    Range("seed", 0, 2**64 - 1),
    Range("n_hexes", 10, _MAX_HEXES),  # three zones plus roaming room; what a file can load
    Range("n_agents", 1),
    Range("year", 1, 9999),
    Range("month", 1, 12),
    Range("thursday_weight", 0),
    Range("weekend_worker_fraction", 0, 1),
    Range("secondary_activity_rate", 0, 1),
    Range("suppression_threshold", 1),
    Range("resident_factor", 0),
    Range("transient_factor", 0),
)}


class WeekdayRows(RowView):
    """One ISO weekday's ledger rows: [hex..., interval, user type, count]
    lists, each built only when read."""

    def __init__(self, columns: list):
        #: [hex..., interval, user type, count] columns, in the files' row order
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[-1])

    def __iter__(self):
        return map(list, zip(*self.columns))

    def __repr__(self) -> str:
        return f"<WeekdayRows: {len(self)} rows>"


class EmittedRecords(RowView):
    """A month's post-suppression (hex..., date, interval, user type, count)
    tuples, read on demand from each ISO weekday's kept rows: every date
    repeats its weekday's rows, so no per-date tuple is stored, and len()
    builds none."""

    def __init__(self, columns: list, dates: list):
        #: per ISO weekday 1..7, its kept rows as [hex..., interval, user type,
        #: count] columns of Python values, in the files' row order
        self.columns = columns
        self.dates = dates
        self._by_date = [columns[date.isoweekday() - 1] for date in dates]
        self._len = sum(len(cols[-1]) for cols in self._by_date)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for date, (*hexes, iv, ut, c) in zip(self.dates, self._by_date):
            yield from zip(*hexes, repeat(date), iv, ut, c)

    def __repr__(self) -> str:
        return f"<EmittedRecords: {len(self)} records on {len(self.dates)} dates>"


#: stands in for the ISO date in a weekday's formatted rows; no field holds it
_DATE = "\0"
#: the ledger's keys whose values map "1".."7" to each ISO weekday's WeekdayRows
_ROW_KEYS = ("ff_records", "od_records")


@dataclass
class SynthWorld:
    config: SynthConfig
    od_records: EmittedRecords  # post-suppression (origin, dest, date, interval, ut, count)
    ff_records: EmittedRecords  # post-suppression (hex, date, interval, ut, count)
    ledger: dict
    boundaries: dict  # hex -> ring string "lon lat;lon lat;..."

    def write(self, out_dir) -> dict:
        """Write od.csv, footfall.csv, ledger.json, boundaries.csv; returns paths.
        Rows skip csv quoting: no synthetic field holds a comma, quote or newline."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "od": out / "od.csv",
            "footfall": out / "footfall.csv",
            "ledger": out / "ledger.json",
            "boundaries": out / "boundaries.csv",
        }
        _write_records(paths["od"], OD_HEADER, self.od_records)
        _write_records(paths["footfall"], FOOTFALL_HEADER, self.ff_records)
        with write_output(paths["ledger"]) as fh:
            fh.write(ledger_json(self.ledger))
            fh.write("\n")
        with write_output(paths["boundaries"]) as fh:
            fh.write("hex,ring\n")
            fh.writelines(f"{h},{self.boundaries[h]}\n" for h in sorted(self.boundaries))
        return paths


def ledger_json(ledger: dict) -> str:
    """The text of a generated ledger as json.dumps(ledger, sort_keys=True,
    separators=(",", ":")) would write it with its rows as lists; json.dumps
    itself raises TypeError on the WeekdayRows. The top-level keys go in
    sorted order: the two row keys as their weekdays' rows formatted from a
    per-row template, every other key by json.dumps."""

    def value(key: str) -> str:
        if key not in _ROW_KEYS:
            return json.dumps(ledger[key], sort_keys=True, separators=(",", ":"))
        weekdays = sorted(ledger[key].items())
        texts = _once_each(_json_rows, [rows.columns for _, rows in weekdays])
        return "{" + ",".join(f'"{wd}":{text}' for (wd, _), text in zip(weekdays, texts)) + "}"

    return "{" + ",".join(f'"{key}":{value(key)}' for key in sorted(ledger)) + "}"


def _once_each(fmt, weekday_columns: list) -> list:
    """fmt of each weekday's columns, called once per distinct columns
    object: weekdays with the same counts share theirs."""
    texts: dict = {}
    for cols in weekday_columns:
        if id(cols) not in texts:
            texts[id(cols)] = fmt(cols)
    return [texts[id(cols)] for cols in weekday_columns]


# No synthetic string needs quoting or escaping: hex ids are lowercase hex
# digits and user types plain words, so both templates write them as they are.
def _json_rows(cols: list) -> str:
    """A weekday's rows as a JSON array of [hex..., interval, user type, count]."""
    if len(cols) == 5:
        rows = [f'["{o}","{d}",{iv},"{ut}",{c}]' for o, d, iv, ut, c in zip(*cols)]
    else:
        rows = [f'["{h}",{iv},"{ut}",{c}]' for h, iv, ut, c in zip(*cols)]
    return f"[{','.join(rows)}]"


def _csv_rows(cols: list) -> str:
    """A weekday's rows as CSV lines, with _DATE where the date goes."""
    if len(cols) == 5:
        return "".join([f"{o},{d},{_DATE},{iv},{ut},{c}\n" for o, d, iv, ut, c in zip(*cols)])
    return "".join([f"{h},{_DATE},{iv},{ut},{c}\n" for h, iv, ut, c in zip(*cols)])


def _write_records(path: Path, header: str, records: EmittedRecords) -> None:
    """The header, then each date's rows: each weekday's rows are formatted
    once and cut where the date goes, and each date writes its weekday's
    pieces joined by its ISO date, one date at a time."""
    pieces = _once_each(lambda cols: _csv_rows(cols).split(_DATE), records.columns)
    with write_output(path) as fh:
        fh.write(header + "\n")
        for date in records.dates:
            fh.write(date.isoformat().join(pieces[date.isoweekday() - 1]))


def _make_hex_ids(rng: np.random.Generator, n: int) -> list:
    ids: list = []
    seen = set()
    while len(ids) < n:
        digits = rng.integers(0, 16, size=(n - len(ids), 15))
        for row in digits:
            h = "".join("0123456789abcdef"[d] for d in row)
            if h not in seen:
                seen.add(h)
                ids.append(h)
    return ids


def _cohort_sizes(rng: np.random.Generator, total: int) -> list:
    sizes = []
    left = total
    while left > 0:
        s = int(rng.integers(24, 61))
        if s >= left:
            s = left
        sizes.append(s)
        left -= s
    return sizes


def _plain_schedule(h: str, w: str, morning: int, evening: int) -> dict:
    sched = {}
    for iv in SUB_DAY_INTERVALS:
        if iv < morning:
            sched[iv] = (h, h)
        elif iv == morning:
            sched[iv] = (h, w)
        elif iv < evening:
            sched[iv] = (w, w)
        elif iv == evening:
            sched[iv] = (w, h)
        else:
            sched[iv] = (h, h)
    return sched


def _midshop_schedule(h: str, w: str, a: str, morning: int, evening: int) -> dict:
    sched = _plain_schedule(h, w, morning, evening)
    sched[4] = (w, a)
    sched[5] = (a, w)
    return sched


def _evedetour_schedule(h: str, w: str, a: str, morning: int) -> dict:
    sched = _plain_schedule(h, w, morning, 6)
    sched[6] = (w, a)
    sched[7] = (a, h)
    sched[8] = (h, h)
    return sched


def _effective_size(group: dict, weekday: int, thursday_weight: float) -> int:
    if group["thursday_scaled"] and weekday == 4:
        return int(group["size"] * thursday_weight + 0.5)
    return group["size"]


def _group(cohort: int, name: str, kind: str, size: int, schedule: dict, active: frozenset,
           home=None, work=None, amenity=None, morning=None, evening=None) -> dict:
    """One homogeneous block of agents sharing a daily schedule (interval
    1..8 -> (origin, destination)) on the ISO weekdays in active, as its
    ledger entry: name is main, midshop, evedetour, resident or transient,
    kind worker, resident or transient."""
    return {
        "cohort": cohort,
        "name": name,
        "kind": kind,
        "size": size,
        "od_user_type": "worker" if kind == "worker" else "all",
        "home": home,
        "work": work,
        "amenity": amenity,
        "morning": morning,
        "evening": evening,
        "active_weekdays": sorted(active),
        "schedule": {str(iv): list(od) for iv, od in schedule.items()},
        "chain_by_regime": {
            regime: [[*schedule[iv], iv] for iv in intervals if iv in schedule]
            for regime, intervals in REGIME_INTERVALS.items()
        },
        "thursday_scaled": kind == "worker",
    }


def _build_groups(config: SynthConfig, rng: np.random.Generator, zones: dict) -> list:
    res, wrk, amen = zones["residential"], zones["work"], zones["amenity"]
    groups: list = []
    cohort_id = 0

    for size in _cohort_sizes(rng, config.n_agents):
        home = res[cohort_id % len(res)]
        work = wrk[cohort_id % len(wrk)]
        morning = int(rng.integers(1, 3))
        evening = int(rng.integers(6, 8))
        weekend = bool(rng.random() < config.weekend_worker_fraction)
        active = ALL_WEEKDAYS if weekend else WORKWEEK
        secondary = bool(rng.random() < config.secondary_activity_rate) and size >= 3
        sub = size // 3 if secondary else 0
        sub_kind = "midshop" if rng.random() < 0.5 else "evedetour"
        amenity = amen[cohort_id % len(amen)]
        groups.append(_group(
            cohort_id, "main", "worker", size - sub, _plain_schedule(home, work, morning, evening),
            active, home=home, work=work, morning=morning, evening=evening,
        ))
        if sub:
            if sub_kind == "midshop":
                sched = _midshop_schedule(home, work, amenity, morning, evening)
            else:
                sched = _evedetour_schedule(home, work, amenity, morning)
            groups.append(_group(
                cohort_id, sub_kind, "worker", sub, sched, active, home=home, work=work,
                amenity=amenity, morning=morning, evening=evening if sub_kind == "midshop" else None,
            ))
        cohort_id += 1

    for size in _cohort_sizes(rng, int(round(config.n_agents * config.resident_factor))):
        home = res[cohort_id % len(res)]
        groups.append(_group(
            cohort_id, "resident", "resident", size,
            {iv: (home, home) for iv in SUB_DAY_INTERVALS}, ALL_WEEKDAYS, home=home,
        ))
        cohort_id += 1

    all_hexes = res + wrk + amen
    for size in _cohort_sizes(rng, int(round(config.n_agents * config.transient_factor))):
        path = [all_hexes[int(i)] for i in rng.choice(len(all_hexes), size=4, replace=False)]
        groups.append(_group(
            cohort_id, "transient", "transient", size,
            {iv: (path[(iv - 1) % 4], path[iv % 4]) for iv in SUB_DAY_INTERVALS}, ALL_WEEKDAYS,
        ))
        cohort_id += 1
    return groups


def _layout(config: SynthConfig) -> tuple:
    """Hex ids, zones and groups: everything the seeded RNG decides."""
    rng = np.random.default_rng(config.seed)
    hex_ids = _make_hex_ids(rng, config.n_hexes)
    perm = [hex_ids[int(i)] for i in rng.permutation(config.n_hexes)]
    # SynthConfig.validate's n_hexes >= 10 leaves every zone at least one hex
    n_res = round(config.n_hexes * 0.6)
    n_wrk = round(config.n_hexes * 0.25)
    zones = {
        "residential": perm[:n_res],
        "work": perm[n_res:n_res + n_wrk],
        "amenity": perm[n_res + n_wrk:],
    }
    return hex_ids, zones, _build_groups(config, rng, zones)


# user types ranked in string order, like hexes, so that packed-key order is
# the files' (day, interval, user_type, hex...) row order
_OD_TYPES = np.array(sorted(OD_USER_TYPES), dtype=object)
_FF_TYPES = np.array(sorted(FOOTFALL_USER_TYPES), dtype=object)


def _cells(groups: list, rank: dict) -> tuple:
    """Every count cell a group adds its effective size to on each day it is
    active: its eight windows, each again under the full-day interval, and a
    resident's early-morning window that only the full-day interval covers.
    Returns (group, interval, user type, origin, destination) OD rows and
    (group, interval, user type, hex) footfall rows, as rank arrays. A
    footfall cell counts under its group's kind and, unless the group is
    workers, again under "all"."""
    od_rank = {t: i for i, t in enumerate(_OD_TYPES)}
    ff_rank = {t: i for i, t in enumerate(_FF_TYPES)}
    n, w = len(groups), len(SUB_DAY_INTERVALS)
    # each group's windows as (origin, destination) rank pairs
    ends = np.array([rank[h] for g in groups for iv in SUB_DAY_INTERVALS for h in g["schedule"][str(iv)]],
                    dtype=np.int64).reshape(n * w, 2)
    # residents are also counted in the 00:00-03:59 window that only the
    # full-day interval covers
    night = np.array([gi for gi, g in enumerate(groups) if g["kind"] == "resident"], dtype=np.int64)
    home = np.array([rank[groups[gi]["home"]] for gi in night], dtype=np.int64)
    # the windows, the windows again under the full-day interval, the night windows
    group = np.concatenate([np.repeat(np.arange(n), w)] * 2 + [night])
    iv = np.full(len(group), FULL_DAY_INTERVAL)
    iv[:n * w] = np.tile(SUB_DAY_INTERVALS, n)
    o = np.concatenate([ends[:, 0], ends[:, 0], home])
    d = np.concatenate([ends[:, 1], ends[:, 1], home])
    od_type = np.array([od_rank[g["od_user_type"]] for g in groups])[group]
    ff_type = np.array([ff_rank[g["kind"]] for g in groups])[group]
    also_all = np.array([g["kind"] != "worker" for g in groups])[group]
    return np.column_stack([group, iv, od_type, o, d]), np.column_stack([
        np.r_[group, group[also_all]],
        np.r_[iv, iv[also_all]],
        np.r_[ff_type, np.full(also_all.sum(), ff_rank["all"])],
        np.r_[d, d[also_all]],
    ])


def _weekday_sums(cells: np.ndarray, widths: tuple, eff: np.ndarray) -> tuple:
    """Sum (group, interval, field...) cells by their fields. The fields are
    packed into one int64 key, each above the widths of those after it, so
    key order is tuple order. Returns the distinct field columns, in that
    order, and a (7, distinct) table of their counts on each ISO weekday:
    the summed effective sizes of the groups behind them."""
    key = cells[:, 1]
    for field, width in zip(cells[:, 2:].T, widths):
        key = key << width | field
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return cells[order[first], 1:].T, np.add.reduceat(eff[:, cells[order, 0]], first, axis=1)


def _records(cols: list, sums: np.ndarray, dates: list, thr: int) -> tuple:
    """Rows in key order from each weekday's counts: the ledger's
    pre-suppression rows, a WeekdayRows under each ISO weekday's "1".."7"
    key, and the month's emitted records, a view over each weekday's kept
    columns. Weekdays with the same counts share one set of columns, and so
    do a weekday's pre-suppression and kept rows when the threshold keeps
    every row."""
    keys = [counts.tobytes() for counts in sums]
    distinct: dict = {}
    for key, counts in zip(keys, sums):
        if key not in distinct:
            seen = counts > 0
            pre = [c[seen].tolist() for c in cols] + [counts[seen].tolist()]
            keep = (counts[seen] >= thr).tolist()
            distinct[key] = WeekdayRows(pre), pre if all(keep) else [list(compress(c, keep)) for c in pre]
    by_weekday = [distinct[key] for key in keys]
    ledger_rows = {str(wd): rows for wd, (rows, _) in enumerate(by_weekday, start=1)}
    return ledger_rows, EmittedRecords([kept for _, kept in by_weekday], dates)


def _hex_totals(hex_rank: np.ndarray, iv: np.ndarray, month: np.ndarray, names: np.ndarray) -> dict:
    """hex -> its eight window totals over the month, for every hex with a
    non-zero month count."""
    seen = month > 0
    totals = np.zeros((len(names), len(SUB_DAY_INTERVALS)), dtype=month.dtype)
    np.add.at(totals, (hex_rank[seen], iv[seen] - 1), month[seen])
    hexes = np.unique(hex_rank[seen])
    return dict(zip(names[hexes].tolist(), totals[hexes].tolist()))


def generate(config: SynthConfig) -> SynthWorld:
    """Build the whole world for a config; same config, same world, always.

    A day's counts depend only on its weekday, so each record kind is summed
    once per weekday over packed interval | user type | hex ranks keys, the
    ledger keeps each weekday's rows once, and every day repeats them."""
    config.validate()
    hex_ids, zones, groups = _layout(config)
    year, month = config.month
    dates = month_dates(year, month)
    iso = {date: date.isoformat() for date in dates}
    thr = config.suppression_threshold

    names = np.array(sorted(hex_ids), dtype=object)
    bits = max(1, (len(names) - 1).bit_length())
    od_cells, ff_cells = _cells(groups, {h: i for i, h in enumerate(names)})
    eff = [
        [_effective_size(g, wd, config.thursday_weight) if wd in g["active_weekdays"] else 0 for g in groups]
        for wd in range(1, 8)
    ]
    # SynthConfig.validate's population limit keeps every sum far inside int64
    eff = np.array(eff, dtype=np.int64)
    # how many of the month's dates fall on each ISO weekday
    n_days = np.bincount([date.isoweekday() - 1 for date in dates], minlength=7)[:, None]

    (iv, ut, o, d), od_sums = _weekday_sums(od_cells, (1, bits, bits), eff)
    od_rows, od_post = _records([names[o], names[d], iv, _OD_TYPES[ut]], od_sums, dates, thr)
    (ff_iv, ff_ut, h), ff_sums = _weekday_sums(ff_cells, (2, bits), eff)
    ff_rows, ff_post = _records([names[h], ff_iv, _FF_TYPES[ff_ut]], ff_sums, dates, thr)

    def month_total(sums, mask) -> int:
        return int((n_days * np.where(mask, sums, 0)).sum())

    od_kept, ff_kept = od_sums >= thr, ff_sums >= thr
    od_dropped, ff_dropped = (od_sums > 0) & ~od_kept, (ff_sums > 0) & ~ff_kept
    sub_day = np.where(od_kept & (iv < FULL_DAY_INTERVAL), od_sums, 0)
    sub_month = (n_days * sub_day).sum(axis=0)
    daily = sub_day.sum(axis=1)
    ledger = _build_ledger(config, iso, zones, groups, {
        "od_records": od_rows,
        "ff_records": ff_rows,
        "suppression": {
            "threshold": thr,
            "od_records_dropped": int((n_days * od_dropped).sum()),
            "od_mass_dropped": month_total(od_sums, od_dropped),
            "ff_records_dropped": int((n_days * ff_dropped).sum()),
            "ff_mass_dropped": month_total(ff_sums, ff_dropped),
        },
        "daily_totals": {iso[date]: int(daily[date.isoweekday() - 1]) for date in dates},
        "od_origin_totals": _hex_totals(o, iv, sub_month, names),
        "od_dest_totals": _hex_totals(d, iv, sub_month, names),
        "totals": {
            "od_post_count": month_total(od_sums, od_kept),
            "od_post_records": int((n_days * od_kept).sum()),
            "ff_post_count": month_total(ff_sums, ff_kept),
            "ff_post_records": int((n_days * ff_kept).sum()),
        },
    })
    _self_check(ledger, od_post, ff_post)
    return SynthWorld(
        config=config, od_records=od_post, ff_records=ff_post,
        ledger=ledger, boundaries=make_boundaries(hex_ids),
    )


def _build_ledger(config, iso: dict, zones, groups, counts: dict) -> dict:
    """The ledger: config echo, zones, groups and planted pairs, plus the
    record lists and totals in counts; iso maps each date of the month to
    its ISO string."""
    year, month = config.month

    on_weekday = {wd: weekday_dates(year, month, wd) for wd in range(1, 8)}
    pairs: dict = {}
    for g in groups:
        if g["kind"] == "worker":
            days = pairs.setdefault((g["home"], g["work"]), set())
            for wd in g["active_weekdays"]:
                days.update(on_weekday[wd])

    return {
        "config": {**asdict(config), "month": [year, month]},
        "month": [year, month],
        "hex_zones": zones,
        "groups": groups,
        "pairs": [
            {
                "home": h,
                "work": w,
                "qualifying_days": [iso[d] for d in sorted(days)],
            }
            for (h, w), days in sorted(pairs.items())
        ],
        "noise": {
            "bound": 0.0,
            "scope": "iso_weekdays_1_to_5",
            "note": (
                "with thursday_weight=1.0 every active group contributes its size "
                "to every interval on every working weekday, so Mon-Fri daily "
                "totals are exactly equal, before and after suppression"
            ),
        },
        **counts,
    }


def _self_check(ledger: dict, od_post: EmittedRecords, ff_post: EmittedRecords) -> None:
    """The emitted records' number and mass equal those of the ledger's rows
    at or above the threshold, each counted once per date of its weekday."""
    thr = ledger["suppression"]["threshold"]
    days = [len(weekday_dates(*ledger["month"], wd)) for wd in range(1, 8)]

    def number_and_mass(counts_by_weekday) -> tuple:
        return (sum(n * len(counts) for n, counts in zip(days, counts_by_weekday)),
                sum(n * sum(counts) for n, counts in zip(days, counts_by_weekday)))

    for kind, key, post in (("OD", "od_records", od_post), ("footfall", "ff_records", ff_post)):
        kept = [[c for c in ledger[key][str(wd)].columns[-1] if c >= thr] for wd in range(1, 8)]
        if number_and_mass(kept) != number_and_mass([cols[-1] for cols in post.columns]):
            raise AssertionError(f"ledger {kind} totals disagree with emitted records")


#: a ring's corners as offsets from its centre, 0.008 degrees out every 60 degrees
_CORNERS = [(0.008 * math.cos(math.radians(60 * k)), 0.008 * math.sin(math.radians(60 * k)))
            for k in range(6)]
#: rows of 0.02 degrees north from 51.20 N whose rings stay south of 90 N
_STRIP_ROWS = 1940


def make_boundaries(hex_ids) -> dict:
    """Synthetic hexagon rings on a lon/lat grid, one per hex id.

    Purely cosmetic geometry for map export; ids carry no real location.
    """
    return {h: _grid_ring(i) for i, h in enumerate(sorted(hex_ids))}


def _grid_ring(i: int) -> str:
    """The ring of the i-th hex in id order. Hexes fill 40 columns 0.02
    degrees apart, row by row north from 51.20 N; past the 77,600 that fit
    south of the pole, the grid goes on in a new strip of 40 columns east."""
    strip, j = divmod(i, 40 * _STRIP_ROWS)
    cx = -0.60 + strip * 0.80 + (j % 40) * 0.02
    cy = 51.20 + (j // 40) * 0.02
    return ";".join([f"{cx + dx:.6f} {cy + dy:.6f}" for dx, dy in _CORNERS])


def verify_ledger(ledger: dict, od_store, ff_store) -> list:
    """Record-level diff of loaded stores against the ledger's post-suppression
    view; returns human-readable mismatch lines, empty when everything agrees."""
    thr = ledger["suppression"]["threshold"]
    dates = month_dates(*ledger["month"])
    od_seen = {(r.origin, r.destination, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in od_store.iter_records()}
    ff_seen = {(r.hex, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in ff_store.iter_records()}
    return (_diff_records("od", ledger["od_records"], dates, od_seen, thr)
            + _diff_records("footfall", ledger["ff_records"], dates, ff_seen, thr))


def _diff_records(kind: str, rows: dict, dates: list, seen: dict, thr: int) -> list:
    """Report lines for one record kind: the ledger's [hex..., interval, user
    type, count] rows at or above the suppression threshold, repeated on each
    date of their weekday, against the store's key -> count."""
    expected = {(*hexes, date.isoformat(), iv, ut): c for date in dates
                for *hexes, iv, ut, c in rows[str(date.isoweekday())] if c >= thr}
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
