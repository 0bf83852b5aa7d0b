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
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .ingest import FOOTFALL_HEADER, OD_HEADER
from .model import (
    FOOTFALL_USER_TYPES,
    FULL_DAY_INTERVAL,
    OD_USER_TYPES,
    REGIME_INTERVALS,
    SUB_DAY_INTERVALS,
    iso_weekday,
    month_dates,
)

ALL_WEEKDAYS = frozenset(range(1, 8))
WORKWEEK = frozenset(range(1, 6))
#: the most people a world may hold: workers plus residents and transients,
#: about 90 times the ~110k of a 2,000-hex, 50k-agent world
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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.n_hexes < 10:
            raise ValueError("n_hexes must be >= 10 (three zones plus roaming room)")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        y, m = self.month
        if not (1 <= m <= 12 and 1 <= y <= 9999):
            raise ValueError(f"invalid month {self.month}")
        for name in (
            "thursday_weight", "resident_factor", "transient_factor",
            "weekend_worker_fraction", "secondary_activity_rate",
        ):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.thursday_weight < 0:
            raise ValueError("thursday_weight must be >= 0")
        for name in ("weekend_worker_fraction", "secondary_activity_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.suppression_threshold < 1:
            raise ValueError("suppression_threshold must be >= 1")
        if self.resident_factor < 0 or self.transient_factor < 0:
            raise ValueError("population factors must be >= 0")
        population = (
            math.inf if self.n_agents > MAX_POPULATION
            else self.n_agents * (1 + self.resident_factor + self.transient_factor)
        )
        if population > MAX_POPULATION:
            raise ValueError(
                f"population of n_agents={self.n_agents} with resident_factor={self.resident_factor}"
                f" and transient_factor={self.transient_factor} is {population:.4g},"
                f" above the limit of {MAX_POPULATION}"
            )


@dataclass(frozen=True)
class _Group:
    """One homogeneous block of agents sharing a daily schedule."""

    cohort: int
    name: str  # main | midshop | evedetour | resident | transient
    kind: str  # worker | resident | transient
    size: int
    schedule: dict  # interval 1..8 -> (origin, destination)
    active: frozenset  # ISO weekdays
    home: str | None = None
    work: str | None = None
    amenity: str | None = None
    morning: int | None = None
    evening: int | None = None

    @property
    def od_user_type(self) -> str:
        return "worker" if self.kind == "worker" else "all"

    @property
    def night_extra(self) -> bool:
        # residents are also counted in the 00:00-03:59 window that only
        # the full-day interval covers
        return self.kind == "resident"


@dataclass
class SynthWorld:
    config: SynthConfig
    od_records: list  # post-suppression (origin, dest, date, interval, ut, count)
    ff_records: list  # post-suppression (hex, date, interval, ut, count)
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
        iso = _iso_dates(*self.config.month)
        with open(paths["od"], "w", newline="", encoding="utf-8") as fh:
            fh.write(OD_HEADER + "\n")
            fh.writelines(
                f"{o},{d},{iso[date]},{iv},{ut},{c}\n" for o, d, date, iv, ut, c in self.od_records
            )
        with open(paths["footfall"], "w", newline="", encoding="utf-8") as fh:
            fh.write(FOOTFALL_HEADER + "\n")
            fh.writelines(f"{h},{iso[date]},{iv},{ut},{c}\n" for h, date, iv, ut, c in self.ff_records)
        with open(paths["ledger"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.ledger, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        with open(paths["boundaries"], "w", newline="", encoding="utf-8") as fh:
            fh.write("hex,ring\n")
            fh.writelines(f"{h},{self.boundaries[h]}\n" for h in sorted(self.boundaries))
        return paths


def _iso_dates(year: int, month: int) -> dict:
    """Each date of the month -> its ISO string, formatted once per day."""
    return {date: date.isoformat() for date in month_dates(year, month)}


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


def _effective_size(group: _Group, weekday: int, thursday_weight: float) -> int:
    if group.kind == "worker" and weekday == 4:
        return int(group.size * thursday_weight + 0.5)
    return group.size


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
        groups.append(
            _Group(
                cohort=cohort_id, name="main", kind="worker", size=size - sub,
                schedule=_plain_schedule(home, work, morning, evening),
                active=active, home=home, work=work,
                morning=morning, evening=evening,
            )
        )
        if sub:
            if sub_kind == "midshop":
                sched = _midshop_schedule(home, work, amenity, morning, evening)
            else:
                sched = _evedetour_schedule(home, work, amenity, morning)
            groups.append(
                _Group(
                    cohort=cohort_id, name=sub_kind, kind="worker", size=sub,
                    schedule=sched, active=active, home=home, work=work,
                    amenity=amenity, morning=morning,
                    evening=evening if sub_kind == "midshop" else None,
                )
            )
        cohort_id += 1

    for size in _cohort_sizes(rng, int(round(config.n_agents * config.resident_factor))):
        home = res[cohort_id % len(res)]
        groups.append(
            _Group(
                cohort=cohort_id, name="resident", kind="resident", size=size,
                schedule={iv: (home, home) for iv in SUB_DAY_INTERVALS},
                active=ALL_WEEKDAYS, home=home,
            )
        )
        cohort_id += 1

    all_hexes = res + wrk + amen
    for size in _cohort_sizes(rng, int(round(config.n_agents * config.transient_factor))):
        path = [all_hexes[int(i)] for i in rng.choice(len(all_hexes), size=4, replace=False)]
        groups.append(
            _Group(
                cohort=cohort_id, name="transient", kind="transient", size=size,
                schedule={iv: (path[(iv - 1) % 4], path[iv % 4]) for iv in SUB_DAY_INTERVALS},
                active=ALL_WEEKDAYS,
            )
        )
        cohort_id += 1
    return groups


def _chain_items_by_regime(schedule: dict) -> dict:
    out = {}
    for regime, intervals in REGIME_INTERVALS.items():
        items = [
            [schedule[iv][0], schedule[iv][1], iv]
            for iv in sorted(schedule)
            if iv in intervals
        ]
        out[regime] = items
    return out


def _layout(config: SynthConfig) -> tuple:
    """Hex ids, zones and groups: everything the seeded RNG decides."""
    rng = np.random.default_rng(config.seed)
    hex_ids = _make_hex_ids(rng, config.n_hexes)
    perm = [hex_ids[int(i)] for i in rng.permutation(config.n_hexes)]
    n_res = max(1, int(round(config.n_hexes * 0.6)))
    n_wrk = max(1, int(round(config.n_hexes * 0.25)))
    if n_res + n_wrk >= config.n_hexes:
        n_wrk = max(1, config.n_hexes - n_res - 1)
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
_INT64_MAX = np.iinfo(np.int64).max


def _cells(groups: list, rank: dict) -> tuple:
    """Every count cell a group adds its effective size to on each day it is
    active: its eight windows, each again under the full-day interval, and a
    resident's early-morning window that only the full-day interval covers.
    Returns (group, interval, user type, origin, destination) OD rows and
    (group, interval, user type, hex) footfall rows, as rank arrays."""
    od, ff = [], []
    od_rank = {t: i for i, t in enumerate(_OD_TYPES)}
    ff_rank = {t: i for i, t in enumerate(_FF_TYPES)}
    for gi, g in enumerate(groups):
        cells = [(iv, rank[o], rank[d]) for iv, (o, d) in g.schedule.items()]
        cells += [(FULL_DAY_INTERVAL, o, d) for _, o, d in cells]
        if g.night_extra:
            cells.append((FULL_DAY_INTERVAL, rank[g.home], rank[g.home]))
        ut = od_rank[g.od_user_type]
        od += [(gi, iv, ut, o, d) for iv, o, d in cells]
        ff_types = ("worker",) if g.kind == "worker" else (g.kind, "all")
        ff += [(gi, iv, ff_rank[t], d) for iv, _, d in cells for t in ff_types]
    return np.array(od, dtype=np.int64), np.array(ff, dtype=np.int64)


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


def _records(cols: list, sums: np.ndarray, dates: list, iso: dict, thr: int) -> tuple:
    """Each day's rows, in key order, from its weekday's counts: the ledger's
    pre-suppression [hex..., iso date, interval, user type, count] lists and
    the emitted (hex..., date, interval, user type, count) tuples."""
    by_weekday = [
        [[c[m].tolist() for c in cols] + [counts[m].tolist()] for m in (counts > 0, counts >= thr)]
        for counts in sums
    ]
    ledger_rows: list = []
    emitted: list = []
    for date in dates:
        pre, post = by_weekday[iso_weekday(date) - 1]
        *hexes, iv, ut, c = pre
        ledger_rows += map(list, zip(*hexes, repeat(iso[date]), iv, ut, c))
        *hexes, iv, ut, c = post
        emitted += zip(*hexes, repeat(date), iv, ut, c)
    return ledger_rows, emitted


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
    once per weekday over packed interval | user type | hex ranks keys, and
    every day repeats its weekday's rows."""
    config.validate()
    hex_ids, zones, groups = _layout(config)
    year, month = config.month
    dates = month_dates(year, month)
    iso = _iso_dates(year, month)
    thr = config.suppression_threshold

    names = np.array(sorted(hex_ids), dtype=object)
    bits = max(1, (len(names) - 1).bit_length())
    od_cells, ff_cells = _cells(groups, {h: i for i, h in enumerate(names)})
    eff = [
        [_effective_size(g, wd, config.thursday_weight) if wd in g.active else 0 for g in groups]
        for wd in range(1, 8)
    ]
    # no count or month total can pass this bound; beyond int64 the sums
    # run on Python ints, as ingest._summable does
    bound = len(ff_cells) * len(dates) * max(map(max, eff))
    eff = np.array(eff, dtype=np.int64 if bound <= _INT64_MAX else object)
    # how many of the month's dates fall on each ISO weekday
    n_days = np.bincount([iso_weekday(date) - 1 for date in dates], minlength=7)[:, None]

    (iv, ut, o, d), od_sums = _weekday_sums(od_cells, (1, bits, bits), eff)
    od_rows, od_post = _records([names[o], names[d], iv, _OD_TYPES[ut]], od_sums, dates, iso, thr)
    (ff_iv, ff_ut, h), ff_sums = _weekday_sums(ff_cells, (2, bits), eff)
    ff_rows, ff_post = _records([names[h], ff_iv, _FF_TYPES[ff_ut]], ff_sums, dates, iso, thr)

    def month_total(sums, mask) -> int:
        return int((n_days * np.where(mask, sums, 0)).sum())

    od_kept, ff_kept = od_sums >= thr, ff_sums >= thr
    od_dropped, ff_dropped = (od_sums > 0) & ~od_kept, (ff_sums > 0) & ~ff_kept
    sub_day = np.where(od_kept & (iv < FULL_DAY_INTERVAL), od_sums, 0)
    sub_month = (n_days * sub_day).sum(axis=0)
    daily = sub_day.sum(axis=1)
    ledger = _build_ledger(config, zones, groups, {
        "od_records": od_rows,
        "ff_records": ff_rows,
        "suppression": {
            "threshold": thr,
            "od_records_dropped": int((n_days * od_dropped).sum()),
            "od_mass_dropped": month_total(od_sums, od_dropped),
            "ff_records_dropped": int((n_days * ff_dropped).sum()),
            "ff_mass_dropped": month_total(ff_sums, ff_dropped),
        },
        "daily_totals": {iso[date]: int(daily[iso_weekday(date) - 1]) for date in dates},
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


def _build_ledger(config, zones, groups, counts: dict) -> dict:
    """The ledger: config echo, zones, groups and planted pairs, plus the
    record lists and totals in counts."""
    year, month = config.month
    iso = _iso_dates(year, month)

    pairs: dict = {}
    for g in groups:
        if g.kind != "worker":
            continue
        days = pairs.setdefault((g.home, g.work), set())
        days.update(d for d in iso if iso_weekday(d) in g.active)

    group_entries = []
    for g in groups:
        group_entries.append(
            {
                "cohort": g.cohort,
                "name": g.name,
                "kind": g.kind,
                "size": g.size,
                "od_user_type": g.od_user_type,
                "home": g.home,
                "work": g.work,
                "amenity": g.amenity,
                "morning": g.morning,
                "evening": g.evening,
                "active_weekdays": sorted(g.active),
                "schedule": {str(iv): list(od) for iv, od in sorted(g.schedule.items())},
                "chain_by_regime": _chain_items_by_regime(g.schedule),
                "thursday_scaled": g.kind == "worker",
            }
        )

    return {
        "config": {
            "seed": config.seed,
            "n_hexes": config.n_hexes,
            "n_agents": config.n_agents,
            "month": [year, month],
            "thursday_weight": config.thursday_weight,
            "weekend_worker_fraction": config.weekend_worker_fraction,
            "secondary_activity_rate": config.secondary_activity_rate,
            "suppression_threshold": config.suppression_threshold,
            "resident_factor": config.resident_factor,
            "transient_factor": config.transient_factor,
        },
        "month": [year, month],
        "hex_zones": zones,
        "groups": group_entries,
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


def _self_check(ledger: dict, od_post, ff_post) -> None:
    thr = ledger["suppression"]["threshold"]
    expect_od = [r for r in ledger["od_records"] if r[5] >= thr]
    expect_ff = [r for r in ledger["ff_records"] if r[4] >= thr]
    if len(expect_od) != len(od_post) or sum(r[5] for r in expect_od) != sum(
        r[5] for r in od_post
    ):
        raise AssertionError("ledger OD totals disagree with emitted records")
    if len(expect_ff) != len(ff_post) or sum(r[4] for r in expect_ff) != sum(
        r[4] for r in ff_post
    ):
        raise AssertionError("ledger footfall totals disagree with emitted records")


def make_boundaries(hex_ids) -> dict:
    """Synthetic hexagon rings on a lon/lat grid, one per hex id.

    Purely cosmetic geometry for map export; ids carry no real location.
    """
    out = {}
    radius = 0.008
    for i, h in enumerate(sorted(hex_ids)):
        cx = -0.60 + (i % 40) * 0.02
        cy = 51.20 + (i // 40) * 0.02
        pts = []
        for k in range(6):
            ang = math.radians(60 * k)
            pts.append(f"{cx + radius * math.cos(ang):.6f} {cy + radius * math.sin(ang):.6f}")
        out[h] = ";".join(pts)
    return out


def verify_ledger(ledger: dict, od_store, ff_store) -> list:
    """Record-level diff of loaded stores against the ledger's post-suppression
    view; returns human-readable mismatch lines, empty when everything agrees."""
    thr = ledger["suppression"]["threshold"]
    od_seen = {(r.origin, r.destination, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in od_store.iter_records()}
    ff_seen = {(r.hex, r.day.isoformat(), r.interval, r.user_type): r.count
               for r in ff_store.iter_records()}
    return (_diff_records("od", ledger["od_records"], od_seen, thr)
            + _diff_records("footfall", ledger["ff_records"], ff_seen, thr))


def _diff_records(kind: str, records, seen: dict, thr: int) -> list:
    """Report lines for one record kind: the ledger's [key..., count] records
    at or above the suppression threshold against the store's key -> count."""
    expected = {tuple(key): c for *key, c in records if c >= thr}
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
