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
from pathlib import Path

import numpy as np

from .ingest import FOOTFALL_HEADER, OD_HEADER
from .model import (
    REGIME_INTERVALS,
    SUB_DAY_INTERVALS,
    iso_weekday,
    month_dates,
)

ALL_WEEKDAYS = frozenset(range(1, 8))
WORKWEEK = frozenset(range(1, 6))


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


def generate(config: SynthConfig) -> SynthWorld:
    """Build the whole world for a config; same config, same world, always."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    year, month = config.month

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
    groups = _build_groups(config, rng, zones)

    # keys lead with (day, interval, user_type), so plain tuple order is
    # the files' row order
    od_sub: dict = {}
    ff_sub: dict = {}
    od_full: dict = {}
    ff_full: dict = {}
    dates = month_dates(year, month)
    for day, date in enumerate(dates, start=1):
        wd = iso_weekday(date)
        for g in groups:
            if wd not in g.active:
                continue
            eff = _effective_size(g, wd, config.thursday_weight)
            if eff == 0:
                continue
            ff_types = ("worker",) if g.kind == "worker" else (g.kind, "all")
            for iv, (o, d) in g.schedule.items():
                key = (day, iv, g.od_user_type, o, d)
                od_sub[key] = od_sub.get(key, 0) + eff
                for ut in ff_types:
                    fkey = (day, iv, ut, d)
                    ff_sub[fkey] = ff_sub.get(fkey, 0) + eff
            if g.night_extra:
                ekey = (day, 9, g.od_user_type, g.home, g.home)
                od_full[ekey] = od_full.get(ekey, 0) + eff
                for ut in ("resident", "all"):
                    fkey = (day, 9, ut, g.home)
                    ff_full[fkey] = ff_full.get(fkey, 0) + eff

    # full-day rows: the sum of the sub-daily windows plus the uncovered
    # early-morning window (residents only)
    for (day, _, ut, o, d), c in od_sub.items():
        key = (day, 9, ut, o, d)
        od_full[key] = od_full.get(key, 0) + c
    for (day, _, ut, h), c in ff_sub.items():
        key = (day, 9, ut, h)
        ff_full[key] = ff_full.get(key, 0) + c

    od_keys = sorted([(*k, c) for part in (od_sub, od_full) for k, c in part.items()])
    od_pre = [(o, d, dates[day - 1], iv, ut, c) for day, iv, ut, o, d, c in od_keys]
    ff_keys = sorted([(*k, c) for part in (ff_sub, ff_full) for k, c in part.items()])
    ff_pre = [(h, dates[day - 1], iv, ut, c) for day, iv, ut, h, c in ff_keys]

    thr = config.suppression_threshold
    od_post = [r for r in od_pre if r[5] >= thr]
    ff_post = [r for r in ff_pre if r[4] >= thr]

    ledger = _build_ledger(config, zones, groups, od_pre, ff_pre, od_post, ff_post)
    _self_check(ledger, od_post, ff_post)
    boundaries = make_boundaries(hex_ids)
    return SynthWorld(
        config=config, od_records=od_post, ff_records=ff_post,
        ledger=ledger, boundaries=boundaries,
    )


def _build_ledger(config, zones, groups, od_pre, ff_pre, od_post, ff_post) -> dict:
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

    daily_totals = dict.fromkeys(iso.values(), 0)
    origin_totals: dict = {}
    dest_totals: dict = {}
    for o, d, date, iv, ut, c in od_post:
        if iv == 9:
            continue
        daily_totals[iso[date]] += c
        origin_totals.setdefault(o, [0] * 8)[iv - 1] += c
        dest_totals.setdefault(d, [0] * 8)[iv - 1] += c

    suppressed_od = [r for r in od_pre if r[5] < config.suppression_threshold]
    suppressed_ff = [r for r in ff_pre if r[4] < config.suppression_threshold]

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
        "od_records": [
            [o, d, iso[date], iv, ut, c] for o, d, date, iv, ut, c in od_pre
        ],
        "ff_records": [
            [h, iso[date], iv, ut, c] for h, date, iv, ut, c in ff_pre
        ],
        "suppression": {
            "threshold": config.suppression_threshold,
            "od_records_dropped": len(suppressed_od),
            "od_mass_dropped": sum(r[5] for r in suppressed_od),
            "ff_records_dropped": len(suppressed_ff),
            "ff_mass_dropped": sum(r[4] for r in suppressed_ff),
        },
        "daily_totals": daily_totals,
        "od_origin_totals": origin_totals,
        "od_dest_totals": dest_totals,
        "noise": {
            "bound": 0.0,
            "scope": "iso_weekdays_1_to_5",
            "note": (
                "with thursday_weight=1.0 every active group contributes its size "
                "to every interval on every working weekday, so Mon-Fri daily "
                "totals are exactly equal, before and after suppression"
            ),
        },
        "totals": {
            "od_post_count": sum(r[5] for r in od_post),
            "od_post_records": len(od_post),
            "ff_post_count": sum(r[4] for r in ff_post),
            "ff_post_records": len(ff_post),
        },
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
    report = []

    expected = {
        (o, d, date, int(iv), ut): int(c)
        for o, d, date, iv, ut, c in ledger["od_records"]
        if c >= thr
    }
    seen = {}
    for r in od_store.iter_records():
        seen[(r.origin, r.destination, r.day.isoformat(), r.interval, r.user_type)] = r.count
    for key, c in sorted(expected.items()):
        if key not in seen:
            report.append(f"od record missing: {key} count {c}")
        elif seen[key] != c:
            report.append(f"od count mismatch at {key}: ledger {c}, store {seen[key]}")
    for key in sorted(seen):
        if key not in expected:
            report.append(f"od record unexpected: {key} count {seen[key]}")

    expected_ff = {
        (h, date, int(iv), ut): int(c)
        for h, date, iv, ut, c in ledger["ff_records"]
        if c >= thr
    }
    seen_ff = {}
    for r in ff_store.iter_records():
        seen_ff[(r.hex, r.day.isoformat(), r.interval, r.user_type)] = r.count
    for key, c in sorted(expected_ff.items()):
        if key not in seen_ff:
            report.append(f"footfall record missing: {key} count {c}")
        elif seen_ff[key] != c:
            report.append(f"footfall count mismatch at {key}: ledger {c}, store {seen_ff[key]}")
    for key in sorted(seen_ff):
        if key not in expected_ff:
            report.append(f"footfall record unexpected: {key} count {seen_ff[key]}")
    return report
