import csv
import gc
import hashlib
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hexmob.analytics import all_profiles
from hexmob.cli import main
from hexmob.homework import detect_home_work
from hexmob.ingest import _MAX_HEXES, FootfallStore, ODStore, load_footfall, load_od
from hexmob.model import FOOTFALL_USER_TYPES, OD_USER_TYPES
from hexmob.synth import (
    MAX_POPULATION, EmittedRecords, SynthConfig, SynthWorld, _effective_size, _grid_ring, _layout,
    _self_check, generate, ledger_json, make_boundaries, verify_ledger,
)
from hexmob.geo import _ring, load_boundaries
from oracles import per_date_rows, reference_generate, reference_verify_ledger, reference_write

SMALL = SynthConfig(seed=101, n_hexes=14, n_agents=150, month=(2025, 6),
                    suppression_threshold=1)


@pytest.fixture(scope="module")
def small_world():
    return generate(SMALL)


@pytest.fixture(scope="module")
def suppressed_world():
    return generate(replace(SMALL, suppression_threshold=22))


@pytest.fixture(scope="module")
def small_stores(small_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    paths = small_world.write(out)
    od = load_od(paths["od"])
    ff = load_footfall(paths["footfall"])
    worker_od = load_od(paths["od"], user_type_filter="worker")
    return small_world, od, ff, worker_od


class TestDeterminism:
    def test_same_config_same_world(self, small_world):
        again = generate(SMALL)
        assert again.od_records == small_world.od_records
        assert again.ff_records == small_world.ff_records
        assert again.ledger == small_world.ledger
        assert again.boundaries == small_world.boundaries

    def test_different_seed_different_world(self, small_world):
        other = generate(replace(SMALL, seed=102))
        assert set(other.boundaries) != set(small_world.boundaries)

    def test_write_is_byte_stable(self, small_world, tmp_path):
        a = small_world.write(tmp_path / "a")
        b = generate(SMALL).write(tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()


# sha256 of each written file, recorded from the csv.writer / json.dump
# writers these files were first produced with; any byte change fails here.
# The ledger digests were re-recorded when the ledger came to hold each
# weekday's rows once instead of once per date.
GOLDEN = {
    "june-unsuppressed": (
        SMALL,
        {
            "od": "00672e2b68fd5e8ad1008c8363fa43c3e212c8df9774e466d21efd0d17cbc593",
            "footfall": "fa168e44e55f108c2d9c1156bc2e2c7b5124cb6e193cee826544aa5a72859f7c",
            "ledger": "de5e080a29ea7f9de0302e4a52aa364cf9cc3c273e23d3ba9d6b486fa70d352e",
            "boundaries": "e7febe13d786bc5f6c35ac5f0dfd30b87f85cb1a3319cf65281df5cb56970ef1",
        },
    ),
    # default threshold 22 (suppressed records), Thursday scaling, and a
    # 29-day leap-year February
    "leap-february-suppressed": (
        replace(SMALL, month=(2024, 2), thursday_weight=1.5, suppression_threshold=22),
        {
            "od": "ad25c9d90796294430f5b52e5b455f490f06358622880de18dab197c6406a882",
            "footfall": "8057587140f70662699d7ba613ec1f2ea8e35e70a7a78e5a52a8d936d9112cd3",
            "ledger": "015f484c98a1aa84e8bf8909bc4776f6095463827d822f97692f42e80b4273db",
            "boundaries": "e7febe13d786bc5f6c35ac5f0dfd30b87f85cb1a3319cf65281df5cb56970ef1",
        },
    ),
}


def _cli_synth_args(config):
    return [
        "synth", "--seed", str(config.seed), "--hexes", str(config.n_hexes),
        "--agents", str(config.n_agents), "--year", str(config.month[0]),
        "--month", str(config.month[1]), "--thursday-weight", str(config.thursday_weight),
        "--weekend-fraction", str(config.weekend_worker_fraction),
        "--secondary-rate", str(config.secondary_activity_rate),
        "--suppression-threshold", str(config.suppression_threshold),
        "--resident-factor", str(config.resident_factor),
        "--transient-factor", str(config.transient_factor),
    ]


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_written_files_match_golden(self, name, tmp_path):
        config, digests = GOLDEN[name]
        world = generate(config)
        if config.suppression_threshold > 1:
            assert world.ledger["suppression"]["od_records_dropped"] > 0
            assert world.ledger["suppression"]["ff_records_dropped"] > 0
        paths = world.write(tmp_path)
        got = {key: hashlib.sha256(p.read_bytes()).hexdigest() for key, p in paths.items()}
        assert got == digests

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_cli_writes_the_same_bytes(self, name, tmp_path, capsys):
        config, _ = GOLDEN[name]
        paths = generate(config).write(tmp_path / "lib")
        assert main(_cli_synth_args(config) + ["--out", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        for key, p in paths.items():
            assert (tmp_path / "cli" / p.name).read_bytes() == p.read_bytes(), key


class TestWrittenFilesRoundTrip:
    """The writers format rows without a csv module; these checks show that
    no synthetic field needs quoting, so csv.reader reads back the records."""

    @pytest.fixture(scope="class", params=sorted(GOLDEN))
    def written(self, request, tmp_path_factory):
        world = generate(GOLDEN[request.param][0])
        return world, world.write(tmp_path_factory.mktemp("roundtrip"))

    @staticmethod
    def _read(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_od_rows(self, written):
        world, paths = written
        rows = self._read(paths["od"])
        assert rows[0] == ["origin_hex", "destination_hex", "date", "interval", "user_type", "count"]
        want = [[o, d, date.isoformat(), str(iv), ut, str(c)]
                for o, d, date, iv, ut, c in world.od_records]
        assert rows[1:] == want

    def test_footfall_rows(self, written):
        world, paths = written
        rows = self._read(paths["footfall"])
        assert rows[0] == ["hex", "date", "interval", "user_type", "count"]
        want = [[h, date.isoformat(), str(iv), ut, str(c)]
                for h, date, iv, ut, c in world.ff_records]
        assert rows[1:] == want

    def test_boundary_rows(self, written):
        world, paths = written
        rows = self._read(paths["boundaries"])
        assert rows[0] == ["hex", "ring"]
        assert rows[1:] == [[h, world.boundaries[h]] for h in sorted(world.boundaries)]

    def test_ledger(self, written):
        world, paths = written
        assert json.loads(paths["ledger"].read_text(encoding="utf-8")) == world.ledger

    def test_no_field_needs_quoting(self, written):
        world, _ = written
        fields = [str(v) for r in list(world.od_records) + list(world.ff_records) for v in r]
        fields += [v for item in world.boundaries.items() for v in item]
        assert fields
        assert not [f for f in fields if any(ch in f for ch in ',"\r\n')]


class TestSuppression:
    def test_floor_holds_in_both_files(self, suppressed_world):
        assert all(r[5] >= 22 for r in suppressed_world.od_records)
        assert all(r[4] >= 22 for r in suppressed_world.ff_records)

    def test_dropped_counts_reconcile(self, suppressed_world):
        led = suppressed_world.ledger
        sup = led["suppression"]
        assert sup["threshold"] == 22
        assert sup["od_records_dropped"] == len(per_date_rows(led, "od_records")) - len(
            suppressed_world.od_records
        )
        assert sup["ff_records_dropped"] == len(per_date_rows(led, "ff_records")) - len(
            suppressed_world.ff_records
        )

    def test_threshold_one_drops_nothing(self, small_world):
        led = small_world.ledger
        assert led["suppression"]["od_records_dropped"] == 0
        assert led["suppression"]["ff_records_dropped"] == 0
        assert len(per_date_rows(led, "od_records")) == len(small_world.od_records)


class TestFullDayRows:
    def test_od_full_day_at_least_sum_of_subday(self, small_world):
        subs: dict = {}
        fulls: dict = {}
        for o, d, date, iv, ut, c in per_date_rows(small_world.ledger, "od_records"):
            key = (o, d, date, ut)
            if iv == 9:
                fulls[key] = c
            else:
                subs[key] = subs.get(key, 0) + c
        assert set(subs) <= set(fulls)
        for key, s in subs.items():
            assert fulls[key] >= s

    def test_worker_full_day_is_exact_sum(self, small_world):
        # no early-morning extra for workers: their interval-9 row is the
        # plain sum of the eight windows
        subs: dict = {}
        fulls: dict = {}
        for o, d, date, iv, ut, c in per_date_rows(small_world.ledger, "od_records"):
            if ut != "worker":
                continue
            key = (o, d, date)
            if iv == 9:
                fulls[key] = c
            else:
                subs[key] = subs.get(key, 0) + c
        assert subs and subs == fulls

    def test_resident_home_gets_night_extra(self, small_world):
        led = small_world.ledger
        res_homes = {g["home"] for g in led["groups"] if g["kind"] == "resident"}
        assert res_homes
        bumped = 0
        subs: dict = {}
        fulls: dict = {}
        for o, d, date, iv, ut, c in per_date_rows(led, "od_records"):
            key = (o, d, date, ut)
            if iv == 9:
                fulls[key] = c
            else:
                subs[key] = subs.get(key, 0) + c
        for (o, d, date, ut), full in fulls.items():
            if o == d and o in res_homes and full > subs.get((o, d, date, ut), 0):
                bumped += 1
        assert bumped > 0

    def test_invariant_survives_suppression(self, suppressed_world):
        subs: dict = {}
        fulls: dict = {}
        for o, d, date, iv, ut, c in suppressed_world.od_records:
            key = (o, d, date, ut)
            if iv == 9:
                fulls[key] = c
            else:
                subs[key] = subs.get(key, 0) + c
        for key, s in subs.items():
            if key in fulls:
                assert fulls[key] >= s


class TestUserTypes:
    def test_od_types_partition(self, small_world):
        types = {r[4] for r in small_world.od_records}
        assert types <= set(OD_USER_TYPES)

    def test_footfall_types(self, small_world):
        types = {r[3] for r in small_world.ff_records}
        assert types <= set(FOOTFALL_USER_TYPES)

    def test_footfall_all_is_residents_plus_transients(self, small_world):
        by_type: dict = {}
        for h, date, iv, ut, c in per_date_rows(small_world.ledger, "ff_records"):
            by_type[(h, date, iv, ut)] = c
        all_keys = [k for k in by_type if k[3] == "all"]
        assert all_keys
        for h, date, iv, _ in all_keys:
            got = by_type[(h, date, iv, "all")]
            want = by_type.get((h, date, iv, "resident"), 0) + by_type.get(
                (h, date, iv, "transient"), 0
            )
            assert got == want


class TestPlantedTruth:
    def test_detection_recovers_exact_pairs(self, small_stores):
        world, _, _, worker_od = small_stores
        detected = detect_home_work(worker_od, min_days=1)
        want = {
            (p["home"], p["work"]): tuple(p["qualifying_days"])
            for p in world.ledger["pairs"]
        }
        got = {
            (p.home, p.work): tuple(d.isoformat() for d in p.qualifying_days)
            for p in detected
        }
        assert got == want

    def test_no_false_positives_at_default_threshold(self, small_stores):
        world, _, _, worker_od = small_stores
        detected = detect_home_work(worker_od, min_days=10)
        planted = {(p["home"], p["work"]) for p in world.ledger["pairs"]}
        assert {(p.home, p.work) for p in detected} <= planted

    def test_zone_partition(self, small_world):
        zones = small_world.ledger["hex_zones"]
        res, wrk, amen = zones["residential"], zones["work"], zones["amenity"]
        combined = res + wrk + amen
        assert len(combined) == SMALL.n_hexes == len(set(combined))
        assert len(res) >= len(wrk) >= 1 and len(amen) >= 1

    def test_group_sizes_sum_to_population(self, small_world):
        groups = small_world.ledger["groups"]
        workers = sum(g["size"] for g in groups if g["kind"] == "worker")
        assert workers == SMALL.n_agents

    def test_chain_matches_schedule(self, small_world):
        g = next(g for g in small_world.ledger["groups"] if g["name"] == "main")
        sched = g["schedule"]
        for regime, items in g["chain_by_regime"].items():
            for o, d, iv in items:
                assert sched[str(iv)] == [o, d]
        listed = sorted(iv for items in g["chain_by_regime"].values() for _, _, iv in items)
        assert listed == list(range(1, 9))


class TestGroupsAreLedgerEntries:
    """Each group is built once, as the ledger entry it is written as."""

    @pytest.mark.parametrize("config", [
        SMALL, replace(SMALL, thursday_weight=1.5, secondary_activity_rate=1.0),
    ])
    def test_layout_builds_the_ledger_groups(self, config):
        assert _layout(config)[2] == generate(config).ledger["groups"]

    def test_thursday_scaling_follows_the_reported_field(self, small_world):
        for g in small_world.ledger["groups"]:
            for scaled in (True, False):
                entry = {**g, "thursday_scaled": scaled}
                assert (_effective_size(entry, 4, 1.5) > g["size"]) == scaled
                assert _effective_size(entry, 3, 1.5) == g["size"]


def _mixed_edit(rs, kind):
    """Every seventh record gone, every fifth recounted and three records on
    unknown hexes."""
    kept = [replace(r, count=r.count + 1) if i % 5 == 2 else r
            for i, r in enumerate(rs) if i % 7 != 3]
    ghosts = [
        replace(rs[i], **({"origin": f"{'f' * 14}{n}", "destination": f"{'e' * 14}{n}"}
                          if kind == "od" else {"hex": f"{'f' * 14}{n}"}))
        for n, i in enumerate((0, len(rs) // 2, len(rs) - 1))
    ]
    return kept + ghosts


#: name -> edit(records, kind) rewriting one kind's loaded records
RECORD_EDITS = {
    "none": lambda rs, kind: rs,
    "recount the first": lambda rs, kind: [replace(rs[0], count=rs[0].count + 1)] + rs[1:],
    "drop the first": lambda rs, kind: rs[1:],
    "add a ghost": lambda rs, kind: rs + [replace(rs[0], **(
        {"origin": "f" * 15, "destination": "e" * 15} if kind == "od" else {"hex": "f" * 15}))],
    "mixed": _mixed_edit,
}


class TestLedgerVerification:
    def test_clean_world_verifies(self, small_stores):
        world, od, ff, _ = small_stores
        assert verify_ledger(world.ledger, od, ff) == []

    def test_suppressed_world_verifies(self, suppressed_world, tmp_path):
        paths = suppressed_world.write(tmp_path)
        od = load_od(paths["od"])
        ff = load_footfall(paths["footfall"])
        assert verify_ledger(suppressed_world.ledger, od, ff) == []

    @pytest.fixture(params=[1, 22], ids=lambda thr: f"thr{thr}")
    def stores(self, request, tmp_path_factory):
        """(world, od store, footfall store) loaded from the written world at
        suppression threshold 1 or 22."""
        if request.param == 1:
            return request.getfixturevalue("small_stores")[:3]
        world = request.getfixturevalue("suppressed_world")
        paths = world.write(tmp_path_factory.mktemp("suppressed"))
        return world, load_od(paths["od"]), load_footfall(paths["footfall"])

    @staticmethod
    def _edited(stores, kind, edit):
        """The ledger and both stores once edit has rewritten one kind's records."""
        world, od, ff = stores
        records = RECORD_EDITS[edit](list((od if kind == "od" else ff).iter_records()), kind)
        if kind == "od":
            od = ODStore.from_records(records)
        else:
            ff = FootfallStore.from_records(records)
        return world.ledger, od, ff

    def _report(self, stores, kind, edit):
        """verify_ledger's lines once edit has rewritten one kind's records."""
        return verify_ledger(*self._edited(stores, kind, edit))

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_mutated_count_flagged_once(self, stores, kind):
        report = self._report(stores, kind, "recount the first")
        assert len(report) == 1
        assert report[0].startswith(f"{kind} count mismatch at ")

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_missing_row_flagged_once(self, stores, kind):
        report = self._report(stores, kind, "drop the first")
        assert len(report) == 1
        assert report[0].startswith(f"{kind} record missing: ")

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_extra_row_flagged(self, stores, kind):
        report = self._report(stores, kind, "add a ghost")
        assert len(report) == 1
        assert report[0].startswith(f"{kind} record unexpected: ")

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_lines_equal_per_date_oracle(self, stores, kind):
        """The lines and their order are those of the diff over one ledger
        copy per date."""
        edited = self._edited(stores, kind, "mixed")
        report = verify_ledger(*edited)
        for what in ("record missing: ", "count mismatch at ", "record unexpected: "):
            assert sum(line.startswith(f"{kind} {what}") for line in report) >= 3
        assert report == reference_verify_ledger(*edited)

    @pytest.mark.parametrize("edit", sorted(RECORD_EDITS))
    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_views_and_loaded_lists_report_alike(self, stores, kind, edit, tmp_path):
        """The in-memory ledger's rows are WeekdayRows views; json.loads of
        the written ledger.json gives lists. verify_ledger reads both alike."""
        ledger, od, ff = self._edited(stores, kind, edit)
        loaded = json.loads(stores[0].write(tmp_path)["ledger"].read_text(encoding="utf-8"))
        assert isinstance(loaded["od_records"]["1"], list)
        report = verify_ledger(ledger, od, ff)
        assert (report == []) == (edit == "none")
        assert verify_ledger(loaded, od, ff) == report


class TestWeekdayBalance:
    def test_uniform_weights_equal_workweek_totals(self, small_world):
        led = small_world.ledger
        assert led["noise"]["bound"] == 0.0
        by_wd: dict = {}
        import datetime as dt

        for iso, total in led["daily_totals"].items():
            wd = dt.date.fromisoformat(iso).isoweekday()
            by_wd.setdefault(wd, []).append(total)
        workweek_totals = {t for wd in range(1, 6) for t in by_wd[wd]}
        assert len(workweek_totals) == 1

    def test_thursday_weight_makes_thursday_busiest(self):
        world = generate(replace(SMALL, thursday_weight=1.3))
        import datetime as dt

        by_wd: dict = {}
        for iso, total in world.ledger["daily_totals"].items():
            wd = dt.date.fromisoformat(iso).isoweekday()
            by_wd.setdefault(wd, []).append(total)
        thursday_min = min(by_wd[4])
        for wd in (1, 2, 3, 5, 6, 7):
            assert thursday_min > max(by_wd[wd])

    def test_daily_totals_match_store(self, small_stores):
        world, od, _, _ = small_stores
        got: dict = {}
        for r in od.iter_records():
            if r.interval != 9:
                got[r.day.isoformat()] = got.get(r.day.isoformat(), 0) + r.count
        want = {k: v for k, v in world.ledger["daily_totals"].items() if v}
        assert got == want

    def test_origin_totals_match_profiles(self, small_stores):
        world, od, _, _ = small_stores
        profiles = all_profiles(od, "origin")
        for h, counts in world.ledger["od_origin_totals"].items():
            assert list(profiles[h].counts) == counts
        assert set(profiles) == set(world.ledger["od_origin_totals"])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"n_hexes": 9},
            {"n_agents": 0},
            {"month": (2025, 13)},
            {"thursday_weight": -0.5},
            {"weekend_worker_fraction": 1.5},
            {"secondary_activity_rate": -0.1},
            {"suppression_threshold": 0},
            {"resident_factor": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate(replace(SMALL, **kwargs))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", [
        "thursday_weight", "resident_factor", "transient_factor",
        "weekend_worker_fraction", "secondary_activity_rate",
    ])
    def test_non_finite_rate_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            generate(replace(SMALL, **{field: value}))

    @pytest.mark.parametrize("kwargs, population", [
        ({"resident_factor": 1e300}, "1.5e+302"),
        ({"n_agents": 10**400}, "inf"),
        ({"n_agents": 5_000_000, "resident_factor": 1.0}, "1.1e+07"),
        ({"thursday_weight": 1e17}, "1.5e+19"),
    ])
    def test_population_past_the_limit_rejected(self, kwargs, population):
        config = replace(SMALL, **kwargs)
        message = rf"^population of n_agents=.* is {re.escape(population)}, above the limit of 10000000$"
        with pytest.raises(ValueError, match=message):
            config.validate()

    def test_population_at_the_limit_accepted(self):
        replace(SMALL, n_agents=MAX_POPULATION // 4, resident_factor=2.0, transient_factor=1.0).validate()

    @pytest.mark.parametrize("n_hexes", [2**21 + 1, 10**9])
    def test_hexes_past_the_load_limit_rejected(self, n_hexes):
        # only validated: a world this large is never generated here
        config = SynthConfig(seed=1, n_hexes=n_hexes, n_agents=1, month=(2025, 6))
        with pytest.raises(ValueError, match=r"^n_hexes must be 10\.\.2097152$"):
            config.validate()

    def test_hexes_at_the_load_limit_accepted(self):
        SynthConfig(seed=1, n_hexes=2**21, n_agents=1, month=(2025, 6)).validate()


def assert_ledger_reads_and_writes_as(got: dict, want: dict) -> None:
    """A generated ledger, whose rows are WeekdayRows views, writes the text
    json.dumps writes for the oracle's, whose rows are lists, and each
    weekday's view reads as, and equals, the oracle's rows."""
    assert got == want
    assert ledger_json(got) == json.dumps(want, sort_keys=True, separators=(",", ":"))
    for key in ("od_records", "ff_records"):
        for wd, rows in want[key].items():
            # repr also tells a numpy integer from a Python int
            assert repr(list(got[key][wd])) == repr(rows), (key, wd)


class TestAgainstLoopOracle:
    """generate sums packed keys per weekday; the oracle fills one dict
    entry per (day, group, interval) and walks the sorted records."""

    @staticmethod
    def assert_same(config):
        got, want = generate(config), reference_generate(config)
        # repr also tells a numpy integer from a Python int
        assert repr(list(got.od_records)) == repr(want.od_records)
        assert repr(list(got.ff_records)) == repr(want.ff_records)
        assert_ledger_reads_and_writes_as(got.ledger, want.ledger)
        assert got.boundaries == want.boundaries
        return got

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(config=replace(SMALL, month=(2024, 2), thursday_weight=1.5, suppression_threshold=22))
    @example(config=replace(SMALL, suppression_threshold=2**80))
    @given(config=st.builds(
        SynthConfig,
        seed=st.integers(0, 2**64 - 1),
        n_hexes=st.integers(10, 40),
        n_agents=st.integers(1, 600),
        month=st.tuples(st.sampled_from([2023, 2024, 2025]), st.integers(1, 12)),
        thursday_weight=st.sampled_from([0.0, 1.0, 1.5]),
        weekend_worker_fraction=st.sampled_from([0.0, 0.15, 1.0]),
        secondary_activity_rate=st.sampled_from([0.0, 0.3, 1.0]),
        suppression_threshold=st.one_of(st.integers(1, 3000), st.just(2**80)),
        resident_factor=st.sampled_from([0.0, 0.5, 1.0]),
        transient_factor=st.sampled_from([0.0, 0.2]),
    ))
    def test_equals_loop_oracle(self, config):
        self.assert_same(config)


class TestEmittedRecordsView:
    """od_records and ff_records are views over each weekday's kept rows;
    they read as the oracle's per-date lists do, and write their bytes."""

    @pytest.fixture(scope="class", params=[
        (month, thr)
        # 28, 29, 30 and 31 days; at 2**80 every row is suppressed
        for month in ((2025, 2), (2024, 2), (2025, 6), (2025, 7))
        for thr in (1, 22, 2**80)
    ], ids=str)
    def pair(self, request):
        month, thr = request.param
        config = replace(SMALL, month=month, suppression_threshold=thr)
        return generate(config), reference_generate(config)

    @pytest.mark.parametrize("key", ["od_records", "ff_records"])
    def test_reads_as_the_oracle_list(self, pair, key):
        got, want = (getattr(w, key) for w in pair)
        if pair[0].config.suppression_threshold == 2**80:
            assert want == []
        assert len(got) == len(want)
        assert list(got) == want
        assert got == want and want == got and not got != want
        assert got != want + [want[0] if want else ()]
        if want:
            assert all(type(v) is int for v in list(got)[-1][-3::2])

    def test_ledger_reads_and_writes_as_the_oracle(self, pair):
        got, want = pair
        assert_ledger_reads_and_writes_as(got.ledger, want.ledger)
        with pytest.raises(TypeError, match="WeekdayRows is not JSON serializable"):
            json.dumps(got.ledger)

    @pytest.mark.parametrize("edit", ["drop a row", "recount a row"])
    def test_self_check_catches_records_off_the_ledger(self, small_world, edit):
        cols = [[list(c) for c in weekday] for weekday in small_world.od_records.columns]
        if edit == "drop a row":
            for c in cols[2]:
                del c[0]
        else:
            cols[2][-1][0] += 1
        off = EmittedRecords(cols, small_world.od_records.dates)
        with pytest.raises(AssertionError, match="^ledger OD totals disagree with emitted records$"):
            _self_check(small_world.ledger, off, small_world.ff_records)
        _self_check(small_world.ledger, small_world.od_records, small_world.ff_records)

    def test_writes_the_oracle_bytes(self, pair, tmp_path):
        got = pair[0].write(tmp_path / "view")
        want = reference_write(pair[1], tmp_path / "oracle")
        for key, path in got.items():
            assert path.read_bytes() == want[key].read_bytes(), key


def _tracked_under(obj) -> int:
    """How many gc-tracked objects gc.get_referents reaches from obj; types
    are not followed."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) not in seen and gc.is_tracked(o) and not isinstance(o, type):
            seen.add(id(o))
            todo.extend(gc.get_referents(o))
    return len(seen)


class TestLedgerRowsAreViews:
    """The ledger's od_records and ff_records map each ISO weekday to a
    WeekdayRows view over columns, not to one list per row."""

    def test_no_container_per_row(self, small_world):
        big = generate(replace(SMALL, n_hexes=4 * SMALL.n_hexes, n_agents=4 * SMALL.n_agents))
        for key in ("od_records", "ff_records"):
            assert len(per_date_rows(big.ledger, key)) > 3 * len(per_date_rows(small_world.ledger, key))

        def tracked(world):
            # weekdays with equal counts may share a view: walk each on its own
            return [_tracked_under(rows) for key in ("od_records", "ff_records")
                    for rows in world.ledger[key].values()]

        assert tracked(big) == tracked(small_world)

    @pytest.mark.parametrize("key", ["od_records", "ff_records"])
    def test_reads_as_a_list(self, small_world, key):
        for rows in small_world.ledger[key].values():
            want = list(rows)
            assert want and all(type(row) is list for row in want)
            assert len(rows) == len(want)
            assert rows == want and want == rows and not rows != want
            assert rows != want[:-1] and rows != tuple(want)


class TestBoundaries:
    def test_one_ring_per_hex(self, small_world):
        hexes = {h for zone in small_world.ledger["hex_zones"].values() for h in zone}
        assert set(small_world.boundaries) == hexes

    def test_written_file_loads(self, small_world, tmp_path):
        paths = small_world.write(tmp_path)
        rings = load_boundaries(paths["boundaries"])
        assert set(rings) == set(small_world.boundaries)
        for pts in rings.values():
            assert len(pts) == 6

    def test_grid_past_the_pole_goes_on_east(self, tmp_path):
        ids = [f"{i:015x}" for i in range(80_000)]
        path = tmp_path / "boundaries.csv"
        path.write_text("hex,ring\n" + "".join(f"{h},{ring}\n" for h, ring in make_boundaries(ids).items()))
        rings = load_boundaries(path)
        assert len(rings) == 80_000
        # 40 columns by 1,940 rows fill the first strip up to the pole; the
        # next strip starts at the first's southern edge, east of its column 40
        first, last, next_strip = rings[ids[0]], rings[ids[77_599]], rings[ids[77_600]]
        assert max(lat for _, lat in last) < 90 < max(lat for _, lat in last) + 0.02
        assert sorted(lat for _, lat in next_strip) == sorted(lat for _, lat in first)
        assert min(lon for lon, _ in next_strip) > max(lon for lon, _ in rings[ids[39]])
        assert len(_ring(_grid_ring(_MAX_HEXES - 1))) == 6
