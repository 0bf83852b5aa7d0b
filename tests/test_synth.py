import csv
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
from hexmob.ingest import FootfallStore, ODStore, load_footfall, load_od
from hexmob.model import FOOTFALL_USER_TYPES, OD_USER_TYPES
from hexmob.synth import MAX_POPULATION, SynthConfig, SynthWorld, generate, verify_ledger
from hexmob.geo import load_boundaries
from oracles import reference_generate

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
# writers these files were first produced with; any byte change fails here
GOLDEN = {
    "june-unsuppressed": (
        SMALL,
        {
            "od": "00672e2b68fd5e8ad1008c8363fa43c3e212c8df9774e466d21efd0d17cbc593",
            "footfall": "fa168e44e55f108c2d9c1156bc2e2c7b5124cb6e193cee826544aa5a72859f7c",
            "ledger": "4c972cea9bd426cd04755f15f0ef1271a4115591d6d01891621813a44e8095b1",
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
            "ledger": "92dcc05de1ac3f37eac5edf4bbcd16d1c90b9ac8b2a6af47db2289258fd525e4",
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
        fields = [str(v) for r in world.od_records + world.ff_records for v in r]
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
        assert sup["od_records_dropped"] == len(led["od_records"]) - len(
            suppressed_world.od_records
        )
        assert sup["ff_records_dropped"] == len(led["ff_records"]) - len(
            suppressed_world.ff_records
        )

    def test_threshold_one_drops_nothing(self, small_world):
        led = small_world.ledger
        assert led["suppression"]["od_records_dropped"] == 0
        assert led["suppression"]["ff_records_dropped"] == 0
        assert len(led["od_records"]) == len(small_world.od_records)


class TestFullDayRows:
    def test_od_full_day_at_least_sum_of_subday(self, small_world):
        subs: dict = {}
        fulls: dict = {}
        for o, d, date, iv, ut, c in small_world.ledger["od_records"]:
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
        for o, d, date, iv, ut, c in small_world.ledger["od_records"]:
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
        for o, d, date, iv, ut, c in led["od_records"]:
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
        for h, date, iv, ut, c in small_world.ledger["ff_records"]:
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


class TestLedgerVerification:
    def test_clean_world_verifies(self, small_stores):
        world, od, ff, _ = small_stores
        assert verify_ledger(world.ledger, od, ff) == []

    def test_suppressed_world_verifies(self, suppressed_world, tmp_path):
        paths = suppressed_world.write(tmp_path)
        od = load_od(paths["od"])
        ff = load_footfall(paths["footfall"])
        assert verify_ledger(suppressed_world.ledger, od, ff) == []

    @staticmethod
    def _report(small_stores, kind, edit):
        """verify_ledger's lines once edit has rewritten one kind's records."""
        world, od, ff, _ = small_stores
        records = edit(list((od if kind == "od" else ff).iter_records()))
        if kind == "od":
            od = ODStore.from_records(records)
        else:
            ff = FootfallStore.from_records(records)
        return verify_ledger(world.ledger, od, ff)

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_mutated_count_flagged_once(self, small_stores, kind):
        report = self._report(small_stores, kind, lambda rs: [replace(rs[0], count=rs[0].count + 1)] + rs[1:])
        assert len(report) == 1
        assert report[0].startswith(f"{kind} count mismatch at ")

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_missing_row_flagged_once(self, small_stores, kind):
        report = self._report(small_stores, kind, lambda rs: rs[1:])
        assert len(report) == 1
        assert report[0].startswith(f"{kind} record missing: ")

    @pytest.mark.parametrize("kind", ["od", "footfall"])
    def test_extra_row_flagged(self, small_stores, kind):
        ghost_hexes = {"origin": "f" * 15, "destination": "e" * 15} if kind == "od" else {"hex": "f" * 15}
        report = self._report(small_stores, kind, lambda rs: rs + [replace(rs[0], **ghost_hexes)])
        assert len(report) == 1
        assert report[0].startswith(f"{kind} record unexpected: ")


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
    ])
    def test_population_past_the_limit_rejected(self, kwargs, population):
        config = replace(SMALL, **kwargs)
        message = rf"^population of n_agents=.* is {re.escape(population)}, above the limit of 10000000$"
        with pytest.raises(ValueError, match=message):
            config.validate()

    def test_population_at_the_limit_accepted(self):
        replace(SMALL, n_agents=MAX_POPULATION // 4, resident_factor=2.0, transient_factor=1.0).validate()


class TestAgainstLoopOracle:
    """generate sums packed keys per weekday; the oracle fills one dict
    entry per (day, group, interval) and walks the sorted records."""

    @staticmethod
    def assert_same(config):
        got, want = generate(config), reference_generate(config)
        # repr also tells a numpy integer from a Python int
        assert repr(got.od_records) == repr(want.od_records)
        assert repr(got.ff_records) == repr(want.ff_records)
        assert got.ledger == want.ledger
        assert json.dumps(got.ledger, sort_keys=True) == json.dumps(want.ledger, sort_keys=True)
        assert got.boundaries == want.boundaries
        return got

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(config=replace(SMALL, month=(2024, 2), thursday_weight=1.5, suppression_threshold=22))
    @example(config=replace(SMALL, thursday_weight=1e17, suppression_threshold=2**80))
    @given(config=st.builds(
        SynthConfig,
        seed=st.integers(0, 2**64 - 1),
        n_hexes=st.integers(10, 40),
        n_agents=st.integers(1, 600),
        month=st.tuples(st.sampled_from([2023, 2024, 2025]), st.integers(1, 12)),
        thursday_weight=st.sampled_from([0.0, 1.0, 1.5, 1e17]),
        weekend_worker_fraction=st.sampled_from([0.0, 0.15, 1.0]),
        secondary_activity_rate=st.sampled_from([0.0, 0.3, 1.0]),
        suppression_threshold=st.one_of(st.integers(1, 3000), st.just(2**80)),
        resident_factor=st.sampled_from([0.0, 0.5, 1.0]),
        transient_factor=st.sampled_from([0.0, 0.2]),
    ))
    def test_equals_loop_oracle(self, config):
        self.assert_same(config)

    def test_sums_past_int64_stay_exact(self):
        world = self.assert_same(replace(SMALL, thursday_weight=1e17))
        assert max(r[5] for r in world.od_records) > 2**63
        assert all(type(r[5]) is int for r in world.od_records)


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
