import io
import random

import pytest

from hexmob.analytics import (
    all_profiles,
    day_difference,
    day_of_week_totals,
    fmt_float,
    temporal_profile,
    top_k,
    write_diff_csv,
    write_dow_csv,
    write_profile_csv,
    write_topk_csv,
)
from hexmob.ingest import ODStore

from conftest import H1, H2, H3, H4, day, random_records, store_of


class TestTemporalProfile:
    def test_single_record_origin(self):
        store = store_of([(H1, H2, 3, 3, "worker", 7)])
        assert temporal_profile(store, H1, "origin").counts == (0, 0, 7, 0, 0, 0, 0, 0)
        assert temporal_profile(store, H1, "destination").counts == (0,) * 8

    def test_absent_hex_zero_profile(self):
        store = store_of([(H1, H2, 3, 3)])
        assert temporal_profile(store, H4, "origin").counts == (0,) * 8

    def test_full_day_rows_excluded(self):
        store = store_of([(H1, H2, 3, 1, "worker", 5), (H1, H2, 3, 9, "worker", 50)])
        assert temporal_profile(store, H1, "origin").counts == (5, 0, 0, 0, 0, 0, 0, 0)

    def test_sums_over_days_and_types(self):
        store = store_of([(H1, H2, 3, 1, "worker", 5), (H1, H2, 4, 1, "all", 6),
                          (H1, H3, 5, 1, "worker", 2)])
        assert temporal_profile(store, H1, "origin").counts[0] == 13

    def test_station_shape(self):
        # arrivals pile up in the morning at a work hub, departures do not
        rows = [(H1, H2, dom, 1, "worker", 500) for dom in range(2, 7)]
        rows += [(H2, H1, dom, 1, "worker", 20) for dom in range(2, 7)]
        store = store_of(rows)
        dest = temporal_profile(store, H2, "destination").counts
        orig = temporal_profile(store, H2, "origin").counts
        assert dest[0] > orig[0]
        assert dest[0] == 2500

    def test_bad_role(self):
        store = store_of([(H1, H2, 3, 1)])
        with pytest.raises(ValueError):
            temporal_profile(store, H1, "both")


class TestConservation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_origin_and_destination_totals_equal(self, seed):
        records = random_records(random.Random(seed), n_hexes=10, flows_per_day=25)
        store = ODStore.from_records(records)
        subday_total = sum(r.count for r in records if r.interval != 9)
        for role in ("origin", "destination"):
            profiles = all_profiles(store, role)
            assert sum(sum(p.counts) for p in profiles.values()) == subday_total

    @pytest.mark.parametrize("role", ["origin", "destination"])
    def test_all_profiles_matches_single(self, role):
        records = random_records(random.Random(4), n_hexes=6, flows_per_day=20)
        store = ODStore.from_records(records)
        profiles = all_profiles(store, role)
        for h, prof in profiles.items():
            assert temporal_profile(store, h, role) == prof


class TestDayOfWeek:
    def test_single_tuesday_record(self):
        store = store_of([(H1, H2, 3, 5, "worker", 42)])  # 2025-06-03 is a Tuesday
        dist = day_of_week_totals(store)
        assert [t for _, t in dist.totals[2]] == [42, 0, 0, 0]
        for wd in (1, 3, 4, 5, 6, 7):
            assert all(t == 0 for _, t in dist.totals[wd])

    def test_list_lengths_are_calendar_multiplicities(self):
        store = store_of([(H1, H2, 3, 1)])
        dist = day_of_week_totals(store)
        lengths = {wd: len(v) for wd, v in dist.totals.items()}
        assert lengths == {1: 5, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4, 7: 5}

    def test_role_independent(self):
        records = random_records(random.Random(5), n_hexes=8)
        store = ODStore.from_records(records)
        a = day_of_week_totals(store, "origin")
        b = day_of_week_totals(store, "destination")
        assert a.totals == b.totals

    def test_full_day_rows_excluded(self):
        store = store_of([(H1, H2, 3, 1, "worker", 5), (H1, H2, 3, 9, "worker", 50)])
        dist = day_of_week_totals(store)
        assert [t for _, t in dist.totals[2]] == [5, 0, 0, 0]


class TestDayDifference:
    def test_identical_counts_zero(self):
        # same flow every Tuesday and Thursday; means cancel exactly
        rows = [(H1, H2, dom, 1, "worker", 8) for dom in (3, 10, 17, 24, 5, 12, 19, 26)]
        store = store_of(rows)
        layer = day_difference(store, 2, 4)
        assert layer.values == {H2: 0.0}

    def test_mean_uses_calendar_multiplicity(self):
        # 40 on one Monday (of five), 10 on one Tuesday (of four)
        store = store_of([(H1, H2, 2, 1, "worker", 40), (H1, H2, 3, 1, "worker", 10)])
        layer = day_difference(store, 1, 2)
        assert layer.values[H2] == pytest.approx(40 / 5 - 10 / 4)

    def test_antisymmetry_exact(self):
        for seed in range(5):
            records = random_records(random.Random(30 + seed), n_hexes=8, flows_per_day=30)
            store = ODStore.from_records(records)
            ab = day_difference(store, 4, 7)
            ba = day_difference(store, 7, 4)
            assert set(ab.values) == set(ba.values)
            for h, v in ab.values.items():
                assert v == -ba.values[h]

    def test_hexes_absent_both_days_omitted(self):
        store = store_of([(H1, H2, 3, 1), (H3, H4, 6, 1)])  # Tue and Fri records
        layer = day_difference(store, 2, 5)
        assert set(layer.values) == {H2, H4}

    def test_role_parameter(self):
        store = store_of([(H1, H2, 3, 1, "worker", 12)])
        dest = day_difference(store, 2, 3)
        orig = day_difference(store, 2, 3, role="origin")
        assert set(dest.values) == {H2}
        assert set(orig.values) == {H1}

    def test_same_day_error(self):
        store = store_of([(H1, H2, 3, 1)])
        with pytest.raises(ValueError):
            day_difference(store, 4, 4)

    def test_weekday_domain(self):
        store = store_of([(H1, H2, 3, 1)])
        with pytest.raises(ValueError):
            day_difference(store, 0, 4)


class TestTopK:
    def test_ranking_and_ties(self):
        rows = [(H1, H3, 2, 1, "worker", 10), (H2, H3, 2, 2, "worker", 5),
                (H1, H4, 3, 1, "worker", 5), (H2, H2, 4, 1, "worker", 3)]
        store = store_of(rows)
        ranked = top_k(store, "destination", 10)
        assert ranked == [(H3, 15), (H4, 5), (H2, 3)]

    def test_tie_goes_to_smaller_hex(self):
        rows = [(H1, H3, 2, 1, "worker", 7), (H2, H4, 2, 1, "worker", 7)]
        store = store_of(rows)
        ranked = top_k(store, "destination", 2)
        assert ranked == [(H3, 7), (H4, 7)]

    def test_prefix_property(self):
        records = random_records(random.Random(12), n_hexes=9)
        store = ODStore.from_records(records)
        for k in range(1, 8):
            assert top_k(store, "origin", k) == top_k(store, "origin", k + 1)[:k]

    def test_k_larger_than_hex_count(self):
        store = store_of([(H1, H2, 3, 1, "worker", 4)])
        assert top_k(store, "origin", 99) == [(H1, 4)]

    def test_k_domain(self):
        store = store_of([(H1, H2, 3, 1)])
        with pytest.raises(ValueError):
            top_k(store, "origin", 0)


class TestCSVWriters:
    def test_profile_csv(self):
        store = store_of([(H1, H2, 3, 3, "worker", 7)])
        out = io.StringIO()
        write_profile_csv(temporal_profile(store, H1, "origin"), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "hex,interval,count"
        assert lines[3] == f"{H1},3,7"
        assert len(lines) == 9

    def test_dow_csv_ordered(self):
        store = store_of([(H1, H2, 3, 1, "worker", 9)])
        out = io.StringIO()
        write_dow_csv(day_of_week_totals(store), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "weekday,date,total"
        assert lines[1] == "1,2025-06-02,0"
        assert "2,2025-06-03,9" in lines
        assert len(lines) == 31

    def test_diff_csv_no_negative_zero(self):
        store = store_of([(H1, H2, 3, 1, "worker", 8), (H1, H2, 5, 1, "worker", 8)])
        out = io.StringIO()
        write_diff_csv(day_difference(store, 2, 4), out)
        body = out.getvalue()
        assert "-0.0" not in body
        assert body.splitlines()[1] == f"{H2},0.0"

    def test_topk_csv(self):
        store = store_of([(H1, H3, 2, 1, "worker", 10), (H2, H4, 2, 1, "worker", 4)])
        out = io.StringIO()
        write_topk_csv(top_k(store, "destination", 2), out)
        lines = out.getvalue().splitlines()
        assert lines == ["rank,hex,total", f"1,{H3},10", f"2,{H4},4"]

    def test_fmt_float(self):
        assert fmt_float(-0.0) == "0.0"
        assert fmt_float(1.25) == "1.25"
        assert fmt_float(-3.5) == "-3.5"


class TestExactSums:
    """Sums that pass int64 stay exact instead of wrapping."""

    BIG = 6_000_000_000_000_000_000  # two of these pass 2**63 - 1

    def store(self):
        # two Monday (2025-06-02) flows into H2
        return store_of([(H1, H2, 2, 1, "all", self.BIG), (H1, H2, 2, 2, "all", self.BIG)])

    def test_top_k(self):
        assert top_k(self.store(), "destination", 1) == [(H2, 2 * self.BIG)]

    def test_day_of_week_totals(self):
        totals = day_of_week_totals(self.store()).totals
        assert totals[1][0] == (day(2), 2 * self.BIG)
        assert sum(t for days in totals.values() for _, t in days) == 2 * self.BIG

    def test_day_difference(self):
        values = day_difference(self.store(), 1, 2).values
        assert values == {H2: float(2 * self.BIG) / 5}  # June 2025 has five Mondays

    def test_all_profiles(self):
        store = store_of([(H1, H2, 2, 1, "all", self.BIG), (H3, H2, 2, 1, "all", self.BIG)])
        assert all_profiles(store, "destination")[H2].counts == (2 * self.BIG, 0, 0, 0, 0, 0, 0, 0)

    def test_temporal_profile(self):
        store = store_of([(H1, H2, 2, 1, "all", self.BIG), (H3, H2, 2, 1, "all", self.BIG)])
        assert temporal_profile(store, H2, "destination").counts == (2 * self.BIG, 0, 0, 0, 0, 0, 0, 0)
