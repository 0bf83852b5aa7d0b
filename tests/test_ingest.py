import datetime as dt
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmob import synth
from hexmob.cli import main
from hexmob.ingest import (
    EmptySelectionError,
    FootfallStore,
    IngestError,
    ODStore,
    descriptive_stats,
    load_footfall,
    load_od,
    monthly_od_aggregate,
)
from hexmob.model import FOOTFALL_USER_TYPES, FootfallRecord

from conftest import H1, H2, H3, day, rec, store_of, write_ff_csv, write_od_csv
from oracles import naive_mean_daily_count, naive_monthly_aggregate, two_pass_stats

OD_HEADER = "origin_hex,destination_hex,date,interval,user_type,count"


def od_file(tmp_path, lines, header=OD_HEADER):
    p = tmp_path / "od.csv"
    p.write_text("\n".join([header] + lines) + "\n")
    return p


class TestLoadOD:
    def test_five_row_fixture(self, tmp_path):
        records = [rec(H1, H2, 3, 1), rec(H2, H1, 3, 6), rec(H1, H1, 4, 9),
                   rec(H1, H2, 4, 1, "all", 50), rec(H2, H2, 5, 3)]
        write_od_csv(tmp_path / "od.csv", records)
        store = load_od(tmp_path / "od.csv")
        assert len(store) == 5
        assert sorted(store.user_types_present()) == ["all", "worker"]
        got = sorted((r.origin, r.destination, r.day, r.interval, r.user_type, r.count)
                     for r in store.iter_records())
        want = sorted((r.origin, r.destination, r.day, r.interval, r.user_type, r.count)
                      for r in records)
        assert got == want

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            load_od(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = od_file(tmp_path, [], header="origin,destination,date,interval,user_type,count")
        with pytest.raises(IngestError, match="line 1.*bad header"):
            load_od(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_text("")
        with pytest.raises(IngestError, match="expected header"):
            load_od(p)

    def test_malformed_hex(self, tmp_path):
        p = od_file(tmp_path, [f"XYZ,{H2},2025-06-01,1,worker,30"])
        with pytest.raises(IngestError, match="line 2.*malformed hex id"):
            load_od(p)

    def test_bad_date(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-13-01,1,worker,30"])
        with pytest.raises(IngestError, match="line 2.*bad date"):
            load_od(p)

    def test_unknown_interval(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,10,worker,30"])
        with pytest.raises(IngestError, match="line 2.*unknown interval"):
            load_od(p)

    def test_bad_user_type(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,resident,30"])
        with pytest.raises(IngestError, match="line 2.*unknown user type"):
            load_od(p)

    def test_zero_count_rejected(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,worker,0"])
        with pytest.raises(IngestError, match="line 2.*count"):
            load_od(p)

    def test_count_past_int64_names_line(self, tmp_path):
        top = f"{H1},{H2},2025-06-01,1,worker,{2**63 - 1}"
        assert load_od(od_file(tmp_path, [top])).count.tolist() == [2**63 - 1]
        p = od_file(tmp_path, [top, f"{H1},{H2},2025-06-01,2,worker,{2**63}"])
        with pytest.raises(IngestError, match="line 3: count '9223372036854775808' is above the int64"):
            load_od(p)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        p = od_file(tmp_path, [
            f"{H1},{H2},2025-06-01,1,worker,30",
            f"{H2},{H1},2025-06-01,6,worker,30",
            f"{H1},{H2},2025-06-01,1,worker,31",
        ])
        with pytest.raises(IngestError, match="line 4.*duplicate key.*line 2"):
            load_od(p)

    def test_field_error_line_counts_empty_lines(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,worker,30", "", f"{H1},{H2},2025-06-01,10,worker,30"])
        with pytest.raises(IngestError, match="^line 4: unknown interval index '10'$"):
            load_od(p)

    def test_bad_token_before_bad_field_count_is_reported(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,commuter,30", f"{H1},{H2}"])
        with pytest.raises(IngestError, match="^line 2: unknown user type 'commuter'$"):
            load_od(p)
        p = od_file(tmp_path, [f"{H1},{H2}", f"{H1},{H2},2025-06-01,1,commuter,30"])
        with pytest.raises(IngestError, match="^line 2: expected 6 fields, got 2$"):
            load_od(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_line(self, tmp_path, newline):
        p = tmp_path / "od.csv"
        rows = [OD_HEADER, f"{H1},{H2},2025-06-01,1,worker,30", "", f"{H2},{H1},2025-06-01,1,w\xf6rker,3"]
        p.write_bytes(newline.join(rows).encode("latin-1"))
        with pytest.raises(IngestError, match=r"^line 4: not UTF-8: byte 0xf6 \(invalid start byte\)$"):
            load_od(p)

    def test_duplicate_lines_count_empty_lines(self, tmp_path):
        row = f"{H1},{H2},2025-06-01,1,worker,30"
        p = od_file(tmp_path, [row, f"{H2},{H1},2025-06-01,6,worker,30", "", "", row])
        with pytest.raises(IngestError, match=(
            rf"^line 6: duplicate key \({H1},{H2},2025-06-01,1,worker\), first seen at line 2$"
        )):
            load_od(p)

    def test_earliest_repeated_line_is_named(self, tmp_path):
        # (H2,H3) repeats at line 5, but (H1,H3) repeats earlier, at line 4
        rows = [f"{o},{H3},2025-06-01,1,worker,30" for o in (H2, H1, H1, H2)]
        with pytest.raises(IngestError, match=(
            rf"^line 4: duplicate key \({H1},{H3},2025-06-01,1,worker\), first seen at line 3$"
        )):
            load_od(od_file(tmp_path, rows))
        with pytest.raises(ValueError, match=(
            rf"^duplicate key \({H1},{H3},2025-06-01,1,worker\) at records 1 and 2$"
        )):
            store_of([(o, H3, 1, 1) for o in (H2, H1, H1, H2)])

    def test_bom_accepted(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_bytes(("\ufeff" + OD_HEADER + "\n" + f"{H1},{H2},2025-06-01,1,worker,30").encode())
        assert load_od(p).record(0).count == 30

    def test_mixed_months(self, tmp_path):
        p = od_file(tmp_path, [
            f"{H1},{H2},2025-06-01,1,worker,30",
            f"{H1},{H2},2025-07-01,1,worker,30",
        ])
        with pytest.raises(IngestError, match="line 3.*mixed months"):
            load_od(p)

    def test_filter_keeps_only_requested_type(self, tmp_path):
        records = [rec(H1, H2, 3, 1, "worker"), rec(H1, H2, 3, 1, "all", 99)]
        write_od_csv(tmp_path / "od.csv", records)
        store = load_od(tmp_path / "od.csv", user_type_filter="worker")
        assert len(store) == 1
        assert store.user_types_present() == ["worker"]

    def test_filter_still_validates_other_rows(self, tmp_path):
        p = od_file(tmp_path, [
            f"{H1},{H2},2025-06-01,1,worker,30",
            f"{H1},{H2},2025-06-01,1,all,0",
        ])
        with pytest.raises(IngestError, match="line 3"):
            load_od(p, user_type_filter="worker")

    def test_unknown_filter_rejected(self, tmp_path):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,worker,30"])
        with pytest.raises(ValueError, match=r"^unknown OD user type 'resident', expected all\|worker$"):
            load_od(p, "resident")

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_bytes(
            (OD_HEADER + "\r\n" + f"{H1},{H2},2025-06-01,1,worker,30" + "\r\n").encode()
        )
        assert len(load_od(p)) == 1

    def test_lossless_totals(self, tmp_path):
        rng = random.Random(5)
        records = [rec(H1, H2, d, iv, c=rng.randint(1, 99))
                   for d in range(1, 11) for iv in range(1, 9)]
        write_od_csv(tmp_path / "od.csv", records)
        store = load_od(tmp_path / "od.csv")
        assert store.total_count() == sum(r.count for r in records)


class TestLoadMemory:
    def test_load_od_peak_is_bounded_by_file_size(self, tmp_path):
        """The parse keeps the file's bytes, its line ends and the store's
        columns, and works on cache-sized row blocks: on a world the size of
        the diary-sweep benchmark's (about 91k OD rows, 4.9 MB) its
        tracemalloc peak stays under 3 times the file's size. The parser
        that scanned every comma peaked at 3.9 times."""
        config = synth.SynthConfig(
            seed=1, n_hexes=500, n_agents=6000, month=(2025, 6), suppression_threshold=1
        )
        path = synth.generate(config).write(tmp_path)["od"]
        load_od(path)  # warm up, so that no import or first-use cache is counted
        tracemalloc.start()
        try:
            load_od(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size


class TestODStore:
    def test_single_month_enforced(self):
        with pytest.raises(ValueError, match="mixed months"):
            ODStore.from_columns(
                origins=[H1, H1], destinations=[H2, H2],
                dates=[dt.date(2025, 6, 1), dt.date(2025, 7, 1)],
                intervals=[1, 1], user_types=["worker", "worker"], counts=[5, 5],
            )

    def test_count_past_int64_names_record(self):
        with pytest.raises(ValueError, match="count 99999999999999999999 at record 1 does not fit"):
            store_of([(H1, H2, 1, 1, "worker", 5), (H1, H2, 1, 2, "worker", 99999999999999999999)])

    def test_duplicate_detection(self):
        with pytest.raises(ValueError, match=(
            rf"^duplicate key \({H1},{H2},2025-06-01,1,worker\) at records 0 and 1$"
        )):
            store_of([(H1, H2, 1, 1), (H1, H2, 1, 1)])

    def test_same_key_different_interval_ok(self):
        store = store_of([(H1, H2, 1, 1), (H1, H2, 1, 2)])
        assert len(store) == 2

    def test_subset_preserves_month(self):
        import numpy as np

        store = store_of([(H1, H2, 1, 1), (H2, H1, 2, 6)])
        sub = store.subset(np.array([1]))
        assert len(sub) == 1
        assert sub.record(0).origin == H2
        assert (sub.year, sub.month) == (store.year, store.month)


class TestInMemoryTypes:
    """The constructors take only ints (or numpy integers) and dates: a
    float, bool, string or datetime is named with its record, not cast."""

    GOOD = {
        "od": [rec(H1, H2, 1, 1), rec(H2, H1, 1, 6)],
        "footfall": [FootfallRecord(H1, day(1), 1, "worker", 3), FootfallRecord(H2, day(1), 1, "worker", 3)],
    }

    @pytest.mark.parametrize("field, value, what", [
        ("count", 5.7, "an integer"),
        ("interval", 2.9, "an integer"),
        ("interval", True, "an integer"),
        ("count", True, "an integer"),
        ("count", "7", "an integer"),
        ("day", dt.datetime(2025, 6, 1), "a date"),
    ])
    @pytest.mark.parametrize("build", ["od", "od_columns", "footfall"])
    def test_wrong_type_names_value_and_record(self, build, field, value, what):
        records = list(self.GOOD["footfall" if build == "footfall" else "od"])
        records[1] = replace(records[1], **{field: value})
        if build == "od_columns":
            def make():
                return ODStore.from_columns(*map(list, zip(*(
                    (r.origin, r.destination, r.day, r.interval, r.user_type, r.count) for r in records
                ))))
        else:
            def make():
                return (ODStore if build == "od" else FootfallStore).from_records(records)
        name = "date" if field == "day" else field
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == f"{name} {value!r} at record 1 is not {what}"

    @pytest.mark.parametrize("build, field, value, message", [
        ("od", "interval", 10, "unknown interval index 10 at record 1"),
        ("od", "user_type", "resident", "unknown OD user type 'resident' at record 1"),
        ("footfall", "user_type", "tourist", "unknown footfall user type 'tourist' at record 1"),
        ("od", "count", 0, "count must be >= 1, got 0 at record 1"),
        ("footfall", "count", -1, "count must be >= 0, got -1 at record 1"),
    ])
    def test_bad_value_names_record(self, build, field, value, message):
        records = list(self.GOOD[build])
        records[1] = replace(records[1], **{field: value})
        with pytest.raises(ValueError) as excinfo:
            (ODStore if build == "od" else FootfallStore).from_records(records)
        assert str(excinfo.value) == message

    def test_column_lengths_differ(self):
        with pytest.raises(ValueError, match="^column lengths differ$"):
            ODStore.from_columns([H1, H2], [H2, H1], [day(1), day(1)], [1, 1], ["worker", "worker"], [5])

    def test_numpy_integers_accepted(self):
        r = rec(H1, H2, 1, 1)
        store = ODStore.from_records([replace(r, interval=np.int8(2), count=np.int64(7))])
        assert store.record(0) == replace(r, interval=2, count=7)


class TestLoadFootfall:
    def test_three_rows(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-01", 1, "resident", 40),
            (H1, "2025-06-01", 9, "resident", 400),
            (H2, "2025-06-02", 3, "transient", 0),
        ])
        store = load_footfall(tmp_path / "ff.csv")
        assert len(store) == 3
        assert store.record(2).count == 0  # zero allowed here, unlike OD

    def test_negative_count(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [(H1, "2025-06-01", 1, "resident", -5)])
        with pytest.raises(IngestError, match="line 2.*non-negative"):
            load_footfall(tmp_path / "ff.csv")

    def test_count_past_int64_names_line(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-01", 1, "resident", 2**63 - 1),
            (H1, "2025-06-02", 1, "resident", 99999999999999999999),
        ])
        with pytest.raises(IngestError, match="line 3: count '99999999999999999999' is above"):
            load_footfall(tmp_path / "ff.csv")

    def test_od_user_types_are_not_enough(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [(H1, "2025-06-01", 1, "commuter", 5)])
        with pytest.raises(IngestError, match="unknown user type"):
            load_footfall(tmp_path / "ff.csv")

    def test_duplicate(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-01", 1, "resident", 5),
            (H1, "2025-06-01", 1, "resident", 6),
        ])
        with pytest.raises(ValueError, match="duplicate footfall key"):
            load_footfall(tmp_path / "ff.csv")

    def test_duplicate_names_file_lines(self, tmp_path):
        p = tmp_path / "ff.csv"
        rows = [f"{H1},2025-06-01,1,resident,5", f"{H2},2025-06-01,1,resident,5"]
        p.write_text("\n".join(["hex,date,interval,user_type,count", rows[0], rows[1], rows[0]]) + "\n")
        with pytest.raises(IngestError, match=(
            rf"^line 4: duplicate footfall key \({H1},2025-06-01,1,resident\), first seen at line 2$"
        )):
            load_footfall(p)
        p.write_text("\n".join(["hex,date,interval,user_type,count", rows[0], "", rows[1], "", rows[0]]))
        with pytest.raises(IngestError, match="^line 6: duplicate footfall key .*, first seen at line 2$"):
            load_footfall(p)

    def test_field_error_line_counts_empty_lines(self, tmp_path):
        p = tmp_path / "ff.csv"
        p.write_text(f"hex,date,interval,user_type,count\n{H1},2025-06-01,1,resident,5\n\n"
                     f"{H1},2025-06-02,1,resident,-5\n")
        with pytest.raises(IngestError, match="^line 4: count must be a non-negative integer, got '-5'$"):
            load_footfall(p)

    def test_bad_token_before_bad_field_count_is_reported(self, tmp_path):
        p = tmp_path / "ff.csv"
        p.write_text(f"hex,date,interval,user_type,count\n{H1},2025-06-01,1,commuter,5\n{H1},2025-06-01\n")
        with pytest.raises(IngestError, match="^line 2: unknown user type 'commuter'$"):
            load_footfall(p)

    def test_non_utf8_byte_names_line(self, tmp_path):
        p = tmp_path / "ff.csv"
        p.write_bytes(b"\xef\xbb\xbfhex,date,interval,user_type,count\r\n\xff\r\n")
        with pytest.raises(IngestError, match=r"^line 2: not UTF-8: byte 0xff \(invalid start byte\)$"):
            load_footfall(p)

    def test_from_records_round_trip(self, tmp_path):
        from hexmob.ingest import FootfallStore

        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-01", 1, "resident", 40),
            (H2, "2025-06-02", 9, "all", 7),
        ])
        store = load_footfall(tmp_path / "ff.csv")
        rebuilt = FootfallStore.from_records(store.iter_records())
        assert list(rebuilt.iter_records()) == list(store.iter_records())
        dup = list(store.iter_records())
        with pytest.raises(ValueError, match="duplicate footfall key"):
            FootfallStore.from_records(dup + [dup[0]])
        big = replace(dup[0], count=2**64)
        with pytest.raises(ValueError, match=f"count {2**64} at record 2 does not fit in int64"):
            FootfallStore.from_records(dup + [big])


class TestFootfallMeans:
    def test_mean_prefers_full_day_row(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-02", 1, "worker", 10),
            (H1, "2025-06-02", 2, "worker", 10),
            (H1, "2025-06-02", 9, "worker", 100),  # full-day row wins for this day
            (H1, "2025-06-03", 1, "worker", 30),
        ])
        store = load_footfall(tmp_path / "ff.csv")
        assert store.mean_daily_count(H1, "worker") == pytest.approx((100 + 30) / 2)

    def test_mean_sums_sub_daily_without_full_day(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H1, "2025-06-02", 1, "worker", 10),
            (H1, "2025-06-02", 5, "worker", 20),
        ])
        store = load_footfall(tmp_path / "ff.csv")
        assert store.mean_daily_count(H1, "worker") == pytest.approx(30.0)

    def test_absent_hex_or_type(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [(H1, "2025-06-02", 1, "worker", 10)])
        store = load_footfall(tmp_path / "ff.csv")
        assert store.mean_daily_count(H2, "worker") is None
        assert store.mean_daily_count(H1, "resident") is None


class TestFootfallMeansOracle:
    """The vectorised means table against a per-day replay of plain rows."""

    ROWS = [
        (H1, "2025-06-02", 1, "worker", 0),  # zero counts, sub-day only
        (H1, "2025-06-02", 4, "worker", 0),
        (H1, "2025-06-03", 9, "worker", 17),  # full-day row only
        (H1, "2025-06-04", 2, "worker", 5),  # sub-day rows only
        (H1, "2025-06-04", 8, "worker", 6),
        (H1, "2025-06-05", 3, "worker", 40),  # both: the full-day row wins
        (H1, "2025-06-05", 9, "worker", 1),
        (H1, "2025-06-05", 1, "all", 3),
        (H2, "2025-06-05", 9, "resident", 0),
    ]

    def _store(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", self.ROWS)
        return load_footfall(tmp_path / "ff.csv")

    def test_each_day_shape(self, tmp_path):
        store = self._store(tmp_path)
        plain = [(h, dt.date.fromisoformat(d), iv, ut, c) for h, d, iv, ut, c in self.ROWS]
        for h in (H1, H2, H3):
            for ut in FOOTFALL_USER_TYPES:
                assert store.mean_daily_count(h, ut) == naive_mean_daily_count(plain, h, ut)
        assert store.mean_daily_count(H1, "worker") == (0 + 17 + 11 + 1) / 4
        assert store.mean_daily_count(H2, "resident") == 0.0
        assert store.mean_daily_count(H3, "worker") is None  # absent hex

    def test_unknown_user_type_raises(self, tmp_path):
        store = self._store(tmp_path)
        for h in (H1, H3):  # with rows and without
            with pytest.raises(ValueError, match="unknown footfall user type"):
                store.mean_daily_count(h, "commuter")

    def test_sums_past_int64(self, tmp_path):
        big = 2**62 + 1
        rows = [(H1, f"2025-06-0{d}", 9, "all", big) for d in (1, 2, 3)]
        write_ff_csv(tmp_path / "ff.csv", rows)
        store = load_footfall(tmp_path / "ff.csv")
        assert store.mean_daily_count(H1, "all") == (3 * big) / 3

    def test_random_stores_bit_identical(self):
        rng = random.Random(21)
        for _ in range(20):
            hexes = [f"{rng.randrange(16**6):015x}" for _ in range(6)]
            rows = {}
            for _ in range(rng.randint(0, 300)):
                key = (rng.choice(hexes), day(rng.randint(1, 30)), rng.randint(1, 9),
                       rng.choice(FOOTFALL_USER_TYPES))
                rows[key] = rng.choice([0, rng.randint(1, 99), rng.randint(1, 2**50)])
            plain = [key + (c,) for key, c in rows.items()]
            store = FootfallStore.from_records(FootfallRecord(*r) for r in plain)
            for h in hexes:
                for ut in FOOTFALL_USER_TYPES:
                    assert store.mean_daily_count(h, ut) == naive_mean_daily_count(plain, h, ut)


class TestDescriptiveStats:
    def test_hand_example(self):
        store = store_of([(H1, H2, 1, 1, "worker", 22), (H1, H2, 2, 1, "worker", 30),
                          (H1, H2, 3, 1, "worker", 50)])
        s = descriptive_stats(store, "worker")
        n, mean, std, lo, hi = two_pass_stats([22, 30, 50])
        assert (s.count, s.min, s.max) == (3, 22, 50)
        assert s.mean == pytest.approx(34.0)
        assert s.std == pytest.approx(std, rel=1e-12)

    def test_single_record(self):
        store = store_of([(H1, H2, 1, 1, "worker", 22)])
        s = descriptive_stats(store, "worker")
        assert (s.count, s.mean, s.std, s.min, s.max) == (1, 22.0, 0.0, 22, 22)

    def test_type_selection(self):
        store = store_of([(H1, H2, 1, 1, "worker", 10), (H1, H2, 1, 1, "all", 99)])
        assert descriptive_stats(store, "all").mean == 99.0

    def test_empty_selection(self):
        store = store_of([(H1, H2, 1, 1, "worker", 10)])
        with pytest.raises(EmptySelectionError):
            descriptive_stats(store, "all")

    def test_unknown_user_type_rejected(self):
        store = store_of([(H1, H2, 1, 1, "worker", 10)])
        with pytest.raises(ValueError, match=r"^unknown OD user type 'resident', expected all\|worker$"):
            descriptive_stats(store, "resident")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=200))
    def test_matches_two_pass_oracle(self, counts):
        records = [rec(f"{i:015x}", H2, (i % 28) + 1, (i % 8) + 1, "worker", c)
                   for i, c in enumerate(counts)]
        store = ODStore.from_records(records)
        s = descriptive_stats(store, "worker")
        n, mean, std, lo, hi = two_pass_stats(counts)
        assert s.count == n and s.min == lo and s.max == hi
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.std == pytest.approx(std, rel=1e-9, abs=1e-12)


class TestMonthlyAggregate:
    def test_single_pair(self):
        store = store_of([(H1, H2, 1, 1, "worker", 10)])
        agg = monthly_od_aggregate(store)
        assert agg.totals == {(H1, H2): 10}
        assert (agg.mean, agg.below_mean_share) == (10.0, 0.0)

    def test_planted_fixture(self):
        rows = [(H1, H2, 1, 1, "worker", 60), (H1, H2, 2, 2, "worker", 40),
                (H2, H1, 1, 6, "worker", 10), (H1, H3, 1, 1, "worker", 10),
                (H3, H1, 1, 7, "worker", 10)]
        store = store_of(rows)
        agg = monthly_od_aggregate(store)
        assert agg.totals == {(H1, H2): 100, (H2, H1): 10, (H1, H3): 10, (H3, H1): 10}
        assert agg.mean == 32.5
        assert agg.below_mean_share == 0.75

    def test_full_day_rows_excluded_by_default(self):
        store = store_of([(H1, H2, 1, 1, "worker", 10), (H1, H2, 1, 9, "worker", 10)])
        assert monthly_od_aggregate(store).totals == {(H1, H2): 10}
        assert monthly_od_aggregate(store, include_full_day=True).totals == {(H1, H2): 20}

    def test_permutation_invariance(self):
        rng = random.Random(3)
        rows = [(H1, H2, d, iv, "worker", rng.randint(1, 40))
                for d in range(1, 10) for iv in range(1, 9)]
        rows += [(H2, H3, d, 1, "worker", 7) for d in range(1, 20)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        a = monthly_od_aggregate(store_of(rows))
        b = monthly_od_aggregate(store_of(shuffled))
        assert a.totals == b.totals and a.mean == b.mean

    def test_matches_naive_oracle(self):
        rng = random.Random(9)
        records = []
        seen = set()
        for _ in range(500):
            key = (f"{rng.randint(0, 30):015x}", f"{rng.randint(0, 30):015x}",
                   rng.randint(1, 28), rng.randint(1, 9))
            if key in seen:
                continue
            seen.add(key)
            records.append(rec(*key, c=rng.randint(1, 500)))
        store = ODStore.from_records(records)
        agg = monthly_od_aggregate(store)
        totals, mean, share = naive_monthly_aggregate(
            [(r.origin, r.destination, r.day, r.interval, r.user_type, r.count) for r in records]
        )
        assert agg.totals == totals
        assert agg.mean == pytest.approx(mean, rel=1e-12)
        assert agg.below_mean_share == share

    def test_user_type_selection_matches_naive_oracle(self):
        rng = random.Random(10)
        records = [rec(f"{o:015x}", f"{d:015x}", dom, iv, ut, rng.randint(1, 500))
                   for o, d, dom, iv in {(rng.randint(0, 30), rng.randint(0, 30), rng.randint(1, 28),
                                          rng.randint(1, 9)) for _ in range(500)}
                   for ut in rng.sample(["all", "worker"], rng.randint(1, 2))]
        agg = monthly_od_aggregate(ODStore.from_records(records), user_type="worker")
        totals, mean, share = naive_monthly_aggregate(
            [(r.origin, r.destination, r.day, r.interval, r.user_type, r.count)
             for r in records if r.user_type == "worker"]
        )
        assert agg.totals == totals
        assert agg.mean == pytest.approx(mean, rel=1e-12)
        assert agg.below_mean_share == share

    def test_sums_exactly_above_2_53(self):
        store = store_of([(H1, H2, 1, 1, "worker", 2**53), (H1, H2, 2, 1, "worker", 1)])
        assert monthly_od_aggregate(store).totals == {(H1, H2): 2**53 + 1}

    def test_sums_past_int64(self):
        store = store_of([(H1, H2, 1, 1, "worker", 2**62), (H1, H2, 2, 1, "worker", 2**62),
                          (H2, H1, 1, 6, "worker", 1)])
        agg = monthly_od_aggregate(store)
        assert agg.totals == {(H1, H2): 2**63, (H2, H1): 1}
        assert agg.mean == (2**63 + 1) / 2

    def test_empty(self):
        store = store_of([(H1, H2, 1, 9, "worker", 10)])
        with pytest.raises(EmptySelectionError):
            monthly_od_aggregate(store)  # only a full-day row, nothing to aggregate


class TestOneUserTypeCheck:
    """Every way of selecting OD records by user type rejects a value
    outside all|worker with one message: a footfall-only type such as
    'resident' and an unknown one alike."""

    @staticmethod
    def _rejects(call, user_type):
        with pytest.raises(ValueError) as excinfo:
            call(user_type)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == f"unknown OD user type {user_type!r}, expected all|worker"

    @pytest.mark.parametrize("user_type", ["bogus", "resident"])
    def test_load_od_checks_before_reading(self, tmp_path, user_type):
        self._rejects(lambda u: load_od(tmp_path / "absent.csv", u), user_type)

    @pytest.mark.parametrize("user_type", ["bogus", "resident"])
    def test_descriptive_stats(self, user_type):
        store = store_of([(H1, H2, 1, 1, "worker", 10)])
        self._rejects(lambda u: descriptive_stats(store, u), user_type)

    @pytest.mark.parametrize("user_type", ["bogus", "resident"])
    def test_monthly_od_aggregate(self, user_type):
        store = store_of([(H1, H2, 1, 1, "worker", 10)])
        self._rejects(lambda u: monthly_od_aggregate(store, user_type=u), user_type)

    @pytest.mark.parametrize("user_type", ["bogus", "resident"])
    def test_stats_flag(self, tmp_path, capsys, user_type):
        p = od_file(tmp_path, [f"{H1},{H2},2025-06-01,1,worker,30"])
        assert main(["stats", "--od", str(p), "--user-type", user_type]) == 1
        assert capsys.readouterr() == ("", f"error: unknown OD user type {user_type!r}, expected all|worker\n")
