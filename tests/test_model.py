import datetime as dt
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexmob.model import (
    FULL_DAY_INTERVAL,
    REGIME_INTERVALS,
    SUB_DAY_INTERVALS,
    TIME_INTERVALS,
    Range,
    interval_of,
    is_hex_id,
    month_dates,
    parse_decimal,
    parse_hex_id,
    regime_of,
    weekday_dates,
)


class TestTimeGrid:
    def test_interval_table(self):
        assert TIME_INTERVALS[1] == (240, 479)
        assert TIME_INTERVALS[2] == (480, 599)
        assert TIME_INTERVALS[8] == (1200, 1439)
        assert TIME_INTERVALS[9] == (0, 1439)

    def test_interval_of_examples(self):
        assert interval_of(270) == {1, 9}
        assert interval_of(10) == {9}
        assert interval_of(570) == {2, 9}

    def test_full_day_always_member(self):
        for m in range(0, 1440, 97):
            assert FULL_DAY_INTERVAL in interval_of(m)

    def test_exhaustive_consistency_with_table(self):
        for m in range(1440):
            got = interval_of(m)
            for idx, (start, end) in TIME_INTERVALS.items():
                assert (idx in got) == (start <= m <= end)

    @pytest.mark.parametrize("bad", [-1, 1440, 99999])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            interval_of(bad)

    def test_early_morning_only_full_day(self):
        for m in range(0, 240):
            assert interval_of(m) == {9}


class TestRegimes:
    def test_partition(self):
        seen = []
        for intervals in REGIME_INTERVALS.values():
            seen.extend(intervals)
        assert sorted(seen) == list(range(1, 10))

    def test_examples(self):
        assert regime_of(1).name == "morning_peak"
        assert regime_of(4).name == "midday"
        assert regime_of(9).name == "night"

    def test_membership_consistent(self):
        for idx in range(1, 10):
            assert idx in regime_of(idx).intervals

    @pytest.mark.parametrize("bad", [0, 10, -3])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            regime_of(bad)


class TestHexIds:
    def test_valid(self):
        assert is_hex_id("8a195da43687fff")
        assert parse_hex_id("8a195da43687fff") == "8a195da43687fff"

    @pytest.mark.parametrize(
        "bad",
        ["", "8a195da43687ff", "8a195da43687ffff", "8A195DA43687FFF", "8a195da43687ffg", "8a195da43687ff "],
    )
    def test_invalid(self, bad):
        assert not is_hex_id(bad)
        with pytest.raises(ValueError):
            parse_hex_id(bad)

    @given(st.text(alphabet="0123456789abcdef", min_size=15, max_size=15))
    def test_roundtrip(self, s):
        assert parse_hex_id(s) == s



class TestDecimals:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_repr_reads_back(self, x):
        assert parse_decimal(repr(x)) == x

    @pytest.mark.parametrize("text,value", [("7", 7.0), ("-0.5", -0.5), ("1E+3", 1000.0)])
    def test_plain_decimals(self, text, value):
        assert parse_decimal(text) == value

    @pytest.mark.parametrize("text", ["1_0", "+1", ".5", "1.", "0x1", "\u0661", "1e", "", "abc", "2.5\n"])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ValueError, match="^" + re.escape(f"bad value {text!r}, not a plain decimal") + "$"):
            parse_decimal(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="^" + re.escape(f"non-finite value {text!r}") + "$"):
            parse_decimal(text)


class TestRange:
    @pytest.mark.parametrize("value", [math.nan, -0.5, 1.5, -math.inf, math.inf])
    def test_outside_a_closed_range_rejected(self, value):
        with pytest.raises(ValueError, match=r"^rate must be 0\.\.1$"):
            Range("rate", 0, 1)(value)

    @pytest.mark.parametrize("value", [math.nan, 0, -math.inf])
    def test_below_an_open_range_rejected(self, value):
        with pytest.raises(ValueError, match=r"^count must be >= 1$"):
            Range("count", 1)(value)

    @pytest.mark.parametrize("value", [1, 1.0, 10**400, math.inf])
    def test_an_open_end_takes_any_value_above(self, value):
        # infinity included, so a caller that needs finite values checks them itself
        Range("count", 1)(value)


class TestCalendar:
    def test_month_dates(self):
        days = month_dates(2025, 6)
        assert len(days) == 30
        assert days[0] == dt.date(2025, 6, 1)
        assert days[-1] == dt.date(2025, 6, 30)

    def test_weekday_dates(self):
        mondays = weekday_dates(2025, 6, 1)
        assert [d.day for d in mondays] == [2, 9, 16, 23, 30]
        thursdays = weekday_dates(2025, 6, 4)
        assert [d.day for d in thursdays] == [5, 12, 19, 26]

    def test_weekday_dates_rejects_weekday_8(self):
        with pytest.raises(ValueError, match=r"^weekday must be 1\.\.7$"):
            weekday_dates(2025, 6, 8)

    def test_every_date_in_exactly_one_weekday_list(self):
        all_days = set()
        for wd in range(1, 8):
            all_days.update(weekday_dates(2025, 6, wd))
        assert all_days == set(month_dates(2025, 6))

    def test_sub_day_intervals(self):
        assert SUB_DAY_INTERVALS == (1, 2, 3, 4, 5, 6, 7, 8)
