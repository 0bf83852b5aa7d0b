"""The column loaders against the row-by-row reference loaders, and the
token grammar they enforce (README "File formats")."""

import calendar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmob import synth
from hexmob.ingest import FOOTFALL_HEADER, OD_HEADER, IngestError, load_footfall, load_od
from hexmob.model import FOOTFALL_USER_TYPES, OD_USER_TYPES

from conftest import H1, H2
from oracles import reference_load_footfall, reference_load_od

COLUMNS = ("origin_code", "dest_code", "hex_col", "day", "interval", "user_code", "count")


def assert_same_store(got, want):
    assert got.hex_ids == want.hex_ids
    assert (got.year, got.month) == (want.year, want.month)
    for name in COLUMNS:
        if hasattr(want, name):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


@pytest.fixture(scope="module", params=[3, 58])
def synth_world(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"world{request.param}")
    config = synth.SynthConfig(
        seed=request.param, n_hexes=40, n_agents=500, month=(2024, 2), suppression_threshold=1
    )
    return synth.generate(config).write(out)


def test_synth_worlds_match_reference(synth_world):
    od, ff = synth_world["od"], synth_world["footfall"]
    assert_same_store(load_od(od), reference_load_od(od))
    assert_same_store(load_od(od, "worker"), reference_load_od(od, "worker"))
    assert_same_store(load_footfall(ff), reference_load_footfall(ff))


# -- generated files --------------------------------------------------

KINDS = {
    # header, hex columns, user types, least count, loader, reference
    "od": (OD_HEADER, 2, OD_USER_TYPES, 1, load_od, reference_load_od),
    "footfall": (FOOTFALL_HEADER, 1, FOOTFALL_USER_TYPES, 0, load_footfall, reference_load_footfall),
}

HEX = st.text("0123456789abcdef", min_size=15, max_size=15)


@st.composite
def valid_rows(draw, kind, min_size=0):
    """Token rows of a valid file of the kind: one month, no repeated key."""
    _, n_hex, user_types, least, _, _ = KINDS[kind]
    year, month = draw(st.integers(1, 9999)), draw(st.integers(1, 12))
    hexes = draw(st.lists(HEX, min_size=1, max_size=5, unique=True))
    key = st.tuples(
        st.tuples(*[st.sampled_from(hexes)] * n_hex),
        st.integers(1, calendar.monthrange(year, month)[1]),
        st.integers(1, 9),
        st.sampled_from(user_types),
    )
    rows = []
    for hex_ids, day, interval, user_type in draw(st.lists(key, min_size=min_size, max_size=30, unique=True)):
        count = draw(st.one_of(st.integers(least, 99), st.integers(least, 2**63 - 1)))
        zeros = draw(st.sampled_from(["", "", "0", "000"]))  # leading zeros are digits too
        date = f"{year:04d}-{month:02d}-{day:02d}"
        rows.append([*hex_ids, date, str(interval), user_type, f"{zeros}{count}"])
    return rows


layouts = st.fixed_dictionaries({
    "newline": st.sampled_from(["\n", "\r\n", "\r"]),
    "bom": st.booleans(),
    "final_newline": st.booleans(),
    "empty_lines": st.lists(st.integers(0, 2), min_size=31, max_size=31),
})


def render(header, rows, layout):
    """(text, file line of each row); empty_lines[i] empty lines go before row i."""
    lines, row_lines = [header], []
    for row, empty in zip(rows, layout["empty_lines"]):
        lines += [""] * empty
        row_lines.append(len(lines) + 1)
        lines.append(",".join(row))
    text = layout["newline"].join(lines) + (layout["newline"] if layout["final_newline"] else "")
    return text, row_lines


def write(path, text, bom=False):
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    return path


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_files_match_reference(tmp_path_factory, kind, data):
    header, _, _, _, load, reference = KINDS[kind]
    rows = data.draw(valid_rows(kind))
    layout = data.draw(layouts)
    text, _ = render(header, rows, layout)
    tmp = tmp_path_factory.mktemp("gen")
    # the reference reads no BOM; the loader must read past one
    want = reference(write(tmp / "ref.csv", text))
    assert_same_store(load(write(tmp / "in.csv", text, layout["bom"])), want)


BAD_TOKENS = {
    "hex": ["AAAAAAAAAAAAAA1", "aaaaaaaaaaaaaa", "aaaaaaaaaaaaaa12", '"aaaaaaaaaaaaaa1"',
            " aaaaaaaaaaaaaa1", "aaaaaaaaaaaaaa1 ", "gaaaaaaaaaaaaa1", "", "aaaaaaaaaaaaaa١",
            '"aaaaaaaaaaaaaa1,"'],
    "date": ["20250602", "2025-W23-1", "2025-06-31", "2025-6-01", "2025-06-1", "2025-06-01 ", "",
             "2025-13-01", "0000-01-01", "２025-06-01", "2025-02-29", "2025-06-01T00:00",
             '"2025-06-01"', "2025/06/01"],
    "interval": ["0", "10", "01", "1_0", " 7 ", "+5", "١", "1.0", "", "x", '"1"', "-1"],
    "user_type": ["Worker", "worker ", '"worker"', "", "commuter", "ALL"],
    "count": ["1_000", " 7 ", "+5", "١", "-1", "1.0", "1e3", "", "9223372036854775808",
              "99999999999999999999", '"5"', "0x5", "5 "],
}
FIELDS = {
    "od": ["hex", "hex", "date", "interval", "user_type", "count"],
    "footfall": ["hex", "date", "interval", "user_type", "count"],
}
EXTRA_BAD = {"od": {"user_type": ["resident", "transient"], "count": ["0", "00"]}, "footfall": {}}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_malformed_token_is_rejected_at_its_line(tmp_path_factory, kind, data):
    header, _, _, _, load, _ = KINDS[kind]
    rows = data.draw(valid_rows(kind, min_size=1))
    layout = data.draw(layouts)
    r = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(FIELDS[kind]) - 1))
    field = FIELDS[kind][j]
    rows[r][j] = data.draw(st.sampled_from(BAD_TOKENS[field] + EXTRA_BAD[kind].get(field, [])))
    text, row_lines = render(header, rows, layout)
    path = write(tmp_path_factory.mktemp("bad") / "in.csv", text, layout["bom"])
    with pytest.raises(IngestError) as excinfo:
        load(path)
    assert excinfo.value.line == row_lines[r]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_earliest_faulty_line_is_reported(tmp_path_factory, kind, data):
    """A malformed token and a wrong field count on two rows: the earlier
    row is named, whichever fault it holds."""
    header, _, _, _, load, _ = KINDS[kind]
    rows = data.draw(valid_rows(kind, min_size=2))
    layout = data.draw(layouts)
    r, q = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    j = data.draw(st.integers(0, len(FIELDS[kind]) - 1))
    rows[r][j] = data.draw(st.sampled_from([t for t in BAD_TOKENS[FIELDS[kind][j]] if "," not in t]))
    rows[q] = data.draw(st.sampled_from([rows[q][:-1], rows[q] + ["7"]]))
    text, row_lines = render(header, rows, layout)
    path = write(tmp_path_factory.mktemp("bad") / "in.csv", text, layout["bom"])
    with pytest.raises(IngestError) as excinfo:
        load(path)
    assert excinfo.value.line == min(row_lines[r], row_lines[q])
    assert ("fields" in str(excinfo.value)) == (q < r)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), byte=st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]))
def test_a_non_utf8_byte_is_rejected_at_its_line(tmp_path_factory, kind, data, byte):
    header, _, _, _, load, _ = KINDS[kind]
    rows = data.draw(valid_rows(kind, min_size=1))
    layout = data.draw(layouts)
    r = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(FIELDS[kind]) - 1))
    rows[r][j] = "\x00"  # a placeholder, replaced by the byte below
    text, row_lines = render(header, rows, layout)
    raw = (("\ufeff" if layout["bom"] else "") + text).encode("utf-8").replace(b"\x00", byte)
    path = tmp_path_factory.mktemp("bad") / "in.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestError, match="not UTF-8") as excinfo:
        load(path)
    assert excinfo.value.line == row_lines[r]


# -- each leniency of the row-by-row loaders, now rejected ------------

OD_ROW = [H1, H2, "2025-06-01", "1", "worker", "30"]
FF_ROW = [H1, "2025-06-01", "1", "worker", "30"]


def _reject(tmp_path, kind, field, token):
    header, row = (OD_HEADER, OD_ROW) if kind == "od" else (FOOTFALL_HEADER, FF_ROW)
    bad = list(row)
    bad[FIELDS[kind].index(field)] = token
    p = write(tmp_path / "in.csv", "\n".join([header, ",".join(row), ",".join(bad)]) + "\n")
    with pytest.raises(IngestError) as excinfo:
        (load_od if kind == "od" else load_footfall)(p)
    assert excinfo.value.line == 3
    return str(excinfo.value)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("token", ["1_000", " 7 ", "+5", "١"])
def test_interval_leniencies_rejected(tmp_path, kind, token):
    assert _reject(tmp_path, kind, "interval", token) == f"line 3: unknown interval index {token!r}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("token", ["1_000", " 7 ", "+5", "١"])
def test_count_leniencies_rejected(tmp_path, kind, token):
    kind_word = "positive" if kind == "od" else "non-negative"
    assert _reject(tmp_path, kind, "count", token) == (
        f"line 3: count must be a {kind_word} integer, got {token!r}"
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("token", ["20250602", "2025-W23-1"])
def test_compact_and_week_dates_rejected(tmp_path, kind, token):
    assert _reject(tmp_path, kind, "date", token) == f"line 3: bad date {token!r}"


@pytest.mark.parametrize("kind", KINDS)
def test_quoted_field_rejected(tmp_path, kind):
    token = f'"{H1}"'
    assert _reject(tmp_path, kind, "hex", token) == f"line 3: malformed hex id: {token!r}"
