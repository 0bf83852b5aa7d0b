"""The byte parser against the row-by-row reference loaders, and the
token grammar it enforces (README "File formats")."""

import ast
import calendar
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmob import geo, ingest, synth
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


@pytest.fixture(scope="module")
def large_world(tmp_path_factory):
    """Enough rows (about 34k OD and 41k footfall) that every kernel runs
    over long columns."""
    config = synth.SynthConfig(seed=12, n_hexes=200, n_agents=2_000, month=(2025, 6), suppression_threshold=1)
    return synth.generate(config).write(tmp_path_factory.mktemp("large"))


def test_synth_worlds_match_reference(synth_world):
    od, ff = synth_world["od"], synth_world["footfall"]
    assert_same_store(load_od(od), reference_load_od(od))
    assert_same_store(load_od(od, "worker"), reference_load_od(od, "worker"))
    assert_same_store(load_footfall(ff), reference_load_footfall(ff))


def test_large_world_matches_reference(large_world):
    test_synth_worlds_match_reference(large_world)


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
        # short counts, 17 to 19 digits, and the int64 maximum
        count = draw(st.one_of(
            st.integers(least, 99), st.integers(least, 2**63 - 1), st.integers(10**16, 2**63 - 1),
            st.just(2**63 - 1),
        ))
        # leading zeros are digits too, up to 30 digits in all
        zeros = draw(st.sampled_from(["", "", "0", "000", "0" * (30 - len(str(count)))]))
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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_earliest_repeated_line_is_reported(tmp_path_factory, kind, data):
    """Several keys each given more than once: the line named is the
    earliest that repeats an earlier key, as the reference finds it, and
    the key was first seen at the line it names."""
    header, _, _, _, load, reference = KINDS[kind]
    rows = data.draw(valid_rows(kind, min_size=1))[:26]  # room for the copies in layouts' 31 rows
    for _ in range(data.draw(st.integers(2, 5))):
        rows.insert(data.draw(st.integers(0, len(rows))), list(data.draw(st.sampled_from(rows))))
    text, row_lines = render(header, rows, data.draw(layouts))
    keys = [tuple(row[:-1]) for row in rows]
    second = next(j for j, key in enumerate(keys) if key in keys[:j])
    first = keys.index(keys[second])
    tmp = tmp_path_factory.mktemp("dup")
    with pytest.raises(IngestError) as want:
        reference(write(tmp / "ref.csv", text))
    with pytest.raises(IngestError) as got:
        load(write(tmp / "in.csv", text))
    assert got.value.line == want.value.line == row_lines[second]
    key_word = "key" if kind == "od" else "footfall key"
    assert str(got.value) == (
        f"line {row_lines[second]}: duplicate {key_word} ({','.join(keys[second])}),"
        f" first seen at line {row_lines[first]}"
    )


def test_from_records_round_trip(synth_world):
    """Records read back from a loaded store rebuild it column for column."""
    od, ff = synth_world["od"], synth_world["footfall"]
    for store in (load_od(od), load_footfall(ff)):
        assert_same_store(type(store).from_records(store.iter_records()), store)


BAD_TOKENS = {
    "hex": ["AAAAAAAAAAAAAA1", "aaaaaaaaaaaaaa", "aaaaaaaaaaaaaa12", '"aaaaaaaaaaaaaa1"',
            " aaaaaaaaaaaaaa1", "aaaaaaaaaaaaaa1 ", "gaaaaaaaaaaaaa1", "", "aaaaaaaaaaaaaa١",
            '"aaaaaaaaaaaaaa1,"', "aaaaaaaaaaaaaaé", "aaaaaaa\x00aaaaaaa", "aaaaaaa\taaaaaaa",
            "\x0baaaaaaaaaaaaaa", "aaaaaaaaaaaaaa\x0c", ":aaaaaaaaaaaaaa", "aaaaaaaaaaaaaa`"],
    "date": ["20250602", "2025-W23-1", "2025-06-31", "2025-6-01", "2025-06-1", "2025-06-01 ", "",
             "2025-13-01", "0000-01-01", "２025-06-01", "2025-02-29", "2025-06-01T00:00",
             '"2025-06-01"', "2025/06/01", "2025-06-0é", "2025\t06-01", "2025-06-01\x00",
             "2025-06-00", "2025-06-3:"],
    "interval": ["0", "10", "01", "1_0", " 7 ", "+5", "١", "1.0", "", "x", '"1"', "-1", "\x0c",
                 "1\x0b", ":"],
    "user_type": ["Worker", "worker ", '"worker"', "", "commuter", "ALL", "all\x00", "wor\tker",
                  "allé", "transien", "ransient", "transientt"],
    "count": ["1_000", " 7 ", "+5", "١", "-1", "1.0", "1e3", "", "9223372036854775808",
              "99999999999999999999", '"5"', "0x5", "5 ", "1\x0c", "1" * 20, "0" * 11 + str(2**63),
              "0" * 29 + "x", "1234567:", "12345678:", "١" * 19],
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


MAPS = {
    # the two-field map files read under the same grammar: loader, header, a good value
    "boundaries": (geo.load_boundaries, "hex,ring", "0 0;1 0;0 1"),
    "layer": (geo.load_layer, "hex,value", "1.5"),
}


@pytest.mark.parametrize("kind", [*KINDS, *MAPS])
def test_quoted_field_rejected(tmp_path, kind):
    token = f'"{H1}"'
    if kind in KINDS:
        assert _reject(tmp_path, kind, "hex", token) == f"line 3: malformed hex id: {token!r}"
        return
    load, header, value = MAPS[kind]
    for row, message in [
        (f"{token},{value}", f"malformed hex id: {token!r}"),
        (f'{H1},"{value},{value}"', "expected 2 fields, got 3"),
    ]:
        p = write(tmp_path / "in.csv", f"{header}\n{H2},{value}\n{row}\n")
        with pytest.raises(IngestError) as excinfo:
            load(p)
        assert str(excinfo.value) == f"line 3: {message}"


# -- edges of the byte parser -----------------------------------------


def _file(tmp_path, kind, rows, final_newline=True):
    header = OD_HEADER if kind == "od" else FOOTFALL_HEADER
    text = "\n".join([header, *(",".join(r) for r in rows)]) + ("\n" if final_newline else "")
    return write(tmp_path / "in.csv", text)


def _message(kind, field, token):
    """The message the grammar gives a bad token of the field."""
    if field == "hex":
        return f"malformed hex id: {token!r}"
    if field == "date":
        return f"bad date {token!r}"
    if field == "interval":
        return f"unknown interval index {token!r}"
    if field == "user_type":
        return f"unknown user type {token!r}"
    if token.isascii() and token.isdigit() and int(token) > 2**63 - 1:
        return f"count {token!r} is above the int64 maximum 9223372036854775807"
    return f"count must be a {'positive' if kind == 'od' else 'non-negative'} integer, got {token!r}"


def _good_row(kind):
    return list(OD_ROW if kind == "od" else FF_ROW)


@pytest.mark.parametrize("kind, field, token", [
    (kind, field, token)
    for kind in KINDS
    for field in dict.fromkeys(FIELDS[kind])
    for token in BAD_TOKENS[field] + EXTRA_BAD[kind].get(field, [])
])
def test_every_bad_token_is_rejected_with_its_message(tmp_path, kind, field, token):
    n = len(FIELDS[kind])
    want = f"expected {n} fields, got {n + 1}" if "," in token else _message(kind, field, token)
    assert _reject(tmp_path, kind, field, token) == f"line 3: {want}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("count", [
    "1" * 17, "9" * 18, "1" * 19, "0" + "1" * 19, "0" * 11 + str(2**63 - 1), str(2**63 - 1),
    "0" * 30 + "1", "0" * 12 + "1" * 18,
])
def test_long_counts_match_reference(tmp_path, kind, count):
    _, _, _, _, load, reference = KINDS[kind]
    rows = [_good_row(kind), _good_row(kind)]
    rows[1][FIELDS[kind].index("interval")] = "2"
    rows[1][-1] = count
    path = _file(tmp_path, kind, rows)
    assert_same_store(load(path), reference(path))
    assert int(load(path).count[1]) == int(count)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("count", ["1" * 20, str(2**63), "0" * 11 + str(2**63), "9" * 30])
def test_counts_past_int64_rejected(tmp_path, kind, count):
    assert _reject(tmp_path, kind, "count", count) == f"line 3: {_message(kind, 'count', count)}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("token", ["a" * 14, "a" * 16, "A" * 15, "aaaaaaaaaaaaaaA", "Aaaaaaaaaaaaaaa"])
def test_hexes_of_the_wrong_width_or_case_rejected(tmp_path, kind, token):
    for j, field in enumerate(FIELDS[kind]):
        if field == "hex":
            header, row = (OD_HEADER, OD_ROW) if kind == "od" else (FOOTFALL_HEADER, FF_ROW)
            bad = list(row)
            bad[j] = token
            path = write(tmp_path / f"in{j}.csv", "\n".join([header, ",".join(row), ",".join(bad)]) + "\n")
            with pytest.raises(IngestError) as excinfo:
                (load_od if kind == "od" else load_footfall)(path)
            assert str(excinfo.value) == f"line 3: {_message(kind, field, token)}"


def _spliced(token, ch):
    """token with ch put after its first character, or ch alone for an empty token."""
    return token[:1] + ch + token[1:]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ch", ["é", "١", "\x00", "\t", "\x0b", "\x0c"])
def test_odd_characters_in_each_field_rejected(tmp_path, kind, ch):
    fields = FIELDS[kind]
    for j, field in enumerate(fields):
        if field == "hex" and j > 0:
            continue  # both hex fields hold the same id; the first bad one is named
        token = _spliced(_good_row(kind)[j], ch)
        assert _reject(tmp_path, kind, field, token) == f"line 3: {_message(kind, field, token)}"
    # the destination hex alone
    if kind == "od":
        header_row = _good_row(kind)
        bad = list(header_row)
        bad[1] = _spliced(bad[1], ch)
        path = _file(tmp_path, kind, [header_row, bad])
        with pytest.raises(IngestError) as excinfo:
            load_od(path)
        assert str(excinfo.value) == f"line 3: {_message(kind, 'hex', bad[1])}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("final_newline", [True, False])
def test_header_only_file_is_empty(tmp_path, kind, final_newline):
    _, _, _, _, load, reference = KINDS[kind]
    path = _file(tmp_path, kind, [], final_newline)
    store = load(path)
    assert len(store) == 0 and store.hex_ids == () and store.year is None
    assert_same_store(store, reference(path))


@pytest.mark.parametrize("kind", KINDS)
def test_line_of_only_commas(tmp_path, kind):
    n = len(FIELDS[kind])
    load = KINDS[kind][4]
    with pytest.raises(IngestError, match=r"^line 3: malformed hex id: ''$"):
        load(_file(tmp_path, kind, [_good_row(kind), [""] * n]))
    with pytest.raises(IngestError, match=rf"^line 3: expected {n} fields, got {n - 1}$"):
        load(_file(tmp_path, kind, [_good_row(kind), [""] * (n - 1)]))


@pytest.mark.parametrize("kind", KINDS)
def test_too_many_distinct_hexes(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(ingest, "_MAX_HEXES", 4)
    hexes = [f"{i:015x}" for i in range(1, 7)]
    tail = ["2025-06-01", "1", "worker", "5"]
    if kind == "od":
        # the fifth distinct id is the destination of line 4, then the origin of line 4
        rows = [[hexes[0], hexes[1], *tail], [hexes[2], hexes[3], *tail]]
        for last in ([hexes[0], hexes[4]], [hexes[4], hexes[0]]):
            with pytest.raises(IngestError, match=r"^line 4: too many distinct hexes for packed index$"):
                load_od(_file(tmp_path, kind, [*rows, [*last, *tail]]))
        assert len(load_od(_file(tmp_path, kind, [*rows, [hexes[3], hexes[0], *tail]])).hex_ids) == 4
    else:
        rows = [[h, *tail] for h in hexes[:4]]
        with pytest.raises(IngestError, match=r"^line 6: too many distinct hexes for packed index$"):
            load_footfall(_file(tmp_path, kind, [*rows, [hexes[4], *tail]]))
        assert len(load_footfall(_file(tmp_path, kind, rows)).hex_ids) == 4


# -- single-byte edits, and faults in later row blocks -------------------

@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """A few hundred rows of each kind: enough for many row blocks of 3."""
    config = synth.SynthConfig(seed=5, n_hexes=10, n_agents=20, month=(2025, 6), suppression_threshold=1)
    return synth.generate(config).write(tmp_path_factory.mktemp("small"))


def _outcome(load, path):
    try:
        return load(path)
    except IngestError as e:
        return e


def _reference_outcome(reference, text, path):
    """The reference's outcome on text, naming its earliest faulty line:
    the reference checks every line's field count before any token, so
    the file is cut before the line it names until it names no earlier."""
    got = _outcome(reference, write(path, text))
    while isinstance(got, IngestError) and got.line > 1:
        earlier = _outcome(reference, write(path, "\n".join(text.split("\n")[:got.line - 1]) + "\n"))
        if not isinstance(earlier, IngestError):
            break
        got = earlier
    return got


def _lenient_token(message):
    """Whether message rejects an interval or count token that int() reads:
    one with spaces around it, or an interval with a leading zero."""
    for kind in ("unknown interval index ", "positive integer, got ", "non-negative integer, got "):
        if kind in message:
            token = ast.literal_eval(message.split(kind, 1)[1])
            return token.strip().isdigit() and token != str(int(token))
    return False


def _same_outcome(got, want, text):
    """got, the loader's outcome, is want, the reference's: the same store,
    or an error at the same line that says the same in the loader's words."""
    if not isinstance(want, IngestError):
        if isinstance(got, IngestError):  # the reference reads some tokens int() reads
            assert _lenient_token(str(got).split(": ", 1)[1]), got
        else:
            assert_same_store(got, want)
        return
    assert isinstance(got, IngestError), want
    assert got.line == want.line, (got, want)
    said, means = str(got).split(": ", 1)[1], str(want).split(": ", 1)[1]
    if means.startswith("expected"):
        fields = text.split("\n")[got.line - 1].count(",") + 1
        assert said == f"{means}, got {fields}"
    elif means.startswith("bad count "):
        token = means.removeprefix("bad count ")
        assert said.endswith(f"integer, got {token}") or said.startswith(f"count {token} is above"), said
    elif means in ("bad header", "mixed months", "duplicate key", "duplicate footfall key"):
        assert said.startswith(means), said
    else:
        assert said == means


EDIT_BYTES = st.sampled_from([b",", b"\n", b"a", b"g", b" ", *(bytes([d]) for d in b"0123456789")])


@pytest.mark.parametrize("block_rows", [3, ingest._BLOCK_ROWS])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_single_byte_edit_matches_the_reference(small_world, tmp_path_factory, block_rows, kind, data):
    """One byte inserted, deleted or replaced anywhere in a valid file: the
    loader gives the reference's store, or rejects the line the reference
    rejects first, for the same reason. Replacing or deleting commas and
    line ends, or adding them, is how field-count faults are found now
    that the loader never looks for commas."""
    _, _, _, _, load, reference = KINDS[kind]
    raw = small_world[kind].read_bytes()
    at = data.draw(st.integers(0, len(raw)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"] if at < len(raw) else ["insert"]))
    byte = b"" if edit == "delete" else data.draw(EDIT_BYTES)
    edited = raw[:at] + byte + raw[at + (edit != "insert"):]
    tmp = tmp_path_factory.mktemp("edit")
    text = edited.decode("utf-8")
    want = _reference_outcome(reference, text, tmp / "ref.csv")
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        got = _outcome(load, write(tmp / "in.csv", text))
    _same_outcome(got, want, text)


def _block_rows(kind, n):
    """n distinct valid rows of the kind, for files of several row blocks:
    each of 120 hexes in turn (OD: each pair), then each day, then each
    interval."""
    hexes = [f"{i:015x}" for i in range(1, 121)]
    rows = []
    for i in range(n):
        hex_ids = [hexes[i % 120], hexes[i // 120 % 120]] if kind == "od" else [hexes[i % 120]]
        i //= 120 ** len(hex_ids)
        rows.append([*hex_ids, f"2025-06-{1 + i % 30:02d}", str(1 + i // 30), "all", str(1 + i)])
    return rows


@pytest.mark.parametrize("kind", KINDS)
def test_faults_in_later_row_blocks(tmp_path, kind):
    """A fault in the fourth row block is named; with faults in the second
    and fourth blocks, the earlier is, whatever the two are."""
    _, _, _, _, load, reference = KINDS[kind]
    n = len(FIELDS[kind])
    rows = _block_rows(kind, 3 * ingest._BLOCK_ROWS + 50)
    assert_same_store(load(_file(tmp_path, kind, rows)), reference(_file(tmp_path, kind, rows)))
    second, fourth = ingest._BLOCK_ROWS + 7, 3 * ingest._BLOCK_ROWS + 11  # row indices; file lines are + 2
    faults = {
        "user type": (n - 2, "commuter", _message(kind, "user_type", "commuter")),
        "count": (n - 1, "1x", _message(kind, "count", "1x")),
        "fields": (n - 1, "5,6", f"expected {n} fields, got {n + 1}"),
        "hex": (0, "g" * 15, _message(kind, "hex", "g" * 15)),
    }
    for first_name, (j, token, message) in faults.items():
        bad = [list(r) for r in rows]
        bad[fourth][j] = token
        with pytest.raises(IngestError) as excinfo:
            load(_file(tmp_path, kind, bad))
        assert str(excinfo.value) == f"line {fourth + 2}: {message}"
        for later_j, later_token, _ in faults.values():
            bad = [list(r) for r in rows]
            bad[second][j] = token
            bad[fourth][later_j] = later_token
            with pytest.raises(IngestError) as excinfo:
                load(_file(tmp_path, kind, bad))
            assert str(excinfo.value) == f"line {second + 2}: {message}", first_name


@pytest.mark.parametrize("kind", KINDS)
def test_hex_codes_survive_slot_collisions(small_world, kind, monkeypatch):
    """With every hex id hashed to one table slot, all but one miss the
    table every time and are numbered by the slow path: the store is the
    same."""
    _, _, _, _, load, reference = KINDS[kind]
    monkeypatch.setattr(ingest, "_MIX", (0, 0))
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 5)
    assert_same_store(load(small_world[kind]), reference(small_world[kind]))


def test_many_distinct_hexes_match_reference(tmp_path, monkeypatch):
    """Thousands of ids, new ones in every block, grow the hash table."""
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 512)
    rng = np.random.default_rng(3)
    ids = [f"{k:015x}" for k in rng.integers(0, 2**60, 3000, dtype=np.int64)]
    picks = rng.integers(0, 3000, 6000).tolist()
    rows = [[ids[i], "2025-06-01", str(1 + r % 9), "all", str(r)] for r, i in enumerate(picks)]
    unique = list({tuple(r[:4]): r for r in rows}.values())
    path = _file(tmp_path, "footfall", unique)
    store = load_footfall(path)
    assert len(store.hex_ids) > 2000
    assert_same_store(store, reference_load_footfall(path))
