"""Every input file is read by ingest.read_input, so every reader keeps the
same file rules (README "File formats"): a byte-order mark is skipped, CR
and CRLF end a line as LF does, a missing file is named, and a byte that is
not UTF-8 is named at its line. One table runs each rule over all seven
readers through the CLI, where each message starts with the option that
names the file, and another holds each reader's verdict on NBSP, U+2028,
\\x1c, vertical tab, form feed, tab and a quote (README "Tokens"). Every
output file is written through ingest.write_output. Six ast guards keep
file reads and file writes inside ingest, keep the CLI's readers behind
cli._read, keep every module off the garbage collector's process-wide
switches and off Unicode's whitespace, and keep every import in use."""

import ast
import hashlib
from pathlib import Path

import pytest

import hexmob
from hexmob.cli import load_config, main
from hexmob.diaries import load_attributes
from hexmob.geo import load_boundaries, load_layer
from hexmob.ingest import load_footfall, load_od, write_output
from hexmob.mining import read_transactions


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("readers")
    assert main(["synth", "--seed", "77", "--hexes", "12", "--agents", "120",
                 "--suppression-threshold", "1", "--out", str(out)]) == 0
    (out / "layer.csv").write_text(_layer(out))  # the layer the boundaries reader exports
    return out


def _hexes(world):
    return [line.split(",")[0] for line in (world / "boundaries.csv").read_text().splitlines()[1:]]


def _layer(world):
    a, b, c = _hexes(world)[:3]
    return f"hex,value\n{a},1.5\n{b},-2\n\n{c},1e-05\n"


def _attrs(world):
    return "hex,key,value\n" + "".join(
        f'{h},poi,"café, {i}"\n{h},tag,t{i}\n' for i, h in enumerate(_hexes(world))
    )


# reader -> (valid text of the world, command reading the file at path,
# prefix of its messages: the option that names the file)
READERS = {
    "od": (
        lambda w: (w / "od.csv").read_text(),
        lambda w, path: ["ingest-check", "--od", path],
        "od ",
    ),
    "footfall": (
        lambda w: (w / "footfall.csv").read_text(),
        lambda w, path: ["ingest-check", "--ff", path],
        "ff ",
    ),
    "boundaries": (
        lambda w: (w / "boundaries.csv").read_text(),
        lambda w, path: ["export-geojson", "--layer", str(w / "layer.csv"), "--boundaries", path],
        "boundaries ",
    ),
    "layer": (
        _layer,
        lambda w, path: ["export-geojson", "--layer", path, "--boundaries", str(w / "boundaries.csv")],
        "layer ",
    ),
    "attrs": (
        _attrs,
        lambda w, path: ["diary", "--od", str(w / "od.csv"), "--weekday", "2", "--attrs", path],
        "attrs ",
    ),
    "config": (
        lambda w: "# a top 3\n\nk=3\nrole = origin\n",
        lambda w, path: ["topk", "--od", str(w / "od.csv"), "--config", path],
        "config ",
    ),
    "transactions": (
        lambda w: "a b c\n\nb cé\na b cé\n",
        lambda w, path: ["mine", "--transactions", path, "--min-support", "2"],
        "transactions ",
    ),
}


def _run(world, reader, path, out, capsys):
    """(exit code, stdout, stderr, digest of the --out tree) of the reader's
    command on the file at path."""
    rc = main(READERS[reader][1](world, str(path)) + ["--out", str(out)])
    captured = capsys.readouterr()
    digest = hashlib.sha256()
    for f in sorted(Path(out).rglob("*")):
        digest.update(f.name.encode() + b"\n" + f.read_bytes())
    return rc, captured.out, captured.err, digest.hexdigest()


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("variant", ["bom", "crlf", "cr"])
def test_bom_and_line_ends_read_as_lf(world, tmp_path, capsys, reader, variant):
    raw = READERS[reader][0](world).encode("utf-8")
    plain = tmp_path / "plain"
    plain.write_bytes(raw)
    want = _run(world, reader, plain, tmp_path / "want", capsys)
    assert want[0] == 0, want[2]
    variants = {
        "bom": b"\xef\xbb\xbf" + raw,
        "crlf": raw.replace(b"\n", b"\r\n"),
        "cr": raw.replace(b"\n", b"\r"),
    }
    other = tmp_path / "other"
    other.write_bytes(variants[variant])
    assert _run(world, reader, other, tmp_path / "got", capsys) == want


@pytest.mark.parametrize("reader", READERS)
def test_missing_file_is_named(world, tmp_path, capsys, reader):
    missing = tmp_path / "absent.txt"
    rc, out, err, _ = _run(world, reader, missing, tmp_path / "out", capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {READERS[reader][2]}no such file: {missing}\n"


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_non_utf8_byte_named_at_its_line(world, tmp_path, capsys, reader, end):
    lines = READERS[reader][0](world).split("\n")
    lines[2] = "\udcff" + lines[2]  # surrogateescape writes it as the byte 0xff
    bad = tmp_path / "bad"
    bad.write_bytes(end.join(lines).encode("utf-8", "surrogateescape"))
    rc, out, err, _ = _run(world, reader, bad, tmp_path / "out", capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {READERS[reader][2]}line 3: not UTF-8: byte 0xff (invalid start byte)\n"


def _mode_has(call: ast.Call, mode_at: int, letters: str) -> bool:
    """Whether an open call's mode (positional argument mode_at, or the
    mode keyword; "r" when absent) can hold one of letters: a constant
    holding one, or any mode not known until run time."""
    mode = call.args[mode_at] if len(call.args) > mode_at else ast.Constant("r")
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in letters)


def _package_nodes():
    """(module file name, node) for every ast node of every hexmob module."""
    package = Path(hexmob.__file__).parent
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            yield module.name, node


def _file_calls(methods: tuple, letters: str) -> list:
    """module:line of every call outside ingest to one of methods, or to an
    open whose mode can hold one of letters."""
    found = []
    for module, node in _package_nodes():
        if module == "ingest.py" or not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name in methods:
            found.append(f"{module}:{node.lineno} {name}")
        elif name == "open" and _mode_has(node, 0 if isinstance(fn, ast.Attribute) else 1, letters):
            found.append(f"{module}:{node.lineno} open")
    return found


def test_only_ingest_reads_files():
    """The front door: no module but ingest reads a file itself."""
    assert _file_calls(("read_bytes", "read_text"), "r+") == []


def test_only_ingest_writes_files():
    """The back door: no module but ingest opens a file to write or append
    to it, or writes one whole."""
    assert _file_calls(("write_bytes", "write_text"), "wax+") == []


# the reader of each file option of the CLI
CLI_READERS = {"load_od", "load_footfall", "load_attributes", "load_boundaries", "load_layer",
               "read_transactions", "load_config"}


def test_cli_reads_files_only_through_read():
    """cli calls no reader itself: each is only passed to cli._read, so
    every file fault starts with the option naming the file."""
    tree = ast.parse((Path(hexmob.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    passed, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read" and len(node.args) > 2:
            passed.add(id(node.args[2]))
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CLI_READERS:
            found.append((name, id(node) in passed, node.lineno))
    assert {name for name, _, _ in found} == CLI_READERS
    assert [f"cli.py:{line} {name}" for name, ok, line in found if not ok] == []


def test_write_output_writes_lf(tmp_path):
    path = tmp_path / "out.txt"
    with write_output(path) as fh:
        fh.write("a\nb\n")
    assert path.read_bytes() == b"a\nb\n"


GC_SWITCHES = ("disable", "freeze", "set_threshold")


def test_no_module_switches_the_collector():
    """No module disables, freezes or retunes the cyclic garbage collector:
    that state belongs to the whole process, not to a library call. Neither
    a gc.<switch>() call nor a from-gc import of a switch may appear."""
    found = []
    for module, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"{module}:{node.lineno} from gc import {a.name}"
                      for a in node.names if a.name in GC_SWITCHES]
        elif (isinstance(node, ast.Attribute) and node.attr in GC_SWITCHES
              and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            found.append(f"{module}:{node.lineno} gc.{node.attr}")
    assert found == []


@pytest.mark.parametrize("reader", READERS)
def test_directory_is_one_error_line(world, tmp_path, capsys, reader):
    """A directory where a file belongs ends in one `error:` line naming it
    and carrying the reader's prefix, never a traceback."""
    folder = tmp_path / "folder"
    folder.mkdir()
    rc, out, err, _ = _run(world, reader, folder, tmp_path / "out", capsys)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {READERS[reader][2]}") and err.count("\n") == 1 and err.endswith("\n")
    assert str(folder) in err


# the characters of the verdict table below, in its column order
CHARACTERS = {"NBSP": "\u00a0", "U+2028": "\u2028", "x1c": "\x1c", "VT": "\x0b", "FF": "\x0c",
              "tab": "\t", "quote": '"'}
H = "0123456789abcde"

# (reader, where the character goes) -> (the file, {c} standing for the
# character; the library call that reads it; the value read at the token)
PROBES = {
    ("od", "beside count"): ("origin_hex,destination_hex,date,interval,user_type,count\n"
                             f"{H},{H},2025-06-02,1,worker,5{{c}}\n", load_od, len),
    ("footfall", "beside count"): ("hex,date,interval,user_type,count\n"
                                   f"{H},2025-06-02,1,worker,5{{c}}\n", load_footfall, len),
    ("boundaries", "between lon and lat"): (f"hex,ring\n{H},1{{c}}0;0 1;0 0\n", load_boundaries,
                                            lambda rings: rings[H][0]),
    ("boundaries", "beside lat"): (f"hex,ring\n{H},0 0;1 0{{c}};0 1\n", load_boundaries,
                                   lambda rings: rings[H][1]),
    ("layer", "beside value"): (f"hex,value\n{H},1.5{{c}}\n", load_layer, lambda layer: layer[H]),
    ("attrs", "inside value"): (f"hex,key,value\n{H},poi,caf{{c}}e\n", load_attributes,
                                lambda attrs: attrs[H]["poi"]),
    ("config", "beside value"): ("k={c}3\n", load_config, lambda cfg: cfg["k"]),
    ("config", "beside key"): ("{c}k=3\n", load_config, lambda cfg: cfg["k"]),
    ("transactions", "between items"): ("a{c}b c\n", read_transactions,
                                        lambda txns: sorted(txns[0].items)),
}

# probe -> character -> the value read, or the `error:` line
VERDICTS = {
    ("od", "beside count"): {
        "NBSP": "error: od line 2: count must be a positive integer, got '5\\xa0'\n",
        "U+2028": "error: od line 2: count must be a positive integer, got '5\\u2028'\n",
        "x1c": "error: od line 2: count must be a positive integer, got '5\\x1c'\n",
        "VT": "error: od line 2: count must be a positive integer, got '5\\x0b'\n",
        "FF": "error: od line 2: count must be a positive integer, got '5\\x0c'\n",
        "tab": "error: od line 2: count must be a positive integer, got '5\\t'\n",
        "quote": 'error: od line 2: count must be a positive integer, got \'5"\'\n',
    },
    ("footfall", "beside count"): {
        "NBSP": "error: ff line 2: count must be a non-negative integer, got '5\\xa0'\n",
        "U+2028": "error: ff line 2: count must be a non-negative integer, got '5\\u2028'\n",
        "x1c": "error: ff line 2: count must be a non-negative integer, got '5\\x1c'\n",
        "VT": "error: ff line 2: count must be a non-negative integer, got '5\\x0b'\n",
        "FF": "error: ff line 2: count must be a non-negative integer, got '5\\x0c'\n",
        "tab": "error: ff line 2: count must be a non-negative integer, got '5\\t'\n",
        "quote": 'error: ff line 2: count must be a non-negative integer, got \'5"\'\n',
    },
    ("boundaries", "between lon and lat"): {
        "NBSP": "error: boundaries line 2: bad ring point '1\\xa00'\n",
        "U+2028": "error: boundaries line 2: bad ring point '1\\u20280'\n",
        "x1c": "error: boundaries line 2: bad ring point '1\\x1c0'\n",
        "VT": (1.0, 0.0),
        "FF": (1.0, 0.0),
        "tab": (1.0, 0.0),
        "quote": 'error: boundaries line 2: bad ring point \'1"0\'\n',
    },
    ("boundaries", "beside lat"): {
        "NBSP": "error: boundaries line 2: bad ring point '1 0\\xa0': bad value '0\\xa0', not a plain decimal\n",
        "U+2028": "error: boundaries line 2: bad ring point '1 0\\u2028': bad value '0\\u2028', not a plain decimal\n",
        "x1c": "error: boundaries line 2: bad ring point '1 0\\x1c': bad value '0\\x1c', not a plain decimal\n",
        "VT": (1.0, 0.0),
        "FF": (1.0, 0.0),
        "tab": (1.0, 0.0),
        "quote": 'error: boundaries line 2: bad ring point \'1 0"\': bad value \'0"\', not a plain decimal\n',
    },
    ("layer", "beside value"): {
        "NBSP": "error: layer line 2: bad value '1.5\\xa0', not a plain decimal\n",
        "U+2028": "error: layer line 2: bad value '1.5\\u2028', not a plain decimal\n",
        "x1c": "error: layer line 2: bad value '1.5\\x1c', not a plain decimal\n",
        "VT": 1.5,
        "FF": 1.5,
        "tab": 1.5,
        "quote": 'error: layer line 2: bad value \'1.5"\', not a plain decimal\n',
    },
    ("attrs", "inside value"): {
        "NBSP": "caf\xa0e",
        "U+2028": "caf\u2028e",
        "x1c": "caf\x1ce",
        "VT": "caf\x0be",
        "FF": "caf\x0ce",
        "tab": "caf\te",
        "quote": 'caf"e',
    },
    ("config", "beside value"): {
        "NBSP": "error: config line 1: k must be int, got '\\xa03'\n",
        "U+2028": "error: config line 1: k must be int, got '\\u20283'\n",
        "x1c": "error: config line 1: k must be int, got '\\x1c3'\n",
        "VT": 3,
        "FF": 3,
        "tab": 3,
        "quote": 'error: config line 1: k must be int, got \'"3\'\n',
    },
    ("config", "beside key"): {
        "NBSP": "error: config line 1: unknown key '\\xa0k'\n",
        "U+2028": "error: config line 1: unknown key '\\u2028k'\n",
        "x1c": "error: config line 1: unknown key '\\x1ck'\n",
        "VT": 3,
        "FF": 3,
        "tab": 3,
        "quote": 'error: config line 1: unknown key \'"k\'\n',
    },
    ("transactions", "between items"): {
        "NBSP": ["a\xa0b", "c"],
        "U+2028": ["a\u2028b", "c"],
        "x1c": ["a\x1cb", "c"],
        "VT": ["a", "b", "c"],
        "FF": ["a", "b", "c"],
        "tab": ["a", "b", "c"],
        "quote": ['a"b', "c"],
    },
}


def _verdict(world, tmp_path, capsys, probe, c):
    """The `error:` line of the reader's command on the probe's file with
    character c, or, when the command succeeds, the value the library
    reads at the probe's token."""
    text, read, value = PROBES[probe]
    path = tmp_path / f"probe{ord(c)}"
    path.write_text(text.format(c=c), encoding="utf-8")
    rc, out, err, _ = _run(world, probe[0], path, tmp_path / f"out{ord(c)}", capsys)
    return err if rc else value(read(path))


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: "-".join(probe).replace(" ", "_"))
def test_reader_character_verdicts(world, tmp_path, capsys, probe):
    """One table of what each reader makes of each character that str.split()
    would take for whitespace, and of a quote (README "Tokens")."""
    got = {name: _verdict(world, tmp_path, capsys, probe, c) for name, c in CHARACTERS.items()}
    assert got == VERDICTS[probe]


# str and bytes methods that split or strip at Unicode's whitespace when
# given no separator or characters, or None; the last two always do
UNICODE_SPACE_METHODS = ("split", "rsplit", "strip", "lstrip", "rstrip", "splitlines", "isspace")


def test_no_unicode_whitespace_rule():
    """No module splits, strips or tests at Unicode's whitespace, which
    holds NBSP, U+2028 and \\x1c: every such call names its characters
    (model.SPACE, model.words), and no pattern holds \\s or \\S."""
    found = []
    for module, node in _package_nodes():
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in UNICODE_SPACE_METHODS:
            name = node.func.attr
            given = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg in ("sep", "chars")), None)
            if name in ("splitlines", "isspace") or given is None or getattr(given, "value", 0) is None:
                found.append(f"{module}:{node.lineno} {name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            text = node.value if isinstance(node.value, str) else node.value.decode("latin-1")
            if "\\s" in text or "\\S" in text:
                found.append(f"{module}:{node.lineno} {text!r}")
    assert found == []


def test_every_import_is_used():
    """Every name a hexmob module imports is read somewhere in it (in
    __init__, listing it in __all__ counts), so a deletion leaves no
    orphaned import behind."""
    imported, used = set(), set()
    for module, node in _package_nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((module, a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add((module, node.id))
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update((module, name) for name in ast.literal_eval(node.value))
    assert sorted(imported - used) == []
