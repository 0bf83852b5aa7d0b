"""Every subcommand's bytes, pinned: one table maps a command line to its
exit code and the sha256 of its stdout, its stderr and its `--out` tree.
A change that alters any of them on purpose re-records the row and says
why; one that alters them by accident fails here.

The world is `synth --seed 5 --hexes 80 --agents 900
--suppression-threshold 1` (154 diaries), plus a diff layer, an
attribute file with quoted values, a spaced config and a transactions
file whose items are split by spaces, tabs, vertical tabs and form feeds.
Help text is argparse's layout at 80 columns; it may differ between
Python versions."""

import hashlib
import random
from pathlib import Path

import pytest

from hexmob.cli import COMMANDS, main

WORLD = ["synth", "--seed", "5", "--hexes", "80", "--agents", "900", "--suppression-threshold", "1"]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    w = tmp_path_factory.mktemp("golden")
    assert main(WORLD + ["--out", str(w)]) == 0
    assert main(["diff", "--od", str(w / "od.csv"), "--a", "4", "--b", "7", "--out", str(w)]) == 0
    hexes = [line.partition(",")[0] for line in (w / "boundaries.csv").read_text().splitlines()[1:]]
    (w / "attrs.csv").write_text("hex,key,value\n" + "".join(
        f'{h},poi,"café, {i}"\n{h},tag,t{i}\n' for i, h in enumerate(hexes[::3])), encoding="utf-8")
    (w / "top.cfg").write_text("# a top five\n\n  k = 5 \n\trole\t=\torigin\t\n", encoding="utf-8")
    (w / "synth.cfg").write_text("seed=5\nhexes = 12\nagents=60\nthursday-weight = 1.5\n", encoding="utf-8")
    rng = random.Random(5)
    items = [f"i{k:02d}" for k in range(30)]
    (w / "txns.txt").write_text("".join(
        rng.choice([" ", "\t", "\x0b", "\x0c", "  "]).join(sorted(set(rng.choices(items, k=6)))) + "\n"
        for _ in range(300)), encoding="utf-8")
    return w, hexes[0]


E = "e3b0c44298fc1c14"  # sha256 of nothing
# stdout of `hexmob COMMAND --help`
HELP = {
    "ingest-check": "9adbf47a61cfafe2",
    "stats": "db4507d400115093",
    "homework": "58838a1c55310ec9",
    "diary": "8812c31154723bcd",
    "profile": "667ee4915d84d1e6",
    "dow": "e380ed92220a1170",
    "diff": "40d2e5d821c333d6",
    "topk": "82487f138f0fd23d",
    "synth": "65e8b35aec95b03e",
    "export-geojson": "a8ceb07b409d0155",
    "mine": "41ee78ffa8ec34ee",
}

# name -> (arguments after `hexmob`, exit code, stdout, stderr, --out tree),
# each digest the first 16 hex digits of a sha256; {w} is the world's
# directory, {out} a fresh output directory and {hex} the world's first hex
GOLDEN = {
    "help": (["--help"], 0, "0a9d4e183da0a715", E, E),
    **{f"{c}-help": ([c, "--help"], 0, HELP[c], E, E) for c in COMMANDS},
    "synth": (WORLD + ["--out", "{out}"],
              0, "07468416665e6e39", E, "419c462840e2e0bb"),
    "synth-floats": (["synth", "--seed", "3", "--hexes", "12", "--agents", "60",
                      "--thursday-weight", "1.25", "--weekend-fraction", "0.5", "--secondary-rate", "0.25",
                      "--resident-factor", "2", "--transient-factor", "1e-1", "--out", "{out}"],
                     0, "e2c30dbb14fb7127", E, "c670a099e6cf591c"),
    "synth-config": (["synth", "--config", "{w}/synth.cfg", "--out", "{out}"],
                     0, "8c6b7cb02a639cf5", E, "da506d2548cf9d44"),
    "ingest-check": (["ingest-check", "--od", "{w}/od.csv", "--ff", "{w}/footfall.csv"],
                     0, "c9b486fe9c69a141", E, E),
    "stats": (["stats", "--od", "{w}/od.csv"],
              0, "8196368d26b1fd1a", E, E),
    "stats-worker": (["stats", "--od", "{w}/od.csv", "--user-type", "worker", "--out", "{out}"],
                     0, E, E, "63a8cc7312e6460a"),
    "homework": (["homework", "--od", "{w}/od.csv"],
                 0, "dd934965a0971906", E, E),
    "diary": (["diary", "--od", "{w}/od.csv", "--ff", "{w}/footfall.csv", "--out", "{out}"],
              0, E, E, "6364e6b3e4a6fa18"),
    "diary-attrs": (["diary", "--od", "{w}/od.csv", "--weekday", "3", "--attrs", "{w}/attrs.csv", "--out", "{out}"],
                    0, E, E, "2a4a3c71b29ff480"),
    "profile": (["profile", "--od", "{w}/od.csv", "--hex", "{hex}", "--out", "{out}"],
                0, E, E, "18e659253313d12c"),
    "profile-origin": (["profile", "--od", "{w}/od.csv", "--hex", "{hex}", "--role", "origin"],
                       0, "e5c8643ed21712a8", E, E),
    "dow": (["dow", "--od", "{w}/od.csv", "--user-type", "worker"],
            0, "e9e3785a7d850cdf", E, E),
    "diff": (["diff", "--od", "{w}/od.csv", "--a", "2", "--b", "6", "--out", "{out}"],
             0, E, E, "362e3d47428d0965"),
    "topk": (["topk", "--od", "{w}/od.csv"],
             0, "0b4c772cad27f6bc", E, E),
    "topk-config": (["topk", "--od", "{w}/od.csv", "--config", "{w}/top.cfg"],
                    0, "98c67ed989a7f5a2", E, E),
    "export-geojson": (["export-geojson", "--layer", "{w}/diff_4_7.csv", "--boundaries", "{w}/boundaries.csv"],
                       0, "69e844f1cba88d0c", E, E),
    "mine": (["mine", "--transactions", "{w}/txns.txt", "--out", "{out}"],
             0, E, E, "5544ed910e2b9ef0"),
    "mine-support": (["mine", "--transactions", "{w}/txns.txt", "--min-support", "20"],
                     0, "29e107219b33732d", E, E),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _tree(out: Path) -> str:
    """Digest over a directory: per file, its name, a newline and its
    bytes, in name order; that of nothing when there is no directory."""
    digest = hashlib.sha256()
    for f in sorted(out.rglob("*")) if out.exists() else []:
        digest.update(f.name.encode() + b"\n" + f.read_bytes())
    return digest.hexdigest()[:16]


def run(world, argv, out, capsys, monkeypatch) -> tuple:
    """(exit code, stdout, stderr, --out tree) digests of one command line."""
    w, first_hex = world
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main([a.format(w=w, out=out, hex=first_hex) for a in argv])
    except SystemExit as e:  # --help and usage errors
        rc = e.code
    captured = capsys.readouterr()
    return rc, _sha(captured.out.encode()), _sha(captured.err.encode()), _tree(out)


@pytest.mark.parametrize("name", GOLDEN)
def test_bytes_match_the_record(world, tmp_path, capsys, monkeypatch, name):
    argv, *want = GOLDEN[name]
    assert run(world, argv, tmp_path / "out", capsys, monkeypatch) == tuple(want)


def test_every_subcommand_is_pinned():
    """Each subcommand has a row of its own besides its --help."""
    assert {argv[0] for argv, *_ in GOLDEN.values() if "--help" not in argv} == set(COMMANDS)
