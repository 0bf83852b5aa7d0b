import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hexmob
from hexmob.analytics import fmt_float
from hexmob import cli
from hexmob.cli import build_parser, main
from hexmob.geo import validate_geojson
from hexmob.homework import detect_home_work, export_pairs_csv
from hexmob.ingest import IngestError, load_od
from hexmob.synth import SynthConfig


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cliworld")
    rc = main([
        "synth", "--seed", "77", "--hexes", "12", "--agents", "120",
        "--suppression-threshold", "1", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def od_csv(world_dir):
    return str(world_dir / "od.csv")


class TestSynthCommand:
    def test_writes_world_and_reports(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "5", "--hexes", "10", "--agents", "48",
                   "--out", str(tmp_path)])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("od_records=") and "pairs=" in line
        for name in ("od.csv", "footfall.csv", "ledger.json", "boundaries.csv"):
            assert (tmp_path / name).exists()
        counts = dict(field.split("=") for field in line.split())
        for key, name in (("od_records", "od.csv"), ("ff_records", "footfall.csv")):
            data_lines = len((tmp_path / name).read_text(encoding="utf-8").splitlines()) - 1
            assert int(counts[key]) == data_lines > 0

    def test_hexes_past_the_load_limit_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "D"
        rc = main(["synth", "--seed", "1", "--hexes", "2097153", "--agents", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: n_hexes must be 10..2097152\n")
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: missing required option --seed")

    @pytest.mark.parametrize("flag", ["--thursday-weight", "--resident-factor"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_rate_rejected(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--seed", "1", flag, value, "--out", str(tmp_path / "w")])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid float value: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--resident-factor", "1e300"), ("--agents", "100000000"), ("--thursday-weight", "1e17"),
    ])
    def test_huge_population_exits_quickly(self, tmp_path, flag, value):
        # a subprocess under a timeout, so that a generator that never returns fails the test
        src = str(Path(hexmob.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hexmob.cli import main; sys.exit(main(sys.argv[1:]))",
             "synth", "--seed", "1", flag, value, "--out", str(tmp_path / "w")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: population of n_agents=")
        assert not (tmp_path / "w").exists()

    def test_python_m_hexmob_runs_the_cli(self):
        src = str(Path(hexmob.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "hexmob", "--help"], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        )
        assert done.returncode == 0
        assert done.stdout.startswith("usage: hexmob ")

    def test_runs_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth", "--seed", "9", "--hexes", "10", "--agents", "30",
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("od.csv", "footfall.csv", "ledger.json", "boundaries.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestIngestCheck:
    def test_summarizes_both_files(self, world_dir, capsys):
        rc = main(["ingest-check", "--od", str(world_dir / "od.csv"),
                   "--ff", str(world_dir / "footfall.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("od: ")
        assert "30 days (2025-06-01..2025-06-30)" in out
        assert "\nfootfall: " in out

    def test_no_inputs_is_an_error(self, capsys):
        rc = main(["ingest-check"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: nothing to check")

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["ingest-check", "--od", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"origin_hex,destination_hex,date,interval,user_type,count\n\xff\n")
        assert main(["ingest-check", "--od", str(p)]) == 1
        assert capsys.readouterr().err == "error: od line 2: not UTF-8: byte 0xff (invalid start byte)\n"

    def test_corrupt_file_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("origin_hex,destination_hex,date,interval,user_type,count\n"
                     "xyz,aaaaaaaaaaaaaa1,2025-06-01,1,worker,5\n")
        rc = main(["ingest-check", "--od", str(p)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,header,prefix", [
        ("--od", "origin_hex,destination_hex,date,interval,user_type,count",
         "aaaaaaaaaaaaaa1,aaaaaaaaaaaaaa2,2025-06-01,1,worker"),
        ("--ff", "hex,date,interval,user_type,count", "aaaaaaaaaaaaaa1,2025-06-01,1,worker"),
    ])
    def test_count_past_int64_names_line(self, capsys, tmp_path, flag, header, prefix):
        p = tmp_path / "big.csv"
        p.write_text(f"{header}\n{prefix},99999999999999999999\n")
        rc = main(["ingest-check", flag, str(p)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {flag[2:]} line 2: count '99999999999999999999' is above the int64 maximum "
            "9223372036854775807\n"
        )


class TestErrorLines:
    """An `error:` line repeats at most cli.ERROR_CHARS characters of its
    message and then an ellipsis, so a huge field in an input cannot make a
    huge line; the library's exception keeps the whole text."""

    BIG = "a" * 5_000_000

    def test_huge_hex_field(self, tmp_path, capsys):
        p = tmp_path / "od.csv"
        p.write_text(f"origin_hex,destination_hex,date,interval,user_type,count\n"
                     f"{self.BIG},aaaaaaaaaaaaaa1,2025-06-01,1,worker,5\n")
        assert main(["ingest-check", "--od", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: od line 2: malformed hex id: 'aaa") and err.endswith("a…\n")
        assert err.count("\n") == 1 and len(err.encode()) <= 1100
        with pytest.raises(IngestError) as excinfo:
            load_od(p)
        assert len(str(excinfo.value)) > 5_000_000

    def test_huge_config_value(self, od_csv, tmp_path, capsys):
        p = tmp_path / "run.conf"
        p.write_text(f"min_days={self.BIG}\n")
        assert main(["stats", "--od", od_csv, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config line 1:") and err.endswith("a…\n")
        assert err.count("\n") == 1 and len(err.encode()) <= 1100

    @pytest.mark.parametrize("key_chars, cut", [(971, False), (972, True)])
    def test_cut_only_past_the_limit(self, od_csv, tmp_path, capsys, key_chars, cut):
        # "config line 1: unknown key 'K'" is 29 characters besides K
        key = "k" * key_chars
        p = tmp_path / "run.conf"
        p.write_text(f"{key}=1\n")
        assert main(["stats", "--od", od_csv, "--config", str(p)]) == 1
        message = f"config line 1: unknown key '{key}'"
        want = message[:cli.ERROR_CHARS] + "…" if cut else message
        assert capsys.readouterr().err == f"error: {want}\n"
        assert len(message) == cli.ERROR_CHARS + cut

    def test_huge_usage_error(self, capsys):
        # argparse prints a usage error itself; its parsers cut it as main does
        with pytest.raises(SystemExit) as excinfo:
            main(["topk", "--od", "x.csv", "--k", self.BIG])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --k: invalid int value: 'aaa" in err and err.endswith("a…\n")
        assert len(err.encode()) < 2000


class TestStats:
    def test_stdout_format(self, od_csv, capsys):
        rc = main(["stats", "--od", od_csv, "--user-type", "worker"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "user_type,count,mean,std,min,max"
        fields = lines[1].split(",")
        assert fields[0] == "worker"
        assert int(fields[1]) > 0

    def test_out_dir(self, od_csv, tmp_path):
        rc = main(["stats", "--od", od_csv, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "stats.csv").read_text().splitlines()[1].startswith("all,")

    def test_bad_user_type(self, od_csv, capsys):
        rc = main(["stats", "--od", od_csv, "--user-type", "commuter"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown OD user type 'commuter', expected all|worker\n"


class TestHomework:
    def test_pairs_match_library_and_ledger(self, world_dir, od_csv, tmp_path):
        rc = main(["homework", "--od", od_csv, "--min-days", "1", "--out", str(tmp_path)])
        assert rc == 0
        got = (tmp_path / "pairs.csv").read_text()

        store = load_od(od_csv, user_type_filter="worker")
        expect = io.StringIO()
        export_pairs_csv(detect_home_work(store, min_days=1), expect)
        assert got == expect.getvalue()

        ledger = json.loads((world_dir / "ledger.json").read_text())
        planted = {(p["home"], p["work"]) for p in ledger["pairs"]}
        rows = got.splitlines()[1:]
        assert {tuple(r.split(",")[:2]) for r in rows} == planted

    def test_min_days_over_month_length_empty(self, od_csv, capsys):
        rc = main(["homework", "--od", od_csv, "--min-days", "31"])
        assert rc == 0
        assert capsys.readouterr().out == "home_hex,work_hex,qualifying_days\n"

    def test_stdout_when_no_out(self, od_csv, capsys):
        rc = main(["homework", "--od", od_csv])
        assert rc == 0
        assert capsys.readouterr().out.startswith("home_hex,work_hex,qualifying_days")


# the message of each option's rule, the one a flag and a config line give
RULES = {
    "user_type": "unknown OD user type 'bogus', expected all|worker",
    "role": "role must be 'origin' or 'destination', got 'bogus'",
    "min_days": "min_days must be >= 1",
    "min_support": "min_support must be >= 1",
    "k": "k must be >= 1",
    "weekday": "weekday must be 1..7",
    "seed": "seed must be 0..18446744073709551615",
    "hexes": "n_hexes must be 10..2097152",
    "agents": "n_agents must be >= 1",
    "year": "year must be 1..9999",
    "month": "month must be 1..12",
    "thursday_weight": "thursday_weight must be >= 0",
    "weekend_fraction": "weekend_worker_fraction must be 0..1",
    "secondary_rate": "secondary_activity_rate must be 0..1",
    "suppression_threshold": "suppression_threshold must be >= 1",
    "resident_factor": "resident_factor must be >= 0",
    "transient_factor": "transient_factor must be >= 0",
}


class TestConfigFile:
    def test_config_supplies_option(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# pair detection\nmin-days=31\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out == "home_hex,work_hex,qualifying_days\n"

    def test_flag_beats_config(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_days=31\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg), "--min-days", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) > 1

    def test_config_can_supply_input_path(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"od={od_csv}\nuser-type=worker\n")
        rc = main(["stats", "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("worker,")

    def test_bad_config_line(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_days\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        assert "config line 1" in capsys.readouterr().err

    def test_unknown_key_names_line(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# typo below\nmin_dayz=3\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: config line 2: unknown key 'min_dayz'\n"

    def test_key_of_another_subcommand_allowed(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-days=31\nhexes=20\nthursday-weight=2\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out == "home_hex,work_hex,qualifying_days\n"

    @pytest.mark.parametrize("second", ["min_days=2", "min-days = 2"])
    def test_repeated_key_names_both_lines(self, od_csv, tmp_path, capsys, second):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"min_days=31\n# again\n{second}\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config line 3: key 'min_days' already set at line 1\n"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["homework"], "min_days=abc", "config line 2: min_days must be int, got 'abc'"),
            (["topk"], "k=1e3", "config line 2: k must be int, got '1e3'"),
        ],
    )
    def test_bad_value_names_key_and_line(self, od_csv, tmp_path, capsys, argv, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# typed values\n{text}\n")
        rc = main(argv + ["--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_utf8_config_names_line(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"min_days=2\n\xff=3\n")
        rc = main(["homework", "--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config line 2: not UTF-8: byte 0xff (invalid start byte)\n"

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_only_lf_cr_crlf_end_a_line(self, od_csv, tmp_path, capsys, sep):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"k=5{sep}\nmin_dayz=3\n".encode("utf-8"))
        assert main(["homework", "--od", od_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config line 2: unknown key 'min_dayz'\n"
        cfg.write_bytes(f"min_days=2{sep}min_dayz=3\n".encode("utf-8"))
        assert main(["homework", "--od", od_csv, "--config", str(cfg)]) == 1
        value = f"2{sep}min_dayz=3"
        assert capsys.readouterr().err == f"error: config line 1: min_days must be int, got {value!r}\n"

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
    def test_line_ends_counted_as_in_csv(self, od_csv, tmp_path, capsys, end):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"k=5{end}{end}# note{end}min_dayz=3{end}".encode())
        assert main(["homework", "--od", od_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config line 4: unknown key 'min_dayz'\n"

    # (command line, config line, message): every option with a rule,
    # set out of range in a config file
    VALUE_RULES = [
        (["homework"], "user_type=bogus", RULES["user_type"]),
        (["stats"], "user-type = Worker", "unknown OD user type 'Worker', expected all|worker"),
        (["dow"], "role=bogus", RULES["role"]),
        (["homework"], "min_days=0", RULES["min_days"]),
        (["diary"], "min_support=0", RULES["min_support"]),
        (["diary"], "min-support=-2", RULES["min_support"]),
        (["diary"], "min_support=two", "min_support must be int, got 'two'"),
        (["topk"], "k=0", RULES["k"]),
        # checked as the file loads, whether or not the command reads the key
        (["homework"], "role=bogus", RULES["role"]),
        (["homework", "--min-days", "3"], "min_days=0", RULES["min_days"]),
        (["diary"], "weekday=9", RULES["weekday"]),
        (["diff"], "a=9", RULES["weekday"]),
        (["diff", "--a", "1"], "b=0", RULES["weekday"]),
        (["homework"], "seed=-1", RULES["seed"]),
        (["homework"], "hexes=5", RULES["hexes"]),
        (["stats"], "agents=0", RULES["agents"]),
        (["dow"], "year=10000", RULES["year"]),
        (["topk"], "month=13", RULES["month"]),
        (["diary"], "thursday-weight=-0.5", RULES["thursday_weight"]),
        (["homework"], "weekend_fraction=2", RULES["weekend_fraction"]),
        (["homework"], "secondary_rate=-0.1", RULES["secondary_rate"]),
        (["homework"], "suppression_threshold=0", RULES["suppression_threshold"]),
        (["homework"], "resident_factor=-1", RULES["resident_factor"]),
        (["homework"], "transient_factor=-0.5", RULES["transient_factor"]),
    ]

    @pytest.mark.parametrize("argv, text, message", VALUE_RULES)
    def test_value_rules_name_line_and_key(self, od_csv, tmp_path, capsys, argv, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# checked values\n{text}\n")
        rc = main(argv + ["--od", od_csv, "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config line 2: {message}\n"

    def test_mine_min_support_rule(self, tmp_path, capsys):
        (tmp_path / "t.txt").write_text("a b\na\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_support=0\n")
        rc = main(["mine", "--transactions", str(tmp_path / "t.txt"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: config line 1: min_support must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["homework", "--user-type", "bogus"], RULES["user_type"]),
            (["homework", "--min-days", "0"], RULES["min_days"]),
            (["diary", "--min-support", "0", "--min-days", "1"], RULES["min_support"]),
            (["topk", "--k", "0"], RULES["k"]),
            (["diary", "--weekday", "9"], RULES["weekday"]),
            (["diff", "--a", "9", "--b", "1"], RULES["weekday"]),
            (["diff", "--a", "1", "--b", "0"], RULES["weekday"]),
            (["synth", "--seed", "-1"], RULES["seed"]),
            (["synth", "--seed", "1", "--hexes", "5"], RULES["hexes"]),
            (["synth", "--seed", "1", "--agents", "0"], RULES["agents"]),
            (["synth", "--seed", "1", "--year", "0"], RULES["year"]),
            (["synth", "--seed", "1", "--month", "13"], RULES["month"]),
            (["synth", "--seed", "1", "--thursday-weight", "-0.5"], RULES["thursday_weight"]),
            (["synth", "--seed", "1", "--weekend-fraction", "2"], RULES["weekend_fraction"]),
            (["synth", "--seed", "1", "--secondary-rate", "1.5"], RULES["secondary_rate"]),
            (["synth", "--seed", "1", "--suppression-threshold", "0"], RULES["suppression_threshold"]),
            (["synth", "--seed", "1", "--resident-factor", "-1"], RULES["resident_factor"]),
            (["synth", "--seed", "1", "--transient-factor", "-0.5"], RULES["transient_factor"]),
        ],
    )
    def test_flag_values_keep_their_messages(self, od_csv, tmp_path, capsys, argv, message):
        # a --role outside its choices is argparse's usage error, see TestUsageErrors
        od = [] if argv[0] == "synth" else ["--od", od_csv]
        assert main(argv + od + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_every_rule_is_tabled(self):
        tabled = {text.partition("=")[0].strip().replace("-", "_") for _, text, _ in self.VALUE_RULES}
        assert {name for name, option in cli.OPTIONS.items() if option.rule} == tabled

    def test_each_range_message_is_written_once(self):
        src = Path(hexmob.__file__).parent
        lines = [(f"{path.name}:{n}", line) for path in sorted(src.glob("*.py"))
                 for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)]
        # a bound spelled, or templated after a comparison, after `must be` is a copy of a range
        assert [at for at, line in lines if re.search(r"must be (?:-?[0-9]|[<>]=? ?[-0-9{])", line)] == []
        template = [at for at, line in lines if "must be {span}" in line]
        assert len(template) == 1 and template[0].startswith("model.py:"), template
        # a record is named as a file line is, before its message
        assert [at for at, line in lines if re.search("_CONFIG_RULES|_AT_LEAST_1|at record", line)] == []

    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0661\u0660", "3.0"])
    def test_integers_are_ascii_digits(self, od_csv, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k={text}\n")
        assert main(["topk", "--od", od_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: config line 1: k must be int, got {text!r}\n"
        cfg.write_text(f"min_days={text}\n")
        assert main(["homework", "--od", od_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: config line 1: min_days must be int, got {text!r}\n"

    def test_space_around_a_value_is_config_syntax(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k= 3\n")
        assert main(["topk", "--od", od_csv, "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # header and a top 3

    @pytest.mark.parametrize("text", ["k=3", "k = 3", "k=\t3", "\tk\t=\t3\t", " k=3 "])
    def test_ascii_space_and_tab_around_key_and_value(self, od_csv, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{text}\n")
        assert main(["topk", "--od", od_csv, "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # header and a top 3

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003"], ids=["NBSP", "EM_SPACE"])
    @pytest.mark.parametrize(
        "template, message",
        [
            ("{s}k=3", "unknown key {key!r}"),
            ("k{s}=3", "unknown key {key!r}"),
            ("k={s}3", "k must be int, got {value!r}"),
            ("k=3{s}", "k must be int, got {value!r}"),
        ],
        ids=["before-key", "after-key", "before-value", "after-value"],
    )
    def test_non_ascii_space_is_not_stripped(self, od_csv, tmp_path, capsys, space, template, message):
        text = template.format(s=space)
        key, _, value = text.partition("=")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# spaced\n{text}\n", encoding="utf-8")
        assert main(["topk", "--od", od_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config line 2: {message.format(key=key, value=value)}\n"

    @pytest.mark.parametrize("text", [".5", "5.", "inf", "nan", "1e999"])
    def test_float_values_are_plain_decimals(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"thursday_weight={text}\n")
        assert main(["synth", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == f"error: config line 1: thursday_weight must be float, got {text!r}\n"
        assert not (tmp_path / "w").exists()

    def test_missing_config_file(self, od_csv, capsys, tmp_path):
        rc = main(["homework", "--od", od_csv, "--config", str(tmp_path / "none.cfg")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config no such file: {tmp_path / 'none.cfg'}\n"


class TestDiary:
    def test_single_anchor_weekday(self, world_dir, od_csv, tmp_path):
        ledger = json.loads((world_dir / "ledger.json").read_text())
        anchor = ledger["pairs"][0]["home"]
        rc = main(["diary", "--od", od_csv, "--ff", str(world_dir / "footfall.csv"),
                   "--anchor", anchor, "--weekday", "2", "--out", str(tmp_path)])
        assert rc == 0
        files = list(tmp_path.glob("diary_*.json"))
        assert [f.name for f in files] == [f"diary_{anchor}_wd2.json"]
        doc = json.loads(files[0].read_text())
        assert doc["anchor"] == anchor
        assert doc["weekday"] == 2
        assert len(doc["stages"]) == 8
        assert set(doc["regimes"]) == {"morning_peak", "midday", "evening_peak", "night"}
        assert doc["enrichment"][anchor]["footfall_mean"]  # --ff filled means in

    def test_all_anchors_all_weekdays(self, od_csv, tmp_path):
        rc = main(["diary", "--od", od_csv, "--out", str(tmp_path)])
        assert rc == 0
        store = load_od(od_csv, user_type_filter="worker")
        homes = {p.home for p in detect_home_work(store)}
        files = list(tmp_path.glob("diary_*.json"))
        assert len(files) == 7 * len(homes)

    def test_out_required(self, od_csv, capsys):
        rc = main(["diary", "--od", od_csv])
        assert rc == 1
        assert "--out" in capsys.readouterr().err

    def test_out_checked_before_the_od_file(self, tmp_path, capsys):
        rc = main(["diary", "--od", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing required option --out\n"

    def test_weekday_zero_is_rejected(self, od_csv, tmp_path, capsys):
        rc = main(["diary", "--od", od_csv, "--weekday", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: weekday must be 1..7\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_anchor_is_rejected(self, od_csv, tmp_path, capsys):
        rc = main(["diary", "--od", od_csv, "--anchor", "", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: anchor '' is not a hex of any detected pair\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--anchor", "ZZZ"], "anchor 'ZZZ' is not a hex of any detected pair"),
        (["--weekday", "9"], "weekday must be 1..7"),
        (["--min-support", "0"], "min_support must be >= 1"),
        (["--anchor", "ZZZ", "--weekday", "9", "--min-support", "0"],
         "anchor 'ZZZ' is not a hex of any detected pair"),
        (["--weekday", "9", "--min-support", "0"], "weekday must be 1..7"),
    ])
    def test_rejected_run_leaves_no_out_directory(self, od_csv, tmp_path, capsys, argv, message):
        rc = main(["diary", "--od", od_csv, *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_attribute_is_rejected(self, od_csv, tmp_path, capsys):
        h = load_od(od_csv).hex_ids[0]
        attrs = tmp_path / "attrs.csv"
        attrs.write_text(f"{h},poi,cafe\n{h},poi,bank\n")
        out = tmp_path / "out"
        rc = main(["diary", "--od", od_csv, "--attrs", str(attrs), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: attrs line 2: attribute 'poi' of {h} repeated, first set at line 1\n"
        )
        assert not out.exists()

    def test_no_pairs_is_an_error(self, od_csv, tmp_path, capsys):
        rc = main(["diary", "--od", od_csv, "--min-days", "31", "--out", str(tmp_path)])
        assert rc == 1
        assert "no home-work pairs" in capsys.readouterr().err


class TestAnalyticsCommands:
    def test_profile_stdout(self, world_dir, od_csv, capsys):
        ledger = json.loads((world_dir / "ledger.json").read_text())
        h = ledger["pairs"][0]["work"]
        rc = main(["profile", "--od", od_csv, "--hex", h, "--role", "destination"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "hex,interval,count"
        assert len(lines) == 9

    def test_profile_requires_hex(self, od_csv, capsys):
        rc = main(["profile", "--od", od_csv])
        assert rc == 1
        assert "--hex" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["../ZZZ", "aaaaaaaaaaaaaa", "AAAAAAAAAAAAAA1"])
    def test_profile_rejects_malformed_hex(self, od_csv, tmp_path, capsys, bad):
        rc = main(["profile", "--od", od_csv, "--hex", bad, "--out", str(tmp_path / "p")])
        assert rc == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: malformed hex id: {bad!r}\n")
        assert not (tmp_path / "p").exists()

    def test_profile_absent_hex_is_all_zero(self, od_csv, capsys):
        rc = main(["profile", "--od", od_csv, "--hex", "f" * 15])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"{'f' * 15},{iv},0" for iv in range(1, 9)]

    def test_profile_out_filename(self, world_dir, od_csv, tmp_path):
        ledger = json.loads((world_dir / "ledger.json").read_text())
        h = ledger["pairs"][0]["home"]
        rc = main(["profile", "--od", od_csv, "--hex", h, "--role", "origin",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / f"profile_{h}_origin.csv").exists()

    def test_dow_whole_calendar(self, od_csv, tmp_path):
        rc = main(["dow", "--od", od_csv, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "dow.csv").read_text().splitlines()
        assert lines[0] == "weekday,date,total"
        assert len(lines) == 31

    def test_dow_byte_reproducible(self, od_csv, tmp_path):
        for sub in ("x", "y"):
            assert main(["dow", "--od", od_csv, "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "x" / "dow.csv").read_bytes() == (tmp_path / "y" / "dow.csv").read_bytes()

    def test_diff_antisymmetric_outputs(self, od_csv, tmp_path):
        assert main(["diff", "--od", od_csv, "--a", "2", "--b", "4", "--out", str(tmp_path)]) == 0
        assert main(["diff", "--od", od_csv, "--a", "4", "--b", "2", "--out", str(tmp_path)]) == 0
        ab = (tmp_path / "diff_2_4.csv").read_text().splitlines()[1:]
        ba = (tmp_path / "diff_4_2.csv").read_text().splitlines()[1:]
        fwd = {r.split(",")[0]: float(r.split(",")[1]) for r in ab}
        rev = {r.split(",")[0]: float(r.split(",")[1]) for r in ba}
        assert set(fwd) == set(rev)
        for h in fwd:
            assert fwd[h] == -rev[h]

    def test_diff_requires_both_days(self, od_csv, capsys):
        rc = main(["diff", "--od", od_csv, "--a", "2"])
        assert rc == 1
        assert "--b" in capsys.readouterr().err

    def test_topk_default_and_explicit(self, od_csv, tmp_path):
        assert main(["topk", "--od", od_csv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "top10_destination.csv").exists()
        assert main(["topk", "--od", od_csv, "--k", "3", "--role", "origin",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "top3_origin.csv").read_text().splitlines()
        assert lines[0] == "rank,hex,total"
        assert len(lines) == 4


class TestExactSums:
    """Analytics totals past int64 are printed exactly, not wrapped."""

    BIG = 6_000_000_000_000_000_000

    @pytest.fixture
    def big_csv(self, tmp_path):
        rows = [f"0000000000000a1,0000000000000b2,2025-06-02,{iv},all,{self.BIG}" for iv in (1, 2)]
        p = tmp_path / "big.csv"
        p.write_text("\n".join(["origin_hex,destination_hex,date,interval,user_type,count", *rows]) + "\n")
        return str(p)

    def test_topk(self, big_csv, capsys):
        assert main(["topk", "--od", big_csv, "--k", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["rank,hex,total", f"1,0000000000000b2,{2 * self.BIG}"]

    def test_dow(self, big_csv, capsys):
        assert main(["dow", "--od", big_csv]) == 0
        assert "1,2025-06-02,12000000000000000000" in capsys.readouterr().out.splitlines()

    def test_diff(self, big_csv, capsys):
        assert main(["diff", "--od", big_csv, "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["hex,diff", "0000000000000b2,2.4e+18"]


class TestExportGeojson:
    def test_diff_layer_to_geojson(self, world_dir, od_csv, tmp_path):
        assert main(["diff", "--od", od_csv, "--a", "2", "--b", "6",
                     "--out", str(tmp_path)]) == 0
        rc = main(["export-geojson", "--layer", str(tmp_path / "diff_2_6.csv"),
                   "--boundaries", str(world_dir / "boundaries.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "layer.geojson").read_text())
        assert validate_geojson(doc) == []
        n_layer = len((tmp_path / "diff_2_6.csv").read_text().splitlines()) - 1
        assert len(doc["features"]) == n_layer

    def test_missing_boundary_warns(self, world_dir, tmp_path, capsys):
        layer = tmp_path / "layer.csv"
        layer.write_text("hex,value\n" + "f" * 15 + ",1.5\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "warning: 1 hexes without boundaries" in capsys.readouterr().err

    def test_bad_layer_value(self, world_dir, tmp_path, capsys):
        layer = tmp_path / "layer.csv"
        layer.write_text("hex,value\naaaaaaaaaaaaaa1,abc\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: layer line 2: bad value 'abc', not a plain decimal\n"


    @pytest.mark.parametrize("argv, message", [
        # a missing --layer comes before any file fault
        (["--boundaries", "bad.csv"], "missing required option --layer"),
        (["--layer", "bad.csv"], "missing required option --boundaries"),
        # the boundaries are read before the layer
        (["--layer", "bad.csv", "--boundaries", "bad.csv"], "boundaries line 1: bad header 'x', expected 'hex,ring'"),
        (["--layer", "bad.csv", "--boundaries", "good.csv"], "layer line 1: bad header 'x', expected 'hex,*'"),
    ])
    def test_fault_precedence(self, world_dir, tmp_path, capsys, argv, message):
        (tmp_path / "bad.csv").write_text("x\n")
        (tmp_path / "good.csv").write_bytes((world_dir / "boundaries.csv").read_bytes())
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert main(["export-geojson", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_layer_value(self, world_dir, tmp_path, capsys, value):
        layer = tmp_path / "layer.csv"
        layer.write_text(f"hex,value\naaaaaaaaaaaaaa1,1.5\naaaaaaaaaaaaaa2,{value}\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: layer line 3: non-finite value {value!r}\n"
        assert not (tmp_path / "layer.geojson").exists()

    def test_layer_value_spanning_lines_rejected(self, world_dir, tmp_path, capsys):
        layer = tmp_path / "layer.csv"
        layer.write_text('hex,value\naaaaaaaaaaaaaa1,"1.5\n"\naaaaaaaaaaaaaa2,abc\n')
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv")])
        assert rc == 1
        assert capsys.readouterr().err == """error: layer line 2: bad value '"1.5', not a plain decimal\n"""

    @pytest.mark.parametrize("text, message", [
        ("aaaaaaaaaaaaaa1,1.5\n", "bad header 'aaaaaaaaaaaaaa1,1.5', expected 'hex,*'"),
        ("hex\naaaaaaaaaaaaaa1,1.5\n", "bad header 'hex', expected 'hex,*'"),
        ("hex,value,note\n", "bad header 'hex,value,note', expected 'hex,*'"),
        ("value,hex\n", "bad header 'value,hex', expected 'hex,*'"),
        ("", "empty file, expected header"),
    ])
    def test_layer_needs_a_header(self, world_dir, tmp_path, capsys, text, message):
        layer = tmp_path / "layer.csv"
        layer.write_text(text)
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: layer line 1: {message}\n"
        assert not (tmp_path / "layer.geojson").exists()

    def test_repeated_layer_hex_names_both_lines(self, world_dir, tmp_path, capsys):
        layer = tmp_path / "layer.csv"
        layer.write_text("hex,value\naaaaaaaaaaaaaa1,1.5\naaaaaaaaaaaaaa2,2\naaaaaaaaaaaaaa1,3\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: layer line 4: hex aaaaaaaaaaaaaa1 repeated, first at line 2\n"
        )
        assert not (tmp_path / "layer.geojson").exists()

    @pytest.mark.parametrize("row,message", [
        ("ZZZ,1_0", "malformed hex id: 'ZZZ'"),
        ("aaaaaaaaaaaaaa2,1_0", "bad value '1_0', not a plain decimal"),
        ("aaaaaaaaaaaaaa2,0x10", "bad value '0x10', not a plain decimal"),
        ("aaaaaaaaaaaaaa2,.5", "bad value '.5', not a plain decimal"),
        ("aaaaaaaaaaaaaa2,1e999", "non-finite value '1e999'"),
    ])
    def test_bad_layer_row_names_line(self, world_dir, tmp_path, capsys, row, message):
        layer = tmp_path / "layer.csv"
        layer.write_text(f"hex,value\naaaaaaaaaaaaaa1,1.5\n{row}\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: layer line 3: {message}\n"
        assert not (tmp_path / "layer.geojson").exists()

    def test_layer_takes_every_float_the_writers_write(self, world_dir, tmp_path, capsys):
        values = [-0.5, 1e-05, 1.5e16, 123456789.0, -2.5e-300, 0.0]
        hexes = [line.split(",")[0] for line in
                 (world_dir / "boundaries.csv").read_text().splitlines()[1:len(values) + 1]]
        layer = tmp_path / "layer.csv"
        layer.write_text("hex,value\n" + "".join(
            f"{h},{fmt_float(v)}\n" for h, v in zip(hexes, values)))
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "layer.geojson").read_text())
        got = {f["properties"]["hex"]: f["properties"]["value"] for f in doc["features"]}
        assert got == dict(zip(hexes, values))

    def test_bad_boundary_coordinate_names_line(self, world_dir, tmp_path, capsys):
        boundaries = tmp_path / "b.csv"
        boundaries.write_text("hex,ring\naaaaaaaaaaaaaa1,0 0;1 nan;0 1\n")
        layer = tmp_path / "layer.csv"
        layer.write_text("hex,value\naaaaaaaaaaaaaa1,1.5\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(boundaries), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: boundaries line 2: bad ring point '1 nan': non-finite value 'nan'\n"
        )
        assert not (tmp_path / "layer.geojson").exists()

    @pytest.mark.parametrize("bad", ["layer", "boundaries"])
    def test_non_utf8_byte_names_line(self, world_dir, tmp_path, capsys, bad):
        files = {"layer": tmp_path / "layer.csv", "boundaries": world_dir / "boundaries.csv"}
        files["layer"].write_text("hex,value\naaaaaaaaaaaaaa1,1.5\n")
        files[bad] = tmp_path / "bad.csv"
        files[bad].write_bytes(b"hex,x\n\xff\n")
        rc = main(["export-geojson", "--layer", str(files["layer"]),
                   "--boundaries", str(files["boundaries"]), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad} line 2: not UTF-8: byte 0xff (invalid start byte)\n"
        )


class TestMine:
    def test_round_trip(self, tmp_path, capsys):
        txns = tmp_path / "txns.txt"
        txns.write_text("a b\na b\na\n")
        rc = main(["mine", "--transactions", str(txns), "--min-support", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["a\t3", "b\t2", "a b\t2"]

    def test_out_file(self, tmp_path):
        txns = tmp_path / "txns.txt"
        txns.write_text("x y z\nx y\n")
        rc = main(["mine", "--transactions", str(txns), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "itemsets.tsv").read_text() == "x\t2\ny\t2\nx y\t2\n"

    def test_missing_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["mine", "--transactions", str(missing)]) == 1
        assert capsys.readouterr().err == f"error: transactions no such file: {missing}\n"

    def test_non_utf8_file_names_line(self, tmp_path, capsys):
        txns = tmp_path / "txns.txt"
        txns.write_bytes(b"a b\n\xff c\n")
        assert main(["mine", "--transactions", str(txns)]) == 1
        assert capsys.readouterr().err == "error: transactions line 2: not UTF-8: byte 0xff (invalid start byte)\n"


class TestIntegerFlags:
    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0661\u0660", " 3", "3 "])
    @pytest.mark.parametrize("argv", [["topk", "--k"], ["synth", "--hexes"], ["homework", "--min-days"]])
    def test_only_ascii_digits_parse(self, capsys, argv, text):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [text])
        assert excinfo.value.code == 2
        assert f"argument {argv[1]}: invalid int value: {text!r}" in capsys.readouterr().err

    def test_every_integer_flag_is_strict(self):
        parser = build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        types = {a.type for sub in subcommands.choices.values() for a in sub._actions}
        assert int not in types
        assert cli._int in types

    def test_negative_and_padded_integers_parse(self, od_csv, capsys):
        assert main(["topk", "--od", od_csv, "--k", "003"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main(["homework", "--od", od_csv, "--min-days", "-1"]) == 1
        assert capsys.readouterr().err == "error: min_days must be >= 1\n"


class TestFloatFlags:
    FLOATS = [name for name, option in cli.OPTIONS.items() if option.type is cli._float]

    @pytest.mark.parametrize("text", ["1_0", "+2", "\u0661.5", " 2", "2 ", "2\x0b", "heavy", ""])
    @pytest.mark.parametrize("name", FLOATS)
    def test_only_plain_ascii_floats_parse(self, tmp_path, capsys, name, text):
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--seed", "1", flag, text, "--out", str(tmp_path / "w")])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid float value: {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("text", ["1", "-2", "0.5", "1e-3", "1E+3"])
    def test_what_float_reads_in_ascii_still_reads(self, text):
        assert repr(cli._float(text)) == repr(float(text))

    @pytest.mark.parametrize("text", [".5", "5.", "inf", "-inf", "NaN"])
    def test_what_float_reads_beyond_a_plain_decimal_is_rejected(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--seed", "1", f"--thursday-weight={text}"])
        assert excinfo.value.code == 2
        assert f"argument --thursday-weight: invalid float value: {text!r}" in capsys.readouterr().err


class TestOptionTable:
    # every subcommand's flags and their types (str unless named)
    FLAGS = {
        "ingest-check": "--config --out --od --ff",
        "stats": "--config --out --od --user-type",
        "homework": "--config --out --od --user-type --min-days:int",
        "diary": "--config --out --od --ff --user-type --min-days:int --min-support:int "
                 "--anchor --weekday:int --attrs",
        "profile": "--config --out --od --user-type --hex --role",
        "dow": "--config --out --od --user-type",
        "diff": "--config --out --od --user-type --a:int --b:int --role",
        "topk": "--config --out --od --user-type --role --k:int",
        "synth": "--config --out --seed:int --hexes:int --agents:int --year:int --month:int "
                 "--thursday-weight:float --weekend-fraction:float --secondary-rate:float "
                 "--suppression-threshold:int --resident-factor:float --transient-factor:float",
        "export-geojson": "--config --out --layer --boundaries",
        "mine": "--config --out --transactions --min-support:int",
    }
    TYPES = {"int": cli._int, "float": cli._float, "str": str}

    def test_each_subcommand_keeps_its_flags_and_types(self):
        parser = build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            (command, flag, a.type or str)
            for command, sub in subcommands.choices.items()
            for a in sub._actions
            for flag in a.option_strings
            if flag not in ("-h", "--help")
        }
        expected = set()
        for command, flags in self.FLAGS.items():
            for spec in flags.split():
                flag, _, type_name = spec.partition(":")
                expected.add((command, flag, self.TYPES[type_name or "str"]))
        assert got == expected

    @pytest.mark.parametrize("command", ["diary", "synth"])
    def test_out_help_says_required_by_diary_and_synth(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--out OUT output directory (required by diary and synth;"
                " default otherwise: write to stdout)") in text

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_names_the_default_main_resolves(self, command, monkeypatch, capsys):
        _, help_text, names, defaults = cli.COMMANDS[command]
        resolved = {}
        monkeypatch.setitem(cli.COMMANDS, command,
                            (lambda args: resolved.update(vars(args)), help_text, names, defaults))
        # every required option given, as 1, so that main reaches the handler
        options = cli._options(command)
        assert main([command, *(a for name, required in options if required
                                for a in (f"--{name.replace('_', '-')}", "1"))]) == 0
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in subcommands.choices[command]._actions}
        for name, required in options:
            assert " ".join(helps[name].split()) in text
            if required:  # given above; a default would leave it never missing
                assert cli._default(command, name) is None, name
            elif resolved[name] is not None:
                assert f"default {resolved[name]}" in helps[name], name
            elif name in ("user_type", "min_support"):
                assert f"(default {cli.OPTIONS[name].unset})" in helps[name]

    @pytest.mark.parametrize("command, phrase", [
        ("stats", "--user-type USER_TYPE all|worker (default all)"),
        ("homework", "--user-type USER_TYPE all|worker (default worker)"),
        ("diary", "--user-type USER_TYPE all|worker (default worker)"),
        ("topk", "--user-type USER_TYPE all|worker (default every record)"),
        ("mine", "--min-support MIN_SUPPORT itemset support (default 2)"),
        ("diary", "--min-support MIN_SUPPORT itemset support (default half the weekday's occurrences,"
                  " rounded up, but never below 2)"),
    ])
    def test_help_states_only_its_own_default(self, command, phrase, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert phrase in " ".join(capsys.readouterr().out.split())

    # synth option -> the SynthConfig field it sets
    SYNTH_FIELDS = {
        "thursday_weight": "thursday_weight",
        "weekend_fraction": "weekend_worker_fraction",
        "secondary_rate": "secondary_activity_rate",
        "suppression_threshold": "suppression_threshold",
        "resident_factor": "resident_factor",
        "transient_factor": "transient_factor",
    }

    def test_every_default_is_an_option_some_command_takes(self):
        taken = set()
        for command, (_, _, _, defaults) in cli.COMMANDS.items():
            names = {name for name, _ in cli._options(command)}
            assert "out" in names and set(defaults) <= names, command
            taken.update(names)
        field_defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
        for option, field in self.SYNTH_FIELDS.items():
            assert cli.OPTIONS[option].default == field_defaults[field], option
        assert taken == set(cli.OPTIONS)

    def test_synth_defaults_are_the_config_defaults(self, tmp_path, capsys):
        assert main(["synth", "--seed", "5", "--out", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "ledger.json").read_text(encoding="utf-8"))
        config = SynthConfig(seed=5, n_hexes=60, n_agents=500, month=(2025, 6))
        assert ledger["config"] == {**dataclasses.asdict(config), "month": [2025, 6]}

    @pytest.mark.parametrize("bad", ["x", "1_0", "+1", "\u0661"])
    @pytest.mark.parametrize("name", [n for n, o in cli.OPTIONS.items() if o.type is not str])
    def test_bad_config_value_rejected_at_load(self, od_csv, tmp_path, capsys, name, bad):
        # ingest-check takes no typed option, so only the load can reject the value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# typed\n\n{name.replace('_', '-')}={bad}\n", encoding="utf-8")
        assert main(["ingest-check", "--od", od_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        type_name = cli.OPTIONS[name].type.__name__
        assert captured.err == f"error: config line 3: {name} must be {type_name}, got {bad!r}\n"

    def test_every_key_is_checked_before_any_value(self, od_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=abc\nmin_dayz=3\n")
        assert main(["topk", "--od", od_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config line 2: unknown key 'min_dayz'\n"

    def test_config_values_reach_the_command_cast(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nhexes=10\nagents=48\nthursday-weight=1.5\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--seed", "5", "--hexes", "10", "--agents", "48",
                     "--thursday-weight", "1.5", "--out", str(tmp_path / "b")]) == 0
        ledger = json.loads((tmp_path / "a" / "ledger.json").read_text())
        assert ledger["config"]["thursday_weight"] == 1.5
        assert (tmp_path / "a" / "ledger.json").read_bytes() == (tmp_path / "b" / "ledger.json").read_bytes()


class TestRequiredOptions:
    # each command's required options, in the order they are checked
    REQUIRED = {
        "stats": "od",
        "homework": "od",
        "diary": "out od",
        "profile": "od hex",
        "dow": "od",
        "diff": "od a b",
        "topk": "od",
        "synth": "out seed",
        "export-geojson": "layer boundaries",
        "mine": "transactions",
    }
    # what a required option is given when another one is left out, {tmp}
    # standing for the test's directory; every input file is a one-line `x`,
    # which no reader accepts
    VALUES = {"out": "{tmp}/out", "od": "{tmp}/bad.csv", "layer": "{tmp}/bad.csv",
              "boundaries": "{tmp}/bad.csv", "transactions": "{tmp}/bad.csv",
              "hex": "aaaaaaaaaaaaaa1", "seed": "1", "a": "1", "b": "1"}

    def test_table_names_every_required_option(self):
        required = {command: " ".join(name for name, required in cli._options(command) if required)
                    for command in cli.COMMANDS}
        assert required == {"ingest-check": "", **self.REQUIRED}

    @pytest.mark.parametrize("command, missing",
                             [(c, name) for c, names in REQUIRED.items() for name in names.split()])
    def test_reported_before_any_file_is_read(self, tmp_path, capsys, command, missing):
        (tmp_path / "bad.csv").write_text("x\n")
        argv = [command]
        for name in self.REQUIRED[command].split():
            if name != missing:
                argv += [f"--{name}", self.VALUES[name].format(tmp=tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: missing required option --{missing}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]

    @pytest.mark.parametrize("command", REQUIRED)
    def test_first_in_declared_order(self, capsys, command):
        assert main([command]) == 1
        first = self.REQUIRED[command].split()[0]
        assert capsys.readouterr() == ("", f"error: missing required option --{first}\n")

    def test_raised_in_one_place(self):
        src = Path(hexmob.__file__).parent
        found = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
                 for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
                 if "missing required option" in line]
        assert len(found) == 1 and found[0].startswith("cli.py:"), found


class TestUsageErrors:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_valid_call(self, od_csv, capsys):
        # the one parser serves every call: a rejected call leaves no trace
        assert main(["topk", "--od", od_csv, "--k", "1"]) == 0
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["topk", "--od", od_csv, "--k", "x"])
        assert exc.value.code == 2
        assert "argument --k: invalid int value: 'x'" in capsys.readouterr().err
        assert main(["topk", "--od", od_csv, "--k", "1"]) == 0
        assert capsys.readouterr() == want

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_role_choice_exits_2(self, od_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topk", "--od", od_csv, "--role", "sideways"])
        assert exc.value.code == 2


def _tree_digest(out) -> tuple[int, str]:
    """File count and sha256 over a directory (per file: name, newline,
    bytes, in name order)."""
    digest = hashlib.sha256()
    files = sorted(out.iterdir())
    for f in files:
        digest.update(f.name.encode() + b"\n" + f.read_bytes())
    return len(files), digest.hexdigest()


class TestDiaryGolden:
    # digests of the diary trees of the worlds below; any change to the
    # diary bytes changes them. DIGEST was recorded before the diary engine
    # moved to per-store indexes, ATTRS_DIGEST before diaries got their own
    # JSON writer (both from the stdlib's json.dump(..., indent=2)).
    DIGEST = "004bc96b0a7e0f0091de04010244bc2d1c48ce27dae3a4b3a39a574f4c756ff4"
    ATTRS_DIGEST = "91c2574fd476c3b5efdff9d7433e0f72c7aefdf7bf7517d657eab7522a72eb44"
    # attribute keys and values the writer must escape: quote, backslash,
    # NUL, non-ASCII, U+2028 and a character outside the BMP
    ATTRS = (("poi", 'caf\u00e9 "\\" \x00'), ("tag\u2028\U0001F600", 'line\u2028sep "q" \\'))

    def test_diary_tree_digest(self, tmp_path):
        world = tmp_path / "world"
        assert main(["synth", "--seed", "31", "--hexes", "40", "--agents", "500",
                     "--suppression-threshold", "1", "--out", str(world)]) == 0
        out = tmp_path / "diaries"
        assert main(["diary", "--od", str(world / "od.csv"), "--ff", str(world / "footfall.csv"),
                     "--out", str(out)]) == 0
        assert _tree_digest(out) == (91, self.DIGEST)

    def test_diary_tree_digest_with_attrs(self, tmp_path):
        world = tmp_path / "world"
        assert main(["synth", "--seed", "47", "--hexes", "20", "--agents", "200",
                     "--suppression-threshold", "1", "--out", str(world)]) == 0
        attrs = tmp_path / "attrs.csv"
        with open(attrs, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["hex", "key", "value"])
            for i, h in enumerate(sorted(load_od(world / "od.csv").hex_ids)):
                for key, value in self.ATTRS:
                    w.writerow([h, key, f"{value}{i}"])
        out = tmp_path / "diaries"
        assert main(["diary", "--od", str(world / "od.csv"), "--ff", str(world / "footfall.csv"),
                     "--attrs", str(attrs), "--out", str(out)]) == 0
        assert _tree_digest(out) == (42, self.ATTRS_DIGEST)
