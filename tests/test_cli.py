import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexmob
from hexmob.analytics import fmt_float
from hexmob.cli import main
from hexmob.geo import validate_geojson
from hexmob.homework import detect_home_work, export_pairs_csv
from hexmob.ingest import load_od


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

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: missing required option --seed")

    @pytest.mark.parametrize("flag", ["--thursday-weight", "--resident-factor"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_rate_rejected(self, tmp_path, capsys, flag, value):
        rc = main(["synth", "--seed", "1", flag, value, "--out", str(tmp_path / "w")])
        assert rc == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("flag, value", [("--resident-factor", "1e300"), ("--agents", "100000000")])
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
        assert capsys.readouterr().err == "error: line 2: not UTF-8: byte 0xff (invalid start byte)\n"

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
            "error: line 2: count '99999999999999999999' is above the int64 maximum "
            "9223372036854775807\n"
        )


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
        assert "user-type" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["homework"], "user_type=bogus", "user_type must be one of all|worker, got 'bogus'"),
            (["stats"], "user-type = Worker", "user_type must be one of all|worker, got 'Worker'"),
            (["dow"], "role=bogus", "role must be 'origin' or 'destination', got 'bogus'"),
            (["homework"], "min_days=0", "min_days must be >= 1, got '0'"),
            (["diary"], "min_support=0", "min_support must be >= 1, got '0'"),
            (["diary"], "min-support=-2", "min_support must be >= 1, got '-2'"),
            (["diary"], "min_support=two", "min_support must be int, got 'two'"),
            # checked as the file loads, whether or not the command reads the key
            (["homework"], "role=bogus", "role must be 'origin' or 'destination', got 'bogus'"),
            (["homework", "--min-days", "3"], "min_days=0", "min_days must be >= 1, got '0'"),
        ],
    )
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
        assert capsys.readouterr().err == "error: config line 1: min_support must be >= 1, got '0'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["homework", "--user-type", "bogus"], "--user-type must be one of all|worker"),
            (["homework", "--min-days", "0"], "min_days must be >= 1"),
            (["diary", "--min-support", "0", "--min-days", "1"], "min_support must be >= 1"),
        ],
    )
    def test_flag_values_keep_their_messages(self, od_csv, tmp_path, capsys, argv, message):
        assert main(argv + ["--od", od_csv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_config_file(self, od_csv, capsys, tmp_path):
        rc = main(["homework", "--od", od_csv, "--config", str(tmp_path / "none.cfg")])
        assert rc == 1
        assert "no such config file" in capsys.readouterr().err


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

    def test_repeated_attribute_is_rejected(self, od_csv, tmp_path, capsys):
        h = load_od(od_csv).hex_ids[0]
        attrs = tmp_path / "attrs.csv"
        attrs.write_text(f"{h},poi,cafe\n{h},poi,bank\n")
        out = tmp_path / "out"
        rc = main(["diary", "--od", od_csv, "--attrs", str(attrs), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: line 2: attribute 'poi' of {h} repeated, first set at line 1\n"
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
        assert "bad value" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_layer_value(self, world_dir, tmp_path, capsys, value):
        layer = tmp_path / "layer.csv"
        layer.write_text(f"hex,value\naaaaaaaaaaaaaa1,1.5\naaaaaaaaaaaaaa2,{value}\n")
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: layer line 3: non-finite value {value!r}\n"
        assert not (tmp_path / "layer.geojson").exists()

    def test_layer_lines_counted_after_a_value_spanning_lines(self, world_dir, tmp_path, capsys):
        layer = tmp_path / "layer.csv"
        layer.write_text('hex,value\naaaaaaaaaaaaaa1,"1.5\n"\naaaaaaaaaaaaaa2,abc\n')
        rc = main(["export-geojson", "--layer", str(layer),
                   "--boundaries", str(world_dir / "boundaries.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: layer line 4: bad value 'abc'\n"

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
        ("aaaaaaaaaaaaaa2,0x10", "bad value '0x10'"),
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
            "error: line 2: bad ring point '1 nan': non-finite value 'nan'\n"
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
        prefix = "layer " if bad == "layer" else ""
        assert capsys.readouterr().err == (
            f"error: {prefix}line 2: not UTF-8: byte 0xff (invalid start byte)\n"
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
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"

    def test_non_utf8_file_names_line(self, tmp_path, capsys):
        txns = tmp_path / "txns.txt"
        txns.write_bytes(b"a b\n\xff c\n")
        assert main(["mine", "--transactions", str(txns)]) == 1
        assert capsys.readouterr().err == "error: line 2: not UTF-8: byte 0xff (invalid start byte)\n"


class TestUsageErrors:
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
