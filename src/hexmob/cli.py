"""Command-line pipeline over the OD/footfall toolkit.

Subcommands map one-to-one to library operations. Every run is deterministic:
identical inputs and flags produce byte-identical outputs. Options resolve as
explicit flag > config file (`key=value` lines via --config) > built-in
default. A required option left unset is reported before any file but the
config is read. Exit codes: 0 success, 1 operation error (one `error: ...`
line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import analytics, diaries, geo, homework, ingest, mining, synth
from .ingest import IngestError, descriptive_stats, load_footfall, load_od, read_input, write_output
from .model import ROLE_DESTINATION, ROLE_ORIGIN, SPACE, check_weekday, parse_decimal


def _int(text: str) -> int:
    """The integer an ASCII `-?[0-9]+` spells; ValueError for anything
    else, including what int() alone accepts, such as `1_0`, `+1`,
    non-ASCII digits or surrounding whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def _float(text: str) -> float:
    """The value of a plain decimal (model.parse_decimal) with no SPACE
    around it; ValueError for anything else, such as `.5`, `inf` or `nan`."""
    if text != text.strip(SPACE):
        raise ValueError(f"bad float {text!r}")
    return parse_decimal(text)


_int.__name__ = "int"  # the type names argparse and load_config print
_float.__name__ = "float"


class _Option(NamedTuple):
    type: Callable
    help: str  # {} stands for the default, or for unset where there is none
    choices: tuple | None = None
    default: object = None
    unset: str = ""  # what a run without the option does
    rule: Callable | None = None  # the library's check of a value, raising ValueError


# diaries.default_min_support's rule, as its docstring words it
_MIN_SUPPORT_RULE = diaries.default_min_support.__doc__.rstrip(".")
_MIN_SUPPORT_RULE = _MIN_SUPPORT_RULE[0].lower() + _MIN_SUPPORT_RULE[1:]

_SYNTH = synth.FIELD_RANGES  # the rules of the synth options

# Every option of every subcommand, `--out` included. Its type reads the
# flag and the config value alike, and its rule checks the config value too;
# COMMANDS may give a command its own default.
OPTIONS = {
    "out": _Option(str, "output directory (required by diary and synth; default otherwise: write to stdout)"),
    "od": _Option(str, "OD CSV path"),
    "ff": _Option(str, "footfall CSV path (diary: enables enrichment)"),
    "user_type": _Option(str, "all|worker (default {})", unset="every record", rule=ingest._od_user_code),
    "min_days": _Option(_int, "pair detection threshold in qualifying days (default {})", default=10,
                        rule=homework.check_min_days),
    "min_support": _Option(_int, "itemset support (default {})", unset=_MIN_SUPPORT_RULE,
                           rule=mining.check_min_support),
    "anchor": _Option(str, "single anchor hex (default: every detected home)"),
    "weekday": _Option(_int, "single ISO weekday 1..7 (default: all)", rule=check_weekday),
    "attrs": _Option(str, "hex,key,value attribute CSV for enrichment"),
    "hex": _Option(str, "hex id to profile"),
    "role": _Option(str, "default {}", choices=(ROLE_ORIGIN, ROLE_DESTINATION), default=ROLE_DESTINATION,
                    rule=analytics.check_role),
    "a": _Option(_int, "first ISO weekday 1..7", rule=check_weekday),
    "b": _Option(_int, "second ISO weekday 1..7", rule=check_weekday),
    "k": _Option(_int, "how many hexes (default {})", default=10, rule=analytics.check_k),
    "seed": _Option(_int, "RNG seed (required)", rule=_SYNTH["seed"]),
    "hexes": _Option(_int, "number of hexes (default {})", default=60, rule=_SYNTH["n_hexes"]),
    "agents": _Option(_int, "number of commuter agents (default {})", default=500, rule=_SYNTH["n_agents"]),
    "year": _Option(_int, "calendar year (default {})", default=2025, rule=_SYNTH["year"]),
    "month": _Option(_int, "calendar month (default {})", default=6, rule=_SYNTH["month"]),
    "thursday_weight": _Option(_float, "Thursday commute scaling (default {})",
                               default=synth.SynthConfig.thursday_weight, rule=_SYNTH["thursday_weight"]),
    "weekend_fraction": _Option(_float, "fraction of worker cohorts active on weekends (default {})",
                                default=synth.SynthConfig.weekend_worker_fraction,
                                rule=_SYNTH["weekend_worker_fraction"]),
    "secondary_rate": _Option(_float, "fraction of cohorts with a secondary activity (default {})",
                              default=synth.SynthConfig.secondary_activity_rate,
                              rule=_SYNTH["secondary_activity_rate"]),
    "suppression_threshold": _Option(_int, "drop records with count below this (default {}; 1 disables)",
                                     default=synth.SynthConfig.suppression_threshold,
                                     rule=_SYNTH["suppression_threshold"]),
    "resident_factor": _Option(_float, "resident population as a multiple of agents (default {})",
                               default=synth.SynthConfig.resident_factor, rule=_SYNTH["resident_factor"]),
    "transient_factor": _Option(_float, "transient population as a multiple of agents (default {})",
                                default=synth.SynthConfig.transient_factor, rule=_SYNTH["transient_factor"]),
    "layer": _Option(str, "CSV layer (hex,value) such as a diff output"),
    "boundaries": _Option(str, "hex,ring boundary lookup CSV"),
    "transactions": _Option(str, "one transaction per line, items space-separated"),
}


def load_config(path) -> dict:
    """Flat `key=value` file as {key: value}; blank lines and #-comments
    allowed, SPACE (model.SPACE) around a line, key or value ignored. Keys are
    OPTIONS names, with dashes and underscores interchangeable. An unknown
    key, one given twice, a value its option's type cannot read or one its
    option's rule rejects is an IngestError naming its line; every key is
    checked before any value. The file is read by
    ingest.read_input, so lines end at LF, CR or CRLF only, as in the CSV
    inputs."""
    text = read_input(path).decode("utf-8")
    lines = {}
    # not str.splitlines, which also breaks at \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029
    for n, line in enumerate(text.split("\n"), start=1):
        line = line.strip(SPACE)
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IngestError(f"expected key=value, got {line!r}", line=n)
        key, _, value = line.partition("=")
        key = key.strip(SPACE).replace("-", "_")
        if key not in OPTIONS:
            raise IngestError(f"unknown key {key!r}", line=n)
        if key in lines:
            raise IngestError(f"key {key!r} already set at line {lines[key][0]}", line=n)
        lines[key] = n, value.strip(SPACE)
    out = {}
    for key, (n, value) in lines.items():
        cast, rule = OPTIONS[key].type, OPTIONS[key].rule
        try:
            out[key] = cast(value)
        except ValueError:
            raise IngestError(f"{key} must be {cast.__name__}, got {value!r}", line=n) from None
        if rule is not None:
            try:
                rule(out[key])
            except ValueError as e:
                raise IngestError(str(e), line=n) from None
    return out


@contextlib.contextmanager
def _output(args, filename):
    """The file `filename` in the --out directory, open for writing; stdout
    when there is no --out."""
    if args.out is None:
        yield sys.stdout
        return
    d = Path(args.out)
    d.mkdir(parents=True, exist_ok=True)
    with write_output(d / filename) as fh:
        yield fh


def _read(args, name, reader, *rest):
    """reader(the path option name resolved to, *rest), whose file faults
    (IngestError, OSError) become a ValueError starting with that name."""
    try:
        return reader(getattr(args, name), *rest)
    except (IngestError, OSError) as e:
        raise ValueError(f"{name} {e}") from None


# -- subcommands ------------------------------------------------------------
# Each takes the parsed arguments with every option of its command resolved
# (flag > config file > default) and every required one set, see main.


def cmd_ingest_check(args) -> None:
    if args.od is None and args.ff is None:
        raise ValueError("nothing to check: pass --od and/or --ff")
    if args.od is not None:
        store = _read(args, "od", load_od)
        dates = store.dates_present()
        span = f"{dates[0].isoformat()}..{dates[-1].isoformat()}" if dates else "none"
        print(
            f"od: {len(store)} records, {len(store.hex_ids)} hexes, "
            f"{len(dates)} days ({span}), user types: "
            f"{','.join(store.user_types_present()) or 'none'}"
        )
    if args.ff is not None:
        store = _read(args, "ff", load_footfall)
        print(f"footfall: {len(store)} records, {len(store.hex_ids)} hexes")


def cmd_stats(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    s = descriptive_stats(store, args.user_type)
    lines = [
        "user_type,count,mean,std,min,max",
        f"{args.user_type},{s.count},{analytics.fmt_float(s.mean)},"
        f"{analytics.fmt_float(s.std)},{s.min},{s.max}",
    ]
    with _output(args, "stats.csv") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_homework(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    pairs = homework.detect_home_work(store, min_days=args.min_days)
    with _output(args, "pairs.csv") as fh:
        homework.export_pairs_csv(pairs, fh)


def cmd_diary(args) -> None:
    out_dir = Path(args.out)
    store = _read(args, "od", load_od, args.user_type)
    pairs = homework.detect_home_work(store, min_days=args.min_days)
    if not pairs:
        raise ValueError("no home-work pairs detected; nothing to mine")
    M = homework.build_homework_matrix(store, pairs)
    anchors = [args.anchor] if args.anchor is not None else sorted(M.homes())
    weekdays = [args.weekday] if args.weekday is not None else list(range(1, 8))
    ff = _read(args, "ff", load_footfall) if args.ff else None
    attrs = _read(args, "attrs", diaries.load_attributes) if args.attrs else None
    # before the mkdir, so that a rejected run leaves no directory; every
    # home and every weekday 1..7 passes, so the first pair raises any fault
    diaries.check_diary_args(M, anchors[0], weekdays[0], args.min_support)
    out_dir.mkdir(parents=True, exist_ok=True)
    for a in anchors:
        for wd in weekdays:
            pattern = diaries.mine_diary(M, a, wd, min_support=args.min_support)
            pattern = diaries.enrich(pattern, ff=ff, attrs=attrs)
            diaries.export_diary_json(pattern, out_dir / f"diary_{a}_wd{wd}.json")


def cmd_profile(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    prof = analytics.temporal_profile(store, args.hex, args.role)
    with _output(args, f"profile_{args.hex}_{args.role}.csv") as fh:
        analytics.write_profile_csv(prof, fh)


def cmd_dow(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    dist = analytics.day_of_week_totals(store)
    with _output(args, "dow.csv") as fh:
        analytics.write_dow_csv(dist, fh)


def cmd_diff(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    layer = analytics.day_difference(store, args.a, args.b, args.role)
    with _output(args, f"diff_{args.a}_{args.b}.csv") as fh:
        analytics.write_diff_csv(layer, fh)


def cmd_topk(args) -> None:
    store = _read(args, "od", load_od, args.user_type)
    ranked = analytics.top_k(store, args.role, args.k)
    with _output(args, f"top{args.k}_{args.role}.csv") as fh:
        analytics.write_topk_csv(ranked, fh)


def cmd_synth(args) -> None:
    config = synth.SynthConfig(
        seed=args.seed,
        n_hexes=args.hexes,
        n_agents=args.agents,
        month=(args.year, args.month),
        thursday_weight=args.thursday_weight,
        weekend_worker_fraction=args.weekend_fraction,
        secondary_activity_rate=args.secondary_rate,
        suppression_threshold=args.suppression_threshold,
        resident_factor=args.resident_factor,
        transient_factor=args.transient_factor,
    )
    world = synth.generate(config)
    world.write(args.out)
    print(
        f"od_records={len(world.od_records)} ff_records={len(world.ff_records)} "
        f"pairs={len(world.ledger['pairs'])}"
    )


def cmd_export_geojson(args) -> None:
    boundaries = _read(args, "boundaries", geo.load_boundaries)
    layer = _read(args, "layer", geo.load_layer)
    doc, missing = geo.export_geojson(layer, boundaries)
    if missing:
        print(f"warning: {missing} hexes without boundaries skipped", file=sys.stderr)
    with _output(args, "layer.geojson") as fh:
        geo.write_geojson(doc, fh)


def cmd_mine(args) -> None:
    txns = _read(args, "transactions", mining.read_transactions)
    itemsets = mining.eclat(txns, args.min_support)
    with _output(args, "itemsets.tsv") as fh:
        mining.write_itemsets(itemsets, fh)


# -- parser -----------------------------------------------------------------

# Every subcommand: name -> (handler, help, its options in parser order, each
# one the run requires marked `!`, and the defaults it sets in place of its
# options' own).
COMMANDS = {
    "ingest-check": (cmd_ingest_check, "validate input files and summarize them", "out od ff", {}),
    "stats": (cmd_stats, "descriptive statistics of OD counts", "out od! user_type", {"user_type": "all"}),
    "homework": (cmd_homework, "detect home-work anchor pairs", "out od! user_type min_days",
                 {"user_type": "worker"}),
    "diary": (cmd_diary, "mine per-anchor per-weekday travel diaries",
              "out! od! ff user_type min_days min_support anchor weekday attrs", {"user_type": "worker"}),
    "profile": (cmd_profile, "per-interval counts for one hex", "out od! user_type hex! role", {}),
    "dow": (cmd_dow, "daily totals for every calendar day, grouped by weekday", "out od! user_type", {}),
    "diff": (cmd_diff, "mean-daily-count difference layer between two weekdays",
             "out od! user_type a! b! role", {}),
    "topk": (cmd_topk, "busiest hexes by monthly total", "out od! user_type role k", {}),
    "synth": (cmd_synth, "generate a synthetic world with ground-truth ledger",
              "out! seed! hexes agents year month thursday_weight weekend_fraction secondary_rate "
              "suppression_threshold resident_factor transient_factor", {}),
    "export-geojson": (cmd_export_geojson, "turn a hex,value layer into GeoJSON",
                       "out layer! boundaries!", {}),
    "mine": (cmd_mine, "standalone eclat over a transaction file", "out transactions! min_support",
             {"min_support": 2}),
}


def _options(command: str) -> list[tuple[str, bool]]:
    """(name, required) for each option of a command, in parser order."""
    return [(spec.rstrip("!"), spec.endswith("!")) for spec in COMMANDS[command][2].split(" ")]


def _default(command: str, name: str):
    """The default a command resolves for an option: its own, else the option's."""
    return COMMANDS[command][3].get(name, OPTIONS[name].default)


#: the most characters of a message an `error:` line repeats; a longer one
#: is cut there and ends with an ellipsis, so a huge field in an input
#: cannot make a huge line
ERROR_CHARS = 1000


def _cut(message: str) -> str:
    """message, cut after ERROR_CHARS characters."""
    return message if len(message) <= ERROR_CHARS else message[:ERROR_CHARS] + "…"


class _Parser(argparse.ArgumentParser):
    """Cuts its usage errors as main cuts `error:` lines; so do its subparsers."""

    def error(self, message):
        super().error(_cut(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(
        prog="hexmob",
        description="Travel-diary reconstruction and mobility analytics "
        "from aggregated hexagon-grid OD and footfall counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for name, _ in _options(command):
            o = OPTIONS[name]
            default = _default(command, name)
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=o.type, choices=o.choices,
                           help=o.help.format(o.unset if default is None else default))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _read(args, "config", load_config) if args.config else {}
        for name, required in _options(args.command):
            if getattr(args, name) is None:
                setattr(args, name, cfg.get(name, _default(args.command, name)))
            if required and getattr(args, name) is None:
                raise ValueError(f"missing required option --{name.replace('_', '-')}")
        COMMANDS[args.command][0](args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {_cut(str(e))}", file=sys.stderr)
        return 1
    return 0
