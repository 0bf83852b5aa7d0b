"""Command-line pipeline over the OD/footfall toolkit.

Subcommands map one-to-one to library operations. Every run is deterministic:
identical inputs and flags produce byte-identical outputs. Options resolve as
explicit flag > config file (`key=value` lines via --config) > built-in
default. Exit codes: 0 success, 1 operation error (one `error: ...` line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from . import analytics, diaries, geo, homework, mining, synth
from .ingest import IngestError, descriptive_stats, load_footfall, load_od, read_input
from .model import OD_USER_TYPES, ROLE_DESTINATION, ROLE_ORIGIN

DEFAULTS = {
    "user_type": None,  # analytics read all records; homework/diary override below
    "min_days": 10,
    "role": ROLE_DESTINATION,
    "k": 10,
    "hexes": 60,
    "agents": 500,
    "year": 2025,
    "month": 6,
    "thursday_weight": 1.0,
    "weekend_fraction": 0.15,
    "secondary_rate": 0.3,
    "suppression_threshold": 22,
    "resident_factor": 1.0,
    "transient_factor": 0.2,
}


def _int(text: str) -> int:
    """The integer an ASCII `-?[0-9]+` spells; ValueError for anything
    else, including what int() alone accepts, such as `1_0`, `+1`,
    non-ASCII digits or surrounding whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


_int.__name__ = "int"  # the type name argparse and _cast print


# Config values a command would reject, checked as the file loads so that the
# message names the line: key -> (cast, test, what the value must be).
_CONFIG_RULES = {
    "user_type": (str, OD_USER_TYPES.__contains__, f"one of {'|'.join(OD_USER_TYPES)}"),
    "role": (str, (ROLE_ORIGIN, ROLE_DESTINATION).__contains__, f"{ROLE_ORIGIN!r} or {ROLE_DESTINATION!r}"),
    "min_days": (_int, lambda v: v >= 1, ">= 1"),
    "min_support": (_int, lambda v: v >= 1, ">= 1"),
}


def load_config(path, known) -> dict:
    """Flat `key=value` file as {key: (line number, value)}; blank lines and
    #-comments allowed. Keys use the long flag names; dashes and underscores
    are interchangeable. A key not in known, one given twice, or a value
    that _CONFIG_RULES rejects is an error naming its line. The file is
    read by ingest.read_input, so lines end at LF, CR or CRLF only, as in
    the CSV inputs."""
    out = {}
    try:
        text = read_input(path).decode("utf-8")
    except IngestError as e:  # only a missing file has no line
        raise ValueError(f"config {e}" if e.line else f"no such config file: {path}") from None
    # not str.splitlines, which also breaks at \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029
    for n, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {n}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in known:
            raise ValueError(f"config line {n}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {n}: key {key!r} already set at line {out[key][0]}")
        if key in _CONFIG_RULES:
            cast, ok, what = _CONFIG_RULES[key]
            if not ok(_cast(n, key, cast, value)):
                raise ValueError(f"config line {n}: {key} must be {what}, got {value!r}")
        out[key] = n, value
    return out


def _cast(n: int, key: str, cast, text: str):
    """cast(text), the value of key on config line n."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"config line {n}: {key} must be {cast.__name__}, got {text!r}") from None


def _opt(args, cfg, name, cast=str, default=None, required=False):
    value = getattr(args, name)
    if value is None and name in cfg:
        n, text = cfg[name]
        value = _cast(n, name, cast, text)
    if value is None:
        value = default if default is not None else DEFAULTS.get(name)
    if required and value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


@contextlib.contextmanager
def _output(args, cfg, filename):
    """The file `filename` in the --out directory, open for writing; stdout
    when there is no --out."""
    out = _opt(args, cfg, "out")
    if out is None:
        yield sys.stdout
        return
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / filename, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _load_od_checked(args, cfg, default_user_type=None):
    od = _opt(args, cfg, "od", required=True)
    ut = _opt(args, cfg, "user_type", default=default_user_type)
    if ut is not None and ut not in OD_USER_TYPES:
        raise ValueError(f"--user-type must be one of {'|'.join(OD_USER_TYPES)}")
    return load_od(od, user_type_filter=ut), ut


# -- subcommands ------------------------------------------------------------


def cmd_ingest_check(args, cfg) -> int:
    od = _opt(args, cfg, "od")
    ff = _opt(args, cfg, "ff")
    if od is None and ff is None:
        raise ValueError("nothing to check: pass --od and/or --ff")
    if od is not None:
        store = load_od(od)
        dates = store.dates_present()
        span = f"{dates[0].isoformat()}..{dates[-1].isoformat()}" if dates else "none"
        print(
            f"od: {len(store)} records, {len(store.hex_ids)} hexes, "
            f"{len(dates)} days ({span}), user types: "
            f"{','.join(store.user_types_present()) or 'none'}"
        )
    if ff is not None:
        store = load_footfall(ff)
        print(f"footfall: {len(store)} records, {len(store.hex_ids)} hexes")
    return 0


def cmd_stats(args, cfg) -> int:
    store, ut = _load_od_checked(args, cfg, default_user_type="all")
    s = descriptive_stats(store, ut)
    lines = [
        "user_type,count,mean,std,min,max",
        f"{ut},{s.count},{analytics.fmt_float(s.mean)},"
        f"{analytics.fmt_float(s.std)},{s.min},{s.max}",
    ]
    with _output(args, cfg, "stats.csv") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_homework(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg, default_user_type="worker")
    min_days = _opt(args, cfg, "min_days", _int)
    pairs = homework.detect_home_work(store, min_days=min_days)
    with _output(args, cfg, "pairs.csv") as fh:
        homework.export_pairs_csv(pairs, fh)
    return 0


def cmd_diary(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg, default_user_type="worker")
    min_days = _opt(args, cfg, "min_days", _int)
    min_support = _opt(args, cfg, "min_support", _int)
    pairs = homework.detect_home_work(store, min_days=min_days)
    if not pairs:
        raise ValueError("no home-work pairs detected; nothing to mine")
    M = homework.build_homework_matrix(store, pairs)
    anchor = _opt(args, cfg, "anchor")
    weekday = _opt(args, cfg, "weekday", _int)
    anchors = [anchor] if anchor is not None else sorted(M.homes())
    weekdays = [weekday] if weekday is not None else list(range(1, 8))
    ff_path = _opt(args, cfg, "ff")
    ff = load_footfall(ff_path) if ff_path else None
    attrs_path = _opt(args, cfg, "attrs")
    attrs = diaries.load_attributes(attrs_path) if attrs_path else None
    out = _opt(args, cfg, "out", required=True)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for a in anchors:
        for wd in weekdays:
            pattern = diaries.mine_diary(M, a, wd, min_support=min_support)
            pattern = diaries.enrich(pattern, ff=ff, attrs=attrs)
            diaries.export_diary_json(pattern, out_dir / f"diary_{a}_wd{wd}.json")
    return 0


def cmd_profile(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg)
    hex_id = _opt(args, cfg, "hex", required=True)
    role = _opt(args, cfg, "role")
    prof = analytics.temporal_profile(store, hex_id, role)
    with _output(args, cfg, f"profile_{hex_id}_{role}.csv") as fh:
        analytics.write_profile_csv(prof, fh)
    return 0


def cmd_dow(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg)
    role = _opt(args, cfg, "role")
    dist = analytics.day_of_week_totals(store, role)
    with _output(args, cfg, "dow.csv") as fh:
        analytics.write_dow_csv(dist, fh)
    return 0


def cmd_diff(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg)
    day_a = _opt(args, cfg, "a", _int, required=True)
    day_b = _opt(args, cfg, "b", _int, required=True)
    role = _opt(args, cfg, "role")
    layer = analytics.day_difference(store, day_a, day_b, role)
    with _output(args, cfg, f"diff_{day_a}_{day_b}.csv") as fh:
        analytics.write_diff_csv(layer, fh)
    return 0


def cmd_topk(args, cfg) -> int:
    store, _ = _load_od_checked(args, cfg)
    role = _opt(args, cfg, "role")
    k = _opt(args, cfg, "k", _int)
    ranked = analytics.top_k(store, role, k)
    with _output(args, cfg, f"top{k}_{role}.csv") as fh:
        analytics.write_topk_csv(ranked, fh)
    return 0


def cmd_synth(args, cfg) -> int:
    config = synth.SynthConfig(
        seed=_opt(args, cfg, "seed", _int, required=True),
        n_hexes=_opt(args, cfg, "hexes", _int),
        n_agents=_opt(args, cfg, "agents", _int),
        month=(_opt(args, cfg, "year", _int), _opt(args, cfg, "month", _int)),
        thursday_weight=_opt(args, cfg, "thursday_weight", float),
        weekend_worker_fraction=_opt(args, cfg, "weekend_fraction", float),
        secondary_activity_rate=_opt(args, cfg, "secondary_rate", float),
        suppression_threshold=_opt(args, cfg, "suppression_threshold", _int),
        resident_factor=_opt(args, cfg, "resident_factor", float),
        transient_factor=_opt(args, cfg, "transient_factor", float),
    )
    out = _opt(args, cfg, "out", required=True)
    world = synth.generate(config)
    world.write(out)
    print(
        f"od_records={len(world.od_records)} ff_records={len(world.ff_records)} "
        f"pairs={len(world.ledger['pairs'])}"
    )
    return 0


def cmd_export_geojson(args, cfg) -> int:
    layer_path = _opt(args, cfg, "layer", required=True)
    boundaries = geo.load_boundaries(_opt(args, cfg, "boundaries", required=True))
    try:
        layer = geo.load_layer(layer_path)
    except IngestError as e:
        raise ValueError(f"layer {e}") from None
    doc, missing = geo.export_geojson(layer, boundaries)
    if missing:
        print(f"warning: {missing} hexes without boundaries skipped", file=sys.stderr)
    with _output(args, cfg, "layer.geojson") as fh:
        geo.write_geojson(doc, fh)
    return 0


def cmd_mine(args, cfg) -> int:
    txns = mining.read_transactions(_opt(args, cfg, "transactions", required=True))
    min_support = _opt(args, cfg, "min_support", _int, default=2)
    itemsets = mining.eclat(txns, min_support)
    with _output(args, cfg, "itemsets.tsv") as fh:
        mining.write_itemsets(itemsets, fh)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexmob",
        description="Travel-diary reconstruction and mobility analytics "
        "from aggregated hexagon-grid OD and footfall counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--out", help="output directory (default: write to stdout)")
        return p

    p = add("ingest-check", cmd_ingest_check, "validate input files and summarize them")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--ff", help="footfall CSV path")

    p = add("stats", cmd_stats, "descriptive statistics of OD counts")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default all)")

    p = add("homework", cmd_homework, "detect home-work anchor pairs")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default worker)")
    p.add_argument("--min-days", dest="min_days", type=_int, help="qualifying-day threshold (default 10)")

    p = add("diary", cmd_diary, "mine per-anchor per-weekday travel diaries")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--ff", help="footfall CSV path (enables enrichment)")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default worker)")
    p.add_argument("--min-days", dest="min_days", type=_int, help="pair detection threshold (default 10)")
    p.add_argument("--min-support", dest="min_support", type=_int,
                   help="itemset support; default max(2, ceil(0.5 x weekday occurrences))")
    p.add_argument("--anchor", help="single anchor hex (default: every detected home)")
    p.add_argument("--weekday", type=_int, help="single ISO weekday 1..7 (default: all)")
    p.add_argument("--attrs", help="hex,key,value attribute CSV for enrichment")

    p = add("profile", cmd_profile, "per-interval counts for one hex")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default: all records)")
    p.add_argument("--hex", help="hex id to profile")
    p.add_argument("--role", choices=[ROLE_ORIGIN, ROLE_DESTINATION], help="default destination")

    p = add("dow", cmd_dow, "daily totals for every calendar day, grouped by weekday")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default: all records)")
    p.add_argument("--role", choices=[ROLE_ORIGIN, ROLE_DESTINATION], help="default destination")

    p = add("diff", cmd_diff, "mean-daily-count difference layer between two weekdays")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default: all records)")
    p.add_argument("--a", type=_int, help="first ISO weekday 1..7")
    p.add_argument("--b", type=_int, help="second ISO weekday 1..7")
    p.add_argument("--role", choices=[ROLE_ORIGIN, ROLE_DESTINATION], help="default destination")

    p = add("topk", cmd_topk, "busiest hexes by monthly total")
    p.add_argument("--od", help="OD CSV path")
    p.add_argument("--user-type", dest="user_type", help="all|worker (default: all records)")
    p.add_argument("--role", choices=[ROLE_ORIGIN, ROLE_DESTINATION], help="default destination")
    p.add_argument("--k", type=_int, help="how many hexes (default 10)")

    p = add("synth", cmd_synth, "generate a synthetic world with ground-truth ledger")
    p.add_argument("--seed", type=_int, help="RNG seed (required)")
    p.add_argument("--hexes", type=_int, help="number of hexes (default 60)")
    p.add_argument("--agents", type=_int, help="number of commuter agents (default 500)")
    p.add_argument("--year", type=_int, help="calendar year (default 2025)")
    p.add_argument("--month", type=_int, help="calendar month (default 6)")
    p.add_argument("--thursday-weight", dest="thursday_weight", type=float,
                   help="Thursday commute scaling (default 1.0)")
    p.add_argument("--weekend-fraction", dest="weekend_fraction", type=float,
                   help="fraction of worker cohorts active on weekends (default 0.15)")
    p.add_argument("--secondary-rate", dest="secondary_rate", type=float,
                   help="fraction of cohorts with a secondary activity (default 0.3)")
    p.add_argument("--suppression-threshold", dest="suppression_threshold", type=_int,
                   help="drop records with count below this (default 22; 1 disables)")
    p.add_argument("--resident-factor", dest="resident_factor", type=float,
                   help="resident population as a multiple of agents (default 1.0)")
    p.add_argument("--transient-factor", dest="transient_factor", type=float,
                   help="transient population as a multiple of agents (default 0.2)")

    p = add("export-geojson", cmd_export_geojson, "turn a hex,value layer into GeoJSON")
    p.add_argument("--layer", help="CSV layer (hex,value) such as a diff output")
    p.add_argument("--boundaries", help="hex,ring boundary lookup CSV")

    p = add("mine", cmd_mine, "standalone eclat over a transaction file")
    p.add_argument("--transactions", help="one transaction per line, items space-separated")
    p.add_argument("--min-support", dest="min_support", type=_int, help="default 2")

    return parser


def _config_keys(parser: argparse.ArgumentParser) -> set:
    """Keys a config file may set: the defaults and every subcommand option."""
    keys = set(DEFAULTS)
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subcommands.choices.values():
        keys.update(a.dest for a in sub._actions if a.option_strings)
    return keys - {"help", "config"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = {}
    if args.config:
        try:
            cfg = load_config(args.config, _config_keys(parser))
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    try:
        return args.func(args, cfg)
    except BrokenPipeError:
        return 1
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)  # str() would quote it
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
