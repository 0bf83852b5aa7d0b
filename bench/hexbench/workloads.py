"""The benchmark's workloads: one fixed-config synthetic world each, and the
closed-loop pass that runs over it.

Every world uses June 2025 and suppression_threshold=1, so the ledger
withholds nothing and every output check is exact. A pass makes each library
or CLI call only after the previous one has returned; there are no threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from hexmob import cli, diaries, homework, ingest, synth

MONTH = (2025, 6)
TOP_K = 10
GEO_LAYER = (1, 4)  # the weekday pair whose difference layer is exported
MINE_MIN_SUPPORT = 25


@dataclass(frozen=True)
class Workload:
    name: str
    hexes: int
    agents: int
    #: lines in the seeded transactions file; 0 writes none
    transactions: int = 0
    #: operations whose labels start with this are the latency samples
    latency_prefix: str = ""

    def config(self, seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(
            seed=seed, n_hexes=self.hexes, n_agents=self.agents, month=MONTH,
            suppression_threshold=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # 12 agents per hex keeps a tail of itemset-heavy diaries without a
        # power-set blow-up: on seeds 101-110, 952-1,029 diaries held a median
        # of 14 itemsets and at most 80-656. Denser worlds blow up: on seed 7,
        # 500 hexes and 20,000 agents gave one diary 8,389,660 itemsets
        # (2.7 GB, then MemoryError), and 600 hexes with 12,000 agents gave
        # one 132,352.
        Workload("diary-sweep", hexes=500, agents=6_000, latency_prefix="diary "),
        Workload("cli-batch", hexes=400, agents=4_000, transactions=5_000),
    )
}


@dataclass
class World:
    """What set-up leaves behind: the input files, their sizes and the
    parts of the ledger that the output checks read."""

    config: dict
    files: dict  # od, footfall, ledger, boundaries[, transactions] -> path
    rows: dict  # same keys -> data rows (lines for transactions)
    ledger: dict


LEDGER_KEYS = ("pairs", "groups", "daily_totals", "od_dest_totals", "totals")


def set_up(workload: Workload, seed: int, directory: Path) -> tuple[World, dict]:
    """Generate and write the world; returns it with the seconds each step took."""
    t0 = time.perf_counter()
    world = synth.generate(workload.config(seed))
    t1 = time.perf_counter()
    paths = world.write(directory)
    t2 = time.perf_counter()
    files = {k: str(p) for k, p in paths.items()}
    rows = {
        "od": len(world.od_records),
        "footfall": len(world.ff_records),
        "boundaries": len(world.boundaries),
    }
    if workload.transactions:
        files["transactions"] = str(Path(directory) / "transactions.txt")
        write_transactions(files["transactions"], seed, workload.transactions)
        rows["transactions"] = workload.transactions
    t3 = time.perf_counter()
    kept = World(
        config=world.ledger["config"],
        files=files,
        rows=rows,
        ledger={k: world.ledger[k] for k in LEDGER_KEYS},
    )
    return kept, {"generate": t1 - t0, "write": t2 - t1, "transactions": t3 - t2}


def write_transactions(path, seed: int, n: int, n_items: int = 200, draws: int = 10) -> None:
    """n transactions of `draws` draws each from n_items items with Zipf-like
    weights 1/rank; repeated draws collapse, so a line holds at most `draws`."""
    rng = random.Random(seed)
    items = [f"i{k:03d}" for k in range(n_items)]
    weights = [1 / (k + 1) for k in range(n_items)]
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            fh.write(" ".join(sorted(set(rng.choices(items, weights, k=draws)))) + "\n")


def rows_parsed(workload: Workload, world: World) -> int:
    """OD and footfall CSV rows one pass parses."""
    od, ff = world.rows["od"], world.rows["footfall"]
    if workload.name == "diary-sweep":
        return od + ff
    # each CLI command parses every CSV it is given, once
    commands = cli_commands(world.files, Path(), anchor_of(world.ledger))
    return sum(od * argv.count("--od") + ff * argv.count("--ff") for _, argv, _, _ in commands)


def homes(ledger: dict) -> list:
    return sorted({p["home"] for p in ledger["pairs"]})


def anchor_of(ledger: dict) -> dict:
    """The pair whose home the single-anchor diary and whose work hex the
    profile command use."""
    first = ledger["pairs"][0]
    return {"home": first["home"], "work": first["work"]}


def expected_ops(workload: Workload, world: World) -> int:
    """Operations one pass attempts on this world."""
    if workload.name == "diary-sweep":
        return 4 + 7 * len(homes(world.ledger))
    return len(cli_commands(world.files, Path(), anchor_of(world.ledger)))


# -- one pass ---------------------------------------------------------------


class Ops:
    """Runs a pass's operations in order, timing each and recording, rather
    than raising, its failure so that the pass goes on."""

    def __init__(self):
        self.log: list = []  # [label, seconds, error or None]

    def __call__(self, label: str, fn, *args):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # counted as a failed operation
            self.log.append([label, time.perf_counter() - t0, f"{type(e).__name__}: {e}"])
            return None
        self.log.append([label, time.perf_counter() - t0, None])
        return result


def diary_sweep(run: Ops, files: dict, out: Path, anchor: dict) -> dict:
    worker = run("load_od worker", ingest.load_od, files["od"], "worker")
    ff = run("load_footfall", ingest.load_footfall, files["footfall"])
    pairs = run("detect_home_work", homework.detect_home_work, worker)
    matrix = run("build_homework_matrix", homework.build_homework_matrix, worker, pairs)
    for home in sorted(matrix.homes()) if matrix is not None else ():
        for weekday in range(1, 8):
            run(f"diary {home} wd{weekday}", write_diary, matrix, ff, home, weekday, out)
    return {"pairs": pairs}


def write_diary(matrix, ff, home: str, weekday: int, out: Path) -> None:
    pattern = diaries.mine_diary(matrix, home, weekday)
    pattern = diaries.enrich(pattern, ff)
    diaries.export_diary_json(pattern, out / f"diary_{home}_wd{weekday}.json")


class NonZeroExit(RuntimeError):
    pass


def cli_call(label: str, argv: list) -> str:
    """hexmob.cli.main in-process; returns what it wrote to stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    if rc != 0:
        raise NonZeroExit(f"{label} exited {rc}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


def cli_commands(files: dict, out: Path, anchor: dict) -> list:
    """(label, argv, writes with --out, can write both ways) per command."""
    od, ff = files["od"], files["footfall"]
    a, b = GEO_LAYER
    return [
        ("ingest_check", ["ingest-check", "--od", od, "--ff", ff], False, False),
        ("stats", ["stats", "--od", od], False, True),
        ("homework", ["homework", "--od", od], True, True),
        ("diary_all", ["diary", "--od", od, "--ff", ff], True, False),
        ("diary_one", ["diary", "--od", od, "--ff", ff, "--anchor", anchor["home"]], True, False),
        ("profile", ["profile", "--od", od, "--hex", anchor["work"]], False, True),
        ("dow", ["dow", "--od", od], True, True),
        ("diff", ["diff", "--od", od, "--a", str(a), "--b", str(b)], True, True),
        ("topk", ["topk", "--od", od, "--k", str(TOP_K)], False, True),
        ("export_geojson", ["export-geojson", "--layer", str(out / "diff" / f"diff_{a}_{b}.csv"),
                            "--boundaries", files["boundaries"]], True, True),
        ("mine", ["mine", "--transactions", files.get("transactions", ""),
                  "--min-support", str(MINE_MIN_SUPPORT)], False, True),
    ]


def cli_batch(run: Ops, files: dict, out: Path, anchor: dict) -> dict:
    stdout = {}
    for label, argv, to_out, _ in cli_commands(files, out, anchor):
        if to_out:
            argv = argv + ["--out", str(out / label)]
        stdout[label] = run(f"cli {label}", cli_call, label, argv)
    return {"stdout": stdout}


PASSES = {
    "diary-sweep": diary_sweep,
    "cli-batch": cli_batch,
}


def both_ways(files: dict, out: Path, anchor: dict, stdout: dict, alt: Path) -> dict:
    """Re-run each command that can write both ways the other way round, and
    compare: True where stdout and the --out file hold the same bytes."""
    same = {}
    for label, argv, to_out, can_both in cli_commands(files, out, anchor):
        if not can_both:
            continue
        try:
            if to_out:
                text = cli_call(label, argv)
                (written,) = (out / label).iterdir()
            else:
                cli_call(label, argv + ["--out", str(alt / label)])
                (written,) = (alt / label).iterdir()
                text = stdout[label]
        except (NonZeroExit, ValueError, OSError):
            same[label] = False
            continue
        same[label] = text is not None and written.read_bytes() == text.encode("utf-8")
    return same


# -- results ------------------------------------------------------------------


def jsonable(x):
    """Plain-JSON form of a pass's in-memory results."""
    if dataclasses.is_dataclass(x):
        return jsonable(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {_key(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dt.date):
        return x.isoformat()
    return x


def _key(k) -> str:
    if isinstance(k, tuple):
        return "|".join(str(p) for p in k)
    return str(k)


def write_results(results: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(results), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
