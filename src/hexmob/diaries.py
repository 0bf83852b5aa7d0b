"""Artificial travel diaries: chain flows outward from an anchor hex across
the day's intervals, mine the frequent per-weekday flow patterns per temporal
regime, and enrich the mentioned hexes with footfall means and attributes.

A flow here is a plain (origin, destination, interval, count) tuple; dropping
the count gives the item mined by eclat. Chains run over intervals 1..8 only:
a stage's flows must start where some previous-stage flow ended, and dwell
self-loops are what let a chain survive a quiet interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .homework import HomeWorkMatrix
from .ingest import FootfallStore, IngestError, csv_records, write_output
from .mining import _eclat as eclat, check_min_support
from .model import (
    FOOTFALL_USER_TYPES,
    MORNING_PEAK,
    REGIME_INTERVALS,
    SUB_DAY_INTERVALS,
    check_weekday,
    is_hex_id,
)


class AnchorNotFoundError(ValueError):
    """The requested anchor hex is not part of any detected pair."""


@dataclass(frozen=True)
class ChainStage:
    """Flows reachable at one interval; stage 1 covers intervals 1 and 2."""

    stage_index: int
    flows: tuple  # of (origin, destination, interval, count)

    def destinations(self) -> set:
        return {f[1] for f in self.flows}


@dataclass(frozen=True)
class AttributeBag:
    footfall_mean: dict
    extra: dict

    @classmethod
    def empty(cls) -> "AttributeBag":
        return cls(footfall_mean={}, extra={})


@dataclass(frozen=True)
class DiaryPattern:
    anchor: str
    weekday: int
    days: tuple
    min_support: int
    stages: tuple
    regime_patterns: dict  # regime name -> tuple of FrequentItemset
    intraflow_series: dict  # interval 1..8 -> count over the weekday's days
    inflow_series: dict  # interval 1..8 -> count into anchor, self-loop excluded
    enrichment: dict  # hex -> AttributeBag

    def mentioned_hexes(self) -> set:
        """Every hex an itemset of the diary mentions, read off each
        regime's frequent singles alone: every item of a frequent itemset is
        a frequent single, and the singles are listed first."""
        return _single_hexes(self.regime_patterns)


def _single_hexes(regime_patterns: dict) -> set:
    """The origins and destinations of each regime's leading size-1 itemsets."""
    hexes = set()
    for itemsets in regime_patterns.values():
        for fs in itemsets:
            if len(fs.items) != 1:
                break
            hexes.update(fs.items[0][:2])
    return hexes


def check_diary_args(M: HomeWorkMatrix, anchor: str, weekday: int, min_support: int | None = None) -> None:
    """Raise what mine_diary raises for its arguments, in its order: an
    anchor outside every detected pair, a weekday outside 1..7, then a
    min_support below 1 (None stands for the default, always valid)."""
    if anchor not in M.pair_hexes:
        raise AnchorNotFoundError(f"anchor {anchor!r} is not a hex of any detected pair")
    check_weekday(weekday)
    if min_support is not None:
        check_min_support(min_support)


def chain_stages(M: HomeWorkMatrix, anchor: str, weekday: int) -> list[ChainStage]:
    """Eight stages of flows chained from the anchor on one weekday.

    Stage 1: flows leaving the anchor at intervals 1 or 2 on the weekday's
    days, counts summed across those days. Stage i (2..8): interval-i flows
    whose origin is a destination of stage i-1. Stages may be empty once a
    chain dies out; the list always has 8 entries.
    """
    check_diary_args(M, anchor, weekday)
    adjacency = M.flows.weekday_flows(weekday).adjacency
    frontier = {anchor}

    def stage(stage_index, intervals) -> ChainStage:
        nonlocal frontier
        flows = [f for iv in intervals for o in frontier for f in adjacency.get((iv, o), ())]
        # (origin, destination, interval) is unique, so the count never decides the order
        st = ChainStage(stage_index, tuple(sorted(flows)))
        frontier = st.destinations()
        return st

    return [stage(1, REGIME_INTERVALS[MORNING_PEAK])] + [stage(iv, (iv,)) for iv in range(2, 9)]


def default_min_support(n_weekday_days: int) -> int:
    """Half the weekday's occurrences, rounded up, but never below 2."""
    return max(2, math.ceil(0.5 * n_weekday_days))


def mine_diary(
    M: HomeWorkMatrix,
    anchor: str,
    weekday: int,
    min_support: int | None = None,
) -> DiaryPattern:
    """Frequent flow patterns around one anchor on one weekday, per regime.

    Each temporal regime gets its own transaction database: a transaction is
    one calendar day of the weekday, its items the chained flows (origin,
    destination, interval) actually present that day with interval in the
    regime. Each item's day bitmask is its tid-set, so the regime is mined
    straight on the masks. Counts feed the intraflow/inflow series, not the
    mining.
    """
    check_diary_args(M, anchor, weekday, min_support)
    stages = chain_stages(M, anchor, weekday)
    index = M.flows.weekday_flows(weekday)
    days = index.dates
    if min_support is None:
        min_support = default_min_support(len(days))

    all_items = sorted({f[:3] for st in stages for f in st.flows})
    day_mask = index.day_mask
    regime_patterns: dict = {}
    for name, intervals in REGIME_INTERVALS.items():
        found = eclat([(it, day_mask[it]) for it in all_items if it[2] in intervals], min_support)
        regime_patterns[name] = tuple(found)

    intraflow = {iv: 0 for iv in SUB_DAY_INTERVALS}
    inflow = {iv: 0 for iv in SUB_DAY_INTERVALS}
    for o, _, iv, c in index.into.get(anchor, ()):
        if o == anchor:
            intraflow[iv] += c
        else:
            inflow[iv] += c

    return DiaryPattern(
        anchor=anchor,
        weekday=weekday,
        days=days,
        min_support=min_support,
        stages=tuple(stages),
        regime_patterns=regime_patterns,
        intraflow_series=intraflow,
        inflow_series=inflow,
        enrichment={h: AttributeBag.empty() for h in sorted(_single_hexes(regime_patterns))},
    )


def load_attributes(path) -> dict:
    """Parse a `hex,key,value` attribute CSV into hex -> {key: value}.

    Rows are split by the csv module, so a value may be quoted as that
    module writes it; malformed quoting is an error at its line. A leading
    literal `hex,key,value` header row is skipped. A key given twice for one
    hex is an error naming both lines. Errors name the file line a record
    starts on, so a quoted value that spans lines does not shift them.
    """
    out: dict = {}
    first_line: dict = {}
    for n, row in csv_records(path):
        if not row:
            continue
        if n == 1 and row == ["hex", "key", "value"]:
            continue
        if len(row) != 3:
            raise IngestError(f"expected 3 fields, got {len(row)}", line=n)
        h, key, value = row
        if not is_hex_id(h):
            raise IngestError(f"malformed hex id: {h!r}", line=n)
        seen = first_line.setdefault((h, key), n)
        if seen != n:
            raise IngestError(f"attribute {key!r} of {h} repeated, first set at line {seen}", line=n)
        out.setdefault(h, {})[key] = value
    return out


def enrich(
    pattern: DiaryPattern,
    ff: FootfallStore | None = None,
    attrs: dict | None = None,
) -> DiaryPattern:
    """Fill each mentioned hex's bag with footfall means per user type and
    any extra attributes; hexes absent from the footfall data keep empty bags."""
    enrichment = {}
    for h in sorted(pattern.mentioned_hexes()):
        means = {}
        if ff is not None:
            for ut in FOOTFALL_USER_TYPES:
                m = ff.mean_daily_count(h, ut)
                if m is not None:
                    means[ut] = m
        extra = dict((attrs or {}).get(h, {}))
        enrichment[h] = AttributeBag(footfall_mean=means, extra=extra)
    return replace(pattern, enrichment=enrichment)


_quote = json.encoder.encode_basestring_ascii

# A diary's members at their fixed depth in the document, laid out as
# json.dumps(..., sort_keys=True, indent=2) lays them out.
_FLOW = (
    '{\n          "count": %d,\n          "destination": %s,\n'
    '          "interval": %d,\n          "origin": %s\n        }'
)
_STAGE = '{\n      "flows": %s,\n      "stage": %d\n    }'
_ITEM = "[\n            %s,\n            %s,\n            %d\n          ]"
_ITEM_SEP = ",\n          "
_ITEMSET = '{\n        "items": [\n          %s\n        ],\n        "support": %d\n      }'
_EMPTY_ITEMSET = '{\n        "items": [],\n        "support": %d\n      }'
_BAG = '{\n      "extra": %s,\n      "footfall_mean": %s\n    }'
_DIARY = (
    '{\n  "anchor": %s,\n  "days": %s,\n  "enrichment": %s,\n  "inflow": %s,\n'
    '  "intraflow": %s,\n  "min_support": %d,\n  "regimes": %s,\n  "stages": %s,\n'
    '  "weekday": %d\n}'
)


def _array(values: list, level: int) -> str:
    """A JSON array of laid-out values whose brackets sit at indent level."""
    if not values:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(values) + "\n" + "  " * level + "]"


def _object(members, level: int) -> str:
    """A JSON object of (key, laid-out value) pairs, keys sorted, whose
    braces sit at indent level."""
    if not members:
        return "{}"
    pad = "\n" + "  " * (level + 1)
    body = ("," + pad).join(_quote(k) + ": " + v for k, v in sorted(members))
    return "{" + pad + body + "\n" + "  " * level + "}"


def diary_json(pattern: DiaryPattern) -> str:
    """The diary as JSON text, without a trailing newline.

    The text is exactly json.dumps(doc, sort_keys=True, indent=2) of the
    document {anchor, weekday, days: [ISO date], min_support, stages:
    [{stage, flows: [{origin, destination, interval, count}]}], regimes:
    {name: [{items: [[origin, destination, interval]], support}]},
    intraflow/inflow: {"interval": count}, enrichment: {hex: {footfall_mean,
    extra}}}, but built straight from the pattern: with an indent the stdlib
    encodes in pure Python, one small chunk at a time.
    """
    stages = _array([
        _STAGE % (_array([_FLOW % (c, _quote(d), iv, _quote(o)) for o, d, iv, c in st.flows], 3),
                  st.stage_index)
        for st in pattern.stages
    ], 1)
    # the itemsets repeat a diary's few chained flows many times over
    item_text = {
        it: _ITEM % (_quote(it[0]), _quote(it[1]), it[2])
        for it in {it for sets in pattern.regime_patterns.values() for fs in sets for it in fs.items}
    }
    regimes = _object([
        (name, _array([
            _ITEMSET % (_ITEM_SEP.join([item_text[it] for it in fs.items]), fs.support)
            if fs.items else _EMPTY_ITEMSET % fs.support
            for fs in itemsets
        ], 2))
        for name, itemsets in pattern.regime_patterns.items()
    ], 1)
    enrichment = _object([
        (h, _BAG % (
            # extra is free-form; the stdlib lays out any JSON value exactly,
            # but in pure Python, so the common empty bag skips it
            json.dumps(bag.extra, sort_keys=True, indent=2).replace("\n", "\n      ") if bag.extra else "{}",
            _object([(ut, float.__repr__(m)) for ut, m in bag.footfall_mean.items()], 3),
        ))
        for h, bag in pattern.enrichment.items()
    ], 1)
    return _DIARY % (
        _quote(pattern.anchor),
        _array([_quote(d.isoformat()) for d in pattern.days], 1),
        enrichment,
        _object([(str(iv), "%d" % c) for iv, c in pattern.inflow_series.items()], 1),
        _object([(str(iv), "%d" % c) for iv, c in pattern.intraflow_series.items()], 1),
        pattern.min_support,
        regimes,
        stages,
        pattern.weekday,
    )


def export_diary_json(pattern: DiaryPattern, path) -> None:
    text = diary_json(pattern) + "\n"
    with write_output(path) as fh:
        fh.write(text)
