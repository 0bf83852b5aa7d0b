import json
import random
from dataclasses import astuple, replace

import pytest

from hexmob.diaries import (
    AnchorNotFoundError,
    chain_stages,
    AttributeBag,
    ChainStage,
    DiaryPattern,
    default_min_support,
    diary_json,
    enrich,
    export_diary_json,
    load_attributes,
    mine_diary,
)
from hexmob.homework import HomeWorkMatrix, HomeWorkPair, build_homework_matrix, detect_home_work
from hexmob.ingest import FootfallStore, IngestError, ODStore, WeekdayFlows, load_footfall, load_od
from hexmob.mining import FrequentItemset
from hexmob.model import FOOTFALL_USER_TYPES, REGIME_INTERVALS, FootfallRecord
from hexmob.synth import SynthConfig, generate

from conftest import (
    H1, H2, H3, H4, H5, as_tuples, day, random_records, store_of, write_ff_csv,
)
from oracles import reference_diary, transaction_regime_patterns

TUESDAYS = (3, 10, 17, 24)  # June 2025
THURSDAYS = (5, 12, 19, 26)
MONDAYS = (2, 9, 16, 23, 30)


def matrix(rows, pairs=((H1, H2),)):
    store = store_of(rows)
    hw = tuple(
        HomeWorkPair(home=h, work=w, qualifying_days=(day(3),)) for h, w in pairs
    )
    return HomeWorkMatrix(pairs=hw, flows=store)


def commuter_day(dom, shop=True):
    rows = [(H1, H2, dom, 1), (H2, H2, dom, 2), (H2, H2, dom, 3),
            (H2, H2, dom, 4), (H2, H2, dom, 5)]
    if shop:
        rows += [(H2, H3, dom, 6), (H3, H1, dom, 7)]
    else:
        rows += [(H2, H1, dom, 6), (H1, H1, dom, 7)]
    rows.append((H1, H1, dom, 8))
    return rows


class TestChainStages:
    def test_single_record(self):
        M = matrix([(H1, H2, 3, 1)])
        stages = chain_stages(M, H1, 2)
        assert len(stages) == 8
        assert stages[0].flows == ((H1, H2, 1, 30),)
        assert all(s.flows == () for s in stages[1:])

    def test_planted_chain_reproduced(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        assert stages[0].flows == ((H1, H2, 1, 120),)
        assert stages[3].flows == ((H2, H2, 4, 120),)
        assert stages[5].flows == ((H2, H3, 6, 120),)
        assert stages[6].flows == ((H3, H1, 7, 120),)
        assert stages[7].flows == ((H1, H1, 8, 120),)

    def test_counts_sum_over_weekday_days_only(self):
        rows = [(H1, H2, dom, 1, "worker", 10) for dom in TUESDAYS]
        rows += [(H1, H2, dom, 1, "worker", 99) for dom in THURSDAYS]
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        assert stages[0].flows == ((H1, H2, 1, 40),)

    def test_soundness_invariant(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom, shop=(dom > 10))
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        for i in range(1, 8):
            prev_dests = stages[i - 1].destinations()
            for o, _d, _iv, _c in stages[i].flows:
                assert o in prev_dests

    def test_stage1_intervals_restricted(self):
        rows = [(H1, H2, 3, 1), (H1, H3, 3, 2), (H1, H4, 3, 5)]
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        assert {f[2] for f in stages[0].flows} == {1, 2}
        assert all(f[0] != H1 or f[2] != 5 for f in stages[0].flows)

    def test_full_day_rows_never_chained(self):
        rows = [(H1, H2, 3, 1), (H2, H3, 3, 9)]
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        assert all(f[2] != 9 for s in stages for f in s.flows)

    def test_anchor_not_found(self):
        M = matrix([(H1, H2, 3, 1)])
        with pytest.raises(AnchorNotFoundError):
            chain_stages(M, H5, 2)

    def test_bad_weekday(self):
        M = matrix([(H1, H2, 3, 1)])
        with pytest.raises(ValueError):
            chain_stages(M, H1, 0)

    def test_counts_sum_past_int64(self):
        rows = [(H1, H2, dom, 1, "worker", 2**62) for dom in TUESDAYS]
        stages = chain_stages(matrix(rows), H1, 2)
        assert stages[0].flows == ((H1, H2, 1, 2**64),)

    def test_chain_dies_without_dwell(self):
        # no records at intervals 2..5: once a stage is empty every later
        # stage is empty too, even though evening flows exist in the store
        rows = [(H1, H2, dom, 1) for dom in TUESDAYS]
        rows += [(H2, H1, dom, 6) for dom in TUESDAYS]
        M = matrix(rows)
        stages = chain_stages(M, H1, 2)
        assert stages[0].flows == ((H1, H2, 1, 120),)
        assert all(s.flows == () for s in stages[1:])


class TestMineDiary:
    def _planted(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        return matrix(rows)

    def test_planted_regime_itemsets(self):
        pat = mine_diary(self._planted(), H1, 2, min_support=4)
        by_regime = {name: {fs.items: fs.support for fs in sets}
                     for name, sets in pat.regime_patterns.items()}
        # the commute leg and the 08:00-09:59 work dwell both live in morning peak
        assert by_regime["morning_peak"] == {
            ((H1, H2, 1),): 4,
            ((H2, H2, 2),): 4,
            ((H1, H2, 1), (H2, H2, 2)): 4,
        }
        assert by_regime["midday"][((H2, H2, 3), (H2, H2, 4), (H2, H2, 5))] == 4
        assert by_regime["evening_peak"][((H2, H3, 6), (H3, H1, 7))] == 4
        assert by_regime["night"] == {((H1, H1, 8),): 4}

    def test_regime_consistency_invariant(self):
        pat = mine_diary(self._planted(), H1, 2, min_support=2)
        for name, sets in pat.regime_patterns.items():
            intervals = set(REGIME_INTERVALS[name])
            for fs in sets:
                assert {item[2] for item in fs.items} <= intervals

    def test_support_bound(self):
        pat = mine_diary(self._planted(), H1, 2, min_support=1)
        for sets in pat.regime_patterns.values():
            for fs in sets:
                assert fs.support <= len(TUESDAYS)

    def test_mining_uses_presence_not_counts(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        # huge-count flow on only two Tuesdays stays below min_support 3
        rows += [(H2, H4, dom, 6, "worker", 5000) for dom in TUESDAYS[:2]]
        pat = mine_diary(matrix(rows), H1, 2, min_support=3)
        evening = {fs.items for fs in pat.regime_patterns["evening_peak"]}
        assert all((H2, H4, 6) not in items for items in evening)
        pat2 = mine_diary(matrix(rows), H1, 2, min_support=2)
        evening2 = {fs.items for fs in pat2.regime_patterns["evening_peak"]}
        assert ((H2, H4, 6),) in evening2

    def test_thursday_particular_flow(self):
        rows = []
        for dom in THURSDAYS + MONDAYS:
            rows += commuter_day(dom, shop=False)
        rows += [(H2, H4, dom, 6, "worker", 40) for dom in THURSDAYS]
        rows += [(H2, H4, 2, 6, "worker", 40)]  # one Monday only
        M = matrix(rows)
        thu = mine_diary(M, H1, 4, min_support=2)
        mon = mine_diary(M, H1, 1, min_support=2)
        thu_items = {fs.items: fs.support for fs in thu.regime_patterns["evening_peak"]}
        mon_items = {it for fs in mon.regime_patterns["evening_peak"] for it in fs.items}
        assert thu_items[((H2, H4, 6),)] == 4
        assert (H2, H4, 6) not in mon_items

    def test_zero_data_weekday(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        pat = mine_diary(matrix(rows), H1, 7, min_support=2)  # Sundays: no data
        assert all(sets == () for sets in pat.regime_patterns.values())
        assert all(v == 0 for v in pat.intraflow_series.values())
        assert all(v == 0 for v in pat.inflow_series.values())

    def test_series(self):
        pat = mine_diary(self._planted(), H1, 2, min_support=2)
        assert pat.intraflow_series == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 120}
        assert pat.inflow_series == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 120, 8: 0}

    def test_default_min_support_formula(self):
        assert default_min_support(4) == 2
        assert default_min_support(5) == 3
        assert default_min_support(22) == 11
        assert default_min_support(0) == 2
        assert default_min_support(1) == 2

    def test_default_applied(self):
        pat = mine_diary(self._planted(), H1, 2)
        assert pat.min_support == 2  # four Tuesdays -> ceil(2) but floor of 2

    def test_enrichment_bags_initialized_empty(self):
        pat = mine_diary(self._planted(), H1, 2, min_support=2)
        assert set(pat.enrichment) == pat.mentioned_hexes()
        assert all(bag.footfall_mean == {} and bag.extra == {} for bag in pat.enrichment.values())


class TestEnrich:
    def _pattern(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        return mine_diary(matrix(rows), H1, 2, min_support=2)

    def test_footfall_mean_per_type(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [
            (H2, "2025-06-03", 1, "worker", 10),
            (H2, "2025-06-10", 1, "worker", 20),
            (H2, "2025-06-17", 1, "worker", 30),
            (H2, "2025-06-03", 1, "all", 7),
        ])
        ff = load_footfall(tmp_path / "ff.csv")
        pat = enrich(self._pattern(), ff=ff)
        assert pat.enrichment[H2].footfall_mean == {"worker": 20.0, "all": 7.0}

    def test_absent_hex_empty_bag(self, tmp_path):
        write_ff_csv(tmp_path / "ff.csv", [(H5, "2025-06-03", 1, "worker", 10)])
        ff = load_footfall(tmp_path / "ff.csv")
        pat = enrich(self._pattern(), ff=ff)
        assert pat.enrichment[H1].footfall_mean == {}

    def test_attrs_pass_through(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f"{H3},poi,department store\n{H3},tag,retail\n{H5},poi,park\n")
        attrs = load_attributes(attrs_file)
        pat = enrich(self._pattern(), attrs=attrs)
        assert pat.enrichment[H3].extra == {"poi": "department store", "tag": "retail"}
        assert H5 not in pat.enrichment  # only mentioned hexes get bags

    def test_attrs_header_row_allowed(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f"hex,key,value\n{H3},poi,cafe\n")
        assert load_attributes(attrs_file) == {H3: {"poi": "cafe"}}

    def test_malformed_attrs_names_row(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f"{H3},poi,cafe\nnot-a-hex,poi,cafe\n")
        with pytest.raises(IngestError, match="line 2.*malformed hex id"):
            load_attributes(attrs_file)

    def test_repeated_attribute_names_both_lines(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f"hex,key,value\n{H3},poi,cafe\n{H3},tag,x\n{H5},poi,y\n{H3},poi,bank\n")
        with pytest.raises(IngestError, match=f"^line 5: attribute 'poi' of {H3} repeated, first set at line 2$"):
            load_attributes(attrs_file)

    def test_wrong_field_count(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f"{H3},poi\n")
        with pytest.raises(IngestError, match="line 1.*expected 3 fields"):
            load_attributes(attrs_file)

    def test_lines_counted_past_a_multi_line_value(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_text(f'hex,key,value\n{H3},note,"two\nlines"\nzzz,poi,cafe\n')
        with pytest.raises(IngestError, match="^line 4: malformed hex id: 'zzz'$"):
            load_attributes(attrs_file)
        attrs_file.write_text(f'{H3},note,"a\r\nb\r\nc"\r\n\r\n{H5},poi,x\r\n{H3},note,y\r\n')
        with pytest.raises(IngestError, match=f"^line 6: attribute 'note' of {H3} repeated, first set at line 1$"):
            load_attributes(attrs_file)

    def test_non_utf8_byte_names_line(self, tmp_path):
        attrs_file = tmp_path / "attrs.csv"
        attrs_file.write_bytes(f"{H3},poi,cafe\r{H5},poi,".encode() + b"caf\xe9\r")
        with pytest.raises(IngestError, match=r"^line 2: not UTF-8: byte 0xe9"):
            load_attributes(attrs_file)


class TestExport:
    def _pattern(self):
        rows = []
        for dom in TUESDAYS:
            rows += commuter_day(dom)
        return mine_diary(matrix(rows), H1, 2, min_support=2)

    def test_schema_keys(self):
        doc = json.loads(diary_json(self._pattern()))
        assert set(doc) == {"anchor", "weekday", "days", "min_support", "stages",
                            "regimes", "intraflow", "inflow", "enrichment"}
        assert doc["anchor"] == H1
        assert doc["days"] == ["2025-06-03", "2025-06-10", "2025-06-17", "2025-06-24"]
        assert len(doc["stages"]) == 8
        assert doc["stages"][0]["flows"][0] == {
            "origin": H1, "destination": H2, "interval": 1, "count": 120,
        }
        assert set(doc["regimes"]) == {"morning_peak", "midday", "evening_peak", "night"}

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_diary_json(self._pattern(), a)
        export_diary_json(self._pattern(), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == diary_json(self._pattern()) + "\n"


def _round_trip(pattern: DiaryPattern) -> dict:
    """The diary's document; its text must be exactly what the stdlib lays
    out for that document with sorted keys and a 2-space indent."""
    text = diary_json(pattern)
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) == text
    return doc


class TestDiaryJson:
    """The diary writer against the stdlib encoder on hand-built patterns."""

    ODD = "q\"b\\n\x00 caf\u00e9 \u2028 \U0001F600"

    def _pattern(self, **fields) -> DiaryPattern:
        base = dict(
            anchor=H1, weekday=2, days=(day(3), day(10)), min_support=2,
            stages=tuple(ChainStage(i, ()) for i in range(1, 9)),
            regime_patterns={name: () for name in REGIME_INTERVALS},
            intraflow_series={iv: 0 for iv in range(1, 9)},
            inflow_series={iv: 0 for iv in range(1, 9)},
            enrichment={},
        )
        return DiaryPattern(**{**base, **fields})

    def test_empty_store(self):
        M = HomeWorkMatrix(
            pairs=(HomeWorkPair(home=H1, work=H2, qualifying_days=(day(3),)),),
            flows=ODStore.from_records([]),
        )
        pattern = mine_diary(M, H1, 2)
        assert pattern.days == ()
        doc = _round_trip(pattern)
        assert doc["days"] == [] and doc["enrichment"] == {}
        assert all(st["flows"] == [] for st in doc["stages"])
        assert all(sets == [] for sets in doc["regimes"].values())

    def test_all_empty_stages_and_regimes(self):
        doc = _round_trip(self._pattern())
        assert [st["stage"] for st in doc["stages"]] == list(range(1, 9))
        assert set(doc["regimes"]) == set(REGIME_INTERVALS)

    def test_counts_past_int64(self):
        big = [2**63 - 1, 2**63, 2**64 + 7, 10**30]
        flows = tuple((H1, H2, 1, c) for c in big)
        items = tuple((H1, H2, iv) for iv in (1, 2))
        doc = _round_trip(self._pattern(
            min_support=2**63,
            stages=(ChainStage(1, flows),) + tuple(ChainStage(i, ()) for i in range(2, 9)),
            regime_patterns={"morning_peak": (FrequentItemset(items, 2**64), FrequentItemset((), 2**63)),
                             "night": ()},
            intraflow_series={iv: 2**63 + iv for iv in range(1, 9)},
            inflow_series={iv: 10**20 for iv in range(1, 9)},
        ))
        assert [f["count"] for f in doc["stages"][0]["flows"]] == big
        assert doc["regimes"]["morning_peak"][0] == {"items": [list(i) for i in items], "support": 2**64}

    def test_float_means(self):
        means = {"all": 0.1, "resident": 1e16, "transient": 5e-324, "worker": 2.0 / 3}
        doc = _round_trip(self._pattern(enrichment={
            H1: AttributeBag(footfall_mean=means, extra={}),
            H2: AttributeBag(footfall_mean={"worker": 1e-7}, extra={}),
        }))
        assert doc["enrichment"][H1]["footfall_mean"] == means

    def test_strings_escaped(self):
        extra = {self.ODD: self.ODD, "poi": "caf\u00e9", "": "", "z": ["x", {"y": 1.5}, []]}
        flows = ((self.ODD, H2, 1, 3), (H2, self.ODD, 2, 4))
        doc = _round_trip(self._pattern(
            anchor=self.ODD,
            stages=(ChainStage(1, flows),) + tuple(ChainStage(i, ()) for i in range(2, 9)),
            regime_patterns={"morning_peak": (FrequentItemset(tuple(f[:3] for f in flows), 2),)},
            enrichment={self.ODD: AttributeBag(footfall_mean={}, extra=extra), H2: AttributeBag.empty()},
        ))
        assert doc["anchor"] == self.ODD
        assert doc["stages"][0]["flows"][1]["destination"] == self.ODD
        assert doc["enrichment"][self.ODD]["extra"] == extra
        assert diary_json(self._pattern(anchor=self.ODD)).isascii()


def _footfall_rows(rng, hexes):
    """Random duplicate-free footfall rows: some days carry a full-day row,
    some only sub-day rows, some both; counts include zeros."""
    rows = []
    for h in hexes:
        for ut in rng.sample(FOOTFALL_USER_TYPES, rng.randint(0, 4)):
            for dom in rng.sample(range(1, 31), rng.randint(1, 8)):
                ivs = rng.sample(range(1, 10), rng.randint(1, 4))
                rows += [(h, day(dom), iv, ut, rng.randint(0, 50)) for iv in ivs]
    return rows


def _rows(records):
    return [(r.origin, r.destination, r.day.day, r.interval, r.user_type, r.count) for r in records]


def _check_against_reference(M, ff_rows):
    ff = FootfallStore.from_records(FootfallRecord(*r) for r in ff_rows)
    records = as_tuples(M.flows.iter_records())
    checked = 0
    for anchor in sorted(M.pair_hexes):
        for wd in range(1, 8):
            got = _round_trip(enrich(mine_diary(M, anchor, wd), ff))
            want = reference_diary(records, 2025, 6, anchor, wd, footfall=ff_rows)
            assert got == want, (anchor, wd)
            checked += 1
    return checked


class TestAgainstReferenceEngine:
    """The indexed engine against per-day flow sets, every anchor x weekday."""

    def test_random_stores_both_user_types(self):
        for seed in range(6):
            rng = random.Random(seed)
            records = random_records(rng, n_hexes=5, flows_per_day=40)
            records += [replace(r, user_type="all", count=r.count + 1)
                        for r in rng.sample(records, len(records) // 2)]
            hexes = sorted({r.origin for r in records} | {r.destination for r in records})
            pairs = [(hexes[i], hexes[i - 1]) for i in range(len(hexes))]
            M = matrix(_rows(records), pairs)
            assert _check_against_reference(M, _footfall_rows(rng, hexes[:-1])) == 35

    def test_world_with_full_day_rows(self, tmp_path):
        world = generate(SynthConfig(
            seed=77, n_hexes=12, n_agents=120, month=(2025, 6), suppression_threshold=1,
        ))
        paths = world.write(tmp_path)
        store = load_od(paths["od"], "worker")
        assert (store.interval == 9).any()
        M = build_homework_matrix(store, detect_home_work(store))
        ff_rows = [astuple(r) for r in load_footfall(paths["footfall"]).iter_records()]
        assert any(r[2] == 9 for r in ff_rows)
        assert _check_against_reference(M, ff_rows) == 7 * len(M.pair_hexes)

    def test_chain_dies_out(self):
        rng = random.Random(5)
        records = [r for r in random_records(rng, n_hexes=4, flows_per_day=30)
                   if r.interval not in (3, 4, 5)]
        hexes = sorted({r.origin for r in records})
        M = matrix(_rows(records), [(hexes[0], hexes[1]), (hexes[2], hexes[3])])
        for wd in range(1, 8):
            stages = chain_stages(M, hexes[0], wd)
            assert stages[1].flows and all(s.flows == () for s in stages[2:])
        _check_against_reference(M, _footfall_rows(rng, hexes))


class TestMaskMining:
    """mine_diary mines each regime on its items' day masks; on every diary of
    a synth world its regimes equal frozenset Transactions mined by eclat."""

    def test_every_diary_of_a_thinned_synth_world(self, tmp_path):
        world = generate(SynthConfig(
            seed=31, n_hexes=40, n_agents=500, month=(2025, 6), suppression_threshold=1,
        ))
        store = load_od(world.write(tmp_path)["od"], "worker")
        full = build_homework_matrix(store, detect_home_work(store))
        # no Wednesday rows at all, and 30% of the others dropped so that the
        # synthetic commuters' flows miss days and the day masks differ
        rng = random.Random(0)
        keep = [k for k, dom in enumerate(full.flows.day.tolist())
                if day(dom).isoweekday() != 3 and rng.random() >= 0.3]
        M = HomeWorkMatrix(pairs=full.pairs, flows=full.flows.subset(keep))
        records = as_tuples(M.flows.iter_records())
        partial = 0
        for anchor in sorted(M.pair_hexes):
            for wd in range(1, 8):
                for min_support in (None, 1, 2, 6):
                    pat = mine_diary(M, anchor, wd, min_support)
                    want = transaction_regime_patterns(records, 2025, 6, wd, pat.stages, pat.min_support)
                    assert pat.regime_patterns == want, (anchor, wd, min_support)
                    assert list(pat.enrichment) == sorted(pat.mentioned_hexes())
                    itemsets = [fs for sets in pat.regime_patterns.values() for fs in sets]
                    if wd == 3 or min_support == 6:  # no data; support above every day count
                        assert itemsets == [] and pat.enrichment == {}
                    partial += sum(fs.support < len(pat.days) for fs in itemsets)
                assert len(pat.days) in (4, 5)
        assert len(M.pair_hexes) == 23 and partial > 1000


class TestStoreTables:
    def test_weekday_index_built_once(self):
        M = matrix(commuter_day(3))
        assert M.flows.weekday_flows(2) is M.flows.weekday_flows(2)
        with pytest.raises(ValueError):
            M.flows.weekday_flows(8)

    def test_adjacency_and_dates_built_once_per_weekday_and_store(self, monkeypatch):
        built = []
        init = WeekdayFlows.__init__

        def counted(self, store, weekday):
            built.append((id(store), weekday))
            init(self, store, weekday)

        monkeypatch.setattr(WeekdayFlows, "__init__", counted)
        M = matrix(commuter_day(3) + commuter_day(10, shop=False))
        other = matrix(commuter_day(3))
        for _ in range(2):
            for wd in range(1, 8):
                enrich(mine_diary(M, H1, wd))
                chain_stages(M, H2, wd)
                mine_diary(other, H1, wd)
        assert sorted(built) == sorted((id(s), wd) for s in (M.flows, other.flows) for wd in range(1, 8))
        index = M.flows.weekday_flows(2)
        assert index.adjacency is M.flows.weekday_flows(2).adjacency
        assert index.dates is M.flows.weekday_flows(2).dates
        assert index.dates == tuple(day(d) for d in TUESDAYS)
        assert other.flows.weekday_flows(2) is not index

    def test_tables_hold_the_weekday_entries(self):
        rows = commuter_day(3) + commuter_day(10, shop=False) + [(H1, H2, 4, 1), (H3, H2, 10, 9)]
        M = matrix(rows)
        want = {}  # Tuesday sub-day (origin, destination, interval) -> (count, day mask)
        for o, d, dom, iv in rows:
            if dom in TUESDAYS and iv != 9:
                c, m = want.get((o, d, iv), (0, 0))
                want[(o, d, iv)] = (c + 30, m | 1 << TUESDAYS.index(dom))
        code = M.flows.hex_code
        adjacency, into = {}, {}
        for o, d, iv in sorted(want, key=lambda k: (k[2], code(k[0]), code(k[1]))):
            c = want[(o, d, iv)][0]
            adjacency.setdefault((iv, code(o)), []).append((o, d, iv, c, code(d)))
            into.setdefault(code(d), []).append((code(o), iv, c))
        index = M.flows.weekday_flows(2)
        assert index.adjacency == adjacency
        assert index.into == into
        assert index.day_mask == {k: m for k, (_, m) in want.items()}
        assert index.day_mask[(H2, H3, 6)] == 0b01 and index.day_mask[(H2, H1, 6)] == 0b10
        empty = M.flows.weekday_flows(7)  # Sundays: no rows
        assert (empty.adjacency, empty.into, empty.day_mask) == ({}, {}, {})
        assert empty.dates == tuple(day(d) for d in (1, 8, 15, 22, 29))
        assert ODStore.from_records([]).weekday_flows(2).dates == ()

    def test_pair_hexes_cached(self):
        M = matrix([(H1, H2, 3, 1)], pairs=((H1, H2), (H3, H2)))
        assert M.pair_hexes == frozenset({H1, H2, H3})
        assert M.pair_hexes is M.pair_hexes
