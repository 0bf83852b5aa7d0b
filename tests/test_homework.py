import io
import random

import pytest

from hexmob.homework import (
    HomeWorkPair,
    build_homework_matrix,
    day_qualifies,
    detect_home_work,
    export_pairs_csv,
)
from hexmob.ingest import ODStore

from conftest import H1, H2, H3, H4, H5, day, random_records, rec, store_of
from oracles import brute_force_homework


class TestDayQualifies:
    def test_clean_commute(self):
        store = store_of([(H1, H2, 3, 1), (H2, H1, 3, 6)])
        assert day_qualifies(store, H1, H2, day(3))

    def test_midday_return_disqualifies(self):
        store = store_of([(H1, H3, 3, 1), (H3, H1, 3, 3), (H3, H1, 3, 6)])
        assert not day_qualifies(store, H1, H3, day(3))

    def test_forward_retrip_does_not_disqualify(self):
        store = store_of([(H1, H2, 3, 1), (H1, H2, 3, 4), (H2, H1, 3, 6)])
        assert day_qualifies(store, H1, H2, day(3))

    def test_requires_both_legs(self):
        store = store_of([(H1, H2, 3, 1)])
        assert not day_qualifies(store, H1, H2, day(3))
        store = store_of([(H2, H1, 3, 6)])
        assert not day_qualifies(store, H1, H2, day(3))

    def test_either_morning_and_either_evening_interval(self):
        for miv in (1, 2):
            for eiv in (6, 7):
                store = store_of([(H1, H2, 3, miv), (H2, H1, 3, eiv)])
                assert day_qualifies(store, H1, H2, day(3))

    def test_empty_store_false(self):
        store = store_of([(H1, H2, 3, 1)])
        assert not day_qualifies(store, H2, H3, day(3))

    def test_self_pair_false(self):
        store = store_of([(H1, H1, 3, 1), (H1, H1, 3, 6)])
        assert not day_qualifies(store, H1, H1, day(3))

    def test_custom_disqualifier_intervals(self):
        store = store_of([(H1, H2, 3, 1), (H2, H1, 3, 6), (H2, H1, 3, 8)])
        assert day_qualifies(store, H1, H2, day(3))
        assert not day_qualifies(store, H1, H2, day(3), disqualifier_intervals=(3, 4, 5, 8))

    def test_type_blind(self):
        store = store_of([(H1, H2, 3, 1, "all"), (H2, H1, 3, 6, "worker")])
        assert day_qualifies(store, H1, H2, day(3))
        assert not day_qualifies(store, H2, H1, day(3))
        assert not day_qualifies(store, H1, H2, day(4))
        assert not day_qualifies(store, H1, H3, day(3))
        midday = store_of([(H1, H2, 3, 1, "worker"), (H2, H1, 3, 6, "worker"), (H2, H1, 3, 4, "all")])
        assert not day_qualifies(midday, H1, H2, day(3))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_random_stores(self, seed):
        rng = random.Random(2000 + seed)
        records = [
            rec(r.origin, r.destination, r.day.day, r.interval, rng.choice(["all", "worker"]), r.count)
            for r in random_records(rng, n_hexes=rng.randint(3, 6), flows_per_day=rng.randint(10, 30))
        ]
        store = ODStore.from_records(records)
        want = brute_force_homework(
            [(r.origin, r.destination, r.day, r.interval, r.user_type, r.count) for r in records], min_days=1
        )
        for home in store.hex_ids:
            for work in store.hex_ids:
                for dom in range(1, 31):
                    expect = day(dom) in want.get((home, work), [])
                    assert day_qualifies(store, home, work, day(dom)) == expect, (home, work, dom)


class TestDetect:
    def test_commute_showcase(self, commute_showcase_records):
        store = ODStore.from_records(commute_showcase_records)
        pairs = detect_home_work(store, min_days=10)
        assert [(p.home, p.work) for p in pairs] == [(H1, H2), (H1, H4), (H1, H5)]
        assert all(len(p.qualifying_days) == 12 for p in pairs)

    def test_min_days_boundary(self):
        rows = []
        for dom in range(2, 11):  # 9 days
            rows += [(H1, H2, dom, 1), (H2, H1, dom, 6)]
        store = store_of(rows)
        assert detect_home_work(store, min_days=10) == []
        pairs = detect_home_work(store, min_days=9)
        assert [(p.home, p.work) for p in pairs] == [(H1, H2)]
        assert len(pairs[0].qualifying_days) == 9

    def test_monotonic_in_min_days(self):
        records = random_records(random.Random(2), n_hexes=8, flows_per_day=30)
        store = ODStore.from_records(records)
        for k in range(1, 8):
            bigger = {(p.home, p.work) for p in detect_home_work(store, min_days=k + 1)}
            smaller = {(p.home, p.work) for p in detect_home_work(store, min_days=k)}
            assert bigger <= smaller

    def test_no_self_pairs_even_with_self_loops(self):
        rows = [(H1, H1, dom, iv) for dom in range(1, 30) for iv in (1, 6)]
        store = store_of(rows)
        assert detect_home_work(store, min_days=1) == []

    def test_permutation_invariance(self):
        records = random_records(random.Random(7), n_hexes=6, flows_per_day=25)
        shuffled = records[:]
        random.Random(8).shuffle(shuffled)
        a = detect_home_work(ODStore.from_records(records), min_days=2)
        b = detect_home_work(ODStore.from_records(shuffled), min_days=2)
        assert a == b

    def test_min_days_domain_error(self):
        store = store_of([(H1, H2, 1, 1)])
        with pytest.raises(ValueError):
            detect_home_work(store, min_days=0)

    def test_empty_store(self):
        store = store_of([(H1, H2, 1, 1)])
        import numpy as np

        assert detect_home_work(store.subset(np.empty(0, dtype=np.intp)), min_days=1) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_random_stores(self, seed):
        rng = random.Random(1000 + seed)
        records = random_records(rng, n_hexes=rng.randint(4, 10), flows_per_day=rng.randint(15, 40))
        store = ODStore.from_records(records)
        for min_days in (1, 3, 10):
            got = {(p.home, p.work): list(p.qualifying_days)
                   for p in detect_home_work(store, min_days=min_days)}
            want = brute_force_homework(
                [(r.origin, r.destination, r.day, r.interval, r.user_type, r.count)
                 for r in records],
                min_days=min_days,
            )
            assert got == want


class TestMatrix:
    def _pairs_store(self):
        rows = []
        for dom in range(2, 14):
            rows += [(H1, H2, dom, 1), (H2, H1, dom, 6),
                     (H1, H1, dom, 1), (H2, H2, dom, 3),  # dwells
                     (H2, H3, dom, 6), (H3, H1, dom, 7),  # detour via H3
                     (H4, H5, dom, 2)]  # unrelated edge
        store = store_of(rows)
        pairs = detect_home_work(store, min_days=10)
        assert [(p.home, p.work) for p in pairs] == [(H1, H2)]
        return store, pairs

    def test_edges_scope_keeps_only_pair_edges(self):
        store, pairs = self._pairs_store()
        M = build_homework_matrix(store, pairs, scope="edges")
        for r in M.flows.iter_records():
            assert {r.origin, r.destination} == {H1, H2}
            assert r.origin != r.destination
        assert len(M.flows) == 24  # 12 days x (morning + evening legs)

    def test_hexes_scope_keeps_dwells_and_detours(self):
        store, pairs = self._pairs_store()
        M = build_homework_matrix(store, pairs)
        assert M.scope == "hexes"
        kept = {(r.origin, r.destination) for r in M.flows.iter_records()}
        assert (H1, H1) in kept and (H2, H2) in kept  # self-loops survive
        assert (H2, H3) in kept and (H3, H1) in kept  # detour touches pair hexes
        assert (H4, H5) not in kept

    def test_matrix_record_identity_when_all_on_edges(self):
        rows = []
        for dom in range(1, 11):
            rows += [(H1, H2, dom, 1), (H2, H1, dom, 6),
                     (H1, H2, dom, 2), (H2, H1, dom, 7)]
        store = store_of(rows)
        pairs = detect_home_work(store, min_days=10)
        M = build_homework_matrix(store, pairs, scope="edges")
        assert len(M.flows) == 40

    def test_zero_pairs_empty_matrix(self):
        store = store_of([(H1, H2, 1, 1)])
        M = build_homework_matrix(store, [])
        assert len(M.flows) == 0 and M.pairs == ()

    def test_pair_with_absent_hexes_kept(self):
        store = store_of([(H1, H2, 1, 1)])
        ghost = HomeWorkPair(home=H4, work=H5, qualifying_days=(day(1),))
        M = build_homework_matrix(store, [ghost])
        assert M.pairs == (ghost,)
        assert len(M.flows) == 0

    def test_bad_scope(self):
        store = store_of([(H1, H2, 1, 1)])
        with pytest.raises(ValueError):
            build_homework_matrix(store, [], scope="everything")


class TestExport:
    def test_csv_shape(self):
        pairs = [
            HomeWorkPair(home=H2, work=H3, qualifying_days=(day(2), day(3))),
            HomeWorkPair(home=H1, work=H2, qualifying_days=(day(5),)),
        ]
        out = io.StringIO()
        export_pairs_csv(pairs, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "home_hex,work_hex,qualifying_days"
        assert lines[1] == f"{H1},{H2},2025-06-05"
        assert lines[2] == f"{H2},{H3},2025-06-02;2025-06-03"

    def test_self_pair_rejected_at_construction(self):
        with pytest.raises(ValueError):
            HomeWorkPair(home=H1, work=H1, qualifying_days=())
