import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmob.mining import (
    FrequentItemset,
    Transaction,
    eclat,
    read_transactions,
    support_of,
    write_itemsets,
)

from oracles import brute_force_itemsets


def txns(*item_lists):
    return [Transaction.of(i, items) for i, items in enumerate(item_lists)]


class TestEclat:
    def test_spec_example(self):
        result = eclat(txns({"A", "B"}, {"A", "B"}, {"A"}), min_support=2)
        assert [(fs.items, fs.support) for fs in result] == [
            (("A",), 3),
            (("B",), 2),
            (("A", "B"), 2),
        ]

    def test_empty_transactions(self):
        assert eclat([], min_support=1) == []

    def test_single_item(self):
        assert eclat(txns({"X"}), min_support=1) == [FrequentItemset(("X",), 1)]

    def test_min_support_filters(self):
        result = eclat(txns({"A"}, {"B"}), min_support=2)
        assert result == []

    def test_min_support_domain_error(self):
        with pytest.raises(ValueError):
            eclat([], min_support=0)

    def test_duplicate_transaction_ids(self):
        bad = [Transaction.of(1, {"A"}), Transaction.of(1, {"B"})]
        with pytest.raises(ValueError, match="duplicate transaction id"):
            eclat(bad, min_support=1)

    def test_order_sorted_by_size_then_items(self):
        result = eclat(txns({"C", "A", "B"}, {"C", "A", "B"}), min_support=1)
        sizes = [len(fs.items) for fs in result]
        assert sizes == sorted(sizes)
        for fs in result:
            assert tuple(sorted(fs.items)) == fs.items
        assert result[0].items == ("A",)
        assert result[-1].items == ("A", "B", "C")

    def test_determinism_under_transaction_order(self):
        rng = random.Random(4)
        base = [Transaction.of(i, {rng.randint(0, 8) for _ in range(rng.randint(1, 6))})
                for i in range(12)]
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert eclat(base, 3) == eclat(shuffled, 3)

    def test_tuple_items(self):
        t = txns({("a", "b", 1), ("b", "b", 2)}, {("a", "b", 1)})
        result = eclat(t, min_support=2)
        assert result == [FrequentItemset((("a", "b", 1),), 2)]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=8),
            min_size=0,
            max_size=14,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_brute_force(self, item_sets, min_support):
        transactions = [Transaction.of(i, s) for i, s in enumerate(item_sets)]
        got = [(fs.items, fs.support) for fs in eclat(transactions, min_support)]
        want = brute_force_itemsets(list(enumerate(item_sets)), min_support)
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    def test_downward_closure_and_support_correctness(self, item_sets):
        transactions = [Transaction.of(i, s) for i, s in enumerate(item_sets)]
        result = eclat(transactions, min_support=2)
        by_items = {fs.items: fs.support for fs in result}
        for fs in result:
            assert fs.support == support_of(transactions, fs.items)
            for drop in range(len(fs.items)):
                sub = fs.items[:drop] + fs.items[drop + 1:]
                if sub:
                    assert sub in by_items
                    assert by_items[sub] >= fs.support


class TestSupportOf:
    def test_empty_itemset_everywhere(self):
        t = txns({"A"}, {"B"})
        assert support_of(t, ()) == 2

    def test_partial(self):
        t = txns({"A", "B"}, {"A"})
        assert support_of(t, {"A", "B"}) == 1

    def test_absent(self):
        t = txns({"A"}, {"B"})
        assert support_of(t, {"Z"}) == 0


class TestIO:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "txns.txt"
        src.write_text("a b c\nb c\n\nc\n")
        transactions = read_transactions(src)
        assert [sorted(t.items) for t in transactions] == [["a", "b", "c"], ["b", "c"], ["c"]]
        out = io.StringIO()
        write_itemsets(eclat(transactions, 2), out)
        lines = out.getvalue().splitlines()
        assert "c\t3" in lines
        assert "b c\t2" in lines
        assert all("\t" in line for line in lines)
