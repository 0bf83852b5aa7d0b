import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmob.ingest import IngestError
from hexmob.mining import (
    FrequentItemset,
    Transaction,
    TransactionFile,
    _eclat,
    eclat,
    read_transactions,
    support_of,
    write_itemsets,
)

from oracles import apriori_itemsets, brute_force_itemsets, reference_eclat, reference_read_transactions
from test_readers import READERS


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


def _pairs(itemsets):
    return [(fs.items, fs.support) for fs in itemsets]


def _check_against_oracles(transactions, min_support):
    """eclat equals the set-based reference and level-wise Apriori; returns its output."""
    got = _pairs(eclat(transactions, min_support))
    assert got == reference_eclat(transactions, min_support)
    assert got == apriori_itemsets([t.items for t in transactions], min_support)
    return got


def _zipf_lines(rng, n, n_items=200, draws=10):
    """Lines shaped like the `mine` benchmark's: `draws` draws with weights 1/rank."""
    items = [f"i{k:03d}" for k in range(n_items)]
    weights = [1 / (k + 1) for k in range(n_items)]
    return [set(rng.choices(items, weights, k=draws)) for _ in range(n)]


class TestDifferential:
    """Bitset tid-sets against the set-based reference and Apriori on
    databases the small random ones of the acceptance gate do not reach."""

    @pytest.mark.parametrize("n", [65, 128, 129, 1000, 3000])
    def test_masks_spanning_many_words(self, n):
        rng = random.Random(n)
        pool = [f"x{k}" for k in range(10)]
        transactions = [Transaction.of(k, rng.sample(pool, rng.randint(0, 6))) for k in range(n)]
        got = _check_against_oracles(transactions, max(1, n // 16))
        assert got and max(len(items) for items, _ in got) >= 2

    def test_string_and_tuple_ids_shuffled(self):
        rng = random.Random(12)
        item_sets = [rng.sample(range(9), rng.randint(1, 5)) for _ in range(150)]
        for make_id in (lambda k: f"t{k}", lambda k: ("2025-06-02", k)):
            transactions = [Transaction.of(make_id(k), s) for k, s in enumerate(item_sets)]
            want = _check_against_oracles(transactions, 20)
            for _ in range(3):
                rng.shuffle(transactions)
                assert _check_against_oracles(transactions, 20) == want

    def test_empty_transactions(self):
        assert eclat([Transaction.of(k, ()) for k in range(70)], 1) == []
        rng = random.Random(3)
        transactions = [Transaction.of(k, rng.sample("abcdef", rng.randint(0, 3))) for k in range(200)]
        assert any(not t.items for t in transactions)
        assert _check_against_oracles(transactions, 10)

    def test_min_support_above_every_count(self):
        transactions = [Transaction.of(k, {"a", "b", f"c{k % 3}"}) for k in range(90)]
        assert _check_against_oracles(transactions, 91) == []
        assert _pairs(eclat(transactions, 90)) == [(("a",), 90), (("b",), 90), (("a", "b"), 90)]

    def test_items_in_every_transaction(self):
        always = [f"a{k:02d}" for k in range(12)]
        transactions = [Transaction.of(k, always + [f"r{k}"]) for k in range(70)]
        got = _check_against_oracles(transactions, 2)
        assert len(got) == 4095
        assert all(support == 70 for _, support in got)

    @pytest.mark.parametrize("min_support, at_least, longest", [(5, 2000, 5), (12, 500, 4), (25, 150, 4)])
    def test_zipf_shape_of_the_mine_workload(self, min_support, at_least, longest):
        transactions = [Transaction.of(k + 1, s) for k, s in enumerate(_zipf_lines(random.Random(77), 600))]
        got = _check_against_oracles(transactions, min_support)
        assert len(got) > at_least and max(len(items) for items, _ in got) == longest

    def test_mine_workload_size(self):
        # the benchmark file's size and support, against the set-based reference only
        lines = _zipf_lines(random.Random(5), 5000)
        transactions = [Transaction.of(k + 1, s) for k, s in enumerate(lines)]
        got = _pairs(eclat(transactions, 25))
        assert got == reference_eclat(transactions, 25)
        assert len(got) > 3000
        # the search's work, counted rather than timed: without the pair
        # check it takes 126,286 intersections here
        ands = []

        class Tids(int):
            def __and__(self, other):
                ands.append(None)
                return Tids(int.__and__(self, other))

        counted = _eclat([(item, Tids(tids)) for item, tids in _tidsets(enumerate(lines), range(5000))], 25)
        assert _pairs(counted) == got
        assert len(ands) <= 40_000


class TestPairPruning:
    """Below the top level the search meets only pairs that are frequent,
    so these databases put the pair check where it decides, or where it
    has nothing to prune; the zipf databases of TestDifferential run at
    supports where it prunes much and little."""

    @pytest.mark.parametrize("shared", ["0", "c"], ids=["shared-first", "shared-last"])
    def test_infrequent_pair_between_frequent_pairs(self, shared):
        # {a, shared} and {b, shared} are frequent, {a, b} is not; with the
        # shared item first, a and b are siblings in its class
        item_sets = [{"a", shared}] * 3 + [{"b", shared}] * 3 + [{"a", "b", shared}]
        transactions = [Transaction.of(k, s) for k, s in enumerate(item_sets)]
        got = _check_against_oracles(transactions, 2)
        assert not [items for items, _ in got if {"a", "b"} <= set(items)]
        assert sorted(items for items, _ in got if len(items) == 2) == sorted(
            tuple(sorted(p)) for p in ({"a", shared}, {"b", shared}))

    def test_min_support_one(self):
        rng = random.Random(31)
        pool = [f"i{k}" for k in range(12)]
        transactions = [Transaction.of(k, rng.sample(pool, rng.randint(0, 5))) for k in range(40)]
        got = _check_against_oracles(transactions, 1)
        assert max(len(items) for items, _ in got) == 5

    def test_single_with_no_frequent_partner(self):
        # "m" is frequent on its own and sorts between items that pair up
        item_sets = [{"a", "b", "z"}] * 4 + [{"m"}] * 5 + [{"a", "m"}, {"m", "z"}]
        transactions = [Transaction.of(k, s) for k, s in enumerate(item_sets)]
        got = _check_against_oracles(transactions, 2)
        assert (("m",), 7) in got
        assert not [items for items, _ in got if "m" in items and len(items) > 1]
        assert (("a", "b", "z"), 4) in got

def _tidsets(txns, bits):
    """(item, tid-set) pairs, items ascending, transaction k on bit bits[k]."""
    tidsets = {}
    for bit, (_, items) in zip(bits, txns):
        for item in items:
            tidsets[item] = tidsets.get(item, 0) | 1 << bit
    return sorted(tidsets.items())


class TestMaskCore:
    """The search on (item, tid-set) pairs, as the diary engine calls it with
    day masks, against eclat and the brute-force oracle."""

    def test_criterion_1_databases(self):
        # criterion 1's seed and draws, so these are its 200 databases
        rng = random.Random(20250601)
        for case in range(200):
            n_items = rng.randint(1, 12)
            pool = [f"i{k}" for k in range(n_items)]
            txns = [(tid, rng.sample(pool, rng.randint(0, n_items)))
                    for tid in range(rng.randint(1, 16))]
            min_support = rng.randint(1, 5)
            want = eclat([Transaction.of(t, items) for t, items in txns], min_support)
            assert _pairs(want) == brute_force_itemsets(txns, min_support), case
            # transactions on spread-out bits, as day masks skip the other days
            bits = random.Random(case).sample(range(70), len(txns))
            for numbering in (range(len(txns)), bits):
                assert _eclat(_tidsets(txns, numbering), min_support) == want, case

    def test_no_items_or_none_frequent(self):
        assert _eclat([], 1) == []
        assert _eclat([("a", 0b101), ("b", 0b011)], 3) == []
        assert _eclat([("a", 0b101), ("b", 0b111)], 2) == [
            FrequentItemset(("a",), 2), FrequentItemset(("b",), 3), FrequentItemset(("a", "b"), 2),
        ]


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="^no such file: .*nope.txt$"):
            read_transactions(tmp_path / "nope.txt")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_names_line(self, tmp_path, newline):
        src = tmp_path / "txns.txt"
        src.write_bytes(newline.join([b"a b", b"", "caf\u00e9".encode(), b"b \xff", b"c"]))
        with pytest.raises(IngestError, match=r"^line 4: not UTF-8: byte 0xff \(invalid start byte\)$"):
            read_transactions(src)

    @pytest.mark.parametrize("other", ["\u00a0", "\x1c"], ids=["NBSP", "x1c"])
    def test_items_split_at_ascii_whitespace_only(self, tmp_path, other):
        src = tmp_path / "txns.txt"
        src.write_text(f"a{other}b c\nb{other}c a\n \ta\x0bb\x0c c \n", encoding="utf-8")
        transactions = read_transactions(src)
        assert [sorted(t.items) for t in transactions] == [
            [f"a{other}b", "c"], ["a", f"b{other}c"], ["a", "b", "c"],
        ]
        assert [(fs.items, fs.support) for fs in eclat(transactions, 2)] == [(("a",), 2), (("c",), 2)]


# name -> the bytes of a transaction file, read as the former reader reads them
FILES = {
    "readers probe": READERS["transactions"][0](None).encode(),
    "blank lines": b"\n\na b\n\n \n\nc\n\n",
    "CR": b"a b\rb c\r\rc\r",
    "CRLF": b"a b\r\nb c\r\n\r\nc\r\n",
    "SPACE-padded": b" \ta  b\x0b\x0c \n\t\t\n  c \n",
    "NBSP": "a\u00a0b c\n\u00a0\na\u00a0b\n\u00a0 c\n".encode(),
    "repeated word": b"a a b a\nb b\nc c c\n",
    "empty file": b"",
    "no trailing newline": b"a b\nb c\nc",
}


class TestTransactionFile:
    """read_transactions' codes and tid-sets against the former reader's
    list of per-line frozensets, kept as an oracle."""

    @pytest.mark.parametrize("name", FILES)
    def test_reads_as_the_former_list(self, tmp_path, name):
        path = tmp_path / "txns.txt"
        path.write_bytes(FILES[name])
        view, want = read_transactions(path), reference_read_transactions(path)
        assert isinstance(view, TransactionFile)
        assert view == want and want == view
        assert list(view) == want and len(view) == len(want)
        assert [view[k] for k in range(-len(want), len(want))] == want + want
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                view[k]
        assert eclat(view, 1) == eclat(want, 1)

    def test_criterion_1_databases_as_files(self, tmp_path):
        # criterion 1's seed and draws, each database written one line a transaction
        rng = random.Random(20250601)
        path = tmp_path / "txns.txt"
        for case in range(200):
            n_items = rng.randint(1, 12)
            pool = [f"i{k}" for k in range(n_items)]
            txns = [(tid, rng.sample(pool, rng.randint(0, n_items)))
                    for tid in range(rng.randint(1, 16))]
            min_support = rng.randint(1, 5)
            path.write_text("".join(" ".join(items) + "\n" for _, items in txns))
            view = read_transactions(path)
            assert view == reference_read_transactions(path), case
            got = eclat(view, min_support)
            assert got == eclat(list(view), min_support), case
            assert _pairs(got) == brute_force_itemsets(txns, min_support), case
            assert _check_against_oracles(list(view), min_support) == _pairs(got), case

    def test_memory_of_mining_the_benchmark_shape(self, tmp_path):
        # the `mine` benchmark's shape: 5,000 lines of 10 Zipf draws from
        # 200 items. A list of Transactions, one frozenset a line, peaks at
        # 38.0x this file; item codes and tid-sets at 6.8x
        path = tmp_path / "zipf.txt"
        path.write_text("".join(" ".join(sorted(s)) + "\n" for s in _zipf_lines(random.Random(5), 5000)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            itemsets = eclat(read_transactions(path), 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(itemsets) > 3000
        assert peak < 12 * size, f"tracemalloc peak {peak / size:.1f}x the file's {size} bytes"
