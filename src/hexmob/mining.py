"""Eclat frequent-itemset mining over small transaction databases.

Vertical layout on bitset tid-sets: each item maps to a Python int whose bit
k is set when the k-th transaction holds the item, so an intersection is one
`&` and a support is one `int.bit_count()`. The search is depth-first over
equivalence classes (Zaki, IEEE TKDE 2000): a node's children are only its
later siblings whose intersection with it is frequent, each carrying its
intersected tid-set, so an item infrequent under a prefix is never tried
again below it. The top level also keeps, for each frequent single, the set
of later singles it forms a frequent pair with (a bitset too), and below the
top level a node meets only the siblings in that set: by Apriori's subset
rule (Agrawal & Srikant, VLDB 1994) no itemset holding an infrequent pair
is frequent, so the pairs that fail are never intersected again. Each level
is walked last-first, so every single's partners are known before any class
below an earlier single reads them, and each size's itemsets come out in
reverse lexicographic order, reversed once at the end. Exact and
exhaustive: every itemset of size >= 1 with support >= min_support is
returned, sorted by (size, items) under the items' natural order. The
search is `_eclat`. `eclat` hands it the tid-sets of a `TransactionFile`,
which read_transactions builds once in numpy from each line's item codes,
or builds them the same way from any other transactions; the diary engine
hands it each flow's day bitmask.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .ingest import read_input
from .model import SPACE, Range, RowView

check_min_support = Range("min_support", 1)


@dataclass(frozen=True)
class Transaction:
    id: Hashable
    items: frozenset

    @classmethod
    def of(cls, id, items: Iterable) -> "Transaction":
        return cls(id=id, items=frozenset(items))


@dataclass(frozen=True)
class FrequentItemset:
    items: tuple
    support: int


class TransactionFile(RowView, Sequence):
    """A transaction file's lines as a read-only sequence of Transactions,
    each built when read. It keeps the file's distinct items once each, one
    int32 code per (line, distinct item), and every item's tid-set, which
    eclat mines as they are."""

    def __init__(self, ids: array, items: list, codes: array, starts: array):
        #: the line number of each transaction
        self.ids = ids
        #: the distinct items, in order of first appearance
        self.items = items
        #: transaction k holds items[c] for c in codes[starts[k]:starts[k + 1]]
        self.codes = codes
        self.starts = starts
        #: (item, tid-set) pairs, items ascending, transaction k on bit k
        self.tidsets = _tidsets(items, codes, starts)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Transaction:
        k = range(len(self))[k]  # a list's negative indexes and IndexError
        codes = self.codes[self.starts[k]:self.starts[k + 1]]
        return Transaction(self.ids[k], frozenset(map(self.items.__getitem__, codes)))


def eclat(transactions: Sequence[Transaction], min_support: int) -> list[FrequentItemset]:
    """All itemsets with support >= min_support, with exact supports.

    Transaction ids must be unique; items must be hashable and mutually
    ordered (one run's items should share a type). Output order is
    deterministic for any input order of transactions.
    """
    check_min_support(min_support)
    if isinstance(transactions, TransactionFile):
        return _eclat(transactions.tidsets, min_support)
    return _eclat(_tidsets(*_encode(_unique_ids(transactions))), min_support)


def _unique_ids(transactions: Iterable[Transaction]):
    """Each transaction's items, once its id is known to be new."""
    seen_ids = set()
    for t in transactions:
        if t.id in seen_ids:
            raise ValueError(f"duplicate transaction id {t.id!r}")
        seen_ids.add(t.id)
        yield t.items


def _encode(rows: Iterable[Iterable]) -> tuple[list, array, array]:
    """(items, codes, starts): the rows' distinct items in order of first
    appearance, row k's distinct items as codes[starts[k]:starts[k + 1]],
    each code an index into items."""
    index: dict = {}
    codes = array("i")
    starts = array("q", [0])
    for row in rows:
        codes.extend({index.setdefault(item, len(index)) for item in row})
        starts.append(len(codes))
    return list(index), codes, starts


def _tidsets(items: list, codes: array, starts: array) -> list[tuple]:
    """(item, tid-set) pairs, items ascending: bit k of an item's tid-set is
    set when row k of _encode's codes holds its code.

    Each item owns ceil(rows / 8) bytes of one zeroed buffer; every (code,
    row) pair ORs its bit into them, and int.from_bytes reads each item's
    bytes once. Every temporary holds one number per pair; none has a slot
    per (item, row).
    """
    n = len(starts) - 1
    width = (n + 7) // 8
    bits = np.frombuffer(codes, np.intc) * np.int64(8 * width)
    bits += np.repeat(np.arange(n), np.diff(starts))
    buf = np.zeros(len(items) * width, np.uint8)
    np.bitwise_or.at(buf, bits >> 3, np.left_shift(np.uint8(1), (bits & 7).astype(np.uint8)))
    del bits
    view = memoryview(buf)
    return sorted((item, int.from_bytes(view[c * width:(c + 1) * width], "little"))
                  for c, item in enumerate(items))


def _eclat(tidsets: Sequence[tuple], min_support: int) -> list[FrequentItemset]:
    """eclat's search over (item, tid-set int) pairs, items distinct and
    ascending; min_support >= 1.

    A tid-set may number its transactions any way (mine_diary passes day
    masks), since only the popcounts of its intersections are read.
    """
    by_size: list[list] = [[]]  # itemsets per size, each in reverse lexicographic order
    # The top level numbers the frequent singles as it meets them, last
    # first; partners[number] is the bitset of the numbers of the later
    # singles that single forms a frequent pair with.
    partners: list[int] = []
    found = by_size[0]
    later: list[tuple] = []  # the frequent singles after item, ascending, numbered
    for item, tids in reversed(tidsets):
        support = tids.bit_count()
        if support < min_support:
            continue
        found.append(FrequentItemset((item,), support))
        children = []
        pals = 0
        for other, other_tids, _, other_number in later:
            both = tids & other_tids
            n = both.bit_count()
            if n >= min_support:
                children.append((other, both, n, other_number))
                pals |= 1 << other_number
        later.insert(0, (item, tids, support, len(partners)))
        partners.append(pals)
        if children:
            _extend((item,), children, min_support, partners, by_size)
    return [fs for found in by_size for fs in reversed(found)]


def _extend(prefix: tuple, siblings: list, min_support: int, partners: list, by_size: list) -> None:
    """_eclat's class under prefix (one item or more), its itemsets
    appended to by_size. siblings: its frequent (item, tids, support,
    number), items ascending, walked last-first; an item meets only the
    later siblings among its partners."""
    if len(by_size) == len(prefix):
        by_size.append([])
    found = by_size[len(prefix)]
    for k in range(len(siblings) - 1, -1, -1):
        item, tids, support, number = siblings[k]
        itemset = prefix + (item,)
        found.append(FrequentItemset(itemset, support))
        if k + 1 < len(siblings) and (pals := partners[number]):
            children = []
            for other, other_tids, _, other_number in siblings[k + 1:]:
                if pals >> other_number & 1:
                    both = tids & other_tids
                    n = both.bit_count()
                    if n >= min_support:
                        children.append((other, both, n, other_number))
            if children:
                _extend(itemset, children, min_support, partners, by_size)


def support_of(transactions: Sequence[Transaction], itemset: Iterable) -> int:
    """Transactions containing every item; the empty itemset is in all of them."""
    wanted = frozenset(itemset)
    return sum(1 for t in transactions if wanted <= t.items)


def read_transactions(path) -> TransactionFile:
    """One transaction per line, its items the line's words (model.words);
    any other character, NBSP or U+001C included, is part of its item. Line
    number is the id. The file is read by ingest.read_input, so lines end
    at LF, CRLF or CR, and a missing file or one that is not UTF-8 is an
    IngestError.
    """
    ids = array("i")
    return TransactionFile(ids, *_encode(_line_words(path, ids)))


def _line_words(path, ids: array):
    """The word set of each line of the file that holds a word, its line
    number appended to ids first."""
    text = read_input(path).decode("utf-8").translate(str.maketrans(SPACE, " " * len(SPACE)))
    for n, line in enumerate(text.split("\n"), start=1):
        words = set(line.split(" "))
        words.discard("")
        if words:
            ids.append(n)
            yield words


def write_itemsets(itemsets: Sequence[FrequentItemset], fh) -> None:
    """`item item ...<TAB>support` lines, one itemset per line, to an open
    text stream."""
    for fs in itemsets:
        fh.write(" ".join(str(i) for i in fs.items) + "\t" + str(fs.support) + "\n")
