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
returned, sorted by (size, items) under the items' natural order. `eclat`
builds the tid-sets from transactions and hands them to the search,
`_eclat`; the diary engine hands it each flow's day bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .ingest import read_input
from .model import SPACE


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


def eclat(transactions: Sequence[Transaction], min_support: int) -> list[FrequentItemset]:
    """All itemsets with support >= min_support, with exact supports.

    Transaction ids must be unique; items must be hashable and mutually
    ordered (one run's items should share a type). Output order is
    deterministic for any input order of transactions.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    seen_ids = set()
    tidsets: dict = {}
    for k, t in enumerate(transactions):
        if t.id in seen_ids:
            raise ValueError(f"duplicate transaction id {t.id!r}")
        seen_ids.add(t.id)
        bit = 1 << k
        for item in t.items:
            tidsets[item] = tidsets.get(item, 0) | bit
    return _eclat(sorted(tidsets.items()), min_support)


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

    def extend(prefix: tuple, siblings: list) -> None:
        """The class under prefix (one item or more). siblings: its frequent
        (item, tids, support, number), items ascending, walked last-first;
        an item meets only the later siblings among its partners."""
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
                    extend(itemset, children)

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
            extend((item,), children)
    return [fs for found in by_size for fs in reversed(found)]


def support_of(transactions: Sequence[Transaction], itemset: Iterable) -> int:
    """Transactions containing every item; the empty itemset is in all of them."""
    wanted = frozenset(itemset)
    return sum(1 for t in transactions if wanted <= t.items)


def read_transactions(path) -> list[Transaction]:
    """One transaction per line, its items the line's words (model.words);
    any other character, NBSP or U+001C included, is part of its item. Line
    number is the id. The file is read by ingest.read_input, so lines end
    at LF, CRLF or CR, and a missing file or one that is not UTF-8 is an
    IngestError.
    """
    text = read_input(path).decode("utf-8").translate(str.maketrans(SPACE, " " * len(SPACE)))
    txns = []
    for n, line in enumerate(text.split("\n"), start=1):
        items = frozenset(line.split(" "))
        if "" in items:
            items -= {""}
        if items:
            txns.append(Transaction(n, items))
    return txns


def write_itemsets(itemsets: Sequence[FrequentItemset], fh) -> None:
    """`item item ...<TAB>support` lines, one itemset per line, to an open
    text stream."""
    for fs in itemsets:
        fh.write(" ".join(str(i) for i in fs.items) + "\t" + str(fs.support) + "\n")
