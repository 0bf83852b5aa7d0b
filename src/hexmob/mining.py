"""Eclat frequent-itemset mining over small transaction databases.

Vertical layout on bitset tid-sets: each item maps to a Python int whose bit
k is set when the k-th transaction holds the item, so an intersection is one
`&` and a support is one `int.bit_count()`. The search is depth-first over
equivalence classes (Zaki, IEEE TKDE 2000): a node's children are only its
later siblings whose intersection with it is frequent, each carrying its
intersected tid-set, so an item infrequent under a prefix is never tried
again below it. Exact and exhaustive: every itemset of size >= 1 with
support >= min_support is returned, sorted by (size, items) under the items'
natural order. `eclat` builds the tid-sets from transactions and hands them
to the search, `_eclat`; the diary engine hands it each flow's day bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from .ingest import IngestError, utf8_error


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
    by_size: list[list] = []  # itemsets per size, each in lexicographic order

    def extend(prefix: tuple, siblings: list) -> None:
        """siblings: the class's frequent (item, tids, support), items ascending."""
        if len(by_size) == len(prefix):
            by_size.append([])
        found = by_size[len(prefix)]
        for k, (item, tids, support) in enumerate(siblings):
            itemset = prefix + (item,)
            found.append(FrequentItemset(itemset, support))
            children = []
            for other, other_tids, _ in siblings[k + 1:]:
                both = tids & other_tids
                n = both.bit_count()
                if n >= min_support:
                    children.append((other, both, n))
            if children:
                extend(itemset, children)

    singles = [(item, tids, n) for item, tids in tidsets if (n := tids.bit_count()) >= min_support]
    extend((), singles)
    # depth-first order visits each size's itemsets in lexicographic order
    return [fs for found in by_size for fs in found]


def support_of(transactions: Sequence[Transaction], itemset: Iterable) -> int:
    """Transactions containing every item; the empty itemset is in all of them."""
    wanted = frozenset(itemset)
    return sum(1 for t in transactions if wanted <= t.items)


def read_transactions(path) -> list[Transaction]:
    """One transaction per line, items whitespace-separated; line number is the id.

    A missing file or one that is not UTF-8 is an IngestError, the latter
    naming the line of the first undecodable byte.
    """
    if not Path(path).exists():
        raise IngestError(f"no such file: {path}")
    txns = []
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                items = line.split()
                if items:
                    txns.append(Transaction.of(n, items))
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    return txns


def write_itemsets(itemsets: Sequence[FrequentItemset], fh) -> None:
    """`item item ...<TAB>support` lines, one itemset per line, to an open
    text stream."""
    for fs in itemsets:
        fh.write(" ".join(str(i) for i in fs.items) + "\t" + str(fs.support) + "\n")
