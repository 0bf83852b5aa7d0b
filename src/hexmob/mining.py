"""Eclat frequent-itemset mining over small transaction databases.

Vertical layout: each item maps to the set of transaction ids containing it.
Depth-first prefix extension intersects tid-sets, so support counting never
rescans transactions. Exact and exhaustive: every itemset of size >= 1 with
support >= min_support is returned, sorted by (size, items) under the items'
natural order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


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
    for t in transactions:
        if t.id in seen_ids:
            raise ValueError(f"duplicate transaction id {t.id!r}")
        seen_ids.add(t.id)
        for item in t.items:
            tidsets.setdefault(item, set()).add(t.id)

    items = sorted(tidsets)
    out: list[FrequentItemset] = []

    def extend(prefix: tuple, prefix_tids: set, start: int) -> None:
        for k in range(start, len(items)):
            item = items[k]
            tids = prefix_tids & tidsets[item] if prefix else tidsets[item]
            if len(tids) >= min_support:
                itemset = prefix + (item,)
                out.append(FrequentItemset(items=itemset, support=len(tids)))
                extend(itemset, tids, k + 1)

    extend((), set(), 0)
    out.sort(key=lambda fs: (len(fs.items), fs.items))
    return out


def support_of(transactions: Sequence[Transaction], itemset: Iterable) -> int:
    """Transactions containing every item; the empty itemset is in all of them."""
    wanted = frozenset(itemset)
    return sum(1 for t in transactions if wanted <= t.items)


def read_transactions(path) -> list[Transaction]:
    """One transaction per line, items whitespace-separated; line number is the id."""
    txns = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            items = line.split()
            if items:
                txns.append(Transaction.of(n, items))
    return txns


def write_itemsets(itemsets: Sequence[FrequentItemset], fh) -> None:
    """`item item ...<TAB>support` lines, one itemset per line, to an open
    text stream."""
    for fs in itemsets:
        fh.write(" ".join(str(i) for i in fs.items) + "\t" + str(fs.support) + "\n")
