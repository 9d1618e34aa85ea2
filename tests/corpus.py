"""Seeded random corpus construction for propagation tests.

Corpora are acyclic by construction: product i may only cite products
with a smaller index. Every product has at least one author entry and
weights are drawn from a normalized simplex, so each map passes
validation and graphs built from them are cycle free.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from credit_ledger import (
    Category,
    CreditEntry,
    CreditGraph,
    CreditMap,
    EntityId,
    IdScheme,
    ProductKind,
    ProductMeta,
)


def simplex(rng: random.Random, n: int) -> list[float]:
    parts = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(parts)
    return [p / total for p in parts]


def _product_id(i: int) -> EntityId:
    return EntityId(IdScheme.DOI, f"10.7777/p{i}")


def make_corpus(
    rng: random.Random,
    max_products: int = 50,
    max_entries: int = 8,
) -> list[CreditMap]:
    count = rng.randint(1, max_products)
    maps: list[CreditMap] = []
    for i in range(count):
        n_entries = rng.randint(1, max_entries)
        slots = ["author"]
        for _ in range(n_entries - 1):
            slots.append(rng.choice(["author", "person", "cite", "external"]))
        weights = simplex(rng, n_entries)
        cited: set[int] = set()
        entries: list[CreditEntry] = []
        serial = 0
        for slot, weight in zip(slots, weights):
            if slot == "cite":
                j = rng.randrange(i) if i > 0 else -1
                if j >= 0 and j not in cited:
                    cited.add(j)
                    category = rng.choice([Category.ARTICLE, Category.SOFTWARE])
                    entries.append(CreditEntry(_product_id(j), category, weight))
                    continue
                slot = "external"
            if slot == "author":
                entity = EntityId(IdScheme.NAME, f"person {i} {serial}")
                entries.append(CreditEntry(entity, Category.AUTHOR, weight))
            elif slot == "person":
                entity = EntityId(IdScheme.EMAIL, f"p{i}x{serial}@example.org")
                entries.append(CreditEntry(entity, Category.ACKNOWLEDGMENT, weight))
            else:
                entity = EntityId(IdScheme.URL, f"https://example.org/ext/{i}/{serial}")
                category = rng.choice([Category.SOFTWARE, Category.OTHER])
                entries.append(CreditEntry(entity, category, weight))
            serial += 1
        meta = ProductMeta(id=_product_id(i), kind=ProductKind.CODE, headline=f"Product {i}")
        maps.append(CreditMap(meta, tuple(entries)))
    return maps


def as_plain(maps: list[CreditMap]) -> dict[str, list[tuple[str, float]]]:
    """Corpus reduced to id-text adjacency lists for the path oracle."""
    return {
        m.product.id.text: [(e.entity.text, e.weight) for e in m.entries]
        for m in maps
    }


def adjacency(graph: CreditGraph) -> dict[str, list[tuple[str, float]]]:
    """A graph's product rows as id-text adjacency lists, in as_plain's
    shape: each registered product's (target, weight) pairs in entry order,
    the products in index order."""
    ids = graph.ids
    return {
        ids[row[0]]: [(ids[target], weight) for target, weight in zip(row[1::2], row[2::2])]
        for row in graph.products
    }


def _dag_product_id(i: int) -> EntityId:
    return EntityId(IdScheme.DOI, f"10.7777/d{i}")


@st.composite
def dags(draw, max_products: int, chain: bool = False, max_cites: int = 2) -> list[CreditMap]:
    """Acyclic corpus: product i cites up to max_cites random earlier
    products (only product i - 1 when chain is set) and credits 1-3 people
    from a pool of 8, so several products share terminals. Weights are
    positive and normalized."""
    maps: list[CreditMap] = []
    for i in range(draw(st.integers(1, max_products))):
        if chain:
            cited = {i - 1} if i else set()
        else:
            cited = set(draw(st.lists(st.integers(0, i - 1), max_size=max_cites))) if i else set()
        people = draw(st.sets(st.integers(0, 7), min_size=1, max_size=3))
        targets = [(_dag_product_id(j), Category.ARTICLE) for j in sorted(cited)]
        targets += [(EntityId(IdScheme.NAME, f"person {k}"), Category.AUTHOR) for k in sorted(people)]
        raw = draw(st.lists(st.integers(1, 20), min_size=len(targets), max_size=len(targets)))
        entries = tuple(
            CreditEntry(entity, category, part / sum(raw))
            for (entity, category), part in zip(targets, raw)
        )
        maps.append(CreditMap(ProductMeta(_dag_product_id(i), ProductKind.CODE, f"D{i}"), entries))
    return maps


def make_chain(
    rng: random.Random,
    length: int,
) -> tuple[list[CreditMap], EntityId, list[float], float]:
    """Linear citation chain c0 <- c1 <- ... <- c{length}.

    Returns the maps, the lead author of c0, the per-hop citation
    weights, and the lead author's direct weight on c0.
    """
    lead = EntityId(IdScheme.NAME, "chain lead author")
    lead_weight = rng.uniform(0.1, 0.9)
    first = CreditMap(
        ProductMeta(_chain_id(0), ProductKind.CODE, "Chain 0"),
        (
            CreditEntry(lead, Category.AUTHOR, lead_weight),
            CreditEntry(
                EntityId(IdScheme.NAME, "chain co author"),
                Category.AUTHOR,
                1.0 - lead_weight,
            ),
        ),
    )
    maps = [first]
    hop_weights: list[float] = []
    for k in range(1, length + 1):
        hop = rng.uniform(0.05, 0.95)
        hop_weights.append(hop)
        maps.append(
            CreditMap(
                ProductMeta(_chain_id(k), ProductKind.SCHOLARLY_ARTICLE, f"Chain {k}"),
                (
                    CreditEntry(
                        EntityId(IdScheme.NAME, f"chain author {k}"),
                        Category.AUTHOR,
                        1.0 - hop,
                    ),
                    CreditEntry(_chain_id(k - 1), Category.ARTICLE, hop),
                ),
            )
        )
    return maps, lead, hop_weights, lead_weight


def _chain_id(k: int) -> EntityId:
    return EntityId(IdScheme.DOI, f"10.7777/c{k}")
