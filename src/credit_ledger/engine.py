"""Credit propagation over the citation graph.

Credit flows from a product to its contributors by multiplying weights
along citation paths and summing over paths. The engine computes this by
pushing mass: unit mass starts on the root (on every product in scope,
for a ranking) and moves down the citation DAG, citers before cited, each
product passing its summed inflow on along its weighted edges. Registered
products pass mass on; terminals absorb it. A depth limit uses the same
pass: it keeps each product's inflow apart per citation step, and the
registered products reached at the last step absorb theirs. The trade
for having one pass: it orders the root's whole unlimited closure, so a
shallow limit on a deep graph costs about what an unlimited query does,
not only the products within the limit. Allocations conserve the total:
shares always sum to 1, at any depth limit.

The engine works on the graph's node indexes: a node is a registered
product exactly when it has a row of edges, and any other target is a
terminal. Products are asked for, and results name entities, by
canonical id text.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .graph import CreditGraph, GraphError, topological_order


class UnknownProduct(GraphError):
    """The requested product id is not a registered product in the graph."""


class Allocation(NamedTuple):
    """Credit shares of one product, keyed by terminal entity id text, in
    aggregate_rank's order: descending share, ties by id text.

    truncated_at is the depth limit that actually cut off expansion, or
    None when no registered product was truncated.
    """

    product: str
    shares: Mapping[str, float]
    truncated_at: int | None = None


def _sweep(
    graph: CreditGraph, starts: Sequence[int], max_depth: int | None
) -> tuple[dict[int, float], bool]:
    """Unit mass on each start product, pushed to the terminals in one pass.

    Products are visited citers first, so a product's inflow is complete
    before its mass moves on. Cost is linear in the reachable edges, times
    the number of steps a product is reached at. Inflow is keyed by
    citation step, which advances only under a depth limit: a registered
    product reached at step max_depth absorbs its mass, and the flag says
    whether any did.

    Raises:
        ValueError: max_depth is below 1.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    products = graph.products
    count = len(products)
    advance = 0 if max_depth is None else 1
    inflow: dict[int, dict[int, list[float]]] = {i: {0: [1.0]} for i in starts}
    buckets: dict[int, list[float]] = {}
    truncated = False
    for i in reversed(topological_order(graph, starts)):
        row = products[i]
        for step, parts in inflow.pop(i, {}).items():
            mass = math.fsum(parts)
            reached = step + advance
            for target, weight in zip(row[1::2], row[2::2]):
                if target < count and reached != max_depth:
                    inflow.setdefault(target, {}).setdefault(reached, []).append(mass * weight)
                else:
                    truncated = truncated or target < count
                    buckets.setdefault(target, []).append(mass * weight)
    return {node: math.fsum(parts) for node, parts in buckets.items()}, truncated


def _ranked(graph: CreditGraph, shares: dict[int, float]) -> list[tuple[str, float]]:
    """Each node's share under its id text, by descending share, ties by id text."""
    ids = graph.ids
    ranked = sorted(shares.items(), key=lambda item: (-item[1], ids[item[0]]))
    return [(ids[node], share) for node, share in ranked]


def transitive_credit(
    graph: CreditGraph, product: str, max_depth: int | None = None
) -> Allocation:
    """Propagate credit from a registered product, by id text, down to terminals.

    Shares multiply along citation paths and sum per entity; the result
    conserves the unit total at any depth limit. Deterministic for a given
    corpus, independent of corpus input order.

    max_depth limits how many citation steps from the root are expanded:
    registered products sitting exactly max_depth steps down are treated as
    terminals and absorb their share. None means unlimited.

    Raises:
        UnknownProduct: product is not registered in this graph.
        ValueError: max_depth is below 1.
    """
    index = graph.product_index(product)
    if index is None:
        raise UnknownProduct(f"{product} is not a registered product")
    shares, truncated = _sweep(graph, [index], max_depth)
    return Allocation(
        product=product,
        shares=dict(_ranked(graph, shares)),
        truncated_at=max_depth if truncated else None,
    )


def aggregate_rank(
    graph: CreditGraph, scope: str = "all", max_depth: int | None = None
) -> list[tuple[str, float]]:
    """Total credit per entity id text, summed over products in scope, descending.

    Scope "all" sums every registered product's allocation; "roots" sums
    only products nothing else cites. Ties are ordered by canonical id
    text. max_depth is as for transitive_credit.

    Raises:
        ValueError: scope is neither "all" nor "roots", or max_depth is below 1.
    """
    if scope == "all":
        in_scope: Sequence[int] = range(len(graph.products))
    elif scope == "roots":
        in_scope = graph.root_indexes()
    else:
        raise ValueError(f"scope must be 'all' or 'roots', got {scope!r}")
    totals, _ = _sweep(graph, in_scope, max_depth)
    return _ranked(graph, totals)
