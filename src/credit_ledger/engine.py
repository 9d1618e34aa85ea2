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
terminal. Ids are built only for the entities a result names.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .graph import CreditGraph, GraphError, topological_order
from .model import EntityId


class UnknownProduct(GraphError):
    """The requested product id is not a registered product in the graph."""


class _Options(NamedTuple):
    max_depth: int | None = None


class PropagationOptions(_Options):
    """Knobs for credit propagation.

    max_depth limits how many citation steps from the root are expanded:
    registered products sitting exactly max_depth steps down are treated as
    terminals and absorb their share. None means unlimited.
    """

    __slots__ = ()

    def __new__(cls, max_depth: int | None = None) -> PropagationOptions:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        return super().__new__(cls, max_depth)


class Allocation(NamedTuple):
    """Credit shares of one product, keyed by terminal entity id, in
    aggregate_rank's order: descending share, ties by id text.

    truncated_at is the depth limit that actually cut off expansion, or
    None when no registered product was truncated.
    """

    product: EntityId
    shares: Mapping[EntityId, float]
    truncated_at: int | None = None


class RankScope(Enum):
    """Which registered products aggregate_rank sums over."""

    ALL_PRODUCTS = "all"
    ROOTS_ONLY = "roots"


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
    """
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


def _ranked(graph: CreditGraph, shares: dict[int, float]) -> list[tuple[EntityId, float]]:
    """Each node's share under its id, by descending share, ties by id text."""
    ids = graph.ids
    ranked = sorted(shares.items(), key=lambda item: (-item[1], ids[item[0]]))
    return [(graph.entity(node), share) for node, share in ranked]


def transitive_credit(
    graph: CreditGraph,
    product: EntityId,
    options: PropagationOptions | None = None,
) -> Allocation:
    """Propagate credit from a registered product down to terminals.

    Shares multiply along citation paths and sum per entity; the result
    conserves the unit total at any depth limit. Deterministic for a given
    corpus, independent of corpus input order.

    Raises:
        UnknownProduct: product is not registered in this graph.
    """
    options = options or PropagationOptions()
    index = graph.product_index(product)
    if index is None:
        raise UnknownProduct(f"{product.text} is not a registered product")
    shares, truncated = _sweep(graph, [index], options.max_depth)
    return Allocation(
        product=product,
        shares=dict(_ranked(graph, shares)),
        truncated_at=options.max_depth if truncated else None,
    )


def aggregate_rank(
    graph: CreditGraph,
    scope: RankScope = RankScope.ALL_PRODUCTS,
    options: PropagationOptions | None = None,
) -> list[tuple[EntityId, float]]:
    """Total credit per entity, summed over products in scope, descending.

    Scope ALL_PRODUCTS sums every registered product's allocation;
    ROOTS_ONLY sums only products nothing else cites. Ties are ordered by
    canonical id text.
    """
    options = options or PropagationOptions()
    if scope is RankScope.ALL_PRODUCTS:
        in_scope: Sequence[int] = range(len(graph.products))
    else:
        in_scope = graph.root_indexes()
    totals, _ = _sweep(graph, in_scope, options.max_depth)
    return _ranked(graph, totals)
