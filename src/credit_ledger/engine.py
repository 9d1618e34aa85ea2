"""Credit propagation over the citation graph.

Credit flows from a product to its contributors by multiplying weights
along citation paths and summing over paths. The engine computes this by
pushing mass: unit mass starts on the root (on every product in scope,
for a ranking) and moves down the citation DAG, citers before cited, each
product passing its summed inflow on along its weighted edges. Registered
products pass mass on; terminals absorb it. A depth limit pushes the mass
in layers, one citation step at a time, and the registered products
reached at the last step absorb theirs. Allocations conserve the total:
shares always sum to 1, at any depth limit.

The engine works on the graph's node indexes: a node is a registered
product exactly when it has a row of edges, and any other target is a
terminal. Ids are built only for the entities a result names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .graph import CreditGraph, GraphError, topological_order
from .model import EntityId


class UnknownProduct(GraphError):
    """The requested product id is not a registered product in the graph."""


@dataclass(frozen=True)
class PropagationOptions:
    """Knobs for credit propagation.

    max_depth limits how many citation steps from the root are expanded:
    registered products sitting exactly max_depth steps down are treated as
    terminals and absorb their share. None means unlimited.
    """

    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass(frozen=True)
class Allocation:
    """Credit shares of one product, keyed by terminal entity id.

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


def _fold(buckets: dict[int, list[float]]) -> dict[int, float]:
    return {node: math.fsum(parts) for node, parts in buckets.items()}


def _sweep(graph: CreditGraph, starts: Sequence[int]) -> dict[int, float]:
    """Unit mass on each start product, pushed to the terminals in one pass.

    Products are visited citers first, so a product's inflow is complete
    before its mass moves on. Cost is linear in the reachable edges.
    """
    products = graph.products
    count = len(products)
    inflow: dict[int, list[float]] = {i: [1.0] for i in starts}
    buckets: dict[int, list[float]] = {}
    for i in reversed(topological_order(graph, starts)):
        mass = math.fsum(inflow[i])
        row = products[i]
        for target, weight in zip(row[1::2], row[2::2]):
            into = inflow if target < count else buckets
            into.setdefault(target, []).append(mass * weight)
    return _fold(buckets)


def _layered_sweep(
    graph: CreditGraph, starts: Sequence[int], max_depth: int
) -> tuple[dict[int, float], bool]:
    """Unit mass on each start product, pushed one citation step at a time.

    Registered products reached at step max_depth absorb their mass; the
    flag says whether any did. Stops once no mass is left in flight.
    """
    products = graph.products
    count = len(products)
    frontier: dict[int, list[float]] = {i: [1.0] for i in starts}
    buckets: dict[int, list[float]] = {}
    truncated = False
    depth = 0
    while frontier:
        depth += 1
        following: dict[int, list[float]] = {}
        for i, parts in frontier.items():
            mass = math.fsum(parts)
            row = products[i]
            for target, weight in zip(row[1::2], row[2::2]):
                registered = target < count
                if registered and depth < max_depth:
                    following.setdefault(target, []).append(mass * weight)
                else:
                    truncated = truncated or registered
                    buckets.setdefault(target, []).append(mass * weight)
        frontier = following
    return _fold(buckets), truncated


def _propagate(
    graph: CreditGraph, starts: Sequence[int], options: PropagationOptions
) -> tuple[dict[int, float], bool]:
    if options.max_depth is None:
        return _sweep(graph, starts), False
    return _layered_sweep(graph, starts, options.max_depth)


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
    shares, truncated = _propagate(graph, [index], options)
    return Allocation(
        product=product,
        shares={graph.entity(node): share for node, share in shares.items()},
        truncated_at=options.max_depth if truncated else None,
    )


def entity_credit(
    graph: CreditGraph,
    product: EntityId,
    entity: EntityId,
    options: PropagationOptions | None = None,
) -> float:
    """Share of a product's credit reaching one entity (0.0 when none)."""
    return transitive_credit(graph, product, options).shares.get(entity, 0.0)


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
    totals, _ = _propagate(graph, in_scope, options)
    ids = graph.ids
    ranked = sorted(totals.items(), key=lambda item: (-item[1], ids[item[0]]))
    return [(graph.entity(node), total) for node, total in ranked]
