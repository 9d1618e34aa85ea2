"""Weighted citation graph built from a corpus of credit maps.

The graph keeps what propagation needs: each registered product's
outgoing edges (target and weight, in entry order) and the kind of every
node, which tells a registered product from a terminal person or terminal
product. The build is deterministic for a given corpus regardless of input
order, and any directed cycle among registered products is rejected with a
witness path, so every CreditGraph is acyclic.

One depth-first search serves both the cycle check and the order in which
propagation visits products: its post-order puts every product after the
products it cites, in time linear in the edges it follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import (
    CreditLedgerError,
    CreditMap,
    EntityId,
    IdScheme,
    PERSON_CATEGORIES,
)


class GraphError(CreditLedgerError):
    """Base class for graph construction failures."""


class DuplicateProductId(GraphError):
    """Two maps in the corpus claim the same canonical product id."""


class CycleError(GraphError):
    """The registered products contain a citation cycle.

    witness is a product id path whose consecutive pairs are all edges and
    whose first and last element are the same node.
    """

    def __init__(self, witness: list[EntityId]):
        self.witness = witness
        path = " -> ".join(e.text for e in witness)
        super().__init__(f"citation cycle: {path}")


class NodeKind(Enum):
    REGISTERED_PRODUCT = "registered_product"
    TERMINAL_PERSON = "terminal_person"
    TERMINAL_PRODUCT = "terminal_product"


class GraphEdge(NamedTuple):
    """One weighted citation; its source is the key it is stored under."""

    target: EntityId
    weight: float


@dataclass(frozen=True)
class CreditGraph:
    """Immutable citation graph: node kinds by id, outgoing edges by product.

    edges has one key per registered product, and its tuples preserve each
    map's entry order. warnings records non-fatal classification anomalies
    found during the build.
    """

    nodes: Mapping[EntityId, NodeKind]
    edges: Mapping[EntityId, tuple[GraphEdge, ...]]
    warnings: tuple[str, ...] = ()

    def registered(self) -> list[EntityId]:
        """Registered product ids, sorted by canonical text."""
        return sorted(self.edges, key=lambda e: e.text)

    def roots(self) -> list[EntityId]:
        """Registered products no other registered product cites, sorted."""
        cited = {
            edge.target
            for edges in self.edges.values()
            for edge in edges
            if edge.target in self.edges
        }
        return [pid for pid in self.registered() if pid not in cited]


def _depth_first(
    edges: Mapping[EntityId, tuple[GraphEdge, ...]], starts: Iterable[EntityId]
) -> tuple[list[EntityId], list[EntityId] | None]:
    """Registered products reachable from starts, and the first cycle met.

    One iterative depth-first search from each start in turn, following
    each product's edges in entry order and skipping terminals. A product
    enters the order once all its edges are done (post-order), so it comes
    after every product it cites. The cycle, or None, is the search path
    from the product an edge leads back to, closed by that product again.
    """
    done: dict[EntityId, None] = {}  # finished products, in post-order
    path: list[EntityId] = []
    on_path: set[EntityId] = set()
    pending: list[Iterator[GraphEdge]] = []  # per path product, edges left
    for start in starts:
        if start in done:
            continue
        path.append(start)
        on_path.add(start)
        pending.append(iter(edges[start]))
        while pending:
            for edge in pending[-1]:
                target = edge.target
                if target not in edges or target in done:
                    continue
                if target in on_path:
                    return list(done), path[path.index(target):] + [target]
                path.append(target)
                on_path.add(target)
                pending.append(iter(edges[target]))
                break
            else:
                pid = path.pop()
                pending.pop()
                on_path.remove(pid)
                done[pid] = None
    return list(done), None


def build_graph(maps: Iterable[CreditMap]) -> CreditGraph:
    """Assemble the citation graph for a corpus of credit maps.

    Entries whose id matches a registered product become internal edges.
    Everything else becomes a terminal node: author and acknowledgment
    entries are people, other categories are products, and an ORCID in a
    product category is treated as a person (recorded as a warning). An id
    cited both ways is kept as a person (also a warning).

    Raises:
        DuplicateProductId: two maps share one canonical product id.
        CycleError: the registered products cite each other in a cycle.
    """
    registered: dict[EntityId, CreditMap] = {}
    for creditmap in sorted(maps, key=lambda m: m.product.id.text):
        pid = creditmap.product.id
        if pid in registered:
            raise DuplicateProductId(f"duplicate product id {pid.text}")
        registered[pid] = creditmap

    nodes = dict.fromkeys(registered, NodeKind.REGISTERED_PRODUCT)
    edges: dict[EntityId, tuple[GraphEdge, ...]] = {}
    warnings: list[str] = []
    for pid, creditmap in registered.items():
        edges[pid] = tuple(GraphEdge(e.entity, e.weight) for e in creditmap.entries)
        for entry in creditmap.entries:
            target = entry.entity
            if target in registered:
                continue
            if entry.category in PERSON_CATEGORIES:
                kind = NodeKind.TERMINAL_PERSON
            elif target.scheme is IdScheme.ORCID:
                kind = NodeKind.TERMINAL_PERSON
                warnings.append(
                    f"{pid.text}: ORCID {target.text} cited in product category "
                    f"{entry.category.value!r}; treating it as a person"
                )
            else:
                kind = NodeKind.TERMINAL_PRODUCT
            if nodes.setdefault(target, kind) is not kind:
                warnings.append(
                    f"{target.text} is referenced both as a person and as a "
                    f"product; keeping the person classification"
                )
                nodes[target] = NodeKind.TERMINAL_PERSON

    _, witness = _depth_first(edges, registered)
    if witness is not None:
        raise CycleError(witness)

    return CreditGraph(nodes=nodes, edges=edges, warnings=tuple(warnings))


def topological_order(
    graph: CreditGraph, start: Iterable[EntityId] | None = None
) -> list[EntityId]:
    """Registered products, every product after everything it cites.

    With start given (registered product ids), only the products reachable
    from them, start included, are ordered; without it, every registered
    product, searched from in the graph's edge order. The order is the
    depth-first post-order: each product's edges are followed in entry
    order, and no tie is broken by id text. It is deterministic for a given
    graph, and build_graph builds the same graph for any input order. The
    graph must be acyclic, as every graph from build_graph is (it refuses
    cycles).
    """
    order, _ = _depth_first(graph.edges, graph.edges if start is None else start)
    return order


def dangling_references(graph: CreditGraph) -> list[tuple[EntityId, list[EntityId]]]:
    """Terminal products and the registered products citing each of them.

    People are terminal by nature and are not reported; this lists cited
    products that are absent from the registry. Both levels are sorted by
    canonical id text.
    """
    citers: dict[EntityId, set[EntityId]] = {}
    for pid, out in graph.edges.items():
        for edge in out:
            if graph.nodes[edge.target] is NodeKind.TERMINAL_PRODUCT:
                citers.setdefault(edge.target, set()).add(pid)
    return [
        (target, sorted(citers[target], key=lambda e: e.text))
        for target in sorted(citers, key=lambda e: e.text)
    ]
