"""Weighted citation graph built from a corpus of credit maps.

Nodes are registered products, terminal people, or terminal products;
edges carry the credit weight of one entry. The build is deterministic for
a given corpus regardless of input order, and any directed cycle among
registered products is rejected with a witness path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .model import (
    Category,
    CreditLedgerError,
    CreditMap,
    EntityId,
    IdScheme,
    PERSON_CATEGORIES,
    ProductMeta,
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


@dataclass(frozen=True)
class GraphNode:
    id: EntityId
    kind: NodeKind
    label: str | None = None
    meta: ProductMeta | None = None


@dataclass(frozen=True)
class GraphEdge:
    source: EntityId
    target: EntityId
    weight: float
    category: Category


@dataclass(frozen=True)
class CreditGraph:
    """Immutable citation graph: nodes by id, outgoing edges by source id.

    Edge tuples preserve each map's entry order. warnings records non-fatal
    classification anomalies found during the build.
    """

    nodes: Mapping[EntityId, GraphNode]
    edges: Mapping[EntityId, tuple[GraphEdge, ...]]
    warnings: tuple[str, ...] = ()

    def registered(self) -> list[EntityId]:
        """Registered product ids, sorted by canonical text."""
        return sorted(
            (i for i, n in self.nodes.items() if n.kind is NodeKind.REGISTERED_PRODUCT),
            key=lambda e: e.text,
        )

    def roots(self) -> list[EntityId]:
        """Registered products no other registered product cites, sorted."""
        cited = {
            edge.target
            for edges in self.edges.values()
            for edge in edges
            if edge.target in self.edges
        }
        return [pid for pid in self.registered() if pid not in cited]


def _find_cycle(
    order: list[EntityId], edges: Mapping[EntityId, tuple[GraphEdge, ...]]
) -> list[EntityId] | None:
    """First cycle among registered products in deterministic DFS order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {pid: WHITE for pid in order}
    for start in order:
        if color[start] != WHITE:
            continue
        stack: list[tuple[EntityId, Iterable[GraphEdge]]] = [(start, iter(edges[start]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for edge in it:
                target = edge.target
                if target not in color:
                    continue
                if color[target] == GRAY:
                    loop_start = path.index(target)
                    return path[loop_start:] + [target]
                if color[target] == WHITE:
                    color[target] = GRAY
                    path.append(target)
                    stack.append((target, iter(edges[target])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def build_graph(maps: Iterable[CreditMap]) -> CreditGraph:
    """Assemble the citation graph for a corpus of credit maps.

    Entries whose id matches a registered product become internal edges.
    Everything else becomes a terminal node: author and acknowledgment
    entries are people, other categories are products, and an ORCID in a
    product category is treated as a person (recorded as a warning).

    Raises:
        DuplicateProductId: two maps share one canonical product id.
        CycleError: the registered products cite each other in a cycle.
    """
    corpus = sorted(maps, key=lambda m: m.product.id.text)
    registered: dict[EntityId, CreditMap] = {}
    for creditmap in corpus:
        pid = creditmap.product.id
        if pid in registered:
            raise DuplicateProductId(f"duplicate product id {pid.text}")
        registered[pid] = creditmap

    nodes: dict[EntityId, GraphNode] = {}
    edges: dict[EntityId, tuple[GraphEdge, ...]] = {}
    warnings: list[str] = []

    for pid, creditmap in registered.items():
        nodes[pid] = GraphNode(
            id=pid,
            kind=NodeKind.REGISTERED_PRODUCT,
            label=creditmap.product.headline or None,
            meta=creditmap.product,
        )

    for pid, creditmap in registered.items():
        out = []
        for entry in creditmap.entries:
            target = entry.entity
            out.append(GraphEdge(pid, target, entry.weight, entry.category))
            if target in registered:
                continue
            is_person = entry.category in PERSON_CATEGORIES
            if not is_person and target.scheme is IdScheme.ORCID:
                is_person = True
                warnings.append(
                    f"{pid.text}: ORCID {target.text} cited in product category "
                    f"{entry.category.value!r}; treating it as a person"
                )
            kind = NodeKind.TERMINAL_PERSON if is_person else NodeKind.TERMINAL_PRODUCT
            label = entry.display.name or entry.display.headline
            existing = nodes.get(target)
            if existing is None:
                nodes[target] = GraphNode(id=target, kind=kind, label=label)
            else:
                if existing.kind is not kind:
                    warnings.append(
                        f"{target.text} is referenced both as a person and as a "
                        f"product; keeping the person classification"
                    )
                merged_kind = (
                    NodeKind.TERMINAL_PERSON
                    if NodeKind.TERMINAL_PERSON in (existing.kind, kind)
                    else existing.kind
                )
                nodes[target] = GraphNode(
                    id=target,
                    kind=merged_kind,
                    label=existing.label or label,
                )
        edges[pid] = tuple(out)

    order = sorted(registered, key=lambda e: e.text)
    witness = _find_cycle(order, edges)
    if witness is not None:
        raise CycleError(witness)

    return CreditGraph(nodes=nodes, edges=edges, warnings=tuple(warnings))


def topological_order(
    graph: CreditGraph, start: Iterable[EntityId] | None = None
) -> list[EntityId]:
    """Registered products, every product after everything it cites.

    With start given (registered product ids), only the products reachable
    from them, start included, are ordered. Ties are broken by canonical id
    text, so the order is fully deterministic.
    """
    if start is None:
        registered = set(graph.edges)
    else:
        registered = set(start)
        stack = list(registered)
        while stack:
            for edge in graph.edges[stack.pop()]:
                if edge.target in graph.edges and edge.target not in registered:
                    registered.add(edge.target)
                    stack.append(edge.target)
    depends_on = {
        pid: {e.target for e in graph.edges[pid] if e.target in registered}
        for pid in registered
    }
    dependents: dict[EntityId, list[EntityId]] = {pid: [] for pid in registered}
    for pid, deps in depends_on.items():
        for dep in deps:
            dependents[dep].append(pid)

    ready = [pid.text for pid, deps in depends_on.items() if not deps]
    heapq.heapify(ready)
    by_text = {pid.text: pid for pid in registered}
    remaining = {pid: len(deps) for pid, deps in depends_on.items()}
    order: list[EntityId] = []
    while ready:
        pid = by_text[heapq.heappop(ready)]
        order.append(pid)
        for dependent in dependents[pid]:
            remaining[dependent] -= 1
            if remaining[dependent] == 0:
                heapq.heappush(ready, dependent.text)
    if len(order) != len(registered):
        leftover = sorted(
            (pid for pid in registered if remaining[pid] > 0), key=lambda e: e.text
        )
        witness = _find_cycle(leftover, graph.edges)
        raise CycleError(witness or leftover + leftover[:1])
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
            node = graph.nodes[edge.target]
            if node.kind is NodeKind.TERMINAL_PRODUCT:
                citers.setdefault(edge.target, set()).add(pid)
    return [
        (target, sorted(citers[target], key=lambda e: e.text))
        for target in sorted(citers, key=lambda e: e.text)
    ]
