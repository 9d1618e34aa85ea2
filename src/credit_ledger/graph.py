"""Weighted citation graph built from a corpus of credit maps.

The graph keeps what propagation needs: each registered product's
outgoing edges (target and weight, in entry order) and the kind of every
node, which tells a registered product from a terminal person or terminal
product. The build is deterministic for a given corpus regardless of input
order, and any directed cycle among registered products is rejected with a
witness path, so every CreditGraph is acyclic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

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

    witness = _find_cycle(list(registered), edges)
    if witness is not None:
        raise CycleError(witness)

    return CreditGraph(nodes=nodes, edges=edges, warnings=tuple(warnings))


def topological_order(
    graph: CreditGraph, start: Iterable[EntityId] | None = None
) -> list[EntityId]:
    """Registered products, every product after everything it cites.

    With start given (registered product ids), only the products reachable
    from them, start included, are ordered. Ties are broken by canonical id
    text, so the order is fully deterministic. The graph must be acyclic,
    as every graph from build_graph is (it refuses cycles), so there is no
    cycle check here.
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
