"""Weighted citation graph built from a corpus of credit maps.

The graph keeps what propagation needs, in the layout of the registry
snapshot's graph line: a table of node id texts, one kind code per node,
and per registered product its outgoing edges (target index and weight,
in entry order), so reading a snapshot builds no object per node. Past
build_graph, an entity is its canonical id text. The build is
deterministic for a given corpus regardless of input order, and any
directed cycle among registered products is rejected with a witness path,
so every CreditGraph is acyclic.

One depth-first search serves both the cycle check and the order in which
propagation visits products: its post-order puts every product after the
products it cites, in time linear in the edges it follows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .model import Category, CreditLedgerError, CreditMap


class GraphError(CreditLedgerError):
    """Base class for graph construction failures."""


class DuplicateProductId(GraphError):
    """Two maps in the corpus claim the same canonical product id."""


class CycleError(GraphError):
    """The registered products contain a citation cycle.

    witness is a path of product id texts whose consecutive pairs are all
    edges and whose first and last element are the same node.
    """

    def __init__(self, witness: list[str]):
        self.witness = witness
        super().__init__(f"citation cycle: {' -> '.join(witness)}")


class CreditGraph:
    """Citation graph as an id-text table with int edges, read-only once built.

    ids holds every node's canonical id text, the registered products
    first and in id-text order, so node i is a registered product exactly
    when i < len(products). kinds holds one code per node: "r" registered
    product, "p" terminal person, "t" terminal product. products[i] is
    product i's row: i, then the target index and weight of each entry of
    its map, in entry order. warnings records non-fatal classification
    anomalies found during the build. Graphs compare equal when these four
    are equal.

    nodes and edges give the same graph keyed by id text. Nothing in the
    package reads them: they stay only for the benchmark's tracer
    (perfbench/tracing.py), which counts nodes and edges through them.
    """

    def __init__(
        self, ids: list[str], kinds: str, products: list[list], warnings: tuple[str, ...] = ()
    ) -> None:
        self.ids = ids
        self.kinds = kinds
        self.products = products
        self.warnings = warnings

    def _tables(self) -> tuple:
        return self.ids, self.kinds, self.products, self.warnings

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tables() == other._tables()

    def __repr__(self) -> str:
        return "CreditGraph(ids={!r}, kinds={!r}, products={!r}, warnings={!r})".format(
            *self._tables()
        )

    def product_index(self, product: str) -> int | None:
        """The index of a registered product's id text, or None if it is not one."""
        count = len(self.products)
        i = bisect_left(self.ids, product, 0, count)
        return i if i < count and self.ids[i] == product else None

    def root_indexes(self) -> list[int]:
        """Indexes of the registered products no registered product cites."""
        count = len(self.products)
        cited = bytearray(count)
        for row in self.products:
            for target in row[1::2]:
                if target < count:
                    cited[target] = 1
        return [i for i in range(count) if not cited[i]]

    @property
    def nodes(self) -> dict[str, str]:
        """Each node's kind letter, by id text, built on every access."""
        return dict(zip(self.ids, self.kinds))

    @property
    def edges(self) -> dict[str, list[tuple[str, float]]]:
        """Each registered product's (target id text, weight) pairs in entry
        order, by id text, built on every access."""
        ids = self.ids
        return {ids[row[0]]: list(zip(map(ids.__getitem__, row[1::2]), row[2::2]))
                for row in self.products}


def _depth_first(
    products: list[list], starts: Iterable[int]
) -> tuple[list[int], list[int] | None]:
    """Registered products reachable from starts, and the first cycle met.

    One iterative depth-first search from each start in turn, following
    each product's edges in entry order and skipping terminals. A product
    enters the order once all its edges are done (post-order), so it comes
    after every product it cites. The cycle, or None, is the search path
    from the product an edge leads back to, closed by that product again.
    """
    count = len(products)
    state = bytearray(count)  # 1 while on the search path, 2 once done
    order: list[int] = []
    path: list[int] = []
    pending = []  # per path product, an iterator over its targets left
    for start in starts:
        if state[start]:
            continue
        path.append(start)
        state[start] = 1
        pending.append(iter(products[start][1::2]))
        while pending:
            for target in pending[-1]:
                if target >= count or state[target] == 2:
                    continue
                if state[target] == 1:
                    return order, path[path.index(target):] + [target]
                path.append(target)
                state[target] = 1
                pending.append(iter(products[target][1::2]))
                break
            else:
                done = path.pop()
                pending.pop()
                state[done] = 2
                order.append(done)
    return order, None


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
    maps = sorted(maps, key=lambda creditmap: creditmap.product.id.text)
    ids = [creditmap.product.id.text for creditmap in maps]
    for first, second in zip(ids, ids[1:]):
        if first == second:
            raise DuplicateProductId(f"duplicate product id {first}")
    count = len(ids)
    index = {text: i for i, text in enumerate(ids)}
    kinds = ["r"] * count
    rows: list[list] = []
    warnings: list[str] = []
    for i, creditmap in enumerate(maps):
        row: list = [i]
        for entry in creditmap.entries:
            target = entry.entity.text
            t = index.get(target)
            if t is None or t >= count:
                category = entry.category
                # By identity: `in` a set of members calls Enum.__hash__ in Python.
                if category is Category.AUTHOR or category is Category.ACKNOWLEDGMENT:
                    kind = "p"
                elif target.startswith("orcid:"):
                    kind = "p"
                    warnings.append(
                        f"{ids[i]}: ORCID {target} cited in product category "
                        f"{category.value!r}; treating it as a person"
                    )
                else:
                    kind = "t"
                if t is None:
                    t = index[target] = len(ids)
                    ids.append(target)
                    kinds.append(kind)
                elif kinds[t] != kind:
                    warnings.append(
                        f"{target} is referenced both as a person and as a "
                        f"product; keeping the person classification"
                    )
                    kinds[t] = "p"
            row += (t, entry.weight)
        rows.append(row)

    _, witness = _depth_first(rows, range(count))
    if witness is not None:
        raise CycleError([ids[i] for i in witness])

    return CreditGraph(ids=ids, kinds="".join(kinds), products=rows, warnings=tuple(warnings))


def topological_order(graph: CreditGraph, start: Iterable[int] | None = None) -> list[int]:
    """Registered product indexes, every product after everything it cites.

    With start given (registered product indexes), only the products
    reachable from them, start included, are ordered; without it, every
    registered product, searched from in index order. The order is the
    depth-first post-order: each product's edges are followed in entry
    order, and no tie is broken by id text. It is deterministic for a given
    graph, and build_graph builds the same graph for any input order. The
    graph must be acyclic, as every graph from build_graph is (it refuses
    cycles).
    """
    products = graph.products
    order, _ = _depth_first(products, range(len(products)) if start is None else start)
    return order


def dangling_references(graph: CreditGraph) -> list[tuple[str, list[str]]]:
    """Terminal products and the registered products citing each of them, as
    id texts.

    People are terminal by nature and are not reported; this lists cited
    products that are absent from the registry. Both levels are sorted by
    canonical id text.
    """
    citers: dict[int, set[int]] = {}
    for i, row in enumerate(graph.products):
        for target in row[1::2]:
            if graph.kinds[target] == "t":
                citers.setdefault(target, set()).add(i)
    ids = graph.ids
    return [
        (ids[target], [ids[i] for i in sorted(citers[target])])
        for target in sorted(citers, key=ids.__getitem__)
    ]
