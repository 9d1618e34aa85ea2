"""Graph assembly: node classification, ordering, cycles, dangling refs."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_ledger import (
    Category,
    CreditEntry,
    CreditGraph,
    CreditMap,
    CycleError,
    EntityId,
    GraphEdge,
    IdScheme,
    NodeKind,
    ProductKind,
    ProductMeta,
    Registry,
    build_graph,
    dangling_references,
    topological_order,
)
from credit_ledger.graph import DuplicateProductId
from conftest import (
    AUTHOR_B,
    CORPUS_FILES,
    DEV1,
    PRODUCT_A,
    PRODUCT_B,
    PRODUCT_C,
    fixture_bytes,
)
from corpus import make_corpus


def _pid(text: str) -> EntityId:
    return EntityId.from_text(text)


def _map(pid: str, *entries: tuple[str, Category, float]) -> CreditMap:
    meta = ProductMeta(id=_pid(pid), kind=ProductKind.CODE, headline=pid)
    return CreditMap(
        meta,
        tuple(CreditEntry(_pid(t), c, w) for t, c, w in entries),
    )


def test_fixture_corpus_node_classification(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    kinds = {pid.text: kind for pid, kind in graph.nodes.items()}
    assert kinds[PRODUCT_A] is NodeKind.REGISTERED_PRODUCT
    assert kinds[PRODUCT_B] is NodeKind.REGISTERED_PRODUCT
    assert kinds[PRODUCT_C] is NodeKind.REGISTERED_PRODUCT
    assert kinds[DEV1] is NodeKind.TERMINAL_PERSON
    assert kinds[AUTHOR_B] is NodeKind.TERMINAL_PERSON
    assert kinds["url:https://github.com/example/sparsekit"] is NodeKind.TERMINAL_PRODUCT
    assert graph.warnings == ()


def test_fixture_corpus_roots_and_registered(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    assert graph.ids[: len(graph.products)] == [PRODUCT_A, PRODUCT_B, PRODUCT_C]
    assert [graph.ids[i] for i in graph.root_indexes()] == [PRODUCT_C]


def test_edges_preserve_entry_order_and_weights(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    out = graph.edges[_pid(PRODUCT_A)]
    assert [e.weight for e in out] == [0.5, 0.2, 0.1, 0.05, 0.05, 0.05, 0.05]
    assert out[0].target.text == DEV1


def test_build_is_independent_of_input_order(corpus_maps) -> None:
    rng = random.Random(7)
    baseline = build_graph(corpus_maps)
    for _ in range(5):
        shuffled = list(corpus_maps)
        rng.shuffle(shuffled)
        assert build_graph(shuffled) == baseline


def test_random_corpora_build_deterministically() -> None:
    rng = random.Random(21)
    for _ in range(20):
        maps = make_corpus(rng, max_products=20)
        baseline = build_graph(maps)
        shuffled = list(maps)
        rng.shuffle(shuffled)
        assert build_graph(shuffled) == baseline


def test_duplicate_product_id_is_rejected() -> None:
    a = _map("doi:10.1/a", ("name:someone", Category.AUTHOR, 1.0))
    with pytest.raises(DuplicateProductId):
        build_graph([a, a])


def test_orcid_cited_as_software_is_classified_as_person() -> None:
    m = _map(
        "doi:10.1/a",
        ("name:someone", Category.AUTHOR, 0.5),
        ("orcid:0000-0002-1825-0097", Category.SOFTWARE, 0.5),
    )
    graph = build_graph([m])
    assert graph.nodes[_pid("orcid:0000-0002-1825-0097")] is NodeKind.TERMINAL_PERSON
    assert len(graph.warnings) == 1
    assert "person" in graph.warnings[0]


def test_person_classification_wins_over_product() -> None:
    shared = "url:https://example.org/ambiguous"
    a = _map(
        "doi:10.1/a",
        ("name:author a", Category.AUTHOR, 0.5),
        (shared, Category.ACKNOWLEDGMENT, 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", Category.AUTHOR, 0.5),
        (shared, Category.SOFTWARE, 0.5),
    )
    for ordering in ([a, b], [b, a]):
        graph = build_graph(ordering)
        assert graph.nodes[_pid(shared)] is NodeKind.TERMINAL_PERSON
        assert any("person" in w for w in graph.warnings)


def _order(graph: CreditGraph, start: list[EntityId] | None = None) -> list[EntityId]:
    """topological_order, from and to ids rather than product indexes."""
    indexes = None if start is None else [graph.product_index(p) for p in start]
    return [graph.entity(i) for i in topological_order(graph, indexes)]


def test_topological_order_puts_cited_before_citing(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    order = _order(graph)
    assert [p.text for p in order] == [PRODUCT_A, PRODUCT_B, PRODUCT_C]


def test_topological_order_is_the_same_for_every_input_order() -> None:
    a = _map("doi:10.1/a", ("name:author a", Category.AUTHOR, 1.0))
    b = _map(
        "doi:10.1/b",
        ("name:author b", Category.AUTHOR, 0.5),
        ("doi:10.1/a", Category.ARTICLE, 0.5),
    )
    c = _map(
        "doi:10.1/c",
        ("name:author c", Category.AUTHOR, 0.5),
        ("doi:10.1/a", Category.ARTICLE, 0.5),
    )
    orders = {
        tuple(topological_order(build_graph(maps)))
        for maps in itertools.permutations([a, b, c])
    }
    assert len(orders) == 1


def test_topological_order_on_random_corpora() -> None:
    rng = random.Random(33)
    for _ in range(20):
        maps = make_corpus(rng, max_products=30)
        graph = build_graph(maps)
        order = _order(graph)
        assert sorted(e.text for e in order) == graph.ids[: len(graph.products)]
        position = {pid: i for i, pid in enumerate(order)}
        for source, out in graph.edges.items():
            for edge in out:
                if edge.target in graph.edges:
                    assert position[edge.target] < position[source]



def test_topological_order_from_start_products_keeps_only_the_reachable() -> None:
    rng = random.Random(34)
    for _ in range(20):
        maps = make_corpus(rng, max_products=30)
        graph = build_graph(maps)
        registered = [graph.entity(i) for i in range(len(graph.products))]
        start = rng.sample(registered, rng.randint(1, min(3, len(registered))))
        reachable = set(start)
        stack = list(start)
        while stack:
            for edge in graph.edges[stack.pop()]:
                if edge.target in graph.edges and edge.target not in reachable:
                    reachable.add(edge.target)
                    stack.append(edge.target)
        order = _order(graph, start)
        assert len(order) == len(reachable) and set(order) == reachable
        position = {pid: i for i, pid in enumerate(order)}
        for source in order:
            for edge in graph.edges[source]:
                if edge.target in graph.edges:
                    assert position[edge.target] < position[source]
        assert _order(graph, registered) == _order(graph)
        assert _order(graph, []) == []


def _assert_valid_witness(witness: list[EntityId], maps: list[CreditMap]) -> None:
    cited = {
        (m.product.id, e.entity) for m in maps for e in m.entries
    }
    assert len(witness) >= 2
    assert witness[0] == witness[-1]
    for source, target in zip(witness, witness[1:]):
        assert (source, target) in cited


def _has_cycle(maps: list[CreditMap]) -> bool:
    """Brute force: does some product reach itself through registered products?"""
    cites = {
        m.product.id: [e.entity for e in m.entries] for m in maps
    }
    for start in cites:
        seen: set[EntityId] = set()
        stack = [t for t in cites[start] if t in cites]
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(t for t in cites[node] if t in cites)
    return False


def _with_back_edges(rng: random.Random, maps: list[CreditMap], count: int) -> list[CreditMap]:
    """The corpus with count citations from a product to itself or a later one."""
    added: dict[int, set[int]] = {}
    for _ in range(count):
        i = rng.randrange(len(maps))
        added.setdefault(i, set()).add(rng.randrange(i, len(maps)))
    result = list(maps)
    for i, targets in added.items():
        extra = tuple(
            CreditEntry(maps[j].product.id, Category.ARTICLE, 0.01) for j in sorted(targets)
        )
        result[i] = CreditMap(maps[i].product, maps[i].entries + extra)
    return result


@settings(deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2))
def test_build_refuses_exactly_the_cyclic_corpora(seed: int, back_edges: int) -> None:
    rng = random.Random(seed)
    maps = _with_back_edges(rng, make_corpus(rng, max_products=15), back_edges)
    shuffled = list(maps)
    rng.shuffle(shuffled)
    if _has_cycle(maps):
        with pytest.raises(CycleError) as first:
            build_graph(maps)
        _assert_valid_witness(first.value.witness, maps)
        with pytest.raises(CycleError) as again:
            build_graph(shuffled)
        assert again.value.witness == first.value.witness
    else:
        graph = build_graph(shuffled)
        order = _order(graph)
        assert sorted(e.text for e in order) == graph.ids[: len(graph.products)]
        position = {pid: i for i, pid in enumerate(order)}
        for source, out in graph.edges.items():
            for edge in out:
                if edge.target in graph.edges:
                    assert position[edge.target] < position[source]


def test_two_product_cycle_is_detected_with_witness() -> None:
    x = _map(
        "doi:10.1/x",
        ("name:author x", Category.AUTHOR, 0.5),
        ("doi:10.1/y", Category.ARTICLE, 0.5),
    )
    y = _map(
        "doi:10.1/y",
        ("name:author y", Category.AUTHOR, 0.5),
        ("doi:10.1/x", Category.ARTICLE, 0.5),
    )
    with pytest.raises(CycleError) as excinfo:
        build_graph([x, y])
    _assert_valid_witness(excinfo.value.witness, [x, y])
    message = str(excinfo.value)
    assert "citation cycle" in message
    assert " -> " in message


def test_self_citation_is_detected() -> None:
    a = _map(
        "doi:10.1/a",
        ("name:someone", Category.AUTHOR, 0.5),
        ("doi:10.1/a", Category.ARTICLE, 0.5),
    )
    with pytest.raises(CycleError) as excinfo:
        build_graph([a])
    _assert_valid_witness(excinfo.value.witness, [a])


def test_three_product_cycle_is_detected() -> None:
    maps = [
        _map(
            f"doi:10.1/{here}",
            (f"name:author {here}", Category.AUTHOR, 0.5),
            (f"doi:10.1/{there}", Category.ARTICLE, 0.5),
        )
        for here, there in [("a", "b"), ("b", "c"), ("c", "a")]
    ]
    with pytest.raises(CycleError) as excinfo:
        build_graph(maps)
    _assert_valid_witness(excinfo.value.witness, maps)
    assert len(excinfo.value.witness) == 4


def test_cycle_through_terminal_nodes_is_fine() -> None:
    # two products naming the same external dependency is a diamond, not a cycle
    a = _map(
        "doi:10.1/a",
        ("name:author a", Category.AUTHOR, 0.5),
        ("url:https://example.org/dep", Category.SOFTWARE, 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", Category.AUTHOR, 0.5),
        ("url:https://example.org/dep", Category.SOFTWARE, 0.5),
    )
    graph = build_graph([a, b])
    assert [p.text for p in _order(graph)] == ["doi:10.1/a", "doi:10.1/b"]


def test_dangling_references_lists_terminal_products_only(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    dangling = dangling_references(graph)
    targets = [target.text for target, _ in dangling]
    assert targets == [
        "url:https://github.com/example/gridgen",
        "url:https://github.com/example/meshio",
        "url:https://github.com/example/quadrature",
        "url:https://github.com/example/sparsekit",
    ]
    for _, citers in dangling:
        assert [c.text for c in citers] == [PRODUCT_A]


def test_dangling_references_sorts_citers() -> None:
    dep = "doi:10.1/dep"
    a = _map(
        "doi:10.1/a",
        ("name:author a", Category.AUTHOR, 0.5),
        (dep, Category.ARTICLE, 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", Category.AUTHOR, 0.5),
        (dep, Category.ARTICLE, 0.5),
    )
    graph = build_graph([b, a])
    dangling = dangling_references(graph)
    assert [(t.text, [c.text for c in citers]) for t, citers in dangling] == [
        (dep, ["doi:10.1/a", "doi:10.1/b"])
    ]


def test_empty_corpus_builds_an_empty_graph() -> None:
    graph = build_graph([])
    assert graph.nodes == {}
    assert topological_order(graph) == []
    assert dangling_references(graph) == []


FIXTURE_NODES = [
    ("doi:10.9999/a", NodeKind.REGISTERED_PRODUCT),
    ("doi:10.9999/b", NodeKind.REGISTERED_PRODUCT),
    ("doi:10.9999/c", NodeKind.REGISTERED_PRODUCT),
    ("orcid:0000-0002-1825-0097", NodeKind.TERMINAL_PERSON),
    ("orcid:0000-0001-5109-3700", NodeKind.TERMINAL_PERSON),
    ("orcid:0000-0002-1694-233X", NodeKind.TERMINAL_PERSON),
    ("url:https://github.com/example/sparsekit", NodeKind.TERMINAL_PRODUCT),
    ("url:https://github.com/example/gridgen", NodeKind.TERMINAL_PRODUCT),
    ("url:https://github.com/example/quadrature", NodeKind.TERMINAL_PRODUCT),
    ("url:https://github.com/example/meshio", NodeKind.TERMINAL_PRODUCT),
    ("orcid:0000-0002-7007-4334", NodeKind.TERMINAL_PERSON),
    ("orcid:0000-0003-0204-8772", NodeKind.TERMINAL_PERSON),
]
FIXTURE_EDGES = [
    (
        "doi:10.9999/a",
        [
            ("orcid:0000-0002-1825-0097", 0.5),
            ("orcid:0000-0001-5109-3700", 0.2),
            ("orcid:0000-0002-1694-233X", 0.1),
            ("url:https://github.com/example/sparsekit", 0.05),
            ("url:https://github.com/example/gridgen", 0.05),
            ("url:https://github.com/example/quadrature", 0.05),
            ("url:https://github.com/example/meshio", 0.05),
        ],
    ),
    ("doi:10.9999/b", [("orcid:0000-0002-7007-4334", 0.75), ("doi:10.9999/a", 0.25)]),
    ("doi:10.9999/c", [("orcid:0000-0003-0204-8772", 0.9), ("doi:10.9999/b", 0.1)]),
]


def test_views_and_dangling_references_of_the_fixtures_on_every_read_path(
    corpus_maps, tmp_path
) -> None:
    registry = Registry(tmp_path / "reg")
    for name in CORPUS_FILES:
        registry.ingest(fixture_bytes(name))
    graphs = [build_graph(corpus_maps), registry.load_graph(), registry.load_graph()]
    for graph in graphs:  # a fresh build, a snapshot miss and a hit
        nodes = [(pid.text, kind) for pid, kind in graph.nodes.items()]
        edges = [
            (pid.text, [(edge.target.text, edge.weight) for edge in out])
            for pid, out in graph.edges.items()
        ]
        assert (nodes, edges) == (FIXTURE_NODES, FIXTURE_EDGES)
        assert dangling_references(graph) == dangling_references(graphs[0])
        assert all(isinstance(edge, GraphEdge) for out in graph.edges.values() for edge in out)
