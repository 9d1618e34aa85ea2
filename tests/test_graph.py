"""Graph assembly: node classification, ordering, cycles, dangling refs."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_ledger import (
    CreditEntry,
    CreditGraph,
    CreditMap,
    CycleError,
    ProductMeta,
    Registry,
    build_graph,
    dangling_references,
    id_from_text,
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
from corpus import adjacency, make_corpus


def _map(pid: str, *entries: tuple[str, str, float]) -> CreditMap:
    meta = ProductMeta(id=id_from_text(pid), kind="Code", headline=pid)
    return CreditMap(
        meta,
        tuple(CreditEntry(id_from_text(t), c, w) for t, c, w in entries),
    )


def test_fixture_corpus_node_classification(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    kinds = dict(zip(graph.ids, graph.kinds))
    assert kinds[PRODUCT_A] == kinds[PRODUCT_B] == kinds[PRODUCT_C] == "r"
    assert kinds[DEV1] == kinds[AUTHOR_B] == "p"
    assert kinds["url:https://github.com/example/sparsekit"] == "t"
    assert graph.warnings == ()


def test_fixture_corpus_roots_and_registered(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    assert graph.ids[: len(graph.products)] == [PRODUCT_A, PRODUCT_B, PRODUCT_C]
    assert [graph.ids[i] for i in graph.root_indexes()] == [PRODUCT_C]


def test_edges_preserve_entry_order_and_weights(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    row = graph.products[graph.product_index(PRODUCT_A)]
    assert graph.product_index(DEV1) is None  # a person, not a product
    assert row[2::2] == [0.5, 0.2, 0.1, 0.05, 0.05, 0.05, 0.05]
    assert graph.ids[row[1]] == DEV1


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
    a = _map("doi:10.1/a", ("name:someone", "author", 1.0))
    with pytest.raises(DuplicateProductId):
        build_graph([a, a])


def test_orcid_cited_as_software_is_classified_as_person() -> None:
    m = _map(
        "doi:10.1/a",
        ("name:someone", "author", 0.5),
        ("orcid:0000-0002-1825-0097", "software", 0.5),
    )
    graph = build_graph([m])
    assert graph.kinds[graph.ids.index("orcid:0000-0002-1825-0097")] == "p"
    assert len(graph.warnings) == 1
    assert "person" in graph.warnings[0]


def test_person_classification_wins_over_product() -> None:
    shared = "url:https://example.org/ambiguous"
    a = _map(
        "doi:10.1/a",
        ("name:author a", "author", 0.5),
        (shared, "acknowledgment", 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", "author", 0.5),
        (shared, "software", 0.5),
    )
    for ordering in ([a, b], [b, a]):
        graph = build_graph(ordering)
        assert graph.kinds[graph.ids.index(shared)] == "p"
        assert any("person" in w for w in graph.warnings)


def _order(graph: CreditGraph, start: list[str] | None = None) -> list[str]:
    """topological_order, from and to id texts rather than product indexes."""
    indexes = None if start is None else [graph.product_index(p) for p in start]
    return [graph.ids[i] for i in topological_order(graph, indexes)]


def _assert_cited_before_citing(graph: CreditGraph, order: list[int]) -> None:
    """Every registered product a product of order cites comes before it."""
    position = {i: k for k, i in enumerate(order)}
    for i in order:
        for target in graph.products[i][1::2]:
            if target < len(graph.products):
                assert position[target] < position[i]


def test_topological_order_puts_cited_before_citing(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    order = _order(graph)
    assert order == [PRODUCT_A, PRODUCT_B, PRODUCT_C]


def test_topological_order_is_the_same_for_every_input_order() -> None:
    a = _map("doi:10.1/a", ("name:author a", "author", 1.0))
    b = _map(
        "doi:10.1/b",
        ("name:author b", "author", 0.5),
        ("doi:10.1/a", "article", 0.5),
    )
    c = _map(
        "doi:10.1/c",
        ("name:author c", "author", 0.5),
        ("doi:10.1/a", "article", 0.5),
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
        order = topological_order(graph)
        assert sorted(order) == list(range(len(graph.products)))
        _assert_cited_before_citing(graph, order)


def test_topological_order_from_start_products_keeps_only_the_reachable() -> None:
    rng = random.Random(34)
    for _ in range(20):
        maps = make_corpus(rng, max_products=30)
        graph = build_graph(maps)
        count = len(graph.products)
        start = rng.sample(range(count), rng.randint(1, min(3, count)))
        reachable = set(start)
        stack = list(start)
        while stack:
            for target in graph.products[stack.pop()][1::2]:
                if target < count and target not in reachable:
                    reachable.add(target)
                    stack.append(target)
        order = topological_order(graph, start)
        assert len(order) == len(reachable) and set(order) == reachable
        _assert_cited_before_citing(graph, order)
        registered = graph.ids[:count]
        assert _order(graph, [graph.ids[i] for i in start]) == [graph.ids[i] for i in order]
        assert _order(graph, registered) == _order(graph)
        assert _order(graph, []) == []


def _assert_valid_witness(witness: list[str], maps: list[CreditMap]) -> None:
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
        seen: set[str] = set()
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
            CreditEntry(maps[j].product.id, "article", 0.01) for j in sorted(targets)
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
        order = topological_order(graph)
        assert sorted(order) == list(range(len(graph.products)))
        _assert_cited_before_citing(graph, order)


def test_two_product_cycle_is_detected_with_witness() -> None:
    x = _map(
        "doi:10.1/x",
        ("name:author x", "author", 0.5),
        ("doi:10.1/y", "article", 0.5),
    )
    y = _map(
        "doi:10.1/y",
        ("name:author y", "author", 0.5),
        ("doi:10.1/x", "article", 0.5),
    )
    with pytest.raises(CycleError) as excinfo:
        build_graph([x, y])
    _assert_valid_witness(excinfo.value.witness, [x, y])
    assert excinfo.value.witness == ["doi:10.1/x", "doi:10.1/y", "doi:10.1/x"]
    assert str(excinfo.value) == "citation cycle: doi:10.1/x -> doi:10.1/y -> doi:10.1/x"


def test_self_citation_is_detected() -> None:
    a = _map(
        "doi:10.1/a",
        ("name:someone", "author", 0.5),
        ("doi:10.1/a", "article", 0.5),
    )
    with pytest.raises(CycleError) as excinfo:
        build_graph([a])
    _assert_valid_witness(excinfo.value.witness, [a])


def test_three_product_cycle_is_detected() -> None:
    maps = [
        _map(
            f"doi:10.1/{here}",
            (f"name:author {here}", "author", 0.5),
            (f"doi:10.1/{there}", "article", 0.5),
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
        ("name:author a", "author", 0.5),
        ("url:https://example.org/dep", "software", 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", "author", 0.5),
        ("url:https://example.org/dep", "software", 0.5),
    )
    graph = build_graph([a, b])
    assert _order(graph) == ["doi:10.1/a", "doi:10.1/b"]


def test_dangling_references_lists_terminal_products_only(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    dangling = dangling_references(graph)
    targets = [target for target, _ in dangling]
    assert targets == [
        "url:https://github.com/example/gridgen",
        "url:https://github.com/example/meshio",
        "url:https://github.com/example/quadrature",
        "url:https://github.com/example/sparsekit",
    ]
    for _, citers in dangling:
        assert citers == [PRODUCT_A]


def test_dangling_references_sorts_citers() -> None:
    dep = "doi:10.1/dep"
    a = _map(
        "doi:10.1/a",
        ("name:author a", "author", 0.5),
        (dep, "article", 0.5),
    )
    b = _map(
        "doi:10.1/b",
        ("name:author b", "author", 0.5),
        (dep, "article", 0.5),
    )
    graph = build_graph([b, a])
    dangling = dangling_references(graph)
    assert dangling == [
        (dep, ["doi:10.1/a", "doi:10.1/b"])
    ]


def test_empty_corpus_builds_an_empty_graph() -> None:
    graph = build_graph([])
    assert (graph.ids, graph.kinds, graph.products) == ([], "", [])
    assert topological_order(graph) == []
    assert dangling_references(graph) == []


FIXTURE_NODES = [
    ("doi:10.9999/a", "r"),
    ("doi:10.9999/b", "r"),
    ("doi:10.9999/c", "r"),
    ("orcid:0000-0002-1825-0097", "p"),
    ("orcid:0000-0001-5109-3700", "p"),
    ("orcid:0000-0002-1694-233X", "p"),
    ("url:https://github.com/example/sparsekit", "t"),
    ("url:https://github.com/example/gridgen", "t"),
    ("url:https://github.com/example/quadrature", "t"),
    ("url:https://github.com/example/meshio", "t"),
    ("orcid:0000-0002-7007-4334", "p"),
    ("orcid:0000-0003-0204-8772", "p"),
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
        nodes = list(zip(graph.ids, graph.kinds))
        assert (nodes, list(adjacency(graph).items())) == (FIXTURE_NODES, FIXTURE_EDGES)
        assert dangling_references(graph) == dangling_references(graphs[0])
        assert (graph.nodes, graph.edges) == (dict(nodes), adjacency(graph))
