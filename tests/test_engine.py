"""Propagation: worked values, depth limits, conservation, oracle checks."""

from __future__ import annotations

import math
import random

import pytest

from credit_ledger import (
    Allocation,
    RankScope,
    aggregate_rank,
    build_graph,
    transitive_credit,
)
from credit_ledger.engine import UnknownProduct
from conftest import (
    AUTHOR_B,
    AUTHOR_C,
    DEV1,
    DEV2,
    DEV3,
    PRODUCT_A,
    PRODUCT_B,
    PRODUCT_C,
)
from corpus import as_plain, make_chain, make_corpus
from oracles import credit_by_paths

LIBS = tuple(
    f"url:https://github.com/example/{name}"
    for name in ("sparsekit", "gridgen", "quadrature", "meshio")
)


def _assert_shares(allocation: Allocation, expected: dict[str, float]) -> None:
    got = allocation.shares
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


def test_one_hop_allocation(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    allocation = transitive_credit(graph, PRODUCT_B)
    _assert_shares(
        allocation,
        {
            AUTHOR_B: 0.75,
            DEV1: 0.125,
            DEV2: 0.05,
            DEV3: 0.025,
            **{lib: 0.0125 for lib in LIBS},
        },
    )
    assert allocation.truncated_at is None


def test_two_hop_allocation(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    allocation = transitive_credit(graph, PRODUCT_C)
    _assert_shares(
        allocation,
        {
            AUTHOR_C: 0.9,
            AUTHOR_B: 0.075,
            DEV1: 0.0125,
            DEV2: 0.005,
            DEV3: 0.0025,
            **{lib: 0.00125 for lib in LIBS},
        },
    )


def test_entity_credit_worked_values(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    def share(product: str, entity: str) -> float:
        return transitive_credit(graph, product).shares.get(entity, 0.0)

    assert share(PRODUCT_B, DEV1) == pytest.approx(0.125, abs=1e-12)
    assert share(PRODUCT_C, DEV1) == pytest.approx(0.0125, abs=1e-12)
    assert share(PRODUCT_A, AUTHOR_C) == 0.0


def test_depth_one_equals_direct_credit(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    for creditmap in corpus_maps:
        limited = transitive_credit(graph, creditmap.product.id.text, 1)
        assert limited.shares == {e.entity.text: e.weight for e in creditmap.entries}


def test_truncation_marker_is_set_only_when_a_product_was_cut(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    # A cites no registered product, so depth 1 cuts nothing
    assert transitive_credit(graph, PRODUCT_A, max_depth=1).truncated_at is None
    assert transitive_credit(graph, PRODUCT_B, max_depth=1).truncated_at == 1
    assert transitive_credit(graph, PRODUCT_C, max_depth=1).truncated_at == 1


def test_depth_two_absorbs_shares_at_the_cutoff(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    allocation = transitive_credit(graph, PRODUCT_C, max_depth=2)
    _assert_shares(
        allocation,
        {AUTHOR_C: 0.9, AUTHOR_B: 0.075, PRODUCT_A: 0.025},
    )
    assert allocation.truncated_at == 2


def test_deep_enough_limit_matches_unlimited(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    unlimited = transitive_credit(graph, PRODUCT_C)
    deep = transitive_credit(graph, PRODUCT_C, max_depth=3)
    assert deep.shares == unlimited.shares
    assert deep.truncated_at is None


def test_unknown_products_are_rejected(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    with pytest.raises(UnknownProduct):
        transitive_credit(graph, "doi:10.9999/zzz")
    with pytest.raises(UnknownProduct):
        transitive_credit(graph, DEV1)  # a person, not a product


@pytest.mark.parametrize("bad_depth", [0, -1])
def test_depth_limit_must_be_positive(corpus_maps, bad_depth: int) -> None:
    graph = build_graph(corpus_maps)
    message = f"max_depth must be >= 1, got {bad_depth}"
    with pytest.raises(ValueError, match=message):
        transitive_credit(graph, PRODUCT_C, bad_depth)
    with pytest.raises(ValueError, match=message):
        aggregate_rank(graph, RankScope.ROOTS_ONLY, bad_depth)
    with pytest.raises(ValueError, match=message):
        aggregate_rank(build_graph([]), max_depth=bad_depth)


def test_rank_over_all_fixture_products(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    ranking = aggregate_rank(graph)
    expected = [
        (AUTHOR_C, 0.9),
        (AUTHOR_B, 0.825),
        (DEV1, 0.6375),
        (DEV2, 0.255),
        (DEV3, 0.1275),
        ("url:https://github.com/example/gridgen", 0.06375),
        ("url:https://github.com/example/meshio", 0.06375),
        ("url:https://github.com/example/quadrature", 0.06375),
        ("url:https://github.com/example/sparsekit", 0.06375),
    ]
    assert [name for name, _ in ranking] == [name for name, _ in expected]
    for (_, got), (name, want) in zip(ranking, expected):
        assert got == pytest.approx(want, abs=1e-12), name


def test_rank_without_the_second_paper_favors_dev1(corpus_maps) -> None:
    # with only A and B registered, dev1's total is 0.5 + 0.125 = 0.625, but
    # B's author leads with 0.75; over the roots (B alone) dev1 holds 0.125
    graph = build_graph(corpus_maps[:2])
    ranking = aggregate_rank(graph)
    assert ranking[0][0] == AUTHOR_B
    totals = dict(ranking)
    assert totals[DEV1] == pytest.approx(0.625, abs=1e-12)
    roots_only = aggregate_rank(graph, RankScope.ROOTS_ONLY)
    roots_totals = dict(roots_only)
    assert roots_totals[DEV1] == pytest.approx(0.125, abs=1e-12)


def test_rank_roots_only_sums_root_allocations(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    ranking = dict(aggregate_rank(graph, RankScope.ROOTS_ONLY))
    allocation = transitive_credit(graph, PRODUCT_C).shares
    assert ranking.keys() == allocation.keys()
    for key, value in allocation.items():
        assert ranking[key] == pytest.approx(value, abs=1e-12)


def test_rank_breaks_ties_by_id_text(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    ranking = [text for text, _ in aggregate_rank(graph)]
    tied = [name for name in ranking if name.startswith("url:")]
    assert tied == sorted(tied)


def test_rank_of_empty_graph_is_empty() -> None:
    assert aggregate_rank(build_graph([])) == []


def test_conservation_on_random_corpora() -> None:
    rng = random.Random(101)
    depth_options = [None, 1, 2, 3]
    for _ in range(30):
        maps = make_corpus(rng)
        graph = build_graph(maps)
        for creditmap in maps:
            for depth in depth_options:
                allocation = transitive_credit(graph, creditmap.product.id.text, depth)
                total = math.fsum(allocation.shares.values())
                assert abs(total - 1.0) <= 1e-9


def test_mass_push_propagation_matches_path_enumeration() -> None:
    rng = random.Random(202)
    for _ in range(30):
        maps = make_corpus(rng, max_products=10)
        graph = build_graph(maps)
        plain = as_plain(maps)
        for creditmap in maps:
            pid = creditmap.product.id.text
            for depth in (None, 1, 2, 3):
                got = transitive_credit(graph, pid, depth).shares
                want = credit_by_paths(plain, pid, max_depth=depth)
                assert got.keys() == want.keys()
                for key in want:
                    assert got[key] == pytest.approx(want[key], abs=1e-12), key


def test_chain_credit_is_the_product_of_edge_weights() -> None:
    rng = random.Random(303)
    for length in range(1, 9):
        maps, lead, hops, lead_weight = make_chain(rng, length)
        graph = build_graph(maps)
        end = maps[-1].product.id.text
        got = transitive_credit(graph, end).shares.get(lead.text, 0.0)
        want = lead_weight
        for hop in hops:
            want *= hop
        assert got == pytest.approx(want, abs=1e-12)


def test_deep_chain_depth_limits_need_no_recursion() -> None:
    maps, _, _, _ = make_chain(random.Random(404), 1500)
    graph = build_graph(maps)
    end = maps[-1].product.id.text

    cut = transitive_credit(graph, end, max_depth=1200)
    assert abs(math.fsum(cut.shares.values()) - 1.0) <= 1e-9
    assert cut.truncated_at == 1200

    unlimited = transitive_credit(graph, end)
    huge = transitive_credit(graph, end, max_depth=10**9)
    assert huge == unlimited

    ranking = aggregate_rank(graph, RankScope.ROOTS_ONLY, max_depth=1200)
    assert dict(ranking) == cut.shares
