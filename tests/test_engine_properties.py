"""Propagation properties over random DAGs, checked against exact arithmetic.

The path oracle in oracles.py enumerates every path, so it only runs on
small corpora. The exact-Fraction oracle walks all paths together one step
at a time and stays usable on long chains, for every depth limit at once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from credit_ledger import (
    CreditGraph,
    CreditMap,
    RankScope,
    aggregate_rank,
    build_graph,
    transitive_credit,
)
from corpus import as_plain, dags
from oracles import exact_credit_by_depth

TOLERANCE = 1e-12


def _at_depth(
    exact: list[tuple[dict[str, Fraction], bool]], depth: int | None
) -> tuple[dict[str, Fraction], bool]:
    return exact[-1] if depth is None else exact[min(depth, len(exact)) - 1]


def _assert_agrees(got: dict[str, float], want: dict[str, Fraction]) -> None:
    assert got.keys() == want.keys()
    for key, exact in want.items():
        assert math.isclose(got[key], exact, rel_tol=TOLERANCE, abs_tol=TOLERANCE), key


def _check_credit(graph, plain, product: str, depths) -> None:
    exact = exact_credit_by_depth(plain, [product])
    for depth in depths:
        allocation = transitive_credit(graph, product, depth)
        shares, truncated = _at_depth(exact, depth)
        _assert_agrees(allocation.shares, shares)
        assert abs(math.fsum(allocation.shares.values()) - 1.0) <= 1e-9
        assert allocation.truncated_at == (depth if truncated else None)


def _check_rank(graph, plain, scope: RankScope, depths) -> None:
    in_scope = (
        range(len(graph.products)) if scope is RankScope.ALL_PRODUCTS else graph.root_indexes()
    )
    exact = exact_credit_by_depth(plain, [graph.ids[i] for i in in_scope])
    for depth in depths:
        ranking = aggregate_rank(graph, scope, depth)
        _assert_agrees(dict(ranking), _at_depth(exact, depth)[0])


@settings(max_examples=60, deadline=None)
@given(maps=dags(max_products=12))
def test_random_dags_agree_with_exact_arithmetic_at_every_depth(maps) -> None:
    graph = build_graph(maps)
    plain = as_plain(maps)
    longest = len(exact_credit_by_depth(plain, list(plain)))
    depths = [None, *range(1, longest + 1)]
    for creditmap in maps:
        _check_credit(graph, plain, creditmap.product.id.text, depths)
    for scope in RankScope:
        _check_rank(graph, plain, scope, depths)


@settings(max_examples=6, deadline=None)
@given(maps=dags(max_products=201, chain=True), data=st.data())
def test_long_chains_agree_with_exact_arithmetic(maps, data) -> None:
    graph = build_graph(maps)
    plain = as_plain(maps)
    top = maps[-1].product.id.text
    longest = len(exact_credit_by_depth(plain, [top]))
    every_depth = [None, *range(1, longest + 1)]
    _check_credit(graph, plain, top, every_depth)
    _check_rank(graph, plain, RankScope.ROOTS_ONLY, every_depth)
    # over all products, one depth costs O(chain length * depth): check the
    # unlimited case, the last two limits and a few drawn ones
    drawn = data.draw(st.lists(st.integers(1, longest), max_size=3))
    _check_rank(graph, plain, RankScope.ALL_PRODUCTS, [None, longest - 1 or 1, longest, *drawn])


@settings(max_examples=40, deadline=None)
@given(maps=dags(max_products=15), data=st.data())
def test_results_are_bit_identical_for_any_ingestion_order(maps, data) -> None:
    def results(corpus: list[CreditMap]):
        graph = build_graph(corpus)
        allocations = [
            transitive_credit(graph, m.product.id.text, depth)
            for m in maps
            for depth in (None, 1, 2, 3)
        ]
        rankings = [
            aggregate_rank(graph, scope, depth)
            for scope in RankScope
            for depth in (None, 2)
        ]
        return allocations, rankings

    baseline = results(maps)
    for _ in range(3):
        assert results(data.draw(st.permutations(maps))) == baseline


@settings(max_examples=40, deadline=None)
@given(maps=dags(max_products=20, max_cites=6))
def test_results_are_bit_identical_for_any_visiting_order(maps) -> None:
    # Reversing every product's edges and numbering the terminals in
    # reverse changes the order in which propagation visits products and
    # sums their parts, not the graph. Many citations per product give
    # inflows of many parts, whose plain float sum would depend on that order.
    graph = build_graph(maps)
    count = len(graph.products)
    old = [*range(count), *reversed(range(count, len(graph.ids)))]
    new = {j: i for i, j in enumerate(old)}
    reversed_graph = CreditGraph(
        ids=[graph.ids[j] for j in old],
        kinds="".join(graph.kinds[j] for j in old),
        products=[
            [i, *(x for t, w in zip(row[-2:0:-2], row[:0:-2]) for x in (new[t], w))]
            for i, row in enumerate(graph.products)
        ],
        warnings=graph.warnings,
    )
    for depth in (None, 1, 3):
        for creditmap in maps:
            pid = creditmap.product.id.text
            assert transitive_credit(reversed_graph, pid, depth) == transitive_credit(
                graph, pid, depth
            )
        for scope in RankScope:
            assert aggregate_rank(reversed_graph, scope, depth) == aggregate_rank(
                graph, scope, depth
            )


@settings(max_examples=40, deadline=None)
@given(maps=dags(max_products=12))
def test_shares_iterate_in_rank_order_at_every_depth(maps) -> None:
    # Integer weights of 1-20 give equal shares often, so ties are exercised.
    graph = build_graph(maps)
    for creditmap in maps:
        for depth in (None, *range(1, len(maps) + 2)):
            rows = list(transitive_credit(graph, creditmap.product.id.text, depth).shares.items())
            assert rows == sorted(rows, key=lambda row: (-row[1], row[0]))
