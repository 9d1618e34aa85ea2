"""Every read path gives the same graph and the same answers.

rank and credit are computed on the graph of a fresh build_graph, of a
snapshot hit, of a snapshot miss after an ingest or a --force, and of
the read after a credit that reads first and rewrites the snapshot. All
four give ==-identical rows in the same tie order, and the same node and
edge views, and their shares agree with the path oracle.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from credit_ledger import (
    Category,
    CreditEntry,
    CreditMap,
    EntityId,
    IdScheme,
    RankScope,
    Registry,
    aggregate_rank,
    build_graph,
    dangling_references,
    serialize_creditmap,
    transitive_credit,
)
from credit_ledger import registry as registry_module
from corpus import adjacency, as_plain, dags
from oracles import credit_by_paths

DEPTHS = (None, 1, 2)
TOLERANCE = 1e-12


def _answers(graph, maps: list[CreditMap]):
    ranks = [
        aggregate_rank(graph, scope, depth)
        for scope in RankScope
        for depth in DEPTHS
    ]
    credits = [
        transitive_credit(graph, m.product.id.text, depth)
        for m in maps
        for depth in DEPTHS
    ]
    views = (list(zip(graph.ids, graph.kinds)), adjacency(graph), dangling_references(graph))
    return ranks, credits, views, graph.warnings


def _placeholder(creditmap: CreditMap) -> CreditMap:
    """Another map for the same product, which a --force ingest replaces."""
    author = CreditEntry(EntityId(IdScheme.NAME, "placeholder"), Category.AUTHOR, 1.0)
    return CreditMap(creditmap.product, (author,))


def _written(root: Path, maps: list[CreditMap], late: CreditMap, force: bool) -> Registry:
    """A registry holding the maps but late (or, with force, a placeholder
    for late) and a snapshot of them, into which late is then ingested."""
    registry = Registry(root)
    for creditmap in maps:
        if creditmap is not late:
            registry.ingest(serialize_creditmap(creditmap))
        elif force:
            registry.ingest(serialize_creditmap(_placeholder(creditmap)))
    registry.load_graph()  # a miss, which writes the snapshot
    registry.ingest(serialize_creditmap(late), force=force)
    return registry


def _read_paths(root: Path, maps: list[CreditMap], late: CreditMap, force: bool):
    """The graphs of a miss after late is ingested, of the hit that
    follows it, of the read after a credit that reads first (in a second
    registry written alike), and of a fresh build_graph of the maps the
    registry holds (their entries in stored order, as credit reads them).
    The registry's clock runs a minute ahead, so every file has settled."""
    registry = _written(root / "missed", maps, late, force)
    credited = _written(root / "credited", maps, late, force)
    parse = registry_module.parse_creditmap
    with mock.patch.object(registry_module, "parse_creditmap", wraps=parse) as parses:
        missed = registry.load_graph()
        assert parses.call_count == len(maps)
        parses.reset_mock()
        hit = registry.load_graph()
        assert parses.call_count == 0
        graph = build_graph(credited.load_all())  # what credit runs
        credited.refresh_snapshot(graph)
        parses.reset_mock()
        after_credit = credited.load_graph()
        assert parses.call_count == 0
    assert after_credit == graph
    return missed, hit, after_credit, build_graph(registry.load_all())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(maps=dags(max_products=8, max_cites=3), data=st.data())
def test_fresh_hit_and_miss_give_identical_answers(maps, data, tmp_path) -> None:
    late = data.draw(st.sampled_from(maps))
    force = data.draw(st.booleans())
    settled = SimpleNamespace(time_ns=lambda: time.time_ns() + 60 * 10**9)
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp, mock.patch.object(
        registry_module, "time", settled
    ):
        missed, hit, after_credit, fresh = _read_paths(Path(tmp), maps, late, force)
    want = _answers(fresh, maps)
    assert _answers(missed, maps) == want
    assert _answers(hit, maps) == want
    assert _answers(after_credit, maps) == want
    assert missed == hit == after_credit == fresh

    plain = as_plain(maps)
    ranks, credits, _, _ = want
    allocations = iter(credits)
    for creditmap in maps:
        for depth in DEPTHS:
            oracle = credit_by_paths(plain, creditmap.product.id.text, depth)
            _assert_close(next(allocations).shares, oracle)
    rankings = iter(ranks)
    for scope in RankScope:
        in_scope = (
            range(len(fresh.products)) if scope is RankScope.ALL_PRODUCTS else fresh.root_indexes()
        )
        for depth in DEPTHS:
            parts: dict[str, list[float]] = {}
            for i in in_scope:
                for entity, share in credit_by_paths(plain, fresh.ids[i], depth).items():
                    parts.setdefault(entity, []).append(share)
            oracle = {entity: math.fsum(shares) for entity, shares in parts.items()}
            _assert_close(dict(next(rankings)), oracle)


def _assert_close(got: dict[str, float], want: dict[str, float]) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=TOLERANCE, abs_tol=TOLERANCE), key
