"""The benchmark's reference propagation against the brute-force path oracle."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest
from corpus import as_plain, make_corpus
from oracles import credit_by_paths

import generate
import reference
from credit_ledger import parse_creditmap

FIXTURES = Path(__file__).resolve().parents[2] / "tests" / "fixtures"


def _agree(got: dict[str, float], want: dict[str, float]) -> None:
    assert got.keys() == want.keys()
    for entity, share in want.items():
        assert got[entity] == pytest.approx(share, abs=1e-12)


def _small_corpora():
    for seed in range(12):
        yield as_plain(make_corpus(random.Random(seed), max_products=25))
    for seed in range(4):
        rng = random.Random(f"wide:{seed}")
        shape = generate.WideShape(rng, "w", 30)
        yield generate.as_corpus([shape.product(i) for i in range(30)])
        rng = random.Random(f"deep:{seed}")
        shape = generate.DeepShape(rng, "d", 12)
        yield generate.as_corpus([shape.product(i) for i in range(12)])


@pytest.mark.parametrize("corpus", list(_small_corpora()))
def test_allocation_matches_path_oracle(corpus) -> None:
    for root in corpus:
        for depth in (None, 1, 2, 3, 5):
            shares, truncated = reference.allocation(corpus, root, depth)
            want = credit_by_paths(corpus, root, depth)
            _agree(shares, want)
            assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-9)
            assert truncated == any(target in corpus for target in want)


@pytest.mark.parametrize("corpus", list(_small_corpora())[::3])
def test_rank_totals_sum_the_allocations_in_scope(corpus) -> None:
    roots = reference.roots(corpus)
    for scope, products in (("all", list(corpus)), ("roots", roots)):
        want: dict[str, list[float]] = {}
        for pid in products:
            for entity, share in credit_by_paths(corpus, pid).items():
                want.setdefault(entity, []).append(share)
        totals = reference.rank_totals(corpus, scope)
        _agree(totals, {e: math.fsum(parts) for e, parts in want.items()})
        assert math.fsum(totals.values()) == pytest.approx(len(products), abs=1e-9)


def test_fixture_corpus_worked_example() -> None:
    maps = [
        parse_creditmap((FIXTURES / name).read_bytes())[0]
        for name in ("software_a.jsonld", "paper_b.jsonld", "paper_c.jsonld")
    ]
    corpus = {
        m.product.id.text: [(e.entity.text, e.weight) for e in m.entries] for m in maps
    }
    shares, truncated = reference.allocation(corpus, "doi:10.9999/b")
    assert shares["orcid:0000-0002-1825-0097"] == pytest.approx(0.125, abs=1e-12)
    assert not truncated
    _agree(shares, credit_by_paths(corpus, "doi:10.9999/b"))
    shares, truncated = reference.allocation(corpus, "doi:10.9999/b", 1)
    assert shares["doi:10.9999/a"] == pytest.approx(0.25, abs=1e-12)
    assert truncated


def test_graph_counts() -> None:
    corpus = {"doi:10.1/a": [("name:x", 0.5), ("doi:10.1/b", 0.5)],
              "doi:10.1/b": [("name:x", 0.4), ("name:y", 0.6)]}
    assert reference.edge_count(corpus) == 4
    assert reference.node_count(corpus) == 4
    assert reference.roots(corpus) == ["doi:10.1/a"]


def test_cycle_is_refused() -> None:
    corpus = {"doi:10.1/a": [("doi:10.1/b", 1.0)], "doi:10.1/b": [("doi:10.1/a", 1.0)]}
    with pytest.raises(ValueError):
        reference.rank_totals(corpus)
