"""Each distinct raw id text is canonicalized once per process, and an id
is its canonical text.

The parser keeps the ids it made from raw texts in bounded caches (see
jsonld._canonical_id), so these tests check what a cache could break: a
failure is never remembered, equal texts give equal ids, and a whole
registry read canonicalizes each distinct text at most once.
"""

from __future__ import annotations

import collections
import copy
import json
import pickle
import random

import pytest

from corpus import make_corpus
from credit_ledger import build_graph, id_from_text, jsonld, model
from credit_ledger.jsonld import parse_creditmap, serialize_creditmap
from credit_ledger.model import InvalidIdentifier, MalformedDoi, MalformedOrcid
from credit_ledger.registry import Registry

_CACHES = (jsonld._canonical_id, jsonld._url_id, jsonld._email_id, jsonld._name_id)


def _clear_caches() -> None:
    for cache in _CACHES:
        cache.cache_clear()


def _document(doi: str, entry: dict) -> bytes:
    return json.dumps({
        "@context": "http://schema.org",
        "@type": "Code",
        "doi": doi,
        "author": [{**entry, "creditWeight": "1"}],
    }).encode()


@pytest.mark.parametrize(
    "doi,entry,error",
    [
        (None, {"@id": "http://orcid.org/0000-0002-1825-0098"}, MalformedOrcid),
        (None, {"doi": "doi:11.1/x"}, MalformedDoi),
        (None, {"doi": "https://example.org/x"}, MalformedDoi),
        (None, {"email": "no-at-sign"}, InvalidIdentifier),
        (None, {"name": "Eve\u001b[31mRed"}, InvalidIdentifier),
        ("doi:11.1/x", {"name": "A"}, MalformedDoi),
    ],
)
def test_a_refused_id_is_refused_in_every_document(doi, entry: dict, error: type) -> None:
    for n in (1, 2):
        with pytest.raises(error):
            parse_creditmap(_document(doi or f"10.1000/p{n}", entry))


def test_the_forms_of_one_doi_give_one_id() -> None:
    forms = ["doi:10.1/X", "10.1/x", "https://doi.org/10.1/x"]
    ids = [parse_creditmap(_document(form, {"doi": form}))[0] for form in forms]
    products = {creditmap.product.id for creditmap in ids}
    cited = {creditmap.entries[0].entity for creditmap in ids}
    assert products == cited == {"doi:10.1/x"}


def _parsed_ids() -> tuple[str, ...]:
    """A parsed map's product id and entity: str canonical texts, whose
    `.text` is the same text as a plain str."""
    creditmap, _ = parse_creditmap(
        _document("10.1/X", {"@id": "http://orcid.org/0000-0002-1825-0097"})
    )
    ids = creditmap.product.id, creditmap.entries[0].entity
    assert ids == ("doi:10.1/x", "orcid:0000-0002-1825-0097")
    _assert_texts(ids, ids)
    return ids


def _assert_texts(got: tuple[str, ...], ids: tuple[str, ...]) -> None:
    assert got == ids
    assert [type(text) for text in got] == [type(text) for text in ids]
    assert all(isinstance(text, str) for text in got)
    assert [(text.text, type(text.text)) for text in got] == [(text, str) for text in ids]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_text_survives_pickle_at_every_protocol(protocol: int) -> None:
    ids = _parsed_ids()
    _assert_texts(pickle.loads(pickle.dumps(ids, protocol=protocol)), ids)


def test_text_survives_copy_and_deepcopy() -> None:
    ids = _parsed_ids()
    _assert_texts(copy.copy(ids), ids)
    _assert_texts(copy.deepcopy(ids), ids)


def test_a_graph_entity_carries_the_text_of_its_node(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    cited = {e.entity for m in corpus_maps for e in m.entries}
    assert sorted(graph.ids) == sorted(cited | {m.product.id for m in corpus_maps})
    for text in graph.ids:
        assert id_from_text(text) == text


def test_a_registry_read_canonicalizes_each_distinct_raw_id_once(tmp_path, monkeypatch) -> None:
    corpus = make_corpus(random.Random(7), max_products=60)
    registry = Registry(tmp_path / "reg")
    with registry.batch():
        for creditmap in corpus:
            registry.ingest(serialize_creditmap(creditmap))

    calls: collections.Counter[str] = collections.Counter()
    canonicalize_id = model.canonicalize_id

    def counting(raw: str) -> str:
        calls[raw] += 1
        return canonicalize_id(raw)

    _clear_caches()
    monkeypatch.setattr(model, "canonicalize_id", counting)
    assert len(registry.load_all()) == len(corpus)

    # Products are cited by later products, so their DOIs repeat.
    asked = jsonld._canonical_id.cache_info()
    assert asked.hits > 0 and asked.misses == len(calls)
    assert max(calls.values()) == 1
