"""Each distinct raw id text is canonicalized once per process, and an
EntityId carries its canonical text.

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
from credit_ledger import EntityId, IdScheme, build_graph, jsonld, model
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
    assert products == cited == {EntityId(IdScheme.DOI, "10.1/x")}
    assert {eid.text for eid in products | cited} == {"doi:10.1/x"}


def test_text_is_the_canonical_form_and_cannot_be_assigned_or_deleted() -> None:
    eid = EntityId(IdScheme.NAME, "  Ada   Park ")
    assert eid.text == "name:ada park" == f"{eid.scheme.value}:{eid.value}"
    with pytest.raises(AttributeError):
        eid.text = "name:someone else"
    with pytest.raises(AttributeError):
        del eid.text
    assert eid.text == "name:ada park"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_text_survives_pickle_at_every_protocol(protocol: int) -> None:
    eid = EntityId(IdScheme.ORCID, "0000-0002-1825-0097")
    again = pickle.loads(pickle.dumps(eid, protocol=protocol))
    assert (again, again.text) == (eid, "orcid:0000-0002-1825-0097")


def test_text_survives_copy_and_deepcopy() -> None:
    eid = EntityId(IdScheme.URL, "https://example.org/x/")
    for again in (copy.copy(eid), copy.deepcopy(eid)):
        assert (again, again.text) == (eid, "url:https://example.org/x")


def test_a_graph_entity_carries_the_text_of_its_node(corpus_maps) -> None:
    graph = build_graph(corpus_maps)
    cited = {e.entity for m in corpus_maps for e in m.entries}
    by_text = {eid.text: eid for eid in cited | {m.product.id for m in corpus_maps}}
    assert sorted(graph.ids) == sorted(by_text)
    for text in graph.ids:
        entity = EntityId.from_text(text)
        assert entity == by_text[text]
        assert entity.text == text == f"{entity.scheme.value}:{entity.value}"


def test_a_registry_read_canonicalizes_each_distinct_raw_id_once(tmp_path, monkeypatch) -> None:
    corpus = make_corpus(random.Random(7), max_products=60)
    registry = Registry(tmp_path / "reg")
    with registry.batch():
        for creditmap in corpus:
            registry.ingest(serialize_creditmap(creditmap))

    calls: collections.Counter[str] = collections.Counter()
    canonicalize_id = model.canonicalize_id

    def counting(raw: str) -> EntityId:
        calls[raw] += 1
        return canonicalize_id(raw)

    _clear_caches()
    monkeypatch.setattr(model, "canonicalize_id", counting)
    assert len(registry.load_all()) == len(corpus)

    # Products are cited by later products, so their DOIs repeat.
    asked = jsonld._canonical_id.cache_info()
    assert asked.hits > 0 and asked.misses == len(calls)
    assert max(calls.values()) == 1
