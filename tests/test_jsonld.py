"""Document parsing, canonical serialization, and profile round-trips."""

from __future__ import annotations

import json
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_ledger import (
    CATEGORIES,
    PRODUCT_TYPES,
    CreditEntry,
    CreditMap,
    EntryDisplay,
    InvalidIdentifier,
    ProductMeta,
    canonical_id,
    parse_creditmap,
    serialize_creditmap,
    validate_creditmap,
)
from credit_ledger.jsonld import (
    CreditmapSyntaxError,
    ParseError,
    MalformedDoi,
    MissingContext,
    MissingCreditWeight,
    MissingIdentifier,
    MissingProductId,
    UnknownKey,
    UnknownType,
    WeightParseError,
    _MAX_KEPT_DEPTH,
)
from conftest import fixture_bytes

GOLDEN_WEIGHTS = [0.25, 0.25, 0.3, 0.04, 0.01, 0.15]


def test_golden_document_parses_without_warnings(golden_bytes: bytes) -> None:
    creditmap, warnings = parse_creditmap(golden_bytes)
    assert warnings == []
    assert [e.weight for e in creditmap.entries] == GOLDEN_WEIGHTS
    assert abs(math.fsum(e.weight for e in creditmap.entries) - 1.0) <= 1e-12


def test_golden_document_product_metadata(golden_bytes: bytes) -> None:
    creditmap, _ = parse_creditmap(golden_bytes)
    meta = creditmap.product
    assert meta.id == "name:implementing transitive credit with json-ld"
    assert meta.kind == "ScholarlyArticle"
    assert meta.headline == "Implementing Transitive Credit with JSON-LD"
    assert meta.date_created == date(2014, 7, 10)
    assert meta.keywords == (
        "transitive credit",
        "credit for code",
        "json-ld",
        "linked data",
    )


def test_golden_document_entries(golden_bytes: bytes) -> None:
    creditmap, _ = parse_creditmap(golden_bytes)
    triples = [(e.entity, e.category, e.weight) for e in creditmap.entries]
    assert triples == [
        ("orcid:0000-0001-5934-7525", "author", 0.25),
        ("orcid:0000-0002-7217-4494", "author", 0.25),
        ("doi:10.5334/jors.be", "article", 0.3),
        ("url:https://github.com/arfon/fidgit", "software", 0.04),
        ("orcid:0000-0002-5702-149X", "acknowledgment", 0.01),
        (
            "url:http://www.arfon.org/json-ld-for-software-discovery-reuse-and-credit",
            "other",
            0.15,
        ),
    ]

    first_author = creditmap.entries[0].display
    assert first_author.type_tag == "Person"
    assert first_author.name == "Daniel S. Katz"
    assert first_author.email == "d.katz@ieee.org"

    fidgit = creditmap.entries[3].display
    assert fidgit.name == "Fidgit"
    assert fidgit.license == "http://opensource.org/licenses/MIT"
    assert fidgit.repository is None  # the repository URL is the identity

    post = creditmap.entries[5].display
    assert post.url is None  # likewise consumed as the identity
    assert post.license == "http://creativecommons.org/licenses/by/4.0/"


def test_golden_document_serializes_byte_stably(golden_bytes: bytes) -> None:
    first, _ = parse_creditmap(golden_bytes)
    once = serialize_creditmap(first)
    again, warnings = parse_creditmap(once, strict=True)
    assert warnings == []
    assert again == first
    assert serialize_creditmap(again) == once


def test_person_snippet_identity_is_the_orcid() -> None:
    data = fixture_bytes("person_snippet.jsonld")
    obj = json.loads(data)
    from credit_ledger import canonicalize_id

    assert canonicalize_id(obj["@id"]) == "orcid:0000-0001-5934-7525"

    creditmap, warnings = parse_creditmap(data)
    assert creditmap.product.id == "orcid:0000-0001-5934-7525"
    assert creditmap.product.kind == "CreativeWork"  # Person is not a product type
    assert creditmap.entries == ()
    assert sorted(w.code for w in warnings) == ["UnknownKey", "UnknownType"]


MINIMAL = {
    "@context": "http://schema.org",
    "@type": "Code",
    "doi": "10.1000/minimal",
    "author": {"name": "Solo Author", "creditWeight": "1"},
}


def _doc(**overrides: object) -> bytes:
    doc = {**MINIMAL, **overrides}
    for key, gone in list(overrides.items()):
        if gone is None:
            del doc[key]
    return json.dumps(doc).encode()


def test_single_author_object_is_accepted() -> None:
    creditmap, warnings = parse_creditmap(_doc(), strict=True)
    assert warnings == []
    assert len(creditmap.entries) == 1
    entry = creditmap.entries[0]
    assert entry.category == "author"
    assert entry.weight == 1.0
    assert entry.entity == "name:solo author"


def test_full_weight_serializes_without_decimal_point() -> None:
    creditmap, _ = parse_creditmap(_doc())
    assert b'"creditWeight": "1"' in serialize_creditmap(creditmap)


def test_missing_context_is_rejected() -> None:
    with pytest.raises(MissingContext):
        parse_creditmap(_doc(**{"@context": None}))


@pytest.mark.parametrize("context", ["https://schema.org", "http://schema.org/", ""])
def test_wrong_context_value_is_rejected(context: str) -> None:
    with pytest.raises(MissingContext):
        parse_creditmap(_doc(**{"@context": context}))


def test_missing_credit_weight_is_rejected() -> None:
    with pytest.raises(MissingCreditWeight):
        parse_creditmap(_doc(author={"name": "Solo Author"}))


@pytest.mark.parametrize("raw", ["abc", "0", "-0.2", "1.5", 0, -1, 2, 1.0000001, True])
def test_out_of_range_or_non_numeric_weights_are_rejected(raw: object) -> None:
    with pytest.raises(WeightParseError):
        parse_creditmap(_doc(author={"name": "Solo Author", "creditWeight": raw}))


@pytest.mark.parametrize("raw,expected", [("0.25", 0.25), (0.25, 0.25), (1, 1.0)])
def test_weight_accepts_strings_and_numbers(raw: object, expected: float) -> None:
    creditmap, _ = parse_creditmap(
        _doc(author={"name": "Solo Author", "creditWeight": raw})
    )
    assert creditmap.entries[0].weight == expected


def test_entry_without_identifying_key_is_rejected() -> None:
    with pytest.raises(MissingIdentifier):
        parse_creditmap(_doc(author={"creditWeight": "1"}))


def test_document_without_product_identity_is_rejected() -> None:
    with pytest.raises(MissingProductId):
        parse_creditmap(_doc(doi=None))


def test_doi_key_must_hold_a_doi() -> None:
    with pytest.raises(MalformedDoi):
        parse_creditmap(_doc(doi="not a doi"))


def test_headline_stands_in_for_a_missing_product_id() -> None:
    creditmap, _ = parse_creditmap(_doc(doi=None, headline="A Headline Only"))
    assert creditmap.product.id == "name:a headline only"


@pytest.mark.parametrize(
    "payload",
    [b"not json at all", b"[1, 2]", b'"just a string"', b"{", b"\xff\xfe"],
)
def test_malformed_documents_raise_syntax_errors(payload: bytes) -> None:
    with pytest.raises(CreditmapSyntaxError):
        parse_creditmap(payload)


def test_unknown_top_level_key_strict_vs_lenient() -> None:
    data = _doc(publisher="Example Press")
    with pytest.raises(UnknownKey):
        parse_creditmap(data, strict=True)
    creditmap, warnings = parse_creditmap(data)
    assert [w.code for w in warnings] == ["UnknownKey"]
    assert creditmap.product.extra == {"publisher": "Example Press"}


def test_unknown_entry_key_is_preserved_in_lenient_mode() -> None:
    data = _doc(author={"name": "Solo Author", "creditWeight": "1", "affiliation": "Lab"})
    with pytest.raises(UnknownKey):
        parse_creditmap(data, strict=True)
    creditmap, warnings = parse_creditmap(data)
    assert [w.code for w in warnings] == ["UnknownKey"]
    assert creditmap.entries[0].display.extra == {"affiliation": "Lab"}


TOO_DEEP = json.loads("[" * 200 + "]" * 200)


@pytest.mark.parametrize(
    "overrides",
    [
        {"x": TOO_DEEP},
        {"author": {"name": "Solo Author", "creditWeight": "1", "x": TOO_DEEP}},
        {"citation": {"x": TOO_DEEP}},
    ],
    ids=["top level", "entry", "citation"],
)
def test_strict_mode_rejects_an_unknown_key_before_measuring_its_value(overrides) -> None:
    data = _doc(**overrides)
    with pytest.raises(UnknownKey):
        parse_creditmap(data, strict=True)
    with pytest.raises(CreditmapSyntaxError, match="nests more than"):
        parse_creditmap(data)


def test_unknown_type_strict_vs_lenient() -> None:
    data = _doc(**{"@type": "Sculpture"})
    with pytest.raises(UnknownType):
        parse_creditmap(data, strict=True)
    creditmap, warnings = parse_creditmap(data)
    assert [w.code for w in warnings] == ["UnknownType"]
    assert creditmap.product.kind == "CreativeWork"


def test_invalid_date_strict_vs_lenient() -> None:
    data = _doc(dateCreated="not-a-date")
    with pytest.raises(CreditmapSyntaxError):
        parse_creditmap(data, strict=True)
    creditmap, warnings = parse_creditmap(data)
    assert [w.code for w in warnings] == ["InvalidDate"]
    assert creditmap.product.date_created is None


def test_lenient_extras_survive_a_round_trip() -> None:
    doc = {
        "@context": "http://schema.org",
        "@type": "Code",
        "doi": "10.1000/extras",
        "publisher": "Example Press",
        "author": [
            {"name": "Solo Author", "affiliation": "Lab", "creditWeight": "0.6"}
        ],
        "citation": {
            "software": [
                {"codeRepository": "https://example.org/dep", "creditWeight": "0.4"}
            ],
            "funding": "Grant 42",
        },
    }
    first, warnings = parse_creditmap(json.dumps(doc).encode())
    assert {w.code for w in warnings} == {"UnknownKey"}
    assert first.product.extra == {
        "publisher": "Example Press",
        "citation.funding": "Grant 42",
    }
    data = serialize_creditmap(first)
    again, _ = parse_creditmap(data)
    assert again == first
    assert serialize_creditmap(again) == data


# The ids are the ones the suite has always printed for these two cases.
@pytest.mark.parametrize("strict", [True, False], ids=["ParseMode.STRICT", "ParseMode.LENIENT"])
def test_a_top_level_key_named_like_a_citation_member_is_refused(strict: bool) -> None:
    # Kept as an extra, it shared the stored name of a citation member and
    # was written back as the articles group, citing doi:10.1/z.
    doc = {
        "@context": "http://schema.org",
        "@type": "Code",
        "doi": "10.1/x",
        "author": [{"name": "Solo Author", "creditWeight": "0.5"}],
        "citation": {"articles": [{"doi": "10.1/y", "creditWeight": "0.5"}]},
        "citation.articles": [{"doi": "10.1/z", "creditWeight": "0.5"}],
    }
    with pytest.raises(CreditmapSyntaxError, match="citation.articles"):
        parse_creditmap(json.dumps(doc).encode(), strict=strict)
    del doc["citation.articles"]
    creditmap, _ = parse_creditmap(json.dumps(doc).encode(), strict=strict)
    assert [e.entity for e in creditmap.entries] == ["name:solo author", "doi:10.1/y"]


ORCID_POOL = (
    "0000-0002-1825-0097",
    "0000-0001-5109-3700",
    "0000-0002-1694-233X",
    "0000-0001-5934-7525",
    "0000-0002-7217-4494",
    "0000-0002-5702-149X",
)

RECOGNIZED_TAGS = ("Person", "ScholarlyArticle", "Code", "Dataset", "BlogPosting", "CreativeWork")

nonblank = st.text(min_size=1, max_size=24).filter(lambda s: s.split())


def _is_name(text: str) -> bool:
    try:
        canonical_id("name", text)
    except InvalidIdentifier:
        return False
    return True


# Text that a name id accepts: no control character once whitespace collapses.
name_text = nonblank.filter(_is_name)
keyword = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@st.composite
def profile_entries(draw) -> list[CreditEntry]:
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(parts)
    entries: list[CreditEntry] = []
    for i in range(n):
        weight = parts[i] / total
        category = "author" if i == 0 else draw(st.sampled_from(CATEGORIES))
        scheme = draw(st.sampled_from(["orcid", "doi", "url", "email", "name"]))
        type_tag = draw(st.none() | st.sampled_from(RECOGNIZED_TAGS))
        license_ = draw(st.none() | nonblank)
        headline = draw(st.none() | nonblank)
        name = email = repository = url = None
        if scheme == "name":
            name = f"{draw(name_text)} {i}"
            entity = canonical_id("name", name)
        else:
            name = draw(st.none() | nonblank)
            if scheme == "email":
                value = f"user{i}@example.org"
                entity = canonical_id("email", value)
                email = value
            elif scheme == "orcid":
                entity = canonical_id("orcid", ORCID_POOL[i])
            elif scheme == "doi":
                entity = canonical_id("doi", f"10.2000/e{i}")
            else:
                entity = canonical_id("url", f"https://example.org/ref/{i}")
            if scheme in ("orcid", "doi"):
                # display-only links; for weaker schemes these keys would
                # take over as the identity on reparse
                repository = draw(st.none() | st.just(f"https://git.example.org/r{i}"))
                url = draw(st.none() | st.just(f"https://example.org/d{i}"))
                email = draw(st.none() | st.just(f"extra{i}@example.org"))
            elif scheme == "url":
                email = draw(st.none() | st.just(f"extra{i}@example.org"))
        display = EntryDisplay(
            type_tag=type_tag,
            name=name,
            headline=headline,
            email=email,
            license=license_,
            repository=repository,
            url=url,
        )
        entries.append(CreditEntry(entity, category, weight, display))
    entries.sort(key=lambda e: CATEGORIES.index(e.category))
    return entries


@st.composite
def profile_maps(draw) -> CreditMap:
    entries = draw(profile_entries())
    kind = draw(st.sampled_from(PRODUCT_TYPES))
    id_kind = draw(st.sampled_from(["doi", "url", "name", "orcid", "email"]))
    if id_kind == "name":
        headline = draw(name_text)
        product_id = canonical_id("name", headline)
    else:
        headline = draw(st.just("") | nonblank)
        product_id = {
            "doi": canonical_id("doi", "10.2000/self"),
            "url": canonical_id("url", "https://example.org/self"),
            "orcid": canonical_id("orcid", "0000-0003-0204-8772"),
            "email": canonical_id("email", "owner@example.org"),
        }[id_kind]
    date_created = draw(st.none() | st.dates(date(1900, 1, 1), date(2100, 12, 31)))
    keywords = tuple(draw(st.lists(keyword, max_size=4)))
    meta = ProductMeta(
        id=product_id,
        kind=kind,
        headline=headline,
        date_created=date_created,
        keywords=keywords,
    )
    return CreditMap(meta, tuple(entries))


@given(profile_maps())
def test_profile_maps_round_trip_exactly(creditmap: CreditMap) -> None:
    data = serialize_creditmap(creditmap)
    parsed, warnings = parse_creditmap(data, strict=True)
    assert warnings == []
    assert parsed == creditmap
    assert serialize_creditmap(parsed) == data


# Any text but a lone surrogate, which no UTF-8 document can hold.
free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16).filter(str.strip)
ENTRY_KEYS = ("@id", "doi", "codeRepository", "url", "email", "name", "headline")
GROUPS = ("author", "articles", "software", "acknowledgment", "other")


@st.composite
def written_ids(draw, i: int) -> str:
    """An identifier in one of the forms a document may write, any scheme."""
    text = draw(free_text)
    return draw(
        st.sampled_from(
            [
                ORCID_POOL[i % len(ORCID_POOL)],
                f"https://orcid.org/{ORCID_POOL[i % len(ORCID_POOL)]}",
                f"10.{1000 + i}/{text}",
                f"doi:10.{1000 + i}/Ab{i}",
                f"https://DOI.org/10.{1000 + i}/X{i}",
                f"https://Example.org/{i}/{text}/",
                f"url:http://x.org/{i}",
                f"User{i}@Example.org",
                f"email:{text}{i}@x",
                f"email:10.{i}/x@y",
                f"EMAIL:https://a{i}@b.org",
                f"name:{text} {i}",
                f"{text} {i}",
            ]
        )
    )


@st.composite
def written_entries(draw, i: int) -> dict:
    """An entry object naming its entity by one to three keys."""
    obj: dict = {}
    for key in sorted(draw(st.sets(st.sampled_from(ENTRY_KEYS), min_size=1, max_size=3))):
        if key == "@id":
            obj[key] = draw(written_ids(i))
        elif key == "doi":
            doi = f"10.{2000 + i}/d{i}"
            obj[key] = draw(st.sampled_from([doi, f"https://doi.org/{doi.upper()}"]))
        elif key in ("codeRepository", "url"):
            urls = [f"https://r.org/{i}", f"http://R.org/{i}/", f"https://u.org/{key}{i}"]
            obj[key] = draw(st.sampled_from(urls))
        elif key == "email":
            obj[key] = draw(st.sampled_from([f"P{i}@Mail.org", f"{draw(free_text)}{i}@m.org"]))
        else:
            obj[key] = f"{draw(free_text)} {i}"
    if draw(st.booleans()):
        obj["@type"] = draw(st.sampled_from(["Person", "Code", "Dataset"]))
    return obj


# Dotted names are never profile keys, and some read like the stored name
# of a citation member ("citation.articles").
extra_keys = st.sampled_from(["citation.articles", "citation.x", "author.name"]) | st.lists(
    st.sampled_from(["citation", "articles", "author", "doi", "x", ""]) | free_text,
    min_size=2,
    max_size=3,
).map(".".join)
json_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**18), 10**18)
    | st.floats(allow_nan=False, allow_infinity=False)
    | json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner, max_size=3),
    max_leaves=6,
)


def _nesting(value: object) -> int:
    """Levels of a JSON value as _kept counts them: a scalar is one."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    return 1


@st.composite
def extra_values(draw) -> object:
    """A JSON value; one in four is wrapped in lists to nest exactly
    _MAX_KEPT_DEPTH levels, the deepest that parsing keeps."""
    value = draw(json_values)
    for _ in range(draw(st.sampled_from([0, 0, 1, _MAX_KEPT_DEPTH])) - _nesting(value)):
        value = [value]
    return value


def _add_extras(draw, obj: dict) -> None:
    for key in draw(st.lists(extra_keys, max_size=2)):
        obj[key] = draw(extra_values())


@st.composite
def written_documents(draw) -> dict:
    """A document in the profile: any product identity, unicode free text,
    keywords that may hold commas, and entries naming ids in every scheme;
    unknown keys at the top level, in entries and in citation."""
    doc: dict = {"@context": "http://schema.org"}
    doc["@type"] = draw(st.sampled_from(RECOGNIZED_TAGS[1:]))
    identity = draw(st.sampled_from(["@id", "doi", "url", "headline"]))
    if identity == "@id":
        doc["@id"] = draw(written_ids(99))
    elif identity == "doi":
        doc["doi"] = draw(st.sampled_from(["10.9/Self", "doi:10.9/s", "https://doi.org/10.9/S"]))
    elif identity == "url":
        doc["url"] = "https://Self.org/x/"
    if identity == "headline" or draw(st.booleans()):
        doc["headline"] = draw(free_text)
    if draw(st.booleans()):
        keywords = draw(st.lists(free_text, max_size=4))
        doc["keywords"] = keywords if draw(st.booleans()) else ",".join(keywords)
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    for i, part in enumerate(parts):
        entry = {**draw(written_entries(i)), "creditWeight": repr(part / sum(parts))}
        _add_extras(draw, entry)
        group = "author" if i == 0 else draw(st.sampled_from(GROUPS))
        if group == "author":
            doc.setdefault("author", []).append(entry)
        else:
            doc.setdefault("citation", {}).setdefault(group, []).append(entry)
    _add_extras(draw, doc)
    if "citation" in doc or draw(st.booleans()):
        _add_extras(draw, doc.setdefault("citation", {}))
    return doc


@settings(max_examples=300)
@given(written_documents())
def test_every_document_ingest_accepts_round_trips(doc: dict) -> None:
    try:
        creditmap, _ = parse_creditmap(json.dumps(doc).encode())
    except (ParseError, InvalidIdentifier):
        return  # ingest refuses it too
    if validate_creditmap(creditmap):
        return
    data = serialize_creditmap(creditmap)
    again, _ = parse_creditmap(data)
    assert again == creditmap
    assert serialize_creditmap(again) == data


# Every message an entry's checks can give, pinned word for word: which
# check fires first, and what it says, is part of what validate prints.


def _entries_doc(authors: list, **top: object) -> str:
    return json.dumps({**MINIMAL, "author": authors, **top})


def _failure(text: str, strict: bool = False) -> tuple[str, str]:
    with pytest.raises((ParseError, InvalidIdentifier)) as caught:
        parse_creditmap(text, strict=strict)
    return type(caught.value).__name__, str(caught.value)


_TYPE_NAMES = {1: "int", (): "list", None: "NoneType"}


@pytest.mark.parametrize("value", list(_TYPE_NAMES), ids=list(_TYPE_NAMES.values()))
@pytest.mark.parametrize(
    "key", ["@type", "name", "headline", "email", "license", "codeRepository", "url", "@id", "doi"]
)
def test_an_entry_key_holding_a_non_string_names_its_path(key: str, value: object) -> None:
    raw = [] if value == () else value
    authors = [{"name": "Solo", "creditWeight": "0.5"},
               {"name": "Other", key: raw, "creditWeight": "0.5"}]
    assert _failure(_entries_doc(authors)) == (
        "CreditmapSyntaxError", f"author[1].{key} must be a string, got {_TYPE_NAMES[value]}"
    )


@pytest.mark.parametrize(
    "entry,reported",
    [
        ({"url": 1, "name": 2}, "name"),
        ({"doi": 1, "@type": 2}, "@type"),
        ({"@id": 1, "license": 2}, "license"),
        ({"codeRepository": 1, "email": 2, "headline": 3}, "headline"),
    ],
)
def test_of_two_bad_keys_the_first_in_the_fixed_order_is_reported(entry, reported) -> None:
    text = _entries_doc([{**entry, "creditWeight": "1"}])
    assert _failure(text) == (
        "CreditmapSyntaxError", f"author[0].{reported} must be a string, got int"
    )


def test_unknown_entry_keys_raise_or_warn_in_document_order() -> None:
    text = _entries_doc([{"zeta": 1, "name": "A", "alpha": [2], "creditWeight": "1"}])
    assert _failure(text, strict=True) == ("UnknownKey", "unrecognized key author[0].zeta")
    creditmap, warnings = parse_creditmap(text)
    assert [str(w) for w in warnings] == [
        "UnknownKey: unrecognized key author[0].zeta",
        "UnknownKey: unrecognized key author[0].alpha",
    ]
    assert list(creditmap.entries[0].display.extra.items()) == [("zeta", 1), ("alpha", [2])]


def test_an_unknown_entry_key_is_reported_before_the_entry_values_are_checked() -> None:
    text = _entries_doc([{"name": 1, "zeta": 1, "creditWeight": "1"}])
    assert _failure(text, strict=True) == ("UnknownKey", "unrecognized key author[0].zeta")
    text = _entries_doc([{"@type": "Robot", "zeta": 1, "name": "A", "creditWeight": "1"}])
    assert _failure(text, strict=True) == ("UnknownKey", "unrecognized key author[0].zeta")
    _, warnings = parse_creditmap(text)
    assert [str(w) for w in warnings] == [
        "UnknownKey: unrecognized key author[0].zeta",
        "UnknownType: author[0]: unrecognized @type 'Robot'",
    ]


def test_unknown_top_level_keys_warn_in_document_order() -> None:
    text = json.dumps({"zeta": 1, **MINIMAL, "alpha": 2})
    assert _failure(text, strict=True) == ("UnknownKey", "unrecognized key zeta")
    creditmap, warnings = parse_creditmap(text)
    assert [str(w) for w in warnings] == [
        "UnknownKey: unrecognized key zeta",
        "UnknownKey: unrecognized key alpha",
    ]
    assert list(creditmap.product.extra.items()) == [("zeta", 1), ("alpha", 2)]


def test_a_non_object_entry_names_its_position() -> None:
    articles = [
        {"doi": "10.1/a", "creditWeight": "0.1"}, {"doi": "10.1/b", "creditWeight": "0.1"}, "x"
    ]
    assert _failure(_entries_doc(MINIMAL["author"], citation={"articles": articles})) == (
        "CreditmapSyntaxError", "citation.articles[2] must be an object"
    )


@pytest.mark.parametrize(
    "written,message",
    [
        ('"abc"', "author[0]: non-numeric creditWeight 'abc'"),
        ('"0"', "author[0]: creditWeight '0' outside (0, 1]"),
        ("true", "author[0]: creditWeight must be a decimal string or number"),
        ("1e400", "author[0]: creditWeight inf outside (0, 1]"),
        ("1" + "0" * 400, "author[0]: creditWeight is too large a number"),
    ],
)
def test_each_bad_credit_weight_message(written: str, message: str) -> None:
    text = _entries_doc([{"name": "A", "creditWeight": "@"}]).replace('"@"', written)
    assert _failure(text) == ("WeightParseError", message)


def test_a_doi_key_holding_a_url_is_refused_where_it_stands() -> None:
    text = _entries_doc([{"doi": "https://example.org/x", "creditWeight": "1"}])
    assert _failure(text) == (
        "MalformedDoi", "author[0]: doi key holds 'https://example.org/x', which is not a DOI"
    )
    assert _failure(json.dumps({**MINIMAL, "doi": "https://example.org/x"})) == (
        "MalformedDoi", "doi: doi key holds 'https://example.org/x', which is not a DOI"
    )


def test_an_unknown_entry_type_is_reported_before_the_other_values_are_checked() -> None:
    text = _entries_doc([{"@type": "Robot", "name": 1, "creditWeight": "1"}])
    assert _failure(text, strict=True) == (
        "UnknownType", "author[0]: unrecognized @type 'Robot'"
    )
    assert _failure(text) == ("CreditmapSyntaxError", "author[0].name must be a string, got int")
