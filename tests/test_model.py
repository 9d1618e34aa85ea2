"""Identifier canonicalization, checksums, validation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from credit_ledger import (
    CreditEntry,
    CreditMap,
    ProductMeta,
    Violation,
    canonical_id,
    canonicalize_id,
    id_from_text,
    serialize_creditmap,
    validate_creditmap,
    validate_orcid_checksum,
)
from credit_ledger.model import (
    EmptyIdentifier,
    InvalidIdentifier,
    MalformedDoi,
    MalformedOrcid,
)
from oracles import mint_orcid, orcid_check_char, orcid_is_valid

CANONICAL_CASES = [
    ("http://orcid.org/0000-0001-5934-7525", "orcid:0000-0001-5934-7525"),
    ("https://orcid.org/0000-0002-1825-0097", "orcid:0000-0002-1825-0097"),
    ("0000-0001-5934-7525", "orcid:0000-0001-5934-7525"),
    ("orcid:0000-0002-1694-233x", "orcid:0000-0002-1694-233X"),
    ("10.5334/jors.be", "doi:10.5334/jors.be"),
    ("https://doi.org/10.5334/JORS.BE", "doi:10.5334/jors.be"),
    ("http://dx.doi.org/10.1000/XYZ", "doi:10.1000/xyz"),
    ("doi:10.5334/jors.be", "doi:10.5334/jors.be"),
    ("https://github.com/arfon/fidgit", "url:https://github.com/arfon/fidgit"),
    ("https://example.org/tool/", "url:https://example.org/tool"),
    ("HTTP://Example.org/Tool", "url:HTTP://Example.org/Tool"),
    ("D.Katz@IEEE.org", "email:d.katz@ieee.org"),
    ("email:Somebody@Example.COM", "email:somebody@example.com"),
    ("  James   Howison ", "name:james howison"),
    ("name:Mesh  Solver   Toolkit", "name:mesh solver toolkit"),
    ("DOI:10.5334/JORS.BE", "doi:10.5334/jors.be"),
    ("Orcid:0000-0002-1694-233X", "orcid:0000-0002-1694-233X"),
    ("URL:https://Example.org/Tool/", "url:https://Example.org/Tool"),
    ("url:https://example.org/x", "url:https://example.org/x"),
    ("Email:Somebody@Example.COM", "email:somebody@example.com"),
    ("NAME:Mesh  Solver", "name:mesh solver"),
]


@pytest.mark.parametrize("raw,expected", CANONICAL_CASES)
def test_canonicalize_known_forms(raw: str, expected: str) -> None:
    assert canonicalize_id(raw) == expected


@pytest.mark.parametrize("raw,expected", CANONICAL_CASES)
def test_canonicalize_is_idempotent_on_known_forms(raw: str, expected: str) -> None:
    first = canonicalize_id(raw)
    assert canonicalize_id(first) == first
    assert id_from_text(expected) == first


@given(st.text(max_size=60))
def test_canonicalize_is_idempotent_when_it_succeeds(raw: str) -> None:
    try:
        first = canonicalize_id(raw)
    except InvalidIdentifier:
        return
    assert canonicalize_id(first) == first


def test_doi_uri_beats_plain_url() -> None:
    assert canonicalize_id("https://doi.org/10.1/x").startswith("doi:")
    assert canonicalize_id("https://orcid.org/0000-0002-7217-4494").startswith("orcid:")


def test_string_with_spaces_around_at_sign_is_a_name() -> None:
    assert canonicalize_id("mesh group @ example") == "name:mesh group @ example"


@pytest.mark.parametrize(
    "orcid",
    ["0000-0001-5934-7525", "0000-0002-7217-4494", "0000-0002-5702-149X"],
)
def test_known_orcids_pass_checksum(orcid: str) -> None:
    assert validate_orcid_checksum(orcid)
    assert orcid_is_valid(orcid)
    assert canonicalize_id(orcid) == f"orcid:{orcid}"


@given(st.text(alphabet="0123456789", min_size=15, max_size=15))
def test_checksum_accepts_exactly_the_oracle_digit(base: str) -> None:
    dashed = f"{base[0:4]}-{base[4:8]}-{base[8:12]}-{base[12:15]}"
    expected = orcid_check_char(base)
    for candidate in "0123456789X":
        assert validate_orcid_checksum(dashed + candidate) == (candidate == expected)


@given(st.text(alphabet="0123456789", min_size=15, max_size=15))
def test_minted_orcids_are_accepted(base: str) -> None:
    minted = mint_orcid(base)
    assert validate_orcid_checksum(minted)
    assert canonicalize_id(minted) == f"orcid:{minted}"


@pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
def test_empty_identifier_is_rejected(raw: str) -> None:
    with pytest.raises(EmptyIdentifier):
        canonicalize_id(raw)


def test_a_blank_value_under_an_explicit_scheme_is_empty() -> None:
    with pytest.raises(EmptyIdentifier, match="^empty doi identifier$"):
        canonical_id("doi", "   ")


def test_orcid_with_wrong_check_digit_is_rejected() -> None:
    with pytest.raises(MalformedOrcid):
        canonicalize_id("0000-0002-1825-0098")
    with pytest.raises(MalformedOrcid):
        canonicalize_id("https://orcid.org/0000-0001-5934-7524")


def test_doi_prefix_requires_doi_shape() -> None:
    with pytest.raises(MalformedDoi):
        canonicalize_id("doi:banana")
    with pytest.raises(MalformedDoi):
        canonicalize_id("https://doi.org/not-a-doi")


def test_explicit_scheme_values_are_validated() -> None:
    with pytest.raises(InvalidIdentifier):
        canonical_id("url", "ftp://example.org/x")
    with pytest.raises(InvalidIdentifier):
        canonical_id("email", "not an address")
    with pytest.raises(InvalidIdentifier):
        canonical_id("orcid", "0000")
    with pytest.raises(InvalidIdentifier, match="unknown scheme 'handle'"):
        canonical_id("handle", "x")


@pytest.mark.parametrize(
    "raw",
    ["10.1/a\nb", "10.1/a b", "10.1/a\x00b", "http://x.org/a\tb", "https://x.org/a b",
     "https://x.org/\x00", "https://x.org/a\x7fb", "https://doi.org/10.1/a\u2028b"],
)
def test_doi_and_url_values_refuse_whitespace_and_control_characters(raw: str) -> None:
    scheme = "doi" if raw.startswith("10.") else "url"
    with pytest.raises(InvalidIdentifier):
        canonical_id(scheme, raw)
    with pytest.raises(InvalidIdentifier):
        canonicalize_id(raw)


CONTROL_CASES = [
    ("name", "Eve\x1b[31mRed"), ("name", "a\x00b"), ("name", "a\x7fb"),
    ("name", "a\x9bb"), ("email", "x\x00y@z.org"), ("email", "x@z\x85.org"),
]


# The ids are the ones the suite has always printed for these cases.
@pytest.mark.parametrize(
    "scheme, raw", CONTROL_CASES, ids=[f"IdScheme.{s.upper()}-{r}" for s, r in CONTROL_CASES]
)
def test_name_and_email_values_refuse_control_characters(scheme: str, raw: str) -> None:
    with pytest.raises(InvalidIdentifier):
        canonical_id(scheme, raw)
    with pytest.raises(InvalidIdentifier):
        canonicalize_id(f"{scheme}:{raw}")


def test_name_whitespace_collapses_before_the_control_check() -> None:
    assert canonical_id("name", " Eve\t\n\x1cRed ") == "name:eve red"


def test_from_text_requires_a_known_scheme() -> None:
    with pytest.raises(InvalidIdentifier) as missing:
        id_from_text("10.5334/jors.be")
    assert str(missing.value) == "missing scheme prefix: '10.5334/jors.be'"
    with pytest.raises(InvalidIdentifier) as unknown:
        id_from_text("handle:10.5334/jors.be")
    assert str(unknown.value) == "unknown scheme 'handle' in 'handle:10.5334/jors.be'"


def _entry(text: str, category: str, weight: float) -> CreditEntry:
    return CreditEntry(id_from_text(text), category, weight)


def _creditmap(*entries: CreditEntry) -> CreditMap:
    meta = ProductMeta(
        id=id_from_text("doi:10.1000/demo"),
        kind="ScholarlyArticle",
        headline="Demo",
    )
    return CreditMap(meta, entries)


def _codes(violations: list[Violation]) -> list[str]:
    return [v.code for v in violations]


def test_valid_map_has_no_violations() -> None:
    m = _creditmap(
        _entry("orcid:0000-0001-5934-7525", "author", 0.7),
        _entry("doi:10.1000/dep", "software", 0.3),
    )
    assert validate_creditmap(m) == []


def test_two_quarter_weight_authors_yield_one_weight_sum_violation() -> None:
    m = _creditmap(
        _entry("name:First Author", "author", 0.25),
        _entry("name:Second Author", "author", 0.25),
    )
    violations = validate_creditmap(m)
    assert _codes(violations) == ["WeightSum"]
    assert "0.5" in violations[0].message


def test_out_of_range_weights_are_flagged_per_entry() -> None:
    m = _creditmap(
        _entry("name:One", "author", 1.2),
        _entry("name:Two", "other", -0.2),
    )
    assert _codes(validate_creditmap(m)) == ["NonPositiveWeight", "NonPositiveWeight"]


def test_zero_weight_is_flagged() -> None:
    m = _creditmap(
        _entry("name:One", "author", 1.0),
        _entry("name:Two", "other", 0.0),
    )
    assert "NonPositiveWeight" in _codes(validate_creditmap(m))


def test_duplicate_entity_is_flagged_once_across_categories() -> None:
    m = _creditmap(
        _entry("name:Solo Author", "author", 0.4),
        _entry("doi:10.1000/dep", "software", 0.3),
        _entry("doi:10.1000/dep", "article", 0.3),
    )
    assert _codes(validate_creditmap(m)) == ["DuplicateEntity"]


def test_map_without_author_entry_is_flagged() -> None:
    m = _creditmap(_entry("doi:10.1000/dep", "software", 1.0))
    assert _codes(validate_creditmap(m)) == ["NoAuthor"]


def test_empty_entry_list_fails_sum_and_author_checks() -> None:
    codes = _codes(validate_creditmap(_creditmap()))
    assert sorted(codes) == ["NoAuthor", "WeightSum"]


def test_weight_sum_tolerance_admits_rounding_noise() -> None:
    m = _creditmap(
        _entry("name:A", "author", 0.1 + 0.2),
        _entry("name:B", "author", 0.7),
    )
    assert validate_creditmap(m) == []


def test_a_category_outside_the_profile_is_flagged_and_never_serialized() -> None:
    m = _creditmap(
        _entry("name:Solo Author", "author", 0.5),
        _entry("doi:10.1000/dep", "articles", 0.5),  # the document key, not the category
    )
    assert validate_creditmap(m) == [
        Violation("UnknownCategory", "entry 1 (doi:10.1000/dep) has unknown category 'articles'")
    ]
    with pytest.raises(ValueError, match="doi:10.1000/dep has unknown category 'articles'"):
        serialize_creditmap(m)


def test_a_kind_outside_the_profile_is_flagged() -> None:
    m = _creditmap(_entry("name:Solo Author", "author", 1.0))
    m = m._replace(product=m.product._replace(kind="Thing"))
    assert validate_creditmap(m) == [Violation("UnknownKind", "unknown product kind 'Thing'")]


def test_category_and_kind_violations_are_reported_after_the_others() -> None:
    m = _creditmap(
        _entry("name:Solo Author", "author", 0.5),
        _entry("name:Helper", "helper", 0.25),
    )
    m = m._replace(product=m.product._replace(kind="Thing"))
    assert _codes(validate_creditmap(m)) == ["WeightSum", "UnknownCategory", "UnknownKind"]
