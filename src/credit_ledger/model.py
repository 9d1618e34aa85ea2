"""Core domain types: canonical entity identifiers, credit entries, credit maps.

A credit map assigns fractional weights to everything that contributed to a
scholarly product. Weights within one map sum to 1, and every contribution
is identified by its canonical id text `<scheme>:<value>`, a str
(canonical_id, canonicalize_id and id_from_text make one). Schemes,
categories and product kinds are the document's own words, listed in
ID_SCHEMES, CATEGORIES and PRODUCT_TYPES, and an entry's descriptive keys
are its document's keys and values. Downstream modules (graph, engine)
treat these values as immutable.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from datetime import date


class CreditLedgerError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidIdentifier(CreditLedgerError):
    """An identifier string cannot be turned into a canonical id text."""


class EmptyIdentifier(InvalidIdentifier):
    """The identifier is empty or whitespace."""


class MalformedOrcid(InvalidIdentifier):
    """The value looks like an ORCID but fails pattern or checksum checks."""


class MalformedDoi(InvalidIdentifier):
    """The value was declared a DOI but is not one."""


#: Identifier schemes, strongest first: the `<scheme>` of an id text.
ID_SCHEMES = ("orcid", "doi", "url", "email", "name")

#: Entry categories: "author", then the citation groups, in document order.
CATEGORIES = ("author", "article", "software", "acknowledgment", "other")

#: The product @types of the profile; any other @type reads as "CreativeWork".
PRODUCT_TYPES = ("ScholarlyArticle", "Code", "Dataset", "BlogPosting", "CreativeWork")


#: Tolerance for "weights sum to one" checks.
WEIGHT_SUM_TOLERANCE = 1e-9

_ORCID_RE = re.compile(r"\d{4}-\d{4}-\d{4}-\d{3}[\dX]")
_ORCID_URI_RE = re.compile(r"https?://(?:www\.)?orcid\.org/(.+)", re.IGNORECASE)
_DOI_URI_RE = re.compile(r"https?://(?:dx\.)?doi\.org/(.+)", re.IGNORECASE)
_SPACE_OR_CONTROL = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def validate_orcid_checksum(digits: str) -> bool:
    """True when the last character is the ISO 7064 mod 11-2 check digit.

    Args:
        digits: 16-character ORCID, hyphenated or bare. The final character
            may be 'X' (value ten).
    """
    bare = digits.replace("-", "")
    if len(bare) != 16 or not bare[:15].isdigit():
        return False
    total = 0
    for ch in bare[:15]:
        total = (total + int(ch)) * 2
    result = (12 - total % 11) % 11
    expected = "X" if result == 10 else str(result)
    return bare[15].upper() == expected


class IdText(str):
    """A canonical id text, a str in every way. `.text` returns it as a plain
    str, for callers written when an id was an object holding its text."""
    __slots__ = ()
    text = property(str.__str__)


def canonical_id(scheme: str, value: str) -> str:
    """The canonical id text `<scheme>:<value>` of value, scheme in ID_SCHEMES.

    The value is normalized (DOIs lowercased, URLs stripped of trailing
    slashes, names lowercased with whitespace collapsed) and then
    validated, so a text returned here is canonical: no value holds a
    control character, and only a name holds whitespace.
    """
    if scheme not in ID_SCHEMES:
        raise InvalidIdentifier(f"unknown scheme {scheme!r}")
    raw = value.strip()
    if not raw:
        raise EmptyIdentifier(f"empty {scheme} identifier")
    if scheme == "orcid":
        raw = raw.upper()
        if not _ORCID_RE.fullmatch(raw):
            raise MalformedOrcid(f"not a hyphenated ORCID: {raw!r}")
        if not validate_orcid_checksum(raw):
            raise MalformedOrcid(f"ORCID checksum failure: {raw!r}")
    elif scheme == "doi":
        raw = raw.lower()
        if not raw.startswith("10.") or "/" not in raw or _SPACE_OR_CONTROL.search(raw):
            raise MalformedDoi(f"not a DOI: {raw!r}")
    elif scheme == "url":
        raw = raw.rstrip("/")
        if not raw.lower().startswith(("http://", "https://")) or _SPACE_OR_CONTROL.search(raw):
            raise InvalidIdentifier(f"not an absolute http(s) URL: {raw!r}")
    elif scheme == "email":
        raw = raw.lower()
        if "@" not in raw or _SPACE_OR_CONTROL.search(raw):
            raise InvalidIdentifier(f"not an email address: {raw!r}")
    else:
        raw = " ".join(raw.lower().split())
        if _CONTROL.search(raw):
            raise InvalidIdentifier(f"control character in name: {raw!r}")
    return IdText(f"{scheme}:{raw}")


def id_from_text(text: str) -> str:
    """The canonical id text of a `<scheme>:<value>` text."""
    scheme_name, sep, value = text.partition(":")
    if not sep:
        raise InvalidIdentifier(f"missing scheme prefix: {text!r}")
    if scheme_name not in ID_SCHEMES:
        raise InvalidIdentifier(f"unknown scheme {scheme_name!r} in {text!r}")
    return canonical_id(scheme_name, value)


def canonicalize_id(raw: str) -> str:
    """Detect the identifier scheme of a raw string; its canonical id text.

    Detection precedence: ORCID (URI, orcid: prefix, or bare), DOI (URI,
    doi: prefix, or bare 10.x/...), absolute http(s) URL, email address,
    free-text name. Idempotent over its own output.

    Args:
        raw: identifier as found in a document.

    Raises:
        EmptyIdentifier: raw is empty or whitespace.
        MalformedOrcid: ORCID shape with a bad pattern or checksum.
        MalformedDoi: doi-prefixed value that is not a DOI.
    """
    text = raw.strip()
    if not text:
        raise EmptyIdentifier(f"empty identifier: {raw!r}")

    scheme, sep, value = text.partition(":")
    if sep and scheme.lower() in ID_SCHEMES:
        return canonical_id(scheme.lower(), value)

    if m := _ORCID_URI_RE.fullmatch(text):
        return canonical_id("orcid", m.group(1))
    if _ORCID_RE.fullmatch(text.upper()):
        return canonical_id("orcid", text)
    if m := _DOI_URI_RE.fullmatch(text):
        return canonical_id("doi", m.group(1))
    if text.startswith("10.") and "/" in text:
        return canonical_id("doi", text)
    if text.lower().startswith(("http://", "https://")):
        return canonical_id("url", text)
    if "@" in text and not any(c.isspace() for c in text):
        return canonical_id("email", text)
    return canonical_id("name", text)


class _Empty(Mapping):
    """An empty mapping that cannot be filled, so one instance can be every
    value's default mapping. It pickles and copies as that instance."""

    __slots__ = ()

    def __getitem__(self, key: object) -> object:
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "NO_EXTRA"


#: The default display of CreditEntry and extra of ProductMeta.
NO_EXTRA: Mapping[str, object] = _Empty()


# The value types below are NamedTuples: immutable, compared by value, and
# cheaper to define and to build than dataclasses.


class CreditEntry(NamedTuple):
    """One weighted contribution: who or what, in which category, how much.

    category is one of CATEGORIES: "author", or the citation group the
    entry is listed under ("article" for citation.articles). The weight
    invariant (0 < weight <= 1) is enforced at system boundaries (parsing)
    and reported by validate_creditmap, not raised here, so that broken
    states remain representable as violation values.

    display maps the entry's own document keys to their values, in
    document order: every key but "creditWeight", "@id", "doi", and a
    "codeRepository" or "url" that names the entity. Unrecognized keys
    that lenient parsing keeps are in it too. It is never used for
    identity.
    """

    entity: str
    category: str
    weight: float
    display: Mapping[str, object] = NO_EXTRA


class ProductMeta(NamedTuple):
    """Identity and descriptive fields of the product a map belongs to.

    kind is the document's @type, one of PRODUCT_TYPES.
    """

    id: str
    kind: str
    headline: str = ""
    date_created: date | None = None
    keywords: tuple[str, ...] = ()
    extra: Mapping[str, object] = NO_EXTRA


class CreditMap(NamedTuple):
    """A product plus its complete, conserving credit distribution."""

    product: ProductMeta
    entries: tuple[CreditEntry, ...]


class Violation(NamedTuple):
    """One finding about a document: a failed check or a lenient-parse warning."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_creditmap(creditmap: CreditMap) -> list[Violation]:
    """Check the credit map invariants and return one Violation per failure.

    Checks, in reporting order: every weight in (0, 1], weights sum to 1
    within WEIGHT_SUM_TOLERANCE, no duplicate canonical entity ids, at
    least one author entry, every category in CATEGORIES, and the kind in
    PRODUCT_TYPES. An empty list means the map is valid.
    """
    violations: list[Violation] = []
    for position, entry in enumerate(creditmap.entries):
        if not (0.0 < entry.weight <= 1.0):
            message = f"entry {position} ({entry.entity}) has weight {entry.weight!r}"
            violations.append(Violation("NonPositiveWeight", f"{message}, outside (0, 1]"))

    total = math.fsum(entry.weight for entry in creditmap.entries)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        violations.append(Violation("WeightSum", f"credit weights sum to {total!r}, not 1"))

    seen: dict[str, int] = {}  # in order of first appearance
    for entry in creditmap.entries:
        seen[entry.entity] = seen.get(entry.entity, 0) + 1
    for entity, count in seen.items():
        if count > 1:
            violations.append(Violation("DuplicateEntity", f"{entity} appears {count} times"))

    if not any(e.category == "author" for e in creditmap.entries):
        violations.append(Violation("NoAuthor", "no author entry"))

    for position, entry in enumerate(creditmap.entries):
        if entry.category not in CATEGORIES:
            message = f"entry {position} ({entry.entity}) has unknown category {entry.category!r}"
            violations.append(Violation("UnknownCategory", message))
    if creditmap.product.kind not in PRODUCT_TYPES:
        message = f"unknown product kind {creditmap.product.kind!r}"
        violations.append(Violation("UnknownKind", message))
    return violations
