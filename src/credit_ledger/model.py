"""Core domain types: canonical entity identifiers, credit entries, credit maps.

A credit map assigns fractional weights to everything that contributed to a
scholarly product. Weights within one map sum to 1, every contribution is
identified by a canonical EntityId, and downstream modules (graph, engine)
treat these values as immutable.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from datetime import date


class CreditLedgerError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidIdentifier(CreditLedgerError):
    """An identifier string cannot be turned into a canonical EntityId."""


class EmptyIdentifier(InvalidIdentifier):
    """The identifier is empty or whitespace."""


class MalformedOrcid(InvalidIdentifier):
    """The value looks like an ORCID but fails pattern or checksum checks."""


class MalformedDoi(InvalidIdentifier):
    """The value was declared a DOI but is not one."""


class IdScheme(Enum):
    """Identifier schemes, strongest first: orcid, doi, url, email, name."""

    ORCID = "orcid"
    DOI = "doi"
    URL = "url"
    EMAIL = "email"
    NAME = "name"


class Category(Enum):
    """Contribution category of a credit entry."""

    AUTHOR = "author"
    ARTICLE = "article"
    SOFTWARE = "software"
    ACKNOWLEDGMENT = "acknowledgment"
    OTHER = "other"


#: Serialization order for categories.
CATEGORY_ORDER: tuple[Category, ...] = (
    Category.AUTHOR,
    Category.ARTICLE,
    Category.SOFTWARE,
    Category.ACKNOWLEDGMENT,
    Category.OTHER,
)

#: Categories whose entries denote people rather than products.
PERSON_CATEGORIES = frozenset({Category.AUTHOR, Category.ACKNOWLEDGMENT})


class ProductKind(Enum):
    """Kind of scholarly product a credit map describes."""

    SCHOLARLY_ARTICLE = "scholarly_article"
    CODE = "code"
    DATASET = "dataset"
    BLOG_POSTING = "blog_posting"
    OTHER = "other"


#: Tolerance for "weights sum to one" checks.
WEIGHT_SUM_TOLERANCE = 1e-9

_ORCID_RE = re.compile(r"\d{4}-\d{4}-\d{4}-\d{3}[\dX]")
_ORCID_URI_RE = re.compile(r"https?://(?:www\.)?orcid\.org/(.+)", re.IGNORECASE)
_DOI_URI_RE = re.compile(r"https?://(?:dx\.)?doi\.org/(.+)", re.IGNORECASE)
_SPACE_OR_CONTROL = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")


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


class EntityId:
    """Canonical identifier for a person or product.

    Values are normalized on construction (DOIs lowercased, URLs stripped of
    trailing slashes, names lowercased with whitespace collapsed) and then
    validated, so an EntityId that exists is canonical. Ids are immutable
    and compare by value.
    """

    __slots__ = ("scheme", "value")
    scheme: IdScheme
    value: str

    def __init__(self, scheme: IdScheme, value: str) -> None:
        raw = value.strip()
        if not raw:
            raise EmptyIdentifier(f"empty {scheme.value} identifier")
        if scheme is IdScheme.ORCID:
            raw = raw.upper()
            if not _ORCID_RE.fullmatch(raw):
                raise MalformedOrcid(f"not a hyphenated ORCID: {raw!r}")
            if not validate_orcid_checksum(raw):
                raise MalformedOrcid(f"ORCID checksum failure: {raw!r}")
        elif scheme is IdScheme.DOI:
            raw = raw.lower()
            if not raw.startswith("10.") or "/" not in raw or _SPACE_OR_CONTROL.search(raw):
                raise MalformedDoi(f"not a DOI: {raw!r}")
        elif scheme is IdScheme.URL:
            raw = raw.rstrip("/")
            if not raw.lower().startswith(("http://", "https://")) or _SPACE_OR_CONTROL.search(raw):
                raise InvalidIdentifier(f"not an absolute http(s) URL: {raw!r}")
        elif scheme is IdScheme.EMAIL:
            raw = raw.lower()
            if "@" not in raw or any(c.isspace() for c in raw):
                raise InvalidIdentifier(f"not an email address: {raw!r}")
        else:
            raw = " ".join(raw.lower().split())
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "value", raw)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.scheme is other.scheme

    def __hash__(self) -> int:
        # A str caches its hash, so an id is hashed once; hashing (scheme,
        # value) would call Enum.__hash__ in Python on every dict operation.
        # Ids that differ only in scheme merely collide.
        return hash(self.value)

    def __repr__(self) -> str:
        return f"EntityId(scheme={self.scheme!r}, value={self.value!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self.scheme, self.value)

    @property
    def text(self) -> str:
        """Canonical text form, `<scheme>:<value>`."""
        return f"{self.scheme.value}:{self.value}"

    @classmethod
    def from_text(cls, text: str) -> EntityId:
        """Parse the canonical text form produced by `.text`."""
        scheme_name, sep, value = text.partition(":")
        if not sep:
            raise InvalidIdentifier(f"missing scheme prefix: {text!r}")
        try:
            scheme = IdScheme(scheme_name)
        except ValueError:
            raise InvalidIdentifier(f"unknown scheme {scheme_name!r} in {text!r}") from None
        return cls(scheme, value)

    def __str__(self) -> str:
        return self.text


def canonicalize_id(raw: str) -> EntityId:
    """Detect the identifier scheme of a raw string and canonicalize it.

    Detection precedence: ORCID (URI, orcid: prefix, or bare), DOI (URI,
    doi: prefix, or bare 10.x/...), absolute http(s) URL, email address,
    free-text name. Idempotent over its own rendered text form.

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

    lowered = text.lower()
    for prefix, scheme in (
        ("orcid:", IdScheme.ORCID),
        ("doi:", IdScheme.DOI),
        ("url:", IdScheme.URL),
        ("email:", IdScheme.EMAIL),
        ("name:", IdScheme.NAME),
    ):
        if lowered.startswith(prefix):
            return EntityId(scheme, text[len(prefix):])

    if m := _ORCID_URI_RE.fullmatch(text):
        return EntityId(IdScheme.ORCID, m.group(1))
    if _ORCID_RE.fullmatch(text.upper()):
        return EntityId(IdScheme.ORCID, text)
    if m := _DOI_URI_RE.fullmatch(text):
        return EntityId(IdScheme.DOI, m.group(1))
    if text.startswith("10.") and "/" in text:
        return EntityId(IdScheme.DOI, text)
    if lowered.startswith(("http://", "https://")):
        return EntityId(IdScheme.URL, text)
    if "@" in text and not any(c.isspace() for c in text):
        return EntityId(IdScheme.EMAIL, text)
    return EntityId(IdScheme.NAME, text)


class _Empty(Mapping):
    """An empty mapping that cannot be filled, so one instance can be every
    value's default extra. It pickles and copies as that instance."""

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


#: The default extra of EntryDisplay and ProductMeta.
NO_EXTRA: Mapping[str, object] = _Empty()


# The value types below are NamedTuples: immutable, compared by value, and
# cheaper to define and to build than dataclasses.


class EntryDisplay(NamedTuple):
    """Descriptive metadata carried alongside an entry, never used for identity.

    extra holds unrecognized document keys preserved by lenient parsing.
    """

    type_tag: str | None = None
    name: str | None = None
    headline: str | None = None
    email: str | None = None
    license: str | None = None
    repository: str | None = None
    url: str | None = None
    extra: Mapping[str, object] = NO_EXTRA


class CreditEntry(NamedTuple):
    """One weighted contribution: who or what, in which category, how much.

    The weight invariant (0 < weight <= 1) is enforced at system boundaries
    (parsing) and reported by validate_creditmap, not raised here,
    so that broken states remain representable as violation values.
    """

    entity: EntityId
    category: Category
    weight: float
    display: EntryDisplay = EntryDisplay()


class ProductMeta(NamedTuple):
    """Identity and descriptive fields of the product a map belongs to."""

    id: EntityId
    kind: ProductKind
    headline: str = ""
    date_created: date | None = None
    keywords: tuple[str, ...] = ()
    extra: Mapping[str, object] = NO_EXTRA


class CreditMap(NamedTuple):
    """A product plus its complete, conserving credit distribution."""

    product: ProductMeta
    entries: tuple[CreditEntry, ...]


class Violation(NamedTuple):
    """One failed validation check, as a value rather than an exception."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


WEIGHT_SUM = "WeightSum"
NON_POSITIVE_WEIGHT = "NonPositiveWeight"
DUPLICATE_ENTITY = "DuplicateEntity"
NO_AUTHOR = "NoAuthor"


def validate_creditmap(creditmap: CreditMap) -> list[Violation]:
    """Check the credit map invariants and return one Violation per failure.

    Checks, in reporting order: every weight in (0, 1], weights sum to 1
    within WEIGHT_SUM_TOLERANCE, no duplicate canonical entity ids, and at
    least one author entry. An empty list means the map is valid.
    """
    violations: list[Violation] = []
    for position, entry in enumerate(creditmap.entries):
        if not (0.0 < entry.weight <= 1.0):
            violations.append(
                Violation(
                    NON_POSITIVE_WEIGHT,
                    f"entry {position} ({entry.entity.text}) has weight "
                    f"{entry.weight!r}, outside (0, 1]",
                )
            )

    total = math.fsum(entry.weight for entry in creditmap.entries)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        violations.append(
            Violation(WEIGHT_SUM, f"credit weights sum to {total!r}, not 1")
        )

    seen: dict[EntityId, int] = {}
    reported: set[EntityId] = set()
    for entry in creditmap.entries:
        seen[entry.entity] = seen.get(entry.entity, 0) + 1
    for entry in creditmap.entries:
        eid = entry.entity
        if seen[eid] > 1 and eid not in reported:
            reported.add(eid)
            violations.append(
                Violation(
                    DUPLICATE_ENTITY,
                    f"{eid.text} appears {seen[eid]} times",
                )
            )

    if not any(e.category is Category.AUTHOR for e in creditmap.entries):
        violations.append(Violation(NO_AUTHOR, "no author entry"))
    return violations
