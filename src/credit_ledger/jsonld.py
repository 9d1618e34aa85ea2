"""Parsing and serialization of creditmap documents.

The document format is a constrained JSON-LD profile over the schema.org
vocabulary: a fixed @context string, a small set of recognized types and
keys, creditWeight values as decimal strings, and a fixed key order on
output. Serialization is deterministic, so parse followed by serialize is a
normalization pass and normalized documents are byte-stable.
"""

from __future__ import annotations

import json
from datetime import date
from enum import Enum
from typing import Any, NamedTuple

from .model import (
    CATEGORY_ORDER,
    Category,
    CreditEntry,
    CreditLedgerError,
    CreditMap,
    EntityId,
    EntryDisplay,
    IdScheme,
    MalformedDoi,
    ProductKind,
    ProductMeta,
    canonicalize_id,
)

#: The only @context this profile accepts.
SCHEMA_ORG_CONTEXT = "http://schema.org"

class ParseMode(Enum):
    """Strict rejects anything outside the profile; lenient preserves and warns."""

    STRICT = "strict"
    LENIENT = "lenient"


class ParseWarning(NamedTuple):
    """A non-fatal anomaly found while parsing in lenient mode."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


UNKNOWN_KEY = "UnknownKey"
UNKNOWN_TYPE = "UnknownType"
INVALID_DATE = "InvalidDate"


class ParseError(CreditLedgerError):
    """Base class for document parsing failures."""


class CreditmapSyntaxError(ParseError):
    """The document is not well-formed JSON or has a malformed field."""


class MissingContext(ParseError):
    """@context is absent or not the schema.org context string."""


class MissingCreditWeight(ParseError):
    """An entry has no creditWeight key."""


class MissingIdentifier(ParseError):
    """An entry carries no identifying key at all."""


class MissingProductId(ParseError):
    """The document has neither identifier keys nor a headline."""


class UnknownKey(ParseError):
    """Strict mode: a key outside the profile."""


class UnknownType(ParseError):
    """Strict mode: a @type outside the profile."""


class WeightParseError(ParseError):
    """creditWeight is non-numeric or outside (0, 1]."""


_PRODUCT_TYPE_TO_KIND = {
    "ScholarlyArticle": ProductKind.SCHOLARLY_ARTICLE,
    "Code": ProductKind.CODE,
    "Dataset": ProductKind.DATASET,
    "BlogPosting": ProductKind.BLOG_POSTING,
    "CreativeWork": ProductKind.OTHER,
}
_KIND_TO_PRODUCT_TYPE = {v: k for k, v in _PRODUCT_TYPE_TO_KIND.items()}
_ENTRY_TYPE_TAGS = frozenset({"Person", *_PRODUCT_TYPE_TO_KIND})

_TOP_KEYS = frozenset(
    {"@context", "@type", "@id", "doi", "url", "headline", "dateCreated",
     "keywords", "author", "citation"}
)
_ENTRY_KEYS = frozenset(
    {"@type", "name", "headline", "@id", "doi", "codeRepository", "url",
     "email", "license", "creditWeight"}
)

#: Deepest nesting of an unrecognized value that parsing preserves.
_MAX_KEPT_DEPTH = 100

_CITATION_KEY_TO_CATEGORY = {
    "articles": Category.ARTICLE,
    "software": Category.SOFTWARE,
    "acknowledgment": Category.ACKNOWLEDGMENT,
    "other": Category.OTHER,
}
_CATEGORY_TO_CITATION_KEY = {v: k for k, v in _CITATION_KEY_TO_CATEGORY.items()}


def _outside_profile(
    mode: ParseMode,
    warnings: list[ParseWarning],
    error: type[ParseError],
    code: str,
    message: str,
) -> None:
    """Something outside the profile: strict mode raises error(message),
    lenient mode records a warning under code."""
    if mode is ParseMode.STRICT:
        raise error(message) from None
    warnings.append(ParseWarning(code, message))


def _kept(value: Any, where: str) -> Any:
    """An unrecognized value, preserved as it is if it nests at most
    _MAX_KEPT_DEPTH levels.

    The bound keeps every stored document far shallower than the stack
    depth that json.loads needs, wherever a later reader calls it from.
    """
    level = [value]
    for _ in range(_MAX_KEPT_DEPTH):
        level = [
            child
            for v in level
            if isinstance(v, (dict, list))
            for child in (v.values() if isinstance(v, dict) else v)
        ]
        if not level:
            return value
    raise CreditmapSyntaxError(f"{where} nests more than {_MAX_KEPT_DEPTH} levels deep")


def _require_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise CreditmapSyntaxError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _parse_weight(raw: Any, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise WeightParseError(f"{where}: creditWeight must be a decimal string or number")
    if isinstance(raw, str):
        try:
            weight = float(raw.strip())
        except ValueError:
            raise WeightParseError(f"{where}: non-numeric creditWeight {raw!r}") from None
    else:
        try:
            weight = float(raw)
        except OverflowError:
            raise WeightParseError(f"{where}: creditWeight is too large a number") from None
    if not (0.0 < weight <= 1.0):
        raise WeightParseError(f"{where}: creditWeight {raw!r} outside (0, 1]")
    return weight


def _render_weight(weight: float) -> str:
    """Shortest decimal string that parses back to the same float."""
    text = repr(weight)
    return text[:-2] if text.endswith(".0") else text


def _entity_from_doi(raw: str, where: str) -> EntityId:
    entity = canonicalize_id(raw)
    if entity.scheme is not IdScheme.DOI:
        raise MalformedDoi(f"{where}: doi key holds {raw!r}, which is not a DOI")
    return entity


#: Entry keys that name the entity directly, after @id and doi, strongest first.
_ENTRY_ID_KEYS = (
    ("codeRepository", IdScheme.URL),
    ("url", IdScheme.URL),
    ("email", IdScheme.EMAIL),
    ("name", IdScheme.NAME),
    ("headline", IdScheme.NAME),
)


def _entry_identity(obj: dict[str, Any], where: str) -> tuple[EntityId, str]:
    """The entity an entry object names, and the key that names it.

    Precedence: @id, doi, codeRepository, url, email, name, headline. The
    caller has checked that the values under the other keys are strings.
    """
    if "@id" in obj:
        return canonicalize_id(_require_str(obj["@id"], f"{where}.@id")), "@id"
    if "doi" in obj:
        return _entity_from_doi(_require_str(obj["doi"], f"{where}.doi"), where), "doi"
    for key, scheme in _ENTRY_ID_KEYS:
        if key in obj:
            return EntityId(scheme, obj[key]), key
    raise MissingIdentifier(f"{where} has no identifying key")


def _parse_entry(
    obj: Any,
    category: Category,
    mode: ParseMode,
    warnings: list[ParseWarning],
    where: str,
) -> CreditEntry:
    if not isinstance(obj, dict):
        raise CreditmapSyntaxError(f"{where} must be an object")

    extra: dict[str, Any] = {}
    for key in obj:
        if key not in _ENTRY_KEYS:
            message = f"unrecognized key {where}.{key}"
            _outside_profile(mode, warnings, UnknownKey, UNKNOWN_KEY, message)
            extra[key] = _kept(obj[key], f"{where}.{key}")

    type_tag = None
    if "@type" in obj:
        type_tag = _require_str(obj["@type"], f"{where}.@type")
        if type_tag not in _ENTRY_TYPE_TAGS:
            message = f"{where}: unrecognized @type {type_tag!r}"
            _outside_profile(mode, warnings, UnknownType, UNKNOWN_TYPE, message)

    name = _require_str(obj["name"], f"{where}.name") if "name" in obj else None
    headline = _require_str(obj["headline"], f"{where}.headline") if "headline" in obj else None
    email = _require_str(obj["email"], f"{where}.email") if "email" in obj else None
    license_ = _require_str(obj["license"], f"{where}.license") if "license" in obj else None

    repository_raw = None
    if "codeRepository" in obj:
        repository_raw = _require_str(obj["codeRepository"], f"{where}.codeRepository")
    url_raw = _require_str(obj["url"], f"{where}.url") if "url" in obj else None

    entity, id_key = _entry_identity(obj, where)

    if "creditWeight" not in obj:
        raise MissingCreditWeight(f"{where} has no creditWeight")
    weight = _parse_weight(obj["creditWeight"], where)

    display = EntryDisplay(
        type_tag=type_tag,
        name=name,
        headline=headline,
        email=email,
        license=license_,
        repository=None if id_key == "codeRepository" else repository_raw,
        url=None if id_key == "url" else url_raw,
        extra=extra,
    )
    return CreditEntry(entity, category, weight, display)


def _parse_entry_group(
    value: Any,
    category: Category,
    mode: ParseMode,
    warnings: list[ParseWarning],
    where: str,
) -> list[CreditEntry]:
    items = value if isinstance(value, list) else [value]
    return [
        _parse_entry(item, category, mode, warnings, f"{where}[{i}]")
        for i, item in enumerate(items)
    ]


def _product_identity(doc: dict[str, Any]) -> EntityId:
    """The product a document names. Precedence: @id, doi, url, headline."""
    if "@id" in doc:
        return canonicalize_id(_require_str(doc["@id"], "@id"))
    if "doi" in doc:
        return _entity_from_doi(_require_str(doc["doi"], "doi"), "doi")
    if "url" in doc:
        return EntityId(IdScheme.URL, _require_str(doc["url"], "url"))
    headline = _require_str(doc.get("headline", ""), "headline")
    if headline.strip():
        return EntityId(IdScheme.NAME, headline)
    raise MissingProductId("document has no @id, doi, or url key and no headline")


def parse_creditmap(
    text: str | bytes,
    mode: ParseMode = ParseMode.LENIENT,
) -> tuple[CreditMap, list[ParseWarning]]:
    """Parse a creditmap document into a CreditMap plus lenient-mode warnings.

    Args:
        text: document bytes (UTF-8) or string.
        mode: STRICT fails on anything outside the profile; LENIENT keeps
            unrecognized keys (reported as warnings) and maps unrecognized
            product types to ProductKind.OTHER.

    Returns:
        The parsed CreditMap and the list of warnings (always empty in
        strict mode, because strict raises instead).

    Raises:
        CreditmapSyntaxError: malformed JSON or malformed field values.
        MissingContext: @context absent or not the schema.org string.
        MissingCreditWeight, MissingIdentifier, WeightParseError: bad entries.
        MissingProductId: no way to identify the product.
        UnknownKey, UnknownType: strict-mode profile violations.
    """
    try:
        return _parse_document(text, mode)
    except RecursionError:  # json.loads and repr recurse once per level of nesting
        raise CreditmapSyntaxError("document nests too deeply") from None


def _parse_document(
    text: str | bytes, mode: ParseMode
) -> tuple[CreditMap, list[ParseWarning]]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CreditmapSyntaxError(f"document is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
        if "\\u" in text:
            # An escaped surrogate without its partner decodes to a str
            # that cannot be written back as UTF-8.
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except ValueError as exc:  # also an integer too long to convert, or a lone surrogate
        raise CreditmapSyntaxError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CreditmapSyntaxError("top-level value must be an object")

    warnings: list[ParseWarning] = []

    if doc.get("@context") != SCHEMA_ORG_CONTEXT:
        raise MissingContext(
            f"@context must be exactly {SCHEMA_ORG_CONTEXT!r}, got {doc.get('@context')!r}"
        )

    kind = ProductKind.OTHER
    raw_type = doc.get("@type")
    if isinstance(raw_type, str) and raw_type in _PRODUCT_TYPE_TO_KIND:
        kind = _PRODUCT_TYPE_TO_KIND[raw_type]
    else:
        message = f"unrecognized product @type {raw_type!r}"
        _outside_profile(mode, warnings, UnknownType, UNKNOWN_TYPE, message)

    headline = _require_str(doc["headline"], "headline") if "headline" in doc else ""

    date_created: date | None = None
    if "dateCreated" in doc:
        raw_date = doc["dateCreated"]
        try:
            date_created = date.fromisoformat(_require_str(raw_date, "dateCreated"))
        except (CreditmapSyntaxError, ValueError):
            message = f"dateCreated {raw_date!r} is not an ISO-8601 date"
            _outside_profile(mode, warnings, CreditmapSyntaxError, INVALID_DATE, message)

    keywords: tuple[str, ...] = ()
    if "keywords" in doc:
        raw_kw = doc["keywords"]
        if isinstance(raw_kw, str):
            keywords = tuple(k.strip() for k in raw_kw.split(",") if k.strip())
        elif isinstance(raw_kw, list) and all(isinstance(k, str) for k in raw_kw):
            keywords = tuple(k.strip() for k in raw_kw if k.strip())
        else:
            raise CreditmapSyntaxError("keywords must be a string or an array of strings")

    extra: dict[str, Any] = {}
    for key in doc:
        if key.startswith("citation."):
            # The stored name of an unrecognized member of citation.
            raise CreditmapSyntaxError(f"top-level key {key} is reserved for citation members")
        if key not in _TOP_KEYS:
            _outside_profile(mode, warnings, UnknownKey, UNKNOWN_KEY, f"unrecognized key {key}")
            extra[key] = _kept(doc[key], key)

    entries: list[CreditEntry] = []
    if "author" in doc:
        entries.extend(
            _parse_entry_group(doc["author"], Category.AUTHOR, mode, warnings, "author")
        )

    if "citation" in doc:
        citation = doc["citation"]
        if not isinstance(citation, dict):
            raise CreditmapSyntaxError("citation must be an object")
        for key in citation:
            if key not in _CITATION_KEY_TO_CATEGORY:
                message = f"unrecognized key citation.{key}"
                _outside_profile(mode, warnings, UnknownKey, UNKNOWN_KEY, message)
                extra[f"citation.{key}"] = _kept(citation[key], f"citation.{key}")
        for key, category in _CITATION_KEY_TO_CATEGORY.items():
            if key in citation:
                entries.extend(
                    _parse_entry_group(
                        citation[key], category, mode, warnings, f"citation.{key}"
                    )
                )

    product = ProductMeta(
        id=_product_identity(doc),
        kind=kind,
        headline=headline,
        date_created=date_created,
        keywords=keywords,
        extra=extra,
    )
    return CreditMap(product, tuple(entries)), warnings


def _entry_to_obj(entry: CreditEntry) -> dict[str, Any]:
    d = entry.display
    obj: dict[str, Any] = {}
    if d.type_tag is not None:
        obj["@type"] = d.type_tag
    if d.name is not None:
        obj["name"] = d.name
    if d.headline is not None:
        obj["headline"] = d.headline

    scheme = entry.entity.scheme
    value = entry.entity.value
    if scheme is IdScheme.ORCID:
        obj["@id"] = f"http://orcid.org/{value}"
    elif scheme is IdScheme.DOI:
        obj["doi"] = value
    elif scheme is IdScheme.URL and d.repository is None:
        if entry.category is Category.SOFTWARE or d.url is not None:
            obj["codeRepository"] = value
        else:
            obj["url"] = value

    if d.repository is not None:
        obj["codeRepository"] = d.repository
    if d.url is not None:
        obj["url"] = d.url
    if d.email is not None:
        obj["email"] = d.email
    if d.license is not None:
        obj["license"] = d.license
    for key, val in d.extra.items():
        obj[key] = val
    # An ORCID or DOI sits under @id or doi, the two strongest keys; any
    # other id may be hidden behind a descriptive key written above.
    if scheme is not IdScheme.ORCID and scheme is not IdScheme.DOI:
        try:
            rederived = _entry_identity(obj, "entry")[0]
        except CreditLedgerError:
            rederived = None
        if rederived != entry.entity:
            obj = {"@id": entry.entity.text, **obj}
    obj["creditWeight"] = _render_weight(entry.weight)
    return obj


def serialize_creditmap(creditmap: CreditMap) -> bytes:
    """Render a CreditMap as canonical document bytes.

    Output is UTF-8, two-space indented, newline-terminated, with keys in a
    fixed order, so equal CreditMaps serialize to equal bytes. Weights are
    written as the shortest decimal strings that parse back to the same
    float. Identities are written as the key parsing derives them from;
    where the keys written would derive another id (a name-scheme id that
    differs from the name or headline, or one hidden behind a descriptive
    codeRepository, url or email), an explicit "@id" holding the canonical
    text is written too, so every map parses back to the same ids.
    Keywords are joined with ", ", or kept as a list where one of them
    holds a comma.
    """
    meta = creditmap.product
    doc: dict[str, Any] = {"@context": SCHEMA_ORG_CONTEXT}
    doc["@type"] = _KIND_TO_PRODUCT_TYPE[meta.kind]

    scheme = meta.id.scheme
    if scheme is IdScheme.ORCID:
        doc["@id"] = f"http://orcid.org/{meta.id.value}"
    elif scheme is IdScheme.DOI:
        doc["doi"] = meta.id.value
    elif scheme is IdScheme.URL:
        doc["url"] = meta.id.value
    else:
        try:
            rederived = _product_identity({"headline": meta.headline})
        except CreditLedgerError:
            rederived = None
        if rederived != meta.id:
            doc["@id"] = meta.id.text

    if meta.headline:
        doc["headline"] = meta.headline
    if meta.date_created is not None:
        doc["dateCreated"] = meta.date_created.isoformat()
    if meta.keywords:
        if any("," in keyword for keyword in meta.keywords):
            doc["keywords"] = list(meta.keywords)  # the joined form would split them
        else:
            doc["keywords"] = ", ".join(meta.keywords)
    for key, val in meta.extra.items():
        if not key.startswith("citation."):
            doc[key] = val

    authors = [e for e in creditmap.entries if e.category is Category.AUTHOR]
    if authors:
        doc["author"] = [_entry_to_obj(e) for e in authors]

    citation: dict[str, Any] = {}
    for category in CATEGORY_ORDER:
        if category is Category.AUTHOR:
            continue
        group = [e for e in creditmap.entries if e.category is category]
        if group:
            citation[_CATEGORY_TO_CITATION_KEY[category]] = [
                _entry_to_obj(e) for e in group
            ]
    for key, val in meta.extra.items():
        if key.startswith("citation."):
            citation[key[len("citation."):]] = val
    if citation:
        doc["citation"] = citation

    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
