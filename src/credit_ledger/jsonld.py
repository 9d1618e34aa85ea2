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
from functools import lru_cache, partial
from typing import Any

from . import model
from .model import (
    CATEGORIES,
    PRODUCT_TYPES,
    CreditEntry,
    CreditLedgerError,
    CreditMap,
    MalformedDoi,
    ProductMeta,
    Violation,
    canonical_id,
)

#: The only @context this profile accepts.
SCHEMA_ORG_CONTEXT = "http://schema.org"


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


_ENTRY_TYPE_TAGS = frozenset({"Person", *PRODUCT_TYPES})

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

#: Each member of citation and the category of its entries, in the order
#: of CATEGORIES.
_CITATION_KEY_TO_CATEGORY = {
    "articles": "article",
    "software": "software",
    "acknowledgment": "acknowledgment",
    "other": "other",
}


def _outside_profile(
    strict: bool,
    warnings: list[Violation],
    error: type[ParseError],
    message: str,
    code: str = "",
) -> None:
    """Something outside the profile: strict parsing raises error(message),
    lenient parsing records a warning under code, by default the error's
    name."""
    if strict:
        raise error(message) from None
    warnings.append(Violation(code or error.__name__, message))


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


def _parse_weight(raw: Any, group: str, i: int) -> float:
    """The creditWeight of entry i of group."""
    if isinstance(raw, str):
        try:
            weight = float(raw.strip())
        except ValueError:
            raise WeightParseError(f"{group}[{i}]: non-numeric creditWeight {raw!r}") from None
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise WeightParseError(f"{group}[{i}]: creditWeight must be a decimal string or number")
    else:
        try:
            weight = float(raw)
        except OverflowError:
            raise WeightParseError(f"{group}[{i}]: creditWeight is too large a number") from None
    if not (0.0 < weight <= 1.0):
        raise WeightParseError(f"{group}[{i}]: creditWeight {raw!r} outside (0, 1]")
    return weight


def _render_weight(weight: float) -> str:
    """Shortest decimal string that parses back to the same float."""
    text = repr(weight)
    return text[:-2] if text.endswith(".0") else text


#: Distinct raw id texts whose ids each cache below keeps. An entry costs a
#: few hundred bytes, so a full cache holds a few megabytes.
_ID_CACHE_SIZE = 16_384


@lru_cache(maxsize=_ID_CACHE_SIZE)
def _canonical_id(raw: str) -> str:
    """canonicalize_id(raw), computed once per distinct raw text.

    Documents repeat ids (people across maps, products cited by many), so
    one canonicalization serves every equal text. A call that raises
    caches nothing.
    """
    return model.canonicalize_id(raw)


# canonical_id(scheme, raw) per scheme, computed once per distinct raw text.
_url_id = lru_cache(maxsize=_ID_CACHE_SIZE)(partial(canonical_id, "url"))
_email_id = lru_cache(maxsize=_ID_CACHE_SIZE)(partial(canonical_id, "email"))
_name_id = lru_cache(maxsize=_ID_CACHE_SIZE)(partial(canonical_id, "name"))


def _doi_id(raw: str, where: str) -> str:
    """The id under a doi key, which must be a DOI; where begins the message."""
    entity = _canonical_id(raw)
    if not entity.startswith("doi:"):
        raise MalformedDoi(f"{where}: doi key holds {raw!r}, which is not a DOI")
    return entity


#: Entry keys that name the entity directly, after @id and doi, strongest
#: first, each with the id it names.
_ENTRY_ID_KEYS = (
    ("codeRepository", _url_id),
    ("url", _url_id),
    ("email", _email_id),
    ("name", _name_id),
    ("headline", _name_id),
)
#: Entry keys whose values must be strings, in the order they are checked.
#: Each is a key of the entry's display, but a codeRepository or url that
#: names the entity.
_ENTRY_TEXT_KEYS = ("@type", "name", "headline", "email", "license", "codeRepository", "url")
#: The entry keys that a display leaves out, by the key that names the entity.
_NOT_DISPLAYED = frozenset({"creditWeight", "@id", "doi"})
_NOT_DISPLAYED_BY_ID_KEY = {key: _NOT_DISPLAYED | {key} for key in ("codeRepository", "url")}


def _entry_identity(obj: dict[str, Any], group: str, i: int) -> tuple[str, str]:
    """The entity that entry i of group names, and the key that names it.

    Precedence: @id, doi, codeRepository, url, email, name, headline. The
    caller has checked that the values under the other keys are strings.
    """
    if "@id" in obj:
        raw = obj["@id"]
        if raw.__class__ is not str:
            _require_str(raw, f"{group}[{i}].@id")
        return _canonical_id(raw), "@id"
    if "doi" in obj:
        raw = obj["doi"]
        if raw.__class__ is not str:
            _require_str(raw, f"{group}[{i}].doi")
        return _doi_id(raw, f"{group}[{i}]"), "doi"
    for key, make_id in _ENTRY_ID_KEYS:
        if key in obj:
            return make_id(obj[key]), key
    raise MissingIdentifier(f"{group}[{i}] has no identifying key")


def _parse_entry(
    obj: Any,
    category: str,
    strict: bool,
    warnings: list[Violation],
    group: str,
    i: int,
) -> CreditEntry:
    """Entry i of group.

    Checks run in a fixed order, so the first failure reported does not
    depend on the order of the keys: unknown keys (in document order),
    @type and its tag, the other text keys, the identity, the weight. A
    path such as author[0].name is built only for a message that names it.
    The display is the object but its weight and id keys, in document order.
    """
    if not isinstance(obj, dict):
        raise CreditmapSyntaxError(f"{group}[{i}] must be an object")

    if obj.keys() - _ENTRY_KEYS:
        for key, value in obj.items():
            if key not in _ENTRY_KEYS:
                message = f"unrecognized key {group}[{i}].{key}"
                _outside_profile(strict, warnings, UnknownKey, message)
                _kept(value, f"{group}[{i}].{key}")

    # A value that is not a str is rare (numeric weights, kept extras);
    # only then is each text key checked, in the fixed order.
    checked = all(map(str.__instancecheck__, obj.values()))
    if not checked and "@type" in obj:
        _require_str(obj["@type"], f"{group}[{i}].@type")
    type_tag = obj.get("@type")
    if type_tag is not None and type_tag not in _ENTRY_TYPE_TAGS:
        message = f"{group}[{i}]: unrecognized @type {type_tag!r}"
        _outside_profile(strict, warnings, UnknownType, message)
    if not checked:
        for key in _ENTRY_TEXT_KEYS[1:]:
            if key in obj:
                _require_str(obj[key], f"{group}[{i}].{key}")

    entity, id_key = _entry_identity(obj, group, i)

    if "creditWeight" not in obj:
        raise MissingCreditWeight(f"{group}[{i}] has no creditWeight")
    weight = _parse_weight(obj["creditWeight"], group, i)

    hidden = _NOT_DISPLAYED_BY_ID_KEY.get(id_key, _NOT_DISPLAYED)
    display = {key: value for key, value in obj.items() if key not in hidden}
    return CreditEntry(entity, category, weight, display)


def _parse_entry_group(
    value: Any,
    category: str,
    strict: bool,
    warnings: list[Violation],
    group: str,
) -> list[CreditEntry]:
    items = value if isinstance(value, list) else [value]
    return [
        _parse_entry(item, category, strict, warnings, group, i) for i, item in enumerate(items)
    ]


def _product_identity(doc: dict[str, Any]) -> str:
    """The product a document names. Precedence: @id, doi, url, headline."""
    if "@id" in doc:
        return _canonical_id(_require_str(doc["@id"], "@id"))
    if "doi" in doc:
        return _doi_id(_require_str(doc["doi"], "doi"), "doi")
    if "url" in doc:
        return _url_id(_require_str(doc["url"], "url"))
    headline = _require_str(doc.get("headline", ""), "headline")
    if headline.strip():
        return _name_id(headline)
    raise MissingProductId("document has no @id, doi, or url key and no headline")


def parse_creditmap(
    text: str | bytes, *, strict: bool = False
) -> tuple[CreditMap, list[Violation]]:
    """Parse a creditmap document into a CreditMap plus lenient-parsing warnings.

    Args:
        text: document bytes (UTF-8) or string.
        strict: fail on anything outside the profile. Lenient parsing (the
            default) keeps unrecognized keys, reported as warnings, and
            reads an unrecognized product @type as "CreativeWork".

    Returns:
        The parsed CreditMap and its warnings as Violations, each coded
        UnknownKey, UnknownType or InvalidDate (always empty when strict,
        because strict parsing raises instead).

    Raises:
        CreditmapSyntaxError: malformed JSON or malformed field values.
        MissingContext: @context absent or not the schema.org string.
        MissingCreditWeight, MissingIdentifier, WeightParseError: bad entries.
        MissingProductId: no way to identify the product.
        UnknownKey, UnknownType: strict profile violations.
    """
    try:
        return _parse_document(text, strict)
    except RecursionError:  # json.loads and repr recurse once per level of nesting
        raise CreditmapSyntaxError("document nests too deeply") from None


def _parse_document(
    text: str | bytes, strict: bool
) -> tuple[CreditMap, list[Violation]]:
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

    warnings: list[Violation] = []

    if doc.get("@context") != SCHEMA_ORG_CONTEXT:
        raise MissingContext(
            f"@context must be exactly {SCHEMA_ORG_CONTEXT!r}, got {doc.get('@context')!r}"
        )

    kind = doc.get("@type")
    if kind not in PRODUCT_TYPES:
        message = f"unrecognized product @type {kind!r}"
        _outside_profile(strict, warnings, UnknownType, message)
        kind = "CreativeWork"

    headline = _require_str(doc["headline"], "headline") if "headline" in doc else ""

    date_created: date | None = None
    if "dateCreated" in doc:
        raw_date = doc["dateCreated"]
        try:
            date_created = date.fromisoformat(_require_str(raw_date, "dateCreated"))
        except (CreditmapSyntaxError, ValueError):
            message = f"dateCreated {raw_date!r} is not an ISO-8601 date"
            _outside_profile(strict, warnings, CreditmapSyntaxError, message, "InvalidDate")

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
    if doc.keys() - _TOP_KEYS:
        for key in doc:
            if key.startswith("citation."):
                # The stored name of an unrecognized member of citation.
                raise CreditmapSyntaxError(f"top-level key {key} is reserved for citation members")
            if key not in _TOP_KEYS:
                message = f"unrecognized key {key}"
                _outside_profile(strict, warnings, UnknownKey, message)
                extra[key] = _kept(doc[key], key)

    entries: list[CreditEntry] = []
    if "author" in doc:
        entries.extend(
            _parse_entry_group(doc["author"], "author", strict, warnings, "author")
        )

    if "citation" in doc:
        citation = doc["citation"]
        if not isinstance(citation, dict):
            raise CreditmapSyntaxError("citation must be an object")
        for key in citation:
            if key not in _CITATION_KEY_TO_CATEGORY:
                message = f"unrecognized key citation.{key}"
                _outside_profile(strict, warnings, UnknownKey, message)
                extra[f"citation.{key}"] = _kept(citation[key], f"citation.{key}")
        for key, category in _CITATION_KEY_TO_CATEGORY.items():
            if key in citation:
                entries.extend(
                    _parse_entry_group(
                        citation[key], category, strict, warnings, f"citation.{key}"
                    )
                )

    product = ProductMeta(_product_identity(doc), kind, headline, date_created, keywords, extra)
    return CreditMap(product, tuple(entries)), warnings


def _entry_to_obj(entry: CreditEntry) -> dict[str, Any]:
    """The document object of entry: its display's keys in the profile's
    order around its id key, then its display's unrecognized keys."""
    d = entry.display
    for key in _ENTRY_TEXT_KEYS:
        if key in d and not isinstance(d[key], str):
            raise ValueError(f"entry {entry.entity} has a non-string {key!r}: {d[key]!r}")
    obj = {key: d[key] for key in ("@type", "name", "headline") if key in d}

    scheme, _, value = entry.entity.partition(":")
    if scheme == "orcid":
        obj["@id"] = f"http://orcid.org/{value}"
    elif scheme == "doi":
        obj["doi"] = value
    elif scheme == "url" and "codeRepository" not in d:
        if entry.category == "software" or "url" in d:
            obj["codeRepository"] = value
        else:
            obj["url"] = value

    for key in ("codeRepository", "url", "email", "license"):
        if key in d:
            obj[key] = d[key]
    for key, val in d.items():
        if key not in _ENTRY_KEYS:
            obj[key] = val
    # An ORCID or DOI sits under @id or doi, the two strongest keys; any
    # other id may be hidden behind a descriptive key written above.
    if scheme not in ("orcid", "doi"):
        try:
            rederived = _entry_identity(obj, "entry", 0)[0]
        except CreditLedgerError:
            rederived = None
        if rederived != entry.entity:
            obj = {"@id": entry.entity, **obj}
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
    holds a comma. An entry whose category is outside CATEGORIES, or whose
    display holds a non-string under a profile text key, raises ValueError.
    """
    meta = creditmap.product
    doc: dict[str, Any] = {"@context": SCHEMA_ORG_CONTEXT}
    doc["@type"] = meta.kind

    scheme, _, value = meta.id.partition(":")
    if scheme == "orcid":
        doc["@id"] = f"http://orcid.org/{value}"
    elif scheme == "doi":
        doc["doi"] = value
    elif scheme == "url":
        doc["url"] = value
    else:
        try:
            rederived = _product_identity({"headline": meta.headline})
        except CreditLedgerError:
            rederived = None
        if rederived != meta.id:
            doc["@id"] = meta.id

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

    groups: dict[str, list[dict[str, Any]]] = {category: [] for category in CATEGORIES}
    for entry in creditmap.entries:
        if entry.category not in groups:
            raise ValueError(f"entry {entry.entity} has unknown category {entry.category!r}")
        groups[entry.category].append(_entry_to_obj(entry))
    if groups["author"]:
        doc["author"] = groups["author"]

    citation = {key: groups[c] for key, c in _CITATION_KEY_TO_CATEGORY.items() if groups[c]}
    for key, val in meta.extra.items():
        if key.startswith("citation."):
            citation[key[len("citation."):]] = val
    if citation:
        doc["citation"] = citation

    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
