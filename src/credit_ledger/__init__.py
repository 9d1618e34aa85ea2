"""Weighted credit maps for scholarly products, propagated transitively.

Parse and validate creditmap documents, register them in a file-backed
registry, build the citation graph, and compute how each product's unit of
credit divides among the people and products it ultimately rests on.

Each name below is imported from its module on first access, so that
importing the package, or one of its modules, loads only the modules it
uses: a read of the registry's snapshot never loads the document parser.
"""

from importlib import import_module

#: Every public name, and the module that defines it.
_MODULES = {
    "Allocation": "engine",
    "CATEGORIES": "model",
    "CreditEntry": "model",
    "CreditGraph": "graph",
    "CreditLedgerError": "model",
    "CreditMap": "model",
    "CycleError": "graph",
    "DuplicateProduct": "registry",
    "DuplicateProductId": "graph",
    "GraphError": "graph",
    "ID_SCHEMES": "model",
    "InvalidIdentifier": "model",
    "NotFound": "registry",
    "PRODUCT_TYPES": "model",
    "ParseError": "jsonld",
    "ProductMeta": "model",
    "Registry": "registry",
    "RegistryError": "registry",
    "StorageError": "registry",
    "UnknownProduct": "engine",
    "ValidationFailed": "registry",
    "Violation": "model",
    "WEIGHT_SUM_TOLERANCE": "model",
    "aggregate_rank": "engine",
    "build_graph": "graph",
    "canonical_id": "model",
    "canonicalize_id": "model",
    "dangling_references": "graph",
    "id_from_text": "model",
    "parse_creditmap": "jsonld",
    "serialize_creditmap": "jsonld",
    "topological_order": "graph",
    "transitive_credit": "engine",
    "validate_creditmap": "model",
    "validate_orcid_checksum": "model",
}

__all__ = list(_MODULES)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
