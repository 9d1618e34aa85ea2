"""Weighted credit maps for scholarly products, propagated transitively.

Parse and validate creditmap documents, register them in a file-backed
registry, build the citation graph, and compute how each product's unit of
credit divides among the people and products it ultimately rests on.
"""

from .engine import (
    Allocation,
    PropagationOptions,
    RankScope,
    UnknownProduct,
    aggregate_rank,
    entity_credit,
    transitive_credit,
)
from .graph import (
    CreditGraph,
    CycleError,
    DuplicateProductId,
    GraphEdge,
    GraphError,
    NodeKind,
    build_graph,
    dangling_references,
    topological_order,
)
from .jsonld import (
    ParseError,
    ParseMode,
    ParseWarning,
    parse_creditmap,
    serialize_creditmap,
)
from .model import (
    CATEGORY_ORDER,
    Category,
    CreditEntry,
    CreditLedgerError,
    CreditMap,
    EntityId,
    EntryDisplay,
    IdScheme,
    InvalidIdentifier,
    ProductKind,
    ProductMeta,
    Violation,
    WEIGHT_SUM_TOLERANCE,
    canonicalize_id,
    validate_creditmap,
    validate_orcid_checksum,
)
from .registry import (
    DuplicateProduct,
    NotFound,
    Registry,
    RegistryError,
    StorageError,
    ValidationFailed,
)

__all__ = [
    "Allocation",
    "CATEGORY_ORDER",
    "Category",
    "CreditEntry",
    "CreditGraph",
    "CreditLedgerError",
    "CreditMap",
    "CycleError",
    "DuplicateProduct",
    "DuplicateProductId",
    "EntityId",
    "EntryDisplay",
    "GraphEdge",
    "GraphError",
    "IdScheme",
    "InvalidIdentifier",
    "NodeKind",
    "NotFound",
    "ParseError",
    "ParseMode",
    "ParseWarning",
    "ProductKind",
    "ProductMeta",
    "PropagationOptions",
    "RankScope",
    "Registry",
    "RegistryError",
    "StorageError",
    "UnknownProduct",
    "ValidationFailed",
    "Violation",
    "WEIGHT_SUM_TOLERANCE",
    "aggregate_rank",
    "build_graph",
    "canonicalize_id",
    "dangling_references",
    "entity_credit",
    "parse_creditmap",
    "serialize_creditmap",
    "topological_order",
    "transitive_credit",
    "validate_creditmap",
    "validate_orcid_checksum",
]

__version__ = "0.1.0"
