"""The value types' contracts, and the package's lazily resolved exports."""

from __future__ import annotations

import copy
import datetime
import importlib
import pickle

import pytest

import credit_ledger
from credit_ledger import (
    Allocation,
    Category,
    CreditEntry,
    CreditGraph,
    CreditMap,
    EntityId,
    EntryDisplay,
    IdScheme,
    ParseWarning,
    ProductKind,
    ProductMeta,
    Violation,
    aggregate_rank,
    build_graph,
    transitive_credit,
)
from credit_ledger.model import NO_EXTRA

DOI = EntityId(IdScheme.DOI, "10.1000/x")


def _entry(weight: float = 0.5) -> CreditEntry:
    return CreditEntry(
        EntityId(IdScheme.NAME, "A  Person"),
        Category.AUTHOR,
        weight,
        EntryDisplay(name="A Person", extra={"affiliation": "Lab"}),
    )


def _meta(headline: str = "X") -> ProductMeta:
    return ProductMeta(
        DOI, ProductKind.CODE, headline, datetime.date(2014, 7, 18), ("a", "b")
    )


#: Per type, a factory and a second value that differs from the first.
VALUES = {
    "EntityId": (lambda: EntityId(IdScheme.DOI, " 10.1000/X "), EntityId(IdScheme.DOI, "10.1000/y")),
    "EntryDisplay": (lambda: EntryDisplay(name="n", extra={"k": [1]}), EntryDisplay(name="m")),
    "CreditEntry": (_entry, _entry(0.25)),
    "ProductMeta": (_meta, _meta("Y")),
    "CreditMap": (lambda: CreditMap(_meta(), (_entry(1.0),)), CreditMap(_meta(), ())),
    "Violation": (lambda: Violation("WeightSum", "m"), Violation("NoAuthor", "m")),
    "ParseWarning": (lambda: ParseWarning("UnknownKey", "m"), ParseWarning("UnknownType", "m")),
    "Allocation": (
        lambda: Allocation(DOI.text, {"name:a": 1.0}, 2), Allocation(DOI.text, {"name:a": 1.0})
    ),
    "CreditGraph": (
        lambda: CreditGraph(["doi:10.1000/x", "name:a"], "rp", [[0, 1, 1.0]], ("w",)),
        CreditGraph(["doi:10.1000/x", "name:a"], "rp", [[0, 1, 1.0]]),
    ),
}
#: Types whose values hold a mapping, and so have no hash.
UNHASHABLE = {"EntryDisplay", "CreditEntry", "ProductMeta", "CreditMap", "Allocation", "CreditGraph"}


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_by_value(name: str) -> None:
    make, other = VALUES[name]
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second
    assert first != other
    assert type(first).__name__ == name


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal_unless_they_hold_a_mapping(name: str) -> None:
    make, _ = VALUES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert {make(): 1}[make()] == 1


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"CreditGraph"}))
def test_fields_cannot_be_assigned(name: str) -> None:
    value = VALUES[name][0]()
    field = "scheme" if name == "EntityId" else type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        setattr(value, "unknown", 1)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_deepcopy_round_trip(name: str) -> None:
    value = VALUES[name][0]()
    for copied in (
        pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ):
        assert copied == value
        assert type(copied) is type(value)
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def test_an_unpickled_id_is_canonical_and_hashes_as_its_value() -> None:
    eid = pickle.loads(pickle.dumps(EntityId(IdScheme.NAME, "  Ada   Lovelace ")))
    assert eid.value == "ada lovelace"
    assert hash(eid) == hash("ada lovelace")


def test_a_graph_with_its_views_built_still_pickles_as_its_tables() -> None:
    graph = VALUES["CreditGraph"][0]()
    assert graph.nodes == {"doi:10.1000/x": "r", "name:a": "p"}
    assert graph.edges == {"doi:10.1000/x": [("name:a", 1.0)]}
    assert vars(graph).keys() == {"ids", "kinds", "products", "warnings"}
    assert pickle.loads(pickle.dumps(graph)) == graph
    assert copy.deepcopy(graph).edges == graph.edges


@pytest.mark.parametrize("depth", [0, -1])
def test_a_depth_limit_below_one_is_refused(depth: int) -> None:
    graph = build_graph([CreditMap(_meta(), (_entry(1.0),))])
    with pytest.raises(ValueError, match=f"max_depth must be >= 1, got {depth}"):
        transitive_credit(graph, DOI.text, max_depth=depth)
    with pytest.raises(ValueError, match=f"max_depth must be >= 1, got {depth}"):
        aggregate_rank(graph, max_depth=depth)


def test_the_default_extra_is_one_empty_mapping_that_cannot_be_filled() -> None:
    display, meta = EntryDisplay(), ProductMeta(DOI, ProductKind.OTHER)
    assert display.extra is NO_EXTRA and meta.extra is NO_EXTRA
    assert display.extra == {} and len(display.extra) == 0 and "k" not in display.extra
    with pytest.raises(TypeError):
        display.extra["k"] = 1  # type: ignore[index]
    assert pickle.loads(pickle.dumps(meta)).extra is NO_EXTRA
    assert copy.deepcopy(display).extra is NO_EXTRA
    assert repr(display).endswith("extra={})")


def test_value_types_are_tuples_that_unpack() -> None:
    code, message = Violation("NoAuthor", "no author entry")
    assert (code, message) == ("NoAuthor", "no author entry")
    assert Violation("NoAuthor", "m") == ("NoAuthor", "m")
    assert str(Violation("NoAuthor", "m")) == "NoAuthor: m"
    assert str(ParseWarning("UnknownKey", "m")) == "UnknownKey: m"
    assert repr(DOI) == "EntityId(scheme=<IdScheme.DOI: 'doi'>, value='10.1000/x')"


def test_every_export_resolves_to_the_object_its_module_defines() -> None:
    for name in credit_ledger.__all__:
        module = importlib.import_module(f"credit_ledger.{credit_ledger._MODULES[name]}")
        value = getattr(credit_ledger, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__qualname__"):
            assert value.__module__ == module.__name__, name


def test_dir_lists_every_export_and_star_import_binds_them() -> None:
    assert set(credit_ledger.__all__) <= set(dir(credit_ledger))
    assert len(set(credit_ledger.__all__)) == len(credit_ledger.__all__)
    namespace: dict[str, object] = {}
    exec("from credit_ledger import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(credit_ledger.__all__)


def test_an_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        credit_ledger.no_such_name  # noqa: B018
    for name in ("GraphEdges", "GraphEdge", "NodeKind", "PropagationOptions"):
        assert not hasattr(credit_ledger, name)
    with pytest.raises(ImportError):
        exec("from credit_ledger import no_such_name", {})
