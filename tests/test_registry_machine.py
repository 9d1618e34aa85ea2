"""The registry against an in-memory model, over any sequence of operations.

A hypothesis state machine ingests (with and without --force), deletes and
touches object files, copies one under a name that is not its digest (a
stray copy, which every read skips) and removes the copy, runs what credit
runs (which may rewrite graph.json) and damages graph.json, and after
every step checks every read of the registry against a dict of the maps
that should be registered. The registry's clock runs either with the
files' clock, so that every file is within a timestamp tick of each read,
or a minute ahead, so that every file has settled and an unchanged
registry is a snapshot hit.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from credit_ledger import CreditMap, NotFound, Registry, build_graph, parse_creditmap
from credit_ledger import registry as registry_module
from credit_ledger.registry import DuplicateProduct, _object_name

PRODUCTS = 5
WEIGHTS = (("0.6", "0.4"), ("0.7", "0.3"), ("0.25", "0.75"))


def _id(i: int) -> str:
    return f"doi:10.1000/m{i}"


def _doc(i: int, weights: tuple[str, str]) -> bytes:
    """Product i: one author, and a citation of product i-1 (of an external
    repository for product 0), so the registered products form a chain."""
    author, cited = weights
    citation = (
        {"articles": [{"doi": f"10.1000/m{i - 1}", "creditWeight": cited}]}
        if i
        else {"software": [{"codeRepository": "https://example.org/lib", "creditWeight": cited}]}
    )
    return json.dumps({
        "@context": "http://schema.org",
        "@type": "ScholarlyArticle",
        "doi": f"10.1000/m{i}",
        "headline": f"Paper {i}",
        "author": [{"name": f"Author {i}", "creditWeight": author}],
        "citation": citation,
    }).encode()


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name) / "reg"
        self.registry = Registry(self.root)
        self.model: dict[int, CreditMap] = {}
        self.clock = 1_000_000_000
        self.ahead_ns = 0
        clock = SimpleNamespace(time_ns=lambda: time.time_ns() + self.ahead_ns)
        self._clock = mock.patch.object(registry_module, "time", clock)
        self._clock.start()

    def teardown(self) -> None:
        self._clock.stop()
        self._tmp.cleanup()

    def _object(self, i: int) -> Path:
        return self.root / "objects" / _object_name(_id(i))

    @rule(i=st.integers(0, PRODUCTS - 1), weights=st.sampled_from(WEIGHTS), force=st.booleans())
    def ingest(self, i: int, weights: tuple[str, str], force: bool) -> None:
        doc = _doc(i, weights)
        if i in self.model and not force:
            with pytest.raises(DuplicateProduct):
                Registry(self.root).ingest(doc)
            return
        assert Registry(self.root).ingest(doc, force=force) == _id(i)
        self.model[i] = parse_creditmap(doc)[0]

    @rule(i=st.integers(0, PRODUCTS - 1))
    def delete_object_file(self, i: int) -> None:
        self._object(i).unlink(missing_ok=True)
        self.model.pop(i, None)

    @rule(i=st.integers(0, PRODUCTS - 1))
    def touch_object_file(self, i: int) -> None:
        if self._object(i).exists():
            self.clock += 1_000_000_007  # a new mtime that no tick rounding hides
            os.utime(self._object(i), ns=(self.clock, self.clock))

    def _stray(self) -> Path:
        """A name that is no registered product's digest."""
        return self.root / "objects" / _object_name("doi:10.1000/stray")

    @rule(i=st.integers(0, PRODUCTS - 1))
    def copy_object_file_to_a_stray_name(self, i: int) -> None:
        if self._object(i).exists():
            self._stray().write_bytes(self._object(i).read_bytes())

    @rule()
    def remove_the_stray_copy(self) -> None:
        self._stray().unlink(missing_ok=True)

    @rule(ahead_s=st.sampled_from([0, 60]))
    def set_registry_clock(self, ahead_s: int) -> None:
        self.ahead_ns = ahead_s * 10**9

    @rule()
    def credit(self) -> None:
        registry = Registry(self.root)
        registry.refresh_snapshot(build_graph(registry.load_all()))

    @rule(damage=st.sampled_from(["truncate", "flip a byte", "empty"]), at=st.integers(0, 10**6))
    def damage_snapshot(self, damage: str, at: int) -> None:
        snapshot = self.root / "graph.json"
        data = snapshot.read_bytes() if snapshot.exists() else b""
        if not data:  # missing, or emptied by an earlier damage: nothing to damage
            return
        i = at % len(data)
        if damage == "truncate":
            data = data[:i]
        elif damage == "flip a byte":
            data = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
        else:
            data = b""
        snapshot.write_bytes(data)

    @invariant()
    def reads_agree_with_the_model(self) -> None:
        registry = Registry(self.root)
        for i in range(PRODUCTS):
            if i in self.model:
                assert registry.get(_id(i)) == self.model[i]
            else:
                with pytest.raises(NotFound):
                    registry.get(_id(i))
        maps = registry.load_all()
        assert maps == [self.model[i] for i in sorted(self.model)]
        graph = registry.load_graph()
        assert graph == build_graph(maps)
        assert graph.ids[: len(graph.products)] == [_id(i) for i in sorted(self.model)]
        assert registry.load_graph() == graph

    @invariant()
    def no_temp_file_is_left(self) -> None:
        for directory in (self.root, self.root / "objects"):
            if directory.exists():
                assert [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")] == []


RegistryMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
test_registry_agrees_with_a_dict_model = RegistryMachine.TestCase


def test_damaging_an_emptied_snapshot_again_is_a_no_op() -> None:
    """A read of the registry emptied by a delete writes no snapshot, so
    the graph.json that a truncation emptied stays empty, and the next
    damage finds nothing to damage."""
    machine = RegistryMachine()
    try:
        for step in (
            lambda: machine.ingest(0, WEIGHTS[0], False),
            lambda: machine.delete_object_file(0),
            lambda: machine.damage_snapshot("truncate", 0),
            lambda: machine.damage_snapshot("truncate", 7),
        ):
            step()
            machine.reads_agree_with_the_model()
            machine.no_temp_file_is_left()
        assert (machine.root / "graph.json").read_bytes() == b""
    finally:
        machine.teardown()
