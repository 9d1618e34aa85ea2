"""The benchmark's tracer finds every name it wraps or reads.

perfbench/tracing.py wraps package functions by name and counts the nodes
and edges of each graph that cli.build_graph returns. When a name goes
missing it prints "not found" and records no spans for it, so the
benchmark's per-layer metrics go quiet. This runs one credit and one rank
through the tracer in-process, on the three-fixture registry.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import CORPUS_FILES, PRODUCT_C, fixture_path
from credit_ledger import cli, engine, registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_finds_every_name_it_wraps(tracing, tmp_path: Path, capsys) -> None:
    reg = str(tmp_path / "reg")
    paths = [str(fixture_path(name)) for name in CORPUS_FILES]
    assert cli.main(["ingest", "--registry", reg, *paths]) == 0
    capsys.readouterr()
    tracer = tracing.Tracer()
    tracer.install_all(cli, registry, engine)
    try:
        assert cli.main(["credit", "--registry", reg, "--product", PRODUCT_C]) == 0
        assert cli.main(["rank", "--registry", reg]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert "not found" not in out
    assert {span.name for span in tracer.spans} >= {
        "registry.load_all",
        "jsonld.parse_creditmap",
        "graph.build_graph",
        "graph.topological_order",
        "engine.transitive_credit",
        "engine.aggregate_rank",
    }
    builds = [span.count for span in tracer.spans if span.name == "graph.build_graph"]
    assert builds == [(12, 11)]
