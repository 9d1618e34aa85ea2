"""Golden CLI outputs: stdout of every read command on the fixture corpus,
and of `validate` over every fixture; and the golden stored bytes of every
fixture that parses.

Each credit-*, rank-* and graph file under fixtures/golden/ is the exact
stdout of one `credit-ledger` command run on a registry holding the three
corpus fixtures; each validate* file is the stdout of `validate` over
fixtures/*.jsonld and fixtures/invalid/*.jsonld, named relative to the
repository root, which exits 1. Each file under fixtures/golden/objects/
is serialize_creditmap(parse_creditmap(f)), the bytes the registry stores,
of the fixture of that name in fixtures/, fixtures/invalid/ or
fixtures/stored/. graph-line.json is line 2 of the registry's graph.json
after one `rank`: the snapshot's graph line, whose layout is the field
order of CreditGraph under an unchanged format tag. A change that alters
any byte of `credit`, `rank`, `graph` or `validate` output, of a stored
document or of the graph line, fails here. To
rewrite the files after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CORPUS_FILES, DEV1, PRODUCT_A, PRODUCT_B, PRODUCT_C, fixture_path
from credit_ledger.cli import main as cli_main
from credit_ledger.jsonld import parse_creditmap, serialize_creditmap
from credit_ledger.model import CreditLedgerError

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
OBJECTS = GOLDEN / "objects"


def _cases() -> dict[str, tuple[str, ...]]:
    cases: dict[str, tuple[str, ...]] = {}
    for tag, product in (("a", PRODUCT_A), ("b", PRODUCT_B), ("c", PRODUCT_C)):
        for depth in (None, 1, 2):
            limit = () if depth is None else ("--max-depth", str(depth))
            suffix = "" if depth is None else f"-depth{depth}"
            for fmt in ("table", "json"):
                name = f"credit-{tag}{suffix}.{'json' if fmt == 'json' else 'txt'}"
                cases[name] = ("credit", "--product", product, *limit, "--format", fmt)
    cases["credit-c-entity-dev1.txt"] = ("credit", "--product", PRODUCT_C, "--entity", DEV1)
    for scope in ("all", "roots"):
        cases[f"rank-{scope}.txt"] = ("rank", "--scope", scope)
        cases[f"rank-{scope}.json"] = ("rank", "--scope", scope, "--format", "json")
    cases["rank-all-depth1.txt"] = ("rank", "--max-depth", "1")
    cases["graph.dot"] = ("graph",)
    return cases


CASES = _cases()
ROOT = GOLDEN.parents[2]
VALIDATE_CASES = {"validate.txt": ("validate",), "validate-strict.txt": ("validate", "--strict")}
GRAPH_LINE = "graph-line.json"


def _validate_files() -> list[str]:
    fixtures = GOLDEN.parent
    files = sorted(fixtures.glob("*.jsonld")) + sorted((fixtures / "invalid").glob("*.jsonld"))
    return [str(path.relative_to(ROOT)) for path in files]


def _stored_bytes() -> dict[str, bytes]:
    """The normalized bytes of every fixture that parses, by file name."""
    fixtures = GOLDEN.parent
    stored: dict[str, bytes] = {}
    for folder in (fixtures, fixtures / "invalid", fixtures / "stored"):
        for path in sorted(folder.glob("*.jsonld")):
            try:
                creditmap, _ = parse_creditmap(path.read_bytes())
            except CreditLedgerError:
                continue
            stored[path.name] = serialize_creditmap(creditmap)
    return stored


STORED = _stored_bytes()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _ingest_corpus(registry: str) -> None:
    paths = [str(fixture_path(name)) for name in CORPUS_FILES]
    code, out = _run(["ingest", "--registry", registry, *paths])
    assert code == 0, out


@pytest.fixture(scope="module")
def corpus_registry(tmp_path_factory) -> str:
    registry = str(tmp_path_factory.mktemp("golden") / "reg")
    _ingest_corpus(registry)
    return registry


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name: str, corpus_registry: str) -> None:
    argv = CASES[name]
    code, out = _run([argv[0], "--registry", corpus_registry, *argv[1:]])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_output_matches_golden_file(name: str, monkeypatch) -> None:
    monkeypatch.chdir(ROOT)
    code, out = _run([*VALIDATE_CASES[name], *_validate_files()])
    assert code == 1
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(STORED))
def test_stored_bytes_match_golden_file(name: str) -> None:
    assert STORED[name] == (OBJECTS / name).read_bytes()


def _graph_line(registry: str) -> bytes:
    """Line 2 of graph.json, with its newline, after one `rank`."""
    Path(registry, "graph.json").unlink(missing_ok=True)
    code, _ = _run(["rank", "--registry", registry])
    assert code == 0
    return Path(registry, "graph.json").read_bytes().split(b"\n")[1] + b"\n"


def test_snapshot_graph_line_matches_golden_file(corpus_registry: str) -> None:
    assert _graph_line(corpus_registry) == (GOLDEN / GRAPH_LINE).read_bytes()


def test_every_golden_file_has_a_case() -> None:
    outputs = sorted(p.name for p in GOLDEN.iterdir() if p.is_file())
    assert outputs == sorted([*CASES, *VALIDATE_CASES, GRAPH_LINE])
    assert sorted(p.name for p in OBJECTS.iterdir()) == sorted(STORED)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        registry = str(Path(scratch) / "reg")
        _ingest_corpus(registry)
        GOLDEN.mkdir(exist_ok=True)
        for name, argv in CASES.items():
            code, out = _run([argv[0], "--registry", registry, *argv[1:]])
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            (GOLDEN / name).write_text(out, encoding="utf-8")
        (GOLDEN / GRAPH_LINE).write_bytes(_graph_line(registry))
    OBJECTS.mkdir(exist_ok=True)
    for name, data in STORED.items():
        (OBJECTS / name).write_bytes(data)
    os.chdir(ROOT)
    for name, argv in VALIDATE_CASES.items():
        code, out = _run([*argv, *_validate_files()])
        if code != 1:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
