"""A read served by the registry snapshot loads no module it does not run.

The checks run in child processes of the interpreter running the tests,
with the credit_ledger package these tests import, so they also cover an
installed package (run this file without src on the path).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import credit_ledger
from conftest import CORPUS_FILES, fixture_path

#: Modules a snapshot-hit read must not load: the document parser and the
#: stdlib modules only parsing (datetime), writing (tempfile) or the value
#: types' former dataclasses (dataclasses, which imports inspect) need.
UNUSED_BY_A_HIT = ("credit_ledger.jsonld", "dataclasses", "datetime", "inspect", "tempfile")

_LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _child(code: str, *argv: str) -> subprocess.CompletedProcess:
    package_parent = str(Path(credit_ledger.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )


def _loaded_after(statements: str, *argv: str) -> set[str]:
    return set(json.loads(_child(f"{statements}\n{_LOADED}", *argv).stdout.splitlines()[-1]))


def test_a_snapshot_hit_rank_loads_neither_the_parser_nor_dataclasses(tmp_path: Path) -> None:
    registry = str(tmp_path / "reg")
    cli = "import sys\nfrom credit_ledger.cli import main\n"
    files = [str(fixture_path(name)) for name in CORPUS_FILES]
    _child(cli + "sys.exit(main(sys.argv[1:]))", "ingest", "--registry", registry, *files)
    _child(cli + "sys.exit(main(sys.argv[1:]))", "rank", "--registry", registry)

    bare = _loaded_after("")
    loaded = _loaded_after(
        cli + "assert main(sys.argv[1:]) == 0", "rank", "--registry", registry
    )
    assert "credit_ledger.registry" in loaded  # and as jsonld is not, it parsed nothing
    assert sorted((loaded - bare) & set(UNUSED_BY_A_HIT)) == []


def test_importing_the_package_imports_no_module_of_it() -> None:
    loaded = _loaded_after("import credit_ledger")
    assert sorted(m for m in loaded if m.startswith("credit_ledger.")) == []
    assert "credit_ledger.jsonld" not in _loaded_after("from credit_ledger import Registry, EntityId")


def test_parsing_a_document_loads_the_parser_on_first_use() -> None:
    statements = (
        "from credit_ledger.registry import parse_creditmap\n"
        "import sys\n"
        "assert 'credit_ledger.jsonld' not in sys.modules\n"
        f"parse_creditmap(open({str(fixture_path(CORPUS_FILES[0]))!r}, 'rb').read())\n"
        "import credit_ledger.registry as registry, credit_ledger.jsonld as jsonld\n"
        "assert registry.parse_creditmap is jsonld.parse_creditmap\n"
    )
    assert "credit_ledger.jsonld" in _loaded_after(statements)
