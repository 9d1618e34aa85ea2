"""The README's library example runs and prints what the README shows."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from conftest import CORPUS_FILES, fixture_bytes
from credit_ledger import Registry

README = Path(__file__).parent.parent / "README.md"


def _library_use_blocks() -> tuple[str, str]:
    """The python block of the "Library use" section and the output after it."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    output = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    return code, output


def test_library_example_prints_the_documented_output(tmp_path: Path) -> None:
    registry = Registry(tmp_path / "reg")
    for name in CORPUS_FILES:
        registry.ingest(fixture_bytes(name))
    code, expected = _library_use_blocks()
    assert '"/tmp/reg"' in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code.replace('"/tmp/reg"', repr(str(registry.root))), {})
    assert out.getvalue() == expected
