"""Reads never hang on a file that is not a regular file.

The registry opens its own files without blocking and refuses anything
but a regular file: a FIFO or a directory among the object files fails
the read with exit 2 and the path, and one in place of graph.json counts
as a missing snapshot, which the read replaces. A registry, or an
objects/, that is a file is not an empty registry: the read fails with
exit 2. Each command runs as its own process under a timeout, so a hang
fails the test instead of the run. `ingest` and `validate` still read the
files they are given, pipes included.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest

from conftest import CORPUS_FILES, PRODUCT_C, cli_process, fixture_path

READS = {
    "rank": ["rank"],
    "graph": ["graph"],
    "credit": ["credit", "--product", PRODUCT_C],
}


@pytest.fixture()
def root(tmp_path: Path) -> Path:
    root = tmp_path / "reg"
    run = cli_process("ingest", "--registry", str(root), *(str(fixture_path(f)) for f in CORPUS_FILES))
    assert run.returncode == 0, run.stderr
    return root


def _fresh(root: Path, argv: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    """What argv prints for a copy of root's regular object files."""
    copy = tmp_path / "fresh" / "objects"
    copy.mkdir(parents=True, exist_ok=True)
    for path in (root / "objects").iterdir():
        if path.is_file():
            (copy / path.name).write_bytes(path.read_bytes())
    return cli_process(*argv, "--registry", str(copy.parent))


@pytest.mark.parametrize("read", READS)
def test_a_fifo_among_the_objects_fails_the_read_and_names_it(root: Path, read) -> None:
    fifo = root / "objects" / "zzzz.jsonld"
    os.mkfifo(fifo)
    run = cli_process(*READS[read], "--registry", str(root))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: cannot read {fifo}: not a regular file\n"


@pytest.mark.parametrize("read", READS)
def test_a_directory_among_the_objects_fails_the_read_and_names_it(root: Path, read) -> None:
    directory = root / "objects" / "dir.jsonld"
    directory.mkdir()
    run = cli_process(*READS[read], "--registry", str(root))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: cannot read {directory}: not a regular file\n"


@pytest.mark.parametrize("read", READS)
def test_a_fifo_in_place_of_the_snapshot_reads_as_a_missing_one(
    root: Path, tmp_path: Path, read
) -> None:
    snapshot = root / "graph.json"
    os.mkfifo(snapshot)
    run = cli_process(*READS[read], "--registry", str(root))
    fresh = _fresh(root, READS[read], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, fresh.stdout, fresh.stderr)
    assert snapshot.is_file()
    again = cli_process(*READS[read], "--registry", str(root))
    assert (again.returncode, again.stdout) == (0, fresh.stdout)


def _file_as_registry(tmp_path: Path) -> Path:
    root = tmp_path / "notadir"
    root.touch()
    return root


def _file_as_objects(tmp_path: Path) -> Path:
    root = tmp_path / "reg"
    root.mkdir()
    (root / "objects").touch()
    return root


@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("shape", [_file_as_registry, _file_as_objects],
                         ids=["the registry", "its objects"])
def test_a_file_in_place_of_a_directory_fails_the_read(tmp_path: Path, shape, read) -> None:
    root = shape(tmp_path)
    run = cli_process(*READS[read], "--registry", str(root))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: cannot list {root / 'objects'}: Not a directory\n"


def test_ingest_reads_a_document_piped_to_dev_stdin(tmp_path: Path) -> None:
    root = tmp_path / "reg"
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as writer:
        writer.write(fixture_path("software_a.jsonld").read_bytes())
    with os.fdopen(read_end, "rb") as reader:
        run = cli_process("ingest", "--registry", str(root), "/dev/stdin", stdin=reader)
    assert (run.returncode, run.stdout, run.stderr) == (0, "registered doi:10.9999/a\n", "")
    by_path = cli_process("ingest", "--registry", str(tmp_path / "copy"),
                   str(fixture_path("software_a.jsonld")))
    assert by_path.returncode == 0
    [stored], [expected] = ([p.read_bytes() for p in (r / "objects").iterdir()]
                            for r in (root, tmp_path / "copy"))
    assert stored == expected
