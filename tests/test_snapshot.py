"""The graph snapshot behind `rank` and `graph`: never stale, never required.

`rank` and `graph` read the citation graph through Registry.load_graph,
which keeps a derived graph.json keyed to the bytes of every object file.
Whatever happens to the objects or to that file, both commands must print
exactly what they print for a fresh copy of objects/ with no snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from credit_ledger import cli, registry as registry_module

PRODUCTS = 6
# Pairs of author and citation weights written with the same number of
# characters, so swapping them rewrites an object without changing its size.
WEIGHTS = (("0.6", "0.4"), ("0.7", "0.3"), ("0.2", "0.8"))
READS = [
    ["rank", "--scope", scope, "--format", fmt, *depth]
    for scope in ("all", "roots")
    for fmt in ("table", "json")
    for depth in ([], ["--max-depth", "2"])
] + [["graph"]]
# Valid JSON after a valid stamp line, none of it a graph.
WRONG_SHAPES = (
    "{}",
    "[]",
    "null",
    "[1, 2, 3, 4]",
    '[["doi:10.1000/p0"], "r", [[7]], []]',
    '[["doi:10.1000/p0"], "x", [[0]], []]',
    '[["doi:10.1000/p0", "name:a"], "rp", [[0, 1]], []]',
    '[[0], "r", [[0]], []]',
    '[["doi:10.1000/p0"], "r", [[0]], [1]]',
    '{"ids": [], "kinds": "", "products": [], "warnings": []}',
)


def _doc(i: int, weights: tuple[str, str]) -> bytes:
    """Product i: one author, and one citation of product i-1 (product 3
    cites an ORCID as software instead, which the graph build warns about)."""
    author, cited = weights
    if i == 3:
        citation = {"@id": "http://orcid.org/0000-0002-1825-0097", "creditWeight": cited}
    elif i == 0:
        citation = {"codeRepository": "https://example.org/dep", "creditWeight": cited}
    else:
        citation = {"doi": f"10.1000/p{i - 1}", "creditWeight": cited}
    return json.dumps(
        {
            "@context": "http://schema.org",
            "@type": "Code",
            "doi": f"10.1000/p{i}",
            "author": [{"name": f"Author {i}", "creditWeight": author}],
            "citation": {"software": [citation]},
        }
    ).encode()


def _object(root: Path, i: int) -> Path:
    digest = hashlib.sha256(f"doi:10.1000/p{i}".encode()).hexdigest()
    return root / "objects" / f"{digest}.jsonld"


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reads(root: Path) -> list[tuple[int, str, str]]:
    return [_run(*argv, "--registry", str(root)) for argv in READS]


def _fresh_reads(root: Path) -> list[tuple[int, str, str]]:
    """The reads of a copy of root's objects/ that has never had a snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "reg"
        copy.mkdir()
        if (root / "objects").exists():
            shutil.copytree(root / "objects", copy / "objects")
        return _reads(copy)


def _ingest(root: Path, docs: dict[int, bytes], *flags: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in docs.items():
            path = Path(tmp) / f"{i}.jsonld"
            path.write_bytes(data)
            paths.append(str(path))
        _run("ingest", "--registry", str(root), *flags, *paths)


def _rewrite_in_place(path: Path) -> None:
    """Swap the two weights of an object: same size, same inode, same mtime."""
    stat = path.stat()
    data = path.read_bytes()
    first, second = re.findall(rb'"creditWeight": "(0\.\d)"', data)
    swap = {first: second, second: first}
    rewritten = re.sub(
        rb'"creditWeight": "(0\.\d)"',
        lambda m: b'"creditWeight": "' + swap[m.group(1)] + b'"',
        data,
    )
    assert len(rewritten) == len(data)
    with open(path, "r+b") as f:
        f.write(rewritten)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def _replace_body(snapshot: Path, body: str) -> None:
    """Keep the stamp line of graph.json and replace what follows it."""
    if snapshot.exists():
        stamp = snapshot.read_bytes().split(b"\n", 1)[0]
        snapshot.write_bytes(stamp + b"\n" + body.encode())


STEPS = st.one_of(
    st.tuples(
        st.just("ingest"),
        st.lists(st.integers(0, PRODUCTS - 1), min_size=1, max_size=4, unique=True),
        st.sampled_from(WEIGHTS),
    ),
    st.tuples(st.just("force"), st.integers(0, PRODUCTS - 1), st.sampled_from(WEIGHTS)),
    st.tuples(st.just("delete-object"), st.integers(0, PRODUCTS - 1)),
    st.tuples(st.just("rewrite-object"), st.integers(0, PRODUCTS - 1)),
    st.tuples(st.just("delete-snapshot")),
    st.tuples(st.just("truncate-snapshot"), st.integers(0, 4000)),
    st.tuples(st.just("reshape-snapshot"), st.sampled_from(WRONG_SHAPES)),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=st.lists(STEPS, min_size=1, max_size=8))
def test_reads_equal_a_fresh_copy_after_any_sequence_of_changes(steps, tmp_path) -> None:
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        root = Path(tmp) / "reg"
        snapshot = root / "graph.json"
        for step in steps:
            kind = step[0]
            if kind == "ingest":
                _ingest(root, {i: _doc(i, step[2]) for i in step[1]})
            elif kind == "force":
                _ingest(root, {step[1]: _doc(step[1], step[2])}, "--force")
            elif kind == "delete-object":
                _object(root, step[1]).unlink(missing_ok=True)
            elif kind == "rewrite-object":
                if _object(root, step[1]).exists():
                    _rewrite_in_place(_object(root, step[1]))
            elif kind == "delete-snapshot":
                snapshot.unlink(missing_ok=True)
            elif kind == "truncate-snapshot":
                if snapshot.exists():
                    os.truncate(snapshot, min(step[1], snapshot.stat().st_size))
            else:
                _replace_body(snapshot, step[1])
            assert _reads(root) == _fresh_reads(root), steps


@pytest.fixture()
def root(tmp_path: Path) -> Path:
    root = tmp_path / "reg"
    _ingest(root, {i: _doc(i, WEIGHTS[i % len(WEIGHTS)]) for i in range(PRODUCTS)})
    return root


@pytest.fixture()
def parses(monkeypatch) -> list[int]:
    """Counts parse_creditmap calls made by the registry."""
    calls: list[int] = []
    parse = registry_module.parse_creditmap

    def counting(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(registry_module, "parse_creditmap", counting)
    return calls


def test_an_unchanged_registry_is_read_from_the_snapshot(root: Path, parses) -> None:
    first = _reads(root)
    assert len(parses) == PRODUCTS  # the first read builds the snapshot
    assert _reads(root) == first
    assert len(parses) == PRODUCTS
    assert (root / "graph.json").exists()


def test_a_same_size_rewrite_within_one_mtime_tick_is_seen(root: Path, parses) -> None:
    before = _reads(root)
    _rewrite_in_place(_object(root, 2))
    after = _reads(root)
    assert after != before
    assert after == _fresh_reads(root)


def test_a_failed_snapshot_write_still_answers(root: Path, monkeypatch) -> None:
    expected = _fresh_reads(root)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(registry_module.os, "replace", failing_replace)
    assert _reads(root) == expected
    assert all(code == 0 for code, _, _ in expected)
    assert not (root / "graph.json").exists()
    assert not list(root.glob(".tmp-*"))


def test_reads_of_a_missing_registry_create_nothing(tmp_path: Path) -> None:
    root = tmp_path / "missing"
    for code, out, err in _reads(root):
        assert (code, err) == (0, "")
    assert not root.exists()


def test_a_cyclic_registry_fails_every_read_and_gets_no_snapshot(tmp_path: Path) -> None:
    root = tmp_path / "reg"
    code, _, _ = _run(
        "ingest",
        "--registry",
        str(root),
        str(fixture_path("cycle_x.jsonld")),
        str(fixture_path("cycle_y.jsonld")),
    )
    assert code == 0
    for _ in range(2):
        for code, out, err in _reads(root):
            assert (code, out) == (1, "")
            assert err == "error: citation cycle: doi:10.8888/x -> doi:10.8888/y -> doi:10.8888/x\n"
    assert sorted(p.name for p in root.iterdir()) == [".lock", "objects"]


def test_build_warnings_print_the_same_on_a_hit_and_a_miss(root: Path, parses) -> None:
    miss = _run("graph", "--registry", str(root))
    hit = _run("graph", "--registry", str(root))
    assert len(parses) == PRODUCTS
    assert hit == miss
    assert miss[2] == (
        "warning: doi:10.1000/p3: ORCID orcid:0000-0002-1825-0097 cited in product "
        "category 'software'; treating it as a person\n"
    )
