"""The graph snapshot behind `rank` and `graph`: never stale, never required.

`rank` and `graph` read the citation graph through Registry.load_graph,
which keeps a derived graph.json keyed to the stat of every object file:
a hit serves its graph line, and anything else is build_graph(load_all())
and a new graph.json. `credit` parses every object file, and rewrites
graph.json from those maps when it finds it stale.
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
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from credit_ledger import build_graph, cli, registry as registry_module

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


def test_an_unchanged_registry_is_read_from_the_snapshot(root: Path, parses, settled) -> None:
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


def test_a_miss_whose_temp_file_a_writer_swept_still_answers(
    root: Path, settled, monkeypatch
) -> None:
    """A writer's batch removes every .tmp-* in the root, so a reader's
    graph.json temp file may go just before its rename: the reader still
    returns its graph, and graph.json stays as it was."""
    registry = registry_module.Registry(root)
    before = registry.load_graph()
    _rewrite_in_place(_object(root, 2))
    stale = (root / "graph.json").read_bytes()
    replace = os.replace

    def swept_first(src, dst):
        with registry_module.Registry(root).batch():
            pass
        return replace(src, dst)

    monkeypatch.setattr(registry_module.os, "replace", swept_first)
    graph = registry.load_graph()
    assert graph == build_graph(registry.load_all()) != before
    assert (root / "graph.json").read_bytes() == stale
    assert sorted(p.name for p in root.iterdir()) == [".lock", "graph.json", "objects"]


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


def test_build_warnings_print_the_same_on_a_hit_and_a_miss(
    root: Path, parses, settled
) -> None:
    miss = _run("graph", "--registry", str(root))
    hit = _run("graph", "--registry", str(root))
    assert len(parses) == PRODUCTS
    assert hit == miss
    assert miss[2] == (
        "warning: doi:10.1000/p3: ORCID orcid:0000-0002-1825-0097 cited in product "
        "category 'software'; treating it as a person\n"
    )


def _lines(root: Path) -> tuple[bytes, bytes]:
    """The stamp line and the graph line of graph.json."""
    stamp, graph_line, rest = (root / "graph.json").read_bytes().split(b"\n", 2)
    assert rest == b""
    return stamp, graph_line


def _stamp(root: Path) -> list:
    return json.loads(_lines(root)[0])


def _edit_graph_line(root: Path, edit) -> None:
    """Replace the decoded graph line of graph.json by edit(graph line),
    keeping the stamp line as it is."""
    stamp, graph_line = _lines(root)
    graph_line = json.dumps(edit(json.loads(graph_line))).encode()
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line + b"\n")


def _force(root: Path, products: range) -> None:
    """Re-ingest each product with the next weights: other bytes, same size."""
    _ingest(root, {i: _doc(i, WEIGHTS[(i + 1) % len(WEIGHTS)]) for i in products}, "--force")


# Each change to a registry whose snapshot is current. After any of them
# but "nothing", the next read rebuilds: it parses every object file once.
CHANGES = {
    "nothing": lambda root: None,
    "one object rewritten in place": lambda root: _rewrite_in_place(_object(root, 2)),
    "three objects rewritten in place": lambda root: [
        _rewrite_in_place(_object(root, i)) for i in (0, 3, 5)
    ],
    "two objects forced": lambda root: _force(root, range(2, 4)),
    "a new product": lambda root: _ingest(root, {PRODUCTS: _doc(PRODUCTS, WEIGHTS[0])}),
    "a stray copy": lambda root: shutil.copy(_object(root, 1), root / "objects" / "backup.jsonld"),
    "one object deleted": lambda root: _object(root, 4).unlink(),
    "the snapshot deleted": lambda root: (root / "graph.json").unlink(),
}


@pytest.mark.parametrize("change", CHANGES)
def test_any_change_rebuilds_from_every_object_no_change_parses_none(
    root: Path, parses, settled, change
) -> None:
    """The read after any change rebuilds from every object file; the
    read after no change parses none."""
    _reads(root)
    CHANGES[change](root)
    parses.clear()  # ingest parses its input documents too
    reads = _reads(root)
    files = len(list((root / "objects").glob("*.jsonld")))
    assert len(parses) == (0 if change == "nothing" else files)
    assert reads == _fresh_reads(root)


def _target_out_of_range(root: Path, target: int) -> None:
    """Point the first citation target in the graph line outside the id table."""

    def edit(graph_line: list) -> list:
        ids, _, products, _ = graph_line
        products[0][1] = len(ids) if target >= 0 else target
        return graph_line

    _edit_graph_line(root, edit)


def _negative_product_index(root: Path) -> None:
    """Point the first product row of the graph line at id -1."""

    def edit(graph_line: list) -> list:
        graph_line[2][0][0] = -1
        return graph_line

    _edit_graph_line(root, edit)


# Damage to the graph line of a current snapshot, each with an index that
# names no entity or (as a list index would take a negative one) the wrong
# one.
NEGATIVE_INDEXES = {
    "a target index past the id table": lambda root: _target_out_of_range(root, 1),
    "a negative target index": lambda root: _target_out_of_range(root, -1),
    "a negative product index": _negative_product_index,
}


@pytest.mark.parametrize("damage", NEGATIVE_INDEXES)
def test_a_negative_index_in_a_current_snapshot_falls_back_to_a_full_parse(
    root: Path, parses, settled, damage
) -> None:
    _reads(root)
    NEGATIVE_INDEXES[damage](root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


# Damage to the graph line of a snapshot that an object rewrite made stale.
# A stale snapshot is rebuilt without its graph line being read.
STALE_DAMAGE = {
    "a negative target index": lambda root: _target_out_of_range(root, -1),
    "a target index past the id table": lambda root: _target_out_of_range(root, 1),
}


@pytest.mark.parametrize("damage", STALE_DAMAGE)
def test_a_stale_snapshot_with_a_damaged_graph_line_is_rebuilt(
    root: Path, parses, settled, damage
) -> None:
    _reads(root)
    _rewrite_in_place(_object(root, 5))
    STALE_DAMAGE[damage](root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)
    parses.clear()
    assert _reads(root) == reads
    assert parses == []


def test_a_snapshot_of_the_first_format_is_rebuilt(root: Path, parses, settled) -> None:
    """A graph.json of the first format (a stamp that is a bare sha256 of
    the objects, and a graph line) never matches, and is replaced by a
    full parse."""
    _reads(root)
    _, graph_line = _lines(root)
    stamp = hashlib.sha256(b"".join(p.read_bytes() for p in (root / "objects").iterdir()))
    (root / "graph.json").write_bytes(stamp.hexdigest().encode() + b"\n" + graph_line)
    _rewrite_in_place(_object(root, 1))
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


# Citations whose terminal classification a rebuild must keep: each is
# (citation key, entry) and weighs 0.1 in the citing map.
CITATIONS = {
    "unregistered doi as article": ("articles", {"doi": "10.3000/unregistered"}),
    "email as acknowledgment": ("acknowledgment", {"email": "helper@example.org"}),
    "url as software": ("software", {"codeRepository": "https://example.org/tool"}),
    "orcid as software": ("software", {"@id": "http://orcid.org/0000-0002-1825-0097"}),
    "url as other": ("other", {"url": "http://example.org/post"}),
    "shared id as person": ("acknowledgment", {"url": "https://example.org/shared"}),
    "shared id as product": ("software", {"codeRepository": "https://example.org/shared"}),
    "the previous product": ("articles", None),
}
CLASSIFIED = 4


def _classified_doc(i: int, cited: frozenset[str]) -> bytes:
    """Product r<i>: one author and a citation of 0.1 for each name in cited
    (a map cannot cite the shared id both ways, so the product side goes)."""
    if {"shared id as person", "shared id as product"} <= cited:
        cited = cited - {"shared id as product"}
    citation: dict[str, list] = {}
    for name in sorted(cited):
        key, entry = CITATIONS[name]
        if entry is None:
            entry = {"doi": f"10.3000/r{i - 1}"}  # r-1 is never registered
        citation.setdefault(key, []).append({**entry, "creditWeight": "0.1"})
    return json.dumps(
        {
            "@context": "http://schema.org",
            "@type": "Code",
            "doi": f"10.3000/r{i}",
            "author": [{"name": f"Author {i}", "creditWeight": f"{1 - 0.1 * len(cited):.1f}"}],
            "citation": citation,
        }
    ).encode()


CLASSIFY_STEPS = st.one_of(
    st.tuples(
        st.just("force"),
        st.integers(0, CLASSIFIED - 1),
        st.frozensets(st.sampled_from(sorted(CITATIONS))),
    ),
    st.tuples(st.just("delete-object"), st.integers(0, CLASSIFIED - 1)),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=st.lists(CLASSIFY_STEPS, min_size=1, max_size=6))
def test_terminal_classification_survives_a_rebuild(steps, tmp_path) -> None:
    """Node shapes and warnings of `graph` equal a fresh copy's after every
    change to a registry whose snapshot was current."""
    names = sorted(CITATIONS)
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        root = Path(tmp) / "reg"
        # Every citation kind is in the registry before the first change.
        _ingest(root, {i: _classified_doc(i, frozenset(names[i::2])) for i in range(CLASSIFIED)})
        for step in steps:
            _run("graph", "--registry", str(root))  # writes the snapshot
            if step[0] == "force":
                _ingest(root, {step[1]: _classified_doc(step[1], step[2])}, "--force")
            else:
                (root / "objects" / _classified_name(step[1])).unlink(missing_ok=True)
            graph = _run("graph", "--registry", str(root))
            with tempfile.TemporaryDirectory() as fresh:
                shutil.copytree(root / "objects", Path(fresh) / "objects")
                assert graph == _run("graph", "--registry", fresh), steps


def _classified_name(i: int) -> str:
    return hashlib.sha256(f"doi:10.3000/r{i}".encode()).hexdigest() + ".jsonld"


def test_a_stray_file_whose_name_is_not_utf8_changes_no_read(root: Path) -> None:
    expected = _fresh_reads(root)
    try:
        shutil.copy(_object(root, 1), os.fsencode(root / "objects") + b"/copy\xff.jsonld")
    except OSError:
        pytest.skip("this filesystem refuses names that are not UTF-8")
    for _ in range(2):  # a full parse, then a hit
        assert _reads(root) == expected
    _rewrite_in_place(_object(root, 1))
    assert _reads(root) == _fresh_reads(root)


def _close_a_cycle(root: Path) -> None:
    """Force product 0 to cite product 2, which cites product 1, which cites 0."""
    doc = json.loads(_doc(0, WEIGHTS[0]))
    doc["citation"] = {"software": [{"doi": "10.1000/p2", "creditWeight": "0.4"}]}
    _ingest(root, {0: json.dumps(doc).encode()}, "--force")


@pytest.mark.parametrize(
    ("change", "exit_code"),
    [
        (_close_a_cycle, 1),
        (lambda root: _object(root, 2).write_bytes(b"{"), 2),
    ],
    ids=["a cycle", "an object that does not parse"],
)
def test_a_rebuild_that_fails_leaves_the_snapshot_as_it_was(root: Path, change, exit_code) -> None:
    _reads(root)
    before = (root / "graph.json").read_bytes()
    change(root)
    for _ in range(2):
        assert [code for code, _, _ in _reads(root)] == [exit_code] * len(READS)
    assert [code for code, _, _ in _fresh_reads(root)] == [exit_code] * len(READS)
    assert (root / "graph.json").read_bytes() == before


def _add_edge(source: str, target: str):
    def edit(graph_line: list) -> list:
        ids, _, products, _ = graph_line
        row = next(row for row in products if ids[row[0]] == source)
        row += [ids.index(target), 0.0]
        return graph_line

    return edit


def test_an_edge_added_to_the_graph_line_under_a_valid_stamp_is_not_trusted(root: Path) -> None:
    """p2 cites p1, so the added p1 -> p2 closes a cycle that only a rebuild sees."""
    _reads(root)
    _edit_graph_line(root, _add_edge("doi:10.1000/p1", "doi:10.1000/p2"))
    assert _reads(root) == _fresh_reads(root)


@pytest.fixture()
def reads(monkeypatch) -> list[str]:
    """Names of the object files the registry reads."""
    names: list[str] = []
    read_bytes = registry_module.Registry._read_bytes

    def counting(self, path):
        names.append(Path(path).name)
        return read_bytes(self, path)

    monkeypatch.setattr(registry_module.Registry, "_read_bytes", counting)
    return names


def _clock(monkeypatch, seconds: int) -> None:
    """Run the registry's clock the given seconds ahead of the file times."""
    monkeypatch.setattr(
        registry_module, "time", SimpleNamespace(time_ns=lambda: time.time_ns() + seconds * 10**9)
    )


@pytest.fixture()
def settled(monkeypatch) -> None:
    """Every object file is older than a scan by more than a timestamp tick."""
    _clock(monkeypatch, 60)


def test_a_hit_on_a_settled_registry_reads_no_object_file(root: Path, parses, reads, settled):
    graph = _run("graph", "--registry", str(root))
    assert (len(parses), len(reads)) == (PRODUCTS, PRODUCTS)
    del parses[:], reads[:]
    assert _run("graph", "--registry", str(root)) == graph
    assert (parses, reads) == ([], [])


def test_a_hit_writes_nothing(root: Path, settled) -> None:
    _run("graph", "--registry", str(root))
    before = (root / "graph.json").stat()
    for code, _, _ in _reads(root):
        assert code == 0
    after = (root / "graph.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert sorted(p.name for p in root.iterdir()) == [".lock", "graph.json", "objects"]


def test_the_snapshot_is_a_stamp_line_and_a_graph_line(root: Path, settled) -> None:
    graph = registry_module.Registry(root).load_graph()
    data = (root / "graph.json").read_bytes()
    assert data.count(b"\n") == 2 and data.endswith(b"\n")
    stamp_line, graph_line = _lines(root)
    tag, check, names, stats = json.loads(stamp_line)
    assert tag == "credit-ledger graph snapshot 7"
    assert check == zlib.crc32(graph_line)
    objects = sorted((root / "objects").iterdir())
    assert names == "/".join(path.name for path in objects)
    assert stats == [
        field
        for st in map(os.stat, objects)
        for field in (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
    ]
    assert json.loads(graph_line) == [graph.ids, graph.kinds, graph.products, list(graph.warnings)]


def test_a_miss_returns_build_graph_of_one_load_all(root: Path, settled, monkeypatch) -> None:
    loads: list[int] = []
    built: list[object] = []
    load_all, build = registry_module.Registry.load_all, registry_module.build_graph
    monkeypatch.setattr(
        registry_module.Registry, "load_all", lambda self: loads.append(1) or load_all(self)
    )
    monkeypatch.setattr(
        registry_module, "build_graph", lambda maps: built.append(build(maps)) or built[-1]
    )
    registry = registry_module.Registry(root)
    graph = registry.load_graph()  # no graph.json yet
    assert (len(loads), built) == (1, [graph])
    assert graph == build(load_all(registry))
    del loads[:], built[:]
    assert registry.load_graph() == graph
    assert (loads, built) == ([], [])


def test_on_racily_clean_files_every_read_rebuilds_until_they_settle(
    root: Path, parses, reads, monkeypatch
) -> None:
    """A snapshot vouches for no file changed within a tick of the scan
    that recorded it, since a same-tick change could keep its stat. So
    while the files are that fresh, every read parses each object once and
    records null for the stats; once they have settled, the next read
    writes the stats it vouches for, and the read after it is a hit."""
    expected = _fresh_reads(root)
    _clock(monkeypatch, -60)
    for _ in range(2):
        del parses[:], reads[:]
        assert _reads(root) == expected
        assert (len(parses), len(reads)) == (PRODUCTS * len(READS), PRODUCTS * len(READS))
        assert _stamp(root)[3] is None
    _clock(monkeypatch, 60)
    del parses[:], reads[:]
    graph = _run("graph", "--registry", str(root))
    assert (len(parses), len(reads)) == (PRODUCTS, PRODUCTS)
    assert len(_stamp(root)[3]) == 4 * PRODUCTS
    del parses[:], reads[:]
    assert _run("graph", "--registry", str(root)) == graph
    assert (parses, reads) == ([], [])


def _fresh_graph(root: Path) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as fresh:
        shutil.copytree(root / "objects", Path(fresh) / "objects")
        return _run("graph", "--registry", fresh)


def _touch(path: Path) -> None:
    """A new mtime, the same bytes."""
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


# A change to one object file of a settled registry, after which the next
# read rebuilds.
STAT_CHANGES = {
    "touched to a new mtime": _touch,
    # Size, inode and mtime stay; the ctime moves.
    "rewritten in place with the same size": _rewrite_in_place,
}


@pytest.mark.parametrize("change", STAT_CHANGES)
def test_a_file_whose_stat_changed_makes_a_rebuild(
    root: Path, parses, reads, settled, change
) -> None:
    _run("graph", "--registry", str(root))
    STAT_CHANGES[change](_object(root, 2))
    del parses[:], reads[:]
    graph = _run("graph", "--registry", str(root))
    assert (len(parses), len(reads)) == (PRODUCTS, PRODUCTS)
    assert graph == _fresh_graph(root)
    del parses[:], reads[:]
    assert _run("graph", "--registry", str(root)) == graph  # recorded anew
    assert (parses, reads) == ([], [])


def test_a_whole_second_mtime_is_given_a_filesystem_tick_of_two_seconds(
    root: Path, reads, monkeypatch
) -> None:
    """An mtime in whole seconds may come from a filesystem that keeps only
    seconds, where a file can change a second after its recorded mtime."""
    _clock(monkeypatch, 1)  # past the 20 ms tick of sub-second times
    _run("graph", "--registry", str(root))
    assert _stamp(root)[3] is not None
    stat = _object(root, 2).stat()
    os.utime(_object(root, 2), ns=(stat.st_atime_ns, stat.st_mtime_ns // 10**9 * 10**9))
    _run("graph", "--registry", str(root))
    assert _stamp(root)[3] is None  # that file has not settled, so none is vouched for
    del reads[:]
    _run("graph", "--registry", str(root))
    assert len(reads) == PRODUCTS  # a miss


@pytest.mark.parametrize("old_format", [3, 4, 5, 6])
def test_a_snapshot_written_under_older_id_rules_is_rebuilt(tmp_path: Path, old_format) -> None:
    """A snapshot's format tag also stands for the id rules its texts were
    made under. A graph line of an earlier format naming an id that the
    current rules refuse (as a snapshot written before names refused
    control characters does) is not served: rank and graph print the ids
    rebuilt from objects/."""
    root = tmp_path / "reg"
    doc = json.dumps({
        "@context": "http://schema.org",
        "@type": "Code",
        "doi": "10.1000/eve",
        "author": [{"name": "Eve Red", "creditWeight": "1"}],
    }).encode()
    _ingest(root, {0: doc})
    assert _run("rank", "--registry", str(root))[0] == 0
    snapshot = root / "graph.json"
    _, graph_line = _lines(root)
    assert b'"name:eve red"' in graph_line
    graph_line = graph_line.replace(b'"name:eve red"', b'"name:eve\\u001b[31mred"')
    # Formats 3 to 5 have three lines: the stamp, the graph line, and a
    # per-object line of [digest, product index, category codes] records.
    # Formats 3 and 4 share one stamp: the tag, the scan start, the digests
    # of the two lines, and per object file its size, mtime, ctime, inode
    # and digest. Format 5's stamp holds the tag, the two digests and per
    # object file its size, mtime, ctime and inode. Format 6 has no
    # per-object line, and its stamp holds the tag, the graph line's
    # digest and the stats of format 5. The scan starts a minute after the
    # file last changed, so a reader of that format would serve the graph
    # line unread.
    path = root / "objects" / (hashlib.sha256(b"doi:10.1000/eve").hexdigest() + ".jsonld")
    st = path.stat()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    objects_line = json.dumps({path.name: [digest, 0, "a"]}).encode()
    stat = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
    digests = [hashlib.sha256(line).hexdigest() for line in (graph_line, objects_line)]
    tag = f"credit-ledger graph snapshot {old_format}"
    lines = [graph_line, objects_line]
    if old_format == 6:
        stamp = json.dumps([tag, digests[0], {path.name: stat}])
        lines = [graph_line]
    elif old_format == 5:
        stamp = json.dumps([tag, *digests, {path.name: stat}])
    else:
        scan_start = max(st.st_mtime_ns, st.st_ctime_ns) + 60 * 10**9
        stamp = json.dumps([tag, scan_start, *digests, {path.name: [*stat, digest]}])
    snapshot.write_bytes(b"\n".join([stamp.encode(), *lines, b""]))

    code, out, _ = _run("rank", "--registry", str(root))
    assert (code, out) == (0, "1  name:eve red  1.00000000000\n")
    code, out, _ = _run("graph", "--registry", str(root))
    assert code == 0 and '"name:eve red" [shape=ellipse];' in out and "\x1b" not in out
    assert _reads(root) == _fresh_reads(root)


# Stamp lines of the current format tag that no writer makes, given the
# graph line, its check, the joined names and the stats the writer
# vouched for: the stamp carries no check of its own, so its shape is
# checked as it is read.
FOREIGN_STAMPS = {
    "stats a list": lambda line, check, names, stats: [check, names, []],
    "stats null": lambda line, check, names, stats: [check, names, None],
    "stats a number": lambda line, check, names, stats: [check, names, 7],
    "no digest": lambda line, check, names, stats: [names, stats],
    "no stats": lambda line, check, names, stats: [check, names],
    # Format 5's shape: a second check, of a per-object line.
    "two digests": lambda line, check, names, stats: [check, zlib.crc32(b"{}"), names, stats],
    # The same stats under the names in reverse order.
    "other names": lambda line, check, names, stats: [
        check, "/".join(names.split("/")[::-1]), stats
    ],
    # Format 6's stamp: the sha256 of the graph line and the stats by name.
    "format 6's stamp": lambda line, check, names, stats: [
        hashlib.sha256(line).hexdigest(),
        {name: stats[4 * i:4 * i + 4] for i, name in enumerate(names.split("/"))},
    ],
}


@pytest.mark.parametrize("stamp", FOREIGN_STAMPS)
def test_a_current_tag_over_a_foreign_stamp_is_rebuilt(
    root: Path, parses, settled, stamp
) -> None:
    _reads(root)
    stamp_line, graph_line = _lines(root)
    tag, check, names, stats = json.loads(stamp_line)
    fields = [tag, *FOREIGN_STAMPS[stamp](graph_line, check, names, stats)]
    (root / "graph.json").write_bytes(json.dumps(fields).encode() + b"\n" + graph_line + b"\n")
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


def _touch_all(root: Path) -> None:
    for path in (root / "objects").iterdir():
        os.utime(path)


# Writes after which the next credit finds graph.json stale and rewrites it.
WRITES = {
    "an ingest": lambda root: _ingest(root, {PRODUCTS: _doc(PRODUCTS, WEIGHTS[0])}),
    "an ingest --force": lambda root: _force(root, range(2, 4)),
    "graph.json deleted": lambda root: (root / "graph.json").unlink(),
    "every object file touched": _touch_all,
}
CREDIT = ["credit", "--product", "doi:10.1000/p5"]


@pytest.mark.parametrize("write", WRITES)
def test_after_a_write_and_a_credit_the_next_read_is_a_hit(
    root: Path, parses, reads, settled, write
) -> None:
    _run("graph", "--registry", str(root))
    WRITES[write](root)
    code, out, _ = _run(*CREDIT, "--registry", str(root))
    assert code == 0 and out
    del parses[:], reads[:]
    registry = registry_module.Registry(root)
    graph = registry.load_graph()
    assert (parses, reads) == ([], [])
    assert graph == build_graph(registry.load_all())
    before = (root / "graph.json").stat()
    assert _reads(root) == _fresh_reads(root)
    after = (root / "graph.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_credit_on_a_fresh_snapshot_hashes_no_object_and_writes_nothing(
    root: Path, settled, monkeypatch
) -> None:
    """Its hit test computes one crc32, over the graph line; the sha256s
    it computes are of product ids, for the object names."""
    _run("graph", "--registry", str(root))
    before = (root / "graph.json").stat()
    hashed: list[bytes] = []
    checked: list[bytes] = []
    sha256, crc32 = hashlib.sha256, zlib.crc32
    monkeypatch.setattr(
        hashlib, "sha256", lambda data: hashed.append(bytes(data)) or sha256(data)
    )
    monkeypatch.setattr(
        registry_module,
        "zlib",
        SimpleNamespace(crc32=lambda data: checked.append(bytes(data)) or crc32(data)),
    )
    flags = ([], ["--format", "json"], ["--max-depth", "2"], ["--entity", "name:author 5"])
    for flag in flags:
        code, _, _ = _run(*CREDIT, *flag, "--registry", str(root))
        assert code == 0
    assert checked == [_lines(root)[1]] * len(flags)
    objects = {path.read_bytes() for path in (root / "objects").iterdir()}
    assert hashed and not objects & set(hashed)
    after = (root / "graph.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize(
    ("change", "exit_code"),
    [
        (_close_a_cycle, 1),
        (lambda root: _object(root, 2).write_bytes(b"{"), 2),
    ],
    ids=["a cycle", "an object that does not parse"],
)
def test_a_credit_that_fails_leaves_the_snapshot_as_it_was(
    root: Path, settled, change, exit_code
) -> None:
    _reads(root)
    before = (root / "graph.json").read_bytes()
    change(root)
    assert _run(*CREDIT, "--registry", str(root))[0] == exit_code
    assert (root / "graph.json").read_bytes() == before


def test_credit_creates_no_snapshot_for_a_cyclic_an_empty_or_a_missing_registry(
    tmp_path: Path,
) -> None:
    cyclic = tmp_path / "cyclic"
    _run("ingest", "--registry", str(cyclic),
         *(str(fixture_path(name)) for name in ("cycle_x.jsonld", "cycle_y.jsonld")))
    assert _run("credit", "--product", "doi:10.8888/x", "--registry", str(cyclic))[0] == 1
    assert sorted(p.name for p in cyclic.iterdir()) == [".lock", "objects"]
    empty = tmp_path / "empty"
    (empty / "objects").mkdir(parents=True)
    assert _run(*CREDIT, "--registry", str(empty))[0] == 1
    assert sorted(p.name for p in empty.iterdir()) == ["objects"]
    missing = tmp_path / "missing"
    assert _run(*CREDIT, "--registry", str(missing))[0] == 1
    assert not missing.exists()
