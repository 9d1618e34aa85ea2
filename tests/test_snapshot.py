"""The graph snapshot behind `rank` and `graph`: never stale, never required.

`rank` and `graph` read the citation graph through Registry.load_graph,
which keeps a derived graph.json keyed to the stat and the digest of every
object file. `credit` parses every object file, and rewrites graph.json
from those maps when it finds it stale.
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


def _objects_line(root: Path) -> dict:
    """The per-object line of graph.json, decoded."""
    return json.loads((root / "graph.json").read_bytes().split(b"\n")[2])


def _replace_objects_line(root: Path, text: str) -> None:
    """Keep the stamp and graph lines of graph.json and replace what follows."""
    stamp, graph_line, _ = (root / "graph.json").read_bytes().split(b"\n", 2)
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line + b"\n" + text.encode())


def _force(root: Path, products: range) -> None:
    """Re-ingest each product with the next weights: other bytes, same size."""
    _ingest(root, {i: _doc(i, WEIGHTS[(i + 1) % len(WEIGHTS)]) for i in products}, "--force")


def _stray_copy(root: Path) -> None:
    shutil.copy(_object(root, 1), root / "objects" / "backup.jsonld")


def _truncate_objects_line(root: Path) -> None:
    os.truncate(root / "graph.json", (root / "graph.json").stat().st_size - 9)


# Each change to a registry whose snapshot is current, and how many object
# files the next read must parse.
CHANGES = {
    "nothing": (lambda root: None, 0),
    "one object rewritten in place": (lambda root: _rewrite_in_place(_object(root, 2)), 1),
    "three objects rewritten in place": (
        lambda root: [_rewrite_in_place(_object(root, i)) for i in (0, 3, 5)],
        3,
    ),
    "two objects forced": (lambda root: _force(root, range(2, 4)), 2),
    "a new product": (lambda root: _ingest(root, {PRODUCTS: _doc(PRODUCTS, WEIGHTS[0])}), 1),
    "a stray copy": (_stray_copy, 1),
    "one object deleted": (lambda root: _object(root, 4).unlink(), 0),
    "the snapshot deleted": (lambda root: (root / "graph.json").unlink(), PRODUCTS),
    # A hit never reads the per-object line; a refresh that cannot decode it
    # parses every object file.
    "the per-object line truncated": (_truncate_objects_line, 0),
    "an object rewritten and the per-object line truncated": (
        lambda root: (_rewrite_in_place(_object(root, 0)), _truncate_objects_line(root)),
        PRODUCTS,
    ),
}


@pytest.mark.parametrize("change", CHANGES)
def test_a_refresh_parses_only_the_objects_that_changed(
    root: Path, parses, settled, change
) -> None:
    _reads(root)
    apply, expected = CHANGES[change]
    apply(root)
    parses.clear()  # ingest parses its input documents too
    reads = _reads(root)
    assert len(parses) == expected
    assert reads == _fresh_reads(root)


def test_a_stray_file_is_recorded_and_not_parsed_again(root: Path, parses) -> None:
    _stray_copy(root)
    _reads(root)
    assert _objects_line(root)["backup.jsonld"][1:] == [None, ""]
    _rewrite_in_place(_object(root, 3))
    parses.clear()
    reads = _reads(root)
    assert len(parses) == 1
    assert reads == _fresh_reads(root)


def _edit_record(edit):
    """Damage that replaces object 1's record in the per-object line by
    edit(record, record of object 2)."""

    def damage(root: Path) -> None:
        objects = _objects_line(root)
        name = _object(root, 1).name
        objects[name] = edit(objects[name], objects[_object(root, 2).name])
        _replace_objects_line(root, json.dumps(objects) + "\n")

    return damage


def _target_out_of_range(root: Path, target: int) -> None:
    """Point the first citation target in the graph line outside the id table."""
    stamp, graph_line, objects_line = (root / "graph.json").read_bytes().split(b"\n", 2)
    ids, kinds, products, warnings = json.loads(graph_line)
    products[0][1] = len(ids) if target >= 0 else target
    graph_line = json.dumps([ids, kinds, products, warnings]).encode()
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line + b"\n" + objects_line)


# Damage to the per-object line of a stale snapshot. Each must fall back to
# parsing every object file.
DAMAGE = {
    "truncated to nothing": lambda root: _replace_objects_line(root, ""),
    "truncated mid-record": lambda root: _replace_objects_line(
        root, (root / "graph.json").read_bytes().split(b"\n")[2][:150].decode()
    ),
    "a list": lambda root: _replace_objects_line(root, "[]\n"),
    "null": lambda root: _replace_objects_line(root, "null\n"),
    "a record of two fields": _edit_record(lambda record, other: record[:2]),
    "a category code too few": _edit_record(
        lambda record, other: [record[0], record[1], record[2][:-1]]
    ),
    "an unknown category code": _edit_record(lambda record, other: [record[0], record[1], "zz"]),
    "a product index that is text": _edit_record(
        lambda record, other: [record[0], "0", record[2]]
    ),
    "a product index past the id table": _edit_record(
        lambda record, other: [record[0], 10_000, record[2]]
    ),
    "a negative product index": _edit_record(lambda record, other: [record[0], -1, record[2]]),
    "a record naming another product": _edit_record(
        lambda record, other: [record[0], other[1], record[2]]
    ),
    "a target index past the id table": lambda root: _target_out_of_range(root, 1),
    "a negative target index": lambda root: _target_out_of_range(root, -1),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_per_object_line_falls_back_to_a_full_parse(
    root: Path, parses, damage
) -> None:
    _reads(root)
    _rewrite_in_place(_object(root, 5))
    DAMAGE[damage](root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


def _negative_product_index(root: Path) -> None:
    """Point the first product row of the graph line at id -1."""
    stamp, graph_line, objects_line = (root / "graph.json").read_bytes().split(b"\n", 2)
    ids, kinds, products, warnings = json.loads(graph_line)
    products[0][0] = -1
    graph_line = json.dumps([ids, kinds, products, warnings]).encode()
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line + b"\n" + objects_line)


# Damage to the graph line of a current snapshot that a list index would
# still accept, naming the wrong entity.
NEGATIVE_INDEXES = {
    "a negative target index": lambda root: _target_out_of_range(root, -1),
    "a negative product index": _negative_product_index,
}


@pytest.mark.parametrize("damage", NEGATIVE_INDEXES)
def test_a_negative_index_in_a_current_snapshot_falls_back_to_a_full_parse(
    root: Path, parses, damage
) -> None:
    _reads(root)
    NEGATIVE_INDEXES[damage](root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


def test_records_of_files_that_no_longer_exist_are_ignored(root: Path, parses) -> None:
    _reads(root)
    _object(root, 4).unlink()
    _ingest(root, {PRODUCTS: _doc(PRODUCTS, WEIGHTS[0])})
    assert _object(root, 4).name in _objects_line(root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == 1  # the new product
    assert _object(root, 4).name not in _objects_line(root)
    assert reads == _fresh_reads(root)


def test_a_snapshot_of_the_first_format_is_rebuilt(root: Path, parses) -> None:
    """A graph.json written before the per-object line existed (a stamp and
    a graph line only) never matches, and is replaced by a full parse."""
    _reads(root)
    stamp, graph_line, _ = (root / "graph.json").read_bytes().split(b"\n", 2)
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line)
    _rewrite_in_place(_object(root, 1))
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)
    assert len(_objects_line(root)) == PRODUCTS


# Citations whose terminal classification a refresh must keep: each is
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
def test_terminal_classification_survives_a_refresh(steps, tmp_path) -> None:
    """Node shapes and warnings of `graph` equal a fresh copy's after every
    change, while the maps of unchanged objects come from the snapshot."""
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
def test_a_refresh_that_fails_leaves_the_snapshot_as_it_was(root: Path, change, exit_code) -> None:
    _reads(root)
    before = (root / "graph.json").read_bytes()
    change(root)
    for _ in range(2):
        assert [code for code, _, _ in _reads(root)] == [exit_code] * len(READS)
    assert [code for code, _, _ in _fresh_reads(root)] == [exit_code] * len(READS)
    assert (root / "graph.json").read_bytes() == before


def _edit_graph_line(root: Path, edit) -> None:
    """Replace the decoded graph line of graph.json by edit(graph line),
    keeping the stamp line and the per-object line as they are."""
    stamp, graph_line, objects_line = (root / "graph.json").read_bytes().split(b"\n", 2)
    graph_line = json.dumps(edit(json.loads(graph_line))).encode()
    (root / "graph.json").write_bytes(stamp + b"\n" + graph_line + b"\n" + objects_line)


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


def test_a_category_flipped_in_the_per_object_line_is_not_trusted(root: Path) -> None:
    _reads(root)
    _rewrite_in_place(_object(root, 5))  # the next read refreshes
    stamp, graph_line, objects_line = (root / "graph.json").read_bytes().split(b"\n", 2)
    objects = json.loads(objects_line)
    record = objects[_object(root, 1).name]
    record[2] = "r" + record[2][1:]  # the author becomes an article
    (root / "graph.json").write_bytes(
        stamp + b"\n" + graph_line + b"\n" + json.dumps(objects).encode() + b"\n"
    )
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


def test_on_racily_clean_files_the_next_read_is_a_refresh_that_hashes_and_parses_none(
    root: Path, parses, reads, monkeypatch
) -> None:
    """A snapshot vouches for no file changed within a tick of the scan
    that recorded it, since a same-tick change could keep its stat. So the
    next read is a refresh: it hashes every file against its recorded
    digest, parses none, and rewrites graph.json."""
    _clock(monkeypatch, -60)
    _run("graph", "--registry", str(root))
    before = (root / "graph.json").stat()
    del parses[:], reads[:]
    _run("graph", "--registry", str(root))
    assert (len(parses), len(reads)) == (0, PRODUCTS)
    assert (root / "graph.json").stat().st_ino != before.st_ino


def test_a_racily_clean_registry_with_a_damaged_per_object_line_parses_every_object(
    root: Path, parses, monkeypatch
) -> None:
    """A snapshot vouches for no file changed within a tick of its scan, so
    the next read refreshes; with the per-object line damaged, no digest
    is left to hash those files against, and each is parsed."""
    _clock(monkeypatch, -60)
    _reads(root)
    _truncate_objects_line(root)
    parses.clear()
    reads = _reads(root)
    assert len(parses) == PRODUCTS
    assert reads == _fresh_reads(root)


def _fresh_graph(root: Path) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as fresh:
        shutil.copytree(root / "objects", Path(fresh) / "objects")
        return _run("graph", "--registry", fresh)


def _touch(path: Path) -> None:
    """A new mtime, the same bytes."""
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


# A change to one object file of a settled registry, and whether the next
# read parses it after reading it.
STAT_CHANGES = {
    "touched to a new mtime": (_touch, 0),
    # Size, inode and mtime stay; the ctime moves.
    "rewritten in place with the same size": (_rewrite_in_place, 1),
}


@pytest.mark.parametrize("change", STAT_CHANGES)
def test_a_file_whose_stat_changed_is_read_and_hashed(
    root: Path, parses, reads, settled, change
) -> None:
    _run("graph", "--registry", str(root))
    apply, parsed = STAT_CHANGES[change]
    apply(_object(root, 2))
    del parses[:], reads[:]
    graph = _run("graph", "--registry", str(root))
    assert (len(parses), reads) == (parsed, [_object(root, 2).name])
    assert graph == _fresh_graph(root)
    del parses[:], reads[:]
    assert _run("graph", "--registry", str(root)) == graph  # recorded anew
    assert (parses, reads) == ([], [])


def test_a_refresh_after_an_ingest_reads_only_the_new_file(root: Path, parses, reads, settled):
    _run("graph", "--registry", str(root))
    _ingest(root, {PRODUCTS: _doc(PRODUCTS, WEIGHTS[0])})
    del parses[:], reads[:]
    graph = _run("graph", "--registry", str(root))
    assert (len(parses), reads) == (1, [_object(root, PRODUCTS).name])
    assert graph == _fresh_graph(root)


def test_a_whole_second_mtime_is_given_a_filesystem_tick_of_two_seconds(
    root: Path, reads, monkeypatch
) -> None:
    """An mtime in whole seconds may come from a filesystem that keeps only
    seconds, where a file can change a second after its recorded mtime."""
    _clock(monkeypatch, 1)  # past the 20 ms tick of sub-second times
    stat = _object(root, 2).stat()
    os.utime(_object(root, 2), ns=(stat.st_atime_ns, stat.st_mtime_ns // 10**9 * 10**9))
    _run("graph", "--registry", str(root))
    del reads[:]
    _run("graph", "--registry", str(root))
    assert reads == [_object(root, 2).name]


@pytest.mark.parametrize("old_format", [3, 4])
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
    _, graph_line, objects_line = snapshot.read_bytes().split(b"\n", 2)
    assert b'"name:eve red"' in graph_line
    graph_line = graph_line.replace(b'"name:eve red"', b'"name:eve\\u001b[31mred"') + b"\n"
    # Formats 3 and 4 share one stamp: the tag, the scan start, the digests
    # of the two lines, and per object file its size, mtime, ctime, inode
    # and digest. The scan starts a minute after the file last changed, so
    # a reader of that format would serve the graph line unread.
    path = root / "objects" / (hashlib.sha256(b"doi:10.1000/eve").hexdigest() + ".jsonld")
    st = path.stat()
    stats = {
        path.name: [
            st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino,
            hashlib.sha256(path.read_bytes()).hexdigest(),
        ]
    }
    scan_start = max(st.st_mtime_ns, st.st_ctime_ns) + 60 * 10**9
    digests = [hashlib.sha256(line).hexdigest() for line in (graph_line, objects_line)]
    stamp = json.dumps([f"credit-ledger graph snapshot {old_format}", scan_start, *digests, stats])
    snapshot.write_bytes(stamp.encode() + b"\n" + graph_line + objects_line)

    code, out, _ = _run("rank", "--registry", str(root))
    assert (code, out) == (0, "1  name:eve red  1.00000000000\n")
    code, out, _ = _run("graph", "--registry", str(root))
    assert code == 0 and '"name:eve red" [shape=ellipse];' in out and "\x1b" not in out
    assert _reads(root) == _fresh_reads(root)


# Stamp lines of the current format tag that no writer makes: the stamp
# carries no digest of its own, so its shape is checked as it is read.
FOREIGN_STAMPS = {
    "stats a list": lambda digests: [*digests, []],
    "stats null": lambda digests: [*digests, None],
    "stats a number": lambda digests: [*digests, 7],
    "one digest": lambda digests: [digests[0], {}],
    "no stats": lambda digests: digests,
}


@pytest.mark.parametrize("stamp", FOREIGN_STAMPS)
def test_a_current_tag_over_a_foreign_stamp_is_rebuilt(root: Path, parses, stamp) -> None:
    _reads(root)
    snapshot = root / "graph.json"
    _, graph_line, objects_line = snapshot.read_bytes().split(b"\n", 2)
    digests = [hashlib.sha256(line).hexdigest() for line in (graph_line, objects_line[:-1])]
    fields = ["credit-ledger graph snapshot 5", *FOREIGN_STAMPS[stamp](digests)]
    snapshot.write_bytes(json.dumps(fields).encode() + b"\n" + graph_line + b"\n" + objects_line)
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
    _run("graph", "--registry", str(root))
    before = (root / "graph.json").stat()
    hashed: list[bytes] = []
    described: list[object] = []
    sha256, citations = hashlib.sha256, registry_module.citations
    monkeypatch.setattr(
        registry_module,
        "hashlib",
        SimpleNamespace(sha256=lambda data: hashed.append(bytes(data)) or sha256(data)),
    )
    monkeypatch.setattr(
        registry_module, "citations", lambda creditmap: described.append(creditmap) or citations(creditmap)
    )
    for flags in ([], ["--format", "json"], ["--max-depth", "2"], ["--entity", "name:author 5"]):
        code, _, _ = _run(*CREDIT, *flags, "--registry", str(root))
        assert code == 0
    objects = {path.read_bytes() for path in (root / "objects").iterdir()}
    assert described == []
    assert not objects & set(hashed)
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
