"""CLI fuzz: mutated fixture documents never crash `validate` or `ingest`,
and whatever `ingest` accepts never makes a later read fail.

Each example takes one to three fixture documents and mutates each a few
times: a value (or the whole document) is replaced with random JSON,
including deep nesting, huge numbers and unpaired surrogate escapes; a key
or array item is dropped; or an unknown or known key is added. The
properties:

- no exception escapes `main`, and stdout and stderr are valid UTF-8;
- every exit code is 0, 1 or 2;
- after the ingest, `credit` of each registered product, `rank` and `graph`
  exit 0, unless the registered maps cite each other in a cycle, when all
  of them exit 1 naming it.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_FILES, fixture_bytes
from credit_ledger import Registry, cli

FIXTURES = (*CORPUS_FILES, "article_creditmap.jsonld", "cycle_x.jsonld", "person_snippet.jsonld")
KNOWN_KEYS = (
    "@context", "@type", "@id", "doi", "url", "headline", "dateCreated", "keywords",
    "author", "citation", "articles", "software", "acknowledgment", "other", "name",
    "codeRepository", "email", "license", "creditWeight",
)


@dataclass(frozen=True)
class Raw:
    """JSON text written as it is: values json.dumps cannot or will not write."""

    text: str


def _nest(depth: int, opener: str, closer: str) -> Raw:
    return Raw(opener * depth + "1" + closer * depth)


RAW = st.one_of(
    st.sampled_from(
        [
            Raw("9" * 400),
            Raw("-" + "1" * 5000),
            Raw("0." + "0" * 400 + "1"),
            Raw("1e400"),
            Raw("-1e400"),
            Raw("NaN"),
            Raw("Infinity"),
            Raw('"\\ud800"'),
            Raw('"\\udfff x"'),
            Raw('"\\ud83d\\ude00"'),
        ]
    ),
    st.integers(1, 3000).map(lambda n: _nest(n, "[", "]")),
    st.integers(1, 3000).map(lambda n: _nest(n, '{"a":', "}")),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.sampled_from(["0.5", "1", "0", "-0.1", "http://schema.org", "10.9999/a", "doi:10.9999/b"]),
    RAW,
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
KEYS = st.sampled_from(KNOWN_KEYS) | st.text(min_size=1, max_size=6)


def _dump(value) -> str:
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


def _slots(value, parent=None, key=None):
    """(container, key) of every value under value, itself as (None, None)."""
    yield parent, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _slots(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _slots(v, value, i)


def _mutate(doc, data):
    slots = list(_slots(doc))
    parent, key = data.draw(st.sampled_from(slots))
    target = doc if parent is None else parent[key]
    how = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "replace":
        value = data.draw(JSON)
        if parent is None:
            return value
        parent[key] = value
    elif how == "drop" and parent is not None:
        del parent[key]
    elif how == "add" and isinstance(target, dict):
        target[data.draw(KEYS)] = data.draw(JSON)
    return doc


def _run(*argv: str) -> tuple[int, str, str]:
    """main() in-process, with stdout and stderr encoding strictly to UTF-8."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out.flush()
        err.flush()
    assert code in (0, 1, 2), argv
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def _has_cycle(edges: dict[str, set[str]]) -> bool:
    """Brute force: some product reaches itself."""
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(edges.get(node, ()))
    return False


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mutated_documents_never_crash_and_never_break_later_reads(data) -> None:
    names = data.draw(st.lists(st.sampled_from(FIXTURES), min_size=1, max_size=3))
    docs = []
    for name in names:
        doc = json.loads(fixture_bytes(name))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        docs.append(doc)

    with tempfile.TemporaryDirectory() as tmp:
        registry = str(Path(tmp) / "reg")
        paths = []
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i}.jsonld"
            path.write_text(_dump(doc), encoding="utf-8")
            paths.append(str(path))

        _run("validate", *paths)
        _run("validate", "--strict", *paths)
        if data.draw(st.booleans()):
            corpus = [str(Path(tmp) / name) for name in CORPUS_FILES]
            for name, path in zip(CORPUS_FILES, corpus):
                Path(path).write_bytes(fixture_bytes(name))
            assert _run("ingest", "--registry", registry, *corpus)[0] == 0
        force = ("--force",) if data.draw(st.booleans()) else ()
        _run("ingest", "--registry", registry, *force, *paths)

        maps = Registry(registry).load_all()
        products = {m.product.id for m in maps}
        edges = {
            m.product.id: {e.entity for e in m.entries} & products for m in maps
        }
        cyclic = _has_cycle(edges)
        reads = [("rank",), ("graph",)] + [("credit", "--product", p) for p in sorted(products)]
        for argv in reads:
            code, out, err = _run(argv[0], "--registry", registry, *argv[1:])
            if cyclic:
                assert (code, out) == (1, ""), argv
                assert err.startswith("error: citation cycle: "), err
            else:
                assert code == 0, (argv, err)
