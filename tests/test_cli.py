"""Command line behavior: exit codes, output formats, error reporting."""

from __future__ import annotations

import fcntl
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    AUTHOR_C,
    CORPUS_FILES,
    DEV1,
    PRODUCT_A,
    PRODUCT_B,
    PRODUCT_C,
    fixture_path,
)
from credit_ledger import cli

EXPECTED_DOT = """digraph creditmap {
  "doi:10.9999/a" [shape=box];
  "doi:10.9999/b" [shape=box];
  "doi:10.9999/c" [shape=box];
  "orcid:0000-0001-5109-3700" [shape=ellipse];
  "orcid:0000-0002-1694-233X" [shape=ellipse];
  "orcid:0000-0002-1825-0097" [shape=ellipse];
  "orcid:0000-0002-7007-4334" [shape=ellipse];
  "orcid:0000-0003-0204-8772" [shape=ellipse];
  "url:https://github.com/example/gridgen" [shape=box, style=dashed];
  "url:https://github.com/example/meshio" [shape=box, style=dashed];
  "url:https://github.com/example/quadrature" [shape=box, style=dashed];
  "url:https://github.com/example/sparsekit" [shape=box, style=dashed];
  "doi:10.9999/a" -> "orcid:0000-0001-5109-3700" [label="0.2000"];
  "doi:10.9999/a" -> "orcid:0000-0002-1694-233X" [label="0.1000"];
  "doi:10.9999/a" -> "orcid:0000-0002-1825-0097" [label="0.5000"];
  "doi:10.9999/a" -> "url:https://github.com/example/gridgen" [label="0.0500"];
  "doi:10.9999/a" -> "url:https://github.com/example/meshio" [label="0.0500"];
  "doi:10.9999/a" -> "url:https://github.com/example/quadrature" [label="0.0500"];
  "doi:10.9999/a" -> "url:https://github.com/example/sparsekit" [label="0.0500"];
  "doi:10.9999/b" -> "doi:10.9999/a" [label="0.2500"];
  "doi:10.9999/b" -> "orcid:0000-0002-7007-4334" [label="0.7500"];
  "doi:10.9999/c" -> "doi:10.9999/b" [label="0.1000"];
  "doi:10.9999/c" -> "orcid:0000-0003-0204-8772" [label="0.9000"];
}
"""


@pytest.fixture()
def registry_dir(tmp_path: Path) -> str:
    return str(tmp_path / "reg")


@pytest.fixture()
def loaded_registry(registry_dir: str, run_cli) -> str:
    paths = [str(fixture_path(name)) for name in CORPUS_FILES]
    code, out, err = run_cli("ingest", "--registry", registry_dir, *paths)
    assert code == 0, err
    return registry_dir


def test_validate_clean_file_is_silent(run_cli) -> None:
    code, out, err = run_cli("validate", str(fixture_path("article_creditmap.jsonld")))
    assert (code, out, err) == (0, "", "")


def test_validate_reports_violations_one_per_line(run_cli, tmp_path: Path) -> None:
    bad = tmp_path / "bad.jsonld"
    bad.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/bad",
                "author": [{"name": "Someone", "creditWeight": "0.5"}],
            }
        )
    )
    code, out, err = run_cli("validate", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    path, violation_code, message = lines[0].split(":", 2)
    assert path == str(bad)
    assert violation_code == "WeightSum"
    assert "0.5" in message


def test_validate_prints_warnings_before_violations(run_cli, tmp_path: Path) -> None:
    doc = tmp_path / "both.jsonld"
    doc.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/both",
                "publisher": "Example Press",
                "author": [
                    {"name": "A", "creditWeight": "0.5"},
                    {"name": "B", "creditWeight": "0.4"},
                ],
            }
        )
    )
    assert run_cli("validate", str(doc)) == (
        1,
        f"{doc}:UnknownKey:unrecognized key publisher\n"
        f"{doc}:WeightSum:credit weights sum to 0.9, not 1\n",
        "",
    )


def test_validate_unreadable_file_is_an_io_error(run_cli, tmp_path: Path) -> None:
    code, out, err = run_cli("validate", str(tmp_path / "missing.jsonld"))
    assert code == 2
    assert out == ""
    assert "missing.jsonld" in err


def test_validate_aggregates_the_worst_exit_code(run_cli, tmp_path: Path) -> None:
    good = str(fixture_path("software_a.jsonld"))
    code, _, _ = run_cli("validate", good, str(tmp_path / "missing.jsonld"))
    assert code == 2


def test_validate_strict_flags_unknown_keys(run_cli, tmp_path: Path) -> None:
    doc = tmp_path / "extra.jsonld"
    doc.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/extra",
                "publisher": "Example Press",
                "author": [{"name": "Someone", "creditWeight": "1"}],
            }
        )
    )
    code, out, _ = run_cli("validate", str(doc), "--strict")
    assert code == 1
    assert out.splitlines()[0].split(":", 2)[1] == "UnknownKey"

    # lenient mode reports the same key as a warning and accepts the file
    code, out, _ = run_cli("validate", str(doc))
    assert code == 0
    assert out.splitlines()[0].split(":", 2)[1] == "UnknownKey"


def test_ingest_registers_each_file(registry_dir: str, run_cli) -> None:
    paths = [str(fixture_path(name)) for name in CORPUS_FILES]
    code, out, err = run_cli("ingest", "--registry", registry_dir, *paths)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        f"registered {PRODUCT_A}",
        f"registered {PRODUCT_B}",
        f"registered {PRODUCT_C}",
    ]


def test_ingest_rejects_duplicates_unless_forced(loaded_registry: str, run_cli) -> None:
    path = str(fixture_path("software_a.jsonld"))
    code, out, _ = run_cli("ingest", "--registry", loaded_registry, path)
    assert code == 1
    assert "DuplicateProduct" in out
    code, out, _ = run_cli("ingest", "--registry", loaded_registry, path, "--force")
    assert code == 0
    assert out == f"registered {PRODUCT_A}\n"


def test_ingest_warns_when_identity_falls_back_to_the_headline(
    registry_dir: str, run_cli
) -> None:
    code, out, err = run_cli(
        "ingest", "--registry", registry_dir, str(fixture_path("article_creditmap.jsonld"))
    )
    assert code == 0
    assert out == "registered name:implementing transitive credit with json-ld\n"
    assert "no persistent identifier" in err


def test_ingest_reports_validation_violations(registry_dir: str, run_cli, tmp_path: Path) -> None:
    bad = tmp_path / "bad.jsonld"
    bad.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/bad",
                "author": [{"name": "Someone", "creditWeight": "0.5"}],
            }
        )
    )
    code, out, _ = run_cli("ingest", "--registry", registry_dir, str(bad))
    assert code == 1
    assert out.splitlines()[0].split(":", 2)[1] == "WeightSum"


def test_ingest_takes_the_lock_once_and_fsyncs_each_object_then_the_directory(
    registry_dir: str, run_cli, sync_calls: dict[str, int]
) -> None:
    paths = [str(fixture_path(name)) for name in CORPUS_FILES]
    code, _, err = run_cli("ingest", "--registry", registry_dir, *paths)
    assert code == 0, err
    assert sync_calls == {"flock": 1, "fsync": len(paths) + 1}


def test_ingest_under_a_held_lock_fails_once(registry_dir: str, run_cli) -> None:
    Path(registry_dir).mkdir()
    fd = os.open(Path(registry_dir) / ".lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        paths = [str(fixture_path(name)) for name in CORPUS_FILES]
        code, out, err = run_cli("ingest", "--registry", registry_dir, *paths)
    finally:
        os.close(fd)
    assert code == 2
    assert out == ""
    assert err == f"error: registry at {registry_dir} is locked by another writer\n"


def test_mixed_batch_reports_each_file_exactly(
    registry_dir: str, run_cli, tmp_path: Path
) -> None:
    missing = tmp_path / "missing.jsonld"
    not_json = tmp_path / "not-json.jsonld"
    not_json.write_text("not json\n")
    short = tmp_path / "short.jsonld"
    short.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/short",
                "author": [
                    {"name": "A", "creditWeight": "0.5"},
                    {"name": "B", "creditWeight": "0.4"},
                ],
            }
        )
    )
    unknown = tmp_path / "unknown.jsonld"
    unknown.write_text(
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "doi": "10.1/unknown",
                "publisher": "Example Press",
                "author": [{"@type": "Robot", "name": "R2", "creditWeight": "1"}],
            }
        )
    )
    article = fixture_path("article_creditmap.jsonld")
    good = fixture_path("software_a.jsonld")
    paths = [str(p) for p in (missing, not_json, short, unknown, article, good)]
    article_id = "name:implementing transitive credit with json-ld"

    not_found = f"{missing}: [Errno 2] No such file or directory: {str(missing)!r}\n"
    not_json_line = (
        f"{not_json}:CreditmapSyntaxError:document is not valid JSON: "
        "Expecting value: line 1 column 1 (char 0)\n"
    )
    short_line = f"{short}:WeightSum:credit weights sum to 0.9, not 1\n"
    unknown_key_line = f"{unknown}:UnknownKey:unrecognized key publisher\n"

    assert run_cli("validate", *paths) == (
        2,
        not_json_line
        + short_line
        + unknown_key_line
        + f"{unknown}:UnknownType:author[0]: unrecognized @type 'Robot'\n",
        not_found,
    )
    assert run_cli("validate", "--strict", *paths) == (
        2,
        not_json_line + short_line + unknown_key_line,
        not_found,
    )
    assert run_cli("ingest", "--registry", registry_dir, *paths) == (
        2,
        not_json_line
        + short_line
        + "registered doi:10.1/unknown\n"
        + f"registered {article_id}\n"
        + f"registered {PRODUCT_A}\n",
        not_found
        + f"warning: {article}: product has no persistent identifier; "
        f"registered as {article_id}\n",
    )
    assert run_cli("ingest", "--registry", registry_dir, *paths) == (
        2,
        not_json_line
        + short_line
        + f"{unknown}:DuplicateProduct:doi:10.1/unknown is already registered\n"
        + f"{article}:DuplicateProduct:{article_id} is already registered\n"
        + f"{good}:DuplicateProduct:{PRODUCT_A} is already registered\n",
        not_found,
    )


SOMEONE = {"name": "Someone", "creditWeight": "0.5"}

# Each document names an entity (or itself) by a key its descriptive keys
# would not re-derive; the stored object must still parse to the same ids.
ROUND_TRIP_CASES = {
    "free-text-author-id": (
        {"doi": "10.1/p", "author": [{"@id": "Jane Doe", "creditWeight": "1"}]},
        "doi:10.1/p",
        "name:jane doe",
    ),
    "free-text-product-id-with-another-headline": (
        {"@id": "My Tool", "headline": "Other Title", "author": [SOMEONE | {"creditWeight": "1"}]},
        "name:my tool",
        "name:someone",
    ),
    "free-text-author-id-with-another-name": (
        {"doi": "10.1/p", "author": [{"@id": "Jane Doe", "name": "J. Doe", "creditWeight": "1"}]},
        "doi:10.1/p",
        "name:jane doe",
    ),
    "email-id-with-another-email": (
        {"doi": "10.1/p", "author": [{"@id": "a@b.org", "email": "c@d.org", "creditWeight": "1"}]},
        "doi:10.1/p",
        "email:a@b.org",
    ),
    "url-id-with-another-repository": (
        {
            "doi": "10.1/p",
            "author": [SOMEONE],
            "citation": {
                "software": [
                    {
                        "@type": "Code",
                        "@id": "https://x.org/a",
                        "codeRepository": "https://y.org/b",
                        "creditWeight": "0.5",
                    }
                ]
            },
        },
        "doi:10.1/p",
        "url:https://x.org/a",
    ),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_CASES))
def test_stored_identity_parses_back_to_the_ingested_id(
    case: str, registry_dir: str, run_cli, tmp_path: Path
) -> None:
    fields, product, entity = ROUND_TRIP_CASES[case]
    doc = tmp_path / "doc.jsonld"
    doc.write_text(json.dumps({"@context": "http://schema.org", "@type": "Code", **fields}))
    code, out, err = run_cli("ingest", "--registry", registry_dir, str(doc))
    assert (code, out) == (0, f"registered {product}\n"), err

    code, out, err = run_cli(
        "credit", "--registry", registry_dir, "--product", product, "--format", "json"
    )
    assert code == 0, err
    assert entity in json.loads(out)["shares"]
    code, out, err = run_cli("rank", "--registry", registry_dir, "--format", "json")
    assert code == 0, err
    assert entity in [row["entity"] for row in json.loads(out)["totals"]]



def _with_paper_c(tail: str) -> bytes:
    """paper_c.jsonld with tail spliced in as its last top-level member."""
    text = fixture_path("paper_c.jsonld").read_text().rstrip()
    return (text[:-1].rstrip() + ", " + tail + "}\n").encode()


def _code_by(**author: str) -> bytes:
    """A Code document whose one author entry has the given keys."""
    doc = {
        "@context": "http://schema.org",
        "@type": "Code",
        "url": "https://example.org/code",
        "author": [{**author, "creditWeight": "1"}],
    }
    return json.dumps(doc).encode()


# Documents that once escaped main() as a traceback from float(), json.loads
# or the serializer, or were stored with an id holding whitespace or a
# control character, which broke the output lines that printed it; each
# must be one `path:Code:message` line and exit 1.
HOSTILE_DOCUMENTS = {
    "newline-in-a-cited-doi": (
        fixture_path("paper_c.jsonld").read_bytes().replace(b'"10.9999/b"', b'"10.9999/b\\nx"'),
        "MalformedDoi",
    ),
    "tab-in-the-product-url": (
        json.dumps(
            {
                "@context": "http://schema.org",
                "@type": "Code",
                "url": "https://example.org/a\tb",
                "author": [{"name": "Someone", "creditWeight": "1"}],
            }
        ).encode(),
        "InvalidIdentifier",
    ),
    "400-digit-integer-weight": (
        fixture_path("paper_c.jsonld").read_bytes().replace(
            b'"creditWeight": "0.9"', b'"creditWeight": ' + b"9" * 400, 1
        ),
        "WeightParseError",
    ),
    "100000-nested-arrays": (b"[" * 100_000, "CreditmapSyntaxError"),
    "5000-digit-integer": (_with_paper_c('"x": ' + "1" * 5000), "CreditmapSyntaxError"),
    "unpaired-surrogate-escape": (_with_paper_c('"x": "\\ud800"'), "CreditmapSyntaxError"),
    "unknown-value-nested-900-deep": (
        _with_paper_c('"x": ' + "[" * 900 + "]" * 900), "CreditmapSyntaxError"
    ),
    # Stored beside the real group, it was written in place of it.
    "top-level-key-named-like-a-citation-member": (
        _with_paper_c('"citation.articles": "oops"'), "CreditmapSyntaxError"
    ),
    # Stored, the ids reached the terminal as an ANSI escape and the DOT
    # file as a NUL byte.
    "escape-sequence-in-an-author-name": (
        _code_by(name="Eve\u001b[31mRed"), "InvalidIdentifier"
    ),
    "nul-in-an-author-email": (_code_by(email="x\u0000y@z.org"), "InvalidIdentifier"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_DOCUMENTS))
def test_hostile_document_is_reported_not_raised(
    case: str, registry_dir: str, run_cli, tmp_path: Path
) -> None:
    data, error = HOSTILE_DOCUMENTS[case]
    doc = tmp_path / "hostile.jsonld"
    doc.write_bytes(data)
    for argv in (("validate",), ("ingest", "--registry", registry_dir)):
        code, out, err = run_cli(*argv, str(doc))
        assert code == 1, err
        assert out.startswith(f"{doc}:{error}:")
        assert len(out.splitlines()) == 1
    assert not list(Path(registry_dir).glob("objects/*"))


def test_stray_copy_of_an_object_does_not_change_any_read(
    loaded_registry: str, run_cli
) -> None:
    reads = [
        ("credit", "--product", PRODUCT_C),
        ("rank",),
        ("rank", "--scope", "roots", "--format", "json"),
        ("graph",),
    ]
    before = [run_cli(argv[0], "--registry", loaded_registry, *argv[1:]) for argv in reads]
    objects = Path(loaded_registry) / "objects"
    digest = hashlib.sha256(PRODUCT_A.encode()).hexdigest()
    shutil.copyfile(objects / f"{digest}.jsonld", objects / "backup.jsonld")
    after = [run_cli(argv[0], "--registry", loaded_registry, *argv[1:]) for argv in reads]
    assert after == before
    assert all(code == 0 for code, _, _ in after)

def test_credit_entity_prints_a_bare_fraction(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli(
        "credit",
        "--registry",
        loaded_registry,
        "--product",
        PRODUCT_B,
        "--entity",
        DEV1,
    )
    assert code == 0
    assert out == "0.125000000000\n"


def test_credit_for_an_uninvolved_entity_is_zero(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli(
        "credit",
        "--registry",
        loaded_registry,
        "--product",
        PRODUCT_A,
        "--entity",
        AUTHOR_C,
    )
    assert code == 0
    assert out == "0.000000000000\n"


def test_credit_table_is_sorted_and_aligned(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli(
        "credit", "--registry", loaded_registry, "--product", PRODUCT_C
    )
    assert code == 0
    lines = out.splitlines()
    rows = [line.split() for line in lines]
    assert rows[0] == [AUTHOR_C, "0.900000000000"]
    fractions = [float(fraction) for _, fraction in rows]
    assert fractions == sorted(fractions, reverse=True)
    # the fraction column lines up
    starts = {line.rindex(" ") for line in lines}
    assert len(starts) == 1


def test_credit_json_reports_depth_and_shares(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli(
        "credit",
        "--registry",
        loaded_registry,
        "--product",
        PRODUCT_C,
        "--max-depth",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["product"] == PRODUCT_C
    assert doc["max_depth"] == 1
    assert doc["truncated_at"] == 1
    assert doc["shares"] == {AUTHOR_C: 0.9, PRODUCT_B: 0.1}


def test_credit_unknown_product_is_a_domain_error(loaded_registry: str, run_cli) -> None:
    code, out, err = run_cli(
        "credit", "--registry", loaded_registry, "--product", "doi:10.9999/zzz"
    )
    assert code == 1
    assert out == ""
    assert "not a registered product" in err


def test_credit_rejects_malformed_product_ids(loaded_registry: str, run_cli) -> None:
    code, _, err = run_cli(
        "credit", "--registry", loaded_registry, "--product", "definitely not an id"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("product", ["name:eve\x1b[31mred", "email:x\x01y@z.org"])
def test_credit_rejects_product_ids_holding_control_characters(
    product: str, loaded_registry: str, run_cli
) -> None:
    code, out, err = run_cli("credit", "--registry", loaded_registry, "--product", product)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --product")


def test_credit_rejects_a_zero_depth_limit(loaded_registry: str, run_cli) -> None:
    code, _, err = run_cli(
        "credit",
        "--registry",
        loaded_registry,
        "--product",
        PRODUCT_B,
        "--max-depth",
        "0",
    )
    assert code == 2
    assert "max_depth" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--product", "notanid", "bad --product 'notanid': missing scheme prefix: 'notanid'"),
        ("--entity", "bad", "bad --entity 'bad': missing scheme prefix: 'bad'"),
        ("--max-depth", "0", "max_depth must be >= 1, got 0"),
    ],
    ids=["product", "entity", "max-depth"],
)
def test_a_bad_option_value_makes_main_return_2(
    option: str, value: str, message: str, loaded_registry: str, capsys
) -> None:
    argv = ["credit", "--registry", loaded_registry, "--product", PRODUCT_B, option, value]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_rank_table_lists_every_entity_once(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli("rank", "--registry", loaded_registry)
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == [str(i) for i in range(1, len(rows) + 1)]
    assert rows[0][1:] == [AUTHOR_C, "0.900000000000"]
    entities = [r[1] for r in rows]
    assert len(entities) == len(set(entities)) == 9
    dev1_row = next(r for r in rows if r[1] == DEV1)
    assert dev1_row[2] == "0.637500000000"


def test_rank_roots_scope_matches_the_root_allocation(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli("rank", "--registry", loaded_registry, "--scope", "roots")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    totals = {entity: fraction for _, entity, fraction in rows}
    assert totals[DEV1] == "0.0125000000000"  # 12 significant digits
    assert totals[AUTHOR_C] == "0.900000000000"


def test_rank_depth_limit_leaves_absorbed_products_in_the_table(
    loaded_registry: str, run_cli
) -> None:
    code, out, _ = run_cli("rank", "--registry", loaded_registry, "--max-depth", "1")
    assert code == 0
    entities = {line.split()[1] for line in out.splitlines()}
    assert PRODUCT_A in entities and PRODUCT_B in entities

    code, out, _ = run_cli("rank", "--registry", loaded_registry)
    entities = {line.split()[1] for line in out.splitlines()}
    assert PRODUCT_A not in entities


def test_rank_json_carries_rank_numbers(loaded_registry: str, run_cli) -> None:
    code, out, _ = run_cli(
        "rank", "--registry", loaded_registry, "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scope"] == "all"
    assert doc["max_depth"] is None
    assert [row["rank"] for row in doc["totals"]] == list(range(1, 10))
    assert doc["totals"][0]["entity"] == AUTHOR_C


# Id texts with the characters JSON escapes: quotes, backslashes, control
# characters, non-ASCII and astral code points.
ID_TEXTS = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\x7f\u00e9\U0001f600')))


@given(
    scope=st.sampled_from(["all", "roots"]),
    max_depth=st.none() | st.integers(),
    rows=st.lists(st.tuples(ID_TEXTS, st.floats(allow_nan=False, allow_infinity=False))),
)
def test_the_rank_json_writer_prints_what_json_dumps_prints(scope, max_depth, rows) -> None:
    doc = {
        "scope": scope,
        "max_depth": max_depth,
        "totals": [
            {"rank": i, "entity": text, "total": total}
            for i, (text, total) in enumerate(rows, start=1)
        ],
    }
    assert cli._rank_json(scope, max_depth, rows) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("enabled", [True, False])
def test_an_in_process_main_leaves_the_collector_as_it_was(
    loaded_registry: str, run_cli, enabled: bool
) -> None:
    """The collector is frozen only at interpreter exit, so a caller of
    main() in a running process finds it as it left it."""
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        for argv in (["rank", "--format", "json"], ["graph"], ["credit", "--product", PRODUCT_C]):
            assert run_cli(*argv, "--registry", loaded_registry)[0] == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        gc.enable()


def test_a_process_that_imports_the_cli_freezes_the_collector_at_exit() -> None:
    """At exit the objects are frozen before the interpreter's last full
    collections. atexit runs its handlers last in, first out, so one
    registered before the import sees the frozen count."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "import credit_ledger.cli\n"
        "print(gc.get_freeze_count())\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.split() == ["0", "True"]


def test_graph_dot_export_is_deterministic(loaded_registry: str, run_cli) -> None:
    code, out, err = run_cli("graph", "--registry", loaded_registry)
    assert code == 0
    assert err == ""
    assert out == EXPECTED_DOT
    code2, out2, _ = run_cli("graph", "--registry", loaded_registry)
    assert out2 == out


def test_graph_of_an_empty_registry(registry_dir: str, run_cli) -> None:
    code, out, _ = run_cli("graph", "--registry", registry_dir)
    assert code == 0
    assert out == "digraph creditmap {}\n"


def test_cycle_is_ingestable_but_blocks_graph_commands(
    registry_dir: str, run_cli
) -> None:
    code, _, _ = run_cli(
        "ingest",
        "--registry",
        registry_dir,
        str(fixture_path("cycle_x.jsonld")),
        str(fixture_path("cycle_y.jsonld")),
    )
    assert code == 0  # each document is individually valid
    for argv in (
        ("graph", "--registry", registry_dir),
        ("credit", "--registry", registry_dir, "--product", "doi:10.8888/x"),
        ("rank", "--registry", registry_dir),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert "citation cycle" in err
        assert " -> " in err


# Run as its own process: the CLI points a closed stdout's file descriptor
# at os.devnull, which in-process would replace the test runner's.
CLOSED_STDOUT_RUN = "import sys; from credit_ledger.cli import main; sys.exit(main())"


@pytest.mark.parametrize(
    "command",
    [
        "rank",
        "rank --format json",
        "graph",
        f"credit --product {PRODUCT_C}",
        "validate",
        "--help",
        "rank --help",
    ],
)
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_a_closed_stdout_exits_2_without_a_traceback(
    command: str, buffering: str, loaded_registry: str, tmp_path: Path
) -> None:
    if command == "validate":
        # More warning lines than one stdout buffer holds, so the failed
        # write comes from inside the per-file loop.
        doc = json.loads(fixture_path("paper_c.jsonld").read_text())
        doc.update({f"x{i}": i for i in range(2000)})
        warnings = tmp_path / "warnings.jsonld"
        warnings.write_text(json.dumps(doc))
        argv = ["validate", str(warnings)]
    elif command.endswith("--help"):
        argv = command.split()  # argparse prints the help and exits
    else:
        argv = [*command.split(), "--registry", loaded_registry]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so every write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLOSED_STDOUT_RUN, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_missing_subcommand_is_a_usage_error(run_cli) -> None:
    code, _, err = run_cli()
    assert code == 2
    assert "usage" in err


def test_registry_defaults_to_the_environment_variable(
    run_cli, tmp_path: Path, monkeypatch
) -> None:
    home = tmp_path / "env-home"
    monkeypatch.setenv("CREDIT_LEDGER_HOME", str(home))
    code, out, _ = run_cli("ingest", str(fixture_path("software_a.jsonld")))
    assert code == 0
    assert (home / "objects").is_dir()


def test_registry_defaults_to_a_local_directory(
    run_cli, tmp_path: Path, monkeypatch
) -> None:
    monkeypatch.delenv("CREDIT_LEDGER_HOME", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli("ingest", str(fixture_path("software_a.jsonld")))
    assert code == 0
    assert (tmp_path / ".credit-ledger" / "objects").is_dir()
