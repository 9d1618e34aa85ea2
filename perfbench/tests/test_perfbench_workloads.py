"""Generators and workloads: seeded bytes, valid documents, working checks."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

import generate
import workloads
from credit_ledger import parse_creditmap
from credit_ledger.cli import main as cli_main


def _small(cls, size, **attrs):
    return type(cls.__name__, (cls,), {"size": size, **attrs})


# Two batches a round, so that the streams below cross round boundaries.
SMALL = [_small(workloads.WideRead, 80), _small(workloads.DeepPropagate, 60),
         _small(workloads.IngestMixed, 60, round_batches=2)]


def _run(argv: list[str], capsys) -> workloads.Outcome:
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return workloads.Outcome(code, out, err, 0.0)


def _stream(cls, seed: int, work: Path, n_ops: int) -> list[tuple[list[str], bytes]]:
    """Start documents plus the first n_ops commands and the files they name."""
    scenario = cls(seed)
    (work / workloads.REGISTRY).mkdir(parents=True)
    seen = [([], b"".join(p.doc for p in scenario.start))]
    for op in itertools.islice(scenario.ops(work), n_ops):
        files = b"".join((work / a).read_bytes() for a in op.argv if a.endswith(".jsonld"))
        seen.append((op.argv, files))
    return seen


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_same_seed_same_bytes(cls, tmp_path) -> None:
    first = _stream(cls, 7, tmp_path / "a", 12)
    assert first == _stream(cls, 7, tmp_path / "b", 12)
    assert first != _stream(cls, 8, tmp_path / "c", 12)


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_documents_validate_and_parse_to_their_records(cls, capsys, tmp_path) -> None:
    scenario = cls(3)
    paths = workloads.write_start(scenario, tmp_path)
    outcome = _run(["validate", "--strict", *(str(tmp_path / p) for p in paths)], capsys)
    assert (outcome.code, outcome.out, outcome.err) == (0, "", "")
    for product in scenario.start:
        creditmap, warnings = parse_creditmap(product.doc)
        assert not warnings
        assert creditmap.product.id.text == product.id
        assert [(e.entity.text, e.weight) for e in creditmap.entries] == list(product.refs)


def test_invalid_documents_are_rejected(capsys, tmp_path) -> None:
    shape = generate.WideShape(random.Random(1), "x", 50)
    bad = {"WeightSum": shape.product(10, pid="doi:10.5555/x.bad0", unit=900_000),
           "NoAuthor": shape.product(10, pid="doi:10.5555/x.bad1", authors=False)}
    for code, product in bad.items():
        path = tmp_path / f"{code}.jsonld"
        path.write_bytes(product.doc)
        outcome = _run(["validate", str(path)], capsys)
        assert outcome.code == 1
        assert outcome.out.startswith(f"{path}:{code}:")
        assert len(outcome.out.splitlines()) == 1


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_workload_commands_pass_their_checks(cls, capsys, tmp_path, monkeypatch) -> None:
    scenario = cls(5)
    monkeypatch.chdir(tmp_path)
    paths = workloads.write_start(scenario, tmp_path)
    setup = workloads.setup_ops(scenario, paths, workloads.REGISTRY)
    stream = itertools.islice(scenario.ops(tmp_path), 2 * scenario.trace_ops())
    kinds = set()
    for op in itertools.chain(setup, stream):
        assert workloads.verdict(op, _run(op.argv, capsys)) is None, op.argv
        kinds.add(op.kind)
    assert kinds.issuperset(workloads.READ_KINDS)


def test_checks_catch_wrong_output() -> None:
    corpus = {"doi:10.1/a": [("name:x", 0.25), ("doi:10.1/b", 0.75)],
              "doi:10.1/b": [("name:y", 1.0)]}
    credit = workloads.check_credit(corpus, "doi:10.1/a")
    good = {"product": "doi:10.1/a", "max_depth": None, "truncated_at": None,
            "shares": {"name:y": 0.75, "name:x": 0.25}}
    assert credit(workloads.Outcome(0, json.dumps(good), "", 0.0)) is None
    assert credit(workloads.Outcome(1, json.dumps(good), "", 0.0)) is not None
    good["shares"]["name:y"] += 1e-6
    assert credit(workloads.Outcome(0, json.dumps(good), "", 0.0)) is not None

    rank = workloads.check_rank(corpus, "all")
    rows = [{"rank": 1, "entity": "name:y", "total": 1.75},
            {"rank": 2, "entity": "name:x", "total": 0.25}]
    assert rank(workloads.Outcome(0, json.dumps({"totals": rows}), "", 0.0)) is None
    rows.reverse()
    assert rank(workloads.Outcome(0, json.dumps({"totals": rows}), "", 0.0)) is not None

    ingest = workloads.check_ingest(["registered doi:10.1/a", "f.jsonld:NoAuthor:"], 1)
    assert ingest(workloads.Outcome(1, "registered doi:10.1/a\nf.jsonld:NoAuthor:no author entry\n",
                                    "", 0.0)) is None
    assert ingest(workloads.Outcome(1, "registered doi:10.1/a\n", "", 0.0)) is not None
