"""Killed writes: a write cut off at any rename or fsync leaves a registry
that every read serves whole.

An ingest --force of a batch (two new maps and a replacement of a
registered one) runs in a process of its own whose os.replace, or
os.fsync, ends the process with os._exit at its k-th call, for each k
until the batch completes. After each killed run the only files left over
are .tmp-* files; rank, graph and credit exit 0 with an empty stderr and
print what they print for the registry holding the batch's first k-1
documents; and running the ingest again completes the batch and removes
the .tmp-* files. A rank whose
snapshot rewrite is killed before its rename is checked the same way, and
the next ingest removes the temp file it left in the registry root.

A rename lost after the process has ended (power loss) needs a
fault-injecting filesystem, and is not tested here.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from conftest import CORPUS_FILES, PRODUCT_C, fixture_bytes, fixture_path, python_process
from credit_ledger import Registry, build_graph
from credit_ledger import registry as registry_module

READS = {
    "rank": ["rank"],
    "graph": ["graph"],
    "credit": ["credit", "--product", PRODUCT_C],
}
KILLED = 9
#: The CLI, with os.<argv[1]> replaced by a wrapper that ends the process
#: at its argv[2]-th call; the CLI's arguments follow.
DYING = f"""
import os, sys
name, k = sys.argv[1], int(sys.argv[2])
real, calls = getattr(os, name), [0]
def dying(*args, **kwargs):
    calls[0] += 1
    if calls[0] == k:
        os._exit({KILLED})
    return real(*args, **kwargs)
setattr(os, name, dying)
from credit_ledger.cli import main
sys.exit(main(sys.argv[3:]))
"""


def _batch(tmp_path: Path) -> list[str]:
    """In ingest order: doi:10.9999/d citing c, software_a with its first
    two authors' weights swapped, and doi:10.9999/e citing d. Each changes
    what rank prints."""

    def write(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def paper(name: str, cited: str) -> str:
        doc = json.loads(fixture_bytes("paper_c.jsonld"))
        doc["doi"], doc["headline"] = f"10.9999/{name}", f"Paper {name}"
        doc["author"][0]["creditWeight"] = "0.6"
        doc["citation"]["articles"][0].update(doi=cited, creditWeight="0.4")
        return write(f"paper_{name}.jsonld", doc)

    software = json.loads(fixture_bytes("software_a.jsonld"))
    first, second = software["author"][:2]
    first["creditWeight"], second["creditWeight"] = second["creditWeight"], first["creditWeight"]
    return [
        paper("d", "10.9999/c"),
        write("software_a_swapped.jsonld", software),
        paper("e", "10.9999/d"),
    ]


def _outputs(run_cli, root: Path) -> dict[str, str]:
    outputs = {}
    for read, argv in READS.items():
        code, out, err = run_cli(*argv, "--registry", str(root))
        assert (code, err) == (0, ""), read
        outputs[read] = out
    return outputs


def _base(run_cli, root: Path) -> None:
    """The three fixtures, and a snapshot that a read trusts while no object
    file changes: it is written with the registry's clock a minute ahead,
    so every file has settled."""
    corpus = [str(fixture_path(name)) for name in CORPUS_FILES]
    assert run_cli("ingest", "--registry", str(root), *corpus)[0] == 0
    ahead = SimpleNamespace(time_ns=lambda: time.time_ns() + 60 * 10**9)
    with mock.patch.object(registry_module, "time", ahead):
        assert run_cli("rank", "--registry", str(root))[0] == 0


def _states(run_cli, tmp_path: Path, batch: list[str]) -> list[tuple[list[str], dict[str, str]]]:
    """Per j in 0..len(batch): the object file names and the read outputs of
    the registry holding the batch's first j documents."""
    states = []
    for j in range(len(batch) + 1):
        root = tmp_path / f"state-{j}"
        _base(run_cli, root)
        if j:
            assert run_cli("ingest", "--force", "--registry", str(root), *batch[:j])[0] == 0
        states.append((sorted(os.listdir(root / "objects")), _outputs(run_cli, root)))
    ranks = [outputs["rank"] for _, outputs in states]
    assert len(set(ranks)) == len(ranks)
    return states


def _temp_files(root: Path, objects: list[str]) -> list[str]:
    """The .tmp-* files in root and objects/, after checking that every
    other file is one a registry with these object files holds."""
    top = os.listdir(root)
    assert set(top) - {".lock", "graph.json", "objects"} == {n for n in top if n.startswith(".tmp-")}
    names = os.listdir(root / "objects")
    assert sorted(n for n in names if not n.startswith(".tmp-")) == objects
    return [n for n in top + names if n.startswith(".tmp-")]


@pytest.mark.parametrize("call", ["replace", "fsync"])
def test_an_ingest_killed_at_any_call_leaves_a_state_every_read_serves(
    tmp_path: Path, run_cli, call: str
) -> None:
    batch = _batch(tmp_path)
    states = _states(run_cli, tmp_path, batch)
    final = states[-1]
    for k in range(1, 10):
        root = tmp_path / f"{call}-{k}"
        _base(run_cli, root)
        run = python_process("-c", DYING, call, str(k), "ingest", "--force",
                             "--registry", str(root), *batch)
        if run.returncode == 0:
            break
        assert run.returncode == KILLED, run.stderr
        # Each document is renamed into place after its fsync, and the
        # batch ends with one fsync of objects/.
        objects, outputs = states[min(k - 1, len(batch))]
        assert len(_temp_files(root, objects)) == (1 if k <= len(batch) else 0)
        assert _outputs(run_cli, root) == outputs
        assert run_cli("ingest", "--force", "--registry", str(root), *batch)[0] == 0
        assert _temp_files(root, final[0]) == []  # the re-run removed the dead writer's
        assert _outputs(run_cli, root) == final[1]
    else:
        pytest.fail(f"the ingest was still killed at os.{call} call {k}")
    assert k > len(batch)  # every document's write was cut off once
    assert _temp_files(root, final[0]) == []
    assert _outputs(run_cli, root) == final[1]


def test_a_rank_killed_before_its_snapshot_rename_leaves_the_stale_snapshot_unserved(
    tmp_path: Path, run_cli
) -> None:
    batch = _batch(tmp_path)
    objects, outputs = _states(run_cli, tmp_path, batch)[-1]
    root = tmp_path / "reg"
    _base(run_cli, root)
    assert run_cli("ingest", "--force", "--registry", str(root), *batch)[0] == 0
    stale = (root / "graph.json").read_bytes()

    run = python_process("-c", DYING, "replace", "1", "rank", "--registry", str(root))
    assert run.returncode == KILLED, run.stderr
    assert (root / "graph.json").read_bytes() == stale
    assert len(_temp_files(root, objects)) == 1
    assert _outputs(run_cli, root) == outputs
    # The reads rebuilt the snapshot from objects/.
    assert (root / "graph.json").read_bytes() != stale
    registry = Registry(root)
    assert registry.load_graph() == build_graph(registry.load_all())
    # The next writer's batch removes the dead reader's temp file.
    assert run_cli("ingest", "--force", "--registry", str(root), *batch)[0] == 0
    assert _temp_files(root, objects) == []
