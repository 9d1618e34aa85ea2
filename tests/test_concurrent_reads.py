"""Readers racing a writer: every read sees one whole state.

Readers take no lock, and rank, graph and credit may each rewrite
graph.json while an ingest --force replaces an object file. One writer
alternates two versions of software_a for a few seconds while two readers
loop over rank, credit and graph, each command in a process of its own, so
at most three child processes run at once. Every read must exit 0 with an
empty stderr and print what its command prints for a state the registry
was in at some moment while the read ran: the state of the last write done
before the read began, or of a write that overlapped it.
Once the writer stops, the registry reads as a fresh build of its objects,
and the snapshot the next read leaves is one the read after it trusts.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import CORPUS_FILES, PRODUCT_C, cli_process, fixture_bytes, fixture_path
from credit_ledger import Registry, build_graph
from credit_ledger import registry as registry_module

RACE_S = 3.0
READS = {
    "rank": ["rank"],
    "credit": ["credit", "--product", PRODUCT_C],
    "graph": ["graph"],
}


def _versions(tmp_path: Path) -> list[Path]:
    """software_a as the fixture has it, and with its first two authors'
    weights swapped, which changes the output of every read."""
    doc = json.loads(fixture_bytes("software_a.jsonld"))
    first, second = doc["author"][:2]
    first["creditWeight"], second["creditWeight"] = second["creditWeight"], first["creditWeight"]
    swapped = tmp_path / "software_a_swapped.jsonld"
    swapped.write_text(json.dumps(doc))
    return [fixture_path("software_a.jsonld"), swapped]


def _settle(root: Path) -> None:
    """Wait until every object file is older than the registry's racy-git
    tick, so that the next read writes a snapshot with stats to trust."""
    stats = [path.stat() for path in (root / "objects").iterdir()]
    for st in stats:
        tick = (
            registry_module._FINE_TICK_NS if st.st_mtime_ns % 1_000_000_000
            else registry_module._COARSE_TICK_NS
        )
        while time.time_ns() <= max(st.st_mtime_ns, st.st_ctime_ns) + tick:
            time.sleep(0.01)


def test_reads_racing_an_ingest_force_each_see_one_state(tmp_path: Path, run_cli) -> None:
    root = str(tmp_path / "reg")
    versions = _versions(tmp_path)
    corpus = [str(fixture_path(name)) for name in CORPUS_FILES]
    assert run_cli("ingest", "--registry", root, *corpus)[0] == 0
    expected: list[dict[str, str]] = [{}, {}]
    for state in (1, 0):
        assert run_cli("ingest", "--force", "--registry", root, str(versions[state]))[0] == 0
        for read, argv in READS.items():
            code, out, err = run_cli(*argv, "--registry", root)
            assert (code, err) == (0, "")
            expected[state][read] = out
    for read in READS:
        assert expected[0][read] != expected[1][read], read

    writes, reads = [], []  # (state, start, end, process), (read, start, end, process)

    def writer() -> None:
        deadline, state = time.monotonic() + RACE_S, 0
        while (start := time.monotonic()) < deadline:
            state ^= 1
            run = cli_process("ingest", "--force", "--registry", root, str(versions[state]))
            writes.append((state, start, time.monotonic(), run))

    def reader() -> None:
        while not writing.done():
            for read, argv in READS.items():
                start = time.monotonic()
                run = cli_process(*argv, "--registry", root)
                reads.append((read, start, time.monotonic(), run))

    with ThreadPoolExecutor(max_workers=3) as pool:
        writing = pool.submit(writer)
        readers = [pool.submit(reader) for _ in range(2)]
        for future in (writing, *readers):
            future.result(timeout=300)  # each command has a timeout of its own

    assert writes and all(run.returncode == 0 for *_, run in writes)
    assert len(reads) >= 2 * len(READS)
    for read, start, end, run in reads:
        assert (run.returncode, run.stderr) == (0, ""), (read, run.stderr)
        before = [state for state, _, done, _ in writes if done < start]
        states = {before[-1] if before else 0}
        states.update(state for state, begun, done, _ in writes if begun < end and done > start)
        assert run.stdout in [expected[state][read] for state in states], (read, states)

    final = expected[writes[-1][0]]
    _settle(Path(root))
    first = cli_process(*READS["rank"], "--registry", root)
    assert (first.returncode, first.stderr, first.stdout) == (0, "", final["rank"])
    snapshot = Path(root) / "graph.json"
    before = snapshot.stat()
    registry = Registry(root)
    assert registry.load_graph() == build_graph(registry.load_all())
    second = cli_process(*READS["graph"], "--registry", root)
    assert (second.returncode, second.stderr, second.stdout) == (0, "", final["graph"])
    after = snapshot.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
