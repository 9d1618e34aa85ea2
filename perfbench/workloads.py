"""The benchmark workloads: seeded documents, command streams and checks.

A workload (Scenario) is the documents of a starting registry plus an
endless stream of commands (Op) against it. Each Op carries the check of
its own output, computed from the generated corpus by reference.py; the
runner that executes the command (a subprocess, or the traced in-process
run) does not change what is checked.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import generate
import reference

REGISTRY = "reg"
# Depth limit of `credit --max-depth`. On deep-propagate the memoised
# depth-limited expansion then costs about twice an unlimited credit and
# most of the command; a smaller limit would hide it.
DEPTH = 14
TOLERANCE = 1e-9
READ_KINDS = ("credit", "credit_depth", "rank", "graph")
SETUP_CHUNK = 250


@dataclass
class Outcome:
    """One finished command: exit code, output, wall and CPU seconds, peak RSS."""

    code: int
    out: str
    err: str
    wall: float
    rss_mb: float = 0.0
    cpu: float = 0.0


@dataclass
class Op:
    """One command of a workload and the check of its output.

    check returns None when the output is right, else what is wrong.
    registers is the number of documents a correct ingest registers. A run
    stops only after an op that ends a round of its workload.
    """

    kind: str
    argv: list[str]
    check: Callable[[Outcome], str | None]
    registers: int = 0
    product: str | None = None
    ends_round: bool = True


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= TOLERANCE * max(1.0, scale)


def check_credit(corpus, product, depth=None, entity=None):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}"
        doc = json.loads(o.out)
        shares, truncated = reference.allocation(corpus, product, depth)
        if doc["product"] != product:
            return f"product {doc['product']!r}"
        if entity is not None:
            want = shares.get(entity, 0.0)
            if doc["entity"] != entity or not _close(doc["credit"], want):
                return f"{entity}: {doc['credit']!r}, reference {want!r}"
            return None
        if doc["truncated_at"] != (depth if truncated else None):
            return f"truncated_at {doc['truncated_at']!r}"
        got = doc["shares"]
        if got.keys() != shares.keys():
            return f"{len(got)} entities, reference {len(shares)}"
        wrong = [e for e in shares if not _close(got[e], shares[e])]
        if wrong:
            return f"{wrong[0]}: {got[wrong[0]]!r}, reference {shares[wrong[0]]!r}"
        if not _close(math.fsum(got.values()), 1.0):
            return f"shares sum to {math.fsum(got.values())!r}"
        return None

    return check


def check_rank(corpus, scope):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}"
        rows = json.loads(o.out)["totals"]
        want = reference.rank_totals(corpus, scope)
        got = {row["entity"]: row["total"] for row in rows}
        if [row["rank"] for row in rows] != list(range(1, len(rows) + 1)):
            return "ranks are not 1..n"
        if any(a["total"] < b["total"] for a, b in zip(rows, rows[1:])):
            return "totals not in descending order"
        if got.keys() != want.keys():
            return f"{len(got)} entities, reference {len(want)}"
        wrong = [e for e in want if not _close(got[e], want[e], want[e])]
        if wrong:
            return f"{wrong[0]}: {got[wrong[0]]!r}, reference {want[wrong[0]]!r}"
        in_scope = len(corpus) if scope == "all" else len(reference.roots(corpus))
        total = math.fsum(got.values())
        if not _close(total, in_scope, in_scope):
            return f"totals sum to {total!r}, {in_scope} products in scope"
        return None

    return check


def check_graph(corpus):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}"
        lines = o.out.splitlines()
        edges = sum(" -> " in line for line in lines)
        nodes = sum(line.endswith("];") for line in lines) - edges
        want = (reference.node_count(corpus), reference.edge_count(corpus))
        if (nodes, edges) != want:
            return f"{nodes} nodes, {edges} edges; reference {want[0]}, {want[1]}"
        return None

    return check


def check_ingest(expected: list[str], code: int):
    """expected holds one stdout line per file: a whole line, or the
    `path:Code:` prefix of a rejection."""

    def check(o: Outcome) -> str | None:
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        lines = o.out.splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} output lines for {len(expected)} files"
        for line, want in zip(lines, expected):
            if line != want and not (want.endswith(":") and line.startswith(want)):
                return f"{line!r}, expected {want!r}"
        return None

    return check


class Scenario:
    """A workload: the documents of the starting registry and an endless,
    seeded stream of commands against it."""

    name: str
    size: int
    cycle: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.start: list[generate.Product] = []
        self.corpus: reference.Corpus = {}

    def trace_ops(self) -> int:
        """Commands of the traced run: one full cycle of the stream."""
        return len(self.cycle)

    def read(self, what: str, product: str) -> Op:
        registry = ["--registry", REGISTRY]
        if what == "rank" or what == "roots":
            scope = "all" if what == "rank" else "roots"
            return Op("rank", ["rank", *registry, "--scope", scope, "--format", "json"],
                      check_rank(self.corpus, scope))
        if what == "graph":
            return Op("graph", ["graph", *registry], check_graph(self.corpus))
        argv = ["credit", *registry, "--product", product, "--format", "json"]
        depth = entity = None
        if what == "depth":
            depth = DEPTH
            argv += ["--max-depth", str(DEPTH)]
        elif what == "entity":
            shares, _ = reference.allocation(self.corpus, product)
            entity = self.rng.choice(sorted(shares))
            argv += ["--entity", entity]
        kind = "credit_depth" if depth else "credit"
        return Op(kind, argv, check_credit(self.corpus, product, depth, entity), product=product)

    def ops(self, work: Path) -> Iterator[Op]:
        """Commands against the registry in work, endlessly."""
        candidates = self.query_roots()
        for k in itertools.count():
            yield self.read(self.cycle[k % len(self.cycle)], self.rng.choice(candidates))

    def query_roots(self) -> list[str]:
        return list(self.corpus)


class WideRead(Scenario):
    """Shallow registry like tests/corpus.py; mostly `credit`."""

    name = "wide-read"
    size = 2000
    cycle = ("credit", "entity", "rank", "depth", "graph", "credit", "roots",
             "depth", "entity", "graph", "credit", "rank", "depth", "graph")

    def __init__(self, seed: int):
        super().__init__(seed)
        shape = generate.WideShape(self.rng, "w", self.size)
        self.start = [shape.product(i) for i in range(self.size)]
        self.corpus = generate.as_corpus(self.start)


class DeepPropagate(Scenario):
    """Each product cites 3 of its previous 50; propagation dominates."""

    name = "deep-propagate"
    size = 600
    # Three of every nine commands are the mid-priced rank, so the
    # percentile op_tail_ms takes at 20-35 commands per run falls among
    # them rather than on the step to the dearer depth-limited credit.
    cycle = ("credit", "depth", "rank", "graph", "entity", "rank", "depth", "graph",
             "rank")

    def __init__(self, seed: int):
        super().__init__(seed)
        shape = generate.DeepShape(self.rng, "d", self.size)
        self.start = [shape.product(i) for i in range(self.size)]
        self.corpus = generate.as_corpus(self.start)

    def query_roots(self) -> list[str]:
        # The newest products reach nearly the whole registry, so the cost
        # of one query varies little with the product drawn.
        ids = list(self.corpus)
        return ids[-max(10, len(ids) // 50):]


class IngestMixed(Scenario):
    """Ingest batches into a growing registry, each followed by three reads.

    A round is round_batches batches grown from the starting registry;
    between rounds the registry and the reference return to the start, so
    every run covers the same registry sizes however fast it goes.
    """

    name = "ingest-mixed"
    size = 1000
    round_batches = 9
    extra = ("depth", "rank", "graph")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.shape = generate.WideShape(self.rng, "m", self.size + 2000)
        self.start = [self.shape.product(i) for i in range(self.size)]
        self.corpus = generate.as_corpus(self.start)
        self.current = {p.id: (i, p) for i, p in enumerate(self.start)}

    def trace_ops(self) -> int:
        return 5 * len(self.extra)

    def _ingest(self, folder: Path, items, force: bool) -> Op:
        """Write items, (kind, product) pairs, and build the ingest of them."""
        folder.mkdir(parents=True, exist_ok=True)
        paths, expected = [], []
        for n, (kind, product) in enumerate(items):
            path = folder / f"{n}.jsonld"
            path.write_bytes(product.doc)
            rel = str(path.relative_to(folder.parent.parent))
            paths.append(rel)
            expected.append({
                "new": f"registered {product.id}",
                "sum": f"{rel}:WeightSum:",
                "author": f"{rel}:NoAuthor:",
                "dup": f"{rel}:DuplicateProduct:",
            }[kind])
        argv = ["ingest", "--registry", REGISTRY, *(["--force"] if force else []), *paths]
        registers = sum(kind == "new" for kind, _ in items)
        return Op("ingest", argv, check_ingest(expected, 0 if registers == len(items) else 1),
                  registers=registers, ends_round=False)

    def ops(self, work: Path) -> Iterator[Op]:
        rng, shape, docs = self.rng, self.shape, work / "docs"
        registry, pristine = work / REGISTRY, work / "start-registry"
        shutil.copytree(registry, pristine)
        start_corpus, start_current = dict(self.corpus), dict(self.current)
        for batch in itertools.count():
            if batch % self.round_batches == 0:
                if batch:
                    shutil.rmtree(registry)
                    shutil.copytree(pristine, registry)
                self.corpus.clear()
                self.corpus.update(start_corpus)
                self.current = dict(start_current)
                next_index = self.size
            registered = list(self.current)
            fresh = [(next_index + n, shape.product(next_index + n))
                     for n in range(rng.randint(100, 200))]
            next_index += len(fresh)
            items = [("new", p) for _, p in fresh]
            for k in range(rng.randint(2, 3)):
                pid = f"doi:{generate.DOI_PREFIX}m.bad{batch}x{k}"
                if k % 2:
                    items.append(("author", shape.product(next_index, pid=pid, authors=False)))
                else:
                    items.append(("sum", shape.product(next_index, pid=pid, unit=900_000)))
            items += [("dup", self.current[pid][1])
                      for pid in rng.sample(registered, rng.randint(2, 3))]
            rng.shuffle(items)
            yield self._ingest(docs / f"b{batch}", items, force=False)

            replaced = [(self.current[pid][0], shape.product(self.current[pid][0]))
                        for pid in rng.sample(registered, rng.randint(2, 3))]
            yield self._ingest(docs / f"f{batch}", [("new", p) for _, p in replaced], force=True)
            for index, p in fresh + replaced:
                self.current[p.id] = (index, p)
                self.corpus[p.id] = list(p.refs)

            op = self.read("credit", rng.choice(fresh + replaced)[1].id)
            op.ends_round = False
            yield op
            last = batch % self.round_batches == self.round_batches - 1
            for k in (2 * batch, 2 * batch + 1):
                op = self.read(self.extra[k % len(self.extra)], rng.choice(registered))
                op.ends_round = last and k % 2 == 1
                yield op


SCENARIOS = {s.name: s for s in (WideRead, DeepPropagate, IngestMixed)}


def verdict(op: Op, outcome: Outcome) -> str | None:
    """What is wrong with one command's result, or None."""
    if "Traceback" in outcome.err:
        return "traceback on stderr"
    try:
        return op.check(outcome)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def write_start(scenario: Scenario, work: Path) -> list[str]:
    folder = work / "docs" / "start"
    folder.mkdir(parents=True)
    paths = []
    for n, product in enumerate(scenario.start):
        (folder / f"{n}.jsonld").write_bytes(product.doc)
        paths.append(f"docs/start/{n}.jsonld")
    return paths


def setup_ops(scenario: Scenario, paths: list[str], registry: str) -> list[Op]:
    """The ingests that build the starting registry, SETUP_CHUNK documents
    each, so that each is short enough to be timed against the machine's
    speed of the moment (see run.Calibration)."""
    ops = []
    for first in range(0, len(paths), SETUP_CHUNK):
        chunk = slice(first, first + SETUP_CHUNK)
        expected = [f"registered {p.id}" for p in scenario.start[chunk]]
        ops.append(Op("setup", ["ingest", "--registry", registry, *paths[chunk]],
                      check_ingest(expected, 0), registers=len(expected)))
    return ops


@dataclass
class Tally:
    """Commands attempted and failed; the first five failures go to stderr."""

    attempted: int = 0
    failed: int = 0

    def record(self, op: Op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {op.kind} {' '.join(op.argv[:6])}: {problem}", file=sys.stderr)


