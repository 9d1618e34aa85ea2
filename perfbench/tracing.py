"""Traced in-process run: spans at the layer boundaries, per-layer metrics.

The benchmark wraps the public functions at each module boundary, in the
namespace of the module that calls them, and calls `cli.main(argv)`
in-process:

    cli       cli.main (the root span of each command)
    registry  Registry.ingest, Registry.load_all
    jsonld    parse_creditmap, serialize_creditmap (as registry imports them)
    model     validate_creditmap (as registry imports it)
    graph     build_graph (as cli imports it), topological_order (as engine
              imports it)
    engine    transitive_credit, aggregate_rank (as cli imports them)

A span is (name, start, end, parent, op id, count); spans stay in memory
and are written to .perfbench-work/spans-<workload>.jsonl when the run
ends. A layer's self time is its spans' time minus their child spans.
os.fsync is counted, and /proc/self/io is read around each command.

Each read command runs twice, untraced then traced; the difference is
the tracing overhead. Each traced command is checked twice: its output
against the reference, and its spans against its wall time (the self
times must account for it).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import reference
from workloads import REGISTRY, Op, Outcome, Scenario, Tally, setup_ops, verdict, write_start

IMPORT_REPEATS = 7
MIN_COVERAGE = 0.95


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    count: object = None


class Tracer:
    """Installs wrappers that record spans; uninstall restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.fsyncs = 0
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), 0,
                        self.stack[-1] if self.stack else None, self.op)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(result)
                return result
            finally:
                span.end = time.perf_counter_ns()
                self.stack.pop()

        return traced

    def install(self, owner: object, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            print(f"# trace: {owner.__name__}.{attr} not found; no {name} spans")
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install_all(self, cli, registry, engine) -> None:
        self.install(registry.Registry, "ingest", "registry.ingest")
        self.install(registry.Registry, "load_all", "registry.load_all", len)
        self.install(registry, "parse_creditmap", "jsonld.parse_creditmap")
        self.install(registry, "serialize_creditmap", "jsonld.serialize_creditmap")
        self.install(registry, "validate_creditmap", "model.validate_creditmap")
        self.install(cli, "build_graph", "graph.build_graph",
                     lambda g: (len(g.nodes), sum(map(len, g.edges.values()))))
        self.install(engine, "topological_order", "graph.topological_order", len)
        self.install(cli, "transitive_credit", "engine.transitive_credit",
                     lambda a: len(a.shares))
        self.install(cli, "aggregate_rank", "engine.aggregate_rank", len)

        def counting_fsync(fd):
            self.fsyncs += 1
            return fsync(fd)

        fsync = os.fsync
        self.saved.append((os, "fsync", fsync))
        os.fsync = counting_fsync

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def proc_io() -> tuple[int, int]:
    """Bytes this process has read and written (rchar, wchar), 0 if unknown."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return 0, 0
    fields = dict(line.split(": ") for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


@dataclass
class Record:
    """One traced command: its spans are spans[first:last]."""

    op: Op
    wall: int
    rchar: int
    wchar: int
    fsyncs: int
    first: int
    last: int
    reach: int = 0


def call(main, argv: list[str]) -> tuple[int, str, str, int]:
    """Run cli.main in-process; returns exit code, stdout, stderr, wall ns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), wall


def import_ms(run) -> float:
    """Fresh-interpreter import of the CLI minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run([], code="pass").wall)
        full.append(run([], code="import credit_ledger.cli").wall)
    return 1000 * (statistics.median(full) - statistics.median(bare))


def self_times(spans: list[Span], first: int = 0) -> list[int]:
    """Self time of spans[first:], whose parents all lie in that slice."""
    own = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent is not None:
            own[s.parent - first] -= s.end - s.start
    return own


def traced_run(scenario: Scenario, work: Path, tally: Tally, run) -> dict:
    try:
        import_cost = import_ms(run)
    finally:
        run.close()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from credit_ledger import cli, engine, registry

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    records: list[Record] = []
    overheads: list[int] = []

    def traced(op: Op) -> None:
        tracer.op = len(records)
        first, fsyncs = len(tracer.spans), tracer.fsyncs
        rchar, wchar = proc_io()
        code, out, err, wall = call(traced_main, op.argv)
        rchar2, wchar2 = proc_io()
        reach = len(reference.reachable(scenario.corpus, op.product)) if op.product else 0
        records.append(Record(op, wall, rchar2 - rchar, wchar2 - wchar,
                              tracer.fsyncs - fsyncs, first, len(tracer.spans), reach))
        problem = verdict(op, Outcome(code, out, err, wall / 1e9))
        own = self_times(tracer.spans, first)
        coverage = sum(own) / wall
        if problem is None and (min(own) < 0 or not MIN_COVERAGE <= coverage <= 1):
            problem = f"span self times cover {coverage:.3f} of the wall time"
        tally.record(op, problem)

    def untraced(op: Op) -> int:
        code, out, err, wall = call(cli.main, op.argv)
        tally.record(op, verdict(op, Outcome(code, out, err, wall / 1e9)))
        return wall

    cwd = os.getcwd()
    os.chdir(work)
    try:
        tracer.install_all(cli, registry, engine)
        for op in setup_ops(scenario, write_start(scenario, work), REGISTRY):
            traced(op)
        tracer.uninstall()
        untraced(scenario.read("credit", scenario.query_roots()[0]))
        for op in itertools.islice(scenario.ops(work), scenario.trace_ops()):
            if op.kind != "ingest":
                plain = untraced(op)
            tracer.install_all(cli, registry, engine)
            try:
                traced(op)
            finally:
                tracer.uninstall()
            if op.kind != "ingest":
                overheads.append(records[-1].wall - plain)
        peak_mb = rank_peak_mb(cli)
    finally:
        tracer.uninstall()
        os.chdir(cwd)

    spans_file = work.parent / f"spans-{scenario.name}.jsonl"
    with spans_file.open("w") as f:
        for span in tracer.spans:
            f.write(json.dumps(asdict(span)) + "\n")
    metrics = layer_metrics(tracer.spans, records)
    metrics["cli.import_ms"] = (import_cost, "ms")
    metrics["engine.rank_peak_mb"] = (peak_mb, "MB")
    metrics["trace.overhead_ms"] = (statistics.mean(overheads) / 1e6, "ms")
    return dict(sorted(metrics.items()))


def rank_peak_mb(cli) -> float:
    """Peak memory allocated inside one whole-registry rank (tracemalloc)."""
    graph = cli.build_graph(cli.Registry(REGISTRY).load_all())
    tracemalloc.start()
    try:
        cli.aggregate_rank(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_metrics(spans: list[Span], records: list[Record]) -> dict:
    """Per-layer figures from the spans and counters of the traced commands."""
    own = self_times(spans)
    queries = [r for r in records if r.op.kind not in ("setup", "ingest")]
    ingests = [r for r in records if r.op.kind in ("setup", "ingest")]

    def of(name: str, rs: list[Record]) -> list[int]:
        return [k for r in rs for k in range(r.first, r.last) if spans[k].name == name]

    def median_ms(name: str, rs: list[Record] = records) -> float:
        found = of(name, rs)
        return statistics.median(spans[k].end - spans[k].start for k in found) / 1e6 if found else 0.0

    credits = [r for r in queries if r.op.kind == "credit"]
    depths = [r for r in queries if r.op.kind == "credit_depth"]
    registered = sum(r.op.registers for r in ingests)
    ingest_calls = len(of("registry.ingest", ingests))
    engine_calls = of("engine.transitive_credit", queries) + of("engine.aggregate_rank", queries)
    builds = of("graph.build_graph", records)
    nodes, edges = spans[builds[-1]].count if builds else (0, 0)
    coverage = [sum(own[r.first:r.last]) / r.wall for r in records]
    return {
        "cli.self_ms": (_ratio(sum(own[r.first] for r in queries), len(queries)) / 1e6, "ms"),
        "registry.load_all_ms": (median_ms("registry.load_all", queries), "ms"),
        "registry.docs_parsed_per_query": (
            _ratio(len(of("jsonld.parse_creditmap", queries)), len(queries)), "count"),
        "registry.rchar_per_query": (_ratio(sum(r.rchar for r in queries), len(queries)), "bytes"),
        "registry.useful_parse_ratio": (_ratio(
            sum(r.reach for r in credits + depths),
            len(of("jsonld.parse_creditmap", credits + depths)), 1.0), "ratio"),
        "jsonld.parse_ms_per_doc": (median_ms("jsonld.parse_creditmap", queries), "ms"),
        "graph.build_ms": (median_ms("graph.build_graph", queries), "ms"),
        "graph.topo_ms": (median_ms("graph.topological_order", queries), "ms"),
        "graph.topo_calls_per_query": (
            _ratio(len(of("graph.topological_order", queries)), len(queries)), "count"),
        "engine.reach_ratio": (_ratio(
            sum(r.reach for r in credits),
            sum(spans[k].count for k in of("graph.topological_order", credits)), 1.0), "ratio"),
        "registry.ingest_ms_per_doc": (median_ms("registry.ingest", ingests), "ms"),
        "registry.self_ms": (_ratio(sum(
            own[k] for r in ingests for k in range(r.first, r.last)
            if spans[k].name.startswith("registry.")), ingest_calls) / 1e6, "ms"),
        "registry.wchar_per_doc": (_ratio(sum(r.wchar for r in ingests), registered), "bytes"),
        "registry.fsyncs_per_doc": (_ratio(sum(r.fsyncs for r in ingests), registered), "count"),
        "jsonld.serialize_ms_per_doc": (median_ms("jsonld.serialize_creditmap", ingests), "ms"),
        "model.validate_ms_per_doc": (median_ms("model.validate_creditmap", ingests), "ms"),
        "engine.credit_ms": (median_ms("engine.transitive_credit", credits), "ms"),
        "engine.credit_depth_ms": (median_ms("engine.transitive_credit", depths), "ms"),
        "engine.rank_ms": (median_ms("engine.aggregate_rank", queries), "ms"),
        "engine.shares_returned": (
            _ratio(sum(spans[k].count for k in engine_calls), len(engine_calls)), "count"),
        "graph.nodes": (nodes, "count"),
        "graph.edges": (edges, "count"),
        "trace.self_coverage": (min(coverage), "ratio"),
    }
