"""credit-ledger benchmark: one client, one `credit-ledger` process at a time.

Run from the repository root:

    python3 perfbench/run.py --workload wide-read --seed 1 --seconds 15 --trace 0

--workload is wide-read, deep-propagate, ingest-mixed, or all (each in
turn). The seed fixes every generated document and the command sequence.

With --trace 0 each command is its own process of the command line entry
point. The registry is built SETUP_REPEATS times (setup_s is the median),
then commands run in a closed loop, one after the other, until they have
been busy for --seconds and every command kind has run. With --trace 1 the
same workload runs in-process with spans at the layer boundaries and the
run reports per-layer metrics instead (see tracing.py).

Every output is checked against reference.py, which does not import the
package. The lines printed before the last give each metric with its unit;
the last line is one JSON object with the keys correct, attempted, failed
and metrics. Generated files live under .perfbench-work/ in the checkout
and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import generate
from workloads import (
    READ_KINDS,
    REGISTRY,
    SCENARIOS,
    Op,
    Outcome,
    Scenario,
    Tally,
    setup_ops,
    verdict,
    write_start,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
ENTRY = "import sys; from credit_ledger.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
# Seconds the calibration takes at the reference speed: its fastest on a
# 2-vCPU x86-64 VM under Python 3.11.
REFERENCE_S = 0.022


class Calibration:
    """A fixed slice of interpreter work like the program's own: decode
    creditmap JSON, build small objects from it, sum and sort weights,
    encode JSON again. It never calls the program, so no change to the
    program changes it.

    The speed of a shared VM drifts by tens of percent within seconds, in
    CPU time as much as in wall time. Timing this slice between commands
    measures the speed each command ran at (see Subprocesses.speed). A
    command's time at the reference speed is its CPU time multiplied by
    REFERENCE_S over that calibration time, plus the rest of its wall time
    (waiting for the disk, mostly fsync), which CPU speed does not set.
    """

    def __init__(self) -> None:
        shape = generate.WideShape(random.Random("calibration"), "c", 40)
        self.docs = [shape.product(i).doc.decode() for i in range(40)]

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            for doc in self.docs:
                tree = json.loads(doc)
                groups = [tree.get("author", []), *tree.get("citation", {}).values()]
                entries = [
                    _Entry(e.get("@id") or e.get("doi") or e.get("codeRepository")
                           or e.get("email") or e["name"], float(e["creditWeight"]))
                    for group in groups for e in group
                ]
                math.fsum(e.weight for e in entries)
                sorted(entries, key=lambda e: (-e.weight, e.id))
                json.dumps(tree, indent=2)
        return time.perf_counter() - start


@dataclass(frozen=True, slots=True)
class _Entry:
    id: str
    weight: float


class Subprocesses:
    """Runs each command as a fresh process of the command line entry
    point and records its wall time, CPU time and peak RSS (from os.wait4),
    with a calibration before the first command and after each one."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stderr = tempfile.TemporaryFile(dir=work)
        self.calibrate = Calibration()
        self.calibrations = [self.calibrate()]
        self.runs: list[Outcome] = []

    def at_reference_speed(self) -> list[float]:
        """Seconds of each command so far, in order, at the reference speed.

        The speed of command k is the median of the two calibrations before
        it and the two after it, so that one disturbed calibration does not
        skew a command.
        """
        return [
            o.cpu * REFERENCE_S / statistics.median(self.calibrations[max(0, k - 1):k + 3])
            + max(0.0, o.wall - o.cpu)
            for k, o in enumerate(self.runs)
        ]

    def close(self) -> None:
        self.stderr.close()

    def __call__(self, argv: list[str], code: str = ENTRY) -> Outcome:
        self.stderr.seek(0)
        self.stderr.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=self.stderr,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calibrations.append(self.calibrate())
        self.stderr.seek(0)
        err = self.stderr.read().decode("utf-8", "replace")
        self.runs.append(Outcome(proc.returncode, out.decode("utf-8"), err, wall,
                                 usage.ru_maxrss / 1024, cpu=usage.ru_utime + usage.ru_stime))
        return self.runs[-1]


def timing_metrics(done: list[tuple[Op, float, bool]], setups: list[float],
                   start_docs: int) -> dict:
    """The time-based end-to-end metrics from (op, seconds, correct) of the
    measured commands and the seconds of each set-up."""

    def p50_ms(kind: str) -> float:
        return 1000 * statistics.median(t for op, t, _ in done if op.kind == kind)

    times = sorted(t for _, t, _ in done)
    beyond = min(10, len(times) - 1)
    # Documents registered per second of ingest time, over the measured
    # ingests or, in a workload without them, the median set-up.
    ingests = [(op.registers, t) for op, t, _ in done if op.kind == "ingest"]
    ingests = ingests or [(start_docs, statistics.median(setups))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(ok for _, _, ok in done) / sum(times), "1/s"),
        "credit_p50_ms": (p50_ms("credit"), "ms"),
        "credit_depth_p50_ms": (p50_ms("credit_depth"), "ms"),
        "rank_p50_ms": (p50_ms("rank"), "ms"),
        "graph_p50_ms": (p50_ms("graph"), "ms"),
        "op_tail_ms": (1000 * times[len(times) - 1 - beyond], "ms"),
        "ingest_docs_per_s": (sum(n for n, _ in ingests) / sum(t for _, t in ingests), "1/s"),
    }


def end_to_end(scenario: Scenario, work: Path, seconds: float, tally: Tally) -> dict:
    run = Subprocesses(work)
    try:
        paths = write_start(scenario, work)
        for k in range(SETUP_REPEATS):
            registry = REGISTRY if k == SETUP_REPEATS - 1 else f"setup{k}"
            for op in setup_ops(scenario, paths, registry):
                tally.record(op, verdict(op, run(op.argv)))
            if registry != REGISTRY:
                shutil.rmtree(work / registry)
        chunks = len(run.runs) // SETUP_REPEATS

        done: list[tuple[Op, Outcome, bool]] = []
        busy = 0.0
        kinds: set[str] = set()
        deadline = time.monotonic() + 4 * seconds + 60
        for op in scenario.ops(work):
            if time.monotonic() > deadline:
                raise SystemExit(f"error: run not done after {4 * seconds + 60:.0f} s")
            outcome = run(op.argv)
            problem = verdict(op, outcome)
            tally.record(op, problem)
            done.append((op, outcome, problem is None))
            busy += outcome.wall
            kinds.add(op.kind)
            if busy >= seconds and op.ends_round and kinds.issuperset(READ_KINDS):
                break
    finally:
        run.close()

    def metrics_from(seconds: list[float]) -> dict:
        """seconds: one per command of run.runs, which holds SETUP_REPEATS
        times the chunks of a set-up, then the measured commands."""
        setups = [sum(seconds[k * chunks:(k + 1) * chunks]) for k in range(SETUP_REPEATS)]
        measured = seconds[SETUP_REPEATS * chunks:]
        return timing_metrics([(op, t, ok) for (op, _, ok), t in zip(done, measured)],
                              setups, len(paths))

    wall = metrics_from([o.wall for o in run.runs])
    metrics = metrics_from(run.at_reference_speed())
    metrics["peak_rss_mb"] = (max(o.rss_mb for _, o, _ in done), "MB")
    counts = {k: sum(op.kind == k for op, _, _ in done) for k in (*READ_KINDS, "ingest")}
    beyond = min(10, len(done) - 1)
    print(f"# {len(done)} measured commands in {busy:.1f} s: "
          + ", ".join(f"{k} {n}" for k, n in counts.items()))
    print(f"# op_tail_ms is p{100 * (len(done) - beyond) / len(done):.1f} "
          f"of {len(done)} commands, {beyond} beyond it")
    print("# wall-clock values, before scaling to the reference speed:")
    for metric, (value, unit) in wall.items():
        print(f"#   {metric} {value:.6g} {unit}")
    return metrics


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    return ref.read_text().strip() if ref.is_file() else text[5:]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    scenario = SCENARIOS[name](seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    print(f"# workload {name} seed {seed}: {len(scenario.start)} starting documents; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, rev {git_rev()}")
    try:
        if trace:
            import tracing

            metrics = tracing.traced_run(scenario, work, tally, Subprocesses(work))
        else:
            metrics = end_to_end(scenario, work, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratio = tally.failed / tally.attempted
    print(f"fail_ratio {ratio:.6g} ratio ({tally.failed} of {tally.attempted} commands)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SCENARIOS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "credit_ledger" / "cli.py").is_file():
        print(f"error: no credit_ledger sources under {SRC}", file=sys.stderr)
        return 2

    names = list(SCENARIOS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            tally, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, (value, unit) in found.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
