"""Shared fixtures: corpus loading and an in-process CLI runner."""

from __future__ import annotations

import fcntl
import os
from pathlib import Path

import pytest

from credit_ledger import CreditMap, parse_creditmap
from credit_ledger.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

CORPUS_FILES = ("software_a.jsonld", "paper_b.jsonld", "paper_c.jsonld")

DEV1 = "orcid:0000-0002-1825-0097"
DEV2 = "orcid:0000-0001-5109-3700"
DEV3 = "orcid:0000-0002-1694-233X"
AUTHOR_B = "orcid:0000-0002-7007-4334"
AUTHOR_C = "orcid:0000-0003-0204-8772"
PRODUCT_A = "doi:10.9999/a"
PRODUCT_B = "doi:10.9999/b"
PRODUCT_C = "doi:10.9999/c"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


@pytest.fixture(scope="session")
def golden_bytes() -> bytes:
    return fixture_bytes("article_creditmap.jsonld")


@pytest.fixture()
def corpus_maps() -> list[CreditMap]:
    return [parse_creditmap(fixture_bytes(name))[0] for name in CORPUS_FILES]


@pytest.fixture()
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str) -> tuple[int, str, str]:
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.fixture()
def sync_calls(monkeypatch) -> dict[str, int]:
    """Counts of fcntl.flock and os.fsync calls made during the test."""
    calls = {"flock": 0, "fsync": 0}
    flock, fsync = fcntl.flock, os.fsync

    def counting_flock(fd: int, operation: int) -> None:
        calls["flock"] += 1
        flock(fd, operation)

    def counting_fsync(fd: int) -> None:
        calls["fsync"] += 1
        fsync(fd)

    monkeypatch.setattr(fcntl, "flock", counting_flock)
    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls
