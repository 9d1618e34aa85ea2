"""Command line interface: validate, ingest, credit, rank, graph.

Exit codes: 0 success, 1 domain error (validation, cycles, duplicates,
unknown products), 2 I/O or usage error. Stdout stays machine-readable;
warnings and error explanations go to stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable

from .engine import RankScope, aggregate_rank, transitive_credit
from .graph import CreditGraph, build_graph
from .model import (
    CreditLedgerError,
    EntityId,
    IdScheme,
    InvalidIdentifier,
    validate_creditmap,
)
from .registry import (
    DuplicateProduct,
    Registry,
    StorageError,
    ValidationFailed,
)

# The exit's full collections walk every object this process made, though
# none is in a cycle; frozen, they are freed by reference counts alone.
atexit.register(gc.freeze)

_DEFAULT_REGISTRY_ENV = "CREDIT_LEDGER_HOME"
_DEFAULT_REGISTRY_DIR = ".credit-ledger"


def _default_registry() -> str:
    return os.environ.get(_DEFAULT_REGISTRY_ENV, _DEFAULT_REGISTRY_DIR)


def _fraction(value: float) -> str:
    """Decimal fraction with 12 significant digits."""
    if value == 0:
        return "0.000000000000"
    return format(value, "#.12g")


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose failed writes of help or usage raise.

    argparse drops an OSError from those writes, so unbuffered help into a
    closed stdout would exit 0 while every other command exits 2.
    """

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="credit-ledger",
        description="Register weighted credit maps and propagate credit "
        "through citation chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_registry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--registry",
            default=_default_registry(),
            help=f"registry directory (default: ${_DEFAULT_REGISTRY_ENV} "
            f"or ./{_DEFAULT_REGISTRY_DIR})",
        )

    p = sub.add_parser("validate", help="check creditmap files without storing them")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--strict", action="store_true", help="reject unrecognized keys and types")

    p = sub.add_parser("ingest", help="validate and store creditmap files")
    p.add_argument("files", nargs="+", metavar="FILE")
    add_registry_arg(p)
    p.add_argument("--force", action="store_true", help="replace an existing registration")

    p = sub.add_parser("credit", help="credit allocation of one registered product")
    add_registry_arg(p)
    p.add_argument("--product", required=True, help="canonical product id, e.g. doi:10.1/x")
    p.add_argument("--entity", help="print only this entity's share")
    p.add_argument("--max-depth", type=int, help="expand at most this many citation steps")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("rank", help="total credit per entity across the registry")
    add_registry_arg(p)
    p.add_argument("--scope", choices=[scope.value for scope in RankScope], default="all")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("graph", help="export the citation graph")
    add_registry_arg(p)
    p.add_argument("--format", choices=("dot",), default="dot")

    return parser


def _each_file(paths: list[str], handle: Callable[[str, bytes], None]) -> int:
    """Call handle(path, bytes) for each file, report each failure, and
    return the worst exit code."""
    from .jsonld import ParseError  # each command that calls this parses documents

    worst = 0
    for path in paths:
        try:
            handle(path, Path(path).read_bytes())
        except BrokenPipeError:
            raise  # stdout closed early: main() ends the run
        except (OSError, StorageError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            worst = 2
        except ValidationFailed as exc:
            for violation in exc.violations:
                print(f"{path}:{violation.code}:{violation.message}")
            worst = max(worst, 1)
        except (ParseError, InvalidIdentifier, DuplicateProduct) as exc:
            print(f"{path}:{type(exc).__name__}:{exc}")
            worst = max(worst, 1)
    return worst


def cmd_validate(args: argparse.Namespace) -> int:
    from .jsonld import ParseMode, parse_creditmap

    mode = ParseMode.STRICT if args.strict else ParseMode.LENIENT

    def check(path: str, data: bytes) -> None:
        creditmap, warnings = parse_creditmap(data, mode)
        for warning in warnings:
            print(f"{path}:{warning.code}:{warning.message}")
        violations = validate_creditmap(creditmap)
        if violations:
            raise ValidationFailed(violations)

    return _each_file(args.files, check)


def cmd_ingest(args: argparse.Namespace) -> int:
    registry = Registry(args.registry)

    def store(path: str, data: bytes) -> None:
        product_id = registry.ingest(data, force=args.force)
        if product_id.scheme is IdScheme.NAME:
            print(
                f"warning: {path}: product has no persistent identifier; "
                f"registered as {product_id.text}",
                file=sys.stderr,
            )
        print(f"registered {product_id.text}")

    with registry.batch():
        return _each_file(args.files, store)


def _warn(graph: CreditGraph) -> CreditGraph:
    for warning in graph.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return graph


class UsageError(CreditLedgerError):
    """An option value the command cannot use (exit 2)."""


def _parse_cli_id(text: str, what: str) -> str:
    """The canonical id text of an option value."""
    try:
        return EntityId.from_text(text).text
    except InvalidIdentifier as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from exc


def _max_depth(args: argparse.Namespace) -> int | None:
    """--max-depth, refused before the registry is read if it is below 1."""
    if args.max_depth is not None and args.max_depth < 1:
        raise UsageError(f"max_depth must be >= 1, got {args.max_depth}")
    return args.max_depth


def cmd_credit(args: argparse.Namespace) -> int:
    product = _parse_cli_id(args.product, "--product")
    entity = _parse_cli_id(args.entity, "--entity") if args.entity else None
    max_depth = _max_depth(args)
    registry = Registry(args.registry)
    graph = _warn(build_graph(registry.load_all()))
    registry.refresh_snapshot(graph)  # so the rank or graph after a write is a hit
    allocation = transitive_credit(graph, product, max_depth)
    if entity is not None:
        share = allocation.shares.get(entity, 0.0)
        if args.format == "json":
            doc = {"product": product, "entity": entity, "credit": share}
            print(json.dumps(doc, indent=2))
        else:
            print(_fraction(share))
        return 0

    shares = allocation.shares
    if args.format == "json":
        doc = {"product": product, "max_depth": max_depth,
               "truncated_at": allocation.truncated_at, "shares": shares}
        print(json.dumps(doc, indent=2))
    else:
        width = max(map(len, shares), default=0)
        for text, share in shares.items():
            print(f"{text:<{width}}  {_fraction(share)}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    scope = RankScope(args.scope)
    max_depth = _max_depth(args)
    rows = aggregate_rank(_warn(Registry(args.registry).load_graph()), scope, max_depth)
    if args.format == "json":
        print(_rank_json(scope.value, max_depth, rows))
    else:
        rank_width = len(str(len(rows))) if rows else 1
        id_width = max((len(text) for text, _ in rows), default=0)
        for i, (text, total) in enumerate(rows, start=1):
            print(f"{i:>{rank_width}}  {text:<{id_width}}  {_fraction(total)}")
    return 0


def _rank_json(scope: str, max_depth: int | None, rows: list[tuple[str, float]]) -> str:
    """json.dumps(doc, indent=2) of the rank document, byte for byte, at C
    speed: before Python 3.13, json runs its pure-Python encoder whenever
    indent is set."""
    totals = ",\n".join(
        f'    {{\n      "rank": {i},\n      "entity": {_json_str(text)},\n'
        f'      "total": {float.__repr__(total)}\n    }}'
        for i, (text, total) in enumerate(rows, start=1)
    )
    totals = f"[\n{totals}\n  ]" if rows else "[]"
    depth = "null" if max_depth is None else int.__repr__(max_depth)
    return f'{{\n  "scope": {_json_str(scope)},\n  "max_depth": {depth},\n  "totals": {totals}\n}}'


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_SHAPES = {"r": "[shape=box]", "p": "[shape=ellipse]", "t": "[shape=box, style=dashed]"}


def _render_dot(graph: CreditGraph) -> str:
    ids = graph.ids
    if not ids:
        return "digraph creditmap {}\n"
    quoted = [_quote(text) for text in ids]
    lines = ["digraph creditmap {"]
    for i in sorted(range(len(ids)), key=ids.__getitem__):
        lines.append(f"  {quoted[i]} {_SHAPES[graph.kinds[i]]};")
    # Products come in id-text order, and each one's edges are sorted by
    # target text, then weight.
    for source, row in zip(quoted, graph.products):
        for _, weight, target in sorted(zip(map(ids.__getitem__, row[1::2]), row[2::2], row[1::2])):
            lines.append(f'  {source} -> {quoted[target]} [label="{weight:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args: argparse.Namespace) -> int:
    sys.stdout.write(_render_dot(_warn(Registry(args.registry).load_graph())))
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "ingest": cmd_ingest,
    "credit": cmd_credit,
    "rank": cmd_rank,
    "graph": cmd_graph,
}


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # argparse printed help or usage and exits
            raise
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Stdout closed early (as with | head). What is left in its buffer
        # goes to devnull, so the interpreter's last flush does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (StorageError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CreditLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
