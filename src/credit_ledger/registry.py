"""File-backed registry of ingested creditmap documents.

Layout under the registry root: normalized documents live in
objects/<sha256-of-canonical-id>.jsonld, one file per product and the only
source of truth, and .lock is an advisory write lock. A write goes to a
temp file that is fsynced and renamed into place; each batch of writes
then fsyncs objects/ once, so the renames are durable too.

graph.json is a derived snapshot of the citation graph, keyed to the bytes
of every object file, with a digest and the graph entries of each object
file so that a stale snapshot is refreshed by parsing only the files that
changed (see Registry.load_graph). It is never trusted stale, never
fsynced, and safe to delete.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
from collections import deque
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator

from .graph import CreditGraph, GraphEdge, NodeKind, build_graph
from .jsonld import parse_creditmap, serialize_creditmap
from .model import (
    Category,
    CreditEntry,
    CreditLedgerError,
    CreditMap,
    EntityId,
    EntryDisplay,
    ProductKind,
    ProductMeta,
    Violation,
    validate_creditmap,
)


#: Leads the stamp, so a snapshot of another layout never matches.
_SNAPSHOT_FORMAT = b"credit-ledger graph snapshot 2\n"
_KIND_CODES = {
    NodeKind.REGISTERED_PRODUCT: "r",
    NodeKind.TERMINAL_PERSON: "p",
    NodeKind.TERMINAL_PRODUCT: "t",
}
_KINDS_BY_CODE = {code: kind for kind, code in _KIND_CODES.items()}
_CATEGORY_CODES = {
    Category.AUTHOR: "a",
    Category.ARTICLE: "r",
    Category.SOFTWARE: "s",
    Category.ACKNOWLEDGMENT: "k",
    Category.OTHER: "o",
}
_CATEGORIES_BY_CODE = {code: category for category, code in _CATEGORY_CODES.items()}
_NO_DISPLAY = EntryDisplay()
#: What decoding a torn or hand-edited snapshot line can raise.
_SNAPSHOT_ERRORS = (ValueError, TypeError, KeyError, IndexError, AttributeError,
                    RecursionError, CreditLedgerError)


def _object_name(product_id: EntityId) -> str:
    return hashlib.sha256(product_id.text.encode("utf-8")).hexdigest() + ".jsonld"


class RegistryError(CreditLedgerError):
    """Base class for registry failures."""


class StorageError(RegistryError):
    """The underlying files are unreadable, unwritable, locked, or hold the wrong product."""


class DuplicateProduct(RegistryError):
    """A document for this canonical product id is already registered."""


class NotFound(RegistryError):
    """No registered document for the requested product id."""


class ValidationFailed(RegistryError):
    """The document parsed but failed credit map validation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        summary = "; ".join(str(v) for v in violations)
        super().__init__(f"document failed validation: {summary}")


class Registry:
    """Registry of creditmap documents rooted at a directory.

    The directory springs into existence on the first write; read
    operations on a missing root behave like an empty registry.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._in_batch = False
        self._renamed = False

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the write lock across several ingests.

        The lock is taken once, without blocking; on exit, normal or not,
        objects/ is fsynced once if any object was renamed into place, and
        then the lock is released. Re-entrant: a nested batch joins the
        open one.

        Raises:
            StorageError: the registry cannot be created or synced, or
                another writer holds the lock.
        """
        if self._in_batch:
            yield
            return
        try:
            self._objects.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create registry at {self.root}: {exc}") from exc
        lock_path = self.root / ".lock"
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise StorageError(f"cannot open lock file {lock_path}: {exc}") from exc
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                raise StorageError(
                    f"registry at {self.root} is locked by another writer"
                ) from exc
            self._in_batch, self._renamed = True, False
            try:
                yield
            finally:
                self._in_batch = False
                if self._renamed:
                    self._sync_objects_dir()
        finally:
            os.close(fd)

    def _sync_objects_dir(self) -> None:
        try:
            fd = os.open(self._objects, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageError(f"cannot sync {self._objects}: {exc}") from exc

    def _object_path(self, product_id: EntityId) -> Path:
        return self._objects / _object_name(product_id)

    def _read_bytes(self, path: Path) -> bytes:
        try:
            return path.read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc

    def _parse_object(self, path: Path, data: bytes) -> CreditMap:
        try:
            creditmap, _ = parse_creditmap(data)
        except CreditLedgerError as exc:
            raise StorageError(f"stored document {path} does not parse: {exc}") from exc
        return creditmap

    def _object_files(self) -> Iterator[tuple[Path, bytes]]:
        """(path, bytes) of every objects/*.jsonld file, in name order."""
        try:
            names = sorted(n for n in os.listdir(self._objects) if n.endswith(".jsonld"))
        except (FileNotFoundError, NotADirectoryError):
            return
        except OSError as exc:
            raise StorageError(f"cannot list {self._objects}: {exc}") from exc
        for name in names:
            path = self._objects / name
            yield path, self._read_bytes(path)

    def _registered_map(self, path: Path, data: bytes) -> CreditMap | None:
        """The map an object file holds, or None for a stray file.

        A stray file (a copy or a hand-made file) holds a map whose id does
        not hash to the file's name; get() would never read it, so whole
        registry reads skip it too.
        """
        creditmap = self._parse_object(path, data)
        return creditmap if _object_name(creditmap.product.id) == path.name else None

    def ingest(self, text: str | bytes, *, force: bool = False) -> EntityId:
        """Validate a document and store its normalized form.

        Runs inside the open batch, or in a batch of its own when none is
        open.

        Args:
            text: raw creditmap document.
            force: replace an existing document with the same product id
                instead of raising DuplicateProduct.

        Returns:
            The canonical product id the document was registered under.

        Raises:
            ValidationFailed: the parsed map has validation violations.
            DuplicateProduct: id already registered and force is false.
            StorageError: lock or filesystem trouble.
        """
        creditmap, _ = parse_creditmap(text)
        violations = validate_creditmap(creditmap)
        if violations:
            raise ValidationFailed(violations)

        product_id = creditmap.product.id
        path = self._object_path(product_id)
        with self.batch():
            if not force and path.exists():
                raise DuplicateProduct(f"{product_id.text} is already registered")
            try:
                fd, tmp_name = tempfile.mkstemp(dir=self._objects, prefix=".tmp-")
                try:
                    os.write(fd, serialize_creditmap(creditmap))
                    os.fsync(fd)
                finally:
                    os.close(fd)
                os.replace(tmp_name, path)
            except OSError as exc:
                raise StorageError(f"cannot write {path}: {exc}") from exc
            self._renamed = True
        return product_id

    def get(self, product_id: EntityId) -> CreditMap:
        """Load the registered document for a canonical product id.

        Raises:
            NotFound: nothing registered under this id.
            StorageError: the object file is unreadable or holds another product.
        """
        path = self._object_path(product_id)
        if not path.exists():
            raise NotFound(f"no registered product {product_id.text}")
        creditmap = self._parse_object(path, self._read_bytes(path))
        if creditmap.product.id != product_id:
            raise StorageError(
                f"{path} holds {creditmap.product.id.text}, expected {product_id.text}"
            )
        return creditmap

    def load_all(self) -> list[CreditMap]:
        """Every registered credit map, sorted by canonical product id text.

        Object files whose name is not the digest of the id they hold are
        skipped.
        """
        maps = [self._registered_map(path, data) for path, data in self._object_files()]
        registered = [m for m in maps if m is not None]
        registered.sort(key=lambda m: m.product.id.text)
        return registered

    def load_graph(self) -> CreditGraph:
        """The citation graph of every registered map, from the snapshot if fresh.

        Reads every object file once and hashes the bytes. When graph.json
        carries that stamp, the graph stored there is returned and nothing
        is parsed. Otherwise the snapshot is refreshed: a file whose bytes
        have the digest graph.json records for its name keeps the entries
        recorded with it (or stays stray), every other file is parsed
        (stray files skipped as in load_all), build_graph runs over the
        merged maps, and the snapshot is rewritten under the new stamp
        before the graph is returned. A missing snapshot, or one whose
        graph or per-object line does not decode, records nothing, so every
        file is parsed. A failed build (a cycle, an object that does not
        parse) raises as build_graph and load_all do and writes nothing; a
        failed snapshot write is ignored.

        Raises:
            StorageError: an object file cannot be read or does not parse.
            GraphError: the maps do not form a valid graph.
        """
        files = deque(self._object_files())
        digest = hashlib.sha256(_SNAPSHOT_FORMAT)
        for path, data in files:
            # A name that is not UTF-8 comes from listdir with surrogate escapes.
            digest.update(f"{path.name}\0{len(data)}\0".encode(errors="surrogateescape"))
            digest.update(data)
        stamp = digest.hexdigest().encode() + b"\n"
        fresh, graph_line, objects_line = self._read_snapshot(stamp)
        if fresh:
            graph = _decode_graph(graph_line)
            if graph is not None:
                return graph
        recorded = {} if fresh else _decode_objects(graph_line, objects_line)
        del graph_line, objects_line
        # Each blob is dropped once parsed, and the maps once the graph is
        # built: bytes, maps and snapshot text are never all held at once.
        maps: list[CreditMap] = []
        records: list[tuple[str, str, EntityId | None, str]] = []
        while files:
            path, data = files.popleft()
            data_digest = hashlib.sha256(data).hexdigest()
            digest_and_map = recorded.get(path.name)
            if digest_and_map is not None and digest_and_map[0] == data_digest:
                creditmap = digest_and_map[1]
            else:
                creditmap = self._registered_map(path, data)
            if creditmap is None:
                records.append((path.name, data_digest, None, ""))
                continue
            maps.append(creditmap)
            codes = "".join(_CATEGORY_CODES[e.category] for e in creditmap.entries)
            records.append((path.name, data_digest, creditmap.product.id, codes))
        del recorded
        graph = build_graph(maps)
        del maps
        if graph.edges:  # an empty registry, or a missing one, gets no file
            self._write_snapshot(stamp, graph, records)
        return graph

    def _read_snapshot(self, stamp: bytes) -> tuple[bool, bytes, bytes]:
        """Whether graph.json's first line is stamp, then its graph line and
        its per-object line; the per-object line is read only when the
        stamp differs, and a missing file gives empty lines."""
        try:
            with open(self.root / "graph.json", "rb") as f:
                fresh = f.readline() == stamp
                graph_line = f.readline()
                return fresh, graph_line, b"" if fresh else f.readline()
        except OSError:
            return False, b"", b""

    def _write_snapshot(
        self,
        stamp: bytes,
        graph: CreditGraph,
        records: list[tuple[str, str, EntityId | None, str]],
    ) -> None:
        """Replace graph.json; on any OSError leave no temp file and go on.

        records holds, per object file in name order, its name, the digest
        of its bytes, the product it registers (None for a stray file) and
        one category code per entry of that product's map.

        The file is derived, so it is not fsynced: a torn or lost write
        fails the stamp or the parse on the next read and is rebuilt.
        """
        index = {eid: i for i, eid in enumerate(graph.nodes)}
        # json writes each weight as repr(weight), which reads back exactly.
        graph_line = json.dumps(
            [
                [eid.text for eid in graph.nodes],
                "".join(_KIND_CODES[kind] for kind in graph.nodes.values()),
                [
                    [index[pid], *(x for e in out for x in (index[e.target], e.weight))]
                    for pid, out in graph.edges.items()
                ],
                list(graph.warnings),
            ],
            separators=(",", ":"),
        )
        # A product's targets and weights are its row in the graph line,
        # in entry order; its record adds only the categories.
        objects_line = json.dumps(
            {
                name: [data_digest, None if pid is None else index[pid], codes]
                for name, data_digest, pid, codes in records
            },
            separators=(",", ":"),
        )
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            with os.fdopen(fd, "wb") as f:
                f.write(stamp)
                f.write(graph_line.encode() + b"\n")
                f.write(objects_line.encode() + b"\n")
            os.replace(tmp_name, self.root / "graph.json")
        except OSError:
            if tmp_name is not None:
                with suppress(OSError):
                    os.unlink(tmp_name)


def _decode_graph(graph_line: bytes) -> CreditGraph | None:
    """The graph a snapshot's graph line holds, or None if it does not decode."""
    try:
        id_texts, kinds, products, warnings = json.loads(graph_line)
        # A dict, not a list, so that a negative index is refused too.
        ids = dict(enumerate(EntityId.from_text(text) for text in id_texts))
        nodes = {eid: _KINDS_BY_CODE[code] for eid, code in zip(ids.values(), kinds, strict=True)}
        edges = {
            ids[row[0]]: tuple(
                GraphEdge(ids[target], float(weight))
                for target, weight in zip(row[1::2], row[2::2], strict=True)
            )
            for row in products
        }
        if not all(isinstance(w, str) for w in warnings):
            return None
        return CreditGraph(nodes=nodes, edges=edges, warnings=tuple(warnings))
    except _SNAPSHOT_ERRORS:
        return None  # a missing, torn or hand-edited snapshot is rebuilt


def _decode_objects(
    graph_line: bytes, objects_line: bytes
) -> dict[str, tuple[str, CreditMap | None]]:
    """Per object file name, the digest a snapshot recorded and the map then
    registered under that name (None for a stray file); {} if either line
    does not decode.

    A map keeps only what build_graph reads: its product id and its
    entries' ids, categories and weights.
    """
    try:
        id_texts, _, products, _ = json.loads(graph_line)
        # A dict, not a list, so that a negative index is refused too.
        ids = dict(enumerate(EntityId.from_text(text) for text in id_texts))
        rows = {row[0]: row for row in products}
        recorded: dict[str, tuple[str, CreditMap | None]] = {}
        for name, (data_digest, index, codes) in json.loads(objects_line).items():
            if index is None:
                recorded[name] = (data_digest, None)
                continue
            pid, row = ids[index], rows[index]
            if _object_name(pid) != name:
                return {}
            entries = tuple(
                CreditEntry(ids[target], _CATEGORIES_BY_CODE[code], float(weight), _NO_DISPLAY)
                for code, target, weight in zip(codes, row[1::2], row[2::2], strict=True)
            )
            recorded[name] = (data_digest, CreditMap(ProductMeta(pid, ProductKind.OTHER), entries))
        return recorded
    except _SNAPSHOT_ERRORS:
        return {}  # a missing, torn or hand-edited section: parse every file
