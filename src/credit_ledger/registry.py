"""File-backed registry of ingested creditmap documents.

Layout under the registry root: normalized documents live in
objects/<sha256-of-canonical-id>.jsonld, one file per product and the only
source of truth, and .lock is an advisory write lock. A write goes to a
temp file that is fsynced and renamed into place; each batch of writes
then fsyncs objects/ once, so the renames are durable too.

graph.json is a derived snapshot of the citation graph. Its stamp line
records each object file's stat and digest, so that a read sees at stat
cost which files changed, and the digests of the two lines after it: the
graph line, which holds a CreditGraph's tables as they are and which a
read trusts without validating it again, and the per-object line, which
lets a stale snapshot be refreshed by parsing only the files that changed
(see Registry.load_graph). It is never trusted
stale, never fsynced, and safe to delete.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator

from .graph import CreditGraph, assemble_graph, citations
from .model import (
    CreditLedgerError,
    CreditMap,
    EntityId,
    Violation,
    validate_creditmap,
)


#: Leads the stamp line, so a snapshot of another layout never matches.
_SNAPSHOT_FORMAT = "credit-ledger graph snapshot 3"
#: How far a file timestamp may lag the clock: two ticks of the kernel's
#: coarse clock where files have sub-second times, and FAT's 2 s where an
#: mtime in whole seconds shows a filesystem that may keep only seconds.
_FINE_TICK_NS, _COARSE_TICK_NS = 20_000_000, 2_000_000_000
#: What decoding a torn or foreign snapshot line can raise.
_SNAPSHOT_ERRORS = (ValueError, TypeError, KeyError, IndexError, AttributeError,
                    RecursionError)


def _from_jsonld(name: str):
    """A stand-in for the jsonld function name, which imports jsonld on its
    first call and then puts that function in its place here.

    A read served by the snapshot parses no document, so it never pays for
    importing the parser. The stand-in keeps its place if something else
    has taken it meanwhile (a wrapper that counts calls, say).
    """

    def first_call(*args, **kwargs):
        from . import jsonld

        function = getattr(jsonld, name)
        if globals()[name] is first_call:
            globals()[name] = function
        return function(*args, **kwargs)

    first_call.__name__ = first_call.__qualname__ = name
    return first_call


parse_creditmap = _from_jsonld("parse_creditmap")
serialize_creditmap = _from_jsonld("serialize_creditmap")


def _replace_file(path: Path, data: bytes, *, sync: bool) -> None:
    """Write data to a new temp file beside path, fsync it if sync is true,
    and rename it to path. On any failure the temp file is removed and the
    error raised."""
    tmp_path = path.with_name(f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o600)
    try:
        with open(fd, "wb") as f:
            f.write(data)
            if sync:
                f.flush()
                os.fsync(fd)
        os.replace(tmp_path, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_path)
        raise


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

    def _read_bytes(self, path: Path | str) -> bytes:
        try:
            with open(path, "rb") as f:
                return f.read()
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc

    def _parse_object(self, path: Path, data: bytes) -> CreditMap:
        try:
            creditmap, _ = parse_creditmap(data)
        except CreditLedgerError as exc:
            raise StorageError(f"stored document {path} does not parse: {exc}") from exc
        return creditmap

    def _object_names(self) -> list[str]:
        """The name of every objects/*.jsonld file, in name order."""
        try:
            return sorted(n for n in os.listdir(self._objects) if n.endswith(".jsonld"))
        except (FileNotFoundError, NotADirectoryError):
            return []
        except OSError as exc:
            raise StorageError(f"cannot list {self._objects}: {exc}") from exc

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
                _replace_file(path, serialize_creditmap(creditmap), sync=True)
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
        paths = [self._objects / name for name in self._object_names()]
        maps = [self._registered_map(path, self._read_bytes(path)) for path in paths]
        registered = [m for m in maps if m is not None]
        registered.sort(key=lambda m: m.product.id.text)
        return registered

    def load_graph(self) -> CreditGraph:
        """The citation graph of every registered map, from the snapshot if fresh.

        Stats every object file. A file whose (size, mtime, ctime, inode)
        is the one graph.json records for its name, and whose mtime and
        ctime were older than that snapshot's scan start by one timestamp
        tick, is unchanged unread: a later write would have moved its ctime.
        Every other file is read, and is unchanged if its digest is the
        recorded one. If all are unchanged and none is gone, the stored
        graph is returned, and the stamp line is rewritten when a file had
        to be hashed. Otherwise a refresh keeps the rows and recorded
        categories of unchanged products, parses the rest (skipping stray
        files as load_all does), assembles the graph from them as
        build_graph would and rewrites the snapshot. A line that fails its
        digest counts as missing. A failed build raises as build_graph and
        load_all do and writes nothing; a failed write is ignored.

        Raises:
            StorageError: an object file cannot be read or does not parse.
            GraphError: the maps do not form a valid graph.
        """
        scan_start = time.time_ns()
        trusted, graph_line, objects_line = self._read_snapshot()
        stats: dict[str, list] = {}  # name: size, mtime, ctime, inode, digest
        changed: dict[str, bytes] = {}  # name: bytes, when not the recorded ones
        hashed = False
        for name in self._object_names():
            path = f"{self._objects}/{name}"  # no Path: 2,000 of them cost 12 ms
            try:
                st = os.stat(path)
            except OSError as exc:
                raise StorageError(f"cannot stat {path}: {exc}") from exc
            stat = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
            trusted_stat, digest = trusted.get(name, (None, None))
            if stat != trusted_stat:
                recorded_digest, hashed = digest, True
                data = self._read_bytes(path)
                digest = hashlib.sha256(data).hexdigest()
                if digest != recorded_digest:
                    changed[name] = data
            stats[name] = [*stat, digest]
        graph = _decode_graph(graph_line)
        if graph is not None and not changed and len(stats) == len(trusted):
            if hashed:
                self._write_snapshot(scan_start, stats, graph_line, objects_line)
            return graph
        try:
            recorded = {} if graph is None else json.loads(objects_line)
        except ValueError:
            recorded = {}
        del graph_line, objects_line
        # Each blob is dropped once parsed and each map once described, so
        # bytes and maps are never all held at once. An unchanged product
        # keeps its row of the old graph, by id text: the new graph
        # numbers its nodes afresh.
        products: list[tuple[str, list[str], str, list[float]]] = []
        records: list[tuple[str, str, str | None, str]] = []
        for name, stat in stats.items():
            data = changed.pop(name, None)
            recorded_digest, index, codes = recorded.get(name, (None, None, ""))
            if data is not None or recorded_digest != stat[4]:
                object_path = self._objects / name
                if data is None:  # unchanged, but the per-object line is missing
                    data = self._read_bytes(object_path)
                    stat[4] = hashlib.sha256(data).hexdigest()
                creditmap = self._registered_map(object_path, data)
                product = None if creditmap is None else citations(creditmap)
            elif index is None:
                product = None
            else:
                row = graph.products[index]
                product = (graph.ids[index], [graph.ids[t] for t in row[1::2]], codes, row[2::2])
            if product is None:
                records.append((name, stat[4], None, ""))
                continue
            products.append(product)
            records.append((name, stat[4], product[0], product[2]))
        del recorded, graph
        graph = assemble_graph(products)
        del products
        if graph.products:  # an empty registry, or a missing one, gets no file
            self._write_snapshot(scan_start, stats, *_encode_snapshot(graph, records))
        return graph

    def _read_snapshot(self) -> tuple[dict[str, tuple[list | None, str]], bytes, bytes]:
        """graph.json's records, by object file name, of the stat that lets a
        file go unread (None for a file changed within a tick of the scan)
        and of its digest; then its graph and per-object lines, each empty
        if it fails its digest. A missing or foreign graph.json gives no
        records and two empty lines."""
        try:
            with open(self.root / "graph.json", "rb") as f:
                tag, scan_start, *digests, stats = json.loads(f.readline())
                lines = [f.readline(), f.readline()]
            if tag != _SNAPSHOT_FORMAT:
                return {}, b"", b""
            trusted = {}
            for name, (size, mtime, ctime, inode, data_digest) in stats.items():
                tick = _FINE_TICK_NS if mtime % 1_000_000_000 else _COARSE_TICK_NS
                settled = max(mtime, ctime) + tick < scan_start
                trusted[name] = ([size, mtime, ctime, inode] if settled else None, data_digest)
            graph_line, objects_line = (
                line if hashlib.sha256(line).hexdigest() == line_digest else b""
                for line, line_digest in zip(lines, digests, strict=True)
            )
        except (OSError, *_SNAPSHOT_ERRORS):
            return {}, b"", b""
        return trusted, graph_line, objects_line

    def _write_snapshot(
        self, scan_start: int, stats: dict[str, list], graph_line: bytes, objects_line: bytes
    ) -> None:
        """Replace graph.json; on any OSError go on without it.

        The stamp line holds the format tag, when the scan began, the
        digests of the graph and per-object lines, and stats by file name.
        The file is derived, so it is not fsynced: a torn or lost write
        fails a digest or the parse on the next read and is rebuilt.
        """
        digests = [hashlib.sha256(line).hexdigest() for line in (graph_line, objects_line)]
        stamp = json.dumps([_SNAPSHOT_FORMAT, scan_start, *digests, stats], separators=(",", ":"))
        with suppress(OSError):
            data = stamp.encode() + b"\n" + graph_line + objects_line
            _replace_file(self.root / "graph.json", data, sync=False)


def _encode_snapshot(
    graph: CreditGraph, records: list[tuple[str, str, str | None, str]]
) -> tuple[bytes, bytes]:
    """The graph line and the per-object line of a snapshot of graph.

    records holds, per object file in name order, its name, the digest of
    its bytes, the id text of the product it registers (None for a stray
    file) and one category code per entry of that product's map.
    """
    # json writes each weight as repr(weight), which reads back exactly.
    graph_line = json.dumps(
        [graph.ids, graph.kinds, graph.products, list(graph.warnings)], separators=(",", ":")
    )
    # A product's targets and weights are its row in the graph line, in
    # entry order; its record adds only the categories.
    index = {pid: i for i, pid in enumerate(graph.ids[: len(graph.products)])}
    objects_line = json.dumps(
        {
            name: [data_digest, None if pid is None else index[pid], codes]
            for name, data_digest, pid, codes in records
        },
        separators=(",", ":"),
    )
    return graph_line.encode() + b"\n", objects_line.encode() + b"\n"


def _decode_graph(graph_line: bytes) -> CreditGraph | None:
    """The graph a snapshot's graph line holds, or None if it does not decode.

    The line passed its digest, so it is this program's output and is
    taken as it stands.
    """
    try:
        ids, kinds, products, warnings = json.loads(graph_line)
    except _SNAPSHOT_ERRORS:
        return None
    return CreditGraph(ids=ids, kinds=kinds, products=products, warnings=tuple(warnings))
