"""File-backed registry of ingested creditmap documents.

Layout under the registry root: normalized documents live in
objects/<sha256-of-canonical-id>.jsonld, one file per product and the only
source of truth, and .lock is an advisory write lock. A write goes to a
temp file that is fsynced and renamed into place; each batch of writes
then fsyncs objects/ once, so the renames are durable too.

graph.json is a derived snapshot of the citation graph. Its stamp line
holds, by object file name, the stat that its writer vouches for, and the
digests of the two lines after it: the graph line, which holds a
CreditGraph's tables as they are and which a read trusts without
validating it again, and the per-object line, which keeps each file's
digest so that a stale snapshot is refreshed by parsing only the files
whose bytes changed (see Registry.load_graph). A whole-registry parse
can refresh a stale snapshot from the maps it parsed, as credit does (see
Registry.refresh_snapshot). It is never trusted stale, never fsynced, and
safe to delete. The registry reads only regular files, and opens them
without blocking, so a FIFO cannot hang a read.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from stat import S_ISREG
from typing import Iterator

from .graph import CreditGraph, assemble_graph, citations
from .model import (
    CreditLedgerError,
    CreditMap,
    EntityId,
    Violation,
    validate_creditmap,
)


#: Leads the stamp line, so a snapshot of another layout never matches. A
#: hit serves the graph line's id texts without parsing them again, so the
#: tag also stands for the id rules they were made under: it changes
#: whenever EntityId refuses a text it used to accept, and a snapshot of
#: the old tag is rebuilt from objects/.
_SNAPSHOT_FORMAT = "credit-ledger graph snapshot 5"
#: How far a file timestamp may lag the clock, so that a snapshot vouches
#: only for files older than its scan by more: two ticks of the kernel's
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


def _read_regular(path: Path | str) -> tuple[bytes, os.stat_result]:
    """The bytes and the stat of the regular file at path; OSError if it is
    anything else. It is opened without blocking, so a FIFO cannot hang the
    read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not S_ISREG(st.st_mode):
            raise OSError("not a regular file")
        data = os.read(fd, st.st_size + 1)
        while chunk := os.read(fd, 1 << 16):
            data += chunk
        return data, st
    finally:
        os.close(fd)


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
        # What the last load_all saw, for refresh_snapshot: its scan start,
        # and by object file name the stat, and the bytes and the map (None
        # for a stray file).
        self._loaded: tuple[int, dict, dict] | None = None

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

    def _read_bytes(self, path: Path | str) -> tuple[bytes, os.stat_result]:
        try:
            return _read_regular(path)
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc

    def _parse_object(self, path: Path | str, data: bytes) -> CreditMap:
        try:
            creditmap, _ = parse_creditmap(data)
        except CreditLedgerError as exc:
            raise StorageError(f"stored document {path} does not parse: {exc}") from exc
        return creditmap

    def _object_names(self) -> list[str]:
        """The name of every objects/*.jsonld file, in name order; none if
        the registry or its objects/ is missing. Anything else that is not
        a directory is a storage error, not an empty registry."""
        try:
            return sorted(n for n in os.listdir(self._objects) if n.endswith(".jsonld"))
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise StorageError(f"cannot list {self._objects}: {exc.strerror or exc}") from exc

    def _registered_map(self, path: str, data: bytes) -> CreditMap | None:
        """The map the object file at path holds, or None for a stray file.

        A stray file (a copy or a hand-made file) holds a map whose id does
        not hash to the file's name; get() would never read it, so whole
        registry reads skip it too.
        """
        creditmap = self._parse_object(path, data)
        return creditmap if _object_name(creditmap.product.id) == os.path.basename(path) else None

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
        creditmap = self._parse_object(path, self._read_bytes(path)[0])
        if creditmap.product.id != product_id:
            raise StorageError(
                f"{path} holds {creditmap.product.id.text}, expected {product_id.text}"
            )
        return creditmap

    def load_all(self) -> list[CreditMap]:
        """Every registered credit map, sorted by canonical product id text.

        Object files whose name is not the digest of the id they hold are
        skipped. The registry keeps each file's stat (from the file it read),
        bytes and map until refresh_snapshot writes graph.json from them.
        """
        self._loaded = None
        scan_start = time.time_ns()
        stats: dict[str, list[int]] = {}  # as in load_graph
        loaded: dict[str, tuple[bytes, CreditMap | None]] = {}
        for name in self._object_names():
            path = f"{self._objects}/{name}"
            data, st = self._read_bytes(path)
            stats[name] = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
            loaded[name] = data, self._registered_map(path, data)
        self._loaded = scan_start, stats, loaded
        registered = [creditmap for _, creditmap in loaded.values() if creditmap is not None]
        registered.sort(key=lambda m: m.product.id.text)
        return registered

    def refresh_snapshot(self, graph: CreditGraph) -> None:
        """Bring graph.json up to date with what the last load_all read;
        graph must be build_graph of the maps it returned.

        If the snapshot is a hit for the stats load_all saw, as load_graph
        tests it, nothing is hashed or written. Otherwise the snapshot is
        rewritten as a refresh by load_graph would rewrite it, from the maps
        in hand: a file whose stat the old snapshot vouches for keeps its
        recorded digest, the bytes of any other file are hashed, and a file
        whose digest is the recorded one keeps its recorded categories. Like
        that refresh it takes no lock, and a failed write is ignored.
        """
        if self._loaded is None:
            return
        (scan_start, stats, loaded), self._loaded = self._loaded, None
        hit, trusted, _, objects_line = self._read_snapshot(stats)
        if not hit:
            records, _ = self._refresh(stats, trusted, objects_line, None, loaded)
            self._write_snapshot(scan_start, stats, graph, records)

    def load_graph(self) -> CreditGraph:
        """The citation graph of every registered map, from the snapshot if fresh.

        Stats every object file. If every stat is the one graph.json
        vouches for under that name, and no file is new or gone, the read
        is a hit: it returns the stored graph and writes nothing. Anything
        else is a refresh. It reads each file whose stat is not vouched
        for, or whose digest the per-object line lacks; a file whose
        sha256 is the recorded one keeps its row of the old graph and its
        recorded categories, and the rest are parsed (skipping stray files
        as load_all does). The graph is then assembled from them as
        build_graph would and the whole snapshot is rewritten, so a read
        after a touch rewrites it too. A line that fails its digest counts
        as missing. A failed build raises as build_graph and load_all do
        and writes nothing; a failed write is ignored. refresh_snapshot
        writes the same snapshot from the maps load_all parsed, so the read
        after a credit is a hit.

        Raises:
            StorageError: an object file cannot be read, is not a regular
                file, or does not parse.
            GraphError: the maps do not form a valid graph.
        """
        scan_start = time.time_ns()
        stats: dict[str, list[int]] = {}  # name: size, mtime, ctime, inode
        for name in self._object_names():
            path = f"{self._objects}/{name}"  # no Path: 2,000 of them cost 12 ms
            try:
                st = os.stat(path)
            except OSError as exc:
                raise StorageError(f"cannot stat {path}: {exc}") from exc
            stats[name] = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
        hit, trusted, graph_line, objects_line = self._read_snapshot(stats)
        graph = _decode_graph(graph_line)
        if hit and graph is not None:
            return graph
        del graph_line
        # Records are kept only with the graph whose rows they index.
        records, products = self._refresh(
            stats, trusted, b"" if graph is None else objects_line, graph, {}
        )
        del graph, objects_line
        graph = assemble_graph(products)
        del products
        self._write_snapshot(scan_start, stats, graph, records)
        return graph

    def _refresh(
        self, stats: dict, trusted: dict, objects_line: bytes, graph: CreditGraph | None,
        loaded: dict,
    ) -> tuple[dict, list[tuple[str, list[str], str, list[float]]]]:
        """Each object file's record for the snapshot, and the citations()
        of each registered product: the refresh of load_graph and of
        refresh_snapshot.

        A file whose stat is the vouched one keeps the digest recorded on
        objects_line; any other file is hashed, from its bytes in loaded
        (what load_all read) or read now. A file whose digest is the
        recorded one keeps its recorded categories (a stray file stays
        stray) and, given graph (the old snapshot's graph), its row of it;
        without graph only its record is made, as refresh_snapshot has its
        graph already. Every other file is described by its map in loaded,
        or parsed now.
        """
        try:
            recorded = json.loads(objects_line) if objects_line else {}
        except ValueError:
            recorded = {}
        # Each blob read here is dropped once parsed, and each map parsed
        # here once described. An unchanged product keeps its row of the old
        # graph, by id text: the new graph numbers its nodes afresh.
        products: list[tuple[str, list[str], str, list[float]]] = []
        records: dict[str, tuple[str, str | None, str]] = {}  # name: digest, id text, codes
        for name, stat in stats.items():
            digest, index, codes = recorded.get(name, (None, None, ""))
            data, creditmap = loaded.get(name, (None, None))
            if digest is None or stat != trusted.get(name):
                path = f"{self._objects}/{name}"
                if data is None:
                    data = self._read_bytes(path)[0]
                recorded_digest, digest = digest, hashlib.sha256(data).hexdigest()
                if digest != recorded_digest:
                    index = None
                    if name not in loaded:
                        creditmap = self._registered_map(path, data)
            if index is None:
                product = None if creditmap is None else citations(creditmap)
            elif graph is not None:
                row = graph.products[index]
                product = (graph.ids[index], [graph.ids[t] for t in row[1::2]], codes, row[2::2])
            else:  # a map in hand with the recorded bytes: keep its recorded categories
                records[name] = (digest, creditmap.product.id.text, codes)
                continue
            if product is None:
                records[name] = (digest, None, "")
            else:
                products.append(product)
                records[name] = (digest, product[0], product[2])
        return records, products

    def _read_snapshot(self, stats: dict[str, list[int]]) -> tuple[bool, dict, bytes, bytes]:
        """graph.json as it stands for these object file stats: whether it
        is a hit (it vouches for exactly these stats, and its graph line
        passes its digest), the stats it vouches for by object file name
        (None for a file its writer saw change within a tick of its scan),
        and its graph and per-object lines, each empty if it fails its
        digest. A missing, foreign or non-regular graph.json is no hit,
        and gives no stats and two empty lines."""
        try:
            stamp, *lines = _read_regular(self.root / "graph.json")[0].split(b"\n", 3)[:3]
            tag, *digests, trusted = json.loads(stamp)
            if tag != _SNAPSHOT_FORMAT or type(trusted) is not dict:
                return False, {}, b"", b""
            graph_line, objects_line = (
                line if hashlib.sha256(line).hexdigest() == line_digest else b""
                for line, line_digest in zip(lines, digests, strict=True)
            )
        except (OSError, *_SNAPSHOT_ERRORS):
            return False, {}, b"", b""
        return bool(graph_line) and stats == trusted, trusted, graph_line, objects_line

    def _write_snapshot(
        self, scan_start: int, stats: dict[str, list[int]], graph: CreditGraph, records: dict
    ) -> None:
        """Replace graph.json with a snapshot of graph; on any OSError go on
        without it. An empty graph (of an empty or missing registry) gets
        no file.

        The graph line holds graph's tables (json writes each weight as
        repr(weight), which reads back exactly). The per-object line holds
        each object file's record (the digest of its bytes, the id text of
        the product it registers or None for a stray file, and one category
        code per entry), with the product's graph index for its id text;
        the product's targets and weights are its row in the graph line. The
        stamp line holds the format tag, the digests of those two lines and
        the stats the next read may trust: None for a file whose mtime or
        ctime is not older than scan_start by a tick, as a change within
        that tick could keep its stat. The file is derived, so it is not
        fsynced: a torn or lost write fails a digest or the parse on the
        next read and is rebuilt.
        """
        if not graph.products:
            return
        graph_line = json.dumps(
            [graph.ids, graph.kinds, graph.products, list(graph.warnings)], separators=(",", ":")
        ).encode()
        index = {pid: i for i, pid in enumerate(graph.ids[: len(graph.products)])}
        objects_line = json.dumps(
            {
                name: [digest, None if pid is None else index[pid], codes]
                for name, (digest, pid, codes) in records.items()
            },
            separators=(",", ":"),
        ).encode()
        vouched = {}
        for name, (size, mtime, ctime, inode) in stats.items():
            tick = _FINE_TICK_NS if mtime % 1_000_000_000 else _COARSE_TICK_NS
            settled = max(mtime, ctime) + tick < scan_start
            vouched[name] = [size, mtime, ctime, inode] if settled else None
        digests = [hashlib.sha256(line).hexdigest() for line in (graph_line, objects_line)]
        stamp = json.dumps([_SNAPSHOT_FORMAT, *digests, vouched], separators=(",", ":"))
        with suppress(OSError):
            data = b"\n".join([stamp.encode(), graph_line, objects_line, b""])
            _replace_file(self.root / "graph.json", data, sync=False)


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
