"""File-backed registry of ingested creditmap documents.

Layout under the registry root: normalized documents live in
objects/<sha256-of-canonical-id>.jsonld, one file per product and the only
source of truth, and .lock is an advisory write lock. A write goes to a
temp file that is fsynced and renamed into place; each batch of writes
then fsyncs objects/ once, so the renames are durable too.

graph.json is a derived snapshot of the citation graph, which
Registry.load_graph serves while every object file keeps the stat it
vouches for, and rebuilds from objects/ otherwise (its layout is described
at Registry._write_snapshot). It is never trusted stale, never fsynced,
and safe to delete. The registry reads only regular files, and opens them
without blocking, so a FIFO cannot hang a read.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path
from stat import S_ISREG
from typing import Iterator

from .graph import CreditGraph, build_graph
from .model import CreditLedgerError, CreditMap, Violation, validate_creditmap


#: Leads the stamp line, so a snapshot of another layout never matches: it
#: changes whenever CreditGraph's fields change, as the graph line is that
#: tuple. A hit serves the graph line's id texts without parsing them
#: again, so it also changes whenever the id rules refuse a text they used
#: to accept. A snapshot of an old tag is rebuilt from objects/.
_SNAPSHOT_FORMAT = "credit-ledger graph snapshot 7"
#: How far a file timestamp may lag the clock, so that a snapshot vouches
#: only for files older than its scan by more: two ticks of the kernel's
#: coarse clock where files have sub-second times, and FAT's 2 s where an
#: mtime in whole seconds shows a filesystem that may keep only seconds.
_FINE_TICK_NS, _COARSE_TICK_NS = 20_000_000, 2_000_000_000
#: What splitting, decoding and unpacking a torn or foreign snapshot line raise.
_SNAPSHOT_ERRORS = (ValueError, TypeError, RecursionError)


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
        if len(data) > st.st_size:  # it grew; a short read of a regular file is its end
            while chunk := os.read(fd, 1 << 16):
                data += chunk
        return data, st
    finally:
        os.close(fd)


def _object_name(product_id: str) -> str:
    import hashlib  # here, as loading OpenSSL costs a snapshot hit 3-5 ms
    return hashlib.sha256(product_id.encode("utf-8")).hexdigest() + ".jsonld"


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
        # What the last load_all saw, for the graph.json written from its
        # maps: its scan start, the object file names and their stats.
        self._loaded: tuple[int, list[str], list[int]] | None = None

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the write lock across several ingests.

        The lock is taken once, without blocking, and then every .tmp-*
        file in objects/ and in the root is removed. That lists objects/,
        so a loop of library ingests should share one batch. A reader
        whose graph.json temp file goes this way fails only its rename,
        which it ignores, and still answers. On exit, normal or not,
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
            # Only the lock holder writes into objects/, so a temp file
            # there now was left by a writer that died. One in the root is
            # a reader's graph.json, whose failed rename it ignores.
            for path in [*self._objects.glob(".tmp-*"), *self.root.glob(".tmp-*")]:
                with suppress(OSError):
                    path.unlink()
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

    def _object_path(self, product_id: str) -> Path:
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

    def ingest(self, text: str | bytes, *, force: bool = False) -> str:
        """Validate a document and store its normalized form.

        Runs inside the open batch, or in a batch of its own when none is
        open.

        Args:
            text: raw creditmap document.
            force: replace an existing document with the same product id
                instead of raising DuplicateProduct.

        Returns:
            The canonical product id text the document was registered under.

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
                raise DuplicateProduct(f"{product_id} is already registered")
            try:
                _replace_file(path, serialize_creditmap(creditmap), sync=True)
            except OSError as exc:
                raise StorageError(f"cannot write {path}: {exc}") from exc
            self._renamed = True
        return product_id

    def get(self, product_id: str) -> CreditMap:
        """Load the registered document for a canonical product id text; a
        text that is not canonical is not found.

        Raises:
            NotFound: nothing registered under this id.
            StorageError: the object file is unreadable or holds another product.
        """
        path = self._object_path(product_id)
        try:
            data, _ = _read_regular(path)
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise NotFound(f"no registered product {product_id}") from exc
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc
        creditmap = self._parse_object(path, data)
        if creditmap.product.id != product_id:
            raise StorageError(
                f"{path} holds {creditmap.product.id}, expected {product_id}"
            )
        return creditmap

    def load_all(self) -> list[CreditMap]:
        """Every registered credit map, sorted by canonical product id text.

        Object files whose name is not the digest of the id they hold are
        skipped. The registry keeps its scan start and each file's stat
        (from the file it read) for the graph.json written from these maps.
        """
        self._loaded = None
        scan_start = time.time_ns()
        names = self._object_names()
        stats: list[int] = []  # per name: size, mtime, ctime, inode
        registered: list[CreditMap] = []
        for name in names:
            path = f"{self._objects}/{name}"  # no Path: 2,000 of them cost 12 ms
            data, st = self._read_bytes(path)
            stats += (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
            creditmap = self._registered_map(path, data)
            if creditmap is not None:
                registered.append(creditmap)
        self._loaded = scan_start, names, stats
        registered.sort(key=lambda m: m.product.id)
        return registered

    def refresh_snapshot(self, graph: CreditGraph) -> None:
        """Write graph.json for what the last load_all read, unless it is
        already a hit for those stats; graph must be build_graph of the
        maps load_all returned. It takes no lock, and a failed write is
        ignored."""
        if self._loaded is None:
            return
        (scan_start, names, stats), self._loaded = self._loaded, None
        if self._read_snapshot(names, stats) is None:
            self._write_snapshot(scan_start, names, stats, graph)

    def load_graph(self) -> CreditGraph:
        """The citation graph of every registered map, from the snapshot if fresh.

        Stats every object file. If every stat is the one graph.json
        vouches for under that name, and no file is new or gone, the read
        is a hit: it returns the graph line decoded as a CreditGraph and
        writes nothing. Anything else, a graph line of other than four
        tables too, is a miss, which returns build_graph(load_all()) and
        writes the snapshot of it. A failed build raises as those two do
        and writes nothing; a failed write is ignored.

        Raises:
            StorageError: an object file cannot be read, is not a regular
                file, or does not parse.
            GraphError: the maps do not form a valid graph.
        """
        names, stats = self._object_names(), []  # stats as in load_all
        try:
            dir_fd = os.open(self._objects, os.O_RDONLY) if names else -1
            try:
                for name in names:
                    st = os.stat(name, dir_fd=dir_fd)
                    stats += (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
            finally:
                if dir_fd >= 0:
                    os.close(dir_fd)
        except OSError as exc:
            raise StorageError(f"cannot stat in {self._objects}: {exc}") from exc
        graph_line = self._read_snapshot(names, stats)
        if graph_line is not None:
            # The line passed its check, so it is this program's output
            # and is taken as it stands.
            with suppress(*_SNAPSHOT_ERRORS):
                ids, kinds, products, warnings = json.loads(graph_line)
                return CreditGraph(ids, kinds, products, tuple(warnings))
        graph = build_graph(self.load_all())
        (scan_start, names, stats), self._loaded = self._loaded, None
        self._write_snapshot(scan_start, names, stats, graph)
        return graph

    def _read_snapshot(self, names: list[str], stats: list[int]) -> bytes | None:
        """graph.json's graph line if the snapshot is a hit for these object
        files and their stats: it vouches for exactly these, and its graph
        line passes its check. None for anything else, including a
        missing, foreign or non-regular graph.json."""
        try:
            stamp, graph_line = _read_regular(self.root / "graph.json")[0].split(b"\n", 2)[:2]
            tag, check, vouched_names, vouched = json.loads(stamp)
        except (OSError, *_SNAPSHOT_ERRORS):
            return None
        if tag != _SNAPSHOT_FORMAT or vouched != stats or vouched_names != "/".join(names):
            return None
        return graph_line if zlib.crc32(graph_line) == check else None

    def _write_snapshot(
        self, scan_start: int, names: list[str], stats: list[int], graph: CreditGraph
    ) -> None:
        """Replace graph.json with a snapshot of graph; on any OSError go on
        without it. An empty graph (of an empty or missing registry) gets
        no file.

        The file has two lines. The stamp line holds the format tag, the
        crc32 of the graph line, the object file names joined by "/", and
        the stats the next read may trust: [size, st_mtime_ns, st_ctime_ns,
        st_ino] of each file in name order, in one flat list, as the scan
        that began at scan_start saw them; or null if any file's mtime or
        ctime is not older than scan_start by a tick, as a change within
        that tick could keep its stat (git's racy-git rule). The graph line
        is the CreditGraph as a JSON array, its tables as they are (json
        writes each weight as repr(weight), which reads back exactly). The
        file is derived, so it is not fsynced, and its check is for a torn
        or lost write, which fails it or the parse on the next read and is
        rebuilt.
        """
        if not graph.products:
            return
        graph_line = json.dumps(graph, separators=(",", ":")).encode()
        settled = all(
            max(mtime, ctime) + (_FINE_TICK_NS if mtime % 1_000_000_000 else _COARSE_TICK_NS)
            < scan_start
            for mtime, ctime in zip(stats[1::4], stats[2::4])
        )
        stamp = json.dumps(
            [_SNAPSHOT_FORMAT, zlib.crc32(graph_line), "/".join(names), stats if settled else None],
            separators=(",", ":"),
        )
        with suppress(OSError):
            data = b"\n".join([stamp.encode(), graph_line, b""])
            _replace_file(self.root / "graph.json", data, sync=False)
