"""File-backed registry: storage layout, locking, batched durable writes."""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from credit_ledger import (
    Registry,
    parse_creditmap,
    serialize_creditmap,
)
from credit_ledger import registry as registry_module
from credit_ledger.registry import (
    DuplicateProduct,
    NotFound,
    StorageError,
    ValidationFailed,
)


def _doc(suffix: str, author_weight: str = "0.6", dep_weight: str = "0.4") -> bytes:
    return json.dumps(
        {
            "@context": "http://schema.org",
            "@type": "Code",
            "doi": f"10.1000/{suffix}",
            "headline": f"Package {suffix}",
            "author": [{"name": f"Author {suffix}", "creditWeight": author_weight}],
            "citation": {
                "software": [
                    {
                        "codeRepository": f"https://example.org/dep-{suffix}",
                        "creditWeight": dep_weight,
                    }
                ]
            },
        }
    ).encode()


@pytest.fixture()
def registry(tmp_path: Path) -> Registry:
    return Registry(tmp_path / "reg")


def test_ingest_returns_canonical_id_and_get_round_trips(registry: Registry) -> None:
    product_id = registry.ingest(_doc("alpha"))
    assert product_id == "doi:10.1000/alpha"
    expected, _ = parse_creditmap(_doc("alpha"))
    assert registry.get(product_id) == expected
    with pytest.raises(NotFound):  # get takes the canonical text only
        registry.get("doi:10.1000/ALPHA")


def test_objects_are_stored_under_digest_of_the_id(registry: Registry) -> None:
    product_id = registry.ingest(_doc("alpha"))
    digest = hashlib.sha256(product_id.encode()).hexdigest()
    stored = registry.root / "objects" / f"{digest}.jsonld"
    assert stored.is_file()
    creditmap, _ = parse_creditmap(_doc("alpha"))
    assert stored.read_bytes() == serialize_creditmap(creditmap)


def test_duplicate_id_is_rejected_unless_forced(registry: Registry) -> None:
    product_id = registry.ingest(_doc("alpha"))
    with pytest.raises(DuplicateProduct):
        registry.ingest(_doc("alpha"))
    registry.ingest(_doc("alpha", author_weight="0.9", dep_weight="0.1"), force=True)
    updated = registry.get(product_id)
    assert updated.entries[0].weight == 0.9


def test_invalid_document_is_rejected_with_violations(registry: Registry) -> None:
    bad = _doc("alpha", author_weight="0.6", dep_weight="0.25")
    with pytest.raises(ValidationFailed) as excinfo:
        registry.ingest(bad)
    assert [v.code for v in excinfo.value.violations] == ["WeightSum"]
    with pytest.raises(NotFound):
        registry.get("doi:10.1000/alpha")


def test_unparseable_document_raises_parse_error(registry: Registry) -> None:
    from credit_ledger.jsonld import ParseError

    with pytest.raises(ParseError):
        registry.ingest(b"{ definitely not json")


def test_listing_is_sorted_and_survives_restart(registry: Registry) -> None:
    registry.ingest(_doc("zeta"))
    registry.ingest(_doc("alpha"))
    reopened = Registry(registry.root)
    maps = reopened.load_all()
    ids = [m.product.id for m in maps]
    assert ids == ["doi:10.1000/alpha", "doi:10.1000/zeta"]
    headlines = [m.product.headline for m in maps]
    assert headlines == ["Package alpha", "Package zeta"]


def test_load_all_returns_maps_in_id_order(registry: Registry) -> None:
    registry.ingest(_doc("zeta"))
    registry.ingest(_doc("alpha"))
    ids = [m.product.id for m in registry.load_all()]
    assert ids == sorted(ids)


def _object_file(registry: Registry, product_id: str) -> Path:
    digest = hashlib.sha256(product_id.encode()).hexdigest()
    return registry.root / "objects" / f"{digest}.jsonld"


def test_get_after_its_object_file_is_deleted_is_not_found(registry: Registry) -> None:
    product_id = registry.ingest(_doc("alpha"))
    _object_file(registry, product_id).unlink()
    with pytest.raises(NotFound):
        registry.get(product_id)
    assert registry.load_all() == []


@pytest.mark.parametrize(
    "error,outcome",
    [
        (FileNotFoundError(errno.ENOENT, "gone"), NotFound),
        (NotADirectoryError(errno.ENOTDIR, "not a directory"), NotFound),
        (PermissionError(errno.EACCES, "denied"), StorageError),
    ],
    ids=["removed", "under-a-file", "unreadable"],
)
def test_get_reads_once_and_maps_a_missing_file_to_not_found(
    registry: Registry, monkeypatch, error: OSError, outcome: type
) -> None:
    """An object file removed after any check, or under a path that is not
    a directory, is NotFound; any other read failure is a StorageError."""
    product_id = registry.ingest(_doc("alpha"))
    reads = []

    def failing_read(path):
        reads.append(path)
        raise error

    monkeypatch.setattr(registry_module, "_read_regular", failing_read)
    with pytest.raises(outcome) as excinfo:
        registry.get(product_id)
    assert type(excinfo.value) is outcome and excinfo.value.__cause__ is error
    assert reads == [_object_file(registry, product_id)]


def test_object_file_holding_another_product_is_reported(registry: Registry) -> None:
    alpha = registry.ingest(_doc("alpha"))
    beta = registry.ingest(_doc("beta"))
    _object_file(registry, beta).replace(_object_file(registry, alpha))
    with pytest.raises(StorageError, match="holds doi:10.1000/beta"):
        registry.get(alpha)


def test_unparseable_object_file_is_a_storage_error(registry: Registry) -> None:
    product_id = registry.ingest(_doc("alpha"))
    _object_file(registry, product_id).write_text("{ not json")
    with pytest.raises(StorageError, match="does not parse"):
        registry.load_all()


def test_leftover_temp_file_is_ignored(registry: Registry) -> None:
    registry.ingest(_doc("alpha"))
    (registry.root / "objects" / ".tmp-interrupted").write_bytes(_doc("beta")[:40])
    assert [m.product.id for m in registry.load_all()] == ["doi:10.1000/alpha"]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_a_failed_object_write_leaves_no_temp_file(
    registry: Registry, monkeypatch, failing: str
) -> None:
    registry.ingest(_doc("alpha"))

    def full_disk(*args) -> None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, failing, full_disk)
    with pytest.raises(StorageError, match="cannot write"):
        registry.ingest(_doc("beta"))
    monkeypatch.undo()
    assert sorted(p.name for p in (registry.root / "objects").iterdir()) == [
        _object_file(registry, "doi:10.1000/alpha").name
    ]


def test_ingest_writes_only_objects_and_the_lock(registry: Registry) -> None:
    registry.ingest(_doc("alpha"))
    registry.ingest(_doc("alpha", author_weight="0.9", dep_weight="0.1"), force=True)
    registry.ingest(_doc("beta"))
    assert sorted(p.name for p in registry.root.iterdir()) == [".lock", "objects"]
    assert sorted(p.name for p in (registry.root / "objects").iterdir()) == sorted(
        _object_file(registry, f"doi:10.1000/{s}").name
        for s in ("alpha", "beta")
    )


def test_nested_batches_take_the_lock_once_and_sync_the_directory_once(
    registry: Registry, sync_calls: dict[str, int]
) -> None:
    with registry.batch():
        registry.ingest(_doc("alpha"))
        with registry.batch():
            registry.ingest(_doc("beta"))
        with pytest.raises(DuplicateProduct):
            registry.ingest(_doc("alpha"))
    assert sync_calls == {"flock": 1, "fsync": 3}


def test_batch_that_ends_in_an_error_still_syncs_the_directory(
    registry: Registry, sync_calls: dict[str, int]
) -> None:
    with pytest.raises(ZeroDivisionError):
        with registry.batch():
            registry.ingest(_doc("alpha"))
            1 / 0
    assert sync_calls == {"flock": 1, "fsync": 2}
    with registry.batch():
        pass
    assert sync_calls == {"flock": 2, "fsync": 2}


def test_concurrent_writer_fails_fast(registry: Registry) -> None:
    registry.ingest(_doc("alpha"))
    fd = os.open(str(registry.root / ".lock"), os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StorageError, match="lock"):
            registry.ingest(_doc("beta"))
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
    registry.ingest(_doc("beta"))


def test_registry_layout_is_created_lazily(tmp_path: Path) -> None:
    registry = Registry(tmp_path / "deep" / "nested" / "reg")
    assert not registry.root.exists()
    assert registry.load_all() == []
    registry.ingest(_doc("alpha"))
    assert (registry.root / "objects").is_dir()


@pytest.mark.parametrize("size", [0, 1, 70_000])
def test_a_regular_file_is_read_in_one_read_call(tmp_path: Path, monkeypatch, size: int) -> None:
    """A read that returns no more than the file's size has reached its end."""
    path = tmp_path / "file"
    path.write_bytes(b"x" * size)
    calls: list[int] = []
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: calls.append(n) or read(fd, n))
    assert registry_module._read_regular(path)[0] == b"x" * size
    assert calls == [size + 1]


def test_a_file_that_grew_after_its_fstat_is_read_to_its_end(tmp_path: Path, monkeypatch) -> None:
    path = tmp_path / "file"
    path.write_bytes(b"x" * 200_000)
    fstat = os.fstat
    monkeypatch.setattr(
        os, "fstat", lambda fd: SimpleNamespace(st_mode=fstat(fd).st_mode, st_size=10)
    )
    assert registry_module._read_regular(path)[0] == b"x" * 200_000
