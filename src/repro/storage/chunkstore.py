"""Chunked, file-backed store with a versioned manifest.

The on-disk unit of the out-of-core and checkpoint/restart layers
(*MPI Windows on Storage*, arXiv:1810.04110): one store is a directory
holding

* ``manifest.json`` -- the **committed** state: for every array its
  dtype / length / chunk size, and for every written chunk the *epoch*
  of its current version plus a CRC32 of its bytes.  The manifest is
  canonical JSON (sorted keys, compact separators) written atomically
  (temp file + ``os.replace``), so two equal stores serialise to the
  identical string and a crash can never leave a half-written manifest.
* ``arrays/<name>/c<idx>.e<epoch>`` -- raw little-endian chunk bytes.
  Chunk files are **write-once per epoch**: a flush for epoch ``E``
  writes fresh ``.e<E>`` files and only the subsequent :meth:`commit`
  points the manifest at them.  A crash between flush and commit
  therefore leaves the previous checkpoint fully intact -- the property
  the chaos restart battery exercises at every fault site.

Concurrency: the store itself takes one internal lock around manifest
and counter mutation; *data* races are the caller's problem, resolved
one level up by the per-chunk synchronizers of
:class:`~repro.storage.array.ChunkedArray` (the zarr
``ThreadSynchronizer`` shape).

Fault sites ``storage.read`` / ``storage.write`` / ``storage.flush``
fire on every chunk read, chunk write and manifest commit, so the chaos
harness can crash a run mid-flush and the restart test can replay it
from the last durable fence.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from typing import Any, Dict, List, Optional

import numpy as np

MANIFEST_NAME = "manifest.json"
ARRAYS_DIR = "arrays"

#: default chunk size (elements) when neither the array nor the caller
#: picks one
DEFAULT_CHUNK_ELEMS = 1024

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:\-]*$")
_CHUNK_FILE_RE = re.compile(r"^c(\d+)\.e(\d+)$")


class StorageError(RuntimeError):
    """A chunk store operation failed (corrupt manifest, checksum
    mismatch, incompatible array metadata)."""


def _canonical(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class ChunkStore:
    """One chunked, file-backed store rooted at a directory."""

    def __init__(self, root: str, manifest: Dict[str, Any]) -> None:
        self.root = os.fspath(root)
        self._manifest = manifest
        self._lock = threading.Lock()
        #: pending (flushed but uncommitted) chunk versions:
        #: (name, idx) -> {"epoch", "crc", "nbytes"}
        self._pending: Dict[tuple, Dict[str, int]] = {}
        #: the runtime this store is bound to (fault injection + metrics)
        self.runtime: Optional[Any] = None
        # counters (guarded by self._lock)
        self.chunk_reads = 0
        self.chunk_writes = 0
        self.read_bytes = 0
        self.written_bytes = 0
        self.commits = 0

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, root, *, overwrite: bool = False) -> "ChunkStore":
        """Create a fresh store directory (must not already hold a
        manifest unless ``overwrite``)."""
        root = os.fspath(root)
        path = os.path.join(root, MANIFEST_NAME)
        if os.path.exists(path) and not overwrite:
            raise StorageError(f"store already exists at {root} (open it)")
        os.makedirs(os.path.join(root, ARRAYS_DIR), exist_ok=True)
        store = cls(root, {"version": 1, "epoch": 0, "arrays": {}})
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root) -> "ChunkStore":
        """Reopen an existing store from its manifest: the state as of
        the last completed :meth:`commit`.  Orphan chunk files and a stale
        manifest temp file left by a crash are garbage-collected."""
        root = os.fspath(root)
        path = os.path.join(root, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise StorageError(f"no store at {root}: missing {MANIFEST_NAME}")
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt manifest at {path}: {exc}")
        if manifest.get("version") != 1:
            raise StorageError(
                f"unsupported store version {manifest.get('version')!r}"
            )
        store = cls(root, manifest)
        store._gc_orphans()
        return store

    def bind(self, runtime: Any) -> "ChunkStore":
        """Bind the store to a runtime: fault-site hits are routed to
        its injector and ``runtime.metrics("storage")`` aggregates this
        store's counters.  Idempotent."""
        with self._lock:
            self.runtime = runtime
        attach = getattr(runtime, "attach_store", None)
        if attach is not None:
            attach(self)
        return self

    # ------------------------------------------------------------- queries
    @property
    def epoch(self) -> int:
        """The last *committed* fence epoch (0 for a fresh store)."""
        with self._lock:
            return int(self._manifest["epoch"])

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def manifest_json(self) -> str:
        """The committed manifest as its canonical JSON string."""
        with self._lock:
            return _canonical(self._manifest)

    def array_names(self) -> List[str]:
        with self._lock:
            return sorted(self._manifest["arrays"])

    def has_array(self, name: str) -> bool:
        with self._lock:
            return name in self._manifest["arrays"]

    def array_meta(self, name: str) -> Dict[str, Any]:
        with self._lock:
            meta = self._manifest["arrays"].get(name)
            if meta is None:
                raise StorageError(f"no array {name!r} in store")
            return dict(meta, chunks=dict(meta["chunks"]))

    def has_chunk(self, name: str, idx: int) -> bool:
        """Is a version of chunk ``idx`` readable (pending or
        committed)?"""
        with self._lock:
            if (name, int(idx)) in self._pending:
                return True
            meta = self._manifest["arrays"].get(name)
            return meta is not None and str(int(idx)) in meta["chunks"]

    # -------------------------------------------------------------- arrays
    def ensure_array(
        self, name: str, length: int, dtype: Any, chunk_elems: int
    ) -> bool:
        """Register an array, or validate it against an existing
        registration (the restore path).  Returns True when the array
        was newly created."""
        if not _NAME_RE.match(name or ""):
            raise StorageError(
                f"invalid array name {name!r} (use letters, digits, "
                f"'._:-'; must not start with a separator)"
            )
        dt = np.dtype(dtype)
        length = int(length)
        chunk_elems = int(chunk_elems)
        if length < 0:
            raise StorageError("array length must be >= 0")
        if chunk_elems < 1:
            raise StorageError("chunk_elems must be >= 1")
        with self._lock:
            meta = self._manifest["arrays"].get(name)
            if meta is not None:
                if (
                    meta["dtype"] != dt.str
                    or int(meta["length"]) != length
                    or int(meta["chunk_elems"]) != chunk_elems
                ):
                    raise StorageError(
                        f"array {name!r} exists with incompatible metadata "
                        f"(stored dtype={meta['dtype']} length={meta['length']} "
                        f"chunk_elems={meta['chunk_elems']}; requested "
                        f"dtype={dt.str} length={length} "
                        f"chunk_elems={chunk_elems})"
                    )
                return False
            self._manifest["arrays"][name] = {
                "dtype": dt.str,
                "length": length,
                "chunk_elems": chunk_elems,
                "chunks": {},
            }
            # registration is durable immediately (the epoch does not
            # move): a reopen must be able to validate metadata even if
            # no fence ever committed a chunk
            self._write_manifest_locked()
        os.makedirs(self._array_dir(name), exist_ok=True)
        return True

    # --------------------------------------------------------------- chunks
    def read_chunk(self, name: str, idx: int, *, task: int = 0) -> np.ndarray:
        """Read the latest readable version of one chunk (pending wins
        over committed) and validate its checksum."""
        self._hit("storage.read", task)
        idx = int(idx)
        with self._lock:
            meta = self._manifest["arrays"].get(name)
            if meta is None:
                raise StorageError(f"no array {name!r} in store")
            entry = self._pending.get((name, idx))
            if entry is None:
                entry = meta["chunks"].get(str(idx))
            if entry is None:
                raise StorageError(f"array {name!r} has no chunk {idx}")
            epoch, crc = int(entry["epoch"]), int(entry["crc"])
            nbytes = entry.get("nbytes")
            dt = np.dtype(meta["dtype"])
        path = self._chunk_path(name, idx, epoch)
        try:
            fh = open(path, "rb", buffering=0)
        except FileNotFoundError:
            raise StorageError(
                f"chunk file missing for {name!r}[{idx}] epoch {epoch}"
            )
        # one move: page cache -> the chunk's own buffer, checksummed there
        with fh:
            size = os.fstat(fh.fileno()).st_size
            data = np.empty(size // dt.itemsize, dtype=dt)
            raw = data.view(np.uint8)
            got = 0
            while got < raw.size:
                n = fh.readinto(raw[got:])
                if not n:
                    break
                got += n
        if (
            nbytes not in (None, size)
            or got != size
            or zlib.crc32(raw) & 0xFFFFFFFF != crc
        ):
            raise StorageError(
                f"checksum mismatch reading {name!r}[{idx}] epoch {epoch}"
            )
        with self._lock:
            self.chunk_reads += 1
            self.read_bytes += size
        return data

    def write_chunk(
        self, name: str, idx: int, data: np.ndarray, *, task: int = 0
    ) -> None:
        """Write one chunk as a *pending* version for the next epoch.
        Not durable until :meth:`commit` folds it into the manifest."""
        self._hit("storage.write", task)
        idx = int(idx)
        with self._lock:
            meta = self._manifest["arrays"].get(name)
            if meta is None:
                raise StorageError(f"no array {name!r} in store")
            dt = np.dtype(meta["dtype"])
            epoch = int(self._manifest["epoch"]) + 1
        # the contiguous array's own bytes: written and checksummed in place
        raw = np.ascontiguousarray(data, dtype=dt).reshape(-1).view(np.uint8)
        path = self._chunk_path(name, idx, epoch)
        with open(path, "wb") as fh:
            fh.write(raw)
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        with self._lock:
            self._pending[(name, idx)] = {
                "epoch": epoch,
                "crc": crc,
                "nbytes": raw.size,
            }
            self.chunk_writes += 1
            self.written_bytes += raw.size

    def commit(self, *, task: int = 0) -> int:
        """Fold every pending chunk version into the manifest and write
        it atomically: the fence-as-checkpoint step.  Returns the new
        committed epoch.  A no-op (same epoch) when nothing is pending."""
        self._hit("storage.flush", task)
        with self._lock:
            if not self._pending:
                return int(self._manifest["epoch"])
            epoch = int(self._manifest["epoch"]) + 1
            superseded: List[tuple] = []
            for (name, idx), entry in sorted(self._pending.items()):
                chunks = self._manifest["arrays"][name]["chunks"]
                old = chunks.get(str(idx))
                if old is not None and int(old["epoch"]) != entry["epoch"]:
                    superseded.append((name, idx, int(old["epoch"])))
                chunks[str(idx)] = dict(entry)
            self._pending.clear()
            self._manifest["epoch"] = epoch
            self._write_manifest_locked()
            self.commits += 1
        # best-effort GC of superseded versions, after the commit is
        # durable -- a crash here costs disk space, never data
        for name, idx, old_epoch in superseded:
            try:
                os.unlink(self._chunk_path(name, idx, old_epoch))
            except OSError:
                pass
        return epoch

    # ------------------------------------------------------------ internals
    def _hit(self, site: str, task: int) -> None:
        rt = self.runtime
        faults = getattr(rt, "faults", None) if rt is not None else None
        if faults is not None:
            faults.hit(site, task)

    def _array_dir(self, name: str) -> str:
        return os.path.join(self.root, ARRAYS_DIR, name)

    def _chunk_path(self, name: str, idx: int, epoch: int) -> str:
        return os.path.join(self._array_dir(name), f"c{idx}.e{epoch}")

    def _write_manifest(self) -> None:
        with self._lock:
            self._write_manifest_locked()

    def _write_manifest_locked(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_canonical(self._manifest))
            fh.write("\n")
        os.replace(tmp, self.manifest_path)

    def _gc_orphans(self) -> None:
        """Delete chunk files not referenced by the committed manifest,
        and the temp file of a manifest write that never reached its
        rename (the residue of a crashed flush or commit)."""
        try:
            os.unlink(self.manifest_path + ".tmp")
        except OSError:
            pass
        base = os.path.join(self.root, ARRAYS_DIR)
        if not os.path.isdir(base):
            return
        with self._lock:
            arrays = {
                name: {
                    int(i): int(e["epoch"])
                    for i, e in meta["chunks"].items()
                }
                for name, meta in self._manifest["arrays"].items()
            }
        for name in os.listdir(base):
            adir = os.path.join(base, name)
            if not os.path.isdir(adir):
                continue
            live = arrays.get(name, {})
            for fname in os.listdir(adir):
                m = _CHUNK_FILE_RE.match(fname)
                if m is None:
                    continue
                idx, epoch = int(m.group(1)), int(m.group(2))
                if live.get(idx) != epoch:
                    try:
                        os.unlink(os.path.join(adir, fname))
                    except OSError:
                        pass

    # ------------------------------------------------------------ reporting
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "chunk_reads": self.chunk_reads,
                "chunk_writes": self.chunk_writes,
                "read_bytes": self.read_bytes,
                "written_bytes": self.written_bytes,
                "commits": self.commits,
                "epoch": int(self._manifest["epoch"]),
                "arrays": len(self._manifest["arrays"]),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkStore({self.root!r}, epoch={self.epoch}, "
            f"arrays={len(self.array_names())})"
        )


__all__ = [
    "ARRAYS_DIR",
    "ChunkStore",
    "DEFAULT_CHUNK_ELEMS",
    "MANIFEST_NAME",
    "StorageError",
]
