"""The persistent cache store: ``Profiler`` structures on disk, per relation.

A :class:`CacheStore` is a directory of versioned binary entries keyed by
``(relation fingerprint, structure kind, params)``.  It is what lets warmed
sessions survive process restarts and be shared between workers: a
:class:`~repro.api.Profiler` dumps its caches with
:meth:`~repro.api.Profiler.dump_caches` and a fresh session (same relation,
different process) reloads them with :meth:`~repro.api.Profiler.warm_from`;
the :class:`~repro.serve.pool.SessionPool` does both automatically when
constructed with ``store=`` (evicted sessions spill, admitted sessions
warm-start).

Entry format
------------
One file per entry::

    magic (8 bytes) | header length (8 bytes LE) | JSON header | raw buffers

The header carries the store format version, the fingerprint, kind and params
of the entry, a JSON-native ``meta`` payload, the dtype/shape manifest of
the numpy buffers that follow (``np.save``-style raw C-order bytes, no
pickling anywhere), and a BLAKE2b digest over those buffers.  Loads are
defensive — every one of these failures makes :meth:`CacheStore.get` return
``None`` (callers fall back to a cold build) instead of raising:

* unknown magic or store format version (``FORMAT_VERSION`` bumps whenever
  the payload layout of any kind changes);
* a dtype outside the fixed allowlist, or buffers shorter than the manifest
  promises (truncated/corrupted files);
* a payload digest that does not match the header's (bit rot, torn or
  patched buffers);
* a header fingerprint that does not match the requested one (the
  re-verification that catches moved or mixed-up files);
* params recorded in the header differing from the requested params.

Structurally corrupt files additionally get **quarantined**: moved to
``<root>/quarantine/`` next to a ``.reason`` file naming what was wrong, so
a damaged store degrades to a cold start *visibly* instead of silently.
:meth:`CacheStore.fsck` sweeps the whole store on demand (shallow header
checks or deep digest verification — the ``repro-discover --cache-fsck``
command and the serving CLIs' startup sweep run it).

Writes are atomic: the entry is written to a temp file in the target
directory and ``os.replace``d into place, so concurrent readers in other
worker processes only ever observe complete entries.

The module also hosts the pack/unpack helpers for every persisted structure
kind (free/closed mining results, partition bundles, difference-set provider
query caches, engine results); :class:`~repro.api.Profiler` orchestrates
them but owns no format knowledge.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core.cfd import CFD
from repro.core.pattern import WILDCARD
from repro.devtools.lockcheck import check_io_unlocked
from repro.exceptions import CacheStoreError
from repro.obs.names import SPAN_STORE_GET, SPAN_STORE_PUT
from repro.relational.partition import Partition
from repro.serve.faults import (
    FAULT_POINT_STORE_GET,
    FAULT_POINT_STORE_PUT,
    FaultInjected,
    FaultPlan,
)

#: Structure kinds the store understands (order = warm-load priority: the
#: closed difference-set provider is rebuilt from the free/closed result, so
#: mining entries must land first).
KIND_FREE_CLOSED = "free_closed"
KIND_ATTRIBUTE_PARTITIONS = "attribute_partitions"
KIND_PATTERN_PARTITIONS = "pattern_partitions"
KIND_DIFFERENCE_SETS = "difference_sets"
KIND_ENGINE_RESULTS = "engine_results"
#: Mid-run lattice frontier of a CTANE run (resume-after-crash); not part of
#: KIND_ORDER because it is not a warm-load structure — the engine fetches it
#: by key when (and only when) it runs.
KIND_CTANE_CHECKPOINT = "ctane_checkpoint"
KIND_ORDER = (
    KIND_FREE_CLOSED,
    KIND_ATTRIBUTE_PARTITIONS,
    KIND_PATTERN_PARTITIONS,
    KIND_DIFFERENCE_SETS,
    KIND_ENGINE_RESULTS,
)

#: Numpy dtypes an entry may carry; anything else is rejected on load.
ALLOWED_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
     "float32", "float64", "bool"}
)

#: Scalar types that survive a JSON round trip unchanged; engine results and
#: options containing anything else are simply not persisted.
_JSON_SCALARS = (str, int, float, bool, type(None))


def is_json_scalar(value: object) -> bool:
    return isinstance(value, _JSON_SCALARS)


def _canonical_params(params: Dict[str, object]) -> str:
    """Deterministic JSON rendering of an entry's params (the key suffix)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


@dataclass
class StoreEntry:
    """One decoded store entry: identity, JSON meta and named numpy buffers."""

    fingerprint: str
    kind: str
    params: Dict[str, object]
    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def array(self, name: str, dtype: str) -> np.ndarray:
        """The named buffer, guarded to the expected dtype."""
        try:
            array = self.arrays[name]
        except KeyError:
            raise CacheStoreError(f"entry misses array {name!r}") from None
        if array.dtype != np.dtype(dtype):
            raise CacheStoreError(
                f"array {name!r} has dtype {array.dtype}, expected {dtype}"
            )
        return array


class CacheStore:
    """A versioned on-disk store of per-relation discovery structures.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Entries live in
        one sub-directory per relation fingerprint.
    max_bytes:
        Optional size budget.  The store never *blocks* a write on it;
        instead :meth:`enforce_budget` (called by spill paths —
        :meth:`~repro.api.Profiler.dump_caches` and the session pool's
        persist) runs :meth:`gc` down to the budget whenever the footprint
        exceeds it, so a long-lived serving store converges to the cap
        instead of growing without bound.

    The store itself is format-only: it reads and writes
    :class:`StoreEntry` records and never interprets the payloads — the
    pack/unpack helpers of this module and
    :meth:`~repro.api.Profiler.dump_caches` /
    :meth:`~repro.api.Profiler.warm_from` do.
    """

    #: Bump whenever the binary layout or any kind's payload schema changes;
    #: readers skip entries written under any other version.  Version 2 added
    #: the mandatory ``payload_digest`` header field (BLAKE2b over the raw
    #: array buffers, verified on every full load).
    FORMAT_VERSION = 2
    MAGIC = b"RPROCS01"
    _SUFFIX = ".rpc"
    #: Corrupt entries are moved here (flattened ``<fingerprint>-<entry>``
    #: names, each with a ``.reason`` sidecar) instead of being deleted.
    QUARANTINE_DIRNAME = "quarantine"

    #: Lock-file acquisition: retry cadence, give-up horizon, and the mtime
    #: age past which a lock is presumed abandoned (a crashed worker) and
    #: broken.
    LOCK_RETRY_SECONDS = 0.005
    LOCK_TIMEOUT_SECONDS = 5.0
    LOCK_STALE_SECONDS = 30.0

    def __init__(
        self,
        root: os.PathLike,
        *,
        max_bytes: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        sweep: bool = False,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise CacheStoreError("max_bytes must be at least 0")
        self._root = Path(root)
        self.max_bytes = max_bytes
        self._faults = faults
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheStoreError(
                f"cannot create cache store at {self._root}: {exc}"
            ) from exc
        self.writes = 0
        self.loads = 0
        self.load_failures = 0
        self.gc_runs = 0
        self.gc_removed = 0
        self.lock_timeouts = 0
        self.quarantined = 0
        if sweep:
            # Startup recovery: shallow-check every entry (magic, header,
            # version, manifest-vs-size) and quarantine the torn/corrupt
            # leftovers of a crashed writer before serving starts.
            self.fsck(deep=False)

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def _entry_path(self, fingerprint: str, kind: str, params: Dict) -> Path:
        import hashlib

        digest = hashlib.blake2b(
            _canonical_params(params).encode("utf-8"), digest_size=6
        ).hexdigest()
        return self._root / fingerprint / f"{kind}-{digest}{self._SUFFIX}"

    def _visit_fault(self, point: str) -> Optional[float]:
        """Apply the fault plan at ``point``; injected failures surface as
        the store's native :class:`CacheStoreError` (torn-write faults
        return the surviving payload fraction for :meth:`put` to apply)."""
        if self._faults is None:
            return None
        try:
            return self._faults.visit(point)
        except (FaultInjected, ConnectionResetError) as exc:
            raise CacheStoreError(f"injected fault at {point}: {exc}") from exc

    @staticmethod
    def _payload_digest(chunks: Iterable[bytes]) -> str:
        digest = hashlib.blake2b(digest_size=16)
        for chunk in chunks:
            digest.update(chunk)
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def put(
        self,
        fingerprint: str,
        kind: str,
        params: Dict[str, object],
        *,
        meta: Optional[Dict[str, object]] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> Path:
        """Write one entry atomically (temp file + rename); returns its path."""
        check_io_unlocked(FAULT_POINT_STORE_PUT)
        with obs.get_tracer().start_span(SPAN_STORE_PUT, kind=kind) as span:
            return self._put_traced(span, fingerprint, kind, params, meta, arrays)

    def _put_traced(
        self,
        span,
        fingerprint: str,
        kind: str,
        params: Dict[str, object],
        meta: Optional[Dict[str, object]],
        arrays: Optional[Dict[str, np.ndarray]],
    ) -> Path:
        arrays = arrays or {}
        manifest = []
        buffers: List[bytes] = []
        for name, array in arrays.items():
            dtype = str(array.dtype)
            if dtype not in ALLOWED_DTYPES:
                raise CacheStoreError(f"dtype {dtype} is not storable")
            manifest.append({"name": name, "dtype": dtype, "shape": list(array.shape)})
            buffers.append(np.ascontiguousarray(array).tobytes())
        header = {
            "format_version": self.FORMAT_VERSION,
            "fingerprint": fingerprint,
            "kind": kind,
            "params": params,
            "meta": meta or {},
            "arrays": manifest,
            "payload_digest": self._payload_digest(buffers),
        }
        try:
            blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        except (TypeError, ValueError) as exc:
            raise CacheStoreError(f"entry header is not JSON-native: {exc}") from exc
        path = self._entry_path(fingerprint, kind, params)
        torn_fraction = self._visit_fault(FAULT_POINT_STORE_PUT)
        if torn_fraction is not None:
            # Emulate a crash mid-write that bypassed the atomic rename: a
            # truncated entry lands on the *final* path, then the writer
            # "dies" (the caller sees the store's native failure).  Recovery
            # sweeps and digest checks must catch exactly this file.
            full = self.MAGIC + struct.pack("<Q", len(blob)) + blob + b"".join(buffers)
            keep = max(len(self.MAGIC) + 4, int(len(full) * torn_fraction))
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(full[:keep])
            except OSError:
                pass
            raise CacheStoreError(f"injected torn write at store entry {path}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=self._SUFFIX
            )
        except OSError as exc:
            raise CacheStoreError(f"cannot write store entry {path}: {exc}") from exc
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(self.MAGIC)
                stream.write(struct.pack("<Q", len(blob)))
                stream.write(blob)
                for chunk in buffers:
                    stream.write(chunk)
            os.replace(temp_name, path)
        except OSError as exc:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise CacheStoreError(f"cannot write store entry {path}: {exc}") from exc
        self.writes += 1
        span.set_attr("bytes", len(blob) + sum(len(chunk) for chunk in buffers))
        return path

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def _load_path(self, path: Path) -> StoreEntry:
        """Decode one entry file; every malformation raises CacheStoreError."""
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CacheStoreError(f"cannot read store entry {path}: {exc}") from exc
        if len(blob) < len(self.MAGIC) + 8 or not blob.startswith(self.MAGIC):
            raise CacheStoreError(f"{path} is not a cache-store entry")
        offset = len(self.MAGIC)
        (header_len,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if offset + header_len > len(blob):
            raise CacheStoreError(f"{path} is truncated (header)")
        try:
            header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheStoreError(f"{path} has a corrupt header: {exc}") from exc
        offset += header_len
        if header.get("format_version") != self.FORMAT_VERSION:
            raise CacheStoreError(
                f"{path} was written under store format "
                f"{header.get('format_version')!r}, this reader expects "
                f"{self.FORMAT_VERSION}"
            )
        arrays: Dict[str, np.ndarray] = {}
        payload_start = offset
        for spec in header.get("arrays", []):
            dtype = spec.get("dtype")
            if dtype not in ALLOWED_DTYPES:
                raise CacheStoreError(f"{path} declares forbidden dtype {dtype!r}")
            shape = tuple(int(n) for n in spec.get("shape", []))
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * np.dtype(dtype).itemsize
            if offset + nbytes > len(blob):
                raise CacheStoreError(f"{path} is truncated (array {spec['name']!r})")
            arrays[spec["name"]] = np.frombuffer(
                blob, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape)
            offset += nbytes
        expected = header.get("payload_digest")
        if not isinstance(expected, str):
            raise CacheStoreError(f"{path} carries no payload digest")
        actual = self._payload_digest([blob[payload_start:offset]])
        if actual != expected:
            raise CacheStoreError(
                f"{path} fails its payload digest "
                f"(header {expected}, computed {actual})"
            )
        return StoreEntry(
            fingerprint=header.get("fingerprint", ""),
            kind=header.get("kind", ""),
            params=header.get("params", {}),
            meta=header.get("meta", {}),
            arrays=arrays,
        )

    def get(
        self, fingerprint: str, kind: str, params: Dict[str, object]
    ) -> Optional[StoreEntry]:
        """The entry for this key, or ``None`` (missing, corrupt, mismatched)."""
        check_io_unlocked(FAULT_POINT_STORE_GET)
        with obs.get_tracer().start_span(SPAN_STORE_GET, kind=kind) as span:
            path = self._entry_path(fingerprint, kind, params)
            try:
                self._visit_fault(FAULT_POINT_STORE_GET)
            except CacheStoreError:
                self.load_failures += 1
                span.set_attr("hit", False)
                return None
            if not path.exists():
                span.set_attr("hit", False)
                return None
            try:
                entry = self._load_path(path)
            except CacheStoreError as exc:
                # Structural corruption (torn write, bit rot, bad version):
                # move the file out of the serving path with its reason on
                # record.
                self.load_failures += 1
                self._quarantine(path, str(exc))
                span.set_attr("hit", False)
                span.set_status("error", error="corrupt")
                return None
            try:
                self._verify(entry, fingerprint, kind=kind, params=params)
            except CacheStoreError:
                self.load_failures += 1
                span.set_attr("hit", False)
                return None
            self.loads += 1
            span.set_attr("hit", True)
            return entry

    def _verify(
        self,
        entry: StoreEntry,
        fingerprint: str,
        *,
        kind: Optional[str] = None,
        params: Optional[Dict] = None,
    ) -> None:
        if entry.fingerprint != fingerprint:
            raise CacheStoreError(
                f"entry fingerprint {entry.fingerprint!r} does not match the "
                f"requested relation {fingerprint!r}"
            )
        if kind is not None and entry.kind != kind:
            raise CacheStoreError(f"entry kind {entry.kind!r} != {kind!r}")
        if params is not None and _canonical_params(entry.params) != _canonical_params(
            params
        ):
            raise CacheStoreError("entry params do not match the requested params")

    def load_all(self, fingerprint: str) -> List[StoreEntry]:
        """Every readable warm-load entry of one relation, in kind order.

        Only the kinds of :data:`KIND_ORDER` are read: the ``{kind}-``
        file-name prefix filters out in-progress temp files and the entries
        fetched by key instead (CTANE checkpoints) before any byte of them is
        read.  Corrupt/mismatched entries are counted in
        :attr:`load_failures` and silently skipped — a damaged store degrades
        to a cold start, never to a crash.
        """
        directory = self._root / fingerprint
        if not directory.is_dir():
            return []
        entries: List[StoreEntry] = []
        for path in sorted(directory.glob(f"*{self._SUFFIX}")):
            if path.name.rpartition("-")[0] not in KIND_ORDER:
                continue
            try:
                entry = self._load_path(path)
            except CacheStoreError as exc:
                self.load_failures += 1
                self._quarantine(path, str(exc))
                continue
            try:
                self._verify(entry, fingerprint)
            except CacheStoreError:
                self.load_failures += 1
                continue
            self.loads += 1
            entries.append(entry)
        rank = {kind: index for index, kind in enumerate(KIND_ORDER)}
        entries.sort(key=lambda e: rank.get(e.kind, len(rank)))
        return entries

    # ------------------------------------------------------------------ #
    # cross-process locking
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def lock(self, fingerprint: str, kind: str) -> Iterator[bool]:
        """A cross-process lock over one ``(fingerprint, kind)`` merge scope.

        Two workers sharing a store directory both run read→union→write on
        the fixed-key bundle entries during spill; without mutual exclusion
        the slower writer silently drops the faster one's additions.  The
        lock is an ``O_CREAT | O_EXCL`` file (``.lock-<kind>`` inside the
        relation's directory — dot-prefixed, so entry walks skip it) retried
        every :attr:`LOCK_RETRY_SECONDS`.  Locks older than
        :attr:`LOCK_STALE_SECONDS` are presumed abandoned by a crashed
        holder and broken.  Acquisition is **best-effort**: after
        :attr:`LOCK_TIMEOUT_SECONDS` the context proceeds *without* the lock
        (yielding ``False``) — a spill must degrade to the old racy merge,
        never fail or hang the serving path.
        """
        directory = self._root / fingerprint
        path = directory / f".lock-{kind}"
        deadline = time.monotonic() + self.LOCK_TIMEOUT_SECONDS
        acquired = False
        while True:
            try:
                directory.mkdir(parents=True, exist_ok=True)
                handle = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(handle)
                acquired = True
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    self.lock_timeouts += 1
                    break
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder just released: retry immediately
                if age > self.LOCK_STALE_SECONDS:
                    try:
                        path.unlink()  # break the abandoned lock
                    except OSError:
                        pass
                    continue
                time.sleep(self.LOCK_RETRY_SECONDS)
            except OSError:
                # An unwritable directory must not fail the spill either.
                self.lock_timeouts += 1
                break
        try:
            yield acquired
        finally:
            if acquired:
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    # recovery: quarantine and fsck
    # ------------------------------------------------------------------ #
    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (``<root>/quarantine/``)."""
        return self._root / self.QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, reason: str) -> bool:
        """Move one corrupt entry to the quarantine directory, best-effort.

        The entry keeps its bytes (``<fingerprint>-<name>``) and gains a
        ``.reason`` sidecar recording why it was pulled; a store that cannot
        quarantine (read-only, races) still degrades to a cold start.
        """
        target_dir = self.quarantine_dir
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / f"{path.parent.name}-{path.name}"
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.parent.name}-{path.name}.{suffix}"
            os.replace(str(path), str(target))
            target.with_name(target.name + ".reason").write_text(
                f"source: {path}\nreason: {reason}\n", encoding="utf-8"
            )
        except OSError:
            return False
        self.quarantined += 1
        return True

    def _check_shallow(self, path: Path) -> None:
        """Cheap integrity check: magic, header, version, manifest vs size.

        Catches torn writes and truncation without reading the array
        payload; :meth:`fsck` with ``deep=True`` adds the digest pass.
        """
        try:
            size = path.stat().st_size
            with path.open("rb") as stream:
                magic = stream.read(len(self.MAGIC))
                if magic != self.MAGIC:
                    raise CacheStoreError(f"{path} is not a cache-store entry")
                prefix = stream.read(8)
                if len(prefix) != 8:
                    raise CacheStoreError(f"{path} is truncated (header length)")
                (header_len,) = struct.unpack("<Q", prefix)
                if header_len > 64 * 2 ** 20:
                    raise CacheStoreError(f"{path} declares an absurd header")
                blob = stream.read(header_len)
        except OSError as exc:
            raise CacheStoreError(f"cannot read store entry {path}: {exc}") from exc
        if len(blob) != header_len:
            raise CacheStoreError(f"{path} is truncated (header)")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheStoreError(f"{path} has a corrupt header: {exc}") from exc
        if header.get("format_version") != self.FORMAT_VERSION:
            raise CacheStoreError(
                f"{path} was written under store format "
                f"{header.get('format_version')!r}, this reader expects "
                f"{self.FORMAT_VERSION}"
            )
        if not isinstance(header.get("payload_digest"), str):
            raise CacheStoreError(f"{path} carries no payload digest")
        expected = len(self.MAGIC) + 8 + header_len
        try:
            for spec in header.get("arrays", []):
                dtype = spec.get("dtype")
                if dtype not in ALLOWED_DTYPES:
                    raise CacheStoreError(
                        f"{path} declares forbidden dtype {dtype!r}"
                    )
                shape = tuple(int(n) for n in spec.get("shape", []))
                count = int(np.prod(shape)) if shape else 1
                expected += count * np.dtype(dtype).itemsize
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheStoreError(f"{path} has a corrupt manifest: {exc}") from exc
        if size < expected:
            raise CacheStoreError(
                f"{path} is truncated ({size} bytes on disk, manifest "
                f"promises {expected})"
            )

    def fsck(self, *, deep: bool = True) -> Dict[str, object]:
        """Sweep every entry, quarantining the corrupt ones; returns a report.

        ``deep=True`` fully decodes each entry (including the payload-digest
        verification); ``deep=False`` runs the shallow header/size check only
        — that is the startup sweep (``CacheStore(..., sweep=True)``), cheap
        enough to run before serving.  The report lists each quarantined
        entry with its reason.
        """
        checked = 0
        healthy = 0
        problems: List[Dict[str, str]] = []
        for path in self._entry_files():
            checked += 1
            try:
                if deep:
                    self._load_path(path)
                else:
                    self._check_shallow(path)
            except CacheStoreError as exc:
                reason = str(exc)
                self._quarantine(path, reason)
                problems.append({"path": str(path), "reason": reason})
                continue
            healthy += 1
        return {
            "checked": checked,
            "healthy": healthy,
            "quarantined": len(problems),
            "problems": problems,
            "quarantine_dir": str(self.quarantine_dir),
        }

    # ------------------------------------------------------------------ #
    # maintenance / introspection
    # ------------------------------------------------------------------ #
    def delete(
        self, fingerprint: str, kind: str, params: Dict[str, object]
    ) -> bool:
        """Remove one entry by key; ``True`` if a file was deleted."""
        path = self._entry_path(fingerprint, kind, params)
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _entry_files(self) -> List[Path]:
        return [
            path
            for path in self._root.glob(f"*/*{self._SUFFIX}")
            if not path.name.startswith(".")
            and path.parent.name != self.QUARANTINE_DIRNAME
        ]

    def size_bytes(self) -> int:
        """Total bytes of every entry file currently in the store."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return len(self._entry_files())

    def _read_header(self, path: Path) -> Dict:
        """Decode only the JSON header of one entry (no array buffers)."""
        try:
            with path.open("rb") as stream:
                magic = stream.read(len(self.MAGIC))
                if magic != self.MAGIC:
                    raise CacheStoreError(f"{path} is not a cache-store entry")
                prefix = stream.read(8)
                if len(prefix) != 8:
                    raise CacheStoreError(f"{path} is truncated (header length)")
                (header_len,) = struct.unpack("<Q", prefix)
                if header_len > 64 * 2 ** 20:
                    raise CacheStoreError(f"{path} declares an absurd header")
                blob = stream.read(header_len)
        except OSError as exc:
            raise CacheStoreError(f"cannot read store entry {path}: {exc}") from exc
        if len(blob) != header_len:
            raise CacheStoreError(f"{path} is truncated (header)")
        try:
            return json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheStoreError(f"{path} has a corrupt header: {exc}") from exc

    def gc(self, max_bytes: int) -> Dict[str, object]:
        """Shrink the store to at most ``max_bytes``; returns a summary.

        Victims follow the session pool's cost-aware eviction score: the
        entry with the **lowest recorded build cost** (the ``build_seconds``
        its writer observed — what a cold rebuild would pay) goes first, with
        **oldest mtime** as the tiebreak; unreadable or wrong-version entries
        score below everything and are collected before any healthy one.
        Emptied per-relation directories are pruned.  ``gc(0)`` clears the
        store.  Deletion is best-effort — an entry that vanishes or resists
        unlinking (a concurrent worker, a read-only file) is skipped, never an
        error — so GC can run while other workers serve.
        """
        if max_bytes < 0:
            raise CacheStoreError("max_bytes must be at least 0")
        entries = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            try:
                header = self._read_header(path)
                if header.get("format_version") != self.FORMAT_VERSION:
                    raise CacheStoreError("wrong format version")
                score = float(header.get("meta", {}).get("build_seconds") or 0.0)
            except (AttributeError, CacheStoreError, TypeError, ValueError):
                # AttributeError covers a null / non-dict "meta" field: any
                # malformation scores below every healthy entry.
                score = -1.0
            entries.append((score, stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        removed_bytes = 0
        if total > max_bytes:
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            for score, _mtime, size, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
                removed_bytes += size
            for directory in self._root.iterdir():
                if directory.is_dir():
                    try:
                        directory.rmdir()  # only succeeds once empty
                    except OSError:
                        pass
        self.gc_runs += 1
        self.gc_removed += removed
        return {
            "max_bytes": int(max_bytes),
            "removed_entries": removed,
            "removed_bytes": removed_bytes,
            "remaining_entries": len(self),
            "remaining_bytes": total,
        }

    def enforce_budget(self) -> Optional[Dict[str, object]]:
        """Run :meth:`gc` down to :attr:`max_bytes` when the store exceeds it.

        ``None`` when no budget is configured or the store is within it.
        Spill paths call this after writing (``Profiler.dump_caches``, the
        session pool's persist), so the cap is enforced exactly where growth
        happens instead of only via the offline ``--cache-gc`` command.
        """
        if self.max_bytes is None:
            return None
        if self.size_bytes() <= self.max_bytes:
            return None
        return self.gc(self.max_bytes)

    def clear(self, fingerprint: Optional[str] = None) -> int:
        """Delete all entries (of one relation, if given); returns the count."""
        removed = 0
        for path in self._entry_files():
            if fingerprint is not None and path.parent.name != fingerprint:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def info(self) -> Dict[str, object]:
        """Counters plus the on-disk footprint."""
        return {
            "root": str(self._root),
            "entries": len(self),
            "bytes": self.size_bytes(),
            "max_bytes": self.max_bytes,
            "writes": self.writes,
            "loads": self.loads,
            "load_failures": self.load_failures,
            "gc_runs": self.gc_runs,
            "gc_removed": self.gc_removed,
            "lock_timeouts": self.lock_timeouts,
            "quarantined": self.quarantined,
        }


# ---------------------------------------------------------------------- #
# pack/unpack: free/closed mining results
# ---------------------------------------------------------------------- #
def pack_free_closed(result) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a :class:`~repro.itemsets.mining.FreeClosedResult`.

    Tid-lists are concatenated into one int64 buffer with an offsets array;
    the item sets and closures ride in the JSON meta as ``[attr, code]``
    pairs.
    """
    sets = []
    tid_chunks: List[np.ndarray] = []
    offsets = [0]
    for free in result.free_sets.values():
        sets.append(
            {
                "items": sorted([int(a), int(c)] for a, c in free.items),
                "closure": sorted([int(a), int(c)] for a, c in free.closure),
            }
        )
        tid_chunks.append(np.asarray(free.tids, dtype=np.int64))
        offsets.append(offsets[-1] + int(free.tids.size))
    tids = (
        np.concatenate(tid_chunks) if tid_chunks else np.empty(0, dtype=np.int64)
    )
    meta = {
        "min_support": int(result.min_support),
        "n_rows": int(result.n_rows),
        "sets": sets,
    }
    arrays = {"tids": tids, "offsets": np.asarray(offsets, dtype=np.int64)}
    return meta, arrays


def unpack_free_closed(entry: StoreEntry):
    """Rebuild a :class:`~repro.itemsets.mining.FreeClosedResult` from an entry."""
    from repro.itemsets.mining import FreeClosedResult, FreeItemSet

    tids = entry.array("tids", "int64")
    offsets = entry.array("offsets", "int64")
    sets = entry.meta["sets"]
    if offsets.size != len(sets) + 1:
        raise CacheStoreError("free/closed offsets do not match the item sets")
    free_sets = {}
    for index, spec in enumerate(sets):
        items = frozenset((int(a), int(c)) for a, c in spec["items"])
        closure = frozenset((int(a), int(c)) for a, c in spec["closure"])
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        if not 0 <= lo <= hi <= tids.size:
            raise CacheStoreError("free/closed tid offsets out of range")
        free_sets[items] = FreeItemSet(
            items=items, tids=tids[lo:hi], closure=closure
        )
    return FreeClosedResult(
        free_sets,
        min_support=int(entry.meta["min_support"]),
        n_rows=int(entry.meta["n_rows"]),
    )


# ---------------------------------------------------------------------- #
# pack/unpack: partition bundles
# ---------------------------------------------------------------------- #
def _pack_partitions(partitions: Iterable[Partition]) -> Dict[str, np.ndarray]:
    """The ``rows``/``labels``/``offsets``/``shapes`` buffers of a partition
    sequence: the compressed covered form of every partition (sorted int64
    row indices plus int32 class labels) concatenated, and one
    ``[n_rows, n_classes, size]`` int64 row per partition."""
    partitions = list(partitions)
    rows = [partition.covered_index for partition in partitions]
    labels = [partition.covered_labels for partition in partitions]
    shapes = [(p.n_rows, p.n_classes, p.size) for p in partitions]
    return {
        "rows": np.concatenate([np.empty(0, dtype=np.int64)] + rows).astype(
            np.int64, copy=False
        ),
        "labels": np.concatenate([np.empty(0, dtype=np.int32)] + labels).astype(
            np.int32, copy=False
        ),
        "offsets": np.cumsum([0] + [chunk.size for chunk in rows], dtype=np.int64),
        "shapes": np.array(shapes, dtype=np.int64).reshape(-1, 3),
    }


def _unpack_partitions(
    rows: np.ndarray, labels: np.ndarray, offsets: np.ndarray, shapes: np.ndarray
) -> List[Partition]:
    """Inverse of :func:`_pack_partitions` (views into the entry buffers)."""
    if rows.size != labels.size:
        raise CacheStoreError("partition bundle rows/labels length mismatch")
    if offsets.size != len(shapes) + 1:
        raise CacheStoreError("partition bundle manifest mismatch")
    bounds = offsets.tolist()
    if bounds[0] < 0 or bounds[-1] > rows.size or bounds != sorted(bounds):
        raise CacheStoreError("partition bundle offsets out of range")
    return [
        Partition.from_covered(
            rows[lo:hi], labels[lo:hi], n_rows, n_classes, size=size
        )
        for lo, hi, (n_rows, n_classes, size) in zip(
            bounds, bounds[1:], shapes.tolist()
        )
    ]


def pack_partition_bundle(
    items: Sequence[Tuple[object, "object"]]
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of ``[(json_key, Partition), ...]``.

    The partitions go into the buffers of :func:`_pack_partitions`; the keys
    and per-partition counts ride in the meta.
    """
    arrays = _pack_partitions(partition for _, partition in items)
    meta = {"keys": [key for key, _ in items], "shapes": arrays.pop("shapes").tolist()}
    return meta, arrays


def unpack_partition_bundle(entry: StoreEntry) -> List[Tuple[object, "object"]]:
    """Rebuild ``[(json_key, Partition), ...]`` from a bundle entry."""
    keys = entry.meta["keys"]
    shapes = entry.meta["shapes"]
    if len(shapes) != len(keys):
        raise CacheStoreError("partition bundle manifest mismatch")
    partitions = _unpack_partitions(
        entry.array("rows", "int64"),
        entry.array("labels", "int32"),
        entry.array("offsets", "int64"),
        np.asarray(shapes, dtype=np.int64).reshape(-1, 3),
    )
    return list(zip(keys, partitions))


# ---------------------------------------------------------------------- #
# pack/unpack: difference-set provider query caches
# ---------------------------------------------------------------------- #
def pack_query_cache(
    exported: Iterable[Tuple[int, frozenset, Set[frozenset]]]
) -> Dict:
    """Meta payload of a difference-set provider's ``export_cache()``."""
    entries = []
    for rhs, items, family in exported:
        entries.append(
            [
                int(rhs),
                sorted([int(a), int(c)] for a, c in items),
                sorted(sorted(int(a) for a in member) for member in family),
            ]
        )
    entries.sort()
    return {"entries": entries}


def unpack_query_cache(meta: Dict) -> List[Tuple[int, frozenset, Set[frozenset]]]:
    """The ``import_cache()`` payload of a persisted provider query cache."""
    out = []
    for rhs, items, family in meta["entries"]:
        out.append(
            (
                int(rhs),
                frozenset((int(a), int(c)) for a, c in items),
                {frozenset(int(a) for a in member) for member in family},
            )
        )
    return out


# ---------------------------------------------------------------------- #
# pack/unpack: engine results (canonical covers + stats)
# ---------------------------------------------------------------------- #
def _unpack_pattern_value(spec: Sequence) -> object:
    flag, value = spec
    return WILDCARD if flag else value


def _pack_rules(cfds) -> Optional[List[Dict]]:
    """JSON rules of a CFD sequence — pattern values as ``[0, constant]`` or
    ``[1, None]`` (wildcard) — or ``None`` if any value would not survive a
    JSON round trip byte-identically."""
    rules = []
    for cfd in cfds:
        values = (*cfd.lhs_pattern, cfd.rhs_pattern)
        if not all(value is WILDCARD or is_json_scalar(value) for value in values):
            return None
        packed = [[1, None] if value is WILDCARD else [0, value] for value in values]
        rules.append(
            {
                "lhs": list(cfd.lhs),
                "lhs_pattern": packed[:-1],
                "rhs": cfd.rhs,
                "rhs_pattern": packed[-1],
            }
        )
    return rules


def _unpack_rules(rules: Sequence[Dict]) -> List[CFD]:
    return [
        CFD(
            tuple(rule["lhs"]),
            tuple(_unpack_pattern_value(v) for v in rule["lhs_pattern"]),
            rule["rhs"],
            _unpack_pattern_value(rule["rhs_pattern"]),
        )
        for rule in rules
    ]


def pack_engine_result(cfds, stats) -> Optional[Dict]:
    """Meta payload of one cached engine run, or ``None`` if any pattern
    value would not survive a JSON round trip byte-identically."""
    rules = _pack_rules(cfds)
    if rules is None:
        return None
    counters = {
        name: getattr(stats, name)
        for name in stats._COUNTERS
        if getattr(stats, name) is not None
    }
    extras = {
        key: value for key, value in stats.extras.items() if is_json_scalar(value)
    }
    return {
        "rules": rules,
        "stats": {
            "algorithm": stats.algorithm,
            "counters": counters,
            "extras": extras,
        },
    }


def unpack_engine_result(meta: Dict):
    """Rebuild ``(cfds, stats)`` from a persisted engine-result entry."""
    from repro.api.result import AlgorithmStats

    cfds = _unpack_rules(meta["rules"])
    spec = meta["stats"]
    stats = AlgorithmStats(
        algorithm=spec.get("algorithm", ""),
        extras=dict(spec.get("extras", {})),
        **{key: int(value) for key, value in spec.get("counters", {}).items()},
    )
    return tuple(cfds), stats


# ---------------------------------------------------------------------- #
# pack/unpack: CTANE checkpoints (mid-run lattice frontiers), columnar
# ---------------------------------------------------------------------- #
def _element_array(elements: Sequence[Tuple], width: int) -> np.ndarray:
    """int32 ``[n, 2, width]``: each lattice element's attribute row over
    its pattern-code row (the engine's own integer encoding)."""
    values = chain.from_iterable(chain.from_iterable(elements))
    count = 2 * width * len(elements)
    return np.fromiter(values, dtype=np.int32, count=count).reshape(-1, 2, width)


def _elements(array: np.ndarray) -> List[Tuple]:
    if array.ndim != 3 or array.shape[1] != 2:
        raise CacheStoreError("checkpoint element array has the wrong shape")
    return [(tuple(attrs), tuple(codes)) for attrs, codes in array.tolist()]


def _rule_matrix(rules: Sequence[Tuple]) -> np.ndarray:
    """int32 ``[n, 3 + 2w]`` of integer-coded rules ``(lhs_attrs, lhs_codes,
    rhs, rhs_code)``: LHS length, RHS attribute and code, then the LHS
    attributes and codes, each zero-padded to the widest LHS ``w``."""
    width = max((len(rule[0]) for rule in rules), default=0)
    pad = [0] * width
    return np.array(
        [
            [len(attrs), rhs, rhs_code, *attrs, *pad[len(attrs):],
             *codes, *pad[len(codes):]]
            for attrs, codes, rhs, rhs_code in rules
        ],
        dtype=np.int32,
    ).reshape(len(rules), 3 + 2 * width)


def _rules(matrix: np.ndarray) -> List[Tuple]:
    if matrix.ndim != 2 or matrix.shape[1] < 3 or matrix.shape[1] % 2 == 0:
        raise CacheStoreError("checkpoint rule matrix has the wrong shape")
    width = (matrix.shape[1] - 3) // 2
    rules = []
    for row in matrix.tolist():
        n, rhs, rhs_code = row[:3]
        attrs, codes = row[3:3 + n], row[3 + width:3 + width + n]
        rules.append((tuple(attrs), tuple(codes), rhs, rhs_code))
    return rules


def pack_ctane_checkpoint(state: Dict) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a CTANE per-level checkpoint.

    The state is the engine's loop frontier at the top of lattice level
    ``size``, already integer-coded, so packing is array conversion:

    * ``level`` int32 ``[n, 2, size]`` and ``parents`` ``[m, 2, size - 1]``:
      elements as attribute and pattern-code rows (-1 codes the wildcard);
    * ``parent_counts`` int64 ``[m, 2]``: the parents' ``(covered_rows,
      n_classes)``;
    * ``items`` int32 ``[i, 2]``: the level-1 item table ``(attribute,
      code)`` whose row numbers are the item ids, and the parents' ``C⁺``
      bitsets as flat ``cplus_items`` ids split by ``cplus_offsets``;
    * ``rules`` int32: the rules emitted so far (see :func:`_rule_matrix`);
    * ``level_*``: the level's partitions as a partition bundle in level
      order, row indices as int32.

    The JSON meta holds only the level and the counters.
    """
    size = int(state["size"])
    parent_cplus = state["parent_cplus"]
    parents = list(parent_cplus)
    items = state["items"]
    counts = state["parent_counts"]
    n_bytes = (len(items) + 7) // 8
    packed = np.frombuffer(
        b"".join(bits.to_bytes(n_bytes, "little") for bits in parent_cplus.values()),
        dtype=np.uint8,
    ).reshape(len(parents), n_bytes)
    members = np.unpackbits(packed, axis=1, count=len(items), bitorder="little")
    arrays: Dict[str, np.ndarray] = {
        "level": _element_array(state["level"], size),
        "parents": _element_array(parents, size - 1),
        "parent_counts": np.fromiter(
            chain.from_iterable(map(counts.__getitem__, parents)),
            dtype=np.int64,
            count=2 * len(parents),
        ).reshape(-1, 2),
        "items": np.asarray(items, dtype=np.int32).reshape(-1, 2),
        "cplus_items": np.nonzero(members)[1].astype(np.int32),
        "cplus_offsets": np.concatenate(
            [[0], np.cumsum(members.sum(axis=1, dtype=np.int64))]
        ).astype(np.int64),
        "rules": _rule_matrix(state["results"]),
    }
    partitions = state["level_partitions"]
    bundle = _pack_partitions(partitions[element] for element in state["level"])
    # Row indices of one relation fit int32: a third fewer bytes per level.
    bundle["rows"] = bundle["rows"].astype(np.int32)
    arrays.update((f"level_{name}", array) for name, array in bundle.items())
    meta = {
        "size": size,
        "counters": {key: int(value) for key, value in state["counters"].items()},
    }
    return meta, arrays


def unpack_ctane_checkpoint(entry: StoreEntry) -> Dict:
    """Rebuild a CTANE checkpoint state dict from a persisted entry.

    An entry of any other layout misses a field or an array and raises;
    the caller treats that like any bad checkpoint and starts cold.
    """
    level = _elements(entry.array("level", "int32"))
    parents = _elements(entry.array("parents", "int32"))
    items = entry.array("items", "int32")
    ids = entry.array("cplus_items", "int32")
    bounds = entry.array("cplus_offsets", "int64")
    counts = entry.array("parent_counts", "int64").tolist()
    if items.ndim != 2 or items.shape[1] != 2:
        raise CacheStoreError("checkpoint item table has the wrong shape")
    if (
        bounds.size != len(parents) + 1
        or bounds[-1] != ids.size
        or np.any(np.diff(bounds) < 0)
        or np.any(ids < 0)
        or np.any(ids >= len(items))
    ):
        raise CacheStoreError("checkpoint candidate sets do not match the parents")
    members = np.zeros((len(parents), len(items)), dtype=np.uint8)
    members[np.repeat(np.arange(len(parents)), np.diff(bounds)), ids] = 1
    packed = np.packbits(members, axis=1, bitorder="little")
    partitions = _unpack_partitions(
        entry.array("level_rows", "int32").astype(np.int64),
        entry.array("level_labels", "int32"),
        entry.array("level_offsets", "int64"),
        entry.array("level_shapes", "int64"),
    )
    if len(counts) != len(parents) or len(partitions) != len(level):
        raise CacheStoreError("checkpoint partitions do not match the elements")
    return {
        "size": int(entry.meta["size"]),
        "level": level,
        "items": [tuple(item) for item in items.tolist()],
        "parent_cplus": {
            parent: int.from_bytes(row.tobytes(), "little")
            for parent, row in zip(parents, packed)
        },
        "parent_counts": {parent: tuple(pair) for parent, pair in zip(parents, counts)},
        "level_partitions": dict(zip(level, partitions)),
        "results": _rules(entry.array("rules", "int32")),
        "counters": {key: int(value) for key, value in entry.meta["counters"].items()},
    }


__all__ = [
    "ALLOWED_DTYPES",
    "CacheStore",
    "StoreEntry",
    "is_json_scalar",
    "KIND_ATTRIBUTE_PARTITIONS",
    "KIND_CTANE_CHECKPOINT",
    "KIND_DIFFERENCE_SETS",
    "KIND_ENGINE_RESULTS",
    "KIND_FREE_CLOSED",
    "KIND_PATTERN_PARTITIONS",
    "KIND_ORDER",
    "pack_ctane_checkpoint",
    "pack_engine_result",
    "pack_free_closed",
    "pack_partition_bundle",
    "pack_query_cache",
    "unpack_ctane_checkpoint",
    "unpack_engine_result",
    "unpack_free_closed",
    "unpack_partition_bundle",
    "unpack_query_cache",
]
