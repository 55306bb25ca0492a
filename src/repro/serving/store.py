"""Snapshot-versioned embedding store — the serving system of record.

Every GloDyNE update (snapshot mode) or StreamingGloDyNE flush produces a
full embedding map Z^t. The store keeps each one as an immutable
*version*: an append-only sequence of ``(nodes, float32 matrix, metadata)``
records. Versions are what make online serving safe — a query pinned to
version ``v`` keeps reading the same rows while the trainer publishes
``v+1``, and "what did this node look like three flushes ago"
(:meth:`EmbeddingService.embed_at <repro.serving.service.EmbeddingService.embed_at>`)
is a plain list index, not a replay.

Storage is float32 and **tiered** (:mod:`repro.serving.storage`): with a
``store_dir``, only the hot window (the newest ``hot_versions`` plus any
pinned versions) stays RAM-resident; older versions spill to mmap-backed
files and page back in transparently through :meth:`EmbeddingStore.
version` / :meth:`EmbeddingStore.vector`, bit-identical to the resident
original. A :meth:`EmbeddingStore.compact` pass tombstones history by
policy (``keep_head_n`` + ``keep_every_k``) without renumbering — ids
stay stable, and :meth:`EmbeddingStore.resolve_version` degrades to the
nearest kept version only under an explicit ``nearest=True``.
Persistence reuses the JSON node-column codec of
:mod:`repro.core.persistence` so arbitrary str/int node ids survive a
save/load round-trip.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Mapping, Sequence

import json

import numpy as np

from repro.base import EmbeddingMap
from repro.core.persistence import (
    decode_node_column,
    encode_node_column,
    write_npz_atomic,
)
from repro.serving.storage import ColdVersionStorage, CompactionPolicy

Node = Hashable

STORE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class VersionRecord:
    """One published embedding snapshot.

    ``matrix`` row ``i`` is the embedding of ``nodes[i]``; ``row_of``
    inverts that. The matrix is marked read-only — serving consumers share
    it zero-copy and must not mutate history. A record paged in from a
    tiered store's cold files carries a read-only ``np.memmap`` instead
    of a RAM-resident array; the values are bit-identical.
    """

    version: int
    time_step: int
    nodes: tuple[Node, ...]
    matrix: np.ndarray  # float32, shape (len(nodes), dim), read-only
    metadata: dict = field(default_factory=dict)
    row_of: dict[Node, int] = field(default_factory=dict, repr=False)

    @property
    def num_nodes(self) -> int:
        """Rows in this version (``matrix.shape[0]``)."""
        return len(self.nodes)

    @property
    def dim(self) -> int:
        """Embedding dimensionality (``matrix.shape[1]``)."""
        return int(self.matrix.shape[1])

    def vector(self, node: Node) -> np.ndarray:
        """Embedding of ``node`` at this version (read-only view)."""
        try:
            return self.matrix[self.row_of[node]]
        except KeyError:
            raise KeyError(
                f"node {node!r} is not present in version {self.version}"
            ) from None

    def as_map(self) -> EmbeddingMap:
        """Materialise the version as a node -> vector dict (copies rows)."""
        return {node: self.matrix[i].copy() for i, node in enumerate(self.nodes)}


class EmbeddingStore:
    """Append-only sequence of :class:`VersionRecord` embedding snapshots.

    Parameters
    ----------
    store_dir:
        Spill directory enabling the tiered mode: versions that leave
        the hot window are written to mmap-backed files
        (:class:`repro.serving.storage.ColdVersionStorage`) and dropped
        from RAM, paged back in transparently (and LRU-cached) on read.
        ``None`` (default) keeps every version resident — the historical
        behaviour.
    hot_versions:
        Size of the RAM-resident head window in tiered mode, ``>= 1``.
        The newest ``hot_versions`` versions plus any pinned versions
        stay float32-resident; everything older spills.
    page_cache:
        Cold versions kept paged-in (as memmap-backed records) at once,
        ``>= 1``; eviction is LRU. Each entry's *matrix* costs no
        guaranteed RAM (the kernel reclaims cold mmap pages under
        pressure), but the node tuple and row index are real objects,
        so the cache is bounded.
    """

    def __init__(
        self,
        *,
        store_dir: str | Path | None = None,
        hot_versions: int = 1,
        page_cache: int = 2,
    ) -> None:
        if hot_versions < 1:
            raise ValueError("hot_versions must be >= 1")
        if page_cache < 1:
            raise ValueError("page_cache must be >= 1")
        self.hot_versions = int(hot_versions)
        self.page_cache = int(page_cache)
        self._cold = (
            None if store_dir is None else ColdVersionStorage(store_dir)
        )
        # One slot per published id: the RAM-resident record, or None
        # when the version is spilled to disk or tombstoned.
        self._records: list[VersionRecord | None] = []
        self._spilled: set[int] = set()
        self._tombstones: set[int] = set()
        self._pins: set[int] = set()
        # LRU of paged-in cold records (transient — dropped on pickle).
        self._paged: OrderedDict[int, VersionRecord] = OrderedDict()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        embeddings: EmbeddingMap | tuple[Sequence[Node], np.ndarray],
        *,
        time_step: int | None = None,
        metadata: Mapping | None = None,
    ) -> int:
        """Append a new version; returns its id (0-based, monotonic).

        Parameters
        ----------
        embeddings:
            Either the ``{node: vector}`` map an update/flush returned,
            or an already-aligned ``(nodes, matrix)`` pair with
            ``matrix`` of shape ``(len(nodes), dim)`` (any float dtype —
            rows are copied, down-cast to float32, and frozen).
        time_step:
            Trainer time step the version belongs to (defaults to the
            version id).
        metadata:
            JSON-ish provenance stored verbatim on the record (the
            streaming engine tags trigger / event count / latency).

        Returns
        -------
        int
            The new version id, ``num_versions - 1``. In tiered mode the
            publish also spills whatever the new head pushed out of the
            hot window.
        """
        if isinstance(embeddings, tuple):
            nodes, matrix = embeddings
            nodes = tuple(nodes)
            # np.array (not asarray): the store must own the rows it
            # freezes, never the caller's buffer.
            matrix = np.array(matrix, dtype=np.float32)
            if matrix.ndim != 2 or matrix.shape[0] != len(nodes):
                raise ValueError(
                    "matrix must be 2-D with one row per node "
                    f"(got shape {matrix.shape} for {len(nodes)} nodes)"
                )
        else:
            nodes = tuple(embeddings)
            if not nodes:
                raise ValueError("cannot publish an empty embedding map")
            matrix = np.stack(
                [np.asarray(embeddings[n], dtype=np.float32) for n in nodes]
            )
        if matrix.size == 0:
            raise ValueError("cannot publish an empty embedding matrix")
        matrix.setflags(write=False)
        version = len(self._records)
        record = VersionRecord(
            version=version,
            time_step=version if time_step is None else int(time_step),
            nodes=nodes,
            matrix=matrix,
            metadata=dict(metadata) if metadata else {},
            row_of={node: i for i, node in enumerate(nodes)},
        )
        self._records.append(record)
        self._spill_cold()
        return version

    def _append_tombstone(self) -> int:
        """Append a tombstoned id (restore/split plumbing, not a publish)."""
        version = len(self._records)
        self._records.append(None)
        self._tombstones.add(version)
        return version

    def _spill_cold(self) -> None:
        """Move RAM-resident versions outside the hot window to disk."""
        if self._cold is None:
            return
        head = len(self._records) - 1
        floor = head - self.hot_versions + 1
        for version in range(min(floor, head + 1)):
            record = self._records[version]
            if record is None or version in self._pins:
                continue
            self._cold.spill(record)
            self._spilled.add(version)
            self._records[version] = None

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, version: int | None = None) -> int:
        """Keep a version RAM-resident and immune to spill/compaction.

        A cold version is paged in and materialised back to a resident
        float32 array. Returns the resolved version id. Pins are
        idempotent.
        """
        resolved = self.resolve_version(version)
        if self._records[resolved] is None:
            record = self._load_cold(resolved)
            matrix = np.array(record.matrix)  # memmap -> resident copy
            matrix.setflags(write=False)
            self._records[resolved] = VersionRecord(
                version=record.version,
                time_step=record.time_step,
                nodes=record.nodes,
                matrix=matrix,
                metadata=record.metadata,
                row_of=record.row_of,
            )
            self._paged.pop(resolved, None)
        self._pins.add(resolved)
        return resolved

    def unpin(self, version: int | None = None) -> int:
        """Drop a pin; the version becomes spillable/compactable again.

        Returns the resolved version id. The spill happens lazily (at
        the next publish or explicit :meth:`_spill_cold` via publish) —
        already-spilled files are reused, not rewritten.
        """
        resolved = self.resolve_version(version)
        self._pins.discard(resolved)
        self._spill_cold()
        return resolved

    @property
    def pinned(self) -> tuple[int, ...]:
        """Currently pinned version ids, ascending."""
        return tuple(sorted(self._pins))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(
        self,
        policy: CompactionPolicy | None = None,
        *,
        keep_head_n: int | None = None,
        keep_every_k: int | None = None,
    ) -> list[int]:
        """Tombstone historical versions by policy; return the dropped ids.

        Survivors are decided by :meth:`repro.serving.storage.
        CompactionPolicy.survivors`: the newest ``keep_head_n`` live
        versions, every ``keep_every_k``-th id, and every pin. Dropped
        versions free their RAM and their cold files, and their ids
        become tombstones: reads raise ``LookupError`` unless the caller
        opts into ``nearest=True`` degradation. Ids are never renumbered.

        Parameters
        ----------
        policy:
            An explicit :class:`~repro.serving.storage.CompactionPolicy`;
            mutually exclusive with the keyword shorthands.
        keep_head_n, keep_every_k:
            Shorthand for ``CompactionPolicy(keep_head_n, keep_every_k)``
            (``keep_head_n`` defaults to 1).
        """
        if policy is None:
            policy = CompactionPolicy(
                keep_head_n=1 if keep_head_n is None else int(keep_head_n),
                keep_every_k=keep_every_k,
            )
        elif keep_head_n is not None or keep_every_k is not None:
            raise ValueError("pass either a policy or the keyword knobs")
        live = [
            v for v in range(len(self._records)) if v not in self._tombstones
        ]
        keep = policy.survivors(live, self._pins)
        dropped = [v for v in live if v not in keep]
        for version in dropped:
            self._records[version] = None
            self._paged.pop(version, None)
            if version in self._spilled:
                self._spilled.discard(version)
                if self._cold is not None:
                    self._cold.delete(version)
            self._tombstones.add(version)
        return dropped

    @property
    def tombstones(self) -> tuple[int, ...]:
        """Compacted-away version ids, ascending."""
        return tuple(sorted(self._tombstones))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def num_versions(self) -> int:
        """Published versions so far (the next publish gets this id).

        Tombstoned ids still count — the id space never renumbers.
        """
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def store_dir(self) -> Path | None:
        """The tiered spill directory (``None`` in all-RAM mode)."""
        return None if self._cold is None else self._cold.directory

    @property
    def latest(self) -> VersionRecord:
        """The head version (``LookupError`` before the first publish)."""
        if not self._records:
            raise LookupError("store has no published versions yet")
        return self._record_at(len(self._records) - 1)

    def resolve_version(
        self, version: int | None, *, nearest: bool = False
    ) -> int:
        """Normalise ``None`` / negative ids to an absolute version id.

        Parameters
        ----------
        version:
            ``None`` / ``-1`` mean the head; negatives count back from
            it; out-of-range ids raise ``LookupError``.
        nearest:
            How to treat a compacted-away (tombstoned) id: ``False``
            (default) raises ``LookupError`` naming the compaction;
            ``True`` degrades to the nearest kept version by id
            distance, ties broken toward the earlier (older) version.
        """
        if not self._records:
            raise LookupError("store has no published versions yet")
        if version is None:
            index = len(self._records) - 1
        else:
            index = int(version)
            if index < 0:
                index += len(self._records)
            if not (0 <= index < len(self._records)):
                raise LookupError(
                    f"version {version} not in store (have 0..{len(self) - 1})"
                )
        if index not in self._tombstones:
            return index
        if not nearest:
            raise LookupError(
                f"version {index} was compacted away; pass nearest=True to "
                "degrade to the nearest kept version"
            )
        for distance in range(1, len(self._records)):
            below = index - distance
            if below >= 0 and below not in self._tombstones:
                return below
            above = index + distance
            if above < len(self._records) and above not in self._tombstones:
                return above
        raise LookupError("store has no live versions left")  # pragma: no cover

    def version(
        self, version: int | None = None, *, nearest: bool = False
    ) -> VersionRecord:
        """Fetch a version record (default / ``None`` / ``-1``: latest).

        Cold versions page in transparently (bit-identical to the
        resident original, matrix backed by a read-only ``np.memmap``).
        ``nearest=True`` degrades a compacted id to the nearest kept
        version instead of raising — see :meth:`resolve_version`.
        """
        return self._record_at(self.resolve_version(version, nearest=nearest))

    def vector(
        self,
        node: Node,
        version: int | None = None,
        *,
        nearest: bool = False,
    ) -> np.ndarray:
        """Embedding of ``node`` at ``version`` (read-only view)."""
        return self.version(version, nearest=nearest).vector(node)

    def _record_at(self, index: int) -> VersionRecord:
        """The live record for a resolved id, paging in cold versions."""
        record = self._records[index]
        if record is not None:
            return record
        return self._load_cold(index)

    def _load_cold(self, index: int) -> VersionRecord:
        """Page one spilled version through the LRU page cache."""
        cached = self._paged.get(index)
        if cached is not None:
            self._paged.move_to_end(index)
            return cached
        if self._cold is None or index not in self._spilled:
            raise LookupError(
                f"version {index} is neither resident nor spilled "
                "(store state is corrupt)"
            )  # pragma: no cover - internal invariant
        record = self._cold.load(index)
        self._paged[index] = record
        if len(self._paged) > self.page_cache:
            self._paged.popitem(last=False)
        return record

    def __iter__(self):
        """Iterate live versions in id order (tombstones are skipped).

        Cold versions page in on the fly; iterating a large tiered
        store streams through the page cache rather than re-residenting
        the history.
        """
        for index in range(len(self._records)):
            if index not in self._tombstones:
                yield self._record_at(index)

    # ------------------------------------------------------------------
    # introspection / pickling
    # ------------------------------------------------------------------
    def storage_info(self) -> dict:
        """Tier accounting: version counts and byte footprints.

        Returns a dict with ``versions`` (published ids, including
        tombstones), ``live``, ``hot`` (RAM-resident records), ``cold``
        (spilled), ``tombstoned``, ``pinned``, ``resident_bytes`` (hot
        matrices — the guaranteed RAM the store itself holds),
        ``paged_bytes`` (mmap-backed page-cache matrices, reclaimable by
        the kernel), and ``cold_bytes`` (spill files on disk).
        """
        hot = [r for r in self._records if r is not None]
        return {
            "versions": len(self._records),
            "live": len(self._records) - len(self._tombstones),
            "hot": len(hot),
            "cold": len(self._spilled),
            "tombstoned": len(self._tombstones),
            "pinned": len(self._pins),
            "resident_bytes": int(sum(r.matrix.nbytes for r in hot)),
            "paged_bytes": int(
                sum(r.matrix.nbytes for r in self._paged.values())
            ),
            "cold_bytes": (
                0
                if self._cold is None
                else self._cold.bytes_on_disk(sorted(self._spilled))
            ),
        }

    def __getstate__(self) -> dict:
        """Pickle without the page cache (memmaps must not ship).

        Pickling an ``np.memmap`` would materialise the cold matrix into
        the payload; the unpickled store (e.g. in a spawned process)
        pages versions back in from the same spill files instead.
        """
        state = self.__dict__.copy()
        state["_paged"] = OrderedDict()
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._records:
            return "EmbeddingStore(versions=0)"
        head = self.latest
        tier = "" if self._cold is None else f", cold={len(self._spilled)}"
        return (
            f"EmbeddingStore(versions={len(self)}, "
            f"latest={head.num_nodes}x{head.dim}{tier})"
        )


# ----------------------------------------------------------------------
# persistence (single .npz per store)
# ----------------------------------------------------------------------
def save_store(store: EmbeddingStore, path: str | Path) -> None:
    """Serialise a store to one ``.npz`` archive, written atomically at
    exactly ``path`` (see :func:`~repro.core.persistence.write_npz_atomic`).

    Layout: a JSON manifest (format version + per-version time step and
    metadata, plus the tombstoned ids of a compacted store) and, per
    *live* version ``i``, a node column ``v{i}_nodes`` and a float32
    matrix ``v{i}_matrix``. Cold versions page in while writing, so a
    tiered store round-trips exactly like an all-RAM one; tombstoned
    versions are skipped (compaction shrinks the archive).
    """
    versions = []
    arrays: dict[str, np.ndarray] = {}
    for record in store:
        versions.append(
            {
                "version": record.version,
                "time_step": record.time_step,
                "metadata": record.metadata,
            }
        )
        arrays[f"v{record.version}_nodes"] = encode_node_column(record.nodes)
        arrays[f"v{record.version}_matrix"] = np.asarray(record.matrix)
    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "versions": versions,
    }
    tombstones = getattr(store, "tombstones", ())
    if tombstones:
        manifest["tombstones"] = list(tombstones)
    arrays["manifest"] = np.array([json.dumps(manifest)], dtype=object)
    write_npz_atomic(path, arrays)


def load_store(
    path: str | Path,
    *,
    store_dir: str | Path | None = None,
    hot_versions: int = 1,
) -> EmbeddingStore:
    """Restore a store saved by :func:`save_store`.

    Parameters
    ----------
    path:
        The ``.npz`` archive.
    store_dir:
        Re-open the store *tiered*: versions outside the hot window
        spill into this directory as they load, so a long history never
        fully re-residents. ``None`` (default) restores all-RAM.
    hot_versions:
        Hot-window size when ``store_dir`` is given (ignored otherwise).
    """
    archive = np.load(path, allow_pickle=True)
    manifest = json.loads(str(archive["manifest"][0]))
    fmt = int(manifest["format_version"])
    if fmt != STORE_FORMAT_VERSION:
        raise ValueError(
            f"store format {fmt} != supported {STORE_FORMAT_VERSION}"
        )
    store = EmbeddingStore(store_dir=store_dir, hot_versions=hot_versions)
    entries = {int(e["version"]): e for e in manifest["versions"]}
    tombstones = {int(v) for v in manifest.get("tombstones", [])}
    total = max(
        [max(entries, default=-1), max(tombstones, default=-1)],
    ) + 1
    for v in range(total):
        if v in tombstones:
            store._append_tombstone()
            continue
        entry = entries.get(v)
        if entry is None:
            raise ValueError(
                f"store archive is missing version {v} "
                "(neither published nor tombstoned)"
            )
        nodes = decode_node_column(archive[f"v{v}_nodes"])
        matrix = archive[f"v{v}_matrix"]
        store.publish(
            (nodes, matrix),
            time_step=int(entry["time_step"]),
            metadata=entry.get("metadata") or {},
        )
    return store
