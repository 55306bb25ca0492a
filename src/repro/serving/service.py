"""EmbeddingService: the query-side facade over store + index.

The store records versions; the index answers kNN at the *latest*
version; the service ties them together with the operations an online
consumer actually calls:

* :meth:`~EmbeddingService.query_knn` — similar-node lookup with an LRU
  result cache keyed on ``(version, node, k)`` (a version bump naturally
  invalidates: new keys, old entries age out);
* :meth:`~EmbeddingService.query_knn_batch` — the micro-batched variant
  behind the serving daemon (:mod:`repro.server`): one refresh, one
  cache sweep, one ``query_many`` index dispatch for a whole batch;
* :meth:`~EmbeddingService.score_edge` — link scoring for a node pair
  (cosine via the :mod:`repro.tasks.link_prediction` scorer, or raw dot);
* :meth:`~EmbeddingService.embed_at` — time-travel read of any retained
  version;
* :meth:`~EmbeddingService.refresh` — incremental index sync after the
  trainer published a new version (only moved rows re-hash).

Queries pinned to a historical version bypass the index and scan that
version's matrix exactly — history is small and cold, the latest version
is where the traffic goes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence

import numpy as np

from repro.base import EmbeddingMap
from repro.serving.index import (
    BruteForceIndex,
    IVFIndex,
    LSHIndex,
    _cosine_scores,
    _top_k,
    _unit_vector,
    unit_rows,
)
from repro.serving.store import EmbeddingStore
from repro.tasks.link_prediction import score_pairs

Node = Hashable

_BACKENDS = ("lsh", "exact", "ivf")


class EmbeddingService:
    """Versioned kNN / link-scoring service over an :class:`EmbeddingStore`.

    Parameters
    ----------
    store:
        The system of record; the service never mutates it.
    backend:
        ``"lsh"`` (default), ``"exact"``, or ``"ivf"``; ignored when
        ``index`` is given. The IVF backend is *partition-aware*: when a
        published version carries ``partition_cells`` metadata (GloDyNE's
        Step 1 cells), the service forwards it as the index's coarse
        quantizer; otherwise the index falls back to its frozen anchors.
    quantized:
        ``"int8"`` builds the backend with the int8 candidate-scan
        codec (:mod:`repro.serving.storage`): the scan pre-ranks rows
        from quantized codes and exact-reranks the top pool, so
        returned scores stay exact float32 cosines. Supported by the
        ``exact`` and ``ivf`` backends (``ValueError`` on ``lsh``,
        whose candidate gather is already sub-linear); ignored when
        ``index`` is given.
    index:
        A pre-configured index instance (e.g. an :class:`LSHIndex` with
        tuned table/bit counts, or an :class:`IVFIndex` with a tuned
        ``nprobe``).
    refresh_tolerance:
        Max-abs per-row movement below which a row is *not* re-hashed on
        :meth:`refresh`. 0.0 re-hashes on any change; serving-grade
        defaults keep it tiny but non-zero so float32 jitter does not
        force work.
    cache_size:
        Entries in the LRU query cache (0 disables caching).
    unit_cache_size:
        Versions whose normalised matrix the time-travel path may keep
        memoised at once (0 disables the memo). Each entry pins a full
        float32 matrix, so this bounds time-travel memory; eviction is
        LRU.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        *,
        backend: str = "lsh",
        quantized: str | None = None,
        index: BruteForceIndex | LSHIndex | IVFIndex | None = None,
        refresh_tolerance: float = 1e-7,
        cache_size: int = 1024,
        unit_cache_size: int = 4,
    ) -> None:
        if index is None:
            if backend not in _BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; choose from {_BACKENDS}"
                )
            if backend == "lsh":
                if quantized is not None:
                    raise ValueError(
                        "quantized scans need the exact or ivf backend; "
                        "lsh already gathers sub-linear candidate sets"
                    )
                index = LSHIndex()
            elif backend == "exact":
                index = BruteForceIndex(quantized=quantized)
            else:
                index = IVFIndex(quantized=quantized)
        if unit_cache_size < 0:
            raise ValueError("unit_cache_size must be >= 0")
        self.store = store
        self.index = index
        self.refresh_tolerance = float(refresh_tolerance)
        self.cache_size = int(cache_size)
        self.unit_cache_size = int(unit_cache_size)
        self._cache: OrderedDict[tuple, list] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        # Normalised matrices of recently time-travelled versions
        # (immutable once published, so a size-bounded LRU is safe).
        self._unit_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._indexed_version: int | None = None
        # Rows at the last full build — when the store outgrows this by
        # 4x, an auto-sized index re-builds with re-derived sizing
        # (table bits/center, anchor count) instead of degrading.
        self._sized_rows = 0

    # ------------------------------------------------------------------
    # index lifecycle
    # ------------------------------------------------------------------
    @property
    def indexed_version(self) -> int | None:
        """Store version the index currently serves (None before first)."""
        return self._indexed_version

    def refresh(self) -> int:
        """Sync the index to the store's latest version.

        Incremental: only rows that moved beyond ``refresh_tolerance``
        (plus new nodes) re-hash / re-assign. A version with *fewer*
        rows than the indexed one (node deletions shrank the snapshot)
        falls back to a full rebuild — index rows are positional and
        cannot shrink incrementally. Returns the number of rows touched;
        0 when already current.

        Partition-aware backends (``accepts_assignment``) additionally
        receive the version's published ``partition_cells`` metadata —
        the per-row cell ids GloDyNE's Step 1 partitioner emitted — so
        the IVF cell layout follows the trainer's own partition.

        An empty store (the trainer has not published yet — the daemon
        can start before its first publish) is a clean no-op, not an
        error: there is nothing to index, so 0 rows were touched.
        """
        if self.store.num_versions == 0:
            return 0
        latest = self.store.latest
        if self._indexed_version == latest.version:
            return 0
        if (
            getattr(self.index, "auto_sized", False)
            and self._sized_rows
            and latest.num_nodes > 4 * self._sized_rows
        ):
            # The store outgrew the first build's auto-sizing: start a
            # fresh index so the data-derived sizing (table bits and
            # hashing center, or anchor count) re-derives from the
            # current distribution instead of degrading.
            self.index = self.index.fresh_like()
            self._indexed_version = None
        assignment = (
            self._partition_assignment(latest)
            if getattr(self.index, "accepts_assignment", False)
            else None
        )
        if self._indexed_version is None or latest.num_nodes < self.index.num_rows:
            if assignment is not None:
                self.index.build(latest.matrix, assignment=assignment)
            else:
                self.index.build(latest.matrix)
            touched = latest.num_nodes
            self._sized_rows = latest.num_nodes
        elif getattr(self.index, "accepts_assignment", False):
            touched = self.index.refresh(
                latest.matrix,
                tolerance=self.refresh_tolerance,
                assignment=assignment,
            )
        else:
            touched = self.index.refresh(
                latest.matrix, tolerance=self.refresh_tolerance
            )
        self._indexed_version = latest.version
        return touched

    def _partition_assignment(self, record) -> np.ndarray | None:
        """Per-row cell ids from a version's ``partition_cells`` metadata.

        Returns ``None`` when the version carries no partition (offline
        flushes, non-S4 strategies) or a stale one whose length no
        longer matches the row count — the index then keeps its current
        layout (IVF anchor mode / incremental rule).
        """
        cells = record.metadata.get("partition_cells")
        if cells is None:
            return None
        cells = np.asarray(cells, dtype=np.int64)
        if cells.shape[0] != record.num_nodes:
            return None
        return cells

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_knn(
        self,
        node: Node,
        k: int = 10,
        *,
        version: int | None = None,
        exclude_self: bool = True,
    ) -> list[tuple[Node, float]]:
        """The ``k`` nodes most cosine-similar to ``node``.

        Parameters
        ----------
        node:
            Query node id; must exist at the queried version
            (``KeyError`` otherwise).
        k:
            Neighbours to return, ``>= 1``.
        version:
            ``None`` follows the store's head through the index
            (refreshing it incrementally when the store advanced — the
            index is built lazily on the first such query); an explicit
            version time-travels via an exact scan of that version's
            matrix. Negative ids count back from the head.
        exclude_self:
            Drop ``node`` itself from the result.

        Returns
        -------
        list of (node, float)
            ``(node, cosine)`` pairs, best first; scores are float32
            cosines widened to Python floats.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if version is None:
            self.refresh()  # lazy build / incremental follow-head; no-op
        record = self.store.version(version)
        # A pinned version scans exactly while the index path may be
        # approximate — results from the two paths must never share a
        # cache entry, even for the same (version, node, k).
        use_index = version is None and self._indexed_version == record.version
        key = (record.version, node, k, exclude_self, use_index)
        if self.cache_size:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return list(cached)
            self.cache_misses += 1
        query_vector = record.vector(node)  # KeyError for unknown nodes
        fetch = k + 1 if exclude_self else k
        if use_index:
            rows, scores = self.index.query(query_vector, fetch)
        else:
            rows, scores = self._exact_scan(record, query_vector, fetch)
        result = self._materialise(record, node, rows, scores, k, exclude_self)
        if self.cache_size:
            self._cache_put(key, result)
        return list(result)

    def query_knn_batch(
        self,
        nodes: Sequence[Node],
        k: int = 10,
        *,
        exclude_self: bool = True,
        refresh: bool = True,
    ) -> list[list[tuple[Node, float]]]:
        """Batched :meth:`query_knn` at the store head — one index dispatch.

        Parameters
        ----------
        nodes:
            Query node ids; each must exist in the latest version
            (``KeyError`` otherwise, naming the first missing node).
        k:
            Neighbours per query, ``>= 1``.
        exclude_self:
            Drop each query node from its own result (the default, as in
            :meth:`query_knn`).
        refresh:
            Follow the store head before answering (the default). With
            ``False`` the batch answers at the *last indexed* version
            instead — the micro-batcher's degraded mode when a hot
            reload fails but the stale index can still serve
            (``LookupError`` when nothing has been indexed yet).

        Returns
        -------
        list of list of (node, float)
            One result list per query node, in input order — each entry
            exactly what :meth:`query_knn` returns for that node.

        Notes
        -----
        This is the dispatch target of the serving daemon's
        micro-batching (:class:`repro.server.MicroBatcher`): the
        head-follow refresh, version resolution, and cache sweep are paid
        once per batch instead of once per query, and all cache misses go
        to the index in a single :meth:`~LSHIndex.query_many` call.

        With an LSH backend the results are **bit-identical** to calling
        :meth:`query_knn` per node (``batch_matches_single``), so batched
        fills share the unbatched LRU cache. The exact backend's gemm
        batch kernel may differ from single queries in the last ulp, so
        its batched results are served but never cached — the cache must
        stay byte-coherent with :meth:`query_knn`.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        nodes = list(nodes)
        if not nodes:
            return []
        if refresh:
            self.refresh()  # lazy build / incremental follow-head; no-op
            record = self.store.version(None)
        else:
            if self._indexed_version is None:
                raise LookupError(
                    "no indexed version to serve a refresh=False batch from"
                )
            record = self.store.version(self._indexed_version)
        use_index = self._indexed_version == record.version
        results: list[list[tuple[Node, float]] | None] = [None] * len(nodes)
        misses: list[int] = []
        for i, node in enumerate(nodes):
            key = (record.version, node, k, exclude_self, use_index)
            if self.cache_size:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    results[i] = list(cached)
                    continue
                self.cache_misses += 1
            misses.append(i)
        if misses:
            # KeyError for unknown nodes, before any index work.
            vectors = np.stack([record.vector(nodes[i]) for i in misses])
            fetch = k + 1 if exclude_self else k
            if use_index:
                ranked = self.index.query_many(vectors, fetch)
            else:
                ranked = [
                    self._exact_scan(record, vector, fetch)
                    for vector in vectors
                ]
            cacheable = self.cache_size and (
                not use_index or getattr(self.index, "batch_matches_single", False)
            )
            for i, (rows, scores) in zip(misses, ranked):
                node = nodes[i]
                result = self._materialise(
                    record, node, rows, scores, k, exclude_self
                )
                if cacheable:
                    key = (record.version, node, k, exclude_self, use_index)
                    self._cache_put(key, result)
                results[i] = result
        return [list(result) for result in results]

    def score_edge(
        self,
        u: Node,
        v: Node,
        *,
        version: int | None = None,
        metric: str = "cosine",
    ) -> float:
        """Similarity score of the (u, v) pair at a version.

        ``cosine`` routes through the same scorer the link-prediction
        task uses (:func:`repro.tasks.link_prediction.score_pairs`), so a
        served score is exactly the quantity Table 2 AUCs are computed
        from; ``dot`` is the unnormalised inner product.
        """
        record = self.store.version(version)
        a, b = record.vector(u), record.vector(v)
        if metric == "cosine":
            embeddings: EmbeddingMap = {u: a, v: b}
            scores, keep = score_pairs(embeddings, [(u, v)])
            assert bool(keep[0])
            return float(scores[0])
        if metric == "dot":
            return float(np.asarray(a, dtype=np.float64) @ b)
        raise ValueError(f"unknown metric {metric!r}; choose cosine or dot")

    def embed_at(
        self, version: int | None = None, *, nearest: bool = False
    ) -> EmbeddingMap:
        """Time-travel read: the full embedding map of ``version``.

        On a tiered store a cold version pages in transparently
        (bit-identical to the resident original). ``nearest=True``
        degrades a compacted-away version to the nearest kept one
        instead of raising ``LookupError`` — pin versions you must be
        able to read exactly (:meth:`EmbeddingStore.pin
        <repro.serving.store.EmbeddingStore.pin>`).
        """
        return self.store.version(version, nearest=nearest).as_map()

    # ------------------------------------------------------------------
    def _materialise(
        self,
        record,
        node: Node,
        rows: np.ndarray,
        scores: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> list[tuple[Node, float]]:
        """Ranked ``(row, score)`` arrays -> the public ``(node, float)`` list.

        Shared by the single-query and batched paths so the two can never
        drift: self-row filtering and the k-truncation happen here, once.
        """
        result: list[tuple[Node, float]] = []
        self_row = record.row_of[node]
        for row, score in zip(rows, scores):
            if exclude_self and int(row) == self_row:
                continue
            result.append((record.nodes[int(row)], float(score)))
            if len(result) == k:
                break
        return result

    def _cache_put(self, key: tuple, result: list) -> None:
        """Insert one LRU entry, evicting the oldest past ``cache_size``."""
        self._cache[key] = result
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    def _exact_scan(
        self, record, vector: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact cosine top-k against a pinned (historical) version.

        The version's normalised matrix is memoised (versions are
        immutable), so repeat time-travel queries pay the O(N*d)
        normalisation once. The memo is LRU-bounded to
        ``unit_cache_size`` entries — each pins a full float32 matrix,
        so many-version time travel must not accumulate them forever.
        """
        if not self.unit_cache_size:
            unit = unit_rows(record.matrix)
        elif (unit := self._unit_cache.get(record.version)) is None:
            unit = unit_rows(record.matrix)
            self._unit_cache[record.version] = unit
            if len(self._unit_cache) > self.unit_cache_size:
                self._unit_cache.popitem(last=False)
        else:
            self._unit_cache.move_to_end(record.version)
        # Shape-independent reduction (see index._cosine_scores): a
        # pinned-version scan scores each row with the same bits as the
        # index's exact paths.
        scores = _cosine_scores(unit, _unit_vector(vector))
        rows = np.arange(scores.size, dtype=np.int64)
        best = _top_k(scores, rows, k)
        return rows[best], scores[best]

    @property
    def cache_info(self) -> dict[str, int]:
        """LRU effectiveness counters: hits, misses, entries, capacity."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "capacity": self.cache_size,
        }

    def clear_cache(self) -> None:
        """Drop every cached query result (counters are kept)."""
        self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EmbeddingService(backend={self.index.backend_name}, "
            f"versions={self.store.num_versions}, "
            f"indexed={self._indexed_version})"
        )
