"""kNN query indexes over an embedding matrix: exact, LSH, and IVF backends.

Serving similar-node queries is the core online workload of a dynamic
embedding system (Barros et al., survey §7): given Z^t, return the k rows
most cosine-similar to a query row. Three backends share one contract:

* :class:`BruteForceIndex` — exact scan. O(N·d) per query; the ground
  truth the approximate backends are measured against.
* :class:`LSHIndex` — random-hyperplane locality-sensitive hashing
  (Charikar, 2002) with multi-table, query-directed multi-probing.
  Hashing is sign-of-projection, so cosine-similar rows collide; probing
  flips the lowest-margin bits first. Candidates from all probed buckets
  are re-ranked *exactly*, so recall is governed by candidate coverage,
  not hash luck.
* :class:`IVFIndex` — inverted-file index whose coarse quantizer is a
  *cell assignment*: by default GloDyNE's own Step 1 partition cells
  (the (K, ε) partition :class:`repro.partition.incremental.
  IncrementalPartitioner` maintains across snapshots), falling back to
  frozen random anchors when no partition is available. Queries probe
  the ``nprobe`` nearest cell centroids and exact-scan their members.

All support **incremental refresh**: after a streaming flush, only rows
whose embedding moved more than a tolerance (plus brand-new rows) are
re-normalised and re-hashed / re-assigned — the point of pairing the
index with GloDyNE, which by design moves only the selected ~α·|V| rows
per step. A refresh is bit-identical to a from-scratch rebuild of a
fresh index with the same constructor parameters: frozen configuration
(hyperplanes / anchors / centers) depends only on the constructor
arguments and the first build, and candidate sets are deduplicated into
sorted order before the exact re-rank.

The exact and IVF backends additionally take ``quantized="int8"``: the
*candidate* scan runs over an int8 per-row scale-quantized copy of the
unit matrix (:mod:`repro.serving.storage`), and the top ``rerank``
candidates are re-scored through the shared exact einsum kernel — final
scores stay exact float32 cosines, recall is governed by how far down
the int8 ranking the true neighbours sit (>= 0.95 recall@10 at the
default depth; goldens pin it). Quantization is per-row, so a refresh
re-encodes exactly the rows it re-normalises and stays bit-identical to
a rebuild.

Pure numpy, no external ANN dependency.
"""

from __future__ import annotations

import numpy as np

from repro.serving.storage import quantize_int8, quantized_scores

__all__ = ["BruteForceIndex", "IVFIndex", "LSHIndex", "unit_rows"]

#: Accepted values of the ``quantized`` index knob.
_QUANTIZED_MODES = (None, "int8")

#: Coarse-to-fine prescan knobs for the quantized brute scan. On large
#: matrices the full-width int8 scan is dequantize-bound, so a
#: contiguous copy of every ``_PRESCAN_STRIDE``-th code column (a 4x
#: cheaper read) shortlists ``_PRESCAN_POOL x`` the rerank depth first;
#: only the shortlist gets the full-width int8 scan. Engaged when the
#: matrix holds at least ``_PRESCAN_MIN_RATIO x`` the shortlist — below
#: that the two-level pass saves nothing.
_PRESCAN_STRIDE = 4
_PRESCAN_POOL = 8
_PRESCAN_MIN_RATIO = 4


def _resolve_rerank(rerank: int | None, k: int) -> int:
    """Candidate pool size the int8 scan hands to the exact re-rank.

    ``None`` derives ``max(32 * k, 256)`` — deep enough that int8
    ranking error (max per-row quantization error is ``scale / 2``)
    practically never pushes a true top-k row out of the pool, shallow
    enough that the einsum re-rank stays negligible next to the scan.
    """
    if rerank is None:
        return max(32 * k, 256)
    return max(int(rerank), k)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalised float32 copy of ``matrix`` (zero rows stay zero)."""
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def _unit_vector(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float32).ravel()
    norm = float(np.linalg.norm(vector))
    return vector / norm if norm > 0 else vector


def _cosine_scores(unit_matrix: np.ndarray, unit_query: np.ndarray) -> np.ndarray:
    """Per-row dot products with a shape-independent reduction order.

    ``matrix @ query`` hands the reduction to BLAS gemv, whose kernel
    choice — and therefore last-ulp rounding — depends on the matrix row
    count and a row's position in the block layout: the same row can
    score differently inside a sliced matrix than inside the full one.
    ``einsum`` reduces every row independently of the matrix shape, so
    a row scores the same bits wherever it is scanned: IVF's per-cell
    scans at full probe reproduce the exact scan, and the candidate
    re-ranks of batched and unbatched queries agree. ~1.4x the gemv
    cost; only the per-query exact paths pay it.
    """
    return np.einsum("ij,j->i", unit_matrix, unit_query)


def _top_k(scores: np.ndarray, row_ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the top-k scores, ties broken by ascending row id.

    Deterministic ordering is what makes an incremental refresh
    bit-identical to a rebuild even when bucket layouts differ.
    ``row_ids`` must be ascending (candidate sets are deduplicated into
    sorted order), so a stable sort on the negated scores already breaks
    ties by row id; the argpartition pre-pass only pays off on large
    exact scans.
    """
    k = min(k, scores.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if scores.size <= 1024:
        return np.argsort(-scores, kind="stable")[:k]
    pool = np.argpartition(scores, scores.size - k)[-k:]
    order = np.lexsort((row_ids[pool], -scores[pool].astype(np.float64)))
    return pool[order]


class BruteForceIndex:
    """Exact cosine kNN by full matrix scan (the recall ground truth).

    Parameters
    ----------
    quantized:
        ``"int8"`` scans an int8 per-row scale-quantized copy of the
        unit matrix instead of the float32 exact scan, then re-ranks the
        top ``rerank`` candidates through the shared exact kernel —
        returned scores are exact float32 cosines, but a true neighbour
        the int8 ranking buried below the re-rank pool can be missed
        (recall@10 >= 0.95 goldens pin the depth default). The scan
        kernel (chunked dequantize + BLAS gemv, coarse-to-fine over a
        strided-column prescan copy on large matrices) is materially
        faster than the exact path's shape-independent einsum at
        serving sizes. ``None`` (default) keeps the exact scan.
    rerank:
        Candidate pool the int8 scan hands to the exact re-rank
        (``quantized`` mode only). ``None`` derives ``max(32*k, 256)``
        per query.
    """

    backend_name = "exact"

    def __init__(
        self, *, quantized: str | None = None, rerank: int | None = None
    ) -> None:
        if quantized not in _QUANTIZED_MODES:
            raise ValueError(
                f"unknown quantized mode {quantized!r}; "
                f"choose from {_QUANTIZED_MODES}"
            )
        if rerank is not None and rerank < 1:
            raise ValueError("rerank must be >= 1 (or None)")
        self.quantized = quantized
        self.rerank = rerank
        #: Unquantized ``query_many`` scores via one gemm, whose
        #: reduction order differs from the per-query gemv by up to an
        #: ulp — batched results are then not bit-identical to
        #: sequential ``query`` calls. The quantized scan is per-query
        #: already, so its batched path loops ``query`` and matches.
        self.batch_matches_single = quantized is not None
        self._raw: np.ndarray | None = None
        self._unit: np.ndarray | None = None
        self._codes: np.ndarray | None = None  # (N, d) int8, quantized mode
        self._scales: np.ndarray | None = None  # (N,) float32
        self._codes_lo: np.ndarray | None = None  # (N, ceil(d/4)) prescan
        self.last_refresh_rows = 0

    @property
    def num_rows(self) -> int:
        """Rows currently indexed (0 before the first ``build``)."""
        return 0 if self._raw is None else int(self._raw.shape[0])

    def build(self, matrix: np.ndarray) -> None:
        """(Re)build from scratch over ``matrix`` rows."""
        self._raw = np.array(matrix, dtype=np.float32)
        self._unit = unit_rows(self._raw)
        if self.quantized:
            self._codes, self._scales = quantize_int8(self._unit)
            self._codes_lo = np.ascontiguousarray(
                self._codes[:, ::_PRESCAN_STRIDE]
            )
        self.last_refresh_rows = self.num_rows

    def refresh(self, matrix: np.ndarray, tolerance: float = 0.0) -> int:
        """Sync to a new matrix; re-normalise only rows that moved.

        Rows ``i < num_rows`` whose max-abs change exceeds ``tolerance``
        plus all appended rows are updated. Returns how many rows were
        touched. The matrix may only grow (the store is append-only).
        """
        if self._raw is None:
            self.build(matrix)
            return self.num_rows
        matrix = np.asarray(matrix, dtype=np.float32)
        changed = _changed_rows(self._raw, matrix, tolerance)
        if changed.size:
            old_n = self._raw.shape[0]
            if matrix.shape[0] != old_n:
                raw = np.empty_like(matrix)
                raw[:old_n] = self._raw
                unit = np.empty_like(matrix)
                unit[:old_n] = self._unit
                self._raw, self._unit = raw, unit
                if self.quantized:
                    codes = np.empty(matrix.shape, dtype=np.int8)
                    codes[:old_n] = self._codes
                    scales = np.empty(matrix.shape[0], dtype=np.float32)
                    scales[:old_n] = self._scales
                    codes_lo = np.empty(
                        (matrix.shape[0], self._codes_lo.shape[1]),
                        dtype=np.int8,
                    )
                    codes_lo[:old_n] = self._codes_lo
                    self._codes, self._scales = codes, scales
                    self._codes_lo = codes_lo
            self._raw[changed] = matrix[changed]
            fresh_unit = unit_rows(matrix[changed])
            self._unit[changed] = fresh_unit
            if self.quantized:
                # Per-row codec: re-encoding only the touched rows is
                # bit-identical to a full rebuild's encoding.
                self._codes[changed], self._scales[changed] = quantize_int8(
                    fresh_unit
                )
                self._codes_lo[changed] = self._codes[
                    changed, ::_PRESCAN_STRIDE
                ]
        self.last_refresh_rows = int(changed.size)
        return int(changed.size)

    def query(self, vector: np.ndarray, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k rows by cosine similarity.

        Parameters
        ----------
        vector:
            Query vector of shape ``(dim,)``, any float dtype.
        k:
            Rows to return, ``>= 1`` (clipped to the matrix size).

        Returns
        -------
        (row_ids, scores)
            ``int64`` row indices and their ``float32`` cosines, best
            first, ties broken by ascending row id. In ``quantized``
            mode the scores are still exact (re-ranked through the
            shared kernel); only candidate *selection* is approximate.
        """
        if self._unit is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = _unit_vector(vector)
        if self.quantized:
            return self._quantized_query(q, k)
        # Shape-independent reduction: each row scores the same bits as
        # in the IVF and LSH candidate re-ranks (see _cosine_scores).
        scores = _cosine_scores(self._unit, q)
        rows = np.arange(scores.size, dtype=np.int64)
        best = _top_k(scores, rows, k)
        return rows[best], scores[best]

    def _quantized_query(
        self, q: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Int8 candidate scan + exact float32 re-rank of the pool.

        The int8 scan (chunked dequantize into a float32 staging buffer,
        BLAS gemv per chunk) ranks rows approximately; the best
        ``rerank`` candidates are then re-scored with the exact
        shape-independent kernel, so the *returned* scores for any row
        are bit-identical to the exact backend's scores for that row.

        On large matrices the scan itself goes coarse-to-fine: a
        contiguous every-``_PRESCAN_STRIDE``-th-column copy of the codes
        (4x fewer bytes to dequantize) shortlists
        ``_PRESCAN_POOL x rerank`` rows, and only the shortlist gets the
        full-width int8 scan. Both levels rank deterministically
        (``_top_k`` ties toward the lower row id), so refresh-vs-rebuild
        bit-identity is preserved.
        """
        n = self._codes.shape[0]
        rows = np.arange(n, dtype=np.int64)
        depth = min(_resolve_rerank(self.rerank, k), n)
        shortlist = _PRESCAN_POOL * depth
        if n >= _PRESCAN_MIN_RATIO * shortlist:
            q_lo = np.ascontiguousarray(q[::_PRESCAN_STRIDE])
            coarse = quantized_scores(self._codes_lo, self._scales, q_lo)
            keep = _top_k(coarse, rows, shortlist)
            scanned = np.sort(rows[keep])
            approx = quantized_scores(
                self._codes[scanned], self._scales[scanned], q
            )
        else:
            scanned = rows
            approx = quantized_scores(self._codes, self._scales, q)
        pool = _top_k(approx, scanned, depth)
        candidates = np.sort(scanned[pool])
        scores = _cosine_scores(self._unit[candidates], q)
        best = _top_k(scores, candidates, k)
        return candidates[best], scores[best]

    def query_many(
        self, vectors: np.ndarray, k: int = 10
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched exact kNN: one matmul scores every query at once.

        Parameters
        ----------
        vectors:
            Query matrix of shape ``(Q, dim)``, any float dtype (cast to
            float32).
        k:
            Neighbours per query, ``>= 1``.

        Returns
        -------
        list of (row_ids, scores)
            One ``(int64 row_ids, float32 scores)`` pair per query row,
            best first.

        Notes
        -----
        The batched scan reads the matrix once per batch instead of once
        per query — the serving-style micro-batch path. Because BLAS gemm
        results depend on the batch shape, scores may differ from
        :meth:`query` in the last ulp (``batch_matches_single`` is False);
        the ranking is still exact. Callers that need bit-identical
        batched/unbatched results use the LSH backend. In ``quantized``
        mode the batch loops :meth:`query` instead — the chunked int8
        scan is already the fast kernel, and the loop keeps batched
        answers bit-identical to single ones (``batch_matches_single``
        is True), so they share the serving cache.
        """
        if self._unit is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.quantized:
            vectors = np.asarray(vectors, dtype=np.float32)
            return [self.query(vectors[i], k) for i in range(vectors.shape[0])]
        queries = unit_rows(vectors)
        scores = self._unit @ queries.T  # (N, Q)
        rows = np.arange(scores.shape[0], dtype=np.int64)
        results = []
        for i in range(queries.shape[0]):
            column = np.ascontiguousarray(scores[:, i])
            best = _top_k(column, rows, k)
            results.append((rows[best], column[best]))
        return results


def _changed_rows(
    old: np.ndarray, new: np.ndarray, tolerance: float
) -> np.ndarray:
    """Rows of ``new`` that moved beyond ``tolerance`` or are brand new."""
    old_n, new_n = old.shape[0], new.shape[0]
    if new_n < old_n:
        raise ValueError(
            f"matrix shrank from {old_n} to {new_n} rows; the embedding "
            "store is append-only, so refresh expects growth"
        )
    if new.shape[1] != old.shape[1]:
        raise ValueError("embedding dimensionality changed between versions")
    # Cheap single-pass inequality scan first; the exact tolerance test
    # only runs on the (few) rows that changed at all.
    moved = np.flatnonzero(np.any(new[:old_n] != old, axis=1))
    if tolerance > 0.0 and moved.size:
        beyond = (
            np.max(np.abs(new[moved] - old[moved]), axis=1) > tolerance
        )
        moved = moved[beyond]
    fresh = np.arange(old_n, new_n, dtype=np.int64)
    return np.concatenate([moved, fresh]) if fresh.size else moved


class LSHIndex:
    """Random-hyperplane LSH with multi-table, multi-probe querying.

    Parameters
    ----------
    num_tables, num_bits:
        ``num_tables`` independent hash tables of ``2**num_bits`` buckets
        each. More tables / fewer bits raise recall and cost.
        ``num_bits=None`` (default) sizes the tables to the data at the
        first build — ``ceil(log2(N)) - 2``, clipped to [3, 16], i.e. a
        few rows per bucket — and freezes the choice like the
        hyperplanes; an explicit value pins it.
    min_candidates:
        Probing continues (flipping the lowest-|margin| bits first,
        query-directed multi-probe) until at least this many candidate
        rows were gathered or probes are exhausted. ``None`` derives
        ``max(24 * k, 192)`` per query.
    max_probes:
        Bit-flip rounds per table after the exact bucket (default: all
        ``num_bits``).
    seed:
        Seeds the hyperplane draw. Two indexes with equal
        ``(dim, num_tables, num_bits, seed)`` and the same ``center``
        hash identically — the anchor for refresh/rebuild equivalence.
    center:
        SGNS embeddings occupy a narrow cone (every pair of unit rows
        has high cosine), which collapses sign-of-projection hashing
        into a handful of buckets. Hashing the *residual* around the
        data mean restores discrimination, so the index hashes
        ``unit_row - center``. ``None`` (default) computes the center
        from the first ``build`` and freezes it — refreshes reuse it,
        exactly like the hyperplanes. Pass an explicit center (e.g.
        ``other_index.center``) to rebuild a serving index from scratch
        with identical hashing.
    """

    backend_name = "lsh"
    #: ``query_many`` answers are bit-identical to sequential ``query``
    #: calls — the serving layer relies on this to share one result cache
    #: between the batched and unbatched paths.
    batch_matches_single = True

    def __init__(
        self,
        num_tables: int = 8,
        num_bits: int | None = None,
        *,
        seed: int = 0,
        min_candidates: int | None = None,
        max_probes: int | None = None,
        center: np.ndarray | None = None,
    ) -> None:
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if num_bits is not None and not (1 <= num_bits <= 62):
            raise ValueError("num_bits must lie in [1, 62]")
        if min_candidates is not None and min_candidates < 1:
            raise ValueError("min_candidates must be >= 1")
        self.num_tables = int(num_tables)
        self.num_bits = None if num_bits is None else int(num_bits)
        # Auto-sized tables (and an auto-derived center) may be re-sized
        # by a serving layer when the store outgrows the first build;
        # explicit values are a user's pin and must never be overridden.
        self.auto_sized = num_bits is None and center is None
        self.seed = int(seed)
        self.min_candidates = min_candidates
        self._max_probes_arg = max_probes
        self.max_probes = 0  # resolved once num_bits is known
        self._planes: np.ndarray | None = None  # (T*B, d) float32
        self._pow2: np.ndarray | None = None
        self._center: np.ndarray | None = (
            None if center is None else np.asarray(center, dtype=np.float32)
        )
        self._center_proj: np.ndarray | None = None  # planes @ center
        # Row buffers are capacity-doubled: the live rows are [:_n].
        self._n = 0
        self._raw: np.ndarray | None = None
        self._unit: np.ndarray | None = None
        self._codes: np.ndarray | None = None  # (N, T) int64 bucket keys
        self._tables: list[dict[int, np.ndarray]] = []
        self.last_refresh_rows = 0

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Rows currently indexed (0 before the first ``build``)."""
        return self._n

    @property
    def center(self) -> np.ndarray | None:
        """Frozen hashing center (copy); None before the first build."""
        return None if self._center is None else self._center.copy()

    def _ensure_planes(self, dim: int, num_rows: int) -> None:
        if self._planes is None:
            if self.num_bits is None:
                # A few rows per bucket: tables sized to the first build,
                # then frozen (refreshes must hash identically).
                self.num_bits = int(
                    np.clip(np.ceil(np.log2(max(num_rows, 2))) - 2, 3, 16)
                )
            self.max_probes = (
                self.num_bits
                if self._max_probes_arg is None
                else min(self._max_probes_arg, self.num_bits)
            )
            self._pow2 = (1 << np.arange(self.num_bits, dtype=np.int64))
            rng = np.random.default_rng(self.seed)
            self._planes = rng.standard_normal(
                (self.num_tables * self.num_bits, dim)
            ).astype(np.float32)
        elif self._planes.shape[1] != dim:
            raise ValueError(
                f"index was built for dim {self._planes.shape[1]}, got {dim}"
            )

    def _hash_rows(self, unit: np.ndarray) -> np.ndarray:
        """Bucket key per (row, table): sign-pattern packed to int64.

        ``x @ planes.T - center_proj`` equals ``(x - center) @ planes.T``
        with the center projection hoisted out of the per-row work.
        """
        bits = (unit @ self._planes.T - self._center_proj) > 0.0  # (n, T*B)
        bits = bits.reshape(unit.shape[0], self.num_tables, self.num_bits)
        return bits @ self._pow2  # (n, T)

    # ------------------------------------------------------------------
    def _grow_to(self, size: int, dim: int) -> None:
        """Capacity-double the row buffers (amortised O(1) per new row)."""
        capacity = 0 if self._raw is None else self._raw.shape[0]
        if size <= capacity:
            return
        new_capacity = max(16, capacity)
        while new_capacity < size:
            new_capacity *= 2
        raw = np.empty((new_capacity, dim), dtype=np.float32)
        unit = np.empty((new_capacity, dim), dtype=np.float32)
        codes = np.empty((new_capacity, self.num_tables), dtype=np.int64)
        if self._n:
            raw[: self._n] = self._raw[: self._n]
            unit[: self._n] = self._unit[: self._n]
            codes[: self._n] = self._codes[: self._n]
        self._raw, self._unit, self._codes = raw, unit, codes

    def build(self, matrix: np.ndarray) -> None:
        """Hash every row into all tables from scratch."""
        matrix = np.asarray(matrix, dtype=np.float32)
        n, dim = matrix.shape
        self._ensure_planes(dim, n)
        self._n = n
        self._raw = np.array(matrix)
        self._unit = unit_rows(matrix)
        if self._center is None:
            self._center = self._unit.mean(axis=0)
        elif self._center.shape != (dim,):
            raise ValueError("center dimensionality does not match matrix")
        self._center_proj = self._planes @ self._center
        self._codes = self._hash_rows(self._unit)
        self._tables = []
        for t in range(self.num_tables):
            table: dict[int, np.ndarray] = {}
            if n:
                codes = self._codes[:, t]
                order = np.argsort(codes, kind="stable")
                sorted_codes = codes[order]
                boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
                for chunk in np.split(order, boundaries):
                    table[int(codes[chunk[0]])] = chunk
            self._tables.append(table)
        self.last_refresh_rows = n

    def refresh(self, matrix: np.ndarray, tolerance: float = 0.0) -> int:
        """Re-hash only rows that moved beyond ``tolerance`` (plus new rows).

        Returns the number of rows re-hashed. Equivalent to
        ``build(matrix)`` on a fresh index with the same frozen
        configuration (seed, bits, center) — buckets may order members
        differently internally, but query results are identical because
        candidates are deduplicated into sorted order before the exact
        re-rank.
        """
        if self._raw is None:
            self.build(matrix)
            return self.num_rows
        matrix = np.asarray(matrix, dtype=np.float32)
        old_n = self._n
        changed = _changed_rows(self._raw[:old_n], matrix, tolerance)
        if not changed.size:
            self.last_refresh_rows = 0
            return 0
        self._grow_to(matrix.shape[0], matrix.shape[1])
        self._n = matrix.shape[0]
        self._raw[changed] = matrix[changed]
        new_unit = unit_rows(matrix[changed])
        self._unit[changed] = new_unit
        new_codes = self._hash_rows(new_unit)  # (len(changed), T)
        # `changed` is ascending with moved rows (< old_n) first.
        num_moved = int(np.searchsorted(changed, old_n))
        changed_list = changed.tolist()
        new_codes_list = new_codes.tolist()
        old_codes_list = self._codes[changed[:num_moved]].tolist()
        for t in range(self.num_tables):
            table = self._tables[t]
            # Evict moved rows whose bucket changed, grouped per bucket.
            evict: dict[int, list[int]] = {}
            insert: dict[int, list[int]] = {}
            for j, row in enumerate(changed_list):
                code = new_codes_list[j][t]
                if j < num_moved:
                    old_code = old_codes_list[j][t]
                    if old_code == code:
                        continue
                    evict.setdefault(old_code, []).append(row)
                insert.setdefault(code, []).append(row)
            for code, rows in evict.items():
                gone = set(rows)
                kept = [x for x in table[code].tolist() if x not in gone]
                if kept:
                    table[code] = np.asarray(kept, dtype=np.int64)
                else:
                    del table[code]
            for code, rows in insert.items():
                fresh = np.asarray(rows, dtype=np.int64)
                existing = table.get(code)
                table[code] = (
                    fresh if existing is None else np.concatenate([existing, fresh])
                )
        self._codes[changed] = new_codes
        self.last_refresh_rows = int(changed.size)
        return int(changed.size)

    # ------------------------------------------------------------------
    def _gather_and_rank(
        self, q: np.ndarray, codes: list, proj: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared query core: bucket gather, multi-probe, exact re-rank.

        ``codes`` is one bucket key per table (Python ints), ``proj`` the
        (T*B,) hyperplane projections of the unit query ``q``.
        """
        tables = self._tables
        parts: list[np.ndarray] = []
        gathered = 0
        for t, code in enumerate(codes):
            bucket = tables[t].get(code)
            if bucket is not None:
                parts.append(bucket)
                gathered += bucket.size
        target = (
            self.min_candidates
            if self.min_candidates is not None
            else max(24 * k, 192)
        )
        if gathered < target and self.max_probes:
            # Query-directed probing: flip the least confident bits first.
            flip_order = np.argsort(
                np.abs(proj).reshape(self.num_tables, self.num_bits), axis=1
            ).tolist()
            for r in range(self.max_probes):
                for t, code in enumerate(codes):
                    bucket = tables[t].get(code ^ (1 << flip_order[t][r]))
                    if bucket is not None:
                        parts.append(bucket)
                        gathered += bucket.size
                if gathered >= target:
                    break
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if len(parts) == 1:
            # One bucket has no duplicates, but refresh appends rows out
            # of order and _top_k's tie-break needs ascending row ids.
            candidates = np.sort(parts[0])
        else:
            # Sorted dedup; a Python set beats np.unique by ~5x at the
            # few-hundred-candidate sizes this serves.
            merged: set[int] = set()
            for part in parts:
                merged.update(part.tolist())
            candidates = np.fromiter(
                sorted(merged), dtype=np.int64, count=len(merged)
            )
        # Shape-independent re-rank (see _cosine_scores): the scores a
        # candidate gets do not depend on how many candidates were
        # gathered, so LSH re-rank scores agree with the exact backends'.
        scores = _cosine_scores(self._unit[candidates], q)
        best = _top_k(scores, candidates, k)
        return candidates[best], scores[best]

    def query(self, vector: np.ndarray, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k by cosine similarity.

        Probes the exact bucket of each table first, then flips bits in
        ascending |projection| order (the least confident bits) until
        ``min_candidates`` rows were gathered; the candidate set is then
        re-ranked exactly.

        Parameters
        ----------
        vector:
            Query vector of shape ``(dim,)``, any float dtype.
        k:
            Rows to return, ``>= 1``.

        Returns
        -------
        (row_ids, scores)
            ``int64`` row indices and their exact ``float32`` cosines,
            best first, ties broken by ascending row id. May return
            fewer than ``k`` rows when probing gathered fewer
            candidates.
        """
        if self._unit is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = _unit_vector(vector)
        proj = self._planes @ q - self._center_proj  # (T*B,)
        codes = (
            (proj > 0.0).reshape(self.num_tables, self.num_bits) @ self._pow2
        ).tolist()
        return self._gather_and_rank(q, codes, proj, k)

    def query_many(
        self, vectors: np.ndarray, k: int = 10
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched approximate kNN, bit-identical to sequential queries.

        Parameters
        ----------
        vectors:
            Query matrix of shape ``(Q, dim)``, any float dtype (cast to
            float32).
        k:
            Neighbours per query, ``>= 1``.

        Returns
        -------
        list of (row_ids, scores)
            One ``(int64 row_ids, float32 scores)`` pair per query row,
            best first — exactly what ``[self.query(v, k) for v in
            vectors]`` returns.

        Notes
        -----
        This is the serving micro-batch dispatch target
        (:class:`repro.server.MicroBatcher`), and its contract is
        *determinism over kernel fusion*: every per-query reduction
        (normalisation, hyperplane projection, re-rank) runs through the
        same 1-D kernels as :meth:`query`, because BLAS gemm output
        varies with the batch shape — a fused ``(Q, d) @ (d, T*B)``
        projection can flip a near-zero hash bit or reorder the probe
        schedule, making batched answers diverge from unbatched ones.
        Serving caches results across both paths, so
        ``batch_matches_single`` is load-bearing, not cosmetic. The
        batch-level savings live above this call (one index/version
        resolution, one cache sweep, one event-loop dispatch); the probe
        work was always per-query.
        """
        if self._unit is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        vectors = np.asarray(vectors, dtype=np.float32)
        return [self.query(vectors[i], k) for i in range(vectors.shape[0])]

    def fresh_like(self) -> "LSHIndex":
        """A new, empty index carrying this one's tuning knobs.

        When the index is ``auto_sized``, the first-build artefacts
        (table bits, hashing center) are *not* carried over, so the next
        ``build`` re-derives them from the data — the serving layer uses
        this to re-size an index once the store outgrows its first
        sizing. Explicit constructor pins are preserved as-is.
        """
        return LSHIndex(
            self.num_tables,
            None if self.auto_sized else self.num_bits,
            seed=self.seed,
            min_candidates=self.min_candidates,
            max_probes=self._max_probes_arg,
            center=None if self.auto_sized else self.center,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LSHIndex(rows={self.num_rows}, tables={self.num_tables}, "
            f"bits={self.num_bits})"
        )


class IVFIndex:
    """Inverted-file cosine kNN over a coarse cell assignment.

    The coarse quantizer is a per-row *cell id* rather than learned
    k-means codebooks, which is what ties serving back to the paper's
    Step 1: GloDyNE already maintains a (K, eps) partition of the graph
    incrementally (:class:`repro.partition.incremental.
    IncrementalPartitioner`), and nodes that share a partition cell are
    topological neighbours — exactly the rows a cosine query over their
    embeddings wants to scan together. Passing that partition to
    ``build``/``refresh`` via ``assignment`` makes the index
    *partition-aware*; with no assignment the index falls back to
    frozen random unit **anchors** (one per cell, drawn from ``seed``
    at the first build) and assigns each row to its nearest anchor.

    Each cell keeps its member rows (sorted ascending) and a centroid —
    the unit-normalised mean of the members' unit embeddings. A query
    ranks centroids by cosine, probes the best cells, and re-ranks the
    gathered members *exactly*, so recall is governed by how many rows
    the probed cells cover.

    Parameters
    ----------
    num_cells:
        Anchor count for the internal (no-assignment) mode. ``None``
        (default) sizes it to the data at the first build —
        ``round(sqrt(N))`` clipped to [1, 4096] — and freezes the
        choice, like :class:`LSHIndex` table bits. Ignored whenever an
        explicit ``assignment`` drives the cell layout.
    nprobe:
        Non-empty cells scanned per query (best centroid first). More
        probes raise recall and cost.
    min_recall_fallback:
        Coverage floor in [0, 1]: probing keeps opening cells past
        ``nprobe`` until the gathered candidates cover at least this
        fraction of the indexed rows (and always at least ``k``).
        ``0.0`` (default) trusts ``nprobe`` alone; ``1.0`` degrades
        every query to an exact full scan.
    seed:
        Seeds the anchor draw (internal mode only). Two indexes with
        equal ``(dim, num_cells, seed)`` and the same ``center`` assign
        identically — the anchor-mode rebuild-equivalence anchor.
    center:
        SGNS embeddings occupy a narrow cone, so anchor assignment
        scores the *residual* ``unit_row - center`` like the LSH
        backend hashes it. ``None`` derives the center from the first
        build and freezes it; pass ``other_index.center`` to rebuild a
        serving index from scratch with identical anchor assignment.
    quantized:
        ``"int8"`` pre-ranks the gathered cell members with the int8
        per-row scale codec (:mod:`repro.serving.storage`) and exact
        re-ranks only the top ``rerank`` of them — the returned scores
        stay exact float32 cosines. Pays off when probed cells gather
        far more members than the re-rank pool. ``None`` (default)
        exact re-ranks every gathered member.
    rerank:
        Candidate pool the int8 pre-rank hands to the exact re-rank
        (``quantized`` mode only); ``None`` derives ``max(32*k, 256)``.

    Notes
    -----
    **Determinism contract** (PR 4): every reduction runs through
    per-query / per-row / per-cell 1-D kernels — centroid ranking is a
    gemv, row assignment is one gemv per row, centroids are recomputed
    per cell from the member list — so ``query_many`` is bit-identical
    to looped ``query`` and ``refresh`` is bit-identical to ``build``
    on a fresh index with the same frozen configuration and the same
    final ``assignment`` history mode. The one incremental-only rule:
    when an index driven by external assignments refreshes *without*
    one, brand-new rows join the nearest *committed* centroid's cell —
    deterministic, but dependent on the refresh history, so it is
    excluded from the rebuild-equivalence goldens.
    """

    backend_name = "ivf"
    #: ``query_many`` answers are bit-identical to sequential ``query``
    #: calls — same per-query kernels, no batch-shape-dependent gemm.
    batch_matches_single = True
    #: ``build``/``refresh`` accept a per-row cell ``assignment`` — the
    #: serving layer forwards the published partition when one exists.
    accepts_assignment = True

    def __init__(
        self,
        num_cells: int | None = None,
        *,
        nprobe: int = 8,
        min_recall_fallback: float = 0.0,
        seed: int = 0,
        center: np.ndarray | None = None,
        quantized: str | None = None,
        rerank: int | None = None,
    ) -> None:
        if num_cells is not None and num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if not 0.0 <= min_recall_fallback <= 1.0:
            raise ValueError("min_recall_fallback must lie in [0, 1]")
        if quantized not in _QUANTIZED_MODES:
            raise ValueError(
                f"unknown quantized mode {quantized!r}; "
                f"choose from {_QUANTIZED_MODES}"
            )
        if rerank is not None and rerank < 1:
            raise ValueError("rerank must be >= 1 (or None)")
        self._num_cells_arg = None if num_cells is None else int(num_cells)
        self.nprobe = int(nprobe)
        self.min_recall_fallback = float(min_recall_fallback)
        self.seed = int(seed)
        self.quantized = quantized
        self.rerank = rerank
        #: Auto-sized anchors (and an auto-derived center) may be
        #: re-sized by a serving layer when the store outgrows the first
        #: build; explicit values are a user's pin (see LSHIndex).
        self.auto_sized = num_cells is None and center is None
        self._center: np.ndarray | None = (
            None if center is None else np.asarray(center, dtype=np.float32)
        )
        self._anchors: np.ndarray | None = None  # (C, d) float32, frozen
        self._anchor_proj: np.ndarray | None = None  # anchors @ center
        self._external = False  # cells come from explicit assignments
        # Row buffers are capacity-doubled: the live rows are [:_n].
        self._n = 0
        self._raw: np.ndarray | None = None
        self._unit: np.ndarray | None = None
        self._codes: np.ndarray | None = None  # (N, d) int8, quantized mode
        self._scales: np.ndarray | None = None  # (N,) float32
        self._assign: np.ndarray | None = None  # (N,) int64 cell ids
        self._members: list[np.ndarray] = []  # sorted int64 rows per cell
        self._centroids: np.ndarray | None = None  # (C, d) float32
        self.last_refresh_rows = 0

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Rows currently indexed (0 before the first ``build``)."""
        return self._n

    @property
    def num_cells(self) -> int:
        """Live cell count (the constructor pin before the first build)."""
        if self._centroids is not None:
            return len(self._members)
        return 0 if self._num_cells_arg is None else self._num_cells_arg

    @property
    def center(self) -> np.ndarray | None:
        """Frozen assignment center (copy); None before the first build."""
        return None if self._center is None else self._center.copy()

    @property
    def cell_sizes(self) -> list[int]:
        """Member count per cell (empty list before the first build)."""
        return [int(members.size) for members in self._members]

    # ------------------------------------------------------------------
    def _ensure_anchors(self, dim: int, num_rows: int) -> None:
        """Draw the frozen anchor set at the first internal-mode build."""
        if self._anchors is None:
            cells = self._num_cells_arg
            if cells is None:
                # ~sqrt(N) cells: probing nprobe of them scans roughly
                # nprobe*sqrt(N) rows. Frozen like LSH table bits.
                cells = int(np.clip(round(np.sqrt(max(num_rows, 1))), 1, 4096))
            rng = np.random.default_rng(self.seed)
            anchors = rng.standard_normal((cells, dim)).astype(np.float32)
            self._anchors = unit_rows(anchors)
            self._anchor_proj = self._anchors @ self._center
        elif self._anchors.shape[1] != dim:
            raise ValueError(
                f"index was built for dim {self._anchors.shape[1]}, got {dim}"
            )

    def _validate_assignment(self, assignment, n: int) -> np.ndarray:
        """Coerce ``assignment`` to a validated (n,) int64 cell-id array."""
        assign = np.asarray(assignment, dtype=np.int64).ravel()
        if assign.shape[0] != n:
            raise ValueError(
                f"assignment has {assign.shape[0]} entries for {n} rows"
            )
        if n and int(assign.min()) < 0:
            raise ValueError("assignment cell ids must be non-negative")
        if n and int(assign.max()) + 1 > max(2 * n, 1024):
            raise ValueError(
                "assignment names far more cells than rows; pass compact "
                "0-based cell ids (e.g. PartitionResult.assignment values)"
            )
        return assign

    def _anchor_cells(self, unit: np.ndarray) -> np.ndarray:
        """Nearest-anchor cell per row — one gemv per row, never a gemm.

        ``anchors @ u - anchors @ center`` equals scoring the residual
        ``u - center`` against every anchor; argmax ties break to the
        lowest cell id. Per-row kernels keep a refresh's assignment of a
        subset bit-identical to a rebuild's assignment of all rows.
        """
        out = np.empty(unit.shape[0], dtype=np.int64)
        for i in range(unit.shape[0]):
            out[i] = int(np.argmax(self._anchors @ unit[i] - self._anchor_proj))
        return out

    def _nearest_centroid_cells(self, unit: np.ndarray) -> np.ndarray:
        """Nearest committed centroid per row (external-mode fresh rows)."""
        out = np.empty(unit.shape[0], dtype=np.int64)
        for i in range(unit.shape[0]):
            out[i] = int(np.argmax(self._centroids @ unit[i]))
        return out

    def _update_centroid(self, cell: int) -> None:
        """Recompute one cell's centroid from scratch off its member list.

        Always the same per-cell kernel — unit-mean of the members' unit
        rows — whether called from ``build`` or from a refresh's
        dirty-cell sweep, which is what makes the two bit-identical.
        Empty cells get a zero centroid (and are skipped by probing).
        """
        members = self._members[cell]
        if members.size:
            mean = self._unit[members].mean(axis=0)
            norm = float(np.linalg.norm(mean))
            self._centroids[cell] = mean / norm if norm > 0.0 else mean
        else:
            self._centroids[cell] = 0.0

    def _grow_to(self, size: int, dim: int) -> None:
        """Capacity-double the row buffers (amortised O(1) per new row)."""
        capacity = 0 if self._raw is None else self._raw.shape[0]
        if size <= capacity:
            return
        new_capacity = max(16, capacity)
        while new_capacity < size:
            new_capacity *= 2
        raw = np.empty((new_capacity, dim), dtype=np.float32)
        unit = np.empty((new_capacity, dim), dtype=np.float32)
        assign = np.empty(new_capacity, dtype=np.int64)
        if self._n:
            raw[: self._n] = self._raw[: self._n]
            unit[: self._n] = self._unit[: self._n]
            assign[: self._n] = self._assign[: self._n]
        self._raw, self._unit, self._assign = raw, unit, assign
        if self.quantized:
            codes = np.empty((new_capacity, dim), dtype=np.int8)
            scales = np.empty(new_capacity, dtype=np.float32)
            if self._n:
                codes[: self._n] = self._codes[: self._n]
                scales[: self._n] = self._scales[: self._n]
            self._codes, self._scales = codes, scales

    # ------------------------------------------------------------------
    def build(self, matrix: np.ndarray, *, assignment=None) -> None:
        """(Re)build from scratch over ``matrix`` rows.

        Parameters
        ----------
        matrix:
            Embedding matrix of shape ``(N, d)``, any float dtype.
        assignment:
            Optional per-row cell ids (length N, non-negative ints) —
            typically GloDyNE's partition cells. Omitted, rows go to
            their nearest frozen random anchor instead.
        """
        matrix = np.asarray(matrix, dtype=np.float32)
        n, dim = matrix.shape
        unit = unit_rows(matrix)
        if assignment is not None:
            assign = self._validate_assignment(assignment, n)
            num_cells = (int(assign.max()) + 1) if n else 0
            self._external = True
        else:
            if self._center is None:
                self._center = unit.mean(axis=0)
            elif self._center.shape != (dim,):
                raise ValueError("center dimensionality does not match matrix")
            self._ensure_anchors(dim, n)
            assign = self._anchor_cells(unit)
            num_cells = self._anchors.shape[0]
            self._external = False
        self._n = n
        self._raw = np.array(matrix)
        self._unit = unit
        if self.quantized:
            self._codes, self._scales = quantize_int8(unit)
        self._assign = assign
        self._members = [np.empty(0, dtype=np.int64) for _ in range(num_cells)]
        if n:
            # Stable sort groups rows by cell while keeping each member
            # list ascending — the _top_k tie-break invariant.
            order = np.argsort(assign, kind="stable")
            sorted_cells = assign[order]
            boundaries = np.flatnonzero(np.diff(sorted_cells)) + 1
            for chunk in np.split(order, boundaries):
                self._members[int(assign[chunk[0]])] = chunk
        self._centroids = np.zeros((num_cells, dim), dtype=np.float32)
        for cell in range(num_cells):
            self._update_centroid(cell)
        self.last_refresh_rows = n

    def refresh(
        self, matrix: np.ndarray, tolerance: float = 0.0, *, assignment=None
    ) -> int:
        """Sync to a new matrix; touch only moved rows and their cells.

        Rows whose embedding moved beyond ``tolerance`` (plus brand-new
        rows) are re-normalised; rows whose cell changed — because a new
        ``assignment`` says so, or because a moved embedding now sits
        nearer another anchor — migrate between member lists; and only
        the affected cells' centroids are recomputed, each with the same
        per-cell kernel ``build`` uses, so the refreshed index is
        bit-identical to a from-scratch rebuild. Returns the number of
        rows touched (re-normalised or re-assigned).

        Parameters
        ----------
        matrix:
            The new embedding matrix; may only grow (append-only store).
        tolerance:
            Max-abs movement below which a row is considered unchanged.
        assignment:
            Optional per-row cell ids for *all* rows of ``matrix``. When
            given, the cell layout (including the live cell count)
            follows it; when omitted on an assignment-driven index, old
            rows keep their cells and new rows join the nearest
            committed centroid's cell (incremental-only rule).
        """
        if self._raw is None:
            self.build(matrix, assignment=assignment)
            return self.num_rows
        matrix = np.asarray(matrix, dtype=np.float32)
        old_n = self._n
        n, dim = matrix.shape
        changed = _changed_rows(self._raw[:old_n], matrix[:, :], tolerance)
        new_assign = (
            None
            if assignment is None
            else self._validate_assignment(assignment, n)
        )
        self._grow_to(n, dim)
        self._n = n
        if changed.size:
            self._raw[changed] = matrix[changed]
            fresh_unit = unit_rows(matrix[changed])
            self._unit[changed] = fresh_unit
            if self.quantized:
                # Per-row codec: refresh-encoding only touched rows is
                # bit-identical to a rebuild's full encoding.
                self._codes[changed], self._scales[changed] = quantize_int8(
                    fresh_unit
                )
        # Which rows change cell, and to where. `mover_old` is -1 for
        # brand-new rows (they have no cell to leave).
        num_cells_old = len(self._members)
        if new_assign is not None:
            diff = np.flatnonzero(new_assign[:old_n] != self._assign[:old_n])
            fresh = np.arange(old_n, n, dtype=np.int64)
            movers = np.concatenate([diff, fresh])
            mover_targets = new_assign[movers]
            num_cells_new = (int(new_assign.max()) + 1) if n else 0
            self._external = True
        else:
            if self._external:
                # No partition this version: only brand-new rows need a
                # cell (nearest committed centroid, see class docstring).
                reassign = changed[changed >= old_n]
                targets = self._nearest_centroid_cells(self._unit[reassign])
            else:
                # Anchor mode: every moved embedding re-derives its cell.
                reassign = changed
                targets = self._anchor_cells(self._unit[reassign])
            is_old = reassign < old_n
            stays = np.zeros(reassign.shape[0], dtype=bool)
            if reassign.size:
                stays[is_old] = (
                    targets[is_old] == self._assign[reassign[is_old]]
                )
            movers = reassign[~stays]
            mover_targets = targets[~stays]
            num_cells_new = num_cells_old
        mover_old = np.where(
            movers < old_n,
            self._assign[np.minimum(movers, max(old_n - 1, 0))],
            np.int64(-1),
        )
        if not changed.size and not movers.size and num_cells_new == num_cells_old:
            self.last_refresh_rows = 0
            return 0
        # Commit assignments, migrate member lists, then sweep dirty
        # centroids: old cells of movers, new cells of movers, and cells
        # whose member embeddings moved in place.
        if new_assign is not None:
            self._assign[:n] = new_assign
        elif movers.size:
            self._assign[movers] = mover_targets
        dirty = set(mover_old[mover_old >= 0].tolist())
        dirty.update(mover_targets.tolist())
        if changed.size:
            dirty.update(self._assign[changed].tolist())
        if num_cells_new > num_cells_old:
            self._members.extend(
                np.empty(0, dtype=np.int64)
                for _ in range(num_cells_new - num_cells_old)
            )
            pad = np.zeros(
                (num_cells_new - num_cells_old, self._centroids.shape[1]),
                dtype=np.float32,
            )
            self._centroids = np.vstack([self._centroids, pad])
        evict: dict[int, list[int]] = {}
        insert: dict[int, list[int]] = {}
        for row, old_cell, new_cell in zip(
            movers.tolist(), mover_old.tolist(), mover_targets.tolist()
        ):
            if old_cell >= 0:
                evict.setdefault(old_cell, []).append(row)
            insert.setdefault(new_cell, []).append(row)
        for cell, rows in evict.items():
            gone = set(rows)
            self._members[cell] = np.asarray(
                [x for x in self._members[cell].tolist() if x not in gone],
                dtype=np.int64,
            )
        for cell, rows in insert.items():
            extra = np.asarray(sorted(rows), dtype=np.int64)
            existing = self._members[cell]
            self._members[cell] = (
                np.sort(np.concatenate([existing, extra]))
                if existing.size
                else extra
            )
        if num_cells_new < num_cells_old:
            # A shrinking assignment re-homed every row below the new
            # count, so the dropped tail must already be empty.
            for cell in range(num_cells_new, num_cells_old):
                if self._members[cell].size:
                    raise RuntimeError(
                        "assignment shrank the cell count but left "
                        f"members in dropped cell {cell}"
                    )
            del self._members[num_cells_new:]
            self._centroids = self._centroids[:num_cells_new].copy()
        for cell in sorted(c for c in dirty if c < num_cells_new):
            self._update_centroid(cell)
        touched = int(np.union1d(changed, movers).size)
        self.last_refresh_rows = touched
        return touched

    # ------------------------------------------------------------------
    def query(self, vector: np.ndarray, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k by cosine: probe best cells, re-rank exactly.

        Centroids are ranked by cosine against the unit query (stable
        ties to the lowest cell id); the best ``nprobe`` non-empty cells
        are opened — more if ``min_recall_fallback`` demands wider
        coverage — and their members re-ranked exactly.

        Parameters
        ----------
        vector:
            Query vector of shape ``(dim,)``, any float dtype.
        k:
            Rows to return, ``>= 1``.

        Returns
        -------
        (row_ids, scores)
            ``int64`` row indices and their exact ``float32`` cosines,
            best first, ties broken by ascending row id. May return
            fewer than ``k`` rows when the probed cells cover fewer.
        """
        if self._centroids is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = _unit_vector(vector)
        cell_scores = self._centroids @ q  # (C,) gemv — per query
        order = np.argsort(-cell_scores, kind="stable")
        floor = (
            int(np.ceil(self.min_recall_fallback * self._n))
            if self.min_recall_fallback > 0.0
            else 0
        )
        target = max(k, floor)
        parts: list[np.ndarray] = []
        gathered = 0
        probed = 0
        for cell in order.tolist():
            if probed >= self.nprobe and gathered >= target:
                break
            members = self._members[cell]
            if members.size == 0:
                continue  # empty cells do not spend the probe budget
            parts.append(members)
            gathered += members.size
            probed += 1
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        # Cells are disjoint, so a sort (no dedup) restores the
        # ascending-row-id invariant _top_k's tie-break relies on.
        candidates = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
        depth = _resolve_rerank(self.rerank, k)
        if self.quantized and candidates.size > depth:
            # Int8 pre-rank of the gathered members; only the top pool
            # pays the exact kernel. Gathering codes via fancy indexing
            # copies 1/4 the bytes a float32 gather would.
            approx = quantized_scores(
                self._codes[candidates], self._scales[candidates], q
            )
            pool = _top_k(approx, candidates, depth)
            candidates = np.sort(candidates[pool])
        # Shape-independent re-rank (see _cosine_scores): the full-probe
        # fallback therefore reproduces the exact backend bit-for-bit
        # (unquantized — the int8 pre-rank trims the candidate set).
        scores = _cosine_scores(self._unit[candidates], q)
        best = _top_k(scores, candidates, k)
        return candidates[best], scores[best]

    def query_many(
        self, vectors: np.ndarray, k: int = 10
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched approximate kNN, bit-identical to sequential queries.

        Parameters
        ----------
        vectors:
            Query matrix of shape ``(Q, dim)``, any float dtype (cast to
            float32).
        k:
            Neighbours per query, ``>= 1``.

        Returns
        -------
        list of (row_ids, scores)
            Exactly what ``[self.query(v, k) for v in vectors]``
            returns — every reduction runs through the same per-query
            1-D kernels (see :meth:`LSHIndex.query_many` for why the
            serving cache makes ``batch_matches_single`` load-bearing).
        """
        if self._centroids is None:
            raise RuntimeError("index is empty — call build() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        vectors = np.asarray(vectors, dtype=np.float32)
        return [self.query(vectors[i], k) for i in range(vectors.shape[0])]

    def fresh_like(self) -> "IVFIndex":
        """A new, empty index carrying this one's tuning knobs.

        Auto-sized artefacts (anchor count, assignment center) reset so
        the next ``build`` re-derives them; explicit constructor pins
        are preserved (see :meth:`LSHIndex.fresh_like`).
        """
        return IVFIndex(
            self._num_cells_arg,
            nprobe=self.nprobe,
            min_recall_fallback=self.min_recall_fallback,
            seed=self.seed,
            center=None if self.auto_sized else self.center,
            quantized=self.quantized,
            rerank=self.rerank,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "partition" if self._external else "anchor"
        return (
            f"IVFIndex(rows={self.num_rows}, cells={self.num_cells}, "
            f"nprobe={self.nprobe}, mode={mode})"
        )
