"""Service-level golden test: stream -> store -> index -> queries.

Drives the full serving pipeline end-to-end on a seeded synthetic
stream: ``StreamingGloDyNE`` publishes every flush into an
:class:`EmbeddingStore`, an :class:`EmbeddingService` serves kNN from an
LSH index, and the assertions pin the service-level contracts — recall
against the exact backend, incremental refresh equivalence with a
from-scratch rebuild, time-travel reads, and cache behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EmbeddingService,
    EmbeddingStore,
    FlushPolicy,
    GloDyNE,
    LSHIndex,
    StreamingGloDyNE,
    load_dataset,
)
from repro.streaming import network_to_events

WALK = dict(num_walks=3, walk_length=12, window_size=4, epochs=2)


@pytest.fixture(scope="module")
def streamed_store() -> EmbeddingStore:
    """Replay a seeded synthetic stream, publishing one version per flush."""
    network = load_dataset("elec-sim", scale=0.5, seed=11, snapshots=6)
    store = EmbeddingStore()
    engine = StreamingGloDyNE(
        dim=32, alpha=0.1, seed=3, policy=FlushPolicy(max_events=80),
        publish_to=store, **WALK,
    )
    engine.ingest_many(network_to_events(network))
    if engine.pending_events:
        engine.flush()
    assert store.num_versions == engine.num_flushes >= 3
    return store


class TestGoldenPipeline:
    def test_flush_metadata_published(self, streamed_store):
        for record in streamed_store:
            assert record.metadata["source"] == "stream"
            assert record.metadata["trigger"] in {"events", "manual"}
            assert record.metadata["num_events"] > 0
        steps = [record.time_step for record in streamed_store]
        assert steps == sorted(steps)

    def test_lsh_recall_vs_brute_force(self, streamed_store):
        exact = EmbeddingService(streamed_store, backend="exact", cache_size=0)
        approx = EmbeddingService(streamed_store, backend="lsh", cache_size=0)
        latest = streamed_store.latest
        queries = list(latest.nodes)[:: max(1, latest.num_nodes // 60)]
        hits = total = 0
        for node in queries:
            truth = {n for n, _ in exact.query_knn(node, 10)}
            found = {n for n, _ in approx.query_knn(node, 10)}
            hits += len(truth & found)
            total += len(truth)
        assert total > 0
        assert hits / total >= 0.9

    def test_incremental_refresh_equals_full_rebuild(self, streamed_store):
        # Serve version after version with incremental refresh only...
        store = EmbeddingStore()
        first = streamed_store.version(0)
        store.publish(
            (list(first.nodes), first.matrix), time_step=first.time_step
        )
        # tolerance 0.0: every row that moved at all re-hashes, so the
        # comparison against the rebuild is bitwise, not approximate.
        service = EmbeddingService(
            store, backend="lsh", cache_size=0, refresh_tolerance=0.0
        )
        service.refresh()  # build at v0 so later syncs are incremental
        for v in range(1, streamed_store.num_versions):
            record = streamed_store.version(v)
            store.publish(
                (list(record.nodes), record.matrix), time_step=record.time_step
            )
            touched = service.refresh()
            assert 0 < touched <= record.num_nodes

        # ... then rebuild from scratch at the final version and compare.
        # The rebuild reuses the serving index's frozen configuration —
        # hashing center and auto-sized table bits — exactly as it reuses
        # the hyperplane seed.
        rebuilt = LSHIndex(
            num_bits=service.index.num_bits, center=service.index.center
        )
        rebuilt.build(streamed_store.latest.matrix)
        latest = streamed_store.latest
        for node in list(latest.nodes)[:: max(1, latest.num_nodes // 40)]:
            vec = latest.vector(node)
            inc_rows, inc_scores = service.index.query(vec, 10)
            full_rows, full_scores = rebuilt.query(vec, 10)
            assert np.array_equal(inc_rows, full_rows)
            assert np.array_equal(inc_scores, full_scores)

    def test_refresh_touches_only_moved_rows(self, streamed_store):
        # GloDyNE's incremental training only moves the rows that took
        # part in a step's walks, so a refresh must re-hash strictly
        # fewer rows than a rebuild re-hashes (= all of them).
        store = EmbeddingStore()
        first = streamed_store.version(0)
        store.publish(
            (list(first.nodes), first.matrix), time_step=first.time_step
        )
        service = EmbeddingService(store, backend="lsh", cache_size=0)
        assert service.indexed_version is None  # lazily built
        assert service.refresh() == first.num_nodes
        assert service.indexed_version == 0
        for v in range(1, streamed_store.num_versions):
            record = streamed_store.version(v)
            store.publish(
                (list(record.nodes), record.matrix),
                time_step=record.time_step,
            )
            touched = service.refresh()
            assert touched < record.num_nodes
            assert service.index.last_refresh_rows == touched
        assert service.indexed_version == store.num_versions - 1
        assert service.refresh() == 0  # already current: no-op

    def test_time_travel_reads(self, streamed_store):
        service = EmbeddingService(streamed_store, backend="lsh")
        v0 = streamed_store.version(0)
        past = service.embed_at(0)
        assert set(past) == set(v0.nodes)
        node = v0.nodes[0]
        assert np.allclose(past[node], v0.vector(node))
        # Pinned-version kNN bypasses the index and is exact at v0.
        result = service.query_knn(node, 5, version=0)
        assert len(result) == 5
        assert all(n != node for n, _ in result)
        # score_edge time-travel agrees with the stored vectors.
        u, v = v0.nodes[0], v0.nodes[1]
        a, b = np.asarray(v0.vector(u)), np.asarray(v0.vector(v))
        expected = float(
            a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        )
        assert service.score_edge(u, v, version=0) == pytest.approx(
            expected, abs=1e-6
        )

    def test_query_cache(self, streamed_store):
        service = EmbeddingService(
            streamed_store, backend="lsh", cache_size=8
        )
        node = streamed_store.latest.nodes[0]
        first = service.query_knn(node, 5)
        second = service.query_knn(node, 5)
        assert first == second
        assert service.cache_info["hits"] == 1
        # Different k = different key.
        service.query_knn(node, 3)
        assert service.cache_info["misses"] == 2
        # Capacity bound holds under churn.
        for other in streamed_store.latest.nodes[:20]:
            service.query_knn(other, 5)
        assert service.cache_info["entries"] <= 8
        service.clear_cache()
        assert service.cache_info["entries"] == 0

    def test_refresh_survives_shrinking_node_set(self, streamed_store):
        # Node deletions can shrink a published version (GloDyNE supports
        # them); the service must fall back to a rebuild, not crash.
        store = EmbeddingStore()
        latest = streamed_store.latest
        store.publish((list(latest.nodes), latest.matrix), time_step=0)
        service = EmbeddingService(store, backend="lsh", cache_size=0)
        service.refresh()  # index the large version first
        shrunk = streamed_store.version(0)  # earlier = fewer nodes
        assert shrunk.num_nodes < latest.num_nodes
        store.publish((list(shrunk.nodes), shrunk.matrix), time_step=1)
        touched = service.refresh()
        assert touched == shrunk.num_nodes  # full rebuild
        assert service.index.num_rows == shrunk.num_nodes
        result = service.query_knn(shrunk.nodes[0], 5)
        assert len(result) == 5

    def test_pinned_and_index_paths_do_not_share_cache(self, streamed_store):
        service = EmbeddingService(streamed_store, backend="lsh")
        latest_version = streamed_store.latest.version
        node = streamed_store.latest.nodes[0]
        approx = service.query_knn(node, 10)
        exact = service.query_knn(node, 10, version=latest_version)
        # Same version id, but the pinned call must have scanned exactly
        # (never served from the approximate entry): both were misses.
        assert service.cache_info["misses"] == 2
        assert service.cache_info["hits"] == 0
        assert {n for n, _ in exact} >= set()  # both well-formed
        assert len(approx) == len(exact) == 10

    def test_auto_sized_index_rebuilds_after_large_growth(self):
        # An index sized on a tiny first version must re-derive its table
        # bits and center once the store outgrows that sizing by 4x.
        rng = np.random.default_rng(0)
        store = EmbeddingStore()
        store.publish(([f"n{i}" for i in range(30)],
                       rng.standard_normal((30, 8))), time_step=0)
        service = EmbeddingService(store, backend="lsh", cache_size=0)
        service.refresh()
        small_bits = service.index.num_bits
        big = np.vstack([store.latest.matrix, rng.standard_normal((270, 8))])
        store.publish(([f"n{i}" for i in range(300)], big), time_step=1)
        touched = service.refresh()
        assert touched == 300  # full re-sized rebuild, not incremental
        assert service.index.num_bits > small_bits
        assert service.indexed_version == 1
        assert len(service.query_knn("n250", 5)) == 5

    def test_unknown_node_raises(self, streamed_store):
        service = EmbeddingService(streamed_store, backend="exact")
        with pytest.raises(KeyError):
            service.query_knn("no-such-node", 5)
        with pytest.raises(ValueError):
            service.score_edge(
                streamed_store.latest.nodes[0],
                streamed_store.latest.nodes[1],
                metric="euclid",
            )
        with pytest.raises(ValueError):
            EmbeddingService(streamed_store, backend="annoy")


@pytest.fixture(scope="module")
def partitioned_store() -> EmbeddingStore:
    """A stream whose online flushes publish Step 1 partition cells."""
    network = load_dataset("elec-sim", scale=0.5, seed=11, snapshots=6)
    store = EmbeddingStore()
    engine = StreamingGloDyNE(
        dim=32, alpha=0.1, seed=3, policy=FlushPolicy(max_events=80),
        publish_to=store, incremental_partition=True, **WALK,
    )
    engine.ingest_many(network_to_events(network))
    if engine.pending_events:
        engine.flush()
    assert store.num_versions >= 3
    return store


class TestIVFThroughService:
    def test_online_versions_carry_partition_cells(self, partitioned_store):
        # v0 is the offline step (no partition yet); every later flush
        # must publish cells row-aligned with its matrix.
        records = list(partitioned_store)
        assert "partition_cells" not in records[0].metadata
        for record in records[1:]:
            cells = record.metadata["partition_cells"]
            assert len(cells) == record.num_nodes
            assert min(cells) >= 0

    def test_ivf_recall_vs_brute_force(self, partitioned_store):
        exact = EmbeddingService(
            partitioned_store, backend="exact", cache_size=0
        )
        approx = EmbeddingService(
            partitioned_store, backend="ivf", cache_size=0
        )
        approx.refresh()
        assert approx.index.backend_name == "ivf"
        assert "mode=partition" in repr(approx.index)  # cells from Step 1
        latest = partitioned_store.latest
        queries = list(latest.nodes)[:: max(1, latest.num_nodes // 60)]
        hits = total = 0
        for node in queries:
            truth = {n for n, _ in exact.query_knn(node, 10)}
            found = {n for n, _ in approx.query_knn(node, 10)}
            hits += len(truth & found)
            total += len(truth)
        assert total > 0
        assert hits / total >= 0.9

    def test_ivf_incremental_refresh_equals_full_rebuild(
        self, partitioned_store
    ):
        # Serve version after version with incremental refresh only,
        # then compare bitwise against a one-shot build at the final
        # version with its published assignment — covering the anchor ->
        # partition mode switch at v1 along the way.
        from repro.serving import IVFIndex

        store = EmbeddingStore()
        service = EmbeddingService(
            store, backend="ivf", cache_size=0, refresh_tolerance=0.0
        )
        for v in range(partitioned_store.num_versions):
            record = partitioned_store.version(v)
            store.publish(
                (list(record.nodes), record.matrix),
                time_step=record.time_step,
                metadata=dict(record.metadata),
            )
            touched = service.refresh()
            assert 0 < touched <= record.num_nodes

        final = partitioned_store.latest
        rebuilt = IVFIndex()
        rebuilt.build(
            final.matrix,
            assignment=np.asarray(
                final.metadata["partition_cells"], dtype=np.int64
            ),
        )
        for node in list(final.nodes)[:: max(1, final.num_nodes // 40)]:
            vec = final.vector(node)
            inc_rows, inc_scores = service.index.query(vec, 10)
            full_rows, full_scores = rebuilt.query(vec, 10)
            assert np.array_equal(inc_rows, full_rows)
            assert np.array_equal(inc_scores, full_scores)


class TestServingBugfixes:
    def test_unit_cache_is_bounded_lru(self, streamed_store):
        # Regression: pinned-version exact scans memoise a full float32
        # unit matrix per version — the memo must stay a bounded LRU,
        # not grow with every version ever queried.
        service = EmbeddingService(
            streamed_store, backend="exact", cache_size=0, unit_cache_size=2
        )
        num = streamed_store.num_versions
        for v in range(num):
            node = streamed_store.version(v).nodes[0]
            service.query_knn(node, 3, version=v)
        assert len(service._unit_cache) == min(2, num)
        # LRU order: the most recently used versions survive.
        assert set(service._unit_cache) == {num - 2, num - 1}
        # Re-touching the older survivor protects it from eviction.
        service.query_knn(streamed_store.version(num - 2).nodes[0], 3,
                          version=num - 2)
        service.query_knn(streamed_store.version(0).nodes[0], 3, version=0)
        assert set(service._unit_cache) == {num - 2, 0}

    def test_unit_cache_disabled(self, streamed_store):
        service = EmbeddingService(
            streamed_store, backend="exact", cache_size=0, unit_cache_size=0
        )
        service.query_knn(streamed_store.version(0).nodes[0], 3, version=0)
        assert len(service._unit_cache) == 0
        with pytest.raises(ValueError, match="unit_cache_size"):
            EmbeddingService(streamed_store, unit_cache_size=-1)

    def test_shrink_then_regrow_never_serves_stale_rows(self, streamed_store):
        # Audit pin: after a shrinking version forces a rebuild, the
        # LSH buckets (whose buffers never shrink) must not leak rows
        # from the larger generation once the store grows again.
        store = EmbeddingStore()
        latest = streamed_store.latest
        small = streamed_store.version(0)
        assert small.num_nodes < latest.num_nodes
        store.publish((list(latest.nodes), latest.matrix), time_step=0)
        service = EmbeddingService(store, backend="lsh", cache_size=0)
        service.refresh()
        store.publish((list(small.nodes), small.matrix), time_step=1)
        service.refresh()  # shrink -> rebuild
        assert service.index.num_rows == small.num_nodes
        mid = streamed_store.version(1)
        store.publish((list(mid.nodes), mid.matrix), time_step=2)
        service.refresh()  # regrow incrementally
        assert service.index.num_rows == mid.num_nodes
        # Golden: bitwise equal to a fresh index that never saw the
        # larger generation (same frozen configuration).
        rebuilt = LSHIndex(
            num_bits=service.index.num_bits, center=service.index.center
        )
        rebuilt.build(small.matrix)
        rebuilt.refresh(mid.matrix)
        for node in list(mid.nodes)[:: max(1, mid.num_nodes // 30)]:
            vec = mid.vector(node)
            a_rows, a_scores = service.index.query(vec, 10)
            b_rows, b_scores = rebuilt.query(vec, 10)
            assert np.array_equal(a_rows, b_rows)
            assert np.array_equal(a_scores, b_scores)
            assert np.all(a_rows < mid.num_nodes)  # no stale generation


class TestSnapshotModePublish:
    def test_glodyne_update_publishes(self, tiny_network):
        store = EmbeddingStore()
        model = GloDyNE(dim=16, seed=0, publish_to=store, **WALK)
        embeddings = model.fit(tiny_network)
        assert store.num_versions == tiny_network.num_snapshots
        for t, record in enumerate(store):
            assert record.time_step == t
            assert record.metadata["source"] == "snapshot"
            assert record.metadata["num_selected"] >= 1
        # Published matrix rows equal the returned embedding map (float32).
        final = store.latest
        for node in list(final.nodes)[:10]:
            assert np.allclose(
                final.vector(node),
                embeddings[-1][node].astype(np.float32),
            )


class TestEmptyStoreGuard:
    """Regression: a service over a version-less store degrades cleanly."""

    def test_refresh_on_empty_store_is_a_noop(self):
        service = EmbeddingService(EmbeddingStore())
        assert service.refresh() == 0
        assert service.indexed_version is None
        # Still a no-op on repeat — and still nothing indexed.
        assert service.refresh() == 0

    def test_queries_on_empty_store_raise_lookup_not_crash(self):
        service = EmbeddingService(EmbeddingStore())
        with pytest.raises(LookupError):
            service.query_knn(0, 3)

    def test_first_publish_after_empty_start_serves(self, streamed_store):
        store = EmbeddingStore()
        service = EmbeddingService(store)
        assert service.refresh() == 0
        record = streamed_store.version(0)
        store.publish((list(record.nodes), record.matrix))
        node = record.nodes[0]
        reference = EmbeddingService(store)
        assert service.query_knn(node, 3) == reference.query_knn(node, 3)
