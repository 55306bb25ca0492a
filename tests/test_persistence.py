"""Tests for GloDyNE checkpointing (save / resume mid-stream)."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core import GloDyNE, GloDyNEConfig
from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.serving import EmbeddingStore, load_store, save_store

KWARGS = dict(
    dim=8, alpha=0.3, num_walks=2, walk_length=8, window_size=2, epochs=1,
)


class TestRoundTrip:
    def test_embeddings_survive(self, tiny_network, tmp_path):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        model.update(tiny_network[1])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)

        restored = load_checkpoint(path)
        for node in tiny_network[1].nodes():
            np.testing.assert_array_equal(
                model.model.embedding(node), restored.model.embedding(node)
            )

    def test_reservoir_survives(self, tiny_network, tmp_path):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        model.update(tiny_network[1])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.reservoir.as_dict() == model.reservoir.as_dict()

    def test_config_survives(self, tiny_network, tmp_path):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.config == model.config
        assert restored.time_step == model.time_step

    def test_every_config_field_survives(self, tmp_path):
        """A checkpoint keeps every GloDyNEConfig field, not a hand-picked
        subset: each field is set off its default, saved, and reloaded."""
        non_default = dict(
            dim=12, alpha=0.35, num_walks=3, walk_length=9, window_size=4,
            negative=7, epochs=2, lr=0.05, min_lr=2e-4, batch_size=96,
            partition_eps=0.2, strategy="s2", incremental_partition=True,
            partition_cut_slack=0.75, weighted_changes=True, walk_p=0.5,
            walk_q=2.0, workers=3, chunk_starts=17, negative_prefetch=4,
            backend="python",
        )
        default = dataclasses.asdict(GloDyNEConfig())
        assert set(non_default) == set(default)
        for name, value in non_default.items():
            assert value != default[name], name

        model = GloDyNE(config=GloDyNEConfig(**non_default), seed=0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert dataclasses.asdict(restored.config) == dataclasses.asdict(
            model.config
        )

    def test_resume_continues_stream(self, tiny_network, tmp_path):
        """A restored model keeps consuming snapshots without error and
        produces full-coverage embeddings."""
        model = GloDyNE(**KWARGS, seed=0)
        for snapshot in list(tiny_network)[:2]:
            model.update(snapshot)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)

        restored = load_checkpoint(path, seed=123)
        for snapshot in list(tiny_network)[2:]:
            embeddings = restored.update(snapshot)
            assert set(embeddings) == snapshot.node_set()
        assert restored.time_step == tiny_network.num_snapshots

    def test_previous_snapshot_survives(self, tiny_network, tmp_path):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.previous.edge_set() == model.previous.edge_set()
        assert restored.previous.node_set() == model.previous.node_set()

    def test_version_mismatch_rejected(self, tiny_network, tmp_path):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)

        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.array([999])
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_string_node_ids(self, tmp_path):
        from repro.graph import Graph

        graph = Graph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        )
        model = GloDyNE(**KWARGS, seed=0)
        model.update(graph)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        np.testing.assert_array_equal(
            model.model.embedding("a"), restored.model.embedding("a")
        )

    def test_suffixless_path_round_trips(self, tiny_network, tmp_path):
        # np.savez appends .npz to a bare name; the checkpoint must land
        # at exactly the path it is loaded back from.
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.time_step == model.time_step
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def _torn_savez(file, *args, **kwargs):
    """Stand-in for np.savez that dies after writing part of an archive."""
    if isinstance(file, (str, os.PathLike)):
        with open(file, "wb") as handle:
            handle.write(b"PK\x03\x04 half an archive")
    else:
        file.write(b"PK\x03\x04 half an archive")
    raise OSError("simulated disk full")


class TestAtomicWrite:
    """A write that fails partway keeps the previous archive loadable."""

    def test_failed_checkpoint_keeps_previous(
        self, tiny_network, tmp_path, monkeypatch
    ):
        model = GloDyNE(**KWARGS, seed=0)
        model.update(tiny_network[0])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        model.update(tiny_network[1])
        monkeypatch.setattr(np, "savez", _torn_savez)
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(model, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        assert load_checkpoint(path).time_step == 1

    def test_failed_store_save_keeps_previous(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        store = EmbeddingStore()
        store.publish((list(range(6)), rng.standard_normal((6, 4))))
        path = tmp_path / "store.npz"
        save_store(store, path)
        store.publish((list(range(6)), rng.standard_normal((6, 4))))
        monkeypatch.setattr(np, "savez", _torn_savez)
        with pytest.raises(OSError, match="simulated"):
            save_store(store, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["store.npz"]
        restored = load_store(path)
        assert restored.num_versions == 1
        np.testing.assert_array_equal(
            restored.latest.matrix, store.version(0).matrix
        )
