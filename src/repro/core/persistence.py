"""Checkpointing for GloDyNE: save / restore mid-stream state.

A deployed DNE service updates embeddings for months; being able to stop
and resume without replaying every snapshot is table stakes. A checkpoint
captures everything Eq. (11) threads through time: the SGNS matrices, the
vocabulary, the reservoir, and the previous snapshot.

The format is a single ``.npz`` (numpy archive); node ids are stored via
a repr/eval-free JSON column so arbitrary str/int ids survive. Both
archive writers (checkpoints here, stores in :mod:`repro.serving.store`)
go through :func:`write_npz_atomic`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.glodyne import GloDyNE, GloDyNEConfig
from repro.graph.static import Graph

FORMAT_VERSION = 1


def encode_node_column(nodes) -> np.ndarray:
    """JSON-encode node ids into an object column safe for ``.npz``.

    Shared by checkpoints and the serving store
    (:mod:`repro.serving.store`): arbitrary str/int/float ids survive a
    round-trip without repr/eval.
    """
    return np.array([json.dumps(node) for node in nodes], dtype=object)


def decode_node_column(column: np.ndarray) -> list:
    """Inverse of :func:`encode_node_column`."""
    return [json.loads(item) for item in column]


def write_npz_atomic(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` as one ``.npz`` archive at exactly ``path``, atomically.

    The archive is written to a temp file in ``path``'s directory,
    flushed and fsynced, then ``os.replace``-d onto ``path``, so a
    reader sees either the previous archive or the complete new one. A
    write that fails partway leaves the previous archive in place and
    removes the temp file. Writing through a handle also keeps
    ``np.savez`` from appending ``.npz`` to a suffix-less ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            np.savez(handle, allow_pickle=True, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(model: GloDyNE, path: str | Path) -> None:
    """Serialise a GloDyNE instance to ``path`` (an ``.npz`` archive,
    written atomically at exactly ``path``).

    Only JSON-encodable node ids (str, int, float, tuples thereof as
    lists) are supported — the same restriction as any on-disk format.
    """
    vocab_nodes = list(model.model.vocab)
    previous_edges = (
        list(model.previous.weighted_edges()) if model.previous else []
    )
    previous_nodes = list(model.previous.nodes()) if model.previous else []
    reservoir = model.reservoir.as_dict()

    config_json = json.dumps(dataclasses.asdict(model.config))

    arrays = dict(
        format_version=np.array([FORMAT_VERSION]),
        config=np.array([config_json], dtype=object),
        time_step=np.array([model.time_step]),
        vocab=encode_node_column(vocab_nodes),
        w_in=model.model.w_in.copy(),
        w_out=model.model.w_out.copy(),
        reservoir_nodes=encode_node_column(reservoir.keys()),
        reservoir_values=np.array(list(reservoir.values()), dtype=np.float64),
        prev_nodes=encode_node_column(previous_nodes),
        prev_edge_u=encode_node_column([u for u, _, _ in previous_edges]),
        prev_edge_v=encode_node_column([v for _, v, _ in previous_edges]),
        prev_edge_w=np.array(
            [w for _, _, w in previous_edges], dtype=np.float64
        ),
    )
    write_npz_atomic(path, arrays)


def load_checkpoint(path: str | Path, seed: int | None = None) -> GloDyNE:
    """Restore a GloDyNE instance saved by :func:`save_checkpoint`.

    ``seed`` reseeds the RNG for the *future* steps (the stream of past
    randomness is not replayed).
    """
    archive = np.load(path, allow_pickle=True)
    version = int(archive["format_version"][0])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {version} != supported {FORMAT_VERSION}"
        )
    config = GloDyNEConfig(**json.loads(str(archive["config"][0])))
    model = GloDyNE(config=config, seed=seed)

    vocab_nodes = decode_node_column(archive["vocab"])
    model.model.ensure_nodes(vocab_nodes)
    model.model._w_in[: len(vocab_nodes)] = archive["w_in"]
    model.model._w_out[: len(vocab_nodes)] = archive["w_out"]

    reservoir_nodes = decode_node_column(archive["reservoir_nodes"])
    reservoir_values = archive["reservoir_values"]
    model.reservoir.accumulate(dict(zip(reservoir_nodes, reservoir_values)))

    prev_nodes = decode_node_column(archive["prev_nodes"])
    if prev_nodes:
        previous = Graph()
        for node in prev_nodes:
            previous.add_node(node)
        for u, v, w in zip(
            decode_node_column(archive["prev_edge_u"]),
            decode_node_column(archive["prev_edge_v"]),
            archive["prev_edge_w"],
        ):
            previous.add_edge(u, v, float(w))
        model.previous = previous

    model.time_step = int(archive["time_step"][0])
    return model
