"""Spans around the library's layer boundaries, installed from outside.

The traced run wraps each named public function where its caller looks
it up (a module global, a class attribute, or the selection-strategy
registry), so nothing inside ``src/`` knows about tracing. Spans stay in
memory as ``(name, parent, start, end)`` tuples and are written out once
the run ends; an untraced run installs nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Records spans and per-span counters for wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) with a timed twin.

        ``on_return(args, result)`` runs after the call, outside the
        span, to record counters.
        """
        is_map = isinstance(owner, dict)
        raw = owner[attr] if is_map else vars(owner)[attr]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor else raw
        tracer = self

        def timed(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.spans[span_id] = (name, parent, start, time.perf_counter())
                tracer._stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        patched = descriptor(timed) if descriptor else timed
        if is_map:
            owner[attr] = patched
        else:
            setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Wall seconds inside spans called ``name``.

        A span nested directly in a span of the same name (``query_many``
        calling ``query``) is already covered by its parent.
        """
        return sum(
            end - start
            for n, parent, start, end in self._finished()
            if n == name and (parent < 0 or self.spans[parent][0] != name)
        )

    def calls(self, name: str) -> int:
        """Finished spans called ``name``."""
        return sum(1 for span in self._finished() if span[0] == name)

    def _finished(self):
        return (span for span in self.spans if span is not None)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (seconds since the first)."""
        spans = list(self._finished())
        origin = min((span[2] for span in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (name, parent, start, end) in enumerate(spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


def install_library_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.core.selection as selection
    import repro.pipeline.stages as stages
    import repro.server.daemon as daemon
    import repro.sgns.kernels as kernels
    import repro.sgns.trainer as trainer
    from repro.graph.csr import CSRAdjacency
    from repro.serving.index import LSHIndex
    from repro.serving.service import EmbeddingService
    from repro.serving.store import EmbeddingStore
    from repro.streaming.state import IncrementalCSR, IncrementalGraphState
    from repro.walks.alias import AliasTable

    def count_pairs(args, result):
        tracer.counters["sgns.pairs"] += args[1].num_pairs

    def count_negatives(args, result):
        negatives = args[4]
        tracer.samples["sgns.neg_unique"].append(
            np.unique(negatives).size / max(negatives.size, 1)
        )

    def count_corpus(args, result):
        tracer.counters["walks.pairs"] += result.num_pairs

    def count_refresh(args, result):
        store = args[0].store
        if result:  # 0: already at head, nothing was re-indexed
            tracer.counters["serving.refresh_rows"] += result
            tracer.counters["serving.refresh_of"] += store.latest.num_nodes

    tracer.wrap(stages, "train_on_corpus", "sgns.train", count_pairs)
    tracer.wrap(kernels, "sgns_step_numpy", "sgns.step", count_negatives)
    tracer.wrap(kernels, "table_sigmoid", "sgns.sigmoid")
    tracer.wrap(AliasTable, "sample", "sgns.negative_sample")
    tracer.wrap(trainer, "build_noise_table", "sgns.noise_table")
    tracer.wrap(selection, "partition_graph", "partition.partition_graph")
    for strategy in selection.STRATEGIES:
        tracer.wrap(selection.STRATEGIES, strategy, "selection.select")
    tracer.wrap(stages, "generate_corpus", "walks.corpus", count_corpus)
    tracer.wrap(stages, "diff_snapshots", "graph.diff")
    tracer.wrap(CSRAdjacency, "from_graph", "graph.csr_build")
    tracer.wrap(IncrementalGraphState, "apply", "streaming.apply")
    tracer.wrap(IncrementalCSR, "to_csr", "streaming.to_csr")
    tracer.wrap(
        IncrementalGraphState, "window_node_changes", "streaming.window_changes"
    )
    tracer.wrap(EmbeddingStore, "publish", "serving.publish")
    tracer.wrap(EmbeddingService, "refresh", "serving.refresh", count_refresh)
    tracer.wrap(EmbeddingService, "query_knn_batch", "serving.query_batch")
    tracer.wrap(LSHIndex, "query", "serving.index_query")
    tracer.wrap(LSHIndex, "query_many", "serving.index_query")
    tracer.wrap(daemon, "render_response", "server.encode")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics derived from one tracer's spans and counters."""
    train_s = tracer.total("sgns.train")
    unique = tracer.samples.get("sgns.neg_unique", [])
    refresh_of = tracer.counters.get("serving.refresh_of", 0.0)
    return {
        "sgns.train_s": train_s,
        "sgns.step_s": tracer.total("sgns.step"),
        "sgns.step_calls": float(tracer.calls("sgns.step")),
        "sgns.sigmoid_s": tracer.total("sgns.sigmoid"),
        "sgns.negative_sample_s": tracer.total("sgns.negative_sample"),
        "sgns.noise_table_s": tracer.total("sgns.noise_table"),
        "sgns.pairs_per_s": (
            tracer.counters.get("sgns.pairs", 0.0) / train_s if train_s else 0.0
        ),
        "sgns.neg_unique_ratio": float(np.mean(unique)) if unique else 0.0,
        "partition.partition_graph_s": tracer.total("partition.partition_graph"),
        "partition.calls": float(tracer.calls("partition.partition_graph")),
        "selection.select_s": tracer.total("selection.select"),
        "walks.corpus_s": tracer.total("walks.corpus"),
        "walks.pairs": tracer.counters.get("walks.pairs", 0.0),
        "graph.diff_s": tracer.total("graph.diff"),
        "graph.csr_build_s": tracer.total("graph.csr_build"),
        "streaming.apply_s": tracer.total("streaming.apply"),
        "streaming.to_csr_s": tracer.total("streaming.to_csr"),
        "streaming.window_changes_s": tracer.total("streaming.window_changes"),
        "serving.publish_s": tracer.total("serving.publish"),
        "serving.refresh_s": tracer.total("serving.refresh"),
        "serving.refresh_rows_ratio": (
            tracer.counters["serving.refresh_rows"] / refresh_of
            if refresh_of else 0.0
        ),
        "serving.query_batch_s": tracer.total("serving.query_batch"),
        "serving.index_query_s": tracer.total("serving.index_query"),
        "server.encode_s": tracer.total("server.encode"),
    }
