"""GloDyNE — Algorithm 1 of the paper.

Offline stage (t = 0): DeepWalk-style training of a fresh SGNS model using
truncated random walks from *every* node.

Online stage (t >= 1), four steps per snapshot:

1. partition the snapshot into ``K = α·|V^t|`` balanced cells
   (:mod:`repro.partition`);
2. select one representative per cell, softmax-biased toward accumulated
   topological change (:mod:`repro.core.selection`, strategy S4);
3. run ``r`` truncated random walks of length ``l`` from the selected nodes
   (:mod:`repro.walks`);
4. incrementally train the warm SGNS model on the sliding-window pair
   corpus (:mod:`repro.sgns`).

The class implements the streaming
:class:`repro.base.DynamicEmbeddingMethod` interface; ``fit`` consumes a
whole :class:`repro.graph.dynamic.DynamicNetwork`.

Since the stage-pipeline refactor the loop body lives in
:mod:`repro.pipeline.stages` — this class is a thin stage configuration
(``offline_pipeline`` / ``online_pipeline``) plus the persistent state
the stages read through the per-step
:class:`~repro.pipeline.context.StepContext` (the warm SGNS model, the
reservoir, the incremental partitioner, the RNG stream). The streaming
engine, the SGNS variants, and tNE configure the same stages; outputs
are bit-identical to the pre-pipeline implementation (golden-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.base import DynamicEmbeddingMethod, EmbeddingMap
from repro.core.reservoir import Reservoir
from repro.core.selection import get_strategy
from repro.graph.csr import CSRAdjacency
from repro.graph.static import Graph
from repro.parallel import DEFAULT_CHUNK_STARTS
from repro.partition.incremental import IncrementalPartitioner
from repro.pipeline.context import StepContext
from repro.pipeline.stages import (
    offline_pipeline,
    online_pipeline,
    partition_cells_for,
)
from repro.pipeline.trace import StepTrace
from repro.sgns import kernels
from repro.sgns.model import SGNSModel
from repro.sgns.trainer import TrainConfig

__all__ = ["GloDyNE", "GloDyNEConfig", "StepTrace"]

Node = Hashable


@dataclass
class GloDyNEConfig:
    """Hyper-parameters of Algorithm 1 (defaults follow Section 5.1.2).

    The paper uses d=128, r=10, l=80, s=10, q=5, α=0.1; smaller values are
    appropriate for laptop-scale benchmarks and are what the bench harness
    passes explicitly.
    """

    dim: int = 128
    alpha: float = 0.1
    num_walks: int = 10
    walk_length: int = 80
    window_size: int = 10
    negative: int = 5
    epochs: int = 5
    lr: float = 0.025
    min_lr: float = 1e-4
    batch_size: int = 2048
    partition_eps: float = 0.10
    strategy: str = "s4"
    # Step 1 cost model: with ``incremental_partition`` on, a persistent
    # :class:`~repro.partition.incremental.IncrementalPartitioner` applies
    # graph deltas to the previous step's partition — O(Δ) Python work per
    # step instead of the full O(E) multilevel rebuild — falling back to a
    # full rebuild when the maintained edge cut degrades beyond
    # ``partition_cut_slack`` (relative) or Eq. (2) balance breaks. Only
    # the S4 strategies partition, so the knob is inert for S1-S3.
    incremental_partition: bool = False
    partition_cut_slack: float = 0.5
    # Footnote 3 of the paper: on weighted snapshots, |ΔE_i| generalises
    # to the total incident weight change. "auto" switches to the
    # weighted formula whenever either snapshot carries non-unit weights;
    # True / False force it.
    weighted_changes: bool | None = None
    # Framework extension (Section 6): node2vec return/in-out parameters
    # for Step 3's walk sampler. p = q = 1 is the paper's Eq. (5).
    walk_p: float = 1.0
    walk_q: float = 1.0
    # Parallel hot path (:mod:`repro.parallel`). workers=1 is the legacy
    # serial path, bit-identical under a fixed seed; workers>=2 walks
    # fixed-size start chunks on a process pool (output invariant to the
    # worker count, see the engine's determinism contract). Biased
    # (p/q != 1) walks always run serially. ``negative_prefetch=None``
    # auto-selects mega-batch negative drawing for the parallel profile.
    workers: int = 1
    chunk_starts: int = DEFAULT_CHUNK_STARTS
    negative_prefetch: int | None = None
    # Kernel backend for the SGNS gradient step and walk transitions
    # (:mod:`repro.sgns.kernels`): "auto" uses numba when importable and
    # falls back to the pure-python kernels silently; both produce
    # bit-identical embeddings, so the knob affects wall-clock only.
    # Resolved lazily per process (spawned walk workers re-resolve from
    # the string). Biased (p/q != 1) walks ignore it; weighted snapshots
    # switch non-python backends to the alias-table stepper, which is
    # reproducible per backend but draws a different stream than the
    # python searchsorted stepper.
    backend: str = "auto"

    #: Minibatches per negative mega-batch when workers >= 2 and
    #: ``negative_prefetch`` is left on auto. A constant (never derived
    #: from the worker count) so workers=2 and workers=8 train the same.
    PARALLEL_NEGATIVE_PREFETCH = 32

    def __post_init__(self) -> None:
        if self.walk_p <= 0 or self.walk_q <= 0:
            raise ValueError("walk_p and walk_q must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.walk_length < 2:
            raise ValueError("walk_length must be >= 2 to form any pair")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_starts < 1:
            raise ValueError("chunk_starts must be >= 1")
        if self.negative_prefetch is not None and self.negative_prefetch < 1:
            raise ValueError("negative_prefetch must be >= 1 (or None)")
        if self.partition_eps < 0:
            raise ValueError("partition_eps must be non-negative")
        if self.partition_cut_slack < 0:
            raise ValueError("partition_cut_slack must be non-negative")
        if self.backend not in kernels.BACKENDS:
            raise ValueError(
                f"backend must be one of {kernels.BACKENDS}, got {self.backend!r}"
            )

    def resolved_negative_prefetch(self) -> int:
        """Effective mega-batch size: explicit value, else profile default."""
        if self.negative_prefetch is not None:
            return self.negative_prefetch
        return self.PARALLEL_NEGATIVE_PREFETCH if self.workers >= 2 else 1

    def train_config(self) -> TrainConfig:
        """The SGNS trainer's view of these hyper-parameters."""
        return TrainConfig(
            negative=self.negative,
            epochs=self.epochs,
            lr=self.lr,
            min_lr=self.min_lr,
            batch_size=self.batch_size,
            negative_prefetch=self.resolved_negative_prefetch(),
            backend=self.backend,
        )


class GloDyNE(DynamicEmbeddingMethod):
    """Global-topology-preserving dynamic network embedding (Algorithm 1)."""

    name = "GloDyNE"
    supports_node_deletion = True

    def __init__(
        self,
        config: GloDyNEConfig | None = None,
        seed: int | None = None,
        publish_to=None,
        **overrides,
    ) -> None:
        """Build a model from a config object or keyword overrides.

        Parameters
        ----------
        config:
            A pre-built :class:`GloDyNEConfig`; mutually exclusive with
            ``overrides``.
        seed:
            Seeds the model RNG (walk sampling, SGNS init, negative
            draws). Equal seeds and inputs reproduce embeddings bit for
            bit.
        publish_to:
            Optional :class:`repro.serving.EmbeddingStore`: every
            ``update`` then publishes its Z^t as a new store version
            (snapshot-mode serving hook; streaming callers set it on the
            engine instead, which attaches richer flush metadata).
        **overrides:
            Forwarded to :class:`GloDyNEConfig` for the common call
            style ``GloDyNE(dim=64, alpha=0.2, seed=1)``.
        """
        if config is not None and overrides:
            raise ValueError("pass either a config object or keyword overrides")
        self.config = config if config is not None else GloDyNEConfig(**overrides)
        self._seed = seed
        self._strategy = get_strategy(self.config.strategy)
        self.publish_to = publish_to
        # The stage graphs are stateless across steps (all per-step state
        # lives on the StepContext), so one pipeline object per mode
        # serves every update.
        self._offline_pipeline = offline_pipeline()
        self._online_pipeline = online_pipeline()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all learned state and restart from the construction seed.

        After a reset the next :meth:`update` runs the offline stage
        again, exactly as a freshly constructed model would.
        """
        self.rng = np.random.default_rng(self._seed)
        self.model = SGNSModel(self.config.dim, rng=self.rng)
        self.reservoir = Reservoir()
        # Step 1 state: the incremental partitioner persists across
        # `update` calls (that is the whole point — it owns the partition
        # between snapshots). Rebuild randomness comes from the
        # partitioner's own seeded stream, never from self.rng — but note
        # that enabling the knob changes what S4 draws from self.rng (the
        # per-step partition_graph call is skipped), so knob-on and
        # knob-off runs are two different (each internally deterministic)
        # trajectories.
        self.partitioner: IncrementalPartitioner | None = (
            IncrementalPartitioner(
                eps=self.config.partition_eps,
                seed=self._seed,
                cut_slack=self.config.partition_cut_slack,
            )
            if self.config.incremental_partition
            else None
        )
        self.previous: Graph | None = None
        self.time_step = 0
        self.last_trace: StepTrace | None = None
        # The latest update's aligned (nodes, matrix) pair — what the
        # embedding map was built from. Publishing consumers (the
        # streaming engine's serving hook) read this to avoid re-stacking
        # the map row by row; the rows are shared with the map, so this
        # retains no extra memory.
        self.last_embedding: tuple[list[Node], np.ndarray] | None = None
        # Step 1's PartitionResult from the latest online step (None on
        # the offline step, for non-S4 strategies, and with the
        # incremental partitioner off). Publishing consumers export it as
        # `partition_cells` metadata so a partition-aware serving index
        # (IVFIndex) can reuse the trainer's own cells.
        self.last_partition = None

    # ------------------------------------------------------------------
    def update(
        self,
        snapshot: Graph,
        *,
        changes: dict[Node, float] | None = None,
        csr: CSRAdjacency | None = None,
        touched: set[Node] | None = None,
    ) -> EmbeddingMap:
        """Consume the next snapshot and return Z^t for its nodes.

        Parameters
        ----------
        snapshot:
            The graph at time t. The first call runs the offline
            DeepWalk stage; later calls run the four-step online stage.
        changes:
            Streaming fast-path hook (:mod:`repro.streaming`): per-node
            Eq. (3) change scores a caller accumulated incrementally,
            replacing the full-graph ``diff_snapshots`` recomputation.
        csr:
            Streaming fast-path hook: the frozen
            :class:`~repro.graph.csr.CSRAdjacency` of ``snapshot`` a
            caller already holds, replacing ``CSRAdjacency.from_graph``.
        touched:
            Nodes whose incident topology may have changed since the
            previous snapshot — the incremental partitioner's dirty set.
            Defaults to ``set(changes)`` (accumulated or diffed); only
            consulted when ``incremental_partition`` is enabled.

        Returns
        -------
        EmbeddingMap
            ``{node: float64 vector of shape (dim,)}`` for every node of
            ``snapshot``. The aligned ``(nodes, matrix)`` pair behind it
            is kept on :attr:`last_embedding` (``matrix`` float64 of
            shape ``(len(nodes), dim)``, rows shared with the map).
        """
        if snapshot.number_of_nodes() == 0:
            raise ValueError("cannot embed an empty snapshot")
        context = StepContext(
            config=self.config,
            rng=self.rng,
            model=self.model,
            snapshot=snapshot,
            time_step=self.time_step,
            previous=self.previous,
            reservoir=self.reservoir,
            partitioner=self.partitioner,
            strategy=self._strategy,
            csr=csr,
            changes=changes,
            touched=touched,
            publish_to=self.publish_to,
        )
        pipeline = (
            self._offline_pipeline
            if self.previous is None
            else self._online_pipeline
        )
        pipeline.run(context)
        self.last_trace = context.trace
        self.last_partition = context.maintained_partition
        # Must be a frozen copy, not an alias: Eq. (3) scoring reads the
        # *previous* snapshot's degrees next step, and streaming callers
        # keep mutating the snapshot object they passed in.
        self.previous = snapshot.copy()
        self.time_step += 1
        self.last_embedding = (context.nodes, context.matrix)
        return context.embeddings

    @property
    def last_partition_cells(self) -> list[int] | None:
        """Per-row cell ids aligned with :attr:`last_embedding`, or None.

        Present only when the latest :meth:`update` ran Step 1's
        partitioner (``incremental_partition`` with an S4 strategy) and
        the partition covers every embedded node. Publishing consumers
        attach it as ``partition_cells`` version metadata, which a
        partition-aware serving index (:class:`repro.serving.index.
        IVFIndex`) adopts as its coarse-quantizer cell layout.
        """
        if self.last_embedding is None:
            return None
        return partition_cells_for(self.last_embedding[0], self.last_partition)
