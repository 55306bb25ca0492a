"""The shared per-step state every pipeline stage reads and writes.

A :class:`StepContext` is created once per ``update``/flush, threaded
through the stage graph, and discarded; stages communicate exclusively
through it. It owns the step's *one* frozen CSR (built lazily, shared by
Step 1's partitioner and Step 3's walk engine — the single-CSR invariant
from PR 5), the RNG stream(s), and the accumulating
:class:`~repro.core.glodyne.StepTrace` diagnostics.

RNG contract
------------
``rng_for(stage)`` returns the step's RNG for a stage. By default every
stage shares **one** generator — the engines' historical behaviour, and
a load-bearing part of the bit-identity contract (walks, SGNS row init,
and negative draws interleave on a single stream in a pinned order).
A *new* method that wants per-stage isolation (so inserting a stage
cannot shift a later stage's draws) opts in with
``independent_streams=True``, which derives one child generator per
stage name via ``Generator.spawn``. The four rebased engines never
opt in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro.graph.csr import CSRAdjacency

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.glodyne import GloDyNEConfig, StepTrace
    from repro.core.reservoir import Reservoir
    from repro.graph.static import Graph
    from repro.partition.incremental import IncrementalPartitioner
    from repro.sgns.model import SGNSModel

Node = Hashable


class StepContext:
    """Mutable blackboard shared by the stages of one online/offline step.

    Inputs (set by the engine before :meth:`~repro.pipeline.stages.
    StagePipeline.run`): ``config``, ``rng``, ``model``, ``snapshot``,
    ``time_step``, and — when available — ``previous``, ``reservoir``,
    ``partitioner``, ``strategy``, plus the streaming fast-path hooks
    ``csr``/``changes``/``touched``.

    Intermediates (written by stages): ``partition`` (Step 1's, for S4
    and its ablation), ``select_count``, ``selected``, ``start_indices``,
    ``corpus``.

    Outputs: ``trace`` (from the train stage), ``nodes``/``matrix``/
    ``embeddings`` (from the publish stage), and ``stage_seconds``
    (written by the pipeline runner around every stage).
    """

    def __init__(
        self,
        *,
        config: "GloDyNEConfig",
        rng: np.random.Generator,
        model: "SGNSModel | None",
        snapshot: "Graph",
        time_step: int,
        previous: "Graph | None" = None,
        reservoir: "Reservoir | None" = None,
        partitioner: "IncrementalPartitioner | None" = None,
        strategy: Callable | None = None,
        csr: CSRAdjacency | None = None,
        changes: dict[Node, float] | None = None,
        touched: set[Node] | None = None,
        publish_to=None,
        independent_streams: bool = False,
    ) -> None:
        self.config = config
        self.rng = rng
        self.model = model
        self.snapshot = snapshot
        self.time_step = time_step
        self.previous = previous
        self.reservoir = reservoir
        self.partitioner = partitioner
        self.strategy = strategy
        self.csr = csr
        self.changes = changes
        self.touched = touched
        self.publish_to = publish_to
        self.independent_streams = independent_streams
        self._stage_rngs: dict[str, np.random.Generator] = {}
        # Stage intermediates / outputs.
        self.partition = None
        self.select_count: int | None = None
        self.selected: list[Node] | None = None
        self.start_indices: np.ndarray | None = None
        self.corpus = None
        self.trace: "StepTrace | None" = None
        self.nodes: list[Node] | None = None
        self.matrix: np.ndarray | None = None
        self.embeddings: dict[Node, np.ndarray] | None = None
        self.stage_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    def ensure_csr(self) -> CSRAdjacency:
        """The step's single frozen CSR, built on first use.

        Streaming callers hand a prebuilt CSR in; snapshot mode freezes
        the snapshot here exactly once — Step 1's partitioner and
        Step 3's walk engine must share the result (the one-CSR
        invariant is count-pinned by the tier-1 suite).
        """
        if self.csr is None:
            self.csr = CSRAdjacency.from_graph(self.snapshot)
        return self.csr

    @property
    def maintained_partition(self):
        """Step 1's partition when the incremental partitioner made it.

        None when the step built a fresh partition or none at all. Only
        a maintained partition is published as ``partition_cells``
        version metadata (see :attr:`repro.core.glodyne.GloDyNE.
        last_partition_cells`).
        """
        return self.partition if self.partitioner is not None else None

    def rng_for(self, stage_name: str) -> np.random.Generator:
        """The RNG a stage draws from (see the module RNG contract)."""
        if not self.independent_streams:
            return self.rng
        if stage_name not in self._stage_rngs:
            self._stage_rngs[stage_name] = self.rng.spawn(1)[0]
        return self._stage_rngs[stage_name]
