"""The stage graph: Algorithm 1's online step as first-class stages.

GloDyNE's four-step online loop used to live four times in the codebase
(``GloDyNE._online_stage``/``_walk_and_train``, the variants'
``_deepwalk_round``, ``TNE``, and the streaming flush). This module is
the single implementation: five concrete stages, each mapping onto the
paper —

* :class:`ChangeScoreStage` — lines 9-10: the Eq. (3) snapshot delta and
  reservoir accumulation (Step 2's input, computed up front so the diff
  runs exactly once per step);
* :class:`PartitionStage` — Step 1 (lines 7-8): ``K = α·|V^t|`` and, for
  S4, the partition (maintained incrementally when enabled);
* :class:`SelectionStage` — Step 2 (lines 11-14): one representative per
  cell (or every node, for offline/DeepWalk rounds);
* :class:`WalkCorpusStage` — Step 3 (lines 15-16): truncated random
  walks and the sliding-window pair corpus, fused-streaming aware;
* :class:`TrainStage` — Step 4 (line 17): the incremental SGNS round;
  emits the :class:`~repro.pipeline.trace.StepTrace`;
* :class:`PublishStage` — line 18: materialise Z^t and push a version to
  an :class:`~repro.serving.EmbeddingStore`.

:class:`StagePipeline` runs a stage list over one
:class:`~repro.pipeline.context.StepContext`, recording per-stage
wall-clock into ``StepTrace.stage_seconds``. Engines are thin stage
configurations — see :func:`online_pipeline`, :func:`offline_pipeline`
and :func:`deepwalk_pipeline` — and a new method is one new stage plus
one pipeline literal, not a reimplementation of the loop.

Determinism contract (the one every prior refactor honoured): a pipeline
built from these stages is **bit-identical** to the pre-pipeline
engines — same RNG stream, same draw order, same embeddings and traces —
for all four engines, at ``workers`` ∈ {1, 2} and every kernel backend.
``tests/test_pipeline_goldens.py`` pins this against fixtures recorded
at the last pre-pipeline commit.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.core.selection import SelectionContext, s4_partition
from repro.graph.diff import diff_snapshots, weighted_node_changes
from repro.parallel import generate_corpus, generate_walks
from repro.pipeline.context import StepContext
from repro.pipeline.trace import StepTrace
from repro.sgns.trainer import train_on_corpus
from repro.walks.corpus import build_pair_corpus

#: Strategies that consume a Step 1 partition (the others replace it for
#: the Table 5 ablation, so partition maintenance would be wasted work).
PARTITION_STRATEGIES = ("s4", "s4-uniform")


@runtime_checkable
class Stage(Protocol):
    """One step of the online loop: reads and writes a :class:`StepContext`.

    Stages must be stateless across steps (engines reuse one pipeline
    object for every ``update``); all per-step state lives on the
    context.
    """

    name: str

    def run(self, context: StepContext) -> None:
        """Execute the stage against the shared step context."""
        ...


class StagePipeline:
    """An ordered stage list plus the runner that times each stage.

    ``run`` executes the stages in order over one context and records
    per-stage wall-clock seconds into ``context.stage_seconds`` (and
    onto the trace, once one exists) — the per-stage timing telemetry
    every engine now gets for free.
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self.stages: tuple[Stage, ...] = tuple(stages)
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in pipeline: {names}")

    def run(self, context: StepContext) -> StepContext:
        """Run every stage over ``context``; returns it for chaining."""
        for stage in self.stages:
            started = time.perf_counter()
            stage.run(context)
            context.stage_seconds[stage.name] = (
                time.perf_counter() - started
            )
        if context.trace is not None:
            context.trace.stage_seconds = dict(context.stage_seconds)
        return context

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StagePipeline({' -> '.join(s.name for s in self.stages)})"


# ----------------------------------------------------------------------
# Concrete stages (extracted verbatim from GloDyNE._online_stage /
# _walk_and_train — the order of every RNG-consuming call is pinned).
# ----------------------------------------------------------------------

class ChangeScoreStage:
    """Eq. (3) per-node change scores + reservoir accumulation.

    A streaming caller hands accumulated ``changes`` in via the context
    (skipping the full-graph diff); otherwise the stage diffs the
    previous snapshot against the current one, switching to the weighted
    formula (footnote 3) automatically on weighted graphs. Consumes no
    RNG.
    """

    name = "changes"

    def run(self, context: StepContext) -> None:
        """Fill ``context.changes`` and fold them into the reservoir."""
        config = context.config
        context.ensure_csr()
        if context.changes is None:
            use_weighted = config.weighted_changes
            if use_weighted is None:
                use_weighted = not (
                    context.snapshot.is_unweighted()
                    and context.previous.is_unweighted()
                )
            if use_weighted:
                context.changes = weighted_node_changes(
                    context.previous, context.snapshot
                )
            else:
                context.changes = diff_snapshots(
                    context.previous, context.snapshot
                ).node_changes
        context.reservoir.accumulate(context.changes)
        context.reservoir.prune(context.snapshot.node_set())


class PartitionStage:
    """Step 1: ``K = α·|V^t|`` cells for the partition-based strategies.

    With an :class:`~repro.partition.incremental.IncrementalPartitioner`
    on the context, the stage maintains its partition; incremental steps
    consume no RNG (rebuilds use the partitioner's own seeded stream).
    Without one (the default), the stage builds a fresh multilevel
    partition through :func:`repro.core.selection.s4_partition`, drawing
    from the selection stage's RNG, and S4 adopts it. S4 would otherwise
    build it first thing in :class:`SelectionStage` from that RNG, so the
    draws and their order are the same either way, and the build is
    timed as Step 1.
    """

    name = "partition"

    def run(self, context: StepContext) -> None:
        """Compute the selection budget and Step 1's partition."""
        config = context.config
        context.select_count = max(
            1, round(config.alpha * context.snapshot.number_of_nodes())
        )
        if config.strategy not in PARTITION_STRATEGIES:
            return
        if context.partitioner is not None:
            touched = context.touched
            if touched is None:
                touched = set(context.changes)
            context.partition = context.partitioner.partition(
                context.snapshot,
                context.select_count,
                csr=context.csr,
                touched=touched,
            )
            return
        context.partition = s4_partition(
            SelectionContext(
                snapshot=context.snapshot,
                previous=context.previous,
                reservoir=context.reservoir,
                rng=context.rng_for(SelectionStage.name),
                csr=context.ensure_csr(),
                partition_eps=config.partition_eps,
            ),
            context.select_count,
        )


class SelectionStage:
    """Step 2: pick the nodes whose neighbourhoods get re-sampled.

    ``all_nodes=True`` is the offline/DeepWalk round (Algorithm 1 lines
    1-5 and the retrain-style engines): every node starts walks and no
    strategy runs. Otherwise the configured strategy (S1-S4) picks
    ``context.select_count`` nodes and the captured ones are evicted
    from the reservoir (line 14).
    """

    name = "select"

    def __init__(self, all_nodes: bool = False) -> None:
        self.all_nodes = all_nodes

    def run(self, context: StepContext) -> None:
        """Fill ``context.selected`` / ``context.start_indices``."""
        csr = context.ensure_csr()
        if self.all_nodes:
            context.start_indices = np.arange(csr.num_nodes)
            return
        config = context.config
        selection = SelectionContext(
            snapshot=context.snapshot,
            previous=context.previous,
            reservoir=context.reservoir,
            rng=context.rng_for(self.name),
            csr=csr,
            partition=context.partition,
            partition_eps=config.partition_eps,
        )
        selected = context.strategy(selection, context.select_count)
        context.reservoir.evict(selected)
        context.selected = selected
        context.start_indices = np.fromiter(
            (csr.index_of[node] for node in selected),
            dtype=np.int64,
            count=len(selected),
        )


class WalkCorpusStage:
    """Step 3: truncated random walks folded into the pair corpus.

    ``fused=True`` (GloDyNE's path) streams walk chunks straight into
    the corpus builder so the full walk matrix never materialises at
    ``workers>=2``; node2vec-biased walks (p/q ≠ 1) fall back to the
    serial biased sampler. ``fused=False`` is the two-phase
    walks-then-corpus path the variants have always used (bit-identical
    output, different memory profile; p/q are ignored there, as they
    always were).
    """

    name = "walk"

    def __init__(self, fused: bool = True) -> None:
        self.fused = fused

    def run(self, context: StepContext) -> None:
        """Fill ``context.corpus`` from ``context.start_indices``."""
        config = context.config
        csr = context.ensure_csr()
        rng = context.rng_for(self.name)
        starts = context.start_indices
        if not self.fused:
            walks = generate_walks(
                csr, starts, config.num_walks, config.walk_length, rng,
                workers=config.workers, chunk_starts=config.chunk_starts,
                backend=config.backend,
            )
            context.corpus = build_pair_corpus(
                walks, config.window_size, csr.num_nodes
            )
        elif config.walk_p == 1.0 and config.walk_q == 1.0:
            context.corpus = generate_corpus(
                csr, starts, config.num_walks, config.walk_length,
                config.window_size, rng,
                workers=config.workers, chunk_starts=config.chunk_starts,
                backend=config.backend, fused=True,
            )
        else:
            from repro.walks.biased import simulate_biased_walks

            walks = simulate_biased_walks(
                csr, starts, config.num_walks, config.walk_length,
                rng, p=config.walk_p, q=config.walk_q,
            )
            context.corpus = build_pair_corpus(
                walks, config.window_size, csr.num_nodes
            )


class TrainStage:
    """Step 4: one incremental SGNS round over the step's pair corpus.

    Registers every snapshot node in the global vocabulary (walks may
    visit any of them; row init draws from the shared stream *after* the
    walks, matching the legacy order), trains, and emits the step's
    :class:`~repro.pipeline.trace.StepTrace` — ``selected_nodes`` is
    derived once from the start indices that actually drove the walks.
    """

    name = "train"

    def run(self, context: StepContext) -> None:
        """Train the model in place and fill ``context.trace``."""
        config = context.config
        csr = context.csr
        corpus = context.corpus
        model = context.model
        model.ensure_nodes(csr.nodes)
        row_of = model.vocab.indices(csr.nodes)
        train_on_corpus(
            model, corpus, row_of, context.rng_for(self.name),
            config=config.train_config(),
        )
        starts = context.start_indices
        context.trace = StepTrace(
            time_step=context.time_step,
            num_nodes=context.snapshot.number_of_nodes(),
            num_selected=int(starts.size),
            num_pairs=corpus.num_pairs,
            selected_nodes=[csr.nodes[i] for i in starts],
        )


class PublishStage:
    """Materialise Z^t and publish it to an embedding store, if any.

    Builds the aligned ``(nodes, matrix)`` pair behind the returned
    embedding map and, when the context carries a ``publish_to`` store,
    pushes a new version tagged with the step diagnostics (plus Step 1's
    ``partition_cells`` when the partition covers every embedded node —
    the partition-aware serving index reuses them as its coarse
    quantizer).
    """

    name = "publish"

    def __init__(self, source: str = "snapshot") -> None:
        self.source = source

    def run(self, context: StepContext) -> None:
        """Fill ``context.nodes``/``matrix``/``embeddings`` and publish."""
        nodes = list(context.snapshot.nodes())
        matrix = context.model.embedding_matrix(nodes)
        context.nodes = nodes
        context.matrix = matrix
        context.embeddings = dict(zip(nodes, matrix))
        if context.publish_to is not None:
            trace = context.trace
            publish_version(
                context.publish_to,
                nodes,
                matrix,
                time_step=trace.time_step,
                metadata={
                    "source": self.source,
                    "num_selected": trace.num_selected,
                    "num_pairs": trace.num_pairs,
                },
                partition=context.maintained_partition,
            )


# ----------------------------------------------------------------------
# Publish helpers shared by the stage and the streaming flush
# ----------------------------------------------------------------------

def partition_cells_for(nodes, partition) -> list[int] | None:
    """Per-row cell ids aligned with ``nodes``, or None.

    None when there is no partition or it does not cover every embedded
    node — publishing consumers must only attach complete assignments
    (a partial one would desynchronise the serving index's cell layout).
    """
    if partition is None:
        return None
    assignment = partition.assignment
    cells: list[int] = []
    for node in nodes:
        cell = assignment.get(node)
        if cell is None:
            return None
        cells.append(int(cell))
    return cells


def publish_version(
    store, nodes, matrix, *, time_step: int, metadata: dict, partition=None
) -> None:
    """Publish one embedding version, attaching partition cells when whole.

    The single publish path behind snapshot mode (:class:`PublishStage`)
    and the streaming flush — both used to rebuild the
    ``partition_cells`` attachment logic separately.
    """
    cells = partition_cells_for(nodes, partition)
    if cells is not None:
        metadata["partition_cells"] = cells
    store.publish((nodes, matrix), time_step=time_step, metadata=metadata)


# ----------------------------------------------------------------------
# The engines' pipeline literals ("one pipeline, four engines")
# ----------------------------------------------------------------------

def online_pipeline(publish_source: str = "snapshot") -> StagePipeline:
    """GloDyNE's online step (Algorithm 1 lines 6-18) as a stage list."""
    return StagePipeline([
        ChangeScoreStage(),
        PartitionStage(),
        SelectionStage(),
        WalkCorpusStage(fused=True),
        TrainStage(),
        PublishStage(source=publish_source),
    ])


def offline_pipeline(publish_source: str = "snapshot") -> StagePipeline:
    """GloDyNE's offline step (lines 1-5): DeepWalk from every node."""
    return StagePipeline([
        SelectionStage(all_nodes=True),
        WalkCorpusStage(fused=True),
        TrainStage(),
        PublishStage(source=publish_source),
    ])


def deepwalk_pipeline() -> StagePipeline:
    """One full DeepWalk training round (the variants' and tNE's core).

    No publish stage: retrain-style engines emit embeddings themselves
    (random vectors for unknown nodes, alignment/pooling, ...) — they
    append their own stages or post-process the trained model.
    """
    return StagePipeline([
        SelectionStage(all_nodes=True),
        WalkCorpusStage(fused=False),
        TrainStage(),
    ])
