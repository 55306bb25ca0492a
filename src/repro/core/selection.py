"""Node-selection strategies S1-S4 (Section 5.3.4, Table 5).

All strategies pick ``K = α·|V^t|`` nodes whose neighbourhoods will be
re-sampled by random walks. They differ in the *diversity* of the picked
set, which the paper ranks S1 < S2 < S3 < S4:

* **S1** — random *with replacement* from the reservoir (most-affected
  nodes only): blind to inactive sub-networks, duplicates possible.
* **S2** — random *without replacement* from the reservoir, topped up from
  the whole node set when the reservoir is smaller than K.
* **S3** — random without replacement over all current nodes: diverse in
  expectation but without spatial guarantees.
* **S4** — the GloDyNE strategy: partition the snapshot into K balanced
  cells and sample one representative per cell via the Eq. (4) softmax —
  guaranteed spread over the network *and* bias toward accumulated change.
"""

from __future__ import annotations

from typing import Hashable, Protocol

import numpy as np

from repro.core.reservoir import Reservoir
from repro.core.scoring import sample_representative
from repro.graph.static import Graph
from repro.partition.metis import partition_graph

Node = Hashable


class SelectionContext:
    """Everything a strategy may consult when picking nodes.

    The last three parameters are fast-path hooks the GloDyNE online
    loop fills in: ``csr`` is the step's single frozen adjacency (S4's
    partitioner reuses it instead of re-freezing the snapshot),
    ``partition`` is a prebuilt Step 1 partition (from the incremental
    partitioner) that S4 adopts wholesale, and ``partition_eps`` is the
    Eq. (2) balance tolerance from :class:`GloDyNEConfig` — previously
    the config knob never reached S4 and the hard-coded 0.10 always won.
    """

    def __init__(
        self,
        snapshot: Graph,
        previous: Graph | None,
        reservoir: Reservoir,
        rng: np.random.Generator,
        csr=None,
        partition=None,
        partition_eps: float | None = None,
    ) -> None:
        self.snapshot = snapshot
        self.previous = previous
        self.reservoir = reservoir
        self.rng = rng
        self.csr = csr
        self.partition = partition
        self.partition_eps = partition_eps


class SelectionStrategy(Protocol):
    """Callable picking ``count`` nodes from the current snapshot."""

    def __call__(self, context: SelectionContext, count: int) -> list[Node]:
        ...


def _alive_reservoir_nodes(context: SelectionContext) -> list[Node]:
    """Reservoir nodes still present in the current snapshot, sorted for
    deterministic ordering before random sampling."""
    snapshot = context.snapshot
    return sorted(
        (node for node in context.reservoir.nodes() if snapshot.has_node(node)),
        key=repr,
    )


def select_s1(context: SelectionContext, count: int) -> list[Node]:
    """S1: sample with replacement from the reservoir.

    Duplicates are kept (they simply duplicate walk starts). When the
    reservoir is empty — e.g. a fully quiet step — falls back to uniform
    sampling over the snapshot so that some update still happens.
    """
    pool = _alive_reservoir_nodes(context)
    if not pool:
        return select_s3(context, count)
    picks = context.rng.integers(0, len(pool), size=count)
    return [pool[int(i)] for i in picks]


def select_s2(context: SelectionContext, count: int) -> list[Node]:
    """S2: without replacement from the reservoir, topped up from V^t."""
    pool = _alive_reservoir_nodes(context)
    rng = context.rng
    if len(pool) >= count:
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in picks]
    selected = list(pool)
    remainder = sorted(
        context.snapshot.node_set().difference(selected), key=repr
    )
    extra = min(count - len(selected), len(remainder))
    if extra > 0:
        picks = rng.choice(len(remainder), size=extra, replace=False)
        selected.extend(remainder[int(i)] for i in picks)
    return selected


def select_s3(context: SelectionContext, count: int) -> list[Node]:
    """S3: uniform without replacement over all current nodes."""
    nodes = sorted(context.snapshot.node_set(), key=repr)
    count = min(count, len(nodes))
    picks = context.rng.choice(len(nodes), size=count, replace=False)
    return [nodes[int(i)] for i in picks]


def s4_partition(
    context: SelectionContext, count: int, eps: float | None = None
):
    """The Step 1 partition S4 samples one representative per cell from.

    ``count`` is clamped to ``[1, |V^t|]`` cells. A prebuilt partition on
    the context (the incremental partitioner's, or the one the online
    pipeline's partition stage built) wins when its cell count matches;
    otherwise a fresh multilevel partition is built from
    ``context.rng``, reusing the context's frozen CSR when one exists.
    The eps precedence is explicit argument > ``context.partition_eps``
    (the config knob) > the 0.10 default.
    """
    count = max(1, min(count, context.snapshot.number_of_nodes()))
    partition = context.partition
    if partition is not None and partition.k == count:
        return partition
    if eps is None:
        eps = (
            context.partition_eps
            if context.partition_eps is not None
            else 0.10
        )
    return partition_graph(
        context.snapshot, k=count, eps=eps, rng=context.rng, csr=context.csr
    )


def select_s4(
    context: SelectionContext,
    count: int,
    eps: float | None = None,
) -> list[Node]:
    """S4 (GloDyNE): one softmax-sampled representative per partition cell."""
    partition = s4_partition(context, count, eps)
    return [
        sample_representative(cell, context.reservoir, context.previous, context.rng)
        for cell in partition.cells
        if cell
    ]


def select_s4_uniform(
    context: SelectionContext,
    count: int,
    eps: float | None = None,
) -> list[Node]:
    """Ablation of S4: partition diversity WITHOUT the change bias.

    One representative per cell, drawn uniformly — isolates how much of
    GloDyNE's gain comes from the Eq. (4) softmax over accumulated change
    versus the partition spread alone (DESIGN.md §6 ablation hook).
    """
    partition = s4_partition(context, count, eps)
    picks = []
    for cell in partition.cells:
        if cell:
            picks.append(cell[int(context.rng.integers(0, len(cell)))])
    return picks


STRATEGIES: dict[str, SelectionStrategy] = {
    "s1": select_s1,
    "s2": select_s2,
    "s3": select_s3,
    "s4": select_s4,
    "s4-uniform": select_s4_uniform,
}


def get_strategy(name: str) -> SelectionStrategy:
    """Look up a strategy by its paper name ('s1'..'s4')."""
    try:
        return STRATEGIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown selection strategy {name!r}; expected one of "
            f"{sorted(STRATEGIES)}"
        ) from None
