"""Multilevel (K, ε)-balanced k-way graph partitioning — the METIS substitute.

GloDyNE's Step 1 (Section 4.1.1) needs, at every time step, a partition of
the snapshot into K non-overlapping, covering, roughly balanced cells with
small edge cut. The original uses the METIS C library; this module
reimplements the same three-phase multilevel scheme from scratch:

1. *coarsening* — heavy-edge matching collapses adjacent vertex pairs until
   the abstract graph is small (``~coarsen_factor * k`` vertices);
2. *initial partition* — greedy BFS region growing produces a K-way seed
   partition of the coarsest graph;
3. *uncoarsening* — the partition is projected back level by level, with a
   rebalance + boundary Kernighan-Lin refinement pass at each level.

The public entry point is :func:`partition_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.static import Graph
from repro.partition.coarsen import build_coarse_graph
from repro.partition.initial import grow_initial_partition
from repro.partition.level import LevelGraph, edge_cut, level_graph_from_csr
from repro.partition.matching import heavy_edge_matching, matching_to_coarse_map
from repro.partition.refine import (
    balance_ceiling,
    rebalance_assignment,
    refine_assignment,
)

Node = Hashable


@dataclass
class PartitionResult:
    """A (K, ε)-balanced k-way partition of a snapshot.

    ``cells[j]`` lists the node ids of cell ``j``; ``assignment`` maps every
    node id to its cell index; ``edge_cut`` is the total weight of edges
    crossing cells.
    """

    cells: list[list[Node]]
    assignment: dict[Node, int]
    edge_cut: float
    k: int
    eps: float

    @property
    def cell_sizes(self) -> list[int]:
        """Number of nodes in each cell, indexed like ``cells``."""
        return [len(cell) for cell in self.cells]

    def max_imbalance(self, num_nodes: int | None = None) -> float:
        """Largest cell size divided by the perfectly balanced size."""
        total = num_nodes if num_nodes is not None else sum(self.cell_sizes)
        if total == 0 or self.k == 0:
            return 0.0
        return max(self.cell_sizes) / (total / self.k)


def partition_graph(
    graph: Graph | None,
    k: int,
    eps: float = 0.10,
    rng: np.random.Generator | None = None,
    coarsen_factor: int = 4,
    refinement_passes: int = 4,
    csr: CSRAdjacency | None = None,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` balanced cells minimising edge cut.

    Parameters
    ----------
    graph:
        The snapshot to partition (undirected; weights respected in the cut
        objective). May be ``None`` when ``csr`` is given.
    k:
        Requested number of cells. Clamped to ``[1, |V|]``: the paper sets
        ``K = α|V^t|`` which can exceed |V| only for degenerate α.
    eps:
        Balance tolerance of Eq. (2): every cell holds at most
        ``(1 + eps) * |V| / k`` vertices. METIS's default load imbalance is
        ~3%; 10% is forgiving enough for the tiny cells GloDyNE requests
        (|V|/K ≈ 10 nodes per cell at α = 0.1).
    rng:
        Randomness for matching order and seed choice; pass a seeded
        generator for deterministic partitions.
    csr:
        Fast path for callers that already hold the frozen
        :class:`~repro.graph.csr.CSRAdjacency` of ``graph`` (the GloDyNE
        online loop builds exactly one CSR per step and shares it with
        the walk engine). Must describe the same snapshot as ``graph``;
        the result is bit-identical to rebuilding it here.

    Notes
    -----
    Guarantees non-overlap, full cover, non-empty cells, and the Eq. (2)
    ceiling whenever it is feasible (it always is for unit vertex weights
    because ``ceil((1+eps)|V|/k) >= ceil(|V|/k)``).
    """
    if rng is None:
        rng = np.random.default_rng()
    if csr is None:
        if graph is None:
            raise ValueError("pass a graph, a prebuilt csr, or both")
        csr = CSRAdjacency.from_graph(graph)
    n = csr.num_nodes
    if n == 0:
        raise ValueError("cannot partition an empty graph")
    k = max(1, min(int(k), n))
    if eps < 0:
        raise ValueError("eps must be non-negative")

    if k == 1:
        assignment_arr = np.zeros(n, dtype=np.int64)
        return _package(csr, assignment_arr, k, eps)
    if k == n:
        assignment_arr = np.arange(n, dtype=np.int64)
        return _package(csr, assignment_arr, k, eps)

    finest = level_graph_from_csr(csr)

    # ------------------------------------------------------------- coarsen
    levels: list[LevelGraph] = [finest]
    maps: list[np.ndarray] = []  # maps[i]: vertex map from levels[i] -> levels[i+1]
    target = max(coarsen_factor * k, 32)
    total_weight = finest.total_vweight
    # Cap collapsed-vertex weight so the coarsest graph can still satisfy
    # the balance ceiling; 1.5x the average coarse-vertex weight at target
    # size mirrors METIS's maxvwgt heuristic.
    max_vweight = max(2, int(np.ceil(1.5 * total_weight / target)))
    ceiling = balance_ceiling(total_weight, k, eps)
    max_vweight = min(max_vweight, max(2, int(ceiling)))

    current = finest
    while current.num_nodes > target and current.num_nodes >= 2 * k:
        match = heavy_edge_matching(current, rng, max_vweight)
        coarse_of, num_coarse = matching_to_coarse_map(match)
        if num_coarse >= current.num_nodes * 0.98 or num_coarse < k:
            break  # no useful contraction left (or would break feasibility)
        coarse = build_coarse_graph(current, coarse_of, num_coarse)
        levels.append(coarse)
        maps.append(coarse_of)
        current = coarse

    # ----------------------------------------------------- initial partition
    assignment = grow_initial_partition(levels[-1], k, rng)
    assignment = rebalance_assignment(levels[-1], assignment, k, eps)
    assignment = refine_assignment(
        levels[-1], assignment, k, eps, max_passes=refinement_passes
    )

    # ------------------------------------------------------------ uncoarsen
    for level_idx in range(len(levels) - 2, -1, -1):
        coarse_of = maps[level_idx]
        assignment = assignment[coarse_of]  # project to the finer level
        assignment = rebalance_assignment(levels[level_idx], assignment, k, eps)
        assignment = refine_assignment(
            levels[level_idx], assignment, k, eps, max_passes=refinement_passes
        )

    return _package(csr, assignment, k, eps, cut=edge_cut(finest, assignment))


def _package(
    csr: CSRAdjacency,
    assignment: np.ndarray,
    k: int,
    eps: float,
    cut: float | None = None,
) -> PartitionResult:
    """Translate an index assignment into a node-id :class:`PartitionResult`.

    ``cut`` lets callers that already computed the edge cut (the
    incremental partitioner's quality gate) skip rebuilding the level
    graph just to re-derive it.
    """
    cells: list[list[Node]] = [[] for _ in range(k)]
    cell_of = assignment.tolist()
    for node, cell in zip(csr.nodes, cell_of):
        cells[cell].append(node)
    mapping: dict[Node, int] = dict(zip(csr.nodes, cell_of))
    if cut is None:
        level = level_graph_from_csr(csr)
        cut = edge_cut(level, assignment)
    return PartitionResult(
        cells=cells, assignment=mapping, edge_cut=cut, k=k, eps=eps
    )


def validate_partition(result: PartitionResult, graph: Graph) -> list[str]:
    """Return a list of constraint violations (empty list == valid).

    Checks Definition 5's requirements — non-overlap, full cover — plus
    non-emptiness. The Eq. (2) ceiling is reported but tolerated when
    infeasible cells exist (e.g. k close to |V| with eps = 0).
    """
    problems: list[str] = []
    seen: set[Node] = set()
    for j, cell in enumerate(result.cells):
        if not cell:
            problems.append(f"cell {j} is empty")
        overlap = seen.intersection(cell)
        if overlap:
            problems.append(f"cell {j} overlaps earlier cells: {sorted(overlap)[:5]}")
        seen.update(cell)
    missing = graph.node_set() - seen
    if missing:
        problems.append(f"{len(missing)} nodes not covered")
    extra = seen - graph.node_set()
    if extra:
        problems.append(f"{len(extra)} unknown nodes present")

    n = graph.number_of_nodes()
    ceiling = balance_ceiling(n, result.k, result.eps)
    oversized = [
        j for j, cell in enumerate(result.cells) if len(cell) > np.ceil(ceiling)
    ]
    if oversized:
        problems.append(
            f"cells over the (K,eps) ceiling {ceiling:.1f}: {oversized[:5]}"
        )
    return problems
