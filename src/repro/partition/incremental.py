"""Incremental maintenance of Step 1's (K, ε)-balanced partition.

GloDyNE's online loop re-ran the full multilevel partitioner
(:func:`repro.partition.metis.partition_graph`) at every snapshot —
O(E) coarsening, initial partitioning, and refinement in per-vertex
Python loops — even when the streaming layer already knows the delta is
a handful of edges. :class:`IncrementalPartitioner` keeps the partition
*alive* across snapshots instead:

* graph deltas are applied to the stored assignment: new nodes join
  their best-connected adjacent cell, vanished nodes drop out, cells
  emptied by churn are compacted away;
* K = α·|V^t| drift is absorbed structurally — the largest cells are
  split by an in-cell BFS halving, the smallest merged into their
  best-connected neighbour cell;
* boundary Kernighan-Lin refinement (the same moves the full
  partitioner runs over every vertex at every level) is restricted to
  *dirty* vertices: the touched set handed in by the caller, new nodes,
  drift casualties, and their one-hop neighbourhoods. Rebalancing runs
  first and drains any cell over the Eq. (2) ceiling, dirty or not;
* a quality gate compares the maintained edge cut against the last full
  rebuild and checks the Eq. (2) ceiling; degradation beyond the slack
  (or an unrepairable imbalance) falls back to a full
  ``partition_graph`` rebuild.

Both paths run their per-vertex loops over Python lists taken once per
level (:attr:`LevelGraph.lists`), not over numpy scalars. A maintained
step costs O(E) of whole-array work (one level-graph build, its list
conversion and one edge-cut reduction) plus O(|dirty| · degree) of
Python loop work per refinement pass. A full rebuild instead pays
O(E) Python loop work at every coarsening level, where matching and
the first refinement pass each visit every vertex.
``benchmarks/bench_incremental_partition.py`` measures the gap: on a
5,000-node drift with 150 changed edges per step, 16 ms against 77 ms
per step on a 2-vCPU x86-64 host (CPython 3.11, numpy 2.4).

Determinism contract
--------------------
Incremental steps consume no randomness at all, so a partitioner's
state is a pure function of its construction seed and the sequence of
``(csr, k, touched)`` calls. The ``i``-th full rebuild (0-based,
counting the initial one) of a partitioner constructed — or reset —
with ``seed`` draws its RNG from :meth:`IncrementalPartitioner.rebuild_rng`
``(seed, i)`` and is bit-identical to calling
``partition_graph(..., rng=rebuild_rng(seed, i), csr=csr)`` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.static import Graph
from repro.partition.level import LevelGraph, edge_cut, level_graph_from_csr
from repro.partition.metis import PartitionResult, _package, partition_graph
from repro.partition.refine import (
    balance_ceiling,
    rebalance_assignment,
    refine_assignment,
)

Node = Hashable

UNASSIGNED = -1


class IncrementalPartitioner:
    """Owns the Step 1 partition across snapshots, applying deltas in place.

    Parameters
    ----------
    eps:
        Eq. (2) balance tolerance, as in :func:`partition_graph`.
    seed:
        Seeds the rebuild RNG stream (see the module's determinism
        contract). Incremental steps themselves are deterministic.
    cut_slack:
        Relative edge-cut degradation tolerated before the quality gate
        forces a full rebuild: the maintained cut ratio (cut / total
        edge weight) may grow to ``baseline * (1 + cut_slack) +
        cut_floor`` where ``baseline`` was measured at the last rebuild.
    cut_floor:
        Additive slack keeping the gate usable when the baseline cut is
        (near) zero — e.g. disjoint cliques partition with cut 0, and a
        single new cross edge must not force a rebuild.
    refinement_passes:
        KL pass budget per call, forwarded to the full rebuild too.
    """

    def __init__(
        self,
        eps: float = 0.10,
        seed: int | None = None,
        cut_slack: float = 0.5,
        cut_floor: float = 0.02,
        refinement_passes: int = 4,
        coarsen_factor: int = 4,
    ) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        if cut_slack < 0 or cut_floor < 0:
            raise ValueError("cut_slack and cut_floor must be non-negative")
        self.eps = eps
        self.cut_slack = cut_slack
        self.cut_floor = cut_floor
        self.refinement_passes = refinement_passes
        self.coarsen_factor = coarsen_factor
        self._seed = seed
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the maintained partition; the next call fully rebuilds.

        Also restarts the rebuild RNG stream, so a reset partitioner
        reproduces a freshly constructed one exactly.
        """
        self._seed_seq = np.random.SeedSequence(self._seed)
        self._assignment: dict[Node, int] | None = None
        self._k = 0
        self._baseline_ratio: float | None = None
        self.num_rebuilds = 0
        self.num_incremental = 0
        self.last_reason: str | None = None

    @staticmethod
    def rebuild_rng(seed: int | None, index: int) -> np.random.Generator:
        """RNG driving the ``index``-th (0-based) full rebuild under ``seed``.

        The determinism hook tests pin: a partitioner's fallback rebuild
        is bit-identical to ``partition_graph(..., rng=rebuild_rng(seed,
        index), csr=csr)``. Only meaningful for a non-None seed.
        """
        return np.random.default_rng(
            np.random.SeedSequence(seed).spawn(index + 1)[index]
        )

    # ------------------------------------------------------------------
    def partition(
        self,
        graph: Graph | None,
        k: int,
        *,
        csr: CSRAdjacency | None = None,
        touched: Iterable[Node] | None = None,
    ) -> PartitionResult:
        """Return the maintained (K, ε) partition of the current snapshot.

        Parameters
        ----------
        graph, csr:
            The snapshot, as a :class:`Graph` and/or its frozen CSR.
            Pass ``csr`` whenever one already exists for the step — the
            online loop shares a single CSR between this partitioner and
            the walk engine.
        k:
            Requested cell count (clamped to ``[1, |V|]`` like
            :func:`partition_graph`).
        touched:
            Node ids whose incident topology may have changed since the
            previous call — the streaming layer's accumulated
            touched-node set, or ``set(changes)`` in snapshot mode. Ids
            no longer present are ignored. ``None`` means "unknown" and
            refines every vertex (correct, but slower).
        """
        if csr is None:
            if graph is None:
                raise ValueError("pass a graph, a prebuilt csr, or both")
            csr = CSRAdjacency.from_graph(graph)
        n = csr.num_nodes
        if n == 0:
            raise ValueError("cannot partition an empty graph")
        k = max(1, min(int(k), n))

        if self._assignment is None:
            return self._full_rebuild(csr, k, reason="initial")

        if k == 1 or k == n:
            # Trivial exact partitions — adopt directly (no randomness),
            # mirroring partition_graph's shortcuts.
            assignment = (
                np.zeros(n, dtype=np.int64)
                if k == 1
                else np.arange(n, dtype=np.int64)
            )
            result = _package(csr, assignment, k, self.eps)
            self._commit(csr, assignment, k, result.edge_cut)
            return result

        level = level_graph_from_csr(csr)
        assignment = np.fromiter(
            (self._assignment.get(node, UNASSIGNED) for node in csr.nodes),
            dtype=np.int64,
            count=n,
        )
        if not (assignment >= 0).any():
            return self._full_rebuild(csr, k, reason="disjoint")

        dirty: set[int] = set(np.flatnonzero(assignment < 0).tolist())
        if touched is None:
            dirty.update(range(n))
        else:
            index_of = csr.index_of
            for node in touched:
                idx = index_of.get(node)
                if idx is not None:
                    dirty.add(idx)

        assignment, counts = _compact_cells(assignment)
        self._attach_new_nodes(level, assignment, counts, n, k)
        self._drift_to_k(level, assignment, counts, k, dirty)

        assignment = rebalance_assignment(level, assignment, k, self.eps)
        candidates = _expand_candidates(level, dirty)
        assignment = refine_assignment(
            level, assignment, k, self.eps,
            max_passes=self.refinement_passes, candidates=candidates,
        )

        counts = np.bincount(assignment, minlength=k)
        ceiling = balance_ceiling(n, k, self.eps)
        if counts.min() == 0:
            return self._full_rebuild(csr, k, reason="empty-cell")
        if counts.max() > np.ceil(ceiling):
            return self._full_rebuild(csr, k, reason="imbalance")
        cut = edge_cut(level, assignment)
        ratio = self._ratio(cut, float(level.eweights.sum()) / 2.0)
        if (
            self._baseline_ratio is not None
            and ratio
            > self._baseline_ratio * (1.0 + self.cut_slack) + self.cut_floor
        ):
            return self._full_rebuild(csr, k, reason="cut-degraded")

        self._commit(csr, assignment, k, cut)
        return _package(csr, assignment, k, self.eps, cut=cut)

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def _attach_new_nodes(
        self,
        level: LevelGraph,
        assignment: np.ndarray,
        counts: list[int],
        n: int,
        k: int,
    ) -> None:
        """Assign every ``UNASSIGNED`` vertex to its best adjacent cell.

        Processed in index order so that a cluster of new nodes attaches
        deterministically (later ones see earlier ones' cells). Falls
        back to the globally lightest cell for isolated newcomers or
        when every adjacent cell sits at the Eq. (2) ceiling.
        """
        ceiling = balance_ceiling(n, k, self.eps)
        indptr, indices, eweights, _ = level.lists
        cells = assignment.tolist()
        for u in np.flatnonzero(assignment < 0).tolist():
            link: dict[int, float] = {}
            for j in range(indptr[u], indptr[u + 1]):
                cell = cells[indices[j]]
                if cell >= 0:
                    link[cell] = link.get(cell, 0.0) + eweights[j]
            best = UNASSIGNED
            best_link = 0.0
            for cell in sorted(link):
                if counts[cell] + 1 > ceiling:
                    continue
                if link[cell] > best_link:
                    best_link = link[cell]
                    best = cell
            if best == UNASSIGNED:
                best = min(range(len(counts)), key=lambda c: (counts[c], c))
            cells[u] = best
            assignment[u] = best
            counts[best] += 1

    def _drift_to_k(
        self,
        level: LevelGraph,
        assignment: np.ndarray,
        counts: list[int],
        k: int,
        dirty: set[int],
    ) -> None:
        """Split / merge cells in place until exactly ``k`` remain."""
        while len(counts) > k:
            self._merge_smallest(level, assignment, counts, dirty)
        while len(counts) < k:
            self._split_largest(level, assignment, counts, dirty)

    def _merge_smallest(
        self,
        level: LevelGraph,
        assignment: np.ndarray,
        counts: list[int],
        dirty: set[int],
    ) -> None:
        """Fold the smallest cell into its best-connected neighbour cell."""
        src = min(range(len(counts)), key=lambda c: (counts[c], c))
        members = np.flatnonzero(assignment == src)
        indptr, indices, eweights, _ = level.lists
        cells = assignment.tolist()
        link: dict[int, float] = {}
        for u in members.tolist():
            for j in range(indptr[u], indptr[u + 1]):
                cell = cells[indices[j]]
                if cell != src:
                    link[cell] = link.get(cell, 0.0) + eweights[j]
        if link:
            target = min(link, key=lambda c: (-link[c], c))
        else:  # isolated component: merge into the lightest other cell
            target = min(
                (c for c in range(len(counts)) if c != src),
                key=lambda c: (counts[c], c),
            )
        assignment[members] = target
        counts[target] += counts[src]
        dirty.update(members.tolist())
        # Free slot `src` by relabelling the last cell into it.
        last = len(counts) - 1
        if src != last:
            assignment[assignment == last] = src
            counts[src] = counts[last]
        counts.pop()

    def _split_largest(
        self,
        level: LevelGraph,
        assignment: np.ndarray,
        counts: list[int],
        dirty: set[int],
    ) -> None:
        """Carve a connected half out of the largest cell into a new cell."""
        src = min(
            (c for c in range(len(counts)) if counts[c] >= 2),
            key=lambda c: (-counts[c], c),
        )
        members = np.flatnonzero(assignment == src).tolist()
        member_set = set(members)
        target_size = len(member_set) // 2
        new_cell = len(counts)
        indptr, indices, _, _ = level.lists
        collected: list[int] = []
        visited: set[int] = set()
        queue: deque[int] = deque([members[0]])
        while len(collected) < target_size:
            if not queue:
                remaining = sorted(member_set - visited)
                if not remaining:
                    break
                queue.append(remaining[0])  # disconnected inside the cell
            u = queue.popleft()
            if u in visited:
                continue
            visited.add(u)
            collected.append(u)
            for v in indices[indptr[u]: indptr[u + 1]]:
                if v in member_set and v not in visited:
                    queue.append(v)
        assignment[collected] = new_cell
        counts[src] -= len(collected)
        counts.append(len(collected))
        dirty.update(member_set)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _ratio(cut: float, total: float) -> float:
        """Normalised cut: fraction of total (loop-free) edge weight cut."""
        return cut / total if total > 0 else 0.0

    def _commit(
        self, csr: CSRAdjacency, assignment: np.ndarray, k: int, cut: float
    ) -> None:
        """Store the incremental result as the new maintained state."""
        self._assignment = dict(zip(csr.nodes, assignment.tolist()))
        self._k = k
        self.num_incremental += 1
        self.last_reason = "incremental"

    def _full_rebuild(
        self, csr: CSRAdjacency, k: int, reason: str
    ) -> PartitionResult:
        """Fallback: fresh multilevel partition, new quality baseline."""
        rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        result = partition_graph(
            None,
            k,
            eps=self.eps,
            rng=rng,
            coarsen_factor=self.coarsen_factor,
            refinement_passes=self.refinement_passes,
            csr=csr,
        )
        self.num_rebuilds += 1
        self.last_reason = reason
        self._assignment = dict(result.assignment)
        self._k = result.k
        # Loop-free total weight straight from the CSR — no need to pay
        # a second level-graph construction just for the baseline.
        rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
        total = float(csr.weights[rows != csr.indices].sum()) / 2.0
        self._baseline_ratio = self._ratio(result.edge_cut, total)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IncrementalPartitioner(k={self._k}, eps={self.eps}, "
            f"rebuilds={self.num_rebuilds}, incremental={self.num_incremental})"
        )


def _compact_cells(assignment: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Relabel surviving cells to ``0..m-1`` (order-preserving), drop empties.

    Node churn can empty a cell entirely (every member removed from the
    snapshot); ``validate_partition`` forbids empty cells, so compaction
    runs before the K-drift logic restores the requested cell count.
    ``UNASSIGNED`` entries pass through untouched. Returns the relabelled
    assignment and the per-cell member counts.
    """
    known = assignment >= 0
    used = np.unique(assignment[known])
    remap = np.full(int(used.max()) + 1 if used.size else 0, UNASSIGNED,
                    dtype=np.int64)
    remap[used] = np.arange(used.size)
    assignment[known] = remap[assignment[known]]
    counts = np.bincount(assignment[known], minlength=used.size)
    return assignment, [int(c) for c in counts]


def _expand_candidates(
    level: LevelGraph, dirty: set[int]
) -> np.ndarray | None:
    """Dirty vertices plus their one-hop neighbourhood, sorted.

    Returns ``None`` when every vertex is dirty anyway — the full sweep
    inside :func:`refine_assignment` is cheaper than materialising it.
    """
    if not dirty:
        return np.empty(0, dtype=np.int64)
    if len(dirty) >= level.num_nodes:
        return None
    indptr, indices, _, _ = level.lists
    expanded = set(dirty)
    for u in dirty:
        expanded.update(indices[indptr[u]: indptr[u + 1]])
    return np.array(sorted(expanded), dtype=np.int64)
