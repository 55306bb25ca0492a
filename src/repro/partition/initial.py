"""Initial K-way partition on the coarsest graph (greedy region growing).

METIS applies a K-way partition on the smallest abstract network; we use
greedy graph growing: grow one cell at a time by BFS from a fresh seed,
stopping when the cell reaches its weight budget, preferring frontier
vertices with strong connectivity into the growing cell (a GGGP-style
gain). Disconnected graphs are handled naturally — when the frontier
empties, a new seed is drawn from the unassigned set.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.level import LevelGraph

UNASSIGNED = -1


def grow_initial_partition(
    level: LevelGraph,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assign every vertex of ``level`` to one of ``k`` cells.

    Guarantees: every vertex gets a cell in ``[0, k)``; every cell is
    non-empty provided ``level.num_nodes >= k``. Balance is targeted at
    ``total_weight / k`` per cell and later enforced by refinement.
    """
    n = level.num_nodes
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"cannot cut {n} vertices into {k} non-empty cells")

    indptr, indices, eweights, vweights = level.lists
    assignment = [UNASSIGNED] * n
    total_weight = level.total_vweight
    # Budget per cell; remaining cells absorb rounding. Cells stop growing
    # at their budget, and the final cell takes everything left over.
    budget = total_weight / k

    unassigned = set(range(n))
    visit_order = rng.permutation(n).tolist()
    order_cursor = 0
    lowest = 0  # no index below this one is unassigned

    for cell in range(k):
        if not unassigned:
            break
        cells_left = k - cell
        if len(unassigned) <= cells_left:
            # Exactly enough vertices left: one per remaining cell, seeded
            # deterministically from the unassigned pool.
            for extra_cell, vertex in zip(
                range(cell, k), sorted(unassigned)
            ):
                assignment[vertex] = extra_cell
            unassigned.clear()
            break

        # Fresh seed: next unassigned vertex in the random visit order.
        while assignment[visit_order[order_cursor]] != UNASSIGNED:
            order_cursor += 1
        seed = visit_order[order_cursor]

        cell_weight = 0
        # Max-heap on gain (edge weight into the cell); heapq is a min-heap
        # so gains are negated. Entries may be stale; staleness is checked
        # on pop via the assignment list.
        frontier: list[tuple[float, int]] = [(0.0, seed)]
        is_last_cell = cell == k - 1
        while frontier or is_last_cell:
            if not frontier:
                if not unassigned:
                    break
                # Disconnected remainder: re-seed within the same cell
                # from the lowest unassigned index.
                while assignment[lowest] != UNASSIGNED:
                    lowest += 1
                frontier.append((0.0, lowest))
            _, vertex = heapq.heappop(frontier)
            if assignment[vertex] != UNASSIGNED:
                continue
            # Keep at least one vertex per remaining cell.
            if len(unassigned) <= (k - cell - 1):
                break
            assignment[vertex] = cell
            unassigned.discard(vertex)
            cell_weight += vweights[vertex]
            if not is_last_cell and cell_weight >= budget:
                break
            for j in range(indptr[vertex], indptr[vertex + 1]):
                nbr = indices[j]
                if assignment[nbr] == UNASSIGNED:
                    heapq.heappush(frontier, (-eweights[j], nbr))

    # Any stragglers (possible when budgets fill early): round-robin them
    # into the lightest cells (lowest index on ties).
    if unassigned:
        weights = [0] * k
        for cell, weight in zip(assignment, vweights):
            if cell != UNASSIGNED:
                weights[cell] += weight
        for vertex in sorted(unassigned):
            lightest = min(range(k), key=weights.__getitem__)
            assignment[vertex] = lightest
            weights[lightest] += vweights[vertex]

    # Non-emptiness repair: steal a vertex from the heaviest cell for any
    # empty cell (can only happen on adversarial weight distributions).
    result = np.asarray(assignment, dtype=np.int64)
    counts = np.bincount(result, minlength=k)
    for cell in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        movable = np.flatnonzero(result == donor)
        result[movable[0]] = cell
        counts[donor] -= 1
        counts[cell] += 1
    return result
