"""Boundary refinement under the (K, ε) balance constraint.

During uncoarsening METIS swaps boundary vertices between neighbouring
cells to reduce the edge cut (Kernighan-Lin / Fiduccia-Mattheyses style).
This implementation performs greedy single-vertex moves: for every boundary
vertex compute the best gain of moving it to an adjacent cell, apply the
move when the gain is positive and the balance constraint of Eq. (2)

    |V_k| <= (1 + eps) * |V| / K          for all cells k

remains satisfied (and the source cell stays non-empty). Several passes run
until no improving move exists or the pass budget is exhausted.
"""

from __future__ import annotations

import numpy as np

from repro.partition.level import LevelGraph, cell_weights


def balance_ceiling(total_weight: int, k: int, eps: float) -> float:
    """Maximum allowed cell weight under Eq. (2), integer-feasible.

    The raw bound ``(1 + eps) * W / k`` can be infeasible for integral
    cell sizes (e.g. W=23, k=7, eps=0.1 gives 3.61, but seven cells of
    three vertices only hold 21); rounding up — and never below the
    pigeonhole minimum ``ceil(W / k)`` — restores feasibility while
    keeping the spirit of the constraint.
    """
    raw = (1.0 + eps) * total_weight / k
    return max(float(np.ceil(raw)), float(np.ceil(total_weight / k)))


def refine_assignment(
    level: LevelGraph,
    assignment: np.ndarray,
    k: int,
    eps: float,
    max_passes: int = 4,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy boundary refinement; mutates and returns ``assignment``.

    ``candidates`` restricts the vertices considered for moves (the
    incremental partitioner's dirty set), swept in the given order;
    ``None`` sweeps every vertex in index order, which is the full
    multilevel path. A vertex moves to the adjacent cell with the
    largest positive gain that stays under the Eq. (2) ceiling (first
    such cell in neighbour order on ties), unless it is the last member
    of its cell.
    """
    n = level.num_nodes
    if n == 0:
        return assignment
    if candidates is None:
        sweep = range(n)
    else:
        sweep = np.asarray(candidates, dtype=np.int64).tolist()
    ceiling = balance_ceiling(level.total_vweight, k, eps)
    indptr, indices, eweights, vweights = level.lists
    cells = assignment.tolist()
    weights = cell_weights(level, assignment, k).tolist()
    counts = np.bincount(assignment, minlength=k).tolist()
    # settled[u]: u has no positive-gain cell, and none of its neighbours
    # has moved since that was found. Its connectivity is then unchanged,
    # so re-examining it would find no move either; skipping it keeps
    # every pass's moves exactly as a full re-scan would make them.
    settled = [False] * n

    for _ in range(max_passes):
        moved = 0
        for u in sweep:
            if settled[u]:
                continue
            start, end = indptr[u], indptr[u + 1]
            src = cells[u]
            # Connectivity of u to each adjacent cell.
            link: dict[int, float] = {}
            for v, w in zip(indices[start:end], eweights[start:end]):
                cell = cells[v]
                link[cell] = link.get(cell, 0.0) + w
            if len(link) <= 1 and (not link or src in link):
                settled[u] = True  # interior (or isolated) vertex
                continue
            if counts[src] <= 1:
                continue  # keep every cell non-empty
            internal = link.get(src, 0.0)

            best_cell = src
            best_gain = 0.0
            u_weight = vweights[u]
            settled[u] = True
            for cell, external in link.items():
                if cell == src:
                    continue
                gain = external - internal
                if gain <= best_gain:
                    continue
                settled[u] = False  # a move may open up as weights shift
                if weights[cell] + u_weight > ceiling:
                    continue
                best_gain = gain
                best_cell = cell

            if best_cell != src:
                cells[u] = best_cell
                weights[src] -= u_weight
                weights[best_cell] += u_weight
                counts[src] -= 1
                counts[best_cell] += 1
                moved += 1
                for v in indices[start:end]:
                    settled[v] = False
        if moved == 0:
            break
    assignment[:] = cells
    return assignment


def rebalance_assignment(
    level: LevelGraph,
    assignment: np.ndarray,
    k: int,
    eps: float,
) -> np.ndarray:
    """Push overweight cells under the Eq. (2) ceiling; mutates and returns.

    Overweight cells are drained in index order. Each moves its members,
    fewest internal connections first (ties in index order), into the
    globally lightest cell (lowest index on ties) until it fits under the
    ceiling, would be left empty, or the lightest cell has no room. Cut
    quality is secondary here — a following :func:`refine_assignment`
    pass cleans up.
    """
    ceiling = balance_ceiling(level.total_vweight, k, eps)
    weights = cell_weights(level, assignment, k)
    overweight = np.flatnonzero(weights > ceiling).tolist()
    if not overweight:
        return assignment
    indptr, indices, eweights, vweights = level.lists
    cells = assignment.tolist()
    counts = np.bincount(assignment, minlength=k).tolist()
    # Only cells that still sit under the ceiling receive vertices, so an
    # overweight cell keeps exactly these members (and every neighbour
    # outside it stays outside) until its own turn comes.
    members: dict[int, list[int]] = {cell: [] for cell in overweight}
    for v, cell in enumerate(cells):
        if cell in members:
            members[cell].append(v)

    for cell in overweight:
        # Cheapest-to-move first: fewest internal connections. numpy sums
        # pairwise, so a plain Python loop would round differently on long
        # neighbour lists and could reorder near-ties.
        def internal_weight(v: int) -> float:
            start, end = indptr[v], indptr[v + 1]
            return float(
                np.sum(
                    [
                        w
                        for x, w in zip(indices[start:end], eweights[start:end])
                        if cells[x] == cell
                    ],
                    dtype=np.float64,
                )
            )

        for v in sorted(members[cell], key=internal_weight):
            if weights[cell] <= ceiling or counts[cell] <= 1:
                break
            target = int(np.argmin(weights))
            if target == cell:
                break
            v_weight = vweights[v]
            if weights[target] + v_weight > ceiling:
                break  # nowhere to put it without a new violation
            assignment[v] = target
            weights[cell] -= v_weight
            weights[target] += v_weight
            counts[cell] -= 1
            counts[target] += 1
    return assignment
