"""Heavy-edge matching for the coarsening phase.

METIS's coarsening collapses pairs of adjacent vertices; choosing the pair
connected by the heaviest edge (heavy-edge matching, HEM) tends to hide
heavy edges inside coarse vertices so that the refinement phase only has to
reason about light edges. A vertex-weight ceiling keeps collapsed vertices
small enough that the balance constraint (Eq. 2) stays satisfiable on the
coarsest graph.
"""

from __future__ import annotations

import numpy as np

from repro.partition.level import LevelGraph

UNMATCHED = -1


def heavy_edge_matching(
    level: LevelGraph,
    rng: np.random.Generator,
    max_vweight: int,
) -> np.ndarray:
    """Compute a matching; ``match[i]`` is i's partner (or ``i`` if single).

    Vertices are visited in random order. Each unmatched vertex picks its
    heaviest-edge unmatched neighbour whose combined vertex weight stays
    under ``max_vweight``. Ties keep the first heaviest neighbour in CSR
    order, which is the lowest vertex index.
    """
    n = level.num_nodes
    indptr, indices, eweights, vweights = level.lists
    match = [UNMATCHED] * n
    for u in rng.permutation(n).tolist():
        if match[u] != UNMATCHED:
            continue
        best = UNMATCHED
        best_w = -np.inf
        room = max_vweight - vweights[u]
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            if match[v] != UNMATCHED or v == u or vweights[v] > room:
                continue
            if eweights[j] > best_w:
                best_w = eweights[j]
                best = v
        if best == UNMATCHED:
            match[u] = u
        else:
            match[u] = best
            match[best] = u
    return np.asarray(match, dtype=np.int64)


def matching_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Convert a matching into a fine->coarse vertex map.

    Returns ``(coarse_of, num_coarse)`` where matched pairs share one coarse
    id. Coarse ids are assigned in ascending order of the smaller fine id,
    keeping the map deterministic given the matching.
    """
    partners = match.tolist()
    coarse_of = [UNMATCHED] * len(partners)
    next_id = 0
    for u, partner in enumerate(partners):
        if coarse_of[u] != UNMATCHED:
            continue
        coarse_of[u] = next_id
        if partner != u and partner != UNMATCHED:
            coarse_of[partner] = next_id
        next_id += 1
    return np.asarray(coarse_of, dtype=np.int64), next_id
