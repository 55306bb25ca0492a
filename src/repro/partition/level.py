"""Internal working representation for the multilevel partitioner.

Each level of the multilevel hierarchy is a plain CSR graph with vertex
weights (how many original vertices a coarse vertex represents) and edge
weights (sum of the original edge weights collapsed into a coarse edge).
Self-loops created by collapsing are dropped — they never contribute to the
edge cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class LevelGraph:
    """CSR graph with vertex/edge weights used at one coarsening level."""

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.vweights.size)

    @property
    def total_vweight(self) -> int:
        return int(self.vweights.sum())

    def neighbors(self, idx: int) -> np.ndarray:
        return self.indices[self.indptr[idx]: self.indptr[idx + 1]]

    def neighbor_eweights(self, idx: int) -> np.ndarray:
        return self.eweights[self.indptr[idx]: self.indptr[idx + 1]]

    @cached_property
    def lists(self) -> tuple[list[int], list[int], list[float], list[int]]:
        """``(indptr, indices, eweights, vweights)`` as Python lists.

        The partitioner's per-vertex loops index these rather than the
        arrays: indexing a list returns a plain ``int``/``float``, while
        indexing an array boxes a numpy scalar, which costs several times
        more per access. Converted once per level, on first use; a level's
        arrays are never mutated after construction.
        """
        return (
            self.indptr.tolist(),
            self.indices.tolist(),
            self.eweights.tolist(),
            self.vweights.tolist(),
        )


def level_graph_from_csr(csr) -> LevelGraph:
    """Build the finest-level graph from a :class:`CSRAdjacency`.

    Vertex weights start at 1 (every vertex represents itself). Self-loops
    are removed because they cannot be cut.
    """
    n = csr.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    keep = rows != csr.indices
    rows = rows[keep]
    cols = csr.indices[keep]
    wgts = csr.weights[keep]

    order = np.lexsort((cols, rows))
    rows, cols, wgts = rows[order], cols[order], wgts[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return LevelGraph(
        indptr=indptr,
        indices=cols.astype(np.int64),
        eweights=wgts.astype(np.float64),
        vweights=np.ones(n, dtype=np.int64),
    )


def edge_cut(level: LevelGraph, assignment: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different cells.

    ``assignment[i]`` is the cell of vertex ``i``. Each undirected edge is
    stored twice in CSR, so the sum is halved.
    """
    rows = np.repeat(
        np.arange(level.num_nodes, dtype=np.int64), np.diff(level.indptr)
    )
    cut_mask = assignment[rows] != assignment[level.indices]
    return float(level.eweights[cut_mask].sum() / 2.0)


def cell_weights(level: LevelGraph, assignment: np.ndarray, k: int) -> np.ndarray:
    """Total vertex weight per cell (length ``k``)."""
    weights = np.zeros(k, dtype=np.int64)
    np.add.at(weights, assignment, level.vweights)
    return weights
