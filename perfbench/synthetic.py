"""The synthetic embedding versions serve-knn serves.

Serving must see byte-identical inputs on every commit, so its store is
generated, not trained. A row is a direction shared by all rows, plus its
community's centroid, plus noise; each version re-draws the noise of a
fixed share of rows a little (an AR(1) step) and appends a few new
nodes. The constants below were fitted with ``perfbench/calibrate.py``
against a real ``StreamingGloDyNE`` store (fbw-sim x8, d=64, flush per
300 events); its output is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Ground-truth communities; same-community pairs are the "edges" the
#: serve-knn quality metrics score against.
COMMUNITIES = 64
#: Per-coordinate standard deviations of the shared direction, the
#: community centroids and the per-row noise.
SHARED = 0.53
CENTROID = 0.38
NOISE = 0.74
#: Share of rows a version moves, and the correlation of a moved row's
#: noise with its previous noise (an AR(1) step, so the geometry stays
#: stationary however many versions are published).
MOVE_FRACTION = 0.5
MOVE_RHO = 0.9975
#: Nodes each version appends.
ADDED_PER_VERSION = 25
#: Overall scale, matching the real store's median row norm.
SCALE = 0.0058


@dataclass
class Synthetic:
    """A base version, the versions published after it, and labels."""

    base: np.ndarray
    versions: list[np.ndarray]
    labels: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.versions[-1] if self.versions else self.base


def generate(seed: int, num_nodes: int, dim: int, num_versions: int) -> Synthetic:
    """Seeded base matrix plus ``num_versions`` successor matrices.

    Node ``i`` is row ``i`` of every version that has it; version ``v``
    has ``num_nodes + (v + 1) * ADDED_PER_VERSION`` rows.
    """
    rng = np.random.default_rng([seed, 2])
    total = num_nodes + num_versions * ADDED_PER_VERSION
    labels = rng.integers(0, COMMUNITIES, size=total)
    shared = SHARED * rng.standard_normal(dim)
    centroids = shared + CENTROID * rng.standard_normal((COMMUNITIES, dim))

    def noise(count: int) -> np.ndarray:
        return NOISE * rng.standard_normal((count, dim))

    residual = noise(num_nodes)
    base = (SCALE * (centroids[labels[:num_nodes]] + residual)).astype(np.float32)
    versions = []
    for _ in range(num_versions):
        rows = residual.shape[0]
        moved = np.flatnonzero(rng.random(rows) < MOVE_FRACTION)
        residual[moved] = (
            MOVE_RHO * residual[moved]
            + np.sqrt(1.0 - MOVE_RHO**2) * noise(moved.size)
        )
        residual = np.vstack([residual, noise(ADDED_PER_VERSION)])
        rows = residual.shape[0]
        versions.append(
            (SCALE * (centroids[labels[:rows]] + residual)).astype(np.float32)
        )
    return Synthetic(base=base, versions=versions, labels=labels)
