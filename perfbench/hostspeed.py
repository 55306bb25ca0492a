"""How fast the host runs right now, timed on fixed reference work.

On a shared host the same code runs 20-50% slower for minutes at a time
(no steal time shows; CPU time grows with wall time). The trainer
workloads time interpreter- and numpy-bound library code, so their raw
times follow those swings from run to run. Each trainer run therefore
times this reference between its timed sections and scales its time
metrics by ``NOMINAL_S / median(reference time)``: a time reads as it
would on the host at the speed where the reference takes ``NOMINAL_S``.
The reference is the benchmark's own code, so no change to the library
moves it; the raw times stay in each run's details.

The reference mixes the three kinds of work the trainers do: a
pure-Python graph walk (selection and partition), small numpy calls
(queries, bookkeeping) and one SGNS-shaped numpy batch (training). What
scaling by it did to the spread of each metric is tabled in
``perfbench/README.md``.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: Reference time of the host at its nominal speed (the median on the
#: 2-core host the benchmark was recorded on, in a calm stretch).
NOMINAL_S = 0.0225


class HostSpeed:
    """Times the reference work; ``factor()`` turns its times into a scale."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.adjacency = {
            node: [(node * 31 + j * 17) % 3000 for j in range(4)] for node in range(3000)
        }
        self.small_rows = rng.integers(0, 256, size=(32, 128))
        self.small_grad = rng.random((128, 32))
        self.small_weights = rng.random((256, 32))
        self.w_in = rng.random((4000, 64)) * 0.01
        self.w_out = rng.random((4000, 64)) * 0.01
        self.centers = rng.integers(0, 4000, 2048)
        self.contexts = rng.integers(0, 4000, 2048)
        self.negatives = rng.integers(0, 4000, (2048, 5))
        for _ in range(3):  # first runs pay for page faults and cold caches
            self.probe()

    def probe(self) -> float:
        """Run the reference once; returns its seconds."""
        started = time.perf_counter()
        self._interpreter()
        self._small_numpy()
        self._batch_numpy()
        return time.perf_counter() - started

    @staticmethod
    def factor(samples: list[float]) -> float:
        """``NOMINAL_S`` over the median of the reference times ``samples``."""
        return NOMINAL_S / median(samples)

    def _interpreter(self) -> None:
        counts: dict[int, int] = {}
        for i in range(4000):
            key = (i * 7919) % 211
            counts[key] = counts.get(key, 0) + i
        seen = {0}
        frontier = [0]
        while frontier:
            reached = []
            for node in frontier:
                for neighbor in self.adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        reached.append(neighbor)
            frontier = reached

    def _small_numpy(self) -> None:
        out = np.zeros_like(self.small_weights)
        for rows in self.small_rows:
            scores = np.einsum("ij,ij->i", self.small_weights[rows], self.small_grad)
            np.add.at(out, rows, self.small_grad * scores[:, None])

    def _batch_numpy(self) -> None:
        w_in, w_out = self.w_in.copy(), self.w_out.copy()
        h = w_in[self.centers]
        u_pos = w_out[self.contexts]
        u_neg = w_out[self.negatives]
        g_pos = 1.0 / (1.0 + np.exp(-np.einsum("ij,ij->i", h, u_pos))) - 1.0
        g_neg = 1.0 / (1.0 + np.exp(-np.einsum("ij,ikj->ik", h, u_neg)))
        grad_h = g_pos[:, None] * u_pos + (g_neg[:, :, None] * u_neg).sum(axis=1)
        np.add.at(w_in, self.centers, -0.025 * grad_h)
        np.add.at(
            w_out, self.negatives.ravel(),
            (-0.025 * (g_neg[:, :, None] * h[:, None, :])).reshape(-1, h.shape[1]),
        )
