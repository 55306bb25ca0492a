"""Compare the synthetic serve-knn versions with a real streamed store.

Run from the repository root (about a minute)::

    python3 perfbench/calibrate.py

It streams fbw-sim x8 through ``StreamingGloDyNE`` at d=64 with a flush
per 300 events, publishing into an ``EmbeddingStore``, then prints the
same geometry and churn statistics for the second half of those
versions and for ``perfbench.synthetic``. The synthetic constants are
chosen so the two columns agree; ``perfbench/README.md`` records the
last output.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import synthetic  # noqa: E402

#: Moves below this max-abs change are not re-indexed by the service.
TOLERANCE = 1e-7


def churn_and_geometry(versions: list[tuple[list, np.ndarray]]) -> dict:
    """Churn between consecutive versions and geometry of the last one."""
    moved, relative, added = [], [], []
    for (old_nodes, old), (new_nodes, new) in zip(versions, versions[1:]):
        row_of = {node: i for i, node in enumerate(new_nodes)}
        rows = np.array([row_of[node] for node in old_nodes])
        delta = new[rows].astype(np.float64) - old
        changed = np.abs(delta).max(axis=1) > TOLERANCE
        moved.append(changed.mean())
        norms = np.linalg.norm(old[changed], axis=1)
        relative.extend(np.linalg.norm(delta[changed], axis=1) / norms)
        added.append(len(new_nodes) - len(old_nodes))
    final = versions[-1][1].astype(np.float64)
    unit = final / np.linalg.norm(final, axis=1, keepdims=True)
    rng = np.random.default_rng(0)
    sample = rng.choice(len(unit), size=min(400, len(unit)), replace=False)
    cosines = unit[sample] @ unit.T
    cosines[np.arange(sample.size), sample] = -np.inf
    top10 = np.sort(cosines, axis=1)[:, -10:]
    pairs = rng.integers(0, len(unit), size=(5000, 2))
    return {
        "rows (last version)": len(final),
        "moved share per version": float(np.mean(moved)),
        "relative move of moved rows (median)": float(np.median(relative)),
        "nodes added per version": float(np.mean(added)),
        "row norm (median)": float(np.median(np.linalg.norm(final, axis=1))),
        "top-10 cosine (mean)": float(top10.mean()),
        "random-pair cosine (mean)": float(
            np.mean(np.sum(unit[pairs[:, 0]] * unit[pairs[:, 1]], axis=1))
        ),
    }


def real_versions() -> list[tuple[list, np.ndarray]]:
    from repro import EmbeddingStore, StreamingGloDyNE
    from repro.datasets import load_dataset
    from repro.streaming import FlushPolicy, network_to_events

    network = load_dataset("fbw-sim", scale=8.0, seed=0, snapshots=12)
    store = EmbeddingStore()
    engine = StreamingGloDyNE(
        seed=0, policy=FlushPolicy(max_events=300), publish_to=store,
        dim=64, alpha=0.1, num_walks=1, walk_length=10, window_size=2,
        epochs=1,
    )
    engine.ingest_many(network_to_events(network))
    half = store.num_versions // 2
    return [
        (list(store.version(v).nodes), np.asarray(store.version(v).matrix))
        for v in range(half, store.num_versions)
    ]


def synthetic_versions() -> list[tuple[list, np.ndarray]]:
    generated = synthetic.generate(seed=0, num_nodes=4000, dim=64, num_versions=20)
    return [
        (list(range(len(matrix))), matrix)
        for matrix in [generated.base, *generated.versions]
    ]


def main() -> int:
    real = churn_and_geometry(real_versions())
    synth = churn_and_geometry(synthetic_versions())
    width = max(map(len, real))
    print(f"{'statistic':<{width}}  {'real':>10}  {'synthetic':>10}")
    for key in real:
        print(f"{key:<{width}}  {real[key]:>10.4g}  {synth[key]:>10.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
