"""The benchmark's constants, and its declaration read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the only declaration of the workloads, the reason
for each, and every metric with its unit, direction and bound; this
module loads it and adds the workloads' sizes. Every workload emits every
metric; where a metric's natural definition belongs to another workload,
the workload measures its nearest analogue, as the table in
``perfbench/README.md`` states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"

#: Fixed seed of every quality evaluation (link-prediction test sets),
#: so ``lp_auc`` repeats exactly for a given workload seed.
EVAL_SEED = 20220509

#: A kNN answer slower than this (or failed) misses the latency limit.
KNN_LATENCY_LIMIT_MS = 100.0

#: serve-knn is rejected when its load generator ran later than this
#: at p99: the open loop was then no longer open.
GENERATOR_LAG_LIMIT_MS = 5.0


@dataclass(frozen=True)
class Metric:
    """One declared metric: name, unit, direction and regression bound."""

    name: str
    unit: str
    better: str
    bound: float | None = None


MANIFEST = json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))
END_TO_END = tuple(Metric(**entry) for entry in MANIFEST["end_to_end"])
PER_LAYER = tuple(Metric(**entry) for entry in MANIFEST["per_layer"])
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
#: Seconds one run measures, unless ``--seconds`` says otherwise.
RUN_SECONDS = MANIFEST["run_seconds"]


#: Sizes of each workload: ``full`` is what the benchmark measures,
#: ``tiny`` the seconds-long smoke size the tests run. ``setup_s`` is the
#: median of ``setup_repeats`` set-ups (more where a set-up is cheap). The names and the
#: reason for each workload are declared in ``BENCHMARK.json``.
WORKLOADS = {
    "snapshot-hepph": {
        "full": dict(
            dataset="hepph-sim", data_seed=0, scale=1.0, snapshots=10, dim=64,
            alpha=0.1, num_walks=10, walk_length=40, window_size=5,
            epochs=1, queries_per_version=256, pass_seconds=15.0,
            setup_repeats=11,
        ),
        "tiny": dict(
            dataset="hepph-sim", data_seed=0, scale=0.3, snapshots=3, dim=8,
            alpha=0.1, num_walks=2, walk_length=8, window_size=2,
            epochs=1, queries_per_version=8, pass_seconds=1.0,
            setup_repeats=2,
        ),
    },
    "stream-fbw": {
        "full": dict(
            dataset="fbw-sim", data_seed=0, scale=8.0, snapshots=12, dim=32,
            alpha=0.1, num_walks=1, walk_length=10, window_size=2,
            epochs=1, flush_events=300, queries_per_version=256,
            pass_seconds=15.0, setup_repeats=5,
        ),
        "tiny": dict(
            dataset="fbw-sim", data_seed=0, scale=0.25, snapshots=3, dim=8,
            alpha=0.1, num_walks=1, walk_length=6, window_size=2,
            epochs=1, flush_events=60, queries_per_version=8,
            pass_seconds=1.0, setup_repeats=2,
        ),
    },
    "serve-knn": {
        "full": dict(
            num_nodes=4000, dim=64, rate=800.0, cadence=0.5,
            connections=2, probe_knn=1000, probe_pairs=500, setup_repeats=3,
        ),
        "tiny": dict(
            num_nodes=300, dim=16, rate=100.0, cadence=0.4,
            connections=2, probe_knn=20, probe_pairs=20, setup_repeats=2,
        ),
    },
}
if list(WORKLOADS) != [entry["name"] for entry in MANIFEST["workloads"]]:
    raise RuntimeError(f"{MANIFEST_PATH} declares other workloads than {list(WORKLOADS)}")
