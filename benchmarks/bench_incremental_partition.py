"""Step 1 latency: incremental partition maintenance vs full rebuild.

GloDyNE's online loop needs a (K, ε)-balanced partition of every
snapshot. The full multilevel partitioner re-coarsens and re-refines the
whole graph — O(E) Python work per step — while the
:class:`repro.partition.IncrementalPartitioner` applies the step's delta
to the previous partition and refines only dirty boundary vertices.
This bench drifts a preferential-attachment graph with small deltas
(~1% of edges per step) and measures, per step:

* wall-clock of ``partition_graph`` (full rebuild) vs
  ``IncrementalPartitioner.partition`` on the *same* prebuilt CSR;
* edge-cut quality of the maintained partition relative to the fresh
  rebuild (the acceptance gate: within 10%);
* how often the quality gate forced a fallback rebuild.

Unlike the parallel benches, both paths are single-threaded, so the
speedup gate is asserted in-bench even on a single-core recording host.

Run standalone at the full profile, which asserts both gates (CI runs
this on every push; it takes seconds)::

    PYTHONPATH=src python benchmarks/bench_incremental_partition.py

``--tiny`` is a smaller smoke that reports the gates without asserting
them.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from common import write_result
from repro.datasets import preferential_attachment_graph
from repro.experiments import render_table
from repro.graph.csr import CSRAdjacency
from repro.partition import (
    IncrementalPartitioner,
    partition_graph,
    validate_partition,
)

#: Acceptance gates (ISSUE 5): the incremental path must be at least
#: this much faster per small-delta step, at an edge cut within this
#: factor of the full rebuild's.
SPEEDUP_GATE = 3.0
CUT_RATIO_GATE = 1.10


def _apply_delta(graph, rng, num_changes: int) -> set:
    """Rewire ~``num_changes`` edges in place; returns touched node ids.

    Half removals of existing edges, half fresh random edges — the
    "many small updates against a mostly stable topology" regime the
    incremental partitioner targets.
    """
    n = graph.number_of_nodes()
    touched: set = set()
    edges = list(graph.edges())
    removals = num_changes // 2
    for _ in range(removals):
        u, v = edges[int(rng.integers(0, len(edges)))]
        if graph.has_edge(u, v) and graph.degree(u) > 1 and graph.degree(v) > 1:
            graph.remove_edge(u, v)
            touched.update((u, v))
    additions = num_changes - removals
    added = 0
    while added < additions:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            touched.update((u, v))
            added += 1
    return touched


def run_partition_drift(
    num_nodes: int = 5000,
    attach: int = 3,
    num_steps: int = 8,
    delta_fraction: float = 0.01,
    alpha: float = 0.1,
    seed: int = 0,
) -> tuple[str, dict]:
    """Drift a graph and time incremental vs full Step 1 per snapshot."""
    rng = np.random.default_rng(seed)
    graph = preferential_attachment_graph(num_nodes, attach, rng)
    k = max(1, round(alpha * graph.number_of_nodes()))
    delta_edges = max(2, round(delta_fraction * graph.number_of_edges()))

    partitioner = IncrementalPartitioner(eps=0.10, seed=seed)
    csr = CSRAdjacency.from_graph(graph)
    partitioner.partition(graph, k, csr=csr)  # bootstrap rebuild, untimed

    inc_seconds, full_seconds, cut_ratios = [], [], []
    for step in range(num_steps):
        touched = _apply_delta(graph, rng, delta_edges)
        csr = CSRAdjacency.from_graph(graph)  # shared input, untimed
        began = time.perf_counter()
        incremental = partitioner.partition(graph, k, csr=csr, touched=touched)
        mid = time.perf_counter()
        full = partition_graph(
            graph, k, rng=np.random.default_rng(1_000_000 + step), csr=csr
        )
        done = time.perf_counter()
        problems = validate_partition(incremental, graph)
        if problems:  # defence in depth; the property suite pins this
            raise AssertionError(f"invalid incremental partition: {problems}")
        inc_seconds.append(mid - began)
        full_seconds.append(done - mid)
        cut_ratios.append(incremental.edge_cut / max(full.edge_cut, 1e-9))

    stats = {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "k": k,
        "delta_edges": delta_edges,
        "steps": num_steps,
        "incremental_mean_s": float(np.mean(inc_seconds)),
        "full_mean_s": float(np.mean(full_seconds)),
        "speedup": float(np.mean(full_seconds) / max(np.mean(inc_seconds), 1e-9)),
        "cut_ratio_mean": float(np.mean(cut_ratios)),
        "cut_ratio_max": float(np.max(cut_ratios)),
        "fallback_rebuilds": partitioner.num_rebuilds - 1,
    }
    text = render_table(
        ["path", "mean / step", "edge cut vs full"],
        [
            [
                "IncrementalPartitioner",
                f"{stats['incremental_mean_s'] * 1e3:.1f}ms",
                f"{stats['cut_ratio_mean']:.3f}x (max {stats['cut_ratio_max']:.3f}x)",
            ],
            ["partition_graph (full)", f"{stats['full_mean_s'] * 1e3:.1f}ms", "1.000x"],
            ["speedup", f"{stats['speedup']:.1f}x", ""],
            ["fallback rebuilds", str(stats["fallback_rebuilds"]), ""],
        ],
        title=(
            f"Step 1 on {stats['nodes']}n/{stats['edges']}e, K={k}, "
            f"{delta_edges} changed edges per step"
        ),
    )
    return text, stats


def _assert_gates(stats: dict) -> None:
    """The ISSUE 5 acceptance gates, asserted on the full profile."""
    assert stats["speedup"] >= SPEEDUP_GATE, (
        f"incremental partition speedup {stats['speedup']:.2f}x under the "
        f"{SPEEDUP_GATE}x gate ({stats})"
    )
    assert stats["cut_ratio_mean"] <= CUT_RATIO_GATE, (
        f"incremental edge cut {stats['cut_ratio_mean']:.3f}x over the "
        f"{CUT_RATIO_GATE}x gate ({stats})"
    )


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_incremental_partition_beats_full(benchmark):
    text, stats = benchmark.pedantic(run_partition_drift, rounds=1, iterations=1)
    print("\n" + text)
    write_result("incremental_partition.txt", text)
    _assert_gates(stats)


# ----------------------------------------------------------------------
# standalone smoke entry (CI)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke profile: seconds, not minutes",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        text, _ = run_partition_drift(num_nodes=600, num_steps=5)
    else:
        text, stats = run_partition_drift()
        _assert_gates(stats)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


# ----------------------------------------------------------------------
# orchestrator entry
# ----------------------------------------------------------------------
from repro.bench import register_bench  # noqa: E402


@register_bench("incremental_partition", tags=("perf", "partition"))
def run_bench(tiny: bool) -> dict:
    if tiny:
        text, stats = run_partition_drift(num_nodes=600, num_steps=5)
        caveats = ["tiny profile: speedup/cut gates reported, not asserted"]
    else:
        text, stats = run_partition_drift()
        _assert_gates(stats)
        caveats = []
    return {
        "metrics": {
            "incremental_mean_s": stats["incremental_mean_s"],
            "full_mean_s": stats["full_mean_s"],
            "speedup": stats["speedup"],
            "cut_ratio_mean": stats["cut_ratio_mean"],
            "cut_ratio_max": stats["cut_ratio_max"],
            "fallback_rebuilds": stats["fallback_rebuilds"],
        },
        "config": {
            "nodes": stats["nodes"],
            "edges": stats["edges"],
            "k": stats["k"],
            "delta_edges": stats["delta_edges"],
            "steps": stats["steps"],
            "speedup_gate": SPEEDUP_GATE,
            "cut_ratio_gate": CUT_RATIO_GATE,
        },
        "summary": text,
        "caveats": caveats,
    }
