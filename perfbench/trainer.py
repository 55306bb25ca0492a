"""The two trainer workloads: ``snapshot-hepph`` and ``stream-fbw``.

Both run ``--seconds // pass_seconds`` whole passes over the same input,
at least one (a traced run makes one untraced pass, then one traced
pass, and reports their difference as the tracing overhead). The timed
section of a pass is the model's work only: ``GloDyNE.update`` calls on
snapshot-hepph, ``StreamingGloDyNE.ingest`` calls on stream-fbw. Each
update publishes into an ``EmbeddingStore``; after it, outside the timed
section, an in-process ``EmbeddingService`` follows the store and
answers a planned set of kNN queries — the reader of what the trainer
just wrote, which gives these workloads their ``knn_*`` and
``swap_lag_ms`` figures. After each pass the store is saved and loaded
back; the first pass's output also gets the quality metrics
(``repro.tasks``). Every time metric is scaled by the host's speed,
timed on reference work after each publish (``perfbench.hostspeed``).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.spec import EVAL_SEED, KNN_LATENCY_LIMIT_MS
from perfbench.trace import Tracer, install_library_spans, layer_metrics
from repro import EmbeddingService, EmbeddingStore, GloDyNE, StreamingGloDyNE
from repro.datasets import load_dataset
from repro.serving import load_store, save_store
from repro.streaming import FlushPolicy, network_to_events
from repro.tasks import (
    graph_reconstruction_over_time,
    link_prediction_auc,
    link_prediction_over_time,
    mean_precision_at_k,
)

STAGES = ("changes", "partition", "select", "walk", "train", "publish")
MODEL_KEYS = ("dim", "alpha", "num_walks", "walk_length", "window_size", "epochs")
KNN_K = 10
#: Fewest answers in a window whose p99 counts (ten beyond its p99).
P99_WINDOW = 1000
#: Zipf exponent of query popularity (shared with serve-knn). An
#: unverified assumption: no query log of this system exists, and
#: published web-request traces are less skewed (see perfbench/README.md).
ZIPF_EXPONENT = 1.1


@dataclass
class Inputs:
    """What set-up generates; the passes receive only this."""

    network: object
    events: list
    popularity: list
    query_ranks: np.ndarray


@dataclass
class PassResult:
    """Everything one pass measured and produced."""

    timed_s: float = 0.0
    update_s: list[float] = field(default_factory=list)
    stage_s: Counter = field(default_factory=Counter)
    knn_ms: list[float] = field(default_factory=list)
    swap_ms: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    save_s: float = 0.0
    load_s: float = 0.0
    lp_auc: float = 0.0
    gr_meanp10: float = 0.0
    max_row_norm: float = 0.0
    fingerprint: str = ""


def zipf_ranks(
    rng: np.random.Generator, universe: int, size: int, replace: bool = True
) -> np.ndarray:
    """Popularity ranks (0 = most popular) drawn from a bounded Zipf law."""
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_EXPONENT
    size = size if replace else min(size, universe)
    return rng.choice(universe, size=size, replace=replace, p=weights / weights.sum())


def windowed_p99(latency_ms: np.ndarray, window: np.ndarray) -> float:
    """Median over windows of each window's p99 latency.

    ``window`` labels each answer's window. One freak stall moves one
    window, not the figure. Windows with fewer than ``P99_WINDOW``
    answers are left out; a run too short for any window falls back to
    its own p99.
    """
    p99s = [
        np.percentile(latency_ms[window == w], 99)
        for w in np.unique(window)
        if np.count_nonzero(window == w) >= P99_WINDOW
    ]
    return float(np.median(p99s)) if p99s else float(np.percentile(latency_ms, 99))


def setup(params: dict, seed: int) -> Inputs:
    """Generate the dataset, its event stream and the kNN query plan.

    The dataset and the model seed are pinned (``params["data_seed"]``);
    ``seed`` draws the query plan. On a third of hepph-sim's seeds the
    SGNS weights diverge (row norms of 1e4-1e6 by the last snapshot) and
    the quality metrics swing by half, so a per-seed dataset would make
    quality a coin toss rather than a yardstick.
    """
    network = load_dataset(
        params["dataset"], scale=params["scale"], seed=params["data_seed"],
        snapshots=params["snapshots"],
    )
    events = network_to_events(network)
    rng = np.random.default_rng([seed, 1])
    final_nodes = sorted(network.snapshot(network.num_snapshots - 1).nodes())
    popularity = [final_nodes[i] for i in rng.permutation(len(final_nodes))]
    # One row of distinct ranks per published version (streams cycle
    # through them): a version's queries never hit each other's cached
    # answers, so the probe times the index, not the result cache.
    ranks = np.stack([
        zipf_ranks(rng, len(popularity), params["queries_per_version"], replace=False)
        for _ in range(network.num_snapshots)
    ])
    return Inputs(network, events, popularity, ranks)


class KnnProbe:
    """Follows a store in-process and times the planned kNN queries."""

    def __init__(self, store: EmbeddingStore, inputs: Inputs, result: PassResult,
                 speed: HostSpeed):
        self.store = store
        self.service = EmbeddingService(store)
        self.inputs = inputs
        self.result = result
        self.speed = speed
        self.versions = 0

    def after_publish(self, published_at: float) -> None:
        """Query the new head, then time the host's reference work.

        The first answer closes the swap lag. The collector is off
        meanwhile: a collection of the trainer's garbage would otherwise
        land in whichever query happened to trigger it and make the tail
        a lottery.
        """
        gc.disable()
        try:
            self._query(published_at)
            self.result.probe_s.append(self.speed.probe())
        finally:
            gc.enable()

    def _query(self, published_at: float) -> None:
        record = self.store.latest
        candidates = [n for n in self.inputs.popularity if n in record.row_of]
        ranks = self.inputs.query_ranks[self.versions % len(self.inputs.query_ranks)]
        self.versions += 1
        expected = min(KNN_K, record.num_nodes - 1)
        nodes = dict.fromkeys(candidates[rank % len(candidates)] for rank in ranks)
        for position, node in enumerate(nodes):
            started = time.perf_counter()
            self.result.attempted += 1
            try:
                answer = self.service.query_knn(node, KNN_K)
            except Exception as error:  # counted, the run goes on
                self.result.failures.append(f"knn {node!r}: {error!r}")
                continue
            finished = time.perf_counter()
            if len(answer) != expected:
                self.result.failures.append(
                    f"knn {node!r} returned {len(answer)} of {expected}"
                )
            if position == 0:
                self.result.swap_ms.append((finished - published_at) * 1e3)
            else:
                self.result.knn_ms.append((finished - started) * 1e3)


def _model_kwargs(params: dict) -> dict:
    return {key: params[key] for key in MODEL_KEYS}


def snapshot_pass(
    inputs: Inputs, params: dict, speed: HostSpeed
) -> tuple[PassResult, list, EmbeddingStore]:
    """One full GloDyNE fit, snapshot by snapshot."""
    result = PassResult()
    store = EmbeddingStore()
    probe = KnnProbe(store, inputs, result, speed)
    model = GloDyNE(seed=params["data_seed"], publish_to=store, **_model_kwargs(params))
    embeddings = []
    for step, snapshot in enumerate(inputs.network):
        started = time.perf_counter()
        embeddings.append(model.update(snapshot))
        finished = time.perf_counter()
        result.timed_s += finished - started
        result.attempted += 1
        if step:
            result.update_s.append(finished - started)
        result.stage_s.update(model.last_trace.stage_seconds)
        probe.after_publish(finished)
    result.cache = probe.service.cache_info
    return result, embeddings, store


def stream_pass(
    inputs: Inputs, params: dict, speed: HostSpeed
) -> tuple[PassResult, dict, EmbeddingStore]:
    """One replay of the event stream through the streaming engine.

    Returns, besides the pass result, the store version that was the
    head when each snapshot's first event arrived.
    """
    result = PassResult()
    store = EmbeddingStore()
    probe = KnnProbe(store, inputs, result, speed)
    engine = StreamingGloDyNE(
        seed=params["data_seed"], policy=FlushPolicy(max_events=params["flush_events"]),
        publish_to=store, **_model_kwargs(params),
    )
    head_at_snapshot: dict[int, int] = {}
    step = None
    for event in inputs.events:
        if int(event.time) != step:
            step = int(event.time)
            if store.num_versions:
                head_at_snapshot[step] = store.num_versions - 1
        started = time.perf_counter()
        flushed = engine.ingest(event)
        finished = time.perf_counter()
        result.timed_s += finished - started
        result.attempted += 1
        if flushed is not None:
            result.update_s.append(finished - started)
            result.stage_s.update(flushed.trace.stage_seconds)
            probe.after_publish(finished)
    if engine.pending_events:
        started = time.perf_counter()
        flushed = engine.flush()
        finished = time.perf_counter()
        result.timed_s += finished - started
        result.update_s.append(finished - started)
        result.stage_s.update(flushed.trace.stage_seconds)
        probe.after_publish(finished)
    result.cache = probe.service.cache_info
    if store.num_versions != engine.num_flushes:
        result.failures.append(
            f"{store.num_versions} store versions for {engine.num_flushes} flushes"
        )
    return result, head_at_snapshot, store


def _round_trip(store: EmbeddingStore, path: Path, result: PassResult) -> None:
    """Save the store, load it back, and check the head survived."""
    result.max_row_norm = float(np.linalg.norm(store.latest.matrix, axis=1).max())
    result.fingerprint = hashlib.sha256(store.latest.matrix.tobytes()).hexdigest()
    started = time.perf_counter()
    save_store(store, path)
    result.save_s = time.perf_counter() - started
    started = time.perf_counter()
    loaded = load_store(path)
    result.load_s = time.perf_counter() - started
    result.attempted += 1
    same = (
        loaded.num_versions == store.num_versions
        and loaded.latest.nodes == store.latest.nodes
        and np.array_equal(loaded.latest.matrix, store.latest.matrix)
    )
    if not same:
        result.failures.append("store did not survive save_store/load_store")


def _check_embeddings(maps, snapshots, result: PassResult) -> None:
    for step, (embedding, snapshot) in enumerate(zip(maps, snapshots)):
        if set(embedding) != snapshot.node_set():
            result.failures.append(f"snapshot {step}: embedding misses nodes")
        matrix = np.array(list(embedding.values()))
        if not np.isfinite(matrix).all():
            result.failures.append(f"snapshot {step}: non-finite embedding")


def finish_snapshot(inputs, embeddings, store, result, work_dir: Path,
                    quality: bool) -> None:
    """Checks, persistence round trip and (``quality``) snapshot-hepph's
    quality metrics."""
    network = inputs.network
    if len(embeddings) != network.num_snapshots:
        result.failures.append(
            f"{len(embeddings)} embedding maps for {network.num_snapshots} snapshots"
        )
    _check_embeddings(embeddings, network, result)
    if store.num_versions != network.num_snapshots:
        result.failures.append(f"{store.num_versions} store versions published")
    _round_trip(store, work_dir / "snapshot-store.npz", result)
    if not quality:
        return
    result.lp_auc = link_prediction_over_time(
        embeddings, network, np.random.default_rng(EVAL_SEED)
    )
    result.gr_meanp10 = graph_reconstruction_over_time(embeddings, network, [10])[10]


def finish_stream(inputs, head_at_snapshot, store, result, work_dir: Path,
                  quality: bool) -> None:
    """Checks, persistence round trip and (``quality``) stream-fbw's
    quality metrics.

    ``gr_meanp10`` scores the final flush against the final graph;
    ``lp_auc`` scores, for every snapshot boundary t -> t+1, the head
    that was live when snapshot t+1 began, with the Table 2 protocol.
    """
    network = inputs.network
    final = network.snapshot(network.num_snapshots - 1)
    head = store.latest
    if head.num_nodes != final.number_of_nodes():
        result.failures.append(
            f"head has {head.num_nodes} nodes, final graph {final.number_of_nodes()}"
        )
    _check_embeddings([head.as_map()], [final], result)
    _round_trip(store, work_dir / "stream-store.npz", result)
    if not quality:
        return
    rng = np.random.default_rng(EVAL_SEED)
    aucs = []
    for step in range(network.num_snapshots - 1):
        version = head_at_snapshot.get(step + 1)
        if version is None:
            continue
        try:
            aucs.append(link_prediction_auc(
                store.version(version).as_map(), network.snapshot(step),
                network.snapshot(step + 1), rng,
            ))
        except ValueError:  # a boundary whose test set lost a class
            continue
    if not aucs:
        result.failures.append("no snapshot boundary gave a link-prediction set")
    result.lp_auc = float(np.mean(aucs)) if aucs else 0.0
    result.gr_meanp10 = mean_precision_at_k(head.as_map(), final, [10])[10]


def run(workload: str, params: dict, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> dict:
    """Run one trainer workload; returns metrics, counts and details."""
    setup_s = []
    for _ in range(params["setup_repeats"]):
        started = time.perf_counter()
        inputs = setup(params, seed)
        setup_s.append(time.perf_counter() - started)

    snapshot_mode = workload == "snapshot-hepph"
    passes: list[PassResult] = []
    tracer: Tracer | None = None
    speed = HostSpeed()
    # A fixed pass count, not "until the time is up": a pass count that
    # followed the host's speed would let warm second passes into some
    # runs' medians and not others'.
    count = 2 if trace else max(1, int(seconds // params["pass_seconds"]))
    for _ in range(count):
        traced = trace and len(passes) == 1
        if traced:
            tracer = Tracer()
            install_library_spans(tracer)
        try:
            if snapshot_mode:
                result, produced, store = snapshot_pass(inputs, params, speed)
            else:
                result, produced, store = stream_pass(inputs, params, speed)
        finally:
            if traced:
                tracer.uninstall()
        if snapshot_mode:
            finish_snapshot(inputs, produced, store, result, work_dir, not passes)
        else:
            finish_stream(inputs, produced, store, result, work_dir, not passes)
        # Free this pass's model output before the next pass allocates
        # its own, so peak RSS does not depend on the pass count.
        produced = store = None
        passes.append(result)

    untraced = passes[:1] if trace else passes
    failures = [failure for result in passes for failure in result.failures]
    if len({result.fingerprint for result in passes}) != 1:
        failures.append("passes over the same input published different heads")
    first = passes[0]
    events_total = len(inputs.events)
    # Each pass is scaled by the host speed measured during it, so a
    # slowdown that starts mid-run is charged to the pass it slowed.
    factors = [speed.factor(result.probe_s) for result in untraced]
    setup_factor = speed.factor([s for result in untraced for s in result.probe_s])
    raw = _timings(untraced, [1.0] * len(untraced), median(setup_s), events_total)
    knn = np.array([ms for result in untraced for ms in result.knn_ms])
    metrics = {
        **_timings(untraced, factors, median(setup_s) * setup_factor, events_total),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "lp_auc": first.lp_auc,
        "gr_meanp10": first.gr_meanp10,
        "knn_on_time_ratio": float(np.mean(knn <= KNN_LATENCY_LIMIT_MS)),
    }
    details = {
        "host_factor": factors,
        "raw": raw,
        "passes": len(passes),
        "max_row_norm": first.max_row_norm,
        "pass_run_s": [result.timed_s for result in passes],
        "updates_per_pass": len(first.update_s) + (1 if snapshot_mode else 0),
        "events": events_total,
        "knn_samples": len(knn),
        "swap_samples": sum(len(result.swap_ms) for result in untraced),
        "stage_share": _shares(first.stage_s),
    }
    if trace:
        traced_pass = passes[1]
        metrics.update(_per_layer(tracer, traced_pass, first, speed))
        details["stage_share_traced"] = _shares(traced_pass.stage_s)
    return {
        "metrics": metrics,
        "attempted": sum(result.attempted for result in passes),
        "failures": failures,
        "details": details,
        "tracer": tracer,
    }


def _timings(passes: list[PassResult], factors: list[float], setup_s: float,
             events: int) -> dict:
    """The time metrics of ``passes``, each pass's times scaled by its factor."""

    def pooled(attr: str, unit: float) -> list[float]:
        return [
            value * unit * factor
            for result, factor in zip(passes, factors)
            for value in getattr(result, attr)
        ]

    run_s = median(result.timed_s * factor for result, factor in zip(passes, factors))
    knn = np.array(pooled("knn_ms", 1.0))
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "update_p50_ms": median(pooled("update_s", 1e3)),
        "events_per_s": events / run_s,
        "knn_p50_ms": float(np.percentile(knn, 50)),
        "knn_p99_ms": windowed_p99(knn, np.arange(knn.size) // P99_WINDOW),
        "swap_lag_ms": median(pooled("swap_ms", 1.0)),
    }


def _shares(stage_s: Counter) -> dict:
    total = sum(stage_s.values()) or 1.0
    return {stage: round(stage_s.get(stage, 0.0) / total, 4) for stage in STAGES}


def _per_layer(tracer: Tracer, traced: PassResult, untraced: PassResult,
               speed: HostSpeed) -> dict:
    metrics = {
        f"pipeline.{stage}_s": traced.stage_s.get(stage, 0.0) for stage in STAGES
    }
    metrics.update(layer_metrics(tracer))
    hits, misses = traced.cache.get("hits", 0), traced.cache.get("misses", 0)
    metrics.update({
        "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.batch_size_mean": 0.0,
        "server.dispatches": 0.0,
        "server.handler_p50_ms": 0.0,
        "server.queue_wait_ms": 0.0,
        "persistence.save_store_s": traced.save_s,
        "persistence.load_store_s": traced.load_s,
        "client.generator_lag_p99_ms": 0.0,
        "trace.overhead_ratio": (
            traced.timed_s * speed.factor(traced.probe_s)
            / (untraced.timed_s * speed.factor(untraced.probe_s)) - 1.0
        ),
    })
    return metrics
