"""The serve-knn workload: an open-loop client against the HTTP daemon.

Set-up generates the synthetic versions (``perfbench.synthetic``), saves
the base version with ``save_store``, loads it back with ``load_store``
into a reference ``EmbeddingService``, and draws the query plan. The
server (``perfbench/server.py``) runs in a child process. This process is
the only load source: one asyncio loop whose generator releases
``/knn?k=10`` requests at fixed due times (open loop, Zipf-popular
nodes) to two keep-alive connections. Latency is timed from each
request's due time, so a stall also counts against the requests queued
behind it.

After the load window the client asks a fixed quality probe at the final
version (``/knn`` for graph reconstruction, ``/score`` for link
prediction, both against the synthetic communities) and reads
``/stats``. Every response must be a 200 with k neighbours and a served
version that never goes backwards on its connection; a fixed sample of
answers, plus the whole probe, must equal what the reference service
answers after replaying the same versions in process.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from perfbench import synthetic
from perfbench.spec import (
    GENERATOR_LAG_LIMIT_MS,
    KNN_LATENCY_LIMIT_MS,
    ROOT,
)
from perfbench.trainer import KNN_K, STAGES, windowed_p99, zipf_ranks
from repro import EmbeddingService, EmbeddingStore
from repro.ml.metrics import roc_auc_score
from repro.serving import load_store, save_store

#: Every SAMPLE_EVERY-th planned request is checked against the reference.
SAMPLE_EVERY = 40
#: Seconds the server gets to load, index and bind.
START_TIMEOUT = 120.0
#: knn_p99_ms is the median of the p99s of windows this long (by due time).
P99_WINDOW_S = 2.0


@dataclass
class Inputs:
    """What set-up generates; the server and client receive only this."""

    store_path: Path
    versions_path: Path
    synthetic: synthetic.Synthetic
    reference: EmbeddingService
    due: np.ndarray
    nodes: np.ndarray
    probe_nodes: np.ndarray
    probe_pairs: list[tuple[int, int, int]]
    save_s: float


def setup(params: dict, seed: int, seconds: float, work_dir: Path) -> Inputs:
    """Generate versions and plans, persist the store, load the reference."""
    num_nodes = params["num_nodes"]
    versions = max(1, int(seconds / params["cadence"]))
    generated = synthetic.generate(seed, num_nodes, params["dim"], versions)
    store = EmbeddingStore()
    store.publish((list(range(num_nodes)), generated.base), time_step=0)
    store_path = work_dir / "serve-store.npz"
    started = time.perf_counter()
    save_store(store, store_path)
    save_s = time.perf_counter() - started
    versions_path = work_dir / "serve-versions.npz"
    np.savez(versions_path, **{f"v{i}": m for i, m in enumerate(generated.versions)})
    reference = EmbeddingService(load_store(store_path))
    reference.refresh()

    rng = np.random.default_rng([seed, 3])
    popularity = rng.permutation(num_nodes)
    count = max(1, int(params["rate"] * seconds))
    due = np.arange(count) / params["rate"]
    nodes = popularity[zipf_ranks(rng, num_nodes, count)]
    probe_nodes = rng.choice(num_nodes, size=params["probe_knn"], replace=False)
    labels = generated.labels[:num_nodes]
    pairs: list[tuple[int, int, int]] = []
    while len(pairs) < 2 * params["probe_pairs"]:
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        same = int(labels[u] == labels[v])
        wanted = len(pairs) < params["probe_pairs"]
        if u != v and same == wanted:
            pairs.append((u, v, same))
    return Inputs(
        store_path, versions_path, generated, reference, due, nodes,
        probe_nodes, pairs, save_s,
    )


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("ascii")


async def _exchange(reader, writer, request: bytes) -> tuple[int, dict]:
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    start = head.index(b"Content-Length:") + len(b"Content-Length:")
    length = int(head[start:head.index(b"\r\n", start)])
    return status, json.loads(await reader.readexactly(length))


@dataclass
class Load:
    """Per-request records of the open-loop window."""

    lag: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    version: np.ndarray
    ok: np.ndarray


async def _drive(port: int, inputs: Inputs, params: dict, proc) -> dict:
    connections = [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(params["connections"])
    ]
    t0 = time.monotonic() + 0.05
    proc.stdin.write(f"GO {t0!r}\n")
    proc.stdin.flush()
    count = inputs.due.size
    due = t0 + inputs.due
    load = Load(
        lag=np.zeros(count), sent=np.zeros(count), done=np.full(count, np.nan),
        version=np.full(count, -1), ok=np.zeros(count, dtype=bool),
    )
    failures: list[str] = []
    samples: list[tuple[int, int, list]] = []
    queue: asyncio.Queue = asyncio.Queue()

    async def generator() -> None:
        for i in range(count):
            delay = due[i] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            load.lag[i] = time.monotonic() - due[i]
            queue.put_nowait(i)
        for _ in connections:
            queue.put_nowait(None)

    async def connection(reader, writer) -> None:
        last = -1
        while (i := await queue.get()) is not None:
            node = int(inputs.nodes[i])
            load.sent[i] = time.monotonic()
            try:
                status, body = await _exchange(
                    reader, writer, _get(f"/g/g/knn?node={node}&k={KNN_K}")
                )
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                failures.append(f"request {i}: {error!r}")
                continue
            load.done[i] = time.monotonic()
            version = body.get("version", -1) if status == 200 else -1
            neighbors = body.get("neighbors", []) if status == 200 else []
            load.version[i] = version
            if status != 200 or len(neighbors) != KNN_K:
                failures.append(
                    f"request {i}: status {status}, {len(neighbors)} neighbours"
                )
                continue
            if version < last:
                failures.append(f"request {i}: version {version} after {last}")
                continue
            last = version
            load.ok[i] = True
            if i % SAMPLE_EVERY == 0:
                samples.append((version, node, neighbors))

    await asyncio.gather(generator(), *(connection(r, w) for r, w in connections))

    reader, writer = connections[0]
    probe_knn, probe_scores = [], []
    for node in inputs.probe_nodes:
        status, body = await _exchange(
            reader, writer, _get(f"/g/g/knn?node={int(node)}&k={KNN_K}")
        )
        if status != 200 or len(body["neighbors"]) != KNN_K:
            failures.append(f"probe knn {node}: status {status}")
            continue
        probe_knn.append((int(node), body["neighbors"]))
        samples.append((body["version"], int(node), body["neighbors"]))
    for u, v, _ in inputs.probe_pairs:
        status, body = await _exchange(reader, writer, _get(f"/g/g/score?u={u}&v={v}"))
        if status != 200:
            failures.append(f"probe score {u},{v}: status {status}")
            continue
        probe_scores.append(body["score"])
    _, stats = await _exchange(reader, writer, _get("/stats"))
    for _, writer in connections:
        writer.close()
    return {
        "t0": t0, "load": load, "failures": failures, "samples": samples,
        "probe_knn": probe_knn, "probe_scores": probe_scores, "stats": stats,
    }


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
def _read_line(proc, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"server printed nothing within {timeout:g}s")
    return proc.stdout.readline()


def _serve(inputs: Inputs, params: dict, seconds: float, trace: bool,
           work_dir: Path) -> tuple[dict, dict, float]:
    result_path = work_dir / "server-result.json"
    command = [
        sys.executable, "-m", "perfbench.server",
        "--store", str(inputs.store_path), "--versions", str(inputs.versions_path),
        "--cadence", repr(params["cadence"]), "--result", str(result_path),
    ]
    if trace:
        spans = work_dir.parent / "serve-knn-server.spans.jsonl"
        command += ["--trace-at", repr(seconds / 2), "--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = _read_line(proc, START_TIMEOUT)
        if not line.startswith("READY "):
            raise RuntimeError(f"server failed to start: {line!r}")
        start_s = time.perf_counter() - started
        client = asyncio.run(_drive(int(line.split()[1]), inputs, params, proc))
        proc.stdin.write("STOP\n")
        proc.stdin.flush()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    server = json.loads(result_path.read_text(encoding="utf-8"))
    return client, server, start_s


def _replay_check(inputs: Inputs, client: dict, server: dict) -> list[str]:
    """Replay the published versions in process; compare the samples."""
    reference = inputs.reference
    samples = sorted(client["samples"], key=lambda sample: sample[0])
    published = [entry["version"] for entry in server["publishes"]]
    failures = []
    cursor = 0
    for version in [0] + published:
        if version:
            matrix = inputs.synthetic.versions[version - 1]
            nodes = list(range(len(matrix)))
            reference.store.publish((nodes, matrix), time_step=version)
            reference.refresh()
        while cursor < len(samples) and samples[cursor][0] == version:
            _, node, served = samples[cursor]
            expected = [[n, s] for n, s in reference.query_knn(node, KNN_K)]
            if [[d["node"], d["score"]] for d in served] != expected:
                failures.append(
                    f"node {node} at version {version} differs from reference"
                )
            cursor += 1
    if cursor != len(samples):
        failures.append(f"{len(samples) - cursor} samples at unpublished versions")
    return failures


def run(params: dict, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Run serve-knn; returns metrics, counts and details."""
    setup_s, save_s = [], []
    for _ in range(params["setup_repeats"]):
        started = time.perf_counter()
        inputs = setup(params, seed, seconds, work_dir)
        setup_s.append(time.perf_counter() - started)
        save_s.append(inputs.save_s)
    client, server, start_s = _serve(inputs, params, seconds, trace, work_dir)
    load: Load = client["load"]
    failures = list(client["failures"])
    failures += _replay_check(inputs, client, server)
    count = load.done.size
    latency_ms = (load.done - (client["t0"] + inputs.due)) * 1e3
    answered = latency_ms[load.ok]
    lag_p99 = float(np.percentile(load.lag, 99)) * 1e3
    if lag_p99 > GENERATOR_LAG_LIMIT_MS:
        failures.append(
            f"load generator ran {lag_p99:.2f} ms late at p99 "
            f"(limit {GENERATOR_LAG_LIMIT_MS} ms): not an open loop"
        )
    run_s = float(np.nanmax(load.done)) - client["t0"]
    first_at: dict[int, float] = {}
    for version, done in zip(load.version[load.ok], load.done[load.ok]):
        first_at.setdefault(int(version), float(done))
    swap_ms = []
    for entry in server["publishes"]:
        served = [t for v, t in first_at.items() if v >= entry["version"]]
        if served:
            swap_ms.append((min(served) - entry["visible"]) * 1e3)
    labels = inputs.synthetic.labels
    final_rows = len(inputs.synthetic.final)
    sizes = np.bincount(labels[:final_rows], minlength=synthetic.COMMUNITIES)
    precision = [
        sum(labels[d["node"]] == labels[node] for d in neighbors)
        / min(KNN_K, sizes[labels[node]] - 1)
        for node, neighbors in client["probe_knn"]
    ]
    truth = np.array([same for _, _, same in inputs.probe_pairs])
    stats = client["stats"]
    handler_p50 = stats["latency_ms"]["p50"]
    metrics = {
        "setup_s": median(setup_s),
        "run_s": run_s,
        "update_p50_ms": median(e["publish_s"] for e in server["publishes"]) * 1e3,
        "events_per_s": int(load.ok.sum()) / run_s,
        "peak_rss_mb": server["peak_rss_mb"],
        "lp_auc": roc_auc_score(truth, np.array(client["probe_scores"])),
        "gr_meanp10": float(np.mean(precision)),
        "knn_p50_ms": float(np.percentile(answered, 50)),
        "knn_p99_ms": windowed_p99(
            answered, (inputs.due[load.ok] // P99_WINDOW_S).astype(np.int64)
        ),
        "knn_on_time_ratio": float(np.sum(answered <= KNN_LATENCY_LIMIT_MS)) / count,
        "swap_lag_ms": median(swap_ms),
    }
    details = {
        "requests": count,
        "answered": int(load.ok.sum()),
        "versions_published": len(server["publishes"]),
        "swap_samples": len(swap_ms),
        "reference_samples": len(client["samples"]),
        "generator_lag_p50_ms": float(np.percentile(load.lag, 50)) * 1e3,
        "generator_lag_p99_ms": lag_p99,
        "server_start_s": start_s,
        "server_load_store_s": server["load_store_s"],
        "server_index_build_s": server["index_build_s"],
        "stats_qps": stats["qps"],
    }
    if trace:
        half = client["t0"] + seconds / 2
        due_at = client["t0"] + inputs.due
        before = latency_ms[load.ok & (due_at < half)]
        after = latency_ms[load.ok & (due_at >= half)]
        sent_ms = (load.done - load.sent)[load.ok] * 1e3
        hits, misses = server["cache"]["hits"], server["cache"]["misses"]
        metrics.update(server["layers"])
        metrics.update({
            **{f"pipeline.{stage}_s": 0.0 for stage in STAGES},
            "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.batch_size_mean": stats["knn"]["mean_batch_size"],
            "server.dispatches": float(stats["knn"]["batch_dispatches"]),
            "server.handler_p50_ms": handler_p50,
            "server.queue_wait_ms": float(np.median(sent_ms)) - handler_p50,
            "persistence.save_store_s": median(save_s),
            "persistence.load_store_s": server["load_store_s"],
            "client.generator_lag_p99_ms": lag_p99,
            "trace.overhead_ratio": float(np.median(after) / np.median(before)) - 1.0,
        })
    return {
        "metrics": metrics,
        "attempted": count + len(inputs.probe_nodes) + len(inputs.probe_pairs),
        "failures": failures,
        "details": details,
        "tracer": None,
    }
