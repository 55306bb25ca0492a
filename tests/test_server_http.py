"""End-to-end daemon tests over real sockets: golden identity, routing,
hot reload under in-flight traffic, malformed-request handling, CLI.

All tests run a real :class:`repro.server.EmbeddingDaemon` on an
ephemeral loopback port and speak HTTP through asyncio streams — no
mocked transport.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import threading
import time
from contextlib import redirect_stdout
from urllib.parse import quote
from urllib.request import urlopen

import numpy as np

from repro.cli import main as cli_main
from repro.serving import EmbeddingService, EmbeddingStore, save_store
from repro.server import EmbeddingDaemon


def run(coro):
    """Loop-runner for async tests (stdlib stand-in for pytest-asyncio)."""
    return asyncio.run(coro)


def make_store(num_nodes: int = 48, dim: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore()
    store.publish(
        (list(range(num_nodes)), rng.standard_normal((num_nodes, dim)))
    )
    return store


async def fetch(port: int, target: str, method: str = "GET", body=None):
    """One request on a fresh connection; returns (status, json payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode("ascii") + b"\r\n" + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


async def raw_exchange(port: int, payload: bytes) -> bytes:
    """Write raw bytes, read whatever comes back until close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


def with_daemon(services, coro_fn, **daemon_kwargs):
    """Start a daemon, run ``coro_fn(daemon)``, always close."""

    async def wrapper():
        daemon = EmbeddingDaemon(services, **daemon_kwargs)
        await daemon.start(port=0)
        try:
            return await coro_fn(daemon)
        finally:
            await daemon.close()

    return run(wrapper())


def neighbors_as_pairs(payload: dict) -> list[tuple]:
    return [(entry["node"], entry["score"]) for entry in payload["neighbors"]]


# ----------------------------------------------------------------------
# golden identity over the wire
# ----------------------------------------------------------------------
def test_http_knn_golden_identical_to_direct_service():
    """Concurrent HTTP answers == direct query_knn, byte for byte.

    JSON round-trips Python floats exactly (repr-based), so comparing
    the parsed pairs with ``==`` is a bit-level check.
    """
    store = make_store()
    nodes = list(range(12))

    async def scenario(daemon):
        return await asyncio.gather(
            *(fetch(daemon.port, f"/g/main/knn?node={n}&k=5") for n in nodes)
        )

    responses = with_daemon({"main": EmbeddingService(store)}, scenario)
    reference = EmbeddingService(store)
    for node, (status, payload) in zip(nodes, responses):
        assert status == 200
        assert payload["node"] == node
        assert payload["version"] == 0
        assert neighbors_as_pairs(payload) == reference.query_knn(node, 5)


def test_version_pinned_query_matches_direct_time_travel():
    store = make_store()
    rng = np.random.default_rng(9)
    moved = np.asarray(store.latest.matrix).copy()
    moved[:10] += rng.standard_normal((10, moved.shape[1])).astype(np.float32)
    store.publish((list(store.latest.nodes), moved))

    async def scenario(daemon):
        pinned = await fetch(daemon.port, "/g/main/knn?node=3&k=4&version=0")
        head = await fetch(daemon.port, "/g/main/knn?node=3&k=4")
        return pinned, head

    (s0, pinned), (s1, head) = with_daemon(
        {"main": EmbeddingService(store)}, scenario
    )
    assert (s0, s1) == (200, 200)
    assert pinned["version"] == 0 and head["version"] == 1
    reference = EmbeddingService(store)
    assert neighbors_as_pairs(pinned) == reference.query_knn(3, 4, version=0)
    assert neighbors_as_pairs(head) == reference.query_knn(3, 4)


# ----------------------------------------------------------------------
# hot reload
# ----------------------------------------------------------------------
def test_hot_swap_under_in_flight_queries():
    """Publishing mid-traffic swaps the served head without bad answers."""
    store = make_store(num_nodes=40)
    service = EmbeddingService(store)
    rng = np.random.default_rng(4)

    async def scenario(daemon):
        seen_versions = set()
        for round_number in range(4):
            answers = await asyncio.gather(
                *(
                    fetch(daemon.port, f"/g/main/knn?node={n}&k=3")
                    for n in range(8)
                )
            )
            for status, payload in answers:
                assert status == 200
                seen_versions.add(payload["version"])
                # Every answer was served at the round's head (the swap
                # happens before the batch dispatches) and must match a
                # fresh service over the same store byte for byte.
                assert payload["version"] == store.latest.version
                assert neighbors_as_pairs(payload) == EmbeddingService(
                    store
                ).query_knn(payload["node"], 3)
            # Publish a new version while the daemon keeps serving.
            matrix = np.asarray(store.latest.matrix).copy()
            matrix[:5] += rng.standard_normal((5, matrix.shape[1])).astype(
                np.float32
            ) * 0.1
            store.publish((list(store.latest.nodes), matrix))
        final_status, final = await fetch(
            daemon.port, "/g/main/knn?node=0&k=3"
        )
        return seen_versions, final["version"], daemon.stats.index_swaps

    seen_versions, final_version, swaps = with_daemon(
        {"main": service}, scenario, reload_interval=None
    )
    assert final_version == store.latest.version == 4
    assert len(seen_versions) >= 2  # traffic observed the head advancing
    assert swaps >= 2


def test_reload_endpoint_and_background_poller():
    store = make_store()
    service = EmbeddingService(store)

    async def scenario(daemon):
        status, before = await fetch(daemon.port, "/g/main/knn?node=0&k=3")
        assert before["version"] == 0
        matrix = np.asarray(store.latest.matrix).copy() + 0.25
        store.publish((list(store.latest.nodes), matrix))
        status, reloaded = await fetch(
            daemon.port, "/g/main/reload", method="POST"
        )
        assert status == 200
        assert reloaded["indexed_version"] == 1
        assert reloaded["rows_rehashed"] > 0
        # GET on a POST-only endpoint is a 405.
        status, _ = await fetch(daemon.port, "/g/main/reload")
        assert status == 405
        # The background poller also swaps without traffic.
        store.publish((list(store.latest.nodes), matrix + 0.25))
        await asyncio.sleep(0.15)
        return daemon.graphs["main"].service.indexed_version

    indexed = with_daemon({"main": service}, scenario, reload_interval=0.05)
    assert indexed == 2


def test_daemon_rejects_nonpositive_reload_interval():
    import pytest

    service = EmbeddingService(make_store(num_nodes=8))
    for bad in (0, -1.0):
        with pytest.raises(ValueError, match="reload_interval"):
            EmbeddingDaemon({"m": service}, reload_interval=bad)


def test_reload_poller_survives_a_bad_head():
    """A malformed publish must not silently kill idle hot-reload.

    The poller keeps running, ``/healthz`` surfaces the error, head
    queries *degrade* to the last good indexed version (200, stale
    version id) instead of failing, and pinned-version time travel
    (which never refreshes) still serves the last good version.
    """
    store = make_store(num_nodes=20, dim=8)
    service = EmbeddingService(store)

    async def scenario(daemon):
        status, before = await fetch(daemon.port, "/g/main/knn?node=0&k=3")
        assert (status, before["version"]) == (200, 0)
        # A trainer bug publishes a head with the wrong dimensionality:
        # refresh raises, the poller must log-and-continue, not die.
        rng = np.random.default_rng(1)
        store.publish(
            (list(store.latest.nodes), rng.standard_normal((20, 12)))
        )
        await asyncio.sleep(0.15)
        status, health = await fetch(daemon.port, "/healthz")
        assert status == 200
        assert health["last_reload_error"] is not None
        assert daemon.stats.reload_errors >= 1
        # Head queries degrade to the last good indexed version...
        head_status, head_answer = await fetch(
            daemon.port, "/g/main/knn?node=0&k=3"
        )
        assert (head_status, head_answer["version"]) == (200, 0)
        assert neighbors_as_pairs(head_answer) == neighbors_as_pairs(before)
        # ...while pinned time travel bypasses refresh and still works.
        pinned_status, pinned = await fetch(
            daemon.port, "/g/main/knn?node=0&k=3&version=0"
        )
        assert pinned_status == 200
        return before, pinned

    before, pinned = with_daemon(
        {"main": service}, scenario, reload_interval=0.05
    )
    reference = EmbeddingService(store)
    assert neighbors_as_pairs(pinned) == reference.query_knn(0, 3, version=0)


# ----------------------------------------------------------------------
# routing and error handling
# ----------------------------------------------------------------------
def test_multi_store_routing_is_independent():
    store_a, store_b = make_store(seed=1), make_store(num_nodes=30, seed=2)

    async def scenario(daemon):
        a = await fetch(daemon.port, "/g/alpha/knn?node=0&k=3")
        b = await fetch(daemon.port, "/g/beta/knn?node=0&k=3")
        missing = await fetch(daemon.port, "/g/gamma/knn?node=0&k=3")
        return a, b, missing

    (sa, pa), (sb, pb), (sm, pm) = with_daemon(
        {"alpha": EmbeddingService(store_a), "beta": EmbeddingService(store_b)},
        scenario,
    )
    assert (sa, sb, sm) == (200, 200, 404)
    assert neighbors_as_pairs(pa) == EmbeddingService(store_a).query_knn(0, 3)
    assert neighbors_as_pairs(pb) == EmbeddingService(store_b).query_knn(0, 3)
    assert "unknown graph" in pm["error"]


def test_malformed_requests_get_4xx():
    store = make_store(num_nodes=16)
    vector = quote(json.dumps([float(x) for x in store.latest.vector(1)]))

    async def scenario(daemon):
        port = daemon.port
        cases = {
            "missing node": await fetch(port, "/g/main/knn"),
            "bad k": await fetch(port, "/g/main/knn?node=1&k=zero"),
            "k below 1": await fetch(port, "/g/main/knn?node=1&k=0"),
            "bad version": await fetch(port, "/g/main/knn?node=1&version=x"),
            "unknown node": await fetch(port, "/g/main/knn?node=999"),
            "unknown version": await fetch(port, "/g/main/knn?node=1&version=7"),
            "unknown endpoint": await fetch(port, "/g/main/nope"),
            "unknown route": await fetch(port, "/frobnicate"),
            "bad method": await fetch(port, "/healthz", method="POST"),
            "bad metric": await fetch(port, "/g/main/score?u=1&v=2&metric=x"),
            "bad bool": await fetch(port, "/g/main/knn?node=1&exclude_self=maybe"),
            "knn by POST": await fetch(port, "/g/main/knn?node=1", method="POST"),
            "knn by vector": await fetch(port, f"/g/main/knn?vector={vector}"),
        }
        garbled = await raw_exchange(port, b"NOT-HTTP\r\n\r\n")
        bad_version_line = await raw_exchange(
            port, b"GET / HTTP/9.9\r\n\r\n"
        )
        return cases, garbled, bad_version_line

    cases, garbled, bad_version_line = with_daemon(
        {"main": EmbeddingService(make_store(num_nodes=16))}, scenario
    )
    expected = {
        "missing node": 400,
        "bad k": 400,
        "k below 1": 400,
        "bad version": 400,
        "unknown node": 404,
        "unknown version": 404,
        "unknown endpoint": 404,
        "unknown route": 404,
        "bad method": 405,
        "bad metric": 400,
        "bad bool": 400,
        "knn by POST": 405,
        "knn by vector": 400,
    }
    for label, (status, payload) in cases.items():
        assert status == expected[label], (label, status, payload)
        assert "error" in payload, label
    assert garbled.startswith(b"HTTP/1.1 400 ")
    assert bad_version_line.startswith(b"HTTP/1.1 400 ")


def test_score_embed_versions_endpoints():
    store = make_store()
    reference = EmbeddingService(store)

    async def scenario(daemon):
        port = daemon.port
        score = await fetch(port, "/g/main/score?u=1&v=2")
        dot = await fetch(port, "/g/main/score?u=1&v=2&metric=dot")
        embed = await fetch(port, "/g/main/embed?node=3")
        versions = await fetch(port, "/g/main/versions")
        return score, dot, embed, versions

    (ss, score), (sd, dot), (se, embed), (sv, versions) = with_daemon(
        {"main": EmbeddingService(store)}, scenario
    )
    assert (ss, sd, se, sv) == (200, 200, 200, 200)
    assert score["score"] == reference.score_edge(1, 2)
    assert dot["score"] == reference.score_edge(1, 2, metric="dot")
    assert embed["vector"] == [float(x) for x in store.latest.vector(3)]
    assert embed["dim"] == store.latest.dim
    assert len(versions["versions"]) == 1
    assert versions["versions"][0]["nodes"] == store.latest.num_nodes


def test_healthz_and_stats_shapes():
    store = make_store()

    async def scenario(daemon):
        await asyncio.gather(
            *(fetch(daemon.port, f"/g/main/knn?node={n}&k=3") for n in range(9))
        )
        health = await fetch(daemon.port, "/healthz")
        stats = await fetch(daemon.port, "/stats")
        return health, stats

    (hs, health), (ss, stats) = with_daemon(
        {"main": EmbeddingService(store)}, scenario
    )
    assert (hs, ss) == (200, 200)
    assert health["status"] == "ok"
    graph = health["graphs"]["main"]
    assert graph["versions"] == 1
    assert graph["backend"] == "lsh"
    assert stats["requests"] >= 9
    assert stats["qps"] > 0
    knn = stats["knn"]
    assert knn["queries"] >= 9
    assert knn["batch_dispatches"] >= 1
    histogram = knn["batch_size_histogram"]
    assert sum(int(size) * count for size, count in histogram.items()) >= 9
    assert stats["latency_ms"]["p50"] is not None
    assert stats["latency_ms"]["p99"] is not None
    assert "200" in stats["responses_by_status"]


def test_keep_alive_connection_serves_multiple_requests():
    store = make_store()

    async def scenario(daemon):
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
        payloads = []
        try:
            for node in (1, 2):
                writer.write(
                    f"GET /g/main/knn?node={node}&k=3 HTTP/1.1\r\n"
                    "Host: t\r\n\r\n".encode("ascii")
                )
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    re.search(rb"content-length: (\d+)", header.lower()).group(1)
                )
                payloads.append(json.loads(await reader.readexactly(length)))
                assert b"connection: keep-alive" in header.lower()
        finally:
            writer.close()
            await writer.wait_closed()
        return payloads

    payloads = with_daemon({"main": EmbeddingService(store)}, scenario)
    assert [p["node"] for p in payloads] == [1, 2]


def test_repeated_query_parameter_first_value_wins():
    store = make_store(num_nodes=16)

    async def scenario(daemon):
        return await fetch(daemon.port, "/g/main/knn?node=1&node=2&k=3")

    status, payload = with_daemon(
        {"main": EmbeddingService(store)}, scenario
    )
    assert status == 200
    assert payload["node"] == 1  # documented: repeats collapse left-to-right


def test_string_node_ids_round_trip():
    rng = np.random.default_rng(0)
    store = EmbeddingStore()
    names = [f"user-{i}" for i in range(20)]
    store.publish((names, rng.standard_normal((20, 8))))

    async def scenario(daemon):
        return await fetch(daemon.port, '/g/main/knn?node="user-3"&k=3')

    status, payload = with_daemon({"main": EmbeddingService(store)}, scenario)
    assert status == 200
    assert payload["node"] == "user-3"
    reference = EmbeddingService(store)
    assert neighbors_as_pairs(payload) == reference.query_knn("user-3", 3)


# ----------------------------------------------------------------------
# idle keep-alive timeout (slow-loris guard)
# ----------------------------------------------------------------------
def test_idle_connection_times_out_with_408():
    """A silent keep-alive client is answered 408 and disconnected."""
    store = make_store(num_nodes=16)

    async def scenario(daemon):
        # A connection that never sends a byte...
        silent = await raw_exchange_after_delay(daemon.port, b"", 0.0)
        # ...and a slow-loris one trickling a partial request line.
        loris = await raw_exchange_after_delay(
            daemon.port, b"GET /g/main/knn?no", 0.0
        )
        return silent, loris

    async def raw_exchange_after_delay(port, payload, delay):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        if delay:
            await asyncio.sleep(delay)
        if payload:
            writer.write(payload)
            await writer.drain()
        data = await reader.read()  # returns once the daemon closes us
        writer.close()
        await writer.wait_closed()
        return data

    silent, loris = with_daemon(
        {"main": EmbeddingService(store)}, scenario, idle_timeout=0.3
    )
    for data in (silent, loris):
        assert data.startswith(b"HTTP/1.1 408 ")
        assert b"connection: close" in data.lower()
        assert b"without a complete request" in data


def test_idle_timeout_stats_and_active_clients_unaffected():
    """408s are counted; clients that do send requests never see one."""
    store = make_store(num_nodes=16)

    async def scenario(daemon):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", daemon.port
        )
        try:
            # Two requests straddling an idle gap shorter than the
            # timeout: the per-request timer resets on each exchange.
            responses = []
            for _ in range(2):
                writer.write(
                    b"GET /g/main/knn?node=1&k=3 HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    re.search(rb"content-length: (\d+)", header.lower()).group(1)
                )
                responses.append(header + await reader.readexactly(length))
                await asyncio.sleep(0.25)
        finally:
            writer.close()
            await writer.wait_closed()
        idle_reader, idle_writer = await asyncio.open_connection(
            "127.0.0.1", daemon.port
        )
        await idle_reader.read()
        idle_writer.close()
        await idle_writer.wait_closed()
        return responses, daemon.stats.idle_timeouts

    responses, idle_timeouts = with_daemon(
        {"main": EmbeddingService(store)}, scenario, idle_timeout=0.4
    )
    assert all(r.startswith(b"HTTP/1.1 200 ") for r in responses)
    assert idle_timeouts == 1


def test_daemon_rejects_nonpositive_idle_timeout():
    store = make_store(num_nodes=8)
    import pytest

    with pytest.raises(ValueError, match="idle_timeout"):
        EmbeddingDaemon({"main": EmbeddingService(store)}, idle_timeout=0)
    # None is the documented "wait forever" mode (--idle-timeout 0).
    EmbeddingDaemon({"main": EmbeddingService(store)}, idle_timeout=None)


# ----------------------------------------------------------------------
# empty-store guard
# ----------------------------------------------------------------------
def test_empty_store_answers_503_until_first_publish():
    """A graph with no published versions is unavailable, not broken."""
    store = EmbeddingStore()
    service = EmbeddingService(store)

    async def scenario(daemon):
        before = {}
        for route in ("knn?node=0&k=3", "score?u=0&v=1", "embed?node=0"):
            before[route] = await fetch(daemon.port, f"/g/main/{route}")
        health = await fetch(daemon.port, "/healthz")
        versions = await fetch(daemon.port, "/g/main/versions")
        # First publish flips the graph live without a restart.
        rng = np.random.default_rng(0)
        store.publish((list(range(12)), rng.standard_normal((12, 6))))
        after = await fetch(daemon.port, "/g/main/knn?node=0&k=3")
        return before, health, versions, after

    before, health, versions, after = with_daemon({"main": service}, scenario)
    for route, (status, payload) in before.items():
        assert status == 503, route
        assert "no published versions" in payload["error"]
    assert health[0] == 200 and health[1]["status"] == "ok"
    assert versions[0] == 200 and versions[1]["versions"] == []
    status, payload = after
    assert status == 200
    reference = EmbeddingService(store)
    assert neighbors_as_pairs(payload) == reference.query_knn(0, 3)


def test_empty_service_refresh_is_a_noop():
    """Regression: refresh() on a version-less store must not raise."""
    service = EmbeddingService(EmbeddingStore())
    assert service.refresh() == 0
    assert service.indexed_version is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_serve_http_golden_over_the_wire(tmp_path):
    """`repro serve-http` answers exactly like direct query_knn."""
    store = make_store()
    store_path = tmp_path / "store.npz"
    save_store(store, store_path)

    buffer = io.StringIO()
    result: dict = {}

    def target():
        with redirect_stdout(buffer):
            result["rc"] = cli_main(
                [
                    "serve-http", "--store", f"g={store_path}",
                    "--port", "0", "--max-seconds", "4",
                ]
            )

    thread = threading.Thread(target=target)
    thread.start()
    try:
        deadline = time.monotonic() + 10
        port = None
        while time.monotonic() < deadline:
            match = re.search(r"http://127\.0\.0\.1:(\d+)", buffer.getvalue())
            if match:
                port = int(match.group(1))
                break
            time.sleep(0.05)
        assert port is not None, "daemon never announced its address"
        with urlopen(f"http://127.0.0.1:{port}/g/g/knn?node=7&k=5", timeout=5) as r:
            payload = json.load(r)
        with urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5) as r:
            health = json.load(r)
    finally:
        thread.join(timeout=15)
    assert result["rc"] == 0
    assert health["status"] == "ok"
    reference = EmbeddingService(store)
    assert neighbors_as_pairs(payload) == reference.query_knn(7, 5)


def test_cli_serve_http_rejects_bad_store(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="cannot load store"):
        cli_main(
            [
                "serve-http", "--store", f"g={tmp_path / 'missing.npz'}",
                "--port", "0", "--max-seconds", "0.1",
            ]
        )
