"""The embedding-serving daemon: asyncio HTTP front door over stores.

``EmbeddingDaemon`` serves one or more named
:class:`~repro.serving.service.EmbeddingService` instances from a single
process and event loop:

* ``GET /healthz`` — liveness + per-graph version summary;
* ``GET /stats`` — QPS, batch-size histogram, latency p50/p99, hot-swap
  counters (:mod:`repro.server.stats`);
* ``GET /g/<name>/knn?node=..&k=..`` — similar-node lookup. Head
  queries ride the micro-batcher (:mod:`repro.server.batcher`);
  ``version=``-pinned queries time-travel through the store's exact
  scan and bypass batching;
* ``GET /g/<name>/score?u=..&v=..`` — edge scoring (``metric=cosine``
  or ``dot``);
* ``GET /g/<name>/embed?node=..`` — the raw embedding vector;
* ``GET /g/<name>/versions`` — the store's published history;
* ``POST /g/<name>/reload`` — force an index hot-swap now.

Hot reload: a trainer (``StreamingGloDyNE(publish_to=store)``) keeps
publishing new versions while the daemon serves. Before every batch
dispatch — and on a background poll when traffic is idle — the daemon
refreshes the serving index incrementally and swaps it to the new head.
The swap is synchronous event-loop code, so every request observes
exactly one version: whatever the head was when its batch dispatched.
A *failing* refresh (a malformed head publish) degrades instead of
erroring: the failure is counted (``reload_errors`` /
``last_reload_error``) and queries keep answering at the last indexed
version until a well-formed head lands.

Connections are keep-alive with an idle read timeout
(:data:`DEFAULT_IDLE_TIMEOUT`): a client that holds a connection open
without sending a request is answered ``408`` and disconnected, so
silent clients cannot pin connection tasks forever.

A graph whose store has no published versions yet (the daemon can
start before its trainer's first publish) answers ``503`` on
``knn``/``score``/``embed`` rather than surfacing an internal error.

Node ids in URLs use the JSON-ish convention of the CLI
(:func:`repro.server.http.parse_node_id`): ``node=3`` is the int 3,
``node="a"`` the string ``a``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Hashable, Mapping

from repro.serving.service import EmbeddingService
from repro.server.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW,
    MicroBatcher,
)
from repro.server.http import (
    ProtocolError,
    Request,
    parse_node_id,
    read_request,
    render_response,
)
from repro.server.stats import ServerStats

Node = Hashable

#: Idle-traffic hot-reload poll period, seconds.
DEFAULT_RELOAD_INTERVAL = 0.5

#: Idle keep-alive read timeout, seconds: how long a connection may sit
#: without sending a request before it is answered 408 and closed.
DEFAULT_IDLE_TIMEOUT = 60.0


class HTTPError(Exception):
    """A request-level failure carrying its HTTP status.

    Parameters
    ----------
    status:
        Response status code (4xx client errors, 5xx server errors).
    message:
        Problem description returned as ``{"error": message}``.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


class GraphEntry:
    """One served graph: its service, its batcher, its swap bookkeeping.

    Parameters
    ----------
    name:
        Route segment the graph serves under (``/g/<name>/...``).
    service:
        The query facade; its store is the graph's system of record.
    stats:
        The daemon's shared :class:`ServerStats`.
    max_batch, window:
        Micro-batcher tuning (see :class:`MicroBatcher`).
    reload_error_sink:
        Optional ``(graph name, error)`` callback invoked when a hot
        reload fails inside the batcher's degraded dispatch — the
        daemon surfaces it as ``last_reload_error`` on ``/healthz``.
    """

    def __init__(
        self,
        name: str,
        service: EmbeddingService,
        stats: ServerStats,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        window: float = DEFAULT_WINDOW,
        reload_error_sink=None,
    ) -> None:
        self.name = name
        self.service = service
        self.stats = stats
        self.reload_error_sink = reload_error_sink
        self.batcher = MicroBatcher(
            service,
            max_batch=max_batch,
            window=window,
            stats=stats,
            before_dispatch=self.maybe_reload,
            on_reload_error=self._on_reload_error,
        )

    def maybe_reload(self) -> int:
        """Swap the serving index to the store head if it moved.

        Incremental: only rows the new version actually moved re-hash
        (:meth:`EmbeddingService.refresh
        <repro.serving.service.EmbeddingService.refresh>`). Runs
        synchronously on the event loop, so concurrent requests never
        see a half-refreshed index. Returns the number of rows
        re-hashed (0 when already at head).
        """
        store = self.service.store
        if store.num_versions == 0:
            return 0
        if self.service.indexed_version == store.latest.version:
            return 0
        touched = self.service.refresh()
        self.stats.record_swap(touched)
        return touched

    def _on_reload_error(self, error: Exception) -> None:
        """Batcher reload-failure hook: forward to the daemon's sink."""
        if self.reload_error_sink is not None:
            self.reload_error_sink(self.name, error)

    def describe(self) -> dict:
        """Health payload for this graph: versions, head size, cache."""
        store = self.service.store
        head = store.latest if store.num_versions else None
        payload = {
            "versions": store.num_versions,
            "indexed_version": self.service.indexed_version,
            "head_version": None if head is None else head.version,
            "head_nodes": None if head is None else head.num_nodes,
            "dim": None if head is None else head.dim,
            "backend": self.service.index.backend_name,
            "cache": self.service.cache_info,
            "pending": self.batcher.pending,
        }
        index = self.service.index
        if getattr(index, "accepts_assignment", False):
            # Partition-aware backends surface their coarse-quantizer
            # shape so operators can see cell balance at a glance.
            sizes = index.cell_sizes
            payload["cells"] = {
                "count": index.num_cells,
                "nonempty": sum(1 for size in sizes if size),
                "largest": max(sizes, default=0),
                "nprobe": index.nprobe,
            }
        quantized = getattr(index, "quantized", None)
        if quantized is not None:
            payload["quantized"] = quantized
        if store.store_dir is not None:
            # Tiered stores report where the bytes live so operators
            # can watch spill/compaction take effect without shelling
            # into the box.
            payload["storage"] = store.storage_info()
        return payload


class EmbeddingDaemon:
    """Async HTTP daemon multiplexing named embedding services.

    Parameters
    ----------
    services:
        ``{route name: EmbeddingService}``. Names appear in URLs
        (``/g/<name>/knn``) and must be non-empty and ``/``-free.
    max_batch, window:
        Micro-batching knobs applied to every graph (see
        :class:`MicroBatcher`; ``max_batch=1`` disables coalescing).
    reload_interval:
        Idle hot-reload poll period in seconds (``> 0``); ``None``
        disables the background poller (swaps then only happen on the
        next batch dispatch or an explicit ``/reload``). Non-positive
        values are rejected — a zero sleep would busy-spin the loop.
    idle_timeout:
        Seconds a keep-alive connection may idle between requests
        before being answered ``408`` and closed (``> 0``); ``None``
        waits forever (what ``serve-http --idle-timeout 0`` selects).
    latency_window:
        Request latencies retained for the ``/stats`` percentiles.

    Examples
    --------
    >>> daemon = EmbeddingDaemon({"main": service})
    >>> await daemon.start(port=0)          # binds an ephemeral port
    >>> daemon.port
    54321
    >>> await daemon.close()
    """

    def __init__(
        self,
        services: Mapping[str, EmbeddingService],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        window: float = DEFAULT_WINDOW,
        reload_interval: float | None = DEFAULT_RELOAD_INTERVAL,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
        latency_window: int = 2048,
    ) -> None:
        if not services:
            raise ValueError("daemon needs at least one named service")
        if reload_interval is not None and reload_interval <= 0:
            raise ValueError(
                "reload_interval must be positive seconds, or None to "
                "disable the background poller"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                "idle_timeout must be positive seconds, or None to wait "
                "forever"
            )
        self.idle_timeout = idle_timeout
        self.stats = ServerStats(latency_window=latency_window)
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self.host: str | None = None
        self.port: int | None = None
        self.graphs: dict[str, GraphEntry] = {}
        self._max_batch = max_batch
        self._window = window
        for name, service in services.items():
            self.add_graph(name, service, max_batch=max_batch, window=window)
        self.reload_interval = reload_interval
        self._reload_task: asyncio.Task | None = None
        self.last_reload_error: str | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def add_graph(
        self,
        name: str,
        service: EmbeddingService,
        *,
        max_batch: int | None = None,
        window: float | None = None,
    ) -> GraphEntry:
        """Register ``service`` under ``/g/<name>/``; returns its entry."""
        if not name or "/" in name:
            raise ValueError(f"graph name must be non-empty and /-free: {name!r}")
        if name in self.graphs:
            raise ValueError(f"graph {name!r} is already served")
        entry = GraphEntry(
            name,
            service,
            self.stats,
            max_batch=self._max_batch if max_batch is None else max_batch,
            window=self._window if window is None else window,
            reload_error_sink=self._note_reload_error,
        )
        self.graphs[name] = entry
        return entry

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (``port=0``: ephemeral).

        The bound address is exposed as :attr:`host` / :attr:`port`.
        Also starts the background hot-reload poller unless
        ``reload_interval`` is None.
        """
        if self._server is not None:
            raise RuntimeError("daemon is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.reload_interval is not None:
            self._reload_task = asyncio.get_running_loop().create_task(
                self._reload_poller()
            )

    async def serve_forever(self) -> None:
        """Block serving until cancelled (pairs with :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain pending batches, and release the port."""
        if self._reload_task is not None:
            self._reload_task.cancel()
            try:
                await self._reload_task
            except asyncio.CancelledError:
                pass
            self._reload_task = None
        for entry in self.graphs.values():
            entry.batcher.flush()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open keep-alive connections outlive the listening socket; they
        # must be torn down explicitly or their tasks leak into teardown.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    def _note_reload_error(self, name: str, error: Exception) -> None:
        """Record a reload failure's message for ``/healthz`` surfacing."""
        self.last_reload_error = f"{name}: {type(error).__name__}: {error}"

    async def _reload_poller(self) -> None:
        """Swap idle graphs to their store heads every ``reload_interval``.

        A failing refresh (e.g. a trainer published a head with a
        mismatched dim) must not silently kill the poller for the
        daemon's lifetime: the error is counted, surfaced on
        ``/healthz``, and the poller keeps trying — the next publish may
        be well-formed again.
        """
        while True:
            await asyncio.sleep(self.reload_interval)
            for entry in self.graphs.values():
                try:
                    entry.maybe_reload()
                except Exception as error:
                    self.stats.reload_errors += 1
                    self._note_reload_error(entry.name, error)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive connection: read requests until close/error.

        An idle client — connected but not sending — is bounded by
        ``idle_timeout``: the read is abandoned, the connection answered
        ``408 Request Timeout`` and closed, and the task released. This
        also caps slow-loris clients that trickle partial requests.
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    if self.idle_timeout is None:
                        request = await read_request(reader)
                    else:
                        request = await asyncio.wait_for(
                            read_request(reader), self.idle_timeout
                        )
                except asyncio.TimeoutError:
                    self.stats.record_idle_timeout()
                    writer.write(
                        render_response(
                            408,
                            {
                                "error": "connection idle for "
                                f"{self.idle_timeout:g}s without a "
                                "complete request"
                            },
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except ProtocolError as error:
                    self.stats.record_protocol_error()
                    writer.write(
                        render_response(
                            error.status, {"error": str(error)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = time.perf_counter()
                status, payload = await self._dispatch(request)
                self.stats.record_request(
                    status, time.perf_counter() - started
                )
                writer.write(
                    render_response(
                        status, payload, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _dispatch(self, request: Request) -> tuple[int, object]:
        """Route one request; returns ``(status, JSON payload)``."""
        try:
            return 200, await self._route(request)
        except HTTPError as error:
            return error.status, {"error": str(error)}
        except KeyError as error:
            # Unknown node ids surface as KeyError from the store layer.
            return 404, {"error": str(error.args[0]) if error.args else "not found"}
        except LookupError as error:
            return 404, {"error": str(error)}
        except ValueError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # pragma: no cover - defensive
            return 500, {"error": f"{type(error).__name__}: {error}"}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, request: Request) -> object:
        """Resolve the handler for ``request`` (HTTPError on bad routes)."""
        parts = [part for part in request.path.split("/") if part]
        if parts == ["healthz"]:
            self._require(request, "GET")
            return self._healthz()
        if parts == ["stats"]:
            self._require(request, "GET")
            return self._stats()
        if len(parts) == 3 and parts[0] == "g":
            entry = self.graphs.get(parts[1])
            if entry is None:
                raise HTTPError(404, f"unknown graph {parts[1]!r}")
            handler = {
                "knn": self._knn,
                "score": self._score,
                "embed": self._embed,
                "versions": self._versions,
                "reload": self._reload,
            }.get(parts[2])
            if handler is None:
                raise HTTPError(404, f"unknown endpoint {parts[2]!r}")
            self._require(request, "POST" if parts[2] == "reload" else "GET")
            return await handler(entry, request)
        raise HTTPError(404, f"no route for {request.path!r}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        """405 unless the request used ``method``."""
        if request.method != method:
            raise HTTPError(
                405, f"{request.path} requires {method}, got {request.method}"
            )

    # ------------------------------------------------------------------
    # parameter parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _node_param(request: Request, name: str):
        raw = request.query.get(name)
        if raw is None:
            raise HTTPError(400, f"missing required query parameter {name!r}")
        return parse_node_id(raw)

    @staticmethod
    def _int_param(
        request: Request, name: str, *, default: int, minimum: int
    ) -> int:
        raw = request.query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HTTPError(400, f"{name} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise HTTPError(400, f"{name} must be >= {minimum}, got {value}")
        return value

    @staticmethod
    def _bool_param(request: Request, name: str, *, default: bool) -> bool:
        raw = request.query.get(name)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise HTTPError(400, f"{name} must be a boolean, got {raw!r}")

    @staticmethod
    def _version_param(request: Request) -> int | None:
        raw = request.query.get("version")
        if raw is None or raw == "":
            return None
        try:
            return int(raw)
        except ValueError:
            raise HTTPError(
                400, f"version must be an integer, got {raw!r}"
            ) from None

    # ------------------------------------------------------------------
    # endpoint handlers
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.stats.started_monotonic,
            "last_reload_error": self.last_reload_error,
            "graphs": {
                name: entry.describe() for name, entry in self.graphs.items()
            },
        }

    def _stats(self) -> dict:
        snapshot = self.stats.snapshot()
        snapshot["graphs"] = {
            name: entry.describe() for name, entry in self.graphs.items()
        }
        return snapshot

    @staticmethod
    def _require_published(entry: GraphEntry) -> None:
        """503 while the graph's store has nothing published yet.

        The daemon can come up before its trainer's first publish;
        until then query routes are *unavailable* (retryable), not
        erroring — and ``/healthz`` / ``/versions`` still answer.
        """
        if entry.service.store.num_versions == 0:
            raise HTTPError(
                503,
                f"graph {entry.name!r} has no published versions yet",
            )

    async def _knn(self, entry: GraphEntry, request: Request) -> dict:
        self._require_published(entry)
        node = self._node_param(request, "node")
        k = self._int_param(request, "k", default=10, minimum=1)
        exclude_self = self._bool_param(request, "exclude_self", default=True)
        version = self._version_param(request)
        if version is None:
            # The served version is captured inside the dispatch —
            # reading it here, after the await, would race a hot swap
            # landing before this coroutine resumed.
            result, served = await entry.batcher.query_with_version(
                node, k, exclude_self=exclude_self
            )
        else:
            # Pinned versions bypass the batcher: they scan immutable
            # history exactly and must not ride the head's batch.
            self.stats.record_knn()
            result = entry.service.query_knn(
                node, k, version=version, exclude_self=exclude_self
            )
            served = entry.service.store.resolve_version(version)
        return {
            "graph": entry.name,
            "node": node,
            "k": k,
            "version": served,
            "neighbors": [
                {"node": neighbor, "score": score} for neighbor, score in result
            ],
        }

    async def _score(self, entry: GraphEntry, request: Request) -> dict:
        self._require_published(entry)
        u = self._node_param(request, "u")
        v = self._node_param(request, "v")
        metric = request.query.get("metric", "cosine")
        version = self._version_param(request)
        score = entry.service.score_edge(u, v, version=version, metric=metric)
        return {
            "graph": entry.name,
            "u": u,
            "v": v,
            "metric": metric,
            "version": entry.service.store.resolve_version(version),
            "score": score,
        }

    async def _embed(self, entry: GraphEntry, request: Request) -> dict:
        self._require_published(entry)
        node = self._node_param(request, "node")
        version = self._version_param(request)
        record = entry.service.store.version(version)
        vector = record.vector(node)
        return {
            "graph": entry.name,
            "node": node,
            "version": record.version,
            "dim": record.dim,
            "vector": [float(x) for x in vector],
        }

    async def _versions(self, entry: GraphEntry, request: Request) -> dict:
        store = entry.service.store
        return {
            "graph": entry.name,
            "versions": [
                {
                    "version": record.version,
                    "time_step": record.time_step,
                    "nodes": record.num_nodes,
                    "dim": record.dim,
                    "metadata": record.metadata,
                }
                for record in store
            ],
            "indexed_version": entry.service.indexed_version,
        }

    async def _reload(self, entry: GraphEntry, request: Request) -> dict:
        touched = entry.maybe_reload()
        return {
            "graph": entry.name,
            "indexed_version": entry.service.indexed_version,
            "rows_rehashed": touched,
        }
