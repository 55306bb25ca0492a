"""Async embedding-serving daemon: the network front door to ``repro.serving``.

``repro.serving`` gives one process a versioned store, a kNN index, and
a query facade; this package puts them behind an HTTP boundary so many
clients can share them:

* :class:`~repro.server.daemon.EmbeddingDaemon` — asyncio HTTP/1.1
  daemon (stdlib only) multiplexing named
  :class:`~repro.serving.service.EmbeddingService` instances under
  ``/g/<name>/...``, with ``/healthz`` and ``/stats``;
* :class:`~repro.server.batcher.MicroBatcher` — request micro-batching:
  concurrent ``/knn`` lookups coalesce (per event-loop tick, or a
  configurable hold-back window, up to 64 per dispatch) into one
  ``query_knn_batch`` dispatch, bit-identical to unbatched answers on
  the LSH backend;
* :class:`~repro.server.stats.ServerStats` — QPS, batch-size histogram,
  latency percentiles, hot-swap counters;
* :mod:`repro.server.http` — the minimal HTTP framing layer.

Start one from the CLI (``python -m repro serve-http --store
main=store.npz``), or in-process::

    daemon = EmbeddingDaemon({"main": EmbeddingService(store)})
    await daemon.start(port=8080)
    await daemon.serve_forever()

See ``examples/http_serving.py`` for a full client walkthrough and
``benchmarks/bench_server_qps.py`` for the batched-vs-unbatched QPS
telemetry.
"""

from repro.server.batcher import MicroBatcher
from repro.server.daemon import EmbeddingDaemon, GraphEntry, HTTPError
from repro.server.http import ProtocolError, parse_node_id
from repro.server.stats import ServerStats

__all__ = [
    "EmbeddingDaemon",
    "GraphEntry",
    "HTTPError",
    "MicroBatcher",
    "ProtocolError",
    "ServerStats",
    "parse_node_id",
]
