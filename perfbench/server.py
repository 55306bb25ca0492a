"""serve-knn's server process: an ``EmbeddingDaemon`` plus a publisher.

``perfbench/serve.py`` starts it as ``python3 -m perfbench.server`` and
talks to it over stdin/stdout:

1. it loads the store with ``load_store``, builds the service's index,
   binds an ephemeral port and prints ``READY <port>``;
2. on ``GO <t0>`` (a ``time.monotonic`` instant, shared by both
   processes) it publishes version ``i`` of the versions file at
   ``t0 + (i + 0.5) * cadence`` and, in a traced run, installs the
   library spans at ``t0 + trace_at``;
3. on ``STOP`` (or end of input) it closes the daemon, writes its result
   file and exits.

The daemon runs with ``serve-http``'s defaults: the service's default
index backend, max batch 64, window 0 and a 0.5 s reload poll.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.trace import Tracer, install_library_spans, layer_metrics
from repro.server import EmbeddingDaemon
from repro.serving import EmbeddingService, load_store

GRAPH = "g"


async def serve(args, store, service, pending) -> dict:
    daemon = EmbeddingDaemon({GRAPH: service})
    loop = asyncio.get_running_loop()
    await daemon.start(host="127.0.0.1", port=0)
    print(f"READY {daemon.port}", flush=True)
    publishes: list[dict] = []
    tracer = Tracer() if args.trace_at >= 0 else None

    async def publisher(t0: float) -> None:
        for i, (nodes, matrix) in enumerate(pending):
            due = t0 + (i + 0.5) * args.cadence
            await asyncio.sleep(max(0.0, due - time.monotonic()))
            started = time.monotonic()
            version = store.publish((nodes, matrix), time_step=i + 1)
            visible = time.monotonic()
            publishes.append(
                {"version": version, "visible": visible, "publish_s": visible - started}
            )

    async def trace_switch(t0: float) -> None:
        await asyncio.sleep(max(0.0, t0 + args.trace_at - time.monotonic()))
        install_library_spans(tracer)

    line = await loop.run_in_executor(None, sys.stdin.readline)
    tasks = []
    if line.startswith("GO "):
        t0 = float(line.split()[1])
        tasks.append(loop.create_task(publisher(t0)))
        if tracer is not None:
            tasks.append(loop.create_task(trace_switch(t0)))
        await loop.run_in_executor(None, sys.stdin.readline)
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    await daemon.close()
    result = {"publishes": publishes, "cache": service.cache_info}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        tracer.dump(Path(args.spans))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--versions", required=True)
    parser.add_argument("--cadence", type=float, required=True)
    parser.add_argument("--trace-at", type=float, default=-1.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    store = load_store(args.store)
    load_s = time.perf_counter() - started
    service = EmbeddingService(store)
    started = time.perf_counter()
    service.refresh()
    build_s = time.perf_counter() - started
    with np.load(args.versions) as archive:
        matrices = [archive[f"v{i}"] for i in range(len(archive.files))]
    pending = [(tuple(range(len(matrix))), matrix) for matrix in matrices]

    result = asyncio.run(serve(args, store, service, pending))
    result.update({
        "load_store_s": load_s,
        "index_build_s": build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
