"""Command-line interface: embed, evaluate, and inspect dynamic networks.

Usage::

    python -m repro datasets
    python -m repro embed --dataset elec-sim --method glodyne --out emb.npz
    python -m repro evaluate --dataset elec-sim --method glodyne --task gr
    python -m repro analyze --dataset fbw-sim
    python -m repro stream --dataset elec-sim --flush-events 400
    python -m repro serve --dataset elec-sim --store store.npz
    python -m repro serve-http --store main=store.npz --port 8080
    python -m repro query --store store.npz --node 3 --k 10

The CLI wires together the same public APIs the examples use; it exists so
a downstream user can reproduce a single cell of a paper table without
writing code.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import (
    BCGDGlobal,
    BCGDLocal,
    DynGEM,
    DynLINE,
    DynTriad,
    GloDyNE,
    SGNSIncrement,
    SGNSRetrain,
    SGNSStatic,
    TNE,
)
from repro.base import DynamicEmbeddingMethod
from repro.datasets import list_datasets, load_dataset
from repro.experiments import render_table, run_method
from repro.pipeline import EngineSpec, add_engine_flags, engine_spec_from_args
from repro.tasks import (
    graph_reconstruction_over_time,
    link_prediction_over_time,
    node_classification_over_time,
)

# Hyper-parameter presets: "paper" mirrors §5.1.2 (r=10, l=80, s=10, q=5,
# 5 epochs), "quick" is a laptop-friendly smoke profile.
PROFILES = {
    "paper": dict(
        walk=dict(num_walks=10, walk_length=80, window_size=10, epochs=5),
        bcgd_iterations=100,
        dyngem=dict(epochs=40, warm_epochs=15),
    ),
    "quick": dict(
        walk=dict(num_walks=3, walk_length=12, window_size=4, epochs=2),
        bcgd_iterations=30,
        dyngem=dict(epochs=10, warm_epochs=4),
    ),
}


def _builders(profile: dict, engine: EngineSpec | None = None) -> dict:
    """Per-method constructors for one profile and one engine spec.

    The engine knobs (workers, kernel backend, chunk sizing, prefetch,
    incremental partition maintenance) come from the single
    :class:`~repro.pipeline.EngineSpec` — every Skip-Gram-walk method
    takes the same ``engine.kwargs()`` dict, so a new engine knob is one
    new ``EngineSpec`` field plus the constructor parameter that consumes
    it. The dense baselines have no parallel hot path and ignore the
    spec entirely.
    """
    engine = engine if engine is not None else EngineSpec()
    walk = profile["walk"]
    iters = profile["bcgd_iterations"]
    dyngem = profile["dyngem"]
    walk_par = dict(walk, **engine.kwargs())
    return {
        "glodyne": lambda dim, seed: GloDyNE(
            dim=dim, alpha=0.1, seed=seed, **walk_par
        ),
        "sgns-static": lambda dim, seed: SGNSStatic(
            dim=dim, seed=seed, **walk_par
        ),
        "sgns-retrain": lambda dim, seed: SGNSRetrain(
            dim=dim, seed=seed, **walk_par
        ),
        "sgns-increment": lambda dim, seed: SGNSIncrement(
            dim=dim, seed=seed, **walk_par
        ),
        "bcgd-global": lambda dim, seed: BCGDGlobal(
            dim=dim, iterations=iters, seed=seed
        ),
        "bcgd-local": lambda dim, seed: BCGDLocal(
            dim=dim, iterations=iters, seed=seed
        ),
        "dyngem": lambda dim, seed: DynGEM(dim=dim, seed=seed, **dyngem),
        "dynline": lambda dim, seed: DynLINE(dim=dim, seed=seed),
        "dyntriad": lambda dim, seed: DynTriad(dim=dim, seed=seed),
        "tne": lambda dim, seed: TNE(dim=dim, seed=seed, **walk_par),
    }


METHOD_NAMES = sorted(_builders(PROFILES["quick"]))

#: Flag respellings for subcommands where a canonical engine flag is
#: taken: the serving commands already use ``--backend``/``--index`` for
#: the serving *index*, so the kernel backend surfaces there as
#: ``--kernel-backend``.
ENGINE_FLAG_RENAMES: dict[str, dict[str, str]] = {
    "serve": {"backend": "--kernel-backend"},
    "serve-http": {"backend": "--kernel-backend"},
}

#: ``{subcommand: {EngineSpec field: flag}}`` actually registered by the
#: last :func:`make_parser` call — the spec↔CLI drift gate in
#: ``tests/test_pipeline_spec.py`` checks it both ways.
ENGINE_FLAGS_BY_COMMAND: dict[str, dict[str, str]] = {}


def build_method(
    name: str, dim: int, seed: int, profile: str = "quick",
    engine: EngineSpec | None = None,
) -> DynamicEmbeddingMethod:
    """Construct one method by CLI name, profile preset and engine spec."""
    try:
        builders = _builders(PROFILES[profile], engine=engine)
    except KeyError:
        raise SystemExit(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        ) from None
    try:
        return builders[name](dim, seed)
    except KeyError:
        raise SystemExit(
            f"unknown method {name!r}; choose from {METHOD_NAMES}"
        ) from None


def cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    from repro.datasets import get_spec

    for name in list_datasets():
        spec = get_spec(name)
        rows.append(
            [
                name,
                spec.paper_dataset,
                "yes" if spec.has_labels else "no",
                "yes" if spec.has_deletions else "no",
                str(spec.default_snapshots),
                spec.description,
            ]
        )
    print(
        render_table(
            ["name", "paper", "labels", "deletions", "snapshots", "description"],
            rows,
            title="registered simulated datasets",
        )
    )
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    network = load_dataset(
        args.dataset, scale=args.scale, seed=args.data_seed,
        snapshots=args.snapshots,
    )
    method = build_method(
        args.method, args.dim, args.seed, args.profile,
        engine=engine_spec_from_args(args),
    )
    started = time.perf_counter()
    result = run_method(method, network)
    elapsed = time.perf_counter() - started
    if not result.ok:
        print(f"n/a: {result.not_available}", file=sys.stderr)
        return 1
    print(
        f"embedded {network.name}: {network.num_snapshots} snapshots "
        f"in {elapsed:.2f}s ({result.total_seconds:.2f}s embedding time)"
    )
    traces = [t for t in result.step_traces if t is not None]
    if traces:
        print(
            f"per step: {np.mean([t.num_selected for t in traces]):.0f} "
            f"selected nodes, {np.mean([t.num_pairs for t in traces]):,.0f} "
            "training pairs (mean)"
        )
    stages = result.stage_seconds
    if stages:
        print(
            "stage seconds: "
            + ", ".join(f"{name} {secs:.2f}" for name, secs in stages.items())
        )
    if args.out:
        final = result.embeddings[-1]
        nodes = sorted(final, key=repr)
        np.savez(
            args.out,
            nodes=np.array([str(n) for n in nodes]),
            embeddings=np.stack([final[n] for n in nodes]),
        )
        print(f"wrote final-snapshot embeddings -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    network = load_dataset(
        args.dataset, scale=args.scale, seed=args.data_seed,
        snapshots=args.snapshots,
    )
    method = build_method(
        args.method, args.dim, args.seed, args.profile,
        engine=engine_spec_from_args(args),
    )
    result = run_method(method, network)
    if not result.ok:
        print(f"n/a: {result.not_available}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    rows = []
    tasks = args.task.split(",")
    if "gr" in tasks:
        scores = graph_reconstruction_over_time(
            result.embeddings, network, [1, 5, 10, 20, 40]
        )
        rows.extend(
            [f"GR MeanP@{k}", f"{v * 100:.2f}%"] for k, v in scores.items()
        )
    if "lp" in tasks:
        auc = link_prediction_over_time(result.embeddings, network, rng)
        rows.append(["LP AUC", f"{auc * 100:.2f}%"])
    if "nc" in tasks:
        if not network.labels:
            rows.append(["NC", "dataset has no labels"])
        else:
            for ratio in (0.5, 0.7, 0.9):
                scores = node_classification_over_time(
                    result.embeddings, network, ratio, rng, min_labeled=20
                )
                rows.append(
                    [
                        f"NC F1 @ {ratio}",
                        f"micro {scores.micro_f1 * 100:.2f}% / "
                        f"macro {scores.macro_f1 * 100:.2f}%",
                    ]
                )
    rows.append(["embed time", f"{result.total_seconds:.2f}s"])
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"{args.method} on {args.dataset}",
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import inactive_subnetworks, proximity_change_profile

    network = load_dataset(
        args.dataset, scale=args.scale, seed=args.data_seed,
        snapshots=args.snapshots,
    )
    rng = np.random.default_rng(0)
    report = inactive_subnetworks(
        network, cell_size=args.cell_size, min_streak=5, rng=rng
    )
    print(
        f"{network.name}: {report.num_cells} cells, "
        f"{report.cells_with_streak} with a >=5-step quiet streak "
        f"({report.inactive_fraction * 100:.0f}%)"
    )
    for length, count in sorted(report.streak_histogram.items()):
        print(f"  quiet {length} steps: {count} sub-networks")
    profile = proximity_change_profile(network, max_sources=32, rng=rng)
    per_edge = [p.change_per_edge for p in profile if p.num_changed_edges]
    if per_edge:
        print(
            f"Δsp per changed edge: mean {np.mean(per_edge):.1f}, "
            f"max {np.max(per_edge):.1f}"
        )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a dataset as an edge-event stream through StreamingGloDyNE."""
    from repro.streaming import FlushPolicy, StreamingGloDyNE, network_to_events

    network = load_dataset(
        args.dataset, scale=args.scale, seed=args.data_seed,
        snapshots=args.snapshots,
    )
    events = network_to_events(network)
    walk = PROFILES[args.profile]["walk"]
    try:
        policy = FlushPolicy(
            max_events=args.flush_events or None,
            max_seconds=args.flush_seconds,
            max_touched_edges=args.flush_changed_edges,
        )
    except ValueError as error:
        raise SystemExit(f"invalid flush policy: {error}") from None
    engine = StreamingGloDyNE(
        seed=args.seed, policy=policy, dim=args.dim, alpha=0.1,
        **engine_spec_from_args(args).kwargs(), **walk,
    )
    started = time.perf_counter()
    results = engine.ingest_many(events)
    if engine.pending_events:
        results.append(engine.flush())
    elapsed = time.perf_counter() - started

    rows = [
        [
            str(r.time_step),
            r.trigger,
            str(r.num_events),
            str(r.num_nodes),
            str(r.trace.num_selected),
            str(r.trace.num_pairs),
            f"{r.seconds * 1e3:.1f}ms",
        ]
        for r in results
    ]
    print(
        render_table(
            ["flush", "trigger", "events", "nodes", "selected", "pairs",
             "latency"],
            rows,
            title=f"streamed {network.name}: {len(events)} events",
        )
    )
    print(
        f"{len(events)} events in {elapsed:.2f}s "
        f"({len(events) / max(elapsed, 1e-9):,.0f} events/sec end-to-end, "
        f"{len(results)} flushes)"
    )
    return 0


def _parse_node(raw: str):
    """CLI node ids: JSON when it parses (ints stay ints), else raw str."""
    from repro.server.http import parse_node_id

    return parse_node_id(raw)


def _parse_compact(spec: str) -> tuple[int, int | None]:
    """Parse a ``--compact HEAD_N[:EVERY_K]`` spec into policy knobs."""
    head, sep, every = spec.partition(":")
    try:
        head_n = int(head)
        every_k = int(every) if sep else None
    except ValueError:
        raise SystemExit(
            f"bad --compact spec {spec!r}: expected HEAD_N or HEAD_N:EVERY_K "
            "(e.g. 4 or 4:10)"
        ) from None
    return head_n, every_k


def cmd_serve(args: argparse.Namespace) -> int:
    """Stream a dataset into a versioned embedding store and save it."""
    from repro.serving import EmbeddingStore, save_store
    from repro.streaming import FlushPolicy, StreamingGloDyNE, network_to_events

    network = load_dataset(
        args.dataset, scale=args.scale, seed=args.data_seed,
        snapshots=args.snapshots,
    )
    events = network_to_events(network)
    walk = PROFILES[args.profile]["walk"]
    store = EmbeddingStore(store_dir=args.store_dir)
    engine = StreamingGloDyNE(
        seed=args.seed, policy=FlushPolicy(max_events=args.flush_events),
        publish_to=store, dim=args.dim, alpha=0.1,
        **engine_spec_from_args(args, ENGINE_FLAG_RENAMES["serve"]).kwargs(),
        **walk,
    )
    started = time.perf_counter()
    engine.ingest_many(events)
    if engine.pending_events:
        engine.flush()
    elapsed = time.perf_counter() - started

    rows = [
        [
            str(record.version),
            str(record.time_step),
            str(record.num_nodes),
            str(record.dim),
            str(record.metadata.get("trigger", "?")),
            str(record.metadata.get("num_events", "?")),
        ]
        for record in store
    ]
    print(
        render_table(
            ["version", "step", "nodes", "dim", "trigger", "events"],
            rows,
            title=f"served {network.name}: {len(events)} events -> "
            f"{store.num_versions} versions in {elapsed:.2f}s",
        )
    )
    if args.compact:
        head_n, every_k = _parse_compact(args.compact)
        dropped = store.compact(keep_head_n=head_n, keep_every_k=every_k)
        print(
            f"compacted store: dropped {len(dropped)} version(s) "
            f"({store.num_versions - len(store.tombstones)} kept)"
        )
    save_store(store, args.store)
    print(f"wrote versioned store -> {args.store}")
    if args.index:
        # Smoke-validate the saved store against the chosen serving
        # backend before handing it to serve-http / query.
        service = _make_service(store, args.index, args.quantize)
        node = store.latest.nodes[0]
        k = min(3, max(1, store.latest.num_nodes - 1))
        neighbors = service.query_knn(node, k=k)
        shown = ", ".join(f"{n!r}:{s:.3f}" for n, s in neighbors)
        print(f"smoke query [{service.index.backend_name}] {node!r} -> {shown}")
    return 0


def _make_service(store, backend: str, quantized: str | None):
    """Build an :class:`EmbeddingService`, mapping bad knob combos to exit 2."""
    from repro.serving import EmbeddingService

    try:
        return EmbeddingService(store, backend=backend, quantized=quantized)
    except ValueError as error:
        raise SystemExit(f"bad backend configuration: {error}") from None


def cmd_query(args: argparse.Namespace) -> int:
    """Query a saved embedding store: kNN lookups and edge scoring."""
    from repro.serving import load_store

    try:
        store = load_store(args.store)
    except (OSError, ValueError) as error:
        print(f"cannot load store {args.store!r}: {error}", file=sys.stderr)
        return 1
    service = _make_service(store, args.backend, args.quantize)
    try:
        record = store.version(args.version)
    except LookupError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(
        f"store {args.store}: {store.num_versions} versions, querying "
        f"version {record.version} ({record.num_nodes} nodes, "
        f"dim {record.dim}, backend {service.index.backend_name})"
    )
    status = 0
    if args.node is not None:
        node = _parse_node(args.node)
        try:
            neighbors = service.query_knn(
                node, k=args.k, version=args.version
            )
        except KeyError:
            print(f"node {node!r} not in version {record.version}",
                  file=sys.stderr)
            return 1
        rows = [[repr(n), f"{score:.4f}"] for n, score in neighbors]
        print(
            render_table(
                ["node", "cosine"], rows,
                title=f"top-{args.k} similar to {node!r}",
            )
        )
    if args.edge:
        u, v = (_parse_node(raw) for raw in args.edge)
        try:
            score = service.score_edge(
                u, v, version=args.version, metric=args.metric
            )
        except KeyError as error:
            print(f"cannot score edge: {error}", file=sys.stderr)
            return 1
        print(f"score({u!r}, {v!r}) [{args.metric}] = {score:.4f}")
    if args.node is None and not args.edge:
        print("nothing to do: pass --node and/or --edge", file=sys.stderr)
        status = 2
    return status


def _http_services(args: argparse.Namespace) -> dict:
    """Build the ``{name: EmbeddingService}`` map ``serve-http`` fronts.

    Each ``--store [NAME=]PATH`` loads a saved versioned store (NAME
    defaults to the file stem); with no ``--store`` the command streams
    ``--dataset`` into a fresh in-memory store first, so a bare
    ``repro serve-http`` serves something real out of the box.

    ``--store-dir`` tiers every loaded store: cold versions spill to
    mmap files under ``<store-dir>/<name>``, so serving a long history
    costs RAM for the hot window only. ``--compact`` applies a GC pass
    per store after load; ``--quantize`` switches candidate scans to
    the int8 codec (exact float32 rerank keeps results bit-identical
    top-k for the rerank depth).
    """
    from pathlib import Path

    from repro.serving import EmbeddingStore, load_store

    compact = _parse_compact(args.compact) if args.compact else None
    services: dict = {}
    for spec in args.store or []:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = Path(spec).stem, spec
        if not name:
            raise SystemExit(f"empty graph name in --store {spec!r}")
        if name in services:
            raise SystemExit(f"duplicate graph name {name!r} in --store")
        spill_dir = Path(args.store_dir) / name if args.store_dir else None
        try:
            store = load_store(path, store_dir=spill_dir)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot load store {path!r}: {error}") from None
        if compact is not None:
            store.compact(keep_head_n=compact[0], keep_every_k=compact[1])
        services[name] = _make_service(store, args.backend, args.quantize)
    if not services:
        from repro.streaming import (
            FlushPolicy,
            StreamingGloDyNE,
            network_to_events,
        )

        network = load_dataset(
            args.dataset, scale=args.scale, seed=args.data_seed,
            snapshots=args.snapshots,
        )
        spill_dir = (
            Path(args.store_dir) / args.dataset if args.store_dir else None
        )
        store = EmbeddingStore(store_dir=spill_dir)
        engine = StreamingGloDyNE(
            seed=args.seed, policy=FlushPolicy(max_events=args.flush_events),
            publish_to=store, dim=args.dim, alpha=0.1,
            **engine_spec_from_args(
                args, ENGINE_FLAG_RENAMES["serve-http"]
            ).kwargs(),
            **PROFILES[args.profile]["walk"],
        )
        engine.ingest_many(network_to_events(network))
        if engine.pending_events:
            engine.flush()
        if compact is not None:
            store.compact(keep_head_n=compact[0], keep_every_k=compact[1])
        services[args.dataset] = _make_service(
            store, args.backend, args.quantize
        )
    return services


def cmd_serve_http(args: argparse.Namespace) -> int:
    """Serve embedding stores over HTTP with request micro-batching."""
    import asyncio

    from repro.server import EmbeddingDaemon

    services = _http_services(args)
    # 0 (or negative) disables the idle-connection timeout: keep-alive
    # clients may then hold sockets open indefinitely.
    idle_timeout = args.idle_timeout if args.idle_timeout > 0 else None
    daemon = EmbeddingDaemon(
        services,
        max_batch=args.max_batch,
        window=args.batch_window_ms / 1e3,
        # 0 (or negative) disables the idle poller rather than spinning
        # the event loop; swaps then happen on dispatch / POST reload.
        reload_interval=(
            args.reload_interval if args.reload_interval > 0 else None
        ),
        idle_timeout=idle_timeout,
    )

    async def run() -> None:
        await daemon.start(host=args.host, port=args.port)
        print(
            f"serving {len(services)} graph(s) on "
            f"http://{daemon.host}:{daemon.port} "
            f"(batch window {args.batch_window_ms}ms, max {args.max_batch})"
        )
        for name, service in services.items():
            print(
                f"  /g/{name}/knn  [{service.store.num_versions} versions, "
                f"backend {service.index.backend_name}]"
            )
        print("endpoints: /healthz /stats "
              "/g/<name>/{knn,score,embed,versions,reload}")
        try:
            if args.max_seconds is not None:
                await asyncio.sleep(args.max_seconds)
            else:
                await daemon.serve_forever()
        finally:
            await daemon.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted — shutting down")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GloDyNE reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list simulated datasets")

    def engine_flags(p: argparse.ArgumentParser, command: str) -> None:
        """Generate the engine-knob flags for one subcommand.

        One :func:`~repro.pipeline.add_engine_flags` call per subcommand
        — the flags, help text and defaults all come from
        :class:`~repro.pipeline.EngineSpec` field metadata, so an engine
        knob added there appears on every one of these subcommands with
        no CLI edit.
        """
        ENGINE_FLAGS_BY_COMMAND[command] = add_engine_flags(
            p, ENGINE_FLAG_RENAMES.get(command)
        )

    def common(p: argparse.ArgumentParser, command: str) -> None:
        p.add_argument("--dataset", default="elec-sim")
        p.add_argument("--method", default="glodyne")
        p.add_argument("--dim", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--data-seed", type=int, default=0)
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--snapshots", type=int, default=None)
        p.add_argument(
            "--profile", default="quick", choices=sorted(PROFILES),
            help="hyper-parameter preset (paper = §5.1.2 settings)",
        )
        engine_flags(p, command)

    embed = sub.add_parser("embed", help="embed a dynamic network")
    common(embed, "embed")
    embed.add_argument("--out", default=None, help="write final Z^T as .npz")

    evaluate = sub.add_parser("evaluate", help="embed + run downstream tasks")
    common(evaluate, "evaluate")
    evaluate.add_argument(
        "--task", default="gr,lp", help="comma list from {gr,lp,nc}"
    )

    analyze = sub.add_parser("analyze", help="Figure 1 style analyses")
    analyze.add_argument("--dataset", default="fbw-sim")
    analyze.add_argument("--data-seed", type=int, default=0)
    analyze.add_argument("--scale", type=float, default=0.5)
    analyze.add_argument("--snapshots", type=int, default=None)
    analyze.add_argument("--cell-size", type=int, default=15)

    stream = sub.add_parser(
        "stream", help="replay a dataset as edge events through the "
        "streaming engine",
    )
    stream.add_argument("--dataset", default="elec-sim")
    stream.add_argument("--dim", type=int, default=32)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--data-seed", type=int, default=0)
    stream.add_argument("--scale", type=float, default=0.5)
    stream.add_argument("--snapshots", type=int, default=None)
    stream.add_argument(
        "--profile", default="quick", choices=sorted(PROFILES),
        help="hyper-parameter preset for the underlying GloDyNE model",
    )
    engine_flags(stream, "stream")
    stream.add_argument(
        "--flush-events", type=int, default=400,
        help="flush after this many events (None-able via 0)",
    )
    stream.add_argument(
        "--flush-seconds", type=float, default=None,
        help="flush when the open window is older than this many seconds",
    )
    stream.add_argument(
        "--flush-changed-edges", type=int, default=None,
        help="flush after this many distinct edges changed",
    )

    serve = sub.add_parser(
        "serve", help="stream a dataset into a versioned embedding store",
    )
    serve.add_argument("--dataset", default="elec-sim")
    serve.add_argument("--dim", type=int, default=32)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--data-seed", type=int, default=0)
    serve.add_argument("--scale", type=float, default=0.5)
    serve.add_argument("--snapshots", type=int, default=None)
    serve.add_argument(
        "--profile", default="quick", choices=sorted(PROFILES),
        help="hyper-parameter preset for the underlying GloDyNE model",
    )
    engine_flags(serve, "serve")
    serve.add_argument(
        "--flush-events", type=int, default=400,
        help="publish a new store version after this many events",
    )
    serve.add_argument(
        "--store", default="store.npz",
        help="output path for the versioned store (.npz)",
    )
    serve.add_argument(
        "--index", default=None, choices=["lsh", "exact", "ivf"],
        help="after saving, smoke-validate the store against this serving "
        "backend with one kNN query",
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="tier the store: spill cold versions to mmap files under DIR "
        "(default: keep every version resident in RAM)",
    )
    serve.add_argument(
        "--compact", default=None, metavar="HEAD_N[:EVERY_K]",
        help="GC the store before saving: keep the newest HEAD_N versions "
        "plus every EVERY_K-th (compacted ids tombstone, never renumber)",
    )
    serve.add_argument(
        "--quantize", default=None, choices=["int8"],
        help="candidate-scan codec for the --index smoke query (int8 scan "
        "+ exact float32 rerank; needs --index exact or ivf)",
    )

    serve_http = sub.add_parser(
        "serve-http",
        help="HTTP daemon over saved stores with request micro-batching",
    )
    serve_http.add_argument(
        "--store", action="append", metavar="[NAME=]PATH", default=None,
        help="versioned store .npz to serve under /g/<NAME>/ (repeatable; "
        "NAME defaults to the file stem)",
    )
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port",
    )
    serve_http.add_argument(
        "--backend", "--index", dest="backend", default="lsh",
        choices=["lsh", "exact", "ivf"],
        help="serving index backend (--index is an alias); ivf reuses "
        "published partition cells as its coarse quantizer",
    )
    serve_http.add_argument(
        "--batch-window-ms", type=float, default=0.0,
        help="extra milliseconds a lone request waits for company "
        "(0 = coalesce per event-loop tick, no added latency)",
    )
    serve_http.add_argument(
        "--max-batch", type=int, default=64,
        help="dispatch once this many requests coalesced (1 disables "
        "micro-batching)",
    )
    serve_http.add_argument(
        "--reload-interval", type=float, default=0.5,
        help="idle hot-reload poll period in seconds (0 disables the "
        "poller; swaps still happen on query dispatch)",
    )
    serve_http.add_argument(
        "--max-seconds", type=float, default=None,
        help="serve for this long then exit cleanly (smoke tests; "
        "default: forever)",
    )
    serve_http.add_argument(
        "--idle-timeout", type=float, default=60.0,
        help="seconds an idle keep-alive connection may wait between "
        "requests before being answered 408 and closed (0 disables)",
    )
    # With no --store, stream --dataset into an in-memory store first.
    serve_http.add_argument("--dataset", default="elec-sim")
    serve_http.add_argument("--dim", type=int, default=32)
    serve_http.add_argument("--seed", type=int, default=0)
    serve_http.add_argument("--data-seed", type=int, default=0)
    serve_http.add_argument("--scale", type=float, default=0.5)
    serve_http.add_argument("--snapshots", type=int, default=None)
    serve_http.add_argument(
        "--profile", default="quick", choices=sorted(PROFILES),
    )
    engine_flags(serve_http, "serve-http")
    serve_http.add_argument("--flush-events", type=int, default=400)
    serve_http.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="tier every served store: spill cold versions to mmap files "
        "under DIR/<name> (default: all versions resident in RAM)",
    )
    serve_http.add_argument(
        "--compact", default=None, metavar="HEAD_N[:EVERY_K]",
        help="GC each store after load: keep the newest HEAD_N versions "
        "plus every EVERY_K-th (compacted ids tombstone, never renumber)",
    )
    serve_http.add_argument(
        "--quantize", default=None, choices=["int8"],
        help="int8 candidate scans with exact float32 rerank (needs "
        "--backend exact or ivf)",
    )

    query = sub.add_parser(
        "query", help="kNN lookups / edge scoring against a saved store",
    )
    query.add_argument("--store", required=True, help="store .npz to load")
    query.add_argument(
        "--node", default=None,
        help="node id to look up (JSON-parsed: 3 is an int, '\"a\"' a str)",
    )
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--edge", nargs=2, metavar=("U", "V"), default=None,
        help="score a node pair instead of / as well as a kNN lookup",
    )
    query.add_argument(
        "--metric", default="cosine", choices=["cosine", "dot"],
    )
    query.add_argument(
        "--backend", "--index", dest="backend", default="lsh",
        choices=["lsh", "exact", "ivf"],
        help="serving index backend (--index is an alias)",
    )
    query.add_argument(
        "--version", type=int, default=None,
        help="store version to query (default: latest; negatives count back)",
    )
    query.add_argument(
        "--quantize", default=None, choices=["int8"],
        help="int8 candidate scans with exact float32 rerank (needs "
        "--backend exact or ivf)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "embed": cmd_embed,
        "evaluate": cmd_evaluate,
        "analyze": cmd_analyze,
        "stream": cmd_stream,
        "serve": cmd_serve,
        "serve-http": cmd_serve_http,
        "query": cmd_query,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
