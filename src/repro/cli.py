"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the package version and the paper-default configuration.
``figure FIG [--scale small|medium|paper]``
    Regenerate one figure of the paper's evaluation (e.g. ``fig10``).
``demo``
    A 30-second tour: traditional vs Fork Path on one trace.
``mix MIXNAME``
    Full-system comparison on one Table 2 mix (see
    ``examples/mix_simulation.py`` for the long-form version).
``serve``
    Run the oblivious key-value service (``repro.serve``) until
    interrupted; configure with ``--set service.*`` overrides
    (``docs/SERVICE.md`` documents the wire protocol).
``cluster --shards K [--workers inline|process]``
    Run the sharded service (``repro.cluster``): K independent
    fork-path shards behind the oblivious round-robin dispatcher
    (``docs/CLUSTER.md``). ``--workers process`` spawns one supervised
    worker process per shard (true multi-core scaling).
``worker --shard K --config-json JSON``
    Internal: one shard worker process, spawned and supervised by
    ``cluster --workers process``.
``loadgen --port P``
    Drive a running service with concurrent verifying clients
    (``--hot-span N`` skews each client onto a hot address range;
    ``--arrival poisson|burst|onoff --rate R`` switches to seeded
    open-loop arrivals; ``--tenants N --tenant-skew S`` draws
    addresses from Zipf-weighted tenant sub-slices).
``compact PATH``
    Compact a ``FileBackend`` append log down to its live record set.
``replicate --port P --dir DIR``
    Tail a running service's replication stream into a local replica
    directory (WAL + sealed checkpoints) as a warm standby
    (``docs/REPLICATION.md``).
``promote --dir DIR``
    Recover from a replica directory (newest sealed checkpoint + WAL
    replay) and serve as the new primary.
``validate-trace FILE [...]``
    Validate JSONL event traces against the ``repro.obs`` schema
    (exit 1 on the first invalid file; used by CI).

``serve``, ``cluster``, ``worker`` and ``promote`` stop gracefully on
SIGTERM/SIGINT: closing checkpoint sealed, backends synced and closed,
worker processes shut down, exit code 0.

``demo``, ``mix``, ``serve``, ``cluster`` and ``promote`` accept two
extra flags:

``--set key=value`` (repeatable)
    Dotted-path config overrides applied via
    :meth:`repro.SystemConfig.from_overrides`, e.g.
    ``--set scheduler.label_queue_size=128 --set nonstop=false``.
``--trace PATH``
    Write a structured JSONL event trace of the run (validate it with
    ``python -m repro.obs.schema PATH``).
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys

from repro import __version__


def _parse_overrides(pairs: list[str] | None) -> dict[str, object]:
    """Turn repeated ``--set key=value`` flags into an override map."""
    overrides: dict[str, object] = {}
    for pair in pairs or []:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _make_tracer(path: str | None, label: str = ""):
    """A JSONL tracer for ``--trace PATH``, or None when untraced.

    Commands that run several configurations pass a ``label`` so each
    gets its own file: ``{}`` in the path is replaced by the label,
    otherwise the label is inserted before the extension.
    """
    if path is None:
        return None
    from repro.obs import tracer_for_jsonl

    target = path
    if label:
        if "{}" in path:
            target = path.replace("{}", label)
        else:
            import pathlib

            p = pathlib.Path(path)
            target = str(p.with_name(f"{p.stem}.{label}{p.suffix}"))
    return tracer_for_jsonl(target)


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.config import SystemConfig

    config = SystemConfig()
    print(f"repro {__version__} — Fork Path ORAM (MICRO 2015) reproduction")
    print(f"default tree: L={config.oram.levels} "
          f"({config.oram.num_blocks} data blocks, Z={config.oram.bucket_slots})")
    print(f"default label queue: {config.scheduler.label_queue_size}")
    print(f"default cache: {config.cache.policy} "
          f"{config.cache.capacity_bytes >> 10} KiB")
    print(f"default posmap: {config.posmap.mode} "
          f"(budget {config.posmap.client_budget_bytes >> 10} KiB "
          f"in recursive mode)")
    if config.pace.mode == "off":
        print("default pace: off (issue timing follows load; "
              "enable with --set pace.mode=fixed pace.interval_ns=...)")
    else:
        print(f"default pace: {config.pace.mode} "
              f"(interval {config.pace.interval_ns:.0f} ns, "
              f"adaptive={config.pace.adaptive})")
    print("figures: " + ", ".join(f"fig{n}" for n in range(10, 20)))
    from repro.serve import available_backends

    print("service backends: " + ", ".join(available_backends()))
    print(
        "commands: info, figure, demo, mix, serve, cluster, worker, "
        "loadgen, compact, replicate, promote, validate-trace"
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import os

    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    from repro.experiments.common import scale_from_env

    name = args.figure if args.figure.startswith("fig") else f"fig{args.figure}"
    try:
        module = importlib.import_module(f"repro.experiments.{name}")
    except ModuleNotFoundError:
        print(f"unknown figure {args.figure!r}; try fig10 .. fig19",
              file=sys.stderr)
        return 2
    print(module.run(scale_from_env()).render())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        CacheConfig,
        Simulation,
        SystemConfig,
        fork_path_scheduler,
        small_test_config,
        traditional_scheduler,
    )
    from repro.workloads.synthetic import hotspot_trace

    overrides = _parse_overrides(args.set)
    for name, slug, scheduler in [
        ("traditional", "traditional", traditional_scheduler()),
        ("fork path", "forkpath", fork_path_scheduler(64)),
    ]:
        config = SystemConfig.from_overrides(
            overrides,
            base=SystemConfig(
                oram=small_test_config(14, block_bytes=64),
                scheduler=scheduler,
                cache=CacheConfig(policy="none"),
            ),
        )
        trace = hotspot_trace(2000, 4000, 120.0, random.Random(1))
        tracer = _make_tracer(args.trace, slug)
        metrics = Simulation(config).run(trace, tracer=tracer).metrics
        print(
            f"{name:12s}: path {metrics.avg_path_buckets:5.2f} buckets/phase, "
            f"latency {metrics.avg_latency_ns:9.0f} ns"
        )
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro import (
        CacheConfig,
        OramConfig,
        Simulation,
        SystemConfig,
        fork_path_scheduler,
        traditional_scheduler,
    )
    from repro.workloads.mixes import mix_benchmarks, mix_names

    if args.mix not in mix_names():
        print(f"unknown mix {args.mix!r}; choose from {mix_names()}",
              file=sys.stderr)
        return 2
    overrides = _parse_overrides(args.set)
    base = SystemConfig(
        oram=OramConfig(levels=14, stash_capacity=300),
        cache=CacheConfig(policy="mac", capacity_bytes=1 << 20),
        scheduler=fork_path_scheduler(64),
    )
    for name, slug, config in [
        ("traditional", "traditional", base.replace(
            scheduler=traditional_scheduler(), cache=CacheConfig(policy="none")
        )),
        ("fork+1M MAC", "forkpath", base),
    ]:
        result = Simulation(
            SystemConfig.from_overrides(overrides, base=config)
        ).run_system(
            mix_benchmarks(args.mix),
            tracer=_make_tracer(args.trace, slug),
            instructions_per_core=150_000,
            footprint_cap=8_000,
        )
        print(
            f"{name:12s}: slowdown {result.slowdown:6.2f}x, "
            f"ORAM latency {result.metrics.avg_latency_ns:8.0f} ns, "
            f"energy {result.energy.total_mj:6.2f} mJ"
        )
    return 0


def _service_config(args: argparse.Namespace, overrides: dict[str, object]):
    """``--small`` + ``--set`` overrides → the service's config."""
    from repro import SystemConfig
    from repro.config import small_test_config

    base = (
        SystemConfig(oram=small_test_config(10, block_bytes=64))
        if args.small
        else SystemConfig()
    )
    return SystemConfig.from_overrides(overrides, base=base)


def _serve(args: argparse.Namespace, build, label: str = "") -> int:
    """Shared body of ``serve``/``cluster``/``worker``/``promote``.

    ``build(tracer)`` runs inside the event loop and returns the
    arguments of :func:`repro.serve.service.serve_until_signalled`: the
    front end, its ``banner(host, port)`` and optionally an extra stop
    condition.
    """
    import asyncio

    from repro.serve.service import serve_until_signalled

    tracer = _make_tracer(args.trace, label)

    async def run() -> None:
        await serve_until_signalled(*build(tracer))

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # before the signal handlers were in place
        print("interrupted; service stopped")
    finally:
        if tracer is not None:
            tracer.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.service import OramService

    config = _service_config(args, _parse_overrides(args.set))

    def build(tracer):
        return OramService(config, tracer=tracer), lambda host, port: (
            f"serving oblivious KV store on {host}:{port} "
            f"(backend={config.service.backend}, L={config.oram.levels})"
        )

    return _serve(args, build)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterService, shard_identity

    overrides = _parse_overrides(args.set)
    if args.shards is not None:
        overrides.setdefault("cluster.shards", args.shards)
    if args.workers is not None:
        overrides.setdefault("cluster.workers", args.workers)
    config = _service_config(args, overrides)
    cluster = config.cluster
    depths = sorted(
        {
            shard_identity(config, shard).config.oram.levels
            for shard in range(cluster.shards)
        }
    )

    def build(tracer):
        return ClusterService(config, tracer=tracer), lambda host, port: (
            f"serving sharded oblivious KV store on {host}:{port} "
            f"(shards={cluster.shards}, dispatch={cluster.dispatch}, "
            f"workers={cluster.workers}, backend={config.service.backend}, "
            f"shard L={'/'.join(str(d) for d in depths)})"
        )

    return _serve(args, build)


def _cmd_worker(args: argparse.Namespace) -> int:
    """Internal: one shard worker process (spawned by the supervisor).

    ``--config-json`` carries the supervisor's full configuration as a
    flattened dotted-key JSON object (``repro.config.flatten_overrides``),
    so the worker rebuilds byte-identical config through the same
    validation path as every other source. Besides signals, the worker
    stops on the supervisor's ``shutdown`` command or when orphaned.
    """
    import json

    from repro import SystemConfig
    from repro.cluster.worker import READY_BANNER, ShardWorkerService

    try:
        overrides = json.loads(args.config_json)
    except json.JSONDecodeError as exc:
        print(f"--config-json is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(overrides, dict):
        print("--config-json must be a JSON object", file=sys.stderr)
        return 2
    config = SystemConfig.from_overrides(overrides)

    def build(tracer):
        service = ShardWorkerService(config, args.shard, tracer=tracer)
        recovered = (
            f" recovered_seq={service.recovery.checkpoint_seq}"
            if service.recovery is not None
            else ""
        )

        def banner(host: str, port: int) -> str:
            return (
                f"{READY_BANNER} shard={args.shard} port={port} "
                f"host={host}{recovered}"
            )

        return service, banner, service.released

    return _serve(args, build, label=f"shard{args.shard}")


def _cmd_compact(args: argparse.Namespace) -> int:
    import os

    from repro.serve.backends import FileBackend

    if not os.path.exists(args.path):
        print(f"no backend log at {args.path}", file=sys.stderr)
        return 2
    before = os.path.getsize(args.path)
    backend = FileBackend(args.path)
    try:
        live = len(backend)
        recovered = backend.recovered_records
        torn = backend.torn_tail
        backend.compact()
    finally:
        backend.close()
    after = os.path.getsize(args.path)
    note = "; dropped torn tail" if torn else ""
    print(
        f"{args.path}: {recovered} records ({before} bytes) -> "
        f"{live} live ({after} bytes){note}"
    )
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    import asyncio

    from repro import SystemConfig
    from repro.replica.standby import ReplicaService

    overrides = _parse_overrides(args.set)
    overrides.setdefault("replica.enabled", "true")
    overrides.setdefault("replica.dir", args.dir)
    config = SystemConfig.from_overrides(overrides)
    standby = ReplicaService(config.replica, directory=args.dir)
    try:
        asyncio.run(
            standby.tail(
                args.host,
                args.port,
                shard=args.shard,
                until_seq=args.until_seq,
                until_checkpoint_seq=args.until_checkpoint,
            )
        )
    except KeyboardInterrupt:
        print("interrupted; standby stopped")
    finally:
        standby.close()
    health = f"DIVERGED: {standby.divergence}" if standby.divergence else "healthy"
    print(
        f"standby {args.dir}: applied {standby.records_applied} records "
        f"(wal at seq {standby.applied_seq}), "
        f"{standby.checkpoints_received} checkpoints received "
        f"(newest seq {standby.checkpoint_seq}), "
        f"{standby.digests_verified} epoch digests verified — {health}"
    )
    return 1 if standby.divergence else 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.errors import ReplicationError
    from repro.replica.recovery import promote_service

    overrides = _parse_overrides(args.set)
    overrides.setdefault("replica.enabled", "true")
    overrides.setdefault("replica.dir", args.dir)
    config = _service_config(args, overrides)

    def build(tracer):
        service, report = promote_service(
            config, directory=args.dir, tracer=tracer
        )
        return service, lambda host, port: (
            f"{report.describe()}\n"
            f"promoted primary serving oblivious KV store on {host}:{port} "
            f"(backend={config.service.backend})"
        )

    try:
        return _serve(args, build)
    except ReplicationError as exc:
        print(f"promotion refused: {exc}", file=sys.stderr)
        return 1


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    from repro.obs.schema import validate_file

    status = 0
    for path in args.files:
        errors = validate_file(path)
        if errors:
            status = 1
            for error in errors[:50]:
                print(error, file=sys.stderr)
            if len(errors) > 50:
                print(f"... {len(errors) - 50} more", file=sys.stderr)
            print(f"{path}: INVALID ({len(errors)} errors)", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return status


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.loadgen import run_loadgen

    result = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            clients=args.clients,
            requests=args.requests,
            num_blocks=args.num_blocks,
            seed=args.seed,
            hot_span=args.hot_span,
            arrival=args.arrival,
            rate=args.rate,
            tenants=args.tenants,
            tenant_skew=args.tenant_skew,
        )
    )
    summary = result.summary()
    print(
        f"{result.completed}/{result.sent} requests completed by "
        f"{result.clients} {result.arrival} clients in "
        f"{result.elapsed_s:.2f} s ({summary['requests_per_s']:.1f} req/s)"
    )
    print(
        f"latency p50 {summary['p50_ns'] / 1e6:.2f} ms, "
        f"p95 {summary['p95_ns'] / 1e6:.2f} ms, "
        f"p99 {summary['p99_ns'] / 1e6:.2f} ms; "
        f"lost {result.lost}, failed {result.failed}, "
        f"mismatches {result.mismatches}"
    )
    return 0 if result.lost == 0 and result.mismatches == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Fork Path ORAM reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="package/config summary")

    figure = subparsers.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure", help="fig10 .. fig19")
    figure.add_argument("--scale", choices=["small", "medium", "paper"])

    demo = subparsers.add_parser(
        "demo", help="30-second traditional-vs-fork demo"
    )

    mix = subparsers.add_parser("mix", help="full-system run of a Table 2 mix")
    mix.add_argument("mix", help="Mix1 .. Mix10")

    serve = subparsers.add_parser(
        "serve", help="run the oblivious key-value service"
    )
    serve.add_argument(
        "--small",
        action="store_true",
        help="use a small (L=10) tree instead of the paper-scale default",
    )

    cluster = subparsers.add_parser(
        "cluster", help="run the sharded oblivious key-value service"
    )
    cluster.add_argument(
        "--shards",
        type=int,
        help="shard count (shorthand for --set cluster.shards=K)",
    )
    cluster.add_argument(
        "--small",
        action="store_true",
        help="use a small (L=10) tree instead of the paper-scale default",
    )
    cluster.add_argument(
        "--workers",
        choices=["inline", "process"],
        help="shard engine placement: in-process ('inline') or one OS "
        "process per shard ('process'; shorthand for "
        "--set cluster.workers=...)",
    )

    worker = subparsers.add_parser(
        "worker",
        help="run one shard worker process (internal: spawned by the "
        "cluster supervisor)",
    )
    worker.add_argument("--shard", type=int, required=True, help="shard id")
    worker.add_argument(
        "--config-json",
        required=True,
        help="flattened dotted-key config JSON from the supervisor",
    )
    worker.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL event trace of this worker",
    )

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a running service with verifying clients"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--requests", type=int, default=50)
    loadgen.add_argument(
        "--num-blocks",
        type=int,
        default=1 << 10,
        help="address-space size split into per-client slices",
    )
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--hot-span",
        type=int,
        default=0,
        help="restrict each client to the first N addresses of its "
        "slice (0 = whole slice): a skewed workload for cluster tests",
    )
    loadgen.add_argument(
        "--arrival",
        choices=["closed", "poisson", "burst", "onoff"],
        default="closed",
        help="issue discipline: lock-step request/response ('closed') "
        "or a seeded open-loop arrival process that sends on its own "
        "clock regardless of service latency",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="open-loop arrival rate per client (requests/second; "
        "ignored for --arrival closed)",
    )
    loadgen.add_argument(
        "--tenants",
        type=int,
        default=1,
        help="subdivide each client's slice into N tenant sub-slices",
    )
    loadgen.add_argument(
        "--tenant-skew",
        type=float,
        default=0.0,
        help="Zipf-ish tenant weight exponent: tenant k drawn with "
        "weight (1/(k+1))**S (0 = uniform)",
    )

    compact = subparsers.add_parser(
        "compact", help="compact a FileBackend append log in place"
    )
    compact.add_argument("path", help="backend log path (service.backend_path)")

    replicate = subparsers.add_parser(
        "replicate", help="tail a service's replication stream (warm standby)"
    )
    replicate.add_argument("--host", default="127.0.0.1")
    replicate.add_argument("--port", type=int, required=True)
    replicate.add_argument(
        "--dir", required=True, help="local replica directory (WAL + checkpoints)"
    )
    replicate.add_argument(
        "--shard", type=int, default=None,
        help="shard to replicate from a cluster primary (default: shard 0)",
    )
    replicate.add_argument(
        "--until-seq", type=int, default=None,
        help="exit once the WAL reaches this sequence number "
        "(default: tail until the primary goes away)",
    )
    replicate.add_argument(
        "--until-checkpoint", type=int, default=None,
        help="additionally wait for a sealed checkpoint at least this new",
    )

    promote = subparsers.add_parser(
        "promote", help="recover a replica directory and serve as primary"
    )
    promote.add_argument(
        "--dir", required=True, help="replica directory to promote"
    )
    promote.add_argument(
        "--small",
        action="store_true",
        help="use a small (L=10) tree instead of the paper-scale default "
        "(must match the failed primary's configuration)",
    )

    validate_trace = subparsers.add_parser(
        "validate-trace", help="validate JSONL event traces (repro.obs schema)"
    )
    validate_trace.add_argument("files", nargs="+", metavar="FILE")

    replicate.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted config override, e.g. replica.key=... (repeatable)",
    )

    for command in (demo, mix, serve, cluster, promote):
        command.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="dotted config override, e.g. scheduler.label_queue_size=128 "
            "(repeatable)",
        )
        command.add_argument(
            "--trace",
            metavar="PATH",
            help="write a JSONL event trace ({} in PATH expands to the "
            "configuration name)",
        )

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "figure": _cmd_figure,
        "demo": _cmd_demo,
        "mix": _cmd_mix,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "worker": _cmd_worker,
        "loadgen": _cmd_loadgen,
        "compact": _cmd_compact,
        "replicate": _cmd_replicate,
        "promote": _cmd_promote,
        "validate-trace": _cmd_validate_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
