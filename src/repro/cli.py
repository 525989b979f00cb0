"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1`` / ``table2`` / ``figure3`` / ``figure4``
    Print the corresponding paper artifact.
``simulate``
    Monte-Carlo validation of the Section 6.3 bounds.
``all``
    Render every artifact, optionally into ``--output-dir``.
``analyze``
    Analyze a user network described in a JSON file.
``serve``
    Run the online streaming GPS engine over a JSONL event stream,
    optionally gated by the live E.B.B. admission controller and made
    crash-safe with ``--wal`` (write-ahead log + snapshots).
``recover``
    Rebuild an interrupted durable serving session from its WAL
    directory and optionally resume or drain it.
``cluster-recover``
    Rebuild a sharded serving fleet (``serve --shards``) from its
    cluster root: every shard's WAL is recovered to bit-identical
    state, and ``--drain`` finishes the session.
``scrub``
    Verify (and by default repair) WAL segment CRC frames and
    snapshot checksums in a durable directory — or, with
    ``--cluster``, every shard directory under a cluster root.
    Corrupt-but-snapshot-covered files are quarantined so recovery
    succeeds; corruption past coverage reports the exact
    unrecoverable sequence ranges and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.experiments.runner import (
    render_figure3,
    render_figure4,
    render_simulation_check,
    render_supervised_simulation,
    render_table1,
    render_table2,
    run_all_resilient,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the artifacts of 'Statistical Analysis of "
            "Generalized Processor Sharing' (Zhang/Towsley/Kurose)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table1", "print Table 1 (source parameters)"),
        ("table2", "print Table 2 (E.B.B. characterizations)"),
        ("figure3", "print the Figure 3 delay-bound series"),
        ("figure4", "print the Figure 4 improved series"),
    ):
        sub.add_parser(name, help=help_text)
    simulate = sub.add_parser(
        "simulate", help="Monte-Carlo check of the bounds"
    )
    simulate.add_argument(
        "--slots", type=int, default=60_000, help="simulated slots"
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="random seed"
    )
    simulate.add_argument(
        "--trials",
        type=int,
        default=1,
        help=(
            "independent Monte-Carlo trials; with more than one the "
            "run is supervised (per-trial seeds, retries, partial "
            "aggregation)"
        ),
    )
    simulate.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the supervised run on the first failed trial",
    )
    simulate.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "JSON checkpoint file for the supervised run; completed "
            "trials are skipped on rerun"
        ),
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool size for the supervised run; > 1 fans "
            "trials out across processes (results stay identical to "
            "a serial run)"
        ),
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit a JSON payload (the unified result protocol) "
            "instead of the text report"
        ),
    )
    everything = sub.add_parser(
        "all", help="render every artifact"
    )
    everything.add_argument(
        "--output-dir",
        default=None,
        help="also write artifacts as text files here",
    )
    analyze = sub.add_parser(
        "analyze",
        help="analyze a user network described in a JSON file",
    )
    analyze.add_argument("network", help="path to the network JSON")
    analyze.add_argument(
        "--theta-shrink",
        type=float,
        default=0.7,
        help="per-hop Chernoff fraction for the CRST recursion",
    )
    serve = sub.add_parser(
        "serve",
        help=(
            "run the online streaming GPS engine over a JSONL event "
            "stream (file or '-' for stdin)"
        ),
    )
    serve.add_argument(
        "stream",
        help="path to a JSONL event trace, or '-' to read stdin",
    )
    serve.add_argument(
        "--rate",
        type=float,
        required=True,
        help="server capacity per slot",
    )
    serve.add_argument(
        "--out",
        default="-",
        help=(
            "where per-event decision/backlog records go "
            "(default: stdout)"
        ),
    )
    serve.add_argument(
        "--packet",
        action="store_true",
        help=(
            "serve a packetized PGPS/WFQ stream instead of slotted "
            "fluid events: the input is a packet trace (one "
            "packet-trace-header line, then packet lines in arrival "
            "order) and the output carries packet-accepted / "
            "packet-served / gap-report records; composes with --wal "
            "and repro recover"
        ),
    )
    serve.add_argument(
        "--admission",
        action="store_true",
        help=(
            "gate joins through the live E.B.B. admission controller "
            "(join events must carry ebb and target declarations)"
        ),
    )
    serve.add_argument(
        "--no-diagnostics",
        action="store_true",
        help=(
            "skip the feasible-ordering / Theorem 11 diagnostics on "
            "admission decisions (faster for large populations)"
        ),
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help=(
            "abort on malformed lines or session errors instead of "
            "emitting error records and continuing"
        ),
    )
    serve.add_argument(
        "--drain-slots",
        type=int,
        default=100_000,
        help="maximum empty slots served during the closing drain",
    )
    serve.add_argument(
        "--max-errors",
        type=int,
        default=None,
        help=(
            "error budget: abort with a typed OverloadError after "
            "this many error records (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--heartbeat-every",
        type=int,
        default=None,
        help="emit a heartbeat health record every N ingested lines",
    )
    serve.add_argument(
        "--shed-backlog",
        type=float,
        default=None,
        help=(
            "high watermark on the engine backlog; above it arrival "
            "events are shed with typed records until the backlog "
            "recedes below --shed-resume"
        ),
    )
    serve.add_argument(
        "--shed-resume",
        type=float,
        default=None,
        help=(
            "low watermark ending a shedding episode (default: half "
            "of --shed-backlog)"
        ),
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help=(
            "serve durably: write-ahead log every line into DIR "
            "before applying it and snapshot periodically; an "
            "existing DIR is recovered and resumed (its recorded "
            "configuration wins over the other flags)"
        ),
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "serve as a fault-tolerant fleet of N durable shards "
            "(requires --wal for the cluster root): ingest lines are "
            "routed by CRC32 session key, each shard keeps its own "
            "WAL + snapshots, and a supervisor restarts crashed "
            "shards with bounded backoff; an existing cluster root "
            "is recovered and resumed"
        ),
    )
    serve.add_argument(
        "--shard-buffer",
        type=int,
        default=100_000,
        help=(
            "with --shards: per-shard degraded-mode buffer high "
            "watermark; lines past it are shed with typed records "
            "while the shard is down"
        ),
    )
    serve.add_argument(
        "--shard-retries",
        type=int,
        default=8,
        help=(
            "with --shards: consecutive-crash budget per shard "
            "before the cluster fails with a typed ClusterError"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=1_000,
        help="with --wal: snapshot the full state every N lines",
    )
    serve.add_argument(
        "--fsync",
        default="batch",
        help=(
            "with --wal: fsync policy — 'always' syncs every append "
            "(power-loss safe), 'batch' syncs every 256 appends, "
            "'never' leaves syncing to the OS (process-crash safe "
            "only), 'group[:Nms]' syncs after 256 appends or an Nms "
            "window (default 2ms), 'budget[:Nms]' syncs once the "
            "oldest unsynced append is Nms old (default 5ms)"
        ),
    )
    recover = sub.add_parser(
        "recover",
        help=(
            "rebuild a crashed durable serving session from its WAL "
            "directory (newest valid snapshot + log replay)"
        ),
    )
    recover.add_argument(
        "waldir",
        help="the --wal directory of the interrupted session",
    )
    recover.add_argument(
        "--out",
        default="-",
        help="where output records go (default: stdout)",
    )
    recover.add_argument(
        "--resume",
        default=None,
        metavar="STREAM",
        help=(
            "after recovery, continue ingesting this JSONL stream "
            "('-' for stdin) and drain at its end"
        ),
    )
    recover.add_argument(
        "--drain",
        action="store_true",
        help=(
            "after recovery, drain the backlog and emit the final "
            "summary (finishes the session)"
        ),
    )
    cluster_recover = sub.add_parser(
        "cluster-recover",
        help=(
            "rebuild a sharded serving fleet from its cluster root "
            "(every shard: newest valid snapshot + log replay)"
        ),
    )
    cluster_recover.add_argument(
        "root",
        help="the --wal cluster root of the interrupted fleet",
    )
    cluster_recover.add_argument(
        "--out",
        default="-",
        help="where output records go (default: stdout)",
    )
    cluster_recover.add_argument(
        "--resume",
        default=None,
        metavar="STREAM",
        help=(
            "after recovery, continue routing this JSONL stream "
            "('-' for stdin) across the fleet and drain at its end"
        ),
    )
    cluster_recover.add_argument(
        "--drain",
        action="store_true",
        help=(
            "after recovery, drain every shard and emit the final "
            "cluster summary (finishes the session)"
        ),
    )
    scrub = sub.add_parser(
        "scrub",
        help=(
            "verify and repair WAL/snapshot integrity in a durable "
            "directory (quarantines corrupt-but-covered files; "
            "reports exact unrecoverable sequence ranges)"
        ),
    )
    scrub.add_argument(
        "directory",
        help=(
            "a --wal directory (or, with --cluster, a cluster root "
            "whose shard-NNN subdirectories are each scrubbed)"
        ),
    )
    scrub.add_argument(
        "--cluster",
        action="store_true",
        help="scrub every shard-NNN directory under a cluster root",
    )
    scrub.add_argument(
        "--no-repair",
        action="store_true",
        help=(
            "report only: never move corrupt files to quarantine/ "
            "(the default repairs when snapshot coverage allows)"
        ),
    )
    scrub.add_argument(
        "--out",
        default="-",
        help="where scrub report records go (default: stdout)",
    )
    return parser


def _run_analyze(args) -> int:
    from repro.experiments.tables import format_table
    from repro.network.analysis import analyze_crst_network
    from repro.network.render import render_topology
    from repro.network.rpps_network import rpps_network_report
    from repro.network.serialization import load_network

    network = load_network(args.network)
    print(render_topology(network))
    print()
    if network.is_rpps():
        print("assignment: RPPS — Theorem 15 closed forms")
        reports = rpps_network_report(network, discrete=True)
        rows = [
            [
                name,
                report.guaranteed_rate,
                report.network_backlog.prefactor,
                report.network_backlog.decay_rate,
                report.end_to_end_delay.decay_rate,
            ]
            for name, report in reports.items()
        ]
        print(
            format_table(
                [
                    "session",
                    "g_net",
                    "backlog prefactor",
                    "backlog decay",
                    "delay decay",
                ],
                rows,
            )
        )
    else:
        print("assignment: general CRST — Theorem 13 recursion")
        reports = analyze_crst_network(
            network, theta_shrink=args.theta_shrink, discrete=True
        )
        rows = [
            [
                name,
                report.end_to_end_delay.prefactor,
                report.end_to_end_delay.decay_rate,
                report.network_backlog.decay_rate,
            ]
            for name, report in reports.items()
        ]
        print(
            format_table(
                [
                    "session",
                    "delay prefactor",
                    "delay decay",
                    "backlog decay",
                ],
                rows,
            )
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        print(render_table1())
    elif args.command == "table2":
        print(render_table2())
    elif args.command == "figure3":
        print(render_figure3())
    elif args.command == "figure4":
        print(render_figure4())
    elif args.command == "simulate":
        return _run_simulate(args)
    elif args.command == "all":
        artifacts, errors = run_all_resilient(args.output_dir)
        for name, text in artifacts.items():
            print(f"\n### {name}\n{text}")
        for name, exc in errors.items():
            print(
                f"error: artifact {name} failed to render: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
        return 1 if errors else 0
    elif args.command == "analyze":
        return _run_analyze(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "recover":
        return _run_recover(args)
    elif args.command == "cluster-recover":
        return _run_cluster_recover(args)
    elif args.command == "scrub":
        return _run_scrub(args)
    return 0


def _run_serve(args) -> int:
    """Drive the online engine from a JSONL stream (see ``repro serve``)."""
    import contextlib

    from repro.online.admission import AdmissionController
    from repro.online.engine import StreamingGPSServer
    from repro.online.service import OnlineService

    if args.drain_slots < 1:
        print("error: --drain-slots must be >= 1", file=sys.stderr)
        return 2
    if args.packet:
        incompatible = []
        if args.shards is not None:
            incompatible.append("--shards")
        if args.admission:
            incompatible.append("--admission")
        if args.shed_backlog is not None or args.shed_resume is not None:
            incompatible.append("--shed-backlog/--shed-resume")
        if incompatible:
            print(
                "error: --packet cannot be combined with "
                + ", ".join(incompatible),
                file=sys.stderr,
            )
            return 2
    if args.shards is not None:
        if args.shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
        if args.wal is None:
            print(
                "error: --shards requires --wal DIR (the cluster "
                "root holding the per-shard WAL directories)",
                file=sys.stderr,
            )
            return 2
    try:
        with contextlib.ExitStack() as stack:
            if args.stream == "-":
                lines = sys.stdin
            else:
                lines = stack.enter_context(
                    open(args.stream, "r", encoding="utf-8")
                )
            if args.out == "-":
                sink = sys.stdout
            else:
                sink = stack.enter_context(
                    open(args.out, "w", encoding="utf-8")
                )
            if args.shards is not None:
                from repro.online.cluster import ShardedOnlineCluster

                cluster, reports = ShardedOnlineCluster.open(
                    args.wal,
                    mode="attach",
                    num_shards=args.shards,
                    rate=args.rate,
                    sink=sink,
                    buffer_limit=args.shard_buffer,
                    max_retries=args.shard_retries,
                    cluster_heartbeat_every=args.heartbeat_every,
                    admission=args.admission,
                    diagnostics=not args.no_diagnostics,
                    strict=args.strict,
                    drain_slots=args.drain_slots,
                    max_errors=args.max_errors,
                    shed_backlog=args.shed_backlog,
                    shed_resume=args.shed_resume,
                    snapshot_every=args.snapshot_every,
                    fsync=args.fsync,
                )
                for report in reports:
                    sink.write(json.dumps(report.to_record()))
                    sink.write("\n")
                cluster_result = cluster.serve(lines)
                drained = all(
                    r.drained for r in cluster_result.results
                )
                errors = sum(
                    h.service.errors
                    for h in cluster.handles
                    if h.service is not None
                )
                return 0 if errors == 0 and drained else 1
            if args.wal is not None:
                from repro.online.durability import DurableOnlineService

                service, report = DurableOnlineService.open(
                    args.wal,
                    mode="attach",
                    rate=args.rate,
                    sink=sink,
                    packet=args.packet,
                    admission=args.admission,
                    diagnostics=not args.no_diagnostics,
                    strict=args.strict,
                    drain_slots=args.drain_slots,
                    max_errors=args.max_errors,
                    heartbeat_every=args.heartbeat_every,
                    shed_backlog=args.shed_backlog,
                    shed_resume=args.shed_resume,
                    snapshot_every=args.snapshot_every,
                    fsync=args.fsync,
                )
                sink.write(json.dumps(report.to_record()))
                sink.write("\n")
            elif args.packet:
                from repro.packet.serving import (
                    PacketOnlineService,
                    PacketStreamEngine,
                )

                service = PacketOnlineService(
                    PacketStreamEngine(rate=args.rate),
                    sink=sink,
                    strict=args.strict,
                    drain_slots=args.drain_slots,
                    max_errors=args.max_errors,
                    heartbeat_every=args.heartbeat_every,
                )
            else:
                admission = None
                if args.admission:
                    admission = AdmissionController(
                        rate=args.rate,
                        diagnostics=not args.no_diagnostics,
                    )
                engine = StreamingGPSServer(
                    rate=args.rate, admission=admission
                )
                service = OnlineService(
                    engine,
                    sink=sink,
                    strict=args.strict,
                    drain_slots=args.drain_slots,
                    max_errors=args.max_errors,
                    heartbeat_every=args.heartbeat_every,
                    shed_backlog=args.shed_backlog,
                    shed_resume=args.shed_resume,
                )
            result = service.serve(lines)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if service.errors == 0 and result.drained else 1


def _run_recover(args) -> int:
    """Rebuild a durable serving session (see ``repro recover``)."""
    import contextlib

    from repro.online.durability import DurableOnlineService

    try:
        with contextlib.ExitStack() as stack:
            if args.out == "-":
                sink = sys.stdout
            else:
                sink = stack.enter_context(
                    open(args.out, "w", encoding="utf-8")
                )
            service, report = DurableOnlineService.open(
                args.waldir, mode="recover", sink=sink
            )
            sink.write(json.dumps(report.to_record()))
            sink.write("\n")
            if args.resume is not None:
                if args.resume == "-":
                    lines = sys.stdin
                else:
                    lines = stack.enter_context(
                        open(args.resume, "r", encoding="utf-8")
                    )
                result = service.serve(lines)
                return 0 if result.drained else 1
            if args.drain:
                result = service.shutdown()
                return 0 if result.drained else 1
            # Report-only: take a snapshot so the recovered state is
            # durable without replaying the tail again next time.
            service.snapshot()
            service.wal.close()
            sink.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_cluster_recover(args) -> int:
    """Rebuild a sharded fleet (see ``repro cluster-recover``)."""
    import contextlib

    from repro.online.cluster import ShardedOnlineCluster

    try:
        with contextlib.ExitStack() as stack:
            if args.out == "-":
                sink = sys.stdout
            else:
                sink = stack.enter_context(
                    open(args.out, "w", encoding="utf-8")
                )
            cluster, reports = ShardedOnlineCluster.open(
                args.root, mode="recover", sink=sink
            )
            for shard, report in enumerate(reports):
                record = report.to_record()
                record["shard"] = shard
                sink.write(json.dumps(record))
                sink.write("\n")
            if args.resume is not None:
                if args.resume == "-":
                    lines = stack.enter_context(
                        contextlib.nullcontext(sys.stdin)
                    )
                else:
                    lines = stack.enter_context(
                        open(args.resume, "r", encoding="utf-8")
                    )
                result = cluster.serve(lines)
                return (
                    0 if all(r.drained for r in result.results) else 1
                )
            if args.drain:
                result = cluster.shutdown()
                return (
                    0 if all(r.drained for r in result.results) else 1
                )
            # Report-only: snapshot each shard so the recovered state
            # is durable without replaying the tails again next time.
            for handle in cluster.handles:
                handle.service.snapshot()
                handle.service.wal.close()
            sink.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_scrub(args) -> int:
    """Verify/repair durable directories (see ``repro scrub``)."""
    import contextlib
    from pathlib import Path

    from repro.online.cluster.shard import SHARD_DIR_PREFIX
    from repro.online.durability import scrub_directory

    root = Path(args.directory)
    if args.cluster:
        directories = sorted(
            path
            for path in root.glob(f"{SHARD_DIR_PREFIX}*")
            if path.is_dir()
        )
        if not directories:
            print(
                f"error: {root} holds no {SHARD_DIR_PREFIX}NNN shard "
                "directories",
                file=sys.stderr,
            )
            return 1
    else:
        directories = [root]
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 1
    exit_code = 0
    try:
        with contextlib.ExitStack() as stack:
            if args.out == "-":
                sink = sys.stdout
            else:
                sink = stack.enter_context(
                    open(args.out, "w", encoding="utf-8")
                )
            for directory in directories:
                report = scrub_directory(
                    directory, repair=not args.no_repair
                )
                sink.write(json.dumps(report.to_record()))
                sink.write("\n")
                if not report.ok:
                    exit_code = 1
            sink.flush()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return exit_code


def _run_simulate(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.trials == 1:
        if args.json:
            return _simulate_single_json(args)
        print(
            render_simulation_check(
                num_slots=args.slots, seed=args.seed
            )
        )
        return 0
    try:
        report, manifest = render_supervised_simulation(
            num_trials=args.trials,
            num_slots=args.slots,
            base_seed=args.seed,
            checkpoint_path=args.checkpoint,
            fail_fast=args.fail_fast,
            max_workers=args.workers,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        from repro.experiments.runner import aggregate_frequencies
        from repro.sim.results import to_jsonable

        payload = {
            "kind": "supervised_simulation",
            "summary": manifest.summary(),
            "num_trials": manifest.num_trials,
            "base_seed": manifest.base_seed,
            "num_slots": args.slots,
            "completed": sorted(manifest.completed),
            "failed": manifest.failed,
            "skipped": manifest.skipped,
            "aggregate": aggregate_frequencies(manifest.results),
        }
        print(json.dumps(to_jsonable(payload), indent=2))
    else:
        print(report)
    return 1 if manifest.failed else 0


def _simulate_single_json(args) -> int:
    """One trial, emitted via the unified result protocol."""
    from repro.experiments.paper_example import simulate_example_network
    from repro.experiments.runner import delay_frequencies
    from repro.sim.results import to_jsonable

    try:
        simulation = simulate_example_network(
            1, args.slots, seed=args.seed
        )
        payload = simulation.summary()
        payload["delay_frequencies"] = delay_frequencies(simulation)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(to_jsonable(payload), indent=2))
    return 0
