"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — deploy one strategy, stream blocks, print reports.
* ``compare``  — identical block stream through all three strategies.
* ``join``     — bootstrap-cost demo: grow a network by one node.
* ``experiments`` — list the reproduced experiments and their benches.
* ``bench``    — drift gate: run the 20 experiment kernels and compare
  their simulated metrics exactly against ``benchmarks/baseline.json``.
* ``endurance`` — sustained churn under fault weather with the
  anti-entropy repair engine sweeping; audits integrity + the replica
  floor and reports the repair counters (``--trace`` exports the run's
  Chrome trace; it is how a storm is traced).
* ``chaos``    — the same storm under ``CHAOS_PRESET``: a small
  population, fault weather and one mid-run outage, no churn.
* ``trace``    — record a structured trace of one scenario: Chrome
  trace-event JSON (Perfetto-loadable, one track per node), optional
  JSONL stream, and a markdown latency/timeline summary.  ``repro trace
  diff A.json B.json`` pinpoints the first divergent event between two
  exported traces.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.tracer import DEFAULT_CAPACITY
from repro.sim.chaos import CHAOS_PRESET, EnduranceConfig, run_endurance
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS, Scenario, build_deployment

_EXPERIMENTS = [
    ("E1", "per-node storage growth", "bench_e1_storage_growth.py"),
    ("E2", "25% of RapidChain storage", "bench_e2_rapidchain_ratio.py"),
    ("E3", "storage vs cluster size (1/m)", "bench_e3_cluster_size_sweep.py"),
    ("E4", "communication per block", "bench_e4_communication.py"),
    ("E5", "bootstrap overhead", "bench_e5_bootstrap.py"),
    ("E6", "verification latency", "bench_e6_verification_latency.py"),
    ("E7", "availability vs replication", "bench_e7_availability.py"),
    ("E8", "throughput parity", "bench_e8_throughput.py"),
    ("E9", "placement ablation", "bench_e9_placement_ablation.py"),
    ("E10", "clustering ablation", "bench_e10_clustering_ablation.py"),
    ("E11", "parity vs replication", "bench_e11_parity_ablation.py"),
    ("E12", "churn endurance", "bench_e12_churn_endurance.py"),
    ("E13", "SPV proof service", "bench_e13_spv_service.py"),
    ("E14", "compact-block dissemination", "bench_e14_compact_blocks.py"),
    ("E15", "Vivaldi clustering", "bench_e15_vivaldi_clustering.py"),
    ("E16", "Byzantine tolerance", "bench_e16_byzantine_tolerance.py"),
    ("E17", "per-node cost scalability", "bench_e17_scalability.py"),
    (
        "E18",
        "heat-aware adaptive replication",
        "bench_e18_adaptive_replication.py",
    ),
    (
        "E19",
        "Reed-Solomon archival coding",
        "bench_e19_archival_coding.py",
    ),
    (
        "E21",
        "zone outage vs placement spread",
        "bench_e21_domain_outage.py",
    ),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICIStrategy reproduction (ICDCS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="deploy one strategy and stream blocks")
    _common_args(run)
    run.add_argument(
        "--strategy",
        choices=("ici", "full", "rapidchain"),
        default="ici",
    )
    run.add_argument(
        "--replication", type=int, default=1, help="ICI replicas per block"
    )
    run.add_argument(
        "--relay",
        action="store_true",
        help="relay transactions by gossip and build blocks from mempools "
        "(ICI only)",
    )
    run.add_argument(
        "--report",
        metavar="FILE",
        help="write a full markdown deployment report to FILE",
    )

    compare = sub.add_parser(
        "compare", help="same block stream through all strategies"
    )
    _common_args(compare)

    join = sub.add_parser("join", help="bootstrap-cost demo")
    _common_args(join)
    join.add_argument(
        "--strategy",
        choices=("ici", "full", "rapidchain"),
        default="ici",
    )

    sub.add_parser("experiments", help="list reproduced experiments")

    bench = sub.add_parser(
        "bench",
        help="drift gate: run the 20 experiment kernels and compare their "
        "simulated metrics exactly against benchmarks/baseline.json",
    )
    bench.add_argument(
        "--write-baseline",
        action="store_true",
        help="store this run as benchmarks/baseline.json instead of "
        "comparing (only when simulated numbers are meant to move)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="the endurance storm without churn or partition on a small "
        "population: drops, a mid-run outage, heal, audit",
    )
    _storm_args(chaos, CHAOS_PRESET)

    endurance = sub.add_parser(
        "endurance",
        help="sustained churn under fault weather with anti-entropy "
        "repair; audits integrity and the replica floor",
    )
    _storm_args(endurance, {})

    trace = sub.add_parser(
        "trace",
        help="record a structured trace of one scenario "
        "(Chrome/Perfetto JSON + markdown summary)",
    )
    trace.add_argument(
        "scenario",
        nargs="?",
        choices=("ici", "full", "rapidchain", "diff"),
        default="ici",
        help="strategy to deploy (default ici), or 'diff' to compare two "
        "exported traces",
    )
    trace.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="with 'diff': the two Chrome trace JSON files to compare",
    )
    _common_args(trace)
    trace.add_argument(
        "--replication", type=int, default=1, help="ICI replicas per block"
    )
    trace.add_argument(
        "--queries",
        type=int,
        default=8,
        help="block retrievals exercised after the stream (default 8)",
    )
    trace.add_argument(
        "--out",
        metavar="FILE",
        default="trace.json",
        help="Chrome trace-event JSON output (default trace.json)",
    )
    trace.add_argument(
        "--jsonl",
        metavar="FILE",
        help="also write the full-fidelity JSONL event stream to FILE",
    )
    trace.add_argument(
        "--summary",
        metavar="FILE",
        nargs="?",
        const="-",
        help="write the markdown summary to FILE ('-' or no value: stdout)",
    )
    trace.add_argument(
        "--capacity",
        type=_capacity,
        default=DEFAULT_CAPACITY,
        help="ring-buffer size in events (default %(default)s; oldest "
        "evicted)",
    )
    return parser


def _capacity(text: str) -> int:
    """``--capacity``: a ring of at least one event."""
    capacity = int(text)
    if capacity < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {capacity})")
    return capacity


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument(
        "--groups", type=int, default=5, help="clusters / committees"
    )
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--txs", type=int, default=8, help="txs per block")
    parser.add_argument(
        "--latency",
        choices=("constant", "uniform", "regions"),
        default="uniform",
    )
    parser.add_argument("--seed", type=int, default=0)


#: CLI spelling -> config field, where the two differ.
_FIELD_OF = {
    "nodes": "n_nodes",
    "groups": "n_clusters",
    "blocks": "n_blocks",
    "txs": "txs_per_block",
    "cadence": "repair_cadence",
}

#: Every population/weather/feature flag of ``chaos`` and ``endurance``
#: with its help text: one per ``EnduranceConfig`` field, its default
#: read off that field or the command's preset — so each default is
#: stated once.  Boolean fields become switches: ``--x`` when off by
#: default, ``--no-x`` when on.
_STORM_FLAGS = (
    ("seed", "every random draw derives from it"),
    ("nodes", "initial population"),
    ("groups", "clusters / committees"),
    ("replication", "replicas per block"),
    ("blocks", "blocks produced"),
    ("txs", "txs per block"),
    ("drop-rate", "fraction of messages dropped"),
    ("duplicate-rate", "fraction of messages delivered twice"),
    ("delay-rate", "fraction of messages hit by a delay spike"),
    ("join-rate", "expected joins per produced block"),
    ("leave-rate", "expected graceful leaves per block"),
    ("crash-rate", "expected churn crashes per block"),
    ("crash-count", "nodes crashed mid-run and recovered at heal"),
    ("stall-count", "nodes stalled (unresponsive but up) mid-run"),
    ("partition", "the mid-run minority partition window"),
    ("cadence", "anti-entropy sweep interval, virtual seconds"),
    (
        "adaptive",
        "heat-aware adaptive replication (Zipf reads drive per-block "
        "tier targets; sweeps repair and shed to them)",
    ),
    (
        "archival",
        "the Reed-Solomon archival tier (implies --adaptive; cold blocks "
        "become 3+1 coded chunk sets, audited against the coded floor)",
    ),
    (
        "domains",
        "failure-domain awareness (spread placement, the outage becomes "
        "a full zone crash, diversity-restoring sweeps, and a post-heal "
        "zone-diversity exit gate)",
    ),
    ("zones", "failure domains in the map (with --domains)"),
)


def _storm_args(parser: argparse.ArgumentParser, preset: dict) -> None:
    """The storm flags, defaults from ``EnduranceConfig`` over which
    ``preset`` wins."""
    defaults = {
        f.name: f.default for f in dataclasses.fields(EnduranceConfig)
    }
    defaults.update(preset)
    for flag, text in _STORM_FLAGS:
        dest = flag.replace("-", "_")
        default = defaults[_FIELD_OF.get(dest, dest)]
        if default is True:
            parser.add_argument(
                f"--no-{flag}",
                action="store_false",
                dest=dest,
                help=f"skip {text}",
            )
        elif default is False:
            parser.add_argument(
                f"--{flag}", action="store_true", help=f"enable {text}"
            )
        else:
            parser.add_argument(
                f"--{flag}",
                type=type(default),
                default=default,
                help=f"{text} (default %(default)s)",
            )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write the markdown summary to FILE as well as stdout",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="export the run's Chrome trace-event JSON to FILE",
    )


def _storm_config(args: argparse.Namespace) -> EnduranceConfig:
    """Build a storm config from its parsed flags."""
    given = {_FIELD_OF.get(k, k): v for k, v in vars(args).items()}
    return EnduranceConfig(
        **{
            f.name: given[f.name]
            for f in dataclasses.fields(EnduranceConfig)
            if f.name in given
        }
    )


def cmd_storm(args: argparse.Namespace) -> int:
    """``chaos``/``endurance``: one seeded storm; print/write its
    summary, export its trace, exit on its verdict."""
    from repro.analysis.report import render_endurance_summary

    outcome = run_endurance(_storm_config(args))
    summary = render_endurance_summary(outcome)
    print(summary, end="")
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(summary, encoding="utf-8")
        print(f"\nreport written to {args.report}", file=sys.stderr)
    if args.trace:
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(
            outcome.tracer, Path(args.trace), label=args.command
        )
        print(
            f"trace ({len(outcome.tracer)} events) written to {path}",
            file=sys.stderr,
        )
    return 0 if outcome.passed else 1


def _deploy(args: argparse.Namespace, strategy: str):
    scenario = Scenario(
        strategy=strategy,
        n_nodes=args.nodes,
        n_groups=args.groups,
        replication=getattr(args, "replication", 1),
        latency=args.latency,
        seed=args.seed,
    )
    return build_deployment(scenario)


def _summary_rows(deployment, report) -> list[tuple]:
    storage = deployment.storage_report()
    return [
        ("blocks produced", report.blocks_produced),
        ("transactions", report.transactions_produced),
        ("mean bytes/node", format_bytes(storage.mean_node_bytes)),
        ("max bytes/node", format_bytes(storage.max_node_bytes)),
        ("network storage", format_bytes(storage.total_bytes)),
        (
            "traffic total",
            format_bytes(deployment.network.traffic.total_bytes),
        ),
        ("messages", deployment.network.traffic.total_messages),
    ]


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: deploy one strategy and stream blocks."""
    deployment = _deploy(args, args.strategy)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    if args.relay:
        if not hasattr(deployment, "submit_transaction"):
            print("--relay requires the ici strategy", file=sys.stderr)
            return 2
        report = runner.produce_blocks_via_relay(
            args.blocks, txs_per_block=args.txs
        )
    else:
        report = runner.produce_blocks(args.blocks, txs_per_block=args.txs)
    rows = _summary_rows(deployment, report)
    finalized = getattr(deployment, "total_finalized_blocks", None)
    if finalized is not None:
        rows.append(("blocks finalized everywhere", finalized()))
    print(
        render_table(
            ["quantity", "value"],
            rows,
            title=(
                f"{args.strategy} / N={args.nodes} / groups={args.groups}"
            ),
        )
    )
    if args.report:
        from repro.analysis.report import write_deployment_report

        with open(args.report, "w", encoding="utf-8") as stream:
            write_deployment_report(
                deployment,
                stream,
                title=f"{args.strategy} deployment report",
            )
        print(f"report written to {args.report}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: identical stream through every strategy."""
    rows = []
    for strategy in ("full", "rapidchain", "ici"):
        deployment = _deploy(args, strategy)
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        report = runner.produce_blocks(args.blocks, txs_per_block=args.txs)
        storage = deployment.storage_report()
        rows.append(
            (
                strategy,
                format_bytes(storage.mean_node_bytes),
                format_bytes(storage.total_bytes),
                format_bytes(deployment.network.traffic.total_bytes),
            )
        )
    print(
        render_table(
            ["strategy", "bytes/node", "network total", "traffic"],
            rows,
            title=(
                f"Identical {args.blocks}-block stream "
                f"(N={args.nodes}, groups={args.groups})"
            ),
        )
    )
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    """``join``: bootstrap-cost demo."""
    deployment = _deploy(args, args.strategy)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    runner.produce_blocks(args.blocks, txs_per_block=args.txs)
    join = deployment.join_new_node()
    deployment.run()
    if not join.complete:
        print("bootstrap did not complete", file=sys.stderr)
        return 1
    print(
        render_table(
            ["quantity", "value"],
            [
                ("strategy", args.strategy),
                ("headers", format_bytes(join.header_bytes)),
                ("bodies", format_bytes(join.body_bytes)),
                ("total download", format_bytes(join.total_bytes)),
                ("bodies fetched", join.bodies_fetched),
                ("sync time", format_seconds(join.duration)),
            ],
            title=f"Join after {args.blocks} blocks (N={args.nodes})",
        )
    )
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    """``experiments``: list the reproduced experiments."""
    print(
        render_table(
            ["id", "reproduces", "bench"],
            _EXPERIMENTS,
            title="Reconstructed experiments (see DESIGN.md, EXPERIMENTS.md)",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: exact simulated-metric equality against the baseline."""
    from repro.bench import runner

    measured = {
        workload.bench_id: runner.measure(workload)
        for workload in runner.discover_workloads()
    }
    if args.write_baseline:
        runner.write_baseline(measured)
        print(f"baseline written to {runner.BASELINE}")
        return 0
    baseline = runner.load_baseline()
    problems = [
        line
        for bench_id in sorted(set(baseline) | set(measured))
        for line in runner.drift(
            bench_id, baseline.get(bench_id), measured.get(bench_id)
        )
    ]
    for line in problems:
        print(line)
    print(
        f"RESULT: {'FAIL' if problems else 'pass'} "
        f"({len(measured)} kernels compared with {runner.BASELINE.name})"
    )
    return 1 if problems else 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """``trace diff A.json B.json``: first divergent story event."""
    from repro.obs.diff import diff_traces, render_divergence

    if len(args.files) != 2:
        print(
            "trace diff needs exactly two trace files", file=sys.stderr
        )
        return 2
    divergence = diff_traces(args.files[0], args.files[1])
    print(render_divergence(divergence))
    return 0 if divergence is None else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: record one scenario under the tracer and export it."""
    import random

    if args.scenario == "diff":
        return _cmd_trace_diff(args)
    if args.files:
        print(
            "positional FILE arguments only apply to 'trace diff'",
            file=sys.stderr,
        )
        return 2

    from repro.analysis.report import render_trace_summary
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.hooks import install_tracing
    from repro.obs.summary import summarize
    from repro.obs.tracer import Tracer

    tracer = Tracer(capacity=args.capacity)
    deployment = _deploy(args, args.scenario)
    install_tracing(deployment, tracer)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    with tracer.span("produce"):
        report = runner.produce_blocks(args.blocks, txs_per_block=args.txs)
    with tracer.span("join"):
        deployment.join_new_node()
        deployment.run()
    with tracer.span("queries"):
        rng = random.Random(args.seed ^ 0x7ACE)
        hashes = list(report.block_hashes)
        node_ids = sorted(deployment.nodes)
        for _ in range(args.queries):
            if not hashes:
                break
            deployment.retrieve_block(rng.choice(node_ids), rng.choice(hashes))
        deployment.run()
    label = f"{args.scenario} N={args.nodes} groups={args.groups}"

    out_path = write_chrome_trace(tracer, args.out, label=label)
    print(
        f"trace written to {out_path} ({len(tracer)} events retained, "
        f"{tracer.evicted} evicted)"
    )
    if args.jsonl:
        jsonl_path = write_jsonl(tracer, Path(args.jsonl))
        print(f"event stream written to {jsonl_path}")
    if args.summary:
        summary_md = render_trace_summary(
            summarize(tracer), title=f"Trace summary — {label}"
        )
        if args.summary == "-":
            print(summary_md, end="")
        else:
            Path(args.summary).write_text(summary_md, encoding="utf-8")
            print(f"summary written to {args.summary}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "join": cmd_join,
        "experiments": cmd_experiments,
        "bench": cmd_bench,
        "chaos": cmd_storm,
        "endurance": cmd_storm,
        "trace": cmd_trace,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
        return status
    except (ConfigurationError, ObservabilityError) as error:
        # An impossible configuration, a trace file that cannot be read
        # or a trace that fails its schema check is a usage error, like
        # a bad flag.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader has gone (``repro trace diff A B | head``).
        # Point stdout at devnull so the interpreter's last flush does
        # not raise again, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
