"""Tests for the markdown report generators (deployment/bench/chaos/trace)."""

from __future__ import annotations

import io

from repro.analysis.report import (
    render_deployment_report,
    write_deployment_report,
)
from repro.baselines.full_replication import FullReplicationDeployment
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def ici_deployment(**kwargs):
    kwargs.setdefault("n_clusters", 4)
    kwargs.setdefault("replication", 1)
    kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(16, config=ICIConfig(**kwargs))
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    runner.produce_blocks(4, txs_per_block=3)
    return deployment, runner


class TestReportSections:
    def test_contains_all_core_sections(self):
        deployment, _ = ici_deployment()
        report = render_deployment_report(deployment)
        for heading in (
            "## Population",
            "## Storage",
            "## Traffic",
            "## Verification",
            "## Latency",
        ):
            assert heading in report

    def test_membership_events_after_join_and_leave(self):
        deployment, _ = ici_deployment()
        deployment.join_new_node()
        deployment.run()
        victim = deployment.clusters.members_of(0)[1]
        deployment.leave_node(victim)
        deployment.run()
        report = render_deployment_report(deployment)
        assert "## Membership events" in report
        assert "join" in report
        assert "leave" in report

    def test_parity_reported(self):
        deployment, _ = ici_deployment(
            replication=1, parity_group_size=3
        )
        report = render_deployment_report(deployment)
        assert "parity bytes" in report
        assert "parity groups" in report

    def test_reorgs_reported(self):
        deployment, runner = ici_deployment()
        runner.produce_fork(fork_from_height=2, length=3)
        report = render_deployment_report(deployment)
        assert "reorgs" in report

    def test_compact_hit_rate_reported(self):
        deployment = ICIDeployment(
            12,
            config=ICIConfig(
                n_clusters=3,
                compact_blocks=True,
                limits=TEST_LIMITS,
            ),
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        runner.produce_blocks_via_relay(3, txs_per_block=3)
        report = render_deployment_report(deployment)
        assert "compact mempool hit rate" in report

    def test_works_for_baselines(self):
        deployment = FullReplicationDeployment(8, limits=TEST_LIMITS)
        ScenarioRunner(deployment, limits=TEST_LIMITS).produce_blocks(
            2, txs_per_block=2
        )
        report = render_deployment_report(deployment, title="baseline")
        assert report.startswith("# baseline")
        assert "## Storage" in report

    def test_write_to_stream(self):
        deployment, _ = ici_deployment()
        buffer = io.StringIO()
        write_deployment_report(deployment, buffer)
        assert buffer.getvalue().endswith("\n")
        assert "## Traffic" in buffer.getvalue()

    def test_tables_are_well_formed_markdown(self):
        deployment, _ = ici_deployment()
        report = render_deployment_report(deployment)
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.count("|") >= 3


class TestChaosSummary:
    def test_summary_includes_latency_percentiles(self):
        from repro.analysis.report import render_chaos_summary
        from repro.sim.chaos import ChaosConfig, run_chaos

        outcome = run_chaos(
            ChaosConfig(seed=3, n_blocks=4, queries=4, drop_rate=0.2),
            limits=TEST_LIMITS,
        )
        summary = render_chaos_summary(outcome)
        assert "## Delivery latency (virtual time)" in summary
        assert "| message kind | delivered | p50 | p95 | p99 | max |" in (
            summary
        )
        assert "block_body" in summary
        assert outcome.tracer.evicted == 0 and "evicted" not in summary

    def test_truncated_trace_says_so(self):
        """Percentiles over an evicting ring cover a window, not the run."""
        from repro.analysis.report import render_chaos_summary
        from repro.obs.tracer import Tracer
        from repro.sim.chaos import ChaosConfig, run_chaos

        window = run_chaos(
            ChaosConfig(seed=3, n_blocks=4, queries=4, drop_rate=0.2),
            limits=TEST_LIMITS,
            tracer=Tracer(capacity=500),
        )
        assert window.tracer.evicted > 0
        note = (
            f"{window.tracer.evicted} of {window.tracer.recorded} trace "
            "events evicted; percentiles cover the retained window"
        )
        lines = render_chaos_summary(window).splitlines()
        heading = lines.index("## Delivery latency (virtual time)")
        assert lines[heading + 1 : heading + 4] == ["", note, ""]
        assert lines[heading + 4].startswith("| message kind |")

    def test_tolerates_outcomes_without_percentiles(self):
        """Older pickled/stubbed outcomes may lack the new field."""
        from types import SimpleNamespace

        from repro.analysis.report import render_chaos_summary
        from repro.sim.chaos import ChaosConfig, run_chaos

        outcome = run_chaos(
            ChaosConfig(seed=3, n_blocks=4, queries=0), limits=TEST_LIMITS
        )
        stub = SimpleNamespace(
            **{
                name: getattr(outcome, name)
                for name in dir(outcome)
                if not name.startswith("_")
                and name != "latency_percentiles"
            }
        )
        summary = render_chaos_summary(stub)
        assert "## Delivery latency (virtual time)" not in summary
        assert "cluster integrity" in summary


class TestTraceSummaryReport:
    def test_renders_latency_timelines_and_phases(self):
        from repro.analysis.report import render_trace_summary
        from repro.obs.summary import summarize
        from repro.obs.tracer import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            deployment, _ = ici_deployment()
            with tracer.span("stream"):
                deployment.run()
        summary = render_trace_summary(summarize(tracer), title="T")
        assert summary.startswith("# T")
        assert "## Delivery latency by message kind (virtual time)" in (
            summary
        )
        assert "## Per-node timelines" in summary
        assert "## Phases" in summary
        assert "| stream |" in summary

    def test_single_deployment_nodes_sort_numerically(self):
        from repro.analysis.report import render_trace_summary
        from repro.obs.summary import summarize
        from repro.obs.tracer import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            deployment, _ = ici_deployment()
            deployment.run()
        summary = render_trace_summary(summarize(tracer))
        rows = [
            line.split("|")[1].strip()
            for line in summary.splitlines()
            if line.startswith("| ") and line.split("|")[1].strip().isdigit()
        ]
        assert rows == sorted(rows, key=int)
        assert len(rows) > 2
