"""The tokengossip layer boundaries the traced run wraps, and the per-layer
metrics derived from one traced pass.

Layers are the package's modules.  ``engine`` and ``fusion`` get no spans:
the event loops bind ``sampler.uniform`` and ``fusion.fuse`` to local
names, so their time falls inside the ``protocols`` spans.

Every ``*_s`` metric is the total (inclusive) time of its spans in one
pass, except ``experiments.run_point_self_s``, which is self time.
``protocols.*`` totals cover every trial the pass simulates, switch-time
pilots and decay estimates included; a trial is an outermost
``run``/``two_phase_run``/``hybrid_k_run`` span (no protocols ancestor).
"""
from __future__ import annotations

import statistics
import sys

from tracer import SpanRecorder, Target

# the per-layer metrics, in the order printed
PER_LAYER = (
    "protocols.run_s",
    "protocols.events",
    "protocols.events_per_s",
    "protocols.curve_points",
    "protocols.init_s",
    "protocols.trial_ms_p50",
    "protocols.trial_ms_p90",
    "protocols.trial_samples",
    "protocols.two_phase_s",
    "protocols.cfld_s",
    "protocols.phase1_messages",
    "protocols.flood_messages",
    "protocols.gossip_exchanges",
    "cli.cmd_run_s",
    "cli.write_s",
    "cli.files_written",
    "cli.bytes_written",
    "cli.trial_reuse_ratio",
    "experiments.run_point_self_s",
    "experiments.aggregate_s",
    "experiments.fit_s",
    "analysis.hitting_s",
    "analysis.resistance_s",
    "analysis.meeting_s",
    "analysis.decay_s",
    "analysis.gaussian_s",
    "analysis.regularity_s",
    "analysis.max_residual",
    "graph.generate_s",
    "graph.attempts",
    "graph.load_s",
    "graph.regularity_s",
    "bench.trace_overhead_frac",
)

# Counts that a fixed seed must reproduce exactly.
COUNTS = (
    "protocols.events",
    "protocols.curve_points",
    "protocols.trial_samples",
    "protocols.phase1_messages",
    "protocols.flood_messages",
    "protocols.gossip_exchanges",
    "cli.files_written",
    "cli.bytes_written",
    "cli.trial_reuse_ratio",
    "graph.attempts",
)

TRIAL_SPANS = ("protocols.run", "protocols.two_phase_run", "protocols.hybrid_k_run")

# span name -> per-layer metric holding its inclusive time
_INCLUSIVE = {
    "protocols.two_phase_run": "protocols.two_phase_s",
    "protocols.cfld_run": "protocols.cfld_s",
    "cli.cmd_run": "cli.cmd_run_s",
    "cli.write": "cli.write_s",
    "experiments.aggregate": "experiments.aggregate_s",
    "experiments.fit_scaling": "experiments.fit_s",
    "analysis.hitting": "analysis.hitting_s",
    "analysis.resistance": "analysis.resistance_s",
    "analysis.meeting": "analysis.meeting_s",
    "analysis.decay": "analysis.decay_s",
    "analysis.gaussian": "analysis.gaussian_s",
    "analysis.regularity": "analysis.regularity_s",
    "graph.generate": "graph.generate_s",
    "graph.load": "graph.load_s",
    "graph.regularity": "graph.regularity_s",
}


def trace_counts(tr) -> dict:
    return {
        "eta": tr.eta,
        "curve_points": len(tr.times),
        "phase1_messages": tr.phase1_messages or 0,
        "flood_messages": tr.flood_messages or 0,
        "gossip_exchanges": tr.gossip_exchanges or 0,
    }


def library_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tokengossip" or name.startswith("tokengossip."))]


def targets() -> list:
    from tokengossip import analysis, cli, experiments, graph, protocols

    t = Target
    return [
        t(graph, "generate", "graph.generate", lambda g: {"attempts": g.attempts}),
        t(graph, "load_graph", "graph.load"),
        t(graph, "check_geometric_neighborhood", "graph.regularity"),
        t(graph, "check_volume_doubling", "graph.regularity"),
        t(graph, "check_isoperimetry", "graph.regularity"),
        t(protocols, "init", "protocols.init"),
        t(protocols, "run", "protocols.run", trace_counts),
        t(protocols, "two_phase_run", "protocols.two_phase_run", trace_counts),
        t(protocols, "hybrid_k_run", "protocols.hybrid_k_run", trace_counts),
        t(protocols, "cfld_run", "protocols.cfld_run", trace_counts),
        t(protocols, "estimate_switch_time", "protocols.estimate_switch_time"),
        t(protocols.Trace, "write_trajectory_csv", "cli.write"),
        t(protocols.Trace, "write_node_summary_csv", "cli.write"),
        t(protocols.Trace, "write_metadata_json", "cli.write"),
        t(experiments, "run_trials", "experiments.run_trials"),
        t(experiments, "run_point", "experiments.run_point"),
        t(experiments, "aggregate", "experiments.aggregate"),
        t(experiments, "fit_scaling", "experiments.fit_scaling"),
        t(analysis, "mean_hitting_times", "analysis.hitting",
          lambda h: {"max_residual": h.max_residual}),
        t(analysis, "resistance_report", "analysis.resistance"),
        t(analysis, "mean_meeting_times", "analysis.meeting"),
        t(analysis, "estimate_decay", "analysis.decay"),
        t(analysis, "check_gaussian_bound", "analysis.gaussian"),
        t(analysis, "regularity_report", "analysis.regularity"),
        t(cli, "main", "cli.main"),
        t(cli, "cmd_run", "cli.cmd_run"),
    ]


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(rec: SpanRecorder, trials_written: int, files: int, nbytes: int) -> dict:
    """Per-layer metrics of one traced pass (all but the trace overhead)."""
    out = {name: 0.0 for name in PER_LAYER if name != "bench.trace_overhead_frac"}
    selfs = rec.self_times()
    trial_ms = []
    executed_by_cli = 0
    for i, s in enumerate(rec.spans):
        anc = [a.name for a in rec.ancestors(i)]
        in_protocols = any(a.startswith("protocols.") for a in anc)
        if s.name in _INCLUSIVE:
            out[_INCLUSIVE[s.name]] += s.duration
        if s.name == "experiments.run_point":
            out["experiments.run_point_self_s"] += selfs[i]
        elif s.name == "graph.generate":
            out["graph.attempts"] += s.counts["attempts"]
        elif s.name == "analysis.hitting":
            out["analysis.max_residual"] = max(out["analysis.max_residual"],
                                               s.counts["max_residual"])
        elif s.name == "protocols.cfld_run":
            out["protocols.flood_messages"] += s.counts["flood_messages"]
        elif s.name == "protocols.init" and not in_protocols:
            out["protocols.init_s"] += s.duration
        if s.name in TRIAL_SPANS and not in_protocols:
            out["protocols.run_s"] += s.duration
            out["protocols.events"] += s.counts["eta"]
            out["protocols.curve_points"] += s.counts["curve_points"]
            out["protocols.phase1_messages"] += s.counts["phase1_messages"]
            out["protocols.gossip_exchanges"] += s.counts["gossip_exchanges"]
            trial_ms.append(1e3 * s.duration)
            if "cli.cmd_run" in anc and not any(a.startswith("analysis.") for a in anc):
                executed_by_cli += 1
    if out["protocols.run_s"] > 0:
        out["protocols.events_per_s"] = out["protocols.events"] / out["protocols.run_s"]
    out["protocols.trial_ms_p50"] = statistics.median(trial_ms) if trial_ms else 0.0
    out["protocols.trial_ms_p90"] = _percentile(trial_ms, 90)
    out["protocols.trial_samples"] = len(trial_ms)
    out["cli.files_written"] = files
    out["cli.bytes_written"] = nbytes
    if executed_by_cli:
        out["cli.trial_reuse_ratio"] = trials_written / executed_by_cli
    return out
