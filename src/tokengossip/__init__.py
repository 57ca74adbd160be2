"""Simulation laboratory for token-based gossip aggregation on graphs."""

from .engine import Continuous, RngStream, SynchronousDiscrete
from .fusion import (
    FusionKind,
    FusionSpec,
    TokenPayload,
    fold,
    fuse,
    fuse_payload,
    fusion_from_name,
    max_fusion,
    sum_fusion,
    weighted_avg_fusion,
)
from .graph import Graph, GraphSpec, generate, load_graph, save_graph
from .protocols import (
    GossipEps,
    MaxTime,
    ProtocolKind,
    Termination,
    Trace,
    cfld_run,
    estimate_switch_time,
    hybrid_k_run,
    init,
    run,
    two_phase_run,
)

__version__ = "0.1.0"

__all__ = [
    "Continuous",
    "FusionKind",
    "FusionSpec",
    "GossipEps",
    "Graph",
    "GraphSpec",
    "MaxTime",
    "ProtocolKind",
    "RngStream",
    "SynchronousDiscrete",
    "Termination",
    "TokenPayload",
    "Trace",
    "cfld_run",
    "estimate_switch_time",
    "fold",
    "fuse",
    "fuse_payload",
    "fusion_from_name",
    "generate",
    "hybrid_k_run",
    "init",
    "load_graph",
    "max_fusion",
    "run",
    "save_graph",
    "sum_fusion",
    "two_phase_run",
    "weighted_avg_fusion",
    "__version__",
]
