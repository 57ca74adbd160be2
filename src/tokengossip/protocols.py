"""Node state machines and global dynamics of the token protocols.

Every protocol builds on the same per-node automaton: an active node's
clock tick sends its (value, count) payload to a random neighbor and
leaves the sender holding the fusion identity with count zero and no
transmission permit; a reception fuses the payload in and grants the
permit.  SRW starts with one permit, CRW with all of them (permits then
coalesce), GOSSIP-AVE keeps every node permitted forever, CFLD floods
surviving payloads, and the two-phase scheme chains CRW into CFLD to
reach exact consensus at every node.

The token walks (SRW, CRW, two-phase phase 1 and the fixed-k hybrid) run
in the compiled kernel, ``_walk.walk``, on either clock, and so does
gossip's pairwise averaging (``_walk.exchange``).  CFLD runs here: on
rounds it is read off hop distances, on the continuous clock an event loop.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _walk
from .engine import (
    RNG_ALGORITHM,
    BlockSampler,
    ClockMode,
    Continuous,
    RngStream,
    SynchronousDiscrete,
)
from .fusion import FusionKind, FusionSpec, TokenPayload, fold, weighted_avg_fusion
from .graph import Graph, distances_from


class ProtocolError(RuntimeError):
    """A protocol invariant was violated (a bug, never a random outcome)."""


class ProtocolKind(str, Enum):
    SRW = "srw"
    CRW = "crw"
    GOSSIP = "gossip"
    TWO_PHASE = "two_phase"
    HYBRID_K = "hybrid_k"


# -- stop conditions ----------------------------------------------------


@dataclass(frozen=True)
class Termination:
    """Run until some node's count reaches n."""


@dataclass(frozen=True)
class MaxTime:
    t: float


@dataclass(frozen=True)
class GossipEps:
    """Stop when ||z - mean|| / ||z(0)|| drops below eps."""

    eps: float
    horizon: int = 1_000_000_000  # max exchanges before flagging incomplete

    def __post_init__(self):
        if not (isinstance(self.eps, (int, float)) and 0 < self.eps < 1):
            raise ValueError(f"gossip eps must lie in (0, 1), not {self.eps!r}")
        if type(self.horizon) is not int or self.horizon < 1:
            raise ValueError(f"gossip horizon must be an int >= 1, not {self.horizon!r}")


class SimState:
    """Mutable state of one simulation: per-node automata plus the clock,
    message ledger, and the protocol's bookkeeping.  Confined to a single
    thread; the resulting Trace is immutable."""

    __slots__ = (
        "graph",
        "fusion",
        "kind",
        "clock",
        "values",
        "counts",
        "status",
        "active_list",
        "active_pos",
        "t",
        "eta",
        "sends",
        "receives",
        "sampler",
        "stream",
        "holder",
        "times",
        "active_counts",
        "message_counts",
        "rounds",
        "active_active",
    )

    def __init__(self, graph, fusion, kind, clock, stream):
        self.graph = graph
        self.fusion = fusion
        self.kind = kind
        self.clock = clock
        self.stream = stream
        n = graph.n
        self.values: list = [None] * n
        self.counts = [0] * n
        self.status = bytearray(n)
        self.active_list: list = []
        self.active_pos = [-1] * n
        self.t = 0.0
        self.eta = 0
        self.sends = [0] * n
        self.receives = [0] * n
        self.sampler: BlockSampler = None  # set by init() after setup draws
        self.holder: Optional[int] = None
        self.times = [0.0]
        self.active_counts = [0]
        self.message_counts = [0]
        self.rounds = 0
        self.active_active = 0  # hybrid-k active-to-active relaxations

    # -- active-set bookkeeping (O(1) activate/deactivate/sample) ------

    def activate(self, i: int) -> None:
        if not self.status[i]:
            self.status[i] = 1
            self.active_pos[i] = len(self.active_list)
            self.active_list.append(i)

    def deactivate(self, i: int) -> None:
        pos = self.active_pos[i]
        last = self.active_list[-1]
        self.active_list[pos] = last
        self.active_pos[last] = pos
        self.active_list.pop()
        self.active_pos[i] = -1
        self.status[i] = 0

    @property
    def active_count(self) -> int:
        return len(self.active_list)

    def record_curve_point(self) -> None:
        """Append (t, active count, messages) unless it repeats the last point."""
        point = (self.t, self.active_count, self.eta)
        if point != (self.times[-1], self.active_counts[-1], self.message_counts[-1]):
            self.times.append(self.t)
            self.active_counts.append(self.active_count)
            self.message_counts.append(self.eta)


def init(
    kind: ProtocolKind | str,
    graph: Graph,
    x: Sequence,
    fusion: Optional[FusionSpec],
    params: Optional[dict] = None,
    seed: int = 0,
    clock: ClockMode = Continuous(),
    stream_id: int = 0,
) -> SimState:
    """Set up per-node variables and permits for one protocol run.

    Every node starts with value x_i and count 1.  Which nodes hold
    transmission permits depends on the protocol: one for SRW, all for
    CRW and GOSSIP, k random ones for the fixed-k hybrid.
    """
    kind = ProtocolKind(kind)
    params = dict(params or {})
    n = graph.n
    if len(x) != n:
        raise ValueError(f"need {n} initial values, got {len(x)}")
    stream = RngStream(master_seed=seed, stream_id=stream_id)
    rng = stream.generator()

    state = SimState(graph, fusion, kind, clock, stream)
    if kind is ProtocolKind.GOSSIP:
        if isinstance(clock, SynchronousDiscrete):
            raise ValueError("gossip runs on the continuous clock only")
        state.values = [float(v) for v in x]
        if not all(map(math.isfinite, state.values)):
            raise ValueError("gossip values must be finite")
    else:
        if fusion is None:
            raise ValueError("token protocols need a fusion spec")
        state.values = list(x)
        fusion.validate_values(state.values)
        if fusion.kind is FusionKind.WEIGHTED_AVG:
            state.values = [(float(y), float(w)) for y, w in state.values]
    state.counts = [1] * n

    if kind is ProtocolKind.SRW:
        origin = params.get("origin")
        if origin is None:
            origin = int(rng.integers(n))
            params["origin"] = origin
        if not 0 <= origin < n:
            raise ValueError(f"origin {origin} out of range")
        state.activate(origin)
    elif kind in (ProtocolKind.CRW, ProtocolKind.TWO_PHASE, ProtocolKind.GOSSIP):
        state.status[:] = b"\x01" * n
        state.active_list = list(range(n))
        state.active_pos = list(range(n))
    elif kind is ProtocolKind.HYBRID_K:
        k = params.get("k")
        if k is None or not 1 <= k <= n:
            raise ValueError(f"hybrid needs 1 <= k <= n, got {k}")
        if fusion is None or fusion.kind.value != "wavg":
            raise ValueError("hybrid active-active relaxation is defined for weighted averages only")
        for i in sorted(rng.choice(n, size=k, replace=False).tolist()):
            state.activate(i)

    state.sampler = BlockSampler(rng)
    state.active_counts[0] = state.active_count
    if n == 1:
        state.holder = 0
    return state


# -- the event loops -----------------------------------------------------


def run(state: SimState, stop, check_invariants: bool = False) -> "Trace":
    """Drive the event loop of an SRW, CRW or gossip state until the stop
    condition and build the Trace; the two-phase scheme and the fixed-k
    hybrid have runners of their own.

    Hitting a MaxTime bound before natural termination flags the trace
    incomplete rather than silently truncating.  With ``check_invariants``
    the walk kernel checks conservation after every event and raises
    ProtocolError on a violation (``_walk.walk``).  A Termination or
    GossipEps run raises ValueError when its tokens and counts lie in more
    than one component of the graph, since it could never end.
    """
    ncomp, label = state.graph._components
    if ncomp > 1 and not isinstance(stop, MaxTime):
        held = {label[i] for i, c in enumerate(state.counts) if c}
        if len(held | {label[i] for i in state.active_list}) > 1:
            raise ValueError("the tokens and counts lie in more than one component of the "
                             "graph, so the run could never end; stop it with MaxTime")
    if state.kind is ProtocolKind.GOSSIP:
        return _run_gossip(state, stop)
    if state.kind in (ProtocolKind.HYBRID_K, ProtocolKind.TWO_PHASE):
        raise ProtocolError(f"run does not drive {state.kind.value}: use {state.kind.value}_run")
    if isinstance(stop, Termination):
        max_t = math.inf
        if isinstance(state.clock, SynchronousDiscrete) and state.clock.lazy_prob == 0:
            # every token crosses an edge each round, so on a bipartite graph
            # tokens on opposite sides never share a node
            side = state.graph._two_colouring
            if side is not None and len(set(side[state.active_list].tolist())) > 1:
                raise ValueError("lazy_prob 0 on a bipartite graph: tokens on opposite "
                                 "sides never meet; use lazy_prob > 0")
    elif isinstance(stop, MaxTime):
        max_t = float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for a token walk")
    expected = fold(state.fusion, state.values) if check_invariants else None
    completed = _walk.walk(state, max_t, True, expected)
    holder = state.holder
    payload = None
    if holder is not None and state.counts[holder] == state.graph.n:
        payload = TokenPayload(state.values[holder], state.counts[holder])
    return _trace(
        state, completed, holder=holder, final_payload=payload,
        rounds=state.rounds if state.rounds else None,
    )


def _walk_until(state, t) -> None:
    """Walk to time t, ending with a curve point there, and never halt:
    tokens keep walking after some node's count has reached n, since no
    node can observe that globally."""
    _walk.walk(state, float(t), False)
    state.record_curve_point()


def _trace(state, completed, **fields) -> "Trace":
    """The Trace of a finished run, after recording its final curve point:
    the fields every protocol shares, read from ``state``, plus the
    protocol-specific ``fields``."""
    state.record_curve_point()
    return Trace(
        protocol=state.kind.value,
        n=state.graph.n,
        master_seed=state.stream.master_seed,
        stream_id=state.stream.stream_id,
        rng_algorithm=RNG_ALGORITHM,
        clock_mode=state.clock.name,
        lazy_prob=getattr(state.clock, "lazy_prob", None),
        completed=completed,
        tau=state.t,
        eta=state.eta,
        times=list(state.times),
        active_counts=list(state.active_counts),
        message_counts=list(state.message_counts),
        per_node_sends=list(state.sends),
        per_node_receives=list(state.receives),
        final_counts=list(state.counts),
        **fields,
    )


def _run_gossip(state: SimState, stop) -> "Trace":
    """Pairwise averaging on the walk kernel (``_walk.exchange``), which
    pauses where the stop rule needs Python: at powers of two of the
    exchange count (the error log), at its multiples of 4096 and when the
    running squared error q falls to the threshold (an exact ``fsum``
    refresh of q, against float drift), and at the horizon."""
    if isinstance(stop, GossipEps):
        eps, horizon, max_t = stop.eps, stop.horizon, math.inf
    elif isinstance(stop, MaxTime):
        eps, horizon, max_t = 0.0, 1_000_000_000, float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for gossip")

    n = state.graph.n
    z = state.values
    zbar = math.fsum(z) / n
    norm0 = math.sqrt(math.fsum(v * v for v in z))
    q = math.fsum((v - zbar) ** 2 for v in z)
    threshold = (eps * norm0) ** 2

    def rel_error():
        return math.sqrt(max(q, 0.0)) / norm0 if norm0 > 0 else 0.0

    errors = [(0, rel_error())]
    next_log = 1
    first_passage = None
    if q <= threshold and isinstance(stop, GossipEps):
        first_passage = 0
    exchanges = 0
    completed = first_passage is not None
    while not completed and exchanges < horizon:
        pause = min(next_log, exchanges - exchanges % 4096 + 4096, horizon)
        paused, exchanges, q = _walk.exchange(state, max_t, exchanges, pause, q, threshold)
        if not paused:
            completed = not isinstance(stop, GossipEps)
            break
        if exchanges == next_log:
            errors.append((exchanges, rel_error()))
            next_log *= 2
        if exchanges % 4096 == 0 or q <= threshold:
            q = math.fsum((v - zbar) ** 2 for v in z)
            if q <= threshold:
                first_passage = exchanges
                completed = True
    errors.append((exchanges, rel_error()))
    return _trace(
        state, completed, final_values=list(z), gossip_errors=errors,
        gossip_first_passage=first_passage, gossip_exchanges=exchanges,
    )


# -- controlled flooding --------------------------------------------------


def cfld_run(state: SimState) -> "Trace":
    """Flood the payload of every active node (an origin) to all nodes: a
    node forwards an origin's flood once, when it first hears it, to every
    neighbor but the sender(s) of that first receipt.  On rounds the flood
    is a breadth-first search, read off ``distances_from`` with no draws:
    v hears o in round d(o, v) and sends to each neighbor w with
    d(o, w) >= d(o, v), and each node fuses the other origins' payloads in
    order of (distance, origin).  On the continuous clock each pending
    forward draws an exponential wait and is picked uniformly.

    On return every node holds the fused combination of all origin
    payloads with count n.  Transmissions are counted per link, so each
    origin's flood uses at most 2|E| messages.
    """
    g = state.graph
    n = g.n
    origins = sorted(state.active_list)
    if not origins:
        raise ProtocolError("flood needs at least one origin")
    total = sum(state.counts[o] for o in origins)
    if total != n or sum(state.counts) != n:
        raise ProtocolError(
            f"origin counts sum to {total} (of total {sum(state.counts)}), expected {n}: "
            "broken two-phase handoff"
        )
    payloads = [(state.values[o], state.counts[o]) for o in origins]
    fuse = state.fusion.fuse
    values = state.values
    counts = state.counts
    phase_start_eta = state.eta

    if isinstance(state.clock, SynchronousDiscrete):
        dist = distances_from(g, origins)
        offsets, flat = g.csr
        src = np.repeat(np.arange(n), np.diff(offsets))
        near = dist[:, src]
        link = (near >= 0) & (dist[:, flat] >= near)  # per origin: v sends to w
        per_origin_messages = link.sum(axis=1).tolist()
        oi, e = np.nonzero(link)
        state.sends = (np.bincount(src[e], minlength=n) + state.sends).tolist()
        state.receives = (np.bincount(flat[e], minlength=n) + state.receives).tolist()
        state.eta += len(e)
        if len(e):
            state.t += 1.0 + float(near[oi, e].max())  # distance d sends in round d + 1
        state.rounds += int(dist.max())
        order = np.argsort(dist, axis=0, kind="stable").T.tolist()
        for w, (heard, d) in enumerate(zip(order, dist.T.tolist())):
            for o in heard:
                if d[o] > 0:
                    pv, pc = payloads[o]
                    values[w] = fuse(values[w], pv)
                    counts[w] += pc
        received = dist >= 0
    else:
        nbr = g.adjacency
        sampler = state.sampler
        sends, receives = state.sends, state.receives
        received = [bytearray(n) for _ in origins]
        for oi, o in enumerate(origins):
            received[oi][o] = 1
        per_origin_messages = [0] * len(origins)
        # (node, origin index, its first sender or -1 at the origin)
        pending = [(o, oi, -1) for oi, o in enumerate(origins) if nbr[o]]
        while pending:
            m = len(pending)
            state.t += sampler.exponential() / m
            idx = int(sampler.uniform() * m)
            v, oi, sender = pending[idx]
            pending[idx] = pending[-1]
            pending.pop()
            rec = received[oi]
            cnt = 0
            pv, pc = payloads[oi]
            for w in nbr[v]:
                if w == sender:
                    continue
                cnt += 1
                receives[w] += 1
                if not rec[w]:
                    rec[w] = 1
                    values[w] = fuse(values[w], pv)
                    counts[w] += pc
                    if len(nbr[w]) > 1:
                        pending.append((w, oi, v))
            sends[v] += cnt
            state.eta += cnt
            per_origin_messages[oi] += cnt

    for o, rec in zip(origins, received):
        if not all(rec):
            raise ProtocolError(f"flood from origin {o} did not reach all nodes")
    if any(c != n for c in counts):
        raise ProtocolError("flood completed but some node's count is not n")
    return _trace(
        state, True, final_payload=TokenPayload(values[0], counts[0]),
        final_values=list(values), flood_messages=state.eta - phase_start_eta,
        flood_messages_per_origin=per_origin_messages, flood_origins=len(origins),
        rounds=state.rounds,
    )


def two_phase_run(
    graph: Graph,
    x: Sequence,
    fusion: FusionSpec,
    switch_time: float,
    seed: int = 0,
    clock: ClockMode = Continuous(),
    stream_id: int = 0,
    gamma: Optional[float] = None,
) -> "Trace":
    """CRW until the deterministic ``switch_time``, then flood the survivors.

    All n nodes finish holding the exact aggregate; the trace records
    phase-1 and phase-2 (flood) message counts separately.  The switch
    time is usually ``estimate_switch_time(graph, gamma, ...)``, and
    ``gamma`` records the target token count it was estimated for.
    """
    if not 0 <= switch_time < math.inf:
        raise ValueError("switch time must be finite and nonnegative")
    switch_time = float(switch_time)
    state = init(
        ProtocolKind.TWO_PHASE, graph, x, fusion, seed=seed, clock=clock,
        stream_id=stream_id,
    )
    if switch_time > 0:
        _walk_until(state, switch_time)
    phase1_messages = state.eta
    trace = cfld_run(state)
    return replace(
        trace, switch_time=switch_time, phase1_messages=phase1_messages,
        phase2_messages=trace.flood_messages, gamma=gamma,
    )


def estimate_switch_time(
    graph: Graph,
    gamma: float,
    trials: int = 32,
    seed: int = 0,
    clock: ClockMode = Continuous(),
) -> float:
    """Pilot estimate of the first time the expected active-token count of
    CRW drops to gamma, on ``clock``: ``analysis.estimate_decay`` on
    streams ``(1 << 20) + trial``, read by ``DecayCurve.t_gamma``."""
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")
    if gamma >= graph.n:
        return 0.0
    from .analysis import estimate_decay  # call-time: analysis imports this module

    lazy = clock.lazy_prob if isinstance(clock, SynchronousDiscrete) else None
    curve = estimate_decay(graph, trials, stream=RngStream(seed, 1 << 20), lazy_prob=lazy)
    return curve.t_gamma(gamma)[0]


def hybrid_k_run(
    graph: Graph,
    x: Sequence,
    k: int,
    seed: int = 0,
    horizon: float = 100.0,
    stream_id: int = 0,
) -> "Trace":
    """Fixed-k token hybrid for weighted averages.

    Active-to-inactive contacts transfer the token as in SRW;
    active-to-active contacts relax both (estimate, weight) pairs as in
    pairwise gossip and keep both permits, so the active count is
    invariant.  There is no count-based completion certificate: the run
    goes to the horizon and reports approximation error against the true
    weighted mean.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"stop time {horizon!r} must be finite")
    state = init(
        ProtocolKind.HYBRID_K, graph, x, weighted_avg_fusion(), params={"k": k},
        seed=seed, stream_id=stream_id,
    )
    total_w = math.fsum(w for _, w in x)
    true_mean = math.fsum(y * w for y, w in x) / total_w if total_w > 0 else 0.0
    _walk_until(state, horizon)
    # every change of the active count records a curve point
    if set(state.active_counts) != {k}:
        raise ProtocolError(f"hybrid active count drifted: {sorted(set(state.active_counts))}")
    values = state.values
    errs = [abs(values[i][0] - true_mean) for i in state.active_list]
    return _trace(
        state, True, final_values=list(values), value_error_max=max(errs),
        value_error_mean=sum(errs) / len(errs), active_active_events=state.active_active,
    )


# -- traces ---------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """The raw material for all complexity metrics: the token-count step
    function, message ledger, termination time, and the final payload."""

    protocol: str
    n: int
    master_seed: int
    stream_id: int
    rng_algorithm: str
    clock_mode: str
    lazy_prob: Optional[float]
    completed: bool
    tau: float
    eta: int
    times: list
    active_counts: list
    message_counts: list
    per_node_sends: list
    per_node_receives: list
    final_counts: list
    holder: Optional[int] = None
    final_payload: Optional[TokenPayload] = None
    final_values: Optional[list] = None
    gossip_errors: Optional[list] = None
    gossip_first_passage: Optional[int] = None
    gossip_exchanges: Optional[int] = None
    flood_messages: Optional[int] = None
    flood_messages_per_origin: Optional[list] = None
    flood_origins: Optional[int] = None
    rounds: Optional[int] = None
    switch_time: Optional[float] = None
    phase1_messages: Optional[int] = None
    phase2_messages: Optional[int] = None
    gamma: Optional[float] = None
    value_error_max: Optional[float] = None
    value_error_mean: Optional[float] = None
    active_active_events: Optional[int] = None

    def sigma(self, k: int) -> Optional[float]:
        """First time at most k active tokens remain, if reached."""
        for t, c in zip(self.times, self.active_counts):
            if c <= k:
                return t
        return None

    def write_trajectory_csv(self, path) -> None:
        lines = ["t,active_count,total_messages"]
        lines.extend(
            f"{t!r},{c},{m}"
            for t, c, m in zip(self.times, self.active_counts, self.message_counts)
        )
        Path(path).write_text("\n".join(lines) + "\n")

    def write_node_summary_csv(self, path) -> None:
        lines = ["node,sends,receives,final_count"]
        lines.extend(
            f"{i},{s},{r},{c}"
            for i, (s, r, c) in enumerate(
                zip(self.per_node_sends, self.per_node_receives, self.final_counts)
            )
        )
        Path(path).write_text("\n".join(lines) + "\n")

    def metadata(self) -> dict:
        meta = {
            "protocol": self.protocol,
            "n": self.n,
            "master_seed": self.master_seed,
            "stream_id": self.stream_id,
            "rng_algorithm": self.rng_algorithm,
            "clock_mode": self.clock_mode,
            "lazy_prob": self.lazy_prob,
            "completed": self.completed,
            "tau": self.tau,
            "eta": self.eta,
            "holder": self.holder,
        }
        for name in (
            "gossip_first_passage",
            "gossip_exchanges",
            "flood_messages",
            "flood_origins",
            "rounds",
            "switch_time",
            "phase1_messages",
            "phase2_messages",
            "gamma",
        ):
            v = getattr(self, name)
            if v is not None:
                meta[name] = v
        return meta

    def write_metadata_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.metadata(), indent=2, sort_keys=True) + "\n")
