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
gossip's pairwise averaging (``_walk.exchange``).  CFLD has no event loop:
both clocks read it off one table of arrival times (``cfld_run``).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import _walk
from .engine import RNG_ALGORITHM, ClockMode, Continuous, RngStream, SynchronousDiscrete
from .fusion import (INT64_MIN, FusionKind, FusionSpec, TokenPayload, fold, sum_fusion,
                     weighted_avg_fusion)
from .graph import Graph


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
    thread; the resulting Trace is immutable.  The node arrays are views on
    the walk kernel's buffers (``_walk._buffers``), values as ``_walk._encode``
    writes them; ``active_list`` holds the active nodes in its first ``active_count``.

    Its draws come from ``rng``, its stream's generator: ``init``'s set-up
    draws, then the walk kernel's (``_walk``) and the flood's, each drawn
    where it is used."""

    __slots__ = (
        "graph",
        "fusion",
        "kind",
        "clock",
        "_ints",
        "_floats",
        "ival",
        "yv",
        "wv",
        "counts",
        "status",
        "active_list",
        "active_count",
        "active_pos",
        "t",
        "eta",
        "sends",
        "receives",
        "rng",
        "_call",
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
        self.rng = stream.generator()
        self._call = None  # the kernel call's fixed arguments (_walk._bind)
        n = graph.n
        (self._ints, self._floats, self.counts, self.active_list, self.active_pos, self.sends,
         self.receives, self.ival, self.yv, self.wv) = _walk._buffers(
            n, isinstance(clock, SynchronousDiscrete))
        self.status = bytearray(n)
        self.active_count = 0
        self.active_pos[:] = -1
        self.t = 0.0
        self.eta = 0
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
            self.active_pos[i] = self.active_count
            self.active_list[self.active_count] = i
            self.active_count += 1

    def deactivate(self, i: int) -> None:
        pos = self.active_pos[i]
        self.active_count -= 1
        last = self.active_list[self.active_count]
        self.active_list[pos] = last
        self.active_pos[last] = pos
        self.active_pos[i] = -1
        self.status[i] = 0

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
    state = SimState(graph, fusion, kind, clock, RngStream(master_seed=seed, stream_id=stream_id))
    if kind is ProtocolKind.GOSSIP:
        if isinstance(clock, SynchronousDiscrete):
            raise ValueError("gossip runs on the continuous clock only")
    elif fusion is None:
        raise ValueError("token protocols need a fusion spec")
    _walk._encode(state, list(x))
    state.counts[:] = 1

    if kind is ProtocolKind.SRW:
        origin = params.get("origin")
        if origin is None:
            origin = int(state.rng.integers(n))
            params["origin"] = origin
        if not 0 <= origin < n:
            raise ValueError(f"origin {origin} out of range")
        state.activate(origin)
    elif kind in (ProtocolKind.CRW, ProtocolKind.TWO_PHASE, ProtocolKind.GOSSIP):
        state.status[:] = b"\x01" * n
        state.active_list[:] = state.active_pos[:] = np.arange(n)
        state.active_count = n
    elif kind is ProtocolKind.HYBRID_K:
        k = params.get("k")
        if k is None or not 1 <= k <= n:
            raise ValueError(f"hybrid needs 1 <= k <= n, got {k}")
        if fusion is None or fusion.kind.value != "wavg":
            raise ValueError("hybrid active-active relaxation is defined for weighted averages only")
        for i in sorted(state.rng.choice(n, size=k, replace=False).tolist()):
            state.activate(i)

    state.active_counts[0] = state.active_count
    if n == 1:
        state.holder = 0
    return state


def _crw_starts(graph: Graph, trials: int, stream: RngStream | int, clock: ClockMode,
                start=None):
    """The start states of ``trials`` Monte-Carlo CRW trials on ``clock``,
    one at a time, on streams ``stream_id + trial`` (an int is the master
    seed of stream 0): SUM of zeros, with every node active and counted,
    or only the nodes of the set ``start``, the others deactivated in
    ascending order and holding count 0.  The start set's status, active
    list, positions and counts draw nothing, so the first trial's are
    copied into the others."""
    if isinstance(stream, int):
        stream = RngStream(master_seed=stream, stream_id=0)
    fusion, zero = sum_fusion(), [0] * graph.n
    first = None
    for trial in range(trials):
        state = init(ProtocolKind.CRW, graph, zero, fusion, seed=stream.master_seed,
                     stream_id=stream.stream_id + trial, clock=clock)
        if start is not None:
            if first is None:
                for i in range(graph.n):
                    if i not in start:
                        state.deactivate(i)
                        state.counts[i] = 0
                first = (state.status[:], state.active_list.copy(), state.active_pos.copy(),
                         state.counts.copy(), state.active_count)
            else:
                (state.status[:], state.active_list[:], state.active_pos[:], state.counts[:],
                 state.active_count) = first
            state.active_counts[0] = state.active_count
        yield state


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
    active = state.active_list[:state.active_count]
    if ncomp > 1 and not isinstance(stop, MaxTime):
        if len(set(label[state.counts != 0].tolist()) | set(label[active].tolist())) > 1:
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
            if side is not None and len(set(side[active].tolist())) > 1:
                raise ValueError("lazy_prob 0 on a bipartite graph: tokens on opposite "
                                 "sides never meet; use lazy_prob > 0")
    elif isinstance(stop, MaxTime):
        max_t = float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for a token walk")
    expected = fold(state.fusion, _walk._decode(state)) if check_invariants else None
    completed = _walk.walk(state, max_t, True, expected)
    return _trace(
        state, completed, payload_at=state.holder, holder=state.holder,
        rounds=state.rounds if state.rounds else None,
    )


def _walk_until(state, t) -> None:
    """Walk to time t, ending with a curve point there, and never halt:
    tokens keep walking after some node's count has reached n, since no
    node can observe that globally."""
    _walk.walk(state, float(t), False)
    state.record_curve_point()


def _trace(state, completed, payload_at=None, final_values=False, **fields) -> "Trace":
    """The Trace of a finished run, after recording its final curve point:
    the fields every protocol shares, read from ``state``, plus the
    protocol-specific ``fields``.  The values are decoded here, once: the
    final payload is node ``payload_at``'s if its count is n, and
    ``final_values`` are every node's."""
    state.record_curve_point()
    n, values = state.graph.n, _walk._decode(state)
    if payload_at is not None and state.counts[payload_at] == n:
        fields["final_payload"] = TokenPayload(values[payload_at], n)
    if final_values:
        fields["final_values"] = values
    return Trace(
        protocol=state.kind.value,
        n=n,
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
        per_node_sends=state.sends.tolist(),
        per_node_receives=state.receives.tolist(),
        final_counts=state.counts.tolist(),
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

    z = state.yv.tolist()
    zbar = math.fsum(z) / len(z)
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
            q = math.fsum((v - zbar) ** 2 for v in state.yv.tolist())
            if q <= threshold:
                first_passage = exchanges
                completed = True
    errors.append((exchanges, rel_error()))
    return _trace(
        state, completed, final_values=True, gossip_errors=errors,
        gossip_first_passage=first_passage, gossip_exchanges=exchanges,
    )


# -- controlled flooding --------------------------------------------------


def cfld_run(state: SimState) -> "Trace":
    """Flood the payload of every active node (an origin) to all nodes: a
    node forwards an origin's flood once, when it first hears it, to every
    neighbor but the sender(s) of that first receipt.

    Both clocks read the flood off a (k x n) table of arrival times for the
    k origins in increasing order: node v first hears origin o at a[o, v]
    and forwards it X[o, v] later.  On rounds X = 1 and a is the hop
    distance.  On the continuous clock each forward waits an independent
    Exp(1) time, which is the law of an event loop over the pending
    forwards (by memorylessness): X is one ``standard_exponential((k, n))``
    draw from ``state.rng``, where the walk left it, row o over nodes
    0..n-1, and a is first-passage percolation.  Each origin takes one
    ``dijkstra`` solve on the graph whose edges out of v weigh X[o, v].
    v's first senders are the neighbors w with a[o, w] + X[o, w] == a[o, v]
    (bit for bit, as the solve forms a), and v sends to every other
    neighbor.  Each node fuses the other origins' payloads in order of
    (a, origin index).

    On return every node holds the fused combination of all origin
    payloads with count n.  Transmissions are counted per link, so each
    origin's flood uses at most 2|E| messages.
    """
    g = state.graph
    n = g.n
    origins = sorted(state.active_list[:state.active_count].tolist())
    if not origins:
        raise ProtocolError("flood needs at least one origin")
    own = state.counts[origins]
    total = int(own.sum())
    if total != n or state.counts.sum() != n:
        raise ProtocolError(
            f"origin counts sum to {total} (of total {state.counts.sum()}), expected {n}: "
            "broken two-phase handoff"
        )
    k = len(origins)
    flat, deg = g.flat, g.degrees
    src = np.repeat(np.arange(n), deg)
    rounds = isinstance(state.clock, SynchronousDiscrete)
    x = np.ones((k, n)) if rounds else state.rng.standard_exponential((k, n))
    # not g.adjacency_matrix, which other callers share: each origin writes its weights here
    w = csr_matrix((np.empty(len(flat)), flat, g.offsets), shape=(n, n))
    a = np.empty((k, n))
    per_edge = np.zeros(len(flat), dtype=np.int64)
    per_origin, last = [], 0.0
    for i, o in enumerate(origins):
        w.data[:] = np.repeat(x[i], deg)
        a[i] = dijkstra(w, indices=o, min_only=True)
        if np.isinf(a[i]).any():
            raise ProtocolError(f"flood from origin {o} did not reach all nodes")
        forward = a[i] + x[i]
        # v sends to each neighbour w that is not one of its first senders
        link = forward[flat] != a[i][src]
        per_edge += link
        per_origin.append(int(link.sum()))
        last = forward[src[link]].max(initial=last)  # the last forward
    del x, w  # freed, with src and per_edge below, before the fusion sets the peak memory
    state.sends += np.bincount(src, per_edge, n).astype(np.int64)
    state.receives += np.bincount(flat, per_edge, n).astype(np.int64)
    flood_messages = int(per_edge.sum())
    del src, per_edge
    state.eta += flood_messages
    state.t += float(last)
    if rounds:
        state.rounds += int(a.max())
    _fuse_ranks(state, origins, np.argsort(a, axis=0, kind="stable"))
    state.counts += n
    state.counts[origins] -= own
    if np.any(state.counts != n):
        raise ProtocolError("flood completed but some node's count is not n")
    return _trace(
        state, True, payload_at=0, final_values=True, flood_messages=flood_messages,
        flood_messages_per_origin=per_origin, flood_origins=k, rounds=state.rounds,
    )


def _fuse_ranks(state: SimState, origins: list, order: np.ndarray) -> None:
    """Fuse into each node w of ``state`` the origins' payloads (their
    values) rank by rank: at rank r that of origin ``origins[order[r, w]]``,
    unless it is w.  All nodes move together, one rank at a time, and every
    node's result is its fold of ``fusion.fuse`` bit for bit: SUM raises the
    fusion's OverflowError, leaving the values as they were, at the first
    rank, then the lowest node, where a partial sum leaves int64, and WAVG
    keeps ``_fuse_wavg``'s zero-weight identities and operation order.
    """
    fusion, ival, yv, wv = state.fusion, state.ival.copy(), state.yv, state.wv
    n = len(ival)
    own = np.full(n, -1)
    own[origins] = np.arange(len(origins))
    oi = ival[origins]
    zero = wv[origins] == 0.0  # fuses as (0.0, 0.0), which _fuse_wavg returns for two zeros
    oy, ow = np.where(zero, 0.0, yv[origins]), np.where(zero, 0.0, wv[origins])
    for rank in order:
        own_b = rank == own
        if fusion.kind is FusionKind.SUM:
            b = np.where(own_b, 0, oi[rank])
            s = ival + b  # wraps on overflow
            over = ((ival ^ s) & (b ^ s)) < 0
            if over.any():
                w = int(over.argmax())
                fusion.fuse(int(ival[w]), int(b[w]))  # raises with the exact sum
            ival = s
        elif fusion.kind is FusionKind.MAX:
            np.maximum(ival, np.where(own_b, INT64_MIN, oi[rank]), out=ival)
        else:
            yb, wb = oy[rank], ow[rank]
            with np.errstate(all="ignore"):  # 0/0 where the formula is not taken
                w = wv + wb
                y = (wv * yv + wb * yb) / w
            take_b = (wv == 0.0) & ~own_b
            keep = own_b | (wb == 0.0)
            yv = np.where(take_b, yb, np.where(keep, yv, y))
            wv = np.where(take_b, wb, np.where(keep, wv, w))
    state.ival[:], state.yv[:], state.wv[:] = ival, yv, wv


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
    if trials < 1:
        raise ValueError(f"switch-time pilot needs trials >= 1, not {trials!r}")
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
    active = state.active_list[:state.active_count]
    errs = [abs(y - true_mean) for y in state.yv[active].tolist()]
    return _trace(
        state, True, final_values=True, value_error_max=max(errs),
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
