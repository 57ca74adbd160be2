"""Node state machines and global dynamics of the token protocols.

Every protocol builds on the same per-node automaton: an active node's
clock tick sends its (value, count) payload to a random neighbor and
leaves the sender holding the fusion identity with count zero and no
transmission permit; a reception fuses the payload in and grants the
permit.  SRW starts with one permit, CRW with all of them (permits then
coalesce), GOSSIP-AVE keeps every node permitted forever, CFLD floods
surviving payloads, and the two-phase scheme chains CRW into CFLD to
reach exact consensus at every node.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from . import _walk
from .engine import (
    RNG_ALGORITHM,
    BlockSampler,
    ClockMode,
    Continuous,
    RngStream,
    SynchronousDiscrete,
)
from .fusion import FusionSpec, TokenPayload, fold, weighted_avg_fusion
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
        state.values = [float(v) for v in x]
        if not all(map(math.isfinite, state.values)):
            raise ValueError("gossip values must be finite")
    else:
        if fusion is None:
            raise ValueError("token protocols need a fusion spec")
        state.values = list(x)
        fusion.validate_values(state.values)
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


# -- the Figure-level primitives ---------------------------------------


def _release(state: SimState, i: int) -> tuple:
    """Sender side of a send: node i gives up its (value, count) payload
    and its permit, and is left holding the identity with count zero."""
    v = state.values[i]
    c = state.counts[i]
    state.values[i] = state.fusion.identity
    state.counts[i] = 0
    state.deactivate(i)
    state.sends[i] += 1
    state.eta += 1
    return v, c


def handle_send(state: SimState, i: int) -> None:
    """Active node i sends its payload to a uniformly chosen neighbor.

    In the fixed-k hybrid, a contact with an active neighbor instead
    relaxes both (estimate, weight) pairs as in pairwise gossip, and both
    nodes keep their permits.
    """
    if not state.status[i]:
        raise ProtocolError(f"send from inactive node {i}")
    nbrs = state.graph.neighbor_lists[i]
    if not nbrs:  # a lone node has no one to send to
        return
    j = nbrs[int(state.sampler.uniform() * len(nbrs))]
    if state.kind is ProtocolKind.HYBRID_K and state.status[j]:
        values = state.values
        yi, wi = values[i]
        yj, wj = values[j]
        w = wi + wj
        ym = (wi * yi + wj * yj) / w if w > 0 else 0.0
        values[i] = values[j] = (ym, w * 0.5)
        state.eta += 2
        state.sends[i] += 1
        state.sends[j] += 1
        state.receives[i] += 1
        state.receives[j] += 1
        state.active_active += 1
        return
    handle_receive(state, j, _release(state, i))


def handle_receive(state: SimState, j: int, payload) -> None:
    """Node j fuses an incoming payload and (re)gains its permit."""
    if isinstance(payload, TokenPayload):
        v, c = payload.value, payload.count
    else:
        v, c = payload
    state.values[j] = state.fusion.fuse(state.values[j], v)
    state.counts[j] += c
    state.receives[j] += 1
    if not state.status[j]:
        state.activate(j)
    if state.counts[j] == state.graph.n:
        state.holder = j


def synchronous_round(state: SimState) -> None:
    """One synchronized discrete step: every active token independently
    holds (with the lazy probability) or moves to a uniform neighbor;
    all moves land simultaneously, then co-located tokens have fused.

    Two tokens swapping across an edge do not meet: coalescence needs
    co-location after the round.
    """
    lazy = state.clock.lazy_prob if isinstance(state.clock, SynchronousDiscrete) else 0.0
    sampler = state.sampler
    nbr = state.graph.neighbor_lists
    deliveries = []
    for i in list(state.active_list):
        if lazy and sampler.uniform() < lazy:
            continue
        nbrs = nbr[i]
        j = nbrs[int(sampler.uniform() * len(nbrs))]
        deliveries.append((j, _release(state, i)))
    for j, payload in deliveries:
        handle_receive(state, j, payload)
    state.t += 1.0
    state.rounds += 1


# -- invariant instrumentation ------------------------------------------


def _check_event_invariants(state: SimState, expected_fold) -> None:
    n = state.graph.n
    if sum(state.counts) != n:
        raise ProtocolError(f"count conservation broken: sum={sum(state.counts)} != {n}")
    if state.kind in (ProtocolKind.SRW, ProtocolKind.CRW, ProtocolKind.TWO_PHASE):
        got = fold(state.fusion, state.values)
        if got != expected_fold:
            raise ProtocolError(f"value conservation broken: {got!r} != {expected_fold!r}")
    if state.kind is ProtocolKind.SRW and state.active_count != 1:
        raise ProtocolError(f"SRW must keep exactly one active node, has {state.active_count}")


# -- the event loops -----------------------------------------------------


def run(state: SimState, stop, check_invariants: bool = False) -> "Trace":
    """Drive the event loop of an SRW, CRW or gossip state until the stop
    condition and build the Trace; the two-phase scheme and the fixed-k
    hybrid have runners of their own.

    Hitting a MaxTime bound before natural termination flags the trace
    incomplete rather than silently truncating.
    """
    if state.kind is ProtocolKind.GOSSIP:
        return _run_gossip(state, stop)
    if state.kind in (ProtocolKind.HYBRID_K, ProtocolKind.TWO_PHASE):
        raise ProtocolError(f"run does not drive {state.kind.value}: use {state.kind.value}_run")
    if isinstance(stop, Termination):
        max_t = math.inf
        if isinstance(state.clock, SynchronousDiscrete) and state.clock.lazy_prob == 0:
            # every token crosses an edge each round, so on a bipartite graph
            # tokens on opposite sides never share a node
            side = distances_from(state.graph, 0) % 2
            bipartite = all(side[u] != side[v] for u, v in state.graph.edges)
            if bipartite and len({side[i] for i in state.active_list}) > 1:
                raise ValueError("lazy_prob 0 on a bipartite graph: tokens on opposite "
                                 "sides never meet; use lazy_prob > 0")
    elif isinstance(stop, MaxTime):
        max_t = float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for a token walk")
    expected = fold(state.fusion, state.values) if check_invariants else None
    completed = _run_walk(state, max_t, check_invariants, expected)
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
    _run_walk(state, float(t), False, None, terminating=False)
    state.record_curve_point()


def _run_walk(state, max_t, check_invariants, expected, terminating=True):
    """Walk to time ``max_t``, or until some node's count reaches n when
    ``terminating``; returns whether the run completed.

    The compiled kernel (``_walk``) runs the walk, on either clock, when it
    is available and can hold the state exactly.  Otherwise, and to check
    invariants after every event, this loop steps the walk through the
    primitives: ``synchronous_round`` on the discrete clock, and on the
    continuous clock an exponential wait at the active count, a uniform
    pick of the firing token and ``handle_send``.  Both give the same trace.
    """
    if not max_t >= state.t:
        raise ValueError(f"stop time {max_t!r} must be a number no earlier than {state.t!r}")
    if not check_invariants:
        completed = _walk.walk(state, max_t, terminating)
        if completed is not None:
            return completed
    continuous = not isinstance(state.clock, SynchronousDiscrete)
    sampler = state.sampler
    active = state.active_list
    last_count = len(active)
    while True:
        if terminating and state.holder is not None:
            return True
        if continuous:
            k = len(active)
            t = state.t + sampler.exponential() / k
            if t > max_t:
                state.t = max_t
                return False
            state.t = t
            handle_send(state, active[int(sampler.uniform() * k)])
        else:
            if state.t + 1.0 > max_t:
                return False
            synchronous_round(state)
        if check_invariants:
            _check_event_invariants(state, expected)
        if len(active) != last_count:
            last_count = len(active)
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
    if isinstance(stop, GossipEps):
        eps, horizon, max_t = stop.eps, stop.horizon, math.inf
    elif isinstance(stop, MaxTime):
        eps, horizon, max_t = 0.0, 1_000_000_000, float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for gossip")

    sampler = state.sampler
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
    sends = state.sends
    receives = state.receives
    nbr = state.graph.neighbor_lists
    completed = first_passage is not None
    while not completed:
        if exchanges >= horizon:
            break
        dt = sampler.exponential() / n
        if state.t + dt > max_t:
            state.t = max_t
            completed = not isinstance(stop, GossipEps)
            break
        state.t += dt
        i = int(sampler.uniform() * n)
        nbrs = nbr[i]
        j = nbrs[int(sampler.uniform() * len(nbrs))]
        a = z[i]
        b = z[j]
        mean = (a + b) * 0.5
        z[i] = mean
        z[j] = mean
        d = a - b
        q -= 0.5 * d * d
        exchanges += 1
        state.eta += 2
        sends[i] += 1
        sends[j] += 1
        receives[i] += 1
        receives[j] += 1
        if exchanges == next_log:
            errors.append((exchanges, rel_error()))
            next_log *= 2
        if exchanges % 4096 == 0:
            # refresh the incrementally tracked error to kill float drift
            q = math.fsum((v - zbar) ** 2 for v in z)
        if q <= threshold:
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
    """Flood the payload of every active node (an origin) to all nodes,
    each node forwarding a given origin's flood at most once, to all
    neighbors except the sender(s) of its first receipt.  An origin
    without neighbors (the one node of a 1-node graph) sends nothing and
    takes no time.

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
    k = len(origins)
    received = [bytearray(n) for _ in range(k)]
    per_origin_messages = [0] * k
    first_senders: dict = {}
    pending: list = []
    for oi, o in enumerate(origins):
        received[oi][o] = 1
        if g.neighbor_lists[o]:
            pending.append((o, oi))

    fuse = state.fusion.fuse
    values = state.values
    counts = state.counts
    sends = state.sends
    receives = state.receives
    nbr = g.neighbor_lists
    phase_start_eta = state.eta
    sampler = state.sampler

    if isinstance(state.clock, SynchronousDiscrete):
        rounds_to_complete = 0
        round_no = 0
        while pending:
            round_no += 1
            arrivals: dict = {}
            for v, oi in pending:
                excl = first_senders.get((oi, v), ())
                cnt = 0
                rec = received[oi]
                for w in nbr[v]:
                    if w in excl:
                        continue
                    cnt += 1
                    receives[w] += 1
                    if not rec[w]:
                        arrivals.setdefault((oi, w), []).append(v)
                sends[v] += cnt
                state.eta += cnt
                per_origin_messages[oi] += cnt
            pending = []
            for (oi, w), senders in arrivals.items():
                received[oi][w] = 1
                first_senders[(oi, w)] = tuple(senders)
                pv, pc = payloads[oi]
                values[w] = fuse(values[w], pv)
                counts[w] += pc
                rounds_to_complete = round_no
                if len(nbr[w]) > len(senders):
                    pending.append((w, oi))
            state.t += 1.0
        state.rounds += rounds_to_complete
    else:
        while pending:
            m = len(pending)
            state.t += sampler.exponential() / m
            idx = int(sampler.uniform() * m)
            v, oi = pending[idx]
            pending[idx] = pending[-1]
            pending.pop()
            excl = first_senders.get((oi, v), ())
            rec = received[oi]
            cnt = 0
            pv, pc = payloads[oi]
            for w in nbr[v]:
                if w in excl:
                    continue
                cnt += 1
                receives[w] += 1
                if not rec[w]:
                    rec[w] = 1
                    first_senders[(oi, w)] = (v,)
                    values[w] = fuse(values[w], pv)
                    counts[w] += pc
                    if len(nbr[w]) > 1:
                        pending.append((w, oi))
            sends[v] += cnt
            state.eta += cnt
            per_origin_messages[oi] += cnt

    for oi in range(k):
        if not all(received[oi]):
            raise ProtocolError(f"flood from origin {origins[oi]} did not reach all nodes")
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
