"""The token walk and gossip stepped in Python: the references that the
compiled walk (``tokengossip._walk``) is tested against, draw for draw.

``walk`` takes the place of ``_walk.walk`` (patch it in, as
``test_walk_kernel.on_both`` does): on the continuous clock an
exponential wait at the active count, a uniform pick of the firing token
and ``handle_send``; in rounds ``synchronous_round``.  Given ``expected``,
it checks the state after every event with ``_check_event_invariants``.
A test that watches the draws (patching ``Lists.exponential``) must run
this loop: the kernel reads the state's blocks directly.

``run_gossip`` takes the place of ``protocols._run_gossip``: it runs every
pairwise exchange and the stop rule in one Python loop.

``cfld_run`` takes the place of ``protocols.cfld_run``, which reads the
flood off a table of arrival times.  It floods round by round on the
discrete clock, keeping each node's first senders, and must agree with
``protocols.cfld_run`` exactly.  On the continuous clock it is an event
loop over the pending forwards (an exponential wait at their count and a
uniform pick), whose law ``protocols.cfld_run`` keeps without its draws:
the two agree exactly on messages, sends, counts and SUM/MAX results, and
in law on the flood's duration and the per-node receives.

``cfld_block`` is ``protocols.cfld_run`` as one arrival-time solve for
all k origins: a hop-distance search over the origins on rounds, and on
the continuous clock one ``dijkstra`` over a block-diagonal matrix that
holds k copies of the graph, copy o weighted by origin o's delays, with
(k x 2|E|) link tables.  ``protocols.cfld_run`` solves one origin at a
time in O(|E|) memory; the two must agree exactly, draws included.

The loops step a ``Lists`` copy of the state, whose node arrays are
Python lists and whose values are decoded, and write it back at exit.
``Lists.uniform`` and ``Lists.exponential`` are the only draws made in
Python: they read the state's blocks at its cursors and draw them lazily,
as the kernel does (a uniform block whole, an exponential block in chunks of
``_walk._CHUNK``; U1 before E1, and a begun exponential block completed
before the next uniform block), so both leave the same stream.

``_build``, ``clique``, ``ring``, ``torus`` and ``grid2d`` are the graph
constructors that ``tokengossip.graph`` builds from edge arrays: a loop
over edge tuples that checks each for a self-edge or a repeat, and
generators that list their edges a tuple at a time.  The array code must
give equal graphs, and the same error for the same bad edge list.

``check_geometric_neighborhood``, ``check_volume_doubling`` and
``check_isoperimetry`` are the regularity checkers that
``tokengossip.graph`` computes over blocks of rows of a distance table:
loops over (u, R, delta) and over the rows, each with its own distance
call, and the induced ball taken as a scipy submatrix.  The array code
must give equal reports, float for float.

``mean_meeting_times`` solves the meeting times on the two-walk chain over
the n(n-1)/2 unordered pairs, (I - S) M = 1/2, by a sparse LU.
``tokengossip.analysis.mean_meeting_times`` takes them from one
eigendecomposition of the n x n normalized Laplacian; the two must agree
to rounding.

``check_gaussian_bound`` is the heat-kernel bound fitted in two passes
over the matrix powers: the first gathers the violations and the least
squares sums, the second forms every power again to take c3 as a minimum
over all constraints.  ``tokengossip.analysis.check_gaussian_bound`` forms
each power once and takes c3 from per-distance minima; the two must give
equal reports, float for float.

``decay_messages_in_rounds`` is ``tokengossip.analysis.estimate_decay``'s
message curve on rounds as it was first written: each trial set up by
``init``, then a sum of the active counts over every round up to each
grid round.  ``estimate_decay`` takes the step integral of the counts up
to one round past each grid round instead; the two must give equal
arrays.
"""
import math
from typing import Iterable, Tuple

import numpy as np
from scipy.sparse import csr_matrix, identity, triu
from scipy.sparse.csgraph import dijkstra, laplacian
from scipy.sparse.linalg import splu

from tokengossip import _walk
from tokengossip.analysis import (
    GAUSSIAN_MAX_NODES,
    RESIDUAL_TOL,
    GaussianBoundReport,
    PairTimeTable,
    SolverError,
    _pair_chain,
    _step_index,
    _transition_matrix,
    geometric_grid,
)
from tokengossip.engine import RngStream, SynchronousDiscrete
from tokengossip.fusion import TokenPayload, fold, sum_fusion
from tokengossip.graph import (
    Graph,
    GraphGenerationError,
    GrowthReport,
    IsoperimetryCertificate,
    _farthest,
    _sample_nodes,
    ball,
    diameter,
    distances_from,
)
from tokengossip.protocols import (
    GossipEps,
    MaxTime,
    ProtocolError,
    ProtocolKind,
    SimState,
    Termination,
    _fuse_ranks,
    _trace,
    init,
    run,
)

SHARED = ("graph", "fusion", "kind", "clock", "ublock", "eblock", "status", "times",
          "active_counts", "message_counts")
SCALARS = ("t", "eta", "holder", "rounds", "active_active", "ui", "uf", "ei", "ef")
LISTS = ("counts", "active_pos", "sends", "receives")


def neighbours(g: Graph) -> list:
    """Each node's neighbours as a list of ints, read off ``g.offsets`` and
    ``g.flat``."""
    flat, ends = g.flat.tolist(), g.offsets.tolist()
    return [flat[s:t] for s, t in zip(ends, ends[1:])]


class Lists:
    """A SimState as the reference loops step it: its values (decoded),
    counts, active list, active positions, sends and receives as Python
    lists, its graph's ``neighbours`` (``nbr``), and its scalars (draw
    cursors included), sharing its graph,
    clock, generator, draw blocks, status and curve.  ``store`` writes them
    back."""

    def __init__(self, state: SimState):
        self.state = state
        self.rng = state._rng  # the blocks' generator, as the kernel sees it
        for name in SHARED + SCALARS:
            setattr(self, name, getattr(state, name))
        for name in LISTS:
            setattr(self, name, getattr(state, name).tolist())
        self.values = _walk._decode(state)
        self.active_list = state.active_list[:state.active_count].tolist()
        self.nbr = neighbours(state.graph)

    def store(self) -> None:
        state = self.state
        for name in SCALARS:
            setattr(state, name, getattr(self, name))
        for name in LISTS:
            getattr(state, name)[:] = getattr(self, name)
        _walk._encode(state, self.values)
        state.active_count = len(self.active_list)
        state.active_list[:state.active_count] = self.active_list

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

    def uniform(self) -> float:
        if self.ui == self.uf:
            if self.uf:  # U_k is used up: E_k comes before U_k+1
                self.rng.standard_exponential(out=self.eblock[self.ef:])
                self.ef = self.eblock.size
                self.ui = 0
            self.rng.random(out=self.ublock)
            self.uf = self.ublock.size
        self.ui += 1
        return self.ublock.item(self.ui - 1)

    def exponential(self) -> float:
        """One Exp(1) draw."""
        if self.ei == self.ef:
            if not self.uf:  # E1 starts where U1 ends
                self.rng.random(out=self.ublock)
                self.uf = self.ublock.size
            if self.ef == self.eblock.size:
                self.ei = self.ef = 0
            chunk = self.eblock[self.ef:self.ef + _walk._CHUNK]
            self.rng.standard_exponential(out=chunk)
            self.ef += chunk.size
        self.ei += 1
        return self.eblock.item(self.ei - 1)

    record_curve_point = SimState.record_curve_point


def _release(state: Lists, i: int) -> tuple:
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


def handle_send(state: Lists, i: int) -> None:
    """Active node i sends its payload to a uniformly chosen neighbor.

    In the fixed-k hybrid, a contact with an active neighbor instead
    relaxes both (estimate, weight) pairs as in pairwise gossip, and both
    nodes keep their permits.
    """
    if not state.status[i]:
        raise ProtocolError(f"send from inactive node {i}")
    nbrs = state.nbr[i]
    if not nbrs:  # a lone node has no one to send to
        return
    j = nbrs[int(state.uniform() * len(nbrs))]
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


def handle_receive(state: Lists, j: int, payload) -> None:
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


def synchronous_round(state: Lists) -> None:
    """One synchronized discrete step: every active token independently
    holds (with the lazy probability) or moves to a uniform neighbor;
    all moves land simultaneously, then co-located tokens have fused.

    Two tokens swapping across an edge do not meet: coalescence needs
    co-location after the round.
    """
    lazy = state.clock.lazy_prob if isinstance(state.clock, SynchronousDiscrete) else 0.0
    nbr = state.nbr
    deliveries = []
    for i in list(state.active_list):
        if lazy and state.uniform() < lazy:
            continue
        nbrs = nbr[i]
        if not nbrs:  # a lone node has no one to send to
            continue
        j = nbrs[int(state.uniform() * len(nbrs))]
        deliveries.append((j, _release(state, i)))
    for j, payload in deliveries:
        handle_receive(state, j, payload)
    state.t += 1.0
    state.rounds += 1


def _check_event_invariants(state: Lists, expected_fold) -> None:
    n = state.graph.n
    if sum(state.counts) != n:
        raise ProtocolError(f"count conservation broken: sum={sum(state.counts)} != {n}")
    if state.kind in (ProtocolKind.SRW, ProtocolKind.CRW, ProtocolKind.TWO_PHASE):
        got = fold(state.fusion, state.values)
        if got != expected_fold:
            raise ProtocolError(f"value conservation broken: {got!r} != {expected_fold!r}")
    if state.kind is ProtocolKind.SRW and state.active_count != 1:
        raise ProtocolError(f"SRW must keep exactly one active node, has {state.active_count}")


def walk(sim, max_t, terminating, expected=None):
    """``_walk.walk`` in Python: walk to time ``max_t``, or until some
    node's count reaches n when ``terminating``; returns whether the run
    completed."""
    state = Lists(sim)
    try:
        continuous = not isinstance(state.clock, SynchronousDiscrete)
        active = state.active_list
        last_count = len(active)
        while True:
            if terminating and state.holder is not None:
                return True
            if continuous:
                k = len(active)
                t = state.t + state.exponential() / k
                if t > max_t:
                    state.t = max_t
                    return False
                state.t = t
                handle_send(state, active[int(state.uniform() * k)])
            else:
                if state.t + 1.0 > max_t:
                    return False
                synchronous_round(state)
            if expected is not None:
                _check_event_invariants(state, expected)
            if len(active) != last_count:
                last_count = len(active)
                state.record_curve_point()
    finally:
        state.store()


def run_gossip(sim: SimState, stop):
    if isinstance(stop, GossipEps):
        eps, horizon, max_t = stop.eps, stop.horizon, math.inf
    elif isinstance(stop, MaxTime):
        eps, horizon, max_t = 0.0, 1_000_000_000, float(stop.t)
    else:
        raise ValueError(f"unsupported stop condition {stop!r} for gossip")

    state = Lists(sim)
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
    nbr = state.nbr
    completed = first_passage is not None
    while not completed:
        if exchanges >= horizon:
            break
        dt = state.exponential() / n
        if state.t + dt > max_t:
            state.t = max_t
            completed = not isinstance(stop, GossipEps)
            break
        state.t += dt
        i = int(state.uniform() * n)
        nbrs = nbr[i]
        j = nbrs[int(state.uniform() * len(nbrs))]
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
    state.store()
    return _trace(
        sim, completed, final_values=True, gossip_errors=errors,
        gossip_first_passage=first_passage, gossip_exchanges=exchanges,
    )


def cfld_run(sim: SimState) -> "Trace":
    """Flood the payload of every active node (an origin) to all nodes,
    each node forwarding a given origin's flood at most once, to all
    neighbors except the sender(s) of its first receipt.  An origin
    without neighbors (the one node of a 1-node graph) sends nothing and
    takes no time.

    On return every node holds the fused combination of all origin
    payloads with count n.  Transmissions are counted per link, so each
    origin's flood uses at most 2|E| messages.
    """
    state = Lists(sim)
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
        if state.nbr[o]:
            pending.append((o, oi))

    fuse = state.fusion.fuse
    values = state.values
    counts = state.counts
    sends = state.sends
    receives = state.receives
    nbr = state.nbr
    phase_start_eta = state.eta

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
            state.t += state.exponential() / m
            idx = int(state.uniform() * m)
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

    state.store()
    for oi in range(k):
        if not all(received[oi]):
            raise ProtocolError(f"flood from origin {origins[oi]} did not reach all nodes")
    if any(c != n for c in counts):
        raise ProtocolError("flood completed but some node's count is not n")
    return _trace(
        sim, True, payload_at=0, final_values=True, flood_messages=state.eta - phase_start_eta,
        flood_messages_per_origin=per_origin_messages, flood_origins=len(origins),
        rounds=state.rounds,
    )


def cfld_block(state: SimState) -> "Trace":
    """``protocols.cfld_run`` with one arrival-time solve for all k origins."""
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
    offsets, flat = g.offsets, g.flat
    deg = g.degrees
    src = np.repeat(np.arange(n), deg)
    rounds = isinstance(state.clock, SynchronousDiscrete)
    if rounds:
        x = 1.0
        a = dijkstra(g.adjacency_matrix, indices=origins, unweighted=True)  # hop distances
    else:
        x = state.rng.standard_exponential((k, n))
        copy, m = np.arange(k)[:, None], len(flat)
        blocks = csr_matrix((np.repeat(x, deg, axis=1).ravel(), (flat + n * copy).ravel(),
                             np.append((offsets[:-1] + m * copy).ravel(), k * m)),
                            shape=(k * n, k * n))
        a = dijkstra(blocks, indices=n * copy.ravel() + origins, min_only=True).reshape(k, n)
    unreached = np.isinf(a).any(axis=1)
    if unreached.any():
        raise ProtocolError(f"flood from origin {origins[unreached.argmax()]} did not reach "
                            "all nodes")

    forward = a + x
    # per origin, v sends to each neighbour w that is not one of its first senders
    link = forward[:, flat] != np.repeat(a, deg, axis=1)
    per_edge = link.sum(axis=0)
    state.sends += np.bincount(src, per_edge, n).astype(np.int64)
    state.receives += np.bincount(flat, per_edge, n).astype(np.int64)
    flood_messages = int(per_edge.sum())
    state.eta += flood_messages
    state.t += float(np.repeat(forward, deg, axis=1)[link].max(initial=0.0))  # the last forward
    if rounds:
        state.rounds += int(a.max())
    _fuse_ranks(state, origins, np.argsort(a, axis=0, kind="stable"))
    state.counts += n
    state.counts[origins] -= own
    if np.any(state.counts != n):
        raise ProtocolError("flood completed but some node's count is not n")
    return _trace(
        state, True, payload_at=0, final_values=True, flood_messages=flood_messages,
        flood_messages_per_origin=link.sum(axis=1).tolist(), flood_origins=k,
        rounds=state.rounds,
    )


def _build(
    n: int,
    edges: Iterable[Tuple[int, int]],
    kind: str,
    seed: int,
    coords=None,
    attempts: int = 1,
) -> Graph:
    adj: list = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if u == v:
            raise GraphGenerationError(f"self-edge at node {u}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise GraphGenerationError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        adj[a].append(b)
        adj[b].append(a)
    rows = [sorted(a) for a in adj]
    return Graph(
        n=n,
        offsets=np.cumsum([0] + [len(a) for a in rows]),
        flat=np.array([v for a in rows for v in a], dtype=np.int64),
        kind=kind,
        seed=seed,
        coords=coords,
        attempts=attempts,
    )


def clique(n: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _build(n, edges, "clique", 0)


def ring(n: int) -> Graph:
    if n == 2:
        edges = [(0, 1)]
    else:
        edges = [(i, (i + 1) % n) for i in range(n)]
    return _build(n, edges, "ring", 0)


def torus(side: int, dim: int = 2) -> Graph:
    """d-dimensional lattice torus: every node has exactly 2*dim neighbors."""
    n = side**dim
    strides = [side**k for k in range(dim)]

    def coord(i):
        return [(i // strides[k]) % side for k in range(dim)]

    edges = []
    for i in range(n):
        c = coord(i)
        for k in range(dim):
            c2 = list(c)
            c2[k] = (c[k] + 1) % side
            j = sum(c2[q] * strides[q] for q in range(dim))
            edges.append((i, j))
    return _build(n, edges, f"torus{{N={side},d={dim}}}", 0)


def grid2d(side: int) -> Graph:
    """N x N grid without wraparound (the 2-d mesh)."""
    n = side * side
    edges = []
    for y in range(side):
        for x in range(side):
            u = y * side + x
            if x + 1 < side:
                edges.append((u, u + 1))
            if y + 1 < side:
                edges.append((u, u + side))
    return _build(n, edges, f"grid2d{{N={side}}}", 0)


def check_geometric_neighborhood(g: Graph) -> GrowthReport:
    """Measure the quadratic-growth constants of ball sizes.

    R runs from 2 to max(2, diameter/2): the radius-1 ball is the
    singleton {u} for every graph so it carries no growth information,
    and balls past half the diameter saturate against the boundary.
    Exhaustive in (u, R, delta) up to 2000 nodes, sampled above.
    """
    if g.n < 2:
        raise ValueError("growth check needs n >= 2")
    sampled = g.n > 2000
    nodes = _sample_nodes(g, 64, 0xBA11) if sampled else range(g.n)
    dist = distances_from(g, nodes)
    diam = diameter(g) if sampled else _farthest(dist)  # all rows: the largest is the diameter
    r_max = max(2, (diam + 1) // 2)
    radii = (
        sorted(set(np.unique(np.geomspace(2, r_max, 16).astype(int)).tolist()))
        if sampled
        else range(2, r_max + 1)
    )
    c0_best = math.inf
    c0_arg = (0, 0)
    c1_best = 0.0
    c1_arg = (0, 0, 0)
    for u, row in zip(nodes, dist):
        sizes = np.bincount(row, minlength=2 * r_max + 2).cumsum()
        # sizes[k] = #{v : d(u,v) <= k} = |B(u, k+1)|
        for R in radii:
            if not 2 <= R <= r_max:
                continue
            ratio = sizes[R - 1] / (R * R)
            if ratio < c0_best:
                c0_best, c0_arg = float(ratio), (int(u), int(R))
            deltas = (
                sorted({1, R // 2 or 1, R}) if sampled else range(1, R + 1)
            )
            for delta in deltas:
                annulus = sizes[R + delta - 1] - sizes[R - 1]
                ratio1 = annulus / (delta * R)
                if ratio1 > c1_best:
                    c1_best, c1_arg = float(ratio1), (int(u), int(R), int(delta))
    passed = math.isfinite(c0_best) and c0_best > 0 and math.isfinite(c1_best)
    return GrowthReport(c0_best, c0_arg, c1_best, c1_arg, passed, sampled, diam)


def check_volume_doubling(g: Graph) -> float:
    """Worst Vol(u,2R)/Vol(u,R) over sampled (u, R), R from 2 up."""
    nodes = _sample_nodes(g, 64, 0xBA11) if g.n > 2000 else range(g.n)
    dist = distances_from(g, nodes)
    # a node's ratio is 1 once R passes its eccentricity + 1, so R need
    # not run past the table's largest entry + 1
    r_max = _farthest(dist) + 1
    deg = np.asarray(g.degrees, dtype=float)
    worst = 0.0
    for row in dist:
        # volumes[R] = Vol(u, R) for the strict ball of radius R
        volumes = np.bincount(row + 1, weights=deg, minlength=2 * r_max + 1).cumsum()
        ratios = volumes[4 : 2 * r_max + 1 : 2] / volumes[2 : r_max + 1]  # R = 2 .. r_max
        worst = max(worst, ratios.max(initial=0.0))
    return float(worst)


def check_isoperimetry(g: Graph, u: int, radius: int) -> IsoperimetryCertificate:
    """Worst normalized cut R*Cut(S,Sc)/min(Vol(S),Vol(Sc)) of the induced ball.

    Exact enumeration of all 2-partitions up to 16 ball nodes; above that
    a Fiedler sweep cut, which only upper-bounds the true minimum (it can
    certify failure, not success).  Volumes are taken within the induced
    subgraph.
    """
    nodes = sorted(ball(g, u, radius))
    if len(nodes) < 2:
        raise ValueError("isoperimetry needs a ball with at least 2 nodes")
    k = len(nodes)
    sub = g.adjacency_matrix[nodes][:, nodes]
    # the induced ball is connected: each member's shortest path to u stays inside it
    deg = np.diff(sub.indptr)
    i, j = triu(sub, 1).nonzero()  # its edges, i < j
    if k <= 16:
        mode = "exact"
        # bit b of a mask puts node b in S; node k-1 stays out, which halves the count
        masks = np.arange(1, 1 << (k - 1), dtype=np.int32)
        bits = [(masks >> b) & 1 for b in range(k)]
        vol_s = sum(d * b for d, b in zip(deg, bits))
        cut = sum(bits[a] ^ bits[b] for a, b in zip(i, j))
    else:
        mode = "sweep"
        # S grows along the Fiedler vector; the prefix of t + 1 nodes cuts the
        # edges with one end at a position <= t and the other after it
        order = np.argsort(np.linalg.eigh(laplacian(sub).toarray())[1][:, 1])
        pos = np.argsort(order)
        lo, hi = np.minimum(pos[i], pos[j]), np.maximum(pos[i], pos[j])
        cut = (np.bincount(lo, minlength=k) - np.bincount(hi, minlength=k)).cumsum()[:-1]
        vol_s = deg[order].cumsum()[:-1]
    # cuts and volumes are small integers, so each ratio rounds as int / int does
    denom = np.minimum(vol_s, deg.sum() - vol_s)
    good = denom > 0
    best = (radius * cut[good] / denom[good]).min(initial=math.inf)
    return IsoperimetryCertificate(float(best), mode)


def check_gaussian_bound(g: Graph, t_max: int, lazy_prob: float = 0.5) -> GaussianBoundReport:
    """Fit constants for the lazy-walk transition lower bound
    (c3/t) exp(-d(u,v)^2 / (c4 t)) <= P_t(u,v) + P_{t+1}(u,v).

    c4 comes from least squares on log(t (P_t + P_{t+1})) against
    d^2/t; c3 is then the largest constant with zero violations over
    all 1 <= d(u,v) <= t <= t_max.
    """
    n = g.n
    if n < 2:
        raise ValueError("the Gaussian bound needs at least two nodes")
    if t_max < 1:
        raise ValueError(f"the Gaussian bound needs t_max >= 1, not {t_max}")
    if n > GAUSSIAN_MAX_NODES:
        raise SolverError(f"dense matrix powers capped at {GAUSSIAN_MAX_NODES} nodes")
    p = _transition_matrix(g, lazy_prob)
    dist = g._hops

    def steps():
        """(t, mask, P_t + P_{t+1}, d^2) on the constraints mask = 1 <= d <= t,
        for t = 1 .. t_max.  Each pass recomputes the powers, so memory does
        not grow with t_max."""
        pt = p.copy()  # P^1
        for t in range(1, t_max + 1):
            pt1 = pt @ p
            mask = (dist >= 1) & (dist <= t)
            yield t, mask, (pt + pt1)[mask], dist[mask].astype(float) ** 2
            pt = pt1

    # pass 1: violations, and the least-squares sums of log(t q) on d^2/t
    violations = []
    count = sx = sy = sxx = sxy = 0.0
    for t, mask, q, d2 in steps():
        zero = q <= 0
        if np.any(zero):
            for (u, v), val in zip(np.argwhere(mask)[zero], q[zero]):
                violations.append((int(u), int(v), t, float(val)))
        x = d2[~zero] / t
        y = np.log(t * q[~zero])
        count += len(x)
        sx += x.sum()
        sy += y.sum()
        sxx += x @ x
        sxy += x @ y
    if violations:
        return GaussianBoundReport(0.0, 0.0, t_max, lazy_prob, False, violations)
    # the normal equations of the fit; lstsq keeps the minimum-norm answer
    # when every constraint has the same d^2/t (t_max = 1)
    (slope, _), *_ = np.linalg.lstsq(np.array([[sxx, sx], [sx, count]]),
                                     np.array([sxy, sy]), rcond=None)
    c4 = -1.0 / slope if slope < 0 else math.inf
    # pass 2: c3, the largest constant with zero violations
    c3 = math.inf
    for t, _, q, d2 in steps():
        tq = t * q
        c3 = min(c3, float((tq if math.isinf(c4) else tq * np.exp(d2 / t / c4)).min()))
    return GaussianBoundReport(float(c3), float(c4), t_max, lazy_prob, c3 > 0, [])


def mean_meeting_times(g: Graph) -> PairTimeTable:
    """Exact sparse solve of pairwise meeting times.

    M(x, y) = M(y, x) and the diagonal is 0, so the unknowns are the
    pairs x < y of ``_pair_chain``, and M = 1/2 + S M: the pair chain
    holds for 1/2 on average before each jump.
    """
    if g.n == 1:
        return PairTimeTable(np.zeros((1, 1)), 0.0)
    x, y, step = _pair_chain(g)
    k = len(x)
    mat = identity(k, format="csc") - step
    rhs = np.full(k, 0.5)
    # I - S is a diagonally dominant M-matrix, so its pivots may stay on the
    # diagonal; a minimum-degree order of its symmetric pattern has the least
    # fill of SuperLU's orderings on tori, grids, rings, rgg and regular graphs
    sol = splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True}).solve(rhs)
    max_res = float(np.abs(mat @ sol - rhs).max() / max(1.0, sol.max()))
    if max_res > RESIDUAL_TOL:
        raise SolverError(f"meeting-time residual {max_res:.2e} above {RESIDUAL_TOL:.0e}")
    entry = np.zeros((g.n, g.n))
    entry[x, y] = entry[y, x] = sol
    return PairTimeTable(entry, max_res)


def decay_messages_in_rounds(g: Graph, trials: int, stream, lazy_prob: float) -> tuple:
    """(m_hat, m_se) of ``estimate_decay(g, trials, stream, lazy_prob)``,
    with per-round message accounting: every token active after a round is
    charged one message in the next."""
    if isinstance(stream, int):
        stream = RngStream(master_seed=stream, stream_id=0)
    fusion = sum_fusion()
    zero = [0] * g.n
    curves = []
    t_end = 0.0
    for trial in range(trials):
        st = init(
            ProtocolKind.CRW,
            g,
            zero,
            fusion,
            seed=stream.master_seed,
            stream_id=stream.stream_id + trial,
            clock=SynchronousDiscrete(lazy_prob),
        )
        tr = run(st, Termination())
        curves.append((np.asarray(tr.times), np.asarray(tr.active_counts, dtype=float)))
        t_end = max(t_end, tr.tau)
    grid = np.unique(np.concatenate([[0.0], np.rint(geometric_grid(t_end))]))
    integrals = np.empty((trials, len(grid)))
    for i, (times, counts) in enumerate(curves):
        # per-round message accounting: sum of counts over rounds <= t
        rounds = np.arange(0.0, grid[-1] + 1.0)
        per_round = counts[_step_index(times, rounds)]
        cum = np.concatenate([[0.0], np.cumsum(per_round)])
        integrals[i] = cum[np.clip(grid.astype(np.int64) + 1, 0, len(cum) - 1)]
    m_hat = integrals.mean(axis=0)
    m_se = integrals.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(m_hat)
    return m_hat, m_se
