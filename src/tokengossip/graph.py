"""Graph representation, topology generators, and structural regularity checks.

All generators produce simple, undirected, connected graphs and are
deterministic functions of their spec (including the seed).  The
regularity checkers measure the ball-growth, volume-doubling, and
isoperimetry constants that control how fast coalescing walks thin out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import laplacian, shortest_path


class GraphGenerationError(RuntimeError):
    """A generator could not produce a valid (connected, simple) graph."""


class GraphFileError(ValueError):
    """A graph file is malformed or does not hold a simple connected graph."""


GRAPH_KINDS = ("clique", "ring", "torus", "grid2d", "rgg", "random_regular")


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of one topology: kind plus its size/shape knobs and seed."""

    kind: str
    n: int = 0
    side: int = 0  # lattice side for torus / grid2d
    dim: int = 0  # torus dimension
    radius: float = 0.0  # rgg connection radius (0 -> default)
    degree: int = 0  # random_regular degree
    seed: int = 0

    def __post_init__(self):
        """Check the size fields the kind reads, so that a bad spec fails
        when it is made rather than when its graph is generated."""
        kind = self.kind
        if kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {kind!r}")
        if kind == "clique" and self.n < 1:
            raise ValueError("clique needs n >= 1")
        if kind in ("ring", "rgg") and self.n < 2:
            raise ValueError(f"{kind} needs n >= 2")
        if kind == "torus" and self.side < 3:
            raise ValueError("torus needs side >= 3 (smaller sides duplicate edges)")
        if kind == "torus" and self.dim < 0:
            raise ValueError("torus needs dim >= 1, or 0 for the default 2")
        if kind == "grid2d" and self.side < 2:
            raise ValueError("grid2d needs side >= 2")
        if kind == "rgg" and not 0 <= self.radius < math.inf:
            raise ValueError(f"rgg radius must be finite and nonnegative, not {self.radius}")
        if kind == "random_regular" and not 0 < self.degree < self.n:
            raise ValueError("random_regular needs 0 < degree < n")
        if kind == "random_regular" and self.n * self.degree % 2:
            raise ValueError("n * degree must be even")

    @classmethod
    def clique(cls, n: int) -> "GraphSpec":
        return cls(kind="clique", n=n)

    @classmethod
    def ring(cls, n: int) -> "GraphSpec":
        return cls(kind="ring", n=n)

    @classmethod
    def torus(cls, side: int, dim: int = 2) -> "GraphSpec":
        return cls(kind="torus", side=side, dim=dim, n=side**dim)

    @classmethod
    def grid2d(cls, side: int) -> "GraphSpec":
        return cls(kind="grid2d", side=side, n=side * side)

    @classmethod
    def rgg(cls, n: int, seed: int, radius: float = 0.0) -> "GraphSpec":
        return cls(kind="rgg", n=n, radius=radius, seed=seed)

    @classmethod
    def random_regular(cls, n: int, degree: int, seed: int) -> "GraphSpec":
        return cls(kind="random_regular", n=n, degree=degree, seed=seed)


RGG_MAX_ATTEMPTS = 50  # disconnected rgg draws discarded before giving up
REGULAR_MAX_ATTEMPTS = 500  # failed random_regular pairings before giving up


def default_rgg_radius(n: int) -> float:
    """Connectivity-threshold radius sqrt(2 ln n / n) (natural log)."""
    return math.sqrt(2.0 * math.log(n) / n)


@dataclass(frozen=True, eq=True)
class Graph:
    """An immutable simple undirected graph with generator provenance.

    ``adjacency`` holds per-node sorted neighbor tuples; ``coords`` is
    only set for geometric graphs.  Instances are safe to share across
    concurrent trial executors.  The sparse ``adjacency_matrix`` and
    ``transition_matrix`` are built once, on first use, and shared by
    every caller: treat them as read-only.
    """

    n: int
    adjacency: Tuple[Tuple[int, ...], ...]
    kind: str
    seed: int
    coords: Optional[Tuple[Tuple[float, float], ...]] = None
    attempts: int = field(default=1, compare=False)  # generator retries used

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("graph must have at least one node")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match node count")

    @cached_property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def m(self) -> int:
        """Number of undirected edges."""
        return sum(self.degrees) // 2

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )

    @cached_property
    def neighbor_lists(self) -> list:
        """Plain list-of-lists view for hot simulation loops."""
        return [list(a) for a in self.adjacency]

    @cached_property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """(offsets, flat neighbor array) in CSR layout, as int64 arrays for
        the walk kernel (scipy keeps ``adjacency_matrix``'s as int32)."""
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(a) for a in self.adjacency])
        flat = np.fromiter(
            (v for a in self.adjacency for v in a), dtype=np.int64, count=2 * self.m
        )
        return offsets, flat

    @cached_property
    def adjacency_matrix(self) -> csr_matrix:
        """Sparse 0/1 adjacency matrix A, laid out as ``csr``."""
        offsets, flat = self.csr
        return csr_matrix((np.ones(len(flat)), flat, offsets), shape=(self.n, self.n))

    @cached_property
    def transition_matrix(self) -> csr_matrix:
        """The simple random walk's sparse transition matrix D^-1 A."""
        offsets, flat = self.csr
        deg = np.diff(offsets)
        return csr_matrix((1.0 / np.repeat(deg, deg), flat, offsets), shape=(self.n, self.n))


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
    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        kind=kind,
        seed=seed,
        coords=coords,
        attempts=attempts,
    )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


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


def rgg(n: int, seed: int, radius: float = 0.0) -> Graph:
    """Random geometric graph on the unit square.

    Nodes are uniform points; an edge joins pairs at Euclidean distance
    <= radius, a finite number where 0 means ``default_rgg_radius(n)``.
    Disconnected draws are discarded and retried with fresh derived
    seeds; the number of attempts used is recorded on the graph.
    """
    r = radius if radius > 0 else default_rgg_radius(n)
    for attempt in range(RGG_MAX_ATTEMPTS):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        )
        pts = rng.random((n, 2))
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        close = (dx * dx + dy * dy) <= r * r
        iu, iv = np.nonzero(np.triu(close, k=1))
        edges = list(zip(iu.tolist(), iv.tolist()))
        g = _build(
            n,
            edges,
            f"rgg{{r={r!r}}}",
            seed,
            coords=tuple((float(x), float(y)) for x, y in pts),
            attempts=attempt + 1,
        )
        if is_connected(g):
            return g
    raise GraphGenerationError(
        f"rgg(n={n}, r={r:.4g}) not connected within {RGG_MAX_ATTEMPTS} attempts"
    )


def random_regular(n: int, degree: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model.

    Loops and multi-edges are rejected as stubs are paired; leftover
    stubs are re-shuffled while a valid completion remains possible and
    the whole pairing restarts otherwise (the standard repair scheme:
    wholesale rejection has vanishing acceptance already at d=6).
    Disconnected results are also rejected.
    """

    def completion_possible(edges, leftover):
        if not leftover:
            return True
        for s1 in leftover:
            for s2 in leftover:
                if s1 == s2:
                    break
                a, b = (s1, s2) if s1 < s2 else (s2, s1)
                if (a, b) not in edges:
                    return True
        return False

    for attempt in range(REGULAR_MAX_ATTEMPTS):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        )
        edges: set = set()
        stubs = list(np.repeat(np.arange(n), degree))
        failed = False
        while stubs:
            leftover: dict = {}
            rng.shuffle(stubs)
            for s1, s2 in zip(stubs[::2], stubs[1::2]):
                s1, s2 = int(s1), int(s2)
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not completion_possible(edges, leftover):
                failed = True
                break
            stubs = [node for node, c in leftover.items() for _ in range(c)]
        if failed:
            continue
        g = _build(
            n,
            sorted(edges),
            f"random_regular{{d={degree}}}",
            seed,
            attempts=attempt + 1,
        )
        if is_connected(g):
            return g
    raise GraphGenerationError(
        f"random_regular(n={n}, d={degree}) failed within {REGULAR_MAX_ATTEMPTS} attempts"
    )


def generate(spec: GraphSpec) -> Graph:
    """Build the graph described by ``spec``; always connected or raises.
    The generators take sizes that ``GraphSpec`` has already checked."""
    if spec.kind == "clique":
        return clique(spec.n)
    if spec.kind == "ring":
        return ring(spec.n)
    if spec.kind == "torus":
        return torus(spec.side, spec.dim or 2)
    if spec.kind == "grid2d":
        return grid2d(spec.side)
    if spec.kind == "rgg":
        return rgg(spec.n, spec.seed, spec.radius)
    return random_regular(spec.n, spec.degree, spec.seed)


# ----------------------------------------------------------------------
# Distances and balls
# ----------------------------------------------------------------------


def distances_from(g: Graph, sources) -> np.ndarray:
    """Hop distances from ``sources`` to every node, -1 where unreachable:
    one row for one node, one row per node for a sequence of nodes."""
    dist = shortest_path(g.adjacency_matrix, method="D", unweighted=True, indices=sources)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


def ball(g: Graph, u: int, radius: int) -> set:
    """Nodes at distance strictly less than ``radius`` from u."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return set()
    dist = distances_from(g, u)
    return set(np.nonzero((dist >= 0) & (dist < radius))[0].tolist())


def is_connected(g: Graph) -> bool:
    return bool(np.all(distances_from(g, 0) >= 0))


def _farthest(dist: np.ndarray) -> int:
    """The largest entry of a :func:`distances_from` table."""
    if np.any(dist < 0):
        raise ValueError("graph is not connected")
    return int(dist.max())


def eccentricity(g: Graph, u) -> int:
    """Largest hop distance from u, or from any node of a sequence u."""
    return _farthest(distances_from(g, u))


def diameter(g: Graph) -> int:
    """Exact diameter from all-pairs distances up to 10^4 nodes, taken a
    block of sources at a time so that no block holds more than 2^20
    distances.

    Above that a double-sweep lower bound is returned: the eccentricity
    of the node farthest from node 0.
    """
    if g.n > 10_000:
        return eccentricity(g, int(np.argmax(distances_from(g, 0))))
    rows = (1 << 20) // g.n
    return max(eccentricity(g, range(s, min(s + rows, g.n))) for s in range(0, g.n, rows))


# ----------------------------------------------------------------------
# Regularity checkers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Measured ball-growth constants |B(u,R)| >= c0*R^2 and annulus bound."""

    c0_best: float
    c0_argmin: Tuple[int, int]  # (u, R) achieving the worst quadratic ratio
    c1_best: float
    c1_argmax: Tuple[int, int, int]  # (u, R, delta)
    passed: bool
    sampled: bool
    diameter: int  # sets the largest radius, (diameter + 1) // 2


def _sample_nodes(g: Graph, limit: int, key: int) -> Sequence[int]:
    """Every node if there are at most ``limit``, else a sorted sample of
    ``limit`` nodes drawn from the graph's seed with spawn key ``key``."""
    if g.n <= limit:
        return range(g.n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(g.seed, spawn_key=(key,))))
    return sorted(rng.choice(g.n, size=limit, replace=False).tolist())


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


@dataclass(frozen=True)
class IsoperimetryCertificate:
    value: float
    mode: str  # "exact" minimum | "sweep" upper bound: failure certifiable, success not


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


# ----------------------------------------------------------------------
# Edge-list file format
# ----------------------------------------------------------------------


def save_graph(g: Graph, path) -> None:
    """Write the text edge-list format.

    First line ``n m kind seed``, then one ``u v`` line per edge with
    u < v, then (geometric graphs only) one ``c x y`` line per node.
    Round-trips bit-exactly through :func:`load_graph`.
    """
    lines = [f"{g.n} {g.m} {g.kind} {g.seed}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    if g.coords is not None:
        lines.extend(f"c {x!r} {y!r}" for x, y in g.coords)
    Path(path).write_text("\n".join(lines) + "\n")


def _line_error(lines: list, k: int, form: str) -> GraphFileError:
    return GraphFileError(f"line {k + 1} must read '{form}', not {lines[k]!r}")


def _fields(lines: list, k: int, form: str, *parsers) -> list:
    """Line k (from 0) split into one field per parser, each parsed by it."""
    parts = lines[k].split()
    if len(parts) == len(parsers):
        try:
            return [parse(f) for parse, f in zip(parsers, parts)]
        except ValueError:
            pass
    raise _line_error(lines, k, form)


def load_graph(path) -> Graph:
    """Read the :func:`save_graph` format; raises :class:`GraphFileError`,
    naming the offending line, unless the file holds m edges between
    distinct nodes in [0, n), none repeated, that connect all n nodes.
    A header with n < 1 or m < n - 1 is rejected before anything is built."""
    lines = Path(path).read_text().strip().splitlines() or [""]
    n, m, kind, seed = _fields(lines, 0, "n m kind seed", int, int, str, int)
    if n < 1:
        raise GraphFileError(f"line 1: a graph needs at least one node, not {n}")
    if m < n - 1:
        raise GraphFileError(f"line 1: a connected graph on {n} nodes needs at least "
                             f"{n - 1} edges, not {m}")
    if len(lines) - 1 < m:
        raise GraphFileError(f"header promises {m} edges, only {len(lines) - 1} lines follow it")
    edges = set()
    for k in range(1, 1 + m):
        u, v = _fields(lines, k, "u v", int, int)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFileError(f"line {k + 1}: edge {lines[k]!r} must join two distinct "
                                 f"nodes in [0, {n})")
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise GraphFileError(f"line {k + 1}: edge {lines[k]!r} is listed twice")
        edges.add(edge)
    coords = None
    if len(lines) > 1 + m:
        if len(lines) - 1 - m != n:
            raise GraphFileError(f"line {m + 2}: the coordinate block has "
                                 f"{len(lines) - 1 - m} lines, not one per node ({n})")
        coords = []
        for k in range(1 + m, len(lines)):
            tag, x, y = _fields(lines, k, "c x y", str, float, float)
            if tag != "c":
                raise _line_error(lines, k, "c x y")
            coords.append((x, y))
        coords = tuple(coords)
    g = _build(n, edges, kind, seed, coords=coords)
    if not is_connected(g):
        raise GraphFileError("graph is not connected")
    return g
