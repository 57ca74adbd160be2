"""Graph representation, topology generators, and structural regularity checks.

All generators produce simple, undirected, connected graphs and are
deterministic functions of their spec (including the seed).  The
regularity checkers measure the ball-growth, volume-doubling, and
isoperimetry constants that control how fast coalescing walks thin out.

Importing this module pins the OpenBLAS builds bundled with numpy and
scipy to one thread, process-wide (see ``_pin_openblas``).
"""
from __future__ import annotations

import ctypes
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


def _pin_openblas() -> Optional[int]:
    """Set numpy's and scipy's bundled OpenBLAS to one thread and return
    numpy's thread count read back (None if it cannot be read).

    A dense solve's last bits depend on how many threads split its sums,
    so one thread makes every analysis output the same whatever
    ``OPENBLAS_NUM_THREADS`` says.  On the package's matrices, a few
    hundred rows at most in its suites, a second thread doubles the CPU
    time for about 5% less wall time.  Both
    libraries are mapped once ``scipy.sparse.csgraph`` is imported, so the
    lookup (``RTLD_NOLOAD``) loads nothing.  A library whose setter is not
    found runs unpinned, with one stderr line for all of them."""
    threads, unpinned = None, []
    for module, pattern, suffix in ((np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
                                    (scipy, "scipy.libs/libscipy_openblas*.so", "")):
        handle = None
        for lib in sorted(Path(module.__file__).parent.parent.glob(pattern)):
            try:
                handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD)
                break
            except (OSError, AttributeError):  # not mapped here, or no RTLD_NOLOAD
                pass
        setter = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
        if setter is None:
            unpinned.append(module.__name__)
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        getter = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
        if module is np and getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads = getter()
    if unpinned:
        print(f"tokengossip: found no OpenBLAS thread setter for {' and '.join(unpinned)}; "
              "their dense solves run unpinned", file=sys.stderr)
    return threads


_BLAS_THREADS = _pin_openblas()


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
        for name in ("n", "side", "dim", "degree", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{kind} {name} must be an int, not {getattr(self, name)!r}")
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
        radius = self.radius
        if kind == "rgg" and not (isinstance(radius, Real) and type(radius) is not bool
                                  and 0 <= radius < math.inf):
            raise ValueError(f"rgg radius must be a finite nonnegative number, not {radius!r}")
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


@dataclass(frozen=True, eq=False)
class Graph:
    """An immutable simple undirected graph with generator provenance.

    Node u's neighbours are ``flat[offsets[u]:offsets[u + 1]]`` (CSR layout;
    generated and loaded graphs keep each row sorted), and ``coords`` is an
    (n, 2) array for geometric graphs.  The constructor keeps write-protected
    int64 and float64 copies of them, and raises ValueError for arrays the
    walk kernel would read past: non-integer ones, offsets that do not rise
    from 0 to ``len(flat)`` in n steps, a neighbour outside [0, n).
    Rows may be asymmetric or empty.  Graphs compare by n, kind, seed and
    arrays (not ``attempts``), and are not hashable.  Instances are safe to
    share across concurrent trial executors.  The sparse ``adjacency_matrix``
    and ``transition_matrix`` are built once, on first use, and shared by
    every caller: treat them as read-only.  A pickled graph carries its
    arrays only and comes back through the constructor.
    """

    n: int
    offsets: np.ndarray
    flat: np.ndarray
    kind: str
    seed: int
    coords: Optional[np.ndarray] = None
    attempts: int = 1  # generator retries used

    def __post_init__(self):
        n = self.n
        if n <= 0:
            raise ValueError("graph must have at least one node")
        for name, dtype in (("offsets", np.int64), ("flat", np.int64), ("coords", np.float64)):
            a = getattr(self, name)
            if a is None:  # no coords
                continue
            a = np.asarray(a)
            if dtype is np.int64 and a.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, not {a.dtype}")
            # a copy: the kernel trusts these checks, so no caller may write to it
            a = np.array(a, dtype=dtype, order="C")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        offsets, flat = self.offsets, self.flat
        if offsets.shape != (n + 1,):
            raise ValueError(f"offsets must hold n + 1 = {n + 1} entries, not {offsets.shape}")
        if offsets[0] != 0:
            raise ValueError(f"offsets must start at 0, not {offsets[0]}")
        if np.any(offsets[1:] < offsets[:-1]):
            u = np.argmax(offsets[1:] < offsets[:-1])
            raise ValueError(f"offsets must not decrease, as they do after node {u}")
        if flat.shape != (offsets[-1],):
            raise ValueError(f"offsets end at {offsets[-1]}, but flat has shape {flat.shape}")
        if len(flat) and not 0 <= flat.min() <= flat.max() < n:
            bad = flat.min() if flat.min() < 0 else flat.max()
            raise ValueError(f"neighbour {bad} lies outside the graph's nodes [0, {n})")
        if self.coords is not None and self.coords.shape != (n, 2):
            raise ValueError(f"coords must have shape ({n}, 2), not {self.coords.shape}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # np.array_equal(None, None) holds, and None equals no (n, 2) array
        return (self.n, self.kind, self.seed) == (other.n, other.kind, other.seed) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("offsets", "flat", "coords"))

    def __reduce__(self):
        # rebuilt through the constructor, so checked and read-only, without the cached tables
        return Graph, (self.n, self.offsets, self.flat, self.kind, self.seed, self.coords,
                       self.attempts)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.offsets[-1]) // 2

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) pairs (u, v) with u < v, u-major, v in row order."""
        src = np.repeat(np.arange(self.n), self.degrees)
        keep = src < self.flat
        return np.stack((src[keep], self.flat[keep]), axis=1)

    @cached_property
    def _components(self) -> Tuple[int, np.ndarray]:
        """The number of connected components and each node's component."""
        return connected_components(self.adjacency_matrix, directed=False)

    @cached_property
    def _hops(self) -> np.ndarray:
        """All-pairs hop distances, ``distances_from`` every node: the table
        that the checkers visiting every node share."""
        return distances_from(self, range(self.n))

    @cached_property
    def _two_colouring(self) -> Optional[np.ndarray]:
        """Hop distances from node 0, mod 2, if they 2-colour the graph."""
        side = distances_from(self, 0) % 2
        return None if np.any(np.repeat(side, self.degrees) == side[self.flat]) else side

    @cached_property
    def adjacency_matrix(self) -> csr_matrix:
        """Sparse 0/1 adjacency matrix A on ``offsets`` and ``flat`` (which
        scipy copies to int32 when they fit)."""
        return csr_matrix((np.ones(len(self.flat)), self.flat, self.offsets),
                          shape=(self.n, self.n))

    @cached_property
    def transition_matrix(self) -> csr_matrix:
        """The simple random walk's sparse transition matrix D^-1 A."""
        deg = self.degrees
        return csr_matrix((1.0 / np.repeat(deg, deg), self.flat, self.offsets),
                          shape=(self.n, self.n))


def _build(n: int, edges, kind: str, seed: int, coords=None, attempts: int = 1) -> Graph:
    """The graph on nodes [0, n) with ``edges``, an (m, 2) int array-like of
    node pairs, its ``offsets`` and ``flat`` laid out by one stable sort of
    both directions of every edge, so each row is sorted.  Raises
    :class:`GraphGenerationError` for an endpoint outside [0, n), and
    otherwise for the first edge, in input order, that is a self-edge or
    repeats an earlier edge."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    outside = ((e < 0) | (e >= n)).any(axis=1)
    if outside.any():
        u, v = e[np.argmax(outside)].tolist()
        raise GraphGenerationError(f"edge ({u},{v}) has an endpoint outside [0, {n})")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    # one stable sort by (src, dst) lays out every row.  A self-edge's second
    # direction, and each repeat of an edge, sorts right after an earlier
    # copy of itself; its position mod m is its edge's place in the input
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    bad = order[1:][key[1:] == key[:-1]] % len(e)
    if len(bad):
        a, b = e[bad.min()].tolist()
        if a == b:
            raise GraphGenerationError(f"self-edge at node {a}")
        raise GraphGenerationError(f"duplicate edge ({min(a, b)},{max(a, b)})")
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(src, minlength=n))
    return Graph(n, offsets, dst[order], kind, seed, coords, attempts)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def clique(n: int) -> Graph:
    return _build(n, np.transpose(np.triu_indices(n, 1)), "clique", 0)


def ring(n: int) -> Graph:
    i = np.arange(n)
    edges = [(0, 1)] if n == 2 else np.stack((i, (i + 1) % n), axis=1)
    return _build(n, edges, "ring", 0)


def torus(side: int, dim: int = 2) -> Graph:
    """d-dimensional lattice torus: every node has exactly 2*dim neighbors."""
    n = side**dim
    i = np.arange(n)[:, None]
    strides = side ** np.arange(dim)
    c = i // strides % side
    # node i's edges, in axis order: its coordinate k steps up by one, mod side
    j = i + ((c + 1) % side - c) * strides
    return _build(n, np.stack(np.broadcast_arrays(i, j), axis=2), f"torus{{N={side},d={dim}}}", 0)


def grid2d(side: int) -> Graph:
    """N x N grid without wraparound (the 2-d mesh)."""
    u = np.arange(side * side).reshape(side, side)
    right = np.stack((u[:, :-1].ravel(), u[:, 1:].ravel()), axis=1)
    down = np.stack((u[:-1].ravel(), u[1:].ravel()), axis=1)
    return _build(side * side, np.concatenate((right, down)), f"grid2d{{N={side}}}", 0)


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
        # dx * dx + dy * dy, in place: two n x n arrays instead of five
        dx *= dx
        dy *= dy
        dx += dy
        close = dx <= r * r
        g = _build(n, np.argwhere(np.triu(close, k=1)), f"rgg{{r={r!r}}}", seed, coords=pts,
                   attempts=attempt + 1)
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
        g = _build(n, list(edges), f"random_regular{{d={degree}}}", seed, attempts=attempt + 1)
        if is_connected(g):
            return g
    raise GraphGenerationError(
        f"random_regular(n={n}, d={degree}) failed within {REGULAR_MAX_ATTEMPTS} attempts"
    )


def generate(spec: GraphSpec) -> Graph:
    """Build the graph described by ``spec``; always connected or raises.
    The generators take sizes that ``GraphSpec`` has already checked.  The
    graph's one component is recorded, so no run has to find it."""
    if spec.kind == "clique":
        g = clique(spec.n)
    elif spec.kind == "ring":
        g = ring(spec.n)
    elif spec.kind == "torus":
        g = torus(spec.side, spec.dim or 2)
    elif spec.kind == "grid2d":
        g = grid2d(spec.side)
    elif spec.kind == "rgg":
        g = rgg(spec.n, spec.seed, spec.radius)
    else:
        g = random_regular(spec.n, spec.degree, spec.seed)
    object.__setattr__(g, "_components", (1, np.zeros(g.n, dtype=np.int32)))
    return g


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
    return g._components[0] == 1


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
    return max(eccentricity(g, range(g.n)[b]) for b in _blocks(g.n, g.n))


def _blocks(count: int, width: int) -> list:
    """Slices of range(count) that take rows of ``width`` entries a block at
    a time, at most 2^20 entries to a block (one row if it holds more)."""
    rows = max(1, (1 << 20) // width)
    return [slice(s, min(s + rows, count)) for s in range(0, count, rows)]


def _row_counts(rows: np.ndarray, width: int, weights=None) -> np.ndarray:
    """``np.bincount`` of each row of ``rows`` into ``width`` bins, in one
    call; ``weights`` is one weight per column.  Each bin sums its row's
    entries in column order, as the row's own bincount would."""
    k = len(rows)
    keys = (rows + np.arange(k)[:, None] * width).ravel()
    w = None if weights is None else np.tile(weights, k)
    return np.bincount(keys, weights=w, minlength=k * width).reshape(k, width)


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
    Exhaustive in (u, R, delta) up to 2000 nodes, sampled above.  The
    reported (u, R) and (u, R, delta) are the first extremes in that order.
    """
    if g.n < 2:
        raise ValueError("growth check needs n >= 2")
    sampled = g.n > 2000
    nodes = _sample_nodes(g, 64, 0xBA11) if sampled else range(g.n)
    dist = distances_from(g, nodes) if sampled else g._hops
    diam = diameter(g) if sampled else _farthest(dist)  # all rows: the largest is the diameter
    r_max = max(2, (diam + 1) // 2)
    if sampled:
        radii = [R for R in np.unique(np.geomspace(2, r_max, 16).astype(int)).tolist()
                 if 2 <= R <= r_max]
        pairs = [(R, delta) for R in radii for delta in sorted({1, R // 2 or 1, R})]
    else:
        radii = list(range(2, r_max + 1))
        pairs = [(R, delta) for R in radii for delta in range(1, R + 1)]
    radii = np.array(radii)
    pair_r, delta = np.array(pairs).T  # the annulus pairs (R, delta), R-major
    width = 2 * r_max + 2
    c0_best = math.inf
    c0_arg = (0, 0)
    c1_best = 0.0
    c1_arg = (0, 0, 0)
    for b in _blocks(len(dist), max(g.n, width, len(delta))):
        # sizes[i, k] = #{v : d(u_i, v) <= k} = |B(u_i, k+1)|; the last column,
        # which no ratio reads, also counts the nodes farther out
        sizes = _row_counts(np.minimum(dist[b], width - 1), width).cumsum(axis=1)
        ratio = sizes[:, radii - 1] / (radii * radii)
        i, k = divmod(int(np.argmin(ratio)), len(radii))
        if ratio[i, k] < c0_best:
            c0_best, c0_arg = float(ratio[i, k]), (int(nodes[b.start + i]), int(radii[k]))
        ratio1 = (sizes[:, pair_r + delta - 1] - sizes[:, pair_r - 1]) / (delta * pair_r)
        i, k = divmod(int(np.argmax(ratio1)), len(delta))
        if ratio1[i, k] > c1_best:
            c1_best = float(ratio1[i, k])
            c1_arg = (int(nodes[b.start + i]), int(pair_r[k]), int(delta[k]))
    passed = math.isfinite(c0_best) and c0_best > 0 and math.isfinite(c1_best)
    return GrowthReport(c0_best, c0_arg, c1_best, c1_arg, passed, sampled, diam)


def check_volume_doubling(g: Graph) -> float:
    """Worst Vol(u,2R)/Vol(u,R) over sampled (u, R), R from 2 up."""
    dist = distances_from(g, _sample_nodes(g, 64, 0xBA11)) if g.n > 2000 else g._hops
    # a node's ratio is 1 once R passes its eccentricity + 1, so R need
    # not run past the table's largest entry + 1
    r_max = _farthest(dist) + 1
    width = 2 * r_max + 1
    deg = np.asarray(g.degrees, dtype=float)
    worst = 0.0
    for b in _blocks(len(dist), max(g.n, width)):
        # volumes[i, R] = Vol(u_i, R) for the strict ball of radius R
        volumes = _row_counts(dist[b] + 1, width, deg).cumsum(axis=1)
        ratios = volumes[:, 4 : 2 * r_max + 1 : 2] / volumes[:, 2 : r_max + 1]  # R = 2 .. r_max
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
    # the induced ball, its nodes renumbered 0 .. k-1 in order and -1 outside;
    # it is connected: each member's shortest path to u stays inside it
    local = np.full(g.n, -1)
    local[nodes] = np.arange(k)
    src, dst = np.repeat(local, g.degrees), local[g.flat]
    inside = (src >= 0) & (dst >= 0)
    src, dst = src[inside], dst[inside]
    deg = np.bincount(src, minlength=k)
    i, j = src[src < dst], dst[src < dst]  # its edges, i < j
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
        lap = np.diag(deg.astype(float))
        lap[src, dst] = -1.0
        order = np.argsort(np.linalg.eigh(lap)[1][:, 1])
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
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    if g.coords is not None:
        lines.extend(f"c {x!r} {y!r}" for x, y in g.coords.tolist())
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
    distinct nodes in [0, n), none repeated, that connect all n nodes,
    and finite coordinates if any.  A header with n < 1 or m < n - 1 is
    rejected before anything is built."""
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
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GraphFileError(f"line {k + 1}: coordinates {lines[k]!r} must be finite")
            coords.append((x, y))
    g = _build(n, list(edges), kind, seed, coords=coords)
    if not is_connected(g):
        raise GraphFileError("graph is not connected")
    return g
