"""Exact and Monte-Carlo analysis of random walks on the simulation graphs.

Hitting times come from the dense fundamental matrix, meeting times
from one eigendecomposition of the normalized Laplacian; meeting
probabilities from the two-walk chain over unordered pairs, uniformized
exactly; effective resistances from Laplacian solves on the
unit-resistor network; token decay curves and the coalescing-walk counts
from seeded Monte Carlo.  Discrete-step expectations equal continuous
unit-rate expectations via the jump-and-hold construction, so one table
serves both clocks.  Importing the package pins the bundled OpenBLAS to
one thread, so a dense solve's last digits, a meeting table's near the
100-node cap included, are the same in every run, whatever the thread
settings.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix, identity, kron
from scipy.sparse.csgraph import laplacian

from .engine import Continuous, RngStream
from .graph import (
    Graph,
    _sample_nodes,
    check_geometric_neighborhood,
    check_isoperimetry,
    check_volume_doubling,
    distances_from,
)
from .protocols import MaxTime, SynchronousDiscrete, Termination, _crw_starts, run


class SolverError(RuntimeError):
    """A linear solve did not reach the required residual."""


RESIDUAL_TOL = 1e-9  # largest relative residual a linear solve may leave


def _check_connected(g: Graph, what: str) -> None:
    """Refuse a graph with more than one component: its walks never meet
    or hit across components, and a node without edges has no walk."""
    count = g._components[0]
    if count > 1:
        raise ValueError(f"{what} needs a connected graph, not one of {count} components")


# ----------------------------------------------------------------------
# Hitting times
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairTimeTable:
    """entry[v, w] = expected first-passage time from v to w, in steps
    (equal to the continuous unit-rate expectation), or expected time for
    two unit-rate walks from v and w to first share a node."""

    entry: np.ndarray
    max_residual: float

    @property
    def worst_case(self) -> float:
        return float(self.entry.max())


def _transition_matrix(g: Graph, lazy_prob: float = 0.0) -> np.ndarray:
    """The walk's transition matrix P, dense, or (1 - lazy_prob) P +
    lazy_prob I for the lazy walk."""
    p = g.transition_matrix.toarray()
    return (1 - lazy_prob) * p + lazy_prob * np.eye(g.n) if lazy_prob else p


def mean_hitting_times(g: Graph) -> PairTimeTable:
    """All-pairs mean first-passage times of the simple random walk.

    Solved through the fundamental matrix Z = (I - P + 1 pi)^-1 with
    pi the degree-proportional stationary law; every column is verified
    against its defining harmonic system h(w) = 0, h(u) = 1 + avg_nbr h.
    """
    n = g.n
    if n == 1:
        return PairTimeTable(np.zeros((1, 1)), 0.0)
    if n > 5000:
        raise SolverError("dense hitting-time solve capped at 5000 nodes")
    _check_connected(g, "the hitting-time solve")
    p = _transition_matrix(g)
    deg = np.asarray(g.degrees, dtype=float)
    pi = deg / deg.sum()
    z = np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), pi))
    h = (np.diag(z)[None, :] - z) / pi[None, :]
    np.fill_diagonal(h, 0.0)
    # residual of the harmonic equations, relative to the table scale
    res = h - 1.0 - p @ h
    np.fill_diagonal(res, 0.0)
    max_res = float(np.abs(res).max() / max(1.0, h.max()))
    if not max_res <= RESIDUAL_TOL:
        raise SolverError(f"hitting-time residual {max_res:.2e} above {RESIDUAL_TOL:.0e}")
    return PairTimeTable(h, max_res)


def worst_case_hitting(g: Graph) -> float:
    """sigma: the largest mean first-passage time over all node pairs."""
    return mean_hitting_times(g).worst_case


# ----------------------------------------------------------------------
# Effective resistance
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResistanceReport:
    """Pairwise effective resistances of the unit-resistor network.

    ``rho_star`` is the largest pairwise resistance; ``sigma_bound`` is
    the worst-case hitting-time bound 2|E| * rho_star.
    """

    rho: np.ndarray
    rho_star: float
    argmax: tuple
    edges: int

    @property
    def sigma_bound(self) -> float:
        return 2.0 * self.edges * self.rho_star


def resistance_report(g: Graph) -> ResistanceReport:
    n = g.n
    if n > 4000:
        raise SolverError("dense resistance table capped at 4000 nodes")
    _check_connected(g, "the resistance table")
    lap = laplacian(g.adjacency_matrix).toarray()
    # eigh returns the Laplacian's null eigenvalue at up to about n eps times
    # the largest; pinv's default cutoff, 1e-15 times the largest, can keep
    # it, and its inverse then swamps every entry of L+
    lplus = np.linalg.pinv(lap, hermitian=True, rtol=None)
    d = np.diag(lplus)
    rho = d[:, None] + d[None, :] - 2 * lplus
    np.fill_diagonal(rho, 0.0)
    rho = np.maximum(rho, 0.0)
    idx = int(np.argmax(rho))
    u, v = divmod(idx, n)
    if u != v:
        # verify the extremal pair by a grounded solve: the potential at u
        # under a unit current injected at u and drawn at v, with v grounded
        keep = np.arange(n) != v
        reduced = lap[np.ix_(keep, keep)]
        b = (np.arange(n) == u)[keep].astype(float)
        x = np.linalg.solve(reduced, b)
        res = np.linalg.norm(reduced @ x - b)
        if not res <= RESIDUAL_TOL:
            raise SolverError(f"resistance solve residual {res:.2e}")
        direct = x[u - (u > v)]
        if not abs(direct - rho[u, v]) <= RESIDUAL_TOL * max(1.0, direct):
            raise SolverError("pseudo-inverse and grounded solves disagree")
    return ResistanceReport(rho=rho, rho_star=float(rho[u, v]), argmax=(u, v), edges=g.m)


# ----------------------------------------------------------------------
# Meeting times
# ----------------------------------------------------------------------


MEETING_MAX_NODES = 100  # largest graph of mean_meeting_times and estimate_alpha


def _check_meeting_cap(n: int) -> None:
    if n > MEETING_MAX_NODES:
        raise SolverError(f"meeting times and probabilities capped at {MEETING_MAX_NODES} nodes")


def _pair_chain(g: Graph) -> tuple:
    """The two-walk chain on unordered pairs: (x, y, S) with the k =
    n(n-1)/2 pairs x < y and the k x k substochastic step matrix S, which
    ``estimate_alpha`` takes powers of.

    The product chain jumps at total rate 2; each jump moves one of the
    two walks, chosen fairly, and the diagonal absorbs.  Row x * n + y of
    (P kron I + I kron P) / 2, its columns (a, b) folded onto the pair
    {a, b} and the diagonal ones dropped, is row (x, y) of S.  Mean
    meeting times solve (I - S) M = 1/2 on this chain too, but
    :func:`mean_meeting_times` takes them from n x n matrices instead.
    """
    n = g.n
    _check_meeting_cap(n)
    x, y = np.triu_indices(n, 1)
    k = len(x)
    pair = np.full((n, n), -1)
    pair[x, y] = pair[y, x] = np.arange(k)
    p = g.transition_matrix
    eye = identity(n, format="csr")
    step = (0.5 * (kron(p, eye) + kron(eye, p))).tocsr()[x * n + y].tocoo()
    col = pair.ravel()[step.col]
    off = col >= 0
    return x, y, csc_matrix((step.data[off], (step.row[off], col[off])), shape=(k, k))


def mean_meeting_times(g: Graph) -> PairTimeTable:
    """Pairwise mean meeting times of two unit-rate walks, from one
    eigendecomposition of the n x n normalized Laplacian.

    Off the diagonal M = 1/2 + (PM + MP^T)/2, and M(x, x) = 0; with
    L = I - P that is LM + ML^T = J + diag(c) for an unknown vector c.
    Let I - D^-1/2 A D^-1/2 = U diag(lam) U^T, with lam_0 set to 0 (its
    eigenvector is sqrt(d / 2m)), and K_ij = 1 / (lam_i + lam_j) with
    K_00 = 0.  J lies wholly in the null mode, so
    M = D^-1/2 U (K o U^T diag(e) U) U^T D^-1/2 + beta.  The n + 1
    unknowns solve [[F, d], [d^T, 0]] [e; beta] = [0; -(2m)^2], with
    F(x, y) = sum_ij U_xi U_yi K_ij U_xj U_yj: its first n rows set
    M(x, x) = 0 and its last makes the null mode solvable.  O(n^4) flops
    and O(n^3) memory.  The table mirrors its upper triangle, so it is
    exactly symmetric, and its residual is read off the pair equations
    with P.  Capped at ``MEETING_MAX_NODES`` nodes.
    """
    n = g.n
    _check_meeting_cap(n)
    if n == 1:
        return PairTimeTable(np.zeros((1, 1)), 0.0)
    _check_connected(g, "the meeting-time solve")
    deg = np.asarray(g.degrees, dtype=float)
    scale = 1.0 / np.sqrt(deg)
    lam, u = np.linalg.eigh(np.eye(n) - scale[:, None] * g.adjacency_matrix.toarray() * scale)
    lam[0] = 0.0
    pair_sum = lam[:, None] + lam
    pair_sum[0, 0] = math.inf
    k = 1.0 / pair_sum
    z = (u[:, None, :] * u[None, :, :]).reshape(n * n, n)  # row x n + y: U_xi U_yi
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = np.einsum("ri,ri->r", z @ k, z).reshape(n, n)
    border[:n, n] = border[n, :n] = deg
    rhs = np.zeros(n + 1)
    rhs[n] = -deg.sum() ** 2
    sol = np.linalg.solve(border, rhs)
    e, beta = sol[:n], sol[n]
    m = scale[:, None] * (u @ (k * (u.T @ (e[:, None] * u))) @ u.T) * scale + beta
    m = np.triu(m, 1)
    m += m.T
    pm = g.transition_matrix @ m
    res = m - 0.5 - 0.5 * (pm + pm.T)
    np.fill_diagonal(res, 0.0)
    max_res = float(np.abs(res).max() / max(1.0, m.max()))
    if not max_res <= RESIDUAL_TOL:
        raise SolverError(f"meeting-time residual {max_res:.2e} above {RESIDUAL_TOL:.0e}")
    return PairTimeTable(m, max_res)


def worst_case_meeting(g: Graph) -> float:
    return mean_meeting_times(g).worst_case


@dataclass(frozen=True)
class MeetingEstimate:
    """Worst-case (minimum over pairs) meeting probability by time s."""

    alpha_hat: float
    s: float
    argmin_pair: tuple


def estimate_alpha(g: Graph, a: Sequence[int], s: float) -> MeetingEstimate:
    """alpha_s(A): the least probability, over pairs of nodes of A, that
    two unit-rate walks started there meet by time s.

    Exact by jump-and-hold: the pair chain jumps at total rate 2, so the
    pairs' survival is sum_j Pois(j; 2s) S^j 1, truncated at
    J = ceil(2s + 10 sqrt(2s) + 40), where the Poisson tail is below
    e^-50.  It costs at most J sparse products: the sum stops once every
    entry of S^j 1 is at most e^-50, since S is substochastic and the
    skipped terms then add at most e^-50.  It is capped at
    ``MEETING_MAX_NODES`` nodes.
    """
    a = sorted(set(a))
    if len(a) < 2:
        raise ValueError("alpha needs at least two start nodes")
    if a[0] < 0 or a[-1] >= g.n:
        raise ValueError(f"start nodes must lie in 0..{g.n - 1}")
    if not 0 <= s < math.inf:
        raise ValueError(f"alpha needs a finite horizon s >= 0, not {s}")
    x, y, step = _pair_chain(g)
    j = np.arange(math.ceil(2 * s + 10 * math.sqrt(2 * s) + 40) + 1)
    if s > 0:
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(j[1:]))])
        weights = np.exp(j * math.log(2 * s) - 2 * s - log_fact)
    else:
        weights = (j == 0).astype(float)
    alive = np.ones(len(x))  # S^j 1: no meeting within j jumps
    survival = weights[0] * alive
    for w in weights[1:]:
        if alive.max() <= math.exp(-50):
            break
        alive = step @ alive
        survival += w * alive
    inside = np.isin(x, a) & np.isin(y, a)
    i = np.flatnonzero(inside)[np.argmax(survival[inside])]
    # rounding can leave a survival an ulp above 1
    return MeetingEstimate(alpha_hat=max(0.0, float(1.0 - survival[i])), s=s,
                           argmin_pair=(int(x[i]), int(y[i])))


# ----------------------------------------------------------------------
# Token decay
# ----------------------------------------------------------------------


POINTS_PER_DECADE = 64  # density of geometric_grid


def geometric_grid(t_end: float) -> np.ndarray:
    """[0] followed by a geometric grid from min(1e-3, t_end/10) up to t_end,
    ``POINTS_PER_DECADE`` points per decade."""
    if t_end <= 0:
        return np.array([0.0])
    lo = min(1e-3, t_end / 10)
    decades = math.log10(t_end / lo)
    count = max(2, int(math.ceil(decades * POINTS_PER_DECADE)))
    return np.concatenate([[0.0], np.geomspace(lo, t_end, count)])


@dataclass(frozen=True)
class DecayCurve:
    """Estimated expected active-token count of CRW over a time grid,
    with the cumulative expected message curve derived from it."""

    grid: np.ndarray
    n_hat: np.ndarray
    n_se: np.ndarray
    m_hat: np.ndarray
    m_se: np.ndarray
    trials: int
    discrete: bool

    def t_gamma(self, gamma: float) -> tuple:
        """(first grid time with N_hat <= gamma, previous grid time)."""
        for i, (t, c) in enumerate(zip(self.grid, self.n_hat)):
            if c <= gamma:
                return float(t), float(self.grid[max(0, i - 1)])
        return float(self.grid[-1]), float(self.grid[-1])

    def at(self, t: float) -> tuple:
        """(N_hat, M_hat) at the last grid point <= t."""
        i = int(np.searchsorted(self.grid, t, side="right")) - 1
        i = max(0, i)
        return float(self.n_hat[i]), float(self.m_hat[i])

    def write_csv(self, path) -> None:
        columns = (self.grid, self.n_hat, self.n_se, self.m_hat)
        lines = ["t,N_hat,stderr,M_hat"]
        lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
        Path(path).write_text("\n".join(lines) + "\n")


def estimate_decay(
    g: Graph,
    trials: int = 100,
    stream: RngStream | int = 0,
    lazy_prob: Optional[float] = None,
) -> DecayCurve:
    """Monte-Carlo token-decay curve of CRW.

    Runs full CRW trials (streams ``stream_id + trial``) and reads the
    active-count step functions on a shared grid; the message curve is
    their time integral.  ``lazy_prob`` switches to synchronized discrete
    rounds on a grid of whole rounds.  Every token active after round j
    is then charged one message in round j + 1, so the messages by grid
    round t sum the counts after rounds 0..t: the integral up to t + 1,
    since the counts change only at whole rounds.  Those sums are
    integers, exact in float64.
    """
    if trials < 1:
        raise ValueError(f"decay estimate needs trials >= 1, not {trials!r}")
    discrete = lazy_prob is not None
    clock = SynchronousDiscrete(lazy_prob) if discrete else Continuous()
    curves = []
    t_end = 0.0
    for st in _crw_starts(g, trials, stream, clock):
        tr = run(st, Termination())
        curves.append((np.asarray(tr.times), np.asarray(tr.active_counts, dtype=float)))
        t_end = max(t_end, tr.tau)
    grid = (
        np.unique(np.concatenate([[0.0], np.rint(geometric_grid(t_end))]))
        if discrete
        else geometric_grid(t_end)
    )
    samples = np.empty((trials, len(grid)))
    integrals = np.empty((trials, len(grid)))
    for i, (times, counts) in enumerate(curves):
        samples[i] = counts[_step_index(times, grid)]
        integrals[i] = _step_integral(times, counts, grid + 1 if discrete else grid)
    n_hat = samples.mean(axis=0)
    n_se = samples.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(n_hat)
    m_hat = integrals.mean(axis=0)
    m_se = integrals.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(m_hat)
    return DecayCurve(grid, n_hat, n_se, m_hat, m_se, trials, discrete)


def _step_index(times, grid) -> np.ndarray:
    """Index of the step-function breakpoint in force at each grid time."""
    return np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(times) - 1)


def _step_integral(times: np.ndarray, counts: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Exact pathwise integral of a step function at each grid time."""
    # cumulative area at each breakpoint
    widths = np.diff(times)
    area = np.concatenate([[0.0], np.cumsum(counts[:-1] * widths)])
    idx = _step_index(times, grid)
    return area[idx] + counts[idx] * (grid - times[idx])


# ----------------------------------------------------------------------
# Coalescing-system oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    trials: int


def coalescing_oracle(
    g: Graph,
    b: Sequence[int],
    s_values: Sequence[float],
    trials: int = 1000,
    stream: RngStream | int = 0,
) -> list:
    """Expected surviving-token counts E|Lambda_B(s)| of a coalescing
    walk started on B, at each requested time: CRW trials (streams
    ``stream_id + trial``) with the nodes outside B inactive and holding
    count 0, each read at every s (so the estimates are pathwise
    nonincreasing in s); one trial gives standard errors of 0."""
    if trials < 1:
        raise ValueError(f"coalescing oracle needs trials >= 1, not {trials!r}")
    b = set(b)
    if not b or not b <= set(range(g.n)):
        raise ValueError("start set must be a nonempty set of nodes")
    s_values = np.asarray(s_values, dtype=float)
    counts = np.empty((trials, len(s_values)))
    for trial, st in enumerate(_crw_starts(g, trials, stream, Continuous(), b)):
        tr = run(st, MaxTime(float(s_values.max())))
        counts[trial] = np.asarray(tr.active_counts)[_step_index(tr.times, s_values)]
    return [
        MCEstimate(float(c.mean()),
                   float(c.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0, trials)
        for c in counts.T
    ]


# ----------------------------------------------------------------------
# Heat-kernel (Gaussian) lower bound
# ----------------------------------------------------------------------


GAUSSIAN_MAX_NODES = 2500  # largest graph check_gaussian_bound takes matrix powers of


@dataclass(frozen=True)
class GaussianBoundReport:
    c3: float
    c4: float
    t_max: int
    lazy_prob: float
    feasible: bool
    violations: list = field(default_factory=list)


def check_gaussian_bound(g: Graph, t_max: int, lazy_prob: float = 0.5) -> GaussianBoundReport:
    """Fit constants for the lazy-walk transition lower bound
    (c3/t) exp(-d(u,v)^2 / (c4 t)) <= P_t(u,v) + P_{t+1}(u,v)
    over all 1 <= d(u,v) <= t <= t_max.

    One pass over t = 1 .. t_max forms each power once and keeps two at a
    time, so memory does not grow with t_max.  It lists the pairs with
    P_t + P_{t+1} <= 0 (then the report is infeasible, with c3 = c4 = 0),
    sums the least squares fit of log(t (P_t + P_{t+1})) against d^2/t
    over the rest in row-major order, and keeps the least P_t + P_{t+1}
    of each distance class.  c4 comes from the fit.  c3, the largest
    constant with zero violations, is the least t q exp(d^2 / (t c4)):
    the factor depends on (t, d) alone and rounding is monotone, so that
    least value is found at each class's least q.
    """
    n = g.n
    if n < 2:
        raise ValueError("the Gaussian bound needs at least two nodes")
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral):
        raise ValueError(f"the Gaussian bound needs an integer t_max, not {t_max!r}")
    if t_max < 1:
        raise ValueError(f"the Gaussian bound needs t_max >= 1, not {t_max}")
    if not (isinstance(lazy_prob, numbers.Real) and 0 <= lazy_prob <= 1):
        raise ValueError(f"the Gaussian bound needs 0 <= lazy_prob <= 1, not {lazy_prob!r}")
    if n > GAUSSIAN_MAX_NODES:
        raise SolverError(f"dense matrix powers capped at {GAUSSIAN_MAX_NODES} nodes")
    p = _transition_matrix(g, lazy_prob)
    # hops < GAUSSIAN_MAX_NODES: the narrow table masks and sorts faster
    dist = g._hops.astype(np.int16)
    flat = dist.ravel()
    if flat.max() < 1:
        raise ValueError("the Gaussian bound needs a graph with an edge")
    top = min(t_max, int(flat.max()))  # the largest distance with a constraint
    # the flat indices of the pairs at distance 1 .. top, grouped by distance;
    # distance d takes order[starts[d - 1]:ends[d - 1]], and no class is empty
    sizes = np.bincount(flat[flat >= 1])[1:top + 1]
    ends = sizes.cumsum()
    starts = ends - sizes
    order = np.argsort(flat, kind="stable")[np.count_nonzero(flat < 1):][:ends[-1]]
    qmin = np.full((t_max, top), math.inf)  # qmin[t - 1, d - 1], for d <= t
    violations = []
    count = sx = sy = sxx = sxy = 0.0
    mask = np.zeros(dist.shape, dtype=bool)  # the constraints 1 <= d <= t
    pt = p.copy()  # P^1
    for t in range(1, t_max + 1):
        pt1 = pt @ p
        k = min(t, top)  # the distance classes constrained at t
        if t <= top:
            mask |= dist == t
        s = np.add(pt, pt1, out=pt)  # P_t + P_{t+1}, over P_t, which is not read again
        qmin[t - 1, :k] = np.minimum.reduceat(s.ravel()[order[:ends[k - 1]]], starts[:k])
        q = s[mask]
        d2 = dist[mask].astype(float) ** 2
        if qmin[t - 1, :k].min() <= 0:
            zero = q <= 0
            for (u, v), val in zip(np.argwhere(mask)[zero], q[zero]):
                violations.append((int(u), int(v), t, float(val)))
            d2, q = d2[~zero], q[~zero]
        x = d2 / t
        y = np.log(t * q)
        count += len(x)
        sx += x.sum()
        sy += y.sum()
        sxx += x @ x
        sxy += x @ y
        pt = pt1
    if violations:
        return GaussianBoundReport(0.0, 0.0, t_max, lazy_prob, False, violations)
    # the normal equations of the fit; lstsq keeps the minimum-norm answer
    # when every constraint has the same d^2/t (t_max = 1)
    (slope, _), *_ = np.linalg.lstsq(np.array([[sxx, sx], [sx, count]]),
                                     np.array([sxy, sy]), rcond=None)
    c4 = -1.0 / slope if slope < 0 else math.inf
    ts = np.arange(1, t_max + 1)[:, None]
    d = np.arange(1, top + 1)
    live = d <= ts
    d2 = d.astype(float) ** 2
    # with c4 = inf every factor is exp(0) = 1, and t q * 1 is t q exactly
    with np.errstate(over="ignore"):  # a factor that overflows to inf allows any c3
        c3 = float(((ts * qmin)[live] * np.exp((d2 / ts / c4)[live])).min())
    return GaussianBoundReport(c3, float(c4), t_max, lazy_prob, c3 > 0, [])


# ----------------------------------------------------------------------
# Combined regularity report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    c0: float
    c1: float
    c5: float
    c8: float
    c3: Optional[float]
    c4: Optional[float]
    growth_pass: bool
    doubling_pass: bool = True
    isoperimetry_pass: bool = True
    gaussian_pass: Optional[bool] = None


def regularity_report(g: Graph, t_max: Optional[int] = None) -> RegularityReport:
    """Bundle the measured regularity constants of a graph: quadratic
    ball growth, volume doubling, a small-ball isoperimetry certificate,
    and (for graphs of at most ``GAUSSIAN_MAX_NODES`` nodes, when
    ``t_max`` is given) the heat-kernel bound constants."""
    growth = check_geometric_neighborhood(g)
    c5 = check_volume_doubling(g)
    c8 = math.inf
    centers = _sample_nodes(g, 4, 0xC8)
    for u, row in zip(centers, distances_from(g, centers)):
        # sizes[r - 1] = |B(u, r)|: the radius grows from 2 while the ball
        # holds at most 16 nodes (exact isoperimetry), up to diameter + 1
        sizes = np.bincount(row, minlength=growth.diameter + 1).cumsum()
        c8 = min(c8, check_isoperimetry(g, u, max(2, int((sizes <= 16).sum()))).value)
    c3 = c4 = None
    gaussian_pass = None
    if t_max is not None and g.n <= GAUSSIAN_MAX_NODES:
        rep = check_gaussian_bound(g, t_max)
        c3, c4, gaussian_pass = rep.c3, rep.c4, rep.feasible
    return RegularityReport(
        c0=growth.c0_best,
        c1=growth.c1_best,
        c5=c5,
        c8=c8,
        c3=c3,
        c4=c4,
        growth_pass=growth.passed,
        doubling_pass=math.isfinite(c5) and c5 > 0,
        isoperimetry_pass=c8 > 0,
        gaussian_pass=gaussian_pass,
    )
