import math
import re
import warnings

import numpy as np
import pytest
import reference_loops
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from tokengossip import analysis as an
from tokengossip.engine import Continuous, RngStream, SynchronousDiscrete
from tokengossip.fusion import sum_fusion
from tokengossip.graph import Graph, GraphSpec, generate
from tokengossip.protocols import Termination, init, run


# -- hitting times ------------------------------------------------------------


def test_hitting_clique3():
    # from any start, success probability 1/(n-1) per step: mean 2
    h = an.mean_hitting_times(generate(GraphSpec.clique(3)))
    off = h.entry[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0, atol=1e-9)


def test_hitting_ring_closed_form():
    # gambler's ruin on the cycle: E[T] = d(n-d)
    for n in (4, 9, 16):
        h = an.mean_hitting_times(generate(GraphSpec.ring(n))).entry
        for u in range(n):
            for v in range(n):
                d = min(abs(u - v), n - abs(u - v))
                assert abs(h[u, v] - d * (n - d)) < 1e-6


def test_hitting_diagonal_and_worst_case():
    g = generate(GraphSpec.ring(4))
    table = an.mean_hitting_times(g)
    assert np.all(np.diag(table.entry) == 0.0)
    assert table.worst_case == pytest.approx(4.0)
    assert an.worst_case_hitting(generate(GraphSpec.clique(3))) == pytest.approx(2.0)
    assert an.mean_hitting_times(generate(GraphSpec.clique(1))).worst_case == 0.0


def _mc_hitting_ring(n, u, v, walks, seed):
    # vectorized discrete-step oracle for the ring
    rng = RngStream(seed).generator()
    pos = np.full(walks, u, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    alive = pos != v
    while alive.any():
        moves = np.where(rng.random(int(alive.sum())) < 0.5, -1, 1)
        pos[alive] = (pos[alive] + moves) % n
        steps[alive] += 1
        alive = pos != v
    return steps.mean()


def test_hitting_solver_vs_mc():
    g = generate(GraphSpec.ring(16))
    h = an.mean_hitting_times(g).entry
    mc = _mc_hitting_ring(16, 0, 5, 100_000, seed=41)
    assert abs(mc - h[0, 5]) / h[0, 5] <= 0.02


def test_hitting_solver_vs_mc_torus():
    g = generate(GraphSpec.torus(5, 2))
    target = 12  # center-ish node; walks start at 0
    h = an.mean_hitting_times(g).entry
    offsets, flat = g.offsets, g.flat
    deg = np.diff(offsets)
    rng = RngStream(43).generator()
    walks = 100_000
    pos = np.zeros(walks, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    alive = pos != target
    while alive.any():
        idx = np.nonzero(alive)[0]
        cur = pos[idx]
        hop = (rng.random(len(idx)) * deg[cur]).astype(np.int64)
        pos[idx] = flat[offsets[cur] + hop]
        steps[idx] += 1
        alive[idx] = pos[idx] != target
    assert abs(steps.mean() - h[0, target]) / h[0, target] <= 0.02


def test_hitting_vertex_transitive_distance_classes():
    g = generate(GraphSpec.torus(4, 2))
    h = an.mean_hitting_times(g).entry
    from tokengossip.graph import distances_from

    by_class = {}
    for u in range(g.n):
        dist = distances_from(g, u)
        for v in range(g.n):
            by_class.setdefault(int(dist[v]), []).append(h[u, v])
    for d, vals in by_class.items():
        assert np.ptp(vals) < 1e-6


# -- resistance ---------------------------------------------------------------


def test_resistance_ring4():
    rep = an.resistance_report(generate(GraphSpec.ring(4)))
    # distance 2: two parallel 2-ohm paths
    assert rep.rho_star == pytest.approx(1.0)
    assert rep.sigma_bound == pytest.approx(8.0)


def test_resistance_clique4():
    rho = an.resistance_report(generate(GraphSpec.clique(4))).rho
    assert rho[0, 1] == pytest.approx(0.5)
    assert np.all(np.diag(rho) == 0.0)


def test_resistance_symmetry_and_triangle():
    g = generate(GraphSpec.rgg(40, seed=8))
    rho = an.resistance_report(g).rho
    assert np.allclose(rho, rho.T, atol=1e-9)
    rng = np.random.default_rng(1)
    for _ in range(40):
        u, v, w = rng.integers(g.n, size=3)
        assert rho[u, w] <= rho[u, v] + rho[v, w] + 1e-9


def test_resistance_drops_a_null_eigenvalue_above_the_default_cutoff():
    # eigh puts this Laplacian's null eigenvalue at 4.6e-14, above pinv's
    # default cutoff of 1e-15 times the largest (41.7); kept, it made L+'s
    # entries about 1.4e11 and the table disagree with the grounded solve
    g = generate(GraphSpec.rgg(150, seed=1169379991))
    rho = an.resistance_report(g).rho
    # L + 11^T/n is invertible on a connected graph, and its inverse is L+ + 11^T/n
    m = np.linalg.inv(an.laplacian(g.adjacency_matrix).toarray() + 1 / g.n)
    assert np.allclose(rho, np.diag(m)[:, None] + np.diag(m)[None, :] - 2 * m, rtol=0, atol=1e-9)


def test_rayleigh_monotonicity():
    # deleting an edge never decreases any effective resistance
    g = generate(GraphSpec.torus(3, 2))
    before = an.resistance_report(g).rho
    rng = np.random.default_rng(3)
    for idx in rng.choice(g.m, size=5, replace=False):
        u, v = g.edges[idx]
        adj = reference_loops.neighbours(g)
        adj[u].remove(v)
        adj[v].remove(u)
        cut = Graph(n=g.n, offsets=np.cumsum([0] + [len(a) for a in adj]),
                    flat=np.concatenate(adj), kind="cut", seed=0)
        from tokengossip.graph import is_connected

        if not is_connected(cut):
            continue
        after = an.resistance_report(cut).rho
        assert np.all(after >= before - 1e-9)


def test_sigma_bounded_by_resistance():
    for spec in (
        GraphSpec.ring(9),
        GraphSpec.clique(8),
        GraphSpec.torus(4, 2),
        GraphSpec.grid2d(4),
        GraphSpec.rgg(36, seed=2),
    ):
        g = generate(spec)
        assert an.worst_case_hitting(g) <= an.resistance_report(g).sigma_bound + 1e-9


# -- meeting times -------------------------------------------------------------


def test_meeting_k2():
    m = an.mean_meeting_times(generate(GraphSpec.clique(2)))
    assert m.entry[0, 1] == pytest.approx(0.5)
    assert m.entry[0, 0] == 0.0


def test_meeting_symmetric():
    m = an.mean_meeting_times(generate(GraphSpec.ring(8))).entry
    assert np.allclose(m, m.T, atol=1e-9)
    # every pair on a clique has the same mean meeting time
    off = an.mean_meeting_times(generate(GraphSpec.clique(5))).entry[~np.eye(5, dtype=bool)]
    assert np.allclose(off, off[0])


def test_meeting_bounded_by_hitting():
    for spec in (
        GraphSpec.ring(8),
        GraphSpec.clique(6),
        GraphSpec.torus(3, 2),
        GraphSpec.grid2d(3),
        GraphSpec.rgg(25, seed=4),
    ):
        g = generate(spec)
        assert an.worst_case_meeting(g) <= an.worst_case_hitting(g) + 1e-9


def product_chain_meeting_times(g):
    # independent oracle: the full n^2-state product chain, diagonal absorbing
    n = g.n
    p = an._transition_matrix(g)
    eye = identity(n)
    off = 1.0 - np.eye(n).ravel()
    mat = (identity(n * n) - diags(off) @ (0.5 * (kron(p, eye) + kron(eye, p)))).tocsc()
    return splu(mat).solve(0.5 * off).reshape(n, n)


@pytest.mark.parametrize("spec", [
    GraphSpec.ring(8),
    GraphSpec.torus(4, 2),
    GraphSpec.grid2d(4),
    GraphSpec.rgg(25, seed=4),
    GraphSpec.random_regular(20, 4, seed=1),
], ids=lambda s: s.kind)
def test_meeting_matches_the_product_chain(spec):
    g = generate(spec)
    table = an.mean_meeting_times(g)
    oracle = product_chain_meeting_times(g)
    assert np.abs(table.entry - oracle).max() <= 1e-10 * oracle.max()
    assert np.all(np.diag(table.entry) == 0.0)
    assert 0.0 <= table.max_residual <= an.RESIDUAL_TOL


@pytest.mark.parametrize("n", range(2, 9))
def test_meeting_clique_closed_form(n):
    # each jump moves one walk onto the other's node with probability 1/(n-1),
    # at total rate 2: the meeting time is exponential with mean (n-1)/2
    m = an.mean_meeting_times(generate(GraphSpec.clique(n))).entry
    assert np.allclose(m[~np.eye(n, dtype=bool)], (n - 1) / 2, rtol=1e-12)


def test_meeting_on_one_node_is_zero():
    table = an.mean_meeting_times(generate(GraphSpec.clique(1)))
    assert table.entry.tolist() == [[0.0]] and table.max_residual == 0.0


def test_meeting_cap_names_the_node_count():
    with pytest.raises(an.SolverError, match="100 nodes"):
        an.mean_meeting_times(generate(GraphSpec.ring(101)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(
    st.builds(GraphSpec.ring, st.integers(2, 40)),
    st.builds(GraphSpec.torus, st.integers(3, 6)),
    st.builds(GraphSpec.grid2d, st.integers(2, 6)),
    st.builds(GraphSpec.rgg, st.integers(2, 40), seed=st.integers(0, 1000)),
    st.builds(GraphSpec.random_regular, st.integers(5, 40), st.just(4),
              seed=st.integers(0, 1000)),
))
@example(spec=GraphSpec.ring(100))
@example(spec=GraphSpec.torus(10, 2))
def test_meeting_matches_the_pair_chain_lu(spec):
    # the eigendecomposition against the sparse LU over the n(n-1)/2 pairs
    g = generate(spec)
    table = an.mean_meeting_times(g).entry
    want = reference_loops.mean_meeting_times(g).entry
    assert np.abs(table - want).max() <= 1e-10 * want.max()
    assert np.array_equal(table, table.T)
    assert not np.diag(table).any()


def test_alpha_stops_its_poisson_sum_once_every_survival_is_below_the_tail(monkeypatch):
    # S is substochastic, so once every entry of S^j 1 is at most e^-50 the
    # rest of the sum adds at most that: the sum stops at the first such j
    # instead of running all J = ceil(2s + 10 sqrt(2s) + 40) products
    g = generate(GraphSpec.ring(8))
    x, y, step = an._pair_chain(g)
    maxima = []

    class CountingStep:
        def __matmul__(self, v):
            out = step @ v
            maxima.append(out.max())
            return out

    monkeypatch.setattr(an, "_pair_chain", lambda g: (x, y, CountingStep()))
    for s, products, stopped in ((60.0, 270, False), (300.0, 634, True)):
        maxima.clear()
        est = an.estimate_alpha(g, range(8), s)
        assert len(maxima) == products
        assert all(m > math.exp(-50) for m in maxima[:-1])
        assert bool(maxima[-1] <= math.exp(-50)) is stopped
    assert est.alpha_hat == 1.0  # at s = 300, 885 products would give the same


def test_meeting_residual_above_tolerance_raises(monkeypatch):
    monkeypatch.setattr(an, "RESIDUAL_TOL", 0.0)
    with pytest.raises(an.SolverError, match="meeting-time residual"):
        an.mean_meeting_times(generate(GraphSpec.rgg(25, seed=4)))


@pytest.mark.parametrize("solve, what", [
    (an.mean_hitting_times, "the hitting-time solve"),
    (an.mean_meeting_times, "the meeting-time solve"),
    (an.resistance_report, "the resistance table"),
], ids=["hitting", "meeting", "resistance"])
@pytest.mark.parametrize("g", [
    Graph(3, [0, 1, 2, 2], [1, 0], "hand", 0),  # a node without edges
    Graph(4, [0, 1, 2, 3, 4], [1, 0, 3, 2], "hand", 0),  # two K2
], ids=["isolated_node", "two_k2"])
def test_exact_solves_refuse_a_disconnected_graph(g, solve, what):
    # walks never meet or hit across components, so no finite table exists;
    # unguarded, a solve can still return one, or an inf table with a nan residual
    with pytest.raises(ValueError, match=rf"^{what} needs a connected graph, not one of 2 components$"):
        solve(g)


@pytest.mark.parametrize("solve", [an.mean_hitting_times, an.mean_meeting_times,
                                   an.resistance_report],
                         ids=["hitting", "meeting", "resistance"])
def test_residual_checks_fail_on_nan(monkeypatch, solve):
    # every check reads "not residual <= tolerance", which a nan fails
    monkeypatch.setattr(an, "RESIDUAL_TOL", math.nan)
    with pytest.raises(an.SolverError):
        solve(generate(GraphSpec.ring(6)))


# -- alpha estimates -------------------------------------------------------------


def test_alpha_zero_horizon():
    g = generate(GraphSpec.ring(6))
    est = an.estimate_alpha(g, range(6), 0.0)
    assert est.alpha_hat == 0.0


def test_alpha_k2_exponential():
    est = an.estimate_alpha(generate(GraphSpec.clique(2)), [0, 1], 0.5)
    assert est.alpha_hat == pytest.approx(1 - math.exp(-1), rel=1e-12)


def test_alpha_markov_lower_bound():
    # alpha_s(V) >= 1 - sigma/s at s = 2*sigma
    g = generate(GraphSpec.ring(8))
    sigma = an.worst_case_hitting(g)
    est = an.estimate_alpha(g, range(8), 2 * sigma)
    assert est.alpha_hat >= 0.5


@pytest.mark.parametrize("n", range(2, 9))
def test_alpha_clique_closed_form(n):
    # two walks on a clique meet at rate 2/(n-1)
    g = generate(GraphSpec.clique(n))
    for s in (0.1, 1.0, 5.0):
        est = an.estimate_alpha(g, range(n), s)
        assert est.alpha_hat == pytest.approx(1 - math.exp(-2 * s / (n - 1)), rel=1e-12)


@pytest.mark.parametrize("spec, pair, s, stream", [
    (GraphSpec.ring(20), (0, 3), 4.0, 20),
    (GraphSpec.torus(5, 2), (0, 6), 3.0, 21),
    (GraphSpec.rgg(25, seed=3), (0, 7), 2.0, 22),
])
def test_alpha_matches_the_coalescing_walk(spec, pair, s, stream):
    # two tokens started on a pair survive as 2 - 1{met by s}
    g = generate(spec)
    alpha = an.estimate_alpha(g, pair, s)
    lam = an.coalescing_oracle(g, pair, [s], trials=4000, stream=stream)[0]
    assert 0.1 < alpha.alpha_hat < 0.9
    assert abs(alpha.alpha_hat - (2 - lam.mean)) <= 4 * lam.stderr
    assert alpha.argmin_pair == pair


def test_alpha_is_deterministic_and_leaves_the_global_rng_alone():
    g = generate(GraphSpec.torus(4, 2))
    state = np.random.get_state()
    first, second = (an.estimate_alpha(g, range(16), 7.0) for _ in range(2))
    assert first == second
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]


@pytest.mark.parametrize("a, s", [
    ([0, 1], -1.0), ([0, 1], math.nan), ([0, 1], math.inf),
    ([0, 8], 1.0), ([-1, 0], 1.0), ([3, 3], 1.0),
])
def test_alpha_rejects_bad_input(a, s):
    with pytest.raises(ValueError):
        an.estimate_alpha(generate(GraphSpec.ring(8)), a, s)


def test_alpha_cap_names_the_node_count():
    with pytest.raises(an.SolverError, match="100 nodes"):
        an.estimate_alpha(generate(GraphSpec.ring(101)), [0, 1], 1.0)


# -- cover times -------------------------------------------------------------


def cover_times(spec, trials, stream, clock=Continuous()):
    """Cover times from node 0: an SRW trial ends when its token has visited every node."""
    g = generate(spec)
    return np.array([
        run(init("srw", g, [0] * g.n, sum_fusion(), params={"origin": 0}, seed=stream,
                 clock=clock, stream_id=i), Termination()).tau
        for i in range(trials)
    ])


def test_cover_clique3_discrete():
    assert abs(cover_times(GraphSpec.clique(3), 8000, 8, SynchronousDiscrete(0.0)).mean() - 3.0) \
        <= 0.05 * 3.0


def test_cover_ring2():
    assert set(cover_times(GraphSpec.ring(2), 50, 9, SynchronousDiscrete(0.0))) == {1.0}


def test_cover_ring16_quadratic_law():
    # cycle cover time is n(n-1)/2 exactly
    assert 0.9 <= cover_times(GraphSpec.ring(16), 3000, 10).mean() / (16 * 15 / 2) <= 1.1


# -- decay curves -------------------------------------------------------------


def test_decay_initial_value_and_monotonicity():
    g = generate(GraphSpec.clique(16))
    dc = an.estimate_decay(g, trials=60, stream=11)
    assert dc.n_hat[0] == 16.0
    assert np.all(np.diff(dc.n_hat) <= 1e-12)
    assert np.all(dc.n_hat >= 1.0)
    assert np.all(np.diff(dc.m_hat) >= -1e-12)


def exact_clique_token_curve(n, times):
    # brute-force oracle: matrix exponential of the death chain with
    # level rates k(k-1)/(n-1)
    from scipy.linalg import expm

    q = np.zeros((n + 1, n + 1))
    for k in range(2, n + 1):
        rate = k * (k - 1) / (n - 1)
        q[k, k] = -rate
        q[k, k - 1] = rate
    p0 = np.zeros(n + 1)
    p0[n] = 1.0
    ks = np.arange(n + 1)
    return [float(ks @ (expm(q.T * t) @ p0)) for t in times]


def test_decay_k2_closed_form():
    # two tokens race at rate 2: N(t) = 1 + exp(-2t) exactly
    g = generate(GraphSpec.clique(2))
    dc = an.estimate_decay(g, trials=3000, stream=12)
    for t, n_hat, se in zip(dc.grid, dc.n_hat, dc.n_se):
        assert abs(n_hat - (1 + math.exp(-2 * t))) <= max(4 * se, 0.02)


def test_decay_clique50_matches_death_chain():
    g = generate(GraphSpec.clique(50))
    dc = an.estimate_decay(g, trials=400, stream=12)
    probes = [1.0, 5.0, 20.0]
    exact = exact_clique_token_curve(50, probes)
    for t, ref in zip(probes, exact):
        i = int(np.searchsorted(dc.grid, t, side="right")) - 1
        # compare at the grid point just below t against the oracle there
        ref_at_grid = exact_clique_token_curve(50, [dc.grid[i]])[0]
        assert abs(dc.n_hat[i] - ref_at_grid) <= max(4 * dc.n_se[i], 0.05 * ref_at_grid)
    # expected-count crossing time agrees with the exact curve
    t25, lo = dc.t_gamma(25.0)
    exact_cross = None
    grid = np.linspace(0.5, 2.0, 400)
    for t, v in zip(grid, exact_clique_token_curve(50, grid)):
        if v <= 25.0:
            exact_cross = t
            break
    assert lo <= exact_cross * 1.1 and t25 >= exact_cross * 0.9


def test_decay_t_gamma_brackets():
    g = generate(GraphSpec.clique(8))
    dc = an.estimate_decay(g, trials=80, stream=13)
    t, lo = dc.t_gamma(4.0)
    assert lo <= t
    n_at, m_at = dc.at(t)
    assert n_at <= 4.0
    assert m_at >= 0.0


def test_decay_discrete_mode():
    g = generate(GraphSpec.torus(3, 2))
    dc = an.estimate_decay(g, trials=40, stream=14, lazy_prob=0.5)
    assert dc.discrete
    assert dc.n_hat[0] == 9.0
    assert np.all(np.diff(dc.m_hat) >= -1e-12)


@st.composite
def rounds_decay_cases(draw):
    """A graph, a lazy probability (1/2, 0.9, or 0 where the graph is not
    bipartite, which a lazy-0 run to termination refuses), trials and a seed."""
    g = generate(draw(st.one_of(
        st.builds(GraphSpec.ring, st.integers(2, 30)),
        st.builds(GraphSpec.torus, st.integers(3, 5)),
        st.builds(GraphSpec.grid2d, st.integers(2, 5)),
        st.builds(GraphSpec.clique, st.integers(1, 9)),
        st.builds(GraphSpec.rgg, st.integers(2, 30), seed=st.integers(0, 1000)),
        st.builds(GraphSpec.random_regular, st.integers(5, 20).map(lambda h: 2 * h),
                  st.sampled_from([3, 4]), seed=st.integers(0, 1000)),
    )))
    lazy = [0.5, 0.9] + ([0.0] if g._two_colouring is None else [])
    return g, draw(st.sampled_from(lazy)), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=rounds_decay_cases())
def test_decay_rounds_messages_match_the_per_round_sums(case):
    # the counts change only at whole rounds, so the step integral up to one
    # round past each grid round is the per-round sum, exactly
    g, lazy, trials, seed = case
    dc = an.estimate_decay(g, trials, stream=seed, lazy_prob=lazy)
    m_hat, m_se = reference_loops.decay_messages_in_rounds(g, trials, seed, lazy)
    assert np.array_equal(dc.m_hat, m_hat) and np.array_equal(dc.m_se, m_se)


def test_decay_csv(tmp_path):
    g = generate(GraphSpec.clique(4))
    dc = an.estimate_decay(g, trials=20, stream=15)
    f = tmp_path / "decay.csv"
    dc.write_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,N_hat,stderr,M_hat"
    assert len(lines) == len(dc.grid) + 1


# -- coalescence bounds ---------------------------------------------------------


def test_coalescing_oracle_time_zero_and_monotone():
    g = generate(GraphSpec.clique(5))
    ests = an.coalescing_oracle(g, range(5), [0.0, 1.0, 2.0], trials=400, stream=16)
    assert ests[0].mean == 5.0
    assert ests[0].mean >= ests[1].mean >= ests[2].mean


@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_estimates_refuse_fewer_than_one_trial(trials):
    # zero trials used to give an all-NaN decay curve, and negative ones
    # numpy's "negative dimensions are not allowed"
    g = generate(GraphSpec.grid2d(4))
    with pytest.raises(ValueError, match=rf"^decay estimate needs trials >= 1, not {trials}$"):
        an.estimate_decay(g, trials=trials)
    with pytest.raises(ValueError, match=rf"^coalescing oracle needs trials >= 1, not {trials}$"):
        an.coalescing_oracle(g, range(4), [1.0], trials=trials)


def test_one_trial_estimates_give_zero_stderr():
    # the oracle follows estimate_decay: one trial has no spread to estimate
    g = generate(GraphSpec.clique(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = an.coalescing_oracle(g, range(5), [0.0, 1.0], trials=1, stream=16)
        dc = an.estimate_decay(g, trials=1, stream=16)
    assert [e.stderr for e in ests] == [0.0, 0.0] and [e.trials for e in ests] == [1, 1]
    assert ests[0].mean == 5.0
    assert not dc.n_se.any() and not dc.m_se.any()


def test_car_bound_k5():
    # E|Lambda_B(s)| <= |B| - (|B|-1) alpha_s(B) within the oracle's MC error
    g = generate(GraphSpec.clique(5))
    for s in (0.5, 1.0, 2.0):
        lam = an.coalescing_oracle(g, range(5), [s], trials=3000, stream=17)[0]
        alpha = an.estimate_alpha(g, range(5), s)
        rhs = 5 - 4 * alpha.alpha_hat
        assert lam.mean <= rhs + 3 * lam.stderr


def test_partition_superadditivity_pathwise():
    # |Lambda_B(s)| <= sum_j |Lambda_{B_j}(s)| in the mean (MC, common stream)
    g = generate(GraphSpec.ring(8))
    whole = an.coalescing_oracle(g, range(8), [2.0], trials=2500, stream=19)[0]
    left = an.coalescing_oracle(g, range(4), [2.0], trials=2500, stream=19)[0]
    right = an.coalescing_oracle(g, range(4, 8), [2.0], trials=2500, stream=19)[0]
    combined_se = whole.stderr + left.stderr + right.stderr
    assert whole.mean <= left.mean + right.mean + 3 * combined_se


# -- heat-kernel bound ----------------------------------------------------------


def test_gaussian_bound_positive_at_t1():
    g = generate(GraphSpec.torus(5, 2))
    rep = an.check_gaussian_bound(g, t_max=10)
    assert rep.feasible
    assert rep.c3 > 0 and rep.c4 > 0
    assert rep.violations == []


def test_gaussian_bound_certifies_lower_bound():
    # spot-check the fitted constants against the actual kernels
    g = generate(GraphSpec.torus(5, 2))
    rep = an.check_gaussian_bound(g, t_max=12)
    from tokengossip.analysis import _transition_matrix
    from tokengossip.graph import distances_from

    n = g.n
    p = 0.5 * _transition_matrix(g) + 0.5 * np.eye(n)
    pt = p.copy()
    for t in range(1, 13):
        pt1 = pt @ p
        dist = np.vstack([distances_from(g, u) for u in range(n)])
        mask = (dist >= 1) & (dist <= t)
        lhs = (rep.c3 / t) * np.exp(-(dist[mask] ** 2) / (rep.c4 * t))
        assert np.all(lhs <= (pt + pt1)[mask] + 1e-12)
        pt = pt1


def test_gaussian_bound_size_cap():
    with pytest.raises(an.SolverError):
        an.check_gaussian_bound(generate(GraphSpec.ring(2600)), 5)


def test_gaussian_bound_needs_a_step():
    with pytest.raises(ValueError, match="t_max >= 1"):
        an.check_gaussian_bound(generate(GraphSpec.ring(6)), 0)


@pytest.mark.parametrize("t_max, lazy_prob, message", [
    (5, math.nan, "0 <= lazy_prob <= 1, not nan"),
    (5, 1.5, "0 <= lazy_prob <= 1, not 1.5"),
    (5, -0.5, "0 <= lazy_prob <= 1, not -0.5"),
    (5, "0.5", "0 <= lazy_prob <= 1, not '0.5'"),
    (2.5, 0.5, "an integer t_max, not 2.5"),
    (True, 0.5, "an integer t_max, not True"),
    ("3", 0.5, "an integer t_max, not '3'"),
])
def test_gaussian_bound_refuses_what_is_not_a_walk_or_a_step_count(t_max, lazy_prob, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        an.check_gaussian_bound(generate(GraphSpec.ring(6)), t_max, lazy_prob)
    assert "\n" not in str(err.value)


def test_gaussian_bound_refuses_a_graph_without_edges():
    with pytest.raises(ValueError, match="needs a graph with an edge"):
        an.check_gaussian_bound(Graph(3, [0, 0, 0, 0], np.zeros(0, dtype=int), "edges", 0), 4)


def test_gaussian_bound_takes_numpy_integers_and_both_ends_of_the_lazy_range():
    g = generate(GraphSpec.ring(6))
    assert an.check_gaussian_bound(g, np.int64(3)) == an.check_gaussian_bound(g, 3)
    assert an.check_gaussian_bound(g, 3, lazy_prob=0).feasible
    # P = I, so every constraint fails: 12 pairs at d = 1, 12 at d = 2, 6 at d = 3
    stay = an.check_gaussian_bound(g, 3, lazy_prob=1)
    assert not stay.feasible and len(stay.violations) == 12 + 24 + 30


@st.composite
def gaussian_cases(draw):
    """A graph, a t_max from 1 to past its diameter, and a lazy probability:
    0 (on bipartite rings, grids and even tori too), 1/2, 1 (every
    constraint fails), just below 1 (the far ones underflow to 0) or any."""
    spec = draw(st.one_of(
        st.builds(GraphSpec.ring, st.integers(2, 70)),
        st.builds(GraphSpec.torus, st.integers(3, 7)),
        st.builds(GraphSpec.grid2d, st.integers(2, 7)),
        st.builds(GraphSpec.clique, st.integers(2, 9)),
        st.builds(GraphSpec.rgg, st.integers(2, 60), seed=st.integers(0, 1000)),
        st.builds(GraphSpec.random_regular, st.integers(5, 40), st.just(4),
                  seed=st.integers(0, 1000)),
    ))
    g = generate(spec)
    t_max = draw(st.integers(1, int(g._hops.max()) + 3))
    lazy_prob = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1 - 2**-52, 1 - 2**-40]),
                               st.floats(0.0, 1.0)))
    return g, t_max, lazy_prob


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=gaussian_cases())
@example(case=(generate(GraphSpec.ring(8)), 6, 0.0))
@example(case=(generate(GraphSpec.grid2d(5)), 9, 0.0))
@example(case=(generate(GraphSpec.ring(60)), 30, 1 - 2**-52))
@example(case=(generate(GraphSpec.torus(4, 2)), 3, 1.0))
def test_gaussian_bound_matches_the_two_pass_reference(case):
    # repr spells every float exactly, so equal reprs are equal bits
    g, t_max, lazy_prob = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exp overflows as c4 -> 0
        got = an.check_gaussian_bound(g, t_max, lazy_prob)
        want = reference_loops.check_gaussian_bound(g, t_max, lazy_prob)
    assert repr(got) == repr(want)


def test_gaussian_bound_lets_no_overflow_warning_escape():
    # near lazy_prob = 1 the fitted c4 is tiny and c3's exp(d^2 / (t c4))
    # overflows to inf, which the report absorbs without a warning
    g = generate(GraphSpec.ring(40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an.check_gaussian_bound(g, 30, 1 - 2**-52)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference_loops.check_gaussian_bound(g, 30, 1 - 2**-52)
    assert got.feasible and repr(got) == repr(want)


def test_gaussian_bound_memory_does_not_grow_with_t_max():
    import tracemalloc

    g = generate(GraphSpec.torus(16, 2))
    peaks = []
    for t_max in (10, 40):
        tracemalloc.start()
        an.check_gaussian_bound(g, t_max=t_max)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_gaussian_bound_memory_does_not_grow_with_t_max_on_fresh_graphs():
    # each call builds the graph's distance table, as a first call does
    import tracemalloc

    peaks = []
    for t_max in (10, 40):
        g = generate(GraphSpec.torus(16, 2))
        tracemalloc.start()
        an.check_gaussian_bound(g, t_max=t_max)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# -- regularity bundle -----------------------------------------------------------


def test_regularity_report_skips_the_gaussian_constants_above_the_cap():
    rep = an.regularity_report(generate(GraphSpec.ring(an.GAUSSIAN_MAX_NODES + 1)), t_max=5)
    assert rep.c3 is None and rep.c4 is None and rep.gaussian_pass is None
    assert rep.c0 > 0 and rep.c8 > 0


def test_distance_calls_do_not_grow_with_the_graph(monkeypatch):
    import tokengossip.graph as graph_module

    real = graph_module.distances_from
    calls = []

    def counted(g, sources):
        calls.append(sources)
        return real(g, sources)

    monkeypatch.setattr(graph_module, "distances_from", counted)
    monkeypatch.setattr(an, "distances_from", counted)
    per_side = []
    for side in (8, 12):
        g = generate(GraphSpec.grid2d(side))
        calls.clear()
        an.regularity_report(g, t_max=8)
        report_calls = len(calls)
        calls.clear()
        an.check_gaussian_bound(g, t_max=8)
        per_side.append((report_calls, len(calls)))
    (report8, gauss8), (report12, gauss12) = per_side
    assert report12 <= report8 and gauss12 <= gauss8


def test_regularity_report_grid():
    g = generate(GraphSpec.grid2d(8))
    rep = an.regularity_report(g, t_max=10)
    assert rep.growth_pass
    assert rep.c0 > 0 and rep.c5 > 0
    assert rep.c8 is not None and rep.c8 > 0
    assert rep.gaussian_pass


def test_regularity_flags():
    rep = an.regularity_report(generate(GraphSpec.grid2d(8)), t_max=8)
    assert rep.doubling_pass
    assert rep.isoperimetry_pass
