import itertools
import math

import numpy as np
import pytest

from tokengossip.graph import (
    Graph,
    GraphFileError,
    GraphGenerationError,
    GraphSpec,
    ball,
    check_geometric_neighborhood,
    check_isoperimetry,
    check_volume_doubling,
    diameter,
    distances_from,
    eccentricity,
    generate,
    is_connected,
    load_graph,
    save_graph,
)
from tokengossip.graph import _build


def path_graph(n: int) -> Graph:
    adj = tuple(
        tuple(v for v in (i - 1, i + 1) if 0 <= v < n) for i in range(n)
    )
    return Graph(n=n, adjacency=adj, kind="path", seed=0)


def test_clique_shape():
    g = generate(GraphSpec.clique(5))
    assert g.m == 10
    assert all(d == 4 for d in g.degrees)


def test_torus_shape():
    g = generate(GraphSpec.torus(3, 2))
    assert g.n == 9
    assert all(d == 4 for d in g.degrees)
    assert g.m == 18


def test_ring_edges():
    g = generate(GraphSpec.ring(4))
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_grid_degree_formula():
    side = 5
    g = generate(GraphSpec.grid2d(side))
    for y in range(side):
        for x in range(side):
            d = g.degrees[y * side + x]
            on_edge = (x in (0, side - 1)) + (y in (0, side - 1))
            assert d == 4 - on_edge


def test_rgg_generator_self_checks():
    g = generate(GraphSpec.rgg(200, seed=7))
    assert is_connected(g)
    assert min(g.degrees) >= 1
    assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in g.coords)


def test_adjacency_symmetric_no_self_edges():
    for spec in (
        GraphSpec.clique(6),
        GraphSpec.ring(9),
        GraphSpec.torus(4, 2),
        GraphSpec.grid2d(4),
        GraphSpec.rgg(64, seed=3),
        GraphSpec.random_regular(20, 4, seed=1),
    ):
        g = generate(spec)
        for u in range(g.n):
            assert u not in g.adjacency[u]
            assert len(set(g.adjacency[u])) == len(g.adjacency[u])
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
        assert is_connected(g)


def test_random_regular_degrees():
    g = generate(GraphSpec.random_regular(30, 6, seed=9))
    assert all(d == 6 for d in g.degrees)


def test_generators_reject_bad_params():
    with pytest.raises(ValueError):
        generate(GraphSpec.torus(2, 2))
    with pytest.raises(ValueError):
        generate(GraphSpec.ring(1))
    with pytest.raises(ValueError):
        generate(GraphSpec.random_regular(9, 3, seed=0))  # odd n*d
    with pytest.raises(GraphGenerationError):
        # radius far below the connectivity threshold cannot connect
        generate(GraphSpec.rgg(100, seed=1, radius=0.01))


@pytest.mark.parametrize("fields", [
    {"kind": "clique", "n": 0},
    {"kind": "ring", "n": 1},
    {"kind": "torus", "side": 2},
    {"kind": "torus", "side": 4, "dim": -1},
    {"kind": "grid2d", "side": 1},
    {"kind": "rgg", "n": 1},
    {"kind": "rgg", "n": 30, "radius": -1.0},
    {"kind": "rgg", "n": 30, "radius": math.inf},
    {"kind": "random_regular", "n": 8, "degree": 8},
    {"kind": "random_regular", "n": 8, "degree": 0},
    {"kind": "random_regular", "n": 9, "degree": 3},
], ids=str)
def test_graph_spec_checks_sizes_when_made(fields):
    with pytest.raises(ValueError):
        GraphSpec(**fields)


def test_identical_spec_identical_graph():
    a = generate(GraphSpec.rgg(80, seed=21))
    b = generate(GraphSpec.rgg(80, seed=21))
    assert a == b
    c = generate(GraphSpec.random_regular(24, 4, seed=5))
    d = generate(GraphSpec.random_regular(24, 4, seed=5))
    assert c == d


def torus_distance_oracle(side, u, v):
    # Manhattan distance with per-axis wraparound
    ux, uy = u % side, u // side
    vx, vy = v % side, v // side
    dx = min(abs(ux - vx), side - abs(ux - vx))
    dy = min(abs(uy - vy), side - abs(uy - vy))
    return dx + dy


def test_graph_distance():
    g = generate(GraphSpec.ring(6))
    assert distances_from(g, 0)[3] == 3
    assert distances_from(g, 2)[2] == 0
    t = generate(GraphSpec.torus(5, 2))
    for u in range(t.n):
        dist = distances_from(t, u)
        for v in range(t.n):
            assert dist[v] == torus_distance_oracle(5, u, v)


def test_distances_closed_forms():
    n = 11
    i, j = np.indices((n, n))
    ring_dist = np.minimum(abs(i - j), n - abs(i - j))
    assert np.array_equal(distances_from(generate(GraphSpec.ring(n)), range(n)), ring_dist)
    side = 5
    u, v = np.indices((side * side, side * side))
    manhattan = abs(u % side - v % side) + abs(u // side - v // side)
    assert np.array_equal(distances_from(generate(GraphSpec.grid2d(side)), range(side * side)),
                          manhattan)
    assert np.array_equal(distances_from(generate(GraphSpec.clique(6)), range(6)),
                          1 - np.eye(6, dtype=np.int64))


def test_distances_unreachable_is_minus_one():
    g = _build(5, [(0, 1), (2, 3)], "pairs", 0)
    assert distances_from(g, 0).tolist() == [0, 1, -1, -1, -1]
    assert distances_from(g, [3, 4]).tolist() == [[-1, -1, 1, 0, -1], [-1, -1, -1, -1, 0]]


def test_distances_many_sources_stack_single_rows():
    g = generate(GraphSpec.rgg(60, seed=13))
    sources = [5, 0, 17, 5]
    table = distances_from(g, sources)
    assert table.dtype == np.int64 and distances_from(g, 5).dtype == np.int64
    assert np.array_equal(table, np.vstack([distances_from(g, u) for u in sources]))


def test_ball_examples():
    t = generate(GraphSpec.torus(5, 2))
    assert ball(t, 7, 0) == set()
    assert ball(t, 7, 1) == {7}
    b2 = ball(t, 7, 2)
    assert b2 == {7} | set(t.adjacency[7])
    assert len(b2) == 5


def test_ball_monotone_and_saturates():
    g = generate(GraphSpec.grid2d(4))
    d = diameter(g)
    for u in (0, 5, 15):
        prev = set()
        for r in range(0, d + 3):
            b = ball(g, u, r)
            assert prev <= b
            prev = b
        assert len(ball(g, u, d + 1)) == g.n


def test_diameter_examples():
    assert diameter(generate(GraphSpec.ring(8))) == 4
    assert diameter(generate(GraphSpec.clique(9))) == 1
    assert diameter(generate(GraphSpec.torus(5, 2))) == 4
    assert eccentricity(generate(GraphSpec.ring(6)), 0) == 3


def test_triangle_inequality_sampled():
    g = generate(GraphSpec.rgg(60, seed=13))
    rng = np.random.default_rng(0)
    for _ in range(60):
        u, v, w = rng.integers(g.n, size=3)
        duv = distances_from(g, int(u))[v]
        dvw = distances_from(g, int(v))[w]
        duw = distances_from(g, int(u))[w]
        assert 0 <= duw <= duv + dvw


def test_growth_ring_fails_quadratic():
    rep = check_geometric_neighborhood(generate(GraphSpec.ring(12)))
    # 1-d balls grow linearly: |B(u,R)| = 2R-1 < R^2 already at moderate R
    assert rep.c0_best < 1.0
    u, R = rep.c0_argmin
    g = generate(GraphSpec.ring(12))
    assert len(ball(g, u, R)) == rep.c0_best * R * R


def test_growth_grid_passes():
    rep = check_geometric_neighborhood(generate(GraphSpec.grid2d(16)))
    assert rep.passed
    assert rep.c0_best >= 0.5


def test_growth_clique_degenerate():
    rep = check_geometric_neighborhood(generate(GraphSpec.clique(10)))
    assert rep.passed
    assert rep.c0_best == pytest.approx(10 / 4)


def test_volume_doubling():
    assert check_volume_doubling(generate(GraphSpec.grid2d(16))) <= 8.0
    assert check_volume_doubling(generate(GraphSpec.clique(8))) == 1.0
    assert check_volume_doubling(generate(GraphSpec.ring(12))) <= 3.0


def brute_force_isoperimetry(adj, radius):
    # independent oracle: enumerate every 2-partition of the subgraph
    k = len(adj)
    deg = [len(a) for a in adj]
    best = math.inf
    for size in range(1, k):
        for s in itertools.combinations(range(k), size):
            s = set(s)
            cut = sum(1 for i in s for j in adj[i] if j not in s)
            vol_s = sum(deg[i] for i in s)
            vol_c = sum(deg) - vol_s
            if min(vol_s, vol_c) > 0:
                best = min(best, radius * cut / min(vol_s, vol_c))
    return best


def test_isoperimetry_path():
    g = path_graph(4)
    # ball of radius 3 around node 1 is the whole 4-path; the minimizing
    # partition cuts the middle edge with min side volume 1+2=3
    cert = check_isoperimetry(g, 1, 3)
    assert cert.mode == "exact"
    assert cert.value == pytest.approx(3 * (1 / 3))
    assert cert.value == pytest.approx(
        brute_force_isoperimetry([[1], [0, 2], [1, 3], [2]], 3)
    )


def test_isoperimetry_clique():
    g = generate(GraphSpec.clique(4))
    cert = check_isoperimetry(g, 0, 2)
    assert cert.value >= 1.0
    oracle = brute_force_isoperimetry([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], 2)
    assert cert.value == pytest.approx(oracle)


@pytest.mark.parametrize("spec", [
    GraphSpec.ring(12),
    GraphSpec.grid2d(5),
    GraphSpec.torus(4, 2),
    # at the default radius (0.43) rgg 40 has degrees 19 to 28, so no ball
    # past the singleton holds 12 nodes; at 0.22 the degrees stay <= 10
    GraphSpec.rgg(40, radius=0.22, seed=3),
    GraphSpec.random_regular(30, 4, seed=2),
], ids=lambda s: s.kind)
def test_isoperimetry_is_exact_on_every_small_ball(spec):
    g = generate(spec)
    for u, row in enumerate(distances_from(g, range(g.n))):
        # the largest radius whose ball (d < radius) holds at most 12 nodes
        radius = int((np.bincount(row).cumsum() <= 12).sum())
        assert radius >= 2
        nodes = sorted(ball(g, u, radius))
        index = {v: i for i, v in enumerate(nodes)}
        adj = [[index[w] for w in g.adjacency[v] if w in index] for v in nodes]
        cert = check_isoperimetry(g, u, radius)
        assert cert.mode == "exact"
        assert cert.value == brute_force_isoperimetry(adj, radius)


def test_isoperimetry_degenerate_ball():
    g = generate(GraphSpec.ring(6))
    with pytest.raises(ValueError):
        check_isoperimetry(g, 0, 1)  # single-node ball


def test_isoperimetry_sweep_upper_bounds():
    g = generate(GraphSpec.grid2d(8))
    cert = check_isoperimetry(g, 27, 4)  # 25-node ball: sweep mode
    assert cert.mode == "sweep"
    assert cert.value > 0


def test_file_round_trip(tmp_path):
    for spec in (GraphSpec.torus(4, 2), GraphSpec.rgg(50, seed=2)):
        g = generate(spec)
        p = tmp_path / "g.graph"
        save_graph(g, p)
        h = load_graph(p)
        assert h == g
        p2 = tmp_path / "g2.graph"
        save_graph(h, p2)
        assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text", [
    "4 4 ring 0\n0 1\n1 2\n2 3\n3 4\n",  # endpoint >= n
    "4 4 ring 0\n0 1\n1 2\n2 3\n3 -1\n",  # negative endpoint
    "4 4 ring 0\n0 1\n1 2\n2 0\n",  # header m above the edge lines: node 3 isolated
    "4 2 pairs 0\n0 1\n2 3\n",  # two components
    "4 3 tri 0\n0 1\n1 2\n0 2\n",  # enough edges, node 3 isolated
    "3 3 loop 0\n0 1\n1 2\n2 2\n",  # self-loop
    "3 3 dup 0\n0 1\n1 2\n2 1\n",  # the same edge twice
    "",  # no header
    "3 2 path 0\n0 1\n1 2\nc 0.1 0.2\nc 0.3 0.4\n",  # two coordinate lines for 3 nodes
    "2 1 pair 0\n0 1\nc 0.1 0.2\nd 0.3 0.4\n",  # coordinate line tagged d
    "2 1 pair 0\n0 1\nc 0.1 0.2\nc 0.3\n",  # coordinate line without y
    "3 2 path 0\n0 1\n1 2 7\n",  # edge line with three fields
    "3 2 path 0\n0 1\n1\n",  # edge line with one field
    "3 2 path 0\n0 x\n1 2\n",  # non-integer endpoint
    "3 2.0 path 0\n0 1\n1 2\n",  # non-integer edge count
    "3 2 path s\n0 1\n1 2\n",  # non-integer seed
    "0 0 none 0\n",  # no nodes
], ids=["endpoint-n", "endpoint-neg", "short-edge-block", "disconnected",
        "disconnected-enough-edges", "self-loop", "duplicate-edge", "empty",
        "short-coord-block", "coord-tag", "coord-fields", "edge-3-fields", "edge-1-field",
        "edge-not-int", "header-m-not-int", "header-seed-not-int", "no-nodes"])
def test_load_graph_rejects_malformed_files(tmp_path, text):
    p = tmp_path / "bad.graph"
    p.write_text(text)
    with pytest.raises(GraphFileError):
        load_graph(p)


def test_load_graph_names_the_bad_line(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("3 2 path 0\n0 1\n1 2 7\n")
    with pytest.raises(GraphFileError, match="line 3 must read 'u v', not '1 2 7'"):
        load_graph(p)


def test_load_graph_checks_the_edge_count_before_building(tmp_path):
    # a connected graph on n nodes needs n - 1 edges: the header alone
    # rules this file out, however large n is
    p = tmp_path / "few.graph"
    p.write_text("5 1 x 0\n0 1\n")
    with pytest.raises(GraphFileError, match="on 5 nodes needs at least 4 edges, not 1"):
        load_graph(p)
