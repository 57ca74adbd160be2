import itertools
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
import reference_loops
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengossip import graph
from tokengossip.analysis import regularity_report
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
    return reference_loops._build(n, [(i, i + 1) for i in range(n - 1)], "path", 0)


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
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


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
        nbr = reference_loops.neighbours(g)
        for u in range(g.n):
            assert u not in nbr[u]
            assert len(set(nbr[u])) == len(nbr[u])
            for v in nbr[u]:
                assert u in nbr[v]
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
    {"kind": "rgg", "n": 30, "radius": True},
    {"kind": "rgg", "n": 30, "radius": "0.5"},
    {"kind": "random_regular", "n": 8, "degree": 8},
    {"kind": "random_regular", "n": 8, "degree": 0},
    {"kind": "random_regular", "n": 9, "degree": 3},
    {"kind": "ring", "n": 14.5},
    {"kind": "clique", "n": 8.0},
    {"kind": "clique", "n": "8"},
    {"kind": "clique", "n": True},
    {"kind": "torus", "side": 4.0},
    {"kind": "torus", "side": 4, "dim": 2.0},
    {"kind": "rgg", "n": 30, "seed": 1.5},
    {"kind": "random_regular", "n": 8, "degree": 3.0},
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


def assert_same_graph(g: Graph, h: Graph) -> None:
    """Equal graphs, with equal CSR arrays, degrees, edge counts and edges."""
    assert g == h
    for f in ("offsets", "flat", "degrees", "edges"):
        a, b = getattr(g, f), getattr(h, f)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert g.m == h.m


def reference_build(n, edges, *args, **kwargs) -> Graph:
    """``reference_loops._build`` on the same edges, as tuples of ints."""
    return reference_loops._build(n, [tuple(e) for e in np.asarray(edges).tolist()],
                                  *args, **kwargs)


@pytest.mark.parametrize("make, reference, args", [
    (graph.clique, reference_loops.clique, [(n,) for n in range(1, 131)]),
    (graph.ring, reference_loops.ring, [(n,) for n in range(2, 301)]),
    (graph.torus, reference_loops.torus,
     [(side, dim) for dim in (1, 2, 3) for side in range(3, 34)]),
    (graph.grid2d, reference_loops.grid2d, [(side,) for side in range(2, 34)]),
], ids=["clique", "ring", "torus", "grid2d"])
def test_lattice_generators_match_the_reference_loops(make, reference, args):
    for a in args:
        assert_same_graph(make(*a), reference(*a))


@pytest.mark.parametrize("spec", [
    *(GraphSpec.rgg(n, seed=seed) for n in (2, 9, 100, 600) for seed in (0, 1, 2)),
    GraphSpec.rgg(50, seed=4, radius=1.5),
    GraphSpec.rgg(120, seed=5, radius=0.3),
    *(GraphSpec.random_regular(n, d, seed=seed)
      for n, d in ((4, 3), (20, 4), (101, 6)) for seed in (0, 1, 2)),
], ids=str)
def test_random_generators_and_load_graph_match_the_reference_build(spec, tmp_path, monkeypatch):
    g = generate(spec)
    save_graph(g, tmp_path / "g.graph")
    loaded = load_graph(tmp_path / "g.graph")
    monkeypatch.setattr(graph, "_build", reference_build)
    assert_same_graph(g, generate(spec))
    assert_same_graph(loaded, load_graph(tmp_path / "g.graph"))
    assert_same_graph(loaded, g)


@pytest.mark.parametrize("make, message", [
    (lambda: graph.torus(2), "duplicate edge (0,1)"),
    (lambda: graph.ring(1), "self-edge at node 0"),
    (lambda: _build(5, [(0, 1), (1, -1)], "x", 0), "edge (1,-1) has an endpoint outside [0, 5)"),
    (lambda: _build(5, [(2, 2), (0, 5)], "x", 0), "edge (0,5) has an endpoint outside [0, 5)"),
    (lambda: _build(4, [(0, 1), (2, 3), (1, 0), (2, 2)], "x", 0), "duplicate edge (0,1)"),
], ids=["torus-2", "ring-1", "negative-endpoint", "endpoint-n", "duplicate-before-self-edge"])
def test_build_names_the_first_bad_edge(make, message):
    with pytest.raises(GraphGenerationError) as err:
        make()
    assert str(err.value) == message


@st.composite
def edge_lists(draw):
    """n, and distinct edges on [0, n) in either orientation with up to three
    self-edges or repeats of an edge (either way round) put in anywhere."""
    n = draw(st.integers(2, 16))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          unique_by=frozenset, max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(node)
        fault = ((x, x) if not edges or draw(st.booleans())
                 else draw(st.sampled_from(edges))[::draw(st.sampled_from((1, -1)))])
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return n, edges


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=edge_lists())
def test_build_matches_the_reference_loop_on_any_edge_list(case):
    n, edges = case
    outcomes = []
    for build in (_build, reference_loops._build):
        try:
            outcomes.append(build(n, edges, "edges", 0))
        except GraphGenerationError as err:
            outcomes.append(str(err))
    if isinstance(outcomes[1], Graph):
        assert_same_graph(*outcomes)
    else:
        assert outcomes[0] == outcomes[1]


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
    assert b2 == {7} | set(reference_loops.neighbours(t)[7])
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
    nbr = reference_loops.neighbours(g)
    for u, row in enumerate(distances_from(g, range(g.n))):
        # the largest radius whose ball (d < radius) holds at most 12 nodes
        radius = int((np.bincount(row).cumsum() <= 12).sum())
        assert radius >= 2
        nodes = sorted(ball(g, u, radius))
        index = {v: i for i, v in enumerate(nodes)}
        adj = [[index[w] for w in nbr[v] if w in index] for v in nodes]
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


def isoperimetry_outcome(check, g, u, radius) -> str:
    try:
        return repr(check(g, u, radius))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("spec", [
    GraphSpec.clique(2), GraphSpec.clique(9),
    GraphSpec.ring(2), GraphSpec.ring(7), GraphSpec.ring(128),
    GraphSpec.torus(6, 2), GraphSpec.torus(12, 2), GraphSpec.torus(3, 3), GraphSpec.torus(5, 3),
    GraphSpec.grid2d(2), GraphSpec.grid2d(9),
    GraphSpec.rgg(40, radius=0.22, seed=3), GraphSpec.rgg(150, seed=1),
    GraphSpec.random_regular(30, 4, seed=2), GraphSpec.random_regular(150, 4, seed=1),
    # above 2000 nodes the growth and doubling checks sample 64 nodes
    GraphSpec.torus(50, 2), GraphSpec.rgg(2500, seed=0),
], ids=str)
def test_regularity_checkers_match_the_reference_loops(spec):
    g = generate(spec)
    growth = check_geometric_neighborhood(g)
    assert growth.sampled == (g.n > 2000)
    assert repr(growth) == repr(reference_loops.check_geometric_neighborhood(g))
    assert repr(check_volume_doubling(g)) == repr(reference_loops.check_volume_doubling(g))
    # balls from empty and single-node (an error), through exact, to sweep cuts
    outcomes = set()
    centres = np.unique(np.linspace(0, g.n - 1, 5).astype(int)).tolist()
    for u, row in zip(centres, distances_from(g, centres)):
        sizes = np.bincount(row).cumsum()
        for radius in range(-1, int((sizes <= 120).sum()) + 2):
            outcome = isoperimetry_outcome(check_isoperimetry, g, u, radius)
            assert outcome == isoperimetry_outcome(reference_loops.check_isoperimetry, g, u, radius)
            outcomes.add(outcome.split("mode=")[-1])
    assert "isoperimetry needs a ball with at least 2 nodes" in outcomes
    # the largest balls hold more than 120 nodes or all n: above 16 nodes, a sweep cut
    assert ("'sweep')" in outcomes) == (g.n > 16)


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


def test_save_graph_writes_the_pinned_format(tmp_path):
    # the round trips above compare a file with itself; these bytes pin the format
    rgg_text = (
        "12 51 rgg{r=0.6435457313182957} 3\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n0 9\n"
        "0 10\n0 11\n1 3\n1 4\n1 5\n1 6\n1 8\n1 11\n2 3\n2 6\n2 7\n2 8\n2 9\n2 10\n2 11\n"
        "3 4\n3 6\n3 7\n3 8\n3 9\n3 10\n3 11\n4 7\n4 11\n5 6\n5 8\n5 9\n5 10\n5 11\n6 8\n"
        "6 9\n6 10\n6 11\n7 8\n7 10\n7 11\n8 9\n8 10\n8 11\n9 10\n9 11\n10 11\n"
        "c 0.5413696492633944 0.37867835260281935\nc 0.899579830295347 0.6171785083419289\n"
        "c 0.23936203483854612 0.381002787818137\nc 0.29764433350853425 0.514444456611888\n"
        "c 0.6883455359900413 0.861590198843667\nc 0.907566764094316 0.21316732287533535\n"
        "c 0.6445502346764059 0.14712682898265816\nc 0.1693928333108753 0.6408087332336028\n"
        "c 0.48032048482432044 0.21304317186534438\nc 0.4417038942460927 0.054368076457515846\n"
        "c 0.3988827385779017 0.10697798569325667\nc 0.6014912253531555 0.35521233959315257\n")
    torus_text = ("9 18 torus{N=3,d=2} 0\n0 1\n0 2\n0 3\n0 6\n1 2\n1 4\n1 7\n2 5\n2 8\n"
                  "3 4\n3 5\n3 6\n4 5\n4 7\n5 8\n6 7\n6 8\n7 8\n")
    p = tmp_path / "g.graph"
    for g, text in ((graph.rgg(12, seed=3), rgg_text), (graph.torus(3), torus_text)):
        save_graph(g, p)
        assert p.read_text() == text


def test_graph_holds_write_protected_copies_of_its_arrays():
    offsets, flat = np.array([0, 1, 2], dtype=np.int32), np.array([1, 0])
    g = Graph(2, offsets, flat, "pair", 0, coords=[[0, 0], [1, 1]])
    for a in (g.offsets, g.flat, g.coords):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    flat[0] = 5  # the caller's arrays stay writable, and the graph's do not change
    assert g.flat.tolist() == [1, 0]
    assert g.offsets.dtype == g.flat.dtype == np.int64 and g.coords.dtype == np.float64
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)
    with pytest.raises(ValueError, match=r"^coords must have shape \(2, 2\), not \(2,\)$"):
        Graph(2, [0, 1, 2], [1, 0], "pair", 0, coords=[0.5, 0.5])


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_a_pickled_graph_leaves_its_tables_behind_and_comes_back_read_only(protocol):
    # regularity_report caches the all-pairs hop table and the matrices
    g = generate(GraphSpec.torus(30))
    fresh = len(pickle.dumps(g, protocol))
    regularity_report(g, t_max=5)
    data = pickle.dumps(g, protocol)
    assert len(data) == fresh < 50_000
    h = pickle.loads(data)
    assert h == g and h.attempts == g.attempts
    for a in (h.offsets, h.flat):
        assert not a.flags.writeable


@pytest.mark.parametrize("n, offsets, flat, message", [
    (2, [0.0, 1.0, 2.0], [1, 0], "offsets must hold integers, not float64"),
    (2, [0, 1, 2], [True, False], "flat must hold integers, not bool"),
    (2, [0, 2], [1, 0], r"offsets must hold n \+ 1 = 3 entries, not \(2,\)"),
    (2, [1, 2, 3], [1, 0], "offsets must start at 0, not 1"),
    (3, [0, 2, 1, 3], [1, 0, 1], "offsets must not decrease, as they do after node 1"),
    (2, [0, 1, 2], [1, 0, 1], r"offsets end at 2, but flat has shape \(3,\)"),
    (2, [0, 1, 2], [1, -1], r"neighbour -1 lies outside the graph's nodes \[0, 2\)"),
    (2, [0, 1, 2], [2, 0], r"neighbour 2 lies outside the graph's nodes \[0, 2\)"),
], ids=["float-offsets", "bool-flat", "offsets-length", "offsets-start",
        "offsets-decrease", "offsets-end", "neighbour-negative", "neighbour-n"])
def test_graph_refuses_arrays_the_kernel_would_read_past(n, offsets, flat, message):
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        Graph(n, offsets, flat, "bad", 0)
    assert "\n" not in str(err.value)


def test_a_float_neighbour_is_refused_not_truncated():
    # np.fromiter once truncated 1.7 to neighbour 1, while edges kept (0, 1.7)
    # and save_graph wrote a line that load_graph refuses
    with pytest.raises(ValueError, match="flat must hold integers"):
        Graph(n=2, offsets=[0, 1, 2], flat=np.array([1.7, 0]), kind="h", seed=0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(
    st.builds(GraphSpec.clique, st.integers(1, 12)),
    st.builds(GraphSpec.ring, st.integers(3, 30)),
    st.builds(GraphSpec.torus, st.integers(3, 5), st.integers(1, 3)),
    st.builds(GraphSpec.grid2d, st.integers(2, 8)),
    st.builds(GraphSpec.rgg, st.integers(8, 40), seed=st.integers(0, 1000)),
    st.builds(GraphSpec.random_regular, st.integers(5, 15).map(lambda h: 2 * h),
              st.sampled_from([3, 4]), seed=st.integers(0, 1000)),
))
def test_every_generator_kind_round_trips(spec):
    g = generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        p, p2 = Path(tmp, "g.graph"), Path(tmp, "g2.graph")
        save_graph(g, p)
        h = load_graph(p)
        save_graph(h, p2)
        assert h == g
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
    "2 1 pair 0\n0 1\nc 0.1 0.2\nc nan inf\n",  # coordinates that are no numbers
], ids=["endpoint-n", "endpoint-neg", "short-edge-block", "disconnected",
        "disconnected-enough-edges", "self-loop", "duplicate-edge", "empty",
        "short-coord-block", "coord-tag", "coord-fields", "edge-3-fields", "edge-1-field",
        "edge-not-int", "header-m-not-int", "header-seed-not-int", "no-nodes",
        "coord-not-finite"])
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
    p.write_text("2 1 pair 0\n0 1\nc 0.1 -inf\nc 0.3 0.4\n")
    with pytest.raises(GraphFileError, match="line 3: coordinates 'c 0.1 -inf' must be finite"):
        load_graph(p)


def test_load_graph_checks_the_edge_count_before_building(tmp_path):
    # a connected graph on n nodes needs n - 1 edges: the header alone
    # rules this file out, however large n is
    p = tmp_path / "few.graph"
    p.write_text("5 1 x 0\n0 1\n")
    with pytest.raises(GraphFileError, match="on 5 nodes needs at least 4 edges, not 1"):
        load_graph(p)
