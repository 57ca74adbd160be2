"""The compiled token walk (``_walk``) against the Python reference loops.

Every case runs twice: once with each walk on the kernel, once with
``_walk.walk`` patched to the reference loop (``reference_loops.walk``),
gossip's ``protocols._run_gossip`` to ``reference_loops.run_gossip``, or
the flood's ``protocols.cfld_run`` to ``reference_loops.cfld_run``.
Both must give equal traces and leave the state and its draws equal,
except for the continuous flood, which draws its delays in one block and
so matches the reference loop in law and where no draw decides.  The
flood must also equal the block solve (``reference_loops.cfld_block``)
exactly, on both clocks.
"""
import ctypes
import dataclasses
import math
import pickle
import random
import re
import shutil
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_loops
from tokengossip import _walk, analysis, protocols
from tokengossip.cli import main
from tokengossip.engine import Continuous, RngStream, SynchronousDiscrete
from tokengossip.experiments import initial_values, slow_mode_start
from tokengossip.fusion import (
    INT64_MAX,
    MAX_IDENTITY,
    FusionError,
    max_fusion,
    sum_fusion,
    weighted_avg_fusion,
)
from tokengossip.graph import Graph, GraphSpec, generate
from tokengossip.protocols import (
    GossipEps,
    MaxTime,
    ProtocolError,
    Termination,
    hybrid_k_run,
    init,
    run,
    two_phase_run,
)

FUSIONS = {"sum": sum_fusion(), "max": max_fusion(), "wavg": weighted_avg_fusion()}

specs = st.one_of(
    st.builds(GraphSpec.ring, st.integers(3, 30)),
    st.builds(GraphSpec.clique, st.integers(2, 12)),
    st.builds(GraphSpec.torus, st.integers(3, 5)),
    st.builds(GraphSpec.rgg, st.integers(8, 30), seed=st.integers(0, 1000)),
    st.builds(GraphSpec.random_regular, st.integers(5, 15).map(lambda h: 2 * h),
              st.sampled_from([3, 4]), seed=st.integers(0, 1000)),
)
seeds = st.integers(0, 2**32 - 1)


def values(fusion: str, n: int, seed: int) -> list:
    """Seeded node values, with -inf (MAX) and zero weights (WAVG) mixed in."""
    r = random.Random(seed)
    if fusion == "wavg":
        return [(r.uniform(-5, 5), r.choice([0.0, 0.5, 1.0, 3.0])) for _ in range(n)]
    x = [r.randint(-1000, 1000) for _ in range(n)]
    if fusion == "max":
        x = [MAX_IDENTITY if r.random() < 0.2 else v for v in x]
    return x


def snapshot(s) -> tuple:
    """A simulation state and its generator's state, as comparable values."""
    return (
        s.t, s.eta, _walk._decode(s), s.counts.tolist(), bytes(s.status),
        s.active_list[:s.active_count].tolist(), s.active_pos.tolist(), s.sends.tolist(),
        s.receives.tolist(), s.holder, s.active_active, s.times, s.active_counts,
        s.message_counts, s.rounds, s.rng.bit_generator.state,
    )


def on_both(fn):
    """``fn()`` with every walk on the kernel, then on the reference loop."""
    got = fn()
    with mock.patch.object(_walk, "walk", reference_loops.walk):
        want = fn()
    return got, want


def test_kernel_loads_here():
    assert _walk.load() is not None


def test_python_mirrors_every_kernel_constant():
    # the return codes, iv and dv slots, fusion codes and check bits, by name and value
    in_c = {}
    for body in re.findall(r"enum \{([^}]*)\}", _walk.SOURCE.read_text()):
        value = 0
        for item in body.split(","):
            name, _, given = item.partition("=")
            value = int(given) if given else value
            in_c[name.strip()] = value
            value += 1
    in_python = {name[1:]: v for name, v in vars(_walk).items()
                 if re.fullmatch(r"_[A-Z_]+", name) and type(v) is int}
    in_python.update((kind.value.upper(), code) for kind, code in _walk._FUSION.items())
    assert in_python == in_c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, kind=st.sampled_from(["crw", "srw"]),
       fusion=st.sampled_from(sorted(FUSIONS)))
def test_walk_matches_python_loop(spec, seed, kind, fusion):
    g = generate(spec)
    x = values(fusion, g.n, seed)

    def walk():
        s = init(kind, g, x, FUSIONS[fusion], seed=seed)
        return run(s, Termination()), snapshot(s)

    got, want = on_both(walk)
    assert got == want


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, k_frac=st.floats(0.0, 1.0))
def test_hybrid_matches_python_loop(spec, seed, k_frac):
    g = generate(spec)
    k = 1 + int(k_frac * (g.n - 1))
    x = values("wavg", g.n, seed)

    def hybrid():
        return hybrid_k_run(g, x, k=k, seed=seed, horizon=10.0)

    got, want = on_both(hybrid)
    assert got == want


def gossip_start(start: str, g, seed: int) -> list:
    if start == "equal":
        return [3.0] * g.n
    if start == "two_level":  # dyadic, so exchanges can reach exactly equal values
        return [2.0 * (i % 2) for i in range(g.n)]
    if start == "slow_mode":
        return slow_mode_start(g)
    return initial_values(start, g, "sum", seed)


def gossip_on_both(g, x, seed, stop):
    """A gossip run's trace and end state on the kernel, then on the reference loop."""
    def gossip():
        s = init("gossip", g, x, None, seed=seed)
        return run(s, stop), snapshot(s)

    got = gossip()
    with mock.patch.object(protocols, "_run_gossip", reference_loops.run_gossip):
        want = gossip()
    return got, want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(st.just(GraphSpec.ring(2)), st.builds(GraphSpec.torus, st.integers(3, 6)),
                      st.builds(GraphSpec.rgg, st.integers(8, 30), seed=st.integers(0, 1000)),
                      st.builds(GraphSpec.clique, st.integers(2, 12))),
       seed=seeds, start=st.sampled_from(["spike", "uniform", "slow_mode", "equal", "two_level"]),
       stop=st.one_of(st.builds(GossipEps, st.sampled_from([0.5, 0.1, 0.01, 1e-6]),
                                st.one_of(st.integers(1, 70), st.sampled_from([4096, 8193]))),
                      st.builds(GossipEps, st.sampled_from([0.3, 0.01, 1e-6])),
                      st.builds(MaxTime, st.floats(0.0, 400.0))))
def test_gossip_matches_python_loop(spec, seed, start, stop):
    g = generate(spec)
    got, want = gossip_on_both(g, gossip_start(start, g, seed), seed, stop)
    assert got == want


def test_gossip_stops_where_values_become_exactly_equal():
    # q reaches the threshold 0 exactly at exchange 26, which is no log or
    # refresh point: only the kernel's q <= threshold pause can stop there
    got, want = gossip_on_both(generate(GraphSpec.ring(4)), [0.0, 2.0, 0.0, 2.0], 3,
                               MaxTime(100.0))
    assert got == want
    assert got[0].gossip_first_passage == 26 and got[0].final_values == [1.0] * 4


@pytest.mark.parametrize("spec,kind,fusion", [
    (GraphSpec.torus(40, 2), "crw", "sum"),
    (GraphSpec.ring(256), "srw", "max"),
    (GraphSpec.ring(200), "crw", "wavg"),
])
def test_long_walks_match_python_loop(spec, kind, fusion):
    g = generate(spec)
    x = values(fusion, g.n, 11)

    def walk():
        s = init(kind, g, x, FUSIONS[fusion], seed=11)
        return run(s, Termination()), snapshot(s)

    got, want = on_both(walk)
    assert got == want
    assert got[0].eta >= 3 * 4096


def drawn_walk(g, kind: str, seed: int, stream_id: int, max_t: float,
               terminating: bool = True) -> tuple:
    """A continuous-clock walk of ``kind`` with every node counted once, to
    ``max_t`` or, when ``terminating``, until some count reaches n, stepped
    straight from a fresh generator of stream (seed, stream_id): an SRW's
    origin, then for each event a ``standard_exponential()`` wait at the
    active count, a ``random()`` pick of the firing token from the active
    list and a ``random()`` pick of its neighbour.  Returns the curve
    points, sends, receives, counts, the active list and the generator."""
    rng = RngStream(seed, stream_id).generator()
    n, ends = g.n, g.offsets.tolist()
    nbr = [g.flat[a:b].tolist() for a, b in zip(ends, ends[1:])]
    active = [int(rng.integers(n))] if kind == "srw" else list(range(n))
    counts, sends, receives = [1] * n, [0] * n, [0] * n
    t, eta, points = 0.0, 0, [(0.0, len(active), 0)]
    while not (terminating and max(counts) == n):
        k = len(active)
        nt = t + rng.standard_exponential() / k
        if nt > max_t:
            t = max_t
            break
        t = nt
        i = active[int(rng.random() * k)]
        j = nbr[i][int(rng.random() * len(nbr[i]))]
        active[active.index(i)] = active[-1]  # i leaves, the last token takes its place
        active.pop()
        if j not in active:
            active.append(j)
        counts[j] += counts[i]
        counts[i] = 0
        sends[i] += 1
        receives[j] += 1
        eta += 1
        if len(active) != k:
            points.append((t, len(active), eta))
    if points[-1] != (t, len(active), eta):
        points.append((t, len(active), eta))
    return points, sends, receives, counts, active, rng


@pytest.mark.parametrize("spec", [GraphSpec.clique(6), GraphSpec.ring(9), GraphSpec.torus(4)],
                         ids=["clique6", "ring9", "torus4x4"])
@pytest.mark.parametrize("kind", ["crw", "srw"])
@pytest.mark.parametrize("max_t", [2.5, math.inf])
def test_a_walk_draws_each_variate_from_the_generator_in_event_order(spec, kind, max_t):
    # on a clique every CRW event coalesces, so the curve holds every event time
    g = generate(spec)
    for seed in range(5):
        s = init(kind, g, [0] * g.n, sum_fusion(), seed=seed, stream_id=3)
        tr = run(s, MaxTime(max_t) if max_t < math.inf else Termination())
        points, sends, receives, counts, active, rng = drawn_walk(g, kind, seed, 3, max_t)
        assert list(zip(tr.times, tr.active_counts, tr.message_counts)) == points
        assert (tr.per_node_sends, tr.per_node_receives, tr.final_counts) == (
            sends, receives, counts)
        assert s.active_list[:s.active_count].tolist() == active
        assert s.rng.bit_generator.state == rng.bit_generator.state


def test_a_continuous_flood_draws_its_delays_where_the_walk_stopped():
    # on one edge, origin o's flood ends when o's own forward arrives, after
    # the delay in o's column of the origin's row of the flood's one draw
    g = generate(GraphSpec.clique(2))
    survivors = set()
    for seed in range(20):
        s = init("two_phase", g, [1, 2], sum_fusion(), seed=seed)
        protocols._walk_until(s, 0.3)
        *_, active, rng = drawn_walk(g, "crw", seed, 0, 0.3, terminating=False)
        assert s.rng.bit_generator.state == rng.bit_generator.state
        delays = rng.standard_exponential((len(active), g.n))
        tr = protocols.cfld_run(s)
        assert tr.tau == 0.3 + max(delays[r, o] for r, o in enumerate(sorted(active)))
        assert s.rng.bit_generator.state == rng.bit_generator.state
        survivors.add(len(active))
    assert survivors == {1, 2}


def test_two_phase_stops_at_max_time_then_floods():
    # the walk ends on a MaxTime draw; the flood then draws its delays from
    # the same generator, where the walk left it
    g = generate(GraphSpec.grid2d(10))
    x = values("sum", g.n, 3)
    for switch in (0.5, 7.25, 40.0):
        def two_phase():
            return two_phase_run(g, x, sum_fusion(), switch, seed=5, stream_id=2)

        got, want = on_both(two_phase)
        assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_python_draws_around_a_walk_share_its_generator(seed):
    # Python draws from the state's generator before the walk, and again
    # after it: the kernel must start where the first draws left the
    # generator and leave it where its own last draw did
    g = generate(GraphSpec.ring(10))

    def python_draws(s, count):
        state = reference_loops.Lists(s)
        got = [(state.uniform(), state.exponential()) for _ in range(count)]
        state.store()
        return got

    def draws():
        s = init("crw", g, values("sum", g.n, seed), sum_fusion(), seed=seed)
        before = python_draws(s, 1)
        trace = run(s, MaxTime(2.0))
        after = python_draws(s, 5)
        return before, trace, after, snapshot(s)

    got, want = on_both(draws)
    assert got == want


def test_coalescing_oracle_start_state():
    # _crw_starts leaves each trial as init and a loop that deactivates the
    # nodes outside the start set in ascending order do, on both clocks: the
    # active list's order decides which token fires
    g = generate(GraphSpec.torus(6, 2))
    b = {0, 3, 7, 14, 20, 33}

    def looped(clock, start, stream_id):
        s = init("crw", g, [0] * g.n, sum_fusion(), seed=9, stream_id=stream_id, clock=clock)
        if start is not None:
            for i in range(g.n):
                if i not in start:
                    s.deactivate(i)
                    s.counts[i] = 0
            s.active_counts[0] = s.active_count
        return s

    for clock in (Continuous(), SynchronousDiscrete(0.5)):
        for start in (None, b):
            starts = protocols._crw_starts(g, 3, RngStream(9, 4), clock, start)
            assert [snapshot(s) for s in starts] == [snapshot(looped(clock, start, 4 + trial))
                                                     for trial in range(3)]
    assert [s.stream for s in protocols._crw_starts(g, 2, 9, Continuous())] == [
        RngStream(9, 0), RngStream(9, 1)]

    def oracle_trial():
        s = looped(Continuous(), b, 4)
        return run(s, MaxTime(30.0)), snapshot(s)

    got, want = on_both(oracle_trial)
    assert got == want
    got, want = on_both(lambda: analysis.coalescing_oracle(g, b, [0.5, 3.0, 30.0], trials=40))
    assert got == want


def test_sum_overflow_raises_at_the_same_event():
    g = generate(GraphSpec.ring(12))
    x = [INT64_MAX // 4 + i for i in range(g.n)]

    def overflow():
        s = init("crw", g, x, sum_fusion(), seed=2)
        with pytest.raises(OverflowError) as err:
            run(s, Termination())
        return str(err.value), snapshot(s)

    got, want = on_both(overflow)
    assert got == want
    assert got[0].startswith("sum fusion overflowed 64-bit range: ")


@pytest.mark.parametrize("x", [[2**63, 1, 2], [-(2**63), 1, 2], [1, 2.5, 3]])
def test_values_the_kernel_cannot_hold_raise(x):
    # MAX ints outside (INT64_MIN, INT64_MAX] and floats have no exact
    # place in the kernel's arrays, so init refuses them
    g = generate(GraphSpec.ring(3))
    with pytest.raises(FusionError):
        init("srw", g, x, max_fusion(), seed=1)


ints = st.integers(-3, 3) | st.sampled_from([INT64_MAX, INT64_MAX + 1, -INT64_MAX,
                                              -INT64_MAX - 1, 2**1100, -(2**1100)])
numbers = st.one_of(ints, st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
                    st.just(MAX_IDENTITY), st.builds(np.float64, st.floats(-9, 9)), st.just("1"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["sum", "max", "wavg", "gossip"]),
       x=st.lists(ints, min_size=4, max_size=4) | st.lists(numbers, min_size=4, max_size=4)
       | st.lists(st.tuples(numbers, numbers), min_size=4, max_size=4))
def test_one_pass_encoding_matches_the_value_by_value_checks(kind, x):
    # _encode converts lists of plain ints at once and hands anything else
    # to _encode_each: both must write the same arrays or raise the same error
    g = generate(GraphSpec.ring(4))

    def encoded(encode):
        if kind == "gossip":
            s = init("gossip", g, [0.0] * 4, None)
        else:
            s = init("crw", g, [(1.0, 1.0)] * 4 if kind == "wavg" else [0] * 4, FUSIONS[kind])
        try:
            encode(s, list(x))
        except Exception as e:
            return type(e), str(e)
        return s.ival.tolist(), s.yv.tolist(), s.wv.tolist()

    assert encoded(_walk._encode) == encoded(_walk._encode_each)


def test_neighbour_outside_the_graph_raises_in_python():
    # the kernel would index past its arrays: the graph refuses them when it is made
    with pytest.raises(ValueError, match="neighbour 5 lies outside"):
        Graph(n=3, offsets=[0, 1, 3, 4], flat=[1, 0, 5, 1], kind="bad", seed=0)


def test_the_kernel_runs_on_read_only_graph_arrays():
    # a graph's arrays are read-only, and so are a pickled copy's, rebuilt
    # through the constructor under protocols 4 and 5 alike
    g = generate(GraphSpec.torus(4, 2))
    with pytest.raises(ValueError, match="read-only"):
        g.flat[0] = 1
    copies = [pickle.loads(pickle.dumps(g, protocol=k)) for k in (4, 5)]
    assert [h.flat.flags.writeable for h in copies] == [False, False]

    def crw(h):
        s = init("crw", h, list(range(16)), sum_fusion(), seed=5)
        assert run(s, Termination()).completed
        return snapshot(s)

    assert crw(g) == crw(copies[0]) == crw(copies[1])


CLOCKS = [Continuous(), SynchronousDiscrete(0.5)]


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
@pytest.mark.parametrize("kind,tamper,message", [
    ("crw", lambda s: s.counts.__setitem__(3, 2), "count conservation broken: sum=13 != 12"),
    ("srw", lambda s: s.activate((s.active_list[0] + 6) % 12),
     "SRW must keep exactly one active node, has 2"),
])
def test_kernel_checks_catch_a_broken_state(clock, kind, tamper, message):
    g = generate(GraphSpec.ring(12))
    s = init(kind, g, list(range(12)), sum_fusion(), seed=3, clock=clock)
    tamper(s)
    with pytest.raises(ProtocolError, match=message):
        run(s, Termination(), check_invariants=True)
    assert s.eta > 0  # raised after an event, not before the walk


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
@pytest.mark.parametrize("fusion,x,wrong", [
    (sum_fusion(), list(range(12)), 67),
    (max_fusion(), [MAX_IDENTITY] * 6 + list(range(6)), 4),
    (max_fusion(), [MAX_IDENTITY] * 12, 0),
])
def test_kernel_checks_values_against_expected(clock, fusion, x, wrong):
    g = generate(GraphSpec.ring(12))
    s = init("crw", g, x, fusion, seed=3, clock=clock)
    got = repr(sum(x) if fusion == sum_fusion() else max(x))
    with pytest.raises(ProtocolError, match=f"value conservation broken: {got} != {wrong}"):
        _walk.walk(s, math.inf, True, wrong)
    assert s.eta > 0


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
def test_weighted_averages_pass_the_checks_in_any_fusion_order(clock):
    # folds of weighted averages round differently in different orders, so
    # only their counts are checked
    g = generate(GraphSpec.ring(12))
    x = values("wavg", g.n, 0)
    for seed in range(30):
        s = init("crw", g, x, weighted_avg_fusion(), seed=seed, clock=clock)
        assert run(s, Termination(), check_invariants=True).completed


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
def test_walk_without_a_token_raises(clock):
    g = generate(GraphSpec.ring(6))
    s = init("srw", g, [1] * 6, sum_fusion(), seed=1, clock=clock)
    s.deactivate(s.active_list[0])
    with pytest.raises(ValueError, match="at least one active token"):
        run(s, MaxTime(5.0))


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
def test_a_lone_token_sends_nothing_and_draws_no_neighbour(clock):
    g = generate(GraphSpec.clique(1))

    def walk():
        s = init("crw", g, [7], sum_fusion(), seed=4, clock=clock)
        protocols._walk_until(s, 30.0)
        return snapshot(s)

    got, want = on_both(walk)
    assert got == want
    assert (got[0], got[1]) == (30.0, 0)
    # one uniform per event: the pick of the firing token, or the lazy hold
    rng, events = RngStream(4, 0).generator(), 0
    if clock == Continuous():
        t = rng.standard_exponential()
        while t <= 30.0:
            rng.random()
            t += rng.standard_exponential()
            events += 1
    else:
        events = len(rng.random(30))
    assert events > 0 and got[-1] == rng.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, kind=st.sampled_from(["crw", "srw"]),
       fusion=st.sampled_from(sorted(FUSIONS)), lazy=st.sampled_from([0.0, 0.25, 0.5]))
def test_rounds_match_python_loop(spec, seed, kind, fusion, lazy):
    g = generate(spec)
    assume(lazy or g._two_colouring is None)  # lazy 0 never ends with tokens on both sides
    x = values(fusion, g.n, seed)

    def rounds():
        s = init(kind, g, x, FUSIONS[fusion], seed=seed, clock=SynchronousDiscrete(lazy))
        return run(s, Termination()), snapshot(s)

    got, want = on_both(rounds)
    assert got == want


def test_discrete_crw_runs_on_the_kernel():
    g = generate(GraphSpec.grid2d(20))
    s = init("crw", g, values("sum", g.n, 1), sum_fusion(), seed=1, clock=SynchronousDiscrete())
    assert _walk.walk(s, float("inf"), True) is True
    assert s.counts[s.holder] == g.n and s.rounds == s.t > 0


@pytest.mark.parametrize("lazy", [0.25, 0.5])
def test_rounds_stop_at_max_time_then_flood(lazy):
    g = generate(GraphSpec.grid2d(10))
    clock = SynchronousDiscrete(lazy)
    for fusion in ("sum", "max", "wavg"):
        x = values(fusion, g.n, 3)

        def stopped():
            s = init("crw", g, x, FUSIONS[fusion], seed=4, clock=clock)
            return run(s, MaxTime(17.5)), snapshot(s)

        got, want = on_both(stopped)
        assert got == want
        assert not got[0].completed and got[0].tau == 17.0
        for switch in (0.5, 7.0, 40.0):
            def two_phase():
                return two_phase_run(g, x, FUSIONS[fusion], switch, seed=5, clock=clock,
                                     stream_id=2)

            got, want = on_both(two_phase)
            assert got == want


def test_discrete_decay_matches_python_loop():
    g = generate(GraphSpec.torus(6, 2))

    def decay():
        curve = analysis.estimate_decay(g, trials=20, stream=3, lazy_prob=0.5)
        return [getattr(curve, f.name) for f in dataclasses.fields(curve)]

    got, want = on_both(decay)
    assert [a.tolist() for a in got[:5]] == [a.tolist() for a in want[:5]]
    assert got[5:] == want[5:]


def big_sums(n: int, seed: int) -> list:
    """SUM values near +-2^62 whose total fits in int64 but whose partial
    sums often do not."""
    r = random.Random(seed)
    x = [(-1) ** i * 2**62 + r.randint(-9, 9) for i in range(n - n % 2)] + [0] * (n % 2)
    r.shuffle(x)
    return x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, fusion=st.sampled_from(["sum", "max", "wavg", "big_sum"]),
       clock=st.sampled_from([SynchronousDiscrete(p) for p in (0.0, 0.25, 0.5)]),
       switch=st.sampled_from([0.0, 0.5, 2.0, 7.25, 40.0]))
def test_flood_matches_python_loop(spec, seed, fusion, clock, switch):
    # a run that raises OverflowError must raise it with both floods
    g = generate(spec)
    if fusion == "big_sum":
        fusion, x = "sum", big_sums(g.n, seed)
    else:
        x = values(fusion, g.n, seed)

    def flood():
        s = init("two_phase", g, x, FUSIONS[fusion], seed=seed, clock=clock, stream_id=2)
        try:
            if switch > 0:  # as two_phase_run
                protocols._walk_until(s, switch)
            return protocols.cfld_run(s), snapshot(s)
        except OverflowError:
            return "overflow"

    got = flood()
    with mock.patch.object(protocols, "cfld_run", reference_loops.cfld_run):
        want = flood()
    assert got == want


def total_overflows(n: int, seed: int) -> list:
    """SUM values whose total leaves int64, so that every order of fusing
    them overflows: two of 2^62, the rest 0."""
    x = [2**62, 2**62] + [0] * (n - 2)
    random.Random(seed).shuffle(x)
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, fusion=st.sampled_from(["sum", "max", "wavg", "total_overflows"]),
       switch=st.sampled_from([0.0, 0.5, 2.0, 7.25, 40.0]))
def test_continuous_flood_matches_python_loop_where_draws_do_not_matter(spec, seed, fusion,
                                                                       switch):
    # The continuous flood draws each forward's delay in one block, where the
    # Python loop draws an exponential and a uniform per forward, so the two
    # agree in law (test_continuous_flood_has_the_python_loops_law) and not
    # draw for draw.  What no draw decides must agree exactly: the messages
    # per origin, the sends, the counts, the SUM and MAX finals (weighted
    # averages up to the rounding of another fusion order) and whether the
    # SUM overflows, on inputs that overflow in every fusion order or in none.
    g = generate(spec)
    if fusion == "total_overflows":
        fusion, x = "sum", total_overflows(g.n, seed)
    else:
        x = values(fusion, g.n, seed)

    def flood():
        s = init("two_phase", g, x, FUSIONS[fusion], seed=seed, stream_id=2)
        try:
            if switch > 0:
                protocols._walk_until(s, switch)
            tr = protocols.cfld_run(s)
        except OverflowError:
            return "overflow", None
        fixed = (tr.eta, tr.flood_messages, tr.flood_messages_per_origin, tr.per_node_sends,
                 tr.final_counts)
        return fixed, tr.final_values

    got, got_values = flood()
    with mock.patch.object(protocols, "cfld_run", reference_loops.cfld_run):
        want, want_values = flood()
    assert got == want
    if fusion == "wavg" and got != "overflow":
        assert [a for pair in got_values for a in pair] == pytest.approx(
            [a for pair in want_values for a in pair], rel=1e-9, abs=1e-12)
    else:
        assert got_values == want_values


LAW_LEVEL = 0.001  # each two-sample KS test's level, fixed before any run


@pytest.mark.parametrize("spec", [GraphSpec.torus(4), GraphSpec.grid2d(6), GraphSpec.ring(9),
                                  GraphSpec.rgg(30, seed=4)],
                         ids=["torus4x4", "grid6x6", "ring9", "rgg30"])
def test_continuous_flood_has_the_python_loops_law(spec):
    # 1000 floods after a CRW walk to t = 1 with each flood, on disjoint
    # seeds: the flood's duration and node 0's receives must pass a
    # two-sample KS test at LAW_LEVEL
    from scipy.stats import ks_2samp

    g = generate(spec)
    x = values("sum", g.n, 0)

    def floods(cfld, seeds):
        taus, receives = [], []
        for seed in seeds:
            s = init("two_phase", g, x, sum_fusion(), seed=seed)
            protocols._walk_until(s, 1.0)
            t, r = s.t, s.receives[0]
            tr = cfld(s)
            taus.append(tr.tau - t)
            receives.append(tr.per_node_receives[0] - r)
        return taus, receives

    got = floods(protocols.cfld_run, range(1000))
    want = floods(reference_loops.cfld_run, range(1000, 2000))
    for a, b in zip(got, want):
        assert ks_2samp(a, b).pvalue > LAW_LEVEL


# a hand-built directed path 0 - 1 - 2 -> 3, where node 3 sends to no one
ONE_WAY = Graph(n=4, offsets=[0, 1, 3, 5, 5], flat=[1, 0, 2, 1, 3], kind="hand-built", seed=0)
# two disjoint edges, 0 - 1 and 2 - 3
TWO_PAIRS = Graph(n=4, offsets=[0, 1, 2, 3, 4], flat=[1, 0, 3, 2], kind="hand-built", seed=0)


def hand_over(s, origins: list, counts: list) -> None:
    """Leave the tokens of state ``s`` at ``origins`` only, holding ``counts``."""
    s.counts[:] = 0
    s.counts[origins] = counts
    for i in range(s.graph.n):
        if i not in origins:
            s.deactivate(i)


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
def test_flood_whose_second_origin_cannot_reach_every_node_names_it(clock):
    # ONE_WAY after nodes 0 and 2 have handed their tokens to 1 and 3: the
    # flood from origin 1 reaches every node, the one from origin 3 only 3
    def unreached(cfld):
        s = init("two_phase", ONE_WAY, [1, 2, 3, 4], sum_fusion(), seed=1, clock=clock)
        s.ival[:] = [0, 3, 0, 7]
        hand_over(s, [1, 3], [2, 2])
        with pytest.raises(ProtocolError) as err:
            cfld(s)
        return str(err.value)

    assert unreached(protocols.cfld_run) == unreached(reference_loops.cfld_run) == (
        "flood from origin 3 did not reach all nodes")


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
def test_flood_that_cannot_reach_every_node_raises_as_the_python_loop(clock):
    def unreached(cfld):
        s = init("two_phase", TWO_PAIRS, [1, 2, 3, 4], sum_fusion(), seed=1, clock=clock)
        with pytest.raises(ProtocolError) as err:
            cfld(s)
        return str(err.value)

    assert unreached(protocols.cfld_run) == unreached(reference_loops.cfld_run) == (
        "flood from origin 0 did not reach all nodes")


def same_as_the_block_solve(make_state) -> None:
    """The flood of a fresh ``make_state()`` gives the trace, the state and
    the draws of the block solve (``reference_loops.cfld_block``), or the
    same ProtocolError."""
    def flood(cfld):
        s = make_state()
        try:
            return cfld(s), snapshot(s)
        except ProtocolError as err:
            return str(err)

    assert flood(protocols.cfld_run) == flood(reference_loops.cfld_block)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs, seed=seeds, fusion=st.sampled_from(sorted(FUSIONS)),
       clock=st.sampled_from(CLOCKS + [SynchronousDiscrete(0.0)]),
       origins=st.sampled_from(["all", "walk", "one"]))
def test_flood_matches_the_block_solve(spec, seed, fusion, clock, origins):
    # every node an origin (k = n), the survivors of a walk to t = 2, or one
    # origin holding every count (k = 1)
    g = generate(spec)
    x = values(fusion, g.n, seed)

    def state():
        s = init("two_phase", g, x, FUSIONS[fusion], seed=seed, clock=clock, stream_id=2)
        if origins == "walk":
            protocols._walk_until(s, 2.0)
        elif origins == "one":
            hand_over(s, [seed % g.n], [g.n])
        return s

    same_as_the_block_solve(state)


@pytest.mark.parametrize("clock", CLOCKS, ids=["continuous", "rounds"])
@pytest.mark.parametrize("graph, origins", [
    (ONE_WAY, [1]), (ONE_WAY, [1, 3]), (ONE_WAY, [0, 1, 2, 3]), (TWO_PAIRS, [0, 1, 2, 3]),
    (TWO_PAIRS, [2]), (generate(GraphSpec.clique(1)), [0])],
    ids=["one_way-1", "one_way-1-3", "one_way-all", "two_pairs-all", "two_pairs-2", "n1"])
def test_hand_built_floods_match_the_block_solve(clock, graph, origins):
    def state():
        s = init("two_phase", graph, list(range(graph.n)), sum_fusion(), seed=3, clock=clock)
        counts = [graph.n // len(origins)] * len(origins)
        counts[0] += graph.n % len(origins)
        hand_over(s, origins, counts)
        return s

    same_as_the_block_solve(state)


@pytest.mark.parametrize("lazy", [0.0, 0.5])
def test_sum_overflow_in_a_round_raises_at_the_same_receive(lazy):
    g = generate(GraphSpec.ring(13))
    x = [INT64_MAX // 4 + i for i in range(g.n)]

    def overflow():
        s = init("crw", g, x, sum_fusion(), seed=2, clock=SynchronousDiscrete(lazy))
        with pytest.raises(OverflowError) as err:
            run(s, Termination())
        return str(err.value), snapshot(s)

    got, want = on_both(overflow)
    assert got == want
    assert got[0].startswith("sum fusion overflowed 64-bit range: ")
    counts, receives = got[1][3], got[1][8]
    assert sum(counts) < g.n and sum(receives) > 0  # tokens in flight, some received


def _cache_under_a_file(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))


def _no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(shutil, "which", lambda name: None)


def _read_only_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_walk.tempfile, "mkstemp",
                        mock.Mock(side_effect=PermissionError(13, "read-only")))


def _no_random_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_walk, "NPYRANDOM", tmp_path / "libnpyrandom.a")


@pytest.mark.parametrize("break_build", [_no_compiler, _cache_under_a_file, _read_only_cache,
                                         _no_random_library])
def test_build_failure_exits_2_with_one_line(tmp_path, monkeypatch, capsys, break_build):
    break_build(tmp_path, monkeypatch)
    monkeypatch.setenv("TOKENGOSSIP_OUT", str(tmp_path))
    _walk.load.cache_clear()
    try:
        rc = main(["run", "--proto", "crw", "--kind", "torus", "--side", "5", "--trials", "2"])
    finally:
        _walk.load.cache_clear()
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("invalid input: ")
    assert "Traceback" not in err


def test_a_changed_random_library_gets_its_own_build(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    original, changed = _walk.NPYRANDOM, tmp_path / "libnpyrandom.a"
    changed.write_bytes(original.read_bytes() + b"\0")
    compile_ = mock.Mock()  # compiles nothing: the empty temporary file takes the library's place
    monkeypatch.setattr(_walk.subprocess, "run", compile_)
    libraries = [_walk._build()]
    monkeypatch.setattr(_walk, "NPYRANDOM", changed)
    libraries.append(_walk._build())
    assert libraries[0] != libraries[1] and libraries[0].parent == libraries[1].parent
    assert [c.args[0][-2] for c in compile_.call_args_list] == [str(original), str(changed)]


def test_concurrent_builds_share_one_library(tmp_path, monkeypatch):
    # more builders than cores, into one empty cache: each must load a
    # complete library, and no temporary file may be left behind
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with ProcessPoolExecutor(3, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_walk._build) for _ in range(3)]
        paths = {f.result(timeout=120) for f in futures}
    files = list((tmp_path / "tokengossip").iterdir())
    assert paths == set(files) and len(files) == 1
    assert ctypes.CDLL(str(files[0])).tg_walk_continuous
