import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from reference_loops import Lists, handle_receive, handle_send, synchronous_round

from tokengossip import graph as graph_module
from tokengossip.engine import Continuous, SynchronousDiscrete
from tokengossip.fusion import (
    TokenPayload,
    fold,
    max_fusion,
    sum_fusion,
    weighted_avg_fusion,
)
from tokengossip.graph import Graph, GraphSpec, generate
from tokengossip.protocols import (
    GossipEps,
    MaxTime,
    ProtocolError,
    SimState,
    Termination,
    cfld_run,
    estimate_switch_time,
    hybrid_k_run,
    init,
    run,
    two_phase_run,
)

SUM = sum_fusion()


def test_init_crw_all_active():
    g = generate(GraphSpec.ring(4))
    st = init("crw", g, [1, 2, 3, 4], SUM, seed=0)
    assert sorted(st.active_list) == [0, 1, 2, 3]
    assert sum(st.counts) == 4
    assert all(st.counts[i] == 1 for i in range(4))


@pytest.mark.parametrize("kind,x,fusion", [("crw", [1, 2, 3, 4, 5], SUM),
                                           ("two_phase", [7, -math.inf, 2, 9, 1], max_fusion()),
                                           ("gossip", [0.5, 1, 2, 3, 4], None)])
def test_init_activates_every_node_as_activate_does(kind, x, fusion):
    g = generate(GraphSpec.ring(5))
    st = init(kind, g, x, fusion, seed=0)
    ref = SimState(g, fusion, st.kind, st.clock, st.stream)
    for i in range(g.n):
        ref.activate(i)
    assert (st.status, st.active_list[:st.active_count].tolist(), st.active_pos.tolist()) == (
        ref.status, ref.active_list[:ref.active_count].tolist(), ref.active_pos.tolist())
    assert type(st.status) is bytearray


def test_init_srw_single_origin():
    g = generate(GraphSpec.ring(4))
    st = init("srw", g, [1, 1, 1, 1], SUM, params={"origin": 2}, seed=0)
    assert st.active_list[:st.active_count].tolist() == [2]
    assert st.status[2] and not st.status[0]


def test_init_gossip_values():
    g = generate(GraphSpec.clique(2))
    st = init("gossip", g, [0, 2], None, seed=0)
    assert st.yv.tolist() == [0.0, 2.0]
    assert st.active_count == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_init_gossip_rejects_non_finite_values(bad):
    # a non-finite value keeps the gossip error non-finite, so GossipEps
    # would never stop before its horizon
    g = generate(GraphSpec.ring(4))
    with pytest.raises(ValueError, match="finite"):
        init("gossip", g, [bad, 1.0, 2.0, 3.0], None, seed=0)


def test_init_gossip_rejects_rounds():
    # the kernel's rounds have no pairwise exchange: they would move tokens
    with pytest.raises(ValueError, match="continuous clock"):
        init("gossip", generate(GraphSpec.ring(4)), [1.0] * 4, None, clock=SynchronousDiscrete())


def test_init_validates():
    g = generate(GraphSpec.ring(4))
    with pytest.raises(ValueError):
        init("crw", g, [1, 2], SUM)
    with pytest.raises(ValueError):
        init("hybrid_k", g, [(1.0, 1.0)] * 4, None, params={"k": 9})


def test_send_one_step_hand_execution():
    # one send on ring(3), all values 1: receiver fuses to (2, count 2),
    # sender is left holding the identity with count 0, inactive
    g = generate(GraphSpec.ring(3))
    st = Lists(init("srw", g, [1, 1, 1], SUM, params={"origin": 0}, seed=1))
    handle_send(st, 0)
    assert (st.values[0], st.counts[0], st.status[0]) == (0, 0, 0)
    j = st.active_list[0]
    assert j in (1, 2)
    assert (st.values[j], st.counts[j], st.status[j]) == (2, 2, 1)
    assert sum(st.counts) == 3
    assert st.eta == 1


def test_send_from_inactive_is_a_bug():
    g = generate(GraphSpec.ring(3))
    st = Lists(init("srw", g, [1, 1, 1], SUM, params={"origin": 0}, seed=1))
    with pytest.raises(ProtocolError):
        handle_send(st, 1)


def test_crw_coalescence_drops_active_count():
    g = generate(GraphSpec.clique(2))
    st = Lists(init("crw", g, [3, 4], SUM, seed=2))
    assert st.active_count == 2
    handle_send(st, 0)
    assert st.active_count == 1
    assert (st.values[1], st.counts[1]) == (7, 2)


def test_hybrid_send_to_active_neighbour_relaxes_both():
    # clique 2 with k = 2: the receiver is always active, so the contact
    # relaxes both (estimate, weight) pairs and moves no permit
    g = generate(GraphSpec.clique(2))
    st = Lists(init("hybrid_k", g, [(1.0, 1.0), (3.0, 3.0)], weighted_avg_fusion(),
                    params={"k": 2}, seed=0))
    handle_send(st, 0)
    assert st.values == [(2.5, 2.0), (2.5, 2.0)]
    assert st.counts == [1, 1] and bytes(st.status) == b"\x01\x01"
    assert (st.eta, st.active_active) == (2, 1)
    assert (st.sends, st.receives) == ([1, 1], [1, 1])


def test_receive_cases():
    g = generate(GraphSpec.ring(4))
    st = Lists(init("crw", g, [10, 20, 30, 40], SUM, seed=3))
    # active node coalesces: fuses and stays active
    handle_receive(st, 1, TokenPayload(5, 1))
    assert (st.values[1], st.counts[1], st.status[1]) == (25, 2, 1)
    # a node that has sent holds (e, 0); a reception adopts the payload
    handle_send(st, 2)
    assert st.counts[2] == 0
    handle_receive(st, 2, (7, 3))
    assert (st.values[2], st.counts[2], st.status[2]) == (7, 3, 1)


@pytest.mark.parametrize("clock", [Continuous(), SynchronousDiscrete()])
@pytest.mark.parametrize("t", [-2.0, math.nan])
def test_walk_rejects_stop_time_before_now(clock, t):
    g = generate(GraphSpec.ring(4))
    st = init("crw", g, [1] * 4, SUM, seed=4, clock=clock)
    with pytest.raises(ValueError, match="stop time"):
        run(st, MaxTime(t))
    assert st.eta == 0 and st.t == 0.0


def test_detect_termination():
    g = generate(GraphSpec.ring(4))
    st = init("crw", g, [1] * 4, SUM, seed=4)
    assert st.holder is None and max(st.counts) < 4
    tr = run(st, Termination())
    assert st.counts.tolist().index(4) == tr.holder
    g1 = generate(GraphSpec.clique(1))
    st1 = init("srw", g1, [9], SUM, seed=5)
    assert st1.holder == 0
    tr1 = run(st1, Termination())
    assert tr1.tau == 0.0 and tr1.eta == 0


def test_trace_is_frozen():
    g = generate(GraphSpec.ring(4))
    tr = run(init("crw", g, [1] * 4, SUM, seed=4), Termination())
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.eta = 0


def _replay_with_handle_send(st):
    """run(st, Termination()) rebuilt from the reference primitives: one
    exponential at the active count, a uniform pick of the firing token,
    then handle_send.  Returns (tau, times, active counts, messages)."""
    t = 0.0
    times, counts, messages = [0.0], [st.active_count], [0]
    while st.holder is None:
        k = st.active_count
        t += st.exponential() / k
        handle_send(st, st.active_list[int(st.uniform() * k)])
        if st.active_count != counts[-1]:
            times.append(t)
            counts.append(st.active_count)
            messages.append(st.eta)
    # the run's closing curve point, unless it repeats the last one
    if (t, st.active_count, st.eta) != (times[-1], counts[-1], messages[-1]):
        times.append(t)
        counts.append(st.active_count)
        messages.append(st.eta)
    return t, times, counts, messages


@pytest.mark.parametrize("kind,fusion", [("crw", SUM), ("srw", max_fusion())])
@pytest.mark.parametrize("spec", [GraphSpec.torus(4, 2), GraphSpec.ring(9),
                                  GraphSpec.clique(6), GraphSpec.rgg(30, seed=3)])
def test_loop_replays_handle_send(spec, kind, fusion):
    # run() goes to the compiled kernel; the kernel must step the same
    # automaton as the reference primitives, draw for draw
    g = generate(spec)
    x = [(7 * i) % 11 - 5 for i in range(g.n)]
    for seed in (0, 1, 2):
        tr = run(init(kind, g, x, fusion, seed=seed), Termination())
        st = Lists(init(kind, g, x, fusion, seed=seed))
        replayed = _replay_with_handle_send(st)
        assert (tr.tau, tr.times, tr.active_counts, tr.message_counts) == replayed
        assert (tr.eta, tr.per_node_sends, tr.per_node_receives) == (st.eta, st.sends, st.receives)
        assert (tr.final_counts, tr.holder) == (st.counts, st.holder)
        assert tr.final_payload.value == fold(fusion, x)


def test_srw_exact_every_trial():
    g = generate(GraphSpec.ring(3))
    for i in range(20):
        st = init("srw", g, [1, 1, 1], SUM, seed=6, stream_id=i)
        tr = run(st, Termination())
        assert tr.final_payload == TokenPayload(3, 3)


def test_k2_exponential_race():
    taus = []
    g = generate(GraphSpec.clique(2))
    for i in range(10_000):
        st = init("crw", g, [1, 1], SUM, seed=7, stream_id=i)
        taus.append(run(st, Termination()).tau)
    assert abs(np.mean(taus) - 0.5) < 0.025


def test_clique3_death_chain_mean():
    # coalescence at rate k(k-1)/(n-1): mean = 1/3 + 1 = 4/3
    taus = []
    g = generate(GraphSpec.clique(3))
    for i in range(10_000):
        st = init("crw", g, [1, 1, 1], SUM, seed=8, stream_id=i)
        taus.append(run(st, Termination()).tau)
    assert abs(np.mean(taus) - 4 / 3) < 0.05 * 4 / 3


def test_conservation_instrumented():
    g = generate(GraphSpec.torus(3, 2))
    for kind, fusion, x in (
        ("crw", SUM, list(range(9))),
        ("srw", max_fusion(), [4, -2, 9, 0, 3, 3, 7, 1, 2]),
    ):
        st = init(kind, g, x, fusion, seed=9)
        tr = run(st, Termination(), check_invariants=True)
        assert tr.final_payload.value == fold(fusion, x)
        assert tr.final_payload.count == 9


def test_srw_transitions_uniform():
    # drive the single token by hand; its hops must be uniform over neighbors
    g = generate(GraphSpec.ring(4))
    st = Lists(init("srw", g, [1] * 4, SUM, params={"origin": 0}, seed=10))
    counts = {}
    prev = 0
    for _ in range(20_000):
        handle_send(st, prev)
        cur = st.active_list[0]
        step = (cur - prev) % 4
        counts[step] = counts.get(step, 0) + 1
        prev = cur
    # each direction w.p. 1/2; 3 sigma band for 20k draws
    for step in (1, 3):
        assert abs(counts[step] / 20_000 - 0.5) <= 3 * 0.5 / math.sqrt(20_000)


def test_trace_curve_and_sigma():
    g = generate(GraphSpec.clique(8))
    st = init("crw", g, [1] * 8, SUM, seed=11)
    tr = run(st, Termination())
    counts = tr.active_counts
    assert counts[0] == 8 and counts[-1] == 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert tr.sigma(8) == 0.0
    assert tr.sigma(1) == tr.tau
    assert tr.eta == sum(tr.per_node_sends)
    assert sum(tr.per_node_sends) == sum(tr.per_node_receives)


def test_max_time_flags_incomplete():
    g = generate(GraphSpec.ring(64))
    st = init("srw", g, [1] * 64, SUM, seed=12)
    tr = run(st, MaxTime(1.0))
    assert not tr.completed
    assert tr.tau == 1.0


# -- gossip ---------------------------------------------------------------


def test_gossip_step_k2():
    g = generate(GraphSpec.clique(2))
    st = init("gossip", g, [0.0, 2.0], None, seed=13)
    tr = run(st, GossipEps(0.5))
    assert tr.gossip_exchanges == 1
    assert st.yv.tolist() == [1.0, 1.0]
    assert st.eta == 2


def test_gossip_step_preserves_sum():
    g = generate(GraphSpec.ring(4))
    st = init("gossip", g, [4.0, 0.0, 0.0, 0.0], None, seed=14)
    for t in range(1, 51):
        run(st, MaxTime(0.25 * t))
        assert math.isclose(sum(st.yv.tolist()), 4.0, rel_tol=0, abs_tol=1e-12)
    assert st.eta > 0


def test_gossip_on_one_node():
    g = generate(GraphSpec.clique(1))
    tr = run(init("gossip", g, [2.5], None, seed=1), MaxTime(5.0))
    assert (tr.tau, tr.eta, tr.completed, tr.gossip_exchanges) == (5.0, 0, True, 0)
    tr = run(init("gossip", g, [2.5], None, seed=1), GossipEps(0.01))
    assert (tr.tau, tr.completed, tr.gossip_first_passage, tr.gossip_exchanges) == (0.0, True, 0, 0)


def test_gossip_to_max_time_from_equal_values_stops_at_the_first_exchange():
    g = generate(GraphSpec.torus(3, 2))
    tr = run(init("gossip", g, [1.5] * 9, None, seed=2), MaxTime(50.0))
    assert tr.completed and tr.gossip_first_passage == tr.gossip_exchanges == 1
    assert tr.eta == 2 and tr.tau < 50.0


@pytest.mark.parametrize("kind,stop", [("crw", Termination()), ("srw", Termination()),
                                       ("gossip", GossipEps(0.01))])
def test_run_that_could_never_end_on_a_disconnected_graph_raises(kind, stop):
    g = Graph(n=3, offsets=[0, 1, 2, 2], flat=[1, 0], kind="hand-built", seed=0)
    st = init(kind, g, [1, 2, 3], None if kind == "gossip" else SUM, seed=1,
              params={"origin": 0} if kind == "srw" else None)
    with pytest.raises(ValueError, match="more than one component"):
        run(st, stop)
    assert st.eta == 0 and st.t == 0.0
    assert run(st, MaxTime(3.0)).tau == 3.0  # a bounded run still runs


def test_components_are_found_once_per_graph(monkeypatch):
    calls = []
    real = graph_module.connected_components
    monkeypatch.setattr(graph_module, "connected_components",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    ring = generate(GraphSpec.ring(6))  # generate records its graphs' one component
    hand_built = Graph(n=6, offsets=ring.offsets, flat=ring.flat, kind="hand-built", seed=0)
    for g in (ring, hand_built):
        for seed in range(5):
            assert run(init("crw", g, [1] * 6, SUM, seed=seed), Termination()).completed
    assert len(calls) == 1


def test_bipartiteness_is_found_once_per_graph(monkeypatch):
    calls = []
    real = graph_module.distances_from
    monkeypatch.setattr(graph_module, "distances_from",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for kind, g in (("crw", generate(GraphSpec.ring(7))), ("srw", generate(GraphSpec.ring(8)))):
        for seed in range(2):
            st = init(kind, g, [1] * g.n, SUM, seed=seed, clock=SynchronousDiscrete(0.0))
            assert run(st, Termination()).completed
    assert len(calls) == 2


def test_gossip_converges_on_ring():
    g = generate(GraphSpec.ring(4))
    st = init("gossip", g, [4.0, 0.0, 0.0, 0.0], None, seed=15)
    tr = run(st, GossipEps(1e-6))
    assert tr.completed
    assert max(abs(z - 1.0) for z in tr.final_values) < 1e-5
    assert tr.eta == 2 * tr.gossip_exchanges
    # error trajectory is recorded and ends below the threshold
    assert tr.gossip_errors[0][1] > tr.gossip_errors[-1][1]


# -- synchronous discrete mode -------------------------------------------


def test_swap_does_not_coalesce():
    g = generate(GraphSpec.clique(2))
    st = Lists(init("crw", g, [1, 1], SUM, seed=18, clock=SynchronousDiscrete(0.0)))
    for _ in range(10):
        synchronous_round(st)
        assert st.active_count == 2  # tokens swap across the edge forever
    assert st.counts == [1, 1]


def test_single_token_moves_to_neighbor():
    g = generate(GraphSpec.ring(4))
    st = Lists(init("srw", g, [1] * 4, SUM, params={"origin": 0}, seed=19,
                    clock=SynchronousDiscrete(0.0)))
    synchronous_round(st)
    assert st.active_list[0] in (1, 3)


def test_discrete_crw_exact():
    g = generate(GraphSpec.torus(3, 2))
    st = init("crw", g, list(range(9)), SUM, seed=20, clock=SynchronousDiscrete(0.5))
    tr = run(st, Termination(), check_invariants=True)
    assert tr.final_payload == TokenPayload(36, 9)
    assert tr.rounds is not None and tr.tau == tr.rounds


def test_lazy_zero_rounds_reject_tokens_on_both_bipartite_sides():
    # without lazy holds, tokens on opposite sides of a bipartite graph
    # change side together every round and never meet
    ring8 = generate(GraphSpec.ring(8))
    st = init("crw", ring8, [1] * 8, SUM, seed=22, clock=SynchronousDiscrete(0.0))
    with pytest.raises(ValueError, match="bipartite"):
        run(st, Termination())
    st = init("srw", ring8, [1] * 8, SUM, seed=22, clock=SynchronousDiscrete(0.0))
    assert run(st, Termination()).final_payload == TokenPayload(8, 8)
    ring7 = generate(GraphSpec.ring(7))
    st = init("crw", ring7, [1] * 7, SUM, seed=22, clock=SynchronousDiscrete(0.0))
    assert run(st, Termination()).final_payload == TokenPayload(7, 7)


# -- controlled flooding ----------------------------------------------------


def single_origin_state(g, origin, total, clock):
    st = init("crw", g, [0] * g.n, SUM, seed=21, clock=clock)
    for i in range(g.n):
        if i != origin:
            st.ival[i] = st.fusion.identity
            st.counts[i] = 0
            st.deactivate(i)
    st.ival[origin] = 123
    st.counts[origin] = g.n
    return st


def test_cfld_ring6_hand_oracle():
    g = generate(GraphSpec.ring(6))
    st = single_origin_state(g, 0, 6, SynchronousDiscrete(0.0))
    tr = cfld_run(st)
    assert tr.flood_messages == 6
    assert tr.rounds == 3  # = eccentricity of the origin
    assert set(tr.final_values) == {123}
    assert all(c == 6 for c in tr.final_counts)


def test_cfld_torus_completes_in_eccentricity_rounds():
    g = generate(GraphSpec.torus(5, 2))
    st = single_origin_state(g, 0, 25, SynchronousDiscrete(0.0))
    tr = cfld_run(st)
    assert tr.rounds == 4
    assert tr.flood_messages <= 2 * g.m


def test_cfld_transmission_bound_continuous():
    for spec in (GraphSpec.ring(8), GraphSpec.torus(4, 2), GraphSpec.clique(6)):
        g = generate(spec)
        st = single_origin_state(g, 1, g.n, Continuous())
        tr = cfld_run(st)
        assert tr.flood_messages <= 2 * g.m
        assert set(tr.final_counts) == {g.n}


@pytest.mark.parametrize("spec", [
    GraphSpec.clique(1), GraphSpec.clique(2), GraphSpec.clique(7), GraphSpec.ring(9),
    GraphSpec.torus(4, 2), GraphSpec.grid2d(5), GraphSpec.rgg(40, seed=3),
    GraphSpec.random_regular(20, 3, seed=2),
], ids=str)
def test_continuous_flood_sends_2m_minus_n_plus_1_per_origin(spec):
    # the origin sends to all its neighbours, every other node to all but its
    # one first sender
    g = generate(spec)
    for seed, switch in ((1, 0.0), (2, 1.0), (3, 4.0)):
        tr = two_phase_run(g, [1] * g.n, SUM, switch, seed=seed)
        assert tr.flood_messages_per_origin == [2 * g.m - g.n + 1] * tr.flood_origins


def test_cfld_two_origins_counts_add():
    g = generate(GraphSpec.ring(6))
    st = init("crw", g, [1] * 6, SUM, seed=22)
    for i in range(6):
        if i not in (0, 3):
            st.ival[i] = st.fusion.identity
            st.counts[i] = 0
            st.deactivate(i)
    st.ival[0], st.counts[0] = 3, 3
    st.ival[3], st.counts[3] = 3, 3
    tr = cfld_run(st)
    assert all(c == 6 for c in tr.final_counts)
    assert set(tr.final_values) == {6}


@pytest.mark.parametrize("clock", [Continuous(), SynchronousDiscrete(0.5)],
                         ids=["continuous", "rounds"])
def test_flood_memory_grows_with_the_edges_not_with_origins_times_edges(clock):
    # 12 origins on clique(400), 159,600 links: one solve per origin peaks
    # at about 7 MiB, tables over all origins' links at 33-56 MiB
    g = generate(GraphSpec.clique(400))
    st = init("two_phase", g, [1] * g.n, SUM, seed=5, clock=clock)
    origins = list(range(0, 400, 34))
    for i in range(g.n):
        if i not in origins:
            st.counts[i] = 0
            st.deactivate(i)
    st.counts[origins] = [400 - 11 * 33] + [33] * 11
    tracemalloc.start()
    try:
        tr = cfld_run(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.flood_origins == 12
    assert peak < 16 * 2**20


def test_cfld_rejects_broken_handoff():
    g = generate(GraphSpec.ring(4))
    st = init("crw", g, [1] * 4, SUM, seed=23)
    st.counts[0] = 7  # breaks count conservation
    with pytest.raises(ProtocolError):
        cfld_run(st)


# -- two-phase ---------------------------------------------------------------


def test_run_refuses_a_two_phase_state():
    # run would walk it as plain CRW and return a trace with no flood in it
    g = generate(GraphSpec.torus(4, 2))
    st = init("two_phase", g, [1] * 16, SUM, seed=0)
    with pytest.raises(ProtocolError, match="two_phase_run"):
        run(st, Termination())


def test_two_phase_degenerate_switch_is_pure_flood():
    g = generate(GraphSpec.torus(3, 2))
    x = list(range(1, 10))
    tr = two_phase_run(g, x, SUM, estimate_switch_time(g, 9, seed=24), seed=24)
    assert tr.phase1_messages == 0
    assert tr.phase2_messages <= 9 * 2 * g.m
    assert set(tr.final_values) == {45}


@pytest.mark.parametrize("clock", [Continuous(), SynchronousDiscrete(0.5)])
def test_two_phase_on_one_node_sends_nothing_and_takes_no_time(clock):
    # the lone node has nobody to flood to, like CRW and SRW on clique(1)
    g = generate(GraphSpec.clique(1))
    tr = two_phase_run(g, [7], SUM, estimate_switch_time(g, 1, clock=clock), clock=clock)
    assert tr.tau == 0.0
    assert tr.eta == 0
    assert tr.final_values == [7]


def test_two_phase_consensus_every_trial():
    g = generate(GraphSpec.grid2d(4))
    x = [3 * i - 7 for i in range(16)]
    for i in range(10):
        tr = two_phase_run(g, x, SUM, 4.0, seed=25, stream_id=i)
        assert set(tr.final_values) == {sum(x)}
        assert all(c == 16 for c in tr.final_counts)
        assert tr.eta == tr.phase1_messages + tr.phase2_messages


def test_two_phase_switch_validation():
    g = generate(GraphSpec.ring(4))
    for gamma in (0.5, math.nan):
        with pytest.raises(ValueError):
            estimate_switch_time(g, gamma)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            two_phase_run(g, [1] * 4, SUM, t, seed=0)


@pytest.mark.parametrize("gamma", [4, 100])
@pytest.mark.parametrize("trials", [0, -3])
def test_switch_time_pilot_refuses_fewer_than_one_trial(gamma, trials):
    # zero trials used to read 0.0 off an empty pilot, and gamma >= n
    # must not skip the check
    g = generate(GraphSpec.grid2d(6))
    with pytest.raises(ValueError, match=rf"^switch-time pilot needs trials >= 1, not {trials}$"):
        estimate_switch_time(g, gamma, trials=trials)


def test_crw_passage_time_to_gamma_on_clique16():
    # death chain at rate k(k-1)/15: mean first time to 4 tokens is
    # sum_{k=5..16} 15/(k(k-1)) = 15*(1/4 - 1/16) = 2.8125
    g = generate(GraphSpec.clique(16))
    vals = []
    for i in range(4000):
        st = init("crw", g, [1] * 16, SUM, seed=26, stream_id=i)
        tr = run(st, Termination())
        vals.append(tr.sigma(4))
    assert abs(np.mean(vals) - 2.8125) < 0.10 * 2.8125


# -- fixed-k hybrid -----------------------------------------------------------


def test_hybrid_k1_reduces_to_srw():
    g = generate(GraphSpec.ring(8))
    x = [(float(i), 1.0) for i in range(8)]
    tr = hybrid_k_run(g, x, k=1, seed=27, horizon=60.0)
    assert tr.active_active_events == 0
    assert tr.active_counts[-1] == 1


def test_hybrid_kn_reduces_to_gossip():
    g = generate(GraphSpec.ring(8))
    x = [(float(i), 1.0) for i in range(8)]
    tr = hybrid_k_run(g, x, k=8, seed=28, horizon=400.0)
    assert tr.active_counts[-1] == 8
    assert tr.value_error_max < 1e-6  # long horizon: gossip converged
    # every exchange was an active-active relaxation
    assert tr.active_active_events * 2 == tr.eta


def test_hybrid_active_count_invariant():
    g = generate(GraphSpec.torus(3, 2))
    x = [(float(i), 1.0 + (i % 3)) for i in range(9)]
    tr = hybrid_k_run(g, x, k=3, seed=29, horizon=30.0)
    assert set(tr.active_counts) == {3}
    # mass conservation: weights still sum to the initial total
    total_w = sum(w for _, w in tr.final_values)
    assert math.isclose(total_w, sum(w for _, w in x), rel_tol=1e-9)


def test_hybrid_k_out_of_range():
    g = generate(GraphSpec.ring(4))
    with pytest.raises(ValueError):
        hybrid_k_run(g, [(1.0, 1.0)] * 4, k=5, seed=0)


# -- trace serialization ------------------------------------------------------


def test_trace_files_deterministic(tmp_path):
    g = generate(GraphSpec.torus(3, 2))

    def make(d):
        st = init("crw", g, list(range(9)), SUM, seed=30)
        tr = run(st, Termination())
        tr.write_trajectory_csv(d / "traj.csv")
        tr.write_node_summary_csv(d / "nodes.csv")
        tr.write_metadata_json(d / "meta.json")

    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    make(d1)
    make(d2)
    for name in ("traj.csv", "nodes.csv", "meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    header = (d1 / "traj.csv").read_text().splitlines()[0]
    assert header == "t,active_count,total_messages"


def test_cfld_per_origin_bound_multi_origin():
    g = generate(GraphSpec.torus(4, 2))
    tr = two_phase_run(g, [1] * g.n, SUM, 1.0, seed=31)
    assert tr.flood_messages_per_origin is not None
    assert len(tr.flood_messages_per_origin) == tr.flood_origins
    assert sum(tr.flood_messages_per_origin) == tr.phase2_messages
    for m in tr.flood_messages_per_origin:
        assert 0 < m <= 2 * g.m
