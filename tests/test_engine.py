import numpy as np
import pytest
from reference_loops import Lists
from scipy import stats

from tokengossip.engine import RngStream, SynchronousDiscrete
from tokengossip.fusion import sum_fusion, weighted_avg_fusion
from tokengossip.graph import GraphSpec, generate
from tokengossip.protocols import Termination, init, run


def sampler(seed, stream=0):
    """The reference loops' Python draws on stream (seed, stream): a
    one-node CRW state makes no set-up draw, so its blocks start the stream."""
    return Lists(init("crw", generate(GraphSpec.clique(1)), [0], sum_fusion(), seed=seed,
                      stream_id=stream))


def test_next_firing_single_clock_mean():
    s = sampler(101)
    draws = [s.exponential() for _ in range(100_000)]
    assert 0.99 <= np.mean(draws) <= 1.01


def test_next_firing_superposition_mean():
    # on a clique every CRW send coalesces, so the first curve point is
    # the first tick among 4 unit-rate clocks: Exp(4), mean 0.25
    g = generate(GraphSpec.clique(4))
    firsts = [
        run(init("crw", g, [0] * 4, sum_fusion(), seed=102, stream_id=i), Termination()).times[1]
        for i in range(100_000)
    ]
    assert abs(np.mean(firsts) - 0.25) <= 0.0025


def test_determinism_same_seed_same_sequence():
    s1, s2 = sampler(7), sampler(7)
    assert [s1.exponential() for _ in range(1000)] == [s2.exponential() for _ in range(1000)]


def test_streams_differ():
    s1, s2 = sampler(7, 0), sampler(7, 1)
    assert [s1.uniform() for _ in range(8)] != [s2.uniform() for _ in range(8)]


def test_block_refill_preserves_stream():
    # drawing past the block boundary must keep following the generator
    s = sampler(9)
    big = [s.uniform() for _ in range(10_000)]
    rng = RngStream(master_seed=9).generator()
    direct = rng.random(4096).tolist()
    assert big[:4096] == direct
    rng.standard_exponential(4096)
    assert big[4096:8192] == rng.random(4096).tolist()
    assert all(type(u) is float for u in big)


@pytest.mark.parametrize("kind,params", [("srw", {}), ("hybrid_k", {"k": 3}), ("crw", {})])
def test_init_lays_out_the_stream(kind, params):
    # the set-up draws (an SRW origin, a hybrid's k nodes), then a block of
    # 4096 uniforms, then one of 4096 exponentials; the next uniform block
    # starts where that exponential block ends.  init draws no block, so
    # the draws must find them there: an exponential before any uniform,
    # and the next uniform block with most of the exponential block unread
    g = generate(GraphSpec.ring(10))
    s = init(kind, g, [(1.0, 1.0)] * g.n, weighted_avg_fusion(), params=params, seed=21,
             stream_id=5)
    rng = RngStream(21, 5).generator()
    if kind == "srw":
        assert s.active_list[:s.active_count].tolist() == [rng.integers(g.n)]
    elif kind == "hybrid_k":
        chosen = sorted(rng.choice(g.n, size=3, replace=False).tolist())
        assert sorted(s.active_list[:s.active_count].tolist()) == chosen
    assert (s.ui, s.uf, s.ei, s.ef) == (0, 0, 0, 0)
    assert s._rng.bit_generator.state == rng.bit_generator.state
    u1, e1 = rng.random(4096).tolist(), rng.standard_exponential(4096).tolist()
    reader = Lists(s)
    assert reader.exponential() == e1[0]
    assert [reader.uniform() for _ in range(4096)] == u1
    assert [reader.uniform() for _ in range(3)] == rng.random(4096)[:3].tolist()
    assert [reader.exponential() for _ in range(4095)] == e1[1:]
    reader.store()
    assert s.rng.bit_generator.state == rng.bit_generator.state


def test_lazy_prob_validated():
    with pytest.raises(ValueError):
        SynchronousDiscrete(lazy_prob=1.0)
    with pytest.raises(ValueError):
        SynchronousDiscrete(lazy_prob=-0.1)
    with pytest.raises(ValueError, match="'x'"):
        SynchronousDiscrete("x")
    assert SynchronousDiscrete(0.5).lazy_prob == 0.5


def _crw_absorption_thinned(n, seed):
    """Token-only CRW on a clique, sampling active clocks only."""
    s = sampler(seed, 1)
    tokens = list(range(n))  # token -> occupied node (clique: labels only)
    t = 0.0
    while len(tokens) > 1:
        k = len(tokens)
        t += s.exponential() / k
        i = int(s.uniform() * k)
        # uniform neighbor among the other n-1 clique nodes
        others = [x for x in range(n) if x != tokens[i]]
        dest = others[int(s.uniform() * (n - 1))]
        if dest in tokens:
            tokens.pop(i)
        else:
            tokens[i] = dest
    return t


def _crw_absorption_all_clocks(n, seed):
    """Same dynamics, but every node's clock is simulated and inactive
    ticks are discarded (the unthinned reference)."""
    s = sampler(seed, 2)
    occupied = set(range(n))
    t = 0.0
    while len(occupied) > 1:
        t += s.exponential() / n  # superposition of all n clocks
        node = int(s.uniform() * n)
        if node not in occupied:
            continue  # inactive tick: no-op
        others = [x for x in range(n) if x != node]
        dest = others[int(s.uniform() * (n - 1))]
        occupied.discard(node)
        if dest not in occupied:
            occupied.add(dest)
    return t


def test_thinning_distributionally_equivalent():
    taus_a = [_crw_absorption_thinned(8, i) for i in range(5000)]
    taus_b = [_crw_absorption_all_clocks(8, i) for i in range(5000)]
    assert stats.ks_2samp(taus_a, taus_b).pvalue > 0.01
