import numpy as np
import pytest
from scipy import stats

from tokengossip.engine import BlockSampler, RngStream, SynchronousDiscrete
from tokengossip.fusion import sum_fusion
from tokengossip.graph import GraphSpec, generate
from tokengossip.protocols import Termination, init, run


def sampler(seed, stream=0):
    return BlockSampler(RngStream(master_seed=seed, stream_id=stream).generator())


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
