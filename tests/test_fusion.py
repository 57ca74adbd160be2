import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengossip.fusion import (
    INT64_MAX,
    INT64_MIN,
    MAX_IDENTITY,
    FusionError,
    TokenPayload,
    fold,
    fuse,
    fuse_payload,
    max_fusion,
    sum_fusion,
    weighted_avg_fusion,
)
from tokengossip import _walk
from tokengossip.graph import GraphSpec, generate
from tokengossip.protocols import _fuse_ranks, init

SUM = sum_fusion()
MAX = max_fusion()
WAVG = weighted_avg_fusion()


def test_fuse_hand_examples():
    assert fuse(SUM, 3, 4) == 7
    assert fuse(MAX, 2, 9) == 9
    y, w = fuse(WAVG, (2.0, 1.0), (4.0, 3.0))
    assert (y, w) == (3.5, 4.0)


def test_identity_laws():
    for spec, x in ((SUM, 17), (MAX, -4), (WAVG, (2.5, 3.0))):
        e = spec.identity
        assert fuse(spec, x, e) == x
        assert fuse(spec, e, x) == x
        assert fuse(spec, e, e) == e


def test_max_identity_is_a_sentinel():
    # -inf can never collide with a finite sensor reading
    assert MAX.identity == MAX_IDENTITY
    assert fuse(MAX, -(2**62), MAX.identity) == -(2**62)


def test_fold_hand_examples():
    assert fold(SUM, [1, 2, 3, 4]) == 10
    assert fold(MAX, [5]) == 5
    # (1*1 + 3*1 + 5*2) / 4 = 3.5, cross-checked against a pairwise fold
    direct = fold(WAVG, [(1.0, 1.0), (3.0, 1.0), (5.0, 2.0)])
    pairwise = fuse(WAVG, fuse(WAVG, (1.0, 1.0), (3.0, 1.0)), (5.0, 2.0))
    assert direct == (3.5, 4.0)
    assert math.isclose(direct[0], pairwise[0], rel_tol=1e-12)
    assert math.isclose(direct[1], pairwise[1], rel_tol=1e-12)


def test_fold_empty_rejected():
    with pytest.raises(FusionError):
        fold(SUM, [])


def test_payload_fusing():
    assert fuse_payload(SUM, TokenPayload(3, 2), TokenPayload(5, 1)) == TokenPayload(8, 3)
    assert fuse_payload(SUM, TokenPayload(7, 4), TokenPayload(0, 0)) == TokenPayload(7, 4)
    assert fuse_payload(MAX, TokenPayload(1, 4), TokenPayload(9, 4)) == TokenPayload(9, 8)


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    ints = [int(v) for v in rng.integers(-1000, 1000, size=40)]
    for spec in (SUM, MAX):
        base = fold(spec, ints)
        for _ in range(20):
            perm = [ints[i] for i in rng.permutation(len(ints))]
            assert fold(spec, perm) == base
    pairs = [(float(y), float(w)) for y, w in zip(rng.normal(size=30), rng.random(30) + 0.1)]
    y0, w0 = fold(WAVG, pairs)
    for _ in range(20):
        perm = [pairs[i] for i in rng.permutation(len(pairs))]
        y, w = fold(WAVG, perm)
        assert math.isclose(y, y0, rel_tol=1e-9)
        assert math.isclose(w, w0, rel_tol=1e-9)


def test_decomposability_random_splits():
    rng = np.random.default_rng(5)
    ints = [int(v) for v in rng.integers(-50, 50, size=25)]
    for spec in (SUM, MAX):
        whole = fold(spec, ints)
        for _ in range(10):
            k = int(rng.integers(1, len(ints)))
            assert fuse(spec, fold(spec, ints[:k]), fold(spec, ints[k:])) == whole


def test_identity_absorption():
    rng = np.random.default_rng(2)
    for spec in (SUM, MAX, WAVG):
        vals = (
            [(float(y), float(w)) for y, w in zip(rng.normal(size=8), rng.random(8))]
            if spec is WAVG
            else [int(v) for v in rng.integers(-9, 9, size=8)]
        )
        padded = []
        for v in vals:
            padded.extend([spec.identity, v, spec.identity])
        assert fold(spec, padded) == fold(spec, vals)


def test_count_additivity():
    payloads = [TokenPayload(int(v), int(c)) for v, c in zip(range(6), [1, 2, 0, 3, 1, 1])]
    total = payloads[0]
    for p in payloads[1:]:
        total = fuse_payload(SUM, total, p)
    assert total.count == sum(p.count for p in payloads)


def test_sum_overflow_checked():
    with pytest.raises(OverflowError):
        fuse(SUM, 2**62, 2**62)
    with pytest.raises(OverflowError):
        fuse(SUM, 2**63, 1)  # already out of range on input


def test_kind_mismatch_rejected():
    with pytest.raises(FusionError):
        fuse(SUM, 1.5, 2)
    with pytest.raises(FusionError):
        fuse(WAVG, (1.0, 2.0), 3)
    with pytest.raises(FusionError):
        fuse(WAVG, (1.0, -2.0), (0.0, 1.0))  # negative weight


@pytest.mark.parametrize("v", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                               (1.0, math.inf)])
def test_weighted_avg_rejects_non_finite(v):
    with pytest.raises(FusionError, match="finite"):
        WAVG.validate_value(v)


def test_negative_count_rejected():
    with pytest.raises(FusionError):
        TokenPayload(0, -1)


def _first_error(spec, values):
    """What ``validate_value`` over ``values`` raises first, as comparable data."""
    try:
        for v in values:
            spec.validate_value(v)
    except (FusionError, OverflowError) as e:
        return type(e), str(e)
    return None


mixed_values = st.lists(st.one_of(
    st.integers(-1000, 1000), st.sampled_from([INT64_MIN, INT64_MAX]),
    st.sampled_from([INT64_MIN - 1, INT64_MAX + 1, True, np.int64(3)]),
    st.sampled_from([MAX_IDENTITY, math.inf, math.nan, 2.5, -0.0]),
    st.tuples(st.floats(-5, 5), st.floats(0, 3)),
), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=mixed_values, spec=st.sampled_from([SUM, MAX, WAVG]))
def test_validate_values_raises_what_the_value_loop_raises(values, spec):
    want = _first_error(spec, values)
    try:
        spec.validate_values(values)
        got = None
    except (FusionError, OverflowError) as e:
        got = type(e), str(e)
    assert got == want


RANK_VALUES = {
    # near +-2^62, where partial sums leave int64 in some orders and not others
    SUM: st.one_of(st.integers(-9, 9), st.integers(2**62 - 9, 2**62 + 9),
                   st.integers(-(2**62) - 9, -(2**62) + 9)),
    MAX: st.one_of(st.just(MAX_IDENTITY), st.integers(INT64_MIN + 1, INT64_MAX)),
    # zero weights of both signs take _fuse_wavg's identity branches
    WAVG: st.tuples(st.floats(-1e6, 1e6),
                    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1e6))),
}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data(), spec=st.sampled_from([SUM, MAX, WAVG]))
def test_rank_fusion_folds_fuse_in_the_same_order(data, spec):
    # the flood's fusion, one rank at a time across all nodes, against each
    # node folding spec.fuse over the ranks: the same values bit for bit
    # (repr tells -0.0 from 0.0), or an OverflowError on the same inputs
    # that leaves the values as they were
    n = data.draw(st.integers(1, 8))
    origins = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    order = np.array([data.draw(st.permutations(range(len(origins)))) for _ in range(n)]).T
    values = data.draw(st.lists(RANK_VALUES[spec], min_size=n, max_size=n))
    state = init("crw", generate(GraphSpec.clique(n)), values, spec)

    def folded():
        out = []
        for w, v in enumerate(values):
            for oi in order[:, w].tolist():
                if origins[oi] != w:
                    v = spec.fuse(v, values[origins[oi]])
            out.append(v)
        return out

    try:
        want = folded()
    except OverflowError:
        with pytest.raises(OverflowError, match="sum fusion overflowed 64-bit range"):
            _fuse_ranks(state, origins, order)
        assert _walk._decode(state) == values
        return
    _fuse_ranks(state, origins, order)
    assert repr(_walk._decode(state)) == repr(want)
