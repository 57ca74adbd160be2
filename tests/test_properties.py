"""Property tests over random small connected graphs and seeds."""
import math
from unittest import mock

import reference_loops
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengossip import _walk
from tokengossip.fusion import fold, max_fusion, sum_fusion
from tokengossip.graph import GraphSpec, generate
from tokengossip.protocols import Termination, hybrid_k_run, init, run

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

specs = st.one_of(
    st.builds(GraphSpec.ring, st.integers(3, 30)),
    st.builds(GraphSpec.torus, st.integers(3, 5)),
    st.builds(GraphSpec.rgg, st.integers(8, 30), seed=st.integers(0, 1000)),
    st.builds(GraphSpec.random_regular, st.integers(5, 15).map(lambda h: 2 * h),
              st.sampled_from([3, 4]), seed=st.integers(0, 1000)),
)
seeds = st.integers(0, 2**32 - 1)


def counting_exponentials():
    """Patch the reference loops' exponential draw with a mock that counts
    them: one per event, plus the one that overshoots the horizon.  The walk
    kernel reads the blocks directly, so the reference loop, equal to it
    draw for draw, runs the walk."""
    draw = reference_loops.Lists.exponential
    return mock.patch.object(reference_loops.Lists, "exponential", autospec=True,
                             side_effect=draw)


@PROPERTY
@given(spec=specs, seed=seeds, k_frac=st.floats(0.0, 1.0))
def test_hybrid_keeps_k_tokens_and_conserves_weight(spec, seed, k_frac):
    g = generate(spec)
    k = 1 + int(k_frac * (g.n - 1))
    x = [(float((seed >> (i % 32)) % 7), 0.5 + i % 3) for i in range(g.n)]
    with (counting_exponentials() as exponential,
          mock.patch.object(_walk, "walk", reference_loops.walk)):
        tr = hybrid_k_run(g, x, k=k, seed=seed, horizon=10.0)
    events = exponential.call_count - 1
    assert set(tr.active_counts) == {k}
    assert sum(tr.final_counts) == g.n
    total_w = math.fsum(w for _, w in tr.final_values)
    assert math.isclose(total_w, math.fsum(w for _, w in x), rel_tol=1e-9)
    # each event is a token transfer (one message) or a relaxation (two)
    transfers = events - tr.active_active_events
    assert tr.eta == transfers + 2 * tr.active_active_events
    assert tr.eta == sum(tr.per_node_sends) == sum(tr.per_node_receives)


@PROPERTY
@given(spec=specs, seed=seeds, kind=st.sampled_from(["crw", "srw"]),
       fusion=st.sampled_from([sum_fusion(), max_fusion()]))
def test_walks_return_the_exact_aggregate(spec, seed, kind, fusion):
    g = generate(spec)
    x = [(seed * (i + 1)) % 1001 - 500 for i in range(g.n)]
    tr = run(init(kind, g, x, fusion, seed=seed), Termination(), check_invariants=True)
    assert tr.completed
    assert tr.final_payload.value == fold(fusion, x)
    assert tr.final_payload.count == g.n
