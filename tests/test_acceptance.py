"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete; the whole suite is seeded and deterministic.
"""
import math
import time

import numpy as np
import pytest

import tokengossip as tg
from tokengossip import analysis as an
from tokengossip import experiments as ex
from tokengossip.cli import main as cli_main
from tokengossip.engine import SynchronousDiscrete
from tokengossip.fusion import fold, fusion_from_name
from tokengossip.graph import GraphSpec, eccentricity, generate
from tokengossip.protocols import (
    Termination,
    cfld_run,
    init,
    run,
    two_phase_run,
)


def report(cid: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid:>2} {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. Exactness on 200 randomized (topology, size, seed) combinations
# ---------------------------------------------------------------------------


def _random_spec(rng) -> GraphSpec:
    kind = ["ring", "torus", "clique", "rgg", "grid2d"][int(rng.integers(5))]
    if kind == "ring":
        return GraphSpec.ring(int(rng.integers(4, 401)))
    if kind == "torus":
        return GraphSpec.torus(int(rng.integers(3, 21)), 2)
    if kind == "clique":
        return GraphSpec.clique(int(rng.integers(2, 401)))
    if kind == "rgg":
        return GraphSpec.rgg(int(rng.integers(50, 401)), seed=int(rng.integers(2**31)))
    return GraphSpec.grid2d(int(rng.integers(2, 21)))


def test_criterion_01_exactness_randomized():
    started = time.monotonic()
    rng = np.random.default_rng(20240101)
    failures = []
    for combo in range(200):
        spec = _random_spec(rng)
        g = generate(spec)
        proto = ("srw", "crw", "two_phase")[combo % 3]
        fusion = fusion_from_name(("sum", "max")[combo % 2])
        x = [int(v) for v in rng.integers(-(10**6), 10**6, size=g.n)]
        expected = fold(fusion, x)
        seed = int(rng.integers(2**31))
        if proto == "two_phase":
            tr = two_phase_run(g, x, fusion, float(rng.uniform(1, 10)), seed=seed)
            ok = all(v == expected for v in tr.final_values)
        else:
            st = init(proto, g, x, fusion, seed=seed)
            tr = run(st, Termination())
            ok = tr.final_payload.value == expected and tr.final_payload.count == g.n
        if not ok:
            failures.append((combo, spec))
    elapsed = time.monotonic() - started
    passed = not failures and elapsed < 120
    report(1, passed, f"200/200 exact fold matches in {elapsed:.1f}s (limit 120s)"
           if passed else f"failures={failures[:3]} elapsed={elapsed:.1f}s")
    assert not failures
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Conservation at event granularity
# ---------------------------------------------------------------------------


def test_criterion_02_conservation_instrumented():
    specs = [GraphSpec.ring(50), GraphSpec.torus(7, 2), GraphSpec.clique(100),
             GraphSpec.grid2d(9), GraphSpec.rgg(80, seed=5)]
    runs = 0
    for i, spec in enumerate(specs):
        g = generate(spec)
        assert g.n <= 100
        rng = np.random.default_rng(200 + i)
        x = [int(v) for v in rng.integers(-999, 999, size=g.n)]
        for proto in ("srw", "crw"):
            st = init(proto, g, x, tg.sum_fusion(), seed=300 + i)
            tr = run(st, Termination(), check_invariants=True)  # raises on violation
            assert sum(tr.final_counts) == g.n
            assert tr.final_payload.value == sum(x)
            runs += 1
    report(2, True, f"{runs} instrumented runs, zero conservation violations")


# ---------------------------------------------------------------------------
# 3. Clique death-chain oracle
# ---------------------------------------------------------------------------


def test_criterion_03_clique50_death_chain():
    started = time.monotonic()
    g = generate(GraphSpec.clique(50))
    taus = []
    for i in range(2000):
        st = init("crw", g, [0] * 50, tg.sum_fusion(), seed=42, stream_id=i)
        taus.append(run(st, Termination()).tau)
    elapsed = time.monotonic() - started
    mean = float(np.mean(taus))
    oracle = 49 * 49 / 50  # 48.02
    ok = abs(mean - oracle) <= 0.05 * oracle and elapsed < 60
    report(3, ok, f"mean tau_C={mean:.2f} vs {oracle} (5% band), {elapsed:.1f}s (limit 60s)")
    assert abs(mean - oracle) <= 0.05 * oracle
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 4. SRW message-time identity
# ---------------------------------------------------------------------------


def test_criterion_04_srw_message_time_identity():
    results = []
    for spec, seed in ((GraphSpec.ring(64), 71), (GraphSpec.torus(8, 2), 72)):
        g = generate(spec)
        diffs = []
        for i in range(1000):
            st = init("srw", g, [0] * g.n, tg.sum_fusion(), seed=seed, stream_id=i)
            tr = run(st, Termination())
            diffs.append(tr.eta - tr.tau)
        diffs = np.array(diffs)
        margin = 3 * diffs.std(ddof=1) / math.sqrt(len(diffs))
        results.append((spec.kind, abs(diffs.mean()), margin))
        assert abs(diffs.mean()) < margin
    report(4, True, "; ".join(f"{k}: |mean eta-tau|={d:.2f} < {m:.2f}" for k, d, m in results))


# ---------------------------------------------------------------------------
# 5 & 6. Torus CRW scaling (time and per-node messages, shared sweep)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def torus_crw_sweep():
    started = time.monotonic()
    records_tau, records_eta, per_node = [], [], {}
    for N in (8, 16, 24, 32):
        g = generate(GraphSpec.torus(N, 2))
        summaries = ex.run_point(g, "crw", "sum", [0] * g.n, {}, trials=300,
                                 master_seed=5000 + N)
        records_tau.append(ex.aggregate(summaries, "tau", seed=N))
        rec = ex.aggregate(summaries, "eta_per_node", seed=N)
        records_eta.append(rec)
        per_node[N] = rec
    return records_tau, records_eta, per_node, time.monotonic() - started


def test_criterion_05_torus_time_scaling(torus_crw_sweep):
    records_tau, _, _, elapsed = torus_crw_sweep
    fit = ex.fit_scaling(records_tau, "N2_log_N")
    ok = 0.85 <= fit.slope <= 1.15 and fit.r2 >= 0.95 and elapsed < 600
    report(5, ok, f"slope={fit.slope:.3f} in [0.85,1.15], r2={fit.r2:.4f} >= 0.95, "
                  f"sweep {elapsed:.0f}s (limit 600s)")
    assert 0.85 <= fit.slope <= 1.15
    assert fit.r2 >= 0.95
    assert elapsed < 600


def test_criterion_06_torus_message_scaling(torus_crw_sweep):
    _, records_eta, per_node, _ = torus_crw_sweep
    fit = ex.fit_scaling(records_eta, "log2_n")
    caps = {N: (rec.mean, 0.05 * rec.n) for N, rec in per_node.items()}
    cap_ok = all(mean <= cap for mean, cap in caps.values())
    detail = (f"slope={fit.slope:.3f} > 0, r2={fit.r2:.4f} >= 0.9; per-node vs 0.05n: "
              + ", ".join(f"N={N}: {m:.2f}/{c:.2f}" for N, (m, c) in sorted(caps.items())))
    report(6, fit.slope > 0 and fit.r2 >= 0.9 and cap_ok, detail)
    assert fit.slope > 0
    assert fit.r2 >= 0.9
    # separation cap from the gossip contrast: 5% of n at every sweep point
    for N, (mean, cap) in sorted(caps.items()):
        assert mean <= cap, (
            f"per-node messages {mean:.2f} exceed 0.05*n = {cap:.2f} at N={N}"
        )


# ---------------------------------------------------------------------------
# 7. Gossip contrast on the same torus sweep
# ---------------------------------------------------------------------------


def test_criterion_07_gossip_pernode_scaling():
    # the stopping index is a sup over start vectors; the slow averaging
    # mode is its near-maximizer, so the scaling law is measured there
    records = []
    for N in (8, 16, 24, 32):
        g = generate(GraphSpec.torus(N, 2))
        est = ex.measure_gossip_K(g, eps=0.01, z0=ex.slow_mode_start(g),
                                  trials=24, master_seed=7000 + N)
        summaries = [
            ex.TrialSummary(n=g.n, trial=i, tau=0.0, eta=2 * k, completed=True)
            for i, k in enumerate(est.first_passages)
        ]
        records.append(ex.aggregate(summaries, "eta_per_node", seed=N))
    fit = ex.fit_scaling(records, "n")
    ok = fit.slope >= 0.8
    report(7, ok, f"gossip per-node messages vs n: slope={fit.slope:.3f} >= 0.8 "
                  f"(points: {[round(r.mean, 1) for r in records]})")
    assert fit.slope >= 0.8


# ---------------------------------------------------------------------------
# 8. Controlled-flooding bounds
# ---------------------------------------------------------------------------


def _single_origin_state(g, origin, clock):
    st = init("crw", g, [0] * g.n, tg.sum_fusion(), seed=80, clock=clock)
    for i in range(g.n):
        if i != origin:
            st.ival[i] = st.fusion.identity
            st.counts[i] = 0
            st.deactivate(i)
    st.ival[origin] = 7
    st.counts[origin] = g.n
    return st


def test_criterion_08_cfld_bounds():
    details = []
    # synchronous single-origin floods complete in eccentricity rounds
    for spec, origin in ((GraphSpec.ring(6), 0), (GraphSpec.torus(5, 2), 3)):
        g = generate(spec)
        st = _single_origin_state(g, origin, SynchronousDiscrete(0.0))
        tr = cfld_run(st)
        ecc = eccentricity(g, origin)
        assert tr.rounds == ecc
        assert tr.flood_messages <= 2 * g.m
        assert all(c == g.n for c in tr.final_counts)
        details.append(f"{spec.kind}: {tr.rounds} rounds = ecc, {tr.flood_messages} msgs")
    # the ring(6) hand count: 3 rounds, 6 transmissions
    g6 = generate(GraphSpec.ring(6))
    tr6 = cfld_run(_single_origin_state(g6, 0, SynchronousDiscrete(0.0)))
    assert (tr6.rounds, tr6.flood_messages) == (3, 6)
    # per-origin transmission bound and completeness, both clocks
    from tokengossip.engine import Continuous

    for spec in (GraphSpec.ring(12), GraphSpec.torus(4, 2), GraphSpec.rgg(64, seed=3),
                 GraphSpec.clique(9), GraphSpec.grid2d(6)):
        g = generate(spec)
        for clock in (Continuous(), SynchronousDiscrete(0.0)):
            st = _single_origin_state(g, 1, clock)
            tr = cfld_run(st)
            assert tr.flood_messages <= 2 * g.m
            assert all(c == g.n for c in tr.final_counts)
    report(8, True, "; ".join(details) + "; all floods <= 2|E| and complete")


# ---------------------------------------------------------------------------
# 9. Two-phase consensus with the message bound
# ---------------------------------------------------------------------------


def test_criterion_09_two_phase_bound_on_grids():
    details = []
    for side, trials in ((16, 60), (32, 50), (64, 36)):
        g = generate(GraphSpec.grid2d(side))
        gamma = math.ceil(math.log(g.n))
        dc = an.estimate_decay(g, trials=48, stream=9100 + side)
        t_gamma, _ = dc.t_gamma(gamma)
        n_hat, m_hat = dc.at(t_gamma)
        i = int(np.searchsorted(dc.grid, t_gamma, side="right")) - 1
        n_se, m_se = float(dc.n_se[i]), float(dc.m_se[i])
        etas = []
        for trial in range(trials):
            tr = two_phase_run(g, [1] * g.n, tg.sum_fusion(), t_gamma,
                               seed=9200 + side, stream_id=trial)
            assert set(tr.final_values) == {g.n}
            assert all(c == g.n for c in tr.final_counts)
            etas.append(tr.eta)
        etas = np.array(etas, dtype=float)
        eta_se = etas.std(ddof=1) / math.sqrt(trials)
        degree_sum = 2 * g.m
        bound = m_hat + 2 * degree_sum * n_hat
        joint_se = math.sqrt(eta_se**2 + (m_se + 2 * degree_sum * n_se) ** 2)
        assert etas.mean() <= bound + 3 * joint_se, (
            f"n={g.n}: mean messages {etas.mean():.0f} above bound {bound:.0f}"
        )
        details.append(f"n={g.n}: {etas.mean():.0f} <= {bound:.0f}")
    report(9, True, "exact consensus everywhere; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 10. Resistance / hitting / meeting bounds across the suite graphs
# ---------------------------------------------------------------------------


SUITE_SPECS = [
    GraphSpec.ring(4), GraphSpec.ring(8), GraphSpec.ring(16), GraphSpec.ring(64),
    GraphSpec.clique(2), GraphSpec.clique(3), GraphSpec.clique(8),
    GraphSpec.clique(16), GraphSpec.clique(50),
    GraphSpec.torus(3, 2), GraphSpec.torus(4, 2), GraphSpec.torus(5, 2),
    GraphSpec.torus(3, 3),
    GraphSpec.grid2d(4), GraphSpec.grid2d(8), GraphSpec.grid2d(16),
    GraphSpec.rgg(64, seed=10), GraphSpec.rgg(128, seed=11),
    GraphSpec.random_regular(32, 4, seed=12),
]


def test_criterion_10_resistance_hitting_meeting_bounds():
    checked_meeting = 0
    for spec in SUITE_SPECS:
        g = generate(spec)
        sigma = an.worst_case_hitting(g)
        rep = an.resistance_report(g)
        assert sigma <= rep.sigma_bound + 1e-9, f"{spec.kind}: sigma above 2|E| rho*"
        if g.n <= 36:
            meet = an.worst_case_meeting(g)
            assert meet <= sigma + 1e-9, f"{spec.kind}: meeting above hitting"
            checked_meeting += 1
    # ring closed form d(n-d) to 1e-6
    for n in (4, 16, 64):
        h = an.mean_hitting_times(generate(GraphSpec.ring(n))).entry
        for u in range(n):
            for v in range(n):
                d = min(abs(u - v), n - abs(u - v))
                assert abs(h[u, v] - d * (n - d)) <= 1e-6
    report(10, True, f"sigma <= 2|E|rho* on {len(SUITE_SPECS)} graphs; "
                     f"max meeting <= sigma on {checked_meeting} exact solves; "
                     f"ring closed form to 1e-6")


# ---------------------------------------------------------------------------
# 11. Coalescence upper bound (start-set vs pairwise meeting probability)
# ---------------------------------------------------------------------------


def test_criterion_11_coalescence_count_bound():
    details = []
    for spec, stream in ((GraphSpec.clique(5), 1100), (GraphSpec.ring(8), 1200)):
        g = generate(spec)
        nodes = list(range(g.n))
        svals = [0.5, 1.0, 2.0, 4.0]
        lams = an.coalescing_oracle(g, nodes, svals, trials=3000, stream=stream)
        for s, lam in zip(svals, lams):
            alpha = an.estimate_alpha(g, nodes, s)
            rhs = g.n - (g.n - 1) * alpha.alpha_hat
            assert lam.mean <= rhs + 3 * lam.stderr, f"{spec.kind} s={s}"
        details.append(f"{spec.kind}: s in {svals} ok")
    report(11, True, "; ".join(details))


# ---------------------------------------------------------------------------
# 12. Token-decay shape across torus sizes (discrete lazy rounds)
# ---------------------------------------------------------------------------


def test_criterion_12_decay_shape_constant_across_sizes():
    ratios = {}
    for N in (8, 16, 32):
        g = generate(GraphSpec.torus(N, 2))
        dc = an.estimate_decay(g, trials=30, stream=12000 + N, lazy_prob=0.5)
        mask = (dc.n_hat >= 2.0) & (dc.grid >= 1.0)
        vals = dc.grid[mask] * dc.n_hat[mask] / (g.n * np.log(dc.grid[mask] + 1.0))
        ratios[N] = float(vals.max())
    ok = ratios[32] <= 10 * ratios[8]
    report(12, ok, f"sup t*N(t)/(n ln(t+1)): N=8 -> {ratios[8]:.3f}, "
                   f"N=16 -> {ratios[16]:.3f}, N=32 -> {ratios[32]:.3f} (<= 10x)")
    assert ratios[32] <= 10 * ratios[8]


# ---------------------------------------------------------------------------
# 13. Heat-kernel lower-bound feasibility on the lazy torus
# ---------------------------------------------------------------------------


def test_criterion_13_gaussian_bound_feasible():
    g = generate(GraphSpec.torus(15, 2))
    rep = an.check_gaussian_bound(g, t_max=40, lazy_prob=0.5)
    ok = rep.feasible and not rep.violations and rep.c3 > 0 and rep.c4 > 0
    report(13, ok, f"feasible (C3={rep.c3:.4g}, C4={rep.c4:.4g}), zero violations "
                   f"over 1 <= d <= t <= 40")
    assert rep.feasible
    assert rep.violations == []
    assert rep.c3 > 0 and rep.c4 > 0


# ---------------------------------------------------------------------------
# 14. Byte-for-byte determinism of the output-producing commands
# ---------------------------------------------------------------------------


DETERMINISM_SUITE = {
    "master_seed": 1400,
    "rows": [
        {
            "label": "clique/CRW/time",
            "protocol": "crw",
            "metric": "tau",
            "predictor": "n",
            "sweep": [
                {"kind": "clique", "n": 8},
                {"kind": "clique", "n": 12},
                {"kind": "clique", "n": 16},
                {"kind": "clique", "n": 24},
            ],
            "trials": 30,
            "slope_band": [0.5, 1.5],
            "r2_min": 0.8,
        }
    ],
}


def test_criterion_14_byte_identical_reruns(tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("TOKENGOSSIP_OUT", str(tmp_path))
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(DETERMINISM_SUITE))
    compared = []
    for tag in ("one", "two"):
        assert cli_main(["scale", "--config", str(cfg), "--out", f"scale_{tag}"]) == 0
        assert cli_main(["gen", "--kind", "rgg", "--n", "80", "--seed", "14",
                         "--out", str(tmp_path / f"g_{tag}.graph")]) == 0
        assert cli_main(["run", "--proto", "two_phase", "--kind", "grid2d", "--side", "4",
                         "--gamma", "log_n", "--trials", "4", "--seed", "9",
                         "--out", f"run_{tag}"]) == 0
        assert cli_main(["analyze", "--what", "decay", "--graph", str(tmp_path / f"g_{tag}.graph"),
                         "--trials", "20", "--seed", "3",
                         "--out", str(tmp_path / f"decay_{tag}.json")]) == 0
    for a, b in (
        (tmp_path / "scale_one", tmp_path / "scale_two"),
        (tmp_path / "run_one", tmp_path / "run_two"),
    ):
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "run_manifest.json":
                continue  # carries wall-clock timestamps by design
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
            compared.append(name)
    assert (tmp_path / "g_one.graph").read_bytes() == (tmp_path / "g_two.graph").read_bytes()
    assert (tmp_path / "decay_one.json").read_bytes() == (tmp_path / "decay_two.json").read_bytes()
    assert (tmp_path / "decay_one.csv").read_bytes() == (tmp_path / "decay_two.csv").read_bytes()
    report(14, True, f"{len(compared) + 3} output files byte-identical across reruns "
                     "(manifest excluded: wall-clock timestamps)")
