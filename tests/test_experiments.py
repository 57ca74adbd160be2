import dataclasses
import json
import math
from pathlib import Path

import pytest

from tokengossip import experiments as ex
from tokengossip.graph import GraphSpec, generate


def test_run_trials_deterministic():
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.torus(3, 2)], protocol="crw",
                              trials=6, master_seed=3)
    a = ex.run_trials(cfg)[0][1]
    b = ex.run_trials(cfg)[0][1]
    assert [(s.tau, s.eta) for s in a] == [(s.tau, s.eta) for s in b]


def test_run_trials_exactness_flags():
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.ring(8)], protocol="srw",
                              fusion="max", trials=4, master_seed=5)
    summaries = ex.run_trials(cfg)[0][1]
    assert all(s.exact for s in summaries)


def test_run_trials_rejects_inexact_walk(monkeypatch):
    from tokengossip.fusion import TokenPayload

    real = ex.run

    def off_by_one(state, stop, **kw):
        tr = real(state, stop, **kw)
        p = tr.final_payload
        return dataclasses.replace(tr, final_payload=TokenPayload(p.value + 1, p.count))

    monkeypatch.setattr(ex, "run", off_by_one)
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.ring(8)], protocol="crw",
                              trials=3, master_seed=5)
    with pytest.raises(ex.ExperimentError, match="exact"):
        ex.run_trials(cfg)


def test_run_trials_parallel_matches_serial():
    cfg1 = ex.ExperimentConfig(graphs=[GraphSpec.clique(8)], protocol="crw",
                               trials=8, master_seed=11, jobs=1)
    cfg2 = ex.ExperimentConfig(graphs=[GraphSpec.clique(8)], protocol="crw",
                               trials=8, master_seed=11, jobs=2)
    a = ex.run_trials(cfg1)[0][1]
    b = ex.run_trials(cfg2)[0][1]
    assert [(s.tau, s.eta) for s in a] == [(s.tau, s.eta) for s in b]


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs in this process and
    records the worker count it was asked for."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs,trials,workers", [(64, 3, [3]), (2, 5, [2]), (9, 1, [])])
def test_run_point_starts_at_most_one_worker_per_trial(monkeypatch, jobs, trials, workers):
    monkeypatch.setattr(ex, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "asked", [])
    g = generate(GraphSpec.clique(6))
    got = ex.run_point(g, "crw", "sum", [1] * 6, {}, trials, 4, jobs=jobs)
    assert SerialPool.asked == workers
    assert got == ex.run_point(g, "crw", "sum", [1] * 6, {}, trials, 4)


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_run_point_refuses_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be an int >= 1"):
        ex.run_point(generate(GraphSpec.clique(4)), "crw", "sum", [1] * 4, {}, 2, 4, jobs=jobs)


def test_two_phase_infinite_gamma_is_rejected():
    with pytest.raises(ValueError, match="gamma must be finite, not inf"):
        ex.resolve_two_phase(generate(GraphSpec.ring(8)), {"gamma": "inf"}, 1)


def test_incomplete_trial_aborts_point():
    cfg = ex.ExperimentConfig(
        graphs=[GraphSpec.torus(4, 2)], protocol="gossip", trials=3,
        master_seed=7, params={"eps": 1e-9, "horizon": 10},
    )
    with pytest.raises(ex.ExperimentError):
        ex.run_trials(cfg)


def test_clique50_oracle_through_harness():
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.clique(50)], protocol="crw",
                              trials=800, master_seed=13)
    summaries = ex.run_trials(cfg)[0][1]
    rec = ex.aggregate(summaries, "tau", seed=13)
    assert abs(rec.mean - 48.02) < 0.05 * 48.02
    assert rec.low <= rec.mean <= rec.high
    assert rec.stderr > 0


def test_aggregate_needs_two_trials():
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.ring(4)], protocol="crw",
                              trials=2, master_seed=1)
    summaries = ex.run_trials(cfg)[0][1]
    with pytest.raises(ValueError):
        ex.aggregate(summaries[:1], "tau")


def test_aggregation_order_invariant():
    cfg = ex.ExperimentConfig(graphs=[GraphSpec.ring(6)], protocol="crw",
                              trials=10, master_seed=2)
    summaries = ex.run_trials(cfg)[0][1]
    rec1 = ex.aggregate(summaries, "tau", seed=0)
    rec2 = ex.aggregate(list(reversed(summaries)), "tau", seed=0)
    assert rec1.mean == rec2.mean
    # bootstrap draws are keyed by seed, resampled values are a set op
    assert rec1.low == rec2.low and rec1.high == rec2.high


def test_fit_scaling_recovers_exact_power_law():
    recs = [
        ex.AggregateRecord(n=n, metric="tau", mean=3.0 * n, stderr=0.0,
                           low=0.0, high=0.0, trials=2)
        for n in (8, 16, 32, 64)
    ]
    fit = ex.fit_scaling(recs, "n")
    assert abs(fit.slope - 1.0) < 1e-9
    assert abs(fit.r2 - 1.0) < 1e-12
    quad = [
        ex.AggregateRecord(n=n, metric="tau", mean=0.5 * n * n, stderr=0.0,
                           low=0.0, high=0.0, trials=2)
        for n in (8, 16, 32, 64)
    ]
    assert abs(ex.fit_scaling(quad, "n2").slope - 1.0) < 1e-9


def test_fit_scaling_needs_four_points():
    recs = [
        ex.AggregateRecord(n=n, metric="tau", mean=float(n), stderr=0.0,
                           low=0.0, high=0.0, trials=2)
        for n in (8, 16, 32)
    ]
    with pytest.raises(ValueError):
        ex.fit_scaling(recs, "n")


def test_predictors():
    assert ex.predictor_fn("n")(64) == 64.0
    assert ex.predictor_fn("log2_n")(64) == pytest.approx(math.log(64) ** 2)
    assert ex.predictor_fn("N2_log_N")(64) == pytest.approx(64 * math.log(8.0))
    assert ex.predictor_fn("n_pow:0.5")(64) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        ex.predictor_fn("bogus")


def test_gossip_k_on_k2():
    g = generate(GraphSpec.clique(2))
    est = ex.measure_gossip_K(g, eps=0.5, z0=[0.0, 2.0], trials=20, master_seed=3)
    assert est.k_hat == 1  # one exchange zeroes the error
    est0 = ex.measure_gossip_K(g, eps=0.5, z0=[1.5, 1.5], trials=20, master_seed=3)
    assert est0.k_hat == 0  # already at consensus


def test_gossip_k_grows_with_ring_size():
    ks = []
    for n in (8, 16, 32):
        g = generate(GraphSpec.ring(n))
        ks.append(ex.measure_gossip_K(g, eps=0.01, trials=20, master_seed=4).k_hat)
    assert ks[0] < ks[1] < ks[2]


def test_gossip_k_horizon_error():
    g = generate(GraphSpec.ring(16))
    with pytest.raises(ex.ExperimentError):
        ex.measure_gossip_K(g, eps=1e-8, trials=3, master_seed=5, horizon=10)


def test_run_suite_writes_outputs(tmp_path):
    config = {
        "master_seed": 123,
        "rows": [
            {
                "label": "clique/CRW/time",
                "protocol": "crw",
                "metric": "tau",
                "predictor": "n",
                "sweep": [
                    {"kind": "clique", "n": 8},
                    {"kind": "clique", "n": 16},
                    {"kind": "clique", "n": 24},
                    {"kind": "clique", "n": 32},
                ],
                "trials": 60,
                "slope_band": [0.8, 1.2],
                "r2_min": 0.9,
            }
        ],
    }
    rep = ex.run_suite(config, out_dir=tmp_path / "out")
    assert rep.passed
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0] == "n,protocol,metric,mean,stderr,trials"
    assert len(lines) == 5
    import json

    fits = json.loads((tmp_path / "out" / "fits.json").read_text())
    assert fits[0]["passed"] is True


def test_gossip_k_trial_table_is_run_point_for_any_jobs(tmp_path):
    sweep = [{"kind": "ring", "n": n} for n in (6, 8, 10, 12)]
    row = {"predictor": "n", "sweep": sweep, "trials": 6, "slope_band": [0.0, 5.0],
           "r2_min": 0.0}
    config = {"master_seed": 9, "rows": [
        {**row, "label": "ring/crw", "protocol": "crw"},
        {**row, "label": "ring/gossip", "protocol": "gossip", "metric": "eta_per_node",
         "values": "spike", "params": {"eps": 0.05}},
    ]}
    ex.run_suite(config, out_dir=tmp_path / "j1")
    ex.run_suite({**config, "jobs": 2}, out_dir=tmp_path / "j2")
    names = sorted(f.name for f in (tmp_path / "j1").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "j2").iterdir())
    for name in names:
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()
    ring12 = generate(GraphSpec.ring(12))
    x = ex.initial_values("spike", ring12, "sum", 0)
    summaries = ex.run_point(ring12, "gossip", "sum", x, {"eps": 0.05}, 6, 9)
    lines = (tmp_path / "j1" / "trials_ring_gossip_12.csv").read_text().splitlines()
    assert lines[1:] == [f"{s.trial},{s.tau!r},{s.eta},{s.eta_per_node!r}" for s in summaries]
    for name in names:
        if name.startswith("trials_"):
            for line in (tmp_path / "j1" / name).read_text().splitlines()[1:]:
                assert len([float(v) for v in line.split(",")]) == 4


def test_run_suite_respects_enabled_flag(tmp_path):
    config = {
        "master_seed": 1,
        "rows": [
            {
                "label": "off",
                "enabled": False,
                "protocol": "crw",
                "metric": "tau",
                "predictor": "n",
                "sweep": [{"kind": "clique", "n": 4}],
                "trials": 2,
            },
            {
                "label": "on",
                "protocol": "crw",
                "metric": "tau",
                "predictor": "n",
                "sweep": [
                    {"kind": "ring", "n": 4},
                    {"kind": "ring", "n": 8},
                    {"kind": "ring", "n": 12},
                    {"kind": "ring", "n": 16},
                ],
                "trials": 20,
                "slope_band": [0.0, 5.0],
                "r2_min": 0.0,
            },
        ],
    }
    rep = ex.run_suite(config, out_dir=tmp_path / "o")
    assert [r.label for r in rep.rows] == ["on"]


def test_run_trials_rejects_params_the_protocol_does_not_read():
    with pytest.raises(ValueError, match="lazy"):
        ex.ExperimentConfig(graphs=[GraphSpec.ring(8)], protocol="crw", trials=2,
                            master_seed=1, params={"lazy": 0.5})


@pytest.mark.parametrize("bad", [{"predictor": None}, {"protocol": None}, {"colour": "red"},
                                 {"sweep": [{"kind": "ring", "nodes": 8}] * 4},
                                 {"metric": "taus"}, {"params": {"lazy": 0.5}},
                                 {"protocol": "gossip", "params": {"eps": 2}},
                                 {"params": {"lazy_prob": "x"}},
                                 {"slope_band": 5}, {"slope_band": [1]}, {"trials": 1},
                                 {"values": "uniformm"},
                                 {"sweep": [{"kind": "rign", "n": n} for n in (4, 6, 8, 10)]},
                                 {"r2_min": "high"}, {"protocol": "gossip"},
                                 {"protocol": "hybrid_k"},
                                 {"protocol": "hybrid_k", "params": {"k": 2}},
                                 {"sweep": [{"kind": "ring", "n": n} for n in (1, 6, 8, 10)]},
                                 {"protocol": "two_phase", "params": {"gamma": 0.5}},
                                 {"values": "file:missing.txt"}, {"values": "file:words.txt"}])
def test_run_suite_checks_every_row_before_running_any(monkeypatch, tmp_path, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "words.txt").write_text("1\n2\nthree\n" + "4\n" * 20)
    calls = []
    monkeypatch.setattr(ex, "run_point", lambda *a, **kw: calls.append(a))
    good = {"label": "ok", "protocol": "crw", "predictor": "n",
            "sweep": [{"kind": "ring", "n": n} for n in (4, 6, 8, 10)]}
    row = {k: v for k, v in {**good, "label": "bad", **bad}.items() if v is not None}
    with pytest.raises(ValueError, match="'bad'"):
        ex.run_suite({"rows": [good, row]})
    assert calls == []


def test_bundled_suites_build_every_row(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("building a suite row ran trials")

    monkeypatch.setattr(ex, "run_point", fail)
    paths = sorted((Path(ex.__file__).parent / "data").glob("*.json"))
    assert paths
    for path in paths:
        config = json.loads(path.read_text())
        rows = ex._enabled_rows(config)
        assert [label for _, label, *_ in rows] == [r["label"] for r in config["rows"]]


def test_config_hash_stable():
    c = {"rows": [], "master_seed": 5}
    assert ex.config_hash(c) == ex.config_hash(dict(c))
    assert ex.config_hash(c) != ex.config_hash({"rows": [], "master_seed": 6})


def test_initial_values_sources(tmp_path):
    ring3, ring5, ring6 = (generate(GraphSpec.ring(n)) for n in (3, 5, 6))
    vals = ex.initial_values("spike", ring5, "sum", seed=1)
    assert vals == [5, 0, 0, 0, 0]
    u1 = ex.initial_values("uniform", ring6, "sum", seed=9)
    u2 = ex.initial_values("uniform", ring6, "sum", seed=9)
    assert u1 == u2
    f = tmp_path / "vals.txt"
    f.write_text("3\n1\n4\n1\n5\n")
    assert ex.initial_values(f"file:{f}", ring5, "sum", seed=0) == [3, 1, 4, 1, 5]
    w = ex.initial_values("spike", ring3, "wavg", seed=0)
    assert w == [(3.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    assert ex.initial_values("slow_mode", ring6, "sum", seed=0) == ex.slow_mode_start(ring6)
    with pytest.raises(ValueError):
        ex.initial_values("nope", ring3, "sum", seed=0)


def test_value_file_keeps_integers_above_2_53(tmp_path):
    big = 2**53 + 1  # float(big) rounds to 2**53
    f = tmp_path / "big.txt"
    f.write_text(f"{big}\n-3\n2.5e1\n0\n")
    ring4 = generate(GraphSpec.ring(4))
    x = ex.initial_values(f"file:{f}", ring4, "sum", seed=0)
    assert x == [big, -3, 25, 0]
    summaries = ex.run_point(ring4, "crw", "sum", x, {}, 3, 1)
    assert all(s.exact for s in summaries)


def test_two_phase_through_harness():
    cfg = ex.ExperimentConfig(
        graphs=[GraphSpec.grid2d(4)], protocol="two_phase", trials=6,
        master_seed=21, params={"gamma": "log_n", "pilot_trials": 16},
    )
    summaries = ex.run_trials(cfg)[0][1]
    assert all(s.exact for s in summaries)
    assert all(s.phase1_messages + s.phase2_messages == s.eta for s in summaries)


def test_two_phase_gamma_below_one_is_rejected():
    with pytest.raises(ValueError, match="gamma must be >= 1"):
        ex.ExperimentConfig(
            graphs=[GraphSpec.grid2d(5)], protocol="two_phase", trials=2,
            master_seed=8, params={"gamma": 0.5},
        )


def test_two_phase_pilot_follows_lazy_clock(monkeypatch):
    from tokengossip.engine import SynchronousDiscrete
    from tokengossip.protocols import estimate_switch_time

    switches = []
    real = ex.two_phase_run

    def recording(graph, x, fusion, switch_time, **kw):
        switches.append(switch_time)
        return real(graph, x, fusion, switch_time, **kw)

    monkeypatch.setattr(ex, "two_phase_run", recording)
    cfg = ex.ExperimentConfig(
        graphs=[GraphSpec.grid2d(5)], protocol="two_phase", trials=2,
        master_seed=8, params={"lazy_prob": 0.5},
    )
    assert all(s.exact for s in ex.run_trials(cfg)[0][1])
    g = generate(GraphSpec.grid2d(5))
    expected = estimate_switch_time(g, 4.0, 32, 8 + 0x517, SynchronousDiscrete(0.5))
    assert switches == [expected, expected]
    assert float(expected).is_integer()
