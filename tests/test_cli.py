import json
import warnings
from pathlib import Path

import pytest

from tokengossip.cli import main
from tokengossip.graph import load_graph


def run_cli(args, monkeypatch, tmp_path):
    monkeypatch.setenv("TOKENGOSSIP_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return main(args)


def test_gen_torus(tmp_path, monkeypatch, capsys):
    rc = run_cli(["gen", "--kind", "torus", "--side", "8", "--dim", "2",
                  "--out", str(tmp_path / "t.graph")], monkeypatch, tmp_path)
    assert rc == 0
    g = load_graph(tmp_path / "t.graph")
    assert g.n == 64 and g.m == 128
    out = capsys.readouterr().out
    assert "n=64" in out and "m=128" in out


def test_gen_deterministic(tmp_path, monkeypatch):
    for name in ("a.graph", "b.graph"):
        rc = run_cli(["gen", "--kind", "rgg", "--n", "100", "--seed", "7",
                      "--out", str(tmp_path / name)], monkeypatch, tmp_path)
        assert rc == 0
    assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()


def test_gen_exit_codes(tmp_path, monkeypatch):
    # unreachable radius: connectivity failure is exit 3
    rc = run_cli(["gen", "--kind", "rgg", "--n", "64", "--seed", "1",
                  "--radius", "0.01", "--out", str(tmp_path / "x.graph")],
                 monkeypatch, tmp_path)
    assert rc == 3
    rc = run_cli(["gen", "--kind", "torus", "--side", "2", "--dim", "2",
                  "--out", str(tmp_path / "y.graph")], monkeypatch, tmp_path)
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--kind", "dodecahedron", "--out", "z"], monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_run_summary_line(tmp_path, monkeypatch, capsys):
    rc = run_cli(["gen", "--kind", "ring", "--n", "8",
                  "--out", str(tmp_path / "r.graph")], monkeypatch, tmp_path)
    assert rc == 0
    capsys.readouterr()
    rc = run_cli(["run", "--proto", "crw", "--graph", str(tmp_path / "r.graph"),
                  "--fusion", "sum", "--trials", "20", "--seed", "1"],
                 monkeypatch, tmp_path)
    assert rc == 0
    fields = capsys.readouterr().out.strip().split()
    assert len(fields) == 3
    [float(f) for f in fields]  # tau_mean eta_mean eta_per_node


def test_run_invalid_proto_exits_2(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--proto", "teleport", "--kind", "ring", "--n", "4"],
                monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_run_two_phase_consensus(tmp_path, monkeypatch, capsys):
    rc = run_cli(["run", "--proto", "two_phase", "--kind", "grid2d", "--side", "4",
                  "--gamma", "log_n", "--trials", "5", "--seed", "3"],
                 monkeypatch, tmp_path)
    assert rc == 0  # exactness is verified before exit 0


@pytest.mark.parametrize("args", [
    ["--proto", "crw", "--kind", "ring", "--n", "8", "--trials", "1"],
    ["--proto", "two_phase", "--kind", "grid2d", "--side", "4"],
])
def test_run_lazy_zero_on_bipartite_graph_exits_2(args, tmp_path, monkeypatch, capsys):
    rc = run_cli(["run", *args, "--lazy", "0"], monkeypatch, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "bipartite" in err


def test_run_inexact_walk_exits_4(tmp_path, monkeypatch, capsys):
    import dataclasses

    from tokengossip import experiments as ex
    from tokengossip.fusion import TokenPayload

    real = ex.run

    def zero_payload(state, stop, **kw):
        tr = real(state, stop, **kw)
        return dataclasses.replace(tr, final_payload=TokenPayload(0, tr.n))

    monkeypatch.setattr(ex, "run", zero_payload)
    rc = run_cli(["run", "--proto", "crw", "--kind", "ring", "--n", "8", "--values-kind",
                  "spike", "--trials", "2"], monkeypatch, tmp_path)
    assert rc == 4
    assert capsys.readouterr().err.startswith("simulation failed:")


def test_run_gossip(tmp_path, monkeypatch, capsys):
    rc = run_cli(["run", "--proto", "gossip", "--kind", "ring", "--n", "16",
                  "--eps", "0.2", "--trials", "2", "--seed", "2"],
                 monkeypatch, tmp_path)
    assert rc == 0
    fields = capsys.readouterr().out.strip().split()
    assert len(fields) == 3


def test_run_writes_traces_and_manifest(tmp_path, monkeypatch):
    out = "rundir"
    rc = run_cli(["run", "--proto", "crw", "--kind", "torus", "--side", "3",
                  "--trials", "3", "--seed", "5", "--out", out],
                 monkeypatch, tmp_path)
    assert rc == 0
    d = tmp_path / out
    assert (d / "trial_0000.csv").exists()
    assert (d / "trial_0000_nodes.csv").exists()
    assert (d / "trial_0002.json").exists()
    manifest = json.loads((d / "run_manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["master_seed"] == 5
    assert manifest["config_hash"]


def test_run_two_phase_lazy_pilot_follows_clock(tmp_path, monkeypatch):
    from tokengossip.engine import SynchronousDiscrete
    from tokengossip.graph import GraphSpec, generate
    from tokengossip.protocols import estimate_switch_time

    rc = run_cli(["run", "--proto", "two_phase", "--kind", "grid2d", "--side", "6",
                  "--lazy", "0.5", "--trials", "2", "--seed", "4", "--out", "lz"],
                 monkeypatch, tmp_path)
    assert rc == 0
    params = json.loads((tmp_path / "lz" / "run_manifest.json").read_text())["config"]["params"]
    g = generate(GraphSpec.grid2d(6))
    expected = estimate_switch_time(g, 4.0, 32, 4 + 0x517, SynchronousDiscrete(0.5))
    assert params["switch_time"] == expected
    assert float(params["switch_time"]).is_integer()  # a number of rounds


@pytest.mark.parametrize("proto", [
    ["gossip", "--eps", "0.01"],
    ["hybrid_k", "--fusion", "wavg", "--k", "2", "--horizon", "5"],
])
def test_continuous_only_protocols_reject_lazy(tmp_path, monkeypatch, capsys, proto):
    rc = run_cli(["run", "--proto", *proto, "--kind", "ring", "--n", "8", "--trials", "2",
                  "--lazy", "0.5", "--out", "lz"], monkeypatch, tmp_path)
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "lz").exists()


def test_run_rejects_zero_trials(tmp_path, monkeypatch, capsys):
    rc = run_cli(["run", "--proto", "crw", "--kind", "ring", "--n", "8", "--trials", "0",
                  "--out", "none"], monkeypatch, tmp_path)
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("proto", [["crw"], ["crw", "--lazy", "0.25"],
                                   ["gossip", "--eps", "0.01"],
                                   ["hybrid_k", "--fusion", "wavg", "--k", "2"]])
def test_manifest_clock_is_the_trials_clock(tmp_path, monkeypatch, proto):
    rc = run_cli(["run", "--proto", *proto, "--kind", "ring", "--n", "8", "--trials", "2",
                  "--out", "clk"], monkeypatch, tmp_path)
    assert rc == 0
    config = json.loads((tmp_path / "clk" / "run_manifest.json").read_text())["config"]
    for t in range(2):
        meta = json.loads((tmp_path / "clk" / f"trial_{t:04d}.json").read_text())
        assert (config["clock"], config["lazy_prob"]) == (meta["clock_mode"], meta["lazy_prob"])


def test_run_out_simulates_each_trial_once(tmp_path, monkeypatch):
    from tokengossip import experiments as ex
    from tokengossip import protocols

    calls = []
    real = protocols.two_phase_run

    def counted(*a, **kw):
        calls.append(kw.get("stream_id"))
        return real(*a, **kw)

    monkeypatch.setattr(protocols, "two_phase_run", counted)
    monkeypatch.setattr(ex, "two_phase_run", counted)
    rc = run_cli(["run", "--proto", "two_phase", "--kind", "grid2d", "--side", "4",
                  "--trials", "3", "--seed", "6", "--out", "once"], monkeypatch, tmp_path)
    assert rc == 0
    assert sorted(calls) == [0, 1, 2]
    for t in range(3):
        meta = json.loads((tmp_path / "once" / f"trial_{t:04d}.json").read_text())
        assert meta["gamma"] == 3.0  # ceil(ln 16)


@pytest.mark.parametrize("lazy", [[], ["--lazy", "0.5"]])
@pytest.mark.parametrize("proto", ["crw", "two_phase"])
def test_trajectory_rows_are_plain_numbers_without_repeats(tmp_path, monkeypatch, proto, lazy):
    rc = run_cli(["run", "--proto", proto, "--kind", "grid2d", "--side", "6",
                  "--trials", "3", "--seed", "2", *lazy, "--out", "tr"], monkeypatch, tmp_path)
    assert rc == 0
    for t in range(3):
        lines = (tmp_path / "tr" / f"trial_{t:04d}.csv").read_text().splitlines()
        assert lines[0] == "t,active_count,total_messages"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert all(a != b for a, b in zip(rows, rows[1:]))
        if proto == "two_phase":
            # the curve keeps its point at the switch, carrying the phase-1 messages
            meta = json.loads((tmp_path / "tr" / f"trial_{t:04d}.json").read_text())
            assert [meta["switch_time"], meta["phase1_messages"]] in [[r[0], r[2]] for r in rows]


def test_analyze_decay_csv_is_plain_numbers(tmp_path, monkeypatch):
    rc = run_cli(["gen", "--kind", "ring", "--n", "12", "--out", str(tmp_path / "r.graph")],
                 monkeypatch, tmp_path)
    assert rc == 0
    rc = run_cli(["analyze", "--what", "decay", "--graph", str(tmp_path / "r.graph"),
                  "--trials", "10", "--out", str(tmp_path / "d.json")], monkeypatch, tmp_path)
    assert rc == 0
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "t,N_hat,stderr,M_hat"
    assert all(len([float(v) for v in line.split(",")]) == 4 for line in lines[1:])


@pytest.mark.parametrize("gamma", ["0.5", "nan"])
def test_run_two_phase_gamma_below_one_exits_2(tmp_path, monkeypatch, capsys, gamma):
    rc = run_cli(["run", "--proto", "two_phase", "--kind", "grid2d", "--side", "5",
                  "--gamma", gamma, "--trials", "2", "--out", "g"], monkeypatch, tmp_path)
    assert rc == 2
    assert "gamma must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_run_wavg_non_finite_value_exits_2(tmp_path, monkeypatch, capsys, bad):
    (tmp_path / "x.txt").write_text("\n".join([bad] + ["1"] * 7) + "\n")
    rc = run_cli(["run", "--proto", "crw", "--fusion", "wavg", "--kind", "ring", "--n", "8",
                  "--values", str(tmp_path / "x.txt"), "--trials", "2"], monkeypatch, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "finite" in err


@pytest.mark.parametrize("horizon", ["-1", "nan"])
def test_run_hybrid_bad_horizon_exits_2(tmp_path, monkeypatch, capsys, horizon):
    rc = run_cli(["run", "--proto", "hybrid_k", "--fusion", "wavg", "--k", "2", "--kind", "ring",
                  "--n", "8", "--trials", "2", "--horizon", horizon], monkeypatch, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "stop time" in err


@pytest.mark.parametrize("what,flag", [("decay", ["--trials", "0"]),
                                       ("gaussian", ["--tmax", "-1"])])
def test_analyze_rejects_counts_below_one(tmp_path, monkeypatch, capsys, what, flag):
    run_cli(["gen", "--kind", "ring", "--n", "8", "--out", str(tmp_path / "r.graph")],
            monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", what, "--graph", str(tmp_path / "r.graph"), *flag],
                 monkeypatch, tmp_path)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


def test_graph_file_endpoint_out_of_range_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.graph").write_text("4 4 ring 0\n0 1\n1 2\n2 3\n3 4\n")
    for cmd in (["run", "--proto", "crw", "--trials", "2"], ["analyze", "--what", "hitting"]):
        rc = run_cli(cmd + ["--graph", str(tmp_path / "bad.graph")], monkeypatch, tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "[0, 4)" in err


def test_analyze_regularity_torus(tmp_path, monkeypatch, capsys):
    run_cli(["gen", "--kind", "torus", "--side", "5", "--dim", "2",
             "--out", str(tmp_path / "t5.graph")], monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", "regularity", "--tmax", "6",
                  "--graph", str(tmp_path / "t5.graph")], monkeypatch, tmp_path)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["doubling_pass"] is True and rep["gaussian_pass"] is True


def test_analyze_resistance_ring4(tmp_path, monkeypatch, capsys):
    rc = run_cli(["gen", "--kind", "ring", "--n", "4",
                  "--out", str(tmp_path / "r4.graph")], monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", "resistance", "--graph", str(tmp_path / "r4.graph")],
                 monkeypatch, tmp_path)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rho_star"] == pytest.approx(1.0)
    assert rep["sigma_bound"] == pytest.approx(8.0)


def test_analyze_hitting_clique3(tmp_path, monkeypatch, capsys):
    run_cli(["gen", "--kind", "clique", "--n", "3",
             "--out", str(tmp_path / "k3.graph")], monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", "hitting", "--graph", str(tmp_path / "k3.graph")],
                 monkeypatch, tmp_path)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["sigma"] == pytest.approx(2.0)


def test_analyze_gaussian_torus(tmp_path, monkeypatch, capsys):
    run_cli(["gen", "--kind", "torus", "--side", "5", "--dim", "2",
             "--out", str(tmp_path / "t5.graph")], monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", "gaussian", "--tmax", "12",
                  "--graph", str(tmp_path / "t5.graph")], monkeypatch, tmp_path)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["feasible"] is True and rep["violations"] == []


def test_analyze_gaussian_on_one_node_exits_5_with_one_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "one.graph").write_text("1 0 single 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        rc = run_cli(["analyze", "--what", "gaussian", "--graph", str(tmp_path / "one.graph")],
                     monkeypatch, tmp_path)
    assert rc == 5
    assert capsys.readouterr().err == (
        "analysis failed: the Gaussian bound needs at least two nodes\n")


def test_hybrid_on_one_node_runs_to_its_horizon(tmp_path, monkeypatch, capsys):
    # the lone node has no one to send to, like CRW and SRW on that file
    (tmp_path / "one.graph").write_text("1 0 single 0\n")
    rc = run_cli(["run", "--proto", "hybrid_k", "--fusion", "wavg", "--k", "1",
                  "--graph", str(tmp_path / "one.graph")], monkeypatch, tmp_path)
    assert rc == 0
    assert capsys.readouterr().out == "100.0 0.0 0.0\n"


def test_analyze_meeting_clique4_reports_its_residual(tmp_path, monkeypatch, capsys):
    run_cli(["gen", "--kind", "clique", "--n", "4",
             "--out", str(tmp_path / "k4.graph")], monkeypatch, tmp_path)
    capsys.readouterr()
    rc = run_cli(["analyze", "--what", "meeting", "--graph", str(tmp_path / "k4.graph")],
                 monkeypatch, tmp_path)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["worst_case"] == pytest.approx(1.5)
    assert 0.0 <= rep["max_residual"] <= 1e-9
    assert len(rep["table"]) == 4


def test_analyze_solver_failure_exit_5(tmp_path, monkeypatch):
    run_cli(["gen", "--kind", "ring", "--n", "120",
             "--out", str(tmp_path / "big.graph")], monkeypatch, tmp_path)
    rc = run_cli(["analyze", "--what", "meeting", "--graph", str(tmp_path / "big.graph")],
                 monkeypatch, tmp_path)
    assert rc == 5


SMALL_SUITE = {
    "master_seed": 77,
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
            "trials": 40,
            "slope_band": [0.7, 1.3],
            "r2_min": 0.9,
        }
    ],
}


def test_scale_passes_and_reruns_identically(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(SMALL_SUITE))
    rc1 = run_cli(["scale", "--config", str(cfg), "--out", "s1"], monkeypatch, tmp_path)
    rc2 = run_cli(["scale", "--config", str(cfg), "--out", "s2"], monkeypatch, tmp_path)
    assert rc1 == 0 and rc2 == 0
    for name in ("summary.csv", "fits.json", "table_report.txt"):
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()


def test_scale_empty_config_exit_2(tmp_path, monkeypatch):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"rows": []}))
    rc = run_cli(["scale", "--config", str(cfg)], monkeypatch, tmp_path)
    assert rc == 2


def test_scale_failing_band_nonzero_exit(tmp_path, monkeypatch, capsys):
    bad = json.loads(json.dumps(SMALL_SUITE))
    bad["rows"][0]["slope_band"] = [1.9, 2.0]  # cannot hold for a linear law
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    rc = run_cli(["scale", "--config", str(cfg), "--out", "sb"], monkeypatch, tmp_path)
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_bundled_table1_config_is_wellformed():
    import tokengossip

    bundled = Path(tokengossip.__file__).parent / "data" / "table1.json"
    config = json.loads(bundled.read_text())
    assert config["rows"]
    for row in config["rows"]:
        assert {"label", "protocol", "metric", "predictor", "sweep"} <= set(row)
        assert len(row["sweep"]) >= 4


def test_manifest_hash_matches_embedded_config(tmp_path, monkeypatch):
    from tokengossip import experiments as ex

    rc = run_cli(["run", "--proto", "crw", "--kind", "ring", "--n", "6",
                  "--trials", "2", "--seed", "8", "--out", "mh"],
                 monkeypatch, tmp_path)
    assert rc == 0
    manifest = json.loads((tmp_path / "mh" / "run_manifest.json").read_text())
    assert manifest["config_hash"] == ex.config_hash(manifest["config"])


def test_bundled_config_resolution(tmp_path):
    from tokengossip.cli import resolve_config_path

    p = resolve_config_path("table1")
    assert p.name == "table1.json" and p.exists()
    assert resolve_config_path("table1.json") == p
    explicit = tmp_path / "mine.json"
    explicit.write_text("{}")
    assert resolve_config_path(str(explicit)) == explicit
    with pytest.raises(FileNotFoundError):
        resolve_config_path("no_such_suite")


def _values_run(values, proto="crw", *flags):
    def argv(tmp_path):
        (tmp_path / "v.txt").write_text("\n".join(map(str, values)) + "\n")
        return ["run", "--proto", proto, "--kind", "ring", "--n", "4",
                "--values", str(tmp_path / "v.txt"), "--trials", "20", *flags]
    return argv


def _suite_scale(**changes):
    def argv(tmp_path):
        row = {**SMALL_SUITE["rows"][0], "trials": 4, **changes}
        row = {k: v for k, v in row.items() if v is not None}
        (tmp_path / "suite.json").write_text(json.dumps({"master_seed": 77, "rows": [row]}))
        return ["scale", "--config", str(tmp_path / "suite.json"), "--out", "s"]
    return argv


def _suite_gossip(**params):
    return _suite_scale(protocol="gossip", metric="eta_per_node", params={"eps": 0.01, **params})


def _suite_second_row(**changes):
    """A two-row suite: a good first row, then a second one with ``changes``."""
    def argv(tmp_path):
        good = {**SMALL_SUITE["rows"][0], "trials": 4}
        (tmp_path / "suite.json").write_text(json.dumps(
            {"master_seed": 77, "rows": [good, {**good, "label": "second", **changes}]}))
        return ["scale", "--config", str(tmp_path / "suite.json"), "--out", "s"]
    return argv


def _suite_file(config, *flags):
    def argv(tmp_path):
        (tmp_path / "suite.json").write_text(json.dumps(config))
        return ["scale", "--config", str(tmp_path / "suite.json"), *flags, "--out", "s"]
    return argv


def _out_under_missing_dir(cmd):
    def argv(tmp_path):
        from tokengossip.graph import GraphSpec, generate, save_graph

        save_graph(generate(GraphSpec.ring(8)), tmp_path / "r.graph")
        (tmp_path / "file").write_text("")
        return {
            "gen": ["gen", "--kind", "ring", "--n", "8", "--out", str(tmp_path / "no" / "x.graph")],
            # run --out creates missing parents, so its parent is a regular file
            "run": ["run", "--proto", "crw", "--kind", "ring", "--n", "8", "--trials", "2",
                    "--out", "file/d"],
            "analyze": ["analyze", "--what", "hitting", "--graph", str(tmp_path / "r.graph"),
                        "--out", str(tmp_path / "no" / "a.json")],
        }[cmd]
    return argv


def _graph_file(text):
    def argv(tmp_path):
        (tmp_path / "g.graph").write_text(text)
        return ["run", "--proto", "crw", "--graph", str(tmp_path / "g.graph"), "--trials", "1"]
    return argv


FLOOD_OVERFLOW = [2**62, 2**62, -(2**62), -(2**62) + 1]

BAD_INPUTS = {
    "sum_total_overflows": _values_run([2**62, 2**62, 1, 1]),
    "sum_partial_overflows": _values_run([2**62, 2**62, -(2**62), -(2**62) + 1]),
    "sum_value_outside_int64": _values_run([2**64, 1, 1, 1]),
    # gamma n floods from every node at once, whose partial sums overflow
    "flood_sum_partial_overflows": _values_run(FLOOD_OVERFLOW, "two_phase", "--gamma", "4"),
    "flood_sum_partial_overflows_in_rounds": _values_run(FLOOD_OVERFLOW, "two_phase",
                                                         "--gamma", "4", "--lazy", "0.5"),
    "scale_three_points": _suite_scale(sweep=[{"kind": "clique", "n": n} for n in (8, 16, 24)]),
    "scale_lazy_zero_ring": _suite_scale(sweep=[{"kind": "ring", "n": n} for n in (8, 12, 16, 20)],
                                         params={"lazy_prob": 0}),
    "scale_no_predictor": _suite_scale(predictor=None),
    "scale_unknown_sweep_field": _suite_scale(sweep=[{"kind": "ring", "nodes": 8}] * 4),
    "scale_unread_param": _suite_scale(params={"lazy": 0.5}),
    "scale_gossip_without_eps": _suite_scale(protocol="gossip"),
    "scale_config_is_a_list": _suite_file([1, 2]),
    "scale_config_is_a_list_with_jobs": _suite_file([1, 2], "--jobs", "2"),
    "scale_row_is_not_an_object": _suite_file({"rows": [1]}),
    "scale_master_seed_is_a_list": _suite_file({"master_seed": [1], "rows": SMALL_SUITE["rows"]}),
    "scale_sweep_of_numbers": _suite_scale(sweep=[4, 5, 6, 7]),
    "scale_sweep_is_a_number": _suite_scale(sweep=5),
    "scale_params_is_a_number": _suite_scale(params=5),
    "scale_sweep_n_is_a_float": _suite_scale(
        sweep=[{"kind": "ring", "n": n} for n in (8, 10, 12, 14.5)]),
    "scale_sweep_n_is_a_whole_float": _suite_scale(
        sweep=[{"kind": "clique", "n": n} for n in (8, 16, 24.0, 32)]),
    "scale_sweep_n_is_a_string": _suite_scale(
        sweep=[{"kind": "clique", "n": n} for n in (8, "8", 16, 24)]),
    "scale_sweep_n_is_a_bool": _suite_scale(
        sweep=[{"kind": "clique", "n": n} for n in (True, 8, 16, 24)]),
    "scale_sweep_side_is_a_float": _suite_scale(
        sweep=[{"kind": "torus", "side": s} for s in (3, 4, 5, 6.0)]),
    "scale_sweep_dim_is_a_float": _suite_scale(
        sweep=[{"kind": "torus", "side": s, "dim": 2.0} for s in (3, 4, 5, 6)]),
    "scale_sweep_degree_is_a_float": _suite_scale(
        sweep=[{"kind": "random_regular", "n": n, "degree": d, "seed": 1}
               for n, d in ((8, 3), (10, 3), (12, 3), (14, 3.0))]),
    "scale_sweep_rgg_radius_is_a_bool": _suite_scale(
        sweep=[{"kind": "rgg", "n": n, "radius": True} for n in (20, 24, 28, 32)]),
    "scale_sweep_rgg_seed_is_a_float": _suite_scale(
        sweep=[{"kind": "rgg", "n": n, "seed": s} for n, s in ((20, 1), (24, 1), (28, 1), (32, 1.5))]),
    "scale_trials_is_a_float": _suite_scale(trials=3.9),
    "scale_trials_is_a_string": _suite_scale(trials="4"),
    "scale_master_seed_is_a_float": _suite_file({"master_seed": 1.5, "rows": SMALL_SUITE["rows"]}),
    "scale_master_seed_is_a_string": _suite_file({"master_seed": "7", "rows": SMALL_SUITE["rows"]}),
    "scale_jobs_is_a_float": _suite_file({"jobs": 2.5, "rows": SMALL_SUITE["rows"]}),
    "scale_jobs_zero": _suite_file({"jobs": 0, "rows": SMALL_SUITE["rows"]}),
    "scale_jobs_negative": _suite_file({"jobs": -3, "rows": SMALL_SUITE["rows"]}),
    "scale_jobs_flag_negative": _suite_file(SMALL_SUITE, "--jobs", "-3"),
    "run_jobs_zero": lambda tmp_path: [
        "run", "--proto", "crw", "--kind", "ring", "--n", "8", "--trials", "2", "--jobs", "0"],
    "run_jobs_negative": lambda tmp_path: [
        "run", "--proto", "crw", "--kind", "ring", "--n", "8", "--trials", "2", "--jobs", "-3"],
    "run_two_phase_infinite_gamma": lambda tmp_path: [
        "run", "--proto", "two_phase", "--kind", "ring", "--n", "8", "--gamma", "inf",
        "--trials", "1", "--out", "g1"],
    "scale_gossip_z0_typo": _suite_scale(protocol="gossip", metric="eta_per_node",
                                         params={"eps": 0.01}, values="slowmode"),
    "scale_gossip_with_fusion": _suite_scale(protocol="gossip", metric="eta_per_node",
                                             params={"eps": 0.01}, fusion="sum"),
    "scale_lazy_prob_is_a_string": _suite_scale(params={"lazy_prob": "x"}),
    "scale_slope_band_is_a_number": _suite_scale(slope_band=5),
    "scale_slope_band_of_one": _suite_scale(slope_band=[1]),
    "scale_crw_with_eps": _suite_scale(eps=0.01),
    "scale_crw_with_z0": _suite_scale(z0="spike"),
    "scale_second_row_ring_of_one": _suite_second_row(
        sweep=[{"kind": "ring", "n": n} for n in (1, 6, 8, 10)]),
    "scale_second_row_hybrid_k_without_wavg": _suite_second_row(
        protocol="hybrid_k", params={"k": 2}),
    "scale_gossip_horizon_is_a_string": _suite_gossip(horizon="abc"),
    "scale_gossip_horizon_is_a_float": _suite_gossip(horizon=10.5),
    "scale_gossip_horizon_is_a_bool": _suite_gossip(horizon=True),
    "scale_gossip_horizon_zero": _suite_gossip(horizon=0),
    "scale_hybrid_k_horizon_is_a_string": _suite_scale(protocol="hybrid_k", fusion="wavg",
                                                       params={"k": 2, "horizon": "abc"}),
    "scale_hybrid_k_k_is_a_string": _suite_scale(protocol="hybrid_k", fusion="wavg",
                                                 params={"k": "2"}),
    "scale_two_phase_no_pilot_trials": _suite_scale(protocol="two_phase",
                                                    params={"pilot_trials": 0}),
    "scale_two_phase_sets_switch_time": _suite_scale(protocol="two_phase",
                                                     params={"switch_time": 123.0}),
    "run_hybrid_k_without_wavg": lambda tmp_path: [
        "run", "--proto", "hybrid_k", "--kind", "ring", "--n", "8", "--k", "2", "--trials", "1"],
    "run_gossip_with_wavg": lambda tmp_path: [
        "run", "--proto", "gossip", "--kind", "ring", "--n", "8", "--fusion", "wavg",
        "--trials", "1"],
    "run_gossip_with_max": lambda tmp_path: [
        "run", "--proto", "gossip", "--kind", "ring", "--n", "8", "--fusion", "max",
        "--trials", "1"],
    "run_hybrid_k_infinite_horizon": lambda tmp_path: [
        "run", "--proto", "hybrid_k", "--kind", "ring", "--n", "8", "--fusion", "wavg",
        "--horizon", "inf", "--trials", "1"],
    "gen_rgg_negative_radius": lambda tmp_path: [
        "gen", "--kind", "rgg", "--n", "30", "--radius", "-1", "--out", "x.graph"],
    # first arrays of 355 PiB and 2 EiB: past any host's address space, so they fail at once
    "gen_torus_too_large": lambda tmp_path: [
        "gen", "--kind", "torus", "--side", "3", "--dim", "35", "--out", "x.graph"],
    "gen_grid2d_too_large": lambda tmp_path: [
        "gen", "--kind", "grid2d", "--side", "536870912", "--out", "x.graph"],
    "gen_rgg_nan_radius": lambda tmp_path: [
        "gen", "--kind", "rgg", "--n", "30", "--radius", "nan", "--out", "x.graph"],
    "graph_coordinates_not_finite": _graph_file("2 1 rgg 0\n0 1\nc 0.5 0.5\nc nan inf\n"),
    "gen_out_missing_dir": _out_under_missing_dir("gen"),
    "run_out_missing_dir": _out_under_missing_dir("run"),
    "analyze_out_missing_dir": _out_under_missing_dir("analyze"),
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    rc = run_cli(argv(tmp_path), monkeypatch, tmp_path)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("invalid input: ")
    assert "Traceback" not in err


def test_jobs_and_gamma_refusals_say_what_is_wrong(tmp_path, monkeypatch, capsys):
    for name, words in [("run_jobs_zero", "jobs must be an int >= 1, not 0"),
                        ("scale_jobs_negative", "suite jobs must be >= 1, not -3"),
                        ("scale_jobs_flag_negative", "--jobs must be >= 0"),
                        ("run_two_phase_infinite_gamma", "gamma must be finite, not inf")]:
        assert run_cli(BAD_INPUTS[name](tmp_path), monkeypatch, tmp_path) == 2
        assert words in capsys.readouterr().err
    assert not (tmp_path / "g1").exists()


def _strict_json(path: Path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which RFC 8259 JSON has no place for")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("flags", [
    ["--proto", "two_phase", "--kind", "ring", "--n", "8", "--gamma", "8"],
    ["--proto", "two_phase", "--kind", "grid2d", "--side", "4", "--lazy", "0.5"],
    ["--proto", "crw", "--kind", "torus", "--side", "4"],
    ["--proto", "gossip", "--kind", "ring", "--n", "8"],
    ["--proto", "hybrid_k", "--kind", "ring", "--n", "8", "--fusion", "wavg", "--horizon", "5"],
], ids=["two_phase_gamma_n", "two_phase_rounds", "crw", "gossip", "hybrid_k"])
def test_run_out_writes_strict_json(flags, tmp_path, monkeypatch):
    assert run_cli(["run", *flags, "--trials", "2", "--out", "o"], monkeypatch, tmp_path) == 0
    files = sorted((tmp_path / "o").glob("*.json"))
    assert len(files) == 3  # two trials' metadata and the manifest
    for path in files:
        _strict_json(path)


@pytest.mark.parametrize("name", ["run_hybrid_k_without_wavg",
                                  "scale_second_row_hybrid_k_without_wavg"])
def test_hybrid_k_without_wavg_says_it_needs_wavg(name, tmp_path, monkeypatch, capsys):
    assert run_cli(BAD_INPUTS[name](tmp_path), monkeypatch, tmp_path) == 2
    assert "fusion wavg" in capsys.readouterr().err
