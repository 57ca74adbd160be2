"""Command-line front end: graph generation, protocol runs, analysis
reports, and scaling suites, all reproducible from (flags, files, seed).

Exit codes are a stable contract: 0 success, 2 invalid input, 3
generation failure, 4 simulation failure, 5 analysis/solver failure.
``main`` alone maps library errors to them (``ERROR_EXITS``) and prints
one stderr line per failure; any other exception keeps its traceback.  A
run manifest (config hash, seed, version, timestamps, outputs)
accompanies every run that writes files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as an
from . import experiments as ex
from .graph import (
    GRAPH_KINDS,
    GraphGenerationError,
    GraphSpec,
    diameter,
    generate,
    load_graph,
    save_graph,
)
from .protocols import ProtocolError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_SIMULATION = 4
EXIT_ANALYSIS = 5

# (error classes, exit code, stderr prefix); the first match wins, so
# LinAlgError (a ValueError) precedes ValueError.  Every OverflowError
# comes from SUM values outside int64 or whose partial sums leave it.
ERROR_EXITS = (
    ((GraphGenerationError,), EXIT_GENERATION, "generation failed"),
    ((ex.ExperimentError,), EXIT_SIMULATION, "simulation failed"),
    ((an.SolverError, np.linalg.LinAlgError), EXIT_ANALYSIS, "analysis failed"),
    ((ValueError, OSError, OverflowError, ProtocolError), EXIT_USAGE, "invalid input"),
)


def _out_root() -> Path:
    return Path(os.environ.get("TOKENGOSSIP_OUT", "."))


def _write_manifest(out_dir: Path, config: dict, master_seed: int, started: float,
                    outputs: list) -> None:
    manifest = {
        "config_hash": ex.config_hash(config),
        "config": config,
        "master_seed": master_seed,
        "tool_version": __version__,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": sorted(str(p) for p in outputs),
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _spec_from_args(args) -> GraphSpec:
    return GraphSpec(kind=args.kind, n=args.n, side=args.side, dim=args.dim,
                     radius=args.radius, degree=args.degree, seed=args.seed)


def cmd_gen(args) -> int:
    g = generate(_spec_from_args(args))
    save_graph(g, args.out)
    print(f"n={g.n} m={g.m} diameter={diameter(g)}")
    return EXIT_OK


def _load_or_generate(args) -> object:
    if args.graph:
        return load_graph(args.graph)
    if args.kind:
        return generate(_spec_from_args(args))
    raise ValueError("need --graph FILE or an inline --kind spec")


def cmd_run(args) -> int:
    g = _load_or_generate(args)
    started = time.time()
    params: dict = {}
    if args.lazy is not None:
        params["lazy_prob"] = args.lazy
    if args.proto == "gossip":
        params["eps"] = args.eps
    if args.proto == "hybrid_k":
        params["k"] = args.k
        params["horizon"] = args.horizon
    values = f"file:{args.values}" if args.values else args.values_kind
    out_dir = _out_root() / args.out if args.out else None
    x = ex.initial_values(values, g, args.fusion, args.values_seed)
    if args.proto == "two_phase":
        params = ex.resolve_two_phase(g, {**params, "gamma": args.gamma}, args.seed)
    summaries = ex.run_point(
        g, args.proto, args.fusion, x, params, args.trials, args.seed,
        jobs=args.jobs, out_dir=out_dir,
    )
    tau = float(np.mean([s.tau for s in summaries]))
    eta = float(np.mean([s.eta for s in summaries]))
    print(f"{tau!r} {eta!r} {eta / g.n!r}")
    if out_dir is not None:
        outputs = [p for t in range(args.trials) for p in ex.trial_files(out_dir, t)]
        cfg_json = {
            "protocol": args.proto,
            "fusion": args.fusion,
            "values": values,
            "values_seed": args.values_seed,
            "trials": args.trials,
            "seed": args.seed,
            "params": params,
            "clock": summaries[0].clock_mode,
            "lazy_prob": summaries[0].lazy_prob,
            "gossip_matrix": "uniform" if args.proto == "gossip" else None,
            "graph_kind": g.kind,
            "n": g.n,
        }
        _write_manifest(out_dir, cfg_json, args.seed, started, outputs)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.trials < 1 or args.tmax < 1:
        raise ValueError(f"need --trials >= 1 and --tmax >= 1, got {args.trials} and {args.tmax}")
    g = load_graph(args.graph)
    try:
        report = _analysis_report(g, args)
    except ValueError as e:  # the graph is valid, so the analysis cannot handle it
        raise an.SolverError(str(e)) from e
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _analysis_report(g, args) -> dict:
    what = args.what
    if what == "hitting":
        table = an.mean_hitting_times(g)
        out = {"sigma": table.worst_case, "max_residual": table.max_residual}
        if g.n <= 32:
            out["table"] = table.entry.tolist()
        return out
    if what == "resistance":
        rep = an.resistance_report(g)
        return {
            "rho_star": rep.rho_star,
            "sigma_bound": rep.sigma_bound,
            "argmax": list(rep.argmax),
            "edges": rep.edges,
        }
    if what == "meeting":
        table = an.mean_meeting_times(g)
        out = {"worst_case": table.worst_case, "max_residual": table.max_residual}
        if g.n <= 32:
            out["table"] = table.entry.tolist()
        return out
    if what == "decay":
        dc = an.estimate_decay(g, trials=args.trials, stream=args.seed)
        gamma = max(1, math.ceil(math.log(g.n)))
        t_gamma, bracket = dc.t_gamma(gamma)
        if args.out:
            dc.write_csv(Path(args.out).with_suffix(".csv"))
        n_hat, m_hat = dc.at(t_gamma)
        return {
            "trials": dc.trials,
            "gamma": gamma,
            "t_gamma": t_gamma,
            "t_gamma_bracket": bracket,
            "n_at_t_gamma": n_hat,
            "m_at_t_gamma": m_hat,
        }
    if what == "gaussian":
        rep = an.check_gaussian_bound(g, t_max=args.tmax)
        return {
            "feasible": rep.feasible,
            "c3": rep.c3,
            "c4": rep.c4,
            "t_max": rep.t_max,
            "lazy_prob": rep.lazy_prob,
            "violations": rep.violations,
        }
    if what == "regularity":
        rep = an.regularity_report(g, t_max=args.tmax)
        return asdict(rep)
    raise ValueError(f"unknown analysis {what!r}")


def resolve_config_path(name: str) -> Path:
    """A config flag names either a file or a bundled suite (e.g. table1)."""
    path = Path(name)
    if path.exists():
        return path
    bundled = Path(__file__).parent / "data" / (name if name.endswith(".json") else f"{name}.json")
    if bundled.exists():
        return bundled
    raise FileNotFoundError(f"no config file or bundled suite named {name!r}")


def cmd_scale(args) -> int:
    config = json.loads(resolve_config_path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("a suite config must be a JSON object")
    if args.jobs:
        config["jobs"] = args.jobs
    started = time.time()
    out_dir = _out_root() / (args.out or f"scale_{ex.config_hash(config)}")
    report = ex.run_suite(config, out_dir=out_dir)
    lines = []
    for row in report.rows:
        flag = "PASS" if row.passed else "FAIL"
        lines.append(
            f"{flag} {row.label}: slope={row.fit.slope:.3f} "
            f"band={list(row.slope_band)} r2={row.fit.r2:.4f}"
        )
    (out_dir / "table_report.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out_dir, config, int(config.get("master_seed", 0)), started,
        [out_dir / "summary.csv", out_dir / "fits.json", out_dir / "table_report.txt"],
    )
    print("\n".join(lines))
    return EXIT_OK if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokengossip",
        description="simulate and analyze token-based gossip aggregation protocols",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    graph_flags = argparse.ArgumentParser(add_help=False)  # the GraphSpec fields
    graph_flags.add_argument("--kind", choices=GRAPH_KINDS)
    graph_flags.add_argument("--n", type=int, default=0)
    graph_flags.add_argument("--side", type=int, default=0)
    graph_flags.add_argument("--dim", type=int, default=2)
    graph_flags.add_argument("--radius", type=float, default=0.0)
    graph_flags.add_argument("--degree", type=int, default=6)
    graph_flags.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen", parents=[graph_flags], help="generate a graph file")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", parents=[graph_flags], help="run protocol trials")
    p_run.add_argument("--proto", required=True,
                       choices=["srw", "crw", "gossip", "two_phase", "hybrid_k"])
    p_run.add_argument("--graph")
    p_run.add_argument("--fusion", default="sum", choices=["sum", "max", "wavg"])
    p_run.add_argument("--values", help="values file, one per line")
    p_run.add_argument("--values-kind", default="uniform", choices=["spike", "uniform"])
    p_run.add_argument("--values-seed", type=int, default=1)
    p_run.add_argument("--trials", type=int, default=100)
    p_run.add_argument("--gamma", help="two-phase target token count, or log_n")
    p_run.add_argument("--eps", type=float, default=0.01)
    p_run.add_argument("--k", type=int, default=2)
    p_run.add_argument("--horizon", type=float, default=100.0)
    p_run.add_argument("--lazy", type=float, default=None,
                       help="synchronous rounds with this lazy probability")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", help="directory for per-trial traces + manifest")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="exact/MC analysis of a graph file")
    p_an.add_argument("--what", required=True,
                      choices=["hitting", "resistance", "meeting", "decay",
                               "gaussian", "regularity"])
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--tmax", type=int, default=40)
    p_an.add_argument("--trials", type=int, default=100)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out")
    p_an.set_defaults(func=cmd_analyze)

    p_sc = sub.add_parser("scale", help="run a scaling suite from a JSON config")
    p_sc.add_argument("--config", required=True)
    p_sc.add_argument("--out")
    p_sc.add_argument("--jobs", type=int, default=0)
    p_sc.set_defaults(func=cmd_scale)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        for classes, code, what in ERROR_EXITS:
            if isinstance(e, classes):
                print(f"{what}: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
