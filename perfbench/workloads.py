"""The three benchmark workloads.

Each workload turns a pass seed into inputs (``inputs``), makes the
library calls of one pass (``execute``, the only timed part), and checks
the outputs (``check``), returning a ``PassResult``.

- ``sweep``: the ``scale --config table1`` traffic, cut down.  The CRW
  and SRW time rows of the bundled table1 suite, each through
  ``run_trials`` -> ``aggregate`` -> ``fit_scaling``.  Nearly all time is
  in the continuous-clock walk loop; no files, no analysis solves.
- ``run_out``: the ``tokengossip run --out`` traffic through ``cli.main``:
  two-phase with discrete rounds and with the continuous clock on a
  20x20 grid, and gossip on a 12x12 torus.  Discrete rounds, controlled
  flooding, float averaging, the CLI's switch-time pilot and trial
  re-runs, and output writing.
- ``analysis``: the ``tokengossip analyze`` traffic: dense hitting and
  resistance solves, decay estimates, heat-kernel bounds and regularity
  checks on four generated graphs, and sparse meeting-time solves on four
  small ones.  Sizes are below the CLI examples so that one pass takes
  about two seconds; meeting times use 36-node graphs because sparse-LU
  fill-in makes the 64-node torus solve take seconds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import library_namespaces, trace_counts
from tracer import SpanRecorder, Target, instrumented

from tokengossip import analysis as an
from tokengossip import cli, graph, protocols
from tokengossip import experiments as ex
from tokengossip.graph import GraphSpec


@dataclass
class PassResult:
    ops: int
    failed: int
    events: int
    digest: str
    trials_written: int = 0
    files: int = 0
    nbytes: int = 0


def _report(what: str) -> None:
    traceback.print_exc()
    print(f"perfbench: {what} failed", flush=True, file=sys.stderr)


def _fmt(x) -> str:
    """Solver outputs rounded to 10 significant digits, so that the digest
    follows the computed values and not the last bits of a BLAS sum."""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.10g}"
    return repr(x)


def warm_up(tiny: bool) -> None:
    """Cold OpenBLAS and LAPACK calls cost up to a second each on first
    use; pay that in set-up, at the size the workloads use."""
    g = graph.generate(GraphSpec.torus(4 if tiny else 12, 2))
    an.mean_hitting_times(g)
    an.resistance_report(g)
    an.check_gaussian_bound(g, t_max=2)
    an.mean_meeting_times(graph.generate(GraphSpec.torus(3, 2)))
    an.estimate_decay(g, trials=2, stream=0)


class Sweep:
    name = "sweep"
    # trials per table1 row; table1 itself uses 300/200/50/40/300
    TRIALS = {
        "clique/CRW/time": 12,
        "clique/SRW/time": 8,
        "ring/SRW/time": 4,
        "ring/CRW/time": 4,
        "torus2d/CRW/time": 8,
    }
    TINY = {"clique/CRW/time": 2, "clique/SRW/time": 2}

    def __init__(self, tiny: bool, workdir: Path):
        trials = self.TINY if tiny else self.TRIALS
        rows = json.loads(cli.resolve_config_path("table1").read_text())["rows"]
        sweeps = {r["label"]: r["sweep"] for r in rows}
        # ring/SRW runs on the ring/CRW sizes (32-256), not 64-512: one SRW
        # trial on ring 512 takes 0.35 s and its message count varies by 68%,
        # so those trials alone would set most of the run-to-run spread.
        sweeps["ring/SRW/time"] = sweeps["ring/CRW/time"]
        self.rows = [
            (r["label"], r["protocol"], r["predictor"], trials[r["label"]],
             [GraphSpec(**s) for s in sweeps[r["label"]]])
            for r in rows if r["label"] in trials
        ]

    def inputs(self, seed: int) -> list:
        return [
            (label, predictor, ex.ExperimentConfig(
                graphs=specs, protocol=proto, trials=trials, master_seed=seed))
            for label, proto, predictor, trials, specs in self.rows
        ]

    def execute(self, inputs: list) -> list:
        out = []
        for label, predictor, cfg in inputs:
            try:
                points = ex.run_trials(cfg)
                records = [ex.aggregate(summaries, "tau", seed=cfg.master_seed)
                           for _, summaries in points.values()]
                out.append((points, ex.fit_scaling(records, predictor)))
            except Exception:
                _report(f"sweep row {label}")
                out.append(None)
        return out

    def check(self, inputs: list, raw: list) -> PassResult:
        h = hashlib.sha256()
        ops = failed = events = 0
        for (label, _, cfg), got in zip(inputs, raw):
            row_ops = cfg.trials * len(cfg.graphs)
            ops += row_ops
            h.update(label.encode())
            if got is None:
                failed += row_ops
                continue
            points, fit = got
            for graph, summaries in points.values():
                for s in summaries:
                    failed += not (s.completed and s.exact)
                    events += s.eta
                    h.update(f"{graph.n},{s.trial},{s.tau!r},{s.eta};".encode())
            h.update(repr(fit.slope).encode())
        return PassResult(ops, failed, events, h.hexdigest())


class RunOut:
    name = "run_out"

    def __init__(self, tiny: bool, workdir: Path):
        self.workdir = workdir
        self.trials = 2 if tiny else 10
        grid = graph.generate(GraphSpec.grid2d(5 if tiny else 20))
        torus = graph.generate(GraphSpec.torus(4 if tiny else 12, 2))
        self.grid_n = grid.n
        graph.save_graph(grid, workdir / "grid.graph")
        graph.save_graph(torus, workdir / "torus.graph")
        self.calls = [
            ["--proto", "two_phase", "--lazy", "0.5", "--graph", str(workdir / "grid.graph")],
            ["--proto", "two_phase", "--graph", str(workdir / "grid.graph")],
            ["--proto", "gossip", "--eps", "0.01", "--graph", str(workdir / "torus.graph")],
        ]
        self.passes = 0

    def inputs(self, seed: int) -> list:
        self.passes += 1
        out = self.workdir / f"pass{self.passes}"
        return [
            (["run", *call, "--trials", str(self.trials), "--seed", str(seed),
              "--values-seed", str(seed), "--out", str(out / f"call{i}")], out / f"call{i}")
            for i, call in enumerate(self.calls)
        ]

    def execute(self, inputs: list) -> list:
        out = []
        for argv, _ in inputs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception:
                _report(f"tokengossip {' '.join(argv[:3])}")
                rc = None
            out.append((rc, buf.getvalue()))
        return out

    def check(self, inputs: list, raw: list) -> PassResult:
        h = hashlib.sha256()
        ops = failed = events = written = files = nbytes = 0
        for (argv, out_dir), (rc, stdout) in zip(inputs, raw):
            ops += self.trials
            h.update(f"{rc};{stdout}".encode())
            if rc != 0:
                failed += self.trials
                continue
            for path in sorted(out_dir.iterdir()):
                files += 1
                if path.name == "run_manifest.json":  # wall-clock timestamps
                    continue
                data = path.read_bytes()
                nbytes += len(data)
                h.update(path.name.encode() + b"\0" + data)
            for t in range(self.trials):
                meta = json.loads((out_dir / f"trial_{t:04d}.json").read_text())
                written += 1
                events += meta["eta"]
                ok = meta["completed"]
                if meta["protocol"] == "two_phase":
                    rows = (out_dir / f"trial_{t:04d}_nodes.csv").read_text().split()[1:]
                    ok = ok and all(int(r.rsplit(",", 1)[1]) == self.grid_n for r in rows)
                failed += not ok
        shutil.rmtree(inputs[0][1].parent, ignore_errors=True)
        return PassResult(ops, failed, events, h.hexdigest(), written, files, nbytes)


class Analysis:
    name = "analysis"

    def __init__(self, tiny: bool, workdir: Path):
        self.tiny = tiny
        self.decay_trials = 4 if tiny else 16
        self.t_max = 5 if tiny else 20

    def inputs(self, seed: int) -> tuple:
        if self.tiny:
            big = [GraphSpec.torus(5, 2), GraphSpec.ring(20),
                   GraphSpec.rgg(24, seed=seed), GraphSpec.random_regular(24, 4, seed=seed)]
            small = [GraphSpec.torus(3, 2), GraphSpec.ring(9),
                     GraphSpec.rgg(9, seed=seed), GraphSpec.random_regular(10, 4, seed=seed)]
        else:
            big = [GraphSpec.torus(12, 2), GraphSpec.ring(128),
                   GraphSpec.rgg(150, seed=seed), GraphSpec.random_regular(150, 4, seed=seed)]
            small = [GraphSpec.torus(6, 2), GraphSpec.ring(36),
                     GraphSpec.rgg(36, seed=seed), GraphSpec.random_regular(36, 4, seed=seed)]
        return big, small, seed

    def _call(self, label, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            _report(label)
            return None

    def execute(self, inputs: tuple) -> tuple:
        big, small, seed = inputs
        rec = SpanRecorder()
        counter = [Target(protocols, "run", "protocols.run", trace_counts)]
        per_graph = []
        with instrumented(rec, counter, library_namespaces()):
            for spec in big:
                g = graph.generate(spec)
                per_graph.append((g, [
                    self._call("hitting", an.mean_hitting_times, g),
                    self._call("resistance", an.resistance_report, g),
                    self._call("decay", an.estimate_decay, g, trials=self.decay_trials,
                               stream=seed),
                    self._call("gaussian", an.check_gaussian_bound, g, t_max=self.t_max),
                    self._call("regularity", an.regularity_report, g),
                ]))
            meeting = [self._call("meeting", an.mean_meeting_times, graph.generate(spec))
                       for spec in small]
        events = sum(s.counts["eta"] for s in rec.spans)
        return per_graph, meeting, events

    def check(self, inputs: tuple, raw: tuple) -> PassResult:
        per_graph, meeting, events = raw
        h = hashlib.sha256()
        ops = failed = 0
        for g, (hit, res, decay, gauss, reg) in per_graph:
            ops += 5
            failed += sum(r is None for r in (hit, res, decay, gauss, reg))
            h.update(f"{g.kind},{g.n},{g.m},{g.attempts};".encode())
            if hit is not None and res is not None:
                # commute-time identity: H(u,v) <= 2|E| R(u,v) <= 2|E| rho*
                if hit.worst_case > res.sigma_bound * (1 + 1e-9):
                    print(f"perfbench: hitting {hit.worst_case} above 2|E|rho* "
                          f"{res.sigma_bound} on {g.kind}", file=sys.stderr)
                    failed += 1
                h.update(f"{_fmt(hit.worst_case)},{_fmt(res.rho_star)};".encode())
            if decay is not None:
                if np.any(np.diff(decay.n_hat) > 0):
                    print(f"perfbench: decay curve increases on {g.kind}",
                          file=sys.stderr)
                    failed += 1
                gamma = max(1, math.ceil(math.log(g.n)))
                h.update(f"{decay.t_gamma(gamma)!r},{decay.n_hat.sum()!r};".encode())
            if gauss is not None:
                h.update(f"{_fmt(gauss.c3)},{_fmt(gauss.c4)},{gauss.feasible};".encode())
            if reg is not None:
                h.update(",".join(_fmt(v) for v in vars(reg).values()).encode())
        for m in meeting:
            ops += 1
            failed += m is None
            if m is not None:
                h.update(_fmt(m.worst_case).encode())
        return PassResult(ops, failed, events, h.hexdigest())


WORKLOADS = {w.name: w for w in (Sweep, RunOut, Analysis)}
