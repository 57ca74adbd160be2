"""Trial orchestration: seeded sweeps, aggregation, and scaling-law fits.

A sweep runs one protocol over a list of graph specs, many trials per
point, every trial on its own derived random stream so results are
reproducible independently of execution order or worker count.
Aggregates carry bootstrap standard errors; fits are ordinary least
squares of log(mean) against log(predictor).
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import Continuous, RngStream, SynchronousDiscrete
from .fusion import fold, fusion_from_name
from .graph import Graph, GraphSpec, generate
from .protocols import (
    GossipEps,
    ProtocolKind,
    Termination,
    estimate_switch_time,
    hybrid_k_run,
    init,
    run,
    two_phase_run,
)


class ExperimentError(RuntimeError):
    """A sweep could not produce complete results."""


@dataclass(frozen=True)
class TrialSummary:
    n: int
    trial: int
    tau: float
    eta: int
    completed: bool
    exact: Optional[bool] = None
    phase1_messages: Optional[int] = None
    phase2_messages: Optional[int] = None
    gossip_first_passage: Optional[int] = None
    clock_mode: str = "continuous"
    lazy_prob: Optional[float] = None

    @property
    def eta_per_node(self) -> float:
        return self.eta / self.n


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: protocol x graph list, with value source and stop rule."""

    graphs: Sequence[GraphSpec]
    protocol: str
    fusion: str = "sum"
    values: str = "uniform"  # "spike" | "uniform" | "slow_mode" | "file:<path>"
    values_seed: int = 1
    trials: int = 100
    master_seed: int = 0
    params: dict = field(default_factory=dict)
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.graphs:
            raise ValueError("sweep needs at least one graph spec")
        _check_params(self.protocol, self.params, self.fusion)
        if "switch_time" in self.params:
            raise ValueError("two_phase estimates its switch_time in a pilot: params cannot set it")
        if not (self.values in ("spike", "uniform", "slow_mode")
                or isinstance(self.values, str) and self.values.startswith("file:")):
            raise ValueError(f"unknown value source {self.values!r}")


def slow_mode_start(g: Graph) -> list:
    """Start vector on the slowest non-constant averaging mode.

    The stopping index is defined as a supremum over start vectors, and
    the slow eigenvector is its near-maximizer: spike or random starts
    load that mode with relatively vanishing weight as n grows, which
    systematically shortens the threshold crossing at a fixed eps.
    """
    if g.n > 4000:
        raise ValueError("dense eigensolve capped at 4000 nodes")
    p = g.transition_matrix.toarray()
    _, vecs = np.linalg.eigh((p + p.T) / 2)
    mode = vecs[:, -2]
    mode = mode - mode.mean()  # exact zero-mean, so the target is 0
    return [float(v) for v in g.n * mode / np.abs(mode).max()]


def initial_values(source: str, graph: Graph, fusion_kind: str, seed: int) -> list:
    """Materialize node values: a single spike of mass n at node 0, a
    seeded uniform draw, the graph's slowest averaging mode
    (``slow_mode_start``), or one value per line from a file."""
    n = graph.n
    if source == "spike":
        base = [n] + [0] * (n - 1)
    elif source == "uniform":
        rng = RngStream(seed, stream_id=0x7A1).generator()
        base = [int(v) for v in rng.integers(-(2**20), 2**20, size=n)]
    elif source == "slow_mode":
        base = slow_mode_start(graph)
    elif source.startswith("file:"):
        lines = Path(source[5:]).read_text().split()
        if len(lines) < n:
            raise ValueError(f"values file has {len(lines)} entries, need {n}")
        base = [_parse_value(v) for v in lines[:n]]
    else:
        raise ValueError(f"unknown value source {source!r}")
    if fusion_kind == "wavg":
        return [(float(v), 1.0) for v in base]
    return base


def _parse_value(text: str):
    # int() first: a float round-trip loses integers above 2**53
    try:
        return int(text)
    except ValueError:
        v = float(text)
        return int(v) if v.is_integer() else v


# The run parameters each protocol reads; run_point rejects any other key.
PROTOCOL_PARAMS = {
    "srw": {"lazy_prob"},
    "crw": {"lazy_prob"},
    "two_phase": {"lazy_prob", "gamma", "pilot_trials", "switch_time"},
    "gossip": {"eps", "horizon"},
    "hybrid_k": {"k", "horizon"},
}


def _check_params(protocol: str, params: dict, fusion: str) -> None:
    """Raise ``ValueError`` for an unknown protocol or fusion, hybrid_k
    without wavg or gossip with it, a key the protocol does not read, a
    missing eps or k, a bad clock, gossip stop rule, hybrid_k k or
    horizon, gamma or pilot trial count."""
    if protocol not in PROTOCOL_PARAMS:
        raise ValueError(f"unknown protocol {protocol!r}")
    fusion_from_name(fusion)
    if protocol == "hybrid_k" and fusion != "wavg":
        raise ValueError(f"hybrid_k averages (value, weight) pairs: it needs fusion wavg, "
                         f"not {fusion}")
    if protocol == "gossip" and fusion == "wavg":
        raise ValueError("gossip averages plain values: it takes no fusion wavg")
    unknown = sorted(set(params) - PROTOCOL_PARAMS[protocol])
    if unknown:
        raise ValueError(f"{protocol} takes no parameter {', '.join(unknown)} "
                         f"(it reads {', '.join(sorted(PROTOCOL_PARAMS[protocol]))})")
    needed = {"gossip": "eps", "hybrid_k": "k"}.get(protocol)
    if needed is not None and needed not in params:
        raise ValueError(f"{protocol} needs parameter {needed}")
    _clock(params)
    if protocol == "gossip":
        GossipEps(**params)
    for key in ("k", "pilot_trials"):
        if key in params and (type(params[key]) is not int or params[key] < 1):
            raise ValueError(f"{protocol} {key} must be an int >= 1, not {params[key]!r}")
    horizon = params.get("horizon", 0.0)
    if protocol == "hybrid_k" and not (type(horizon) in (int, float) and 0 <= horizon < math.inf):
        raise ValueError(f"hybrid_k stop time (horizon) must be finite and >= 0, not {horizon!r}")
    if params.get("gamma") not in (None, "log_n") and not float(params["gamma"]) >= 1:
        raise ValueError("gamma must be >= 1")


def _clock(params: dict):
    lazy = params.get("lazy_prob")
    return SynchronousDiscrete(lazy) if lazy is not None else Continuous()


def resolve_two_phase(graph: Graph, params: dict, master_seed: int) -> dict:
    """Two-phase set-up: gamma (None or "log_n" means ceil(ln n)) and the
    pilot switch time, estimated on the clock the trials will run on."""
    params = dict(params)
    gamma = params.get("gamma")
    if gamma in (None, "log_n"):
        gamma = max(1, math.ceil(math.log(graph.n)))
    params["gamma"] = float(gamma)
    if math.isinf(params["gamma"]):
        raise ValueError(f"gamma must be finite, not {gamma}")
    params["switch_time"] = estimate_switch_time(
        graph,
        params["gamma"],
        trials=params.get("pilot_trials", 32),
        seed=master_seed + 0x517,
        clock=_clock(params),
    )
    return params


def trial_files(out_dir: Path, trial: int) -> list:
    """The trajectory CSV, node summary CSV and metadata JSON of one trial."""
    base = Path(out_dir) / f"trial_{trial:04d}"
    return [base.with_suffix(".csv"), Path(f"{base}_nodes.csv"), base.with_suffix(".json")]


def _run_one(args) -> TrialSummary:
    (graph, protocol, fusion_name, x, params, master_seed, trial, out_dir, expected) = args
    fusion = fusion_from_name(fusion_name)
    clock = _clock(params)
    if protocol == "two_phase":
        tr = two_phase_run(
            graph, x, fusion, params["switch_time"], seed=master_seed, clock=clock,
            stream_id=trial, gamma=params.get("gamma"),
        )
    elif protocol == "hybrid_k":
        tr = hybrid_k_run(
            graph, x, k=params["k"], seed=master_seed,
            horizon=params.get("horizon", 100.0), stream_id=trial,
        )
    elif protocol == "gossip":
        st = init(ProtocolKind.GOSSIP, graph, x, None, seed=master_seed, stream_id=trial)
        tr = run(st, GossipEps(**params))
    else:
        st = init(ProtocolKind(protocol), graph, x, fusion, seed=master_seed, clock=clock,
                  stream_id=trial)
        tr = run(st, Termination())
    if out_dir is not None:
        csv, nodes_csv, meta = trial_files(out_dir, trial)
        tr.write_trajectory_csv(csv)
        tr.write_node_summary_csv(nodes_csv)
        tr.write_metadata_json(meta)
    exact = None
    if expected is not None:
        if protocol == "two_phase":
            exact = all(v == expected for v in tr.final_values)
        else:
            exact = tr.final_payload is not None and tr.final_payload.value == expected
    return TrialSummary(
        n=graph.n,
        trial=trial,
        tau=tr.tau,
        eta=tr.eta,
        completed=tr.completed,
        exact=exact,
        phase1_messages=tr.phase1_messages,
        phase2_messages=tr.phase2_messages,
        gossip_first_passage=tr.gossip_first_passage,
        clock_mode=tr.clock_mode,
        lazy_prob=tr.lazy_prob,
    )


def run_point(
    graph: Graph,
    protocol: str,
    fusion_name: str,
    x: Sequence,
    params: dict,
    trials: int,
    master_seed: int,
    jobs: int = 1,
    out_dir: Optional[Path] = None,
) -> list:
    """All trials of one sweep point; order-independent by construction
    (each trial is a pure function of (master_seed, trial index)), so
    ``jobs`` > 1 runs them in min(jobs, trials) worker processes.

    With ``out_dir`` (created if missing), each trial writes its
    ``trial_files`` from its own trace before the trace is dropped, so
    every trial is simulated once.  ``params`` holds only the keys
    ``PROTOCOL_PARAMS`` names for ``protocol``.  Raises ``ExperimentError``
    when a trial hits its horizon or a SUM/MAX walk trial misses the exact
    aggregate.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, not {jobs!r}")
    _check_params(protocol, params, fusion_name)
    if protocol == "two_phase" and "switch_time" not in params:
        raise ValueError("two_phase needs parameter switch_time")
    expected = None  # the aggregate every SUM/MAX walk trial must return exactly
    if protocol in ("srw", "crw", "two_phase") and fusion_name in ("sum", "max"):
        expected = fold(fusion_from_name(fusion_name), x)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    work = [
        (graph, protocol, fusion_name, list(x), params, master_seed, t, out_dir, expected)
        for t in range(trials)
    ]
    workers = min(jobs, trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_run_one, work, chunksize=max(1, trials // (4 * workers))))
    else:
        out = [_run_one(w) for w in work]
    out.sort(key=lambda s: s.trial)
    bad = [s for s in out if not s.completed]
    if bad:
        raise ExperimentError(
            f"{len(bad)} of {trials} trials hit their horizon before finishing "
            f"(first: trial {bad[0].trial})"
        )
    wrong = [s for s in out if s.exact is False]
    if wrong:
        raise ExperimentError(
            f"{len(wrong)} of {trials} trials missed the exact {fusion_name} aggregate "
            f"(first: trial {wrong[0].trial})"
        )
    return out


def run_trials(config: ExperimentConfig) -> dict:
    """Run the full sweep; returns {point index: (graph, summaries)}."""
    results = {}
    for idx, spec in enumerate(config.graphs):
        graph = generate(spec)
        x = initial_values(config.values, graph, config.fusion, config.values_seed)
        params = dict(config.params)
        if config.protocol == "two_phase":
            params = resolve_two_phase(graph, params, config.master_seed)
        results[idx] = (
            graph,
            run_point(
                graph,
                config.protocol,
                config.fusion,
                x,
                params,
                config.trials,
                config.master_seed,
                jobs=config.jobs,
            ),
        )
    return results


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRecord:
    n: int
    metric: str
    mean: float
    stderr: float
    low: float
    high: float
    trials: int


BOOTSTRAP_RESAMPLES = 1000  # resamples behind each aggregate's standard error


def aggregate(summaries: Sequence[TrialSummary], metric: str, seed: int = 0) -> AggregateRecord:
    """Mean with a trial-level bootstrap standard error (completion-time
    distributions are skewed, so the plug-in normal error would lie)."""
    if len(summaries) < 2:
        raise ValueError("aggregation needs at least two trials")
    vals = np.array([getattr(s, metric) for s in summaries], dtype=float)
    rng = RngStream(seed, stream_id=0xB007).generator()
    idx = rng.integers(len(vals), size=(BOOTSTRAP_RESAMPLES, len(vals)))
    means = vals[idx].mean(axis=1)
    return AggregateRecord(
        n=summaries[0].n,
        metric=metric,
        mean=float(vals.mean()),
        stderr=float(means.std(ddof=1)),
        low=float(vals.min()),
        high=float(vals.max()),
        trials=len(vals),
    )


# ----------------------------------------------------------------------
# Scaling fits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    predictor: str
    slope: float
    intercept: float
    r2: float
    points: int


def predictor_fn(name: str) -> Callable[[int], float]:
    table = {
        "n": lambda n: float(n),
        "n2": lambda n: float(n) ** 2,
        "log_n": lambda n: math.log(n),
        "log2_n": lambda n: math.log(n) ** 2,
        "n_log_n": lambda n: n * math.log(n),
        # side-length forms for square tori/grids: N = sqrt(n)
        "N2_log_N": lambda n: n * math.log(math.sqrt(n)),
        "N2_log2_N": lambda n: n * math.log(math.sqrt(n)) ** 2,
    }
    if name in table:
        return table[name]
    if isinstance(name, str) and name.startswith("n_pow:"):
        p = float(name.split(":", 1)[1])
        return lambda n: float(n) ** p
    raise ValueError(f"unknown predictor {name!r}")


def fit_scaling(records: Sequence[AggregateRecord], predictor: str) -> ScalingFit:
    """OLS of log(mean) on log(predictor(n)); slope 1 means the claimed
    law matches the sweep."""
    if len(records) < 4:
        raise ValueError("scaling fits need at least four sweep points")
    f = predictor_fn(predictor)
    x = np.log([f(r.n) for r in records])
    y = np.log([r.mean for r in records])
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(predictor, float(slope), float(intercept), r2, len(records))


# ----------------------------------------------------------------------
# Gossip stopping index
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GossipKEstimate:
    k_hat: int
    eps: float
    trials: int
    per_node_messages: float
    first_passages: tuple


def measure_gossip_K(
    g: Graph,
    eps: float,
    z0: Optional[Sequence[float]] = None,
    trials: int = 40,
    master_seed: int = 0,
    horizon: int = GossipEps.horizon,
) -> GossipKEstimate:
    """Empirical stopping index: the smallest exchange count k such that
    the fraction of trials still above the error threshold at k is at
    most eps.  The default start vector is the single spike n*e_1; the
    supremum over start vectors is not searched, so this lower-bounds
    the worst case.  ``first_passages`` are sorted."""
    if z0 is None:
        z0 = initial_values("spike", g, "sum", 0)
    summaries = run_point(g, "gossip", "sum", z0, {"eps": eps, "horizon": horizon},
                          trials, master_seed)
    passages = sorted(s.gossip_first_passage for s in summaries)
    k_hat = passages[trials - math.floor(eps * trials) - 1]
    return GossipKEstimate(
        k_hat=k_hat,
        eps=eps,
        trials=trials,
        per_node_messages=2 * k_hat / g.n,
        first_passages=tuple(passages),
    )


# ----------------------------------------------------------------------
# Table-style suite: sweeps, fits, pass bands
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RowResult:
    label: str
    metric: str
    fit: ScalingFit
    slope_band: tuple
    r2_min: float
    passed: bool
    records: tuple


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


ROW_KEYS = frozenset("label protocol metric predictor sweep trials slope_band r2_min params "
                     "enabled fusion values".split())
_SPEC_FIELDS = frozenset(f.name for f in fields(GraphSpec))


def _enabled_rows(config: dict) -> list:
    """The enabled rows of a suite config, each as ``(ExperimentConfig,
    label, metric, predictor, slope_band, r2_min)``, every one built and
    checked before any runs; a bad row raises ``ValueError`` naming its
    label."""
    if not isinstance(config, dict):
        raise ValueError("a suite config must be a JSON object")
    rows = config.get("rows", [])
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError("suite config rows must be a list of objects")
    rows = [r for r in rows if r.get("enabled", True)]
    if not rows:
        raise ValueError("config has no enabled rows")
    master_seed, jobs = config.get("master_seed", 0), config.get("jobs", 1)
    if type(master_seed) is not int or type(jobs) is not int:
        raise ValueError(f"suite master_seed and jobs must be ints, not {master_seed!r} "
                         f"and {jobs!r}")
    if jobs < 1:
        raise ValueError(f"suite jobs must be >= 1, not {jobs}")
    out = []
    for i, row in enumerate(rows):
        try:
            missing, unknown = {"protocol", "predictor", "sweep"} - set(row), set(row) - ROW_KEYS
            if missing or unknown:
                raise ValueError(f"missing keys {sorted(missing)}, unknown keys {sorted(unknown)}")
            metric = row.get("metric", "tau")
            if metric not in ("tau", "eta_per_node", "eta"):
                raise ValueError(f"metric must be tau, eta_per_node or eta, not {metric!r}")
            if not isinstance(row["sweep"], list):
                raise ValueError(f"sweep must be a list of graph specs, not {row['sweep']!r}")
            if not isinstance(row.get("params", {}), dict):
                raise ValueError(f"params must be an object, not {row['params']!r}")
            for item in row["sweep"]:
                if not (isinstance(item, dict) and "kind" in item and set(item) <= _SPEC_FIELDS):
                    raise ValueError(f"sweep entry {item} needs a kind and only the fields "
                                     f"{', '.join(sorted(_SPEC_FIELDS))}")
            if row["protocol"] == "gossip" and "fusion" in row:
                raise ValueError("a gossip row reads no fusion")
            predictor_fn(row["predictor"])
            if type(row.get("trials", 100)) is not int:
                raise ValueError(f"trials must be an int, not {row['trials']!r}")
            band = row.get("slope_band", [0.85, 1.15])
            if not (isinstance(band, (list, tuple)) and len(band) == 2
                    and all(isinstance(b, (int, float)) for b in band)):
                raise ValueError(f"slope_band must be a [low, high] pair of numbers, not {band!r}")
            cfg = ExperimentConfig(
                graphs=[GraphSpec(**item) for item in row["sweep"]],
                protocol=row["protocol"],
                fusion=row.get("fusion", "sum"),
                values=row.get("values", "uniform"),
                trials=row.get("trials", 100),
                master_seed=master_seed,
                params=dict(row.get("params", {})),
                jobs=jobs,
            )
            if cfg.trials < 2 or len(cfg.graphs) < 4:
                raise ValueError("a suite row needs at least two trials and four sweep points")
            if cfg.values.startswith("file:"):  # each graph checks the entry count
                for entry in Path(cfg.values[5:]).read_text().split():
                    _parse_value(entry)
            out.append((cfg, str(row.get("label", f"{cfg.protocol}/{metric}")), metric,
                        row["predictor"], tuple(band), float(row.get("r2_min", 0.9))))
        except (ValueError, TypeError, OSError) as e:
            raise ValueError(f"suite row {row.get('label', i)!r}: {e}") from None
    return out


def run_suite(config: dict, out_dir: Optional[Path] = None) -> SuiteReport:
    """Run every enabled row of a suite config and check its pass band.

    Row schema (``ROW_KEYS``): label, protocol, metric (tau |
    eta_per_node | eta), predictor, sweep (list of GraphSpec kwargs),
    trials, slope_band, r2_min, enabled, params, fusion (not on gossip
    rows) and values.  Every enabled row becomes one ``ExperimentConfig``,
    built and checked before any row runs.  Writes summary.csv, fits.json,
    and one per-point trial table when an output directory is given.
    """
    rows = []
    summary_lines = ["n,protocol,metric,mean,stderr,trials"]
    fits = []
    trial_tables = {}
    for cfg, label, metric, predictor, band, r2_min in _enabled_rows(config):
        records = []
        for graph, summaries in run_trials(cfg).values():
            rec = aggregate(summaries, metric, seed=cfg.master_seed)
            records.append(rec)
            summary_lines.append(
                f"{rec.n},{cfg.protocol},{rec.metric},{rec.mean!r},{rec.stderr!r},{rec.trials}"
            )
            name = f"trials_{label.replace('/', '_')}_{graph.n}.csv"
            trial_tables[name] = "\n".join(
                ["trial,tau,eta,eta_per_node"]
                + [f"{s.trial},{s.tau!r},{s.eta},{s.eta_per_node!r}" for s in summaries]
            )
        fit = fit_scaling(records, predictor)
        passed = band[0] <= fit.slope <= band[1] and fit.r2 >= r2_min
        rows.append(RowResult(label, metric, fit, band, r2_min, passed, tuple(records)))
        fits.append(
            {
                "label": label,
                "metric": metric,
                "predictor": fit.predictor,
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r2": fit.r2,
                "slope_band": list(band),
                "r2_min": r2_min,
                "passed": passed,
            }
        )
    report = SuiteReport(rows=tuple(rows))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
        (out_dir / "fits.json").write_text(json.dumps(fits, indent=2, sort_keys=True) + "\n")
        for name, text in sorted(trial_tables.items()):
            (out_dir / name).write_text(text + "\n")
    return report


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
