"""Write a BENCH file: perfbench's end-to-end and per-layer metrics for
every workload, on fixed seeds, a clique-4 trial's cost, the flood's cost
at n = 2^16 and the Tier-1 test run.

    python3 tools/bench.py --out BENCH_22.json [--root .]

Runs ``perfbench/run.py`` of the checkout at ``--root`` as a subprocess,
one run at a time: first one discarded ``--size tiny --seconds 1`` run of
the first workload, then, each for the ``run_seconds`` of its
``BENCHMARK.json``, each workload untraced (``--trace 0``) on seeds 1 to
5 and traced (``--trace 1``) on seeds 1 to 3.  Then times a clique-4 CRW
trial (``init`` + ``run``) in a fresh process: the mean over 20 000
trials, three times.  Then, in a fresh process per clock, runs
``two_phase_run`` on torus 256x256 to a switch time that leaves about 12
origins and times its flood (``cfld_run``).  Then runs the checkout's
Tier-1 tests once
(``python -m pytest -q --continue-on-collection-errors`` with
``<root>/src`` on ``PYTHONPATH``).  The file holds the measured tree
(whether ``git status --porcelain -- src tests`` lists any change, null
outside a git checkout, and a SHA-256 over the files of
``src/tokengossip``), the environment stamp that the harness prints, the
median and quartiles of each end-to-end metric over the untraced seeds,
each run's digest, the median and quartiles of each per-layer metric
over the traced seeds, the trial's cost per repeat and the best of them
(``micro``), each clock's flood origins, flood wall time and peak-RSS
growth across the flood (``flood``), the Tier-1 counts, failed test ids
and wall time, and notes on known faults of the harness, which this
script records rather than edits.  A failed perfbench run, trial timing
or flood, or a Tier-1 run that exits with neither 0 nor 1 (1: some test
failed), stops it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (1, 2, 3, 4, 5)
TRACED_SEEDS = (1, 2, 3)  # one traced pass cannot tell a 10-15% layer change from drift
MICRO_TRIALS, MICRO_REPEATS = 20_000, 3

# the clique-4 CRW trial, timed in the checkout's package; prints the mean
# microseconds per trial of each repeat as a JSON list
MICRO = f"""
import json, time
from tokengossip.fusion import sum_fusion
from tokengossip.graph import GraphSpec, generate
from tokengossip.protocols import Termination, init, run

g, fusion, x = generate(GraphSpec.clique(4)), sum_fusion(), [0] * 4
run(init("crw", g, x, fusion), Termination())  # builds the kernel if the cache lacks it
per_trial = []
for _ in range({MICRO_REPEATS}):
    started = time.perf_counter()
    for trial in range({MICRO_TRIALS}):
        run(init("crw", g, x, fusion, seed=1, stream_id=trial), Termination())
    per_trial.append((time.perf_counter() - started) / {MICRO_TRIALS} * 1e6)
print(json.dumps(per_trial))
"""

# two-phase on torus 256x256 (n = 2^16) to argv[2] on the clock argv[1]; prints
# the flood's origin count, its wall time and the growth of the peak RSS across
# it as JSON
FLOOD = """
import json, resource, sys, time
from tokengossip import protocols
from tokengossip.engine import Continuous, SynchronousDiscrete
from tokengossip.fusion import sum_fusion
from tokengossip.graph import GraphSpec, generate

clock = Continuous() if sys.argv[1] == "continuous" else SynchronousDiscrete(0.5)
g = generate(GraphSpec.torus(256))
cfld_run, measured = protocols.cfld_run, {}


def timed(state):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    trace = cfld_run(state)
    measured["cfld_s"] = time.perf_counter() - started
    measured["rss_growth_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss) / 1024
    return trace


protocols.cfld_run = timed
trace = protocols.two_phase_run(g, [1] * g.n, sum_fusion(), float(sys.argv[2]), seed=1,
                                clock=clock)
print(json.dumps({"flood_origins": trace.flood_origins, **measured}))
"""
# switch times that leave 12 origins on the continuous clock and 13 on lazy rounds
FLOOD_SWITCH = {"continuous": 16000.0, "rounds": 32000.0}

NOTES = [
    "perfbench/README.md lines 107-108 say that the CLI pilot ignores --lazy and that "
    "run --out runs every trial twice, and line 116 names cli._full_trace; none of these "
    "holds any longer.",
    "perfbench/workloads.py lines 20-21 give sparse-LU fill-in on the 64-node torus as the "
    "reason for 36-node meeting graphs; that reason no longer holds.",
    "bench.trace_overhead_frac reads negative on run_out: the traced passes can run faster "
    "than the untraced ones, so it measures the host's speed drift, not the tracer's cost.",
    "setup_s on the analysis workload spreads about as wide as its 25% bound between runs "
    "of the same code.",
    "setup_s on run_out and sweep reads two to three times higher on the first run of a "
    "series than on the runs after it, so whichever tree runs first in a paired comparison "
    "carries that cost; this tool makes one discarded --size tiny --seconds 1 run before "
    "its series.",
    "The perfbench/layers.py docstring says that the event loops bind sampler.uniform to a "
    "local name; no Python event loop or sampler object remains in the package, whose walks "
    "draw in the compiled kernel.",
]


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int,
              size: str = "full") -> dict:
    """One ``perfbench/run.py`` run, parsed: env, digest, metrics, result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip().splitlines()[-1:]}")
    run = {"metrics": {}}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word == "env":
            run["env"] = json.loads(rest)
        elif word == "workload":
            fields = rest.split()
            run["digest"] = fields[fields.index("digest") + 1]
        elif word == "metric":
            name, value, _unit = rest.split()
            run["metrics"][name] = float(value)
        elif line.startswith("{"):
            result = json.loads(line)
            run.update(correct=result["correct"], attempted=result["attempted"],
                       failed=result["failed"])
    return run


def tree(root: Path) -> dict:
    """The measured tree: ``dirty`` if git lists a change under src or tests
    (None outside a git checkout), and a SHA-256 over the path and bytes of
    every file of ``src/tokengossip`` but its ``__pycache__``."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests"], cwd=root,
                          capture_output=True, text=True)
    package = root / "src" / "tokengossip"
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return {"dirty": bool(proc.stdout.strip()) if proc.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def src_env(root: Path) -> dict:
    """The environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(root.resolve() / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


def probe(root: Path, what: str, code: str, *args: str):
    """The JSON that ``code`` prints, run with ``args`` in a fresh process on
    the checkout's package."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=root, env=src_env(root),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{what} exited {proc.returncode}: "
                         f"{proc.stderr.strip().splitlines()[-1:]}")
    return json.loads(proc.stdout)


def micro(root: Path) -> dict:
    """The clique-4 CRW trial's cost in microseconds, each repeat's and the best."""
    per_trial = probe(root, "the clique-4 trial timing", MICRO)
    return {"trial": "clique-4 CRW, init + run", "trials": MICRO_TRIALS, "us": per_trial,
            "best_us": min(per_trial)}


def flood(root: Path) -> dict:
    """Each clock's two-phase flood on torus 256x256: its switch time, origin
    count, wall time and peak-RSS growth in MB."""
    return {clock: {"switch_time": switch,
                    **probe(root, f"the {clock} flood", FLOOD, clock, str(switch))}
            for clock, switch in FLOOD_SWITCH.items()}


def tier1(root: Path) -> dict:
    """One Tier-1 run of the checkout's tests: counts, failed ids, wall time."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=src_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - started
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stdout.strip().splitlines()[-1:]}")
    lines = proc.stdout.splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", lines[-1])}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "failed_ids": [line[7:].split(" - ")[0] for line in lines if line.startswith("FAILED ")],
            "wall_s": wall}


def spread(values: list) -> dict:
    """Median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    p.add_argument("--root", type=Path, default=Path("."), help="checkout to benchmark")
    args = p.parse_args()
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bench = {"command": " ".join(["python3", "tools/bench.py", *sys.argv[1:]]), "seeds": SEEDS,
             "seconds": seconds, "tree": tree(args.root), "workloads": {}}
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"bench: {workloads[0]} tiny, discarded", file=sys.stderr, flush=True)
    perfbench(args.root, workloads[0], SEEDS[0], 1, 0, size="tiny")
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            print(f"bench: {workload} seed {seed}", file=sys.stderr, flush=True)
            runs.append(perfbench(args.root, workload, seed, seconds, 0))
        bench.setdefault("env", runs[0]["env"])
        bench["workloads"][workload] = {
            "end_to_end": {name: spread([r["metrics"][name] for r in runs])
                           for name in runs[0]["metrics"]},
            "digests": {str(s): r["digest"] for s, r in zip(SEEDS, runs)},
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        traced = []
        for seed in TRACED_SEEDS:
            print(f"bench: {workload} traced, seed {seed}", file=sys.stderr, flush=True)
            traced.append(perfbench(args.root, workload, seed, seconds, 1))
        bench["workloads"][workload]["per_layer"] = {
            name: spread([r["metrics"][name] for r in traced]) for name in traced[0]["metrics"]}
    print("bench: clique-4 trial", file=sys.stderr, flush=True)
    bench["micro"] = micro(args.root)
    print("bench: torus 256x256 floods", file=sys.stderr, flush=True)
    bench["flood"] = flood(args.root)
    print("bench: tier-1 tests", file=sys.stderr, flush=True)
    bench["tier1"] = tier1(args.root)
    bench["notes"] = NOTES
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
