"""tokengossip benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,run_out,analysis} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separately traced run.  Every metric is
printed as ``metric <name> <value> <unit>``, followed by one JSON result
line.  Set-up time is the median over three fresh processes, each timed
from its start to the end of its set-up.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


class WorkerError(RuntimeError):
    pass


def _worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start a worker; return (seconds from start to its ready line, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise WorkerError(f"worker exited with code {code}")
    return setup_s, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for smoke tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "tokengossip" / "__init__.py").is_file():
        print(f"perfbench: no tokengossip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    TMP.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        setup, result = _worker(args, TMP / tag, False, deadline)
        setups = [setup]
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, TMP / f"{tag}-setup{i}", True, deadline)[0])
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    metrics = dict(result["metrics"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: worker did not report {sorted(missing)}", file=sys.stderr)
        return 1
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} passes {result['passes']} "
          f"digest {result['digest']}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for name, value in result.get("unscaled", {}).items():
        print(f"unscaled {name} {value!r}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"metric failed_frac {failed_frac!r} ratio")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
