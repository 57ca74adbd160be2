"""One benchmark process: set up a workload, print a ready line, then run
timed passes for the requested seconds and print one result line.

Started by ``run.py``, which times the set-up from process start to the
ready line.  ``--setup-only`` stops after the ready line.

Untraced (``--trace 0``): pass k uses inputs made from a seed derived
from (seed, k) and runs on CPU k mod (number of CPUs), between two
timings of the host-speed loop (``hostspeed.py``) on that CPU; the
end-to-end metrics are medians over rounds of one pass per CPU of the
pass times scaled to nominal host speed.  Traced
(``--trace 1``): passes repeat the inputs of pass 0, alternating untraced
and traced, so that the per-layer counts must repeat exactly and the
traced/untraced wall-time ratio gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
HOST_LOOPS = 4  # host-speed loops before and after each untraced pass


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tokengossip
    except ImportError as e:
        sys.exit(f"perfbench: cannot import tokengossip from {src}: {e}")
    if Path(tokengossip.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: tokengossip imported from {tokengossip.__file__}, not {src}")


def pass_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _pin(k: int, cpus: list) -> None:
    """Run pass k of the measuring thread on one CPU, taking the CPUs in
    turn.  On a shared host, neighbours slow one CPU at a time for tens of
    seconds; taking turns makes every run sample each CPU alike.  Threads
    started at import, such as OpenBLAS workers, keep their own mask."""
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def _round_median(values: list, n: int) -> float:
    """Median over rounds of n consecutive passes (one per CPU) of the
    round's mean, so that a slow CPU weighs the same in every round."""
    rounds = [values[i:i + n] for i in range(0, len(values) - n + 1, n)] or [values]
    return statistics.median(statistics.fmean(r) for r in rounds)


def _time_left(start: float, seconds: float, loops: list) -> bool:
    """Whether another loop of typical length ends within ``seconds``."""
    return time.perf_counter() - start + statistics.median(loops) <= seconds


def _timed(wl, inputs):
    w0, c0 = time.perf_counter(), time.process_time()
    raw = wl.execute(inputs)
    return raw, time.perf_counter() - w0, time.process_time() - c0


def _pass_metrics(passes: list, n: int) -> dict:
    """Round medians of (wall, cpu, ops, events) pass records."""
    return {
        "wall_s": _round_median([w for w, _, _, _ in passes], n),
        "cpu_s": _round_median([c for _, c, _, _ in passes], n),
        "ops_per_s": _round_median([o / w for w, _, o, _ in passes], n),
        "events_per_s": _round_median([e / w for w, _, _, e in passes], n),
    }


def measure(wl, seed: int, seconds: float) -> dict:
    """Untraced passes on fresh inputs for about ``seconds``.  The host-speed
    loop runs just before and just after each pass, on the same CPU; the
    metrics use the pass's times scaled by the mean of the two, and
    ``unscaled`` holds the same medians as measured."""
    measured, scaled, loop_s, loops = [], [], [], []
    attempted = failed = 0
    digest = None
    cpus_allowed = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    k = 0
    while not loops or _time_left(start, seconds, loops):
        loop_start = time.perf_counter()
        _pin(k, cpus_allowed)
        inputs = wl.inputs(pass_seed(seed, k))
        before = hostspeed.seconds(HOST_LOOPS)
        raw, wall, cpu = _timed(wl, inputs)
        loop_s.append((before + hostspeed.seconds(HOST_LOOPS)) / 2)
        res = wl.check(inputs, raw)
        scale = hostspeed.NOMINAL_S / loop_s[-1]
        digest = digest or res.digest
        measured.append((wall, cpu, res.ops, res.events))
        scaled.append((wall * scale, cpu * scale, res.ops, res.events))
        attempted += res.ops
        failed += res.failed
        k += 1
        loops.append(time.perf_counter() - loop_start)
    n = len(cpus_allowed)
    metrics = _pass_metrics(scaled, n)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = _pass_metrics(measured, n)
    unscaled["host_loop_ms"] = statistics.median(loop_s) * 1000
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "unscaled": unscaled, "passes": k, "digest": digest}


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """Untraced and traced passes on the inputs of pass 0, alternating."""
    import layers
    from tracer import SpanRecorder, instrumented

    walls = {False: [], True: []}
    per_pass = []
    digests = set()
    attempted = failed = 0
    inputs_seed = pass_seed(seed, 0)
    cpus_allowed = sorted(os.sched_getaffinity(0))
    loops = []
    start = time.perf_counter()
    while not loops or _time_left(start, seconds, loops):
        loop_start = time.perf_counter()
        _pin(len(per_pass), cpus_allowed)
        for traced in (False, True):
            inputs = wl.inputs(inputs_seed)
            rec = SpanRecorder()
            with (instrumented(rec, layers.targets(), layers.library_namespaces())
                  if traced else contextlib.nullcontext()):
                raw, wall, _ = _timed(wl, inputs)
            res = wl.check(inputs, raw)
            walls[traced].append(wall)
            digests.add(res.digest)
            attempted += res.ops
            failed += res.failed
            if traced:
                per_pass.append(layers.layer_metrics(rec, res.trials_written, res.files, res.nbytes))
        loops.append(time.perf_counter() - loop_start)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name in layers.COUNTS:
        metrics[name] = per_pass[0][name]
    repeated = len(digests) == 1 and all(
        p[name] == per_pass[0][name] for p in per_pass for name in layers.COUNTS)
    if not repeated:
        print("perfbench: outputs or counts differ between passes on the same inputs",
              file=sys.stderr)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
    return {"correct": failed == 0 and repeated, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": len(per_pass), "digest": digests.pop()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_library()
    import workloads

    tiny = args.size == "tiny"
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](tiny, workdir)
    workloads.warm_up(tiny)
    print(READY, flush=True)
    if args.setup_only:
        return 0
    run = measure_traced if args.trace else measure
    result = run(wl, args.seed, args.seconds)
    result["env"] = env_stamp()
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
