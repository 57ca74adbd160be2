"""Tests of the benchmark itself: span arithmetic, wrapping, and tiny
end-to-end runs of every workload."""
import gc
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Span, SpanRecorder, Target, instrumented, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_clips_and_merges_children():
    parent = Span("p", 0.0, 10.0)
    children = [Span("a", 1.0, 3.0), Span("b", 2.0, 5.0), Span("c", 9.0, 12.0),
                Span("d", 11.0, 13.0)]
    # covered: [1, 5] and [9, 10]
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_recorder_nesting_and_self_times():
    rec = SpanRecorder(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0]))
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    c = rec.open("c")
    d = rec.open("d")
    rec.close(d)
    rec.close(c)
    rec.close(a)
    assert [s.parent for s in rec.spans] == [-1, a, a, c]
    assert rec.self_times() == pytest.approx([6.0, 2.0, 1.5, 0.5])
    assert [s.name for s in rec.ancestors(d)] == ["c", "a"]
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_instrumented_wraps_every_binding_and_restores():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def work(x):
        return x + 1

    lib.work = work
    user.renamed = work  # a module that imported the function by name
    rec = SpanRecorder()
    target = Target(lib, "work", "lib.work", lambda r: {"result": r})
    with instrumented(rec, [target], [user]):
        assert user.renamed(1) == 2
        assert lib.work(2) == 3
    assert lib.work is work and user.renamed is work
    assert [(s.name, s.counts["result"]) for s in rec.spans] == [("lib.work", 2),
                                                                   ("lib.work", 3)]


def test_host_loop_leaves_the_collector_as_it_was():
    assert hostspeed.loop() == hostspeed.loop()
    assert hostspeed.seconds(2) > 0 and gc.isenabled()
    gc.disable()
    try:
        hostspeed.seconds(1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    return result, printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_on_a_second_seed(workload):
    proc = _run(workload, 2, 0)
    result, printed = _result(proc)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(printed[name] == unit for name, unit in units.items())
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert printed["failed_frac"] == "ratio"
    unscaled = {line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("unscaled ")}
    assert unscaled == set(units) - {"setup_s", "peak_rss_mb"} | {"host_loop_ms"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [_result(_run(workload, 1, 1))[0] for _ in range(2)]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name in layers.COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert runs[0]["metrics"]["protocols.events"]["value"] > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
