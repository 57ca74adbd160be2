"""``tools/bench.py`` against a stand-in harness that prints canned
``perfbench/run.py`` output and logs its arguments, a stand-in package
whose trial does nothing, and stand-in Tier-1 tests."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"

FAKE_RUN = '''
import json, sys
with open("calls.log", "a") as log:
    print(" ".join(sys.argv[1:]), file=log)
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, trace = int(args["--seed"]), args["--trace"] == "1"
print("env " + json.dumps({"python": "3"}))
print(f"workload {args['--workload']} seed {seed} passes 3 digest d{seed}")
name = "protocols.cfld_s" if trace else "wall_s"
print(f"metric {name} {0.1 * seed!r} s")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {}}))
'''

FAKE_TESTS = '''
from stand_in import ANSWER


def test_passes():
    assert ANSWER == 42


def test_fails():
    assert ANSWER == 41
'''


# the names the trial timing and the flood probe import, doing nothing
STAND_IN_PACKAGE = {
    "__init__.py": "",
    "engine.py": "Continuous = SynchronousDiscrete = str\n",
    "graph.py": ("class GraphSpec:\n    clique = torus = staticmethod(str)\n\n\n"
                 "class Graph:\n    n = 4\n\n\n"
                 "def generate(spec):\n    return Graph()\n"),
    "fusion.py": "def sum_fusion():\n    return sum\n",
    "protocols.py": ("class Termination:\n    pass\n\n\n"
                     "class Trace:\n    flood_origins = 3\n\n\n"
                     "def init(kind, g, x, fusion, seed=0, stream_id=0):\n    return g\n\n\n"
                     "def run(state, stop):\n    return state\n\n\n"
                     "def cfld_run(state):\n    return Trace()\n\n\n"
                     "def two_phase_run(g, x, fusion, switch_time, seed=0, clock=None):\n"
                     "    return cfld_run(None)\n"),
}


def stand_in_root(root: Path, tests: str) -> list:
    """A checkout with the stand-in harness, the stand-in package under src
    and ``tests`` as its one test file; returns the tool's command line."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 40,
                                                     "workloads": [{"name": "run_out"}]}))
    (root / "src" / "tokengossip").mkdir(parents=True)
    (root / "src" / "tokengossip" / "kernel.c").write_text("int answer = 42;\n")
    for name, text in STAND_IN_PACKAGE.items():
        (root / "src" / "tokengossip" / name).write_text(text)
    (root / "src" / "stand_in.py").write_text("ANSWER = 42\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_stand_in.py").write_text(tests)
    return [sys.executable, str(TOOL), "--root", str(root), "--out", str(root / "BENCH.json")]


def test_bench_writes_medians_quartiles_digests_and_layers(tmp_path):
    subprocess.run(stand_in_root(tmp_path, FAKE_TESTS), check=True, capture_output=True)
    bench = json.loads((tmp_path / "BENCH.json").read_text())
    run_out = bench["workloads"]["run_out"]
    assert (bench["env"], bench["seconds"]) == ({"python": "3"}, 40)
    assert run_out["end_to_end"]["wall_s"] == {"median": 0.30000000000000004, "q1": 0.2,
                                               "q3": 0.4}
    assert run_out["digests"] == {str(s): f"d{s}" for s in range(1, 6)}
    # the traced runs on seeds 1 to 3 print 0.1, 0.2 and 0.3
    assert run_out["per_layer"] == {"protocols.cfld_s": {"median": 0.2, "q1": 0.15000000000000002,
                                                         "q3": 0.25}}
    assert (run_out["correct"], run_out["attempted"], run_out["failed"]) == (True, 50, 0)
    assert len(bench["notes"]) == 6
    assert any("one discarded --size tiny --seconds 1 run" in note for note in bench["notes"])
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls[0] == "--workload run_out --seed 1 --seconds 1 --trace 0 --size tiny"
    assert len(calls) == 9 and all(call.endswith("--size full") for call in calls[1:])
    assert [call.split()[3] for call in calls[1:] if "--trace 1" in call] == ["1", "2", "3"]
    micro = bench["micro"]
    assert (micro["trial"], micro["trials"]) == ("clique-4 CRW, init + run", 20_000)
    assert len(micro["us"]) == 3 and micro["best_us"] == min(micro["us"]) > 0
    flood = bench["flood"]
    assert sorted(flood) == ["continuous", "rounds"]
    assert [flood[c]["switch_time"] for c in flood] == [16000.0, 32000.0]
    for clock in flood.values():
        assert sorted(clock) == ["cfld_s", "flood_origins", "rss_growth_mb", "switch_time"]
        assert clock["flood_origins"] == 3 and clock["cfld_s"] >= 0 <= clock["rss_growth_mb"]
    assert bench["tree"]["dirty"] is None  # the stand-in root is no git checkout
    tier1 = bench["tier1"]
    assert (tier1["passed"], tier1["failed"]) == (1, 1)
    assert tier1["failed_ids"] == ["tests/test_stand_in.py::test_fails"]
    assert tier1["wall_s"] > 0


@pytest.mark.parametrize("tests", ["", "def test_interrupts():\n    raise KeyboardInterrupt\n"],
                         ids=["no-tests", "interrupted"])
def test_bench_stops_when_tier1_exits_neither_0_nor_1(tmp_path, tests):
    proc = subprocess.run(stand_in_root(tmp_path, tests), capture_output=True, text=True)
    assert proc.returncode != 0
    assert "pytest -q --continue-on-collection-errors exited" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()


def test_bench_stops_when_the_trial_timing_fails(tmp_path):
    cmd = stand_in_root(tmp_path, FAKE_TESTS)
    (tmp_path / "src" / "tokengossip" / "protocols.py").write_text("")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "the clique-4 trial timing exited 1" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()


def git(root: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
                    *args], cwd=root, check=True, capture_output=True)


def test_bench_records_whether_the_tree_is_dirty_and_a_hash_of_the_package(tmp_path):
    cmd = stand_in_root(tmp_path, FAKE_TESTS)
    (tmp_path / ".gitignore").write_text("__pycache__/\n.pytest_cache/\ncalls.log\nBENCH.json\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "stand-in")
    subprocess.run(cmd, check=True, capture_output=True)
    recorded = json.loads((tmp_path / "BENCH.json").read_text())["tree"]
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    clean = tool.tree(tmp_path)
    assert recorded == clean and clean["dirty"] is False and len(clean["src_sha256"]) == 64
    package = tmp_path / "src" / "tokengossip"
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "kernel.pyc").write_bytes(b"\0")
    (tmp_path / "BENCHMARK.json").write_text("{}")  # outside src and tests
    assert tool.tree(tmp_path) == clean
    (package / "kernel.c").write_text("int answer = 41;\n")
    edited = tool.tree(tmp_path)
    assert edited["dirty"] is True and edited["src_sha256"] != clean["src_sha256"]
    git(tmp_path, "checkout", "--", "src")
    (tmp_path / "tests" / "test_new.py").write_text("")
    assert tool.tree(tmp_path) == {"dirty": True, "src_sha256": clean["src_sha256"]}
