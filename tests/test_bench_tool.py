"""``tools/bench.py`` against a stand-in harness that prints canned
``perfbench/run.py`` output, and stand-in Tier-1 tests."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"

FAKE_RUN = '''
import json, sys
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


def stand_in_root(root: Path, tests: str) -> list:
    """A checkout with the stand-in harness, a module under src and
    ``tests`` as its one test file; returns the tool's command line."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 40,
                                                     "workloads": [{"name": "run_out"}]}))
    (root / "src").mkdir()
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
    assert run_out["per_layer"] == {"protocols.cfld_s": 0.1}
    assert (run_out["correct"], run_out["attempted"], run_out["failed"]) == (True, 50, 0)
    assert len(bench["notes"]) == 6
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
