"""``tools/bench.py`` against a stand-in harness that prints canned
``perfbench/run.py`` output."""
import json
import subprocess
import sys
from pathlib import Path

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


def test_bench_writes_medians_quartiles_digests_and_layers(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 40,
                                                         "workloads": [{"name": "run_out"}]}))
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path), "--out", str(out)],
                   check=True, capture_output=True)
    bench = json.loads(out.read_text())
    run_out = bench["workloads"]["run_out"]
    assert (bench["env"], bench["seconds"]) == ({"python": "3"}, 40)
    assert run_out["end_to_end"]["wall_s"] == {"median": 0.30000000000000004, "q1": 0.2,
                                               "q3": 0.4}
    assert run_out["digests"] == {str(s): f"d{s}" for s in range(1, 6)}
    assert run_out["per_layer"] == {"protocols.cfld_s": 0.1}
    assert (run_out["correct"], run_out["attempted"], run_out["failed"]) == (True, 50, 0)
    assert len(bench["notes"]) == 4
