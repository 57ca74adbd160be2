"""The README's Python quick start runs as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

import tokengossip

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("## Quick start (Python)"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    src = str(Path(tokengossip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "TokenPayload(value=2016, count=64)"
