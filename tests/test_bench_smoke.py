"""One traced smoke pass of the benchmark's dense workload.

It keeps ``perfbench/run.py``, its tracer and every per-layer name it reads
working as the package changes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_dense_workload_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "dense",
         "--smoke", "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert '"correct": true' in done.stdout
