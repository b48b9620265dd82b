"""Traced smoke passes of the benchmark's three workloads.

They keep ``perfbench/run.py``, its tracer and every per-layer name it reads
working as the package changes: the closed-form operator path (``dense``),
the quadrature oracle (``quadrature``) and the many small pointwise calls
(``pointwise``).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert '"correct": true' in done.stdout


def test_dense_workload_smoke():
    _smoke("dense")


def test_quadrature_workload_smoke():
    _smoke("quadrature")


def test_pointwise_workload_smoke():
    _smoke("pointwise")
