"""``tools/line_count.py --uncalled``: the public defs that no package module
other than ``__init__`` uses, with their lines and benchmark names."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_count.py"


def test_uncalled_lists_the_unused_defs_and_their_benchmark_names():
    done = subprocess.run([sys.executable, str(TOOL), "--uncalled"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows, total = done.stdout.splitlines()
    assert header.split() == ["def", "lines", "benchmark"]
    table = {name: (int(lines), named) for name, lines, named in map(str.split, rows)}
    # a paper object with no caller yet; the quadrature deviation the runners call
    assert table["formal.heat_transform"][1] == "no"
    assert "toeplitz.quadrature_deviation" not in table
    assert table["fourier.dense_max_abs"][1] == "yes"  # a per-layer metric names it
    lines = sum(n for n, _ in table.values())
    assert total == f"total: {len(table)} defs, {lines} lines"
