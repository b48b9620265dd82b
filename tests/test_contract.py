"""Every manifest the config accepts runs, or is refused in one line.

Manifests are drawn by ``tests/test_properties.py``'s ``configs``, with
their levels redrawn from [1, LEVEL_CAP], as many and as distinct as drawn,
and an explicit grid from [1, GRID_CAP], so that a run stays under about a
second and a few hundred MiB: the 25-mode compare at a non-diagonal n = 2
point took 0.4 s at k = 16 and 3.2 s at k = 20, and its Gram on a given
grid of 296 nodes holds about 0.5 GiB.  Each is written to a file and
run as ``thetaquant experiment run FILE --no-cache`` through ``cli.main``.
It must exit 0 or 1 with a report on stdout, or 2 with exactly one line on
stderr; no exception may escape ``main``, and no verdict may pass with an
observed value that is not finite.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_properties import _render, configs

from thetaquant.cli import main

LEVEL_CAP, GRID_CAP = 16, 128


@st.composite
def capped_configs(draw):
    fields = draw(configs())
    count = len(fields["k"])
    levels = st.lists(st.integers(1, LEVEL_CAP), min_size=count, max_size=count, unique=True)
    grid = None if fields["grid"] is None else draw(st.integers(1, GRID_CAP))
    return {**fields, "k": tuple(draw(levels)), "grid": grid}


def _run(text):
    """(exit code, stdout, stderr) of ``experiment run`` on ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["experiment", "run", path, "--no-cache"])
    return rc, out.getvalue(), err.getvalue()


def _passed_observations(report):
    """The observed value of every verdict of ``report`` that passed."""
    lines = report.splitlines()
    return [after.removeprefix("observed: ")
            for line, after in zip(lines, lines[1:]) if line == "passed: true"]


@settings(max_examples=40, deadline=None)
@given(capped_configs(), st.booleans())
# a star-fit at one repeated level once ended in a ZeroDivisionError of its
# stability ratio, and an n = 2 one at 40, 1, 40, 40, 40 in another
@example({"experiment": "star-fit", "n": 1, "k": (1, 1, 1, 1, 1), "Z": (), "modes": (),
          "tol": None, "grid": None}, False)
@example({"experiment": "star-fit", "n": 2, "k": (40, 1, 40, 40, 40), "Z": (),
          "modes": (((1, 0), (0, 2)), ((0, 1), (1, 0))), "tol": None, "grid": None}, True)
def test_every_accepted_manifest_runs_or_is_refused_in_one_line(fields, one_line):
    rc, out, err = _run(_render(fields, one_line))
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""
    else:
        assert rc in (0, 1) and err == "", (rc, err)
        assert out.rstrip().endswith(f"overall: {'PASS' if rc == 0 else 'FAIL'}"), out
        for observed in _passed_observations(out):
            assert math.isfinite(float(observed)), out
