"""The level-batched runners write the rows of one scalar call per row.

heat-identity, trace-lemma and covariance evaluate every probe, derivative
pair and mode pair of a level in one array pass, and flatness every mode and
direction of a point.  They share what does not depend on the level or the
direction: covariance takes one eigenvalue table per point for every level
and one table of W's values per level for every pair of points; flatness one
fd stencil (or closed-form dlambda/dX, dlambda/dY) per entry pair (i, j) for
both of its directions and one mu frame per point; trace-lemma every pair
sign of a level from one integer array pass over the mode table; and
heat-identity every dZ, dz2 and value sum of a (point, level) from one
term-wise pass.  Each row here is rebuilt from the scalar calls, one per
row, and compared cell by cell.  The trace-lemma cell is also held to the
size check of its closed forms, a heat-identity cell to one theta window,
and the covariance and flatness runners to their counts of shared tables.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetaquant
from thetaquant import formal, siegel, theta, toeplitz
from thetaquant.config import parse_config_all
from thetaquant.experiments import (
    _mode_list,
    _probe_points,
    fmt_cell,
    fmt_complex,
    fmt_ints,
    fmt_point,
    run_experiment,
)
from thetaquant.formal import covariant_constancy_residual, formal_hitchin_residual
from thetaquant.siegel import TangentDirection
from thetaquant.theta import heat_residuals, theta_basis
from thetaquant.toeplitz import (
    eta,
    hs_inner,
    toeplitz_mode_closed_form,
    trace_pair_closed_form,
)

POINTS = {
    1: "i; 1+2i; 0.5+0.7i",
    2: "[[1i, 0], [0, 2i]]; [[2i, 0.5i], [0.5i, 1i]]",
}
LEVELS = (2, 4)


def _rows(experiment, n):
    (m,) = parse_config_all(
        f"[{experiment}]\nn = {n}\nk = 2, 4\nZ = {POINTS[n]}\n"
    )
    return m, run_experiment(m, use_cache=False).rows


def _formatted(rows):
    return [[fmt_cell(c) for c in row] for row in rows]


@pytest.mark.parametrize("n", [1, 2])
def test_heat_identity_rows_are_the_scalar_residuals(n):
    m, rows = _rows("heat-identity", n)
    pairs = [(0, 0)] if n == 1 else [(0, 0), (0, 1), (1, 1)]
    want = []
    for p in m.points:
        for k in LEVELS:
            label = theta_basis(k, n)[1]
            for z, _, _ in _probe_points(p):
                for i, j in pairs:
                    res, fd = heat_residuals(p, label, z, [(i, j)]).ravel().tolist()
                    ok = res < 1e-12 and fd < 1e-8
                    want.append([n, k, fmt_point(p), fmt_complex(z[0]), i, j,
                                 res, fd, "pass" if ok else "fail"])
    assert rows == _formatted(want)


@pytest.mark.parametrize("n", [1, 2])
def test_covariance_rows_are_the_scalar_residuals(n):
    m, rows = _rows("covariance", n)
    modes = _mode_list(m, 2)
    pts = list(m.points)
    want = []
    for a, q1 in enumerate(pts):
        q2 = pts[(a + 1) % len(pts)]
        for k in LEVELS:
            for mm in modes:
                dev = covariant_constancy_residual(q1, q2, k, mm)
                raw = abs(eta(q1, k, mm) - eta(q2, k, mm))
                want.append([k, fmt_ints(mm.r), fmt_ints(mm.s), fmt_point(q1),
                             fmt_point(q2), dev, raw,
                             "pass" if dev < 1e-9 else "fail"])
    assert rows == _formatted(want)


@pytest.mark.parametrize("n", [1, 2])
def test_trace_lemma_rows_are_the_scalar_traces(n):
    m, rows = _rows("trace-lemma", n)
    modes = _mode_list(m, 1)
    p = m.points[0]
    want = []
    for k in LEVELS:
        mats = {mm: toeplitz_mode_closed_form(p, k, mm) for mm in modes}
        for m1 in modes:
            for m2 in modes:
                closed = trace_pair_closed_form(p, k, m1, m2)
                direct = hs_inner(mats[m1], mats[m2])
                congruent = all(
                    (a - b) % k == 0 for a, b in zip(m1.r + m1.s, m2.r + m2.s)
                )
                diff = abs(closed - direct)
                ok = diff < 1e-10 and (congruent or abs(direct) < 1e-12)
                want.append([k, fmt_ints(m1.r), fmt_ints(m1.s), fmt_ints(m2.r),
                             fmt_ints(m2.s), fmt_complex(closed),
                             fmt_complex(direct), diff, congruent,
                             "pass" if ok else "fail"])
    assert rows == _formatted(want)


@pytest.mark.parametrize("n", [1, 2])
def test_flatness_rows_are_the_scalar_residuals(n):
    # the default points: i, 1+2i and 0.5+0.7i at n = 1, diag(i, 2i) at
    # n = 2; abs of a complex array once rounded 84 of the 588 cells at n = 1
    # one ulp away from the scalar abs
    (m,) = parse_config_all(f"[flatness]\nn = {n}\n")
    dirs = [TangentDirection(i, i, kind) for i in range(n) for kind in ("z", "zbar")]
    want = []
    for p in m.points:
        for mm in _mode_list(m, 3):
            for v in dirs:
                want.append([fmt_ints(mm.r), fmt_ints(mm.s),
                             ("dZ" if v.holomorphic else "dZbar") + f"[{v.i},{v.j}]",
                             formal_hitchin_residual(p, mm, v),
                             formal_hitchin_residual(p, mm, v, fd_step=1e-4)])
    assert run_experiment(m, use_cache=False).rows == _formatted(want)


_PEAK_SCRIPT = """
import gc, tracemalloc
import thetaquant.experiments as experiments
import thetaquant.toeplitz as toeplitz
from thetaquant.config import parse_config

sizes = []
check = toeplitz.check_bytes
toeplitz.check_bytes = lambda size, *args: (sizes.append(size), check(size, *args))
m = parse_config("experiment = trace-lemma\\nn = 2\\nk = 16")
experiments.run_experiment(m, use_cache=False)
gc.collect()
tracemalloc.start()
experiments.run_experiment(m, use_cache=False)
print(tracemalloc.get_traced_memory()[1], sizes[-1])
"""


def test_trace_lemma_cell_stays_below_its_size_check():
    # the closed forms refuse M modes above 16 (M + 1) dim^2 bytes;
    # operators that copied their scattered entries held M + 1 dense arrays
    # while the last one was made, 10.02 arrays of 1 MiB here, and a
    # (M, dim, dim) stack beside the operators would hold 2M
    src = Path(thetaquant.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak, bound = map(int, done.stdout.split())
    assert bound == 16 * (9 + 1) * 256**2  # 9 modes of dimension 16^2
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("n", (1, 2))
def test_heat_identity_cell_certifies_and_windows_once(n, count_calls):
    # both residuals of a (point, level) are sums over one window; the fd
    # residual once certified and built its own at a second tail
    calls = count_calls((theta, "truncation_radius"), (theta, "_window"))
    (m,) = parse_config_all(f"[heat-identity]\nn = {n}\nk = 4\nZ = {POINTS[n]}\n")
    run_experiment(m, use_cache=False)
    cells = len(m.points) * len(m.k_values)
    assert calls == {"truncation_radius": cells, "_window": cells}


def test_covariance_takes_one_eigenvalue_table_per_point_and_one_w_per_level(count_calls):
    # lambda does not depend on k nor W on the point pair; each cell once
    # took both points' eigenvalues twice (the residual and the raw eta)
    # and its own W, 36 eigenvalue and 9 W calls here
    calls = count_calls((siegel, "_laplace_eigenvalue"), (formal, "_laplace_eigenvalue"),
                        (formal, "_clock_shift_columns"), (toeplitz, "_clock_shift_columns"))
    (m,) = parse_config_all("[covariance]\nn = 1\nk = 2, 4, 8\n")
    run_experiment(m, use_cache=False)
    assert len(m.points) == 3
    assert calls == {"_laplace_eigenvalue": 3, "_clock_shift_columns": 3}


@pytest.mark.parametrize("n", (1, 2))
def test_flatness_takes_one_stencil_per_point_and_entry_pair(n, count_calls):
    # dZ and dZbar of one entry (i, i) share the four eigenvalue tables of
    # its fd stencil, which once came once per direction: 24 tables at n = 1
    # (three points) and 16 at n = 2 (one point, two entries)
    calls = count_calls((siegel, "_laplace_eigenvalue"), (formal, "_laplace_eigenvalue"))
    (m,) = parse_config_all(f"[flatness]\nn = {n}\n")
    run_experiment(m, use_cache=False)
    assert calls == {"_laplace_eigenvalue": 4 * len(m.points) * n}


def test_batched_shapes_follow_the_arguments():
    (m,) = parse_config_all(f"[heat-identity]\nn = 2\nk = 2\nZ = {POINTS[2]}\n")
    p = m.points[1]
    label = theta_basis(3, 2)[1]
    probes = np.array([z for z, _, _ in _probe_points(p)])
    pairs = [(0, 0), (0, 1), (1, 1)]
    stack = heat_residuals(p, label, probes, pairs)
    assert stack.shape == (2, 5, 3)  # (termwise and fd, points, pairs)
    assert heat_residuals(p, label, probes[2], pairs).shape == (2, 1, 3)
    one = heat_residuals(p, label, probes[2], [(0, 1)])
    assert one.shape == (2, 1, 1) and np.array_equal(one[:, 0, 0], stack[:, 2, 1])
    modes = _mode_list(m, 1)
    closed = trace_pair_closed_form(p, 2, modes, modes)
    assert closed.shape == (9, 9)
    assert trace_pair_closed_form(p, 2, modes[3], modes).shape == (9,)
    assert trace_pair_closed_form(p, 2, modes, modes[3]).shape == (9,)
    assert all(
        trace_pair_closed_form(p, 2, m1, m2) == closed[a, b]
        for a, m1 in enumerate(modes) for b, m2 in enumerate(modes)
    )
