"""Experiment orchestration: dispatch, report documents, caching, emission.

Every experiment consumes an :class:`~thetaquant.config.ExperimentManifest`
and produces a :class:`ReportDocument` whose CSV rendering is byte-stable:
cell values are formatted once (floats at 17 significant digits, complex as
``a+bi``) and the cache stores the formatted rows keyed by a content hash of
the manifest and the package sources.  Module refusals (coarse grids,
non-normal points) become failed rows with reasons, never crashes.  A
verdict fails when what it measured is NaN or when it measured nothing.
"""

from __future__ import annotations

import csv
import functools
import glob
import hashlib
import io
import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentManifest
from .formal import (
    covariant_constancy_residual,
    formal_hitchin_residual,
    trivialized_star_compare,
)
from .fourier import FourierFunction, FourierMode
from .sections import (
    GridError,
    QuadratureGrid,
    SizeLimitError,
    gram_matrix,
    required_grid_size,
)
from .siegel import TangentDirection
from .tqft import (
    CurveClass,
    curve_operator,
    holonomy_mode,
    mapping_torus_invariant,
    pairing_limit_experiment,
)
from .theta import heat_residual, heat_residual_fd, theta_basis
from .toeplitz import (
    bms_experiment,
    c1_antisymmetry_constant,
    eta,
    hs_inner,
    loglog_order,
    product_expansion_fit,
    toeplitz_mode_closed_form,
    toeplitz_modes_quadrature,
    trace_pair_closed_form,
)

__all__ = ["ReportDocument", "run_experiment", "emit_outputs"]

ENV_CACHE_DIR = "THETAQUANT_CACHE_DIR"

# Deterministic probe coordinates in the fundamental domain (no RNG anywhere).
_PROBE_XY = (
    (0.13, 0.71),
    (0.42, 0.29),
    (0.77, 0.52),
    (0.31, 0.93),
    (0.66, 0.08),
)


def fmt_float(x):
    return "%.17g" % float(x)


def fmt_complex(z):
    z = complex(z)
    return "%s%s%si" % (
        fmt_float(z.real),
        "+" if z.imag >= 0 or z.imag != z.imag else "-",
        fmt_float(abs(z.imag)),
    )


def fmt_cell(v):
    if type(v) is str:
        return v
    if type(v) is float:
        return fmt_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, (complex, np.complexfloating)):
        return fmt_complex(v)
    return str(v)


def fmt_point(p):
    if p.n == 1:
        return fmt_complex(p.Z[0, 0])
    rows = ",".join(
        "[" + ",".join(fmt_complex(z) for z in row) + "]" for row in p.Z
    )
    return "[" + rows + "]"


def fmt_ints(v):
    """Integers joined by '|': a tuple of ints, an array, a list or one int."""
    if isinstance(v, tuple):
        return "|".join(map(str, v))
    return "|".join(str(int(x)) for x in np.atleast_1d(v))


@dataclass
class ReportDocument:
    """Formatted rows, per-criterion verdicts, and run metadata."""

    manifest: ExperimentManifest
    columns: list
    rows: list  # lists of already-formatted strings
    verdicts: list  # dicts: name, passed, observed, tolerance
    extras: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    cache_hit: bool = False

    def csv_bytes(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        w.writerows(self.rows)
        return buf.getvalue().encode("utf-8")

    @property
    def passed(self):
        return all(v["passed"] for v in self.verdicts)

    def summary_text(self):
        lines = [
            f"experiment: {self.manifest.experiment}",
            f"manifest: {self.manifest.canonical()}",
            f"cache: {'hit' if self.cache_hit else 'miss'}",
            f"rows: {len(self.rows)}",
            f"wall_seconds: {self.wall_seconds:.3f}",
            f"environment: python {platform.python_version()}, "
            f"numpy {np.__version__}, thetaquant {__version__}",
        ]
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key}: {fmt_cell(value)}")
        for v in self.verdicts:
            lines.append(f"[criterion {v['name']}]")
            lines.append(f"passed: {'true' if v['passed'] else 'false'}")
            lines.append(f"observed: {fmt_cell(v['observed'])}")
            lines.append(f"tolerance: {fmt_cell(v['tolerance'])}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _verdict(name, passed, observed, tolerance):
    return {
        "name": name,
        "passed": bool(passed),
        "observed": observed,
        "tolerance": tolerance,
    }


def _worst(values):
    """Largest value; NaN when any value is NaN or when there are none.

    The builtin max drops NaN depending on argument order (max(0.0, nan) is
    0.0), so a verdict built on it could pass over NaN rows.
    """
    return float(np.max(values)) if len(values) else float("nan")


# heat-identity, covariance and trace-lemma evaluate per label and per mode
# pair; their sweeps stop at this level.
_POINTWISE_MAX_K = 8


def _pointwise_levels(m, extras):
    """Levels of ``m`` up to the pointwise cap, and one NaN per skipped level.

    Skipped levels go in ``extras``; the NaNs join every verdict's values,
    so a sweep that skips a level fails, as one with a refused row does."""
    skipped = [k for k in m.k_values if k > _POINTWISE_MAX_K]
    if skipped:
        extras["skipped_levels"] = (
            f"{fmt_ints(skipped)} (above k = {_POINTWISE_MAX_K})"
        )
    levels = [k for k in m.k_values if k <= _POINTWISE_MAX_K]
    return levels, [float("nan")] * len(skipped)


def _refused_extras(levels):
    """The ``refused_levels`` extra naming each refused level once, if any.

    A refused row adds NaN to its verdict, so the verdict fails as well.
    """
    return {"refused_levels": fmt_ints(sorted(set(levels)))} if levels else {}


def _grid_for(m, p, k, m_max=0):
    """The manifest's grid, or the bandwidth-rule grid, at its epsilon."""
    N = m.grid if m.grid is not None else required_grid_size(p, k, m_max, m.epsilon)
    return QuadratureGrid(N, p.n, m.epsilon)


def _probe_points(p, count=5):
    """Deterministic z samples x + Zy in the fundamental domain."""
    out = []
    for x0, y0 in _PROBE_XY[:count]:
        x = np.full(p.n, x0)
        y = np.full(p.n, y0)
        out.append((x + p.Z @ y, x, y))
    return out


def _first_coordinate(n, r, s):
    """The mode (r, s) of an n = 1 default, embedded in the first coordinate."""
    return FourierMode((r,) + (0,) * (n - 1), (s,) + (0,) * (n - 1))


def _mode_labels(modes):
    """(r, s) of each mode formatted once, as its table cells show them."""
    return [(fmt_ints(mm.r), fmt_ints(mm.s)) for mm in modes]


def _mode_list(m, bound):
    if m.modes:
        return [FourierMode(r, s) for r, s in m.modes]
    rng = range(-bound, bound + 1)
    return [_first_coordinate(m.n, r, s) for r in rng for s in rng]


# ----------------------------------------------------------------- experiments


def _run_gram(m):
    tol = m.tol if m.tol is not None else (1e-8 if m.n == 1 else 1e-7)
    columns = ["n", "k", "Z", "N", "max_deviation", "status"]
    rows = []
    devs = []
    refused = []
    for p in m.points:
        point = fmt_point(p)
        for k in m.k_values:
            grid = _grid_for(m, p, k)
            try:
                G = gram_matrix(p, k, grid)
                dev = float(
                    np.max(np.abs(G - np.eye(k**p.n)))
                )
                status = "pass" if dev < tol else "fail"
            except GridError as exc:
                dev, status = float("nan"), f"refused: {exc}"
                refused.append(k)
            devs.append(dev)
            rows.append([m.n, k, point, grid.N, dev, status])
    worst = _worst(devs)
    verdicts = [_verdict("gram-identity", worst < tol, worst, tol)]
    return columns, rows, verdicts, _refused_extras(refused)


def _run_toeplitz_compare(m):
    tol = m.tol if m.tol is not None else 1e-8
    modes = _mode_list(m, 2)
    columns = ["k", "Z", "N", "r", "s", "max_entry_diff", "status"]
    m_max = max(max(abs(x) for x in mm.r + mm.s) for mm in modes)
    labels = _mode_labels(modes)
    rows = []
    diffs = []
    refused = []
    for p in m.points:
        point = fmt_point(p)
        for k in m.k_values:
            grid = _grid_for(m, p, k, m_max)
            try:
                quads = toeplitz_modes_quadrature(p, k, modes, grid)
            except GridError as exc:
                diffs.append(float("nan"))
                refused.append(k)
                rows.append([k, point, grid.N, "", "", float("nan"),
                             f"refused: {exc}"])
                continue
            for mm, (r, s) in zip(modes, labels):
                closed = toeplitz_mode_closed_form(p, k, mm)
                diff = float(np.max(np.abs(closed.entries - quads[mm].entries)))
                diffs.append(diff)
                rows.append(
                    [k, point, grid.N, r, s, diff, "pass" if diff < tol else "fail"]
                )
    worst = _worst(diffs)
    verdicts = [_verdict("closed-form-vs-quadrature", worst < tol, worst, tol)]
    return columns, rows, verdicts, _refused_extras(refused)


def _run_heat_identity(m):
    tol = m.tol if m.tol is not None else 1e-12
    tol_fd = 1e-8
    columns = ["n", "k", "Z", "z", "i", "j", "residual", "residual_fd", "status"]
    rows = []
    residuals, residuals_fd = [], []
    extras = {}
    levels, unmeasured = _pointwise_levels(m, extras)
    pairs = [(0, 0)] if m.n == 1 else [(0, 0), (0, 1), (1, 1)]
    for p in m.points:
        point = fmt_point(p)
        probes = np.array([z for z, _, _ in _probe_points(p)])
        shown = [fmt_complex(z[0]) for z in probes]
        for k in levels:
            labels = theta_basis(k, p.n)
            label = labels[min(1, len(labels) - 1)]
            res = heat_residual(p, label, probes, pairs).tolist()
            fd = heat_residual_fd(p, label, probes, pairs).tolist()
            for z, res_z, fd_z in zip(shown, res, fd):
                residuals.extend(res_z)
                residuals_fd.extend(fd_z)
                for (i, j), r, f in zip(pairs, res_z, fd_z):
                    ok = r < tol and f < tol_fd
                    rows.append(
                        [p.n, k, point, z, i, j, r, f, "pass" if ok else "fail"]
                    )
    worst, worst_fd = _worst(residuals + unmeasured), _worst(residuals_fd + unmeasured)
    verdicts = [
        _verdict("heat-identity-termwise", worst < tol, worst, tol),
        _verdict("heat-identity-fd", worst_fd < tol_fd, worst_fd, tol_fd),
    ]
    return columns, rows, verdicts, extras


def _run_covariance(m):
    tol = m.tol if m.tol is not None else 1e-9
    modes = _mode_list(m, 2)
    columns = ["k", "r", "s", "Z1", "Z2", "rescaled_diff", "raw_diff", "status"]
    rows = []
    devs, raws = [], []
    extras = {}
    levels, unmeasured = _pointwise_levels(m, extras)
    pts = list(m.points)
    pairs = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))] if len(pts) > 1 else []
    if not pairs:
        raise ConfigError("covariance experiment needs at least two Siegel points")
    labels = _mode_labels(modes)
    for (p1, p2) in pairs:
        z1, z2 = fmt_point(p1), fmt_point(p2)
        for k in levels:
            dev_k = covariant_constancy_residual(p1, p2, k, modes)
            # both operators are eta W_k(m) with the same unit-modulus W
            raw_k = np.abs(eta(p1, k, modes) - eta(p2, k, modes))
            devs.extend(dev_k)
            raws.extend(raw_k)
            for (r, s), dev, raw in zip(labels, dev_k, raw_k):
                rows.append(
                    [k, r, s, z1, z2, dev, raw, "pass" if dev < tol else "fail"]
                )
    worst, best_raw = _worst(devs + unmeasured), _worst(raws + unmeasured)
    verdicts = [
        _verdict("rescaled-Z-independence", worst < tol, worst, tol),
        _verdict("raw-operators-vary", best_raw > 1e-2, best_raw, 1e-2),
    ]
    return columns, rows, verdicts, extras


def _run_trace_lemma(m):
    tol = m.tol if m.tol is not None else 1e-10
    tol_zero = 1e-12
    modes = _mode_list(m, 1)
    columns = ["k", "r1", "s1", "r2", "s2", "closed", "direct", "diff",
               "congruent", "status"]
    rows = []
    diffs, off_congruence = [], []
    extras = {}
    levels, unmeasured = _pointwise_levels(m, extras)
    labels = _mode_labels(modes)
    entries = np.array([mm.r + mm.s for mm in modes])
    for p in m.points[:1]:
        for k in levels:
            closed = trace_pair_closed_form(p, k, modes, modes)
            # one BLAS dot per pair: a one-pass reduction over the stacked
            # matrices was slower at n = 2, k = 8 and needed two more copies
            mats = [toeplitz_mode_closed_form(p, k, mm) for mm in modes]
            direct = np.array([[hs_inner(a, b) for b in mats] for a in mats])
            # |.| as the builtin abs rounds it, so each cell is the scalar one
            gap = closed - direct
            diff = np.hypot(gap.real, gap.imag)
            size = np.hypot(direct.real, direct.imag)
            congruent = np.all((entries[:, None] - entries) % k == 0, axis=-1)
            diffs.extend(diff[congruent])
            off_congruence.extend(size[~congruent])
            ok = (diff < tol) & (congruent | (size < tol_zero))
            for a, b in np.ndindex(len(modes), len(modes)):
                rows.append(
                    [k, *labels[a], *labels[b], fmt_complex(closed[a, b]),
                     fmt_complex(direct[a, b]), float(diff[a, b]),
                     bool(congruent[a, b]), "pass" if ok[a, b] else "fail"]
                )
    worst, worst_zero = _worst(diffs + unmeasured), _worst(off_congruence + unmeasured)
    verdicts = [
        _verdict("trace-closed-vs-direct", worst < tol, worst, tol),
        _verdict("off-congruence-vanishing", worst_zero < tol_zero,
                 worst_zero, tol_zero),
    ]
    return columns, rows, verdicts, extras


def _bms_function(n):
    e1 = (1,) + (0,) * (n - 1)
    zero = (0,) * n
    return FourierFunction({(e1, zero): 1.0, (tuple(-x for x in e1), zero): 1.0})


def _run_bms(m):
    p = m.points[0]
    f = _bms_function(m.n) if not m.modes else FourierFunction(
        {(r, s): 1.0 for r, s in m.modes}
    )
    data = bms_experiment(p, f, m.k_values)
    columns = ["k", "norm", "sup", "error", "halving_ratio", "status"]
    rows = []
    errors = [row["error"] for row in data]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ratios = []
    for i, row in enumerate(data):
        ratio = float("nan")
        if i > 0 and data[i]["k"] == 2 * data[i - 1]["k"] and errors[i - 1] > 0:
            ratio = errors[i] / errors[i - 1]
            ratios.append(ratio)
        rows.append([row["k"], row["norm"], row["sup"], row["error"], ratio, "pass"])
    ratio_ok = bool(ratios) and all(0.3 <= r <= 0.7 for r in ratios)
    verdicts = [
        _verdict("norm-error-decreasing", decreasing,
                 _worst(errors), "strict decrease"),
        _verdict("halving-ratio-in-window", ratio_ok,
                 _worst(ratios), "[0.3, 0.7]"),
    ]
    extras = {key: data[0][key] for key in ("sup", "sup_gap", "sup_method")}
    return columns, rows, verdicts, extras


def _pairing_defaults(n):
    def function(coeffs):
        return FourierFunction(
            {_first_coordinate(n, r, s): c for (r, s), c in coeffs.items()}, n=n
        )

    f = function({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.4, (0, -1): 0.4, (1, 1): 0.2})
    g = function({(1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.5, (0, -1): 0.5, (1, 1): 0.1})
    return f, g


def _run_pairing_limit(m):
    p = m.points[0]
    if m.modes:
        f = FourierFunction({(r, s): 1.0 for r, s in m.modes})
        g = f
    else:
        f, g = _pairing_defaults(m.n)
    data = pairing_limit_experiment(p, f, g, m.k_values)
    columns = ["k", "value", "parseval", "error", "status"]
    rows = [
        [row["k"], fmt_complex(row["value"]), fmt_complex(row["parseval"]),
         row["error"], "pass"]
        for row in data
    ]
    errors = [row["error"] for row in data]
    ks = [row["k"] for row in data]
    monotone = all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    order = loglog_order(ks, errors)
    verdicts = [
        _verdict("pairing-error-monotone", monotone, _worst(errors), "nonincreasing"),
        _verdict("pairing-fit-order", order >= 0.9, order, ">= 0.9"),
    ]
    return columns, rows, verdicts, {"fit_order": order}


def _star_pairs(m):
    if m.modes:
        (r1, s1), (r2, s2) = m.modes
        return [(FourierMode(r1, s1), FourierMode(r2, s2))]
    return [
        (_first_coordinate(m.n, 1, 0), _first_coordinate(m.n, 0, 1)),
        (_first_coordinate(m.n, 1, 1), _first_coordinate(m.n, 0, 1)),
    ]


def _run_star_fit(m):
    tol = m.tol if m.tol is not None else 0.02
    pairs = _star_pairs(m)
    points = list(m.points[:2])
    columns = ["pair", "Z", "c1_constant", "c1_residual", "star_constant",
               "condition", "status"]
    rows = []
    c1_constants = []
    star_constants = []
    c0_orders = []
    # The order fit needs the asymptotic regime (Gaussian-factor curvature
    # biases small k) and a small output mode; measure it on the first pair
    # over the doubled level range.
    doubled = tuple(2 * k for k in m.k_values)
    for pair_idx, (m1, m2) in enumerate(pairs):
        f = FourierFunction({m1: 1.0})
        g = FourierFunction({m2: 1.0})
        for p in points:
            comp = c1_antisymmetry_constant(p, f, g, m.k_values)
            star = trivialized_star_compare(p, m1, m2, m.k_values)
            if pair_idx == 0:
                c0_orders.append(
                    product_expansion_fit(p, f, g, doubled).c0_fit_order
                )
            c1_constants.append(comp.constant)
            star_constants.append(star.constant)
            ok = comp.relative_residual < tol
            rows.append(
                [f"F[{fmt_ints(m1.r)};{fmt_ints(m1.s)}]*F[{fmt_ints(m2.r)};{fmt_ints(m2.s)}]",
                 fmt_point(p), fmt_complex(comp.constant),
                 comp.relative_residual, fmt_complex(star.constant),
                 comp.condition_number, "pass" if ok else "fail"]
            )
    ref = c1_constants[0]
    stability = _worst([abs(c - ref) / abs(ref) for c in c1_constants])
    # The c1 constant is measured against -i{f,g}; the Moyal ratio against
    # the full exponential coefficient.  Both estimate the same global
    # normalization, expected 1/(2 pi) in these units.
    cross = _worst(
        [abs(sc - cc) / abs(cc) for sc, cc in zip(star_constants, c1_constants)]
    )
    worst_resid = _worst([r[3] for r in rows])
    min_order = float(np.min(c0_orders))
    verdicts = [
        _verdict("c0-fit-order", min_order >= 0.9, min_order, ">= 0.9"),
        _verdict("c1-matches-bracket", worst_resid < tol, worst_resid, tol),
        _verdict("constant-stability", stability < tol, stability, tol),
        _verdict("star-matches-moyal-constant", cross < tol, cross, tol),
    ]
    extras = {
        "normalization_constant": fmt_complex(np.mean(c1_constants)),
        "expected_constant": fmt_complex(1.0 / (2 * np.pi)),
    }
    return columns, rows, verdicts, extras


def _run_flatness(m):
    tol = m.tol if m.tol is not None else 1e-10
    tol_fd = 1e-5
    modes = _mode_list(m, 3)
    columns = ["mode_r", "mode_s", "direction", "residual_analytic", "residual_fd"]
    rows = []
    residuals, residuals_fd = [], []
    for p in m.points:
        if p.n == 1:
            dirs = [TangentDirection(0, 0, "z"), TangentDirection(0, 0, "zbar")]
        else:
            if not p.is_normal:
                rows.append(["", "", "refused: non-normal point", float("nan"),
                             float("nan")])
                continue
            dirs = [TangentDirection(i, i, kind) for i in range(p.n)
                    for kind in ("z", "zbar")]
        per_direction = [
            (("dZ" if v.holomorphic else "dZbar") + f"[{v.i},{v.j}]",
             formal_hitchin_residual(p, modes, v),
             formal_hitchin_residual(p, modes, v, fd_step=1e-4))
            for v in dirs
        ]
        for a, mm in enumerate(modes):
            for name, res, fd in per_direction:
                residuals.append(res[a])
                residuals_fd.append(fd[a])
                rows.append([fmt_ints(mm.r), fmt_ints(mm.s), name, res[a], fd[a]])
    worst, worst_fd = _worst(residuals), _worst(residuals_fd)
    verdicts = [
        _verdict("flatness-analytic", worst < tol, worst, tol),
        _verdict("flatness-fd", worst_fd < tol_fd, worst_fd, tol_fd),
    ]
    return columns, rows, verdicts, {}


def _run_tqft(m):
    g = m.genus
    if m.points and m.points[0].n == g:
        p = m.points[0]
    else:
        from .siegel import SiegelPoint

        p = SiegelPoint(np.diag([1j * (i + 1) for i in range(g)]))
    curves = [CurveClass(r, s) for r, s in m.modes]
    c1, c2 = (curves + [CurveClass.empty(g)] * 2)[:2]
    m1, m2 = holonomy_mode(c1), holonomy_mode(c2)
    columns = ["genus", "k", "curve1", "curve2", "invariant", "expected", "status"]
    rows = []
    errors = []
    for k in m.k_values:
        val = mapping_torus_invariant(p, k, c1, c2)
        try:
            # tr(W(m1) W(m2)*): k^g for equal curves, else from the matrices
            expected = complex(k**g) if m1 == m2 else hs_inner(
                curve_operator(p, k, c1), curve_operator(p, k, c2)
            )
            err = abs(val - expected)
            status = "pass" if err < 1e-10 else "fail"
            shown = fmt_float(expected.real) if m1 == m2 else fmt_complex(expected)
        except SizeLimitError as exc:
            err, status, shown = float("nan"), f"refused: {exc}", "-"
        errors.append(err)
        rows.append(
            [g, k, f"{fmt_ints(c1.r)};{fmt_ints(c1.s)}" if curves else "empty",
             f"{fmt_ints(c2.r)};{fmt_ints(c2.s)}" if len(curves) > 1 else "empty",
             fmt_complex(val), shown, status]
        )
    worst = _worst(errors)
    verdicts = [_verdict("gluing-dimension", worst < 1e-10, worst, 1e-10)]
    return columns, rows, verdicts, {}


_EXPERIMENTS = {
    "gram": _run_gram,
    "toeplitz-compare": _run_toeplitz_compare,
    "heat-identity": _run_heat_identity,
    "covariance": _run_covariance,
    "trace-lemma": _run_trace_lemma,
    "bms": _run_bms,
    "pairing-limit": _run_pairing_limit,
    "star-fit": _run_star_fit,
    "flatness": _run_flatness,
    "tqft": _run_tqft,
}


# ----------------------------------------------------------------- harness


def _cache_dir(m):
    return (
        m.cache_dir
        or os.environ.get(ENV_CACHE_DIR)
        or os.path.join(os.path.expanduser("~"), ".cache", "thetaquant")
    )


@functools.cache
def _source_hash():
    """sha256 over the package's ``*.py`` sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        digest.update(os.path.basename(path).encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _cache_key(m):
    payload = m.canonical() + "|source=" + _source_hash()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _write_json_atomically(path, payload):
    """Write through a temp file in the same directory, then rename it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run_experiment(m, use_cache=True):
    """Run (or recall) one experiment; deterministic for identical manifests."""
    if m.experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {m.experiment!r}")
    cdir = _cache_dir(m)
    meta_path = os.path.join(cdir, _cache_key(m) + ".json") if use_cache else None
    if use_cache and os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        return ReportDocument(
            manifest=m,
            columns=meta["columns"],
            rows=meta["rows"],
            verdicts=meta["verdicts"],
            extras=meta["extras"],
            wall_seconds=0.0,
            cache_hit=True,
        )
    start = time.perf_counter()
    columns, raw_rows, verdicts, extras = _EXPERIMENTS[m.experiment](m)
    rows = [[fmt_cell(c) for c in row] for row in raw_rows]
    for v in verdicts:
        v["observed"] = fmt_cell(v["observed"])
        v["tolerance"] = fmt_cell(v["tolerance"])
    doc = ReportDocument(
        manifest=m,
        columns=columns,
        rows=rows,
        verdicts=verdicts,
        extras=extras,
        wall_seconds=time.perf_counter() - start,
    )
    if use_cache:
        os.makedirs(cdir, exist_ok=True)
        _write_json_atomically(
            meta_path,
            {
                "columns": doc.columns,
                "rows": doc.rows,
                "verdicts": doc.verdicts,
                "extras": doc.extras,
            },
        )
    return doc


def emit_outputs(doc, out_base, formats=("csv", "structured")):
    """Write the CSV table and/or structured summary; returns written paths."""
    paths = []
    os.makedirs(os.path.dirname(os.path.abspath(out_base)) or ".", exist_ok=True)
    if "csv" in formats:
        path = out_base + ".csv"
        with open(path, "wb") as fh:
            fh.write(doc.csv_bytes())
        paths.append(path)
    if "structured" in formats:
        path = out_base + ".summary.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.summary_text())
        paths.append(path)
    return paths
