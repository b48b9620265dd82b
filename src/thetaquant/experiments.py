"""Experiment orchestration: dispatch, report documents, caching, emission.

Every experiment consumes an :class:`~thetaquant.config.ExperimentManifest`
and produces a :class:`ReportDocument` whose CSV rendering is byte-stable:
cell values are formatted once (floats at 17 significant digits, complex as
``a+bi``) and the cache stores the formatted rows keyed by a content hash of
the manifest, the package sources and the Python and numpy versions.  In
the sweep runners a refused cell (a coarse grid, a non-normal point, a
point whose theta sums no certified radius truncates, an fd stencil that
leaves the Siegel space, an array refused for its size before allocation)
becomes a failed row with its reason and a NaN
in every verdict, never a crash; ``bms`` measures one
operator norm and one sup per report, and its refusals end the run with
the error (exit code 2 in the CLI).  A verdict fails when what it measured
is NaN or when it measured nothing.  The runners hold no byte figures:
each array is refused for its size by the function that allocates it.
"""

from __future__ import annotations

import cmath
import contextlib
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
from .config import EXPERIMENTS, ExperimentManifest
from .formal import (
    _checked_columns,
    _constancy_residual,
    _hitchin_residuals,
    _trivialized_star,
)
from .fourier import FourierFunction, FourierMode, SizeLimitError, _mode_table
# gram_matrix is bound here, uncalled, for
# perfbench/test_perfbench.py::test_wrappers_are_installed_everywhere_and_fully_removed,
# which reads thetaquant.experiments.gram_matrix
from .sections import GridError, _plan, gram_deviation, gram_matrix  # noqa: F401
from .siegel import InvalidPointError, NonNormalError, TangentDirection, laplace_eigenvalue
from .tqft import (
    CurveClass,
    curve_operator,
    holonomy_mode,
    mapping_torus_invariant,
    pairing_limit_experiment,
)
from .theta import ThetaLabel, TruncationError, _abs, heat_residuals
from .toeplitz import (
    _c0_residual_norms,
    _eta,
    _star_fits,
    bms_experiment,
    hs_inner,
    loglog_order,
    quadrature_deviation,
    toeplitz_mode_closed_form,
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


def _relative_gap(value, ref):
    """|value - ref| / |ref|; NaN when ref is 0 or not finite, which leaves
    no scale to measure against, so a verdict on it fails."""
    return abs(value - ref) / abs(ref) if ref != 0 and cmath.isfinite(ref) else float("nan")


class _Sweep:
    """A report's rows, one value list per verdict, and its refused levels.

    ``cell(k, refused_row)`` runs one (point, level) measurement, which adds
    its rows to ``rows`` and its values to ``values[verdict]`` only after
    the last call that can refuse.  A GridError, SizeLimitError,
    NonNormalError, InvalidPointError (a flatness stencil that leaves the
    Siegel space) or TruncationError raised inside it is the one refusal
    path: the row ``refused_row("refused: <reason>")``, which places the
    reason and has ``len(columns)`` cells, is added, every verdict's list
    gets a NaN, so every verdict fails, and ``k`` joins the
    ``refused_levels`` extra (a cell with ``k`` None, which sweeps no level,
    adds none).
    """

    def __init__(self, columns, *verdicts):
        self.columns = columns
        self.rows = []
        self.values = {name: [] for name in verdicts}
        self.refused = []

    @contextlib.contextmanager
    def cell(self, k, refused_row):
        try:
            yield
        except (GridError, SizeLimitError, NonNormalError, InvalidPointError,
                TruncationError) as exc:
            self.rows.append(refused_row(f"refused: {exc}"))
            for values in self.values.values():
                values.append(np.nan)
            if k is not None:
                self.refused.append(k)

    def below(self, name, tol):
        """The verdict that the worst of ``values[name]`` is below tol."""
        worst = _worst(self.values[name])
        return _verdict(name, worst < tol, worst, tol)

    def report(self, verdicts):
        levels = sorted(set(self.refused))
        extras = {"refused_levels": fmt_ints(levels)} if levels else {}
        return self.columns, self.rows, verdicts, extras


def _probe_points(p):
    """Deterministic z samples x + Zy in the fundamental domain."""
    out = []
    for x0, y0 in _PROBE_XY:
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
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    sweep = _Sweep(["n", "k", "Z", "N", "max_deviation", "status"], "gram-identity")
    for p in m.points:
        point = fmt_point(p)
        for k in m.k_values:
            N = "" if m.grid is None else m.grid  # the rule's N once it is certified
            with sweep.cell(k, lambda why: [m.n, k, point, N, np.nan, why]):
                plan = _plan(p, k, N=m.grid)
                N = plan.N
                dev = gram_deviation(p, k, plan)
                sweep.values["gram-identity"].append(dev)
                sweep.rows.append(
                    [m.n, k, point, N, dev, "pass" if dev < tol else "fail"]
                )
    return sweep.report([sweep.below("gram-identity", tol)])


def _run_toeplitz_compare(m):
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    modes = _mode_list(m, 2)
    table = _mode_table(modes)
    labels = _mode_labels(modes)
    sweep = _Sweep(["k", "Z", "N", "r", "s", "max_entry_diff", "status"],
                   "closed-form-vs-quadrature")
    diffs = sweep.values["closed-form-vs-quadrature"]
    for p in m.points:
        point = fmt_point(p)
        for k in m.k_values:
            N = "" if m.grid is None else m.grid  # the rule's N once it is certified
            with sweep.cell(k, lambda why: [k, point, N, "", "", np.nan, why]):
                plan = _plan(p, k, table, m.grid)
                N = plan.N
                devs = quadrature_deviation(p, k, table, plan).tolist()
                diffs.extend(devs)
                for (r, s), diff in zip(labels, devs):
                    sweep.rows.append(
                        [k, point, N, r, s, diff, "pass" if diff < tol else "fail"]
                    )
    return sweep.report([sweep.below("closed-form-vs-quadrature", tol)])


def _run_heat_identity(m):
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    tol_fd = 1e-8
    sweep = _Sweep(["n", "k", "Z", "z", "i", "j", "residual", "residual_fd", "status"],
                   "heat-identity-termwise", "heat-identity-fd")
    residuals, residuals_fd = sweep.values.values()
    pairs = [(0, 0)] if m.n == 1 else [(0, 0), (0, 1), (1, 1)]
    for p in m.points:
        point = fmt_point(p)
        probes = np.array([z for z, _, _ in _probe_points(p)])
        shown = [fmt_complex(z[0]) for z in probes]
        for k in m.k_values:
            label = ThetaLabel(k, (0,) * (p.n - 1) + (min(1, k - 1),))
            # a point whose theta sums no radius can truncate is refused
            with sweep.cell(k, lambda why: [p.n, k, point, "", "", "",
                                            np.nan, np.nan, why]):
                res, fd = heat_residuals(p, label, probes, pairs).tolist()
                for z, res_z, fd_z in zip(shown, res, fd):
                    residuals.extend(res_z)
                    residuals_fd.extend(fd_z)
                    for (i, j), r, f in zip(pairs, res_z, fd_z):
                        ok = r < tol and f < tol_fd
                        sweep.rows.append(
                            [p.n, k, point, z, i, j, r, f, "pass" if ok else "fail"]
                        )
    return sweep.report([sweep.below("heat-identity-termwise", tol),
                         sweep.below("heat-identity-fd", tol_fd)])


def _run_covariance(m):
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    modes = _mode_list(m, 2)
    labels = _mode_labels(modes)
    table = _mode_table(modes)
    P = len(m.points)  # each point paired with the next
    shown = [fmt_point(p) for p in m.points]
    sweep = _Sweep(["k", "r", "s", "Z1", "Z2", "rescaled_diff", "raw_diff", "status"],
                   "rescaled-Z-independence", "raw-operators-vary")
    devs, raws = sweep.values.values()
    lams = [laplace_eigenvalue(p, table) for p in m.points]  # lambda does not depend on k
    cells = {}
    # level by level, so one W serves every pair and one level's W is held at
    # a time; the rows are then laid out pair by pair
    for i, k in enumerate(m.k_values):
        w = None
        for a in range(P):
            z1, z2 = shown[a], shown[(a + 1) % P]
            start = len(sweep.rows)
            with sweep.cell(k, lambda why: [k, "", "", z1, z2, np.nan, np.nan, why]):
                if w is None:
                    w = _checked_columns(k, m.n, table)
                lam1, lam2 = lams[a], lams[(a + 1) % P]
                dev_k = _constancy_residual(k, lam1, lam2, w)
                # both operators are eta W_k(m) with the same unit-modulus W
                raw_k = np.abs(_eta(lam1, k) - _eta(lam2, k))
                devs.extend(dev_k)
                raws.extend(raw_k)
                for (r, s), dev, raw in zip(labels, dev_k.tolist(), raw_k.tolist()):
                    sweep.rows.append(
                        [k, r, s, z1, z2, dev, raw, "pass" if dev < tol else "fail"]
                    )
            cells[a, i] = sweep.rows[start:]
    sweep.rows = [row for a in range(P) for i in range(len(m.k_values))
                  for row in cells[a, i]]
    best_raw = _worst(raws)
    return sweep.report([
        sweep.below("rescaled-Z-independence", tol),
        _verdict("raw-operators-vary", best_raw > 1e-2, best_raw, 1e-2),
    ])


def _run_trace_lemma(m):
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    tol_zero = 1e-12
    modes = _mode_list(m, 1)
    labels = _mode_labels(modes)
    table = _mode_table(modes)
    sweep = _Sweep(["k", "r1", "s1", "r2", "s2", "closed", "direct", "diff",
                    "congruent", "status"],
                   "trace-closed-vs-direct", "off-congruence-vanishing")
    diffs, off_congruence = sweep.values.values()
    for p in m.points[:1]:
        for k in m.k_values:
            with sweep.cell(k, lambda why: [k, "", "", "", "", "", "", np.nan, "", why]):
                # one BLAS dot per pair: a one-pass reduction over the stacked
                # matrices was slower at n = 2, k = 8 and needed two more copies
                mats = toeplitz_mode_closed_form(p, k, modes)
                closed = trace_pair_closed_form(p, k, modes, modes)
                direct = np.array([[hs_inner(a, b) for b in mats] for a in mats])
                # |.| as the builtin abs rounds it, so each cell is the scalar one
                diff = _abs(closed - direct)
                size = _abs(direct)
                congruent = np.all((table[:, None] - table) % k == 0, axis=-1)
                diffs.extend(diff[congruent])
                off_congruence.extend(size[~congruent])
                ok = (diff < tol) & (congruent | (size < tol_zero))
                columns = (closed, direct, diff, congruent, ok)
                for la, *row in zip(labels, *(c.tolist() for c in columns)):
                    for lb, c, d, e, cong, good in zip(labels, *row):
                        sweep.rows.append(
                            [k, *la, *lb, fmt_complex(c), fmt_complex(d), e, cong,
                             "pass" if good else "fail"]
                        )
    return sweep.report([sweep.below("trace-closed-vs-direct", tol),
                         sweep.below("off-congruence-vanishing", tol_zero)])


def _bms_function(n):
    return FourierFunction({_first_coordinate(n, r, 0): 1.0 for r in (1, -1)})


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
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    pairs = _star_pairs(m)
    points = list(m.points[:2])
    columns = ["pair", "Z", "c1_constant", "c1_residual", "star_constant",
               "condition", "status"]
    rows = []
    c1_constants = []
    star_constants = []
    c0_orders = []
    # one kernel call fits every pair's star and each point's c1, in one lstsq
    functions = [(FourierFunction({m1: 1.0}), FourierFunction({m2: 1.0})) for m1, m2 in pairs]
    fits, lams = _star_fits(points, functions, m.k_values)
    # The order fit needs the asymptotic regime (Gaussian-factor curvature
    # biases small k) and a small output mode; measure it on the first pair
    # over the doubled level range.
    doubled = tuple(2 * k for k in m.k_values)
    for pair_idx, ((m1, m2), (f, g), fit) in enumerate(zip(pairs, functions, fits)):
        star = _trivialized_star(m1, m2, fit)
        for p, lam, comp in zip(points, lams, fit.c1):
            if pair_idx == 0:  # the c0 half of the fit alone, on the point's table
                norms = _c0_residual_norms(doubled, f, g, fit.out_modes, lam)
                c0_orders.append(loglog_order(doubled, norms))
            c1_constants.append(comp.constant)
            star_constants.append(star.constant)
            ok = comp.relative_residual < tol
            rows.append(
                [f"F[{fmt_ints(m1.r)};{fmt_ints(m1.s)}]*F[{fmt_ints(m2.r)};{fmt_ints(m2.s)}]",
                 fmt_point(p), fmt_complex(comp.constant),
                 comp.relative_residual, fmt_complex(star.constant),
                 comp.condition_number, "pass" if ok else "fail"]
            )
    stability = _worst([_relative_gap(c, c1_constants[0]) for c in c1_constants])
    # The c1 constant is measured against -i{f,g}; the Moyal ratio against
    # the full exponential coefficient.  Both estimate the same global
    # normalization, expected 1/(2 pi) in these units.
    cross = _worst(
        [_relative_gap(sc, cc) for sc, cc in zip(star_constants, c1_constants)]
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
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    tol_fd = 1e-5
    modes = _mode_list(m, 3)
    labels = _mode_labels(modes)
    table = _mode_table(modes)
    sweep = _Sweep(["mode_r", "mode_s", "direction", "residual_analytic", "residual_fd"],
                   "flatness-analytic", "flatness-fd")
    residuals, residuals_fd = sweep.values.values()
    for p in m.points:
        if p.n == 1:
            dirs = [TangentDirection(0, 0, "z"), TangentDirection(0, 0, "zbar")]
        else:
            dirs = [TangentDirection(i, i, kind) for i in range(p.n)
                    for kind in ("z", "zbar")]
        # flatness sweeps no level; the closed form refuses a non-normal
        # point, and the fd stencil a step that leaves the Siegel space
        with sweep.cell(None, lambda why: ["", "", why, np.nan, np.nan]):
            analytic, fd = _hitchin_residuals(p, table, dirs, [None, 1e-4])
            per_direction = [
                (("dZ" if v.holomorphic else "dZbar") + f"[{v.i},{v.j}]",
                 res.tolist(), res_fd.tolist())
                for v, res, res_fd in zip(dirs, analytic, fd)
            ]
            for a, (r, s) in enumerate(labels):
                for name, res, fd in per_direction:
                    residuals.append(res[a])
                    residuals_fd.append(fd[a])
                    sweep.rows.append([r, s, name, res[a], fd[a]])
    return sweep.report([sweep.below("flatness-analytic", tol),
                         sweep.below("flatness-fd", tol_fd)])


def _run_tqft(m):
    tol = EXPERIMENTS[m.experiment].tolerance(m.n, m.tol)
    g = m.n  # the genus
    curves = [CurveClass(r, s) for r, s in m.modes]
    c1, c2 = (curves + [CurveClass.empty(g)] * 2)[:2]
    m1, m2 = holonomy_mode(c1), holonomy_mode(c2)
    names = [f"{fmt_ints(c1.r)};{fmt_ints(c1.s)}" if curves else "empty",
             f"{fmt_ints(c2.r)};{fmt_ints(c2.s)}" if len(curves) > 1 else "empty"]
    sweep = _Sweep(["genus", "k", "curve1", "curve2", "invariant", "expected", "status"],
                   "gluing-dimension")
    for k in m.k_values:
        val = mapping_torus_invariant(g, k, c1, c2)
        cells = [g, k, *names, fmt_complex(val)]
        with sweep.cell(k, lambda why: cells + ["-", why]):
            # tr(W(m1) W(m2)*): k^g for equal curves, else from the matrices
            expected = complex(k**g) if m1 == m2 else hs_inner(
                curve_operator(k, c1), curve_operator(k, c2)
            )
            err = abs(val - expected)
            sweep.values["gluing-dimension"].append(err)
            shown = fmt_float(expected.real) if m1 == m2 else fmt_complex(expected)
            sweep.rows.append(cells + [shown, "pass" if err < tol else "fail"])
    return sweep.report([sweep.below("gluing-dimension", tol)])


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
    """Hash of the manifest, the package sources and the Python and numpy
    versions: a cached report is one that this setup would produce."""
    payload = (m.canonical() + "|source=" + _source_hash()
               + f"|python={platform.python_version()}|numpy={np.__version__}")
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


def emit_outputs(doc, out_base):
    """Write the CSV table and the structured summary; returns their paths."""
    os.makedirs(os.path.dirname(os.path.abspath(out_base)) or ".", exist_ok=True)
    csv_path, summary_path = out_base + ".csv", out_base + ".summary.txt"
    with open(csv_path, "wb") as fh:
        fh.write(doc.csv_bytes())
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(doc.summary_text())
    return [csv_path, summary_path]
