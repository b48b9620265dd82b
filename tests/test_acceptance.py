"""Acceptance gate: every headline guarantee at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the corresponding bound.  Tolerances are pinned here, not
configurable.
"""

import itertools
import math

import numpy as np

from thetaquant.formal import (
    covariant_constancy_residual,
    formal_hitchin_residual,
    moyal_product,
    trivialized_star_compare,
)
from thetaquant.fourier import FourierFunction, FourierMode
from thetaquant.sections import QuadratureGrid, gram_matrix, required_grid_size
from thetaquant.siegel import SiegelPoint, TangentDirection
from thetaquant.theta import heat_residuals, theta_basis
from thetaquant.toeplitz import (
    bms_experiment,
    c1_antisymmetry_constant,
    hs_inner,
    loglog_order,
    product_expansion_fit,
    toeplitz_mode_closed_form,
    toeplitz_modes_quadrature,
    trace_pair_closed_form,
)
from thetaquant.tqft import mapping_torus_invariant, pairing_limit_experiment

POINTS_N1 = [SiegelPoint(1j), SiegelPoint(1 + 2j), SiegelPoint(0.5 + 0.7j)]
POINT_N2 = SiegelPoint(np.diag([1j, 2j]))


def report(num, name, passed, detail):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def grid_for(p, k, m_max=0):
    return QuadratureGrid(required_grid_size(p, k, m_max))


def test_01_orthonormality():
    worst1 = 0.0
    for p in POINTS_N1:
        for k in (1, 2, 4, 8):
            G = gram_matrix(p, k, grid_for(p, k))
            worst1 = max(worst1, float(np.max(np.abs(G - np.eye(k)))))
    worst2 = 0.0
    for k in (1, 2):
        G = gram_matrix(POINT_N2, k, grid_for(POINT_N2, k))
        worst2 = max(worst2, float(np.max(np.abs(G - np.eye(k**2)))))
    report(
        1,
        "theta frame orthonormality",
        worst1 < 1e-8 and worst2 < 1e-7,
        f"n=1 max dev {worst1:.2e} < 1e-8; n=2 max dev {worst2:.2e} < 1e-7",
    )


def test_02_closed_form_vs_quadrature():
    modes = [
        FourierMode((r,), (s,)) for r in range(-3, 4) for s in range(-3, 4)
    ]
    worst = 0.0
    for p in POINTS_N1:
        for k in range(1, 7):
            grid = grid_for(p, k, 3)
            quads = toeplitz_modes_quadrature(p, k, modes, grid)
            for m in modes:
                diff = np.max(
                    np.abs(
                        toeplitz_mode_closed_form(p, k, m).entries
                        - quads[m].entries
                    )
                )
                worst = max(worst, float(diff))
    report(
        2,
        "Toeplitz closed form vs quadrature oracle",
        worst < 1e-8,
        f"max entry diff {worst:.2e} < 1e-8 over k<=6, |r|,|s|<=3, 3 points",
    )


def test_03_heat_identity():
    rng = np.random.default_rng(11)
    worst = worst_fd = 0.0
    cases = [(p, 1) for p in POINTS_N1]
    for p in POINTS_N1:
        for k in (1, 2, 4, 8):
            cases.append((p, k))
    cases.append((POINT_N2, 2))
    for p, k in cases:
        labels = theta_basis(k, p.n)
        pairs = [(0, 0)] if p.n == 1 else [(0, 0), (0, 1), (1, 1)]
        for _ in range(5):
            x = rng.uniform(0, 1, size=p.n)
            y = rng.uniform(0, 1, size=p.n)
            z = x + p.Z @ y
            lab = labels[rng.integers(0, len(labels))]
            res, fd = heat_residuals(p, lab, z, pairs)[:, 0]  # termwise and fd rows
            worst = max(worst, res.max())
            worst_fd = max(worst_fd, fd.max())
    report(
        3,
        "heat equation (term-consistent + finite differences)",
        worst < 1e-12 and worst_fd < 1e-8,
        f"termwise {worst:.2e} < 1e-12; fd {worst_fd:.2e} < 1e-8",
    )


def test_04_covariant_constancy():
    modes = [FourierMode((r,), (s,)) for r in range(-3, 4) for s in range(-3, 4)]
    worst = 0.0
    raw_gap = 0.0
    for p1, p2 in itertools.combinations(POINTS_N1, 2):
        for k in (1, 2, 4, 8):
            for m in modes:
                worst = max(worst, covariant_constancy_residual(p1, p2, k, m))
                a = toeplitz_mode_closed_form(p1, k, m).entries
                b = toeplitz_mode_closed_form(p2, k, m).entries
                raw_gap = max(raw_gap, float(np.max(np.abs(a - b))))
    for m2 in [FourierMode((1, 0), (0, 1)), FourierMode((0, 1), (1, 1))]:
        worst = max(
            worst,
            covariant_constancy_residual(
                POINT_N2, SiegelPoint(np.diag([2j, 3j])), 2, m2
            ),
        )
    report(
        4,
        "covariant constancy of heat-rescaled operators",
        worst < 1e-9 and raw_gap > 1e-2,
        f"rescaled dev {worst:.2e} < 1e-9; raw operators differ by {raw_gap:.2e} > 1e-2",
    )


def test_05_trace_lemma():
    modes = [FourierMode((r,), (s,)) for r in range(-2, 3) for s in range(-2, 3)]
    worst = off_worst = 0.0
    for p in POINTS_N1:
        for k in (1, 2, 3, 4):
            mats = {m: toeplitz_mode_closed_form(p, k, m) for m in modes}
            for m1, m2 in itertools.product(modes, modes):
                closed = trace_pair_closed_form(p, k, m1, m2)
                direct = hs_inner(mats[m1], mats[m2])
                worst = max(worst, abs(closed - direct))
                congruent = all(
                    (a - b) % k == 0 for a, b in zip(m1.r + m1.s, m2.r + m2.s)
                )
                if not congruent:
                    off_worst = max(off_worst, abs(closed), abs(direct))
    report(
        5,
        "pair-trace closed form (including sign)",
        worst < 1e-10 and off_worst < 1e-12,
        f"closed vs direct {worst:.2e} < 1e-10; off-congruence {off_worst:.2e} < 1e-12",
    )


def test_06_gluing_dimension():
    worst = 0.0
    for g in (1, 2):
        for k in range(1, 9):
            v = mapping_torus_invariant(g, k)
            worst = max(worst, abs(v - k**g))
    report(
        6,
        "mapping torus invariant equals quantum dimension",
        worst < 1e-10,
        f"max |Z(Sigma x S1) - k^g| = {worst:.2e} over g<=2, k<=8",
    )


def test_07_operator_norm_limit():
    f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
    rows = bms_experiment(SiegelPoint(1j), f, (8, 16, 32, 64, 128))
    errs = [r["error"] for r in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    in_window = all(0.3 <= r <= 0.7 for r in ratios)
    report(
        7,
        "operator norms approach sup |f| at rate 1/k",
        decreasing and in_window,
        f"errors {errs[0]:.3e} .. {errs[-1]:.3e}, halving ratios "
        f"{min(ratios):.3f}..{max(ratios):.3f} in [0.3, 0.7]",
    )


def test_08_pairing_limit():
    p = SiegelPoint(1j)
    f = FourierFunction.mode((1,), (0,))
    rows = pairing_limit_experiment(p, f, f, (8, 16, 32, 64, 128))
    closed_dev = max(
        abs(r["error"] - (1 - np.exp(-np.pi / r["k"]))) for r in rows
    )
    f5 = FourierFunction(
        {((1,), (0,)): 0.5, ((-1,), (0,)): 0.5, ((0,), (1,)): 0.4,
         ((0,), (-1,)): 0.4, ((1,), (1,)): 0.2}
    )
    g5 = FourierFunction(
        {((1,), (0,)): 0.3, ((-1,), (0,)): 0.3, ((0,), (1,)): 0.5,
         ((0,), (-1,)): 0.5, ((1,), (1,)): 0.1}
    )
    rows5 = pairing_limit_experiment(p, f5, g5, (8, 16, 32, 64, 128))
    errs = [r["error"] for r in rows5]
    order = loglog_order([r["k"] for r in rows5], errs)
    monotone = all(b <= a for a, b in zip(errs, errs[1:]))
    report(
        8,
        "Hilbert-Schmidt pairing limit",
        closed_dev < 1e-10 and order >= 0.9 and monotone,
        f"closed-form check dev {closed_dev:.2e} < 1e-10; "
        f"generic 5-mode fit order {order:.3f} >= 0.9",
    )


def test_09_formal_flatness():
    modes = [((r,), (s,)) for r in range(-3, 4) for s in range(-3, 4)]
    worst = worst_fd = 0.0
    for p in POINTS_N1:
        for kind in ("z", "zbar"):
            v = TangentDirection(0, 0, kind)
            for m in modes:
                worst = max(worst, formal_hitchin_residual(p, m, v))
                worst_fd = max(
                    worst_fd, formal_hitchin_residual(p, m, v, fd_step=1e-4)
                )
    modes2 = [
        ((r1, r2), (s1, s2))
        for r1 in range(-3, 4, 3)
        for r2 in range(-2, 3, 2)
        for s1 in range(-3, 4, 3)
        for s2 in range(-2, 3, 2)
    ]
    for i in range(2):
        for kind in ("z", "zbar"):
            v = TangentDirection(i, i, kind)
            for m in modes2:
                worst = max(worst, formal_hitchin_residual(POINT_N2, m, v))
                worst_fd = max(
                    worst_fd, formal_hitchin_residual(POINT_N2, m, v, fd_step=1e-4)
                )
    report(
        9,
        "formal flatness of the heat trivialization",
        worst < 1e-10 and worst_fd < 1e-5,
        f"analytic {worst:.2e} < 1e-10; finite-difference {worst_fd:.2e} < 1e-5",
    )


def test_10_star_product():
    ks = (8, 16, 32, 64, 128)
    ks_asym = (16, 32, 64, 128, 256)
    p1, p2 = SiegelPoint(1j), SiegelPoint(1 + 2j)
    f = FourierFunction.mode((1,), (0,))
    g = FourierFunction.mode((0,), (1,))
    # c0: product of operators converges to operator of the product
    order = min(
        product_expansion_fit(q, f, g, ks_asym).c0_fit_order for q in (p1, p2)
    )
    # antisymmetrized c1 against the Poisson bracket, one global constant
    pairs = [
        (f, g),
        (FourierFunction.mode((1,), (1,)), FourierFunction.mode((0,), (1,))),
    ]
    constants = []
    resid = 0.0
    for q in (p1, p2):
        for fa, fb in pairs:
            comp = c1_antisymmetry_constant(q, fa, fb, ks)
            constants.append(comp.constant)
            resid = max(resid, comp.relative_residual)
    ref = constants[0]
    spread = max(abs(c - ref) / abs(ref) for c in constants)
    # trivialized star product order-1 against the Moyal coefficient
    star = trivialized_star_compare(((1,), (0,)), ((0,), (1,)), ks)
    star_dev = abs(star.constant - ref) / abs(ref)
    passed = order >= 0.9 and resid < 0.02 and spread < 0.02 and star_dev < 0.02
    report(
        10,
        "Berezin-Toeplitz star product structure",
        passed,
        f"c0 order {order:.3f} >= 0.9; c1 residual {resid:.2e} < 2%; "
        f"constant spread {spread:.2e} < 2%; star-vs-Moyal {star_dev:.2e} < 2% "
        f"(constant ~ {ref.real:.6f}, expected 1/(2 pi) = {1 / (2 * np.pi):.6f})",
    )


def _assoc_summand_scale(m1, m2, m3, order):
    """Largest term magnitude entering the order-l associativity coefficient.

    At order 4 with entries up to 2 the summands reach ~1e8 (one ulp there is
    ~1.5e-8), so 'exact to 1e-12' is asserted against this working scale --
    the strictest bound double precision can express.
    """
    a = FourierMode(*m1)
    b = FourierMode(*m2)
    c = FourierMode(*m3)
    q12 = abs(a.symplectic_pairing(b))
    q123 = abs((a + b).symplectic_pairing(c))
    q23 = abs(b.symplectic_pairing(c))
    q231 = abs(a.symplectic_pairing(b + c))
    best = 1.0
    for j1 in range(order + 1):
        j2 = order - j1
        denom = math.factorial(j1) * math.factorial(j2)
        best = max(
            best,
            (2 * np.pi**2) ** order * q12**j1 * q123**j2 / denom,
            (2 * np.pi**2) ** order * q23**j1 * q231**j2 / denom,
        )
    return best


def test_11_moyal_associativity():
    triples = [
        (((1,), (0,)), ((0,), (1,)), ((2,), (2,))),
        (((2,), (-1,)), ((1,), (2,)), ((-2,), (1,))),
        (((1,), (1,)), ((2,), (0,)), ((0,), (2,))),
        (((-1,), (2,)), ((2,), (2,)), ((1,), (-2,))),
        (((2,), (2,)), ((-2,), (2,)), ((2,), (-2,))),
    ]
    assert all(abs(x) <= 2 for t in triples for m in t for pair in m for x in pair)
    worst = 0.0
    for m1, m2, m3 in triples:
        fa, fb, fc = (FourierFunction.mode(*m) for m in (m1, m2, m3))
        left = moyal_product(moyal_product(fa, fb, 4), fc, 4)
        right = moyal_product(fa, moyal_product(fb, fc, 4), 4)
        for l in range(5):
            a, b = left.coefficient(l), right.coefficient(l)
            scale = _assoc_summand_scale(m1, m2, m3, l)
            for mode in set(a.terms) | set(b.terms):
                ca, cb = a.coefficient(mode), b.coefficient(mode)
                worst = max(worst, abs(ca - cb) / scale)
    report(
        11,
        "Moyal product associativity at order 4",
        worst < 1e-12,
        f"coefficient-wise defect {worst:.2e} < 1e-12 of the summand scale",
    )
