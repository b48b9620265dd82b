import itertools
import math
import tracemalloc

import numpy as np
import pytest

from thetaquant.config import parse_config_all
from thetaquant.experiments import run_experiment
from thetaquant.formal import (
    FormalFourierSeries,
    covariant_constancy_residual,
    formal_hitchin_residual,
    heat_transform,
    moyal_product,
    trivialized_star_compare,
)
from thetaquant.fourier import FourierFunction, FourierMode, SizeLimitError, poisson_bracket
from thetaquant.siegel import SiegelPoint, TangentDirection, laplace_eigenvalue
from thetaquant.toeplitz import WeylSymbol, eta, toeplitz_mode_closed_form

Z_LIST = [1j, 1 + 2j, 0.5 + 0.7j]
MODES = [((r,), (s,)) for r in range(-3, 4) for s in range(-3, 4)]


class TestHeatCoefficient:
    def test_constant_mode(self, points_n1):
        for p in points_n1:
            assert 1 / eta(p, 5, ((0,), (0,))) == 1.0

    def test_frozen_value(self):
        got = 1 / eta(SiegelPoint(1j), 1, ((1,), (0,)))
        assert got == pytest.approx(4.810477380965351, abs=1e-12)

    @pytest.mark.parametrize("z", Z_LIST)
    def test_reciprocal_of_eta(self, z):
        p = SiegelPoint(z)
        for k in (1, 2, 8):
            for m in MODES[::5]:
                assert 1 / eta(p, k, m) * eta(p, k, m) == pytest.approx(
                    1.0, abs=1e-14
                )

    def test_equals_exp_of_eigenvalue(self, points_n1):
        for p in points_n1:
            for m in [((1,), (0,)), ((2,), (-3,))]:
                lam = laplace_eigenvalue(p, m)
                for k in (1, 4):
                    assert 1 / eta(p, k, m) == pytest.approx(
                        np.exp(-lam / (4 * k)), rel=1e-13
                    )
            assert 1 / eta(p, 3, ((2,), (1,))) >= 1.0


class TestHeatTransform:
    def test_constant_fixed(self):
        p = SiegelPoint(1j)
        one = FourierFunction.constant(1.0)
        out = heat_transform(p, one, h_eval=0.25)
        assert out.approx_eq(one)
        formal = heat_transform(p, one, order=3)
        assert formal.coefficient(0).approx_eq(one)
        for l in (1, 2, 3):
            assert not formal.coefficient(l).terms

    def test_numeric_scaling_example(self):
        # mode (1,0) at Z=i has eigenvalue -2 pi; at h = 1/2 the factor is e^{pi/4}
        p = SiegelPoint(1j)
        f = FourierFunction.mode((1,), (0,))
        out = heat_transform(p, f, h_eval=0.5)
        assert out.coefficient(((1,), (0,))) == pytest.approx(
            np.exp(np.pi / 4), rel=1e-13
        )

    def test_formal_first_order_is_quarter_eigenvalue(self):
        p = SiegelPoint(1 + 2j)
        m = ((2,), (1,))
        f = FourierFunction.mode(*m)
        out = heat_transform(p, f, order=2)
        lam = laplace_eigenvalue(p, m)
        assert out.coefficient(1).coefficient(m) == pytest.approx(-lam / 4, rel=1e-13)
        assert out.coefficient(2).coefficient(m) == pytest.approx(
            (lam / 4) ** 2 / 2, rel=1e-13
        )

    def test_formal_matches_numeric_at_small_h(self):
        p = SiegelPoint(1j)
        f = FourierFunction({((1,), (0,)): 0.7, ((0,), (2,)): -0.3j})
        series = heat_transform(p, f, order=6)
        h = 1 / 64
        numeric = heat_transform(p, f, h_eval=h)
        summed = {}
        for l in range(7):
            for m, c in series.coefficient(l).terms.items():
                summed[m] = summed.get(m, 0.0) + c * h**l
        for m, c in numeric.terms.items():
            assert summed[m] == pytest.approx(c, rel=1e-9)


class TestCovariantConstancy:
    def test_constant_mode_zero(self):
        assert covariant_constancy_residual(
            SiegelPoint(1j), SiegelPoint(1 + 2j), 3, ((0,), (0,))
        ) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("m", [((1,), (0,)), ((2,), (-3,)), ((0,), (1,))])
    def test_rescaled_operators_agree(self, k, m):
        pts = [SiegelPoint(z) for z in Z_LIST]
        for p1, p2 in itertools.combinations(pts, 2):
            assert covariant_constancy_residual(p1, p2, k, m) < 1e-9

    def test_values_are_refused_before_allocation(self, monkeypatch):
        # six (M, k^n) complex arrays: three modes of dimension 4096 need 1.1 MiB
        monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="3 modes of dimension 4096"):
                covariant_constancy_residual(
                    SiegelPoint(1j), SiegelPoint(1 + 2j), 4096, MODES[:3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 3 * 4096  # not one (M, k^n) array

    def test_unrescaled_operators_differ(self):
        p1, p2 = SiegelPoint(1j), SiegelPoint(1 + 2j)
        a = toeplitz_mode_closed_form(p1, 2, ((1,), (0,))).entries
        b = toeplitz_mode_closed_form(p2, 2, ((1,), (0,))).entries
        assert np.max(np.abs(a - b)) > 1e-2

    @pytest.mark.parametrize(
        "Z1, Z2, modes",
        [
            (1j, 1 + 2j, [((1,), (0,)), ((2,), (-3,)), ((0,), (1,))]),
            (
                [[1j, 0], [0, 2j]],
                [[2j, 0.5j], [0.5j, 1j]],
                [((1, 0), (0, 1)), ((0, 1), (1, 1)), ((2, 0), (-1, 0))],
            ),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_raw_difference_is_eta_gap(self, Z1, Z2, modes, k):
        # both operators are eta W_k(m) with the same unit-modulus W, so the
        # largest entry difference is the gap between the Gaussian factors
        p1, p2 = SiegelPoint(Z1), SiegelPoint(Z2)
        for m in modes:
            a = toeplitz_mode_closed_form(p1, k, m).entries
            b = toeplitz_mode_closed_form(p2, k, m).entries
            dense = np.max(np.abs(a - b))
            assert abs(eta(p1, k, m) - eta(p2, k, m)) == pytest.approx(
                dense, rel=1e-14, abs=1e-16
            )

    def test_mode_whose_eta_underflows_is_rescaled_by_its_significand(self):
        # eta of (0, 16) at 0.5i and k = 1 is exp(-804), which underflows to
        # 0: (1/eta)(eta w) was inf * 0, and the row and the verdict read NaN
        (m,) = parse_config_all(
            "[covariance]\nn = 1\nk = 1\nZ = 0.5i; 1i\nmodes = 0,16; 1,0\n")
        (p1, p2), under, normal = m.points, ((0,), (16,)), ((1,), (0,))
        assert eta(p1, 1, under) == 0
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = covariant_constancy_residual(p1, p2, 1, [under, normal])
        assert got[0] < 1e-15
        assert got[1] == covariant_constancy_residual(p1, p2, 1, normal)
        report = run_experiment(m, use_cache=False)
        assert report.passed
        assert all(float(row[5]) < 1e-15 for row in report.rows)

    def test_n2_diagonal(self, point_n2):
        q = SiegelPoint(np.diag([2j, 3j]))
        for m in [((1, 0), (0, 1)), ((0, 1), (1, 1))]:
            assert covariant_constancy_residual(point_n2, q, 2, m) < 1e-9


class TestFlatness:
    def test_constant_mode(self, points_n1):
        for p in points_n1:
            v = TangentDirection(0, 0, "z")
            assert formal_hitchin_residual(p, ((0,), (0,)), v) == 0.0

    def test_reference_point_values(self):
        # at Z = i, mode (1,0): eigenvalue derivative i pi balances the
        # bivector eigenvalue -2 i pi^2 divided by 2 pi
        from thetaquant.siegel import dlambda_dZ

        p = SiegelPoint(1j)
        v = TangentDirection(0, 0, "z")
        assert dlambda_dZ(p, ((1,), (0,)), v) == pytest.approx(1j * np.pi)
        assert formal_hitchin_residual(p, ((1,), (0,)), v) < 1e-10

    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("kind", ["z", "zbar"])
    def test_analytic_sweep(self, z, kind):
        p = SiegelPoint(z)
        v = TangentDirection(0, 0, kind)
        for m in MODES:
            assert formal_hitchin_residual(p, m, v) < 1e-10

    @pytest.mark.parametrize("kind", ["z", "zbar"])
    def test_finite_difference_sweep(self, kind):
        p = SiegelPoint(0.5 + 0.7j)
        v = TangentDirection(0, 0, kind)
        for m in MODES[::6]:
            assert formal_hitchin_residual(p, m, v, fd_step=1e-4) < 1e-5

    def test_n2_directions(self, point_n2):
        for (i, j) in [(0, 0), (1, 1), (0, 1)]:
            for kind in ("z", "zbar"):
                v = TangentDirection(i, j, kind)
                m = ((1, 2), (0, 1))
                assert formal_hitchin_residual(point_n2, m, v) < 1e-10
                assert formal_hitchin_residual(point_n2, m, v, fd_step=1e-4) < 1e-5

    def test_non_normal_refused(self):
        from thetaquant.siegel import NonNormalError

        Z = np.array([[1.0 + 1j, 0.5], [0.5, 2j]])
        with pytest.raises(NonNormalError):
            formal_hitchin_residual(
                SiegelPoint(Z), ((1, 0), (0, 1)), TangentDirection(0, 0, "z")
            )


def series(f, order):
    return FormalFourierSeries.from_function(f, order)


class TestMoyal:
    def test_unit_is_neutral(self):
        one = FourierFunction.constant(1.0)
        f = FourierFunction({((1,), (0,)): 0.3, ((2,), (-1,)): 1j})
        prod = moyal_product(f, one, 4)
        assert prod.coefficient(0).approx_eq(f)
        for l in range(1, 5):
            assert not prod.coefficient(l).terms

    def test_order_one_coefficient(self):
        f = FourierFunction.mode((1,), (0,))
        g = FourierFunction.mode((0,), (1,))
        prod = moyal_product(f, g, 2)
        c1 = prod.coefficient(1).coefficient(((1,), (1,)))
        assert c1 == pytest.approx(2j * np.pi**2)

    def test_commutator_is_poisson_bracket(self):
        f = FourierFunction.mode((1,), (0,))
        g = FourierFunction.mode((0,), (1,))
        comm = moyal_product(f, g, 1) - moyal_product(g, f, 1)
        want = -1j * poisson_bracket(f, g)
        assert comm.coefficient(1).approx_eq(want, tol=1e-10)
        assert comm.coefficient(1).coefficient(((1,), (1,))) == pytest.approx(
            4j * np.pi**2
        )

    @pytest.mark.parametrize("z, pairs", [
        (0.5 + 0.7j, [(((1,), (0,)), ((0,), (1,))), (((2,), (1,)), ((-1,), (3,))),
                      (((1,), (1,)), ((2,), (2,)))]),
        ([[1 + 1j, 0.5], [0.5, 2j]], [(((1, 0), (0, 1)), ((0, 2), (1, -1))),
                                      (((1, -1), (2, 0)), ((0, 1), (-1, 3)))]),
    ])
    def test_weyl_product_is_the_exponentiated_moyal_product(self, z, pairs):
        # W(m1) W(m2) = e^{i pi omega/k} W(m1 + m2), and order j of the Moyal
        # product at h = 1/(2 pi k) is (i pi omega/k)^j / j!; truncated at
        # order L they differ by at most the exponential's Taylor remainder
        p = SiegelPoint(z)
        for a, b in pairs:
            m1, m2 = FourierMode(*a), FourierMode(*b)
            omega = m1.symplectic_pairing(m2)
            for k in (2, 3, 5, 8, 16):
                weyl = WeylSymbol(k, p.n, {m1: 1.0}) @ WeylSymbol(k, p.n, {m2: 1.0})
                for L in range(5):
                    star = moyal_product(FourierFunction({m1: 1.0}),
                                         FourierFunction({m2: 1.0}), L)
                    series = sum(star.coefficient(j).coefficient(m1 + m2)
                                 * (2 * np.pi * k) ** -j for j in range(L + 1))
                    x = np.pi * abs(omega) / k
                    remainder = x ** (L + 1) / math.factorial(L + 1)
                    assert abs(weyl.coeffs[m1 + m2] - series) <= remainder + 1e-12

    def test_order_zero_is_pointwise_product(self):
        f = FourierFunction({((1,), (0,)): 0.5, ((0,), (1,)): 2.0})
        g = FourierFunction({((1,), (1,)): 1j, ((-1,), (0,)): 0.25})
        prod = moyal_product(f, g, 3)
        assert prod.coefficient(0).approx_eq(f * g, tol=1e-12)

    @pytest.mark.parametrize(
        "m1,m2,m3",
        [
            (((1,), (0,)), ((0,), (1,)), ((2,), (2,))),
            (((2,), (-1,)), ((1,), (2,)), ((-2,), (1,))),
            (((1,), (1,)), ((2,), (0,)), ((0,), (2,))),
            (((-1,), (2,)), ((2,), (2,)), ((1,), (-2,))),
        ],
    )
    def test_associativity_order_four(self, m1, m2, m3):
        f, g, h = (FourierFunction.mode(*m) for m in (m1, m2, m3))
        left = moyal_product(moyal_product(f, g, 4), h, 4)
        right = moyal_product(f, moyal_product(g, h, 4), 4)
        for l in range(5):
            a, b = left.coefficient(l), right.coefficient(l)
            for mode in set(a.terms) | set(b.terms):
                ca, cb = a.coefficient(mode), b.coefficient(mode)
                assert abs(ca - cb) <= 1e-12 * max(1.0, abs(ca))

    def test_series_multiplication_truncates(self):
        f = series(FourierFunction.mode((1,), (0,)), 2)
        g = series(FourierFunction.mode((0,), (1,)), 2)
        prod = moyal_product(f, g, 2)
        assert prod.order == 2
        assert prod.coefficient(2).coefficient(((1,), (1,))) == pytest.approx(
            (2j * np.pi**2) ** 2 / 2
        )


class TestTrivializedStar:
    def test_trivial_pair(self):
        rep = trivialized_star_compare(((0,), (0,)), ((0,), (0,)), (8, 16, 32, 64, 128))
        assert abs(rep.order1) < 1e-10

    def test_modes_of_another_dimension_are_refused(self):
        # the sum m1 + m2 once cut the longer mode, and the fit went on
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            trivialized_star_compare(((1,), (0,)), ((0, 0), (1, 1)), (8, 16, 32, 64, 128))

    def test_constant_matches_moyal_scale(self):
        rep = trivialized_star_compare(((1,), (0,)), ((0,), (1,)), (8, 16, 32, 64, 128))
        assert abs(rep.constant - 1 / (2 * np.pi)) < 0.02 / (2 * np.pi)

    def test_exact_phase_sequence(self):
        # the projected samples are exactly exp(i pi q / k); check one level
        from thetaquant.toeplitz import OperatorMatrix, hs_inner, rescaled_toeplitz

        k = 8
        A = OperatorMatrix(
            k, 1,
            rescaled_toeplitz(k, ((1,), (0,))).entries
            @ rescaled_toeplitz(k, ((0,), (1,))).entries,
        )
        B = rescaled_toeplitz(k, ((1,), (1,)))
        got = hs_inner(A, B) / hs_inner(B, B)
        assert got == pytest.approx(np.exp(1j * np.pi / k), abs=1e-12)
