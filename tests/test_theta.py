import gc
import tracemalloc

import numpy as np
import pytest

from thetaquant import theta
from thetaquant.fourier import SizeLimitError
from thetaquant.siegel import SiegelPoint
from thetaquant.theta import (
    Derivative,
    ThetaLabel,
    TruncationError,
    TruncationPolicy,
    heat_residuals,
    multiplier,
    quasi_periodicity_residual,
    theta_basis,
    theta_eval,
    truncation_radius,
)

from oracles import tail_beyond, theta_brute

Z_LIST = [1j, 1 + 2j, 0.5 + 0.7j]


class TestBasis:
    def test_counts_and_order(self):
        assert [lab.a for lab in theta_basis(1, 1)] == [(0,)]
        assert [lab.alpha[0] for lab in theta_basis(3, 1)] == [0, 1 / 3, 2 / 3]
        labs = theta_basis(2, 2)
        assert len(labs) == 4
        assert [lab.a for lab in labs] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            ThetaLabel(2, (2,))
        with pytest.raises(ValueError):
            ThetaLabel(2, (-1,))


class TestTruncation:
    def test_reference_radius(self):
        p = SiegelPoint(1j)
        assert truncation_radius(p, 1, 1e-14).radius == 4.0

    def test_monotone_in_level(self):
        p = SiegelPoint(1j)
        radii = [truncation_radius(p, k, 1e-14).radius for k in (1, 2, 4, 8)]
        assert all(b <= a for a, b in zip(radii, radii[1:]))

    def test_monotone_in_epsilon(self):
        p = SiegelPoint(1j)
        radii = [
            truncation_radius(p, 1, eps).radius
            for eps in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
        ]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_certificate_vs_brute_tail(self):
        p = SiegelPoint(1j)
        pol = truncation_radius(p, 1, 1e-14)
        assert tail_beyond(1.0, 1, pol.radius) < 1e-14

    def test_uncertifiable_point_raises_a_typed_error(self):
        # Y = 1e-5 needs a radius near 470 at k = 4: beyond the search limit
        with pytest.raises(TruncationError, match="below 80 at k=4"):
            truncation_radius(SiegelPoint(1e-5j), 4, 1e-12)

    def test_incompatible_policy_refused(self):
        p = SiegelPoint(1j)
        pol = truncation_radius(p, 2, 1e-12)
        with pytest.raises(ValueError):
            theta_eval(p, ThetaLabel(3, (0,)), 0.0, Derivative.value(), pol)
        shallow = SiegelPoint(0.1j)  # slower decay than certified
        with pytest.raises(ValueError):
            theta_eval(shallow, ThetaLabel(2, (0,)), 0.0, Derivative.value(), pol)


class TestValues:
    def test_classical_value_at_i(self):
        # frozen from the compensated-summation oracle
        p = SiegelPoint(1j)
        v = theta_eval(p, ThetaLabel(1, (0,)), 0.0)
        assert v == pytest.approx(1.0864348112133080, abs=1e-13)

    def test_half_label_level_two(self):
        p = SiegelPoint(1j)
        v = theta_eval(p, ThetaLabel(2, (1,)), 0.0)
        assert v == pytest.approx(0.41576060259602703, abs=1e-13)

    def test_large_imaginary_part_limit(self):
        p = SiegelPoint(60j)
        v = theta_eval(p, ThetaLabel(1, (0,)), 0.0)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_high_level_value_is_not_lost(self):
        # the labels l + 1/k miss the Gaussian peak by 0.48, so scaled to the
        # peak every term would underflow; the value itself is about 2.4e114
        mp = pytest.importorskip("mpmath")
        k, z = 1024, 0.13 + 0.52 * (1 + 2j)
        with mp.workdps(40):
            u = [mp.mpf(l) + mp.mpf(1) / k for l in range(-20, 20)]
            ref = complex(mp.fsum(
                mp.exp(1j * mp.pi * k * x * x * mp.mpc(1, 2) + 2j * mp.pi * k * x * mp.mpc(z))
                for x in u
            ))
        with np.errstate(over="raise", invalid="raise"):
            v = theta_eval(SiegelPoint(1 + 2j), ThetaLabel(k, (1,)), z)
        assert abs(v - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("k", [512, 4096])
    def test_value_beyond_float_range_is_refused(self, k):
        # once nan+nanj at k = 512, with only a RuntimeWarning
        z = 0.13 + 0.71 * (1 + 2j)
        with pytest.raises(OverflowError, match=f"level k={k} is beyond the float range"):
            theta_eval(SiegelPoint(1 + 2j), ThetaLabel(k, (1,)), z)

    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("k,a", [(1, (0,)), (2, (1,)), (3, (2,))])
    def test_matches_brute_oracle(self, z, k, a):
        p = SiegelPoint(z)
        for zz in (0.0, 0.3 + 0.2j, -0.1 + 0.45j):
            got = theta_eval(p, ThetaLabel(k, a), zz)
            want = theta_brute(z, k, a[0], zz)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "sel,osel",
        [
            (Derivative.dz(0), "dz"),
            (Derivative.dz2(0, 0), "dz2"),
            (Derivative.dZ(0, 0), "dZ"),
        ],
    )
    def test_derivatives_match_brute_oracle(self, sel, osel):
        p = SiegelPoint(1 + 2j)
        lab = ThetaLabel(2, (1,))
        zz = 0.21 + 0.37j
        got = theta_eval(p, lab, zz, sel)
        want = theta_brute(1 + 2j, 2, 1, zz, sel=osel)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_n2_matches_brute_oracle(self, point_n2):
        lab = ThetaLabel(2, (1, 0))
        zz = (0.1 + 0.2j, 0.3 - 0.05j)
        got = theta_eval(point_n2, lab, zz)
        want = theta_brute(point_n2.Z.tolist(), 2, (1, 0), zz, radius=12)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_holomorphic_cauchy_riemann(self):
        # central-difference gradient at step 1e-4 satisfies the CR equation
        p = SiegelPoint(0.5 + 0.7j)
        lab = ThetaLabel(2, (1,))
        z0 = 0.3 + 0.1j
        h = 1e-4

        def th(z):
            return theta_eval(p, lab, z)

        ddx = (th(z0 + h) - th(z0 - h)) / (2 * h)
        ddy = (th(z0 + 1j * h) - th(z0 - 1j * h)) / (2 * h)
        scale = max(abs(ddx), 1.0)
        assert abs(ddx + 1j * ddy) / scale < 1e-6  # df/dx + i df/dy = 0
        dz = theta_eval(p, lab, z0, Derivative.dz(0))
        assert abs(ddx - dz) / scale < 1e-6


class TestTailHonesty:
    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_doubling_radius_stays_within_epsilon(self, z, k):
        p = SiegelPoint(z)
        pol = truncation_radius(p, k, 1e-10)
        wide = TruncationPolicy(
            pol.epsilon, 2 * pol.radius, pol.k, pol.n, pol.min_eig
        )
        for zz in (0.0, 0.4 + 0.3j, 0.9 - 0.2j):
            scale = np.exp(
                np.pi * k * (np.imag(zz) * p.Yinv[0, 0] * np.imag(zz))
            )
            v1 = theta_eval(p, ThetaLabel(k, (0,)), zz, Derivative.value(), pol)
            v2 = theta_eval(p, ThetaLabel(k, (0,)), zz, Derivative.value(), wide)
            assert abs(v1 - v2) <= pol.epsilon * scale


class TestHeatIdentity:
    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_termwise_residual(self, rng, z, k):
        p = SiegelPoint(z)
        labs = theta_basis(k, 1)
        for _ in range(5):
            x, y = rng.uniform(0, 1, size=2)
            zz = x + z * y
            lab = labs[rng.integers(0, len(labs))]
            assert heat_residuals(p, lab, zz, [(0, 0)])[0, 0, 0] < 1e-12  # termwise row

    @pytest.mark.parametrize("z", Z_LIST)
    def test_finite_difference_corroboration(self, rng, z):
        p = SiegelPoint(z)
        for k in (2, 8):
            lab = theta_basis(k, 1)[k - 1]
            x, y = rng.uniform(0, 1, size=2)
            assert heat_residuals(p, lab, x + z * y, [(0, 0)])[1, 0, 0] < 1e-8  # fd row

    def test_n2_offdiagonal(self, point_n2, rng):
        for k in (1, 2):
            labs = theta_basis(k, 2)
            lab = labs[rng.integers(0, len(labs))]
            x = rng.uniform(0, 1, size=2)
            y = rng.uniform(0, 1, size=2)
            zz = x + point_n2.Z @ y
            res, fd = heat_residuals(point_n2, lab, zz, [(0, 0), (0, 1), (1, 1)])[:, 0]
            assert res.max() < 1e-12
            assert fd[1] < 1e-8  # the pair (0, 1)


class TestQuasiPeriodicity:
    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_both_lattice_directions(self, z, k):
        p = SiegelPoint(z)
        lab = theta_basis(k, 1)[-1]
        zz = 0.3 + 0.2j
        assert quasi_periodicity_residual(p, lab, zz, 0) < 1e-12
        assert quasi_periodicity_residual(p, lab, zz, 1) < 1e-10

    def test_reindexing_oracle_level_one(self):
        # theta(z + Z) against the multiplier, both via the brute oracle
        Z = 1j
        zz = 0.3 + 0.2j
        lhs = theta_brute(Z, 1, 0, zz + Z)
        mult = np.exp(-2j * np.pi * zz - 1j * np.pi * Z)
        rhs = mult * theta_brute(Z, 1, 0, zz)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_multiplier_cubed_at_level_three(self):
        p = SiegelPoint(1j)
        lab = ThetaLabel(3, (1,))
        zz = 0.25 + 0.15j
        got = theta_eval(p, lab, zz + 1j)
        want = multiplier(p, (1,), zz) ** 3 * theta_eval(p, lab, zz)
        assert abs(got - want) < 1e-10 * max(abs(got), 1.0)

    def test_n2_shift(self, point_n2):
        lab = ThetaLabel(2, (1, 1))
        zz = np.array([0.2 + 0.1j, 0.4 - 0.2j])
        for idx in range(4):
            assert quasi_periodicity_residual(point_n2, lab, zz, idx) < 1e-10

    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("k", [128, 256, 1024, 4096])
    def test_large_levels_do_not_overflow(self, z, k):
        # m^k and theta(z + Z) were formed as values and overflowed from
        # k = 128; the ratio of the two sides is in float range
        p = SiegelPoint(z)
        lab = ThetaLabel(k, (1,))
        for idx in (0, 1):
            res = quasi_periodicity_residual(p, lab, 0.13 + 0.2j, idx)
            assert np.isfinite(res) and res < 1e-10


def _reference_heat_residuals(p, label, z, i, j, h=1e-4):
    """Both heat residuals through theta_eval at the package tail, with the fd
    stencil evaluated at the points SiegelPoint(Z + tD)."""
    k = label.k
    sym = 1.0 if i == j else 2.0
    policy = truncation_radius(p, k, 1e-12, Derivative.dz2(i, j))

    def defect(lhs):
        rhs = sym * theta_eval(p, label, z, Derivative.dz2(i, j), policy) / (4j * np.pi * k)
        theta = abs(theta_eval(p, label, z, Derivative.value(), policy))
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), np.pi * k * theta, 1e-300)

    residual = defect(theta_eval(p, label, z, Derivative.dZ(i, j), policy))
    D = np.zeros((p.n, p.n))
    D[i, j] = D[j, i] = 1.0

    def th(t):
        return theta_eval(SiegelPoint(p.Z + t * D), label, z, Derivative.value(), policy)

    fd = (th(-2 * h) - 8 * th(-h) + 8 * th(h) - th(2 * h)) / (12 * h)
    return residual, defect(fd)


@pytest.mark.parametrize(
    "Z", [1j, 1 + 2j, 0.5 + 0.7j, [[1j, 0], [0, 2j]],
          [[1 + 2j, 0.3 + 0.4j], [0.3 + 0.4j, 0.5 + 1j]]],
)
def test_heat_residuals_equal_the_theta_eval_reference(Z):
    # one lattice window serves every term and stencil value of a row; the
    # rows must be the same floats, hence the same CSV bytes
    p = SiegelPoint(Z)
    pairs = [(0, 0)] if p.n == 1 else [(0, 0), (0, 1), (1, 1)]
    for k in (2, 4, 8):
        label = theta_basis(k, p.n)[1]
        for x0, y0 in ((0.13, 0.71), (0.77, 0.52)):
            z = np.full(p.n, x0) + p.Z @ np.full(p.n, y0)
            for i, j in pairs:
                rows = tuple(heat_residuals(p, label, z, [(i, j)]).ravel().tolist())
                assert rows == _reference_heat_residuals(p, label, z, i, j)


def test_heat_residuals_refuse_every_array_they_hold(monkeypatch):
    # the window's one check once counted a term array per evaluation, while
    # the fd stencil's (4, S, P, L) phases and the term-wise (P, 2S + 1, L)
    # factor stack held 5.6 times that: 9.30 MB traced against 1.67 MB
    # checked here (radius 27, 5 probes, 3 entry pairs)
    p = SiegelPoint([[0.02j, 0], [0, 0.02j]])
    label = ThetaLabel(1, (0, 0))
    z = np.array([[0.1 + 0.3j, 0.2 - 0.1j], [0.3j, 0.1], [0.05 + 0.1j, 0.2j],
                  [0.4, 0.3 + 0.2j], [0.2 + 0.2j, 0.1 + 0.1j]])
    pairs = [(0, 0), (0, 1), (1, 1)]
    checked = []
    check = theta.check_bytes
    monkeypatch.setattr(theta, "check_bytes",
                        lambda size, *why: (checked.append(size), check(size, *why))[1])
    heat_residuals(p, label, z, pairs)  # warm every cache before tracing
    gc.collect()
    checked.clear()
    tracemalloc.start()
    try:
        heat_residuals(p, label, z, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(checked), (peak, checked)
    # and a limit below the peak refuses the call before it allocates
    monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", peak - 1)
    with pytest.raises(SizeLimitError):
        heat_residuals(p, label, z, pairs)
