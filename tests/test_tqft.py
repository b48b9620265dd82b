import numpy as np
import pytest

from thetaquant.fourier import FourierFunction
from thetaquant.siegel import SiegelPoint
from thetaquant.toeplitz import loglog_order, operator_norm
from thetaquant.tqft import (
    CurveClass,
    curve_operator,
    curve_pairing,
    holonomy_mode,
    mapping_torus_invariant,
    pairing_closed_form,
    pairing_limit_experiment,
)


class TestCurveClasses:
    def test_homology_basis_modes(self):
        a = CurveClass.a_cycle(1)
        b = CurveClass.b_cycle(1)
        assert holonomy_mode(a).r == (1,) and holonomy_mode(a).s == (0,)
        assert holonomy_mode(b).r == (0,) and holonomy_mode(b).s == (1,)

    def test_orientation_reversal_negates(self):
        a = CurveClass.a_cycle(1)
        assert holonomy_mode(a.reversed()).r == (-1,)

    def test_genus_two_basis(self):
        a2 = CurveClass.a_cycle(2, 1)
        assert holonomy_mode(a2).r == (0, 1)


class TestCurveOperators:
    def test_empty_curve_is_identity(self):
        p = SiegelPoint(1j)
        A = curve_operator(p, 3, CurveClass.empty(1))
        assert np.allclose(A.entries, np.eye(3), atol=1e-14)

    def test_unitary_and_z_independent(self):
        c = CurveClass((2,), (1,))
        for k in (1, 2, 5):
            A = curve_operator(SiegelPoint(1j), k, c)
            B = curve_operator(SiegelPoint(1 + 2j), k, c)
            assert np.max(np.abs(A.entries.conj().T @ A.entries - np.eye(k))) < 1e-12
            assert np.max(np.abs(A.entries - B.entries)) < 1e-9
            assert operator_norm(A) == pytest.approx(1.0, abs=1e-12)

    def test_level_two_shift_matrix(self):
        p = SiegelPoint(1j)
        A = curve_operator(p, 2, CurveClass.a_cycle(1)).entries
        assert np.allclose(A, [[0, 1], [1, 0]], atol=1e-14)


class TestPairings:
    def test_self_pairing_is_one(self, points_n1):
        for p in points_n1:
            for k in (1, 2, 4, 8):
                for c in [CurveClass.a_cycle(1), CurveClass((2,), (-1,))]:
                    assert curve_pairing(p, k, c, c) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_cycles_vanish(self):
        p = SiegelPoint(1j)
        v = curve_pairing(p, 2, CurveClass.a_cycle(1), CurveClass.b_cycle(1))
        assert abs(v) < 1e-14

    def test_limit_matches_mode_delta(self):
        # congruent-but-distinct classes pair to something that dies off
        p = SiegelPoint(1j)
        c1 = CurveClass((1,), (0,))
        c2 = CurveClass((1,), (2,))
        vals = [abs(curve_pairing(p, k, c1, c2)) for k in (2, 4, 8)]
        assert vals[0] > 0
        # once k exceeds the mode gap the congruence fails and the pairing is 0
        assert all(abs(curve_pairing(p, k, c1, c2)) < 1e-14 for k in (3, 5, 8))


class TestPairingLimit:
    def test_constant_pair_exact(self):
        p = SiegelPoint(1j)
        one = FourierFunction.constant(1.0)
        rows = pairing_limit_experiment(p, one, one, (2, 4, 8))
        assert all(r["error"] < 1e-12 for r in rows)

    def test_single_mode_closed_form(self):
        # k^{-1} <T_f, T_f> for f = F_{1,0} at Z = i equals e^{-pi/k}
        p = SiegelPoint(1j)
        f = FourierFunction.mode((1,), (0,))
        rows = pairing_limit_experiment(p, f, f, (8, 16, 32, 64, 128))
        for r in rows:
            want = 1 - np.exp(-np.pi / r["k"])
            assert r["error"] == pytest.approx(want, abs=1e-10)
            assert r["parseval"] == 1.0

    def test_cross_modes_vanish(self):
        p = SiegelPoint(1j)
        f = FourierFunction.mode((1,), (0,))
        g = FourierFunction.mode((0,), (1,))
        rows = pairing_limit_experiment(p, f, g, (2, 4, 8))
        for r in rows:
            assert abs(r["value"]) < 1e-14
            assert r["parseval"] == 0.0

    def test_generic_pair_converges(self):
        p = SiegelPoint(0.5 + 0.7j)
        f = FourierFunction(
            {((1,), (0,)): 0.5, ((-1,), (0,)): 0.5, ((0,), (1,)): 0.4,
             ((0,), (-1,)): 0.4, ((1,), (1,)): 0.2}
        )
        g = FourierFunction(
            {((1,), (0,)): 0.3, ((-1,), (0,)): 0.3, ((0,), (1,)): 0.5,
             ((0,), (-1,)): 0.5, ((1,), (1,)): 0.1}
        )
        rows = pairing_limit_experiment(p, f, g, (8, 16, 32, 64, 128))
        errs = [r["error"] for r in rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert loglog_order([r["k"] for r in rows], errs) >= 0.9

    def test_matches_closed_form_assembly(self):
        p = SiegelPoint(1 + 2j)
        f = FourierFunction({((1,), (0,)): 0.7, ((0,), (2,)): -0.2j})
        g = FourierFunction({((1,), (0,)): 0.1j, ((2,), (1,)): 0.4})
        rows = pairing_limit_experiment(p, f, g, (4,))
        want = pairing_closed_form(p, 4, f, g)
        assert rows[0]["value"] == pytest.approx(want, abs=1e-12)


class TestMappingTorus:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_empty_links_give_dimension_g1(self, k):
        p = SiegelPoint(1j)
        v = mapping_torus_invariant(p, k)
        assert v == pytest.approx(k, abs=1e-10)
        assert abs(v - round(v.real)) < 1e-10

    @pytest.mark.parametrize("k", range(1, 9))
    def test_empty_links_give_dimension_g2(self, point_n2, k):
        v = mapping_torus_invariant(point_n2, k)
        assert v == pytest.approx(k**2, abs=1e-10)

    def test_equal_curves_trace_is_dimension(self):
        p = SiegelPoint(1j)
        c = CurveClass.a_cycle(1)
        for k in (1, 3, 5):
            assert mapping_torus_invariant(p, k, c, c) == pytest.approx(k, abs=1e-12)

    def test_transverse_curves_vanish(self):
        p = SiegelPoint(1j)
        v = mapping_torus_invariant(
            p, 2, CurveClass.a_cycle(1), CurveClass.b_cycle(1)
        )
        assert abs(v) < 1e-14
