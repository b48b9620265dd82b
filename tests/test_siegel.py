import numpy as np
import pytest

from thetaquant.config import parse_config
from thetaquant.siegel import (
    InvalidPointError,
    NonNormalError,
    SiegelPoint,
    TangentDirection,
    complex_structure,
    dI_dZ,
    dlambda_dZ,
    gtilde_coefficients,
    laplace_eigenvalue,
)

from oracles import complex_frame, omega_complex_frame, wirtinger_fd


def all_directions(n):
    return [
        TangentDirection(i, j, kind)
        for i in range(n)
        for j in range(i, n)
        for kind in ("z", "zbar")
    ]


class TestSiegelPoint:
    def test_scalar_and_matrix_construction(self):
        p = SiegelPoint(0.5 + 0.7j)
        assert p.n == 1 and p.is_normal
        q = SiegelPoint([[1j, 0.2], [0.2, 2j]])
        assert q.n == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidPointError):
            SiegelPoint([[1j, 0.5], [0.1, 1j]])

    def test_rejects_nonpositive_imaginary_part(self):
        with pytest.raises(InvalidPointError):
            SiegelPoint(1 - 1j)
        with pytest.raises(InvalidPointError):
            SiegelPoint([[1j, 2j], [2j, 1j]])

    @pytest.mark.parametrize("Z", [
        complex(np.nan, 1), complex(0, np.inf), complex(0, np.nan),
        [[1j, np.nan], [np.nan, 2j]], [[1j, 0], [0, complex(np.inf, 1)]],
    ], ids=str)
    def test_rejects_non_finite_entries(self, Z):
        # a NaN once passed the symmetry and Cholesky checks, so theta eval
        # printed nan+nani and exited 0
        with pytest.raises(InvalidPointError, match="non-finite"):
            SiegelPoint(Z)

    def test_normality_flag(self):
        assert SiegelPoint(np.diag([1j, 2j])).is_normal
        # X and Y that do not commute
        Z = np.array([[1.0 + 1j, 0.5], [0.5, 2j]])
        assert not SiegelPoint(Z).is_normal

    def test_immutable(self):
        p = SiegelPoint(1j)
        with pytest.raises(ValueError):
            p.Z[0, 0] = 0

    def test_inverse_is_stored_once(self):
        p = SiegelPoint([[1j, 0.2 + 0.5j], [0.2 + 0.5j, 2j]])
        assert p.Yinv is p.Yinv
        assert np.allclose(p.Yinv @ p.Y, np.eye(2), atol=1e-15)
        with pytest.raises(ValueError):
            p.Yinv[0, 0] = 0

    def test_eigen_data_is_stored(self):
        # truncation certificates read these on every evaluation; they were
        # recomputed by eigvalsh and det on each access
        for Z in (0.3 + 0.7j, [[1j, 0.2 + 0.5j], [0.2 + 0.5j, 2j]]):
            p = SiegelPoint(Z)
            assert "min_eig_Y" in vars(p) and "det_Y" in vars(p)
            assert p.min_eig_Y == float(np.linalg.eigvalsh(p.Y)[0])
            assert p.det_Y == float(np.linalg.det(p.Y))
            assert type(p.min_eig_Y) is float and type(p.det_Y) is float

    @pytest.mark.parametrize("Z, other", [
        (1j, 2j),
        ([[1j, 0.5], [0.5, 2j]], [[1j, 0.5], [0.5, 3j]]),
        (np.diag([1j, 2j, 3j]) + 0.25, np.diag([1j, 2j, 3j]) + 0.5),
    ], ids=["n=1", "n=2", "n=3"])
    def test_points_compare_and_hash_by_value(self, Z, other):
        # the dataclass compared its array fields: a ValueError at n >= 2,
        # and no point hashed
        p, q, r = SiegelPoint(Z), SiegelPoint(np.array(Z)), SiegelPoint(other)
        assert p == q and hash(p) == hash(q)
        assert p != r and not p == r
        assert p != "Z"

    def test_signed_zero_is_the_same_point(self):
        plus = SiegelPoint([[1j, 0.0], [0.0, 2j]])
        minus = SiegelPoint([[1j, -0.0], [-0.0, 2j]])
        assert plus == minus and hash(plus) == hash(minus)

    def test_a_point_is_a_dict_key(self):
        table = {SiegelPoint(np.diag([1j, 2j])): "diag", SiegelPoint(1j): "i"}
        assert table[SiegelPoint([[1j, 0], [0, 2j]])] == "diag"
        assert table[SiegelPoint(1j)] == "i"
        assert SiegelPoint(2j) not in table

    def test_manifests_of_equal_points_are_equal(self):
        text = "[gram]\nn = 2\n"
        assert parse_config(text) == parse_config(text)
        assert parse_config(text) != parse_config(text + "Z = [[1i, 0], [0, 3i]]\n")


class TestComplexStructure:
    def test_frozen_examples(self):
        assert np.allclose(
            complex_structure(SiegelPoint(1j)), [[0, -1], [1, 0]], atol=1e-14
        )
        assert np.allclose(
            complex_structure(SiegelPoint(1 + 1j)), [[-1, -2], [1, 1]], atol=1e-14
        )

    @pytest.mark.parametrize("z", [1j, 1 + 2j, 0.5 + 0.7j])
    def test_squares_to_minus_identity(self, z):
        I = complex_structure(SiegelPoint(z))
        assert np.max(np.abs(I @ I + np.eye(2))) < 1e-10

    def test_squares_to_minus_identity_n2(self, point_n2):
        I = complex_structure(point_n2)
        assert np.max(np.abs(I @ I + np.eye(4))) < 1e-10
        Z = np.array([[1 + 1j, 0.3 + 0.1j], [0.3 + 0.1j, -0.5 + 2j]])
        I = complex_structure(SiegelPoint(Z))
        assert np.max(np.abs(I @ I + np.eye(4))) < 1e-10

    @pytest.mark.parametrize(
        "z", [1j, 1 + 2j, [[1 + 1j, 0.3 + 0.1j], [0.3 + 0.1j, -0.5 + 2j]]]
    )
    def test_metric_positive_definite(self, z):
        p = SiegelPoint(z)
        n = p.n
        I = complex_structure(p)
        omega = np.block(
            [[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]
        )
        g = 2 * np.pi * omega @ I
        assert np.max(np.abs(g - g.T)) < 1e-10
        assert np.linalg.eigvalsh(g)[0] > 0

    def test_frame_diagonalizes(self, point_n2):
        for p in [SiegelPoint(0.5 + 0.7j), point_n2]:
            C = complex_frame(p.Z)
            D = np.linalg.solve(C, complex_structure(p) @ C)
            want = np.diag([1j] * p.n + [-1j] * p.n)
            assert np.max(np.abs(D - want)) < 1e-10


class TestDIdZ:
    def test_frozen_example(self):
        got = dI_dZ(SiegelPoint(1j), TangentDirection(0, 0, "z"))
        want = np.array([[-0.5, 0.5j], [0.5j, 0.5]])
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("z", [1j, 2j, 1 + 2j, 0.5 + 0.7j])
    @pytest.mark.parametrize("kind", ["z", "zbar"])
    def test_anticommutes_with_I(self, z, kind):
        p = SiegelPoint(z)
        I = complex_structure(p)
        dI = dI_dZ(p, TangentDirection(0, 0, kind))
        assert np.max(np.abs(dI @ I + I @ dI)) < 1e-10

    @pytest.mark.parametrize("z", [2j, 1 + 2j])
    @pytest.mark.parametrize("kind", ["z", "zbar"])
    def test_matches_finite_differences(self, z, kind):
        p = SiegelPoint(z)
        D = np.array([[1.0]])

        def I_of(Zm):
            return complex_structure(SiegelPoint(Zm))

        fd = wirtinger_fd(I_of, p.Z, D, kind, h=1e-4)
        got = dI_dZ(p, TangentDirection(0, 0, kind))
        assert np.max(np.abs(got - fd)) < 1e-6

    def test_second_order_convergence(self):
        p = SiegelPoint(2j)
        D = np.array([[1.0]])

        def I_of(Zm):
            return complex_structure(SiegelPoint(Zm))

        got = dI_dZ(p, TangentDirection(0, 0, "z"))
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = wirtinger_fd(I_of, p.Z, D, "z", h=h)
            errs.append(np.max(np.abs(got - fd)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_n2_diagonal_directions(self, point_n2):
        for v in all_directions(2):
            dI = dI_dZ(point_n2, v)
            I = complex_structure(point_n2)
            assert np.max(np.abs(dI @ I + I @ dI)) < 1e-10

            def I_of(Zm):
                return complex_structure(SiegelPoint(Zm))

            D = np.zeros((2, 2))
            D[v.i, v.j] = D[v.j, v.i] = 1.0
            fd = wirtinger_fd(I_of, point_n2.Z, D, v.kind, h=1e-4)
            assert np.max(np.abs(dI - fd)) < 1e-6

    def test_refuses_non_normal(self):
        Z = np.array([[1.0 + 1j, 0.5], [0.5, 2j]])
        with pytest.raises(NonNormalError):
            dI_dZ(SiegelPoint(Z), TangentDirection(0, 0, "z"))


class TestGtilde:
    def test_diagonal_coefficient(self):
        G = gtilde_coefficients(TangentDirection(0, 0, "z"), 1)
        assert G[0, 0] == 2j
        assert np.count_nonzero(G) == 1

    def test_offdiagonal_both_slots(self):
        G = gtilde_coefficients(TangentDirection(0, 1, "z"), 2)
        assert G[0, 1] == 2j and G[1, 0] == 2j
        assert np.count_nonzero(G) == 2

    def test_base_point_independent(self):
        # constant coefficients: nothing in the descriptor depends on Z
        G1 = gtilde_coefficients(TangentDirection(0, 0, "zbar"), 1)
        G2 = gtilde_coefficients(TangentDirection(0, 0, "zbar"), 1)
        assert np.array_equal(G1, G2)
        assert G1[1, 1] == -2j

    @pytest.mark.parametrize("z", [1j, 1 + 2j, 0.5 + 0.7j])
    def test_contraction_reproduces_dI(self, z):
        p = SiegelPoint(z)
        self._check_contraction(p)

    def test_contraction_reproduces_dI_n2(self, point_n2):
        self._check_contraction(point_n2)

    @staticmethod
    def _check_contraction(p):
        C = complex_frame(p.Z)
        Om = omega_complex_frame(p.Z)
        for v in all_directions(p.n):
            G = gtilde_coefficients(v, p.n)
            lhs = G @ Om
            rhs = np.linalg.solve(C, dI_dZ(p, v) @ C)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestLaplaceEigenvalue:
    def test_constant_mode(self, points_n1):
        for p in points_n1:
            assert laplace_eigenvalue(p, ((0,), (0,))) == 0.0

    def test_frozen_examples(self):
        p = SiegelPoint(1j)
        assert laplace_eigenvalue(p, ((1,), (0,))) == pytest.approx(-2 * np.pi)
        assert laplace_eigenvalue(p, ((0,), (1,))) == pytest.approx(-2 * np.pi)

    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("s", [-2, 0, 3])
    def test_nonpositive(self, points_n1, r, s):
        for p in points_n1:
            lam = laplace_eigenvalue(p, ((r,), (s,)))
            if (r, s) == (0, 0):
                assert lam == 0.0
            else:
                assert lam < 0

    def test_dlambda_matches_fd(self, points_n1, point_n2):
        for p in list(points_n1) + [point_n2]:
            for v in all_directions(p.n):
                m = ((1,) * p.n, (0,) * p.n)
                D = np.zeros((p.n, p.n))
                D[v.i, v.j] = D[v.j, v.i] = 1.0
                fd = wirtinger_fd(
                    lambda Zm: laplace_eigenvalue(SiegelPoint(Zm), m),
                    p.Z,
                    D,
                    v.kind,
                    h=1e-5,
                )
                assert abs(dlambda_dZ(p, m, v) - fd) < 1e-6
