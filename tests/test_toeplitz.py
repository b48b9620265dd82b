import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thetaquant
from thetaquant import toeplitz
from thetaquant.formal import trivialized_star_compare
from thetaquant.fourier import (
    FourierFunction,
    FourierMode,
    SizeLimitError,
    SupBound,
    _line_decomposition,
    poisson_bracket,
)
from thetaquant.sections import GridError, QuadratureGrid, required_grid_size
from thetaquant.siegel import SiegelPoint, laplace_eigenvalue
from thetaquant.toeplitz import (
    C1Comparison,
    OperatorMatrix,
    WeylSymbol,
    bms_experiment,
    c1_antisymmetry_constant,
    eta,
    hs_inner,
    loglog_order,
    operator_norm,
    product_expansion_fit,
    quadrature_deviation,
    rescaled_toeplitz,
    toeplitz_function,
    toeplitz_mode_closed_form,
    toeplitz_modes_quadrature,
    trace_pair_closed_form,
    trace_pair_sign,
    _c0_residual_norms,
    _line_norms,
    _sign_table,
)

from oracles import toeplitz_entry_brute, toeplitz_mode_loop

Z_LIST = [1j, 1 + 2j, 0.5 + 0.7j]
# n = 2 points with X != 0 and [X, Y] != 0
Z_N2_NON_NORMAL = [
    [[1 + 1j, 0.5], [0.5, 2j]],
    [[1j, 0.3 + 0.2j], [0.3 + 0.2j, 2j]],
]


def grid_for(p, k, m_max=0):
    return QuadratureGrid(required_grid_size(p, k, m_max))


@st.composite
def deviation_cases(draw):
    """A point, a level k <= 8 (k <= 4 at n = 2), a grid at the bandwidth
    rule or one or two multiples of k above it, and modes that include
    |r|, |s| > k, r = 0 mod k and two modes congruent mod k."""
    Z = draw(st.sampled_from(Z_LIST + [[[1j, 0], [0, 2j]], [[2j, 0.5j], [0.5j, 1j]]]
                             + Z_N2_NON_NORMAL))
    p = SiegelPoint(Z)
    n = p.n
    k = draw(st.integers(1, 8 if n == 1 else 4))
    entry = st.integers(-2 * k - 1, 2 * k + 1)
    vector = st.tuples(*[entry] * n)
    modes = [FourierMode(*rs) for rs in
             draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=3))]
    lift = draw(st.tuples(*[st.integers(-2, 2)] * (2 * n)))
    first = modes[0].r + modes[0].s
    shifted = tuple(a + k * b for a, b in zip(first, lift))
    multiple = tuple(k * b for b in draw(st.tuples(*[st.integers(-2, 2)] * n)))
    modes += [
        FourierMode(shifted[:n], shifted[n:]),
        FourierMode(multiple, draw(vector)),
        FourierMode((k + 1,) + (0,) * (n - 1), (-k - 2,) + (0,) * (n - 1)),
    ]
    m_max = max(max(abs(x) for x in m.r + m.s) for m in modes)
    N = required_grid_size(p, k, m_max) + k * draw(st.integers(0, 2))
    return p, k, modes, QuadratureGrid(N)


class TestEta:
    def test_constant_mode(self, points_n1):
        for p in points_n1:
            assert eta(p, 3, ((0,), (0,))) == 1.0

    def test_frozen_value(self):
        assert eta(SiegelPoint(1j), 1, ((1,), (0,))) == pytest.approx(
            0.2078795763507619, abs=1e-14
        )

    def test_increases_to_one(self, points_n1):
        for p in points_n1:
            vals = [eta(p, k, ((1,), (2,))) for k in (1, 10, 100)]
            assert vals[0] < vals[1] < vals[2] < 1.0
            assert vals[2] > 0.9


class TestClosedForm:
    def test_constant_mode_is_identity(self, points_n1):
        for p in points_n1:
            A = toeplitz_mode_closed_form(p, 3, ((0,), (0,)))
            assert np.allclose(A.entries, np.eye(3), atol=1e-14)

    def test_shift_pattern_level_two(self):
        p = SiegelPoint(1j)
        A = toeplitz_mode_closed_form(p, 2, ((1,), (0,))).entries
        e = np.exp(-np.pi / 4)
        assert A[1, 0] == pytest.approx(e, abs=1e-12)
        assert A[0, 1] == pytest.approx(e, abs=1e-12)
        assert A[0, 0] == A[1, 1] == 0

    def test_diagonal_phases_level_two(self):
        p = SiegelPoint(1j)
        A = toeplitz_mode_closed_form(p, 2, ((0,), (1,))).entries
        e = np.exp(-np.pi / 4)
        assert np.allclose(np.diag(A), [e, -e], atol=1e-12)
        assert abs(A[0, 1]) == abs(A[1, 0]) == 0

    @pytest.mark.parametrize("z", Z_LIST)
    @pytest.mark.parametrize("mode", [((1,), (0,)), ((2,), (-1,)), ((0,), (3,))])
    def test_entry_modulus_is_eta(self, z, mode):
        p = SiegelPoint(z)
        for k in (1, 2, 5):
            A = toeplitz_mode_closed_form(p, k, mode).entries
            nz = np.abs(A[np.abs(A) > 0])
            assert np.max(np.abs(nz - eta(p, k, mode))) < 1e-12

    @pytest.mark.parametrize("z", Z_LIST + Z_N2_NON_NORMAL)
    def test_matches_label_loop(self, z):
        p = SiegelPoint(z)
        if p.n == 1:
            levels = (1, 2, 3, 5, 8)
            modes = [((1,), (0,)), ((2,), (-1,)), ((-3,), (2,)), ((0,), (5,))]
        else:
            levels = (1, 2, 3)
            modes = [((1, 0), (0, 1)), ((2, -1), (1, 3)), ((0, 0), (-1, 2))]
        for k in levels:
            for r, s in modes:
                A = toeplitz_mode_closed_form(p, k, (r, s)).entries
                assert np.max(np.abs(A - toeplitz_mode_loop(z, k, r, s))) < 1e-13

    @pytest.mark.parametrize("z", Z_LIST + Z_N2_NON_NORMAL)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_list_form_is_the_one_mode_operators_bitwise(self, z, k):
        p = SiegelPoint(z)
        zero = (0,) * (p.n - 1)
        modes = [FourierMode((r,) + zero, (s,) + zero)
                 for r, s in ((0, 0), (1, -1), (-3, 2), (k, 0), (1, -1), (40, -25))]
        if p.n == 2:
            modes.append(FourierMode((2, -1), (1, 3)))
        ops = toeplitz_mode_closed_form(p, k, modes)
        assert len(ops) == len(modes)
        for op, m in zip(ops, modes):
            single = toeplitz_mode_closed_form(p, k, m).entries
            symbol = WeylSymbol(k, p.n, {m: eta(p, k, m)}).to_dense().entries
            assert np.array_equal(op.entries, single)
            assert np.array_equal(op.entries, symbol)
            assert not op.entries.flags.writeable
        # every operator has its own array; none is a view of a shared stack
        assert all(op.entries.base is None for op in ops)

    def test_mode_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="mode dimension 1 does not match n = 2"):
            toeplitz_mode_closed_form(SiegelPoint(np.diag([1j, 2j])), 3, [((1,), (0,))])

    def test_operator_copies_what_its_caller_can_still_write(self):
        entries = np.eye(2, dtype=complex)
        op = OperatorMatrix(2, 1, entries)
        entries[0, 0] = 5
        assert op.entries[0, 0] == 1 and not op.entries.flags.writeable
        view = np.eye(2, dtype=complex)[:, ::-1]
        view.setflags(write=False)  # read-only, but its base is writeable
        assert not np.shares_memory(OperatorMatrix(2, 1, view).entries, view)
        owned = np.eye(2, dtype=complex)
        owned.setflags(write=False)
        assert OperatorMatrix(2, 1, owned).entries is owned

    def test_dense_symbol_holds_one_matrix(self):
        # to_dense hands its array to the operator: a copy would peak at 2x
        A = WeylSymbol(32, 2, {((1, 0), (0, 1)): 1.0, ((0, 1), (1, 1)): 0.5j})
        tracemalloc.start()
        try:
            size = A.to_dense().entries.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, (peak, size)

    def test_single_entry_against_brute_grid(self):
        # one entry computed from scratch: (F_{1,0} theta_0, theta_1) at k=2
        Z = 1j
        p = SiegelPoint(Z)
        N = required_grid_size(p, 2, 1)
        want = toeplitz_entry_brute(Z, 2, 1, 0, 0, 1, N)
        got = toeplitz_mode_closed_form(p, 2, ((1,), (0,))).entries[1, 0]
        assert got == pytest.approx(want, abs=1e-10)


class TestQuadratureOracle:
    @pytest.mark.parametrize("z", Z_LIST)
    def test_agreement_small_sweep(self, z):
        p = SiegelPoint(z)
        modes = [
            FourierMode((r,), (s,))
            for r in (-2, 0, 1)
            for s in (-1, 0, 2)
        ]
        for k in (1, 3):
            grid = grid_for(p, k, 2)
            quads = toeplitz_modes_quadrature(p, k, modes, grid)
            for m in modes:
                A = toeplitz_mode_closed_form(p, k, m)
                assert np.max(np.abs(A.entries - quads[m].entries)) < 1e-8

    @pytest.mark.parametrize("z, k", [(10 + 1j, 1), (20j, 4), (50j, 8)])
    def test_deviation_at_wide_y_bandwidth(self, z, k):
        # the y-frequency s - X r of a mode, and a large Y, alias on the
        # x-rule's grid: Z = 10+1i at k = 1 once took N = 24 and read 3.5e-6
        p = SiegelPoint(z)
        modes = [FourierMode((r,), (s,)) for r in range(-2, 3) for s in range(-2, 3)]
        assert max(quadrature_deviation(p, k, modes, grid_for(p, k, 2))) < 1e-8

    def test_constant_mode_identity(self):
        p = SiegelPoint(1 + 2j)
        m = FourierMode((0,), (0,))
        A = toeplitz_modes_quadrature(p, 2, [m], grid_for(p, 2))[m]
        assert np.max(np.abs(A.entries - np.eye(2))) < 1e-8

    def test_conjugate_mode_is_adjoint(self):
        p = SiegelPoint(0.5 + 0.7j)
        grid = grid_for(p, 2, 2)
        m = FourierMode((1,), (2,))
        A = toeplitz_modes_quadrature(p, 2, [m], grid)[m]
        B = toeplitz_modes_quadrature(p, 2, [-m], grid)[-m]
        assert np.max(np.abs(B.entries - A.entries.conj().T)) < 1e-8

    def test_refuses_coarse_grid(self):
        p = SiegelPoint(1j)
        with pytest.raises(GridError):
            toeplitz_modes_quadrature(p, 4, [((1,), (0,))], QuadratureGrid(8))
        with pytest.raises(GridError):
            quadrature_deviation(p, 4, [((1,), (0,))], QuadratureGrid(8))

    @pytest.mark.parametrize("Z, mode", [
        (1j, ((1, 0), (0, 0))), ([[1j, 0], [0, 2j]], ((1,), (0,)))])
    def test_refuses_modes_of_another_dimension(self, Z, mode):
        # the axis path once read the first axis of a two-axis mode at n = 1
        p = SiegelPoint(Z)
        with pytest.raises(ValueError, match="mode dimension"):
            toeplitz_modes_quadrature(p, 2, [mode], grid_for(p, 2, 1))

    @settings(max_examples=30, deadline=None)
    @given(deviation_cases())
    def test_deviation_is_the_dense_difference(self, case):
        # the in-place comparison against max |closed form - quadrature| of
        # the dense matrices, bit for bit
        p, k, modes, grid = case
        quads = toeplitz_modes_quadrature(p, k, modes, grid)
        want = [np.max(np.abs(toeplitz_mode_closed_form(p, k, m).entries
                              - quads[m].entries)) for m in modes]
        got = quadrature_deviation(p, k, modes, grid)
        assert got.shape == (len(modes),)
        assert got.tolist() == want

    def test_n2_agreement(self, point_n2):
        k = 2
        modes = [FourierMode((1, 0), (0, 1)), FourierMode((0, 1), (1, 0))]
        grid = grid_for(point_n2, k, 1)
        quads = toeplitz_modes_quadrature(point_n2, k, modes, grid)
        for m in modes:
            A = toeplitz_mode_closed_form(point_n2, k, m)
            assert np.max(np.abs(A.entries - quads[m].entries)) < 1e-8


class TestToeplitzFunction:
    def test_constant_function(self):
        p = SiegelPoint(1j)
        f = FourierFunction.constant(1.0)
        assert np.allclose(
            toeplitz_function(p, 4, f).entries, np.eye(4), atol=1e-14
        )

    def test_real_function_hermitian(self, points_n1):
        f = FourierFunction(
            {((1,), (0,)): 0.5 - 0.2j, ((-1,), (0,)): 0.5 + 0.2j,
             ((2,), (1,)): 1j, ((-2,), (-1,)): -1j}
        )
        for p in points_n1:
            A = toeplitz_function(p, 3, f).entries
            assert np.max(np.abs(A - A.conj().T)) < 1e-10

    def test_adjoint_is_conjugate_symbol(self):
        p = SiegelPoint(1 + 2j)
        f = FourierFunction({((1,), (2,)): 0.7 + 0.3j, ((0,), (1,)): -1.2j})
        A = toeplitz_function(p, 4, f)
        B = toeplitz_function(p, 4, f.conjugate())
        assert np.max(np.abs(A.entries.conj().T - B.entries)) < 1e-10

    @pytest.mark.parametrize("z", [1 + 2j, Z_N2_NON_NORMAL[0]])
    def test_sum_of_mode_operators(self, z):
        # congruent modes (r = 3 and r = -1 at k = 4; 2 and -1 at k = 3)
        # land on the same entries and must add up
        p = SiegelPoint(z)
        if p.n == 1:
            k = 4
            terms = {((1,), (2,)): 0.7 + 0.3j, ((0,), (1,)): -1.2j,
                     ((3,), (0,)): 0.4, ((-1,), (0,)): 0.2}
        else:
            k = 3
            terms = {((1, 0), (0, 1)): 0.7 + 0.3j, ((0, 1), (1, -1)): -1.2j,
                     ((2, 0), (0, 0)): 0.4, ((-1, 0), (0, 0)): 0.2}
        want = sum(
            c * toeplitz_mode_closed_form(p, k, m).entries for m, c in terms.items()
        )
        got = toeplitz_function(p, k, FourierFunction(terms)).entries
        assert np.max(np.abs(got - want)) < 1e-13

    def test_two_cosine_structure(self):
        p = SiegelPoint(1j)
        f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
        A = toeplitz_function(p, 2, f).entries
        e = np.exp(-np.pi / 4)
        assert np.allclose(A, e * np.array([[0, 2], [2, 0]]) / 2 * 2, atol=1e-12) or \
            np.allclose(A, e * np.array([[0, 1], [1, 0]]) * 2, atol=1e-12)
        # shift plus its transpose, both entries e^{-pi/4}
        assert A[0, 1] == pytest.approx(2 * e, abs=1e-12)


class TestRescaled:
    def test_identity_mode(self):
        assert np.allclose(
            rescaled_toeplitz(3, ((0,), (0,))).entries, np.eye(3), atol=1e-14
        )

    def test_unit_shift_level_two(self):
        A = rescaled_toeplitz(2, ((1,), (0,))).entries
        assert A[1, 0] == pytest.approx(1.0, abs=1e-14)
        assert A[0, 1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mode", [((1,), (0,)), ((2,), (3,)), ((-1,), (2,))])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_unitary(self, mode, k):
        A = rescaled_toeplitz(k, mode).entries
        assert np.max(np.abs(A.conj().T @ A - np.eye(k))) < 1e-12

    @pytest.mark.parametrize("z", Z_LIST + Z_N2_NON_NORMAL)
    def test_closed_form_is_eta_times_rescaled(self, z):
        p = SiegelPoint(z)
        mode = ((1,), (-2,)) if p.n == 1 else ((1, -1), (2, 0))
        for k in (1, 2, 3, 5):
            T = toeplitz_mode_closed_form(p, k, mode).entries
            W = rescaled_toeplitz(k, mode).entries
            assert np.max(np.abs(T - eta(p, k, mode) * W)) < 1e-14

    @pytest.mark.parametrize("z", [0.5 + 0.7j, Z_N2_NON_NORMAL[1]])
    def test_weyl_relation(self, z):
        # W(m1) W(m2) = exp(i pi omega(m1, m2) / k) W(m1 + m2)
        p = SiegelPoint(z)
        if p.n == 1:
            pairs = [(((1,), (0,)), ((0,), (1,))), (((2,), (-1,)), ((-3,), (2,)))]
        else:
            pairs = [(((1, 0), (0, 1)), ((0, 2), (1, -1)))]
        for k in (1, 2, 3, 5):
            for a, b in pairs:
                m1, m2 = FourierMode(*a), FourierMode(*b)
                lhs = (rescaled_toeplitz(k, m1).entries
                       @ rescaled_toeplitz(k, m2).entries)
                phase = np.exp(1j * np.pi * m1.symplectic_pairing(m2) / k)
                rhs = phase * rescaled_toeplitz(k, m1 + m2).entries
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_matches_heat_rescaled_closed_form(self, points_n1):
        for p in points_n1:
            for mode in [((1,), (0,)), ((2,), (-1,))]:
                direct = rescaled_toeplitz(3, mode).entries
                via = 1 / eta(p, 3, mode) * toeplitz_mode_closed_form(
                    p, 3, mode
                ).entries
                assert np.max(np.abs(direct - via)) < 1e-12


class TestNormsAndTraces:
    def test_identity_norm(self):
        assert operator_norm(OperatorMatrix(4, 1, np.eye(4))) == pytest.approx(1.0)

    def test_rescaled_norm_one(self):
        assert operator_norm(rescaled_toeplitz(3, ((1,), (1,)))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mode_norm_is_eta(self):
        p = SiegelPoint(1j)
        A = toeplitz_mode_closed_form(p, 2, ((1,), (0,)))
        assert operator_norm(A) == pytest.approx(np.exp(-np.pi / 4), abs=1e-12)

    def test_hs_identity(self):
        I = OperatorMatrix(5, 1, np.eye(5))
        assert hs_inner(I, I) == pytest.approx(5.0)

    def test_hs_equals_frobenius(self, rng):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = OperatorMatrix(3, 1, M)
        got = hs_inner(A, A).real
        assert got == pytest.approx(np.linalg.norm(M, "fro") ** 2, rel=1e-12)
        assert hs_inner(A, A).imag == pytest.approx(0.0, abs=1e-12)

    def test_scaled_norm_of_rescaled_is_one(self):
        A = rescaled_toeplitz(4, ((2,), (1,)))
        assert hs_inner(A, A) == pytest.approx(4.0, abs=1e-12)

    def test_cross_mode_orthogonal(self):
        p = SiegelPoint(1j)
        A = toeplitz_function(p, 2, FourierFunction.mode((1,), (0,)))
        B = toeplitz_function(p, 2, FourierFunction.mode((0,), (1,)))
        assert abs(hs_inner(A, B)) < 1e-14


class TestTraceLemma:
    def test_identity_pair(self, points_n1):
        for p in points_n1:
            for k in (1, 2, 5):
                v = trace_pair_closed_form(p, k, ((0,), (0,)), ((0,), (0,)))
                assert v == pytest.approx(k, abs=1e-12)

    def test_off_congruence_zero(self):
        p = SiegelPoint(1j)
        assert trace_pair_closed_form(p, 2, ((1,), (0,)), ((0,), (1,))) == 0

    def test_equal_modes_value(self):
        # frozen from the direct matrix trace: 2 e^{-pi/2}
        p = SiegelPoint(1j)
        v = trace_pair_closed_form(p, 2, ((1,), (0,)), ((1,), (0,)))
        assert v == pytest.approx(0.4157591527015238, abs=1e-13)

    def test_sign_is_one_for_equal_modes(self):
        assert trace_pair_sign(3, ((2,), (1,)), ((2,), (1,))) == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_direct_traces(self, k, points_n1):
        modes = [
            FourierMode((r,), (s,))
            for r in range(-2, 3)
            for s in range(-2, 3)
        ]
        p = points_n1[1]
        mats = {m: toeplitz_mode_closed_form(p, k, m) for m in modes}
        for m1, m2 in itertools.product(modes, modes):
            closed = trace_pair_closed_form(p, k, m1, m2)
            direct = hs_inner(mats[m1], mats[m2])
            assert abs(closed - direct) < 1e-10

    def test_congruent_pair_carries_sign(self):
        # t = r + k, u = s + k with k=1: the sign can be -1; the values
        # must still match the direct trace including that sign
        p = SiegelPoint(1j)
        m1 = ((1,), (1,))
        m2 = ((2,), (2,))
        closed = trace_pair_closed_form(p, 1, m1, m2)
        direct = hs_inner(
            toeplitz_mode_closed_form(p, 1, m1),
            toeplitz_mode_closed_form(p, 1, m2),
        )
        assert abs(closed - direct) < 1e-12
        assert trace_pair_sign(1, m1, m2) == -1

    @pytest.mark.parametrize("m1, m2, sign", [
        (((10**8,), (10**8,)), ((10**8 + 3,), (10**8,)), 1),
        (((10**8,), (10**8,)), ((10**8 + 3,), (10**8 + 3,)), -1),
        (((3 * 10**8 + 1,), (10**8,)), ((1,), (10**8 + 3,)), -1),
        (((3 * 10**8 + 1, 1), (5, 10**8)), ((1, 1), (5, 10**8 + 3)), -1),
    ])
    def test_sign_is_exact_for_large_modes(self, m1, m2, sign):
        # P = r.s - 2 s.t + t.u is of order 1e16 here: a float phase
        # exp(-i pi P / k) no longer rounds to +-1, the integer sign does
        k = 3
        p = SiegelPoint(1j if len(m1[0]) == 1 else [[1j, 0], [0, 2j]])
        assert trace_pair_sign(k, m1, m2) == sign
        dense = hs_inner(rescaled_toeplitz(k, m1), rescaled_toeplitz(k, m2))
        assert dense == pytest.approx(sign * k ** p.n, abs=1e-9)
        unit = WeylSymbol(k, p.n, {m1: 1.0}).pair(WeylSymbol(k, p.n, {m2: 1.0}))
        assert unit == sign * k ** p.n

    def test_modes_of_two_dimensions_are_refused(self):
        # zip once cut the longer mode, and this sign read 1
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            trace_pair_sign(3, ((1,), (0,)), ((1, 0), (0, 0)))

    def test_incongruent_modes_have_no_trace(self):
        # P = 0 here, so a phase test alone would read the sign +1
        assert trace_pair_sign(3, ((1,), (0,)), ((0,), (1,))) == 0

    def test_sign_table_holds_large_modes_exactly(self):
        # the int64 products of these entries would wrap mod 2^64, and k = 3
        # does not divide the wrapped P; the signs are taken in Python ints
        modes = [FourierMode((-821353333820,), (-583020039108,)),
                 FourierMode((-94007179859,), (-149422565235,))]
        assert _sign_table(3, modes, modes).tolist() == [[1, -1], [-1, 1]]

    def test_closed_form_refuses_modes_of_two_dimensions(self):
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            trace_pair_closed_form(SiegelPoint(1j), 3, [((1,), (0,))], [((1, 0), (0, 0))])

    def test_a_list_paired_with_itself_takes_one_eta_table(self, count_calls):
        calls = count_calls((toeplitz, "eta"))
        modes = [FourierMode((r,), (s,)) for r in range(-1, 2) for s in range(-1, 2)]
        trace_pair_closed_form(SiegelPoint(1j), 2, modes, modes)
        assert calls["eta"] == 1
        trace_pair_closed_form(SiegelPoint(1j), 2, modes, list(modes))
        assert calls["eta"] == 3


class TestAsymptotics:
    def test_bms_two_cosine(self):
        p = SiegelPoint(1j)
        f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
        rows = bms_experiment(p, f, (8, 16, 32, 64, 128))
        errs = [r["error"] for r in rows]
        assert rows[0]["sup"] == pytest.approx(2.0, abs=1e-6)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(0.3 <= r <= 0.7 for r in ratios)
        # at Z = i the norm is 2 eta_k(1,0), so the error is 2(1 - e^{-pi/2k})
        for row in rows:
            want = 2 * (1 - np.exp(-np.pi / (2 * row["k"])))
            assert row["error"] == pytest.approx(want, abs=1e-10)

    def test_bms_constant_function(self):
        p = SiegelPoint(1j)
        rows = bms_experiment(p, FourierFunction.constant(1.0), (2, 4))
        assert all(r["error"] < 1e-12 for r in rows)

    def test_product_fit_c0_is_pointwise_product(self):
        p = SiegelPoint(1j)
        f = FourierFunction.mode((1,), (0,))
        g = FourierFunction.mode((0,), (1,))
        # the order fit needs the asymptotic regime; at k = 8 the 1/k^2
        # curvature of the Gaussian factors still biases the slope
        fit = product_expansion_fit(p, f, g, (16, 32, 64, 128, 256))
        assert fit.c0_fit_order >= 0.9
        c0 = fit.coefficients[0]
        assert c0.approx_eq(f * g, tol=1e-5)
        assert not fit.ill_conditioned

    def test_product_fit_constant_pair(self):
        p = SiegelPoint(1j)
        one = FourierFunction.constant(1.0)
        fit = product_expansion_fit(p, one, one, (8, 16, 32, 64, 128))
        for l in range(1, 4):
            for c in fit.coefficients[l].terms.values():
                assert abs(c) < 1e-10

    def test_c1_constant_and_residual(self, points_n1):
        ks = (8, 16, 32, 64, 128)
        expected = 1.0 / (2 * np.pi)
        pairs = [
            (FourierFunction.mode((1,), (0,)), FourierFunction.mode((0,), (1,))),
            (FourierFunction.mode((1,), (1,)), FourierFunction.mode((0,), (1,))),
        ]
        constants = []
        for p in points_n1[:2]:
            for f, g in pairs:
                comp = c1_antisymmetry_constant(p, f, g, ks)
                assert comp.relative_residual < 0.02
                constants.append(comp.constant)
        for c in constants:
            assert abs(c - expected) / expected < 0.02
        spread = max(abs(c - constants[0]) for c in constants)
        assert spread / abs(constants[0]) < 0.02

    def test_loglog_order_exact_power(self):
        ks = (8, 16, 32, 64)
        errs = [3.0 / k for k in ks]
        assert loglog_order(ks, errs) == pytest.approx(1.0, abs=1e-12)
        # a zero error leaves the fit; one positive error fits no slope
        assert loglog_order(ks, [0.0] + errs[1:]) == pytest.approx(1.0, abs=1e-12)
        assert np.isnan(loglog_order(ks, [0.0, 0.0, 0.0, errs[3]]))

    def test_c1_constant_of_a_far_mode_is_finite(self):
        # eta_256 of F[400;1] underflows at Z = i, and the bracket's operator
        # once paired to 0 and divided by it
        f = FourierFunction.mode((400,), (0,))
        g = FourierFunction.mode((0,), (1,))
        comp = c1_antisymmetry_constant(SiegelPoint(1j), f, g, (16, 32, 64, 128, 256))
        assert np.isfinite(comp.constant) and np.isfinite(comp.relative_residual)
        # eta_16(F[400;0])^2 / eta_16(F[800;0]) = e^(10^4 pi) at Z = i
        with pytest.raises(OverflowError, match="beyond the float range"):
            product_expansion_fit(SiegelPoint(1j), f, f, (16, 32, 64, 128, 256))
        # {g, 2g} = 0
        with pytest.raises(ValueError, match="vanishes"):
            c1_antisymmetry_constant(SiegelPoint(1j), g, 2 * g, (16, 32, 64, 128, 256))


def _dense_product_fit(p, f, g, k_values):
    """product_expansion_fit level by level from dense matrices: the product
    of the to_dense() operators, its Frobenius projection onto to_dense() of
    each out mode, the 2-norm of T_f T_g - T_fg and the same lstsq."""
    out_modes = sorted({a + b for a in f.terms for b in g.terms},
                       key=lambda m: (m.r, m.s))
    samples, norms = [], []
    for k in k_values:
        def dense(h):
            return WeylSymbol.toeplitz(p, k, h).to_dense().entries

        prod = dense(f) @ dense(g)
        norms.append(np.linalg.norm(prod - dense(f * g), 2))
        row = []
        for m in out_modes:
            B = WeylSymbol(k, p.n, {m: eta(p, k, m)}).to_dense().entries
            row.append(np.vdot(B, prod) / np.vdot(B, B))
        samples.append(row)
    V = np.vander(1.0 / np.asarray(k_values, dtype=float), N=4, increasing=True)
    coefficients = np.linalg.lstsq(V, np.array(samples), rcond=None)[0]
    return out_modes, coefficients, norms


@st.composite
def fit_cases(draw):
    """A point, its levels (n = 1: k = 8..128; n = 2: k = 4..8) and f, g of
    one to three modes with entries and coefficient parts in [-2, 2]."""
    Z = draw(st.sampled_from(Z_LIST + [[[1j, 0], [0, 2j]], [[2j, 0.5j], [0.5j, 1j]]]))
    p = SiegelPoint(Z)
    levels = (8, 16, 32, 64, 128) if p.n == 1 else (4, 5, 6, 7, 8)
    vector = st.tuples(*[st.integers(-2, 2)] * p.n)
    part = st.integers(-16, 16).map(lambda v: v / 8)

    def function():
        terms = draw(st.dictionaries(st.tuples(vector, vector),
                                     st.builds(complex, part, part).filter(bool),
                                     min_size=1, max_size=3))
        return FourierFunction(terms, n=p.n)

    return p, levels, function(), function()


def _assert_close(got, want, scale):
    """|got - want| <= 1e-10 (|want| + scale) entrywise."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-10 * (np.abs(want) + scale))


@settings(max_examples=40, deadline=None)
@given(fit_cases())
# at k = 4 the out modes F[2,0;1,0] and F[-2,0;1,0] are congruent, with pair sign -1
@example((SiegelPoint([[1j, 0], [0, 2j]]), (4, 5, 6, 7, 8),
          FourierFunction({((2, 0), (0, 0)): 1.0, ((-2, 0), (0, 0)): 0.5j}),
          FourierFunction({((0, 0), (1, 0)): 1.0})))
def test_level_axis_fit_matches_the_dense_levels(case):
    p, levels, f, g = case
    fit = product_expansion_fit(p, f, g, levels)
    out_modes, coefficients, norms = _dense_product_fit(p, f, g, levels)
    scale = sum(map(abs, f.terms.values())) * sum(map(abs, g.terms.values()))
    for l, row in enumerate(coefficients):
        _assert_close([fit.coefficients[l].coefficient(m) for m in out_modes], row, scale)
    _assert_close(fit.c0_residual_norms, norms, scale)


@settings(max_examples=20, deadline=None)
@given(fit_cases())
def test_trivialized_order1_matches_the_dense_levels(case):
    p, levels, f, g = case
    m1, m2 = f.modes()[0], g.modes()[0]
    samples = []
    for k in levels:
        A = rescaled_toeplitz(k, m1).entries @ rescaled_toeplitz(k, m2).entries
        B = rescaled_toeplitz(k, m1 + m2).entries
        samples.append([np.vdot(B, A) / np.vdot(B, B)])
    V = np.vander(1.0 / np.asarray(levels, dtype=float), N=4, increasing=True)
    order1 = np.linalg.lstsq(V, np.array(samples), rcond=None)[0][1, 0]
    rep = trivialized_star_compare(m1, m2, levels)
    _assert_close(rep.order1, order1, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1j, 1 + 2j, [[1j, 0], [0, 2j]]]), st.data())
def test_line_norms_over_levels_are_the_one_level_norms(Z, data):
    p = SiegelPoint(Z)
    m0 = data.draw(st.sampled_from([(1, 0), (1, 1), (2, -1)] if p.n == 1
                                   else [(1, 0, 0, 0), (1, 0, 1, 1), (0, 2, -1, 1)]))
    powers = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    coefficient = st.integers(-16, 16).filter(bool).map(lambda v: v / 8)
    coeffs = {
        FourierMode(m[:p.n], m[p.n:]): complex(data.draw(coefficient), data.draw(coefficient))
        for m in (tuple(t * a for a in m0) for t in powers)
    }
    levels = data.draw(st.lists(st.integers(1, 64 if p.n == 1 else 8),
                                min_size=1, max_size=5))
    # the decomposition and coefficient order that norm() takes
    line = _line_decomposition(sorted(coeffs))
    c = np.array([coeffs[m] for m in sorted(coeffs)])
    norms = _line_norms(levels, p.n, *line, np.tile(c, (len(levels), 1)))
    for k, norm in zip(levels, norms):
        symbol = WeylSymbol(k, p.n, coeffs)
        assert norm == symbol.norm()
        dense = operator_norm(symbol.to_dense())
        assert abs(norm - dense) <= 1e-10 * max(1.0, dense)


def test_a_level_norm_does_not_depend_on_the_levels_beside_it():
    # at k = 1 these four terms cancel to rounding, and the sum over the
    # terms once rounded by the number of roots in the batch: 5.72e-17
    # for the levels [1, 1] against 6.21e-17 for the one level 1
    coeffs = {FourierMode((t,), (t,)): (1 + 1j) / 8 for t in range(4)}
    symbol = WeylSymbol(1, 1, coeffs)
    c = np.array([coeffs[m] for m in sorted(coeffs)])
    norms = _line_norms([1, 1, 2], 1, *_line_decomposition(sorted(coeffs)),
                        np.tile(c, (3, 1)))
    assert norms[0] == norms[1] == symbol.norm()
    assert norms[2] == WeylSymbol(2, 1, coeffs).norm()


@pytest.mark.parametrize("modes", [
    [((1,), (0,)), ((0,), (1,))],
    [FourierMode((1,), (0,)), ((0,), (1,))],
], ids=["pairs", "mode-and-pair"])
def test_quadrature_is_keyed_by_the_modes_as_given(modes):
    # a FourierMode never equals its (r, s) pair, so keys coerced to modes
    # once made indexing with a pair raise KeyError
    p = SiegelPoint(1j)
    quads = toeplitz_modes_quadrature(p, 2, modes, grid_for(p, 2, 1))
    assert list(quads) == modes
    for m in modes:
        closed = toeplitz_mode_closed_form(p, 2, m).entries
        assert np.max(np.abs(quads[m].entries - closed)) < 1e-8


def test_closed_forms_are_refused_before_allocation(monkeypatch):
    # 16 (M + 1) dim^2 bytes: three modes of dimension 256 need 4 MiB
    monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", 1 << 20)
    modes = [FourierMode((r,), (0,)) for r in range(3)]
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="3 dense 256 x 256 operators"):
            toeplitz_mode_closed_form(SiegelPoint(1j), 256, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256**2  # not one dense operator


_LINE_PEAK_SCRIPT = """
import gc, sys, tracemalloc
import numpy as np
import thetaquant.toeplitz as toeplitz

sizes = []
check = toeplitz.check_bytes
toeplitz.check_bytes = lambda size, *args: (sizes.append(size), check(size, *args))
t = np.arange(int(sys.argv[1]))
c = np.ones((2, len(t)), dtype=complex)
toeplitz._line_norms([2, 4], 1, (1, 0), t, c)
gc.collect()
tracemalloc.start()
toeplitz._line_norms([16384, 65536], 1, (1, 0), t, c)
print(tracemalloc.get_traced_memory()[1], sizes[-1])
"""


@pytest.mark.parametrize("terms", (2, 5))
def test_line_norm_size_check_bounds_its_peak(terms):
    # the figure counts 48 bytes a root and 40 a root and term; it must
    # cover the traced peak and stay within half of it again
    src = Path(thetaquant.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _LINE_PEAK_SCRIPT, str(terms)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak, bound = map(int, done.stdout.split())
    assert bound == 8 * (16384 + 65536) * (6 + 5 * terms)
    assert peak < bound < 1.5 * peak, (peak, bound)


def test_line_norm_is_refused_before_allocation(monkeypatch):
    # 2^16 roots of two terms need 8 MiB; the bms config accepts any level,
    # and 2^24 roots once allocated past 1 GiB
    monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", 1 << 20)
    two_cos = WeylSymbol(1 << 16, 1, {((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
    with pytest.raises(SizeLimitError, match="65536 roots of 2 terms"):
        two_cos.norm()


# 0.05i underflows eta_1 of far modes; the off-diagonal n = 2 points, the
# generic one most of all, are where a batched Laplace eigenvalue differs
# from the one-mode value if a matrix kernel rounds the batch
_Z_SPLIT = Z_LIST + [0.05j, [[1j, 0], [0, 2j]], [[2j, 0.5j], [0.5j, 1j]]] + Z_N2_NON_NORMAL
_Z_OFF = 0.8949588112985712 - 2.0285284541622097j
_Z_GENERIC = [[-2.485464452354389 + 3.076206632657292j, _Z_OFF],
              [_Z_OFF, 1.0292845187544788 + 2.9914846061117744j]]


def _shuffled_function(draw, n, modes):
    """A function of ``modes`` with coefficient parts in [-2, 2], its terms
    in a drawn order."""
    part = st.integers(-16, 16).map(lambda v: v / 8)
    coefficient = st.builds(complex, part, part).filter(bool)
    terms = [(m, draw(coefficient)) for m in draw(st.permutations(modes))]
    return FourierFunction(dict(terms), n=n)


def _fit_eigenvalues(p, f, g):
    """The sorted out modes of T_f T_g and the dict of the Laplace
    eigenvalues of the modes of f, g and the out modes."""
    out_modes = sorted({a + b for a in f.terms for b in g.terms})
    modes = [*f.terms, *g.terms, *out_modes]
    return out_modes, dict(zip(modes, laplace_eigenvalue(p, modes)))


@st.composite
def split_fit_cases(draw):
    """A point, five or six levels and f, g of two to five terms each in a
    drawn order, with a nonzero bracket {f, g}."""
    p = SiegelPoint(draw(st.sampled_from(_Z_SPLIT + [_Z_GENERIC])))
    entry = st.integers(-2, 2)
    mode = st.tuples(*[entry] * (2 * p.n)).map(lambda v: FourierMode(v[:p.n], v[p.n:]))
    modes = st.lists(mode, min_size=2, max_size=5, unique=True)
    f = _shuffled_function(draw, p.n, draw(modes))
    g = _shuffled_function(draw, p.n, draw(modes))
    assume(poisson_bracket(f, g).terms)
    levels = (8, 16, 32, 64, 128, 256) if p.n == 1 else (4, 5, 6, 7, 8)
    return p, levels[:draw(st.integers(5, len(levels)))], f, g


@settings(max_examples=40, deadline=None)
@given(split_fit_cases())
def test_c1_constant_is_the_one_of_two_full_fits_bitwise(case):
    # the constant is read off both orderings' coefficients, fitted in one
    # batch with scaled pair signs from one table; spelled out here on two
    # full fits and WeylSymbol.pair's scalar signs, it must be the same bits
    p, levels, f, g = case

    def measure(compute):
        try:
            return compute()
        except (OverflowError, ValueError) as error:
            return repr(error)

    def from_two_full_fits():
        fg, gf = (product_expansion_fit(p, a, b, levels) for a, b in ((f, g), (g, f)))
        anti = (fg.coefficients[1] - gf.coefficients[1]).terms
        bracket = poisson_bracket(f, g).terms
        lam, kmax = _fit_eigenvalues(p, f, g)[1], max(levels)
        top = max((lam[m] for m in bracket), default=0.0)

        def scaled(terms):
            return WeylSymbol(kmax, p.n, {m: c * math.exp((lam[m] - top) / (4 * kmax))
                                          for m, c in terms.items()})

        A, B = scaled(anti), scaled(bracket)
        if B.pair(B) == 0:
            raise ValueError(f"the operator of {{f, g}} vanishes at k = {kmax}: "
                             "no scale to measure")
        gamma = A.pair(B) / B.pair(B)
        resid = (A - gamma * B).norm() / max(A.norm(), 1e-300)
        return C1Comparison(gamma, gamma / (-1j), float(resid),
                            max(fg.condition_number, gf.condition_number))

    got = measure(lambda: c1_antisymmetry_constant(p, f, g, levels))
    assert got == measure(from_two_full_fits)


@settings(max_examples=40, deadline=None)
@given(split_fit_cases())
def test_c0_half_is_the_full_fit_bitwise(case):
    p, levels, f, g = case
    try:
        fit = product_expansion_fit(p, f, g, levels)
    except OverflowError:
        assume(False)
    norms = _c0_residual_norms(levels, f, g, *_fit_eigenvalues(p, f, g))
    assert norms == fit.c0_residual_norms
    # the star-fit runner's c0 order
    np.testing.assert_array_equal(loglog_order(levels, norms), fit.c0_fit_order)


def test_c1_constant_computes_no_c0_norm():
    def refuse(*args):
        raise AssertionError("c1 read the c0 half of the fit")

    f = FourierFunction({((1,), (0,)): 1.0, ((1,), (1,)): 0.5})
    g = FourierFunction({((0,), (1,)): 1.0})
    want = c1_antisymmetry_constant(SiegelPoint(1j), f, g, (8, 16, 32, 64, 128))
    with mock.patch.object(toeplitz, "_c0_residual_norms", refuse):
        got = c1_antisymmetry_constant(SiegelPoint(1j), f, g, (8, 16, 32, 64, 128))
    assert got == want


def test_stacked_fit_columns_round_as_each_series_alone():
    # LAPACK rescales every right-hand side when the largest modulus leaves
    # [2^-970, 2^970], so a tiny or huge series once moved the bits of the
    # others in its stack, and was itself fitted otherwise than alone
    levels = (16, 32, 64, 128, 256)
    rng = np.random.default_rng(7)
    normal = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    stack = np.concatenate([normal[:, :1], 1e-300 * normal[:, 1:2], np.zeros((5, 1)),
                            1e300 * normal[:, 2:], np.full((5, 1), np.nan)], axis=1)
    coefficients, cond = toeplitz._inverse_power_fit(levels, stack)
    for j in range(stack.shape[1]):
        alone, cond_alone = toeplitz._inverse_power_fit(levels, stack[:, j:j + 1])
        assert coefficients[:, j].tobytes() == alone[:, 0].tobytes()
        assert cond == cond_alone


@st.composite
def bms_cases(draw):
    """A point, five to seven levels and a function of two to five terms in
    a drawn order, on one line through the origin or anywhere."""
    p = SiegelPoint(draw(st.sampled_from(_Z_SPLIT + [_Z_GENERIC])))
    if draw(st.booleans()):
        m0 = draw(st.sampled_from([(1, 0), (1, 1), (2, -1)] if p.n == 1
                                  else [(1, 0, 0, 1), (1, -1, 0, 1), (2, 2, 1, 1)]))
        powers = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True))
        vectors = [tuple(t * a for a in m0) for t in powers]
    else:
        entry = st.integers(-3, 3)
        vectors = draw(st.lists(st.tuples(*[entry] * (2 * p.n)),
                                min_size=2, max_size=5, unique=True))
    f = _shuffled_function(draw, p.n, [FourierMode(v[:p.n], v[p.n:]) for v in vectors])
    levels = draw(st.lists(st.integers(1, 64 if p.n == 1 else 12),
                           min_size=5, max_size=7))
    return p, levels, f


@settings(max_examples=60, deadline=None)
@given(bms_cases())
# a line function at _Z_GENERIC whose norms move if a matrix kernel rounds
# its batched eigenvalues otherwise than one mode alone
@example((SiegelPoint(_Z_GENERIC), [2, 3, 4, 5, 8],
          FourierFunction({((-6, -6), (-3, -3)): 1.0, ((6, 6), (3, 3)): 1.0})))
def test_bms_norms_are_the_level_norms_bitwise(case):
    p, levels, f = case
    # the sup is not under test, and an n = 2 search costs seconds
    with mock.patch.object(toeplitz, "sup_abs", lambda f: SupBound(1.0, 0.0, "stub")):
        rows = bms_experiment(p, f, levels)
    assert [row["norm"] for row in rows] == [
        WeylSymbol.toeplitz(p, k, f).norm() for k in levels
    ]


def test_bms_of_a_line_takes_its_norms_in_one_pass():
    # one eigenvalue table for all modes and one line pass for all levels
    calls = {"_line_norms": 0, "laplace_eigenvalue": 0}

    def counted(name):
        fn = getattr(toeplitz, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 0.5, ((2,), (0,)): 0.25j})
    with mock.patch.multiple(toeplitz, **{name: counted(name) for name in calls}):
        bms_experiment(SiegelPoint(1 + 2j), f, (8, 16, 32, 64, 128))
    assert calls == {"_line_norms": 1, "laplace_eigenvalue": 1}
