"""Property tests of the Weyl-symbol algebra against its dense matrices.

Symbols are drawn at n = 1 (k < 40) and n = 2 (k < 8), with modes moved by
multiples of k so that congruent-but-distinct modes meet in products and
pairings.  Every identity is checked against ``to_dense()``: the product
against the matrix product (the Weyl relation), the pairing against the
Frobenius pairing ``hs_inner``, and the exact line-symbol norm against the
dense SVD.  The norm and the sup are drawn again with their terms permuted
and must not move by a bit.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquant import fourier, toeplitz
from thetaquant.fourier import FourierFunction, FourierMode, sup_abs
from thetaquant.sections import SizeLimitError
from thetaquant.siegel import SiegelPoint
from thetaquant.toeplitz import (
    WeylSymbol,
    hs_inner,
    operator_norm,
    toeplitz_function,
)
from thetaquant.tqft import pairing_closed_form

MAX_K = {1: 39, 2: 7}
P1 = SiegelPoint(1j)
PROPERTY = settings(max_examples=60, deadline=None)

coefficients = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def _mode(n, entries):
    return FourierMode(tuple(entries[:n]), tuple(entries[n:]))


@st.composite
def levels(draw):
    n = draw(st.sampled_from((1, 2)))
    return n, draw(st.integers(1, MAX_K[n]))


def _vectors(n, bound):
    return st.lists(st.integers(-bound, bound), min_size=2 * n, max_size=2 * n)


@st.composite
def symbol_pairs(draw):
    """Two symbols over the same base modes, each mode moved by k times a
    vector in {-1, 0, 1}^{2n}: congruent, and often distinct, across A and B."""
    n, k = draw(levels())
    bases = draw(st.lists(_vectors(n, 3), min_size=1, max_size=3))

    def symbol():
        terms = {}
        for base in bases:
            shift = draw(_vectors(n, 1))
            terms[_mode(n, [b + k * s for b, s in zip(base, shift)])] = draw(
                coefficients
            )
        return WeylSymbol(k, n, terms)

    return symbol(), symbol()


@st.composite
def line_symbols(draw):
    """sum_t c_t W_k(t m0) for one (not necessarily primitive) m0."""
    n, k = draw(levels())
    m0 = draw(_vectors(n, 3))
    powers = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    return WeylSymbol(
        k, n, {_mode(n, [t * a for a in m0]): draw(coefficients) for t in powers}
    )


def _scale(*symbols):
    return 1.0 + sum(abs(c) for s in symbols for c in s.coeffs.values()) ** 2


@PROPERTY
@given(symbol_pairs())
def test_product_is_the_matrix_product(pair):
    A, B = pair
    want = A.to_dense().entries @ B.to_dense().entries
    got = (A @ B).to_dense().entries
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * _scale(A, B))


@PROPERTY
@given(symbol_pairs())
def test_pairing_is_the_frobenius_pairing(pair):
    A, B = pair
    want = hs_inner(A.to_dense(), B.to_dense())
    assert A.pair(B) == pytest.approx(want, abs=1e-11 * A.k**A.n * _scale(A, B))


@PROPERTY
@given(symbol_pairs())
def test_adjoint_difference_and_scaling(pair):
    A, B = pair
    dense_a, dense_b = A.to_dense().entries, B.to_dense().entries
    tol = 1e-12 * _scale(A, B)
    np.testing.assert_allclose(
        (A - 2j * B).to_dense().entries, dense_a - 2j * dense_b, rtol=0, atol=tol
    )


# m0 with r0.s0 odd, so U^k = -I at odd k and +I at even k
ODD_N1 = {((1,), (1,)): 1.0, ((2,), (2,)): 0.5j, ((-3,), (-3,)): 0.3}
ODD_N2 = {((1, 1), (1, 0)): 1.0, ((-2, -2), (-2, 0)): -0.7}


@PROPERTY
@given(line_symbols())
@example(WeylSymbol(4, 1, ODD_N1))
@example(WeylSymbol(5, 1, ODD_N1))
@example(WeylSymbol(3, 2, ODD_N2))
@example(WeylSymbol(4, 2, ODD_N2))
@example(WeylSymbol(3, 1, {((3,), (6,)): 1.0, ((-1,), (-2,)): 0.4 - 0.2j}))
def test_line_norm_is_the_dense_norm(A):
    assert A._line() is not None
    want = operator_norm(A.to_dense())
    assert A.norm() == pytest.approx(want, rel=1e-12, abs=1e-12 * _scale(A))


@PROPERTY
@given(levels(), _vectors(2, 3), _vectors(2, 3), coefficients, coefficients)
def test_off_line_norm_is_the_dense_norm(level, u, v, a, b):
    n, k = level
    u, v = _mode(n, u[: 2 * n]), _mode(n, v[: 2 * n])
    A = WeylSymbol(k, n, {u: a, v: b})
    if A._line() is None:
        assert A.norm() == operator_norm(A.to_dense())
    else:
        assert A.norm() == pytest.approx(
            operator_norm(A.to_dense()), rel=1e-12, abs=1e-12 * _scale(A)
        )


def test_line_norm_needs_no_matrix_and_off_line_norm_is_refused():
    two_cos = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
    A = WeylSymbol.toeplitz(P1, 8192, two_cos)
    eta = A.coeffs[FourierMode((1,), (0,))].real
    # U^k = I and the roots include 1 and -1, so the norm is 2 eta exactly
    assert A.norm() == pytest.approx(2 * eta, rel=1e-14)
    B = WeylSymbol(8192, 1, {((1,), (0,)): 1.0, ((0,), (1,)): 1.0})
    assert B._line() is None
    with pytest.raises(SizeLimitError, match="4096"):
        B.norm()


def test_modes_of_the_wrong_dimension_are_refused():
    # pair zips the 2n entries of two modes, so a short mode would be cut
    with pytest.raises(ValueError, match="dimension"):
        WeylSymbol(4, 2, {((1,), (0,)): 1.0})
    with pytest.raises(ValueError, match="dimension"):
        WeylSymbol(4, 1, {((1,), (0,)): 1.0, ((1, 0), (0, 0)): 1.0})


def test_pairing_closed_form_is_the_dense_pairing():
    p = SiegelPoint(1 + 2j)
    f = FourierFunction({((1,), (0,)): 0.7, ((0,), (2,)): -0.2j, ((5,), (0,)): 0.1})
    g = FourierFunction({((1,), (0,)): 0.1j, ((2,), (1,)): 0.4, ((1,), (4,)): 0.3})
    for k in (1, 2, 4, 5):
        dense = hs_inner(toeplitz_function(p, k, f), toeplitz_function(p, k, g))
        assert pairing_closed_form(p, k, f, g) == pytest.approx(
            dense / k, abs=1e-13
        )


@pytest.mark.parametrize("n", [1, 2])
def test_the_zero_function_keeps_its_empty_symbol(n):
    # one eta call over no modes has no row to give it the dimension
    p = SiegelPoint(np.diag([1j, 2j][:n]))
    zero = FourierFunction.zero(n)
    f = FourierFunction({((1,) * n, (0,) * n): 0.5})
    assert WeylSymbol.toeplitz(p, 3, zero).coeffs == {}
    assert pairing_closed_form(p, 3, zero, f) == 0
    assert pairing_closed_form(p, 3, zero, zero) == 0


@PROPERTY
@given(st.one_of(line_symbols(), symbol_pairs().map(lambda pair: pair[0])))
@example(WeylSymbol(3, 1, {((1,), (0,)): 1.0, ((0,), (1,)): 1.0}))
@example(WeylSymbol(2, 2, ODD_N2))
def test_norm_and_sup_agree_on_lines(A):
    # the exact line norm and the one-angle sup share one line decomposition:
    # a symbol off a line needs the dense SVD, and its function all 2n angles
    # (the maximiser is stubbed: only the route is compared here)
    with mock.patch.object(toeplitz, "operator_norm", side_effect=LookupError):
        try:
            A.norm()
            exact = True
        except LookupError:
            exact = False
    assert exact == (A._line() is not None)
    with mock.patch.object(fourier, "_trig_max", return_value=(0.0, 0.0)):
        method = sup_abs(FourierFunction(A.coeffs, n=A.n)).method
    assert method == ("line" if exact else "torus")


def test_norm_is_the_same_in_every_order_of_the_terms():
    # the first key once fixed the line's orientation, and with it the last
    # bits: 1.1970850854856638 in some orders, 1.1970850854856636 in others
    terms = [(((-1,), (0,)), -1.0), (((2,), (0,)), 0.5), (((-2,), (0,)), 0.5 + 0.5j)]
    norms = {WeylSymbol(3, 1, dict(order)).norm()
             for order in itertools.permutations(terms)}
    assert len(norms) == 1
    (norm,) = norms
    dense = WeylSymbol(3, 1, dict(terms)).to_dense()
    assert norm == pytest.approx(operator_norm(dense), rel=1e-12)


def _sup_or_refusal(f):
    """sup_abs(f), or the message of its SizeLimitError."""
    try:
        return sup_abs(f)
    except SizeLimitError as exc:
        return str(exc)


@st.composite
def reordered_symbols(draw):
    """A symbol and its terms in a drawn order."""
    A = draw(st.one_of(line_symbols(), symbol_pairs().map(lambda pair: pair[0])))
    return A, dict(draw(st.permutations(list(A.coeffs.items()))))


@PROPERTY
@given(reordered_symbols())
# its torus sup grid is refused (1.05 GiB), which once failed the test
@example((WeylSymbol(7, 2, {((7, 0), (0, 8)): 1.0, ((0, -10), (-10, 0)): 1.0}),
          {((0, -10), (-10, 0)): 1.0, ((7, 0), (0, 8)): 1.0}))
# a subnormal coefficient once overflowed the sup's Newton step (pinv)
@example((WeylSymbol(1, 2, {((0, 0), (0, 0)): 1.0, ((0, 0), (0, 1)): 2.2250738585e-313}),
          {((0, 0), (0, 1)): 2.2250738585e-313, ((0, 0), (0, 0)): 1.0}))
def test_norm_and_sup_are_independent_of_the_order_of_the_terms(case):
    # every order gives the same sup, or every order the same refusal
    A, order = case
    assert WeylSymbol(A.k, A.n, order).norm() == A.norm()
    f = FourierFunction(A.coeffs, n=A.n)
    assert _sup_or_refusal(FourierFunction(order, n=A.n)) == _sup_or_refusal(f)
