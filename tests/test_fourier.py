import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquant.fourier import (
    FourierFunction,
    FourierMode,
    _line_decomposition,
    dense_max_abs,
    fourier_eval,
    poisson_bracket,
    sup_abs,
)
from thetaquant.sections import SizeLimitError

from oracles import poisson_bracket_numeric


def test_mode_validation():
    m = FourierMode((1, 2), (0, -1))
    assert m.n == 2
    assert (-m).r == (-1, -2)
    with pytest.raises(ValueError):
        FourierMode((1.5,), (0,))
    with pytest.raises(ValueError):
        FourierMode((1, 2), (0,))


def test_eval_constant_and_quarter_point():
    one = FourierFunction.constant(1.0, n=1)
    assert fourier_eval(one, 0.37, 0.82) == pytest.approx(1.0)
    f = FourierFunction.mode((1,), (0,))
    # e^{2 pi i / 4} = i
    assert fourier_eval(f, 0.25, 0.9) == pytest.approx(1j)


def test_eval_periodicity():
    f = FourierFunction({((2,), (-1,)): 1.3 - 0.2j, ((0,), (3,)): 0.4j})
    v = fourier_eval(f, 0.21, 0.55)
    assert abs(fourier_eval(f, 1.21, 0.55) - v) < 1e-14
    assert abs(fourier_eval(f, 0.21, -0.45) - v) < 1e-13


def test_realness_detection():
    f = FourierFunction({((1,), (0,)): 1 + 2j, ((-1,), (0,)): 1 - 2j})
    assert f.is_real()
    g = FourierFunction({((1,), (0,)): 1 + 2j})
    assert not g.is_real()
    x = np.array([0.13])
    y = np.array([0.77])
    assert abs(fourier_eval(f, x, y).imag) < 1e-14


def test_multiplication_is_convolution():
    f = FourierFunction.mode((1,), (0,), 2.0)
    g = FourierFunction.mode((0,), (1,), 0.5) + FourierFunction.constant(1.0)
    prod = f * g
    assert prod.coefficient(((1,), (1,))) == pytest.approx(1.0)
    assert prod.coefficient(((1,), (0,))) == pytest.approx(2.0)
    # pointwise values agree
    for x, y in [(0.1, 0.2), (0.6, 0.9)]:
        assert fourier_eval(prod, x, y) == pytest.approx(
            fourier_eval(f, x, y) * fourier_eval(g, x, y)
        )


def test_bracket_antisymmetry_and_self():
    f = FourierFunction({((1,), (0,)): 1.0, ((0,), (2,)): 0.3j})
    assert not poisson_bracket(f, f).terms
    g = FourierFunction.mode((0,), (1,))
    fg = poisson_bracket(f, g)
    gf = poisson_bracket(g, f)
    assert fg.approx_eq(-1.0 * gf)


def test_bracket_basic_example():
    f = FourierFunction.mode((1,), (0,))
    g = FourierFunction.mode((0,), (1,))
    br = poisson_bracket(f, g)
    assert br.coefficient(((1,), (1,))) == pytest.approx(-4 * np.pi**2)


def test_bracket_parallel_modes_vanish():
    f = FourierFunction.mode((2,), (4,))
    g = FourierFunction.mode((1,), (2,))  # r.u - s.t = 4 - 4 = 0
    assert not poisson_bracket(f, g).terms


def test_bracket_matches_numeric_partials():
    f = FourierFunction({((1,), (0,)): 0.7, ((0,), (1,)): -0.2j})
    g = FourierFunction({((1,), (1,)): 1.1, ((-1,), (2,)): 0.5})
    br = poisson_bracket(f, g)
    for x, y in [(0.11, 0.31), (0.62, 0.85)]:
        want = poisson_bracket_numeric(
            lambda a, b: fourier_eval(f, a, b),
            lambda a, b: fourier_eval(g, a, b),
            x,
            y,
        )
        assert fourier_eval(br, x, y) == pytest.approx(want, abs=5e-3)


@pytest.mark.parametrize(
    "m1,m2,m3",
    list(
        itertools.islice(
            itertools.combinations(
                [((r,), (s,)) for r in (-2, -1, 1, 2) for s in (-2, 0, 1, 2)], 3
            ),
            0,
            60,
            7,
        )
    ),
)
def test_bracket_jacobi_identity(m1, m2, m3):
    f = FourierFunction.mode(*m1)
    g = FourierFunction.mode(*m2)
    h = FourierFunction.mode(*m3)
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    for c in total.terms.values():
        assert abs(c) < 1e-10


def test_dense_sup():
    f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
    assert dense_max_abs(f) == pytest.approx(2.0, abs=1e-6)


# ------------------------------------------------------- sup from the modes

entries = st.integers(-3, 3)
small_coefficients = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def line_functions(draw):
    """sum_t c_t F_{t m0} at n = 1 with every mode entry in [-3, 3]."""
    m0 = draw(st.tuples(entries, entries).filter(any))
    reach = 3 // max(abs(a) for a in m0)
    powers = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=4))
    return FourierFunction(
        {((t * m0[0],), (t * m0[1],)): draw(small_coefficients) for t in powers},
        n=1,
    )


@st.composite
def any_functions(draw):
    modes = draw(st.lists(st.tuples(entries, entries), min_size=1, max_size=5))
    return FourierFunction(
        {((r,), (s,)): draw(small_coefficients) for r, s in modes}, n=1
    )


@settings(max_examples=25, deadline=None)
@given(st.one_of(line_functions(), any_functions()))
@example(FourierFunction({((1,), (0,)): 1.0, ((0,), (1,)): 1.0}))
@example(FourierFunction({((3,), (-2,)): 1.0, ((-2,), (3,)): 0.5j, ((0,), (0,)): 1}))
# the best node of these climbs to a lower local maximum than the sup
@example(FourierFunction(
    {((-3,), (-3,)): 2j, ((-2,), (-2,)): -2 + 1.5j, ((1,), (1,)): -1.5 + 1.5j}
))
@example(FourierFunction(
    {((-2,), (-3,)): 1 + 1.5j, ((0,), (-1,)): -2 + 0.5j, ((3,), (2,)): -0.5 - 1.5j}
))
def test_sup_is_bracketed_by_the_dense_grid(f):
    sup = sup_abs(f)
    reference = dense_max_abs(f)
    assert sup.value >= reference - 1e-12
    assert sup.value <= reference + sup.gap
    line = _line_decomposition(f.modes()) is not None
    assert sup.method == ("line" if line else "torus")


def test_tiny_and_huge_coefficients_do_not_overflow():
    # the Newton Hessian scales like |c|^2; its pseudo-inverse overflowed
    # at |c| = 3.8e-155
    for scale in (3.84759e-155, 1e-300, 2.22507e-311, 1e200):
        for f in (FourierFunction({((0,), (1,)): scale}),
                  FourierFunction({((1,), (0,)): scale, ((0,), (1,)): scale})):
            sup = sup_abs(f)
            assert sup.value == pytest.approx(scale * len(f.terms), rel=1e-12)
            assert 0 <= sup.gap < sup.value


def test_two_cosine_sup_is_two():
    f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
    sup = sup_abs(f)
    assert sup.method == "line"
    assert abs(sup.value - 2.0) <= 1e-15


def test_n2_line_sup_is_a_one_angle_maximum():
    m0 = (1, 2, -1, 1)
    c = {1: 1.0, -2: 0.7 - 0.4j, 3: 0.5j, 0: -0.2}
    f = FourierFunction(
        {(tuple(t * a for a in m0[:2]), tuple(t * a for a in m0[2:])): ct
         for t, ct in c.items()}
    )
    theta = np.arange(1 << 20) / (1 << 20)
    brute = np.max(np.abs(
        sum(ct * np.exp(2j * np.pi * t * theta) for t, ct in c.items())
    ))
    sup = sup_abs(f)
    assert sup.method == "line"
    assert brute - 1e-12 <= sup.value <= brute + sup.gap
    # the 2^20-node maximum is within (pi^2/2) sum|c| t^2 h^2/4 of the sup
    assert sup.value - brute < 1e-9


def test_n2_torus_sup_against_a_brute_grid():
    f = FourierFunction({
        ((1, 0), (0, 1)): 1.0,
        ((0, 1), (-1, 0)): 0.8j,
        ((-1, 0), (0, -1)): 0.6,
        ((1, 1), (0, 0)): -0.3,
    })
    assert _line_decomposition(f.modes()) is None
    t = np.linspace(0.0, 1.0, 40, endpoint=False)
    x1, x2, y1 = np.meshgrid(t, t, t, indexing="ij")
    brute = 0.0
    for y2 in t:
        brute = max(brute, np.max(np.abs(fourier_grid(f, x1, x2, y1, y2))))
    sup = sup_abs(f)
    assert sup.method == "torus"
    assert brute - 1e-12 <= sup.value <= brute + sup.gap


def fourier_grid(f, x1, x2, y1, y2):
    return sum(
        c * np.exp(2j * np.pi * (m.r[0] * x1 + m.r[1] * x2 + m.s[0] * y1
                                 + m.s[1] * y2))
        for m, c in f.terms.items()
    )


def test_constant_and_zero_sups_are_exact():
    assert sup_abs(FourierFunction.constant(-1.5 + 2j, n=2)) == (2.5, 0.0, "line")
    assert sup_abs(FourierFunction.zero(n=1)) == (0.0, 0.0, "line")


def test_large_sup_grid_is_refused(monkeypatch):
    monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", 1 << 10)
    with pytest.raises(SizeLimitError, match="sup grid needs"):
        sup_abs(FourierFunction({((1,), (0,)): 1.0, ((0,), (2,)): 1.0}))


def test_sup_grid_estimate_covers_the_peak(monkeypatch):
    # the refusal once counted 16 bytes per node, a third of what the search
    # holds at once; with the limit one byte below the measured peak, the
    # estimate must refuse the same grid
    f = FourierFunction({((3, 0), (0, 0)): 1.0, ((0, 3), (0, 0)): 0.5j,
                         ((0, 0), (3, 0)): 0.3, ((0, 0), (0, 3)): -0.7,
                         ((1, 1), (1, 1)): 0.2})
    tracemalloc.start()
    try:
        assert sup_abs(f).method == "torus"  # 24^4 nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr("thetaquant.fourier.MAX_FRAME_BYTES", peak - 1)
    with pytest.raises(SizeLimitError, match="sup grid needs"):
        sup_abs(f)


@pytest.mark.parametrize("n", (1, 2))
def test_gap_certifies_the_grid_alone(n, monkeypatch):
    # sum_d 2cos(2 pi (x_d - 1/16)) peaks at 2n midway between the nodes
    # 0 and 1/8; without Newton the grid misses the peak by nearly the bound
    monkeypatch.setattr("thetaquant.fourier._NEWTON_STEPS", 0)
    phase = np.exp(-2j * np.pi / 16)
    terms = {}
    for d in range(n):
        e = tuple(int(i == d) for i in range(n))
        terms[(e, (0,) * n)] = phase
        terms[(tuple(-a for a in e), (0,) * n)] = phase.conjugate()
    sup = sup_abs(FourierFunction(terms))
    assert sup.method == ("line" if n == 1 else "torus")
    assert sup.value == pytest.approx(2 * n * np.cos(np.pi / 8), abs=1e-14)
    assert 2 * n <= sup.value + sup.gap < 2 * n + 0.01
