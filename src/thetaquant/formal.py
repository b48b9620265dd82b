"""Heat-flow trivialization, flatness checks, and the Moyal star product.

The metric Laplacian acts diagonally on pure phases, so the heat operator
exp(-(h/4) Delta) multiplies the mode (r, s) by exp(-h lambda(r,s,Z)/4) --
a factor >= 1 since the eigenvalues are nonpositive.  At h = 1/k this is
exactly the coefficient that makes the mode Toeplitz matrices independent
of the Siegel point; formally it trivializes the connection

    D_V f = V[f] - (h / 8 pi) Delta_{G(V)} f

over the Siegel space, which reduces per mode to the scalar identity
d_V lambda + mu_{G(V)} / (2 pi) = 0 checked here.  Conjugating the level-k
operator product by the heat flow yields a complex-structure-independent
star product whose first-order part is measured against the Moyal-Weyl
product

    f * g = mul o exp(-(i/2) h Q) (f x g),   Q = sum dx_i x dy_i - dy_i x dx_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (
    FourierFunction,
    FourierMode,
    _mode_arrays,
    _mode_pair_sum,
    check_bytes,
)
from .siegel import (
    InvalidPointError,
    NonNormalError,
    _delta,
    _dlambda_dXY,
    _laplace_eigenvalue,
    _positive_definite,
    _rows,
    _wirtinger,
    gtilde_coefficients,
    laplace_eigenvalue,
)
from .theta import _abs
from .toeplitz import _clock_shift_columns, _eta, _star_fits

_TINY = np.finfo(float).tiny  # the smallest normal float

__all__ = [
    "FormalFourierSeries",
    "heat_transform",
    "covariant_constancy_residual",
    "formal_hitchin_residual",
    "moyal_product",
    "TrivializedStarFit",
    "trivialized_star_compare",
]

_MOYAL_WEIGHT = 2j * np.pi**2  # per unit of omega; see moyal_product


@dataclass(frozen=True)
class FormalFourierSeries:
    """Power series in the deformation parameter with Fourier coefficients.

    ``coefficients[l]`` is the order-l coefficient function; all arithmetic
    truncates at the stored order.
    """

    order: int
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if len(coeffs) != self.order + 1:
            raise ValueError("need order + 1 coefficient functions")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_function(cls, f, order):
        zero = FourierFunction.zero(f.n)
        return cls(order, (f,) + (zero,) * order)

    @property
    def n(self):
        return self.coefficients[0].n

    def coefficient(self, l):
        return self.coefficients[l]

    def __add__(self, other):
        L = min(self.order, other.order)
        return FormalFourierSeries(
            L,
            tuple(
                self.coefficients[l] + other.coefficients[l] for l in range(L + 1)
            ),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if np.isscalar(other):
            return FormalFourierSeries(
                self.order, tuple(other * c for c in self.coefficients)
            )
        L = min(self.order, other.order)
        out = [FourierFunction.zero(self.n) for _ in range(L + 1)]
        for a in range(L + 1):
            for b in range(L + 1 - a):
                out[a + b] = out[a + b] + self.coefficients[a] * other.coefficients[b]
        return FormalFourierSeries(L, tuple(out))

    __rmul__ = __mul__

    def approx_eq(self, other, tol=1e-12):
        if self.order != other.order:
            return False
        return all(
            a.approx_eq(b, tol)
            for a, b in zip(self.coefficients, other.coefficients)
        )


def heat_transform(p, f, h_eval=None, order=None):
    """Apply exp(-(h/4) Delta) mode-diagonally.

    With ``h_eval`` supplied (typically 1/k) the result is numeric: every
    mode coefficient is scaled by exp(-h lambda / 4).  Without it the
    exponential is expanded formally to the series order (taken from ``f``
    when it already is a series, else from ``order``).
    """
    if h_eval is not None:
        def scale(fn):
            lam = laplace_eigenvalue(p, list(fn.terms))
            return FourierFunction({m: c * math.exp(-h_eval * x / 4.0)
                                    for (m, c), x in zip(fn.terms.items(), lam)}, n=fn.n)

        if isinstance(f, FormalFourierSeries):
            return FormalFourierSeries(
                f.order, tuple(scale(c) for c in f.coefficients)
            )
        return scale(f)

    if isinstance(f, FourierFunction):
        if order is None:
            raise ValueError("formal transform of a plain function needs an order")
        f = FormalFourierSeries.from_function(f, order)
    L = f.order
    out = [dict() for _ in range(L + 1)]
    for a in range(L + 1):
        terms = f.coefficients[a].terms
        for (m, c), lam in zip(terms.items(), laplace_eigenvalue(p, list(terms))):
            for j in range(L + 1 - a):
                w = c * (-lam / 4.0) ** j / math.factorial(j)
                tgt = out[a + j]
                tgt[m] = tgt.get(m, 0.0) + w
    return FormalFourierSeries(
        L, tuple(FourierFunction(d, n=f.n) for d in out)
    )


def covariant_constancy_residual(p1, p2, k, modes):
    """Entrywise distance of heat-rescaled mode operators at two points.

    The theta frames at the two points are identified label-wise (the frame
    is covariant constant for the flat heat connection), so the rescaled
    matrices must agree entry by entry; the un-rescaled ones differ by the
    gap between the Gaussian factors.  Both operators are nonzero only where
    W_k(m) is, so the distance is read off those k^n values, hc (eta w).
    A mode whose eta underflows below the normal floats is rescaled by the
    significand of eta, exp(lambda/4k mod ln 2): eta's power of two cancels
    in (1/eta)(eta w), and 1/eta of a subnormal or zero eta would overflow,
    which made the residual NaN.  ``modes`` is one mode (a scalar) or a list
    of M modes or their (M, 2n) integer table (shape (M,)).

    The residual is :func:`_constancy_residual` of the two points' eigenvalue
    tables and W's values (:func:`_checked_columns`).  Neither table depends
    on the other point, and the eigenvalues not on k, so the ``covariance``
    runner takes one eigenvalue table per point for every level and one
    :func:`_checked_columns` call per level for every pair of points.
    """
    if p1.n != p2.n:
        raise ValueError("points have different dimension")
    w = _checked_columns(k, p1.n, modes)
    lam1, lam2 = (laplace_eigenvalue(p, modes) for p in (p1, p2))
    return _constancy_residual(k, lam1, lam2, w)


def _checked_columns(k, n, modes):
    """W_k(m)'s values, shape (M, k^n) (:func:`toeplitz._clock_shift_columns`),
    refused before allocation with the five arrays of the residual beside it."""
    M, dim = len(modes) if isinstance(modes, (list, np.ndarray)) else 1, k**n
    # W's values, two rescaled copies and their difference: six (M, k^n) arrays
    check_bytes(96 * M * dim, "clock-and-shift stack", f"{M} modes of dimension {dim}")
    return _clock_shift_columns(k, n, modes)[1]


def _constancy_residual(k, lam1, lam2, w):
    """max |(1/e1)(e1 w) - (1/e2)(e2 w)| over each mode's k^n values ``w``,
    e = eta_k of the eigenvalues ``lam1`` and ``lam2``, or its significand
    where eta underflows (see :func:`covariant_constancy_residual`)."""
    def rescaled(lam):
        e = _eta(lam, k)
        if e.min() < _TINY:
            e = np.where(e < _TINY, np.exp(lam / (4 * k) % math.log(2)), e)
        e = e[..., None]
        return (1.0 / e) * (e * w)

    return np.max(np.abs(rescaled(lam1) - rescaled(lam2)), axis=-1)


def _mu_frame(p, r, s):
    """The first-order complex-frame eigenvalues e = (pi w, -pi w') of the
    phases F_(r, s): pi w in the dz sector, w = Y^-1(s - Zbar r), and -pi w'
    in the dzbar sector, w' = Y^-1(s - Zr).  They do not depend on the
    direction."""
    w = _rows(s - _rows(r, np.conj(p.Z).T), p.Yinv.T)
    wbar = _rows(s - _rows(r, p.Z.T), p.Yinv.T)
    return np.concatenate([np.pi * w, -np.pi * wbar], axis=-1)


def _mu_eigenvalue(e, v):
    """Eigenvalue of Delta_{G(v)} on the phases whose frame (:func:`_mu_frame`)
    is ``e``: the bivector is constant, so it is the coefficient contraction
    e.G e, of shape e.shape[:-1]."""
    return np.sum(_rows(e, gtilde_coefficients(v, e.shape[-1] // 2)) * e, axis=-1)


def _fd_dXY(p, r, s, D, h):
    """Central differences of step h of lambda in X_ij and Y_ij (D = D_ij),
    from the eigenvalues of the modes (r, s) at the four stencil points
    Z +- hD, Z +- ihD.  No stencil point is built: the X moves keep Y and
    Y^-1, and each Y move takes one inverse.  A Y move that leaves the
    Siegel space is refused with :class:`InvalidPointError`."""
    lam = [_laplace_eigenvalue(r, s, X, p.Y, p.Yinv) for X in (p.X + h * D, p.X - h * D)]
    for Y in (p.Y + h * D, p.Y - h * D):
        # ||D|| = 1, so only a step as large as Y's smallest eigenvalue
        # can leave the cone
        if abs(h) >= p.min_eig_Y and not _positive_definite(Y):
            raise InvalidPointError(
                f"fd step h = {h:g} leaves the Siegel space: the smallest "
                f"eigenvalue of Y is {p.min_eig_Y:.6g}")
        lam.append(_laplace_eigenvalue(r, s, p.X, Y, np.linalg.inv(Y)))
    return (lam[0] - lam[1]) / (2 * h), (lam[2] - lam[3]) / (2 * h)


def formal_hitchin_residual(p, modes, v, fd_step=None):
    """|d_v lambda + mu_{G(v)} / (2 pi)| -- the per-mode flatness defect.

    Zero for the heat-flow frame at all series orders, since the flow acts
    mode-diagonally.  ``fd_step`` replaces the analytic eigenvalue
    derivative by central differences of that step in X and Y
    (:func:`_fd_dXY`); a stencil that leaves the Siegel space is refused
    with :class:`InvalidPointError`.  ``modes`` is one mode, giving a
    float, or a list of M modes or their (M, 2n) integer table, giving an
    array of shape (M,).  This is :func:`_hitchin_residuals` on the one
    direction and the one step; the ``flatness`` runner calls that kernel on
    every direction of a point and both steps, so the directions share one
    mu frame and, per entry pair (i, j), one closed form and one stencil.
    """
    return _hitchin_residuals(p, modes, [v], [fd_step])[0][0]


def _hitchin_residuals(p, modes, dirs, steps):
    """Flatness residuals of ``modes`` at p along each direction of ``dirs``
    for each of ``steps`` (None for the analytic derivative, else an fd
    step): a list over steps of lists over directions.

    dlam/dX_ij and dlam/dY_ij are taken once per entry pair (i, j) and step,
    from the closed form (:func:`siegel._dlambda_dXY`) or one fd stencil,
    so dZ and dZbar of one entry share them; mu's frame e is built once,
    since it does not depend on the direction, and each direction contracts
    it with G(v) once for every step.  A direction then only applies its
    -/+ i sign.
    """
    if p.n > 1 and not p.is_normal:
        raise NonNormalError("flatness closed form needs a normal point")
    r, s = _mode_arrays(modes)
    e = _mu_frame(p, r, s)
    mus = [_mu_eigenvalue(e, v) / (2 * np.pi) for v in dirs]
    out = []
    for h in steps:
        halves = {}
        for v in dirs:
            if (v.i, v.j) not in halves:
                D = _delta(p.n, v.i, v.j)
                halves[v.i, v.j] = (_dlambda_dXY(p, r, s, D) if h is None
                                    else _fd_dXY(p, r, s, D, h))
        # |.| as the builtin abs rounds it, so a list gives its one-mode values
        out.append([_abs(_wirtinger(*halves[v.i, v.j], v) + mu)
                    for v, mu in zip(dirs, mus)])
    return out


def _as_series(f, order):
    if isinstance(f, FormalFourierSeries):
        return f
    return FormalFourierSeries.from_function(f, order)


def moyal_product(f, g, order):
    """Truncated Moyal-Weyl product of Fourier data.

    On phases Q is the scalar -4 pi^2 omega, omega = r.u - s.t, so the
    exponential series contributes (2 pi^2 i omega)^j / j! at order j
    (``_MOYAL_WEIGHT`` omega); extended bilinearly and by the Cauchy rule
    over series orders.  Associative at every truncation.
    """
    f = _as_series(f, order)
    g = _as_series(g, order)
    L = min(order, f.order, g.order)
    out = [FourierFunction.zero(f.n) for _ in range(L + 1)]
    for a in range(L + 1):
        for b in range(L + 1 - a):
            for j in range(L + 1 - a - b):
                term = _mode_pair_sum(
                    f.coefficients[a].terms,
                    g.coefficients[b].terms,
                    lambda omega, j=j: (_MOYAL_WEIGHT * omega) ** j / math.factorial(j),
                )
                out[a + b + j] = out[a + b + j] + FourierFunction(term, n=f.n)
    return FormalFourierSeries(L, tuple(out))


@dataclass
class TrivializedStarFit:
    """First-order coefficient of the trivialized operator product vs Moyal."""

    order1: complex
    moyal_order1: complex
    constant: complex  # measured ratio order1 / moyal_order1 (0 when both vanish)
    condition_number: float


def trivialized_star_compare(m1, m2, k_values):
    """Measure the star product seen through heat-rescaled operators.

    At every level the product of the two rescaled mode operators is
    projected onto the rescaled operator of the mode sum, and the scalar
    sequence is fitted in 1/k; the linear coefficient is compared with the
    Moyal value 2 pi^2 i omega as a ratio (the global normalization
    constant).  The rescaled operators W_k(m) do not depend on the complex
    structure, so neither does the fit, and it takes no Siegel point: this
    is ``toeplitz._star_fits`` of the one pair at no point, whose star
    series is the projection with every exponent 0.  The ``star-fit``
    runner reads the star of each pair from its one call of that kernel
    (:func:`_trivialized_star`).
    """
    m1, m2 = FourierMode.coerce(m1), FourierMode.coerce(m2)
    pair = FourierFunction({m1: 1.0}), FourierFunction({m2: 1.0})
    (fit,), _ = _star_fits([], [pair], k_values)
    return _trivialized_star(m1, m2, fit)


def _trivialized_star(m1, m2, fit):
    """The :class:`TrivializedStarFit` of the modes m1, m2 from the fits
    (``toeplitz._PairFits``) of the pair F_m1, F_m2, whose one out mode is
    m1 + m2."""
    (c1,) = fit.star
    q = m1.symplectic_pairing(m2)
    moyal = _MOYAL_WEIGHT * q
    constant = c1 / moyal if q != 0 else 0.0 + 0.0j
    return TrivializedStarFit(
        order1=complex(c1),
        moyal_order1=complex(moyal),
        constant=complex(constant),
        condition_number=fit.condition_number,
    )
