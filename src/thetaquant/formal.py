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

from .fourier import FourierFunction, FourierMode, _mode_arrays, _mode_pair_sum
from .siegel import (
    NonNormalError,
    SiegelPoint,
    _delta,
    dlambda_dZ,
    gtilde_coefficients,
    laplace_eigenvalue,
)
from .toeplitz import (
    WeylSymbol,
    _clock_shift_columns,
    _inverse_power_fit,
    eta,
)

__all__ = [
    "FormalFourierSeries",
    "heat_coefficient",
    "heat_transform",
    "covariant_constancy_residual",
    "formal_hitchin_residual",
    "moyal_product",
    "TrivializedStarFit",
    "trivialized_star_compare",
]


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


def heat_coefficient(p, k, m):
    """Mode damping removed: 1 / eta_k(m) = exp(-lambda(r,s,Z)/(4k)) >= 1."""
    return 1.0 / eta(p, k, m)


def heat_transform(p, f, h_eval=None, order=None):
    """Apply exp(-(h/4) Delta) mode-diagonally.

    With ``h_eval`` supplied (typically 1/k) the result is numeric: every
    mode coefficient is scaled by exp(-h lambda / 4).  Without it the
    exponential is expanded formally to the series order (taken from ``f``
    when it already is a series, else from ``order``).
    """
    if h_eval is not None:
        def scale(fn):
            return FourierFunction(
                {
                    m: c * math.exp(-h_eval * laplace_eigenvalue(p, m) / 4.0)
                    for m, c in fn.terms.items()
                },
                n=fn.n,
            )

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
        for m, c in f.coefficients[a].terms.items():
            lam = laplace_eigenvalue(p, m)
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
    ``modes`` is one mode (a scalar) or a list of M modes (shape (M,)).
    """
    if p1.n != p2.n:
        raise ValueError("points have different dimension")
    _, w = _clock_shift_columns(k, p1.n, modes)

    def rescaled(p):
        e = np.expand_dims(eta(p, k, modes), -1)
        return (1.0 / e) * (e * w)

    return np.max(np.abs(rescaled(p1) - rescaled(p2)), axis=-1)


def _mu_eigenvalue(p, modes, v):
    """Eigenvalue of Delta_{G(v)} on the phase F_m.

    First-order complex-frame eigenvalues of the phase are pi w (dz sector,
    w = Y^-1(s - Zbar r)) and -pi w' (dzbar sector, w' = Y^-1(s - Zr));
    the bivector is constant, so the second-order eigenvalue is the
    coefficient contraction e.G e.  One mode gives a scalar, a list of M
    modes an array of shape (M,).
    """
    r, s = _mode_arrays(modes)
    w = (s - r.dot(np.conj(p.Z).T)).dot(p.Yinv.T)
    wbar = (s - r.dot(p.Z.T)).dot(p.Yinv.T)
    e = np.concatenate([np.pi * w, -np.pi * wbar], axis=-1)
    return np.sum(e.dot(gtilde_coefficients(v, p.n)) * e, axis=-1)


def formal_hitchin_residual(p, modes, v, fd_step=None):
    """|d_v lambda + mu_{G(v)} / (2 pi)| -- the per-mode flatness defect.

    Zero for the heat-flow frame at all series orders, since the flow acts
    mode-diagonally.  ``fd_step`` replaces the analytic eigenvalue
    derivative by central differences of that step in X and Y, from the
    eigenvalues of every mode at the four stencil points.  ``modes`` is one
    mode, giving a float, or a list of M modes, giving an array of shape (M,).
    """
    if p.n > 1 and not p.is_normal:
        raise NonNormalError("flatness closed form needs a normal point")
    if fd_step is None:
        dlam = dlambda_dZ(p, modes, v)
    else:
        h = fd_step
        D = _delta(p.n, v.i, v.j)
        lam = [laplace_eigenvalue(SiegelPoint(p.Z + dz * D), modes)
               for dz in (h, -h, 1j * h, -1j * h)]
        dX = (lam[0] - lam[1]) / (2 * h)
        dY = (lam[2] - lam[3]) / (2 * h)
        sgn = -1j if v.holomorphic else 1j
        dlam = 0.5 * (dX + sgn * dY)
    return abs(dlam + _mu_eigenvalue(p, modes, v) / (2 * np.pi))


def _as_series(f, order):
    if isinstance(f, FormalFourierSeries):
        return f
    return FormalFourierSeries.from_function(f, order)


def moyal_product(f, g, order):
    """Truncated Moyal-Weyl product of Fourier data.

    On phases the bidifferential operator Q is the scalar
    -4 pi^2 (r.u - s.t), so the exponential series contributes
    (2 pi^2 i (r.u - s.t))^j / j! at order j; extended bilinearly and by
    the Cauchy rule over series orders.  Associative at every truncation.
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
                    lambda omega, j=j: (2j * np.pi**2 * omega) ** j / math.factorial(j),
                )
                out[a + b + j] = out[a + b + j] + FourierFunction(term, n=f.n)
    return FormalFourierSeries(L, tuple(out))


@dataclass
class TrivializedStarFit:
    """First-order coefficient of the trivialized operator product vs Moyal."""

    order1: complex
    moyal_order1: complex
    constant: complex  # measured ratio order1 / moyal_order1 (0 when both vanish)
    cross_point_deviation: float
    condition_number: float


def trivialized_star_compare(p, m1, m2, k_values, other_point=None):
    """Measure the star product seen through heat-rescaled operators.

    For each level the product of the two rescaled mode operators is
    projected onto the rescaled operator of the mode sum and the scalar
    sequence is fitted in 1/k; the linear coefficient is compared with the
    Moyal value 2 pi^2 i (r.u - s.t) as a ratio (the global normalization
    constant).  A second Siegel point quantifies complex-structure
    independence.
    """
    m1, m2 = FourierMode.coerce(m1), FourierMode.coerce(m2)
    k_values = tuple(int(k) for k in k_values)

    def fitted_order1(pt):
        def sample(k):
            A = WeylSymbol(k, pt, {m1: 1.0}) @ WeylSymbol(k, pt, {m2: 1.0})
            B = WeylSymbol(k, pt, {m1 + m2: 1.0})
            return [A.pair(B) / B.pair(B)]

        coefficients, cond = _inverse_power_fit(k_values, sample)
        return coefficients[1, 0], cond

    c1, cond = fitted_order1(p)
    q = m1.symplectic_pairing(m2)
    moyal = 2j * np.pi**2 * q
    constant = c1 / moyal if q != 0 else 0.0 + 0.0j
    cross = 0.0
    if other_point is not None:
        c1_other, _ = fitted_order1(other_point)
        cross = abs(c1 - c1_other) / max(abs(c1), 1e-300)
    return TrivializedStarFit(
        order1=complex(c1),
        moyal_order1=complex(moyal),
        constant=complex(constant),
        cross_point_deviation=float(cross),
        condition_number=cond,
    )
