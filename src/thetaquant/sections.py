"""Concrete sections of the level-k bundle and their L2 geometry.

Sections are coefficient vectors over the theta frame (lexicographic label
order).  Inner products are integrals over the unit cell [0,1)^{2n} in the
real coordinates (x, y), z = x + Zy,

    (s1, s2) = int s1(z) conj(s2(z)) exp(-2 pi k y.Yy) dx dy,

computed by the equal-weight rule on a uniform grid, which is spectrally
accurate here because the integrand is lattice periodic.  The normalized
variant multiplies by sqrt(2^n k^n det Y), making the theta frame
orthonormal.  Grid sizes follow the bandwidth rule N >= 4 (k R + m_max)
with R the theta truncation radius and m_max the largest extra Fourier
frequency in the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theta import (
    Derivative,
    _lattice_vector,
    multiplier,
    hermitian_weight,
    theta_basis,
    theta_eval,
    truncation_radius,
)

__all__ = [
    "GridError",
    "SectionVector",
    "QuadratureGrid",
    "required_grid_size",
    "suggest_grid",
    "section_eval",
    "theta_frame_on_grid",
    "l2_inner",
    "gram_matrix",
    "integrand_periodicity_residual",
    "lattice_weight_identity",
    "cocycle_residual",
]

DEFAULT_EPSILON = 1e-12


class GridError(ValueError):
    """Raised when a quadrature grid is too coarse for the integrand."""


@dataclass(frozen=True)
class SectionVector:
    """Coefficients of a section in the theta frame at level k."""

    k: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if c.shape != (self.k**self.n,):
            raise ValueError(
                f"need {self.k ** self.n} coefficients for k={self.k}, n={self.n}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis_vector(cls, k, n, index):
        c = np.zeros(k**n, dtype=complex)
        c[index] = 1.0
        return cls(k, n, c)

    def __add__(self, other):
        if (other.k, other.n) != (self.k, self.n):
            raise ValueError("section levels differ")
        return SectionVector(self.k, self.n, self.coeffs + other.coeffs)

    def __rmul__(self, scalar):
        return SectionVector(self.k, self.n, scalar * self.coeffs)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid with N nodes per coordinate on [0,1)^{2n}."""

    N: int
    n: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.n not in (1, 2):
            raise ValueError("grids support n in {1, 2}")

    @property
    def nodes_1d(self):
        return np.arange(self.N) / self.N


def required_grid_size(p, k, m_max=0, epsilon=DEFAULT_EPSILON):
    """Bandwidth-sufficient node count: 4 (k ceil(R) + m_max)."""
    policy = truncation_radius(p, k, epsilon)
    return 4 * (k * int(math.ceil(policy.radius)) + int(m_max))


def suggest_grid(p, k, m_max=0, epsilon=DEFAULT_EPSILON):
    return QuadratureGrid(required_grid_size(p, k, m_max, epsilon), p.n)


def section_eval(p, s, x, y, policy=None):
    """Value of the section at real coordinates (x, y), via z = x + Zy."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = x + p.Z @ y
    labels = theta_basis(s.k, s.n)
    if policy is None:
        policy = truncation_radius(p, s.k, DEFAULT_EPSILON)
    total = 0.0 + 0.0j
    for c, lab in zip(s.coeffs, labels):
        if c != 0:
            total += c * theta_eval(p, lab, z, Derivative.value(), policy)
    return total


def _frame_windows(p, k, policy):
    """Lattice offsets covering the Gaussian centre for every y in [0,1)^n."""
    halfwidth = int(math.ceil(policy.radius)) + 1
    return np.arange(-halfwidth, halfwidth + 1)


def theta_frame_on_grid(p, k, grid, epsilon=DEFAULT_EPSILON):
    """Theta frame values on the uniform grid, plus the metric weight.

    Returns ``(values, weight)`` where ``values`` has shape (k^n, N^{2n})
    with grid axes flattened row-major in the order (x_1..x_n, y_1..y_n),
    and ``weight`` holds exp(-2 pi k y.Yy) on the same flattening.
    """
    n = p.n
    N = grid.N
    policy = truncation_radius(p, k, epsilon)
    t = grid.nodes_1d
    offs = _frame_windows(p, k, policy)
    labels = theta_basis(k, n)
    Z = p.Z

    if n == 1:
        values = np.empty((k, N * N), dtype=complex)
        for idx, lab in enumerate(labels):
            u = offs + lab.alpha[0]
            cu = np.exp(1j * np.pi * k * u * Z[0, 0] * u)
            px = np.exp(2j * np.pi * k * np.outer(u, t))
            w = u * Z[0, 0]
            py = np.exp(2j * np.pi * k * np.outer(w, t))
            values[idx] = np.einsum("l,la,lb->ab", cu, px, py).ravel()
        yy = t * p.Y[0, 0] * t
        weight = np.exp(-2 * np.pi * k * yy)
        weight = np.broadcast_to(weight[None, :], (N, N)).ravel().copy()
        return values, weight

    # n == 2: accumulate lattice points through partial einsum groupings to
    # keep memory at O(L N^2) instead of O(L N^4).
    values = np.empty((k * k, N**4), dtype=complex)
    mesh = np.meshgrid(offs, offs, indexing="ij")
    L = np.stack([m.ravel() for m in mesh], axis=-1).astype(float)
    for idx, lab in enumerate(labels):
        u = L + lab.alpha
        quad = np.einsum("li,ij,lj->l", u, Z, u)
        cu = np.exp(1j * np.pi * k * quad)
        w = u @ Z
        px1 = np.exp(2j * np.pi * k * np.outer(u[:, 0], t))
        px2 = np.exp(2j * np.pi * k * np.outer(u[:, 1], t))
        py1 = np.exp(2j * np.pi * k * np.outer(w[:, 0], t))
        py2 = np.exp(2j * np.pi * k * np.outer(w[:, 1], t))
        xs = np.einsum("l,la,lb->lab", cu, px1, px2)
        ys = np.einsum("lc,ld->lcd", py1, py2)
        values[idx] = np.einsum("lab,lcd->abcd", xs, ys).ravel()
    y1, y2 = np.meshgrid(t, t, indexing="ij")
    ys = np.stack([y1.ravel(), y2.ravel()], axis=-1)
    wq = np.einsum("pi,ij,pj->p", ys, p.Y, ys)
    weight_y = np.exp(-2 * np.pi * k * wq).reshape(N, N)
    weight = np.broadcast_to(
        weight_y[None, None, :, :], (N, N, N, N)
    ).ravel().copy()
    return values, weight


def integrand_periodicity_residual(p, s1, s2, probe=(0.3, 0.7)):
    """Max relative defect of unit shifts of the inner-product integrand.

    The integrand s1 conj(s2) exp(-2 pi k y.Yy) must be 1-periodic in every
    one of the 2n coordinates; this certifies lattice invariance before any
    quadrature is trusted.
    """

    def integrand(x, y):
        y = np.asarray(y, dtype=float)
        v = section_eval(p, s1, x, y) * np.conj(section_eval(p, s2, x, y))
        return v * hermitian_weight(p, y) ** s1.k

    n = p.n
    x0 = np.full(n, probe[0])
    y0 = np.full(n, probe[1])
    base = integrand(x0, y0)
    scale = max(abs(base), 1e-300)
    worst = 0.0
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        worst = max(worst, abs(integrand(x0 + e, y0) - base) / scale)
        worst = max(worst, abs(integrand(x0, y0 + e) - base) / scale)
    return worst


def _check_grid(p, k, grid, m_max=0):
    need = required_grid_size(p, k, m_max)
    if grid.n != p.n:
        raise GridError(f"grid dimension {grid.n} != point dimension {p.n}")
    if grid.N < need:
        raise GridError(
            f"grid too coarse: N={grid.N}, bandwidth rule needs N >= {need}"
        )


def l2_inner(p, s1, s2, grid, normalized=True):
    """Inner product of two sections by equal-weight quadrature.

    Conjugate linear in the second slot.  With ``normalized`` the value is
    scaled by sqrt(2^n k^n det Y), under which the theta frame is
    orthonormal.  Refuses grids below the bandwidth rule.
    """
    if (s1.k, s1.n) != (s2.k, s2.n):
        raise ValueError("sections live at different levels")
    k = s1.k
    _check_grid(p, k, grid)
    res = integrand_periodicity_residual(p, s1, s2)
    if res > 1e-9:
        raise RuntimeError(
            f"integrand failed the periodicity certificate: residual {res:.3e}"
        )
    frame, weight = theta_frame_on_grid(p, k, grid)
    v1 = s1.coeffs @ frame
    v2 = s2.coeffs @ frame
    value = np.mean(v1 * np.conj(v2) * weight)
    if normalized:
        value *= math.sqrt(2**p.n * k**p.n * p.det_Y)
    return complex(value)


def gram_matrix(p, k, grid):
    """Matrix of normalized frame inner products; Hermitian, close to Id."""
    _check_grid(p, k, grid)
    frame, weight = theta_frame_on_grid(p, k, grid)
    norm = math.sqrt(2**p.n * k**p.n * p.det_Y)
    G = np.einsum("aP,bP,P->ab", frame, np.conj(frame), weight) / frame.shape[1]
    return norm * G


def lattice_weight_identity(p, z, lattice_index):
    """Relative residual of h(z + lam) = h(z) / |e_lam(z)|^2.

    ``lattice_index`` below n picks an x-direction basis vector (where the
    multiplier is 1 and h is periodic); n + i picks the Z-direction Ze_i.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    def h_of_z(zz):
        y = p.Yinv @ zz.imag
        return hermitian_weight(p, y)

    shift, b = _lattice_vector(p, lattice_index)
    mult = multiplier(p, b, z)
    lhs = h_of_z(z + shift)
    rhs = h_of_z(z) / abs(mult) ** 2
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def cocycle_residual(p, z, index1, index2):
    """Relative defect of e_{lam+lam'}(z) = e_{lam'}(z + lam) e_lam(z)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lam1, b1 = _lattice_vector(p, index1)
    _, b2 = _lattice_vector(p, index2)
    combined = multiplier(p, b1 + b2, z)
    product = multiplier(p, b2, z + lam1) * multiplier(p, b1, z)
    return abs(combined - product) / max(abs(combined), 1e-300)
