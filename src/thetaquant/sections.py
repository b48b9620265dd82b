"""Concrete sections of the level-k bundle and their L2 geometry.

Sections are coefficient vectors over the theta frame (lexicographic label
order).  Inner products are integrals over the unit cell [0,1)^{2n} in the
real coordinates (x, y), z = x + Zy,

    (s1, s2) = int s1(z) conj(s2(z)) exp(-2 pi k y.Yy) dx dy,

computed by the equal-weight rule on a uniform grid, which is spectrally
accurate here because the integrand is lattice periodic.  The grid frame
holds theta_a(x + Zy) exp(-pi k y.Yy), half the weight per factor, built
from lattice terms of modulus at most 1, so it cannot overflow; every
integral is one pairing of that frame with itself under a grid weight.
The normalized variant multiplies by sqrt(2^n k^n det Y), making the theta
frame orthonormal.  Grid sizes follow the bandwidth rule
N >= 4 (k R + m_max) with R the theta truncation radius and m_max the
largest extra Fourier frequency in the integrand; frames larger than
MAX_FRAME_BYTES are refused before allocation.
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
    "SizeLimitError",
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
MAX_FRAME_BYTES = 1 << 30  # largest grid frame a quadrature may allocate
_PAIRING_BLOCK = 1 << 15  # grid columns per block of a frame pairing


class GridError(ValueError):
    """Raised when a quadrature grid is too coarse for the integrand."""


class SizeLimitError(ValueError):
    """Raised, before allocation, for an array above its fixed size limit."""


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
    """Uniform grid with N nodes per coordinate on [0,1)^{2n}.

    ``epsilon`` is the theta truncation tolerance the grid is meant for: the
    bandwidth check and the grid frame both use it.
    """

    N: int
    n: int
    epsilon: float = DEFAULT_EPSILON

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
    return QuadratureGrid(required_grid_size(p, k, m_max, epsilon), p.n, epsilon)


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


def theta_frame_on_grid(p, k, grid):
    """Theta frame on the uniform grid, weighted by exp(-pi k y.Yy).

    Returns an array of shape (k^n, N^{2n}) whose row a holds
    theta_a(x + Zy) exp(-pi k y.Yy) with the grid axes flattened row-major
    in the order (x_1..x_n, y_1..y_n).  With u = l + a/k, each lattice term
    splits into the unit phase exp(2 pi i k u.x) and the y-part

        exp(i pi k [(u+y).Z(u+y) - y.Xy]),

    one exponential of modulus exp(-pi k (u+y).Y(u+y)) <= 1, so no level
    overflows.  The frame is one batched product of the two parts over l,
    truncated at the grid's epsilon.
    """
    n, N = p.n, grid.N
    half = int(math.ceil(truncation_radius(p, k, grid.epsilon).radius)) + 1
    shifts = (np.indices((2 * half + 1,) * n).reshape(n, -1) - half).T
    labels = np.indices((k,) * n).reshape(n, -1).T
    ku = k * shifts[None, :, :] + labels[:, None, :]  # k u, integer
    nodes = np.indices((N,) * n).reshape(n, -1).T  # node j sits at t = j/N
    x_part = np.exp(2j * np.pi * ((ku @ nodes.T) % N) / N)
    t = nodes / N
    v = ku[:, :, None, :] / k + t  # u + y
    exponent = np.einsum("alpi,ij,alpj->alp", v, p.Z, v) - np.einsum(
        "pi,ij,pj->p", t, p.X, t
    )
    y_part = np.exp(1j * np.pi * k * exponent)
    return np.matmul(x_part.transpose(0, 2, 1), y_part).reshape(k**n, -1)


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
    need = required_grid_size(p, k, m_max, grid.epsilon)
    if grid.n != p.n:
        raise GridError(f"grid dimension {grid.n} != point dimension {p.n}")
    if grid.N < need:
        raise GridError(
            f"grid too coarse: N={grid.N}, bandwidth rule needs N >= {need}"
        )
    size = k**p.n * grid.N ** (2 * p.n) * 16
    if size > MAX_FRAME_BYTES:
        raise GridError(
            f"grid frame needs {size / 2**30:.1f} GiB at N={grid.N}, "
            f"above the {MAX_FRAME_BYTES / 2**30:g} GiB limit"
        )


def _frame_norm(p, k):
    """sqrt(2^n k^n det Y): the constant that makes the theta frame orthonormal."""
    return math.sqrt(2**p.n * k**p.n * p.det_Y)


def _frame_pairings(p, k, grid, weights):
    """Normalized frame pairings, one k^n x k^n matrix per grid weight w.

    Entry (a, b) is _frame_norm times the grid mean of
    theta_a conj(theta_b) exp(-2 pi k y.Yy) w.  Each w is a scalar or an
    array over the flattened grid; the sum runs over column blocks, so the
    frame is the only array of its size.
    """
    frame = theta_frame_on_grid(p, k, grid)
    scale = _frame_norm(p, k) / frame.shape[1]
    out = []
    for w in weights:
        w = np.broadcast_to(w, frame.shape[1:])
        total = np.zeros((frame.shape[0],) * 2, dtype=complex)
        for start in range(0, frame.shape[1], _PAIRING_BLOCK):
            block = frame[:, start : start + _PAIRING_BLOCK]
            total += (block * w[start : start + _PAIRING_BLOCK]) @ block.conj().T
        out.append(scale * total)
    return out


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
    G = _frame_pairings(p, k, grid, [1.0])[0]
    value = s1.coeffs @ G @ np.conj(s2.coeffs)
    if not normalized:
        value /= _frame_norm(p, k)
    return complex(value)


def gram_matrix(p, k, grid):
    """Matrix of normalized frame inner products; Hermitian, close to Id."""
    _check_grid(p, k, grid)
    return _frame_pairings(p, k, grid, [1.0])[0]


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
