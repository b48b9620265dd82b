"""Concrete sections of the level-k bundle and their L2 geometry.

Sections are coefficient vectors over the theta frame (lexicographic label
order).  Inner products are integrals over the unit cell [0,1)^{2n} in the
real coordinates (x, y), z = x + Zy,

    (s1, s2) = int s1(z) conj(s2(z)) exp(-2 pi k y.Yy) dx dy,

computed by the equal-weight rule on a uniform grid, which is spectrally
accurate here because the integrand is lattice periodic.  The weighted
frame theta_a(x + Zy) exp(-pi k y.Yy), half the weight per factor, is a sum
of lattice terms exp(2 pi i k u.x) Y(u, y), each of modulus at most 1, so
it cannot overflow.  Every integral pairs that frame with itself under a
Fourier mode F_{r,s}; the x-sum of the pairing is exact by the
orthogonality of the grid characters, which leaves a sum over the N^n
y-nodes for each pair of lattice terms whose frequencies k u + r meet
mod N.  Memory is O(k^n L^n N^n) for a window of L^n lattice terms; the
k^n x N^{2n} frame itself is built only on request.  The normalized variant multiplies by sqrt(2^n k^n det Y),
making the theta frame orthonormal.  Grid sizes follow the bandwidth rule
N >= 4 (k R + m_max) with R the theta truncation radius and m_max the
largest extra Fourier frequency in the integrand; grids whose full frame
would exceed MAX_FRAME_BYTES are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierMode
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
MAX_FRAME_BYTES = 1 << 30  # largest k^n N^{2n} frame a quadrature grid may imply


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


def _index_vectors(n, N):
    """The integer vectors of [0, N)^n, one per row, in row-major order."""
    return np.indices((N,) * n).reshape(n, -1).T


def _lattice_terms(p, k, grid):
    """The lattice terms of the grid frame: integer frequencies and y-parts.

    With u = l + a/k over the truncation window of l, returns ``ku`` of
    shape (k^n, L, n), the integer vectors k u, and ``Y`` of shape
    (k^n, L, N^n) with

        Y[a, l, q] = exp(i pi k [(u+y).Z(u+y) - y.Xy]),  y = q/N,

    one exponential of modulus exp(-pi k (u+y).Y(u+y)) <= 1, so no level
    overflows.  Lattice term l of theta_a(x + Zy) exp(-pi k y.Yy) is
    exp(2 pi i k u.x) Y[a, l, y].
    """
    n = p.n
    half = int(math.ceil(truncation_radius(p, k, grid.epsilon).radius)) + 1
    shifts = _index_vectors(n, 2 * half + 1) - half
    ku = k * shifts[None, :, :] + _index_vectors(n, k)[:, None, :]
    t = _index_vectors(n, grid.N) / grid.N  # y-node q sits at q/N
    v = ku[:, :, None, :] / k + t  # u + y
    exponent = np.einsum("alpi,ij,alpj->alp", v, p.Z, v) - np.einsum(
        "pi,ij,pj->p", t, p.X, t
    )
    return ku, np.exp(1j * np.pi * k * exponent)


def theta_frame_on_grid(p, k, grid):
    """Theta frame on the uniform grid, weighted by exp(-pi k y.Yy).

    Returns an array of shape (k^n, N^{2n}) whose row a holds
    theta_a(x + Zy) exp(-pi k y.Yy) with the grid axes flattened row-major
    in the order (x_1..x_n, y_1..y_n): the x-synthesis
    sum_l exp(2 pi i (k u.j mod N) / N) Y[a, l, y] of the lattice terms of
    :func:`_lattice_terms`, truncated at the grid's epsilon.  The
    quadratures do not build it; it serves inspection and tests.
    """
    N = grid.N
    ku, y_part = _lattice_terms(p, k, grid)
    x_part = np.exp(2j * np.pi * ((ku @ _index_vectors(p.n, N).T) % N) / N)
    return np.matmul(x_part.transpose(0, 2, 1), y_part).reshape(k**p.n, -1)


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
    """Refuse a grid that cannot carry the quadrature of a level-k integrand.

    Raises GridError when the grid's dimension differs from the point's,
    when N is below the bandwidth rule for extra frequencies up to m_max, or
    when the full k^n x N^{2n} grid frame would exceed MAX_FRAME_BYTES.  The
    pairings never build that frame, but the size limit is kept as the
    bound on the grids the quadratures accept.
    """
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


def _frame_pairings(p, k, grid, modes):
    """Normalized frame pairings, one k^n x k^n matrix per Fourier mode.

    Entry (a, b) for the mode m = (r, s) is _frame_norm times the grid mean
    of theta_a conj(theta_b) exp(-2 pi k y.Yy) F_m over the N^{2n} nodes.
    The x-sum is done exactly: sum_j exp(2 pi i q.j / N) is N^n when
    q = 0 mod N and 0 otherwise, so lattice term (a, l) meets term (b, l')
    only when k u_{a,l} + r = k u_{b,l'} mod N, every such collision kept.
    What remains is a sum over the N^n y-nodes of Y[a,l] conj(Y[b,l'])
    exp(2 pi i s.y), taken for all modes sharing r in one product and
    scattered into (a, b).  No array of N^{2n} nodes is formed.
    """
    n, N = p.n, grid.N
    ku, y_part = _lattice_terms(p, k, grid)
    dim = ku.shape[0]
    label = np.repeat(np.arange(dim), ku.shape[1])
    ku = ku.reshape(-1, n)
    y_part = y_part.reshape(len(ku), -1)
    y_conj = y_part.conj()
    nodes = _index_vectors(n, N)
    # the residue k u mod N of every term, sorted, to find partners by bisection
    target = np.ravel_multi_index((ku % N).T, (N,) * n)
    order = np.argsort(target, kind="stable")
    target = target[order]
    scale = _frame_norm(p, k) / N**n
    by_r = {}
    for i, m in enumerate(modes):
        by_r.setdefault(m.r, []).append(i)
    out = [None] * len(modes)
    for r, members in by_r.items():
        key = np.ravel_multi_index(((ku + r) % N).T, (N,) * n)
        lo = np.searchsorted(target, key, "left")
        count = np.searchsorted(target, key, "right") - lo
        # one (left, right) row per meeting pair: term left with every
        # term right in its run target[lo : lo + count]
        left = np.repeat(np.arange(len(key)), count)
        start = np.cumsum(count) - count
        right = order[np.arange(count.sum()) - np.repeat(start - lo, count)]
        s = np.array([modes[i].s for i in members])
        phases = np.exp(2j * np.pi * ((nodes @ s.T) % N) / N)
        terms = y_part[left]
        terms *= y_conj[right]
        total = np.zeros((dim * dim, len(members)), dtype=complex)
        np.add.at(total, label[left] * dim + label[right], terms @ phases)
        for column, i in enumerate(members):
            out[i] = scale * total[:, column].reshape(dim, dim)
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
    G = gram_matrix(p, k, grid)
    value = s1.coeffs @ G @ np.conj(s2.coeffs)
    if not normalized:
        value /= _frame_norm(p, k)
    return complex(value)


def gram_matrix(p, k, grid):
    """Matrix of normalized frame inner products; Hermitian, close to Id."""
    _check_grid(p, k, grid)
    zero = FourierMode((0,) * p.n, (0,) * p.n)
    return _frame_pairings(p, k, grid, [zero])[0]


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
