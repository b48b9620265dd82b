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
mod N.  In that product the y-phases cancel and the Gaussians sit on one
fine lattice of step gcd(k, N)/(kN): it is evaluated once per node, and
for each offset d = r mod N between the frequencies the products of all
labels are folded by strided sums and one FFT over the y-nodes.  Memory
is O(box + k^n N^n) for a box of about (k N (L + 1) / gcd(k, N))^n nodes
over a window of L^n lattice terms, plus the k^n x k^n outputs; the k^n x N^{2n}
frame itself is built only on request.  The normalized variant multiplies
by sqrt(2^n k^n det Y), making the theta frame orthonormal.  Grid sizes
follow the bandwidth rule N >= 4 (k R + m_max) with R the theta truncation
radius and m_max the largest extra Fourier frequency in the integrand;
grids whose pairings would hold more than the 1 GiB limit of
:func:`fourier.check_bytes` are refused, with SizeLimitError, before
anything is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierMode, SizeLimitError, check_bytes
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


class GridError(ValueError):
    """Raised when a quadrature grid is too coarse for the integrand, or
    its dimension differs from the point's."""


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


def section_eval(p, s, x, y):
    """Value of the section at real coordinates (x, y), via z = x + Zy."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = x + p.Z @ y
    labels = theta_basis(s.k, s.n)
    policy = truncation_radius(p, s.k, DEFAULT_EPSILON)
    total = 0.0 + 0.0j
    for c, lab in zip(s.coeffs, labels):
        if c != 0:
            total += c * theta_eval(p, lab, z, Derivative.value(), policy)
    return total


def _index_vectors(n, N):
    """The integer vectors of [0, N)^n, one per row, in row-major order."""
    return np.indices((N,) * n).reshape(n, -1).T


@dataclass(frozen=True)
class _FineLattice:
    """The Gaussian of every lattice term of the grid frame, once per node.

    Lattice term (a, l) of the frame has u = l + a/k with l in the window
    [-half, half]^n, so k u = k l + a runs over ``width`` = k (2 half + 1)
    consecutive integers from -k half on each axis.  With g = gcd(k, N), its
    node u + y at the y-node q, y = q/N, is c g/(kN) on each axis for the
    integer c = (N/g) k u + (k/g) q, and

        G[c - c_min] = exp(i pi k v.Zv),   v = c g/(kN),

    over the box of c, of modulus exp(-pi k v.Yv) <= 1, so no level
    overflows.  The terms meet every node g^n times, and G evaluates it once.
    """

    k: int
    N: int
    G: np.ndarray
    width: int  # k u - min k u runs over [0, width) on each axis
    step_u: int  # N/g, the step of c per unit of k u
    step_y: int  # k/g, the step of c per y-node

    @staticmethod
    def box_size(k, N, width):
        """Nodes of the box on each axis."""
        g = math.gcd(k, N)
        return (N // g) * (width - 1) + (k // g) * (N - 1) + 1

    @classmethod
    def build(cls, p, k, grid):
        """G over the truncation window of the grid's epsilon."""
        n, N = p.n, grid.N
        half = _window_half(p, k, grid)
        width = k * (2 * half + 1)
        g = math.gcd(k, N)
        size = cls.box_size(k, N, width)
        v = (np.arange(size) - (N // g) * k * half) / ((k // g) * N)
        axes = np.ix_(*(v,) * n)
        G = np.zeros((size,) * n, dtype=complex)
        for i in range(n):
            for j in range(n):
                G += (1j * np.pi * k * p.Z[i, j] * axes[i]) * axes[j]
        np.exp(G, out=G)
        return cls(k, N, G, width, N // g, k // g)

    def terms(self, box, first, shape):
        """A view of ``box``, G or a product on a sub-box of it, at the
        terms (a, j, q): label a in row j of the window at the y-node q, at
        c = (N/g)(k j + a) + (k/g) q past the offsets ``first`` on each axis.
        ``shape`` is (labels..., rows..., y-nodes...)."""
        st = box.strides
        strides = (
            tuple(self.step_u * s for s in st)
            + tuple(self.k * self.step_u * s for s in st)
            + tuple(self.step_y * s for s in st)
        )
        start = box[tuple(slice(c, None) for c in first)]
        return np.lib.stride_tricks.as_strided(start, shape, strides, writeable=False)

    def fold(self, d, out):
        """Add S_d[a, q] = sum_j G[c] conj(G[c + (N/g) d]) over the terms
        (a, j) at the y-node q whose partner k u + d lies in the window.

        ``out`` has shape (k,)*n + (N,)*n.  The product is formed once on
        the sub-box of those terms, and each run of labels sharing its rows
        (:func:`_label_runs`) is summed over the rows as one strided view.
        """
        k, N, step_u = self.k, self.N, self.step_u
        n = self.G.ndim
        left, right = [], []
        for di in d:
            c0 = step_u * max(0, -di)
            c1 = step_u * (self.width - 1 - max(0, di)) + self.step_y * (N - 1) + 1
            left.append(slice(c0, c1))
            right.append(slice(c0 + step_u * di, c1 + step_u * di))
        product = np.conj(self.G[tuple(right)])
        product *= self.G[tuple(left)]
        rows = self.width // k
        for runs in itertools.product(*(_label_runs(k, rows, di) for di in d)):
            first = [
                step_u * (k * j0 + a0 - max(0, -di))
                for (a0, _, j0, _), di in zip(runs, d)
            ]
            shape = (
                tuple(a1 - a0 for a0, a1, _, _ in runs)
                + tuple(j1 - j0 for _, _, j0, j1 in runs)
                + (N,) * n
            )
            summed = self.terms(product, first, shape).sum(axis=tuple(range(n, 2 * n)))
            out[tuple(slice(a0, a1) for a0, a1, _, _ in runs)] += summed


def _window_half(p, k, grid):
    """Half-width of the lattice window: l runs over [-half, half]^n."""
    return int(math.ceil(truncation_radius(p, k, grid.epsilon).radius)) + 1


def _label_runs(k, rows, d):
    """Labels of one axis in runs that share their rows with a partner.

    Term (a, j) of the window, k u - min k u = k j + a with j in
    [0, rows), meets k u + d = k (j + e) + a + f, e = d // k and
    f = d mod k: the label a + f mod k in row j + e, one row further when
    a + f >= k.  Returns (a0, a1, j0, j1) for the label runs [0, k - f)
    and [k - f, k), with [j0, j1) the rows j whose partner row is a row of
    the window, and skips a run without one.
    """
    e, f = divmod(d, k)
    runs = []
    for a0, a1, shift in ((0, k - f, e), (k - f, k, e + 1)):
        j0, j1 = max(0, -shift), min(rows, rows - shift)
        if a1 > a0 and j1 > j0:
            runs.append((a0, a1, j0, j1))
    return runs


def _lattice_terms(p, k, grid):
    """The lattice terms of the grid frame: integer frequencies and y-parts.

    With u = l + a/k over the truncation window of l, returns ``ku`` of
    shape (k^n, L, n), the integer vectors k u, and ``Y`` of shape
    (k^n, L, N^n) with

        Y[a, l, q] = exp(i pi k [(u+y).Z(u+y) - y.Xy]),  y = q/N,

    the Gaussian of :class:`_FineLattice` at the term's node times the
    y-phase, of modulus at most 1.  Lattice term l of
    theta_a(x + Zy) exp(-pi k y.Yy) is exp(2 pi i k u.x) Y[a, l, y].
    """
    n, N = p.n, grid.N
    fine = _FineLattice.build(p, k, grid)
    L = fine.width // k
    shifts = _index_vectors(n, L) - L // 2
    ku = k * shifts[None, :, :] + _index_vectors(n, k)[:, None, :]
    gaussian = fine.terms(fine.G, (0,) * n, (k,) * n + (L,) * n + (N,) * n)
    t = _index_vectors(n, N) / N
    y_phase = np.exp(-1j * np.pi * k * np.einsum("pi,ij,pj->p", t, p.X, t))
    return ku, gaussian.reshape(k**n, L**n, N**n) * y_phase


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


def integrand_periodicity_residual(p, s1, s2):
    """Max relative defect of unit shifts of the inner-product integrand.

    The integrand s1 conj(s2) exp(-2 pi k y.Yy) must be 1-periodic in every
    one of the 2n coordinates; this certifies lattice invariance, at the
    probe x = 0.3, y = 0.7 in every coordinate, before any quadrature is
    trusted.
    """

    def integrand(x, y):
        y = np.asarray(y, dtype=float)
        v = section_eval(p, s1, x, y) * np.conj(section_eval(p, s2, x, y))
        return v * hermitian_weight(p, y) ** s1.k

    n = p.n
    x0 = np.full(n, 0.3)
    y0 = np.full(n, 0.7)
    base = integrand(x0, y0)
    scale = max(abs(base), 1e-300)
    worst = 0.0
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        worst = max(worst, abs(integrand(x0 + e, y0) - base) / scale)
        worst = max(worst, abs(integrand(x0, y0 + e) - base) / scale)
    return worst


def _pairing_bytes(p, k, grid, n_modes):
    """Bytes :func:`_frame_pairings` holds at once for ``n_modes`` modes.

    The Gaussian box and one product on it, the folded sums with one run's
    sum and their spectra, k^n N^n each, and the k^n x k^n outputs.
    """
    n, N = p.n, grid.N
    width = k * (2 * _window_half(p, k, grid) + 1)
    box = _FineLattice.box_size(k, N, width) ** n
    return 16 * (2 * box + 3 * (k * N) ** n + n_modes * k ** (2 * n))


def _check_grid(p, k, grid, m_max=0, n_modes=1):
    """Refuse a grid that cannot carry the quadrature of a level-k integrand.

    Raises GridError when the grid's dimension differs from the point's or
    when N is below the bandwidth rule for extra frequencies up to m_max,
    and SizeLimitError, before anything is allocated, when the arrays the
    pairings of ``n_modes`` modes hold would exceed the 1 GiB limit.
    """
    need = required_grid_size(p, k, m_max, grid.epsilon)
    if grid.n != p.n:
        raise GridError(f"grid dimension {grid.n} != point dimension {p.n}")
    if grid.N < need:
        raise GridError(
            f"grid too coarse: N={grid.N}, bandwidth rule needs N >= {need}"
        )
    check_bytes(_pairing_bytes(p, k, grid, n_modes), "quadrature", f"N={grid.N}")


def _frame_norm(p, k):
    """sqrt(2^n k^n det Y): the constant that makes the theta frame orthonormal."""
    return math.sqrt(2**p.n * k**p.n * p.det_Y)


def _frame_pairings(p, k, grid, modes):
    """Normalized frame pairings, one k^n x k^n matrix per Fourier mode.

    Entry (a, b) for the mode m = (r, s) is _frame_norm times the grid mean
    of theta_a conj(theta_b) exp(-2 pi k y.Yy) F_m over the N^{2n} nodes.
    The x-sum is done exactly: sum_j exp(2 pi i q.j / N) is N^n when
    q = 0 mod N and 0 otherwise, so lattice term (a, l) meets term (b, l')
    only when k u_{b,l'} = k u_{a,l} + d for an integer vector d = r mod N;
    every such d in the window is kept, aliased ones too.  The y-phases
    cancel in the product of the two terms, which is then
    G[c] conj(G[c + (N/g) d]) on the fine lattice of :class:`_FineLattice`.
    For each d that product is formed once on the box, and the terms of
    every label a are summed over the window rows whose partner lies in the
    window, by strided views (:meth:`_FineLattice.fold`), to S_d[a, q] with
    b = a + d mod k.  Offsets with the same d mod k share b and one folded
    array, and one inverse FFT over q of it gives the y-sums against
    exp(2 pi i s.y) for every s of the modes sharing r.  Memory is
    O(box + k^n N^n) plus the outputs (:func:`_pairing_bytes`); no array of
    N^{2n} nodes and no array over the meeting pairs is formed.
    """
    n, N = p.n, grid.N
    fine = _FineLattice.build(p, k, grid)
    width = fine.width
    dim = k**n
    a_index = np.arange(dim)
    labels = _index_vectors(n, k)
    norm = _frame_norm(p, k)
    by_r = {}
    for i, m in enumerate(modes):
        by_r.setdefault(m.r, []).append(i)
    out = [np.zeros((dim, dim), dtype=complex) for _ in modes]
    for r, members in by_r.items():
        # the offsets d = r mod N with |d| < width on each axis, grouped by
        # d mod k, which fixes the partner label b = a + d mod k
        offsets = itertools.product(
            *(range((ri + width - 1) % N - width + 1, width, N) for ri in r)
        )
        by_shift = {}
        for d in offsets:
            by_shift.setdefault(tuple(di % k for di in d), []).append(d)
        for shift, group in by_shift.items():
            folded = np.zeros((k,) * n + (N,) * n, dtype=complex)
            for d in group:
                fine.fold(d, folded)
            spectra = np.fft.ifftn(folded, axes=tuple(range(n, 2 * n)))
            b_index = np.ravel_multi_index(((labels + shift) % k).T, (k,) * n)
            for i in members:
                s = tuple(si % N for si in modes[i].s)
                out[i][a_index, b_index] += norm * spectra[(Ellipsis, *s)].ravel()
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
