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
mod N.  A grid is a multiple of k, so in that product the y-phases cancel
and the Gaussians sit on one fine lattice of step 1/N: it is evaluated once
per node, and for each offset d = r mod N between the frequencies the
products of all labels are folded by strided sums and inverse FFTs over the
y-nodes.  Every offset of one r_i has d = r_i mod k, and so the one partner
label b = a + r mod k: the offsets of r_i form one offset group.
At a diagonal Z (always at n = 1) the Gaussian, and so every fold and
transform, is a product over the axes: each axis is folded on its own axis
of the box, of about N (L + 1) nodes over a window of L^n lattice terms,
the offset group of every distinct r_i of the modes once, into one table of
(k, N) rows that one inverse FFT transforms; the tables are gathered and
freed before the pairings are formed.  Any other Z folds the box of n axes
one distinct r at a time into (k,)^n + (N,)^n arrays, in O(box + k^n N^n).
Every fold of a lattice writes its products into one reused buffer.  The
pairings are kept on their support: a mode pairs label a with its one
partner label, so each mode is one row of k^n values and k^n partner
labels, and the Gram's and the closed form's deviations are taken over
those rows (:func:`_pairing_deviation`).  Only the dense callers,
:func:`gram_matrix` and ``toeplitz.toeplitz_modes_quadrature``, scatter the
rows into k^n x k^n matrices (:func:`_dense_pairings`).  The k^n x N^{2n}
frame itself is built only on request.  The normalized variant multiplies
by sqrt(2^n k^n det Y), making the theta frame orthonormal.  A grid is its
node count N; theta sums are truncated at DEFAULT_EPSILON.  Each quadrature
cell is sized once, by one plan (:func:`_plan`): the truncation radius R
and the lattice window, the bandwidth rule N >= 4 (k R + m_max) in x,
m_max the largest frequency of the modes, raised where the y-Gaussians of
a large Y would alias and rounded up to a multiple of k
(:func:`required_grid_size`), the grid's N, refused unless it is a
multiple of k too, the path (axis fold or box), each axis's offset groups
and the bytes the pairings hold.  The lattices, the folds and the byte
figure read the plan and recompute none of it.  Every quadrature passes
one check on its plan (:func:`_checked_plan`): n is 1 or 2, N is at least
the rule, and pairings that would hold more than the 1 GiB limit of
:func:`fourier.check_bytes`, with the dense matrices of a dense caller,
are refused, with SizeLimitError, before anything is allocated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .fourier import SizeLimitError, _mode_arrays, _mode_table, check_bytes
from .theta import (
    DEFAULT_EPSILON,
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
    "section_eval",
    "theta_frame_on_grid",
    "l2_inner",
    "gram_matrix",
    "gram_deviation",
    "integrand_periodicity_residual",
    "lattice_weight_identity",
    "cocycle_residual",
]


class GridError(ValueError):
    """Raised when a quadrature grid is too coarse for the integrand or not
    a multiple of the level k, or the point's dimension is not 1 or 2."""


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

    def __add__(self, other):
        if (other.k, other.n) != (self.k, self.n):
            raise ValueError("section levels differ")
        return SectionVector(self.k, self.n, self.coeffs + other.coeffs)

    def __rmul__(self, scalar):
        return SectionVector(self.k, self.n, scalar * self.coeffs)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid with N nodes per coordinate on [0,1)^{2n}, n the
    dimension of the point it is used at."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")


def required_grid_size(p, k, m_max=0):
    """Bandwidth-sufficient node count: :func:`_grid_rule` at the certified
    truncation radius, as every quadrature plan sizes its grid.  It is a
    multiple of k, as every grid a quadrature folds must be."""
    return _grid_rule(p, k, m_max, truncation_radius(p, k, DEFAULT_EPSILON).radius)


def _grid_rule(p, k, m_max, radius):
    """The smallest multiple of k at or above the x-rule 4 (k ceil(R) +
    m_max), R the theta truncation ``radius``, or, if the x-rule's certified
    y-aliasing tail (:func:`_y_alias_tail`) is not below DEFAULT_EPSILON, at
    or above the smallest N whose tail is.

    More nodes only lower the aliasing, and the tail falls as N grows, so
    rounding up keeps the certificate.  With k | N every offset
    d = r_i + N e of one axis has d = r_i mod k, so each r_i has one offset
    group, and the fine lattice of :class:`_FineLattice` has step 1/N.
    """
    N = 4 * (k * int(math.ceil(radius)) + int(m_max))

    def certified(N):
        return _y_alias_tail(p, k, m_max, N, DEFAULT_EPSILON) < DEFAULT_EPSILON

    if not certified(N):
        # the tail falls as N grows: double past it, then bisect
        lo, hi = N, 2 * N
        while not certified(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if certified(mid) else (mid, hi)
        N = hi
    return -(-N // k) * k


def _shell(n, t):
    """Integer vectors of sup norm t in dimension n."""
    return (2 * t + 1) ** n - (2 * t - 1) ** n if t else 1


def _y_alias_tail(p, k, m_max, N, epsilon):
    """Certified bound on the y-aliasing error of the N-node rule, normalized.

    Lattice terms u and u + d/k of the pairing under the mode (r, s) meet
    only for d = r + N e, e integer, since the x-sum is exact; they meet in
    the y-Gaussian exp(-2 pi k w.Yw), w = u + y + d/(2k), of weight
    exp(-pi d.Yd/(2k)) at the y-frequency s - X d.  Unfolded over the
    lattice, the N-node y-sum of its normalized transform, which decays as
    exp(-pi xi.Y^-1 xi/(2k)), aliases at the frequencies N j, j != 0.  With
    a = pi/(2k lmax) and b = pi lmin/(2k), lmin and lmax the extreme
    eigenvalues of Y (lmax <= tr Y - (n - 1) lmin, exact for n <= 2), the
    error is at most, shell by shell in the sup norms t of e and t_j of j,

        A(S_0) + sum_{t >= 1} |shell t| exp(-b (N t - m_max)^2) A(S_t),
        A(S) = sum_{t_j >= 1} |shell t_j| exp(-a max(0, t_j N - S)^2),

    where S_t = sqrt(n) (m_max (1 + |X|_F) + |X|_F N t) bounds |s - X d|.
    The shells t_j N <= S count (2 floor(S/N) + 1)^n - 1 at factor 1; each
    sum stops past its peak once a term is below epsilon 1e-8, as in
    truncation_radius.
    """
    n, lmin = p.n, p.min_eig_Y
    lmax = sum(p.Y.diagonal().tolist()) - (n - 1) * lmin
    a, b = math.pi / (2 * k * lmax), math.pi * lmin / (2 * k)
    x_norm = math.sqrt(sum(x * x for x in p.X.ravel().tolist()))

    def alias(t):
        S = math.sqrt(n) * (m_max * (1 + x_norm) + x_norm * N * t)
        inside = math.floor(S / N)
        total = (2 * inside + 1) ** n - 1
        for tj in itertools.count(inside + 1):
            gap = tj * N - S
            term = _shell(n, tj) * math.exp(-a * gap * gap)
            total += term
            if term < epsilon * 1e-8 and 2 * a * N * gap * tj >= n - 1:
                return total

    tail = alias(0)
    for t in itertools.count(1):
        gap = max(0.0, N * t - m_max)
        term = _shell(n, t) * math.exp(-b * gap * gap) * alias(t)
        tail += term
        if term < epsilon * 1e-8:
            return tail


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
    consecutive integers from -k half on each axis.  The grid's N is a
    multiple of k (:func:`_plan`), so its node u + y at the y-node q,
    y = q/N, is c/N on each axis for the integer c = (N/k) k u + q, and

        G[c - c_min] = exp(i pi k v.Zv),   v = c/N,

    over the box of c, of modulus exp(-pi k v.Yv) <= 1, so no level
    overflows.  The terms meet every node k^n times, and G evaluates it once.
    At a diagonal Z, exp(i pi k v.Zv) = prod_i exp(i pi k Z_ii v_i^2), and
    :meth:`axes` gives one lattice of one axis per factor, on which the
    quadrature folds; :meth:`build` gives the box of n axes.  G is
    contiguous; :meth:`terms` reads it through read-only strided views, and
    :meth:`fold` reads its products so in one buffer per lattice.
    """

    k: int
    N: int
    G: np.ndarray
    width: int  # k u - min k u runs over [0, width) on each axis
    step_u: int  # N/k, the step of c per unit of k u; a y-node steps c by 1

    @staticmethod
    def box_size(k, N, width):
        """Nodes of the box on each axis."""
        return (N // k) * (width - 1) + N

    @classmethod
    def _axis(cls, plan):
        """The box's axis for the window and grid of ``plan``:
        v = (c - N half)/N at its node c."""
        N = plan.N
        return (np.arange(cls.box_size(plan.k, N, plan.width)) - N * plan.half) / N

    @classmethod
    def axes(cls, plan):
        """One lattice per axis i of a diagonal Z (the plan's axis path): G_i is
        the factor exp(i pi k Z_ii v^2) on the box's axis, over the window of
        the n-dimensional truncation, and the box is their outer product."""
        p, k, N = plan.p, plan.k, plan.N
        v = cls._axis(plan)
        lattices = []
        for i in range(p.n):
            t = (1j * np.pi * k * p.Z[i, i] * v) * v
            lattices.append(cls(k, N, np.exp(t, out=t), plan.width, N // k))
        return lattices

    @classmethod
    def build(cls, plan):
        """G over the lattice window of the plan's truncation.

        On the axis path of a diagonal Z (always at n = 1) G is the outer
        product of the axis factors of :meth:`axes`; otherwise the exponent
        is assembled in place, the axis terms (i pi k Z_ii v) v added to the
        cross term i pi k (Z_01 + Z_10) v v' on the box, and exponentiated in
        place: a separate cross factor would overflow at a non-diagonal Y,
        where the axis factors underflow.
        """
        if plan.diagonal:
            axes = cls.axes(plan)
            return replace(axes[0], G=reduce(np.multiply.outer, [f.G for f in axes]))
        p, k, N = plan.p, plan.k, plan.N
        v = cls._axis(plan)
        G = np.multiply.outer(1j * np.pi * k * (p.Z[0, 1] + p.Z[1, 0]) * v, v)
        G += ((1j * np.pi * k * p.Z[0, 0] * v) * v)[:, None]
        G += (1j * np.pi * k * p.Z[1, 1] * v) * v
        np.exp(G, out=G)
        return cls(k, N, G, plan.width, N // k)

    def terms(self, box, first, shape):
        """A read-only view of ``box``, G or a product on a sub-box of it (a
        contiguous array), at the terms (a, j, q): label a in row j of the
        window at the y-node q, at c = (N/k)(k j + a) + q past the
        offsets ``first`` on each axis.  ``shape`` is (labels..., rows...,
        y-nodes...)."""
        offset = sum(c * s for c, s in zip(first, box.strides))
        view = np.ndarray(shape, box.dtype, box, offset, self._term_strides(box))
        view.flags.writeable = False
        return view

    def _term_strides(self, box):
        """The strides of the terms (a, j, q) on ``box``, as :meth:`terms`
        lays them out: (N/k, N, 1) nodes per label, row and y-node."""
        steps = (self.step_u, self.N, 1)
        return tuple(step * s for step in steps for s in box.strides)

    @cached_property
    def _product(self):
        """The one product buffer of the lattice, reused by every fold, and
        its term strides: shaped as the box, the largest sub-box (d = 0),
        whose every sub-box is a view from its first node."""
        buffer = np.empty_like(self.G)
        return buffer, self._term_strides(buffer)

    def fold(self, d, out, add=True):
        """Sum S_d[a, q] = sum_j G[c] conj(G[c + (N/k) d]) over the terms
        (a, j) at the y-node q whose partner k u + d lies in the window into
        ``out``: added to it, or, with ``add`` False (the first offset of a
        group), written over its zeros.

        ``out`` has shape (k,)*n + (N,)*n.  The product is formed once on
        the sub-box of those terms, in the lattice's one product buffer, and
        each run of labels sharing its rows (:func:`_label_runs`) is summed
        over the rows as one strided view by ``np.add.reduce``, straight into
        ``out`` when ``add`` is False.
        """
        k, N, su, width = self.k, self.N, self.step_u, self.width
        rows = width // k
        left, right, sub = [], [], []
        for di in d:
            c0 = su * max(0, -di)
            c1 = su * (width - 1 - max(0, di)) + N
            left.append(slice(c0, c1))
            right.append(slice(c0 + su * di, c1 + su * di))
            sub.append(c1 - c0)
        buffer, strides = self._product
        product = buffer[tuple(slice(0, c) for c in sub)]
        np.conjugate(self.G[tuple(right)], out=product)
        product *= self.G[tuple(left)]
        n = len(d)
        row_axes, y_nodes = tuple(range(n, 2 * n)), (N,) * n
        for runs in itertools.product(*(_label_runs(k, rows, di) for di in d)):
            index, labels, counts, first = zip(*runs)
            offset = sum(map(operator.mul, first, strides))  # a label's strides lead
            terms = np.ndarray(labels + counts + y_nodes, complex, buffer, offset, strides)
            if add:
                out[index] += np.add.reduce(terms, axis=row_axes)
            else:
                np.add.reduce(terms, axis=row_axes, out=out[index])


def _label_runs(k, rows, d):
    """Labels of one axis in runs that share their rows with a partner.

    Term (a, j) of the window, k u - min k u = k j + a with j in
    [0, rows), meets k u + d = k (j + e) + a + f, e = d // k and
    f = d mod k: the label a + f mod k in row j + e, one row further when
    a + f >= k.  The label runs are [0, k - f) and [k - f, k), each with the
    rows [j0, j1) whose partner row is a row of the window; a run without
    one is skipped.  Returns, for each run, its labels as a slice, their
    count, the count of its rows and its first term k j0 + a0 past the first
    term of the sub-box of :meth:`_FineLattice.fold`, k u = max(0, -d).
    """
    e, f = divmod(d, k)
    runs = []
    for a0, a1, shift in ((0, k - f, e), (k - f, k, e + 1)):
        j0, j1 = max(0, -shift), min(rows, rows - shift)
        if a1 > a0 and j1 > j0:
            runs.append((slice(a0, a1), a1 - a0, j1 - j0, k * j0 + a0 - max(0, -d)))
    return runs


def _axis_groups(ri, N, width):
    """The offset groups of one axis for the r_i of the modes: the distinct
    r_i, once each, the offsets d = r_i mod N of each that meet in the
    window, |d| < ``width``, as a range of increasing d, which may be empty,
    and for each mode the index of its r_i among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(ri))}
    offsets = [range((v + width - 1) % N - width + 1, width, N) for v in index]
    return offsets, [index[v] for v in ri]


@dataclass(frozen=True, eq=False)
class _Plan:
    """How one quadrature cell is sized and laid out, derived once by
    :func:`_plan` and read by every step of the cell, as FFTW plans a
    transform once and then executes it (Frigo & Johnson, Proc. IEEE 93(2),
    2005).  It goes where a grid goes in the quadratures, for the point,
    level and modes it was built for only.

    ``p`` and ``k`` are the point and level, ``table`` the (M, 2n) mode
    table; ``radius`` the truncation radius certified at DEFAULT_EPSILON,
    and l runs over the window [-half, half]^n, half = ceil(radius) + 1, so
    that k u - min k u runs over [0, width) on each axis,
    width = k (2 half + 1); ``rule`` is the bandwidth rule's N
    (:func:`_grid_rule`) and ``N`` the grid's, both multiples of k;
    ``diagonal`` the path, the axis fold at n = 1 or at a Z with no cross
    term, where the frame is a product over the axes, or else the box of n
    axes; ``groups`` each axis's :func:`_axis_groups`, the offsets of the
    one group of each distinct r_i of the modes and each mode's index into
    them, which both paths fold; and :attr:`bytes` the byte figure,
    computed from these fields on its first read and kept.
    """

    p: object
    k: int
    table: np.ndarray
    radius: float
    half: int
    width: int
    rule: int
    N: int
    diagonal: bool
    groups: tuple

    @cached_property
    def bytes(self):
        """Bytes the quadrature holds at once, an upper bound.

        Both paths of :func:`_frame_pairings` end in the M rows of the
        pairings on their support, one per mode, k^n values and k^n partner
        labels each; the deviation kernel (:func:`_pairing_deviation`) then
        holds with them the mask of their meetings with the closed form, the
        moduli and the differences, below 56 bytes a row entry in all, and,
        with the M k^n closed-form columns of
        :func:`toeplitz.quadrature_deviation`, at most 128 bytes a column
        entry; and any step may hold the numpy ufunc buffers of the three
        operands of a cast or strided sum.  The k^n x k^n matrices of the
        dense callers are not counted here: they refuse them with the plan.

        On the axis path the tables are folded, transformed and gathered
        before the rows are formed, and the larger of two phases counts.
        The tables phase holds the box's axis and 2n complex arrays on it,
        the n axis boxes and each one's product buffer, which also bound an
        axis box's build with its two temporaries; one run's sum, k N; the
        axis tables, one (k, N) array per distinct r_i of ``groups`` on
        each axis; and the gathered columns and partner labels of the M
        rows, below 64 n k bytes a row, which the rows phase holds too.

        On the box path add to the rows the box of n axes and its product
        buffer, with the axis and, at most, n + 1 complex arrays on it that
        the box build holds with them (the axis terms, and the cross term's
        or one term's factor); and one distinct r's folded sums, whose
        spectra are computed in place, with one run's sum, k^n N^n each.
        The closed-form columns bound one r's spectra and their scatter.
        """
        n, k, N, M = self.p.n, self.k, self.N, len(self.table)
        size = _FineLattice.box_size(k, N, self.width)
        buffers = 48 * np.getbufsize()
        support = (56 + 128) * M * k**n + buffers
        if not self.diagonal:
            return support + 16 * (2 * size**n + 2 * (k * N) ** n) + (8 + 16 * (n + 1)) * size
        tables = k * N * sum(len(offsets) for offsets, _ in self.groups)
        fold = 8 * size + 16 * (2 * n * size + k * N + tables) + buffers
        return 64 * n * k * M + max(fold, support)


def _table(n, modes):
    """The mode table of ``modes``, or of the Gram's zero mode when None."""
    return np.zeros((1, 2 * n), dtype=np.int64) if modes is None else _mode_table(modes)


def _plan(p, k, modes=None, N=None):
    """The :class:`_Plan` of the quadrature of ``modes`` (a list of modes or
    their (M, 2n) integer table; None for the Gram's zero mode) at (p, k),
    on N nodes per coordinate or, when N is None, on the bandwidth rule's.

    The truncation certificate runs once, and the rule once at its radius
    and the largest |r_i|, |s_i| of the modes.  Building refuses what the
    certificate raises (TruncationError) and, with GridError, an N that is
    not a multiple of k, which no path folds; :func:`_checked_plan` refuses
    the rest on the plan, and :func:`_frame_pairings` folds on it whatever
    its N.
    """
    table = _table(p.n, modes)
    radius = truncation_radius(p, k, DEFAULT_EPSILON).radius
    rule = _grid_rule(p, k, int(np.abs(table).max()), radius)
    N = rule if N is None else N
    if N % k:
        raise GridError(f"grid N={N} is not a multiple of k={k}: "
                        f"the bandwidth rule gives N={rule}")
    half = int(math.ceil(radius)) + 1
    width = k * (2 * half + 1)
    r, _ = _mode_arrays(table)
    groups = tuple(_axis_groups(ri, N, width) for ri in r.T.tolist())
    diagonal = np.count_nonzero(p.Z) == p.n  # Im Z_ii > 0: no cross term at all
    return _Plan(p, k, table, radius, half, width, rule, N, diagonal, groups)


def _lattice_terms(plan):
    """The lattice terms of the grid frame: integer frequencies and y-parts.

    With u = l + a/k over the truncation window of l, returns ``ku`` of
    shape (k^n, L, n), the integer vectors k u, and ``Y`` of shape
    (k^n, L, N^n) with

        Y[a, l, q] = exp(i pi k [(u+y).Z(u+y) - y.Xy]),  y = q/N,

    the Gaussian of :class:`_FineLattice` at the term's node times the
    y-phase, of modulus at most 1.  Lattice term l of
    theta_a(x + Zy) exp(-pi k y.Yy) is exp(2 pi i k u.x) Y[a, l, y].
    """
    p, k, N, n = plan.p, plan.k, plan.N, plan.p.n
    fine = _FineLattice.build(plan)
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
    :func:`_lattice_terms`, truncated at DEFAULT_EPSILON.  The
    quadratures do not build it; it serves inspection and tests.  Raises
    GridError on a grid that is not a multiple of k (:func:`_plan`), and
    at a non-diagonal point of n >= 3, whose box :meth:`_FineLattice.build`
    does not form.
    """
    N = grid.N
    plan = _plan(p, k, N=N)
    if not plan.diagonal and p.n > 2:
        raise GridError(f"the frame at a non-diagonal point supports n in {{1, 2}}, got n = {p.n}")
    ku, y_part = _lattice_terms(plan)
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


def _checked_plan(p, k, grid, modes=None, dense=0):
    """The plan of the frame pairings of ``modes`` (a nonempty list of modes
    or their (M, 2n) integer table; None for the Gram's zero mode), checked
    to carry them.

    ``grid`` is a :class:`QuadratureGrid`, whose plan is built here, or the
    plan built for (p, k, modes); a plan built for another point, level or
    modes raises ValueError.  The plan's own table object is taken as its
    modes, and any other ``modes`` are coerced to a table and compared.  A
    grid that is not a multiple of k is refused, with GridError, as its plan
    is built (:func:`_plan`).  On the plan, before anything is allocated,
    raises GridError when n is not 1 or 2, ValueError for modes of another
    dimension, GridError when N is below the bandwidth rule of the modes,
    and SizeLimitError when the arrays the pairings hold, with the ``dense``
    bytes of the k^n x k^n matrices a dense caller builds from them, would
    exceed the 1 GiB limit.
    """
    if isinstance(grid, _Plan):
        plan = grid
        same = modes is plan.table or np.array_equal(plan.table, _table(p.n, modes))
        if plan.k != k or plan.p != p or not same:
            raise ValueError("the quadrature plan was built for another point, level or modes")
    else:
        plan = _plan(p, k, modes, grid.N)
    table = plan.table
    if p.n not in (1, 2):
        raise GridError(f"quadrature supports n in {{1, 2}}, got n = {p.n}")
    if table.shape[1] != 2 * p.n:  # the axes would read the wrong columns
        raise ValueError(f"mode dimension {table.shape[1] // 2} does not match n = {p.n}")
    if plan.N < plan.rule:
        raise GridError(
            f"grid too coarse: N={plan.N}, bandwidth rule needs N >= {plan.rule}"
        )
    check_bytes(plan.bytes + dense, "quadrature", f"N={plan.N}")
    return plan


def _frame_norm(p, k):
    """sqrt(2^n k^n det Y): the constant that makes the theta frame orthonormal."""
    return math.sqrt(2**p.n * k**p.n * p.det_Y)


def _frame_pairings(plan):
    """Normalized frame pairings of the plan's Fourier modes on their
    support, on the plan's grid, unchecked: a grid below the rule gives the
    aliased sums.

    Entry (i, a, b) for the mode (r, s) of row i of the table is _frame_norm
    times the grid mean of theta_a conj(theta_b) exp(-2 pi k y.Yy) F_{r,s}
    over the N^{2n} nodes.  Returns (b_index, values), one row per mode, both
    of shape (M, k^n): row i holds the entries (i, a, b_index[i, a]) with
    value values[i, a] for every label a, and every other entry is 0
    (:func:`_dense_pairings` scatters them).  A mode that meets no term of
    the window has a row of zeros.

    The x-sum is done exactly: sum_j exp(2 pi i q.j / N) is N^n when
    q = 0 mod N and 0 otherwise, so lattice term (a, l) meets term (b, l')
    only when k u_{b,l'} = k u_{a,l} + d for an integer vector d = r mod N;
    every such d in the window is kept, aliased ones too.  N is a multiple
    of k, so every d has d = r mod k and b = a + r mod k.  The y-phases
    cancel in the product of the two terms, which is then
    G[c] conj(G[c + (N/k) d]) on the fine lattice of :class:`_FineLattice`.
    For each d the terms of every label a are summed over the window rows
    whose partner lies in the window, by strided views
    (:meth:`_FineLattice.fold`), to S_d[a, q], and the inverse FFT over q of
    the summed S_d of one r gives the y-sums against exp(2 pi i s.y) for
    every s of the modes sharing r.

    The offsets of one r are a product over the axes of the plan's groups
    (:func:`_axis_groups`).  At a diagonal Z, G = G_1 x ... x G_n, so every
    S_d, every sum and its spectrum is the outer product of one-axis ones:
    each axis folds the group of every distinct r_i of the modes once into
    one table and transforms it in one FFT (:func:`_axis_columns`), and the
    row of mode (r, s) is prod_i A_i[a_i, s_i].  Any other Z folds each d on
    the box of n axes into one (k,)^n + (N,)^n array per distinct r, takes
    its n-axis FFT in place and writes its rows before the next r
    (:func:`_fold_spectra`).  The plan's byte figure bounds both; no array
    of N^{2n} nodes, no array over the meeting pairs and no k^n x k^n
    matrix is formed.
    """
    p, k, N = plan.p, plan.k, plan.N
    r, s = _mode_arrays(plan.table)
    norm = _frame_norm(p, k)

    def outer(op):  # over the axes of each row, row-major in (a_1, ..., a_n)
        return lambda x, y: op(x[:, :, None], y[:, None, :]).reshape(
            len(y), x.shape[1] * y.shape[1])

    labels = [(np.arange(k) + ri[:, None]) % k for ri in r.T]  # b_i = a_i + r_i mod k
    b_index = reduce(outer(lambda b, c: k * b + c), labels)
    if plan.diagonal:
        values = reduce(outer(np.multiply), _axis_columns(plan, s % N))
        values *= norm
        return b_index, values
    fine = _FineLattice.build(plan)
    values = np.empty(b_index.shape, dtype=complex)
    by_r = {}
    for i, ri in enumerate(map(tuple, r.tolist())):
        by_r.setdefault(ri, []).append(i)
    for members in by_r.values():
        offsets = [ranges[index[members[0]]] for ranges, index in plan.groups]
        values[members] = norm * _fold_spectra(fine, offsets, tuple((s[members] % N).T)).T
    return b_index, values


def _dense_pairings(pairings):
    """The pairings of :func:`_frame_pairings` as one (M, k^n, k^n) array,
    entry (i, a, b), zero off their support: the densify step of the dense
    callers, which refuse its bytes on the plan (:func:`_checked_plan`)."""
    b_index, values = pairings
    M, dim = b_index.shape
    out = np.zeros((M, dim, dim), dtype=complex)
    out[np.arange(M)[:, None], np.arange(dim), b_index] = values
    return out


def _pairing_deviation(pairings, rows, values):
    """max |Q_i - C_i| over the entries, for each mode i, without a
    k^n x k^n array: Q_i the pairings of :func:`_frame_pairings` on their
    support, C_i the matrix with one entry per label a, ``values[i, a]`` at
    (a, ``rows[i, a]``) in the pairings' (a, b) order; both (M, k^n).

    The maximum runs over the union of the two supports, off which both
    are 0: label a's entries are |Q - C| where they meet and |Q| and |C|
    where they do not; a NaN of either propagates.  Returns shape (M,).
    """
    b_index, q = pairings
    apart = np.maximum(np.abs(q), np.abs(values))
    return np.where(b_index == rows, np.abs(q - values), apart).max(axis=1)


def _axis_columns(plan, s):
    """The one-axis spectra of every mode at a diagonal Z.

    On each axis i, the group of every distinct r_i of the modes, as the
    plan lays them out (:func:`_axis_groups`), is folded once into its own
    (k, N) row of one table, and one inverse FFT over the table's last axis
    transforms them all.  Returns per axis the (M, k) array of the spectra
    A_i[:, s_i] of each mode's table row.  ``s`` is the (M, n) array of the
    modes' s, taken mod N.
    """
    k, N = plan.k, plan.N
    columns = []
    for i, (fine, (offsets, index)) in enumerate(zip(_FineLattice.axes(plan), plan.groups)):
        table = np.zeros((len(offsets), k, N), dtype=complex)
        for row, group in zip(table, offsets):
            for j, d in enumerate(group):
                fine.fold((d,), row, j > 0)
        np.fft.ifft(table, axis=-1, out=table)
        columns.append(table[index, :, s[:, i]])
    return columns


def _fold_spectra(fine, offsets, s_index):
    """The spectra of the modes sharing one r on the box of n axes of a
    non-diagonal Z.

    The offsets d = r mod N with |d_i| < width on each axis are the product
    of the axes' ``offsets`` of r_i, and all share the partner label
    b = a + r mod k.  Their folds are summed in one (k,)^n + (N,)^n array,
    its inverse FFT over the y-axes is taken in place (last axis first, as
    in ifftn), and the columns at the modes' s (``s_index``, one array per
    axis), of shape (k^n, M_r), are the spectra.
    """
    k, N, n = fine.k, fine.N, len(offsets)
    folded = np.zeros((k,) * n + (N,) * n, dtype=complex)
    for i, d in enumerate(itertools.product(*offsets)):
        fine.fold(d, folded, i > 0)
    for ax in reversed(range(n, 2 * n)):
        np.fft.ifft(folded, axis=ax, out=folded)
    return folded[(Ellipsis, *s_index)].reshape(k**n, -1)


def l2_inner(p, s1, s2, grid, normalized=True):
    """Inner product of two sections by equal-weight quadrature.

    Conjugate linear in the second slot.  With ``normalized`` the value is
    scaled by sqrt(2^n k^n det Y), under which the theta frame is
    orthonormal.  Refuses grids as :func:`gram_matrix` does.
    """
    if (s1.k, s1.n) != (s2.k, s2.n):
        raise ValueError("sections live at different levels")
    k = s1.k
    G = gram_matrix(p, k, grid)
    res = integrand_periodicity_residual(p, s1, s2)
    if res > 1e-9:
        raise RuntimeError(
            f"integrand failed the periodicity certificate: residual {res:.3e}"
        )
    value = s1.coeffs @ G @ np.conj(s2.coeffs)
    if not normalized:
        value /= _frame_norm(p, k)
    return complex(value)


def gram_matrix(p, k, grid):
    """Matrix of normalized frame inner products; Hermitian, close to Id.
    ``grid`` is a :class:`QuadratureGrid` or the plan of (p, k) built
    without modes (:func:`_plan`).  Its k^n x k^n bytes are refused with
    the plan's."""
    plan = _checked_plan(p, k, grid, dense=16 * k ** (2 * p.n))
    return _dense_pairings(_frame_pairings(plan))[0]


def gram_deviation(p, k, grid):
    """max |G - Id| over the entries of the Gram matrix G, on the Gram's
    support and Id's (:func:`_pairing_deviation` against W_k(0) with eta
    = 1), with no k^n x k^n array.  ``grid`` is as for :func:`gram_matrix`.
    """
    plan = _checked_plan(p, k, grid)
    pairings, dim = _frame_pairings(plan), k**p.n
    identity = np.arange(dim)[None, :], np.ones((1, dim), dtype=complex)
    return float(_pairing_deviation(pairings, *identity)[0])


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
