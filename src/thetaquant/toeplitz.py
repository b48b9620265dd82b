"""Toeplitz operators in the theta frame: closed forms, a quadrature oracle,
norms, traces, and asymptotic-expansion fits.

The operator of a pure phase F_m, m = (r, s), acts on the level-k quantum
space by multiplication followed by orthogonal projection.  In the
orthonormal theta frame it factors as

    T_k(m) = eta_k(m) W_k(m),   eta_k(m) = exp(lambda(r, s, Z) / 4k),

a Gaussian factor in (0, 1] that carries all dependence on Z, times the
unitary clock-and-shift matrix

    W_k(m)[b, a] = delta_{b, a + r mod k} exp(-pi i r.s/k) exp(-2 pi i s.a/k).

The heat coefficient 1/eta_k removes the Gaussian factor and leaves W_k(m),
which satisfies the Weyl relation

    W_k(m1) W_k(m2) = exp(i pi omega(m1, m2) / k) W_k(m1 + m2),

with omega the symplectic pairing r1.s2 - s1.r2.  So every closed-form
operator is a :class:`WeylSymbol` A = sum_m a_m W_k(m) over integer modes m,
held as its level, dimension and coefficients.  Z enters only the
coefficients eta_k(m) of ``WeylSymbol.toeplitz``, so the symbol, the
rescaled W_k(m) and the star product and curve operators built on them take
no Siegel point.  The algebra needs no k^n x k^n matrix:

* products follow the Weyl relation, and W_k(m)* = W_k(-m);
* tr W_k(m) W_k(m')* is k^n times a sign when m = m' mod k and 0 otherwise,
  which gives the Hilbert-Schmidt pairing tr(A B*);
* a line symbol, whose modes are all t m0 for one primitive m0 = (r0, s0),
  is a polynomial sum_t a_t U^t in the unitary U = W_k(m0).  U^k = eps I
  with eps = (-1)^{k r0.s0}, and tr U^t = tr W_k(t m0) = 0 for 0 < t < k
  (the trace vanishes unless k divides every entry of t m0, hence t), so
  the spectrum of U is every root of lambda^k = eps with the same
  multiplicity k^{n-1}.  The operator is normal and its norm is
  max |sum_t a_t lambda^t| over those k roots, an O(M k) computation.

The norm of any other symbol, :func:`rescaled_toeplitz` and
:func:`toeplitz_function` go through :meth:`WeylSymbol.to_dense`;
:func:`toeplitz_mode_closed_form` scatters each of a batch of modes into its
own array from one :func:`_clock_shift_columns` call.  Their result, an
:class:`OperatorMatrix`, is the dense oracle's record: the level, the
dimension and the entries, with no algebra of its own.  Every product and
pairing of closed-form operators is taken on the symbol.

The expansion fits (:func:`product_expansion_fit`,
:func:`c1_antisymmetry_constant` and ``formal.trivialized_star_compare``)
take all K levels in one array pass, with no symbol per level.  What no
Siegel point enters is built once per pair (f, g): the sorted out modes
m_i + n_j, one table of the pair signs between them at every level, which
serves both orderings and, at the top level, the pairings of the c1 scale,
and the Weyl weights exp(i pi omega / k) as one (K, P) array from
the weight the symbol product uses.  A point adds one table of Laplace
eigenvalues, which gives every eta_k.  The projection of T_f T_g onto each
out mode sums its terms in the exponent, exp((lambda_i + lambda_j -
lambda_m) / 4k), so a far mode whose eta_k(m)^2 underflows keeps its finite
ratio; the c0 residual of a line symbol takes its norms at every level in
one pass over the sum of the k roots; and one ``lstsq`` fits every series
in powers of 1/k, each column as that series alone.  A fit has two halves
over the pair's table (``_pair_table``) and one point's eigenvalues: the
coefficients c_0 .. c_L, from the projections and the ``lstsq``, and the
norms of the c0 residual T_f T_g - T_{fg}.  :func:`product_expansion_fit`
returns both, for criterion 10, the tests and the demos.  The kernel ``_star_fits``
takes the coefficient half of every pair, at every point and in both
orderings, and the trivialized star's series, the projection with every
exponent 0, in one ``lstsq``: :func:`c1_antisymmetry_constant` is its call
at one point, ``formal.trivialized_star_compare`` its call at none, and the
``star-fit`` runner calls it once and reads the c0 half from its
eigenvalue tables.

The norms approach sup |f| as k grows (``bms_experiment``), which takes the
coefficients c_m eta_k(m) of all levels as one array and, for a line
function, its norms in one pass as the c0 residual does.  That sup is
also read off the modes, with no grid of the unit cell (``fourier.sup_abs``):
a line function is sum_t c_t e^{2 pi i t theta} in the one angle
theta = m0.(x, y), so its sup is a maximum over one angle; any other
function takes a certified coarse-grid search plus Newton over all 2n
angles.

The quadrature route computes the same entries as grid sums of
theta_a conj(theta_b) F_m, paired term by term in the lattice sums
(``sections._frame_pairings``), and serves as the independent oracle.  It
uses no eta, W_k or closed form: the Gaussians of the lattice terms are
evaluated once per node of a fine lattice, the products of the pairs at
each frequency offset are folded over the window by strided sums, and one
FFT over the y-nodes gives every mode sharing r.  At a diagonal Z (always
at n = 1) the frame is a product over the axes, so each axis is folded and
transformed on its own (k, N) array and the pairings are outer products of
those, in O(box axis + k N) memory plus the pairings; any other Z folds the
box of both axes in O(box + k^n N^n).  The pairings are kept on their
support, one row of k^n entries per mode.  Grids whose
pairings would hold more than the 1 GiB limit of ``fourier.check_bytes``
are refused, with SizeLimitError, before allocation.  The
``toeplitz-compare`` runner and the CLI verb compare it with the closed
form through :func:`quadrature_deviation`: the pairings of one
(point, level), folded on the cell's one plan (``sections._plan``), against
eta_k(m) W_k(m) at the one nonzero of each column, over the union of the
two supports, with no k^n x k^n array.  The dense route, ``to_dense`` of
each mode against ``toeplitz_modes_quadrature``, is the tests' oracle for
it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fourier import (
    FourierFunction,
    FourierMode,
    SizeLimitError,
    _coefficients,
    _line_decomposition,
    _mode_arrays,
    _mode_pair_sum,
    _mode_table,
    check_bytes,
    poisson_bracket,
    sup_abs,
)
from .sections import _checked_plan, _dense_pairings, _frame_pairings, _pairing_deviation
from .siegel import laplace_eigenvalue

__all__ = [
    "OperatorMatrix",
    "WeylSymbol",
    "eta",
    "toeplitz_mode_closed_form",
    "toeplitz_modes_quadrature",
    "quadrature_deviation",
    "toeplitz_function",
    "rescaled_toeplitz",
    "operator_norm",
    "hs_inner",
    "trace_pair_closed_form",
    "trace_pair_sign",
    "bms_experiment",
    "loglog_order",
    "ProductExpansionFit",
    "product_expansion_fit",
    "C1Comparison",
    "c1_antisymmetry_constant",
]

MAX_DENSE_DIM = 4096


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense k^n x k^n operator in the theta frame: the record of the dense
    oracle (:meth:`WeylSymbol.to_dense` and the quadrature).  ``entries`` is
    a read-only complex copy, except that a read-only complex array which
    owns its data is kept as it is: no one can write to it, so a builder
    that hands one over needs no second array for the copy."""

    k: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.flags.writeable or not e.flags.owndata:
            e = e.copy()
        dim = self.k**self.n
        if e.shape != (dim, dim):
            raise ValueError(f"entries must be {dim} x {dim}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def eta(p, k, m):
    """Gaussian factor of the mode operator: exp(lambda(r,s,Z) / 4k).

    Lies in (0, 1], increases to 1 as k grows, and is the modulus of every
    nonzero closed-form entry.  ``m`` is one mode, a list of modes or their
    (M, 2n) integer table, as for :func:`siegel.laplace_eigenvalue`.
    """
    return _eta(laplace_eigenvalue(p, m), k)


def _eta(lam, k):
    """exp(lam / 4k), eta_k of a mode whose Laplace eigenvalue is ``lam``: the
    one spelling of eta.  ``lam`` and ``k`` may be arrays, which broadcast to
    a level axis."""
    return np.exp(lam / (4 * k))


def _clock_shift_columns(k, n, modes):
    """Row index and value of the one nonzero entry in each column of W_k(m).

    Columns are the labels a in lexicographic order; column a has its entry
    in row a + r mod k, with value exp(-pi i (r.s + 2 s.a)/k), the phase
    reduced exactly mod 2k.  Both arrays have shape (k^n,) for one mode and
    (M, k^n) for a list of M modes or their (M, 2n) integer table.
    """
    r, s = _mode_arrays(modes, dtype=np.int64)
    if r.shape[-1] != n:  # broadcasting would pass a one-axis mode at n = 2
        raise ValueError(f"mode dimension {r.shape[-1]} does not match n = {n}")
    labels = np.indices((k,) * n).reshape(n, -1)
    rows = k ** np.arange(n - 1, -1, -1) @ ((r[..., None] + labels) % k)
    phase = (np.vecdot(r, s)[..., None] + 2 * s.dot(labels)) % (2 * k)
    return rows, np.exp(-1j * np.pi * phase / k)


@dataclass(frozen=True)
class WeylSymbol:
    """The level-k operator sum_m c_m W_k(m), kept as its mode coefficients.

    ``coeffs`` maps integer modes of dimension ``n`` to complex
    coefficients; zero coefficients are dropped.  Modes are not reduced mod
    k: congruent modes give the same W_k up to a sign, which products and
    pairings carry exactly.  No Siegel point enters: only
    :meth:`toeplitz` reads one, for the factors eta_k(m).
    """

    k: int
    n: int
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficients(self.coeffs, self.n)[0])

    @classmethod
    def toeplitz(cls, p, k, f):
        """T_k(f) = sum c_m eta_k(m) W_k(m) of a finite Fourier combination."""
        etas = eta(p, k, list(f.terms))
        return cls(k, p.n, {m: c * e for (m, c), e in zip(f.terms.items(), etas)})

    def _check_level(self, other):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("operator shapes differ")

    def __sub__(self, other):
        self._check_level(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) - c
        return WeylSymbol(self.k, self.n, out)

    def __mul__(self, scalar):
        return WeylSymbol(self.k, self.n, {m: scalar * c for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product by the Weyl relation; O(M1 M2) at any level."""
        self._check_level(other)
        out = _mode_pair_sum(self.coeffs, other.coeffs, _weyl_phase(self.k))
        return WeylSymbol(self.k, self.n, out)

    def pair(self, other):
        """tr(A B*): :func:`_trace_pairing` with the scalar
        :func:`trace_pair_sign`."""
        self._check_level(other)
        return _trace_pairing(self.k, self.n, self.coeffs, other.coeffs,
                              functools.partial(trace_pair_sign, self.k))

    def to_dense(self):
        """The k^n x k^n matrix; refused above MAX_DENSE_DIM before allocation."""
        k, n = self.k, self.n
        dim = _dense_dim(k, n)
        entries = np.zeros((dim, dim), dtype=complex)
        if self.coeffs:
            modes = sorted(self.coeffs)  # congruent modes add in one order
            rows, values = _clock_shift_columns(k, n, modes)
            cols = np.arange(dim)
            for row, value, m in zip(rows, values, modes):
                entries[row, cols] += self.coeffs[m] * value
        return OperatorMatrix(k, n, entries)

    def _line(self):
        """``_line_decomposition`` of the sorted modes: (m0, powers) or None."""
        return _line_decomposition(sorted(self.coeffs))

    def norm(self):
        """Operator norm: exact on a line symbol (see the module docstring),
        else the dense SVD; either is independent of the order of the terms."""
        line = self._line()
        if line is None:
            return operator_norm(self.to_dense())
        c = np.array([self.coeffs[m] for m in sorted(self.coeffs)], dtype=complex)
        return float(_line_norms([self.k], self.n, *line, c[None])[0])


def _trace_pairing(k, n, a, b, sign):
    """tr(A B*) of A = sum a_m W_k(m) and B = sum b_m W_k(m), coefficients
    ``a`` and ``b``: k^n a_m conj(b_m') sign(m, m') summed over the pairs of
    nonzero sign, in the order of ``a`` and then of ``b``.  ``sign(m, m')``
    is trace_pair_sign(k, m, m'), from the scalar or from a table of it; a
    table of Python ints rounds the sum as the scalar does."""
    total = 0.0 + 0.0j
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            s = sign(m1, m2)
            if s:
                total += c1 * c2.conjugate() * s
    return complex(k**n * total)


def _dense_dim(k, n):
    """k^n, refused above MAX_DENSE_DIM before a dense operator is allocated."""
    dim = k**n
    if dim > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dense operator needs dimension k^n = {dim}, "
            f"above the {MAX_DENSE_DIM} limit"
        )
    return dim


def _weyl_phase(k):
    """The weight of the Weyl relation at level k: omega -> exp(i pi omega / k),
    omega reduced exactly mod 2k.  ``k`` is one level or an array of levels,
    which broadcasts against an array of omega."""
    return lambda omega: np.exp(1j * np.pi * (omega % (2 * k)) / k)


def _line_norms(k_values, n, m0, t, c):
    """Norms of the line symbols sum_j c[i, j] W_k(t_j m0) at k = k_values[i].

    U = W_k(m0) has U^k = (-1)^odd I with odd = k r0.s0 mod 2, so each norm
    is max |sum_j c[i, j] lambda^t_j| over the k roots lambda =
    exp(i pi (2j + odd) / k) (see the module docstring), the angles reduced
    exactly mod 2k.  One pass over the sum of the k roots; ``c`` has shape
    (K, len(t)) and the result (K,).  The terms are added row by row, as a
    numpy sum over t rounds by the number of roots beside it in the batch.
    """
    k = np.asarray(k_values)
    # levels, roots and the sum's accumulators (48 bytes a root); angles, their
    # complex product and exponential, repeated c (40 bytes a root and term)
    check_bytes(8 * int(k.sum()) * (6 + 5 * len(t)), "line norm",
                f"{int(k.sum())} roots of {len(t)} terms")
    odd = (k % 2) * (sum(a * b for a, b in zip(m0[:n], m0[n:])) % 2)
    kk = np.repeat(k, k)
    start = np.cumsum(k) - k
    roots = 2 * (np.arange(kk.size) - np.repeat(start, k)) + np.repeat(odd, k)
    angles = np.multiply.outer(t, roots) % (2 * kk)
    terms = np.exp((1j * np.pi / kk) * angles) * np.repeat(c.T, k, axis=1)
    values = sum(terms, np.zeros(kk.size, dtype=complex))
    return np.maximum.reduceat(np.abs(values), start)


def _level_norms(k_values, n, modes, coeffs):
    """Norms of sum_j coeffs[i, j] W_k(modes[j]) at each level k = k_values[i].

    ``modes`` are sorted as ``norm()`` sorts them and ``coeffs`` has shape
    (K, len(modes)).  Modes on one line take one :func:`_line_norms` pass
    over all levels, any others ``norm()`` level by level; either way each
    norm is ``norm()`` of that level's symbol.
    """
    line = _line_decomposition(modes)
    if line is None:
        return [WeylSymbol(k, n, dict(zip(modes, row))).norm()
                for k, row in zip(k_values, coeffs)]
    return _line_norms(k_values, n, *line, coeffs).tolist()


def toeplitz_mode_closed_form(p, k, m):
    """Matrix of the mode operator, eta_k(m) W_k(m), in closed form.

    ``m`` is one mode, giving one :class:`OperatorMatrix`, or a list of M
    modes, giving a list of M of them from one :func:`_clock_shift_columns`
    and one :func:`eta` call.  Each mode is scattered into its own array,
    which its operator keeps without a copy: M modes hold M dense arrays and
    no (M, k^n, k^n) stack.  Entry for entry each equals the dense matrix of
    the one-mode symbol, ``WeylSymbol(k, p.n, {m: eta(p, k, m)}).to_dense()``.
    """
    if not isinstance(m, list):
        return toeplitz_mode_closed_form(p, k, [m])[0]
    # M operators, which keep their entries, and room for the columns beside
    check_bytes(16 * (len(m) + 1) * k**(2 * p.n), "closed-form scatter",
                f"{len(m)} dense {k**p.n} x {k**p.n} operators")
    dim = _dense_dim(k, p.n)
    rows, values = _clock_shift_columns(k, p.n, m)
    cols = np.arange(dim)
    out = []
    for row, value, c in zip(rows, values, eta(p, k, m)):
        entries = np.zeros((dim, dim), dtype=complex)
        entries[row, cols] += c * value
        entries.setflags(write=False)  # handed over to the operator, not copied
        out.append(OperatorMatrix(k, p.n, entries))
    return out


def rescaled_toeplitz(k, m):
    """Matrix of the heat-rescaled mode: W_k(m), unitary and independent of Z,
    so it takes no Siegel point.

    entry(b, a) = delta_{b, a + r mod k} exp(-pi i r.s / k) exp(-2 pi i s.a/k).
    """
    m = FourierMode.coerce(m)
    return WeylSymbol(k, m.n, {m: 1.0}).to_dense()


def toeplitz_modes_quadrature(p, k, modes, grid):
    """Quadrature matrices for several modes sharing one set of lattice terms.

    This is the independent oracle for the closed form: entry (b, a) is the
    normalized frame pairing of theta_a and theta_b under the grid weight
    F_{r,s}.  The result is keyed by the modes as the caller gave them, a
    :class:`FourierMode` or an ``(r, s)`` pair.  ``grid`` is a
    :class:`~thetaquant.sections.QuadratureGrid` or the plan built for
    (p, k, modes) (``sections._plan``).  The dense pairings and each
    operator's copy of its matrix are refused with the plan's bytes.
    """
    if not modes:
        return {}
    plan = _checked_plan(p, k, grid, modes, dense=32 * len(modes) * k ** (2 * p.n))
    pairings = _dense_pairings(_frame_pairings(plan))
    return {m: OperatorMatrix(k, p.n, a.T) for m, a in zip(modes, pairings)}


def quadrature_deviation(p, k, modes, grid):
    """max |eta_k(m) W_k(m) - quadrature| over the entries, for each mode.

    The pairings stay on their support (``sections._frame_pairings``), one
    row per mode holding its quadrature matrix transposed, and W_k(m) has
    one nonzero per column a, in row a + r mod k (:func:`_clock_shift_columns`):
    ``sections._pairing_deviation`` takes the maximum over the union of the
    two supports, so no k^n x k^n array is built.  ``modes`` is a list of
    modes or their (M, 2n) integer table, which the plan, the columns and
    eta all read; ``grid`` is a grid or the plan built for (p, k, modes)
    (``sections._plan``).  Returns an array of shape (M,).
    """
    table = _mode_table(modes)
    if not len(table):
        return np.zeros(0)
    plan = _checked_plan(p, k, grid, table)
    pairings = _frame_pairings(plan)
    rows, values = _clock_shift_columns(k, p.n, table)
    return _pairing_deviation(pairings, rows, eta(p, k, table)[:, None] * values)


def toeplitz_function(p, k, f):
    """Operator of a finite Fourier combination: sum c_m eta_k(m) W_k(m)."""
    return WeylSymbol.toeplitz(p, k, f).to_dense()


def operator_norm(A):
    """Largest singular value."""
    return float(np.linalg.norm(A.entries, 2))


def hs_inner(A, B):
    """tr(A B*) -- the Frobenius pairing of the two matrices."""
    if A.entries.shape != B.entries.shape:
        raise ValueError("operator shapes differ")
    return complex(np.vdot(B.entries, A.entries))


def trace_pair_sign(k, m1, m2):
    """tr W_k(m1) W_k(m2)* / k^n, the unit factor of the closed-form pair trace.

    Zero unless (r,s) = (t,u) mod k componentwise.  Under that congruence k
    divides P = r.s - 2 s.t + t.u, and the phase exp(-pi i P/k) of the
    root-of-unity sum, which also absorbs the residual unit factor
    exp(pi i/k r.(s-u)), is the sign (-1)^(P/k) (1 when the modes
    coincide).  It is computed in Python integers, exact at any mode size.
    """
    m1, m2 = FourierMode.coerce(m1), FourierMode.coerce(m2)
    if len(m1.r) != len(m2.r):  # zip would cut the longer mode
        raise ValueError(f"modes of dimensions {m1.n} and {m2.n}")
    if any((a - b) % k for a, b in zip(m1.r + m1.s, m2.r + m2.s)):
        return 0
    P = sum(map(operator.mul, m1.r, m1.s)) + sum(map(operator.mul, m2.r, m2.s))
    P -= 2 * sum(map(operator.mul, m1.s, m2.r))
    if P % k:
        raise ArithmeticError("pair phase of congruent modes is not a sign")
    return -1 if (P // k) % 2 else 1


def _sign_table(k, l1, l2):
    """trace_pair_sign(k, a, b) of every mode a of ``l1`` and b of ``l2``,
    an int64 array of shape (M1, M2): the one table of pair signs."""
    return np.array([[trace_pair_sign(k, a, b) for b in l2] for a in l1],
                    dtype=np.int64).reshape(len(l1), len(l2))


def trace_pair_closed_form(p, k, m1, m2):
    """tr(T_{m1} (T_{m2})*) = eta(m1) eta(m2) tr(W_k(m1) W_k(m2)*).

    The last factor is the symbol pairing: zero unless (r,s) = (t,u) mod k
    componentwise, otherwise k^n times the exact sign (-1)^(P/k) of
    :func:`trace_pair_sign`.  ``m1`` and ``m2`` are each one mode or a
    list of modes; the result is k^n sign eta(m1) eta(m2), 0 off the
    congruent pairs, as a complex for two modes and else as a complex
    array of shape (M1, M2), (M1,) or (M2,).  The signs are one
    :func:`_sign_table`, and when ``m2`` is the list ``m1`` one eta table
    serves both sides.
    """
    l1, l2 = (m if isinstance(m, list) else [m] for m in (m1, m2))
    signs = _sign_table(k, l1, l2)
    e1 = eta(p, k, l1)
    e2 = e1 if l2 is l1 else eta(p, k, l2)
    closed = (k**p.n * signs * e1[:, None] * e2).astype(complex)
    shape = [len(m) for m in (m1, m2) if isinstance(m, list)]
    return closed.reshape(shape) if shape else complex(closed[0, 0])


def bms_experiment(p, f, k_values):
    """Operator norms against sup |f| across levels.

    Returns rows ``{k, norm, sup, error, sup_gap, sup_method}``; the errors
    shrink like 1/k as the Gaussian damping of each mode relaxes toward 1.
    The sup comes from the modes of f (:func:`fourier.sup_abs`): for a line
    function it is the maximum over one angle, for any other function a
    certified coarse-grid search plus Newton over the 2n angles; either way
    sup |f| <= sup + sup_gap, and sup is |f| at a point, below sup |f| but
    for its own rounding.  The norms come first, so a level that
    needs a refused dense matrix stops the run before the sup.

    The coefficients c_m eta_k(m) of all levels are one (K, M) array, and a
    line function takes its norms in one pass (:func:`_level_norms`).
    """
    modes = sorted(f.terms)
    lam = laplace_eigenvalue(p, modes)
    c = np.array([f.terms[m] for m in modes], dtype=complex)
    coeffs = c * _eta(lam, np.asarray(k_values)[:, None])
    norms = _level_norms(k_values, p.n, modes, coeffs)
    sup = sup_abs(f)
    return [
        {"k": int(k), "norm": nrm, "sup": sup.value, "error": abs(nrm - sup.value),
         "sup_gap": sup.gap, "sup_method": sup.method}
        for k, nrm in zip(k_values, norms)
    ]


def loglog_order(ks, errs):
    """Fitted decay order of err ~ k^-p: minus the least-squares slope of
    log err on log k over the positive errors; NaN below two of them."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    good = errs > 0
    if good.sum() < 2:
        return float("nan")
    x = np.log(ks[good])
    x -= x.mean()
    y = np.log(errs[good])
    return float(-(x @ (y - y.mean())) / (x @ x))


# Highest power of 1/k in every expansion fit
_FIT_ORDER = 3
# Largest x whose exp(x) is a finite float
_MAX_EXPONENT = math.log(np.finfo(float).max)
# zgelsd rescales the right-hand sides when their largest modulus leaves
# [2^-970, 2^970], and then every column rounds otherwise than alone; a factor
# 2 inside keeps the modulus numpy reads on the side LAPACK reads
_LSTSQ_RANGE = (2.0**-969, 2.0**969)


def _fit_levels(k_values):
    """The levels of an expansion fit as a tuple of ints, refused with
    ValueError below _FIT_ORDER + 2 of them, before anything is computed."""
    k_values = tuple(int(k) for k in k_values)
    if len(k_values) < _FIT_ORDER + 2:
        raise ValueError(f"need at least {_FIT_ORDER + 2} levels for the fit")
    return k_values


def _inverse_power_fit(k_values, samples):
    """Least-squares fit of samples ~ sum_{l <= _FIT_ORDER} c_l k^-l.

    ``samples`` has shape (K, S): row i holds the S fitted series at level
    k_values[i].  One ``lstsq`` fits every series whose largest modulus is 0
    or inside ``_LSTSQ_RANGE``, and each other series (NaN, infinite, or one
    LAPACK would rescale) is fitted alone, so every column of a stack rounds
    as its series alone.  Returns the coefficients, shape
    (_FIT_ORDER + 1, S) with row l holding c_l of every series, and the
    condition number of the Vandermonde matrix in 1/k.
    """
    x = 1.0 / np.asarray(k_values, dtype=float)
    V = np.vander(x, N=_FIT_ORDER + 1, increasing=True)
    peak = np.abs(samples).max(axis=0, initial=0.0)
    inside = (peak == 0) | ((peak >= _LSTSQ_RANGE[0]) & (peak <= _LSTSQ_RANGE[1]))
    # a zero column leaves the others as they are
    coefficients, _, _, sv = np.linalg.lstsq(V, np.where(inside, samples, 0), rcond=None)
    for j in np.flatnonzero(~inside):
        coefficients[:, j] = np.linalg.lstsq(V, samples[:, j], rcond=None)[0]
    return coefficients, float(sv[0] / sv[-1])


class _Product(NamedTuple):
    """T_f T_g projected onto the out modes, as far as no Siegel point
    enters (:func:`_product_terms`)."""

    pairs: list  # (a, b): a a mode of f, b one of g
    out_modes: list
    sign: np.ndarray  # (K, P, M): trace_pair_sign(k, a + b, m)
    terms: np.ndarray  # (K, P): f_a g_b exp(i pi omega(a, b) / k)


def _product_terms(k_values, f, g, out_modes, signs):
    """The Z-free half of the projections of T_f T_g onto the out modes at
    every level, a :class:`_Product`.

    ``f`` and ``g`` map modes to coefficients and ``signs`` stacks the
    :func:`_sign_table` of the out modes at every level, shape (K, M, M).
    By the Weyl relation T_f T_g is sum f_a g_b w_ab eta_k(a) eta_k(b)
    W_k(a + b), w_ab the weight of :func:`_weyl_phase`, and its pairing
    with T_m keeps the products congruent to m with the sign of
    :func:`trace_pair_sign`: the row of ``signs`` at the out mode a + b.
    """
    ks = np.asarray(k_values)
    pairs = [(a, b) for a in f for b in g]
    row = {m: i for i, m in enumerate(out_modes)}
    omega = np.array([a.symplectic_pairing(b) for a, b in pairs], dtype=np.int64)
    terms = np.array([f[a] * g[b] for a, b in pairs], dtype=complex)
    return _Product(pairs, out_modes, signs[:, [row[a + b] for a, b in pairs]],
                    terms * _weyl_phase(ks[:, None])(omega))


def _product_projections(k_values, product, lam):
    """tr(T_f T_g T_m*) / tr(T_m T_m*) for each out mode m at every level.

    ``product`` is the Z-free half (:func:`_product_terms`) and ``lam``
    maps each mode of f and g and each out mode to the exponent of
    eta_k(m) = exp(lam[m] / 4k) (0 for the heat-rescaled W_k(m)).  Each term
    of the ratio is formed in the exponent,
    sign f_a g_b w_ab exp((lam_a + lam_b - lam_m) / 4k), so a far mode
    whose eta_k(m)^2 underflows still gives its finite ratio.  Returns an
    array of shape (K, M).
    """
    ks = np.asarray(k_values)
    sign = product.sign
    lam_pairs = np.array([lam[a] + lam[b] for a, b in product.pairs], dtype=float)
    exponent = np.subtract.outer(lam_pairs, [lam[m] for m in product.out_modes])
    exponent = exponent / (4 * ks[:, None, None])
    # off the congruent products the sign is 0 and the exponent may overflow
    top = exponent.max(where=sign != 0, initial=-np.inf)
    if top > _MAX_EXPONENT:
        raise OverflowError(f"a projection of T_f T_g needs e^{top:.4g}, beyond the "
                            "float range: eta_k(m_i) eta_k(n_j) / eta_k(m) is too large")
    scale = np.exp(exponent, where=sign != 0, out=np.zeros(sign.shape))
    return np.einsum("kpm,kp,kpm->km", sign, product.terms, scale)


@dataclass
class ProductExpansionFit:
    """Per-mode polynomial fit of T_f T_g in inverse powers of the level."""

    k_values: tuple
    coefficients: list  # FourierFunction estimates of c_0 .. c_L
    c0_residual_norms: list = field(default_factory=list)
    c0_fit_order: float = float("nan")
    condition_number: float = float("nan")
    ill_conditioned: bool = False


def _c0_residual_norms(k_values, f, g, out_modes, lam):
    """The c0 half of the fit: ||T_f T_g - T_{fg}|| at every level, from the
    level-axis Weyl product of the symbols, whose coefficients are (K,)
    arrays, less T_{fg}: one :func:`_line_norms` pass when its modes lie
    on one line, else ``norm()`` level by level (:func:`_level_norms`)."""
    ks = np.asarray(k_values)

    def at_levels(terms):
        return {m: c * _eta(lam[m], ks) for m, c in terms.items()}

    prod = _mode_pair_sum(at_levels(f.terms), at_levels(g.terms), _weyl_phase(ks))
    fg = f * g
    residual = np.array(
        [prod[m] - fg.coefficient(m) * _eta(lam[m], ks) for m in out_modes]
    ).reshape(len(out_modes), len(ks)).T
    return _level_norms(k_values, f.n, out_modes, residual)


def product_expansion_fit(p, f, g, k_values):
    """Fit the expansion T_f T_g ~ sum_l T_{c_l} k^{-l} at every level at once.

    Two halves read the pair's table (:func:`_pair_table`), its out modes
    and the Weyl terms of T_f T_g, and one dict of the Laplace eigenvalues
    of the modes of f, g and the out modes.  The coefficient half projects T_f T_g onto the mode operator of every out
    mode (orthogonal for distinct small modes under the pair trace) at all K
    levels in one array pass (:func:`_product_projections`) and regresses
    the samples on powers of 1/k in one ``lstsq``.  The c0 half
    (:func:`_c0_residual_norms`) gives the norms of T_f T_g - T_{fg}.  This
    function returns both, which criterion 10, the tests and the demos
    read; :func:`_star_fits`, and so :func:`c1_antisymmetry_constant`,
    takes the coefficient half alone, of both orderings at every point in
    one ``lstsq``, and the ``star-fit`` runner's c0 order the c0 half alone.
    Needs len(k_values) >= _FIT_ORDER + 2 and min(k) large enough that
    distinct output modes are incongruent.
    """
    k_values = _fit_levels(k_values)
    t = _pair_table(k_values, f, g)
    modes = [*f.terms, *g.terms, *t.out_modes]
    lam = dict(zip(modes, laplace_eigenvalue(p, modes)))
    rows, cond = _inverse_power_fit(k_values, _product_projections(k_values, t.fg, lam))
    c0_norms = _c0_residual_norms(k_values, f, g, t.out_modes, lam)
    return ProductExpansionFit(
        k_values=k_values,
        coefficients=[FourierFunction(dict(zip(t.out_modes, row)), n=f.n) for row in rows],
        c0_residual_norms=c0_norms,
        c0_fit_order=loglog_order(k_values, c0_norms),
        condition_number=cond,
        ill_conditioned=cond > 1e12,
    )


@dataclass
class C1Comparison:
    """Antisymmetrized first-order coefficient against the Poisson bracket."""

    gamma: complex  # least-squares scale of T_{{f,g}} inside the fit
    constant: complex  # gamma normalized by -i (the deformation convention)
    relative_residual: float
    condition_number: float


class _PairTable(NamedTuple):
    """What the fits of one pair (f, g) read at every point: no Siegel point
    enters (:func:`_pair_table`)."""

    f: FourierFunction
    g: FourierFunction
    out_modes: list  # the sums m_i + n_j, sorted
    fg: _Product
    gf: _Product
    bracket: dict  # the terms of {f, g}, all on out modes
    sign: object  # (m, m') -> trace_pair_sign(kmax, m, m') on the out modes


def _pair_table(k_values, f, g):
    """The :class:`_PairTable` of (f, g) at the levels ``k_values``: the
    :func:`_sign_table` of the out modes, stacked over the levels, serves
    both orderings at every level and, at kmax, the pairings of the c1
    scale."""
    out_modes = sorted({a + b for a in f.terms for b in g.terms})
    signs = np.stack([_sign_table(k, out_modes, out_modes) for k in k_values])
    fg, gf = (_product_terms(k_values, a.terms, b.terms, out_modes, signs)
              for a, b in ((f, g), (g, f)))
    top = signs[k_values.index(max(k_values))].tolist()
    index = {m: i for i, m in enumerate(out_modes)}
    return _PairTable(f, g, out_modes, fg, gf, poisson_bracket(f, g).terms,
                      lambda a, b: top[index[a]][index[b]])


class _PairFits(NamedTuple):
    """The fits of one pair (f, g) (:func:`_star_fits`)."""

    out_modes: list  # the sums m_i + n_j, sorted
    star: np.ndarray  # c_1 of W(f) W(g) projected onto each out mode's W_k(m)
    c1: list  # the C1Comparison at each point
    condition_number: float


def _star_fits(points, pairs, k_values):
    """The expansion fits of every pair (f, g) of ``pairs``: the trivialized
    star, which takes no point, and the c1 comparison at every point.

    Each pair's out modes, signs and Weyl terms are built once
    (:func:`_pair_table`), and each point takes one eigenvalue table over
    every pair's modes.  The series are stacked, in the order pair by pair,
    the star and then each point's T_f T_g and T_g T_f, into one
    :func:`_inverse_power_fit`, whose columns round as each series alone.
    The star's series is the projection of T_f T_g with every exponent 0:
    W(f) W(g), since the heat coefficient removes eta_k.  Returns a
    :class:`_PairFits` per pair and each point's eigenvalue table, a dict
    over the modes of f, g and the out modes of every pair, which the c0
    half of a fit (:func:`_c0_residual_norms`) also reads.  Fewer than
    _FIT_ORDER + 2 levels are refused first (:func:`_fit_levels`).  A
    refused point, whose projection overflows or whose bracket's operator
    vanishes, refuses the batch with its error; the first in the order pair
    by pair, point by point is raised.
    """
    k_values = _fit_levels(k_values)
    kmax = max(k_values)
    tables = [_pair_table(k_values, f, g) for f, g in pairs]
    modes = list(dict.fromkeys(m for t in tables for m in (*t.f.terms, *t.g.terms,
                                                            *t.out_modes)))
    lams = [dict(zip(modes, laplace_eigenvalue(p, modes))) for p in points]
    series, refused, zero = [], {}, dict.fromkeys(modes, 0.0)
    for i, t in enumerate(tables):
        series.append(_product_projections(k_values, t.fg, zero))
        for j, lam in enumerate(lams):
            try:
                series += [_product_projections(k_values, t.fg, lam),
                           _product_projections(k_values, t.gf, lam)]
            except OverflowError as error:
                refused[i, j] = error
    coefficients, cond = _inverse_power_fit(k_values, np.concatenate(series, axis=1))
    c1 = iter(np.split(coefficients[1], np.cumsum([a.shape[1] for a in series])[:-1]))
    fits = []
    for i, t in enumerate(tables):
        star = next(c1)
        comparisons = []
        for j, lam in enumerate(lams):
            if (i, j) in refused:
                raise refused[i, j]
            comparisons.append(_c1_comparison(t, lam, kmax, next(c1), next(c1), cond))
        fits.append(_PairFits(t.out_modes, star, comparisons, cond))
    return fits, lams


def _c1_comparison(t, lam, kmax, c_fg, c_gf, cond):
    """The :class:`C1Comparison` of the pair table ``t`` at the point of the
    eigenvalue table ``lam``, from the c_1 rows of T_f T_g and T_g T_f over
    the out modes (see :func:`c1_antisymmetry_constant`)."""
    n = t.f.n
    anti = (FourierFunction(dict(zip(t.out_modes, c_fg)), n=n)
            - FourierFunction(dict(zip(t.out_modes, c_gf)), n=n)).terms
    top = max((lam[m] for m in t.bracket), default=0.0)

    def scaled(terms):
        return WeylSymbol(kmax, n, {m: c * math.exp((lam[m] - top) / (4 * kmax))
                                    for m, c in terms.items()})

    A, B = scaled(anti), scaled(t.bracket)
    norm2 = _trace_pairing(kmax, n, B.coeffs, B.coeffs, t.sign)
    if norm2 == 0:
        raise ValueError(f"the operator of {{f, g}} vanishes at k = {kmax}: "
                         "no scale to measure")
    gamma = _trace_pairing(kmax, n, A.coeffs, B.coeffs, t.sign) / norm2
    resid = (A - gamma * B).norm() / max(A.norm(), 1e-300)
    return C1Comparison(
        gamma=gamma,
        constant=gamma / (-1j),
        relative_residual=float(resid),
        condition_number=cond,
    )


def c1_antisymmetry_constant(p, f, g, k_values):
    """Measure the global constant linking fitted c_1 antisymmetry to {f, g}.

    Fits both orderings, forms c_1(f,g) - c_1(g,f), and scales the
    Poisson-bracket operator onto it in the Hilbert-Schmidt sense at the top
    level.  Both operators are taken divided by the largest eta_k of the
    bracket's modes, which neither the scale nor the relative residual sees,
    so a far mode whose eta_k underflows still gives a finite ratio.  The
    returned ``constant`` is the measured ratio against -i {f, g}; a bracket
    whose operator vanishes is refused with ValueError.

    This is :func:`_star_fits` at the one point and the one pair, which the
    ``star-fit`` runner calls once for all its points and pairs: only the
    coefficient half of each fit (see :func:`product_expansion_fit`) is
    taken, both orderings in one ``lstsq``, and no c0 norm is computed.
    """
    (fit,), _ = _star_fits([p], [(f, g)], k_values)
    return fit.c1[0]
