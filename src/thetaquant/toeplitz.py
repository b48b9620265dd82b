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
and its algebra needs no k^n x k^n matrix:

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

The norm of any other symbol, and the public matrix constructors, go
through :meth:`WeylSymbol.to_dense`, the one dense builder.  Its result, an
:class:`OperatorMatrix`, is the dense oracle's record: the level, the
dimension and the entries, with no algebra of its own.  Every product,
adjoint and pairing of closed-form operators is taken on the symbol.

The norms approach sup |f| as k grows (``bms_experiment``).  That sup is
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
FFT over the y-nodes gives every mode sharing r.  Its memory is
O(box + k^n N^n) plus the outputs, and grids whose pairings would hold
more than the 1 GiB limit of ``fourier.check_bytes`` are refused, with
SizeLimitError, before allocation.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .fourier import (
    FourierFunction,
    FourierMode,
    SizeLimitError,
    _coefficients,
    _line_decomposition,
    _mode_arrays,
    _mode_pair_sum,
    poisson_bracket,
    sup_abs,
)
from .sections import _check_grid, _frame_pairings
from .siegel import laplace_eigenvalue

__all__ = [
    "OperatorMatrix",
    "WeylSymbol",
    "eta",
    "toeplitz_mode_closed_form",
    "toeplitz_mode_quadrature",
    "toeplitz_modes_quadrature",
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
    a read-only complex copy."""

    k: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex).copy()
        dim = self.k**self.n
        if e.shape != (dim, dim):
            raise ValueError(f"entries must be {dim} x {dim}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def eta(p, k, m):
    """Gaussian factor of the mode operator: exp(lambda(r,s,Z) / 4k).

    Lies in (0, 1], increases to 1 as k grows, and is the modulus of every
    nonzero closed-form entry.  ``m`` is one mode or a list of modes, as for
    :func:`siegel.laplace_eigenvalue`.
    """
    return np.exp(laplace_eigenvalue(p, m) / (4 * k))


def _clock_shift_columns(k, n, modes):
    """Row index and value of the one nonzero entry in each column of W_k(m).

    Columns are the labels a in lexicographic order; column a has its entry
    in row a + r mod k, with value exp(-pi i (r.s + 2 s.a)/k), the phase
    reduced exactly mod 2k.  Both arrays have shape (k^n,) for one mode and
    (M, k^n) for a list of M modes.
    """
    labels = np.indices((k,) * n).reshape(n, -1)
    r, s = _mode_arrays(modes, dtype=np.int64)
    rows = k ** np.arange(n - 1, -1, -1) @ ((r[..., None] + labels) % k)
    phase = (np.vecdot(r, s)[..., None] + 2 * s.dot(labels)) % (2 * k)
    return rows, np.exp(-1j * np.pi * phase / k)


@dataclass(frozen=True)
class WeylSymbol:
    """The level-k operator sum_m c_m W_k(m), kept as its mode coefficients.

    ``coeffs`` maps integer modes of dimension ``point.n`` to complex
    coefficients; zero coefficients are dropped.  Modes are not reduced mod
    k: congruent modes give the same W_k up to a sign, which products and
    pairings carry exactly.
    """

    k: int
    point: object
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficients(self.coeffs, self.n)[0])

    @classmethod
    def toeplitz(cls, p, k, f):
        """T_k(f) = sum c_m eta_k(m) W_k(m) of a finite Fourier combination."""
        return cls(k, p, {m: c * eta(p, k, m) for m, c in f.terms.items()})

    @property
    def n(self):
        return self.point.n

    def _check_level(self, other):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("operator shapes differ")

    def __sub__(self, other):
        self._check_level(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) - c
        return WeylSymbol(self.k, self.point, out)

    def __mul__(self, scalar):
        return WeylSymbol(
            self.k, self.point, {m: scalar * c for m, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product by the Weyl relation; O(M1 M2) at any level."""
        self._check_level(other)
        k = self.k

        def weight(omega):
            return cmath.exp(1j * math.pi * (omega % (2 * k)) / k)

        out = _mode_pair_sum(self.coeffs, other.coeffs, weight)
        return WeylSymbol(k, self.point, out)

    def adjoint(self):
        """W_k(m)* = W_k(-m), so the adjoint conjugates and negates modes."""
        return WeylSymbol(
            self.k, self.point, {-m: c.conjugate() for m, c in self.coeffs.items()}
        )

    def pair(self, other):
        """tr(A B*): k^n a_m conj(b_m') trace_pair_sign(k, m, m') summed over
        the componentwise congruent pairs m = m' mod k."""
        self._check_level(other)
        total = 0.0 + 0.0j
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                sign = trace_pair_sign(self.k, m1, m2)
                if sign:
                    total += c1 * c2.conjugate() * sign
        return complex(self.k**self.n * total)

    def to_dense(self):
        """The k^n x k^n matrix; refused above MAX_DENSE_DIM before allocation."""
        k, n = self.k, self.n
        dim = k**n
        if dim > MAX_DENSE_DIM:
            raise SizeLimitError(
                f"dense operator needs dimension k^n = {dim}, "
                f"above the {MAX_DENSE_DIM} limit"
            )
        entries = np.zeros((dim, dim), dtype=complex)
        if self.coeffs:
            rows, values = _clock_shift_columns(k, n, list(self.coeffs))
            cols = np.arange(dim)
            for row, value, c in zip(rows, values, self.coeffs.values()):
                entries[row, cols] += c * value
        return OperatorMatrix(k, n, entries)

    def _line(self):
        """``fourier._line_decomposition`` of the modes: (m0, powers) or None."""
        return _line_decomposition(self.coeffs)

    def norm(self):
        """Operator norm: exact on a line symbol (see the module docstring),
        else the dense SVD."""
        line = self._line()
        if line is None:
            return operator_norm(self.to_dense())
        m0, t = line
        c = np.array(list(self.coeffs.values()), dtype=complex)
        k, n = self.k, self.n
        r0s0 = sum(a * b for a, b in zip(m0[:n], m0[n:]))
        odd = (k * r0s0) % 2  # U^k = (-1)^odd I
        # the roots of lambda^k = (-1)^odd are exp(i pi (2j + odd) / k)
        angles = np.multiply.outer(2 * np.arange(k) + odd, t) % (2 * k)
        return float(np.max(np.abs(np.exp(1j * np.pi * angles / k) @ c)))


def _mode_symbol(p, k, m):
    """T_k(m) = eta_k(m) W_k(m) as a symbol."""
    m = FourierMode.coerce(m)
    return WeylSymbol(k, p, {m: eta(p, k, m)})


def toeplitz_mode_closed_form(p, k, m):
    """Matrix of the mode operator, eta_k(m) W_k(m), in closed form."""
    return _mode_symbol(p, k, m).to_dense()


def rescaled_toeplitz(p, k, m):
    """Matrix of the heat-rescaled mode: W_k(m), unitary and independent of Z.

    entry(b, a) = delta_{b, a + r mod k} exp(-pi i r.s / k) exp(-2 pi i s.a/k).
    """
    return WeylSymbol(k, p, {m: 1.0}).to_dense()


def toeplitz_modes_quadrature(p, k, modes, grid):
    """Quadrature matrices for several modes sharing one set of lattice terms.

    This is the independent oracle for the closed form: entry (b, a) is the
    normalized frame pairing of theta_a and theta_b under the grid weight
    F_{r,s}.
    """
    modes = [FourierMode.coerce(m) for m in modes]
    if not modes:
        return {}
    m_max = max(max(abs(x) for x in mm.r + mm.s) for mm in modes)
    _check_grid(p, k, grid, m_max=m_max, n_modes=len(modes))
    pairings = _frame_pairings(p, k, grid, modes)
    return {
        m: OperatorMatrix(k, p.n, pairing.T)
        for m, pairing in zip(modes, pairings)
    }


def toeplitz_mode_quadrature(p, k, m, grid):
    return toeplitz_modes_quadrature(p, k, [m], grid)[FourierMode.coerce(m)]


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
    if any((a - b) % k for a, b in zip(m1.r + m1.s, m2.r + m2.s)):
        return 0
    P = sum(map(operator.mul, m1.r, m1.s)) + sum(map(operator.mul, m2.r, m2.s))
    P -= 2 * sum(map(operator.mul, m1.s, m2.r))
    if P % k:
        raise ArithmeticError("pair phase of congruent modes is not a sign")
    return -1 if (P // k) % 2 else 1


def trace_pair_closed_form(p, k, m1, m2):
    """tr(T_{m1} (T_{m2})*) = eta(m1) eta(m2) tr(W_k(m1) W_k(m2)*).

    The last factor is the symbol pairing: zero unless (r,s) = (t,u) mod k
    componentwise, otherwise k^n times the exact sign (-1)^(P/k) of
    :func:`trace_pair_sign`.  ``m1`` and ``m2`` are each one mode or a
    list of modes; the result is k^n sign eta(m1) eta(m2), 0 off the
    congruent pairs, as a complex for two modes and else as a complex
    array of shape (M1, M2), (M1,) or (M2,).
    """
    l1, l2 = (m if isinstance(m, list) else [m] for m in (m1, m2))
    signs = np.array([[trace_pair_sign(k, a, b) for b in l2] for a in l1])
    closed = (k**p.n * signs * eta(p, k, l1)[:, None] * eta(p, k, l2)).astype(complex)
    shape = [len(m) for m in (m1, m2) if isinstance(m, list)]
    return closed.reshape(shape) if shape else complex(closed[0, 0])


def bms_experiment(p, f, k_values):
    """Operator norms against sup |f| across levels.

    Returns rows ``{k, norm, sup, error, sup_gap, sup_method}``; the errors
    shrink like 1/k as the Gaussian damping of each mode relaxes toward 1.
    The sup comes from the modes of f (:func:`fourier.sup_abs`): for a line
    function it is the maximum over one angle, for any other function a
    certified coarse-grid search plus Newton over the 2n angles; either way
    sup <= sup |f| <= sup + sup_gap.  The norms come first, so a level that
    needs a refused dense matrix stops the run before the sup.
    """
    norms = [WeylSymbol.toeplitz(p, k, f).norm() for k in k_values]
    sup = sup_abs(f)
    return [
        {"k": int(k), "norm": nrm, "sup": sup.value, "error": abs(nrm - sup.value),
         "sup_gap": sup.gap, "sup_method": sup.method}
        for k, nrm in zip(k_values, norms)
    ]


def loglog_order(ks, errs):
    """Fitted decay order of err ~ k^-p (least squares on the log-log cloud)."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    good = errs > 0
    if good.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(ks[good]), np.log(errs[good]), 1)[0]
    return float(-slope)


# Highest power of 1/k in every expansion fit
_FIT_ORDER = 3


def _inverse_power_fit(k_values, sample):
    """Least-squares fit of ``sample(k)`` ~ sum_{l <= _FIT_ORDER} c_l k^-l.

    ``sample(k)`` returns one value per fitted series at level k.  Returns
    the coefficients (row l holds c_l of every series) and the condition
    number of the Vandermonde matrix in 1/k.
    """
    if len(k_values) < _FIT_ORDER + 2:
        raise ValueError(f"need at least {_FIT_ORDER + 2} levels for the fit")
    samples = np.asarray([sample(k) for k in k_values], dtype=complex)
    x = 1.0 / np.asarray(k_values, dtype=float)
    V = np.vander(x, N=_FIT_ORDER + 1, increasing=True)
    coefficients, *_ = np.linalg.lstsq(V, samples, rcond=None)
    sv = np.linalg.svd(V, compute_uv=False)
    return coefficients, float(sv[0] / sv[-1])


@dataclass
class ProductExpansionFit:
    """Per-mode polynomial fit of T_f T_g in inverse powers of the level."""

    k_values: tuple
    coefficients: list  # FourierFunction estimates of c_0 .. c_L
    c0_residual_norms: list = field(default_factory=list)
    c0_fit_order: float = float("nan")
    condition_number: float = float("nan")
    ill_conditioned: bool = False


def product_expansion_fit(p, f, g, k_values):
    """Fit the expansion T_f T_g ~ sum_l T_{c_l} k^{-l} from measured matrices.

    For every output mode the product matrix is projected onto the mode
    operator (orthogonal for distinct small modes under the pair trace) and
    the resulting scalar sequence is regressed on powers of 1/k.  Needs
    len(k_values) >= _FIT_ORDER + 2 and min(k) large enough that distinct output
    modes are incongruent.
    """
    k_values = tuple(int(k) for k in k_values)
    out_modes = sorted(
        {m1 + m2 for m1 in f.terms for m2 in g.terms},
        key=lambda m: (m.r, m.s),
    )
    fg = f * g
    c0_norms = []

    def sample(k):
        prod = WeylSymbol.toeplitz(p, k, f) @ WeylSymbol.toeplitz(p, k, g)
        c0_norms.append((prod - WeylSymbol.toeplitz(p, k, fg)).norm())
        out = []
        for m in out_modes:
            B = _mode_symbol(p, k, m)
            out.append(prod.pair(B) / B.pair(B))
        return out

    coeff_rows, cond = _inverse_power_fit(k_values, sample)
    coefficients = [
        FourierFunction(dict(zip(out_modes, row)), n=f.n)
        for row in coeff_rows
    ]
    return ProductExpansionFit(
        k_values=k_values,
        coefficients=coefficients,
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


def c1_antisymmetry_constant(p, f, g, k_values):
    """Measure the global constant linking fitted c_1 antisymmetry to {f, g}.

    Fits both orderings, forms c_1(f,g) - c_1(g,f), and scales the
    Poisson-bracket operator onto it in the Hilbert-Schmidt sense.  The
    returned ``constant`` is the measured ratio against -i {f, g}.
    """
    fit_fg = product_expansion_fit(p, f, g, k_values)
    fit_gf = product_expansion_fit(p, g, f, k_values)
    anti = fit_fg.coefficients[1] - fit_gf.coefficients[1]
    kmax = max(k_values)
    A = WeylSymbol.toeplitz(p, kmax, anti)
    B = WeylSymbol.toeplitz(p, kmax, poisson_bracket(f, g))
    gamma = A.pair(B) / B.pair(B)
    resid = (A - gamma * B).norm() / max(A.norm(), 1e-300)
    return C1Comparison(
        gamma=gamma,
        constant=gamma / (-1j),
        relative_residual=float(resid),
        condition_number=max(fit_fg.condition_number, fit_gf.condition_number),
    )
