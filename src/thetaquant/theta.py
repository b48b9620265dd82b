"""Level-k theta functions as certified truncated lattice sums.

The quantum space at level k over a Siegel point Z has the orthogonal frame

    theta_a(z, Z) = sum_{l in Z^n} exp(pi i k (l+a).Z(l+a)) exp(2 pi i k (l+a).z)

indexed by a in (1/k)Z^n / Z^n.  Sums are truncated to a lattice window
centred on the minimiser of the Gaussian factor, with a radius certified
against the requested tail bound; term-wise differentiation gives the z- and
Z-derivatives.  Z-derivatives use the symmetric-matrix convention of
:mod:`thetaquant.siegel`, under which the heat identity reads

    d theta / dZ_ij = (2 - delta_ij) / (4 pi i k) d^2 theta / dz_i dz_j.

Each point's terms are summed divided by the power of two 2^e that puts the
largest term of its window in [1, 2), so no term overflows at any level;
theta_eval multiplies back exactly and refuses a value beyond float range.
Both sides of the heat identity, and its fourth-order stencil in Z, are
summed over one certified window (:func:`heat_residuals`), so one window
serves both heat verdicts.
A window holds (2r + 1)^n lattice points; one whose arrays would pass the
1 GiB limit of ``fourier.check_bytes``, as at n = 10, is refused with
SizeLimitError before allocation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import check_bytes
from .siegel import _delta

__all__ = [
    "ThetaLabel",
    "theta_basis",
    "Derivative",
    "TruncationPolicy",
    "TruncationError",
    "truncation_radius",
    "theta_eval",
    "heat_residuals",
    "quasi_periodicity_residual",
    "multiplier",
    "hermitian_weight",
]

DEFAULT_EPSILON = 1e-12  # the package's truncation tail


@dataclass(frozen=True)
class ThetaLabel:
    """Frame label a/k with integer vector a, 0 <= a_i < k."""

    k: int
    a: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in (self.a if not np.isscalar(self.a) else (self.a,)))
        if self.k < 1:
            raise ValueError("level k must be >= 1")
        if any(x < 0 or x >= self.k for x in a):
            raise ValueError(f"label entries must lie in [0, {self.k}), got {a}")
        object.__setattr__(self, "a", a)

    @property
    def n(self):
        return len(self.a)

    @property
    def alpha(self):
        return np.array(self.a, dtype=float) / self.k


def theta_basis(k, n):
    """All k^n frame labels in lexicographic order of a."""
    return [ThetaLabel(k, a) for a in itertools.product(range(k), repeat=n)]


@dataclass(frozen=True)
class Derivative:
    """Term-wise derivative selector for theta evaluation."""

    kind: str
    i: int = 0
    j: int = 0

    _KINDS = ("value", "dz", "dz2", "dZ")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")

    @classmethod
    def value(cls):
        return cls("value")

    @classmethod
    def dz(cls, i):
        return cls("dz", i)

    @classmethod
    def dz2(cls, i, j):
        return cls("dz2", i, j)

    @classmethod
    def dZ(cls, i, j):
        return cls("dZ", i, j)


@dataclass(frozen=True)
class TruncationPolicy:
    """Certified lattice window: tail beyond ``radius`` is below ``epsilon``.

    The certificate is relative to the Gaussian peak factor
    exp(pi k v.Y^-1 v), v = Im z, which is 1 for real z.
    """

    epsilon: float
    radius: float
    k: int
    n: int
    min_eig: float

    def compatible(self, p, k):
        return (
            self.k == k
            and self.n == p.n
            and p.min_eig_Y >= self.min_eig - 1e-12
        )


class TruncationError(ValueError):
    """Raised when no lattice radius up to the search limit certifies the
    tail bound: Y is too close to singular for the level and epsilon."""


def _poly_factor(sel, k, n, rho):
    """Upper bound for the term-wise derivative factor at lattice distance rho."""
    c = rho + 2.0
    if sel.kind == "value":
        return 1.0
    if sel.kind == "dz":
        return 2 * np.pi * k * math.sqrt(n) * c
    if sel.kind == "dz2":
        return (2 * np.pi * k * math.sqrt(n) * c) ** 2
    return 2 * np.pi * k * n * c * c  # dZ


def truncation_radius(p, k, epsilon, sel=Derivative.value()):
    """Smallest integer radius whose certified Gaussian tail is below epsilon.

    The tail over lattice points at sup-distance >= R from the window centre
    is bounded shell by shell using the smallest eigenvalue of Y; derivative
    selectors contribute a polynomial growth factor absorbed by the same
    Gaussian decay.  The radius is non-increasing in k and non-decreasing as
    epsilon shrinks.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = p.min_eig_Y
    n = p.n
    for R in range(1, 81):
        tail = 0.0
        for j in range(R, R + 400):
            shell = 2 * n * (2 * j + 2) ** (n - 1)
            term = shell * _poly_factor(sel, k, n, j) * math.exp(
                -np.pi * k * lam * j * j
            )
            tail += term
            if term < epsilon * 1e-8:
                break
        if tail < epsilon:
            return TruncationPolicy(
                epsilon=float(epsilon),
                radius=float(R),
                k=int(k),
                n=n,
                min_eig=lam,
            )
    raise TruncationError(
        f"no certifiable truncation radius below 80 at k={k}: smallest "
        f"eigenvalue of Y {lam:.3g} is too small for epsilon {epsilon:g}"
    )


def _window_nodes(p, policy):
    """The window's radius r and its (2r + 1)^n lattice points."""
    r = int(math.ceil(policy.radius))
    return r, (2 * r + 1) ** p.n


def _window_bytes(n, nodes, evaluations):
    """Bytes :func:`_window` and one evaluation's terms hold: the offsets
    and their indices (16n bytes a node); per evaluation u and its shifted
    copy (16n), log |term| (8) and four complex arrays: the linear phases,
    their scaled copy, the quadratic form and the terms."""
    return nodes * (16 * n + evaluations * (16 * n + 72))


def _window(p, label, z, policy):
    """Lattice windows u = l + alpha of the evaluations at z, one point or a
    stack (P, n), centred on each point's Gaussian minimiser: shape (P, L, n),
    their linear phases 2 pi i k u.z - e ln 2, shape (P, L), and each point's
    scale exponent e, shape (P,).  A z with a non-finite entry is refused
    with ValueError."""
    if not policy.compatible(p, label.k):
        raise ValueError(
            "truncation policy was certified for a different (level, point)"
        )
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.ndim != 2 or z.shape[1] != p.n:
        raise ValueError(f"z must be one point or a stack (P, n), n = {p.n}")
    if not np.isfinite(z).all():
        raise ValueError("z has a non-finite entry")
    alpha, k = label.alpha, label.k
    peaks = np.array([p.Yinv @ v for v in z.imag])  # Y^-1 v, v = Im z
    centers = np.rint(-alpha - peaks)
    r, nodes = _window_nodes(p, policy)
    check_bytes(_window_bytes(p.n, nodes, len(z)), "theta window",
                f"{nodes} lattice points (radius {r}, n = {p.n})")
    offsets = np.indices((2 * r + 1,) * p.n).reshape(p.n, -1).T - r
    u = offsets + centers[:, None, :] + alpha
    # log |term| = -pi k u.Y(u + 2 Y^-1 v) does not depend on X, so every
    # stencil point Z + tD shares e
    log_mod = -np.pi * k * np.einsum("pli,ij,plj->pl", u + 2 * peaks[:, None], p.Y, u)
    e = np.floor(log_mod.max(axis=1) / math.log(2))
    # one matrix-vector product per row: the rounding of every row is that
    # of a single evaluation
    lin = 2j * np.pi * k * np.stack([uz @ zz for uz, zz in zip(u, z)])
    return u, lin - (e * math.log(2))[:, None], e


def _phases(Z, k, u, lin):
    """Lattice terms exp(pi i k u.Z u + lin) over the windows u; the stack
    axes of Z (..., n, n) lead.  The terms (u_i Z_ij) u_j are added in
    row-major order, the same at every stack position."""
    n = u.shape[-1]
    quad = sum(
        u[..., i] * Z[..., i, j, None, None] * u[..., j]
        for i, j in itertools.product(range(n), repeat=2)
    )
    return np.exp(1j * np.pi * k * quad + lin)


def _term_factors(sel, k, u):
    if sel.kind == "value":
        return np.ones(u.shape[:-1])
    if sel.kind == "dz":
        return 2j * np.pi * k * u[..., sel.i]
    if sel.kind == "dz2":
        return (2j * np.pi * k) ** 2 * u[..., sel.i] * u[..., sel.j]
    sym = 1.0 if sel.i == sel.j else 2.0
    return 1j * np.pi * k * sym * u[..., sel.i] * u[..., sel.j]


def _termwise(sels, k, u, phases):
    """Term-wise sums of every selector in ``sels``: shape (P, len(sels))."""
    factors = np.stack([_term_factors(sel, k, u) for sel in sels], axis=-2)
    return np.sum(factors * phases[..., None, :], axis=-1)


def _abs(z):
    """|z| elementwise, rounded as the builtin ``abs`` of a complex."""
    return np.hypot(z.real, z.imag)


def _divide(a, b):
    """a / b elementwise for a real b, rounded as the builtin complex
    division of one value: both parts divided by b, not multiplied by 1/b."""
    return a.real / b + 1j * (a.imag / b)


def theta_eval(p, label, z, sel=Derivative.value(), policy=None):
    """Evaluate a theta frame element (or a term-wise derivative) at z.

    ``z`` is a complex n-vector (scalar for n = 1).  With no policy the tail
    is DEFAULT_EPSILON.  The absolute truncation error is below
    policy.epsilon times the Gaussian peak factor exp(pi k Im(z).Y^-1 Im(z)).
    The scaled sum is multiplied back by 2^e exactly; a value beyond the
    float range raises OverflowError, never inf or NaN.
    """
    k = label.k
    if policy is None:
        policy = truncation_radius(p, k, DEFAULT_EPSILON, sel)
    u, lin, (e,) = _window(p, label, z, policy)
    value, e = _termwise([sel], k, u, _phases(p.Z, k, u, lin))[0, 0], int(e)
    try:
        return complex(math.ldexp(value.real, e), math.ldexp(value.imag, e))
    except OverflowError:
        raise OverflowError(f"theta value at level k={k} is beyond the float "
                            f"range: 2^{e} x {abs(value):.3g}") from None


def heat_residuals(p, label, z, pairs):
    """Termwise and fd residuals of the heat identity, shape (2, P, S).

    Row 0 differentiates in Z term by term, so the identity holds term by
    term and the residual is at rounding level; row 1 takes a fourth-order
    central stencil in the entry pair (i, j), (j, i) together.  Each is
    |dZ theta - (2 - delta_ij)/(4 pi i k) dzi dzj theta| over the larger
    side, floored at pi k |theta| (the generic size of a Z-derivative, so a
    near-critical point cannot inflate the quotient past the noise floor),
    at the P points of ``z`` (one point or a stack (P, n)) and the S
    ``pairs`` (i, j).

    One window serves both verdicts: one certificate at DEFAULT_EPSILON for
    dz2 (its factor does not depend on i and j), one window per point and
    one term-wise pass for every dZ, every dz2 and the value.  The stencil
    moves X only, so the window, the truncation and the scale 2^e are the
    same at every stencil point and on both sides.  The step
    h = 1e-4 min(1, 8/k) shrinks like 1/k above k = 8, as the stencil's
    error grows like (hk)^4.  The window and the stencil's and the pass's
    arrays are refused together, with SizeLimitError, before allocation.
    """
    k = label.k
    policy = truncation_radius(p, k, DEFAULT_EPSILON, Derivative.dz2(0, 0))
    r, nodes = _window_nodes(p, policy)
    P, S = len(np.atleast_2d(z)), len(pairs)
    # beside the window: three (4, S, P, L) complex arrays of the stencil's
    # phases and their quadratic form, which bound the term-wise pass's
    # (P, 2S + 1, L) factor stack and its product with the phases, and the
    # ufunc buffers of a cast
    check_bytes(_window_bytes(p.n, nodes, P) + 192 * S * P * nodes + 48 * np.getbufsize(),
                "theta window", f"{nodes} lattice points (radius {r}, n = {p.n}) with "
                f"the heat stencil of {P} points and {S} entry pairs")
    u, lin, _ = _window(p, label, z, policy)
    # one pass for every dZ, every dz2 and the value, each row summed alone
    sums = _termwise([Derivative.dZ(a, b) for a, b in pairs]
                     + [Derivative.dz2(i, j) for i, j in pairs] + [Derivative.value()],
                     k, u, _phases(p.Z, k, u, lin))
    exact, d2, theta = sums[:, :S], sums[:, S:-1], _abs(sums[:, -1:])
    h = 1e-4 * min(1, 8 / k)
    D = np.stack([_delta(p.n, a, b) for a, b in pairs])
    stencil = p.Z + np.multiply.outer([-2 * h, -h, h, 2 * h], D)
    th = np.sum(_phases(stencil, k, u, lin), axis=-1)  # (4, S, P)
    fd = _divide(th[0] - 8 * th[1] + 8 * th[2] - th[3], 12 * h).T
    lhs = np.stack([exact, fd])
    sym = np.array([1.0 if i == j else 2.0 for i, j in pairs])
    # a / (i b) = (-i a) / b, and -i a is exact
    rhs = _divide(-1j * (sym * d2), 4 * np.pi * k)
    scale = np.maximum(np.maximum(_abs(lhs), _abs(rhs)), np.pi * k * theta)
    return _abs(lhs - rhs) / np.maximum(scale, 1e-300)


def multiplier(p, b, z):
    """Line-bundle multiplier for the lattice vector a + Zb at the point z.

    Only the Zb part acts: e(z) = exp(-2 pi i b.z - pi i b.Zb).  The basis
    values are 1 for the x-directions and exp(-2 pi i z_i - pi i Z_ii) for
    the Z-directions; general vectors follow from the cocycle rule.
    """
    b = np.asarray(b, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return complex(np.exp(-2j * np.pi * (b @ z) - 1j * np.pi * (b @ p.Z @ b)))


def _lattice_vector(p, index):
    """Lattice basis vector ``index`` as (shift, b): shift = a + Zb.

    Index i < n is the x-direction e_i (b = 0, multiplier 1); index n + i is
    the Z-direction Z e_i (b = e_i).
    """
    n = p.n
    if not 0 <= index < 2 * n:
        raise ValueError("lattice_index out of range")
    a = np.zeros(n)
    b = np.zeros(n)
    (a if index < n else b)[index % n] = 1.0
    return a + p.Z @ b, b


def hermitian_weight(p, y):
    """Fibre metric weight h = exp(-2 pi y.Y y) in real torus coordinates."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(np.exp(-2 * np.pi * (y @ p.Y @ y)))


def quasi_periodicity_residual(p, label, z, lattice_index):
    """Relative defect of the lattice transformation law at tensor power k.

    For an x-direction (index < n) the theta value is 1-periodic; for a
    Z-direction (index n + i) it transforms by the k-th power of the
    multiplier.  Returns |theta(z + lam) - m^k theta(z)| over the larger of
    the two magnitudes, as |1 - rho| / max(1, |rho|) for the ratio
    rho = m^k theta(z) / theta(z + lam).  Both sides may lie beyond float
    range, so rho is formed from exp(k log m), the two scaled window sums
    and their 2^e exponents, and never from the values themselves.
    """
    k = label.k
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    shift, b = _lattice_vector(p, lattice_index)
    u, lin, e = _window(p, label, np.stack([z + shift, z]),
                        truncation_radius(p, k, DEFAULT_EPSILON))
    shifted, base = _termwise([Derivative.value()], k, u, _phases(p.Z, k, u, lin))[:, 0]
    # m^k = exp(k log m): a log off by 2 pi i n is exact for integer k
    log_mk = k * np.log(multiplier(p, b, z))
    rho = complex(np.exp(log_mk + (e[1] - e[0]) * math.log(2)) * base / shifted)
    return abs(1 - rho) / max(1.0, abs(rho))
