"""Pure phase functions on the torus R^{2n}/Z^{2n} and their finite combinations.

The building blocks are the phases

    F_{r,s}(x, y) = exp(2 pi i (x.r + s.y)),   (r, s) integer n-vectors,

which form an orthonormal basis of L^2 of the torus with unit cell [0,1)^{2n}.
Finite complex combinations of them stand in for smooth functions throughout
the package.  The Poisson bracket below is the one induced by the symplectic
form omega = sum_i dx_i ^ dy_i.  Quadratures, sup grids and the dense
stacks and columns of the pointwise runners are sized before allocation
and refused above MAX_FRAME_BYTES (1 GiB) by :func:`check_bytes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FourierMode",
    "FourierFunction",
    "poisson_bracket",
    "fourier_eval",
    "SupBound",
    "sup_abs",
    "dense_max_abs",
    "SizeLimitError",
    "check_bytes",
]

MAX_FRAME_BYTES = 1 << 30  # largest working set of any one array computation


class SizeLimitError(ValueError):
    """Raised, before allocation, for an array above its fixed size limit."""


def check_bytes(size, what, where):
    """Refuse, before allocation, ``size`` bytes above MAX_FRAME_BYTES."""
    if size > MAX_FRAME_BYTES:
        raise SizeLimitError(f"{what} needs {size / 2**30:.3g} GiB at {where}, "
                             f"above the {MAX_FRAME_BYTES / 2**30:g} GiB limit")


def _int_tuple(v):
    if type(v) is tuple and all(type(x) is int for x in v):
        return v  # already the canonical form; bool is not int here
    if np.isscalar(v):
        v = (v,)
    out = tuple(int(x) for x in v)
    for x, orig in zip(out, v):
        if x != orig:
            raise ValueError(f"mode entries must be integers, got {orig!r}")
    return out


@dataclass(frozen=True, order=True)
class FourierMode:
    """Integer frequency pair (r, s) labelling the phase F_{r,s}; sorts by r + s."""

    r: tuple
    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", _int_tuple(self.r))
        object.__setattr__(self, "s", _int_tuple(self.s))
        if len(self.r) != len(self.s):
            raise ValueError("r and s must have equal length")

    @classmethod
    def coerce(cls, m):
        """``m`` itself when it is a mode, else the mode of an ``(r, s)`` pair."""
        return m if isinstance(m, cls) else cls(*m)

    @property
    def n(self):
        return len(self.r)

    def __neg__(self):
        return FourierMode(tuple(-a for a in self.r), tuple(-a for a in self.s))

    def __add__(self, other):
        if self.n != other.n:  # zip would cut the longer mode
            raise ValueError(f"modes of dimensions {self.n} and {other.n}")
        return FourierMode(
            tuple(a + b for a, b in zip(self.r, other.r)),
            tuple(a + b for a, b in zip(self.s, other.s)),
        )

    def symplectic_pairing(self, other):
        """r.u - s.t for self=(r,s), other=(t,u); an exact integer."""
        if len(self.r) != len(other.r):  # zip would cut the longer mode
            raise ValueError(f"modes of dimensions {self.n} and {other.n}")
        return sum(a * b for a, b in zip(self.r, other.s)) - sum(
            a * b for a, b in zip(self.s, other.r)
        )


def _mode_arrays(modes, dtype=float):
    """(r, s) of one mode as arrays of shape (n,), or of a list of M modes as
    arrays of shape (M, n).  One mode is a :class:`FourierMode` or an
    ``(r, s)`` pair; only a list is read as several modes.

    A mode table, a signed integer array of shape (M, 2n) whose rows are
    r + s, is split into its two halves as views, with nothing coerced or
    converted; integer entries give the same results as their float copies
    in every caller.  Any other array is refused."""
    if isinstance(modes, np.ndarray):
        if modes.dtype.kind != "i" or modes.ndim != 2 or modes.shape[1] % 2:
            raise ValueError("a mode table is a signed integer array of shape (M, 2n), "
                             f"got {modes.dtype} of shape {modes.shape}")
        rs = modes
    elif isinstance(modes, list):
        rs = np.array([m.r + m.s for m in map(FourierMode.coerce, modes)], dtype=dtype)
    else:
        m = FourierMode.coerce(modes)
        rs = np.array(m.r + m.s, dtype=dtype)
    n = rs.shape[-1] // 2
    return rs[..., :n], rs[..., n:]


def _mode_table(modes):
    """The (M, 2n) integer table of a list of modes (FourierModes or (r, s)
    pairs), rows r + s, built once for the spectral functions; a table is
    returned as it is."""
    if isinstance(modes, np.ndarray):
        return modes
    return np.array([m.r + m.s for m in map(FourierMode.coerce, modes)], dtype=np.int64)


def _coefficients(terms, n=None):
    """``terms`` as a dict from :class:`FourierMode` to nonzero complex
    coefficients, and its mode dimension.

    Keys are modes or ``(r, s)`` pairs; keys that name the same mode add up.
    Every mode must have dimension ``n``, which is read off the modes when
    it is None.
    """
    data = {}
    for mode, coeff in dict(terms).items():
        mode = FourierMode.coerce(mode)
        coeff = complex(coeff)
        if coeff != 0:
            data[mode] = data.get(mode, 0.0) + coeff
    dims = {m.n for m in data}
    if len(dims) > 1:
        raise ValueError(f"mixed mode dimensions {dims}")
    if n is None:
        if not dims:
            raise ValueError("empty function needs an explicit dimension n")
        n = dims.pop()
    elif dims and dims.pop() != n:
        raise ValueError(f"mode dimension does not match n = {n}")
    return data, n


def _mode_pair_sum(a, b, weight):
    """sum of a_m1 b_m2 weight(omega(m1, m2)) at the mode m1 + m2.

    ``a`` and ``b`` map modes to coefficients and omega is the integer
    symplectic pairing.  Every product of phases is this sum with its own
    weight: 1 for the pointwise product, -4 pi^2 omega for the Poisson
    bracket, (2 pi^2 i omega)^j / j! for order j of the Moyal product and
    exp(i pi omega / k) for the Weyl relation at level k.
    """
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = out.get(m, 0.0) + c1 * c2 * weight(m1.symplectic_pairing(m2))
    return out


class FourierFunction:
    """Finite combination sum_m lambda_m F_m with complex coefficients.

    Instances are immutable; all arithmetic returns new objects.  Zero
    coefficients are dropped at construction.
    """

    __slots__ = ("_terms", "_n")

    def __init__(self, terms, n=None):
        self._terms, self._n = _coefficients(terms, n)

    @classmethod
    def mode(cls, r, s, coeff=1.0):
        return cls({FourierMode(r, s): coeff})

    @classmethod
    def constant(cls, value, n=1):
        z = (0,) * n
        return cls({FourierMode(z, z): value}, n=n)

    @classmethod
    def zero(cls, n=1):
        return cls({}, n=n)

    @property
    def n(self):
        return self._n

    @property
    def terms(self):
        return dict(self._terms)

    def modes(self):
        return list(self._terms)

    def coefficient(self, mode):
        return self._terms.get(FourierMode.coerce(mode), 0.0 + 0.0j)

    def conjugate(self):
        return FourierFunction(
            {-m: np.conj(c) for m, c in self._terms.items()}, n=self._n
        )

    def approx_eq(self, other, tol=1e-12):
        for m in set(self._terms) | set(other._terms):
            if abs(self.coefficient(m) - other.coefficient(m)) > tol:
                return False
        return True

    def __add__(self, other):
        if np.isscalar(other):
            other = FourierFunction.constant(other, n=self._n)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0.0) + c
        return FourierFunction(out, n=self._n)

    __radd__ = __add__

    def __neg__(self):
        return FourierFunction(
            {m: -c for m, c in self._terms.items()}, n=self._n
        )

    def __sub__(self, other):
        if np.isscalar(other):
            other = FourierFunction.constant(other, n=self._n)
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other):
            return FourierFunction(
                {m: other * c for m, c in self._terms.items()}, n=self._n
            )
        return FourierFunction(
            _mode_pair_sum(self._terms, other._terms, lambda omega: 1), n=self._n
        )

    __rmul__ = __mul__

    def __call__(self, x, y):
        return fourier_eval(self, x, y)

    def __repr__(self):
        inner = ", ".join(
            f"F[{m.r},{m.s}]*{c:.6g}" for m, c in sorted(
                self._terms.items(), key=lambda kv: (kv[0].r, kv[0].s)
            )
        )
        return f"FourierFunction({inner or '0'})"


def fourier_eval(f, x, y):
    """Evaluate sum lambda_{r,s} e^{2 pi i (x.r + s.y)} at a point (x, y).

    ``x`` and ``y`` are real n-vectors (scalars for n = 1); the result is
    1-periodic in every coordinate.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    total = 0.0 + 0.0j
    for m, c in f.terms.items():
        total += c * np.exp(2j * np.pi * (x @ np.array(m.r) + np.array(m.s) @ y))
    return total


def poisson_bracket(f, g):
    """{f, g} for omega = sum dx_i ^ dy_i.

    On phases {F_{r,s}, F_{t,u}} = -4 pi^2 (r.u - s.t) F_{r+t, s+u}, extended
    bilinearly; antisymmetric, satisfies the Jacobi identity.
    """
    return FourierFunction(
        _mode_pair_sum(f.terms, g.terms, lambda omega: -4 * np.pi**2 * omega), n=f.n
    )


def _line_decomposition(modes):
    """(m0, t) when every mode is t_j m0 for one primitive integer m0; else None.

    ``m0`` is the 2n-vector (r0, s0) (zero when every mode is zero) and ``t``
    the integer powers t_j, aligned with ``modes``.  A function of such modes
    depends on (x, y) only through the angle m0.(x, y), which covers the
    circle because m0 is primitive; the operator of such a symbol is a
    polynomial in the one unitary W_k(m0).
    """
    vectors = [m.r + m.s for m in modes]
    base = next((v for v in vectors if any(v)), vectors[0] if vectors else ())
    g = math.gcd(*base) or 1
    m0 = tuple(a // g for a in base)
    i = next((j for j, a in enumerate(m0) if a), None)
    powers = [0 if i is None else v[i] // m0[i] for v in vectors]
    if any(v != tuple(t * a for a in m0) for v, t in zip(vectors, powers)):
        return None
    return m0, np.array(powers, dtype=np.int64)


_NODES_PER_DEGREE = 8  # coarse sup grid: nodes per axis per unit of degree
_NEWTON_STEPS = 8
_NEWTON_STARTS = 64
# pinv inverts the singular values above _PINV_RTOL times the largest, which
# are normal floats, with finite inverses, once the largest entry is at least
# _PINV_FLOOR (a symmetric matrix's norm is at least its largest entry)
_PINV_RTOL = 1e-15
_PINV_FLOOR = np.finfo(float).tiny / _PINV_RTOL
_EPS = np.finfo(float).eps


def _trig_derivatives(c, t, theta):
    """P, grad P and Hessian of P(theta) = sum_j c_j e^{2 pi i t_j.theta}
    at each row of ``theta``."""
    w = np.exp(2j * np.pi * (theta @ t.T)) * c
    tau = 2 * np.pi * t
    return (
        w.sum(axis=1),
        1j * (w @ tau),
        -np.einsum("sj,jd,je->sde", w, tau, tau),
    )


def _trig_max(c, t):
    """max |P| over T^D for P(theta) = sum_j c_j e^{2 pi i t_j.theta}, certified.

    ``c`` holds M complex coefficients and ``t`` the M x D integer
    frequencies (or M integer powers, D = 1).  |P| is evaluated on the grid
    of N_d = 8 deg_d nodes on each axis d (one FFT); Newton steps on |P|^2
    then climb from the grid's local maxima near the top.  Returns
    ``(value, gap)`` with max |P| <= value + gap in exact arithmetic.
    ``value`` is |P| at a point, as evaluated in floats, so it is below
    max |P| but for the rounding of that evaluation, which can put it a few
    ulps above.  For the gap: at the maximiser theta* of |P|,
    g = Re(conj(u) P) with u the phase of P(theta*) has zero gradient and
    g <= |P|, so the nearest node (|delta_d| <= 1/2N_d) has
    |P| >= max |P| - bound, bound = (pi^2/2) sum_j |c_j| (sum_d |t_jd|/N_d)^2.
    The grid values and the bound are rounded, so the gap also holds their
    rounding, and value + gap is rounded up.
    """
    c = np.asarray(c, dtype=complex)
    t = np.asarray(t, dtype=np.int64)
    t = t[:, None] if t.ndim == 1 else t
    t = t[:, np.any(t != 0, axis=0)]  # drop the axes P does not depend on
    if t.shape[1] == 0:
        # np.abs, as for the grid values: the builtin abs can differ by an ulp
        return float(np.abs(c.sum())), 0.0
    # the Hessian scales like |c|^2, so its pseudo-inverse overflows for tiny
    # coefficients: search with c / 2^e, largest modulus in [1/2, 1), which
    # rounds nothing, and scale the value and gap back
    _, e = math.frexp(float(np.abs(c).max()))
    c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
    shape = tuple(_NODES_PER_DEGREE * int(d) for d in np.max(np.abs(t), axis=0))
    # complex spectrum and ifftn, float |P|, boolean mask, one rolled copy
    check_bytes(math.prod(shape) * (16 + 16 + 8 + 1 + 8), "sup grid", f"{shape} nodes")
    spectrum = np.zeros(shape, dtype=complex)
    np.add.at(spectrum, tuple((t % shape).T), c)
    values = np.abs(np.fft.ifftn(spectrum)) * spectrum.size
    grid_max = float(values.max())
    bound = float(np.pi**2 / 2 * np.abs(c) @ ((np.abs(t) / shape).sum(axis=1)) ** 2)
    # the node nearest theta* reads at least max |P| - bound >= grid_max - bound
    peak = values >= grid_max - bound
    for axis in range(len(shape)):
        for shift in (1, -1):
            peak &= values >= np.roll(values, shift, axis=axis)
    starts = np.flatnonzero(peak)
    starts = starts[np.argsort(values.ravel()[starts])[::-1][:_NEWTON_STARTS]]
    theta = np.stack(np.unravel_index(starts, shape), axis=1) / np.array(shape)
    for _ in range(_NEWTON_STEPS):
        P, dP, d2P = _trig_derivatives(c, t, theta)
        grad = 2 * (P.conj()[:, None] * dP).real
        hess = 2 * (dP.conj()[:, :, None] * dP[:, None, :]
                    + P.conj()[:, None, None] * d2P).real
        # a Hessian below the floor, as when every coefficient but the
        # constant is subnormal, takes no Newton step: pinv would overflow
        step = np.zeros_like(theta)
        big = np.abs(hess).max(axis=(1, 2)) >= _PINV_FLOOR
        step[big] = (np.linalg.pinv(hess[big], rtol=_PINV_RTOL, hermitian=True)
                     @ grad[big][..., None])[..., 0]
        trial = theta - step
        # where Newton finds nothing better, as at a critical node, step a quarter cell
        stalled = np.abs(_trig_derivatives(c, t, trial)[0]) <= np.abs(P)
        trial[stalled] = theta[stalled] + 0.25 / np.array(shape)
        better = np.abs(_trig_derivatives(c, t, trial)[0]) > np.abs(P)
        if not better.any():
            break
        theta[better] = trial[better]
    value = float(np.abs(_trig_derivatives(c, t, theta)[0]).max())
    # An FFT node is sum_j c_j w_j, each w_j a product of unit twiddles along
    # one path of radix passes, so it rounds by at most a few eps per unit of
    # the radices (whose sum is at most sum_d N_d) times sum_j |c_j|; the
    # bound's M-term sum rounds by at most (M + D + 8) eps of itself.
    rounding = _EPS * (8 * (sum(shape) + 4) * float(np.abs(c).sum())
                       + (len(c) + len(shape) + 8) * bound)
    upper = (grid_max + bound + rounding) * (1 + 4 * _EPS)
    value, upper = math.ldexp(value, e), math.nextafter(math.ldexp(upper, e), math.inf)
    return value, math.nextafter(max(upper - value, 0.0), math.inf)


class SupBound(NamedTuple):
    """sup |f| from the modes of f: sup |f| <= value + gap, and value is
    |f| at a point, below sup |f| but for its own rounding."""

    value: float
    gap: float
    method: str  # "line": one angle; "torus": all 2n angles


def sup_abs(f):
    """sup |f| over the torus, computed from the modes of ``f``.

    A line function (every mode t_j m0 for one primitive m0) is
    sum_j c_j e^{2 pi i t_j theta} in the one angle theta = m0.(x, y), so its
    sup is a maximum over one angle; any other function is maximised over
    all 2n angles.  Both go through the certified coarse-grid search plus
    Newton of :func:`_trig_max` on the sorted modes, whatever their order.
    """
    modes = sorted(f.modes())
    c = [f.terms[m] for m in modes]
    line = _line_decomposition(modes)
    if line is None:
        return SupBound(*_trig_max(c, [m.r + m.s for m in modes]), "torus")
    return SupBound(*_trig_max(c, line[1]), "line")


def _phase_on_grid(m, t):
    """F_{r,s} on the product grid t^{2n}, axes in the order (x_1..x_n, y_1..y_n)."""
    values = np.ones(())
    for freq in m.r + m.s:
        values = np.multiply.outer(values, np.exp(2j * np.pi * freq * t))
    return values


def dense_max_abs(f):
    """sup |f| approximated on a uniform grid of the unit cell, 2048 nodes
    per axis at n = 1 and 256 at n = 2.

    The brute-force reference for :func:`sup_abs` in the tests; no package
    path calls it.  Grids above MAX_FRAME_BYTES are refused before
    allocation.
    """
    n = f.n
    if n > 2:
        raise ValueError("dense grid sup only supported for n <= 2")
    points_per_dim = 2048 if n == 1 else 256
    # the complex running total, one phase grid and its scaled copy
    shape = (points_per_dim,) * (2 * n)
    check_bytes(math.prod(shape) * (16 + 16 + 16), "sup grid", f"{shape} nodes")
    t = np.arange(points_per_dim) / points_per_dim
    total = np.zeros(shape, dtype=complex)
    for m, c in f.terms.items():
        total += c * _phase_on_grid(m, t)
    return float(np.max(np.abs(total)))
