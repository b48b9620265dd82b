"""Siegel upper half space points and the complex geometry they induce.

A point is a symmetric complex n x n matrix Z = X + iY with Y positive
definite.  Each Z determines a compatible complex structure I(Z) on the
symplectic torus R^{2n}/Z^{2n} (omega = sum dx_i ^ dy_i) via the complex
coordinates z = x + Zy.  This module provides I(Z), its derivatives in Z,
the constant bivector coefficients obtained by raising those derivatives
with omega, and the eigenvalues of the metric Laplacian on pure phases.
Every product of a mode row with a matrix, here and in ``formal``, goes
through one helper, :func:`_rows`, so a batch of modes rounds as each mode.

Derivatives with respect to the symmetric matrix Z treat Z_ij and Z_ji as a
single variable (the perturbation matrix has unit entries in both slots when
i != j), and the Wirtinger convention is d/dZ = (d/dX - i d/dY)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import _mode_arrays

__all__ = [
    "InvalidPointError",
    "NonNormalError",
    "SiegelPoint",
    "TangentDirection",
    "complex_structure",
    "dI_dZ",
    "gtilde_coefficients",
    "laplace_eigenvalue",
    "dlambda_dZ",
]

SYMMETRY_TOL = 1e-12
NORMALITY_TOL = 1e-10


class InvalidPointError(ValueError):
    """Raised when a matrix fails the Siegel upper-half-space invariants."""


class NonNormalError(ValueError):
    """Raised when an operation needs [X, Y] = 0 but the point is not normal."""


def _positive_definite(Y):
    """Whether the symmetric real matrix Y has a Cholesky factor."""
    try:
        np.linalg.cholesky(Y)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point Z = X + iY of the Siegel upper half space.

    Accepts a scalar, nested list, or array; validates finiteness, symmetry
    and positive definiteness of Y at construction.  Immutable thereafter.
    Points compare and hash by Z, from which every other field derives.
    """

    Z: np.ndarray
    n: int = field(init=False)
    X: np.ndarray = field(init=False)
    Y: np.ndarray = field(init=False)
    is_normal: bool = field(init=False)
    min_eig_Y: float = field(init=False, repr=False)
    det_Y: float = field(init=False, repr=False)
    _Yinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=complex))
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise InvalidPointError(f"Z must be square, got shape {Z.shape}")
        if not np.isfinite(Z).all():
            raise InvalidPointError("Z has a non-finite entry")
        if np.max(np.abs(Z - Z.T)) >= SYMMETRY_TOL:
            raise InvalidPointError("Z is not symmetric within 1e-12")
        X = Z.real.copy()
        Y = Z.imag.copy()
        if not _positive_definite(Y):
            raise InvalidPointError("imaginary part of Z is not positive definite")
        normal = np.max(np.abs(X @ Y - Y @ X)) < NORMALITY_TOL
        Yinv = np.linalg.inv(Y)
        for arr in (Z, X, Y, Yinv):
            arr.setflags(write=False)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "n", Z.shape[0])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "is_normal", bool(normal))
        object.__setattr__(self, "min_eig_Y", float(np.linalg.eigvalsh(Y)[0]))
        object.__setattr__(self, "det_Y", float(np.linalg.det(Y)))
        object.__setattr__(self, "_Yinv", Yinv)

    @property
    def Yinv(self):
        return self._Yinv

    def __eq__(self, other):
        return isinstance(other, SiegelPoint) and np.array_equal(self.Z, other.Z)

    def __hash__(self):  # of Python complex entries, where -0.0 hashes as 0.0
        return hash(tuple(self.Z.ravel().tolist()))

    def __repr__(self):
        if self.n == 1:
            return f"SiegelPoint({self.Z[0, 0]:.6g})"
        return f"SiegelPoint(n={self.n}, Z={self.Z.tolist()})"


@dataclass(frozen=True)
class TangentDirection:
    """Direction d/dZ_ij (kind 'z') or d/dZbar_ij (kind 'zbar'), 0-based.

    Since Z is symmetric, (i, j) is an unordered pair; indices are stored
    with i <= j.
    """

    i: int
    j: int
    kind: str = "z"

    def __post_init__(self):
        if self.kind not in ("z", "zbar"):
            raise ValueError(f"kind must be 'z' or 'zbar', got {self.kind!r}")
        if self.i < 0 or self.j < 0:
            raise ValueError("indices must be nonnegative")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)

    @property
    def holomorphic(self):
        return self.kind == "z"


def _delta(n, i, j):
    """Symmetric unit perturbation: ones at (i,j) and (j,i)."""
    D = np.zeros((n, n))
    D[i, j] = 1.0
    D[j, i] = 1.0
    return D


def complex_structure(p):
    """The compatible complex structure I(Z) in the (dx, dy) frame.

    Returns the real 2n x 2n block matrix

        [ -X Y^-1      -(Y + X Y^-1 X) ]
        [  Y^-1         Y^-1 X         ]

    obtained by solving dx' + Z dy' = i (dx + Z dy); it squares to -Id for
    every point and makes g = 2 pi omega(., I .) positive definite.  (When
    [X, Y] = 0 the corner blocks commute and the order is immaterial.)
    """
    X, Y = p.X, p.Y
    W = p.Yinv
    top = np.hstack([-X @ W, -(Y + X @ W @ X)])
    bot = np.hstack([W, W @ X])
    return np.vstack([top, bot])


def dI_dZ(p, v):
    """Derivative of I(Z) along a tangent direction, in the (dx, dy) frame.

    Requires a normal point ([X, Y] = 0; automatic for n = 1), where with
    K = Y^-1 D_ij Y^-1 (D_ij the symmetric unit perturbation) the closed
    form is the sandwich

        dI/dZ_ij    =  (1/2i) [[Zbar K, Zbar K Zbar], [-K, -K Zbar]]
        dI/dZbar_ij = -(1/2i) [[Z K,    Z K Z      ], [-K, -K Z   ]]

    (block column [M; -1] times K times block row [1, M]; for n = 1 all
    factors commute and this is the scalar form K [[M, M^2], [-1, -M]]).
    The result anti-commutes with I(Z) and matches central finite
    differences of complex_structure.
    """
    if not p.is_normal:
        raise NonNormalError(
            "closed-form dI/dZ needs a normal point ([X,Y]=0); "
            "use n=1 or a commuting X, Y"
        )
    n = p.n
    W = p.Yinv
    K = W @ _delta(n, v.i, v.j) @ W
    if v.holomorphic:
        M = np.conj(p.Z)
        sign = 1.0
    else:
        M = p.Z.astype(complex)
        sign = -1.0
    top = np.hstack([M @ K, M @ K @ M])
    bot = np.hstack([-K, -K @ M])
    return sign * (1.0 / 2j) * np.vstack([top, bot])


def gtilde_coefficients(v, n):
    """Constant bivector coefficients of the raised derivative of I.

    Returned as a 2n x 2n complex matrix in the frame (dz, dzbar): for a
    holomorphic direction (i, j) the zz block carries 2i at (i, j) and
    (j, i) (a single 2i on the diagonal when i = j); for an antiholomorphic
    direction the zbar-zbar block carries -2i in the same pattern.  The
    antiholomorphic sign is pinned by the contraction identity
    G(v) . omega = dI/dZbar_ij, which also makes the heat-flow frame
    covariant constant in every direction.  Base-point independent.
    """
    G = np.zeros((2 * n, 2 * n), dtype=complex)
    if v.i >= n or v.j >= n:
        raise ValueError(f"direction indices out of range for n={n}")
    if v.holomorphic:
        blk, coeff = 0, 2j
    else:
        blk, coeff = n, -2j
    G[blk + v.i, blk + v.j] = coeff
    G[blk + v.j, blk + v.i] = coeff
    return G


def laplace_eigenvalue(p, modes):
    """Eigenvalue of the metric Laplacian on the phase F_{r,s}.

    For the metric g = 2 pi omega(., I(Z) .) the Laplacian acts diagonally
    on phases with eigenvalue

        lambda(r, s, Z) = -2 pi ((s - Xr).Y^-1 (s - Xr) + r.Y r) <= 0,

    vanishing only for the constant mode.  ``modes`` is one mode (a
    FourierMode or an (r, s) pair), giving a scalar, or a list of M modes or
    their (M, 2n) integer table, giving an array of shape (M,) (empty for no
    modes) whose entries are the one-mode values to the bit at every point.
    """
    if isinstance(modes, list) and not modes:  # no row to give the dimension
        return np.zeros(0)
    return _laplace_eigenvalue(*_mode_arrays(modes), p.X, p.Y, p.Yinv)


def _rows(a, B):
    """a.B for rows a of shape (..., n), each row contracted on its own: a
    matrix kernel (``dot``) rounds a stack of rows otherwise than one row.
    ``vecdot`` conjugates its first factor, so B goes first, conjugated."""
    return np.vecdot(B.T.conj(), a[..., None, :])  # a real B's conj() is B, no copy


def _laplace_eigenvalue(r, s, X, Y, Yinv):
    """lambda of the modes (r, s) at the point with parts X, Y and Y^-1 given
    as arrays, so a moved point needs no :class:`SiegelPoint`."""
    u = s - _rows(r, X.T)
    return -2 * np.pi * (np.vecdot(_rows(u, Yinv), u) + np.vecdot(_rows(r, Y), r))


def dlambda_dZ(p, modes, v):
    """Wirtinger derivative of the Laplace eigenvalue along a direction.

    Closed form, valid at any point: with u = Y^-1 (s - Xr) and D = D_ij,

        dlam/dX_ij = 4 pi u.D r,
        dlam/dY_ij = 2 pi (u.D u - r.D r),

    combined as (dX -/+ i dY)/2 for kind 'z' / 'zbar'.  ``modes`` is one
    mode, giving a complex scalar, or a list of M modes or their table,
    giving shape (M,).
    """
    r, s = _mode_arrays(modes)
    return _wirtinger(*_dlambda_dXY(p, r, s, _delta(p.n, v.i, v.j)), v)


def _dlambda_dXY(p, r, s, D):
    """dlam/dX_ij and dlam/dY_ij of the modes (r, s) for D = D_ij, the two
    real halves of :func:`dlambda_dZ`; both directions of one entry pair
    (i, j) read them."""
    u = _rows(s - _rows(r, p.X.T), p.Yinv.T)
    uD = _rows(u, D)
    dX = 4 * np.pi * np.vecdot(uD, r)
    dY = 2 * np.pi * (np.vecdot(uD, u) - np.vecdot(_rows(r, D), r))
    return dX, dY


def _wirtinger(dX, dY, v):
    """(dX -/+ i dY)/2 for a direction v of kind 'z' / 'zbar'."""
    return 0.5 * (dX + (-1j if v.holomorphic else 1j) * dY)
