"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against the defining formulas with
plain Python floats, ``cmath``, and compensated summation -- no reuse of the
package's evaluation paths -- so agreement is evidence, not tautology.
"""

import cmath
import itertools
import math

import numpy as np

BRUTE_RADIUS = 20


def theta_brute(Z, k, a, z, sel="value", idx=(0, 0), radius=BRUTE_RADIUS):
    """Direct lattice sum over a radius-`radius` window, compensated.

    ``Z`` is an n x n nested list (or scalar), ``a`` the integer label
    vector, ``z`` the complex argument vector.  ``sel`` picks the term-wise
    derivative: value, dz, dz2, or dZ (symmetric-pair convention).
    """
    if np.isscalar(Z):
        Z = [[Z]]
    if np.isscalar(a):
        a = (a,)
    if np.isscalar(z):
        z = (z,)
    n = len(a)
    i, j = idx
    res, ims = [], []
    for l in itertools.product(range(-radius, radius + 1), repeat=n):
        u = [li + ai / k for li, ai in zip(l, a)]
        quad = sum(u[p] * Z[p][q] * u[q] for p in range(n) for q in range(n))
        lin = sum(u[p] * z[p] for p in range(n))
        term = cmath.exp(1j * math.pi * k * quad + 2j * math.pi * k * lin)
        if sel == "dz":
            term *= 2j * math.pi * k * u[i]
        elif sel == "dz2":
            term *= (2j * math.pi * k) ** 2 * u[i] * u[j]
        elif sel == "dZ":
            sym = 1.0 if i == j else 2.0
            term *= 1j * math.pi * k * sym * u[i] * u[j]
        elif sel != "value":
            raise ValueError(sel)
        res.append(term.real)
        ims.append(term.imag)
    return complex(math.fsum(res), math.fsum(ims))


def tail_beyond(Zim_min, k, radius):
    """Gaussian tail mass outside |l| > radius for the 1-d isotropic bound."""
    return math.fsum(
        2 * math.exp(-math.pi * k * Zim_min * m * m)
        for m in range(int(radius), int(radius) + 200)
    )


def inner_product_brute(Z, k, a1, a2, N):
    """Normalized frame inner product by a from-scratch grid sum (n = 1)."""
    Y = Z.imag
    total_re, total_im = [], []
    for ix in range(N):
        for iy in range(N):
            x, y = ix / N, iy / N
            zz = x + Z * y
            v = theta_brute(Z, k, a1, zz) * theta_brute(Z, k, a2, zz).conjugate()
            v *= math.exp(-2 * math.pi * k * y * Y * y)
            total_re.append(v.real)
            total_im.append(v.imag)
    mean = complex(math.fsum(total_re), math.fsum(total_im)) / N**2
    return mean * math.sqrt(2 * k * Y)


def toeplitz_entry_brute(Z, k, r, s, a_col, a_row, N):
    """One operator entry (F_{r,s} theta_col, theta_row) by direct grid sum."""
    Y = Z.imag
    vals_re, vals_im = [], []
    for ix in range(N):
        for iy in range(N):
            x, y = ix / N, iy / N
            zz = x + Z * y
            f = cmath.exp(2j * math.pi * (x * r + s * y))
            v = f * theta_brute(Z, k, a_col, zz) * theta_brute(
                Z, k, a_row, zz
            ).conjugate()
            v *= math.exp(-2 * math.pi * k * y * Y * y)
            vals_re.append(v.real)
            vals_im.append(v.imag)
    mean = complex(math.fsum(vals_re), math.fsum(vals_im)) / N**2
    return mean * math.sqrt(2 * k * Y)


def toeplitz_mode_loop(Z, k, r, s):
    """Closed-form mode matrix, label by label, from the frame-integral formula.

    entry(b, a) = delta_{b, a + r mod k} exp(-pi i/k r.Zbar r)
                  exp(-2 pi i s.a/k) exp(-(pi/2k) v.Y^-1 v),  v = s - Zbar r,

    with labels a in lexicographic order.  ``Z`` is a scalar or an n x n
    nested list; ``r`` and ``s`` are integer n-tuples.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    n = Z.shape[0]
    Zb = Z.conj()
    Yinv = np.linalg.inv(Z.imag)
    rv = np.array(r, dtype=float)
    v = np.array(s, dtype=float) - Zb @ rv
    const = cmath.exp(
        -1j * math.pi / k * (rv @ Zb @ rv) - math.pi / (2 * k) * (v @ Yinv @ v)
    )
    labels = list(itertools.product(range(k), repeat=n))
    index = {a: i for i, a in enumerate(labels)}
    M = np.zeros((k**n, k**n), dtype=complex)
    for a in labels:
        b = tuple((x + y) % k for x, y in zip(a, r))
        sa = sum(x * y for x, y in zip(s, a))
        M[index[b], index[a]] = const * cmath.exp(-2j * math.pi * sa / k)
    return M


def poisson_bracket_numeric(f, g, x, y, h=1e-6):
    """{f, g} at a point from central-difference partials of the evaluations."""
    n = len(np.atleast_1d(x))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    def dx(fn, i):
        e = np.zeros(n)
        e[i] = h
        return (fn(x + e, y) - fn(x - e, y)) / (2 * h)

    def dy(fn, i):
        e = np.zeros(n)
        e[i] = h
        return (fn(x, y + e) - fn(x, y - e)) / (2 * h)

    total = 0.0 + 0.0j
    for i in range(n):
        total += dx(f, i) * dy(g, i) - dy(f, i) * dx(g, i)
    return total


def matrix_fd(fn, Z, D, h=1e-4):
    """Central-difference derivative of a matrix-valued function of Z."""
    return (fn(Z + h * D) - fn(Z - h * D)) / (2 * h)


def wirtinger_fd(fn, Z, D, kind, h=1e-4):
    """(d/dX -/+ i d/dY)/2 of fn along the symmetric perturbation D."""
    dX = matrix_fd(fn, Z, D, h)
    dY = (fn(Z + 1j * h * D) - fn(Z - 1j * h * D)) / (2 * h)
    sgn = -1j if kind == "z" else 1j
    return 0.5 * (dX + sgn * dY)


def _real_parts(Z):
    """X and Y of a scalar or nested-list Z, as nested lists of floats."""
    Z = [[complex(Z)]] if np.isscalar(Z) else [[complex(z) for z in row] for row in Z]
    return Z, [[z.real for z in row] for row in Z], [[z.imag for z in row] for row in Z]


def _inverse(Y):
    """Inverse of a 1 x 1 or 2 x 2 matrix by the adjugate."""
    if len(Y) == 1:
        return [[1.0 / Y[0][0]]]
    (a, b), (c, d) = Y
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _apply(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def laplace_eigenvalue_oracle(Z, r, s):
    """lambda(r, s, Z) = -2 pi ((s - Xr).Y^-1 (s - Xr) + r.Y r) for one mode."""
    _, X, Y = _real_parts(Z)
    u = [si - xr for si, xr in zip(s, _apply(X, r))]
    return -2 * math.pi * (_dot(u, _apply(_inverse(Y), u)) + _dot(r, _apply(Y, r)))


def _pair_form(i, j, a, b):
    """a.D_ij b for the symmetric unit perturbation D_ij."""
    return a[i] * b[j] + (a[j] * b[i] if i != j else 0.0)


def dlambda_dZ_oracle(Z, r, s, i, j, kind):
    """(d/dX_ij -/+ i d/dY_ij)/2 of lambda from dlam/dX = 4 pi u.D r and
    dlam/dY = 2 pi (u.D u - r.D r), u = Y^-1 (s - Xr)."""
    _, X, Y = _real_parts(Z)
    u = _apply(_inverse(Y), [si - xr for si, xr in zip(s, _apply(X, r))])
    dX = 4 * math.pi * _pair_form(i, j, u, r)
    dY = 2 * math.pi * (_pair_form(i, j, u, u) - _pair_form(i, j, r, r))
    return 0.5 * (dX - 1j * dY) if kind == "z" else 0.5 * (dX + 1j * dY)


def mu_eigenvalue_oracle(Z, r, s, i, j, kind):
    """Eigenvalue of Delta_{G(v)} on F_{r,s}: the bivector G(v) carries 2i
    (d/dZ_ij) or -2i (d/dZbar_ij) at (i, j) and (j, i) of one complex block,
    and the phase's first-order eigenvalues there are pi Y^-1 (s - Zbar r)
    and -pi Y^-1 (s - Z r)."""
    Zc, _, Y = _real_parts(Z)
    W = _inverse(Y)
    if kind == "z":
        coeff, sign, M = 2j, 1.0, [[z.conjugate() for z in row] for row in Zc]
    else:
        coeff, sign, M = -2j, -1.0, Zc
    e = [sign * math.pi * w for w in _apply(W, [si - mr for si, mr in zip(s, _apply(M, r))])]
    return coeff * _pair_form(i, j, e, e)
