"""Property tests of the lattice transformation laws and the config format.

Siegel points are drawn at n = 1 and 2 with Y bounded away from singular,
levels k <= 8, any label and any of the 2n lattice directions.  Each
coordinate of the probe z = x + Zy is (3 i + 1) / 291: a zero of theta_a at
n = 1 has x = (2m + 1) / 2k, which no such x equals (2k (3i + 1) is even,
291 (2m + 1) odd), so the relative residuals never divide by a zero.

Configs are drawn over the keys each experiment reads (``config.EXPERIMENTS``,
with ``genus`` as tqft's dimension and no ``Z`` for tqft), rendered as text
in either layout (one line, or one key per line under a section header), and
parsed back.

The frame pairings are drawn at n = 1 and 2, levels k <= 5, with gcd(k, N)
either 1 or k and up to eight modes of entries in [-2, 2], among them, at
n = 2, r-tuples that share one axis's r_i but not the other's.  N runs from 3,
below the lattice window where terms alias mod N, up to the bandwidth grid
at n = 1, and up to 16 at n = 2, where the explicit k^n x N^4 frame stays
below 21 MiB.

The mode-batched eigenvalues and flatness residuals are drawn at normal
points (X and Y share eigenvectors) with batches of up to eight modes of
entries |r_i|, |s_i| <= 4, and checked mode by mode against the oracles.
The same spectral functions of up to eight modes of entries up to 10^6 in
size give, bit for bit, the same arrays for the list of modes and for its
(M, 2n) integer table.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    dlambda_dZ_oracle,
    laplace_eigenvalue_oracle,
    mu_eigenvalue_oracle,
)

from thetaquant.config import EXPERIMENT_IDS, EXPERIMENTS, parse_config
from thetaquant.formal import (
    _hitchin_residuals,
    _mu_eigenvalue,
    _mu_frame,
    covariant_constancy_residual,
    formal_hitchin_residual,
)
from thetaquant.fourier import FourierMode, _mode_arrays
from thetaquant.sections import (
    QuadratureGrid,
    _dense_pairings,
    _frame_norm,
    _frame_pairings,
    _plan,
    cocycle_residual,
    gram_deviation,
    gram_matrix,
    required_grid_size,
    theta_frame_on_grid,
)
from thetaquant.siegel import (
    SiegelPoint,
    TangentDirection,
    dlambda_dZ,
    laplace_eigenvalue,
)
from thetaquant.theta import ThetaLabel, heat_residuals, quasi_periodicity_residual
from thetaquant.toeplitz import (
    _clock_shift_columns,
    _pair_signs,
    _sign_tables,
    eta,
    quadrature_deviation,
    toeplitz_mode_closed_form,
    trace_pair_closed_form,
    trace_pair_sign,
)

PROPERTY = settings(max_examples=60, deadline=None)


def _unit(bound=1.0):
    return st.floats(-bound, bound, allow_nan=False)


@st.composite
def points(draw, n=None):
    """Z = X + iY with X symmetric and Y >= 0.4 in its smallest eigenvalue."""
    n = n if n is not None else draw(st.sampled_from((1, 2)))
    if n == 1:
        return SiegelPoint(complex(draw(_unit()), draw(st.floats(0.4, 2.5))))
    x1, x2, x3 = (draw(_unit()) for _ in range(3))
    y1, y3 = (draw(st.floats(0.8, 2.5)) for _ in range(2))
    y2 = draw(_unit(0.4))
    X = np.array([[x1, x2], [x2, x3]])
    return SiegelPoint(X + 1j * np.array([[y1, y2], [y2, y3]]))


@st.composite
def probes(draw, p):
    def coordinate():
        return (3 * draw(st.integers(0, 96)) + 1) / 291

    x = np.array([coordinate() for _ in range(p.n)])
    y = np.array([coordinate() for _ in range(p.n)])
    return x + p.Z @ y


@st.composite
def lattice_cases(draw):
    p = draw(points())
    k = draw(st.integers(1, 8))
    label = ThetaLabel(k, tuple(draw(st.integers(0, k - 1)) for _ in range(p.n)))
    return p, label, draw(probes(p)), draw(st.integers(0, 2 * p.n - 1))


@PROPERTY
@given(lattice_cases())
def test_quasi_periodicity_holds(case):
    p, label, z, index = case
    assert quasi_periodicity_residual(p, label, z, index) < 1e-10


@PROPERTY
@given(lattice_cases())
def test_cocycle_holds(case):
    p, _, z, _ = case
    directions = range(2 * p.n)
    worst = max(cocycle_residual(p, z, i, j) for i in directions for j in directions)
    assert worst < 1e-12


def _complex(z):
    # adding 0.0 turns a -0.0 part into 0.0, which has no sign to print
    re, im = z.real + 0.0, z.imag + 0.0
    return f"{re!r}{'+' if im >= 0 else ''}{im!r}i"


def _point_text(entries, n):
    if n == 1:
        return _complex(entries[0])
    rows = (entries[i * n : (i + 1) * n] for i in range(n))
    return "[" + ", ".join("[" + ", ".join(map(_complex, r)) + "]" for r in rows) + "]"


def _fields(m):
    """What ``canonical()`` reads, as plain values."""
    return {
        "experiment": m.experiment,
        "n": m.n,
        "k": m.k_values,
        "Z": tuple(tuple(p.Z.ravel().tolist()) for p in m.points),
        "modes": m.modes,
        "tol": m.tol,
        "grid": m.grid,
    }


def _render(f, one_line):
    """Config text for the fields ``f``: one line, or a section of lines."""
    name = f["experiment"]
    lines = [f"experiment = {name}"] if one_line else [f"[{name}]"]
    lines += [
        f"{EXPERIMENTS[name].reads[0]} = {f['n']}",
        "k = " + ", ".join(map(str, f["k"])),
    ]
    if f["Z"]:
        lines.append("Z = " + "; ".join(_point_text(z, f["n"]) for z in f["Z"]))
    if f["modes"]:
        lines.append(
            "modes = " + "; ".join(",".join(map(str, r + s)) for r, s in f["modes"])
        )
    if f["tol"] is not None:
        lines.append(f"tol = {f['tol']!r}")
    if f["grid"] is not None:
        lines.append(f"grid = {f['grid']}")
    return (", " if one_line else "\n").join(lines)


@st.composite
def configs(draw):
    n = draw(st.sampled_from((1, 2)))
    vector = st.tuples(*[st.integers(-9, 9)] * n)
    experiment = draw(st.sampled_from(EXPERIMENT_IDS))
    reads = EXPERIMENTS[experiment].reads
    # star-fit reads two modes and tqft at most two curves, and the config
    # refuses any other count for them
    count = {"star-fit": st.sampled_from((0, 2)), "tqft": st.integers(0, 2)}
    modes = st.lists(st.tuples(vector, vector), max_size=4)
    if experiment in count:
        size = draw(count[experiment])
        modes = st.lists(st.tuples(vector, vector), min_size=size, max_size=size)
    if experiment == "star-fit":
        # the config refuses two star-fit modes that commute, {f, g} = 0
        modes = modes.filter(
            lambda ms: not ms
            or FourierMode(*ms[0]).symplectic_pairing(FourierMode(*ms[1])) != 0
        )
    # the config refuses a star-fit of fewer than five levels, and a
    # covariance of fewer than two points
    fewest_levels = 5 if experiment == "star-fit" else 1
    fewest_points = 2 if experiment == "covariance" else 1
    return {
        "experiment": experiment,
        "n": n,
        "k": tuple(
            draw(st.lists(st.integers(1, 512), min_size=fewest_levels, max_size=5))
        ),
        "Z": tuple(
            tuple(p.Z.ravel().tolist())
            for p in draw(st.lists(points(n), min_size=fewest_points, max_size=3))
        ) if "Z" in reads else (),
        "modes": tuple(draw(modes)) if "modes" in reads else (),
        "tol": draw(st.none() | st.floats(1e-16, 1.0)) if "tol" in reads else None,
        "grid": draw(st.none() | st.integers(1, 4096)) if "grid" in reads else None,
    }


@PROPERTY
@given(configs(), st.booleans())
def test_config_round_trips_through_its_text(fields, one_line):
    m = parse_config(_render(fields, one_line))
    assert _fields(m) == fields
    again = parse_config(_render(_fields(m), not one_line))
    assert again.canonical() == m.canonical()


@st.composite
def normal_points(draw):
    """Z = R diag(x + iy) R^T for a rotation R, so [X, Y] = 0; y in [0.5, 2]."""
    n = draw(st.sampled_from((1, 2)))
    z = [complex(draw(_unit()), draw(st.floats(0.5, 2.0))) for _ in range(n)]
    if n == 1:
        return SiegelPoint(z[0])
    phi = draw(st.floats(0.0, np.pi))
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    Z = R @ np.diag(z) @ R.T
    return SiegelPoint((Z + Z.T) / 2)


@st.composite
def mode_batches(draw):
    p = draw(normal_points())
    vector = st.tuples(*[st.integers(-4, 4)] * p.n)
    modes = [FourierMode(*rs) for rs in draw(
        st.lists(st.tuples(vector, vector), min_size=1, max_size=8))]
    i = draw(st.integers(0, p.n - 1))
    v = TangentDirection(i, draw(st.integers(i, p.n - 1)),
                         draw(st.sampled_from(("z", "zbar"))))
    return p, modes, v


@PROPERTY
@given(mode_batches())
def test_batched_flatness_matches_the_oracles(case):
    p, modes, v = case
    h = 1e-4
    D = np.zeros((p.n, p.n))
    D[v.i, v.j] = D[v.j, v.i] = 1.0
    lam = laplace_eigenvalue(p, modes)
    dlam = dlambda_dZ(p, modes, v)
    mu = _mu_eigenvalue(_mu_frame(p, *_mode_arrays(modes)), v)
    residual = formal_hitchin_residual(p, modes, v)
    residual_fd = formal_hitchin_residual(p, modes, v, fd_step=h)
    assert lam.shape == dlam.shape == mu.shape == residual.shape == (len(modes),)
    for a, m in enumerate(modes):
        args = (p.Z.tolist(), m.r, m.s)
        lam_o = laplace_eigenvalue_oracle(*args)
        dlam_o = dlambda_dZ_oracle(*args, v.i, v.j, v.kind)
        mu_o = mu_eigenvalue_oracle(*args, v.i, v.j, v.kind)
        for value, oracle in ((lam[a], lam_o), (dlam[a], dlam_o), (mu[a], mu_o)):
            assert abs(value - oracle) <= 1e-12 * max(abs(oracle), 1.0)
        assert abs(residual[a] - abs(dlam_o + mu_o / (2 * np.pi))) <= 1e-12
        # the stencil from oracle eigenvalues; each difference quotient
        # carries the eigenvalues' rounding, a few eps |lambda| / h
        stencil = [laplace_eigenvalue_oracle((p.Z + t * D).tolist(), m.r, m.s)
                   for t in (h, -h, 1j * h, -1j * h)]
        dX = (stencil[0] - stencil[1]) / (2 * h)
        dY = (stencil[2] - stencil[3]) / (2 * h)
        sgn = -1j if v.holomorphic else 1j
        fd_o = abs(0.5 * (dX + sgn * dY) + mu_o / (2 * np.pi))
        rounding = 8 * np.finfo(float).eps * max(abs(lam_o), 1.0) / h
        assert abs(residual_fd[a] - fd_o) <= 1e-12 + rounding


@st.composite
def mode_tables(draw):
    """A normal point, a second point of its dimension, a level, a direction
    and up to eight modes with entries up to 10^6 in size, as a list and as
    their (M, 2n) integer table."""
    p, _, v = draw(mode_batches())
    entry = st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6))
    vector = st.tuples(*[entry] * p.n)
    modes = [FourierMode(*rs) for rs in draw(
        st.lists(st.tuples(vector, vector), min_size=1, max_size=8))]
    table = np.array([m.r + m.s for m in modes], dtype=np.int64)
    return p, draw(points(p.n)), draw(st.integers(1, 8)), v, modes, table


@PROPERTY
@given(mode_tables())
def test_a_mode_table_gives_what_its_list_gives_bitwise(case):
    p, q, k, v, modes, table = case
    calls = [
        lambda ms: laplace_eigenvalue(p, ms),
        lambda ms: dlambda_dZ(p, ms, v),
        lambda ms: eta(p, k, ms),
        lambda ms: _clock_shift_columns(k, p.n, ms),
        lambda ms: formal_hitchin_residual(p, ms, v),
        lambda ms: formal_hitchin_residual(p, ms, v, fd_step=1e-4),
    ]
    for call in calls:
        want, got = call(modes), call(table)
        for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (want, got))):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # a large mode's eta underflows to 0 or to a subnormal, and the residual
    # rescales it by its significand, for the list as for the table
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        want, got = (covariant_constancy_residual(p, q, k, ms) for ms in (modes, table))
    assert np.array_equal(want, got)


@st.composite
def points_to_3(draw, n, normal=False):
    """Z at dimension n <= 3, off-diagonal entries included.  X is symmetric
    with entries in [-1, 1] and Y has its diagonal in [0.8, 2.5] and the rest
    in [-0.3, 0.3], so its smallest eigenvalue is above 0.2.  With
    ``normal``, Z = R diag(x + iy) R^T for the orthogonal R of a drawn
    matrix, so [X, Y] = 0, with y in [0.5, 2]."""
    def symmetric(diagonal, rest):
        A = np.diag([draw(diagonal) for _ in range(n)])
        for i, j in itertools.combinations(range(n), 2):
            A[i, j] = A[j, i] = draw(rest)
        return A

    if normal:
        z = [complex(draw(_unit()), draw(st.floats(0.5, 2.0))) for _ in range(n)]
        R = np.linalg.qr(np.array([[draw(_unit()) for _ in range(n)] for _ in range(n)]))[0]
        Z = R @ np.diag(z) @ R.T
        return SiegelPoint((Z + Z.T) / 2)
    return SiegelPoint(symmetric(_unit(), _unit())
                       + 1j * symmetric(st.floats(0.8, 2.5), _unit(0.3)))


@st.composite
def eigenvalue_batches(draw):
    """A point at n = 1..3, and up to eight modes with entries up to 10^6 in
    size."""
    p = draw(points_to_3(draw(st.integers(1, 3))))
    entry = st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6))
    vector = st.tuples(*[entry] * p.n)
    return p, [FourierMode(*rs) for rs in draw(
        st.lists(st.tuples(vector, vector), min_size=1, max_size=8))]


@PROPERTY
@given(eigenvalue_batches())
def test_batched_eigenvalue_is_the_one_mode_value_bitwise(case):
    # every product contracts one row at a time, so no batch size can round
    # an entry differently, at any point
    p, modes = case
    for value, m in zip(laplace_eigenvalue(p, modes), modes):
        assert value.tobytes() == np.float64(laplace_eigenvalue(p, m)).tobytes()


@st.composite
def batch_cases(draw):
    """At one dimension n = 1..3: a point, a second point and a normal point,
    a level, a direction, two to six modes of entries |r_i|, |s_i| <= 4, a
    frame label, two or three probes and one to three index pairs."""
    n = draw(st.integers(1, 3))
    p, q, normal = (draw(points_to_3(n, flag)) for flag in (False, False, True))
    k = draw(st.integers(1, 4 if n < 3 else 3))
    i = draw(st.integers(0, n - 1))
    v = TangentDirection(i, draw(st.integers(i, n - 1)), draw(st.sampled_from(("z", "zbar"))))
    vector = st.tuples(*[st.integers(-4, 4)] * n)
    modes = [FourierMode(*rs) for rs in draw(
        st.lists(st.tuples(vector, vector), min_size=2, max_size=6))]
    label = ThetaLabel(k, tuple(draw(st.integers(0, k - 1)) for _ in range(n)))
    z = np.array([draw(probes(p)) for _ in range(draw(st.integers(2, 3)))])
    index = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    pairs = draw(st.lists(index, min_size=1, max_size=3, unique=True))
    return p, q, normal, k, v, modes, label, z, pairs


@st.composite
def sign_cases(draw):
    """A level k = 1..6 and two lists of one to five modes at one n = 1..3,
    each entry a residue in [0, k) plus k times a multiple of modulus up to
    2^b, b one of 2, 31, 40 and 58: congruent pairs are frequent, and the
    entries reach past 2^31, where the sign tables hold Python ints, and stay
    below 2^62, where int64 differences of two entries do not wrap."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    bound = 2 ** draw(st.sampled_from((2, 31, 40, 58)))
    entry = st.builds(lambda a, b: a + k * b, st.integers(0, k - 1),
                      st.integers(-bound, bound))
    vector = st.tuples(*[entry] * n)
    modes = st.lists(st.tuples(vector, vector).map(lambda rs: FourierMode(*rs)),
                     min_size=1, max_size=5)
    return k, draw(modes), draw(modes)


def _same_bits(batch, items):
    """Whether the batch is the stack of the one-item results, to the bit."""
    items = np.array(items)
    return batch.dtype == items.dtype and batch.tobytes() == items.tobytes()


@PROPERTY
@given(batch_cases(), sign_cases())
def test_every_batch_is_its_one_item_calls_bitwise(case, signs):
    p, q, normal, k, v, modes, label, z, pairs = case
    calls = [
        lambda ms: laplace_eigenvalue(p, ms),
        lambda ms: dlambda_dZ(p, ms, v),
        lambda ms: eta(p, k, ms),
        lambda ms: formal_hitchin_residual(normal, ms, v),
        lambda ms: formal_hitchin_residual(normal, ms, v, fd_step=1e-4),
        lambda ms: covariant_constancy_residual(p, q, k, ms),
    ]
    for call in calls:
        assert _same_bits(call(modes), [call(m) for m in modes])
    closed = toeplitz_mode_closed_form(p, k, modes)
    assert _same_bits(np.array([A.entries for A in closed]),
                      [toeplitz_mode_closed_form(p, k, m).entries for m in modes])
    assert _same_bits(trace_pair_closed_form(p, k, modes, modes),
                      [[trace_pair_closed_form(p, k, a, b) for b in modes] for a in modes])
    rows = heat_residuals(p, label, z, pairs)
    for P, point in enumerate(z):
        assert _same_bits(rows[:, P], heat_residuals(p, label, point, pairs)[:, 0])
        for S, pair in enumerate(pairs):
            assert _same_bits(rows[:, P, S], heat_residuals(p, label, point, [pair])[:, 0, 0])
    # every direction of the normal point, analytic and fd, in one kernel call
    dirs = [TangentDirection(i, j, kind) for i in range(normal.n)
            for j in range(i, normal.n) for kind in ("z", "zbar")]
    analytic, fd = _hitchin_residuals(normal, modes, dirs, [None, 1e-4])
    for d, res, res_fd in zip(dirs, analytic, fd):
        assert _same_bits(res, formal_hitchin_residual(normal, modes, d))
        assert _same_bits(res_fd, formal_hitchin_residual(normal, modes, d, fd_step=1e-4))
    # every pair sign of two lists in one pass, against the scalar sign
    level, l1, l2 = signs
    scalar = [[trace_pair_sign(level, a, b) for b in l2] for a in l1]
    tables = list(_sign_tables(level, l1, l2))
    assert _same_bits(_pair_signs(level, *tables), scalar)
    # int64 tables are exact mod 2^64: a wrapped P gives the scalar sign or a
    # non-sign P, which is refused
    wrapping = [np.array([m.r + m.s for m in ms], dtype=np.int64) for ms in (l1, l2)]
    try:
        assert _same_bits(_pair_signs(level, *wrapping), scalar)
    except ArithmeticError:
        assert tables[0].dtype == object


@PROPERTY
@given(mode_batches(), st.sampled_from((1e-6, 1e-4, 1e-2)))
def test_fd_stencil_is_the_residual_at_built_points_bitwise(case, h):
    # the stencil once built four validated points; it now moves X, Y and
    # Y^-1 as arrays, and must round the same
    p, modes, v = case
    D = np.zeros((p.n, p.n))
    D[v.i, v.j] = D[v.j, v.i] = 1.0
    lam = [laplace_eigenvalue(SiegelPoint(p.Z + dz * D), modes)
           for dz in (h, -h, 1j * h, -1j * h)]
    dX = (lam[0] - lam[1]) / (2 * h)
    dY = (lam[2] - lam[3]) / (2 * h)
    sgn = -1j if v.holomorphic else 1j
    mu = _mu_eigenvalue(_mu_frame(p, *_mode_arrays(modes)), v)
    w = 0.5 * (dX + sgn * dY) + mu / (2 * np.pi)
    want = np.hypot(w.real, w.imag)  # |w| as the builtin abs rounds it
    assert np.array_equal(formal_hitchin_residual(p, modes, v, fd_step=h), want)


@st.composite
def pairing_cases(draw):
    p = draw(points())
    if p.n == 2 and draw(st.booleans()):  # a diagonal Z pairs axis by axis
        p = SiegelPoint(np.diag(p.Z.diagonal()))
    k = draw(st.integers(1, 5))
    N = draw(st.integers(3, required_grid_size(p, k, 2) if p.n == 1 else 14))
    if draw(st.booleans()):
        N = -(-N // k) * k  # gcd(k, N) = k, N <= 16 at n = 2
    else:
        while np.gcd(k, N) != 1:
            N += 1
    vector = st.tuples(*[st.integers(-2, 2)] * p.n)
    pairs = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=5))
    r, _ = pairs[0]
    for i in range(p.n):  # shares every r_j but r_i with the first drawn mode
        ri = draw(st.integers(-2, 2).filter(lambda x: x != r[i]))
        pairs.append((r[:i] + (ri,) + r[i + 1:], draw(vector)))
    modes = [FourierMode((0,) * p.n, (0,) * p.n)] + [FourierMode(*rs) for rs in pairs]
    return p, k, QuadratureGrid(N), modes


@settings(max_examples=40, deadline=None)
@given(pairing_cases())
def test_frame_pairings_equal_the_explicit_frame_pairing(case):
    # the fold against the grid mean of frame_a conj(frame_b) F_m over the
    # N^{2n} nodes, on coarse aliasing grids as well as bandwidth grids
    p, k, grid, modes = case
    frame = theta_frame_on_grid(p, k, grid)
    t = np.arange(grid.N) / grid.N
    scale = _frame_norm(p, k) / frame.shape[1]
    plan = _plan(p, k, modes, grid.N)
    for m, got in zip(modes, _dense_pairings(plan, _frame_pairings(plan))):
        phase = np.ones(1)
        for f in m.r + m.s:  # F_m on the axes (x_1..x_n, y_1..y_n)
            phase = np.multiply.outer(phase, np.exp(2j * np.pi * f * t)).ravel()
        want = scale * (frame * phase) @ frame.conj().T
        assert np.max(np.abs(got - want)) <= 1e-14, (m, grid.N)


@st.composite
def support_cases(draw):
    """A diagonal, skew (normal, off the diagonal) or non-normal point at
    n = 1 or 2, a level, the zero mode and up to five modes of entries in
    [-2, 2], and a grid at the bandwidth rule or up to k nodes above it.
    On the axis path a mode with r_1 in [30, 40] may join them: at the
    lower levels its offsets meet no term of the window, so no row of the
    pairings meets its closed form."""
    n = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("diagonal", "skew", "non-normal")))
    p = draw(points(n))
    if n == 2 and kind == "diagonal":
        p = SiegelPoint(np.diag(p.Z.diagonal()))
    elif n == 2 and kind == "skew":
        phi = draw(st.floats(0.1, 1.4))
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        Z = R @ np.diag([complex(draw(_unit()), draw(st.floats(0.5, 2.0)))
                         for _ in range(2)]) @ R.T
        p = SiegelPoint((Z + Z.T) / 2)
    k = draw(st.integers(1, 8 if n == 1 else 3))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    modes = [FourierMode((0,) * n, (0,) * n)] + [FourierMode(*rs) for rs in draw(
        st.lists(st.tuples(vector, vector), max_size=5))]
    if (n == 1 or kind == "diagonal") and draw(st.booleans()):
        far = (draw(st.integers(30, 40)),) + (0,) * (n - 1)
        modes.append(FourierMode(far, draw(vector)))
    extra = draw(st.integers(0, k))
    return p, k, modes, extra


@settings(max_examples=40, deadline=None)
@given(support_cases())
@example((SiegelPoint(0.4j), 1, [FourierMode((0,), (0,)), FourierMode((30,), (1,))], 0))
def test_support_deviations_are_the_dense_deviations_bitwise(case):
    # the pairings kept on their support against the densified k^n x k^n
    # matrices: the closed form's entries that no row meets, the rows'
    # entries off the closed form and the meeting entries all count
    p, k, modes, extra = case
    plan = _plan(p, k, modes, _plan(p, k, modes).rule + extra)
    dense = _dense_pairings(plan, _frame_pairings(plan))
    closed = toeplitz_mode_closed_form(p, k, modes)
    want = [np.abs(q - c.entries.T).max() for q, c in zip(dense, closed)]
    assert np.array_equal(quadrature_deviation(p, k, modes, plan), want)
    gram = _plan(p, k, N=_plan(p, k).rule + extra)
    G = gram_matrix(p, k, gram)
    assert gram_deviation(p, k, gram) == np.abs(G - np.eye(k**p.n)).max()
