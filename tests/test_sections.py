import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import thetaquant
from thetaquant import sections, theta
from thetaquant.config import parse_config_all
from thetaquant.experiments import run_experiment
from thetaquant.fourier import FourierMode, _mode_table
from thetaquant.sections import (
    GridError,
    QuadratureGrid,
    SectionVector,
    SizeLimitError,
    cocycle_residual,
    gram_matrix,
    integrand_periodicity_residual,
    l2_inner,
    lattice_weight_identity,
    required_grid_size,
    section_eval,
    _FineLattice,
    _dense_pairings,
    _frame_norm,
    _frame_pairings,
    _lattice_terms,
    _pairing_deviation,
    _plan,
    theta_frame_on_grid,
)
from thetaquant.siegel import SiegelPoint
from thetaquant.theta import ThetaLabel, theta_eval, truncation_radius
from thetaquant.toeplitz import (
    _clock_shift_columns,
    quadrature_deviation,
    toeplitz_modes_quadrature,
)

from oracles import inner_product_brute, theta_brute


def unit(k, n, i):
    return SectionVector(k, n, np.eye(k**n)[i])


class TestSectionEval:
    def test_frame_element_and_zero(self):
        p = SiegelPoint(1j)
        s = unit(2, 1, 1)
        x, y = 0.3, 0.4
        want = theta_eval(p, ThetaLabel(2, (1,)), x + 1j * y)
        assert section_eval(p, s, x, y) == pytest.approx(want)
        zero = SectionVector(2, 1, np.zeros(2))
        assert section_eval(p, zero, x, y) == 0

    def test_linearity(self):
        p = SiegelPoint(0.5 + 0.7j)
        s1 = unit(2, 1, 0)
        s2 = 0.3j * unit(2, 1, 1)
        lhs = section_eval(p, s1 + s2, 0.2, 0.6)
        rhs = section_eval(p, s1, 0.2, 0.6) + section_eval(p, s2, 0.2, 0.6)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestOrthonormality:
    def test_diagonal_level_two(self):
        p = SiegelPoint(1j)
        grid = QuadratureGrid(required_grid_size(p, 2))
        v = l2_inner(p, unit(2, 1, 0), unit(2, 1, 0), grid)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_off_diagonal_vanishes(self):
        p = SiegelPoint(1j)
        grid = QuadratureGrid(required_grid_size(p, 2))
        v = l2_inner(p, unit(2, 1, 0), unit(2, 1, 1), grid)
        assert abs(v) < 1e-8

    def test_scalar_case(self):
        p = SiegelPoint(2j)
        grid = QuadratureGrid(required_grid_size(p, 1))
        v = l2_inner(p, unit(1, 1, 0), unit(1, 1, 0), grid)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_conjugate_symmetry(self):
        p = SiegelPoint(0.5 + 0.7j)
        grid = QuadratureGrid(required_grid_size(p, 2))
        s1 = unit(2, 1, 0) + 0.5j * unit(2, 1, 1)
        s2 = unit(2, 1, 1)
        a = l2_inner(p, s1, s2, grid)
        b = l2_inner(p, s2, s1, grid)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_against_brute_grid_oracle(self):
        Z = 0.5 + 0.7j
        p = SiegelPoint(Z)
        N = required_grid_size(p, 1)
        got = l2_inner(p, unit(1, 1, 0), unit(1, 1, 0), QuadratureGrid(N))
        want = inner_product_brute(Z, 1, 0, 0, N)
        assert got == pytest.approx(want, abs=1e-12)

    def test_unnormalized_value(self):
        # without the sqrt(2^n k^n det Y) factor the norm differs from 1
        p = SiegelPoint(2j)
        grid = QuadratureGrid(required_grid_size(p, 1))
        raw = l2_inner(p, unit(1, 1, 0), unit(1, 1, 0), grid, normalized=False)
        assert raw == pytest.approx(1.0 / np.sqrt(2 * 2.0), abs=1e-8)


class TestFrame:
    @pytest.mark.parametrize(
        "Z, k",
        [
            (1j, 3),
            (1 + 2j, 32),
            ([[2j, 0.5j], [0.5j, 1j]], 2),
            ([[1 + 1j, 0.3], [0.3, 0.5 + 2j]], 2),
        ],
    )
    def test_entries_match_brute_sum(self, Z, k):
        # row a, node (x, y): theta_a(x + Zy) exp(-pi k y.Yy), grid axes
        # flattened in the order (x_1..x_n, y_1..y_n)
        p = SiegelPoint(Z)
        n = p.n
        grid = QuadratureGrid(required_grid_size(p, k))
        N = grid.N
        frame = theta_frame_on_grid(p, k, grid)
        assert frame.shape == (k**n, N ** (2 * n))
        Zl = p.Z.tolist()
        for a in (0, k**n - 1):
            label = np.unravel_index(a, (k,) * n)
            for node in ((0,) * (2 * n), (1, N - 1) * n, (N // 3, N // 2) * n):
                x = np.array(node[:n]) / N
                y = np.array(node[n:]) / N
                z = x + p.Z @ y
                want = theta_brute(Zl, k, label, tuple(z), radius=6)
                want *= np.exp(-np.pi * k * (y @ p.Y @ y))
                got = frame[a, np.ravel_multi_index(node, (N,) * (2 * n))]
                assert abs(got - want) < 1e-12

    def test_n3_frame_is_the_section_or_refused(self):
        # a point whose one cross term is Z[0, 2] was once folded axis by
        # axis as if diagonal, and its frame differed from the section by up
        # to 0.082; the box of n >= 3 axes is not built, so its plan is
        # refused
        k, N = 2, 8
        p = SiegelPoint(np.diag([1j, 1.5j, 2j]))
        frame = theta_frame_on_grid(p, k, QuadratureGrid(N))
        for a in range(k**3):
            for node in ((0,) * 6, (1, 3, 7, 2, 5, 6), (4, 0, 2, 7, 1, 3)):
                x, y = np.array(node[:3]) / N, np.array(node[3:]) / N
                want = section_eval(p, unit(k, 3, a), x, y) * np.exp(-np.pi * k * (y @ p.Y @ y))
                assert abs(frame[a, np.ravel_multi_index(node, (N,) * 6)] - want) < 1e-12
        cross = SiegelPoint([[1j, 0, 0.3j], [0, 1.5j, 0], [0.3j, 0, 2j]])
        with pytest.raises(GridError, match="non-diagonal point supports n in"):
            theta_frame_on_grid(cross, k, QuadratureGrid(N))

    def test_frame_is_refused_before_allocation(self):
        # its (16, 2304, 2304) frame alone, 1.27 GiB, was once allocated
        p = SiegelPoint(np.diag([1j, 2j]))
        tracemalloc.start()
        with pytest.raises(SizeLimitError, match="theta frame needs .* GiB at N=48"):
            theta_frame_on_grid(p, 4, QuadratureGrid(48))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20

    def test_frame_figure_bounds_the_traced_peak(self):
        # the frame once had no figure; it counts the box, the y- and
        # x-parts and the frame, at n = 1, 2 and 3
        src = Path(thetaquant.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", _FRAME_PEAK_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        for case, (peak, figure) in json.loads(done.stdout).items():
            assert peak <= figure, (case, peak, figure)


def _pairing_modes(n):
    """The zero mode and 25 modes with every component in [-2, 2] used."""
    rng = range(-2, 3)
    if n == 1:
        modes = [FourierMode((i,), (j,)) for i in rng for j in rng]
    else:  # axes past the second repeat the first
        modes = [FourierMode((i, j) + (i,) * (n - 2), (j, -i) + (j,) * (n - 2))
                 for i in rng for j in rng]
    return [FourierMode((0,) * n, (0,) * n)] + modes


# Traced peak of theta_frame_on_grid against the byte figure it checks,
# read off its call of check_bytes, at n = 1, 2 and 3, in a fresh
# interpreter as _PEAK_SCRIPT below runs.
_FRAME_PEAK_SCRIPT = """
import gc, json, tracemalloc
import numpy as np
from thetaquant import sections
from thetaquant.sections import QuadratureGrid, required_grid_size, theta_frame_on_grid
from thetaquant.siegel import SiegelPoint

figures, check = [], sections.check_bytes
sections.check_bytes = lambda size, *args: (figures.append(size), check(size, *args))
out = {}
for Z, k, N in [(1j, 16, None), (1 + 2j, 8, None), (np.diag([1j, 2j]), 3, None),
                ([[2j, 0.5j], [0.5j, 1j]], 2, None), ([[1 + 1j, 0.3], [0.3, 0.5 + 2j]], 2, 8),
                (np.diag([1j, 2j, 3j]), 2, 8), (np.diag([1j, 2j, 3j]), 1, 8)]:
    p = SiegelPoint(Z)
    grid = QuadratureGrid(N or required_grid_size(p, k))
    theta_frame_on_grid(p, k, grid)
    gc.collect()
    tracemalloc.start()
    theta_frame_on_grid(p, k, grid)
    out[f"{Z}-{k}-{grid.N}"] = (tracemalloc.get_traced_memory()[1], figures[-1])
    tracemalloc.stop()
print(json.dumps(out))
"""


class TestFramePairings:
    # the n = 2 frames at k = 3 are paired on N = 15, and the n = 1 frame
    # at k = 32 on N = 128, multiples of k below the bandwidth rule and
    # below the lattice window: the spectral sum equals the frame pairing on
    # every grid, and only there do terms that collide mod N carry weight
    # (on a bandwidth grid they lie far apart, with products far below
    # rounding); the rule's N = 45 would need a 540 MiB frame at the skew
    # point.  There each r_i has one offset group of several offsets
    # d = r_i + N e.  The diagonal points pair axis by axis, the others on
    # the box of both axes; diag(i, 2i, 3i) at k = 2 pairs on N = 8, below
    # its rule, whose frame would hold 8 32^6 nodes
    @pytest.mark.parametrize(
        "Z, k, N",
        [
            (1j, 32, None),
            (0.5 + 0.7j, 12, None),
            ([[2j, 0.5j], [0.5j, 1j]], 2, None),
            ([[2j, 0.5j], [0.5j, 1j]], 3, 15),
            ([[1 + 1j, 0.3], [0.3, 0.5 + 2j]], 2, None),
            ([[1 + 1j, 0.3], [0.3, 0.5 + 2j]], 3, 15),
            ([[1j, 0], [0, 2j]], 2, None),
            ([[1j, 0], [0, 2j]], 3, None),
            ([[1j, 0], [0, 2j]], 3, 15),
            (1j, 32, 128),
            (np.diag([1j, 2j, 3j]), 2, 8),
        ],
    )
    def test_match_explicit_frame_pairing(self, Z, k, N):
        # sum over the N^{2n} nodes of frame_a conj(frame_b) F_m / N^{2n}
        p = SiegelPoint(Z)
        grid = QuadratureGrid(required_grid_size(p, k, 2))
        if N is not None:
            grid = QuadratureGrid(N)
        modes = _pairing_modes(p.n)
        plan = _plan(p, k, modes, grid.N)
        got = _dense_pairings(_frame_pairings(plan))
        frame = theta_frame_on_grid(p, k, grid)
        frame_conj = frame.conj().T
        weighted = np.empty_like(frame)
        scale = _frame_norm(p, k) / frame.shape[1]
        t = np.arange(grid.N) / grid.N
        for m, pairing in zip(modes, got):
            # F_m on the axes (x_1..x_n, y_1..y_n), flattened like the frame
            axes = [np.exp(2j * np.pi * f * t) for f in m.r + m.s]
            np.multiply(frame, reduce(np.multiply.outer, axes).ravel(), out=weighted)
            want = scale * weighted @ frame_conj
            assert np.max(np.abs(pairing - want)) <= 1e-14, m

    @pytest.mark.parametrize("Z, mode", [
        (1j, ((40,), (-41,))), ([[1j, 0], [0, 2j]], ((40, 0), (1, 1)))])
    def test_mode_that_meets_no_term_of_the_window_pairs_to_zero(self, Z, mode):
        # r = 40 is no offset of the window at k = 2 on the bandwidth grid,
        # so the diagonal path folds nothing into its row
        p = SiegelPoint(Z)
        plan = _plan(p, 2, [mode])  # on the rule's grid, N = 4 (2R + 41)
        got = _dense_pairings(_frame_pairings(plan))
        assert got.shape == (1, 2**p.n, 2**p.n) and not got.any()

    @pytest.mark.parametrize("Z, k", [(1j, 12), ([[1j, 0], [0, 2j]], 4)])
    def test_diagonal_cell_folds_each_offset_once_and_transforms_once_per_axis(
            self, monkeypatch, Z, k):
        # the 25 default modes of toeplitz-compare: at n = 2 they have
        # r_2 = 0, so axis 2 folds only the offsets of r_2 = 0, however many
        # r_1 share it
        p = SiegelPoint(Z)
        grid = QuadratureGrid(required_grid_size(p, k, 2))
        zero, span = (0,) * (p.n - 1), range(-2, 3)
        modes = [FourierMode((r,) + zero, (s,) + zero) for r in span for s in span]
        folds, transforms = [], []
        fold, ifft = _FineLattice.fold, np.fft.ifft

        def counted_fold(self, d, out, *add):
            folds.append((id(self), self.width, d))
            return fold(self, d, out, *add)

        def counted_ifft(*args, **kwargs):
            transforms.append(args[0].shape)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(_FineLattice, "fold", counted_fold)
        monkeypatch.setattr(np.fft, "ifft", counted_ifft)
        quadrature_deviation(p, k, modes, grid)
        assert len(transforms) == p.n
        axes = list(dict.fromkeys(axis for axis, _, _ in folds))
        assert len(axes) == p.n
        width = folds[0][1]
        for i, axis in enumerate(axes):
            want = sorted((d,) for ri in {m.r[i] for m in modes}
                          for d in range(1 - width, width) if (d - ri) % grid.N == 0)
            got = [d for each, _, d in folds if each == axis]
            assert sorted(got) == want, i
        if p.n == 2:  # the last axis's offsets are those of r_2 = 0 alone
            assert {d % grid.N for (d,) in got} == {0}

    def test_window_collides_mod_n(self):
        # on a multiple of k below the rule and the lattice window, the terms
        # k u of one label a meet terms k u + d mod N, d = r mod N, at
        # several offsets d, all with d = r mod k: each label keeps its one
        # partner label b = a + r mod k, and the plan folds every offset in
        # the one group of r (test_match_explicit_frame_pairing checks the
        # pairing at this N)
        p, k, r, N = SiegelPoint(1j), 32, 2, 128
        plan = _plan(p, k, [((r,), (0,))], N)
        assert N < min(plan.rule, plan.width)
        ku = _lattice_terms(plan)[0].ravel()
        i, j = np.nonzero((ku[None, :] - ku[:, None] - r) % N == 0)  # i meets j
        partners = set(zip((ku[i] % k).tolist(), (ku[j] % k).tolist()))
        assert partners == {(a, (a + r) % k) for a in range(k)}
        (offsets,), _ = plan.groups[0]
        assert list(offsets) == sorted(set((ku[j] - ku[i]).tolist()))
        assert len(offsets) > 1

    @pytest.mark.parametrize("Z", [1j, [[1j, 0], [0, 2j]]])
    def test_deviation_counts_the_entries_off_either_support(self, Z):
        # a matrix C with its entries in rows a - r mod k, which the
        # pairings' rows a + r mod k meet only at r = 0: off the meeting
        # entries the deviation reads |Q| and |C|, as the densified max
        # |Q - C| does
        p, k = SiegelPoint(Z), 5
        modes = _pairing_modes(p.n)
        pairings = _frame_pairings(_plan(p, k, modes))
        mirrored = [FourierMode(tuple(-r for r in m.r), m.s) for m in modes]
        rows, values = _clock_shift_columns(k, p.n, mirrored)
        assert (rows != pairings[0]).any(axis=1).tolist() == [any(m.r) for m in modes]
        want = np.abs(_dense_pairings(pairings) - _dense_pairings((rows, values)))
        np.testing.assert_array_equal(_pairing_deviation(pairings, rows, values),
                                      want.max(axis=(1, 2)))


# Traced peak of a gram run and of a quadrature_deviation against the byte
# figure of their plans, printed as JSON; the deviation's modes have r_1 and
# s_1 in [-R, R] and [-S, S] and no other entry.  It runs in a fresh
# interpreter: in a long process the traced peak also depends on the blocks
# earlier calls left.
_PEAK_SCRIPT = """
import ast, gc, json, sys, tracemalloc
from thetaquant.config import parse_config
from thetaquant.experiments import run_experiment
from thetaquant.fourier import FourierMode
from thetaquant.sections import _plan
from thetaquant.siegel import SiegelPoint
from thetaquant.toeplitz import quadrature_deviation

p, k = SiegelPoint(ast.literal_eval(sys.argv[1])), int(sys.argv[2])
R, S = int(sys.argv[3]), int(sys.argv[4])
zero = (0,) * (p.n - 1)
modes = [FourierMode((r,) + zero, (s,) + zero)
         for r in range(-R, R + 1) for s in range(-S, S + 1)]
gram = parse_config(f"experiment = gram\\nn = {p.n}\\nk = {k}\\nZ = "
                    + sys.argv[1].replace("j", "i"))
# each run plans its cell on the rule's grid, as the runners do
runs = {"gram": (lambda: run_experiment(gram, use_cache=False), _plan(p, k).bytes),
        "deviation": (lambda: quadrature_deviation(p, k, modes, _plan(p, k, modes)),
                      _plan(p, k, modes).bytes)}
out = {}
for name, (run, bound) in runs.items():
    run()
    gc.collect()
    tracemalloc.start()
    run()
    out[name] = (tracemalloc.get_traced_memory()[1], bound)
    tracemalloc.stop()
print(json.dumps(out))
"""


class TestPairingBytes:
    # the estimate once missed the ufunc buffers and the n = 1 box build
    # (the n = 1, k = 16 Gram traced 0.13 MiB against 0.06), and the
    # quadrature held one offset group's spectra through the next group's
    # fold (the n = 2, k = 16 deviation traced 117 MiB against 108); the
    # skew and non-normal points assemble the box's exponent on the box; the
    # diagonal point folds axis by axis, where the outputs dominate (its
    # k = 25 deviation, 0.22 GiB, was refused at 8.13 GiB on the box) and
    # the gram runner's copy G - Id once doubled the Gram's (15.8 MB traced
    # against 9.9 at k = 25); the 25 modes r, s in [-2, 2] are the
    # default, and 15 modes r in [-7, 7] at n = 1 give the diagonal path's
    # axis table, which is folded before the outputs exist: its 45 groups of
    # k N take 13 MB against a 1 MB stack, so there the table sets the peak.
    # Since the pairings stay on their support, the diagonal point's 25-mode
    # deviation at k = 64 and its Gram at k = 128 (the zero mode alone, so
    # R = S = 0), once refused at 9.4 GiB and 6.0 GiB of (M, k^n, k^n) stack,
    # hold their rows and the fold's tables.  The odd levels k = 63 on the
    # axis path and k = 7 at the skew point on the box path fold on the
    # rule's grid, a multiple of k, where the box is k times coarser per axis
    # than on the coprime grid the rule once gave them
    @pytest.mark.parametrize("Z, k, R, S", [
        pytest.param(Z, k, 2, 2, id=f"{Z}-{k}") for Z, k in [
            ("1j", 16), ("1j", 63), ("1j", 64), ("[[1j, 0], [0, 2j]]", 6),
            ("[[1j, 0], [0, 2j]]", 16),
            ("[[1j, 0], [0, 2j]]", 25), ("[[1j, 0], [0, 2j]]", 64),
            ("[[2j, 0.5j], [0.5j, 1j]]", 6), ("[[2j, 0.5j], [0.5j, 1j]]", 7),
            ("[[2j, 0.5j], [0.5j, 1j]]", 16),
            ("[[1+1j, 0.3], [0.3, 0.5+2j]]", 6), ("[[1+1j, 0.3], [0.3, 0.5+2j]]", 16),
        ]
    ] + [pytest.param("[[1j, 0, 0], [0, 2j, 0], [0, 0, 3j]]", k, 2, 2, id=f"diag3-{k}")
         for k in (6, 16)
    ] + [pytest.param("1j", 64, 7, 0, id="1j-64-15-modes"),
         pytest.param("[[1j, 0], [0, 2j]]", 128, 0, 0, id="[[1j, 0], [0, 2j]]-128-gram")])
    def test_estimate_bounds_the_traced_peak(self, Z, k, R, S):
        src = Path(thetaquant.__file__).resolve().parents[1]
        args = [Z, str(k), str(R), str(S)]
        done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *args],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        for name, (peak, bound) in json.loads(done.stdout).items():
            assert peak <= bound, (name, peak, bound)


class TestPlan:
    # one plan sizes a cell: the runners once certified the radius four
    # times, searched the grid rule twice and laid out each axis's offset
    # groups twice per cell
    @pytest.mark.parametrize("grid", [None, 48], ids=["rule", "given"])
    @pytest.mark.parametrize("Z", ["i", "[[1i, 0], [0, 2i]]", "[[2i, 0.5i], [0.5i, 1i]]"])
    @pytest.mark.parametrize("experiment, m_max", [("gram", 0), ("toeplitz-compare", 2)])
    def test_cell_certifies_sizes_and_lays_out_once(self, count_calls, experiment,
                                                    m_max, Z, grid):
        n = 1 if Z == "i" else 2
        given = "" if grid is None else f"grid = {grid}\n"  # a multiple of both levels
        (m,) = parse_config_all(f"[{experiment}]\nn = {n}\nk = 2, 3\nZ = {Z}\n{given}")
        (p,) = m.points
        calls = count_calls((theta, "truncation_radius"), (sections, "truncation_radius"),
                            (sections, "_y_alias_tail"), (sections, "_axis_groups"))
        for k in m.k_values:  # one rule search per level, for reference
            required_grid_size(p, k, m_max)
        searches = calls["_y_alias_tail"]
        calls.clear()
        doc = run_experiment(m, use_cache=False)
        assert doc.passed and len(doc.rows) == (1 if experiment == "gram" else 25) * 2
        cells = len(m.k_values)
        assert calls == Counter(truncation_radius=cells, _y_alias_tail=searches,
                                _axis_groups=n * cells)

    def test_plan_of_another_cell_is_refused(self):
        p, q = SiegelPoint(1j), SiegelPoint(1 + 2j)
        modes = [FourierMode((1,), (0,)), FourierMode((0,), (1,))]
        plan = _plan(p, 2, modes)
        assert np.array_equal(quadrature_deviation(p, 2, _mode_table(modes), plan),
                              quadrature_deviation(p, 2, modes, QuadratureGrid(plan.N)))
        for quadrature in (
            lambda: quadrature_deviation(q, 2, modes, plan),  # another point
            lambda: quadrature_deviation(p, 3, modes, plan),  # another level
            lambda: quadrature_deviation(p, 2, modes[:1], plan),  # other modes
            lambda: quadrature_deviation(p, 2, plan.table[:1], plan),  # a view of its table
            lambda: toeplitz_modes_quadrature(p, 2, modes[::-1], plan),
            lambda: gram_matrix(p, 2, plan),  # the Gram's plan has the zero mode alone
        ):
            with pytest.raises(ValueError, match="plan was built for another"):
                quadrature()
        gram_matrix(p, 2, _plan(p, 2))

    def test_plans_own_table_is_not_coerced_again(self, monkeypatch):
        # the runners hand the plan's table object back with the plan; other
        # modes are coerced and compared
        p, modes = SiegelPoint(1j), [FourierMode((1,), (0,)), FourierMode((0,), (1,))]
        plan = _plan(p, 2, modes)
        tables = []
        table = sections._table
        monkeypatch.setattr(sections, "_table", lambda *a: tables.append(a) or table(*a))
        want = quadrature_deviation(p, 2, modes, plan)
        assert len(tables) == 1
        assert np.array_equal(quadrature_deviation(p, 2, plan.table, plan), want)
        assert len(tables) == 1

    @pytest.mark.parametrize("Z, ks", [
        (1j, (2, 3, 5, 8)), (0.5 + 0.7j, (2, 3, 5, 8)), ([[1j, 0], [0, 2j]], (2, 3)),
        ([[2j, 0.5j], [0.5j, 1j]], (2, 3)), ([[1 + 1j, 0.3], [0.3, 0.5 + 2j]], (2, 3)),
    ])
    def test_batched_quadrature_is_the_one_mode_result_bitwise(self, Z, ks):
        # the plan's group layout decides which table rows each mode reads
        p = SiegelPoint(Z)
        rng = np.random.default_rng(26)
        for k in ks:
            rs = rng.integers(-3, 4, size=(7, 2 * p.n))
            modes = [FourierMode(tuple(v[:p.n]), tuple(v[p.n:])) for v in rs.tolist()]
            grid = QuadratureGrid(required_grid_size(p, k, int(np.abs(rs).max())))
            got = quadrature_deviation(p, k, modes, grid)
            assert np.array_equal(got, quadrature_deviation(p, k, _mode_table(modes), grid))
            one = [quadrature_deviation(p, k, [m], grid)[0] for m in modes]
            assert np.array_equal(got, one), k
            stack = toeplitz_modes_quadrature(p, k, modes, grid)
            for m in modes:
                (alone,) = toeplitz_modes_quadrature(p, k, [m], grid).values()
                assert np.array_equal(stack[m].entries, alone.entries), (k, m)


def _box_axis(fine):
    """The axis v of the box: node c of a window of half-width half sits
    at v = (c - N half)/N."""
    half = (fine.width // fine.k - 1) // 2
    size = fine.G.shape[0]
    return (np.arange(size) - fine.step_u * fine.k * half) / fine.N


class TestFineLattice:
    # the box is G = exp(i pi k v.Zv) at every node; a diagonal Z takes the
    # outer product of the axis factors, any other Z one exponential of the
    # assembled exponent
    @pytest.mark.parametrize("Z", [1j, 1 + 2j, 0.5 + 0.7j])
    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_box_is_the_gaussian_bitwise_n1(self, Z, k):
        p = SiegelPoint(Z)
        fine = _FineLattice.build(_plan(p, k, N=required_grid_size(p, k, 2)))
        v = _box_axis(fine)
        assert np.array_equal(fine.G, np.exp((1j * np.pi * k * p.Z[0, 0] * v) * v))

    @pytest.mark.parametrize("Z", [
        [[1j, 0], [0, 2j]],
        [[2j, 0.5j], [0.5j, 1j]],
        [[1 + 1j, 0.3], [0.3, 0.5 + 2j]],
        [[1 + 1j, 0.3 + 1e-13], [0.3, 0.5 + 2j]],
    ], ids=["diagonal", "skew", "non-normal", "symmetric-to-1e-13"])
    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_box_is_the_gaussian_n2(self, Z, k):
        p = SiegelPoint(Z)
        fine = _FineLattice.build(_plan(p, k))
        v = _box_axis(fine)
        V = np.stack(np.meshgrid(v, v, indexing="ij"), axis=-1)
        direct = np.exp(1j * np.pi * k * np.einsum("abi,ij,abj->ab", V, p.Z, V))
        assert np.max(np.abs(fine.G - direct)) <= 1e-15

    def test_skew_box_does_not_overflow(self):
        # a separate cross factor exp(2 pi i k Z_01 v v') has modulus
        # exp(2 pi k Y_01 v v') > 1e308 on this box
        p = SiegelPoint([[2j, 0.5j], [0.5j, 1j]])
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            fine = _FineLattice.build(_plan(p, 64))
        assert np.all(np.isfinite(fine.G))
        assert np.max(np.abs(fine.G)) <= 1.0

    def test_terms_are_read_only(self):
        p = SiegelPoint([[1j, 0], [0, 2j]])
        fine = _FineLattice.build(_plan(p, 3))
        view = fine.terms(fine.G, (0, 0), (3, 3, 1, 1, 4, 4))
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0, 0, 0, 0] = 0


class TestGram:
    @pytest.mark.parametrize("z", [1j, 1 + 2j, 0.5 + 0.7j])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_identity_n1(self, z, k):
        p = SiegelPoint(z)
        G = gram_matrix(p, k, QuadratureGrid(required_grid_size(p, k)))
        assert np.max(np.abs(G - np.eye(k))) < 1e-8
        assert np.max(np.abs(G - G.conj().T)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_identity_n2(self, point_n2, k):
        G = gram_matrix(point_n2, k, QuadratureGrid(required_grid_size(point_n2, k)))
        assert np.max(np.abs(G - np.eye(k**2))) < 1e-7

    @pytest.mark.parametrize("n, gram_levels, compare_levels", [
        (3, range(2, 17), range(2, 9)), (4, range(2, 7), range(2, 7))])
    def test_criteria_1_and_2_hold_at_a_diagonal_point_of_genus_3_and_4(
            self, n, gram_levels, compare_levels):
        # the default point diag(i, ..., ni) was once refused at n > 2; the
        # axis path folds it at every n, at rounding level
        for experiment, levels in (("gram", gram_levels), ("toeplitz-compare", compare_levels)):
            ks = ", ".join(map(str, levels))
            (m,) = parse_config_all(f"[{experiment}]\nn = {n}\nk = {ks}\n")
            assert np.array_equal(m.points[0].Z, np.diag(1j * np.arange(1, n + 1)))
            doc = run_experiment(m, use_cache=False)
            assert doc.passed, experiment
            assert float(doc.verdicts[0]["observed"]) < 1e-14, experiment

    @pytest.mark.parametrize("z", [20j, 50j])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_identity_at_wide_y_bandwidth(self, z, k):
        # the y-Gaussians of a large Y alias on the x-rule's grid: Z = 20i
        # at k = 4 once took N = 16 and read |Gram - Id| = 1.3e-2
        p = SiegelPoint(z)
        G = gram_matrix(p, k, QuadratureGrid(required_grid_size(p, k)))
        assert np.max(np.abs(G - np.eye(k))) < 1e-8

    def test_grid_rule_never_drops_below_the_x_rule(self):
        for z in (1j, 1 + 2j, 0.5 + 0.7j, 3 + 1j, 20j, [[2j, 0.5j], [0.5j, 1j]]):
            p = SiegelPoint(z)
            for k in (1, 2, 3, 8, 16):
                for m_max in (0, 2):
                    radius = truncation_radius(p, k, 1e-12).radius
                    x_rule = 4 * (k * int(np.ceil(radius)) + m_max)
                    assert required_grid_size(p, k, m_max) >= x_rule

    def test_grid_refinement_stability(self):
        p = SiegelPoint(1j)
        N = required_grid_size(p, 2)
        G1 = gram_matrix(p, 2, QuadratureGrid(N))
        G2 = gram_matrix(p, 2, QuadratureGrid(2 * N))
        assert np.max(np.abs(G1 - G2)) < 1e-10

    def test_refusal_names_required_size(self):
        p = SiegelPoint(1j)
        need = required_grid_size(p, 4)
        with pytest.raises(GridError, match=str(need)):
            gram_matrix(p, 4, QuadratureGrid(need - 4))

    @pytest.mark.parametrize("quadrature", [
        lambda p, k, grid: gram_matrix(p, k, grid),
        lambda p, k, grid: quadrature_deviation(p, k, [((0,), (0,))], grid),
        theta_frame_on_grid,
    ], ids=["gram_matrix", "quadrature_deviation", "theta_frame_on_grid"])
    def test_grid_off_the_multiples_of_k_is_refused(self, quadrature):
        # a grid coprime to k was once folded on a k times finer lattice;
        # every path now folds multiples of k only, above the rule or below
        p, k = SiegelPoint(1j), 4
        need = required_grid_size(p, k)
        with pytest.raises(GridError, match=f"N={need + 1} is not a multiple of k={k}: "
                                            f"the bandwidth rule gives N={need}$"):
            quadrature(p, k, QuadratureGrid(need + 1))

    @pytest.mark.parametrize("quadrature", [
        lambda p, grid, mode: gram_matrix(p, 2, grid),
        lambda p, grid, mode: l2_inner(p, unit(2, 3, 0), unit(2, 3, 1), grid),
        lambda p, grid, mode: toeplitz_modes_quadrature(p, 2, [mode], grid),
        lambda p, grid, mode: quadrature_deviation(p, 2, [mode], grid),
    ], ids=["gram_matrix", "l2_inner", "toeplitz_modes_quadrature",
            "quadrature_deviation"])
    def test_every_quadrature_refuses_n3(self, quadrature):
        # a grid's own range check once raised a bare ValueError here; the
        # diagonal n = 3 point runs, and one whose only cross term is
        # Z[0, 2] has no box to fold on
        p = SiegelPoint([[1j, 0, 0.3j], [0, 2j, 0], [0.3j, 0, 3j]])
        mode = FourierMode((1, 0, 0), (0, 0, 0))
        refusal = r"non-diagonal point supports n in \{1, 2\}, got n = 3"
        with pytest.raises(GridError, match=refusal):
            quadrature(p, QuadratureGrid(64), mode)

    def test_periodicity_certificate(self):
        p = SiegelPoint(1 + 2j)
        s1 = unit(2, 1, 0)
        s2 = unit(2, 1, 1)
        assert integrand_periodicity_residual(p, s1, s2) < 1e-12


class TestWeightIdentity:
    def test_x_direction_exact(self):
        p = SiegelPoint(1j)
        assert lattice_weight_identity(p, 0.2 + 0.3j, 0) < 1e-14

    @pytest.mark.parametrize("z", [1j, 1 + 2j, 0.5 + 0.7j])
    def test_lattice_direction(self, z):
        p = SiegelPoint(z)
        assert lattice_weight_identity(p, 0.2 + 0.3j, 1) < 1e-12

    def test_n2_all_directions(self, point_n2):
        zz = np.array([0.15 + 0.21j, 0.64 - 0.13j])
        for idx in range(4):
            assert lattice_weight_identity(point_n2, zz, idx) < 1e-12

    @pytest.mark.parametrize("pair", [(0, 1), (1, 1), (0, 0)])
    def test_cocycle(self, pair):
        p = SiegelPoint(1 + 1j)
        assert cocycle_residual(p, 0.2 + 0.3j, *pair) < 1e-12
