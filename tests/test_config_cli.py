import os
import warnings

import numpy as np
import pytest

from thetaquant.cli import main
from thetaquant.config import (
    EXPERIMENT_IDS,
    EXPERIMENTS,
    ConfigError,
    parse_complex,
    parse_config,
    parse_config_all,
    parse_matrix,
)
from thetaquant.experiments import (
    _EXPERIMENTS,
    emit_outputs,
    fmt_cell,
    fmt_ints,
    fmt_point,
    run_experiment,
)
from thetaquant.fourier import FourierFunction
from thetaquant.sections import _plan, gram_matrix
from thetaquant.siegel import SiegelPoint
from thetaquant.toeplitz import OperatorMatrix, WeylSymbol, product_expansion_fit

N2 = "[[1i, 0], [0, 2i]]"
P3 = "[[1i, 0, 0], [0, 2i, 0], [0, 0, 3i]]"
# a non-diagonal n = 3 point, whose only cross term Z[0, 2] has no box to fold on
CROSS3 = "[[1i, 0, 0.3i], [0, 2i, 0], [0.3i, 0, 3i]]"
N3_REFUSAL = "quadrature at a non-diagonal point supports n in {1, 2}, got n = 3"


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("i") == 1j
        assert parse_complex("2i") == 2j
        assert parse_complex("1+0.5i") == 1 + 0.5j
        assert parse_complex("-0.5-0.7i") == -0.5 - 0.7j
        assert parse_complex("3") == 3.0
        with pytest.raises(ConfigError):
            parse_complex("1+*i")

    def test_matrix_forms(self):
        m = parse_matrix("[[i, 0], [0, 2i]]")
        assert np.allclose(m, np.diag([1j, 2j]))
        assert parse_matrix("1+2i").shape == (1, 1)
        with pytest.raises(ConfigError):
            parse_matrix("[[i, 0], [0]]")

    def test_minimal_document_with_defaults(self):
        m = parse_config("experiment = gram, n = 1, k = 4")
        assert m.experiment == "gram"
        assert m.k_values == (4,)
        # default n=1 Siegel points: i, 1+2i, 0.5+0.7i
        assert len(m.points) == 3
        assert m.points[0].Z[0, 0] == 1j

    def test_z_splits_into_real_imag(self):
        m = parse_config("experiment = gram\nZ = 1+0.5i")
        p = m.points[0]
        assert p.X[0, 0] == 1.0 and p.Y[0, 0] == 0.5

    def test_rejects_nonpositive_y_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("experiment = gram\nZ = 1-1i")
        assert "line 2" in str(err.value)
        assert "positive definite" in str(err.value)

    def test_unknown_key_reports_line(self):
        # workers and epsilon were keys once; they are unknown now like any other
        for key in ("bogus", "workers", "epsilon"):
            with pytest.raises(ConfigError) as err:
                parse_config(f"experiment = gram\n{key} = 3")
            assert "line 2" in str(err.value)
            assert key in str(err.value)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = nonsense")

    def test_sections_give_multiple_manifests(self):
        text = """
        [gram]
        k = 2
        [tqft]
        genus = 1
        k = 5
        """
        ms = parse_config_all(text)
        assert [m.experiment for m in ms] == ["gram", "tqft"]
        assert ms[1].k_values == (5,)

    def test_modes_and_comments(self):
        m = parse_config("# header\nexperiment = covariance\nmodes = 1,0; 0,1")
        assert m.modes == (((1,), (0,)), ((0,), (1,)))

    def test_n_above_two_defaults_to_the_diagonal_point(self, tmp_path, capsys):
        # n = 3 once had no default point; it runs at diag(i, 2i, 3i), which
        # the quadrature folds axis by axis, while a non-diagonal point is
        # refused in every row
        m = parse_config("experiment = gram\nn = 3\nk = 1, 2")
        (p,) = m.points
        assert np.array_equal(p.Z, np.diag([1j, 2j, 3j]))
        assert run_experiment(m, use_cache=False).passed
        m = parse_config(f"experiment = gram\nn = 3\nk = 1, 2\nZ = {CROSS3}")
        doc = run_experiment(m, use_cache=False)
        assert [row[-1] for row in doc.rows] == [f"refused: {N3_REFUSAL}"] * 2
        cfg = tmp_path / "gram.cfg"
        cfg.write_text(f"[gram]\nn = 3\nk = 1, 2\nZ = {CROSS3}\n")
        assert main(["experiment", "run", str(cfg), "--no-cache"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("body, line, key", [
        ("[gram]\nk = 2\ngenus = 2", 3, "genus"),
        ("[tqft]\nn = 1", 2, "n"),
        ("[tqft]\ngenus = 2\nn = 1", 3, "n"),
        ("[bms]\ngrid = 64", 2, "grid"),
        ("[bms]\ntol = 1e-3", 2, "tol"),
        ("[bms]\nk = 8, 16\ngrid = 64, tol = 1e-300", 3, "grid"),
        ("[heat-identity]\nmodes = 1,0", 2, "modes"),
        ("[pairing-limit]\ngenus = 1", 2, "genus"),
        ("[tqft]\nZ = i", 2, "Z"),
    ], ids=lambda v: v.replace("\n", " ") if isinstance(v, str) else None)
    def test_keys_the_runner_does_not_read_are_refused(self, tmp_path, capsys,
                                                       body, line, key):
        # each once ran with the key ignored: gram at n = 1 with genus = 2 in
        # its cache key, tqft at diag(i, 2i) over the n = 1 points, bms at
        # the grid and tolerance it never reads, tqft at a point its curve
        # operators do not depend on
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(body + "\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        experiment = body[1:body.index("]")]
        assert capsys.readouterr().err == (
            f"error: line {line}: {experiment} does not read {key}\n"
        )
        assert rc == 2

    def test_every_key_the_table_lists_reaches_its_runner(self):
        # a key that an experiment's record reads changes what its runner
        # writes; tqft's genus is its dimension, as every other n
        base = {"gram": "k = 2\nZ = 1+2i", "toeplitz-compare": "k = 2\nZ = i",
                "heat-identity": "k = 2\nZ = i", "covariance": "k = 2\nZ = i; 1+2i",
                "trace-lemma": "k = 2\nZ = i", "bms": "k = 2, 4\nZ = i",
                "pairing-limit": "k = 2, 4\nZ = i", "flatness": "Z = i",
                "star-fit": "k = 2, 3, 4, 5, 6\nZ = i", "tqft": "k = 2, 3"}
        values = {"Z": "0.5+0.7i; 2i", "tol": "0.125", "grid": "96",
                  "modes": "1,0; 0,1"}
        for experiment, spec in EXPERIMENTS.items():
            dimension, *keys = spec.reads
            text = f"[{experiment}]\n{base[experiment]}"
            plain = run_experiment(parse_config(text), use_cache=False)
            for key in keys:
                changed = run_experiment(
                    parse_config(f"{text}\n{key} = {values[key]}"), use_cache=False
                )
                assert changed.csv_bytes() != plain.csv_bytes() or (
                    key == "tol" and any(v["tolerance"] == "0.125"
                                         for v in changed.verdicts)
                ), (experiment, key)
            points = f"\nZ = {P3}; {P3}" if "Z" in keys else ""
            wide = parse_config(f"[{experiment}]\n{dimension} = 3\n"
                                f"k = 2, 3, 4, 5, 6{points}")
            assert wide.n == 3, experiment


class TestRunAndCache:
    def test_gram_experiment_passes(self, tmp_path):
        m = parse_config("experiment = gram, n = 1, k = 4, Z = i")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert doc.passed
        assert doc.columns[0] == "n"
        assert float(doc.verdicts[0]["observed"]) < 1e-8

    def test_cache_hit_gives_identical_bytes(self, tmp_path):
        m = parse_config("experiment = tqft, genus = 1, k = 5")
        m.cache_dir = str(tmp_path)
        d1 = run_experiment(m)
        d2 = run_experiment(m)
        assert not d1.cache_hit and d2.cache_hit
        assert d1.csv_bytes() == d2.csv_bytes()

    def test_cache_key_tracks_parameters(self, tmp_path):
        from thetaquant.experiments import _cache_key

        m1 = parse_config("experiment = tqft, genus = 1, k = 5")
        m2 = parse_config("experiment = tqft, genus = 1, k = 6")
        m3 = parse_config("experiment = tqft, genus = 2, k = 5")
        keys = {_cache_key(m) for m in (m1, m2, m3)}
        assert len(keys) == 3

    def test_cache_key_tracks_sources(self, tmp_path, monkeypatch):
        from thetaquant import experiments

        m = parse_config("experiment = tqft, genus = 1, k = 5")
        m.cache_dir = str(tmp_path)
        before = experiments._cache_key(m)
        run_experiment(m)
        assert os.listdir(tmp_path) == [before + ".json"]
        monkeypatch.setattr(experiments, "_source_hash", lambda: "0" * 64)
        assert experiments._cache_key(m) != before
        assert not run_experiment(m).cache_hit

    def test_cache_key_tracks_the_environment(self, tmp_path, monkeypatch):
        # rows made under another numpy are not what this setup would produce
        from thetaquant import experiments

        m = parse_config("experiment = tqft, genus = 1, k = 5")
        m.cache_dir = str(tmp_path)
        before = experiments._cache_key(m)
        run_experiment(m)
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert experiments._cache_key(m) != before
        assert not run_experiment(m).cache_hit

    def test_tqft_experiment_values(self, tmp_path):
        m = parse_config("experiment = tqft, genus = 1, k = 5")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert doc.passed
        assert doc.rows[0][4] == "5+0i"

    def test_failed_criterion_reports_values(self, tmp_path):
        # unreachable tolerance: verdict names observed value and tolerance
        # (at Z = i, k = 2 the Gram matrix is exactly the identity, so
        # it would pass any tolerance)
        m = parse_config("experiment = gram, n = 1, k = 2, Z = 1+2i, tol = 1e-17")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert not doc.passed
        v = doc.verdicts[0]
        assert float(v["observed"]) > 1e-17
        assert float(v["tolerance"]) == 1e-17
        assert "1e-17" in doc.summary_text()

    def test_nan_gram_fails(self, monkeypatch):
        # all-NaN Gram entries must not read as a pass: here every pairing
        # on the Gram's diagonal support is NaN
        monkeypatch.setattr(
            "thetaquant.toeplitz._frame_pairings",
            lambda plan: (np.arange(plan.k**plan.p.n)[None, :],
                          np.full((1, plan.k**plan.p.n), np.nan, dtype=complex)),
        )
        m = parse_config("experiment = gram, n = 1, k = 32, Z = 1+2i")
        with np.errstate(all="ignore"):
            doc = run_experiment(m, use_cache=False)
        assert not doc.passed
        assert doc.verdicts[0]["observed"] == "nan"

    def test_high_level_gram_passes(self):
        # the grid frame once overflowed here and gave all-NaN Gram matrices
        m = parse_config("experiment = gram\nn = 1\nk = 32, 64\nZ = 1+2i; i")
        doc = run_experiment(m, use_cache=False)
        assert doc.passed
        assert len(doc.rows) == 4
        for row in doc.rows:
            assert row[-1] == "pass"
            assert np.isfinite(float(row[4]))

    def test_frame_too_large_is_refused(self):
        # the k = 4096 pairings would hold 3.0 GiB; refused before allocation
        m = parse_config("experiment = gram\nn = 2\nk = 4, 4096")
        doc = run_experiment(m, use_cache=False)
        (measured, refused) = doc.rows
        assert measured[1] == "4" and measured[-1] == "pass"
        assert refused[1] == "4096" and refused[-1].startswith("refused:")
        assert "GiB" in refused[-1]
        assert not doc.passed

    @pytest.mark.parametrize("experiment", ["gram", "toeplitz-compare"])
    def test_default_n2_sweeps_pass(self, experiment):
        # the n = 2 sweeps to k = 8 / k = 6 were refused by the size of a
        # k^n x N^{2n} frame that no quadrature builds
        m = parse_config(f"experiment = {experiment}\nn = 2")
        doc = run_experiment(m, use_cache=False)
        assert doc.rows and all(row[-1] == "pass" for row in doc.rows)
        assert "refused_levels" not in doc.extras
        assert doc.passed

    @pytest.mark.parametrize("experiment, ks", [
        ("toeplitz-compare", "25, 27, 29"), ("gram", "48")])
    def test_diagonal_n2_levels_past_the_box_wall_pass(self, experiment, ks):
        # refused at the default point while the pairings folded the box of
        # both axes: 8.13 GiB for the 25 modes at k = 25, 2.7 GiB for k = 48
        m = parse_config(f"experiment = {experiment}\nn = 2\nk = {ks}")
        doc = run_experiment(m, use_cache=False)
        assert doc.rows and all(row[-1] == "pass" for row in doc.rows)
        assert "refused_levels" not in doc.extras
        assert doc.passed

    @pytest.mark.parametrize("experiment, ks", [
        ("gram", "82, 128"), ("toeplitz-compare", "37, 64")])
    def test_diagonal_n2_levels_past_the_stack_wall_pass(self, experiment, ks):
        # refused at the default point while the pairings were scattered into
        # an (M, k^n, k^n) stack: from k = 82 for the Gram (1.01 GiB) and
        # from k = 37 for the 25 modes (1.06 GiB)
        m = parse_config(f"experiment = {experiment}\nn = 2\nk = {ks}")
        doc = run_experiment(m, use_cache=False)
        assert doc.rows and all(row[-1] == "pass" for row in doc.rows)
        assert "refused_levels" not in doc.extras
        assert doc.passed

    def test_refused_rows_show_the_tried_grid(self):
        # the N cell is the given grid, or the rule's once the radius is
        # certified; a non-diagonal n = 3 point is refused before it
        no_radius = "no certifiable truncation radius"
        n3 = "n in {1, 2}, got n = 3"
        # the rule's N of the 25 default modes, r and s in [-2, 2] on axis 1
        span = range(-2, 3)
        compare = _plan(SiegelPoint(np.diag([1j, 2j])), 512,
                        [((r, 0), (s, 0)) for r in span for s in span]).N
        for experiment, text, n_col, N, why in (
            ("gram", "n = 2\nk = 4096", 3, "16384", "GiB at N=16384"),
            ("toeplitz-compare", "n = 2\nk = 512", 2, str(compare), f"GiB at N={compare}"),
            ("gram", "n = 1\nk = 2\nZ = 0.00001i", 3, "", no_radius),
            ("gram", "n = 1\nk = 2\nZ = 0.00001i\ngrid = 64", 3, "64", no_radius),
            ("gram", "k = 4\nZ = i\ngrid = 8", 3, "8", "N=8, bandwidth rule needs N >= 32"),
            ("gram", f"n = 3\nk = 2\nZ = {CROSS3}", 3, "", n3),
            ("gram", f"n = 3\nk = 2\nZ = {CROSS3}\ngrid = 64", 3, "64", n3),
            ("toeplitz-compare", "n = 1\nk = 2\nZ = 0.00001i\ngrid = 64", 2, "64",
             no_radius),
        ):
            m = parse_config(f"experiment = {experiment}\n{text}")
            doc = run_experiment(m, use_cache=False)
            (refused,) = doc.rows
            assert refused[-1].startswith("refused:") and why in refused[-1], text
            assert refused[n_col] == N, text
            assert not doc.passed

    def test_grid_off_the_multiples_of_k_is_a_refused_row(self):
        # k = 3 on 64 nodes was once folded on a lattice 3 times finer
        m = parse_config("[gram]\nn = 1\nk = 3, 4\nZ = i\ngrid = 64")
        doc = run_experiment(m, use_cache=False)
        three, four = doc.rows
        assert three[3] == four[3] == "64"
        assert three[-1] == "refused: grid N=64 is not a multiple of k=3: " \
                            "the bandwidth rule gives N=24"
        assert four[-1] == "pass"
        assert doc.extras == {"refused_levels": "3"} and not doc.passed

    def test_refused_rows_fail_their_verdict(self):
        # a refused row once dropped out, so the rows left passed the sweep
        for experiment, ks in (("gram", "2, 4096"), ("toeplitz-compare", "2, 512")):
            m = parse_config(f"experiment = {experiment}\nn = 2\nk = {ks}")
            doc = run_experiment(m, use_cache=False)
            *measured, refused = doc.rows
            assert all(row[-1] == "pass" for row in measured)
            assert refused[-1].startswith("refused:")
            assert doc.verdicts[0]["observed"] == "nan"
            assert not doc.passed
            assert doc.extras["refused_levels"] == ks.split(", ")[1]
            assert "refused_levels: " in doc.summary_text()

    @pytest.mark.parametrize("experiment", ["gram", "toeplitz-compare"])
    def test_n3_quadrature_is_refused_in_its_rows(self, experiment):
        # a grid's own range check once ended these runs in a traceback
        m = parse_config(f"experiment = {experiment}\nk = 1, 2\nZ = {CROSS3}")
        doc = run_experiment(m, use_cache=False)
        assert [row[-1] for row in doc.rows] == [f"refused: {N3_REFUSAL}"] * 2
        assert doc.verdicts[0]["observed"] == "nan" and not doc.passed
        assert doc.extras["refused_levels"] == "1|2"

    def test_bms_sup_comes_from_the_modes(self, tmp_path, capsys, monkeypatch):
        # the n = 2 sup once needed a 256^4 grid and was refused with exit 2;
        # the sup is now read off the modes and no grid of the cell is used
        def no_grid(*args, **kwargs):
            raise AssertionError("dense sup grid")

        monkeypatch.setattr("thetaquant.fourier.dense_max_abs", no_grid)
        for text in ("[bms]\nn = 2\nk = 8, 16\n",
                     "[bms]\nn = 1\nk = 8192, 16384\nZ = i\n"):
            cfg = tmp_path / "bms.cfg"
            cfg.write_text(text)
            rc = main(["experiment", "run", str(cfg), "--no-cache"])
            out = capsys.readouterr().out
            assert rc == 0, text
            assert "overall: PASS" in out
            assert "sup: 2\n" in out and "sup_method: line" in out
            assert "sup_gap: " in out

    def test_tqft_distinct_curves_are_measured(self, monkeypatch):
        # the expected value of two different curves was NaN, and its row
        # counted as an error of 0 whatever the invariant read
        m = parse_config(
            "experiment = tqft\ngenus = 1\nk = 2, 3, 5\nmodes = 1,0; 0,1"
        )
        doc = run_experiment(m, use_cache=False)
        assert doc.passed
        for row in doc.rows:
            assert row[2:4] == ["1;0", "0;1"]
            assert row[4] == row[5] == "0+0i" and row[-1] == "pass"
        from thetaquant import experiments

        invariant = experiments.mapping_torus_invariant
        monkeypatch.setattr(
            experiments, "mapping_torus_invariant",
            lambda *args: invariant(*args) + 1e-3,
        )
        doc = run_experiment(m, use_cache=False)
        assert not doc.passed
        assert all(row[-1] == "fail" for row in doc.rows)

    def test_tqft_single_curve_pairs_with_the_empty_curve(self):
        # tr(W(m) W(0)*) = tr W(m): k^g only when k divides the mode
        m = parse_config("experiment = tqft\ngenus = 1\nk = 2, 3, 5\nmodes = 2,0")
        doc = run_experiment(m, use_cache=False)
        assert doc.passed
        assert [row[4] for row in doc.rows] == ["2+0i", "0+0i", "0+0i"]
        assert [row[3] for row in doc.rows] == ["empty"] * 3

    def test_tqft_distinct_curves_above_the_dense_limit_are_refused(self):
        m = parse_config(
            "experiment = tqft\ngenus = 1\nk = 5, 8192\nmodes = 1,0; 0,1"
        )
        doc = run_experiment(m, use_cache=False)
        measured, refused = doc.rows
        assert measured[-1] == "pass"
        assert refused[5] == "-" and refused[-1].startswith("refused:")
        assert "4096" in refused[-1]
        assert not doc.passed

    def test_large_levels_run_without_dense_matrices(self, monkeypatch):
        # each sweep once needed a k^n x k^n matrix above MAX_DENSE_DIM
        def no_dense(self):
            raise AssertionError(f"dense matrix at k = {self.k}")

        monkeypatch.setattr(WeylSymbol, "to_dense", no_dense)
        for text in ("experiment = bms\nn = 1\nk = 8192, 16384\nZ = i",
                     "experiment = pairing-limit\nn = 1\nk = 4096, 8192, 16384",
                     "experiment = tqft\ngenus = 3\nk = 32",
                     "experiment = star-fit\nn = 1\nk = 1024, 2048, 4096, 8192, 16384",
                     "experiment = star-fit\nn = 2\nk = 1024, 2048, 4096, 8192, 16384"):
            doc = run_experiment(parse_config(text), use_cache=False)
            assert doc.passed, text
            assert all(row[-1] == "pass" for row in doc.rows)

    def test_quadrature_sweeps_build_no_dense_operator(self, monkeypatch):
        # toeplitz-compare once built a dense closed form and copied a
        # transposed quadrature matrix for every mode
        def no_dense(self, *args):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(WeylSymbol, "to_dense", no_dense)
        monkeypatch.setattr(OperatorMatrix, "__post_init__", no_dense)
        for text in ("experiment = gram\nn = 1\nk = 8, 16, 24, 32\n"
                     "Z = i; 1+2i; 0.5+0.7i",
                     "experiment = gram\nn = 2\nk = 2, 3",
                     "experiment = toeplitz-compare\nn = 1\nk = 4, 8, 12, 16\n"
                     "Z = i; 1+2i; 0.5+0.7i",
                     "experiment = toeplitz-compare\nn = 2\nk = 2"):
            doc = run_experiment(parse_config(text), use_cache=False)
            assert doc.passed, text

    def test_n2_defaults_embed_the_n1_modes(self):
        # without modes both once ended in a traceback at n = 2
        for experiment in ("pairing-limit", "star-fit"):
            doc = run_experiment(
                parse_config(f"experiment = {experiment}\nn = 2"), use_cache=False
            )
            assert doc.passed, experiment
            assert doc.rows and all(row[-1] == "pass" for row in doc.rows)

    def test_sweep_that_measured_nothing_fails(self, monkeypatch):
        # nine dense 4096 x 4096 operators and one copy would hold 2.5 GiB:
        # the level is refused before any is built, and its NaNs fail both
        # verdicts
        def no_dense(self):
            raise AssertionError(f"dense matrix at k = {self.k}")

        monkeypatch.setattr(WeylSymbol, "to_dense", no_dense)
        m = parse_config("experiment = trace-lemma, n = 2, k = 64")
        doc = run_experiment(m, use_cache=False)
        (row,) = doc.rows
        assert row[0] == "64" and row[-1].startswith("refused: ")
        assert "2.5 GiB" in row[-1]
        assert doc.extras["refused_levels"] == "64"
        assert all(v["observed"] == "nan" for v in doc.verdicts)
        assert not any(v["passed"] for v in doc.verdicts)

    @pytest.mark.parametrize("text", [
        "experiment = heat-identity\nn = 1\nk = 2, 16, 64, 256, 1024",
        "experiment = heat-identity\nn = 2\nk = 16, 64, 128",
        "experiment = covariance\nn = 1\nk = 2, 16, 64, 256, 1024",
        "experiment = covariance\nn = 2\nk = 16, 64, 128\n"
        "Z = [[1i, 0], [0, 2i]]; [[2i, 0.5i], [0.5i, 1i]]",
        "experiment = trace-lemma\nn = 1\nk = 16, 64, 256, 1024",
        "experiment = trace-lemma\nn = 2\nk = 16, 32",
    ], ids=["heat-n1", "heat-n2", "covariance-n1", "covariance-n2",
            "trace-n1", "trace-n2"])
    def test_levels_above_eight_are_measured(self, text):
        # these sweeps once stopped at k = 8: the lattice sums overflowed
        # from k = 256 (n = 1), and the fixed fd step failed 1e-8 at n = 2,
        # k = 40
        m = parse_config(text)
        with np.errstate(over="raise", invalid="raise"):
            doc = run_experiment(m, use_cache=False)
        assert doc.passed, doc.verdicts
        k_column = doc.columns.index("k")
        assert {row[k_column] for row in doc.rows} == {str(k) for k in m.k_values}
        assert all(row[-1] == "pass" for row in doc.rows)
        assert doc.extras == {}

    def test_non_normal_flatness_point_fails_the_report(self):
        # the refused point once added nothing to the verdicts, so the
        # report passed over a point it never measured
        m = parse_config("[flatness]\nn = 2\n"
                         "Z = [[1i, 0], [0, 2i]]; [[1+1i, 0.5], [0.5, 2i]]")
        doc = run_experiment(m, use_cache=False)
        *measured, refused = doc.rows
        assert measured and all(len(row) == 5 for row in measured)
        assert len(refused) == 5 and refused[2].startswith("refused:")
        assert [v["observed"] for v in doc.verdicts] == ["nan", "nan"]
        assert not doc.passed
        assert "overall: FAIL" in doc.summary_text()
        assert "refused_levels" not in doc.extras

    def test_tqft_refused_levels_are_named(self):
        m = parse_config(
            "experiment = tqft\ngenus = 1\nk = 5, 8192\nmodes = 1,0; 0,1"
        )
        doc = run_experiment(m, use_cache=False)
        assert doc.extras == {"refused_levels": "8192"}

    @pytest.mark.parametrize("text, levels", [
        ("experiment = gram, n = 1, k = 8, Z = i, grid = 4", "8"),
        ("experiment = toeplitz-compare, n = 1, k = 8, Z = i, grid = 4", "8"),
        ("experiment = covariance, n = 1, k = 2, 524288", "524288"),
        ("experiment = trace-lemma, n = 2, k = 2, 64", "64"),
        ("[flatness]\nn = 2\nZ = [[1i, 0], [0, 2i]]; [[1+1i, 0.5], [0.5, 2i]]\n"
         "modes = 1,0,0,0", None),
        ("experiment = tqft\ngenus = 1\nk = 5, 8192\nmodes = 1,0; 0,1", "8192"),
        # no truncation radius up to the search limit certifies these points
        ("experiment = gram, n = 1, k = 2, 4, Z = 1e-5i", "2|4"),
        ("experiment = toeplitz-compare, n = 1, k = 2, Z = 1e-5i", "2"),
        ("experiment = heat-identity, n = 1, k = 2, Z = 1e-5i", "2"),
    ], ids=["gram", "toeplitz-compare", "covariance", "trace-lemma", "flatness",
            "tqft", "gram-uncertifiable", "toeplitz-compare-uncertifiable",
            "heat-identity-uncertifiable"])
    def test_refused_cells_fill_their_row_and_fail_every_verdict(self, text, levels):
        doc = run_experiment(parse_config(text), use_cache=False)
        assert all(len(row) == len(doc.columns) for row in doc.rows)
        assert any(cell.startswith("refused:") for row in doc.rows for cell in row)
        assert all(v["observed"] == "nan" for v in doc.verdicts)
        assert not any(v["passed"] for v in doc.verdicts)
        assert doc.extras.get("refused_levels") == levels

    def test_covariance_columns_above_the_limit_are_refused(self):
        m = parse_config("experiment = covariance, n = 1, k = 2, 524288")
        doc = run_experiment(m, use_cache=False)
        assert doc.rows[0][-1] == "pass"
        assert doc.rows[-1][0] == "524288" and "GiB" in doc.rows[-1][-1]
        assert doc.extras["refused_levels"] == "524288"
        assert not any(v["passed"] for v in doc.verdicts)

    def test_pointwise_sweeps_build_points_per_call_not_per_mode(self, monkeypatch):
        # flatness built 4 stencil points per mode and direction, then 4 per
        # direction, and the heat identity 4 per row; the fd stencil now
        # moves X, Y and Y^-1 as arrays
        built = []
        post_init = SiegelPoint.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        manifests = [
            parse_config("experiment = flatness\nn = 1\nZ = i\nmodes = 1,0"),
            parse_config("experiment = flatness\nn = 1\nZ = i"),
            parse_config("experiment = heat-identity\nn = 1\nk = 2, 4"),
        ]
        assert len(manifests[1].modes or ()) == 0  # the 49 default modes
        monkeypatch.setattr(SiegelPoint, "__post_init__", counting)
        counts = []
        for m in manifests:
            built.clear()
            assert run_experiment(m, use_cache=False).passed
            counts.append(len(built))
        assert counts == [0, 0, 0]

    @pytest.mark.parametrize("n, Z", [(1, "0.00005i"), (2, "[[0.00005i, 0], [0, 1i]]")])
    def test_flatness_refuses_a_stencil_that_leaves_the_siegel_space(
            self, tmp_path, capsys, n, Z):
        # Z is valid, but the fd step h = 1e-4 takes Y - hD out of the cone:
        # the stencil point once aborted the run with exit 2 and blamed Z
        text = f"[flatness]\nn = {n}\nk = 1\nZ = {Z}\n"
        doc = run_experiment(parse_config(text), use_cache=False)
        assert doc.rows == [["", "", "refused: fd step h = 0.0001 leaves the Siegel "
                             "space: the smallest eigenvalue of Y is 5e-05", "nan", "nan"]]
        assert all(v["observed"] == "nan" and not v["passed"] for v in doc.verdicts)
        cfg = tmp_path / "flatness.cfg"
        cfg.write_text(text)
        assert main(["experiment", "run", str(cfg), "--no-cache"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_flatness_measures_a_stencil_inside_the_siegel_space(self):
        # Y's smallest eigenvalue, 7e-5, is below h = 1e-4, but every
        # diagonal move Y +- hD stays positive definite
        doc = run_experiment(parse_config(
            "[flatness]\nn = 2\nk = 1\nZ = [[1i, 0.99993i], [0.99993i, 1i]]\n"
            "modes = 1,0,0,0"), use_cache=False)
        assert len(doc.rows) == 4
        assert not any(str(cell).startswith("refused") for row in doc.rows for cell in row)

    def test_fmt_ints_forms_agree(self):
        for values in ((3,), (-1, 0, 12)):
            text = "|".join(str(v) for v in values)
            assert fmt_ints(values) == fmt_ints(np.array(values)) == text
            assert fmt_ints(list(values)) == text
        assert fmt_ints(7) == fmt_ints(np.int64(7)) == "7"

    def test_refusal_becomes_failed_row(self, tmp_path):
        # a grid below the bandwidth rule surfaces as a refused row, not a crash
        m = parse_config("experiment = gram, n = 1, k = 8, Z = i, grid = 4")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        statuses = [row[-1] for row in doc.rows]
        assert any(s.startswith("refused:") for s in statuses)

    def test_emit_outputs(self, tmp_path):
        m = parse_config("experiment = gram, n = 1, k = 2, Z = i")
        m.cache_dir = str(tmp_path / "cache")
        doc = run_experiment(m)
        paths = emit_outputs(doc, str(tmp_path / "rep"))
        csv_path, summary_path = paths
        data = open(csv_path, "rb").read()
        assert data.startswith(b"n,k,Z,N,max_deviation,status\n")
        text = open(summary_path).read()
        assert "experiment: gram" in text
        assert "[criterion gram-identity]" in text

    def test_bms_csv_schema(self, tmp_path):
        m = parse_config("experiment = bms, n = 1, Z = i, k = 8,16,32")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert doc.columns[:4] == ["k", "norm", "sup", "error"]

    def test_flatness_csv_schema(self, tmp_path):
        m = parse_config("experiment = flatness, n = 1, Z = i, modes = 1,0")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert doc.columns == [
            "mode_r", "mode_s", "direction", "residual_analytic", "residual_fd",
        ]
        assert doc.passed

    def test_star_fit_fits_each_pair_once(self, monkeypatch):
        # the star fit takes no point, and was once repeated for each one: its
        # series, the projection with every exponent 0, is taken once a pair
        from thetaquant import toeplitz

        exponents = []
        project = toeplitz._product_projections
        monkeypatch.setattr(toeplitz, "_product_projections",
                            lambda k, product, lam: exponents.append(
                                {lam[m] for m in product.out_modes}) or project(k, product, lam))
        doc = run_experiment(parse_config("[star-fit]"), use_cache=False)
        assert doc.passed and len(doc.rows) == 4
        # two pairs at two points: one star and two orderings at each point a pair
        assert len(exponents) == 10
        assert exponents.count({0.0}) == 2

    def test_star_fit_c0_order_runs_no_projection_and_no_lstsq(self, monkeypatch):
        # the c0 order once came from a full product_expansion_fit, whose
        # projections and lstsq it dropped; only the kernel of the star and
        # c1 fits may run them
        from thetaquant import experiments, toeplitz

        m = parse_config("[star-fit]")
        want = run_experiment(m, use_cache=False)
        inside_fits = []

        def guarded(fn):
            def call(*args):
                assert inside_fits, f"{fn.__name__} ran outside the star and c1 fits"
                return fn(*args)
            return call

        def fits(*args):
            inside_fits.append(True)
            try:
                return toeplitz._star_fits(*args)
            finally:
                inside_fits.pop()

        for name in ("_product_projections", "_inverse_power_fit"):
            monkeypatch.setattr(toeplitz, name, guarded(getattr(toeplitz, name)))
        monkeypatch.setattr(experiments, "_star_fits", fits)
        doc = run_experiment(m, use_cache=False)
        assert doc.csv_bytes() == want.csv_bytes() and doc.verdicts == want.verdicts
        # the verdict reads the c0 order of the full fit at the doubled levels
        monkeypatch.undo()
        f = FourierFunction({experiments._first_coordinate(1, 1, 0): 1.0})
        g = FourierFunction({experiments._first_coordinate(1, 0, 1): 1.0})
        doubled = tuple(2 * k for k in m.k_values)
        orders = [product_expansion_fit(p, f, g, doubled).c0_fit_order for p in m.points[:2]]
        observed = next(v["observed"] for v in doc.verdicts if v["name"] == "c0-fit-order")
        assert float(observed) == min(orders)

    def test_star_fit_computes_each_quantity_once(self, monkeypatch):
        # each of 2 pairs once ran its own star fit and, at each of 2 points,
        # both orderings' fits, each with a lstsq (10 in all) and its own
        # eigenvalue table (4, and 2 more for the c0 order), and 58 scalar pair
        # signs, point by point and ordering by ordering
        from thetaquant import toeplitz

        calls = {"lstsq": 0, "laplace_eigenvalue": 0, "_sign_table": 0,
                 "trace_pair_sign": 0}

        def counted(module, name, key=None):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                calls[key or name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(np.linalg, "lstsq")
        for name in ("laplace_eigenvalue", "_sign_table", "trace_pair_sign"):
            counted(toeplitz, name)
        m = parse_config("[star-fit]")  # n = 1; the runner reads two points
        doc = run_experiment(m, use_cache=False)
        assert doc.passed and len(doc.rows) == 4
        # one sign table a pair and level, of its one out mode at the 5
        # levels: no sign is taken per point or per ordering
        assert calls == {"lstsq": 1, "laplace_eigenvalue": 2,
                         "_sign_table": 2 * len(m.k_values),
                         "trace_pair_sign": 2 * len(m.k_values)}

    @pytest.mark.parametrize("body", [
        "[star-fit]\nn = 1\nk = 1, 1, 1, 1, 1",
        "[star-fit]\nn = 2\nmodes = 1,0,0,0; 0,0,1,0\nk = 40, 1, 40, 40, 40",
        "[gram]\nk = 2, 4, 2",
    ], ids=["star-fit-n1", "star-fit-n2", "gram"])
    def test_repeated_levels_are_refused_in_one_line(self, tmp_path, capsys, body):
        # a star-fit of one repeated level once ended in a ZeroDivisionError
        # traceback, and of k = 2, 2, 2, 2, 2 fitted a rank-1 system on which
        # c1-matches-bracket passed; repeats are refused for every experiment
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(body + "\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: line {body.count(chr(10)) + 1}: levels repeat: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("ref", [0j, complex("nan")])
    def test_star_fit_ratios_fail_on_a_reference_without_scale(self, tmp_path, capsys,
                                                               monkeypatch, ref):
        # the stability ratio divides by the first c1 constant, which read 0
        # on a degenerate fit: the run ended in a traceback
        import dataclasses

        from thetaquant import experiments

        fits = experiments._star_fits

        def first_constant(points, pairs, k_values):
            out, lams = fits(points, pairs, k_values)
            c1 = [dataclasses.replace(out[0].c1[0], constant=ref), *out[0].c1[1:]]
            return [out[0]._replace(c1=c1), *out[1:]], lams

        monkeypatch.setattr(experiments, "_star_fits", first_constant)
        cfg = tmp_path / "star.cfg"
        cfg.write_text("[star-fit]\nn = 1\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        out = capsys.readouterr()
        assert rc == 1 and out.err == "" and "overall: FAIL" in out.out
        doc = run_experiment(parse_config("[star-fit]\nn = 1"), use_cache=False)
        verdicts = {v["name"]: v for v in doc.verdicts}
        for name in ("constant-stability", "star-matches-moyal-constant"):
            assert verdicts[name]["observed"] == "nan" and not verdicts[name]["passed"]

    def test_c1_verdict_fails_on_a_fit_without_a_finite_condition(self, monkeypatch):
        # a singular Vandermonde fit measured nothing, yet its residual alone
        # once passed c1-matches-bracket
        from thetaquant import toeplitz

        fit = toeplitz._inverse_power_fit
        monkeypatch.setattr(toeplitz, "_inverse_power_fit",
                            lambda k_values, samples: (fit(k_values, samples)[0], np.inf))
        doc = run_experiment(parse_config("[star-fit]\nn = 1"), use_cache=False)
        (verdict,) = [v for v in doc.verdicts if v["name"] == "c1-matches-bracket"]
        assert verdict["observed"] == "nan" and not verdict["passed"]
        assert all(row[-1] == "fail" for row in doc.rows)

    def test_star_fit_summary_has_constant(self, tmp_path):
        m = parse_config("experiment = star-fit, n = 1, Z = i; 1+2i, k = 8,16,32,64,128")
        m.cache_dir = str(tmp_path)
        doc = run_experiment(m)
        assert "normalization_constant" in doc.extras
        assert doc.passed


class TestCli:
    def test_theta_eval(self, capsys):
        rc = main(["theta", "eval", "--n", "1", "--k", "1", "--Z", "i",
                   "--alpha", "0", "--z", "0"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out.startswith("1.0864348112133")

    def test_theta_value_beyond_float_range_is_reported(self, capsys):
        # once printed nan+nani after two RuntimeWarnings and exited 0
        rc = main(["theta", "eval", "--k", "512", "--Z", "1+2i", "--alpha", "1",
                   "--z", "0.84+1.42i"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "beyond the float range" in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("make", ["missing", "directory", "latin-1"])
    def test_unreadable_config_is_reported(self, tmp_path, capsys, make):
        # each once ended in a traceback with exit code 1
        path = tmp_path / "exp.cfg"
        if make == "directory":
            path.mkdir()
        elif make == "latin-1":
            path.write_bytes("experiment = tqft\n# \u00e9\n".encode("latin-1"))
        rc = main(["experiment", "run", str(path), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot read config {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_gram_verb(self, capsys):
        rc = main(["gram", "--n", "1", "--k", "4", "--Z", "i"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gram_line_row_and_dense_deviation_agree(self, capsys, n):
        # the Gram is the zero mode's comparison: the verb, the runner and the
        # densified Gram matrix read one value at every default level
        m = parse_config(f"[gram]\nn = {n}")
        points = {fmt_point(p): p for p in m.points}
        tol = EXPERIMENTS["gram"].tolerance(n, None)
        rows = run_experiment(m, use_cache=False).rows
        assert len(rows) == len(points) * len(m.k_values)
        for row in rows:
            k, p = int(row[1]), points[row[2]]
            want = np.abs(gram_matrix(p, k, _plan(p, k)) - np.eye(k**n)).max()
            assert float(row[4]) == want
            assert main(["gram", "--k", str(k), "--Z", row[2]]) == 0
            assert capsys.readouterr().out == (
                f"max |Gram - Id| = {want:.3e}  (tolerance {tol:g})  PASS\n")

    def test_toeplitz_compare_verb(self, capsys):
        rc = main(["toeplitz", "compare", "--k", "2", "--Z", "i", "--mode", "1,0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_tqft_invariant_verb(self, capsys):
        rc = main(["tqft", "invariant", "--g", "1", "--k", "5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5+0i"

    def test_experiment_run_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = gram\nn = 1\nk = 2\nZ = i\n")
        out_base = str(tmp_path / "report")
        rc = main(["experiment", "run", str(cfg), "--out", out_base,
                   "--cache-dir", str(tmp_path / "c")])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "overall: PASS" in captured
        assert os.path.exists(out_base + ".csv")
        assert os.path.exists(out_base + ".summary.txt")

    def test_experiment_run_cache_bytes_stable(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = tqft\ngenus = 1\nk = 3,6\n")
        args = ["experiment", "run", str(cfg), "--cache-dir", str(tmp_path / "c"),
                "--out", str(tmp_path / "r1")]
        assert main(args) == 0
        first = open(tmp_path / "r1.csv", "rb").read()
        args[-1] = str(tmp_path / "r2")
        assert main(args) == 0
        second = open(tmp_path / "r2.csv", "rb").read()
        assert first == second
        assert "cache: hit" in capsys.readouterr().out

    def test_bad_point_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = gram\nn = abc\n")
        cases = [
            (["gram", "--n", "1", "--k", "2", "--Z", "1-2i"], "positive definite"),
            (["experiment", "run", str(cfg)], "line 2"),
            (["gram", "--n", "1", "--k", "2", "--Z", "i", "--grid", "4"], "too coarse"),
            # grids at or above the rule that k does not divide were once
            # folded on a lattice k times finer
            (["gram", "--n", "1", "--k", "32", "--grid", "161"],
             "grid N=161 is not a multiple of k=32: the bandwidth rule gives N=128"),
            (["toeplitz", "compare", "--n", "1", "--k", "4", "--mode", "1,2", "--grid", "42"],
             "grid N=42 is not a multiple of k=4: the bandwidth rule gives N=40"),
            (["theta", "eval", "--k", "2", "--alpha", "5"], "label entries"),
            # a label of dimension 2 at i once ended in numpy's matmul error
            (["theta", "eval", "--alpha", "0,1", "--z", "0.1"],
             "--alpha '0,1' has 2 entries, point has n=1"),
            (["gram", "--n", "3", "--Z", CROSS3], N3_REFUSAL),
            (["toeplitz", "compare", "--n", "3", "--Z", CROSS3, "--mode", "1,0,0,0,0,0"],
             N3_REFUSAL),
            # --n was once ignored, and this ran at n = 2 and passed
            (["gram", "--n", "1", "--Z", N2], "point dimension 2 != n = 1"),
            (["gram", "--Z", "i; 2i"], "--Z takes one Siegel point, got 2"),
            # a NaN once passed the point's checks: the first printed nan+nani
            # and exited 0, the second printed a RuntimeWarning first
            (["theta", "eval", "--k", "2", "--Z", "nan+1i"], "non-finite"),
            (["theta", "eval", "--k", "2", "--Z", "nani"], "non-finite"),
            # a non-finite z once printed nan+nani and exited 0, the second
            # after a RuntimeWarning
            (["theta", "eval", "--k", "2", "--z", "nan"], "non-finite"),
            (["theta", "eval", "--k", "2", "--z", "1e400"], "non-finite"),
        ]
        for argv, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2
            assert message in err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("body, line", [
        ("[toeplitz-compare]\nn = 2\nmodes = 1,0", 3),
        ("[covariance]\nmodes = 1,0,0,1", 2),
        ("[trace-lemma]\nn = 2\nmodes = 1,0,0,1; 1,0", 3),
        ("[bms]\nmodes = 1,0,0,0", 2),
        ("[pairing-limit]\nn = 2\nmodes = 1,0", 3),
        ("[star-fit]\nmodes = 1,0; 0,1,1,0", 2),
        ("[flatness]\nmodes = 1,0,0,0", 2),
        ("[tqft]\ngenus = 2\nmodes = 1,0", 3),
        ("[tqft]\ngenus = 0", 2),
        ("[gram]\ngrid = 0", 2),
        ("[gram]\ntol = nan", 2),
        ("[gram]\ntol = inf", 2),
        ("[tqft]\nmodes = 1,0; 0,1; 1,1", 2),
        ("[star-fit]\nmodes = 1,0", 2),
        ("[star-fit]\nmodes = 1,0; 0,1; 1,1", 2),
        ("[star-fit]\nmodes = 1,0; 2,0", 2),
        ("[star-fit]", 2),
        ("[covariance]\nZ = i", 2),
        ("[covariance]\nn = 2", 2),
        ("[tqft]\ngenus = 2\nZ = i", 3),
        ("[tqft]\nZ = i", 2),
        ("[heat-identity]\nZ = nan+1i", 2),
    ], ids=lambda v: v.replace("\n", " ") if isinstance(v, str) else None)
    def test_bad_dimension_genus_and_grid_are_reported(self, tmp_path, capsys,
                                                       body, line):
        # modes have 2n entries (2 genus for tqft); genus and grid are >= 1;
        # the tolerance is positive and finite; tqft reads at most two curves
        # and star-fit two modes, and neither drops one it was given; star-fit
        # fits five levels or more of two modes that do not commute,
        # covariance pairs two points or more, tqft reads no Z, and a point
        # has finite entries
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body + "\nk = 2\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"line {line}: " in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["toeplitz", "compare", "--k", "2", "--Z", "i", "--mode", "a,b"],
         "malformed mode 'a,b'"),
        (["toeplitz", "compare", "--n", "2", "--Z", "[[1i,0],[0,2i]]",
          "--mode", "1,0"], "2n = 4"),
        (["tqft", "invariant", "--g", "2", "--mode", "1,0"], "2n = 4"),
        (["tqft", "invariant", "--g", "1", "--mode2", "1,0,1"], "2n = 2"),
    ])
    def test_bad_cli_modes_are_reported(self, capsys, argv, message):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["theta", "eval", "--tol", "0.1"],
        ["theta", "eval", "--grid", "8"],
        ["theta", "eval", "--out", "report"],
        ["gram", "--out", "report"],
        ["toeplitz", "compare", "--out", "report"],
        ["tqft", "invariant", "--out", "report"],
        ["gram", "--grid", "0"],
        ["toeplitz", "compare", "--grid", "-4"],
        ["experiment", "run", "exp.cfg", "--grid", "0"],
        ["gram", "--k", "0"],
        ["tqft", "invariant", "--g", "0"],
        ["tqft", "invariant", "--k", "0"],
        ["gram", "--tol", "-1"],
        ["gram", "--tol", "nan"],
        ["toeplitz", "compare", "--tol", "0"],
        ["experiment", "run", "exp.cfg", "--tol", "-1"],
        ["experiment", "run", "exp.cfg", "--tol", "inf"],
    ])
    def test_unread_flags_and_nonpositive_sizes_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gram", "--k", "0"],
        ["toeplitz", "compare", "--grid", "-4"],
        ["gram", "--tol", "-1"],
    ])
    def test_argument_errors_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error: argument --") and err.count("\n") == 1

    @pytest.mark.parametrize("sel", ["dz2:a", "dz2:0,a", "dZ:1", "dz2:3,3", "dz:-1",
                                     "value:0", "dzz:0"])
    def test_bad_selectors_are_reported(self, capsys, sel):
        # indices are integers in [0, n); n = 1 here
        rc = main(["theta", "eval", "--z", "0.3+0.2i", "--sel", sel])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"selector {sel!r}" in err and "in [0, 1)" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gram", "--k", "2"],
        ["toeplitz", "compare", "--k", "2", "--mode", "1,0,0,1"],
        ["theta", "eval", "--k", "3", "--alpha", "1,2", "--z", "0.3+0.1i;0.2"],
    ], ids=["gram", "toeplitz", "theta"])
    def test_n2_without_a_point_runs_at_the_default_point(self, capsys, argv):
        # each once exited 2 with "--Z is scalar but n=2", where [gram] n = 2
        # ran at diag(i, 2i)
        assert main([*argv, "--n", "2"]) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--Z", N2]) == 0
        assert capsys.readouterr().out == default != ""

    @pytest.mark.parametrize("argv, explicit", [
        (["toeplitz", "compare", "--n", "2"], ["--mode", "1,0,0,0"]),
        (["toeplitz", "compare", "--Z", N2], ["--mode", "1,0,0,0"]),
        (["theta", "eval", "--n", "2"], ["--alpha", "0,0", "--z", "0;0"]),
    ], ids=["compare --n 2", "compare --Z", "theta --n 2"])
    def test_defaults_fit_the_dimension_of_the_point(self, capsys, argv, explicit):
        # each once exited 2: the default mode 1,0, label 0 and z 0 fit n = 1
        # only; the mode is now (1, 0) on the first axis, as in the runners
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + explicit) == 0
        assert capsys.readouterr().out == default != ""

    def test_run_flags_override_only_the_experiments_that_read_them(self, tmp_path,
                                                                   capsys):
        # bms reads neither, and once took both into its manifest and cache key
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[gram]\nk = 2\nZ = i\n[bms]\nk = 8, 16\nZ = i\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache", "--grid", "64",
                   "--tol", "0.5"])
        out = capsys.readouterr().out
        gram, bms = [row for row in out.splitlines() if row.startswith("manifest: ")]
        assert gram.endswith("|tol=0.5|grid=64")
        assert bms.endswith("|tol=None|grid=None")
        assert rc == 0

    def test_tqft_takes_no_point_in_the_run_or_the_verb(self, tmp_path, capsys):
        # the curve operators do not depend on Z: a tqft Z once changed no
        # output, and without a genus the run went on at genus 1
        cfg = tmp_path / "tqft.cfg"
        cfg.write_text("[tqft]\nZ = i\nk = 2\n")
        assert main(["experiment", "run", str(cfg), "--no-cache"]) == 2
        assert capsys.readouterr().err == "error: line 2: tqft does not read Z\n"
        with pytest.raises(SystemExit) as exc:
            main(["tqft", "invariant", "--k", "3", "--Z", "i"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--Z" in err

    def test_frame_too_large_is_reported(self, capsys):
        # the box of both axes at a non-diagonal point
        rc = main(["gram", "--n", "2", "--k", "64", "--Z", "[[2i,0.5i],[0.5i,1i]]"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "8.07 GiB" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gram", "--k", "4", "--Z", "1e-5i"],
        ["toeplitz", "compare", "--k", "4", "--Z", "1e-5i", "--mode", "1,0"],
        ["theta", "eval", "--k", "4", "--Z", "1e-5i", "--alpha", "1", "--z", "0.3"],
    ], ids=["gram", "toeplitz", "theta"])
    def test_uncertifiable_point_is_reported(self, capsys, argv):
        # the truncation certificate once ended these with a ValueError
        # traceback
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "no certifiable truncation radius" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_uncertifiable_point_is_refused_in_a_run(self, tmp_path, capsys):
        cfg = tmp_path / "gram.cfg"
        cfg.write_text("experiment = gram\nn = 1\nk = 2, 4\nZ = 1e-5i; i\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "refused_levels: 2|4" in out and "overall: FAIL" in out

    def test_dense_limit_is_reported(self, tmp_path, capsys):
        # F[1,0] + F[0,1] is off a line, so its norm needs the dense matrix
        cfg = tmp_path / "bms.cfg"
        cfg.write_text("[bms]\nn = 1\nmodes = 1,0; 0,1\nk = 8192\n")
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "8192" in err and "4096" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sup_grid_too_large_is_reported(self, tmp_path, capsys):
        # off a line the sup grid spans all 2n angles, 8 nodes per unit of
        # degree on each: degree 12 on every axis needs 96^4 nodes, 1.27 GiB
        cfg = tmp_path / "bms.cfg"
        cfg.write_text(
            "[bms]\nn = 2\nk = 8, 16\n"
            "modes = 12,0,0,0; 0,12,0,0; 0,0,12,0; 0,0,0,12\n"
        )
        rc = main(["experiment", "run", str(cfg), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "sup grid needs" in err and "GiB" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THETAQUANT_CACHE_DIR", str(tmp_path / "envcache"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = tqft\ngenus = 1\nk = 2\n")
        assert main(["experiment", "run", str(cfg)]) == 0
        capsys.readouterr()
        assert os.path.isdir(tmp_path / "envcache")


_CONTRACT_POINTS = {
    1: "i; 0.5+0.7i",
    2: "[[1i, 0], [0, 2i]]; [[2i, 0.5i], [0.5i, 1i]]",
    3: P3 + "; [[2i, 0.5i, 0], [0.5i, 1i, 0], [0, 0, 1i]]",
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_every_manifest_exits_by_the_contract(tmp_path, capsys, experiment):
    # each experiment at n = 1, 2, 3 (the genus for tqft), at the levels
    # below, with default and with explicit points: a run passes (0), fails
    # (1) or refuses its input (2, one line on stderr); nothing escapes
    bodies = [
        f"[{experiment}]\n{'genus' if experiment == 'tqft' else 'n'} = {n}\n"
        f"k = {levels}{points}\n"
        for n in (1, 2, 3)
        for levels in ("1", "2", "2, 3", "1, 2, 3, 4, 5")
        for points in ("", f"\nZ = {_CONTRACT_POINTS[n]}")
    ]
    if experiment == "star-fit":
        # a far mode: eta_16 of F[40;1] squared underflows at Z = 1+2i, and
        # its projection once divided 0 by 0
        bodies.append("[star-fit]\nn = 1\nk = 16, 32, 64, 128, 256\nmodes = 40,0; 0,1\n")
    broken = []
    cfg = tmp_path / "exp.cfg"
    for body in bodies:
        cfg.write_text(body)
        try:
            rc = main(["experiment", "run", str(cfg), "--no-cache"])
        except Exception as exc:  # an escaped exception breaks the contract
            broken.append((body, repr(exc)))
            continue
        err = capsys.readouterr().err
        one_line = err.startswith("error: ") and err.count("\n") == 1
        if rc not in (0, 1, 2) or (rc == 2 and not one_line):
            broken.append((body, rc, err))
    assert broken == []


_VERB_POINTS = {n: points.split("; ")[1] for n, points in _CONTRACT_POINTS.items()}


def test_theta_window_is_sized_before_allocation(capsys, monkeypatch):
    # at n = 10 the radius-3 lattice window has 7^10 points: np.indices once
    # asked for 21 GiB, and the verb and the sweep ended in a traceback
    def no_window(*args, **kwargs):
        raise AssertionError("lattice window allocated")

    monkeypatch.setattr(np, "indices", no_window)
    rc = main(["theta", "eval", "--n", "10", "--k", "2", "--alpha", ",".join(["0"] * 10),
               "--z", ";".join(["0.1"] * 10)])
    err = capsys.readouterr().err
    assert rc == 2 and "theta window needs" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    doc = run_experiment(parse_config("[heat-identity]\nn = 10\nk = 2"), use_cache=False)
    assert not doc.passed
    assert [row[-1].split(" needs")[0] for row in doc.rows] == ["refused: theta window"]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_every_verb_exits_by_the_contract(capsys, n):
    # each verb at n (the genus for tqft) = 1, 2, 3 with labels, modes and
    # coordinates of that dimension, at the default point, at an explicit
    # point, and at an explicit point with the dimension left to it
    mode = ",".join(["1"] + ["0"] * (2 * n - 1))
    point = ["--Z", _VERB_POINTS[n]]
    verbs = [
        (["theta", "eval", "--k", "2", "--alpha", ",".join(["1"] * n),
          "--z", ";".join(["0.3+0.1i"] * n)], "--n"),
        (["gram", "--k", "2"], "--n"),
        (["toeplitz", "compare", "--k", "2", "--mode", mode], "--n"),
        (["tqft", "invariant", "--k", "2", "--mode", mode], "--g"),
    ]
    broken = []
    for argv, flag in verbs:
        # tqft invariant takes no point
        points = [[flag, str(n), *point], point] if flag == "--n" else []
        for extra in [[flag, str(n)], *points]:
            try:
                rc = main(argv + extra)
            except Exception as exc:  # an escaped exception breaks the contract
                broken.append((argv + extra, repr(exc)))
                continue
            err = capsys.readouterr().err
            one_line = err.startswith("error: ") and err.count("\n") == 1
            if rc not in (0, 1, 2) or (rc == 2) != one_line:
                broken.append((argv + extra, rc, err))
    assert broken == []


@pytest.mark.parametrize("n", (1, 2))
def test_verbs_print_the_deviation_of_a_run_at_the_default_point(capsys, n):
    # the verb's default point is the first point of a section that names
    # only its dimension
    mode = ",".join(["1"] + ["0"] * (2 * n - 1))
    for argv, section, column in (
        (["gram"], "[gram]", "max_deviation"),
        (["toeplitz", "compare", "--mode", mode],
         f"[toeplitz-compare]\nmodes = {mode}", "max_entry_diff"),
    ):
        assert main([*argv, "--n", str(n), "--k", "3"]) == 0
        printed = capsys.readouterr().out.split(" = ")[1].split()[0]
        m = parse_config(f"{section}\nn = {n}\nk = 3")
        doc = run_experiment(m, use_cache=False)
        assert printed == f"{float(doc.rows[0][doc.columns.index(column)]):.3e}"


# Each experiment's default levels, its pass verdict and that verdict's
# default tolerance at n = 1 and n = 2 (the genus for tqft), as literals: an
# edit of config.EXPERIMENTS that moves a level or a tolerance, and with it
# a verdict or a margin, fails here.
_PINNED = {
    "gram": ((1, 2, 4, 8), "gram-identity", 1e-8, 1e-7),
    "toeplitz-compare": ((2, 4, 6), "closed-form-vs-quadrature", 1e-8, 1e-8),
    "heat-identity": ((2, 4, 8), "heat-identity-termwise", 1e-12, 1e-12),
    "covariance": ((2, 4, 8), "rescaled-Z-independence", 1e-9, 1e-9),
    "trace-lemma": ((2, 4, 8), "trace-closed-vs-direct", 1e-10, 1e-10),
    "bms": ((8, 16, 32, 64, 128), None, None, None),
    "pairing-limit": ((8, 16, 32, 64, 128), None, None, None),
    "star-fit": ((8, 16, 32, 64, 128), "c1-matches-bracket", 0.02, 0.02),
    "flatness": ((1,), "flatness-analytic", 1e-10, 1e-10),
    "tqft": ((2, 4, 8), "gluing-dimension", 1e-10, 1e-10),
}


def test_the_table_pins_every_runners_levels_and_tolerance(capsys):
    assert tuple(_EXPERIMENTS) == tuple(EXPERIMENTS) == EXPERIMENT_IDS == tuple(_PINNED)
    for experiment, (levels, verdict, *tols) in _PINNED.items():
        dimension = EXPERIMENTS[experiment].reads[0]
        assert parse_config(f"[{experiment}]\n{dimension} = 1").k_values == levels
        for n, tol in zip((1, 2), tols):
            assert EXPERIMENTS[experiment].tolerance(n) == tol
            assert EXPERIMENTS[experiment].tolerance(n, 0.125) == 0.125
            if verdict is None:
                continue
            # the cheapest run; covariance at n = 2 needs a second point
            k = "2, 3, 4, 5, 6" if experiment == "star-fit" else "1"
            points = f"\nZ = {_CONTRACT_POINTS[2]}" if (experiment, n) == (
                "covariance", 2) else ""
            doc = run_experiment(parse_config(
                f"[{experiment}]\n{dimension} = {n}\nk = {k}{points}"), use_cache=False)
            (read,) = [v["tolerance"] for v in doc.verdicts if v["name"] == verdict]
            assert read == fmt_cell(tol), (experiment, n)
    # the verbs default to their experiment's tolerance
    for n in (1, 2):
        mode = "1" + ",0" * (2 * n - 1)
        for experiment, argv in (("gram", ["gram"]), ("toeplitz-compare",
                                 ["toeplitz", "compare", "--mode", mode])):
            assert main([*argv, "--n", str(n), "--k", "1"]) == 0
            tol = _PINNED[experiment][1 + n]
            assert f"(tolerance {tol:g})" in capsys.readouterr().out, (experiment, n)
