import os

import numpy as np
import pytest

from thetaquant.cli import main
from thetaquant.config import (
    ConfigError,
    parse_complex,
    parse_config,
    parse_config_all,
    parse_matrix,
)
from thetaquant.experiments import emit_outputs, fmt_ints, run_experiment
from thetaquant.sections import required_grid_size
from thetaquant.siegel import SiegelPoint
from thetaquant.toeplitz import WeylSymbol


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
        # workers was a key once; it is unknown now like any other
        for key in ("bogus", "workers"):
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

    def test_n_above_two_needs_a_point(self):
        # the default points exist for n = 1 and 2 only; n = 3 once ran at n = 2
        with pytest.raises(ConfigError, match="line 2: n = 3 has no default"):
            parse_config("experiment = gram\nn = 3\nk = 2")


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
        # all-NaN Gram entries must not read as a pass
        monkeypatch.setattr(
            "thetaquant.experiments.gram_matrix",
            lambda p, k, grid: np.full((k**p.n, k**p.n), np.nan, dtype=complex),
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
        # the k = 64 pairings would hold 12.3 GiB; refused before allocation
        m = parse_config("experiment = gram\nn = 2\nk = 4, 64")
        doc = run_experiment(m, use_cache=False)
        (measured, refused) = doc.rows
        assert measured[1] == "4" and measured[-1] == "pass"
        assert refused[1] == "64" and refused[-1].startswith("refused:")
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

    def test_manifest_epsilon_sizes_and_checks_the_grid(self):
        # the grid was sized at the manifest epsilon but checked at the
        # default 1e-12, so every row was refused (and printed N = 0)
        p = SiegelPoint(0.5 + 0.7j)
        for experiment, m_max, n_col in (("gram", 0, 3), ("toeplitz-compare", 2, 2)):
            m = parse_config(
                f"experiment = {experiment}\nn = 1\nk = 2, 8\n"
                "Z = 0.5+0.7i\nepsilon = 1e-3"
            )
            doc = run_experiment(m, use_cache=False)
            assert doc.passed
            assert {row[n_col] for row in doc.rows} == {
                str(required_grid_size(p, k, m_max, 1e-3)) for k in (2, 8)
            }
            assert all(row[-1] == "pass" for row in doc.rows)

    def test_refused_rows_show_the_tried_grid(self):
        for experiment, k, n_col, N in (("gram", 64, 3, "256"),
                                        ("toeplitz-compare", 32, 2, "136")):
            m = parse_config(f"experiment = {experiment}\nn = 2\nk = {k}")
            doc = run_experiment(m, use_cache=False)
            (refused,) = doc.rows
            assert refused[-1].startswith("refused:")
            assert refused[n_col] == N and f"N={N}" in refused[-1]
            assert not doc.passed

    def test_refused_rows_fail_their_verdict(self):
        # a refused row once dropped out, so the rows left passed the sweep
        for experiment, ks in (("gram", "2, 64"), ("toeplitz-compare", "2, 32")):
            m = parse_config(f"experiment = {experiment}\nn = 2\nk = {ks}")
            doc = run_experiment(m, use_cache=False)
            *measured, refused = doc.rows
            assert all(row[-1] == "pass" for row in measured)
            assert refused[-1].startswith("refused:")
            assert doc.verdicts[0]["observed"] == "nan"
            assert not doc.passed
            assert doc.extras["refused_levels"] == ks.split(", ")[1]
            assert "refused_levels: " in doc.summary_text()

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
                     "experiment = tqft\ngenus = 3\nk = 32"):
            doc = run_experiment(parse_config(text), use_cache=False)
            assert doc.passed, text
            assert all(row[-1] == "pass" for row in doc.rows)

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
    ], ids=["gram", "toeplitz-compare", "covariance", "trace-lemma", "flatness",
            "tqft"])
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
        # flatness built 4 stencil points per mode and direction, and the
        # heat identity 4 per row; only the flatness stencil is left
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
        one_mode, all_modes, heat = counts
        assert one_mode == all_modes == 2 * 4  # two directions, four stencil points
        assert heat == 0

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
            (["theta", "eval", "--k", "2", "--alpha", "5"], "label entries"),
        ]
        for argv, message in cases:
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
    ], ids=lambda v: v.replace("\n", " ") if isinstance(v, str) else None)
    def test_bad_dimension_genus_and_grid_are_reported(self, tmp_path, capsys,
                                                       body, line):
        # modes have 2n entries (2 genus for tqft); genus and grid are >= 1;
        # the tolerance is positive and finite; tqft reads at most two curves
        # and star-fit two modes, and neither drops one it was given
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

    def test_frame_too_large_is_reported(self, capsys):
        rc = main(["gram", "--n", "2", "--k", "64", "--Z", "[[1i,0],[0,2i]]"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "12.3 GiB" in err
        assert err.startswith("error: ") and err.count("\n") == 1

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
