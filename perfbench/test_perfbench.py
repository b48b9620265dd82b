"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import thetaquant  # noqa: E402
import thetaquant.experiments  # noqa: E402
from check import failure_reasons, margin_digits  # noqa: E402
import run  # noqa: E402
from layers import Installation, Tracer, _wrap, leftover_wrappers  # noqa: E402
import suite  # noqa: E402
from suite import compare  # noqa: E402
from thetaquant.config import parse_config  # noqa: E402
from thetaquant.experiments import ReportDocument  # noqa: E402
from worker import _layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_document  # noqa: E402

COLUMNS = ["n", "k", "Z", "N", "max_deviation", "status"]


def _doc(rows, verdicts, columns=COLUMNS):
    return ReportDocument(parse_config("experiment = gram"), columns, rows, verdicts)


def _verdict(observed, tolerance="1e-08", passed=True, name="v"):
    return {"name": name, "passed": passed, "observed": observed, "tolerance": tolerance}


def test_clean_report_has_no_failure():
    doc = _doc([["1", "8", "1+2i", "64", "3e-14", "pass"]], [_verdict("3e-14")])
    assert failure_reasons(doc) == []


def test_nan_row_under_a_passing_verdict_fails():
    # the package's own verdict passes: max(worst, nan) keeps worst
    rows = [["1", "8", "i", "64", "3e-14", "pass"], ["1", "32", "1+2i", "96", "nan", "fail"]]
    reasons = failure_reasons(_doc(rows, [_verdict("3e-14")]))
    assert reasons == ["1 of 2 rows not pass"]


def test_refused_row_fails_with_or_without_status_column():
    rows = [["1", "4", "i", "0", "nan", "refused: grid too coarse"]]
    assert failure_reasons(_doc(rows, [_verdict("0")]))
    flat = ["mode_r", "mode_s", "direction", "residual_analytic", "residual_fd"]
    rows = [["", "", "refused: non-normal point", "nan", "nan"]]
    assert failure_reasons(_doc(rows, [_verdict("0")], flat))


@pytest.mark.parametrize("observed", ["nan", "inf", "-inf", "not a number"])
def test_non_finite_observed_fails(observed):
    doc = _doc([["1", "8", "i", "64", "0", "pass"]], [_verdict(observed)])
    assert failure_reasons(doc) == [f"verdict v observed {observed}"]


def test_failed_verdict_fails():
    doc = _doc([], [_verdict("1e-3", passed=False)])
    assert failure_reasons(doc) == ["verdict v failed"]


def test_margin_digits_both_directions_and_sign():
    upper = _verdict("1e-12", "1e-08")
    lower = _verdict("0.5", "0.01")  # passes when observed > tolerance
    symbolic = _verdict("0.96", ">= 0.9")
    zero = _verdict("0", "1e-10")
    doc = _doc([], [upper, lower, symbolic, zero])
    assert margin_digits(doc) == pytest.approx(math.log10(50))
    failed = _verdict("1e-6", "1e-08", passed=False)
    assert margin_digits(_doc([], [upper, failed])) == pytest.approx(-2)
    assert margin_digits(_doc([], [symbolic, zero])) is None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.start()
    clock.now += 1.0
    child = t.start()
    clock.now += 2.0
    grandchild = t.start()
    clock.now += 4.0
    t.stop("grandchild", grandchild)
    t.stop("child", child)
    clock.now += 8.0
    child = t.start()
    clock.now += 16.0
    t.stop("child", child)
    t.stop("outer", outer)
    assert t.total_s["outer"] == 31.0
    assert t.self_s["outer"] == 31.0 - 6.0 - 16.0
    assert t.total_s["child"] == 22.0
    assert t.self_s["child"] == 18.0
    assert t.self_s["grandchild"] == 4.0
    assert t.calls["child"] == 2
    # self times partition the outermost span
    assert sum(t.self_s.values()) == t.total_s["outer"]


def test_wrapped_self_time_survives_an_exception():
    clock = FakeClock()
    t = Tracer(clock)

    def inner():
        clock.now += 3.0
        raise ZeroDivisionError

    def outer():
        with pytest.raises(ZeroDivisionError):
            wrapped_inner()
        clock.now += 1.0

    wrapped_inner = _wrap(t, "inner", inner)
    _wrap(t, "outer", outer)()
    assert t.self_s == {"outer": 1.0, "inner": 3.0}


def test_wrappers_are_installed_everywhere_and_fully_removed():
    originals = {
        "sections": thetaquant.sections.gram_matrix,
        "experiments": thetaquant.experiments.gram_matrix,
        "package": thetaquant.gram_matrix,
    }
    yinv = thetaquant.siegel.SiegelPoint.__dict__["Yinv"]
    post_init = thetaquant.toeplitz.OperatorMatrix.__dict__["__post_init__"]
    tracer = Tracer()
    m = parse_config("experiment = trace-lemma\nk = 2\nZ = i")
    with Installation(tracer):
        assert thetaquant.experiments.gram_matrix is not originals["sections"]
        assert thetaquant.experiments.gram_matrix is thetaquant.sections.gram_matrix
        assert leftover_wrappers()
        thetaquant.experiments.run_experiment(m, use_cache=False)
    assert tracer.calls["experiments.run_experiment"] == 1
    assert tracer.calls["toeplitz.toeplitz_mode_closed_form"] > 0
    assert tracer.calls["siegel.SiegelPoint.Yinv"] > 0
    assert tracer.sums["toeplitz.OperatorMatrix.bytes_copied"] > 0
    assert leftover_wrappers() == []
    assert thetaquant.sections.gram_matrix is originals["sections"]
    assert thetaquant.experiments.gram_matrix is originals["experiments"]
    assert thetaquant.gram_matrix is originals["package"]
    assert thetaquant.siegel.SiegelPoint.__dict__["Yinv"] is yinv
    assert thetaquant.toeplitz.OperatorMatrix.__dict__["__post_init__"] is post_init


def test_wrapped_but_idle_spans_read_zero_and_unwrapped_names_fail():
    with Installation(Tracer()) as installation:
        pass
    layers = _layer_metrics(installation.tracer, 1, {"gram": 0.0}, installation.spans)
    assert layers["theta.theta_eval.calls"] == 0
    assert layers["sections.theta_frame_on_grid.max_bytes"] == 0
    assert layers["toeplitz.OperatorMatrix.bytes_copied"] == 0
    assert layers["siegel.SiegelPoint.Yinv.self_s"] == 0
    spec = {"per_layer": [{"name": "theta.theta_eval.calls", "unit": "count"}]}
    assert run.per_layer_values(spec, layers) == {
        "theta.theta_eval.calls": {"value": 0, "unit": "count"}}
    spec["per_layer"].append({"name": "theta.theta_evaluate.calls", "unit": "count"})
    with pytest.raises(run.BenchError, match="theta.theta_evaluate.calls"):
        run.per_layer_values(spec, layers)


def test_every_per_layer_metric_of_the_benchmark_is_produced():
    with Installation(Tracer()) as installation:
        pass
    ids = thetaquant.config.EXPERIMENT_IDS
    layers = _layer_metrics(installation.tracer, 1, dict.fromkeys(ids, 0.0),
                            installation.spans)
    layers["trace.overhead_frac"] = 0.0
    assert set(run.per_layer_values(_spec(), layers)) == {
        m["name"] for m in _spec()["per_layer"]}


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit(str(tmp_path)) == "unknown"
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        "1111111111111111111111111111111111111111 refs/heads/other\n"
        "2222222222222222222222222222222222222222 refs/heads/main\n")
    assert run.git_commit(str(tmp_path)) == "2" * 40
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert run.git_commit(str(tmp_path)) == "3" * 40
    (git / "HEAD").write_text("4" * 40 + "\n")
    assert run.git_commit(str(tmp_path)) == "4" * 40


def test_blas_threads_are_nproc_whatever_the_environment(monkeypatch):
    for requested in ("1", "64", "many"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", requested)
        env = run.child_env()
        for var in run.BLAS_THREAD_VARS:
            assert env[var] == str(run.nproc())


def test_documents_are_seeded_and_cover_every_experiment():
    assert config_document("dense", 3) == config_document("dense", 3)
    assert any(config_document("quadrature", s) != config_document("quadrature", 1)
               for s in range(2, 6))
    covered = {m.experiment for ms in WORKLOADS.values() for m in ms}
    assert covered == set(thetaquant.config.EXPERIMENT_IDS)


def test_fastest_pass_takes_each_manifest_at_its_fastest():
    passes = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 1.5]]
    assert run.fastest_pass(passes) == 1.0 + 4.0 + 1.5
    assert run.fastest_pass([[0.5, 0.25]]) == 0.75


def test_compare_flags_regressions_and_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare(steady, [x * 1.5 for x in steady], "lower", 0.1)[1] == "WORSE than bound"
    assert compare(steady, steady, "lower", 0.1)[1] == "within bound"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert compare(noisy, steady, "lower", 0.1)[1] == "unresolved"


def test_pairs_alternate_sides_and_count_wins(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "dense"}],
            "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    calls = []

    def fake_run_one(workload, seed, seconds, trace, src=None):
        calls.append((seed, "before" if src else "after"))
        value = 2.0 if src else 1.0  # after is faster in every pair
        return {"workload": workload, "seed": seed, "trace": trace, "text": [],
                "detail": {"machine": {"commit": "x"}},
                "result": {"correct": True, "failed": 0, "attempted": 1,
                           "metrics": {"pass_s": {"value": value, "unit": "s"}}}}

    monkeypatch.setattr(suite, "run_one", fake_run_one)
    monkeypatch.setattr(suite, "load_spec", lambda: spec)
    suite.main(["pairs", str(tmp_path / "parent"), "--seeds", "1-3", "--out", str(tmp_path)])
    assert calls == [(1, "before"), (1, "after"), (2, "after"), (2, "before"),
                     (3, "before"), (3, "after")]
    for side in ("before", "after"):
        runs = json.loads((tmp_path / f"{side}.json").read_text())["runs"]
        assert [r["seed"] for r in runs] == [1, 2, 3]
    assert suite.pair_wins([2.0, 1.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
    assert suite.pair_wins([2.0, 1.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(WORKLOADS[workload])
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dense",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--src", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
