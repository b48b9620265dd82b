"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src`` (or the
directory ``--src`` names) through ``PYTHONPATH``; nothing is installed.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics.  The lines before it describe the machine, the pass times
and every failed manifest.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from layers import LAYERS  # noqa: E402

DETAIL = "perfbench-detail: "  # prefix of the line run.py prints for suite.py
SETUP_RUNS = 16  # fresh interpreters timed for setup_s, after one untimed
DEADLINE_S = 170  # the whole run ends well inside 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The largest frame any workload builds is 64 MiB by computation, below 4x
# (and below 1x) the 300 MiB L3 the reference VM reports, so no bandwidth
# figure is derived from these runs.
FRAME_NOTE = (
    "computed frame bytes <= 64 MiB, below 4x the 300 MiB L3 of the reference "
    "VM; no bandwidth figure is claimed"
)

class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(src=SRC):
    """Environment for every child: package on the path, BLAS threads at
    nproc whatever the caller's environment asks for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(nproc())))
    return env


def git_commit(root):
    """The commit named by ``.git/HEAD`` under ``root``, or ``unknown``.

    A branch ref is read from its loose file, else from ``packed-refs``.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def machine(env, version, src):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "thetaquant": version,
        "commit": git_commit(os.path.dirname(os.path.abspath(src))),
        "note": FRAME_NOTE,
    }


def _worker(args, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fastest_pass(passes):
    """A pass with each manifest at its fastest: the sum over manifests of
    the least time each took in any pass.  ``passes`` holds one list of
    per-manifest times per pass."""
    return sum(min(times) for times in zip(*passes))


def summarise(outcomes, reference):
    """attempted, failed, correct and the smallest margin over all passes.

    ``correct`` holds when every timed pass classified every manifest as the
    warm-up pass did: the check is deterministic on deterministic work.
    """
    attempted = sum(len(p) for p in outcomes)
    failed = sum(1 for p in outcomes for reasons, _ in p if reasons)
    correct = all(
        [reasons for reasons, _ in p] == [reasons for reasons, _ in reference]
        for p in outcomes
    )
    margins = [m for p in outcomes for _, m in p if m is not None]
    return attempted, failed, correct, (min(margins) if margins else None)


def per_layer_values(spec, layers):
    """The per-layer metrics of BENCHMARK.json, read from a traced run.

    ``layers`` holds a value, 0 when never called, for every span that was
    wrapped, every counter of a wrapped span, every module and every
    experiment id.  A name it lacks (a renamed function, a typo) fails the
    run instead of reading as a perfect 0.
    """
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise BenchError("per-layer metrics that no wrapped function, counter "
                         "or total produces: " + ", ".join(missing))
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def run(workload, seed, seconds, trace, smoke=False, src=SRC):
    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(names)}")
    env = child_env(src)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup = []
    if not trace:
        # One BLAS thread for the set-up probes: starting OpenBLAS's pool of
        # nproc threads costs either ~0.06 s or ~0.11 s per import here, in
        # spells that last seconds, which would hide the package's own cost.
        # The probes run before the workload: right after it, the release of
        # its memory slows imports by ~10% for a few seconds.
        setup_env = dict(env, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        _worker(common + ["--setup"], setup_env, deadline)  # byte-compile, warm caches
        for _ in range(1 if smoke else SETUP_RUNS):
            setup.append(_worker(common + ["--setup"], setup_env, deadline)["setup_s"])
    data = _worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline
    )
    attempted, failed, correct, margin = summarise(data["outcomes"], data["reference"])
    if margin is None:
        raise BenchError("no verdict with a numeric tolerance and a finite value")
    info = {"machine": machine(env, data["version"], src), "workload": workload, "seed": seed}
    for label, (reasons, _) in zip(data["labels"], data["reference"]):
        if reasons:
            print(f"failed manifest: {label}: {'; '.join(reasons)}")

    if trace:
        leftovers = data["leftover_wrappers"]
        if leftovers:
            correct = False
            print("wrappers left installed: " + ", ".join(leftovers))
        untraced = fastest_pass(data["manifest_s"])
        traced = fastest_pass(data["traced_manifest_s"])
        layers = dict(data["layers"])
        layers["trace.overhead_frac"] = (traced - untraced) / untraced
        metrics = per_layer_values(spec, layers)
        total_self = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        info["layers"] = layers
        info["untraced_pass_s"] = untraced
        info["traced_pass_s"] = traced
        print(f"tracing overhead: traced pass {traced:.4f} s vs untraced {untraced:.4f} s")
        for layer in LAYERS:
            share = layers[f"{layer}.self_s"] / total_self if total_self else 0.0
            print(f"self time share {layer:12s} {share:6.1%}")
        spans = sorted(
            (v, k[: -len(".self_s")])
            for k, v in layers.items()
            if k.endswith(".self_s") and k[: -len(".self_s")] + ".calls" in layers
        )
        for self_s, name in reversed(spans[-12:]):
            calls = layers[name + ".calls"]
            print(f"self time {self_s:9.4f} s  {calls:9.0f} calls  {name}")
    else:
        values = {
            "setup_s": min(setup),
            "pass_s": fastest_pass(data["manifest_s"]),
            "pass_cpu_s": fastest_pass(data["manifest_cpu_s"]),
            "peak_rss_mb": data["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
            "margin_digits": margin,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        samples = {
            "setup_s": setup,
            "pass_s": [sum(p) for p in data["manifest_s"]],
            "pass_cpu_s": [sum(p) for p in data["manifest_cpu_s"]],
        }
        for name, series in samples.items():
            q1, q2, q3 = quartiles(series)
            info[name] = {"value": values[name], "min": min(series), "median": q2,
                          "q1": q1, "q3": q3, "count": len(series)}
            print(f"{name}: {values[name]:.4f} s; over {len(series)} samples min "
                  f"{min(series):.4f} s, median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s")
    print(DETAIL + json.dumps(info))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced levels, for tests")
    ap.add_argument("--src", default=SRC,
                    help="package sources to measure (default: this checkout's src)")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "thetaquant", "__init__.py")):
        print(f"perfbench: no package sources under {src}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, src)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
