"""One fresh process per workload: set-up probe, timed passes, traced passes.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
Prints one JSON object on stdout.

  --setup   time ``import thetaquant`` plus parsing the workload's document
  default   one untimed warm-up pass, then timed passes for --seconds;
            with --trace 1 untraced and traced passes alternate instead
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import failure_reasons, margin_digits  # noqa: E402
from layers import COUNTERS, LAYERS, Installation, Tracer, leftover_wrappers  # noqa: E402
from workloads import config_document  # noqa: E402


def _setup(document):
    started = time.perf_counter()
    import thetaquant  # noqa: F401
    import thetaquant.experiments  # noqa: F401
    from thetaquant.config import parse_config_all

    parse_config_all(document)
    return {"setup_s": time.perf_counter() - started}


def _label(m):
    return f"{m.experiment} n={m.n} k={','.join(map(str, m.k_values))}"


def _run_pass(manifests, per_experiment=None):
    """Run every manifest once; return (outcomes, wall seconds, cpu seconds),
    with one time of each kind per manifest.

    An outcome is (failure reasons, margin digits or None).  The function is
    looked up on its module at call time, so a traced pass calls the wrapper.
    Only ``run_experiment`` is timed, not the benchmark's own check.
    """
    import thetaquant.experiments

    outcomes, walls, cpus = [], [], []
    for m in manifests:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            doc = thetaquant.experiments.run_experiment(m, use_cache=False)
        except Exception as exc:  # a raising manifest is a failed manifest
            doc = exc
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if isinstance(doc, Exception):
            outcomes.append(([f"raised {type(doc).__name__}: {doc}"[:300]], None))
        else:
            outcomes.append((failure_reasons(doc), margin_digits(doc)))
        if per_experiment is not None:
            per_experiment[m.experiment] += walls[-1]
    return outcomes, walls, cpus


def _layer_metrics(tracer, passes, per_experiment, spans):
    """Per-pass means of every span and counter; maxima stay maxima.

    Every wrapped span, and every counter of one, gets a value, 0 when it
    was never called, so a metric missing from the result names a function
    that was not wrapped.
    """
    metrics = {}
    for name in spans:
        metrics[f"{name}.calls"] = tracer.calls[name] / passes
        metrics[f"{name}.self_s"] = tracer.self_s[name] / passes
        if name in COUNTERS:
            metric, how, _ = COUNTERS[name]
            if how == "max":
                metrics[metric] = tracer.maxima[metric]
            else:
                metrics[metric] = tracer.sums[metric] / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            s for name, s in tracer.self_s.items() if name.startswith(layer + ".")
        ) / passes
    for experiment, seconds in per_experiment.items():
        metrics[f"experiments.{experiment}.total_s"] = seconds / passes
    return metrics


def _passes(document, seconds, trace):
    import thetaquant.config

    manifests = thetaquant.config.parse_config_all(document)
    reference, _, _ = _run_pass(manifests)  # warm-up
    untraced, traced, outcomes = [], [], []
    tracer = per_experiment = None
    spans = set()
    if trace:
        tracer = Tracer()
        per_experiment = dict.fromkeys(thetaquant.config.EXPERIMENT_IDS, 0.0)
    started = time.perf_counter()
    while not untraced or (trace and not traced) or (
        time.perf_counter() - started < seconds
    ):
        if trace and len(traced) < len(untraced):
            with Installation(tracer) as installation:
                # parsing is set-up work: traced, but outside the pass timing
                thetaquant.config.parse_config_all(document)
                result, wall, cpu = _run_pass(manifests, per_experiment)
            traced.append((wall, cpu))
            spans |= installation.spans
        else:
            result, wall, cpu = _run_pass(manifests)
            untraced.append((wall, cpu))
        outcomes.append(result)

    out = {
        "version": thetaquant.__version__,
        "labels": [_label(m) for m in manifests],
        "reference": reference,
        "outcomes": outcomes,
        "manifest_s": [w for w, _ in untraced],
        "manifest_cpu_s": [c for _, c in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["traced_manifest_s"] = [w for w, _ in traced]
        out["layers"] = _layer_metrics(tracer, len(traced), per_experiment, spans)
        out["leftover_wrappers"] = leftover_wrappers()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)
    document = config_document(args.workload, args.seed, smoke=args.smoke)
    if args.setup:
        result = _setup(document)
    else:
        result = _passes(document, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
