"""Run every workload, compare two result files, or run interleaved pairs.

    python3 perfbench/suite.py run --seeds 1-10 --out bench-results/a.json [--trace]
    python3 perfbench/suite.py diff bench-results/a.json bench-results/b.json
    python3 perfbench/suite.py pairs ../parent --seeds 1-10 --out bench-results/pairs

``run`` calls run.py once per workload and seed, prints each end-to-end
metric by name with its unit and the failed and attempted counts, then each
workload's median and quartiles over seeds.  With ``--trace`` it adds one
traced run per workload and prints its layer table.  ``--out`` keeps every
run, with its machine record, for ``diff``.

``diff`` prints, per workload and end-to-end metric, each side's median and
quartiles over runs, the relative difference, and whether it is worse than
the bound in BENCHMARK.json.  When either side's spread (quartile distance
over median) is wider than the bound the comparison is "unresolved", unless
every run of the second file is better than every run of the first.

``pairs`` measures the package sources of another checkout (before) and of
this one (after) with this checkout's benchmark code, one pair of runs per
workload and seed, alternating which side runs first.  Load on a shared host
drifts over minutes, by more than the bounds; runs taken in pairs see the
same drift on both sides.  It writes ``before.json`` and ``after.json`` into
``--out``, then prints the diff and, per metric, how many pairs the after
side won.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DETAIL, ROOT, load_spec, quartiles  # noqa: E402


def parse_seeds(text):
    """'1-10' or '1,4,9' -> list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def run_one(workload, seed, seconds, trace, src=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if src is not None:
        cmd += ["--src", src]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(x[len(DETAIL):]) for x in lines if x.startswith(DETAIL))
    text = [x for x in lines[:-1] if not x.startswith(DETAIL)]
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail, "text": text}


def _values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and not r["trace"]]


def _print_run(r, label=""):
    res = r["result"]
    cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
    print(f"{r['workload']:10s} seed {r['seed']:3d} {label:6s} {cells}  failed {res['failed']}/"
          f"{res['attempted']} attempted  correct={res['correct']}", flush=True)


def _save(path, spec, runs):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"benchmark": spec, "runs": runs}, fh, indent=1)
    print(f"wrote {path}")


def cmd_run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]  # the same run length on every commit
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            runs.append(run_one(workload, seed, seconds, 0))
            _print_run(runs[-1])
        if args.trace:
            r = run_one(workload, parse_seeds(args.seeds)[0], seconds, 1)
            runs.append(r)
            print(f"{workload} traced run:")
            for line in r["text"]:
                print("  " + line)
    print()
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        failed = sum(r["result"]["failed"] for r in mine)
        attempted = sum(r["result"]["attempted"] for r in mine)
        print(f"{workload}: {len(mine)} runs, failed {failed}/{attempted} manifests "
              f"attempted (failed_frac {failed / attempted:.4g})")
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(_values(runs, workload, m["name"]))
            spread = (q3 - q1) / q2 if q2 else float("inf")
            print(f"  {m['name']:14s} median {q2:.6g} {m['unit']}  quartiles "
                  f"{q1:.6g}..{q3:.6g}  spread {spread:.2%} (bound {m['bound']:.0%})")
    if args.out:
        _save(args.out, spec, runs)


def compare(a, b, better, bound):
    """Verdict text for metric values ``a`` (before) and ``b`` (after)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return worse, "better (every run)"
        return worse, "unresolved"
    if worse > bound:
        return worse, "WORSE than bound"
    return worse, "within bound"


def pair_wins(a, b, better):
    """Pairs (a[i], b[i]) in which ``b`` is better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)


def print_diff(spec, before, after, paired=False):
    for side, runs in (("before", before), ("after", after)):
        machines = {json.dumps(r["detail"]["machine"], sort_keys=True) for r in runs}
        for m in machines:
            print(f"{side} machine: {m}")
    for workload in [w["name"] for w in spec["workloads"]]:
        if not _values(before, workload, "pass_s") or not _values(after, workload, "pass_s"):
            continue
        print(f"\n{workload}")
        for m in spec["end_to_end"]:
            a = _values(before, workload, m["name"])
            b = _values(after, workload, m["name"])
            worse, verdict = compare(a, b, m["better"], m["bound"])
            qa, qb = quartiles(a), quartiles(b)
            wins = f"  after won {pair_wins(a, b, m['better'])}/{len(a)} pairs" if paired else ""
            print(f"  {m['name']:14s} {qa[1]:.6g} [{qa[0]:.6g}..{qa[2]:.6g}] -> "
                  f"{qb[1]:.6g} [{qb[0]:.6g}..{qb[2]:.6g}] {m['unit']}  "
                  f"worse by {worse:+.2%} (bound {m['bound']:.0%}): {verdict}{wins}")


def cmd_diff(args):
    with open(args.before, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(args.after, encoding="utf-8") as fh:
        after = json.load(fh)
    print_diff(load_spec(), before["runs"], after["runs"])


def cmd_pairs(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    sources = {"before": os.path.join(os.path.abspath(args.before), "src"), "after": None}
    runs = {"before": [], "after": []}
    for workload in [w["name"] for w in spec["workloads"]]:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                runs[side].append(run_one(workload, seed, seconds, 0, sources[side]))
                _print_run(runs[side][-1], side)
    for side in runs:
        _save(os.path.join(args.out, f"{side}.json"), spec, runs[side])
    print_diff(spec, runs["before"], runs["after"], paired=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every workload over several seeds")
    r.add_argument("--seeds", default="1-3", help="'1-10' or '1,4,9'")
    r.add_argument("--trace", action="store_true", help="add one traced run each")
    r.add_argument("--out", help="result file for diff")
    d = sub.add_parser("diff", help="compare two result files")
    d.add_argument("before")
    d.add_argument("after")
    p = sub.add_parser("pairs", help="interleave runs of another checkout and this one")
    p.add_argument("before", help="root of the checkout to measure as before")
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,9'")
    p.add_argument("--out", default=os.path.join("bench-results", "pairs"),
                   help="directory for before.json and after.json")
    args = ap.parse_args(argv)
    {"run": cmd_run, "diff": cmd_diff, "pairs": cmd_pairs}[args.command](args)


if __name__ == "__main__":
    main()
