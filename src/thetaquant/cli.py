"""Command-line front end.

Verbs:

    thetaquant theta eval --n 1 --k 2 --Z i --alpha 1 --z 0.3+0.2i
    thetaquant gram --n 1 --k 4 --Z i
    thetaquant toeplitz compare --k 2 --Z i --mode 1,0
    thetaquant experiment run config.txt [--out report --no-cache ...]
    thetaquant tqft invariant [--g 1] --k 5 [--mode 1,0 --mode2 0,1]

Without --Z a verb runs at the default point of its dimension (i at n = 1,
diag(i, 2i, ..., ni) above), and without --n at the point's dimension;
--alpha and --z default to zeros of that dimension, and --mode to the
mode (1, 0) on the first axis.
``tqft invariant`` takes no point, as curve operators do not depend on it;
its genus --g is 1 by default.  ``experiment run`` flags override the
config values of the experiments that read them, and ``gram`` and
``toeplitz compare`` default to their experiment's tolerance; both are
read from the one record per experiment, ``config.EXPERIMENTS``.  The
cache directory defaults to $THETAQUANT_CACHE_DIR.  Bad input ends with a
one-line error on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import (
    EXPERIMENTS,
    ConfigError,
    _parse_mode,
    _tolerance,
    parse_complex,
    parse_config_all,
    siegel_points,
)
from .experiments import _first_coordinate, emit_outputs, fmt_complex, run_experiment
from .fourier import FourierMode, _mode_table
from .sections import GridError, SizeLimitError, _plan
from .siegel import InvalidPointError
from .theta import Derivative, ThetaLabel, TruncationError, theta_eval
from .toeplitz import quadrature_deviation
from .tqft import CurveClass, mapping_torus_invariant


def _point(text, n):
    """The one Siegel point of --Z, or the default point, of dimension n."""
    points = siegel_points(text, n)
    if text is not None and len(points) > 1:
        raise ConfigError(f"--Z takes one Siegel point, got {len(points)}")
    return points[0]


def positive_int(text):
    """argparse type of the sizes --n, --k, --g and --grid."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def tolerance(text):
    """argparse type of --tol: positive and finite, the config file's rule."""
    try:
        return _tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """Argument errors end like every other bad input: one line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common(sp):
    sp.add_argument("--n", type=positive_int, help="dimension (default: Z's, else 1)")
    sp.add_argument("--k", type=positive_int, default=2, help="quantization level")
    sp.add_argument("--Z", help="Siegel point, 'a+bi' or [[..],[..]] (default: i "
                    "at n = 1, diag(i, 2i, ..., ni) above)")


def _add_quadrature(sp):
    _add_common(sp)
    sp.add_argument("--tol", type=tolerance, default=None, help="pass tolerance")
    sp.add_argument("--grid", type=positive_int, default=None,
                    help="nodes per coordinate, a multiple of k")


def build_parser():
    ap = _Parser(
        prog="thetaquant",
        description="Theta-frame quantization toolkit for symplectic tori",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    theta_p = sub.add_parser("theta", help="theta function evaluation")
    theta_sub = theta_p.add_subparsers(dest="action", required=True)
    ev = theta_sub.add_parser("eval", help="evaluate a theta frame element")
    _add_common(ev)
    ev.add_argument("--alpha", help="label integers, comma separated (default: zeros)")
    ev.add_argument("--z", help="complex point, ';' separated coords (default: zeros)")
    ev.add_argument("--sel", default="value",
                    help="value | dz:i | dz2:i,j | dZ:i,j")

    gram_p = sub.add_parser("gram", help="frame inner-product matrix")
    _add_quadrature(gram_p)

    toep = sub.add_parser("toeplitz", help="mode operators")
    toep_sub = toep.add_subparsers(dest="action", required=True)
    cmp_p = toep_sub.add_parser("compare", help="closed form vs quadrature")
    _add_quadrature(cmp_p)
    cmp_p.add_argument("--mode", help="mode integers r,s (default: 1,0 on the first axis)")

    exp = sub.add_parser("experiment", help="manifest-driven experiments")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    run_p = exp_sub.add_parser("run", help="run every experiment in a config")
    run_p.add_argument("config", help="configuration file path")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--cache-dir", default=None)
    run_p.add_argument("--tol", type=tolerance, default=None)
    run_p.add_argument("--grid", type=positive_int, default=None)
    run_p.add_argument("--no-cache", action="store_true")

    tq = sub.add_parser("tqft", help="curve operators and invariants")
    tq_sub = tq.add_subparsers(dest="action", required=True)
    inv = tq_sub.add_parser("invariant", help="mapping torus invariant")
    inv.add_argument("--g", type=positive_int, default=1, help="genus")
    inv.add_argument("--k", type=positive_int, default=2)
    inv.add_argument("--mode", default=None, help="first curve class r,s")
    inv.add_argument("--mode2", default=None, help="second curve class r,s")
    return ap


def _selector(text, n):
    """The --sel derivative; every index an integer in [0, n)."""
    kind, _, rest = text.partition(":")
    arity = {"value": 0, "dz": 1, "dz2": 2, "dZ": 2}.get(kind)
    try:
        indices = [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        indices = None
    if indices is None or len(indices) != arity or not all(0 <= i < n for i in indices):
        raise ConfigError(
            f"selector {text!r}: expected value, dz:i, dz2:i,j or dZ:i,j "
            f"with integer indices in [0, {n})"
        )
    return Derivative(kind, *indices)


def _cmd_theta_eval(args):
    p = _point(args.Z, args.n)
    alpha = [0] * p.n if args.alpha is None else args.alpha.split(",")
    try:
        label = ThetaLabel(args.k, tuple(int(x) for x in alpha))
    except ValueError as exc:
        raise ConfigError(f"--alpha {args.alpha!r}: {exc}") from None
    if label.n != p.n:
        raise ConfigError(f"--alpha {args.alpha!r} has {label.n} entries, point has n={p.n}")
    z = np.zeros(p.n) if args.z is None else np.array([parse_complex(c) for c in args.z.split(";")])
    if len(z) != p.n:
        raise ConfigError(f"z has {len(z)} coordinates, point has n={p.n}")
    if not np.isfinite(z).all():
        raise ConfigError(f"--z {args.z!r} has a non-finite coordinate")
    value = theta_eval(p, label, z, _selector(args.sel, p.n))
    print(fmt_complex(value))
    return 0


def _cmd_quadrature(args):
    """``gram`` and ``toeplitz compare``: one mode's quadrature against its
    closed form, the zero mode's (T_k(1) = Id) for ``gram``, else --mode's."""
    p = _point(args.Z, args.n)
    if args.verb == "gram":
        experiment, label = "gram", "max |Gram - Id|"
        table = np.zeros((1, 2 * p.n), dtype=np.int64)
    else:
        experiment, label = "toeplitz-compare", "max entry difference"
        mode = _first_coordinate(p.n, 1, 0) if args.mode is None else FourierMode(
            *_parse_mode(args.mode, p.n))
        table = _mode_table([mode])
    plan = _plan(p, args.k, table, args.grid)
    (dev,) = quadrature_deviation(p, args.k, table, plan).tolist()
    tol = EXPERIMENTS[experiment].tolerance(p.n, args.tol)
    status = "PASS" if dev < tol else "FAIL"
    print(f"{label} = {dev:.3e}  (tolerance {tol:g})  {status}")
    return 0 if dev < tol else 1


def _cmd_experiment_run(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            manifests = parse_config_all(fh.read())
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None
    failures = 0
    for idx, m in enumerate(manifests):
        if args.cache_dir is not None:
            m.cache_dir = args.cache_dir
        reads = EXPERIMENTS[m.experiment].reads
        if args.tol is not None and "tol" in reads:
            m.tol = args.tol
        if args.grid is not None and "grid" in reads:
            m.grid = args.grid
        if args.out is not None:
            m.out = args.out if len(manifests) == 1 else f"{args.out}-{idx}"
        doc = run_experiment(m, use_cache=not args.no_cache)
        sys.stdout.write(doc.summary_text())
        if m.out:
            paths = emit_outputs(doc, m.out)
            print("wrote: " + ", ".join(paths))
        if not doc.passed:
            failures += 1
    return 1 if failures else 0


def _cmd_tqft_invariant(args):
    c1, c2 = (CurveClass(*_parse_mode(text, args.g)) if text else None
              for text in (args.mode, args.mode2))
    val = mapping_torus_invariant(args.g, args.k, c1, c2)
    print(fmt_complex(val))
    return 0


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.verb == "theta":
            return _cmd_theta_eval(args)
        if args.verb in ("gram", "toeplitz"):
            return _cmd_quadrature(args)
        if args.verb == "experiment":
            return _cmd_experiment_run(args)
        if args.verb == "tqft":
            return _cmd_tqft_invariant(args)
    except (ConfigError, InvalidPointError, GridError, SizeLimitError,
            TruncationError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
