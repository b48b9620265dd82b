"""Per-layer spans recorded from outside the package.

Each public function of a layer module is wrapped, and the wrapper is bound
under every name that held the original in any loaded ``thetaquant`` module:
``experiments`` imports with ``from .x import f`` and ``toeplitz`` calls its
own functions through module globals, so patching the defining module alone
would miss calls.  ``SiegelPoint.Yinv`` (a property) and
``OperatorMatrix.__post_init__`` (which copies the entries) are wrapped on
their classes.  ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of the spans it
directly encloses.  The tracer keeps one stack and is not thread-safe; the
workloads run every manifest on one thread.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "config",
    "siegel",
    "theta",
    "sections",
    "fourier",
    "toeplitz",
    "formal",
    "tqft",
    "experiments",
)

_WRAPPED = "__perfbench_original__"


class Tracer:
    """Aggregated spans: calls, total and self seconds per name, plus work
    counts that are summed (``sums``) or maximised (``maxima``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)
        self._child_s = [0.0]

    def start(self):
        self._child_s.append(0.0)
        return self.clock()

    def stop(self, name, started):
        duration = self.clock() - started
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - self._child_s.pop()
        self._child_s[-1] += duration

    def add(self, name, value):
        self.sums[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)


def _frame_bytes(a):
    return a["k"] ** a["p"].n * a["grid"].N ** (2 * a["p"].n) * 16


def _norm_dim(a):
    return a["A"].entries.shape[0]


def _copied_bytes(a):
    return a["self"].entries.nbytes


# Work counts computed from a call's bound arguments, keyed by span name:
# (metric, how the calls combine, work of one call).  "max" keeps the
# largest call, "sum" adds them up.
COUNTERS = {
    "sections.theta_frame_on_grid": (
        "sections.theta_frame_on_grid.max_bytes", "max", _frame_bytes),
    "toeplitz.operator_norm": ("toeplitz.operator_norm.max_dim", "max", _norm_dim),
    "toeplitz.OperatorMatrix.__post_init__": (
        "toeplitz.OperatorMatrix.bytes_copied", "sum", _copied_bytes),
}


def _wrap(tracer, name, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = tracer.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.stop(name, started)
        if counter is not None:
            metric, how, work = counter
            record = tracer.maximum if how == "max" else tracer.add
            record(metric, work(signature.bind(*args, **kwargs).arguments))
        return result

    setattr(wrapper, _WRAPPED, fn)
    return wrapper


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "thetaquant" or name.startswith("thetaquant."))
    ]


class Installation:
    """Wrappers bound into the package; ``uninstall`` restores the originals."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = set()  # names of the spans wrapped
        self._restore = []  # (namespace object, attribute, original value)

    def install(self):
        modules = _package_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"thetaquant.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])
        siegel = sys.modules["thetaquant.siegel"].SiegelPoint
        yinv = siegel.__dict__["Yinv"]
        self._set(
            siegel,
            "Yinv",
            property(self._wrap("siegel.SiegelPoint.Yinv", yinv.fget)),
        )
        operator = sys.modules["thetaquant.toeplitz"].OperatorMatrix
        self._set(
            operator,
            "__post_init__",
            self._wrap(
                "toeplitz.OperatorMatrix.__post_init__",
                operator.__dict__["__post_init__"],
            ),
        )
        return self

    def _wrap(self, name, fn):
        self.spans.add(name)
        return _wrap(self.tracer, name, fn)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def leftover_wrappers():
    """Names in the package that still hold a wrapper; empty after uninstall."""
    found = []
    for mod in _package_modules():
        owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
        for owner in owners:
            for attr, obj in vars(owner).items():
                target = obj.fget if isinstance(obj, property) else obj
                if hasattr(target, _WRAPPED):
                    found.append(f"{mod.__name__}:{getattr(owner, '__name__', '')}.{attr}")
    return found
