"""Experiment manifests and the sectioned key-value configuration format.

A configuration document is plain text with ``key = value`` lines and
optional ``[section]`` headers (one experiment per section; a bare document
is a single experiment).  Complex numbers are written ``a+bi``; matrices as
row lists ``[[a, b], [c, d]]``; lists of levels or modes are comma or
semicolon separated.  Unknown keys and malformed values raise
:class:`ConfigError` with the offending line number.

Every section reads ``experiment``, ``k``, ``out`` and ``cache-dir``.
:data:`EXPERIMENTS` holds one record per experiment: the other keys it
reads, its default levels, its default pass tolerance and the numbers of
modes it reads in full.  The parser, the runners and the CLI all read it; a
section that sets a key its experiment does not read is refused at its
line.  :func:`siegel_points` resolves ``Z`` with ``n``; ``[tqft]`` reads
``genus`` as its dimension and no ``Z``, as curve operators do not depend on
the complex structure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .fourier import FourierMode
from .siegel import InvalidPointError, SiegelPoint
from .toeplitz import _FIT_ORDER

__all__ = [
    "ConfigError",
    "ExperimentManifest",
    "EXPERIMENT_IDS",
    "EXPERIMENTS",
    "parse_complex",
    "parse_matrix",
    "parse_config",
    "parse_config_all",
    "siegel_points",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """What one experiment reads and defaults to."""

    reads: tuple  # the optional keys it reads, its dimension key first
    k_values: tuple  # its default levels
    tol: tuple = (None,)  # its pass tolerance at n = 1, 2, ...; the last holds above
    mode_counts: tuple = ()  # (words, counts): the numbers of modes it reads in full

    def tolerance(self, n, tol=None):
        """``tol``, or else the default pass tolerance at dimension n."""
        return self.tol[min(n, len(self.tol)) - 1] if tol is None else tol


# One record per experiment.  Asymptotic fits need the long sweep;
# quadrature comparisons stay at desk-scale levels.
EXPERIMENTS = {
    "gram": ExperimentSpec(("n", "Z", "tol", "grid"), (1, 2, 4, 8), (1e-8, 1e-7)),
    "toeplitz-compare": ExperimentSpec(
        ("n", "Z", "tol", "grid", "modes"), (2, 4, 6), (1e-8,)),
    "heat-identity": ExperimentSpec(("n", "Z", "tol"), (2, 4, 8), (1e-12,)),
    "covariance": ExperimentSpec(("n", "Z", "tol", "modes"), (2, 4, 8), (1e-9,)),
    "trace-lemma": ExperimentSpec(("n", "Z", "tol", "modes"), (2, 4, 8), (1e-10,)),
    "bms": ExperimentSpec(("n", "Z", "modes"), (8, 16, 32, 64, 128)),
    "pairing-limit": ExperimentSpec(("n", "Z", "modes"), (8, 16, 32, 64, 128)),
    "star-fit": ExperimentSpec(("n", "Z", "tol", "modes"), (8, 16, 32, 64, 128),
                               (0.02,), ("two", (2,))),
    "flatness": ExperimentSpec(("n", "Z", "tol", "modes"), (1,), (1e-10,)),
    "tqft": ExperimentSpec(("genus", "modes"), (2, 4, 8), (1e-10,),
                           ("at most two", (1, 2))),
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)
_OPTIONAL = {key for spec in EXPERIMENTS.values() for key in spec.reads}
_KNOWN_KEYS = _OPTIONAL | {"experiment", "k", "out", "cache-dir"}

DEFAULT_Z_N1 = ("i", "1+2i", "0.5+0.7i")


class ConfigError(ValueError):
    """Configuration problem, annotated with a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_complex(text, line=None):
    """Parse 'a+bi' notation ('i', '2i', '1+0.5i', '-0.5-0.7i', '3')."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal", line)
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ConfigError(f"malformed complex number {text!r}", line) from None


def parse_matrix(text, line=None):
    """Parse a scalar 'a+bi' or a row list '[[a, b], [c, d]]' into an array."""
    s = text.strip()
    if not s.startswith("["):
        return np.array([[parse_complex(s, line)]])
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ConfigError(f"malformed matrix {text!r}", line)
    rows = []
    for row_text in re.split(r"\]\s*,\s*\[", s[2:-2]):
        rows.append([parse_complex(cell, line) for cell in row_text.split(",")])
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ConfigError("matrix rows have unequal lengths", line)
    return np.array(rows)


def _tolerance(value, line=None):
    """``value`` if it is a positive, finite tolerance, else a ConfigError."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"tolerance must be positive and finite, got {value!r}", line)
    return value


def _parse_mode(text, n, line=None):
    """The mode (r, s) of dimension n written as 2n integers 'r..., s...'."""
    try:
        vals = [int(q) for q in text.split(",")]
    except ValueError:
        raise ConfigError(f"malformed mode {text!r}", line) from None
    if len(vals) != 2 * n:
        raise ConfigError(
            f"mode {text!r} needs 2n = {2 * n} integers 'r,s' at n = {n}", line
        )
    return tuple(vals[:n]), tuple(vals[n:])


@dataclass
class ExperimentManifest:
    """Validated parameters of one experiment run."""

    experiment: str
    k_values: tuple
    n: int = 1
    points: tuple = ()  # SiegelPoint instances
    modes: tuple = ()  # ((r tuple, s tuple), ...)
    tol: float | None = None
    grid: int | None = None
    out: str | None = None
    cache_dir: str | None = None

    def canonical(self):
        """Deterministic text form; the cache key hashes this."""

        def fmt(z):
            return "%.17g%+.17gi" % (z.real, z.imag)

        pts = ";".join(
            "[" + ",".join("[" + ",".join(fmt(z) for z in row) + "]" for row in p.Z)
            + "]"
            for p in self.points
        )
        fields = [
            f"experiment={self.experiment}",
            f"n={self.n}",
            f"k={','.join(str(k) for k in self.k_values)}",
            f"Z={pts}",
            f"modes={self.modes}",
            f"tol={self.tol}",
            f"grid={self.grid}",
        ]
        return "|".join(fields)


def siegel_points(text=None, n=None, line=None):
    """The points of ``text`` (';' separated), each of dimension ``n`` or
    a ConfigError; for no text the default points: i, 1+2i and 0.5+0.7i at
    n = 1 (or None), diag(i, 2i, ..., ni) above."""
    if text is None:
        if n in (None, 1):
            return tuple(SiegelPoint(parse_complex(z)) for z in DEFAULT_Z_N1)
        return (SiegelPoint(np.diag([1j * (i + 1) for i in range(n)])),)
    pts = []
    for chunk in filter(str.strip, text.split(";")):
        try:
            pts.append(SiegelPoint(parse_matrix(chunk, line)))
        except InvalidPointError as exc:
            raise ConfigError(str(exc), line) from None
    if not pts:
        raise ConfigError("empty Siegel point list", line)
    if len({p.n for p in pts}) != 1:
        raise ConfigError("Siegel points of mixed dimension", line)
    if n is not None and pts[0].n != n:
        raise ConfigError(f"point dimension {pts[0].n} != n = {n}", line)
    return tuple(pts)


def _number(pairs, line_of, key, kind):
    """The value of ``key`` as a float or an int >= 1, or a ConfigError at
    its line."""
    try:
        value = kind(pairs[key])
    except ValueError:
        raise ConfigError(f"malformed {key} {pairs[key]!r}", line_of[key]) from None
    if kind is int and value < 1:
        raise ConfigError(f"{key} must be >= 1", line_of[key])
    return value


def _build_manifest(pairs, line_of):
    if "experiment" not in pairs:
        raise ConfigError("missing required key 'experiment'")
    exp = pairs["experiment"].strip()
    if exp not in EXPERIMENT_IDS:
        raise ConfigError(
            f"unknown experiment {exp!r}; choose from {', '.join(EXPERIMENT_IDS)}",
            line_of.get("experiment"),
        )
    spec = EXPERIMENTS[exp]
    m = ExperimentManifest(experiment=exp, k_values=spec.k_values)
    reads = spec.reads
    unread = [key for key in pairs if key in _OPTIONAL and key not in reads]
    if unread:
        raise ConfigError(f"{exp} does not read {unread[0]}", line_of[unread[0]])
    dim_key = reads[0]
    n = _number(pairs, line_of, dim_key, int) if dim_key in pairs else None
    if "k" in pairs:
        try:
            ks = tuple(
                int(x) for x in re.split(r"[;,]", pairs["k"]) if x.strip()
            )
        except ValueError:
            raise ConfigError(
                f"malformed level list {pairs['k']!r}", line_of.get("k")
            ) from None
        if not ks or any(k < 1 for k in ks):
            raise ConfigError("levels must be positive", line_of.get("k"))
        if len(set(ks)) < len(ks):  # a repeat measures nothing new, and a fit loses rank
            repeated = sorted({k for k in ks if ks.count(k) > 1})
            raise ConfigError(f"levels repeat: {', '.join(map(str, repeated))}",
                              line_of.get("k"))
        m.k_values = ks
    if "Z" in reads:
        m.points = siegel_points(pairs.get("Z"), n, line_of.get("Z"))
    m.n = m.points[0].n if m.points else n or 1
    if "modes" in pairs:
        m.modes = tuple(
            _parse_mode(chunk, m.n, line_of.get("modes"))
            for chunk in pairs["modes"].split(";")
            if chunk.strip()
        )
        if m.modes and spec.mode_counts:
            words, counts = spec.mode_counts
            if len(m.modes) not in counts:
                raise ConfigError(
                    f"{exp} reads {words} modes, got {len(m.modes)}",
                    line_of.get("modes"),
                )
        if exp == "star-fit" and m.modes:
            f, g = (FourierMode(*mode) for mode in m.modes)
            if f.symplectic_pairing(g) == 0:
                raise ConfigError("star-fit modes commute (r.u - s.t = 0): {f, g} = 0 "
                                  "has no constant to measure", line_of.get("modes"))
    if exp == "star-fit" and len(m.k_values) < _FIT_ORDER + 2:
        raise ConfigError(f"star-fit needs at least {_FIT_ORDER + 2} levels for "
                          f"the fit, got {len(m.k_values)}", line_of.get("k"))
    if exp == "covariance" and len(m.points) < 2:
        raise ConfigError("covariance experiment needs at least two Siegel points",
                          line_of.get("Z", line_of.get(dim_key)))
    if "tol" in pairs:
        m.tol = _tolerance(_number(pairs, line_of, "tol", float), line_of.get("tol"))
    if "grid" in pairs:
        m.grid = _number(pairs, line_of, "grid", int)
    if "out" in pairs:
        m.out = pairs["out"].strip()
    if "cache-dir" in pairs:
        m.cache_dir = pairs["cache-dir"].strip()
    return m


def _split_sections(text):
    """Yield (section pairs, key -> line number) blocks in document order."""
    sections = [({}, {})]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append(({}, {}))
            name = line[1:-1].strip()
            if name:
                sections[-1][0]["experiment"] = name
                sections[-1][1]["experiment"] = lineno
            continue
        # allow several comma-separated assignments on one line
        parts = re.split(r",\s*(?=[A-Za-z_-]+\s*=)", line)
        for part in parts:
            if "=" not in part:
                raise ConfigError(f"expected 'key = value', got {part!r}", lineno)
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}", lineno)
            pairs, line_of = sections[-1]
            pairs[key] = value.strip()
            line_of[key] = lineno
    return [s for s in sections if s[0]]


def parse_config_all(text):
    """Every experiment manifest in the document, in order."""
    blocks = _split_sections(text)
    if not blocks:
        raise ConfigError("configuration contains no experiment")
    return [_build_manifest(pairs, line_of) for pairs, line_of in blocks]


def parse_config(text):
    """The single (or first) experiment manifest of the document."""
    return parse_config_all(text)[0]
