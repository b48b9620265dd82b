"""The benchmark's three workloads, rendered as thetaquant config documents.

Each workload is a list of manifests.  Levels, dimensions and the set of
Siegel points are fixed; the seed only shuffles the order of the manifests
in the document and the order of the points inside each manifest, so every
seed does the same work.  This module imports nothing from numpy or
thetaquant: the set-up timing starts after the document is built.
"""

import random
from dataclasses import dataclass

N1_POINTS = ("i", "1+2i", "0.5+0.7i")  # the package's n=1 default points
N2_POINT = "[[1i, 0], [0, 2i]]"  # the package's n=2 default point
N2_SKEW = "[[2i, 0.5i], [0.5i, 1i]]"


@dataclass(frozen=True)
class Manifest:
    """One config section: experiment, full and smoke level lists, points."""

    experiment: str
    levels: tuple
    smoke: tuple
    points: tuple = ()
    n: int | None = None
    genus: int | None = None

    def render(self, rng, smoke=False):
        lines = [f"[{self.experiment}]"]
        if self.n is not None:
            lines.append(f"n = {self.n}")
        if self.genus is not None:
            lines.append(f"genus = {self.genus}")
        levels = self.smoke if smoke else self.levels
        lines.append("k = " + ", ".join(str(k) for k in levels))
        if self.points:
            points = list(self.points)
            rng.shuffle(points)
            lines.append("Z = " + "; ".join(points))
        return "\n".join(lines)


# bms, pairing-limit and star-fit read only their first one or two points,
# so they are given exactly those, and a shuffle cannot change their work.
WORKLOADS = {
    # Grid frame and quadrature oracle; peak memory from the n=2 frame.
    "quadrature": [
        Manifest("gram", (8, 16, 24, 32), (2,), N1_POINTS, n=1),
        Manifest("gram", (2, 3), (2,), (N2_POINT,), n=2),
        Manifest("toeplitz-compare", (4, 8, 12, 16), (2,), N1_POINTS, n=1),
        Manifest("toeplitz-compare", (2,), (1,), (N2_POINT,), n=2),
    ],
    # Closed-form operators and dense SVDs; no quadrature.
    "dense": [
        Manifest("bms", (64, 128, 256, 512, 1024), (8, 16), ("i",), n=1),
        # the fit needs five levels even at smoke size
        Manifest(
            "star-fit", (16, 32, 64, 128, 256), (8, 16, 32, 64, 128), ("i", "1+2i"), n=1
        ),
        Manifest("pairing-limit", (256, 512, 1024, 2048), (8, 16), ("i",), n=1),
        Manifest("tqft", (16, 32), (2,), genus=2),
    ],
    # Thousands of small calls; Python overhead, no big arrays.
    "pointwise": [
        Manifest("heat-identity", (2, 4, 8), (2,), N1_POINTS, n=1),
        Manifest("heat-identity", (2, 4, 8), (2,), (N2_POINT,), n=2),
        Manifest("flatness", (1,), (1,), N1_POINTS, n=1),
        Manifest("flatness", (1,), (1,), (N2_POINT,), n=2),
        Manifest("covariance", (2, 4, 8), (2,), N1_POINTS, n=1),
        Manifest("covariance", (2, 4, 8), (2,), (N2_POINT, N2_SKEW), n=2),
        Manifest("trace-lemma", (2, 4, 8), (2,), ("i",), n=1),
        Manifest("trace-lemma", (2, 4, 8), (2,), (N2_POINT,), n=2),
    ],
}


def config_document(workload, seed, smoke=False):
    """The workload's config text for ``seed``; same seed, same text."""
    rng = random.Random(seed)
    manifests = list(WORKLOADS[workload])
    rng.shuffle(manifests)
    return "\n\n".join(m.render(rng, smoke) for m in manifests) + "\n"
