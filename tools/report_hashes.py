"""Print the sha256 of every report of a fixed set of config documents.

    python3 tools/report_hashes.py > tools/report_hashes.json

Run from anywhere; the package is imported from ``src`` beside this
directory.  Each document runs with the cache off, and its digest covers,
section by section, the CSV bytes, the verdicts and the extras of the
report; a document the config refuses is hashed as its message.  The JSON
object holds the digests and the environment they were computed in
(Python, numpy and the BLAS numpy links).  The committed
``report_hashes.json`` is the reference that ``tests/test_report_hashes.py``
recomputes: a change that moves a report regenerates it, and its diff names
the moved documents.

The documents:

* the three benchmark workloads at seeds 1 and 2
  (``perfbench/workloads.config_document``, only read);
* every experiment's defaults at n = 1 and 2 (``genus`` for tqft);
* every experiment but tqft at the skew point [[2i, 0.5i], [0.5i, 1i]] and
  at the normal point [[1+2i, 0.5+1i], [0.5+1i, 1+2i]];
* ``bms`` of the line function F(-6,-6;-3,-3) + F(6,6;3,3) at a generic
  n = 2 point, whose norms read one eigenvalue per mode;
* ``covariance`` at k = 1 between 0.5i and i of the modes (0, 16) and
  (1, 0), where eta of (0, 16) underflows at 0.5i and the rescaled residual
  takes the significand of eta;
* ``flatness`` at 0.00005i and i, where the fd stencil leaves the Siegel
  space at the first point and that point's row is a refusal;
* ``gram`` at k = 82, 128 and the 25-mode ``toeplitz-compare`` at k = 37,
  64, both at the default n = 2 point diag(i, 2i), levels whose pairings
  are kept on their support and would not fit as (M, k^n, k^n) stacks;
* the 25-mode ``toeplitz-compare`` at n = 1, k = 735 (Z = i) and at the
  skew point at k = 21, levels whose rule grids are multiples of k and
  whose coprime grids of the old rule were refused at the 1 GiB limit;
* ``star-fit`` at two off-diagonal n = 2 points, the skew point and the
  generic one, with the default pairs and with the explicit modes
  F(2,0;0,1), F(0,1;1,1): the c1 fits of two off-diagonal points in one
  manifest;
* ``gram`` and the 25-mode ``toeplitz-compare`` on an explicit ``grid`` at
  Z = i and at diag(i, 2i), at levels that divide the grid: some at or
  above the rule, and one below it, whose row is refused as too coarse;
* ``gram`` at k = 3, 4 on the grid 64, which 3 does not divide.
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from thetaquant.config import EXPERIMENT_IDS, ConfigError, parse_config_all  # noqa: E402
from thetaquant.experiments import run_experiment  # noqa: E402
from workloads import WORKLOADS, config_document  # noqa: E402

POINTS = ("[[2i, 0.5i], [0.5i, 1i]]", "[[1+2i, 0.5+1i], [0.5+1i, 1+2i]]")
# off-diagonal X and Y that do not commute, at n = 2
_OFF = "0.8949588112985712-2.0285284541622097i"
GENERIC = (f"[[-2.485464452354389+3.076206632657292i, {_OFF}],"
           f" [{_OFF}, 1.0292845187544788+2.9914846061117744i]]")
DIAGONAL = "[[1i, 0], [0, 2i]]"


def documents():
    """Name -> config text of every hashed document, in a fixed order."""
    docs = {f"workload {w} seed {seed}": config_document(w, seed)
            for w in WORKLOADS for seed in (1, 2)}
    for e in EXPERIMENT_IDS:
        key = "genus" if e == "tqft" else "n"
        for n in (1, 2):
            docs[f"{e} {key} = {n}"] = f"[{e}]\n{key} = {n}\n"
    for e in EXPERIMENT_IDS:
        if e != "tqft":
            for z in POINTS:
                docs[f"{e} Z = {z}"] = f"[{e}]\nn = 2\nZ = {z}\n"
    docs["bms at the generic point"] = (
        f"[bms]\nn = 2\nZ = {GENERIC}\nmodes = -6,-6,-3,-3; 6,6,3,3\n")
    docs["covariance with an underflowed eta"] = (
        "[covariance]\nn = 1\nk = 1\nZ = 0.5i; 1i\nmodes = 0,16; 1,0\n")
    docs["flatness with a refused fd stencil"] = "[flatness]\nn = 1\nZ = 0.00005i; 1i\n"
    docs["gram past the stack wall"] = "[gram]\nn = 2\nk = 82, 128\n"
    docs["toeplitz-compare past the stack wall"] = "[toeplitz-compare]\nn = 2\nk = 37, 64\n"
    docs["toeplitz-compare at n = 1 past the coprime-grid wall"] = (
        "[toeplitz-compare]\nn = 1\nk = 735\nZ = i\n")
    docs["toeplitz-compare at the skew point past the coprime-grid wall"] = (
        f"[toeplitz-compare]\nn = 2\nk = 21\nZ = {POINTS[0]}\n")
    star = f"[star-fit]\nn = 2\nZ = {POINTS[0]}; {GENERIC}\n"
    docs["star-fit at two off-diagonal points"] = star
    docs["star-fit of explicit modes at two off-diagonal points"] = (
        star + "modes = 2,0,0,1; 0,1,1,1\n")
    # the rule's N at Z = i and diag(i, 2i): 32, 48 and 64 for the Gram at
    # k = 4, 6 and 16; 50 and 75 for the compare at k = 5 and 15
    docs["gram on an explicit grid"] = (
        "[gram]\nn = 1\nk = 4, 6, 16\nZ = i\ngrid = 48\n\n"
        f"[gram]\nn = 2\nk = 4, 16\nZ = {DIAGONAL}\ngrid = 48\n")
    docs["toeplitz-compare on an explicit grid"] = (
        "[toeplitz-compare]\nn = 1\nk = 5, 15\nZ = i\ngrid = 60\n\n"
        f"[toeplitz-compare]\nn = 2\nk = 5, 15\nZ = {DIAGONAL}\ngrid = 60\n")
    docs["gram on a grid that is not a multiple of its level"] = (
        "[gram]\nn = 1\nk = 3, 4\nZ = i\ngrid = 64\n")
    return docs


def environment():
    """The Python, numpy and BLAS the digests are computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def digest(text):
    """sha256 of the reports of every section of ``text``, or of the
    message of the ConfigError that refuses it."""
    h = hashlib.sha256()
    try:
        manifests = parse_config_all(text)
    except ConfigError as exc:
        h.update(str(exc).encode())
        return h.hexdigest()
    for m in manifests:
        doc = run_experiment(m, use_cache=False)
        h.update(doc.csv_bytes())
        h.update(json.dumps([doc.verdicts, doc.extras], sort_keys=True).encode())
    return h.hexdigest()


def main():
    digests = {name: digest(text) for name, text in documents().items()}
    print(json.dumps({"environment": environment(), "digests": digests}, indent=1))


if __name__ == "__main__":
    main()
