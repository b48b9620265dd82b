"""Print the sha256 of every report of a fixed set of config documents.

    python3 tools/report_hashes.py > hashes.json

Run from anywhere; the package is imported from ``src`` beside this
directory.  Each document runs with the cache off, and its digest covers,
section by section, the CSV bytes, the verdicts and the extras of the
report; a document the config refuses is hashed as its message.  Two
checkouts that print the same JSON object computed the same bytes on every
document, so a change that claims byte-identical reports is checked by
diffing this output against the parent commit's.

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
  are kept on their support and would not fit as (M, k^n, k^n) stacks.
"""

import hashlib
import json
import os
import sys

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
    return docs


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
    print(json.dumps({name: digest(text) for name, text in documents().items()},
                     indent=1))


if __name__ == "__main__":
    main()
