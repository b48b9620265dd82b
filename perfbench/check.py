"""The benchmark's own verdict on a report, independent of the package's.

The package's verdicts aggregate with ``max(worst, x)``, which keeps
``worst`` when ``x`` is NaN, so a report can print PASS over NaN rows.  This
check reads the formatted rows and verdicts of a ``ReportDocument`` instead.
"""

import math


def _as_float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def failure_reasons(doc):
    """Why the report counts as a failed manifest; empty when it does not.

    A report fails when a verdict fails, when a verdict's observed value is
    not a finite number, when a row's ``status`` is anything but ``pass``,
    or when any cell of a row (reports without a status column put it
    elsewhere) starts with ``refused``.
    """
    reasons = []
    for v in doc.verdicts:
        if not v["passed"]:
            reasons.append(f"verdict {v['name']} failed")
        observed = _as_float(v["observed"])
        if observed is None or not math.isfinite(observed):
            reasons.append(f"verdict {v['name']} observed {v['observed']}")
    status_col = doc.columns.index("status") if "status" in doc.columns else None
    bad_rows = 0
    for row in doc.rows:
        refused = any(str(cell).startswith("refused") for cell in row)
        if refused or (status_col is not None and row[status_col] != "pass"):
            bad_rows += 1
    if bad_rows:
        reasons.append(f"{bad_rows} of {len(doc.rows)} rows not pass")
    return reasons


def margin_digits(doc):
    """Digits between each verdict's observed value and its tolerance.

    Over verdicts with a numeric tolerance and a finite, nonzero observed
    value, the smallest |log10(tolerance / observed)|, negated for a failed
    verdict.  The absolute value covers both directions of verdict
    (``observed < tol`` and ``observed > tol``).  None if no verdict counts.
    """
    margins = []
    for v in doc.verdicts:
        tol = _as_float(v["tolerance"])
        observed = _as_float(v["observed"])
        if tol is None or observed is None:
            continue
        if not math.isfinite(observed) or observed == 0:
            continue
        digits = abs(math.log10(tol / abs(observed)))
        margins.append(digits if v["passed"] else -digits)
    return min(margins) if margins else None
