"""Theta functions by certified lattice sums.

Evaluation of frame elements and derivatives, honesty of the truncation
certificate, the heat identity relating Z- and z-derivatives, and the
transformation law under lattice shifts.
"""

import numpy as np

from thetaquant import SiegelPoint, ThetaLabel, theta_basis, theta_eval
from thetaquant.theta import (
    Derivative,
    TruncationPolicy,
    heat_residuals,
    quasi_periodicity_residual,
    truncation_radius,
)

p = SiegelPoint(1j)

# The classical value at the square lattice: sum of exp(-pi l^2).
v = theta_eval(p, ThetaLabel(1, (0,)), 0.0)
print("theta(0 | i) =", v.real)
print("pi^(1/4)/Gamma(3/4) = 1.0864348112133080  (classical)")

# The frame at level k has k^n elements, labels a/k.
print("\nlevel-3 labels:", [lab.a for lab in theta_basis(3, 1)])

# Truncation policies certify the Gaussian tail; radii shrink with k.
for k in (1, 2, 4, 8):
    pol = truncation_radius(p, k, 1e-14)
    print(f"k={k}: certified radius {pol.radius:g} for tail < 1e-14")

# Honesty check: doubling the radius moves the value by less than epsilon.
pol = truncation_radius(p, 2, 1e-10)
wide = TruncationPolicy(pol.epsilon, 2 * pol.radius, pol.k, pol.n, pol.min_eig)
lab = ThetaLabel(2, (1,))
z = 0.3 + 0.2j
v1 = theta_eval(p, lab, z, Derivative.value(), pol)
v2 = theta_eval(p, lab, z, Derivative.value(), wide)
print(f"\ntail honesty: |value(R) - value(2R)| = {abs(v1 - v2):.2e}")

# Heat identity: the Z-derivative equals the scaled second z-derivative,
# term by term over the same lattice window.
for Z in (1j, 1 + 2j, 0.5 + 0.7j):
    q = SiegelPoint(Z)
    # row 0 of heat_residuals is the termwise residual, row 1 the fd one
    res = heat_residuals(q, ThetaLabel(4, (1,)), 0.21 + 0.37j, [(0, 0)])[0].item()
    print(f"heat identity residual at Z = {Z}: {res:.2e}")

# Quasi-periodicity: periodic in x, multiplier^k under Z-lattice shifts.
for idx, name in [(0, "x-shift"), (1, "Z-shift")]:
    res = quasi_periodicity_residual(p, ThetaLabel(3, (2,)), 0.25 + 0.45j, idx)
    print(f"{name} residual: {res:.2e}")

# n = 2 works the same way with matrix moduli.
p2 = SiegelPoint(np.diag([1j, 2j]))
lab2 = ThetaLabel(2, (1, 0))
z2 = np.array([0.1 + 0.2j, 0.3 - 0.1j])
print("\nn=2 value:", theta_eval(p2, lab2, z2))
print("n=2 off-diagonal heat residual:",
      heat_residuals(p2, lab2, z2, [(0, 1)])[0].item())
