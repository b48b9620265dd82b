"""Toeplitz operators in the theta frame.

Closed-form matrices against the quadrature oracle, the Gaussian damping
eta, operator norms converging to sup |f|, and the pair-trace formula.
"""

import numpy as np

from thetaquant import (
    FourierFunction,
    SiegelPoint,
    bms_experiment,
    eta,
    hs_inner,
    operator_norm,
    toeplitz_function,
    toeplitz_mode_closed_form,
    trace_pair_closed_form,
)
from thetaquant.sections import QuadratureGrid, required_grid_size
from thetaquant.toeplitz import toeplitz_modes_quadrature

np.set_printoptions(precision=4, suppress=True)

p = SiegelPoint(1j)

# The mode operator at level 2: a single shifted diagonal, entries of
# modulus eta.
A = toeplitz_mode_closed_form(p, 2, ((1,), (0,)))
print("T_{F_(1,0)} at k=2, Z=i:")
print(A.entries)
print("eta_2(1,0) =", eta(p, 2, ((1,), (0,))), "= e^{-pi/4} =", np.exp(-np.pi / 4))

# The independent route: grid sums of theta_a conj(theta_b) F_m, with the
# x-sum done exactly by the orthogonality of the grid characters.
grid = QuadratureGrid(required_grid_size(p, 2, 1))
(B,) = toeplitz_modes_quadrature(p, 2, [((1,), (0,))], grid).values()
print("closed form vs quadrature:", np.max(np.abs(A.entries - B.entries)))

# Operators of real symbols are Hermitian; the operator of 2 cos(2 pi x).
f = FourierFunction({((1,), (0,)): 1.0, ((-1,), (0,)): 1.0})
T = toeplitz_function(p, 4, f)
print("\nT_{2cos} Hermitian defect:", np.max(np.abs(T.entries - T.entries.conj().T)))
print("norm:", operator_norm(T), " sup |f| = 2")

# Norms approach the sup at rate 1/k.
print("\nlevel    norm          error      ratio")
rows = bms_experiment(p, f, (8, 16, 32, 64, 128))
prev = None
for r in rows:
    ratio = "" if prev is None else f"{r['error'] / prev:.3f}"
    print(f"{r['k']:>5}  {r['norm']:.8f}  {r['error']:.3e}  {ratio}")
    prev = r["error"]

# Pair traces: k^n eta eta sign under congruence mod k, zero otherwise.
print("\ntr(T_(1,0) T_(1,0)*) at k=2:", trace_pair_closed_form(p, 2, ((1,), (0,)), ((1,), (0,))))
print("direct:", hs_inner(toeplitz_mode_closed_form(p, 2, ((1,), (0,))),
                          toeplitz_mode_closed_form(p, 2, ((1,), (0,)))))
print("tr(T_(1,0) T_(0,1)*) at k=2:", trace_pair_closed_form(p, 2, ((1,), (0,)), ((0,), (1,))))
