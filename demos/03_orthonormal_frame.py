"""The L2 geometry of sections: the theta frame is orthonormal.

Inner products are grid quadratures of the weighted integrand
s1 conj(s2) exp(-2 pi k y.Yy); the normalization sqrt(2^n k^n det Y) turns
the frame Gram matrix into the identity at every Siegel point.
"""

import numpy as np

from thetaquant import SiegelPoint, SectionVector, gram_matrix, l2_inner
from thetaquant.sections import (
    QuadratureGrid,
    cocycle_residual,
    integrand_periodicity_residual,
    lattice_weight_identity,
    required_grid_size,
)

np.set_printoptions(precision=3, suppress=True)

p = SiegelPoint(0.5 + 0.7j)
k = 4

# The bandwidth rule sizes the grid from the theta truncation radius.
N = required_grid_size(p, k)
print(f"bandwidth rule at k={k}: N >= {N}")

G = gram_matrix(p, k, QuadratureGrid(N))
print("Gram matrix deviation from identity:", np.max(np.abs(G - np.eye(k))))

# Refinement stability: doubling N changes nothing at working precision.
G2 = gram_matrix(p, k, QuadratureGrid(2 * N))
print("N vs 2N difference:", np.max(np.abs(G - G2)))

# Individual inner products, normalized and not.
e0, e1 = (SectionVector(k, 1, np.eye(k)[i]) for i in (0, 1))
grid = QuadratureGrid(N)
print("(theta_0, theta_0)_norm =", l2_inner(p, e0, e0, grid))
print("(theta_0, theta_1)_norm =", l2_inner(p, e0, e1, grid))
print("(theta_0, theta_0) raw  =", l2_inner(p, e0, e0, grid, normalized=False))

# The integrand is certified 1-periodic before integration: this is what
# makes the unit-cell quadrature meaningful.
print("periodicity certificate:", integrand_periodicity_residual(p, e0, e1))

# The fibre metric satisfies the lattice functional equation, and the
# multipliers the cocycle rule.
z = 0.2 + 0.3j
print("weight identity (x-shift):", lattice_weight_identity(p, z, 0))
print("weight identity (Z-shift):", lattice_weight_identity(p, z, 1))
print("multiplier cocycle:", cocycle_residual(p, z, 0, 1))

# Dimension two, diagonal modulus.
p2 = SiegelPoint(np.diag([1j, 2j]))
G = gram_matrix(p2, 2, QuadratureGrid(required_grid_size(p2, 2)))
print("\nn=2 Gram deviation:", np.max(np.abs(G - np.eye(4))))
