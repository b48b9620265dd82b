"""Curve operators of abelian Chern-Simons theory and their pairings.

The phase space is the moduli of flat U(1)-connections on a genus-g surface,
a symplectic torus of dimension 2g; the holonomy function of a curve depends
only on its homology class (r, s) and equals the pure phase F_{r,s}.  The
operator assigned to a cylinder with an embedded curve is the Toeplitz
operator of the heat-flowed holonomy, i.e. the unitary shift-and-phase
matrix independent of the complex structure.  Hilbert-Schmidt pairings of
these operators recover the L2 pairing of holonomy functions as the level
grows.  The invariant of the mapping torus with the corresponding
two-component link is the same pairing scaled by k^g, tr(Z(c1) Z(c2)*); an
empty curve has the identity operator W_k(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierMode
from .toeplitz import WeylSymbol, rescaled_toeplitz

__all__ = [
    "CurveClass",
    "holonomy_mode",
    "curve_operator",
    "curve_pairing",
    "pairing_limit_experiment",
    "pairing_closed_form",
    "mapping_torus_invariant",
]


@dataclass(frozen=True)
class CurveClass:
    """Homology class of a curve: coefficients over (a_1..a_g, b_1..b_g)."""

    r: tuple
    s: tuple
    orientation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(x) for x in np.atleast_1d(self.r)))
        object.__setattr__(self, "s", tuple(int(x) for x in np.atleast_1d(self.s)))
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @classmethod
    def a_cycle(cls, g, i=0):
        r = tuple(1 if a == i else 0 for a in range(g))
        return cls(r, (0,) * g)

    @classmethod
    def b_cycle(cls, g, i=0):
        s = tuple(1 if a == i else 0 for a in range(g))
        return cls((0,) * g, s)

    @classmethod
    def empty(cls, g):
        return cls((0,) * g, (0,) * g)

    def reversed(self):
        return CurveClass(self.r, self.s, -self.orientation)


def holonomy_mode(c):
    """Fourier mode of the holonomy phase; orientation reversal negates it."""
    m = FourierMode(c.r, c.s)
    return m if c.orientation == 1 else -m


def curve_operator(p, k, c):
    """Level-k operator of a curve: the heat-rescaled holonomy operator.

    Unitary, independent of the Siegel point; the heat flow is evaluated at
    parameter 1/k.
    """
    return rescaled_toeplitz(p, k, holonomy_mode(c))


def curve_pairing(p, k, c1, c2):
    """k^{-g} tr(Z(c1) Z(c2)*): approaches the L2 pairing of holonomies.

    Evaluated as the pairing of the two curve symbols W_k(m), so no
    k^g x k^g matrix is formed.
    """
    A = WeylSymbol(k, p, {holonomy_mode(c1): 1.0})
    B = WeylSymbol(k, p, {holonomy_mode(c2): 1.0})
    return complex(k ** (-p.n) * A.pair(B))


def mapping_torus_invariant(p, k, c1=None, c2=None):
    """Invariant of Sigma x S^1 with the link c1 u reversed(c2) inside.

    Defined by the gluing rule as tr(Z(c1) Z(c2)*) = k^g curve_pairing; a
    missing curve is the empty class, whose operator is the identity, so
    with both curves empty this is the quantum dimension k^g.
    """
    g = p.n
    c1 = c1 if c1 is not None else CurveClass.empty(g)
    c2 = c2 if c2 is not None else CurveClass.empty(g)
    return complex(k**g * curve_pairing(p, k, c1, c2))


def pairing_limit_experiment(p, f, g, k_values):
    """Scaled Hilbert-Schmidt pairings of T_f, T_g against the L2 value.

    Rows carry the measured k^{-n} tr(T_f T_g*), the Parseval value
    sum lambda mu-bar, and their distance; the distance decays like 1/k.
    """
    parseval = 0.0 + 0.0j
    for m, c in f.terms.items():
        parseval += c * np.conj(g.terms.get(m, 0.0))
    rows = []
    for k in k_values:
        k = int(k)
        value = pairing_closed_form(p, k, f, g)
        rows.append(
            {
                "k": k,
                "value": complex(value),
                "parseval": complex(parseval),
                "error": abs(value - parseval),
            }
        )
    return rows


def pairing_closed_form(p, k, f, g):
    """k^{-n} tr(T_f T_g*) as the pairing of the two Toeplitz symbols."""
    Tf = WeylSymbol.toeplitz(p, k, f)
    Tg = WeylSymbol.toeplitz(p, k, g)
    return complex(Tf.pair(Tg) / k**p.n)
