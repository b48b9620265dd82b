"""Quantization of symplectic tori through theta frames and Toeplitz operators."""

__version__ = "0.1.0"

from .fourier import FourierFunction, FourierMode, fourier_eval, poisson_bracket
from .siegel import (
    InvalidPointError,
    NonNormalError,
    SiegelPoint,
    TangentDirection,
    complex_structure,
    dI_dZ,
    gtilde_coefficients,
    laplace_eigenvalue,
)
from .theta import (
    Derivative,
    ThetaLabel,
    TruncationError,
    TruncationPolicy,
    quasi_periodicity_residual,
    theta_basis,
    theta_eval,
    truncation_radius,
)
from .sections import (
    GridError,
    QuadratureGrid,
    SectionVector,
    gram_matrix,
    l2_inner,
    lattice_weight_identity,
    section_eval,
)
from .toeplitz import (
    OperatorMatrix,
    WeylSymbol,
    bms_experiment,
    eta,
    hs_inner,
    operator_norm,
    product_expansion_fit,
    quadrature_deviation,
    rescaled_toeplitz,
    toeplitz_function,
    toeplitz_mode_closed_form,
    trace_pair_closed_form,
)
from .formal import (
    FormalFourierSeries,
    covariant_constancy_residual,
    formal_hitchin_residual,
    heat_transform,
    moyal_product,
    trivialized_star_compare,
)
from .tqft import (
    CurveClass,
    curve_operator,
    curve_pairing,
    holonomy_mode,
    mapping_torus_invariant,
    pairing_limit_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
