"""Finite-model toolkit for resolvent formulas of self-adjoint extensions.

The package builds a finite-dimensional stand-in for a symmetric operator
with equal deficiency indices: a Hermitian reference matrix restricted to a
(non-dense) domain, its deficiency subspaces, and the unitary parametrization
of all self-adjoint extensions.  On top of that it implements and
cross-checks the resolvent-difference operator P(z), Weyl-Titchmarsh
operators, the angle operator of an extension pair, Krein's resolvent
formula, the Herglotz positivity bound, and the fractional-linear laws
relating the M-operators of two extensions.  A closed-form half-line
Laplacian instance with a quadrature cross-check lives in `halfline`, the
records of the check report in `checks`, and a scenario-driven CLI in `cli`.
"""

from .errors import (
    BadDimensions,
    BranchCut,
    GridTooCoarse,
    KreinKitError,
    NotAnExtension,
    NotHermitian,
    NotInvariant,
    NotRelativelyPrime,
    NotUnitary,
    NumericalFailure,
    RankDeficientInput,
    RealParameter,
    SingularDenominator,
    SingularMatrix,
    SpectralParameter,
    UnitEigenvalue,
)
from .extension import (
    Extension,
    ExtensionParameter,
    RestrictionModel,
    build_model,
    extension_from_parameter,
    parameter_of,
    restricted_cayley_product,
)
from .halfline import (
    HalflineScenario,
    QuadratureGrid,
    dirichlet_resolvent_quadrature,
    p12_halfline,
    quadrature_roundtrip,
    sqrt_upper,
    verify_halfline,
)
from .krein import (
    AngleOperator,
    PSample,
    PairContext,
    angle_operator,
    herglotz_lower_bound,
    krein_resolvent_frame,
    lft_m1_to_m2,
    lft_m1_to_m2_angle,
    weyl_operator,
)
from .numerics import (
    SpectralDecomposition,
    Subspace,
    hermitian_eig,
    inverse,
    projector,
    unitary_eig,
)

__version__ = "0.1.0"

__all__ = [
    "AngleOperator",
    "BadDimensions",
    "BranchCut",
    "Extension",
    "ExtensionParameter",
    "GridTooCoarse",
    "HalflineScenario",
    "KreinKitError",
    "NotAnExtension",
    "NotHermitian",
    "NotInvariant",
    "NotRelativelyPrime",
    "NotUnitary",
    "NumericalFailure",
    "PSample",
    "PairContext",
    "QuadratureGrid",
    "RankDeficientInput",
    "RealParameter",
    "RestrictionModel",
    "SingularDenominator",
    "SingularMatrix",
    "SpectralDecomposition",
    "SpectralParameter",
    "Subspace",
    "UnitEigenvalue",
    "angle_operator",
    "build_model",
    "dirichlet_resolvent_quadrature",
    "extension_from_parameter",
    "herglotz_lower_bound",
    "hermitian_eig",
    "inverse",
    "krein_resolvent_frame",
    "lft_m1_to_m2",
    "lft_m1_to_m2_angle",
    "p12_halfline",
    "parameter_of",
    "projector",
    "quadrature_roundtrip",
    "restricted_cayley_product",
    "sqrt_upper",
    "unitary_eig",
    "verify_halfline",
    "weyl_operator",
]
