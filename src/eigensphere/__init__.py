"""Exact verification of complex eigenfunctions on spheres and minimality
checks for the submanifolds their level sets cut out.

The exact layer (polynomials over Gaussian rationals, symbolic calculus,
eigenfunction certificates) never touches floating point; the numeric layer
(variety sampling, curvature, search) never feeds back into exact verdicts
without an explicit rationalize-and-reverify step.
"""

from .calculus import (
    euler,
    gradient,
    hess_grad_grad,
    hessian,
    identity_one_check,
    kappa,
    laplacian,
    partial,
    r2_coprime,
)
from .eigen import (
    EigenReport,
    FamilyReport,
    verify_eigenfamily,
    verify_eigenfunction,
)
from .errors import EigenSphereError
from .geometry import (
    CurvatureSample,
    PointCloud,
    VarietySpec,
    add_stereo,
    export_cloud,
    mean_curvature,
    newton_project,
    read_cloud,
    sample,
    stereographic,
)
from .minimality import (
    ConformalityReport,
    LawsonSurface,
    LawsonType,
    MinimalityVerdict,
    check_minimal_codim1,
    check_minimal_codim2,
    classify_lawson,
    conformality_diagnostics,
    flat_section_residuals,
    lawson_polynomial,
    lawson_surface,
    line_pullback,
)
from .parsing import parse, render
from .polynomial import GaussianRational, Polynomial, r_squared
from .search import SearchResult, rationalize_and_verify, search_eigen

__version__ = "0.1.0"

__all__ = [
    "ConformalityReport",
    "CurvatureSample",
    "EigenReport",
    "EigenSphereError",
    "FamilyReport",
    "GaussianRational",
    "LawsonSurface",
    "LawsonType",
    "MinimalityVerdict",
    "PointCloud",
    "Polynomial",
    "SearchResult",
    "VarietySpec",
    "add_stereo",
    "check_minimal_codim1",
    "check_minimal_codim2",
    "classify_lawson",
    "conformality_diagnostics",
    "euler",
    "export_cloud",
    "flat_section_residuals",
    "gradient",
    "hess_grad_grad",
    "hessian",
    "identity_one_check",
    "kappa",
    "laplacian",
    "lawson_polynomial",
    "lawson_surface",
    "line_pullback",
    "mean_curvature",
    "newton_project",
    "parse",
    "partial",
    "r2_coprime",
    "r_squared",
    "rationalize_and_verify",
    "read_cloud",
    "render",
    "sample",
    "search_eigen",
    "stereographic",
    "verify_eigenfamily",
    "verify_eigenfunction",
]
