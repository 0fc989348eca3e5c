"""Automata for the coefficient sequences of algebraic power series over F_p.

A power series over a prime field is algebraic exactly when its
coefficient sequence is p-automatic (Christol); this package walks the
constructive direction of that equivalence.  Expand an algebraic branch,
close it under section operators, and read any coefficient off a finite
automaton fed the base-p digits of the index -- then go back: guess a
defining polynomial from the automatic sequence.
"""

from .algebraic_series import (
    BivariatePolynomial,
    BranchSpec,
    expand_branch,
    parse_bivariate,
    verify_annihilation,
)
from .algebraize import automatic_to_series, guess_polynomial
from .automaton import (
    Dfao,
    build_dfao,
    dfao_from_json,
    dfao_from_linear,
    dfao_to_json,
    export_dot,
    minimize,
    query,
    to_digits_lsd,
)
from .errors import (
    AmbiguousBranch,
    ChristolError,
    DegreeOutOfRange,
    DegreeOverflow,
    DimensionMismatch,
    MalformedNumber,
    ModulusMismatch,
    NoBranch,
    NoRelationFound,
    PolynomialSyntaxError,
    SchemaError,
    StateCapExceeded,
)
from .finite_field import ensure_prime
from .kernel import (
    ClosureConfig,
    KernelRepresentation,
    PathExpander,
    alpha_output,
    alpha_step,
    exact_representation,
    orbit_closure,
    recheck,
)
from .power_series import TruncatedSeries, parse_series
from .weeding import section, weed, weed_via_derivative

__version__ = "0.1.0"

__all__ = [
    "AmbiguousBranch",
    "BivariatePolynomial",
    "BranchSpec",
    "ChristolError",
    "ClosureConfig",
    "DegreeOutOfRange",
    "DegreeOverflow",
    "Dfao",
    "DimensionMismatch",
    "KernelRepresentation",
    "MalformedNumber",
    "ModulusMismatch",
    "NoBranch",
    "NoRelationFound",
    "PathExpander",
    "PolynomialSyntaxError",
    "SchemaError",
    "StateCapExceeded",
    "TruncatedSeries",
    "alpha_output",
    "alpha_step",
    "automatic_to_series",
    "build_dfao",
    "dfao_from_json",
    "dfao_from_linear",
    "dfao_to_json",
    "ensure_prime",
    "exact_representation",
    "expand_branch",
    "export_dot",
    "guess_polynomial",
    "minimize",
    "orbit_closure",
    "parse_bivariate",
    "parse_series",
    "query",
    "recheck",
    "section",
    "to_digits_lsd",
    "verify_annihilation",
    "weed",
    "weed_via_derivative",
]
