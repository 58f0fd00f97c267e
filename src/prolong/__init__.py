"""Exact prolongation spaces, jets, and Weil restriction for affine schemes.

Everything runs over exact scalars (rationals or small prime fields), so the
identities verified here are theorems about the inputs, not numerics.  The
usual entry points:

* :func:`weil_restrict` pushes a scheme over a finite algebra down to the
  base, coordinate by coordinate.
* :func:`prolong` and :func:`nabla` build the prolongation of a scheme along
  a ring operator and evaluate its canonical point lift.
* :func:`jet_scheme` and :func:`jet_fiber` give jet spaces and their linear
  fibers at a point.
* :func:`interpolation_map` connects the two: the coordinate-level map from
  prolongations into jets, with surjectivity diagnostics at smooth points.

The :mod:`prolong.cli` module exposes the same constructions as a batch
command line tool driven by JSON fixtures.
"""

from .scalars import GF, Field
from .polynomials import (
    Monomial,
    MultiPoly,
    ParseError,
    RingContext,
    UnknownIdentifierError,
    hasse_derivative,
    parse_poly,
    poly_to_str,
    random_poly,
    substitute,
    transport,
)
from .groebner import (
    EngineLimitError,
    ExactMatrix,
    GroebnerBasis,
    groebner,
    ideal_equal,
    ideal_member,
    normal_form,
)
from .algebra import (
    AlgebraElement,
    AlgebraScheme,
    AlgebraValidationError,
    dring_algebra,
    dual_numbers,
    make_builtin,
    product_algebra,
    tensor,
    trivial_algebra,
    truncated_algebra,
)
from .operators import (
    CheckResult,
    OperatorFamily,
    RingOperator,
    check_dring_law,
    check_hasse_axioms,
    compose_operators,
    standard_operator,
)
from .weil import (
    AffineScheme,
    NotScalarPointError,
    PointError,
    PolyMorphism,
    SchemePoint,
    weil_restrict,
)
from .prolongations import (
    ComposedProlongation,
    Prolongation,
    compare_map,
    nabla,
    prolong,
    prolong_composed,
    prolong_morphism,
    validate_algebra_map,
)
from .jets import JetScheme, LinearFiber, jet_fiber, jet_morphism, jet_scheme
from .interpolation import (
    InterpolationMap,
    SurjectivityReport,
    check_surjectivity,
    fiber_matrices_at,
    interpolation_map,
    jacobian_rank,
)
from .fixtures import Fixture, FixtureError, load_fixture, load_fixtures

__version__ = "0.1.0"

__all__ = [
    "AffineScheme",
    "AlgebraElement",
    "AlgebraScheme",
    "AlgebraValidationError",
    "CheckResult",
    "ComposedProlongation",
    "EngineLimitError",
    "ExactMatrix",
    "Field",
    "Fixture",
    "FixtureError",
    "GF",
    "GroebnerBasis",
    "InterpolationMap",
    "JetScheme",
    "LinearFiber",
    "Monomial",
    "MultiPoly",
    "NotScalarPointError",
    "OperatorFamily",
    "ParseError",
    "PointError",
    "PolyMorphism",
    "Prolongation",
    "RingContext",
    "RingOperator",
    "SchemePoint",
    "SurjectivityReport",
    "UnknownIdentifierError",
    "check_dring_law",
    "check_hasse_axioms",
    "check_surjectivity",
    "compare_map",
    "compose_operators",
    "dring_algebra",
    "dual_numbers",
    "fiber_matrices_at",
    "groebner",
    "hasse_derivative",
    "ideal_equal",
    "ideal_member",
    "interpolation_map",
    "jacobian_rank",
    "jet_fiber",
    "jet_morphism",
    "jet_scheme",
    "load_fixture",
    "load_fixtures",
    "make_builtin",
    "nabla",
    "normal_form",
    "parse_poly",
    "poly_to_str",
    "product_algebra",
    "prolong",
    "prolong_composed",
    "prolong_morphism",
    "random_poly",
    "standard_operator",
    "substitute",
    "tensor",
    "transport",
    "trivial_algebra",
    "truncated_algebra",
    "validate_algebra_map",
    "weil_restrict",
]
