"""Affine schemes, their points, and Weil restriction of scalars.

A scheme is a ring context plus a generating set for its ideal.  Two
coefficient modes exist: plain (generators are polynomials over the base)
and algebra-valued (generators are elements of E(k)[y], stored slotwise as
:class:`AlgebraElement` values whose slots are polynomials in the scheme
variables and the base generators).

Weil restriction substitutes the generic point y_i = sum_j y_ij e_j
(:func:`generic_point`) into every generator, expands through the structure
constants, and collects basis components.  Output variables and generators
are ordered input-major, slot-minor, and all rank-many components are kept
(zeros included) so downstream constructions can index components
positionally.  Prolongations use the same generic point.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import AlgebraElement, AlgebraScheme, evaluator, trivial_algebra
from .groebner import first_nonmember
from .polynomials import MultiPoly, RingContext, poly_to_str, substitute, transport


class PointError(ValueError):
    """A coordinate assignment that does not satisfy the scheme's ideal."""

    def __init__(self, residuals: list):
        index, residual = residuals[0]
        super().__init__(
            f"not a point: generator {index} leaves residual {render_value(residual)}"
        )
        self.residuals = residuals


class NotScalarPointError(ValueError):
    """A point coordinate, or a fiber or Jacobian entry at a point, that still
    depends on the base ring where a scalar is needed; specialize the base
    first."""


def render_value(value) -> str:
    """A polynomial, or an algebra element as its tuple of slots, printed."""
    if isinstance(value, MultiPoly):
        return poly_to_str(value)
    return "(" + ", ".join(poly_to_str(s) for s in value.slots) + ")"


def claimed(given, build, *made_from):
    """``build(*made_from)``, or the object the caller already holds, which
    must have been built from exactly these inputs (its ``made_from``)."""
    if given is None:
        return build(*made_from)
    if given.made_from != made_from:
        raise ValueError(f"{type(given).__name__} was built from different data")
    return given


class AffineScheme:
    """Affine scheme of finite type presented by ideal generators."""

    __slots__ = ("ctx", "generators", "algebra")

    def __init__(
        self,
        ctx: RingContext,
        generators: Sequence,
        algebra: AlgebraScheme | None = None,
    ):
        generators = tuple(generators)
        if algebra is None:
            for g in generators:
                if not isinstance(g, MultiPoly) or g.ctx != ctx:
                    raise ValueError("plain-mode generators must share the context")
        else:
            for g in generators:
                if not isinstance(g, AlgebraElement) or g.algebra != algebra:
                    raise ValueError(
                        "algebra-mode generators must be elements of the algebra"
                    )
                if g.ctx != ctx:
                    raise ValueError("generators must share the context")
        self.ctx = ctx
        self.generators = generators
        self.algebra = algebra

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ctx.scheme_vars

    @property
    def is_algebra_mode(self) -> bool:
        return self.algebra is not None

    def point(self, assignment) -> "SchemePoint":
        """The point at ``assignment``, which, if a point already, must lie here."""
        if not isinstance(assignment, SchemePoint):
            return SchemePoint(self, assignment)
        if assignment.scheme is not self:
            raise ValueError("point lies on a different scheme")
        return assignment

    def __repr__(self) -> str:
        mode = f" over {self.algebra.name}" if self.algebra else ""
        return (
            f"AffineScheme(vars={list(self.variables)},"
            f" gens={len(self.generators)}{mode})"
        )


def _base_only(scheme: AffineScheme, poly: MultiPoly) -> bool:
    return all(scheme.ctx.is_base_index(i) for i in poly.variables())


class SchemePoint:
    """Validated point: scheme variables assigned base-ring values.

    Values are polynomials in the base generators (plain mode) or algebra
    elements with such slots (algebra mode), so parametrized families count
    as points; validation demands exactly zero residuals as polynomials.
    """

    __slots__ = ("scheme", "assignment")

    def __init__(self, scheme: AffineScheme, assignment: Mapping):
        ctx = scheme.ctx
        values = {}
        for name in scheme.variables:
            if name not in assignment:
                raise ValueError(f"missing coordinate {name!r}")
            values[name] = _coerce_value(scheme, assignment[name])
        extra = set(assignment) - set(scheme.variables)
        if extra:
            raise ValueError(f"unknown coordinates {sorted(extra)}")
        if scheme.is_algebra_mode:
            images = _evaluate_generators(scheme, values, ctx)
        else:
            images = [substitute(gen, values, ctx) for gen in scheme.generators]
        residuals = [(i, v) for i, v in enumerate(images) if not v.is_zero()]
        if residuals:
            raise PointError(residuals)
        self.scheme = scheme
        self.assignment = values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchemePoint)
            and self.scheme is other.scheme
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={render_value(v)}" for k, v in sorted(self.assignment.items())
        )
        return f"<point {body}>"


def _coerce_value(scheme: AffineScheme, value):
    ctx = scheme.ctx
    if scheme.is_algebra_mode:
        if isinstance(value, AlgebraElement):
            if value.algebra != scheme.algebra:
                raise ValueError("coordinate value in the wrong algebra")
            slots = tuple(
                s if s.ctx == ctx else transport(s, ctx) for s in value.slots
            )
            value = AlgebraElement(scheme.algebra, ctx, slots)
        elif isinstance(value, (list, tuple)):
            value = scheme.algebra.element(ctx, value)
        else:
            raise ValueError(
                "a coordinate over the algebra must be an algebra element or a"
                f" list of {scheme.algebra.rank} slots, got {value}"
            )
        for s in value.slots:
            if not _base_only(scheme, s):
                raise ValueError("coordinate values must lie in the base ring")
        return value
    if not isinstance(value, MultiPoly):
        value = ctx.const(value)
    elif value.ctx != ctx:
        value = transport(value, ctx)
    if not _base_only(scheme, value):
        raise ValueError("coordinate values must lie in the base ring")
    return value


# -- Weil restriction -----------------------------------------------------------


def generic_point(
    scheme: AffineScheme, algebra: AlgebraScheme
) -> tuple[RingContext, dict[str, AlgebraElement]]:
    """The restriction context and the generic point y -> sum_j y_j e_j.

    The context keeps the base generators and has one variable "<y>_<j>" per
    scheme variable y and slot j, input-major; a name collision raises.
    """
    names = {y: [f"{y}_{j}" for j in range(algebra.rank)] for y in scheme.variables}
    flat = [n for slots in names.values() for n in slots]
    field, base = scheme.ctx.field, scheme.ctx.base_gens
    ctx = RingContext(field, base_gens=base, scheme_vars=flat)
    return ctx, {
        y: AlgebraElement(algebra, ctx, tuple(ctx.var(n) for n in slots))
        for y, slots in names.items()
    }


def _evaluate_generators(
    scheme: AffineScheme, values: Mapping[str, AlgebraElement], ctx: RingContext
) -> list[AlgebraElement]:
    """Every algebra-mode generator at the values: sum_j slot_j(values) e_j."""
    algebra, rank = scheme.algebra, scheme.algebra.rank
    base = {g: algebra.scalar(ctx, ctx.var(g)) for g in ctx.base_gens}
    evaluate = evaluator({**values, **base}, algebra, ctx)
    basis = [
        algebra.element(ctx, [int(k == j) for k in range(rank)]) for j in range(rank)
    ]
    zero = algebra.element(ctx, [0] * rank)
    return [
        sum((evaluate(s) * ej for s, ej in zip(gen.slots, basis)), zero)
        for gen in scheme.generators
    ]


def weil_restrict(scheme: AffineScheme, algebra: AlgebraScheme) -> AffineScheme:
    """Restriction of scalars along the standard inclusion.

    Each generator is evaluated at the generic point and its rank-many basis
    components are emitted in order.
    """
    if not scheme.is_algebra_mode:
        raise ValueError("mode mismatch: weil_restrict needs an algebra-mode scheme")
    if scheme.algebra != algebra:
        raise ValueError("scheme coefficients live in a different algebra")
    ctx, point = generic_point(scheme, algebra)
    values = _evaluate_generators(scheme, point, ctx)
    return AffineScheme(ctx, [s for value in values for s in value.slots])


# -- morphisms --------------------------------------------------------------------

_TRIVIAL = trivial_algebra()


def _evaluate(polys, assignment: Mapping[str, MultiPoly], ctx: RingContext) -> list:
    """The polynomials at the images, base generators kept, in the trivial algebra."""
    images = {**{g: ctx.var(g) for g in ctx.base_gens}, **assignment}
    trivial = {n: AlgebraElement(_TRIVIAL, ctx, (v,)) for n, v in images.items()}
    evaluate = evaluator(trivial, _TRIVIAL, ctx)
    return [evaluate(p).slots[0] for p in polys]


class PolyMorphism:
    """Polynomial map between plain affine schemes over one base ring.

    The assignment gives, per target variable, its pullback in the source
    coordinate ring.  Whether target generators pull back into the source
    ideal is checked on demand: a span certificate first, a Groebner run
    only when that fails.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: AffineScheme,
        target: AffineScheme,
        assignment: Mapping[str, MultiPoly],
    ):
        if source.is_algebra_mode or target.is_algebra_mode:
            raise ValueError("morphisms connect plain-mode schemes")
        if set(assignment) != set(target.variables):
            raise ValueError("assignment must cover exactly the target variables")
        if not set(target.ctx.base_gens) <= set(source.ctx.base_gens):
            raise ValueError("target base ring must map into the source base ring")
        values = {}
        for name, poly in assignment.items():
            if not isinstance(poly, MultiPoly):
                poly = source.ctx.const(poly)
            elif poly.ctx != source.ctx:
                poly = transport(poly, source.ctx)
            values[name] = poly
        self.source = source
        self.target = target
        self.assignment = values

    def pullback(self, poly: MultiPoly) -> MultiPoly:
        """Image of a target-ring polynomial in the source ring."""
        return _evaluate([poly], self.assignment, self.source.ctx)[0]

    def is_morphism(self) -> bool:
        pulled = _evaluate(self.target.generators, self.assignment, self.source.ctx)
        return first_nonmember(pulled, self.source.generators) is None

    def apply_to_point(self, point: SchemePoint) -> SchemePoint:
        if point.scheme is not self.source and point.scheme.ctx != self.source.ctx:
            raise ValueError("point does not lie on the source scheme")
        images = _evaluate(self.assignment.values(), point.assignment, self.source.ctx)
        values = [transport(v, self.target.ctx) for v in images]
        return SchemePoint(self.target, dict(zip(self.assignment, values)))

    def compose(self, inner: "PolyMorphism") -> "PolyMorphism":
        """self after inner: for inner: X -> Y and self: Y -> Z, the result
        maps X -> Z."""
        if inner.target.ctx != self.source.ctx:
            raise ValueError("composition mismatch: inner target is not the source")
        images = _evaluate(self.assignment.values(), inner.assignment, inner.source.ctx)
        assignment = dict(zip(self.assignment, images))
        return PolyMorphism(inner.source, self.target, assignment)

    @staticmethod
    def identity(scheme: AffineScheme) -> "PolyMorphism":
        return PolyMorphism(
            scheme, scheme, {v: scheme.ctx.var(v) for v in scheme.variables}
        )

    def equals_mod_ideal(self, other: "PolyMorphism") -> bool:
        """Coordinate-wise agreement modulo the source ideal."""
        if self.source.ctx != other.source.ctx or self.target.ctx != other.target.ctx:
            return False
        deltas = [
            self.assignment[name] - other.assignment[name]
            for name in self.target.variables
        ]
        return first_nonmember(deltas, self.source.generators) is None

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k} -> {poly_to_str(v)}" for k, v in sorted(self.assignment.items())
        )
        return f"PolyMorphism({body})"
