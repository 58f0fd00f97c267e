"""Prolongation spaces, the induced maps on points and morphisms, comparison
maps between different operators, and composite prolongations over tensor
algebras.  A prolongation, the Weil restriction of a scheme's base change
along a ring operator, is built around one ring map: x_i -> sum_j x_i_j e_j
on the variables, t -> e(t) on the base; generators, morphism coordinates
and point values are each expanded once through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import (
    AlgebraElement,
    AlgebraScheme,
    _fractionize,
    evaluate_in_algebra,
)
from .operators import RingOperator, compose_operators
from .polynomials import MultiPoly, RingContext, transport
from .weil import AffineScheme, PolyMorphism, SchemePoint, claimed, generic_point


@dataclass(frozen=True)
class Prolongation:
    """A prolongation space together with the data that produced it.

    ``substitution`` is the full ring map into the algebra over the new ring:
    x_i -> sum_j x_i_j e_j on the original variables, whose slots are the new
    coordinates, and t -> e(t) on the base generators.  On the variables it
    is also the pullback of the canonical map back to the original scheme.
    """

    scheme: AffineScheme
    source: AffineScheme
    algebra: AlgebraScheme
    operator: RingOperator
    substitution: Mapping[str, AlgebraElement]

    @property
    def ctx(self) -> RingContext:
        return self.scheme.ctx

    @property
    def made_from(self) -> tuple:
        return self.source, self.operator

    def expand(self, poly: MultiPoly) -> AlgebraElement:
        """A polynomial over the source, or a base-ring value, through the
        ring map ``substitution``."""
        return evaluate_in_algebra(poly, self.substitution, self.algebra, self.ctx)


@dataclass(frozen=True)
class ComposedProlongation(Prolongation):
    """Prolongation along a tensor algebra with the composite operator.

    ``renaming`` sends each variable here to the name it carries in the
    iterated prolongation (first along the left factor, then the right),
    under which the two generator ideals agree.
    """

    renaming: Mapping[str, str]


def prolong(scheme: AffineScheme, operator: RingOperator) -> Prolongation:
    """Restrict the operator base change of the scheme back to the base.

    The operator's images of the base generators, transported once, join
    the generic point; each generator's expansion through that ring map has
    the new generators as slots.  For an ambient space with r variables and
    an algebra of rank l the result lives in r*l variables.
    """
    if scheme.is_algebra_mode:
        raise ValueError("prolongation starts from a plain-mode scheme")
    base = operator.ctx
    if base.base_gens != scheme.ctx.base_gens or base.field != scheme.ctx.field:
        raise ValueError("operator is defined over a different base ring")
    ctx, substitution = generic_point(scheme, operator.algebra)
    for g, value in operator.images.items():
        slots = tuple(transport(s, ctx) for s in value.slots)
        substitution[g] = AlgebraElement(operator.algebra, ctx, slots)
    generators = [
        s
        for gen in scheme.generators
        for s in evaluate_in_algebra(gen, substitution, operator.algebra, ctx).slots
    ]
    restricted = AffineScheme(ctx, generators)
    return Prolongation(restricted, scheme, operator.algebra, operator, substitution)


def _slotwise(values) -> dict:
    """The coordinates ``<name>_<j>``, from slot j of each ``(name, slots)``."""
    return {
        f"{name}_{j}": slot for name, slots in values for j, slot in enumerate(slots)
    }


def nabla(
    scheme: AffineScheme,
    operator: RingOperator,
    point,
    result: Prolongation | None = None,
) -> SchemePoint:
    """The canonical point of the prolongation over a point of the scheme.

    Every coordinate value is expanded through the prolongation's ring map
    and its slots become the new coordinates.  Validation that the image
    satisfies the prolongation ideal is inherited from point construction,
    so membership is a checked fact rather than an assumption.
    """
    result = claimed(result, prolong, scheme, operator)
    point = scheme.point(point)
    assignment = _slotwise(
        (name, result.expand(point.assignment[name]).slots) for name in scheme.variables
    )
    return SchemePoint(result.scheme, assignment)


def prolong_morphism(
    morphism: PolyMorphism,
    operator: RingOperator,
    source_result: Prolongation | None = None,
    target_result: Prolongation | None = None,
) -> PolyMorphism:
    """The induced morphism between prolongations.

    Each coordinate polynomial of the morphism is expanded through the
    source prolongation's ring map; slot components give the new coordinate
    map.
    """
    source_result = claimed(source_result, prolong, morphism.source, operator)
    target_result = claimed(target_result, prolong, morphism.target, operator)
    assignment = _slotwise(
        (name, source_result.expand(morphism.assignment[name]).slots)
        for name in morphism.target.variables
    )
    return PolyMorphism(source_result.scheme, target_result.scheme, assignment)


def _mapped(rows: list[list[Fraction]], slots, ctx: RingContext) -> list[MultiPoly]:
    """A slot vector of polynomials through the algebra map ``rows``: slot
    j' of the image sums rows[j'][j] * slots[j] over the nonzero entries."""
    scaled = ctx.field.from_fraction
    return [
        sum((s.scale(scaled(c)) for c, s in zip(row, slots) if c), ctx.zero())
        for row in rows
    ]


class AlgebraMapError(ValueError):
    """A matrix is not a unital algebra map intertwining two operators."""


def validate_algebra_map(
    matrix, e: RingOperator, f: RingOperator
) -> list[list[Fraction]]:
    """Check that a rational matrix is a unital algebra morphism intertwining
    the two operators; returns the fraction-normalized matrix.

    The matrix acts on basis columns: column j is the image of the j-th
    source basis vector in target coordinates.
    """
    ea, fa = e.algebra, f.algebra
    rows = [[_fractionize(v) for v in row] for row in matrix]
    if len(rows) != fa.rank or any(len(row) != ea.rank for row in rows):
        raise AlgebraMapError(f"matrix must be {fa.rank}x{ea.rank} for these algebras")
    if e.ctx != f.ctx:
        raise AlgebraMapError("operators live over different base rings")
    unit = [rows[jp][0] for jp in range(fa.rank)]
    expected_unit = [Fraction(1)] + [Fraction(0)] * (fa.rank - 1)
    if unit != expected_unit:
        raise AlgebraMapError(f"unit is not preserved: image of e_0 is {unit}")
    columns = [[rows[jp][j] for jp in range(fa.rank)] for j in range(ea.rank)]
    images = [[(k, c) for k, c in enumerate(column) if c] for column in columns]
    for i in range(ea.rank):
        for j in range(ea.rank):
            left = [
                sum((c * columns[k][jp] for k, c in ea.terms[i][j]), Fraction(0))
                for jp in range(fa.rank)
            ]
            right = [Fraction(0)] * fa.rank
            for m, d in images[j]:
                for n, v in fa._times(images[i], m).items():
                    right[n] += d * v
            if left != right:
                raise AlgebraMapError(
                    f"not multiplicative at (e_{i}, e_{j}): "
                    f"image of product is {left}, product of images is {right}"
                )
    for g in e.ctx.base_gens:
        mapped = _mapped(rows, e.images[g].slots, e.ctx)
        for jp, (combo, want) in enumerate(zip(mapped, f.images[g].slots)):
            if combo != want:
                raise AlgebraMapError(
                    f"operators are not intertwined at generator {g!r}, "
                    f"slot {jp}: mapped image is {combo}, expected {want}"
                )
    return rows


def compare_map(
    scheme: AffineScheme,
    alpha,
    e: RingOperator,
    f: RingOperator,
    source_result: Prolongation | None = None,
    target_result: Prolongation | None = None,
) -> PolyMorphism:
    """The comparison morphism between prolongations along an algebra map.

    ``alpha`` is a rational matrix with one row per target basis vector and
    one column per source basis vector; it must preserve the unit, be
    multiplicative, and carry the first operator to the second.  The induced
    coordinate map is linear slotwise: z_i_j' pulls back to the alpha-weighted
    combination of the y_i_j.
    """
    rows = validate_algebra_map(alpha, e, f)
    source_result = claimed(source_result, prolong, scheme, e)
    target_result = claimed(target_result, prolong, scheme, f)
    ctx, rank = source_result.ctx, e.algebra.rank
    assignment = _slotwise(
        (name, _mapped(rows, [ctx.var(f"{name}_{j}") for j in range(rank)], ctx))
        for name in scheme.variables
    )
    return PolyMorphism(source_result.scheme, target_result.scheme, assignment)


def composed_renaming(
    scheme: AffineScheme, e: RingOperator, f: RingOperator
) -> dict[str, str]:
    """The renaming x_{j*lf+j'} -> x_j_j' of the scheme's variables, from
    the prolongation along the tensor of e's and f's algebras to the
    iterated one (first along e, then f): the flat tensor slot becomes the
    nested slot pair."""
    lf = f.algebra.rank
    return {
        f"{name}_{j * lf + jp}": f"{name}_{j}_{jp}"
        for name in scheme.variables
        for j in range(e.algebra.rank)
        for jp in range(lf)
    }


def prolong_composed(
    scheme: AffineScheme, e: RingOperator, f: RingOperator
) -> ComposedProlongation:
    """Prolongation along the tensor of two operators' algebras; its ideal
    matches the iterated prolongation under :func:`composed_renaming`."""
    _, ef = compose_operators(e, f)
    renaming = composed_renaming(scheme, e, f)
    base = vars(prolong(scheme, ef))
    return ComposedProlongation(**base, renaming=renaming)
