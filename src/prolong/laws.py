"""The laws ``prolong check`` verifies, one function per suite.

A law ``law(fx, rng, trials)`` checks one fixture, drawing its random
inputs from the seeded ``rng``.  When the fixture satisfies it, the law
returns ``(checks, extra)``: the number of checks that held and the extra
fields of the fixture's pass entry.  The first violation raises
:class:`LawViolation` with its witness; a fixture the law cannot be checked
on raises :class:`NotApplicable` with the reason; a Groebner run that hits
its pair cap raises :class:`~prolong.groebner.EngineLimitError`.

The interpolation diagrams are built over explicit objects by
:func:`restriction_square`, :func:`composite_triangle` and
:func:`quotient_square`, so tests can check them on schemes of their own.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fixtures import Fixture, fixture_points
from .groebner import first_nonmember, ideal_equal
from .interpolation import InterpolationMap, check_surjectivity, interpolation_map
from .jets import jet_morphism, jet_scheme
from .operators import (
    OperatorFamily,
    check_dring_law,
    check_hasse_axioms,
    compose_operators,
)
from .polynomials import parse_poly, poly_to_str, random_poly, transport
from .prolongations import (
    AlgebraMapError,
    compare_map,
    composed_renaming,
    nabla,
    prolong,
    prolong_composed,
    prolong_morphism,
    validate_algebra_map,
)
from .weil import (
    AffineScheme,
    NotScalarPointError,
    PointError,
    PolyMorphism,
    SchemePoint,
)

# Tensor ranks above this are skipped by the composition law and the
# interpolation diagrams' triangle.  With the span certificate in front of
# Groebner the composition suite passes on every shipped fixture without it
# (about 0.7 s with the cap at 100); the cap stays only because
# perfbench/expected.json pins the reports with its skips, so deleting it
# waits on a benchmark change (ROADMAP item 1).
COMPOSED_RANK_CAP = 4


class LawViolation(Exception):
    """The first counterexample to a law; ``witness`` says where it fails."""

    def __init__(self, witness: dict):
        super().__init__(witness["law"])
        self.witness = witness


class NotApplicable(Exception):
    """The fixture lacks what the law needs; the message says what."""


def assignment_strings(value) -> dict:
    """The printed assignment, by name, of a point, a morphism or an
    interpolation map."""
    return {k: poly_to_str(v) for k, v in sorted(value.assignment.items())}


def _first_difference(left: PolyMorphism, right: PolyMorphism):
    """First coordinate where the two maps disagree syntactically, if any."""
    for name in sorted(left.assignment):
        if left.assignment[name] != right.assignment[name]:
            return name
    return None


def _random_self_map(space: AffineScheme, rng: random.Random) -> PolyMorphism:
    assignment = {
        v: random_poly(space.ctx, rng, max_degree=2, max_terms=3, allow_zero=True)
        for v in space.variables
    }
    return PolyMorphism(space, space, assignment)


def _sample_space_point(space: AffineScheme, rng: random.Random) -> SchemePoint:
    values = {
        v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in space.variables
    }
    return SchemePoint(space, values)


# ------------------------------------------------------------------- laws


def functor_laws(fx: Fixture, rng: random.Random, trials: int):
    """Prolongation and first jets send identities to identities and
    composites with random self-maps to composites."""
    g, e = fx.morphism, fx.operator
    space, target = g.source, g.target
    # each lift: the induced-morphism function, its operator or order, and
    # the lifted space and target, its source_result and target_result
    lifts = {
        "prolongation": (prolong_morphism, e, prolong(space, e), prolong(target, e)),
        "jet": (jet_morphism, 1, jet_scheme(space, 1), jet_scheme(target, 1)),
    }
    identity = PolyMorphism.identity(space)
    for label, (lift, by, over_space, _) in lifts.items():
        lifted = lift(identity, by, over_space, over_space)
        bad = _first_difference(lifted, PolyMorphism.identity(lifted.source))
        if bad is not None:
            raise LawViolation(
                {
                    "law": f"{label} of the identity",
                    "variable": bad,
                    "value": poly_to_str(lifted.assignment[bad]),
                }
            )
    lifted_g = {label: lift(g, *rest) for label, (lift, *rest) in lifts.items()}
    for trial in range(trials):
        h = _random_self_map(space, rng)
        composed = g.compose(h)
        for label, (lift, by, over_space, over_target) in lifts.items():
            lhs = lift(composed, by, over_space, over_target)
            rhs = lifted_g[label].compose(lift(h, by, over_space, over_space))
            bad = _first_difference(lhs, rhs)
            if bad is not None:
                raise LawViolation(
                    {
                        "law": f"{label} of a composite",
                        "trial": trial,
                        "inner_map": assignment_strings(h),
                        "variable": bad,
                        "lhs": poly_to_str(lhs.assignment[bad]),
                        "rhs": poly_to_str(rhs.assignment[bad]),
                    }
                )
    return 2 + 2 * trials, {}


def nabla_naturality(fx: Fixture, rng: random.Random, trials: int):
    """The prolonged morphism carries nabla(s) to nabla(g(s)) at random points."""
    g, e = fx.morphism, fx.operator
    pro_space = prolong(g.source, e)
    pro_target = prolong(g.target, e)
    tau_g = prolong_morphism(g, e, source_result=pro_space, target_result=pro_target)
    for trial in range(trials):
        s = _sample_space_point(g.source, rng)
        try:
            lhs = tau_g.apply_to_point(nabla(g.source, e, s, result=pro_space))
            rhs = nabla(g.target, e, g.apply_to_point(s), result=pro_target)
        except PointError as err:
            raise LawViolation(
                {
                    "law": "naturality",
                    "trial": trial,
                    "point": assignment_strings(s),
                    "residual": str(err),
                }
            ) from err
        if lhs.assignment != rhs.assignment:
            delta = {
                k: poly_to_str(lhs.assignment[k] - rhs.assignment[k])
                for k in lhs.assignment
                if lhs.assignment[k] != rhs.assignment[k]
            }
            raise LawViolation(
                {
                    "law": "naturality",
                    "trial": trial,
                    "point": assignment_strings(s),
                    "residuals": delta,
                }
            )
    return trials, {}


def composition(fx: Fixture, rng: random.Random, trials: int):
    """Prolonging along the composite operator gives the iterated
    prolongation, as ideals and through nabla at the fixture's points."""
    e, f = fx.operator, fx.second_operator
    combined = e.algebra.rank * f.algebra.rank
    if combined > COMPOSED_RANK_CAP:
        raise NotApplicable(f"tensor rank {combined} exceeds the suite cap")
    composed = prolong_composed(fx.scheme, e, f)
    step = prolong(fx.scheme, e)
    iterated = prolong(step.scheme, f)
    renamed = [
        transport(g, iterated.ctx, rename=dict(composed.renaming))
        for g in composed.scheme.generators
    ]
    if not ideal_equal(renamed, iterated.scheme.generators):
        raise LawViolation(
            {
                "law": "composed ideal equals the iterated ideal",
                "composed": [poly_to_str(g) for g in composed.scheme.generators],
                "iterated": [poly_to_str(g) for g in iterated.scheme.generators],
            }
        )
    points = fixture_points(fx, rng, trials)
    for p in points:
        direct = nabla(fx.scheme, composed.operator, p, result=composed)
        nested = nabla(
            step.scheme, f, nabla(fx.scheme, e, p, result=step), result=iterated
        )
        for name, value in direct.assignment.items():
            other = nested.assignment[composed.renaming[name]]
            if transport(value, iterated.ctx) != other:
                raise LawViolation(
                    {
                        "law": "nabla of the composite operator",
                        "point": assignment_strings(p),
                        "variable": name,
                        "composed": poly_to_str(value),
                        "iterated": poly_to_str(other),
                    }
                )
    return 1 + len(points), {"points": len(points)}


def _algebra_map(alpha, e, f) -> None:
    """Raise a violation unless ``alpha`` is an algebra map from e to f."""
    try:
        validate_algebra_map(alpha, e, f)
    except AlgebraMapError as err:
        witness = {"law": "algebra map validation", "reason": str(err)}
        raise LawViolation(witness) from err


def comparison(fx: Fixture, rng: random.Random, trials: int):
    """alpha is an algebra map between the operators, its comparison map is
    a morphism, and it carries nabla along e to nabla along f."""
    e, f = fx.operator, fx.second_operator
    _algebra_map(fx.alpha, e, f)
    pro_e = prolong(fx.scheme, e)
    pro_f = prolong(fx.scheme, f)
    hat = compare_map(
        fx.scheme, fx.alpha, e, f, source_result=pro_e, target_result=pro_f
    )
    if not hat.is_morphism():
        raise LawViolation(
            {
                "law": "comparison map lands in the target ideal",
                "assignment": assignment_strings(hat),
            }
        )
    points = fixture_points(fx, rng, trials)
    for p in points:
        lhs = hat.apply_to_point(nabla(fx.scheme, e, p, result=pro_e))
        rhs = nabla(fx.scheme, f, p, result=pro_f)
        if lhs.assignment != rhs.assignment:
            raise LawViolation(
                {
                    "law": "alpha carries nabla to nabla",
                    "point": assignment_strings(p),
                    "lhs": assignment_strings(lhs),
                    "rhs": assignment_strings(rhs),
                }
            )
    return 1 + len(points), {"points": len(points)}


def hasse_axioms(fx: Fixture, rng: random.Random, trials: int):
    """The operator's slot maps satisfy the fixture's law tag ("hasse" or
    "dring") exactly when the fixture expects them to."""
    family = OperatorFamily(fx.operator)
    ctx, algebra = fx.operator.ctx, fx.operator.algebra
    if fx.law == "hasse":
        result = check_hasse_axioms(family.maps, ctx, trials=trials, seed=rng)
    elif fx.law == "dring":
        square = dict(algebra.terms[1][1]) if algebra.rank == 2 else None
        if square is None or 0 in square:
            raise NotApplicable(
                f"the dring law needs a rank-2 algebra with e_1*e_1 = c*e_1,"
                f" not {algebra.name}"
            )
        c = square.get(1, Fraction(0))
        result = check_dring_law(family.maps[1], c, ctx, trials=trials, seed=rng)
    else:
        raise NotApplicable(f"unknown law tag {fx.law!r}")
    extra = {"law": fx.law, "expect": fx.expect}
    if result.witness is not None:
        extra["witness"] = result.witness
    if result.ok == (fx.expect == "pass"):
        return result.trials, extra
    if result.ok:
        extra["reason"] = "axioms passed but the fixture expects a failure"
    raise LawViolation(extra)


def restriction_square(
    g: PolyMorphism, imap_x: InterpolationMap, imap_y: InterpolationMap
):
    """Both ways round the square that restricts the interpolation maps
    along ``g: X -> Y``; ``imap_x`` and ``imap_y`` are the maps of X and Y
    for one operator and order.  Returns ``(left, right)``."""
    e, m = imap_x.operator, imap_x.order
    tau_g = prolong_morphism(
        g, e, source_result=imap_x.prolongation, target_result=imap_y.prolongation
    )
    jet_tau_g = jet_morphism(
        tau_g, m, source_jet=imap_x.source, target_jet=imap_y.source
    )
    jet_g = jet_morphism(g, m, source_jet=imap_x.jet, target_jet=imap_y.jet)
    tau_jet_g = prolong_morphism(
        jet_g, e, source_result=imap_x.target, target_result=imap_y.target
    )
    return imap_y.morphism.compose(jet_tau_g), tau_jet_g.compose(imap_x.morphism)


def composite_triangle(
    imap_ef: InterpolationMap, imap_e: InterpolationMap, imap_f: InterpolationMap
):
    """The interpolation map of a composite operator against the iterated
    one: ``imap_ef`` is along the composite of e and f, ``imap_e`` along e
    and ``imap_f`` along f over ``imap_e``'s prolongation with
    ``imap_e.source`` as its jet scheme, all of one order.

    Returns ``(composite, deltas)``: the iterated map, and the nonzero
    differences of the two maps as ``(variable, difference)`` pairs; the
    triangle commutes when each lies in the ideal of ``composite.source``.
    """
    e, f = imap_e.operator, imap_f.operator
    tau = prolong_morphism(imap_e.morphism, f, source_result=imap_f.target)
    composite = tau.compose(imap_f.morphism)
    source_rename = composed_renaming(imap_e.jet.source, e, f)
    target_rename = composed_renaming(imap_ef.jet.scheme, e, f)
    deltas = []
    for name, poly in imap_ef.assignment.items():
        lhs = transport(poly, composite.source.ctx, rename=source_rename)
        delta = lhs - composite.assignment[target_rename[name]]
        if not delta.is_zero():
            deltas.append((name, delta))
    return composite, deltas


def quotient_square(alpha, imap_e: InterpolationMap, imap_f: InterpolationMap):
    """Both ways round the square that compares the interpolation maps along
    the algebra map ``alpha`` from e's algebra to f's; ``imap_e`` and
    ``imap_f`` share one jet scheme.  Returns ``(left, right)``."""
    e, f, m = imap_e.operator, imap_f.operator, imap_e.order
    hat_x = compare_map(
        imap_e.jet.source,
        alpha,
        e,
        f,
        source_result=imap_e.prolongation,
        target_result=imap_f.prolongation,
    )
    jet_hat = jet_morphism(hat_x, m, source_jet=imap_e.source, target_jet=imap_f.source)
    hat_jet = compare_map(
        imap_e.jet.scheme,
        alpha,
        e,
        f,
        source_result=imap_e.target,
        target_result=imap_f.target,
    )
    return imap_f.morphism.compose(jet_hat), hat_jet.compose(imap_e.morphism)


def _square_commutes(law: str, order: int, left, right) -> None:
    if _first_difference(left, right) is not None and not left.equals_mod_ideal(
        right
    ):
        raise LawViolation(
            {
                "law": law,
                "order": order,
                "lhs": assignment_strings(left),
                "rhs": assignment_strings(right),
            }
        )


def interpolation_diagrams(fx: Fixture, rng: random.Random, trials: int):
    """The restriction square along the fixture's morphism, the composite
    triangle for its operator pair and the quotient square along its alpha
    commute modulo the ideal, at orders 1 and 2."""
    e, f = fx.operator, fx.second_operator
    triangle = f is not None and e.algebra.rank * f.algebra.rank <= COMPOSED_RANK_CAP
    quotient = fx.alpha is not None and f is not None
    if fx.morphism is None and not triangle and not quotient:
        raise NotApplicable("no morphism, composable pair, or alpha matrix")
    imaps = {m: interpolation_map(fx.scheme, m, e) for m in (1, 2)}
    checked = []
    if fx.morphism is not None:
        for m in (1, 2):
            imap_x = interpolation_map(fx.morphism.source, m, e)
            left, right = restriction_square(fx.morphism, imap_x, imaps[m])
            _square_commutes("restriction square", m, left, right)
            checked.append(f"morphism m={m}")
    if triangle:
        _, ef = compose_operators(e, f)
        for m in (1, 2) if not fx.scheme.generators else (1,):
            imap_ef = interpolation_map(fx.scheme, m, ef)
            pro = imaps[m].prolongation
            imap_f = interpolation_map(pro.scheme, m, f, jet=imaps[m].source)
            composite, deltas = composite_triangle(imap_ef, imaps[m], imap_f)
            miss = first_nonmember([d for _, d in deltas], composite.source.generators)
            if miss is not None:
                name, delta = deltas[miss]
                raise LawViolation(
                    {
                        "law": "composition triangle",
                        "order": m,
                        "variable": name,
                        "difference": poly_to_str(delta),
                    }
                )
            checked.append(f"triangle m={m}")
    if quotient:
        _algebra_map(fx.alpha, e, f)
        for m in (1, 2):
            imap_f = interpolation_map(fx.scheme, m, f, jet=imaps[m].jet)
            left, right = quotient_square(fx.alpha, imaps[m], imap_f)
            _square_commutes("comparison square", m, left, right)
            checked.append(f"quotient m={m}")
    return len(checked), {"parts": checked}


def surjectivity(fx: Fixture, rng: random.Random, trials: int):
    """The interpolation map is onto the target jet fiber at the fixture's
    smooth points, for each of its operators at orders 1 and 2; a fixture
    with no point left to check is not applicable."""
    if fx.family is None and not fx.points:
        raise NotApplicable("no points to test at")
    operators = [fx.operator]
    if fx.second_operator is not None:
        operators.append(fx.second_operator)
    checks = skipped = 0
    for operator in operators:
        for m in (1, 2):
            imap = interpolation_map(fx.scheme, m, operator)
            for p in fixture_points(fx, rng, trials):
                try:
                    report = check_surjectivity(
                        fx.scheme, m, operator, p, fx.dim, interpolation=imap
                    )
                except NotScalarPointError:
                    # base-dependent coordinates have no scalar fiber
                    skipped += 1
                    continue
                if report.status == "fail":
                    raise LawViolation(
                        {
                            "law": "fiberwise surjectivity",
                            "algebra": operator.algebra.name,
                            "order": m,
                            "point": assignment_strings(p),
                            "reason": report.reason,
                        }
                    )
                if report.status == "skip":
                    skipped += 1
                else:
                    checks += 1
    if not checks:
        raise NotApplicable(f"no point checked, {skipped} skipped")
    return checks, {"skipped_points": skipped}


def roundtrip(fx: Fixture, rng: random.Random, trials: int):
    """Printing and parsing are inverse on the generators and on random
    polynomials of the fixture's ring."""
    ctx = fx.scheme.ctx
    for g in fx.scheme.generators:
        text = poly_to_str(g)
        if parse_poly(text, ctx) != g:
            raise LawViolation({"law": "parse after print", "polynomial": text})
    for trial in range(trials):
        poly = random_poly(ctx, rng, allow_zero=True)
        text = poly_to_str(poly)
        back = parse_poly(text, ctx)
        if back != poly or poly_to_str(back) != text:
            raise LawViolation(
                {
                    "law": "print after parse",
                    "trial": trial,
                    "polynomial": text,
                    "reprinted": poly_to_str(back),
                }
            )
    return len(fx.scheme.generators) + trials, {}
