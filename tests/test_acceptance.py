"""Acceptance suite: one test per shipped guarantee.

Every check is exact, so there are no tolerances to tune; where a guarantee
carries a wall-clock budget the elapsed time is asserted too.  Each test ends
by printing a single verdict line, so running with ``-s`` (or reading captured
output) shows the whole matrix at a glance.
"""

import hashlib
import importlib
import random
import time
from fractions import Fraction

from helpers import (
    TRIANGLE_BASIS_SHA256,
    count_zero_reductions,
    divided_power_oracle,
    partial_derivative,
    reference_interpolation_coefficients,
)
from prolong.algebra import (
    dring_algebra,
    dual_numbers,
    product_algebra,
    truncated_algebra,
)
from prolong.groebner import groebner, ideal_equal, ideal_member, rank
from prolong.interpolation import (
    check_surjectivity,
    fiber_matrices_at,
    interpolation_map,
)
from prolong.jets import jet_scheme, z_name
from prolong.laws import composite_triangle, quotient_square, restriction_square
from prolong.operators import (
    OperatorFamily,
    RingOperator,
    check_dring_law,
    check_hasse_axioms,
    compose_operators,
    standard_operator,
)
from prolong.polynomials import (
    Monomial,
    RingContext,
    exponents_up_to,
    hasse_derivative,
    parse_poly,
    poly_to_str,
    random_poly,
    substitute,
    transport,
)
from prolong.prolongations import (
    nabla,
    prolong,
    prolong_composed,
    prolong_morphism,
)
from prolong.scalars import QQ
from prolong.weil import AffineScheme, PolyMorphism, SchemePoint

PLAIN = RingContext(QQ)
BASE = RingContext(QQ, base_gens=("t",))

DUAL = dual_numbers()
TRUNC2 = truncated_algebra(1, 2)
TRUNC3 = truncated_algebra(1, 3)
PROD2 = product_algebra(2)

TRUNCATED_RANK_LE_4 = [
    truncated_algebra(1, 1),
    truncated_algebra(1, 2),
    truncated_algebra(1, 3),
    truncated_algebra(2, 1),
    truncated_algebra(3, 1),
]


def verdict(num: int, label: str, detail: str) -> None:
    print(f"criterion {num:02d} {label}: PASS [{detail}]")


def scheme_over_t(variables, gens):
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=tuple(variables))
    return AffineScheme(ctx, [parse_poly(g, ctx) for g in gens])


def plain_scheme(variables, gens=()):
    ctx = RingContext(QQ, scheme_vars=tuple(variables))
    return AffineScheme(ctx, [parse_poly(g, ctx) for g in gens])


def dual_ddt():
    return RingOperator(
        DUAL, BASE, {"t": DUAL.element(BASE, [BASE.var("t"), BASE.one()])}
    )


def taylor_trunc2():
    return RingOperator(
        TRUNC2,
        BASE,
        {"t": TRUNC2.element(BASE, [BASE.var("t"), BASE.one(), BASE.zero()])},
    )


def sigma_product():
    t = BASE.var("t")
    return RingOperator(PROD2, BASE, {"t": PROD2.element(BASE, [t, t * t - t])})


def formula_systems():
    """Criterion 01's five seeded systems over QQ[t], each as the prolonged
    generators along d/dt and the generators the formula predicts."""
    op = dual_ddt()
    for seed in range(5):
        rng = random.Random(400 + seed)
        names = ("x", "y", "z")[: rng.randrange(1, 4)]
        ctx = RingContext(QQ, base_gens=("t",), scheme_vars=names)
        gens = [
            random_poly(ctx, rng, max_degree=3, max_terms=4)
            for _ in range(rng.randrange(1, 3))
        ]
        scheme = AffineScheme(ctx, gens)
        tau = prolong(scheme, op)
        rename = {v: f"{v}_0" for v in names}
        expected = []
        for p in gens:
            expected.append(transport(p, tau.ctx, rename=rename))
            slope = tau.ctx.zero()
            for v in names:
                d = hasse_derivative(p, Monomial(((ctx.var_index(v), 1),)))
                slope = slope + transport(d, tau.ctx, rename=rename) * tau.ctx.var(
                    f"{v}_1"
                )
            dt = hasse_derivative(p, Monomial(((ctx.var_index("t"), 1),)))
            expected.append(slope + transport(dt, tau.ctx, rename=rename))
        yield list(tau.scheme.generators), expected


def quotient_squares():
    """Both ways round criterion 08's square along truncated(1,2) -> dual
    numbers on the parabola, at orders 1 and 2."""
    e = standard_operator(DUAL, PLAIN)
    trunc = standard_operator(TRUNC2, PLAIN)
    alpha = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]
    parabola = plain_scheme(("x", "y"), ["y - x^2"])
    for m in (1, 2):
        jetx = jet_scheme(parabola, m)
        imap_e = interpolation_map(parabola, m, trunc, jet=jetx)
        imap_f = interpolation_map(parabola, m, e, jet=jetx)
        yield quotient_square(alpha, imap_e, imap_f)


def composite_triangles():
    """Criterion 08's triangles over dual (x) product(2): the line at order
    2 and the parabola at order 1, each as the scheme, the order, the
    iterated map and the nonzero differences from the composite map."""
    e = standard_operator(DUAL, PLAIN)
    f = standard_operator(PROD2, PLAIN)
    line, parabola = plain_scheme(("x",)), plain_scheme(("x", "y"), ["y - x^2"])
    for scheme, m in ((line, 2), (parabola, 1)):
        _, ef = compose_operators(e, f)
        imap_ef = interpolation_map(scheme, m, ef)
        imap_e = interpolation_map(scheme, m, e)
        imap_f = interpolation_map(
            imap_e.prolongation.scheme, m, f, jet=imap_e.source
        )
        assert imap_ef.source.z_variables == imap_f.source.z_variables
        yield scheme, m, *composite_triangle(imap_ef, imap_e, imap_f)


def test_criterion_01_differential_prolongation_formula():
    started = time.monotonic()
    for prolonged, expected in formula_systems():
        assert ideal_equal(prolonged, expected)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    verdict(
        1,
        "differential prolongation formula",
        f"5 random systems over QQ[t], ideal equality, {elapsed:.2f}s of 10s",
    )


def test_criterion_02_difference_prolongation_splits_into_blocks():
    op = sigma_product()
    cases = [
        (("x",), ["x^2 - t"]),
        (("x", "y"), ["x^2 + y^2 - t"]),
        (("x", "y"), ["y - x^2"]),
    ]
    for variables, gens in cases:
        scheme = scheme_over_t(variables, gens)
        tau = prolong(scheme, op)
        blocks = []
        for p in scheme.generators:
            blocks.append(
                transport(p, tau.ctx, rename={v: f"{v}_0" for v in variables})
            )
            # the second idempotent sits at coordinate x_0 + x_1 and carries
            # the endomorphism-twisted equation
            twisted = {"t": tau.ctx.var("t") ** 2}
            for v in variables:
                twisted[v] = tau.ctx.var(f"{v}_0") + tau.ctx.var(f"{v}_1")
            blocks.append(substitute(p, twisted, tau.ctx))
        assert ideal_equal(list(tau.scheme.generators), blocks)
    verdict(
        2,
        "difference prolongation block ideal",
        f"{len(cases)} schemes split as the plain and twisted blocks",
    )


def test_criterion_03_first_arc_space_is_the_tangent_space():
    cases = [
        (("x", "y"), "x^2 + y^2 - 1"),
        (("x", "y"), "x^3 - y"),
        (("x", "y"), "x*y - 1"),
        (("x", "y", "w"), "x^2 + y^2 + w^2 - 1"),
    ]
    for variables, text in cases:
        scheme = plain_scheme(variables, [text])
        p = scheme.generators[0]
        arc = prolong(scheme, standard_operator(DUAL, PLAIN))
        rename = {v: f"{v}_0" for v in variables}
        slope = arc.ctx.zero()
        for v in variables:
            d = partial_derivative(p, scheme.ctx.var_index(v))
            slope = slope + transport(d, arc.ctx, rename=rename) * arc.ctx.var(
                f"{v}_1"
            )
        assert list(arc.scheme.generators) == [
            transport(p, arc.ctx, rename=rename),
            slope,
        ]
        jet = jet_scheme(scheme, 1)
        tangent = jet.ctx.zero()
        for alpha in jet.indices:
            d = divided_power_oracle(p, Monomial((i, e) for i, e in enumerate(alpha)))
            tangent = tangent + transport(d, jet.ctx) * jet.ctx.var(z_name(alpha))
        assert list(jet.scheme.generators) == [transport(p, jet.ctx), tangent]
    verdict(
        3,
        "first arc space is the tangent space",
        f"{len(cases)} smooth hypersurfaces, syntactic generators",
    )


def test_criterion_04_composite_operators_match_iterated_prolongations():
    started = time.monotonic()
    curve = scheme_over_t(("x",), ["x^2 - t"])
    for e, f in ((dual_ddt(), dual_ddt()), (sigma_product(), dual_ddt())):
        composed = prolong_composed(curve, e, f)
        iterated = prolong(prolong(curve, e).scheme, f)
        renamed = [
            transport(g, iterated.ctx, rename=dict(composed.renaming))
            for g in composed.scheme.generators
        ]
        assert ideal_equal(renamed, list(iterated.scheme.generators))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    verdict(
        4,
        "composite operator prolongations",
        f"dual over dual and product over dual, ideal equality, {elapsed:.2f}s of 30s",
    )


def test_criterion_05_nabla_naturality_and_composition():
    line = scheme_over_t(("u",), [])
    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    cubic = scheme_over_t(("x", "y", "w"), ["y - x^2", "w - x^3"])
    u = line.ctx.var("u")
    embed2 = PolyMorphism(line, parabola, {"x": u, "y": u * u})
    embed3 = PolyMorphism(line, cubic, {"x": u, "y": u * u, "w": u * u * u})
    checked = 0

    fixtures = [(embed2, dual_ddt()), (embed3, taylor_trunc2()), (embed2, sigma_product())]
    for index, (g, op) in enumerate(fixtures):
        pro_src = prolong(g.source, op)
        pro_tgt = prolong(g.target, op)
        tau_g = prolong_morphism(g, op, source_result=pro_src, target_result=pro_tgt)
        rng = random.Random(500 + index)
        for _ in range(100):
            value = random_poly(
                line.ctx, rng, max_degree=2, max_terms=3, names=("t",), allow_zero=True
            )
            s = SchemePoint(g.source, {"u": value})
            left = tau_g.apply_to_point(nabla(g.source, op, s, result=pro_src))
            right = nabla(g.target, op, g.apply_to_point(s), result=pro_tgt)
            assert left.assignment == right.assignment
            checked += 1

    # the embedding is not special: random self-drawn morphisms into the
    # ambient plane satisfy the same square
    plane = scheme_over_t(("x", "y"), [])
    ddt = dual_ddt()
    pro_line = prolong(line, ddt)
    pro_plane = prolong(plane, ddt)
    rng = random.Random(510)
    for _ in range(100):
        h = PolyMorphism(
            line,
            plane,
            {
                "x": random_poly(line.ctx, rng, max_degree=2, max_terms=3, allow_zero=True),
                "y": random_poly(line.ctx, rng, max_degree=2, max_terms=3, allow_zero=True),
            },
        )
        tau_h = prolong_morphism(h, ddt, source_result=pro_line, target_result=pro_plane)
        value = random_poly(
            line.ctx, rng, max_degree=2, max_terms=3, names=("t",), allow_zero=True
        )
        s = SchemePoint(line, {"u": value})
        left = tau_h.apply_to_point(nabla(line, ddt, s, result=pro_line))
        right = nabla(plane, ddt, h.apply_to_point(s), result=pro_plane)
        assert left.assignment == right.assignment
        checked += 1

    pairs = [(dual_ddt(), dual_ddt()), (sigma_product(), dual_ddt())]
    for index, (e, f) in enumerate(pairs):
        composed = prolong_composed(parabola, e, f)
        step = prolong(parabola, e)
        iterated = prolong(step.scheme, f)
        rng = random.Random(520 + index)
        for _ in range(100):
            value = random_poly(
                parabola.ctx, rng, max_degree=2, max_terms=3, names=("t",), allow_zero=True
            )
            p = SchemePoint(parabola, {"x": value, "y": value * value})
            direct = nabla(parabola, composed.operator, p, result=composed)
            nested = nabla(
                step.scheme, f, nabla(parabola, e, p, result=step), result=iterated
            )
            for name, val in direct.assignment.items():
                assert (
                    transport(val, iterated.ctx)
                    == nested.assignment[composed.renaming[name]]
                )
            checked += 1

    assert checked == 600
    verdict(
        5,
        "nabla naturality and composition",
        "600 seeded point checks across 6 fixtures, all residuals zero",
    )


def test_criterion_06_jet_equations_match_the_divided_power_oracle():
    for seed in range(5):
        rng = random.Random(600 + seed)
        names = ("x", "y", "z")[: rng.randrange(1, 4)]
        ctx = RingContext(QQ, scheme_vars=names)
        gens = [
            random_poly(ctx, rng, max_degree=3, max_terms=4)
            for _ in range(rng.randrange(1, 3))
        ]
        scheme = AffineScheme(ctx, gens)
        order = rng.randrange(1, 4)
        jet = jet_scheme(scheme, order)
        expected = [transport(p, jet.ctx) for p in gens]
        for p in gens:
            acc = jet.ctx.zero()
            for alpha in jet.indices:
                d = divided_power_oracle(
                    p, Monomial((i, e) for i, e in enumerate(alpha))
                )
                acc = acc + transport(d, jet.ctx) * jet.ctx.var(z_name(alpha))
            expected.append(acc)
        assert list(jet.scheme.generators) == expected
    verdict(
        6,
        "jet equations",
        "5 random ideals vs the iterated-derivative oracle, syntactic",
    )


def test_criterion_07_interpolation_surjective_at_smooth_points():
    started = time.monotonic()
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    chart = plain_scheme(("x", "y", "w"), ["y - x^2", "w - x^3"])
    sphere = plain_scheme(("x", "y", "w"), ["x^2 + y^2 + w^2 - 1"])

    def on_conic(rng):
        s = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        return {"x": (1 - s * s) / (1 + s * s), "y": 2 * s / (1 + s * s)}

    def on_chart(rng):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        return {"x": a, "y": a * a, "w": a * a * a}

    def on_sphere(rng):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        d = 1 + a * a + b * b
        return {"x": 2 * a / d, "y": 2 * b / d, "w": (1 - a * a - b * b) / d}

    combos = 0
    for scheme, sample, dim in (
        (conic, on_conic, 1),
        (chart, on_chart, 1),
        (sphere, on_sphere, 2),
    ):
        for algebra in (dual_numbers(), truncated_algebra(1, 2)):
            operator = standard_operator(algebra, PLAIN)
            for m in (1, 2):
                imap = interpolation_map(scheme, m, operator)
                rng = random.Random(700 + combos)
                for _ in range(10):
                    report = check_surjectivity(
                        scheme, m, operator, sample(rng), dim, interpolation=imap
                    )
                    assert report.status == "pass"
                    assert report.image_rank == report.target_kernel
                combos += 1
    elapsed = time.monotonic() - started
    assert combos == 12
    assert elapsed < 120.0
    verdict(
        7,
        "interpolation surjectivity at smooth points",
        f"12 scheme/algebra/order combos, 10 seeded points each, {elapsed:.2f}s of 120s",
    )


def test_criterion_08_interpolation_diagrams_commute():
    checked = []
    # square against a closed embedding
    line = plain_scheme(("s",))
    curve = plain_scheme(("u", "v"), ["v - u^2"])
    g = PolyMorphism(
        line, curve, {"u": line.ctx.var("s"), "v": line.ctx.var("s") ** 2}
    )
    e = standard_operator(DUAL, PLAIN)
    for m in (1, 2):
        imap_x = interpolation_map(line, m, e)
        imap_y = interpolation_map(curve, m, e)
        left, right = restriction_square(g, imap_x, imap_y)
        assert left.equals_mod_ideal(right)
        checked.append(f"morphism m={m}")

    # triangle over a composite operator, tensor rank 4
    for scheme, m, composite, deltas in composite_triangles():
        if deltas:
            assert scheme.generators
            gb = groebner(list(composite.source.generators))
            assert all(ideal_member(delta, gb) for _, delta in deltas)
        checked.append(f"triangle m={m}")

    # square against a truncation quotient
    for m, (left, right) in enumerate(quotient_squares(), 1):
        assert left.equals_mod_ideal(right)
        checked.append(f"quotient m={m}")

    assert len(checked) == 6
    verdict(
        8,
        "interpolation diagrams",
        "morphism, triangle, and quotient squares commute mod the ideal, m <= 2",
    )


def test_span_certificates_settle_criteria_01_and_08_without_groebner(monkeypatch):
    # every prolongation formula and both quotient squares are K-linear
    # identities, so no Groebner basis is built for them
    calls = []
    module = importlib.import_module("prolong.groebner")
    original = module.groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "groebner", counted)
    for prolonged, expected in formula_systems():
        assert ideal_equal(prolonged, expected)
    for left, right in quotient_squares():
        assert left.equals_mod_ideal(right)
    assert calls == []


def test_the_triangle_basis_is_pinned_and_no_division_ends_in_zero(monkeypatch):
    parabola = list(composite_triangles())[-1][2].source
    gens = list(parabola.generators)
    assert (len(gens), parabola.ctx.nvars) == (8, 16)
    outcomes = count_zero_reductions(monkeypatch)
    basis = groebner(gens).gens
    assert outcomes and not any(outcomes)
    text = "\n".join(poly_to_str(g) for g in basis)
    assert len(basis) == 56
    assert hashlib.sha256(text.encode()).hexdigest() == TRIANGLE_BASIS_SHA256


def test_criterion_09_coefficient_laws_and_affine_surjectivity():
    laws = 0
    for algebra in TRUNCATED_RANK_LE_4:
        assert algebra.rank <= 4
        for r in (1, 2):
            for beta in exponents_up_to(r, 3):
                hat = tuple(
                    x for b in beta for x in (b,) + (0,) * (algebra.rank - 1)
                )
                seen = set()
                for flat, vec in reference_interpolation_coefficients(algebra, beta):
                    seen.add(flat)
                    if flat == hat:
                        assert vec[0] == 1
                        assert all(c == 0 for c in vec[1:])
                    else:
                        assert vec[0] == 0
                assert hat in seen
                laws += 1

    spaces = 0
    for r, m in ((1, 3), (2, 3)):
        space = plain_scheme(("x", "y")[:r])
        origin = {v: Fraction(0) for v in space.ctx.scheme_vars}
        for algebra in TRUNCATED_RANK_LE_4:
            operator = standard_operator(algebra, PLAIN)
            imap = interpolation_map(space, m, operator)
            m_src, m_tgt, phi = fiber_matrices_at(
                space, m, operator, origin, interpolation=imap
            )
            assert m_src.matrix.nrows == 0
            assert m_tgt.matrix.nrows == 0
            assert rank(phi) == phi.nrows
            report = check_surjectivity(space, m, operator, origin, r, interpolation=imap)
            assert report.status == "pass"
            assert report.target_kernel == len(imap.jet.indices) * algebra.rank
            spaces += 1
    verdict(
        9,
        "coefficient laws and affine surjectivity",
        f"{laws} unit-slot law instances, {spaces} ambient-space fiber maps onto",
    )


def test_criterion_10_operator_law_checkers_with_witnesses():
    taylor3 = RingOperator(
        TRUNC3,
        BASE,
        {
            "t": TRUNC3.element(
                BASE, [BASE.var("t"), BASE.one(), BASE.zero(), BASE.zero()]
            )
        },
    )
    family = OperatorFamily(taylor3).maps
    good = check_hasse_axioms(family, BASE, trials=200, seed=9)
    assert good.ok
    assert good.trials == 200
    assert good.witness is None

    t1 = Monomial(((BASE.var_index("t"), 1),))

    def first_derivative(p):
        return hasse_derivative(p, t1)

    # slot two should be the divided square of the derivative, not the
    # derivative again
    broken = [lambda p: p, first_derivative, first_derivative]
    bad = check_hasse_axioms(broken, BASE, trials=200, seed=9)
    assert not bad.ok
    assert bad.witness["law"] == "convolution"
    assert {"index", "x", "y", "left", "right"} <= set(bad.witness)

    dalg = dring_algebra(Fraction(1))
    dop = RingOperator(
        dalg, BASE, {"t": dalg.element(BASE, [BASE.var("t"), BASE.one()])}
    )
    delta = OperatorFamily(dop).maps[1]
    good_d = check_dring_law(delta, Fraction(1), BASE, trials=200, seed=9)
    assert good_d.ok
    assert good_d.trials == 200

    t2 = Monomial(((BASE.var_index("t"), 2),))

    def divided_square(p):
        return hasse_derivative(p, t2)

    bad_d = check_dring_law(divided_square, Fraction(1), BASE, trials=200, seed=9)
    assert not bad_d.ok
    assert bad_d.witness["law"] == "twisted-leibniz"
    assert {"x", "y", "left", "right"} <= set(bad_d.witness)
    verdict(
        10,
        "operator law checkers",
        "constructed families pass, corrupted ones fail with witnesses, 200 trials",
    )
