import ast
import gc
import importlib
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolong.algebra import (
    dring_algebra,
    dual_numbers,
    evaluate_in_algebra,
    product_algebra,
    tensor,
    trivial_algebra,
    truncated_algebra,
)
from helpers import (
    reference_prolong,
    reference_prolong_morphism,
    solve_linear,
    swap_renaming,
)
from prolong.fixtures import load_fixtures
from prolong.groebner import ExactMatrix, ideal_equal, rank
from prolong.jets import jet_morphism, jet_scheme
from prolong.operators import (
    OperatorFamily,
    RingOperator,
    compose_operators,
    standard_operator,
)
from prolong.polynomials import (
    Monomial,
    MultiPoly,
    RingContext,
    hasse_derivative,
    parse_poly,
    random_poly,
    substitute,
    transport,
)
from prolong.prolongations import (
    compare_map,
    nabla,
    prolong,
    prolong_composed,
    prolong_morphism,
    validate_algebra_map,
)
from prolong.scalars import GF, QQ
from prolong.weil import (
    AffineScheme,
    PointError,
    PolyMorphism,
    SchemePoint,
)

DUAL = dual_numbers()
TRUNC2 = truncated_algebra(1, 2)
PROD2 = product_algebra(2)

BASE = RingContext(QQ, base_gens=("t",))


def scheme_over_t(variables, gens):
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=tuple(variables))
    return AffineScheme(ctx, [parse_poly(g, ctx) for g in gens])


def dual_ddt():
    return RingOperator(
        DUAL, BASE, {"t": DUAL.element(BASE, [BASE.var("t"), BASE.one()])}
    )


def taylor_trunc2():
    # t + h, the order-two truncated shift expansion
    return RingOperator(
        TRUNC2,
        BASE,
        {"t": TRUNC2.element(BASE, [BASE.var("t"), BASE.one(), BASE.zero()])},
    )


def sigma_product():
    # endomorphism slot sends t to t^2, stored unit-first as (t, t^2 - t)
    t = BASE.var("t")
    return RingOperator(PROD2, BASE, {"t": PROD2.element(BASE, [t, t * t - t])})


def test_prolong_dual_frozen_and_ambient():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    result = prolong(x2t, dual_ddt())
    assert result.scheme.variables == ("x_0", "x_1")
    assert [str(g) for g in result.scheme.generators] == [
        "x_0^2 - t",
        "2*x_0*x_1 - 1",
    ]
    assert [str(s) for s in result.substitution["x"].slots] == ["x_0", "x_1"]
    # the ring map also carries the base generator to its operator image
    assert [str(s) for s in result.substitution["t"].slots] == ["t", "1"]
    assert result.substitution["t"].ctx == result.ctx

    line = scheme_over_t(("x",), [])
    ambient = prolong(line, taylor_trunc2())
    assert ambient.scheme.variables == ("x_0", "x_1", "x_2")
    assert ambient.scheme.generators == ()


def test_prolong_trivial_algebra_is_renaming():
    circle = scheme_over_t(("x", "y"), ["x^2 + y^2 - t"])
    op = standard_operator(trivial_algebra(), BASE)
    result = prolong(circle, op)
    renamed = transport(
        circle.generators[0], result.ctx, rename={"x": "x_0", "y": "y_0"}
    )
    assert result.scheme.generators == (renamed,)


def test_prolong_input_guards():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    slots = [x2t.generators[0], x2t.ctx.const(-1)]
    changed = AffineScheme(x2t.ctx, [DUAL.element(x2t.ctx, slots)], algebra=DUAL)
    with pytest.raises(ValueError, match="plain-mode scheme"):
        prolong(changed, dual_ddt())

    other = RingContext(QQ, base_gens=("s",))
    bad = RingOperator(DUAL, other, {"s": DUAL.element(other, [other.var("s"), 1])})
    with pytest.raises(ValueError, match="different base ring"):
        prolong(x2t, bad)


# -- the one-step expansion against base change then Weil restriction ----------


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALGEBRAS = [
    truncated_algebra(1, 1),
    truncated_algebra(1, 2),
    product_algebra(2),
    product_algebra(3),
    dring_algebra(1),
    dring_algebra(Fraction(-3, 2)),
]


@st.composite
def coefficient_polys(draw, ctx, max_terms=3):
    """A random polynomial of degree at most 2 with nonzero coefficients."""
    monos = [
        Monomial(((i, 1), (j, 1)) if i != j else ((i, 2),))
        for i in range(ctx.nvars)
        for j in range(i, ctx.nvars)
    ] + [Monomial(((i, 1),)) for i in range(ctx.nvars)] + [Monomial()]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=max_terms, unique=True))
    coeff = st.integers(-4, 4).filter(bool)
    if ctx.field.is_rational:
        coeff = st.builds(Fraction, coeff, st.integers(1, 3))
    return MultiPoly(ctx, {m: ctx.field.coerce(draw(coeff)) for m in chosen})


@st.composite
def operators(draw, base):
    """An operator over the base: the derivation t -> (t, 1), or one of the
    algebras above with random images of the base generators."""
    if base.base_gens and draw(st.booleans()):
        return RingOperator(
            DUAL, base, {"t": DUAL.element(base, [base.var("t"), base.one()])}
        )
    algebra = draw(st.sampled_from(ALGEBRAS))
    images = {
        g: algebra.element(
            base, [draw(coefficient_polys(base)) for _ in range(algebra.rank)]
        )
        for g in base.base_gens
    }
    return RingOperator(algebra, base, images)


def assert_matches_reference(scheme, operator):
    result = prolong(scheme, operator)
    reference = reference_prolong(scheme, operator)
    assert result.ctx == reference.ctx
    assert result.scheme.generators == reference.generators


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.sampled_from([QQ, GF(7)]),
    st.sampled_from([(), ("t",)]),
    st.integers(1, 3),
)
def test_prolong_matches_reference_on_random_schemes(data, field, base_gens, nvars):
    base = RingContext(field, base_gens=base_gens)
    ctx = RingContext(field, base_gens=base_gens, scheme_vars=("x", "y", "z")[:nvars])
    gens = data.draw(st.lists(coefficient_polys(ctx), min_size=1, max_size=3))
    operator = data.draw(operators(base))
    if data.draw(st.booleans()):
        _, operator = compose_operators(operator, data.draw(operators(base)))
    assert_matches_reference(AffineScheme(ctx, gens), operator)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_prolong_matches_reference_on_fixtures_and_jets(order):
    checked = 0
    for fx in load_fixtures(FIXTURES):
        if fx.scheme.is_algebra_mode or fx.operator is None:
            continue
        scheme = fx.scheme if order == 0 else jet_scheme(fx.scheme, order).scheme
        ops = [fx.operator]
        if fx.second_operator is not None:
            ops.append(fx.second_operator)
            ops.append(compose_operators(fx.operator, fx.second_operator)[1])
        for operator in ops:
            assert_matches_reference(scheme, operator)
            checked += 1
    assert checked >= 10


# -- one ring map: the induced maps against the routes that rebuild it ---------


RING_MAP_ALGEBRAS = [
    truncated_algebra(1, 2),
    product_algebra(2),
    dring_algebra(0),
    dring_algebra(1),
    dring_algebra(Fraction(-3, 2)),
    tensor(DUAL, PROD2),
]


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.sampled_from([QQ, GF(7)]),
    st.sampled_from(RING_MAP_ALGEBRAS),
    st.integers(1, 2),
)
def test_the_ring_map_matches_the_per_call_routes(data, field, algebra, nvars):
    # prolong against base change then restriction, prolong_morphism against
    # transporting the operator's images per call, nabla against extend
    base = RingContext(field, base_gens=("t",))
    slots = [data.draw(coefficient_polys(base)) for _ in range(algebra.rank)]
    operator = RingOperator(algebra, base, {"t": algebra.element(base, slots)})
    names = ("x", "y")[:nvars]
    ctx = RingContext(field, base_gens=("t",), scheme_vars=names)
    values = {x: data.draw(coefficient_polys(base)) for x in names}
    on_point = {x: transport(v, ctx) for x, v in values.items()}
    polys = data.draw(st.lists(coefficient_polys(ctx), min_size=1, max_size=2))
    scheme = AffineScheme(ctx, [p - substitute(p, on_point, ctx) for p in polys])
    result = prolong(scheme, operator)
    reference = reference_prolong(scheme, operator)
    assert result.ctx == reference.ctx
    assert result.scheme.generators == reference.generators

    sctx = RingContext(field, base_gens=("t",), scheme_vars=("u", "v")[:nvars])
    source_gens = data.draw(st.lists(coefficient_polys(sctx), max_size=2))
    source = AffineScheme(sctx, source_gens)
    images = {x: data.draw(coefficient_polys(sctx)) for x in names}
    morphism = PolyMorphism(source, scheme, images)
    source_result = prolong(source, operator)
    induced = prolong_morphism(morphism, operator, source_result, result)
    expected = reference_prolong_morphism(morphism, operator, source_result, result)
    assert induced.assignment == expected.assignment

    image = nabla(scheme, operator, SchemePoint(scheme, values), result)
    for x in names:
        slots = [transport(s, result.ctx) for s in operator.extend(values[x]).slots]
        assert [image.assignment[f"{x}_{j}"] for j in range(algebra.rank)] == slots


def test_held_constructions_transport_only_whole_polynomials(monkeypatch):
    op = dual_ddt()
    parabola = scheme_over_t(("x", "y"), ["y - x^2", "t*y - t*x^2"])
    line = scheme_over_t(("s",), [])
    f = PolyMorphism(
        line, parabola, {"x": line.ctx.var("s"), "y": parse_poly("s^2", line.ctx)}
    )
    t = BASE.var("t")
    point = SchemePoint(parabola, {"x": t, "y": t * t})
    calls = []
    for name in ("prolongations", "jets", "weil"):
        module = importlib.import_module(f"prolong.{name}")

        def counting(poly, *args, real=module.transport, **kwargs):
            calls.append(poly)
            return real(poly, *args, **kwargs)

        monkeypatch.setattr(module, "transport", counting)
    # the operator's image of t moves into each prolongation once, per slot
    held, held_line = prolong(parabola, op), prolong(line, op)
    assert len(calls) == 2 * DUAL.rank
    calls.clear()
    nabla(parabola, op, point, held)
    prolong_morphism(f, op, held_line, held)
    assert calls == []
    jet, jet_line = jet_scheme(parabola, 2), jet_scheme(line, 2)
    assert calls == list(parabola.generators)
    calls.clear()
    jet_morphism(f, 2, jet_line, jet)
    assert calls == [f.assignment["x"], f.assignment["y"]]


def test_one_ring_map_and_no_operator_extension_in_nabla():
    # prolong, prolong_morphism and nabla expand through the prolongation's
    # ring map; no module keeps a second route that rebuilds it per call
    module = importlib.import_module("prolong.prolongations")
    for path in sorted(Path(module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert "expand_with_operator" not in defined, path.name
    tree = ast.parse(Path(module.__file__).read_text())
    body = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "nabla"
    )
    assert not any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "extend"
        for node in ast.walk(body)
    )


def test_tangent_space_of_smooth_hypersurfaces():
    plain = RingContext(QQ)
    for gen, expected in [
        ("x^2 + y^2 - 1", ["x_0^2 + y_0^2 - 1", "2*x_0*x_1 + 2*y_0*y_1"]),
        ("x^3 - y", ["x_0^3 - y_0", "3*x_0^2*x_1 - y_1"]),
    ]:
        ctx = RingContext(QQ, scheme_vars=("x", "y"))
        scheme = AffineScheme(ctx, [parse_poly(gen, ctx)])
        arc = prolong(scheme, standard_operator(DUAL, plain))
        assert sorted(str(g) for g in arc.scheme.generators) == sorted(expected)


def test_differential_prolongation_formula_random_systems():
    op = dual_ddt()
    for seed in range(5):
        rng = random.Random(seed)
        names = ("x", "y", "z")[: rng.randrange(1, 4)]
        ctx = RingContext(QQ, base_gens=("t",), scheme_vars=names)
        gens = [
            random_poly(ctx, rng, max_degree=3, max_terms=4)
            for _ in range(rng.randrange(1, 3))
        ]
        scheme = AffineScheme(ctx, gens)
        result = prolong(scheme, op)
        tau_ctx = result.ctx
        rename = {v: f"{v}_0" for v in names}
        expected = []
        for p in gens:
            expected.append(transport(p, tau_ctx, rename=rename))
            slope = tau_ctx.zero()
            for v in names:
                d = hasse_derivative(p, Monomial(((ctx.var_index(v), 1),)))
                slope = slope + transport(d, tau_ctx, rename=rename) * tau_ctx.var(
                    f"{v}_1"
                )
            dt = hasse_derivative(p, Monomial(((ctx.var_index("t"), 1),)))
            slope = slope + transport(dt, tau_ctx, rename=rename)
            expected.append(slope)
        assert ideal_equal(list(result.scheme.generators), expected)


def test_difference_prolongation_block_decomposition():
    op = sigma_product()
    for variables, gens in [
        (("x",), ["x^2 - t"]),
        (("x", "y"), ["x^2 + y^2 - t"]),
    ]:
        scheme = scheme_over_t(variables, gens)
        result = prolong(scheme, op)
        tau_ctx = result.ctx
        blocks = []
        for p in scheme.generators:
            blocks.append(
                transport(p, tau_ctx, rename={v: f"{v}_0" for v in variables})
            )
            # second block evaluates the sigma-twisted equation at the
            # idempotent coordinate x_0 + x_1
            twisted = {"t": tau_ctx.var("t") ** 2}
            for v in variables:
                twisted[v] = tau_ctx.var(f"{v}_0") + tau_ctx.var(f"{v}_1")
            blocks.append(substitute(p, twisted, tau_ctx))
        assert ideal_equal(list(result.scheme.generators), blocks)


def test_nabla_dual_example_and_invalid_point():
    line = scheme_over_t(("x",), [])
    t = BASE.var("t")
    image = nabla(line, dual_ddt(), {"x": t * t})
    assert str(image.assignment["x_0"]) == "t^2"
    assert str(image.assignment["x_1"]) == "2*t"

    x2t = scheme_over_t(("x",), ["x^2 - t"])
    with pytest.raises(PointError):
        nabla(x2t, dual_ddt(), {"x": t})


def test_nabla_standard_operator_gives_zero_jet():
    line = scheme_over_t(("x",), [])
    op = standard_operator(TRUNC2, BASE)
    p = BASE.var("t") + BASE.one()
    image = nabla(line, op, {"x": p})
    values = [str(image.assignment[f"x_{j}"]) for j in range(3)]
    assert values == ["t + 1", "0", "0"]


def test_nabla_lands_in_prolongation_symbolically():
    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    cubic = scheme_over_t(("x", "y", "z"), ["y - x^2", "z - x^3"])
    operators = [dual_ddt(), taylor_trunc2(), sigma_product()]
    rng = random.Random(7)
    for scheme in (parabola, cubic):
        for op in operators:
            result = prolong(scheme, op)
            for _ in range(8):
                p = random_poly(BASE, rng, max_degree=2, max_terms=3)
                values = {"x": p, "y": p * p}
                if "z" in scheme.variables:
                    values["z"] = p ** 3
                point = SchemePoint(scheme, values)
                nabla(scheme, op, point, result)


def test_prolong_morphism_square_frozen():
    plain = RingContext(QQ)
    ctx = RingContext(QQ, scheme_vars=("x",))
    line = AffineScheme(ctx, [])
    square = PolyMorphism(line, line, {"x": parse_poly("x^2", ctx)})
    tau = prolong_morphism(square, standard_operator(DUAL, plain))
    assert str(tau.assignment["x_0"]) == "x_0^2"
    assert str(tau.assignment["x_1"]) == "2*x_0*x_1"


def test_prolong_morphism_functor_laws():
    op = dual_ddt()
    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    ident = PolyMorphism.identity(parabola)
    tau_parabola = prolong(parabola, op)
    tau_ident = prolong_morphism(ident, op, tau_parabola, tau_parabola)
    assert tau_ident.assignment == PolyMorphism.identity(tau_parabola.scheme).assignment

    line = scheme_over_t(("s",), [])
    plane = scheme_over_t(("x", "y"), [])
    f = PolyMorphism(
        line, parabola, {"x": line.ctx.var("s"), "y": parse_poly("s^2", line.ctx)}
    )
    g = PolyMorphism(
        parabola,
        plane,
        {"x": parse_poly("x + y", parabola.ctx), "y": parabola.ctx.var("t")},
    )
    composed = g.compose(f)
    tau_line = prolong(line, op)
    tau_plane = prolong(plane, op)
    left = prolong_morphism(composed, op, tau_line, tau_plane)
    right = prolong_morphism(g, op, tau_parabola, tau_plane).compose(
        prolong_morphism(f, op, tau_line, tau_parabola)
    )
    assert left.equals_mod_ideal(right)


def test_nabla_naturality_on_random_points():
    line = scheme_over_t(("s",), [])
    cubic = scheme_over_t(("x", "y", "z"), ["y - x^2", "z - x^3"])
    f = PolyMorphism(
        line,
        cubic,
        {
            "x": line.ctx.var("s"),
            "y": parse_poly("s^2", line.ctx),
            "z": parse_poly("s^3", line.ctx),
        },
    )
    for op in (dual_ddt(), taylor_trunc2(), sigma_product()):
        src = prolong(line, op)
        tgt = prolong(cubic, op)
        tau_f = prolong_morphism(f, op, src, tgt)
        rng = random.Random(11)
        for _ in range(10):
            value = random_poly(BASE, rng, max_degree=2, max_terms=3)
            a = SchemePoint(line, {"s": value})
            lhs = tau_f.apply_to_point(nabla(line, op, a, src))
            rhs = nabla(cubic, op, f.apply_to_point(a), tgt)
            assert lhs == rhs


def test_fiber_of_prolonged_projection_matches_prolonged_fiber():
    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    target = scheme_over_t(("w",), [])
    projection = PolyMorphism(parabola, target, {"w": parabola.ctx.var("x")})
    t = BASE.var("t")
    a = SchemePoint(target, {"w": t + BASE.one()})
    fiber = AffineScheme(
        parabola.ctx,
        list(parabola.generators)
        + [projection.assignment["w"] - transport(t + BASE.one(), parabola.ctx)],
    )
    for op in (dual_ddt(), taylor_trunc2()):
        tau_x = prolong(parabola, op)
        tau_w = prolong(target, op)
        tau_f = prolong_morphism(projection, op, tau_x, tau_w)
        image = nabla(target, op, a, tau_w)
        cut = list(tau_x.scheme.generators)
        for name in tau_w.scheme.variables:
            cut.append(
                tau_f.assignment[name]
                - transport(image.assignment[name], tau_x.ctx)
            )
        tau_fiber = prolong(fiber, op)
        assert ideal_equal(cut, list(tau_fiber.scheme.generators))


def test_composed_dual_dual_frozen_and_matches_iterated():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e, f = dual_ddt(), dual_ddt()
    composed = prolong_composed(x2t, e, f)
    assert [str(g) for g in composed.scheme.generators] == [
        "x_0^2 - t",
        "2*x_0*x_1 - 1",
        "2*x_0*x_2 - 1",
        "2*x_0*x_3 + 2*x_1*x_2",
    ]
    iterated = prolong(prolong(x2t, e).scheme, f)
    renamed = [
        transport(g, iterated.ctx, rename=composed.renaming)
        for g in composed.scheme.generators
    ]
    assert ideal_equal(renamed, list(iterated.scheme.generators))


def test_composed_product_dual_matches_iterated():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e, f = sigma_product(), dual_ddt()
    composed = prolong_composed(x2t, e, f)
    iterated = prolong(prolong(x2t, e).scheme, f)
    renamed = [
        transport(g, iterated.ctx, rename=composed.renaming)
        for g in composed.scheme.generators
    ]
    assert ideal_equal(renamed, list(iterated.scheme.generators))
    # and in the other order, with the roles of the factors exchanged
    composed_fe = prolong_composed(x2t, f, e)
    iterated_fe = prolong(prolong(x2t, f).scheme, e)
    renamed_fe = [
        transport(g, iterated_fe.ctx, rename=composed_fe.renaming)
        for g in composed_fe.scheme.generators
    ]
    assert ideal_equal(renamed_fe, list(iterated_fe.scheme.generators))


def test_composed_with_trivial_right_factor():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e = dual_ddt()
    f = standard_operator(trivial_algebra(), BASE)
    composed = prolong_composed(x2t, e, f)
    plain = prolong(x2t, e)
    assert [str(g) for g in composed.scheme.generators] == [
        str(g) for g in plain.scheme.generators
    ]
    assert composed.renaming == {"x_0": "x_0_0", "x_1": "x_1_0"}


def test_nabla_composition_through_tensor():
    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    rng = random.Random(23)
    for e, f in [(dual_ddt(), dual_ddt()), (sigma_product(), dual_ddt())]:
        composed = prolong_composed(parabola, e, f)
        first = prolong(parabola, e)
        second = prolong(first.scheme, f)
        for _ in range(6):
            p = random_poly(BASE, rng, max_degree=2, max_terms=3)
            a = SchemePoint(parabola, {"x": p, "y": p * p})
            direct = nabla(parabola, composed.operator, a, composed)
            staged = nabla(
                first.scheme, f, nabla(parabola, e, a, first), second
            )
            for name, target in composed.renaming.items():
                lhs = transport(direct.assignment[name], BASE)
                rhs = transport(staged.assignment[target], BASE)
                assert lhs == rhs


def test_prolongations_commute_for_commuting_operators():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    for e, f in [(dual_ddt(), dual_ddt()), (dual_ddt(), taylor_trunc2())]:
        ef = prolong_composed(x2t, e, f)
        fe = prolong_composed(x2t, f, e)
        renaming = swap_renaming(x2t, e, f)
        renamed = [
            transport(g, fe.ctx, rename=renaming) for g in ef.scheme.generators
        ]
        assert ideal_equal(renamed, list(fe.scheme.generators))


def test_prolongations_do_not_commute_for_noncommuting_operators():
    # the twisted slot picks up d(sigma(t)) = 2t against sigma(d(t)) = 1,
    # so the two orders genuinely differ as ideals
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e, f = sigma_product(), dual_ddt()
    ef = prolong_composed(x2t, e, f)
    fe = prolong_composed(x2t, f, e)
    renaming = swap_renaming(x2t, e, f)
    back = swap_renaming(x2t, f, e)
    assert {v: k for k, v in renaming.items()} == back
    renamed = [transport(g, fe.ctx, rename=renaming) for g in ef.scheme.generators]
    assert not ideal_equal(renamed, list(fe.scheme.generators))


def test_compare_map_identity():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e = dual_ddt()
    result = prolong(x2t, e)
    alpha = [[1, 0], [0, 1]]
    morphism = compare_map(x2t, alpha, e, e, result, result)
    assert morphism.assignment == PolyMorphism.identity(result.scheme).assignment


def test_compare_map_truncation_quotient():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e, f = taylor_trunc2(), dual_ddt()
    alpha = [[1, 0, 0], [0, 1, 0]]
    src = prolong(x2t, e)
    tgt = prolong(x2t, f)
    hat = compare_map(x2t, alpha, e, f, src, tgt)
    assert str(hat.assignment["x_0"]) == "x_0"
    assert str(hat.assignment["x_1"]) == "x_1"
    assert hat.is_morphism()

    parabola = scheme_over_t(("x", "y"), ["y - x^2"])
    src_p = prolong(parabola, e)
    tgt_p = prolong(parabola, f)
    hat_p = compare_map(parabola, alpha, e, f, src_p, tgt_p)
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(BASE, rng, max_degree=2, max_terms=3)
        a = SchemePoint(parabola, {"x": p, "y": p * p})
        assert hat_p.apply_to_point(nabla(parabola, e, a, src_p)) == nabla(
            parabola, f, a, tgt_p
        )


def test_compare_map_validation_errors():
    e, f = dual_ddt(), dual_ddt()
    with pytest.raises(ValueError, match="matrix must be 2x2"):
        validate_algebra_map([[1, 0, 0], [0, 1, 0]], e, f)
    with pytest.raises(ValueError, match="unit is not preserved"):
        validate_algebra_map([[2, 0], [0, 1]], e, f)

    sigma = sigma_product()
    with pytest.raises(ValueError, match=r"not multiplicative at \(e_1, e_1\)"):
        validate_algebra_map([[1, 0], [0, 2]], sigma, sigma)

    standard = standard_operator(DUAL, BASE)
    with pytest.raises(ValueError, match="not intertwined at generator 't'"):
        validate_algebra_map([[1, 0], [0, 1]], dual_ddt(), standard)


def test_compare_map_embedding_is_injective_on_coordinates():
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    e = dual_ddt()
    f = RingOperator(
        TRUNC2,
        BASE,
        {"t": TRUNC2.element(BASE, [BASE.var("t"), BASE.zero(), BASE.one()])},
    )
    alpha = [[1, 0], [0, 0], [0, 1]]
    src = prolong(x2t, e)
    tgt = prolong(x2t, f)
    hat = compare_map(x2t, alpha, e, f, src, tgt)
    assert hat.is_morphism()
    assert rank(ExactMatrix(QQ, alpha)) == 2
    transposed = [[alpha[jp][j] for jp in range(3)] for j in range(2)]
    for j in range(2):
        unit = [QQ.from_int(1 if i == j else 0) for i in range(2)]
        assert solve_linear(ExactMatrix(QQ, transposed), unit) is not None
    assert hat.pullback(tgt.ctx.var("x_2")) == src.ctx.var("x_1")
    assert hat.pullback(tgt.ctx.var("x_1")).is_zero()


# -- the evaluators a prolongation and an operator hold ---------------------------

HELD_ALGEBRAS = [DUAL, TRUNC2, PROD2, dring_algebra(1), dring_algebra(7)]
# both sides of 16, where AlgebraScheme.power switches to halving
HELD_EXPONENTS = st.sampled_from([0, 1, 2, 3, 15, 16, 17, 18, 33])


@st.composite
def held_polys(draw, ctx, names, max_terms=3, exponents=HELD_EXPONENTS):
    """A sum of up to ``max_terms`` terms, each a small coefficient times
    powers of at most two of ``names``."""
    poly = ctx.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        num, den = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        term = ctx.const(ctx.field.from_fraction(Fraction(num, den)))
        for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
            term = term * ctx.var(name) ** draw(exponents)
        poly = poly + term
    return poly


def _terms(value):
    return [list(s.coeffs.items()) for s in value.slots]


def _fresh(poly, owner):
    return evaluate_in_algebra(poly, owner.substitution, owner.algebra, owner.ctx)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(HELD_ALGEBRAS), st.sampled_from([QQ, GF(7)]))
def test_held_evaluators_match_fresh_evaluation(data, algebra, field):
    """A sequence of polynomials through one operator's extension and one
    prolongation's expansion, plain and composed, gives each slot the values
    and term order of a fresh evaluation of that polynomial alone."""
    base = RingContext(field, base_gens=("t",))
    small = st.sampled_from([0, 1, 2])
    image = [data.draw(held_polys(base, "t", exponents=small)) for _ in algebra.labels]
    op = RingOperator(algebra, base, {"t": algebra.element(base, image)})
    d = RingOperator(DUAL, base, {"t": DUAL.element(base, [base.var("t"), 1])})
    source = RingContext(field, base_gens=("t",), scheme_vars=("x", "y"))
    generator = data.draw(held_polys(source, "xyt"))
    scheme = AffineScheme(source, [generator])
    plain, composed = prolong(scheme, op), prolong_composed(scheme, op, d)
    for result in (plain, composed):
        generators = [list(g.coeffs.items()) for g in result.scheme.generators]
        assert generators == _terms(_fresh(generator, result))
    for poly in data.draw(st.lists(held_polys(source, "xyt"), min_size=1, max_size=4)):
        for result in (plain, composed):
            assert _terms(result.expand(poly)) == _terms(_fresh(poly, result))
        # a base-ring value from the bigger context transports down first
        value = data.draw(held_polys(source, "t"))
        want = evaluate_in_algebra(transport(value, base), op.images, algebra, base)
        assert _terms(op.extend(value)) == _terms(want)


def test_one_evaluator_per_prolongation_and_operator(monkeypatch):
    """Generators, nabla, prolong_morphism and repeated expansions share the
    prolongation's evaluator; every extension shares the operator's."""
    started = []
    for name in ("algebra", "prolongations", "operators"):
        module = importlib.import_module(f"prolong.{name}")

        def counting(*args, real=module.evaluator):
            started.append(args)
            return real(*args)

        monkeypatch.setattr(module, "evaluator", counting)
    op = dual_ddt()
    parabola = scheme_over_t(("x", "y"), ["y - x^2", "t*y - t*x^2"])
    line = scheme_over_t(("s",), [])
    s = line.ctx.var("s")
    f = PolyMorphism(line, parabola, {"x": s, "y": s * s})
    held, held_line = prolong(parabola, op), prolong(line, op)
    assert len(started) == 3
    t = BASE.var("t")
    for p in (t, t * t + 1, t**17):
        nabla(parabola, op, {"x": p, "y": p * p}, held)
        prolong_morphism(f, op, held_line, held)
        held.expand(parabola.ctx.var("x") ** 20)
        op.extend(p)
    assert len(started) == 3


def test_held_evaluators_die_with_their_owner():
    """Nothing a held evaluator keeps, nor an operator family's maps, points
    back at its owner, so dropping the last reference frees the owner and
    its power cache at once."""
    x2t = scheme_over_t(("x",), ["x^2 - t"])
    gc.collect()
    gc.disable()
    try:
        op = taylor_trunc2()
        plain, composed = prolong(x2t, op), prolong_composed(x2t, op, dual_ddt())
        poly = x2t.ctx.var("x") ** 20 * x2t.ctx.var("t") ** 3
        plain.expand(poly), composed.expand(poly)
        maps = OperatorFamily(op).maps
        maps[1](BASE.var("t") ** 20)
        refs = [weakref.ref(owner) for owner in (plain, composed, op)]
        del plain
        assert refs[0]() is None
        del composed
        assert refs[1]() is None
        del op
        assert refs[2]() is not None
        del maps
        assert refs[2]() is None
        # and no power cache waits in a cycle for the collector
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_held_ring_maps_are_read_only():
    op = dual_ddt()
    result = prolong(scheme_over_t(("x",), ["x^2 - t"]), op)
    with pytest.raises(TypeError):
        op.images["t"] = op.images["t"] + op.images["t"]
    with pytest.raises(TypeError):
        result.substitution["x"] = result.substitution["t"]
    with pytest.raises(TypeError):
        del result.substitution["t"]
