import random
from fractions import Fraction

import pytest

from helpers import base_change_along, point_down, point_up, specialize_base
from prolong.scalars import QQ
from prolong.polynomials import (
    RingContext,
    parse_poly,
    poly_to_str,
    random_poly,
    transport,
)
from prolong.algebra import (
    AlgebraScheme,
    dual_numbers,
    product_algebra,
    trivial_algebra,
)
from prolong.operators import RingOperator, standard_operator
from prolong.weil import (
    AffineScheme,
    PointError,
    PolyMorphism,
    SchemePoint,
    weil_restrict,
)

GAUSS = AlgebraScheme(["1", "e"], [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], name="gauss")


def circle_scheme():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    return AffineScheme(ctx, [parse_poly("x^2 + y^2 - 1", ctx)])


def gauss_circle():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    gen = GAUSS.element(ctx, [parse_poly("x^2 + y^2 - 1", ctx), ctx.zero()])
    return AffineScheme(ctx, [gen], algebra=GAUSS)


def test_scheme_validation():
    ctx = RingContext(QQ, scheme_vars=("x",))
    other = RingContext(QQ, scheme_vars=("y",))
    with pytest.raises(ValueError):
        AffineScheme(ctx, [parse_poly("y", other)])
    with pytest.raises(ValueError):
        AffineScheme(ctx, [parse_poly("x", ctx)], algebra=dual_numbers())
    empty = AffineScheme(ctx, [])
    assert empty.variables == ("x",) and not empty.is_algebra_mode


def test_point_validation():
    circle = circle_scheme()
    p = circle.point({"x": 1, "y": 0})
    assert p.assignment["x"] == circle.ctx.const(1)
    with pytest.raises(PointError) as err:
        circle.point({"x": 1, "y": 1})
    assert err.value.residuals[0][0] == 0
    assert poly_to_str(err.value.residuals[0][1]) == "1"
    with pytest.raises(ValueError, match="missing"):
        circle.point({"x": 1})
    with pytest.raises(ValueError, match="unknown"):
        circle.point({"x": 1, "y": 0, "z": 0})


def test_point_with_base_parameters():
    ctx = RingContext(QQ, base_gens=("s",), scheme_vars=("x", "y", "z"))
    cubic = AffineScheme(
        ctx, [parse_poly("y - x^2", ctx), parse_poly("z - x^3", ctx)]
    )
    s = ctx.var("s")
    p = cubic.point({"x": s, "y": s * s, "z": s ** 3})
    assert p.assignment["z"] == s ** 3
    with pytest.raises(ValueError, match="base ring"):
        cubic.point({"x": ctx.var("x"), "y": 0, "z": 0})


def test_weil_restrict_trivial_is_rename():
    scheme = gauss_circle()
    triv = trivial_algebra()
    ctx = scheme.ctx
    relabeled = AffineScheme(
        ctx,
        [triv.element(ctx, [parse_poly("x^2 + y^2 - 1", ctx)])],
        algebra=triv,
    )
    out = weil_restrict(relabeled, triv)
    assert out.variables == ("x_0", "y_0")
    assert [poly_to_str(g) for g in out.generators] == ["x_0^2 + y_0^2 - 1"]


def test_weil_restrict_gauss_circle_frozen():
    out = weil_restrict(gauss_circle(), GAUSS)
    assert out.variables == ("x_0", "x_1", "y_0", "y_1")
    assert [poly_to_str(g) for g in out.generators] == [
        "x_0^2 - x_1^2 + y_0^2 - y_1^2 - 1",
        "2*x_0*x_1 + 2*y_0*y_1",
    ]


def test_weil_restrict_dual_with_algebra_constant():
    # x^2 - c with c = (c0, c1) in the dual numbers over QQ[c0, c1]
    ctx = RingContext(QQ, base_gens=("c0", "c1"), scheme_vars=("x",))
    dual = dual_numbers()
    gen = dual.element(ctx, [ctx.var("x") ** 2 - ctx.var("c0"), -ctx.var("c1")])
    scheme = AffineScheme(ctx, [gen], algebra=dual)
    out = weil_restrict(scheme, dual)
    assert [poly_to_str(g) for g in out.generators] == [
        "x_0^2 - c0",
        "2*x_0*x_1 - c1",
    ]


def test_weil_restrict_keeps_zero_components():
    # V(x - t): the slot-1 component x_1 - 0 survives, and a generator whose
    # expansion misses a slot still emits the zero polynomial for it
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    dual = dual_numbers()
    gens = [
        dual.element(ctx, [ctx.var("x") - ctx.var("t"), ctx.zero()]),
        dual.element(ctx, [ctx.var("t"), ctx.zero()]),
    ]
    out = weil_restrict(AffineScheme(ctx, gens, algebra=dual), dual)
    assert [poly_to_str(g) for g in out.generators] == ["x_0 - t", "x_1", "t", "0"]


def test_weil_restrict_mode_and_name_guards():
    with pytest.raises(ValueError, match="mode mismatch"):
        weil_restrict(circle_scheme(), dual_numbers())
    with pytest.raises(ValueError, match="different algebra"):
        weil_restrict(gauss_circle(), dual_numbers())
    # a base generator named like a slot component collides
    ctx = RingContext(QQ, base_gens=("x_1",), scheme_vars=("x",))
    dual = dual_numbers()
    gen = dual.element(ctx, [ctx.var("x"), ctx.zero()])
    with pytest.raises(ValueError, match="duplicate"):
        weil_restrict(AffineScheme(ctx, [gen], algebra=dual), dual)


def test_point_down_up_roundtrip():
    scheme = gauss_circle()
    restricted = weil_restrict(scheme, GAUSS)
    p = scheme.point({"x": [1, 0], "y": [0, 0]})
    down = point_down(p, restricted)
    assert down.assignment["x_0"] == restricted.ctx.one()
    assert down.assignment["x_1"].is_zero()
    up = point_up(down, scheme)
    assert up.assignment == p.assignment


def test_point_down_random_roundtrip():
    # random valid dual-number points on the parabola y = x^2
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x", "y"))
    dual = dual_numbers()
    y_gen = dual.element(
        ctx,
        [ctx.var("y") - ctx.var("x") ** 2, ctx.zero()],
    )
    scheme = AffineScheme(ctx, [y_gen], algebra=dual)
    restricted = weil_restrict(scheme, dual)
    rng = random.Random(13)
    base = RingContext(QQ, base_gens=("t",))
    for _ in range(25):
        a = random_poly(base, rng, max_degree=2, allow_zero=True)
        b = random_poly(base, rng, max_degree=2, allow_zero=True)
        x_val = dual.element(ctx, [transport(a, ctx), transport(b, ctx)])
        # y = x^2 in the dual numbers
        y_val = x_val * x_val
        p = scheme.point({"x": x_val, "y": y_val})
        down = point_down(p, restricted)
        assert point_up(down, scheme).assignment == p.assignment


def test_invalid_algebra_point_reports_residual():
    scheme = gauss_circle()
    with pytest.raises(PointError) as err:
        scheme.point({"x": [0, 1], "y": [0, 0]})
    # (e)^2 - 1 = -2 on the unit slot
    index, residual = err.value.residuals[0]
    assert index == 0
    assert poly_to_str(residual.slots[0]) == "-2"


def test_vanishing_iff_components_vanish():
    # parabola over the Gaussian algebra: valid points by construction, and
    # corrupted points must fail on both sides of the correspondence
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    gen = GAUSS.element(ctx, [ctx.var("y") - ctx.var("x") ** 2, ctx.zero()])
    scheme = AffineScheme(ctx, [gen], algebra=GAUSS)
    restricted = weil_restrict(scheme, GAUSS)
    rng = random.Random(3)
    for trial in range(100):
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        x_val = GAUSS.element(ctx, [a, b])
        y_val = x_val * x_val
        corrupt = trial % 2 == 1
        if corrupt:
            y_val = y_val + GAUSS.unit(ctx)
        down_vals = {
            "x_0": x_val.slots[0],
            "x_1": x_val.slots[1],
            "y_0": transport(y_val.slots[0], restricted.ctx),
            "y_1": transport(y_val.slots[1], restricted.ctx),
        }
        if corrupt:
            with pytest.raises(PointError):
                scheme.point({"x": x_val, "y": y_val})
            with pytest.raises(PointError):
                restricted.point(down_vals)
        else:
            p = scheme.point({"x": x_val, "y": y_val})
            down = point_down(p, restricted)
            assert down.assignment == {
                k: transport(v, restricted.ctx) for k, v in down_vals.items()
            }
            assert point_up(down, scheme).assignment == p.assignment


def test_base_change_operator():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    scheme = AffineScheme(ctx, [parse_poly("x^2 - t", ctx)])
    base = RingContext(QQ, base_gens=("t",))
    dual = dual_numbers()
    e = RingOperator(dual, base, {"t": dual.element(base, [base.var("t"), base.one()])})
    changed = base_change_along(scheme, e)
    assert changed.is_algebra_mode
    (gen,) = changed.generators
    assert gen.slots == (parse_poly("x^2 - t", ctx), parse_poly("-1", ctx))


def test_base_change_specialize_commutes_with_restriction():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    scheme = AffineScheme(ctx, [parse_poly("x^2 - t", ctx)])
    base = RingContext(QQ, base_gens=("t",))
    dual = dual_numbers()
    e = RingOperator(dual, base, {"t": dual.element(base, [base.var("t"), base.one()])})
    changed = base_change_along(scheme, e)
    # restrict first, specialize after
    restricted = weil_restrict(changed, dual)
    after = specialize_base(restricted, {"t": 3})
    # specialize first, restrict after
    specialized = specialize_base(changed, {"t": 3})
    before = weil_restrict(specialized, dual)
    assert after.ctx == before.ctx
    assert [poly_to_str(g) for g in after.generators] == [
        poly_to_str(g) for g in before.generators
    ]
    assert [poly_to_str(g) for g in after.generators] == ["x_0^2 - 3", "2*x_0*x_1 - 1"]


def test_base_change_identity_and_errors():
    scheme = circle_scheme()
    same = specialize_base(scheme, {})
    assert [poly_to_str(g) for g in same.generators] == [
        poly_to_str(g) for g in scheme.generators
    ]
    with pytest.raises(ValueError, match="base generators"):
        specialize_base(scheme, {"x": 1})


def test_morphism_validation_and_points():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    parabola = AffineScheme(ctx, [parse_poly("y - x^2", ctx)])
    line_ctx = RingContext(QQ, scheme_vars=("u",))
    line = AffineScheme(line_ctx, [])
    f = PolyMorphism(
        line, parabola, {"x": line_ctx.var("u"), "y": line_ctx.var("u") ** 2}
    )
    assert f.is_morphism()
    p = line.point({"u": 5})
    q = f.apply_to_point(p)
    assert q.assignment["y"] == ctx.const(25)
    bad = PolyMorphism(line, parabola, {"x": line_ctx.var("u"), "y": line_ctx.var("u")})
    assert not bad.is_morphism()


def test_morphism_compose_identity():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    parabola = AffineScheme(ctx, [parse_poly("y - x^2", ctx)])
    line_ctx = RingContext(QQ, scheme_vars=("u",))
    line = AffineScheme(line_ctx, [])
    f = PolyMorphism(
        line, parabola, {"x": line_ctx.var("u"), "y": line_ctx.var("u") ** 2}
    )
    ident = PolyMorphism.identity(parabola)
    assert ident.compose(f).assignment == f.assignment
    assert f.compose(PolyMorphism.identity(line)).assignment == f.assignment
    # projection back to the line composes to the identity on the line
    proj = PolyMorphism(parabola, line, {"u": ctx.var("x")})
    round_trip = proj.compose(f)
    assert round_trip.equals_mod_ideal(PolyMorphism.identity(line))


def test_morphism_equals_mod_ideal():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    parabola = AffineScheme(ctx, [parse_poly("y - x^2", ctx)])
    line_ctx = RingContext(QQ, scheme_vars=("u",))
    line = AffineScheme(line_ctx, [])
    g1 = PolyMorphism(parabola, line, {"u": ctx.var("y")})
    g2 = PolyMorphism(parabola, line, {"u": ctx.var("x") ** 2})
    assert g1.equals_mod_ideal(g2)
    g3 = PolyMorphism(parabola, line, {"u": ctx.var("x")})
    assert not g1.equals_mod_ideal(g3)
