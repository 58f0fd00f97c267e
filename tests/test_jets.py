import random

import pytest

from helpers import (
    augmented_jet_fiber,
    degree_in,
    divided_power_oracle,
    local_quotient_dimension,
    specialize_base,
)
from prolong.jets import (
    JetScheme,
    jet_fiber,
    jet_indices,
    jet_morphism,
    jet_scheme,
    z_name,
)
from prolong.polynomials import (
    Monomial,
    RingContext,
    parse_poly,
    random_poly,
    substitute,
    transport,
)
from prolong.scalars import QQ
from prolong.weil import (
    AffineScheme,
    NotScalarPointError,
    PolyMorphism,
    SchemePoint,
)


def plain_scheme(variables, gens, base=()):
    ctx = RingContext(QQ, base_gens=base, scheme_vars=tuple(variables))
    return AffineScheme(ctx, [parse_poly(g, ctx) for g in gens])


def test_index_order_and_names():
    assert jet_indices(1, 2) == ((1,), (2,))
    assert jet_indices(2, 2) == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert z_name((1, 0)) == "z_1_0"
    assert z_name((2,)) == "z_2"

    plane = plain_scheme(("x", "y"), [])
    jet = jet_scheme(plane, 2)
    assert jet.scheme.variables == (
        "x",
        "y",
        "z_1_0",
        "z_0_1",
        "z_2_0",
        "z_1_1",
        "z_0_2",
    )
    assert jet.scheme.generators == ()


def test_jet_frozen_example_over_parameter():
    x2t = plain_scheme(("x",), ["x^2 - t"], base=("t",))
    jet = jet_scheme(x2t, 2)
    assert [str(g) for g in jet.scheme.generators] == [
        "x^2 - t",
        "2*x*z_1 + z_2",
    ]


def test_jet_order_one_is_jacobian_pairing():
    rng = random.Random(3)
    ctx = RingContext(QQ, scheme_vars=("x", "y", "z"))
    for _ in range(5):
        p = random_poly(ctx, rng, max_degree=3, max_terms=5)
        scheme = AffineScheme(ctx, [p])
        jet = jet_scheme(scheme, 1)
        jctx = jet.ctx
        expected = jctx.zero()
        for i, (name, index) in enumerate(
            (("x", 0), ("y", 1), ("z", 2))
        ):
            d = divided_power_oracle(p, Monomial(((index, 1),)))
            alpha = tuple(1 if k == i else 0 for k in range(3))
            expected = expected + transport(d, jctx) * jctx.var(z_name(alpha))
        assert jet.scheme.generators[1] == expected


def test_jet_equations_match_divided_power_oracle():
    for seed in range(5):
        rng = random.Random(100 + seed)
        names = ("x", "y", "z")[: rng.randrange(1, 4)]
        ctx = RingContext(QQ, scheme_vars=names)
        gens = [
            random_poly(ctx, rng, max_degree=3, max_terms=4)
            for _ in range(rng.randrange(1, 3))
        ]
        scheme = AffineScheme(ctx, gens)
        order = rng.randrange(1, 4)
        jet = jet_scheme(scheme, order)
        jctx = jet.ctx
        expected = [transport(p, jctx) for p in gens]
        for p in gens:
            acc = jctx.zero()
            for alpha in jet.indices:
                d = divided_power_oracle(p, Monomial((i, e) for i, e in enumerate(alpha)))
                acc = acc + transport(d, jctx) * jctx.var(z_name(alpha))
            expected.append(acc)
        assert list(jet.scheme.generators) == expected


def test_jet_generators_are_linear_in_z():
    scheme = plain_scheme(("x", "y"), ["x^3 + y^3 - 1", "x*y - 1"])
    jet = jet_scheme(scheme, 3)
    zidx = [jet.ctx.var_index(z) for z in jet.z_variables]
    for gen in jet.scheme.generators[2:]:
        assert degree_in(gen, zidx) == 1
        for m, _ in gen.coeffs.items():
            assert sum(e for i, e in m.exps if i in set(zidx)) == 1


def test_jet_commutes_with_base_specialization():
    family = plain_scheme(("x", "y"), ["y^2 - x^3 - t"], base=("t",))
    jet_then = specialize_base(jet_scheme(family, 2).scheme, {"t": 4})
    then_jet = jet_scheme(specialize_base(family, {"t": 4}), 2).scheme
    assert [str(g) for g in jet_then.generators] == [
        str(g) for g in then_jet.generators
    ]
    assert jet_then.variables == then_jet.variables


def test_jet_name_collision_guard():
    bad = plain_scheme(("z_1",), [])
    with pytest.raises(ValueError):
        jet_scheme(bad, 1)
    also_bad = plain_scheme(("x", "z_0_1"), [])
    with pytest.raises(ValueError):
        jet_scheme(also_bad, 1)


def test_fiber_conic_examples():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    fiber = jet_fiber(conic, 1, {"x": 1, "y": 0})
    assert fiber.columns == ("z_1_0", "z_0_1")
    assert [[str(c) for c in row] for row in fiber.matrix.rows] == [["2", "0"]]
    assert fiber.dimension == 1
    assert fiber.kernel() == [[QQ.from_int(0), QQ.from_int(1)]]


def test_fiber_of_ambient_space_is_everything():
    plane = plain_scheme(("x", "y"), [])
    fiber = jet_fiber(plane, 2, {"x": 5, "y": -1})
    assert len(fiber.matrix.rows) == 0
    assert fiber.dimension == 5


def test_fiber_at_node_sees_both_branches():
    node = plain_scheme(("x", "y"), ["x*y"])
    fiber = jet_fiber(node, 1, {"x": 0, "y": 0})
    assert [[str(c) for c in row] for row in fiber.matrix.rows] == [["0", "0"]]
    assert fiber.dimension == 2


def test_fiber_requires_scalar_coordinates():
    parabola = plain_scheme(("x", "y"), ["y - x^2"], base=("t",))
    t = parabola.ctx.var("t")
    with pytest.raises(NotScalarPointError, match="not a scalar"):
        jet_fiber(parabola, 1, {"x": t, "y": t * t})

    weighted = plain_scheme(("x",), ["t*x - t"], base=("t",))
    with pytest.raises(ValueError, match="specialize the base"):
        jet_fiber(weighted, 1, {"x": 1})


def test_fiber_reuses_a_matching_jet_scheme_only():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    twin = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    point = {"x": 1, "y": 0}
    jet = jet_scheme(conic, 2)
    reused = jet_fiber(conic, 2, point, jet=jet)
    assert reused.matrix.rows == jet_fiber(conic, 2, point).matrix.rows
    assert reused.columns == jet.z_variables
    with pytest.raises(ValueError, match="different data"):
        jet_fiber(conic, 1, point, jet=jet)
    with pytest.raises(ValueError, match="different data"):
        jet_fiber(twin, 2, point, jet=jet)


def test_jet_morphism_identity_and_square():
    ctx = RingContext(QQ, scheme_vars=("x",))
    line = AffineScheme(ctx, [])
    ident = jet_morphism(PolyMorphism.identity(line), 2)
    assert str(ident.assignment["z_1"]) == "z_1"
    assert str(ident.assignment["z_2"]) == "z_2"

    square = PolyMorphism(line, line, {"x": parse_poly("x^2", ctx)})
    jsq = jet_morphism(square, 2)
    assert str(jsq.assignment["x"]) == "x^2"
    assert str(jsq.assignment["z_1"]) == "2*x*z_1 + z_2"
    assert str(jsq.assignment["z_2"]) == "4*x^2*z_2"


def test_jet_morphism_functor_law_mod_ideal():
    line = plain_scheme(("s",), [])
    parabola = plain_scheme(("x", "y"), ["y - x^2"])
    plane = plain_scheme(("u", "v"), [])
    f = PolyMorphism(
        line, parabola, {"x": line.ctx.var("s"), "y": parse_poly("s^2", line.ctx)}
    )
    g = PolyMorphism(
        parabola,
        plane,
        {"u": parse_poly("x + y", parabola.ctx), "v": parse_poly("x*y", parabola.ctx)},
    )
    order = 2
    jet_line = jet_scheme(line, order)
    jet_parabola = jet_scheme(parabola, order)
    jet_plane = jet_scheme(plane, order)
    left = jet_morphism(g.compose(f), order, jet_line, jet_plane)
    right = jet_morphism(g, order, jet_parabola, jet_plane).compose(
        jet_morphism(f, order, jet_line, jet_parabola)
    )
    assert left.equals_mod_ideal(right)


def _morphism_matrix(jmor, source_jet, target_jet, values):
    """Scalar matrix of the z-part of a jet morphism at a point."""
    ctx = source_jet.ctx
    consts = {name: ctx.const(v) for name, v in values.items()}
    rows = []
    for beta in target_jet.indices:
        image = substitute(jmor.assignment[z_name(beta)], consts, ctx)
        row = []
        for alpha in source_jet.indices:
            unit = dict(consts)
            for other in source_jet.indices:
                unit[z_name(other)] = ctx.one() if other == alpha else ctx.zero()
            entry = substitute(image, unit, ctx)
            row.append(entry.constant_value() if not entry.is_zero() else ctx.field.zero)
        rows.append(row)
    return rows


def test_jet_morphism_chain_rule_at_points():
    ctx = RingContext(QQ, scheme_vars=("x",))
    line = AffineScheme(ctx, [])
    f = PolyMorphism(line, line, {"x": parse_poly("x^2", ctx)})
    g = PolyMorphism(line, line, {"x": parse_poly("x^3 + x", ctx)})
    order = 2
    jet = jet_scheme(line, order)
    jf = jet_morphism(f, order, jet, jet)
    jg = jet_morphism(g, order, jet, jet)
    jgf = jet_morphism(g.compose(f), order, jet, jet)
    from prolong.groebner import ExactMatrix, matrix_product

    at = 3
    m_f = ExactMatrix(QQ, _morphism_matrix(jf, jet, jet, {"x": at}))
    m_g = ExactMatrix(QQ, _morphism_matrix(jg, jet, jet, {"x": at ** 2}))
    m_gf = ExactMatrix(QQ, _morphism_matrix(jgf, jet, jet, {"x": at}))
    assert matrix_product(m_g, m_f).rows == m_gf.rows


def test_smooth_point_dimension_matches_local_oracle_at_order_one():
    cases = [
        (plain_scheme(("x", "y"), ["x^2 + y^2 - 1"]), {"x": 1, "y": 0}),
        (plain_scheme(("x", "y"), ["x^3 - y"]), {"x": 1, "y": 1}),
        (
            plain_scheme(("x", "y", "w"), ["x^2 + y^2 + w^2 - 1"]),
            {"x": 0, "y": 0, "w": 1},
        ),
    ]
    for scheme, coords in cases:
        fiber = jet_fiber(scheme, 1, coords)
        assert fiber.dimension == local_quotient_dimension(scheme, coords, 1)


def test_generator_level_fiber_overshoots_at_higher_order():
    # one linear equation per generator sees only the generators, not their
    # multiples; the enlarged system recovers the local-ring count
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    at = {"x": 1, "y": 0}
    assert jet_fiber(conic, 2, at).dimension == 4
    assert augmented_jet_fiber(conic, 2, at).dimension == 2
    assert local_quotient_dimension(conic, at, 2) == 2


def test_augmented_fiber_matches_local_oracle_up_to_order_three():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    node = plain_scheme(("x", "y"), ["x*y"])
    cubic = plain_scheme(("x", "y", "w"), ["y - x^2", "w - x^3"])
    sphere = plain_scheme(("x", "y", "w"), ["x^2 + y^2 + w^2 - 1"])
    cases = [
        (conic, {"x": 1, "y": 0}, (1, 2, 3)),
        (node, {"x": 0, "y": 0}, (1, 2)),
        (cubic, {"x": 1, "y": 1, "w": 1}, (1, 2)),
        (sphere, {"x": 0, "y": 0, "w": 1}, (2,)),
    ]
    for scheme, coords, orders in cases:
        for order in orders:
            fiber = augmented_jet_fiber(scheme, order, coords)
            assert fiber.dimension == local_quotient_dimension(scheme, coords, order)
