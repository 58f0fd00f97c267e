"""Interpolating jets of a restriction into the restriction of jets."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    gamma_indices,
    multinomial,
    reference_interpolation_assignment,
    reference_interpolation_coefficients,
)
from prolong.algebra import (
    AlgebraScheme,
    dring_algebra,
    dual_numbers,
    product_algebra,
    tensor,
    trivial_algebra,
    truncated_algebra,
)
import prolong.interpolation
import prolong.jets
from prolong.fixtures import fixture_points, load_fixtures
from prolong.groebner import apply_matrix, groebner, ideal_member, rank
from prolong.interpolation import (
    check_surjectivity,
    fiber_matrices_at,
    interpolation_map,
    jacobian_rank,
)
from prolong.jets import jet_morphism, jet_scheme
from prolong.operators import RingOperator, compose_operators, standard_operator
from prolong.polynomials import (
    Monomial,
    RingContext,
    exponents_up_to,
    parse_poly,
    poly_to_str,
    transport,
)
from prolong.prolongations import (
    compare_map,
    prolong_composed,
    prolong_morphism,
)
from prolong.scalars import GF, QQ
from prolong.weil import AffineScheme, NotScalarPointError, PointError, PolyMorphism

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PLAIN = RingContext(QQ)

TRUNCATED_SMALL = [
    truncated_algebra(1, 1),
    truncated_algebra(1, 2),
    truncated_algebra(1, 3),
    truncated_algebra(2, 1),
    truncated_algebra(3, 1),
]


def plain_scheme(variables, gens=()):
    ctx = RingContext(QQ, scheme_vars=tuple(variables))
    return AffineScheme(ctx, [parse_poly(g, ctx) for g in gens])


def op(algebra):
    return standard_operator(algebra, PLAIN)


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(4, (2, 2)) == 6
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_gamma_indices_enumeration():
    assert gamma_indices((2,), 2) == [((2, 0),), ((1, 1),), ((0, 2),)]
    assert gamma_indices((1, 1), 2) == [
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 1), (0, 1)),
    ]


def test_coefficients_for_a_dual_square():
    rows = dict(reference_interpolation_coefficients(dual_numbers(), (2,)))
    assert rows[(2, 0)] == (Fraction(1), Fraction(0))
    # the mixed monomial y_0*y_1 appears twice when squaring y_0 + y_1*h
    assert rows[(1, 1)] == (Fraction(0), Fraction(2))
    assert rows[(0, 2)] == (Fraction(0), Fraction(0))


def test_frozen_assignment_line_dual_order_two():
    line = plain_scheme(("x",))
    imap = interpolation_map(line, 2, op(dual_numbers()))
    printed = {k: poly_to_str(v) for k, v in imap.assignment.items()}
    assert printed == {
        "x_0": "x_0",
        "x_1": "x_1",
        "z_1_0": "z_1_0",
        "z_1_1": "z_0_1",
        "z_2_0": "z_2_0",
        "z_2_1": "2*z_1_1",
    }
    assert imap.source.z_variables == ("z_1_0", "z_0_1", "z_2_0", "z_1_1", "z_0_2")
    assert imap.morphism.is_morphism()


def test_trivial_algebra_gives_a_renaming():
    curve = plain_scheme(("x", "y"), ["y - x^2"])
    imap = interpolation_map(curve, 2, op(trivial_algebra()))
    for name, poly in imap.assignment.items():
        if name.startswith("z"):
            # z_2_0 pulls back to z_2: jets of the renamed scheme
            assert poly_to_str(poly) == name[: -len("_0")]
        else:
            assert poly_to_str(poly) == name
    assert imap.morphism.is_morphism()


def test_unit_slot_laws_for_truncated_algebras():
    # the index with all weight on the unit slot owns the unit component:
    # it lands in slot zero with coefficient one and nowhere else, and no
    # other index reaches slot zero while the non-unit basis is nilpotent
    for algebra in TRUNCATED_SMALL:
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


def test_unit_slot_law_fails_without_nilpotents():
    # in Q[h]/(h^2 - 1) the exponent (0, 2) folds back onto the unit
    loop = AlgebraScheme(
        ("1", "h"),
        (
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        ),
    )
    rows = dict(reference_interpolation_coefficients(loop, (2,)))
    assert rows[(0, 2)][0] == 1


def test_coefficients_match_direct_expansion():
    # expanding prod_i (sum_j y_ij e_j)^(beta_i) slot by slot must reproduce
    # every stored coefficient, and nothing else may appear
    cases = [
        (1, 3, truncated_algebra(1, 2)),
        (1, 2, tensor(dual_numbers(), dual_numbers())),
        (2, 2, product_algebra(2)),
        (2, 2, truncated_algebra(2, 1)),
    ]
    for r, bound, algebra in cases:
        names = [f"y{i}_{j}" for i in range(r) for j in range(algebra.rank)]
        ctx = RingContext(QQ, scheme_vars=tuple(names))
        unit = algebra.element(
            ctx, [ctx.const(1)] + [ctx.const(0)] * (algebra.rank - 1)
        )
        hats = [
            algebra.element(
                ctx, [ctx.var(f"y{i}_{j}") for j in range(algebra.rank)]
            )
            for i in range(r)
        ]
        for beta in exponents_up_to(r, bound):
            power = unit
            for i, b in enumerate(beta):
                for _ in range(b):
                    power = power * hats[i]
            for j in range(algebra.rank):
                expected = {}
                for flat, vec in reference_interpolation_coefficients(algebra, beta):
                    if vec[j] == 0:
                        continue
                    mono = Monomial((k, e) for k, e in enumerate(flat))
                    expected[mono] = QQ.from_fraction(vec[j])
                assert power.slots[j].coeffs == expected


def test_assignment_is_linear_in_jet_coordinates():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    imap = interpolation_map(conic, 2, op(truncated_algebra(1, 2)))
    zset = set(imap.source.z_variables)
    ctx = imap.source.ctx
    for name, poly in imap.assignment.items():
        if name.startswith("z"):
            for m, _ in poly.coeffs.items():
                ((vi, e),) = m.exps
                assert e == 1
                assert ctx.all_vars[vi] in zset
        else:
            assert poly_to_str(poly) == name


def test_pullbacks_reproduce_source_generators():
    # restricted jet equations pull back onto the jet equations of the
    # restriction generator by generator, not merely modulo the ideal
    base = RingContext(QQ, base_gens=("t",))
    tctx = RingContext(QQ, scheme_vars=("x",), base_gens=("t",))
    dual = dual_numbers()
    ddt = RingOperator(
        dual, base, {"t": dual.element(base, [base.var("t"), base.const(1)])}
    )
    fixtures = [
        (plain_scheme(("x", "y"), ["y - x^2"]), op(dual_numbers()), 1),
        (
            plain_scheme(("x", "y"), ["x^2 + y^2 - 1"]),
            op(truncated_algebra(1, 2)),
            2,
        ),
        (AffineScheme(tctx, [parse_poly("x^2 - t", tctx)]), ddt, 2),
    ]
    for scheme, operator, order in fixtures:
        imap = interpolation_map(scheme, order, operator)
        pulled = [imap.morphism.pullback(g) for g in imap.target.scheme.generators]
        assert pulled == list(imap.source.scheme.generators)


def test_jet_restriction_square_commutes():
    line = plain_scheme(("s",))
    curve = plain_scheme(("u", "v"), ["v - u^2"])
    g = PolyMorphism(
        line,
        curve,
        {"u": line.ctx.var("s"), "v": line.ctx.var("s") * line.ctx.var("s")},
    )
    e = op(dual_numbers())
    for m in (1, 2):
        imap_x = interpolation_map(line, m, e)
        imap_y = interpolation_map(curve, m, e)
        tau_g = prolong_morphism(
            g,
            e,
            source_result=imap_x.prolongation,
            target_result=imap_y.prolongation,
        )
        jet_tau_g = jet_morphism(
            tau_g, m, source_jet=imap_x.source, target_jet=imap_y.source
        )
        jet_g = jet_morphism(g, m, source_jet=imap_x.jet, target_jet=imap_y.jet)
        tau_jet_g = prolong_morphism(
            jet_g, e, source_result=imap_x.target, target_result=imap_y.target
        )
        left = imap_y.morphism.compose(jet_tau_g)
        right = tau_jet_g.compose(imap_x.morphism)
        assert left.equals_mod_ideal(right)


def test_composition_triangle():
    cases = [
        (plain_scheme(("x",)), 2),
        (plain_scheme(("x", "y"), ["y - x^2"]), 1),
    ]
    e = op(dual_numbers())
    f = op(product_algebra(2))
    for scheme, m in cases:
        _, ef = compose_operators(e, f)
        imap_ef = interpolation_map(scheme, m, ef)
        imap_e = interpolation_map(scheme, m, e)
        imap_f = interpolation_map(imap_e.prolongation.scheme, m, f)
        composite = prolong_morphism(imap_e.morphism, f).compose(imap_f.morphism)
        # composed and iterated coordinates line up by renaming; the jet
        # coordinates already agree positionally
        assert imap_ef.source.z_variables == imap_f.source.z_variables
        source_rename = dict(prolong_composed(scheme, e, f).renaming)
        target_rename = dict(prolong_composed(imap_ef.jet.scheme, e, f).renaming)
        gb = groebner(list(composite.source.generators))
        for name, poly in imap_ef.assignment.items():
            lhs = transport(poly, composite.source.ctx, rename=source_rename)
            rhs = composite.assignment[target_rename[name]]
            delta = lhs - rhs
            if scheme.generators:
                assert ideal_member(delta, gb)
            else:
                assert delta.is_zero()


def test_truncation_quotient_square_commutes():
    curve = plain_scheme(("x", "y"), ["y - x^2"])
    e = op(truncated_algebra(1, 2))
    f = op(dual_numbers())
    alpha = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]
    for m in (1, 2):
        jetx = jet_scheme(curve, m)
        imap_e = interpolation_map(curve, m, e, jet=jetx)
        imap_f = interpolation_map(curve, m, f, jet=jetx)
        hat_x = compare_map(
            curve,
            alpha,
            e,
            f,
            source_result=imap_e.prolongation,
            target_result=imap_f.prolongation,
        )
        jet_hat = jet_morphism(
            hat_x, m, source_jet=imap_e.source, target_jet=imap_f.source
        )
        hat_jet = compare_map(
            jetx.scheme,
            alpha,
            e,
            f,
            source_result=imap_e.target,
            target_result=imap_f.target,
        )
        left = imap_f.morphism.compose(jet_hat)
        right = hat_jet.compose(imap_e.morphism)
        assert left.equals_mod_ideal(right)


def test_fiber_matrices_on_the_conic():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    m_src, m_tgt, phi = fiber_matrices_at(
        conic, 1, op(dual_numbers()), {"x": 1, "y": 0}
    )
    assert tuple(phi.row_labels) == ("z_1_0_0", "z_1_0_1", "z_0_1_0", "z_0_1_1")
    assert tuple(phi.col_labels) == (
        "z_1_0_0_0",
        "z_0_1_0_0",
        "z_0_0_1_0",
        "z_0_0_0_1",
    )
    eye = [
        [Fraction(int(i == j)) for j in range(4)] for i in range(4)
    ]
    assert phi.rows == eye
    two = Fraction(2)
    zero = Fraction(0)
    assert m_src.matrix.rows == [[two, zero, zero, zero], [zero, two, zero, zero]]
    assert m_tgt.matrix.rows == [[two, zero, zero, zero], [zero, two, zero, zero]]
    assert m_src.dimension == 2
    assert m_tgt.dimension == 2


def test_interpolated_jets_stay_in_the_target_fiber():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    operator = op(truncated_algebra(1, 2))
    point = {"x": Fraction(3, 5), "y": Fraction(4, 5)}
    m_src, m_tgt, phi = fiber_matrices_at(conic, 2, operator, point)
    kernel = m_src.kernel()
    assert kernel
    for vec in kernel:
        image = apply_matrix(phi, vec)
        assert all(v == 0 for v in apply_matrix(m_tgt.matrix, image))


def test_surjectivity_on_smooth_plane_curves():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    for algebra in (dual_numbers(), truncated_algebra(1, 2)):
        operator = op(algebra)
        for m in (1, 2):
            imap = interpolation_map(conic, m, operator)
            for s in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
                point = {
                    "x": (1 - s * s) / (1 + s * s),
                    "y": 2 * s / (1 + s * s),
                }
                report = check_surjectivity(
                    conic, m, operator, point, 1, interpolation=imap
                )
                assert report.status == "pass"
                assert bool(report)
                assert report.image_rank == report.target_kernel


def test_singular_point_is_skipped_not_failed():
    node = plain_scheme(("x", "y"), ["x^2 - y^2"])
    operator = op(dual_numbers())
    report = check_surjectivity(node, 1, operator, {"x": 0, "y": 0}, 1)
    assert report.status == "skip"
    assert "Jacobian rank 0" in report.reason
    assert not report
    smooth = check_surjectivity(node, 1, operator, {"x": 1, "y": 1}, 1)
    assert smooth.status == "pass"


def test_jacobian_rank_values():
    sphere = plain_scheme(("x", "y", "w"), ["x^2 + y^2 + w^2 - 1"])
    assert jacobian_rank(sphere, {"x": 0, "y": 0, "w": 1}) == 1
    cusp = plain_scheme(("x", "y"), ["y^2 - x^3"])
    assert jacobian_rank(cusp, {"x": 0, "y": 0}) == 0
    assert jacobian_rank(cusp, {"x": 1, "y": 1}) == 1


def test_affine_space_interpolation_is_onto():
    for r, m in ((1, 3), (2, 2)):
        space = plain_scheme(("x", "y")[:r])
        origin = {v: 0 for v in space.ctx.scheme_vars}
        for algebra in TRUNCATED_SMALL:
            operator = op(algebra)
            imap = interpolation_map(space, m, operator)
            m_src, m_tgt, phi = fiber_matrices_at(
                space, m, operator, origin, interpolation=imap
            )
            assert m_src.matrix.nrows == 0
            assert m_tgt.matrix.nrows == 0
            assert rank(phi) == phi.nrows
            report = check_surjectivity(
                space, m, operator, origin, r, interpolation=imap
            )
            assert report.status == "pass"
            assert report.target_kernel == len(imap.jet.indices) * algebra.rank


def test_reuse_guards_and_point_validation():
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    other = plain_scheme(("x", "y"), ["y - x^2"])
    operator = op(dual_numbers())
    imap = interpolation_map(conic, 1, operator)
    with pytest.raises(ValueError):
        fiber_matrices_at(other, 1, operator, {"x": 0, "y": 0}, interpolation=imap)
    with pytest.raises(ValueError):
        fiber_matrices_at(conic, 2, operator, {"x": 1, "y": 0}, interpolation=imap)
    with pytest.raises(ValueError):
        fiber_matrices_at(
            conic, 1, op(dual_numbers()), {"x": 1, "y": 0}, interpolation=imap
        )
    with pytest.raises(PointError):
        check_surjectivity(conic, 1, operator, {"x": 2, "y": 0}, 1)


def test_parameter_base_needs_specializing_for_fibers():
    base = RingContext(QQ, base_gens=("t",))
    ctx = RingContext(QQ, scheme_vars=("x",), base_gens=("t",))
    line = AffineScheme(ctx, [])
    std = standard_operator(dual_numbers(), base)
    with pytest.raises(NotScalarPointError, match="specialize the base"):
        check_surjectivity(line, 1, std, {"x": ctx.var("t")}, 1)


def test_a_fiber_over_base_parameter_coefficients_is_not_scalar():
    # at a scalar point the Jacobian of t*x - y, or the order-2 jet fiber of
    # t*x^2 - y, still depends on t: both raise, so the law can skip them
    base = RingContext(QQ, base_gens=("t",))
    ctx = RingContext(QQ, scheme_vars=("x", "y"), base_gens=("t",))
    dual = dual_numbers()
    ddt = RingOperator(
        dual, base, {"t": dual.element(base, [base.var("t"), base.const(1)])}
    )
    origin = {"x": 0, "y": 0}
    linear = AffineScheme(ctx, [parse_poly("t*x - y", ctx)])
    with pytest.raises(NotScalarPointError, match="Jacobian entries"):
        jacobian_rank(linear, origin)
    with pytest.raises(NotScalarPointError, match="Jacobian entries"):
        check_surjectivity(linear, 1, ddt, origin, 1)
    quadric = AffineScheme(ctx, [parse_poly("t*x^2 - y", ctx)])
    assert jacobian_rank(quadric, origin) == 1
    assert check_surjectivity(quadric, 1, ddt, origin, 1).status == "pass"
    with pytest.raises(NotScalarPointError, match="z_2_0_0_0\\*t"):
        check_surjectivity(quadric, 2, ddt, origin, 1)
    with pytest.raises(NotScalarPointError, match="z_2_0\\*t"):
        prolong.jets.jet_fiber(quadric, 2, origin)


def _algebra_specs():
    """Small algebras of every family the interpolation map meets."""
    rings = [dual_numbers(), product_algebra(2), dring_algebra(Fraction(-3, 2))]
    return st.one_of(
        st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]).map(
            lambda vo: truncated_algebra(*vo)
        ),
        st.integers(1, 3).map(product_algebra),
        st.sampled_from([0, 1, 2, Fraction(-3, 2)]).map(dring_algebra),
        st.tuples(st.sampled_from(rings), st.sampled_from(rings)).map(
            lambda ef: tensor(*ef)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(
    algebra=_algebra_specs(),
    field=st.sampled_from([QQ, GF(7)]),
    nvars=st.integers(1, 3),
    order=st.integers(1, 3),
)
def test_assignment_matches_the_reference_coefficients(algebra, field, nvars, order):
    # the map read off the generic point's expansion against the multinomial
    # coefficients of prod_i (sum_j y_ij e_j)^(beta_i)
    ctx = RingContext(field, scheme_vars=("x", "y", "w")[:nvars])
    operator = standard_operator(algebra, RingContext(field))
    imap = interpolation_map(AffineScheme(ctx, []), order, operator)
    assert imap.assignment == reference_interpolation_assignment(imap)


def test_no_second_expansion_of_the_generic_point():
    # the coefficients come from evaluate_in_algebra at the prolongation's
    # generic point; the multinomial expansion lives only in tests/helpers.py
    banned = {
        "multinomial",
        "gamma_indices",
        "interpolation_coefficients",
        "basis_power_expansion",
    }
    for path in sorted(Path(prolong.interpolation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & banned, path.name
        if path.name == "interpolation.py":
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert not imported & {"comb", "compositions"}
            assert "evaluate_in_algebra" in imported


def test_surjectivity_with_a_map_builds_no_jet_scheme(monkeypatch):
    conic = plain_scheme(("x", "y"), ["x^2 + y^2 - 1"])
    operator = op(truncated_algebra(1, 2))
    imap = interpolation_map(conic, 2, operator)
    calls = []

    def counting(scheme, order, real=prolong.jets.jet_scheme):
        calls.append(order)
        return real(scheme, order)

    monkeypatch.setattr(prolong.jets, "jet_scheme", counting)
    monkeypatch.setattr(prolong.interpolation, "jet_scheme", counting)
    point = {"x": Fraction(3, 5), "y": Fraction(4, 5)}
    report = check_surjectivity(conic, 2, operator, point, 1, interpolation=imap)
    assert report.status == "pass"
    assert calls == []


def test_fiber_matrices_equal_with_and_without_jet_reuse(monkeypatch):
    compared = 0
    for fx in load_fixtures(FIXTURES):
        if fx.scheme.is_algebra_mode or fx.operator is None or fx.dim is None:
            continue
        operators = [fx.operator]
        if fx.second_operator is not None:
            operators.append(fx.second_operator)
        rng = random.Random(fx.name)
        for operator in operators:
            for m in (1, 2):
                imap = interpolation_map(fx.scheme, m, operator)
                for p in fixture_points(fx, rng, 2):
                    try:
                        reused = fiber_matrices_at(
                            fx.scheme, m, operator, p, interpolation=imap
                        )
                    except NotScalarPointError:
                        continue
                    with monkeypatch.context() as patch:
                        patch.setattr(
                            prolong.interpolation,
                            "jet_fiber",
                            lambda *args, jet=None: prolong.jets.jet_fiber(*args),
                        )
                        rebuilt = fiber_matrices_at(
                            fx.scheme, m, operator, p, interpolation=imap
                        )
                    for a, b in zip(
                        (reused[0].matrix, reused[1].matrix, reused[2]),
                        (rebuilt[0].matrix, rebuilt[1].matrix, rebuilt[2]),
                    ):
                        assert a.rows == b.rows
                        assert a.row_labels == b.row_labels
                        assert a.col_labels == b.col_labels
                    compared += 1
    assert compared >= 30
