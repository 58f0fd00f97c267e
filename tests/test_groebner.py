import ast
import hashlib
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    CYCLIC5_BASIS_SHA256,
    TRIANGLE_BASIS_SHA256,
    count_zero_reductions,
    cyclic,
    matrix_product,
    reference_groebner,
    reference_normal_form,
    s_polynomial,
    solve_linear,
)
import prolong
from prolong.scalars import GF, QQ
from prolong.weil import AffineScheme, PolyMorphism
from prolong.polynomials import (
    Monomial,
    MultiPoly,
    RingContext,
    parse_poly,
    poly_to_str,
    random_poly,
)
from prolong.groebner import (
    EngineLimitError,
    _in_span,
    ExactMatrix,
    GroebnerBasis,
    apply_matrix,
    first_nonmember,
    groebner,
    ideal_equal,
    ideal_member,
    kernel_basis,
    normal_form,
    rank,
)


def ctx_xy():
    return RingContext(QQ, scheme_vars=("x", "y"))


def test_groebner_trivial_cases():
    ctx = ctx_xy()
    x = ctx.var("x")
    gb = groebner([x])
    assert gb.gens == (x,)
    assert groebner([]).gens == ()
    assert groebner([ctx.zero()]).gens == ()
    assert groebner([2 * x]).gens == (x,)


def test_groebner_hand_elimination():
    ctx = RingContext(QQ, scheme_vars=("x",))
    f = parse_poly("x^2 - 1", ctx)
    g = parse_poly("x^3 - 1", ctx)
    gb = groebner([f, g])
    assert [poly_to_str(p) for p in gb.gens] == ["x - 1"]


def test_groebner_idempotent():
    ctx = ctx_xy()
    gens = [parse_poly("x^2 + y", ctx), parse_poly("x*y - 1", ctx)]
    gb = groebner(gens)
    again = groebner(gb.gens)
    assert again.gens == gb.gens


def test_buchberger_criterion_holds_on_output():
    ctx = ctx_xy()
    rng = random.Random(17)
    for _ in range(8):
        gens = [random_poly(ctx, rng, max_degree=2, max_terms=3) for _ in range(2)]
        gb = groebner(gens)
        for i in range(len(gb.gens)):
            for j in range(i):
                s = s_polynomial(gb.gens[i], gb.gens[j])
                assert normal_form(s, gb.gens).is_zero()


def test_normal_form_linear():
    ctx = ctx_xy()
    gb = groebner([parse_poly("x^2 - y", ctx), parse_poly("y^2 - 1", ctx)])
    rng = random.Random(23)
    for _ in range(10):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        left = gb.normal_form(p * a + q * b)
        right = gb.normal_form(p) * a + gb.normal_form(q) * b
        assert left == right


def test_ideal_member():
    ctx = ctx_xy()
    x = ctx.var("x")
    assert ideal_member(x * x, [x])
    assert not ideal_member(x + 1, [x * x])
    assert ideal_member(ctx.zero(), [])
    assert not ideal_member(ctx.one(), [])
    # intersection-style membership needing an actual basis computation
    gens = [parse_poly("x^2 + y^2 - 1", ctx), parse_poly("x - y", ctx)]
    assert ideal_member(parse_poly("2*y^2 - 1", ctx), gens)
    assert not ideal_member(parse_poly("x", ctx), gens)


def test_ideal_equal_representations():
    ctx = ctx_xy()
    a = [parse_poly("x^2 - y", ctx), parse_poly("y - 1", ctx)]
    b = [parse_poly("x^2 - 1", ctx), parse_poly("y - 1", ctx)]
    c = [parse_poly("x^2 - y", ctx), parse_poly("x^2 - 1", ctx)]
    assert ideal_equal(a, b) and ideal_equal(b, c) and ideal_equal(a, c)
    assert ideal_equal(a, a)
    assert not ideal_equal(a, [parse_poly("x - 1", ctx)])
    assert ideal_equal([], [ctx.zero()])


def test_ideal_equal_gf():
    ctx = RingContext(GF(7), scheme_vars=("x", "y"))
    a = [parse_poly("x^2 + y", ctx)]
    b = [parse_poly("3*x^2 + 3*y", ctx)]
    assert ideal_equal(a, b)


def _set_pair_limit(monkeypatch, limit: int) -> None:
    module = importlib.import_module("prolong.groebner")
    monkeypatch.setattr(module, "DEFAULT_PAIR_LIMIT", limit)


def test_engine_limit(monkeypatch):
    ctx = ctx_xy()
    gens = [parse_poly("x^2 + y", ctx), parse_poly("x*y - 1", ctx)]
    _set_pair_limit(monkeypatch, 0)
    with pytest.raises(EngineLimitError):
        groebner(gens)
    with pytest.raises(EngineLimitError):
        ideal_equal(gens, [ctx.var("x")])


def test_criteria_skip_pairs_that_reduce_to_zero(monkeypatch):
    # cyclic-3: the Koszul syzygies leave no J-pair to reduce; cyclic-4
    # takes exactly four J-pair reductions
    ctx = RingContext(QQ, scheme_vars=("x", "y", "z"))
    texts = ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
    gens = [parse_poly(t, ctx) for t in texts]
    _set_pair_limit(monkeypatch, 0)
    assert groebner(gens).gens == reference_groebner(gens)
    gens = cyclic(4)
    _set_pair_limit(monkeypatch, 4)
    assert groebner(gens).gens == reference_groebner(gens)
    _set_pair_limit(monkeypatch, 3)
    with pytest.raises(EngineLimitError):
        groebner(gens)


def _parabola_triangle():
    """Criterion 08's parabola triangle at m = 1 over dual (x) product(2):
    the generators of the iterated map's source, 8 in 16 variables."""
    plain = RingContext(QQ)
    e = prolong.standard_operator(prolong.dual_numbers(), plain)
    f = prolong.standard_operator(prolong.product_algebra(2), plain)
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    parabola = AffineScheme(ctx, [parse_poly("y - x^2", ctx)])
    imap_e = prolong.interpolation_map(parabola, 1, e)
    pro = imap_e.prolongation
    imap_f = prolong.interpolation_map(pro.scheme, 1, f, jet=imap_e.source)
    return list(imap_f.source.scheme.generators)


@pytest.mark.parametrize(
    "system, reductions, size, digest",
    [
        (lambda: cyclic(5), 34, 20, CYCLIC5_BASIS_SHA256),
        (_parabola_triangle, 95, 56, TRIANGLE_BASIS_SHA256),
    ],
    ids=["cyclic-5", "parabola-triangle"],
)
def test_rewritten_signatures_are_skipped(
    monkeypatch, system, reductions, size, digest
):
    # a signature is reduced only when one of its pairs multiplies its
    # rewriter, so cyclic-5 takes 34 J-pair reductions (58 without the
    # criterion) and the triangle 95 (220); the bases are the recorded ones
    gens = system()
    _set_pair_limit(monkeypatch, reductions)
    basis = groebner(gens).gens
    text = "\n".join(poly_to_str(g) for g in basis)
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    _set_pair_limit(monkeypatch, reductions - 1)
    with pytest.raises(EngineLimitError):
        groebner(gens)


def test_a_singular_reduction_leaves_no_signature_uncovered():
    # the rewriter is the element whose multiple has the least leading
    # monomial; the latest element as rewriter leaves the signatures above
    # a singular reduction uncovered, and the basis here came out as (y, t)
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x", "y"))
    gens = [parse_poly(t, ctx) for t in ("x*y*t + 1", "t^3 + x*y + t", "y^2")]
    assert groebner(gens).gens == reference_groebner(gens) == (ctx.one(),)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_cyclic_four_matches_the_reference_engine(field):
    gens = cyclic(4, field)
    assert groebner(gens).gens == reference_groebner(gens)


def test_no_division_ends_in_zero_on_cyclic_three(monkeypatch):
    gens = cyclic(3)
    outcomes = count_zero_reductions(monkeypatch)
    assert groebner(gens).gens == reference_groebner(gens)
    assert outcomes and not any(outcomes)


def test_groebner_basis_container():
    ctx = ctx_xy()
    gb = groebner([parse_poly("x - y", ctx)])
    assert isinstance(gb, GroebnerBasis)
    assert gb.contains(parse_poly("x^2 - y^2", ctx))
    assert gb.normal_form(parse_poly("x + y", ctx)) == parse_poly("2*y", ctx)


def test_matrix_rank_and_kernel():
    ident = ExactMatrix(QQ, [[1, 0], [0, 1]])
    assert rank(ident) == 2 and kernel_basis(ident) == []
    zero = ExactMatrix(QQ, [[0, 0, 0], [0, 0, 0]])
    assert rank(zero) == 0
    assert len(kernel_basis(zero)) == 3
    m = ExactMatrix(QQ, [[2, 0], [0, 0]])
    assert rank(m) == 1
    assert kernel_basis(m) == [[Fraction(0), Fraction(1)]]
    # rank + nullity = columns
    rng = random.Random(7)
    for _ in range(10):
        rows = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(3)]
        mat = ExactMatrix(QQ, rows)
        assert rank(mat) + len(kernel_basis(mat)) == 4
        for vec in kernel_basis(mat):
            assert all(v == 0 for v in apply_matrix(mat, vec))


def test_matrix_kernel_canonical():
    # x + y + z = 0 has free columns 1 and 2
    m = ExactMatrix(QQ, [[1, 1, 1]])
    assert kernel_basis(m) == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(1)],
    ]


def test_matrix_empty_and_labels():
    m = ExactMatrix(QQ, [], col_labels=("a", "b"))
    assert m.ncols == 2 and rank(m) == 0 and len(kernel_basis(m)) == 2
    with pytest.raises(ValueError):
        ExactMatrix(QQ, [[1], [1, 2]])
    with pytest.raises(ValueError):
        ExactMatrix(QQ, [[1, 2]], row_labels=("r1", "r2"))


def test_matrix_gf():
    m = ExactMatrix(GF(5), [[2, 1], [4, 2]])
    assert rank(m) == 1
    (vec,) = kernel_basis(m)
    assert apply_matrix(m, vec) == [0, 0]


def test_solve_and_product():
    m = ExactMatrix(QQ, [[1, 2], [3, 4]])
    sol = solve_linear(m, [5, 11])
    assert sol == [Fraction(1), Fraction(2)]
    assert solve_linear(ExactMatrix(QQ, [[1, 1], [1, 1]]), [0, 1]) is None
    p = matrix_product(m, ExactMatrix(QQ, [[0, 1], [1, 0]]))
    assert p.rows == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]


# -- differential checks against the reference engine in tests/helpers.py ------

FIELDS = {"QQ": QQ, "GF(7)": GF(7)}


@st.composite
def rings(draw):
    """x, y over QQ or GF(7), optionally with the base generator t."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    base = ("t",) if draw(st.booleans()) else ()
    return RingContext(field, base_gens=base, scheme_vars=("x", "y"))


def _monomials(nvars: int, degree: int = 3) -> list:
    if nvars == 0:
        return [Monomial()]
    return [
        Monomial([(0, e), *((i + 1, f) for i, f in m.exps)])
        for e in range(degree + 1)
        for m in _monomials(nvars - 1, degree - e)
    ]


@st.composite
def polys(draw, ctx, max_terms=4):
    """A nonzero polynomial of total degree at most 3."""
    monos = draw(
        st.lists(
            st.sampled_from(_monomials(ctx.nvars)),
            min_size=1,
            max_size=max_terms,
            unique=True,
        )
    )
    if ctx.field.is_rational:
        numerator = st.integers(1, 5) | st.integers(-5, -1)
        coeff = st.builds(Fraction, numerator, st.integers(1, 3))
    else:
        coeff = st.integers(1, 6)
    return MultiPoly(ctx, {m: draw(coeff) for m in monos})


engine = settings(max_examples=120, deadline=None)


@engine
@given(st.data(), rings())
def test_groebner_matches_reference_engine(data, ctx):
    gens = data.draw(st.lists(polys(ctx), min_size=1, max_size=3))
    assert groebner(gens).gens == reference_groebner(gens)


@engine
@given(st.data(), rings())
def test_normal_form_matches_reference_division(data, ctx):
    poly = data.draw(polys(ctx, max_terms=6))
    divisors = data.draw(st.lists(polys(ctx), min_size=0, max_size=3))
    assert normal_form(poly, divisors) == reference_normal_form(poly, divisors)


@engine
@given(st.data(), rings())
def test_normal_form_is_idempotent_on_reduced_bases(data, ctx):
    gb = groebner(data.draw(st.lists(polys(ctx), min_size=1, max_size=3)))
    poly = data.draw(polys(ctx, max_terms=6))
    remainder = normal_form(poly, gb.gens)
    assert normal_form(remainder, gb.gens) == remainder
    assert gb.contains(poly - remainder)


# -- the span certificate and its exact fallback --------------------------------


def _reference_member(poly, gens) -> bool:
    return reference_normal_form(poly, reference_groebner(gens)).is_zero()


def _shift(data, ctx, g):
    """g times a nonconstant monomial: in the ideal (g), never in its K-span."""
    mono = data.draw(st.sampled_from([m for m in _monomials(ctx.nvars) if m.deg]))
    return MultiPoly(ctx, {mono: ctx.field.one}) * g


def _moved(scheme, deltas):
    """The identity of ``scheme`` and the map that adds ``deltas`` to x, y."""
    ctx = scheme.ctx
    plane = AffineScheme(ctx, [])
    shifted = {v: ctx.var(v) + d for v, d in zip(("x", "y"), deltas)}
    identity = {v: ctx.var(v) for v in ("x", "y")}
    return PolyMorphism(scheme, plane, identity), PolyMorphism(scheme, plane, shifted)


@engine
@given(st.data(), rings())
def test_equal_ideals_the_certificate_misses_fall_back(data, ctx):
    g = data.draw(polys(ctx))
    xg = _shift(data, ctx, g)
    assert not _in_span([xg], [g])
    assert ideal_equal([g], [g, xg]) and ideal_equal([g, xg], [g])
    assert ideal_member(xg, [g])
    identity, moved = _moved(AffineScheme(ctx, [g]), [xg, ctx.zero()])
    assert identity.equals_mod_ideal(moved)


@engine
@given(st.data(), rings())
def test_equal_echelon_forms_settle_equality_without_a_basis(data, ctx):
    # an invertible recombination of a list spans the same K-space, so its
    # reduced echelon form is the list's: neither the span certificate nor
    # a basis is needed
    gens = data.draw(st.lists(polys(ctx), min_size=1, max_size=3))
    n = len(gens)
    coeff = st.integers(-3, 3).map(ctx.field.coerce)
    matrix = [[data.draw(coeff) for _ in range(n)] for _ in range(n)]
    assume(rank(ExactMatrix(ctx.field, matrix)) == n)
    mixed = [sum((c * g for c, g in zip(row, gens)), ctx.zero()) for row in matrix]

    def no_basis(*args):
        raise AssertionError("the equal-echelon certificate did not settle it")

    module = importlib.import_module("prolong.groebner")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "groebner", no_basis)
        patch.setattr(module, "_in_span", no_basis)
        assert ideal_equal(gens, mixed) and ideal_equal(mixed, gens)


@engine
@given(st.data(), rings())
def test_unequal_ideals_stay_unequal(data, ctx):
    gens = data.draw(st.lists(polys(ctx), min_size=1, max_size=2))
    extra = data.draw(polys(ctx))
    assume(not _reference_member(extra, gens))
    bigger = gens + [extra]
    assert not ideal_equal(gens, bigger) and not ideal_equal(bigger, gens)
    assert not ideal_member(extra, gens)
    identity, moved = _moved(AffineScheme(ctx, gens), [ctx.zero(), extra])
    assert not identity.equals_mod_ideal(moved)


@engine
@given(st.data(), rings())
def test_ideal_questions_match_the_reference_engine(data, ctx):
    gens = data.draw(st.lists(polys(ctx), min_size=0, max_size=3))
    # multiplier sums: constants stay in the span, polynomials leave it,
    # and an optional stray term usually leaves the ideal
    candidates = []
    for _ in range(2):
        poly = ctx.zero()
        for g in gens:
            if data.draw(st.booleans()):
                multiplier = data.draw(polys(ctx, max_terms=2))
                if data.draw(st.booleans()):
                    multiplier = ctx.const(data.draw(st.integers(1, 6)))
                poly = poly + multiplier * g
        if not gens or data.draw(st.booleans()):
            poly = poly + data.draw(polys(ctx, max_terms=2))
        candidates.append(poly)
    members = [_reference_member(p, gens) for p in candidates]
    assert [ideal_member(p, gens) for p in candidates] == members
    others = data.draw(st.lists(polys(ctx), min_size=0, max_size=2))
    same = reference_groebner(gens) == reference_groebner(others)
    assert ideal_equal(gens, others) == same == ideal_equal(others, gens)
    assert ideal_equal(gens, gens + candidates) == all(members)
    identity, moved = _moved(AffineScheme(ctx, gens), candidates)
    assert identity.equals_mod_ideal(moved) == all(members)


@engine
@given(st.data(), rings())
def test_is_morphism_falls_back_to_a_basis(data, ctx):
    g = data.draw(polys(ctx))
    xg = _shift(data, ctx, g)
    assert not _in_span([xg], [g])
    source = AffineScheme(ctx, [g])
    line = RingContext(ctx.field, scheme_vars=("u",))
    target = AffineScheme(line, [line.var("u")])
    assert PolyMorphism(source, target, {"u": xg}).is_morphism()
    extra = data.draw(polys(ctx, max_terms=2))
    assume(not _reference_member(extra, [g]))
    assert not PolyMorphism(source, target, {"u": xg + extra}).is_morphism()


@engine
@given(st.data(), rings())
def test_first_nonmember_matches_the_reference_engine(data, ctx):
    gens = data.draw(st.lists(polys(ctx), min_size=1, max_size=3))
    # members (multiplier sums, inside the span or not) mixed with strays
    candidates = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            poly = data.draw(polys(ctx, max_terms=2))
        else:
            poly = ctx.zero()
            for g in gens:
                poly = poly + data.draw(polys(ctx, max_terms=2)) * g
        candidates.append(poly)
    reference = reference_groebner(gens)
    misses = [
        i
        for i, p in enumerate(candidates)
        if not reference_normal_form(p, reference).is_zero()
    ]
    expected = misses[0] if misses else None
    assert first_nonmember(candidates, gens) == expected
    assert first_nonmember(candidates, groebner(gens)) == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_first_nonmember_names_the_first_stray(field):
    ctx = RingContext(field, scheme_vars=("x", "y"))
    gens = [parse_poly(t, ctx) for t in ("x^2 + y^2 - 1", "x - y")]
    polys = [parse_poly(t, ctx) for t in ("x - y", "2*y^2 - 1", "x", "y")]
    assert first_nonmember(polys, gens) == 2
    assert first_nonmember(polys[:2], gens) is None
    assert first_nonmember(polys, groebner(gens)) == 2
    assert first_nonmember([ctx.zero(), ctx.one()], GroebnerBasis(())) == 1


def test_only_groebner_py_reaches_the_engine_internals():
    # the certificate-then-fallback policy lives in groebner.py alone; the
    # package's __init__ re-exports the public groebner function
    for path in sorted(Path(prolong.__file__).parent.glob("*.py")):
        if path.name == "groebner.py":
            continue
        banned = {"_in_span"}
        if path.name != "__init__.py":
            banned.add("groebner")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
                assert not names & banned, f"{path.name} imports {names & banned}"


def _names_used(tree) -> set:
    """Every name a module defines, imports or refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_prolong_is_built_without_a_base_change_scheme():
    # prolong expands each generator through the operator in one step, so no
    # algebra-coefficient scheme is built on the way; Weil restriction serves
    # only the weil command (the package's __init__ re-exports it)
    users = set()
    for path in sorted(Path(prolong.__file__).parent.glob("*.py")):
        names = _names_used(ast.parse(path.read_text()))
        assert "base_change_scheme" not in names, path.name
        if "weil_restrict" in names and path.name != "__init__.py":
            users.add(path.name)
    assert users == {"weil.py", "cli.py"}
