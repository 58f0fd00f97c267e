import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_algebra,
    dense_table,
    reference_algebra_mul,
    reference_algebra_violation,
    reference_basis_power_expansion,
    reference_evaluate_in_algebra,
    reference_product_algebra,
    reference_slot_mul,
    reference_tensor,
    reference_truncated_algebra,
    tensor_swap_permutation,
)
from prolong.scalars import GF, QQ
from prolong.polynomials import Monomial, MultiPoly, RingContext, parse_poly, substitute
from prolong.algebra import (
    ALGEBRA_RANK_BUDGET,
    AlgebraScheme,
    AlgebraValidationError,
    _slot_terms,
    dring_algebra,
    dual_numbers,
    evaluate_in_algebra,
    make_builtin,
    product_algebra,
    tensor,
    trivial_algebra,
    truncated_algebra,
)


GAUSS = {
    "basis": ["1", "e"],
    "mult": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
}


def test_trivial():
    t = trivial_algebra()
    assert t.rank == 1 and t.labels == ("1",)


def test_truncated_basis_order():
    dual = truncated_algebra(1, 1)
    assert dual.labels == ("1", "h")
    assert truncated_algebra(1, 2).labels == ("1", "h", "h^2")
    two = truncated_algebra(2, 2)
    assert two.labels == ("1", "h1", "h2", "h1^2", "h1*h2", "h2^2")
    assert two.name == "truncated(2,2)"
    table = dense_table(two)
    # h1 * h2 lands on the h1*h2 slot
    assert table[1][2][4] == 1 and sum(table[1][2]) == 1
    # truncation: h1^2 * h2 = 0
    assert all(v == 0 for v in table[3][2])


def test_dual_numbers_square_to_zero():
    dual = dual_numbers()
    ctx = RingContext(QQ, scheme_vars=("x",))
    eta = dual.element(ctx, [0, 1])
    assert (eta * eta).is_zero()
    assert dual.name == "truncated(1,1)"


def test_product_algebra():
    p2 = product_algebra(2)
    assert p2.labels == ("1", "u1")
    ctx = RingContext(QQ, scheme_vars=("x",))
    e1 = p2.element(ctx, [0, 1])
    assert e1 * e1 == e1
    # complementary idempotent 1 - e1
    f0 = p2.unit(ctx) - e1
    assert f0 * f0 == f0
    assert (f0 * e1).is_zero()
    p3 = product_algebra(3)
    assert p3.rank == 3
    u1 = p3.element(ctx, [0, 1, 0])
    u2 = p3.element(ctx, [0, 0, 1])
    assert (u1 * u2).is_zero() and u1 * u1 == u1


def test_dring():
    d0 = dring_algebra(0)
    assert d0.labels == ("1", "d")
    assert dense_table(d0)[1][1] == [Fraction(0), Fraction(0)]
    d1 = dring_algebra(1)
    ctx = RingContext(QQ, scheme_vars=("x",))
    e = d1.element(ctx, [0, 1])
    assert e * e == e
    dh = dring_algebra(Fraction(1, 2))
    e = dh.element(ctx, [0, 1])
    assert (e * e).slots[1] == ctx.const(Fraction(1, 2))
    assert dh.name == "dring(1/2)"


def test_custom_algebra_and_validation():
    gauss = make_builtin(GAUSS)
    ctx = RingContext(QQ, scheme_vars=("x",))
    i = gauss.element(ctx, [0, 1])
    assert (i * i).slots[0] == ctx.const(-1)
    bad_unit = [[[0, 1], [0, 1]], [[0, 1], [-1, 0]]]
    with pytest.raises(AlgebraValidationError, match="unit law.*e_0\\*e_0"):
        dense_algebra(["1", "e"], bad_unit)
    bad_comm = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(AlgebraValidationError, match="commutativity.*e_2, e_1"):
        dense_algebra(["1", "a", "b"], bad_comm)
    bad_assoc = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 0, 1]],
    ]
    with pytest.raises(AlgebraValidationError, match="associativity"):
        dense_algebra(["1", "a", "b"], bad_assoc)


def _violation(table):
    """The message reading ``table`` as a custom spec raises, or None."""
    try:
        dense_algebra([f"e{i}" for i in range(len(table))], table)
    except AlgebraValidationError as err:
        return str(err)
    return None


VALID_TABLES = [
    trivial_algebra(),
    dual_numbers(),
    truncated_algebra(1, 3),
    truncated_algebra(2, 2),
    product_algebra(3),
    dring_algebra(Fraction(2, 3)),
    make_builtin(GAUSS),
    tensor(product_algebra(2), dual_numbers()),
]
NUDGES = st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(-3, 4)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_validation_matches_the_dense_oracle_on_perturbed_tables(data):
    # a valid table with one structure constant moved, or with a cell and its
    # mirror moved together so that commutativity survives
    algebra = data.draw(st.sampled_from(VALID_TABLES))
    rank = algebra.rank
    table = dense_table(algebra)
    i, j, k = (data.draw(st.integers(0, rank - 1)) for _ in range(3))
    nudge = data.draw(NUDGES)
    table[i][j][k] += nudge
    if i != j and data.draw(st.booleans()):
        table[j][i][k] += nudge
    assert _violation(table) == reference_algebra_violation(table)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_validation_matches_the_dense_oracle_on_random_tables(data):
    # unital commutative tables with random cells off the unit, so that the
    # associativity check decides; a few random entries also break the unit
    rank = data.draw(st.integers(1, 4))
    entry = st.sampled_from([Fraction(0)] * 4 + [Fraction(v) for v in (1, -1, 0.5)])
    table = [[[Fraction(0)] * rank for _ in range(rank)] for _ in range(rank)]
    for j in range(rank):
        table[0][j][j] = table[j][0][j] = Fraction(1)
    for i in range(1, rank):
        for j in range(i, rank):
            cell = [data.draw(entry) for _ in range(rank)]
            table[i][j], table[j][i] = cell, list(cell)
    if data.draw(st.integers(0, 4)) == 0:
        a, b, k = (data.draw(st.integers(0, rank - 1)) for _ in range(3))
        table[a][b][k] = data.draw(entry)
    assert _violation(table) == reference_algebra_violation(table)


def test_algebra_rank_budget_is_checked_before_the_table():
    assert truncated_algebra(1, ALGEBRA_RANK_BUDGET - 1).rank == ALGEBRA_RANK_BUDGET
    assert product_algebra(ALGEBRA_RANK_BUDGET).rank == ALGEBRA_RANK_BUDGET
    over = [
        {"builtin": "truncated", "vars": 1, "order": ALGEBRA_RANK_BUDGET},
        {"builtin": "truncated", "vars": 10**9, "order": 10**9},
        {"builtin": "truncated", "vars": 3, "order": 5},
        {"builtin": "truncated", "vars": ALGEBRA_RANK_BUDGET + 1, "order": 0},
        {"builtin": "product", "n": ALGEBRA_RANK_BUDGET + 1},
        # the table is never read: refused on the basis length alone
        {"basis": ["x"] * (ALGEBRA_RANK_BUDGET + 1), "mult": []},
    ]
    for spec in over:
        budget = f"budget {ALGEBRA_RANK_BUDGET}$"
        with pytest.raises(AlgebraValidationError, match=budget):
            make_builtin(spec)


small_builtins = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(0, 3)).map(
        lambda nm: (truncated_algebra(*nm), reference_truncated_algebra(*nm))
    ),
    st.integers(1, 6).map(lambda n: (product_algebra(n), reference_product_algebra(n))),
)


def _same_algebra(built: AlgebraScheme, reference: AlgebraScheme) -> bool:
    return (dense_table(built), built.labels, built.name) == (
        dense_table(reference),
        reference.labels,
        reference.name,
    )


@settings(max_examples=30, deadline=None)
@given(small_builtins, small_builtins)
def test_sparse_tables_match_the_dense_references(left, right):
    (e, e_ref), (f, f_ref) = left, right
    assert _same_algebra(e, e_ref) and _same_algebra(f, f_ref)
    if e.rank * f.rank <= ALGEBRA_RANK_BUDGET:
        assert _same_algebra(tensor(e, f), reference_tensor(e, f))


one_algebra = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(0, 3)).map(
        lambda nm: truncated_algebra(*nm)
    ),
    st.integers(1, 6).map(product_algebra),
    st.fractions(-3, 3, max_denominator=4).map(dring_algebra),
    st.just(trivial_algebra()),
    st.just(make_builtin(GAUSS)),
)


def _tensor_within_budget(e, f):
    return tensor(e, f) if e.rank * f.rank <= ALGEBRA_RANK_BUDGET else e


algebras = st.one_of(
    one_algebra,
    st.tuples(one_algebra, one_algebra).map(lambda ef: _tensor_within_budget(*ef)),
)


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_algebras_read_back_from_their_dense_tables(algebra):
    back = dense_algebra(algebra.labels, dense_table(algebra), algebra.name)
    assert (back.terms, back.labels, back.name) == (
        algebra.terms,
        algebra.labels,
        algebra.name,
    )
    assert back == algebra and hash(back) == hash(algebra)


def test_make_builtin():
    assert make_builtin({"builtin": "trivial"}).rank == 1
    assert make_builtin({"builtin": "truncated", "vars": 1, "order": 2}).rank == 3
    assert make_builtin({"builtin": "product", "n": 2}).labels == ("1", "u1")
    assert dense_table(make_builtin({"builtin": "dring", "c": "1"}))[1][1][1] == 1
    third = make_builtin({"builtin": "dring", "c": "1/3"})
    assert dense_table(third)[1][1][1] == Fraction(1, 3)
    assert make_builtin(GAUSS).labels == ("1", "e")
    with pytest.raises(ValueError):
        make_builtin({"builtin": "nope"})
    with pytest.raises(ValueError):
        make_builtin({"basis": ["1"]})


def test_elem_arithmetic_properties():
    rng = random.Random(31)
    ctx = RingContext(QQ, scheme_vars=("x",))
    for alg in (dual_numbers(), product_algebra(3), dring_algebra(2), make_builtin(GAUSS)):
        for _ in range(10):
            a, b, c = (
                alg.element(ctx, [Fraction(rng.randrange(-3, 4)) for _ in range(alg.rank)])
                for _ in range(3)
            )
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert alg.unit(ctx) * a == a


def test_elem_over_polynomials():
    dual = dual_numbers()
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=())
    t = ctx.var("t")
    e = dual.element(ctx, [t, ctx.one()])
    sq = e * e
    assert sq.slots == (t * t, 2 * t)
    assert (sq * e).slots == (t * t * t, 3 * t * t)


def test_elem_mismatch_errors():
    ctx = RingContext(QQ, scheme_vars=("x",))
    other = RingContext(QQ, scheme_vars=("y",))
    dual = dual_numbers()
    with pytest.raises(ValueError):
        dual.element(ctx, [1])
    with pytest.raises(ValueError):
        dual.element(ctx, [0, 1]) * product_algebra(2).element(ctx, [0, 1])
    with pytest.raises(ValueError):
        dual.element(ctx, [0, 1]) + dual.element(other, [0, 1])


def test_tensor_dual_dual():
    dd = tensor(dual_numbers(), dual_numbers())
    assert dd.rank == 4
    assert dd.labels == ("1", "h2", "h1", "h1*h2")
    ctx = RingContext(QQ, scheme_vars=("x",))
    eta1 = dd.element(ctx, [0, 0, 1, 0])
    eta2 = dd.element(ctx, [0, 1, 0, 0])
    assert (eta1 * eta1).is_zero() and (eta2 * eta2).is_zero()
    assert (eta1 * eta2).slots[3] == ctx.one()


def test_tensor_product_dual():
    pd = tensor(product_algebra(2), dual_numbers())
    assert pd.rank == 4
    assert pd.labels == ("1", "h", "u1", "u1*h")
    ctx = RingContext(QQ, scheme_vars=("x",))
    u = pd.element(ctx, [0, 0, 1, 0])
    h = pd.element(ctx, [0, 1, 0, 0])
    assert u * u == u
    assert (h * h).is_zero()
    assert (u * h).slots[3] == ctx.one()


def test_tensor_trivial_is_relabel():
    f = truncated_algebra(1, 2)
    tf = tensor(trivial_algebra(), f)
    assert tf.rank == f.rank and tf.terms == f.terms and tf.labels == f.labels


def test_tensor_swap_permutation():
    for e, f in (
        (dual_numbers(), truncated_algebra(1, 2)),
        (product_algebra(2), dual_numbers()),
        (make_builtin(GAUSS), product_algebra(3)),
    ):
        ef = tensor(e, f)
        fe = tensor(f, e)
        ef_table, fe_table = dense_table(ef), dense_table(fe)
        pi = tensor_swap_permutation(e, f)
        assert sorted(pi) == list(range(ef.rank))
        for i in range(ef.rank):
            for j in range(ef.rank):
                for k in range(ef.rank):
                    assert ef_table[i][j][k] == fe_table[pi[i]][pi[j]][pi[k]]


def test_basis_power_expansion():
    dual = dual_numbers()
    assert reference_basis_power_expansion(dual, (3, 0)) == (1, 0)
    assert reference_basis_power_expansion(dual, (0, 1)) == (0, 1)
    assert reference_basis_power_expansion(dual, (0, 2)) == (0, 0)
    t12 = truncated_algebra(1, 2)
    assert reference_basis_power_expansion(t12, (0, 2, 0)) == (0, 0, 1)
    assert reference_basis_power_expansion(t12, (0, 1, 1)) == (0, 0, 0)
    assert reference_basis_power_expansion(t12, (5, 0, 0)) == (1, 0, 0)
    p2 = product_algebra(2)
    assert reference_basis_power_expansion(p2, (0, 2)) == (0, 1)
    gauss = make_builtin(GAUSS)
    assert reference_basis_power_expansion(gauss, (0, 2)) == (-1, 0)
    with pytest.raises(ValueError):
        reference_basis_power_expansion(dual, (1, 2, 3))


def test_expansion_unit_laws_local_algebras():
    # weight concentrated on the unit slot expands to the unit; any gamma with
    # weight off the unit slot has zero unit coefficient in a local algebra
    for alg in (
        truncated_algebra(1, 1),
        truncated_algebra(1, 3),
        truncated_algebra(2, 2),
        truncated_algebra(3, 1),
    ):
        for m in range(4):
            gamma = [0] * alg.rank
            gamma[0] = m
            assert reference_basis_power_expansion(alg, gamma) == tuple(
                [Fraction(1)] + [Fraction(0)] * (alg.rank - 1)
            )
        rng = random.Random(alg.rank)
        for _ in range(20):
            gamma = [rng.randrange(3) for _ in range(alg.rank)]
            if all(g == 0 for g in gamma[1:]):
                continue
            assert reference_basis_power_expansion(alg, gamma)[0] == 0


def test_evaluate_in_algebra():
    dual = dual_numbers()
    base = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    p = parse_poly("x^2 - t", base)
    te = dual.element(base, [base.var("t"), base.one()])
    xe = dual.element(base, [base.var("x"), base.zero()])
    value = evaluate_in_algebra(p, {"x": xe, "t": te}, dual, base)
    assert value.slots == (p, -base.one())
    with pytest.raises(ValueError):
        evaluate_in_algebra(p, {"x": xe}, dual, base)


def test_evaluate_in_algebra_gf():
    ctx = RingContext(GF(5), scheme_vars=("x",))
    dual = dual_numbers()
    xe = dual.element(ctx, [ctx.var("x"), ctx.one()])
    value = evaluate_in_algebra(ctx.var("x") ** 5, {"x": xe}, dual, ctx)
    # d(x^5) = 5x^4 = 0 in characteristic five
    assert value.slots[1].is_zero()
    assert value.slots[0] == ctx.var("x") ** 5


def test_structure_constants_are_read_in_the_field():
    """e_1 * e_1 = -3/2 e_1 in dring(-3/2), and -3/2 is 2 in GF(7), both in
    the packed product and in evaluation."""
    gf7 = GF(7)
    ctx = RingContext(gf7, scheme_vars=("x",))
    d = dring_algebra(Fraction(-3, 2))
    x = ctx.var("x")
    e = d.element(ctx, [0, x])
    assert (e * e).slots == (ctx.zero(), x**2 * 2)
    assert d.product(gf7, [[], [(1, 1, 1)]], [[], [(1, 1, 1)]]) == [[], [(2, 2, 2)]]
    cube = evaluate_in_algebra(x**3, {"x": e}, d, ctx)
    assert cube.slots == (ctx.zero(), x**3 * 4)


# -- differential tests against the term-by-term reference arithmetic ---------

ALGEBRAS = [
    dual_numbers(),
    truncated_algebra(1, 3),
    truncated_algebra(2, 2),
    product_algebra(3),
    dring_algebra(1),
    dring_algebra(Fraction(-3, 2)),
    dring_algebra(7),  # zero in GF(7), nonzero over the rationals
    tensor(dual_numbers(), product_algebra(2)),
]
FIELDS = [QQ, GF(7)]
differential = settings(max_examples=120, deadline=None)


@st.composite
def polys(draw, ctx, max_terms=3):
    """A random polynomial of degree at most 2; empty for the zero slot."""
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
def elements(draw, algebra, ctx):
    return algebra.element(ctx, [draw(polys(ctx)) for _ in range(algebra.rank)])


def target_ctx(field):
    return RingContext(field, base_gens=("t",), scheme_vars=("x", "y"))


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


@differential
@given(st.data(), st.sampled_from(ALGEBRAS), st.sampled_from(FIELDS))
def test_product_matches_reference(data, algebra, field):
    ctx = target_ctx(field)
    a = data.draw(elements(algebra, ctx))
    b = data.draw(elements(algebra, ctx))
    assert a * b == reference_algebra_mul(a, b)


@differential
@given(st.data(), st.sampled_from(ALGEBRAS), st.sampled_from(FIELDS))
def test_product_matches_the_slotwise_reference(data, algebra, field):
    """The packed product keeps every slot's terms, and their order, as
    summing Monomial-keyed dicts slot by slot does."""
    ctx = target_ctx(field)
    a = data.draw(elements(algebra, ctx))
    b = data.draw(elements(algebra, ctx))
    got, want = a * b, reference_slot_mul(a, b)
    assert [list(s.coeffs.items()) for s in got.slots] == [
        list(s.coeffs.items()) for s in want.slots
    ]


@differential
@given(st.data(), st.sampled_from(ALGEBRAS), st.sampled_from(FIELDS))
def test_packed_product_matches_the_slotwise_reference(data, algebra, field):
    """The structure-constant product that evaluation chains on per-slot
    (packed exponents, coefficient, degree) lists gives each slot's reduced
    terms in the slotwise reference's order."""
    ctx = target_ctx(field)
    a = data.draw(elements(algebra, ctx))
    b = data.draw(elements(algebra, ctx))
    got = algebra.product(field, _slot_terms(a), _slot_terms(b))
    assert got == _slot_terms(reference_slot_mul(a, b))


@differential
@given(st.data(), st.sampled_from(ALGEBRAS), st.sampled_from(FIELDS))
def test_evaluation_matches_reference(data, algebra, field):
    ctx = target_ctx(field)
    source = RingContext(field, base_gens=("s",), scheme_vars=("a", "b"))
    poly = data.draw(polys(source, max_terms=6))
    assignment = {v: data.draw(elements(algebra, ctx)) for v in ("a", "b", "s")}
    assert evaluate_in_algebra(
        poly, assignment, algebra, ctx
    ) == reference_evaluate_in_algebra(poly, assignment, algebra, ctx)


@differential
@given(st.data(), st.sampled_from(ALGEBRAS), st.sampled_from(FIELDS))
def test_mismatches_raise_like_reference(data, algebra, field):
    ctx = target_ctx(field)
    other_ctx = RingContext(field, scheme_vars=("z",))
    other = trivial_algebra()
    a = data.draw(elements(algebra, ctx))
    for b in (other.unit(ctx), algebra.unit(other_ctx)):
        assert raised(lambda: a * b) == raised(reference_algebra_mul, a, b)
    source = RingContext(field, scheme_vars=("a", "b"))
    # every term involves b, so its assigned value is always used
    drawn = data.draw(polys(source))
    poly = (source.one() if drawn.is_zero() else drawn) * source.var("b")
    for bad in (other.unit(ctx), algebra.unit(other_ctx), None):
        assignment = {"a": a} if bad is None else {"a": a, "b": bad}
        message = raised(evaluate_in_algebra, poly, assignment, algebra, ctx)
        assert message == raised(
            reference_evaluate_in_algebra, poly, assignment, algebra, ctx
        )


@differential
@given(st.data(), st.sampled_from(FIELDS), st.sampled_from(["scalar", "poly", "mixed"]))
def test_substitute_is_evaluation_in_the_trivial_algebra(data, field, images):
    """``substitute`` agrees with slot 0 of ``evaluate_in_algebra`` over the
    trivial algebra once unassigned variables and base generators are
    assigned to themselves, with scalar, polynomial or mixed images."""
    ctx = target_ctx(field)
    source = RingContext(field, base_gens=("t",), scheme_vars=("a", "b", "y"))
    poly = data.draw(polys(source, max_terms=6))
    scalar = {"scalar": "ab", "poly": "", "mixed": data.draw(st.sampled_from("ab"))}
    assignment = {}
    for name in ("a", "b"):
        if name in scalar[images]:
            num, den = data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3))
            assignment[name] = ctx.const(Fraction(num, den))
        else:
            assignment[name] = data.draw(polys(ctx))
    trivial = trivial_algebra()
    values = {n: trivial.element(ctx, [v]) for n, v in assignment.items()}
    values.update((n, trivial.element(ctx, [ctx.var(n)])) for n in ("y", "t"))
    evaluated = evaluate_in_algebra(poly, values, trivial, ctx)
    assert substitute(poly, assignment, ctx) == evaluated.slots[0]
