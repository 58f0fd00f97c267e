import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolong.scalars import GF, QQ
from prolong.polynomials import (
    MAX_EXPONENT,
    MONOMIAL_ONE,
    Monomial,
    MultiPoly,
    POWER_LIMIT,
    ParseError,
    RingContext,
    UnknownIdentifierError,
    compositions,
    exponents_up_to,
    grevlex_key,
    grlex_key,
    hasse_derivative,
    packed_guard,
    packed_lcm,
    packed_monomial,
    parse_poly,
    poly_to_str,
    random_poly,
    substitute,
    transport,
)
from helpers import (
    ReferenceMonomial,
    divided_power_oracle,
    evaluate,
    reference_compositions,
    reference_grevlex_key,
    reference_grlex_key,
    reference_poly_add,
    reference_poly_mul,
    reference_poly_sub,
    taylor_shift,
)


def test_field_basics():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    f5 = GF(5)
    assert f5.from_fraction(Fraction(1, 2)) == 3
    assert f5.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f5.from_fraction(Fraction(1, 5))
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(TypeError):
        QQ.coerce(True)
    assert GF(5) == GF(5) and GF(5) != GF(7) and QQ != GF(5)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """lcm(a, b) through the engine's packed route."""
    return packed_monomial(*packed_lcm(a, b, packed_guard(max(a.n, b.n))))


def test_monomial_ops():
    m = Monomial(((0, 2), (2, 1)))
    n = Monomial(((0, 1), (1, 3)))
    assert m.degree() == 3
    assert m.mul(n).exps == ((0, 3), (1, 3), (2, 1))
    assert not n.divides(m)
    assert Monomial(((0, 1),)).divides(m)
    assert m.divide(Monomial(((0, 1),))).exps == ((0, 1), (2, 1))
    assert lcm(m, n).exps == ((0, 2), (1, 3), (2, 1))
    reference = ReferenceMonomial(m.exps).lcm(ReferenceMonomial(n.exps))
    assert lcm(m, n).exps == reference.exps
    assert Monomial(((1, 0),)) == MONOMIAL_ONE


def test_monomial_orders():
    # two variables: x = index 0, y = index 1
    x2 = Monomial(((0, 2),))
    xy = Monomial(((0, 1), (1, 1)))
    y2 = Monomial(((1, 2),))
    for key in (grlex_key, grevlex_key):
        assert key(x2, 2) > key(xy, 2) > key(y2, 2)
    # grlex and grevlex disagree on x*z vs y^2 in three variables
    xz = Monomial(((0, 1), (2, 1)))
    yy = Monomial(((1, 2),))
    assert grlex_key(xz, 3) > grlex_key(yy, 3)
    assert grevlex_key(yy, 3) > grevlex_key(xz, 3)


def test_monomial_limits_and_repeated_indices():
    limit = r"limit 2147483647 \(2\*\*31 - 1\)"
    with pytest.raises(ValueError, match=limit):
        Monomial([(3, MAX_EXPONENT + 1)])
    top = Monomial([(0, MAX_EXPONENT)])
    with pytest.raises(ValueError, match=limit):
        top.mul(Monomial([(0, 1)]))
    assert top.mul(Monomial([(1, 1)])).exps == ((0, MAX_EXPONENT), (1, 1))
    with pytest.raises(ValueError, match="repeated variable index 0"):
        Monomial([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="repeated variable index 2"):
        Monomial([(2, 0), (1, 1), (2, 3)])
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    top_x = MultiPoly(ctx, {Monomial([(0, MAX_EXPONENT)]): QQ.one})
    assert parse_poly("x^2147483647", ctx) == top_x
    for text in ("x^2147483648", "y*x^2147483647*x", "x^3000000000"):
        with pytest.raises(ValueError, match=limit):
            parse_poly(text, ctx)


# Sparse exponent vectors over indices 0..40: small exponents make equal
# degrees and divisibility common, large ones reach the 2**31 - 1 limit.
NVARS = 41
exponents = st.one_of(
    st.integers(0, 3), st.integers(0, MAX_EXPONENT), st.just(MAX_EXPONENT)
)
vectors = st.dictionaries(st.integers(0, NVARS - 1), exponents, max_size=6)
monomial_cases = settings(max_examples=200, deadline=None)


def both(vector):
    return Monomial(vector.items()), ReferenceMonomial(vector.items())


def cmp(a, b) -> int:
    return (a > b) - (a < b)


@monomial_cases
@given(vectors)
def test_monomial_decodes_like_the_reference(vector):
    m, ref = both(vector)
    assert m.exps == ref.exps
    assert m.degree() == ref.degree()
    assert m.indices() == ref.indices()
    assert [m.get(i) for i in range(NVARS + 2)] == [
        ref.get(i) for i in range(NVARS + 2)
    ]
    assert m.is_one() == (not ref.exps)
    assert m == Monomial(reversed(list(vector.items())))
    assert Monomial(m.exps) == m


@monomial_cases
@given(vectors, vectors, st.booleans())
def test_monomial_operations_match_the_reference(u, v, multiple):
    if multiple:  # a componentwise multiple of u, so that u divides v
        v = {
            i: min(MAX_EXPONENT, u.get(i, 0) + v.get(i, 0))
            for i in u.keys() | v.keys()
        }
    a, ra = both(u)
    b, rb = both(v)
    product = ra.mul(rb)
    if any(e > MAX_EXPONENT for _, e in product.exps):
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            a.mul(b)
    else:
        assert a.mul(b).exps == product.exps
        assert a.mul(b).degree() == product.degree()
    assert a.divides(b) == ra.divides(rb)
    assert b.divides(a) == rb.divides(ra)
    if rb.divides(ra):
        assert a.divide(b).exps == ra.divide(rb).exps
        assert a.divide(b).degree() == ra.divide(rb).degree()
    else:
        with pytest.raises(ValueError, match="does not divide"):
            a.divide(b)
    assert lcm(a, b).exps == ra.lcm(rb).exps
    assert lcm(a, b).degree() == ra.lcm(rb).degree()
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@monomial_cases
@given(st.lists(vectors, max_size=6))
def test_monomial_orders_match_the_reference(vecs):
    cases = [both(v) for v in vecs]
    for key, ref_key in (
        (grevlex_key, reference_grevlex_key),
        (grlex_key, reference_grlex_key),
    ):
        for m, ref in cases:
            for n, ref_n in cases:
                assert cmp(key(m, NVARS), key(n, NVARS)) == cmp(
                    ref_key(ref, NVARS), ref_key(ref_n, NVARS)
                )


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(QQ, base_gens=("t",), scheme_vars=("t",))
    with pytest.raises(ValueError):
        RingContext(QQ, scheme_vars=("2x",))
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x", "y"))
    assert ctx.all_vars == ("x", "y", "t")
    assert ctx.var_index("t") == 2
    assert ctx.is_base_index(2) and not ctx.is_base_index(0)


def test_arithmetic():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x - x).is_zero()
    assert 2 * x - x - x == 0
    assert (x * Fraction(1, 2)) * 2 == x
    q = x**2 + 3
    assert q.degree() == 2 and q.coeffs[MONOMIAL_ONE] == Fraction(3)


def test_arithmetic_gf():
    ctx = RingContext(GF(7), scheme_vars=("x",))
    x = ctx.var("x")
    assert (x + 3) + (x + 4) == 2 * x
    assert (x + 1) ** 7 == x**7 + 1


one_terms = st.tuples(
    st.sampled_from(["QQ", "GF(7)"]),
    st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    ),
    st.dictionaries(st.integers(0, 2), st.integers(0, 5), max_size=3),
    st.integers(0, 7),
)


@settings(max_examples=200, deadline=None)
@given(one_terms)
def test_power_of_one_term_is_the_repeated_product(case):
    """c*x^a to the n equals n products of c*x^a: n = 0 gives 1 also for
    the zero polynomial, and GF(7) coefficients reduce mod 7."""
    name, c, exps, n = case
    ctx = RingContext(QQ if name == "QQ" else GF(7), scheme_vars=("x", "y", "w"))
    term = MultiPoly(ctx, {Monomial(exps.items()): ctx.field.coerce(c)})
    expected = ctx.one()
    for _ in range(n):
        expected = reference_poly_mul(expected, term)
    assert term**n == expected
    assert (term**n).coeffs == expected.coeffs  # no stored zero coefficient


def test_power_of_one_term_checks_each_exponent():
    ctx = RingContext(GF(7), scheme_vars=("x", "y"))
    limit = "monomial exponent above the limit 2147483647 (2**31 - 1)"
    big = parse_poly("3*x*y^2", ctx)
    half = MAX_EXPONENT // 2
    assert big**half == MultiPoly(
        ctx, {Monomial([(0, half), (1, 2 * half)]): pow(3, half, 7)}
    )
    with pytest.raises(ValueError, match=re.escape(limit)):
        big ** (half + 1)  # only y's exponent overflows
    with pytest.raises(ValueError, match=re.escape(limit)):
        parse_poly("x", ctx) ** (MAX_EXPONENT + 1)
    assert ctx.zero() ** 0 == ctx.one() and ctx.zero() ** 5 == ctx.zero()
    assert parse_poly("5", ctx) ** MAX_EXPONENT == ctx.const(pow(5, MAX_EXPONENT, 7))


def test_print_canonical():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x", "y"))
    p = parse_poly("y^2 - x^3 + 2*t*x - 1/2", ctx)
    assert poly_to_str(p) == "-1*x^3 + 2*x*t + y^2 - 1/2"
    assert poly_to_str(ctx.zero()) == "0"
    assert poly_to_str(-ctx.one()) == "-1"
    assert poly_to_str(parse_poly("x - y", ctx)) == "x - y"
    f5 = RingContext(GF(5), scheme_vars=("x",))
    assert poly_to_str(parse_poly("-1*x + 7", f5)) == "4*x + 2"


def test_parse_roundtrip():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x", "y"))
    rng = random.Random(11)
    for _ in range(60):
        p = random_poly(ctx, rng, allow_zero=True)
        assert parse_poly(poly_to_str(p), ctx) == p
    f5 = RingContext(GF(5), scheme_vars=("x", "y"))
    for _ in range(40):
        p = random_poly(f5, rng, allow_zero=True)
        assert parse_poly(poly_to_str(p), f5) == p


def test_parse_errors():
    ctx = RingContext(QQ, scheme_vars=("x",))
    with pytest.raises(UnknownIdentifierError) as err:
        parse_poly("x + yy", ctx)
    assert err.value.name == "yy" and err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_poly("x + ", ctx)
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse_poly("x ^ y", ctx)
    with pytest.raises(ParseError):
        parse_poly("(x + 1", ctx)
    with pytest.raises(ParseError):
        parse_poly("x 2", ctx)
    with pytest.raises(ParseError):
        parse_poly("1/0", ctx)
    with pytest.raises(ParseError):
        parse_poly("", ctx)
    # implicit multiplication is rejected, explicit asterisk required
    with pytest.raises(ParseError):
        parse_poly("2x", ctx)
    # unary minus exists only inside rational literals
    with pytest.raises(ParseError):
        parse_poly("-x", ctx)
    f5 = RingContext(GF(5), scheme_vars=("x",))
    with pytest.raises(ParseError):
        parse_poly("x/5", f5)


def test_power_of_a_sum_is_bounded_before_it_is_expanded():
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    limit = f"above the limit {POWER_LIMIT}"
    for text, offset in (("(2*x+3*y+1)^200", 11), ("(x + 1) ^ 20000 - 1", 8)):
        with pytest.raises(ParseError, match=limit) as err:
            parse_poly(text, ctx)
        assert err.value.offset == offset and text[offset] == "^"
    x, y = ctx.var("x"), ctx.var("y")
    assert parse_poly(f"(x + y)^{POWER_LIMIT}", ctx) == (x + y) ** POWER_LIMIT
    # one term keeps the monomial path, up to the exponent limit
    assert parse_poly("(3*x*y)^40", ctx) == (x * y) ** 40 * 3**40
    assert parse_poly("x^2147483647", ctx).degree() == MAX_EXPONENT


def test_coefficients_str_cannot_print_are_refused_before_they_are_built():
    # 3^9000 has 4,295 digits and 3^9013 has 4,301; by default str() prints
    # an int of at most 4,300
    ctx = RingContext(QQ, scheme_vars=("x",))
    x = ctx.var("x")
    assert parse_poly("3^9000*x", ctx) == x * 3**9000
    too_long = "more than 4300 digits"
    for text, offset in (
        ("3^9013", 1),
        ("(1/3*x)^9013", 7),
        ("x + 3^9000 * 3^9000", 11),
        ("*".join(["3^9000"] * 1000), 6),
        ("(3*x)^10000 - 1", 5),
        ("(3*x)^20000000", 5),
        ("3^2147483647", 1),
    ):
        with pytest.raises(ParseError, match=too_long) as err:
            parse_poly(text, ctx)
        assert err.value.offset == offset
    top = parse_poly("(-1)^2147483647 * (1/1*x)^2147483647", ctx)
    assert top == -(x**MAX_EXPONENT)
    gf7 = RingContext(GF(7), scheme_vars=("x",))
    assert parse_poly("(3*x)^20000000", gf7) == gf7.var("x") ** 20000000 * 2


def test_only_ascii_digits_and_readable_literals_parse():
    """A digit of another script or a superscript, and a literal with more
    digits than int() reads, are parse errors that name their offset."""
    ctx = RingContext(QQ, scheme_vars=("x",))
    long = "7" * 5000
    for text, offset, message in (
        ("x^\u00b2", 2, "expected an unsigned integer"),
        ("\u00b2", 0, "expected a number, variable, or '('"),
        ("x^\u0663", 2, "expected an unsigned integer"),  # Arabic-Indic three
        ("2*\u0663", 2, "expected a number, variable, or '('"),
        (long, 0, "more than 4300 digits, the limit for reading an integer"),
        (f"-{long}*x", 1, "more than 4300 digits"),
        (f"1/{long}", 2, "more than 4300 digits"),
        (f"x^{long}", 2, "more than 4300 digits"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_poly(text, ctx)
        assert err.value.offset == offset
    assert parse_poly("7" * 4300, ctx) == ctx.const(int("7" * 4300))


def test_substitute_and_transport():
    src = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    tgt = RingContext(QQ, base_gens=("t",), scheme_vars=("u", "v"))
    p = parse_poly("x^2 - t", src)
    q = substitute(p, {"x": parse_poly("u + v", tgt)}, tgt)
    assert q == parse_poly("u^2 + 2*u*v + v^2 - t", tgt)
    moved = transport(parse_poly("x^2 - t", src), tgt, rename={"x": "u"})
    assert moved == parse_poly("u^2 - t", tgt)
    with pytest.raises(ValueError):
        transport(p, RingContext(GF(5), scheme_vars=("x", "t")))
    assert evaluate(p, {"x": 3, "t": 2}) == Fraction(7)
    with pytest.raises(ValueError):
        evaluate(p, {"x": 3})


def test_hasse_derivative_frozen():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    p = parse_poly("x^2 - t", ctx)
    xi = ctx.var_index("x")
    assert hasse_derivative(p, Monomial(((xi, 1),))) == parse_poly("2*x", ctx)
    assert hasse_derivative(p, Monomial(((xi, 2),))) == ctx.one()
    assert hasse_derivative(p, Monomial(((xi, 3),))).is_zero()
    # derivative in a base generator is allowed
    ti = ctx.var_index("t")
    assert hasse_derivative(p, Monomial(((ti, 1),))) == -ctx.one()


def test_hasse_derivative_matches_factorial_oracle():
    ctx = RingContext(QQ, scheme_vars=("x", "y", "z"))
    rng = random.Random(5)
    for _ in range(25):
        p = random_poly(ctx, rng, max_degree=4, max_terms=5)
        for exp in exponents_up_to(3, 3):
            alpha = Monomial((i, e) for i, e in enumerate(exp))
            assert hasse_derivative(p, alpha) == divided_power_oracle(p, alpha)


def test_hasse_derivative_leibniz():
    # D^alpha(PQ) = sum over beta + gamma = alpha of D^beta(P) D^gamma(Q)
    ctx = RingContext(GF(3), scheme_vars=("x", "y"))
    rng = random.Random(9)
    for _ in range(20):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        for exp in exponents_up_to(2, 3):
            alpha = Monomial((i, e) for i, e in enumerate(exp))
            total = ctx.zero()
            for bx in range(exp[0] + 1):
                for by in range(exp[1] + 1):
                    beta = Monomial(((0, bx), (1, by)))
                    total = total + hasse_derivative(p, beta) * hasse_derivative(
                        q, alpha.divide(beta)
                    )
            assert hasse_derivative(p * q, alpha) == total


def test_hasse_derivative_char_p():
    # D^(p) applied to x^p is 1 even though the p-th iterated derivative dies
    ctx = RingContext(GF(5), scheme_vars=("x",))
    p = ctx.var("x") ** 5
    assert hasse_derivative(p, Monomial(((0, 5),))) == ctx.one()
    assert hasse_derivative(p, Monomial(((0, 1),))).is_zero()


def test_compositions_order():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert compositions(0, 3) == [(0, 0, 0)]
    assert compositions(1, 0) == []
    assert exponents_up_to(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert exponents_up_to(1, 2, include_zero=True) == [(0,), (1,), (2,)]


def test_compositions_match_the_recursive_reference():
    for slots in range(6):
        for total in range(7):
            assert compositions(total, slots) == reference_compositions(total, slots)
    # one stack frame per slot would pass the interpreter's recursion limit
    assert compositions(0, 5000) == [(0,) * 5000]


def test_taylor_shift_frozen():
    ctx = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    p = parse_poly("x^2 - t", ctx)
    shift = taylor_shift(p, 2)
    assert [(a.exps, poly_to_str(d)) for a, d in shift] == [
        ((), "x^2 - t"),
        (((0, 1),), "2*x"),
        (((0, 2),), "1"),
    ]
    # alpha ranges over scheme variables only, never over t
    assert all(not any(ctx.is_base_index(i) for i in a.indices()) for a, _ in shift)


def test_taylor_identity():
    # P(x + s) reconstructed from divided powers equals direct substitution
    ctx = RingContext(QQ, scheme_vars=("x", "y"))
    big = RingContext(QQ, scheme_vars=("x", "y", "sx", "sy"))
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(ctx, rng, max_degree=3)
        shifted = substitute(
            transport(p, big),
            {
                "x": parse_poly("x + sx", big),
                "y": parse_poly("y + sy", big),
            },
            big,
        )
        total = big.zero()
        for alpha, d in taylor_shift(p, p.degree() if p.degree() > 0 else 0):
            term = transport(d, big)
            for i, e in alpha.exps:
                term = term * big.var(("sx", "sy")[i]) ** e
            total = total + term
        assert total == shifted


# Polynomials for the product and sum kernels: few variables so terms
# collide, exponents that are small or at the top of the packed fields.
KERNEL_FIELDS = [QQ, GF(7)]
kernel_exponents = st.one_of(
    st.integers(0, 2), st.sampled_from([MAX_EXPONENT - 1, MAX_EXPONENT])
)


@st.composite
def kernel_polys(draw, ctx):
    """A polynomial of up to five terms, possibly zero or constant."""
    monos = st.builds(
        lambda exps: Monomial(enumerate(exps)),
        st.lists(kernel_exponents, min_size=ctx.nvars, max_size=ctx.nvars),
    )
    coeff = st.integers(-6, 6)
    if ctx.field.is_rational:
        coeff = st.builds(Fraction, coeff, st.integers(1, 4))
    terms = draw(st.dictionaries(monos, coeff.map(ctx.field.coerce), max_size=5))
    return MultiPoly(ctx, terms)


@st.composite
def kernel_pairs(draw):
    """Two polynomials of one context; the second may cancel some or all
    terms of the first, or be a constant or zero."""
    ctx = RingContext(draw(st.sampled_from(KERNEL_FIELDS)), scheme_vars=("x", "y"))
    f = draw(kernel_polys(ctx))
    g = draw(kernel_polys(ctx))
    shape = draw(st.sampled_from(["any", "cancel", "negation", "constant"]))
    negated = {m: ctx.field.neg(c) for m, c in f.coeffs.items()}
    if shape == "cancel" and negated:
        kept = draw(st.sets(st.sampled_from(sorted(negated, key=lambda m: m.p))))
        g = MultiPoly(ctx, g.coeffs | {m: negated[m] for m in kept})
    elif shape == "negation":
        g = MultiPoly(ctx, negated)
    elif shape == "constant":
        g = ctx.const(draw(st.integers(-3, 3)))
    return f, g


def outcome(fn, *args):
    """The terms of fn(*args) in dict order, or the message it raised."""
    try:
        return list(fn(*args).coeffs.items())
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(kernel_pairs(), st.booleans())
def test_kernels_match_the_references(pair, swap):
    """*, + and - give the references' terms, in the same order, and an
    exponent past MAX_EXPONENT raises the same message."""
    f, g = pair[::-1] if swap else pair
    assert outcome(lambda: f * g) == outcome(reference_poly_mul, f, g)
    assert outcome(lambda: f + g) == outcome(reference_poly_add, f, g)
    assert outcome(lambda: f - g) == outcome(reference_poly_sub, f, g)
    assert (f - f).is_zero() and (f * f.ctx.zero()).is_zero()


def test_kernels_raise_on_exponent_overflow_like_the_reference():
    ctx = RingContext(GF(7), scheme_vars=("x", "y"))
    top = MultiPoly(ctx, {Monomial([(0, MAX_EXPONENT)]): 1, MONOMIAL_ONE: 1})
    y_top = MultiPoly(ctx, {Monomial([(1, MAX_EXPONENT)]): 1})
    x = ctx.var("x")
    message = outcome(reference_poly_mul, top, x)
    assert "exponent above the limit 2147483647" in message
    assert outcome(lambda: top * x) == message
    # degrees past the limit in different variables are no overflow
    assert outcome(lambda: top * y_top) == outcome(reference_poly_mul, top, y_top)
    assert (top * y_top).degree() == 2 * MAX_EXPONENT
