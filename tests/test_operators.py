import random

import pytest

from helpers import tensor_swap_permutation
from prolong.scalars import QQ
from prolong.polynomials import RingContext, parse_poly, random_poly
from prolong.algebra import (
    dring_algebra,
    dual_numbers,
    product_algebra,
    trivial_algebra,
    truncated_algebra,
)
from prolong.operators import (
    CheckResult,
    OperatorFamily,
    RingOperator,
    check_dring_law,
    check_hasse_axioms,
    compose_operators,
    standard_operator,
)


def base_ctx():
    return RingContext(QQ, base_gens=("t",))


def derivative_operator(ctx):
    dual = dual_numbers()
    return RingOperator(dual, ctx, {"t": dual.element(ctx, [ctx.var("t"), ctx.one()])})


def test_extend_frozen_square():
    ctx = base_ctx()
    e = derivative_operator(ctx)
    t = ctx.var("t")
    value = e.extend(t * t)
    assert value.slots == (t * t, 2 * t)


def test_standard_operator_is_slot_zero_inclusion():
    ctx = base_ctx()
    s = standard_operator(dual_numbers(), ctx)
    p = parse_poly("t^3 - 2*t", ctx)
    assert s.extend(p).slots == (p, ctx.zero())


def test_difference_operator_slots():
    # product(2) with (id, sigma), sigma(t) = t^2; unit-first coordinates
    # store (a, b) for the idempotent pair (a, a + b)
    ctx = base_ctx()
    p2 = product_algebra(2)
    t = ctx.var("t")
    e = RingOperator(p2, ctx, {"t": p2.element(ctx, [t, t * t - t])})
    value = e.extend(t + 1)
    # idempotent coordinates: slot0 and slot0 + slot1
    assert value.slots[0] == t + 1
    assert value.slots[0] + value.slots[1] == t * t + 1


def test_extend_is_ring_hom():
    ctx = base_ctx()
    rng = random.Random(41)
    for op in (
        derivative_operator(ctx),
        standard_operator(truncated_algebra(1, 2), ctx),
        RingOperator(
            dring_algebra(1),
            ctx,
            {"t": dring_algebra(1).element(ctx, [ctx.var("t"), ctx.var("t") ** 2 - ctx.var("t")])},
        ),
    ):
        for _ in range(50):
            p = random_poly(ctx, rng, allow_zero=True)
            q = random_poly(ctx, rng, allow_zero=True)
            assert op.extend(p + q) == op.extend(p) + op.extend(q)
            assert op.extend(p * q) == op.extend(p) * op.extend(q)
        assert op.extend(ctx.one()) == op.algebra.unit(ctx)


def test_extend_rejects_scheme_variables():
    ctx = base_ctx()
    op = derivative_operator(ctx)
    full = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    with pytest.raises(ValueError, match="base"):
        op.extend(parse_poly("x + t", full))
    # base-only polynomials from a bigger context transport down fine
    assert op.extend(parse_poly("t^2", full)).slots[1] == 2 * ctx.var("t")


def test_operator_validation():
    ctx = base_ctx()
    dual = dual_numbers()
    with pytest.raises(ValueError, match="no image"):
        RingOperator(dual, ctx, {})
    with pytest.raises(ValueError, match="unknown"):
        RingOperator(
            dual,
            ctx,
            {"t": dual.scalar(ctx, ctx.var("t")), "s": dual.unit(ctx)},
        )
    full = RingContext(QQ, base_gens=("t",), scheme_vars=("x",))
    with pytest.raises(ValueError, match="base generators only"):
        standard_operator(dual, full)


def test_operator_family_decomposes_extension():
    ctx = base_ctx()
    op = standard_operator(truncated_algebra(1, 3), ctx)
    hasse = RingOperator(
        op.algebra,
        ctx,
        {"t": op.algebra.element(ctx, [ctx.var("t"), ctx.one(), ctx.zero(), ctx.zero()])},
    )
    family = OperatorFamily(hasse)
    assert len(family) == 4 and family.labels == ("1", "h", "h^2", "h^3")
    p = parse_poly("t^3", ctx)
    value = hasse.extend(p)
    assert tuple(family[i](p) for i in range(4)) == value.slots
    # divided powers of t^3: D2(t^3) = 3t, D3(t^3) = 1
    assert family[2](p) == 3 * ctx.var("t")
    assert family[3](p) == ctx.one()


def test_hasse_check_extends_each_input_once(monkeypatch):
    ctx = base_ctx()
    alg = truncated_algebra(1, 3)
    op = RingOperator(
        alg, ctx, {"t": alg.element(ctx, [ctx.var("t"), ctx.one(), ctx.zero(), ctx.zero()])}
    )
    calls = []
    extend = RingOperator.extend
    monkeypatch.setattr(
        RingOperator, "extend", lambda self, poly: calls.append(poly) or extend(self, poly)
    )
    trials = 7
    assert check_hasse_axioms(OperatorFamily(op).maps, ctx, trials=trials, seed=2).ok
    # x, y and x*y; each is asked about in all four slots
    assert len(calls) == 3 * trials


def test_operator_family_memo_follows_its_input():
    ctx = base_ctx()
    op = derivative_operator(ctx)
    family = OperatorFamily(op)
    p, q = parse_poly("t^3 - 2*t", ctx), parse_poly("t^2 + 1", ctx)
    twin = parse_poly("t^3 - 2*t", ctx)
    assert twin == p and twin is not p
    for i in range(len(family)):
        for poly in (p, q, p, twin, q, q, ctx.zero()):
            assert family[i](poly) == op.extend(poly).slots[i]
    for poly in (p, q, twin, p):
        for i in range(len(family)):
            assert family[i](poly) == op.extend(poly).slots[i]


def test_compose_with_trivial_identity():
    ctx = base_ctx()
    e = derivative_operator(ctx)
    triv = trivial_algebra()
    ident = standard_operator(triv, ctx)
    ef_alg, ef = compose_operators(e, ident)
    assert ef_alg.rank == 2
    assert ef.images["t"].slots == e.images["t"].slots


def test_compose_dual_dual_frozen():
    ctx = base_ctx()
    e = derivative_operator(ctx)
    ef_alg, ef = compose_operators(e, e)
    assert ef_alg.rank == 4
    t = ctx.var("t")
    # t + eta1 + eta2 in the (j, j') flat basis (1, h2, h1, h1*h2)
    assert ef.images["t"].slots == (t, ctx.one(), ctx.one(), ctx.zero())


def test_compose_difference_dual_frozen():
    ctx = base_ctx()
    t = ctx.var("t")
    p2 = product_algebra(2)
    e = RingOperator(p2, ctx, {"t": p2.element(ctx, [t, t * t - t])})
    f = derivative_operator(ctx)
    _, ef = compose_operators(e, f)
    assert ef.images["t"].slots == (t, ctx.one(), t * t - t, 2 * t - 1)


def test_compose_base_mismatch():
    e = derivative_operator(base_ctx())
    other = RingContext(QQ, base_gens=("s",))
    f = RingOperator(
        dual_numbers(), other, {"s": dual_numbers().element(other, [other.var("s"), other.one()])}
    )
    with pytest.raises(ValueError):
        compose_operators(e, f)


def test_augmentation_compatibility():
    # slot (0,0) of the composite equals the slot-0 maps composed, whenever
    # slot 0 is an augmentation of both algebras
    ctx = base_ctx()
    t = ctx.var("t")
    p2 = product_algebra(2)
    pairs = [
        (derivative_operator(ctx), derivative_operator(ctx)),
        (
            RingOperator(p2, ctx, {"t": p2.element(ctx, [t, t * t - t])}),
            derivative_operator(ctx),
        ),
        (
            standard_operator(truncated_algebra(1, 2), ctx),
            RingOperator(
                dring_algebra(2),
                ctx,
                {"t": dring_algebra(2).element(ctx, [t, t + 1])},
            ),
        ),
    ]
    rng = random.Random(59)
    for e, f in pairs:
        _, ef = compose_operators(e, f)
        for _ in range(20):
            p = random_poly(ctx, rng)
            assert ef.extend(p).slots[0] == f.extend(e.extend(p).slots[0]).slots[0]


def _swap_slots(slots, pi):
    swapped = [None] * len(pi)
    for flat, target in enumerate(pi):
        swapped[target] = slots[flat]
    return tuple(swapped)


def test_compose_swap_permutation_on_images():
    ctx = base_ctx()
    t = ctx.var("t")
    # the coordinate swap carries ef to fe when the slot operators commute
    e = derivative_operator(ctx)
    _, ef = compose_operators(e, e)
    _, fe = compose_operators(e, e)
    pi = tensor_swap_permutation(dual_numbers(), dual_numbers())
    assert _swap_slots(ef.images["t"].slots, pi) == fe.images["t"].slots
    # a difference operator and d/dt do not commute: the swap re-expresses ef
    # in the other tensor basis but does not turn it into fe
    p2 = product_algebra(2)
    diff = RingOperator(p2, ctx, {"t": p2.element(ctx, [t, t * t - t])})
    _, ef = compose_operators(diff, e)
    _, fe = compose_operators(e, diff)
    pi = tensor_swap_permutation(p2, dual_numbers())
    assert _swap_slots(ef.images["t"].slots, pi) == (t, t * t - t, ctx.one(), 2 * t - 1)
    assert fe.images["t"].slots == (t, t * t - t, ctx.one(), ctx.zero())


def test_hasse_axioms_pass():
    ctx = base_ctx()
    alg = truncated_algebra(1, 2)
    op = RingOperator(
        alg, ctx, {"t": alg.element(ctx, [ctx.var("t"), ctx.one(), ctx.zero()])}
    )
    result = check_hasse_axioms(OperatorFamily(op).maps, ctx, trials=60, seed=3)
    assert result.ok and result.witness is None
    assert isinstance(result, CheckResult) and bool(result)


def test_hasse_axioms_constant_family_passes():
    ctx = base_ctx()
    zero = lambda p: ctx.zero()
    ident = lambda p: p
    assert check_hasse_axioms([ident, zero, zero], ctx, trials=30, seed=1).ok


def test_hasse_axioms_fail_witness():
    ctx = base_ctx()

    def ddt(p):
        out = ctx.zero()
        t = ctx.var("t")
        for m, c in p.coeffs.items():
            e = m.get(0)
            if e:
                out = out + ctx.const(c) * e * t ** (e - 1)
        return out

    # [id, d/dt, d/dt] violates the order-2 convolution law
    result = check_hasse_axioms([lambda p: p, ddt, ddt], ctx, trials=100, seed=0)
    assert not result.ok
    assert result.witness["law"] == "convolution"
    assert result.witness["index"] == 2
    # slot zero not the identity is caught immediately
    result = check_hasse_axioms([ddt, ddt], ctx, trials=10, seed=0)
    assert not result.ok and result.witness["law"] == "identity"


def test_dring_law():
    ctx = base_ctx()
    t = ctx.var("t")
    c = 2

    def tau(p):
        # endomorphism t -> t + c acting on polynomials
        from prolong.polynomials import substitute

        return substitute(p, {"t": t + c}, ctx)

    def d_from_tau(p):
        return (tau(p) - p).scale(QQ.inv(QQ.coerce(c)))

    assert check_dring_law(d_from_tau, c, ctx, trials=80, seed=5).ok

    def plain_derivative(p):
        out = ctx.zero()
        for m, coeff in p.coeffs.items():
            e = m.get(0)
            if e:
                out = out + ctx.const(coeff) * e * t ** (e - 1)
        return out

    # a plain derivation fails the twisted rule once c is nonzero
    result = check_dring_law(plain_derivative, c, ctx, trials=80, seed=5)
    assert not result.ok and result.witness["law"] == "twisted-leibniz"
    # and passes at c = 0
    assert check_dring_law(plain_derivative, 0, ctx, trials=80, seed=5).ok

