"""Ring operators: algebra-valued homomorphisms out of a polynomial base ring.

A :class:`RingOperator` assigns to every base-ring generator an element of
E(k) and extends to the whole base ring as the unique ring homomorphism with
those values.  Slot projections of such an operator are the classical
operator families: d/dt and its divided powers for truncated algebras,
endomorphism tuples for product algebras, the twisted derivation of the
one-parameter family for dring algebras.

Axiom checkers for Hasse families and twisted derivations run on seeded
random inputs and report the first violating witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .algebra import AlgebraElement, AlgebraScheme, evaluator, tensor
from .polynomials import MultiPoly, RingContext, poly_to_str, random_poly, transport


class RingOperator:
    """Ring homomorphism from a polynomial base ring into E(k).

    The context must be base-only (no scheme variables); every base generator
    needs an image.  Field constants always map through the unit slot.
    ``images`` is read-only: one evaluator over it caches the powers of every
    image across all extensions.
    """

    __slots__ = ("algebra", "ctx", "images", "_evaluate", "__weakref__")

    def __init__(
        self,
        algebra: AlgebraScheme,
        ctx: RingContext,
        images: Mapping[str, AlgebraElement],
    ):
        if ctx.scheme_vars:
            raise ValueError("operator context must contain base generators only")
        missing = [g for g in ctx.base_gens if g not in images]
        if missing:
            raise ValueError(f"no image given for base generators {missing}")
        extra = [g for g in images if g not in ctx.base_gens]
        if extra:
            raise ValueError(f"images for unknown generators {extra}")
        for g, val in images.items():
            if val.algebra != algebra:
                raise ValueError(f"image of {g!r} lives in a different algebra")
            if val.ctx != ctx:
                raise ValueError(f"image of {g!r} uses a different context")
        self.algebra = algebra
        self.ctx = ctx
        self.images = MappingProxyType(dict(images))
        self._evaluate = evaluator(self.images, algebra, ctx)

    def extend(self, poly: MultiPoly) -> AlgebraElement:
        """Ring-homomorphism extension to any base-ring polynomial."""
        if poly.ctx != self.ctx:
            bad = [
                poly.ctx.all_vars[i]
                for i in sorted(poly.variables())
                if poly.ctx.all_vars[i] not in self.ctx.base_gens
            ]
            if bad:
                raise ValueError(
                    f"operator is defined on the base ring only; {bad} are not"
                    " base generators"
                )
            poly = transport(poly, self.ctx)
        return self._evaluate(poly)

    def __repr__(self) -> str:
        body = ", ".join(f"{g} -> {v!r}" for g, v in sorted(self.images.items()))
        return f"RingOperator({self.algebra.name}; {body})"


def standard_operator(algebra: AlgebraScheme, ctx: RingContext) -> RingOperator:
    """The inclusion into slot zero: g maps to g * e_0."""
    images = {g: algebra.scalar(ctx, ctx.var(g)) for g in ctx.base_gens}
    return RingOperator(algebra, ctx, images)


class OperatorFamily:
    """Slot-projection view of an operator: maps D_i with D_i(P) = e(P)_i.
    The maps share one extension of the last polynomial they were given.
    They close over that memo, not over the family, so no reference cycle
    keeps the operator and its power cache alive after the family."""

    __slots__ = ("operator", "maps", "labels")

    def __init__(self, operator: RingOperator):
        self.operator = operator
        last: list = [None, None]

        def extend(poly: MultiPoly) -> AlgebraElement:
            if last[0] is not poly:
                last[:] = poly, operator.extend(poly)
            return last[1]

        self.maps = [
            lambda poly, i=i: extend(poly).slots[i]
            for i in range(operator.algebra.rank)
        ]
        self.labels = operator.algebra.labels

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, index: int) -> Callable[[MultiPoly], MultiPoly]:
        return self.maps[index]


def compose_operators(
    e: RingOperator, f: RingOperator
) -> tuple[AlgebraScheme, RingOperator]:
    """The composite operator into the tensor algebra.

    The image of a generator g is computed by applying f to every slot
    coefficient of e(g) and re-indexing into the (j, j') tensor basis, which
    realizes E(f) composed with e coordinatewise.
    """
    if e.ctx != f.ctx:
        raise ValueError("operators over different base rings")
    ctx = e.ctx
    ef_algebra = tensor(e.algebra, f.algebra)
    lf = f.algebra.rank
    images = {}
    for g in ctx.base_gens:
        flat = [ctx.zero()] * ef_algebra.rank
        for j, coeff in enumerate(e.images[g].slots):
            for jp, value in enumerate(f.extend(coeff).slots):
                flat[j * lf + jp] = value
        images[g] = ef_algebra.element(ctx, flat)
    return ef_algebra, RingOperator(ef_algebra, ctx, images)


# -- axiom checkers ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    trials: int
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(trials: int, law: str, **parts) -> CheckResult:
    witness = {"law": law}
    witness.update(
        {k: poly_to_str(v) if isinstance(v, MultiPoly) else v for k, v in parts.items()}
    )
    return CheckResult(False, trials, witness)


def check_hasse_axioms(
    family: Sequence[Callable[[MultiPoly], MultiPoly]],
    ctx: RingContext,
    trials: int = 100,
    seed: int | Random = 0,
) -> CheckResult:
    """D_0 = id plus the convolution Leibniz rule on seeded random pairs.

    Checks D_m(xy) = sum over a+b=m of D_a(x) D_b(y) for every index m of the
    family; returns the first violating pair as a witness.  ``seed`` is an
    int or a ``Random`` to draw the pairs from.
    """
    rng = seed if isinstance(seed, Random) else Random(seed)
    for trial in range(trials):
        x = random_poly(ctx, rng, allow_zero=True)
        y = random_poly(ctx, rng, allow_zero=True)
        d0 = family[0](x)
        if d0 != x:
            return _fail(trial + 1, "identity", x=x, left=d0, right=x)
        xy = x * y
        dx = [d(x) for d in family]
        dy = [d(y) for d in family]
        for m in range(len(family)):
            left = family[m](xy)
            right = ctx.zero()
            for a in range(m + 1):
                right = right + dx[a] * dy[m - a]
            if left != right:
                return _fail(
                    trial + 1, "convolution", index=m, x=x, y=y, left=left, right=right
                )
    return CheckResult(True, trials)


def check_dring_law(
    d_map: Callable[[MultiPoly], MultiPoly],
    c,
    ctx: RingContext,
    trials: int = 100,
    seed: int | Random = 0,
) -> CheckResult:
    """Additivity plus the twisted Leibniz rule D(xy) = xD(y) + D(x)y + cD(x)D(y).

    ``seed`` is an int or a ``Random`` to draw the pairs from.
    """
    c_scalar = ctx.const(c)
    rng = seed if isinstance(seed, Random) else Random(seed)
    for trial in range(trials):
        x = random_poly(ctx, rng, allow_zero=True)
        y = random_poly(ctx, rng, allow_zero=True)
        left = d_map(x + y)
        dx, dy = d_map(x), d_map(y)
        right = dx + dy
        if left != right:
            return _fail(trial + 1, "additivity", x=x, y=y, left=left, right=right)
        left = d_map(x * y)
        right = x * dy + dx * y + c_scalar * dx * dy
        if left != right:
            return _fail(
                trial + 1, "twisted-leibniz", x=x, y=y, left=left, right=right
            )
    return CheckResult(True, trials)
