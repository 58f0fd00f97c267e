"""Finite free algebra schemes presented by structure constants.

An :class:`AlgebraScheme` of rank ``l`` is the data of basis labels
``e_0, ..., e_{l-1}`` and structure constants ``c_ij^k`` with
``e_i * e_j = sum_k c_ij^k e_k``, kept only as the nonzero cells
``{(i, j): {k: c_ij^k}}``.  The unit is always ``e_0``; the constants are
validated for the unit law, commutativity, and associativity on construction.
Structure constants are rationals and are coerced into the working field at
the point of use, so one algebra value serves every coefficient field whose
characteristic does not divide a denominator.  The one dense form is a custom
spec's ``mult`` table, read by :func:`make_builtin`.

Builtins cover truncated polynomial algebras (jets of order n), finite
products of the base (difference/period structures), and the one-parameter
family interpolating between differential and difference operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .polynomials import (
    MultiPoly,
    RingContext,
    exponents_up_to,
    packed_fold,
    packed_poly,
    packed_products,
    packed_terms,
    terms_poly,
)


# largest rank an algebra spec may ask for, checked before its constants are built
ALGEBRA_RANK_BUDGET = 48


class AlgebraValidationError(ValueError):
    """A structure-constant table violating one of the ring axioms."""


def _within_budget(rank: int, what: str = "rank") -> None:
    if rank > ALGEBRA_RANK_BUDGET:
        raise AlgebraValidationError(f"{what} over the budget {ALGEBRA_RANK_BUDGET}")


def _rank(labels: Sequence) -> int:
    if len(labels) < 1:
        raise AlgebraValidationError("rank must be at least 1")
    return len(labels)


def _fractionize(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot read structure constant {value!r}")


class AlgebraScheme:
    """Finite free algebra scheme with a fixed unit-first basis."""

    __slots__ = ("rank", "labels", "name", "terms")

    def __init__(
        self,
        labels: Sequence[str],
        cells: Mapping[tuple[int, int], Mapping[int, Fraction]],
        name: str = "custom",
    ):
        self.rank = rank = _rank(labels)
        self.labels = tuple(str(s) for s in labels)
        self.name = name
        # nonzero (k, c_ij^k) entries of each cell, sorted by k
        self.terms = tuple(
            tuple(
                tuple(sorted((k, c) for k, c in cells.get((i, j), {}).items() if c))
                for j in range(rank)
            )
            for i in range(rank)
        )
        self._validate()

    def _validate(self) -> None:
        """Unit law, commutativity and associativity over the sparse terms.
        By commutativity (i, j, m) fails exactly when (m, j, i) does and
        (i, j, i) never fails, so only triples with 0 < i < m are checked."""
        rank, terms = self.rank, self.terms
        for j in range(rank):
            if terms[0][j] == terms[j][0] == ((j, 1),):
                continue
            for k in range(rank):
                for a, b in ((0, j), (j, 0)):
                    c = dict(terms[a][b]).get(k, Fraction(0))
                    if c != int(j == k):
                        raise AlgebraValidationError(
                            f"unit law violated: e_{a}*e_{b} has coefficient"
                            f" {c} on e_{k}"
                        )
        for i in range(rank):
            for j in range(i):
                if terms[i][j] != terms[j][i]:
                    raise AlgebraValidationError(
                        f"commutativity violated at (e_{i}, e_{j})"
                    )
        for i in range(1, rank):
            for j in range(1, rank):
                for m in range(i + 1, rank):
                    # (e_i e_j) e_m against e_i (e_j e_m) = (e_j e_m) e_i
                    if self._times(terms[i][j], m) != self._times(terms[j][m], i):
                        raise AlgebraValidationError(
                            f"associativity violated at (e_{i}, e_{j}, e_{m})"
                        )

    def product(self, field, x: Sequence[list], y: Sequence[list]) -> list[list]:
        """x*y on per-slot packed term lists; each nonzero a_i*b_j is made once."""
        p, out = field.p, [{} for _ in range(self.rank)]
        for a, row in zip(x, self.terms):
            for b, cell in zip(y, row) if a else ():
                if b and cell:
                    ab = packed_terms(packed_products(a, b), p)
                    for k, c in cell:
                        packed_fold(out[k], ab, field.from_fraction(c))
        return [packed_terms(acc, p) for acc in out]

    def power(self, field, got: dict[int, list], e: int) -> list:
        """x^e from the cache ``got`` of x's powers: x^(e-1)*x up to e = 16
        (every exponent the fixtures use), halves of e above it."""
        if e not in got:
            h = 1 if e <= 16 else e // 2
            x, y = self.power(field, got, e - h), self.power(field, got, h)
            got[e] = self.product(field, x, y)
        return got[e]

    def _times(self, cell, m: int) -> dict:
        """Nonzero coordinates of (sum of c e_k over the cell's terms) * e_m."""
        out: dict[int, Fraction] = {}
        for k, c in cell:
            for n, d in self.terms[k][m]:
                out[n] = out.get(n, 0) + c * d
        return {n: v for n, v in out.items() if v}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraScheme)
            and self.labels == other.labels
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.terms))

    def __repr__(self) -> str:
        return f"AlgebraScheme({self.name!r}, rank={self.rank})"

    # -- elements -------------------------------------------------------------

    def element(self, ctx: RingContext, slots: Sequence) -> "AlgebraElement":
        if len(slots) != self.rank:
            raise ValueError(
                f"expected {self.rank} slots, got {len(slots)}"
            )
        polys = tuple(s if isinstance(s, MultiPoly) else ctx.const(s) for s in slots)
        return AlgebraElement(self, ctx, polys)

    def unit(self, ctx: RingContext) -> "AlgebraElement":
        return self.element(ctx, [ctx.one()] + [ctx.zero()] * (self.rank - 1))

    def scalar(self, ctx: RingContext, poly: MultiPoly) -> "AlgebraElement":
        """Image of a base element under the standard inclusion s."""
        return self.element(ctx, [poly] + [ctx.zero()] * (self.rank - 1))


def _check_compatible(algebra: AlgebraScheme, ctx: RingContext, value) -> None:
    if algebra != value.algebra:
        raise ValueError("elements of different algebras")
    if ctx != value.ctx:
        raise ValueError("elements over different contexts")


class AlgebraElement:
    """Element of E(R): one polynomial per basis slot."""

    __slots__ = ("algebra", "ctx", "slots")

    def __init__(
        self, algebra: AlgebraScheme, ctx: RingContext, slots: tuple[MultiPoly, ...]
    ):
        if len(slots) != algebra.rank:
            raise ValueError("slot count does not match algebra rank")
        if any(s.ctx is not ctx and s.ctx != ctx for s in slots):
            raise ValueError("slot polynomials from different contexts")
        self.algebra = algebra
        self.ctx = ctx
        self.slots = slots

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_compatible(self.algebra, self.ctx, other)
        return AlgebraElement(
            self.algebra,
            self.ctx,
            tuple(a + b for a, b in zip(self.slots, other.slots)),
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.ctx, tuple(-a for a in self.slots))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_compatible(self.algebra, self.ctx, other)
        algebra, ctx = self.algebra, self.ctx
        out = algebra.product(ctx.field, _slot_terms(self), _slot_terms(other))
        return AlgebraElement(algebra, ctx, tuple(terms_poly(ctx, s) for s in out))

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.slots)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.ctx == other.ctx
            and self.slots == other.slots
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.slots))

    def __repr__(self) -> str:
        body = ", ".join(str(s) for s in self.slots)
        return f"<{self.algebra.name} element ({body})>"


def _slot_terms(value: AlgebraElement) -> list[list]:
    """Each slot of an element as (packed exponents, coefficient, degree) terms."""
    return [[(m.p, c, m.deg) for m, c in s.coeffs.items()] for s in value.slots]


def evaluator(assignment: Mapping, algebra: AlgebraScheme, ctx: RingContext):
    """Ring evaluation at algebra values of every variable occurring, on per-slot
    packed term lists; coefficients map through the unit, powers are cached per
    variable, and each Monomial is made once."""
    field, powers, unit = ctx.field, {}, [[(0, 1, 0)]] + [[]] * (algebra.rank - 1)

    def power(name: str, e: int) -> list:
        if name not in powers:
            if name not in assignment:
                raise ValueError(f"no algebra value assigned to {name!r}")
            _check_compatible(algebra, ctx, assignment[name])
            powers[name] = {1: _slot_terms(assignment[name])}
        return algebra.power(field, powers[name], e)

    def evaluate(poly: MultiPoly) -> AlgebraElement:
        if poly.ctx.field != field:
            raise ValueError("coefficient fields differ")
        names, out = poly.ctx.all_vars, [{} for _ in range(algebra.rank)]
        for m, c in poly.coeffs.items():
            term = unit
            for i, e in m.exps:
                x = power(names[i], e)
                term = x if term is unit else algebra.product(field, term, x)
            for acc, s in zip(out, term):
                packed_fold(acc, s, c)
        return AlgebraElement(algebra, ctx, tuple(packed_poly(ctx, d) for d in out))

    return evaluate


def evaluate_in_algebra(poly: MultiPoly, assignment, algebra, ctx) -> AlgebraElement:
    """One polynomial through an :func:`evaluator`."""
    return evaluator(assignment, algebra, ctx)(poly)


# -- builtins -------------------------------------------------------------------


def trivial_algebra() -> AlgebraScheme:
    return AlgebraScheme(("1",), {(0, 0): {0: Fraction(1)}}, name="trivial")


def _monomial_label(exp: tuple[int, ...], names: Sequence[str]) -> str:
    if not any(exp):
        return "1"
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def truncated_algebra(nvars: int, order: int) -> AlgebraScheme:
    """Polynomial algebra in ``nvars`` nilpotents truncated above ``order``."""
    if nvars < 1 or order < 0:
        raise ValueError("need at least one variable and nonnegative order")
    # each exponent tuple has nvars entries, and at order 0 the rank is 1 for
    # any nvars, so nvars has its own budget; the rank C(nvars + order, order)
    # is then computed on a capped order, so it stays cheap
    _within_budget(nvars, "vars")
    k = min(order, ALGEBRA_RANK_BUDGET)
    _within_budget(comb(nvars + k, k))
    exps = exponents_up_to(nvars, order, include_zero=True)
    index = {e: k for k, e in enumerate(exps)}
    names = ["h"] if nvars == 1 else [f"h{i + 1}" for i in range(nvars)]
    labels = [_monomial_label(e, names) for e in exps]
    # e_a * e_b = e_{a+b} while a + b stays within the order, else 0
    cells = {
        (i, j): {index[total]: Fraction(1)}
        for i, a in enumerate(exps)
        for j, b in enumerate(exps)
        if (total := tuple(x + y for x, y in zip(a, b))) in index
    }
    return AlgebraScheme(labels, cells, name=f"truncated({nvars},{order})")


def dual_numbers() -> AlgebraScheme:
    return truncated_algebra(1, 1)


def product_algebra(n: int) -> AlgebraScheme:
    """n-fold product of the base, re-based so the unit comes first.

    With idempotent coordinates f_0, ..., f_{n-1}, the stored basis is
    e_0 = f_0 + ... + f_{n-1} (the unit) and e_j = f_j for j >= 1, so
    e_j * e_m = delta_jm * e_j off the unit row.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    _within_budget(n)
    labels = ["1"] + [f"u{j}" for j in range(1, n)]
    cells = {
        (i, j): {max(i, j): Fraction(1)}
        for i in range(n)
        for j in range(n)
        if min(i, j) == 0 or i == j
    }
    return AlgebraScheme(labels, cells, name=f"product({n})")


def dring_algebra(c) -> AlgebraScheme:
    """Rank-2 algebra with e_1^2 = c*e_1; c = 0 gives the dual numbers."""
    c = _fractionize(c)
    one = Fraction(1)
    cells = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {1: c}}
    return AlgebraScheme(("1", "d"), cells, name=f"dring({c})")


# each builtin algebra's constructor and the spec fields it reads, in
# argument order, each with its conversion
BUILTINS = {
    "trivial": (trivial_algebra, {}),
    "truncated": (truncated_algebra, {"vars": int, "order": int}),
    "product": (product_algebra, {"n": int}),
    "dring": (dring_algebra, {"c": _fractionize}),
}


def make_builtin(spec) -> AlgebraScheme:
    """Algebra from a JSON-shaped spec dict (see fixture schema)."""
    if isinstance(spec, AlgebraScheme):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"cannot read algebra spec {spec!r}")
    if "builtin" in spec:
        kind = spec["builtin"]
        if not isinstance(kind, str) or kind not in BUILTINS:
            raise ValueError(f"unknown builtin algebra {kind!r}")
        build, fields = BUILTINS[kind]
        return build(*(convert(spec[key]) for key, convert in fields.items()))
    if "basis" in spec and "mult" in spec:
        labels = spec["basis"]
        _within_budget(len(labels))
        rank = _rank(labels)
        mult = [[list(map(_fractionize, cell)) for cell in row] for row in spec["mult"]]
        if len(mult) != rank or any(
            len(row) != rank or any(len(cell) != rank for cell in row) for row in mult
        ):
            raise AlgebraValidationError("structure table is not rank x rank x rank")
        cells = {
            (i, j): {k: c for k, c in enumerate(cell) if c}
            for i, row in enumerate(mult)
            for j, cell in enumerate(row)
        }
        return AlgebraScheme(labels, cells, name=spec.get("name", "custom"))
    raise ValueError("algebra spec needs either 'builtin' or 'basis'+'mult'")


# -- tensor products --------------------------------------------------------------


def _tensor_labels(e: AlgebraScheme, f: AlgebraScheme) -> list[str]:
    left = list(e.labels)
    right = list(f.labels)
    clash = {a for a in left if a != "1"} & {b for b in right if b != "1"}
    if clash:
        left = [a if a == "1" else f"{a}1" for a in left]
        right = [b if b == "1" else f"{b}2" for b in right]
    out = []
    for a in left:
        for b in right:
            if a == "1" and b == "1":
                out.append("1")
            elif a == "1":
                out.append(b)
            elif b == "1":
                out.append(a)
            else:
                out.append(f"{a}*{b}")
    return out


def tensor(e: AlgebraScheme, f: AlgebraScheme) -> AlgebraScheme:
    """Tensor product with basis e_j (x) f_j' ordered (j, j')-lexicographically,
    so the flat index of (j, j') is j*rank(F) + j'.  The rank is checked
    against the budget before the constants are built."""
    le, lf = e.rank, f.rank
    _within_budget(le * lf, f"tensor rank {le} x {lf}")
    pairs = [(i, ip) for i in range(le) for ip in range(lf)]
    cells = {
        (i * lf + ip, j * lf + jp): {
            k * lf + kp: c * d for k, c in e.terms[i][j] for kp, d in f.terms[ip][jp]
        }
        for i, ip in pairs
        for j, jp in pairs
    }
    return AlgebraScheme(_tensor_labels(e, f), cells, name=f"tensor({e.name},{f.name})")
