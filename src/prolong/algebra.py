"""Finite free algebra schemes presented by structure constants.

An :class:`AlgebraScheme` of rank ``l`` is the data of basis labels
``e_0, ..., e_{l-1}`` and a multiplication table ``c[i][j][k]`` with
``e_i * e_j = sum_k c[i][j][k] e_k``.  The unit is always ``e_0``; tables are
validated for the unit law, commutativity, and associativity on construction.
Structure constants are rationals and are coerced into the working field at
the point of use, so one algebra value serves every coefficient field whose
characteristic does not divide a denominator.

Builtins cover truncated polynomial algebras (jets of order n), finite
products of the base (difference/period structures), and the one-parameter
family interpolating between differential and difference operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .polynomials import MONOMIAL_ONE, MultiPoly, RingContext, exponents_up_to


# largest rank an algebra spec may ask for, checked before its table is built
ALGEBRA_RANK_BUDGET = 48


class AlgebraValidationError(ValueError):
    """A structure-constant table violating one of the ring axioms."""


def _within_budget(rank: int, what: str = "rank") -> None:
    if rank > ALGEBRA_RANK_BUDGET:
        raise AlgebraValidationError(f"{what} over the budget {ALGEBRA_RANK_BUDGET}")


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

    __slots__ = ("rank", "labels", "table", "name", "terms")

    def __init__(
        self,
        labels: Sequence[str],
        table: Sequence[Sequence[Sequence[object]]],
        name: str = "custom",
    ):
        rank = len(labels)
        if rank < 1:
            raise AlgebraValidationError("rank must be at least 1")
        tab = tuple(
            tuple(tuple(_fractionize(v) for v in cell) for cell in row)
            for row in table
        )
        if len(tab) != rank or any(
            len(row) != rank or any(len(cell) != rank for cell in row) for row in tab
        ):
            raise AlgebraValidationError("structure table is not rank x rank x rank")
        self.rank = rank
        self.labels = tuple(str(s) for s in labels)
        self.table = tab
        self.name = name
        # nonzero (k, c_ij^k) entries of each cell; the table is immutable
        self.terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
            for row in tab
        )
        self._validate()

    def _validate(self) -> None:
        """Unit law, commutativity and associativity over the sparse terms.
        By commutativity (i, j, m) fails exactly when (m, j, i) does and
        (i, j, i) never fails, so only triples with 0 < i < m are checked."""
        rank, tab, terms = self.rank, self.table, self.terms
        for j in range(rank):
            if terms[0][j] == terms[j][0] == ((j, 1),):
                continue
            for k in range(rank):
                for a, b in ((0, j), (j, 0)):
                    if tab[a][b][k] != int(j == k):
                        raise AlgebraValidationError(
                            f"unit law violated: e_{a}*e_{b} has coefficient"
                            f" {tab[a][b][k]} on e_{k}"
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
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.table))

    def __repr__(self) -> str:
        return f"AlgebraScheme({self.name!r}, rank={self.rank})"

    def multiply_vectors(self, a: Sequence[Fraction], b: Sequence[Fraction]):
        """Rational coefficient vectors multiplied through the table."""
        out = [Fraction(0)] * self.rank
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in self.terms[i][j]:
                    out[k] += ai * bj * c
        return out

    # -- elements -------------------------------------------------------------

    def element(self, ctx: RingContext, slots: Sequence) -> "AlgebraElement":
        if len(slots) != self.rank:
            raise ValueError(
                f"expected {self.rank} slots, got {len(slots)}"
            )
        polys = tuple(
            s if isinstance(s, MultiPoly) else ctx.const(_reduce(ctx, s))
            for s in slots
        )
        return AlgebraElement(self, ctx, polys)

    def unit(self, ctx: RingContext) -> "AlgebraElement":
        return self.element(ctx, [ctx.one()] + [ctx.zero()] * (self.rank - 1))

    def scalar(self, ctx: RingContext, poly: MultiPoly) -> "AlgebraElement":
        """Image of a base element under the standard inclusion s."""
        return self.element(ctx, [poly] + [ctx.zero()] * (self.rank - 1))


def _reduce(ctx: RingContext, value):
    if isinstance(value, Fraction):
        return ctx.field.from_fraction(value)
    return ctx.field.coerce(value)


def _check_compatible(algebra: AlgebraScheme, ctx: RingContext, value) -> None:
    if algebra != value.algebra:
        raise ValueError("elements of different algebras")
    if ctx != value.ctx:
        raise ValueError("elements over different contexts")


def _accumulate(acc: dict, coeffs: Mapping, c, field) -> None:
    """Add ``c`` times the terms ``coeffs`` into the coefficient dict ``acc``."""
    add, mul, scaled = field.add, field.mul, c != 1
    for m, v in coeffs.items():
        if scaled:
            v = mul(v, c)
        old = acc.get(m)
        acc[m] = v if old is None else add(old, v)


class AlgebraElement:
    """Element of E(R): one polynomial per basis slot."""

    __slots__ = ("algebra", "ctx", "slots")

    def __init__(
        self, algebra: AlgebraScheme, ctx: RingContext, slots: tuple[MultiPoly, ...]
    ):
        if len(slots) != algebra.rank:
            raise ValueError("slot count does not match algebra rank")
        if any(s.ctx != ctx for s in slots):
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
        algebra = self.algebra
        field = self.ctx.field
        out = [{} for _ in range(algebra.rank)]
        for i, a in enumerate(self.slots):
            if not a.coeffs:
                continue
            row = algebra.terms[i]
            for j, b in enumerate(other.slots):
                if b.coeffs and row[j]:
                    ab = (a * b).coeffs
                    for k, c in row[j]:
                        _accumulate(out[k], ab, field.from_fraction(c), field)
        return AlgebraElement(
            algebra, self.ctx, tuple(MultiPoly(self.ctx, d) for d in out)
        )

    def scale(self, poly) -> "AlgebraElement":
        if isinstance(poly, MultiPoly):
            return AlgebraElement(
                self.algebra, self.ctx, tuple(s * poly for s in self.slots)
            )
        return AlgebraElement(
            self.algebra, self.ctx, tuple(s.scale(poly) for s in self.slots)
        )

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


def evaluate_in_algebra(
    poly: MultiPoly,
    assignment: Mapping[str, AlgebraElement],
    algebra: AlgebraScheme,
    ctx: RingContext,
) -> AlgebraElement:
    """Ring evaluation of a polynomial with algebra-element arguments.

    Every variable occurring in ``poly`` must be assigned; coefficients map
    through the unit.  Powers are built up incrementally and cached per
    variable, and the scaled terms are summed slot by slot in place.
    """
    if poly.ctx.field != ctx.field:
        raise ValueError("coefficient fields differ")
    field = ctx.field
    powers: dict[str, list[AlgebraElement]] = {}

    def power(name: str, e: int) -> AlgebraElement:
        got = powers.get(name)
        if got is None:
            if name not in assignment:
                raise ValueError(f"no algebra value assigned to {name!r}")
            _check_compatible(algebra, ctx, assignment[name])
            got = powers[name] = [assignment[name]]
        while len(got) < e:
            got.append(got[-1] * got[0])
        return got[e - 1]

    names = poly.ctx.all_vars
    out = [{} for _ in range(algebra.rank)]
    for m, c in poly.coeffs.items():
        term = None
        for i, e in m.exps:
            p = power(names[i], e)
            term = p if term is None else term * p
        if term is None:
            _accumulate(out[0], {MONOMIAL_ONE: c}, field.one, field)
        else:
            for acc, s in zip(out, term.slots):
                _accumulate(acc, s.coeffs, c, field)
    return AlgebraElement(algebra, ctx, tuple(MultiPoly(ctx, d) for d in out))


# -- builtins -------------------------------------------------------------------


def trivial_algebra() -> AlgebraScheme:
    return AlgebraScheme(("1",), (((Fraction(1),),),), name="trivial")


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
    rank = len(exps)
    table = []
    for a in exps:
        row = []
        for b in exps:
            cell = [Fraction(0)] * rank
            total = tuple(x + y for x, y in zip(a, b))
            if sum(total) <= order:
                cell[index[total]] = Fraction(1)
            row.append(cell)
        table.append(row)
    return AlgebraScheme(labels, table, name=f"truncated({nvars},{order})")


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
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = [Fraction(0)] * n
            if i == 0:
                cell[j] = Fraction(1)
            elif j == 0:
                cell[i] = Fraction(1)
            elif i == j:
                cell[i] = Fraction(1)
            row.append(cell)
        table.append(row)
    return AlgebraScheme(labels, table, name=f"product({n})")


def dring_algebra(c) -> AlgebraScheme:
    """Rank-2 algebra with e_1^2 = c*e_1; c = 0 gives the dual numbers."""
    c = _fractionize(c)
    table = (
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ((Fraction(0), Fraction(1)), (Fraction(0), c)),
    )
    return AlgebraScheme(("1", "d"), table, name=f"dring({c})")


def make_builtin(spec) -> AlgebraScheme:
    """Algebra from a JSON-shaped spec dict (see fixture schema)."""
    if isinstance(spec, AlgebraScheme):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"cannot read algebra spec {spec!r}")
    if "builtin" in spec:
        kind = spec["builtin"]
        if kind == "trivial":
            return trivial_algebra()
        if kind == "truncated":
            return truncated_algebra(int(spec["vars"]), int(spec["order"]))
        if kind == "product":
            return product_algebra(int(spec["n"]))
        if kind == "dring":
            return dring_algebra(spec["c"])
        raise ValueError(f"unknown builtin algebra {kind!r}")
    if "basis" in spec and "mult" in spec:
        _within_budget(len(spec["basis"]))
        return AlgebraScheme(spec["basis"], spec["mult"], name=spec.get("name", "custom"))
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
    against the budget before the table is built."""
    le, lf = e.rank, f.rank
    rank = le * lf
    _within_budget(rank, f"tensor rank {le} x {lf}")
    table = []
    for i in range(le):
        for ip in range(lf):
            row = []
            for j in range(le):
                for jp in range(lf):
                    cell = [Fraction(0)] * rank
                    for k, c in e.terms[i][j]:
                        for kp, d in f.terms[ip][jp]:
                            cell[k * lf + kp] = c * d
                    row.append(cell)
            table.append(row)
    return AlgebraScheme(
        _tensor_labels(e, f), table, name=f"tensor({e.name},{f.name})"
    )
