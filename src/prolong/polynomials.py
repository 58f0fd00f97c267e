"""Sparse multivariate polynomials over an exact coefficient field.

A :class:`RingContext` fixes the coefficient field, the base-ring generator
names (coefficients may be polynomials in these), and the scheme variable
names.  The total variable order is scheme variables first, base generators
after them; monomials index into that order.  Polynomials are sparse maps
from monomials to nonzero scalars.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import comb, prod
from typing import Callable, Iterable, Mapping, Sequence

from .scalars import Field

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


MAX_EXPONENT = (1 << 31) - 1
_FIELD = (1 << 32) - 1
_LIMIT = f"the limit {MAX_EXPONENT} (2**31 - 1)"


@cache
def _guard(n: int) -> int:
    """The top bit of each of the ``n`` lowest 32-bit fields."""
    return (1 << 32 * n) // _FIELD << 31


class Monomial:
    """Exponent vector packed into one int ``p``, 32 bits per variable: bits
    ``32*i`` up to ``32*i + 31`` hold the exponent of variable ``i``.  As
    exponents stay below 2**31, the top bit of each field is a guard bit that
    sums and differences never carry past; it shows which fields overflowed
    or borrowed.  ``deg`` is the total degree, ``n`` the highest index + 1."""

    __slots__ = ("p", "deg", "n")

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        p = deg = seen = 0
        for i, e in exps:
            if i < 0 or not 0 <= e <= MAX_EXPONENT:
                bad = f"bad monomial entry ({i}, {e}); exponents run from 0 to"
                raise ValueError(f"{bad} {_LIMIT}")
            if seen >> i & 1:
                raise ValueError(f"repeated variable index {i} in a monomial")
            seen |= 1 << i
            p |= e << 32 * i
            deg += e
        self.p, self.deg, self.n = p, deg, (p.bit_length() + 31) >> 5

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The nonzero ``(index, exponent)`` pairs in index order."""
        return _fields(self.p)

    def degree(self) -> int:
        return self.deg

    def get(self, index: int) -> int:
        return self.p >> 32 * index & _FIELD

    def is_one(self) -> bool:
        return not self.p

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        p, n = self.p + other.p, max(self.n, other.n)
        deg = self.deg + other.deg
        if deg > MAX_EXPONENT and p & _guard(n):
            raise ValueError(f"monomial exponent above {_LIMIT}")
        return _packed(p, deg, n)

    def divides(self, other: "Monomial") -> bool:
        if self.deg > other.deg or self.n > other.n:
            return False
        g = _guard(other.n)
        return ((other.p | g) - self.p) & g == g

    def divide(self, other: "Monomial") -> "Monomial":
        """Return self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError("monomial does not divide")
        p = self.p - other.p
        return _packed(p, self.deg - other.deg, (p.bit_length() + 31) >> 5)

    def lcm(self, other: "Monomial") -> "Monomial":
        n = max(self.n, other.n)
        a, b, g = self.p, other.p, _guard(n)
        wins = ((a | g) - b) & g  # guard bits of the fields where a >= b
        p = b ^ ((a ^ b) & (wins - (wins >> 31)))
        small = self.deg + other.deg < _FIELD  # then p % _FIELD sums the fields
        return _packed(p, p % _FIELD if small else sum(e for _, e in _fields(p)), n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)!r})"


def _packed(p: int, deg: int, n: int) -> Monomial:
    m = object.__new__(Monomial)
    m.p, m.deg, m.n = p, deg, n
    return m


def _fields(p: int) -> tuple[tuple[int, int], ...]:
    """The nonzero fields, found by stepping from lowest set bit to the next."""
    out, i = [], 0
    while p:
        skip = ((p & -p).bit_length() - 1) >> 5
        p >>= 32 * skip
        out.append((i + skip, p & _FIELD))
        p >>= 32
        i += skip + 1
    return tuple(out)


MONOMIAL_ONE = Monomial()


def grlex_key(m: Monomial, nvars: int) -> tuple[int, int]:
    """Graded lexicographic key, variable 0 in the most significant field."""
    return (m.deg, sum(e << 32 * (nvars - 1 - i) for i, e in m.exps))


def grevlex_key(m: Monomial, nvars: int) -> tuple[int, int]:
    """Graded reverse lexicographic key; larger key means larger monomial."""
    return (m.deg, -m.p)


class RingContext:
    """Names and order of variables plus the coefficient field.

    ``scheme_vars`` come first in the variable order, ``base_gens`` after
    them; Groebner computations therefore treat base generators as the
    smallest variables.  Names must be distinct identifiers.
    """

    __slots__ = ("field", "base_gens", "scheme_vars", "_index")

    def __init__(
        self,
        field: Field,
        base_gens: Sequence[str] = (),
        scheme_vars: Sequence[str] = (),
    ):
        base_gens = tuple(base_gens)
        scheme_vars = tuple(scheme_vars)
        seen: set[str] = set()
        for name in scheme_vars + base_gens:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        self.field = field
        self.base_gens = base_gens
        self.scheme_vars = scheme_vars
        self._index = {name: i for i, name in enumerate(scheme_vars + base_gens)}

    @property
    def all_vars(self) -> tuple[str, ...]:
        return self.scheme_vars + self.base_gens

    @property
    def nvars(self) -> int:
        return len(self.scheme_vars) + len(self.base_gens)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def is_base_index(self, index: int) -> bool:
        return index >= len(self.scheme_vars)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingContext)
            and self.field == other.field
            and self.base_gens == other.base_gens
            and self.scheme_vars == other.scheme_vars
        )

    def __hash__(self) -> int:
        return hash((self.field, self.base_gens, self.scheme_vars))

    def __repr__(self) -> str:
        return (
            f"RingContext({self.field!r}, base={list(self.base_gens)},"
            f" vars={list(self.scheme_vars)})"
        )

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return MultiPoly(self, {MONOMIAL_ONE: self.field.one})

    def const(self, value) -> "MultiPoly":
        c = self.field.coerce(value)
        return MultiPoly(self, {MONOMIAL_ONE: c} if not self.field.is_zero(c) else {})

    def var(self, name: str) -> "MultiPoly":
        i = self.var_index(name)
        return MultiPoly(self, {Monomial(((i, 1),)): self.field.one})


class MultiPoly:
    """Polynomial as a sparse monomial-to-coefficient map.

    Treat instances as immutable; arithmetic returns new values.  Mixed
    arithmetic with ints (and Fractions over the rationals) is supported.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs: Mapping[Monomial, object]):
        field = ctx.field
        self.ctx = ctx
        self.coeffs = {m: c for m, c in coeffs.items() if not field.is_zero(c)}

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ctx != self.ctx:
                raise ValueError("polynomials from different contexts")
            return other
        return self.ctx.const(other)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.coeffs)

    def constant_value(self):
        """Scalar value of a constant polynomial."""
        if not self.coeffs:
            return self.ctx.field.zero
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[MONOMIAL_ONE]

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        return max((m.deg for m in self.coeffs), default=-1)

    def variables(self) -> set[int]:
        return {i for m in self.coeffs for i in m.indices()}

    def leading_monomial(self, key: Callable[[Monomial, int], tuple]) -> Monomial:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading monomial")
        n = self.ctx.nvars
        return max(self.coeffs, key=lambda m: key(m, n))

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending graded lexicographic order."""
        n = self.ctx.nvars
        return sorted(
            self.coeffs.items(), key=lambda t: grlex_key(t[0], n), reverse=True
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        field = self.ctx.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = field.add(out.get(m, field.zero), c)
        return MultiPoly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        field = self.ctx.field
        return MultiPoly(self.ctx, {m: field.neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        other = self._coerce(other)
        field = self.ctx.field
        out: dict[Monomial, object] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1.mul(m2)
                out[m] = field.add(out.get(m, field.zero), field.mul(c1, c2))
        return MultiPoly(self.ctx, out)

    def __rmul__(self, other) -> "MultiPoly":
        return self.scale(other)

    def scale(self, scalar) -> "MultiPoly":
        field = self.ctx.field
        c0 = field.coerce(scalar)
        return MultiPoly(self.ctx, {m: field.mul(c, c0) for m, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"<poly {poly_to_str(self)}>"


# -- printing ----------------------------------------------------------------


def _monomial_str(ctx: RingContext, m: Monomial) -> str:
    parts = []
    for i, e in m.exps:
        name = ctx.all_vars[i]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _term_body(ctx: RingContext, c, m: Monomial) -> str:
    if m.is_one():
        return ctx.field.format(c)
    if c == ctx.field.one:
        return _monomial_str(ctx, m)
    return f"{ctx.field.format(c)}*{_monomial_str(ctx, m)}"


def poly_to_str(poly: MultiPoly) -> str:
    """Canonical rendering; terms in descending graded lexicographic order.

    The output always parses back to the same polynomial.
    """
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    ctx = poly.ctx
    rational = ctx.field.is_rational
    pieces = [_term_body(ctx, terms[0][1], terms[0][0])]
    for m, c in terms[1:]:
        if rational and c < 0:
            pieces.append(f" - {_term_body(ctx, -c, m)}")
        else:
            pieces.append(f" + {_term_body(ctx, c, m)}")
    return "".join(pieces)


# -- parsing -----------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """An identifier that is not a variable of the context."""

    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown identifier {name!r}", offset)
        self.name = name


class _Parser:
    # Grammar:
    #   expr   := term (('+' | '-') term)*
    #   term   := factor ('*' factor)*
    #   factor := base ('^' uint)?
    #   base   := rational | identifier | '(' expr ')'
    #   rational := int ('/' uint)?
    # Multiplication is always explicit; whitespace is insignificant.

    def __init__(self, text: str, ctx: RingContext):
        self.text = text
        self.ctx = ctx
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def parse(self) -> MultiPoly:
        value = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        return value

    def parse_expr(self) -> MultiPoly:
        value = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> MultiPoly:
        value = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.parse_uint()
        return base

    def parse_base(self) -> MultiPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit() or ch == "-":
            return self.parse_rational()
        if ch.isalpha():
            start = self.pos
            name = self.parse_identifier()
            try:
                index = self.ctx.var_index(name)
            except ValueError:
                raise UnknownIdentifierError(name, start) from None
            return MultiPoly(
                self.ctx, {Monomial(((index, 1),)): self.ctx.field.one}
            )
        raise self.error("expected a number, variable, or '('")

    def parse_identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def parse_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an unsigned integer")
        return int(self.text[start : self.pos])

    def parse_rational(self) -> MultiPoly:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        num_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == num_start:
            raise self.error("expected digits")
        num = int(self.text[start : self.pos])
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den = self.parse_uint()
            if den == 0:
                raise ParseError("zero denominator", start)
        try:
            value = self.ctx.field.from_fraction(Fraction(num, den))
        except ZeroDivisionError:
            raise ParseError(f"denominator {den} is not invertible", start) from None
        return self.ctx.const(value)


def parse_poly(text: str, ctx: RingContext) -> MultiPoly:
    """Parse polynomial text against a context.

    Raises :class:`ParseError` with a byte offset on syntax errors and
    :class:`UnknownIdentifierError` naming the token for unknown variables.
    """
    return _Parser(text, ctx).parse()


# -- substitution and transport ----------------------------------------------


def transport(
    poly: MultiPoly,
    target_ctx: RingContext,
    rename: Mapping[str, str] | None = None,
) -> MultiPoly:
    """Re-index a polynomial into another context, matching variables by name.

    ``rename`` maps source names to target names before lookup.  Coefficient
    fields must agree.
    """
    if poly.ctx.field != target_ctx.field:
        raise ValueError("cannot transport between different coefficient fields")
    rename = rename or {}
    src_names = poly.ctx.all_vars
    mapping: dict[int, int] = {}
    out: dict[Monomial, object] = {}
    field = target_ctx.field
    for m, c in poly.coeffs.items():
        pairs = []
        for i, e in m.exps:
            j = mapping.get(i)
            if j is None:
                name = src_names[i]
                j = target_ctx.var_index(rename.get(name, name))
                mapping[i] = j
            pairs.append((j, e))
        mono = Monomial(pairs)
        out[mono] = field.add(out.get(mono, field.zero), c)
    return MultiPoly(target_ctx, out)


def substitute(
    poly: MultiPoly,
    assignment: Mapping[str, MultiPoly],
    target_ctx: RingContext,
) -> MultiPoly:
    """Substitute polynomials for variables.

    Assigned variables are replaced by their images (which must live in
    ``target_ctx``); unassigned variables must exist in ``target_ctx`` under
    the same name.
    """
    if poly.ctx.field != target_ctx.field:
        raise ValueError("cannot substitute between different coefficient fields")
    src_names = poly.ctx.all_vars
    powers: dict[tuple[str, int], MultiPoly] = {}

    def power(name: str, e: int) -> MultiPoly:
        got = powers.get((name, e))
        if got is None:
            got = assignment[name] ** e
            powers[(name, e)] = got
        return got

    total = target_ctx.zero()
    for m, c in poly.coeffs.items():
        kept: list[tuple[int, int]] = []
        assigned: list[tuple[str, int]] = []
        for i, e in m.exps:
            name = src_names[i]
            if name in assignment:
                assigned.append((name, e))
            else:
                kept.append((target_ctx.var_index(name), e))
        term = MultiPoly(target_ctx, {Monomial(kept): c})
        for name, e in assigned:
            term = term * power(name, e)
        total = total + term
    return total


# -- divided powers ------------------------------------------------------------


def hasse_derivative(poly: MultiPoly, alpha: Monomial) -> MultiPoly:
    """Divided-power derivative: x^b maps to binom(b, a) x^(b-a) componentwise.

    Binomials are computed over the integers and then reduced into the
    coefficient field, so the operator is correct in every characteristic.
    """
    field = poly.ctx.field
    out: dict[Monomial, object] = {}
    for m, c in poly.coeffs.items():
        if not alpha.divides(m):
            continue
        mult = prod(comb(m.get(i), a) for i, a in alpha.exps)
        coeff = field.mul(c, field.from_int(mult))
        if field.is_zero(coeff):
            continue
        mono = m.divide(alpha)
        out[mono] = field.add(out.get(mono, field.zero), coeff)
    return MultiPoly(poly.ctx, out)


def compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    """All length-``slots`` tuples of nonnegative ints summing to ``total``,
    in descending lexicographic order (weight drains from earlier slots)."""
    if slots == 0:
        return [()] if total == 0 else []
    # the successor moves one unit out of the last nonzero slot before the
    # final one, into the slot after it, together with the final slot's load
    exps = [total] + [0] * (slots - 1)
    out = [tuple(exps)]
    last = slots - 1
    while exps[last] != total:
        i = last - 1
        while not exps[i]:
            i -= 1
        tail, exps[last] = exps[last], 0
        exps[i] -= 1
        exps[i + 1] = tail + 1
        out.append(tuple(exps))
    return out


def exponents_up_to(slots: int, bound: int, include_zero: bool = False) -> list[tuple[int, ...]]:
    """Exponent tuples with 0 < total <= bound (or 0 <= total if asked),
    ordered by total degree then descending lexicographically."""
    degrees = range(0 if include_zero else 1, bound + 1)
    return [exp for d in degrees for exp in compositions(d, slots)]


# -- seeded random polynomials --------------------------------------------------


def random_poly(
    ctx: RingContext,
    rng,
    max_degree: int = 3,
    max_terms: int = 4,
    names: Sequence[str] | None = None,
    allow_zero: bool = False,
) -> MultiPoly:
    """Deterministic random polynomial driven by a seeded ``random.Random``."""
    if names is None:
        names = ctx.all_vars
    indices = [ctx.var_index(n) for n in names]
    for _ in range(64):
        field = ctx.field
        coeffs: dict[Monomial, object] = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            degree = rng.randrange(0, max_degree + 1)
            counts: dict[int, int] = {}
            if indices:
                for _ in range(degree):
                    i = indices[rng.randrange(len(indices))]
                    counts[i] = counts.get(i, 0) + 1
            m = Monomial(counts.items())
            if field.is_rational:
                c = field.coerce(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
            else:
                c = field.from_int(rng.randrange(field.p))
            coeffs[m] = field.add(coeffs.get(m, field.zero), c)
        candidate = MultiPoly(ctx, coeffs)
        if allow_zero or not candidate.is_zero():
            return candidate
    return ctx.one()
