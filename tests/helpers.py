"""Independent re-implementations used to cross-check library output, and
the small utilities only tests need.

The references are written naively (recursion over dict entries,
factorials, term-by-term expansion, dense loops) and on purpose share no
code with the package.
"""

from fractions import Fraction
from math import factorial, lcm

from prolong.algebra import AlgebraElement, AlgebraScheme, make_builtin
from prolong.jets import z_name
from prolong.polynomials import (
    MONOMIAL_ONE,
    Monomial,
    MultiPoly,
    RingContext,
    exponents_up_to,
    grevlex_key,
    grlex_key,
    hasse_derivative,
    substitute,
    transport,
)
from prolong.scalars import QQ
from prolong.weil import AffineScheme, PolyMorphism, SchemePoint, weil_restrict

# the package's monomial order keys by name; the engine itself uses grevlex
MONOMIAL_ORDERS = {"grlex": grlex_key, "grevlex": grevlex_key}


class ReferenceMonomial:
    """Sorted (index, exponent) pairs; zero exponents are never stored.
    Every operation rebuilds a dict or scans the pairs."""

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        pairs = tuple(sorted((i, e) for i, e in exps if e != 0))
        for i, e in pairs:
            if i < 0 or e < 0:
                raise ValueError(f"bad monomial entry ({i}, {e})")
        self.exps = pairs

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def get(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def indices(self) -> tuple:
        return tuple(i for i, _ in self.exps)

    def mul(self, other):
        out = dict(self.exps)
        for i, e in other.exps:
            out[i] = out.get(i, 0) + e
        return ReferenceMonomial(out.items())

    def divides(self, other) -> bool:
        return all(other.get(i) >= e for i, e in self.exps)

    def divide(self, other):
        out = dict(self.exps)
        for i, e in other.exps:
            have = out.get(i, 0) - e
            if have < 0:
                raise ValueError("monomial does not divide")
            out[i] = have
        return ReferenceMonomial(out.items())

    def lcm(self, other):
        out = dict(self.exps)
        for i, e in other.exps:
            out[i] = max(out.get(i, 0), e)
        return ReferenceMonomial(out.items())

    def dense(self, nvars: int) -> tuple:
        out = [0] * nvars
        for i, e in self.exps:
            out[i] = e
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, ReferenceMonomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)


def reference_lcm(a: Monomial, b: Monomial) -> Monomial:
    """lcm of two package monomials through :class:`ReferenceMonomial`."""
    return Monomial(ReferenceMonomial(a.exps).lcm(ReferenceMonomial(b.exps)).exps)


def _same_ctx(f: MultiPoly, g: MultiPoly) -> None:
    if f.ctx != g.ctx:
        raise ValueError("polynomials from different contexts")


def reference_poly_add(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f + g through the field's add, one Monomial-keyed dict entry at a
    time; cancelled terms are dropped by the constructor."""
    _same_ctx(f, g)
    field = f.ctx.field
    out = dict(f.coeffs)
    for m, c in g.coeffs.items():
        out[m] = field.add(out.get(m, field.zero), c)
    return MultiPoly(f.ctx, out)


def reference_poly_sub(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    _same_ctx(f, g)
    neg = g.ctx.field.neg
    negated = MultiPoly(g.ctx, {m: neg(c) for m, c in g.coeffs.items()})
    return reference_poly_add(f, negated)


def reference_poly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f * g term pair by term pair: Monomial.mul checks each product's
    exponents, and the field's add and mul reduce every step."""
    _same_ctx(f, g)
    field = f.ctx.field
    out = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            m = m1.mul(m2)
            out[m] = field.add(out.get(m, field.zero), field.mul(c1, c2))
    return MultiPoly(f.ctx, out)


def reference_compositions(total: int, slots: int) -> list:
    """Length-``slots`` tuples summing to ``total`` in descending
    lexicographic order, by recursion on the first slot."""
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in reference_compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out


def reference_grlex_key(m: ReferenceMonomial, nvars: int) -> tuple:
    return (m.degree(), m.dense(nvars))


def reference_grevlex_key(m: ReferenceMonomial, nvars: int) -> tuple:
    return (m.degree(), tuple(-e for e in reversed(m.dense(nvars))))


def degree_in(poly: MultiPoly, indices) -> int:
    """Largest total degree of a term in the variables ``indices``; -1 for
    the zero polynomial."""
    idx = set(indices)
    if not poly.coeffs:
        return -1
    return max(sum(e for i, e in m.exps if i in idx) for m in poly.coeffs)


def taylor_shift(poly: MultiPoly, bound: int) -> list:
    """Divided-power coefficients of the shift P(x + z) up to total degree
    ``bound`` in the scheme variables.

    Returns (alpha, D^alpha P) pairs ordered by degree then lexicographically;
    zero derivatives beyond alpha = 0 are dropped.
    """
    nscheme = len(poly.ctx.scheme_vars)
    out = [(MONOMIAL_ONE, poly)]
    for exp in exponents_up_to(nscheme, bound):
        alpha = Monomial((i, e) for i, e in enumerate(exp))
        d = hasse_derivative(poly, alpha)
        if not d.is_zero():
            out.append((alpha, d))
    return out


def s_polynomial(f: MultiPoly, g: MultiPoly, order: str = "grevlex") -> MultiPoly:
    """S-polynomial of ``f`` and ``g``: both leading terms scaled to their
    lcm with coefficient one, then subtracted."""
    key = MONOMIAL_ORDERS[order]
    fm, gm = f.leading_monomial(key), g.leading_monomial(key)
    lcm = reference_lcm(fm, gm)
    field = f.ctx.field
    left = MultiPoly(f.ctx, {lcm.divide(fm): field.inv(f.coeffs[fm])}) * f
    right = MultiPoly(g.ctx, {lcm.divide(gm): field.inv(g.coeffs[gm])}) * g
    return left - right


def partial_derivative(poly: MultiPoly, index: int) -> MultiPoly:
    field = poly.ctx.field
    out = {}
    for m, c in poly.coeffs.items():
        e = m.get(index)
        if e == 0:
            continue
        lowered = dict(m.exps)
        lowered[index] = e - 1
        mono = Monomial(lowered.items())
        coeff = field.mul(c, field.from_int(e))
        if not field.is_zero(coeff):
            out[mono] = field.add(out.get(mono, field.zero), coeff)
    return MultiPoly(poly.ctx, out)


def iterated_derivative(poly: MultiPoly, alpha: Monomial) -> MultiPoly:
    out = poly
    for i, e in alpha.exps:
        for _ in range(e):
            out = partial_derivative(out, i)
    return out


def alpha_factorial(alpha: Monomial) -> int:
    n = 1
    for _, e in alpha.exps:
        n *= factorial(e)
    return n


def divided_power_oracle(poly: MultiPoly, alpha: Monomial) -> MultiPoly:
    """D^alpha over the rationals via iterated d/dx divided by alpha!."""
    if not poly.ctx.field.is_rational:
        raise ValueError("oracle only valid in characteristic zero")
    return iterated_derivative(poly, alpha).scale(Fraction(1, alpha_factorial(alpha)))


def local_quotient_dimension(scheme, point, order: int) -> int:
    """dim of m/(m^(order+1) + I) at a scalar point, by standard monomials.

    Translates the point to the origin, saturates with all monomials of the
    next degree, and counts monomials not divisible by any leading term of a
    reduced basis.  Entirely independent of the jet construction.
    """
    from prolong.groebner import groebner
    from prolong.polynomials import (
        compositions,
        exponents_up_to,
        substitute,
        transport,
    )

    ctx = scheme.ctx
    if ctx.base_gens:
        raise ValueError("specialize the base before taking local dimensions")
    if not isinstance(point, SchemePoint):
        point = SchemePoint(scheme, point)
    names = scheme.variables
    shift = {n: ctx.var(n) + transport(point.assignment[n], ctx) for n in names}
    gens = [substitute(p, shift, ctx) for p in scheme.generators]
    for exp in compositions(order + 1, len(names)):
        gens.append(MultiPoly(ctx, {Monomial(enumerate(exp)): ctx.field.one}))
    basis = groebner(gens)
    leading = [g.leading_monomial(grevlex_key) for g in basis.gens]
    standard = 0
    for exp in exponents_up_to(len(names), order, include_zero=True):
        m = Monomial((i, e) for i, e in enumerate(exp) if e)
        if not any(lm.divides(m) for lm in leading):
            standard += 1
    return standard - 1


def augmented_jet_fiber(scheme, order: int, point):
    """Jet fiber of the generating set enlarged by shifted monomial multiples.

    Adjoining g * (x - p)^mu for small mu makes the linear system see the
    whole ideal image in the truncated local ring, not just the generators.
    """
    from prolong.jets import jet_fiber
    from prolong.polynomials import exponents_up_to, transport
    from prolong.weil import AffineScheme, SchemePoint

    ctx = scheme.ctx
    if not isinstance(point, SchemePoint):
        point = SchemePoint(scheme, point)
    names = scheme.variables
    enlarged = []
    for exp in exponents_up_to(len(names), max(order - 1, 0), include_zero=True):
        mono = ctx.one()
        for n, e in zip(names, exp):
            if e:
                mono = mono * (ctx.var(n) - transport(point.assignment[n], ctx)) ** e
        for p in scheme.generators:
            enlarged.append(p * mono)
    ambient = AffineScheme(ctx, enlarged)
    return jet_fiber(ambient, order, dict(point.assignment))


def dense_rref(field, rows, ncols: int):
    """Reduced row echelon form by dense Gauss-Jordan elimination over lists.

    Rational rows are scaled to integer entries first, which never changes
    the reduced form.  Returns (echelon rows, pivot column list).
    """
    work = []
    for row in rows:
        row = list(row)
        if field.is_rational:
            denom = lcm(1, *(v.denominator for v in row))
            row = [v * denom for v in row]
        work.append(row)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next(
            (i for i in range(r, len(work)) if not field.is_zero(work[i][c])), None
        )
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(v, inv) for v in work[r]]
        for i in range(len(work)):
            if i == r or field.is_zero(work[i][c]):
                continue
            factor = work[i][c]
            work[i] = [
                field.sub(v, field.mul(factor, w)) for v, w in zip(work[i], work[r])
            ]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def dense_kernel(field, rows, ncols: int) -> list:
    """The canonical kernel basis of dense rows: one vector per free column,
    with a one there and zeros in the other free columns."""
    coerced = [[field.coerce(v) for v in row] for row in rows]
    echelon, pivots = dense_rref(field, coerced, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.neg(echelon[r][f])
        basis.append(vec)
    return basis


def dense_apply(field, rows, vec) -> list:
    out = []
    for row in rows:
        acc = field.zero
        for v, x in zip(row, vec):
            acc = field.add(acc, field.mul(field.coerce(v), x))
        out.append(acc)
    return out


def reference_fiber_surjectivity(m_src, m_tgt, phi):
    """The surjectivity report by the kernel route, densely: a kernel basis
    of M_src, its images under phi, each image's residual under M_tgt, then
    the rank of the images against the target fiber's dimension."""
    from prolong.interpolation import SurjectivityReport

    field, src, tgt = phi.field, m_src.matrix, m_tgt.matrix
    kernel = dense_kernel(field, src.rows, src.ncols)
    images = [dense_apply(field, phi.rows, vec) for vec in kernel]
    target_dim = tgt.ncols - len(dense_rref(field, tgt.rows, tgt.ncols)[1])
    for image in images:
        if any(not field.is_zero(v) for v in dense_apply(field, tgt.rows, image)):
            reason = "an interpolated jet leaves the target fiber"
            return SurjectivityReport("fail", reason, len(kernel), target_dim, 0)
    image_rank = len(dense_rref(field, images, phi.nrows)[1])
    if image_rank == target_dim:
        return SurjectivityReport("pass", "", len(kernel), target_dim, image_rank)
    reason = f"image spans {image_rank} of {target_dim} fiber directions"
    return SurjectivityReport("fail", reason, len(kernel), target_dim, image_rank)


def reference_normal_form(poly: MultiPoly, basis, order: str = "grevlex"):
    """Division remainder, taking the largest working term by ``max`` on
    every step; the first divisor in list order with a dividing leading
    monomial wins."""
    key = MONOMIAL_ORDERS[order]
    field = poly.ctx.field
    nvars = poly.ctx.nvars
    table = [(g.leading_monomial(key), g) for g in basis if not g.is_zero()]
    work = dict(poly.coeffs)
    remainder = {}
    while work:
        lm = max(work, key=lambda m: key(m, nvars))
        lc = work.pop(lm)
        divisor = next(((gm, g) for gm, g in table if gm.divides(lm)), None)
        if divisor is None:
            remainder[lm] = lc
            continue
        gm, g = divisor
        factor = field.div(lc, g.coeffs[gm])
        shift = lm.divide(gm)
        for m, c in g.coeffs.items():
            if m != gm:
                mono = m.mul(shift)
                value = field.sub(work.get(mono, field.zero), field.mul(factor, c))
                if field.is_zero(value):
                    work.pop(mono, None)
                else:
                    work[mono] = value
    return MultiPoly(poly.ctx, remainder)


def reference_groebner(gens, order: str = "grevlex") -> tuple:
    """Reduced Groebner basis by Buchberger over all pairs, skipping only
    pairs with coprime leading monomials; monic generators, largest leading
    monomial first."""
    key = MONOMIAL_ORDERS[order]

    def lead(poly):
        return poly.leading_monomial(key)

    def monic(poly):
        return poly.scale(poly.ctx.field.inv(poly.coeffs[lead(poly)]))

    def lcm_degree(pair):
        return reference_lcm(lead(basis[pair[0]]), lead(basis[pair[1]])).degree(), pair

    basis = [monic(g) for g in gens if not g.is_zero()]
    if not basis:
        return ()
    ctx = basis[0].ctx
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lcm_degree)
        pairs.remove((i, j))
        fm, gm = lead(basis[i]), lead(basis[j])
        if not set(fm.indices()) & set(gm.indices()):
            continue
        lcm = reference_lcm(fm, gm)
        one = ctx.field.one
        s = MultiPoly(ctx, {lcm.divide(fm): one}) * basis[i]
        s = s - MultiPoly(ctx, {lcm.divide(gm): one}) * basis[j]
        remainder = reference_normal_form(s, basis, order)
        if not remainder.is_zero():
            basis.append(monic(remainder))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    lms = [lead(g) for g in basis]
    minimal = [
        g
        for i, g in enumerate(basis)
        if not any(
            k != i and lms[k].divides(lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]
    reduced = [
        monic(reference_normal_form(g, minimal[:i] + minimal[i + 1 :], order))
        for i, g in enumerate(minimal)
    ]
    nvars = ctx.nvars
    return tuple(sorted(reduced, key=lambda g: key(lead(g), nvars), reverse=True))


def _reference_label(exp, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    return "*".join(parts) or "1"


def dense_table(algebra: AlgebraScheme) -> list:
    """The rank x rank x rank table of ``algebra``'s structure constants,
    zeros included, read cell by cell from its nonzero terms."""
    rank = algebra.rank
    table = []
    for row in algebra.terms:
        dense_row = []
        for cell in row:
            dense_cell = [Fraction(0)] * rank
            for k, c in cell:
                dense_cell[k] = c
            dense_row.append(dense_cell)
        table.append(dense_row)
    return table


def dense_algebra(labels, table, name: str = "custom") -> AlgebraScheme:
    """The algebra of a dense table, read as a custom ``mult`` spec."""
    return make_builtin({"basis": list(labels), "mult": table, "name": name})


def reference_truncated_algebra(nvars: int, order: int) -> AlgebraScheme:
    """``truncated_algebra`` built densely: every cell of every row is a
    fresh list of zeros, with a one at the exponent sum if it is in range."""
    exps = [e for d in range(order + 1) for e in reference_compositions(d, nvars)]
    names = ["h"] if nvars == 1 else [f"h{i + 1}" for i in range(nvars)]
    rank = len(exps)
    table = []
    for a in exps:
        row = []
        for b in exps:
            cell = [Fraction(0)] * rank
            total = tuple(x + y for x, y in zip(a, b))
            if sum(total) <= order:
                cell[exps.index(total)] = Fraction(1)
            row.append(cell)
        table.append(row)
    labels = [_reference_label(e, names) for e in exps]
    return dense_algebra(labels, table, f"truncated({nvars},{order})")


def reference_product_algebra(n: int) -> AlgebraScheme:
    """``product_algebra`` built densely, case by case."""
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
    labels = ["1"] + [f"u{j}" for j in range(1, n)]
    return dense_algebra(labels, table, f"product({n})")


def reference_tensor(e: AlgebraScheme, f: AlgebraScheme) -> AlgebraScheme:
    """``tensor`` built densely from the factors' full tables."""
    le, lf = e.rank, f.rank
    rank = le * lf
    e_table, f_table = dense_table(e), dense_table(f)
    table = []
    for i in range(le):
        for ip in range(lf):
            row = []
            for j in range(le):
                for jp in range(lf):
                    cell = [Fraction(0)] * rank
                    for k in range(le):
                        for kp in range(lf):
                            cell[k * lf + kp] = e_table[i][j][k] * f_table[ip][jp][kp]
                    row.append(cell)
            table.append(row)
    left, right = list(e.labels), list(f.labels)
    if {a for a in left if a != "1"} & {b for b in right if b != "1"}:
        left = [a if a == "1" else f"{a}1" for a in left]
        right = [b if b == "1" else f"{b}2" for b in right]
    labels = [
        "*".join(x for x in (a, b) if x != "1") or "1" for a in left for b in right
    ]
    return dense_algebra(labels, table, f"tensor({e.name},{f.name})")


def reference_algebra_violation(table):
    """The first ring-axiom violation of a square structure-constant table
    of Fractions, worded as :class:`AlgebraScheme` words it, or None.

    Dense loops in index order: the unit law on e_0, then commutativity,
    then associativity over every triple, each side summed over every k and
    n whether the constant is zero or not.
    """
    rank = len(table)
    for j in range(rank):
        for k in range(rank):
            want = Fraction(1 if j == k else 0)
            if table[0][j][k] != want:
                return (
                    f"unit law violated: e_0*e_{j} has coefficient"
                    f" {table[0][j][k]} on e_{k}"
                )
            if table[j][0][k] != want:
                return (
                    f"unit law violated: e_{j}*e_0 has coefficient"
                    f" {table[j][0][k]} on e_{k}"
                )
    for i in range(rank):
        for j in range(i):
            if list(table[i][j]) != list(table[j][i]):
                return f"commutativity violated at (e_{i}, e_{j})"
    for i in range(rank):
        for j in range(rank):
            for m in range(rank):
                left = [Fraction(0)] * rank
                right = [Fraction(0)] * rank
                for k in range(rank):
                    for n in range(rank):
                        left[n] += table[i][j][k] * table[k][m][n]
                        right[n] += table[j][m][k] * table[i][k][n]
                if left != right:
                    return f"associativity violated at (e_{i}, e_{j}, e_{m})"
    return None


def _same_algebra(x, y) -> None:
    if x.algebra != y.algebra:
        raise ValueError("elements of different algebras")
    if x.ctx != y.ctx:
        raise ValueError("elements over different contexts")


def reference_algebra_mul(x, y):
    """E(R) product term by term: every structure constant adds one scaled
    copy of the slot product to a fresh output polynomial."""
    _same_algebra(x, y)
    algebra, ctx = x.algebra, x.ctx
    out = [ctx.zero() for _ in range(algebra.rank)]
    for i, a in enumerate(x.slots):
        if a.is_zero():
            continue
        for j, b in enumerate(y.slots):
            if b.is_zero():
                continue
            ab = reference_poly_mul(a, b)
            for k, c in algebra.terms[i][j]:
                scaled = ab.scale(ctx.field.from_fraction(c))
                out[k] = reference_poly_add(out[k], scaled)
    return algebra.element(ctx, out)


def reference_slot_mul(x, y):
    """E(R) product summed slot by slot into Monomial-keyed dicts: each
    nonzero slot product is formed once by :func:`reference_poly_mul` and
    added, times c_ij^k, into output slot k."""
    _same_algebra(x, y)
    algebra, ctx = x.algebra, x.ctx
    field = ctx.field
    out = [{} for _ in range(algebra.rank)]
    for i, a in enumerate(x.slots):
        if not a.coeffs:
            continue
        row = algebra.terms[i]
        for j, b in enumerate(y.slots):
            if b.coeffs and row[j]:
                ab = reference_poly_mul(a, b).coeffs
                for k, c in row[j]:
                    c = field.from_fraction(c)
                    for m, v in ab.items():
                        v = field.mul(v, c) if c != 1 else v
                        old = out[k].get(m)
                        out[k][m] = v if old is None else field.add(old, v)
    return AlgebraElement(algebra, ctx, tuple(MultiPoly(ctx, d) for d in out))


def reference_evaluate_in_algebra(poly, assignment, algebra, ctx):
    """Ring evaluation of ``poly`` at algebra elements: each term is the unit
    scaled by its coefficient times every variable power, each power is a
    product that starts at the unit, and the terms are summed one by one."""
    if poly.ctx.field != ctx.field:
        raise ValueError("coefficient fields differ")

    def power(value, e):
        out = value.algebra.unit(value.ctx)
        for _ in range(e):
            out = reference_algebra_mul(out, value)
        return out

    names = poly.ctx.all_vars
    total = algebra.element(ctx, [ctx.zero()] * algebra.rank)
    for m, c in poly.coeffs.items():
        term = algebra.scalar(ctx, ctx.const(c))
        for i, e in m.exps:
            name = names[i]
            if name not in assignment:
                raise ValueError(f"no algebra value assigned to {name!r}")
            term = reference_algebra_mul(term, power(assignment[name], e))
        total = total + term
    return total


def multinomial(total: int, parts) -> int:
    """total! / prod(parts!), for parts summing to total."""
    if sum(parts) != total:
        raise ValueError("parts do not sum to the total")
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def gamma_indices(beta, rank: int) -> list:
    """Per-variable blocks of slot exponents: one block per entry of beta,
    each block a composition of that entry over ``rank`` slots."""
    out = [()]
    for part in beta:
        pool = reference_compositions(part, rank)
        out = [blocks + (blk,) for blocks in out for blk in pool]
    return out


def reference_basis_power_expansion(algebra, gamma) -> tuple:
    """Coefficients of prod_j e_j^(gamma_j) in the basis, one dense table
    product per factor."""
    rank = algebra.rank
    if len(gamma) != rank:
        raise ValueError("exponent vector length does not match rank")
    if any(g < 0 for g in gamma):
        raise ValueError("negative exponent")
    table = dense_table(algebra)
    vec = [Fraction(1)] + [Fraction(0)] * (rank - 1)
    for j, g in enumerate(gamma):
        for _ in range(g):
            vec = [
                sum(vec[i] * table[i][j][k] for i in range(rank))
                for k in range(rank)
            ]
    return tuple(vec)


def reference_interpolation_coefficients(algebra, beta) -> list:
    """Slot coefficients of each jet monomial contributing to beta.

    Expanding prod_i (sum_j y_{i,j} e_j)^(beta_i) and collecting the basis
    components, the monomial with block exponents gamma carries the weight
    prod_i multinomial(beta_i; gamma_i) times the expansion of e^(sum gamma_i).
    Returns (flattened gamma, per-slot coefficients) pairs; flattening is
    block-major, matching the variable order of the restricted scheme.
    """
    out = []
    for blocks in gamma_indices(beta, algebra.rank):
        weight = 1
        for part, blk in zip(beta, blocks):
            weight *= multinomial(part, blk)
        total = tuple(sum(col) for col in zip(*blocks))
        vec = reference_basis_power_expansion(algebra, total)
        flat = tuple(x for blk in blocks for x in blk)
        out.append((flat, tuple(weight * v for v in vec)))
    return out


def reference_interpolation_assignment(imap) -> dict:
    """The interpolation map's assignment rebuilt from the reference
    coefficients: restricted coordinates fixed, and z_<beta>_<j> the sum of
    c * z_<gamma> over the coefficients c in slot j."""
    ctx = imap.source.ctx
    field = ctx.field
    assignment = {n: ctx.var(n) for n in imap.prolongation.ctx.scheme_vars}
    for beta in imap.jet.indices:
        coeffs = reference_interpolation_coefficients(imap.operator.algebra, beta)
        for j in range(imap.operator.algebra.rank):
            acc = ctx.zero()
            for flat, vec in coeffs:
                if vec[j]:
                    acc = acc + ctx.var(z_name(flat)).scale(field.from_fraction(vec[j]))
            assignment[f"{z_name(beta)}_{j}"] = acc
    return assignment


# -- test-only utilities over the package's own types ---------------------------


def cyclic(n: int, field=None) -> list:
    """The cyclic-n system: the elementary symmetric sums of n cyclically
    adjacent products of x0..x(n-1), and their full product minus 1."""
    ctx = RingContext(field or QQ, scheme_vars=tuple(f"x{i}" for i in range(n)))
    xs = [ctx.var(name) for name in ctx.scheme_vars]
    gens = []
    for d in range(1, n):
        total = ctx.zero()
        for i in range(n):
            term = ctx.one()
            for j in range(d):
                term = term * xs[(i + j) % n]
            total = total + term
        gens.append(total)
    product = ctx.one()
    for x in xs:
        product = product * x
    return gens + [product - 1]


# sha256 of reduced bases, one printed generator a line: criterion 08's
# parabola triangle at m = 1 as the Gebauer-Moeller engine computed it, and
# cyclic-5 over QQ as the signature engine did before the rewritten
# criterion; the all-pairs reference engine is too slow on either
TRIANGLE_BASIS_SHA256 = (
    "1798031b55ae386391d6372b978ac312dcfb1b7ea82d6b9b260618edf46a157f"
)
CYCLIC5_BASIS_SHA256 = (
    "84d2faadd62711c6049beeef64d27b689d59d933f20504ccc7f4705ab5972764"
)


def count_zero_reductions(monkeypatch) -> list:
    """Record, for every division the Groebner engine runs from now on,
    whether it ended in zero."""
    import importlib

    module = importlib.import_module("prolong.groebner")
    reduce = module._reduce
    outcomes = []

    def counted(*args):
        remainder = reduce(*args)
        outcomes.append(remainder is not None and remainder.is_zero())
        return remainder

    monkeypatch.setattr(module, "_reduce", counted)
    return outcomes


def evaluate(poly: MultiPoly, assignment):
    """Evaluate at scalar values for every variable; returns a scalar."""
    from prolong.polynomials import substitute

    ctx = poly.ctx
    consts = {name: ctx.const(v) for name, v in assignment.items()}
    missing = [
        ctx.all_vars[i]
        for i in sorted(poly.variables())
        if ctx.all_vars[i] not in consts
    ]
    if missing:
        raise ValueError(f"missing values for {missing}")
    return substitute(poly, consts, ctx).constant_value()


def solve_linear(matrix, rhs):
    """One exact solution of M x = rhs, or None when inconsistent."""
    from prolong.groebner import _rref

    field = matrix.field
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    n = matrix.ncols
    augmented = []
    for row, v in zip(matrix.entries, rhs):
        v = field.coerce(v)
        augmented.append(row if field.is_zero(v) else {**row, n: v})
    echelon, pivots = _rref(field, augmented)
    if n in pivots:
        return None
    solution = [field.zero] * n
    for row, c in zip(echelon, pivots):
        solution[c] = row.get(n, field.zero)
    return solution


def tensor_swap_permutation(e, f) -> list:
    """Permutation carrying tensor(E,F) coordinates to tensor(F,E): position
    j*rank(F) + j' maps to position j'*rank(E) + j."""
    return [jp * e.rank + j for j in range(e.rank) for jp in range(f.rank)]


def swap_renaming(scheme, e, f) -> dict:
    """Variable renaming induced by the tensor swap on composed prolongations.

    Sends each variable of the (e, f)-composed prolongation to the matching
    variable of the (f, e)-composed one.  The underlying permutation is an
    algebra isomorphism, but it exchanges the two composite operators only
    when the slot operators commute, so ideal agreement under this renaming
    is a property of commuting pairs rather than a general fact.
    """
    perm = tensor_swap_permutation(e.algebra, f.algebra)
    renaming = {}
    for name in scheme.variables:
        for q, target in enumerate(perm):
            renaming[f"{name}_{q}"] = f"{name}_{target}"
    return renaming


def specialize_base(scheme, values):
    """Specialize named base generators to constants, dropping them from the
    context; remaining base generators survive."""
    ctx = scheme.ctx
    unknown = set(values) - set(ctx.base_gens)
    if unknown:
        raise ValueError(f"only base generators specialize: {sorted(unknown)}")
    remaining = tuple(g for g in ctx.base_gens if g not in values)
    target = RingContext(ctx.field, base_gens=remaining, scheme_vars=ctx.scheme_vars)
    images = {g: target.const(v) for g, v in values.items()}
    if not scheme.is_algebra_mode:
        generators = [substitute(gen, images, target) for gen in scheme.generators]
        return AffineScheme(target, generators)
    generators = [
        AlgebraElement(
            scheme.algebra,
            target,
            tuple(substitute(s, images, target) for s in gen.slots),
        )
        for gen in scheme.generators
    ]
    return AffineScheme(target, generators, algebra=scheme.algebra)


def point_down(point, restricted):
    """Slot read-off carrying an algebra-valued point to the restriction."""
    scheme = point.scheme
    if not scheme.is_algebra_mode:
        raise ValueError("point_down starts from an algebra-mode point")
    assignment = {}
    for y in scheme.variables:
        for j, slot in enumerate(point.assignment[y].slots):
            assignment[f"{y}_{j}"] = transport(slot, restricted.ctx)
    return SchemePoint(restricted, assignment)


def point_up(point, original):
    """Reassemble sum_j y_ij e_j; inverse of :func:`point_down`."""
    if not original.is_algebra_mode:
        raise ValueError("point_up lands on an algebra-mode scheme")
    rank = original.algebra.rank
    assignment = {}
    for y in original.variables:
        slots = tuple(
            transport(point.assignment[f"{y}_{j}"], original.ctx)
            for j in range(rank)
        )
        assignment[y] = AlgebraElement(original.algebra, original.ctx, slots)
    return SchemePoint(original, assignment)


def base_change_along(scheme, operator):
    """The plain scheme with its coefficients pushed into E(k) by the
    operator: an algebra-coefficient scheme in the same variables."""
    ctx, algebra = scheme.ctx, operator.algebra
    images = {x: algebra.scalar(ctx, ctx.var(x)) for x in scheme.variables}
    for g, value in operator.images.items():
        slots = tuple(transport(s, ctx) for s in value.slots)
        images[g] = AlgebraElement(algebra, ctx, slots)
    generators = [
        reference_evaluate_in_algebra(gen, images, algebra, ctx)
        for gen in scheme.generators
    ]
    return AffineScheme(ctx, generators, algebra=algebra)


def reference_prolong(scheme, operator):
    """The prolongation in two steps, as the definition reads: base change
    along the operator (by the reference evaluator), then the package's Weil
    restriction back to the base."""
    return weil_restrict(base_change_along(scheme, operator), operator.algebra)


def reference_prolong_morphism(morphism, operator, source_result, target_result):
    """The induced morphism between prolongations by the route that moves
    the operator's images into the source prolongation's ring on every call:
    each coordinate is evaluated (by the reference evaluator) at the generic
    point x -> sum_j x_j e_j, with every base generator at its freshly
    transported image."""
    ctx, algebra = source_result.ctx, operator.algebra
    assignment = {
        x: AlgebraElement(
            algebra, ctx, tuple(ctx.var(f"{x}_{j}") for j in range(algebra.rank))
        )
        for x in morphism.source.variables
    }
    for g, value in operator.images.items():
        slots = tuple(transport(s, ctx) for s in value.slots)
        assignment[g] = AlgebraElement(algebra, ctx, slots)
    coordinates = {}
    for name in morphism.target.variables:
        value = reference_evaluate_in_algebra(
            morphism.assignment[name], assignment, algebra, ctx
        )
        for j, slot in enumerate(value.slots):
            coordinates[f"{name}_{j}"] = slot
    return PolyMorphism(source_result.scheme, target_result.scheme, coordinates)
