"""Exact ideal arithmetic and linear algebra.

Buchberger's algorithm over a field, reduced bases, ideal membership and
equality, plus exact row reduction for rank and kernel computations.
Ideal questions ask a certificate first and fall back to exact computation:
in :func:`first_nonmember`, one sparse rank shows when polynomials are K-linear
combinations of the generators, which proves them members, and
:func:`ideal_equal` first compares the two lists' reduced echelon forms; a
Groebner basis is built only for what that leaves open.  The one monomial
order is grevlex.
Base-ring generators participate as ordinary ring variables (ordered after
the scheme variables by the context), so ideal identities over a polynomial
base ring become ideal identities here.

Division keeps its working terms in a heap, so each monomial's order key is
computed once, when the monomial enters.  Bases are built incrementally, one
generator at a time, by a signature-based Buchberger in the manner of F5
(Faugere 2002) and GVW (Gao, Volny & Wang 2016), with the rewritten
criterion under the ratio order (Eder & Faugere, JSC 80, 2017); signatures,
lcms and divisibility tests work on packed exponent ints.  A cap on the
J-pair reductions turns runaway computations into an explicit
:class:`EngineLimitError` instead of a wrong or slow answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .polynomials import Monomial, MultiPoly, grevlex_key
from .polynomials import packed_guard, packed_lcm, packed_monomial, packed_mul
from .scalars import Field

DEFAULT_PAIR_LIMIT = 50000


class EngineLimitError(RuntimeError):
    """Raised when the pair-reduction cap is hit; the answer is inconclusive."""

    def __init__(self, limit: int):
        super().__init__(
            f"Groebner computation exceeded {limit} pair reductions; inconclusive"
        )
        self.limit = limit


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis under grevlex, the one monomial order the
    engine uses."""

    gens: tuple[MultiPoly, ...]

    def normal_form(self, poly: MultiPoly) -> MultiPoly:
        return normal_form(poly, self.gens)

    def contains(self, poly: MultiPoly) -> bool:
        return self.normal_form(poly).is_zero()


def normal_form(poly: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of ``poly`` under multivariate division by ``basis``.

    Divisors are tried in list order (first divisible leading monomial wins),
    which makes the result deterministic for any basis and canonical when the
    basis is a reduced Groebner basis.
    """
    lms = [(g.leading_monomial(grevlex_key), g) for g in basis if not g.is_zero()]
    return _reduce(poly, [(lm.p, lm, g, None) for lm, g in lms])


def _reduce(
    poly: MultiPoly,
    table: Sequence[tuple[int, Monomial, MultiPoly, tuple[int, int] | None]],
    sig: tuple[int, int] | None = None,
) -> MultiPoly | None:
    """Remainder of ``poly`` by the ``(packed leading monomial, leading
    monomial, divisor, signature)`` table; with a signature ``sig``, its
    regular top reduction.  Signatures are (degree, packed exponents) pairs.

    Working terms are kept by packed exponents, in a heap on (-degree,
    packed), grevlex reversed, and become Monomials in the result alone.  A
    step adds only terms below the one it removes, so a popped monomial
    never comes back; a cancelled term is dropped when popped.

    Under ``sig`` a divisor of signature ``s`` reduces only when ``s`` times
    the step's monomial is below ``sig`` (a divisor of signature None always
    does), and the first term left unreduced ends the reduction, tail as it
    is.  When that term could be reduced at ``sig`` itself, the reduction is
    singular and the result is None.
    """
    field, zero = poly.ctx.field, poly.ctx.field.zero
    is_zero, sub, mul, div = field.is_zero, field.sub, field.mul, field.div
    guard = packed_guard(poly.ctx.nvars)
    work = {m.p: c for m, c in poly.coeffs.items()}
    heap = [(-m.deg, m.p) for m in poly.coeffs]
    heapq.heapify(heap)
    remainder: dict[Monomial, object] = {}
    while heap:
        negdeg, lp = heapq.heappop(heap)
        lc = work.pop(lp)
        if is_zero(lc):
            continue
        singular = False
        for gp, gm, g, s in table:
            if ((lp | guard) - gp) & guard != guard:
                continue
            shift = -negdeg - gm.deg  # the degree of lm/gm
            if s is not None:
                # s times lm/gm against sig, in grevlex
                deg, p = shift + s[0], lp - gp + s[1]
                if deg > sig[0] or deg == sig[0] and p <= sig[1]:
                    singular = singular or (deg, p) == sig
                    continue
            factor = div(lc, g.coeffs[gm])
            for m, c in g.coeffs.items():
                if m.p != gp:
                    deg = m.deg + shift
                    p = packed_mul(m.p, lp - gp, deg, guard)
                    if p not in work:
                        heapq.heappush(heap, (-deg, p))
                    work[p] = sub(work.get(p, zero), mul(factor, c))
            break
        else:
            if sig is not None and singular:
                return None
            remainder[packed_monomial(lp, -negdeg)] = lc
            if sig is not None:  # the heap holds the terms left in work
                for negdeg, p in heap:
                    remainder[packed_monomial(p, -negdeg)] = work[p]
                break
    return MultiPoly(poly.ctx, remainder)


def groebner(gens: Iterable[MultiPoly]) -> GroebnerBasis:
    """Reduced Groebner basis by an incremental, signature-based Buchberger.

    The generators enter one at a time, in input order, each first reduced
    by the reduced basis of those before it.  An element built while the
    i-th one is added has a signature t*e_i, kept as the degree and the
    packed exponents of t; the basis of the earlier generators counts as
    below every such signature (position over term, grevlex on t).  The
    J-pair of two elements is the multiple of the one with the larger
    signature whose leading monomial is their lcm; J-pairs are taken by
    increasing signature, all pairs of one signature together.  Three
    criteria apply:

    * syzygy: a signature that lm(h) divides, for h in the earlier basis
      (the Koszul syzygies), or that a reduction to zero had, is skipped;
    * rewritten: a signature's rewriter is the element of largest ratio
      sig/lm, so of least multiple there (the latest on a tie), among those
      whose signature divides it; the signature is reduced, as that
      multiple, only when one of its pairs multiplies the rewriter;
    * only regular top reductions are made, and an element whose leading
      term could only be reduced at its own signature is dropped.

    The result is minimized and tail-reduced.  Raises
    :class:`EngineLimitError` after ``DEFAULT_PAIR_LIMIT`` J-pair reductions.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return GroebnerBasis(())
    ctx = basis[0].ctx
    if any(g.ctx != ctx for g in basis):
        raise ValueError("generators from different contexts")
    field, nvars, guard = ctx.field, ctx.nvars, packed_guard(ctx.nvars)
    # (packed lm, lm, monic element, signature; None for the earlier basis)
    table: list[tuple[int, Monomial, MultiPoly, tuple[int, int] | None]] = []
    reductions = 0

    def add(poly: MultiPoly, sig: tuple[int, int]) -> None:
        lm = poly.leading_monomial(grevlex_key)
        new = len(table)
        for j, (gp, gm, _, s) in enumerate(table):
            lcm, deg = packed_lcm(lm, gm, guard)
            k, d = new, deg - lm.deg + sig[0]
            at = packed_mul(lcm - lm.p, sig[1], d, guard)
            if s is not None:
                e = deg - gm.deg + s[0]
                other = packed_mul(lcm - gp, s[1], e, guard)
                if other == at:  # equal signatures make no J-pair
                    continue
                if e > d or e == d and other < at:
                    k, d, at = j, e, other
            # a pair is its signature's grevlex key and the element it multiplies
            for z in syzygies:
                if ((at | guard) - z) & guard == guard:
                    break
            else:
                heapq.heappush(pairs, (d, -at, k))
        ratios.append((sig[0] - lm.deg, lm.p - sig[1], new, sig[1]))
        table.append((lm.p, lm, poly.scale(field.inv(poly.coeffs[lm])), sig))

    for f in basis:
        table = _reduced(table, nvars)
        f = _reduce(f, table)
        if f.is_zero():
            continue
        syzygies = [gp for gp, *_ in table]  # Koszul: lm(h)*e_i
        pairs: list[tuple[int, int, int]] = []
        # per element: ratio sig/lm (degree, packed), index, packed signature
        ratios: list[tuple[int, int, int, int]] = []
        add(f, (0, 0))
        while pairs:
            d, neg, k = heapq.heappop(pairs)
            ks = {k}
            while pairs and pairs[0][:2] == (d, neg):
                ks.add(heapq.heappop(pairs)[2])
            at = -neg
            if any(((at | guard) - z) & guard == guard for z in syzygies):
                continue
            # the rewriter: largest ratio, then latest, of signatures dividing at
            r = max(x for x in ratios if ((at | guard) - x[3]) & guard == guard)[2]
            if r not in ks:
                continue
            reductions += 1
            if reductions > DEFAULT_PAIR_LIMIT:
                raise EngineLimitError(DEFAULT_PAIR_LIMIT)
            _, _, g, s = table[r]
            t = packed_monomial(at - s[1], d - s[0])
            h = MultiPoly(ctx, {m.mul(t): c for m, c in g.coeffs.items()})
            h = _reduce(h, table, (d, at))
            if h is not None and h.is_zero():
                syzygies.append(at)
            elif h is not None:
                add(h, (d, at))
    return GroebnerBasis(tuple(g for _, _, g, _ in _reduced(table, nvars)))


def _reduced(
    table: Sequence[tuple[int, Monomial, MultiPoly, tuple[int, int] | None]],
    nvars: int,
) -> list[tuple[int, Monomial, MultiPoly, None]]:
    """The reduced basis of a Groebner basis given as a monic table, largest
    leading monomial first.

    Entries without a signature come from an earlier call and are reduced
    among themselves already; one is reduced again only when a term of it is
    divisible by the leading monomial of a new entry.  Every new entry is
    reduced.  A tail term is only divisible by smaller leading monomials, so
    entries are reduced by increasing leading monomial, each against the
    ones already done.  The reduced basis is unique, so this gives what
    reducing every entry by all the others would."""
    guard = packed_guard(nvars)
    # minimize: by increasing degree, keep each generator whose leading
    # monomial no kept one divides
    minimal: list[tuple[int, Monomial, MultiPoly, bool]] = []
    for lp, lm, g, s in sorted(table, key=lambda item: item[1].deg):
        if not any(((lp | guard) - kept) & guard == guard for kept, *_ in minimal):
            minimal.append((lp, lm, g, s is not None))
    fresh = [lp for lp, _, _, new in minimal if new]
    minimal.sort(key=lambda item: grevlex_key(item[1], nvars))
    reduced: list[tuple[int, Monomial, MultiPoly, None]] = []
    for lp, lm, g, new in minimal:
        if new or any(
            ((m.p | guard) - f) & guard == guard for m in g.coeffs for f in fresh
        ):
            g = _reduce(g, reduced)
        reduced.append((lp, lm, g, None))
    reduced.reverse()
    return reduced


def _sparse_rows(*lists: Sequence[MultiPoly]):
    """The field and each list of polys as column -> coefficient rows, one
    column per monomial of all their supports; None when the nonzero polys
    come from more than one context."""
    polys = [p for polys in lists for p in polys if not p.is_zero()]
    if any(p.ctx != polys[0].ctx for p in polys):
        return None
    monomials = dict.fromkeys(m for p in polys for m in p.coeffs)
    columns = {m: i for i, m in enumerate(monomials)}
    rows = [[{columns[m]: c for m, c in p.coeffs.items()} for p in ps] for ps in lists]
    return (polys[0].ctx.field if polys else None), rows


def _in_span(polys: Sequence[MultiPoly], gens: Sequence[MultiPoly]) -> bool:
    """Whether every poly is a K-linear combination of ``gens``.

    True proves each poly lies in the ideal (gens); False proves nothing,
    and so do polys from more than one context, which the exact path then
    rejects.  Stacking the polys under the generators' echelon form keeps
    its rank exactly when they lie in the span.
    """
    if all(p.is_zero() for p in polys):
        return True
    rows = _sparse_rows(gens, polys)
    if rows is None:
        return False
    field, (gen_rows, poly_rows) = rows
    echelon, pivots = _rref(field, gen_rows)
    return len(_rref(field, echelon + poly_rows)[1]) == len(pivots)


def first_nonmember(polys: Iterable[MultiPoly], gens) -> int | None:
    """Index of the first poly outside the ideal (gens), or None when every
    one lies in it: certificate first, exact fallback.

    For a generator list, polys in span_K(gens) are settled at once by one
    sparse rank, and a basis is built only when that fails; a
    :class:`GroebnerBasis` goes straight to normal forms.  Under the empty
    basis only the zero polynomial is a member.
    """
    polys = list(polys)
    if not isinstance(gens, GroebnerBasis):
        gens = list(gens)
        if _in_span(polys, gens):
            return None
        gens = groebner(gens)
    return next((i for i, p in enumerate(polys) if not gens.contains(p)), None)


def ideal_member(poly: MultiPoly, gens) -> bool:
    """Exact ideal membership of ``poly`` in (gens), a generator list or a
    :class:`GroebnerBasis`."""
    return first_nonmember([poly], gens) is None


def ideal_equal(gens_a: Iterable[MultiPoly], gens_b: Iterable[MultiPoly]) -> bool:
    """Ideal equality of two generator lists, certificate first.

    Equal reduced echelon forms of the two lists over one column map mean
    one K-span, which proves the ideals equal.  Otherwise mutual membership
    decides, (B) in (A) first, so a fallback builds A's basis before B's.
    """
    a, b = list(gens_a), list(gens_b)
    rows = _sparse_rows(a, b)
    if rows is not None:
        field, (rows_a, rows_b) = rows
        if _rref(field, rows_a) == _rref(field, rows_b):
            return True
    return first_nonmember(b, a) is None and first_nonmember(a, b) is None


# -- exact linear algebra -------------------------------------------------------


class ExactMatrix:
    """Sparse matrix of exact field scalars with optional labels.

    Each row is stored in ``entries`` as a column -> value dict of its
    nonzero entries; ``rows`` is a dense copy for display and comparison.
    """

    __slots__ = ("field", "entries", "ncols", "row_labels", "col_labels")

    def __init__(
        self,
        field: Field,
        rows: Sequence[Sequence[object]],
        ncols: int | None = None,
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ):
        coerced = [[field.coerce(v) for v in row] for row in rows]
        if ncols is None:
            if col_labels is not None:
                ncols = len(col_labels)
            elif coerced:
                ncols = len(coerced[0])
            else:
                ncols = 0
        for row in coerced:
            if len(row) != ncols:
                raise ValueError("ragged matrix rows")
        if row_labels is not None and len(row_labels) != len(coerced):
            raise ValueError("row label count mismatch")
        if col_labels is not None and len(col_labels) != ncols:
            raise ValueError("column label count mismatch")
        self.field = field
        self.entries = tuple(
            {c: v for c, v in enumerate(row) if not field.is_zero(v)}
            for row in coerced
        )
        self.ncols = ncols
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    @property
    def rows(self) -> list[list]:
        zero = self.field.zero
        return [[row.get(c, zero) for c in range(self.ncols)] for row in self.entries]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def _rref(field: Field, rows: Iterable[dict]):
    """Reduced row echelon form of column -> nonzero value dict rows.

    Returns (rows, pivot column list).  Each update touches only the pivot
    row's nonzeros, and the pivot is the sparsest candidate row; the reduced
    form is unique, so the choice never changes the result.
    """
    work = [dict(r) for r in rows if r]
    done: list[dict] = []
    pivots: list[int] = []
    while work:
        c = min(min(r) for r in work)
        p = min((i for i, r in enumerate(work) if c in r), key=lambda i: len(work[i]))
        inv = field.inv(work[p][c])
        prow = {k: field.mul(v, inv) for k, v in work.pop(p).items()}
        for row in work + done:
            factor = row.get(c)
            if factor is None:
                continue
            for k, v in prow.items():
                value = field.sub(row.get(k, field.zero), field.mul(factor, v))
                if field.is_zero(value):
                    del row[k]
                else:
                    row[k] = value
        work = [r for r in work if r]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def rank(matrix: ExactMatrix) -> int:
    return len(_rref(matrix.field, matrix.entries)[1])


def kernel_basis(matrix: ExactMatrix) -> list[list]:
    """Canonical kernel basis: one vector per free column, ascending, with a
    one in its free column and zeros in the other free columns."""
    field = matrix.field
    echelon, pivots = _rref(field, matrix.entries)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * matrix.ncols
        vec[f] = field.one
        for row, c in zip(echelon, pivots):
            vec[c] = field.neg(row.get(f, field.zero))
        basis.append(vec)
    return basis


def apply_matrix(matrix: ExactMatrix, vector: Sequence[object]) -> list:
    field = matrix.field
    if len(vector) != matrix.ncols:
        raise ValueError("vector length mismatch")
    vec = [field.coerce(v) for v in vector]
    out = []
    for row in matrix.entries:
        acc = field.zero
        for c, v in row.items():
            x = vec[c]
            if not field.is_zero(x):
                acc = field.add(acc, field.mul(v, x))
        out.append(acc)
    return out
