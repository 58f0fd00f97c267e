"""Exact ideal arithmetic and linear algebra.

Buchberger's algorithm over a field, reduced bases, ideal membership and
equality, plus exact row reduction for rank and kernel computations.
Every membership and equality question goes through :func:`first_nonmember`,
certificate first, exact fallback: one sparse rank shows when polynomials are
K-linear combinations of the generators, which proves them members, and a
Groebner basis is built only for what that leaves open.  The one monomial
order is grevlex.
Base-ring generators participate as ordinary ring variables (ordered after
the scheme variables by the context), so ideal identities over a polynomial
base ring become ideal identities here.

Division keeps its working terms in a heap, so each monomial's order key is
computed once, when the monomial enters.  Bases are built incrementally, one
generator at a time, by a signature-based Buchberger in the manner of F5
(Faugere 2002) and GVW (Gao, Volny & Wang 2016): every element carries a
signature, position over term with grevlex on the terms, J-pairs are
taken by increasing signature, and the syzygy and rewrite criteria skip the
pairs whose reductions would end in zero or repeat an earlier one.  A cap on
the J-pair reductions turns runaway computations into an explicit
:class:`EngineLimitError` instead of a wrong or slow answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .polynomials import MONOMIAL_ONE, Monomial, MultiPoly, grevlex_key
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
    table = [
        (g.leading_monomial(grevlex_key), g, None) for g in basis if not g.is_zero()
    ]
    return _reduce(poly, table)


def _reduce(
    poly: MultiPoly,
    table: Sequence[tuple[Monomial, MultiPoly, Monomial | None]],
    sig: Monomial | None = None,
) -> MultiPoly | None:
    """Remainder of ``poly`` by the ``(leading monomial, divisor, signature)``
    table; with a signature ``sig``, its regular top reduction.

    The working terms sit in a heap on the negated order key, two ints (the
    degree and the packed exponents), computed once per monomial; distinct
    monomials have distinct keys, so entries never compare monomials.  Every
    term a step adds is smaller than the one it removes, so a popped monomial
    never comes back; a cancelled term keeps a zero coefficient and is
    dropped when popped.

    Under ``sig`` a divisor of signature ``s`` reduces only when ``s`` times
    the step's monomial is below ``sig`` (a divisor of signature None always
    does), and the first term left unreduced ends the reduction, tail as it
    is.  When that term could be reduced at ``sig`` itself, the reduction is
    singular and the result is None.
    """
    field = poly.ctx.field
    nvars = poly.ctx.nvars
    bound = None if sig is None else grevlex_key(sig, nvars)

    def entry(m: Monomial) -> tuple[int, int, Monomial]:
        degree, rest = grevlex_key(m, nvars)
        return -degree, -rest, m

    work = dict(poly.coeffs)
    heap = [entry(m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, object] = {}
    while heap:
        lm = heapq.heappop(heap)[2]
        lc = work.pop(lm)
        if field.is_zero(lc):
            continue
        singular = False
        for gm, g, s in table:
            if gm.divides(lm):
                shift = lm.divide(gm)
                if s is not None:
                    shifted = grevlex_key(shift.mul(s), nvars)
                    if shifted >= bound:
                        singular = singular or shifted == bound
                        continue
                factor = field.div(lc, g.coeffs[gm])
                for m, c in g.coeffs.items():
                    if m == gm:
                        continue
                    mono = m.mul(shift)
                    if mono not in work:
                        heapq.heappush(heap, entry(mono))
                    work[mono] = field.sub(
                        work.get(mono, field.zero), field.mul(factor, c)
                    )
                break
        else:
            if sig is not None:
                return None if singular else MultiPoly(poly.ctx, {lm: lc, **work})
            remainder[lm] = lc
    return MultiPoly(poly.ctx, remainder)


def groebner(gens: Iterable[MultiPoly]) -> GroebnerBasis:
    """Reduced Groebner basis by an incremental, signature-based Buchberger.

    The generators enter one at a time, in input order, each first reduced
    by the reduced basis of those before it.  An element built while the
    i-th one is added has a signature t*e_i, kept as the monomial t; the
    basis of the earlier generators counts as below every such signature
    (position over term, grevlex on t).  The J-pair of two
    elements is the multiple of the one with the larger signature whose
    leading monomial is their lcm, and J-pairs are taken by increasing
    signature, each signature once.  Three criteria apply:

    * syzygy: a signature that lm(h) divides, for h in the earlier basis
      (the Koszul syzygies), or that a reduction to zero had, is skipped;
    * rewrite: a signature is reduced as the multiple of the latest element
      whose signature divides it;
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
    field, nvars = ctx.field, ctx.nvars
    # (leading monomial, monic element, signature; None for the earlier basis)
    table: list[tuple[Monomial, MultiPoly, Monomial | None]] = []
    reductions = 0

    def add(poly: MultiPoly, sig: Monomial) -> None:
        lm = poly.leading_monomial(grevlex_key)
        new = len(table)
        for j, (gm, _, s) in enumerate(table):
            lcm = lm.lcm(gm)
            k, at = new, lcm.divide(lm).mul(sig)
            if s is not None:
                other = lcm.divide(gm).mul(s)
                if other == at:  # equal signatures make no J-pair
                    continue
                if grevlex_key(other, nvars) > grevlex_key(at, nvars):
                    k, at = j, other
            # a pair is its signature's key, the element it multiplies and
            # the other one, from which the signature is found again
            if not any(z.divides(at) for z in syzygies):
                pair = (*grevlex_key(at, nvars), k, j if k == new else new)
                heapq.heappush(pairs, pair)
        table.append((lm, poly.scale(field.inv(poly.coeffs[lm])), sig))

    for f in basis:
        table = _reduced(table, nvars)
        f = _reduce(f, table)
        if f.is_zero():
            continue
        syzygies = [gm for gm, _, _ in table]  # Koszul: lm(h)*e_i
        pairs: list[tuple[int, int, int, int]] = []
        add(f, MONOMIAL_ONE)
        done = None  # pairs of one signature leave the heap together
        while pairs:
            k, j = heapq.heappop(pairs)[2:]
            gm, _, s = table[k]
            sig = table[j][0].lcm(gm).divide(gm).mul(s)
            if sig == done or any(z.divides(sig) for z in syzygies):
                continue
            done = sig
            reductions += 1
            if reductions > DEFAULT_PAIR_LIMIT:
                raise EngineLimitError(DEFAULT_PAIR_LIMIT)
            # rewrite: reduce the latest element whose signature divides sig
            later = range(len(table) - 1, k - 1, -1)
            _, g, s = table[next(r for r in later if table[r][2].divides(sig))]
            t = sig.divide(s)
            h = MultiPoly(ctx, {m.mul(t): c for m, c in g.coeffs.items()})
            h = _reduce(h, table, sig)
            if h is not None and h.is_zero():
                syzygies.append(sig)
            elif h is not None:
                add(h, sig)
    return GroebnerBasis(tuple(g for _, g, _ in _reduced(table, nvars)))


def _reduced(
    table: Sequence[tuple[Monomial, MultiPoly, Monomial | None]], nvars: int
) -> list[tuple[Monomial, MultiPoly, None]]:
    """The reduced basis of a Groebner basis given as a monic table, largest
    leading monomial first."""
    # minimize: drop generators whose leading monomial another one divides
    minimal = [
        (lm, g, None)
        for i, (lm, g, _) in enumerate(table)
        if not any(
            k != i and other.divides(lm) and (other != lm or k < i)
            for k, (other, _, _) in enumerate(table)
        )
    ]
    # tail-reduce each against the others; leading terms stay monic
    reduced = [
        (lm, _reduce(g, minimal[:i] + minimal[i + 1 :]), None)
        for i, (lm, g, _) in enumerate(minimal)
    ]
    reduced.sort(key=lambda item: grevlex_key(item[0], nvars), reverse=True)
    return reduced


def _in_span(polys: Sequence[MultiPoly], gens: Sequence[MultiPoly]) -> bool:
    """Whether every poly is a K-linear combination of ``gens``.

    True proves each poly lies in the ideal (gens); False proves nothing.
    One column per monomial of the supports: the generators' echelon form
    has the rank of the generators, and stacking the polys under it keeps
    that rank exactly when they lie in the span.  Polys from more than one
    context give False, so the exact path raises its own error.
    """
    polys = [p for p in polys if not p.is_zero()]
    gens = [g for g in gens if not g.is_zero()]
    if not polys:
        return True
    ctx = polys[0].ctx
    if any(p.ctx != ctx for p in polys + gens):
        return False
    columns: dict[Monomial, int] = {}

    def row(poly: MultiPoly) -> dict:
        return {columns.setdefault(m, len(columns)): c for m, c in poly.coeffs.items()}

    echelon, pivots = _rref(ctx.field, [row(g) for g in gens])
    stacked = _rref(ctx.field, echelon + [row(p) for p in polys])[1]
    return len(stacked) == len(pivots)


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
    """Ideal equality of two generator lists as mutual membership.

    (B) in (A) is asked first, so a fallback builds A's basis before B's.
    """
    a, b = list(gens_a), list(gens_b)
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
