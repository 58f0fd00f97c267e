"""Jet schemes in coordinates: linearized equations per generator, jets of
morphisms via truncated series expansion, and jet fibers at scalar points as
exact linear systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import ExactMatrix, kernel_basis, rank
from .polynomials import (
    Monomial,
    MultiPoly,
    RingContext,
    exponents_up_to,
    hasse_derivative,
    substitute,
    transport,
)
from .weil import AffineScheme, NotScalarPointError, PolyMorphism, SchemePoint, claimed


def jet_indices(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices 0 < |alpha| <= order, graded with heavier-early ties."""
    return tuple(exponents_up_to(nvars, order))


def z_name(alpha: tuple[int, ...]) -> str:
    return "z_" + "_".join(str(a) for a in alpha)


@dataclass(frozen=True)
class JetScheme:
    """The order-n jet scheme, its index set, and where it came from.

    The ambient variables are the original ones followed by one z variable
    per multi-index; per original generator the scheme carries the generator
    itself and one equation linear in z pairing divided-power derivatives
    against the z coordinates.
    """

    scheme: AffineScheme
    order: int
    source: AffineScheme
    indices: tuple[tuple[int, ...], ...]

    @property
    def ctx(self) -> RingContext:
        return self.scheme.ctx

    @property
    def made_from(self) -> tuple:
        return self.source, self.order

    @property
    def z_variables(self) -> tuple[str, ...]:
        return tuple(z_name(a) for a in self.indices)


def _derivative(poly: MultiPoly, alpha: tuple[int, ...]) -> MultiPoly:
    m = Monomial((i, e) for i, e in enumerate(alpha))
    return hasse_derivative(poly, m)


def jet_scheme(scheme: AffineScheme, order: int) -> JetScheme:
    """Adjoin z coordinates and linearize every generator against them.

    Generators come out as the originals first, then one z-linear equation
    per original.  The z names encode the multi-index, so an ambient
    variable already named like one is rejected by the context.  From order
    2 on this is not the paper's Jet_m, whose fiber (m_p/m_p^{m+1})* is also
    cut by the jets of the ideal's multiples, such as x*f.
    """
    if scheme.is_algebra_mode:
        raise ValueError("jets start from a plain-mode scheme")
    if order < 1:
        raise ValueError("jet order must be at least 1")
    ctx = scheme.ctx
    names = scheme.variables
    indices = jet_indices(len(names), order)
    jet_ctx = RingContext(
        ctx.field,
        base_gens=ctx.base_gens,
        scheme_vars=names + tuple(z_name(a) for a in indices),
    )
    # the original variables come first in jet_ctx, so alpha indexes them
    gens = [transport(p, jet_ctx) for p in scheme.generators]
    for p in list(gens):
        acc = jet_ctx.zero()
        for alpha in indices:
            d = _derivative(p, alpha)
            if not d.is_zero():
                acc = acc + d * jet_ctx.var(z_name(alpha))
        gens.append(acc)
    return JetScheme(AffineScheme(jet_ctx, gens), order, scheme, indices)


@dataclass(frozen=True)
class LinearFiber:
    """An exact linear system whose kernel is the fiber."""

    matrix: ExactMatrix

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.matrix.col_labels)

    def kernel(self):
        return kernel_basis(self.matrix)

    @property
    def dimension(self) -> int:
        return self.matrix.ncols - rank(self.matrix)


def coefficient_rows(polys, ctx: RingContext, columns) -> list[dict]:
    """Each polynomial's scalar coefficients on the column variables, as a
    column -> nonzero coefficient dict.

    Every polynomial must be a field combination of the column variables; a
    leftover base generator or nonlinear term raises
    :class:`NotScalarPointError`.
    """
    index = {ctx.var_index(name): k for k, name in enumerate(columns)}
    rows = []
    for poly in polys:
        row = {}
        for m, c in poly.coeffs.items():
            exps = m.exps
            if len(exps) != 1 or exps[0][1] != 1 or exps[0][0] not in index:
                # leftover base generators surface here as mixed monomials
                raise NotScalarPointError(
                    "fiber entries must be scalars times one fiber coordinate; "
                    f"got the term {MultiPoly(ctx, {m: c})} (specialize the "
                    "base first)"
                )
            row[index[exps[0][0]]] = c
        rows.append(row)
    return rows


def linear_system(polys, values, ctx: RingContext, columns) -> ExactMatrix:
    """The :func:`coefficient_rows` of ``polys`` after substituting ``values``."""
    rows = coefficient_rows((substitute(p, values, ctx) for p in polys), ctx, columns)
    return ExactMatrix.from_entries(ctx.field, rows, len(columns), col_labels=columns)


def scalar_values(point: SchemePoint, ctx: RingContext) -> dict[str, MultiPoly]:
    """The point's coordinates as constants of ``ctx``.  Raises
    :class:`NotScalarPointError` on a coordinate that still depends on the
    base ring."""
    values = {}
    for name, value in point.assignment.items():
        if not value.is_constant():
            raise NotScalarPointError(
                f"coordinate {name!r} is not a scalar; specialize the base first"
            )
        values[name] = ctx.const(value.constant_value())
    return values


def jet_fiber(
    scheme: AffineScheme, order: int, point, jet: JetScheme | None = None
) -> LinearFiber:
    """The linear system cutting the jet fiber over a scalar point.

    Point coordinates must be constants; parametrized families should be
    specialized before taking fibers so the matrix lives over the field.
    A caller that already holds the jet scheme passes it as ``jet``.  Above
    order 1 the fiber is larger than the paper's (see :func:`jet_scheme`).
    """
    jet = claimed(jet, jet_scheme, scheme, order)
    values = scalar_values(scheme.point(point), jet.ctx)
    polys = jet.scheme.generators[len(scheme.generators) :]
    return LinearFiber(linear_system(polys, values, jet.ctx, jet.z_variables))


def _series(poly: MultiPoly, indices) -> dict[tuple[int, ...], MultiPoly]:
    out = {}
    for alpha in indices:
        d = _derivative(poly, alpha)
        if not d.is_zero():
            out[alpha] = d
    return out


def _series_product(
    factors, nvars: int, order: int, ctx: RingContext
) -> dict[tuple[int, ...], MultiPoly]:
    acc = {(0,) * nvars: ctx.one()}
    for series in factors:
        nxt: dict[tuple[int, ...], MultiPoly] = {}
        for a, ca in acc.items():
            for b, cb in series.items():
                total = tuple(x + y for x, y in zip(a, b))
                if sum(total) > order:
                    continue
                prod = ca * cb
                if total in nxt:
                    nxt[total] = nxt[total] + prod
                else:
                    nxt[total] = prod
        acc = nxt
    return acc


def jet_morphism(
    morphism: PolyMorphism,
    order: int,
    source_jet: JetScheme | None = None,
    target_jet: JetScheme | None = None,
) -> PolyMorphism:
    """The induced map on jet schemes.

    Original variables go by the morphism itself; the target z coordinate
    for a multi-index beta picks up the u^alpha coefficients of the product
    of the shifted coordinate series raised to the beta powers, truncated
    above the jet order.
    """
    source_jet = claimed(source_jet, jet_scheme, morphism.source, order)
    target_jet = claimed(target_jet, jet_scheme, morphism.target, order)
    ctx = source_jet.ctx
    nvars = len(morphism.source.variables)
    assignment = {}
    series = {}
    for name in morphism.target.variables:
        image = transport(morphism.assignment[name], ctx)
        assignment[name] = image
        series[name] = _series(image, source_jet.indices)
    for beta in target_jet.indices:
        factors = []
        for i, name in enumerate(morphism.target.variables):
            factors.extend([series[name]] * beta[i])
        coeffs = _series_product(factors, nvars, order, ctx)
        acc = ctx.zero()
        for alpha in source_jet.indices:
            c = coeffs.get(alpha)
            if c is not None and not c.is_zero():
                acc = acc + c * ctx.var(z_name(alpha))
        assignment[z_name(beta)] = acc
    return PolyMorphism(source_jet.scheme, target_jet.scheme, assignment)
