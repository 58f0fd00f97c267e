"""Interpolating jets of a Weil restriction into the restriction of the jet
scheme.

The coordinate map is read off the prolongation's generic point
x_i -> sum_j x_i_j e_j: the restricted jet coordinate z_<beta>_<j> goes to
slot j of x^beta evaluated there, with each term c*y^gamma of that slot
becoming c*z_gamma, a jet coordinate of the restriction.  At a scalar point
the map becomes an exact linear map between jet fibers; surjectivity of that
map is checked by rank arithmetic, gated on an exact Jacobian smoothness test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import evaluate_in_algebra
from .groebner import ExactMatrix, apply_matrix, rank
from .jets import (
    JetScheme,
    LinearFiber,
    jet_fiber,
    jet_scheme,
    linear_system,
    scalar_values,
    z_name,
)
from .operators import RingOperator
from .polynomials import Monomial, MultiPoly, hasse_derivative, substitute
from .prolongations import Prolongation, nabla, prolong
from .weil import AffineScheme, NotScalarPointError, PolyMorphism, SchemePoint


@dataclass(frozen=True)
class InterpolationMap:
    """The interpolating morphism together with the four schemes it connects.

    ``source`` is the jet scheme of the restriction, ``target`` the
    restriction of the jet scheme; ``jet`` and ``prolongation`` sit one
    storey down.  The underlying assignment fixes the restricted scheme
    variables and is linear with scalar coefficients in the jet coordinates.
    """

    morphism: PolyMorphism
    source: JetScheme
    target: Prolongation
    jet: JetScheme
    prolongation: Prolongation
    order: int
    operator: RingOperator

    @property
    def assignment(self):
        return self.morphism.assignment


def interpolation_map(
    scheme: AffineScheme,
    order: int,
    operator: RingOperator,
    prolongation: Prolongation | None = None,
    jet: JetScheme | None = None,
) -> InterpolationMap:
    if prolongation is None:
        prolongation = prolong(scheme, operator)
    elif prolongation.source is not scheme or prolongation.operator is not operator:
        raise ValueError("prolongation was built from different data")
    pro = prolongation
    source = jet_scheme(pro.scheme, order)
    if jet is None:
        jet = jet_scheme(scheme, order)
    elif jet.source is not scheme or jet.order != order:
        raise ValueError("jet scheme was built from different data")
    target = prolong(jet.scheme, operator)
    sctx, restricted = source.ctx, pro.ctx.scheme_vars

    def z(m: Monomial) -> Monomial:
        """The jet coordinate z_gamma of the restricted monomial y^gamma."""
        gamma = tuple(m.get(i) for i in range(len(restricted)))
        return Monomial(((sctx.var_index(z_name(gamma)), 1),))

    assignment = {n: sctx.var(n) for n in restricted}
    one = scheme.ctx.field.one
    for beta in jet.indices:
        # x^beta at the generic point; slot j's term c*y^gamma gives c*z_gamma
        power = MultiPoly(scheme.ctx, {Monomial(enumerate(beta)): one})
        value = evaluate_in_algebra(power, pro.substitution, pro.algebra, pro.ctx)
        for j, slot in enumerate(value.slots):
            terms = {z(m): c for m, c in slot.coeffs.items()}
            assignment[f"{z_name(beta)}_{j}"] = MultiPoly(sctx, terms)
    morphism = PolyMorphism(source.scheme, target.scheme, assignment)
    return InterpolationMap(
        morphism=morphism,
        source=source,
        target=target,
        jet=jet,
        prolongation=pro,
        order=order,
        operator=operator,
    )


def _claimed(result, scheme, order, operator):
    if result is None:
        return interpolation_map(scheme, order, operator)
    if (
        result.jet.source is not scheme
        or result.operator is not operator
        or result.order != order
    ):
        raise ValueError("interpolation map was built from different data")
    return result


def fiber_matrices_at(
    scheme: AffineScheme,
    order: int,
    operator: RingOperator,
    point,
    interpolation: InterpolationMap | None = None,
) -> tuple[LinearFiber, LinearFiber, ExactMatrix]:
    """Source fiber, target fiber, and the scalar matrix between them.

    The source fiber is the jet fiber of the restriction over the expanded
    point; the target fiber comes from the jet-linear generators of the
    restricted jet scheme with the expanded point substituted.  The matrix
    carries solutions of the first system into solutions of the second.
    """
    imap = _claimed(interpolation, scheme, order, operator)
    pro = imap.prolongation
    npoint = nabla(scheme, operator, point, result=pro)
    m_src = jet_fiber(pro.scheme, order, npoint, jet=imap.source)
    tctx = imap.target.ctx
    values = scalar_values(npoint, tctx)
    nplain = len(scheme.generators) * imap.operator.algebra.rank
    wcols = [
        f"{z}_{j}"
        for z in imap.jet.z_variables
        for j in range(imap.operator.algebra.rank)
    ]
    m_tgt = LinearFiber(
        linear_system(imap.target.scheme.generators[nplain:], values, tctx, wcols)
    )
    field = tctx.field
    index = {name: k for k, name in enumerate(m_src.columns)}
    rows = []
    for w in wcols:
        row = [field.zero] * len(index)
        for m, c in imap.assignment[w].coeffs.items():
            ((vi, exp),) = m.exps
            if exp != 1:
                raise ValueError("interpolation assignment is not linear")
            row[index[imap.source.ctx.all_vars[vi]]] = c
        rows.append(row)
    phi = ExactMatrix(
        field,
        rows,
        ncols=len(index),
        row_labels=wcols,
        col_labels=list(m_src.columns),
    )
    return m_src, m_tgt, phi


def jacobian_rank(scheme: AffineScheme, point) -> int:
    """Rank of the Jacobian of the generators at a scalar point.  Raises
    :class:`NotScalarPointError` on an entry that depends on the base ring."""
    if not isinstance(point, SchemePoint):
        point = SchemePoint(scheme, point)
    ctx = scheme.ctx
    values = scalar_values(point, ctx)
    rows = []
    for gen in scheme.generators:
        row = []
        for name in ctx.scheme_vars:
            part = hasse_derivative(gen, Monomial(((ctx.var_index(name), 1),)))
            entry = substitute(part, values, ctx)
            if not entry.is_constant():
                raise NotScalarPointError(
                    "Jacobian entries must be scalars; specialize the base first"
                )
            row.append(entry.constant_value())
        rows.append(row)
    return rank(ExactMatrix(ctx.field, rows, ncols=len(ctx.scheme_vars)))


@dataclass(frozen=True)
class SurjectivityReport:
    status: str
    reason: str
    source_kernel: int
    target_kernel: int
    image_rank: int

    def __bool__(self) -> bool:
        return self.status == "pass"


def check_surjectivity(
    scheme: AffineScheme,
    order: int,
    operator: RingOperator,
    point,
    expected_dim: int,
    interpolation: InterpolationMap | None = None,
) -> SurjectivityReport:
    """Whether the interpolated fiber map covers the target jet fiber.

    The point must be smooth: the Jacobian rank at the point has to match
    the codimension implied by ``expected_dim``, otherwise the check is
    skipped rather than failed.
    """
    if not isinstance(point, SchemePoint):
        point = SchemePoint(scheme, point)
    codim = len(scheme.ctx.scheme_vars) - expected_dim
    jrank = jacobian_rank(scheme, point)
    if jrank != codim:
        return SurjectivityReport(
            "skip",
            f"Jacobian rank {jrank} at the point, need {codim} for smoothness",
            0,
            0,
            0,
        )
    m_src, m_tgt, phi = fiber_matrices_at(
        scheme, order, operator, point, interpolation=interpolation
    )
    field = phi.field
    kernel = m_src.kernel()
    images = [apply_matrix(phi, vec) for vec in kernel]
    for img in images:
        residual = apply_matrix(m_tgt.matrix, img)
        if any(not field.is_zero(v) for v in residual):
            return SurjectivityReport(
                "fail",
                "an interpolated jet leaves the target fiber",
                len(kernel),
                m_tgt.dimension,
                0,
            )
    image_rank = rank(ExactMatrix(field, images, ncols=phi.nrows))
    target_dim = m_tgt.dimension
    if image_rank == target_dim:
        return SurjectivityReport(
            "pass", "", len(kernel), target_dim, image_rank
        )
    return SurjectivityReport(
        "fail",
        f"image spans {image_rank} of {target_dim} fiber directions",
        len(kernel),
        target_dim,
        image_rank,
    )
