"""The three benchmark workloads, each a closed loop of exact checks.

A workload runs in passes. One pass is the full set of checks that gives
the workload's verdict, and each check starts after the previous verdict.
``run_pass`` returns one ``(seconds, error)`` pair per check; ``error`` is
``None`` when the verdict is the expected one.

The program is reached only through its public names, looked up on the
``prolong`` package (or a submodule) at call time, so the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import zlib
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import prolong as P
from pace import PACER

QQ = importlib.import_module("prolong.scalars").QQ
FIXTURES = importlib.import_module("prolong.fixtures")
CLI = importlib.import_module("prolong.cli")

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# points per fixture/algebra/order combination in one surjectivity pass
SURJECTIVITY_TRIALS = EXPECTED["surjectivity_trials"]
# the one ValueError the surjectivity suite documents as a skipped point
NOT_SCALAR = "is not a scalar; specialize the base first"
# seeded criterion-01 style systems checked as one verdict per diagram pass
RANDOM_SYSTEMS = 250
SYMBOLIC_SUITES = (
    "functor_laws",
    "nabla_naturality",
    "composition",
    "comparison",
    "hasse_axioms",
    "interpolation_diagrams",
    "roundtrip",
)


def _timed(checks: list, fn, *args) -> None:
    """Run one check and append its ``(seconds, error)``.  The seconds leave
    out the time the pacer's reference units took meanwhile and are scaled
    to the reference speed the units measured around the check."""
    start = perf_counter()
    try:
        error = fn(*args)
    except Exception as err:  # a raised check is a wrong verdict, not a crash
        error = f"{type(err).__name__}: {err}"
    checks.append((PACER.scaled(start, perf_counter()), error))


def _sub_seed(suite: str, name: str, seed: int) -> int:
    # the derivation `prolong check` uses, so the points are the suite's own
    return zlib.crc32(f"{suite}:{name}".encode()) ^ seed


# ------------------------------------------------------ surjectivity_fibers


class SurjectivityFibers:
    """The point loop of the surjectivity suite: every fixture with an
    operator, a dimension and points, both algebras, orders 1 and 2, at the
    points the suite itself draws, in the suite's order."""

    def __init__(self, fixtures, seed: int, fixture_dir: Path):
        self.fixtures = fixtures
        self.seed = seed
        self.skip_counts = {}

    def run_pass(self) -> list:
        checks = []
        for fx in self.fixtures:
            if fx.scheme.is_algebra_mode or fx.operator is None or fx.dim is None:
                continue
            if fx.family is None and not fx.points:
                continue
            rng = random.Random(_sub_seed("surjectivity", fx.name, self.seed))
            operators = [fx.operator]
            if fx.second_operator is not None:
                operators.append(fx.second_operator)
            self.skip_counts[fx.name] = 0
            for operator in operators:
                for m in (1, 2):
                    imap = P.interpolation_map(fx.scheme, m, operator)
                    points = FIXTURES.fixture_points(fx, rng, SURJECTIVITY_TRIALS)
                    for point in points:
                        _timed(checks, self._verdict, fx, m, operator, point, imap)
            got = self.skip_counts[fx.name]
            want = EXPECTED["surjectivity_skips"].get(fx.name, 0)
            if got != want:
                checks.append((None, f"{fx.name}: {got} points skipped, not {want}"))
        return checks

    def _verdict(self, fx, m, operator, point, imap):
        try:
            report = P.check_surjectivity(
                fx.scheme, m, operator, point, fx.dim, interpolation=imap
            )
        except ValueError as err:
            if NOT_SCALAR not in str(err):
                raise
            self.skip_counts[fx.name] += 1  # base-dependent point: documented skip
            return None
        if report.status == "skip":
            self.skip_counts[fx.name] += 1
            return None
        if report.status != "pass" or report.image_rank != report.target_kernel:
            return f"{fx.name} {operator.algebra.name} m={m}: {report}"
        return None


# --------------------------------------------------------- diagram_groebner

PLAIN = P.RingContext(QQ)
OVER_T = P.RingContext(QQ, base_gens=("t",))
# d/dt into the dual numbers: t -> t + 1*eps
D_DT = P.RingOperator(
    P.dual_numbers(),
    OVER_T,
    {"t": P.dual_numbers().element(OVER_T, [OVER_T.var("t"), OVER_T.one()])},
)


def _scheme(variables, gens=()):
    ctx = P.RingContext(QQ, scheme_vars=tuple(variables))
    return P.AffineScheme(ctx, [P.parse_poly(g, ctx) for g in gens])


def _dual():
    return P.standard_operator(P.dual_numbers(), PLAIN)


def _morphism_square(m: int):
    """Jets and prolongations along the dual numbers commute with the
    embedding of the line as the parabola v = u^2."""
    line = _scheme(("s",))
    curve = _scheme(("u", "v"), ["v - u^2"])
    s = line.ctx.var("s")
    g = P.PolyMorphism(line, curve, {"u": s, "v": s * s})
    e = _dual()
    imap_x = P.interpolation_map(line, m, e)
    imap_y = P.interpolation_map(curve, m, e)
    tau_g = P.prolong_morphism(
        g, e, source_result=imap_x.prolongation, target_result=imap_y.prolongation
    )
    jet_tau_g = P.jet_morphism(
        tau_g, m, source_jet=imap_x.source, target_jet=imap_y.source
    )
    jet_g = P.jet_morphism(g, m, source_jet=imap_x.jet, target_jet=imap_y.jet)
    tau_jet_g = P.prolong_morphism(
        jet_g, e, source_result=imap_x.target, target_result=imap_y.target
    )
    left = imap_y.morphism.compose(jet_tau_g)
    right = tau_jet_g.compose(imap_x.morphism)
    return None if left.equals_mod_ideal(right) else f"morphism square m={m}"


def _composite_triangle(variables, gens, m: int):
    """Interpolation along dual(x)product(2) equals the iterated one."""
    scheme = _scheme(variables, gens)
    e = _dual()
    f = P.standard_operator(P.product_algebra(2), PLAIN)
    _, ef = P.compose_operators(e, f)
    imap_ef = P.interpolation_map(scheme, m, ef)
    imap_e = P.interpolation_map(scheme, m, e)
    imap_f = P.interpolation_map(imap_e.prolongation.scheme, m, f)
    composite = P.prolong_morphism(imap_e.morphism, f).compose(imap_f.morphism)
    source_rename = dict(P.prolong_composed(scheme, e, f).renaming)
    target_rename = dict(P.prolong_composed(imap_ef.jet.scheme, e, f).renaming)
    gb = P.groebner(list(composite.source.generators)) if gens else None
    for name, poly in imap_ef.assignment.items():
        lhs = P.transport(poly, composite.source.ctx, rename=source_rename)
        delta = lhs - composite.assignment[target_rename[name]]
        if not (delta.is_zero() if gb is None else P.ideal_member(delta, gb)):
            return f"triangle {variables} m={m}: {name}"
    return None


def _quotient_square(m: int):
    """The comparison map along truncated(1,2) -> dual numbers commutes
    with interpolation on the parabola."""
    parabola = _scheme(("x", "y"), ["y - x^2"])
    trunc = P.standard_operator(P.truncated_algebra(1, 2), PLAIN)
    e = _dual()
    alpha = [[Fraction(v) for v in row] for row in ((1, 0, 0), (0, 1, 0))]
    jetx = P.jet_scheme(parabola, m)
    imap_e = P.interpolation_map(parabola, m, trunc, jet=jetx)
    imap_f = P.interpolation_map(parabola, m, e, jet=jetx)
    hat_x = P.compare_map(
        parabola,
        alpha,
        trunc,
        e,
        source_result=imap_e.prolongation,
        target_result=imap_f.prolongation,
    )
    jet_hat = P.jet_morphism(
        hat_x, m, source_jet=imap_e.source, target_jet=imap_f.source
    )
    hat_jet = P.compare_map(
        jetx.scheme,
        alpha,
        trunc,
        e,
        source_result=imap_e.target,
        target_result=imap_f.target,
    )
    left = imap_f.morphism.compose(jet_hat)
    right = hat_jet.compose(imap_e.morphism)
    return None if left.equals_mod_ideal(right) else f"quotient square m={m}"


def _random_poly_text(rng: random.Random, names) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        factors = [rng.choice(names) for _ in range(rng.randint(0, 3))]
        terms.append("*".join([f"({coeff})"] + factors))
    return " + ".join(terms)


def random_system(rng: random.Random):
    """A criterion-01 style system over QQ[t]: 1-3 variables and one nonzero
    generator of degree at most 3 with at most 4 terms.  Two generators
    make some Groebner runs take minutes, which no steady benchmark can
    sample."""
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    ctx = P.RingContext(QQ, base_gens=("t",), scheme_vars=names)
    while True:
        poly = P.parse_poly(_random_poly_text(rng, names + ("t",)), ctx)
        if not poly.is_zero():
            return P.AffineScheme(ctx, [poly])


def _prolongation_formulas(rng: random.Random):
    """Prolonging along d/dt gives f and sum_v df/dv * v_1 + df/dt, as
    ideals, on every one of the seeded systems."""
    for _ in range(RANDOM_SYSTEMS):
        error = _prolongation_formula(random_system(rng))
        if error is not None:
            return error
    return None


def _prolongation_formula(scheme):
    ctx = scheme.ctx
    tau = P.prolong(scheme, D_DT)
    rename = {v: f"{v}_0" for v in ctx.scheme_vars}
    expected = []
    for p in scheme.generators:
        expected.append(P.transport(p, tau.ctx, rename=rename))
        slope = tau.ctx.zero()
        for v in ctx.scheme_vars:
            d = P.hasse_derivative(p, P.Monomial(((ctx.var_index(v), 1),)))
            lifted = P.transport(d, tau.ctx, rename=rename)
            slope = slope + lifted * tau.ctx.var(f"{v}_1")
        dt = P.hasse_derivative(p, P.Monomial(((ctx.var_index("t"), 1),)))
        expected.append(slope + P.transport(dt, tau.ctx, rename=rename))
    if P.ideal_equal(list(tau.scheme.generators), expected):
        return None
    return f"prolongation formula fails on {P.poly_to_str(scheme.generators[0])}"


class DiagramGroebner:
    """The six interpolation diagrams of acceptance criterion 08, one check
    each, then one check of the prolongation formula on seeded random
    systems by ideal equality (acceptance criterion 01, scaled up)."""

    DIAGRAMS = (
        (_morphism_square, 1),
        (_morphism_square, 2),
        (_composite_triangle, ("x",), (), 2),
        (_composite_triangle, ("x", "y"), ("y - x^2",), 1),
        (_quotient_square, 1),
        (_quotient_square, 2),
    )

    def __init__(self, fixtures, seed: int, fixture_dir: Path):
        self.seed = seed

    def run_pass(self) -> list:
        checks = []
        for fn, *args in self.DIAGRAMS:
            _timed(checks, fn, *args)
        _timed(checks, _prolongation_formulas, random.Random(self.seed))
        return checks


# ------------------------------------------------------------ symbolic_laws


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_suite(suite: str, fixture_dir: Path, seed: int) -> tuple[int, str]:
    """`prolong check --suite <suite> --format json` in this process."""
    out = io.StringIO()
    argv = ["check", "--suite", suite, "--input", str(fixture_dir)]
    argv += ["--seed", str(seed), "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = CLI.main(argv)
    return code, out.getvalue()


class SymbolicLaws:
    """Every `prolong check` suite but surjectivity, at the default trials.

    Each suite must exit 0 with overall pass, repeat its report byte for
    byte on every pass, and match the digest recorded for the seed when
    there is one.
    """

    def __init__(self, fixtures, seed: int, fixture_dir: Path):
        self.seed = seed
        self.fixture_dir = fixture_dir
        self.recorded = EXPECTED["symbolic_digests"].get(str(seed), {})
        self.first = {}

    def run_pass(self) -> list:
        checks = []
        for suite in SYMBOLIC_SUITES:
            _timed(checks, self._suite_verdict, suite)
        return checks

    def _suite_verdict(self, suite: str):
        code, text = run_suite(suite, self.fixture_dir, self.seed)
        if code != 0 or json.loads(text)["status"] != "pass":
            return f"{suite}: exit {code}"
        digest = report_digest(text)
        want = self.recorded.get(suite) or self.first.setdefault(suite, digest)
        if digest != want:
            return f"{suite}: report digest {digest}, expected {want}"
        return None


WORKLOADS = {
    "surjectivity_fibers": SurjectivityFibers,
    "diagram_groebner": DiagramGroebner,
    "symbolic_laws": SymbolicLaws,
}
