"""Batch front end: one command per construction plus seeded check suites.

Exit codes: 0 pass, 1 fail, 2 usage or unreadable input, 3 inconclusive
(a Groebner run hit its pair cap, so no verdict either way).  Reports are
deterministic: identical (fixtures, seed, trials) give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .algebra import make_builtin
from .fixtures import (
    Fixture,
    FixtureError,
    fixture_points,
    load_fixture,
    load_fixtures,
    make_operator,
)
from .groebner import EngineLimitError, groebner, ideal_equal, ideal_member
from .interpolation import check_surjectivity, fiber_matrices_at, interpolation_map
from .jets import jet_fiber, jet_morphism, jet_scheme
from .operators import (
    OperatorFamily,
    check_dring_law,
    check_hasse_axioms,
    compose_operators,
)
from .polynomials import (
    ParseError,
    RingContext,
    parse_poly,
    poly_to_str,
    random_poly,
    transport,
)
from .prolongations import (
    compare_map,
    nabla,
    prolong,
    prolong_composed,
    prolong_morphism,
    validate_algebra_map,
)
from .scalars import QQ
from .weil import (
    AffineScheme,
    NotScalarPointError,
    PointError,
    PolyMorphism,
    SchemePoint,
    weil_restrict,
)

SUITE_NAMES = (
    "functor_laws",
    "nabla_naturality",
    "composition",
    "comparison",
    "hasse_axioms",
    "interpolation_diagrams",
    "surjectivity",
    "roundtrip",
)

# tensor ranks past this make Groebner verdicts slow and flaky to schedule
COMPOSED_RANK_CAP = 4


class UsageError(ValueError):
    pass


def _single_fixture(path_text: str) -> Fixture:
    path = Path(path_text)
    if path.is_dir():
        raise UsageError(f"{path}: this command needs a single fixture file")
    return load_fixture(path)


def _need(fixture: Fixture, attr: str, what: str):
    value = getattr(fixture, attr)
    if value is None:
        raise UsageError(f"fixture {fixture.name!r} has no {what}")
    return value


def _load_json(path_text: str) -> dict:
    return json.loads(Path(path_text).read_text(encoding="utf-8"))


def _load_point(path_text: str, scheme: AffineScheme) -> SchemePoint:
    data = _load_json(path_text)
    if "point" in data:
        data = data["point"]
    assignment = {k: parse_poly(str(v), scheme.ctx) for k, v in data.items()}
    return SchemePoint(scheme, assignment)


def _load_operator_file(path_text: str, base_ctx: RingContext):
    data = _load_json(path_text)
    algebra = make_builtin(data["algebra"])
    return algebra, make_operator(algebra, base_ctx, data, path_text)


def _render_point(point: SchemePoint) -> dict:
    return {k: poly_to_str(v) for k, v in sorted(point.assignment.items())}


def _render_residuals(err: PointError) -> list:
    out = []
    for index, value in err.residuals:
        if hasattr(value, "slots"):
            text = "(" + ", ".join(poly_to_str(s) for s in value.slots) + ")"
        else:
            text = poly_to_str(value)
        out.append({"generator": index, "residual": text})
    return out


def _matrix_payload(matrix) -> dict:
    return {
        "cols": list(matrix.col_labels),
        "rows": [[str(v) for v in row] for row in matrix.rows],
    }


def _gen_strings(scheme: AffineScheme) -> list:
    return [poly_to_str(g) for g in scheme.generators]


def _set_line(gens: list) -> str:
    return "{" + ", ".join(gens) + "}"


def _sub_seed(suite: str, name: str, seed: int) -> int:
    return zlib.crc32(f"{suite}:{name}".encode()) ^ seed


# ---------------------------------------------------------------- commands


def cmd_weil(args):
    fx = _single_fixture(args.input)
    algebra = _need(fx, "algebra", "algebra")
    scheme = fx.scheme
    if not scheme.is_algebra_mode:
        lifted = [algebra.scalar(scheme.ctx, g) for g in scheme.generators]
        scheme = AffineScheme(scheme.ctx, lifted, algebra=algebra)
    restricted = weil_restrict(scheme, algebra)
    gens = _gen_strings(restricted)
    payload = {
        "command": "weil",
        "algebra": algebra.name,
        "vars": list(restricted.variables),
        "generators": gens,
    }
    lines = [
        f"algebra: {algebra.name}",
        "variables: " + ", ".join(restricted.variables),
        _set_line(gens),
    ]
    return 0, payload, lines


def cmd_prolong(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    payload = {"command": "prolong"}
    if args.compose:
        _, second = _load_operator_file(args.compose, operator.ctx)
        result = prolong_composed(fx.scheme, operator, second)
        payload["renaming"] = dict(sorted(result.renaming.items()))
        payload["algebra"] = result.algebra.name
    else:
        result = prolong(fx.scheme, operator)
        payload["algebra"] = operator.algebra.name
    gens = _gen_strings(result.scheme)
    payload["vars"] = list(result.scheme.variables)
    payload["generators"] = gens
    lines = [
        f"algebra: {payload['algebra']}",
        "variables: " + ", ".join(result.scheme.variables),
        _set_line(gens),
    ]
    return 0, payload, lines


def cmd_jet(args):
    fx = _single_fixture(args.input)
    jet = jet_scheme(fx.scheme, args.order)
    gens = _gen_strings(jet.scheme)
    payload = {
        "command": "jet",
        "order": args.order,
        "vars": list(jet.scheme.variables),
        "generators": gens,
    }
    lines = [
        f"order: {args.order}",
        "variables: " + ", ".join(jet.scheme.variables),
        _set_line(gens),
    ]
    if args.at:
        point = _load_point(args.at, fx.scheme)
        fiber = jet_fiber(fx.scheme, args.order, point, jet=jet)
        payload["fiber"] = _matrix_payload(fiber.matrix)
        payload["fiber_dimension"] = fiber.dimension
        lines.append("fiber columns: " + ", ".join(fiber.columns))
        for row in payload["fiber"]["rows"]:
            lines.append("[" + ", ".join(row) + "]")
        lines.append(f"fiber dimension: {fiber.dimension}")
    return 0, payload, lines


def cmd_nabla(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    point = _load_point(args.at, fx.scheme)
    image = nabla(fx.scheme, operator, point)
    payload = {
        "command": "nabla",
        "vars": list(image.scheme.variables),
        "point": _render_point(image),
    }
    lines = [f"{k} = {v}" for k, v in payload["point"].items()]
    return 0, payload, lines


def cmd_compose(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    if args.compose:
        _, second = _load_operator_file(args.compose, operator.ctx)
    else:
        second = _need(fx, "second_operator", "second operator")
    result = prolong_composed(fx.scheme, operator, second)
    composite = result.operator
    images = {
        g: [poly_to_str(s) for s in composite.images[g].slots]
        for g in sorted(composite.images)
    }
    payload = {
        "command": "compose",
        "algebra": {
            "name": composite.algebra.name,
            "rank": composite.algebra.rank,
            "labels": list(composite.algebra.labels),
        },
        "images": images,
        "renaming": dict(sorted(result.renaming.items())),
    }
    lines = [f"algebra: {composite.algebra.name} (rank {composite.algebra.rank})"]
    for g, slots in images.items():
        lines.append(f"{g} -> ({', '.join(slots)})")
    lines.append(
        "renaming: "
        + ", ".join(f"{a} -> {b}" for a, b in payload["renaming"].items())
    )
    return 0, payload, lines


def cmd_compare(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    second = _need(fx, "second_operator", "second operator")
    if args.alpha:
        data = _load_json(args.alpha)
        rows = data["alpha"] if isinstance(data, dict) else data
        alpha = [[Fraction(str(v)) for v in row] for row in rows]
    else:
        alpha = _need(fx, "alpha", "alpha matrix")
    try:
        validate_algebra_map(alpha, operator, second)
    except ValueError as err:
        payload = {"command": "compare", "status": "fail", "witness": str(err)}
        return 1, payload, [f"FAIL: {err}"]
    hat = compare_map(fx.scheme, alpha, operator, second)
    assignment = {k: poly_to_str(v) for k, v in sorted(hat.assignment.items())}
    payload = {
        "command": "compare",
        "status": "pass",
        "assignment": assignment,
        "alpha": [[str(v) for v in row] for row in alpha],
    }
    lines = [f"{k} -> {v}" for k, v in assignment.items()]
    lines.append("PASS: algebra map validated")
    return 0, payload, lines


def cmd_interpolate(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    imap = interpolation_map(fx.scheme, args.order, operator)
    assignment = {
        k: poly_to_str(v) for k, v in sorted(imap.assignment.items())
    }
    payload = {
        "command": "interpolate",
        "order": args.order,
        "source_vars": list(imap.source.scheme.variables),
        "target_vars": list(imap.target.scheme.variables),
        "assignment": assignment,
    }
    lines = [f"{k} -> {v}" for k, v in assignment.items()]
    code = 0
    if args.check_surjectivity:
        if not args.at or args.dim is None:
            raise UsageError("--check-surjectivity needs --at and --dim")
        point = _load_point(args.at, fx.scheme)
        report = check_surjectivity(
            fx.scheme, args.order, operator, point, args.dim, interpolation=imap
        )
        payload["surjectivity"] = {
            "status": report.status,
            "reason": report.reason,
            "source_kernel": report.source_kernel,
            "target_kernel": report.target_kernel,
            "image_rank": report.image_rank,
        }
        tag = report.status.upper()
        lines.append(f"surjectivity: {tag} {report.reason}".rstrip())
        lines.append(
            f"kernels: source {report.source_kernel}, target {report.target_kernel},"
            f" image rank {report.image_rank}"
        )
        if report.status == "fail":
            code = 1
    elif args.at:
        point = _load_point(args.at, fx.scheme)
        m_src, m_tgt, phi = fiber_matrices_at(
            fx.scheme, args.order, operator, point, interpolation=imap
        )
        payload["matrices"] = {
            "source": _matrix_payload(m_src.matrix),
            "target": _matrix_payload(m_tgt.matrix),
            "interpolation": _matrix_payload(phi),
        }
        for tag, matrix in (
            ("source", m_src.matrix),
            ("target", m_tgt.matrix),
            ("interpolation", phi),
        ):
            lines.append(f"{tag} columns: " + ", ".join(matrix.col_labels))
            for row in matrix.rows:
                lines.append("[" + ", ".join(str(v) for v in row) + "]")
    return code, payload, lines


# ------------------------------------------------------------------ suites


@dataclass
class SuiteRun:
    suite: str
    seed: int
    trials: int
    passes: int = 0
    fails: int = 0
    skips: int = 0
    inconclusive: int = 0
    witness: dict | None = None
    fixtures: list = field(default_factory=list)

    def ok(self, count: int = 1):
        self.passes += count

    def skip(self, name: str, reason: str):
        self.skips += 1
        self.fixtures.append({"fixture": name, "status": "skip", "reason": reason})

    def fail(self, name: str, witness: dict):
        self.fails += 1
        entry = {"fixture": name, "status": "fail", "witness": witness}
        self.fixtures.append(entry)
        if self.witness is None:
            self.witness = dict(witness, fixture=name)

    def stuck(self, name: str, reason: str):
        self.inconclusive += 1
        self.fixtures.append(
            {"fixture": name, "status": "inconclusive", "reason": reason}
        )

    def note(self, name: str, checks: int, **extra):
        entry = {"fixture": name, "status": "pass", "checks": checks}
        entry.update(extra)
        self.fixtures.append(entry)

    @property
    def status(self) -> str:
        if self.fails:
            return "fail"
        if self.inconclusive:
            return "inconclusive"
        return "pass"

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "status": self.status,
            "passes": self.passes,
            "fails": self.fails,
            "skips": self.skips,
            "inconclusive": self.inconclusive,
            "witness": self.witness,
            "fixtures": self.fixtures,
        }


def _rng_for(run: SuiteRun, name: str) -> random.Random:
    return random.Random(_sub_seed(run.suite, name, run.seed))


def _plain_only(run: SuiteRun, fx: Fixture) -> bool:
    if fx.scheme.is_algebra_mode:
        run.skip(fx.name, "algebra-mode scheme")
        return False
    return True


def _random_self_map(space: AffineScheme, rng: random.Random) -> PolyMorphism:
    assignment = {
        v: random_poly(space.ctx, rng, max_degree=2, max_terms=3, allow_zero=True)
        for v in space.variables
    }
    return PolyMorphism(space, space, assignment)


def _morphism_strings(morphism: PolyMorphism) -> dict:
    return {k: poly_to_str(v) for k, v in sorted(morphism.assignment.items())}


def _same_assignment(left: PolyMorphism, right: PolyMorphism):
    """First coordinate where the two maps disagree syntactically, if any."""
    for name in sorted(left.assignment):
        if left.assignment[name] != right.assignment[name]:
            return name
    return None


def suite_functor_laws(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("functor_laws", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.operator is None or fx.morphism is None:
            run.skip(fx.name, "needs an operator and a morphism")
            continue
        rng = _rng_for(run, fx.name)
        g = fx.morphism
        space, target = g.source, g.target
        pro_space = prolong(space, fx.operator)
        pro_target = prolong(target, fx.operator)
        jet_space = jet_scheme(space, 1)
        jet_target = jet_scheme(target, 1)
        checks = 0
        tau_id = prolong_morphism(
            PolyMorphism.identity(space),
            fx.operator,
            source_result=pro_space,
            target_result=pro_space,
        )
        jet_id = jet_morphism(
            PolyMorphism.identity(space), 1, source_jet=jet_space, target_jet=jet_space
        )
        for label, lifted in (("prolongation", tau_id), ("jet", jet_id)):
            bad = _same_assignment(lifted, PolyMorphism.identity(lifted.source))
            if bad is not None:
                run.fail(
                    fx.name,
                    {
                        "law": f"{label} of the identity",
                        "variable": bad,
                        "value": poly_to_str(lifted.assignment[bad]),
                    },
                )
                break
            checks += 1
        else:
            tau_g = prolong_morphism(
                g, fx.operator, source_result=pro_space, target_result=pro_target
            )
            jet_g = jet_morphism(g, 1, source_jet=jet_space, target_jet=jet_target)
            failed = False
            for trial in range(trials):
                h = _random_self_map(space, rng)
                composed = g.compose(h)
                tau_h = prolong_morphism(
                    h, fx.operator, source_result=pro_space, target_result=pro_space
                )
                jet_h = jet_morphism(
                    h, 1, source_jet=jet_space, target_jet=jet_space
                )
                pairs = (
                    (
                        "prolongation",
                        prolong_morphism(
                            composed,
                            fx.operator,
                            source_result=pro_space,
                            target_result=pro_target,
                        ),
                        tau_g.compose(tau_h),
                    ),
                    (
                        "jet",
                        jet_morphism(
                            composed, 1, source_jet=jet_space, target_jet=jet_target
                        ),
                        jet_g.compose(jet_h),
                    ),
                )
                for label, lhs, rhs in pairs:
                    bad = _same_assignment(lhs, rhs)
                    if bad is not None:
                        run.fail(
                            fx.name,
                            {
                                "law": f"{label} of a composite",
                                "trial": trial,
                                "inner_map": _morphism_strings(h),
                                "variable": bad,
                                "lhs": poly_to_str(lhs.assignment[bad]),
                                "rhs": poly_to_str(rhs.assignment[bad]),
                            },
                        )
                        failed = True
                        break
                if failed:
                    break
                checks += 2
            if not failed:
                run.note(fx.name, checks)
                run.ok(checks)
    return run


def _sample_space_point(space: AffineScheme, rng: random.Random) -> SchemePoint:
    values = {
        v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in space.variables
    }
    return SchemePoint(space, values)


def suite_nabla_naturality(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("nabla_naturality", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.operator is None or fx.morphism is None:
            run.skip(fx.name, "needs an operator and a morphism")
            continue
        rng = _rng_for(run, fx.name)
        g = fx.morphism
        pro_space = prolong(g.source, fx.operator)
        pro_target = prolong(g.target, fx.operator)
        tau_g = prolong_morphism(
            g, fx.operator, source_result=pro_space, target_result=pro_target
        )
        checks = 0
        failed = False
        for trial in range(trials):
            s = _sample_space_point(g.source, rng)
            try:
                lhs = tau_g.apply_to_point(
                    nabla(g.source, fx.operator, s, result=pro_space)
                )
                rhs = nabla(
                    g.target, fx.operator, g.apply_to_point(s), result=pro_target
                )
            except PointError as err:
                run.fail(
                    fx.name,
                    {
                        "law": "naturality",
                        "trial": trial,
                        "point": _render_point(s),
                        "residual": str(err),
                    },
                )
                failed = True
                break
            if lhs.assignment != rhs.assignment:
                delta = {
                    k: poly_to_str(lhs.assignment[k] - rhs.assignment[k])
                    for k in lhs.assignment
                    if lhs.assignment[k] != rhs.assignment[k]
                }
                run.fail(
                    fx.name,
                    {
                        "law": "naturality",
                        "trial": trial,
                        "point": _render_point(s),
                        "residuals": delta,
                    },
                )
                failed = True
                break
            checks += 1
        if not failed:
            run.note(fx.name, checks)
            run.ok(checks)
    return run


def suite_composition(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("composition", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.operator is None or fx.second_operator is None:
            run.skip(fx.name, "needs a second operator")
            continue
        e, f = fx.operator, fx.second_operator
        combined = e.algebra.rank * f.algebra.rank
        if combined > COMPOSED_RANK_CAP:
            run.skip(fx.name, f"tensor rank {combined} exceeds the suite cap")
            continue
        rng = _rng_for(run, fx.name)
        try:
            composed = prolong_composed(fx.scheme, e, f)
            step = prolong(fx.scheme, e)
            iterated = prolong(step.scheme, f)
            renamed = [
                transport(g, iterated.ctx, rename=dict(composed.renaming))
                for g in composed.scheme.generators
            ]
            same = ideal_equal(renamed, iterated.scheme.generators)
        except EngineLimitError as err:
            run.stuck(fx.name, str(err))
            continue
        if not same:
            run.fail(
                fx.name,
                {
                    "law": "composed ideal equals the iterated ideal",
                    "composed": _gen_strings(composed.scheme),
                    "iterated": _gen_strings(iterated.scheme),
                },
            )
            continue
        checks = 1
        points = fixture_points(fx, rng, trials)
        failed = False
        for index, p in enumerate(points):
            direct = nabla(fx.scheme, composed.operator, p, result=composed)
            nested = nabla(
                step.scheme, f, nabla(fx.scheme, e, p, result=step), result=iterated
            )
            for name, value in direct.assignment.items():
                other = nested.assignment[composed.renaming[name]]
                if transport(value, iterated.ctx) != other:
                    run.fail(
                        fx.name,
                        {
                            "law": "nabla of the composite operator",
                            "point": _render_point(p),
                            "variable": name,
                            "composed": poly_to_str(value),
                            "iterated": poly_to_str(other),
                        },
                    )
                    failed = True
                    break
            if failed:
                break
            checks += 1
        if not failed:
            run.note(fx.name, checks, points=len(points))
            run.ok(checks)
    return run


def suite_comparison(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("comparison", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.alpha is None or fx.operator is None or fx.second_operator is None:
            run.skip(fx.name, "needs an alpha matrix and two operators")
            continue
        e, f = fx.operator, fx.second_operator
        try:
            validate_algebra_map(fx.alpha, e, f)
        except ValueError as err:
            run.fail(fx.name, {"law": "algebra map validation", "reason": str(err)})
            continue
        rng = _rng_for(run, fx.name)
        pro_e = prolong(fx.scheme, e)
        pro_f = prolong(fx.scheme, f)
        hat = compare_map(
            fx.scheme, fx.alpha, e, f, source_result=pro_e, target_result=pro_f
        )
        try:
            is_morphism = hat.is_morphism()
        except EngineLimitError as err:
            run.stuck(fx.name, str(err))
            continue
        if not is_morphism:
            run.fail(
                fx.name,
                {
                    "law": "comparison map lands in the target ideal",
                    "assignment": _morphism_strings(hat),
                },
            )
            continue
        checks = 1
        failed = False
        points = fixture_points(fx, rng, trials)
        for p in points:
            lhs = hat.apply_to_point(nabla(fx.scheme, e, p, result=pro_e))
            rhs = nabla(fx.scheme, f, p, result=pro_f)
            if lhs.assignment != rhs.assignment:
                run.fail(
                    fx.name,
                    {
                        "law": "alpha carries nabla to nabla",
                        "point": _render_point(p),
                        "lhs": _render_point(lhs),
                        "rhs": _render_point(rhs),
                    },
                )
                failed = True
                break
            checks += 1
        if not failed:
            run.note(fx.name, checks, points=len(points))
            run.ok(checks)
    return run


def suite_hasse_axioms(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("hasse_axioms", seed, trials)
    for fx in fixtures:
        if fx.operator is None or fx.law is None:
            run.skip(fx.name, "needs an operator and a law tag")
            continue
        sub = _sub_seed(run.suite, fx.name, seed)
        family = OperatorFamily(fx.operator)
        if fx.law == "hasse":
            result = check_hasse_axioms(
                family.maps, fx.operator.ctx, trials=trials, seed=sub
            )
        elif fx.law == "dring":
            c = fx.operator.algebra.table[1][1][1]
            result = check_dring_law(
                family.maps[1], c, fx.operator.ctx, trials=trials, seed=sub
            )
        else:
            run.skip(fx.name, f"unknown law tag {fx.law!r}")
            continue
        expected_ok = fx.expect == "pass"
        if result.ok == expected_ok:
            extra = {"law": fx.law, "expect": fx.expect}
            if result.witness is not None:
                extra["witness"] = result.witness
            run.note(fx.name, result.trials, **extra)
            run.ok(result.trials)
        elif result.ok:
            run.fail(
                fx.name,
                {
                    "law": fx.law,
                    "expect": fx.expect,
                    "reason": "axioms passed but the fixture expects a failure",
                },
            )
        else:
            run.fail(
                fx.name, {"law": fx.law, "expect": fx.expect, "witness": result.witness}
            )
    return run


def _diagram_morphism(run, fx, imaps, checked) -> bool:
    """Jet/prolongation restriction square for the fixture's morphism."""
    g = fx.morphism
    for m in (1, 2):
        imap_x = interpolation_map(g.source, m, fx.operator)
        imap_y = imaps[m]
        tau_g = prolong_morphism(
            g,
            fx.operator,
            source_result=imap_x.prolongation,
            target_result=imap_y.prolongation,
        )
        jet_tau_g = jet_morphism(
            tau_g, m, source_jet=imap_x.source, target_jet=imap_y.source
        )
        jet_g = jet_morphism(g, m, source_jet=imap_x.jet, target_jet=imap_y.jet)
        tau_jet_g = prolong_morphism(
            jet_g,
            fx.operator,
            source_result=imap_x.target,
            target_result=imap_y.target,
        )
        left = imap_y.morphism.compose(jet_tau_g)
        right = tau_jet_g.compose(imap_x.morphism)
        if _same_assignment(left, right) is not None and not left.equals_mod_ideal(
            right
        ):
            run.fail(
                fx.name,
                {
                    "law": "restriction square",
                    "order": m,
                    "lhs": _morphism_strings(left),
                    "rhs": _morphism_strings(right),
                },
            )
            return False
        checked.append(f"morphism m={m}")
    return True


def _diagram_triangle(run, fx, checked) -> bool:
    """Composite-operator triangle, checked entrywise modulo the source."""
    e, f = fx.operator, fx.second_operator
    _, ef = compose_operators(e, f)
    orders = (1, 2) if not fx.scheme.generators else (1,)
    for m in orders:
        imap_ef = interpolation_map(fx.scheme, m, ef)
        imap_e = interpolation_map(fx.scheme, m, e)
        imap_f = interpolation_map(imap_e.prolongation.scheme, m, f)
        composite = prolong_morphism(imap_e.morphism, f).compose(imap_f.morphism)
        source_rename = dict(prolong_composed(fx.scheme, e, f).renaming)
        target_rename = dict(prolong_composed(imap_ef.jet.scheme, e, f).renaming)
        deltas = []
        for name, poly in imap_ef.assignment.items():
            lhs = transport(poly, composite.source.ctx, rename=source_rename)
            rhs = composite.assignment[target_rename[name]]
            delta = lhs - rhs
            if not delta.is_zero():
                deltas.append((name, delta))
        if deltas:
            # only pay for a basis when something fails syntactically
            gb = groebner(list(composite.source.generators))
            for name, delta in deltas:
                if not ideal_member(delta, gb):
                    run.fail(
                        fx.name,
                        {
                            "law": "composition triangle",
                            "order": m,
                            "variable": name,
                            "difference": poly_to_str(delta),
                        },
                    )
                    return False
        checked.append(f"triangle m={m}")
    return True


def _diagram_quotient(run, fx, imaps, checked) -> bool:
    """Comparison square between the two operators along alpha."""
    e, f = fx.operator, fx.second_operator
    for m in (1, 2):
        imap_e = imaps[m]
        jetx = imap_e.jet
        imap_f = interpolation_map(fx.scheme, m, f, jet=jetx)
        hat_x = compare_map(
            fx.scheme,
            fx.alpha,
            e,
            f,
            source_result=imap_e.prolongation,
            target_result=imap_f.prolongation,
        )
        jet_hat = jet_morphism(
            hat_x, m, source_jet=imap_e.source, target_jet=imap_f.source
        )
        hat_jet = compare_map(
            jetx.scheme,
            fx.alpha,
            e,
            f,
            source_result=imap_e.target,
            target_result=imap_f.target,
        )
        left = imap_f.morphism.compose(jet_hat)
        right = hat_jet.compose(imap_e.morphism)
        if _same_assignment(left, right) is not None and not left.equals_mod_ideal(
            right
        ):
            run.fail(
                fx.name,
                {
                    "law": "comparison square",
                    "order": m,
                    "lhs": _morphism_strings(left),
                    "rhs": _morphism_strings(right),
                },
            )
            return False
        checked.append(f"quotient m={m}")
    return True


def suite_interpolation_diagrams(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("interpolation_diagrams", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.operator is None:
            run.skip(fx.name, "needs an operator")
            continue
        combined = 0
        if fx.second_operator is not None:
            combined = fx.operator.algebra.rank * fx.second_operator.algebra.rank
        parts = {
            "morphism": fx.morphism is not None,
            "triangle": fx.second_operator is not None
            and combined <= COMPOSED_RANK_CAP,
            "quotient": fx.alpha is not None and fx.second_operator is not None,
        }
        if not any(parts.values()):
            run.skip(fx.name, "no morphism, composable pair, or alpha matrix")
            continue
        checked: list = []
        try:
            imaps = {m: interpolation_map(fx.scheme, m, fx.operator) for m in (1, 2)}
            good = True
            if parts["morphism"]:
                good = _diagram_morphism(run, fx, imaps, checked)
            if good and parts["triangle"]:
                good = _diagram_triangle(run, fx, checked)
            if good and parts["quotient"]:
                good = _diagram_quotient(run, fx, imaps, checked)
        except EngineLimitError as err:
            run.stuck(fx.name, str(err))
            continue
        if good:
            run.note(fx.name, len(checked), parts=checked)
            run.ok(len(checked))
    return run


def suite_surjectivity(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("surjectivity", seed, trials)
    for fx in fixtures:
        if not _plain_only(run, fx):
            continue
        if fx.operator is None or fx.dim is None:
            run.skip(fx.name, "needs an operator and an expected dimension")
            continue
        if fx.family is None and not fx.points:
            run.skip(fx.name, "no points to test at")
            continue
        rng = _rng_for(run, fx.name)
        operators = [fx.operator]
        if fx.second_operator is not None:
            operators.append(fx.second_operator)
        checks = 0
        skipped_points = 0
        failed = False
        for operator in operators:
            for m in (1, 2):
                imap = interpolation_map(fx.scheme, m, operator)
                for p in fixture_points(fx, rng, trials):
                    try:
                        report = check_surjectivity(
                            fx.scheme, m, operator, p, fx.dim, interpolation=imap
                        )
                    except NotScalarPointError:
                        # base-dependent coordinates have no scalar fiber
                        skipped_points += 1
                        continue
                    if report.status == "skip":
                        skipped_points += 1
                    elif report.status == "fail":
                        run.fail(
                            fx.name,
                            {
                                "law": "fiberwise surjectivity",
                                "algebra": operator.algebra.name,
                                "order": m,
                                "point": _render_point(p),
                                "reason": report.reason,
                            },
                        )
                        failed = True
                        break
                    else:
                        checks += 1
                if failed:
                    break
            if failed:
                break
        if not failed:
            run.note(fx.name, checks, skipped_points=skipped_points)
            run.ok(checks)
    return run


def suite_roundtrip(fixtures, seed, trials) -> SuiteRun:
    run = SuiteRun("roundtrip", seed, trials)
    for fx in fixtures:
        if fx.scheme.is_algebra_mode:
            run.skip(fx.name, "algebra-mode scheme")
            continue
        rng = _rng_for(run, fx.name)
        ctx = fx.scheme.ctx
        checks = 0
        failed = False
        for g in fx.scheme.generators:
            text = poly_to_str(g)
            if parse_poly(text, ctx) != g:
                run.fail(
                    fx.name, {"law": "parse after print", "polynomial": text}
                )
                failed = True
                break
            checks += 1
        if not failed:
            for trial in range(trials):
                poly = random_poly(ctx, rng, allow_zero=True)
                text = poly_to_str(poly)
                back = parse_poly(text, ctx)
                if back != poly or poly_to_str(back) != text:
                    run.fail(
                        fx.name,
                        {
                            "law": "print after parse",
                            "trial": trial,
                            "polynomial": text,
                            "reprinted": poly_to_str(back),
                        },
                    )
                    failed = True
                    break
                checks += 1
        if not failed:
            run.note(fx.name, checks)
            run.ok(checks)
    return run


SUITES = {
    "functor_laws": suite_functor_laws,
    "nabla_naturality": suite_nabla_naturality,
    "composition": suite_composition,
    "comparison": suite_comparison,
    "hasse_axioms": suite_hasse_axioms,
    "interpolation_diagrams": suite_interpolation_diagrams,
    "surjectivity": suite_surjectivity,
    "roundtrip": suite_roundtrip,
}


def cmd_check(args):
    fixtures = sorted(load_fixtures(args.input), key=lambda fx: fx.name)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    runs = [SUITES[name](fixtures, args.seed, args.trials) for name in names]
    if any(r.fails for r in runs):
        status, code = "fail", 1
    elif any(r.inconclusive for r in runs):
        status, code = "inconclusive", 3
    else:
        status, code = "pass", 0
    payload = {
        "command": "check",
        "seed": args.seed,
        "trials": args.trials,
        "status": status,
        "suites": [r.payload() for r in runs],
    }
    lines = [f"check seed={args.seed} trials={args.trials}"]
    for r in runs:
        lines.append(
            f"{r.suite}: {r.status} (passes={r.passes} fails={r.fails}"
            f" skips={r.skips} inconclusive={r.inconclusive})"
        )
        for entry in r.fixtures:
            if entry["status"] == "skip":
                lines.append(f"  skip {entry['fixture']}: {entry['reason']}")
            elif entry["status"] == "inconclusive":
                lines.append(f"  inconclusive {entry['fixture']}: {entry['reason']}")
            elif entry["status"] == "fail":
                lines.append(
                    f"  FAIL {entry['fixture']}: "
                    + json.dumps(entry["witness"], sort_keys=True)
                )
    lines.append(f"overall: {status}")
    return code, payload, lines


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolong",
        description="Weil restrictions, prolongations, jets, and their checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False):
        p.add_argument("--input", required=True, help="fixture file (or directory)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if order:
            p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("weil", help="restrict an algebra-coefficient scheme")
    common(p)
    p.set_defaults(handler=cmd_weil)

    p = sub.add_parser("prolong", help="prolongation space of the fixture scheme")
    common(p)
    p.add_argument("--compose", help="second operator file for the tensor version")
    p.set_defaults(handler=cmd_prolong)

    p = sub.add_parser("jet", help="jet scheme and optional fibers")
    common(p, order=True)
    p.add_argument("--at", help="point file for the linear fiber")
    p.set_defaults(handler=cmd_jet)

    p = sub.add_parser("interpolate", help="interpolation map and fiber matrices")
    common(p, order=True)
    p.add_argument("--at", help="point file for the fiber matrices")
    p.add_argument("--check-surjectivity", action="store_true")
    p.add_argument("--dim", type=int, help="expected dimension at the point")
    p.set_defaults(handler=cmd_interpolate)

    p = sub.add_parser("nabla", help="canonical prolongation point over a point")
    common(p)
    p.add_argument("--at", required=True, help="point file")
    p.set_defaults(handler=cmd_nabla)

    p = sub.add_parser("compose", help="tensor composite of two operators")
    common(p)
    p.add_argument("--compose", help="second operator file (default: fixture second)")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("compare", help="comparison map along an algebra morphism")
    common(p)
    p.add_argument("--alpha", help="matrix file overriding the fixture alpha")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("check", help="run seeded verification suites")
    common(p)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=cmd_check)

    return parser


def _emit(payload: dict, lines: list, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 2
    fmt = getattr(args, "format", "text")
    try:
        code, payload, lines = args.handler(args)
    except PointError as err:
        payload = {
            "status": "fail",
            "error": str(err),
            "residuals": _render_residuals(err),
        }
        _emit(payload, [f"FAIL: {err}"], fmt)
        return 1
    except EngineLimitError as err:
        _emit(
            {"status": "inconclusive", "error": str(err)},
            [f"INCONCLUSIVE: {err}"],
            fmt,
        )
        return 3
    except (
        UsageError,
        FixtureError,
        ParseError,
        OSError,
        KeyError,
        ValueError,
    ) as err:
        _emit({"status": "error", "error": str(err)}, [f"error: {err}"], fmt)
        return 2
    _emit(payload, lines, fmt)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
