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
from pathlib import Path

from . import laws
from .algebra import AlgebraValidationError
from .fixtures import (
    Fixture,
    FixtureError,
    load_fixture,
    load_fixtures,
    read_alpha,
    read_operator,
    read_point,
)
from .groebner import EngineLimitError
from .interpolation import check_surjectivity, fiber_matrices_at, interpolation_map
from .jets import jet_fiber, jet_scheme
from .polynomials import poly_to_str
from .prolongations import (
    AlgebraMapError,
    compare_map,
    nabla,
    prolong,
    prolong_composed,
    validate_algebra_map,
)
from .weil import (
    AffineScheme,
    NotScalarPointError,
    PointError,
    render_value,
    weil_restrict,
)


class UsageError(ValueError):
    pass


def _single_fixture(path_text: str, plain: bool = True) -> Fixture:
    """The one fixture a command reads; ``plain`` refuses algebra coefficients."""
    path = Path(path_text)
    if path.is_dir():
        raise UsageError(f"{path}: this command needs a single fixture file")
    fx = load_fixture(path)
    if plain and fx.scheme.is_algebra_mode:
        raise UsageError(
            f"fixture {fx.name!r} has algebra coefficients;"
            " this command needs a plain scheme"
        )
    return fx


def _need(fixture: Fixture, attr: str, what: str):
    value = getattr(fixture, attr)
    if value is None:
        raise UsageError(f"fixture {fixture.name!r} has no {what}")
    return value


def _scalar_point(path_text: str, scheme: AffineScheme):
    """The ``--at`` point of a linear fiber, which needs constant coordinates
    where a point file may also hold polynomials in the base parameters."""
    point = read_point(path_text, scheme)
    for name, value in point.assignment.items():
        if not value.is_constant():
            raise UsageError(
                f"{path_text}: point.{name} must be a constant for a fiber,"
                f" got {poly_to_str(value)}"
            )
    return point


def _render_residuals(err: PointError) -> list:
    return [{"generator": i, "residual": render_value(v)} for i, v in err.residuals]


def _matrix_payload(matrix) -> dict:
    return {
        "cols": list(matrix.col_labels),
        "rows": [[str(v) for v in row] for row in matrix.rows],
    }


def _scheme_report(payload: dict, head: str, scheme: AffineScheme):
    """A command's result: ``payload`` and the text line ``head``, each
    followed by the scheme's variables and generators."""
    gens = [poly_to_str(g) for g in scheme.generators]
    payload.update(vars=list(scheme.variables), generators=gens)
    variables = "variables: " + ", ".join(scheme.variables)
    return 0, payload, [head, variables, "{" + ", ".join(gens) + "}"]


def _sub_seed(suite: str, name: str, seed: int) -> int:
    return zlib.crc32(f"{suite}:{name}".encode()) ^ seed


# ---------------------------------------------------------------- commands


def cmd_weil(args):
    fx = _single_fixture(args.input, plain=False)
    algebra = _need(fx, "operator", "algebra").algebra
    scheme = fx.scheme
    if not scheme.is_algebra_mode:
        lifted = [algebra.scalar(scheme.ctx, g) for g in scheme.generators]
        scheme = AffineScheme(scheme.ctx, lifted, algebra=algebra)
    restricted = weil_restrict(scheme, algebra)
    payload = {"command": "weil", "algebra": algebra.name}
    return _scheme_report(payload, f"algebra: {algebra.name}", restricted)


def cmd_prolong(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    payload = {"command": "prolong"}
    if args.compose:
        second = read_operator(args.compose, operator.ctx)
        result = prolong_composed(fx.scheme, operator, second)
        payload["renaming"] = dict(sorted(result.renaming.items()))
        payload["algebra"] = result.algebra.name
    else:
        result = prolong(fx.scheme, operator)
        payload["algebra"] = operator.algebra.name
    return _scheme_report(payload, f"algebra: {payload['algebra']}", result.scheme)


def cmd_jet(args):
    fx = _single_fixture(args.input)
    jet = jet_scheme(fx.scheme, args.order)
    payload = {"command": "jet", "order": args.order}
    code, payload, lines = _scheme_report(payload, f"order: {args.order}", jet.scheme)
    if args.at:
        point = _scalar_point(args.at, fx.scheme)
        fiber = jet_fiber(fx.scheme, args.order, point, jet=jet)
        payload["fiber"] = _matrix_payload(fiber.matrix)
        payload["fiber_dimension"] = fiber.dimension
        lines.append("fiber columns: " + ", ".join(fiber.columns))
        for row in payload["fiber"]["rows"]:
            lines.append("[" + ", ".join(row) + "]")
        lines.append(f"fiber dimension: {fiber.dimension}")
    return code, payload, lines


def cmd_nabla(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    point = read_point(args.at, fx.scheme)
    image = nabla(fx.scheme, operator, point)
    payload = {
        "command": "nabla",
        "vars": list(image.scheme.variables),
        "point": laws.assignment_strings(image),
    }
    lines = [f"{k} = {v}" for k, v in payload["point"].items()]
    return 0, payload, lines


def cmd_compose(args):
    fx = _single_fixture(args.input)
    operator = _need(fx, "operator", "operator")
    if args.compose:
        second = read_operator(args.compose, operator.ctx)
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
        alpha = read_alpha(args.alpha)
    else:
        alpha = _need(fx, "alpha", "alpha matrix")
    try:
        validate_algebra_map(alpha, operator, second)
    except AlgebraMapError as err:
        payload = {"command": "compare", "status": "fail", "witness": str(err)}
        return 1, payload, [f"FAIL: {err}"]
    hat = compare_map(fx.scheme, alpha, operator, second)
    assignment = laws.assignment_strings(hat)
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
    assignment = laws.assignment_strings(imap)
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
        point = _scalar_point(args.at, fx.scheme)
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
        point = _scalar_point(args.at, fx.scheme)
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
    """One suite's outcome: an entry per fixture, in fixture order."""

    suite: str
    seed: int
    trials: int
    fixtures: list = field(default_factory=list)

    def add(self, name: str, status: str, **fields):
        self.fixtures.append({"fixture": name, "status": status, **fields})

    def count(self, status: str) -> int:
        return sum(entry["status"] == status for entry in self.fixtures)

    def payload(self) -> dict:
        fails = [entry for entry in self.fixtures if entry["status"] == "fail"]
        status, witness = "pass", None
        if fails:
            status = "fail"
            witness = dict(fails[0]["witness"], fixture=fails[0]["fixture"])
        elif self.count("inconclusive"):
            status = "inconclusive"
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "status": status,
            "passes": sum(e["checks"] for e in self.fixtures if e["status"] == "pass"),
            "fails": len(fails),
            "skips": self.count("skip"),
            "inconclusive": self.count("inconclusive"),
            "witness": witness,
            "fixtures": self.fixtures,
        }


def _suite(law, plain_only: bool, needs: tuple, reason: str):
    """The ``check`` suite that runs ``law`` on every fixture.

    A fixture is skipped when ``plain_only`` and its scheme has algebra
    coefficients, or when one of the attributes in ``needs`` is missing
    (with ``reason``).  Otherwise the law runs with a random source seeded
    from the suite, the fixture and the run's seed, and its outcome becomes
    the fixture's pass, fail, skip or inconclusive entry.
    """
    name = law.__name__

    def suite(fixtures, seed, trials) -> SuiteRun:
        run = SuiteRun(name, seed, trials)
        for fx in fixtures:
            if plain_only and fx.scheme.is_algebra_mode:
                run.add(fx.name, "skip", reason="algebra-mode scheme")
                continue
            if any(getattr(fx, attr) is None for attr in needs):
                run.add(fx.name, "skip", reason=reason)
                continue
            rng = random.Random(_sub_seed(name, fx.name, seed))
            try:
                checks, extra = law(fx, rng, trials)
            except laws.NotApplicable as why:
                run.add(fx.name, "skip", reason=str(why))
            except laws.LawViolation as violation:
                run.add(fx.name, "fail", witness=violation.witness)
            except EngineLimitError as err:
                run.add(fx.name, "inconclusive", reason=str(err))
            else:
                run.add(fx.name, "pass", checks=checks, **extra)
        return run

    suite.__name__ = suite.__qualname__ = f"suite_{name}"
    return suite


# one row per suite: its law, then which fixtures it runs on
suite_functor_laws = _suite(
    laws.functor_laws,
    True,
    ("operator", "morphism"),
    "needs an operator and a morphism",
)
suite_nabla_naturality = _suite(
    laws.nabla_naturality,
    True,
    ("operator", "morphism"),
    "needs an operator and a morphism",
)
suite_composition = _suite(
    laws.composition, True, ("operator", "second_operator"), "needs a second operator"
)
suite_comparison = _suite(
    laws.comparison,
    True,
    ("alpha", "operator", "second_operator"),
    "needs an alpha matrix and two operators",
)
suite_hasse_axioms = _suite(
    laws.hasse_axioms, False, ("operator", "law"), "needs an operator and a law tag"
)
suite_interpolation_diagrams = _suite(
    laws.interpolation_diagrams, True, ("operator",), "needs an operator"
)
suite_surjectivity = _suite(
    laws.surjectivity,
    True,
    ("operator", "dim"),
    "needs an operator and an expected dimension",
)
suite_roundtrip = _suite(laws.roundtrip, True, (), "")

SUITES = {
    suite.__name__.removeprefix("suite_"): suite
    for suite in (
        suite_functor_laws,
        suite_nabla_naturality,
        suite_composition,
        suite_comparison,
        suite_hasse_axioms,
        suite_interpolation_diagrams,
        suite_surjectivity,
        suite_roundtrip,
    )
}
SUITE_NAMES = tuple(SUITES)


def cmd_check(args):
    fixtures = sorted(load_fixtures(args.input), key=lambda fx: fx.name)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    runs = [SUITES[name](fixtures, args.seed, args.trials) for name in names]
    suites = [run.payload() for run in runs]
    if any(s["fails"] for s in suites):
        status, code = "fail", 1
    elif any(s["inconclusive"] for s in suites):
        status, code = "inconclusive", 3
    else:
        status, code = "pass", 0
    payload = {
        "command": "check",
        "seed": args.seed,
        "trials": args.trials,
        "status": status,
        "suites": suites,
    }
    lines = [f"check seed={args.seed} trials={args.trials}"]
    for s in suites:
        lines.append(
            f"{s['suite']}: {s['status']} (passes={s['passes']} fails={s['fails']}"
            f" skips={s['skips']} inconclusive={s['inconclusive']})"
        )
        for entry in s["fixtures"]:
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


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


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
            p.add_argument("--order", type=_at_least(1), required=True)

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
    p.add_argument("--trials", type=_at_least(0), default=100)
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
        AlgebraValidationError,
        NotScalarPointError,
        OSError,
    ) as err:
        _emit({"status": "error", "error": str(err)}, [f"error: {err}"], fmt)
        return 2
    _emit(payload, lines, fmt)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
