"""Fixture files for the command line front end.

One JSON file carries a scheme plus whatever algebras, operators, points,
morphisms, and point families the commands and suites need.  Loading is
eager: bad cross-references fail here, not halfway through a suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import AlgebraScheme, make_builtin
from .operators import RingOperator
from .polynomials import RingContext, parse_poly, substitute
from .scalars import QQ
from .weil import AffineScheme, PolyMorphism, SchemePoint


class FixtureError(ValueError):
    pass


def make_operator(
    algebra: AlgebraScheme, base_ctx: RingContext, spec, name: str, field="operator"
) -> RingOperator:
    """Operator from its JSON spec: per-generator slot vectors of polynomial
    strings; generators left unlisted map through the unit slot.  Errors name
    the fixture ``name`` and the ``field`` the spec was read from."""
    spec = _typed({} if spec is None else spec, name, field)
    if "operator" in spec:
        spec = _typed(spec["operator"], name, field)
    images = {}
    for g, slots in _typed(spec.get("images", {}), name, f"{field}.images").items():
        if not isinstance(slots, (list, tuple)) or len(slots) != algebra.rank:
            raise FixtureError(
                f"image of {g!r} needs {algebra.rank} slot strings"
            )
        polys = [parse_poly(str(s), base_ctx) for s in slots]
        images[g] = algebra.element(base_ctx, polys)
    for g in base_ctx.base_gens:
        if g not in images:
            images[g] = algebra.scalar(base_ctx, base_ctx.var(g))
    return RingOperator(algebra, base_ctx, images)


@dataclass(frozen=True)
class PointFamily:
    """Rational family of points: coordinates are num/den polynomial pairs in
    the family parameters, sampled at seeded rational parameter values."""

    ctx: RingContext
    values: tuple

    def sample(self, scheme: AffineScheme, rng) -> SchemePoint:
        for _ in range(64):
            params = {
                v: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for v in self.ctx.scheme_vars
            }
            constants = {v: self.ctx.const(c) for v, c in params.items()}
            assignment = {}
            bad = False
            for coord, num, den in self.values:
                value = substitute(num, constants, self.ctx).constant_value()
                if den is not None:
                    lower = substitute(den, constants, self.ctx).constant_value()
                    if lower == 0:
                        bad = True
                        break
                    value = value / lower
                assignment[coord] = value
            if not bad:
                return SchemePoint(scheme, assignment)
        raise FixtureError("point family kept hitting zero denominators")


@dataclass
class Fixture:
    name: str
    scheme: AffineScheme
    algebra: AlgebraScheme | None
    operator: RingOperator | None
    second_algebra: AlgebraScheme | None
    second_operator: RingOperator | None
    alpha: list | None
    morphism: PolyMorphism | None
    family: PointFamily | None
    points: list
    law: str | None
    expect: str
    dim: int | None


def _typed(value, name: str, field: str, kind=dict, what: str = "a JSON object"):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FixtureError(f"{name}: {field} must be {what}, got {value!r}")
    return value


def _names(value, name: str, field: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FixtureError(f"{name}: {field} must be a list of names, got {value!r}")
    return tuple(value)


_SCALAR = ((int, str), "an integer or a string")
# each builtin algebra's spec fields and what each must be
_BUILTIN_FIELDS = {
    "truncated": {"vars": (int, "an integer"), "order": (int, "an integer")},
    "product": {"n": (int, "an integer")},
    "dring": {"c": _SCALAR},
}


def make_algebra(spec, name: str, field: str) -> AlgebraScheme:
    """Algebra from its JSON spec (see ``make_builtin``); the spec's shape
    is checked first, so errors name the fixture and the dotted field."""
    spec = _typed(spec, name, field)
    if "builtin" in spec:
        for key, (kind, what) in _BUILTIN_FIELDS.get(spec["builtin"], {}).items():
            _typed(spec.get(key), name, f"{field}.{key}", kind, what)
    elif "basis" in spec and "mult" in spec:
        _typed(spec["basis"], name, f"{field}.basis", list, "a list of labels")
        for row in _typed(spec["mult"], name, f"{field}.mult", list, "a list of rows"):
            for cell in _typed(row, name, f"{field}.mult row", list, "a list of cells"):
                for c in _typed(cell, name, f"{field}.mult cell", list, "a list"):
                    _typed(c, name, f"{field}.mult entry", *_SCALAR)
    return make_builtin(spec)


def _parse_alpha(rows, name: str) -> list:
    return [
        [Fraction(str(x)) for x in _typed(row, name, "alpha row", list, "a list")]
        for row in _typed(rows, name, "alpha", list, "a list of rows")
    ]


def _parse_family(data, name, scheme) -> PointFamily | None:
    spec = data.get("point_family")
    if spec is None:
        return None
    spec = _typed(spec, name, "point_family")
    fvars = _names(spec.get("vars"), name, "point_family.vars")
    fctx = RingContext(QQ, scheme_vars=fvars)
    table = _typed(spec.get("values"), name, "point_family.values")
    values = []
    for coord in scheme.variables:
        entry = table.get(coord)
        if entry is None:
            raise FixtureError(f"point family misses coordinate {coord!r}")
        if isinstance(entry, str):
            values.append((coord, parse_poly(entry, fctx), None))
        else:
            field = f"point_family.values.{coord}"
            entry = _typed(entry, name, field)
            if "num" not in entry:
                raise FixtureError(f"{name}: {field} needs 'num'")
            num = parse_poly(str(entry["num"]), fctx)
            den = parse_poly(str(entry["den"]), fctx) if "den" in entry else None
            values.append((coord, num, den))
    return PointFamily(fctx, tuple(values))


def load_fixture(path) -> Fixture:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FixtureError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict):
        raise FixtureError(f"{path}: a fixture must be a JSON object")
    name = _typed(data.get("name", path.stem), str(path), "name", str, "a string")
    dim = _typed(data.get("dim"), name, "dim", (int, type(None)), "an integer")
    base = _names(data.get("base", []), name, "base")
    scheme_vars = _names(data.get("vars", []), name, "vars")
    ctx = RingContext(QQ, scheme_vars=scheme_vars, base_gens=base)
    base_ctx = RingContext(QQ, base_gens=base)
    algebra = operator = None
    if "algebra" in data:
        algebra = make_algebra(data["algebra"], name, "algebra")
        operator = make_operator(algebra, base_ctx, data.get("operator"), name)
    entries = _typed(data.get("ideal", []), name, "ideal", list, "a list")
    if any(not isinstance(e, str) for e in entries):
        # slot-vector entries present: the scheme itself has coefficients
        # in the algebra and only the restriction command can use it
        if algebra is None:
            raise FixtureError(f"{name}: slot-vector ideal entries need an algebra")
        generators = []
        for entry in entries:
            if isinstance(entry, str):
                slots = [parse_poly(entry, ctx)]
                slots += [ctx.zero()] * (algebra.rank - 1)
            else:
                entry = _typed(entry, name, "ideal entry", list, "a string or a list")
                if len(entry) != algebra.rank:
                    raise FixtureError(
                        f"{name}: slot vectors need {algebra.rank} entries"
                    )
                slots = [parse_poly(str(s), ctx) for s in entry]
            generators.append(algebra.element(ctx, slots))
        scheme = AffineScheme(ctx, generators, algebra=algebra)
    else:
        scheme = AffineScheme(ctx, [parse_poly(e, ctx) for e in entries])
    second_algebra = second_operator = None
    if "second" in data:
        second = _typed(data["second"], name, "second")
        second_algebra = make_algebra(second.get("algebra"), name, "second.algebra")
        second_operator = make_operator(
            second_algebra, base_ctx, second.get("operator"), name, "second.operator"
        )
    alpha = _parse_alpha(data["alpha"], name) if "alpha" in data else None
    morphism = None
    if "morphism" in data:
        spec = _typed(data["morphism"], name, "morphism")
        mvars = _names(spec.get("vars"), name, "morphism.vars")
        mctx = RingContext(QQ, scheme_vars=mvars, base_gens=base)
        space = AffineScheme(mctx, [])
        images = _typed(spec.get("assignment"), name, "morphism.assignment")
        assignment = {k: parse_poly(str(v), mctx) for k, v in images.items()}
        morphism = PolyMorphism(space, scheme, assignment)
        if not morphism.is_morphism():
            raise FixtureError(f"{name}: morphism does not land on the scheme")
    family = _parse_family(data, name, scheme)
    points = [
        SchemePoint(
            scheme,
            {
                k: parse_poly(str(v), ctx)
                for k, v in _typed(entry, name, "points entry").items()
            },
        )
        for entry in _typed(data.get("points", []), name, "points", list, "a list")
    ]
    law = _typed(data.get("law"), name, "law", (str, type(None)), "a string")
    expect = data.get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise FixtureError(f"{name}: expect must be 'pass' or 'fail', got {expect!r}")
    return Fixture(
        name=name,
        scheme=scheme,
        algebra=algebra,
        operator=operator,
        second_algebra=second_algebra,
        second_operator=second_operator,
        alpha=alpha,
        morphism=morphism,
        family=family,
        points=points,
        law=law,
        expect=expect,
        dim=dim,
    )


def load_fixtures(path) -> list[Fixture]:
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise FixtureError(f"{path}: no fixture files")
        return [load_fixture(f) for f in files]
    return [load_fixture(path)]


def fixture_points(fixture: Fixture, rng, count: int) -> list[SchemePoint]:
    """Explicit points first, then family samples up to ``count``."""
    points = list(fixture.points[:count])
    if fixture.family is not None:
        while len(points) < count:
            points.append(fixture.family.sample(fixture.scheme, rng))
    return points
