"""The JSON input format: fixtures (a scheme plus the algebras, operators,
points, morphisms and point families the commands and suites need) and the
``--at``, ``--compose`` and ``--alpha`` files.  The ``Shape`` table declares
every field; raw JSON is checked against it before anything is built, and
each piece is built under ``_building``, so every input error is a
``FixtureError`` naming the file and the dotted field.  Unknown fields are
ignored and a null value counts as absent.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .algebra import BUILTINS, make_builtin
from .operators import RingOperator
from .polynomials import RingContext, parse_poly, substitute
from .scalars import QQ
from .weil import AffineScheme, PointError, PolyMorphism, SchemePoint


class FixtureError(ValueError):
    pass


class Shape(NamedTuple):
    """A JSON value of one of ``kinds`` (never a bool), called ``what`` in
    messages.  ``items`` is the shape of a list's elements, each called
    ``<list field> <its label>``, or of a map's values.  An object has keyed
    ``fields``, of which those named in ``required`` must be present."""

    kinds: type | tuple
    what: str
    items: Shape | None = None
    label: str = "entry"
    fields: dict | None = None
    required: tuple = ()


OBJECT = "a JSON object"
STRING = Shape(str, "a string")
INTEGER = Shape(int, "an integer")
SCALAR = Shape((int, str), "an integer or a string")
POLY = Shape(str, "a polynomial string")
NAMES = Shape(list, "a list of names", STRING)
ROW = Shape(list, "a list", SCALAR, "row")
CELLS = Shape(list, "a list of cells", Shape(list, "a list", SCALAR, "cell"), "row")
ALGEBRA = Shape(
    dict,
    OBJECT,
    fields={
        "builtin": STRING,
        "name": STRING,
        "vars": INTEGER,
        "order": INTEGER,
        "n": INTEGER,
        "c": SCALAR,
        "basis": Shape(list, "a list of labels", STRING),
        "mult": Shape(list, "a list of rows", CELLS),
    },
)
OPERATOR = Shape(
    dict, OBJECT, fields={"images": Shape(dict, OBJECT, Shape(list, "a list", POLY))}
)
# a fixture's ``second`` field and a --compose file
OPERATOR_FILE = Shape(
    dict,
    OBJECT,
    label="operator file",
    fields={"algebra": ALGEBRA, "operator": OPERATOR},
    required=("algebra",),
)
ALPHA = Shape(list, "a list of rows", ROW)
# a --alpha file: any object with an ``alpha`` field, a fixture included
ALPHA_FILE = Shape(
    dict, OBJECT, label="alpha file", fields={"alpha": ALPHA}, required=("alpha",)
)
POINT = Shape(dict, OBJECT, POLY)
FAMILY_VALUE = Shape(
    (dict, str),
    "a JSON object or a string",
    fields={"num": POLY, "den": POLY},
    required=("num",),
)
# every fixture field but ``expect``, which is 'pass' or 'fail'
FIXTURE = Shape(
    dict,
    OBJECT,
    label="fixture",
    fields={
        "name": STRING,
        "dim": INTEGER,
        "base": NAMES,
        "vars": NAMES,
        "ideal": Shape(list, "a list", Shape((str, list), "a string or a list", POLY)),
        "algebra": ALGEBRA,
        "operator": OPERATOR,
        "second": OPERATOR_FILE,
        "alpha": ALPHA,
        "morphism": Shape(
            dict,
            OBJECT,
            fields={"vars": NAMES, "assignment": Shape(dict, OBJECT, POLY)},
            required=("vars", "assignment"),
        ),
        "point_family": Shape(
            dict,
            OBJECT,
            fields={"vars": NAMES, "values": Shape(dict, OBJECT, FAMILY_VALUE)},
            required=("vars", "values"),
        ),
        "points": Shape(list, "a list", POINT),
        "law": STRING,
    },
)


def _check(value, shape: Shape, where: str, field: str = "", root: str = ""):
    """Raise a FixtureError unless ``value`` has ``shape``.  ``field`` is the
    value's dotted name ("" for a whole file) and ``root`` names the list
    field it is an element of."""
    name = field or shape.label
    if not isinstance(value, shape.kinds) or isinstance(value, bool):
        raise FixtureError(f"{where}: {name} must be {shape.what}, got {value!r}")
    prefix = f"{field}." if field else ""
    if isinstance(value, list):
        root = root or name
        for item in value:
            _check(item, shape.items, where, f"{root} {shape.items.label}", root)
    elif isinstance(value, dict) and shape.fields is None:
        for key, item in value.items():
            _check(item, shape.items, where, prefix + key)
    elif isinstance(value, dict):
        for key, sub in shape.fields.items():
            if value.get(key) is not None or key in shape.required:
                _check(value.get(key), sub, where, prefix + key)


@contextmanager
def _building(where: str, field: str, verdicts=()):
    """Re-raise an error in building ``field`` as a FixtureError naming it;
    exceptions of the ``verdicts`` types pass through unchanged."""
    try:
        yield
    except verdicts:
        raise
    except (ValueError, ArithmeticError) as err:
        raise FixtureError(f"{where}: {field}: {err}") from err


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise FixtureError(f"{path}: not valid JSON ({err})") from err


def _read(path, shape: Shape, field: str = ""):
    data = _read_json(Path(path))
    _check(data, shape, str(path), field)
    return data


def _operator(spec: dict, base_ctx: RingContext, where: str, prefix: str = ""):
    """The operator of an object with ``algebra`` and ``operator`` fields:
    per-generator slot vectors of polynomial strings, and generators left
    unlisted map through the unit slot."""
    fields = {k: v for k, v in spec["algebra"].items() if v is not None}
    kind = fields.get("builtin")
    # a spec without ``builtin`` is a custom table
    needs = ("basis", "mult") if kind is None else BUILTINS.get(kind, (None, {}))[1]
    for key in needs:
        _check(fields.get(key), ALGEBRA.fields[key], where, f"{prefix}algebra.{key}")
    with _building(where, f"{prefix}algebra"):
        algebra = make_builtin(fields)
    with _building(where, f"{prefix}operator.images"):
        images = {}
        for g, slots in ((spec.get("operator") or {}).get("images") or {}).items():
            if len(slots) != algebra.rank:
                raise ValueError(f"image of {g!r} needs {algebra.rank} slot strings")
            polys = [parse_poly(s, base_ctx) for s in slots]
            images[g] = algebra.element(base_ctx, polys)
        for g in base_ctx.base_gens:
            images.setdefault(g, algebra.scalar(base_ctx, base_ctx.var(g)))
        return RingOperator(algebra, base_ctx, images)


def _alpha(rows: list, where: str) -> list:
    with _building(where, "alpha"):
        return [[Fraction(x) for x in row] for row in rows]


def _point(scheme: AffineScheme, point: dict) -> SchemePoint:
    return SchemePoint(scheme, {x: parse_poly(v, scheme.ctx) for x, v in point.items()})


def read_point(path, scheme: AffineScheme) -> SchemePoint:
    """The ``--at`` file: coordinates mapped to polynomial strings in the
    base parameters.  A point off the scheme raises ``PointError``."""
    data = _read(path, POINT, "point")
    with _building(str(path), "point", PointError):
        return _point(scheme, data)


def read_operator(path, base_ctx: RingContext) -> RingOperator:
    """The ``--compose`` file: an ``algebra`` and its ``operator``."""
    return _operator(_read(path, OPERATOR_FILE), base_ctx, str(path))


def read_alpha(path) -> list:
    """The ``--alpha`` file: a matrix of rows in an ``alpha`` field."""
    return _alpha(_read(path, ALPHA_FILE)["alpha"], str(path))


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
    operator: RingOperator | None
    second_operator: RingOperator | None
    alpha: list | None
    morphism: PolyMorphism | None
    family: PointFamily | None
    points: list
    law: str | None
    expect: str
    dim: int | None


def _scheme(entries: list, ctx: RingContext, operator) -> AffineScheme:
    if all(isinstance(e, str) for e in entries):
        return AffineScheme(ctx, [parse_poly(e, ctx) for e in entries])
    # slot-vector entries present: the scheme itself has coefficients in the
    # algebra (a string is slot 0) and only the restriction command can use it
    if operator is None:
        raise ValueError("slot-vector entries need an algebra")
    algebra, generators = operator.algebra, []
    pad = ["0"] * (algebra.rank - 1)
    for entry in entries:
        slots = [entry, *pad] if isinstance(entry, str) else entry
        if len(slots) != algebra.rank:
            raise ValueError(f"slot vectors need {algebra.rank} entries")
        generators.append(algebra.element(ctx, [parse_poly(s, ctx) for s in slots]))
    return AffineScheme(ctx, generators, algebra=algebra)


def _family(spec: dict, scheme: AffineScheme) -> PointFamily:
    fctx = RingContext(QQ, scheme_vars=spec["vars"])
    values = []
    for coord in scheme.variables:
        entry = spec["values"].get(coord)
        if entry is None:
            raise ValueError(f"misses coordinate {coord!r}")
        if isinstance(entry, str):
            entry = {"num": entry}
        den = None if entry.get("den") is None else parse_poly(entry["den"], fctx)
        values.append((coord, parse_poly(entry["num"], fctx), den))
    return PointFamily(fctx, tuple(values))


def load_fixture(path) -> Fixture:
    path = Path(path)
    data = _read_json(path)
    name = data.get("name") if isinstance(data, dict) else str(path)
    name = path.stem if name is None else name
    _check(data, FIXTURE, name if isinstance(name, str) else str(path))
    expect = data.get("expect")
    if expect not in (None, "pass", "fail"):
        raise FixtureError(f"{name}: expect must be 'pass' or 'fail', got {expect!r}")
    base = data.get("base") or []
    with _building(name, "base"):
        base_ctx = RingContext(QQ, base_gens=base)
    with _building(name, "vars"):
        ctx = RingContext(QQ, scheme_vars=data.get("vars") or [], base_gens=base)
    operator = second = alpha = morphism = family = None
    if data.get("algebra") is not None:
        operator = _operator(data, base_ctx, name)
    with _building(name, "ideal"):
        scheme = _scheme(data.get("ideal") or [], ctx, operator)
    dim, nvars = data.get("dim"), len(scheme.variables)
    if dim is not None and not 0 <= dim <= nvars:
        raise FixtureError(
            f"{name}: dim must lie between 0 and the number of variables,"
            f" {nvars}, got {dim}"
        )
    if data.get("second") is not None:
        second = _operator(data["second"], base_ctx, name, "second.")
    if data.get("alpha") is not None:
        alpha = _alpha(data["alpha"], name)
    if data.get("morphism") is not None:
        with _building(name, "morphism"):
            spec = data["morphism"]
            mctx = RingContext(QQ, scheme_vars=spec["vars"], base_gens=base)
            images = {k: parse_poly(v, mctx) for k, v in spec["assignment"].items()}
            morphism = PolyMorphism(AffineScheme(mctx, []), scheme, images)
            if not morphism.is_morphism():
                raise ValueError("does not land on the scheme")
    if data.get("point_family") is not None:
        with _building(name, "point_family"):
            family = _family(data["point_family"], scheme)
    with _building(name, "points"):
        points = [_point(scheme, entry) for entry in data.get("points") or []]
    return Fixture(
        name=name,
        scheme=scheme,
        operator=operator,
        second_operator=second,
        alpha=alpha,
        morphism=morphism,
        family=family,
        points=points,
        law=data.get("law"),
        expect=expect or "pass",
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
