"""Outside-in tracer: time calls into the program's public functions without
changing the program.

``Tracer.install`` replaces every binding of each listed function with a
timing wrapper: the defining module's attribute, every other module that
copied it with ``from .x import f``, class attributes that alias it (such
as ``MultiPoly.__radd__ = __add__``) and module-level dicts that hold it
(such as ``cli.SUITES``).  ``uninstall`` puts the originals back.

Modules are looked up in ``sys.modules`` by dotted name, never by attribute
access on the package: ``prolong.groebner`` as an attribute is the
re-exported *function*, not the submodule.

Each span records calls, total time (outermost activations only, so
recursion is not counted twice) and self time (duration minus the time its
child spans cover).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# module -> functions timed in it; a dotted name is a class attribute
SPANS = {
    "prolong.polynomials": (
        "MultiPoly.__mul__",
        "MultiPoly.__add__",
        "substitute",
        "transport",
        "hasse_derivative",
        "parse_poly",
        "poly_to_str",
    ),
    "prolong.groebner": (
        "apply_matrix",
        "rank",
        "kernel_basis",
        "groebner",
        "normal_form",
        "ideal_member",
        "ideal_equal",
    ),
    "prolong.jets": ("jet_scheme", "jet_fiber", "jet_morphism"),
    "prolong.interpolation": (
        "check_surjectivity",
        "interpolation_map",
        "fiber_matrices_at",
        "jacobian_rank",
    ),
    "prolong.prolongations": (
        "nabla",
        "prolong",
        "prolong_morphism",
        "prolong_composed",
        "compare_map",
    ),
    "prolong.weil": (
        "SchemePoint.__init__",
        "PolyMorphism.equals_mod_ideal",
        "PolyMorphism.compose",
    ),
    "prolong.operators": ("check_hasse_axioms", "check_dring_law"),
    "prolong.fixtures": ("load_fixtures", "fixture_points"),
    "prolong.cli": (
        "main",
        "suite_functor_laws",
        "suite_nabla_naturality",
        "suite_composition",
        "suite_comparison",
        "suite_hasse_axioms",
        "suite_interpolation_diagrams",
        "suite_roundtrip",
    ),
}

SPAN_NAMES = tuple(
    f"{module.rsplit('.', 1)[1]}.{name}"
    for module, names in SPANS.items()
    for name in names
)

# entry points timed so that every workload's time falls in some span;
# only their calls and self time are reported
COVERAGE_ONLY = frozenset(
    {
        "groebner.ideal_equal",
        "jets.jet_morphism",
        "interpolation.check_surjectivity",
        "interpolation.interpolation_map",
        "prolongations.prolong_composed",
        "prolongations.compare_map",
        "weil.PolyMorphism.compose",
        "cli.main",
    }
)


class Span:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


def _resolve(module_name: str, dotted: str):
    """The function a listed name stands for."""
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attr)


def _bindings(func):
    """Every (container, key) in the program's namespaces bound to ``func``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "prolong" or name.startswith("prolong.")):
            continue
        for key, value in vars(module).items():
            if value is func:
                found.append((module, key))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in value.items() if v is func)
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(
                    (value, k) for k, v in vars(value).items() if v is func
                )
    return found


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Spans for every name in :data:`SPANS`, plus useful-work counters."""

    def __init__(self):
        self.spans = {name: Span() for name in SPAN_NAMES}
        self.counters = {
            "apply_matrix.nonzero": 0,
            "apply_matrix.entries": 0,
            "groebner.input_gens": 0,
            "groebner.max_nvars": 0,
            "groebner.basis_size": 0,
        }
        self._last_matrix = None
        self._last_nonzero = 0
        self._stack = []  # child-time accumulators of the open spans
        self._patched = []  # (container, key, original)

    def install(self) -> None:
        for module_name, names in SPANS.items():
            short = module_name.rsplit(".", 1)[1]
            for dotted in names:
                func = _resolve(module_name, dotted)
                wrapper = self._wrap(f"{short}.{dotted}", func)
                for container, key in _bindings(func):
                    self._patched.append((container, key, func))
                    _set(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, func in reversed(self._patched):
            _set(container, key, func)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, func):
        span = self.spans[name]
        stack = self._stack
        after = {
            "groebner.apply_matrix": self._count_matrix,
            "groebner.groebner": self._count_groebner,
        }.get(name)

        def traced(*args, **kwargs):
            if name == "groebner.groebner":
                args = (list(args[0]),) + args[1:]  # counted after the call
            span.calls += 1
            span.active += 1
            stack.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                span.self_time += elapsed - stack.pop()
                span.active -= 1
                if not span.active:
                    span.total += elapsed
                if after is not None:
                    mark = perf_counter()
                    after(args, result)
                    # bookkeeping: hidden from the parent's self time too
                    elapsed += perf_counter() - mark
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = func
        return traced

    def _count_matrix(self, args, _result):
        matrix = args[0]
        if matrix is not self._last_matrix:
            # callers apply one matrix to many vectors in a row
            zero = matrix.field.zero
            self._last_matrix = matrix
            self._last_nonzero = sum(v != zero for row in matrix.rows for v in row)
        self.counters["apply_matrix.entries"] += matrix.nrows * matrix.ncols
        self.counters["apply_matrix.nonzero"] += self._last_nonzero

    def _count_groebner(self, args, result):
        gens = [g for g in args[0] if not g.is_zero()]
        self.counters["groebner.input_gens"] += len(gens)
        if gens:
            nvars = gens[0].ctx.nvars
            self.counters["groebner.max_nvars"] = max(
                self.counters["groebner.max_nvars"], nvars
            )
        if result is not None:
            self.counters["groebner.basis_size"] += len(result.gens)

    def covered_self_time(self) -> float:
        return sum(span.self_time for span in self.spans.values())
