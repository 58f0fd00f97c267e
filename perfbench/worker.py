"""One workload in one single-threaded process.

Started by ``run.py`` from the root of a checkout.  Imports the program from
the checkout's ``src``, loads ``fixtures/``, prints ``ready`` (the end of
set-up) with the seconds the pacer's reference units took so far and the
speed factor they measured, runs passes of the workload and prints one JSON
line.  With ``--setup-only`` it stops after ``ready``.

Untraced runs give the end-to-end numbers, less the pacer's time and scaled
to the reference host speed that ``pace.py`` measures while they run.
Traced runs stop the pacer and alternate an untraced and a traced pass, so
the tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from pace import PACER

STARTED = perf_counter()
PACER.start()  # set-up is paced and scaled too
# stop before interpreter shutdown puts back SIGALRM's default, which kills
atexit.register(PACER.stop)

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import prolong  # noqa: E402

if not Path(prolong.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    sys.exit(f"prolong imported from {prolong.__file__}, not from this checkout")

from spans import COVERAGE_ONLY, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIXTURE_DIR = ROOT / "fixtures"

# spans that must record calls on the workload mapped to them
REQUIRED_SPANS = {
    "surjectivity_fibers": (
        "groebner.apply_matrix",
        "groebner.rank",
        "groebner.kernel_basis",
        "jets.jet_scheme",
        "jets.jet_fiber",
        "interpolation.fiber_matrices_at",
        "interpolation.jacobian_rank",
        "prolongations.nabla",
        "weil.SchemePoint.__init__",
        "fixtures.fixture_points",
    ),
    "diagram_groebner": (
        "groebner.groebner",
        "groebner.normal_form",
        "groebner.ideal_member",
        "weil.PolyMorphism.equals_mod_ideal",
    ),
    "symbolic_laws": (
        "polynomials.MultiPoly.__mul__",
        "polynomials.MultiPoly.__add__",
        "polynomials.substitute",
        "polynomials.transport",
        "polynomials.hasse_derivative",
        "polynomials.parse_poly",
        "polynomials.poly_to_str",
        "prolongations.prolong",
        "prolongations.prolong_morphism",
        "operators.check_hasse_axioms",
        "operators.check_dring_law",
        "cli.suite_functor_laws",
        "cli.suite_nabla_naturality",
        "cli.suite_composition",
        "cli.suite_comparison",
        "cli.suite_hasse_axioms",
        "cli.suite_interpolation_diagrams",
        "cli.suite_roundtrip",
        "fixtures.load_fixtures",
    ),
}
MIN_SELF_COVERAGE = 0.9


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Passes of one workload and the checks they made."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.errors = []  # wrong verdicts
        self.problems = []  # a broken measurement: makes the run incorrect
        self.attempted = 0
        self.passes = 0
        # check latency percentiles: printed, but too jumpy to bound (see
        # baseline.json)
        self.percentiles_ms = {}

    def one_pass(self) -> float:
        """Run a pass; return its time, without the pacer's, scaled to the
        reference host speed (unscaled when the pacer is off).  The checks
        come scaled already."""
        gc.collect()
        start = perf_counter()
        checks = self.workload.run_pass()
        elapsed = PACER.scaled(start, perf_counter(), window=0.0)
        self.attempted += len(checks)
        for seconds, error in checks:
            if seconds is not None:
                self.latencies.append(seconds)
            if error is not None:
                self.errors.append(error)
        return elapsed


def untraced(run: Run, seconds: float) -> dict:
    passes, walls = [], []
    started = perf_counter()
    while not passes or perf_counter() - started + max(walls) <= seconds:
        wall = perf_counter()
        passes.append(run.one_pass())
        walls.append(perf_counter() - wall)
    run.passes = len(passes)
    run.percentiles_ms = {
        f"p{q}": 1e3 * percentile(run.latencies, q / 100) for q in (50, 90)
    }
    return {
        "verdict_s": (statistics.median(passes), "s"),
        "check_geomean_ms": (1e3 * statistics.geometric_mean(run.latencies), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def traced(run: Run, name: str, seconds: float) -> dict:
    PACER.stop()  # per-layer spans and trace.* stay plain wall time
    tracer = Tracer()
    plain, timed = [], []
    started = perf_counter()
    while not plain or perf_counter() - started + max(plain) + max(timed) <= seconds:
        # alternate which side goes first, so the first pass's warm-up does
        # not always land on the untraced side
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                with tracer:
                    timed.append(run.one_pass())
            else:
                plain.append(run.one_pass())
    n = run.passes = len(timed)
    spans = tracer.spans
    for span in REQUIRED_SPANS[name]:
        if not spans[span].calls:
            run.problems.append(f"span {span} recorded no calls on {name}")
    coverage = tracer.covered_self_time() / sum(timed)
    if coverage < MIN_SELF_COVERAGE:
        run.problems.append(f"spans cover {coverage:.3f} of the traced verdict time")
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (spans[span].calls / n, "count")
        if span not in COVERAGE_ONLY:
            metrics[f"{span}.total_s"] = (spans[span].total / n, "s")
        metrics[f"{span}.self_s"] = (spans[span].self_time / n, "s")
    counters = tracer.counters
    entries = counters["apply_matrix.entries"]
    points = spans["interpolation.check_surjectivity"].calls
    metrics.update(
        {
            "groebner.apply_matrix.nonzero_share": (
                counters["apply_matrix.nonzero"] / entries if entries else 0.0,
                "share",
            ),
            "jets.jet_scheme.per_point": (
                spans["jets.jet_scheme"].calls / points if points else 0.0,
                "count",
            ),
            "groebner.groebner.input_gens": (
                counters["groebner.input_gens"] / n,
                "count",
            ),
            "groebner.groebner.max_nvars": (counters["groebner.max_nvars"], "count"),
            "groebner.groebner.basis_size": (
                counters["groebner.basis_size"] / n,
                "count",
            ),
            "trace.verdict_s": (statistics.median(timed), "s"),
            "trace.overhead_s": (
                statistics.median(timed) - statistics.median(plain),
                "s",
            ),
            "trace.self_coverage": (coverage, "share"),
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    fixtures = sorted(prolong.load_fixtures(FIXTURE_DIR), key=lambda fx: fx.name)
    ready = perf_counter()
    paced, scale = PACER.paced(STARTED, ready), PACER.scale(STARTED, ready)
    print(f"ready {paced!r} {scale!r}", flush=True)
    if args.setup_only:
        return 0

    run = Run(WORKLOADS[args.workload](fixtures, args.seed, FIXTURE_DIR))
    if args.trace:
        metrics = traced(run, args.workload, args.seconds)
    else:
        metrics = untraced(run, args.seconds)
    for error in run.errors[:20]:
        print(f"wrong verdict: {error}", file=sys.stderr)
    for problem in run.problems:
        print(f"measurement problem: {problem}", file=sys.stderr)
    result = {
        "correct": not run.errors and not run.problems,
        "attempted": run.attempted,
        "passes": run.passes,
        "samples": len(run.latencies),
        "percentiles_ms": run.percentiles_ms,
        "failed": len(run.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
