"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload surjectivity_fibers --seed 0 \
        --seconds 25 --trace 0

Runs the workload in its own single-threaded worker process (one caller,
closed loop), checks every verdict and prints one JSON line last:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer spans and counters of a traced run.  Workloads, metrics and the
layer each metric belongs to are described in ``perfbench/baseline.json``.

Set-up time is the median over the worker and eight set-up-only processes,
half started before the worker and half after it, each timed from launch
until it has imported the program and loaded ``fixtures/``.

Every time reported is taken to a reference host speed: while a worker
runs, ``pace.py`` interleaves a fixed reference loop with the program's
work, and each time is scaled by how fast that loop ran around it, with
the loop's own time left out.  This removes most of a shared host's drift.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("surjectivity_fibers", "diagram_groebner", "symbolic_laws")
SETUP_PROBES = 8  # set-up-only processes, besides the worker's own set-up
DEADLINE_S = 170.0


def _launch(args: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and the
    seconds from launch to ready, less the pacer's, scaled to the reference
    host speed."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline().split()
    elapsed = perf_counter() - start
    if len(line) != 3 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up (printed {line!r})")
    paced, scale = float(line[1]), float(line[2])
    return proc, scale * (elapsed - paced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    for needed in (root / "src" / "prolong" / "__init__.py", root / "fixtures"):
        if not needed.exists():
            print(f"missing {needed.relative_to(root)}: run from a checkout root",
                  file=sys.stderr)
            return 2

    setups = []
    probes = 0 if args.trace else SETUP_PROBES // 2

    def probe_setups():
        for _ in range(probes):
            probe, elapsed = _launch(["--setup-only"])
            probe.wait()
            setups.append(elapsed)

    probe_setups()
    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    worker, elapsed = _launch(worker_args)
    setups.append(elapsed)
    try:
        out, _ = worker.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"worker still running after {DEADLINE_S}s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    probe_setups()  # half after the worker, so set-up sees the run's whole span
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    passes, samples = result.pop("passes"), result.pop("samples")
    percentiles_ms = result.pop("percentiles_ms")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}:"
        f" {passes} measured passes, {samples} timed checks in all,"
        f" fail_ratio {result['failed'] / result['attempted']:.4f},"
        f" {len(setups)} set-ups"
    )
    for name, value in percentiles_ms.items():
        print(f"  check_{name}_ms = {value:.6g} ms (not in BENCHMARK.json: unbounded)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
