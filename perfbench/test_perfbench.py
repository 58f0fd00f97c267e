"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q

The workload runs take about two minutes in all.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pace import REFERENCE_UNIT_S, Pacer  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_tracer_patches_every_binding_and_restores_it():
    prolong = importlib.import_module("prolong")
    groebner_mod = importlib.import_module("prolong.groebner")
    interpolation = importlib.import_module("prolong.interpolation")
    cli = importlib.import_module("prolong.cli")
    polynomials = importlib.import_module("prolong.polynomials")
    rank = groebner_mod.rank
    suite = cli.SUITES["roundtrip"]
    add = polynomials.MultiPoly.__dict__["__add__"]
    with Tracer():
        assert groebner_mod.rank.__wrapped__ is rank
        # a copy made by `from .groebner import rank`
        assert interpolation.rank is groebner_mod.rank
        assert prolong.groebner is groebner_mod.groebner  # package re-export
        assert cli.SUITES["roundtrip"].__wrapped__ is suite
        assert polynomials.MultiPoly.__dict__["__radd__"].__wrapped__ is add
    assert interpolation.rank is rank and groebner_mod.rank is rank
    assert cli.SUITES["roundtrip"] is suite
    assert polynomials.MultiPoly.__dict__["__radd__"] is add


def test_pacer_leaves_out_its_own_time_and_scales_by_its_speed():
    pacer = Pacer()
    pacer.ticks = [(1.0, 10, 0.01), (2.0, 30, 0.02)]  # (end, units, seconds)
    assert pacer.paced(0.0, 3.0) == pytest.approx(0.03)
    assert pacer.paced(0.995, 1.985) == pytest.approx(0.005 + 0.005)
    assert pacer.scale(1.5, 3.0) == pytest.approx(REFERENCE_UNIT_S * 30 / 0.02)
    assert pacer.scale(2.5, 3.0) == 1.0  # no unit ran: plain wall time
    window = 0.5  # reaches back to the first tick
    assert pacer.scaled(1.5, 3.0, window) == pytest.approx(
        REFERENCE_UNIT_S * 40 / 0.03 * (1.5 - 0.02)
    )


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _run(ROOT, w, trace=1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_mapped_span_records_calls(traced_runs, workload):
    """The traced run marks itself incorrect when a span mapped to the
    workload saw no calls or the spans' self times miss over 10% of the
    traced verdict time."""
    done = traced_runs[workload]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names


def test_untraced_run_prints_every_end_to_end_metric():
    done = _run(ROOT, "symbolic_laws", trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
