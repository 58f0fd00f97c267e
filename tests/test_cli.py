"""End-to-end checks of the command line front end."""

import ast
import copy
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prolong
import prolong.cli
import prolong.interpolation as interpolation
import prolong.laws as laws
import prolong.prolongations as prolongations
from prolong.algebra import ALGEBRA_RANK_BUDGET
from prolong.cli import JET_COORDINATE_BUDGET, main
from prolong.fixtures import FixtureError, load_fixture, load_fixtures
from prolong.groebner import EngineLimitError
from prolong.scalars import Field

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args, "--format", "json")
    return code, json.loads(out)


def write_point(tmp_path, values, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return path


def test_every_console_script_names_an_importable_callable():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]
    for script, target in project["scripts"].items():
        module, _, attribute = target.partition(":")
        entry = importlib.import_module(module)
        for name in attribute.split("."):
            entry = getattr(entry, name)
        assert callable(entry), script


def test_prolong_prints_the_frozen_generators(capsys):
    code, out = run_cli(
        capsys, "prolong", "--input", FIXTURES / "diff_curve.json"
    )
    assert code == 0
    assert "{x_0^2 - t, 2*x_0*x_1 - 1}" in out


def test_weil_restricts_gaussian_coefficients(capsys):
    code, out = run_cli(capsys, "weil", "--input", FIXTURES / "gauss_norm.json")
    assert code == 0
    assert "{z_0^2 - z_1^2, 2*z_0*z_1 - 1}" in out
    assert "variables: z_0, z_1" in out


def test_jet_fiber_at_a_rational_point(capsys, tmp_path):
    point = write_point(tmp_path, {"x": "3/5", "y": "4/5"})
    code, payload = run_json(
        capsys, "jet", "--order", 2, "--input", FIXTURES / "conic.json", "--at", point
    )
    assert code == 0
    assert payload["fiber"]["cols"] == ["z_1_0", "z_0_1", "z_2_0", "z_1_1", "z_0_2"]
    assert payload["fiber"]["rows"] == [["6/5", "8/5", "1", "0", "1"]]
    assert payload["fiber_dimension"] == 4


def test_invalid_point_reports_the_residual_and_fails(capsys, tmp_path):
    point = write_point(tmp_path, {"x": "2/5", "y": "4/5"})
    code, payload = run_json(
        capsys, "jet", "--order", 2, "--input", FIXTURES / "conic.json", "--at", point
    )
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["residuals"] == [{"generator": 0, "residual": "-1/5"}]


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["jet", "--input", str(FIXTURES / "conic.json")]) == 2
    assert main(["frobnicate"]) == 2
    code, payload = run_json(capsys, "jet", "--order", 1, "--input", "no_such.json")
    assert code == 2
    assert payload["status"] == "error"
    # a directory is not a valid input for single-fixture commands
    assert main(["prolong", "--input", str(FIXTURES)]) == 2


def test_nabla_expands_a_parametrized_point(capsys, tmp_path):
    point = write_point(tmp_path, {"x": "t", "y": "t^2"})
    code, payload = run_json(
        capsys,
        "nabla",
        "--input",
        FIXTURES / "difference_curve.json",
        "--at",
        point,
    )
    assert code == 0
    assert payload["point"] == {
        "x_0": "t",
        "x_1": "t^2 - t",
        "y_0": "t^2",
        "y_1": "t^4 - t^2",
    }


def test_interpolate_emits_matrices_and_surjectivity(capsys, tmp_path):
    point = write_point(tmp_path, {"x": "3/5", "y": "4/5"})
    code, payload = run_json(
        capsys,
        "interpolate",
        "--order",
        1,
        "--input",
        FIXTURES / "conic.json",
        "--at",
        point,
    )
    assert code == 0
    phi = payload["matrices"]["interpolation"]
    assert phi["rows"] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    code, payload = run_json(
        capsys,
        "interpolate",
        "--order",
        2,
        "--input",
        FIXTURES / "conic.json",
        "--at",
        point,
        "--check-surjectivity",
        "--dim",
        1,
    )
    assert code == 0
    assert payload["surjectivity"]["status"] == "pass"
    assert payload["surjectivity"]["image_rank"] == payload["surjectivity"][
        "target_kernel"
    ]


def test_surjectivity_flag_needs_point_and_dimension(capsys):
    code, payload = run_json(
        capsys,
        "interpolate",
        "--order",
        1,
        "--input",
        FIXTURES / "conic.json",
        "--check-surjectivity",
    )
    assert code == 2
    assert "--dim" in payload["error"]


def test_compose_reports_the_tensor_operator(capsys):
    code, payload = run_json(
        capsys, "compose", "--input", FIXTURES / "compose_pair.json"
    )
    assert code == 0
    assert payload["algebra"]["rank"] == 4
    assert payload["images"]["t"] == ["t", "1", "1", "0"]
    assert payload["renaming"]["x_1"] == "x_0_1"


def test_prolong_compose_matches_fixture_second(capsys, tmp_path):
    second = tmp_path / "second.json"
    second.write_text(
        json.dumps(
            {
                "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
                "operator": {"images": {"t": ["t", "1"]}},
            }
        )
    )
    code, payload = run_json(
        capsys,
        "prolong",
        "--input",
        FIXTURES / "compose_pair.json",
        "--compose",
        second,
    )
    assert code == 0
    assert len(payload["vars"]) == 4
    assert len(payload["generators"]) == 4
    assert payload["renaming"]["x_3"] == "x_1_1"


@pytest.mark.parametrize(
    "command, order, fixture, nvars",
    [
        # the largest order within the budget: the conic's 2 variables, and
        # the sphere's 3 times the rank 3 of truncated(1,2)
        ("jet", 98, "conic", 2),
        ("interpolate", 6, "sphere", 9),
        ("interpolate", 10**30 - 1, "conic", 4),
    ],
)
def test_an_order_over_the_jet_budget_exits_two(capsys, command, order, fixture, nvars):
    if order < 100:
        assert comb(nvars + order, order) - 1 <= JET_COORDINATE_BUDGET
    code, out = run_cli(
        capsys, command, "--order", order + 1, "--input", FIXTURES / f"{fixture}.json"
    )
    assert code == 2
    assert out == (
        f"error: --order {order + 1} on {nvars} variables is over the budget of"
        f" {JET_COORDINATE_BUDGET} jet coordinates\n"
    )


def test_tensor_products_over_the_rank_budget_exit_two(capsys, tmp_path):
    """Two rank-10 algebras would make a rank-100 tensor table."""
    spec = {
        "algebra": {"builtin": "truncated", "vars": 1, "order": 9},
        "operator": {"images": {}},
    }
    fixture = tmp_path / "big.json"
    big = {"name": "big", "vars": ["x"], "ideal": ["x^2"], **spec, "second": spec}
    fixture.write_text(json.dumps(big))
    second = tmp_path / "second.json"
    second.write_text(json.dumps(spec))
    message = f"tensor rank 10 x 10 over the budget {ALGEBRA_RANK_BUDGET}"
    for command in (
        ["compose"],
        ["compose", "--compose", second],
        ["prolong", "--compose", second],
    ):
        start = time.perf_counter()
        code, payload = run_json(capsys, *command, "--input", fixture)
        assert time.perf_counter() - start < 1
        assert (code, payload["error"]) == (2, message)


def test_a_truncated_algebra_in_2000_variables_is_an_input_error(capsys, tmp_path):
    wide = {"builtin": "truncated", "vars": 2000, "order": 0}
    fixture = tmp_path / "wide.json"
    fixture.write_text(
        json.dumps({"name": "wide", "vars": ["x"], "ideal": ["x^2"], "algebra": wide})
    )
    code, payload = run_json(capsys, "prolong", "--input", fixture)
    assert code == 2
    budget = f"vars over the budget {ALGEBRA_RANK_BUDGET}"
    assert payload["error"] == f"wide: algebra: {budget}"


def test_compare_validates_and_rejects_bad_matrices(capsys, tmp_path):
    code, payload = run_json(
        capsys, "compare", "--input", FIXTURES / "compare_quotient.json"
    )
    assert code == 0
    assert payload["status"] == "pass"
    bad = tmp_path / "alpha.json"
    bad.write_text(json.dumps({"alpha": [["0", "0", "0"], ["0", "1", "0"]]}))
    code, payload = run_json(
        capsys,
        "compare",
        "--input",
        FIXTURES / "compare_quotient.json",
        "--alpha",
        bad,
    )
    assert code == 1
    assert "unit" in payload["witness"]


def test_check_all_suites_pass_on_the_shipped_fixtures(capsys):
    code, payload = run_json(
        capsys,
        "check",
        "--suite",
        "all",
        "--input",
        FIXTURES,
        "--seed",
        11,
        "--trials",
        3,
    )
    assert code == 0
    assert payload["status"] == "pass"
    assert [s["suite"] for s in payload["suites"]] == [
        "functor_laws",
        "nabla_naturality",
        "composition",
        "comparison",
        "hasse_axioms",
        "interpolation_diagrams",
        "surjectivity",
        "roundtrip",
    ]
    by_name = {s["suite"]: s for s in payload["suites"]}
    assert by_name["composition"]["passes"] > 0
    assert by_name["surjectivity"]["passes"] > 0
    assert by_name["interpolation_diagrams"]["fails"] == 0


def test_check_reports_are_byte_deterministic(capsys):
    args = (
        "check",
        "--suite",
        "hasse_axioms",
        "--input",
        FIXTURES,
        "--seed",
        5,
        "--trials",
        10,
        "--format",
        "json",
    )
    code, first = run_cli(capsys, *args)
    assert code == 0
    code, second = run_cli(capsys, *args)
    assert first == second


def test_corrupted_operator_fails_its_law_with_a_witness(capsys, tmp_path):
    data = json.loads((FIXTURES / "hasse_corrupt.json").read_text())
    data["expect"] = "pass"
    target = tmp_path / "hasse_corrupt.json"
    target.write_text(json.dumps(data))
    code, payload = run_json(
        capsys, "check", "--suite", "hasse_axioms", "--input", target
    )
    assert code == 1
    assert payload["status"] == "fail"
    suite = payload["suites"][0]
    assert suite["witness"]["fixture"] == "hasse_corrupt"
    assert suite["witness"]["witness"]["law"] == "identity"


GAUSS_TABLE = {"basis": ["1", "i"], "mult": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]}


@pytest.mark.parametrize(
    "algebra, expect, name",
    [
        ({"builtin": "product", "n": 1}, None, "product(1)"),
        ({"builtin": "truncated", "vars": 1, "order": 2}, None, "truncated(1,2)"),
        (dict(GAUSS_TABLE, name="gauss"), "pass", "gauss"),
    ],
)
def test_the_dring_law_skips_an_algebra_not_of_dring_form(
    capsys, tmp_path, algebra, expect, name
):
    # e_1*e_1 is not c*e_1: rank 1 has no e_1, and in truncated(1,2) and the
    # gaussian table it is e_2 and -e_0
    data = {"name": "odd", "base": ["t"], "vars": ["x"], "ideal": ["x - t"]}
    data.update(algebra=algebra, law="dring")
    if expect is not None:
        data["expect"] = expect
    target = tmp_path / "odd.json"
    target.write_text(json.dumps(data))
    code, payload = run_json(
        capsys, "check", "--suite", "hasse_axioms", "--input", target
    )
    assert code == 3
    [entry] = payload["suites"][0]["fixtures"]
    assert entry["status"] == "skip"
    assert entry["reason"] == (
        f"the dring law needs a rank-2 algebra with e_1*e_1 = c*e_1, not {name}"
    )


def _edited_fixture(tmp_path, name, **fields):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data.update(fields)
    target = tmp_path / f"{name}.json"
    target.write_text(json.dumps(data))
    return target


def _shift_slot_zero(monkeypatch):
    """Corrupt prolong_morphism: every slot-zero coordinate gains 1."""
    real = laws.prolong_morphism

    def shifted(*args, **kwargs):
        out = real(*args, **kwargs)
        for name, poly in out.assignment.items():
            if name.endswith("_0"):
                out.assignment[name] = poly + 1
        return out

    monkeypatch.setattr(laws, "prolong_morphism", shifted)


def _swap_composition(monkeypatch):
    """Corrupt prolong_composed: compose the operators in the wrong order."""
    real = prolongations.compose_operators
    monkeypatch.setattr(prolongations, "compose_operators", lambda e, f: real(f, e))


def _zero_fiber_images(monkeypatch):
    """Corrupt check_surjectivity: phi sends every kernel vector to zero."""
    monkeypatch.setattr(
        interpolation, "apply_matrix", lambda m, v: [m.field.zero] * m.nrows
    )


def _double_printed_scalars(monkeypatch):
    """Corrupt poly_to_str: every printed coefficient is doubled."""
    monkeypatch.setattr(Field, "format", lambda self, a: str(2 * a))


NON_COMMUTING_SECOND = {
    "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
    "operator": {"images": {"t": ["t", "t"]}},
}


@pytest.mark.parametrize(
    "suite, fixture, edits, corrupt, trials, witness",
    [
        (
            "functor_laws",
            "cubic_chart",
            {},
            _shift_slot_zero,
            2,
            {
                "law": "prolongation of the identity",
                "value": "u_0 + 1",
                "variable": "u_0",
            },
        ),
        (
            "nabla_naturality",
            "cubic_chart",
            {},
            _shift_slot_zero,
            2,
            {
                "law": "naturality",
                "point": {"u": "1/3"},
                "residual": "not a point: generator 0 leaves residual -2/3",
                "trial": 0,
            },
        ),
        (
            "composition",
            "compose_pair",
            {"second": NON_COMMUTING_SECOND},
            _swap_composition,
            2,
            {
                "law": "composed ideal equals the iterated ideal",
                "composed": [
                    "x_0^2 - t",
                    "2*x_0*x_1 - 1",
                    "2*x_0*x_2 - t",
                    "2*x_0*x_3 + 2*x_1*x_2 - 1",
                ],
                "iterated": [
                    "x_0_0^2 - t",
                    "2*x_0_0*x_0_1 - t",
                    "2*x_0_0*x_1_0 - 1",
                    "2*x_0_0*x_1_1 + 2*x_0_1*x_1_0",
                ],
            },
        ),
        (
            "comparison",
            "compare_quotient",
            {"alpha": [["0", "0", "0"], ["0", "1", "0"]]},
            None,
            2,
            {
                "law": "algebra map validation",
                "reason": "unit is not preserved: image of e_0 is"
                " [Fraction(0, 1), Fraction(0, 1)]",
            },
        ),
        (
            "interpolation_diagrams",
            "compose_pair",
            {},
            _shift_slot_zero,
            2,
            {
                "law": "composition triangle",
                "order": 1,
                "variable": "x_0",
                "difference": "-1",
            },
        ),
        (
            "surjectivity",
            "conic",
            {},
            _zero_fiber_images,
            1,
            {
                "law": "fiberwise surjectivity",
                "algebra": "truncated(1,1)",
                "order": 1,
                "point": {"x": "3/5", "y": "4/5"},
                "reason": "image spans 0 of 2 fiber directions",
            },
        ),
        (
            "roundtrip",
            "conic",
            {},
            _double_printed_scalars,
            1,
            {"law": "parse after print", "polynomial": "x^2 + y^2 - 2"},
        ),
    ],
)
def test_each_suite_reports_its_first_violation(
    capsys, monkeypatch, tmp_path, suite, fixture, edits, corrupt, trials, witness
):
    """A corrupted fixture or step fails the suite with the pinned witness."""
    target = _edited_fixture(tmp_path, fixture, **edits)
    if corrupt is not None:
        corrupt(monkeypatch)
    code, payload = run_json(
        capsys, "check", "--suite", suite, "--input", target, "--trials", trials
    )
    assert code == 1
    assert payload["status"] == "fail"
    report = payload["suites"][0]
    assert (report["fails"], report["passes"]) == (1, 0)
    assert report["fixtures"] == [
        {"fixture": fixture, "status": "fail", "witness": witness}
    ]
    assert report["witness"] == dict(witness, fixture=fixture)


SYMBOLIC_SUITES = [
    "functor_laws",
    "nabla_naturality",
    "composition",
    "comparison",
    "hasse_axioms",
    "interpolation_diagrams",
    "roundtrip",
]


@pytest.mark.parametrize("seed", [0, 1])
def test_symbolic_reports_match_the_recorded_digests(capsys, seed):
    """Reports at the default trials stay byte-identical to the ones the
    benchmark recorded in perfbench/expected.json."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    recorded = expected["symbolic_digests"][str(seed)]
    digests = {}
    for suite in SYMBOLIC_SUITES:
        args = ("check", "--suite", suite, "--input", FIXTURES, "--seed", seed)
        code, out = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        digests[suite] = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digests == recorded


# sha256 of `check --suite surjectivity --format json --trials 10` on the
# shipped fixtures, per seed: a faster kernel must leave these reports as
# they are
SURJECTIVITY_DIGESTS = {
    0: "0de2c319e88c9062627104f1345a949b9619c907ea99170b61603a9b5b7a5967",
    1: "c44532f06c57b64710baeb3bc3622464caecc080c85d7165a02eefed730b92a6",
    2: "6a93500b3df9768cf5aa62e8ea25c157a163f9997ac840fc235b40362cafb79b",
}


@pytest.mark.parametrize("seed", sorted(SURJECTIVITY_DIGESTS))
def test_surjectivity_reports_match_the_recorded_digests(capsys, seed):
    args = ("check", "--suite", "surjectivity", "--input", FIXTURES, "--seed", seed)
    code, out = run_cli(capsys, *args, "--trials", 10, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SURJECTIVITY_DIGESTS[seed]


# sha256 of `check --input fixtures --format text --trials 10` per seed: the
# text report, every suite in one run, stays byte-identical as well
TEXT_REPORT_DIGESTS = {
    0: "9e0aa947237f4dc26cc097872bcfee1e7727a8a8b2336271e03bd03315e067e8",
    1: "c6576dc1901e02675a89f717ae28acd2d96fb726464125294e46bce49fcb75b2",
    2: "b43278b23f7a043455edf54e63f8fce165834e784fde710a881bfcfc518de47b",
}


@pytest.mark.parametrize("seed", sorted(TEXT_REPORT_DIGESTS))
def test_text_reports_match_the_recorded_digests(capsys, seed):
    args = ("check", "--input", FIXTURES, "--seed", seed, "--trials", 10)
    code, out = run_cli(capsys, *args, "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_REPORT_DIGESTS[seed]


def test_expected_failures_keep_the_suite_green(capsys):
    code, payload = run_json(
        capsys, "check", "--suite", "hasse_axioms", "--input", FIXTURES
    )
    assert code == 0
    rows = {e["fixture"]: e for e in payload["suites"][0]["fixtures"]}
    assert rows["hasse_corrupt"]["status"] == "pass"
    assert rows["hasse_corrupt"]["witness"]["law"] == "identity"
    assert rows["dring_corrupt"]["witness"]["law"] == "twisted-leibniz"
    assert "witness" not in rows["hasse_ok"]


def test_singular_points_are_skipped_not_failed(capsys, tmp_path):
    node = tmp_path / "node.json"
    node.write_text(
        json.dumps(
            {
                "name": "node",
                "vars": ["x", "y"],
                "ideal": ["y^2 - x^2 - x^3"],
                "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
                "points": [{"x": "0", "y": "0"}],
                "dim": 1,
            }
        )
    )
    code, payload = run_json(
        capsys, "check", "--suite", "surjectivity", "--input", node, "--trials", 1
    )
    # nothing was checked, so neither the suite nor the run is a pass
    assert code == 3
    assert payload["status"] == payload["suites"][0]["status"] == "skip"
    entry = payload["suites"][0]["fixtures"][0]
    # no point is left to check, so the fixture is a skip, not an empty pass
    assert entry == {
        "fixture": "node",
        "status": "skip",
        "reason": "no point checked, 2 skipped",
    }


def _cusp_fixture(tmp_path):
    """V(z(x^2 - y^3), z^2 - z) with dim 2: the plane z = 0 and, at z = 1,
    a cusp.  At the cusp (0, 0, 1) the Jacobian rank is 1, the codimension,
    though the point is singular; two generators for codimension 1 leave
    that rank no proof of smoothness."""
    target = tmp_path / "cusp.json"
    cusp = {
        "name": "cusp",
        "vars": ["x", "y", "z"],
        "ideal": ["z*(x^2 - y^3)", "z^2 - z"],
        "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
        "second": {"algebra": {"builtin": "truncated", "vars": 1, "order": 2}},
        "points": [{"x": "0", "y": "0", "z": "1"}, {"x": "2", "y": "1", "z": "0"}],
        "dim": 2,
    }
    target.write_text(json.dumps(cusp))
    return target


def test_a_point_whose_smoothness_is_not_certified_is_skipped(capsys, tmp_path):
    cusp = _cusp_fixture(tmp_path)
    code, payload = run_json(
        capsys, "check", "--suite", "surjectivity", "--input", cusp, "--trials", 2
    )
    assert code == 3
    (report,) = payload["suites"]
    assert report["status"] == "skip"
    reason = "no point checked, 8 skipped"
    assert report["fixtures"] == [{"fixture": "cusp", "status": "skip", "reason": reason}]


def test_interpolate_prints_the_uncertified_smoothness_skip(capsys, tmp_path):
    cusp = _cusp_fixture(tmp_path)
    point = write_point(tmp_path, {"x": "0", "y": "0", "z": "1"})
    args = ("interpolate", "--order", 2, "--input", cusp, "--at", point)
    code, out = run_cli(capsys, *args, "--check-surjectivity", "--dim", 2)
    assert code == 0
    reason = "smoothness not certified: 2 generators for codimension 1"
    assert f"surjectivity: SKIP {reason}" in out.splitlines()


def test_a_dim_that_leaves_no_point_to_check_is_a_skip(capsys, tmp_path):
    # every point of the conic is a Jacobian-rank skip under dim 2
    target = _edited_fixture(tmp_path, "conic", dim=2)
    code, payload = run_json(
        capsys, "check", "--suite", "surjectivity", "--input", target, "--trials", 2
    )
    assert code == 3
    assert payload["status"] == "skip"
    report = payload["suites"][0]
    assert report["status"] == "skip"
    assert (report["passes"], report["skips"]) == (0, 1)
    reason = "no point checked, 8 skipped"
    assert report["fixtures"] == [
        {"fixture": "conic", "status": "skip", "reason": reason}
    ]


@pytest.mark.parametrize(
    "ideal, skipped, jet_order", [("t*x - y", 2, 1), ("t*x^2 - y", 1, 2)]
)
def test_a_fiber_over_base_parameter_coefficients_is_skipped(
    capsys, tmp_path, ideal, skipped, jet_order
):
    # the point is scalar, but the Jacobian (t*x - y) or the order-2 jet
    # fiber (t*x^2 - y) still depends on t
    fixture = tmp_path / "param.json"
    fixture.write_text(
        json.dumps(
            {
                "name": "param",
                "base": ["t"],
                "vars": ["x", "y"],
                "ideal": [ideal],
                "dim": 1,
                "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
                "operator": {"images": {"t": ["t", "1"]}},
                "points": [{"x": "0", "y": "0"}],
            }
        )
    )
    code, payload = run_json(capsys, "check", "--input", fixture, "--trials", 2)
    assert code == 0
    (surjectivity,) = [s for s in payload["suites"] if s["suite"] == "surjectivity"]
    entry = surjectivity["fixtures"][0]
    if skipped == 2:  # both orders skipped: no point is left to check
        reason = "no point checked, 2 skipped"
        assert (entry["status"], entry["reason"]) == ("skip", reason)
    else:
        assert (entry["status"], entry["skipped_points"]) == ("pass", skipped)
    point = write_point(tmp_path, {"x": "0", "y": "0"})
    at = ("--order", jet_order, "--input", fixture, "--at", point)
    for command in ("jet", "interpolate"):
        code, payload = run_json(capsys, command, *at)
        assert code == 2
        assert payload["status"] == "error"
        assert "specialize the base first" in payload["error"]
    done = run_cli_process("interpolate", *at, "--check-surjectivity", "--dim", 1)
    assert done.returncode == 2
    assert done.stdout.startswith("error: ") and "specialize the base" in done.stdout
    assert "Traceback" not in done.stderr

def test_resource_cap_maps_to_inconclusive(capsys, monkeypatch):
    import prolong.laws as laws

    def capped(*args, **kwargs):
        raise EngineLimitError(1)

    monkeypatch.setattr(laws, "ideal_equal", capped)
    code, payload = run_json(
        capsys,
        "check",
        "--suite",
        "composition",
        "--input",
        FIXTURES,
        "--trials",
        1,
    )
    assert code == 3
    assert payload["status"] == "inconclusive"


def test_fixture_loading_is_sorted_and_validated(tmp_path):
    fixtures = load_fixtures(FIXTURES)
    names = [fx.name for fx in fixtures]
    assert names == sorted(names)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(FixtureError):
        load_fixture(broken)
    liar = tmp_path / "liar.json"
    liar.write_text(
        json.dumps(
            {
                "vars": ["x", "y"],
                "ideal": ["y - x^2"],
                "morphism": {"vars": ["u"], "assignment": {"x": "u", "y": "u^3"}},
            }
        )
    )
    with pytest.raises(FixtureError, match="land"):
        load_fixture(liar)


def test_point_families_sample_deterministically():
    fx = load_fixture(FIXTURES / "conic.json")
    a = fx.family.sample(fx.scheme, random.Random(3))
    b = fx.family.sample(fx.scheme, random.Random(3))
    assert a.assignment == b.assignment


def test_operator_defaults_to_the_standard_inclusion():
    fx = load_fixture(FIXTURES / "conic.json")
    assert fx.operator is not None
    # no base generators, so nothing to list; the slot maps are (id, 0)
    assert fx.operator.images == {}
    second = load_fixture(FIXTURES / "difference_curve.json").second_operator
    slots = second.images["t"].slots
    assert [str(s) for s in [slots[0], slots[1]]] == ["t", "1"]


def run_cli_process(*args):
    """The CLI in a fresh interpreter, so an uncaught error shows on stderr."""
    env = dict(os.environ)
    src = str(Path(prolong.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prolong.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


# a fixture that loads an operator; malformed cases override one field
LAW_FIXTURE = {
    "base": ["t"],
    "vars": ["x"],
    "ideal": ["x^2 - t"],
    "algebra": {"builtin": "truncated", "vars": 1, "order": 1},
}
# a point over the Gaussian integers written as a plain value, not slots
GP_FIXTURE = {
    "name": "gp",
    "vars": ["z"],
    "ideal": [["z^2", "-1"]],
    "algebra": {"basis": ["1", "i"], "mult": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]},
    "points": [{"z": "0"}],
}
# 3^10000 has 4,772 digits, more than str() prints of an int by default
BIG_COEFFICIENT = {"name": "big", "vars": ["x"], "ideal": ["(3*x)^10000 - 1"]}


@pytest.mark.parametrize(
    "content, message",
    [
        (["x^2 - 1"], "must be a JSON object"),
        (
            {"vars": ["x"], "ideal": ["x^2 - 1"], "dim": "one"},
            "dim must be an integer",
        ),
        ({"vars": ["x"], "ideal": ["x^2 - 1"], "dim": True}, "dim must be an integer"),
        (
            {"name": "p", "vars": ["x"], "ideal": ["x^2 - 1"], "points": [5]},
            "p: points entry must be a JSON object",
        ),
        (
            {"name": "s", "vars": ["x"], "ideal": ["x^2 - 1"], "second": []},
            "s: second must be a JSON object",
        ),
        (
            {
                "name": "f",
                "vars": ["x"],
                "ideal": ["x^2 - 1"],
                "point_family": {"vars": ["u"], "values": {"x": 3}},
            },
            "f: point_family.values.x must be a JSON object",
        ),
        (
            {"name": "v", "vars": "xy", "ideal": ["x^2 + y^2 - 1"]},
            "v: vars must be a list of names",
        ),
        (
            {"name": "b", "base": "t", "vars": ["x"], "ideal": ["x^2 - t"]},
            "b: base must be a list of names",
        ),
        (
            {"name": "m", "vars": ["x"], "ideal": ["x^2 - 1"], "morphism": {}},
            "m: morphism.vars must be a list of names",
        ),
        ({"name": "i", "vars": ["x"], "ideal": 5}, "i: ideal must be a list"),
        (
            {"name": "q", "vars": ["x"], "ideal": ["x^2 - 1"], "points": 5},
            "q: points must be a list",
        ),
        (
            {
                "name": "a",
                "vars": ["x"],
                "ideal": ["x^2 - 1"],
                "second": {"algebra": {"builtin": "truncated", "vars": 1, "order": 1}},
                "alpha": 5,
            },
            "a: alpha must be a list of rows",
        ),
        (
            dict(LAW_FIXTURE, name="o", operator={"images": 5}),
            "o: operator.images must be a JSON object",
        ),
        (
            dict(LAW_FIXTURE, name="e", law="hasse", expect=3),
            "e: expect must be 'pass' or 'fail', got 3",
        ),
        (dict(LAW_FIXTURE, name="l", law=3), "l: law must be a string, got 3"),
        (
            {"name": 7, "vars": ["x"], "ideal": ["x^2 - 1"]},
            "bad.json: name must be a string, got 7",
        ),
        (
            dict(LAW_FIXTURE, name="c", algebra={"basis": ["1"], "mult": 5}),
            "c: algebra.mult must be a list of rows, got 5",
        ),
        (
            dict(LAW_FIXTURE, name="c", algebra={"basis": ["1"], "mult": [5]}),
            "c: algebra.mult row must be a list of cells, got 5",
        ),
        (
            dict(LAW_FIXTURE, name="c", algebra={"basis": ["1"], "mult": [[5]]}),
            "c: algebra.mult cell must be a list, got 5",
        ),
        (
            dict(LAW_FIXTURE, name="c", algebra={"basis": ["1"], "mult": [[[1.5]]]}),
            "c: algebra.mult entry must be an integer or a string, got 1.5",
        ),
        (
            dict(LAW_FIXTURE, name="c", algebra={"basis": 5, "mult": [[[1]]]}),
            "c: algebra.basis must be a list of labels, got 5",
        ),
        (
            dict(LAW_FIXTURE, name="t", algebra={"builtin": "truncated", "vars": 1}),
            "t: algebra.order must be an integer, got None",
        ),
        (
            {
                "name": "t",
                "vars": ["x"],
                "ideal": ["x^2 - 1"],
                "second": {"algebra": {"builtin": "truncated", "vars": 1}},
            },
            "t: second.algebra.order must be an integer, got None",
        ),
        (
            dict(LAW_FIXTURE, name="d", algebra={"builtin": "dring", "c": 0.5}),
            "d: algebra.c must be an integer or a string, got 0.5",
        ),
        (
            dict(LAW_FIXTURE, name="g", operator={"images": {"t": [5, 6]}}),
            "g: operator.images.t entry must be a polynomial string, got 5",
        ),
        (
            {"name": "i", "vars": ["x"], "ideal": [5]},
            "i: ideal entry must be a string or a list, got 5",
        ),
        (
            {"name": "p", "vars": ["x"], "ideal": ["x^2 - 1"], "points": [{"x": 1.5}]},
            "p: points entry.x must be a polynomial string, got 1.5",
        ),
        (
            {"name": "i", "vars": ["x"], "ideal": ["x^^2"]},
            "i: ideal: expected an unsigned integer (at offset 2)",
        ),
        (
            {"name": "p", "vars": ["x"], "ideal": ["x^2 - 1"], "points": [{"x": "1+"}]},
            "p: points: expected a number, variable, or '(' (at offset 2)",
        ),
        (
            {"name": "a", "vars": ["x"], "ideal": ["x^2 - 1"], "alpha": [["a"]]},
            "a: alpha: Invalid literal for Fraction: 'a'",
        ),
        (
            dict(LAW_FIXTURE, name="b", algebra={"builtin": "nope"}),
            "b: algebra: unknown builtin algebra 'nope'",
        ),
        (
            {
                "name": "m",
                "vars": ["x", "y"],
                "ideal": ["y - x^2"],
                "morphism": {"vars": ["u"], "assignment": {"x": "u"}},
            },
            "m: morphism: assignment must cover exactly the target variables",
        ),
        (
            dict(LAW_FIXTURE, name="o", operator={"images": {"s": ["t", "1"]}}),
            "o: operator.images: images for unknown generators ['s']",
        ),
        (
            GP_FIXTURE,
            "gp: points: a coordinate over the algebra must be an algebra element"
            " or a list of 2 slots, got 0",
        ),
        (
            {"name": "d", "vars": ["x", "y"], "ideal": ["x^2 + y^2 - 1"], "dim": 5},
            "d: dim must lie between 0 and the number of variables, 2, got 5",
        ),
        (
            {"name": "d", "vars": ["x", "y"], "ideal": ["x^2 + y^2 - 1"], "dim": -1},
            "d: dim must lie between 0 and the number of variables, 2, got -1",
        ),
        (
            {"vars": ["x"], "ideal": ["(x+1)^20000 - 1"]},
            "bad: ideal: power 20000 of a polynomial with more than one term is"
            " above the limit 16 (at offset 5)",
        ),
        (
            BIG_COEFFICIENT,
            "big: ideal: a coefficient would have more than 4300 digits, the limit"
            " for printing an integer (at offset 5)",
        ),
        (
            {"vars": ["x"], "ideal": ["(3*x)^20000000"]},
            "bad: ideal: a coefficient would have more than 4300 digits, the limit"
            " for printing an integer (at offset 5)",
        ),
        (
            {"vars": ["x"], "ideal": ["x^\u00b2"]},
            "bad: ideal: expected an unsigned integer (at offset 2)",
        ),
        (
            {"vars": ["x"], "ideal": ["\u00b2"]},
            "bad: ideal: expected a number, variable, or '(' (at offset 0)",
        ),
        (
            {"vars": ["x"], "ideal": ["x - " + "7" * 5000]},
            "bad: ideal: a number with more than 4300 digits, the limit for"
            " reading an integer (at offset 4)",
        ),
    ],
    ids=[
        "top-level-list",
        "dim-string",
        "dim-bool",
        "points-entry-number",
        "second-list",
        "family-value-number",
        "vars-string",
        "base-string",
        "morphism-empty",
        "ideal-number",
        "points-number",
        "alpha-number",
        "operator-images-number",
        "expect-number",
        "law-number",
        "name-number",
        "algebra-mult-number",
        "algebra-mult-row-number",
        "algebra-mult-cell-number",
        "algebra-mult-entry-float",
        "algebra-basis-number",
        "algebra-order-missing",
        "second-algebra-order-missing",
        "algebra-c-float",
        "operator-images-numbers",
        "ideal-entry-number",
        "point-float",
        "ideal-bad-polynomial",
        "point-bad-polynomial",
        "alpha-bad-literal",
        "unknown-builtin",
        "morphism-misses-a-variable",
        "images-unknown-generator",
        "algebra-point-not-slots",
        "dim-above-the-variables",
        "dim-negative",
        "power-of-a-sum-above-the-limit",
        "coefficient-above-the-digit-limit",
        "one-term-power-above-the-digit-limit",
        "superscript-exponent",
        "superscript-digit",
        "literal-above-the-digit-limit",
    ],
)
def test_malformed_fixture_exits_two_without_traceback(tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    with pytest.raises(FixtureError, match=re.escape(message)):
        load_fixture(bad)
    done = run_cli_process("check", "--input", bad, "--suite", "surjectivity")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert message in done.stdout


@pytest.mark.parametrize(
    "dim, message",
    [
        ("5", "--dim must be at most the number of variables, 2, got 5"),
        ("-1", "argument --dim: must be at least 0, got -1"),
    ],
)
def test_dim_outside_the_variables_exits_two_without_traceback(
    tmp_path, dim, message
):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"x": "3/5", "y": "4/5"}))
    done = run_cli_process(
        "interpolate",
        "--input",
        FIXTURES / "conic.json",
        "--order",
        "1",
        "--at",
        point,
        "--check-surjectivity",
        "--dim",
        dim,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert message in done.stdout + done.stderr


def test_an_algebra_point_that_is_not_slots_exits_two(tmp_path):
    gp = tmp_path / "gp.json"
    gp.write_text(json.dumps(GP_FIXTURE))
    for args in (("weil",), ("check", "--suite", "roundtrip")):
        done = run_cli_process(*args, "--input", gp)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith("error: gp: points:")


def test_exponent_above_the_limit_exits_two_without_traceback(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vars": ["x"], "ideal": ["x^2147483648"]}))
    done = run_cli_process("check", "--input", big, "--suite", "surjectivity")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "limit 2147483647 (2**31 - 1)" in done.stdout


# flag files for the sweep: the good ones, then one of each malformed kind
FLAG_FILES = {
    "point.json": json.dumps({"x": "3/5", "y": "4/5"}),
    "parametrized_point.json": json.dumps({"x": "t", "y": "t^2"}),
    "second.json": json.dumps(NON_COMMUTING_SECOND),
    "alpha.json": json.dumps({"alpha": [["1", "0", "0"], ["0", "1", "0"]]}),
    "list.json": "[1, 2]",
    "empty.json": "{}",
    "wrong_coordinate.json": json.dumps({"x": "0", "q": "1"}),
    "missing_coordinate.json": json.dumps({"x": "1"}),
    "float.json": json.dumps({"x": 1.5, "y": "0"}),
    "latin1.json": b'{"x": "\xe9"}',
}


def test_every_command_exits_with_a_code_on_every_input(capsys, tmp_path):
    """Every command on every shipped fixture, and on ones whose power of a
    sum or coefficient is over the parser's limits, with good and malformed
    flag files, ends in an exit code from 0 to 3 and lets no exception
    escape."""
    over = []
    for name, content in (
        ("power_of_a_sum", {"vars": ["x"], "ideal": ["(x+1)^20000 - 1"]}),
        ("big_coefficient", BIG_COEFFICIENT),
        ("one_term_power", {"vars": ["x"], "ideal": ["(3*x)^20000000"]}),
    ):
        over.append(tmp_path / f"{name}.json")
        over[-1].write_text(json.dumps(content))
    flags = []
    for name, content in FLAG_FILES.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        flags.append(str(path))
    escaped, codes = [], []
    for fixture in [*sorted(FIXTURES.glob("*.json")), *over]:
        runs = [
            ["weil"],
            ["prolong"],
            ["jet", "--order", "1"],
            ["compose"],
            ["compare"],
            ["interpolate", "--order", "1"],
            # over the jet-coordinate budget on every fixture
            ["jet", "--order", str(JET_COORDINATE_BUDGET + 1)],
            ["interpolate", "--order", str(JET_COORDINATE_BUDGET + 1)],
        ]
        for flag in flags:
            runs += [
                ["prolong", "--compose", flag],
                ["jet", "--order", "1", "--at", flag],
                ["nabla", "--at", flag],
                ["compose", "--compose", flag],
                ["compare", "--alpha", flag],
                ["interpolate", "--order", "1", "--at", flag],
                ["interpolate", "--order", "1", "--at", flag]
                + ["--check-surjectivity", "--dim", "1"],
            ]
        for run in runs:
            argv = [*run, "--input", str(fixture), "--format", "json"]
            try:
                codes.append(main(argv))
            except Exception as err:  # the sweep reports every escape at once
                escaped.append((fixture.name, run, repr(err)))
    capsys.readouterr()
    assert escaped == []
    assert set(codes) <= {0, 1, 2, 3}
    assert {0, 1, 2} <= set(codes)


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}


def _paths(value, path=()):
    """The path of every value nested in ``value``, ``value`` itself first."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _paths(item, (*path, key))


JSON_LEAVES = st.one_of(
    # small integers: a large builtin order or factor count is a resource
    # question for the algebra, not a loader one
    st.integers(-3, 3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text("xyuts0123^*+-/() ", max_size=6),
)
JSON_VALUES = st.one_of(
    JSON_LEAVES,
    st.lists(JSON_LEAVES, max_size=3),
    st.dictionaries(st.sampled_from(["x", "y", "t", "num"]), JSON_LEAVES, max_size=3),
)


@st.composite
def mutated_fixtures(draw):
    """A shipped fixture with one nested value replaced or one key dropped."""
    stem = draw(st.sampled_from(sorted(SHIPPED)))
    data = copy.deepcopy(SHIPPED[stem])
    path = draw(st.sampled_from(list(_paths(data))))
    if not path:
        return stem, draw(JSON_VALUES)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return stem, data


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_load_or_fail_naming_the_fixture(tmp_path_factory, case):
    stem, data = case
    path = tmp_path_factory.getbasetemp() / f"{stem}.json"
    path.write_text(json.dumps(data))
    name = data.get("name", stem) if isinstance(data, dict) else str(path)
    name = stem if name is None else name
    try:
        load_fixture(path)
    except FixtureError as err:
        assert str(err).startswith(name if isinstance(name, str) else str(path))


def test_flag_files_of_the_wrong_shape_exit_two_naming_the_field(capsys, tmp_path):
    """The --at, --compose and --alpha files are checked like fixtures."""
    pair = ("--input", FIXTURES / "compose_pair.json")
    quotient = ("--input", FIXTURES / "compare_quotient.json")
    conic = ("jet", "--order", 1, "--input", FIXTURES / "conic.json", "--at")
    cases = [
        (("prolong", *pair, "--compose"), "[1, 2]", "operator file must be a JSON"),
        (("compose", *pair, "--compose"), "{}", "algebra must be a JSON object"),
        (("compare", *quotient, "--alpha"), "[1, 2]", "alpha file must be a JSON"),
        (("compare", *quotient, "--alpha"), '{"alpha": [1]}', "alpha row must be a"),
        (("compare", *quotient, "--alpha"), "{}", "alpha must be a list of rows"),
        (("nabla", *pair, "--at"), "[1, 2]", "point must be a JSON object"),
        (conic, '{"x": 1.5, "y": "0"}', "point.x must be a polynomial string"),
        (conic, '{"x": "1"}', "point: missing coordinate 'y'"),
        (conic, '{"x": "1", "q": "0"}', "point: missing coordinate 'y'"),
    ]
    for args, content, message in cases:
        flag = tmp_path / "flag.json"
        flag.write_text(content)
        code, payload = run_json(capsys, *args, flag)
        assert code == 2
        assert payload["error"].startswith(f"{flag}: {message}")
    flag.write_bytes(b'{"x": "\xe9"}')
    code, payload = run_json(capsys, *conic, flag)
    assert code == 2
    assert payload["error"].startswith(f"{flag}: not valid JSON")


@pytest.mark.parametrize(
    "args",
    [
        ("jet", "--order", 1),
        ("interpolate", "--order", 1),
        ("interpolate", "--order", 1, "--check-surjectivity", "--dim", 1),
    ],
    ids=["jet", "interpolate", "surjectivity"],
)
def test_fiber_commands_need_a_constant_point(capsys, tmp_path, args):
    """A point file may hold polynomials in the base parameters (it is still
    a point of the scheme), but a linear fiber needs constants."""
    flag = tmp_path / "point.json"
    flag.write_text(json.dumps({"x": "t", "y": "t^2"}))
    fixture = FIXTURES / "difference_curve.json"
    code, payload = run_json(capsys, *args, "--input", fixture, "--at", flag)
    assert code == 2
    assert payload["error"] == f"{flag}: point.x must be a constant for a fiber, got t"
    assert run_json(capsys, "nabla", "--input", fixture, "--at", flag)[0] == 0


def test_a_bad_alpha_fails_both_of_its_suites_and_keeps_every_report(capsys, tmp_path):
    """An alpha that is no algebra map fails comparison and the quotient
    square of the diagrams suite with the same witness; no suite is lost."""
    target = _edited_fixture(
        tmp_path, "compare_quotient", alpha=[["0", "0", "0"], ["0", "1", "0"]]
    )
    code, payload = run_json(
        capsys, "check", "--suite", "all", "--input", target, "--trials", 2
    )
    assert code == 1
    assert [s["suite"] for s in payload["suites"]] == list(prolong.cli.SUITE_NAMES)
    failed = {s["suite"]: s["witness"] for s in payload["suites"] if s["fails"]}
    witness = {
        "law": "algebra map validation",
        "reason": "unit is not preserved: image of e_0 is"
        " [Fraction(0, 1), Fraction(0, 1)]",
        "fixture": "compare_quotient",
    }
    assert failed == {"comparison": witness, "interpolation_diagrams": witness}


@pytest.mark.parametrize(
    "args",
    [
        ("jet", "--order", 0, "--input", FIXTURES / "conic.json"),
        ("interpolate", "--order", -1, "--input", FIXTURES / "conic.json"),
        ("check", "--trials", -1, "--input", FIXTURES / "conic.json"),
        ("check", "--trials", 0, "--input", FIXTURES / "conic.json"),
    ],
    ids=["order-zero", "order-negative", "trials-negative", "trials-zero"],
)
def test_out_of_range_counts_are_usage_errors(capsys, args):
    assert main([str(a) for a in args]) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ("prolong",),
        ("jet", "--order", 1),
        ("interpolate", "--order", 1),
        ("nabla", "--at", FIXTURES / "gauss_norm.json"),
    ],
    ids=["prolong", "jet", "interpolate", "nabla"],
)
def test_plain_scheme_commands_reject_algebra_coefficients(capsys, args):
    code, payload = run_json(capsys, *args, "--input", FIXTURES / "gauss_norm.json")
    assert code == 2
    assert payload["error"] == (
        "fixture 'gauss_norm' has algebra coefficients;"
        " this command needs a plain scheme"
    )


def test_the_command_line_has_no_broad_except():
    """cli.py catches only the errors it reports: a bare except, or one
    naming Exception, ValueError or KeyError, would turn an internal bug
    into a usage error."""
    tree = ast.parse(Path(prolong.cli.__file__).read_text(encoding="utf-8"))
    broad = {"Exception", "BaseException", "ValueError", "KeyError"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(c, "id", getattr(c, "attr", None)) for c in caught}
            assert node.type is not None and not names & broad, node.lineno
