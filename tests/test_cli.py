"""Batch front-end: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qgroupoid.algebra_core import FiniteAlgebra, algebra_to_json
from qgroupoid.cli import _parse_mu, _parser, main
from qgroupoid.examples import groupoid_to_json, pair_groupoid
from qgroupoid.exact_linear import LinearMap
from qgroupoid.report import Rejected


@pytest.fixture(scope="module")
def p2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "p2.json"
    path.write_text(json.dumps(groupoid_to_json(pair_groupoid([1, 2]))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_function_algebroid(p2_file, capsys):
    code, out = run(capsys, "verify", "--example", "function-algebroid",
                    "--groupoid", p2_file)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    summary = lines[-1]["summary"]
    assert summary["status"] == "pass"
    axiom_lines = [l for l in lines if "axiom" in l]
    assert len(axiom_lines) >= 60
    assert all(l["status"] == "pass" for l in axiom_lines)
    assert all("eq" in l for l in axiom_lines)


def test_measure_noninvariant_weight_fails_with_hint(p2_file, capsys):
    code, out = run(capsys, "measure", "--example", "convolution",
                    "--groupoid", p2_file, "--mu", "1,4")
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0]["eq"] == "base-weight-counital"
    assert lines[-1]["summary"]["hint"] == "apply groupoid_rn modifier"


def test_modify_then_measure_pipeline(p2_file, capsys, tmp_path):
    code, out = run(capsys, "modify", "--example", "convolution",
                    "--groupoid", p2_file, "--mu", "1,4",
                    "--recipe", "groupoid_rn")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    artifact = lines[-1]["summary"]["artifact"]
    artifact_path = tmp_path / "artifact.json"
    artifact_path.write_text(json.dumps(artifact))
    code, out = run(capsys, "measure", "--artifact", str(artifact_path))
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["status"] == "pass"
    assert summary["delta_trivial"] is True
    assert summary["sigma_is_derivative_multiplier"] is True


@pytest.mark.parametrize("example, mu", [("functions", "1,4"), ("convolution", "3,3")])
def test_modify_with_the_default_identity_recipe(example, mu, capsys, tmp_path):
    selectors = ["--example", example, "--pair-groupoid", "1,2", "--mu", mu]
    artifact = str(tmp_path / "artifact.json")
    code, out = run(capsys, "modify", *selectors, "--artifact-out", artifact)
    assert code == 0
    notes = {e["axiom"]: e["status"] for e in map(json.loads, out.strip().splitlines())
             if e.get("axiom") in ("trivial-on-base", "self-adjoint")}
    assert notes == {"trivial-on-base": "pass", "self-adjoint": "pass"}
    # the identity modifier leaves the measured structure as it was
    code, modified = run(capsys, "measure", "--artifact", artifact)
    assert code == 0
    assert modified == run(capsys, "measure", *selectors)[1]


def test_determinism(p2_file, capsys):
    _, out1 = run(capsys, "verify", "--example", "convolution",
                  "--groupoid", p2_file)
    _, out2 = run(capsys, "verify", "--example", "convolution",
                  "--groupoid", p2_file)
    assert out1 == out2


def test_build_algebra_json(tmp_path, capsys):
    a = FiniteAlgebra.pointwise(["u", "v"], involution=LinearMap.identity(2))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_to_json(a)))
    code, out = run(capsys, "build", "--algebra", str(path))
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["dim"] == 2


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code = main(["build", "--algebra", str(path)])
    capsys.readouterr()
    assert code == 2
    assert main(["build", "--algebra", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_integrals_command(p2_file, capsys):
    code, out = run(capsys, "integrals", "--example", "function-algebroid",
                    "--groupoid", p2_file)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["left_space_dim"] == 2
    assert summary["right_space_dim"] == 2


def test_dual_command(p2_file, capsys):
    code, out = run(capsys, "dual", "--example", "function-algebroid",
                    "--groupoid", p2_file, "--mu", "1,4")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["dual_algebra"]["dim"] == 4


def test_dual_rejection_exits_1_with_a_fail_line(p2_file, capsys, monkeypatch):
    def rejecting(X):
        raise Rejected("regular-2", "T_lambda is not invertible")

    monkeypatch.setattr("qgroupoid.cli.dual_algebra", rejecting)
    code = main(["dual", "--example", "function-algebroid",
                 "--groupoid", p2_file, "--mu", "1,4"])
    captured = capsys.readouterr()
    assert code == 1
    summary = json.loads(captured.out.strip().splitlines()[-1])["summary"]
    assert summary["status"] == "fail"
    assert summary["rejected"] == "regular-2"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["modify", "measure", "dual"])
def test_a_weight_zero_at_a_unit_is_rejected_as_quasi_invariant(command, capsys):
    """groupoid_rn_modifier rejects a weight that is not strictly positive on
    the units before any bundle is modified; each command that applies the
    recipe reports that as one failing entry and exits 1."""
    code = main([command, "--example", "convolution", "--pair-groupoid", "1,2",
                 "--mu", "0,4", "--recipe", "groupoid_rn"])
    captured = capsys.readouterr()
    assert code == 1
    summary = json.loads(captured.out.strip().splitlines()[-1])["summary"]
    assert summary == {"checks": 1, "failures": 1, "rejected": "quasi-invariant",
                       "status": "fail"}
    assert "Traceback" not in captured.err


def test_measure_rejected_recipe_exits_1_with_one_entry(capsys):
    """On the function algebroid the groupoid_rn modifier is no automorphism,
    so ``modify`` inside the pipeline rejects it, as ``dual`` reports too."""
    code = main(["measure", "--pair-groupoid", "1,2", "--mu", "1,4",
                 "--recipe", "groupoid_rn"])
    captured = capsys.readouterr()
    assert code == 1
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert len(lines) == 2 and lines[0]["eq"] == "left-modifier"
    assert lines[0]["status"] == "fail"
    summary = lines[-1]["summary"]
    assert summary["checks"] == 1 and summary["rejected"] == "left-modifier"
    assert "Traceback" not in captured.err


def test_report_command(p2_file, capsys, tmp_path):
    code, out = run(capsys, "verify", "--example", "convolution",
                    "--groupoid", p2_file)
    path = tmp_path / "report.jsonl"
    path.write_text(out)
    code, out = run(capsys, "report", str(path))
    assert code == 0
    assert "0 failures" in out


def test_pair_groupoid_flag(capsys):
    code, out = run(capsys, "verify", "--example", "function-algebroid",
                    "--pair-groupoid", "1,2")
    assert code == 0


# functions on two points, in algebra_to_json's form
_TWO_POINTS = {"dim": 2, "structure": [[[[0, 1]], []], [[], [[1, 1]]]]}
_P2_GROUPOID = groupoid_to_json(pair_groupoid([1, 2]))
# a pipeline artifact on the pair groupoid of two points, as modify writes it
_P2_ARTIFACT = {"kind": "measured-pipeline", "example": "convolution",
                "groupoid": _P2_GROUPOID, "mu": ["1", "2"],
                "recipe": "groupoid_rn", "sqrt": [2]}


@pytest.mark.parametrize("argv, files", [
    (["measure", "--pair-groupoid", "1,2", "--mu", "1,x"], {}),
    (["measure", "--pair-groupoid", "1,2", "--mu", "1/0,1"], {}),
    (["verify", "--groupoid", "{noarrows}"], {"noarrows": {"units": [1]}}),
    (["measure", "--artifact", "{artifact}"],
     {"artifact": {"example": "convolution", "mu": ["1"]}}),
    (["verify", "--pair-groupoid", ","], {}),
    (["build", "--algebra", "{alg}"], {"alg": dict(_TWO_POINTS, dim=3)}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, structure=[[[[2, 1]], []], [[], [[1, 1]]]])}),
    (["build", "--algebra", "{alg}"], {"alg": dict(_TWO_POINTS, structure=[[[[0, 1]], []], [[]]])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, involution=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, labels=["a"], involution=[[1, 0], [0, 2]])}),
    (["report", "{line}"], {"line": [1]}),
    (["report", "{line}"], {"line": 3}),
    (["modify", "--pair-groupoid", "1,2", "--mu", "1,2", "--recipe", "groupoid_rn",
      "--sqrt", "4"], {}),
    (["measure", "--pair-groupoid", "1,2", "--mu", "1,2", "--recipe", "groupoid_rn",
      "--sqrt", "0"], {}),
    (["dual", "--pair-groupoid", "1,2", "--mu", "1,2", "--recipe", "groupoid_rn",
      "--sqrt", "-3"], {}),
    (["measure", "--artifact", "{artifact}"], {"artifact": dict(_P2_ARTIFACT, sqrt=[4])}),
    (["measure", "--artifact", "{artifact}"], {"artifact": dict(_P2_ARTIFACT, sqrt=["x"])}),
    (["verify", "--pair-groupoid", "1,1"], {}),
    (["measure", "--pair-groupoid", "1,2,1", "--mu", "1,4,9"], {}),
    (["verify", "--groupoid", "{twice}"], {"twice": dict(
        _P2_GROUPOID, arrows=_P2_GROUPOID["arrows"] + _P2_GROUPOID["arrows"][1:2])}),
    (["verify", "--groupoid", "{g}"], {"g": dict(_P2_GROUPOID, s=[])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, structure=[[[[0, None]], []], [[], [[1, 1]]]])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, structure=[[[[0, [1]]], []], [[], [[1, 1]]]])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, structure=[[[[0, {"sqrt_part": {"-2": {"re": "1"}}}]], []],
                                          [[], [[1, 1]]]])}),
    (["build", "--algebra", "{alg}"],
     {"alg": dict(_TWO_POINTS, structure=[[[[0, {"sqrt_part": {"0": {"re": "1"}}}]], []],
                                          [[], [[1, 1]]]])}),
    (["measure", "--artifact", "{artifact}"], {"artifact": dict(_P2_ARTIFACT, mu="12")}),
    (["measure", "--artifact", "{artifact}"], {"artifact": dict(_P2_ARTIFACT, sqrt="2")}),
], ids=["mu-literal", "mu-zero-denominator", "groupoid-without-arrows",
        "artifact-without-groupoid", "pair-groupoid-without-points", "build-dim-not-table-size",
        "build-product-index-past-dim", "build-ragged-rows", "build-involution-wrong-size",
        "build-labels-short", "report-list-line", "report-number-line",
        "modify-sqrt-not-square-free", "measure-sqrt-zero", "dual-sqrt-negative",
        "artifact-sqrt-not-square-free", "artifact-sqrt-not-a-number",
        "pair-groupoid-point-twice", "pair-groupoid-point-twice-with-weights",
        "groupoid-arrow-twice", "groupoid-sources-a-list", "build-coefficient-null",
        "build-coefficient-a-list", "build-radicand-negative", "build-radicand-zero",
        "artifact-mu-a-string", "artifact-sqrt-a-string"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, files):
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_weight_file_forms_read_the_same_exact_weights(tmp_path):
    # a JSON number is read through its decimal text, so 0.1 is 1/10 in
    # both the list and the unit-keyed form
    units = pair_groupoid([1, 2]).units
    forms = ([0.1, "1/4"], {repr(units[0]): 0.1, repr(units[1]): "1/4"})
    read = []
    for k, data in enumerate(forms):
        path = tmp_path / ("mu%d.json" % k)
        path.write_text(json.dumps(data))
        read.append(_parse_mu(str(path), units))
    assert read == [{0: Fraction(1, 10), 1: Fraction(1, 4)}] * 2


def test_artifact_weights_are_read_as_values(capsys, tmp_path):
    # an artifact's weights are JSON values, not the text of a --mu flag:
    # numbers read as the strings modify writes, and a comma stays inside
    # its weight, which is then malformed
    path = tmp_path / "artifact.json"
    code, _ = run(capsys, "modify", "--example", "convolution", "--pair-groupoid", "1,2",
                  "--mu", "1,4", "--recipe", "groupoid_rn", "--artifact-out", str(path))
    artifact = json.loads(path.read_text())
    assert code == 0 and artifact["mu"] == ["1", "4"]
    written = run(capsys, "measure", "--artifact", str(path))
    path.write_text(json.dumps(dict(artifact, mu=[1, 4])))
    assert run(capsys, "measure", "--artifact", str(path)) == written
    assert written[0] == 0
    path.write_text(json.dumps(dict(artifact, mu=["1", "4,5"])))
    assert main(["measure", "--artifact", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'4,5'" in err and "got 3" not in err


def test_verify_and_integrals_offer_no_sqrt(capsys):
    # neither command builds a field extension, so --sqrt is a usage error
    for command in ("verify", "integrals"):
        assert main([command, "--pair-groupoid", "1,2", "--sqrt", "2"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --sqrt 2" in captured.err


def test_missing_sqrt_hint(p2_file, capsys):
    # every command that meets a missing root names it the same way
    for command in ("measure", "modify", "dual"):
        code, out = run(capsys, command, "--example", "convolution",
                        "--groupoid", p2_file, "--mu", "1,2",
                        "--recipe", "groupoid_rn")
        assert code == 1
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["rejected"] == "quasi-invariant"
        assert summary["hint"] == "re-run with --sqrt 2", command
        code, out = run(capsys, command, "--example", "convolution",
                        "--groupoid", p2_file, "--mu", "1,2",
                        "--recipe", "groupoid_rn", "--sqrt", "2")
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert "hint" not in summary and summary.get("rejected") != "quasi-invariant", command
        assert code == 0, command


def test_reports_with_scalar_witnesses_serialize():
    import json as _json

    from qgroupoid.exact_linear import sc
    from qgroupoid.report import Report

    rep = Report()
    rep.check(False, "demo", "demo-eq", {"lhs": [(0, sc("3/4"))], "rhs": []})
    lines = rep.to_json_lines()
    assert _json.loads(lines[0])["status"] == "fail"


def test_artifact_out_pipe_form(p2_file, capsys, tmp_path, monkeypatch):
    # modify emits the artifact alone; measure reads it from stdin
    import io

    code, out = run(capsys, "modify", "--example", "convolution",
                    "--groupoid", p2_file, "--mu", "1,4",
                    "--recipe", "groupoid_rn", "--artifact-out", "-")
    assert code == 0
    artifact = json.loads(out)
    assert artifact["kind"] == "measured-pipeline"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(artifact)))
    code, out = run(capsys, "measure", "--artifact", "-")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["delta_trivial"] is True


def test_the_cached_parser_carries_no_state_between_calls(capsys):
    # the parser is built once per process, on the first call, and kept
    assert _parser() is _parser()

    def artifact(*extra):
        code, out = run(capsys, "modify", "--example", "convolution", "--pair-groupoid", "1,2",
                        "--mu", "1,4", *extra)
        assert code == 0
        return json.loads(out.strip().splitlines()[-1])["summary"]["artifact"]

    first = artifact("--recipe", "groupoid_rn", "--sqrt", "2", "--sqrt", "3")
    assert (first["recipe"], first["sqrt"]) == ("groupoid_rn", [2, 3])
    # the next call starts from the defaults: no appended root, the identity recipe
    second = artifact()
    assert (second["recipe"], second["sqrt"]) == ("identity", [])
    third = artifact("--recipe", "groupoid_rn", "--sqrt", "5")
    assert third["sqrt"] == [5]


def test_the_parser_is_not_built_at_import():
    code = ("import qgroupoid.cli as c; assert c._parser.cache_info().currsize == 0;"
            " c._parser(); assert c._parser.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
