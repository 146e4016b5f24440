import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from agroups import cli, report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_census_report(capsys):
    code, rep = run_json(
        capsys, "census", "--p", "3", "--q", "2", "--r", "5", "--alpha", "1", "--beta", "1", "--gamma", "0"
    )
    assert code == 0
    assert rep["results"]["count"] == 2
    assert rep["bounds"][0]["verdict"] == "LE"
    assert rep["claims"][0]["status"] == "verified"
    assert rep["timing"] is None
    assert report.validate_report(rep) == []


def test_census_byte_identical(capsys):
    argv = ["census", "--p", "2", "--q", "3", "--r", "5", "--alpha", "2", "--beta", "1", "--gamma", "0"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# stdout SHA-256 digests recorded before the integer field and matrix kernel
# replaced FieldElem matrices; any change in a report changes its digest
GOLDEN_STDOUT = [
    pytest.param(
        ["classify-gl", "--alpha", "2", "--s", "3", "--r", "2"],
        "66009ad625b994de3ee462d4afcc998c7c1c2e8c54588e84500b67b445b4bd70",
        id="gl-2.3-r2",
    ),
    pytest.param(
        ["classify-gl", "--alpha", "3", "--s", "2", "--r", "7"],
        "a4ab1fe31bc6878f42a5d1626ffef7c9a9f184db9cb3c3ac0b6dd49b862d302e",
        id="gl-3.2-r7",
    ),
    pytest.param(
        ["census", "--p", "2", "--q", "3", "--r", "5", "--alpha", "2", "--beta", "1", "--gamma", "1"],
        "6950c215b421a7c18f96c8b248a3c0c4524c80c0cb338e3d1e0dd6e4a52958e6",
        id="census-2.3.5-2.1.1",
    ),
    # recorded while the census still built one table per action
    pytest.param(
        ["census", "--p", "2", "--q", "7", "--r", "3", "--alpha", "3", "--beta", "1", "--gamma", "1"],
        "e3dd4ca268ff69242121877ccdb0d81387cb961b3041f9997f89923d0432194e",
        id="census-2.7.3-3.1.1",
    ),
    pytest.param(
        ["construct-primitive", "--q", "2", "--r", "7"],
        "97d04cf039fd83256842e1d21d9becc86cb5cf0abfe953b81e5241ceefe33186",
        id="construct-8",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_stdout_matches_recorded_digest(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_primitive(capsys):
    code, rep = run_json(capsys, "construct-primitive", "--q", "2", "--r", "7")
    assert code == 0
    assert rep["results"]["order"] == 56
    assert rep["results"]["degree"] == 8
    assert rep["results"]["provenance"] == {
        "theorem": "B",
        "case": "affine",
        "q": 2,
        "r": 7,
        "beta": 3,
        "n": 8,
    }
    assert rep["results"]["verification"]["all_passed"]
    assert report.validate_report(rep) == []


def test_classify_gl_discrepancy_exit_zero(capsys):
    code, rep = run_json(capsys, "classify-gl", "--alpha", "3", "--s", "2", "--r", "3")
    assert code == 0
    assert rep["results"]["classes"] == 1
    statuses = {c["claim"]: c["status"] for c in rep["claims"]}
    assert statuses["gl-nonexistence-when-dimension-indivisible"] == "violated"
    violated = next(
        c for c in rep["claims"] if c["claim"] == "gl-nonexistence-when-dimension-indivisible"
    )
    assert "witness" in violated
    assert report.validate_report(rep) == []


def test_classify_gl_regular_case(capsys):
    code, rep = run_json(capsys, "classify-gl", "--alpha", "2", "--s", "2", "--r", "3")
    assert code == 0
    assert rep["results"]["classes"] == 1
    assert rep["results"]["irreducible_classes"] == 1
    assert rep["results"]["constructed_in_classes"] is True


def test_verify_primitive_from_file(tmp_path, capsys):
    group_file = tmp_path / "group.json"
    group_file.write_text(
        json.dumps({"degree": 3, "generators": [[2, 3, 1]]}), encoding="utf-8"
    )
    code, rep = run_json(capsys, "verify-primitive", "--q", "2", "--r", "3", "--file", str(group_file))
    assert code == 0
    assert rep["results"]["verification"]["case"] == "cyclic-r"


def test_verify_primitive_cycle_input(capsys):
    code, rep = run_json(
        capsys, "verify-primitive", "--q", "2", "--r", "3",
        "--gens", "(1 2)(3 4);(1 3)(2 4);(2 3 4)", "--degree", "4",
    )
    assert code == 0
    assert rep["results"]["order"] == 12


def test_verify_primitive_rejects_imprimitive(capsys):
    code = cli.main(["verify-primitive", "--q", "2", "--r", "3", "--gens", "(1 2 3 4)", "--degree", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "NotPrimitive" in captured.err


def test_check_bounds_exact_boundary(capsys):
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "transitive-count", "--n", "4", "--count", "884736"
    )
    assert code == 0
    assert rep["results"]["verdict"] == "LE"
    assert rep["results"]["bound"]["exact"] == 884736
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "transitive-count", "--n", "4", "--count", "884737"
    )
    assert rep["results"]["verdict"] == "GT"


def test_check_bounds_theorem_a(capsys):
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "2", "--q", "3", "--r", "5", "--alpha", "1", "--beta", "0", "--gamma", "0",
    )
    assert code == 0
    assert rep["results"]["bound"]["exact"] == 384
    # the out-of-scope formula family is recorded
    assert any(c["status"] == "out_of_scope" for c in rep["claims"])


def test_invalid_params_exit_one(capsys):
    code = cli.main(["census", "--p", "4", "--q", "2", "--r", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "InvalidParams" in captured.err


def test_classify_gl_field_above_table_limit_fails_fast(capsys):
    code = cli.main(["classify-gl", "--alpha", "1", "--s", "1031", "--r", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "LimitExceeded" in captured.err and "field table limit" in captured.err


def test_text_format(capsys):
    code, out = run_cli(
        capsys, "--format", "text", "check-bounds", "--formula", "soluble-order", "--n", "5"
    )
    assert code == 0
    assert "task: check-bounds" in out


def test_timing_flag(capsys):
    code, rep = run_json(
        capsys, "--timing", "check-bounds", "--formula", "soluble-order", "--n", "4"
    )
    assert code == 0
    assert isinstance(rep["timing"], float)


def test_census_emit_tables(capsys):
    code, rep = run_json(
        capsys, "census", "--p", "3", "--q", "2", "--r", "5",
        "--alpha", "1", "--beta", "1", "--gamma", "0", "--emit-tables",
    )
    assert code == 0
    tables = rep["results"]["census"]["representatives"]
    assert len(tables) == 2
    assert all(t["order"] == 6 for t in tables)


def test_census_alpha_zero_degenerate_note(capsys):
    code, rep = run_json(
        capsys, "census", "--p", "5", "--q", "2", "--r", "3",
        "--alpha", "0", "--beta", "1", "--gamma", "1",
    )
    assert code == 0
    assert rep["results"]["count"] == 1
    assert any("alpha = 0" in note for note in rep["results"]["notes"])


def test_exit_code_two_on_true_violation():
    # synthetic report: a violated claim outside the known-discrepancy registry
    rep = report.build_report(
        "census",
        {},
        {},
        [report.claim("census-count-bound", report.STATUS_VIOLATED, witness={"count": 10**9})],
    )
    assert report.exit_code(rep) == 2
    ok = report.build_report("census", {}, {}, [report.claim("census-count-bound", report.STATUS_VERIFIED)])
    assert report.exit_code(ok) == 0
    flagged = report.build_report(
        "classify-gl",
        {},
        {},
        [
            report.claim(
                "gl-nonexistence-when-dimension-indivisible",
                report.STATUS_VIOLATED,
                witness={"order": 3},
            )
        ],
    )
    assert report.exit_code(flagged) == 0  # known discrepancy


def test_claim_registry_integrity():
    for claim_id, entry in report.CLAIM_REGISTRY.items():
        assert set(entry) == {"result", "statement", "known_discrepancy"}
    with pytest.raises(KeyError):
        report.claim("no-such-claim", report.STATUS_VERIFIED)
    with pytest.raises(ValueError):
        report.claim("census-count-bound", report.STATUS_VIOLATED)  # no witness


def test_readme_synopsis_lists_exactly_the_global_options():
    # a flag that does nothing should not survive in the parser, and one
    # removed from the parser should not survive in the documentation
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## CLI", 1)[1].split("```")[1]
    documented = set(re.findall(r"\[(--[\w-]+)", synopsis))
    parser = cli._build_parser()
    actual = {
        option
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for option in action.option_strings
    }
    assert documented == actual
