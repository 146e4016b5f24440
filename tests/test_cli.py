import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from agroups import cli, matgrp, report, selftest

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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


def test_census_at_order_one_is_out_of_scope(capsys):
    code, rep = run_json(capsys, "census", "--p", "2", "--q", "3", "--r", "5")
    assert code == 0
    assert rep["results"]["count"] == 1
    assert rep["bounds"][0]["verdict"] == "GT"  # the bound reads 1/2 at n = 1
    [claim] = rep["claims"]
    assert claim["claim"] == "census-count-bound" and claim["status"] == "out_of_scope"
    assert "n = 1" in claim["notes"] and "witness" not in claim
    assert report.validate_report(rep) == []
    # one prime factor is enough to bring the claim back into scope
    code, rep = run_json(capsys, "census", "--p", "2", "--q", "3", "--r", "5", "--beta", "1")
    assert code == 0 and rep["bounds"][0]["verdict"] == "LE"
    assert rep["claims"][0]["status"] == "verified"


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
    # recorded while classify-gl still grouped the whole lattice into classes
    # by conjugation orbits, after the scan
    pytest.param(
        ["classify-gl", "--alpha", "3", "--s", "3", "--r", "2"],
        "9e74cb29ae80f3554c0dab3067099061c7ad6b641422b1e245ac16a5790c74d7",
        id="gl-3.3-r2",
    ),
    pytest.param(
        ["classify-gl", "--alpha", "2", "--s", "8", "--r", "7"],
        "0c2b222c90d9e8fd59c1f33b2e61b2f3eba202c0565b8094288a401976b76622",
        id="gl-2.8-r7",
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
    # recorded while Perm still stored 1-based images and compare_count kept
    # its own interval loop: one run per bound formula, and the chain,
    # block and normal-structure path of verify-primitive at degree 8
    pytest.param(
        ["check-bounds", "--formula", "theorem-a", "--p", "2", "--q", "3", "--r", "5",
         "--alpha", "2", "--beta", "1", "--gamma", "1", "--count", "2"],
        "89a5554fe79d15bfa3709aeda46edaf4f4ef1d6bd7e843019f9649990b4db02b",
        id="bounds-theorem-a",
    ),
    pytest.param(
        ["check-bounds", "--formula", "gl-classes", "--s", "2", "--alpha", "3", "--count", "1"],
        "9fc8c728c8221b9c499ccf12b9d005759d05bd9ea4a8b4644f8e955e69c062c9",
        id="bounds-gl-classes",
    ),
    pytest.param(
        ["check-bounds", "--formula", "transitive-count", "--n", "4", "--count", "884736"],
        "0f73a734feab170c4b8ded9f5e8656edb06a04a0b2b7cde9b2065448ec77bfa5",
        id="bounds-transitive-count-equal",
    ),
    pytest.param(
        ["check-bounds", "--formula", "gl-order", "--alpha", "2", "--q", "2", "--r", "3",
         "--s", "5", "--count", "62"],
        "8efd743b97eba3a596b58f033b82d07fd539855932bb8604621b2828c9b1de3d",
        id="bounds-gl-order-above",
    ),
    pytest.param(
        ["check-bounds", "--formula", "soluble-order", "--n", "5", "--count", "36"],
        "1376245cad365461a50dcff51d12d5e1fb1397cbaebb81b4c40217bc0005146b",
        id="bounds-soluble-order-equal",
    ),
    pytest.param(
        ["verify-primitive", "--q", "2", "--r", "7", "--gens",
         "(2 4 6 3 7 8 5);(1 2)(3 4)(5 6)(7 8);(1 3)(2 4)(5 7)(6 8);(1 5)(2 6)(3 7)(4 8)"],
        "a5d63887c0054639b31f0ea7cb5f4e593e6e73b5f615ca7f487b703734452faa",
        id="verify-8",
    ),
    # recorded while Perm and Mat still wrapped the codes: the cycle and
    # Singer edges of construct-primitive, and the JSON file edge of
    # verify-primitive (a relabelled 7:3 with a redundant product and the
    # identity among its generators)
    pytest.param(
        ["construct-primitive", "--q", "3", "--r", "2"],
        "b4b4ae0f4dcda979406c783ba3ad86d579276afb6c02b1e1a8fc007b1248d70b",
        id="construct-3",
    ),
    pytest.param(
        ["construct-primitive", "--q", "2", "--r", "5", "--case", "cyclic-q"],
        "9d4b9c6fc2af6213716b39e19bad9c6c16ba764ee016c67a3559d0e3defdfd9c",
        id="construct-cyclic-q",
    ),
    pytest.param(
        ["verify-primitive", "--q", "7", "--r", "3", "--file", str(FIXTURES / "affine-7-3.json")],
        "306eed3ee7d3122242997f32bf857f161cec2d7d9cd325783230a338abba9af1",
        id="verify-file-7",
    ),
    # recorded while the Singer generator was still found by powers in its
    # own polynomial ring: d = 2 over the non-prime field GF(4), and alpha = 4
    pytest.param(
        ["classify-gl", "--alpha", "2", "--s", "4", "--r", "5"],
        "323b1cffd80607965882e1ab027bd1acea597585484acc6edeb6f0d783215b5b",
        id="gl-2.4-r5",
    ),
    pytest.param(
        ["construct-primitive", "--q", "2", "--r", "5"],
        "17ea74d56c522fd8931dbc7a4d83d358e28d61c318466d972cb2e2a095de94f8",
        id="construct-16",
    ),
    # recorded while the field tables were still read off the polynomial
    # products of every pair of elements: GF(1024) at the field table limit,
    # and GF(9), whose modulus x^2 + 1 is not primitive
    pytest.param(
        ["classify-gl", "--alpha", "1", "--s", "1024", "--r", "3"],
        "10ab3cb756fffc1b66805c8e4c1228cd9c42e05103f8e0acd46bc9fae668233e",
        id="gl-1.1024-r3",
    ),
    pytest.param(
        ["classify-gl", "--alpha", "2", "--s", "9", "--r", "5"],
        "86d613a0e18b2f1f92b75239b8f60a77c8b76faf28d75042eb6ae227621b60fd",
        id="gl-2.9-r5",
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


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["--q", "2", "--r", "5"], 16),
        (["--q", "2", "--r", "11", "--case", "cyclic-r"], 11),
        (["--q", "13", "--r", "2", "--case", "cyclic-q"], 13),
    ],
    ids=["affine-16", "cyclic-r-11", "cyclic-q-13"],
)
def test_construct_primitive_verifies_degrees_up_to_the_limit(capsys, argv, degree):
    # the normal-structure checks are bounded by the group's order, not its degree
    code, rep = run_json(capsys, "construct-primitive", *argv)
    assert code == 0 and rep["results"]["degree"] == degree
    assert [(c["claim"], c["status"]) for c in rep["claims"]] == [
        ("primitive-structure", "verified")
    ]


def test_verify_primitive_eleven_cycle(capsys):
    code, rep = run_json(
        capsys, "verify-primitive", "--q", "2", "--r", "11", "--gens", "(1 2 3 4 5 6 7 8 9 10 11)"
    )
    assert code == 0 and rep["results"]["verification"]["case"] == "cyclic-r"


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


def test_max_order_reaches_the_gl_conjugacy_check(monkeypatch, capsys):
    # every GL scan of classify-gl and of selftest criterion 3, the
    # constructed_in_classes check included, runs under the given limit
    seen = []
    gl_elements, conjugate_in_gl = matgrp.gl_elements, matgrp.conjugate_in_gl

    def gl_spy(alpha, spec, limit=matgrp.GL_BRUTE_LIMIT):
        seen.append(("gl_elements", limit))
        return gl_elements(alpha, spec, limit)

    def conjugate_spy(A, B, limit=matgrp.GL_BRUTE_LIMIT):
        seen.append(("conjugate_in_gl", limit))
        return conjugate_in_gl(A, B, limit)

    monkeypatch.setattr(matgrp, "gl_elements", gl_spy)
    monkeypatch.setattr(matgrp, "conjugate_in_gl", conjugate_spy)
    code, rep = run_json(
        capsys, "--max-order", "4321", "classify-gl", "--alpha", "2", "--s", "3", "--r", "2"
    )
    assert code == 0 and rep["results"]["constructed_in_classes"] is True
    assert ("conjugate_in_gl", 4321) in seen and ("gl_elements", 4321) in seen
    assert {limit for _, limit in seen} == {4321}
    seen.clear()
    outcome = selftest.criterion_gl_classes(full=False, gl_limit=4322)
    assert outcome.status == selftest.PASS
    assert ("conjugate_in_gl", 4322) in seen
    assert {limit for _, limit in seen} == {4322}


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


def one_error_line(capsys, *argv):
    """The stderr of a command that must exit 1 with a single error line."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("alpha", ["0", "-2"])
def test_classify_gl_rejects_alpha_below_one(capsys, alpha):
    err = one_error_line(capsys, "classify-gl", "--alpha", alpha, "--s", "2", "--r", "3")
    assert err == "error: DegreeMismatch: alpha must be at least 1"


@pytest.mark.parametrize("s", ["0", "-4", "1"])
def test_classify_gl_rejects_s_below_two(capsys, s):
    err = one_error_line(capsys, "classify-gl", "--alpha", "2", "--s", s, "--r", "3")
    assert err == f"error: EngineError: s = {s} is not a prime power"


@pytest.mark.parametrize("s", ["-3", "0", "1", "6", "12"])
@pytest.mark.parametrize(
    "formula",
    [["gl-classes", "--alpha", "2"], ["gl-order", "--alpha", "2", "--q", "2", "--r", "3"]],
    ids=["gl-classes", "gl-order"],
)
def test_check_bounds_refuses_a_field_size_that_is_no_prime_power(capsys, formula, s):
    # there is no GL(alpha, s) to bound, with or without a count to compare
    for count in ([], ["--count", "3"]):
        err = one_error_line(capsys, "check-bounds", "--formula", *formula, "--s", s, *count)
        assert err == f"error: InvalidParams: s = {s} is not a prime power"


def test_verify_primitive_rejects_degree_one(capsys):
    err = one_error_line(capsys, "verify-primitive", "--q", "2", "--r", "3", "--gens", "()")
    assert err.startswith("error: NotPrimitive: degree 1")


# integers above bounds.PRINTED_DIGITS decimal digits are named or left out,
# never converted to a string; shorter ones print as before
@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify-gl", "--alpha", "4", "--s", "5", "--r", "2"],
         "LimitExceeded: |GL(4, 5)| = 116064000000 exceeds brute-force limit 1000000"),
        (["classify-gl", "--alpha", "200", "--s", "2", "--r", "3"],
         "LimitExceeded: |GL(200, 2)| exceeds brute-force limit 1000000"),
        (["construct-primitive", "--q", "2", "--r", "11"],
         "DegreeLimit: degree 1024 exceeds the limit 16"),
        (["construct-primitive", "--q", "2", "--r", "15013"],
         "DegreeLimit: degree 2^15012 exceeds the limit 16"),
    ],
    ids=["gl-order", "gl-order-unprintable", "degree", "degree-unprintable"],
)
def test_refusals_name_the_limit(capsys, argv, err):
    assert one_error_line(capsys, *argv) == "error: " + err


@pytest.mark.parametrize(
    "gens, point", [("(1 2)(1 2)", 1), ("(1 2 3)(1 2 3)", 1), ("(1 1)", 1), ("(1 2)(2 3)", 2)]
)
def test_verify_primitive_refuses_repeated_points(capsys, gens, point):
    err = one_error_line(capsys, "verify-primitive", "--q", "2", "--r", "3", "--gens", gens)
    assert err == (
        f"error: EngineError: cannot load the group: point {point} appears twice"
        f" in {gens!r}: cycles must be disjoint"
    )


@pytest.mark.parametrize(
    "content, reason",
    [
        ("null", "a group is a JSON object with a degree and generators"),
        ("[]", "a group is a JSON object with a degree and generators"),
        ('{"degree": 3, "generators": 5}', "the generators must be lists of integers"),
        ('{"degree": 3, "generators": [null]}', "the generators must be lists of integers"),
        ('{"degree": 3, "generators": [[2, 3, 1.9]]}', "the generators must be lists of integers"),
        ('{"degree": 3.0, "generators": [[2, 3, 1]]}', "the degree must be an integer"),
        ('{"degree": 3, "generators": [[2, 2, 1]]}', "not a permutation of 1..3: (2, 2, 1)"),
        ('{"degree": 3}', "'generators'"),
    ],
    ids=["null", "list", "generators-int", "generator-null", "image-float", "degree-float",
         "not-a-permutation", "no-generators"],
)
def test_verify_primitive_refuses_malformed_files(tmp_path, capsys, content, reason):
    group_file = tmp_path / "group.json"
    group_file.write_text(content, encoding="utf-8")
    err = one_error_line(
        capsys, "verify-primitive", "--q", "2", "--r", "3", "--file", str(group_file)
    )
    assert err == f"error: EngineError: cannot load the group: {reason}"


def test_census_names_an_order_too_long_to_print(capsys):
    err = one_error_line(
        capsys, "census", "--p", "97", "--q", "3", "--r", "5",
        "--alpha", "3000", "--beta", "1", "--gamma", "0",
    )
    assert err == "error: LimitExceeded: order 97^3000*3^1*5^0 exceeds the census limit 400"


def test_census_prints_a_short_order_in_full(capsys):
    err = one_error_line(capsys, "census", "--p", "97", "--q", "3", "--r", "5", "--alpha", "2")
    assert err == "error: LimitExceeded: order 9409 exceeds the census limit 400"


def test_check_bounds_leaves_out_n_too_long_to_print(capsys):
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "97", "--q", "3", "--r", "5", "--alpha", "3000",
    )
    assert code == 0
    assert "n" not in rep["parameters"] and rep["parameters"]["alpha"] == 3000
    assert report.validate_report(rep) == []
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "97", "--q", "3", "--r", "5", "--alpha", "2",
    )
    assert rep["parameters"]["n"] == 9409


@pytest.mark.parametrize("exponents", [["--beta", "1"], ["--gamma", "2"]], ids=["beta", "gamma"])
def test_check_bounds_refuses_a_term_base_too_long_to_print(capsys, exponents):
    # theorem A has the term (n, beta + gamma): n = 97^3000 * ... has 5,961+ digits
    err = one_error_line(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "97", "--q", "3", "--r", "5", "--alpha", "3000", *exponents,
    )
    digits = 5961 if exponents[0] == "--beta" else 5962
    assert err == (
        f"error: LimitExceeded: a term base of the bound has {digits} decimal digits,"
        " over the print limit PRINTED_DIGITS = 4300"
    )


def test_check_bounds_leaves_out_an_exact_value_too_long_to_print(capsys):
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "97", "--q", "3", "--r", "5", "--alpha", "60",
    )
    assert code == 0
    assert "exact" not in rep["results"]["bound"]
    assert report.validate_report(rep) == []


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


def test_verdict_carries_the_witness_only_when_violated():
    witness = {"count": 7}
    held = report.verdict("census-count-bound", True, "fine", witness)
    assert held == report.claim("census-count-bound", report.STATUS_VERIFIED, notes="fine")
    failed = report.verdict("census-count-bound", False, "too many", witness)
    assert failed["status"] == report.STATUS_VIOLATED and failed["witness"] == witness


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
