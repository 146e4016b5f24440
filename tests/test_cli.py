import argparse
import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
import weakref
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import census, cli, gf, matgrp, report, selftest
from agroups.cayley import VarietyParams

from bruteforce import validate_report

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert validate_report(rep) == []


def test_census_at_order_one_is_out_of_scope(capsys):
    code, rep = run_json(capsys, "census", "--p", "2", "--q", "3", "--r", "5")
    assert code == 0
    assert rep["results"]["count"] == 1
    assert rep["bounds"][0]["verdict"] == "GT"  # the bound reads 1/2 at n = 1
    [claim] = rep["claims"]
    assert claim["claim"] == "census-count-bound" and claim["status"] == "out_of_scope"
    assert "n = 1" in claim["notes"] and "witness" not in claim
    assert validate_report(rep) == []
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
    assert validate_report(rep) == []


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
    assert validate_report(rep) == []


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


def test_classify_gl_refuses_a_huge_s_before_factoring_it(capsys, monkeypatch):
    # trial division of a 31-digit s would not finish
    real = cli.prime_factors

    def bounded(n):
        assert n <= 1024, f"prime_factors({n})"
        return real(n)

    monkeypatch.setattr(cli, "prime_factors", bounded)
    s = "1000000000000000000000000000057"
    err = one_error_line(capsys, "classify-gl", "--alpha", "1", "--s", s, "--r", "3")
    assert err == f"error: LimitExceeded: s = {s} exceeds the field table limit 1024"


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


# the flags each check-bounds formula reads
FORMULA_FLAGS = {
    "theorem-a": ["--p", "--q", "--r"],
    "gl-classes": ["--s", "--alpha"],
    "transitive-count": ["--n"],
    "gl-order": ["--alpha", "--q", "--r", "--s"],
    "soluble-order": ["--n"],
}


@pytest.mark.parametrize(
    "formula, given, missing",
    [
        ("theorem-a", ["--p", "2", "--alpha", "1"], "--q, --r"),
        ("gl-classes", ["--alpha", "2"], "--s"),
        ("transitive-count", [], "--n"),
        ("gl-order", ["--s", "4", "--alpha", "2"], "--q, --r"),
        ("soluble-order", ["--count", "3"], "--n"),
    ],
)
def test_check_bounds_names_the_missing_flags(capsys, formula, given, missing):
    # each formula refuses the flags it reads when they are not given, by
    # name, rather than reading them as 0; given all, as 0, it refuses the
    # value instead
    err = one_error_line(capsys, "check-bounds", "--formula", formula, *given)
    assert err == f"error: InvalidParams: formula {formula} needs {missing}"
    flags = FORMULA_FLAGS[formula]
    err = one_error_line(capsys, "check-bounds", "--formula", formula)
    assert err == f"error: InvalidParams: formula {formula} needs {', '.join(flags)}"
    zeros = [x for flag in flags for x in (flag, "0")]
    assert "needs" not in one_error_line(capsys, "check-bounds", "--formula", formula, *zeros)


def test_each_formula_reads_its_flags_in_argument_order():
    # check-bounds passes the flags' values positionally: a swapped pair
    # would print a wrong bound instead of failing; theorem A's flags are
    # the first arguments of VarietyParams, which its bound function takes
    for name, (formula, flags) in cli._FORMULAS.items():
        if name == "theorem-a":
            arguments = list(inspect.signature(VarietyParams).parameters)[: len(flags)]
        else:
            arguments = list(inspect.signature(formula).parameters)
        assert [flag[2:] for flag in flags] == arguments, name


def test_check_bounds_keeps_the_message_of_an_explicit_zero(capsys):
    err = one_error_line(
        capsys, "check-bounds", "--formula", "gl-order", "--s", "4", "--alpha", "2", "--q", "0", "--r", "3"
    )
    assert err == "error: InvalidParams: 0 is not prime"


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


# 2^89 - 1 is prime and above the trial budget's 10^12: no trial up to 10^6
# decides it. Each refusal below is decided before any huge integer is
# formed or any long loop runs; each once hung, so they run in a subprocess
# under a timeout
BIG_PRIME = str(2**89 - 1)
UNTESTED = f"LimitExceeded: {BIG_PRIME} has no prime factor up to 1000000"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["census", "--p", "2", "--q", "3", "--r", "5", "--beta", "10000000"],
         "LimitExceeded: order 2^0*3^10000000*5^0 exceeds the census limit 400"),
        (["census", "--p", "2", "--q", "3", "--r", "5", "--beta", "100000000"],
         "LimitExceeded: order 2^0*3^100000000*5^0 exceeds the census limit 400"),
        (["census", "--p", BIG_PRIME, "--q", "3", "--r", "5"], UNTESTED),
        (["classify-gl", "--alpha", "2", "--s", "4", "--r", BIG_PRIME], UNTESTED),
        (["construct-primitive", "--q", "2", "--r", BIG_PRIME], UNTESTED),
        (["check-bounds", "--formula", "theorem-a", "--p", BIG_PRIME, "--q", "3", "--r", "5"],
         UNTESTED),
        (["construct-primitive", "--q", "2", "--r", "999999999989"],
         "DegreeLimit: degree 2^999999999988 exceeds the limit 16"),
    ],
    ids=["census-beta-1e7", "census-beta-1e8", "census-p", "classify-gl-r",
         "construct-r", "check-bounds-p", "construct-order-of-2"],
)
def test_refusals_need_no_huge_integer(argv, err):
    done = subprocess.run(
        [sys.executable, "-m", "agroups", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=20,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode().startswith("error: " + err)


@pytest.mark.parametrize("n", [40, 400])
def test_verify_primitive_refuses_s_n_within_its_table_limit(n):
    # S_n on (1 2 ... n) and (1 2) is primitive and inside the degree limit;
    # its closure stops as soon as it passes 400 elements (a stabiliser
    # chain built first took 11 s at n = 40 and over 10 minutes at n = 400)
    gens = "(" + " ".join(map(str, range(1, n + 1))) + ");(1 2)"
    done = subprocess.run(
        [sys.executable, "-m", "agroups", "verify-primitive", "--q", "2", "--r", "3",
         "--gens", gens, "--degree", str(n)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: LimitExceeded: order above the table limit 400\n"


def test_classify_gl_reports_a_twelve_digit_r():
    # 999999999989, the largest prime below 10^12, passes the trial budget;
    # the order of 4 mod r is computed from r - 1, not by r - 1 products
    done = subprocess.run(
        [sys.executable, "-m", "agroups", "classify-gl", "--alpha", "2", "--s", "4",
         "--r", "999999999989"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)
    assert rep["results"]["classes"] == 0
    assert rep["results"]["order_of_s_mod_r"] == 499999999994


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
    assert validate_report(rep) == []
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
    beta, gamma = (1, 0) if exponents[0] == "--beta" else (0, 2)
    assert err == (
        f"error: LimitExceeded: a term base of the bound, n = 97^3000*3^{beta}*5^{gamma},"
        " has over PRINTED_DIGITS = 4300 decimal digits"
    )


def test_check_bounds_refuses_a_huge_n_before_forming_it(capsys):
    # 3^(10^7) has 4,771,213 digits: forming it and counting them took 12 s
    start = time.perf_counter()
    err = one_error_line(
        capsys, "check-bounds", "--formula", "theorem-a", "--p", "2", "--q", "3", "--r", "5",
        "--beta", "10000000",
    )
    assert time.perf_counter() - start < 1
    assert err == (
        "error: LimitExceeded: a term base of the bound, n = 2^0*3^10000000*5^0,"
        " has over PRINTED_DIGITS = 4300 decimal digits"
    )


def count_trial_searches(monkeypatch) -> list:
    """The integers gf's trial search is run on from now, through a fresh
    cache, so that no answer cached earlier in the process counts."""
    searched = []
    search = gf._least_factor.__wrapped__
    monkeypatch.setattr(
        gf, "_least_factor", lru_cache(maxsize=None)(lambda n, limit: searched.append(n) or search(n, limit))
    )
    return searched


def test_classify_gl_tests_r_once_and_factors_it_once(monkeypatch, capsys):
    # r is tested in each of three matgrp functions and factored for the
    # order of s mod r in two: the trial search runs on it once
    r = 1000003
    searched = count_trial_searches(monkeypatch)
    code, rep = run_json(capsys, "classify-gl", "--alpha", "2", "--s", "4", "--r", str(r))
    assert code == 0 and rep["results"]["order_of_s_mod_r"] == gf.multiplicative_order(4, r)
    assert searched.count(r) == 1


def test_construct_primitive_searches_a_twelve_digit_r_once(monkeypatch, capsys):
    # is_prime(r), then prime_factors(r) for the order of q mod r: one search
    r = 999999999989
    searched = count_trial_searches(monkeypatch)
    code = cli.main(["construct-primitive", "--q", "2", "--r", str(r)])
    assert code == 1
    assert capsys.readouterr().err == f"error: DegreeLimit: degree 2^{r - 1} exceeds the limit 16\n"
    assert searched.count(r) == 1


def test_check_bounds_leaves_out_an_exact_value_too_long_to_print(capsys):
    code, rep = run_json(
        capsys, "check-bounds", "--formula", "theorem-a",
        "--p", "97", "--q", "3", "--r", "5", "--alpha", "60",
    )
    assert code == 0
    assert "exact" not in rep["results"]["bound"]
    assert validate_report(rep) == []


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
    parser = cli._argparse_parser()
    actual = {
        option
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for option in action.option_strings
    }
    assert documented == actual


CENSUS_ARGV = ["census", "--p", "2", "--q", "3", "--r", "5", "--alpha", "2", "--beta", "1", "--gamma", "1"]


def test_table_and_argparse_list_the_same_options():
    # the strict parse reads the table, argparse its own actions: the same
    # flags, dests and keywords per command, in the same order
    def described(parser):
        return [
            (action.option_strings, action.dest, action.type, action.choices, action.default,
             action.required)
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        ]

    def tabled(options):
        return [
            ([flag], flag[2:].replace("-", "_"), kwargs.get("type"), kwargs.get("choices"),
             kwargs.get("default"), kwargs.get("required", False))
            for flag, kwargs in options
        ]

    parser = cli._argparse_parser()
    assert described(parser) == tabled(cli._GLOBAL_OPTIONS)
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(cli._COMMANDS)
    for name, (run, _, options) in cli._COMMANDS.items():
        assert described(commands.choices[name]) == tabled(options)
        assert commands.choices[name].get_default("run") is run


def _option_tokens(flag, kwargs):
    """The flag, with a value that argparse takes when it takes one."""
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    if "choices" in kwargs:
        value = st.sampled_from(kwargs["choices"])
    elif kwargs.get("type") is int:
        value = st.integers(0, 12).map(str)
    else:
        value = st.sampled_from(["(1 2)", "x"])
    return value.map(lambda text: [flag, text])


@st.composite
def _section(draw, options):
    """The required options and some others, each once, in any order."""
    required = [i for i, (_, kwargs) in enumerate(options) if kwargs.get("required")]
    others = [i for i in range(len(options)) if i not in required]
    picks = required + (draw(st.lists(st.sampled_from(others), unique=True)) if others else [])
    return [draw(_option_tokens(*options[i])) for i in draw(st.permutations(picks))]


JUNK = st.sampled_from(
    ["", "-1", " 5", "x", "json", "census", "extra", "-h", "--help", "--", "--alp", "--form",
     "--format=text", "--p=2", "--bogus"]
)


@st.composite
def command_lines(draw):
    """A well-formed command line, then up to two changes that most often
    leave it ill-formed: a junk token, a part moved or given twice or left
    out, a junk value."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    parts = [*draw(_section(cli._GLOBAL_OPTIONS)), [name], *draw(_section(cli._COMMANDS[name][2]))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        if not parts:
            break
        where = draw(st.integers(0, len(parts) - 1))
        change = draw(st.sampled_from(["junk", "move", "twice", "leave out", "junk value"]))
        if change == "junk":
            parts.insert(where, [draw(JUNK)])
        elif change == "move":
            parts.insert(draw(st.integers(0, len(parts) - 1)), parts.pop(where))
        elif change == "twice":
            parts.insert(where, draw(st.sampled_from(parts)))
        elif change == "leave out":
            del parts[where]
        else:
            parts[where] = [parts[where][0], draw(JUNK)]
    return [token for part in parts for token in part]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_strict_parse_agrees_with_argparse(argv):
    # argparse is the oracle: whatever the strict parse accepts, argparse
    # parses to the same namespace (and a usage error would fail the test)
    parsed = cli._strict_parse(argv)
    if parsed is not None:
        assert vars(parsed) == vars(cli._argparse_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--format", "text"],
        ["census", "--p", "2", "--q", "3"],
        ["--format", "xml", *CENSUS_ARGV],
        ["--max-order", "x", *CENSUS_ARGV],
        ["--max-order", "", *CENSUS_ARGV],
        ["--max-order", "-5", *CENSUS_ARGV],
        ["--format=text", *CENSUS_ARGV],
        ["--form", "text", *CENSUS_ARGV],
        ["--timing", "--timing", *CENSUS_ARGV],
        [*CENSUS_ARGV, "--timing"],
        ["--max-order", "5", "census", "--max-order", "5", *CENSUS_ARGV[1:]],
        [*CENSUS_ARGV, "--p", "2"],
        [*CENSUS_ARGV, "--alp", "2"],
        [*CENSUS_ARGV, "--alpha"],
        [*CENSUS_ARGV, "extra"],
        [*CENSUS_ARGV, "census"],
        [*CENSUS_ARGV, "--"],
        ["--", *CENSUS_ARGV],
        [*CENSUS_ARGV, "-h"],
        ["census", "--help"],
        ["-h", *CENSUS_ARGV],
        ["census", "--p", "-2", "--q", "3", "--r", "5"],
        ["verify-primitive", "--q", "2", "--r", "3", "--gens", "-h"],
        ["verify-primitive", "--q", "2", "--r", "3", "--gens", ""],
        ["check-bounds", "--formula", "bogus"],
        ["selftest", "--scale", "json"],
        ["construct-primitive", "--q", "2", "--r", "5", "--case", "cyclic"],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_strict_parse_declines_what_argparse_must_parse(argv):
    # help, usage errors and the grammar beyond the strict shape
    assert cli._strict_parse(argv) is None


def test_strict_parse_accepts_every_well_formed_command():
    # the benchmark's and CI's command lines never reach argparse
    for argv in (
        CENSUS_ARGV,
        ["--format", "text", "--max-order", "100", "--timing", *CENSUS_ARGV, "--emit-tables"],
        ["classify-gl", "--alpha", "2", "--s", "4", "--r", "3"],
        ["check-bounds", "--formula", "theorem-a", "--p", "2", "--q", "3", "--r", "5", "--count", "5"],
        ["construct-primitive", "--q", "2", "--r", "5", "--case", "cyclic-r"],
        ["verify-primitive", "--q", "2", "--r", "7", "--gens", "(1 2);(2 3)", "--degree", "8"],
        ["--max-degree", "16", "selftest", "--scale", "full"],
    ):
        assert cli._strict_parse(argv) is not None, argv


def run_main(capsys, argv):
    """cli.main in this process: exit code, stdout and stderr, as a shell sees them."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help and usage errors leave through argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# main freezes the heap, so the interpreter skips collecting it at exit; a
# separate process shows that no output is lost on the way out
@pytest.mark.parametrize(
    "argv, code, err",
    [
        pytest.param(CENSUS_ARGV, 0, "", id="census-json"),
        pytest.param(["--format", "text", *CENSUS_ARGV], 0, "", id="census-text"),
        pytest.param(["classify-gl", "--alpha", "2", "--s", "4", "--r", "3"], 0, "", id="classify-gl"),
        pytest.param(
            ["census", "--p", "4", "--q", "2", "--r", "5"],
            1,
            "error: InvalidParams: 4 is not prime\n",
            id="engine-error",
        ),
        pytest.param(["census", "--p", "2", "--r", "5"], 1, None, id="usage-error"),
        pytest.param(["--help"], 0, "", id="help"),
        # argparse's grammar beyond the strict parse's: argparse parses these
        pytest.param(["--format=text", *CENSUS_ARGV], 0, "", id="flag-equals-value"),
        pytest.param(["census", "--alp", "2", "--p", "2", "--q", "3", "--r", "5"], 0, "", id="abbreviation"),
        pytest.param(["census", "--p", "3", *CENSUS_ARGV[1:]], 0, "", id="repeated-flag"),
        pytest.param(["census", "-h"], 0, "", id="command-help"),
    ],
)
def test_subprocess_matches_in_process_run(monkeypatch, capsys, argv, code, err):
    # argparse wraps usage and help text to COLUMNS; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-m", "agroups", *argv], env=env, capture_output=True, timeout=60
    )
    in_code, in_out, in_err = run_main(capsys, argv)
    assert done.returncode == in_code == code
    assert done.stdout == in_out.encode()
    assert done.stderr.decode() == in_err
    if err is not None:
        assert in_err == err
    else:
        assert in_err.endswith("error: the following arguments are required: --q\n")


class _Node:
    pass


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["census", "--p", "3", "--q", "2", "--r", "5", "--alpha", "1", "--beta", "1"], id="report"),
        pytest.param(["census", "--p", "4", "--q", "2", "--r", "5"], id="engine-error"),
        pytest.param(["census", "--p", "2"], id="usage-error"),
        pytest.param(["--help"], id="help"),
    ],
)
def test_main_freezes_the_heap_and_library_calls_do_not(capsys, argv):
    before = gc.get_freeze_count()
    census.enumerate_variety_groups(VarietyParams(3, 2, 5, 1, 1, 0))
    assert gc.get_freeze_count() == before
    run_main(capsys, argv)
    assert gc.get_freeze_count() > before
    # frozen, not disabled: a cycle made afterwards is still reclaimed
    assert gc.isenabled()
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


# under python -S no site module preloads anything, so sys.modules shows what
# the commands themselves import; bounds work on plain integers, a
# well-formed command line never reaches argparse (nor gettext, locale and
# shutil), and only the selftest command loads selftest and random
IMPORT_SET_CHILD = """
import json, sys
from agroups import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
unwanted = ("fractions", "decimal", "numbers", "typing", "argparse", "gettext", "locale",
            "shutil", "agroups.selftest", "random")
print(json.dumps(sorted(m for m in unwanted if m in sys.modules)))
"""


def test_commands_load_no_fractions_decimal_numbers_or_typing():
    argvs = [
        CENSUS_ARGV,
        ["classify-gl", "--alpha", "2", "--s", "4", "--r", "3"],
        ["check-bounds", "--formula", "theorem-a", "--p", "2", "--q", "3", "--r", "5",
         "--alpha", "1", "--beta", "1", "--gamma", "1", "--count", "5"],
    ]
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_SET_CHILD, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
