"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test drives the corresponding selftest runner at full scale and prints
one pass/fail line. The runners themselves compare independent routes
(exhaustive closure, block-partition enumeration, definitional variety
search) against the engine's primary implementations.
"""

import json

from agroups import cli, selftest

from bruteforce import validate_report


def _report(outcome):
    line = f"ACCEPTANCE {outcome.cid}: {outcome.status.upper()} - {outcome.description}"
    print(line)
    for detail in outcome.details:
        print("   ", detail)
    assert outcome.status == selftest.PASS, outcome.details


def test_criterion_1_primitive_classification_and_single_classes():
    # (q, r) in {(3,2), (2,3), (5,2)} at n = 3, 4, 5 plus (2,7) at n = 8:
    # one class per signature, conjugate to the construction, exact orders
    _report(selftest.criterion_primitive_classification(True))


def test_criterion_2_prime_degree_grid():
    # n in 2..7, r in {2,3,5,7}: primitive single-prime class count is
    # exactly [n == r]
    _report(selftest.criterion_prime_degree())


def test_criterion_3_gl_classifications():
    # GL(2,2) r=3, GL(2,3) r=2, GL(3,2) r=7, GL(3,2) r=3 -> one class each,
    # with the indivisible-dimension nonexistence sub-claim flagged violated
    _report(selftest.criterion_gl_classes(True))


def test_criterion_4_census_counts_and_bound():
    # exact censuses: (3,2,5;1,1,0)->2, (5,2,3;0,1,1)->1, (2,3,5;2,1,0)->2,
    # (3,2,5;1,1,1)->2, (2,3,5;2,1,1)->2, each LE the isomorphism-count bound
    _report(selftest.criterion_census_bounds())


def test_criterion_5_order_bounds():
    # every variety subgroup of GL(2,2)/GL(2,3) within the order bound for
    # all prime pairs from {2,3,5,7}; transitive subgroups of S_n (n <= 5)
    # within the soluble order bound and the transitive count bound
    _report(selftest.criterion_order_bounds())


def test_criterion_6_engine_property_suites():
    # (a) closure size == orbit-stabiliser order on 30 seeded random subgroups of S6
    # (b) primitivity == brute-force block enumeration at n <= 6
    # (c) verbal variety test == exhaustive witness search on census groups
    # (d) censuses duplicate-free, and the same tables in the same order in
    #     a second run
    _report(selftest.criterion_engine_properties())


def test_selftest_cli_quick_exit_zero(capsys):
    code = cli.main(["selftest", "--scale", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["all_passed"] is True
    assert validate_report(rep) == []
