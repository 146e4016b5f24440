import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import bounds
from agroups.bounds import (
    LogBound,
    compare_count,
    interval_verdict,
    prop41_bound,
    remark43_gl_bound,
    remark43_transitive_bound,
    soluble_sn_bound,
    theorem_a_bound,
)
from agroups.cayley import VarietyParams
from agroups.errors import EngineError, InvalidParams, LimitExceeded

import bruteforce as bf


def approx(bound):
    return bound.approx_log2()


def exact_le(a, b):
    """2^a <= 2^b exactly: 2^(a - b) <= 1, a - b over the product of the denominators."""
    terms = [(base, c * b.den) for base, c in a.terms] + [(base, -c * a.den) for base, c in b.terms]
    diff = LogBound.build(a.constant * b.den - b.constant * a.den, terms, a.den * b.den)
    return diff.exact_cmp_count(1) >= 0


# -- log2 interval machinery -------------------------------------------------


def test_log2_fixed_encloses_true_value_exactly():
    # exact enclosure check 2^lo <= b^(2^prec) <= 2^hi at a small precision
    prec = 8
    scale = 1 << prec
    for b in [2, 3, 5, 6, 7, 10, 12, 100, 884736, 884737]:
        lo, hi = bounds._log2_fixed(b, prec)
        assert lo <= hi
        power = b**scale
        assert (1 << lo) <= power
        assert power <= (1 << hi)


def test_log2_fixed_tight_at_high_precision():
    for b in [3, 5, 6, 7, 100, 884737]:
        for prec in (32, 64):
            lo, hi = bounds._log2_fixed(b, prec)
            assert lo <= hi <= lo + 4
            mid = (lo + hi) / 2 / (1 << prec)
            assert abs(mid - math.log2(b)) < 1e-6
    for b in (2, 4, 8, 1024):
        lo, hi = bounds._log2_fixed(b, 32)
        assert lo == hi == (b.bit_length() - 1) << 32


def test_log2_interval_width_shrinks():
    bound = LogBound.build(0, {3: Fraction(7, 2), 5: 2})
    widths = []
    for prec in (16, 32, 64):
        lo, hi = bound.log2_interval(prec)  # integers over den * 2^prec
        widths.append(Fraction(hi - lo, bound.den << prec))
    assert widths[0] > widths[1] > widths[2]


# -- term construction and the degenerate cases --------------------------------


def test_theorem_a_bound_example_exact_384():
    params = VarietyParams(2, 3, 5, 1, 0, 0)
    bound = theorem_a_bound(params)
    assert bound.exact_int() == 384
    assert compare_count(384, bound) == "LE"
    assert compare_count(385, bound) == "GT"


def test_theorem_a_bound_value_3_2_5():
    params = VarietyParams(3, 2, 5, 1, 1, 0)
    bound = theorem_a_bound(params)
    # value = 6*log2(3) + (5/2)*log2(6)
    expected = 6 * math.log2(3) + 2.5 * math.log2(6)
    assert abs(approx(bound) - expected) < 1e-9
    assert abs(approx(bound) - 15.9722) < 1e-3
    assert compare_count(2, bound) == "LE"
    # bound is 26244 * sqrt(6), about 6.43e4; squared-integer oracle:
    # 64284^2 = 4132432656 <= 3^12 * 6^5 = 4132485216 < 64285^2
    assert 64284**2 <= 3**12 * 6**5 < 64285**2
    assert compare_count(64284, bound) == "LE"
    assert compare_count(64285, bound) == "GT"


def test_theorem_a_degenerate_empty_group():
    params = VarietyParams(2, 3, 5, 0, 0, 0)
    bound = theorem_a_bound(params)
    assert (bound.constant, bound.den) == (-1, 1)
    assert bound.terms == ()
    assert compare_count(0, bound) == "LE"
    assert compare_count(1, bound) == "GT"  # 1 > 2^-1


def test_remark43_transitive_examples():
    b4 = remark43_transitive_bound(4)
    assert b4.exact_int() == 884736
    assert compare_count(884736, b4) == "LE"
    assert compare_count(884737, b4) == "GT"
    b2 = remark43_transitive_bound(2)
    expected = 0.5 * math.log2(6) + 4  # sqrt(6) * 16
    assert abs(approx(b2) - expected) < 1e-9
    assert compare_count(39, b2) == "LE"
    assert compare_count(40, b2) == "GT"


def test_remark43_gl_example():
    b = remark43_gl_bound(2, 1)
    assert b.exact_int() == 192
    assert compare_count(192, b) == "LE"
    assert compare_count(193, b) == "GT"


def test_prop41_examples():
    b = prop41_bound(1, 2, 3, 7)
    assert b.exact_int() == 6
    b2 = prop41_bound(2, 2, 3, 7)
    assert abs(approx(b2) - math.log2(math.sqrt(6) * 36)) < 1e-9
    assert compare_count(88, b2) == "LE"
    assert compare_count(89, b2) == "GT"
    b3 = prop41_bound(2, 2, 3, 5)
    assert abs(approx(b3) - math.log2(math.sqrt(6) * 25)) < 1e-9
    assert compare_count(61, b3) == "LE"
    assert compare_count(62, b3) == "GT"


def test_soluble_sn_bound():
    b = soluble_sn_bound(5)
    assert b.exact_int() == 36
    b4 = soluble_sn_bound(4)
    # sqrt(6)^3 = 14.69...
    assert compare_count(14, b4) == "LE"
    assert compare_count(15, b4) == "GT"
    assert compare_count(12, b4) == "LE"  # A4 fits


def test_invalid_params():
    with pytest.raises(InvalidParams):
        prop41_bound(0, 2, 3, 5)
    with pytest.raises(InvalidParams):
        prop41_bound(2, 2, 2, 5)
    with pytest.raises(InvalidParams):
        remark43_transitive_bound(1)


def test_gl_bounds_take_prime_power_field_sizes_only():
    # the least prime factor, by trial division, must be the only one; a
    # size with no factor up to the trial limit is prime below its square
    # and refused above it
    for s in (2, 4, 7**5, 2**100, 3**40, 999_999_999_989):
        remark43_gl_bound(s, 2)
        prop41_bound(2, 2, 3, s)
    for s in (-3, 0, 1, 6, 12, 10**12, 2 * 3**40, 73 * 137 * 99_990_001):
        for bound in (lambda: remark43_gl_bound(s, 2), lambda: prop41_bound(2, 2, 3, s)):
            with pytest.raises(InvalidParams, match=f"s = {s} is not a prime power"):
                bound()
    with pytest.raises(LimitExceeded, match="no prime factor up to 1000000"):
        prop41_bound(2, 2, 3, 2**61 - 1)


# -- comparison properties ---------------------------------------------------------


def test_compare_count_zero_always_le():
    assert compare_count(0, theorem_a_bound(VarietyParams(2, 3, 5, 0, 0, 0))) == "LE"


def test_verdicts_monotone_in_precision():
    cases = [
        (2, theorem_a_bound(VarietyParams(3, 2, 5, 1, 1, 0))),
        (884737, remark43_transitive_bound(4)),
        (88, prop41_bound(2, 2, 3, 7)),
        (89, prop41_bound(2, 2, 3, 7)),
        (36, soluble_sn_bound(5)),
    ]
    for count, bound in cases:
        final = compare_count(count, bound)
        for prec in (32, 64, 128, 256):
            v = interval_verdict(count, bound, prec)
            assert v is None or v == final


def test_interval_verdict_agrees_with_exact_on_integral_bounds():
    for count, bound in [
        (884736, remark43_transitive_bound(4)),
        (884737, remark43_transitive_bound(4)),
        (192, remark43_gl_bound(2, 1)),
        (193, remark43_gl_bound(2, 1)),
        (383, theorem_a_bound(VarietyParams(2, 3, 5, 1, 0, 0))),
        (385, theorem_a_bound(VarietyParams(2, 3, 5, 1, 0, 0))),
    ]:
        exact = "LE" if bound.exact_cmp_count(count) <= 0 else "GT"
        assert compare_count(count, bound) == exact


def test_theorem_a_monotone_in_beta_and_gamma():
    for p, q, r in [(3, 2, 5), (2, 3, 5), (5, 2, 3)]:
        for alpha in (0, 1, 2):
            for beta in (0, 1, 2):
                for gamma in (0, 1, 2):
                    here = theorem_a_bound(VarietyParams(p, q, r, alpha, beta, gamma))
                    up_b = theorem_a_bound(VarietyParams(p, q, r, alpha, beta + 1, gamma))
                    up_g = theorem_a_bound(VarietyParams(p, q, r, alpha, beta, gamma + 1))
                    assert exact_le(here, up_b)
                    assert exact_le(here, up_g)


def test_exact_equality_falls_through_intervals():
    # count exactly equal to the bound: intervals can never separate
    bound = remark43_transitive_bound(4)
    assert compare_count(884736, bound) == "LE"
    huge = theorem_a_bound(VarietyParams(2, 3, 5, 1, 0, 0))
    assert compare_count(384, huge) == "LE"


def test_json_shape():
    b = prop41_bound(2, 2, 3, 7)
    data = b.to_json()
    assert "log2" in data and "terms" in data
    assert "exact" not in data  # sqrt(6) factor: not an integer
    b2 = soluble_sn_bound(5)
    assert b2.to_json()["exact"] == 36


def test_to_json_prints_exact_values_up_to_the_printed_digits():
    assert bounds.PRINTED_DIGITS == 4300  # fixed, not read from the interpreter
    widest = LogBound.build(0, {10: 4299})  # 4,300 digits
    assert widest.to_json()["exact"] == 10**4299
    assert "exact" not in LogBound.build(0, {10: 4300}).to_json()
    assert "exact" not in LogBound.build(0, {2: 10**6}).to_json()


def test_to_json_refuses_a_term_base_too_long_to_print():
    assert LogBound.build(0, {10**4300 - 1: 1}).to_json()["terms"][0]["base"] == 10**4300 - 1
    with pytest.raises(LimitExceeded, match="10001 decimal digits, over the print limit"):
        LogBound.build(0, {10**10000: Fraction(1, 2)}).to_json()


# -- the integer form against the Fraction oracle -------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 12]))
# repeated small bases and base 1 are frequent; a huge base takes a small
# coefficient, so that its powers in the exact comparison stay cheap
SMALL_TERMS = st.tuples(st.integers(1, 12) | st.integers(13, 10**12), st.integers(-8, 8) | RATIONALS)
HUGE_TERMS = st.tuples(
    st.sampled_from([2**61 - 1, 3**200, 10**4299, 10**4300 - 1, 10**4300, 7**6000]),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]),
)


def outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-20, 20) | RATIONALS,
    st.lists(SMALL_TERMS | HUGE_TERMS, max_size=6),
    st.sampled_from([1, 2, 3, 4, 12]),
    st.integers(0, 10**6),
)
def test_integer_bound_matches_the_fraction_oracle(constant, terms, den, count):
    bound = LogBound.build(constant, terms, den)
    oracle = bf.FractionLogBound.build(Fraction(constant, den), [(b, Fraction(c) / den) for b, c in terms])
    # lowest terms: den is the lcm of the oracle's reduced denominators
    assert bound.den == math.lcm(oracle.constant.denominator, *(c.denominator for _, c in oracle.terms))
    assert Fraction(bound.constant, bound.den) == oracle.constant
    assert [(b, Fraction(c, bound.den)) for b, c in bound.terms] == list(oracle.terms)
    assert outcome(bound.to_json) == outcome(oracle.to_json)
    assert bound.exact_int() == oracle.exact_int()
    for prec in (32, 64, 128, 256):
        lo, hi = bound.log2_interval(prec)
        assert (Fraction(lo, bound.den << prec), Fraction(hi, bound.den << prec)) == oracle.log2_interval(prec)
    counts = {0, 1, 2, count}
    exact = oracle.exact_int()
    if exact is not None:  # exact equality and its neighbours
        counts |= {exact - 1, exact, exact + 1}
    if oracle.approx_log2() < 200:
        near = math.floor(2 ** oracle.approx_log2())
        counts |= {near - 1, near, near + 1}
    for n in sorted(c for c in counts if c >= 0):
        assert bound.exact_cmp_count(n) == oracle.exact_cmp_count(n)
        assert compare_count(n, bound) == oracle.compare_count(n)
        for prec in (32, 64, 128, 256):
            assert interval_verdict(n, bound, prec) == oracle.interval_verdict(n, prec)


def test_oracle_cases_with_exact_equality_off_the_integers():
    # 2^((1/2) log2 4) = 2 and 2^(log2 3 - 1/2 log2 9 + 3) = 8: the intervals
    # cannot separate these, so the verdict is the powered comparison's
    for constant, terms, count in [(0, [(4, Fraction(1, 2))], 2), (3, [(3, 1), (9, Fraction(-1, 2))], 8)]:
        bound = LogBound.build(constant, terms)
        oracle = bf.FractionLogBound.build(constant, terms)
        assert bound.exact_cmp_count(count) == oracle.exact_cmp_count(count) == 0
        assert bound.exact_int() is oracle.exact_int() is None
        assert compare_count(count, bound) == oracle.compare_count(count) == "LE"
        assert compare_count(count + 1, bound) == oracle.compare_count(count + 1) == "GT"
