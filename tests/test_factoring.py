"""gf's trial search (is_prime, prime_factors, multiplicative_order) and
bounds' field-size check against sympy.ntheory (test-only; sympy is no
runtime dependency).

Every trial search spends TRIAL_DIVISION_LIMIT: an integer above the limit
squared with no prime factor up to it is LimitExceeded, whatever it is. The
draws run up to 10^12, the limit squared, where every answer is decided;
the examples add the edges on either side of it.
"""

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agroups import bounds, gf
from agroups.errors import BadModulus, InvalidParams, LimitExceeded, NotCoprime

ntheory = pytest.importorskip("sympy.ntheory")

LIMIT = gf.TRIAL_DIVISION_LIMIT
EDGES = (0, 1, 2, 10**12 - 1, 10**12, 10**12 + 1, 999999999989, 1000003**2, 2**40, 2**89 - 1, 3 * 2**89)


def with_edges(*more):
    """Hypothesis draws n <= 10^12 and the further arguments, and adds each
    edge value as an example, with 10 for each further argument."""

    def wrap(test):
        for n in EDGES:
            test = example(n, *[10] * len(more))(test)
        return given(st.integers(0, 10**12), *more)(settings(max_examples=60, deadline=None)(test))

    return wrap


def decided(n: int) -> bool:
    """A search up to the limit finds a factor of n >= 2 or passes sqrt(n)."""
    return n <= LIMIT**2 or min(ntheory.factorint(n)) <= LIMIT


def factoring_decided(n: int) -> bool:
    """Each cofactor that factoring n >= 1 searches (n with its primes below
    some prime of n divided out) is decided."""
    for p, k in sorted(ntheory.factorint(n).items()):
        if not decided(n):
            return False
        n //= p**k
    return True


@with_edges()
def test_is_prime_matches_sympy(n):
    if n >= 2 and not decided(n):
        with pytest.raises(LimitExceeded, match=f"{n} has no prime factor up to {LIMIT}"):
            gf.is_prime(n)
    else:
        assert gf.is_prime(n) == ntheory.isprime(n)


@with_edges()
def test_prime_factors_match_sympy(n):
    if n < 1:
        with pytest.raises(ValueError):
            gf.prime_factors(n)
    elif not factoring_decided(n):
        with pytest.raises(LimitExceeded):
            gf.prime_factors(n)
    else:
        assert gf.prime_factors(n) == ntheory.factorint(n)


@with_edges(st.integers(0, 10**12))
def test_multiplicative_order_matches_sympy(m, a):
    if m < 2:
        with pytest.raises(BadModulus):
            gf.multiplicative_order(a, m)
    elif math.gcd(a, m) != 1:
        with pytest.raises(NotCoprime):
            gf.multiplicative_order(a, m)
    elif not factoring_decided(m) or not factoring_decided(
        math.prod((p - 1) * p ** (k - 1) for p, k in ntheory.factorint(m).items())
    ):
        with pytest.raises(LimitExceeded):
            gf.multiplicative_order(a, m)
    else:
        assert gf.multiplicative_order(a, m) == ntheory.n_order(a, m)


@with_edges()
def test_field_size_check_matches_sympy(s):
    if s >= 2 and not decided(s):
        with pytest.raises(LimitExceeded, match=f"s = {s} has no prime factor up to {LIMIT}"):
            bounds._check_field_size(s)
    elif s < 2 or len(ntheory.factorint(s)) != 1:
        with pytest.raises(InvalidParams, match=f"s = {s} is not a prime power"):
            bounds._check_field_size(s)
    else:
        bounds._check_field_size(s)


def test_prime_factors_spends_the_trial_budget():
    # two primes above the limit: their product passes 10^12 with no factor
    # up to 10^6, so the search gives up at the limit instead of going on
    n = 1000003 * 1000033
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match=f"{n} has no prime factor up to {LIMIT}"):
        gf.prime_factors(n)
    assert time.perf_counter() - start < 1
