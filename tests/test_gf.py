import math

import pytest

from agroups import gf
from agroups.errors import (
    BadModulus,
    DivisionByZero,
    FieldMismatch,
    LimitExceeded,
    NotCoprime,
    NotPrime,
    ZeroElement,
)

from bruteforce import naive_irreducible_quadratics, naive_multiplicative_order


def test_multiplicative_order_examples():
    assert gf.multiplicative_order(2, 3) == 2
    assert gf.multiplicative_order(3, 2) == 1
    assert gf.multiplicative_order(2, 7) == 3
    assert gf.multiplicative_order(2, 5) == 4


def test_multiplicative_order_matches_naive_scan():
    for m in range(2, 40):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            e = gf.multiplicative_order(a, m)
            assert e == naive_multiplicative_order(a, m)
            assert pow(a, e, m) == 1
            assert all(pow(a, f, m) != 1 for f in range(1, e))


def test_multiplicative_order_errors():
    with pytest.raises(NotCoprime):
        gf.multiplicative_order(2, 4)
    with pytest.raises(BadModulus):
        gf.multiplicative_order(2, 1)
    with pytest.raises(BadModulus):
        gf.multiplicative_order(2, 0)


def test_field_make_degree_one():
    spec = gf.field_make(2, 1)
    assert spec.modulus == (0, 1)
    assert spec.s == 2


def test_field_make_gf4():
    spec = gf.field_make(2, 2)
    assert spec.modulus == (1, 1, 1)  # x^2 + x + 1


def test_field_make_gf9_matches_exhaustive_scan():
    # oracle: least monic irreducible quadratic over GF(3), comparing
    # coefficients from highest to lowest degree
    candidates = naive_irreducible_quadratics(3)
    least = min(candidates, key=lambda p: (p[1], p[0]))
    spec = gf.field_make(3, 2)
    assert spec.modulus == least == (1, 0, 1)  # x^2 + 1


def test_field_make_deterministic():
    assert gf.field_make(5, 2) == gf.field_make(5, 2)


def test_field_make_errors():
    with pytest.raises(NotPrime):
        gf.field_make(4, 1)
    with pytest.raises(LimitExceeded):
        gf.field_make(2, 20)


def test_gf4_arithmetic():
    spec = gf.field_make(2, 2)
    x = spec.element((0, 1))
    one = spec.one()
    assert x * x == spec.element((1, 1))  # x^2 = x + 1
    assert x**3 == one
    assert x.order() == 3


def test_gf3_inverse():
    spec = gf.field_make(3, 1)
    two = spec.element((2,))
    assert two.inverse() == two  # 2 * 2 = 4 = 1


SMALL_FIELDS = [(t, k) for t in range(2, 33) if gf.is_prime(t) for k in range(1, 6) if t**k <= 32]


def test_field_tables_satisfy_the_axioms():
    # exhaustive over every field with s <= 32, read through the tables only
    assert len(SMALL_FIELDS) == 18
    for t, k in SMALL_FIELDS:
        spec = gf.field_make(t, k)
        tab = spec.tables
        add, mul, elems = tab.add, tab.mul, range(spec.s)
        for a in elems:
            assert add[0][a] == a and mul[1][a] == a and mul[0][a] == 0
            assert add[a][tab.neg[a]] == 0
            assert a == 0 or mul[a][tab.inv[a]] == 1
            for b in elems:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
                assert tab.sub[a][b] == add[a][tab.neg[b]]
                for c in elems:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_prime_field_tables_are_residue_arithmetic():
    for t, k in SMALL_FIELDS:
        if k != 1:
            continue
        tab = gf.field_make(t, 1).tables
        for a in range(t):
            assert tab.neg[a] == -a % t
            assert a == 0 or tab.inv[a] == pow(a, t - 2, t)
            for b in range(t):
                assert tab.add[a][b] == (a + b) % t
                assert tab.sub[a][b] == (a - b) % t
                assert tab.mul[a][b] == a * b % t


def test_field_tables_limit():
    big = gf.field_make(1031, 1)
    assert big.s > gf.FIELD_TABLE_LIMIT
    assert (big.one() + big.one()).index == 2  # element arithmetic still works
    with pytest.raises(LimitExceeded):
        big.tables


def test_field_tables_are_not_built_at_import():
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(gf.__file__).parents[1]))
    code = "import agroups, agroups.gf as g; print(g._field_tables.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "0"


def test_element_order_examples():
    gf4 = gf.field_make(2, 2)
    assert gf4.element((0, 1)).order() == 3
    assert gf4.one().order() == 1
    gf5 = gf.field_make(5, 1)
    assert gf5.element((2,)).order() == 4


def test_element_order_divides_group_order():
    for t, k in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1), (7, 1)]:
        spec = gf.field_make(t, k)
        for x in spec.elements():
            if x.is_zero():
                continue
            assert (spec.s - 1) % x.order() == 0


def test_inverse_roundtrip_all_elements():
    for t, k in [(2, 2), (3, 2), (5, 1), (2, 3)]:
        spec = gf.field_make(t, k)
        for x in spec.elements():
            if x.is_zero():
                continue
            assert x * x.inverse() == spec.one()


def test_field_axioms_sampled():
    spec = gf.field_make(3, 2)
    elems = spec.elements()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    for a in elems[:4]:
        for b in elems:
            for c in elems:
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)


def test_zero_division_and_mismatch():
    spec = gf.field_make(2, 2)
    other = gf.field_make(3, 1)
    with pytest.raises(DivisionByZero):
        spec.zero().inverse()
    with pytest.raises(ZeroElement):
        spec.zero().order()
    with pytest.raises(FieldMismatch):
        spec.one() + other.one()


def test_json_roundtrip():
    spec = gf.field_make(3, 2)
    again = gf.FieldSpec.from_json(spec.to_json())
    assert again == spec
    x = spec.element((2, 1))
    assert spec.element(tuple(x.to_json())) == x


def test_json_accepts_noncanonical_irreducible_modulus():
    # x^2 + x + 2 over GF(3) has no roots, so it is a valid alternative
    spec = gf.FieldSpec.from_json({"t": 3, "k": 2, "modulus": [2, 1, 1]})
    assert spec.modulus == (2, 1, 1)
    x = spec.element((0, 1))
    assert x * x == spec.element((1, 2))  # x^2 = -x - 2 = 2x + 1
    with pytest.raises(BadModulus):
        gf.FieldSpec.from_json({"t": 3, "k": 2, "modulus": [2, 0, 1]})  # x^2 + 2 = (x+1)(x+2)


def test_pow_large_exponent():
    spec = gf.field_make(2, 2)
    x = spec.element((0, 1))
    assert x ** (3 * 10**12) == spec.one()
    assert x ** (3 * 10**12 + 1) == x
