import hashlib
import math

import pytest

from agroups import gf
from agroups.cayley import _power
from agroups.errors import BadModulus, FieldMismatch, LimitExceeded, NotCoprime, NotPrime
from agroups.matgrp import closure, mat_ops

from bruteforce import FieldElem, naive_irreducible_quadratics, naive_multiplicative_order


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
    tab = gf.field_make(2, 2).tables
    x, one = 2, 1  # the indices of x and 1; x + 1 is index 3
    assert tab.mul[x][x] == 3  # x^2 = x + 1
    assert tab.mul[tab.mul[x][x]][x] == one
    assert tab.sub[3][x] == one and tab.neg[x] == x  # characteristic 2
    assert tab.inv[x] == 3


def test_gf3_inverse():
    tab = gf.field_make(3, 1).tables
    assert tab.mul[2][2] == 1  # 2 * 2 = 4 = 1
    assert tab.inv[2] == 2


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


ORACLE_FIELDS = [(t, k) for t in range(2, 65) if gf.is_prime(t) for k in range(1, 7) if t**k <= 64]


def test_tables_match_the_polynomial_oracle():
    # exhaustive over every field with s <= 64: each table entry against the
    # tests' FieldElem, which multiplies polynomials over the integers mod t
    assert len(ORACLE_FIELDS) == 27
    for t, k in ORACLE_FIELDS:
        spec = gf.field_make(t, k)
        tab = spec.tables
        elems = FieldElem.elements(spec)
        assert [e.index for e in elems] == list(range(spec.s))
        for a, x in enumerate(elems):
            assert tab.neg[a] == (-x).index
            products = [(x * y).index for y in elems]
            assert list(tab.mul[a]) == products
            assert list(tab.add[a]) == [(x + y).index for y in elems]
            assert list(tab.sub[a]) == [(x - y).index for y in elems]
            assert tab.inv[a] == (products.index(1) if a else 0)


# SHA-256 of repr(tuple(tables)), recorded while the tables were still read
# off the polynomial products of every pair of elements
LARGE_TABLE_DIGESTS = {
    (2, 10): "15dd7f2443759b333ed006541bfcc60e718977d153b1640715b1bab6a83ed225",
    (3, 6): "e70eeaf1a43b0ddd9d5ae1e2b9f5e5d6b38912d49fadb54fe3f910e086cd9eda",
}


@pytest.mark.parametrize("t, k", sorted(LARGE_TABLE_DIGESTS), ids=["GF(1024)", "GF(729)"])
def test_large_field_tables_match_recorded_digest(t, k):
    tab = gf.field_make(t, k).tables
    digest = hashlib.sha256(repr(tuple(tab)).encode()).hexdigest()
    assert digest == LARGE_TABLE_DIGESTS[t, k]


def test_moduli_match_recorded_digest():
    # every (t, k) with t^k <= 10^4, recorded while field_make searched with
    # its own integer polynomial helpers
    moduli = [
        (t, k, gf.field_make(t, k).modulus)
        for t in range(2, 10**4 + 1)
        if gf.is_prime(t)
        for k in range(1, 15)
        if t**k <= 10**4
    ]
    assert len(moduli) == 1280
    digest = hashlib.sha256(repr(moduli).encode()).hexdigest()
    assert digest == "ddccd7480bda9d1de1e77485e97524ac45fcb7356d28a89810091225b90039c8"


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
    big = gf.field_make(1031, 1)  # no search and no tables at degree 1
    assert big.s > gf.FIELD_TABLE_LIMIT
    assert big.coefficients(1030) == (1030,)
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


def test_field_axioms_sampled():
    # the tests' polynomial oracle is a field
    spec = gf.field_make(3, 2)
    elems = FieldElem.elements(spec)
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
    assert spec.tables.inv[0] == 0  # zero has no inverse; 0 stands for none
    with pytest.raises(FieldMismatch):
        closure(1, spec, [(4,)])  # 4 is no element of GF(4)


def test_json_roundtrip():
    spec = gf.field_make(3, 2)
    data = spec.to_json()
    assert gf.FieldSpec(data["t"], data["k"], tuple(data["modulus"])) == spec
    assert spec.coefficients(5) == (2, 1)  # 2 + x
    for i in range(spec.s):
        assert FieldElem(spec, spec.coefficients(i)).index == i


def test_pow_large_exponent():
    # powers run on element indices, as 1 x 1 matrix codes
    ops = mat_ops(1, gf.field_make(2, 2))
    x = (2,)  # the index of x
    assert _power(ops, x, 3 * 10**12) == ops.identity
    assert _power(ops, x, 3 * 10**12 + 1) == x
