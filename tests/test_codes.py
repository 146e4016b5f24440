"""Permutation codes (0-based image tuples) against sympy.

perm.perm_ops binds the subgroup kernel to codes, and Perm wraps one code
and delegates its product, inverse, power and order to the kernel. So the
Perm side of these comparisons checks only the wrapping (code and images
agree); sympy.combinatorics.Permutation, whose products also compose left to
right, is the independent side. The brute-force differential of Perm's
arithmetic without sympy is in test_perm.py. The coded order and
fixed-point-free helpers are compared with Perm.order and Perm.cycles.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups.perm import Perm, code_order, fixed_point_free, perm_ops

combinatorics = pytest.importorskip("sympy.combinatorics")


def check_pair(n, a, b):
    ops = perm_ops(n)
    pa, pb = Perm.from_code(a), Perm.from_code(b)
    sa, sb = combinatorics.Permutation(list(a)), combinatorics.Permutation(list(b))
    assert pa.code() == a and pa.images == tuple(i + 1 for i in a)
    assert ops.mul(a, b) == (pa * pb).code() == tuple((sa * sb).array_form)
    assert ops.inv(a) == pa.inverse().code() == tuple((~sa).array_form)
    assert ops.mul(a, ops.inv(a)) == ops.identity


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_ops_on_all_pairs(n):
    ops = perm_ops(n)
    assert ops.identity == Perm.identity(n).code() == tuple(combinatorics.Permutation(n - 1).array_form)
    elems = list(itertools.permutations(range(n)))
    for a, b in itertools.product(elems, repeat=2):
        check_pair(n, a, b)


@st.composite
def code_pairs(draw):
    n = draw(st.integers(1, 8))
    return n, tuple(draw(st.permutations(range(n)))), tuple(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(code_pairs())
def test_code_ops_on_random_pairs(case):
    check_pair(*case)


def test_code_order_and_fixed_point_free_on_s6():
    for code in itertools.permutations(range(6)):
        p = Perm.from_code(code)
        assert code_order(code) == p.order()
        assert fixed_point_free(code) == (sum(map(len, p.cycles())) == 6)
