"""Permutation codes (0-based image tuples) against sympy.

perm.perm_ops binds the subgroup kernel to codes: its product, inverse and
identity, and the coded order and fixed-point-free helpers, are compared
with sympy.combinatorics.Permutation, whose products also compose left to
right. The brute-force differential of the code arithmetic on 1-based image
tuples, without sympy, is in test_perm.py.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups.perm import code_order, fixed_point_free, perm_ops

combinatorics = pytest.importorskip("sympy.combinatorics")


def check_pair(n, a, b):
    ops = perm_ops(n)
    sa, sb = combinatorics.Permutation(list(a)), combinatorics.Permutation(list(b))
    assert ops.mul(a, b) == tuple((sa * sb).array_form)
    assert ops.inv(a) == tuple((~sa).array_form)
    assert ops.mul(a, ops.inv(a)) == ops.identity


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_ops_on_all_pairs(n):
    ops = perm_ops(n)
    assert ops.identity == tuple(combinatorics.Permutation(n - 1).array_form)
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
        p = combinatorics.Permutation(list(code))
        assert code_order(code) == p.order()
        assert fixed_point_free(code) == (p.support() == list(range(6)))
