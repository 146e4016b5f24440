"""Differential checks of the subgroup kernel in cayley.

The kernel's closure, normal closure and derived subgroup on permutation
codes are compared with sympy.combinatorics (test-only; Schreier-Sims
there), and its two-prime variety verdict on the permutations of every
subgroup of S4 and S5 is compared with the definitional witness search on
the subgroup's own table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from agroups import cayley  # noqa: E402
from agroups.perm import Perm, PermGroup, perm_ops  # noqa: E402


@st.composite
def perm_gens(draw):
    n = draw(st.integers(2, 7))
    count = draw(st.integers(1, 3))
    gens = [tuple(draw(st.permutations(range(n)))) for _ in range(count)]
    return n, gens


def to_sympy(gens):
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])


@settings(max_examples=60, deadline=None)
@given(perm_gens(), st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_kernel_orders_match_sympy(case, word):
    n, gens = case
    ops = perm_ops(n)
    G = to_sympy(gens)
    assert len(cayley.subgroup_closure(ops, gens)) == G.order()
    # a seed inside <gens>: a word in the generators
    seed = ops.identity
    for i in word:
        seed = ops.mul(seed, gens[i % len(gens)])
    ncl = cayley.normal_closure(ops, [seed], gens)[0]
    assert len(ncl) == G.normal_closure(to_sympy([seed])).order()
    derived = cayley.verbal_subgroup(ops, gens, 0)[0]
    assert len(derived) == G.derived_subgroup().order()


CHAINS = [(2, 3), (3, 2), (2, 5), (5, 2)]


@pytest.mark.parametrize("n", [4, 5])
def test_variety_verdicts_match_witness_search_on_every_subgroup(n):
    Sn = PermGroup(n, [Perm.from_cycles(n, [list(range(1, n + 1))]), Perm.from_cycles(n, [[1, 2]])])
    elems = Sn.elements()
    lattice = cayley.subgroup_lattice(cayley.cayley_from(Sn), range(len(elems)))
    assert len(lattice) == {4: 30, 5: 156}[n]
    verdicts = set()
    for gens in lattice.values():
        perms = [elems[i] for i in gens]
        table = cayley.cayley_from(PermGroup(n, perms))
        for chain in CHAINS:
            fast = cayley.in_variety(perm_ops(n), chain, [g.code() for g in perms])
            assert fast == cayley.in_variety_exhaustive(table, chain), (table.order, chain)
            verdicts.add(fast)
    assert verdicts == {True, False}
