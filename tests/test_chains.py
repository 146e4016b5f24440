"""Differential checks of PermGroup and of the stabiliser-chain oracle
(bruteforce.Chain) against sympy.combinatorics (test-only; sympy is no
runtime dependency).

Generators are drawn in S_n for n <= 8 in three shapes, so that besides the
S_n and A_n that random permutations mostly generate, intransitive groups
(permutations of an initial segment of the points) and imprimitive ones
(permutations of the blocks of a fixed partition) come up too. Order,
membership, transitivity, minimal blocks, primitivity, the element list and
point-stabiliser orders are compared with sympy's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from agroups.errors import LimitExceeded, NotTransitive  # noqa: E402
from agroups.perm import EXHAUSTIVE_ORDER_LIMIT, PermGroup, minimal_block, perm_ops  # noqa: E402

import bruteforce as bf  # noqa: E402


@st.composite
def generator_sets(draw):
    """(n, generators as 0-based codes)."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["any", "segment", "blocks"]))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if shape == "any":
            code = draw(st.permutations(range(n)))
        elif shape == "segment":
            m = draw(st.integers(1, n))
            code = list(draw(st.permutations(range(m)))) + list(range(m, n))
        else:
            # block b of size d goes to block sigma(b), point i within it to tau_b(i)
            sigma = draw(st.permutations(range(n // d)))
            code = [0] * n
            for b in range(n // d):
                tau = draw(st.permutations(range(d)))
                for i in range(d):
                    code[b * d + i] = sigma[b] * d + tau[i]
        gens.append(tuple(code))
    return n, gens


def both(n, gens):
    ours = PermGroup(n, gens)
    theirs = combinatorics.PermutationGroup([combinatorics.Permutation(list(c)) for c in gens])
    return ours, theirs


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.data())
def test_order_and_membership_match_sympy(case, data):
    n, gens = case
    G, S = both(n, gens)
    chain = bf.Chain(n, gens)
    assert chain.order == S.order()
    if S.order() <= EXHAUSTIVE_ORDER_LIMIT:
        assert G.order == S.order()
    word = data.draw(st.lists(st.sampled_from(gens), max_size=6))
    ops = perm_ops(n)
    inside = ops.identity
    for c in word:
        inside = ops.mul(inside, c)
    anywhere = tuple(data.draw(st.permutations(range(n))))
    for p in (inside, anywhere):
        assert chain.contains(p) == S.contains(combinatorics.Permutation(list(p)))
    assert chain.contains(inside)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_orbits_blocks_and_primitivity_match_sympy(case):
    n, gens = case
    G, S = both(n, gens)
    if not S.is_transitive():
        with pytest.raises(NotTransitive):
            G.is_primitive()
        return
    for b in range(2, n + 1):
        labels = S.minimal_block([0, b - 1])
        block = minimal_block(n, G.generators, 1, b)
        assert block == {p + 1 for p in range(n) if labels[p] == labels[0]}
    assert G.is_primitive() == S.is_primitive(randomized=False)


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_point_stabilizer_orders_match_sympy(case):
    """The element list is sympy's, and the members fixing each point count
    its stabiliser; above the exhaustive limit the list is refused."""
    n, gens = case
    G, S = both(n, gens)
    if S.order() > EXHAUSTIVE_ORDER_LIMIT:
        with pytest.raises(LimitExceeded):
            G.codes()
        return
    codes = G.codes()
    assert codes == sorted(tuple(p.array_form) for p in S.generate())
    for point in range(n):
        assert sum(g[point] == point for g in codes) == S.stabilizer(point).order()
