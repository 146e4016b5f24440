"""The pruned subgroup-lattice scan against the unpruned one.

cayley.subgroup_lattice skips extensions whose outcome is known (the coset
class of an element already tried, and elements whose extension of a smaller
subgroup was rejected). bruteforce.naive_subgroup_lattice tries every
extension; both must return the same subgroups with the same generators in
the same order. The skipping is exact only when rejection by keep is
upward-closed, so every keep the census and GL scans use is checked for
that too.

Without conjugators every subgroup is its own class. Given conjugators, the
scan keeps one subgroup per conjugacy class with its class: the classes must
partition the unpruned scan's subgroups, each being the set of conjugates of
its representative by every element. That is exact only when keep is
invariant under conjugation, which is checked for every census keep.
"""

import functools
import itertools

import pytest

from agroups import cayley, census
from agroups.gf import field_make
from agroups.matgrp import gl_elements, mat_ops
from agroups.perm import PermGroup, code_order, fixed_point_free, perm_ops

import bruteforce as bf


def sn_codes(n):
    return list(itertools.permutations(range(n)))


def symmetric_group(n):
    # (1 2 ... n) and (1 2)
    return PermGroup(n, [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))])


def assert_classes(G, classes, subgroups, elements):
    """classes, a subgroup_lattice result with conjugators, partitions the
    subgroups into their classes under conjugation by the elements, and each
    representative heads its class and is generated by its generators."""
    members = [H for _, cls in classes.values() for H in cls]
    assert len(members) == len(set(members)) == len(subgroups)  # disjoint
    assert set(members) == set(subgroups)
    for rep, (gens, cls) in classes.items():
        assert cls[0] == rep and cayley.subgroup_closure(G, gens) == rep
        conjugates = {frozenset(G.mul(G.mul(G.inv(g), h), g) for h in rep) for g in elements}
        assert set(cls) == conjugates


def one_per_class(naive):
    """The scan without conjugators, read off the unpruned scan: each
    subgroup with its generators and its one-member class."""
    return [(H, (gens, [H])) for H, gens in naive.items()]


@functools.lru_cache(maxsize=None)
def sn_table(n):
    return bf.table_of(symmetric_group(n))


@functools.lru_cache(maxsize=None)
def naive_table_lattice(n):
    table = sn_table(n)
    return bf.naive_subgroup_lattice(table, range(table.order))


@pytest.mark.parametrize("n", [4, 5])
def test_table_lattice_matches_unpruned_scan(n):
    table = sn_table(n)
    pruned = list(cayley.subgroup_lattice(table, range(table.order)).items())
    assert pruned == one_per_class(naive_table_lattice(n))
    assert len(pruned) == {4: 30, 5: 156}[n]


@pytest.mark.parametrize("n", [4, 5])
def test_table_lattice_classes_match_unpruned_scan(n):
    table = sn_table(n)
    elements = range(table.order)
    classes = cayley.subgroup_lattice(table, elements, conjugators=table.generators)
    assert_classes(table, classes, naive_table_lattice(n), elements)
    assert len(classes) == {4: 11, 5: 19}[n]


PERM_SCANS = [
    (4, (2, 3), None, True),
    (5, (2, 3), 12, True),
    (5, (2, 5), 36, False),
    (5, (3,), None, False),
    (6, (2, 3), 8, True),
    (6, (2,), 8, False),
    (6, (3,), 9, True),
    (3, (2, 3), None, False),
    (4, (2, 3), None, False),
]


@functools.lru_cache(maxsize=None)
def perm_scan_inputs(n, primes, cap, smooth):
    universe = [g for g in sn_codes(n) if code_order(g) in primes]
    keep = census._scan_keep(n, primes, False) if smooth else None
    return universe, keep, bf.naive_subgroup_lattice(perm_ops(n), universe, cap, keep)


@pytest.mark.parametrize("n, primes, cap, smooth", PERM_SCANS)
def test_prime_order_perm_lattice_matches_unpruned_scan(n, primes, cap, smooth):
    universe, keep, naive = perm_scan_inputs(n, primes, cap, smooth)
    pruned = cayley.subgroup_lattice(perm_ops(n), universe, cap, keep)
    assert list(pruned.items()) == one_per_class(naive)


@pytest.mark.parametrize("n, primes, cap, smooth", PERM_SCANS)
def test_prime_order_perm_classes_match_unpruned_scan(n, primes, cap, smooth):
    universe, keep, naive = perm_scan_inputs(n, primes, cap, smooth)
    ops = perm_ops(n)
    classes = cayley.subgroup_lattice(ops, universe, cap, keep, census._sn_generators(n))
    assert_classes(ops, classes, naive, sn_codes(n))
    assert len(classes) < len(naive)


def old_regular_post_filter(n, subs, r):
    """The filter elementary_abelian_regular_scan applied after an unfiltered
    scan: every nontrivial element fixed-point free of order r, and abelian."""
    ops = perm_ops(n)
    out = {}
    for elems, gens in subs.items():
        if not all(
            g == ops.identity or (code_order(g) == r and fixed_point_free(g)) for g in elems
        ):
            continue
        members = sorted(elems)
        if all(
            ops.mul(x, y) == ops.mul(y, x) for i, x in enumerate(members) for y in members[i + 1 :]
        ):
            out[elems] = gens
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_regular_scan_matches_unpruned_scan_then_filter(n):
    ops = perm_ops(n)
    for r in (2, 3, 5):
        if r > n:
            continue
        universe = [g for g in sn_codes(n) if code_order(g) == r and fixed_point_free(g)]
        naive = bf.naive_subgroup_lattice(
            ops, universe, n, lambda sub: census._divides_primes(len(sub), (r,))
        )
        expected = old_regular_post_filter(n, naive, r)
        keep = census._scan_keep(n, (r,), True)
        scan = cayley.subgroup_lattice(ops, universe, n, keep)
        assert list(scan.items()) == one_per_class(expected)
        classes = census.elementary_abelian_regular_scan(n, r)
        assert_classes(ops, classes, expected, sn_codes(n))


# (primes, fpf_only) for every scan the census runs: the smooth keep of one
# prime or a pair, and the elementary abelian fixed-point-free keep of one
CENSUS_KEEPS = [
    *(((u,), fpf_only) for u in (2, 3, 5) for fpf_only in (False, True)),
    *(((q, r), False) for q, r in ((2, 3), (2, 5), (3, 5))),
]


@pytest.mark.parametrize("n", [4, 5])
def test_census_keeps_are_conjugation_invariant(n):
    # invariance under the generators of S_n is invariance under S_n
    ops = perm_ops(n)
    elems = symmetric_group(n).codes()
    subgroups = [frozenset(elems[i] for i in sub) for sub in cayley.all_subgroups(sn_table(n))]
    conjugates = [
        (H, frozenset(ops.mul(ops.mul(ops.inv(g), h), g) for h in H))
        for H in subgroups
        for g in census._sn_generators(n)
    ]
    for primes, fpf_only in CENSUS_KEEPS:
        keep = census._scan_keep(n, primes, fpf_only)
        for H, K in conjugates:
            assert keep(H) == keep(K), (primes, fpf_only, len(H))


@pytest.mark.parametrize("n", [4, 5])
def test_census_keeps_are_upward_closed(n):
    Sn = symmetric_group(n)
    elems = Sn.codes()
    table = bf.table_of(Sn)
    subgroups = [frozenset(elems[i] for i in sub) for sub in cayley.all_subgroups(table)]
    rejections = 0
    for primes, fpf_only in CENSUS_KEEPS:
        keep = census._scan_keep(n, primes, fpf_only)
        rejected = [H for H in subgroups if not keep(H)]
        kept = [K for K in subgroups if keep(K)]
        for H in rejected:
            assert not any(H < K for K in kept), (primes, fpf_only, len(H))
        rejections += len(rejected)
    assert rejections


def test_gl_abelian_keep_is_upward_closed_on_gl23():
    # the keep of matgrp's elementary abelian scan, on every subgroup of GL(2, 3)
    spec = field_make(3, 1)
    ops = mat_ops(2, spec)
    codes = list(gl_elements(2, spec))
    subgroups = list(bf.naive_subgroup_lattice(ops, codes))
    assert len(subgroups) == 55
    for r in (2, 3):
        rejected = [H for H in subgroups if not cayley._abelian_of_exponent(ops, H, r)]
        kept = [K for K in subgroups if cayley._abelian_of_exponent(ops, K, r)]
        for H in rejected:
            assert not any(H < K for K in kept), (r, len(H))
        assert rejected and kept
