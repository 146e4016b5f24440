import gc
import hashlib
import itertools
import json
import math
import weakref

import pytest

from agroups import cayley, census, matgrp, perm
from agroups.cayley import CayleyGroup, VarietyParams, are_isomorphic, elementary_abelian_table, in_variety
from agroups.census import (
    enumerate_primitive_ar_classes,
    enumerate_primitive_classes,
    enumerate_transitive_classes,
    enumerate_variety_groups,
)
from agroups.cayley import homomorphisms_to_mats
from agroups.construct import primitive_aqar_group
from agroups.errors import DegreeLimit, InvalidParams, NotPrime
from agroups.gf import field_make
from agroups.matgrp import gl_elements, mat_ops
from agroups.perm import PermGroup, parse_cycles, subgroup_conjugate
from agroups.selftest import CENSUS_CASES

import bruteforce as bf
from bruteforce import cyclic_table, direct_product_table


def pgroup(degree, *texts):
    return PermGroup(degree, [parse_cycles(t, degree) for t in texts])


# -- recorded inventories ---------------------------------------------------------

# SHA-256 of the sorted-key JSON line of each inventory, recorded while the
# lattice scans still ran on Perm objects; any change in a class list, order,
# signature, class size or generator changes its digest
GOLDEN_INVENTORIES = [
    pytest.param(
        enumerate_transitive_classes,
        (6, 3, 5),
        "eb58bfa438d2674ee6321d453626c7bb73aaa6161c087a66f07fdb68723b3848",
        id="transitive-6.3.5",
    ),
    pytest.param(
        enumerate_primitive_classes,
        (8, 2, 7),
        "e61dbd70bdd92d42caf1b5da9d7c18267ba66ebcc86e8383ae01a511fc54da31",
        id="primitive-8.2.7",
    ),
]


@pytest.mark.parametrize("fn, args, digest", GOLDEN_INVENTORIES)
def test_inventory_matches_recorded_digest(fn, args, digest):
    line = json.dumps(fn(*args).to_json(), sort_keys=True) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == digest


# -- transitive inventories -----------------------------------------------------


def test_transitive_4_2_3():
    inv = enumerate_transitive_classes(4, 2, 3)
    assert inv.count == 2
    orders = sorted(e.order for e in inv.classes)
    assert orders == [4, 12]  # V4 regular and A4
    v4 = next(e for e in inv.classes if e.order == 4)
    assert v4.representative.is_transitive()
    a4 = next(e for e in inv.classes if e.order == 12)
    assert subgroup_conjugate(a4.representative, pgroup(4, "(1 2 3)", "(2 3 4)")) is not None


def test_transitive_3_3_2():
    inv = enumerate_transitive_classes(3, 3, 2)
    assert sorted(e.order for e in inv.classes) == [3, 6]


def test_class_sizes_count_all_conjugates():
    inv = enumerate_transitive_classes(4, 2, 3)
    assert {(e.order, e.class_size) for e in inv.classes} == {(4, 1), (12, 1)}
    # S5: six C5 subgroups and six dihedral copies
    inv5 = enumerate_primitive_classes(5, 5, 2)
    assert {(e.order, e.class_size) for e in inv5.classes} == {(5, 6), (10, 6)}


def test_transitive_2_2_3():
    inv = enumerate_transitive_classes(2, 2, 3)
    assert inv.count == 1
    assert inv.classes[0].order == 2


def test_transitive_excludes_non_variety_groups():
    # transitive subgroups of S4 include C4, D4, S4: none in the [2, 3] variety
    inv = enumerate_transitive_classes(4, 2, 3)
    assert all(e.order in (4, 12) for e in inv.classes)
    # and with primes {3, 5} nothing is transitive on 4 points
    assert enumerate_transitive_classes(4, 3, 5).count == 0


def test_transitive_degree_limit():
    with pytest.raises(DegreeLimit):
        enumerate_transitive_classes(7, 2, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_degree_is_invalid(n):
    with pytest.raises(InvalidParams):
        enumerate_transitive_classes(n, 2, 3)
    with pytest.raises(InvalidParams):
        enumerate_primitive_classes(n, 2, 3)
    with pytest.raises(InvalidParams):
        enumerate_primitive_ar_classes(n, 2)


@pytest.mark.parametrize("r", [1, 4, 6])
def test_regular_scan_refuses_a_composite_order(r):
    # the single-prime variety [r] is elementary abelian of exponent r only
    # for prime r
    with pytest.raises(NotPrime):
        enumerate_primitive_ar_classes(6, r)


# -- the class scan against the pairwise route ------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_inventories_match_pairwise_oracle(n):
    for q, r in itertools.permutations((2, 3, 5), 2):
        for kind, fn in (
            ("transitive", enumerate_transitive_classes),
            ("primitive", enumerate_primitive_classes),
        ):
            expected = bf.pairwise_inventory(kind, n, q, r).to_json()
            assert fn(n, q, r).to_json() == expected, (kind, q, r)


@pytest.mark.parametrize("n", range(1, 8))
def test_primitive_ar_inventories_match_pairwise_oracle(n):
    for r in (2, 3, 5, 7):
        expected = bf.pairwise_inventory("primitive_ar", n, r, None).to_json()
        assert enumerate_primitive_ar_classes(n, r).to_json() == expected, r


@pytest.mark.parametrize("n", [7, 8])
def test_regular_normal_inventories_match_pairwise_oracle(n):
    nonempty = 0
    for q, r in itertools.permutations((2, 3, 5, 7), 2):
        expected = bf.pairwise_inventory("primitive", n, q, r).to_json()
        assert enumerate_primitive_classes(n, q, r).to_json() == expected, (q, r)
        nonempty += bool(expected["classes"])
    assert nonempty


@pytest.mark.parametrize("q, r", [(7, 2), (2, 7), (7, 3), (3, 7)])
def test_generic_scan_agrees_with_regular_normal_route_at_degree_7(q, r):
    generic = bf.generic_primitive_inventory(7, q, r)
    regular = enumerate_primitive_classes(7, q, r)
    assert generic.filter_desc == regular.filter_desc
    assert [(e.order, e.signature) for e in generic.classes] == [
        (e.order, e.signature) for e in regular.classes
    ]
    assert generic.count
    for g, h in zip(generic.classes, regular.classes):
        assert subgroup_conjugate(g.representative, h.representative) is not None
        # the generic size is the whole S_7-class; the regular route counts
        # the members containing its fixed C7, which is normal in each, and
        # the C7 are one class of 7!/42 = 120
        assert (g.class_size, h.class_size) == (120, 1)


@pytest.mark.parametrize("n", [7, 8])
def test_sn_class_length_is_the_index_times_the_class_size(n):
    # at degrees 7 and 8 a class size counts the members of the S_n-class
    # that contain T, which is normal in each; the S_n-class holds one
    # N(T)_0-class per conjugate of T, and the conjugates of T are one class
    # of n!/(n |Aut T|), 120 of them at degree 7 and 30 at degree 8
    ((u, k),) = census.prime_factors(n).items()
    aut_order = math.prod(u**k - u**i for i in range(k))
    index = math.factorial(n) // (n * aut_order)
    ops, sn_gens = perm.perm_ops(n), census._sn_generators(n)
    checked = 0
    for q, r in itertools.permutations((2, 3, 5, 7), 2):
        for entry in enumerate_primitive_classes(n, q, r).classes:
            members = frozenset(entry.representative.codes())
            length = len(cayley.conjugation_orbit(ops, members, sn_gens))
            assert length == index * entry.class_size, (q, r, entry.order)
            if n == 7:
                assert (length, entry.class_size) == (120, 1), (q, r, entry.order)
            checked += 1
    assert checked


# -- the scans' universes without S_n -------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_prime_order_universe_matches_the_filtered_sn(n):
    for p in (2, 3, 5, 7):
        built = census._prime_order_codes(n, (p,))
        assert built == bf.naive_prime_order_codes(n, (p,), False), p
        if p > n:
            assert built == [], p
        # the oracle's fixed-point-free universe (bf.regular_scan)
        assert [g for g in built if bf.fixed_point_free(g)] == bf.naive_prime_order_codes(
            n, (p,), True
        ), p
    for primes in ((2, 3), (2, 5, 7)):
        assert census._prime_order_codes(n, primes) == bf.naive_prime_order_codes(
            n, primes, False
        )


def translations(u, k):
    """The degree, the elements and the unit-vector basis of the regular
    (C_u)^k on the points 0 .. u^k - 1 read as base-u digit vectors."""
    n = u**k

    def add(x, v):
        return sum((x // u**j + v // u**j) % u * u**j for j in range(k))

    def code(v):
        return tuple(add(x, v) for x in range(n))

    return n, [code(v) for v in range(n)], [code(u**j) for j in range(k)]


def all_pairs_table(codes):
    """The table of a sorted list of codes from every pairwise product, by
    the brute-force product on 1-based images."""
    elems = [bf.images(c) for c in codes]
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[bf.mul(a, b)] for b in elems) for a in elems)
    return CayleyGroup(table, 0)


@pytest.mark.parametrize("u, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_normalizer_stabilizer_from_automorphisms_matches_the_filtered_sn(u, k):
    # N(T)_0 read off GL(k, u), each automorphism of T a matrix; degree 9
    # (u = 3, k = 2) is the one case with odd u and k > 1; it lies past
    # PRIMITIVE_DEGREE_LIMIT, so the setup is called directly
    n, T, basis = translations(u, k)
    setup_T, setup_basis, stab, _, _ = census._affine_setup(u, k)
    assert setup_T == frozenset(T) and list(setup_basis) == basis
    assert list(stab) == sorted(set(stab))
    assert set(stab) == set(bf.naive_normalizer(n, T, fixing=(0,)))
    gl_order = math.prod(u**k - u**i for i in range(k))
    assert len(stab) == gl_order


def test_degree_8_scan_walks_no_sn(monkeypatch):
    # the degree-8 route tests no n! codes and makes no scan of S_8: T is
    # written down as translations, N(T)_0 comes from GL(3, 2), the
    # automorphisms of T, and N(T)_0's lattice runs on the indices of its table, on the
    # {q, r}-elements under the {q, r}-order keep
    q, r = 2, 7
    counts = {"_prime_order_codes": 0, "_divides_primes": 0}
    lattice_calls, stabs = [], []

    def counting(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)

        return spy

    def lattice_spy(G, universe, cap=None, keep=None, conjugators=()):
        lattice_calls.append((list(universe), keep, list(conjugators)))
        return real_lattice(G, universe, cap, keep, conjugators)

    def setup_spy(*args):
        setup = real_setup(*args)
        stabs.append(setup[2])
        return setup

    real_lattice, real_setup = census.subgroup_lattice, census._affine_setup
    for name in counts:
        monkeypatch.setattr(census, name, counting(name, getattr(census, name)))
    monkeypatch.setattr(census, "subgroup_lattice", lattice_spy)
    monkeypatch.setattr(census, "_affine_setup", setup_spy)
    census._scan_cached.cache_clear()
    inventory = enumerate_primitive_classes(8, q, r)
    census._scan_cached.cache_clear()
    assert inventory.count
    assert all(c < 40320 // 20 for c in counts.values()), counts
    assert counts["_prime_order_codes"] == 0, counts  # no universe of S_8
    sn_gens = list(census._sn_generators(8))
    assert all(c[2] != sn_gens for c in lattice_calls)  # no scan of S_8 remains
    (universe, keep, conjugators), = lattice_calls
    [stab] = stabs
    assert all(isinstance(i, int) for i in universe + conjugators)
    assert all(stab[i][0] == 0 for i in universe + conjugators)  # N(T)_0 fixes point 0
    assert keep is not None
    assert universe and all(
        census._divides_primes(bf.code_order(stab[i]), (q, r)) for i in universe
    )
    assert len(universe) == 168 - 56  # GL(3, 2) without its elements of order 3


def test_degree_8_block_tests_take_no_canonical_generators(monkeypatch):
    # each candidate T.S is tested for blocks on the generators it was built
    # from: canonical generators are taken for the reported representatives
    # only (T's basis is written down with T, and N(T)_0's generators are
    # the point maps of GL's written-down generators)
    calls = []
    real = cayley.canonical_generators

    def spy(G, elems):
        elems = frozenset(elems)
        calls.append(elems)
        return real(G, elems)

    monkeypatch.setattr(cayley, "canonical_generators", spy)
    census._scan_cached.cache_clear()
    census._affine_setup.cache_clear()  # N(T)_0's generators are counted
    inventory = enumerate_primitive_classes(8, 2, 7)
    census._scan_cached.cache_clear()
    reps = [frozenset(entry.representative.codes()) for entry in inventory.classes]
    assert inventory.count and len(calls) == inventory.count
    assert sorted(calls, key=perm.set_key) == sorted(reps, key=perm.set_key)


def test_affine_block_tests_take_no_canonical_generators(monkeypatch):
    # below degree 7 too, and in the single-prime inventories, each
    # candidate T.S is tested for blocks on the generators it was built
    # from: canonical generators are taken for the reported representatives
    # only, not for N(T)_0, and for nothing at a degree that is no prime
    # power
    calls = []
    real = cayley.canonical_generators

    def spy(G, elems):
        calls.append(frozenset(elems))
        return real(G, elems)

    monkeypatch.setattr(cayley, "canonical_generators", spy)
    for inventory_of, args in [
        (enumerate_primitive_classes, (5, 5, 2)),
        (enumerate_primitive_classes, (4, 2, 3)),
        (enumerate_primitive_classes, (1, 2, 3)),
        (enumerate_primitive_ar_classes, (7, 7)),
        (enumerate_primitive_ar_classes, (4, 2)),
    ]:
        calls.clear()
        census._affine_setup.cache_clear()  # N(T)_0's generators are counted
        inventory = inventory_of(*args)
        reps = [frozenset(entry.representative.codes()) for entry in inventory.classes]
        assert sorted(calls, key=perm.set_key) == sorted(reps, key=perm.set_key), args
    calls.clear()
    assert enumerate_primitive_classes(6, 2, 3).count == 0 and not calls


def test_primitive_inventories_build_chains_for_representatives_only(monkeypatch):
    # a candidate T.S is tested for blocks on its generators alone, so a
    # Schreier-Sims chain is built for each reported representative only
    chains = 0
    real = perm._schreier_sims

    def spy(degree, gens):
        nonlocal chains
        chains += 1
        return real(degree, gens)

    monkeypatch.setattr(perm, "_schreier_sims", spy)
    for args in [(8, 2, 7), (7, 7, 2), (7, 7, 3), (5, 5, 2), (4, 2, 3)]:
        chains = 0
        inventory = enumerate_primitive_classes(*args)
        assert inventory.count and chains == inventory.count, (args, chains)


def test_primitive_inventories_scan_no_sn(monkeypatch):
    # every primitive inventory, two-prime or single-prime, at every degree,
    # runs one lattice: N(T)_0's, on its table; no class scan of S_n runs
    # and the S_n scans' cache stays empty
    lattices = []
    real = census.subgroup_lattice

    def spy(G, universe, cap=None, keep=None, conjugators=()):
        lattices.append(G)
        return real(G, universe, cap, keep, conjugators)

    monkeypatch.setattr(census, "subgroup_lattice", spy)
    census._scan_cached.cache_clear()
    for n in range(1, 9):
        for q, r in itertools.permutations((2, 3, 5, 7), 2):
            enumerate_primitive_classes(n, q, r)
        for r in (2, 3, 5, 7):
            enumerate_primitive_ar_classes(n, r)
    assert census._scan_cached.cache_info().currsize == 0
    assert lattices and all(isinstance(G, CayleyGroup) for G in lattices)


def test_translations_are_the_least_regular_member_of_the_scan():
    # T written down as the translations of GF(u)^k is the set_key-least
    # member of the one class of regular elementary abelian subgroups that
    # the oracle's fixed-point-free scan finds, at every prime power n <= 9
    # (the rows of GF(u)^k's addition table, in code order)
    for n, u, k in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2)]:
        T, basis = census._affine_setup(u, k)[:2]
        T = sorted(T)
        assert tuple(T) == cayley._vector_sums(u, k), n
        regulars = [cls for elems, (_, cls) in bf.regular_scan(n, u).items() if len(elems) == n]
        assert len(regulars) == 1, n
        assert tuple(T) == min(map(perm.set_key, regulars[0])), n
        assert list(basis) == perm.greedy_generators(n, T), n


@pytest.mark.parametrize("n", [4, 7, 8])
def test_normalizer_stabilizer_table_matches_all_pairs(n):
    # N(T)_0's generators are the point maps of GL(k, u)'s written-down
    # generators, and they generate N(T)_0 under the brute-force product;
    # its table, chained from their rows, against every product of two of
    # its elements
    u, k = next(iter(census.prime_factors(n).items()))
    _, _, stab, stab_gens, table = census._affine_setup(u, k)
    field = field_make(u, 1)
    assert list(stab_gens) == [
        cayley._linear_points(u, k, M) for M in matgrp.gl_generators(k, field)
    ]
    assert bf.naive_closure(n, [bf.images(g) for g in stab_gens]) == {bf.images(g) for g in stab}
    assert table == all_pairs_table(stab)


# -- primitive inventories ---------------------------------------------------------


def test_degree_precut_drops_no_transitive_subgroup():
    # the inventories are empty without a scan when n is not {q, r}-smooth;
    # the uncut scan holds no subgroup of order divisible by n there
    cut = 0
    for n in range(2, 7):
        for q, r in itertools.permutations((2, 3, 5, 7), 2):
            if census._divides_primes(n, (q, r)):
                continue
            cut += 1
            scan = census._subgroup_scan(n, (q, r), math.isqrt(6 ** (n - 1)))
            assert all(len(elems) % n for _, cls in scan.values() for elems in cls), (n, q, r)
            assert enumerate_transitive_classes(n, q, r).count == 0
            assert enumerate_primitive_classes(n, q, r).count == 0
    assert cut == 34


def test_primitive_4_2_3_single_class_order_12():
    inv = enumerate_primitive_classes(4, 2, 3)
    assert inv.count == 1
    entry = inv.classes[0]
    assert entry.order == 12 and entry.signature == (2, 1)


def test_primitive_3_3_2_two_signatures():
    inv = enumerate_primitive_classes(3, 3, 2)
    assert inv.count == 2
    by_sig = {e.signature: e for e in inv.classes}
    assert by_sig[(1, 0)].order == 3
    assert by_sig[(1, 1)].order == 6


def test_primitive_5_5_2():
    inv = enumerate_primitive_classes(5, 5, 2)
    assert {e.order for e in inv.classes} == {5, 10}
    assert all(e.class_size >= 1 for e in inv.classes)
    # one class per signature
    sigs = [e.signature for e in inv.classes]
    assert len(sigs) == len(set(sigs))


def test_primitive_empty_when_degree_impossible():
    assert enumerate_primitive_classes(4, 3, 2).count == 0
    assert enumerate_primitive_classes(5, 2, 3).count == 0


def test_primitive_classes_match_construction():
    # representative of the affine class is conjugate to the built group
    for q, r, n in [(3, 2, 3), (2, 3, 4), (5, 2, 5)]:
        inv = enumerate_primitive_classes(n, q, r)
        affine = [e for e in inv.classes if e.signature[0] >= 1 and e.signature[1] >= 1]
        assert len(affine) == 1
        _, built = primitive_aqar_group(q, r)
        assert subgroup_conjugate(affine[0].representative, built) is not None


def test_primitive_degree8_2_7():
    inv = enumerate_primitive_classes(8, 2, 7)
    assert inv.count == 1
    entry = inv.classes[0]
    assert entry.order == 56
    assert entry.signature == (3, 1)
    _, built = primitive_aqar_group(2, 7)
    assert subgroup_conjugate(entry.representative, built) is not None


def test_primitive_degree8_odd_primes_empty():
    assert enumerate_primitive_classes(8, 3, 7).count == 0


def test_primitive_degree7():
    inv = enumerate_primitive_classes(7, 7, 2)
    assert [(e.order, e.signature) for e in inv.classes] == [(7, (1, 0)), (14, (1, 1))]
    _, built = primitive_aqar_group(7, 2)
    affine = inv.classes[1].representative
    assert subgroup_conjugate(affine, built) is not None
    # the asymmetric variety: the dihedral group is not in [2, 7]
    inv2 = enumerate_primitive_classes(7, 2, 7)
    assert [(e.order, e.signature) for e in inv2.classes] == [(7, (0, 1))]
    inv3 = enumerate_primitive_classes(7, 7, 3)
    assert [e.order for e in inv3.classes] == [7, 21]
    assert enumerate_primitive_classes(7, 5, 3).count == 0


# -- single-prime primitive inventories -----------------------------------------------


def test_primitive_ar_grid():
    for n in range(2, 8):
        for r in (2, 3, 5, 7):
            inv = enumerate_primitive_ar_classes(n, r)
            expected = 1 if n == r else 0
            assert inv.count == expected, (n, r, inv.count)
            if inv.count:
                assert inv.classes[0].order == r


def test_primitive_ar_regular_v4_is_imprimitive():
    # n = 4, r = 2: the regular V4 exists and is transitive but imprimitive
    subs = bf.regular_scan(4, 2)
    regular = [s for _, cls in subs.values() for s in cls if len(s) == 4]
    assert len(regular) == 1
    grp = perm.group_from_set(4, regular[0])
    assert grp.is_transitive() and not grp.is_primitive()
    assert enumerate_primitive_ar_classes(4, 2).count == 0


# -- GL subgroup scans ------------------------------------------------------------------


def gl_variety_orders(alpha, spec, q, r):
    return sorted(d["order"] for d in census.gl_variety_subgroup_details(alpha, spec, q, r))


def test_gl22_variety_subgroups():
    spec = field_make(2, 1)
    orders = gl_variety_orders(2, spec, 2, 3)
    # GL(2,2) = S3: subgroups 1, C2 x3, C3, S3; in [2,3]-variety: all but S3
    # S3 itself: verbal subgroup for r=3 is A3... S3 in A_2 A_3 means
    # commutator/cube closure abelian of exponent 2: K = S3, not abelian
    assert orders == [1, 2, 2, 2, 3]
    orders32 = gl_variety_orders(2, spec, 3, 2)
    # in [3,2]: K = commutators and squares; S3 gives A3, abelian exp 3: yes
    assert orders32 == [1, 2, 2, 2, 3, 6]


def test_gl23_variety_subgroup_counts_stable():
    spec = field_make(3, 1)
    orders = gl_variety_orders(2, spec, 2, 3)
    assert all(o % 2 == 0 or o % 3 == 0 or o == 1 for o in orders)
    # deterministic across runs
    assert orders == gl_variety_orders(2, spec, 2, 3)


def test_gl_variety_details_fitting_orders():
    spec = field_make(2, 1)
    details = census.gl_variety_subgroup_details(2, spec, 3, 2)
    irreducible = [d for d in details if d["irreducible"] and d["order"] > 1]
    # C3 and the full GL(2,2): Fitting order 3 in both cases
    assert sorted(d["order"] for d in irreducible) == [3, 6]
    assert all(d["fitting_order"] == 3 for d in irreducible)
    # the Fitting order of an abelian member equals its order
    for d in details:
        if d["order"] in (1, 2, 3):
            assert d["fitting_order"] == d["order"]


def test_gl_variety_details_build_no_table(monkeypatch):
    # GL's lattice is scanned on matrix codes, and each member's MatGroup is
    # made from its codes
    spec = field_make(3, 1)
    expected = census.gl_variety_subgroup_details(2, spec, 3, 2)
    census._gl_lattice.cache_clear()

    def refuse(*_):
        raise AssertionError("a multiplication table was built")

    monkeypatch.setattr(CayleyGroup, "__init__", refuse)
    assert census.gl_variety_subgroup_details(2, spec, 3, 2) == expected


# -- the three-prime census ----------------------------------------------------------------


def test_census_6_as_3_2_5():
    cen = enumerate_variety_groups(VarietyParams(3, 2, 5, 1, 1, 0))
    assert cen.count == 2
    tables = list(cen.groups)
    assert any(bf.is_abelian(t) for t in tables)  # C6
    assert any(not bf.is_abelian(t) for t in tables)  # S3


def test_census_6_as_5_2_3():
    cen = enumerate_variety_groups(VarietyParams(5, 2, 3, 0, 1, 1))
    assert cen.count == 1
    assert bf.is_abelian(cen.groups[0])


def test_census_12():
    cen = enumerate_variety_groups(VarietyParams(2, 3, 5, 2, 1, 0))
    assert cen.count == 2
    a4 = bf.table_of(pgroup(4, "(1 2 3)", "(2 3 4)"))
    assert any(are_isomorphic(t, a4) for t in cen.groups)
    c2c2c3 = direct_product_table(elementary_abelian_table(2, 2), cyclic_table(3))
    assert any(are_isomorphic(t, c2c2c3) for t in cen.groups)


def test_census_30():
    cen = enumerate_variety_groups(VarietyParams(3, 2, 5, 1, 1, 1))
    assert cen.count == 2
    assert sorted(t.order for t in cen.groups) == [30, 30]


def test_census_60():
    cen = enumerate_variety_groups(VarietyParams(2, 3, 5, 2, 1, 1))
    assert cen.count == 2
    a4c5 = direct_product_table(
        bf.table_of(pgroup(4, "(1 2 3)", "(2 3 4)")), cyclic_table(5)
    )
    assert any(are_isomorphic(t, a4c5) for t in cen.groups)


def test_census_members_in_variety_and_distinct():
    for params in [
        VarietyParams(3, 2, 5, 1, 1, 0),
        VarietyParams(2, 3, 5, 2, 1, 0),
        VarietyParams(3, 2, 5, 1, 1, 1),
    ]:
        cen = enumerate_variety_groups(params)
        for t in cen.groups:
            assert t.order == params.n
            assert in_variety(t, params.chain())
        for i, t in enumerate(cen.groups):
            for u in cen.groups[i + 1 :]:
                assert not are_isomorphic(t, u)


def test_census_traversal_invariance():
    for params in [
        VarietyParams(3, 2, 5, 1, 1, 0),
        VarietyParams(2, 3, 5, 2, 1, 0),
        VarietyParams(2, 3, 5, 2, 1, 1),
    ]:
        fwd = enumerate_variety_groups(params, "forward")
        rev = enumerate_variety_groups(params, "reverse")
        assert fwd.count == rev.count
        # same census up to isomorphism
        for t in fwd.groups:
            assert any(are_isomorphic(t, u) for u in rev.groups)


# the five selftest cases and the four census-split benchmark inputs
ORACLE_CENSUS_PARAMS = [params for params, _ in CENSUS_CASES] + bf.census_split_params()


@pytest.mark.parametrize("traversal", ["forward", "reverse"])
@pytest.mark.parametrize("params", ORACLE_CENSUS_PARAMS, ids=lambda p: "-".join(map(str, p.to_json().values())))
def test_census_matches_unreduced_oracle(params, traversal):
    expected = bf.unreduced_census(params, traversal).to_json()
    assert enumerate_variety_groups(params, traversal).to_json() == expected


# one acting layer, H = C_r^gamma, and r | u - 1: the census count is the
# number of GL(gamma, r)-orbits on multisets of d points of F_r^gamma
@pytest.mark.parametrize(
    "params, count",
    [
        ((3, 5, 2, 3, 0, 2), 7),
        ((3, 5, 2, 0, 2, 3), 4),
        ((3, 7, 2, 0, 2, 2), 4),
        ((2, 13, 3, 0, 1, 2), 2),
        ((5, 3, 2, 0, 3, 1), 4),
        ((3, 5, 2, 2, 0, 3), 4),
        ((7, 3, 2, 2, 0, 2), 4),
        ((2, 31, 5, 0, 1, 1), 2),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_census_counts_the_abelian_modules(params, count):
    p, q, r, alpha, beta, gamma = params
    u, d = (q, beta) if alpha == 0 else (p, alpha)
    assert (u - 1) % r == 0
    assert bf.abelian_module_count(r, gamma, d) == count
    assert enumerate_variety_groups(VarietyParams(*params)).count == count


def test_census_split_builds_each_table_once_and_no_quotient(monkeypatch):
    # the invariants read G/G''s element orders off the cosets of G', so the
    # only tables built are the 4 base tables and the 21 split extensions
    built = 0
    real_init = CayleyGroup.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        real_init(self, *args)

    def refuse(*_):
        raise AssertionError("a quotient table was built")

    monkeypatch.setattr(cayley, "quotient", refuse)
    monkeypatch.setattr(CayleyGroup, "__init__", counting)
    for params in bf.census_split_params():
        enumerate_variety_groups(params)
    assert built == 25


@pytest.mark.parametrize("traversal", ["forward", "reverse"])
def test_census_layer_holds_its_kept_tables_and_one_candidate(monkeypatch, traversal):
    # (3,2,7;1,3,1), order 168: 12 split extensions fall to 3 groups. Each is
    # built when the comparison reaches it, so while one is built the live
    # tables are the groups kept so far, in every layer, and at most one
    # candidate; building the whole layer first would hold 11. A table is
    # dropped when it is found isomorphic to one built before it
    refs, live, dropped = [], [], set()
    real_extension, real_isomorphic = census.semidirect_product, census.are_isomorphic

    def extension_spy(*args):
        gc.collect()
        live.append(sum(ref() is not None for ref in refs))
        G = real_extension(*args)
        refs.append(weakref.ref(G))
        return G

    def isomorphic_spy(G, K):
        found = real_isomorphic(G, K)
        if found:
            dropped.add(max(i for i, ref in enumerate(refs) if ref() is G or ref() is K))
        return found

    monkeypatch.setattr(census, "semidirect_product", extension_spy)
    monkeypatch.setattr(census, "are_isomorphic", isomorphic_spy)
    census_168 = enumerate_variety_groups(VarietyParams(3, 2, 7, 1, 3, 1), traversal)
    kept = len(refs) - len(dropped)
    assert (len(refs), census_168.count) == (12, 3)
    assert max(live) <= kept + 1, (live, kept)


def test_census_compares_tables_only_over_the_same_acting_group(monkeypatch):
    # a layer's table G = V x| H has G/V = H, V its normal Sylow subgroup, so
    # tables over different kept H are never isomorphic and are not compared.
    # (2,7,3;1,2,1), order 294, keeps 4 H at the Q layer; the P layer once
    # compared tables over two of them
    acting, pairs = {}, []
    real_extension, real_isomorphic = census.semidirect_product, census.are_isomorphic

    def extension_spy(u, dim, action, H):
        G = real_extension(u, dim, action, H)
        acting[id(G)] = (G, H)  # G is held, so its id is not reused
        return G

    def isomorphic_spy(G, K):
        pairs.append((acting[id(G)][1], acting[id(K)][1]))
        return real_isomorphic(G, K)

    monkeypatch.setattr(census, "semidirect_product", extension_spy)
    monkeypatch.setattr(census, "are_isomorphic", isomorphic_spy)
    enumerate_variety_groups(VarietyParams(2, 7, 3, 1, 2, 1))
    assert pairs and all(H is K for H, K in pairs)


def test_affine_setup_is_built_once_per_degree(monkeypatch):
    # T, N(T)_0 and its table depend on the degree alone: the degree-8
    # inventories of several pairs build N(T)_0's table once between them
    tables = []
    real = census.table_group

    def spy(*args):
        tables.append(args)
        return real(*args)

    monkeypatch.setattr(census, "table_group", spy)
    census._affine_setup.cache_clear()
    for q, r in [(2, 7), (2, 3), (7, 2), (3, 2), (2, 5)]:
        enumerate_primitive_classes(8, q, r)
    enumerate_primitive_ar_classes(8, 2)
    assert len(tables) == 1


def test_action_orbit_reps_are_the_gl_classes():
    # every action is GL-conjugate to exactly one kept action, found by
    # trying every element of GL on the generator images
    S3 = bf.table_of(pgroup(3, "(1 2 3)", "(1 2)"))
    V4 = elementary_abelian_table(2, 2)
    # V4: unordered pairs of its four characters; C7: trivial and two faithful
    for H, dim, u, expected in [(S3, 2, 3, 5), (V4, 2, 3, 10), (cyclic_table(7), 3, 2, 3)]:
        field = field_make(u, 1)
        ops, gl = mat_ops(dim, field), gl_elements(dim, field)
        reps = census._action_orbit_reps(H, dim, u)
        assert len(reps) == expected
        rep_keys = [tuple(a[x] for x in H.generators) for a in reps]
        firsts = []
        for hom in homomorphisms_to_mats(H, ops, gl, ()):
            key = tuple(hom[x] for x in H.generators)
            conjugates = {tuple(ops.mul(ops.mul(ops.inv(x), m), x) for m in key) for x in gl}
            assert sum(k in conjugates for k in rep_keys) == 1
            if not any(k in conjugates for k in firsts):
                firsts.append(key)
        assert firsts == rep_keys  # each kept action is the first of its class


def test_action_search_tries_one_first_image_per_gl_class(monkeypatch):
    # C7 -> GL(3, 2): the first generator tries the identity and one element
    # of each of the two classes of order 7, not all 49 elements of order
    # dividing 7
    firsts = []
    real = cayley._hom_search

    def spy(G, gens, candidates_per_gen, *args, **kwargs):
        firsts.append(len(candidates_per_gen[0]))
        return real(G, gens, candidates_per_gen, *args, **kwargs)

    monkeypatch.setattr(cayley, "_hom_search", spy)
    assert len(census._action_orbit_reps(cyclic_table(7), 3, 2)) == 3
    assert firsts == [3]


@pytest.mark.parametrize(
    "H",
    [cyclic_table(21), bf.table_of(pgroup(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"))],
    ids=["C21", "7:3"],
)
def test_action_classes_are_the_modules_of_dimension_four(H):
    # 2 does not divide 21, so every GF(2)H-module is semisimple (Maschke).
    # The irreducibles of dimension at most 4 have dimensions 1, 2, 3 and 3'
    # (C21's others have dimension 6), so the 4-dimensional modules, up to
    # GL(4, 2)-conjugacy, are 1+1+1+1, 1+1+2, 2+2, 1+3 and 1+3'
    assert len(census._action_orbit_reps(H, 4, 2)) == 5


def test_census_trivial_order():
    cen = enumerate_variety_groups(VarietyParams(2, 3, 5, 0, 0, 0))
    assert cen.count == 1
    assert cen.groups[0].order == 1


def test_census_order_limit():
    from agroups.errors import LimitExceeded

    with pytest.raises(LimitExceeded):
        enumerate_variety_groups(VarietyParams(2, 3, 5, 10, 0, 0))


def test_inventory_json_shape():
    inv = enumerate_primitive_classes(4, 2, 3)
    data = inv.to_json()
    assert data["classes"][0]["order"] == 12
    cen = enumerate_variety_groups(VarietyParams(3, 2, 5, 1, 1, 0))
    out = cen.to_json()
    assert out["count"] == 2 and len(out["representatives"]) == 2
