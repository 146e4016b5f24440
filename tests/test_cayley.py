import copy
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import cayley, matgrp
from agroups.cayley import (
    CayleyGroup,
    VarietyParams,
    all_subgroups,
    are_isomorphic,
    elementary_abelian_table,
    in_variety,
    in_variety_exhaustive,
    quotient,
    subgroup_closure,
    verbal_subgroup,
)
from agroups.errors import InvalidParams, NotNormal
from agroups.gf import field_make
from agroups.perm import PermGroup, parse_cycles, perm_ops

import bruteforce as bf
from bruteforce import cyclic_table, direct_product_table
from bruteforce import naive_is_associative, reduced_latin_squares


def pgroup(degree, *texts):
    return PermGroup(degree, [parse_cycles(t, degree) for t in texts])


S3 = bf.table_of(pgroup(3, "(1 2 3)", "(1 2)"))
A4 = bf.table_of(pgroup(4, "(1 2 3)", "(2 3 4)"))
C6 = cyclic_table(6)
D4 = bf.table_of(pgroup(4, "(1 2 3 4)", "(1 3)"))
Q8 = bf.table_of(pgroup(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"))


# -- construction and validation ------------------------------------------------


def test_canonical_generators_by_decreasing_order_then_code():
    # the greedy pass over an independent order oracle: S4 and its subgroups
    ops = perm_ops(4)
    S4 = pgroup(4, "(1 2 3 4)", "(1 2)")
    for sub in bf.naive_subgroup_lattice(ops, S4.codes()):
        expected = cayley.greedy_generators(
            ops, sub, key=lambda c: (-bf.perm_order(bf.images(c)), c)
        )
        assert cayley.canonical_generators(ops, sub) == expected


def test_validation_rejects_bad_tables():
    with pytest.raises(InvalidParams):
        CayleyGroup(((0, 0), (1, 0)), 0)  # not a Latin square
    with pytest.raises(InvalidParams):
        CayleyGroup(((0, 1), (1, 0)), 1)  # wrong identity
    # Latin square with identity that is not associative: smallest is order 5
    rows = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(InvalidParams):
        CayleyGroup(rows, 0)


def test_table_group_matches_the_all_pairs_table():
    # permutation and matrix groups, from any generating list, against the
    # table of every product; the trivial group too
    groups = [
        pgroup(4, "(1 2 3 4)", "(1 2)"),
        pgroup(5, "(1 2 3 4 5)", "(2 3 5 4)"),
        pgroup(3),
        matgrp.closure(2, field_make(3, 1), matgrp.gl_generators(2, field_make(3, 1))),
    ]
    for G in groups:
        codes = G.codes()
        for gens in (G.generators, codes):
            assert cayley.table_group(G.ops, codes, gens) == bf.table_of(G)


def test_table_group_refuses_generators_of_a_proper_subgroup():
    S3 = pgroup(3, "(1 2 3)", "(1 2)")
    with pytest.raises(InvalidParams):
        cayley.table_group(S3.ops, S3.codes(), [parse_cycles("(1 2 3)", 3)])


def accepts(table, identity):
    try:
        CayleyGroup(table, identity)
    except InvalidParams:
        return False
    return True


def test_rejects_switched_intercalate_at_order_256():
    # (C2)^8 with one 2 x 2 subsquare switched: still a Latin square with
    # identity 0, but 4,048 of its triples are not associative
    rows = [[i ^ j for j in range(256)] for i in range(256)]
    for i in (1, 5):
        rows[i][2], rows[i][6] = rows[i][6], rows[i][2]
    with pytest.raises(InvalidParams, match="associativity"):
        CayleyGroup(tuple(tuple(r) for r in rows), 0)


def test_rejects_switched_intercalate_at_order_258():
    # the twin above 256, where rows are tuples: C258 with the 2 x 2
    # subsquare at rows 1, 130 and columns 2, 131 switched away from the group
    rows = [list(row) for row in cyclic_table(258).table]
    for i in (1, 130):
        rows[i][2], rows[i][131] = rows[i][131], rows[i][2]
    with pytest.raises(InvalidParams, match="associativity"):
        CayleyGroup(tuple(map(tuple, rows)), 0)


@pytest.mark.parametrize("n", [1, 2, 6, 256, 257])
def test_rows_given_as_tuples_lists_or_bytes_make_one_table(n):
    # one table whatever its rows are given as, with one wire format: the
    # integer entries (bytes rows exist up to order 256 only)
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    given = [tuple(map(tuple, rows)), rows] + ([tuple(map(bytes, rows))] if n <= 256 else [])
    first, *others = [CayleyGroup(table, 0) for table in given]
    for other in others:
        assert other == first and hash(other) == hash(first)
        assert other.to_json() == first.to_json()
    assert first.to_json() == {"order": n, "identity": 0, "table": rows}


def test_rejects_loop_whose_first_generator_associates():
    # Q x C2 for the order-5 non-associative loop Q, element (q, c) at index
    # 2q + c: index 1 = (e, 1) is in the nucleus, so the defect only shows
    # at a later generator
    q = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    table = tuple(
        tuple(2 * q[a // 2][b // 2] + (a + b) % 2 for b in range(10)) for a in range(10)
    )
    assert not naive_is_associative(table)
    assert not accepts(table, 0)


def test_light_matches_exhaustive_on_every_loop_up_to_order_5():
    seen = 0
    for n in range(1, 6):
        for table in reduced_latin_squares(n):
            assert accepts(table, 0) == naive_is_associative(table)
            seen += 1
    assert seen == 1 + 1 + 1 + 4 + 56  # reduced Latin squares of orders 1..5


def relabelled_table(table, relabel):
    """The table with each element a renamed relabel[a]."""
    moved = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            moved[relabel[a]][relabel[b]] = relabel[ab]
    return tuple(map(tuple, moved))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32))
def test_light_matches_exhaustive_on_random_loops(n, from_group, seed):
    # a random loop, or a cyclic group, under a random relabelling that also
    # moves the identity
    rnd = random.Random(seed)
    if from_group:
        table = cyclic_table(n).table
    else:
        table = next(reduced_latin_squares(n, rnd))
    relabel = list(range(n))
    rnd.shuffle(relabel)
    moved = relabelled_table(table, relabel)
    assert accepts(moved, relabel[0]) == naive_is_associative(moved)


def test_fingerprint_fields():
    fp = S3.fingerprint()
    assert fp["order_histogram"] == {"1": 1, "2": 3, "3": 2}
    assert fp["center"] == 1
    assert fp["derived"] == 3
    assert fp["exponent"] == 6


def test_center_matches_all_pairs_definition():
    C2xA4 = direct_product_table(cyclic_table(2), A4)
    for G in (S3, A4, C6, D4, C2xA4, direct_product_table(cyclic_table(4), S3)):
        n = G.order
        expected = {a for a in range(n) if all(G.mul(a, b) == G.mul(b, a) for b in range(n))}
        assert G.center() == expected
    assert len(D4.center()) == 2


# -- isomorphism ------------------------------------------------------------------


def test_isomorphism_examples():
    assert not are_isomorphic(C6, S3)
    assert not are_isomorphic(elementary_abelian_table(2, 2), cyclic_table(4))
    assert are_isomorphic(C6, direct_product_table(cyclic_table(2), cyclic_table(3)))


def test_a4_isomorphic_to_v4_semidirect_c3():
    # (C2)^2 x| C3 with the companion-matrix action, built in the construct module
    from agroups.construct import semidirect_product

    # the powers I, C, C^2 of the companion matrix C of x^2 + x + 1 over GF(2)
    action = [(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)]
    G = semidirect_product(2, 2, action, cyclic_table(3))
    assert are_isomorphic(A4, G)


def test_isomorphism_large_elementary_abelian():
    # many same-order images force real backtracking work
    a = elementary_abelian_table(2, 4)
    b = direct_product_table(elementary_abelian_table(2, 2), elementary_abelian_table(2, 2))
    assert are_isomorphic(a, b)
    c = direct_product_table(cyclic_table(4), elementary_abelian_table(2, 2))
    assert not are_isomorphic(a, c)


def census_tables():
    """The census groups of the selftest cases of order <= 24."""
    from agroups.census import enumerate_variety_groups
    from agroups.selftest import CENSUS_CASES

    return [
        t for params, _ in CENSUS_CASES for t in enumerate_variety_groups(params).groups
        if t.order <= 24
    ]


def small_tables():
    """Tables of order <= 24: the census groups of the selftest cases and
    direct products, with several isomorphic pairs under different labels."""
    C, X = cyclic_table, direct_product_table
    # C4 x| C4, b inverting a: <a> is normal and <b> is not, so its elements
    # of order 4 fall into several automorphism classes
    c4c4 = CayleyGroup(
        tuple(
            tuple(4 * ((i + (-1) ** j * k) % 4) + (j + m) % 4 for k in range(4) for m in range(4))
            for i in range(4)
            for j in range(4)
        ),
        0,
    )
    return census_tables() + [
        X(C(2), C(3)), X(C(3), C(2)), X(C(2), S3), X(S3, C(2)), X(C(3), S3), X(C(2), A4),
        X(C(4), C(6)), X(C(2), C(12)), X(C(4), S3), X(elementary_abelian_table(2, 3), C(3)),
        X(D4, C(2)), X(Q8, C(2)), X(C(4), C(4)), X(C(2), C(8)), X(D4, C(3)), X(Q8, C(3)),
        c4c4,
    ]


def test_are_isomorphic_agrees_with_both_oracles():
    tables = small_tables()
    agree = {True: 0, False: 0}
    for G, H in itertools.product(tables, repeat=2):
        if G.order != H.order:
            continue
        expected = bf.naive_are_isomorphic(G, H)
        assert bf.allpairs_are_isomorphic(G, H) == expected
        assert are_isomorphic(G, H) == expected
        # the search alone, without the invariant filter in front of it
        assert cayley._embeds(G, H) == expected
        agree[expected] += 1
    assert agree[True] > len(tables) and agree[False] > 20
    assert cayley._embeds(cyclic_table(3), S3) and cayley._embeds(elementary_abelian_table(2, 2), A4)
    assert not cayley._embeds(cyclic_table(4), A4) and not cayley._embeds(C6, A4)


def test_are_isomorphic_finds_relabelled_copies():
    # wherever the first generator's candidates start, the search reaches a
    # conjugacy class that extends to an isomorphism
    rng = random.Random(7)
    for G in small_tables():
        for _ in range(12):
            relabel = list(range(G.order))
            rng.shuffle(relabel)
            H = CayleyGroup(relabelled_table(G.table, relabel), relabel[G.identity])
            assert are_isomorphic(G, H) and are_isomorphic(H, G)


def test_homomorphisms_to_mats_match_the_allpairs_search():
    from agroups.cayley import canonical_generators, homomorphisms_to_mats

    V4 = elementary_abelian_table(2, 2)
    for u in (2, 3):
        field = field_make(u, 1)
        codes = matgrp.gl_elements(2, field)
        for G in (cyclic_table(2), cyclic_table(3), V4, S3):
            gens = canonical_generators(G, range(G.order))
            expected = bf.allpairs_homomorphisms_to_mats(G, gens, field, codes)
            found = homomorphisms_to_mats(G, matgrp.mat_ops(2, field), codes, ())
            assert found == [[f[x] for x in range(G.order)] for f in expected]
            assert found, (u, G.order)
            # under GL-conjugacy: the first of each class, where f ~ f' iff
            # x f(g) = f'(g) x for one x in GL and every generator g
            mul = functools.lru_cache(maxsize=None)(functools.partial(bf.naive_code_mul, field))
            firsts = []
            for f in expected:
                if not any(
                    all(mul(x, f[g]) == mul(h[g], x) for g in gens) for h in firsts for x in codes
                ):
                    firsts.append(f)
            gl_gens = matgrp.gl_generators(2, field)
            found = homomorphisms_to_mats(G, matgrp.mat_ops(2, field), codes, gl_gens)
            assert found == [[f[x] for x in range(G.order)] for f in firsts]


def test_element_orders_cached_and_exact():
    for G in small_tables():
        naive = [bf.naive_element_order(G.table, G.identity, x) for x in range(G.order)]
        assert list(G.element_orders) == naive
        assert G.element_orders is G.element_orders


def test_fingerprint_is_fresh_each_call():
    G = direct_product_table(cyclic_table(2), A4)
    fp = G.fingerprint()
    expected = copy.deepcopy(fp)
    fp["order_histogram"]["1"] = 99
    fp["abelianization_orders"].append(7)
    fp["center"] = -1
    assert G.fingerprint() == expected


def test_isomorphism_is_equivalence_on_sample():
    sample = [S3, C6, A4, elementary_abelian_table(2, 2), cyclic_table(4)]
    for G in sample:
        assert are_isomorphic(G, G)
    for G in sample:
        for H in sample:
            assert are_isomorphic(G, H) == are_isomorphic(H, G)


# -- subgroups, verbal subgroups, varieties ----------------------------------------


def test_all_subgroups_s3():
    subs = all_subgroups(S3)
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_conjugation_orbit_is_the_class_under_every_element():
    ops = perm_ops(4)
    s4 = list(itertools.permutations(range(4)))
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]  # (1 2 3 4), (1 2)
    subgroups = bf.naive_subgroup_lattice(ops, s4)
    assert len(subgroups) == 30
    for sub in subgroups:
        # h^g sends g[x] to g[h[x]]
        every = {frozenset(tuple(g[h[g.index(x)]] for x in range(4)) for h in sub) for g in s4}
        orbit = cayley.conjugation_orbit(ops, sub, gens)
        assert orbit[0] == sub and len(orbit) == len(every)
        assert set(orbit) == every


def test_conjugation_orbit_of_a_tuple_is_simultaneous_conjugation():
    ops = perm_ops(4)
    s4 = list(itertools.permutations(range(4)))
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]  # (1 2 3 4), (1 2)
    for key in [((1, 0, 2, 3), (0, 1, 3, 2)), ((1, 2, 0, 3), (1, 0, 2, 3)), ((1, 2, 3, 0),)]:
        every = {tuple(tuple(g[h[g.index(x)]] for x in range(4)) for h in key) for g in s4}
        orbit = cayley.conjugation_orbit(ops, key, gens)
        assert orbit[0] == key and len(orbit) == len(every)
        assert set(orbit) == every


def verbal_ar_subgroup(G, r):
    """The subgroup generated by all commutators and r-th powers."""
    return verbal_subgroup(G, G.generators, r)[0]


def test_verbal_examples():
    K = verbal_ar_subgroup(S3, 2)
    assert len(K) == 3  # A3
    K2 = verbal_ar_subgroup(A4, 3)
    assert len(K2) == 4  # V4
    K3 = verbal_ar_subgroup(C6, 2)
    assert len(K3) == 3


def test_verbal_subgroup_is_normal_with_abelian_exponent_r_quotient():
    for G, r in [(S3, 2), (S3, 3), (A4, 3), (A4, 2), (C6, 2), (C6, 3)]:
        K = verbal_ar_subgroup(G, r)
        assert cayley.is_normal(G, K)
        Q = quotient(G, K)
        assert bf.is_abelian(Q)
        assert all(cayley._power(Q, a, r) == Q.identity for a in range(Q.order))


def test_in_variety_examples():
    assert in_variety(A4, [2, 3])
    assert not in_variety(S3, [2, 3])
    assert in_variety(S3, [3, 2])
    assert in_variety(cyclic_table(30), [3, 2, 5])


def test_in_variety_single_prime():
    assert in_variety(cyclic_table(3), [3])
    assert not in_variety(cyclic_table(9), [3])
    assert in_variety(elementary_abelian_table(2, 2), [2])
    assert not in_variety(S3, [2])


def test_in_variety_order_30_complete_classification():
    # the four groups of order 30, built independently; exactly two lie in
    # the [3, 2, 5] chain (the census count at that order)
    c30 = cyclic_table(30)
    d15 = bf.table_of(
        pgroup(
            15,
            "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)",
            "(2 15)(3 14)(4 13)(5 12)(6 11)(7 10)(8 9)",
        )
    )
    d5 = bf.table_of(pgroup(5, "(1 2 3 4 5)", "(2 5)(3 4)"))
    s3 = bf.table_of(pgroup(3, "(1 2 3)", "(1 2)"))
    c3xd5 = direct_product_table(cyclic_table(3), d5)
    c5xs3 = direct_product_table(cyclic_table(5), s3)
    for G in (c30, d15, c3xd5, c5xs3):
        assert G.order == 30
    assert in_variety(c30, [3, 2, 5])
    assert in_variety(c5xs3, [3, 2, 5])
    assert not in_variety(d15, [3, 2, 5])
    assert not in_variety(c3xd5, [3, 2, 5])
    # agreement with the definitional witness search on all four
    for G in (c30, d15, c3xd5, c5xs3):
        assert in_variety(G, [3, 2, 5]) == in_variety_exhaustive(G, [3, 2, 5])


def test_in_variety_matches_exhaustive_witness_search():
    groups = [S3, A4, C6, cyclic_table(12), elementary_abelian_table(2, 3), cyclic_table(30)]
    chains = [[2, 3], [3, 2], [2, 5], [5, 2], [3, 2, 5], [2, 3, 5], [5, 3, 2]]
    for G in groups:
        for chain in chains:
            assert in_variety(G, chain) == in_variety_exhaustive(G, chain), (
                G.order,
                chain,
            )


def test_quotient_examples():
    V4 = verbal_ar_subgroup(A4, 3)
    Q = quotient(A4, V4)
    assert are_isomorphic(Q, cyclic_table(3))
    assert are_isomorphic(quotient(S3, frozenset({S3.identity})), S3)
    sub2 = subgroup_closure(C6, {3})  # element of order 2 in C6
    assert are_isomorphic(quotient(C6, sub2), cyclic_table(3))


def test_quotient_matches_the_naive_coset_table():
    S4 = bf.table_of(pgroup(4, "(1 2 3 4)", "(1 2)"))
    groups = [S3, A4, D4, Q8, direct_product_table(cyclic_table(2), C6), S4] + census_tables()
    checked = 0
    for G in groups:
        for N in all_subgroups(G):
            if cayley.is_normal(G, N):
                Q = quotient(G, N)
                assert tuple(map(tuple, Q.table)) == bf.naive_quotient_table(G, N)
                checked += 1
    assert checked > len(groups)


def test_abelianisation_orders_match_the_quotient_table(monkeypatch):
    # invariants read G/G''s element orders off the cosets of G'; quotient
    # builds and validates G/G''s table: every small table, and every table
    # the census-split inputs build in either traversal
    from agroups.census import enumerate_variety_groups

    built = []
    real_init = CayleyGroup.__init__

    def recording(self, *args):
        real_init(self, *args)
        built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(CayleyGroup, "__init__", recording)
        for params in bf.census_split_params():
            for traversal in ("forward", "reverse"):
                enumerate_variety_groups(params, traversal)
    assert len(built) == 2 * 25
    for G in small_tables() + built:
        derived = cayley.derived_subgroup(G)
        assert G.invariants[4] == tuple(sorted(quotient(G, derived).element_orders))


def test_quotient_rejects_nonnormal():
    two = next(s for s in all_subgroups(S3) if len(s) == 2)
    with pytest.raises(NotNormal):
        quotient(S3, two)


# -- Fitting subgroup ----------------------------------------------------------------


def test_fitting_indices_matches_permutation_route():
    # the table-level Fitting subgroup, read back on the permutations, equals
    # the brute-force largest nilpotent normal subgroup of the permutations
    for G in [
        pgroup(3, "(1 2 3)", "(1 2)"),
        pgroup(4, "(1 2 3)", "(2 3 4)"),
        pgroup(4, "(1 2 3 4)", "(1 3)"),
        pgroup(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),
        pgroup(4, "(1 2 3 4)", "(1 2)"),
    ]:
        table = bf.table_of(G)
        elems = list(map(bf.images, G.codes()))
        F = cayley.fitting_subgroup(table, range(table.order), table.generators)
        expected = bf.naive_fitting_subgroup(G.degree, set(elems))
        assert {elems[i] for i in F} == expected


# -- GF(u)^k ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "u, k, stride",
    [(2, 0, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (2, 3, 1), (3, 2, 1), (2, 4, 7),
     (5, 2, 1), (3, 3, 13)],
)
def test_vector_sums_and_linear_points_match_digit_vectors(u, k, stride):
    # GF(u)^k numbered by itertools.product: row v of the addition table is
    # the translation by v, and a matrix's point map is v -> v M, each
    # against coordinatewise arithmetic mod u (every stride-th matrix)
    vectors = list(itertools.product(range(u), repeat=k))
    index = {v: i for i, v in enumerate(vectors)}
    expected = tuple(
        tuple(index[tuple((a + b) % u for a, b in zip(v, w))] for w in vectors) for v in vectors
    )
    assert cayley._vector_sums(u, k) == expected
    assert tuple(map(tuple, elementary_abelian_table(u, k).table)) == expected
    if k:
        for M in matgrp.gl_elements(k, field_make(u, 1))[::stride]:
            image = [
                tuple(sum(v[i] * M[i * k + j] for i in range(k)) % u for j in range(k))
                for v in vectors
            ]
            assert cayley._linear_points(u, k, M) == tuple(map(index.__getitem__, image))


# -- variety parameters -----------------------------------------------------------------


def test_variety_params():
    params = VarietyParams(3, 2, 5, 1, 1, 0)
    assert params.n == 6
    with pytest.raises(InvalidParams):
        VarietyParams(3, 3, 5, 1, 1, 0)
    with pytest.raises(InvalidParams):
        VarietyParams(4, 2, 5, 1, 1, 0)


def test_json_roundtrip():
    data = S3.to_json()
    again = CayleyGroup(tuple(map(tuple, data["table"])), data["identity"])
    assert again == S3 and data["order"] == 6
