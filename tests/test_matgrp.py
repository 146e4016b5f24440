import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import matgrp
from agroups.cayley import _element_orders, _linear_points, _power
from agroups.errors import (
    CharacteristicConflict,
    DegreeMismatch,
    FieldMismatch,
    InvalidParams,
    LimitExceeded,
    NotPrime,
    SingularGenerator,
)
from agroups.gf import field_make, is_prime, prime_factors
from agroups.matgrp import closure, gl_elements, gl_order, mat_ops
from agroups.perm import PermGroup

import bruteforce as bf
from bruteforce import code_rows, naive_det, naive_mat_mul, rows_code


GF2 = field_make(2, 1)
GF3 = field_make(3, 1)


def M2(*rows):
    """A GF(2) matrix code from rows of residues."""
    return tuple(e % 2 for row in rows for e in row)


def M3(*rows):
    """A GF(3) matrix code from rows of residues."""
    return tuple(e % 3 for row in rows for e in row)


def singer(alpha, spec):
    """The Singer subgroup: the closure of the Singer generator."""
    return closure(alpha, spec, [matgrp.singer_generator(alpha, spec)])


# -- basics --------------------------------------------------------------------


def test_gl_order_examples():
    assert gl_order(2, GF2) == 6
    assert gl_order(2, GF3) == 48
    assert gl_order(3, GF2) == 168


def test_matrix_inverse_and_singularity():
    ops = mat_ops(2, GF3)
    m = M3((1, 1), (0, 1))
    assert ops.mul(m, ops.inv(m)) == ops.identity
    singular = M3((1, 2), (2, 4))
    with pytest.raises(SingularGenerator):
        ops.inv(singular)


def test_closure_examples():
    companion = M2((0, 1), (1, 1))  # companion of x^2 + x + 1
    G = closure(2, GF2, [companion])
    assert G.order == 3
    ident = closure(2, GF2, [mat_ops(2, GF2).identity])
    assert ident.order == 1
    diag = closure(2, GF3, [M3((2, 0), (0, 1)), M3((1, 0), (0, 2))])
    assert diag.order == 4


def test_closure_rejects_singular():
    with pytest.raises(SingularGenerator):
        closure(2, GF3, [M3((1, 2), (2, 4))])


def test_closure_rejects_malformed_generators():
    with pytest.raises(DegreeMismatch):
        closure(2, GF3, [M3((1, 0), (0, 1)), (1, 0, 0, 0, 1, 0, 0, 0, 1)])
    with pytest.raises(FieldMismatch):
        closure(2, GF3, [(1, 0, 0, 3)])


def test_closure_of_no_generators_is_refused():
    with pytest.raises(InvalidParams):
        closure(2, GF2, [])


def test_closure_limit(monkeypatch):
    monkeypatch.setattr(matgrp, "CLOSURE_LIMIT", 10)
    with pytest.raises(LimitExceeded):
        closure(2, GF3, gl_elements(2, GF3)[:6])


def test_gl_elements_complete_and_deterministic():
    elems = gl_elements(2, GF2)
    assert len(elems) == 6
    assert list(elems) == sorted(elems)
    assert gl_elements(2, GF2) == elems
    # closure of the full list is the whole group
    assert closure(2, GF2, elems).order == 6


# -- the integer kernel against FieldElem arithmetic ----------------------------


@pytest.mark.parametrize("alpha, s", [(2, 2), (2, 3), (3, 2)])
def test_products_match_naive_on_all_pairs(alpha, s):
    spec = field_make(s, 1)
    gl = gl_elements(alpha, spec)
    code_mul = mat_ops(alpha, spec).mul
    rows = {m: code_rows(spec, m) for m in gl}
    for a in gl:
        for b in gl:
            assert code_mul(a, b) == rows_code(naive_mat_mul(rows[a], rows[b]))


# GF(s) as (t, k), for every field the compiled product is checked over
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
PRODUCT_CASES = [(alpha, s) for alpha in (1, 2, 3, 4) for s in FIELDS]


def assert_product_matches_naive(spec, a, b):
    """mat_ops' product of two codes, singular or not, against FieldElem
    arithmetic."""
    alpha = math.isqrt(len(a))
    assert mat_ops(alpha, spec).mul(a, b) == bf.naive_code_mul(spec, a, b)


@pytest.mark.parametrize(
    "alpha, s", [(alpha, s) for alpha, s in PRODUCT_CASES if s ** (alpha * alpha) <= 81]
)
def test_compiled_product_matches_naive_on_all_code_pairs(alpha, s):
    spec = field_make(*FIELDS[s])
    codes = list(itertools.product(range(s), repeat=alpha * alpha))
    for a, b in itertools.product(codes, repeat=2):
        assert_product_matches_naive(spec, a, b)


@pytest.mark.parametrize(
    "alpha, s", [(alpha, s) for alpha, s in PRODUCT_CASES if s ** (alpha * alpha) > 81]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_product_matches_naive_on_drawn_code_pairs(alpha, s, data):
    spec = field_make(*FIELDS[s])
    code = st.tuples(*[st.integers(0, s - 1)] * (alpha * alpha))
    assert_product_matches_naive(spec, data.draw(code), data.draw(code))


@pytest.mark.parametrize(
    "alpha, t, k",
    [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 5, 1), (1, 2, 1), (1, 2, 2), (1, 7, 1)],
)
def test_det_matches_leibniz_on_every_matrix(alpha, t, k):
    # GL(alpha, s) is exactly the matrices of nonzero Leibniz determinant,
    # and the Gauss-Jordan inverse refuses exactly the others
    spec = field_make(t, k)
    ops = mat_ops(alpha, spec)
    invertible = []
    for flat in itertools.product(range(spec.s), repeat=alpha * alpha):
        if naive_det(code_rows(spec, flat)).index:
            assert ops.mul(flat, ops.inv(flat)) == ops.identity
            invertible.append(flat)
        else:
            with pytest.raises(SingularGenerator):
                ops.inv(flat)
    assert list(gl_elements(alpha, spec)) == invertible
    assert len(invertible) == gl_order(alpha, spec)


@pytest.mark.parametrize("alpha, t, k", [(3, 3, 1), (4, 2, 1), (2, 2, 3), (2, 3, 2)])
def test_row_enumeration_is_sorted_gl(alpha, t, k):
    spec = field_make(t, k)
    elems = gl_elements(alpha, spec)
    ops = mat_ops(alpha, spec)
    assert len(elems) == gl_order(alpha, spec)
    assert all(x < y for x, y in zip(elems, elems[1:]))
    assert all(ops.mul(c, ops.inv(c)) == ops.identity for c in elems)


# every (alpha, s) with |GL(alpha, s)| <= 20,160, except that alpha = 1 stops
# at s = 256 and adds s = 1024: a field's tables cost s^2 to build
SMALL_GL = [
    (alpha, t, k)
    for s in range(2, 1025)
    if (s <= 256 or s == 1024) and len(factors := prime_factors(s)) == 1
    for (t, k), in [factors.items()]
    for alpha in range(1, 5)
    if math.prod(s**alpha - s**i for i in range(alpha)) <= 20_160
]


@pytest.mark.parametrize("alpha, t, k", SMALL_GL)
def test_gl_closure_matches_the_row_by_row_listing(alpha, t, k):
    # the kernel's closure of the written-down generators, against GL listed
    # row by row without generators
    spec = field_make(t, k)
    assert list(gl_elements(alpha, spec)) == bf.row_by_row_gl(alpha, spec)


GL_POINT_CASES = [(u, d) for u in range(2, 128) if is_prime(u) for d in range(1, 8) if u**d <= 128]


@pytest.mark.parametrize("u, d", GL_POINT_CASES + [(2, 8)])
def test_gl_generators_generate_gl_past_the_listing(u, d):
    # GL(d, u) acts faithfully on the u^d points of GF(u)^d, so the
    # Schreier-Sims order of the generators' point maps proves generation
    # without listing GL: GL(7, 2) and GL(8, 2) lie far past GL_BRUTE_LIMIT
    spec = field_make(u, 1)
    points = [_linear_points(u, d, M) for M in matgrp.gl_generators(d, spec)]
    assert PermGroup(u**d, points).order == gl_order(d, spec)


def test_gl_generators_list_nothing(monkeypatch):
    # the generators are written down: no listing of GL runs for them, so
    # GL(5, 2) and GL(8, 2), past the brute-force limit, have theirs, while
    # listing GL(5, 2) is still refused
    def refuse(*_):
        raise AssertionError("GL was listed")

    monkeypatch.setattr(matgrp, "_gl_elements", refuse)
    matgrp.gl_generators.cache_clear()
    for d, count in [(5, 2), (8, 2)]:
        gens = matgrp.gl_generators(d, GF2)
        assert len(gens) == count and all(len(g) == d * d for g in gens)
    assert len(matgrp.gl_generators(3, field_make(2, 2))) == 3  # D, X and P over GF(4)
    with pytest.raises(LimitExceeded):
        gl_elements(5, GF2)
    with pytest.raises(DegreeMismatch):
        matgrp.gl_generators(0, GF2)
    matgrp.gl_generators.cache_clear()


@pytest.mark.parametrize("t, k", [(2, 2), (5, 1)])
def test_kernel_matches_naive_on_generator_pairs(t, k):
    spec = field_make(t, k)
    ops = mat_ops(2, spec)
    # the Singer generator, and two matrices of entries 0 and 1 (indices 0, 1)
    gens = [matgrp.singer_generator(2, spec), (1, 1, 0, 1), (0, 1, 1, 0)]
    for m in gl_elements(2, spec):
        assert ops.mul(m, ops.inv(m)) == ops.identity
        for g in gens:
            assert ops.mul(m, g) == bf.naive_code_mul(spec, m, g)
            assert ops.mul(g, m) == bf.naive_code_mul(spec, g, m)
    for v in itertools.product(range(spec.s), repeat=2):
        # v as the first row of a matrix whose second row is zero
        for g in gens:
            assert ops.apply(g, v) == bf.naive_code_mul(spec, v + (0, 0), g)[:2]


# -- irreducibility -------------------------------------------------------------


def test_irreducibility_examples():
    companion = closure(2, GF2, [M2((0, 1), (1, 1))])
    assert matgrp.is_irreducible(companion)
    trivial = closure(2, GF2, [M2((1, 0), (0, 1))])
    assert not matgrp.is_irreducible(trivial)
    diagonal = closure(2, GF3, [M3((2, 0), (0, 1))])
    assert not matgrp.is_irreducible(diagonal)


def test_irreducibility_matches_invariant_line_scan_gl23():
    # oracle: a 2-dimensional group is reducible iff some line is invariant
    apply = mat_ops(2, GF3).apply
    for mat in gl_elements(2, GF3):
        G = closure(2, GF3, [mat])
        lines = list(matgrp._lines(2, GF3))
        has_invariant_line = False
        for v in lines:
            img = apply(mat, v)
            # img parallel to v? (GF(3) element indices are residues)
            a, b = v
            c, d = img
            if (a * d - b * c) % 3 == 0:
                has_invariant_line = True
                break
        assert matgrp.is_irreducible(G) == (not has_invariant_line)


# -- Singer subgroups ------------------------------------------------------------


def test_singer_orders():
    assert singer(2, GF2).order == 3
    assert singer(2, GF3).order == 8
    assert singer(3, GF2).order == 7


def test_singer_irreducible_and_cyclic():
    for alpha, spec in [(2, GF2), (2, GF3), (3, GF2), (1, GF3)]:
        S = singer(alpha, spec)
        assert S.order == spec.s**alpha - 1
        assert matgrp.is_irreducible(S)
        gen = matgrp.singer_generator(alpha, spec)
        assert _element_orders(mat_ops(alpha, spec), [gen]) == [S.order]


def test_singer_over_extension_field():
    gf4 = field_make(2, 2)
    S = singer(2, gf4)
    assert S.order == 15
    assert matgrp.is_irreducible(S)


# every field GF(s), s <= 37, and every alpha with s^alpha <= 10^4
SINGER_CASES = [
    (t, k, alpha)
    for t in range(2, 38)
    if is_prime(t)
    for k in range(1, 6)
    if t**k <= 37
    for alpha in range(1, 14)
    if t ** (k * alpha) <= matgrp.SPIN_LIMIT
]


def test_singer_generator_matches_the_polynomial_ring():
    # the regular representation on mat_ops against powers in GF(s)[x]/(f)
    assert len(SINGER_CASES) == 73
    for t, k, alpha in SINGER_CASES:
        spec = field_make(t, k)
        assert matgrp.singer_generator(alpha, spec) == bf.poly_singer_generator(alpha, spec)


# -- the classified subgroups ------------------------------------------------------


def test_maximal_ar_examples():
    G = matgrp.maximal_ar_subgroup(2, GF2, 3)
    assert G is not None and G.order == 3
    assert matgrp.is_irreducible(G)

    H = matgrp.maximal_ar_subgroup(2, GF3, 2)
    assert H is not None and H.order == 4
    # diagonal +-1 type: every generator is diagonal
    for g in H.generators:
        assert g[1] == 0 and g[2] == 0

    K = matgrp.maximal_ar_subgroup(3, GF2, 3)
    assert K is not None and K.order == 3  # d = 2, k = 1, identity block


def test_maximal_ar_none_when_k_zero():
    # order of 3 mod 5 is 4 > alpha
    assert matgrp.maximal_ar_subgroup(2, GF3, 5) is None


def test_maximal_ar_characteristic_conflict():
    with pytest.raises(CharacteristicConflict):
        matgrp.maximal_ar_subgroup(2, GF3, 3)


def test_conjugate_in_gl_examples():
    S1 = singer(2, GF2)
    ops = S1.ops
    # a conjugate Singer subgroup
    x = gl_elements(2, GF2)[3]
    S2 = closure(2, GF2, [ops.mul(ops.mul(ops.inv(x), g), x) for g in S1.generators])
    conj = matgrp.conjugate_in_gl(S1, S2)
    assert conj is not None
    ci = ops.inv(conj)
    assert all(ops.mul(ops.mul(ci, g), conj) in S2.codes() for g in S1.generators)

    minus_i = closure(2, GF3, [M3((2, 0), (0, 2))])
    diag = closure(2, GF3, [M3((1, 0), (0, 2))])
    assert matgrp.conjugate_in_gl(minus_i, diag) is None

    assert matgrp.conjugate_in_gl(S1, S1) is not None


def test_classify_gl22_r3():
    reps = matgrp.classify_elem_abelian_r(2, GF2, 3)
    assert len(reps) == 1
    assert reps[0].order == 3


def test_classify_gl23_r2():
    reps = matgrp.classify_elem_abelian_r(2, GF3, 2)
    assert len(reps) == 1
    assert reps[0].order == 4


def test_classify_gl32_r3_contradicts_nonexistence():
    # d = ord(2 mod 3) = 2 does not divide alpha = 3, yet C3 subgroups exist
    reps = matgrp.classify_elem_abelian_r(3, GF2, 3)
    assert len(reps) == 1
    assert reps[0].order == 3


def test_classify_reps_pairwise_nonconjugate_and_maximal():
    for alpha, spec, r in [(2, GF2, 3), (2, GF3, 2), (3, GF2, 3)]:
        reps = matgrp.classify_elem_abelian_r(alpha, spec, r)
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert matgrp.conjugate_in_gl(a, b) is None
        # every rep is elementary abelian of exponent r
        for g in reps:
            mul = g.ops.mul
            for m in g.codes():
                assert _power(g.ops, m, r) == g.ops.identity
                for m2 in g.codes():
                    assert mul(m, m2) == mul(m2, m)


def test_constructed_group_lies_in_the_single_class():
    for alpha, spec, r in [(2, GF2, 3), (2, GF3, 2), (3, GF2, 3)]:
        built = matgrp.maximal_ar_subgroup(alpha, spec, r)
        reps = matgrp.classify_elem_abelian_r(alpha, spec, r)
        assert any(matgrp.conjugate_in_gl(built, rep) is not None for rep in reps)


def test_irreducible_classes_at_most_one():
    cases = [(2, GF2, 3), (2, GF3, 2), (3, GF2, 3), (3, GF2, 7)]
    for alpha, spec, r in cases:
        reps = matgrp.irreducible_elem_abelian_r_classes(alpha, spec, r)
        assert len(reps) <= 1


def test_irreducible_class_exists_iff_dimension_matches():
    from agroups.gf import multiplicative_order

    for alpha, spec, r in [(2, GF2, 3), (2, GF3, 2), (3, GF2, 7), (3, GF2, 3)]:
        reps = matgrp.irreducible_elem_abelian_r_classes(alpha, spec, r)
        d = multiplicative_order(spec.s, r)
        if d == alpha:
            assert len(reps) == 1 and reps[0].order == r
        else:
            assert reps == []


# -- the classification on the subgroup kernel, against unpruned oracles ------------

# (alpha, t, k, r): GL(alpha, t^k) and the prime r
GL_CASES = [
    (2, 2, 1, 3),
    (2, 3, 1, 2),
    (2, 2, 2, 3),
    (3, 2, 1, 3),
    (3, 2, 1, 7),
    (2, 5, 1, 2),
    (2, 5, 1, 3),
]


def order_r_codes(ops, codes, r):
    def power(x, e):
        out = ops.identity
        for _ in range(e):
            out = ops.mul(out, x)
        return out

    return [c for c in codes if c != ops.identity and power(c, r) == ops.identity]


@lru_cache(maxsize=None)
def unpruned_elem_abelian(alpha, t, k, r):
    """The nontrivial elementary abelian r-subgroups of GL(alpha, t^k), as
    MatGroups, by bf.naive_subgroup_lattice over the order-r codes, capped at
    the r-part of |GL| and keeping subgroups whose elements all commute."""
    spec = field_make(t, k)
    ops = mat_ops(alpha, spec)
    gl = list(gl_elements(alpha, spec))
    r_part = max(r**e for e in range(len(gl).bit_length()) if len(gl) % r**e == 0)

    def commute(sub):
        return all(ops.mul(a, b) == ops.mul(b, a) for a in sub for b in sub)

    naive = set(bf.naive_subgroup_lattice(ops, order_r_codes(ops, gl, r), r_part, commute))
    naive.discard(frozenset({ops.identity}))
    groups = {
        h: closure(alpha, spec, matgrp._greedy_gens(ops, h)) for h in sorted(naive, key=sorted)
    }
    maximal = [g for h, g in groups.items() if not any(h < big for big in naive)]
    return list(groups.values()), maximal


@pytest.mark.parametrize("alpha, t, k, r", GL_CASES)
def test_elem_abelian_scan_matches_unpruned_lattice(alpha, t, k, r):
    # the maximal members of the unpruned lattice, partitioned by pairwise
    # conjugacy tests
    _, maximal = unpruned_elem_abelian(alpha, t, k, r)
    assert matgrp.classify_elem_abelian_r(alpha, field_make(t, k), r) == bf.pairwise_class_reps(
        maximal, matgrp.conjugate_in_gl
    )


@pytest.mark.parametrize("alpha, t, k, r", GL_CASES)
def test_classes_match_pairwise_conjugacy_partition(alpha, t, k, r):
    # the irreducible members of the unpruned lattice, likewise
    groups, _ = unpruned_elem_abelian(alpha, t, k, r)
    irreducible = [g for g in groups if matgrp.is_irreducible(g)]
    assert matgrp.irreducible_elem_abelian_r_classes(
        alpha, field_make(t, k), r
    ) == bf.pairwise_class_reps(irreducible, matgrp.conjugate_in_gl)


def test_classification_runs_no_closure(monkeypatch):
    # each class's MatGroup is made from the member codes the scan holds
    expected = matgrp.classify_elem_abelian_r(3, GF2, 3)
    matgrp._elem_abelian_r_classes.cache_clear()

    def refuse(*_):
        raise AssertionError("closure ran")

    monkeypatch.setattr(matgrp, "closure", refuse)
    assert matgrp.classify_elem_abelian_r(3, GF2, 3) == expected


def test_gl_brute_force_limit():
    gf5 = field_make(5, 1)
    with pytest.raises(LimitExceeded):
        gl_elements(4, gf5, limit=10**6)


def test_gl_is_cached_once_per_dimension_and_field():
    gf2 = field_make(2, 1)
    forms = [
        gl_elements(4, gf2),
        gl_elements(4, gf2, matgrp.GL_BRUTE_LIMIT),
        gl_elements(4, gf2, limit=matgrp.GL_BRUTE_LIMIT),
    ]
    assert all(gl is forms[0] for gl in forms)
    assert matgrp.gl_generators(4, gf2) is matgrp.gl_generators(4, gf2)
    with pytest.raises(LimitExceeded, match="exceeds brute-force limit 20159"):
        gl_elements(4, gf2, limit=gl_order(4, gf2) - 1)


def test_classification_checks_the_limit_before_compiling_the_product(monkeypatch):
    # the straight-line product of GL(40, 2) takes seconds to compile
    def refuse(*_):
        raise AssertionError("mat_ops ran before the GL limit check")

    monkeypatch.setattr(matgrp, "mat_ops", refuse)
    with pytest.raises(LimitExceeded):
        matgrp.classify_elem_abelian_r(40, GF2, 3)


def test_class_scan_is_cached_once_whatever_the_limit():
    # r is checked, then the limit, and only then is the cache read
    matgrp._elem_abelian_r_classes.cache_clear()
    first = matgrp.classify_elem_abelian_r(2, GF3, 2, 10**6)
    assert matgrp.classify_elem_abelian_r(2, GF3, 2, 10**6 + 1) == first
    matgrp.irreducible_elem_abelian_r_classes(2, GF3, 2, gl_order(2, GF3))
    info = matgrp._elem_abelian_r_classes.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for classify in (matgrp.classify_elem_abelian_r, matgrp.irreducible_elem_abelian_r_classes):
        with pytest.raises(NotPrime):
            classify(2, GF3, 4, 1)
        with pytest.raises(CharacteristicConflict):
            classify(2, GF3, 3, 1)
        with pytest.raises(LimitExceeded, match="exceeds brute-force limit 47"):
            classify(2, GF3, 2, gl_order(2, GF3) - 1)
    assert matgrp._elem_abelian_r_classes.cache_info().misses == 1


@pytest.mark.parametrize(
    "r, error, message",
    [(4, NotPrime, "4 is not prime"), (3, CharacteristicConflict, "r = 3 equals the field characteristic")],
    ids=["not-prime", "characteristic"],
)
def test_each_public_function_refuses_a_bad_r_alone(r, error, message):
    # r's check is cached for the functions to share, but a refusal is not:
    # every call refuses again, with the same error
    for fn in (
        matgrp.classify_elem_abelian_r,
        matgrp.irreducible_elem_abelian_r_classes,
        matgrp.maximal_ar_subgroup,
    ):
        for _ in range(2):
            with pytest.raises(error, match=f"^{message}$"):
                fn(2, GF3, r)
