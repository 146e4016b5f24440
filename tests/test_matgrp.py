import itertools

import pytest

from agroups import matgrp
from agroups.errors import (
    CharacteristicConflict,
    LimitExceeded,
    SingularGenerator,
)
from agroups.gf import field_make
from agroups.matgrp import Mat, closure, gl_elements, gl_order, mat_ops

import bruteforce as bf
from bruteforce import naive_det, naive_mat_mul


GF2 = field_make(2, 1)
GF3 = field_make(3, 1)


def M2(*rows):
    return Mat.from_ints(GF2, rows)


def M3(*rows):
    return Mat.from_ints(GF3, rows)


# -- basics --------------------------------------------------------------------


def test_gl_order_examples():
    assert gl_order(2, GF2) == 6
    assert gl_order(2, GF3) == 48
    assert gl_order(3, GF2) == 168


def test_matrix_inverse_and_det():
    m = M3((1, 1), (0, 1))
    assert (m * m.inverse()).is_identity()
    assert m.det() != 0
    singular = M3((1, 2), (2, 4))
    assert singular.det() == 0
    with pytest.raises(SingularGenerator):
        singular.inverse()


def test_closure_examples():
    companion = M2((0, 1), (1, 1))  # companion of x^2 + x + 1
    G = closure([companion])
    assert G.order == 3
    ident = closure([Mat.identity(2, GF2)])
    assert ident.order == 1
    diag = closure([M3((2, 0), (0, 1)), M3((1, 0), (0, 2))])
    assert diag.order == 4


def test_closure_rejects_singular():
    with pytest.raises(SingularGenerator):
        closure([M3((1, 2), (2, 4))])


def test_closure_limit():
    with pytest.raises(LimitExceeded):
        closure([m for m in gl_elements(2, GF3)[:6]], limit=10)


def test_gl_elements_complete_and_deterministic():
    elems = gl_elements(2, GF2)
    assert len(elems) == 6
    assert list(elems) == sorted(elems, key=lambda m: m.entries)
    again = gl_elements(2, GF2)
    assert [m.entries for m in again] == [m.entries for m in elems]
    # closure of the full list is the whole group
    assert closure(list(elems)).order == 6


# -- the integer kernel against FieldElem arithmetic ----------------------------


def as_elems(m):
    """The matrix as rows of FieldElem."""
    n = m.alpha
    return [[m.spec.from_index(e) for e in m.entries[i * n : i * n + n]] for i in range(n)]


def indices(rows):
    return tuple(e.index for row in rows for e in row)


@pytest.mark.parametrize("alpha, s", [(2, 2), (2, 3), (3, 2)])
def test_products_match_naive_on_all_pairs(alpha, s):
    spec = field_make(s, 1)
    gl = gl_elements(alpha, spec)
    code_mul = mat_ops(alpha, spec).mul
    rows = {m: as_elems(m) for m in gl}
    for a in gl:
        for b in gl:
            naive = indices(naive_mat_mul(rows[a], rows[b]))
            assert (a * b).entries == naive
            assert code_mul(a.entries, b.entries) == naive


@pytest.mark.parametrize("alpha, t, k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 5, 1)])
def test_det_matches_leibniz_on_every_matrix(alpha, t, k):
    spec = field_make(t, k)
    invertible = []
    for flat in itertools.product(range(spec.s), repeat=alpha * alpha):
        m = Mat(spec, flat)
        d = naive_det(as_elems(m)).index
        assert m.det() == d
        if d:
            invertible.append(m)
    assert list(gl_elements(alpha, spec)) == invertible
    assert len(invertible) == gl_order(alpha, spec)


@pytest.mark.parametrize("t, k", [(2, 2), (5, 1)])
def test_kernel_matches_naive_on_generator_pairs(t, k):
    spec = field_make(t, k)
    gens = [
        matgrp.singer_generator(2, spec),
        Mat.from_ints(spec, ((1, 1), (0, 1))),
        Mat.from_ints(spec, ((0, 1), (1, 0))),
    ]
    zero = spec.zero()
    for m in gl_elements(2, spec):
        assert (m * m.inverse()).is_identity()
        for g in gens:
            assert (m * g).entries == indices(naive_mat_mul(as_elems(m), as_elems(g)))
            assert (g * m).entries == indices(naive_mat_mul(as_elems(g), as_elems(m)))
    for v in itertools.product(range(spec.s), repeat=2):
        as_row = [[spec.from_index(c) for c in v], [zero, zero]]
        for g in gens:
            assert g.apply(v) == indices(naive_mat_mul(as_row, as_elems(g))[:1])


# -- irreducibility -------------------------------------------------------------


def test_irreducibility_examples():
    companion = closure([M2((0, 1), (1, 1))])
    assert matgrp.is_irreducible(companion)
    trivial = closure([Mat.identity(2, GF2)])
    assert not matgrp.is_irreducible(trivial)
    diagonal = closure([M3((2, 0), (0, 1))])
    assert not matgrp.is_irreducible(diagonal)


def test_irreducibility_matches_invariant_line_scan_gl23():
    # oracle: a 2-dimensional group is reducible iff some line is invariant
    for mat in gl_elements(2, GF3):
        G = closure([mat])
        lines = list(matgrp._lines(2, GF3))
        has_invariant_line = False
        for v in lines:
            img = mat.apply(v)
            # img parallel to v? (GF(3) element indices are residues)
            a, b = v
            c, d = img
            if (a * d - b * c) % 3 == 0:
                has_invariant_line = True
                break
        assert matgrp.is_irreducible(G) == (not has_invariant_line)


# -- Singer subgroups ------------------------------------------------------------


def test_singer_orders():
    assert matgrp.singer_subgroup(2, GF2).order == 3
    assert matgrp.singer_subgroup(2, GF3).order == 8
    assert matgrp.singer_subgroup(3, GF2).order == 7


def test_singer_irreducible_and_cyclic():
    for alpha, spec in [(2, GF2), (2, GF3), (3, GF2), (1, GF3)]:
        S = matgrp.singer_subgroup(alpha, spec)
        assert S.order == spec.s**alpha - 1
        assert matgrp.is_irreducible(S)
        gen = matgrp.singer_generator(alpha, spec)
        assert gen.order() == S.order


def test_singer_over_extension_field():
    gf4 = field_make(2, 2)
    S = matgrp.singer_subgroup(2, gf4)
    assert S.order == 15
    assert matgrp.is_irreducible(S)


# -- the classified subgroups ------------------------------------------------------


def test_maximal_ar_examples():
    G = matgrp.maximal_ar_subgroup(2, GF2, 3)
    assert G is not None and G.order == 3
    assert matgrp.is_irreducible(G)

    H = matgrp.maximal_ar_subgroup(2, GF3, 2)
    assert H is not None and H.order == 4
    # diagonal +-1 type: every generator is diagonal
    for g in H.generators:
        assert g.entries[1] == 0 and g.entries[2] == 0

    K = matgrp.maximal_ar_subgroup(3, GF2, 3)
    assert K is not None and K.order == 3  # d = 2, k = 1, identity block


def test_maximal_ar_none_when_k_zero():
    # order of 3 mod 5 is 4 > alpha
    assert matgrp.maximal_ar_subgroup(2, GF3, 5) is None


def test_maximal_ar_characteristic_conflict():
    with pytest.raises(CharacteristicConflict):
        matgrp.maximal_ar_subgroup(2, GF3, 3)


def test_conjugate_in_gl_examples():
    S1 = matgrp.singer_subgroup(2, GF2)
    # a conjugate Singer subgroup
    x = gl_elements(2, GF2)[3]
    gens = [x.inverse() * g * x for g in S1.generators]
    S2 = closure(gens)
    conj = matgrp.conjugate_in_gl(S1, S2)
    assert conj is not None
    ci = conj.inverse()
    assert all((ci * g * conj) in S2.elements for g in S1.generators)

    minus_i = closure([M3((2, 0), (0, 2))])
    diag = closure([M3((1, 0), (0, 2))])
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
            for m in g.elements:
                assert m.is_identity() or m.order() == r
                for m2 in g.elements:
                    assert m * m2 == m2 * m


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


@pytest.mark.parametrize("alpha, t, k, r", GL_CASES)
def test_elem_abelian_scan_matches_unpruned_lattice(alpha, t, k, r):
    spec = field_make(t, k)
    ops = mat_ops(alpha, spec)
    gl = [m.entries for m in gl_elements(alpha, spec)]
    r_part = max(r**e for e in range(len(gl).bit_length()) if len(gl) % r**e == 0)

    def commute(sub):
        return all(ops.mul(a, b) == ops.mul(b, a) for a in sub for b in sub)

    naive = set(bf.naive_subgroup_lattice(ops, order_r_codes(ops, gl, r), r_part, commute))
    naive.discard(frozenset({ops.identity}))
    lattice, maximal = matgrp._elem_abelian_r_subgroups(alpha, spec, r, matgrp.GL_BRUTE_LIMIT)
    assert set(lattice) == naive
    assert sorted(maximal, key=sorted) == sorted(
        (h for h in naive if not any(h < big for big in naive)), key=sorted
    )


@pytest.mark.parametrize("alpha, t, k, r", GL_CASES)
def test_classes_match_pairwise_conjugacy_partition(alpha, t, k, r):
    spec = field_make(t, k)
    lattice, maximal = matgrp._elem_abelian_r_subgroups(alpha, spec, r, matgrp.GL_BRUTE_LIMIT)
    groups = [matgrp.group_from_mats(alpha, spec, sub) for sub in lattice]
    maximal_groups = [matgrp.group_from_mats(alpha, spec, sub) for sub in maximal]
    irreducible = [g for g in groups if matgrp.is_irreducible(g)]
    assert matgrp.classify_elem_abelian_r(alpha, spec, r) == bf.pairwise_class_reps(
        maximal_groups, matgrp.conjugate_in_gl
    )
    assert matgrp.irreducible_elem_abelian_r_classes(alpha, spec, r) == bf.pairwise_class_reps(
        irreducible, matgrp.conjugate_in_gl
    )


def test_gl_brute_force_limit():
    gf5 = field_make(5, 1)
    with pytest.raises(LimitExceeded):
        gl_elements(4, gf5, limit=10**6)


def test_json_roundtrip():
    G = matgrp.maximal_ar_subgroup(2, GF3, 2)
    data = matgrp.matgroup_to_json(G)
    H = matgrp.matgroup_from_json(data)
    assert H.order == G.order
    assert set(H.elements) == set(G.elements)
