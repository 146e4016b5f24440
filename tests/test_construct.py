import pytest

from agroups import perm
from agroups.cayley import CayleyGroup, are_isomorphic, cyclic_table, direct_product_table
from agroups.construct import (
    CASE_AFFINE,
    CASE_CYCLIC_Q,
    CASE_CYCLIC_R,
    primitive_aqar_group,
    semidirect_product,
    verify_theorem_b,
)
from agroups.errors import (
    DegreeLimit,
    NotHomomorphism,
    NotPrimitive,
    SamePrime,
)
from agroups.perm import PermGroup, parse_cycles

import bruteforce as bf

# GF(2) matrix codes: the identity, and the powers I, C, C^2 of the companion
# matrix C of x^2 + x + 1
IDENTITY, COMPANION = (1, 0, 0, 1), (0, 1, 1, 1)
COMPANION_POWERS = [IDENTITY, COMPANION, (1, 1, 1, 0)]


def pgroup(degree, *texts):
    return PermGroup(degree, [parse_cycles(t, degree) for t in texts])


# -- primitive constructions ---------------------------------------------------


def test_affine_3_2_is_s3():
    spec, G = primitive_aqar_group(3, 2)
    assert spec.beta == 1 and spec.n == 3
    assert G.degree == 3 and G.order == 6
    # conjugate (here: equal as subgroups) to S3 itself
    S3 = pgroup(3, "(1 2 3)", "(1 2)")
    assert perm.subgroup_conjugate(G, S3) is not None


def test_affine_2_3_is_a4():
    spec, G = primitive_aqar_group(2, 3)
    assert spec.beta == 2 and spec.n == 4
    assert G.degree == 4 and G.order == 12
    A4 = pgroup(4, "(1 2 3)", "(2 3 4)")
    assert perm.subgroup_conjugate(G, A4) is not None


def test_affine_2_7_order_56():
    spec, G = primitive_aqar_group(2, 7)
    assert spec.beta == 3 and spec.n == 8
    assert G.degree == 8 and G.order == 56
    assert G.is_transitive() and G.is_primitive()


def test_cyclic_cases():
    spec, G = primitive_aqar_group(3, 5, CASE_CYCLIC_R)
    assert G.degree == 5 and G.order == 5
    spec, G = primitive_aqar_group(3, 5, CASE_CYCLIC_Q)
    assert G.degree == 3 and G.order == 3


def test_degree_limit_and_same_prime():
    with pytest.raises(DegreeLimit):
        primitive_aqar_group(3, 5)  # order of 3 mod 5 is 4: degree 81
    with pytest.raises(SamePrime):
        primitive_aqar_group(3, 3)


def test_construction_passes_verification():
    for q, r in [(3, 2), (2, 3), (5, 2), (2, 7)]:
        spec, G = primitive_aqar_group(q, r)
        report = verify_theorem_b(G, q, r)
        assert report["all_passed"], report
        assert report["case"] == CASE_AFFINE
        assert report["order"] == spec.n * r
    for q, r, case in [(2, 3, CASE_CYCLIC_R), (5, 3, CASE_CYCLIC_Q)]:
        spec, G = primitive_aqar_group(q, r, case)
        report = verify_theorem_b(G, q, r)
        assert report["all_passed"], report


def test_verify_cyclic_r_example():
    G = pgroup(3, "(1 2 3)")
    report = verify_theorem_b(G, 2, 3)
    assert report["all_passed"]
    assert report["case"] == CASE_CYCLIC_R
    assert report["order"] == 3


def test_verify_rejects_imprimitive():
    C4 = pgroup(4, "(1 2 3 4)")
    with pytest.raises(NotPrimitive):
        verify_theorem_b(C4, 2, 3)


def test_verify_notes_prime_order_minimal_normal():
    G = pgroup(3, "(1 2 3)", "(1 2)")  # S3: M = A3 of prime order
    report = verify_theorem_b(G, 3, 2)
    assert report["all_passed"]
    assert any("k = 1" in note for note in report["notes"])


def test_provenance_block():
    spec, _ = primitive_aqar_group(2, 7)
    prov = spec.provenance()
    assert prov == {"theorem": "B", "case": "affine", "q": 2, "r": 7, "beta": 3, "n": 8}


# -- semidirect products -----------------------------------------------------------


def test_semidirect_a4():
    c3 = cyclic_table(3)
    G = semidirect_product(2, 2, COMPANION_POWERS, c3)
    assert G.order == 12 and not G.is_abelian()
    A4 = bf.table_of(pgroup(4, "(1 2 3)", "(2 3 4)"))
    assert are_isomorphic(G, A4)


def test_semidirect_s3():
    c2 = cyclic_table(2)
    G = semidirect_product(3, 1, [(1,), (2,)], c2)  # 2 is minus one
    S3 = bf.table_of(pgroup(3, "(1 2 3)", "(1 2)"))
    assert are_isomorphic(G, S3)


def test_semidirect_trivial_action_is_direct_product():
    c4 = cyclic_table(4)
    G = semidirect_product(3, 1, [(1,)] * 4, c4)
    assert are_isomorphic(G, direct_product_table(cyclic_table(3), c4))
    assert G.is_abelian()


def test_semidirect_rejects_non_homomorphism():
    companion, identity = COMPANION, IDENTITY
    c3 = cyclic_table(3)
    bad = [identity, companion, companion]  # not multiplicative
    with pytest.raises(NotHomomorphism):
        semidirect_product(2, 2, bad, c3)
    with pytest.raises(NotHomomorphism):
        semidirect_product(2, 2, [companion] * 3, c3)  # identity must act trivially
    with pytest.raises(NotHomomorphism, match="one matrix per element"):
        semidirect_product(2, 2, [identity] * 2, c3)
    with pytest.raises(NotHomomorphism, match="wrong shape"):
        semidirect_product(2, 2, [identity, companion, identity[:3]], c3)
    with pytest.raises(NotHomomorphism, match="wrong shape"):
        semidirect_product(2, 2, [identity, companion, (0, 2, 1, 1)], c3)


def test_semidirect_kernel_is_normal_elementary_abelian():
    c3 = cyclic_table(3)
    G = semidirect_product(2, 2, COMPANION_POWERS, c3)
    # kernel = pairs (v, identity) = indices {v * |H| + e}
    kernel = frozenset(v * 3 + c3.identity for v in range(4))
    from agroups.cayley import is_normal

    assert is_normal(G, kernel)
    for a in kernel:
        assert G.element_orders[a] in (1, 2)
        for b in kernel:
            assert G.mul(a, b) == G.mul(b, a)
        assert G.mul(a, a) == G.identity or G.element_orders[a] == 1


def test_verify_builds_no_table(monkeypatch):
    # the variety membership and the normal structure run on permutation codes
    spec, G = primitive_aqar_group(2, 7)

    def refuse(*_):
        raise AssertionError("a multiplication table was built")

    monkeypatch.setattr(CayleyGroup, "__init__", refuse)
    assert spec.n == 8 and verify_theorem_b(G, 2, 7)["all_passed"]
