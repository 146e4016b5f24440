import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import perm
from agroups.errors import DegreeMismatch, LimitExceeded, NotTransitive
from agroups.perm import Perm, PermGroup, parse_cycles

import bruteforce as bf


def P(text, degree):
    return parse_cycles(text, degree)


def group(degree, *cycle_texts, **kw):
    return PermGroup(degree, [P(t, degree) for t in cycle_texts], **kw)


# -- Perm basics --------------------------------------------------------------


def test_perm_mul_left_to_right():
    a = P("(1 2)", 3)
    b = P("(2 3)", 3)
    # x^(ab) = (x^a)^b: 1 -> 2 -> 3
    assert (a * b).apply(1) == 3


def test_perm_inverse_and_pow():
    g = P("(1 2 3 4 5)", 5)
    assert (g * g.inverse()).is_identity()
    assert g**5 == Perm.identity(5)
    assert g**-2 == g**3


@st.composite
def perm_pairs(draw):
    """Two permutations of 1..n as image tuples, n <= 8, and an exponent."""
    n = draw(st.integers(1, 8))
    a, b = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return a, b, draw(st.integers(-12, 12))


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_perm_arithmetic_matches_bruteforce(case):
    # Perm runs on the kernel's perm_ops; the brute force shares no code with it
    a, b, e = case
    pa, pb = Perm(a), Perm(b)
    assert (pa * pb).images == bf.mul(a, b)
    assert pa.inverse().images == bf.inv(a)
    power = tuple(range(1, len(a) + 1))
    for _ in range(abs(e)):
        power = bf.mul(power, a if e >= 0 else bf.inv(a))
    assert (pa**e).images == power
    assert pa.order() == bf.perm_order(a)
    assert pa.is_identity() == (a == tuple(range(1, len(a) + 1)))


def test_cycle_roundtrip():
    g = P("(1 3)(2 5 4)", 6)
    assert perm.cycle_string(g) == "(1 3)(2 4 5)" or g == parse_cycles(perm.cycle_string(g), 6)
    assert g.order() == 6
    assert g.cycle_type() == (3, 2)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2 x)")


# -- BSGS order and membership -------------------------------------------------


def test_s5_order():
    G = group(5, "(1 2 3 4 5)", "(1 2)")
    assert G.order == 120


def test_a4_order_from_spec_generators():
    G = group(4, "(1 2)(3 4)", "(1 3)(2 4)", "(2 3 4)")
    closure = bf.naive_closure(4, [g.images for g in G.generators])
    assert G.order == len(closure) == 12


def test_empty_generators_trivial_group():
    G = PermGroup(4, [])
    assert G.order == 1
    assert G.elements() == [Perm.identity(4)]


def test_bsgs_order_matches_closure_on_standard_groups():
    cases = [
        (3, ["(1 2 3)"]),
        (3, ["(1 2 3)", "(1 2)"]),
        (4, ["(1 2 3 4)"]),
        (4, ["(1 2 3 4)", "(1 3)"]),
        (5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
        (6, ["(1 2 3 4 5 6)", "(1 2)"]),
        (6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
        (7, ["(1 2 3 4 5 6 7)", "(2 3)(4 7)"]),
    ]
    for degree, texts in cases:
        G = group(degree, *texts)
        closure = bf.naive_closure(degree, [P(t, degree).images for t in texts])
        assert G.order == len(closure)


def test_bsgs_order_matches_closure_random_s6():
    # thirty seeded random subgroups of S6
    rng = random.Random(1906)
    points = list(range(1, 7))
    for _ in range(30):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = points[:]
            rng.shuffle(images)
            gens.append(tuple(images))
        G = PermGroup(6, [Perm(g) for g in gens])
        assert G.order == len(bf.naive_closure(6, gens))


def test_bsgs_order_matches_closure_random_s7():
    rng = random.Random(77)
    points = list(range(1, 8))
    for _ in range(12):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = points[:]
            rng.shuffle(images)
            gens.append(tuple(images))
        G = PermGroup(7, [Perm(g) for g in gens])
        assert G.order == len(bf.naive_closure(7, gens))


def test_membership_exact():
    G = group(4, "(1 2)(3 4)", "(1 3)(2 4)", "(2 3 4)")  # A4
    closure = bf.naive_closure(4, [g.images for g in G.generators])
    for images in itertools.permutations(range(1, 5)):
        assert G.contains(Perm(images)) == (images in closure)


def test_elements_sorted_and_complete():
    G = group(4, "(1 2 3 4)", "(1 3)")  # D4
    elems = G.elements()
    assert len(elems) == G.order == 8
    assert elems == sorted(elems, key=lambda g: g.images)
    assert {e.images for e in elems} == bf.naive_closure(4, [g.images for g in G.generators])


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        PermGroup(4, [P("(1 2 3 4 5)", 5)])


def test_elements_limit():
    G = group(8, "(1 2 3 4 5 6 7 8)", "(1 2)")
    assert G.order == 40320
    with pytest.raises(LimitExceeded):
        G.elements()


# -- orbits and transitivity ---------------------------------------------------


def test_orbits_examples():
    G = PermGroup(4, [P("(1 2 3)", 4)])
    assert G.orbits() == [(1, 2, 3), (4,)]
    assert not G.is_transitive()
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    assert A4.is_transitive()
    ident = PermGroup(3, [])
    assert ident.orbits() == [(1,), (2,), (3,)]


# -- primitivity ---------------------------------------------------------------


def test_primitivity_examples():
    assert group(3, "(1 2 3)").is_primitive()
    C4 = group(4, "(1 2 3 4)")
    block = C4.primitivity_block()
    assert block == frozenset({1, 3})
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    assert A4.is_primitive()


def test_primitivity_requires_transitive():
    with pytest.raises(NotTransitive):
        PermGroup(4, [P("(1 2 3)", 4)]).is_primitive()


def test_primitivity_matches_bruteforce_block_enumeration():
    cases = [
        (4, ["(1 2 3 4)"]),
        (4, ["(1 2 3 4)", "(1 3)"]),
        (4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
        (4, ["(1 2 3)", "(2 3 4)"]),
        (5, ["(1 2 3 4 5)"]),
        (5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
        (6, ["(1 2 3 4 5 6)"]),
        (6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"]),
        (6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
        (8, ["(1 2 3 4 5 6 7 8)", "(2 4)(3 7)(6 8)"]),
    ]
    for degree, texts in cases:
        G = group(degree, *texts)
        gens = [g.images for g in G.generators]
        assert G.is_primitive() == bf.naive_is_primitive(degree, gens)


def test_imprimitive_witness_is_a_block():
    G = group(6, "(1 2 3 4 5 6)")
    block = G.primitivity_block()
    assert block is not None and 1 in block and 1 < len(block) < 6
    # the witness really is a block: images are equal or disjoint
    for g in G.elements():
        image = frozenset(g.apply(p) for p in block)
        assert image == block or not (image & block)


# -- stabilizers ----------------------------------------------------------------


def test_point_stabilizer_examples():
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    stab = A4.point_stabilizer(4)
    assert stab.order == 3
    assert all(g.apply(4) == 4 for g in stab.elements())
    S3 = group(3, "(1 2 3)", "(1 2)")
    stab3 = S3.point_stabilizer(3)
    assert stab3.order == 2
    assert P("(1 2)", 3) in stab3
    C5 = group(5, "(1 2 3 4 5)")
    assert C5.point_stabilizer(2).order == 1


def test_orbit_stabilizer_relation():
    for G in [
        group(5, "(1 2 3 4 5)", "(1 2)"),
        group(4, "(1 2 3)", "(2 3 4)"),
        group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),
        PermGroup(5, [P("(1 2 3)", 5), P("(4 5)", 5)]),
    ]:
        for x in range(1, G.degree + 1):
            orbit = next(o for o in G.orbits() if x in o)
            assert G.order == len(orbit) * G.point_stabilizer(x).order


# -- subgroup conjugacy ----------------------------------------------------------


def test_conjugate_three_cycles():
    for A, B in [
        (group(4, "(1 2 3)"), group(4, "(2 3 4)")),
        # the first x mapping (3 4) into B maps (1 2) outside it
        (group(5, "(1 2)", "(3 4)"), group(5, "(1 5)", "(2 3)")),
    ]:
        x = perm.subgroup_conjugate(A, B)
        assert x is not None
        for g in A.elements():
            assert B.contains(x.inverse() * g * x)


def test_conjugate_none_for_different_cycle_types():
    A = group(4, "(1 2)")
    B = group(4, "(1 2)(3 4)")
    assert perm.subgroup_conjugate(A, B) is None
    V4 = group(4, "(1 2)(3 4)", "(1 3)(2 4)")
    E = group(4, "(1 2)", "(3 4)")
    assert perm.subgroup_conjugate(V4, E) is None


def test_conjugate_self_is_identityish():
    A = group(4, "(1 2 3)")
    x = perm.subgroup_conjugate(A, A)
    assert x is not None


def test_conjugate_exhaustive_none_check():
    # C4 and V4 have the same order but are not conjugate (not even isomorphic)
    C4 = group(4, "(1 2 3 4)")
    V4 = group(4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert perm.subgroup_conjugate(C4, V4) is None


def test_conjugate_degree_limit():
    big = group(9, "(1 2 3 4 5 6 7 8 9)")
    with pytest.raises(LimitExceeded):
        perm.subgroup_conjugate(big, big)


# -- normal structure -------------------------------------------------------------


def _orders(groups):
    return sorted(g.order for g in groups)


def test_minimal_normal_subgroups_examples():
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    mns = perm.minimal_normal_subgroups(A4)
    assert _orders(mns) == [4]
    S3 = group(3, "(1 2 3)", "(1 2)")
    assert _orders(perm.minimal_normal_subgroups(S3)) == [3]
    C6 = group(6, "(1 2 3 4 5 6)")
    assert _orders(perm.minimal_normal_subgroups(C6)) == [2, 3]


def test_minimal_normal_subgroups_match_exhaustive_scan():
    for G in [
        group(4, "(1 2 3)", "(2 3 4)"),
        group(3, "(1 2 3)", "(1 2)"),
        group(6, "(1 2 3 4 5 6)"),
        group(4, "(1 2 3 4)", "(1 3)"),  # D4
        group(5, "(1 2 3 4 5)", "(2 3 5 4)"),  # F20
    ]:
        elems = {g.images for g in G.elements()}
        normals = bf.naive_normal_subgroups(G.degree, elems)
        nontrivial = [N for N in normals if 1 < len(N)]
        minimal = [
            N
            for N in nontrivial
            if not any(1 < len(M) < len(N) and M < N for M in nontrivial)
        ]
        got = perm.minimal_normal_subgroups(G)
        assert sorted(tuple(sorted(m)) for m in ({g.images for g in M.elements()} for M in got)) == sorted(
            tuple(sorted(N)) for N in minimal
        )
        # each result is normal and minimal by construction; double-check normality
        for M in got:
            for g in G.elements():
                for h in M.elements():
                    assert M.contains(g.inverse() * h * g)


def test_fitting_subgroup_examples():
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    assert perm.fitting_subgroup(A4).order == 4
    S3 = group(3, "(1 2 3)", "(1 2)")
    F = perm.fitting_subgroup(S3)
    assert F.order == 3
    C6 = group(6, "(1 2 3 4 5 6)")
    assert perm.fitting_subgroup(C6).order == 6  # abelian: F(G) = G


def test_fitting_subgroup_nilpotent_and_normal():
    # equal to the brute-force oracle: the largest normal subgroup whose
    # Sylow subgroups are all normal in it
    for G in [
        group(4, "(1 2 3)", "(2 3 4)"),
        group(4, "(1 2 3 4)", "(1 3)"),
        group(3, "(1 2 3)", "(1 2)"),
        group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),  # D6
        group(4, "(1 2 3 4)", "(1 2)"),  # S4
    ]:
        F = {g.images for g in perm.fitting_subgroup(G).elements()}
        assert bf.naive_is_nilpotent(F)
        assert F == bf.naive_fitting_subgroup(G.degree, {g.images for g in G.elements()})


# -- determinism and limits -----------------------------------------------------


def test_canonical_generators_independent_of_input_order():
    texts = ["(1 2 3)", "(2 3 4)", "(1 2)(3 4)"]
    gens = [P(t, 4) for t in texts]
    a = PermGroup(4, gens)
    b = PermGroup(4, list(reversed(gens)))
    assert a.generators == b.generators
    assert a.order == b.order
    assert [e.images for e in a.elements()] == [e.images for e in b.elements()]


def test_exhaustive_ops_respect_degree_limit():
    wide = PermGroup(11, [P("(1 2 3 4 5 6 7 8 9 10 11)", 11)])
    with pytest.raises(LimitExceeded):
        perm.minimal_normal_subgroups(wide)


# -- wire format -------------------------------------------------------------------


def test_json_roundtrip():
    G = group(4, "(1 2 3)", "(2 3 4)")
    data = perm.permgroup_to_json(G)
    H = perm.permgroup_from_json(data)
    assert H.order == G.order and H.degree == G.degree
    assert data["generators"] == [list(g.images) for g in G.generators]
