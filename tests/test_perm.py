import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import perm
from agroups.cayley import _power
from agroups.errors import DegreeMismatch, LimitExceeded, NotTransitive
from agroups.perm import PermGroup, code_order, parse_cycles, perm_ops

import bruteforce as bf


def P(text, degree):
    return parse_cycles(text, degree)


def group(degree, *cycle_texts, **kw):
    return PermGroup(degree, [P(t, degree) for t in cycle_texts], **kw)


def code(images):
    """The code of a 1-based image tuple."""
    return tuple(i - 1 for i in images)


# -- codes -------------------------------------------------------------------


def test_perm_mul_left_to_right():
    a = P("(1 2)", 3)
    b = P("(2 3)", 3)
    # x^(ab) = (x^a)^b: 1 -> 2 -> 3
    assert perm_ops(3).mul(a, b)[0] == 2


def test_perm_inverse_and_pow():
    g = P("(1 2 3 4 5)", 5)
    ops = perm_ops(5)
    assert ops.mul(g, ops.inv(g)) == ops.identity
    assert _power(ops, g, 5) == ops.identity
    assert _power(ops, ops.inv(g), 2) == _power(ops, g, 3)


@st.composite
def perm_pairs(draw):
    """Two permutations of 1..n as image tuples, n <= 8, and an exponent."""
    n = draw(st.integers(1, 8))
    a, b = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return a, b, draw(st.integers(-12, 12))


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_perm_arithmetic_matches_bruteforce(case):
    # the kernel's perm_ops on codes; the brute force on 1-based images
    # shares no code with it
    a, b, e = case
    ops = perm_ops(len(a))
    ca, cb = code(a), code(b)
    assert bf.images(ops.mul(ca, cb)) == bf.mul(a, b)
    assert bf.images(ops.inv(ca)) == bf.inv(a)
    power = tuple(range(1, len(a) + 1))
    for _ in range(abs(e)):
        power = bf.mul(power, a if e >= 0 else bf.inv(a))
    assert bf.images(_power(ops, ca if e >= 0 else ops.inv(ca), abs(e))) == power
    assert code_order(ca) == bf.perm_order(a)


def test_cycle_roundtrip():
    g = P("(1 3)(2 5 4)", 6)
    assert bf.images(g) == (3, 5, 1, 2, 4, 6)
    assert parse_cycles("(2 5 4)(3 1)(6)") == g
    assert code_order(g) == 6
    assert perm._cycle_type(g) == (3, 2)
    assert parse_cycles("()") == (0,) and parse_cycles("(2 3)", 4) == (0, 2, 1, 3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2 x)")


@pytest.mark.parametrize(
    "text", ["(1 2)(1 2)", "(1 2 3)(1 2 3)", "(1 1)", "(1 2)(2 3)", "(3 1 2 1)"]
)
def test_parse_refuses_repeated_points(text):
    # a point in two cycles, or twice in one, is not disjoint cycle notation
    with pytest.raises(ValueError, match="appears twice"):
        parse_cycles(text)


# -- BSGS order and membership -------------------------------------------------


def test_s5_order():
    G = group(5, "(1 2 3 4 5)", "(1 2)")
    assert G.order == 120


def test_a4_order_from_spec_generators():
    G = group(4, "(1 2)(3 4)", "(1 3)(2 4)", "(2 3 4)")
    closure = bf.naive_closure(4, [bf.images(g) for g in G.generators])
    assert G.order == len(closure) == 12


def test_empty_generators_trivial_group():
    G = PermGroup(4, [])
    assert G.order == 1
    assert G.codes() == [perm_ops(4).identity]


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
        closure = bf.naive_closure(degree, [bf.images(P(t, degree)) for t in texts])
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
        G = PermGroup(6, [code(g) for g in gens])
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
        G = PermGroup(7, [code(g) for g in gens])
        assert G.order == len(bf.naive_closure(7, gens))


def test_membership_exact():
    G = group(4, "(1 2)(3 4)", "(1 3)(2 4)", "(2 3 4)")  # A4
    closure = bf.naive_closure(4, [bf.images(g) for g in G.generators])
    for images in itertools.permutations(range(1, 5)):
        assert G.contains(code(images)) == (images in closure)


def test_elements_sorted_and_complete():
    G = group(4, "(1 2 3 4)", "(1 3)")  # D4
    elems = G.codes()
    assert len(elems) == G.order == 8
    assert elems == sorted(elems)
    assert set(map(bf.images, elems)) == bf.naive_closure(4, list(map(bf.images, G.generators)))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        PermGroup(4, [P("(1 2 3 4 5)", 5)])


def test_elements_limit():
    G = group(8, "(1 2 3 4 5 6 7 8)", "(1 2)")
    assert G.order == 40320
    with pytest.raises(LimitExceeded):
        G.codes()


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
        assert G.is_primitive() == bf.naive_is_primitive(degree, G.generators)


def test_imprimitive_witness_is_a_block():
    G = group(6, "(1 2 3 4 5 6)")
    block = G.primitivity_block()
    assert block is not None and 1 in block and 1 < len(block) < 6
    # the witness really is a block: images are equal or disjoint
    for g in G.codes():
        image = frozenset(g[p - 1] + 1 for p in block)
        assert image == block or not (image & block)


# -- stabilizers ----------------------------------------------------------------


def test_point_stabilizer_examples():
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    stab = A4.point_stabilizer(4)
    assert stab.order == 3
    assert all(g[3] == 3 for g in stab.codes())
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
        ops = A.ops
        for g in A.codes():
            assert B.contains(ops.mul(ops.mul(ops.inv(x), g), x))


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
        elems = set(map(bf.images, G.codes()))
        normals = bf.naive_normal_subgroups(G.degree, elems)
        nontrivial = [N for N in normals if 1 < len(N)]
        minimal = [
            N
            for N in nontrivial
            if not any(1 < len(M) < len(N) and M < N for M in nontrivial)
        ]
        got = perm.minimal_normal_subgroups(G)
        assert sorted(tuple(sorted(map(bf.images, M.codes()))) for M in got) == sorted(
            tuple(sorted(N)) for N in minimal
        )
        # each result is normal and minimal by construction; double-check normality
        ops = G.ops
        for M in got:
            for g in G.codes():
                for h in M.codes():
                    assert M.contains(ops.mul(ops.mul(ops.inv(g), h), g))


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
        F = set(map(bf.images, perm.fitting_subgroup(G).codes()))
        assert bf.naive_is_nilpotent(F)
        assert F == bf.naive_fitting_subgroup(G.degree, set(map(bf.images, G.codes())))


# -- determinism and limits -----------------------------------------------------


def test_canonical_generators_independent_of_input_order():
    texts = ["(1 2 3)", "(2 3 4)", "(1 2)(3 4)"]
    gens = [P(t, 4) for t in texts]
    a = PermGroup(4, gens)
    b = PermGroup(4, list(reversed(gens)))
    assert a.generators == b.generators
    assert a.order == b.order
    assert a.codes() == b.codes()


def test_exhaustive_ops_are_bounded_by_order_not_degree():
    # S8 lists more elements than EXHAUSTIVE_ORDER_LIMIT; C11 is cheap at any degree
    S8 = PermGroup(8, [P("(1 2 3 4 5 6 7 8)", 8), P("(1 2)", 8)])
    with pytest.raises(LimitExceeded):
        perm.minimal_normal_subgroups(S8)
    C11 = PermGroup(11, [P("(1 2 3 4 5 6 7 8 9 10 11)", 11)])
    [M] = perm.minimal_normal_subgroups(C11)
    assert M.codes() == C11.codes()


# -- wire format -------------------------------------------------------------------


def test_json_roundtrip():
    G = group(4, "(1 2 3)", "(2 3 4)")
    data = perm.permgroup_to_json(G)
    H = perm.permgroup_from_json(data)
    assert H.order == G.order and H.degree == G.degree
    assert data["generators"] == [list(bf.images(g)) for g in G.generators]
