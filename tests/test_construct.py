import itertools

import pytest

from agroups import cayley, census, cli, construct, perm
from agroups.cayley import CayleyGroup, VarietyParams, are_isomorphic
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
    LimitExceeded,
    NotHomomorphism,
    NotPrimitive,
    SamePrime,
)
from agroups.gf import field_make
from agroups.matgrp import gl_elements, mat_ops
from agroups.perm import PermGroup, parse_cycles

import bruteforce as bf
from bruteforce import cyclic_table, direct_product_table

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
    assert bf.is_transitive(8, G.generators) and G.is_primitive()


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
    assert G.order == 12 and not bf.is_abelian(G)
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
    assert bf.is_abelian(G)


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


def test_semidirect_rejects_exactly_the_non_homomorphisms():
    # the action check walks the Cayley graph's edges; the all-pairs oracle
    # decides every map with f(e) = I into GL(1, 3) and GL(2, 2)
    s3 = bf.table_of(pgroup(3, "(1 2 3)", "(1 2)"))
    actings = [cyclic_table(2), cyclic_table(3), cyclic_table(4), s3]
    checked = 0
    for u, dim in [(3, 1), (2, 2)]:
        ops = mat_ops(dim, field_make(u, 1))
        gl = gl_elements(dim, field_make(u, 1))
        for H in actings:
            others = [x for x in range(H.order) if x != H.identity]
            for images in itertools.product(gl, repeat=len(others)):
                action = [ops.identity] * H.order
                for x, m in zip(others, images):
                    action[x] = m
                if bf.naive_is_homomorphism(H.table, action, ops.mul):
                    assert semidirect_product(u, dim, action, H).order == u**dim * H.order
                else:
                    with pytest.raises(NotHomomorphism):
                        semidirect_product(u, dim, action, H)
                checked += 1
    assert checked == 2 + 4 + 8 + 32 + 6 + 36 + 216 + 6**5


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


def test_semidirect_product_reads_one_point_map_per_generator_row(monkeypatch):
    # table_group multiplies only the generators' rows, so M(h^-1) is read
    # for h = e and for each generator of H, not for every h
    calls, counts = [], []
    real = construct._linear_points
    monkeypatch.setattr(construct, "_linear_points", lambda *a: calls.append(a) or real(*a))

    def counted(u, dim, action, H):
        calls.clear()
        G = semidirect_product(u, dim, action, H)
        counts.append((len(calls), 1 + len(H.generators), H.order))
        return G

    monkeypatch.setattr(census, "semidirect_product", counted)
    for params in bf.census_split_params():
        census.enumerate_variety_groups(params)
    assert len(counts) == 21 and all(read == expected for read, expected, _ in counts)
    assert any(expected < order for _, expected, order in counts)


def test_verify_builds_one_table(monkeypatch):
    # the variety membership and the normal structure run on one
    # multiplication table, of G's order, built from G's element list
    spec, G = primitive_aqar_group(2, 7)
    orders = []
    real = CayleyGroup.__init__

    def spy(self, table, identity):
        orders.append(len(table))
        real(self, table, identity)

    monkeypatch.setattr(CayleyGroup, "__init__", spy)
    assert spec.n == 8 and verify_theorem_b(G, 2, 7)["all_passed"]
    assert orders == [G.order] == [56]


AFFINE_PAIRS = [(2, 3), (7, 3), (2, 7)]


@pytest.mark.parametrize("q, r", AFFINE_PAIRS)
def test_table_group_matches_all_pairs(q, r):
    # the table chained from the generators' rows against every product of
    # two elements by the brute-force product on 1-based images
    _, G = primitive_aqar_group(q, r)
    elems = [bf.images(c) for c in G.codes()]
    index = {e: i for i, e in enumerate(elems)}
    expected = tuple(tuple(index[bf.mul(a, b)] for b in elems) for a in elems)
    table = cayley.table_group(G.ops, G.codes(), G.generators)
    assert table == CayleyGroup(expected, index[bf.images(G.ops.identity)])


@pytest.mark.parametrize("q, r", AFFINE_PAIRS)
def test_theorem_b_normal_structure_matches_brute_force(monkeypatch, q, r):
    # M and F(G), read off the table by the verification, are the minimal
    # normal subgroup and the largest nilpotent normal subgroup of the
    # brute-force closure of G's elements
    seen = {}
    for name in ("minimal_normal_subgroups", "fitting_subgroup"):
        real = getattr(construct, name)

        def spy(*args, real=real, name=name):
            seen[name] = real(*args)
            return seen[name]

        monkeypatch.setattr(construct, name, spy)
    _, G = primitive_aqar_group(q, r)
    assert verify_theorem_b(G, q, r)["all_passed"]
    elems = [bf.images(c) for c in G.codes()]
    normals = bf.naive_normal_subgroups(G.degree, elems)
    nontrivial = [N for N in normals if len(N) > 1]
    minimal = [N for N in nontrivial if not any(K < N for K in nontrivial)]
    assert [{elems[i] for i in M} for M in seen["minimal_normal_subgroups"]] == minimal
    F = {elems[i] for i in seen["fitting_subgroup"]}
    assert F == bf.naive_fitting_subgroup(G.degree, elems)


def test_normal_structure_takes_one_closure_per_class(monkeypatch):
    # ncl(x) = ncl(x^g): M and F(G) of 2^3:7 take at most one normal
    # closure per conjugacy class of G, in each function
    _, G = primitive_aqar_group(2, 7)
    table = cayley.table_group(perm.perm_ops(G.degree), G.codes(), G.generators)
    classes = {
        frozenset(x for (x,) in cayley.conjugation_orbit(table, (a,), table.generators))
        for a in range(table.order)
    }
    calls = 0
    real = cayley.normal_closure

    def spy(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(cayley, "normal_closure", spy)
    for fn in (cayley.minimal_normal_subgroups, cayley.fitting_subgroup):
        calls = 0
        fn(table, range(table.order), table.generators)
        assert 0 < calls <= len(classes) == 8, (fn.__name__, calls)


@pytest.mark.parametrize("q, r", [(2, 3), (2, 5), (2, 7), (3, 2)])
def test_affine_translations_are_rows_of_the_addition_table(q, r):
    # the construction numbers GF(q)^beta as the rest of the engine does:
    # its translations are the unit-vector rows of the addition table, and
    # its linear generator fixes the zero vector
    spec, G = primitive_aqar_group(q, r)
    sums = cayley._vector_sums(q, spec.beta)
    translations = sorted(g for g in G.generators if g[0] != 0)
    assert translations == sorted(sums[q**j] for j in range(spec.beta))
    assert len(G.generators) == spec.beta + 1


def test_construct_primitive_builds_one_chain(monkeypatch, capsys):
    # the construction is the only group built from generators: the
    # verification reads M, F(G) and the point stabiliser off its element list
    chains = []
    real = perm._schreier_sims

    def spy(degree, *args):
        chains.append(degree)
        return real(degree, *args)

    monkeypatch.setattr(perm, "_schreier_sims", spy)
    assert cli.main(["construct-primitive", "--q", "2", "--r", "7"]) == 0
    assert '"status": "verified"' in capsys.readouterr().out
    assert chains == [8]


def test_verify_primitive_refuses_a_degree_above_the_table_limit(capsys, tmp_path):
    # refused before any code of that degree is built: a primitive group's
    # order is a multiple of its degree
    wire = tmp_path / "group.json"
    wire.write_text('{"degree": 100000, "generators": []}')
    for degree, argv in [
        (100000, ["--gens", "(1 2)", "--degree", "100000"]),
        (100000, ["--gens", "(1 100000)"]),
        (100000, ["--file", str(wire)]),
        (401, ["--gens", "(1 2)", "--degree", "401"]),
    ]:
        assert cli.main(["verify-primitive", "--q", "2", "--r", "7", *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: LimitExceeded: degree {degree} exceeds the table limit 400:"
            " a primitive group's order is a multiple of its degree"
        ]
    with pytest.raises(LimitExceeded):
        parse_cycles("(1 2)", 401)


def test_semidirect_product_matches_the_naive_table_on_every_census_action(monkeypatch):
    # every action census._action_orbit_reps gives the census-split inputs,
    # in both layers: the rows chained from blocks are the definitional table
    built = []

    def checked(u, dim, action, H):
        G = semidirect_product(u, dim, action, H)
        assert tuple(map(tuple, G.table)) == bf.naive_semidirect_table(u, dim, action, H)
        built.append(G)
        return G

    monkeypatch.setattr(census, "semidirect_product", checked)
    for params in bf.census_split_params():
        census.enumerate_variety_groups(params)
    assert len(built) == 21


def test_semidirect_product_matches_the_naive_table_above_256(monkeypatch):
    # the P-layer actions of (2,7,3;1,2,1), order 294, where rows are tuples
    built = []

    def checked(u, dim, action, H):
        G = semidirect_product(u, dim, action, H)
        if G.order > 256:
            assert G.table == bf.naive_semidirect_table(u, dim, action, H)
            built.append(G.order)
        return G

    monkeypatch.setattr(census, "semidirect_product", checked)
    census.enumerate_variety_groups(VarietyParams(2, 7, 3, 1, 2, 1))
    assert built == [294] * 4
