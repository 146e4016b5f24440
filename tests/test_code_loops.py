"""The stabiliser chains, both conjugacy scans and the split-extension check
run on codes: with Perm.__mul__ and Mat.__mul__ patched to raise, each still
gives its answer. Below the public edges no Mat is built at all: with
Mat.__init__ patched to raise, the GL classification, the census actions and
the GL subgroup scan still give theirs. Inputs are built before the patch."""

import pytest

from agroups import census
from agroups.cayley import VarietyParams, cayley_from, cyclic_table
from agroups.construct import primitive_aqar_group, semidirect_product, verify_theorem_b
from agroups.gf import field_make
from agroups.matgrp import (
    Mat,
    classify_elem_abelian_r,
    closure,
    conjugate_in_gl,
    irreducible_elem_abelian_r_classes,
)
from agroups.perm import Perm, PermGroup, parse_cycles, subgroup_conjugate


def refuse(*_):
    raise AssertionError("an element object was used inside a code loop")


def test_loops_multiply_no_perm_or_mat(monkeypatch):
    _, affine = primitive_aqar_group(2, 7)  # degree 8, order 56
    gens = affine.generators
    outside = parse_cycles("(1 2)", 8)
    A = PermGroup(4, [parse_cycles("(1 2 3)", 4)])
    B = PermGroup(4, [parse_cycles("(2 3 4)", 4)])
    gf2 = field_make(2, 1)
    companion = Mat.from_ints(gf2, ((0, 1), (1, 1)))
    swap = Mat.from_ints(gf2, ((0, 1), (1, 0)))
    C, D = closure([companion]), closure([swap.inverse() * companion * swap])
    action = [(companion**i).entries for i in range(3)]

    monkeypatch.setattr(Perm, "__mul__", refuse)
    monkeypatch.setattr(Mat, "__mul__", refuse)
    with pytest.raises(AssertionError):
        gens[0] * gens[1]  # the patch is in force

    G = PermGroup(8, gens)
    assert G.order == 56
    assert all(G.contains(g) for g in gens) and not G.contains(outside)
    assert len(G.elements()) == 56 and len(set(G.codes())) == 56
    assert G.point_stabilizer(1).order == 7
    assert G.is_primitive()
    assert verify_theorem_b(G, 2, 7)["all_passed"]

    x = subgroup_conjugate(A, B)
    assert x is not None
    assert conjugate_in_gl(C, D) is not None
    assert semidirect_product(2, 2, action, cyclic_table(3)).order == 12

    monkeypatch.undo()
    assert all(B.contains(x.inverse() * g * x) for g in A.elements())


def test_no_mat_is_built_below_the_edges(monkeypatch):
    gf2, gf3 = field_make(2, 1), field_make(3, 1)
    S3 = cayley_from(PermGroup(3, [parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)]))

    monkeypatch.setattr(Mat, "__init__", refuse)
    with pytest.raises(AssertionError):
        Mat(gf2, (1,))  # the patch is in force

    maximal = classify_elem_abelian_r(3, gf2, 3)
    assert [g.order for g in maximal] == [3]
    irreducible = irreducible_elem_abelian_r_classes(3, gf2, 7)
    assert [g.order for g in irreducible] == [7]
    actions = census._action_orbit_reps(S3, 2, 3)
    assert len(actions) == 5 and all(len(a) == 6 for a in actions)
    assert census.enumerate_variety_groups(VarietyParams(3, 2, 5, 2, 1, 1)).count == 3
    details = census.gl_variety_subgroup_details(2, gf3, 2, 3)
    assert details and all(d["order"] % d["fitting_order"] == 0 for d in details)
