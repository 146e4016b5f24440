"""The engine's value types are plain classes: construction, equality,
hashing and validation as the reports and caches rely on them, and an
engine import that loads neither `dataclasses` nor `inspect`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agroups import gf
from agroups.bounds import LogBound
from agroups.cayley import CayleyGroup, VarietyParams
from agroups.census import ClassEntry, ClassInventory, VarietyCensus
from agroups.construct import PrimitiveSpec
from agroups.errors import InvalidParams
from agroups.matgrp import MatGroup, closure, mat_ops
from agroups.perm import PermGroup
from agroups.selftest import FAIL, PASS, CriterionOutcome

SRC = Path(__file__).resolve().parent.parent / "src"

C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
TERMS = ((3, 2),)


def test_engine_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import json, sys; bare = set(sys.modules); import agroups.cli;"
        " print(json.dumps({m: [m in bare, m in sys.modules] for m in ('dataclasses', 'inspect')}))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert loaded["dataclasses"] == [False, False]
    bare, after = loaded["inspect"]
    assert after == bare  # absent, unless the bare interpreter had it already


def test_construction_by_position_and_by_keyword():
    spec = gf.field_make(2, 2)
    rep = PermGroup(3, [(1, 2, 0)])
    pairs = [
        (gf.FieldSpec(2, 1, (0, 1)), gf.FieldSpec(t=2, k=1, modulus=(0, 1))),
        (VarietyParams(2, 3, 5, 1, 1, 0), VarietyParams(p=2, q=3, r=5, alpha=1, beta=1, gamma=0)),
        (LogBound(1, TERMS, 1), LogBound(constant=1, terms=TERMS, den=1)),
        (CayleyGroup(C3, 0), CayleyGroup(table=C3, identity=0)),
        (
            MatGroup(spec, 1, ((1,),), ((1,),)),
            MatGroup(spec=spec, alpha=1, generators=((1,),), _codes=((1,),)),
        ),
    ]
    for a, b in pairs:
        assert a == b and a is not b
    entry = ClassEntry(rep, 3, (0, 1), 2)
    assert vars_of(entry) == vars_of(
        ClassEntry(representative=rep, order=3, signature=(0, 1), class_size=2)
    )
    inventory = ClassInventory("S3", 3, "transitive", (entry,))
    assert vars_of(inventory) == vars_of(
        ClassInventory(context="S3", degree=3, filter_desc="transitive", classes=(entry,))
    )
    params = VarietyParams(2, 3, 5, 1, 1, 0)
    assert vars_of(VarietyCensus(params, ())) == vars_of(VarietyCensus(params=params, groups=()))
    assert vars_of(PrimitiveSpec(3, 2, "affine", 3, 1)) == vars_of(
        PrimitiveSpec(q=3, r=2, case="affine", n=3, beta=1)
    )
    assert vars_of(CriterionOutcome("c", "d", FAIL, ["x"], 1.5)) == vars_of(
        CriterionOutcome(cid="c", description="d", status=FAIL, details=["x"], elapsed=1.5)
    )


def vars_of(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def cyclic_300(cells=(), identity=0):
    """C_300's table with the (row, column, entry) cells set, above the
    orders whose rows are bytes."""
    rows = [[(i + j) % 300 for j in range(300)] for i in range(300)]
    for i, j, entry in cells:
        rows[i][j] = entry
    return CayleyGroup(tuple(map(tuple, rows)), identity)


def equal_pairs():
    """Two equal but separately built instances of every compared type, and
    one instance that differs from them."""
    spec, other = gf.field_make(3, 1), gf.field_make(5, 1)
    rebuilt = gf.FieldSpec(spec.t, spec.k, tuple(spec.modulus))
    swap = (0, 1, 1, 0)
    return [
        (spec, rebuilt, other),
        (VarietyParams(2, 3, 5, 1, 1, 0), VarietyParams(2, 3, 5, 1, 1, 0), VarietyParams(2, 3, 5, 1, 0, 1)),
        (LogBound.build(1, {3: 2}), LogBound.build(1, [(3, 1), (3, 1)]), LogBound.build(1, {3: 1})),
        (CayleyGroup(C3, 0), CayleyGroup(tuple(map(tuple, C3)), 0), CayleyGroup(((0, 1), (1, 0)), 0)),
        (closure(2, spec, [swap]), closure(2, rebuilt, [swap]), closure(2, spec, [(2, 0, 0, 2)])),
    ]


@pytest.mark.parametrize(
    "index",
    range(5),
    ids=["FieldSpec", "VarietyParams", "LogBound", "CayleyGroup", "MatGroup"],
)
def test_equal_values_hash_equal(index):
    a, b, c = equal_pairs()[index]
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != (a,) and a != None  # noqa: E711 - other types are never equal


def test_equal_field_specs_share_the_cached_matrix_ops():
    spec = gf.field_make(3, 1)
    rebuilt = gf.FieldSpec(spec.t, spec.k, tuple(spec.modulus))
    first = mat_ops(2, spec)
    hits = mat_ops.cache_info().hits
    assert mat_ops(2, rebuilt) is first
    assert mat_ops.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CayleyGroup(((0, 0), (1, 0)), 0), "table rows must be permutations of the indices"),
        (lambda: CayleyGroup(((0, 1), (0, 1)), 0), "table columns must be permutations of the indices"),
        (lambda: CayleyGroup(((0, 1), (1, 0)), 1), "identity index does not act as identity"),
        (
            # the smallest Latin square with identity that is not associative
            lambda: CayleyGroup(
                ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
                0,
            ),
            "associativity fails at (1, 1, 2)",
        ),
        (
            # 0 is a left identity only: column 0 reads 0, 2, 1
            lambda: CayleyGroup(((0, 1, 2), (2, 0, 1), (1, 2, 0)), 0),
            "identity index does not act as identity",
        ),
        (lambda: CayleyGroup(((0,),), 5), "identity index does not act as identity"),
        (lambda: CayleyGroup(((0, 1), (1, 0)), 2), "identity index does not act as identity"),
        (lambda: CayleyGroup(((0,),), -1), "identity index does not act as identity"),
        (lambda: CayleyGroup((), 0), "identity index does not act as identity"),
        (lambda: CayleyGroup(((0, 300), (1, 0)), 0), "table rows must be permutations of the indices"),
        (lambda: CayleyGroup(((0, -1), (1, 0)), 0), "table rows must be permutations of the indices"),
        (lambda: CayleyGroup(((0, 1.0), (1.0, 0)), 0), "table rows must be permutations of the indices"),
        (lambda: CayleyGroup((1,), 0), "table rows must be permutations of the indices"),
        (lambda: cyclic_300([(0, 1, 300)]), "table rows must be permutations of the indices"),
        (lambda: cyclic_300([(0, 1, -1)]), "table rows must be permutations of the indices"),
        (lambda: cyclic_300([(0, 1, 1.0)]), "table rows must be permutations of the indices"),
        (
            # row 1 repeats row 0
            lambda: cyclic_300([(1, j, j) for j in range(300)]),
            "table columns must be permutations of the indices",
        ),
        (lambda: cyclic_300(identity=1), "identity index does not act as identity"),
        (
            # the 2 x 2 subsquare at rows 1, 151 and columns 2, 152 switched
            lambda: cyclic_300([(1, 2, 153), (1, 152, 3), (151, 2, 3), (151, 152, 153)]),
            "associativity fails at (1, 1, 1)",
        ),
        (lambda: VarietyParams(2, 4, 5, 1, 1, 1), "4 is not prime"),
        (lambda: VarietyParams(2, 3, 3, 1, 1, 1), "p, q, r must be pairwise distinct"),
        (lambda: VarietyParams(2, 3, 5, 1, -1, 1), "exponents must be nonnegative"),
    ],
    ids=[
        "rows",
        "columns",
        "identity",
        "associativity",
        "identity-on-the-left-only",
        "identity-past-order-1",
        "identity-past-order-2",
        "identity-negative",
        "order-0",
        "entry-past-order-2",
        "entry-negative-order-2",
        "entry-float-order-2",
        "row-an-integer",
        "entry-past-order-300",
        "entry-negative-order-300",
        "entry-float-order-300",
        "columns-order-300",
        "identity-order-300",
        "associativity-order-300",
        "not-prime",
        "equal-primes",
        "negative",
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(InvalidParams) as info:
        build()
    assert str(info.value) == message


def test_criterion_outcomes_never_share_details():
    a, b = CriterionOutcome("a", "first"), CriterionOutcome("b", "second")
    a.note("only a")
    b.fail("only b")
    assert a.details == ["only a"] and a.status == PASS
    assert b.details == ["FAIL: only b"] and b.status == FAIL
    assert CriterionOutcome("c", "third").details == []
