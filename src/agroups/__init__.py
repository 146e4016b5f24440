"""Constructions, exhaustive oracles and exact bound checks for soluble
A-groups in products of abelian varieties."""

from .bounds import (
    LogBound,
    compare_count,
    prop41_bound,
    remark43_gl_bound,
    remark43_transitive_bound,
    soluble_sn_bound,
    theorem_a_bound,
)
from .cayley import (
    CayleyGroup,
    VarietyParams,
    are_isomorphic,
    in_variety,
    quotient,
)
from .census import (
    ClassInventory,
    VarietyCensus,
    enumerate_primitive_ar_classes,
    enumerate_primitive_classes,
    enumerate_transitive_classes,
    enumerate_variety_groups,
)
from .construct import PrimitiveSpec, primitive_aqar_group, semidirect_product, verify_theorem_b
from .gf import FieldSpec, field_make, multiplicative_order
from .matgrp import (
    MatGroup,
    classify_elem_abelian_r,
    closure,
    conjugate_in_gl,
    gl_order,
    is_irreducible,
    maximal_ar_subgroup,
)
from .perm import PermGroup, subgroup_conjugate

__version__ = "0.1.0"

__all__ = [
    "CayleyGroup",
    "ClassInventory",
    "FieldSpec",
    "LogBound",
    "MatGroup",
    "PermGroup",
    "PrimitiveSpec",
    "VarietyCensus",
    "VarietyParams",
    "are_isomorphic",
    "classify_elem_abelian_r",
    "closure",
    "compare_count",
    "conjugate_in_gl",
    "enumerate_primitive_ar_classes",
    "enumerate_primitive_classes",
    "enumerate_transitive_classes",
    "enumerate_variety_groups",
    "field_make",
    "gl_order",
    "in_variety",
    "is_irreducible",
    "maximal_ar_subgroup",
    "multiplicative_order",
    "primitive_aqar_group",
    "prop41_bound",
    "quotient",
    "remark43_gl_bound",
    "remark43_transitive_bound",
    "semidirect_product",
    "soluble_sn_bound",
    "subgroup_conjugate",
    "theorem_a_bound",
    "verify_theorem_b",
]
