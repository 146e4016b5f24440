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
    cayley_from,
    in_variety,
    quotient,
    verbal_ar_subgroup,
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
from .gf import FieldElem, FieldSpec, field_make, multiplicative_order
from .matgrp import (
    Mat,
    MatGroup,
    classify_elem_abelian_r,
    closure,
    conjugate_in_gl,
    gl_order,
    is_irreducible,
    maximal_ar_subgroup,
    singer_subgroup,
)
from .perm import (
    Perm,
    PermGroup,
    fitting_subgroup,
    minimal_normal_subgroups,
    subgroup_conjugate,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyGroup",
    "ClassInventory",
    "FieldElem",
    "FieldSpec",
    "LogBound",
    "Mat",
    "MatGroup",
    "Perm",
    "PermGroup",
    "PrimitiveSpec",
    "VarietyCensus",
    "VarietyParams",
    "are_isomorphic",
    "cayley_from",
    "classify_elem_abelian_r",
    "closure",
    "compare_count",
    "conjugate_in_gl",
    "enumerate_primitive_ar_classes",
    "enumerate_primitive_classes",
    "enumerate_transitive_classes",
    "enumerate_variety_groups",
    "field_make",
    "fitting_subgroup",
    "gl_order",
    "in_variety",
    "is_irreducible",
    "maximal_ar_subgroup",
    "minimal_normal_subgroups",
    "multiplicative_order",
    "primitive_aqar_group",
    "prop41_bound",
    "quotient",
    "remark43_gl_bound",
    "remark43_transitive_bound",
    "semidirect_product",
    "singer_subgroup",
    "soluble_sn_bound",
    "subgroup_conjugate",
    "theorem_a_bound",
    "verbal_ar_subgroup",
    "verify_theorem_b",
]
