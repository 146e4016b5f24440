"""Builders for the classified groups.

primitive_aqar_group realises the three shapes a primitive group in the
two-prime variety can take: a single r-cycle, a single q-cycle, or the affine
group of translations of F_q^beta extended by one linear map of order r (a
power of the Singer generator). verify_theorem_b re-derives the structural
facts from the built group and reports each check separately.
"""

from __future__ import annotations

import itertools

from .bounds import printable
from .cayley import TABLE_LIMIT, CayleyGroup, _power, in_variety
from .errors import (
    DegreeLimit,
    LimitExceeded,
    NotHomomorphism,
    NotInVariety,
    NotPrime,
    NotPrimitive,
    NotTransitive,
    SamePrime,
)
from .gf import field_make, is_prime, multiplicative_order, prime_factors
from .matgrp import mat_ops, singer_generator
from .perm import PermGroup, code_order, fitting_subgroup, minimal_normal_subgroups, perm_ops

CASE_CYCLIC_R = "cyclic-r"
CASE_CYCLIC_Q = "cyclic-q"
CASE_AFFINE = "affine"

DEGREE_LIMIT_DEFAULT = 16


class PrimitiveSpec:
    """Parameters of one constructed primitive group."""

    __slots__ = ("q", "r", "case", "n", "beta")

    def __init__(self, q: int, r: int, case: str, n: int, beta: int):
        self.q, self.r, self.case, self.n, self.beta = q, r, case, n, beta

    def provenance(self) -> dict:
        return {
            "theorem": "B",
            "case": self.case,
            "q": self.q,
            "r": self.r,
            "beta": self.beta,
            "n": self.n,
        }


def _check_pair(q: int, r: int):
    for u in (q, r):
        if not is_prime(u):
            raise NotPrime(f"{u} is not prime")
    if q == r:
        raise SamePrime("q and r must be distinct")


def primitive_aqar_group(
    q: int, r: int, case: str = CASE_AFFINE, max_degree: int = DEGREE_LIMIT_DEFAULT
) -> tuple[PrimitiveSpec, PermGroup]:
    """Build the primitive group of the given case.

    cyclic-r: the r-cycle on r points. cyclic-q: the q-cycle on q points.
    affine: translations of F_q^beta (beta = order of q mod r) extended by
    the (q^beta - 1)/r power of the Singer generator acting linearly.
    """
    _check_pair(q, r)
    if case in (CASE_CYCLIC_R, CASE_CYCLIC_Q):
        n = r if case == CASE_CYCLIC_R else q
        # the n-cycle (1 2 ... n)
        return PrimitiveSpec(q, r, case, n, 0), PermGroup(n, [tuple(range(1, n)) + (0,)])
    if case != CASE_AFFINE:
        raise ValueError(f"unknown case {case!r}")

    beta = multiplicative_order(q, r)
    n = q**beta
    if n > max_degree:
        shown = n if printable(n) else f"{q}^{beta}"
        raise DegreeLimit(f"degree {shown} exceeds the limit {max_degree}")
    field = field_make(q, 1)
    vectors = sorted(itertools.product(range(q), repeat=beta))
    index = {v: i for i, v in enumerate(vectors)}  # point i + 1 is vectors[i]

    gens = []
    for axis in range(beta):
        images = []
        for v in vectors:
            w = list(v)
            w[axis] = (w[axis] + 1) % q
            images.append(index[tuple(w)])
        gens.append(tuple(images))

    # over a prime field the element indices are the residues themselves
    ops = mat_ops(beta, field)
    linear = _power(ops, singer_generator(beta, field), (q**beta - 1) // r)
    gens.append(tuple(index[ops.apply(linear, v)] for v in vectors))

    spec = PrimitiveSpec(q, r, CASE_AFFINE, n, beta)
    return spec, PermGroup(n, gens)


def verify_theorem_b(G: PermGroup, q: int, r: int) -> dict:
    """Re-derive the structure of a primitive group in the two-prime variety.

    Raises NotPrimitive / NotInVariety when the preconditions fail; otherwise
    returns a report with one pass/fail entry per structural fact.
    """
    _check_pair(q, r)
    if G.degree < 2:
        raise NotPrimitive(f"degree {G.degree} is below 2: no minimal normal subgroup")
    try:
        primitive = G.is_primitive()
    except NotTransitive:
        raise NotPrimitive("group is not transitive")
    if not primitive:
        raise NotPrimitive(f"group has a nontrivial block: {sorted(G.primitivity_block())}")
    # the budget of the element-by-element checks below
    if G.order > TABLE_LIMIT:
        raise LimitExceeded(f"order {G.order} exceeds table limit {TABLE_LIMIT}")
    if not in_variety(perm_ops(G.degree), [q, r], G.generators):
        raise NotInVariety(f"group is not in the [{q}, {r}] variety")

    n = G.degree
    order = G.order
    factors = prime_factors(order)
    a = factors.get(q, 0)
    b = factors.get(r, 0)
    checks: list[dict] = []
    notes: list[str] = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    mns = minimal_normal_subgroups(G)
    check(
        "unique-minimal-normal",
        len(mns) == 1,
        f"found {len(mns)} minimal normal subgroups",
    )
    M = mns[0]
    F = fitting_subgroup(G)
    check(
        "minimal-normal-equals-fitting",
        M.codes() == F.codes(),
        f"|M| = {M.order}, |F(G)| = {F.order}",
    )
    check("minimal-normal-regular", M.order == n, f"|M| = {M.order}, n = {n}")
    m_factors = prime_factors(M.order)
    u, k = next(iter(m_factors.items()))
    if len(m_factors) == 1 and k == 1:
        notes.append(
            "minimal normal subgroup has prime order (exponent k = 1); the source"
            " statement's strict k > 1 does not hold here"
        )

    if a == 0:
        case = CASE_CYCLIC_R
        check("order-is-n", order == n, f"|G| = {order}, n = {n}")
        check("degree-is-r", n == r, f"n = {n}, r = {r}")
        check("cyclic", any(code_order(g) == order for g in G.codes()), "cyclic of prime order")
    elif b == 0:
        case = CASE_CYCLIC_Q
        check("order-is-n", order == n, f"|G| = {order}, n = {n}")
        check("degree-is-q", n == q, f"n = {n}, q = {q}")
        check("cyclic", any(code_order(g) == order for g in G.codes()), "cyclic of prime order")
    else:
        case = CASE_AFFINE
        beta = multiplicative_order(q, r)
        check("degree-is-q-power", n == q**a, f"n = {n}, q^a = {q ** a}")
        stab = G.point_stabilizer(1)
        check(
            "stabilizer-cyclic-of-order-r",
            stab.order == r and any(code_order(g) == r for g in stab.codes()),
            f"stabilizer order {stab.order}",
        )
        check(
            "dimension-is-order-of-q-mod-r",
            a == beta,
            f"q-exponent {a}, order of q mod r is {beta}",
        )
        check("order-is-n-times-r", order == n * r, f"|G| = {order}, n*r = {n * r}")
        check("order-below-n-squared", order < n * n, f"|G| = {order}, n^2 = {n * n}")

    return {
        "case": case,
        "n": n,
        "order": order,
        "signature": [a, b],
        "checks": checks,
        "notes": notes,
        "all_passed": all(c["passed"] for c in checks),
    }


def semidirect_product(
    kernel_prime: int, kernel_dim: int, action, acting: CayleyGroup
) -> CayleyGroup:
    """Split extension of (C_u)^dim by a table group.

    action maps each element index of the acting group to a matrix code over
    GF(u), its flat row-major entry tuple; it must be a homomorphism
    (verified on the table). That makes every matrix invertible: the
    identity acts trivially, so M(h) M(h^-1) = M(e) = I. Elements are pairs
    (vector, h) ordered by (vector digits, h index).
    """
    u, dim = kernel_prime, kernel_dim
    ops = mat_ops(dim, field_make(u, 1))
    codes = [tuple(c) for c in action]
    if len(codes) != acting.order:
        raise NotHomomorphism("need one matrix per element of the acting group")
    entries = range(u)
    if any(len(c) != dim * dim or not all(e in entries for e in c) for c in codes):
        raise NotHomomorphism("action matrices have the wrong shape or field")
    if codes[acting.identity] != ops.identity:
        raise NotHomomorphism("identity must act trivially")
    mul = ops.mul
    for x, row in enumerate(acting.table):
        for y, xy in enumerate(row):
            if codes[xy] != mul(codes[x], codes[y]):
                raise NotHomomorphism(f"action is not multiplicative at ({x}, {y})")

    order = u**dim * acting.order
    if order > TABLE_LIMIT:
        raise LimitExceeded(f"product order {order} exceeds the table limit")

    vectors = list(itertools.product(range(u), repeat=dim))  # element indices, sorted
    vec_index = {v: i for i, v in enumerate(vectors)}
    h_count = acting.order
    vsum = [[vec_index[tuple((a + b) % u for a, b in zip(v, w))] for w in vectors] for v in vectors]
    # conjugation acts on the right: v^h = v * mat(h); products need mat(h)^-1,
    # applied once per (h, vector) rather than once per table cell
    moved = [[vec_index[ops.apply(codes[acting.inv(h)], v)] for v in vectors] for h in range(h_count)]

    table = []
    for v1 in range(len(vectors)):
        for h1, h_row in enumerate(acting.table):
            shifts = [vsum[v1][w] * h_count for w in moved[h1]]
            table.append(tuple(shift + h for shift in shifts for h in h_row))
    return CayleyGroup(tuple(table), acting.identity)
