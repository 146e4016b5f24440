"""Builders for the classified groups.

primitive_aqar_group realises the three shapes a primitive group in the
two-prime variety can take: a single r-cycle, a single q-cycle, or the affine
group of translations of F_q^beta extended by one linear map of order r (a
power of the Singer generator). verify_theorem_b re-derives the structural
facts from the built group and reports each check separately; it lists the
group's elements once, makes their multiplication table, and reads the
variety, M, F(G) and the point stabiliser off that table. semidirect_product
builds a split extension's table by cayley.table_group from the pair product.
"""

from __future__ import annotations

from types import SimpleNamespace

from .cayley import (
    TABLE_LIMIT,
    CayleyGroup,
    _linear_points,
    _power,
    _vector_sums,
    fitting_subgroup,
    in_variety,
    minimal_normal_subgroups,
    table_group,
)
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
from .gf import field_make, is_prime, multiplicative_order, prime_factors, printable_product
from .matgrp import mat_ops, singer_generator
from .perm import PermGroup, perm_ops

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
    n = printable_product(((q, beta),))
    if n is None or n > max_degree:
        shown = f"{q}^{beta}" if n is None else n
        raise DegreeLimit(f"degree {shown} exceeds the limit {max_degree}")
    field = field_make(q, 1)
    # the translations by the unit vectors, rows of GF(q)^beta's addition
    # table, and the linear map v -> v M of the Singer power M
    sums = _vector_sums(q, beta)
    gens = [sums[q ** (beta - 1 - axis)] for axis in range(beta)]
    linear = _power(mat_ops(beta, field), singer_generator(beta, field), (n - 1) // r)
    gens.append(_linear_points(q, beta, linear))

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
        block = G.primitivity_block()
    except NotTransitive:
        raise NotPrimitive("group is not transitive")
    if block is not None:
        raise NotPrimitive(f"group has a nontrivial block: {sorted(block)}")
    # the limit bounds G's multiplication table, which the checks below run
    # on: |G| code products per generator, every other row a gather; the
    # closure stops as soon as it passes the limit
    elems = G.codes(TABLE_LIMIT)
    table = table_group(perm_ops(G.degree), elems, G.generators)
    if not in_variety(table, [q, r]):
        raise NotInVariety(f"group is not in the [{q}, {r}] variety")

    n = G.degree
    order = len(elems)
    orders = table.element_orders
    factors = prime_factors(order)
    a = factors.get(q, 0)
    b = factors.get(r, 0)
    checks: list[dict] = []
    notes: list[str] = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    mns = minimal_normal_subgroups(table, range(order), table.generators)
    check(
        "unique-minimal-normal",
        len(mns) == 1,
        f"found {len(mns)} minimal normal subgroups",
    )
    M = mns[0]
    F = fitting_subgroup(table, range(order), table.generators)
    check("minimal-normal-equals-fitting", M == F, f"|M| = {len(M)}, |F(G)| = {len(F)}")
    check("minimal-normal-regular", len(M) == n, f"|M| = {len(M)}, n = {n}")
    m_factors = prime_factors(len(M))
    u, k = next(iter(m_factors.items()))
    if len(m_factors) == 1 and k == 1:
        notes.append(
            "minimal normal subgroup has prime order (exponent k = 1); the source"
            " statement's strict k > 1 does not hold here"
        )

    if a == 0 or b == 0:
        case, name, prime = (CASE_CYCLIC_R, "r", r) if a == 0 else (CASE_CYCLIC_Q, "q", q)
        check("order-is-n", order == n, f"|G| = {order}, n = {n}")
        check(f"degree-is-{name}", n == prime, f"n = {n}, {name} = {prime}")
        check("cyclic", order in orders, "cyclic of prime order")
    else:
        case = CASE_AFFINE
        beta = multiplicative_order(q, r)
        check("degree-is-q-power", n == q**a, f"n = {n}, q^a = {q ** a}")
        stab_orders = [o for g, o in zip(elems, orders) if g[0] == 0]
        check(
            "stabilizer-cyclic-of-order-r",
            len(stab_orders) == r and r in stab_orders,
            f"stabilizer order {len(stab_orders)}",
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
    GF(u), its flat row-major entry tuple; it must be a homomorphism,
    verified on the edges of the acting group's Cayley graph: M(e) = I and
    M(x g) = M(x) M(g) for every x and every generator g make M
    multiplicative, M(x w) = M(x) M(w) for each word w by induction on its
    length. That makes every matrix invertible: M(h) M(h^-1) = M(e) = I.
    Elements are pairs (vector, h) ordered by (vector index, h index), the
    vectors numbered as in GF(u)^dim's addition table (cayley._vector_sums).
    Vectors are rows, h acts on the kernel by conjugation, h^-1 v h = v M(h),
    so the product is (v1, h1)(v2, h2) = (v1 + v2 M(h1^-1), h1 h2), on the
    pair indices v |H| + h.
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
        for g in acting.generators:
            if codes[row[g]] != mul(codes[x], codes[g]):
                raise NotHomomorphism(f"action is not multiplicative at ({x}, {g})")

    order = u**dim * acting.order
    if order > TABLE_LIMIT:
        raise LimitExceeded(f"product order {order} exceeds the table limit")

    vsum = _vector_sums(u, dim)
    h_count, h_table = acting.order, acting.table
    # table_group multiplies only generator rows, whose h is e or generates H
    moved = {
        h: _linear_points(u, dim, codes[acting.inv(h)])
        for h in (acting.identity, *acting.generators)
    }

    def pair_mul(a, b):
        (v1, h1), (v2, h2) = divmod(a, h_count), divmod(b, h_count)
        return vsum[v1][moved[h1][v2]] * h_count + h_table[h1][h2]

    # the translations by the unit vectors, then (0, g) for H's generators
    gens = [u**j * h_count + acting.identity for j in range(dim)] + list(acting.generators)
    pairs = SimpleNamespace(mul=pair_mul, identity=acting.identity)
    return table_group(pairs, range(order), gens)
