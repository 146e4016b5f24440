"""Independent brute-force oracles.

Subgroup inventories of small symmetric groups are produced by closing sets
of prime-order generators upward through the subgroup lattice, pruned only by
facts that cannot exclude a target (order divisibility, the soluble order
bound). Degree 8 uses the holomorph of one canonical regular (C2)^3: the scan
first enumerates every regular elementary abelian subgroup and checks that
conjugation is transitive on them, so fixing one copy loses nothing.

The variety census builds every group of order p^a q^b r^c in the three-prime
variety as an iterated split extension P x| (Q x| R) with elementary abelian
layers, enumerating the action homomorphisms up to GL-conjugacy (conjugate
actions give isomorphic extensions, so one per orbit under GL's generators is
complete) and deduplicating the tables by isomorphism within buckets of equal
invariants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .cayley import (
    CayleyGroup,
    VarietyParams,
    all_subgroups,
    are_isomorphic,
    cayley_from,
    conjugation_orbit,
    cyclic_table,
    elementary_abelian_table,
    fitting_subgroup,
    homomorphisms_to_mats,
    in_variety,
    subgroup_lattice,
)
from .construct import _check_pair, semidirect_product
from .errors import DegreeLimit, LimitExceeded, NotPrime
from .gf import FieldSpec, field_make, is_prime, prime_factors
from .matgrp import (
    GL_BRUTE_LIMIT,
    Mat,
    closure,
    gl_elements,
    gl_generators,
    is_irreducible,
    mat_ops,
)
from .perm import (
    PermGroup,
    code_order,
    extend_set,
    fixed_point_free,
    greedy_generators,
    group_from_set,
    perm_ops,
    permgroup_to_json,
    set_key,
    subgroup_conjugate,
)

TRANSITIVE_DEGREE_LIMIT = 6
PRIMITIVE_DEGREE_LIMIT = 8
CENSUS_ORDER_LIMIT = 400


@dataclass(frozen=True)
class ClassEntry:
    representative: PermGroup
    order: int
    signature: tuple[int, int]
    class_size: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "signature": list(self.signature),
            "class_size": self.class_size,
            "generators": permgroup_to_json(self.representative)["generators"],
        }


@dataclass(frozen=True)
class ClassInventory:
    context: str
    degree: int
    filter_desc: str
    classes: tuple[ClassEntry, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "filter": self.filter_desc,
            "classes": [c.to_json() for c in self.classes],
        }


@dataclass(frozen=True)
class VarietyCensus:
    params: VarietyParams
    groups: tuple[CayleyGroup, ...]

    @property
    def count(self) -> int:
        return len(self.groups)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "count": self.count,
            "representatives": [g.to_json() for g in self.groups],
            "signatures": [g.fingerprint() for g in self.groups],
        }


def _divides_primes(order: int, primes) -> bool:
    for u in primes:
        while order % u == 0:
            order //= u
    return order == 1


def _scan_keep(n, primes, fpf_only):
    """The keep of a census lattice scan of S_n. Its rejection is
    upward-closed, as subgroup_lattice requires: by Lagrange, an overgroup of
    a subgroup whose order is not primes-smooth is not either; and with
    fpf_only (keep the abelian subgroups whose nontrivial elements are
    fixed-point free of a prime order in primes: elementary abelian ones), an
    overgroup keeps the offending element or noncommuting pair."""
    if not fpf_only:
        return lambda sub: _divides_primes(len(sub), primes)
    ops = perm_ops(n)
    mul, identity = ops.mul, ops.identity

    def keep(sub):
        members = [g for g in sub if g != identity]
        return all(code_order(g) in primes and fixed_point_free(g) for g in members) and all(
            mul(x, y) == mul(y, x) for i, x in enumerate(members) for y in members[i + 1 :]
        )

    return keep


@lru_cache(maxsize=64)
def _scan_cached(n, primes, order_cap, fpf_only):
    """All subgroups of S_n generated by elements of the given prime orders
    that _scan_keep(n, primes, fpf_only) keeps, of order at most order_cap
    (with fpf_only, only fixed-point-free elements generate). The keep must
    reject upward-closed sets: the scan never tries an element over an
    overgroup of a subgroup it was rejected over. Returns a tuple of (code
    frozenset, generator tuple) pairs; the universe is S_n as codes in
    lexicographic order."""
    universe = [
        g
        for g in itertools.permutations(range(n))
        if (not fpf_only or fixed_point_free(g)) and code_order(g) in primes
    ]
    lattice = subgroup_lattice(perm_ops(n), universe, order_cap, _scan_keep(n, primes, fpf_only))
    return tuple(lattice.items())


def _subgroup_scan(n, primes, order_bound_sq=None, max_order=None, fpf_only=False):
    """Dict view of the cached lattice scan; see _scan_cached."""
    cap = None
    if order_bound_sq is not None:
        cap = math.isqrt(order_bound_sq)  # order^2 <= bound iff order <= isqrt
    if max_order is not None:
        cap = max_order if cap is None else min(cap, max_order)
    return dict(_scan_cached(n, tuple(sorted(set(primes))), cap, fpf_only))


def _orbit_of_point(gens, point=0):
    orbit = {point}
    queue = [point]
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if q not in orbit:
                orbit.add(q)
                queue.append(q)
    return orbit


def _dedup_conjugacy(n, candidates) -> list[list[PermGroup]]:
    """Partition candidate subgroups into S_n-conjugacy classes."""
    classes: list[list[PermGroup]] = []
    for grp in candidates:
        placed = False
        for cls in classes:
            if grp.order == cls[0].order and subgroup_conjugate(cls[0], grp) is not None:
                cls.append(grp)
                placed = True
                break
        if not placed:
            classes.append([grp])
    return classes


def _signature(order: int, q: int, r: int) -> tuple[int, int]:
    factors = prime_factors(order) if order > 1 else {}
    return factors.get(q, 0), factors.get(r, 0)


def _build_inventory(n, q, r, members, filter_desc) -> ClassInventory:
    groups = [group_from_set(n, m) for m in sorted(members, key=set_key)]
    classes = _dedup_conjugacy(n, groups)
    entries = []
    for cls in classes:
        rep = cls[0]  # each class keeps the set_key order of groups
        entries.append(
            ClassEntry(rep, rep.order, _signature(rep.order, q, r), len(cls))
        )
    entries.sort(key=lambda e: (e.signature, e.order))
    return ClassInventory(f"S{n}", n, filter_desc, tuple(entries))


def _transitive_variety_subgroups(n: int, q: int, r: int) -> list[frozenset]:
    """The transitive subgroups of S_n in the variety [q, r], as code sets.
    A transitive group's order is divisible by n, and the scan keeps only
    {q, r}-smooth orders: unless n is {q, r}-smooth there is none to scan for."""
    if not _divides_primes(n, (q, r)):
        return []
    bound_sq = 6 ** (n - 1)  # soluble order bound, squared comparison
    ops = perm_ops(n)
    return [
        elems
        for elems, gens in _subgroup_scan(n, (q, r), order_bound_sq=bound_sq).items()
        if len(elems) % n == 0  # transitive needs n | order
        and len(_orbit_of_point(gens)) == n
        and in_variety(ops, [q, r], gens)
    ]


def enumerate_transitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of transitive two-prime-variety subgroups of S_n."""
    _check_pair(q, r)
    if n > TRANSITIVE_DEGREE_LIMIT:
        raise DegreeLimit(f"degree {n} exceeds the transitive scan limit")
    members = _transitive_variety_subgroups(n, q, r)
    return _build_inventory(n, q, r, members, f"transitive, variety [{q}, {r}]")


def enumerate_primitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of primitive two-prime-variety subgroups of S_n.

    Degrees up to 6 run the generic lattice scan; 7 and 8 go through the
    normalizer of one regular elementary abelian subgroup (the generic scan
    is exhaustive but impractical there).
    """
    _check_pair(q, r)
    if n > PRIMITIVE_DEGREE_LIMIT:
        raise DegreeLimit(f"degree {n} exceeds the primitive scan limit")
    if n in (7, 8):
        return _primitive_regular_normal(n, q, r)
    members = [
        elems
        for elems in _transitive_variety_subgroups(n, q, r)
        if group_from_set(n, elems).is_primitive()
    ]
    return _build_inventory(n, q, r, members, f"primitive, variety [{q}, {r}]")


def elementary_abelian_regular_scan(n: int, r: int) -> dict[frozenset, tuple[tuple, ...]]:
    """All elementary abelian r-subgroups of S_n of order <= n whose
    nontrivial elements are fixed-point free (the candidates that can be
    transitive: transitive abelian groups are regular), as code sets with
    their generators."""
    return _subgroup_scan(n, (r,), max_order=n, fpf_only=True)


def enumerate_primitive_ar_classes(n: int, r: int) -> ClassInventory:
    """Primitive single-prime-variety (elementary abelian r) subgroups of S_n."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if n > PRIMITIVE_DEGREE_LIMIT:
        raise DegreeLimit(f"degree {n} exceeds the primitive scan limit")
    subs = elementary_abelian_regular_scan(n, r)
    members = []
    for elems, gens in subs.items():
        if len(elems) != n:
            continue  # transitive abelian means regular
        grp = group_from_set(n, elems)
        if grp.is_transitive() and grp.is_primitive():
            members.append(elems)
    inv = _build_inventory(n, r, r, members, f"primitive, variety [{r}]")
    # signature in the single-prime case: r-exponent only
    entries = tuple(
        ClassEntry(e.representative, e.order, (0, prime_factors(e.order).get(r, 0)), e.class_size)
        for e in inv.classes
    )
    return ClassInventory(inv.context, n, inv.filter_desc, entries)


def _primitive_regular_normal(n: int, q: int, r: int) -> ClassInventory:
    """Primitive scan through the normalizer of one regular (C_u)^k, u^k = n.

    A primitive soluble group of prime-power degree has a regular elementary
    abelian minimal normal subgroup of order n = u^k, so u must be one of the
    two primes; otherwise the inventory is empty. Fix one regular copy T (the
    run verifies all of them are conjugate), and every target is T . S for a
    subgroup S of the point stabiliser of N(T).
    """
    empty = ClassInventory(f"S{n}", n, f"primitive, variety [{q}, {r}]", ())
    factors = prime_factors(n)
    if len(factors) != 1:
        return empty  # degree is not a prime power: no regular abelian copy
    u = next(iter(factors))
    if u not in (q, r):
        return empty
    regulars = [
        elems for elems in elementary_abelian_regular_scan(n, u) if len(elems) == n
    ]
    if not regulars:
        return empty
    T_elems = min(regulars, key=set_key)
    ops = perm_ops(n)
    mul, inv = ops.mul, ops.inv

    # verify the conjugation action of S_n is transitive on the regular copies
    sn_gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]  # (1 2 .. n), (1 2)
    if set(conjugation_orbit(ops, T_elems, sn_gens)) != set(regulars):
        raise AssertionError("regular elementary abelian copies are not a single class")

    # normalizer of T in S_n and its point stabiliser
    t_gens = greedy_generators(n, T_elems)
    norm_elems = []
    for g in itertools.permutations(range(n)):
        gi = inv(g)
        if all(mul(mul(gi, h), g) in T_elems for h in t_gens):
            norm_elems.append(g)
    normalizer = group_from_set(n, norm_elems)
    stab = normalizer.point_stabilizer(1)
    stab_codes = stab.codes()
    stab_table = cayley_from(stab)

    members = []
    seen: set[tuple] = set()
    for sub in all_subgroups(stab_table):
        g_elems, gens = T_elems, list(t_gens)
        for x in sorted(stab_codes[i] for i in sub):
            if x not in g_elems:
                g_elems = extend_set(n, g_elems, gens, x)
                gens.append(x)
        key = set_key(g_elems)
        if key in seen:
            continue
        seen.add(key)
        if not _divides_primes(len(g_elems), {q, r}):
            continue
        grp = group_from_set(n, g_elems)
        if not grp.is_transitive() or not grp.is_primitive():
            continue
        if not in_variety(ops, [q, r], gens):
            continue
        members.append(g_elems)
    return _build_inventory(n, q, r, members, f"primitive, variety [{q}, {r}]")


# ---------------------------------------------------------------------------
# exhaustive subgroup scan of small GL (order bound oracle)


@lru_cache(maxsize=8)
def _gl_lattice(alpha: int, spec: FieldSpec):
    """GL(alpha, s), its table, and its subgroups with their generators."""
    full = closure(list(gl_elements(alpha, spec)))
    table = cayley_from(full)
    lattice = subgroup_lattice(table, range(table.order))
    return full, table, sorted(lattice.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))


def gl_variety_subgroup_details(alpha: int, spec: FieldSpec, q: int, r: int):
    """Order, irreducibility and Fitting-subgroup order of every two-prime-
    variety subgroup of GL(alpha, s), exhaustively over the subgroup lattice
    of the full linear group."""
    _check_pair(q, r)
    full, table, lattice = _gl_lattice(alpha, spec)
    out = []
    for sub, gens in lattice:
        if not in_variety(table, [q, r], gens):
            continue
        mats = [full.elements[i] for i in gens] or [Mat.identity(alpha, spec)]
        out.append(
            {
                "order": len(sub),
                "irreducible": is_irreducible(closure(mats)),
                "fitting_order": len(fitting_subgroup(table, sub, gens)),
            }
        )
    return out


# ---------------------------------------------------------------------------
# the three-prime census


def _action_orbit_reps(group: CayleyGroup, dim: int, u: int):
    """One action homomorphism group -> GL(dim, u) per GL-conjugacy class, as
    matrix lists: the first of each class in homomorphisms_to_mats order.

    An action is keyed by its images of group.generators (which determine
    it), and each kept action drops its whole class: the orbit of its key
    under simultaneous conjugation by the generators of GL (conjugates of a
    homomorphism are homomorphisms, so the orbit holds exactly the conjugate
    actions).
    """
    field = field_make(u, 1)
    if dim == 0:
        return [None]
    # one cached GL for both calls: lru_cache keys on the arguments as passed
    gl = gl_elements(dim, field, GL_BRUTE_LIMIT)
    ops, gl_gens = mat_ops(dim, field), gl_generators(dim, field, GL_BRUTE_LIMIT)
    reps, conjugate_keys = [], set()
    for hom in homomorphisms_to_mats(group, gl):
        key = tuple(hom[x].entries for x in group.generators)
        if key not in conjugate_keys:
            conjugate_keys.update(conjugation_orbit(ops, key, gl_gens))
            reps.append([hom[i] for i in range(group.order)])
    return reps


def _split_extension(u: int, dim: int, action, acting: CayleyGroup) -> CayleyGroup:
    if dim == 0:
        return acting
    return semidirect_product(u, dim, action, acting)


def _dedup_isomorphism(groups) -> list[CayleyGroup]:
    """The first group of each isomorphism class, in input order. Only groups
    with equal invariants can be isomorphic, so each is tested against the
    kept groups in its invariant bucket."""
    reps: list[CayleyGroup] = []
    buckets: dict[tuple, list[CayleyGroup]] = {}
    for g in groups:
        bucket = buckets.setdefault(g.invariants, [])
        if not any(are_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


def enumerate_variety_groups(
    params: VarietyParams, traversal: str = "forward"
) -> VarietyCensus:
    """Exact census of the three-prime variety at order n.

    Every member splits as P x| (Q x| R) with elementary abelian layers of
    orders p^alpha, q^beta, r^gamma (the head of each chain is the full Sylow
    subgroup and is normal), so enumerating all action homomorphisms is
    complete. Actions are taken up to GL-conjugacy, which loses no group:
    conjugate actions A and A^x give isomorphic split extensions, by
    (v, h) -> (v x, h). The first action of each class in its acting group's
    block stands for the class, and the deduplication sees each block in that
    order, so the first table of every isomorphism class is one it would
    have seen without the reduction. traversal="reverse" walks the blocks
    backwards; the census must not change.
    """
    if traversal not in ("forward", "reverse"):
        raise ValueError("traversal must be 'forward' or 'reverse'")
    if params.n > CENSUS_ORDER_LIMIT:
        raise LimitExceeded(f"order {params.n} exceeds the census limit {CENSUS_ORDER_LIMIT}")
    p, q, r = params.p, params.q, params.r
    a, b, g = params.alpha, params.beta, params.gamma

    def maybe_reverse(xs):
        xs = list(xs)
        return xs[::-1] if traversal == "reverse" else xs

    R = elementary_abelian_table(r, g) if g else cyclic_table(1)
    h_candidates = []
    if b == 0:
        h_candidates.append(R)
    else:
        for action in maybe_reverse(_action_orbit_reps(R, b, q)):
            h_candidates.append(_split_extension(q, b, action, R))
    h_reps = _dedup_isomorphism(maybe_reverse(h_candidates))

    g_candidates = []
    for H in h_reps:
        if a == 0:
            g_candidates.append(H)
            continue
        for action in maybe_reverse(_action_orbit_reps(H, a, p)):
            g_candidates.append(_split_extension(p, a, action, H))
    reps = _dedup_isomorphism(maybe_reverse(g_candidates))
    reps.sort(key=lambda t: sorted(t.element_orders))
    return VarietyCensus(params, tuple(reps))
