"""Independent brute-force oracles.

Subgroup inventories of small symmetric groups are produced by closing sets
of prime-order generators upward through the subgroup lattice up to
S_n-conjugacy, pruned only by facts that cannot exclude a target (order
divisibility, the soluble order bound). One representative per class is
extended, its class is its orbit under the generators (1 2 ... n) and (1 2),
and the filters, all invariant under conjugation, read representatives only.
Degrees 7 and 8 go through the normalizer of one regular elementary abelian
subgroup T, whose copies the class scan finds to be one class: the targets
are the T.S for the subgroups S of the normalizer's point stabiliser, taken
up to conjugacy there.

The variety census builds every group of order p^a q^b r^c in the three-prime
variety as an iterated split extension P x| (Q x| R) with elementary abelian
layers, enumerating the action homomorphisms up to GL-conjugacy (conjugate
actions give isomorphic extensions, so one per orbit under GL's generators is
complete) and deduplicating the tables by isomorphism within buckets of equal
invariants. GL, the actions and the split extensions they build run on
matrix codes, as does the exhaustive subgroup scan of small GL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .bounds import printable
from .cayley import (
    CayleyGroup,
    VarietyParams,
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
from .errors import DegreeLimit, InvalidParams, LimitExceeded, NotPrime
from .gf import FieldSpec, field_make, is_prime, prime_factors
from .matgrp import (
    GL_BRUTE_LIMIT,
    MatGroup,
    gl_elements,
    gl_generators,
    group_from_mats,
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


def _sn_generators(n) -> tuple:
    """(1 2 ... n) and (1 2) as codes, generators of S_n; none at n = 1."""
    if n < 2:
        return ()
    return tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))


@lru_cache(maxsize=64)
def _scan_cached(n, primes, order_cap, fpf_only):
    """The S_n-classes of subgroups of S_n generated by elements of the given
    prime orders that _scan_keep(n, primes, fpf_only) keeps, of order at most
    order_cap (with fpf_only, only fixed-point-free elements generate). The
    keep must reject upward-closed sets and be invariant under conjugation,
    as subgroup_lattice requires. Returns a tuple of (representative,
    (generators, class)) pairs, code frozensets; the universe is S_n as codes
    in lexicographic order."""
    universe = [
        g
        for g in itertools.permutations(range(n))
        if (not fpf_only or fixed_point_free(g)) and code_order(g) in primes
    ]
    keep = _scan_keep(n, primes, fpf_only)
    classes = subgroup_lattice(perm_ops(n), universe, order_cap, keep, _sn_generators(n))
    return tuple(classes.items())


def _subgroup_scan(n, primes, cap=None, fpf_only=False):
    """Dict view of the cached lattice scan; see _scan_cached."""
    return dict(_scan_cached(n, tuple(sorted(set(primes))), cap, fpf_only))


def _signature(order: int, q: int, r: int) -> tuple[int, int]:
    factors = prime_factors(order) if order > 1 else {}
    return factors.get(q, 0), factors.get(r, 0)


def _check_degree(n: int, limit: int, scan: str):
    if n < 1:
        raise InvalidParams(f"degree {n} is not positive")
    if n > limit:
        raise DegreeLimit(f"degree {n} exceeds the {scan} scan limit")


def _build_inventory(n, q, r, classes, filter_desc) -> ClassInventory:
    """The entries of the given S_n-classes (lists of code sets): each is
    represented by its least member by set_key and sized by its length. The
    entries are in order of representative, then stably by signature and
    order."""
    entries = []
    for key, size in sorted((min(map(set_key, cls)), len(cls)) for cls in classes):
        rep = group_from_set(n, key)
        entries.append(ClassEntry(rep, rep.order, _signature(rep.order, q, r), size))
    entries.sort(key=lambda e: (e.signature, e.order))
    return ClassInventory(f"S{n}", n, filter_desc, tuple(entries))


def _transitive_variety_classes(n: int, q: int, r: int) -> list[list[frozenset]]:
    """The S_n-classes of transitive subgroups of S_n in the variety [q, r],
    as lists of code sets. A transitive group's order is divisible by n, and
    the scan keeps only {q, r}-smooth orders: unless n is {q, r}-smooth there
    is none to scan for."""
    if not _divides_primes(n, (q, r)):
        return []
    # the soluble order bound: order^2 <= 6^(n-1) iff order <= isqrt(6^(n-1))
    cap = math.isqrt(6 ** (n - 1))
    ops = perm_ops(n)
    return [
        cls
        for elems, (gens, cls) in _subgroup_scan(n, (q, r), cap).items()
        if len(elems) % n == 0  # transitive needs n | order
        and len({g[0] for g in elems}) == n  # the orbit of point 0
        and in_variety(ops, [q, r], gens)
    ]


def enumerate_transitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of transitive two-prime-variety subgroups of S_n."""
    _check_pair(q, r)
    _check_degree(n, TRANSITIVE_DEGREE_LIMIT, "transitive")
    classes = _transitive_variety_classes(n, q, r)
    return _build_inventory(n, q, r, classes, f"transitive, variety [{q}, {r}]")


def enumerate_primitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of primitive two-prime-variety subgroups of S_n.

    Degrees up to 6 run the generic class scan, and a class size is the
    length of the S_n-class. Degrees 7 and 8 go through the normalizer of one
    regular elementary abelian subgroup T, and a class size counts the class
    members that contain T. (At degree 7 the generic scan finds the same
    classes, in under a second.)
    """
    _check_pair(q, r)
    _check_degree(n, PRIMITIVE_DEGREE_LIMIT, "primitive")
    if n in (7, 8):
        return _primitive_regular_normal(n, q, r)
    return _generic_primitive_classes(n, q, r)


def _generic_primitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """The primitive inventory from the transitive class scan, at any degree."""
    classes = _transitive_variety_classes(n, q, r)
    classes = [cls for cls in classes if group_from_set(n, cls[0]).is_primitive()]
    return _build_inventory(n, q, r, classes, f"primitive, variety [{q}, {r}]")


def elementary_abelian_regular_scan(n: int, r: int) -> dict[frozenset, tuple]:
    """The S_n-classes of elementary abelian r-subgroups of S_n of order <= n
    whose nontrivial elements are fixed-point free (the candidates that can
    be transitive: transitive abelian groups are regular), as a dict from
    each class representative to (its generators, its class), code sets."""
    return _subgroup_scan(n, (r,), n, fpf_only=True)


def enumerate_primitive_ar_classes(n: int, r: int) -> ClassInventory:
    """Primitive single-prime-variety (elementary abelian r) subgroups of S_n."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    _check_degree(n, PRIMITIVE_DEGREE_LIMIT, "primitive")
    classes = []
    for elems, (gens, cls) in elementary_abelian_regular_scan(n, r).items():
        if len(elems) != n:
            continue  # transitive abelian means regular
        grp = group_from_set(n, elems)
        if grp.is_transitive() and grp.is_primitive():
            classes.append(cls)
    # q = 1 gives the single-prime signature (0, r-exponent)
    return _build_inventory(n, 1, r, classes, f"primitive, variety [{r}]")


def _primitive_regular_normal(n: int, q: int, r: int) -> ClassInventory:
    """Primitive scan through the normalizer of one regular (C_u)^k, u^k = n.

    A primitive soluble group of prime-power degree has a regular elementary
    abelian minimal normal subgroup of order n = u^k, so u must be one of the
    two primes; otherwise the inventory is empty. The regular copies must form
    one S_n-class; fix its least member T, and every target is conjugate to
    T.S for a subgroup S of N(T)_0, the point stabiliser of the normalizer.

    S is taken up to N(T)_0-conjugacy: g in N(T)_0 maps T.S to T.S^g, and S
    is the point stabiliser of T.S, so each N(T)_0-class of S gives a class
    of targets T.S of the same length. No two such classes are conjugate in
    S_n: T is the only minimal normal subgroup of a primitive T.S (another
    would centralise T, which is its own centraliser), so a conjugation
    between targets fixes T, lies in N(T) = T.N(T)_0 and conjugates the S
    in N(T)_0. A class size counts the T.S in the class.
    """
    empty = ClassInventory(f"S{n}", n, f"primitive, variety [{q}, {r}]", ())
    factors = prime_factors(n)
    if len(factors) != 1:
        return empty  # degree is not a prime power: no regular abelian copy
    u = next(iter(factors))
    if u not in (q, r):
        return empty
    scan = elementary_abelian_regular_scan(n, u)
    regulars = [cls for elems, (_, cls) in scan.items() if len(elems) == n]
    if len(regulars) != 1:
        raise AssertionError("regular elementary abelian copies are not a single class")
    T_elems = min(regulars[0], key=set_key)
    ops = perm_ops(n)
    mul, inv = ops.mul, ops.inv

    # N(T)_0: the elements fixing point 0 that normalize T
    t_gens = greedy_generators(n, T_elems)
    stab = []
    for rest in itertools.permutations(range(1, n)):
        g = (0, *rest)
        gi = inv(g)
        if all(mul(mul(gi, h), g) in T_elems for h in t_gens):
            stab.append(g)
    stab_gens = greedy_generators(n, stab)

    classes = []
    for s_gens, _ in subgroup_lattice(ops, stab, conjugators=stab_gens).values():
        g_elems, gens = T_elems, list(t_gens)
        for x in s_gens:
            g_elems = extend_set(n, g_elems, gens, x)
            gens.append(x)
        if not _divides_primes(len(g_elems), (q, r)):
            continue
        grp = group_from_set(n, g_elems)  # transitive: it contains T
        if not grp.is_primitive() or not in_variety(ops, [q, r], gens):
            continue
        classes.append(conjugation_orbit(ops, g_elems, stab_gens))
    return _build_inventory(n, q, r, classes, f"primitive, variety [{q}, {r}]")


# ---------------------------------------------------------------------------
# exhaustive subgroup scan of small GL (order bound oracle)


@lru_cache(maxsize=8)
def _gl_lattice(alpha: int, spec: FieldSpec):
    """The table of GL(alpha, s) over its gl_elements codes, and its
    subgroups with their generators, as table indices."""
    codes = gl_elements(alpha, spec, GL_BRUTE_LIMIT)
    table = cayley_from(MatGroup(spec, alpha, gl_generators(alpha, spec, GL_BRUTE_LIMIT), codes))
    lattice = subgroup_lattice(table, range(table.order))
    return table, sorted(lattice.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))


def gl_variety_subgroup_details(alpha: int, spec: FieldSpec, q: int, r: int):
    """Order, irreducibility and Fitting-subgroup order of every two-prime-
    variety subgroup of GL(alpha, s), exhaustively over the subgroup lattice
    of the full linear group."""
    _check_pair(q, r)
    table, lattice = _gl_lattice(alpha, spec)
    codes = gl_elements(alpha, spec, GL_BRUTE_LIMIT)
    out = []
    for sub, gens in lattice:
        if not in_variety(table, [q, r], gens):
            continue
        group = group_from_mats(alpha, spec, [codes[i] for i in sub])
        out.append(
            {
                "order": len(sub),
                "irreducible": is_irreducible(group),
                "fitting_order": len(fitting_subgroup(table, sub, gens)),
            }
        )
    return out


# ---------------------------------------------------------------------------
# the three-prime census


def _action_orbit_reps(group: CayleyGroup, dim: int, u: int):
    """One action homomorphism group -> GL(dim, u) per GL-conjugacy class, as
    lists of image codes by element index: the first of each class in
    homomorphisms_to_mats order.

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
    for hom in homomorphisms_to_mats(group, ops, gl):
        key = tuple(hom[x] for x in group.generators)
        if key not in conjugate_keys:
            conjugate_keys.update(conjugation_orbit(ops, key, gl_gens))
            reps.append(hom)
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
    p, q, r = params.p, params.q, params.r
    a, b, g = params.alpha, params.beta, params.gamma
    if params.n > CENSUS_ORDER_LIMIT:
        shown = params.n if printable(params.n) else f"{p}^{a}*{q}^{b}*{r}^{g}"
        raise LimitExceeded(f"order {shown} exceeds the census limit {CENSUS_ORDER_LIMIT}")

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
