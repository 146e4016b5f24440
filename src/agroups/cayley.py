"""Abstract finite groups as multiplication tables.

Subgroups of a table group are frozensets of element indices; use
subgroup_table to materialise one as its own CayleyGroup. Isomorphism testing
is fingerprint comparison followed by generator-image backtracking, and the
same backtracking engine enumerates homomorphisms into matrix groups for the
census oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import InvalidParams, LimitExceeded, NoSystemFound, NotNormal
from .gf import is_prime, prime_factors

TABLE_LIMIT = 400


@dataclass(frozen=True)
class CayleyGroup:
    """Finite group given by its n x n multiplication table of indices."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.table)
        idx = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != idx:
                raise InvalidParams("table rows must be permutations of the indices")
        for col in zip(*self.table):
            if set(col) != idx:
                raise InvalidParams("table columns must be permutations of the indices")
        e = self.identity
        if any(self.table[e][j] != j for j in range(n)) or any(
            self.table[i][e] != i for i in range(n)
        ):
            raise InvalidParams("identity index does not act as identity")
        # Light's test: the g with (x g) y = x (g y) for all x, y are closed
        # under products, so a generating set read off the table suffices.
        # Inverses exist already: every row is a permutation, so it holds e.
        t = self.table
        reached, gens = {e}, []
        for x in range(n):
            if x in reached:
                continue
            gens.append(x)
            frontier = list(reached)
            while frontier:
                new = {t[c][g] for c in frontier for g in gens} - reached
                reached |= new
                frontier = list(new)
        for g in gens:
            for x, row in enumerate(t):
                left, right = t[row[g]], tuple(map(row.__getitem__, t[g]))
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise InvalidParams(f"associativity fails at ({x}, {g}, {y})")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(self.identity)

    def conj(self, a: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), a), by)

    def elem_order(self, a: int) -> int:
        e, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            e += 1
        return e

    def elem_pow(self, a: int, e: int) -> int:
        result = self.identity
        x = a
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def exponent(self) -> int:
        return math.lcm(*(self.elem_order(a) for a in range(self.order)))

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def center(self) -> frozenset[int]:
        n = self.order
        return frozenset(
            a for a in range(n) if all(self.mul(a, b) == self.mul(b, a) for b in range(n))
        )

    def fingerprint(self) -> dict:
        """Cheap isomorphism invariants, also the report wire format."""
        orders = sorted(self.elem_order(a) for a in range(self.order))
        histogram: dict[int, int] = {}
        for o in orders:
            histogram[o] = histogram.get(o, 0) + 1
        derived = derived_subgroup(self)
        abelianization = quotient(self, derived)
        ab_orders = sorted(abelianization.elem_order(a) for a in range(abelianization.order))
        return {
            "order_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "center": len(self.center()),
            "derived": len(derived),
            "exponent": self.exponent(),
            "abelianization_orders": ab_orders,
        }

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "identity": self.identity,
            "table": [list(r) for r in self.table],
        }

    @staticmethod
    def from_json(obj) -> "CayleyGroup":
        return CayleyGroup(
            tuple(tuple(int(x) for x in row) for row in obj["table"]),
            int(obj["identity"]),
        )


def cyclic_table(n: int) -> CayleyGroup:
    return CayleyGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0)


def elementary_abelian_table(u: int, dim: int) -> CayleyGroup:
    """(C_u)^dim with elements ordered by their base-u digit vectors."""
    vecs = list(itertools.product(range(u), repeat=dim))
    index = {v: i for i, v in enumerate(vecs)}
    table = tuple(
        tuple(index[tuple((a + b) % u for a, b in zip(v, w))] for w in vecs) for v in vecs
    )
    return CayleyGroup(table, 0)


def direct_product_table(G: CayleyGroup, H: CayleyGroup) -> CayleyGroup:
    n, m = G.order, H.order
    table = tuple(
        tuple(G.mul(a // m, b // m) * m + H.mul(a % m, b % m) for b in range(n * m))
        for a in range(n * m)
    )
    return CayleyGroup(table, G.identity * m + H.identity)


def cayley_from(source, limit: int = TABLE_LIMIT) -> CayleyGroup:
    """Multiplication table of a PermGroup or MatGroup over its canonical
    element list; index 0..order-1 in canonical element order."""
    from .matgrp import MatGroup
    from .perm import PermGroup

    if isinstance(source, PermGroup):
        if source.order > limit:
            raise LimitExceeded(f"order {source.order} exceeds table limit {limit}")
        elems = source.elements(max(source.order, 1))
        labels = tuple(str(g.images) for g in elems)
    elif isinstance(source, MatGroup):
        if source.order > limit:
            raise LimitExceeded(f"order {source.order} exceeds table limit {limit}")
        elems = list(source.elements)
        labels = tuple(str(m.key()) for m in elems)
    else:
        raise TypeError(f"cannot build a table from {type(source).__name__}")
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[a * b] for b in elems) for a in elems)
    ident = elems[0] * elems[0].inverse()
    return CayleyGroup(table, index[ident], labels)


# ---------------------------------------------------------------------------
# subgroups as index sets


def subgroup_closure(G: CayleyGroup, seed) -> frozenset[int]:
    """Subgroup generated by the seed indices (word closure; finiteness
    supplies inverses)."""
    gens = sorted(set(seed) - {G.identity})
    elems = {G.identity}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def extend_subgroup(G: CayleyGroup, sub: frozenset[int], gens, new: int) -> frozenset[int]:
    """<sub, new> by coset BFS over the table."""
    if new in sub:
        return sub
    mults = list(gens) + [new]
    out = set(sub)
    reps = [G.identity]
    i = 0
    while i < len(reps):
        u = reps[i]
        i += 1
        for m in mults:
            v = G.mul(u, m)
            if v not in out:
                out.update(G.mul(h, v) for h in sub)
                reps.append(v)
    return frozenset(out)


def greedy_subgroup_generators(G: CayleyGroup, sub: frozenset[int]) -> list[int]:
    ordered = sorted(sub, key=lambda a: (-G.elem_order(a), a))
    gens: list[int] = []
    have: frozenset[int] = frozenset({G.identity})
    for x in ordered:
        if x in have:
            continue
        have = extend_subgroup(G, have, gens, x)
        gens.append(x)
        if len(have) == len(sub):
            break
    return gens


def all_subgroups(G: CayleyGroup) -> list[frozenset[int]]:
    """Every subgroup, by breadth-first closure extension."""
    trivial = frozenset({G.identity})
    seen: dict[frozenset[int], list[int]] = {trivial: []}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            gens = seen[sub]
            for x in range(G.order):
                if x in sub:
                    continue
                bigger = extend_subgroup(G, sub, gens, x)
                if bigger not in seen:
                    seen[bigger] = gens + [x]
                    new_frontier.append(bigger)
        frontier = new_frontier
    return sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))


def is_normal(G: CayleyGroup, sub: frozenset[int]) -> bool:
    return all(G.conj(a, g) in sub for a in sub for g in range(G.order))


def normal_closure(G: CayleyGroup, seed) -> frozenset[int]:
    current = subgroup_closure(G, seed)
    gens = list(seed)
    changed = True
    while changed:
        changed = False
        for g in range(G.order):
            for h in list(gens):
                c = G.conj(h, g)
                if c not in current:
                    current = extend_subgroup(G, current, gens, c)
                    gens.append(c)
                    changed = True
    return current


def derived_subgroup(G: CayleyGroup) -> frozenset[int]:
    comms = {
        G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
        for a in range(G.order)
        for b in range(G.order)
    }
    return subgroup_closure(G, comms)


def fitting_indices(G: CayleyGroup) -> frozenset[int]:
    """Largest nilpotent normal subgroup: join of the normal u-radicals,
    where an element belongs to the u-radical iff its normal closure is a
    u-group."""
    join: frozenset[int] = frozenset({G.identity})
    gens: list[int] = []
    for u in sorted(prime_factors(G.order)) if G.order > 1 else []:
        for x in range(G.order):
            o = G.elem_order(x)
            while o % u == 0:
                o //= u
            if o != 1 or x in join:
                continue
            ncl = normal_closure(G, {x})
            size = len(ncl)
            while size % u == 0:
                size //= u
            if size != 1:
                continue
            join = extend_subgroup(G, join, gens, x)
            gens.append(x)
    return join


def subgroup_table(G: CayleyGroup, sub: frozenset[int]) -> CayleyGroup:
    """The subgroup as its own CayleyGroup, indices in sorted order."""
    members = sorted(sub)
    index = {m: i for i, m in enumerate(members)}
    table = tuple(tuple(index[G.mul(a, b)] for b in members) for a in members)
    return CayleyGroup(table, index[G.identity])


def quotient(G: CayleyGroup, N: frozenset[int]) -> CayleyGroup:
    """Coset multiplication table; cosets ordered by least member."""
    if not is_normal(G, N):
        raise NotNormal("subgroup is not normal")
    # scanning indices in increasing order makes each rep the least member
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for a in range(G.order):
        if a in coset_of:
            continue
        members = sorted(G.mul(n, a) for n in N)
        rep_index = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = rep_index
    table = tuple(
        tuple(coset_of[G.mul(reps[i], reps[j])] for j in range(len(reps)))
        for i in range(len(reps))
    )
    return CayleyGroup(table, coset_of[G.identity])


# ---------------------------------------------------------------------------
# varieties via verbal subgroups


def verbal_ar_subgroup(G: CayleyGroup, r: int) -> frozenset[int]:
    """Subgroup generated by all commutators and r-th powers: the smallest
    normal subgroup with quotient abelian of exponent dividing r."""
    if G.order > TABLE_LIMIT:
        raise LimitExceeded(f"order {G.order} exceeds table limit {TABLE_LIMIT}")
    values = {
        G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
        for a in range(G.order)
        for b in range(G.order)
    }
    values |= {G.elem_pow(z, r) for z in range(G.order)}
    return subgroup_closure(G, values)


def _verbal_in_subgroup(G: CayleyGroup, sub: frozenset[int], u: int) -> frozenset[int]:
    values = {
        G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) for a in sub for b in sub
    }
    values |= {G.elem_pow(a, u) for a in sub}
    return subgroup_closure(G, values)


def _abelian_of_exponent(G: CayleyGroup, sub: frozenset[int], u: int) -> bool:
    members = sorted(sub)
    for i, a in enumerate(members):
        if G.elem_pow(a, u) != G.identity:
            return False
        for b in members[i + 1 :]:
            if G.mul(a, b) != G.mul(b, a):
                return False
    return True


def in_variety(G: CayleyGroup, chain) -> bool:
    """Membership in the product variety given by a chain of 1 to 3 primes.

    [u]: abelian of exponent dividing u. [q, r]: the commutator/r-th-power
    verbal subgroup must be abelian of exponent dividing q. [p, q, r]: iterate
    once more inside that subgroup.
    """
    chain = list(chain)
    if not 1 <= len(chain) <= 3:
        raise InvalidParams("variety chains have length 1 to 3")
    for u in chain:
        if not is_prime(u):
            raise InvalidParams(f"{u} is not prime")
    if G.order > TABLE_LIMIT:
        raise LimitExceeded(f"order {G.order} exceeds table limit {TABLE_LIMIT}")
    if len(chain) == 1:
        return _abelian_of_exponent(G, frozenset(range(G.order)), chain[0])
    if len(chain) == 2:
        q, r = chain
        K = verbal_ar_subgroup(G, r)
        return _abelian_of_exponent(G, K, q)
    p, q, r = chain
    K = verbal_ar_subgroup(G, r)
    V = _verbal_in_subgroup(G, K, q)
    V = normal_closure(G, V)
    return _abelian_of_exponent(G, V, p)


def in_variety_exhaustive(G: CayleyGroup, chain) -> bool:
    """Definitional test: search all normal subgroups for a witness chain.

    Oracle cross-check for in_variety; exponential in the subgroup count, so
    keep it to small orders.
    """
    chain = list(chain)
    if len(chain) == 1:
        return _abelian_of_exponent(G, frozenset(range(G.order)), chain[0])
    head, tail = chain[0], chain[1:]
    for N in all_subgroups(G):
        if not is_normal(G, N):
            continue
        if not _abelian_of_exponent(G, N, head):
            continue
        if in_variety_exhaustive(quotient(G, N), tail):
            return True
    return False


# ---------------------------------------------------------------------------
# Sylow subgroups and Sylow systems


def _prime_power_part(n: int, u: int) -> int:
    part = 1
    while n % u == 0:
        part *= u
        n //= u
    return part


def sylow_subgroup_indices(G: CayleyGroup, u: int) -> frozenset[int]:
    """One Sylow u-subgroup, grown through normalisers (deterministic)."""
    target = _prime_power_part(G.order, u)
    current: frozenset[int] = frozenset({G.identity})
    gens: list[int] = []
    while len(current) < target:
        if gens:
            normalizer = [
                g
                for g in range(G.order)
                if all(G.conj(h, g) in current for h in gens)
            ]
        else:
            normalizer = list(range(G.order))
        grown = False
        for x in normalizer:
            if x in current:
                continue
            o = G.elem_order(x)
            while o % u == 0:
                o //= u
            if o != 1:
                continue
            bigger = extend_subgroup(G, current, gens, x)
            n_b = len(bigger)
            while n_b % u == 0:
                n_b //= u
            if n_b == 1:
                current = bigger
                gens.append(x)
                grown = True
                break
        if not grown:
            raise AssertionError("Sylow growth stalled; should be impossible")
    return current


def _set_product(G: CayleyGroup, A: frozenset[int], B: frozenset[int]) -> frozenset[int]:
    return frozenset(G.mul(a, b) for a in A for b in B)


def sylow_system(G: CayleyGroup, seed: int = 0) -> list[frozenset[int]]:
    """Pairwise permutable Sylow subgroups, one per prime divisor.

    Searches combinations of conjugates of independently computed Sylow
    subgroups in canonical order (seed shuffles the candidate order only).
    """
    if G.order > TABLE_LIMIT:
        raise LimitExceeded(f"order {G.order} exceeds table limit {TABLE_LIMIT}")
    primes = sorted(prime_factors(G.order)) if G.order > 1 else []
    if not primes:
        return []
    conjugate_lists = []
    for u in primes:
        base = sylow_subgroup_indices(G, u)
        conjugates = {frozenset(G.conj(a, g) for a in base) for g in range(G.order)}
        ordered = sorted(conjugates, key=lambda s: tuple(sorted(s)))
        if seed:
            random.Random(seed).shuffle(ordered)
        conjugate_lists.append(ordered)
    for combo in itertools.product(*conjugate_lists):
        ok = True
        for i in range(len(combo)):
            for j in range(i + 1, len(combo)):
                if _set_product(G, combo[i], combo[j]) != _set_product(G, combo[j], combo[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return list(combo)
    raise NoSystemFound("no pairwise permutable Sylow family; input not soluble?")


# ---------------------------------------------------------------------------
# isomorphism and homomorphism search


def minimal_generating_sequence(G: CayleyGroup) -> list[int]:
    return greedy_subgroup_generators(G, frozenset(range(G.order)))


def _extend_map(G: CayleyGroup, mapping: dict, new_elem: int, image, mul, injective: bool):
    """Extend a partial multiplicative map of a subgroup by one generator.

    mapping covers a subgroup of G; returns the extended mapping covering
    <domain, new_elem>, or None on inconsistency. Codomain elements only need
    mul and hashability.
    """
    if new_elem in mapping:
        return mapping if mapping[new_elem] == image else None
    out = dict(mapping)
    out[new_elem] = image
    queue = [new_elem]
    while queue:
        x = queue.pop()
        fx = out[x]
        for y in list(out):
            fy = out[y]
            for ab, fab in ((G.mul(x, y), mul(fx, fy)), (G.mul(y, x), mul(fy, fx))):
                if ab in out:
                    if out[ab] != fab:
                        return None
                else:
                    out[ab] = fab
                    queue.append(ab)
    if injective and len(set(out.values())) != len(out):
        return None
    return out


def _hom_search(G, gens, candidates_per_gen, mul, identity_image, injective, find_all):
    results = []

    def recurse(level, mapping):
        if level == len(gens):
            results.append(mapping)
            return not find_all
        for image in candidates_per_gen[level]:
            extended = _extend_map(G, mapping, gens[level], image, mul, injective)
            if extended is not None:
                if recurse(level + 1, extended):
                    return True
        return False

    recurse(0, {G.identity: identity_image})
    return results


def are_isomorphic(G: CayleyGroup, H: CayleyGroup) -> bool:
    """Table isomorphism: invariant fingerprints, then backtracking."""
    if G.order != H.order:
        return False
    if max(G.order, H.order) > TABLE_LIMIT:
        raise LimitExceeded("orders exceed the table limit")
    if G.fingerprint() != H.fingerprint():
        return False
    gens = minimal_generating_sequence(G)
    h_by_order: dict[int, list[int]] = {}
    for a in range(H.order):
        h_by_order.setdefault(H.elem_order(a), []).append(a)
    candidates = [h_by_order.get(G.elem_order(g), []) for g in gens]
    results = _hom_search(
        G, gens, candidates, H.mul, H.identity, injective=True, find_all=False
    )
    return any(len(m) == G.order for m in results)


def homomorphisms_to_mats(G: CayleyGroup, codomain_mats) -> list[dict]:
    """All homomorphisms from G into a list of matrices closed under product.

    Returns complete mappings {element index: Mat}. Deterministic order.
    """
    gens = minimal_generating_sequence(G)
    ident = None
    for m in codomain_mats:
        if m.is_identity():
            ident = m
            break
    if ident is None:
        raise InvalidParams("codomain has no identity")
    by_div: list[list] = []
    for g in gens:
        o = G.elem_order(g)
        by_div.append([m for m in codomain_mats if o % m.order() == 0])
    complete = []
    for mapping in _hom_search(
        G, gens, by_div, lambda a, b: a * b, ident, injective=False, find_all=True
    ):
        if len(mapping) == G.order:
            complete.append(mapping)
    return complete


# ---------------------------------------------------------------------------
# variety parameters


@dataclass(frozen=True)
class VarietyParams:
    """The primes and exponents of one three-prime variety instance."""

    p: int
    q: int
    r: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for u in (self.p, self.q, self.r):
            if not is_prime(u):
                raise InvalidParams(f"{u} is not prime")
        if len({self.p, self.q, self.r}) != 3:
            raise InvalidParams("p, q, r must be pairwise distinct")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise InvalidParams("exponents must be nonnegative")

    @property
    def n(self) -> int:
        return self.p**self.alpha * self.q**self.beta * self.r**self.gamma

    def chain(self) -> list[int]:
        return [self.p, self.q, self.r]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "n": self.n,
        }
