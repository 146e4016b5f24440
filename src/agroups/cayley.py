"""Abstract finite groups as multiplication tables.

Subgroups of a table group are frozensets of element indices. The subgroup
kernel here (closure by coset extension, greedy and canonical generators,
normal closure, verbal subgroups, lattice scan, conjugation orbits,
conjugator scan, minimal normal subgroups, Fitting subgroup) runs on any
group given by a product, an identity and an inverse, so the permutation and
matrix layers bind it to their codes instead of keeping copies. A group whose
elements are already listed becomes a table (table_group) where the kernel
then runs on its indices: the generators' rows are code products, and every
other row is a row gather.
Isomorphism testing is fingerprint comparison followed by generator-image
backtracking, and the same backtracking engine enumerates homomorphisms
into GL, on matrix codes, for the census oracle. Each backtracking level
extends the map by breadth-first search over the Cayley graph on the
generators mapped so far, checking one product per graph edge. A table
computes its element orders and fingerprint once and caches them.
Construction validates every table: rows and columns are permutations of
the indices, the identity is an index that acts as one, and Light's test
checks associativity on a generating set, for each generator g comparing
the rows at column g with each row gathered at the entries of row g. The
abelianisation's element orders are read off the cosets of the derived
subgroup, with no quotient table.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from functools import cached_property, lru_cache

from .errors import InvalidParams, LimitExceeded, NotNormal
from .gf import is_prime, prime_factors, printable_product

TABLE_LIMIT = 400


class CayleyGroup:
    """Finite group given by its n x n multiplication table of indices."""

    def __init__(self, table: tuple[tuple[int, ...], ...], identity: int):
        self.table, self.identity = table, identity
        self.__post_init__()

    def _key(self) -> tuple:
        return self.table, self.identity

    def __eq__(self, other):
        return type(other) is CayleyGroup and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __post_init__(self):
        t, e = self.table, self.identity
        n = len(t)
        idx = set(range(n))
        if any(map(n.__ne__, map(len, t))) or not all(map(idx.__eq__, map(set, t))):
            raise InvalidParams("table rows must be permutations of the indices")
        if not all(map(idx.__eq__, map(set, zip(*t)))):
            raise InvalidParams("table columns must be permutations of the indices")
        ident = tuple(range(n))
        if (
            not isinstance(e, int)
            or e not in idx
            or t[e] != ident
            or tuple(map(operator.itemgetter(e), t)) != ident
        ):
            raise InvalidParams("identity index does not act as identity")
        # Light's test: the g with (x g) y = x (g y) for all x, y are closed
        # under products, so a generating set read off the table suffices
        # (coset extension only ever multiplies elements already reached).
        # Inverses exist already: every row is a permutation, so it holds e.
        # Row x (g y) over all y gathers row x at the entries of row g; the
        # rows (x g) y are the rows at column g. A table of order 1 has no
        # generators, and itemgetter needs two indices to return a tuple.
        for g in self.generators if n > 1 else ():
            gather = operator.itemgetter(*t[g])
            xg_rows = map(t.__getitem__, map(operator.itemgetter(g), t))
            if not all(map(operator.eq, xg_rows, map(gather, t))):
                x = next(x for x, row in enumerate(t) if t[row[g]] != gather(row))
                left, right = t[t[x][g]], gather(t[x])
                y = next(y for y in range(n) if left[y] != right[y])
                raise InvalidParams(f"associativity fails at ({x}, {g}, {y})")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generators in index order: Light's test and every normal
        closure in the table run on these."""
        return tuple(greedy_generators(self, range(len(self.table))))

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(self.identity) for row in self.table)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, a: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), a), by)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, by index."""
        return tuple(_element_orders(self, range(len(self.table))))

    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    def center(self) -> frozenset[int]:
        """The a with a g = g a for every generator g: column g against row g."""
        t = self.table
        central = set(range(self.order))
        for g in self.generators:
            column = map(operator.itemgetter(g), t)
            central.intersection_update(
                itertools.compress(range(self.order), map(operator.eq, column, t[g]))
            )
        return frozenset(central)

    @cached_property
    def invariants(self) -> tuple:
        """Cheap isomorphism invariants, computed once per table, as a
        hashable tuple: the element-order histogram, the orders of the
        centre and the derived subgroup, the exponent and the sorted element
        orders of the abelianisation, read off the cosets of the derived
        subgroup without building the quotient's table."""
        histogram = collections.Counter(self.element_orders)
        derived = derived_subgroup(self)
        return (
            tuple(sorted(histogram.items())),
            len(self.center()),
            len(derived),
            self.exponent(),
            _quotient_orders(self, derived),
        )

    def fingerprint(self) -> dict:
        """The invariants in the report wire format, as a fresh dict."""
        histogram, center, derived, exponent, ab_orders = self.invariants
        return {
            "order_histogram": {str(k): v for k, v in histogram},
            "center": center,
            "derived": derived,
            "exponent": exponent,
            "abelianization_orders": list(ab_orders),
        }

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "identity": self.identity,
            "table": [list(r) for r in self.table],
        }


def elementary_abelian_table(u: int, dim: int) -> CayleyGroup:
    """(C_u)^dim with elements ordered by their base-u digit vectors."""
    return CayleyGroup(_vector_sums(u, dim), 0)


@lru_cache(maxsize=None)
def _vector_sums(u: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The addition table of GF(u)^k, u prime, the one numbering of its
    vectors in the engine: itertools.product order, base-u digits with the
    first coordinate the most significant. Row v is the translation by v."""
    rows: list[tuple[int, ...]] = [(0,)]
    for _ in range(k):  # a new most significant coordinate: (a, x) + (b, y)
        m = len(rows)
        rows = [
            tuple((a + b) % u * m + y for b in range(u) for y in row)
            for a in range(u)
            for row in rows
        ]
    return tuple(rows)


def _linear_points(u: int, k: int, code) -> tuple[int, ...]:
    """The point map x -> x M of GF(u)^k for a matrix code M over GF(u),
    whose element indices are the residues. The image of c e_i + y, y on the
    later coordinates, is c M_i + y M: one lookup in row M_i per point."""
    sums = _vector_sums(u, k)
    image = [0]
    for i in reversed(range(k)):
        v = 0
        for digit in code[i * k : i * k + k]:
            v = v * u + digit
        block = image
        for _ in range(u - 1):
            block = list(map(sums[v].__getitem__, block))
            image += block
    return tuple(image)


def table_group(G, elems, gens) -> CayleyGroup:
    """The table of the group elems = <gens>, a sorted element list of a
    group given by G.mul and G.identity (permutation or matrix codes), on the
    indices of elems. Only the generators' rows are products, |elems| each;
    every other row is chained from them along the Cayley graph as a C-level
    gather, row(a g) = row(a) gathered at the entries of row(g), since
    a g b = a (g b). The table is validated like any other."""
    index = {x: i for i, x in enumerate(elems)}
    mul = G.mul
    gathers = [
        (index[g], operator.itemgetter(*[index[mul(g, b)] for b in elems])) for g in gens
    ]
    e = index[G.identity]
    rows: list = [None] * len(elems)
    rows[e] = tuple(range(len(elems)))
    reached = [e]
    for a in reached:  # reached grows by each newly chained row
        row = rows[a]
        for g, gather in gathers:
            ag = row[g]
            if rows[ag] is None:
                rows[ag] = gather(row)
                reached.append(ag)
    if len(reached) != len(elems):
        raise InvalidParams("the generators do not generate the element list")
    return CayleyGroup(tuple(rows), e)


# ---------------------------------------------------------------------------
# the subgroup kernel
#
# Every function here takes a group G given by G.mul(a, b), G.identity and,
# where conjugates are needed, G.inv(a): a CayleyGroup on element indices, or
# the permutation codes of perm.perm_ops and the matrix codes of matgrp.mat_ops.
# Subgroups are frozensets of elements.


def _power(G, a, e: int):
    result, mul = G.identity, G.mul
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _element_orders(G, elems) -> list[int]:
    """The orders of elems, a set closed under powers. The powers of each
    element are walked once and give the order of every power: k / gcd(j, k)
    for the j-th power of an element of order k."""
    mul, e = G.mul, G.identity
    order: dict = {}
    for x in elems:
        if x not in order:
            powers = [x]
            while powers[-1] != e:
                powers.append(mul(powers[-1], x))
            k = len(powers)
            for j, y in enumerate(powers, 1):
                order.setdefault(y, k // math.gcd(j, k))
    return [order[x] for x in elems]


def subgroup_closure(G, seed, cap: int | None = None) -> frozenset | None:
    """Subgroup generated by the seed elements: {e} extended by each in turn
    (extend_subgroup). With a cap, None once it exceeds cap elements."""
    sub, gens = frozenset({G.identity}), []
    for g in dict.fromkeys(seed):
        if g not in sub:
            sub = extend_subgroup(G, sub, gens, g, cap)
            if sub is None:
                return None
            gens.append(g)
    return sub


def extend_subgroup(G, sub, gens, new, cap: int | None = None) -> frozenset | None:
    """<sub, new> for sub = <gens>, by coset BFS so cost scales with output.

    With a cap, returns None as soon as the result exceeds it (cheap
    rejection for lattice scans that only want bounded subgroups).
    """
    if new in sub:
        return frozenset(sub)
    mul = G.mul
    mults = [*gens, new]
    out = set(sub)
    reps = [G.identity]
    for u in reps:  # reps grows by one coset representative per new coset
        for m in mults:
            v = mul(u, m)
            if v not in out:
                out.update([mul(h, v) for h in sub])
                reps.append(v)
                if cap is not None and len(out) > cap:
                    return None
    return frozenset(out)


def greedy_generators(G, elems, key=None) -> list:
    """Small canonical generating list of the subgroup elems: scan it in key
    order, keeping each element that the earlier ones do not generate."""
    gens: list = []
    have = frozenset({G.identity})
    total = len(set(elems))
    for x in sorted(elems, key=key):
        if len(have) == total:
            break
        if x not in have:
            have = extend_subgroup(G, have, gens, x)
            gens.append(x)
    return gens


def canonical_generators(G, elems) -> list:
    """The greedy generators of the subgroup elems taken by decreasing
    element order, then by element: the generators every permutation,
    matrix and table group is reported and searched by."""
    elems = list(elems)
    order = dict(zip(elems, _element_orders(G, elems)))
    return greedy_generators(G, elems, key=lambda x: (-order[x], x))


def normal_closure(G, seeds, ambient_gens) -> tuple[frozenset, list]:
    """Smallest subgroup containing the seeds and normalised by ambient_gens,
    with the generators it was built from. Only generators are conjugated,
    and only by the ambient generators: a subgroup whose generators' conjugates
    lie in it is normal in the finite group they generate."""
    mul, inv = G.mul, G.inv
    conjugators = [(inv(g), g) for g in ambient_gens]
    sub, gens = frozenset({G.identity}), []
    pending = list(seeds)
    while pending:
        x = pending.pop()
        if x not in sub:
            sub = extend_subgroup(G, sub, gens, x)
            gens.append(x)
            pending += [mul(mul(gi, x), g) for gi, g in conjugators]
    return sub, gens


def verbal_subgroup(G, gens, r: int) -> tuple[frozenset, list]:
    """The A_r-verbal subgroup of <gens>: the smallest normal subgroup with
    quotient abelian of exponent dividing r (r = 0: the derived subgroup).
    It is the normal closure of the generator commutators and r-th powers,
    since commuting generators of order dividing r make the quotient abelian
    of that exponent. Returns it with its generators, like normal_closure."""
    mul, inv = G.mul, G.inv
    seeds = [
        mul(mul(inv(x), inv(y)), mul(x, y)) for i, x in enumerate(gens) for y in gens[i + 1 :]
    ]
    if r:
        seeds += [_power(G, x, r) for x in gens]
    return normal_closure(G, seeds, gens)


def conjugation_orbit(G, sub, gens) -> list:
    """The conjugates of sub under the group generated by gens, in
    breadth-first order from sub: each found conjugate is conjugated by every
    generator, so no element of <gens> is enumerated. sub is a subgroup (any
    set of elements, conjugates are frozensets) or a tuple of elements
    conjugated simultaneously, such as the generator images of a
    homomorphism (conjugates are tuples)."""
    mul, inv = G.mul, G.inv
    conjugators = [(inv(g), g) for g in gens]
    kind = tuple if isinstance(sub, tuple) else frozenset
    orbit = [kind(sub)]
    seen = set(orbit)
    for current in orbit:  # orbit grows by each new conjugate
        for gi, g in conjugators:
            image = kind([mul(mul(gi, h), g) for h in current])
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def first_conjugator(G, ambient, gens, target):
    """The first x of ambient, in its order, that conjugates every element of
    gens into target (x^-1 g x in target), or None. Given the generators of a
    subgroup A and the element set of a subgroup B of equal order, that is
    the first x with A^x = B."""
    mul, inv = G.mul, G.inv
    for x in ambient:
        xi = inv(x)
        if all(mul(mul(xi, g), x) in target for g in gens):
            return x
    return None


def _coset_class(G, sub, x, index) -> int:
    """Bitmask of the universe positions (index maps element -> position) of
    elements y with <sub, y> = <sub, x> that are visible without search:
    sub x^k for k prime to m, the least exponent with x^m in sub (x is then a
    power of x^k modulo sub)."""
    mul = G.mul
    powers = [x]
    while (p := mul(powers[-1], x)) not in sub:
        powers.append(p)
    m = len(powers) + 1
    twins = [xk for k, xk in enumerate(powers, 1) if math.gcd(k, m) == 1]
    positions = {index.get(mul(h, xk)) for xk in twins for h in sub}
    positions.discard(None)
    return sum(1 << i for i in positions)


def subgroup_lattice(G, universe, cap: int | None = None, keep=None, conjugators=()) -> dict:
    """The subgroups generated by universe elements, breadth first, up to
    conjugacy under the group the conjugators generate (by default none:
    every subgroup is its own class). Maps the first subgroup found in each
    class to the generators that built it, in discovery order, and its class
    as a conjugation_orbit.

    Subgroups above cap elements, or rejected by keep(subgroup), are neither
    recorded nor extended further. Rejection by keep must be upward-closed,
    as rejection by the cap is: every overgroup of a rejected subgroup is
    rejected too.

    A subgroup H is extended by universe elements x outside it, in universe
    order, skipping those whose outcome is known: the coset class of an x
    already tried (same <H, x>), and any x with <L, x> rejected for a
    subgroup L that H was built from by extensions (<H, x> contains <L, x>,
    so it is rejected too). The skipped extensions would have changed
    nothing, so the result is that of extending by every universe element.

    The conjugators must leave the universe and keep invariant: only the
    first subgroup found in each class is recorded and extended. This misses
    no class: if K = <H^g, x>, then K^(g^-1) = <H, x^(g^-1)> is an extension
    of H by a universe element.
    """
    index = {x: i for i, x in enumerate(universe)}
    trivial = frozenset({G.identity})
    seen: dict[frozenset, tuple] = {trivial: ()}
    orbits = {trivial: [trivial]}
    found = {trivial}  # every subgroup in a recorded class
    # subgroup -> bitmask of the universe positions whose extension of it is
    # known to be rejected
    frontier: dict[frozenset, int] = {trivial: 0}
    while frontier:
        below: dict[frozenset, int] = {}
        for sub, rejected in frontier.items():
            if cap is not None and 2 * len(sub) > cap:
                continue  # any proper extension at least doubles the order
            gens, tried, reached = seen[sub], 0, []
            for i, x in enumerate(universe):
                if (tried | rejected) >> i & 1 or x in sub:
                    continue
                twins = _coset_class(G, sub, x, index)
                bigger = extend_subgroup(G, sub, gens, x, cap)
                if bigger is None or (
                    bigger not in found and keep is not None and not keep(bigger)
                ):
                    rejected |= twins
                    continue
                tried |= twins
                if bigger not in found:
                    seen[bigger] = gens + (x,)
                    below[bigger] = 0
                    orbits[bigger] = conjugation_orbit(G, bigger, conjugators)
                    found.update(orbits[bigger])
                if bigger in below:  # a class representative not extended yet
                    reached.append(bigger)  # it inherits rejections
            for bigger in reached:
                below[bigger] |= rejected
        frontier = below
    return {sub: (gens, orbits[sub]) for sub, gens in seen.items()}


def _class_reps(G, elems, gens, covered=None):
    """The first x of each class under conjugation by <gens> met in elems outside
    covered, which grows by each class met, and may grow between yields."""
    covered = set() if covered is None else covered
    for x in elems:
        if x not in covered:
            covered.update(y for (y,) in conjugation_orbit(G, (x,), gens))
            yield x


def minimal_normal_subgroups(G, elems, gens) -> list[frozenset]:
    """All minimal nontrivial normal subgroups of the group elems = <gens>,
    sorted by their sorted elements. Candidates are normal closures of
    prime-order elements (every nontrivial normal subgroup contains one),
    one per class, reduced to the minimal members."""
    elems = list(elems)
    prime_order = [x for x, o in zip(elems, _element_orders(G, elems)) if is_prime(o)]
    closures = {normal_closure(G, [x], gens)[0] for x in _class_reps(G, prime_order, gens)}
    return sorted((c for c in closures if not any(d < c for d in closures)), key=sorted)


def fitting_subgroup(G, elems, gens) -> frozenset:
    """Largest nilpotent normal subgroup of the group elems = <gens>: the join
    of the normal u-radicals. A u-element lies in the u-radical iff its
    normal closure is a u-group, so the u-radical is the join of those
    closures, one per class (ncl(x^g) = ncl(x)), skipping any class in the join so far."""
    elems = list(elems)
    e = G.identity
    join: frozenset = frozenset({e})
    join_gens: list = []
    for u, k in sorted(prime_factors(len(elems)).items()) if len(elems) > 1 else []:
        part, covered = u**k, set(join)
        u_elements = [x for x in elems if _power(G, x, part) == e]
        for x in _class_reps(G, u_elements, gens, covered):
            closure, closure_gens = normal_closure(G, [x], gens)
            if part % len(closure) == 0:
                covered.update(closure)
                for y in closure_gens:
                    if y not in join:
                        join = extend_subgroup(G, join, join_gens, y)
                        join_gens.append(y)
    return join


def _abelian_of_exponent(G, gens, u: int) -> bool:
    """<gens> is abelian of exponent dividing u (any generating set will do,
    the whole subgroup included)."""
    gens = list(gens)
    mul = G.mul
    return all(_power(G, a, u) == G.identity for a in gens) and all(
        mul(a, b) == mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
    )


def in_variety(G, chain, gens=None) -> bool:
    """Membership of <gens> (default: the whole table group G) in the product
    variety given by a chain of 1 to 3 primes.

    [u]: abelian of exponent dividing u. [q, r]: the commutator/r-th-power
    verbal subgroup must be abelian of exponent dividing q. [p, q, r]: iterate
    once more inside that subgroup (a verbal subgroup of a normal subgroup is
    normal in the whole group, so the chain needs no further closure).
    """
    chain = list(chain)
    if not 1 <= len(chain) <= 3:
        raise InvalidParams("variety chains have length 1 to 3")
    for u in chain:
        if not is_prime(u):
            raise InvalidParams(f"{u} is not prime")
    if gens is None:
        if G.order > TABLE_LIMIT:
            raise LimitExceeded(f"order {G.order} exceeds table limit {TABLE_LIMIT}")
        gens = G.generators
    for u in reversed(chain[1:]):
        gens = verbal_subgroup(G, list(gens), u)[1]
    return _abelian_of_exponent(G, gens, chain[0])


# ---------------------------------------------------------------------------
# table subgroups


def all_subgroups(G: CayleyGroup) -> list[frozenset[int]]:
    """Every subgroup, by breadth-first closure extension."""
    return sorted(subgroup_lattice(G, range(G.order)), key=lambda s: (len(s), tuple(sorted(s))))


def is_normal(G: CayleyGroup, sub: frozenset[int]) -> bool:
    return all(G.conj(a, g) in sub for a in sub for g in G.generators)


def derived_subgroup(G: CayleyGroup) -> frozenset[int]:
    return verbal_subgroup(G, G.generators, 0)[0]


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


def _quotient_orders(G: CayleyGroup, N: frozenset[int]) -> tuple[int, ...]:
    """The sorted element orders of G/N, for a normal subgroup N: the order
    of the coset a N is the least k with a^k in N. Each coset is walked from
    its least member, as quotient orders them."""
    t = G.table
    covered: set[int] = set()
    orders = []
    for a in range(len(t)):
        if a not in covered:
            row = t[a]
            covered.update(map(row.__getitem__, N))
            k, x = 1, a
            while x not in N:
                k, x = k + 1, row[x]
            orders.append(k)
    return tuple(sorted(orders))


def in_variety_exhaustive(G: CayleyGroup, chain) -> bool:
    """Definitional test: search all normal subgroups for a witness chain.

    Oracle cross-check for in_variety; exponential in the subgroup count, so
    keep it to small orders.
    """
    chain = list(chain)
    if len(chain) == 1:
        return _abelian_of_exponent(G, range(G.order), chain[0])
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
# isomorphism and homomorphism search


def minimal_generating_sequence(G: CayleyGroup) -> list[int]:
    return canonical_generators(G, range(G.order))


def _hom_search(G, gens, candidates_per_gen, mul, identity_image, injective, find_all):
    """Homomorphisms f from G = <gens> with f(gens[k]) in candidates_per_gen[k]
    (injective ones only, with injective), depth first in candidate order;
    only the first unless find_all. Each is a list of images by element index.

    A level extends f from K = <gens[:k]> to <K, g>, g = gens[k], by breadth-
    first search over the Cayley graph on gens[:k + 1]: each newly reached
    element takes its image along the edge that reached it, and every other
    edge x -> x h is checked, f(x h) = f(x) f(h). Elements of K need only the
    edge by g (earlier levels checked the rest). Consistency on every edge of
    a generating set makes f multiplicative, f(x w) = f(x) f(w) for each word
    w by induction on its length; a homomorphism is injective iff nothing but
    the identity maps to the identity. Codomain elements only need mul and
    equality.
    """
    t = G.table
    results = []

    def extend(f, domain, level, image):
        g = gens[level]
        if f[g] is not None:  # g already in K
            return (f, domain) if f[g] == image else None
        f = f.copy()
        # K g is a new coset: x g lies outside K for every x in K
        new = [t[x][g] for x in domain]
        for x, xg in zip(domain, new):
            f[xg] = mul(f[x], image)
        edges = [(h, f[h]) for h in gens[: level + 1]]
        for x in new:  # new grows by each newly reached element
            fx, row = f[x], t[x]
            for h, fh in edges:
                y, fy = row[h], mul(fx, fh)
                if f[y] is None:
                    f[y] = fy
                    new.append(y)
                elif f[y] != fy:
                    return None
        if injective and identity_image in (f[x] for x in new):
            return None
        return f, domain + new

    def recurse(level, f, domain):
        if level == len(gens):
            results.append(f)
            return not find_all
        for image in candidates_per_gen[level]:
            extended = extend(f, domain, level, image)
            if extended is not None and recurse(level + 1, *extended):
                return True
        return False

    f = [None] * G.order
    f[G.identity] = identity_image
    recurse(0, f, [G.identity])
    return results


def are_isomorphic(G: CayleyGroup, H: CayleyGroup) -> bool:
    """Table isomorphism: invariant fingerprints, then _embeds."""
    if G.order != H.order:
        return False
    if max(G.order, H.order) > TABLE_LIMIT:
        raise LimitExceeded("orders exceed the table limit")
    return G.invariants == H.invariants and _embeds(G, H)


def _embeds(G: CayleyGroup, H: CayleyGroup) -> bool:
    """Whether an injective homomorphism G -> H exists (an isomorphism when
    the orders agree), searched from each generator of G to the elements of
    H of its order. A conjugate of an embedding by an element of H is one
    too, so the first generator tries one image per conjugacy class of H."""
    h_by_order: dict[int, list[int]] = {}
    for a, o in enumerate(H.element_orders):
        h_by_order.setdefault(o, []).append(a)
    gens = minimal_generating_sequence(G)
    candidates = [h_by_order.get(G.element_orders[g], []) for g in gens]
    if gens:
        candidates[0] = list(_class_reps(H, candidates[0], H.generators))
    return bool(
        _hom_search(G, gens, candidates, H.mul, H.identity, injective=True, find_all=False)
    )


def homomorphisms_to_mats(G: CayleyGroup, ops, codes, conjugators) -> list[list]:
    """One homomorphism from G into matrix codes, a list closed under the
    product of ops (matgrp.mat_ops) and conjugation by the conjugators, per
    class under simultaneous conjugation by them (with none, every one), as
    the list of its image codes by element index: the first of its class.
    The search is depth first in the order of codes, so the first member of
    a class maps the first generator to the first element of a conjugacy
    class, and that generator tries only those images (_class_reps)."""
    codes = list(codes)
    orders = _element_orders(ops, codes)
    gens = minimal_generating_sequence(G)
    by_div = [
        [c for c, o in zip(codes, orders) if G.element_orders[g] % o == 0] for g in gens
    ]
    if gens:
        by_div[0] = list(_class_reps(ops, by_div[0], conjugators))
    homs, conjugate_keys = [], set()
    for hom in _hom_search(G, gens, by_div, ops.mul, ops.identity, injective=False, find_all=True):
        key = tuple(hom[x] for x in gens)
        if key not in conjugate_keys:
            conjugate_keys.update(conjugation_orbit(ops, key, conjugators))
            homs.append(hom)
    return homs


# ---------------------------------------------------------------------------
# variety parameters


class VarietyParams:
    """The primes and exponents of one three-prime variety instance."""

    __slots__ = ("p", "q", "r", "alpha", "beta", "gamma")

    def __init__(self, p: int, q: int, r: int, alpha: int, beta: int, gamma: int):
        for u in (p, q, r):
            if not is_prime(u):
                raise InvalidParams(f"{u} is not prime")
        if len({p, q, r}) != 3:
            raise InvalidParams("p, q, r must be pairwise distinct")
        if min(alpha, beta, gamma) < 0:
            raise InvalidParams("exponents must be nonnegative")
        self.p, self.q, self.r = p, q, r
        self.alpha, self.beta, self.gamma = alpha, beta, gamma

    def _key(self) -> tuple:
        return self.p, self.q, self.r, self.alpha, self.beta, self.gamma

    def __eq__(self, other):
        return type(other) is VarietyParams and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n(self) -> int:
        return self.p**self.alpha * self.q**self.beta * self.r**self.gamma

    def printable_n(self) -> int | None:
        """n, or None when it is too long to print, and then never formed."""
        return printable_product(((self.p, self.alpha), (self.q, self.beta), (self.r, self.gamma)))

    def chain(self) -> list[int]:
        return [self.p, self.q, self.r]

    def to_json(self) -> dict:
        """The parameters, and n when it is short enough to print."""
        out = {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
        }
        n = self.printable_n()
        if n is not None:
            out["n"] = n
        return out
