"""Permutation group engine.

Points are labelled 1..n. Products compose left to right: ``(a * b)`` sends
x to b(a(x)), so x^(ab) = (x^a)^b.

Groups carry a base and strong generating set built with a deterministic
incremental Schreier-Sims on Perm objects, which gives exact orders and
membership without listing elements. Element-set work (closures, extensions,
generators, normal closures, the Fitting subgroup, the census lattice scans)
runs on the subgroup kernel in cayley over codes: a permutation as the tuple
of its 0-based point images, multiplied by one C-level map and hashed and
compared as a plain tuple. perm_ops binds the kernel to codes. A code sorts
exactly as its Perm's 1-based images do, so every canonical order is the same
in both forms; Perm and PermGroup appear only at the edges (stabiliser
chains, JSON, cycle notation). The normal-structure operators deliberately
work on exhaustive element lists: they are oracles, and at desk scale
certainty beats sophistication. An exhaustive closure cross-check of the
chain order is part of the test suite, not of construction.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import reduce
from types import SimpleNamespace

from . import cayley
from .errors import DegreeMismatch, LimitExceeded, NotTransitive
from .gf import is_prime

EXHAUSTIVE_ORDER_LIMIT = 20160
EXHAUSTIVE_DEGREE_LIMIT = 10
CONJUGACY_DEGREE_LIMIT = 8


class Perm:
    """A permutation of 1..n stored as the tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # internal products are permutations by construction; skip validation
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm._raw(tuple(range(1, degree + 1)))

    @staticmethod
    def from_code(code) -> "Perm":
        """The Perm of a code (0-based images), which is a permutation by
        construction."""
        return Perm._raw(tuple(i + 1 for i in code))

    def code(self) -> tuple[int, ...]:
        """The 0-based image tuple the subgroup kernel works on."""
        return tuple(i - 1 for i in self.images)

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b
            if cycle:
                images[cycle[-1] - 1] = cycle[0]
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot multiply permutations of different degrees")
        o = other.images
        return Perm._raw(tuple(o[i - 1] for i in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Perm._raw(tuple(inv))

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return self.inverse() ** (-e)
        result = Perm.identity(self.degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j + 1 for j, i in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc = [start]
            nxt = self.images[start - 1]
            while nxt != start:
                seen.add(nxt)
                cyc.append(nxt)
                nxt = self.images[nxt - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths > 1 in decreasing order (fingerprint use)."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        lengths = [len(c) for c in self.cycles()]
        return math.lcm(*lengths) if lengths else 1

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({cycle_string(self)!r}, degree={self.degree})"


def cycle_string(p: Perm) -> str:
    cyc = p.cycles()
    if not cyc:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


_CYCLE_RE = re.compile(r"\(([\d\s,]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse cycle notation like "(1 2 3)(4 5)" into a Perm."""
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        if body:
            cycles.append([int(x) for x in body])
    leftover = _CYCLE_RE.sub("", text).strip(" ,\t")
    if leftover:
        raise ValueError(f"cannot parse cycle notation {text!r}")
    points = [x for c in cycles for x in c]
    if points and min(points) < 1:
        raise ValueError("points must be >= 1")
    n = degree if degree is not None else max(points, default=1)
    if points and max(points) > n:
        raise ValueError(f"point {max(points)} exceeds degree {n}")
    return Perm.from_cycles(n, cycles)


def _first_moved(g: Perm) -> int:
    for p in range(1, g.degree + 1):
        if g.apply(p) != p:
            return p
    raise ValueError("identity has no moved point")


def _orbit_transversal(degree, point, gens):
    """BFS orbit of a point; transversal[q] maps point -> q. Deterministic."""
    ident = Perm.identity(degree)
    trans = {point: ident}
    queue = [point]
    i = 0
    while i < len(queue):
        pt = queue[i]
        i += 1
        for s in gens:
            q = s.apply(pt)
            if q not in trans:
                trans[q] = trans[pt] * s
                queue.append(q)
    return trans


def _schreier_sims(degree, gens, base_prefix=()):
    """Deterministic incremental Schreier-Sims.

    Returns (base, strong, transversals) where strong[i] lists the strong
    generators fixing base[:i] and transversals[i] is the orbit transversal
    of base[i] under <strong[i]>. Invariant on return: <strong[i+1]> is the
    stabiliser of base[i] in <strong[i]> (every Schreier generator sifts to
    the identity).
    """
    ident = Perm.identity(degree)
    gens = [g for g in dict.fromkeys(gens) if not g.is_identity()]
    base = [p for p in base_prefix]
    strong: list[list[Perm]] = [[] for _ in base]

    if not gens:
        transversals = [{b: ident} for b in base]
        return base, strong, transversals

    for g in gens:
        if all(g.apply(b) == b for b in base):
            base.append(_first_moved(g))
            strong.append([])
    strong = [[g for g in gens if all(g.apply(b) == b for b in base[:i])] for i in range(len(base))]
    transversals = [_orbit_transversal(degree, base[i], strong[i]) for i in range(len(base))]

    i = len(base) - 1
    while i >= 0:
        restart = False
        trans = transversals[i]
        for pt in sorted(trans):
            u = trans[pt]
            for s in strong[i]:
                img = s.apply(pt)
                schreier = u * s * trans[img].inverse()
                if schreier.is_identity():
                    continue
                # sift through the deeper levels
                h = schreier
                j = i + 1
                while j < len(base):
                    p = h.apply(base[j])
                    if p not in transversals[j]:
                        break
                    h = h * transversals[j][p].inverse()
                    if h.is_identity():
                        break
                    j += 1
                if h.is_identity():
                    continue
                if j == len(base):
                    base.append(_first_moved(h))
                    strong.append([])
                    transversals.append({})
                for level in range(i + 1, j + 1):
                    strong[level].append(h)
                    transversals[level] = _orbit_transversal(degree, base[level], strong[level])
                i = j
                restart = True
                break
            if restart:
                break
        if not restart:
            i -= 1
    return base, strong, transversals


class PermGroup:
    """Permutation group with exact order and membership via its chain."""

    def __init__(self, degree: int, generators, base_prefix=()):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        nontrivial = sorted(
            {g for g in generators if not g.is_identity()}, key=lambda g: g.images
        )
        self.generators = tuple(nontrivial)
        self._base, self._strong, self._transversals = _schreier_sims(
            degree, self.generators, base_prefix
        )
        self._elements: list[Perm] | None = None

    @property
    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._base)

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        h = g
        for i, b in enumerate(self._base):
            p = h.apply(b)
            if p not in self._transversals[i]:
                return False
            h = h * self._transversals[i][p].inverse()
            if h.is_identity():
                return True
        return h.is_identity()

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    def elements(self, limit: int = EXHAUSTIVE_ORDER_LIMIT) -> list[Perm]:
        """All elements, canonically sorted. Products of transversal maps."""
        if self._elements is None:
            if self.order > limit:
                raise LimitExceeded(f"order {self.order} exceeds exhaustive limit {limit}")
            levels = [
                [t[p] for p in sorted(t)] for t in reversed(self._transversals)
            ]
            if not levels:
                elems = [Perm.identity(self.degree)]
            else:
                elems = [
                    reduce(lambda a, b: a * b, combo)
                    for combo in itertools.product(*levels)
                ]
            elems.sort(key=lambda g: g.images)
            assert len(elems) == self.order
            self._elements = elems
        return list(self._elements)

    def codes(self, limit: int = EXHAUSTIVE_ORDER_LIMIT) -> list[tuple[int, ...]]:
        """The elements as codes, in the same canonical order."""
        return [g.code() for g in self.elements(limit)]

    # -- orbits, blocks ----------------------------------------------------

    def orbits(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            orbit = {start}
            queue = [start]
            while queue:
                pt = queue.pop()
                for g in self.generators:
                    q = g.apply(pt)
                    if q not in orbit:
                        orbit.add(q)
                        queue.append(q)
            seen |= orbit
            out.append(tuple(sorted(orbit)))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def minimal_block(self, a: int, b: int) -> frozenset[int]:
        """Smallest block of a G-invariant partition containing {a, b}."""
        parent = list(range(self.degree + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[ry] = rx
            for g in self.generators:
                stack.append((g.apply(rx), g.apply(ry)))
        root = find(a)
        return frozenset(p for p in range(1, self.degree + 1) if find(p) == root)

    def primitivity_block(self) -> frozenset[int] | None:
        """A nontrivial minimal block containing point 1, or None if primitive."""
        if not self.is_transitive():
            raise NotTransitive("primitivity is defined for transitive groups only")
        n = self.degree
        for b in range(2, n + 1):
            block = self.minimal_block(1, b)
            if 1 < len(block) < n:
                return block
        return None

    def is_primitive(self) -> bool:
        return self.primitivity_block() is None

    # -- stabilisers ---------------------------------------------------------

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing the point, from a chain based at that point."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range")
        rebased = PermGroup(self.degree, self.generators, base_prefix=(point,))
        stab_gens = rebased._strong[1] if len(rebased._base) > 1 else []
        return PermGroup(self.degree, stab_gens)


# ---------------------------------------------------------------------------
# element sets as codes, through the subgroup kernel (exhaustive, desk scale)


def _code_mul(a, b):
    return tuple(map(b.__getitem__, a))


def _code_inv(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def perm_ops(degree: int) -> SimpleNamespace:
    """Product, identity and inverse of S_degree on codes, as the subgroup
    kernel in cayley takes them. Products compose left to right, as Perm's
    do: mul(a, b) sends x to b[a[x]]."""
    return SimpleNamespace(mul=_code_mul, identity=tuple(range(degree)), inv=_code_inv)


def code_order(code) -> int:
    """Order of a code: the lcm of its cycle lengths."""
    order, seen = 1, bytearray(len(code))
    for start in range(len(code)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = code[x]
            length += 1
        if length > 1:
            order = math.lcm(order, length)
    return order


def fixed_point_free(code) -> bool:
    return all(map(operator.ne, code, range(len(code))))


def close_set(degree: int, seeds) -> frozenset[tuple]:
    """Subgroup generated by the seed codes, as a code set."""
    return cayley.subgroup_closure(perm_ops(degree), seeds)


def extend_set(
    degree: int, elems, gens, new_gen: tuple, cap: int | None = None
) -> frozenset[tuple] | None:
    """Code set of <elems, new_gen> for elems = <gens>; None once it exceeds
    a given cap."""
    return cayley.extend_subgroup(perm_ops(degree), elems, gens, new_gen, cap)


def greedy_generators(degree: int, elems) -> list[tuple]:
    """Small canonical generating list of a code set: scan it by decreasing
    order."""
    return cayley.greedy_generators(perm_ops(degree), elems, key=lambda c: (-code_order(c), c))


def group_from_set(degree: int, elems) -> PermGroup:
    """The PermGroup of a code set, on its greedy generators."""
    return PermGroup(degree, [Perm.from_code(c) for c in greedy_generators(degree, elems)])


def set_key(elems) -> tuple:
    """Canonical key of a code set."""
    return tuple(sorted(elems))


# ---------------------------------------------------------------------------
# conjugacy of subgroups inside S_n


def subgroup_conjugate(
    A: PermGroup, B: PermGroup, max_degree: int = CONJUGACY_DEGREE_LIMIT
) -> Perm | None:
    """Some x in S_n with A^x = B, or None if no such x exists.

    Fingerprint rejection (order, element cycle types) first, then a
    deterministic scan of S_n in lexicographic order. Every returned
    conjugator is verified on the generators.
    """
    if A.degree != B.degree:
        raise DegreeMismatch("conjugacy needs equal degrees")
    n = A.degree
    if n > max_degree:
        raise LimitExceeded(f"degree {n} exceeds conjugacy limit {max_degree}")
    if A.order != B.order:
        return None
    a_elems = A.elements()
    b_elems = B.elements()
    if sorted(g.cycle_type() for g in a_elems) != sorted(g.cycle_type() for g in b_elems):
        return None
    b_codes = set(B.codes())
    gens = greedy_generators(n, A.codes())
    if not gens:
        return Perm.identity(n)
    for x in itertools.permutations(range(n)):
        xi = _code_inv(x)
        # the conjugate x^-1 g x sends x[p] to x[g[p]]
        if all(_code_mul(_code_mul(xi, g), x) in b_codes for g in gens):
            return Perm.from_code(x)
    return None


# ---------------------------------------------------------------------------
# normal structure (exhaustive oracles)


def _check_exhaustive(G: PermGroup, limit: int):
    if G.degree > EXHAUSTIVE_DEGREE_LIMIT:
        raise LimitExceeded(
            f"degree {G.degree} exceeds exhaustive degree limit {EXHAUSTIVE_DEGREE_LIMIT}"
        )
    if G.order > limit:
        raise LimitExceeded(f"order {G.order} exceeds exhaustive limit {limit}")


def minimal_normal_subgroups(
    G: PermGroup, limit: int = EXHAUSTIVE_ORDER_LIMIT
) -> list[PermGroup]:
    """All minimal nontrivial normal subgroups.

    Candidates are normal closures of prime-order elements (every nontrivial
    normal subgroup contains one), reduced to the minimal members.
    """
    _check_exhaustive(G, limit)
    ops = perm_ops(G.degree)
    gens = [g.code() for g in G.generators]
    closures: dict[tuple, frozenset] = {}
    for g in G.codes(limit):
        if g == ops.identity or not is_prime(code_order(g)):
            continue
        clo = cayley.normal_closure(ops, [g], gens)[0]
        closures[set_key(clo)] = clo
    minimal = []
    for key, clo in closures.items():
        if any(other < clo for k2, other in closures.items() if k2 != key):
            continue
        minimal.append(clo)
    minimal.sort(key=set_key)
    return [group_from_set(G.degree, m) for m in minimal]


def fitting_subgroup(G: PermGroup, limit: int = EXHAUSTIVE_ORDER_LIMIT) -> PermGroup:
    """Largest nilpotent normal subgroup: join of the normal u-radicals."""
    _check_exhaustive(G, limit)
    gens = [g.code() for g in G.generators]
    fitting = cayley.fitting_subgroup(perm_ops(G.degree), G.codes(limit), gens)
    return group_from_set(G.degree, fitting)


# ---------------------------------------------------------------------------
# JSON wire format: {degree, generators: [[i1..in], ...]} with 1-based images


def permgroup_to_json(G: PermGroup) -> dict:
    return {"degree": G.degree, "generators": [list(g.images) for g in G.generators]}


def permgroup_from_json(obj) -> PermGroup:
    degree = int(obj["degree"])
    gens = [Perm(tuple(int(i) for i in images)) for images in obj["generators"]]
    return PermGroup(degree, gens)
