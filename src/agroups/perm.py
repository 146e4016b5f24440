"""Permutation group engine.

Points are labelled 1..n at the edges. Products compose left to right:
``(a * b)`` sends x to b(a(x)), so x^(ab) = (x^a)^b.

Below the edges a permutation is its code: the tuple of its 0-based point
images, multiplied by one C-level map and hashed and compared as a plain
tuple. perm_ops binds the subgroup kernel in cayley to codes. A Perm wraps
one code: its product, inverse, power and order are the kernel's, and its
1-based images, cycle notation and JSON are derived from the code. A code
sorts exactly as its 1-based images do, so every canonical order is the same
in both forms.

A PermGroup keeps its generators as codes and carries a base and strong
generating set built with a deterministic incremental Schreier-Sims on codes,
which gives exact orders and membership without listing elements.
Element-set work (closures, extensions, generators, normal closures, the
Fitting subgroup, the census lattice scans, conjugacy) runs on the subgroup
kernel. The normal-structure operators deliberately work on exhaustive
element lists: they are oracles, and at desk scale certainty beats
sophistication. An exhaustive closure cross-check of the chain order is part
of the test suite, not of construction.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import lru_cache
from types import SimpleNamespace

from . import cayley
from .errors import DegreeMismatch, LimitExceeded, NotTransitive
from .gf import is_prime

EXHAUSTIVE_ORDER_LIMIT = 20160
EXHAUSTIVE_DEGREE_LIMIT = 10
CONJUGACY_DEGREE_LIMIT = 8


class Perm:
    """A permutation of 1..n, stored as its code (0-based point images)."""

    __slots__ = ("_code",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self._code = tuple(i - 1 for i in images)

    @staticmethod
    def from_code(code) -> "Perm":
        """The Perm of a code, which is a permutation by construction."""
        p = object.__new__(Perm)
        p._code = tuple(code)
        return p

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm.from_code(perm_ops(degree).identity)

    def code(self) -> tuple[int, ...]:
        """The 0-based image tuple the subgroup kernel works on."""
        return self._code

    @property
    def images(self) -> tuple[int, ...]:
        """The 1-based point images."""
        return tuple(i + 1 for i in self._code)

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
        return len(self._code)

    def apply(self, point: int) -> int:
        return self._code[point - 1] + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self._code) != len(other._code):
            raise DegreeMismatch("cannot multiply permutations of different degrees")
        return Perm.from_code(perm_ops(self.degree).mul(self._code, other._code))

    def inverse(self) -> "Perm":
        return Perm.from_code(perm_ops(self.degree).inv(self._code))

    def __pow__(self, e: int) -> "Perm":
        ops = perm_ops(self.degree)
        base = self._code if e >= 0 else ops.inv(self._code)
        return Perm.from_code(cayley._power(ops, base, abs(e)))

    def is_identity(self) -> bool:
        return self._code == perm_ops(self.degree).identity

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        return [tuple(p + 1 for p in c) for c in _cycles(self._code)]

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths > 1 in decreasing order (fingerprint use)."""
        return _cycle_type(self._code)

    def order(self) -> int:
        return code_order(self._code)

    def __eq__(self, other):
        return isinstance(other, Perm) and self._code == other._code

    def __hash__(self):
        return hash(self._code)

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


# ---------------------------------------------------------------------------
# stabiliser chains on codes; base points are 0-based


def _orbit_transversal(ops, point, gens):
    """BFS orbit of a point; transversal[q] maps point -> q. Deterministic."""
    trans = {point: ops.identity}
    queue = [point]
    for pt in queue:  # queue grows by each newly reached point
        for s in gens:
            q = s[pt]
            if q not in trans:
                trans[q] = ops.mul(trans[pt], s)
                queue.append(q)
    return trans


def _sift(ops, h, base, transversals, start=0):
    """Sift h through the chain from level start. Returns the residue and the
    level where sifting stopped; h is in the chain's group iff the residue is
    the identity."""
    for j in range(start, len(base)):
        if h == ops.identity:
            return h, j
        t = transversals[j].get(h[base[j]])
        if t is None:
            return h, j
        h = ops.mul(h, ops.inv(t))
    return h, len(base)


def _schreier_sims(degree, gens, base_prefix=()):
    """Deterministic incremental Schreier-Sims on codes.

    Returns (base, strong, transversals) where strong[i] lists the strong
    generators fixing base[:i] and transversals[i] is the orbit transversal
    of base[i] under <strong[i]>. Invariant on return: <strong[i+1]> is the
    stabiliser of base[i] in <strong[i]> (every Schreier generator sifts to
    the identity).
    """
    ops = perm_ops(degree)
    mul, inv, ident = ops.mul, ops.inv, ops.identity
    gens = [g for g in dict.fromkeys(gens) if g != ident]
    base = list(base_prefix)
    if not gens:
        return base, [[] for _ in base], [{b: ident} for b in base]

    for g in gens:
        if all(g[b] == b for b in base):
            base.append(next(p for p, q in enumerate(g) if p != q))
    strong = [[g for g in gens if all(g[b] == b for b in base[:i])] for i in range(len(base))]
    transversals = [_orbit_transversal(ops, base[i], strong[i]) for i in range(len(base))]

    def unsifted(i):
        """The residue and stopping level of the first Schreier generator of
        level i that does not sift to the identity, or None."""
        trans = transversals[i]
        for pt in sorted(trans):
            for s in strong[i]:
                schreier = mul(mul(trans[pt], s), inv(trans[s[pt]]))
                h, j = _sift(ops, schreier, base, transversals, i + 1)
                if h != ident:
                    return h, j
        return None

    i = len(base) - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            base.append(next(p for p, q in enumerate(h) if p != q))
            strong.append([])
            transversals.append({})
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            transversals[level] = _orbit_transversal(ops, base[level], strong[level])
        i = j
    return base, strong, transversals


class PermGroup:
    """Permutation group with exact order and membership via its chain.

    Generators are Perms or codes; the group keeps them as codes. base_prefix
    lists 1-based points the base starts with."""

    def __init__(self, degree: int, generators, base_prefix=()):
        codes = [g.code() if isinstance(g, Perm) else tuple(g) for g in generators]
        for c in codes:
            if len(c) != degree:
                raise DegreeMismatch(f"generator degree {len(c)} != {degree}")
        self.degree = degree
        identity = perm_ops(degree).identity
        self._gens = tuple(sorted({c for c in codes if c != identity}))
        self._base, self._strong, self._transversals = _schreier_sims(
            degree, self._gens, [p - 1 for p in base_prefix]
        )
        self._codes: list[tuple[int, ...]] | None = None

    @property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(map(Perm.from_code, self._gens))

    @property
    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    @property
    def ops(self) -> SimpleNamespace:
        return perm_ops(self.degree)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(b + 1 for b in self._base)

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        ops = perm_ops(self.degree)
        return _sift(ops, g.code(), self._base, self._transversals)[0] == ops.identity

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    def codes(self) -> list[tuple[int, ...]]:
        """All elements as codes, canonically sorted: the products of one
        transversal map per level, deepest level first."""
        if self._codes is None:
            if self.order > EXHAUSTIVE_ORDER_LIMIT:
                raise LimitExceeded(
                    f"order {self.order} exceeds exhaustive limit {EXHAUSTIVE_ORDER_LIMIT}"
                )
            ops = perm_ops(self.degree)
            codes = [ops.identity]
            for trans in reversed(self._transversals):
                codes = [ops.mul(a, u) for a in codes for u in trans.values()]
            self._codes = sorted(codes)
        return list(self._codes)

    def elements(self) -> list[Perm]:
        """All elements, in the canonical order of codes()."""
        return [Perm.from_code(c) for c in self.codes()]

    # -- orbits, blocks ----------------------------------------------------

    def orbits(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            orbit = {start}
            queue = [start]
            while queue:
                pt = queue.pop()
                for g in self._gens:
                    q = g[pt]
                    if q not in orbit:
                        orbit.add(q)
                        queue.append(q)
            seen |= orbit
            out.append(tuple(sorted(p + 1 for p in orbit)))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def minimal_block(self, a: int, b: int) -> frozenset[int]:
        """Smallest block of a G-invariant partition containing {a, b}."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        stack = [(a - 1, b - 1)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[ry] = rx
            stack += [(g[rx], g[ry]) for g in self._gens]
        root = find(a - 1)
        return frozenset(p + 1 for p in range(self.degree) if find(p) == root)

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
        rebased = PermGroup(self.degree, self._gens, base_prefix=(point,))
        stab_gens = rebased._strong[1] if len(rebased._base) > 1 else []
        return PermGroup(self.degree, stab_gens)


# ---------------------------------------------------------------------------
# element sets as codes, through the subgroup kernel (exhaustive, desk scale)


def _code_mul(a, b):
    return tuple(map(b.__getitem__, a))


def _code_inv(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


@lru_cache(maxsize=None)
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


def _cycles(code) -> list[list[int]]:
    """The cycles of a code longer than one point, 0-based, each starting at
    its least point, in order of that point."""
    seen, out = bytearray(len(code)), []
    for start, image in enumerate(code):
        if seen[start] or image == start:
            continue
        cycle, x = [start], image
        while x != start:
            seen[x] = 1
            cycle.append(x)
            x = code[x]
        out.append(cycle)
    return out


def _cycle_type(code) -> tuple[int, ...]:
    return tuple(sorted(map(len, _cycles(code)), reverse=True))


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
    return PermGroup(degree, greedy_generators(degree, elems))


def set_key(elems) -> tuple:
    """Canonical key of a code set."""
    return tuple(sorted(elems))


# ---------------------------------------------------------------------------
# conjugacy of subgroups inside S_n


def subgroup_conjugate(A: PermGroup, B: PermGroup) -> Perm | None:
    """Some x in S_n with A^x = B, or None if no such x exists.

    Fingerprint rejection (order, element cycle types) first, then the first
    x of S_n in lexicographic order that conjugates A's greedy generators
    into B.
    """
    if A.degree != B.degree:
        raise DegreeMismatch("conjugacy needs equal degrees")
    n = A.degree
    if n > CONJUGACY_DEGREE_LIMIT:
        raise LimitExceeded(f"degree {n} exceeds conjugacy limit {CONJUGACY_DEGREE_LIMIT}")
    if A.order != B.order:
        return None
    a_codes, b_codes = A.codes(), B.codes()
    if sorted(map(_cycle_type, a_codes)) != sorted(map(_cycle_type, b_codes)):
        return None
    x = cayley.first_conjugator(
        perm_ops(n),
        itertools.permutations(range(n)),
        greedy_generators(n, a_codes),
        set(b_codes),
    )
    return None if x is None else Perm.from_code(x)


# ---------------------------------------------------------------------------
# normal structure (exhaustive oracles)


def _check_exhaustive(G: PermGroup):
    if G.degree > EXHAUSTIVE_DEGREE_LIMIT:
        raise LimitExceeded(
            f"degree {G.degree} exceeds exhaustive degree limit {EXHAUSTIVE_DEGREE_LIMIT}"
        )


def minimal_normal_subgroups(G: PermGroup) -> list[PermGroup]:
    """All minimal nontrivial normal subgroups.

    Candidates are normal closures of prime-order elements (every nontrivial
    normal subgroup contains one), reduced to the minimal members.
    """
    _check_exhaustive(G)
    ops = perm_ops(G.degree)
    closures: dict[tuple, frozenset] = {}
    for g in G.codes():
        if g == ops.identity or not is_prime(code_order(g)):
            continue
        clo = cayley.normal_closure(ops, [g], G._gens)[0]
        closures[set_key(clo)] = clo
    minimal = []
    for key, clo in closures.items():
        if any(other < clo for k2, other in closures.items() if k2 != key):
            continue
        minimal.append(clo)
    minimal.sort(key=set_key)
    return [group_from_set(G.degree, m) for m in minimal]


def fitting_subgroup(G: PermGroup) -> PermGroup:
    """Largest nilpotent normal subgroup: join of the normal u-radicals."""
    _check_exhaustive(G)
    fitting = cayley.fitting_subgroup(perm_ops(G.degree), G.codes(), G._gens)
    return group_from_set(G.degree, fitting)


# ---------------------------------------------------------------------------
# JSON wire format: {degree, generators: [[i1..in], ...]} with 1-based images


def permgroup_to_json(G: PermGroup) -> dict:
    return {"degree": G.degree, "generators": [list(g.images) for g in G.generators]}


def permgroup_from_json(obj) -> PermGroup:
    degree = int(obj["degree"])
    gens = [Perm(tuple(int(i) for i in images)) for images in obj["generators"]]
    return PermGroup(degree, gens)
