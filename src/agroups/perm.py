"""Permutation group engine.

A permutation of the points 1..n is its code: the tuple of its 0-based point
images, multiplied by one C-level map and hashed and compared as a plain
tuple. perm_ops binds the subgroup kernel in cayley to codes. Products
compose left to right: mul(a, b) sends x to b[a[x]], so x^(ab) = (x^a)^b.
Points are 1-based only at the edges: cycle notation, blocks and the JSON
wire format. A code sorts exactly as its 1-based images do, so every
canonical order is the same in both forms. The input formats refuse a degree
above TABLE_LIMIT before any code is built.

A PermGroup is a code set, as a MatGroup is: its degree, its sorted
generators and its sorted element codes, with its order their number. A
group that arrives as generators (an input, a construction) is closed by
the subgroup kernel on first use, and the closure is refused as soon as it
passes its cap: the table limit where the Theorem B checks build a table,
the exhaustive limit elsewhere. A group made from a code set
(group_from_set, the inventory representatives) keeps that set and is never
closed again. Blocks need the generators only, so an imprimitive input is
refused as such before any closure, whatever its order. A subgroup stays a
code set on the subgroup kernel (closures, extensions, generators, normal
closures, the wreath products' lattice scans, conjugacy) unless a listed
group becomes a table (cayley.table_group), as the group under the Theorem
B checks does, so the kernel runs on its indices; the normal structure
(minimal normal subgroups, the Fitting subgroup) is read off such a table
by exhaustive element scans. A stabiliser chain, the
oracle for exact orders past the exhaustive limit, lives in the tests.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from types import SimpleNamespace

from . import cayley
from .cayley import TABLE_LIMIT, subgroup_closure
from .errors import DegreeMismatch, LimitExceeded, NotTransitive

EXHAUSTIVE_ORDER_LIMIT = 20160
CONJUGACY_DEGREE_LIMIT = 8


_CYCLE_RE = re.compile(r"\(([\d\s,]*)\)")


def _check_input_degree(degree: int):
    """The input formats carry groups to verify-primitive, which lists their
    elements only up to TABLE_LIMIT; a primitive group is transitive, so its
    order is a multiple of its degree."""
    if degree > TABLE_LIMIT:
        raise LimitExceeded(
            f"degree {degree} exceeds the table limit {TABLE_LIMIT}:"
            " a primitive group's order is a multiple of its degree"
        )


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """The code of disjoint cycles like "(1 2 3)(4 5)" on the points 1..degree
    (by default the largest point named, at least 1)."""
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        if body:
            cycles.append([int(x) - 1 for x in body])
    leftover = _CYCLE_RE.sub("", text).strip(" ,\t")
    if leftover:
        raise ValueError(f"cannot parse cycle notation {text!r}")
    points = [x for c in cycles for x in c]
    if points and min(points) < 0:
        raise ValueError("points must be >= 1")
    if len(set(points)) != len(points):
        repeated = next(x for x in points if points.count(x) > 1)
        raise ValueError(f"point {repeated + 1} appears twice in {text!r}: cycles must be disjoint")
    n = degree if degree is not None else max(points, default=0) + 1
    _check_input_degree(n)
    if points and max(points) >= n:
        raise ValueError(f"point {max(points) + 1} exceeds degree {n}")
    code = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            code[a] = b
    return tuple(code)


# ---------------------------------------------------------------------------
# groups as code sets


class PermGroup:
    """Permutation group as a code set: its generators, sorted, without the
    identity or repeats, and its sorted element codes. Without codes, the
    elements are the kernel's closure of the generators, taken on first use
    and kept once complete."""

    def __init__(self, degree: int, generators, codes=None):
        gens = [tuple(g) for g in generators]
        for c in gens:
            if len(c) != degree:
                raise DegreeMismatch(f"generator degree {len(c)} != {degree}")
        self.degree = degree
        identity = perm_ops(degree).identity
        self.generators = tuple(sorted({c for c in gens if c != identity}))
        self._codes = None if codes is None else tuple(sorted(codes))

    def _closure(self, cap: int) -> tuple:
        if self._codes is None:
            elems = subgroup_closure(self.ops, self.generators, cap)
            if elems is not None:
                self._codes = tuple(sorted(elems))
        if self._codes is None or len(self._codes) > cap:
            limit = "table" if cap == TABLE_LIMIT else "exhaustive"
            raise LimitExceeded(f"order above the {limit} limit {cap}")
        return self._codes

    @property
    def order(self) -> int:
        return len(self._closure(EXHAUSTIVE_ORDER_LIMIT))

    @property
    def ops(self) -> SimpleNamespace:
        return perm_ops(self.degree)

    def codes(self, cap: int = EXHAUSTIVE_ORDER_LIMIT) -> list:
        """All elements as codes, sorted; LimitExceeded once the closure
        passes cap, TABLE_LIMIT or EXHAUSTIVE_ORDER_LIMIT."""
        return list(self._closure(cap))

    def primitivity_block(self) -> frozenset[int] | None:
        """A nontrivial minimal block containing point 1, or None if primitive."""
        return primitivity_block(self.degree, self.generators)

    def is_primitive(self) -> bool:
        return self.primitivity_block() is None


# ---------------------------------------------------------------------------
# blocks on generators alone


def minimal_block(degree: int, gens, a: int, b: int) -> frozenset[int]:
    """Smallest block of a <gens>-invariant partition of the points 1..degree
    containing {a, b}: the union-find closure of the pair under gens."""
    parent = list(range(degree))

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
        stack += [(g[rx], g[ry]) for g in gens]
    root = find(a - 1)
    return frozenset(p + 1 for p in range(degree) if find(p) == root)


def primitivity_block(degree: int, gens) -> frozenset[int] | None:
    """A nontrivial minimal block containing point 1 of the transitive group
    <gens>, or None if it is primitive. It needs the generator codes only:
    the orbit of point 1 shows transitivity."""
    orbit = {0}
    queue = [0]
    for pt in queue:  # queue grows by each newly reached point
        for g in gens:
            if g[pt] not in orbit:
                orbit.add(g[pt])
                queue.append(g[pt])
    if len(orbit) != degree:
        raise NotTransitive("primitivity is defined for transitive groups only")
    for b in range(2, degree + 1):
        block = minimal_block(degree, gens, 1, b)
        if 1 < len(block) < degree:
            return block
    return None


# ---------------------------------------------------------------------------
# element sets as codes, through the subgroup kernel (exhaustive, desk scale)


def _code_mul(a, b):
    return tuple(map(b.__getitem__, a))


def _code_inv(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


@lru_cache(maxsize=None)
def perm_ops(degree: int) -> SimpleNamespace:
    """Product, identity and inverse of S_degree on codes, as the subgroup
    kernel in cayley takes them. Products compose left to right: mul(a, b)
    sends x to b[a[x]]."""
    return SimpleNamespace(mul=_code_mul, identity=tuple(range(degree)), inv=_code_inv)


def _cycle_type(code) -> tuple[int, ...]:
    """The lengths of the cycles of a code longer than one point, decreasing."""
    lengths, seen = [], bytearray(len(code))
    for start in range(len(code)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = code[x]
            length += 1
        if length > 1:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def extend_set(
    degree: int, elems, gens, new_gen: tuple, cap: int | None = None
) -> frozenset[tuple] | None:
    """Code set of <elems, new_gen> for elems = <gens>; None once it exceeds
    a given cap."""
    return cayley.extend_subgroup(perm_ops(degree), elems, gens, new_gen, cap)


def group_from_set(degree: int, elems) -> PermGroup:
    """The PermGroup of a code set, on its canonical generators; the set is
    kept, so it is never closed again."""
    return PermGroup(degree, cayley.canonical_generators(perm_ops(degree), elems), elems)


def set_key(elems) -> tuple:
    """Canonical key of a code set."""
    return tuple(sorted(elems))


# ---------------------------------------------------------------------------
# conjugacy of subgroups inside S_n


def subgroup_conjugate(A: PermGroup, B: PermGroup) -> tuple[int, ...] | None:
    """The code of some x in S_n with A^x = B, or None if no such x exists.

    Fingerprint rejection (order, element cycle types) first, then the first
    x of S_n in lexicographic order that conjugates A's generators into B.
    Given |A| = |B|, that x is the same for every generating set of A.
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
    return cayley.first_conjugator(
        perm_ops(n), itertools.permutations(range(n)), A.generators, set(b_codes)
    )


# ---------------------------------------------------------------------------
# JSON wire format: {degree, generators: [[i1..in], ...]} with 1-based images


def permgroup_to_json(G: PermGroup) -> dict:
    return {"degree": G.degree, "generators": [[i + 1 for i in g] for g in G.generators]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def permgroup_from_json(obj) -> PermGroup:
    """The group of the wire format; ValueError unless the degree is an
    integer and each generator a list of the integers 1..n in some order."""
    if not isinstance(obj, dict):
        raise ValueError("a group is a JSON object with a degree and generators")
    degree, gens = obj["degree"], obj["generators"]
    if not _is_int(degree):
        raise ValueError("the degree must be an integer")
    _check_input_degree(degree)
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and all(map(_is_int, g)) for g in gens
    ):
        raise ValueError("the generators must be lists of integers")
    for images in gens:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {tuple(images)}")
    return PermGroup(degree, [[i - 1 for i in images] for images in gens])
