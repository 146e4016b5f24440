"""Matrix groups over GF(s).

Everything here is an exhaustive desk-scale oracle. mat_ops binds the subgroup
kernel in cayley to matrix codes, the entry tuples of Mat: closures
materialise the full element set, and the elementary abelian classification
is one lattice scan, with conjugacy classes taken as orbits under GL's
generators. Irreducibility is decided by spinning every line; conjugate_in_gl,
the independent conjugacy check, scans all of GL(alpha, s) in a fixed order.
Limits guard each entry point so a bad input fails fast instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from .cayley import (
    _abelian_of_exponent,
    _power,
    conjugation_orbit,
    greedy_generators,
    subgroup_closure,
    subgroup_lattice,
)
from .errors import (
    CharacteristicConflict,
    DegreeMismatch,
    FieldMismatch,
    LimitExceeded,
    NotPrime,
    SingularGenerator,
)
from .gf import FieldSpec, is_prime, multiplicative_order, prime_factors

GL_BRUTE_LIMIT = 1_000_000
SPIN_LIMIT = 10_000
CLOSURE_LIMIT = 100_000


@dataclass(frozen=True)
class Mat:
    """Square matrix over a FieldSpec, row-vector action v*M. The entries are
    field-element indices (FieldSpec.from_index), flat in row-major order."""

    spec: FieldSpec
    entries: tuple[int, ...]

    def __hash__(self):
        return hash(self.entries)

    @property
    def alpha(self) -> int:
        return math.isqrt(len(self.entries))

    @staticmethod
    def identity(alpha: int, spec: FieldSpec) -> "Mat":
        return Mat(spec, _identity_entries(alpha))

    @staticmethod
    def from_ints(spec: FieldSpec, entries) -> "Mat":
        """Rows of entries, each an int (k = 1) or a coefficient list."""
        rows = [list(row) for row in entries]
        if any(len(row) != len(rows) for row in rows):
            raise DegreeMismatch("matrix rows must have one entry per row")
        flat = []
        for e in itertools.chain.from_iterable(rows):
            coeffs = (e,) + (0,) * (spec.k - 1) if isinstance(e, int) else tuple(e)
            flat.append(spec.element(coeffs).index)
        return Mat(spec, tuple(flat))

    def __mul__(self, other: "Mat") -> "Mat":
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")
        if len(self.entries) != len(other.entries):
            raise DegreeMismatch("matrix dimensions differ")
        return Mat(self.spec, mat_ops(self.alpha, self.spec).mul(self.entries, other.entries))

    def __pow__(self, e: int) -> "Mat":
        if e < 0:
            return self.inverse() ** (-e)
        return Mat(self.spec, _power(mat_ops(self.alpha, self.spec), self.entries, e))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Row vector image v * M, on element indices."""
        tab = self.spec.tables
        n = len(vec)
        out = [0] * n
        for i, v in enumerate(vec):
            if v:
                mv = tab.mul[v]
                out = [tab.add[o][mv[x]] for o, x in zip(out, self.entries[i * n : i * n + n])]
        return tuple(out)

    def _rows(self) -> list[list[int]]:
        n = self.alpha
        return [list(self.entries[i : i + n]) for i in range(0, n * n, n)]

    def det(self) -> int:
        """Determinant as an element index; 0 exactly when singular."""
        tab = self.spec.tables
        work = self._rows()
        n = len(work)
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = tab.neg[det]
            det = tab.mul[det][work[col][col]]
            inv = tab.inv[work[col][col]]
            for r in range(col + 1, n):
                factor = tab.mul[work[r][col]][inv]
                if factor:
                    work[r] = _row_sub(tab, work[r], factor, work[col])
        return det

    def inverse(self) -> "Mat":
        tab = self.spec.tables
        n = self.alpha
        work = [a + b for a, b in zip(self._rows(), Mat.identity(n, self.spec)._rows())]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise SingularGenerator("matrix is not invertible")
            work[col], work[pivot] = work[pivot], work[col]
            inv = tab.mul[tab.inv[work[col][col]]]
            work[col] = [inv[a] for a in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    work[r] = _row_sub(tab, work[r], work[r][col], work[col])
        return Mat(self.spec, tuple(e for row in work for e in row[n:]))

    def is_identity(self) -> bool:
        return self.entries == _identity_entries(self.alpha)

    def order(self) -> int:
        return _code_order(mat_ops(self.alpha, self.spec), self.entries)

    def to_json(self) -> list:
        return [[list(self.spec.from_index(e).coeffs) for e in row] for row in self._rows()]


@lru_cache(maxsize=None)
def _identity_entries(alpha: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(alpha) for j in range(alpha))


def _row_sub(tab, row, factor, other) -> list[int]:
    """row - factor * other, entrywise on element indices."""
    mf = tab.mul[factor]
    return [tab.sub[a][mf[b]] for a, b in zip(row, other)]


@dataclass(frozen=True)
class MatGroup:
    """Matrix group with its full element set cached (desk scale)."""

    spec: FieldSpec
    alpha: int
    generators: tuple[Mat, ...]
    elements: tuple[Mat, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def gl_order(alpha: int, spec: FieldSpec) -> int:
    if alpha < 1:
        raise DegreeMismatch("alpha must be at least 1")
    s = spec.s
    n = 1
    for i in range(alpha):
        n *= s**alpha - s**i
    return n


def closure(gens, limit: int = CLOSURE_LIMIT) -> MatGroup:
    """Full element set of the generated group; order exact."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator to fix the field and dimension")
    spec, alpha = gens[0].spec, gens[0].alpha
    for g in gens:
        if g.spec != spec:
            raise FieldMismatch("generators over different fields")
        if g.alpha != alpha:
            raise DegreeMismatch("generators of different dimensions")
        if g.det() == 0:
            raise SingularGenerator("generator is singular")
    elems = subgroup_closure(mat_ops(alpha, spec), [g.entries for g in gens], cap=limit)
    if elems is None:
        raise LimitExceeded(f"closure exceeds {limit} elements")
    ordered = tuple(Mat(spec, c) for c in sorted(elems))
    canon_gens = tuple(sorted(dict.fromkeys(gens), key=lambda m: m.entries))
    return MatGroup(spec, alpha, canon_gens, ordered)


@lru_cache(maxsize=None)
def mat_ops(alpha: int, spec: FieldSpec) -> SimpleNamespace:
    """Product, identity and inverse of GL(alpha, s) on matrix codes, the
    entry tuples of Mat, as the subgroup kernel in cayley takes them. The
    product is the one Mat.__mul__ runs."""
    add, mul = spec.tables.add, spec.tables.mul
    # terms[k] lists, for each entry (i, j) of a product in row-major order,
    # the positions of a[i][k] and b[k][j] in the codes a and b
    idx = range(alpha)
    terms = [[(i * alpha + k, k * alpha + j) for i in idx for j in idx] for k in idx]

    def product(a, b):
        times_a = [mul[x] for x in a]  # the multiplication-table row of each entry
        out = [times_a[p][b[q]] for p, q in terms[0]]
        for term in terms[1:]:
            out = [add[acc][times_a[p][b[q]]] for acc, (p, q) in zip(out, term)]
        return tuple(out)

    def inverse(code):
        return Mat(spec, code).inverse().entries

    return SimpleNamespace(mul=product, identity=_identity_entries(alpha), inv=inverse)


def _code_order(ops, code) -> int:
    e, x = 1, code
    while x != ops.identity:
        x = ops.mul(x, code)
        e += 1
        if e > GL_BRUTE_LIMIT:
            raise LimitExceeded("element order exceeds scan limit")
    return e


def group_from_mats(alpha: int, spec: FieldSpec, codes) -> MatGroup:
    """The subgroup with the given matrix codes, generated by greedy
    generators taken in order of decreasing element order."""
    ops = mat_ops(alpha, spec)
    gens = greedy_generators(ops, codes, key=lambda c: (-_code_order(ops, c), c))
    return closure([Mat(spec, c) for c in gens] or [Mat.identity(alpha, spec)])


@lru_cache(maxsize=32)
def gl_elements(alpha: int, spec: FieldSpec, limit: int = GL_BRUTE_LIMIT) -> tuple[Mat, ...]:
    """All of GL(alpha, s) in row-major entry order (cached)."""
    if gl_order(alpha, spec) > limit:
        raise LimitExceeded(
            f"|GL({alpha}, {spec.s})| = {gl_order(alpha, spec)} exceeds brute-force limit {limit}"
        )
    candidates = (Mat(spec, flat) for flat in itertools.product(range(spec.s), repeat=alpha * alpha))
    return tuple(m for m in candidates if m.det())


@lru_cache(maxsize=32)
def gl_generators(alpha: int, spec: FieldSpec, limit: int) -> tuple:
    """Greedy generators of GL(alpha, s) as matrix codes, in entry order:
    orbits under conjugation by GL are orbits under these (cached)."""
    codes = [m.entries for m in gl_elements(alpha, spec, limit)]
    return tuple(greedy_generators(mat_ops(alpha, spec), codes))


# ---------------------------------------------------------------------------
# subspaces and irreducibility; vectors are tuples of element indices


def _lead(vec) -> int:
    return next(i for i, e in enumerate(vec) if e)


def _reduce_against(basis: list[tuple[int, ...]], vec, tab):
    """Reduce vec against an echelonised basis; returns the residue."""
    v = list(vec)
    for b in basis:
        lead = _lead(b)
        if v[lead]:
            v = _row_sub(tab, v, tab.mul[v[lead]][tab.inv[b[lead]]], b)
    return tuple(v)


def _basis_insert(basis: list, vec, tab) -> bool:
    res = _reduce_against(basis, vec, tab)
    if not any(res):
        return False
    basis.append(res)
    basis.sort(key=_lead)
    return True


def _lines(alpha: int, spec: FieldSpec):
    """One representative per 1-dimensional subspace: first nonzero entry is 1."""
    for lead in range(alpha):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(spec.s), repeat=alpha - lead - 1):
            yield prefix + tail


def is_irreducible(G: MatGroup, spin_limit: int = SPIN_LIMIT) -> bool:
    """No proper nonzero invariant subspace; every line is spun to check."""
    if G.spec.s**G.alpha > spin_limit:
        raise LimitExceeded(f"s^alpha = {G.spec.s ** G.alpha} exceeds spin limit {spin_limit}")
    if G.alpha == 1:
        return True
    tab = G.spec.tables
    for line in _lines(G.alpha, G.spec):
        basis: list = []
        _basis_insert(basis, line, tab)
        queue = [line]
        while queue and len(basis) < G.alpha:
            v = queue.pop()
            for g in G.generators:
                w = g.apply(v)
                if _basis_insert(basis, w, tab):
                    queue.append(w)
        if len(basis) < G.alpha:
            return False
    return True


# ---------------------------------------------------------------------------
# Singer subgroups: multiplication by a generator of GF(s^alpha)*.
# Polynomials over GF(s) are tuples of element indices, ascending degree.


def _ext_poly_mul(a, b, modulus, tab):
    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = tab.add[prod[i + j]][tab.mul[ai][bj]]
    return _ext_rem(prod, modulus, tab)


def _ext_rem(num, div, tab) -> tuple[int, ...]:
    """Remainder of num modulo the monic div, with deg div coefficients."""
    num, dd = list(num), len(div) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i]:
            num[i - dd : i + 1] = _row_sub(tab, num[i - dd : i + 1], num[i], div)
    return tuple(num[:dd])


@lru_cache(maxsize=32)
def _ext_modulus(spec: FieldSpec, degree: int):
    """Least monic irreducible degree-d polynomial over GF(s), high-to-low order."""
    tab = spec.tables
    for high_to_low in itertools.product(range(spec.s), repeat=degree):
        poly = high_to_low[::-1] + (1,)
        if not any(
            not any(_ext_rem(poly, lower + (1,), tab))
            for d in range(1, degree // 2 + 1)
            for lower in itertools.product(range(spec.s), repeat=d)
        ):
            return poly
    raise AssertionError("no irreducible polynomial over the base field; unreachable")


def singer_generator(alpha: int, spec: FieldSpec, spin_limit: int = SPIN_LIMIT) -> Mat:
    """Matrix of multiplication by a generator of GF(s^alpha)* on the
    canonical polynomial basis. Cyclic of order s^alpha - 1."""
    size = spec.s**alpha
    if size > spin_limit:
        raise LimitExceeded(f"s^alpha = {size} exceeds limit {spin_limit}")
    if alpha == 1:
        # GL(1, s): first generator of the multiplicative group
        for c in range(1, spec.s):
            if Mat(spec, (c,)).order() == spec.s - 1:
                return Mat(spec, (c,))
        raise AssertionError("multiplicative group of a field is cyclic; unreachable")
    tab = spec.tables
    modulus = _ext_modulus(spec, alpha)
    order = size - 1
    crit = [order // u for u in prime_factors(order)]
    ident = (1,) + (0,) * (alpha - 1)

    def ext_pow(g, e):
        result = ident
        base = g
        while e:
            if e & 1:
                result = _ext_poly_mul(result, base, modulus, tab)
            base = _ext_poly_mul(base, base, modulus, tab)
            e >>= 1
        return result

    gen = None
    for cand in itertools.product(range(spec.s), repeat=alpha):
        if any(cand) and all(ext_pow(cand, c) != ident for c in crit):
            gen = cand
            break
    assert gen is not None
    # row i is the coordinate vector of basis_i * gen
    entries = []
    basis_elem = ident
    x = (0, 1) + (0,) * (alpha - 2)
    for _ in range(alpha):
        entries += _ext_poly_mul(basis_elem, gen, modulus, tab)
        basis_elem = _ext_poly_mul(basis_elem, x, modulus, tab)
    return Mat(spec, tuple(entries))


def singer_subgroup(alpha: int, spec: FieldSpec, spin_limit: int = SPIN_LIMIT) -> MatGroup:
    return closure([singer_generator(alpha, spec, spin_limit)])


# ---------------------------------------------------------------------------
# the classified elementary abelian r-subgroups


def _embed_block(block: Mat, position: int, alpha: int) -> Mat:
    """Identity matrix with `block` placed on the diagonal at the position."""
    d = block.alpha
    entries = list(_identity_entries(alpha))
    for i in range(d):
        start = (position + i) * alpha + position
        entries[start : start + d] = block.entries[i * d : i * d + d]
    return Mat(block.spec, tuple(entries))


def maximal_ar_subgroup(alpha: int, spec: FieldSpec, r: int) -> MatGroup | None:
    """Block-diagonal (C_r)^k with k = floor(alpha / d), d = order of s mod r.

    None when k = 0. When d does not divide alpha the construction pads with
    an identity block; see classify_elem_abelian_r for the oracle that judges
    whether the result is a maximal class.
    """
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if r == spec.t:
        raise CharacteristicConflict(f"r = {r} equals the field characteristic")
    d = multiplicative_order(spec.s, r)
    k = alpha // d
    if k == 0:
        return None
    block = singer_generator(d, spec) ** ((spec.s**d - 1) // r)
    gens = [_embed_block(block, i * d, alpha) for i in range(k)]
    return closure(gens)


def conjugate_in_gl(A: MatGroup, B: MatGroup, limit: int = GL_BRUTE_LIMIT) -> Mat | None:
    """x in GL(alpha, s) with A^x = B, or None; deterministic full scan."""
    if A.spec != B.spec:
        raise FieldMismatch("groups over different fields")
    if A.alpha != B.alpha:
        raise DegreeMismatch("groups of different dimensions")
    if A.order != B.order:
        return None
    b_set = set(B.elements)
    for x in gl_elements(A.alpha, A.spec, limit):
        xinv = x.inverse()
        if all((xinv * g * x) in b_set for g in A.generators):
            return x
    return None


@lru_cache(maxsize=8)
def _elem_abelian_r_subgroups(alpha: int, spec: FieldSpec, r: int, limit: int):
    """The nontrivial elementary abelian r-subgroups of GL(alpha, s), as a
    dict from matrix-code frozensets to the generators the lattice scan built
    them from, and the list of those maximal among them. Cached: both
    classifications read the same scan."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if r == spec.t:
        raise CharacteristicConflict(f"r = {r} equals the field characteristic")
    ops = mat_ops(alpha, spec)
    mul, ident = ops.mul, ops.identity
    codes = (m.entries for m in gl_elements(alpha, spec, limit))
    order_r = [c for c in codes if c != ident and _power(ops, c, r) == ident]
    # an r-subgroup has at most the r-part of |GL| elements (Lagrange); a
    # nonabelian subgroup has only nonabelian overgroups
    r_part = r ** prime_factors(gl_order(alpha, spec)).get(r, 0)
    lattice = subgroup_lattice(ops, order_r, r_part, lambda sub: _abelian_of_exponent(ops, sub, r))
    del lattice[frozenset({ident})]
    # maximal iff no order-r element outside commutes with the generators
    maximal = [
        sub
        for sub, gens in lattice.items()
        if not any(
            y not in sub and all(mul(y, g) == mul(g, y) for g in gens) for y in order_r
        )
    ]
    return lattice, maximal


def _class_reps(alpha: int, spec: FieldSpec, subgroups, limit: int) -> list[MatGroup]:
    """One representative per GL-conjugacy class of the given subgroups
    (matrix-code frozensets, a union of classes), canonically ordered. Each
    class is the orbit of one member under conjugation by GL's generators,
    and its representative the least member by generators."""
    ops = mat_ops(alpha, spec)
    gl_gens = gl_generators(alpha, spec, limit)

    def gens_key(g):
        return tuple(m.entries for m in g.generators)

    reps, pending = [], set(subgroups)
    for sub in subgroups:
        if sub in pending:
            orbit = conjugation_orbit(ops, sub, gl_gens)
            pending.difference_update(orbit)
            reps.append(min((group_from_mats(alpha, spec, s) for s in orbit), key=gens_key))
    reps.sort(key=lambda g: (g.order, gens_key(g)))
    return reps


def classify_elem_abelian_r(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """One representative per conjugacy class of subgroups maximal among the
    elementary abelian r-subgroups of GL(alpha, s), canonically ordered."""
    _, maximal = _elem_abelian_r_subgroups(alpha, spec, r, limit)
    return _class_reps(alpha, spec, maximal, limit)


def irreducible_elem_abelian_r_classes(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """Conjugacy classes of nontrivial irreducible elementary abelian
    r-subgroups (the single-class claim oracle). Irreducibility is a class
    invariant, so one test per class suffices."""
    lattice, _ = _elem_abelian_r_subgroups(alpha, spec, r, limit)
    return [g for g in _class_reps(alpha, spec, lattice, limit) if is_irreducible(g)]


# ---------------------------------------------------------------------------
# JSON wire format


def matgroup_to_json(G: MatGroup) -> dict:
    return {
        "field": G.spec.to_json(),
        "alpha": G.alpha,
        "generators": [g.to_json() for g in G.generators],
    }


def matgroup_from_json(obj) -> MatGroup:
    spec = FieldSpec.from_json(obj["field"])
    alpha = int(obj["alpha"])
    gens = []
    for g in obj["generators"]:
        if len(g) != alpha:
            raise DegreeMismatch("generator has the wrong dimension")
        gens.append(Mat.from_ints(spec, g))
    return closure(gens)
