"""Matrix groups over GF(s).

Everything here is an exhaustive desk-scale oracle. Below the public edges a
matrix is its code, the flat row-major tuple of field-element indices that
Mat.entries holds, and mat_ops binds the subgroup kernel in cayley to codes.
A Mat wraps one code for callers; a MatGroup keeps its generators and its
sorted elements as codes and builds Mats only in its generators and elements
properties. Closures materialise the full element set. The elementary
abelian classification is one class scan of the subgroup lattice under GL's
generators: one subgroup per GL-class is extended, tested for maximality and
made a MatGroup. Every product of two matrices runs through one function per
dimension and field, straight-line source compiled on first use against the
field's index tables. GL(alpha, s) is enumerated row by row, each row outside
the span of the rows above it, so listing it costs work in proportion to
|GL|, not s^(alpha^2) determinants. Irreducibility is decided by spinning
every line; conjugate_in_gl, the independent conjugacy check, runs the
kernel's conjugator scan over all of GL(alpha, s) in entry order. Limits
guard each entry point so a bad input fails fast instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

from .bounds import printable
from .cayley import (
    _abelian_of_exponent,
    _power,
    first_conjugator,
    greedy_generators,
    subgroup_closure,
    subgroup_lattice,
)
from .errors import (
    CharacteristicConflict,
    DegreeMismatch,
    FieldMismatch,
    InvalidParams,
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
        return mat_ops(self.alpha, self.spec).apply(self.entries, vec)

    def inverse(self) -> "Mat":
        return Mat(self.spec, _code_inverse(self.spec.tables, self.alpha, self.entries))

    def is_identity(self) -> bool:
        return self.entries == _identity_entries(self.alpha)

    def order(self) -> int:
        return _code_order(mat_ops(self.alpha, self.spec), self.entries)

    def to_json(self) -> list:
        n = self.alpha
        rows = [self.entries[i : i + n] for i in range(0, n * n, n)]
        return [[list(self.spec.from_index(e).coeffs) for e in row] for row in rows]


@lru_cache(maxsize=None)
def _identity_entries(alpha: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(alpha) for j in range(alpha))


def _code_inverse(tab, alpha: int, code) -> tuple[int, ...]:
    """The inverse of a matrix code, by Gauss-Jordan elimination of [M | I]."""
    ident = _identity_entries(alpha)
    rows = range(0, alpha * alpha, alpha)
    work = [list(code[i : i + alpha] + ident[i : i + alpha]) for i in rows]
    for col in range(alpha):
        pivot = next((r for r in range(col, alpha) if work[r][col]), None)
        if pivot is None:
            raise SingularGenerator("matrix is not invertible")
        work[col], work[pivot] = work[pivot], work[col]
        inv = tab.mul[tab.inv[work[col][col]]]
        work[col] = [inv[a] for a in work[col]]
        for r in range(alpha):
            if r != col and work[r][col]:
                work[r] = _row_sub(tab, work[r], work[r][col], work[col])
    return tuple(e for row in work for e in row[alpha:])


def _code_apply(tab, code, vec) -> tuple[int, ...]:
    """Row vector image v * M of a matrix code, on element indices."""
    n = len(vec)
    out = [0] * n
    for i, v in enumerate(vec):
        if v:
            mv = tab.mul[v]
            out = [tab.add[o][mv[x]] for o, x in zip(out, code[i * n : i * n + n])]
    return tuple(out)


def _row_sub(tab, row, factor, other) -> list[int]:
    """row - factor * other, entrywise on element indices."""
    mf = tab.mul[factor]
    return [tab.sub[a][mf[b]] for a, b in zip(row, other)]


@dataclass(frozen=True)
class MatGroup:
    """Matrix group with its full element set cached (desk scale). It keeps
    its canonical generators and its sorted elements as matrix codes."""

    spec: FieldSpec
    alpha: int
    _gens: tuple[tuple[int, ...], ...]
    _codes: tuple[tuple[int, ...], ...]

    @property
    def generators(self) -> tuple[Mat, ...]:
        return tuple(Mat(self.spec, c) for c in self._gens)

    @property
    def elements(self) -> tuple[Mat, ...]:
        return tuple(Mat(self.spec, c) for c in self._codes)

    @property
    def order(self) -> int:
        return len(self._codes)

    @property
    def ops(self) -> SimpleNamespace:
        return mat_ops(self.alpha, self.spec)

    def codes(self) -> tuple[tuple[int, ...], ...]:
        """All elements as matrix codes, sorted."""
        return self._codes


def gl_order(alpha: int, spec: FieldSpec) -> int:
    if alpha < 1:
        raise DegreeMismatch("alpha must be at least 1")
    s = spec.s
    n = 1
    for i in range(alpha):
        n *= s**alpha - s**i
    return n


def closure(gens) -> MatGroup:
    """Full element set of the group generated by Mats; order exact."""
    gens = list(gens)
    if not gens:
        raise InvalidParams("need at least one generator to fix the field and dimension")
    spec, alpha = gens[0].spec, gens[0].alpha
    for g in gens:
        if g.spec != spec:
            raise FieldMismatch("generators over different fields")
        if g.alpha != alpha:
            raise DegreeMismatch("generators of different dimensions")
        _code_inverse(spec.tables, alpha, g.entries)  # SingularGenerator if singular
    return _group(alpha, spec, [g.entries for g in gens])


def _group(alpha: int, spec: FieldSpec, gens) -> MatGroup:
    """The MatGroup generated by invertible matrix codes."""
    elems = subgroup_closure(mat_ops(alpha, spec), gens, cap=CLOSURE_LIMIT)
    if elems is None:
        raise LimitExceeded(f"closure exceeds {CLOSURE_LIMIT} elements")
    return MatGroup(spec, alpha, tuple(sorted(set(gens))), tuple(sorted(elems)))


@lru_cache(maxsize=None)
def mat_ops(alpha: int, spec: FieldSpec) -> SimpleNamespace:
    """Product, identity and inverse of GL(alpha, s) on matrix codes, the
    entry tuples of Mat, as the subgroup kernel in cayley takes them.

    The product, the one Mat.__mul__ runs, is straight-line source built from
    alpha alone in the manner of collections.namedtuple and run against the
    field's add/mul tables: both codes are unpacked into locals, the
    multiplication-table row of each entry of a is looked up once, and entry
    (i, j) is the add-chain of the alpha products a[i][k] * b[k][j]. apply
    maps a row vector of element indices through a code, v * M."""
    if alpha < 1:
        raise DegreeMismatch("alpha must be at least 1")
    cells = range(alpha * alpha)
    entries = []
    for i in range(alpha):
        for j in range(alpha):
            acc = f"m{i * alpha}[b{j}]"
            for k in range(1, alpha):
                acc = f"add[{acc}][m{i * alpha + k}[b{k * alpha + j}]]"
            entries.append(acc)
    source = "\n".join(
        [
            "def product(a, b):",
            f"    {', '.join(f'a{p}' for p in cells)}, = a",
            f"    {', '.join(f'b{p}' for p in cells)}, = b",
            *(f"    m{p} = mul[a{p}]" for p in cells),
            f"    return ({', '.join(entries)},)",
        ]
    )
    namespace = {"add": spec.tables.add, "mul": spec.tables.mul}
    exec(compile(source, f"<matrix product, alpha={alpha}>", "exec"), namespace)

    return SimpleNamespace(
        mul=namespace["product"],
        identity=_identity_entries(alpha),
        inv=partial(_code_inverse, spec.tables, alpha),
        apply=partial(_code_apply, spec.tables),
    )


def _code_order(ops, code) -> int:
    e, x = 1, code
    while x != ops.identity:
        x = ops.mul(x, code)
        e += 1
        if e > GL_BRUTE_LIMIT:
            raise LimitExceeded("element order exceeds scan limit")
    return e


def _greedy_gens(ops, codes) -> tuple:
    """The generators of the MatGroup of a subgroup given by its matrix
    codes: greedy generators taken in order of decreasing element order,
    sorted (the identity alone for the trivial group)."""
    gens = greedy_generators(ops, codes, key=lambda c: (-_code_order(ops, c), c))
    return tuple(sorted(gens)) or (ops.identity,)


def group_from_mats(alpha: int, spec: FieldSpec, codes) -> MatGroup:
    """The subgroup with the given matrix codes, on its _greedy_gens."""
    return _group(alpha, spec, _greedy_gens(mat_ops(alpha, spec), codes))


def _span_with(span: set, vec, tab) -> set:
    """The subspace spanned by a subspace (its set of vectors) and a vector."""
    multiples = [tuple(row[x] for x in vec) for row in tab.mul]
    return {tuple(tab.add[x][y] for x, y in zip(u, m)) for u in span for m in multiples}


@lru_cache(maxsize=32)
def gl_elements(alpha: int, spec: FieldSpec, limit: int = GL_BRUTE_LIMIT) -> tuple[tuple, ...]:
    """All of GL(alpha, s) as matrix codes in entry order (cached),
    enumerated row by row: no determinants, work in proportion to |GL|."""
    order = gl_order(alpha, spec)
    if order > limit:
        shown = f" = {order}" if printable(order) else ""
        raise LimitExceeded(f"|GL({alpha}, {spec.s})|{shown} exceeds brute-force limit {limit}")
    tab = spec.tables
    vectors = list(itertools.product(range(spec.s), repeat=alpha))
    # prefixes of linearly independent rows with their spans, in increasing
    # order; each extends by the vectors outside its span, in increasing
    # order, so every level stays sorted (vectors[0] is the zero vector)
    level = [((), {vectors[0]})]
    for depth in range(alpha):
        last = depth == alpha - 1
        level = [
            (rows + v, None if last else _span_with(span, v, tab))
            for rows, span in level
            for v in vectors
            if v not in span
        ]
    return tuple(rows for rows, _ in level)


@lru_cache(maxsize=32)
def gl_generators(alpha: int, spec: FieldSpec, limit: int) -> tuple:
    """Greedy generators of GL(alpha, s) as matrix codes, in entry order:
    orbits under conjugation by GL are orbits under these (cached)."""
    return tuple(greedy_generators(mat_ops(alpha, spec), gl_elements(alpha, spec, limit)))


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


def is_irreducible(G: MatGroup) -> bool:
    """No proper nonzero invariant subspace; every line is spun to check."""
    if G.spec.s**G.alpha > SPIN_LIMIT:
        raise LimitExceeded(f"s^alpha = {G.spec.s ** G.alpha} exceeds spin limit {SPIN_LIMIT}")
    if G.alpha == 1:
        return True
    tab, apply = G.spec.tables, G.ops.apply
    for line in _lines(G.alpha, G.spec):
        basis: list = []
        _basis_insert(basis, line, tab)
        queue = [line]
        while queue and len(basis) < G.alpha:
            v = queue.pop()
            for g in G._gens:
                w = apply(g, v)
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


def singer_generator(alpha: int, spec: FieldSpec) -> Mat:
    """Matrix of multiplication by a generator of GF(s^alpha)* on the
    canonical polynomial basis. Cyclic of order s^alpha - 1."""
    size = spec.s**alpha
    if size > SPIN_LIMIT:
        raise LimitExceeded(f"s^alpha = {size} exceeds limit {SPIN_LIMIT}")
    if alpha == 1:
        # GL(1, s): first generator of the multiplicative group
        for c in range(1, spec.s):
            if _code_order(mat_ops(1, spec), (c,)) == spec.s - 1:
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


def singer_subgroup(alpha: int, spec: FieldSpec) -> MatGroup:
    return closure([singer_generator(alpha, spec)])


# ---------------------------------------------------------------------------
# the classified elementary abelian r-subgroups


def _embed_block(block, position: int, alpha: int) -> tuple[int, ...]:
    """Identity code with the block code placed on the diagonal at the position."""
    d = math.isqrt(len(block))
    entries = list(_identity_entries(alpha))
    for i in range(d):
        start = (position + i) * alpha + position
        entries[start : start + d] = block[i * d : i * d + d]
    return tuple(entries)


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
    block = (singer_generator(d, spec) ** ((spec.s**d - 1) // r)).entries
    return _group(alpha, spec, [_embed_block(block, i * d, alpha) for i in range(k)])


def conjugate_in_gl(A: MatGroup, B: MatGroup, limit: int = GL_BRUTE_LIMIT) -> Mat | None:
    """The first x of GL(alpha, s) in entry order with A^x = B, or None."""
    if A.spec != B.spec:
        raise FieldMismatch("groups over different fields")
    if A.alpha != B.alpha:
        raise DegreeMismatch("groups of different dimensions")
    if A.order != B.order:
        return None
    x = first_conjugator(A.ops, gl_elements(A.alpha, A.spec, limit), A._gens, set(B._codes))
    return None if x is None else Mat(A.spec, x)


@lru_cache(maxsize=8)
def _elem_abelian_r_classes(alpha: int, spec: FieldSpec, r: int, limit: int) -> tuple:
    """One representative per GL-class of nontrivial elementary abelian
    r-subgroups of GL(alpha, s), canonically ordered, each paired with
    whether the class is maximal among them. Cached: both classifications
    filter it. The universe, cap and keep of the scan are conjugation
    invariant, so it runs under GL's generators: one subgroup per class is
    extended and tested, and the class member least by its _greedy_gens is
    the one made a MatGroup."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if r == spec.t:
        raise CharacteristicConflict(f"r = {r} equals the field characteristic")
    # gl_elements checks the limit first: compiling the product costs alpha^3
    codes = gl_elements(alpha, spec, limit)
    ops = mat_ops(alpha, spec)
    mul, ident = ops.mul, ops.identity
    order_r = [c for c in codes if c != ident and _power(ops, c, r) == ident]
    # an r-subgroup has at most the r-part of |GL| elements (Lagrange); a
    # nonabelian subgroup has only nonabelian overgroups
    r_part = r ** prime_factors(gl_order(alpha, spec)).get(r, 0)
    keep = partial(_abelian_of_exponent, ops, u=r)
    lattice = subgroup_lattice(ops, order_r, r_part, keep, gl_generators(alpha, spec, limit))
    del lattice[frozenset({ident})]
    classes = []
    for sub, (gens, orbit) in lattice.items():
        # maximal iff no order-r element outside commutes with the generators
        maximal = all(y in sub or any(mul(y, g) != mul(g, y) for g in gens) for y in order_r)
        classes.append((len(sub), min(_greedy_gens(ops, s) for s in orbit), maximal))
    return tuple((_group(alpha, spec, gens), maximal) for _, gens, maximal in sorted(classes))


def classify_elem_abelian_r(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """One representative per conjugacy class of subgroups maximal among the
    elementary abelian r-subgroups of GL(alpha, s), canonically ordered."""
    return [g for g, maximal in _elem_abelian_r_classes(alpha, spec, r, limit) if maximal]


def irreducible_elem_abelian_r_classes(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """Conjugacy classes of nontrivial irreducible elementary abelian
    r-subgroups (the single-class claim oracle). Irreducibility is a class
    invariant, so one test per class suffices."""
    return [g for g, _ in _elem_abelian_r_classes(alpha, spec, r, limit) if is_irreducible(g)]


# ---------------------------------------------------------------------------
# JSON wire format


def matgroup_to_json(G: MatGroup) -> dict:
    return {
        "field": G.spec.to_json(),
        "alpha": G.alpha,
        "generators": [g.to_json() for g in G.generators],
    }
