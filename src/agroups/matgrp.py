"""Matrix groups over GF(s).

Everything here is an exhaustive desk-scale oracle. A matrix is its code,
the flat row-major tuple of its field-element indices, acting on row
vectors, v * M; mat_ops binds the subgroup kernel in cayley to codes, and
field coefficients appear only in matgroup_to_json. A MatGroup keeps its
generators and its sorted elements as codes; closure materialises the full
element set. The elementary abelian classification is one class scan of the
subgroup lattice under GL's generators: one subgroup per GL-class is
extended, tested for maximality and made a MatGroup. Every product of two
matrices runs through one function per dimension and field, straight-line
source compiled on first use against the field's index tables.
GL(alpha, s) is listed as the kernel's closure of three written-down
generators, checked against |GL|. A Singer generator is the regular
representation of a generator of GF(s^alpha)*, built row by row through the
companion matrix of gf's least irreducible polynomial of degree alpha over
GF(s) and tested by its powers. Irreducibility is decided by spinning every line;
conjugate_in_gl, the independent conjugacy check, runs the kernel's
conjugator scan over all of GL(alpha, s) in entry order. Limits guard each
entry point so a bad input fails fast instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from types import SimpleNamespace

from .cayley import (
    _abelian_of_exponent,
    _power,
    canonical_generators,
    first_conjugator,
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
from .gf import (
    FieldSpec, _least_irreducible, is_prime, multiplicative_order, prime_factors, printable
)

GL_BRUTE_LIMIT = 1_000_000
SPIN_LIMIT = 10_000
CLOSURE_LIMIT = 100_000


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


class MatGroup:
    """Matrix group with its full element set cached (desk scale): its
    canonical generators and its sorted elements, as matrix codes."""

    __slots__ = ("spec", "alpha", "generators", "_codes")

    def __init__(self, spec: FieldSpec, alpha: int, generators: tuple, _codes: tuple):
        self.spec, self.alpha, self.generators, self._codes = spec, alpha, generators, _codes

    def _key(self) -> tuple:
        return self.spec, self.alpha, self.generators, self._codes

    def __eq__(self, other):
        return type(other) is MatGroup and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def closure(alpha: int, spec: FieldSpec, gens) -> MatGroup:
    """The group generated by invertible alpha x alpha matrix codes over the
    field, with its full element set; order exact."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidParams("need at least one generator")
    entries = range(spec.s)
    for g in gens:
        if len(g) != alpha * alpha:
            raise DegreeMismatch(f"a generator has {len(g)} entries, not {alpha}^2")
        if not all(e in entries for e in g):
            raise FieldMismatch(f"a generator has entries outside GF({spec.s})")
        _code_inverse(spec.tables, alpha, g)  # SingularGenerator if singular
    elems = subgroup_closure(mat_ops(alpha, spec), gens, cap=CLOSURE_LIMIT)
    if elems is None:
        raise LimitExceeded(f"closure exceeds {CLOSURE_LIMIT} elements")
    return MatGroup(spec, alpha, tuple(sorted(set(gens))), tuple(sorted(elems)))


@lru_cache(maxsize=None)
def mat_ops(alpha: int, spec: FieldSpec) -> SimpleNamespace:
    """Product, identity and inverse of GL(alpha, s) on matrix codes, as the
    subgroup kernel in cayley takes them.

    The product is straight-line source built from alpha alone in the manner
    of collections.namedtuple and run against the field's add/mul tables:
    both codes are unpacked into locals, the multiplication-table row of
    each entry of a is looked up once, and entry (i, j) is the add-chain of
    the alpha products a[i][k] * b[k][j]. apply maps a row vector of element
    indices through a code, v * M."""
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


def _greedy_gens(ops, codes) -> tuple:
    """The generators of the MatGroup of a subgroup given by its matrix
    codes: its canonical generators, sorted (the identity alone for the
    trivial group)."""
    return tuple(sorted(canonical_generators(ops, codes))) or (ops.identity,)


def gl_elements(alpha: int, spec: FieldSpec, limit: int = GL_BRUTE_LIMIT) -> tuple[tuple, ...]:
    """All of GL(alpha, s) as matrix codes in entry order, the closure of
    gl_generators. The limit is checked on every call; the list is cached
    once per (alpha, field)."""
    order = gl_order(alpha, spec)
    if order > limit:
        shown = f" = {order}" if printable(order) else ""
        raise LimitExceeded(f"|GL({alpha}, {spec.s})|{shown} exceeds brute-force limit {limit}")
    return _gl_elements(alpha, spec)


@lru_cache(maxsize=32)
def _gl_elements(alpha: int, spec: FieldSpec) -> tuple[tuple, ...]:
    elems = subgroup_closure(mat_ops(alpha, spec), gl_generators(alpha, spec))
    if len(elems) != gl_order(alpha, spec):  # generation, proved on every listing
        raise AssertionError("gl_generators do not generate GL; unreachable")
    return tuple(sorted(elems))


@lru_cache(maxsize=32)
def gl_generators(alpha: int, spec: FieldSpec) -> tuple:
    """Generators of GL(alpha, s) as matrix codes, written down without
    listing GL (cached): D = diag(w, 1, ..., 1), w the first element of order
    s - 1 (left out at s = 2, where D = I); X = I + E_12; and the cyclic
    permutation matrix P, row i's 1 in column i + 1 mod alpha. At alpha = 1,
    w alone. Proof: conjugating X by the powers of D gives I + t E_12 for
    every t != 0, and those by the powers of P every I + t E_(i,i+1), indices
    mod alpha. For i, j, k distinct [I + a E_ij, I + b E_jk] = I + ab E_ik, so
    walking from i to k gives every elementary transvection I + t E_ik; these
    generate SL (E. Artin, Geometric Algebra, 1957, ch. IV), and det D = w
    generates GF(s)*."""
    if alpha < 1:
        raise DegreeMismatch("alpha must be at least 1")
    w = singer_generator(1, spec)
    if alpha == 1:
        return (w,)
    ident = _identity_entries(alpha)
    diag = w + ident[1:]
    transvection = ident[:1] + (1,) + ident[2:]
    cycle = tuple(int(j == (i + 1) % alpha) for i in range(alpha) for j in range(alpha))
    return (diag,) * (spec.s > 2) + (transvection, cycle)


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
            for g in G.generators:
                w = apply(g, v)
                if _basis_insert(basis, w, tab):
                    queue.append(w)
        if len(basis) < G.alpha:
            return False
    return True


# ---------------------------------------------------------------------------
# Singer subgroups: multiplication by a generator of GF(s^alpha)*. The field
# is GF(s)[x]/(f), f the least monic irreducible polynomial of degree alpha
# over GF(s), on the basis 1, x, ..., x^(alpha-1). Multiplication by g is the
# regular representation of g: row i of its matrix is the coordinate vector
# of x^i g, which is row i - 1 times the matrix of x, so mat_ops builds it
# and takes its powers. Polynomials are tuples of element indices, ascending
# degree.


def singer_generator(alpha: int, spec: FieldSpec) -> tuple[int, ...]:
    """The code of the matrix of multiplication by the first generator of
    GF(s^alpha)* in coefficient order. Cyclic of order s^alpha - 1."""
    size = spec.s**alpha
    if size > SPIN_LIMIT:
        raise LimitExceeded(f"s^alpha = {size} exceeds limit {SPIN_LIMIT}")
    neg, ops = spec.tables.neg, mat_ops(alpha, spec)
    # multiplication by x, the companion matrix of f: row i < alpha - 1 is
    # x^(i+1), and the last row is x^alpha, the negated lower coefficients of f
    f = _least_irreducible(spec, alpha)
    x = _identity_entries(alpha)[alpha:] + tuple(neg[c] for c in f[:-1])
    order = size - 1
    crit = [order // u for u in prime_factors(order)]
    for g in itertools.product(range(spec.s), repeat=alpha):
        if not any(g):
            continue
        rows = [g]
        for _ in range(alpha - 1):
            rows.append(ops.apply(x, rows[-1]))
        m = tuple(itertools.chain.from_iterable(rows))
        if all(_power(ops, m, c) != ops.identity for c in crit):
            return m
    raise AssertionError("GF(s^alpha)* has no generator; unreachable")


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


def _check_r(spec: FieldSpec, r: int) -> None:
    """NotPrime or CharacteristicConflict for a bad r."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if r == spec.t:
        raise CharacteristicConflict(f"r = {r} equals the field characteristic")


def maximal_ar_subgroup(alpha: int, spec: FieldSpec, r: int) -> MatGroup | None:
    """Block-diagonal (C_r)^k with k = floor(alpha / d), d = order of s mod r.

    None when k = 0. When d does not divide alpha the construction pads with
    an identity block; see classify_elem_abelian_r for the oracle that judges
    whether the result is a maximal class.
    """
    _check_r(spec, r)
    d = multiplicative_order(spec.s, r)
    k = alpha // d
    if k == 0:
        return None
    block = _power(mat_ops(d, spec), singer_generator(d, spec), (spec.s**d - 1) // r)
    return closure(alpha, spec, [_embed_block(block, i * d, alpha) for i in range(k)])


def conjugate_in_gl(
    A: MatGroup, B: MatGroup, limit: int = GL_BRUTE_LIMIT
) -> tuple[int, ...] | None:
    """The code of the first x of GL(alpha, s) in entry order with A^x = B,
    or None."""
    if A.spec != B.spec:
        raise FieldMismatch("groups over different fields")
    if A.alpha != B.alpha:
        raise DegreeMismatch("groups of different dimensions")
    if A.order != B.order:
        return None
    gl = gl_elements(A.alpha, A.spec, limit)
    return first_conjugator(A.ops, gl, A.generators, set(B._codes))


@lru_cache(maxsize=8)
def _elem_abelian_r_classes(alpha: int, spec: FieldSpec, r: int) -> tuple:
    """One representative per GL-class of nontrivial elementary abelian
    r-subgroups of GL(alpha, s), canonically ordered, each paired with
    whether the class is maximal among them. Cached: both classifications
    filter it, after checking r and then their limit with gl_elements (so
    before alpha^3 of compiling the product), and one scan serves every
    limit. The universe, cap and keep of the scan are conjugation
    invariant, so it runs under GL's generators: one subgroup per class is
    extended and tested, and the class member least by its _greedy_gens is
    the one made a MatGroup, from its own codes."""
    codes = _gl_elements(alpha, spec)
    ops = mat_ops(alpha, spec)
    mul, ident = ops.mul, ops.identity
    order_r = [c for c in codes if c != ident and _power(ops, c, r) == ident]
    # an r-subgroup has at most the r-part of |GL| elements (Lagrange); a
    # nonabelian subgroup has only nonabelian overgroups
    r_part = r ** prime_factors(gl_order(alpha, spec)).get(r, 0)
    keep = partial(_abelian_of_exponent, ops, u=r)
    lattice = subgroup_lattice(ops, order_r, r_part, keep, gl_generators(alpha, spec))
    del lattice[frozenset({ident})]
    classes = []
    for sub, (gens, orbit) in lattice.items():
        # maximal iff no order-r element outside commutes with the generators
        maximal = all(y in sub or any(mul(y, g) != mul(g, y) for g in gens) for y in order_r)
        least, member = min(((_greedy_gens(ops, m), m) for m in orbit), key=lambda gm: gm[0])
        group = MatGroup(spec, alpha, least, tuple(sorted(member)))
        classes.append((len(sub), least, group, maximal))
    classes.sort(key=lambda c: c[:2])
    return tuple((group, maximal) for _, _, group, maximal in classes)


def classify_elem_abelian_r(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """One representative per conjugacy class of subgroups maximal among the
    elementary abelian r-subgroups of GL(alpha, s), canonically ordered."""
    _check_r(spec, r)
    gl_elements(alpha, spec, limit)
    return [g for g, maximal in _elem_abelian_r_classes(alpha, spec, r) if maximal]


def irreducible_elem_abelian_r_classes(
    alpha: int, spec: FieldSpec, r: int, limit: int = GL_BRUTE_LIMIT
) -> list[MatGroup]:
    """Conjugacy classes of nontrivial irreducible elementary abelian
    r-subgroups (the single-class claim oracle). Irreducibility is a class
    invariant, so one test per class suffices."""
    _check_r(spec, r)
    gl_elements(alpha, spec, limit)
    return [g for g, _ in _elem_abelian_r_classes(alpha, spec, r) if is_irreducible(g)]


# ---------------------------------------------------------------------------
# JSON wire format


def matgroup_to_json(G: MatGroup) -> dict:
    """The field, the dimension and each generator as rows of coefficient lists."""
    n, coeffs = G.alpha, G.spec.coefficients
    return {
        "field": G.spec.to_json(),
        "alpha": n,
        "generators": [
            [[list(coeffs(e)) for e in g[i : i + n]] for i in range(0, n * n, n)]
            for g in G.generators
        ],
    }
