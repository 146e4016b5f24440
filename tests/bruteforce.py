"""Independent brute-force oracles used by the tests.

Nothing here imports the package's search machinery; these are the slow,
obviously-correct reference computations the engine is checked against.
The block-partition brute force lives in agroups.selftest, whose criteria
run it too; it shares no code with the block search it checks. The two
exceptions check an engine reduction, not its parts: unreduced_census builds
the census from every action, its split extensions by naive_semidirect_table
and validated as the engine's tables, and pairwise_inventory
builds the S_n inventories from every subgroup with the engine's lattice scan
(no conjugators) and filters; its single-prime members come from the
fixed-point-free scan under the oracle's own keep (regular_keep), which
regular_scan also runs with the engine's lattice scan up to S_n-conjugacy
to find the least regular elementary abelian subgroup. sn_class_scan is the
lattice scan of S_n up to S_n-conjugacy on its prime-order elements
(prime_order_codes), the route the transitive inventory took before the
affine normaliser and the wreath products; sn_scan_transitive_inventory
and generic_primitive_inventory read their classes off it. table_of builds the
tests' table fixtures with a group's own product. poly_singer_generator
takes the engine's modulus of GF(s^alpha) over GF(s) and its remainder on
index tables, and does the rest in its own polynomial ring. row_by_row_gl
lists GL(alpha, s) on the field's index tables without generators, the
oracle of the engine's closure of gl_generators. FieldElem takes
only a field's modulus from the engine and does its arithmetic on integers
mod t. FractionLogBound takes the fixed-point log2 enclosure and the print
limit from agroups.bounds and does the rest on Fractions. validate_report
checks a report against the published agroups.report.REPORT_SCHEMA.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from agroups.report import REPORT_SCHEMA
from agroups.selftest import naive_is_primitive  # noqa: F401


# -- permutations as raw image tuples (1-based) ------------------------------


def images(code):
    """The 1-based image tuple of a permutation code (0-based images)."""
    return tuple(i + 1 for i in code)


def mul(a, b):
    return tuple(b[x - 1] for x in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j - 1] = i + 1
    return tuple(out)


def naive_closure(degree, gens):
    """All products of the generators, grown one multiplication at a time."""
    ident = tuple(range(1, degree + 1))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def naive_orbit(gens, point):
    """The 0-based points that words in the codes gens send point to, grown
    until no generator adds one."""
    orbit = {point}
    while True:
        grown = orbit | {g[x] for g in gens for x in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def is_transitive(degree, gens):
    """Whether the codes gens on the points 0..degree-1 send 0 to every point."""
    return len(naive_orbit(gens, 0)) == degree


def table_of(group):
    """The multiplication table of a PermGroup or MatGroup over its sorted
    element codes, multiplied by its ops: the tests' table fixtures."""
    return codes_table(group.codes(), group.ops)


def direct_product_table(G, H):
    """The table of G x H, the pair (a, b) at index a |H| + b."""
    from agroups.cayley import CayleyGroup

    n, m = G.order, H.order
    table = tuple(
        tuple(G.mul(a // m, b // m) * m + H.mul(a % m, b % m) for b in range(n * m))
        for a in range(n * m)
    )
    return CayleyGroup(table, G.identity * m + H.identity)


def cyclic_table(n):
    """C_n as a table: i * j = i + j mod n."""
    from agroups.cayley import CayleyGroup

    return CayleyGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0)


def is_abelian(G):
    """Every pair of elements of the table group G commutes."""
    t = G.table
    return all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(a))


def codes_table(elems, ops):
    """The multiplication table of the group of the given sorted codes,
    multiplied by ops."""
    from agroups.cayley import CayleyGroup

    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[ops.mul(a, b)] for b in elems) for a in elems)
    return CayleyGroup(table, index[ops.identity])


def code_order(code):
    """The order of a permutation code (0-based images): the lcm of the
    lengths of its cycles, each walked point by point."""
    order, seen = 1, set()
    for start in range(len(code)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = code[x]
            length += 1
        order = math.lcm(order, max(length, 1))
    return order


def perm_order(a):
    ident = tuple(range(1, len(a) + 1))
    e, x = 1, a
    while x != ident:
        x = mul(x, a)
        e += 1
    return e


def naive_normal_subgroups(degree, elements):
    """All normal subgroups of the given element set, as frozensets."""
    elements = set(elements)
    subgroups = all_subgroups_of(degree, elements)
    out = []
    for sub in subgroups:
        if all(mul(mul(inv(g), h), g) in sub for h in sub for g in elements):
            out.append(sub)
    return out


def naive_is_nilpotent(elements):
    """A finite group is nilpotent iff each Sylow subgroup is normal, iff for
    every prime p the elements of p-power order number exactly the p-part of
    the group order."""
    n = len(elements)
    for p in range(2, n + 1):
        if n % p or any(p % d == 0 for d in range(2, p)):
            continue
        part = 1
        while n % (part * p) == 0:
            part *= p
        if sum(1 for g in elements if part % perm_order(g) == 0) != part:
            return False
    return True


def naive_fitting_subgroup(degree, elements):
    """The Fitting subgroup: the largest nilpotent normal subgroup (it
    contains every other one)."""
    nilpotent = [N for N in naive_normal_subgroups(degree, elements) if naive_is_nilpotent(N)]
    return max(nilpotent, key=len)


def all_subgroups_of(degree, elements):
    """Every subgroup of the element set, by closure extension."""
    ident = tuple(range(1, degree + 1))
    trivial = frozenset({ident})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for x in elements:
                if x in sub:
                    continue
                bigger = frozenset(naive_closure_from(degree, set(sub) | {x}))
                if bigger not in seen:
                    seen.add(bigger)
                    new_frontier.append(bigger)
        frontier = new_frontier
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def naive_closure_from(degree, seed):
    return naive_closure(degree, list(seed))


def naive_subgroup_lattice(G, universe, cap=None, keep=None):
    """cayley.subgroup_lattice without pruning: every subgroup found is
    extended by every universe element outside it, by a word closure under
    G.mul that gives up above cap elements."""

    def closure(gens):
        elems, frontier = {G.identity}, [G.identity]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = G.mul(x, g)
                    if y not in elems:
                        elems.add(y)
                        new.append(y)
                        if cap is not None and len(elems) > cap:
                            return None
            frontier = new
        return frozenset(elems)

    trivial = frozenset({G.identity})
    seen = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            gens = seen[sub]
            if cap is not None and 2 * len(sub) > cap:
                continue
            for x in universe:
                if x in sub:
                    continue
                bigger = closure(gens + (x,))
                if bigger is None or bigger in seen or (keep is not None and not keep(bigger)):
                    continue
                seen[bigger] = gens + (x,)
                new_frontier.append(bigger)
        frontier = new_frontier
    return seen


def pairwise_class_reps(groups, conjugate):
    """One representative per conjugacy class of the groups, found by testing
    each group against the first member of every class so far with
    conjugate(a, b) (an x with a^x = b, or None). Each representative is the
    least member of its class by generators; ordered by order, then
    generators."""
    classes = []
    for grp in groups:
        cls = next((c for c in classes if conjugate(c[0], grp) is not None), None)
        if cls is None:
            classes.append([grp])
        else:
            cls.append(grp)

    reps = [min(cls, key=lambda g: g.generators) for cls in classes]
    reps.sort(key=lambda g: (g.order, g.generators))
    return reps


# -- small number theory ------------------------------------------------------


def naive_multiplicative_order(a, m):
    for e in range(1, m + 1):
        if pow(a, e, m) == 1:
            return e
    raise AssertionError


# -- polynomials over GF(t), ascending coefficient tuples --------------------


def poly_has_root(poly, t):
    def value(x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % t
        return acc

    return any(value(x) == 0 for x in range(t))


def naive_irreducible_quadratics(t):
    """Monic irreducible quadratics over GF(t): no roots suffices at degree 2."""
    out = []
    for c1 in range(t):
        for c0 in range(t):
            poly = (c0, c1, 1)
            if not poly_has_root(poly, t):
                out.append(poly)
    return out


# -- GF(t^k) as polynomials over the integers mod t -----------------------------


def poly_mod(num, den, t):
    """Remainder of num / den over the integers mod t (den monic), padded
    to deg den coefficients."""
    num = [c % t for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % t
    return tuple(num[:dd]) + (0,) * (dd - len(num))


class FieldElem:
    """Element of GF(t^k): k coefficients mod t on the basis 1, x, ...,
    x^(k-1), multiplied as polynomials and reduced by the field's modulus.
    It shares no code with the index tables it checks."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec, self.coeffs = spec, tuple(c % spec.t for c in coeffs)

    @classmethod
    def from_index(cls, spec, i):
        """Element number i in the engine's order: base-t digits, c0 first."""
        coeffs = []
        for _ in range(spec.k):
            i, c = divmod(i, spec.t)
            coeffs.append(c)
        return cls(spec, coeffs)

    @classmethod
    def elements(cls, spec):
        return [cls.from_index(spec, i) for i in range(spec.t**spec.k)]

    @property
    def index(self):
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.spec.t + c
        return i

    def __eq__(self, other):
        return type(other) is FieldElem and (self.spec, self.coeffs) == (other.spec, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def _operand(self, other):
        assert self.spec == other.spec, "operands belong to different fields"
        return other.coeffs

    def __add__(self, other):
        return FieldElem(self.spec, map(operator.add, self.coeffs, self._operand(other)))

    def __sub__(self, other):
        return FieldElem(self.spec, map(operator.sub, self.coeffs, self._operand(other)))

    def __neg__(self):
        return FieldElem(self.spec, (-a for a in self.coeffs))

    def __mul__(self, other):
        prod = [0] * (2 * self.spec.k - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(self._operand(other)):
                prod[i + j] += a * b
        return FieldElem(self.spec, poly_mod(prod, self.spec.modulus, self.spec.t))


# -- square matrices as rows of FieldElem ---------------------------------------


def code_rows(spec, code):
    """A matrix code (row-major field-element indices) as rows of FieldElem."""
    n = math.isqrt(len(code))
    return [[FieldElem.from_index(spec, e) for e in code[i * n : i * n + n]] for i in range(n)]


def rows_code(rows):
    """Rows of FieldElem as a matrix code."""
    return tuple(e.index for row in rows for e in row)


def naive_code_mul(spec, a, b):
    """The product of two matrix codes, by naive_mat_mul."""
    return rows_code(naive_mat_mul(code_rows(spec, a), code_rows(spec, b)))


def naive_mat_mul(a, b):
    """Row-by-column product, every entry a sum of FieldElem products."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def naive_det(a):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(a)
    total = a[0][0] - a[0][0]
    for perm in itertools.permutations(range(n)):
        term = a[0][perm[0]]
        for i in range(1, n):
            term = term * a[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def row_by_row_gl(alpha, spec):
    """GL(alpha, s) as matrix codes in entry order, listed row by row: each
    row outside the span of the rows above it, spans kept as vector sets on
    the field's index tables. No generators and no closure."""
    tab = spec.tables

    def span_with(span, vec):
        multiples = [tuple(row[x] for x in vec) for row in tab.mul]
        return {tuple(tab.add[x][y] for x, y in zip(u, m)) for u in span for m in multiples}

    vectors = list(itertools.product(range(spec.s), repeat=alpha))
    # prefixes of independent rows with their spans, in increasing order;
    # each extends by the vectors outside its span, in increasing order, so
    # every level stays sorted (vectors[0] is the zero vector)
    level = [((), {vectors[0]})]
    for depth in range(alpha):
        last = depth == alpha - 1
        level = [
            (rows + v, None if last else span_with(span, v))
            for rows, span in level
            for v in vectors
            if v not in span
        ]
    return [rows for rows, _ in level]


# -- Singer generators in GF(s)[x]/(f), polynomials of element indices ---------------


def _ext_poly_mul(a, b, modulus, tab):
    from agroups.gf import _poly_rem

    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = tab.add[prod[i + j]][tab.mul[ai][bj]]
    return _poly_rem(prod, modulus, tab)


def poly_singer_generator(alpha, spec):
    """The code of the matrix of multiplication by the first generator of
    GF(s^alpha)* in coefficient order: the generator found by its powers in
    the polynomial ring, row i the coordinate vector of x^i times it."""
    from agroups.gf import _least_irreducible, prime_factors

    tab = spec.tables
    if alpha == 1:
        # GL(1, s): the first unit of multiplicative order s - 1
        for c in range(1, spec.s):
            e, y = 1, c
            while y != 1:
                e, y = e + 1, tab.mul[y][c]
            if e == spec.s - 1:
                return (c,)
    modulus = _least_irreducible(spec, alpha)
    order = spec.s**alpha - 1
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
    return tuple(entries)


# -- loops: Latin squares with an identity ---------------------------------------


def naive_is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reduced_latin_squares(n, rnd=None):
    """Every Latin square whose first row and column read 0..n-1, that is
    every loop of order n with identity 0, by cell-by-cell backtracking.
    With a random.Random, candidates are tried in shuffled order."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        candidates = [x for x in range(n) if x not in used]
        if rnd is not None:
            rnd.shuffle(candidates)
        for x in candidates:
            rows[i][j] = x
            yield from fill(k + 1)

    yield from fill(0)


# -- isomorphism and homomorphism search on multiplication tables ----------------


def naive_element_order(table, identity, x):
    k, y = 1, x
    while y != identity:
        y = table[y][x]
        k += 1
    return k


def naive_words(table, identity):
    """A generating list of the table group, greedy by decreasing element order
    then index, and a word in it for every element (indices into the list),
    read off a breadth-first spanning tree of the Cayley graph."""
    n = len(table)
    orders = [naive_element_order(table, identity, x) for x in range(n)]
    gens, words = [], {identity: ()}
    for x in sorted(range(n), key=lambda x: (-orders[x], x)):
        if x in words:
            continue
        gens.append(x)
        frontier = list(words)
        while frontier:
            new = []
            for y in frontier:
                for k, g in enumerate(gens):
                    z = table[y][g]
                    if z not in words:
                        words[z] = words[y] + (k,)
                        new.append(z)
            frontier = new
    return gens, words


def naive_are_isomorphic(G, H):
    """Isomorphism of two table groups by trying every assignment of
    same-order images to a generating set of G: each element's image is the
    product of its word's images, and the map must be a bijection that
    respects the whole n x n table."""
    a, b = G.table, H.table
    n = len(a)
    if len(b) != n:
        return False
    gens, words = naive_words(a, G.identity)
    h_orders = [naive_element_order(b, H.identity, y) for y in range(n)]
    choices = [
        [y for y in range(n) if h_orders[y] == naive_element_order(a, G.identity, g)]
        for g in gens
    ]
    for images in itertools.product(*choices):
        f = {}
        for x, word in words.items():
            y = H.identity
            for k in word:
                y = b[y][images[k]]
            f[x] = y
        if len(set(f.values())) == n and all(
            f[a[x][y]] == b[f[x]][f[y]] for x in range(n) for y in range(n)
        ):
            return True
    return False


def allpairs_extend_map(G, mapping, new_elem, image, mul, injective):
    """Extend a partial multiplicative map of a subgroup by one generator, by
    multiplying every new element with every mapped one in both orders until
    nothing new appears; None on an inconsistency."""
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
            for ab, fab in ((G.table[x][y], mul(fx, fy)), (G.table[y][x], mul(fy, fx))):
                if ab in out:
                    if out[ab] != fab:
                        return None
                else:
                    out[ab] = fab
                    queue.append(ab)
    if injective and len(set(out.values())) != len(out):
        return None
    return out


def allpairs_hom_search(G, gens, candidates_per_gen, mul, identity_image, injective, find_all):
    """Every (injective) homomorphism from G with gens[k] sent into
    candidates_per_gen[k], depth first in candidate order, as complete dicts;
    only the first unless find_all. Closes each level with
    allpairs_extend_map."""
    results = []

    def recurse(level, mapping):
        if level == len(gens):
            results.append(mapping)
            return not find_all
        for image in candidates_per_gen[level]:
            extended = allpairs_extend_map(G, mapping, gens[level], image, mul, injective)
            if extended is not None and recurse(level + 1, extended):
                return True
        return False

    recurse(0, {G.identity: identity_image})
    return [m for m in results if len(m) == len(G.table)]


def allpairs_are_isomorphic(G, H):
    """Isomorphism by allpairs_hom_search from naive_words's generators into
    same-order elements, with no invariant filter."""
    if len(G.table) != len(H.table):
        return False
    gens, _ = naive_words(G.table, G.identity)
    h_orders = [naive_element_order(H.table, H.identity, y) for y in range(len(H.table))]
    candidates = [
        [y for y, o in enumerate(h_orders) if o == naive_element_order(G.table, G.identity, g)]
        for g in gens
    ]
    found = allpairs_hom_search(
        G, gens, candidates, lambda x, y: H.table[x][y], H.identity, True, False
    )
    return bool(found)


def allpairs_homomorphisms_to_mats(G, gens, spec, codes):
    """Every homomorphism from G into the matrix codes over the field, by
    allpairs_hom_search from the given generators into the codes of dividing
    order, multiplied by naive_code_mul (each pair once)."""
    mul = functools.lru_cache(maxsize=None)(functools.partial(naive_code_mul, spec))
    n = math.isqrt(len(codes[0]))
    ident = tuple(int(i == j) for i in range(n) for j in range(n))

    def order(m):
        e, x = 1, m
        while x != ident:
            x = mul(x, m)
            e += 1
        return e

    orders = {m: order(m) for m in codes}
    candidates = [
        [m for m in codes if naive_element_order(G.table, G.identity, g) % orders[m] == 0]
        for g in gens
    ]
    return allpairs_hom_search(G, gens, candidates, mul, ident, False, True)


# -- the census without its reductions ------------------------------------------------


def census_split_params():
    """The four census inputs of the census-split benchmark workload: orders
    60 and 90, (2,3,5;2,1,1), (3,2,5;2,1,1), (5,3,2;1,2,1), (3,2,5;1,2,1)."""
    from agroups.cayley import VarietyParams

    return [
        VarietyParams(2, 3, 5, 2, 1, 1),
        VarietyParams(3, 2, 5, 2, 1, 1),
        VarietyParams(5, 3, 2, 1, 2, 1),
        VarietyParams(3, 2, 5, 1, 2, 1),
    ]


def naive_semidirect_table(u, dim, action_codes, acting):
    """The multiplication table of (C_u)^dim x| acting by the definition in
    semidirect_product's docstring: elements (v, h) in the order of (v's
    digits, h), and (v1, h1)(v2, h2) = (v1 + v2 M(h1^-1), h1 h2) with v2 a
    row vector times the matrix of FieldElem rows of h1^-1's code."""
    from agroups.gf import field_make

    spec = field_make(u, 1)
    vectors = list(itertools.product(range(u), repeat=dim))
    index = {v: i for i, v in enumerate(vectors)}
    h_count = len(acting.table)
    inverse = [row.index(acting.identity) for row in acting.table]

    def times(v, code):
        rows = code_rows(spec, code)
        out = []
        for j in range(dim):
            acc = FieldElem(spec, [0])
            for i in range(dim):
                acc = acc + FieldElem.from_index(spec, v[i]) * rows[i][j]
            out.append(acc.index)
        return tuple(out)

    moved = {
        (h, v): times(v, action_codes[inverse[h]]) for h in range(h_count) for v in vectors
    }
    return tuple(
        tuple(
            index[tuple((a + b) % u for a, b in zip(v1, moved[h1, v2]))] * h_count
            + acting.table[h1][h2]
            for v2 in vectors
            for h2 in range(h_count)
        )
        for v1 in vectors
        for h1 in range(h_count)
    )


def naive_quotient_table(G, N):
    """G/N's table by the definition: the cosets of N as sets ordered by
    least member, and each cell the index of the coset that is the set
    product of its row's and its column's cosets."""
    cosets = []
    for a in range(len(G.table)):
        coset = frozenset(G.table[a][n] for n in N)
        if coset not in cosets:
            cosets.append(coset)
    cosets.sort(key=min)
    return tuple(
        tuple(cosets.index(frozenset(G.table[a][b] for a in A for b in B)) for B in cosets)
        for A in cosets
    )


def naive_is_homomorphism(table, images, mul):
    """Whether images (by element index of the table) is a homomorphism:
    every pair of elements, none of the Cayley-graph argument."""
    n = len(table)
    return all(images[table[x][y]] == mul(images[x], images[y]) for x in range(n) for y in range(n))


def unreduced_census(params, traversal="forward"):
    """The three-prime census from every action homomorphism (no orbit
    reduction), each table compared with every kept one (no invariant
    buckets), in the traversal order enumerate_variety_groups documents."""
    from agroups.cayley import CayleyGroup, canonical_generators, elementary_abelian_table
    from agroups.census import VarietyCensus
    from agroups.gf import field_make
    from agroups.matgrp import gl_elements

    def maybe_reverse(xs):
        return xs[::-1] if traversal == "reverse" else list(xs)

    def extensions(H, u, dim):
        if dim == 0:
            return [H]
        field = field_make(u, 1)
        gl = gl_elements(dim, field)
        gens = canonical_generators(H, range(H.order))
        homs = allpairs_homomorphisms_to_mats(H, gens, field, gl)
        actions = maybe_reverse([[m[i] for i in range(len(H.table))] for m in homs])
        return [
            CayleyGroup(naive_semidirect_table(u, dim, action, H), H.identity) for action in actions
        ]

    def dedup(groups):
        reps = []
        for g in groups:
            if not any(
                g.fingerprint() == h.fingerprint() and allpairs_are_isomorphic(g, h) for h in reps
            ):
                reps.append(g)
        return reps

    p, q, r = params.p, params.q, params.r
    R = elementary_abelian_table(r, params.gamma) if params.gamma else cyclic_table(1)
    h_reps = dedup(maybe_reverse(extensions(R, q, params.beta)))
    candidates = [G for H in h_reps for G in extensions(H, p, params.alpha)]
    reps = dedup(maybe_reverse(candidates))
    reps.sort(
        key=lambda t: sorted(naive_element_order(t.table, t.identity, x) for x in range(len(t.table)))
    )
    return VarietyCensus(params, tuple(reps))


def naive_gl(k, r):
    """GL(k, r) as tuples of rows over the integers mod r prime: every
    matrix whose map v -> v M on the r^k row vectors is injective."""
    vectors = list(itertools.product(range(r), repeat=k))

    def times(v, M):
        return tuple(sum(v[i] * M[i][j] for i in range(k)) % r for j in range(k))

    return [
        M
        for M in itertools.product(vectors, repeat=k)
        if len({times(v, M) for v in vectors}) == len(vectors)
    ]


def abelian_module_count(r, gamma, d):
    """The number of GL(gamma, r)-orbits on multisets of d points of
    F_r^gamma, counted without a table. It is the number of groups
    GF(u)^d x| C_r^gamma when r divides u - 1: every irreducible
    GF(u)C_r^gamma-module is then 1-dimensional, a character of C_r^gamma
    into the r-th roots of unity in GF(u), so an action up to GL(d, u) is a
    multiset of d characters, points of the dual F_r^gamma, and Aut(C_r^gamma)
    = GL(gamma, r) permutes them (Schur-Zassenhaus: the isomorphism classes
    of the split extensions are the orbits of Aut(H) x GL(d, u) on the
    actions)."""
    points = list(itertools.product(range(r), repeat=gamma))
    gl = naive_gl(gamma, r)

    def image(point, M):
        return tuple(sum(point[i] * M[i][j] for i in range(gamma)) % r for j in range(gamma))

    seen, orbits = set(), 0
    for multiset in itertools.combinations_with_replacement(points, d):
        if multiset in seen:
            continue
        orbits += 1
        seen.update(tuple(sorted(image(x, M) for x in multiset)) for M in gl)
    return orbits


# -- the S_n inventories without the class scan ------------------------------------------


@functools.lru_cache(maxsize=None)
def _sn_orders(n):
    """(code, order, fixed-point free) for every code of S_n, in
    lexicographic order."""
    return [
        (g, perm_order(images(g)), all(x != i for i, x in enumerate(g)))
        for g in itertools.permutations(range(n))
    ]


def naive_prime_order_codes(n, primes, fpf_only):
    """The codes of S_n whose order is in primes (and that are fixed-point
    free, with fpf_only), in lexicographic order: the n! codes filtered."""
    return [g for g, order, fpf in _sn_orders(n) if order in primes and (fpf or not fpf_only)]


def fixed_point_free(code):
    """Whether a code moves every point."""
    return all(x != i for i, x in enumerate(code))


def regular_keep(n, primes):
    """The oracle's keep for the regular elementary abelian candidates: the
    abelian subgroups of S_n whose nontrivial elements are fixed-point free
    of an order in primes (elementary abelian ones, for one prime), tested
    with the brute-force product. Its rejection is upward-closed, as the
    lattice scan requires: an overgroup keeps the offending element or
    noncommuting pair."""
    identity = tuple(range(n))

    def keep(sub):
        members = [g for g in sub if g != identity]
        elems = [images(g) for g in members]
        return (
            all(map(fixed_point_free, members))
            and all(perm_order(a) in primes for a in elems)
            and all(mul(a, b) == mul(b, a) for i, a in enumerate(elems) for b in elems[i + 1 :])
        )

    return keep


def regular_scan(n, r):
    """The S_n-classes of the elementary abelian r-subgroups of S_n of order
    at most n whose nontrivial elements are fixed-point free (the candidates
    that can be transitive: transitive abelian groups are regular), by the
    lattice scan under regular_keep, as a dict from each class
    representative to (its generators, its class), code sets. The universe
    is prime_order_codes, which the tests check against the n! codes
    filtered up to degree 8, with the fixed points dropped here."""
    from agroups import census
    from agroups.cayley import subgroup_lattice
    from agroups.perm import perm_ops

    universe = [g for g in prime_order_codes(n, (r,)) if fixed_point_free(g)]
    keep = regular_keep(n, (r,))
    return subgroup_lattice(perm_ops(n), universe, n, keep, census._sn_generators(n))


def naive_normalizer(n, T, fixing=()):
    """The codes of S_n that fix the given points and conjugate every member
    of the code set T into T: the n! codes filtered."""
    T = frozenset(T)
    out = []
    for g in itertools.permutations(range(n)):
        if any(g[x] != x for x in fixing):
            continue
        gi = sorted(range(n), key=g.__getitem__)  # g^-1 h g sends x to g[h[gi[x]]]
        if all(tuple(g[h[y]] for y in gi) in T for h in T):
            out.append(g)
    return out


@functools.lru_cache(maxsize=None)
def full_sn_scan(n, primes, cap, fpf_only):
    """Every subgroup of S_n generated by elements of the given prime orders
    that census._scan_keep keeps (with fpf_only, fixed-point-free elements
    under regular_keep), of order at most cap, with the generators that
    built it: the lattice scan without conjugators."""
    from agroups import census
    from agroups.cayley import subgroup_lattice
    from agroups.perm import perm_ops

    keep = regular_keep(n, primes) if fpf_only else census._scan_keep(primes)
    scan = subgroup_lattice(perm_ops(n), naive_prime_order_codes(n, primes, fpf_only), cap, keep)
    return tuple((elems, gens) for elems, (gens, _) in scan.items())


@functools.lru_cache(maxsize=None)
def regular_normal_candidates(n):
    """The T.S of the degree-7 and 8 primitive route, with their generators:
    T the least regular elementary abelian subgroup (all of them checked
    conjugate), S every subgroup of the point stabiliser of N(T), found from
    a scan of all of S_n and the stabiliser's multiplication table."""
    from agroups.cayley import all_subgroups, canonical_generators, conjugation_orbit
    from agroups.perm import extend_set, perm_ops, set_key

    u = min(p for p in range(2, n + 1) if n % p == 0)
    regulars = [elems for elems, _ in full_sn_scan(n, (u,), n, True) if len(elems) == n]
    T = min(regulars, key=set_key)
    ops = perm_ops(n)
    sn_gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    assert set(conjugation_orbit(ops, T, sn_gens)) == set(regulars)
    t_gens = canonical_generators(ops, T)
    stab_codes = naive_normalizer(n, T, fixing=(0,))
    out = []
    for sub in all_subgroups(codes_table(stab_codes, ops)):
        elems, gens = T, list(t_gens)
        for x in sorted(stab_codes[i] for i in sub):
            if x not in elems:
                elems = extend_set(n, elems, gens, x)
                gens.append(x)
        out.append((elems, tuple(gens)))
    return u, out


def prime_order_codes(n, primes):
    """Every code of S_n whose order is one of the primes, in lexicographic
    order, without walking S_n. An element of prime order p is a product of
    k disjoint p-cycles, 1 <= k <= n / p, and those of one k are an
    S_n-class: the conjugation orbit of (1 2 ... p)(p+1 ... 2p)... under
    (1 2 ... n) and (1 2)."""
    from agroups import census
    from agroups.cayley import conjugation_orbit
    from agroups.perm import perm_ops

    products = [
        tuple(x if x >= k * p else x + 1 - p * ((x + 1) % p == 0) for x in range(n))
        for p in primes
        for k in range(1, n // p + 1)
    ]
    ops, sn_gens = perm_ops(n), census._sn_generators(n)
    return sorted(g for x in products for (g,) in conjugation_orbit(ops, (x,), sn_gens))


@functools.lru_cache(maxsize=None)
def sn_class_scan(n, primes, cap=None):
    """The S_n-classes of subgroups of S_n generated by elements of the given
    prime orders (prime_order_codes), of primes-smooth order
    (census._scan_keep) at most cap, by the lattice scan of S_n up to
    conjugacy under (1 2 ... n) and (1 2): a dict from each class
    representative to (its generators, its class), code sets. Cached; the
    callers only read it."""
    from agroups import census
    from agroups.cayley import subgroup_lattice
    from agroups.perm import perm_ops

    universe = prime_order_codes(n, primes)
    keep = census._scan_keep(primes)
    return subgroup_lattice(perm_ops(n), universe, cap, keep, census._sn_generators(n))


def sn_scan_transitive_classes(n, q, r):
    """(generators, class) of every S_n-class of transitive subgroups of S_n
    in the [q, r] variety, from sn_class_scan under the soluble order bound
    (order^2 <= 6^(n-1) iff order <= isqrt(6^(n-1))), with n | order and the
    orbit of point 0 as the transitivity test; none unless n is {q, r}-smooth."""
    from agroups import census
    from agroups.cayley import in_variety
    from agroups.perm import perm_ops

    if not census._divides_primes(n, (q, r)):
        return []
    ops = perm_ops(n)
    return [
        (gens, cls)
        for elems, (gens, cls) in sn_class_scan(n, (q, r), math.isqrt(6 ** (n - 1))).items()
        if len(elems) % n == 0
        and len({g[0] for g in elems}) == n
        and in_variety(ops, [q, r], gens)
    ]


def sn_scan_transitive_inventory(n, q, r):
    """The transitive inventory at any degree from the S_n class scan: the
    route enumerate_transitive_classes took before it went through the
    affine normaliser and the wreath products."""
    from agroups import census

    classes = [cls for _, cls in sn_scan_transitive_classes(n, q, r)]
    return census._build_inventory(n, q, r, classes, f"transitive, variety [{q}, {r}]")


def generic_primitive_inventory(n, q, r):
    """The primitive inventory from the S_n class scan, at any degree: the
    transitive classes in the variety, each tested for blocks on the
    generators the scan built its first member from, and sized by the
    length of its S_n-class."""
    from agroups import census
    from agroups.perm import PermGroup

    classes = [
        cls for gens, cls in sn_scan_transitive_classes(n, q, r) if PermGroup(n, gens).is_primitive()
    ]
    return census._build_inventory(n, q, r, classes, f"primitive, variety [{q}, {r}]")


def pairwise_inventory(kind, n, q, r):
    """The inventory enumerate_<kind>_classes(n, q, r) returns (kind
    "transitive" or "primitive"; "primitive_ar" for
    enumerate_primitive_ar_classes(n, q), r unused), from every member
    subgroup: the full lattice scan and the filters, then classes by testing
    each member, in set_key order, against the first member of every class
    so far with subgroup_conjugate."""
    from agroups import census
    from agroups.cayley import in_variety
    from agroups.perm import group_from_set, perm_ops, set_key, subgroup_conjugate

    ops = perm_ops(n)

    def primitive(elems):
        grp = group_from_set(n, elems)
        return is_transitive(n, grp.generators) and grp.is_primitive()

    if kind == "primitive_ar":
        scan = full_sn_scan(n, (q,), n, True)
        members = [elems for elems, _ in scan if len(elems) == n and primitive(elems)]
        r, desc = q, f"primitive, variety [{q}]"
    elif kind == "primitive" and n in (7, 8):
        u, candidates = regular_normal_candidates(n)
        members = [
            elems
            for elems, gens in candidates
            if u in (q, r)
            and census._divides_primes(len(elems), (q, r))
            and primitive(elems)
            and in_variety(ops, [q, r], gens)
        ]
        desc = f"primitive, variety [{q}, {r}]"
    elif not census._divides_primes(n, (q, r)):
        members, desc = [], f"{kind}, variety [{q}, {r}]"  # n divides a transitive order
    else:
        scan = full_sn_scan(n, tuple(sorted((q, r))), math.isqrt(6 ** (n - 1)), False)
        members = [
            elems
            for elems, gens in scan
            if len(elems) % n == 0
            and is_transitive(n, group_from_set(n, elems).generators)
            and in_variety(ops, [q, r], gens)
            and (kind == "transitive" or primitive(elems))
        ]
        desc = f"{kind}, variety [{q}, {r}]"
    classes = []
    for grp in (group_from_set(n, m) for m in sorted(set(members), key=set_key)):
        cls = next(
            (
                c
                for c in classes
                if c[0].order == grp.order and subgroup_conjugate(c[0], grp) is not None
            ),
            None,
        )
        if cls is None:
            classes.append([grp])
        else:
            cls.append(grp)
    entries = [
        census.ClassEntry(c[0], c[0].order, census._signature(c[0].order, q, r), len(c))
        for c in classes
    ]
    entries.sort(key=lambda e: (e.signature, e.order))
    if kind == "primitive_ar":
        entries = [
            census.ClassEntry(e.representative, e.order, (0, e.signature[1]), e.class_size)
            for e in entries
        ]
    return census.ClassInventory(f"S{n}", n, desc, tuple(entries))


# -- the counting bounds on Fractions ------------------------------------------------------


class FractionLogBound:
    """constant + sum of coeff * log2(base) with Fraction coefficients: the
    rational LogBound that agroups.bounds replaced by integers over one
    denominator. It shares only the fixed-point log2 enclosure and the print
    limit with the engine, so every interval end, verdict and printed string
    of the integer form is checked against plain rational arithmetic."""

    def __init__(self, constant, terms):
        self.constant, self.terms = constant, terms

    @staticmethod
    def build(constant, term_map):
        from agroups.errors import InvalidParams

        merged = {}
        for base, coeff in term_map.items() if isinstance(term_map, dict) else term_map:
            base = int(base)
            coeff = Fraction(coeff)
            if base < 1:
                raise InvalidParams(f"log base {base} must be a positive integer")
            if base == 1 or coeff == 0:
                continue
            merged[base] = merged.get(base, Fraction(0)) + coeff
        terms = tuple(sorted((b, c) for b, c in merged.items() if c != 0))
        return FractionLogBound(Fraction(constant), terms)

    def log2_interval(self, prec):
        from agroups.bounds import _log2_fixed

        lo = hi = Fraction(self.constant)
        unit = Fraction(1, 1 << prec)
        for base, coeff in self.terms:
            blo, bhi = _log2_fixed(base, prec)
            blo, bhi = blo * unit, bhi * unit
            if coeff >= 0:
                lo += coeff * blo
                hi += coeff * bhi
            else:
                lo += coeff * bhi
                hi += coeff * blo
        return lo, hi

    def approx_log2(self):
        lo, hi = self.log2_interval(64)
        return float((lo + hi) / 2)

    def exact_int(self):
        if self.constant.denominator != 1 or self.constant < 0:
            return None
        value = 1 << int(self.constant)
        for base, coeff in self.terms:
            if coeff.denominator != 1 or coeff < 0:
                return None
            value *= base ** int(coeff)
        return value

    def exact_cmp_count(self, count):
        """-1, 0, 1 for count <, =, > the bound value: count^d against the
        powered bases, d the lcm of the denominators."""
        if count == 0:
            return -1
        denoms = [self.constant.denominator] + [c.denominator for _, c in self.terms]
        d = math.lcm(*denoms)
        lhs, rhs = count**d, 1
        c0 = self.constant * d
        if c0 >= 0:
            rhs <<= int(c0)
        else:
            lhs <<= int(-c0)
        for base, coeff in self.terms:
            e = int(coeff * d)
            if e >= 0:
                rhs *= base**e
            else:
                lhs *= base ** (-e)
        return (lhs > rhs) - (lhs < rhs)

    def interval_verdict(self, count, prec):
        from agroups.bounds import _log2_fixed

        if count == 0:
            return "LE"
        clo, chi = (Fraction(x, 1 << prec) for x in _log2_fixed(count, prec))
        blo, bhi = self.log2_interval(prec)
        if chi < blo or (clo == chi == blo == bhi):
            return "LE"
        if clo > bhi:
            return "GT"
        return None

    def compare_count(self, count):
        for prec in (32, 64, 128, 256):
            verdict = self.interval_verdict(count, prec)
            if verdict is not None:
                return verdict
        return "LE" if self.exact_cmp_count(count) <= 0 else "GT"

    def to_json(self):
        from agroups.bounds import PRINTED_DIGITS, _digits, printable
        from agroups.errors import LimitExceeded

        for base, _ in self.terms:
            if not printable(base):
                raise LimitExceeded(
                    f"a term base of the bound has {_digits(base)} decimal digits,"
                    f" over the print limit PRINTED_DIGITS = {PRINTED_DIGITS}"
                )
        lo, hi = self.log2_interval(64)
        out = {
            "log2": {"lower": str(lo), "upper": str(hi), "approx": round(self.approx_log2(), 6)},
            "constant": str(self.constant),
            "terms": [{"base": b, "coeff": str(c)} for b, c in self.terms],
        }
        exact = self.exact_int() if 3 * lo <= 10 * PRINTED_DIGITS else None
        if exact is not None and printable(exact):
            out["exact"] = exact
        return out


# -- reports ----------------------------------------------------------------


def validate_report(report: dict) -> list[str]:
    """Minimal structural validator of a report against the published
    agroups.report.REPORT_SCHEMA, for the subset of JSON schema it uses.

    Returns a list of problems; empty means valid.
    """
    problems = []

    def check(value, spec, where):
        kinds = spec.get("type")
        if kinds is not None:
            kinds = [kinds] if isinstance(kinds, str) else kinds
            ok = False
            for kind in kinds:
                if kind == "object" and isinstance(value, dict):
                    ok = True
                elif kind == "array" and isinstance(value, list):
                    ok = True
                elif kind == "string" and isinstance(value, str):
                    ok = True
                elif kind == "integer" and isinstance(value, int) and not isinstance(value, bool):
                    ok = True
                elif kind == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
                    ok = True
                elif kind == "null" and value is None:
                    ok = True
            if not ok:
                problems.append(f"{where}: expected {kinds}, got {type(value).__name__}")
                return
        if "enum" in spec and value not in spec["enum"]:
            problems.append(f"{where}: {value!r} not in enum")
        if isinstance(value, dict):
            for req in spec.get("required", []):
                if req not in value:
                    problems.append(f"{where}: missing required key {req!r}")
            for key, sub in spec.get("properties", {}).items():
                if key in value:
                    check(value[key], sub, f"{where}.{key}")
        if isinstance(value, list) and "items" in spec:
            for i, item in enumerate(value):
                check(item, spec["items"], f"{where}[{i}]")

    check(report, REPORT_SCHEMA, "$")
    return problems
