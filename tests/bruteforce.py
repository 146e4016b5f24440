"""Independent brute-force oracles used by the tests.

Nothing here imports the package's search machinery; these are the slow,
obviously-correct reference computations the engine is checked against.
The block-partition brute force lives in agroups.selftest, whose criteria
run it too; it shares no code with the block search it checks.
"""

import itertools

from agroups.selftest import naive_is_primitive  # noqa: F401


# -- permutations as raw image tuples (1-based) ------------------------------


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

    def gens_key(g):
        return tuple(m.entries for m in g.generators)

    reps = [min(cls, key=gens_key) for cls in classes]
    reps.sort(key=lambda g: (g.order, gens_key(g)))
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


# -- square matrices as rows of FieldElem ---------------------------------------


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
