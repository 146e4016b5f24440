"""The S_n subgroup inventories and the three-prime variety census.

No inventory scans S_n. A primitive soluble group is affine, so the
primitive inventories, two-prime and single-prime, go at every degree
through the normalizer of one regular elementary abelian subgroup T, the
translations of GF(u)^k, which is the least of its S_n-class. Its point
stabiliser N(T)_0 is GL(k, u), and the targets are written down: T itself
at prime degree, and T.E for one E per GL-class of irreducible elementary
abelian r-subgroups of GL(k, q), the class scan classify-gl runs. A
transitive group is primitive, or it lies in the stabiliser S_a wr S_(n/a)
of a block system, so the transitive inventories add to the primitive
targets the transitive subgroups found by a lattice scan of each such
wreath product.
Each class is the conjugation orbit of its first member under the
generators (1 2 ... n) and (1 2) of S_n.

The variety census builds every group of order p^a q^b r^c in the three-prime
variety as an iterated split extension P x| (Q x| R) with elementary abelian
layers, enumerating the action homomorphisms up to GL-conjugacy (conjugate
actions give isomorphic extensions, so one per orbit under GL's generators is
complete) and deduplicating the tables by isomorphism within the block of
each acting group, as tables over different ones are never isomorphic. GL,
the actions and the split extensions they build run on matrix codes, as does
the exhaustive subgroup scan of small GL.
"""

from __future__ import annotations

from functools import lru_cache

from .cayley import (
    CayleyGroup,
    VarietyParams,
    _element_orders,
    _linear_points,
    _vector_sums,
    are_isomorphic,
    conjugation_orbit,
    elementary_abelian_table,
    fitting_subgroup,
    homomorphisms_to_mats,
    in_variety,
    subgroup_closure,
    subgroup_lattice,
)
from .construct import _check_pair, semidirect_product
from .errors import DegreeLimit, InvalidParams, LimitExceeded, NotPrime
from .gf import FieldSpec, field_make, is_prime, prime_factors
from .matgrp import (
    MatGroup,
    _greedy_gens,
    gl_elements,
    gl_generators,
    irreducible_elem_abelian_r_classes,
    is_irreducible,
    mat_ops,
)
from .perm import (
    PermGroup,
    extend_set,
    group_from_set,
    perm_ops,
    permgroup_to_json,
    set_key,
)

TRANSITIVE_DEGREE_LIMIT = 7
PRIMITIVE_DEGREE_LIMIT = 8
CENSUS_ORDER_LIMIT = 400


class ClassEntry:
    __slots__ = ("representative", "order", "signature", "class_size")

    def __init__(self, representative: PermGroup, order: int, signature: tuple, class_size: int):
        self.representative, self.order = representative, order
        self.signature, self.class_size = signature, class_size

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "signature": list(self.signature),
            "class_size": self.class_size,
            "generators": permgroup_to_json(self.representative)["generators"],
        }


class ClassInventory:
    __slots__ = ("context", "degree", "filter_desc", "classes")

    def __init__(self, context: str, degree: int, filter_desc: str, classes: tuple):
        self.context, self.degree = context, degree
        self.filter_desc, self.classes = filter_desc, classes

    @property
    def count(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "filter": self.filter_desc,
            "classes": [c.to_json() for c in self.classes],
        }


class VarietyCensus:
    __slots__ = ("params", "groups")

    def __init__(self, params: VarietyParams, groups: tuple[CayleyGroup, ...]):
        self.params, self.groups = params, groups

    @property
    def count(self) -> int:
        return len(self.groups)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "count": self.count,
            "representatives": [g.to_json() for g in self.groups],
            "signatures": [g.fingerprint() for g in self.groups],
        }


def _divides_primes(order: int, primes) -> bool:
    for u in primes:
        while order % u == 0:
            order //= u
    return order == 1


def _scan_keep(primes):
    """The keep of the transitive inventories' lattice scans of the wreath
    products: the subgroups of primes-smooth order. Its rejection is
    upward-closed, as subgroup_lattice requires: by Lagrange, an overgroup
    of a subgroup whose order is not primes-smooth is not either; and it is
    invariant under conjugation."""
    return lambda sub: _divides_primes(len(sub), primes)


def _sn_generators(n) -> tuple:
    """(1 2 ... n) and (1 2) as codes, generators of S_n; none at n = 1."""
    if n < 2:
        return ()
    return tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))


def _signature(order: int, q: int, r: int) -> tuple[int, int]:
    factors = prime_factors(order) if order > 1 else {}
    return factors.get(q, 0), factors.get(r, 0)


def _check_degree(n: int, limit: int, scan: str):
    if n < 1:
        raise InvalidParams(f"degree {n} is not positive")
    if n > limit:
        raise DegreeLimit(f"degree {n} exceeds the {scan} scan limit")


def _build_inventory(n, q, r, classes, filter_desc) -> ClassInventory:
    """The entries of the given classes (lists of code sets, conjugation
    orbits): each is represented by its least member by set_key and sized by
    its length. The entries are in order of representative, then stably by
    signature and order."""
    entries = []
    for key, size in sorted((min(map(set_key, cls)), len(cls)) for cls in classes):
        rep = group_from_set(n, key)
        entries.append(ClassEntry(rep, rep.order, _signature(rep.order, q, r), size))
    entries.sort(key=lambda e: (e.signature, e.order))
    return ClassInventory(f"S{n}", n, filter_desc, tuple(entries))


def _wreath_generators(a: int, b: int) -> tuple:
    """Generators of S_a wr S_b on the n = a b points, as codes: S_a's on the
    block 0, ..., a - 1 and S_b's permuting the blocks i a, ..., i a + a - 1
    as wholes. The block moves carry S_a to every block, so they generate
    the stabiliser of the block system, of order (a!)^b b!."""
    n = a * b
    on_block = [g + tuple(range(a, n)) for g in _sn_generators(a)]
    of_blocks = [tuple(g[x // a] * a + x % a for x in range(n)) for g in _sn_generators(b)]
    return tuple(dict.fromkeys(on_block + of_blocks))


def enumerate_transitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of transitive two-prime-variety subgroups of S_n,
    each sized by the length of its S_n-class (A. Hulpke, J. Symbolic
    Comput. 39, 2005). A transitive group is primitive, so a target of
    _affine_primitive_groups, or it has blocks of some size a, 1 < a < n, and
    is conjugate into S_a wr S_(n/a) (Krasner-Kaloujnine). A group in the
    variety is N x| R with N and R elementary abelian (Schur-Zassenhaus), so
    it is generated by its elements of order q and r, the universe of each
    wreath product's scan. Its order is divisible by n: unless n is
    {q, r}-smooth there is none."""
    _check_pair(q, r)
    _check_degree(n, TRANSITIVE_DEGREE_LIMIT, "transitive")
    chain, ops, sn_gens = (q, r), perm_ops(n), _sn_generators(n)
    targets, _ = _affine_primitive_groups(n, chain)
    classes = [conjugation_orbit(ops, g, sn_gens) for g in targets]
    found = {g for cls in classes for g in cls}
    block_sizes = [a for a in range(2, n) if n % a == 0] if _divides_primes(n, chain) else []
    for a in block_sizes:
        wreath = _wreath_generators(a, n // a)
        elems = sorted(subgroup_closure(ops, wreath))
        universe = [g for g, o in zip(elems, _element_orders(ops, elems)) if o in chain]
        lattice = subgroup_lattice(ops, universe, keep=_scan_keep(chain), conjugators=wreath)
        for sub, (gens, _) in lattice.items():
            # transitive when the orbit of point 0 is every point
            if sub not in found and len({g[0] for g in sub}) == n and in_variety(ops, chain, gens):
                classes.append(conjugation_orbit(ops, sub, sn_gens))
                found.update(classes[-1])
    return _build_inventory(n, q, r, classes, f"transitive, variety [{q}, {r}]")


def enumerate_primitive_classes(n: int, q: int, r: int) -> ClassInventory:
    """Conjugacy classes of primitive two-prime-variety subgroups of S_n.

    Every degree runs the affine route (_affine_primitive_groups). Up to
    degree 6 a class is the whole S_n-class of a target T.E, and its size is
    that class's length. At degrees 7 and 8 a class is the N(T)_0-class of
    T.E, and its size counts the members of the S_n-class that contain T:
    n!/(n |Aut T|) times fewer, since the S_n-class holds one N(T)_0-class
    per conjugate of T.
    """
    _check_pair(q, r)
    _check_degree(n, PRIMITIVE_DEGREE_LIMIT, "primitive")
    targets, stab_gens = _affine_primitive_groups(n, (q, r))
    conjugators = stab_gens if n in (7, 8) else _sn_generators(n)
    classes = [conjugation_orbit(perm_ops(n), g, conjugators) for g in targets]
    return _build_inventory(n, q, r, classes, f"primitive, variety [{q}, {r}]")


def enumerate_primitive_ar_classes(n: int, r: int) -> ClassInventory:
    """Primitive single-prime-variety (elementary abelian r) subgroups of S_n,
    by the affine route, each class the whole S_n-class and sized by its
    length. A primitive abelian group is regular of prime degree, so the
    inventory holds C_r at n = r and the trivial group at n = 1."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    _check_degree(n, PRIMITIVE_DEGREE_LIMIT, "primitive")
    targets, _ = _affine_primitive_groups(n, (r,))
    classes = [conjugation_orbit(perm_ops(n), g, _sn_generators(n)) for g in targets]
    # q = 1 gives the single-prime signature (0, r-exponent)
    return _build_inventory(n, 1, r, classes, f"primitive, variety [{r}]")


def _affine_primitive_groups(n: int, chain) -> tuple[list[frozenset], tuple]:
    """The primitive subgroups of S_n in the variety of the chain ([q, r] or
    [r]), one T.E per N(T)_0-class, as code sets, with generators of N(T)_0.

    A group in the variety is soluble, and a primitive soluble group is
    affine: its one minimal normal subgroup T is regular elementary abelian
    of order n = u^k (Dixon & Mortimer, Permutation Groups, GTM 163), so u
    must be one of the chain's primes; otherwise there is none. The trivial
    group of degree 1 is the case k = 0, with T trivial. All regular copies
    of (C_u)^k are conjugate in S_n; fix their least member T by set_key,
    and every target is conjugate to T.S for a subgroup S of N(T)_0, the
    point stabiliser of the normalizer. An element of N(T)_0 induces an
    automorphism of T, a linear map M as u is prime, and it is the point map
    v -> v M: so N(T)_0 is GL(k, u), generated by the point maps of GL's
    generators (gl_generators).

    T is the translations of GF(u)^k, the points numbered by their base-u
    digits: the rows of its addition table (_vector_sums). A regular T holds
    one element t_i taking 0 to each point i, so its sorted codes are the
    rows t_i = (x -> x * i) of the Cayley table of a group law on the points
    with 0 as identity, and the least T is the least such table, row by
    row. Entry by entry the least choice is forced: row 1 makes 0, 1, ...,
    u - 1 the powers of t_1 and each run of u points from a multiple of u a
    coset of them; row u then makes u a new generator and each run of u^2
    points a coset of <t_1, t_u>; and so on for u^2, ..., u^(k-1). That is
    digitwise addition. The tests check it against the least regular member
    of the class scan at every prime power up to 9.

    The targets are written down. A target G = T.S in the variety has a
    normal subgroup N of exponent q with G/N elementary abelian of exponent
    r (N trivial for the chain [r]). If N is trivial, G is abelian, so
    regular of prime degree: G = T with k <= 1. Otherwise N is normal in a
    primitive group, so transitive, and abelian, so regular: N = T, u = q,
    and S = G/T is elementary abelian of exponent r, acting faithfully and
    irreducibly on T (an invariant subspace would give blocks). Conversely
    every such T.E is primitive and in the variety. So the targets are T at
    k <= 1 and, when u = q, T.E for one E per GL(k, q)-class of nontrivial
    irreducible elementary abelian r-subgroups (the class scan of
    classify-gl, irreducible_elem_abelian_r_classes), E's generators read
    off as point maps.

    E is taken up to N(T)_0-conjugacy: g in N(T)_0 maps T.E to T.E^g, and E
    is the point stabiliser of T.E, so each GL-class of E gives a class of
    targets T.E of the same length. No two such classes are conjugate in
    S_n: T is the only minimal normal subgroup of a primitive T.E (another
    would centralise T, which is its own centraliser), so a conjugation
    between targets fixes T, lies in N(T) = T.N(T)_0 and conjugates the E
    in N(T)_0.
    """
    factors = prime_factors(n) if n > 1 else {chain[0]: 0}
    if len(factors) != 1:
        return [], ()  # degree is not a prime power: no regular abelian copy
    ((u, k),) = factors.items()
    if u not in chain:
        return [], ()
    rows = _vector_sums(u, k)
    targets = [frozenset(rows)] if k <= 1 else []
    if not k:
        return targets, ()
    field = field_make(u, 1)
    stab_gens = tuple(_linear_points(u, k, M) for M in gl_generators(k, field))
    if len(chain) == 2 and u == chain[0]:
        t_gens = [rows[u**j] for j in range(k)]
        for E in irreducible_elem_abelian_r_classes(k, field, chain[1]):
            gens, g_elems = list(t_gens), frozenset(rows)  # grows to T.E
            for x in (_linear_points(u, k, M) for M in E.generators):
                g_elems = extend_set(n, g_elems, gens, x)
                gens.append(x)
            targets.append(g_elems)
    return targets, stab_gens


# ---------------------------------------------------------------------------
# exhaustive subgroup scan of small GL (order bound oracle)


@lru_cache(maxsize=8)
def _gl_lattice(alpha: int, spec: FieldSpec):
    """Every subgroup of GL(alpha, s) with the generators that built it, as
    matrix codes, by order and then by sorted codes."""
    lattice = subgroup_lattice(mat_ops(alpha, spec), gl_elements(alpha, spec))
    return sorted(
        ((sub, gens) for sub, (gens, _) in lattice.items()),
        key=lambda kv: (len(kv[0]), sorted(kv[0])),
    )


def gl_variety_subgroup_details(alpha: int, spec: FieldSpec, q: int, r: int):
    """Order, irreducibility and Fitting-subgroup order of every two-prime-
    variety subgroup of GL(alpha, s), exhaustively over the subgroup lattice
    of the full linear group."""
    _check_pair(q, r)
    ops = mat_ops(alpha, spec)
    out = []
    for sub, gens in _gl_lattice(alpha, spec):
        if not in_variety(ops, [q, r], gens):
            continue
        group = MatGroup(spec, alpha, _greedy_gens(ops, sub), tuple(sorted(sub)))
        out.append(
            {
                "order": len(sub),
                "irreducible": is_irreducible(group),
                "fitting_order": len(fitting_subgroup(ops, sub, gens)),
            }
        )
    return out


# ---------------------------------------------------------------------------
# the three-prime census


def _action_orbit_reps(group: CayleyGroup, dim: int, u: int):
    """One action homomorphism group -> GL(dim, u) per GL-conjugacy class, as
    lists of image codes by element index: the first of each class in
    homomorphisms_to_mats order (conjugates of a homomorphism are
    homomorphisms, so a class holds exactly the conjugate actions)."""
    if dim == 0:
        return [None]
    field = field_make(u, 1)
    ops, gl = mat_ops(dim, field), gl_elements(dim, field)
    return homomorphisms_to_mats(group, ops, gl, gl_generators(dim, field))


def enumerate_variety_groups(params: VarietyParams) -> VarietyCensus:
    """Exact census of the three-prime variety at order n.

    Every member splits as P x| (Q x| R) with elementary abelian layers of
    orders p^alpha, q^beta, r^gamma (the head of each chain is the full Sylow
    subgroup and is normal), so enumerating all action homomorphisms is
    complete. Actions are taken up to GL-conjugacy, which loses no group:
    conjugate actions A and A^x give isomorphic split extensions, by
    (v, h) -> (v x, h). A layer's G = V x| H has V = GF(u)^d as its normal
    Sylow u-subgroup (u does not divide |H|), so G/V is H, and tables over
    different kept H are never isomorphic: each is compared only with the
    tables kept over its H, and the first of each class in its block stands
    for the class. The final sort by sorted element orders is stable, so
    ties keep the order they were built in: by H, then within its block.
    """
    p, q, r = params.p, params.q, params.r
    a, b, g = params.alpha, params.beta, params.gamma
    n = params.printable_n()
    if n is None or n > CENSUS_ORDER_LIMIT:
        shown = f"{p}^{a}*{q}^{b}*{r}^{g}" if n is None else n
        raise LimitExceeded(f"order {shown} exceeds the census limit {CENSUS_ORDER_LIMIT}")

    reps = [elementary_abelian_table(r, g)]
    for u, dim in ((q, b), (p, a)):  # the Q layer on R, then the P layer
        layer: list[CayleyGroup] = []
        for H in reps:
            block: list[CayleyGroup] = []  # the tables kept over H
            # each table is built when the comparison reaches it, so a layer
            # holds its kept tables and the candidate at hand
            for action in _action_orbit_reps(H, dim, u):
                G = semidirect_product(u, dim, action, H) if dim else H
                if not any(are_isomorphic(G, K) for K in block):
                    block.append(G)
            layer += block
        reps = layer
    reps.sort(key=lambda t: sorted(t.element_orders))
    return VarietyCensus(params, tuple(reps))
