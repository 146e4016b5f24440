"""Exact arithmetic in GF(t^k), plus the small number-theory helpers used
throughout the engine (primality, factorisation, multiplicative orders).

Fields stay desk-scale (t^k <= FIELD_SIZE_LIMIT) so direct scans beat any
clever algorithm; multiplicative orders are found by plain iteration.

Conventions:
  * polynomials are coefficient tuples in ascending degree,
  * the degree-1 modulus is x itself, so GF(t) elements are single residues,
  * the canonical modulus for (t, k) is the lexicographically least monic
    irreducible polynomial, comparing coefficients from highest to lowest
    degree.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import NamedTuple

from .errors import BadModulus, FieldMismatch, LimitExceeded, NotCoprime, NotPrime

FIELD_SIZE_LIMIT = 10_000
# matrix work runs on s x s index tables, about 26 MB in all at this size
FIELD_TABLE_LIMIT = 1024


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division: {prime: exponent}."""
    if n < 1:
        raise ValueError("prime_factors needs a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Least e >= 1 with a^e = 1 (mod m), by direct iteration."""
    if m < 2:
        raise BadModulus(f"modulus {m} must be at least 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible mod {m}")
    e, x = 1, a
    while x != 1:
        x = x * a % m
        e += 1
    return e


# ---------------------------------------------------------------------------
# polynomials over GF(t), as int tuples in ascending degree


def _poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _poly_mod_div(num, den, t):
    """Remainder of num / den over GF(t); den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % t
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % t
    return _poly_trim([c % t for c in num[:dd]])


def _monic_polys(degree, t):
    """All monic degree-d polynomials over GF(t), ascending coefficient tuples."""
    for lower in itertools.product(range(t), repeat=degree):
        yield lower + (1,)


def _is_irreducible_int(poly, t):
    # no monic factor of degree <= deg/2 divides it; exhaustive at desk scale
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(d, t):
            if not _poly_mod_div(poly, div, t):
                return False
    return True


class FieldSpec:
    """A concrete GF(t^k): prime t, degree k, monic irreducible modulus."""

    __slots__ = ("t", "k", "modulus")

    def __init__(self, t: int, k: int, modulus: tuple[int, ...]):
        self.t, self.k, self.modulus = t, k, modulus

    def _key(self) -> tuple:
        return self.t, self.k, self.modulus

    def __eq__(self, other):
        return type(other) is FieldSpec and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def s(self) -> int:
        return self.t**self.k

    def from_index(self, i: int) -> "FieldElem":
        """Element number i in the canonical order (base-t digits, c0 first)."""
        coeffs = []
        for _ in range(self.k):
            coeffs.append(i % self.t)
            i //= self.t
        return FieldElem(self, tuple(coeffs))

    def elements(self):
        """All s field elements in canonical order."""
        return [self.from_index(i) for i in range(self.s)]

    @property
    def tables(self) -> "FieldTables":
        """Arithmetic on element indices; built on first use, once per field."""
        return _field_tables(self)

    def to_json(self) -> dict:
        return {"t": self.t, "k": self.k, "modulus": list(self.modulus)}


class FieldElem:
    """Element of GF(t^k): k coefficients on the basis 1, x, ..., x^(k-1).
    Its polynomial +, -, unary - and * are what the index tables are read
    from; the engine multiplies, inverts and takes orders on the tables."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec, self.coeffs = spec, coeffs

    def _key(self) -> tuple:
        return self.spec, self.coeffs

    def __eq__(self, other):
        return type(other) is FieldElem and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _check(self, other):
        if self.spec != other.spec:
            raise FieldMismatch("operands belong to different fields")

    @property
    def index(self) -> int:
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.spec.t + c
        return i

    def __add__(self, other):
        self._check(other)
        t = self.spec.t
        return FieldElem(self.spec, tuple((a + b) % t for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        t = self.spec.t
        return FieldElem(self.spec, tuple((a - b) % t for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        t = self.spec.t
        return FieldElem(self.spec, tuple((-a) % t for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        t = self.spec.t
        k = self.spec.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % t
        rem = _poly_mod_div(tuple(prod), self.spec.modulus, t)
        return FieldElem(self.spec, rem + (0,) * (k - len(rem)))


class FieldTables(NamedTuple):
    """GF(s) arithmetic on element indices: index 0 is zero, index 1 is one.
    add/sub/mul are s x s; inv[0] is 0 and stands for no inverse."""

    add: tuple[tuple[int, ...], ...]
    sub: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]


@lru_cache(maxsize=8)
def _field_tables(spec: FieldSpec) -> FieldTables:
    # read off the polynomial arithmetic once; the engine only looks these up
    if spec.s > FIELD_TABLE_LIMIT:
        raise LimitExceeded(f"s = {spec.s} exceeds the field table limit {FIELD_TABLE_LIMIT}")
    elems = spec.elements()
    ids = tuple(range(spec.s))  # one int object per index, shared by all rows

    def table(op):
        return tuple(tuple(ids[op(a, b).index] for b in elems) for a in elems)

    mul = table(operator.mul)
    return FieldTables(
        add=table(operator.add),
        sub=table(operator.sub),
        mul=mul,
        neg=tuple((-a).index for a in elems),
        inv=tuple(row.index(1) if i else 0 for i, row in enumerate(mul)),
    )


def field_make(t: int, k: int) -> FieldSpec:
    """Build GF(t^k) with the canonical (lexicographically least) modulus."""
    if not is_prime(t):
        raise NotPrime(f"{t} is not prime")
    if k < 1:
        raise LimitExceeded("k must be at least 1")
    if t**k > FIELD_SIZE_LIMIT:
        raise LimitExceeded(f"t^k = {t ** k} exceeds the field size limit {FIELD_SIZE_LIMIT}")
    if k == 1:
        return FieldSpec(t, 1, (0, 1))
    # scan coefficient tuples (c_{k-1}, ..., c_0), highest degree first
    for high_to_low in itertools.product(range(t), repeat=k):
        poly = tuple(reversed(high_to_low)) + (1,)
        if _is_irreducible_int(poly, t):
            return FieldSpec(t, k, poly)
    raise AssertionError("no irreducible polynomial found; unreachable for prime t")
