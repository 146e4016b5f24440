"""Exact arithmetic in GF(t^k), plus the small number-theory helpers used
throughout the engine (primality, factorisation, multiplicative orders).

Fields stay desk-scale (t^k <= FIELD_SIZE_LIMIT) so direct scans beat any
clever algorithm. Primality and factoring share one cached trial-division
search for the least prime factor, within TRIAL_DIVISION_LIMIT; a
multiplicative order is phi(m) with primes divided out. An element is its
index, the base-t number of its coefficients on 1, x, ..., x^(k-1);
FieldSpec.tables adds digit by digit and multiplies through the powers of
the first element of order s - 1 (exp/log tables).

Conventions:
  * polynomials are coefficient tuples in ascending degree (element indices
    over GF(s)); _poly_rem and _least_irreducible are the one remainder and
    the one irreducibility search,
  * the degree-1 modulus is x itself, so GF(t) elements are single residues
    and GF(t)'s tables need no search,
  * the canonical modulus for (t, k) is the lexicographically least monic
    irreducible polynomial, comparing coefficients from highest to lowest
    degree.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import BadModulus, LimitExceeded, NotCoprime, NotPrime

FIELD_SIZE_LIMIT = 10_000
# matrix work runs on s x s index tables, about 26 MB in all at this size
FIELD_TABLE_LIMIT = 1024


# The most decimal digits a report or message prints of an integer: Python's
# default int-to-str limit, fixed here so that output does not depend on the
# limit an interpreter is run with. Longer integers are left out or named.
PRINTED_DIGITS = 4300

# the trial divisions one search for a least prime factor may make
TRIAL_DIVISION_LIMIT = 10**6


def printable(n: int) -> bool:
    """n has at most PRINTED_DIGITS decimal digits."""
    return abs(n) < 10**PRINTED_DIGITS


def printable_product(powers) -> int | None:
    """The product of b**e over the pairs (b, e), b >= 2 and e >= 0, when it
    is printable, else None. As b**e >= 2**(e * (b.bit_length() - 1)) and
    log2(10) < 10/3, a product that this bound puts past the print limit is
    never formed; one that is formed has at most twice the bound's bits."""
    if 3 * sum(e * (b.bit_length() - 1) for b, e in powers) > 10 * PRINTED_DIGITS:
        return None
    n = math.prod(b**e for b, e in powers)
    return n if printable(n) else None


@lru_cache(maxsize=1024)
def _least_factor(n: int, limit: int) -> int | None:
    """The least prime factor of n >= 2 by trial division up to limit: n
    itself when none divides it, None when none does and n > limit^2 (no
    trial decides it). The one search behind is_prime, prime_factors and
    bounds' field-size check; cached, so a command searches each integer once."""
    for d in range(2, min(math.isqrt(n), limit) + 1):
        if n % d == 0:
            return d
    return n if n <= limit * limit else None


def _least_prime_factor(n: int) -> int:
    """_least_factor within TRIAL_DIVISION_LIMIT, LimitExceeded when no trial decides n."""
    least = _least_factor(n, TRIAL_DIVISION_LIMIT)
    if least is None:
        shown = n if printable(n) else f"an integer of over {PRINTED_DIGITS} digits"
        raise LimitExceeded(
            f"{shown} has no prime factor up to {TRIAL_DIVISION_LIMIT}:"
            " its primality is beyond the trial-division budget"
        )
    return least


def is_prime(n: int) -> bool:
    """By trial division. An n above TRIAL_DIVISION_LIMIT squared with no
    factor up to the limit is LimitExceeded: no trial decides it."""
    return n >= 2 and _least_prime_factor(n) == n


def prime_factors(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division: {prime: exponent}. A
    cofactor that is_prime would refuse is LimitExceeded."""
    if n < 1:
        raise ValueError("prime_factors needs a positive integer")
    out: dict[int, int] = {}
    while n > 1:
        d = _least_prime_factor(n)
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Least e >= 1 with a^e = 1 (mod m). It divides phi(m): start from
    phi(m) and divide each of its primes out while a^e stays 1."""
    if m < 2:
        raise BadModulus(f"modulus {m} must be at least 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible mod {m}")
    e = math.prod((t - 1) * t ** (k - 1) for t, k in prime_factors(m).items())
    for t in prime_factors(e):
        while e % t == 0 and pow(a, e // t, m) == 1:
            e //= t
    return e


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

    def coefficients(self, i: int) -> tuple[int, ...]:
        """The k coefficients of element number i: its base-t digits, c0 first."""
        return tuple(i // self.t**j % self.t for j in range(self.k))

    @property
    def tables(self) -> "FieldTables":
        """Arithmetic on element indices; built on first use, once per field."""
        return _field_tables(self)

    def to_json(self) -> dict:
        return {"t": self.t, "k": self.k, "modulus": list(self.modulus)}


class FieldTables:
    """GF(s) arithmetic on element indices: index 0 is zero, index 1 is one.
    add/sub/mul are s x s tuples of rows, neg and inv tuples; inv[0] is 0 and
    stands for no inverse."""

    __slots__ = ("add", "sub", "mul", "neg", "inv")

    def __init__(self, add, sub, mul, neg, inv):
        self.add, self.sub, self.mul, self.neg, self.inv = add, sub, mul, neg, inv


def _times(v: list, g: list, modulus, t: int) -> list:
    """v * g mod the modulus, on coefficient lists, by Horner's rule on g:
    x * u is u shifted up, less its top coefficient times the modulus."""
    acc = [0] * len(v)
    for c in reversed(g):
        top = acc[-1]
        acc = [(lo - top * m + c * a) % t for lo, m, a in zip([0] + acc[:-1], modulus, v)]
    return acc


def _primitive_powers(spec: FieldSpec) -> list[int]:
    """g^0, ..., g^(s-2) as element indices, g the first element of
    multiplicative order s - 1."""
    t, one = spec.t, [1] + [0] * (spec.k - 1)
    place = [t**j for j in range(spec.k)]
    for i in range(1, spec.s):
        g = list(spec.coefficients(i))
        powers, v = [1], g
        while v != one:
            powers.append(sum(c * p for c, p in zip(v, place)))
            v = _times(v, g, spec.modulus, t)
        if len(powers) == spec.s - 1:
            return powers
    raise AssertionError("GF(s)* has no generator; unreachable for an irreducible modulus")


@lru_cache(maxsize=8)
def _field_tables(spec: FieldSpec) -> FieldTables:
    # addition digit by digit; multiplication through the powers of one
    # primitive element g, mul[a][b] = g^(log a + log b)
    t, s = spec.t, spec.s
    if s > FIELD_TABLE_LIMIT:
        raise LimitExceeded(f"s = {s} exceeds the field table limit {FIELD_TABLE_LIMIT}")
    ids = tuple(range(s))  # one int object per index, shared by all rows
    add, neg, m = [(0,)], [0], 1  # on the low digits; one more digit a round
    for _ in range(spec.k):
        add = [
            tuple(ids[x + m * ((high + b) % t)] for b in range(t) for x in low)
            for high in range(t)
            for low in add
        ]
        neg = [ids[x + m * (-high % t)] for high in range(t) for x in neg]
        m *= t
    # exp twice over needs no reduction mod s - 1; the log of zero, 2(s - 1),
    # takes every sum with it into the zeros after that
    exp = [ids[e] for e in _primitive_powers(spec)] * 2 + [0] * (2 * s - 1)
    logs = [2 * s - 2] + sorted(range(s - 1), key=exp.__getitem__)
    return FieldTables(
        add=tuple(add),
        sub=tuple(tuple(row[n] for n in neg) for row in add),
        mul=tuple(tuple(exp[e + f] for f in logs) for e in logs),
        neg=tuple(neg),
        inv=(0,) + tuple(exp[-e % (s - 1)] for e in logs[1:]),
    )


# ---------------------------------------------------------------------------
# polynomials over GF(s): tuples of element indices in ascending degree


def _poly_rem(num, div, tab: FieldTables) -> tuple[int, ...]:
    """Remainder of num modulo the monic div, with deg div coefficients."""
    num, dd = list(num), len(div) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i]:
            mf = tab.mul[num[i]]
            num[i - dd : i + 1] = [tab.sub[a][mf[b]] for a, b in zip(num[i - dd : i + 1], div)]
    return tuple(num[:dd])


@lru_cache(maxsize=32)
def _least_irreducible(spec: FieldSpec, degree: int) -> tuple[int, ...]:
    """Least monic irreducible degree-d polynomial over the field, comparing
    coefficients from highest to lowest degree: no monic factor of degree at
    most d/2 divides it (exhaustive at desk scale)."""
    tab, s = spec.tables, spec.s
    for high_to_low in itertools.product(range(s), repeat=degree):
        poly = high_to_low[::-1] + (1,)
        if all(
            any(_poly_rem(poly, lower + (1,), tab))
            for d in range(1, degree // 2 + 1)
            for lower in itertools.product(range(s), repeat=d)
        ):
            return poly
    raise AssertionError("no irreducible polynomial over the field; unreachable")


def field_make(t: int, k: int) -> FieldSpec:
    """Build GF(t^k) with the canonical (lexicographically least) modulus."""
    if not is_prime(t):
        raise NotPrime(f"{t} is not prime")
    if k < 1:
        raise LimitExceeded("k must be at least 1")
    if t**k > FIELD_SIZE_LIMIT:
        raise LimitExceeded(f"t^k = {t ** k} exceeds the field size limit {FIELD_SIZE_LIMIT}")
    prime_field = FieldSpec(t, 1, (0, 1))  # its tables are residues mod t
    return prime_field if k == 1 else FieldSpec(t, k, _least_irreducible(prime_field, k))
