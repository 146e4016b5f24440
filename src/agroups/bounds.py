"""Exact evaluation of the counting bounds.

A bound value is constant + sum coeff * log2(base) with rational
coefficients over integer bases (LogBound). Comparison against an integer
count runs outward-rounded interval arithmetic first, doubling the precision
until the intervals separate; exact equality (and any stubborn case) falls
through to a powered big-integer comparison, which is total here because
every coefficient is rational. Nothing is ever compared through floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParams, LimitExceeded
from .gf import is_prime

_INTERVAL_PRECISIONS = (32, 64, 128, 256)

# The most decimal digits a report or message prints of an integer: Python's
# default int-to-str limit, fixed here so that output does not depend on the
# limit an interpreter is run with. Longer integers are left out or named.
PRINTED_DIGITS = 4300


def printable(n: int) -> bool:
    """n has at most PRINTED_DIGITS decimal digits."""
    return abs(n) < 10**PRINTED_DIGITS


# the trial divisions the prime-power test of a field size may make
_TRIAL_DIVISION_LIMIT = 10**6


def _check_field_size(s: int) -> None:
    """InvalidParams unless the field size s is a power of its least prime
    factor, found by trial division. A size above the trial limit squared
    with no factor up to the limit is LimitExceeded: no trial decides it."""
    shown = s if printable(s) else f"an integer of over {PRINTED_DIGITS} digits"
    trials = range(2, min(math.isqrt(max(s, 0)), _TRIAL_DIVISION_LIMIT) + 1)
    least, rest = next((d for d in trials if s % d == 0), s), s
    if least == s > _TRIAL_DIVISION_LIMIT**2:
        raise LimitExceeded(f"s = {shown} has no prime factor up to {_TRIAL_DIVISION_LIMIT}")
    while least > 1 and rest % least == 0:
        rest //= least
    if s < 2 or rest != 1:
        raise InvalidParams(f"s = {shown} is not a prime power")


def _digits(n: int) -> int:
    """The number of decimal digits of n >= 1, without converting it to a string."""
    # 0.30102999 < log10(2): at most two below the answer up to 10^8 bits
    d = (n.bit_length() - 1) * 30102999 // 10**8
    while 10**d <= n:
        d += 1
    return d


def _log2_fixed(b: int, prec: int) -> tuple[int, int]:
    """Outward fixed-point bounds on log2(b): returns (lo, hi) such that
    lo / 2^prec <= log2(b) <= hi / 2^prec."""
    if b < 1:
        raise InvalidParams("log2 needs a positive integer")
    m = b.bit_length() - 1
    if b == 1 << m:
        return m << prec, m << prec
    guard = 2 * prec + 16
    scale = 1 << guard
    # mantissa interval for b / 2^m in [1, 2)
    num = b << guard
    lo_m = num >> m
    hi_m = lo_m if (lo_m << m) == num else lo_m + 1

    def frac_bits(mant: int, round_up: bool) -> int:
        bits = 0
        for _ in range(prec):
            mant = mant * mant
            mant = (mant + scale - 1) >> guard if round_up else mant >> guard
            bits <<= 1
            if mant >= 2 * scale:
                bits |= 1
                mant >>= 1
        return bits

    lo = (m << prec) + frac_bits(lo_m, round_up=False)
    hi = (m << prec) + frac_bits(hi_m, round_up=True) + 1
    return lo, hi


class LogBound:
    """constant + sum of coeff * log2(base); canonical term order by base."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant: Fraction, terms: tuple[tuple[int, Fraction], ...]):
        self.constant, self.terms = constant, terms

    def _key(self) -> tuple:
        return self.constant, self.terms

    def __eq__(self, other):
        return type(other) is LogBound and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def build(constant, term_map) -> "LogBound":
        merged: dict[int, Fraction] = {}
        for base, coeff in term_map.items() if isinstance(term_map, dict) else term_map:
            base = int(base)
            coeff = Fraction(coeff)
            if base < 1:
                raise InvalidParams(f"log base {base} must be a positive integer")
            if base == 1 or coeff == 0:
                continue
            merged[base] = merged.get(base, Fraction(0)) + coeff
        terms = tuple(sorted((b, c) for b, c in merged.items() if c != 0))
        return LogBound(Fraction(constant), terms)

    def log2_interval(self, prec: int) -> tuple[Fraction, Fraction]:
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

    def approx_log2(self) -> float:
        lo, hi = self.log2_interval(64)
        return float((lo + hi) / 2)

    def exact_int(self) -> int | None:
        """2^value as an exact integer when all exponents are nonneg integers."""
        if self.constant.denominator != 1 or self.constant < 0:
            return None
        value = 1 << int(self.constant)
        for base, coeff in self.terms:
            if coeff.denominator != 1 or coeff < 0:
                return None
            value *= base ** int(coeff)
        return value

    def _sides_against(self, count: int) -> tuple[int, int]:
        """Integers (lhs, rhs) with count <= 2^value iff lhs <= rhs."""
        denoms = [self.constant.denominator] + [c.denominator for _, c in self.terms]
        d = math.lcm(*denoms) if denoms else 1
        lhs = count**d
        rhs = 1
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
        return lhs, rhs

    def exact_cmp_count(self, count: int) -> int:
        """-1, 0, 1 for count <, =, > the bound value (exact)."""
        if count == 0:
            return -1
        lhs, rhs = self._sides_against(count)
        return (lhs > rhs) - (lhs < rhs)

    def to_json(self) -> dict:
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
        # log2(10) < 10/3: above that lower bound exact is not printable,
        # and is not built
        exact = self.exact_int() if 3 * lo <= 10 * PRINTED_DIGITS else None
        if exact is not None and printable(exact):
            out["exact"] = exact
        return out


def compare_count(count: int, bound: LogBound) -> str:
    """Exact verdict "LE" or "GT" for count <= 2^bound.

    Intervals first with doubling precision; the powered-integer comparison
    decides any case the intervals cannot separate (including equality).
    """
    if count < 0:
        raise InvalidParams("counts are nonnegative")
    for prec in _INTERVAL_PRECISIONS:
        verdict = interval_verdict(count, bound, prec)
        if verdict is not None:
            return verdict
    return "LE" if bound.exact_cmp_count(count) <= 0 else "GT"


def interval_verdict(count: int, bound: LogBound, prec: int) -> str | None:
    """Verdict at one fixed interval precision, or None if undecided.

    compare_count runs it at doubling precisions; the monotone-precision
    property check runs it directly.
    """
    if count == 0:
        return "LE"
    clo, chi = (Fraction(x, 1 << prec) for x in _log2_fixed(count, prec))
    blo, bhi = bound.log2_interval(prec)
    if chi < blo or (clo == chi == blo == bhi):
        return "LE"
    if clo > bhi:
        return "GT"
    return None


# ---------------------------------------------------------------------------
# the bound formulas


def theorem_a_bound(params) -> LogBound:
    """Isomorphism-count bound for the three-prime variety at order n, from
    its cayley.VarietyParams."""
    a, b, g = params.alpha, params.beta, params.gamma
    half_exp = (a + g) * b + (a + b) * g + a * (a - 1) // 2
    # a list of pairs: LogBound.build sums repeated bases and drops base 1
    terms = [(params.p, 6 * a * a), (6, a), (6, Fraction(half_exp, 2)), (params.n, b + g)]
    if a:  # alpha * log2(alpha), defined as 0 at alpha = 0
        terms.append((a, Fraction(23, 6) * a))
    return LogBound.build(Fraction(a - 1), terms)


def remark43_gl_bound(s: int, alpha: int) -> LogBound:
    """Class-count bound for maximal two-prime-variety subgroups of GL(alpha, s)."""
    if alpha < 1:
        raise InvalidParams("alpha must be at least 1")
    _check_field_size(s)
    terms = [
        (s, 5 * alpha * alpha),
        (6, Fraction(alpha * (alpha - 1), 4)),
        (alpha, Fraction(23, 6) * alpha),
        (6, alpha),
    ]
    return LogBound.build(Fraction(alpha - 1), terms)


def remark43_transitive_bound(n: int) -> LogBound:
    """Count bound for transitive two-prime-variety subgroups of S_n."""
    if n < 2:
        raise InvalidParams("n must be at least 2")
    return LogBound.build(Fraction(0), [(6, Fraction(n * (n - 1), 4)), (n, n + 2)])


def prop41_bound(alpha: int, q: int, r: int, s: int) -> LogBound:
    """Order bound for two-prime-variety subgroups of GL(alpha, s)."""
    if alpha < 1:
        raise InvalidParams("alpha must be at least 1")
    for u in (q, r):
        if not is_prime(u):
            raise InvalidParams(f"{u} is not prime")
    if q == r:
        raise InvalidParams("q and r must be distinct")
    _check_field_size(s)
    d = min(q * r, s)
    # list of pairs: d may equal 6 and the coefficients must accumulate
    return LogBound.build(Fraction(0), [(6, Fraction(alpha - 1, 2)), (d, Fraction(alpha))])


def soluble_sn_bound(n: int) -> LogBound:
    """Order bound (6^(1/2))^(n-1) for soluble A-subgroups of S_n."""
    if n < 1:
        raise InvalidParams("n must be at least 1")
    return LogBound.build(Fraction(0), {6: Fraction(n - 1, 2)})
