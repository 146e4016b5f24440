"""Exact evaluation of the counting bounds.

A bound value is (constant + sum coeff * log2(base)) / D over integer bases,
with integer constant and coefficients over one positive denominator D
(LogBound). Comparison against an integer count runs outward-rounded
interval arithmetic first, on integers over D * 2^prec, doubling the
precision until the intervals separate; exact equality (and any stubborn
case) falls through to comparing count^D with the powered bases. Only
integers: no rational type, and nothing is compared through floats.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, LimitExceeded
from .gf import PRINTED_DIGITS, TRIAL_DIVISION_LIMIT, is_prime, printable

_INTERVAL_PRECISIONS = (32, 64, 128, 256)


def _check_field_size(s: int) -> None:
    """InvalidParams unless the field size s is a power of its least prime
    factor, found by trial division. A size above the trial limit squared
    with no factor up to the limit is LimitExceeded: no trial decides it."""
    shown = s if printable(s) else f"an integer of over {PRINTED_DIGITS} digits"
    trials = range(2, min(math.isqrt(max(s, 0)), TRIAL_DIVISION_LIMIT) + 1)
    least, rest = next((d for d in trials if s % d == 0), s), s
    if least == s > TRIAL_DIVISION_LIMIT**2:
        raise LimitExceeded(f"s = {shown} has no prime factor up to {TRIAL_DIVISION_LIMIT}")
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


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, printed as str(Fraction) prints it: n alone over 1."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class LogBound:
    """(constant + sum of coeff * log2(base)) / den on integers; build makes
    it canonical: lowest terms, term order by base."""

    __slots__ = ("constant", "terms", "den")

    def __init__(self, constant: int, terms: tuple[tuple[int, int], ...], den: int):
        self.constant, self.terms, self.den = constant, terms, den

    def _key(self) -> tuple:
        return self.constant, self.terms, self.den

    def __eq__(self, other):
        return type(other) is LogBound and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def build(constant, terms, den: int = 1) -> "LogBound":
        """From a {base: coeff} dict or (base, coeff) pairs and den >= 1; the
        constant and coefficients may be ints or have integer numerator and
        denominator. Repeated bases add up; base 1 and zero terms drop out."""
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        scale = math.lcm(constant.denominator, *(c.denominator for _, c in pairs))
        merged: dict[int, int] = {}
        for base, coeff in pairs:
            base = int(base)
            if base < 1:
                raise InvalidParams(f"log base {base} must be a positive integer")
            if base > 1:
                merged[base] = merged.get(base, 0) + coeff.numerator * (scale // coeff.denominator)
        top = constant.numerator * (scale // constant.denominator)
        terms = tuple(sorted((b, c) for b, c in merged.items() if c))
        g = math.gcd(den * scale, top, *(c for _, c in terms))
        return LogBound(top // g, tuple((b, c // g) for b, c in terms), den * scale // g)

    def log2_interval(self, prec: int) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= value * den * 2^prec <= hi."""
        lo = hi = self.constant << prec
        for base, coeff in self.terms:
            blo, bhi = _log2_fixed(base, prec)
            if coeff >= 0:
                lo += coeff * blo
                hi += coeff * bhi
            else:
                lo += coeff * bhi
                hi += coeff * blo
        return lo, hi

    def approx_log2(self) -> float:
        lo, hi = self.log2_interval(64)
        # int true division rounds correctly, as float(Fraction) does
        return (lo + hi) / (self.den << 65)

    def exact_int(self) -> int | None:
        """2^value as an exact integer when all exponents are nonneg integers."""
        if self.den != 1 or self.constant < 0 or any(c < 0 for _, c in self.terms):
            return None
        value = 1 << self.constant
        for base, coeff in self.terms:
            value *= base**coeff
        return value

    def _sides_against(self, count: int) -> tuple[int, int]:
        """Integers (lhs, rhs) with count <= 2^value iff lhs <= rhs."""
        lhs, rhs = count**self.den, 1
        if self.constant >= 0:
            rhs <<= self.constant
        else:
            lhs <<= -self.constant
        for base, e in self.terms:
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
        unit = self.den << 64
        approx = round((lo + hi) / (2 * unit), 6)  # approx_log2, without a second interval
        out = {
            "log2": {"lower": _ratio(lo, unit), "upper": _ratio(hi, unit), "approx": approx},
            "constant": _ratio(self.constant, self.den),
            "terms": [{"base": b, "coeff": _ratio(c, self.den)} for b, c in self.terms],
        }
        # log2(10) < 10/3: above that lower bound exact is not printable,
        # and is not built
        exact = self.exact_int() if 3 * lo <= 10 * PRINTED_DIGITS * unit else None
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
    # all four ends over den * 2^prec
    clo, chi = (x * bound.den for x in _log2_fixed(count, prec))
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
    # over 12; a list of pairs: LogBound.build sums repeated bases and drops base 1
    terms = [(params.p, 72 * a * a), (6, 12 * a), (6, 6 * half_exp), (params.n, 12 * (b + g))]
    if a:  # alpha * log2(alpha), defined as 0 at alpha = 0
        terms.append((a, 46 * a))
    return LogBound.build(12 * (a - 1), terms, 12)


def remark43_gl_bound(s: int, alpha: int) -> LogBound:
    """Class-count bound for maximal two-prime-variety subgroups of GL(alpha, s)."""
    if alpha < 1:
        raise InvalidParams("alpha must be at least 1")
    _check_field_size(s)
    # over 12: 5 alpha^2, alpha (alpha - 1) / 4, (23/6) alpha and alpha
    terms = [(s, 60 * alpha * alpha), (6, 3 * alpha * (alpha - 1))]
    terms += [(alpha, 46 * alpha), (6, 12 * alpha)]
    return LogBound.build(12 * (alpha - 1), terms, 12)


def remark43_transitive_bound(n: int) -> LogBound:
    """Count bound for transitive two-prime-variety subgroups of S_n."""
    if n < 2:
        raise InvalidParams("n must be at least 2")
    return LogBound.build(0, [(6, n * (n - 1)), (n, 4 * (n + 2))], 4)


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
    return LogBound.build(0, [(6, alpha - 1), (d, 2 * alpha)], 2)


def soluble_sn_bound(n: int) -> LogBound:
    """Order bound (6^(1/2))^(n-1) for soluble A-subgroups of S_n."""
    if n < 1:
        raise InvalidParams("n must be at least 1")
    return LogBound.build(0, {6: n - 1}, 2)
