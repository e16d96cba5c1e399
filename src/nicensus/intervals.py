"""Outward-rounded interval arithmetic with exact rational endpoints.

The census identities are exact rationals; intervals only enter when a
bound involves log 2 or a fractional power of q.  Enclosures here are
Fractions with width below 2**-96 (well past 80-bit headroom), so every
comparison against an exact rational is itself exact.  A comparison is
"holds"/"violated" only when the interval is disjoint from the value in
the relevant direction, and "inconclusive" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

PRECISION_BITS = 96

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class RInterval:
    """Closed interval [lo, hi] with Fraction endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x):
        x = _as_fraction(x)
        return RInterval(x, x)

    def __add__(self, other):
        other = _coerce(other)
        return RInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        recips = (1 / other.lo, 1 / other.hi)
        return self * RInterval(min(recips), max(recips))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __str__(self):
        return f"[{float(self.lo):.12g}, {float(self.hi):.12g}]"


def _coerce(x):
    if isinstance(x, RInterval):
        return x
    return RInterval.point(x)


# ---------------------------------------------------------------------------
# Constants and algebraic enclosures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def log2_interval():
    """Enclosure of log 2 = sum_{k>=1} 1/(k 2^k); tail below 2**-PRECISION_BITS."""
    n = PRECISION_BITS + 8
    s = Fraction(0)
    pow2 = 1
    for k in range(1, n + 1):
        pow2 <<= 1
        s += Fraction(1, k * pow2)
    # 0 < tail < 2^-n / (n+1) < 2^-n
    return RInterval(s, s + Fraction(1, 1 << n))


def int_nth_root(m, e):
    """Floor of m ** (1/e) for nonnegative integers, exactly (Newton)."""
    if m < 0 or e < 1:
        raise ValueError("int_nth_root needs m >= 0, e >= 1")
    if m in (0, 1) or e == 1:
        return m
    x = 1 << ((m.bit_length() + e - 1) // e + 1)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            break
        x = y
    while x ** e > m:
        x -= 1
    return x


def nth_root_interval(m, e):
    """Enclosure of m ** (1/e) for integer m >= 0 (exact point when possible)."""
    r = int_nth_root(m, e)
    if r ** e == m:
        return RInterval.point(Fraction(r))
    scaled = int_nth_root(m << (e * PRECISION_BITS), e)
    den = 1 << PRECISION_BITS
    return RInterval(Fraction(scaled, den), Fraction(scaled + 1, den))


def rational_power_interval(base, num, den):
    """Enclosure of base ** (num/den) for integer base >= 1, num >= 0, den >= 1."""
    if base < 1 or num < 0 or den < 1:
        raise ValueError("rational_power_interval expects base>=1, num>=0, den>=1")
    from math import gcd
    g = gcd(num, den) if num else den
    num, den = num // g, den // g
    if den == 1:
        return RInterval.point(Fraction(base ** num))
    return nth_root_interval(base ** num, den)


# ---------------------------------------------------------------------------
# Three-valued verdicts (a sampled or enclosed quantity can never *prove*
# a strict inequality, only definitively refute or support it)
# ---------------------------------------------------------------------------


def verdict_value_ge(x, bound):
    """Is x >= bound definitive? x exact rational, bound interval or rational."""
    x = _as_fraction(x)
    bound = _coerce(bound)
    if x >= bound.hi:
        return HOLDS
    if x < bound.lo:
        return VIOLATED
    return INCONCLUSIVE


def verdict_value_gt(x, bound):
    x = _as_fraction(x)
    bound = _coerce(bound)
    if x > bound.hi:
        return HOLDS
    if x <= bound.lo:
        return VIOLATED
    return INCONCLUSIVE


def verdict_value_le(x, bound):
    x = _as_fraction(x)
    bound = _coerce(bound)
    if x <= bound.lo:
        return HOLDS
    if x > bound.hi:
        return VIOLATED
    return INCONCLUSIVE


def combine_verdicts(verdicts):
    """Overall verdict: any violation dominates, then inconclusive, then holds."""
    verdicts = list(verdicts)
    if any(v == VIOLATED for v in verdicts):
        return VIOLATED
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    return HOLDS
