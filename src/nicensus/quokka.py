"""Class-weighted torus sums for the large-degree primary cyclic sets.

Conjugacy classes of invertible matrices whose membership depends only
on the semisimple part can be counted torus by torus: classes of maximal
tori correspond to cycle types of S_c, and the class sum

    |Q| / |GL(c, q^b)| = sum over cycle types  (class proportion) *
                         (proportion of the corresponding torus in Q)

applies.  For the family of matrices primary cyclic with respect to
some degree-(b*r) polynomial, the torus proportion is b*r/(q^{b*r} - 1)
on classes containing an r-part and 0 elsewhere, which collapses (for
r > c/2, where at most one r-part fits) to b/(q^{b*r} - 1) per
polynomial and to b*|Irr_{br}(q)|/(q^{br} - 1) per degree.

Everything exact is a Fraction; log 2 and fractional powers of q enter
only through outward-rounded rational intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import intervals, poly
from .census import omega
from .errors import RangeError
from .intervals import RInterval, log2_interval, rational_power_interval


# ---------------------------------------------------------------------------
# Cycle types of S_c
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleType:
    """A partition of c, parts descending; indexes a conjugacy class of S_c."""

    parts: tuple

    @property
    def c(self):
        return sum(self.parts)

    def multiplicities(self):
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def class_proportion(self):
        """|class| / |S_c| = 1 / prod_j (j^{m_j} m_j!)."""
        den = 1
        for j, m in self.multiplicities().items():
            den *= j ** m * math.factorial(m)
        return Fraction(1, den)


def _partitions(c, cap=None):
    if c == 0:
        yield ()
        return
    if cap is None or cap > c:
        cap = c
    for first in range(cap, 0, -1):
        for rest in _partitions(c - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def cycle_types(c):
    """All cycle types of S_c with exact class proportions (sum to 1)."""
    if c < 1:
        raise RangeError("cycle_types needs c >= 1")
    out = tuple((CycleType(parts), CycleType(parts).class_proportion())
                for parts in _partitions(c))
    assert sum(p for _, p in out) == 1
    return out


def r_cycle_proportion(c, r):
    """Proportion of permutations in S_c containing an r-cycle, r > c/2.

    Computed as the partition sum; for r > c/2 an r-part cannot repeat
    and the value is exactly 1/r (a closed form not asserted below the
    threshold, hence the range restriction).
    """
    _check_r(c, r)
    total = Fraction(0)
    for ct, prop in cycle_types(c):
        if r in ct.parts:
            total += prop
    assert total == Fraction(1, r)
    return total


def _check_r(c, r):
    if c < 1:
        raise RangeError(f"need c >= 1, got {c}")
    if not (2 * r > c and r <= c):
        raise RangeError(f"need c/2 < r <= c, got r={r}, c={c}")


# ---------------------------------------------------------------------------
# Torus sums and closed forms
# ---------------------------------------------------------------------------


def quokka_pc_single(c, q, b, r):
    """Class sum for one fixed polynomial of degree b*r, r > c/2.

    Torus model: proportion b*r/(q^{b*r} - 1) on classes with an r-part
    (the r-part torus factor is cyclic of order q^{br} - 1 and carries
    exactly b*r members per qualifying polynomial), 0 elsewhere.  The
    sum collapses to b/(q^{b*r} - 1), independent of c.
    """
    if b < 1:
        raise RangeError(f"need b >= 1, got {b}")
    total = r_cycle_proportion(c, r) * Fraction(b * r, q ** (b * r) - 1)
    assert total == Fraction(b, q ** (b * r) - 1)
    return total


def quokka_pc_r(c, q, b, r):
    """Proportion b*|Irr_{br}(q)| / (q^{br} - 1) of the full degree-(b*r) family.

    Requires b*r >= 2: Irr_1(q) contains t, which contributes no
    invertible members, so the closed form (and its sandwich) only
    applies from degree 2 up.  The sandwich
    (1/r)(1 - 2 q^{-br/2}) < value <= 1/r is verified exactly.
    """
    _check_r(c, r)
    if b < 1:
        raise RangeError(f"need b >= 1, got {b}")
    if b * r < 2:
        raise RangeError("closed form needs b*r >= 2 (t is not excluded at degree 1)")
    value = Fraction(b * poly.irr_count(b * r, q), q ** (b * r) - 1)
    lower = _sandwich_lower(q, b, r)
    upper = Fraction(1, r)
    assert intervals.verdict_value_gt(value, lower) == intervals.HOLDS
    assert value <= upper
    return value


def _sandwich_lower(q, b, r):
    """(1/r)(1 - 2 q^{-br/2}) as an interval (exact when br is even)."""
    half_pow = rational_power_interval(q, b * r, 2)
    return (1 - 2 / half_pow) * Fraction(1, r)


def _pc_r_true(q, b, r):
    """Exact proportion of the degree-(b*r) family, valid for b*r = 1 too."""
    n_irr = poly.irr_count(b * r, q)
    if b * r == 1:
        n_irr -= 1  # exclude t: no invertible matrix is t-primary cyclic
    return Fraction(b * n_irr, q ** (b * r) - 1)


def ngl_exact(c, q, b):
    """Exact proportion of the union over r > c/2 in GL(c, q^b).

    The per-degree families are disjoint (no two polynomials of degree
    above c/2 can divide one charpoly), so the proportions add.
    """
    if c < 1 or b < 1:
        raise RangeError(f"need c, b >= 1, got c={c}, b={b}")
    return sum((_pc_r_true(q, b, r) for r in range(c // 2 + 1, c + 1)), Fraction(0))


def harmonic_sum(c):
    """sum_{r=floor(c/2)+1}^{c} 1/r, exactly."""
    return sum((Fraction(1, r) for r in range(c // 2 + 1, c + 1)), Fraction(0))


def harmonic_band(c):
    """Enclosures of log 2 - 1/(c+1) and log 2 + 1/c bracketing the harmonic sum."""
    if c < 2:
        raise RangeError("harmonic band needs c >= 2")
    l2 = log2_interval()
    return l2 - Fraction(1, c + 1), l2 + Fraction(1, c)


def harmonic_band_verdict(c):
    low, high = harmonic_band(c)
    h = harmonic_sum(c)
    return intervals.combine_verdicts([
        intervals.verdict_value_ge(h, low),
        intervals.verdict_value_le(h, high),
    ])


def ngl_band(c, q, b):
    """Enclosures of log 2 - 1/(c+1) - 2/q^{bc/4} and log 2 + 1/c."""
    if c < 2 or b < 1:
        raise RangeError(f"band needs c >= 2 and b >= 1, got c={c}, b={b}")
    l2 = log2_interval()
    quarter_pow = rational_power_interval(q, b * c, 4)
    lower = l2 - Fraction(1, c + 1) - 2 / quarter_pow
    upper = l2 + Fraction(1, c)
    return lower, upper


def ngl_band_verdict(c, q, b):
    """lower < exact <= upper, decided by exact-vs-interval comparison."""
    lower, upper = ngl_band(c, q, b)
    exact = ngl_exact(c, q, b)
    return intervals.combine_verdicts([
        intervals.verdict_value_gt(exact, lower),
        intervals.verdict_value_le(exact, upper),
    ])


# ---------------------------------------------------------------------------
# Full-algebra assembly via the flag sum
# ---------------------------------------------------------------------------


def _check_cb(c, b):
    if c < 2 or b < 2:
        raise RangeError(f"need b, c >= 2, got c={c}, b={b}")


def thm_pc_m_bound(c, q, b):
    """Enclosure of log 2 - (log 2 + 3)/c - 2 (1 - 1/c) / q^{b/2}."""
    _check_cb(c, b)
    l2 = log2_interval()
    half_pow = rational_power_interval(q, b, 2)
    return l2 - (l2 + 3) * Fraction(1, c) - (2 * (1 - Fraction(1, c))) / half_pow


def thm_pc_m_exact(c, q, b):
    """Exact proportion of the large-degree family in all of M(c, q^b).

    Assembles the flag sum with the per-dimension closed forms
    |N_i| / |GL(i, q^b)| = ``ngl_exact(i, q, b)`` (empty at i = 0: the
    family excludes nilpotents) and converts to a proportion
    of the full algebra by the omega factor.  The i = 1 term uses the
    genuine membership proportion b*|Irr_b(q)|/(q^b - 1), i.e. the
    proportion of field elements of degree exactly b, not 1.
    """
    _check_cb(c, b)
    qb = q ** b
    total = Fraction(0)
    for i in range(1, c + 1):
        weight = Fraction(1, qb ** (c - i)) / omega(c - i, qb)
        total += weight * ngl_exact(i, q, b)
    return total * omega(c, qb)


def thm_pc_m_verdict(c, q, b):
    """exact >= bound, decided exactly (vacuous when the bound is negative)."""
    return intervals.verdict_value_ge(thm_pc_m_exact(c, q, b), thm_pc_m_bound(c, q, b))


# ---------------------------------------------------------------------------
# Bound sheet: everything about one (c, q, b) instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSheet:
    c: int
    q: int
    b: int
    exact_by_r: tuple        # of (r, Fraction)
    exact_total: Fraction    # ngl_exact
    lower: RInterval
    upper: RInterval
    thm_bound: RInterval     # None-like sentinel avoided: always present for c,b >= 2
    thm_exact: Fraction
    verdicts: tuple          # of (name, verdict)

    @property
    def overall(self):
        return intervals.combine_verdicts(v for _, v in self.verdicts)


def bound_sheet(c, q, b):
    """Evaluate every exact value and band for one instance (c, q, b >= 2)."""
    _check_cb(c, b)
    by_r = tuple((r, _pc_r_true(q, b, r)) for r in range(c // 2 + 1, c + 1))
    exact_total = sum((v for _, v in by_r), Fraction(0))
    lower, upper = ngl_band(c, q, b)
    thm_bound = thm_pc_m_bound(c, q, b)
    thm_exact = thm_pc_m_exact(c, q, b)
    verdicts = (
        ("gl-band-lower", intervals.verdict_value_gt(exact_total, lower)),
        ("gl-band-upper", intervals.verdict_value_le(exact_total, upper)),
        ("harmonic-band", harmonic_band_verdict(c)),
        ("algebra-lower-bound", intervals.verdict_value_ge(thm_exact, thm_bound)),
    )
    return BoundSheet(c=c, q=q, b=b, exact_by_r=by_r, exact_total=exact_total,
                      lower=lower, upper=upper, thm_bound=thm_bound,
                      thm_exact=thm_exact, verdicts=verdicts)
