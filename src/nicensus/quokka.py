"""Closed forms for the large-degree primary cyclic sets, and their bands.

They come from the class sum over maximal tori of GL(c, q^b), whose
classes correspond to the cycle types of S_c (``cycle_types``):

    |Q| / |GL(c, q^b)| = sum over cycle types  (class proportion) *
                         (proportion of the corresponding torus in Q)

For the matrices primary cyclic with respect to one polynomial of degree
b*r, r > c/2, the torus proportion is b*r/(q^{b*r} - 1) on the types with
an r-part and 0 elsewhere.  The ``quokka-closed-forms`` suite states
that model and sums it; this module holds what the sum collapses to:
b/(q^{b*r} - 1) per polynomial (``quokka_pc_single``) and
b*|Irr_{br}(q)|/(q^{br} - 1) per degree (``pc_r``).  ``ngl_exact`` adds
the degrees r > c/2 and ``thm_pc_m_exact`` turns them into a proportion
of M(c, q^b) by the flag sum.

Everything exact is a Fraction; log 2 and fractional powers of q enter
only through outward-rounded rational intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import gf, intervals, poly
from .census import flag_sum, omega
from .errors import RangeError
from .intervals import log2_interval, rational_power_interval


# ---------------------------------------------------------------------------
# Cycle types of S_c
# ---------------------------------------------------------------------------


def _partitions(c, cap=None):
    if c == 0:
        yield ()
        return
    if cap is None or cap > c:
        cap = c
    for first in range(cap, 0, -1):
        for rest in _partitions(c - first, first):
            yield (first,) + rest


def _class_proportion(parts):
    """|class| / |S_c| = 1 / prod_j (j^{m_j} m_j!), with m_j the number of parts j."""
    den = 1
    for j in set(parts):
        m = parts.count(j)
        den *= j ** m * math.factorial(m)
    return Fraction(1, den)


def cycle_types(c):
    """All cycle types of S_c as (parts, |class| / |S_c|), parts descending.

    The proportions sum to 1.
    """
    if c < 1:
        raise RangeError("cycle_types needs c >= 1")
    return tuple((parts, _class_proportion(parts)) for parts in _partitions(c))


# ---------------------------------------------------------------------------
# Torus sums and closed forms
# ---------------------------------------------------------------------------


def quokka_pc_single(c, q, b, r):
    """Class sum b/(q^{b*r} - 1) for one fixed polynomial of degree b*r, r > c/2.

    In the torus model of the module docstring the classes with an
    r-part make up 1/r of S_c, so the sum is independent of c.
    """
    if b < 1:
        raise RangeError(f"need b >= 1, got {b}")
    if c < 1:
        raise RangeError(f"need c >= 1, got {c}")
    if not (2 * r > c and r <= c):
        raise RangeError(f"need c/2 < r <= c, got r={r}, c={c}")
    gf.admit(b * r * q.bit_length(), 1, f"units of closed-form work at r={r}", WORK_MAX)
    return Fraction(b, q ** (b * r) - 1)


def pc_r(q, b, r):
    """Proportion b*|Irr_{br}(q)| / (q^{br} - 1) of the degree-(b*r) family in GL(c, q^b).

    The value is the same for every c with c/2 < r <= c.  At b*r = 1 the
    count leaves out t: no invertible matrix is t-primary cyclic.
    :func:`pc_r_sandwich_verdict` decides the sandwich from b*r = 2 up.
    """
    n_irr = poly.irr_count(b * r, q)
    if b * r == 1:
        n_irr -= 1
    return Fraction(b * n_irr, q ** (b * r) - 1)


def pc_r_sandwich_verdict(q, b, r):
    """(1/r)(1 - 2 q^{-br/2}) < pc_r(q, b, r) <= 1/r, decided exactly.

    With D = 1 - r * value the sandwich reads 0 <= D < 2 q^{-br/2}, that
    is 0 <= D and D^2 q^{br} < 4: rational comparisons, no enclosure.
    """
    d = 1 - r * pc_r(q, b, r)
    return intervals.HOLDS if 0 <= d and d * d * q ** (b * r) < 4 else intervals.VIOLATED


def ngl_exact(c, q, b):
    """Exact proportion of the union over r > c/2 in GL(c, q^b).

    The per-degree families are disjoint (no two polynomials of degree
    above c/2 can divide one charpoly), so the proportions add.
    """
    if c < 1 or b < 1:
        raise RangeError(f"need c, b >= 1, got c={c}, b={b}")
    return sum((pc_r(q, b, r) for r in range(c // 2 + 1, c + 1)), Fraction(0))


def harmonic_sum(c):
    """sum_{r=floor(c/2)+1}^{c} 1/r, exactly."""
    return sum((Fraction(1, r) for r in range(c // 2 + 1, c + 1)), Fraction(0))


def harmonic_band_verdict(c):
    """log 2 - 1/(c+1) <= harmonic_sum(c) <= log 2 + 1/c, against a log 2 enclosure."""
    if c < 2:
        raise RangeError("harmonic band needs c >= 2")
    h = harmonic_sum(c)
    l2 = log2_interval()
    return intervals.combine_verdicts([
        intervals.verdict_value_ge(h, l2 - Fraction(1, c + 1)),
        intervals.verdict_value_le(h, l2 + Fraction(1, c)),
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


# Each closed form admits its work against this cap: ``quokka_pc_single``
# holds about b r log2(q) bits, ``thm_pc_m_exact`` Fractions of c^2 b log2(q)
# bits whose gcds cost quadratically in that.  At the cap the largest c
# admitted answers in about 2 s; c = 300 at q = b = 2 took 8 s.
WORK_MAX = 1 << 17


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
    gf.admit(c * c * b * q.bit_length(), 1, f"units of closed-form work at c={c}", WORK_MAX)
    qb = q ** b
    ratios = [0] + [ngl_exact(i, q, b) for i in range(1, c + 1)]
    return flag_sum(c, qb, ratios) * omega(c, qb)


def thm_pc_m_verdict(c, q, b):
    """exact >= bound, decided exactly (vacuous when the bound is negative)."""
    return intervals.verdict_value_ge(thm_pc_m_exact(c, q, b), thm_pc_m_bound(c, q, b))
