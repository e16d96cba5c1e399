"""Seedable Monte Carlo proportion estimation with Wilson intervals.

Randomness comes from a counter-based construction: the j-th sample is a
pure function of (seed, j), with words drawn from a SplitMix64-style
finalizer (``_mix64``) over an inner counter.  Samples are therefore
assigned by global index, so any partition of the index range gives the
same results.  The words are evaluated up to 64 at a time, each in its
own 128-bit lane of one int (``_mix64_lanes``); every word is still
``_mix64`` of its counter.

``monte_carlo`` only counts.  Every decision on a count is exact: the
99% Wilson score interval is the set {x : n (s/n - x)^2 <= z^2 x (1 - x)}
(well behaved near 0 and 1, where several of the small-q bounds live),
so ``wilson_contains`` tests a rational x against it by one rational
inequality and ``wilson_verdict`` decides a theory bound from it.  The
verdict is three-valued, and a sampled "holds" means the bound survived
the 99% test, not that it is proved.  The floats of ``wilson_interval``
are for display only.
``exact_and_bounds`` supplies the exact value and bounds of a
registered spec: its closed form, else its count over a small M(d, q).
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction

from . import census, gf, intervals, matrix
from .matrix import Mat
from .values import record

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 64  # words per packed pass
_LANE_BITS = 128  # room for a 64 x 64-bit product

# two-sided 99% standard normal quantile (norm.ppf(0.995)), and its exact square
Z99 = 2.5758293035489004
Z2 = Fraction(Z99) ** 2


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=_LANES)
def _lane_constants(n):
    """(ONES, _GAMMA * RAMP, MASK, unpacker) for ``n`` 128-bit lanes.

    Lane i of ONES is 1 and of RAMP is i + 1; MASK keeps the low 64 bits of
    every lane.  The unpacker reads each lane's low word, little-endian.
    """
    ones = sum(1 << (_LANE_BITS * i) for i in range(n))
    ramp = sum((i + 1) << (_LANE_BITS * i) for i in range(n))
    return ones, _GAMMA * ramp, _MASK64 * ones, struct.Struct("<" + "Q8x" * n)


def _mix64_lanes(base, w, n):
    """``[_mix64(base + _GAMMA * (w + i)) for i in 1..n]``, for n <= 64.

    Each word is computed in its own 128-bit lane of one int: a 64 x 64-bit
    product fits its lane, and masking after every shift and product keeps
    bits from crossing into the next lane.
    """
    ones, ramp, mask, unpack = _lane_constants(n)
    z = (((base + _GAMMA * w) & _MASK64) * ones + ramp) & mask
    z = ((z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ z >> 27 & mask) * 0x94D049BB133111EB) & mask
    z ^= z >> 31 & mask
    return unpack.unpack(z.to_bytes(unpack.size, "little"))


class SampleStream:
    """Deterministic 64-bit word stream for sample ``index`` of ``seed``."""

    __slots__ = ("_base", "_w")

    def __init__(self, seed, index):
        self._base = _mix64((seed & _MASK64) + _GAMMA * (index + 1))
        self._w = 0

    def below(self, bound, count):
        """``count`` uniform ints in [0, bound), by rejection (no modulo bias).

        Each pass draws as many words as values are still missing, at most
        ``_LANES``, so the counter advances by exactly the words consumed.
        """
        limit = _MASK64 + 1 - (_MASK64 + 1) % bound
        out = []
        while len(out) < count:
            n = min(count - len(out), _LANES)
            out += [z % bound for z in _mix64_lanes(self._base, self._w, n) if z < limit]
            self._w += n
        return out


def _draw_matrix(stream, d, ctx):
    """The next d x d matrix of ``stream``, entries row by row."""
    words = stream.below(ctx.order, d * d)
    return Mat(ctx, d, tuple(zip(*[iter(words)] * d)))


def sample_matrix(d, ctx, seed, index):
    """Uniform sample from M(d, q); a pure function of (seed, index)."""
    return _draw_matrix(SampleStream(seed, index), d, ctx)


def sample_gl(d, ctx, seed, index):
    """Uniform sample from GL(d, q) by rejection (expected < 4 attempts)."""
    stream = SampleStream(seed, index)
    while True:
        M = _draw_matrix(stream, d, ctx)
        if matrix.is_invertible(M):
            return M


def wilson_interval(successes, n):
    """99% Wilson score interval for a binomial proportion, in floats, clamped to [0, 1].

    For display only; :func:`wilson_contains` decides membership exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    phat = successes / n
    z2 = Z99 * Z99
    denom = 1 + z2 / n
    center = phat + z2 / (2 * n)
    half = Z99 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    low = (center - half) / denom
    high = (center + half) / denom
    return max(0.0, low), min(1.0, high)


def wilson_contains(successes, n, x):
    """Is the rational x inside the 99% Wilson interval of successes/n?

    The interval is exactly {x : n (s/n - x)^2 <= z^2 x (1 - x)}, so this
    is one rational inequality in ``Z2``, the exact square of ``Z99``.
    """
    return (successes - n * x) ** 2 <= Z2 * n * x * (1 - x)


def wilson_verdict(successes, n, bound, direction):
    """Three-valued verdict of "proportion ``direction`` bound" from a sample count.

    The Wilson set is convex and contains s/n, so it lies above x exactly
    when x < s/n and x is outside it.  ``bound`` is an RInterval: ">="
    holds when the set lies above bound.hi and is violated when it lies
    below bound.lo; "<=" swaps the two.
    """
    def above(x):
        return n * x < successes and not wilson_contains(successes, n, x)

    def below(x):
        return n * x > successes and not wilson_contains(successes, n, x)

    if direction == ">=":
        holds, violated = above(bound.hi), below(bound.lo)
    elif direction == "<=":
        holds, violated = below(bound.lo), above(bound.hi)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if holds:
        return intervals.HOLDS
    return intervals.VIOLATED if violated else intervals.INCONCLUSIVE


class ProportionReport(record("ProportionReport", "n successes estimate ci_low ci_high")):
    """Sample count and its float Wilson interval (for display)."""

    __slots__ = ()


def monte_carlo(predicate, d, ctx, n, seed, budget=None):
    """Count the samples ``sample_matrix(d, ctx, seed, j)``, j < n, in ``predicate``.

    n and d^3, the order of the field operations in one sample's charpoly,
    are each admitted against the budget before any sample is drawn.
    """
    gf.admit(n, 1, "samples", budget)
    gf.admit(d, 3, f"field operations per sample of M({d}, {ctx.order})", budget)
    successes = 0
    for j in range(n):
        if predicate(sample_matrix(d, ctx, seed, j)):
            successes += 1
    ci_low, ci_high = wilson_interval(successes, n)
    return ProportionReport(n=n, successes=successes, estimate=successes / n,
                            ci_low=ci_low, ci_high=ci_high)


# ---------------------------------------------------------------------------
# The exact value a sampled proportion is checked against
# ---------------------------------------------------------------------------


def exact_and_bounds(spec, d, ctx, budget=None):
    """(exact proportion of ``spec`` in M(d, q), theory bounds) to check samples against.

    The spec's closed form where it has one; else its member count over
    M(d, q) when that has at most 65,536 matrices within the budget, which
    otherwise need only cover the samples; else (None, ()).
    """
    form = spec.closed_form(d, ctx) if spec.closed_form else None
    if form is not None:
        return form
    if gf.fits(ctx.order, d * d, budget, limit=65536):
        return Fraction(census.count_members(spec.member, d, ctx, budget), ctx.order ** (d * d)), ()
    return None, ()
