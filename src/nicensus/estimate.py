"""Seedable Monte Carlo proportion estimation with Wilson intervals.

Randomness comes from a counter-based construction: the j-th sample is a
pure function of (seed, j), with words drawn from a SplitMix64-style
finalizer over an inner counter.  Samples are therefore assigned by
global index, so any partition of the index range gives the same results.

Estimates use the Wilson score interval at 99% (well behaved near 0 and
1, where several of the small-q bounds live).  Verdicts against theory
bounds are three-valued: sampling can refute a claim or fail to falsify
it, but never verify a strict inequality; only exact values earn a
definitive "holds".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import embed, gf, intervals, matrix, quokka
from .errors import BudgetExceeded
from .intervals import RInterval
from .matrix import Mat

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# two-sided 99% standard normal quantile (norm.ppf(0.995))
Z99 = 2.5758293035489004


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SampleStream:
    """Deterministic 64-bit word stream for sample ``index`` of ``seed``."""

    __slots__ = ("_base", "_w")

    def __init__(self, seed, index):
        self._base = _mix64((seed & _MASK64) + _GAMMA * (index + 1))
        self._w = 0

    def below(self, bound, count):
        """``count`` uniform ints in [0, bound), by rejection (no modulo bias)."""
        limit = _MASK64 + 1 - (_MASK64 + 1) % bound
        base, w = self._base, self._w
        out = []
        while len(out) < count:
            w += 1
            z = _mix64(base + _GAMMA * w)
            if z < limit:
                out.append(z % bound)
        self._w = w
        return out


def _draw_matrix(stream, d, ctx):
    """The next d x d matrix of ``stream``, entries row by row."""
    words = stream.below(ctx.order, d * d)
    return Mat(ctx, d, tuple(tuple(words[i:i + d]) for i in range(0, d * d, d)))


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


def wilson_interval(successes, n, z=Z99):
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if n < 1:
        raise ValueError("need n >= 1")
    phat = successes / n
    z2 = z * z
    denom = 1 + z2 / n
    center = phat + z2 / (2 * n)
    half = z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    low = (center - half) / denom
    high = (center + half) / denom
    return max(0.0, low), min(1.0, high)


@dataclass(frozen=True)
class BoundCheck:
    """One named theory bound with its direction and three-valued verdict."""

    name: str
    direction: str      # ">=" or "<="
    bound: RInterval
    verdict: str


@dataclass(frozen=True)
class ProportionReport:
    name: str
    d: int
    q: int
    n: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    exact: Fraction = None
    bounds: tuple = ()

    @property
    def exact_in_ci(self):
        if self.exact is None:
            return None
        return self.ci_low <= float(self.exact) <= self.ci_high


def _statistical_verdict(ci_low, ci_high, bound, direction):
    """Interval-vs-interval comparison; 'violated' only on disjointness."""
    if direction == ">=":
        if ci_low > float(bound.hi):
            return intervals.HOLDS  # not falsified, comfortably above
        if ci_high < float(bound.lo):
            return intervals.VIOLATED
        return intervals.INCONCLUSIVE
    if direction == "<=":
        if ci_high < float(bound.lo):
            return intervals.HOLDS
        if ci_low > float(bound.hi):
            return intervals.VIOLATED
        return intervals.INCONCLUSIVE
    raise ValueError(f"unknown direction {direction!r}")


def monte_carlo(predicate, d, ctx, n, seed, name="predicate", exact=None, bounds=(),
                budget=None):
    """Proportion of the samples ``sample_matrix(d, ctx, seed, j)``, j < n, in ``predicate``.

    bounds: iterable of (name, direction, RInterval-or-Fraction) checked
    against the confidence interval (or against ``exact`` exactly, when
    it is supplied).
    """
    cap = gf.enumeration_budget(budget)
    if n > cap:
        raise BudgetExceeded(f"sample count {n} exceeds budget {cap}")
    successes = 0
    for j in range(n):
        if predicate(sample_matrix(d, ctx, seed, j)):
            successes += 1
    ci_low, ci_high = wilson_interval(successes, n)
    checks = []
    for bname, direction, bound in bounds:
        if not isinstance(bound, RInterval):
            bound = RInterval.point(bound)
        if exact is not None:
            if direction == ">=":
                verdict = intervals.verdict_value_ge(exact, bound)
            else:
                verdict = intervals.verdict_value_le(exact, bound)
        else:
            verdict = _statistical_verdict(ci_low, ci_high, bound, direction)
        checks.append(BoundCheck(name=bname, direction=direction, bound=bound,
                                 verdict=verdict))
    return ProportionReport(name=name, d=d, q=ctx.order, n=n,
                            successes=successes, estimate=successes / n,
                            ci_low=ci_low, ci_high=ci_high, exact=exact,
                            bounds=tuple(checks))


# ---------------------------------------------------------------------------
# Three-way comparison: exact / sampled / theory bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    c: int
    q: int
    b: int
    n: int
    report: ProportionReport
    exact: Fraction
    bound: RInterval
    bound_positive: bool

    @property
    def exact_in_ci(self):
        return self.report.exact_in_ci

    @property
    def verdicts(self):
        out = {"exact-vs-bound": intervals.verdict_value_ge(self.exact, self.bound)}
        if self.bound_positive:
            out["ci-above-bound"] = _statistical_verdict(
                self.report.ci_low, self.report.ci_high, self.bound, ">=")
        return out


def compare(instances, n, seed, budget=None):
    """For each (c, q, b): sample the large-degree family over M(c, q^b).

    Each row carries the Monte Carlo estimate, the exact flag-sum value,
    and the algebra lower bound with verdicts (the interval check only
    applies when the bound is positive; small instances make it vacuous).
    """
    rows = []
    for c, q, b in instances:
        pf = gf.factor_int(q)
        if len(pf) != 1:
            raise ValueError(f"{q} is not a prime power")
        ((p, m),) = pf.items()
        ext = gf.field_create(p, m * b)
        tower = embed.tower_for(ext, b)
        exact = quokka.thm_pc_m_exact(c, q, b)
        bound = quokka.thm_pc_m_bound(c, q, b)
        predicate = lambda X, _tw=tower: embed.pc_member_charpoly(X, _tw)
        report = monte_carlo(predicate, c, ext, n, seed,
                             name=f"pc-large-degree(c={c},q={q},b={b})",
                             exact=exact, budget=budget)
        rows.append(CompareRow(c=c, q=q, b=b, n=n, report=report, exact=exact,
                               bound=bound, bound_positive=bound.lo > 0))
    return rows
