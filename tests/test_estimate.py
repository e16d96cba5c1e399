"""Sampling determinism, Wilson intervals and verdicts, uniformity, calibration."""

import hashlib
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from nicensus import census, estimate, gf, intervals, matrix
from nicensus.errors import BudgetExceeded
from nicensus.estimate import (
    monte_carlo,
    sample_gl,
    sample_matrix,
    wilson_contains,
    wilson_interval,
    wilson_verdict,
)
from nicensus.intervals import HOLDS, INCONCLUSIVE, VIOLATED, RInterval
from nicensus.matrix import Mat

from matrices import from_rows

F2 = gf.field_create(2)
F3 = gf.field_create(3)

# chi-square 0.999 quantile, 5 degrees of freedom
CHI2_5_999 = 20.5150056524329


def test_sample_determinism():
    a = [sample_matrix(3, F3, 42, j) for j in range(50)]
    b = [sample_matrix(3, F3, 42, j) for j in range(50)]
    assert a == b


def test_different_seeds_differ():
    a = [sample_matrix(2, F2, 1, j) for j in range(64)]
    b = [sample_matrix(2, F2, 2, j) for j in range(64)]
    assert a != b


def test_sample_gl_always_invertible():
    for j in range(200):
        assert matrix.is_invertible(sample_gl(2, F3, 7, j))


def test_sample_gl_d1_q2_constant():
    for j in range(10):
        assert sample_gl(1, F2, 3, j) == from_rows(F2, [(1,)])


def per_word_below(base, w, bound, count):
    """The per-word draw: one ``_mix64`` per word, words at or past the limit rejected."""
    limit = 2 ** 64 - 2 ** 64 % bound
    out = []
    while len(out) < count:
        w += 1
        z = estimate._mix64(base + estimate._GAMMA * w)
        if z < limit:
            out.append(z % bound)
    return out, w


# Field orders never reject a word in practice; the bounds from 3 * 2^62
# up reject a quarter to a half of them, so passes run short and repeat.
BELOW_BOUNDS = [1, 2, 4, 9, 2 ** 20, 3 * 2 ** 62, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64,
                *(random.Random(5).randrange(2, 2 ** 64 + 1) for _ in range(3)),
                *(random.Random(6).randrange(2, 2 ** 16) for _ in range(3))]
BELOW_COUNTS = [0, 1, 63, 64, 65, 200]


@pytest.mark.parametrize("bound", BELOW_BOUNDS)
def test_below_matches_the_per_word_draw(bound):
    rng = random.Random(bound)
    for seed, index in [(0, 0), (42, 7), (2 ** 64 - 1, 10 ** 6),
                        (rng.randrange(2 ** 64), rng.randrange(2 ** 32))]:
        stream = estimate.SampleStream(seed, index)
        w = 0
        for count in BELOW_COUNTS:  # one stream: each call starts where the last ended
            expected, w = per_word_below(stream._base, w, bound, count)
            assert stream.below(bound, count) == expected
            assert stream._w == w


@pytest.mark.parametrize("w", [0, 1, 2 ** 32, 2 ** 64 + 3, 2 ** 80])
def test_mix64_lanes_is_mix64_per_lane(w):
    base = estimate._mix64(12345)
    for n in range(1, estimate._LANES + 1):
        assert list(estimate._mix64_lanes(base, w, n)) == [
            estimate._mix64(base + estimate._GAMMA * (w + i)) for i in range(1, n + 1)]


# sha256 of sample_matrix and sample_gl over this grid, as drawn one
# ``_mix64`` call per word: any change to a word, a rejection or the
# cutting into rows moves it.
SAMPLE_GRID_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 10), (1021, 1)]
SAMPLE_GRID_SHA256 = "23d9b956c15319831d1ced5e4b906b8f0d4469872621d865a88d9ec249e07713"


def test_sample_grid_is_pinned():
    rows = []
    for p, k in SAMPLE_GRID_FIELDS:
        ctx = gf.field_create(p, k)
        for d in (1, 2, 3, 8):
            for seed in (0, 42, 2 ** 64 - 1):
                for index in (0, 1, 199, 10 ** 6):
                    rows.append([p, k, d, seed, index,
                                 sample_matrix(d, ctx, seed, index).rows,
                                 sample_gl(d, ctx, seed, index).rows])
    assert len(rows) == 288
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SAMPLE_GRID_SHA256


def test_wilson_interval_shape():
    low, high = wilson_interval(50, 100)
    assert 0 <= low <= 0.5 <= high <= 1
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and low == pytest.approx(100 / (100 + estimate.Z99 ** 2))
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0 < high < 0.07
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_monte_carlo_constant_predicates():
    rep = monte_carlo(lambda X: True, 2, F2, 500, 1)
    assert (rep.n, rep.successes) == (500, 500)
    assert rep.estimate == 1.0 and rep.ci_high == 1.0
    rep = monte_carlo(lambda X: False, 2, F2, 500, 1)
    assert rep.estimate == 0.0 and rep.ci_low == 0.0


def test_monte_carlo_invertibility_near_omega():
    rep = monte_carlo(matrix.is_invertible, 2, F2, 100_000, 123)
    assert rep.ci_low <= 0.375 <= rep.ci_high
    assert wilson_contains(rep.successes, rep.n, Fraction(3, 8))


def test_monte_carlo_nilpotency():
    rep = monte_carlo(matrix.is_nilpotent, 2, F2, 50_000, 5)
    assert abs(rep.estimate - 0.25) < 0.01


def test_monte_carlo_budget():
    with pytest.raises(BudgetExceeded):
        monte_carlo(lambda X: True, 2, F2, 100, 1, budget=10)


def test_gl_uniformity_chi_square():
    """Sampled GL(2,2) frequencies against the uniform law, 6 cells."""
    n = 60_000
    counts = {}
    for j in range(n):
        M = sample_gl(2, F2, 2024, j)
        counts[M.rows] = counts.get(M.rows, 0) + 1
    assert len(counts) == 6
    expected = n / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < CHI2_5_999, f"chi-square statistic {stat:.2f}"


def test_matrix_sampler_uniformity_chi_square():
    """All 16 matrices of M(2,2) should be hit uniformly."""
    n = 64_000
    counts = {}
    for j in range(n):
        M = sample_matrix(2, F2, 77, j)
        counts[M.rows] = counts.get(M.rows, 0) + 1
    assert len(counts) == 16
    expected = n / 16
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square 0.999 quantile, 15 dof
    assert stat < 37.6973062358, f"chi-square statistic {stat:.2f}"


def _exact_proportion(predicate, d, ctx):
    total = 0
    hits = 0
    for M in matrix.all_matrices(d, ctx):
        total += 1
        if predicate(M):
            hits += 1
    return Fraction(hits, total)


def test_calibration_twenty_known_proportions():
    """99% intervals should cover the exact value in >= 18 of 20 instances."""
    t0 = lambda X: sum(X.rows[i][i] for i in range(X.n)) % X.ctx.p == 0
    predicates = [
        ("nilpotent22", F2, matrix.is_nilpotent),
        ("invertible22", F2, matrix.is_invertible),
        ("separable22", F2, census.get_spec("separable").member),
        ("unipotent22", F2, census.get_spec("unipotent").member),
        ("eig0-22", F2, census.get_spec("has-eigenvalue(0)").member),
        ("eig1-22", F2, census.get_spec("has-eigenvalue(1)").member),
        ("pc22", F2, census.get_spec("primary-cyclic-some-f-not-t").member),
        ("rank<=1 22", F2, lambda X: matrix.rank(X) <= 1),
        ("idempotent22", F2, lambda X: X * X == X),
        ("involution22", F2, lambda X: matrix.is_invertible(X) and X * X == Mat.identity(X.ctx, X.n)),
        ("symmetric22", F2, lambda X: X.rows == tuple(zip(*X.rows))),
        ("trace0-22", F2, t0),
        ("nilpotent23", F3, matrix.is_nilpotent),
        ("invertible23", F3, matrix.is_invertible),
        ("separable23", F3, census.get_spec("separable").member),
        ("unipotent23", F3, census.get_spec("unipotent").member),
        ("eig2-23", F3, census.get_spec("has-eigenvalue(2)").member),
        ("pc23", F3, census.get_spec("primary-cyclic-some-f-not-t").member),
        ("symmetric23", F3, lambda X: X.rows == tuple(zip(*X.rows))),
        ("scalar23", F3, lambda X: X == Mat.scalar(X.ctx, X.n, X.rows[0][0])),
    ]
    assert len(predicates) == 20
    covered = 0
    for i, (name, ctx, pred) in enumerate(predicates):
        exact = _exact_proportion(pred, 2, ctx)
        rep = monte_carlo(pred, 2, ctx, 4000, 4242 + i)
        if wilson_contains(rep.successes, rep.n, exact):
            covered += 1
    assert covered >= 18, f"only {covered}/20 intervals covered the exact value"


def test_wilson_contains_matches_the_float_interval_off_its_endpoints():
    rng = random.Random(1405)
    checked = 0
    for _ in range(2000):
        n = rng.randint(1, 400_000)
        s = rng.randint(0, n)
        low, high = wilson_interval(s, n)
        for x in (low - rng.uniform(1e-6, 1e-3), low + rng.uniform(1e-6, 1e-3),
                  high - rng.uniform(1e-6, 1e-3), high + rng.uniform(1e-6, 1e-3),
                  rng.random()):
            if min(abs(x - low), abs(x - high)) < 1e-6:
                continue
            assert wilson_contains(s, n, Fraction(x)) == (low <= x <= high), (s, n, x)
            checked += 1
    assert checked > 9000


def _decimal_wilson_endpoints(s, n):
    """Roots of (n^2 + z^2 n) x^2 - (2 s n + z^2 n) x + s^2, to 60 digits."""
    with localcontext() as dec:
        dec.prec = 60
        z2 = Decimal(estimate.Z2.numerator) / Decimal(estimate.Z2.denominator)
        a = Decimal(n * n) + z2 * n
        b = Decimal(2 * s * n) + z2 * n
        root = (b * b - 4 * a * Decimal(s * s)).sqrt()
        return (b - root) / (2 * a), (b + root) / (2 * a)


def test_wilson_contains_decides_float_endpoints_exactly():
    # the float test ci_low <= x <= ci_high calls every float endpoint
    # inside; the exact set, checked against 60-digit endpoints, excludes
    # 11 of these 20
    excluded = 0
    for s, n in [(1, 3), (7, 10), (375, 1000), (3750, 10_000), (12_345, 200_000),
                 (99_999, 100_000), (1, 400_000), (5, 17), (83, 89), (2, 2), (0, 5)]:
        low, high = _decimal_wilson_endpoints(s, n)
        for e in wilson_interval(s, n):
            if e in (0.0, 1.0):
                continue
            x = Fraction(e)
            inside = low <= Decimal(x.numerator) / Decimal(x.denominator) <= high
            assert wilson_contains(s, n, x) == inside, (s, n, e)
            excluded += not inside
    assert excluded == 11


def test_wilson_contains_at_the_ends():
    # s = 0 and s = n: the set reaches 0 (resp. 1) and stops there
    assert wilson_contains(0, 50, 0) and not wilson_contains(0, 50, Fraction(-1, 10 ** 30))
    assert wilson_contains(50, 50, 1) and not wilson_contains(50, 50, 1 + Fraction(1, 10 ** 30))
    assert wilson_contains(0, 50, Fraction(1, 10)) and not wilson_contains(0, 50, Fraction(1, 5))
    assert not wilson_contains(50, 50, Fraction(4, 5))


@pytest.mark.parametrize("s,n,bound,direction,verdict", [
    (3750, 10_000, Fraction(1, 10), ">=", HOLDS),
    (3750, 10_000, Fraction(9, 10), ">=", VIOLATED),
    (3750, 10_000, Fraction(3, 8), ">=", INCONCLUSIVE),
    (3750, 10_000, Fraction(9, 10), "<=", HOLDS),
    (3750, 10_000, Fraction(1, 10), "<=", VIOLATED),
    (3750, 10_000, Fraction(3, 8), "<=", INCONCLUSIVE),
    # an enclosure is decided by the end that matters, else inconclusive
    (3750, 10_000, RInterval(Fraction(1, 10), Fraction(3, 8)), ">=", INCONCLUSIVE),
    (3750, 10_000, RInterval(Fraction(1, 10), Fraction(1, 5)), ">=", HOLDS),
    (3750, 10_000, RInterval(Fraction(3, 8), Fraction(9, 10)), "<=", INCONCLUSIVE),
    # s = 0 and s = n: the end of the set is its own bound
    (0, 50, Fraction(0), ">=", INCONCLUSIVE),
    (0, 50, Fraction(-1, 10 ** 30), ">=", HOLDS),
    (0, 50, Fraction(1, 2), ">=", VIOLATED),
    (50, 50, Fraction(1), "<=", INCONCLUSIVE),
    (50, 50, 1 + Fraction(1, 10 ** 30), "<=", HOLDS),
    (50, 50, Fraction(1, 2), "<=", VIOLATED),
])
def test_wilson_verdict_both_directions(s, n, bound, direction, verdict):
    if not isinstance(bound, RInterval):
        bound = RInterval.point(bound)
    assert wilson_verdict(s, n, bound, direction) == verdict


def test_wilson_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        wilson_verdict(1, 2, RInterval.point(Fraction(1, 2)), "<")


def test_bound_verdicts_exact_path():
    # a count at exactly 3/8: the set [0.3365, 0.4151] decides 1/3 and 1/2
    def verdict(bound, direction):
        return wilson_verdict(375, 1000, RInterval.point(bound), direction)

    assert verdict(Fraction(1, 3), ">=") == HOLDS
    assert verdict(Fraction(1, 2), "<=") == HOLDS
    assert verdict(Fraction(1, 2), ">=") == VIOLATED


def test_bound_verdicts_statistical_path():
    rep = monte_carlo(matrix.is_invertible, 2, F2, 10_000, 3)

    def verdict(bound, direction):
        return wilson_verdict(rep.successes, rep.n, RInterval.point(bound), direction)

    assert verdict(Fraction(1, 10), ">=") == HOLDS
    assert verdict(Fraction(9, 10), "<=") == HOLDS
    # a bound inside the interval cannot be settled by sampling
    assert verdict(Fraction(3, 8), ">=") == INCONCLUSIVE


def test_exact_and_bounds():
    F4 = gf.field_create(2, 2)
    spec = census.get_spec("pc-large-degree(2)")
    exact, ((name, direction, bound),) = estimate.exact_and_bounds(spec, 2, F4)
    assert exact == Fraction(7, 16)
    assert (name, direction) == ("algebra-lower-bound", ">=")
    assert not bound.lo > 0  # vacuous at c = 2
    assert intervals.verdict_value_ge(exact, bound) == HOLDS
    rep = monte_carlo(spec.member, 2, F4, 3000, 11)
    assert wilson_contains(rep.successes, rep.n, exact)
    assert wilson_verdict(rep.successes, rep.n, bound, ">=") == HOLDS
    # no closed form: the census while M(d, q) is small and in budget, else nothing
    assert estimate.exact_and_bounds(spec, 1, F4) == (Fraction(1, 2), ())
    invertible = census.get_spec("invertible")
    assert estimate.exact_and_bounds(invertible, 2, F2) == (Fraction(6, 16), ())
    assert estimate.exact_and_bounds(invertible, 2, F4, budget=100) == (None, ())
    assert estimate.exact_and_bounds(invertible, 5, F2) == (None, ())
