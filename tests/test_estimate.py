"""Sampling determinism, Wilson intervals, uniformity, calibration."""

from fractions import Fraction

import pytest

from nicensus import census, estimate, gf, intervals, matrix
from nicensus.errors import BudgetExceeded
from nicensus.estimate import monte_carlo, sample_gl, sample_matrix, wilson_interval
from nicensus.matrix import Mat

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
        assert sample_gl(1, F2, 3, j) == Mat.from_rows(F2, [(1,)])


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
    assert rep.estimate == 1.0 and rep.ci_high == 1.0
    rep = monte_carlo(lambda X: False, 2, F2, 500, 1)
    assert rep.estimate == 0.0 and rep.ci_low == 0.0


def test_monte_carlo_invertibility_near_omega():
    rep = monte_carlo(matrix.is_invertible, 2, F2,
                      100_000, 123, exact=Fraction(3, 8))
    assert rep.ci_low <= 0.375 <= rep.ci_high
    assert rep.exact_in_ci


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
        rep = monte_carlo(pred, 2, ctx, 4000, 4242 + i, exact=exact)
        if rep.exact_in_ci:
            covered += 1
    assert covered >= 18, f"only {covered}/20 intervals covered the exact value"


def test_bound_verdicts_exact_path():
    rep = monte_carlo(matrix.is_invertible, 2, F2, 1000, 3,
                      exact=Fraction(3, 8),
                      bounds=(("one-third", ">=", Fraction(1, 3)),
                              ("half", "<=", Fraction(1, 2))))
    assert all(b.verdict == intervals.HOLDS for b in rep.bounds)
    rep = monte_carlo(matrix.is_invertible, 2, F2, 1000, 3,
                      exact=Fraction(3, 8),
                      bounds=(("too-big", ">=", Fraction(1, 2)),))
    assert rep.bounds[0].verdict == intervals.VIOLATED


def test_bound_verdicts_statistical_path():
    rep = monte_carlo(matrix.is_invertible, 2, F2, 10_000, 3,
                      bounds=(("one-tenth", ">=", Fraction(1, 10)),
                              ("nine-tenths", "<=", Fraction(9, 10)),
                              ("near-exact", ">=", Fraction(3, 8))))
    byname = {b.name: b.verdict for b in rep.bounds}
    assert byname["one-tenth"] == intervals.HOLDS
    assert byname["nine-tenths"] == intervals.HOLDS
    # a bound inside the interval cannot be settled by sampling
    assert byname["near-exact"] == intervals.INCONCLUSIVE


def test_compare_small():
    rows = estimate.compare([(2, 2, 2)], n=3000, seed=11)
    row = rows[0]
    assert row.exact == Fraction(7, 16)
    assert row.exact_in_ci
    assert not row.bound_positive
    assert row.verdicts["exact-vs-bound"] == intervals.HOLDS
