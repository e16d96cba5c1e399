"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every exact criterion is asserted as a rational identity with zero
tolerance; interval criteria compare exact rationals against
outward-rounded enclosures; the sampled criterion pins seed 42 and
n = 200000 and requires 99% interval coverage of the exact value.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from fractions import Fraction

import pytest

from nicensus import census, cli, embed, estimate, gf, intervals, matrix, poly, quokka
from nicensus.census import census_exact, corollary_sum_check, gaussian_binomial, get_spec

from matrices import from_index

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)

AUDIT_SPECS = ("all", "invertible", "nilpotent-complement",
               "primary-cyclic-some-f-not-t", "separable", "unipotent",
               "has-eigenvalue(1)", "has-eigenvalue(0)")


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_flag_sum_identity():
    """Brute-force LHS equals the formula RHS for the primary cyclic family."""
    spec = get_spec("primary-cyclic-some-f-not-t")
    results = {}
    for d, ctx in [(2, F2), (2, F3), (3, F2)]:
        fc = census_exact(spec, d, ctx)
        assert fc.lhs == fc.rhs  # census_exact also asserts internally
        results[(d, ctx.order)] = fc
    anchor = results[(2, 2)]
    assert anchor.n_total == 11
    assert anchor.lhs == Fraction(11, 6)
    assert Fraction(anchor.per_i[2].n_i, anchor.per_i[2].gl_i) == Fraction(5, 6)
    assert Fraction(anchor.per_i[1].n_i, anchor.per_i[1].gl_i) == 1
    assert anchor.per_i[0].n_i == 0
    _report(1, "flag-sum identity exact on (2,2), (2,3), (3,2); "
               f"(2,2) anchors |N|=11, lhs=11/6, top proportion 5/6")


def test_criterion_2_telescoping_sums():
    for q in (2, 3, 4, 5, 7):
        for d in range(0, 9):
            cs = corollary_sum_check(d, q)
            assert cs.lhs_full == cs.rhs_full
            assert cs.lhs_truncated == cs.rhs_truncated
    _report(2, "telescoping sum identities exact for d <= 8, q in {2,3,4,5,7}")


def test_criterion_3_count_identity_and_nilpotents():
    checked = 0
    for d, ctx in [(2, F2), (2, F3), (3, F2)]:
        q = ctx.order
        for name in AUDIT_SPECS:
            fc = census_exact(get_spec(name), d, ctx)
            for p in fc.per_i:
                assert p.n_of_i == gaussian_binomial(d, p.i, q) * q ** ((d - p.i) * (d - 1)) * p.n_i
                checked += 1
    for name in ("all", "nilpotent-complement"):
        fc = census_exact(get_spec(name), 3, F3)
        for p in fc.per_i:
            assert p.n_of_i == gaussian_binomial(3, p.i, 3) * 3 ** ((3 - p.i) * 2) * p.n_i
            checked += 1
    counts = {}
    for n in (1, 2, 3):
        for ctx in (F2, F3):
            q = ctx.order
            cnt = sum(1 for M in matrix.all_matrices(n, ctx) if matrix.is_nilpotent(M))
            assert cnt == q ** (n * n - n)
            counts[(n, q)] = cnt
    assert counts[(2, 2)] == 4 and counts[(3, 2)] == 64
    _report(3, f"count identity on {checked} (spec, i) cells; nilpotent counts "
               f"q^(n^2-n) match exhaustion for n <= 3, q <= 3")


def test_criterion_4_closed_form_vs_exhaustive_gl():
    for c, b, q, r in [(2, 1, 2, 2), (2, 1, 3, 2), (1, 2, 2, 1), (2, 2, 2, 2), (3, 1, 2, 2)]:
        ((p, m),) = gf.factor_int(q).items()
        tower = embed.tower_for(gf.field_create(p, m * b), b)
        counts, gl_size = embed.pc_counts_by_f(c, tower, r)
        assert len(counts) == poly.irr_count(b * r, q)
        expected = Fraction(b, q ** (b * r) - 1)
        for f, cnt in counts.items():
            assert Fraction(cnt, gl_size) == expected, (c, b, q, r, str(f))
        if (c, b, q, r) == (2, 1, 2, 2):
            assert expected == Fraction(1, 3) and gl_size == 6
    _report(4, "per-polynomial proportion b/(q^br - 1) matches exhaustive GL "
               "counts on all five instances (anchor 1/3 on GL(2,2))")


def test_criterion_5_blow_up_equivalence():
    tower = embed.parse_tower("4/2")
    checked = 0
    for c, total in [(1, 4), (2, 256)]:
        for idx in range(total):
            X = from_index(F4, c, idx)
            for rep in embed.proposition_check(X, tower):
                assert rep.agree
                checked += 1
    assert checked == 360
    _report(5, f"blow-up equivalence agrees on {checked}/{checked} instances "
               "over exhaustive M(1,4) and M(2,4)")


def test_criterion_6_bounds_and_bands():
    sandwich = 0
    for q in (2, 3, 4, 5):
        for b in (1, 2, 3, 4):
            for c in range(1, 13):
                for r in range(c // 2 + 1, c + 1):
                    if b * r < 2:
                        continue  # Irr_1 contains t; the sandwich starts at degree 2
                    assert quokka.pc_r_sandwich_verdict(q, b, r) == intervals.HOLDS
                    sandwich += 1
    for c in range(2, 13):
        assert quokka.harmonic_band_verdict(c) == intervals.HOLDS
    bands = 0
    for q in (2, 3, 4, 5):
        for b in (1, 2, 3, 4):
            for c in range(2, 13):
                assert quokka.ngl_band_verdict(c, q, b) == intervals.HOLDS
                bands += 1
    _report(6, f"{sandwich} sandwich instances, harmonic band on c in [2,12], "
               f"{bands} group-band instances, all definitive holds")


@pytest.mark.slow
def test_criterion_7_end_to_end():
    tower = embed.parse_tower("4/2")
    members = census.count_members(lambda X: embed.pc_membership(X, tower).member,
                                   2, tower.ext)
    exact_small = quokka.thm_pc_m_exact(2, 2, 2)
    assert members == 112
    assert Fraction(members, 256) == exact_small

    details = []
    for c, q, b in [(8, 2, 2), (6, 3, 2)]:
        spec, ctx = get_spec(f"pc-large-degree({b})"), gf.field_create(q, b)
        exact, ((_, _, bound),) = estimate.exact_and_bounds(spec, c, ctx)
        report = estimate.monte_carlo(spec.member, c, ctx, 200_000, 42)
        count = (report.successes, report.n)
        assert exact == quokka.thm_pc_m_exact(c, q, b)
        assert estimate.wilson_contains(*count, exact), (
            f"(c,q,b)=({c},{q},{b}): exact {float(exact):.6f} "
            f"outside [{report.ci_low:.6f}, {report.ci_high:.6f}]")
        # a bound wholly below 0 holds for every count
        assert estimate.wilson_verdict(*count, bound, ">=") == intervals.HOLDS
        details.append(f"({c},{q},{b}) est={report.estimate:.5f} "
                       f"exact={float(exact):.5f}")
    _report(7, "exhaustive M(2,4) count 112/256 equals closed form 7/16; "
               + "; ".join(details))


def test_criterion_8_ni_audits_and_semisimple_charpoly():
    for ctx in (F2, F3):
        for name in AUDIT_SPECS:
            rep = census.ni_verify(get_spec(name), 2, ctx)
            assert rep.ok, (name, ctx.order, rep.violations)
    checked = 0
    for d, ctx in [(2, F2), (2, F3), (3, F2)]:
        for g in matrix.all_invertible(d, ctx):
            s, u = matrix.jordan_multiplicative(g)
            assert s * u == g == u * s
            assert matrix.charpoly(g) == matrix.charpoly(s)
            checked += 1
    assert checked == 6 + 48 + 168
    _report(8, f"NI audits exhaustive for {len(AUDIT_SPECS)} specs on M(2,2) and "
               f"M(2,3); semisimple-part charpoly identity on {checked} elements")


def test_criterion_9_regular_orbit_oracle():
    lines = []
    for r, b, q in [(1, 2, 2), (2, 2, 2), (1, 3, 2), (2, 2, 3)]:
        rep = poly.regular_orbit_report(r, b, q)
        assert rep["supports"] in ("b*|Irr_br(q)|", "both")
        lines.append(f"(r={r},b={b},q={q}): count={rep['count']} supports {rep['supports']}")
    anchor = poly.regular_orbit_report(1, 2, 2)
    assert anchor["count"] == 2 == anchor["b_formula"]
    assert anchor["r_formula"] == 1  # refuted by the enumeration
    _report(9, "enumeration supports b*|Irr_br(q)| everywhere; " + "; ".join(lines))


def test_verify_suites_cover_criteria():
    """The CLI suites re-run the fast criteria and must report zero failures."""
    for suite in ("theorem1", "corollary-sums", "lemma31",
                  "quokka-closed-forms", "prop-polys", "bounds"):
        checks = cli.run_suite(suite)
        bad = [c for c in checks if c.status != "pass"]
        assert not bad, (suite, bad)
