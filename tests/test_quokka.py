"""Cycle-type sums, closed forms, bands, and the full-algebra assembly."""

from fractions import Fraction

import pytest

from nicensus import embed, gf, intervals, matrix, poly, quokka
from nicensus.errors import RangeError
from nicensus.quokka import (
    bound_sheet,
    cycle_types,
    harmonic_band_verdict,
    harmonic_sum,
    ngl_band_verdict,
    ngl_exact,
    quokka_pc_r,
    quokka_pc_single,
    r_cycle_proportion,
    thm_pc_m_bound,
    thm_pc_m_exact,
)


def test_cycle_types_c3():
    got = {ct.parts: prop for ct, prop in cycle_types(3)}
    assert got == {(3,): Fraction(1, 3), (2, 1): Fraction(1, 2),
                   (1, 1, 1): Fraction(1, 6)}


def test_cycle_type_proportions_sum_to_one():
    for c in range(1, 13):
        assert sum(p for _, p in cycle_types(c)) == 1


def test_partition_counts():
    # number of cycle types = partition numbers
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 12: 77}
    for c, count in expected.items():
        assert len(cycle_types(c)) == count


def test_r_cycle_proportion():
    assert r_cycle_proportion(3, 2) == Fraction(1, 2)
    assert r_cycle_proportion(2, 2) == Fraction(1, 2)
    assert r_cycle_proportion(5, 3) == Fraction(1, 3)
    for c in range(2, 11):
        for r in range(c // 2 + 1, c + 1):
            assert r_cycle_proportion(c, r) == Fraction(1, r)
    with pytest.raises(RangeError):
        r_cycle_proportion(6, 3)  # r <= c/2: repeats possible, no closed form
    with pytest.raises(RangeError):
        r_cycle_proportion(3, 4)


def test_quokka_pc_single_examples():
    assert quokka_pc_single(2, 2, 1, 2) == Fraction(1, 3)
    assert quokka_pc_single(1, 2, 2, 1) == Fraction(2, 3)
    assert quokka_pc_single(2, 2, 2, 2) == Fraction(2, 15)


def test_quokka_pc_single_independent_of_c():
    for b in (1, 2, 3):
        for q in (2, 3):
            for c in range(1, 11):
                for r in range(c // 2 + 1, c + 1):
                    assert quokka_pc_single(c, q, b, r) == Fraction(b, q ** (b * r) - 1)


def test_quokka_pc_single_brute_force_gl22():
    # 2 of the 6 invertibles over F_2 have the irreducible quadratic charpoly
    F2 = gf.field_create(2)
    f = poly.Poly.make(F2, (1, 1, 1))
    count = sum(1 for M in matrix.all_invertible(2, F2) if matrix.charpoly(M) == f)
    assert Fraction(count, 6) == quokka_pc_single(2, 2, 1, 2)


def test_quokka_pc_r_values():
    assert quokka_pc_r(1, 2, 2, 1) == Fraction(2, 3)
    assert quokka_pc_r(2, 3, 1, 2) == Fraction(3, 8)
    assert quokka_pc_r(2, 2, 1, 2) == Fraction(1, 3)
    with pytest.raises(RangeError):
        quokka_pc_r(1, 2, 1, 1)  # b*r = 1: t spoils the closed form
    with pytest.raises(RangeError):
        quokka_pc_r(4, 2, 2, 2)  # r <= c/2


def test_single_times_count_equals_per_degree():
    for c in range(1, 7):
        for b in (1, 2, 3):
            for q in (2, 3):
                for r in range(c // 2 + 1, c + 1):
                    if b * r < 2:
                        continue
                    total = quokka_pc_single(c, q, b, r) * poly.irr_count(b * r, q)
                    assert total == quokka_pc_r(c, q, b, r)


def test_ngl_exact_values():
    assert ngl_exact(2, 2, 1) == Fraction(1, 3)
    # c = 1, b = 1: every invertible 1x1 matrix qualifies via its own linear factor
    assert ngl_exact(1, 2, 1) == 1
    assert ngl_exact(1, 5, 1) == 1
    # c = 1, b = 2: elements of degree exactly 2
    assert ngl_exact(1, 2, 2) == Fraction(2, 3)


def test_ngl_exact_brute_force_gl_1_q():
    # oracle for the b=1, c=1 corner: (alpha) is (t - alpha)-primary cyclic
    for q in (2, 3, 5):
        ctx = gf.field_create(q)
        members = 0
        for a in range(1, q):
            M = matrix.Mat.from_rows(ctx, [(a,)])
            cp = matrix.charpoly(M)
            assert cp.degree == 1
            members += 1  # charpoly = minpoly is automatic in dimension 1
        assert Fraction(members, q - 1) == ngl_exact(1, q, 1)


def test_harmonic_band():
    assert harmonic_sum(2) == Fraction(1, 2)
    for c in range(2, 13):
        assert harmonic_band_verdict(c) == intervals.HOLDS


def test_ngl_band_grid():
    for q in (2, 3, 4, 5):
        for b in (1, 2, 3, 4):
            for c in range(2, 13):
                assert ngl_band_verdict(c, q, b) == intervals.HOLDS


def test_thm_bound_values():
    b = thm_pc_m_bound(100, 2, 8)
    assert abs(float((b.lo + b.hi) / 2) - 0.5324657) < 1e-6
    assert thm_pc_m_bound(2, 2, 2).hi < 0
    with pytest.raises(RangeError):
        thm_pc_m_bound(1, 2, 2)
    with pytest.raises(RangeError):
        thm_pc_m_exact(2, 2, 1)


def test_thm_pc_m_exact_anchor():
    # frozen from the exhaustive M(2,4) oracle (112 members of 256)
    assert thm_pc_m_exact(2, 2, 2) == Fraction(7, 16)


def test_thm_pc_m_exact_matches_exhaustion():
    tower = embed.parse_tower("4/2")
    members, total = embed.pc_membership_count(2, tower)
    assert Fraction(members, total) == thm_pc_m_exact(2, 2, 2)


def test_per_dim_closed_form_matches_gl_enumeration():
    # i = 1 and i = 2 over q^b = 4: exhaustive counting over GL(i, 4)
    tower = embed.parse_tower("4/2")
    for i in (1, 2):
        members = 0
        gl = 0
        for M in matrix.all_matrices(i, tower.ext):
            if not matrix.is_invertible(M):
                continue
            gl += 1
            if embed.pc_membership(M, tower).member:
                members += 1
        assert Fraction(members, gl) == ngl_exact(i, 2, 2)


def test_thm_verdicts_hold():
    for c, q, b in [(2, 2, 2), (4, 2, 2), (6, 3, 2), (8, 2, 2), (5, 2, 3)]:
        assert quokka.thm_pc_m_verdict(c, q, b) == intervals.HOLDS


def test_bound_sheet():
    sheet = bound_sheet(6, 2, 2)
    assert sheet.exact_total == ngl_exact(6, 2, 2)
    assert sheet.overall == intervals.HOLDS
    assert dict(sheet.verdicts)["harmonic-band"] == intervals.HOLDS
    assert [r for r, _ in sheet.exact_by_r] == [4, 5, 6]
