"""Blow-up: algebra homomorphism, charpoly norm, membership, equivalence."""

from fractions import Fraction

import pytest

from nicensus import embed, estimate, gf, matrix, poly
from nicensus.errors import FieldMismatch, NotADivisor, NotASubfield, ParseError
from nicensus.matrix import Mat
from nicensus.poly import Poly

F2 = gf.field_create(2)
F4 = gf.field_create(2, 2)
TOWER = embed.make_tower(F4, F2)
LAM = 2  # the class of t in F_4: lam^2 = lam + 1


def test_parse_tower():
    t = embed.parse_tower("4/2")
    assert t.b == 2 and t.base.order == 2 and t.ext.order == 4
    t = embed.parse_tower("2^2/2")
    assert t.b == 2
    t = embed.parse_tower("9/3")
    assert t.b == 2 and t.ext.order == 9
    with pytest.raises(ParseError):
        embed.parse_tower("4")
    with pytest.raises(ParseError):
        embed.parse_tower("8/4")  # F_4 is not a subfield of F_8
    with pytest.raises(ParseError):
        embed.parse_tower("6/2")


def test_regular_rep_examples():
    assert embed.regular_rep(LAM, TOWER).rows == ((0, 1), (1, 1))
    assert embed.regular_rep(1, TOWER) == Mat.identity(F2, 2)
    # embedded scalars act scalarly
    assert embed.regular_rep(0, TOWER) == Mat.zero(F2, 2)
    # multiplicativity of the representation itself
    ext = TOWER.ext
    for a in ext.elements():
        for b in ext.elements():
            lhs = embed.regular_rep(ext.mul(a, b), TOWER)
            assert lhs == embed.regular_rep(a, TOWER) * embed.regular_rep(b, TOWER)


def test_blow_up_examples():
    assert embed.blow_up(Mat.identity(F4, 2), TOWER) == Mat.identity(F2, 4)
    X = Mat.from_rows(F4, [(LAM,)])
    assert matrix.charpoly(embed.blow_up(X, TOWER)) == Poly.make(F2, (1, 1, 1))
    with pytest.raises(FieldMismatch):
        embed.blow_up(Mat.identity(F2, 2), TOWER)


def test_blow_up_homomorphism_random_pairs():
    # 4/2 on the full-table tier, 2^10/2^5 with K on the log-table tier
    log_tier = embed.tower_for(gf.field_create(2, 10), 2)
    for tower, n, pairs in [(TOWER, 2, 1000), (log_tier, 3, 50)]:
        for j in range(pairs):
            A = estimate.sample_matrix(n, tower.ext, seed=7, index=2 * j)
            B = estimate.sample_matrix(n, tower.ext, seed=7, index=2 * j + 1)
            assert embed.blow_up(A * B, tower) == embed.blow_up(A, tower) * embed.blow_up(B, tower)
            assert embed.blow_up(A + B, tower) == embed.blow_up(A, tower) + embed.blow_up(B, tower)


def test_blow_up_injective_on_m_1_4():
    images = {embed.blow_up(Mat.from_rows(F4, [(a,)]), TOWER) for a in F4.elements()}
    assert len(images) == 4


def test_charpoly_norm_identity_exhaustive():
    for idx in range(256):
        X = matrix.matrix_from_index(F4, 2, idx)
        lhs = matrix.charpoly(embed.blow_up(X, TOWER))
        rhs = poly.norm(matrix.charpoly(X), TOWER.base)
        assert lhs == rhs


def test_pc_membership_dimension_one():
    res = embed.pc_membership(Mat.from_rows(F4, [(LAM,)]), TOWER)
    assert res.member and res.r == 1
    assert res.witness_f == Poly.make(F2, (1, 1, 1))
    assert res.witness_g == Poly.make(F4, (LAM, 1))
    res = embed.pc_membership(Mat.from_rows(F4, [(1,)]), TOWER)
    assert not res.member
    res = embed.pc_membership(Mat.from_rows(F4, [(0,)]), TOWER)
    assert not res.member and res.inv_dim == 0


def test_pc_membership_identity_2x2():
    assert not embed.pc_membership(Mat.identity(F4, 2), TOWER).member


def test_pc_membership_nilpotent_never_member():
    for idx in range(256):
        X = matrix.matrix_from_index(F4, 2, idx)
        if matrix.is_nilpotent(X):
            assert not embed.pc_membership(X, TOWER).member


def test_fast_route_equals_direct_route_exhaustive():
    for c, total in [(1, 4), (2, 256)]:
        for idx in range(total):
            X = matrix.matrix_from_index(F4, c, idx)
            assert embed.pc_member_charpoly(X, TOWER) == embed.pc_membership(X, TOWER).member


@pytest.mark.parametrize("tower_text", ["4/2", "9/3"])
@pytest.mark.parametrize("c", [3, 4])
def test_fast_route_equals_direct_route_sampled(tower_text, c):
    tower = embed.parse_tower(tower_text)
    for j in range(200):
        X = estimate.sample_matrix(c, tower.ext, 42, j)
        assert embed.pc_member_charpoly(X, tower) == embed.pc_membership(X, tower).member


def test_fast_route_needs_no_irreducible_enumeration():
    # Over F_2^14 the equal-degree split by trial division ran out of
    # enumeration budget on this sample; the fast route never enumerates.
    ext = gf.field_create(2, 14)
    X = estimate.sample_matrix(4, ext, 42, 3)
    assert embed.pc_member_charpoly(X, embed.tower_for(ext, 2)) is False


def test_membership_depends_only_on_invertible_part():
    for idx in range(256):
        X = matrix.matrix_from_index(F4, 2, idx)
        split = matrix.fitting_decompose(X)
        canon = matrix.direct_sum(split.x_inv, Mat.zero(F4, split.nil_dim))
        assert embed.pc_membership(X, TOWER).member == embed.pc_membership(canon, TOWER).member


def test_per_polynomial_sets_pairwise_disjoint():
    """No invertible X in GL(2,4) is counted for two distinct degree-4 polynomials."""
    fs = poly.irr_enumerate(4, F2)
    for idx in range(256):
        X = matrix.matrix_from_index(F4, 2, idx)
        if not matrix.is_invertible(X):
            continue
        Y = embed.blow_up(X, TOWER)
        cp = matrix.charpoly(Y)
        hits = [f for f in fs if poly.multiplicity_in(f, cp) >= 1
                and matrix.is_primary_cyclic(Y, f, cp=cp)]
        assert len(hits) <= 1


def test_proposition_check_examples():
    X = Mat.from_rows(F4, [(LAM,)])
    f = Poly.make(F2, (1, 1, 1))
    rep = embed.proposition_check(X, f, TOWER)
    assert rep.direct and rep.via_conditions and rep.agree
    assert rep.witness_g == Poly.make(F4, (LAM, 1))
    # degree not divisible by b: both sides false
    one = Mat.from_rows(F4, [(1,)])
    t_plus_1 = Poly.make(F2, (1, 1))
    rep = embed.proposition_check(one, t_plus_1, TOWER)
    assert not rep.direct and not rep.via_conditions and rep.agree
    with pytest.raises(NotADivisor):
        embed.proposition_check(one, f, TOWER)


def test_brute_force_counts_match_closed_form_small():
    counts, gl_size = embed.pc_counts_by_f(1, TOWER, 1)
    assert gl_size == 3
    assert set(counts.values()) == {2}  # each f in Irr_2(2): 2 of 3 elements
    assert Fraction(2, 3) == Fraction(2, 2 ** 2 - 1)


def test_tower_min_poly():
    assert TOWER.min_poly == Poly.make(F2, (1, 1, 1))
    t93 = embed.parse_tower("9/3")
    assert t93.min_poly.degree == 2
    assert poly.is_irreducible(t93.min_poly)
    with pytest.raises(NotASubfield):
        embed.tower_for(F4, 3)
