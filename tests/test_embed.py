"""Blow-up: algebra homomorphism, charpoly norm, membership, equivalence."""

from fractions import Fraction

import pytest

from nicensus import embed, estimate, gf, matrix, poly
from nicensus.errors import FieldMismatch, NotASubfield, ParseError
from nicensus.matrix import Mat
from nicensus.poly import Poly

from matrices import cyclic_factors, from_index, from_rows, norm, proposition_report, tower_coords

F2 = gf.field_create(2)
F4 = gf.field_create(2, 2)
TOWER = embed.tower_for(F4, 2)
LAM = 2  # the class of t in F_4: lam^2 = lam + 1


def test_parse_tower():
    t = embed.parse_tower("4/2")
    assert t.b == 2 and t.base.order == 2 and t.ext.order == 4
    t = embed.parse_tower("2^2/2")
    assert t.b == 2
    t = embed.parse_tower("9/3")
    assert t.b == 2 and t.ext.order == 9
    assert embed.parse_tower(" 16 / 2^2 ") is embed.tower_for(gf.field_create(2, 4), 2)
    with pytest.raises(ParseError):
        embed.parse_tower("4")
    with pytest.raises(ParseError):
        embed.parse_tower("8/4")  # F_4 is not a subfield of F_8
    for text in ("6/2", "0/2", "x/2", "2^2/7/2", "4/2^"):
        with pytest.raises(ParseError):
            embed.parse_tower(text)


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
    X = from_rows(F4, [(LAM,)])
    assert matrix.charpoly(embed.blow_up(X, TOWER)) == Poly.make(F2, (1, 1, 1))
    with pytest.raises(FieldMismatch):
        embed.blow_up(Mat.identity(F2, 2), TOWER)


def test_blow_up_homomorphism_random_pairs():
    # 4/2 on the full-table tier, 2^10/2^5 with K on the log-table tier,
    # 2^18/2^9 with K on the raw tier
    log_tier = embed.tower_for(gf.field_create(2, 10), 2)
    raw_tier = embed.tower_for(gf.field_create(2, 18), 2)
    for tower, n, pairs in [(TOWER, 2, 1000), (log_tier, 3, 50), (raw_tier, 2, 20)]:
        for j in range(pairs):
            A = estimate.sample_matrix(n, tower.ext, seed=7, index=2 * j)
            B = estimate.sample_matrix(n, tower.ext, seed=7, index=2 * j + 1)
            assert embed.blow_up(A * B, tower) == embed.blow_up(A, tower) * embed.blow_up(B, tower)
            assert embed.blow_up(A + B, tower) == embed.blow_up(A, tower) + embed.blow_up(B, tower)


def test_blow_up_injective_on_m_1_4():
    images = {embed.blow_up(from_rows(F4, [(a,)]), TOWER) for a in F4.elements()}
    assert len(images) == 4


def test_charpoly_norm_identity_exhaustive():
    for idx in range(256):
        X = from_index(F4, 2, idx)
        lhs = matrix.charpoly(embed.blow_up(X, TOWER))
        rhs = norm(matrix.charpoly(X), TOWER.base)
        assert lhs == rhs


def test_pc_membership_dimension_one():
    res = embed.pc_membership(from_rows(F4, [(LAM,)]), TOWER)
    assert res.member and res.r == 1
    assert res.witness_f == Poly.make(F2, (1, 1, 1))
    assert res.witness_g == Poly.make(F4, (LAM, 1))
    res = embed.pc_membership(from_rows(F4, [(1,)]), TOWER)
    assert not res.member
    res = embed.pc_membership(from_rows(F4, [(0,)]), TOWER)
    assert not res.member and res.inv_dim == 0


def test_pc_membership_identity_2x2():
    assert not embed.pc_membership(Mat.identity(F4, 2), TOWER).member


def test_pc_membership_nilpotent_never_member():
    for idx in range(256):
        X = from_index(F4, 2, idx)
        if matrix.is_nilpotent(X):
            assert not embed.pc_membership(X, TOWER).member


def test_fast_route_equals_direct_route_exhaustive():
    for c, total in [(1, 4), (2, 256)]:
        for idx in range(total):
            X = from_index(F4, c, idx)
            assert embed.pc_member_charpoly(X, TOWER) == embed.pc_membership(X, TOWER).member


@pytest.mark.parametrize("tower_text", ["4/2", "9/3", "8/2", "16/2", "27/3", "16/4"])
@pytest.mark.parametrize("c", [3, 4])
def test_fast_route_equals_direct_route_sampled(tower_text, c):
    # orbits of length 2, 3 and 4, and over F_4 (two frob reads per
    # conjugate coefficient); 100 samples on the towers past 4/2 and 9/3
    tower = embed.parse_tower(tower_text)
    for j in range(200 if tower_text in ("4/2", "9/3") else 100):
        X = estimate.sample_matrix(c, tower.ext, 42, j)
        assert embed.pc_member_charpoly(X, tower) == embed.pc_membership(X, tower).member


@pytest.mark.parametrize("c,k,indices,member", [
    (4, 14, (3, 9, 38, 71, 75, 77, 93, 96), False),
    (3, 10, (0, 2, 6, 7), True),
], ids=["M4_F2_14", "M3_F2_10"])
def test_fast_route_equals_direct_route_on_large_fields(c, k, indices, member):
    # The direct route factors polynomials here whose equal-degree split
    # by trial division would enumerate 128^4 quartics over F_2^7 or
    # 1024^3 cubics over F_2^10.
    ext = gf.field_create(2, k)
    tower = embed.tower_for(ext, 2)
    for j in indices:
        X = estimate.sample_matrix(c, ext, 42, j)
        assert embed.pc_membership(X, tower).member == embed.pc_member_charpoly(X, tower) == member


def test_membership_depends_only_on_invertible_part():
    for idx in range(256):
        X = from_index(F4, 2, idx)
        split = matrix.fitting_decompose(X)
        canon = matrix.direct_sum(split.x_inv, Mat.zero(F4, split.nil_dim))
        assert embed.pc_membership(X, TOWER).member == embed.pc_membership(canon, TOWER).member


def test_per_polynomial_sets_pairwise_disjoint():
    """No invertible X in GL(2,4) is counted for two distinct degree-4 polynomials."""
    fs = poly.irr_enumerate(4, F2)
    for idx in range(256):
        X = from_index(F4, 2, idx)
        if not matrix.is_invertible(X):
            continue
        hits = [f for f in cyclic_factors(embed.blow_up(X, TOWER)) if f in fs]
        assert len(hits) <= 1


def test_proposition_check_examples():
    X = from_rows(F4, [(LAM,)])
    (rep,) = embed.proposition_check(X, TOWER)
    assert rep.f == Poly.make(F2, (1, 1, 1))
    assert rep.direct and rep.via_conditions and rep.agree
    assert rep.witness_g == Poly.make(F4, (LAM, 1))
    # degree not divisible by b: both sides false
    (rep,) = embed.proposition_check(from_rows(F4, [(1,)]), TOWER)
    assert rep.f == Poly.make(F2, (1, 1))
    assert not rep.direct and not rep.via_conditions and rep.agree
    with pytest.raises(FieldMismatch):
        embed.proposition_check(Mat.identity(F2, 1), TOWER)


@pytest.mark.parametrize("tower_text,c", [
    ("4/2", 1), ("8/2", 1), ("16/2", 1), ("9/3", 1), ("27/3", 1), ("4/2", 2),
])
def test_proposition_check_equals_the_per_divisor_oracle(tower_text, c):
    # b = 2, 3 and 4, odd p, and M(2, 4): one analysis per matrix gives
    # the reports of one analysis per (X, f), f in canonical order
    tower = embed.parse_tower(tower_text)
    direct = 0
    for X in matrix.all_matrices(c, tower.ext):
        fs = [f for f, _ in poly.factorize(matrix.charpoly(embed.blow_up(X, tower)))]
        reports = embed.proposition_check(X, tower)
        assert reports == tuple(proposition_report(X, f, tower) for f in fs)
        direct += sum(rep.direct for rep in reports)
    assert direct > 0


def test_brute_force_counts_match_closed_form_small():
    counts, gl_size = embed.pc_counts_by_f(1, TOWER, 1)
    assert gl_size == 3
    assert set(counts.values()) == {2}  # each f in Irr_2(2): 2 of 3 elements
    assert Fraction(2, 3) == Fraction(2, 2 ** 2 - 1)


def test_tower_min_poly():
    # The charpoly of multiplication by the power-basis generator is its
    # minimal polynomial over the base field.
    assert matrix.charpoly(embed.regular_rep(TOWER.basis[1], TOWER)) == Poly.make(F2, (1, 1, 1))
    t93 = embed.parse_tower("9/3")
    mp = matrix.charpoly(embed.regular_rep(t93.basis[1], t93))
    assert mp.degree == 2
    assert poly.is_irreducible(mp)
    with pytest.raises(NotASubfield):
        embed.tower_for(F4, 3)


@pytest.mark.parametrize("p,k,b", [
    (2, 2, 2), (2, 4, 2), (2, 6, 2), (2, 10, 2), (2, 12, 3), (3, 4, 2), (2, 4, 1),
    (3, 1, 1), (5, 2, 2), (3, 6, 3), (2, 8, 4), (2, 9, 3), (2, 6, 6), (2, 16, 16),
])
def test_coords_match_the_table_oracle(p, k, b):
    tower = embed.tower_for(gf.field_create(p, k), b)
    table = tower_coords(tower)
    assert all(tower.coords(alpha) == table[alpha] for alpha in tower.ext.elements())


def test_tower_for_builds_past_the_log_table_tier():
    # F_2^17 has no log tables, and its tower over F_2 builds no table of K
    ext = gf.field_create(2, 17)
    tower = embed.tower_for(ext, 17)
    assert tower.base is F2 and tower.b == 17 and tower is embed.tower_for(ext, 17)
    for alpha in (0, 1, 2, 5, 99999, ext.order - 1):
        coords = tower.coords(alpha)
        assert ext.from_digits(coords) == alpha  # over F_2 the basis is 1, t, ..., t^16
        assert embed.regular_rep(ext.mul(alpha, 3), tower) == (
            embed.regular_rep(alpha, tower) * embed.regular_rep(3, tower))


def test_rep_cache_is_bounded():
    # F_2^14 over F_2^7 has 16,384 elements, four times the bound; 0..99
    # are asked for again after the 100 entries past the bound evicted them
    tower = embed.tower_for(gf.field_create(2, 14), 2)
    bound = embed._REP_CACHE_MAX
    embed.regular_rep.cache_clear()
    for n, alpha in enumerate([*range(bound + 100), *range(100)]):
        M = embed.regular_rep(alpha, tower)
        assert embed.regular_rep.cache_info().currsize <= bound
        if n >= bound:
            assert M == embed.regular_rep.__wrapped__(alpha, tower)
    info = embed.regular_rep.cache_info()
    assert (info.currsize, info.hits, info.misses) == (bound, 0, bound + 200)


@pytest.mark.parametrize("p,k", [(2, 18), (3, 12)], ids=["F2_18", "F3_12"])
def test_fast_route_equals_direct_route_past_the_log_table_tier(p, k):
    ext = gf.field_create(p, k)
    tower = embed.tower_for(ext, 2)
    for j in range(10):
        X = estimate.sample_matrix(2, ext, 42, j)
        assert embed.pc_member_charpoly(X, tower) == embed.pc_membership(X, tower).member


def test_fast_route_builds_no_coordinates():
    # the inverse behind the coordinates needs the subfield embedding,
    # which takes about a second into F_2^20; the charpoly route never asks
    ext = gf.field_create(2, 20)
    tower = embed.tower_for(ext, 4)
    misses = gf.subfield_embedding.cache_info().misses
    X = estimate.sample_matrix(2, ext, 42, 0)
    assert isinstance(embed.pc_member_charpoly(X, tower), bool)
    assert gf.subfield_embedding.cache_info().misses == misses
    assert "_uncoord" not in vars(tower)
