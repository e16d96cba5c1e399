"""Linear algebra invariants, mostly by exhaustion over the tiny algebras."""

import itertools
import random

import pytest

from nicensus import census, embed, estimate, gf, matrix, poly
from nicensus.errors import DegreeMismatch, ParseError, SingularMatrix
from nicensus.matrix import Mat
from nicensus.poly import Poly

from matrices import (cyclic_factors, fitting_blocks, from_index, from_rows, multiplicity_in,
                      row_space_basis)

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)


def test_charpoly_minpoly_examples():
    I2 = Mat.identity(F2, 2)
    t_plus_1 = Poly.make(F2, (1, 1))
    assert matrix.charpoly(I2) == t_plus_1 ** 2
    assert matrix.minpoly(I2) == t_plus_1

    f = Poly.make(F2, (1, 1, 1))
    C = matrix.companion(f)
    assert matrix.charpoly(C) == f == matrix.minpoly(C)

    J = from_rows(F2, [(0, 1), (0, 0)])
    t2 = Poly.x(F2) ** 2
    assert matrix.charpoly(J) == t2 == matrix.minpoly(J)


@pytest.mark.parametrize("ctx", [F2, F3], ids=["q2", "q3"])
def test_minpoly_divides_charpoly_exhaustive(ctx):
    for M in matrix.all_matrices(2, ctx):
        cp = matrix.charpoly(M)
        mp = matrix.minpoly(M)
        assert cp.is_monic and cp.degree == 2
        assert mp.is_monic
        assert (cp % mp).is_zero
        assert (mp ** M.n % cp).is_zero  # charpoly | minpoly^d
        assert matrix.evaluate_poly_at(mp, M).is_zero


@pytest.mark.parametrize("ctx,trials", [(F2, 1000), (F3, 1000), (F4, 1000)],
                         ids=["q2", "q3", "q4"])
def test_conjugation_invariance_random(ctx, trials):
    for j in range(trials):
        M = estimate.sample_matrix(3, ctx, seed=101, index=j)
        g = estimate.sample_gl(3, ctx, seed=202, index=j)
        N = matrix.inverse(g) * M * g
        assert matrix.charpoly(M) == matrix.charpoly(N)
        assert matrix.minpoly(M) == matrix.minpoly(N)


def powmod(a, e, m):
    """a**e mod m by the list kernel that the odd-q split and the Frobenius rows run."""
    return Poly(m.ctx, tuple(poly._powmod_lists(m.ctx, (a % m).coeffs, e, m.coeffs)))


def pth_power(a, m):
    """a**p mod m for monic m by the Frobenius rows of ``factorize`` and ``large_factor``."""
    rows = poly._frobenius_rows(m.ctx, m.coeffs)
    return Poly(m.ctx, tuple(poly._pth_power(m.ctx, rows, list((a % m).coeffs))))


@pytest.mark.parametrize("p,k,n,ext_k", [(2, 2, 8, 10), (3, 2, 6, 6)], ids=["F4", "F9"])
def test_kernels_commute_with_subfield_embedding(p, k, n, ext_k):
    # F_4 and F_9 run the full-table kernels, F_2^10 the log-table one and
    # F_3^6 the generic one: each result over the small field, embedded,
    # must equal the same operation on the embedded inputs.
    small, ext = gf.field_create(p, k), gf.field_create(p, ext_k)
    table = gf.subfield_embedding(small, ext)
    up = lambda f: poly.embed_into_extension(f, ext)
    for j in range(50):
        M = estimate.sample_matrix(n, small, seed=11, index=j)
        M_ext = Mat(ext, n, tuple(tuple(table[e] for e in row) for row in M.rows))
        assert up(matrix.charpoly(M)) == matrix.charpoly(M_ext)
    rnd = random.Random(11)
    for _ in range(50):
        a = Poly.make(small, [rnd.randrange(small.order) for _ in range(rnd.randrange(12))])
        b = Poly.make(small, [rnd.randrange(small.order) for _ in range(rnd.randrange(1, 7))])
        if b.is_zero:
            continue
        e = rnd.randrange(200)
        quo, rem = divmod(a, b)
        assert (up(quo), up(rem)) == divmod(up(a), up(b))
        assert up(poly.poly_gcd(a, b)) == poly.poly_gcd(up(a), up(b))
        assert up(powmod(a, e, b)) == powmod(up(a), e, up(b))
        if b.degree >= 2:
            assert up(pth_power(a, b.monic())) == pth_power(up(a), up(b).monic())


@pytest.mark.parametrize("n, ctx", [(2, F2), (2, F3), (3, F2), (2, F4)],
                         ids=["q2", "q3", "d3-q2", "q4"])
def test_fitting_invariants_exhaustive(n, ctx):
    for M in matrix.all_matrices(n, ctx):
        s = matrix.fitting_decompose(M)
        Y = M ** n
        assert s.inv_basis == row_space_basis(Y)
        assert s.nil_basis == matrix.left_kernel_basis(Y)
        assert s.inv_dim + s.nil_dim == n
        assert s.nil_dim == n - matrix.rank(Y)
        if s.inv_dim:
            assert matrix.is_invertible(s.x_inv)
        if s.nil_dim:
            assert (s.x_nil ** s.nil_dim).is_zero
        # both subspaces invariant; change of basis reconstructs X
        P = from_rows(ctx, s.inv_basis + s.nil_basis)
        assert matrix.is_invertible(P)
        assert P * M == matrix.direct_sum(s.x_inv, s.x_nil) * P


@pytest.mark.parametrize("n, ctx", [(2, F2), (2, F3), (3, F2), (2, F4)],
                         ids=["q2", "q3", "d3-q2", "q4"])
def test_fitting_blocks_equal_change_of_basis(n, ctx):
    mats = list(matrix.all_matrices(n, ctx))
    expected = [fitting_blocks(M) for M in mats]
    for cleared in (False, True):
        if cleared:
            matrix.fitting_decompose.cache_clear()
        for M, (x_inv, x_nil) in zip(mats, expected):
            for s in (matrix.fitting_decompose.__wrapped__(M), matrix.fitting_decompose(M)):
                assert s.x_inv.rows == x_inv.rows and s.x_nil.rows == x_nil.rows
                assert s.x_inv.ctx is s.x_nil.ctx is ctx


def test_fitting_memo_keys_the_field_by_identity():
    A = gf.field_create(2, 3, modulus=(1, 1, 0, 1))
    B = gf.field_create(2, 3, modulus=(1, 0, 1, 1))
    # the image of X^2 is spanned by (1, 3/2), and 3/2 depends on the modulus
    rows = ((2, 3), (0, 0))
    X, Y = Mat(A, 2, rows), Mat(B, 2, rows)
    assert X != Y
    sx, sy = matrix.fitting_decompose(X), matrix.fitting_decompose(Y)
    assert sx.x_inv.ctx is A and sy.x_inv.ctx is B
    assert sx == matrix.fitting_decompose.__wrapped__(X)
    assert sy == matrix.fitting_decompose.__wrapped__(Y)
    assert sx.inv_basis == ((1, 4),) and sy.inv_basis == ((1, 7),)


def test_fitting_memo_stays_at_its_bound():
    F7 = gf.field_create(7)
    assert 7 ** 4 > matrix._SPLIT_MEMO_MAX
    for M in matrix.all_matrices(2, F7):
        matrix.fitting_decompose(M)
    info = matrix.fitting_decompose.cache_info()
    assert info.maxsize == matrix._SPLIT_MEMO_MAX
    assert info.currsize == info.maxsize


def test_fitting_examples():
    X = matrix.companion(Poly.make(F2, (1, 1, 1)))
    s = matrix.fitting_decompose(X)
    assert s.nil_dim == 0 and s.x_inv == X
    N = from_rows(F2, [(0, 1), (0, 0)])
    s = matrix.fitting_decompose(N)
    assert s.inv_dim == 0
    D = from_rows(F2, [(1, 0), (0, 0)])
    s = matrix.fitting_decompose(D)
    assert s.inv_basis == ((1, 0),) and s.nil_basis == ((0, 1),)


def test_nilpotent_counts():
    for n, ctx in [(2, F2), (2, F3), (3, F2)]:
        q = ctx.order
        count = sum(1 for M in matrix.all_matrices(n, ctx) if matrix.is_nilpotent(M))
        assert count == q ** (n * n - n)


def _exhaustive_and_sampled(exhaustive, sampled, seed):
    """All of each M(n, q) in ``exhaustive`` and ``count`` draws of each (n, q, count)."""
    for n, ctx in exhaustive:
        yield from matrix.all_matrices(n, ctx)
    for n, ctx, count in sampled:
        for j in range(count):
            yield estimate.sample_matrix(n, ctx, seed=seed, index=j)


def test_is_nilpotent_equals_power_oracle():
    # M(3, 3) holds diagonals such as (1, 1, 1), whose trace is 0 only mod 3
    mats = _exhaustive_and_sampled([(0, F3), (1, F3), (3, F2), (2, F3), (2, F4), (3, F3)],
                                   [(4, F3, 300), (5, F2, 300)], seed=31)
    hits = 0
    for M in mats:
        expected = (M ** M.n).is_zero
        assert matrix.is_nilpotent(M) == expected, M
        hits += expected
    # q^(n^2 - n) nilpotents per sweep, and 7 and 11 among the draws
    assert hits == 1 + 1 + 64 + 9 + 16 + 729 + 7 + 11


def _oracle_matrices():
    """Every matrix of four small spaces, sampled 4x4 matrices over F_4 and
    the 4x4 blow-ups over F_2 of all of M(2, F_4)."""
    tower = embed.tower_for(F4, 2)
    return itertools.chain(
        _exhaustive_and_sampled([(3, F2), (2, F3), (2, F4), (2, F5)], [(4, F4, 200)], seed=37),
        (embed.blow_up(X, tower) for X in matrix.all_matrices(2, F4)))


def test_primary_cyclic_factors_equals_multiplicity_oracle():
    # the nullity test against equal multiplicities in charpoly and minpoly;
    # test_minpoly_is_minimal_exhaustive checks minpoly on the same matrices
    for M in _oracle_matrices():
        mp = matrix.minpoly(M)
        factors = poly.factorize(matrix.charpoly(M))
        expected = tuple(f for f, m_f in factors if multiplicity_in(f, mp) == m_f)
        assert cyclic_factors(M) == expected, M
        assert tuple((f, m_f) for f, m_f, _ in matrix.primary_factors(M)) == factors, M


def test_primary_cyclic_factors_decides_a_repeated_quadratic_by_nullity():
    # f^2 and f (+) f share the charpoly f^2; f(X) has nullity 2 = deg f on
    # the cyclic one and 4 on the other
    f = Poly.make(F2, (1, 1, 1))
    cyclic, split = matrix.companion(f * f), matrix.direct_sum(*[matrix.companion(f)] * 2)
    assert matrix.charpoly(cyclic) == matrix.charpoly(split) == f * f
    assert [4 - matrix.rank(matrix.evaluate_poly_at(f, X)) for X in (cyclic, split)] == [2, 4]
    assert cyclic_factors(cyclic) == (f,)
    assert cyclic_factors(split) == ()


def test_evaluate_poly_at_equals_the_sum_of_powers():
    for M in _exhaustive_and_sampled([(2, F3)], [(3, F4, 30)], seed=41):
        for coeffs in [(), (2,), (0, 1), (1, 0, 2), (2, 1, 0, 1), (0, 0, 0, 0, 1)]:
            f = Poly.make(M.ctx, coeffs)
            expected = Mat.zero(M.ctx, M.n)
            for i, c in enumerate(f.coeffs):
                expected = expected + Mat.scalar(M.ctx, M.n, c) * M ** i
            assert matrix.evaluate_poly_at(f, M) == expected, (M, f)


def test_minpoly_is_minimal_exhaustive():
    for M in _oracle_matrices():
        mp = matrix.minpoly(M)
        assert mp.is_monic
        assert matrix.evaluate_poly_at(mp, M).is_zero
        assert (matrix.charpoly(M) % mp).is_zero
        # every monic proper divisor divides some mp / f for an irreducible f | mp
        for f, _ in poly.factorize(mp):
            assert not matrix.evaluate_poly_at(mp // f, M).is_zero, M


def test_primary_components():
    X = matrix.companion(Poly.make(F2, (1, 1, 1)))
    comps = matrix.primary_components(X)
    assert len(comps) == 1
    f, basis, m_f, e_f = comps[0]
    assert len(basis) == 2 and m_f == e_f == 1

    D = from_rows(F3, [(1, 0), (0, 2)])
    comps = matrix.primary_components(D)
    assert [(str(f), len(b), m, e) for f, b, m, e in comps] == [
        ("1+1*t", 1, 1, 1), ("2+1*t", 1, 1, 1)]

    D = from_rows(F3, [(1, 0), (0, 0)])
    comps = matrix.primary_components(D)
    split = matrix.fitting_decompose(D)
    t_comp = next(b for f, b, m, e in comps if f == Poly.x(F3))
    assert t_comp == split.nil_basis
    # dimensions add up: dim V_f = m_f * deg f
    for f, basis, m_f, e_f in comps:
        assert len(basis) == m_f * f.degree
        assert 1 <= e_f <= m_f


def test_primary_cyclic_factors():
    f = Poly.make(F2, (1, 1, 1))
    assert cyclic_factors(matrix.companion(f)) == (f,)
    assert cyclic_factors(Mat.identity(F2, 2)) == ()
    assert matrix.primary_factors(Mat.identity(F2, 2)) == ((Poly.make(F2, (1, 1)), 2, False),)
    D = from_rows(F3, [(1, 0), (0, 2)])
    assert cyclic_factors(D) == (Poly.make(F3, (1, 1)), Poly.make(F3, (2, 1)))


@pytest.mark.parametrize("ctx,d", [(F2, 2), (F3, 2), (F2, 3), (F4, 2)],
                         ids=["GL22", "GL23", "GL32", "GL24"])
def test_jordan_multiplicative_exhaustive(ctx, d):
    # s of order dividing m, u of order dividing p^a, |GL| = p^a m with
    # gcd(m, p) = 1, and s u = u s = g: such a pair is unique, so these
    # checks decide the split completely.
    m, pa = matrix.gl_order(d, ctx.order), 1
    while m % ctx.p == 0:
        m, pa = m // ctx.p, pa * ctx.p
    ident = Mat.identity(ctx, d)
    for g in matrix.all_invertible(d, ctx):
        s, u = matrix.jordan_multiplicative(g)
        assert s * u == g and u * s == g
        assert s ** m == ident and u ** pa == ident
        assert matrix.charpoly(g) == matrix.charpoly(s)


def test_jordan_edge_cases():
    g = matrix.companion(Poly.make(F2, (1, 1, 1)))  # order 3, coprime to 2
    s, u = matrix.jordan_multiplicative(g)
    assert s == g and u == Mat.identity(F2, 2)
    trans = from_rows(F2, [(1, 1), (0, 1)])  # unipotent
    s, u = matrix.jordan_multiplicative(trans)
    assert s == Mat.identity(F2, 2) and u == trans
    with pytest.raises(SingularMatrix):
        matrix.jordan_multiplicative(Mat.zero(F2, 2))


def test_companion_direct_sum():
    f = Poly.make(F2, (1, 1, 1))
    C = matrix.companion(f)
    assert C ** 3 == Mat.identity(F2, 2) != C
    S = matrix.direct_sum(C, Mat.zero(F2, 1))
    assert matrix.charpoly(S) == f * Poly.x(F2)
    with pytest.raises(DegreeMismatch):
        matrix.companion(Poly.one(F2))


def test_gl_order_and_enumeration():
    assert matrix.gl_order(2, 2) == 6
    assert matrix.gl_order(2, 3) == 48
    assert matrix.gl_order(3, 2) == 168
    assert sum(1 for _ in matrix.all_invertible(2, F3)) == 48


def test_index_roundtrip():
    assert len({from_index(F3, 2, idx) for idx in range(81)}) == 81


@pytest.mark.parametrize("n, ctx", [(0, F2), (1, F5), (2, F2), (2, F3), (3, F2), (2, F4)],
                         ids=["d0-q2", "d1-q5", "q2", "q3", "d3-q2", "q4"])
def test_all_matrices_in_index_order(n, ctx):
    q = ctx.order
    mats = list(matrix.all_matrices(n, ctx))
    assert mats == [from_index(ctx, n, idx) for idx in range(q ** (n * n))]
    index = census._indexer(n, q)
    assert [index(M) for M in mats] == list(range(len(mats)))
    assert sum(1 for _ in matrix.all_invertible(n, ctx)) == matrix.gl_order(n, q)


@pytest.mark.parametrize("n, ctx", [(3, F2), (2, F4), (3, F3)], ids=["d3-q2", "q4", "d3-q3"])
def test_all_matrices_keeps_the_entry_product_order(n, ctx):
    # the reversed entry tuples of one product over all n^2 entries, cut into rows
    entries = (reversed(e) for e in itertools.product(range(ctx.order), repeat=n * n))
    assert list(matrix.all_matrices(n, ctx)) == [
        Mat(ctx, n, tuple(zip(*[digits] * n))) for digits in entries]


def test_text_roundtrip_and_errors():
    M = from_rows(F4, [(0, 1), (2, 3)])
    assert matrix.parse_matrix(matrix.format_matrix(M)) == M
    with pytest.raises(ParseError):
        matrix.parse_matrix("2 2 : 1 0 0")
    with pytest.raises(ParseError):
        matrix.parse_matrix("2 2 : 1 0 0 7")
    with pytest.raises(ParseError):
        matrix.parse_matrix("no colon here")
