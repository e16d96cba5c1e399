"""Linear algebra invariants, mostly by exhaustion over the tiny algebras."""

import random

import pytest

from nicensus import estimate, gf, matrix, poly
from nicensus.errors import DegreeMismatch, NotIrreducible, ParseError, SingularMatrix
from nicensus.matrix import Mat
from nicensus.poly import Poly

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)


def test_charpoly_minpoly_examples():
    I2 = Mat.identity(F2, 2)
    t_plus_1 = Poly.make(F2, (1, 1))
    assert matrix.charpoly(I2) == t_plus_1 ** 2
    assert matrix.minpoly(I2) == t_plus_1

    f = Poly.make(F2, (1, 1, 1))
    C = matrix.companion(f)
    assert matrix.charpoly(C) == f == matrix.minpoly(C)

    J = Mat.from_rows(F2, [(0, 1), (0, 0)])
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
        N = matrix.conjugate(M, g)
        assert matrix.charpoly(M) == matrix.charpoly(N)
        assert matrix.minpoly(M) == matrix.minpoly(N)


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
        assert up(poly.pow_mod(a, e, b)) == poly.pow_mod(up(a), e, up(b))


@pytest.mark.parametrize("ctx", [F2, F3], ids=["q2", "q3"])
def test_fitting_invariants_exhaustive(ctx):
    for M in matrix.all_matrices(2, ctx):
        s = matrix.fitting_decompose(M)
        assert s.inv_dim + s.nil_dim == 2
        assert s.nil_dim == 2 - matrix.rank(M ** 2)
        if s.inv_dim:
            assert matrix.is_invertible(s.x_inv)
        if s.nil_dim:
            assert (s.x_nil ** s.nil_dim).is_zero
        # both subspaces invariant; change of basis reconstructs X
        P = Mat.from_rows(ctx, s.inv_basis + s.nil_basis)
        assert matrix.is_invertible(P)
        assert P * M == matrix.direct_sum(s.x_inv, s.x_nil) * P


def test_fitting_examples():
    X = matrix.companion(Poly.make(F2, (1, 1, 1)))
    s = matrix.fitting_decompose(X)
    assert s.nil_dim == 0 and s.x_inv == X
    N = Mat.from_rows(F2, [(0, 1), (0, 0)])
    s = matrix.fitting_decompose(N)
    assert s.inv_dim == 0
    D = Mat.from_rows(F2, [(1, 0), (0, 0)])
    s = matrix.fitting_decompose(D)
    assert s.inv_basis == ((1, 0),) and s.nil_basis == ((0, 1),)


def test_nilpotent_counts():
    for n, ctx in [(2, F2), (2, F3), (3, F2)]:
        q = ctx.order
        count = sum(1 for M in matrix.all_matrices(n, ctx) if matrix.is_nilpotent(M))
        assert count == q ** (n * n - n)


def test_primary_components():
    X = matrix.companion(Poly.make(F2, (1, 1, 1)))
    pd = matrix.primary_components(X)
    assert len(pd.components) == 1
    f, basis, m_f, e_f = pd.components[0]
    assert len(basis) == 2 and m_f == e_f == 1

    D = Mat.from_rows(F3, [(1, 0), (0, 2)])
    pd = matrix.primary_components(D)
    assert [(str(f), len(b), m, e) for f, b, m, e in pd.components] == [
        ("1+1*t", 1, 1, 1), ("2+1*t", 1, 1, 1)]

    D = Mat.from_rows(F3, [(1, 0), (0, 0)])
    pd = matrix.primary_components(D)
    split = matrix.fitting_decompose(D)
    t_comp = next(b for f, b, m, e in pd.components if f == Poly.x(F3))
    assert t_comp == split.nil_basis
    # dimensions add up: dim V_f = m_f * deg f
    for f, basis, m_f, e_f in pd.components:
        assert len(basis) == m_f * f.degree
        assert 1 <= e_f <= m_f


def test_is_primary_cyclic():
    f = Poly.make(F2, (1, 1, 1))
    C = matrix.companion(f)
    assert matrix.is_primary_cyclic(C, f)
    t_plus_1 = Poly.make(F2, (1, 1))
    assert not matrix.is_primary_cyclic(Mat.identity(F2, 2), t_plus_1)
    D = Mat.from_rows(F3, [(1, 0), (0, 2)])
    assert matrix.is_primary_cyclic(D, Poly.make(F3, (2, 1)))
    with pytest.raises(NotIrreducible):
        matrix.is_primary_cyclic(C, Poly.make(F2, (0, 0, 1)))


@pytest.mark.parametrize("ctx,d", [(F2, 2), (F3, 2)], ids=["GL22", "GL23"])
def test_jordan_multiplicative_exhaustive(ctx, d):
    p = ctx.p
    for g in matrix.all_invertible(d, ctx):
        s, u = matrix.jordan_multiplicative(g)
        assert s * u == g and u * s == g
        if s != Mat.identity(ctx, d):
            assert matrix.element_order(s) % p != 0
        order_u = matrix.element_order(u)
        while order_u % p == 0:
            order_u //= p
        assert order_u == 1
        assert matrix.charpoly(g) == matrix.charpoly(s)


def test_jordan_edge_cases():
    g = matrix.companion(Poly.make(F2, (1, 1, 1)))  # order 3, coprime to 2
    s, u = matrix.jordan_multiplicative(g)
    assert s == g and u == Mat.identity(F2, 2)
    trans = Mat.from_rows(F2, [(1, 1), (0, 1)])  # unipotent
    s, u = matrix.jordan_multiplicative(trans)
    assert s == Mat.identity(F2, 2) and u == trans
    with pytest.raises(SingularMatrix):
        matrix.jordan_multiplicative(Mat.zero(F2, 2))


def test_companion_direct_sum_conjugate():
    f = Poly.make(F2, (1, 1, 1))
    C = matrix.companion(f)
    assert matrix.element_order(C) == 3
    S = matrix.direct_sum(C, Mat.zero(F2, 1))
    assert matrix.charpoly(S) == f * Poly.x(F2)
    I = Mat.identity(F2, 2)
    assert matrix.conjugate(C, I) == C
    with pytest.raises(SingularMatrix):
        matrix.conjugate(C, Mat.zero(F2, 2))
    with pytest.raises(DegreeMismatch):
        matrix.companion(Poly.one(F2))


def test_gl_order_and_enumeration():
    assert matrix.gl_order(2, 2) == 6
    assert matrix.gl_order(2, 3) == 48
    assert matrix.gl_order(3, 2) == 168
    assert sum(1 for _ in matrix.all_invertible(2, F3)) == 48


def test_index_roundtrip():
    assert len({matrix.matrix_from_index(F3, 2, idx) for idx in range(81)}) == 81


def test_text_roundtrip_and_errors():
    M = Mat.from_rows(F4, [(0, 1), (2, 3)])
    assert matrix.parse_matrix(matrix.format_matrix(M)) == M
    with pytest.raises(ParseError):
        matrix.parse_matrix("2 2 : 1 0 0")
    with pytest.raises(ParseError):
        matrix.parse_matrix("2 2 : 1 0 0 7")
    with pytest.raises(ParseError):
        matrix.parse_matrix("no colon here")
