"""The full-table path against the generic code it replaces on small fields.

On a field of order <= 256, ``matrix.charpoly`` and the four list
kernels of ``poly`` (``_mul_lists``, ``_divmod_lists``,
``_frobenius_rows``, ``_pth_power``) read the full tables directly.  The
generic code, the only path above order 256, is the reference:
``_charpoly_generic`` is called directly, and every polynomial
computation is run again with the field's ``mul_rows`` hidden, which
sends each kernel (and ``charpoly``) to its generic branch.  Both run on
every such field shape: p = 2 and odd p, prime and extension fields.
"""

import random

import pytest

from nicensus import embed, estimate, gf, matrix, poly
from nicensus.matrix import Mat
from nicensus.poly import Poly

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 128, 243, 256]


def edge_matrices(ctx, rnd):
    """Matrices whose Hessenberg reduction takes every branch of the loop."""
    n = 6

    def rand_rows():
        return [[rnd.randrange(ctx.order) for _ in range(n)] for _ in range(n)]

    yield Mat.zero(ctx, n)
    yield Mat.identity(ctx, n)
    yield Mat.scalar(ctx, n, ctx.order - 1)
    A = estimate.sample_matrix(3, ctx, seed=5, index=0)
    yield matrix.direct_sum(A, A)  # a zero subdiagonal: a split Hessenberg form
    yield matrix.direct_sum(Mat.zero(ctx, 3), A)
    rows = rand_rows()  # column 0 zero but in the last row: the pivot is swapped up
    for i in range(1, n):
        rows[i][0] = 0
    rows[n - 1][0] = 1
    yield Mat(ctx, n, tuple(map(tuple, rows)))
    rows = rand_rows()  # already upper Hessenberg: no row is eliminated
    for i in range(n):
        rows[i][:max(i - 1, 0)] = [0] * max(i - 1, 0)
    yield Mat(ctx, n, tuple(map(tuple, rows)))
    f = Poly.make(ctx, [rnd.randrange(1, ctx.order), 1])  # charpoly (t + c)^3 (t^2 + 1)
    C = matrix.companion(f ** 3)
    yield matrix.direct_sum(C, matrix.companion(Poly.make(ctx, [1, 0, 1])))
    yield Mat(ctx, n, tuple(tuple(rnd.randrange(ctx.order) if j > i else 0 for j in range(n))
                            for i in range(n)))  # nilpotent: charpoly t^n


def test_fields_take_the_table_path_at_most_256(monkeypatch):
    for q in ORDERS:
        ctx = gf.field_of_order(q)
        M = estimate.sample_matrix(6, ctx, seed=q, index=0)
        monkeypatch.setattr(ctx, "axpy", None)  # only the generic branches call it
        cp = matrix.charpoly(M)
        assert divmod(cp * cp, cp) == (cp, Poly.zero(ctx))
        poly.large_factor(cp)
    for ctx in (gf.field_create(2, 9), gf.field_create(257), gf.field_create(2, 17)):
        assert ctx.mul_rows is None


@pytest.mark.parametrize("q", ORDERS)
def test_charpoly_tables_match_generic(q, monkeypatch):
    ctx = gf.field_of_order(q)
    rnd = random.Random(q)
    mats = [estimate.sample_matrix(n, ctx, seed=q, index=j) for n in range(10) for j in range(4)]
    mats += edge_matrices(ctx, rnd)
    expected = [matrix._charpoly_generic(M) for M in mats]
    for M, cp in zip(mats, expected):
        assert matrix._charpoly_tables(M) == cp, M
        assert matrix.charpoly(M).coeffs == tuple(cp)
    monkeypatch.setattr(ctx, "mul_rows", None)
    assert [list(matrix.charpoly(M).coeffs) for M in mats] == expected


def kernel_inputs(ctx, rnd):
    """Stripped charpolys of sampled matrices, and edge polynomials: constants,
    linear ones, repeated factors and non-monic multiples."""
    out = []
    for n in range(10):
        cp = matrix._charpoly_generic(estimate.sample_matrix(n, ctx, seed=ctx.order, index=n))
        out.append(cp[next(i for i, c in enumerate(cp) if c):])
    lin = Poly.make(ctx, [rnd.randrange(ctx.order), 1])
    quad = Poly.make(ctx, [rnd.randrange(ctx.order), rnd.randrange(ctx.order), 1])
    out += [[1], [rnd.randrange(1, ctx.order)], list(lin.coeffs), list((lin ** 4).coeffs),
            list((quad ** 2 * lin).coeffs), list((quad * quad * quad).coeffs)]
    out += [list(Poly(ctx, tuple(f)).scale(rnd.randrange(1, ctx.order)).coeffs) for f in out[:]]
    return out


def kernel_results(ctx, polys):
    """Every list kernel on the inputs, with large_factor and uncached factorize."""
    out = []
    for a in polys + [[]]:
        for b in polys:
            out.append((poly._mul_lists(ctx, a, b), poly._divmod_lists(ctx, a, b),
                        poly._gcd_lists(ctx, a, b)))
    for m in polys:
        if len(m) < 3 or m[-1] != 1:
            continue
        rows = poly._frobenius_rows(ctx, m)
        out.append(rows)
        out += [poly._pth_power(ctx, rows, poly._divmod_lists(ctx, x, m)[1]) for x in polys]
    fs = [Poly(ctx, tuple(f)) for f in polys]
    return out + [(poly.large_factor(f), poly.factorize.__wrapped__(f)) for f in fs]


@pytest.mark.parametrize("q", ORDERS)
def test_list_kernels_match_generic(q, monkeypatch):
    ctx = gf.field_of_order(q)
    polys = kernel_inputs(ctx, random.Random(q))
    on_tables = kernel_results(ctx, polys)
    monkeypatch.setattr(ctx, "mul_rows", None)
    assert kernel_results(ctx, polys) == on_tables


@pytest.mark.parametrize("c,q,b", [(8, 2, 2), (6, 3, 2)])
def test_sampled_decision_matches_generic(c, q, b, monkeypatch):
    # the benchmark's instances: the Frobenius rows of each stripped
    # charpoly, the chain of p-th powers from t^p, and the verdict
    ext = gf.field_of_order(q ** b)
    tower = embed.tower_for(ext, b)
    mats = [estimate.sample_matrix(c, ext, 42, j) for j in range(200)]

    def decisions():
        out = []
        for X in mats:
            cp = matrix.charpoly(X).coeffs
            m = cp[embed._t_multiplicity(cp):]
            rows = poly._frobenius_rows(ext, m) if len(m) > 2 else []
            chain = rows[1:2]
            for _ in rows[2:]:
                chain.append(poly._pth_power(ext, rows, chain[-1]))
            out.append((rows, chain, embed.pc_member_charpoly(X, tower)))
        return out

    on_tables = decisions()
    assert sum(member for _, _, member in on_tables) > 0
    monkeypatch.setattr(ext, "mul_rows", None)
    assert decisions() == on_tables
