"""The full-table path against the generic code it replaces on small fields.

On a field of order <= 256, ``matrix.charpoly`` and the list kernels
under ``poly.large_factor`` and ``poly.factorize`` read the full tables
directly.  The generic functions, the only path above order 256, are
called here directly as the reference, on every such field shape: p = 2
and odd p, prime and extension fields.
"""

import random

import pytest

from nicensus import estimate, gf, matrix, poly
from nicensus.matrix import Mat
from nicensus.poly import Poly

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 128, 243, 256]
GENERIC = (poly._mul_lists, poly._divmod_lists, poly._pth_power)
TABLES = (poly._mul_tables, poly._divmod_tables, poly._pth_power_tables)


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


def test_fields_take_the_table_path_at_most_256():
    for q in ORDERS:
        assert poly._list_kernels(gf.field_of_order(q)) == TABLES
    for ctx in (gf.field_create(2, 9), gf.field_create(257), gf.field_create(2, 17)):
        assert ctx.mul_rows is None and poly._list_kernels(ctx) == GENERIC


@pytest.mark.parametrize("q", ORDERS)
def test_charpoly_tables_match_generic(q):
    ctx = gf.field_of_order(q)
    rnd = random.Random(q)
    mats = [estimate.sample_matrix(n, ctx, seed=q, index=j) for n in range(10) for j in range(4)]
    mats += edge_matrices(ctx, rnd)
    for M in mats:
        expected = matrix._charpoly_generic(M)
        assert matrix._charpoly_tables(M) == expected, M
        assert matrix.charpoly(M).coeffs == tuple(expected)


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


@pytest.mark.parametrize("q", ORDERS)
def test_list_kernels_match_generic(q, monkeypatch):
    ctx = gf.field_of_order(q)
    rnd = random.Random(q)
    polys = kernel_inputs(ctx, rnd)
    for a in polys + [[]]:
        for b in polys:
            assert poly._mul_tables(ctx, a, b) == poly._mul_lists(ctx, a, b)
            assert poly._divmod_tables(ctx, a, b) == poly._divmod_lists(ctx, a, b)
            assert (poly._gcd_lists(ctx, a, b, poly._divmod_tables)
                    == poly._gcd_lists(ctx, a, b, poly._divmod_lists))
    for m in polys:
        if len(m) < 3 or m[-1] != 1:
            continue
        rows = poly._frobenius_rows(ctx, m, *GENERIC[:2])
        assert poly._frobenius_rows(ctx, m, *TABLES[:2]) == rows
        for x in polys:
            x = poly._divmod_lists(ctx, x, m)[1]
            assert poly._pth_power_tables(ctx, rows, x) == poly._pth_power(ctx, rows, x)
    fs = [Poly(ctx, tuple(f)) for f in polys]
    on_tables = [(poly.large_factor(f), poly.factorize.__wrapped__(f)) for f in fs]
    monkeypatch.setattr(poly, "_list_kernels", lambda ctx: GENERIC)
    assert on_tables == [(poly.large_factor(f), poly.factorize.__wrapped__(f)) for f in fs]
