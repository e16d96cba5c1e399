"""Exact dense linear algebra over a FieldCtx.

Convention: matrices act on row vectors on the right (v -> v X), so the
image of X is its row space and the kernel is the left null space.
Entries are element ints; a Mat holds them as an immutable tuple of row tuples.

Characteristic polynomials go through an exact similarity reduction to
Hessenberg form followed by the leading-principal-minor recurrence.  On a
field with full tables (order <= 256) both run inline on table reads
(``_charpoly_tables``); every other field runs ``_charpoly_generic``
through the ``FieldCtx`` methods and ``axpy``, the reference of the tests.
Everything else about f(X), for f an irreducible divisor of the charpoly
of multiplicity m_f, is read off nullities, as in the MEAT-AXE test of
Holt & Rees (J. Austral. Math. Soc. A 57 (1994)): X is f-primary cyclic
exactly when f(X) has nullity deg f, and the exponent e_f of f in the
minimal polynomial is the least e at which f(X)^e has nullity m_f deg f.
The minimal polynomial is the product of the f^{e_f}.

The Fitting split is one change of basis: a single elimination of
[X^n | I] gives the canonical bases of the image and the kernel of X^n.
Both are in reduced row-echelon form, so the coordinates of b X in
either basis are its entries at that basis's pivot columns: the
invertible and nilpotent blocks are read off n row products, with no
inverse.  The split is memoized by the exact matrix in a bounded LRU.
Inverse, row space and left kernel read the same augmented elimination.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import gf, poly
from .errors import (
    DegreeMismatch,
    FieldMismatch,
    SingularMatrix,
    ParseError,
)
from .poly import Poly
from .values import Frozen, record


class Mat(Frozen):
    """Square matrix over a fixed field context: ``rows`` holds n tuples of n element ints."""

    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx, n, rows):
        set_ctx, set_n, set_rows = self._set
        set_ctx(self, ctx)
        set_n(self, n)
        set_rows(self, rows)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ctx, n):
        return Mat(ctx, n, tuple((0,) * n for _ in range(n)))

    @staticmethod
    def identity(ctx, n):
        return Mat(ctx, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def scalar(ctx, n, c):
        c = int(c)
        return Mat(ctx, n, tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n)))

    def _chk(self, other):
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise FieldMismatch("matrices over different fields")
        if other.n != self.n:
            raise DegreeMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        return other

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._chk(other)
        add = self.ctx.add
        return Mat(self.ctx, self.n, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other):
        other = self._chk(other)
        return Mat(self.ctx, self.n, tuple(other.apply_to_row(ra) for ra in self.rows))

    def __pow__(self, e):
        return gf.power(self, e, Mat.__mul__, Mat.identity(self.ctx, self.n))

    @property
    def is_zero(self):
        return all(all(a == 0 for a in r) for r in self.rows)

    def apply_to_row(self, v):
        """v X for a row vector v (sequence of n element ints)."""
        axpy = self.ctx.axpy
        out = [0] * self.n
        for vi, row in zip(v, self.rows):
            if vi:
                axpy(out, 0, vi, row)
        return tuple(out)

    def __str__(self):
        return format_matrix(self)


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------


def _rref_in_place(rows, ctx, n_pivot_cols=None):
    """Reduced row echelon form; returns pivot column list.

    ``rows`` is a list of lists (mutated).  Pivots are searched only in
    the first ``n_pivot_cols`` columns, while eliminations apply to the
    full row width (used for augmented systems).
    """
    m = len(rows)
    if n_pivot_cols is None:
        n_pivot_cols = len(rows[0]) if rows else 0
    inv, mul, neg, axpy = ctx.inv, ctx.mul, ctx.neg, ctx.axpy
    pivots = []
    r = 0
    for col in range(n_pivot_cols):
        piv = None
        for i in range(r, m):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        if lead != 1:
            linv = inv(lead)
            rows[r] = [mul(linv, a) for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                axpy(rows[i], 0, neg(rows[i][col]), rows[r])
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def rank(M):
    return len(_rref_in_place([list(r) for r in M.rows], M.ctx))


def is_invertible(M):
    return rank(M) == M.n


def _augmented_rref(M):
    """(rank, rows): rref of [M | I] with pivots in the M block only.

    The first ``rank`` rows carry rref(M) on the left; the right parts of
    the other rows span the left kernel of M.
    """
    n = M.n
    rows = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(M.rows)]
    return len(_rref_in_place(rows, M.ctx, n_pivot_cols=n)), rows


def _image_and_kernel(M):
    """Canonical bases of {v X} and {v : v X = 0}, from one elimination."""
    n = M.n
    r, rows = _augmented_rref(M)
    kernel = [row[n:] for row in rows[r:]]
    _rref_in_place(kernel, M.ctx)
    return tuple(tuple(row[:n]) for row in rows[:r]), tuple(map(tuple, kernel))


def left_kernel_basis(M):
    """Canonical basis of {v : v X = 0}."""
    return _image_and_kernel(M)[1]


def inverse(M):
    r, rows = _augmented_rref(M)
    if r < M.n:
        raise SingularMatrix("matrix is not invertible")
    return Mat(M.ctx, M.n, tuple(tuple(row[M.n:]) for row in rows))


# ---------------------------------------------------------------------------
# Characteristic polynomial and f(X)
# ---------------------------------------------------------------------------


def charpoly(M):
    """Monic characteristic polynomial det(t I - X), exactly.

    A field with full tables (order <= 256) runs ``_charpoly_tables``;
    every other field runs ``_charpoly_generic``, the reference the tests
    hold the table path to.
    """
    if M.n == 0:
        return Poly.one(M.ctx)
    run = _charpoly_tables if M.ctx.mul_rows is not None else _charpoly_generic
    return Poly(M.ctx, tuple(run(M)))


def _charpoly_generic(M):
    """Coefficients of charpoly(M): a similarity reduction to upper
    Hessenberg form, then the recurrence over its leading principal minors,
    every field operation through the ``FieldCtx`` methods and ``axpy``."""
    ctx = M.ctx
    n = M.n
    A = [list(r) for r in M.rows]
    mul, neg, axpy = ctx.mul, ctx.neg, ctx.axpy
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if A[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            A[piv], A[j + 1] = A[j + 1], A[piv]
            for row in A:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pinv = ctx.inv(A[j + 1][j])
        # Row i -= f_i * row j+1 for every i > j+1, then column j+1 +=
        # f_i * column i to keep the matrix similar.  The eliminations
        # commute and leave column j alone, so the column operations can
        # follow all the row operations; they run on column j+1 as a list.
        factors = []
        for i in range(j + 2, n):
            if A[i][j]:
                f = mul(A[i][j], pinv)
                axpy(A[i], 0, neg(f), A[j + 1])
                factors.append((i, f))
        col = [row[j + 1] for row in A]
        for i, f in factors:
            axpy(col, 0, f, [row[i] for row in A])
        for row, c in zip(A, col):
            row[j + 1] = c
    # p_m(t) over leading principal minors of the Hessenberg matrix
    polys = [[1]]
    for m in range(1, n + 1):
        # (t - A[m-1][m-1]) * p_{m-1}
        acc = [0] + polys[m - 1]
        axpy(acc, 0, neg(A[m - 1][m - 1]), polys[m - 1])
        prod = 1
        for kk in range(1, m):
            prod = mul(prod, A[m - kk][m - kk - 1])
            if not prod:
                break
            h = A[m - 1 - kk][m - 1]
            if h:
                axpy(acc, 0, neg(mul(h, prod)), polys[m - 1 - kk])
        polys.append(acc)
    return polys[n]


def _charpoly_tables(M):
    """``_charpoly_generic`` on the full tables: every field operation is a
    table read and every row loop runs inline.

    Row j+1 is zero before column j, so eliminating column j from a row
    below it changes only the columns after j.  The column update of each
    step is one pass over the rows: column j+1 gains f_i * column i for
    every eliminated row i.
    """
    ctx, n = M.ctx, M.n
    mul_rows, add_rows, neg, inv = ctx.mul_rows, ctx.add_rows, ctx.neg_table, ctx.inv_table
    A = [list(r) for r in M.rows]
    for j in range(n - 2):
        for piv in range(j + 1, n):
            if A[piv][j]:
                break
        else:
            continue
        if piv != j + 1:
            A[piv], A[j + 1] = A[j + 1], A[piv]
            for row in A:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        top = A[j + 1]
        neg_over_pivot = mul_rows[neg[inv[top[j]]]]
        factors = []  # (i, the row of f_i in mul_rows)
        for i in range(j + 2, n):
            row = A[i]
            if row[j]:
                nf = neg_over_pivot[row[j]]
                by_nf = mul_rows[nf]
                row[j] = 0
                for c in range(j + 1, n):
                    row[c] = add_rows[row[c]][by_nf[top[c]]]
                factors.append((i, mul_rows[neg[nf]]))
        if factors:
            for row in A:
                c = row[j + 1]
                for i, by_f in factors:
                    c = add_rows[c][by_f[row[i]]]
                row[j + 1] = c
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        by_na = mul_rows[neg[A[m - 1][m - 1]]]
        acc = [0] + prev
        for i, b in enumerate(prev):
            acc[i] = add_rows[acc[i]][by_na[b]]
        prod = 1
        for kk in range(1, m):
            prod = mul_rows[prod][A[m - kk][m - kk - 1]]
            if not prod:
                break
            h = A[m - 1 - kk][m - 1]
            if h:
                by_c = mul_rows[neg[mul_rows[h][prod]]]
                for i, b in enumerate(polys[m - 1 - kk]):
                    acc[i] = add_rows[acc[i]][by_c[b]]
        polys.append(acc)
    return polys[n]


def evaluate_poly_at(f, M):
    """f(X) by Horner's rule: from lead(f) I, multiply by X and add each
    further coefficient on the diagonal."""
    add, acc = M.ctx.add, Mat.scalar(M.ctx, M.n, f.coeffs[-1] if f.coeffs else 0)
    for c in reversed(f.coeffs[:-1]):
        rows = (acc * M).rows
        acc = Mat(M.ctx, M.n, tuple(row[:i] + (add(row[i], c),) + row[i + 1:]
                                    for i, row in enumerate(rows)) if c else rows)
    return acc


# ---------------------------------------------------------------------------
# Structure: Fitting split, primary components, primary cyclicity
# ---------------------------------------------------------------------------


class FittingSplit(record("FittingSplit", "inv_basis nil_basis x_inv x_nil")):
    """V = V_inv + V_nil with X invertible on the first and nilpotent on the second:
    bases of the image and the kernel of X^n, and the blocks X_inv and X_nil."""

    __slots__ = ()

    @property
    def inv_dim(self):
        return len(self.inv_basis)

    @property
    def nil_dim(self):
        return len(self.nil_basis)


# Above the 512 matrices of M(3, 2), the largest space a verify suite
# enumerates more than once: an LRU smaller than one cyclic enumeration
# never hits.  The 609 matrices of one verify pass all fit.
_SPLIT_MEMO_MAX = 1 << 10


def _restricted(M, basis):
    """X restricted to the X-invariant span of ``basis``, in that basis.

    ``basis`` is in reduced row-echelon form, so the coordinates of b X
    are its entries at the basis's pivot columns.
    """
    pivots = [next(j for j, a in enumerate(b) if a) for b in basis]
    return Mat(M.ctx, len(basis), tuple(
        tuple(row[j] for j in pivots) for row in map(M.apply_to_row, basis)))


@functools.lru_cache(maxsize=_SPLIT_MEMO_MAX)
def fitting_decompose(M):
    """Split V into the invertible and nilpotent parts of X, as one change of basis.

    V_inv is the image of X^n and V_nil its kernel; both are X-invariant
    and come from one elimination of [X^n | I].  With B the rows of
    inv_basis then nil_basis, B X B^-1 is block diagonal: X restricted to
    V_inv (invertible) and to V_nil (nilpotent).  Each block is read off
    the pivot columns of its basis, so B is never inverted.

    Memoized by the exact matrix (its field compares by identity) in an
    LRU of ``_SPLIT_MEMO_MAX`` splits.  Membership is never memoized:
    X and X_inv + 0 are still decided separately.
    """
    inv_basis, nil_basis = _image_and_kernel(M ** M.n)
    return FittingSplit(inv_basis, nil_basis, _restricted(M, inv_basis), _restricted(M, nil_basis))


def is_nilpotent(M):
    """True when M^n = 0, decided row by row without matrix products.

    A nilpotent M has charpoly t^n, hence trace 0, so a nonzero trace
    decides False before any row is pushed.  Row i of M^n is row i of M
    pushed through M n - 1 times.  A row is no longer pushed once it is
    zero, and the first nonzero row of M^n decides False.
    """
    trace = 0
    for i, row in enumerate(M.rows):
        trace = M.ctx.add(trace, row[i])
    if trace:
        return False
    for row in M.rows:
        for _ in range(M.n - 1):
            if not any(row):
                break
            row = M.apply_to_row(row)
        if any(row):
            return False
    return True


def primary_components(M):
    """Per irreducible divisor f of the charpoly, canonically ordered:
    (f, basis of V_f, m_f, e_f).

    m_f is the multiplicity of f in the charpoly.  The nullity of f(X)^e
    grows with e until it reaches dim V_f = m_f deg f, first at e = e_f,
    the multiplicity of f in the minimal polynomial; V_f = ker f(X)^{e_f}.
    """
    comps = []
    for f, m_f in poly.factorize(charpoly(M)):
        fx = power = evaluate_poly_at(f, M)
        e_f, basis = 1, left_kernel_basis(fx)
        while len(basis) < m_f * f.degree:
            power, e_f = power * fx, e_f + 1
            basis = left_kernel_basis(power)
        comps.append((f, basis, m_f, e_f))
    return tuple(comps)


def minpoly(M, components=None):
    """Monic minimal polynomial: the product of f^{e_f} over the primary
    components, ``primary_components(M)`` unless the caller has them."""
    comps = primary_components(M) if components is None else components
    return math.prod((f ** e_f for f, _, _, e_f in comps), start=Poly.one(M.ctx))


def primary_factors(M):
    """(f, m_f, cyclic) for every monic irreducible factor f of the charpoly,
    of multiplicity m_f, canonically ordered; cyclic says whether M is
    f-primary cyclic.

    Each cyclic summand of V_f adds deg f to the nullity of f(X), so V_f is
    cyclic exactly when that nullity is deg f; a simple factor always is.
    """
    return tuple((f, m_f, m_f == 1 or M.n - rank(evaluate_poly_at(f, M)) == f.degree)
                 for f, m_f in poly.factorize(charpoly(M)))


# ---------------------------------------------------------------------------
# Group-theoretic helpers
# ---------------------------------------------------------------------------


def gl_order(n, q):
    """|GL(n, q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def jordan_multiplicative(M):
    """Multiplicative Jordan decomposition g = s u = u s.

    s (semisimple) has order coprime to the characteristic p, u
    (unipotent) has p-power order.  With |GL(n, q)| = p^a m and
    gcd(m, p) = 1, s = g^e for e = p^a (p^-a mod m): e is 0 modulo every
    p-power order and 1 modulo every order dividing m, so g^e is the
    p'-part of g, which is unique.
    """
    if not is_invertible(M):
        raise SingularMatrix("Jordan decomposition needs an invertible matrix")
    p = M.ctx.p
    pa, m = 1, gl_order(M.n, M.ctx.order)
    while m % p == 0:
        pa, m = pa * p, m // p
    s = M ** (pa * pow(pa, -1, m))
    return s, M * inverse(s)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def companion(f):
    """Companion matrix of a monic f (degree >= 1); charpoly = minpoly = f."""
    if f.is_zero or f.degree < 1:
        raise DegreeMismatch("companion matrix needs degree >= 1")
    if not f.is_monic:
        raise DegreeMismatch("companion matrix needs a monic polynomial")
    ctx = f.ctx
    n = f.degree
    rows = []
    for i in range(n - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(n)))
    rows.append(tuple(ctx.neg(f.coeffs[j]) for j in range(n)))
    return Mat(ctx, n, tuple(rows))


def direct_sum(A, B):
    if A.ctx is not B.ctx:
        raise FieldMismatch("direct sum over different fields")
    n, m = A.n, B.n
    rows = [tuple(r) + (0,) * m for r in A.rows]
    rows += [(0,) * n + tuple(r) for r in B.rows]
    return Mat(A.ctx, n + m, tuple(rows))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def all_matrices(n, ctx, budget=None):
    """Iterate M(n, q) in index order; refuses counts beyond the budget.

    Matrix i has the base-q digits of i as its entries, row-major with the
    first least significant: n picks of the q^n rows, each row built once
    with its first entry least significant, reversed so row 0 varies fastest.
    """
    q = ctx.order
    gf.admit(q, n * n, f"matrices of M({n}, {q})", budget)
    rows = [digits[::-1] for digits in itertools.product(range(q), repeat=n)]
    for picks in itertools.product(rows, repeat=n):
        yield Mat(ctx, n, picks[::-1])


def all_invertible(n, ctx, budget=None):
    for M in all_matrices(n, ctx, budget=budget):
        if is_invertible(M):
            yield M


# ---------------------------------------------------------------------------
# Text form: "d q^k : e11 e12 ... edd" (entries row-major, integer encodings)
# ---------------------------------------------------------------------------


def format_matrix(M):
    entries = " ".join(str(e) for row in M.rows for e in row)
    return f"{M.n} {gf.describe_field(M.ctx)} : {entries}"


def parse_matrix(text):
    s = text.strip()
    if ":" not in s:
        raise ParseError("expected 'd field : entries'", position=len(s))
    head, _, body = s.partition(":")
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(f"bad matrix header {head.strip()!r}", position=0)
    try:
        n = int(parts[0])
    except ValueError:
        raise ParseError(f"bad dimension {parts[0]!r}", position=0)
    if n < 0:
        raise ParseError(f"negative dimension {n}", position=0)
    ctx = gf.parse_field_descriptor(parts[1])
    entries = body.split()
    if len(entries) != n * n:
        raise ParseError(f"expected {n * n} entries, got {len(entries)}",
                         position=text.index(":") + 1)
    vals = []
    for tok in entries:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad entry {tok!r}", position=text.find(tok))
        if not 0 <= v < ctx.order:
            raise ParseError(f"entry {v} outside field of order {ctx.order}",
                             position=text.find(tok))
        vals.append(v)
    rows = tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n))
    return Mat(ctx, n, rows)
