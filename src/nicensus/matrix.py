"""Exact dense linear algebra over a FieldCtx.

Convention: matrices act on row vectors on the right (v -> v X), so the
image of X is its row space and the kernel is the left null space.
Entries are element ints; a Mat is an immutable tuple of row tuples.

Characteristic polynomials go through an exact similarity reduction to
Hessenberg form followed by the leading-principal-minor recurrence;
minimal polynomials are least common multiples of per-start-vector
annihilators read off Krylov chains.  Both are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf, poly
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    FieldMismatch,
    NotIrreducible,
    SingularMatrix,
    ParseError,
)
from .poly import Poly


@dataclass(frozen=True)
class Mat:
    """Square matrix over a fixed field context."""

    ctx: gf.FieldCtx
    n: int
    rows: tuple  # tuple of n row tuples, each of n element ints

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(ctx, rows):
        rows = tuple(tuple(int(e) for e in r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DegreeMismatch("matrix must be square")
        return Mat(ctx, n, rows)

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
        if e < 0:
            return self.inverse() ** (-e)
        result = Mat.identity(self.ctx, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
    if m == 0:
        return []
    width = len(rows[0])
    if n_pivot_cols is None:
        n_pivot_cols = width
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
    rows = [list(r) for r in M.rows]
    return len(_rref_in_place(rows, M.ctx))


def is_invertible(M):
    return rank(M) == M.n


def row_space_basis(M):
    """Canonical (rref) basis of the image {v X}, as a tuple of row tuples."""
    rows = [list(r) for r in M.rows]
    pivots = _rref_in_place(rows, M.ctx)
    return tuple(tuple(rows[i]) for i in range(len(pivots)))


def left_kernel_basis(M):
    """Canonical basis of {v : v X = 0}."""
    ctx = M.ctx
    n = M.n
    aug = [list(M.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    _rref_in_place(aug, ctx, n_pivot_cols=n)
    dep = [row[n:] for row in aug if all(a == 0 for a in row[:n])]
    _rref_in_place(dep, ctx)
    return tuple(tuple(r) for r in dep if any(r))


def inverse(M):
    ctx = M.ctx
    n = M.n
    aug = [list(M.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    pivots = _rref_in_place(aug, ctx, n_pivot_cols=n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is not invertible")
    return Mat(ctx, n, tuple(tuple(row[n:]) for row in aug))


Mat.inverse = inverse


class RowBasis:
    """A fixed independent row family with a coordinate solver.

    Precomputes rref(B) together with the transform T (T B = R), so that
    coordinates of any vector in the row space come from reading pivot
    columns and mapping back through T.
    """

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        self.width = len(self.rows[0]) if self.rows else 0
        aug = [list(r) + [1 if j == i else 0 for j in range(self.m)]
               for i, r in enumerate(self.rows)]
        self.pivots = _rref_in_place(aug, ctx, n_pivot_cols=self.width)
        if len(self.pivots) != self.m:
            raise ValueError("rows are linearly dependent")
        self.rref = [row[:self.width] for row in aug]
        self.transform = [row[self.width:] for row in aug]

    def coords(self, v):
        """x with x B = v, or None when v is outside the row space."""
        neg, axpy = self.ctx.neg, self.ctx.axpy
        y = [v[c] for c in self.pivots]
        resid = list(v)
        for yi, row in zip(y, self.rref):
            if yi:
                axpy(resid, 0, neg(yi), row)
        if any(resid):
            return None
        out = [0] * self.m
        for yi, trow in zip(y, self.transform):
            if yi:
                axpy(out, 0, yi, trow)
        return tuple(out)


# ---------------------------------------------------------------------------
# Characteristic and minimal polynomials
# ---------------------------------------------------------------------------


def charpoly(M):
    """Monic characteristic polynomial det(t I - X), exactly."""
    ctx = M.ctx
    n = M.n
    if n == 0:
        return Poly.one(ctx)
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
    return Poly(ctx, tuple(polys[n]))


def minpoly(M):
    """Monic minimal polynomial via Krylov-chain annihilators.

    For each standard basis vector the chain v, vX, vX^2, ... yields a
    monic annihilator once it goes dependent; the minimal polynomial is
    the lcm over all start vectors (early exit at full degree).
    """
    ctx = M.ctx
    n = M.n
    result = Poly.one(ctx)
    if n == 0:
        return result
    mul, neg, axpy = ctx.mul, ctx.neg, ctx.axpy
    for start in range(n):
        if result.degree == n:
            break
        v = tuple(1 if j == start else 0 for j in range(n))
        # echelon rows: (vector list, pivot col, combination over chain powers)
        echelon = []
        chain_len = 0
        cur = v
        while True:
            vec = list(cur)
            comb = [0] * (chain_len + 1)
            comb[chain_len] = 1
            for evec, epiv, ecomb in echelon:
                c = vec[epiv]
                if c:
                    axpy(vec, 0, neg(c), evec)
                    axpy(comb, 0, neg(c), ecomb)
            piv = next((i for i, a in enumerate(vec) if a), None)
            if piv is None:
                ann = Poly(ctx, tuple(comb))
                break
            lead = vec[piv]
            if lead != 1:
                linv = ctx.inv(lead)
                vec = [mul(linv, a) for a in vec]
                comb = [mul(linv, a) for a in comb]
            echelon.append((vec, piv, comb))
            chain_len += 1
            cur = M.apply_to_row(cur)
        result = poly.poly_lcm(result, ann)
    return result


def evaluate_poly_at(f, M):
    """f(X) by Horner's rule with matrix arithmetic."""
    ctx = M.ctx
    n = M.n
    acc = Mat.zero(ctx, n)
    for c in reversed(f.coeffs):
        acc = acc * M
        if c:
            acc = acc + Mat.scalar(ctx, n, c)
    return acc


# ---------------------------------------------------------------------------
# Structure: Fitting split, primary components, primary cyclicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FittingSplit:
    """V = V_inv + V_nil with X invertible on the first and nilpotent on the second."""

    inv_basis: tuple  # rows spanning the image of X^n
    nil_basis: tuple  # rows spanning the kernel of X^n
    x_inv: Mat
    x_nil: Mat

    @property
    def inv_dim(self):
        return len(self.inv_basis)

    @property
    def nil_dim(self):
        return len(self.nil_basis)


def _restrict(M, basis):
    """Matrix of X on the invariant subspace spanned by ``basis`` rows."""
    ctx = M.ctx
    if not basis:
        return Mat(ctx, 0, ())
    rb = RowBasis(ctx, basis)
    out = []
    for row in basis:
        img = M.apply_to_row(row)
        coords = rb.coords(img)
        if coords is None:
            raise ValueError("subspace is not invariant under X")
        out.append(coords)
    return Mat(ctx, len(basis), tuple(out))


def fitting_decompose(M):
    """Split V into the invertible and nilpotent parts of X.

    V_nil is the kernel of X^n and V_inv the image of X^n; both are
    X-invariant, X restricted to V_inv is invertible, and the restriction
    to V_nil is nilpotent.
    """
    Y = M ** M.n
    inv_basis = row_space_basis(Y)
    nil_basis = left_kernel_basis(Y)
    return FittingSplit(
        inv_basis=inv_basis,
        nil_basis=nil_basis,
        x_inv=_restrict(M, inv_basis),
        x_nil=_restrict(M, nil_basis),
    )


def is_nilpotent(M):
    return (M ** M.n).is_zero


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Per irreducible divisor f of the charpoly: (basis of V_f, m_f, e_f).

    m_f and e_f are the multiplicities of f in the characteristic and
    minimal polynomials; V_f = ker f(X)^{m_f}.
    """

    components: tuple  # of (Poly, basis rows, m_f, e_f), canonically ordered


def primary_components(M):
    cp = charpoly(M)
    mp = minpoly(M)
    comps = []
    for f, m_f in poly.factorize(cp).factors:
        e_f = poly.multiplicity_in(f, mp)
        fm = evaluate_poly_at(f ** m_f, M)
        basis = left_kernel_basis(fm)
        comps.append((f, basis, m_f, e_f))
    return PrimaryDecomposition(components=tuple(comps))


def is_primary_cyclic(M, f, cp=None, mp=None):
    """True iff mult of f in charpoly equals its mult in minpoly and is >= 1.

    ``cp``/``mp`` may be passed to reuse precomputed polynomials.
    """
    if not (f.is_monic and poly.is_irreducible(f)):
        raise NotIrreducible(f"{f} is not monic irreducible")
    if cp is None:
        cp = charpoly(M)
    m_f = poly.multiplicity_in(f, cp)
    if m_f == 0:
        return False
    if mp is None:
        mp = minpoly(M)
    return poly.multiplicity_in(f, mp) == m_f


# ---------------------------------------------------------------------------
# Group-theoretic helpers
# ---------------------------------------------------------------------------


def gl_order(n, q):
    """|GL(n, q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def element_order(M):
    """Multiplicative order of an invertible matrix, via the factored group order."""
    if not is_invertible(M):
        raise SingularMatrix("order is defined for invertible matrices only")
    ident = Mat.identity(M.ctx, M.n)
    if M == ident:
        return 1
    N = gl_order(M.n, M.ctx.order)
    order = 1
    for p, e in gf.factor_int(N).items():
        g = M ** (N // p ** e)
        while g != ident:
            g = g ** p
            order *= p
    return order


def jordan_multiplicative(M):
    """Multiplicative Jordan decomposition g = s u = u s.

    s (semisimple) has order coprime to the characteristic, u (unipotent)
    has p-power order; s = g^{p^a m'} where |g| = p^a m with gcd(m,p)=1
    and p^a m' = 1 mod m.
    """
    if not is_invertible(M):
        raise SingularMatrix("Jordan decomposition needs an invertible matrix")
    p = M.ctx.p
    order = element_order(M)
    a = 0
    m = order
    while m % p == 0:
        m //= p
        a += 1
    if m == 1:
        s = Mat.identity(M.ctx, M.n)
    else:
        m_prime = pow(p ** a, -1, m)
        s = M ** (p ** a * m_prime)
    u = M * inverse(s)
    return s, u


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


def conjugate(X, g):
    """g^{-1} X g."""
    X._chk(g)
    return inverse(g) * X * g


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def matrix_from_index(ctx, n, idx):
    q = ctx.order
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            row.append(idx % q)
            idx //= q
        rows.append(tuple(row))
    return Mat(ctx, n, tuple(rows))


def all_matrices(n, ctx, budget=None):
    """Iterate M(n, q) in index order; refuses counts beyond the budget."""
    q = ctx.order
    total = q ** (n * n)
    cap = gf.enumeration_budget(budget)
    if total > cap:
        raise BudgetExceeded(f"enumerating {total} matrices exceeds budget {cap}")
    for idx in range(total):
        yield matrix_from_index(ctx, n, idx)


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
