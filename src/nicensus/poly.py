"""Univariate polynomials over a FieldCtx.

Coefficients are stored low degree first as a tuple of element ints;
the zero polynomial is the empty tuple (degree -1).  Arithmetic runs on
coefficient lists: products, division with remainder, gcd and the p-th
power build a ``Poly`` only for their result.  Each list kernel that runs
row loops (``_mul_lists``, ``_divmod_lists``, ``_frobenius_rows``,
``_pth_power``) reads the field's ``mul_rows`` once: on a field with full
tables (order <= 256) its row loops run inline on table reads, else
through the field's row kernel ``axpy``, the reference the tests hold the
table loops to.  No caller picks a kernel.
``factorize`` returns the canonically sorted tuple of (monic irreducible,
multiplicity), so its output does not depend on the split's draws.  It
runs one loop over degrees d = 1, 2, ...: a gcd with t^(q^d) - t collects
the distinct factors of degree d, a Cantor-Zassenhaus split, seeded by
the polynomial it splits, separates them, and each is divided out with
its multiplicity; nothing is enumerated.
``large_factor`` runs no split: one gcd of f against the product of
t^(q^d) - t over deg f / 4 < d <= deg f / 2 collects every irreducible
factor of at most half the degree (each such degree divides some d in
that range), and what is left after dividing them out is the factor of
more than half the degree, if any, on coefficient lists end to end.
Both loops step t^(q^d) mod f from t^(q^(d-1)) by k applications of the
semilinear p-th power map x^p = sum of c_i^p t^(p*i), read off rows
t^(p*i) mod f built once per call, each the one before shifted by p and
reduced by f.  t^p for p >= deg f, the odd-q split and ``Poly.__pow__``
square and multiply through ``gf.power``.  f is irreducible exactly when
it is its own large factor, so ``is_irreducible`` asks ``large_factor``.

``factorize(f)`` is pure and memoized for the life of the process by
``functools.lru_cache``, keyed by f: ``Poly`` equality compares fields
by identity, so two fields of one order with different moduli never
share an entry.
``member(X)`` is never memoized by a charpoly: X and X_inv + 0 share
theirs, so the NI audits would compare a verdict with itself
(``census._Verdicts`` tables it by the exact matrix instead).

Canonical polynomial order: by degree, then by the coefficient tuple
compared low-degree first.
"""

from __future__ import annotations

import functools
import random

from . import gf
from .errors import (
    FieldMismatch,
    ZeroPolynomial,
)
from .values import Frozen


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _mul_lists(ctx, a, b):
    """Coefficient list of a * b (untrimmed when a or b is zero)."""
    out = [0] * (len(a) + len(b) - 1)
    mul_rows, add_rows, axpy = ctx.mul_rows, ctx.add_rows, ctx.axpy
    for i, x in enumerate(a):
        if x and mul_rows is None:
            axpy(out, i, x, b)
        elif x:
            by_x = mul_rows[x]
            for j, s in enumerate(b, i):
                out[j] = add_rows[out[j]][by_x[s]]
    return out


def _divmod_lists(ctx, a, b):
    """(negated quotient, trimmed remainder) lists of a by b; b trimmed, nonzero.

    Each step adds -(c / lead b) * b, so the step factor is the negated
    quotient coefficient; callers that want the quotient negate it.
    """
    db = len(b) - 1
    rem = list(a)
    nquo = [0] * (len(a) - db)  # empty when len(a) <= db
    low = b[:db]  # rem[i + db] is cancelled by construction and never read again
    mul_rows = ctx.mul_rows
    if mul_rows is not None:
        add_rows = ctx.add_rows
        by_nbinv = mul_rows[ctx.neg_table[ctx.inv_table[b[-1]]]]
        for i in range(len(a) - 1 - db, -1, -1):
            c = rem[i + db]
            if c:
                f = nquo[i] = by_nbinv[c]
                by_f = mul_rows[f]
                for j, s in enumerate(low, i):
                    rem[j] = add_rows[rem[j]][by_f[s]]
    else:
        nbinv = ctx.neg(ctx.inv(b[-1]))
        mul, axpy = ctx.mul, ctx.axpy
        for i in range(len(a) - 1 - db, -1, -1):
            c = rem[i + db]
            if c:
                f = nquo[i] = mul(c, nbinv)
                axpy(rem, i, f, low)
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return nquo, rem


def _gcd_lists(ctx, a, b):
    """A gcd of a and b, not made monic (Euclid on trimmed lists)."""
    while b:
        a, b = b, _divmod_lists(ctx, a, b)[1]
    return a


def _powmod_lists(ctx, x, e, m):
    """x**e mod m for x reduced mod m."""
    if len(m) < 2:
        return []  # F[t]/(m) is the zero ring for constant m
    return gf.power(x, e, lambda a, b: _divmod_lists(ctx, _mul_lists(ctx, a, b), m)[1], [1])


def _frobenius_rows(ctx, m):
    """Rows R_i = t^(p*i) mod m for i < deg m, m monic of degree >= 2.

    R_i is R_(i-1) shifted by p (a product by t^p mod m when p >= deg m),
    each coefficient c past deg m cleared by adding c times -m, no inverse.
    """
    n, p = len(m) - 1, ctx.p
    tp = None if p < n else _powmod_lists(ctx, [0, 1], p, m)
    low = list(map(ctx.neg, m[:n]))
    mul_rows, add_rows, axpy = ctx.mul_rows, ctx.add_rows, ctx.axpy
    rows = [[1]]
    for _ in range(n - 1):
        a = [0] * p + rows[-1] if tp is None else _mul_lists(ctx, tp, rows[-1])
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i]
            if c and mul_rows is None:
                axpy(a, i - n, c, low)
            elif c:
                by_c = mul_rows[c]
                for j, s in enumerate(low, i - n):
                    a[j] = add_rows[a[j]][by_c[s]]
        rows.append(a[:n])
    return rows


def _pth_power(ctx, rows, x):
    """x^p mod m for x reduced mod m, from m's ``_frobenius_rows``.

    The p-th power map is additive and c -> c^p on coefficients, so
    x^p = sum of c_i^p * R_i: at most deg m row passes, where a squaring
    costs about twice that; a monomial row t^(p*i), p*i < deg m, places its term.
    """
    p, frob, out = ctx.p, ctx.frob, [0] * len(rows)
    head = -(-len(rows) // p)  # the monomial rows, p*i < deg m
    for i, c in enumerate(x[:head]):
        if c:
            out[p * i] = frob[c] if frob else ctx.pow_elt(c, p)
    mul_rows, add_rows, axpy = ctx.mul_rows, ctx.add_rows, ctx.axpy
    for c, row in zip(x[head:], rows[head:]):
        if c and mul_rows is None:
            axpy(out, 0, frob[c] if frob else ctx.pow_elt(c, p), row)
        elif c:
            by_c = mul_rows[frob[c]]
            for j, s in enumerate(row):
                out[j] = add_rows[out[j]][by_c[s]]
    while out and not out[-1]:
        out.pop()
    return out


class Poly(Frozen):
    """Dense univariate polynomial over a fixed field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        set_ctx, set_coeffs = self._set
        set_ctx(self, ctx)
        set_coeffs(self, coeffs)

    @staticmethod
    def make(ctx, coeffs):
        return Poly(ctx, _trim([int(c) for c in coeffs]))

    @staticmethod
    def zero(ctx):
        return Poly(ctx, ())

    @staticmethod
    def one(ctx):
        return Poly(ctx, (1,))

    @staticmethod
    def x(ctx):
        """The polynomial t."""
        return Poly(ctx, (0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _chk(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise FieldMismatch("polynomials over different fields")
        return other

    # -- arithmetic -----------------------------------------------------------

    def _plus_multiple(self, c, other):
        """self + c * other."""
        other = self._chk(other)
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        self.ctx.axpy(out, 0, c, other.coeffs)
        return Poly(self.ctx, _trim(out))

    def __add__(self, other):
        return self._plus_multiple(1, other)

    def __sub__(self, other):
        return self._plus_multiple(self.ctx.neg(1), other)

    def __mul__(self, other):
        other = self._chk(other)
        return Poly(self.ctx, _trim(_mul_lists(self.ctx, self.coeffs, other.coeffs)))

    def scale(self, c):
        return Poly.make(self.ctx, [self.ctx.mul(int(c), x) for x in self.coeffs])

    def __divmod__(self, other):
        other = self._chk(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        nquo, rem = _divmod_lists(self.ctx, self.coeffs, other.coeffs)
        return Poly(self.ctx, tuple(map(self.ctx.neg, nquo))), Poly(self.ctx, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        return (other % self).is_zero

    def __pow__(self, e):
        return gf.power(self, e, Poly.__mul__, Poly.one(self.ctx))

    def monic(self):
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))

    def evaluate(self, a):
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc

    def derivative(self):
        ctx = self.ctx
        # i mod p is the prime-field element i * 1, encoded verbatim
        return Poly(ctx, _trim([ctx.mul(i % ctx.p, c) for i, c in enumerate(self.coeffs)][1:]))

    def canonical_key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    g = Poly(a.ctx, tuple(_gcd_lists(a.ctx, a.coeffs, a._chk(b).coeffs)))
    return g.monic() if g.coeffs else g


# ---------------------------------------------------------------------------
# Irreducibility, enumeration, counting
# ---------------------------------------------------------------------------


def is_irreducible(f):
    """Whether f is its own factor of degree > deg f / 2; never for constants or zero."""
    if f.degree < 1:
        return False
    g = large_factor(f)
    return g is not None and g.degree == f.degree


def _monic_from_index(ctx, idx, m):
    """Monic degree-m polynomial whose low m coefficients encode idx in base q."""
    q = ctx.order
    coeffs = []
    for _ in range(m):
        coeffs.append(idx % q)
        idx //= q
    coeffs.append(1)
    return Poly(ctx, tuple(coeffs))


def _index_of_monic(f):
    q = f.ctx.order
    idx = 0
    for c in reversed(f.coeffs[:-1]):
        idx = idx * q + c
    return idx


def irr_enumerate(m, ctx, budget=None):
    """All monic irreducibles of degree m over ctx, canonically ordered.

    Checks the q^m candidates against the budget, then sieves them:
    every composite monic of degree m is a multiple of an irreducible of
    degree <= m/2, so marking those multiples leaves the irreducibles.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    q = ctx.order
    total = gf.admit(q, m, f"candidates for the irreducibles of degree {m} over F_{q}", budget)
    composite = bytearray(total)
    for r in range(1, m // 2 + 1):
        cof = m - r
        for g in irr_enumerate(r, ctx, budget=budget):
            for h_idx in range(q ** cof):
                h = _monic_from_index(ctx, h_idx, cof)
                composite[_index_of_monic(g * h)] = 1
    out = [_monic_from_index(ctx, i, m) for i in range(total) if not composite[i]]
    out.sort(key=Poly.canonical_key)
    return tuple(out)


def moebius(n):
    mu = 1
    for p, e in gf.factor_int(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def irr_count(m, q):
    """Number of monic irreducibles of degree m over F_q: (1/m) sum mu(d) q^(m/d)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            mu = moebius(d)
            if mu:
                total += mu * q ** (m // d)
    assert total % m == 0
    return total // m


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


# Above the distinct charpolys of any d >= 2 enumeration that the default
# 2^24 budget admits: q^d <= 64^2 = 4096 monic polynomials at d = 2, q = 64.
_MEMO_MAX = 1 << 13


def _split_equal_degree(g, d):
    """Cantor-Zassenhaus: the monic irreducible factors of g, in no fixed order.

    g is monic and a product of distinct irreducibles of degree d.  For a
    random a of degree < deg g, take b = a^((q^d - 1)/2) - 1 when q is odd,
    or the trace a + a^2 + ... + a^(2^(kd - 1)) when q = 2^k.  Modulo
    each factor, b is 0 for about half of all a and independently of the
    other factors, so gcd(g, b) is a proper divisor of g with probability
    about 1/2 once g has two factors.  Candidates t + c would not do for
    q = 2^k: their traces agree on factors whose roots have equal traces.
    The draws come from a private generator seeded by g, so the result
    is a pure function of g and the global ``random`` state is untouched.
    No proper divisor in 64 draws (each splits with probability >= 4/9, so
    under 2^-54 for correct kernels) raises AssertionError, not a hang.
    """
    ctx = g.ctx
    q = ctx.order
    rng = random.Random(_index_of_monic(g))
    out, todo = [], [g]
    while todo:
        h = todo.pop()
        m = h.coeffs
        n = len(m) - 1
        if n == d:
            out.append(h)
            continue
        for _ in range(64):
            a = [rng.randrange(q) for _ in range(n)]
            if ctx.p == 2:
                b = list(a)
                for _ in range(ctx.k * d - 1):
                    a = _divmod_lists(ctx, _mul_lists(ctx, a, a), m)[1]
                    ctx.axpy(b, 0, 1, a)
            else:
                b = _powmod_lists(ctx, a, (q ** d - 1) // 2, m) or [0]
                b[0] = ctx.sub(b[0], 1)
            c = poly_gcd(h, Poly(ctx, _trim(b)))
            if 0 < c.degree < n:
                break
        else:
            raise AssertionError(f"_split_equal_degree({g}, {d}): no split in 64 draws")
        todo += [c, h // c]
    return out


@functools.lru_cache(maxsize=_MEMO_MAX)
def factorize(f):
    """The monic irreducible factors of f with their multiplicities: a tuple
    of (Poly, int), sorted canonically; f is their product times its
    leading coefficient.

    One pass per degree d = 1, 2, ... on u, which starts as f.monic():
    with w = t^(q^d) mod f.monic(), g = gcd(u, w - t) is the product of
    the distinct irreducible factors of u of degree dividing d, which are
    those of degree exactly d once the smaller ones are stripped (u need
    not be squarefree: g takes each factor once; u divides f, so w may
    stay reduced mod f).  w steps as in ``large_factor``, through the
    ``_frobenius_rows`` of f.  g is split by ``_split_equal_degree`` and
    each factor h is divided out of u by repeated division, which counts
    its multiplicity on the way and keeps the last quotient.  Once
    2d > deg u, what is left is 1 or irreducible.  The canonical sort makes
    the output independent of the split's random draws.
    """
    if not isinstance(f, Poly):
        raise TypeError("factorize expects a Poly")
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ctx = f.ctx
    t = Poly.x(ctx)
    u, w, d = f.monic(), [0, 1], 1
    if u.degree >= 2:
        rows = _frobenius_rows(ctx, u.coeffs)
    factors = []
    while 2 * d <= u.degree:
        for _ in range(ctx.k):
            w = _pth_power(ctx, rows, w)
        g = poly_gcd(u, Poly(ctx, tuple(w)) - t)
        if g.degree > 0:
            for h in _split_equal_degree(g, d):
                e = 0
                while True:
                    quo, rem = divmod(u, h)
                    if not rem.is_zero:
                        break
                    u, e = quo, e + 1
                factors.append((h, e))
        d += 1
    if u.degree > 0:
        factors.append((u, 1))
    factors.sort(key=lambda fe: fe[0].canonical_key())
    return tuple(factors)


def large_factor(f):
    """The monic irreducible factor of f of degree > deg f / 2, or None.

    With n = deg f and q = p^k the field order, let S be the product of
    t^(q^d) - t over n/4 < d <= n/2, reduced mod f.  An irreducible of
    degree r divides t^(q^d) - t exactly when r | d, and every r <= n/2
    divides some d in that range: r itself if r > n/4, and otherwise the
    range is a run of at least floor(n/4) >= r consecutive integers.  So
    gcd(f, S) is divisible by every irreducible factor of f of degree
    <= n/2 and by none of larger degree.  Dividing the former out of f,
    with their multiplicities, leaves the large factor (at most one fits,
    with multiplicity 1) or a constant.  No factorization split runs.

    t^(q^d) mod f comes from t^(q^(d-1)) by k steps of the p-th power
    map, which is additive and semilinear: x^p = sum of c_i^p t^(p*i),
    read off rows t^(p*i) mod f built once per call (on a prime field
    this is Berlekamp's Q-matrix product).
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    g = _large_factor_lists(f.ctx, f.monic().coeffs)
    return None if g is None else Poly(f.ctx, g)


def _large_factor_lists(ctx, m):
    """``large_factor`` of a monic coefficient list m: a coefficient tuple or None."""
    n = len(m) - 1
    if n < 2:  # a constant has no factor; a linear f is its own
        return tuple(m) if n == 1 else None
    rows = _frobenius_rows(ctx, m)
    w, s = rows[1], None  # t^p mod f and the empty product
    for d in range(1, n // 2 + 1):
        for _ in range(ctx.k if d > 1 else ctx.k - 1):
            w = _pth_power(ctx, rows, w)  # ends at t^(q^d) mod f
        h = w + [0] * (2 - len(w))
        h[1] = ctx.sub(h[1], 1)
        h = _trim(h)
        if not h:  # every irreducible factor has degree dividing d <= n/2
            return None
        if 4 * d > n:
            s = h if s is None else _divmod_lists(ctx, _mul_lists(ctx, s, h), m)[1]
    u, c, passes = m, _gcd_lists(ctx, m, s), 0
    if 2 * (len(c) - 1) >= n:  # the small factors fill half of f or more
        return None
    while len(c) > 1:
        if passes == n:  # each exact pass lowers deg u, so n passes leave a unit c
            raise AssertionError("large_factor: dividing out the small factors did not end")
        u, passes = _divmod_lists(ctx, u, c)[0], passes + 1  # a unit multiple of u / c
        c = _gcd_lists(ctx, u, c)
    inv = ctx.inv(u[-1])  # u is a unit multiple of the large factor, if there is one
    return tuple(ctx.mul(inv, c) for c in u) if 2 * (len(u) - 1) > n else None


def is_squarefree(f):
    d = f.derivative()
    if d.is_zero:
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


# ---------------------------------------------------------------------------
# Galois action on coefficients
# ---------------------------------------------------------------------------


def galois_conjugate(g, q):
    """Apply tau: x -> x**q to each coefficient of g.

    q must be a subfield order of g's field; the map preserves degree
    and irreducibility.
    """
    return Poly(g.ctx, _conjugate_coeffs(g.ctx, g.coeffs, g.ctx.subfield_degree(q)))


def _conjugate_coeffs(ctx, coeffs, m):
    """Each coefficient to the p^m: m reads of ``ctx.frob``, ``pow_elt`` on the raw tier."""
    frob = ctx.frob
    if frob is None:
        return tuple(ctx.pow_elt(c, ctx.p ** m) for c in coeffs)
    for _ in range(m):
        coeffs = tuple(map(frob.__getitem__, coeffs))
    return coeffs


def galois_orbit_length(g, q):
    """Length of the orbit of g under coefficientwise x -> x**q, on tuples: it
    divides k/m (q = p^m), so it is k/m when none of k/m - 1 conjugates is g."""
    ctx, m = g.ctx, g.ctx.subfield_degree(q)
    conj = g.coeffs
    for length in range(1, ctx.k // m):
        conj = _conjugate_coeffs(ctx, conj, m)
        if conj == g.coeffs:
            return length
    return ctx.k // m


def embed_into_extension(f, ext):
    """Rewrite f over an extension field of f's field."""
    table = gf.subfield_embedding(f.ctx, ext)
    return Poly(ext, tuple(table[c] for c in f.coeffs))


def count_regular_orbit_irr(r, b, q, budget=None):
    """Count g in Irr_r(q^b) whose Galois orbit over F_q has full length b."""
    if r < 1 or b < 1:
        raise ValueError("r and b must be >= 1")
    base = gf.field_of_order(q)
    ext = gf.field_create(base.p, base.k * b)
    count = 0
    for g in irr_enumerate(r, ext, budget=budget):
        if galois_orbit_length(g, q) == b:
            count += 1
    return count


def regular_orbit_report(r, b, q, budget=None):
    """Compare the enumerated regular-orbit count against both closed forms.

    Two candidate formulas circulate for the number of full-orbit
    g in Irr_r(q^b): b*|Irr_{br}(q)| and r*|Irr_{br}(q)|.  The
    enumeration is the arbiter; the report states which (possibly both,
    when b == r) the exact count supports.
    """
    count = count_regular_orbit_irr(r, b, q, budget=budget)
    n_irr = irr_count(b * r, q)
    b_formula = b * n_irr
    r_formula = r * n_irr
    if count == b_formula and count == r_formula:
        supports = "both"
    elif count == b_formula:
        supports = "b*|Irr_br(q)|"
    elif count == r_formula:
        supports = "r*|Irr_br(q)|"
    else:
        supports = "neither"
    return {
        "r": r,
        "b": b,
        "q": q,
        "count": count,
        "b_formula": b_formula,
        "r_formula": r_formula,
        "supports": supports,
    }


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def format_poly(f):
    """Render as "c0+c1*t+c2*t^2", omitting zero terms ("0" for the zero polynomial)."""
    if f.is_zero:
        return "0"
    terms = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*t")
        else:
            terms.append(f"{c}*t^{i}")
    return "+".join(terms)

