"""Univariate polynomials over a FieldCtx.

Coefficients are stored low degree first as a tuple of element ints;
the zero polynomial is the empty tuple (degree -1).  Arithmetic runs on
coefficient lists through the field's row kernel ``axpy``: products,
division with remainder, gcd and modular powers build a ``Poly`` only
for their result.  ``factorize`` runs one loop over degrees d = 1, 2, ...:
a gcd with t^(q^d) - t collects the distinct factors of degree d, a
Cantor-Zassenhaus split separates them, and each is divided out with its
multiplicity; nothing is enumerated.  The split draws from a generator
seeded by the polynomial it splits, and factors are sorted canonically,
so the output is canonical and does not depend on the draws.
``large_factor`` runs no split: one gcd of f against the product of
t^(q^d) - t over d <= deg f / 2 collects every irreducible factor of at
most half the degree, and what is left after dividing them out is the
factor of more than half the degree, if any.  f is irreducible exactly
when it is that factor itself, so ``is_irreducible`` asks ``large_factor``.

Canonical polynomial order: by degree, then by the coefficient tuple
compared low-degree first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    NotASubfield,
    ZeroPolynomial,
)


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _mul_lists(ctx, a, b):
    """Coefficient list of a * b (untrimmed when a or b is zero)."""
    out = [0] * (len(a) + len(b) - 1)
    axpy = ctx.axpy
    for i, x in enumerate(a):
        if x:
            axpy(out, i, x, b)
    return out


def _divmod_lists(ctx, a, b):
    """(negated quotient, trimmed remainder) lists of a by b; b trimmed, nonzero.

    Each step adds -(c / lead b) * b, so the step factor is the negated
    quotient coefficient; callers that want the quotient negate it.
    """
    db = len(b) - 1
    rem = list(a)
    nquo = [0] * (len(a) - db)  # empty when len(a) <= db
    nbinv = ctx.neg(ctx.inv(b[-1]))
    low = b[:db]  # rem[i + db] is cancelled by construction and never read again
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
    """x**e mod m for x reduced mod m (left-to-right square-and-multiply)."""
    if e == 0:
        return [1] if len(m) > 1 else []  # F[t]/(m) is the zero ring for constant m
    out = x
    for bit in bin(e)[3:]:
        out = _divmod_lists(ctx, _mul_lists(ctx, out, out), m)[1]
        if bit == "1":
            out = _divmod_lists(ctx, _mul_lists(ctx, out, x), m)[1]
    return out


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over a fixed field context."""

    ctx: gf.FieldCtx
    coeffs: tuple

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
    def constant(ctx, c):
        return Poly.make(ctx, (c,))

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
    def lead(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        ctx = self.ctx
        c = int(c)
        if c == 0:
            return Poly(ctx, ())
        return Poly(ctx, _trim([ctx.mul(c, x) for x in self.coeffs]))

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
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
# gcd and modular exponentiation
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    g = Poly(a.ctx, tuple(_gcd_lists(a.ctx, a.coeffs, a._chk(b).coeffs)))
    return g.monic() if g.coeffs else g


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        return Poly.zero(a.ctx)
    return ((a * b) // poly_gcd(a, b)).monic()


def pow_mod(base, e, mod):
    """base**e mod mod for e >= 0."""
    if e < 0:
        raise ValueError("negative polynomial power")
    ctx = mod.ctx
    return Poly(ctx, tuple(_powmod_lists(ctx, (base % mod).coeffs, e, mod.coeffs)))


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


_irr_cache = {}


def irr_enumerate(m, ctx, budget=None):
    """All monic irreducibles of degree m over ctx, canonically ordered.

    Uses a sieve: every composite monic of degree m is a multiple of an
    irreducible of degree <= m/2, so marking those multiples leaves the
    irreducibles.  Cached per (field, degree).
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    key = (ctx.uid, m)
    cached = _irr_cache.get(key)
    if cached is not None:
        return cached
    q = ctx.order
    cap = gf.enumeration_budget(budget)
    if q ** m > cap:
        raise BudgetExceeded(f"irreducible enumeration needs {q}^{m} candidates, budget {cap}")
    total = q ** m
    composite = bytearray(total)
    for r in range(1, m // 2 + 1):
        cof = m - r
        for g in irr_enumerate(r, ctx, budget=budget):
            for h_idx in range(q ** cof):
                h = _monic_from_index(ctx, h_idx, cof)
                composite[_index_of_monic(g * h)] = 1
    out = [_monic_from_index(ctx, i, m) for i in range(total) if not composite[i]]
    out.sort(key=Poly.canonical_key)
    out = tuple(out)
    _irr_cache[key] = out
    return out


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


@dataclass(frozen=True)
class Factorization:
    """unit * prod(f_i ** e_i); factors are monic irreducible, sorted canonically."""

    unit: int
    factors: tuple  # of (Poly, int)

    def recompose(self, ctx):
        out = Poly.constant(ctx, self.unit)
        for f, e in self.factors:
            out = out * f ** e
        return out


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
        while True:
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
        todo += [c, h // c]
    return out


def factorize(f):
    """Exact factorization into monic irreducibles.

    One pass per degree d = 1, 2, ... on u = f.monic(): with w = t^(q^d)
    mod u, g = gcd(u, w - t) is the product of the distinct irreducible
    factors of u of degree dividing d, which are those of degree exactly
    d once the smaller ones are stripped (u need not be squarefree: g
    takes each factor once).  g is split by ``_split_equal_degree`` and
    each factor is divided out of u with its multiplicity.  Once
    2d > deg u, what is left is 1 or irreducible.  The factors are sorted
    canonically, so the output is canonical and does not depend on the
    split's random draws.
    """
    if not isinstance(f, Poly):
        raise TypeError("factorize expects a Poly")
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ctx = f.ctx
    t = Poly.x(ctx)
    u, w, d = f.monic(), t, 1
    factors = []
    while 2 * d <= u.degree:
        w = pow_mod(w, ctx.order, u)
        g = poly_gcd(u, w - t)
        if g.degree > 0:
            for h in _split_equal_degree(g, d):
                e = multiplicity_in(h, u)
                u //= h ** e
                factors.append((h, e))
        d += 1
    if u.degree > 0:
        factors.append((u, 1))
    factors.sort(key=lambda fe: fe[0].canonical_key())
    return Factorization(f.lead, tuple(factors))


def large_factor(f):
    """The monic irreducible factor of f of degree > deg f / 2, or None.

    With n = deg f and q the field order, let S be the product of
    t^(q^d) - t over d <= n/2, reduced mod f.  An irreducible of degree r
    divides t^(q^d) - t exactly when r | d, so gcd(f, S) is divisible by
    every irreducible factor of f of degree <= n/2 and by none of larger
    degree.  Dividing the former out of f, with their multiplicities,
    leaves the large factor (at most one fits, with multiplicity 1) or a
    constant.  No factorization split runs.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ctx = f.ctx
    m = f.monic().coeffs
    n = len(m) - 1
    w, s = [0, 1], [1]  # t mod f and the empty product (n >= 2 whenever the loop runs)
    for d in range(1, n // 2 + 1):
        w = _powmod_lists(ctx, w, ctx.order, m)  # t^(q^d) mod f
        h = w + [0] * (2 - len(w))
        h[1] = ctx.sub(h[1], 1)
        h = _trim(h)
        if not h:  # every irreducible factor has degree dividing d <= n/2
            return None
        s = _divmod_lists(ctx, _mul_lists(ctx, s, h), m)[1]
    u, c = m, _gcd_lists(ctx, m, s)
    while len(c) > 1:
        u = _divmod_lists(ctx, u, c)[0]  # a unit multiple of u / c
        c = _gcd_lists(ctx, u, c)
    return Poly(ctx, tuple(u)).monic() if 2 * (len(u) - 1) > n else None


def multiplicity_in(f, g):
    """Multiplicity of f in g by repeated exact division."""
    if f.degree < 1:
        raise ValueError("multiplicity of a constant is undefined")
    count = 0
    while g.degree >= f.degree:
        q, r = divmod(g, f)
        if not r.is_zero:
            break
        g = q
        count += 1
    return count


def is_squarefree(f):
    d = f.derivative()
    if d.is_zero:
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


# ---------------------------------------------------------------------------
# Galois action on coefficients
# ---------------------------------------------------------------------------


def galois_conjugate(g, q, i=1):
    """Apply tau: x -> x**(q**i) to each coefficient of g.

    q must be a subfield order of g's field; the map preserves degree
    and irreducibility.
    """
    ctx = g.ctx
    ctx.subfield_degree(q)
    e = q ** (i % ctx.k if ctx.k else 1)
    if i == 0:
        return g
    return Poly(ctx, tuple(ctx.pow_elt(c, e) for c in g.coeffs))


def galois_orbit_length(g, q):
    """Length of the orbit of g under coefficientwise x -> x**q."""
    ctx = g.ctx
    m = ctx.subfield_degree(q)
    bound = ctx.k // m
    conj = galois_conjugate(g, q, 1)
    length = 1
    while conj != g:
        conj = galois_conjugate(conj, q, 1)
        length += 1
        if length > bound:  # pragma: no cover
            raise AssertionError("orbit length exceeded Galois group order")
    return length


def express_over_subfield(f, sub):
    """Rewrite f (whose coefficients lie in the embedded subfield) over ``sub``."""
    ext = f.ctx
    lift = gf.subfield_lift(sub, ext)
    try:
        coeffs = tuple(lift[c] for c in f.coeffs)
    except KeyError:
        raise NotASubfield("a coefficient lies outside the embedded subfield")
    return Poly(sub, coeffs)


def embed_into_extension(f, ext):
    """Rewrite f over an extension field of f's field."""
    table = gf.subfield_embedding(f.ctx, ext)
    return Poly(ext, tuple(table[c] for c in f.coeffs))


def norm(f, base):
    """prod over tau in Gal(K/F) of f^tau, rewritten over F.

    K is f's field and F = ``base`` one of its subfields; the product of
    the b = [K:F] conjugates under coefficientwise x -> x**q has its
    coefficients in F.
    """
    ext = f.ctx
    q = base.order
    conj = prod = f
    for _ in range(ext.k // base.k - 1):
        conj = galois_conjugate(conj, q, 1)
        prod = prod * conj
    return express_over_subfield(prod, base)


def count_regular_orbit_irr(r, b, q, budget=None):
    """Count g in Irr_r(q^b) whose Galois orbit over F_q has full length b."""
    if r < 1 or b < 1:
        raise ValueError("r and b must be >= 1")
    pf = gf.factor_int(q)
    if len(pf) != 1:
        raise gf.NonPrimeCharacteristic(f"{q} is not a prime power")
    ((p, m),) = pf.items()
    ext = gf.field_create(p, m * b)
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

