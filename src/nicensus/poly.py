"""Univariate polynomials over a FieldCtx.

Coefficients are stored low degree first as a tuple of element ints;
the zero polynomial is the empty tuple (degree -1).  Arithmetic runs on
coefficient lists through the field's row kernel ``axpy``: products,
division with remainder, gcd and modular powers build a ``Poly`` only
for their result.  Everything here is
deterministic: factorization runs squarefree split, then distinct-degree
split, then trial division against canonically ordered irreducibles, so
repeated runs produce identical factor orderings.  ``large_factor``
stops after the first two splits, which already isolate a factor of
more than half the degree.

Canonical polynomial order: by degree, then by the coefficient tuple
compared low-degree first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    NotASubfield,
    ParseError,
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

    def shift(self, m):
        """Multiply by t**m."""
        if self.is_zero:
            return self
        return Poly(self.ctx, (0,) * m + self.coeffs)

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

    def pth_root(self):
        """Inverse of c -> c**p applied degree-wise; requires a p-th power."""
        ctx = self.ctx
        p = ctx.p
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        # c**(1/p) = c**(p**(k-1)) in F_{p^k}
        e = p ** (ctx.k - 1)
        out = [ctx.pow_elt(self.coeffs[i], e) for i in range(0, len(self.coeffs), p)]
        return Poly(ctx, _trim(out))

    def canonical_key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# gcd and modular exponentiation
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    ctx = a.ctx
    x, y = a.coeffs, a._chk(b).coeffs
    while y:
        x, y = y, _divmod_lists(ctx, x, y)[1]
    g = Poly(ctx, tuple(x))
    return g.monic() if x else g


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        return Poly.zero(a.ctx)
    return ((a * b) // poly_gcd(a, b)).monic()


def pow_mod(base, e, mod):
    ctx = mod.ctx
    m = mod.coeffs
    result = [1]
    x = (base % mod).coeffs
    while e:
        if e & 1:
            result = _divmod_lists(ctx, _mul_lists(ctx, result, x), m)[1]
        x = _divmod_lists(ctx, _mul_lists(ctx, x, x), m)[1]
        e >>= 1
    return Poly(ctx, tuple(result))


# ---------------------------------------------------------------------------
# Irreducibility, enumeration, counting
# ---------------------------------------------------------------------------


def is_irreducible(f):
    """Rabin irreducibility test. Constants and the zero polynomial are not irreducible."""
    if f.is_zero:
        return False
    m = f.degree
    if m < 1:
        return False
    if m == 1:
        return True
    ctx = f.ctx
    q = ctx.order
    fm = f.monic()
    t = Poly.x(ctx)
    if not (pow_mod(t, q ** m, fm) - (t % fm)).is_zero:
        return False
    for ell in gf.factor_int(m):
        d = pow_mod(t, q ** (m // ell), fm) - (t % fm)
        if d.is_zero:
            return False
        if poly_gcd(fm, d).degree > 0:
            return False
    return True


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

    def multiplicity(self, f):
        for g, e in self.factors:
            if g == f:
                return e
        return 0


def _squarefree_blocks(f):
    """Yield (block, multiplicity): coprime squarefree monic blocks of f.

    Char-p aware: when every exponent is divisible by p the residual
    polynomial is a p-th power and recursion continues on its root.
    """
    ctx = f.ctx
    p = ctx.p
    out = []
    e = 1
    while f.degree > 0:
        d = f.derivative()
        if d.is_zero:
            f = f.pth_root()
            e *= p
            continue
        t = poly_gcd(f, d)
        v = f // t
        k = 0
        while v.degree > 0:
            k += 1
            w = poly_gcd(t, v)
            s = v // w
            if s.degree > 0:
                out.append((s.monic(), e * k))
            v = w
            t = t // w
        f = t
        if f.degree > 0:
            f = f.pth_root()
            e *= p
    return out


def _distinct_degree_blocks(h):
    """Split a squarefree monic h into (d, product of its degree-d irreducibles)."""
    ctx = h.ctx
    q = ctx.order
    out = []
    w = Poly.x(ctx) % h
    d = 0
    g = h
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g.degree, g))
            break
        w = pow_mod(w, q, g)
        sub = poly_gcd(g, w - Poly.x(ctx))
        if sub.degree > 0:
            out.append((d, sub))
            g = g // sub
            w = w % g
    return out


def _split_equal_degree(block, d, budget=None):
    """Split a product of distinct degree-d irreducibles by trial division."""
    if block.degree == d:
        return [block]
    out = []
    rem = block
    for cand in irr_enumerate(d, block.ctx, budget=budget):
        if rem.degree < d:
            break
        q, r = divmod(rem, cand)
        if r.is_zero:
            out.append(cand)
            rem = q
        if rem.degree == d:
            out.append(rem)
            break
    assert sum(f.degree for f in out) == block.degree
    return out


def factorize(f, budget=None):
    """Exact factorization into monic irreducibles (deterministic)."""
    if not isinstance(f, Poly):
        raise TypeError("factorize expects a Poly")
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.lead
    if f.degree == 0:
        return Factorization(unit, ())
    g = f.monic()
    factors = []
    for block, mult in _squarefree_blocks(g):
        for d, dd_block in _distinct_degree_blocks(block):
            for irr in _split_equal_degree(dd_block, d, budget=budget):
                factors.append((irr, mult))
    factors.sort(key=lambda fe: fe[0].canonical_key())
    fac = Factorization(unit, tuple(factors))
    return fac


def large_factor(f):
    """The monic irreducible factor of f of degree > deg f / 2, or None.

    Such a factor has multiplicity 1 and no other factor of its degree
    fits beside it, so it is a whole block of the squarefree split
    followed by the distinct-degree split: no equal-degree split runs.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    n = f.degree
    for block, mult in _squarefree_blocks(f.monic()):
        if mult == 1 and 2 * block.degree > n:
            for d, dd_block in _distinct_degree_blocks(block):
                if 2 * d > n:
                    return dd_block
    return None


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


def parse_poly(text, ctx):
    """Parse the "c0+c1*t+c2*t^2" form (coefficients are element integer encodings)."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", position=0)
    if s == "0":
        return Poly.zero(ctx)
    coeffs = {}
    pos = 0
    for term in s.split("+"):
        piece = term.strip()
        if not piece:
            raise ParseError("empty term", position=pos)
        if "*" in piece:
            c_s, t_s = piece.split("*", 1)
        elif piece.startswith("t"):
            c_s, t_s = "1", piece
        else:
            c_s, t_s = piece, ""
        t_s = t_s.strip()
        c_s = c_s.strip()
        try:
            c = int(c_s)
        except ValueError:
            raise ParseError(f"bad coefficient {c_s!r}", position=text.find(piece))
        if not t_s:
            exp = 0
        elif t_s == "t":
            exp = 1
        elif t_s.startswith("t^"):
            try:
                exp = int(t_s[2:])
            except ValueError:
                raise ParseError(f"bad exponent in {piece!r}", position=text.find(piece))
        else:
            raise ParseError(f"bad term {piece!r}", position=text.find(piece))
        if not 0 <= c < ctx.order:
            raise ParseError(f"coefficient {c} outside field of order {ctx.order}",
                             position=text.find(piece))
        coeffs[exp] = ctx.add(coeffs.get(exp, 0), c)
        pos += len(term) + 1
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(ctx, _trim(out))
