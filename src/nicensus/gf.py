"""Exact arithmetic in finite fields F_{p^k} at desk scale.

Field elements are plain ints in ``[0, p**k)`` encoding coefficient
vectors in base ``p``, low-degree digit first (so the prime subfield is
``0..p-1`` verbatim).  A :class:`FieldCtx` owns the modulus and lookup
tables; every element operation is a pure function of ints, which keeps
the exhaustive-enumeration and sampling loops fast.

Fields up to 2**16 get discrete log/exp tables, and those of order up
to 256 also get full addition/multiplication tables (the products read
off the log tables); anything larger falls back to direct polynomial
arithmetic (still exact, just slower).
Enumeration-style helpers refuse fields beyond 2**20 elements.

Each tier also binds its row kernel ``axpy(dst, off, c, src)``, which
adds ``c * src[j]`` to ``dst[off + j]`` in place with the tier's table
lookups hoisted out of the loop; the polynomial, charpoly and sampling
loops run on coefficient lists through it.
"""

from __future__ import annotations

import itertools
import os

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    NonPrimeCharacteristic,
    NotASubfield,
    ParseError,
    ReducibleModulus,
)

_FULL_TABLE_MAX = 256
_LOG_TABLE_MAX = 1 << 16
FIELD_SIZE_LIMIT = 1 << 20

_DEFAULT_BUDGET = 1 << 24

_ctx_serial = itertools.count()


def enumeration_budget(budget=None):
    """Resolve the enumeration cap: explicit arg, else NICENSUS_BUDGET, else 2**24."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("NICENSUS_BUDGET")
    if env:
        return int(env)
    return _DEFAULT_BUDGET


def factor_int(n):
    """Full factorization of n >= 1 as a dict prime -> exponent."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Reduction modulo the field modulus, for FieldCtx._raw_mul.  Irreducibility
# tests and modulus search go through ``poly`` over the prime field.
# ---------------------------------------------------------------------------


def _pp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _pp_trim(a)


def _is_irreducible_over_prime_field(coeffs, p):
    """Rabin test of a monic polynomial (coefficients low degree first) over F_p."""
    from . import poly  # poly imports gf at module level

    return poly.is_irreducible(poly.Poly(field_create(p, 1), tuple(c % p for c in coeffs)))


_canonical_modulus_cache = {}


def canonical_modulus(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Coefficient vectors are compared low-degree first, so the scan order
    is independent of any integer encoding.
    """
    key = (p, k)
    if key in _canonical_modulus_cache:
        return _canonical_modulus_cache[key]
    if k == 1:
        # t itself: F_p[t]/(t) = F_p
        mod = (0, 1)
    else:
        # Constant term first in scan order; it starts at 1 because every
        # candidate with constant term 0 is divisible by t.
        mod = None
        for tail in itertools.product(range(1, p), *(range(p),) * (k - 1)):
            cand = tail + (1,)
            if _is_irreducible_over_prime_field(cand, p):
                mod = cand
                break
        if mod is None:  # pragma: no cover - irreducibles always exist
            raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")
    _canonical_modulus_cache[key] = mod
    return mod


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------


class FieldCtx:
    """A finite field F_{p^k} with a fixed monic irreducible modulus.

    Immutable after construction; safe to share across workers.  Use
    :func:`field_create` rather than calling this directly, so that
    contexts are cached and ``uid`` values are stable.
    """

    __slots__ = (
        "p", "k", "order", "modulus", "uid",
        "add_rows", "mul_rows", "neg_table", "inv_table",
        "_exp", "_log", "axpy",
    )

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = tuple(int(c) % p for c in modulus)
        self.uid = next(_ctx_serial)
        self.add_rows = None
        self.mul_rows = None
        self.neg_table = None
        self.inv_table = None
        self._exp = None
        self._log = None
        self._build_tables()
        self.axpy = self._row_kernel()

    # -- encoding ----------------------------------------------------------

    def digits(self, a):
        """Coefficient vector of element ``a``, low degree first, length k."""
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.k))

    def from_digits(self, digs):
        p = self.p
        val = 0
        for d in reversed(digs):
            val = val * p + (d % p)
        return val

    def elements(self):
        return range(self.order)

    # -- raw polynomial arithmetic (no tables) ------------------------------

    def _raw_mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        p = self.p
        da = list(self.digits(a))
        db = list(self.digits(b))
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        red = _pp_mod(prod, list(self.modulus), p)
        red += [0] * (self.k - len(red))
        return self.from_digits(red)

    def _raw_add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        da = self.digits(a)
        db = self.digits(b)
        return self.from_digits(tuple((x + y) % p for x, y in zip(da, db)))

    def _raw_pow(self, a, e):
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    # -- table construction --------------------------------------------------

    def _find_generator(self):
        n = self.order - 1
        primes = factor_int(n)
        for g in range(1, self.order):
            if all(self._raw_pow(g, n // ell) != 1 for ell in primes):
                return g
        raise AssertionError("multiplicative group has a generator")

    def _build_tables(self):
        q = self.order
        if q > _LOG_TABLE_MAX:
            return
        g = self._find_generator()
        n = q - 1
        exp = [1] * n
        log = [0] * q
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, g)
        self._exp = exp
        self._log = log
        if q <= _FULL_TABLE_MAX:
            # Products and inverses are read off exp/log, so the whole
            # build costs q - 1 calls of _raw_mul.  Sums are digit-wise mod
            # p: each pass prepends one low digit to the table so far.
            p = self.p
            digit_sum = [[(x + y) % p for y in range(p)] for x in range(p)]
            add = [[0]]
            for _ in range(self.k):
                add = [[lo_sum + p * s for s in hi_row for lo_sum in digit_sum[lo]]
                       for hi_row in add for lo in range(p)]
            self.add_rows = add
            self.neg_table = [add[a].index(0) for a in range(q)]
            self.mul_rows = [[0] * q] + [
                [0] + [exp[(la + lb) % n] for lb in log[1:]] for la in log[1:]]
            self.inv_table = [0] + [exp[-la % n] for la in log[1:]]

    def _row_kernel(self):
        """The tier's ``axpy(dst, off, c, src)``: dst[off + j] += c * src[j]."""
        if self.mul_rows is not None:
            mul_rows, add_rows = self.mul_rows, self.add_rows
            if self.p == 2:
                def axpy(dst, off, c, src):
                    row = mul_rows[c]
                    for j, s in enumerate(src, off):
                        dst[j] ^= row[s]
            else:
                def axpy(dst, off, c, src):
                    row = mul_rows[c]
                    for j, s in enumerate(src, off):
                        dst[j] = add_rows[dst[j]][row[s]]
        elif self._exp is not None and self.p == 2:
            exp, log = self._exp * 2, self._log  # exp doubled: no reduction mod q - 1
            def axpy(dst, off, c, src):
                if c:
                    lc = log[c]
                    for j, s in enumerate(src, off):
                        if s:
                            dst[j] ^= exp[lc + log[s]]
        else:
            add, mul = self.add, self.mul
            def axpy(dst, off, c, src):
                for j, s in enumerate(src, off):
                    dst[j] = add(dst[j], mul(c, s))
        return axpy

    # -- element operations ---------------------------------------------------

    def add(self, a, b):
        if self.add_rows is not None:
            return self.add_rows[a][b]
        return self._raw_add(a, b)

    def neg(self, a):
        if self.neg_table is not None:
            return self.neg_table[a]
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        return self.from_digits(tuple((-d) % p for d in self.digits(a)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.mul_rows is not None:
            return self.mul_rows[a][b]
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._raw_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.inv_table is not None:
            return self.inv_table[a]
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._raw_pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_elt(self, a, e):
        if e < 0:
            return self.pow_elt(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(self._log[a] * e) % n]
        result = 1
        base = a
        mul = self.mul
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    # -- subfield structure ----------------------------------------------------

    def subfield_degree(self, q):
        """Return m with q == p**m and m | k, or raise NotASubfield."""
        p = self.p
        m = 0
        qq = q
        while qq > 1 and qq % p == 0:
            qq //= p
            m += 1
        if qq != 1 or m == 0 or self.k % m != 0:
            raise NotASubfield(f"{q} is not a subfield order of F_{p}^{self.k}")
        return m

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k}, order={self.order})"


_field_cache = {}


def field_create(p, k=1, modulus=None):
    """Create (or fetch from cache) the field F_{p^k}.

    When ``modulus`` is omitted the canonical one is used: the
    lexicographically smallest monic irreducible of degree k over F_p,
    coefficients compared low-degree first.  An explicit modulus may be
    a coefficient sequence (low degree first, length k+1) or its integer
    encoding.
    """
    p = int(p)
    k = int(k)
    if factor_int(p) != {p: 1}:
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {k}")
    if p ** k > FIELD_SIZE_LIMIT:
        raise BudgetExceeded(f"field order {p}^{k} exceeds the supported size {FIELD_SIZE_LIMIT}")
    if modulus is None:
        mod = canonical_modulus(p, k)
    else:
        if hasattr(modulus, "coeffs"):
            mod = tuple(int(c) for c in modulus.coeffs)
        elif isinstance(modulus, int):
            digs = []
            m = modulus
            while m:
                digs.append(m % p)
                m //= p
            mod = tuple(digs)
        else:
            mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1:
            raise DegreeMismatch(f"modulus degree {len(mod) - 1} != extension degree {k}")
        if mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        if not _is_irreducible_over_prime_field(mod, p):
            raise ReducibleModulus(f"modulus {mod} is reducible over F_{p}")
    key = (p, k, mod)
    ctx = _field_cache.get(key)
    if ctx is None:
        ctx = FieldCtx(p, k, mod)
        _field_cache[key] = ctx
    return ctx


def modulus_int(ctx):
    """Integer encoding of the modulus (base-p evaluation, leading term included)."""
    val = 0
    for c in reversed(ctx.modulus):
        val = val * ctx.p + c
    return val


def describe_field(ctx):
    """Canonical text descriptor, parseable by :func:`parse_field_descriptor`."""
    if ctx.k == 1:
        return str(ctx.p)
    return f"{ctx.p}^{ctx.k}/{modulus_int(ctx)}"


def parse_field_descriptor(text):
    """Parse "p", "p^k" or "p^k/modulus-int" into a FieldCtx."""
    s = text.strip()
    mod = None
    if "/" in s:
        s, mod_s = s.split("/", 1)
        try:
            mod = int(mod_s)
        except ValueError:
            raise ParseError(f"bad modulus integer {mod_s!r}", position=text.find("/") + 1)
    if "^" in s:
        ps, ks = s.split("^", 1)
    else:
        ps, ks = s, "1"
    try:
        p, k = int(ps), int(ks)
    except ValueError:
        raise ParseError(f"bad field descriptor {text!r}", position=0)
    return field_create(p, k, mod)


# ---------------------------------------------------------------------------
# Subfield embeddings
# ---------------------------------------------------------------------------

_embedding_cache = {}


def subfield_embedding(sub, ext):
    """Embedding table F_sub -> F_ext (tuple indexed by sub elements).

    The embedding sends the generator of ``sub`` to the lexicographically
    smallest root of sub's modulus in ``ext`` (coefficient vectors of
    candidate roots compared low-degree first), which pins a single
    canonical map per tower.
    """
    key = (sub.uid, ext.uid)
    cached = _embedding_cache.get(key)
    if cached is not None:
        return cached
    if sub.p != ext.p:
        raise NotASubfield("different characteristics")
    if ext.k % sub.k != 0:
        raise NotASubfield(f"F_{sub.order} does not embed in F_{ext.order}")
    if sub.k == 1:
        table = tuple(range(sub.p))
        _embedding_cache[key] = table
        return table
    roots = []
    mod = sub.modulus  # coefficients < p are valid in ext too
    for y in ext.elements():
        acc = 0
        for c in reversed(mod):
            acc = ext.add(ext.mul(acc, y), c)
        if acc == 0:
            roots.append(y)
    if not roots:  # pragma: no cover - guaranteed by degree divisibility
        raise NotASubfield("modulus has no root in the extension")
    rho = min(roots, key=ext.digits)
    table = []
    for x in sub.elements():
        digs = sub.digits(x)
        acc = 0
        for d in reversed(digs):
            acc = ext.add(ext.mul(acc, rho), d)
        table.append(acc)
    table = tuple(table)
    _embedding_cache[key] = table
    return table


def subfield_lift(sub, ext):
    """Partial inverse of the embedding: dict ext-value -> sub-value."""
    table = subfield_embedding(sub, ext)
    return {v: i for i, v in enumerate(table)}
