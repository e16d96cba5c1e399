"""Exact arithmetic in finite fields F_{p^k} at desk scale.

Field elements are plain ints in ``[0, p**k)`` encoding coefficient
vectors in base ``p``, low-degree digit first (so the prime subfield is
``0..p-1`` verbatim).  A :class:`FieldCtx` owns the modulus and lookup
tables; every element operation is a pure function of ints, which keeps
the exhaustive-enumeration and sampling loops fast.

Fields up to 2**16 get discrete log/exp tables and the table ``frob``
of the p-th power map, and those of order up to 256 also get full
addition/multiplication tables (the products read off the log tables);
anything larger multiplies directly in F_p[t]/(modulus) (still exact,
just slower).  Products in F_p[t] and their reduction by the modulus run
on ``poly``'s coefficient-list kernels over the prime field, for the raw
tier and for the powers of the generator that fill the log tables.

Each tier binds one row kernel ``axpy(dst, off, c, src)`` that adds
c * src[j] to dst[off + j] in place, table lookups hoisted (the full
tables add by one ``add_rows`` read for every p; a prime field past them
adds c * s mod p directly); the row operations of ``matrix`` and
polynomial sums run through it.
``matrix.charpoly`` and the three coefficient-list kernels of ``poly``
(products, division with remainder, the p-th power) read the full tables
(``mul_rows``, ``add_rows``, ``neg_table``, ``inv_table``, ``frob``)
directly when a field has them, each choosing inside itself; their
generic code, through the methods and ``axpy``, is the only path above
order 256 and the reference the tests hold the table path to.

Every size built, enumerated or sampled is a power q**e: field orders
p^k (at most 2**20), matrices q^(d^2), candidates q^m, n samples, d^3
field operations per sample.  :func:`fits` decides q**e <= cap, in the
exponent when q**e is far past it, and :func:`admit` is its raising form.

A field is named one way: "q" or "p^k", then an optional "/modulus-int"
(:func:`parse_field_descriptor`).  :func:`prime_power` splits q into
(p, k) without trial division, after :func:`field_of_order` checks q's size.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    NonPrimeCharacteristic,
    NotASubfield,
    ParseError,
    ReducibleModulus,
)
from .intervals import int_nth_root

_FULL_TABLE_MAX = 256
_LOG_TABLE_MAX = 1 << 16
FIELD_SIZE_LIMIT = 1 << 20

_DEFAULT_BUDGET = 1 << 24


def enumeration_budget(budget=None, limit=None):
    """The enumeration cap: ``budget``, else 2**24; at most ``limit``."""
    budget = _DEFAULT_BUDGET if budget is None else int(budget)
    return budget if limit is None else min(budget, limit)


def fits(q, e, budget=None, limit=None):
    """q**e <= enumeration_budget(budget, limit) for q, e >= 0, never computing a
    q**e of more bits than the cap, as q**e >= 2**(e * (bit_length(q) - 1))."""
    cap = enumeration_budget(budget, limit)
    return e * (q.bit_length() - 1) < cap.bit_length() and q ** e <= cap


def admit(q, e, what, budget=None, limit=None):
    """q**e when :func:`fits` admits it, else BudgetExceeded naming the size as q^e."""
    if not fits(q, e, budget, limit):
        size = q if e == 1 else f"{q}^{e}"
        raise BudgetExceeded(f"{size} {what} exceed the cap {enumeration_budget(budget, limit)}")
    return q ** e


def power(x, e, mul, one):
    """x**e by left-to-right square-and-multiply; ``one`` is x**0.

    ``mul`` is the product of the structure x lives in: field elements,
    polynomials, matrices or residues modulo a polynomial.  A negative e
    raises ValueError for all of them.
    """
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if e == 0:
        return one
    out = x
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


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


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin for 2 <= n < PRIME_TEST_BOUND."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a^(d*2^j) for j < s must reach -1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# prime_power takes one Newton root per k < bit_length(q): on a 2-core x86
# host a q of 2^11 bits takes 0.18 s and one of 2^12 bits 1.6 s.
PRIME_POWER_MAX_BITS = 1 << 11


def prime_power(q):
    """(p, k) when q = p^k (k >= 1) for a prime p < PRIME_TEST_BOUND, else None.

    Never trial-divides: q = r^k with the largest k <= log2 q that has an
    exact integer k-th root r, so r is not itself a power, and q is a
    prime power exactly when r is prime.  r is tested by Miller-Rabin,
    which is exact only below the bound, so a larger r gives None, as
    does a q of more than PRIME_POWER_MAX_BITS bits, before any root.
    """
    if q < 2 or q.bit_length() > PRIME_POWER_MAX_BITS:
        return None
    for k in range(q.bit_length() - 1, 0, -1):
        r = int_nth_root(q, k)
        if r ** k == q:
            return (r, k) if r < PRIME_TEST_BOUND and _is_prime(r) else None
    return None


def _is_irreducible_over_prime_field(coeffs, p):
    """Whether a monic polynomial (coefficients low degree first) is irreducible over F_p."""
    from . import poly  # poly imports gf at module level

    return poly.is_irreducible(poly.Poly(field_create(p, 1), tuple(c % p for c in coeffs)))


@functools.cache
def canonical_modulus(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Coefficient vectors are compared low-degree first, so the scan order
    is independent of any integer encoding.
    """
    if k == 1:
        return (0, 1)  # t itself: F_p[t]/(t) = F_p
    # Constant term first in scan order; it starts at 1 because every
    # candidate with constant term 0 is divisible by t.
    for tail in itertools.product(range(1, p), *(range(p),) * (k - 1)):
        cand = tail + (1,)
        if _is_irreducible_over_prime_field(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------


class FieldCtx:
    """A finite field F_{p^k} with a fixed monic irreducible modulus.

    Immutable after construction; safe to share across workers.  Use
    :func:`field_create` rather than calling this directly, so that one
    context serves each field: caches key on its identity.  On the table
    tiers (order <= 2**16) ``frob[c]`` is c**p, the identity on a prime
    field; on the raw tier ``frob`` is None.
    """

    __slots__ = (
        "p", "k", "order", "modulus",
        "add_rows", "mul_rows", "neg_table", "inv_table", "frob",
        "_exp", "_log", "axpy", "_prime_field",
    )

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = tuple(int(c) % p for c in modulus)
        self.add_rows = None
        self.mul_rows = None
        self.neg_table = None
        self.inv_table = None
        self.frob = None
        self._exp = None
        self._log = None
        self._prime_field = None if k == 1 else field_create(p, 1)
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
        """a * b without tables: for k >= 2 the digit lists' product in
        F_p[t], reduced by the modulus, both through ``poly``'s list kernels."""
        if self.k == 1:
            return (a * b) % self.p
        from . import poly  # poly imports gf at module level

        F = self._prime_field
        prod = poly._mul_lists(F, self.digits(a), poly._trim(self.digits(b)))
        return self.from_digits(poly._divmod_lists(F, prod, self.modulus)[1])

    def _raw_add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        da = self.digits(a)
        db = self.digits(b)
        return self.from_digits(tuple((x + y) % p for x, y in zip(da, db)))

    # -- table construction --------------------------------------------------

    def _find_generator(self):
        n = self.order - 1
        primes = factor_int(n)
        for g in range(1, self.order):
            if all(power(g, n // ell, self._raw_mul, 1) != 1 for ell in primes):
                return g
        raise AssertionError("multiplicative group has a generator")

    def _build_tables(self):
        q = self.order
        if q > _LOG_TABLE_MAX:
            return
        g = self._find_generator()
        n = q - 1
        p = self.p
        if self.k == 1:
            exp = list(itertools.accumulate(itertools.repeat(g, n - 1), self._raw_mul, initial=1))
        else:
            # g^i stays a digit list: one product by g's digits and one
            # reduction by the modulus per power.
            from . import poly

            F, m = self._prime_field, self.modulus
            powers = itertools.accumulate(
                itertools.repeat(poly._trim(self.digits(g)), n - 1),
                lambda acc, dg: poly._divmod_lists(F, poly._mul_lists(F, dg, acc), m)[1],
                initial=[1])
            exp = [self.from_digits(acc) for acc in powers]
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        self._exp = exp
        self._log = log
        self.frob = [0] + [exp[la * p % n] for la in log[1:]]
        if q <= _FULL_TABLE_MAX:
            # Products and inverses are read off exp/log.  Sums are
            # digit-wise mod p: each pass prepends one low digit to the
            # table so far.
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
        elif self.k == 1:
            p = self.p
            def axpy(dst, off, c, src):
                for j, s in enumerate(src, off):
                    dst[j] = (dst[j] + c * s) % p
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
        return self.pow_elt(a, self.order - 2)

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
        return power(a, e, self.mul, 1)

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


# one context per (p, k, modulus): caches key on its identity
_field = functools.cache(FieldCtx)


def field_order(p, k):
    """p**k after checking p >= 2, k >= 1 and the size bound, without factoring p."""
    if p < 2:
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {k}")
    if not fits(p, k, FIELD_SIZE_LIMIT):
        raise BudgetExceeded(f"field order {p}^{k} exceeds the supported size {FIELD_SIZE_LIMIT}")
    return p ** k


def field_of_order(q, modulus=None):
    """The field F_q of a prime power q, with the modulus of :func:`field_create`.

    The size bound is checked first, as in :func:`field_order`, so an
    oversized q is refused before it is tested.
    """
    field_order(q, 1)
    pk = prime_power(q)
    if pk is None:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return field_create(*pk, modulus)


def field_create(p, k=1, modulus=None):
    """Create (or fetch from cache) the field F_{p^k}.

    When ``modulus`` is omitted the canonical one is used: the
    lexicographically smallest monic irreducible of degree k over F_p,
    coefficients compared low-degree first.  An explicit modulus may be
    a coefficient sequence (low degree first, length k+1) or its integer
    encoding, which is nonnegative.
    """
    p = int(p)
    k = int(k)
    field_order(p, k)
    if prime_power(p) != (p, 1):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if modulus is None:
        mod = canonical_modulus(p, k)
    else:
        if isinstance(modulus, int):
            if modulus < 0:
                raise ParseError(f"modulus integer {modulus} is negative")
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
    return _field(p, k, mod)


def describe_field(ctx):
    """Canonical text descriptor, parseable by :func:`parse_field_descriptor`."""
    if ctx.k == 1:
        return str(ctx.p)
    return f"{ctx.p}^{ctx.k}/{ctx.from_digits(ctx.modulus)}"


def parse_field_descriptor(text):
    """Parse an order "q" or "p^k", with an optional "/modulus-int", into a FieldCtx.

    "q" goes through :func:`field_of_order`, so "4/7" is "2^2/7".
    """
    order_s, slash, mod_s = text.strip().partition("/")
    try:
        mod = int(mod_s) if slash else None
    except ValueError:
        raise ParseError(f"bad modulus integer {mod_s!r}", position=text.find("/") + 1)
    p_s, caret, k_s = order_s.partition("^")
    try:
        p, k = int(p_s), int(k_s) if caret else None
    except ValueError:
        raise ParseError(f"bad field descriptor {text!r}", position=0)
    return field_of_order(p, mod) if k is None else field_create(p, k, mod)


# ---------------------------------------------------------------------------
# Subfield embeddings
# ---------------------------------------------------------------------------

@functools.cache
def subfield_embedding(sub, ext):
    """Embedding table F_sub -> F_ext (tuple indexed by sub elements).

    The embedding sends the generator of ``sub`` to the lexicographically
    smallest root of sub's modulus in ``ext`` (coefficient vectors of
    candidate roots compared low-degree first), which pins a single
    canonical map per tower.  The roots are read off the linear factors
    of the modulus over ``ext``, all sub.k of them since sub.k | ext.k.
    """
    from . import poly  # poly imports gf at module level

    if sub.p != ext.p:
        raise NotASubfield("different characteristics")
    if ext.k % sub.k != 0:
        raise NotASubfield(f"F_{sub.order} does not embed in F_{ext.order}")
    if sub.k == 1:
        return tuple(range(sub.p))
    # coefficients < p are valid in ext too; each factor is monic t - root
    factors = poly.factorize(poly.Poly(ext, sub.modulus))
    rho = min((ext.neg(f.coeffs[0]) for f, _ in factors), key=ext.digits)
    return tuple(poly.Poly(ext, sub.digits(x)).evaluate(rho) for x in sub.elements())
