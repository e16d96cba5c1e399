"""The blow-up M(c, q^b) -> M(bc, q) and large-degree primary cyclicity.

A TowerCtx fixes K = F_{q^b} over F = F_q together with the power basis
(1, g, ..., g^{b-1}) of the canonical generator g of K, so the regular
representation of K is companion-matrix substitution.  Blowing a matrix
up replaces each entry by its regular representation; this is an
injective F-algebra homomorphism.  ``tower_for`` is the one constructor.
Coordinates need no table of K: (c_0, ..., c_{b-1}) -> sum c_j g^j is
F_p-linear and bijective in the base-p digits of the c_j, so one k x k
inverse over F_p, built on the first coordinate asked for, reads them
off the digits of an element of K.  The charpoly route never builds it.

Membership in the large-degree primary cyclic family asks for a monic
irreducible f != t over F, of degree b*r with r greater than half the
K-dimension of the invertible part, such that the blown-up matrix is
f-primary cyclic.  ``pc_membership`` evaluates that definition directly
on the blow-up and returns witnesses; ``pc_member_charpoly`` is the fast
equivalent route that only reads the charpoly over K (factor of degree
r > inv_dim/2, not t, with a full Galois orbit).  Such a factor has
multiplicity 1 and is what remains of the charpoly once its factors of
degree <= inv_dim/2 are divided out, which ``poly.large_factor`` does
with one gcd, so the fast route needs no factorization.
The two routes are cross-checked by exhaustive and sampled tests.
``proposition_check`` checks the blow-up characterisation of f-primary
cyclicity for every monic irreducible f dividing the blow-up charpoly.
"""

from __future__ import annotations

import functools
import itertools

from . import gf, matrix, poly
from .errors import FieldMismatch, NonPrimeCharacteristic, NotASubfield, ParseError
from .matrix import Mat
from .poly import Poly
from .values import Frozen, record


# Regular representations kept, the least recently used evicted first.  One
# verify-exact pass holds 9 in three towers.  At the bound, 2^16 over 2^8
# holds about 1.9 MB (tracemalloc); all of 2^20 over 2^10 would be 350 MB.
_REP_CACHE_MAX = 1 << 12


class TowerCtx:
    """K = F_{q^b} viewed as a b-dimensional F_q-algebra with power basis ``basis``.

    Compared and hashed by identity, like ``FieldCtx``: ``tower_for``
    builds one per (ext, b), and ``regular_rep`` is memoized by it.
    """

    def __init__(self, ext, b, base, basis):
        vars(self).update(ext=ext, b=b, base=base, basis=basis)

    __setattr__ = __delattr__ = Frozen.__setattr__

    def __repr__(self):
        return f"TowerCtx(ext={self.ext!r}, b={self.b!r}, base={self.base!r}, basis={self.basis!r})"

    @property
    def q(self):
        return self.base.order

    @functools.cached_property
    def _uncoord(self):
        """Inverse over F_p of the map from the digits of (c_0, ..., c_{b-1}) to
        those of sum emb(c_j) basis[j]: row j*m + i is emb(t^i) basis[j]."""
        ext, m = self.ext, self.base.k
        emb = gf.subfield_embedding(self.base, ext)
        rows = tuple(ext.digits(ext.mul(emb[ext.p ** i], e)) for e in self.basis for i in range(m))
        return matrix.inverse(Mat(gf.field_create(ext.p), ext.k, rows))

    def coords(self, alpha):
        """Coordinates of an extension element in the power basis (row tuple)."""
        x = self._uncoord.apply_to_row(self.ext.digits(alpha))
        m = self.base.k
        return tuple(self.base.from_digits(x[i:i + m]) for i in range(0, self.ext.k, m))


@functools.cache
def tower_for(ext, b):
    """Tower of ext over its canonical index-b subfield."""
    if b < 1 or ext.k % b != 0:
        raise NotASubfield(f"F_{ext.order} has no index-{b} subfield")
    # the class of t generates ext over any subfield
    basis = tuple(itertools.accumulate(itertools.repeat(ext.p, b - 1), ext.mul, initial=1))
    return TowerCtx(ext=ext, b=b, base=gf.field_create(ext.p, ext.k // b), basis=basis)


def parse_tower(text):
    """Parse a tower descriptor "ext/base" of two field orders, e.g. "4/2" or "2^2/2".

    Each order is read by ``gf.parse_field_descriptor``, so it is "q" or "p^k".
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise ParseError(f"tower descriptor {text!r} needs the form ext/base", position=0)
    try:
        ext, base = map(gf.parse_field_descriptor, parts)
    except NonPrimeCharacteristic:
        raise ParseError(f"tower orders must be prime powers: {text!r}", position=0) from None
    if ext.p != base.p or ext.k % base.k != 0:
        raise ParseError(f"{base.order} is not a subfield order of {ext.order}", position=0)
    return tower_for(ext, ext.k // base.k)


# ---------------------------------------------------------------------------
# Regular representation and blow-up
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=_REP_CACHE_MAX)
def regular_rep(alpha, tower):
    """b x b matrix over F_q of multiplication by alpha, in the power basis.

    Row m holds the coordinates of basis[m] * alpha, so row vectors of
    coordinates multiply on the right, matching the matrix convention.
    Memoized in an LRU of ``_REP_CACHE_MAX`` matrices over all towers.
    """
    ext = tower.ext
    rows = tuple(tower.coords(ext.mul(e, alpha)) for e in tower.basis)
    return Mat(tower.base, tower.b, rows)


def blow_up(X, tower):
    """Entrywise regular representation: M(c, q^b) -> M(bc, q)."""
    if X.ctx is not tower.ext:
        raise FieldMismatch("matrix is not over the tower's extension field")
    b = tower.b
    c = X.n
    reps = [[regular_rep(e, tower) for e in row] for row in X.rows]
    rows = []
    for i in range(c):
        for m in range(b):
            row = []
            for j in range(c):
                row.extend(reps[i][j].rows[m])
            rows.append(tuple(row))
    return Mat(tower.base, b * c, tuple(rows))


# ---------------------------------------------------------------------------
# Large-degree primary cyclic membership
# ---------------------------------------------------------------------------


class PCMembership(record("PCMembership", "member witness_f witness_g r inv_dim",
                          defaults=(None, None, None, None))):
    """Outcome of the large-degree primary cyclic test.

    When ``member`` is true, ``witness_f`` is the unique qualifying monic
    irreducible over F_q (degree b*r, r > inv_dim/2), and ``witness_g``
    the unique Galois representative dividing the charpoly over K.
    """

    __slots__ = ()


def _t_multiplicity(coeffs):
    v = 0
    for c in coeffs:
        if c:
            break
        v += 1
    return v


def pc_membership(X, tower):
    """Direct evaluation on the blow-up.

    Looks for a monic irreducible f != t with deg f = b*r, r > inv_dim/2,
    for which the bc x bc blow-up is f-primary cyclic.  At most one f can
    qualify: two distinct candidates would overshoot the invertible
    part's dimension.
    """
    if X.ctx is not tower.ext:
        raise FieldMismatch("matrix is not over the tower's extension field")
    b = tower.b
    cp_ext = matrix.charpoly(X)
    inv_dim = X.n - _t_multiplicity(cp_ext.coeffs)
    if inv_dim == 0:
        return PCMembership(member=False, inv_dim=0)
    for f, _, cyclic in matrix.primary_factors(blow_up(X, tower)):
        r = f.degree // b
        if cyclic and f.degree == b * r and 2 * r > inv_dim and f.coeffs != (0, 1):
            g = _galois_representative(f, cp_ext, tower, r)
            return PCMembership(member=True, witness_f=f, witness_g=g,
                                r=r, inv_dim=inv_dim)
    return PCMembership(member=False, inv_dim=inv_dim)


def _galois_representative(f, cp_ext, tower, r):
    """The unique degree-r factor of f over K that divides the charpoly over K."""
    f_ext = poly.embed_into_extension(f, tower.ext)
    for g, _ in poly.factorize(f_ext):
        if g.degree == r and g.divides(cp_ext):
            return g
    return None


def pc_member_charpoly(X, tower):
    """Fast membership: read everything off the charpoly over K.

    Membership only depends on the charpoly of X over K: stripping the
    t-part leaves a polynomial of degree inv_dim, and X is a member when
    it has an irreducible factor g of degree r > inv_dim/2 whose Galois
    orbit over F_q has full length b (so its norm is irreducible of
    degree b*r over F_q).  Such a g has multiplicity 1, and the list
    kernel of ``poly.large_factor`` finds it without factoring, on the
    stripped charpoly's coefficient tuple; the orbit test reads the
    conjugates of g off the field's ``frob`` table.
    """
    if X.ctx is not tower.ext:
        raise FieldMismatch("matrix is not over the tower's extension field")
    coeffs = matrix.charpoly(X).coeffs
    g = poly._large_factor_lists(tower.ext, coeffs[_t_multiplicity(coeffs):])
    return g is not None and poly.galois_orbit_length(Poly(tower.ext, g), tower.q) == tower.b


# ---------------------------------------------------------------------------
# Cross-check of the blow-up characterization
# ---------------------------------------------------------------------------


class PropositionReport(record("PropositionReport", "direct via_conditions f witness_g")):
    """Agreement record for one (X, f) instance.

    ``direct`` tests f-primary cyclicity on the blow-up; ``via_conditions``
    asks for a degree deg(f)/b divisor g of f over K with X g-primary
    cyclic whose nontrivial conjugates differ from g and do not divide
    the charpoly of X over K.  The two must agree (with the divisibility
    condition vacuously false when b does not divide deg f).
    """

    __slots__ = ()

    @property
    def agree(self):
        return self.direct == self.via_conditions


def proposition_check(X, tower):
    """One PropositionReport per monic irreducible divisor f of the blow-up
    charpoly, canonically ordered, from one analysis of X and its blow-up
    (which raises FieldMismatch when X is not over K)."""
    Y = blow_up(X, tower)
    pc_ext = {g: cyclic for g, _, cyclic in matrix.primary_factors(X)}
    reports = []
    for f, _, cyclic in matrix.primary_factors(Y):
        g = _conditions_witness(f, tower, pc_ext)
        reports.append(PropositionReport(direct=cyclic, via_conditions=g is not None,
                                         f=f, witness_g=g))
    return tuple(reports)


def _conditions_witness(f, tower, pc_ext):
    """The first factor g of f over K meeting the conditions of
    ``PropositionReport``, or None; always None when b does not divide deg f.

    ``pc_ext`` maps each monic irreducible factor of the charpoly over K to
    whether X is primary cyclic for it; a conjugate of g, monic and
    irreducible, divides that charpoly exactly when it is a key.
    """
    b = tower.b
    if f.degree % b:
        return None
    for g, _ in poly.factorize(poly.embed_into_extension(f, tower.ext)):
        if g.degree != f.degree // b or not pc_ext.get(g):
            continue
        conj = g
        for _ in range(b - 1):
            conj = poly.galois_conjugate(conj, tower.q)
            if conj == g or conj in pc_ext:
                break
        else:
            return g
    return None


def pc_counts_by_f(c, tower, r, budget=None):
    """Exhaustive per-polynomial counts over GL(c, q^b).

    Returns (counts, gl_size) where counts maps each f in Irr_{br}(q) to
    the number of invertible X whose blow-up is f-primary cyclic.  This
    is the brute-force oracle for the closed form b/(q^{br} - 1).
    """
    base = tower.base
    fs = poly.irr_enumerate(tower.b * r, base, budget=budget)
    counts = {f: 0 for f in fs}
    gl_size = 0
    for X in matrix.all_invertible(c, tower.ext, budget=budget):
        gl_size += 1
        for f, _, cyclic in matrix.primary_factors(blow_up(X, tower)):
            if cyclic and f in counts:
                counts[f] += 1
    return counts, gl_size

