"""Counting nilpotent-independent families by brute force and by formula.

A nilpotent-independent (NI) family is a conjugation-closed subset of
M(d, q) whose membership depends only on the invertible part of each
matrix.  For such a family N and the standard flag V_i = <e_1..e_i>,
write N_i for the invertible i x i matrices Y with Y + 0_{d-i} in N and
N(i) for the members whose invertible part has dimension i.  The flag
sum identity states, with omega(j, q) = prod_{k<=j} (1 - q^-k),

    |N| / |GL(d,q)| = sum_i  q^-(d-i) / omega(d-i, q) * |N_i| / |GL(i,q)|

and the per-dimension count identity reads
|N(i)| = qbinom(d, i) * q^((d-i)(d-1)) * |N_i|.  ``census_exact``
computes every quantity by exhaustive enumeration and asserts both
identities as exact rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import embed, gf, matrix, poly
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NIViolation,
    NonPositiveConstants,
    ParseError,
)
from .matrix import Mat
from .poly import Poly


def omega(j, q):
    """prod_{k=1}^{j} (1 - q^-k); equals |GL(j,q)| / |M(j,q)| for j >= 1."""
    if j < 0:
        raise IndexOutOfRange("omega needs j >= 0")
    out = Fraction(1)
    for k in range(1, j + 1):
        out *= 1 - Fraction(1, q ** k)
    return out


def gaussian_binomial(d, i, q):
    """Number of i-dimensional subspaces of F_q^d (exact integer)."""
    if not 0 <= i <= d:
        raise IndexOutOfRange(f"need 0 <= i <= d, got i={i}, d={d}")
    # Pascal-style recurrence keeps everything in integers
    prev = [1]
    for n in range(1, d + 1):
        cur = [1] * (n + 1)
        for k in range(1, n):
            cur[k] = prev[k - 1] + q ** k * prev[k]
        prev = cur
    return prev[i]


# ---------------------------------------------------------------------------
# NI family specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NISubsetSpec:
    """A named membership predicate on matrices.

    ``member`` must depend only on the invertible part and be invariant
    under conjugation (that is what ``ni_verify`` audits).
    ``contains_nilpotents`` may be None, in which case it is derived
    from member(0).
    """

    name: str
    member: callable
    contains_nilpotents: bool = None


def _member_all(X):
    return True


def _member_invertible(X):
    return matrix.is_invertible(X)


def _member_not_nilpotent(X):
    return not matrix.is_nilpotent(X)


def _member_pc_some_f(X):
    """Primary cyclic for some monic irreducible f != t."""
    cp = matrix.charpoly(X)
    fac = poly.factorize(cp)
    mp = None
    for f, mult in fac.factors:
        if f.coeffs == (0, 1):
            continue
        if mp is None:
            mp = matrix.minpoly(X)
        if poly.multiplicity_in(f, mp) == mult:
            return True
    return False


def _member_separable(X):
    return poly.is_squarefree(matrix.charpoly(X))


def _member_unipotent(X):
    t_minus_1 = Poly.make(X.ctx, (X.ctx.neg(1), 1))
    return matrix.charpoly(X) == t_minus_1 ** X.n


def _make_member_eigenvalue(alpha):
    def member(X):
        return matrix.charpoly(X).evaluate(alpha % X.ctx.order) == 0
    return member


def _make_member_pc_large_degree(b):
    if b < 1:
        raise ParseError(f"pc-large-degree needs an extension degree b >= 1, got {b}")

    def member(X):
        tower = embed.tower_for(X.ctx, b)
        return embed.pc_member_charpoly(X, tower)
    return member


_SPEC_PATTERN = re.compile(r"^([a-z0-9-]+)(?:\(([-0-9]+)\))?$")

_PLAIN_SPECS = {
    "all": lambda: NISubsetSpec("all", _member_all, contains_nilpotents=True),
    "invertible": lambda: NISubsetSpec(
        "invertible", _member_invertible, contains_nilpotents=False),
    "nilpotent-complement": lambda: NISubsetSpec(
        "nilpotent-complement", _member_not_nilpotent, contains_nilpotents=False),
    "primary-cyclic-some-f-not-t": lambda: NISubsetSpec(
        "primary-cyclic-some-f-not-t", _member_pc_some_f,
        contains_nilpotents=False),
    "separable": lambda: NISubsetSpec("separable", _member_separable),
    "unipotent": lambda: NISubsetSpec(
        "unipotent", _member_unipotent, contains_nilpotents=False),
}

_PARAMETRIC_SPECS = {
    "has-eigenvalue": lambda arg: NISubsetSpec(
        f"has-eigenvalue({arg})", _make_member_eigenvalue(arg)),
    "pc-large-degree": lambda arg: NISubsetSpec(
        f"pc-large-degree({arg})", _make_member_pc_large_degree(arg),
        contains_nilpotents=False),
}


def list_specs():
    names = sorted(_PLAIN_SPECS)
    names += [f"{n}(...)" for n in sorted(_PARAMETRIC_SPECS)]
    return names


def get_spec(name):
    """Look up a built-in spec, e.g. "all" or "pc-large-degree(2)"."""
    m = _SPEC_PATTERN.match(name.strip())
    if m:
        base, arg = m.group(1), m.group(2)
        if arg is None and base in _PLAIN_SPECS:
            return _PLAIN_SPECS[base]()
        if arg is not None and base in _PARAMETRIC_SPECS:
            return _PARAMETRIC_SPECS[base](int(arg))
    raise ParseError(f"unknown spec {name!r}; known: {', '.join(list_specs())}")


# ---------------------------------------------------------------------------
# Exhaustive census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerDimension:
    i: int
    n_i: int            # |N_i|
    gl_i: int           # |GL(i, q)|
    n_of_i: int         # |N(i)|


@dataclass(frozen=True)
class FlagCensus:
    spec_name: str
    d: int
    q: int
    n_total: int                     # |N|
    per_i: tuple                     # PerDimension for i = 0..d
    lhs: Fraction                    # |N| / |GL(d, q)|
    rhs: Fraction                    # flag-sum formula from the N_i

    @property
    def proportion_in_m(self):
        """|N| / |M(d, q)|."""
        return self.lhs * omega(self.d, self.q)


def _nilpotent_canonical(M, split=None):
    """X_inv + 0 on the nilpotent part, in the Fitting basis."""
    if split is None:
        split = matrix.fitting_decompose(M)
    return matrix.direct_sum(split.x_inv, Mat.zero(M.ctx, split.nil_dim))


def census_exact(spec, d, ctx, budget=None, check_ni=True):
    """Count the family exhaustively and assert the flag-sum identity.

    Enumerates all of M(d, q) for |N| and the per-dimension |N(i)|, and
    GL(i, q) for each |N_i| against the standard flag.  Raises
    NIViolation (with a witness) if the predicate is found to depend on
    the nilpotent part, or if either exact identity fails.
    """
    q = ctx.order
    cap = gf.enumeration_budget(budget)
    if q ** (d * d) > cap:
        raise BudgetExceeded(f"census over M({d},{q}) needs {q ** (d*d)} matrices, budget {cap}")
    member = spec.member

    n_total = 0
    n_of_i = [0] * (d + 1)
    for X in matrix.all_matrices(d, ctx, budget=budget):
        if member(X):
            split = matrix.fitting_decompose(X)
            if check_ni and not member(_nilpotent_canonical(X, split)):
                raise NIViolation(
                    f"spec {spec.name!r}: member(X) but not member(X_inv + 0)",
                    witness=X)
            n_total += 1
            n_of_i[split.inv_dim] += 1
        elif check_ni:
            split = matrix.fitting_decompose(X)
            if member(_nilpotent_canonical(X, split)):
                raise NIViolation(
                    f"spec {spec.name!r}: member(X_inv + 0) but not member(X)",
                    witness=X)

    per = []
    for i in range(d + 1):
        gl_i = matrix.gl_order(i, q)
        if i == 0:
            n_i = 1 if member(Mat.zero(ctx, d)) else 0
        else:
            pad = Mat.zero(ctx, d - i)
            n_i = 0
            for Y in matrix.all_invertible(i, ctx, budget=budget):
                if member(matrix.direct_sum(Y, pad)):
                    n_i += 1
        per.append(PerDimension(i=i, n_i=n_i, gl_i=gl_i, n_of_i=n_of_i[i]))

    if spec.contains_nilpotents is not None:
        if per[0].n_i != (1 if spec.contains_nilpotents else 0):
            raise NIViolation(
                f"spec {spec.name!r}: contains_nilpotents flag disagrees with member(0)",
                witness=Mat.zero(ctx, d))

    lhs = Fraction(n_total, matrix.gl_order(d, q))
    rhs = Fraction(0)
    for p in per:
        rhs += (Fraction(1, q ** (d - p.i)) / omega(d - p.i, q)) * Fraction(p.n_i, p.gl_i)

    if sum(n_of_i) != n_total:  # pragma: no cover - partition by construction
        raise NIViolation(f"spec {spec.name!r}: N(i) do not partition N")
    for p in per:
        expected = gaussian_binomial(d, p.i, q) * q ** ((d - p.i) * (d - 1)) * p.n_i
        if p.n_of_i != expected:
            raise NIViolation(
                f"spec {spec.name!r}: |N({p.i})| = {p.n_of_i} != "
                f"qbinom*q^((d-i)(d-1))*|N_{p.i}| = {expected}")
    if lhs != rhs:
        raise NIViolation(f"spec {spec.name!r}: flag sum {rhs} != brute force {lhs}")

    return FlagCensus(spec_name=spec.name, d=d, q=q, n_total=n_total,
                      per_i=tuple(per), lhs=lhs, rhs=rhs)


def n_i_under_conjugated_flag(spec, d, ctx, g, budget=None):
    """|N_i| recomputed for the flag spanned by the leading rows of g.

    Identifying GL(V_i') with GL(i, q) through g's rows, membership of Y
    in the alternate family asks whether g^-1 (Y + 0) g lies in N.  For a
    genuine NI family the cardinalities match the standard-flag ones.
    """
    q = ctx.order
    g_inv = matrix.inverse(g)
    member = spec.member
    out = []
    for i in range(d + 1):
        if i == 0:
            out.append(1 if member(Mat.zero(ctx, d)) else 0)
            continue
        pad = Mat.zero(ctx, d - i)
        count = 0
        for Y in matrix.all_invertible(i, ctx, budget=budget):
            X = g_inv * matrix.direct_sum(Y, pad) * g
            if member(X):
                count += 1
        out.append(count)
    return tuple(out)


# ---------------------------------------------------------------------------
# Closed-form sum identities and transfer bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollarySums:
    """Both telescoping sums: the full one and the 0-term-truncated one."""

    d: int
    q: int
    lhs_full: Fraction       # sum_{i=0}^{d} q^-(d-i) / omega(d-i, q)
    rhs_full: Fraction       # 1 / omega(d, q)
    lhs_truncated: Fraction  # same sum over i >= 1
    rhs_truncated: Fraction  # (1 - q^-d) / omega(d, q)

    @property
    def holds(self):
        return self.lhs_full == self.rhs_full and self.lhs_truncated == self.rhs_truncated


def corollary_sum_check(d, q):
    full = Fraction(0)
    trunc = Fraction(0)
    for i in range(d + 1):
        term = Fraction(1, q ** (d - i)) / omega(d - i, q)
        full += term
        if i >= 1:
            trunc += term
    return CorollarySums(
        d=d, q=q,
        lhs_full=full,
        rhs_full=1 / omega(d, q),
        lhs_truncated=trunc,
        rhs_truncated=(1 - Fraction(1, q ** d)) / omega(d, q),
    )


def _check_constants(a, k):
    a, k = Fraction(a), Fraction(k)
    if a <= 0 or k <= 0:
        raise NonPositiveConstants(f"need a, k > 0, got a={a}, k={k}")
    return a, k


def transfer_bound_exp(a, k, d, q):
    """Lower bound a - (a+k) d q^-d for families with |N_i|/|GL_i| >= a - k q^-i."""
    a, k = _check_constants(a, k)
    return a - (a + k) * d * Fraction(1, q ** d)


@dataclass(frozen=True)
class LinearTransferBound:
    tight: Fraction    # (a - 3k/d)(1 - q^-d)
    relaxed: Fraction  # a - (a + 3k)/d


def transfer_bound_linear(a, k, d, q):
    """Lower bounds for families with |N_i|/|GL_i| >= a - k/i."""
    a, k = _check_constants(a, k)
    tight = (a - 3 * k / d) * (1 - Fraction(1, q ** d))
    relaxed = a - (a + 3 * k) / d
    return LinearTransferBound(tight=tight, relaxed=relaxed)


def power_sum_bound_check(d, q):
    """The helper inequality d * sum_{i<=d} q^i / i < 3 q^d; returns (lhs, rhs)."""
    lhs = d * sum(Fraction(q ** i, i) for i in range(1, d + 1))
    return lhs, Fraction(3 * q ** d)


def fit_linear_k(per_i, a):
    """Smallest k > 0 with |N_i|/|GL_i| >= a - k/i for all i >= 1 (from census data)."""
    a = Fraction(a)
    worst = Fraction(0)
    for p in per_i:
        if p.i == 0:
            continue
        deficit = (a - Fraction(p.n_i, p.gl_i)) * p.i
        if deficit > worst:
            worst = deficit
    return worst


# ---------------------------------------------------------------------------
# NI property audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NIAuditReport:
    spec_name: str
    d: int
    q: int
    exhaustive: bool
    matrices_checked: int
    conjugations_checked: int
    violations: tuple  # of (kind, witness Mat, conjugator Mat or None)

    @property
    def ok(self):
        return not self.violations


# ni_verify's sample count and seed past the exhaustive range, and its stopping point.
AUDIT_TRIALS = 2000
AUDIT_SEED = 0
AUDIT_MAX_VIOLATIONS = 5


def ni_verify(spec, d, ctx, budget=None):
    """Audit both NI conditions, exhaustively when the budget allows.

    Condition (i): membership is conjugation invariant.  Condition (ii):
    membership of X equals membership of X_inv + 0.  Violations are
    collected with witnesses rather than raised, so deliberately broken
    predicates can be inspected.
    """
    from . import estimate  # local import: estimate builds on census for specs

    q = ctx.order
    total = q ** (d * d)
    cap = gf.enumeration_budget(budget)
    exhaustive = total <= min(cap, max(AUDIT_TRIALS, 4096))
    member = spec.member

    if exhaustive:
        mats = matrix.all_matrices(d, ctx, budget=budget)
        n_mats = total
    else:
        mats = (estimate.sample_matrix(d, ctx, AUDIT_SEED, j) for j in range(AUDIT_TRIALS))
        n_mats = AUDIT_TRIALS

    gl_small = matrix.gl_order(d, q) <= 512
    conjugators = tuple(matrix.all_invertible(d, ctx)) if gl_small else None

    violations = []
    conj_count = 0
    for j, X in enumerate(mats):
        m_x = member(X)
        if m_x != member(_nilpotent_canonical(X)):
            violations.append(("nilpotent-part-dependence", X, None))
        gs = conjugators if conjugators is not None else (
            estimate.sample_gl(d, ctx, AUDIT_SEED ^ 0x9E3779B9, j * 3 + t) for t in range(3))
        for g in gs:
            conj_count += 1
            if member(matrix.conjugate(X, g)) != m_x:
                violations.append(("conjugation-dependence", X, g))
                break
        if len(violations) >= AUDIT_MAX_VIOLATIONS:
            break

    return NIAuditReport(spec_name=spec.name, d=d, q=q, exhaustive=exhaustive,
                         matrices_checked=n_mats, conjugations_checked=conj_count,
                         violations=tuple(violations))
