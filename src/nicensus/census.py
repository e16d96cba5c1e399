"""Counting nilpotent-independent families by brute force and by formula.

A nilpotent-independent (NI) family is a conjugation-closed subset of
M(d, q) whose membership depends only on the invertible part of each
matrix.  For such a family N and the standard flag V_i = <e_1..e_i>,
write N_i for the invertible i x i matrices Y with Y + 0_{d-i} in N and
N(i) for the members whose invertible part has dimension i.  The flag
sum identity states, with omega(j, q) = |GL(j,q)| / q^(j^2),

    |N| / |GL(d,q)| = sum_i  q^-(d-i) / omega(d-i, q) * |N_i| / |GL(i,q)|

and the per-dimension count identity reads
|N(i)| = qbinom(d, i) * q^((d-i)(d-1)) * |N_i|, with qbinom(d, i) the
number of i-subspaces of F_q^d.  A registered family is a name, its
predicate and optionally a closed form.  ``census_exact_all`` computes
every quantity by exhaustive enumeration and asserts both identities as
exact rationals.  ``count_members`` is the one plain count of a family
over M(d, q), and ``ni_verify_all`` the one exhaustive audit of the NI
hypothesis.  Both refuse a q^(d^2) past the budget through ``gf.admit``,
in the exponent, before any table is allocated.

The census and the audit take a list of specs and make one pass over
M(d, q) for all of them: what does not depend on the spec (the canonical
form X_inv + 0, the inverted conjugators, each conjugation orbit) is
built once per call, and each spec keeps its own verdict table, counts
and findings.  The flag matrices Y + 0_{d-i}, Y in GL(i, q), are exactly
the fixed points of X -> X_inv + 0, so the census reads every |N_i| off
the same pass.  ``census_exact`` and ``ni_verify`` are the one-spec case.
"""

from __future__ import annotations

import itertools
import operator
import types
from fractions import Fraction

from . import embed, gf, matrix, poly
from .errors import (
    NIViolation,
    ParseError,
    RangeError,
)
from .matrix import Mat
from .values import record


def omega(j, q):
    """|GL(j, q)| / |M(j, q)|, which is prod_{k=1}^{j} (1 - q^-k)."""
    if j < 0:
        raise RangeError("omega needs j >= 0")
    return Fraction(matrix.gl_order(j, q), q ** (j * j))


def flag_sum(d, q, ratios):
    """sum_{i=0}^{d} q^-(d-i) / omega(d-i, q) * ratios[i], exactly.

    With ratios[i] = |N_i| / |GL(i, q)| this is the flag sum's right-hand
    side; omega(d, q) times the i-th weight is the share of M(d, q) whose
    invertible part has dimension i.
    """
    return sum((Fraction(1, q ** (d - i)) / omega(d - i, q) * r for i, r in enumerate(ratios)),
               Fraction(0))


def gaussian_binomial(d, i, q):
    """Number of i-subspaces of F_q^d: |GL(d, q)| over the order of one's stabiliser."""
    if not 0 <= i <= d:
        raise RangeError(f"need 0 <= i <= d, got i={i}, d={d}")
    stabiliser = matrix.gl_order(i, q) * matrix.gl_order(d - i, q) * q ** (i * (d - i))
    return matrix.gl_order(d, q) // stabiliser


# ---------------------------------------------------------------------------
# NI family specifications
# ---------------------------------------------------------------------------


class NISubsetSpec(record("NISubsetSpec", "name member closed_form", defaults=(None,))):
    """A named membership predicate on matrices.

    ``member`` must depend only on the invertible part and be invariant
    under conjugation (that is what ``ni_verify`` audits).  Only its
    truth value counts: ``census_exact``, ``count_members`` and
    ``ni_verify`` decide on bool(member(X)), so a predicate returning
    1/0 or any other truthy value describes the same family.  Whether
    the family holds the nilpotents is member(0), which the census counts
    as |N_0|.  ``closed_form``, when set, maps (d, ctx) to (exact
    proportion in M(d, q), theory bounds as (name, direction, RInterval)
    triples), or to None where the family has no closed form.
    """

    __slots__ = ()


def _member_all(X):
    return True


def _member_not_nilpotent(X):
    return not matrix.is_nilpotent(X)


def _member_pc_some_f(X):
    """Primary cyclic for some monic irreducible f != t."""
    return any(cyclic and f.coeffs != (0, 1) for f, _, cyclic in matrix.primary_factors(X))


def _member_separable(X):
    return poly.is_squarefree(matrix.charpoly(X))


def _member_unipotent(X):
    """Charpoly (t - 1)^n, that is every eigenvalue 1: X - I is nilpotent."""
    return matrix.is_nilpotent(X + Mat.scalar(X.ctx, X.n, X.ctx.neg(1)))


def _make_member_eigenvalue(alpha):
    def member(X):
        if not 0 <= alpha < X.ctx.order:
            raise ParseError(f"has-eigenvalue({alpha}): eigenvalue outside field of order "
                             f"{X.ctx.order}")
        return matrix.charpoly(X).evaluate(alpha) == 0
    return member


def _make_member_pc_large_degree(b):
    if b < 1:
        raise ParseError(f"pc-large-degree needs an extension degree b >= 1, got {b}")

    def member(X):
        tower = embed.tower_for(X.ctx, b)
        return embed.pc_member_charpoly(X, tower)
    return member


def _make_closed_form_pc_large_degree(b):
    def closed_form(d, ctx):
        """Theorem 1's assembly over the index-b subfield F_q of ctx = F_(q^b)."""
        if d < 2 or b < 2 or ctx.k % b:
            return None
        from . import quokka  # quokka builds on census for the flag sum

        q = ctx.p ** (ctx.k // b)
        return (quokka.thm_pc_m_exact(d, q, b),
                (("algebra-lower-bound", ">=", quokka.thm_pc_m_bound(d, q, b)),))
    return closed_form


_PLAIN_SPECS = {
    "all": _member_all,
    "invertible": matrix.is_invertible,
    "nilpotent-complement": _member_not_nilpotent,
    "primary-cyclic-some-f-not-t": _member_pc_some_f,
    "separable": _member_separable,
    "unipotent": _member_unipotent,
}

_PARAMETRIC_SPECS = {
    "has-eigenvalue": (_make_member_eigenvalue, None),
    "pc-large-degree": (_make_member_pc_large_degree, _make_closed_form_pc_large_degree),
}


def list_specs():
    names = sorted(_PLAIN_SPECS)
    names += [f"{n}(...)" for n in sorted(_PARAMETRIC_SPECS)]
    return names


def get_spec(name):
    """Look up a built-in spec, e.g. "all" or "pc-large-degree(2)" (ASCII digits only)."""
    base, paren, arg = name.strip().partition("(")
    if not paren and base in _PLAIN_SPECS:
        return NISubsetSpec(base, _PLAIN_SPECS[base])
    digits = arg[1:-1] if arg.startswith("-") else arg[:-1]
    if base in _PARAMETRIC_SPECS and arg.endswith(")") and digits.isascii() and digits.isdigit():
        member, closed_form = _PARAMETRIC_SPECS[base]
        arg = int(arg[:-1])
        return NISubsetSpec(f"{base}({arg})", member(arg), closed_form and closed_form(arg))
    raise ParseError(f"unknown spec {name!r}; known: {', '.join(list_specs())}")


# ---------------------------------------------------------------------------
# Exhaustive census
# ---------------------------------------------------------------------------


class PerDimension(record("PerDimension", "i n_i gl_i n_of_i")):
    """|N_i|, |GL(i, q)| and |N(i)| for one i."""

    __slots__ = ()


class FlagCensus(record("FlagCensus", "spec_name d q n_total per_i lhs rhs")):
    """|N|, a PerDimension for each i = 0..d, |N| / |GL(d, q)| (lhs) and the
    flag-sum formula from the N_i (rhs)."""

    __slots__ = ()

    @property
    def proportion_in_m(self):
        """|N| / |M(d, q)|."""
        return self.lhs * omega(self.d, self.q)


def _nilpotent_canonical(M):
    """X_inv + 0 on the nilpotent part, in the Fitting basis."""
    split = matrix.fitting_decompose(M)
    return matrix.direct_sum(split.x_inv, Mat.zero(M.ctx, split.nil_dim))


def _indexer(d, q):
    """The position of a matrix of M(d, q) in ``matrix.all_matrices``' order:
    its entries as base-q digits, row-major, the first least significant."""
    weights = tuple(q ** k for k in range(d * d))
    return lambda X: sum(map(operator.mul, itertools.chain.from_iterable(X.rows), weights))


class _Verdicts:
    """bool(member(X)) for X in M(d, q), decided at most once per matrix.

    One byte per matrix, at its ``_indexer`` position: 0 while undecided,
    else 1 + the verdict.  The key is the matrix itself, never a similarity
    invariant, so X and X_inv + 0 are decided independently.  ``gf.admit``
    gates the table, the one allocation of q^(d^2) per spec in a census or
    audit.
    """

    def __init__(self, member, d, ctx, budget=None, limit=None):
        size = gf.admit(ctx.order, d * d, f"matrices of M({d}, {ctx.order})", budget, limit)
        self.member = member
        self.table = bytearray(size)

    def at(self, k, X):
        """bool(member(X)) for the matrix X at position k."""
        v = self.table[k]
        if not v:
            v = self.table[k] = 1 + bool(self.member(X))
        return v == 2


def count_members(member, d, ctx, budget=None):
    """The number of X in M(d, q) with bool(member(X)), within the budget."""
    return sum(1 for X in matrix.all_matrices(d, ctx, budget=budget) if member(X))


def census_exact(spec, d, ctx, budget=None):
    """``census_exact_all`` for one spec."""
    return census_exact_all([spec], d, ctx, budget)[0]


def census_exact_all(specs, d, ctx, budget=None):
    """Count each family exhaustively and assert the flag-sum identity.

    Enumerates all of M(d, q) once for every |N|, per-dimension |N(i)| and
    |N_i| against the standard flag.  Raises NIViolation (with a witness)
    if a predicate is found to depend on the nilpotent part, or if either
    exact identity fails.

    The canonical form X_inv + 0 and the Fitting dimension of each X are
    computed once for every spec.  X is a flag matrix Y + 0_{d-i} with Y
    in GL(i, q) exactly when it is its own canonical form, and then i is
    its invertible dimension, so each member fixed point adds 1 to |N_i|.
    Each spec decides member(X) and member(X_inv + 0) through its own
    ``_Verdicts`` table of q^(d^2) bytes, each admitted against the budget,
    so ``spec.member`` runs at most once per matrix.  The checks run spec
    by spec in the order given, so the first failure raised is the one of
    the sequential ``census_exact`` calls: a spec that fails in the pass
    drops out with every spec after it.
    """
    q = ctx.order
    tables = [_Verdicts(spec.member, d, ctx, budget) for spec in specs]
    n_of_i = [[0] * (d + 1) for _ in specs]
    n_i = [[0] * (d + 1) for _ in specs]
    index = _indexer(d, q)
    failure = None
    # X's position is its enumeration counter
    for k, X in enumerate(matrix.all_matrices(d, ctx, budget=budget)):
        if not tables:
            break
        canon = _nilpotent_canonical(X)
        kc, inv_dim = index(canon), None
        for s, (spec, member) in enumerate(zip(specs, tables)):
            in_n = member.at(k, X)
            if member.at(kc, canon) != in_n:
                failure = NIViolation(
                    f"spec {spec.name!r}: member(X) but not member(X_inv + 0)" if in_n else
                    f"spec {spec.name!r}: member(X_inv + 0) but not member(X)",
                    witness=X)
                del tables[s:], n_i[s:]
                break
            if in_n:
                if inv_dim is None:
                    inv_dim = matrix.fitting_decompose(X).inv_dim
                n_of_i[s][inv_dim] += 1
                if kc == k:
                    n_i[s][inv_dim] += 1

    out = [_check_census(spec, d, ctx, counts, flags)
           for spec, counts, flags in zip(specs, n_of_i, n_i)]
    if failure is not None:
        raise failure
    return out


def _check_census(spec, d, ctx, n_of_i, n_i):
    """The FlagCensus of one spec, or NIViolation if an identity fails."""
    q = ctx.order
    per = [PerDimension(i=i, n_i=n, gl_i=matrix.gl_order(i, q), n_of_i=n_of_i[i])
           for i, n in enumerate(n_i)]
    n_total = sum(n_of_i)

    lhs = Fraction(n_total, matrix.gl_order(d, q))
    rhs = flag_sum(d, q, [Fraction(p.n_i, p.gl_i) for p in per])

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
    g_inv = matrix.inverse(g)
    return tuple(
        sum(1 for Y in matrix.all_invertible(i, ctx, budget=budget)
            if spec.member(g_inv * matrix.direct_sum(Y, Mat.zero(ctx, d - i)) * g))
        for i in range(d + 1))


# ---------------------------------------------------------------------------
# Closed-form sum identities and transfer bounds
# ---------------------------------------------------------------------------


class CorollarySums(record("CorollarySums", "d q lhs_full rhs_full lhs_truncated rhs_truncated")):
    """Both telescoping sums: the full one, sum_{i=0}^{d} q^-(d-i) / omega(d-i, q) against
    1 / omega(d, q), and the one over i >= 1 against (1 - q^-d) / omega(d, q)."""

    __slots__ = ()

    @property
    def holds(self):
        return self.lhs_full == self.rhs_full and self.lhs_truncated == self.rhs_truncated


def corollary_sum_check(d, q):
    return CorollarySums(
        d=d, q=q,
        lhs_full=flag_sum(d, q, [1] * (d + 1)),
        rhs_full=1 / omega(d, q),
        lhs_truncated=flag_sum(d, q, [0] + [1] * d),
        rhs_truncated=(1 - Fraction(1, q ** d)) / omega(d, q),
    )


def _check_constants(a, k):
    a, k = Fraction(a), Fraction(k)
    if a <= 0 or k <= 0:
        raise RangeError(f"need a, k > 0, got a={a}, k={k}")
    return a, k


class LinearTransferBound(record("LinearTransferBound", "tight relaxed")):
    """(a - 3k/d)(1 - q^-d) and a - (a + 3k)/d."""

    __slots__ = ()


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


class NIAuditReport(record("NIAuditReport", "spec_name d q matrices_checked "
                                           "conjugations_checked violations")):
    """``violations`` holds (kind, witness Mat, conjugator Mat or None) triples."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


# ni_verify enumerates M(d, q) up to AUDIT_EXHAUSTIVE_MAX matrices, and
# stops after AUDIT_MAX_VIOLATIONS violations.
AUDIT_EXHAUSTIVE_MAX = 4096
AUDIT_MAX_VIOLATIONS = 5


def ni_verify(spec, d, ctx, budget=None):
    """``ni_verify_all`` for one spec."""
    return ni_verify_all([spec], d, ctx, budget)[0]


class _Audit(types.SimpleNamespace):
    """One spec's state in an audit pass: verdicts, orbit marks and findings.

    ``marks`` holds, per matrix position, 0 while its orbit is unbuilt, else
    1 + whether it is uniform."""

    def __init__(self, member, marks, violations, conjugations=0):
        super().__init__(member=member, marks=marks, violations=violations,
                         conjugations=conjugations)


def _orbit(X, pairs, index):
    """[(position, g^-1 X g)] for each (g^-1, g) of ``pairs``, in their order."""
    return [(index(Y), Y) for Y in (g_inv * X * g for g_inv, g in pairs)]


def ni_verify_all(specs, d, ctx, budget=None):
    """Audit both NI conditions for each spec over all of M(d, q) and GL(d, q).

    Condition (i): membership is conjugation invariant.  Condition (ii):
    membership of X equals membership of X_inv + 0.  Violations are
    collected with witnesses rather than raised, so deliberately broken
    predicates can be inspected.  Raises BudgetExceeded when M(d, q) has
    more than AUDIT_EXHAUSTIVE_MAX matrices or more than the budget.

    One pass serves every spec: each conjugator is inverted once, and the
    canonical form of each X is computed once.  The orbit {g^-1 X g} is
    built once, as a list, at its first X, where each spec's orbit marks
    are still 0, and each spec marks it uniform when its verdicts on the
    orbit agree.  A uniform X counts every conjugator as checked; any other
    X lists its own conjugates and stops at the first differing verdict,
    which exists because they make up the whole orbit.  Each spec decides
    through its own ``_Verdicts`` table of q^(d^2) bytes, so ``spec.member``
    runs at most once per matrix, and leaves the pass at its
    AUDIT_MAX_VIOLATIONS-th violation.
    """
    q = ctx.order
    total = gf.admit(q, d * d, f"matrices of M({d}, {q})", budget, AUDIT_EXHAUSTIVE_MAX)
    audits = [_Audit(_Verdicts(spec.member, d, ctx, budget, limit=AUDIT_EXHAUSTIVE_MAX),
                     bytearray(total), []) for spec in specs]
    index = _indexer(d, q)
    pairs = tuple((matrix.inverse(g), g) for g in matrix.all_invertible(d, ctx, budget=budget))
    live = list(audits)
    for k, X in enumerate(matrix.all_matrices(d, ctx, budget=budget)):
        if not live:
            break
        canon = _nilpotent_canonical(X)
        kc, orbit = index(canon), None
        for audit in list(live):
            member, marks = audit.member, audit.marks
            m_x = member.at(k, X)
            if m_x != member.at(kc, canon):
                audit.violations.append(("nilpotent-part-dependence", X, None))
            if not marks[k]:  # the first X of its orbit
                orbit = orbit or _orbit(X, pairs, index)
                mark = 1 + all(member.at(j, Y) == m_x for j, Y in orbit)
                for j, _ in orbit:
                    marks[j] = mark
            if marks[k] == 2:
                audit.conjugations += len(pairs)
            else:  # X's conjugates make up the whole orbit, so one of them differs
                orbit = orbit or _orbit(X, pairs, index)
                t = next(t for t, (j, Y) in enumerate(orbit) if member.at(j, Y) != m_x)
                audit.conjugations += t + 1
                audit.violations.append(("conjugation-dependence", X, pairs[t][1]))
            if len(audit.violations) >= AUDIT_MAX_VIOLATIONS:
                live.remove(audit)

    return [NIAuditReport(spec_name=spec.name, d=d, q=q, matrices_checked=total,
                          conjugations_checked=audit.conjugations,
                          violations=tuple(audit.violations))
            for spec, audit in zip(specs, audits)]
