"""Flag-sum censuses: anchors, identities, audits, transfer bounds."""

import ast
import hashlib
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nicensus import census, cli, estimate, gf, matrix, quokka
from nicensus.census import (
    NISubsetSpec,
    census_exact,
    corollary_sum_check,
    gaussian_binomial,
    get_spec,
    omega,
)
from nicensus.errors import (
    BudgetExceeded,
    NIViolation,
    ParseError,
    RangeError,
)
from nicensus.matrix import Mat
from nicensus.poly import Poly

from matrices import from_rows, row_space_basis

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)


def test_omega_values():
    assert omega(0, 5) == 1
    assert omega(1, 2) == Fraction(1, 2)
    assert omega(2, 2) == Fraction(3, 8)
    invertibles = sum(1 for M in matrix.all_matrices(2, F2) if matrix.is_invertible(M))
    assert omega(2, 2) == Fraction(invertibles, 16)
    with pytest.raises(RangeError):
        omega(-1, 2)


def test_omega_equals_the_product_formula():
    for q in (2, 3, 4, 5, 7):
        product = Fraction(1)
        for j in range(9):
            if j:
                product *= 1 - Fraction(1, q ** j)
            assert omega(j, q) == product, (j, q)


def count_subspaces(ctx, d, i):
    """Independent oracle: distinct row spaces of rank-i spanning sets."""
    q = ctx.order
    seen = set()
    for idx in range(q ** (d * i)):
        rows = []
        rem = idx
        for _ in range(i):
            row = []
            for _ in range(d):
                row.append(rem % q)
                rem //= q
            rows.append(row)
        # row_space_basis expects a square matrix; pad with zero rows
        padded = rows + [[0] * d for _ in range(d - i)]
        basis = row_space_basis(from_rows(ctx, padded))
        if len(basis) == i:
            seen.add(basis)
    return len(seen)


def test_gaussian_binomial_against_enumeration():
    assert gaussian_binomial(2, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3 == count_subspaces(F2, 2, 1)
    assert gaussian_binomial(3, 1, 2) == 7 == count_subspaces(F2, 3, 1)
    assert gaussian_binomial(3, 2, 2) == 7 == count_subspaces(F2, 3, 2)
    assert gaussian_binomial(2, 1, 3) == 4 == count_subspaces(F3, 2, 1)
    assert gaussian_binomial(4, 2, 2) == 35 == count_subspaces(F2, 4, 2)
    with pytest.raises(RangeError):
        gaussian_binomial(2, 3, 2)


def test_gaussian_binomial_equals_the_pascal_recurrence():
    # [n, k] = [n-1, k-1] + q^k [n-1, k], with [n, 0] = [n, n] = 1
    for q in (2, 3, 4, 5, 7):
        row = [1]
        for d in range(9):
            if d:
                row = [1] + [row[k - 1] + q ** k * row[k] for k in range(1, d)] + [1]
            assert [gaussian_binomial(d, i, q) for i in range(d + 1)] == row, (d, q)


def test_census_all_spec_anchor():
    fc = census_exact(get_spec("all"), 2, F2)
    assert fc.lhs == fc.rhs == Fraction(8, 3) == 1 / omega(2, 2)
    assert [p.n_of_i for p in fc.per_i] == [4, 6, 6]  # nilpotents, rank-1 non-nil, GL
    assert fc.per_i[1].n_of_i == gaussian_binomial(2, 1, 2) * 2 * fc.per_i[1].n_i


def test_census_primary_cyclic_anchor():
    fc = census_exact(get_spec("primary-cyclic-some-f-not-t"), 2, F2)
    assert fc.n_total == 11
    assert fc.lhs == Fraction(11, 6)
    assert Fraction(fc.per_i[2].n_i, fc.per_i[2].gl_i) == Fraction(5, 6)
    assert Fraction(fc.per_i[1].n_i, fc.per_i[1].gl_i) == 1
    assert fc.per_i[0].n_i == 0


def test_census_nilpotent_complement_matches_truncated_sum():
    fc = census_exact(get_spec("nilpotent-complement"), 2, F3)
    cs = corollary_sum_check(2, 3)
    assert fc.lhs == cs.rhs_truncated


def test_zeroth_term_for_nilpotent_containing_specs():
    # d = 1: the term at i = 0 is q^-1 / omega(1, q)
    for ctx in (F2, F3):
        q = ctx.order
        fc = census_exact(get_spec("all"), 1, ctx)
        zeroth = (Fraction(1, q) / omega(1, q)) * Fraction(fc.per_i[0].n_i, 1)
        assert zeroth == Fraction(1, q) / omega(1, q)
        assert fc.per_i[0].n_i == 1


def test_census_closed_forms_match_enumeration():
    for name in ("all", "nilpotent-complement"):
        spec = get_spec(name)
        fc = census_exact(spec, 2, F3)
        for p in fc.per_i:
            if p.i >= 1:
                assert Fraction(p.n_i, p.gl_i) == Fraction(1)


def test_census_pc_large_degree_closed_form_on_m24():
    spec = get_spec("pc-large-degree(2)")
    fc = census_exact(spec, 2, F4)
    for p in fc.per_i:
        if p.i >= 1:
            assert Fraction(p.n_i, p.gl_i) == quokka.ngl_exact(p.i, 2, 2)
    assert fc.proportion_in_m == Fraction(112, 256)


def test_census_rejects_non_ni_spec_with_witness():
    bad = NISubsetSpec("rank-d-minus-1", lambda X: matrix.rank(X) == X.n - 1)
    with pytest.raises(NIViolation) as info:
        census_exact(bad, 2, F2)
    assert info.value.witness is not None


@pytest.mark.parametrize("member, message", [
    (lambda X: matrix.rank(X) == 1, "member(X) but not member(X_inv + 0)"),
    (lambda X: X.is_zero, "member(X_inv + 0) but not member(X)"),
], ids=["rank-1", "zero"])
def test_census_ni_violation_names_the_failing_side(member, message):
    # both specs first fail at the nilpotent ((0, 1), (0, 0)), whose X_inv + 0 is 0
    with pytest.raises(NIViolation) as info:
        census_exact(NISubsetSpec("bad", member), 2, F2)
    assert str(info.value) == f"spec 'bad': {message}"
    assert info.value.witness.rows == ((0, 1), (0, 0))


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        census_exact(get_spec("all"), 2, F3, budget=10)
    assert census.count_members(matrix.is_nilpotent, 2, F2, budget=16) == 4
    with pytest.raises(BudgetExceeded):
        census.count_members(matrix.is_nilpotent, 2, F2, budget=15)


def test_flag_independence():
    spec = get_spec("primary-cyclic-some-f-not-t")
    fc = census_exact(spec, 2, F3)
    for trial in range(3):
        g = estimate.sample_gl(2, F3, seed=5, index=trial)
        alt = census.n_i_under_conjugated_flag(spec, 2, F3, g)
        assert list(alt) == [p.n_i for p in fc.per_i]


def test_corollary_sums_exact():
    for q in (2, 3, 4, 5, 7):
        for d in range(0, 9):
            cs = corollary_sum_check(d, q)
            assert cs.holds
    cs = corollary_sum_check(1, 2)
    assert cs.lhs_full == 2 == cs.rhs_full


def test_transfer_bounds():
    lb = census.transfer_bound_linear(1, Fraction(1, 100), 4, 2)
    assert lb.tight == (1 - Fraction(3, 400)) * Fraction(15, 16)
    assert lb.tight > lb.relaxed
    with pytest.raises(RangeError):
        census.transfer_bound_linear(1, 0, 2, 2)


def test_transfer_bound_on_census_data():
    # a = 1 with tiny k: the bound degrades to roughly 1 - q^-d, true for N = M
    tiny = Fraction(1, 10 ** 9)
    for d, ctx in [(2, F2), (2, F3)]:
        fc = census_exact(get_spec("all"), d, ctx)
        bound = census.transfer_bound_linear(1, tiny, d, ctx.order)
        assert fc.proportion_in_m >= bound.tight
    # fitted k for the primary cyclic family
    a = Fraction(5, 6)
    for d in (2, 3):
        fc = census_exact(get_spec("primary-cyclic-some-f-not-t"), d, F2)
        k = census.fit_linear_k(fc.per_i, a) or Fraction(1, 1000)
        bound = census.transfer_bound_linear(a, k, d, 2)
        assert fc.proportion_in_m >= bound.tight >= bound.relaxed


def test_power_sum_bound():
    lhs, rhs = census.power_sum_bound_check(2, 2)
    assert (lhs, rhs) == (8, 12)
    for d in range(1, 13):
        for q in (2, 3, 4, 5):
            lhs, rhs = census.power_sum_bound_check(d, q)
            assert lhs < rhs


def test_ni_verify_builtin_specs():
    for name in ("all", "invertible", "separable", "unipotent", "has-eigenvalue(1)"):
        for ctx in (F2, F3):
            rep = census.ni_verify(get_spec(name), 2, ctx)
            assert rep.ok


@pytest.mark.parametrize("d,q", [(0, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (2, 5)])
def test_unipotent_is_charpoly_t_minus_1_to_the_d(d, q):
    # Steinberg: q^(d(d-1)) unipotent matrices, and each one by its definition
    ctx = gf.field_of_order(q)
    t_minus_1 = Poly.make(ctx, (ctx.neg(1), 1))
    member = get_spec("unipotent").member
    count = 0
    for M in matrix.all_matrices(d, ctx):
        assert member(M) == (matrix.charpoly(M) == t_minus_1 ** d), M
        count += member(M)
    assert count == q ** (d * (d - 1))


def test_ni_verify_finds_violations():
    bad = NISubsetSpec("rank-d-minus-1", lambda X: matrix.rank(X) == X.n - 1)
    rep = census.ni_verify(bad, 2, F2)
    kinds = {v[0] for v in rep.violations}
    assert "nilpotent-part-dependence" in kinds
    trace_dependent = NISubsetSpec(
        "first-entry", lambda X: X.rows[0][0] == 1)  # not conjugation closed
    rep = census.ni_verify(trace_dependent, 2, F2)
    assert any(v[0] == "conjugation-dependence" for v in rep.violations)


# ni_verify's reports on the two broken specs above: (conjugations checked,
# violations with witness and conjugator as row tuples).
_BROKEN_AUDITS = {
    ("rank-d-minus-1", 2, 2): (96, [
        ("nilpotent-part-dependence", ((0, 1), (0, 0)), None),
        ("nilpotent-part-dependence", ((0, 0), (1, 0)), None),
        ("nilpotent-part-dependence", ((1, 1), (1, 1)), None)]),
    ("first-entry", 2, 2): (16, [
        ("conjugation-dependence", ((1, 0), (0, 0)), ((0, 1), (1, 0))),
        ("conjugation-dependence", ((0, 1), (0, 0)), ((1, 0), (1, 1))),
        ("conjugation-dependence", ((1, 1), (0, 0)), ((0, 1), (1, 0))),
        ("conjugation-dependence", ((0, 0), (1, 0)), ((1, 1), (1, 0))),
        ("conjugation-dependence", ((1, 0), (1, 0)), ((0, 1), (1, 0)))]),
    ("rank-d-minus-1", 2, 3): (2160, [
        ("nilpotent-part-dependence", ((0, 1), (0, 0)), None),
        ("nilpotent-part-dependence", ((0, 2), (0, 0)), None),
        ("nilpotent-part-dependence", ((0, 0), (1, 0)), None),
        ("nilpotent-part-dependence", ((0, 0), (2, 0)), None),
        ("nilpotent-part-dependence", ((2, 2), (1, 1)), None)]),
    ("first-entry", 2, 3): (111, [
        ("conjugation-dependence", ((1, 0), (0, 0)), ((0, 1), (1, 0))),
        ("conjugation-dependence", ((2, 0), (0, 0)), ((2, 1), (1, 1))),
        ("conjugation-dependence", ((0, 1), (0, 0)), ((1, 0), (1, 1))),
        ("conjugation-dependence", ((1, 1), (0, 0)), ((0, 1), (1, 0))),
        ("conjugation-dependence", ((2, 1), (0, 0)), ((2, 0), (1, 1)))]),
}


_BROKEN_SPECS = {s.name: s for s in (
    NISubsetSpec("rank-d-minus-1", lambda X: matrix.rank(X) == X.n - 1),
    NISubsetSpec("first-entry", lambda X: X.rows[0][0] == 1))}


def test_ni_verify_reports_pinned():
    for (name, d, q), (conjugations, violations) in _BROKEN_AUDITS.items():
        rep = census.ni_verify(_BROKEN_SPECS[name], d, gf.field_create(q))
        assert rep.conjugations_checked == conjugations, (name, d, q)
        assert [(kind, X.rows, g and g.rows) for kind, X, g in rep.violations] == violations


def test_get_spec_errors_and_listing():
    with pytest.raises(ParseError):
        get_spec("no-such-spec")
    with pytest.raises(ParseError):
        get_spec("has-eigenvalue")  # parameter required
    assert "all" in census.list_specs()


# The grammar get_spec matched before it parsed by hand, kept as its oracle.
_OLD_SPEC_PATTERN = re.compile(r"^([a-z0-9-]+)(?:\((-?[0-9]+)\))?$")
# str.isdigit accepts the Arabic-Indic three and the superscript two
_SPEC_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-()+ \u0663\u00b2"
# a name, an argument that may lack either parenthesis, and a tail
_SPEC_TEXTS = st.tuples(
    st.sampled_from(["", " ", "all", "separable", "has-eigenvalue", "pc-large-degree", "x"]),
    st.sampled_from(["", "(", "(("]), st.text("-0123456789+ x\u0663\u00b2", max_size=4),
    st.sampled_from(["", ")", "))", ") "]), st.text(_SPEC_ALPHABET, max_size=2)).map("".join)


def _old_get_spec(name):
    m = _OLD_SPEC_PATTERN.match(name.strip())
    if m:
        base, arg = m.group(1), m.group(2)
        if arg is None and base in census._PLAIN_SPECS:
            return NISubsetSpec(base, census._PLAIN_SPECS[base])
        if arg is not None and base in census._PARAMETRIC_SPECS:
            member, closed_form = census._PARAMETRIC_SPECS[base]
            arg = int(arg)
            return NISubsetSpec(f"{base}({arg})", member(arg), closed_form and closed_form(arg))
    raise ParseError(f"unknown spec {name!r}; known: {', '.join(census.list_specs())}")


def _spec_outcome(lookup, text):
    try:
        return lookup(text).name
    except ParseError as e:
        return f"ParseError: {e}"


@settings(max_examples=1000, deadline=None)
@given(text=st.text(_SPEC_ALPHABET) | _SPEC_TEXTS)
@example(text="pc-large-degree(\u0663)")
@example(text="has-eigenvalue(\u00b2)")
@example(text="has-eigenvalue(-01)")
@example(text="pc-large-degree(-)")
@example(text=" pc-large-degree(2) ")
def test_get_spec_accepts_exactly_the_old_pattern(text):
    assert _spec_outcome(get_spec, text) == _spec_outcome(_old_get_spec, text)


# ---------------------------------------------------------------------------
# Oracles: census_exact and ni_verify as plain loops that decide every
# membership through the predicate, with no verdict table and no orbits
# ---------------------------------------------------------------------------


def _census_loop(spec, d, ctx):
    """The enumeration of census_exact: (|N|, |N(i)|, |N_i|)."""
    n_total, n_of_i = 0, [0] * (d + 1)
    for X in matrix.all_matrices(d, ctx):
        in_n = bool(spec.member(X))
        split = matrix.fitting_decompose(X)
        if bool(spec.member(census._nilpotent_canonical(X))) != in_n:
            raise NIViolation(spec.name, witness=X)
        if in_n:
            n_total += 1
            n_of_i[split.inv_dim] += 1
    n_i = [int(bool(spec.member(Mat.zero(ctx, d))))]
    for i in range(1, d + 1):
        pad = Mat.zero(ctx, d - i)
        n_i.append(sum(1 for Y in matrix.all_invertible(i, ctx)
                       if spec.member(matrix.direct_sum(Y, pad))))
    return n_total, n_of_i, n_i


def _ni_verify_per_pair(specs, d, ctx):
    """ni_verify's report for each spec, from one scan over every (X, g) pair.

    The specs' scans run side by side, X by X, so that each conjugate is
    built once for all of them; a spec leaves the scan at its last
    violation.  The predicates are pure, so their verdicts are kept by
    matrix; every pair is still conjugated and compared.
    """
    pairs = [(matrix.inverse(g), g) for g in matrix.all_invertible(d, ctx)]
    scans = [(spec, {}, [], [0]) for spec in specs]  # verdicts, violations, conjugations
    active = list(scans)
    for X in matrix.all_matrices(d, ctx):
        conjugates = []
        for scan in list(active):
            spec, seen, violations, conjugations = scan

            def member(Y):
                if Y.rows not in seen:
                    seen[Y.rows] = bool(spec.member(Y))
                return seen[Y.rows]

            m_x = member(X)
            if m_x != member(census._nilpotent_canonical(X)):
                violations.append(("nilpotent-part-dependence", X, None))
            for t, (g_inv, g) in enumerate(pairs):
                if t == len(conjugates):
                    conjugates.append(g_inv * X * g)
                conjugations[0] += 1
                if member(conjugates[t]) != m_x:
                    violations.append(("conjugation-dependence", X, g))
                    break
            if len(violations) >= census.AUDIT_MAX_VIOLATIONS:
                active.remove(scan)
    return [census.NIAuditReport(spec_name=spec.name, d=d, q=ctx.order,
                                 matrices_checked=ctx.order ** (d * d),
                                 conjugations_checked=conjugations[0],
                                 violations=tuple(violations))
            for spec, _, violations, conjugations in scans]


def _jordan_block(X):
    return all(X.rows[i][j] == (1 if j == i + 1 else 0)
               for i in range(X.n) for j in range(X.n))


# conjugation invariance fails on the regular nilpotent orbit alone
_ONE_ORBIT_BROKEN = NISubsetSpec("all-but-jordan-block", lambda X: not _jordan_block(X))

_DIFFERENTIAL_SPECS = ([get_spec(name) for name in cli._AUDIT_SPECS]
                       + list(_BROKEN_SPECS.values()) + [_ONE_ORBIT_BROKEN])
_SIZES = [(2, F2), (2, F3), (3, F2)]


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_ni_verify_matches_per_pair_scan(d, ctx):
    expected = _ni_verify_per_pair(_DIFFERENTIAL_SPECS, d, ctx)
    for spec, rep in zip(_DIFFERENTIAL_SPECS, expected):
        assert census.ni_verify(spec, d, ctx) == rep, spec.name
    # the one-orbit spec fails only on regular nilpotents
    rep = census.ni_verify(_ONE_ORBIT_BROKEN, d, ctx)
    assert rep.violations and all(matrix.rank(X) == d - 1 and matrix.is_nilpotent(X)
                                  for _, X, _ in rep.violations)


def test_ni_verify_refuses_past_the_exhaustive_range():
    # M(3, 3) has 19,683 matrices, past AUDIT_EXHAUSTIVE_MAX; M(2, 2) has 16
    for d, ctx, budget in [(3, F3, None), (2, F2, 10)]:
        with pytest.raises(BudgetExceeded):
            census.ni_verify(get_spec("separable"), d, ctx, budget=budget)


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_census_exact_matches_plain_loop(d, ctx):
    for name in census._PLAIN_SPECS:
        spec = get_spec(name)
        fc = census_exact(spec, d, ctx)
        n_total, n_of_i, n_i = _census_loop(spec, d, ctx)
        assert (fc.n_total, [p.n_of_i for p in fc.per_i], [p.n_i for p in fc.per_i]) == \
            (n_total, n_of_i, n_i), name


_VALID_SPECS = [get_spec(name) for name in census._PLAIN_SPECS]


def _outcome(run):
    """run()'s value, or the message and witness rows of the NIViolation it raises."""
    try:
        return run()
    except NIViolation as exc:
        return str(exc), exc.witness and exc.witness.rows


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_census_exact_all_matches_plain_loop(d, ctx):
    fcs = census.census_exact_all(_VALID_SPECS, d, ctx)
    assert [fc.spec_name for fc in fcs] == [spec.name for spec in _VALID_SPECS]
    for spec, fc in zip(_VALID_SPECS, fcs):
        assert (fc.n_total, [p.n_of_i for p in fc.per_i], [p.n_i for p in fc.per_i]) == \
            _census_loop(spec, d, ctx), spec.name
    for broken in [*_BROKEN_SPECS.values(), _ONE_ORBIT_BROKEN]:
        # first, second and last: each list raises what the calls in turn raise
        for at in (0, 1, len(_VALID_SPECS)):
            specs = _VALID_SPECS[:at] + [broken] + _VALID_SPECS[at:]
            raised = _outcome(lambda: census.census_exact_all(specs, d, ctx))
            assert raised == _outcome(lambda: [census_exact(s, d, ctx) for s in specs])
            # the witness is the first X the plain loop rejects
            with pytest.raises(NIViolation) as info:
                _census_loop(broken, d, ctx)
            assert raised[1] == info.value.witness.rows, (broken.name, at)
    # the first failing spec in the list decides, wherever the others fail
    pair = [_BROKEN_SPECS["rank-d-minus-1"], _BROKEN_SPECS["first-entry"]]
    for specs in (pair, pair[::-1]):
        assert _outcome(lambda: census.census_exact_all(specs, d, ctx)) == \
            _outcome(lambda: census_exact(specs[0], d, ctx))


def _hashed(salt):
    """A predicate of X_inv + 0 alone, a hash bit of its rows: it passes the
    census's X vs X_inv + 0 check and need not be conjugation invariant."""
    def member(X):
        rows = census._nilpotent_canonical(X).rows
        return hashlib.sha256(repr((salt, rows)).encode()).digest()[0] & 1
    return member


@pytest.mark.parametrize("d, ctx", [*_SIZES, (2, F4)], ids=["2-2", "2-3", "3-2", "2-4"])
def test_every_predicate_of_the_canonical_form_satisfies_both_identities(d, ctx):
    # for each Y in GL(i, q), qbinom(d, i) q^((d-i)(d-1)) matrices X have
    # X_inv + 0 = Y + 0, so both identities hold for any such family and
    # check the census's arithmetic, not the family
    for salt in range(4):
        fc = census_exact(NISubsetSpec(f"hashed-{salt}", _hashed(salt)), d, ctx)
        assert fc.lhs == fc.rhs and 0 < fc.n_total < ctx.order ** (d * d), salt


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_ni_verify_all_matches_per_pair_scan(d, ctx):
    expected = _ni_verify_per_pair(_DIFFERENTIAL_SPECS, d, ctx)
    assert census.ni_verify_all(_DIFFERENTIAL_SPECS, d, ctx) == expected
    assert census.ni_verify_all(_DIFFERENTIAL_SPECS[::-1], d, ctx) == expected[::-1]


def test_audit_spec_that_stops_early_leaves_the_others_alone():
    valid = [get_spec(name) for name in cli._AUDIT_SPECS]
    early = _BROKEN_SPECS["first-entry"]
    for d, ctx in _SIZES:
        alone = [census.ni_verify(spec, d, ctx) for spec in valid]
        reports = census.ni_verify_all([early, *valid[:3], early, *valid[3:]], d, ctx)
        assert len(reports[0].violations) == census.AUDIT_MAX_VIOLATIONS
        assert reports[0] == reports[4] == census.ni_verify(early, d, ctx)
        assert reports[1:4] + reports[5:] == alone


def _recorded(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_lemma31_enumerates_each_space_once(monkeypatch, capsys):
    passes = _recorded(monkeypatch, matrix, "all_matrices")
    canonical = _recorded(monkeypatch, census, "_nilpotent_canonical")
    assert cli.main(["verify", "--suite", "lemma31"]) == 0
    capsys.readouterr()
    # one pass over M(d, q) for all six specs, and none over M(i, q) for the
    # flag counts' GL(i, q); then the nilpotent counts
    expected = Counter([(2, 2), (2, 3), (3, 2)])
    expected.update((n, q) for n in (1, 2, 3) for q in (2, 3))
    assert Counter((n, ctx.order) for n, ctx in passes) == expected
    per_matrix = Counter((X.ctx.order, X.rows) for (X,) in canonical)
    assert len(per_matrix) == 2 ** 4 + 3 ** 4 + 2 ** 9 and max(per_matrix.values()) == 1


def test_theorem1_builds_each_orbit_once(monkeypatch, capsys):
    orbits = []  # (q, conjugators, the orbit's matrices) per orbit built
    orbit = census._orbit

    def recorded(X, pairs, index):
        conjugates = orbit(X, pairs, index)
        orbits.append((X.ctx.order, len(pairs), {Y.rows for _, Y in conjugates}))
        return conjugates

    monkeypatch.setattr(census, "_orbit", recorded)
    assert cli.main(["verify", "--suite", "theorem1"]) == 0
    capsys.readouterr()
    for q in (2, 3):
        built = [(n, ys) for p, n, ys in orbits if p == q]
        # every conjugator at each first X, and orbits that partition M(2, q)
        assert all(n == matrix.gl_order(2, q) for n, _ in built)
        distinct = [ys for _, ys in built]
        assert sum(map(len, distinct)) == len(set().union(*distinct)) == q ** 4


def _flag_dim(X):
    """i when X is Y + 0_{d-i} with Y invertible, else None."""
    for i in range(X.n + 1):
        Y = Mat(X.ctx, i, tuple(row[:i] for row in X.rows[:i]))
        if X == matrix.direct_sum(Y, Mat.zero(X.ctx, X.n - i)) and matrix.is_invertible(Y):
            return i
    return None


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_canonical_fixed_points_are_the_flag_matrices(d, ctx):
    # the census reads |N_i| off the fixed points of X -> X_inv + 0
    fixed = Counter()
    for X in matrix.all_matrices(d, ctx):
        i = _flag_dim(X)
        assert (census._nilpotent_canonical(X) == X) == (i is not None), X.rows
        if i is not None:
            assert matrix.fitting_decompose(X).inv_dim == i
            fixed[i] += 1
    assert [fixed[i] for i in range(d + 1)] == [matrix.gl_order(i, ctx.order)
                                                 for i in range(d + 1)]


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_member_runs_once_per_matrix(d, ctx):
    for spec in (get_spec("primary-cyclic-some-f-not-t"), _BROKEN_SPECS["first-entry"],
                 _ONE_ORBIT_BROKEN):
        calls = Counter()

        def member(X):
            calls[X.rows] += 1
            return spec.member(X)

        counted = NISubsetSpec(spec.name, member)
        for run in (census.ni_verify, census_exact):
            calls.clear()
            try:
                run(counted, d, ctx)
            except NIViolation:
                pass
            assert calls and max(calls.values()) == 1, (spec.name, run.__name__)


def test_member_decides_on_truth_value():
    for pred in (matrix.is_invertible, _BROKEN_SPECS["first-entry"].member,
                 _ONE_ORBIT_BROKEN.member):
        plain = NISubsetSpec("p", pred)
        as_int = NISubsetSpec("p", lambda X: int(pred(X)))
        # truthy values that differ between conjugates and between X and X_inv + 0
        as_rows = NISubsetSpec("p", lambda X: X.rows if pred(X) else ())
        expected = census.ni_verify(plain, 2, F2)
        assert census.ni_verify(as_int, 2, F2) == expected
        assert census.ni_verify(as_rows, 2, F2) == expected
        assert census.count_members(as_rows.member, 2, F2) == \
            census.count_members(plain.member, 2, F2)
    as_rows = NISubsetSpec("invertible", lambda X: X.rows if matrix.is_invertible(X) else ())
    assert census_exact(as_rows, 2, F3) == census_exact(get_spec("invertible"), 2, F3)


_REGISTERED = list(census._PLAIN_SPECS) + ["has-eigenvalue(0)", "has-eigenvalue(1)",
                                            "pc-large-degree(1)"]


@pytest.mark.parametrize("d, ctx", _SIZES, ids=["2-2", "2-3", "3-2"])
def test_count_members_matches_census(d, ctx):
    for name in _REGISTERED:
        spec = get_spec(name)
        assert census.count_members(spec.member, d, ctx) == census_exact(spec, d, ctx).n_total, \
            name


def test_census_does_not_import_estimate():
    # estimate builds on census (specs, counts); the reverse import would be a cycle
    tree = ast.parse(Path(census.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert "estimate" not in imported
