"""Command-line surface: census, quokka, estimate, decompose, pc-test, verify.

Every run prints a JSON document {"manifest": ..., "result": ...} with a
fixed key order, so identical invocations are byte-identical.  Exact
rationals are emitted as {"num": "...", "den": "..."} string pairs and
never as floats.  Exit codes: 0 success, 2 definitive mathematical
violation, 3 inconclusive-only statistical outcome, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, census, embed, estimate, gf, intervals, matrix, poly, quokka
from .errors import NicensusError, NIViolation, ParseError, UnknownSuite
from .intervals import RInterval

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 4

_STATEMENTS = {
    "census": "flag-sum-identity",
    "quokka": "torus-class-sums",
    "estimate": "sampled-proportions",
    "decompose": "invertible-nilpotent-split",
    "pc-test": "large-degree-primary-cyclic-membership",
    "verify": "verification-suites",
}


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def to_jsonable(x):
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, RInterval):
        return {"lo": to_jsonable(x.lo), "hi": to_jsonable(x.hi), "rounding": "outward"}
    if isinstance(x, poly.Poly):
        return {"field": gf.describe_field(x.ctx), "coeffs": list(x.coeffs),
                "text": poly.format_poly(x)}
    if isinstance(x, matrix.Mat):
        return {"text": matrix.format_matrix(x)}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, float):
        return repr(x)  # decimal string; keeps golden files stable
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no canonical JSON form for {type(x).__name__}")


def canonical_json(obj):
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def build_manifest(subcommand, parameters, seed, result):
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "statement": _STATEMENTS[subcommand],
        "digest": digest,
    }


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (result, exit_code, csv_rows))
# ---------------------------------------------------------------------------


def _flag_census_json(fc):
    return {
        "spec": fc.spec_name,
        "d": fc.d,
        "q": fc.q,
        "n_total": fc.n_total,
        "lhs": fc.lhs,
        "rhs": fc.rhs,
        "proportion_in_m": fc.proportion_in_m,
        "per_i": [
            {"i": p.i, "n_i": p.n_i, "gl_i": str(p.gl_i), "n_of_i": p.n_of_i}
            for p in fc.per_i
        ],
    }


def cmd_census(args):
    spec = census.get_spec(args.spec)
    ctx = gf.parse_field_descriptor(args.q)
    fc = census.census_exact(spec, args.d, ctx, budget=args.budget)
    result = _flag_census_json(fc)
    result["identity_holds"] = fc.lhs == fc.rhs
    if args.flag_check:
        flags_agree = True
        for trial in range(3):
            g = estimate.sample_gl(args.d, ctx, args.seed, trial)
            alt = census.n_i_under_conjugated_flag(spec, args.d, ctx, g, budget=args.budget)
            if list(alt) != [p.n_i for p in fc.per_i]:
                flags_agree = False
        result["flag_independence"] = flags_agree
        if not flags_agree:
            return result, EXIT_VIOLATION, None
    return result, EXIT_OK, None


def cmd_quokka(args):
    if args.r is not None:
        value = quokka.quokka_pc_single(args.c, args.q, args.b, args.r)
        per_degree = quokka.quokka_pc_r(args.c, args.q, args.b, args.r) \
            if args.b * args.r >= 2 else None
        result = {
            "c": args.c, "q": args.q, "b": args.b, "r": args.r,
            "per_polynomial": value,
            "per_degree": per_degree,
        }
        return result, EXIT_OK, None
    sheet = quokka.bound_sheet(args.c, args.q, args.b)
    result = {
        "c": sheet.c, "q": sheet.q, "b": sheet.b,
        "exact_by_r": [{"r": r, "value": v} for r, v in sheet.exact_by_r],
        "exact_total": sheet.exact_total,
        "gl_band": {"lower": sheet.lower, "upper": sheet.upper},
        "algebra_bound": sheet.thm_bound,
        "algebra_exact": sheet.thm_exact,
        "verdicts": dict(sheet.verdicts),
        "overall": sheet.overall,
    }
    rows = None
    if args.table or args.csv:
        rows = [["r", "value_num", "value_den"]]
        rows += [[r, v.numerator, v.denominator] for r, v in sheet.exact_by_r]
    code = EXIT_OK if sheet.overall == intervals.HOLDS else (
        EXIT_VIOLATION if sheet.overall == intervals.VIOLATED else EXIT_INCONCLUSIVE)
    return result, code, rows


def _estimate_exact_and_bounds(spec_name, d, ctx, budget):
    """Attach a registered exact value and theory bounds when available."""
    m = re.match(r"^pc-large-degree\((\d+)\)$", spec_name)
    if m:
        b = int(m.group(1))
        q_base = round(ctx.order ** (1 / b))
        if q_base ** b == ctx.order and d >= 2 and b >= 2:
            exact = quokka.thm_pc_m_exact(d, q_base, b)
            bound = quokka.thm_pc_m_bound(d, q_base, b)
            return exact, (("algebra-lower-bound", ">=", bound),)
    if ctx.order ** (d * d) <= 65536:
        spec = census.get_spec(spec_name)
        fc = census.census_exact(spec, d, ctx, budget=budget, check_ni=False)
        return fc.proportion_in_m, ()
    return None, ()


def cmd_estimate(args):
    ctx = gf.parse_field_descriptor(args.q)
    spec = census.get_spec(args.spec)
    exact, bounds = _estimate_exact_and_bounds(spec.name, args.d, ctx, args.budget)
    report = estimate.monte_carlo(spec.member, args.d, ctx, args.n, args.seed,
                                  name=spec.name, exact=exact, bounds=bounds,
                                  budget=args.budget)
    result = {
        "spec": report.name,
        "d": report.d,
        "q": report.q,
        "n": report.n,
        "successes": report.successes,
        "estimate": report.estimate,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "exact": report.exact,
        "exact_in_ci": report.exact_in_ci,
        "bounds": [
            {"name": b.name, "direction": b.direction, "bound": b.bound,
             "verdict": b.verdict}
            for b in report.bounds
        ],
    }
    verdicts = [b.verdict for b in report.bounds]
    if intervals.VIOLATED in verdicts:
        code = EXIT_VIOLATION
    elif intervals.INCONCLUSIVE in verdicts:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    bound_repr = ""
    verdict_repr = ""
    if report.bounds:
        bound_repr = f"{float(report.bounds[0].bound.lo):.6g}"
        verdict_repr = report.bounds[0].verdict
    rows = [["instance", "n", "estimate", "ci_low", "ci_high",
             "exact_num", "exact_den", "bound", "verdict"],
            [f"{spec.name}:d={args.d},q={ctx.order}", report.n,
             f"{report.estimate:.8f}", f"{report.ci_low:.8f}", f"{report.ci_high:.8f}",
             report.exact.numerator if report.exact is not None else "",
             report.exact.denominator if report.exact is not None else "",
             bound_repr, verdict_repr]]
    return result, code, rows


def cmd_decompose(args):
    M = matrix.parse_matrix(args.matrix)
    split = matrix.fitting_decompose(M)
    prim = matrix.primary_components(M)
    result = {
        "input": matrix.format_matrix(M),
        "charpoly": matrix.charpoly(M),
        "minpoly": matrix.minpoly(M),
        "fitting": {
            "inv_dim": split.inv_dim,
            "nil_dim": split.nil_dim,
            "inv_basis": [list(r) for r in split.inv_basis],
            "nil_basis": [list(r) for r in split.nil_basis],
            "x_inv": [list(r) for r in split.x_inv.rows],
            "x_nil": [list(r) for r in split.x_nil.rows],
        },
        "primary_components": [
            {"f": f, "dim": len(basis), "charpoly_multiplicity": m_f,
             "minpoly_multiplicity": e_f, "basis": [list(r) for r in basis]}
            for f, basis, m_f, e_f in prim.components
        ],
    }
    return result, EXIT_OK, None


def cmd_pc_test(args):
    tower = embed.parse_tower(args.tower)
    M = matrix.parse_matrix(args.matrix)
    if M.ctx.order != tower.ext.order:
        raise ParseError(
            f"matrix field {M.ctx.order} does not match tower extension {tower.ext.order}")
    if M.ctx is not tower.ext:
        tower = embed.make_tower(M.ctx, tower.base)
    res = embed.pc_membership(M, tower)
    result = {
        "member": res.member,
        "f": res.witness_f,
        "g": res.witness_g,
        "r": res.r,
        "inv_dim": res.inv_dim,
    }
    return result, EXIT_OK, None


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteCheck:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str


def _verdict_status(verdict):
    return {"holds": "pass", "violated": "fail", "inconclusive": "inconclusive"}[verdict]


_AUDIT_SPECS = ("all", "invertible", "nilpotent-complement",
                "primary-cyclic-some-f-not-t", "separable", "unipotent",
                "has-eigenvalue(1)", "has-eigenvalue(0)")


def suite_theorem1(budget=None, seed=42):
    """Flag-sum identity by brute force on (2,2), (2,3), (3,2) + NI audits."""
    checks = []
    anchors = {(2, 2): (11, Fraction(11, 6))}
    for d, q in [(2, 2), (2, 3), (3, 2)]:
        ctx = gf.field_create(*gf.factor_int(q).popitem())
        fc = census.census_exact(census.get_spec("primary-cyclic-some-f-not-t"),
                                 d, ctx, budget=budget)
        ok = fc.lhs == fc.rhs
        if (d, q) in anchors:
            n_exp, lhs_exp = anchors[(d, q)]
            ok = ok and fc.n_total == n_exp and fc.lhs == lhs_exp
            ok = ok and Fraction(fc.per_i[2].n_i, fc.per_i[2].gl_i) == Fraction(5, 6)
        checks.append(SuiteCheck(
            f"flag-sum primary-cyclic-some-f-not-t d={d} q={q}",
            "pass" if ok else "fail",
            f"|N|={fc.n_total}, lhs={fc.lhs}, rhs={fc.rhs}"))
    for q in (2, 3):
        ctx = gf.field_create(q)
        for name in _AUDIT_SPECS:
            rep = census.ni_verify(census.get_spec(name), 2, ctx, budget=budget)
            checks.append(SuiteCheck(
                f"ni-audit {name} d=2 q={q}",
                "pass" if rep.ok else "fail",
                f"matrices={rep.matrices_checked}, conjugations={rep.conjugations_checked}, "
                f"violations={len(rep.violations)}"))
    return checks


def suite_corollary_sums(budget=None, seed=42):
    checks = []
    for q in (2, 3, 4, 5, 7):
        ok = True
        for d in range(0, 9):
            cs = census.corollary_sum_check(d, q)
            ok = ok and cs.holds
        checks.append(SuiteCheck(f"telescoping sums q={q} d<=8",
                                 "pass" if ok else "fail", "exact rational equality"))
    return checks


def suite_lemma31(budget=None, seed=42):
    checks = []
    for d, q in [(2, 2), (2, 3), (3, 2)]:
        ctx = gf.field_create(*gf.factor_int(q).popitem())
        for name in ("all", "invertible", "nilpotent-complement",
                     "primary-cyclic-some-f-not-t", "separable", "unipotent"):
            fc = census.census_exact(census.get_spec(name), d, ctx, budget=budget)
            ok = all(
                p.n_of_i == census.gaussian_binomial(d, p.i, q) * q ** ((d - p.i) * (d - 1)) * p.n_i
                for p in fc.per_i)
            checks.append(SuiteCheck(
                f"count-identity {name} d={d} q={q}",
                "pass" if ok else "fail",
                f"N(i)={[p.n_of_i for p in fc.per_i]}"))
    for q in (2, 3):
        ctx = gf.field_create(q)
        for n in (1, 2, 3):
            cnt = sum(1 for M in matrix.all_matrices(n, ctx, budget=budget)
                      if matrix.is_nilpotent(M))
            expected = q ** (n * n - n)
            checks.append(SuiteCheck(
                f"nilpotent-count n={n} q={q}",
                "pass" if cnt == expected else "fail",
                f"counted {cnt}, expected {expected}"))
    return checks


def suite_quokka_closed_forms(budget=None, seed=42):
    checks = []
    for c, b, q, r in [(2, 1, 2, 2), (2, 1, 3, 2), (1, 2, 2, 1), (2, 2, 2, 2), (3, 1, 2, 2)]:
        pf = gf.factor_int(q)
        ((p, m),) = pf.items()
        tower = embed.make_tower(gf.field_create(p, m * b), gf.field_create(p, m))
        counts, gl_size = embed.pc_counts_by_f(c, tower, r, budget=budget)
        expected = Fraction(b, q ** (b * r) - 1)
        ok = all(Fraction(cnt, gl_size) == expected for cnt in counts.values())
        ok = ok and len(counts) == poly.irr_count(b * r, q)
        checks.append(SuiteCheck(
            f"closed-form b/(q^br - 1) c={c} b={b} q={q} r={r}",
            "pass" if ok else "fail",
            f"{len(counts)} polynomials, |GL|={gl_size}, expected {expected}"))
    grid_ok = True
    for c in range(1, 7):
        for b in (1, 2, 3):
            for q in (2, 3):
                for r in range(c // 2 + 1, c + 1):
                    single = quokka.quokka_pc_single(c, q, b, r)
                    if single != Fraction(b, q ** (b * r) - 1):
                        grid_ok = False
    checks.append(SuiteCheck("class-sum collapse c<=6 b<=3 q in {2,3}",
                             "pass" if grid_ok else "fail", "exact rational identity"))
    for d, q in [(2, 2), (2, 3), (3, 2)]:
        ctx = gf.field_create(*gf.factor_int(q).popitem())
        ok = True
        for M in matrix.all_invertible(d, ctx, budget=budget):
            s, _ = matrix.jordan_multiplicative(M)
            if matrix.charpoly(M) != matrix.charpoly(s):
                ok = False
                break
        checks.append(SuiteCheck(
            f"charpoly-of-semisimple-part GL({d},{q})",
            "pass" if ok else "fail", "exhaustive"))
    return checks


def suite_prop_polys(budget=None, seed=42):
    checks = []
    tower = embed.parse_tower("4/2")
    for c, total in [(1, 4), (2, 256)]:
        agree = 0
        checked = 0
        for idx in range(total):
            X = matrix.matrix_from_index(tower.ext, c, idx)
            for f in embed.qualifying_divisors(X, tower):
                checked += 1
                if embed.proposition_check(X, f, tower).agree:
                    agree += 1
        checks.append(SuiteCheck(
            f"blow-up-equivalence M({c},4) exhaustive",
            "pass" if agree == checked else "fail",
            f"{agree}/{checked} instances agree"))
    expectation = {(1, 2, 2): 2}
    for r, b, q in [(1, 2, 2), (2, 2, 2), (1, 3, 2), (2, 2, 3)]:
        rep = poly.regular_orbit_report(r, b, q, budget=budget)
        ok = rep["supports"] in ("b*|Irr_br(q)|", "both")
        if (r, b, q) in expectation:
            ok = ok and rep["count"] == expectation[(r, b, q)]
        checks.append(SuiteCheck(
            f"regular-orbit-count r={r} b={b} q={q}",
            "pass" if ok else "fail",
            f"count={rep['count']}, b-formula={rep['b_formula']}, "
            f"r-formula={rep['r_formula']}, supports {rep['supports']}"))
    return checks


def suite_bounds(budget=None, seed=42):
    checks = []
    sandwich_ok = True
    for q in (2, 3, 4, 5):
        for b in (1, 2, 3, 4):
            for c in range(1, 13):
                for r in range(c // 2 + 1, c + 1):
                    if b * r < 2:
                        continue  # Irr_1 contains t; the closed form starts at degree 2
                    try:
                        quokka.quokka_pc_r(c, q, b, r)
                    except AssertionError:
                        sandwich_ok = False
    checks.append(SuiteCheck("per-degree sandwich grid c<=12 b<=4 q in {2,3,4,5}",
                             "pass" if sandwich_ok else "fail", "exact vs enclosure"))
    verdicts = [quokka.harmonic_band_verdict(c) for c in range(2, 13)]
    checks.append(SuiteCheck("harmonic band c in [2,12]",
                             _verdict_status(intervals.combine_verdicts(verdicts)),
                             "partial harmonic sums vs log 2 enclosure"))
    band = []
    for q in (2, 3, 4, 5):
        for b in (1, 2, 3, 4):
            for c in range(2, 13):
                band.append(quokka.ngl_band_verdict(c, q, b))
    checks.append(SuiteCheck("group-proportion band grid",
                             _verdict_status(intervals.combine_verdicts(band)),
                             f"{len(band)} instances"))
    power_ok = True
    for d in range(1, 13):
        for q in (2, 3, 4, 5):
            lhs, rhs = census.power_sum_bound_check(d, q)
            power_ok = power_ok and lhs < rhs
    checks.append(SuiteCheck("geometric-over-index sum bound d<=12",
                             "pass" if power_ok else "fail", "d*sum q^i/i < 3q^d"))
    # transfer bound against enumerated data
    a = Fraction(5, 6)
    ok = True
    for d in (2, 3):
        ctx = gf.field_create(2)
        fc = census.census_exact(census.get_spec("primary-cyclic-some-f-not-t"),
                                 d, ctx, budget=budget)
        k = census.fit_linear_k(fc.per_i, a)
        if k <= 0:
            k = Fraction(1, 1000)
        bound = census.transfer_bound_linear(a, k, d, 2)
        if fc.proportion_in_m < bound.tight or bound.tight < bound.relaxed:
            ok = False
    checks.append(SuiteCheck("linear transfer bound vs enumeration d in {2,3} q=2",
                             "pass" if ok else "fail", f"a={a}, fitted k per instance"))
    return checks


def suite_thm15(budget=None, seed=42):
    n = 200_000
    checks = []
    tower = embed.parse_tower("4/2")
    members, total = embed.pc_membership_count(2, tower, budget=budget)
    exact = quokka.thm_pc_m_exact(2, 2, 2)
    ok = Fraction(members, total) == exact
    checks.append(SuiteCheck(
        "exhaustive M(2,4) equals closed-form assembly",
        "pass" if ok else "fail",
        f"{members}/{total} vs {exact}"))
    rows = estimate.compare([(8, 2, 2), (6, 3, 2)], n=n, seed=seed, budget=budget)
    for row in rows:
        ok = row.exact_in_ci
        detail = (f"estimate={row.report.estimate:.6f}, "
                  f"ci=[{row.report.ci_low:.6f},{row.report.ci_high:.6f}], "
                  f"exact={float(row.exact):.6f}, bound_positive={row.bound_positive}")
        if row.bound_positive:
            ok = ok and row.report.ci_low > float(row.bound.hi)
        checks.append(SuiteCheck(
            f"interval coverage c={row.c} q={row.q} b={row.b} n={row.n}",
            "pass" if ok else "fail", detail))
    verdict = quokka.thm_pc_m_verdict(8, 2, 2)
    checks.append(SuiteCheck("exact >= algebra bound (8,2,2)",
                             _verdict_status(verdict), "exact rational vs enclosure"))
    return checks


_SUITES = {
    "theorem1": suite_theorem1,
    "corollary-sums": suite_corollary_sums,
    "lemma31": suite_lemma31,
    "quokka-closed-forms": suite_quokka_closed_forms,
    "prop-polys": suite_prop_polys,
    "bounds": suite_bounds,
    "thm15": suite_thm15,
}


def run_suite(name, budget=None, seed=42):
    """Run one named suite; returns the list of SuiteCheck records.

    Every suite takes the seed; only the sampling ones (thm15) read it.
    """
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(_SUITES))}")
    return _SUITES[name](budget=budget, seed=seed)


def cmd_verify(args):
    checks = run_suite(args.suite, budget=args.budget, seed=args.seed)
    result = {
        "suite": args.suite,
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                   for c in checks],
        "passed": sum(1 for c in checks if c.status == "pass"),
        "failed": sum(1 for c in checks if c.status == "fail"),
        "inconclusive": sum(1 for c in checks if c.status == "inconclusive"),
    }
    if result["failed"]:
        code = EXIT_VIOLATION
    elif result["inconclusive"]:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return result, code, None


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _checked_int(ok, rule):
    """argparse type: an int for which ok(value) holds."""
    def parse(text):
        if not ok(value := int(text)):
            raise argparse.ArgumentTypeError(f"{value} is not {rule}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser():
    parser = _Parser(prog="nicensus",
                     description="Exact and sampled censuses of nilpotent-independent "
                                 "matrix families over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _checked_int(lambda v: v >= 1, "a positive integer")

    def common(p, seed_default=42):
        p.add_argument("--json", metavar="PATH", help="write the JSON document here")
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration cap in cells (default 2^24 or NICENSUS_BUDGET)")
        p.add_argument("--seed", type=int, default=seed_default)

    p = sub.add_parser("census", help="exhaustive flag-sum census of a named family")
    p.add_argument("--spec", required=True)
    p.add_argument("--d", required=True, type=_checked_int(
        lambda v: v >= 0, "a nonnegative integer"))
    p.add_argument("--q", required=True, help="field descriptor, e.g. 2 or 2^2")
    p.add_argument("--flag-check", action="store_true",
                   help="also recompute the per-dimension counts under conjugated flags")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("quokka", help="torus class sums, closed forms and bands")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--q", required=True, type=_checked_int(
        lambda v: v > 1 and len(gf.factor_int(v)) == 1, "a prime power"))
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_quokka)

    p = sub.add_parser("estimate", help="Monte Carlo proportion with Wilson interval")
    p.add_argument("--spec", required=True)
    p.add_argument("--d", type=positive, required=True)
    p.add_argument("--q", required=True, help="field descriptor of the matrix entries")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--csv", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decompose", help="invertible/nilpotent split and primary components")
    p.add_argument("--matrix", required=True, help='text form "d q^k : e11 e12 ..."')
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pc-test", help="large-degree primary cyclic membership")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tower", required=True, help='tower descriptor, e.g. "4/2"')
    common(p)
    p.set_defaults(func=cmd_pc_test)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(_SUITES)))
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _parameters_of(args):
    skip = {"func", "command", "json", "csv"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _write_csv(path, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result, code, csv_rows = args.func(args)
    except (ParseError, UnknownSuite) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NIViolation as exc:
        doc = {"error": "ni-violation", "message": str(exc)}
        if exc.witness is not None:
            doc["witness"] = to_jsonable(exc.witness)
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return EXIT_VIOLATION
    except NicensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    manifest = build_manifest(args.command, _parameters_of(args),
                              getattr(args, "seed", None), result)
    document = canonical_json({"manifest": manifest, "result": result})
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(document + "\n")
    print(document)
    if csv_rows and getattr(args, "csv", None):
        _write_csv(args.csv, csv_rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
