"""Command-line surface: JSON determinism, exit codes, subcommand outputs."""

import argparse
import ast
import inspect
import io
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicensus import census, cli, estimate, gf, matrix


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_decompose_diag(capsys):
    code, out = run_cli(["decompose", "--matrix", "2 2 : 1 0 0 0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fitting"]["inv_dim"] == 1
    assert doc["result"]["fitting"]["nil_dim"] == 1
    assert doc["manifest"]["subcommand"] == "decompose"
    assert len(doc["manifest"]["digest"]) == 64


def test_decompose_companion_has_empty_nil_part(capsys):
    code, out = run_cli(["decompose", "--matrix", "2 2 : 0 1 1 1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fitting"]["nil_dim"] == 0
    assert doc["result"]["charpoly"]["coeffs"] == [1, 1, 1]


def test_decompose_splits_equal_degree_block_over_large_field(capsys):
    # companion(t^2 + 3t + 1) + companion(t^2 + 3t + 3) over F_2^14: two
    # distinct irreducible quadratics, split without enumerating 16384^2
    # candidates
    code, out = run_cli(["decompose", "--matrix",
                         "4 2^14 : 0 1 0 0 1 3 0 0 0 0 0 1 0 0 3 3"], capsys)
    assert code == 0
    comps = json.loads(out)["result"]["primary_components"]
    assert [c["f"]["coeffs"] for c in comps] == [[1, 3, 1], [3, 3, 1]]
    assert all(c["dim"] == 2 and c["charpoly_multiplicity"] == 1
               and c["minpoly_multiplicity"] == 1 for c in comps)


def test_decompose_runs_one_primary_analysis(capsys, monkeypatch):
    # one primary analysis, and one charpoly inside it: the charpoly field
    # is the product of the components' f^(m_f)
    calls, charpolys = [], []
    analyse, charpoly = matrix.primary_components, matrix.charpoly
    monkeypatch.setattr(matrix, "primary_components", lambda M: calls.append(M) or analyse(M))
    monkeypatch.setattr(matrix, "charpoly", lambda M: charpolys.append(M) or charpoly(M))
    code, out = run_cli(["decompose", "--matrix", "3 3 : 1 2 0 0 0 1 2 1 0"], capsys)
    assert code == 0 and len(calls) == 1 and len(charpolys) == 1
    result = json.loads(out)["result"]
    assert result["minpoly"]["coeffs"] == [0, 2, 2, 1]
    assert result["charpoly"]["coeffs"] == [0, 2, 2, 1]


def test_decompose_parse_error_exit_4(capsys):
    code = cli.main(["decompose", "--matrix", "2 2 : 1 0 0"])
    capsys.readouterr()
    assert code == 4


def test_pc_test_member_and_nonmember(capsys):
    code, out = run_cli(["pc-test", "--matrix", "1 2^2/7 : 2", "--tower", "4/2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is True
    assert doc["result"]["f"]["coeffs"] == [1, 1, 1]
    assert doc["result"]["r"] == 1

    code, out = run_cli(["pc-test", "--matrix", "1 2^2/7 : 1", "--tower", "4/2"], capsys)
    doc = json.loads(out)
    assert doc["result"]["member"] is False

    code, out = run_cli(["pc-test", "--matrix", "2 2^2/7 : 1 0 0 1", "--tower", "4/2"], capsys)
    doc = json.loads(out)
    assert doc["result"]["member"] is False


def test_census_anchor_json(capsys):
    code, out = run_cli(["census", "--spec", "primary-cyclic-some-f-not-t",
                         "--d", "2", "--q", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["n_total"] == 11
    assert res["lhs"] == {"num": "11", "den": "6"}
    assert res["identity_holds"] is True


def test_byte_identical_repeat_runs(capsys):
    args = ["quokka", "--c", "4", "--q", "3", "--b", "2"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    digest1 = json.loads(first)["manifest"]["digest"]
    digest2 = json.loads(second)["manifest"]["digest"]
    assert digest1 == digest2


def test_verify_repeat_runs_share_no_memo_state(capsys):
    suites = ("theorem1", "prop-polys", "lemma31", "bounds")
    first = [run_cli(["verify", "--suite", s], capsys) for s in suites]
    second = [run_cli(["verify", "--suite", s], capsys) for s in reversed(suites)]
    assert first == second[::-1]
    assert all(code == 0 for code, _ in first)


def test_estimate_csv(tmp_path, capsys):
    out_csv = tmp_path / "est.csv"
    code, out = run_cli(["estimate", "--spec", "invertible", "--d", "2", "--q", "2",
                         "--n", "2000", "--seed", "9", "--csv", str(out_csv)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] == {"num": "3", "den": "8"}
    import csv as csvmod
    with open(out_csv) as fh:
        header, row = list(csvmod.reader(fh))
    assert header == ["instance", "n", "estimate", "ci_low", "ci_high",
                      "exact_num", "exact_den", "bound", "verdict"]
    assert row[5:7] == ["3", "8"]


def test_estimate_pc_large_degree_attaches_bound(capsys):
    code, out = run_cli(["estimate", "--spec", "pc-large-degree(2)", "--d", "2",
                         "--q", "2^2", "--n", "1000", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] == {"num": "7", "den": "16"}
    assert doc["result"]["bounds"][0]["verdict"] == "holds"


def test_estimate_pc_large_degree_over_large_field_decides(capsys):
    # 4x4 over F_2^14: every sample is decided, so no error exit
    code, out = run_cli(["estimate", "--spec", "pc-large-degree(2)", "--d", "4",
                         "--q", "2^14", "--n", "100", "--seed", "42"], capsys)
    assert code in (0, 3)
    assert json.loads(out)["result"]["n"] == 100


def test_estimate_rejects_tower_degree_flag(capsys):
    code = cli.main(["estimate", "--spec", "pc-large-degree(2)", "--d", "2",
                     "--q", "2^2", "--n", "10", "--b", "2"])
    capsys.readouterr()
    assert code == 4


def test_quokka_rejects_table_flag(capsys):
    code = cli.main(["quokka", "--c", "4", "--q", "3", "--b", "2", "--table"])
    capsys.readouterr()
    assert code == 4


def test_quokka_single_r(capsys):
    code, out = run_cli(["quokka", "--c", "2", "--q", "2", "--b", "1", "--r", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["per_polynomial"] == {"num": "1", "den": "3"}


def test_quokka_per_degree_at_b_r_1(capsys):
    # at b*r = 1 every nonzero scalar is (t - a)-primary cyclic: pc_r is 1
    for q in (2, 3, 4, 5):
        code, out = run_cli(["quokka", "--c", "1", "--q", str(q), "--b", "1", "--r", "1"],
                            capsys)
        assert code == 0
        assert json.loads(out)["result"]["per_degree"] == {"num": "1", "den": "1"}


def test_verify_fast_suite(capsys):
    code, out = run_cli(["verify", "--suite", "corollary-sums"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] == 5


def _patched_suite_statuses(flags, patch, suite, prefix):
    """Statuses of a suite's checks named prefix..., run in python with flags after patch."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("from fractions import Fraction\n"
            "from nicensus import cli, quokka\n"
            f"{patch}\n"
            f"print(*(c.status for c in cli.{suite}() if c.name.startswith({prefix!r})))\n")
    run = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.split()


def test_bounds_sandwich_check_fails_under_python_O():
    # -O strips asserts, so the bounds suite must decide the per-degree
    # sandwich by a verdict: a value of 2/r breaks its upper bound 1/r.
    assert _patched_suite_statuses(["-O"], "quokka.pc_r = lambda q, b, r: Fraction(2, r)",
                                   "suite_bounds", "per-degree") == ["fail"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_class_sum_check_fails_instead_of_raising(flags):
    # quokka asserts no class-sum identity, so a wrong closed form
    # b/(2(q^br - 1)) is reported as a failed check, with or without -O;
    # so is a sum that misses the cycle type (c), 1/c of S_c, at r = c
    patches = [
        "quokka.quokka_pc_single = lambda c, q, b, r: Fraction(b, 2 * (q ** (b * r) - 1))",
        "quokka.cycle_types = (lambda full: lambda c: full(c)[1:])(quokka.cycle_types)",
    ]
    for patch in patches:
        assert _patched_suite_statuses(flags, patch, "suite_quokka_closed_forms",
                                       "class-sum") == ["fail"], patch


def test_verify_thm15_samples_at_seed(monkeypatch, capsys):
    seen = []
    sample = estimate.monte_carlo

    def record(predicate, d, ctx, n, seed, budget=None):
        seen.append(seed)
        return sample(predicate, d, ctx, 200, seed, budget=budget)

    monkeypatch.setattr(estimate, "monte_carlo", record)
    code, out = run_cli(["verify", "--suite", "thm15", "--seed", "7"], capsys)
    assert code == 0
    assert seen == [7, 7]
    assert json.loads(out)["manifest"]["seed"] == 7


def test_unknown_suite_exit_4(capsys):
    code = cli.main(["verify", "--suite", "nope"])
    capsys.readouterr()
    assert code == 4


def test_unknown_spec_exit_4(capsys):
    code = cli.main(["census", "--spec", "bogus", "--d", "2", "--q", "2"])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize("spec", ["pc-large-degree(\u0663)", "has-eigenvalue(\u00b2)"])
def test_non_ascii_spec_argument_exit_4(spec, capsys):
    # int() reads the Arabic-Indic three as 3, but a spec's argument is ASCII
    code = cli.main(["census", "--spec", spec, "--d", "2", "--q", "2"])
    capsys.readouterr()
    assert code == 4


def test_usage_error_exit_4(capsys):
    code = cli.main(["census", "--d", "2"])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["estimate", "--spec", "all", "--d", "2", "--q", "2", "--n", "0"],
    ["estimate", "--spec", "all", "--d", "2", "--q", "2", "--n", "-3"],
    ["estimate", "--spec", "all", "--d", "0", "--q", "2", "--n", "10"],
    ["census", "--spec", "all", "--d", "-1", "--q", "2"],
    ["quokka", "--c", "2", "--q", "1", "--b", "2"],
    ["quokka", "--c", "2", "--q", "0", "--b", "2"],
    ["quokka", "--c", "2", "--q", "6", "--b", "2"],
    ["estimate", "--spec", "pc-large-degree(0)", "--d", "2", "--q", "2", "--n", "10"],
    ["estimate", "--spec", "has-eigenvalue(1-2)", "--d", "2", "--q", "2", "--n", "10"],
    ["census", "--spec", "pc-large-degree(--)", "--d", "2", "--q", "2"],
    ["decompose", "--matrix", "-1 2 : 1"],
    ["pc-test", "--matrix", "-1 2^2 : 1", "--tower", "4/2"],
], ids=["n0", "n-3", "estimate-d0", "census-d-1", "quokka-q1", "quokka-q0", "quokka-q6",
        "pc-large-degree0", "spec-arg-1-2", "spec-arg-dashes", "decompose-d-1", "pc-test-d-1"])
def test_out_of_range_arguments_exit_4(argv, capsys):
    assert cli.main(argv) == 4
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("a", ["4", "-1", "99999999999999999999"], ids=["q", "neg", "huge"])
@pytest.mark.parametrize("command", ["census", "estimate"])
def test_has_eigenvalue_outside_the_field_exit_4(command, a, capsys):
    # F_4's elements are 0..3, the range matrix entries are checked against
    argv = [command, "--spec", f"has-eigenvalue({a})", "--d", "1", "--q", "2^2"]
    assert cli.main(argv + (["--n", "10"] if command == "estimate" else [])) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "outside field of order 4" in err


@pytest.mark.parametrize("a, successes", [(0, 70), (1, 66), (2, 56), (3, 44)])
def test_has_eigenvalue_inside_the_field_counts(a, successes, capsys):
    # X -> X + (a - b) I carries eigenvalue b to a: each a has the 256 - 180
    # singular matrices' count in M(2, 4)
    spec = ["--spec", f"has-eigenvalue({a})", "--d", "2", "--q", "2^2"]
    code, out = run_cli(["census", *spec], capsys)
    assert code == 0 and json.loads(out)["result"]["n_total"] == 76
    code, out = run_cli(["estimate", *spec, "--n", "200"], capsys)
    result = json.loads(out)["result"]
    assert code == 0 and (result["successes"], result["exact"]) == \
        (successes, {"num": "19", "den": "64"})


@pytest.mark.parametrize("argv", [
    ["census", "--spec", "all", "--d", "1", "--q", "1000000000000000003"],
    ["census", "--spec", "all", "--d", "1", "--q", "2^3000000000"],
    ["pc-test", "--matrix", "1 2 : 1", "--tower", "2^3000000000/2"],
    ["pc-test", "--matrix", "1 2 : 1", "--tower", "1000000000000000003/2"],
], ids=["census-prime-1e18", "census-2^3e9", "tower-2^3e9", "tower-prime-1e18"])
def test_oversized_fields_exit_4(argv, capsys):
    assert cli.main(argv) == 4
    assert "exceeds the supported size" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,value", [
    (["pc-test", "--matrix", "1 2^17 : 5", "--tower", "2^17/2"], "member", True),
    (["estimate", "--spec", "pc-large-degree(17)", "--d", "2", "--q", "2^17", "--n", "5"],
     "successes", 3),
    (["pc-test", "--matrix", "2 2^18 : 1 2 3 4", "--tower", "2^18/2^9"], "member", True),
    (["estimate", "--spec", "pc-large-degree(2)", "--d", "2", "--q", "2^18", "--n", "20"],
     "successes", 4),
], ids=["pc-test", "estimate", "pc-test-2^18", "estimate-2^18"])
def test_towers_past_the_log_table_tier_exit_0(argv, key, value, capsys):
    # K = F_2^17 or F_2^18 has no log tables, and its tower builds no table
    # of K: the direct route (pc-test) reads coordinates off one inverse
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["result"][key] == value


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", [
    ["census", "--spec", "all", "--d", "3000", "--q", "2"],
    ["census", "--spec", "all", "--d", "100000", "--q", "2"],
    ["estimate", "--spec", "all", "--d", "100000", "--q", "2", "--n", "1"],
], ids=["census-d3000", "census-d100000", "estimate-d100000"])
def test_oversized_enumerations_are_refused_in_the_exponent(argv, capsys):
    # 2^(10^10) would be a 1.25 GB integer: the gate must refuse it uncomputed,
    # and name it as q^e, not by its digits
    with time_limit(2):
        assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "exceed the cap" in err and not re.search(r"[0-9]{31}", err)


def test_quokka_r_needs_no_enumeration(capsys):
    # S_149 has about 10^11 cycle types, S_59 about 10^6: the value is their
    # closed form, not a sum over them
    for c, r in [(300, 151), (120, 61)]:
        with time_limit(2):
            assert cli.main(["quokka", "--c", str(c), "--q", "2", "--b", "2", "--r", str(r)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["per_polynomial"] == \
            {"num": "2", "den": str(4 ** r - 1)}


def test_quokka_c_is_refused_past_its_closed_form_work(capsys):
    # c^2 b bit_length(q) <= 2^17: at q = 2, b = 4 the largest admitted c is 128
    with time_limit(10):
        assert cli.main(["quokka", "--c", "128", "--q", "2", "--b", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["c"] == 128
    for c, b in [(129, 4), (300, 2), (10 ** 9, 2), (2, 10 ** 9)]:
        with time_limit(1):
            assert cli.main(["quokka", "--c", str(c), "--q", "2", "--b", str(b)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "exceed the cap 131072" in captured.err


def test_quokka_r_is_refused_past_its_closed_form_work(capsys):
    # b r bit_length(q) <= 2^17: at q = 2, b = 1 the largest admitted r is 65536
    with time_limit(5):
        assert cli.main(["quokka", "--c", "65535", "--q", "2", "--b", "1", "--r", "65535"]) == 0
    value = json.loads(capsys.readouterr().out)["result"]["per_polynomial"]
    assert value["num"] == "1" and len(value["den"]) == 19729  # the digits of 2^65535 - 1
    for c, q, b, r in [(4000001, 2, 1, 2000001), (65537, 2, 1, 65537), (1, 2, 10 ** 9, 1),
                       (2 ** 70, 3, 1, 2 ** 70), (2, 2 ** 62, 2081, 2)]:
        with time_limit(1):
            assert cli.main(["quokka", "--c", str(c), "--q", str(q), "--b", str(b),
                             "--r", str(r)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "exceed the cap 131072" in captured.err


def test_estimate_is_refused_past_its_closed_form_work(capsys):
    # the closed form of pc-large-degree(2) over F_4 = F_2^2 admits
    # d^2 b bit_length(q) <= 2^17: d = 181 is computed, d = 182 is refused
    spec = census.get_spec("pc-large-degree(2)")
    with time_limit(20):
        exact, bounds = estimate.exact_and_bounds(spec, 181, gf.field_create(2, 2))
    assert 0 < exact < 1 and [name for name, _, _ in bounds] == ["algebra-lower-bound"]
    for d in (182, 400, 10 ** 9):
        with time_limit(1):
            assert cli.main(["estimate", "--spec", "pc-large-degree(2)", "--d", str(d),
                             "--q", "2^2", "--n", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and f"closed-form work at c={d} exceed the cap 131072" \
            in captured.err


def test_estimate_is_refused_past_one_samples_work(capsys):
    # a sample's charpoly takes about d^3 field operations: d^3 <= 2^24 admits d <= 256
    for d in (400, 4096):
        with time_limit(1):
            assert cli.main(["estimate", "--spec", "separable", "--d", str(d), "--q", "2",
                             "--n", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and (f"{d}^3 field operations per sample of M({d}, 2) "
                                       f"exceed the cap 16777216") in captured.err


_QUOKKA_INTS = st.one_of(st.integers(-2, 10),
                         st.sampled_from([0, -1, 10 ** 9, -10 ** 9, 2 ** 70, -2 ** 70]))


def _ends_in_an_exit_code(argv):
    """Whether argv, run in process, answers or refuses within 5 s."""
    with time_limit(5), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv) in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


# output paths: none, a writable file, a directory or a file under a missing directory
_OUTPUTS = st.sampled_from([None, "file", "dir", "missing"])


def _outputs(out_dir, **kinds):
    """The argv tail "--option PATH" for each output option whose kind is not None."""
    paths = {"file": out_dir / "out", "dir": out_dir, "missing": out_dir / "missing" / "out"}
    return [arg for option, kind in kinds.items() if kind is not None
            for arg in (f"--{option}", str(paths[kind]))]


@pytest.mark.parametrize("argv", [
    ["census", "--spec", "all", "--d", "1", "--q", "2", "--json"],
    ["quokka", "--c", "4", "--q", "2", "--b", "2", "--csv"],
    ["estimate", "--spec", "all", "--d", "1", "--q", "2", "--n", "4", "--csv"],
], ids=["census-json", "quokka-csv", "estimate-csv"])
@pytest.mark.parametrize("kind", ["dir", "missing"])
def test_unwritable_output_paths_exit_4(argv, kind, out_dir, capsys):
    path = _outputs(out_dir, out=kind)[1]
    assert cli.main(argv + [path]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and path in captured.err


@settings(max_examples=80, deadline=None)
@given(c=_QUOKKA_INTS, b=_QUOKKA_INTS, r=st.none() | _QUOKKA_INTS,
       q=st.sampled_from([2, 3, 4, 9, 2 ** 62, 10 ** 18, 6, 1, 0, -8]),
       json_to=_OUTPUTS, csv_to=_OUTPUTS)
@example(c=4, q=2, b=2, r=None, json_to=None, csv_to="dir")
def test_quokka_argv_ends_in_an_exit_code(c, q, b, r, json_to, csv_to, out_dir):
    # every path of quokka is bounded: each run answers or refuses in seconds
    argv = ["quokka", "--c", str(c), "--q", str(q), "--b", str(b)]
    argv += _outputs(out_dir, json=json_to, csv=csv_to)
    assert _ends_in_an_exit_code(argv + ([] if r is None else ["--r", str(r)]))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(["all", "separable", "has-eigenvalue(0)"]),
       d=_QUOKKA_INTS | st.sampled_from([400, 4096]),
       n=_QUOKKA_INTS | st.sampled_from([400, 4096]),
       q=st.sampled_from([2, 3, 4, 9, 2 ** 62, 10 ** 18, 6, 1, 0, -8]),
       json_to=_OUTPUTS, csv_to=_OUTPUTS)
def test_estimate_argv_ends_in_an_exit_code(spec, d, n, q, json_to, csv_to, out_dir):
    # specs without a closed form: each run samples, or refuses the samples' work, in seconds
    argv = ["estimate", "--spec", spec, "--d", str(d), "--q", str(q), "--n", str(n)]
    assert _ends_in_an_exit_code(argv + _outputs(out_dir, json=json_to, csv=csv_to))


def _mostly(good, bad):
    """Values of ``good`` three times in four, else of ``bad``."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda strategy: strategy)


# Field descriptors: the malformed ones join integer orders that are prime
# powers, that are not and that are past the field size, or p^k forms, to
# moduli that are well formed, malformed or negative.
_ORDERS = st.sampled_from(["2", "3", "4", "8", "9", "6", "12", "1", "0", "-4", "2^2", "3^2",
                           "2^0", "6^2", "2^-1", "x", "", "2^30", str(10 ** 18 + 3),
                           "2^3000000000"])
_MODULI = st.sampled_from(["", "/7", "/11", "/13", "/-7", "/-1", "/0", "/1", "/x", "/", "/7/3",
                           f"/{2 ** 70}", f"/-{2 ** 70}"])
_FIELDS = _mostly(st.sampled_from(["2", "3", "4", "8", "9", "16", "27", "2^2", "3^2", "4/7",
                                   "8/11", "2^3/13", "9/10"]),
                  st.builds(str.__add__, _ORDERS, _MODULI))


@st.composite
def _matrix_texts(draw, fields=_FIELDS):
    """Matrix texts of dimension -1 to 6: one entry, the entry count or the
    header may go wrong."""
    n = draw(_mostly(st.integers(0, 6), st.just(-1)))
    top = draw(st.sampled_from([1, 2, 3]))
    entries = [str(e) for e in draw(st.lists(st.integers(0, top), min_size=max(n, 0) ** 2,
                                             max_size=max(n, 0) ** 2))]
    fault = draw(_mostly(st.none(), st.sampled_from(["drop", "extra", "-1", "x", "26",
                                                     str(2 ** 70)])))
    if fault == "drop":
        entries = entries[:-1]
    elif fault is not None:
        entries = entries[:-1] + [fault if fault != "extra" else "0"] + entries[-1:]
    layout = draw(_mostly(st.just("{} {} : {}"),
                          st.sampled_from(["{} {} {}", "{} {} x : {}", "{}{} : {}"])))
    return layout.format(n, draw(fields), " ".join(entries))


_SPECS = _mostly(st.sampled_from(["all", "invertible", "nilpotent-complement",
                                  "primary-cyclic-some-f-not-t", "separable", "unipotent",
                                  "has-eigenvalue(0)", "has-eigenvalue(3)",
                                  "pc-large-degree(2)", "pc-large-degree(3)"]),
                 st.sampled_from(["has-eigenvalue(-1)", "pc-large-degree(0)",
                                  "pc-large-degree(x)", "all(2)", "bogus", ""]))


@settings(max_examples=80, deadline=None)
@given(spec=_SPECS, d=_mostly(st.integers(0, 4), st.sampled_from([-1, 3000, 10 ** 9])),
       q=_FIELDS, flag_check=st.booleans(),
       budget=_mostly(st.just(1 << 12), st.sampled_from([256, 16, 1, 0, -1])),
       seed=_QUOKKA_INTS, json_to=_OUTPUTS)
@example(spec="all", d=1, q="2^2/-7", flag_check=False, budget=16, seed=42, json_to=None)
@example(spec="all", d=1, q="2", flag_check=False, budget=16, seed=42, json_to="dir")
def test_census_argv_ends_in_an_exit_code(spec, d, q, flag_check, budget, seed, json_to,
                                          out_dir):
    # a budget of at most 2^12 matrices bounds every census that is admitted
    argv = ["census", "--spec", spec, "--d", str(d), "--q", q, "--budget", str(budget),
            "--seed", str(seed)] + _outputs(out_dir, json=json_to)
    assert _ends_in_an_exit_code(argv + (["--flag-check"] if flag_check else []))


@settings(max_examples=80, deadline=None)
@given(matrix=_matrix_texts())
@example(matrix="1 2^2/-7 : 1")
def test_decompose_argv_ends_in_an_exit_code(matrix):
    assert _ends_in_an_exit_code(["decompose", "--matrix", matrix])


# well-formed towers, each with a descriptor of its extension field
_TOWER_FIELDS = {"4/2": "4", "8/2": "2^3", "16/2": "16", "16/4": "2^4", "9/3": "9",
                 "27/3": "27", "2^2/2": "4/7", "9/9": "3^2"}
_TOWERS = st.sampled_from(sorted(_TOWER_FIELDS)) | st.sampled_from(
    ["4", "8/4", "6/2", "4/2/2", "2^2/7/2", "0/2", "x/2", "4/-2", "2^30/2", f"{10 ** 18 + 3}/2"])


@st.composite
def _pc_test_argvs(draw):
    tower = draw(_TOWERS)
    ext = _TOWER_FIELDS.get(tower)
    matrix = draw(_matrix_texts(_FIELDS if ext is None else st.just(ext) | _FIELDS))
    return ["pc-test", "--matrix", matrix, "--tower", tower]


@settings(max_examples=80, deadline=None)
@given(argv=_pc_test_argvs())
@example(argv=["pc-test", "--matrix", "1 2^2/-7 : 1", "--tower", "4/2"])
def test_pc_test_argv_ends_in_an_exit_code(argv):
    assert _ends_in_an_exit_code(argv)


@settings(max_examples=30, deadline=None)
@given(suite=st.sampled_from(["theorem1", "corollary-sums", "lemma31", "quokka-closed-forms",
                              "prop-polys", "bounds", "nope", "", "thm16"]),
       budget=st.none() | st.integers(-1, 1 << 12), seed=st.integers(-2, 2) | st.just(2 ** 70))
def test_verify_argv_ends_in_an_exit_code(suite, budget, seed):
    # thm15 is never drawn: it samples 2 x 200,000 matrices, far past the limit
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    assert _ends_in_an_exit_code(argv + ([] if budget is None else ["--budget", str(budget)]))


def test_results_past_the_int_digit_limit_are_written(capsys):
    # the exact rationals at c = 120 have more than 4,300 digits
    limit = sys.get_int_max_str_digits()
    with time_limit(10):
        assert cli.main(["quokka", "--c", "120", "--q", "2", "--b", "2"]) == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["result"]["algebra_exact"]["num"]) > limit


@pytest.mark.parametrize("q,code", [
    (10 ** 18 + 3, 0),  # prime
    ((10 ** 9 + 7) * (10 ** 9 + 9), 4),
    (2 ** 89 - 1, 4),  # prime, but past the exact range of the primality test
    (-8, 4),
], ids=["prime-1e18", "semiprime-1e18", "prime-2^89-1", "minus-8"])
def test_quokka_q_is_checked_without_trial_division(q, code, capsys):
    with time_limit(10):
        assert cli.main(["quokka", "--c", "2", "--q", str(q), "--b", "2"]) == code
    if code:
        assert "is not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--spec", "all", "--d", "1", "--q", "2^2/-7"],
    ["estimate", "--spec", "all", "--d", "1", "--q", "2^2/-7", "--n", "1"],
    ["decompose", "--matrix", "1 2^2/-7 : 1"],
    ["pc-test", "--matrix", "1 4/-7 : 1", "--tower", "4/2"],
], ids=["census", "estimate", "decompose", "pc-test"])
def test_a_negative_modulus_is_refused_at_once(argv, capsys):
    # its base-p digits, read off by floor division, would never reach 0
    with time_limit(1):
        assert cli.main(argv) == 4
    assert "modulus integer -7 is negative" in capsys.readouterr().err


def test_quokka_q_past_the_prime_power_cap_is_refused_at_once(capsys):
    for q in (10 ** 3999 + 7, 2 ** gf.PRIME_POWER_MAX_BITS):
        with time_limit(1):
            assert cli.main(["quokka", "--c", "2", "--q", str(q), "--b", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "is not a prime power" in captured.err


@pytest.mark.parametrize("order,power,tower", [
    ("4", "2^2", "4/2"), ("9", "3^2", "9/3"), ("4/7", "2^2/7", "2^2/2"),
])
def test_an_integer_order_gives_the_digest_of_its_prime_power(order, power, tower, capsys):
    for argv in (["census", "--spec", "separable", "--d", "2", "--q", "{}"],
                 ["estimate", "--spec", "pc-large-degree(2)", "--d", "2", "--q", "{}",
                  "--n", "50"],
                 ["decompose", "--matrix", "2 {} : 1 2 3 1"],
                 ["pc-test", "--matrix", "2 {} : 1 2 3 1", "--tower", tower]):
        digests = []
        for field in (order, power):
            code, out = run_cli([a.format(field) for a in argv], capsys)
            assert code == 0
            digests.append(json.loads(out)["manifest"]["digest"])
        assert digests[0] == digests[1], argv


PINNED = {
    **{f"verify-{suite}": (["verify", "--suite", suite], digest) for suite, digest
       in REFERENCE["workloads"]["verify-exact"]["digests"].items()},
    "pc-test": (["pc-test", "--matrix", "1 2^2/7 : 2", "--tower", "4/2"],
                "0a96ff5d6f759c9535a58c2e4739ee85b38529f2ee0ac24ed1f3af9b38b6e05e"),
    "census-flag-check": (
        ["census", "--spec", "primary-cyclic-some-f-not-t", "--d", "3", "--q", "2",
         "--flag-check"],
        "4d8acef26a5e231e73b147373008916a38501e11de232eccb90bb8c7c8b2361e"),
    "quokka-2^62": (["quokka", "--c", "2", "--q", str(2 ** 62), "--b", "2"],
                    "673f8c364cf3f24af4e46d53cc64e2792f986fe96b6125b4a570bbbce8f6ccef"),
    # nontrivial Fitting splits: both blocks nonempty
    "decompose-3x3-q3": (
        ["decompose", "--matrix", "3 3 : 1 2 0 0 0 1 2 1 0"],
        "9030711072fa37237c0747e5802145cbd74ddca855841028a8e5951cd5e22127"),
    "decompose-3x3-q4": (
        ["decompose", "--matrix", "3 2^2 : 2 2 3 0 0 3 3 3 3"],
        "9412e80f295c7f820de81a7791697ef76e97fa922ef177a4abb4f8f48f0737d1"),
    "decompose-4x4-q3": (
        ["decompose", "--matrix", "4 3 : 2 1 0 2 2 2 2 0 0 1 0 1 1 2 1 1"],
        "dc7d54a71465e0b6098fca960899c83f53ed9d43d8cc4998296ed100c8d18576"),
    "decompose-2x2-2^16": (
        ["decompose", "--matrix", "2 2^16 : 1 2 3 4"],
        "ca6c54f05edd5755bf4827809ea203f5b5f4af32750d9b76c4274128a814b6bd"),
    "estimate-pc-large-degree": (
        ["estimate", "--spec", "pc-large-degree(2)", "--d", "2", "--q", "2^2", "--n", "1000",
         "--seed", "1"],
        "641a8716726a744a3ed928c09be9a1c4c8fa850fc14f6259dc6926adcdc9fb0e"),
    "estimate-invertible": (
        ["estimate", "--spec", "invertible", "--d", "2", "--q", "2", "--n", "2000", "--seed", "9"],
        "1fc1035d4fcb39e05373a8febc933a1e7ce04b62116707cc75b95c4a07eb0cbf"),
    "quokka-r": (["quokka", "--c", "2", "--q", "2", "--b", "1", "--r", "2"],
                 "54e63745753e03e8d3abefbbea080543d3079d4afa834fb21c1fbf876aa3c239"),
    "quokka-6-2-2": (["quokka", "--c", "6", "--q", "2", "--b", "2"],
                     "45086d4bc6c15be49719090669eea42eb8b27e6c95a5e80a0d6defffed4e203a"),
    "quokka-8-3-3": (["quokka", "--c", "8", "--q", "3", "--b", "3"],
                     "723d0666c8a35379359ad926680d81f5bd7ddc57cb5811137695569fbaf81c59"),
}

# the CSV files of pinned runs, byte for byte
PINNED_CSV = {
    "estimate-invertible": (
        "instance,n,estimate,ci_low,ci_high,exact_num,exact_den,bound,verdict\n"
        '"invertible:d=2,q=2",2000,0.39150000,0.36379055,0.41992695,3,8,,\n'),
    "quokka-8-3-3": (
        "r,value_num,value_den\n5,1434864,7174453\n6,177381,1064342\n"
        "7,57474456,402321277\n8,43053201,344426264\n"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name, capsys):
    argv, digest = PINNED[name]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["digest"] == digest


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_pinned_csv(name, tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _ = run_cli(PINNED[name][0] + ["--csv", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == PINNED_CSV[name].encode()


@pytest.mark.parametrize("c,b", [(1, 2), (4, 1)])
def test_quokka_rejects_c_or_b_below_2(c, b, capsys):
    code = cli.main(["quokka", "--c", str(c), "--q", "2", "--b", str(b)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"error: need b, c >= 2, got c={c}, b={b}\n"


@pytest.mark.parametrize("name", sorted(cli._STATEMENTS))
def test_every_option_is_read_by_its_subcommand(name):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser = sub.choices[name]
    tree = ast.parse(inspect.getsource(parser.get_default("func")))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    options = {a.dest for a in parser._actions if a.option_strings} - {"help"}
    # main writes --json and --csv
    assert options - {"json", "csv"} <= read


@pytest.mark.parametrize("argv", [
    ["quokka", "--c", "2", "--q", "2", "--b", "2"],
    ["decompose", "--matrix", "1 2 : 1"],
    ["pc-test", "--matrix", "1 2^2/7 : 2", "--tower", "4/2"],
], ids=["quokka", "decompose", "pc-test"])
def test_subcommands_that_draw_and_enumerate_nothing_take_no_seed_or_budget(argv, capsys):
    code, out = run_cli(argv, capsys)
    manifest = json.loads(out)["manifest"]
    assert code == 0 and "seed" not in manifest and "seed" not in manifest["parameters"]
    for option in ("--seed", "--budget"):
        assert cli.main(argv + [option, "7"]) == 4
        assert "unrecognized arguments" in capsys.readouterr().err


def test_budget_flag(capsys):
    code = cli.main(["census", "--spec", "all", "--d", "3", "--q", "3", "--budget", "100"])
    capsys.readouterr()
    assert code == 4


def test_estimate_skips_the_exact_census_past_the_budget(capsys):
    # the 5 samples fit a budget of 10; the census over the 16 matrices does not
    code, out = run_cli(["estimate", "--spec", "all", "--d", "2", "--q", "2", "--n", "5",
                         "--budget", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] is None and doc["result"]["successes"] == 5
    code, out = run_cli(["estimate", "--spec", "all", "--d", "2", "--q", "2", "--n", "5",
                         "--budget", "16"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["exact"] == {"num": "1", "den": "1"}


def test_census_flag_check_at_d0(capsys):
    code, out = run_cli(["census", "--spec", "all", "--d", "0", "--q", "2",
                         "--flag-check"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["identity_holds"] is True


def test_json_file_output(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(["decompose", "--matrix", "1 2 : 1", "--json", str(path)], capsys)
    assert code == 0
    assert path.read_text().strip() == out.strip()


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(census, "census_exact", broken)
    with pytest.raises(KeyError):
        cli.main(["census", "--spec", "all", "--d", "2", "--q", "2"])
    assert capsys.readouterr().out == ""
