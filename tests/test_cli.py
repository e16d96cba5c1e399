"""Command-line surface: JSON determinism, exit codes, subcommand outputs."""

import json

import pytest

from nicensus import census, cli, estimate


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


def test_quokka_single_r(capsys):
    code, out = run_cli(["quokka", "--c", "2", "--q", "2", "--b", "1", "--r", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["per_polynomial"] == {"num": "1", "den": "3"}


def test_verify_fast_suite(capsys):
    code, out = run_cli(["verify", "--suite", "corollary-sums"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] == 5


def test_verify_thm15_samples_at_seed(monkeypatch, capsys):
    seen = []

    def record(instances, n, seed, budget=None):
        seen.append(seed)
        return []

    monkeypatch.setattr(estimate, "compare", record)
    code, out = run_cli(["verify", "--suite", "thm15", "--seed", "7"], capsys)
    assert code == 0
    assert seen == [7]
    assert json.loads(out)["manifest"]["seed"] == 7


def test_unknown_suite_exit_4(capsys):
    code = cli.main(["verify", "--suite", "nope"])
    capsys.readouterr()
    assert code == 4


def test_unknown_spec_exit_4(capsys):
    code = cli.main(["census", "--spec", "bogus", "--d", "2", "--q", "2"])
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
], ids=["n0", "n-3", "estimate-d0", "census-d-1", "quokka-q1", "quokka-q0", "quokka-q6",
        "pc-large-degree0"])
def test_out_of_range_arguments_exit_4(argv, capsys):
    assert cli.main(argv) == 4
    assert capsys.readouterr().err.startswith("usage error:")


def test_budget_flag(capsys):
    code = cli.main(["census", "--spec", "all", "--d", "3", "--q", "3", "--budget", "100"])
    capsys.readouterr()
    assert code == 4


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
