"""End-to-end tests for the geomstir command line.

Everything runs in-process through main(argv) so exit codes and output can
be asserted without spawning subprocesses.  argparse-level usage errors
raise SystemExit(2); errors we catch ourselves return 2.
"""

import json

import pytest

from geomstir.cli import main, parse_n_range, parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- compute


def test_compute_fubini_values(capsys):
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1", "--n", "0..5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert [line.split(",")[1] for line in lines[1:]] == [
        "1", "1", "3", "13", "75", "541",
    ]


def test_compute_stirling_single_entry(capsys):
    code, out, _ = run(
        capsys, "compute", "stirling", "--alpha", "0", "--beta", "1",
        "--gamma", "0", "--n", "4", "--k", "2",
    )
    assert code == 0
    assert out == "n,k,value\n4,2,7\n"


def test_compute_stirling_full_row(capsys):
    code, out, _ = run(
        capsys, "compute", "stirling", "--alpha", "0", "--beta", "1",
        "--gamma", "0", "--n", "3",
    )
    assert code == 0
    values = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert values == ["0", "1", "3", "1"]


def test_compute_singleton_range(capsys):
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1", "--n", "0..0",
    )
    assert code == 0
    assert out == "n,value\n0,1\n"


def test_compute_coefficients_without_x(capsys):
    # ordered set partitions of {1,2} weighted by block count: x + 2x^2
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--n", "2",
    )
    assert code == 0
    assert out == "n,coeffs\n2,0;1;2\n"


def test_compute_exp_poly_coefficients(capsys):
    # classical second-kind row at n = 3
    code, out, _ = run(
        capsys, "compute", "exp-poly", "--alpha", "0", "--beta", "1",
        "--gamma", "0", "--n", "3",
    )
    assert code == 0
    assert out == "n,coeffs\n3,0;1;3;1\n"


def test_compute_euler_polynomial_and_value(capsys):
    code, out, _ = run(
        capsys, "compute", "euler", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--n", "1",
    )
    assert code == 0
    assert out == "n,coeffs\n1,-1/2;1\n"

    code, out, _ = run(
        capsys, "compute", "euler", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--n", "1",
    )
    assert code == 0
    assert out == "n,value\n1,-1/2\n"


def test_compute_m_family(capsys):
    code, out, _ = run(
        capsys, "compute", "M", "--alpha", "1", "--beta", "1",
        "--x", "2", "--n", "1",
    )
    assert code == 0
    assert out == "n,value\n1,2\n"


def test_compute_jsonl_records(capsys):
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1", "--n", "0..3",
        "--format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["value"] for r in records] == ["1", "1", "3", "13"]
    assert records[0]["family"] == "A"
    assert records[0]["params"] == {
        "lambda": 1, "alpha": "0", "beta": "1", "gamma": "0", "x": "1",
    }


def test_compute_rational_parameters(capsys):
    # negative rationals need the --flag=value spelling to survive argparse
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "2", "--alpha", "1/2",
        "--beta", "1", "--gamma", "3/2", "--x=-1/3", "--n", "2",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,value"
    n, value = row.split(",")
    from fractions import Fraction

    from geomstir.geom import PolyParams, a_eval

    expected = a_eval(
        PolyParams(2, Fraction(1, 2), Fraction(1), Fraction(3, 2)),
        2, Fraction(-1, 3),
    )
    assert Fraction(value) == expected


def test_compute_family_flag_matches_positional(capsys):
    code_pos, out_pos, _ = run(
        capsys, "compute", "M", "--alpha", "1", "--beta", "1",
        "--x", "1", "--n", "3",
    )
    code_flag, out_flag, _ = run(
        capsys, "compute", "--family", "M", "--alpha", "1", "--beta", "1",
        "--x", "1", "--n", "3",
    )
    assert code_pos == code_flag == 0
    assert out_pos == out_flag


def test_compute_conflicting_family_spellings(capsys):
    code, _, err = run(
        capsys, "compute", "A", "--family", "M", "--alpha", "1",
        "--beta", "1", "--n", "2",
    )
    assert code == 2
    assert "conflicting" in err


def test_compute_missing_family(capsys):
    code, _, err = run(capsys, "compute", "--alpha", "1", "--n", "2")
    assert code == 2
    assert "family" in err


def test_compute_missing_parameter(capsys):
    code, _, err = run(capsys, "compute", "A", "--alpha", "0", "--n", "2")
    assert code == 2
    assert "--lambda" in err and "--beta" in err


def test_decimal_input_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "A", "--lambda", "1", "--alpha", "0",
              "--beta", "1", "--gamma", "0", "--x", "0.5", "--n", "2"])
    assert exc.value.code == 2


def test_parse_rational_accepts_and_rejects():
    from fractions import Fraction

    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("7") == 7
    for bad in ("1.5", "1/0", "1/-2", "", "x"):
        with pytest.raises(Exception):
            parse_rational(bad)


def test_parse_n_range():
    assert parse_n_range("4") == [4]
    assert parse_n_range("0..5") == [0, 1, 2, 3, 4, 5]
    with pytest.raises(Exception):
        parse_n_range("5..2")


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1", "--n", "0..2",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,value\n0,1\n1,1\n2,3\n"


# ----------------------------------------------------------------- verify


def test_verify_select_subset(capsys):
    code, out, _ = run(capsys, "verify", "--select", "thm6", "orthogonality")
    assert code == 0
    assert "thm6" in out and "orthogonality" in out
    assert "spivey" not in out
    assert out.endswith("hard identities: PASS\n")


def test_verify_full_default_grid(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.endswith("hard identities: PASS\n")


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--select", "eq7", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--select", "eq7", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "geomstir-conformance/1"
    assert payload["hard_pass"] is True


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--select", "no-such-identity")
    assert code == 2
    assert "no-such-identity" in err


def test_verify_bad_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    for text in (
        "{not json",
        '{"poly_points": [[1, 0, 1]]}',          # short row
        '{"pair_points": [[1, 0, 1, 0, 0]]}',
        '{"exp_points": [["1", "1", "1", "1"]]}', # long row
        '{"poly_points": [[1, "1/0", 1, 0]]}',   # zero denominator
        "[1, 2]",                                # not an object
        '{"poly_points": [[1, 0.1, 1, 0]]}',     # binary float
        '{"poly_points": [[1.5, 0, 1, 0]]}',     # fractional order
        '{"n_max": true}',
        '{"select": "thm6"}',                    # a string, not a list of ids
        "[" * 100000,                            # nests past the parser's stack
    ):
        grid.write_text(text)
        code, out, err = run(capsys, "verify", "--grid", str(grid))
        assert code == 2, text
        assert out == "" and err.startswith("error: bad grid"), text

    # a misspelt key is named, not dropped for the default
    grid.write_text('{"n-max": 3}')
    code, out, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 2 and out == ""
    assert err.startswith("error: bad grid") and "unknown grid keys: 'n-max'" in err

    code, _, err = run(capsys, "verify", "--grid", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize("grid_json", [
    '{"select": []}',
    '{"poly_points": [], "pair_points": [], "exp_points": [], '
    '"euler_points": [], "x_values": [], "n_max": 2, "oracle_n_max": 1}',
])
def test_verify_that_checked_nothing_exits_1(tmp_path, capsys, grid_json):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_json)
    code, out, _ = run(capsys, "verify", "--grid", str(grid))
    assert code == 1
    assert out.endswith("hard identities: EMPTY\n")
    code, out, _ = run(capsys, "verify", "--grid", str(grid), "--format", "json")
    assert code == 1
    assert json.loads(out)["hard_pass"] is False


def test_verify_custom_grid_and_out(tmp_path, capsys):
    from geomstir.harness import default_grid

    grid = tmp_path / "grid.json"
    grid.write_text(default_grid().to_json())
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--grid", str(grid), "--select", "eq31",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert [ident["id"] for ident in payload["identities"]] == ["eq31"]


# ----------------------------------------------------------------- oracle


def test_oracle_match(capsys):
    code, out, _ = run(
        capsys, "oracle", "--n", "3", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1",
    )
    assert code == 0
    assert out == "count=13 explicit=13 MATCH\n"


def test_oracle_rejects_large_n(capsys):
    code, _, err = run(
        capsys, "oracle", "--n", "9", "--lambda", "1", "--alpha", "0",
        "--beta", "1", "--gamma", "0", "--x", "1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_oracle_requires_integers():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "3", "--lambda", "1", "--alpha", "1/2",
              "--beta", "1", "--gamma", "0", "--x", "1"])
    assert exc.value.code == 2


# ------------------------------------------------------------- asymptotic


def test_asymptotic_table_shape(capsys):
    code, out, _ = run(
        capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "4", "--s", "1", "--lambdas", "64,128,256",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,exact,predicted,rel_error,ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "64"
    assert first[4] == ""
    for line in lines[2:]:
        ratio = float(line.split(",")[4])
        # halving the step scales the leading error term by about 1/4
        assert 0.125 <= ratio <= 0.5


def test_asymptotic_jsonl(capsys):
    code, out, _ = run(
        capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "1", "--s", "1", "--lambdas", "8,16",
        "--format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0]["ratio"] is None
    # n = 1 truncates with no remainder, so the error is exactly zero
    assert all(r["rel_error"] == "0" for r in records)


def test_asymptotic_missing_parameter(capsys):
    code, _, err = run(
        capsys, "asymptotic", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "4", "--s", "1", "--lambdas", "64",
    )
    assert code == 2
    assert "--alpha" in err


def test_asymptotic_rejects_bad_lambda(capsys):
    code, _, err = run(
        capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "4", "--s", "1", "--lambdas", "3",
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("s_arg, lambdas, message", [
    ("9", "", "0 <= s <= n"),
    ("9", "64", "0 <= s <= n"),
    ("2", "", "at least one lambda"),
])
def test_asymptotic_checks_s_and_lambdas_up_front(capsys, s_arg, lambdas, message):
    code, out, err = run(
        capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "4", "--s", s_arg, "--lambdas", lambdas,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
