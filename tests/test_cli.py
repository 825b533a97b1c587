"""End-to-end tests for the geomstir command line.

Everything runs in-process through main(argv) so exit codes and output can
be asserted without spawning subprocesses, except the write-failure tests at
the end, which need a real stdout descriptor.  Usage errors found while the
command line is parsed raise SystemExit(2); errors we catch ourselves return 2.
"""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from references import build_parser

from geomstir import cli
from geomstir.asymptotics import MAX_LAMBDAS, MAX_S
from geomstir.cli import main, parse_n_range, parse_rational
from geomstir.harness import MAX_GRID_INDEX
from geomstir.oracle import MAX_ORACLE_LAM, MAX_ORACLE_N
from geomstir.series import MAX_LAMBDA_BITS, MAX_N, MAX_N_BITS


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
    # a negative rational read in the --flag=value spelling; --x -1/3 reads the same
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


@pytest.mark.parametrize("argv", [
    ["euler", "--lambda", "1", "--alpha", "0", "--beta", "1", "--x", "3"],
    ["M", "--alpha", "1", "--beta", "1", "--gamma", "5"],
    ["A", "--lambda", "1", "--alpha", "0", "--beta", "1", "--gamma", "0", "--k", "2"],
    ["exp-poly", "--lambda", "2", "--alpha", "0", "--beta", "1", "--gamma", "0"],
    ["stirling", "--alpha", "0", "--beta", "1", "--gamma", "0", "--x", "1"],
    ["stirling", "--alpha", "0", "--beta", "1", "--gamma", "0", "--k", "-1"],
])
def test_compute_rejects_flags_its_family_does_not_read(capsys, argv):
    code, out, err = run(capsys, "compute", *argv, "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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
    assert list(parse_n_range("4")) == [4]
    assert list(parse_n_range("0..5")) == [0, 1, 2, 3, 4, 5]
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


@pytest.mark.parametrize("argv, rows", [
    (["compute", "stirling", "--alpha", "0", "--beta", "1", "--gamma", "0",
      "--n", "0..3"], 1 + 10),
    (["compute", "A", "--lambda", "1", "--alpha", "0", "--beta", "1",
      "--gamma", "0", "--n", "0..4", "--format", "jsonl"], 5),
])
def test_tables_are_written_row_by_row(monkeypatch, argv, rows):
    # the table reaches stdout as one writelines over single rows, not as one
    # rendered string, so a deep table is never held in memory twice
    chunks = []

    class Sink:
        def writelines(self, lines):
            assert not isinstance(lines, (str, list, tuple))
            chunks.extend(lines)

        def flush(self):  # the CLI flushes stdout to see a write failure
            pass

    monkeypatch.setattr(cli.sys, "stdout", Sink())
    assert main(argv) == 0
    assert len(chunks) == rows
    assert all(c.endswith("\n") and c.count("\n") == 1 for c in chunks)


# ----------------------------------------------------------------- parser

# value words that parse and words that do not
RATIONALS = (["0", "1", "-3", "3/2", "-3/2", "+7", " 5 "], ["0.5", "1/0", "x", ""])
INTS = (["0", "2", "-1", "+3"], ["1/2", "x", ""])
FAMILY_WORDS = (list(cli.FAMILIES), ["B", "csv"])
PATHS = (["out.csv", "-", "a b", ""], [])
SELECT_WORDS = ["thm6", "orthogonality", "eq31", "nope", "", "a=b"]

# every flag of each command and the words its values are drawn from
FLAG_WORDS = {
    "compute": {"--family": FAMILY_WORDS, "--alpha": RATIONALS, "--beta": RATIONALS,
                "--gamma": RATIONALS, "--lambda": INTS, "--x": RATIONALS,
                "--n": (["4", "0..5", "0..0"], ["5..2", "-1", "x"]), "--k": INTS,
                "--format": (["csv", "jsonl"], ["text", "xml"]), "--out": PATHS},
    "verify": {"--grid": PATHS, "--select": (SELECT_WORDS, []),
               "--format": (["text", "json"], ["csv", "xml"]), "--out": PATHS},
    "oracle": {f"--{name}": INTS for name in ("n", "lambda", "alpha", "beta", "gamma", "x")},
    "asymptotic": {"--alpha": RATIONALS, "--beta": RATIONALS, "--gamma": RATIONALS,
                   "--x": RATIONALS, "--n": INTS, "--s": INTS,
                   "--lambdas": (["64", "64,128", "", "-3"], ["3,x", "x"]),
                   "--format": (["csv", "jsonl"], ["text", "xml"]), "--out": PATHS},
}
REQUIRED = {"oracle": list(FLAG_WORDS["oracle"]),
            "asymptotic": ["--n", "--s", "--lambdas"]}


@st.composite
def argvs(draw):
    """An argv for one command, and whether it gives some flag a separate
    value word that starts with "-" (which argparse refuses unless it reads
    as a negative number).

    The command's required flags come first, in any order, then up to six
    more.  Flags are spelt in full or cut to any prefix of three or more
    characters, unique or not, with their value after a space or an "=";
    about one value in five does not parse.  --select takes a list of ids.
    Flags repeat, compute gets a positional family, and stray words, unknown
    flags and a last flag without its value mix in."""
    command = draw(st.sampled_from(list(FLAG_WORDS)))
    flags = FLAG_WORDS[command]
    chosen = draw(st.permutations(REQUIRED.get(command, [])))
    chosen += draw(st.lists(st.sampled_from(list(flags)), max_size=6))
    argv, dash_value = [command], False
    for flag in chosen:
        if command == "compute" and draw(st.integers(0, 4)) == 0:
            argv.append(draw(st.sampled_from(FAMILY_WORDS[draw(st.integers(0, 4)) // 4])))
        if draw(st.integers(0, 19)) == 19:
            argv.append(draw(st.sampled_from(["--bogus", "-x", "stray"])))
        name = flag[:draw(st.integers(3, len(flag)))]
        if flag == "--select":  # words after "--select=id" are not in the list
            ids = draw(st.lists(st.sampled_from(SELECT_WORDS), max_size=3))
            if ids and draw(st.booleans()):
                argv += [f"{name}={ids[0]}", *ids[1:]]
            else:
                argv += [name, *ids]
            continue
        good, bad = flags[flag]
        value = draw(st.sampled_from(bad if bad and draw(st.integers(0, 4)) == 4 else good))
        if draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
            dash_value |= value.startswith("-")
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(list(flags))))
    return argv, dash_value


def _parsed(parse, argv):
    """The values parse reads from argv, or the exit code it raises."""
    with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit as e:
            return e.code


REFERENCE = build_parser()


def _reference(argv):
    return vars(REFERENCE.parse_args(argv))


def _from_table(argv):
    command, args = cli._parse(argv)
    return {"command": command, **vars(args)}


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parser_reads_what_the_argparse_reference_reads(case):
    argv, dash_value = case
    expected, got = _parsed(_reference, argv), _parsed(_from_table, argv)
    if expected == 2:
        # argparse refuses a separate value such as "--gamma -3/2"; the
        # parser takes it
        assert got == 2 or dash_value, argv
    else:
        assert got == expected, argv


@pytest.mark.parametrize("argv, names", [
    (["-h"], list(FLAG_WORDS)),
    (["--help"], list(FLAG_WORDS)),
    *(([command, spelling], [*flags, "-h", "--help"])
      for command, flags in FLAG_WORDS.items() for spelling in ("-h", "--help")),
])
def test_help_names_every_flag(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: geomstir")
    missing = [name for name in names
               if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out)]
    assert not missing, out


@pytest.mark.parametrize("argv", [
    [],
    ["tabulate"],
    ["compute", "A", "--bogus", "1"],
    ["compute", "A", "--f", "A"],
    ["compute", "A", "--n"],
    ["compute", "A", "--format", "xml"],
    ["compute", "B", "--n", "2"],
    ["oracle", "--n", "3", "--lambda", "1"],
    ["compute", "A", "M", "--n", "2"],
], ids=["no-command", "unknown-command", "unknown-flag", "ambiguous-prefix",
        "missing-value", "bad-format", "bad-family", "missing-required",
        "second-positional"])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


STIRLING = ["compute", "stirling", "--alpha", "1/2", "--beta", "1"]


@pytest.mark.parametrize("argv, same", [
    ([*STIRLING, "--gamma", "-3/2", "--n", "0..3"],
     [*STIRLING, "--gamma=-3/2", "--n", "0..3"]),
    (["compute", "--alpha", "1/2", "--beta", "1", "--gamma", "3/2", "--n", "2",
      "--", "stirling"],
     [*STIRLING, "--gamma", "3/2", "--n", "2"]),
], ids=["negative-value", "positional-after-dashes"])
def test_spellings_give_one_table(capsys, argv, same):
    assert run(capsys, *argv) == run(capsys, *same)
    assert run(capsys, *same)[0] == 0


def test_commands_import_no_argument_parser():
    # argparse imports gettext, whose translation lookup imports locale; a
    # module the interpreter had already loaded at start-up is not counted
    names = ("argparse", "gettext", "locale")
    code = "\n".join([
        "import sys",
        f"before = {{m for m in {names!r} if m in sys.modules}}",
        "from geomstir.cli import main",
        "assert main(['compute', 'A', '--lambda', '2', '--alpha', '1/2', '--beta', '1',"
        " '--gamma', '3/2', '--n', '0..3']) == 0",
        "assert main(['asymptotic', '--alpha', '1', '--beta', '1', '--gamma', '0',"
        " '--x', '1', '--n', '4', '--s', '1', '--lambdas', '64,128']) == 0",
        f"print(sorted({{m for m in {names!r} if m in sys.modules}} - before))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------------- caps


def assert_rejected(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap" in err
    assert "Traceback" not in err


def test_compute_caps_the_top_index(capsys):
    stirling = ("compute", "stirling", "--alpha", "0", "--beta", "1", "--gamma", "0")
    assert_rejected(capsys, *stirling, "--n", str(MAX_N + 1))
    assert_rejected(capsys, "compute", "A", "--lambda", "1", "--alpha", "0",
                    "--beta", "1", "--gamma", "0", "--n", f"0..{MAX_N + 1}")
    # checked before the range is ever built
    assert_rejected(capsys, *stirling, "--n", "0..1000000000000")
    code, out, _ = run(capsys, *stirling, "--n", str(MAX_N), "--k", str(MAX_N))
    assert code == 0 and out == f"n,k,value\n{MAX_N},{MAX_N},1\n"


ASYMPTOTIC = ("asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0", "--x", "1")


def test_asymptotic_caps_n(capsys):
    assert_rejected(capsys, *ASYMPTOTIC, "--n", str(MAX_N + 1), "--s", "0",
                    "--lambdas", str(MAX_N + 2))


def test_asymptotic_caps_s(capsys):
    assert_rejected(capsys, *ASYMPTOTIC, "--n", str(2 * MAX_S + 2),
                    "--s", str(MAX_S + 1), "--lambdas", str(4 * MAX_S))


def test_asymptotic_caps_the_lambdas(capsys, monkeypatch):
    # the count and the size of the lambdas are checked before any work
    from geomstir import asymptotics

    def no_work(*args):
        raise AssertionError("computed past a cap")

    monkeypatch.setattr(asymptotics, "w_row", no_work)
    monkeypatch.setattr(asymptotics, "a_values", no_work)
    many = ",".join(str(64 + i) for i in range(MAX_LAMBDAS + 1))
    assert_rejected(capsys, *ASYMPTOTIC, "--n", "4", "--s", "1", "--lambdas", many)
    huge = str(1 << (MAX_LAMBDA_BITS // MAX_N))  # one bit past the cap at n = MAX_N
    assert_rejected(capsys, *ASYMPTOTIC, "--n", str(MAX_N), "--s", "0",
                    "--lambdas", f"{MAX_N},{huge}")
    assert_rejected(capsys, *ASYMPTOTIC, "--n", "400", "--s", "40",
                    "--lambdas", "1" + "0" * 1000)


# a 1001-digit numerator: n times its 3322 bits is far past MAX_N_BITS
HUGE_X = "1" + "0" * 1000 + "/3"


def test_rational_sizes_are_capped_before_any_work(capsys, monkeypatch):
    from geomstir import asymptotics, cli, stirling

    def no_work(*args):
        raise AssertionError("computed past a cap")

    for module in (cli, stirling, asymptotics):
        for name in ("_value_sweep", "a_values", "w_row", "stirling_int_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_work)
    assert_rejected(capsys, "compute", "A", "--lambda", "2", "--alpha", "1/2",
                    "--beta", "3", "--gamma=-1", "--x", HUGE_X, "--n", "0..400")
    assert_rejected(capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "1",
                    "--x", HUGE_X, "--n", "400", "--s", "0", "--lambdas", "400")
    # a denominator counts as much as a numerator, and every rational flag counts
    assert_rejected(capsys, "compute", "stirling", "--alpha", "0", "--beta",
                    "1000000000000", "--gamma", "0", "--n", "400", "--k", "1")
    assert_rejected(capsys, "compute", "euler", "--lambda", "1", "--alpha", "1",
                    "--beta", "1", "--gamma", "1/" + "9" * 40, "--n", "0..400")
    _, _, err = run(capsys, "compute", "A", "--lambda", "2", "--alpha", "1/2",
                    "--beta", "3", "--gamma=-1", "--x", HUGE_X, "--n", "0..400")
    assert err.count("\n") == 1


def test_compute_caps_the_size_of_lambda(capsys, monkeypatch):
    # n * bit_length(lambda), the rule asymptotic keeps for each of its lambdas
    from geomstir import cli

    def no_work(*args):
        raise AssertionError("computed past a cap")

    googol = str(10 ** 100)  # 333 bits: 400 * 333 is past the cap, 50 * 333 is not
    params = ("--alpha", "1/2", "--beta", "3")
    for name in ("_value_sweep", "a_values", "euler_values", "_gamma_polynomial_rows"):
        monkeypatch.setattr(cli, name, no_work)
    for family in (("A", "--gamma=-1"), ("euler",)):
        argv = ("compute", *family, "--lambda", googol, *params, "--n", "0..400")
        assert_rejected(capsys, *argv)
        _, _, err = run(capsys, *argv)
        assert err.count("\n") == 1 and str(MAX_LAMBDA_BITS) in err
    one_past = str(1 << (MAX_LAMBDA_BITS // MAX_N))  # 43 bits at n = MAX_N
    assert_rejected(capsys, "compute", "A", "--lambda", one_past, *params,
                    "--gamma=-1", "--x", "5/3", "--n", str(MAX_N))
    monkeypatch.undo()
    code, out, err = run(capsys, "compute", "A", "--lambda", googol, *params,
                         "--gamma=-1", "--x", "5/3", "--n", "0..50")
    assert code == 0 and err == "" and len(out.splitlines()) == 52


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma", "--x"])
def test_rational_sizes_at_the_cap_are_computed(capsys, flag):
    # 255/254 has 8 bits: n = 256 is exactly at the cap, n = 257 one step past
    assert MAX_N_BITS == 256 * 8
    at_cap = {"--alpha": "1/2", "--beta": "3", "--gamma": "-1", "--x": "5/3",
              flag: "255/254"}
    argv = ["compute", "A", "--lambda", "2",
            *(f"{k}={v}" for k, v in at_cap.items())]
    code, out, err = run(capsys, *argv, "--n", "0..256")
    assert code == 0 and err == "" and len(out.splitlines()) == 258
    assert_rejected(capsys, *argv, "--n", "0..257")
    asy = ["asymptotic", *(f"{k}={v}" for k, v in at_cap.items()),
           "--s", "0", "--lambdas", "300"]
    code, out, err = run(capsys, *asy, "--n", "256")
    assert code == 0 and err == "" and len(out.splitlines()) == 2
    assert_rejected(capsys, *asy, "--n", "257")


def test_verify_caps_the_grid_index(tmp_path, capsys):
    # n_max + max(shift_ms) + 1 is the largest index the harness reads
    for text in (f'{{"n_max": {MAX_GRID_INDEX - 2}}}',
                 '{"n_max": 0, "shift_ms": [1100], "select": ["euler-rec"]}'):
        path = tmp_path / "grid.json"
        path.write_text(text)
        assert_rejected(capsys, "verify", "--grid", str(path))
    path.write_text(f'{{"n_max": 0, "shift_ms": [{MAX_GRID_INDEX - 1}], '
                    f'"select": ["euler-rec", "shift-raise"]}}')
    code, out, _ = run(capsys, "verify", "--grid", str(path))
    assert code == 0 and out.endswith("hard identities: PASS\n")


def test_verify_caps_the_size_of_grid_values(tmp_path, capsys):
    # GridSpec keeps compute's size rules at the grid's top index (15 here)
    path = tmp_path / "grid.json"
    for text in (f'{{"n_max": 12, "x_values": ["1/{1 << 136}"]}}',
                 f'{{"n_max": 12, "euler_points": [[{1 << 1120}, 1, 1, 0]]}}'):
        path.write_text(text)
        assert_rejected(capsys, "verify", "--grid", str(path))
        _, _, err = run(capsys, "verify", "--grid", str(path))
        assert err.count("\n") == 1


def test_verify_caps_the_oracle_order(tmp_path, capsys):
    # the oracle enumerates up to MAX_ORACLE_N; a larger order is refused,
    # not run at the cap while the report echoes the larger one
    path = tmp_path / "grid.json"
    path.write_text(f'{{"oracle_n_max": {MAX_ORACLE_N + 1}}}')
    assert_rejected(capsys, "verify", "--grid", str(path))
    _, _, err = run(capsys, "verify", "--grid", str(path))
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("compute", "A", "--lambda", "1", "--alpha", "0", "--beta", "1",
     "--gamma", "0", "--n", "0..3"),
    ("verify", "--select", "thm6"),
    (*ASYMPTOTIC, "--n", "4", "--s", "2", "--lambdas", "64"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 means an identity failed; a path that cannot be opened is exit 2
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert "Traceback" not in err
    assert not target.exists()


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


def test_verify_reports_an_a_route_disagreement(capsys, monkeypatch):
    # a fault that splits euler_via_a's two A-specializations from n = 6 on
    # makes euler._agreed raise RuntimeError; the run still ends in a report
    # whose evaluates reading fails, and exits 1, not in a traceback
    from geomstir import euler

    real = euler.a_eval

    def split(params, n, x):
        # the first specialization (alpha, -beta, -gamma): every default
        # euler_points row has beta > 0
        return real(params, n, x) + (1 if n >= 6 and params.beta < 0 else 0)

    monkeypatch.setattr(euler, "a_eval", split)
    code, out, err = run(capsys, "verify", "--select", "routes-euler", "--format", "json")
    assert code == 1 and err == ""
    (entry,) = json.loads(out)["identities"]
    by_name = {r["name"]: r for r in entry["readings"]}
    assert list(by_name)[-1] == "evaluates"
    rows = 4  # the default grid's euler_points, each at n = 6, 7, 8
    assert by_name["evaluates"]["fail"] == rows * 3
    assert by_name["evaluates"]["pass"] == entry["points"] - rows * 3
    cex = by_name["evaluates"]["first_counterexample"]
    assert cex["point"]["n"] == 6 and cex["rhs"] == "no exception"
    assert cex["lhs"].startswith("RuntimeError: A-route disagreement for E_6: ")
    code, out, err = run(capsys, "verify", "--select", "routes-euler")
    assert code == 1 and err == ""
    assert "lhs: RuntimeError: A-route disagreement for E_6" in out
    assert out.endswith("hard identities: FAIL\n")


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


def test_oracle_rejects_large_lambda(capsys):
    # the fold costs one pass per bar; past the cap it must stop before any work
    for n, lam in (("1", str(10 * MAX_ORACLE_LAM)), ("8", str(MAX_ORACLE_LAM + 1)),
                   ("0", str(MAX_ORACLE_LAM + 1))):
        code, out, err = run(
            capsys, "oracle", "--n", n, "--lambda", lam, "--alpha", "0",
            "--beta", "1", "--gamma", "0", "--x", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
    code, out, _ = run(capsys, "oracle", "--n", "2", "--lambda", str(MAX_ORACLE_LAM),
                       "--alpha", "0", "--beta", "1", "--gamma", "0", "--x", "1")
    assert code == 0 and out.endswith(" MATCH\n")


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


def _sig12(q: Fraction) -> tuple[str, int]:
    """The 12 significant digits and the decimal exponent of q > 0, rounded
    to nearest from the exact rational."""
    e = len(str(q.numerator)) - len(str(q.denominator))
    if q < Fraction(10) ** e:
        e -= 1
    digits = round(q / Fraction(10) ** (e - 11))
    if digits == 10 ** 12:
        digits, e = 10 ** 11, e + 1
    return str(digits), e


def test_asymptotic_renders_a_rel_error_past_float_range(capsys):
    # inside every cap, with nonzero exact values: at lambda 10^30 rel_error is
    # below float's normal range, and the ratio to lambda 12 is past its top;
    # both cells are the exact rationals rendered in the same 12-digit form
    code, out, _ = run(
        capsys, "asymptotic", "--alpha", "1", "--beta", "1", "--gamma", "0",
        "--x", "1", "--n", "12", "--s", "10", "--lambdas", f"{10 ** 30},12",
    )
    assert code == 0
    first, second = [line.split(",") for line in out.strip().splitlines()[1:]]
    errors = []
    for _, exact, predicted, _, _ in (first, second):
        exact, predicted = Fraction(exact), Fraction(predicted)
        assert exact != 0
        errors.append(abs(exact - predicted) / abs(exact))
    assert first[4] == ""
    for cell, value, past in ((first[3], errors[0], lambda e: e < -308),
                              (second[4], errors[1] / errors[0], lambda e: e > 308)):
        mantissa, _, exponent = cell.partition("e")
        digits, e = _sig12(value)
        assert past(int(exponent)) and int(exponent) == e, cell
        assert mantissa.replace(".", "").ljust(12, "0") == digits, cell


def test_asymptotic_leaves_rel_error_empty_where_exact_is_zero(capsys):
    # (lam | 2)_172 passes through 0 at lam = 172: no relative error there, and
    # no ratio next to it; the cells are empty, as the first ratio is
    argv = ["asymptotic", "--alpha=-2", "--beta", "0", "--gamma", "1", "--x=-1",
            "--n", "172", "--s", "0", "--lambdas", "172,173,346"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[1] == "0", r[3], r[4]) for r in rows[:2]] == [
        ("172", True, "", ""), ("173", False, "2815.82572076", "")]
    assert rows[2][4] == "2.09484763862e+45"
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["rel_error"], r["ratio"]) for r in records[:2]] == [
        (None, None), ("2815.82572076", None)]


def test_asymptotic_full_depth_rejects_an_inexact_row(capsys, monkeypatch):
    # at s = n the expansion is exact for integer lam >= n; a w_row fault
    # (each W(n, j) + 1/n! for n >= 9, as the top band entries + 1 give) ends
    # the table in one error line and exit 1, not in nonzero rel_errors
    import math
    from fractions import Fraction

    from geomstir import asymptotics

    real = asymptotics.w_row
    monkeypatch.setattr(asymptotics, "w_row", lambda a, n, s: [
        w + Fraction(n >= 9, math.factorial(n)) for w in real(a, n, s)])
    argv = ["asymptotic", "--alpha", "1/2", "--beta", "1", "--gamma", "1", "--x", "1",
            "--n", "12", "--lambdas", "12,24,48"]
    code, out, err = run(capsys, *argv, "--s", "12")
    assert (code, out) == (1, "")
    assert err == ("error: at full depth s = n = 12 the expansion is not the exact "
                   "value at lam=12\n")
    # a truncated depth has no exact rows to check
    code, out, err = run(capsys, *argv, "--s", "11")
    assert (code, err) == (0, "") and len(out.splitlines()) == 4


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


# ------------------------------------------------------------- big values

BIG_X = "1" + "0" * 600          # x^8 is past 4300 digits
BIG_LAMBDA = "1" + "0" * 100     # lambda^50 is past 4300 digits
HUGE_LAMBDA = "1" + "0" * 2200   # lambda^2 is past 4300 digits


@pytest.mark.parametrize("argv", [
    ("compute", "A", "--lambda", HUGE_LAMBDA, "--alpha", "0", "--beta", "1",
     "--gamma", "0", "--x", "1", "--n", "2"),
    ("oracle", "--n", "8", "--lambda", "1", "--alpha", "0", "--beta", "1",
     "--gamma", "0", "--x", BIG_X),
    (*ASYMPTOTIC, "--n", "50", "--s", "1", "--lambdas", BIG_LAMBDA),
])
def test_values_past_the_digit_limit_print_in_full(capsys, argv):
    # CPython refuses int-to-str past 4300 digits; output lifts that limit
    # and puts it back
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    if argv[0] == "compute":
        # A_2 = lambda (lambda + 2) at alpha = gamma = 0, beta = x = 1
        assert out.splitlines()[1] == "2,1" + "0" * 2199 + "2" + "0" * 2200
    elif argv[0] == "oracle":
        assert out.endswith(" MATCH\n")
    else:
        assert len(out.splitlines()[1].split(",")[1]) > 4300


def test_arguments_keep_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main(["compute", "A", "--lambda", "1", "--alpha", "0", "--beta", "1",
              "--gamma", "0", "--n", "3", "--x", "1" + "0" * 5000])
    assert exc.value.code == 2
    assert sys.get_int_max_str_digits() == limit


def test_euler_table_at_a_huge_order(capsys):
    # the gamma polynomials at lambda = 10^9 take log2(lambda) series products
    from fractions import Fraction

    from geomstir.euler import EulerParams, euler_values
    from geomstir.xpoly import XPolynomial

    lam = 10 ** 9
    code, out, _ = run(capsys, "compute", "euler", "--lambda", str(lam),
                       "--alpha", "1", "--beta", "1", "--n", "0..6")
    assert code == 0
    polys = [XPolynomial(Fraction(c) for c in line.split(",")[1].split(";"))
             for line in out.splitlines()[1:]]
    assert len(polys) == 7
    for g in (0, 1):
        assert [poly(Fraction(g)) for poly in polys] == \
            euler_values(EulerParams(lam, 1, 1), g, 6)


# ------------------------------------------------------------ value tables

# sha256 of each table as printed before the value columns were read from
# one integer sweep (and W(n, .) from the exp recurrence); the two euler
# coefficient tables as printed while the gamma polynomials were built from a
# series with polynomial coefficients
VALUE_TABLE_DIGESTS = {
    ("compute", "A", "--lambda", "2", "--alpha", "1/2", "--beta", "3",
     "--gamma=-1", "--x", "5/3", "--n", "0..60"):
        "93e308847402fcc5f8d256b4c824632e76fa0cd646a6dc99de2dc0381b6bc06b",
    ("compute", "M", "--alpha", "1/2", "--beta", "3", "--x=-2/7", "--n", "0..60"):
        "447fbe4d47ef8eed5c1365e1b4ee0dad894afa6644cfbb62a54dedf46b6cd0f9",
    ("compute", "exp-poly", "--alpha", "1/2", "--beta", "3", "--gamma=-1",
     "--x", "5/3", "--n", "0..60"):
        "aee769fe076cf746f8e013f3ef0b13167aff745ee5de41b69f1089dc1385023d",
    ("compute", "euler", "--lambda", "2", "--alpha", "1/2", "--beta", "1",
     "--gamma", "3/2", "--n", "0..60"):
        "8da43a150c48b4b3d65a8342b1cf876c42c18f8547920619ddfefdb2f00fae26",
    ("compute", "euler", "--lambda", "2", "--alpha", "1/2", "--beta", "1",
     "--n", "0..60"):
        "8d2c67d3e08a32895cdbff245927f6a264b22fbaa7a30cb6765dd03859002f57",
    ("compute", "euler", "--lambda", "4", "--alpha=-3/2", "--beta", "5/7",
     "--n", "0..40"):
        "f8cce1ad907eeaa6ebf9eb0087d75927f5434fbe0cd39845f91063d27882c371",
    ("asymptotic", "--alpha", "1/2", "--beta", "1", "--gamma", "3/2", "--x", "2",
     "--n", "24", "--s", "6", "--lambdas", "50,100,200,400"):
        "34bd16c21cc2ea073669a0dc844e2921669bf98a202646eaf9911d0f235c16c2",
    ("compute", "stirling", "--alpha", "1/2", "--beta=-3", "--gamma", "5/7",
     "--n", "0..40"):
        "4f05445751e83eb9e9c2fb8c6a78a422e78ca30fe2fc864ea3e22c8714a3eb08",
    ("compute", "stirling-dual", "--alpha", "1/2", "--beta=-3", "--gamma", "5/7",
     "--n", "0..40", "--format", "jsonl"):
        "62dc216aa67491987911b672d1eb1e06ccbefa0957d82f4aa1ba3ff2c4614bd1",
    # rows with n < k print "value": "0", the Fraction zero
    ("compute", "stirling-dual", "--alpha", "1/2", "--beta=-3", "--gamma", "5/7",
     "--n", "0..12", "--k", "7", "--format", "jsonl"):
        "eb485300d3d15ec5d2a58f93359bf28cb951889015073d251e3e509557c1c94c",
    ("compute", "stirling", "--alpha", "1/2", "--beta=-3", "--gamma", "5/7",
     "--n", "0..12", "--k", "7"):
        "b761d5b57eabd95d90be4e34cd69b15acea79ed32dfa7eb439a143bf26963f6f",
    # the coefficient tables, as printed while each row was a cached polynomial
    ("compute", "A", "--lambda", "2", "--alpha", "1/2", "--beta", "3",
     "--gamma=-1", "--n", "0..60"):
        "3c85fe67f72c48ceed07f4c984f7741b4f3a655e43c3fa61139df2e3155d5f16",
    ("compute", "A", "--lambda", "2", "--alpha", "1/2", "--beta", "3",
     "--gamma=-1", "--n", "0..60", "--format", "jsonl"):
        "3ccf32293353d6ecaa788ce11afc6c0c80250f9b6d021f5b935aaca3b0cec458",
    ("compute", "M", "--alpha", "1/2", "--beta", "3", "--n", "0..60"):
        "00a0a0c14deca238fbbd07e91b064b5ab8ac14b4eb459b162c9926ecfed9d893",
    ("compute", "exp-poly", "--alpha", "1/2", "--beta", "3", "--gamma=-1",
     "--n", "0..60"):
        "ea0f08f8f559c4b33a67bcb377ca10ddf9851e1a4111d3c9615d432a9ee11f1c",
    # lambda = 0: every row past n = 0 is the zero polynomial, printed ""
    ("compute", "A", "--lambda", "0", "--alpha", "1", "--beta", "1",
     "--gamma", "0", "--n", "0..6"):
        "f456abadeee0159108b6868651725056788707174e6a9e3f1e47d753b9ce9132",
    # beta = 0: every row ends in zero coefficients, which are not printed
    ("compute", "A", "--lambda", "2", "--alpha", "1", "--beta", "0",
     "--gamma", "1", "--n", "0..6"):
        "fd4f6ab017809c8ef89f6ce465ef4dea0ed174b42ad3cd9747d533993d916faf",
    # lambda = 10^100 (333 bits): the gamma-free factor is a series power far
    # past any repeated product
    ("compute", "euler", "--lambda", str(10 ** 100), "--alpha", "1/2", "--beta", "3",
     "--n", "0..50"):
        "12381b5b815639c7e73cbb360ce1ec93a6f9612e2c4c6184b648da9bce922235",
}


@pytest.mark.parametrize("argv", list(VALUE_TABLE_DIGESTS))
def test_value_tables_keep_their_bytes(capsys, argv):
    import hashlib

    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALUE_TABLE_DIGESTS[argv]


def test_compute_tables_keep_no_memo(capsys):
    # every coefficient and Stirling table streams from one integer sweep or
    # build: no Stirling table and no cached polynomial is left behind
    from geomstir import euler, exppoly, geom, stirling

    memos = (stirling._table, geom.a_explicit, exppoly.s_exp_explicit,
             euler._gamma_polynomials)
    for memo in memos:
        memo.cache_clear()
    params = ("--alpha", "1/2", "--beta", "3", "--gamma=-1")
    for argv in (("A", "--lambda", "2", *params), ("M", *params[:4]),
                 ("exp-poly", *params), ("euler", "--lambda", "2", *params[:4]),
                 ("stirling", *params), ("stirling-dual", *params, "--k", "3")):
        code, out, _ = run(capsys, "compute", *argv, "--n", "0..30")
        assert code == 0 and out.count("\n") > 30
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0, 0]


@pytest.mark.parametrize("family", ["A", "M", "exp-poly", "euler"])
def test_value_tables_at_the_cap_match_single_reads(capsys, family):
    from fractions import Fraction

    from geomstir.euler import EulerParams, euler_via_a
    from geomstir.exppoly import ExpPolyParams, s_exp_eval
    from geomstir.geom import PolyParams, a_eval

    a, b, g, x = Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(5, 3)
    params = ["--alpha", "1/2", "--beta", "3"]
    if family == "A":
        argv = ["--lambda", "2", *params, "--gamma=-1", "--x", "5/3"]
        read = lambda n: a_eval(PolyParams(2, a, b, g), n, x)
    elif family == "M":
        argv = [*params, "--x", "5/3"]
        read = lambda n: a_eval(PolyParams(1, a, b, 0), n, x)
    elif family == "exp-poly":
        argv = [*params, "--gamma=-1", "--x", "5/3"]
        read = lambda n: s_exp_eval(ExpPolyParams(a, b, g), n, x)
    else:
        argv = ["--lambda", "2", *params, "--gamma", "5/3"]
        read = lambda n: euler_via_a(EulerParams(2, a, b), x, n)
    code, out, _ = run(capsys, "compute", family, *argv, "--n", f"0..{MAX_N}")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(MAX_N + 1))
    for n in (0, 1, 2, 57, 233, MAX_N - 1, MAX_N):
        assert Fraction(rows[n][1]) == read(n), n


# ------------------------------------------------------------ write failures
# These run the CLI in a child process: the failure happens at a file
# descriptor, and the interpreter's own flush at exit must stay silent too.

SRC = os.path.dirname(os.path.dirname(cli.__file__))
A_TABLE = ("compute", "A", "--lambda", "2", "--alpha", "1/2", "--beta", "1",
           "--gamma", "3/2")


def _child(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "geomstir.cli", *argv],
                            env={**os.environ, "PYTHONPATH": SRC}, **kwargs)


def _assert_one_write_error(code, err):
    assert code == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv, to_stdout", [
    ((*A_TABLE, "--n", "0..50", "--out", "/dev/full"), False),
    (("verify", "--out", "/dev/full"), False),
    ((*A_TABLE, "--n", "0..50"), True),
    (("oracle", "--n", "3", "--lambda", "1", "--alpha", "1", "--beta", "1",
      "--gamma", "1", "--x", "2"), True),
], ids=["compute-out", "verify-out", "compute-stdout", "oracle-stdout"])
def test_full_device_is_a_write_error(argv, to_stdout):
    with open("/dev/full", "w") as full:
        child = _child(argv, stdout=full if to_stdout else subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
        _, err = child.communicate(timeout=120)
    _assert_one_write_error(child.returncode, err)


def test_closed_pipe_is_a_write_error(tmp_path):
    # the table is about 2 MiB; the reader takes 100 bytes and closes
    err_path = tmp_path / "stderr"
    with open(err_path, "w") as err:
        child = _child((*A_TABLE, "--n", "0..150"), stdout=subprocess.PIPE,
                       stderr=err)
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        code = child.wait(timeout=120)
    _assert_one_write_error(code, err_path.read_text())
