"""The scripts under scripts/ end a bad input, an input past the caps of
`geomstir asymptotic` or output they cannot write in one error line and
exit 2, as `geomstir verify` does; exit 1 stays the "hard identity failed"
code.  Their normal output keeps its bytes."""

import hashlib
import os
import subprocess
import sys

import pytest

import geomstir

SRC = os.path.dirname(os.path.dirname(geomstir.__file__))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def run_script(name, *args, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        env={**os.environ, "PYTHONPATH": SRC}, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, args", [
    ("run_conformance.py", ["--n-max", "-1"]),
    ("run_conformance.py", ["--select", "nope"]),
    ("error_decay_study.py", ["--n", "3", "--lambda-start", "1"]),
    ("run_conformance.py", ["--oracle-n-max", "9"]),  # past MAX_ORACLE_N
])
def test_bad_input_is_a_usage_error(name, args):
    out = run_script(name, *args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_unwritable_json_report_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    out = run_script("run_conformance.py", "--select", "thm6", "--json", str(target))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_full_device_json_report_is_a_write_error():
    out = run_script("run_conformance.py", "--select", "thm6", "--json", "/dev/full")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write /dev/full: ")


@pytest.mark.parametrize("args", [
    ["--n", "401"],                                    # MAX_N
    ["--n", "50", "--depths", "1,41"],                 # MAX_S
    ["--depths", "9", "--doublings", "1000"],          # MAX_LAMBDAS
    ["--n", "400", "--depths", "1", "--lambda-start", str(1 << 41)],  # MAX_LAMBDA_BITS
    ["--n", "4", "--depths", "1", "--x", "1" + "0" * 1000 + "/3"],      # MAX_N_BITS
], ids=["n", "depth", "lambdas", "lambda-bits", "rational-bits"])
def test_decay_study_keeps_the_asymptotic_caps(args):
    out = run_script("error_decay_study.py", *args)
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and "past the cap of" in lines[0], out.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("name, args", [
    ("run_conformance.py", ["--select", "thm6"]),
    ("error_decay_study.py", []),
])
def test_full_device_stdout_is_a_write_error(name, args):
    with open("/dev/full", "w") as full:
        out = run_script(name, *args, stdout=full)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: ")


def test_decay_study_reads_rel_errors_past_float_range():
    # at lambda 10^30 and n = 12, s = 10, every rel_error is below float's
    # normal range; each is printed from the exact rational, and so are the
    # ratios and the observed order
    out = run_script("error_decay_study.py", "--n", "12", "--depths", "10",
                     "--lambda-start", str(10 ** 30), "--doublings", "2")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines() if line.startswith("  ")]
    assert [row[1:] for row in rows[1:4]] == [
        ["9.80995e-319", "-", "-"],
        ["4.79002e-322", "0.000488281", "11.000"],
        ["2.33887e-325", "0.000488281", "11.000"]]
    assert rows[4] == ["s=10:", "11.000", "(predicted", "11)"]


def test_decay_study_leaves_an_undefined_rel_error_out():
    # exact is 0 at lambda 250, so that row has no relative error: it prints
    # "-" and is left out of the next ratio and of the observed order, which
    # read 1390.891 from |predicted| before
    out = run_script("error_decay_study.py", "--alpha=-2", "--beta", "0", "--gamma", "1",
                     "--x=-1", "--n", "250", "--depths", "0", "--lambda-start", "250",
                     "--doublings", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        "n=250  alpha=-2 beta=0 gamma=1 x=-1\n"
        "lambda ladder: 250, 500\n\n"
        "s=0\n"
        "    lambda        rel_error          ratio   order\n"
        "       250                -              -       -\n"
        "       500      6.45263e+73              -       -\n\n")


def test_decay_study_rejects_an_inexact_full_depth_row(capsys, monkeypatch):
    # run in-process, so that test_cli's w_row fault reaches the study: its
    # full-depth table ends in one error line and exit 1
    import math
    import runpy
    from fractions import Fraction

    from geomstir import asymptotics

    real = asymptotics.w_row
    monkeypatch.setattr(asymptotics, "w_row", lambda a, n, s: [
        w + Fraction(n >= 9, math.factorial(n)) for w in real(a, n, s)])
    study = runpy.run_path(os.path.join(SCRIPTS, "error_decay_study.py"))
    monkeypatch.setattr(sys, "argv", [
        "error_decay_study.py", "--alpha", "1/2", "--gamma", "1", "--n", "12",
        "--depths", "3,12", "--lambda-start", "12", "--doublings", "2"])
    assert study["main"]() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: at full depth s = n = 12 the expansion is not the exact "
                   "value at lam=12\n")


# sha256 of stdout and the exit code of each script's normal run, as printed
# before hsu_expansion returned a bare Fraction
SCRIPT_OUTPUT_DIGESTS = {
    ("run_conformance.py", "--select", "euler-rec", "spivey", "--minimize"):
        ("9af4ba89ea6eaa1fcd795ec22e216a6336fc0e8fd858a11c77592833a5bace8c", 1),
    ("error_decay_study.py",):
        ("c9ad866a6f5af80fabc807abb3c15b869d868d0ff296a2c4f1f3307c02cf7217", 0),
}


@pytest.mark.parametrize("argv", list(SCRIPT_OUTPUT_DIGESTS))
def test_script_output_keeps_its_bytes(argv):
    out = run_script(*argv)
    digest = hashlib.sha256(out.stdout.encode()).hexdigest()
    assert (digest, out.returncode) == SCRIPT_OUTPUT_DIGESTS[argv], out.stderr
