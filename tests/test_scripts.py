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
    ["--n", "401"],                                    # cli.MAX_N
    ["--n", "50", "--depths", "1,41"],                 # cli.MAX_S
    ["--depths", "9", "--doublings", "1000"],          # MAX_LAMBDAS
    ["--n", "400", "--depths", "1", "--lambda-start", str(1 << 41)],  # MAX_LAMBDA_BITS
], ids=["n", "depth", "lambdas", "lambda-bits"])
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
