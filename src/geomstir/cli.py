"""Command line surface.

Subcommands:
  compute     tables for any polynomial/number family, CSV or JSON Lines
  verify      run the identity conformance suite over a grid
  oracle      brute-force arrangement count against the explicit polynomial
  asymptotic  exact vs predicted values with error decay columns

All parameters are exact rationals written as integers or "p/q"; decimal
input is rejected to keep binary floats out of the pipeline.  Output for a
fixed invocation is byte-identical across runs.

Exit codes: 0 success, 1 identity/oracle failure, 2 usage or parse error
(output that cannot be written to stdout or --out counts as one).

Exact values print in full whatever their length; arguments and grid files
are still parsed under CPython's int-to-str digit limit.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

from .asymptotics import MAX_LAMBDA_BITS, error_decay_report, format_sig
from .euler import EulerParams, _gamma_polynomial_rows, euler_values
from .exppoly import ExpPolyParams, _s_ratio, s_exp_values
from .geom import PolyParams, _a_ratio, _stirling_a, a_eval, a_values
from .harness import GridSpec, default_grid, run_suite
from .oracle import BPAConfig, count_bpa
from .series import MAX_N_BITS, _bit_size
from .series import _parse_rational as parse_rational
from .stirling import StirlingParams, _scaled_params, _unit_ratio, _value_sweep

# Input caps: past one, the command exits 2 before any work
MAX_N = 400  # the top index of compute --n and of asymptotic --n
MAX_S = 40   # asymptotic --s; W(n, 0..s) is one banded exp recurrence, O(n s^2)

_SIZED_FLAGS = ("alpha", "beta", "gamma", "x")


def _check_size(n: int, args):
    """ValueError if n times the largest bit length among the rational
    flags' numerators and denominators is past MAX_N_BITS."""
    bits = _bit_size(v for v in (getattr(args, name) for name in _SIZED_FLAGS)
                     if v is not None)
    if n * bits > MAX_N_BITS:
        raise ValueError(f"--n {n} times {bits}, the largest bit length of a parameter, "
                         f"is {n * bits}, past the cap of {MAX_N_BITS}")


def parse_n_range(text: str) -> range:
    """Single index "4" or inclusive range "0..5", as a range, so a huge --n
    is not built before the cap check rejects it."""
    text = text.strip()
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    if re.match(r"^\d+$", text):
        return range(int(text), int(text) + 1)
    raise ValueError(f"{text!r} is not an index or lo..hi range")


def parse_lambda_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{text!r} is not a comma list of integers") from None


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextlib.contextmanager
def _full_digits():
    """No int-to-str digit limit inside the block (CPython 3.10.7+ has one)."""
    setter = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter(0)
    try:
        yield
    finally:
        setter(limit)


def _drop_stdout():
    """Point the stdout descriptor at os.devnull, so the interpreter's flush
    of what is still buffered at exit neither fails nor prints a message."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not a real file; nothing reaches a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@_full_digits()  # lines may render their values as they are read
def _write(lines, out: str | None) -> int:
    """Write the strings of lines, each as it comes, to stdout or to out;
    0, or the usage-error code 2 if they cannot all be written (a full
    disk, a closed pipe, an out that cannot be opened)."""
    try:
        if out is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        else:
            with open(out, "w") as fh:
                fh.writelines(lines)
    except OSError as e:
        if out is None:
            _drop_stdout()
            out = "stdout"
        return _fail(f"cannot write {out}: {e.strerror or e}")
    return 0


def _rational(p: int, q: int) -> str:
    """p/q reduced, for q > 0: the bytes str(Fraction(p, q)) prints."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _coeff_cells(num, den: int) -> list[str]:
    """The polynomial sum_k (num[k] / den) x^k, den > 0, as one reduced
    string per coefficient, with trailing zero coefficients dropped: the
    zero polynomial is []."""
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    return [_rational(t, den) for t in num[:end]]


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, list):
        return ";".join(v)
    return str(v)


def _json_cell(v):
    return str(v) if isinstance(v, Fraction) else v


def _table(header: list[str], records, fmt: str, out: str | None,
           prefix: dict | None = None) -> int:
    """Render records keyed by header, in the one format asked for, and
    write each row as it is rendered.

    records may be a generator; it is read inside the write, one record at
    a time, so only one row is held at a time.  A cell is a raw value
    (a Fraction, turned into a string once, here), a string, or a list of
    coefficient strings.  JSON writes rationals as strings, coefficient
    lists as lists and everything else as is; every JSON record starts with
    the prefix fields.
    """
    if fmt == "csv":
        rows = (",".join(_csv_cell(rec[h]) for h in header) + "\n"
                for rec in records)
        return _write(itertools.chain([",".join(header) + "\n"], rows), out)
    return _write((json.dumps({**(prefix or {}),
                               **{h: _json_cell(rec[h]) for h in header}}) + "\n"
                   for rec in records), out)


# the value flags each family reads: (required, optional)
FAMILY_FLAGS = {
    "stirling": (("alpha", "beta", "gamma"), ("k",)),
    "stirling-dual": (("alpha", "beta", "gamma"), ("k",)),
    "A": (("lam", "alpha", "beta", "gamma"), ("x",)),
    "M": (("alpha", "beta"), ("x",)),
    "exp-poly": (("alpha", "beta", "gamma"), ("x",)),
    "euler": (("lam", "alpha", "beta"), ("gamma",)),
}
FAMILIES = tuple(FAMILY_FLAGS)
_VALUE_FLAGS = ("lam", "alpha", "beta", "gamma", "x", "k")


def _check_flags(args):
    """A missing required flag, a flag the family does not read or a
    negative --k raises ValueError."""
    need, optional = FAMILY_FLAGS[args.family]
    flag = lambda name: f"--{'lambda' if name == 'lam' else name}"
    missing = [flag(n) for n in need if getattr(args, n) is None]
    if missing:
        raise ValueError(f"family {args.family!r} needs {', '.join(missing)}")
    unread = [flag(n) for n in _VALUE_FLAGS
              if n not in need + optional and getattr(args, n) is not None]
    if unread:
        raise ValueError(f"family {args.family!r} does not read {', '.join(unread)}")
    if args.k is not None and args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")


def cmd_compute(args) -> int:
    if args.family is None:
        return _fail("compute needs a family (positional or --family)")
    try:
        header, params_repr, records = _compute_rows(args)
    except ValueError as e:
        return _fail(str(e))
    return _table(header, records, args.format, args.out,
                  {"family": args.family, "params": params_repr})


def _compute_rows(args):
    """(header, params repr, records) of a compute table.

    Every input is checked here; records is a generator read as the table is
    written.  A value column (--x, or euler's --gamma) holds Fractions read
    from one sweep at the top n.  The A, M and exp-poly coefficient rows and
    the stirling and stirling-dual rows stream from one integer sweep of the
    family's triangle at x = 1 (stirling._value_sweep), rendered row by row;
    the euler coefficient rows stream from one gamma-polynomial build
    (euler._gamma_polynomial_rows).  No Stirling table or polynomial memo is
    filled.
    """
    fam = args.family
    ns = args.n
    if ns is None:
        raise ValueError("compute needs --n")
    if ns[-1] > MAX_N:
        raise ValueError(f"--n goes up to {ns[-1]}, past the cap of {MAX_N}")
    _check_flags(args)
    _check_size(ns[-1], args)
    # the weights (k + lambda - 1) B grow a sweep's integers with n times the
    # bits of lambda: the rule asymptotic keeps for each of its lambdas
    if args.lam is not None and ns[-1] * args.lam.bit_length() > MAX_LAMBDA_BITS:
        raise ValueError(f"--n {ns[-1]} times the bit length of --lambda is "
                         f"{ns[-1] * args.lam.bit_length()}, past the cap of "
                         f"{MAX_LAMBDA_BITS}")

    if fam in ("stirling", "stirling-dual"):
        sp = StirlingParams(args.alpha, args.beta, args.gamma)
        table = sp.dual() if fam == "stirling-dual" else sp
        params_repr = {"alpha": str(sp.alpha), "beta": str(sp.beta),
                       "gamma": str(sp.gamma)}
        return ["n", "k", "value"], params_repr, _stirling_records(table, ns, args.k)

    if fam in ("A", "M"):
        if fam == "A":
            p = PolyParams(args.lam, args.alpha, args.beta, args.gamma)
            params_repr = {"lambda": p.lam, "alpha": str(p.alpha),
                           "beta": str(p.beta), "gamma": str(p.gamma)}
        else:
            # the single-section member: lam == 1, gamma == 0
            p = PolyParams(1, args.alpha, args.beta, 0)
            params_repr = {"alpha": str(p.alpha), "beta": str(p.beta)}
        at = args.x
        values = lambda top: a_values(p, at, top)
        # A_n is (-1)^n times the weighted row of the (alpha, -beta, -gamma) triangle
        rows = lambda top: _signed(_value_sweep(_stirling_a(p), 1, top,
                                                _a_ratio(p.lam)))
    elif fam == "exp-poly":
        p = ExpPolyParams(args.alpha, args.beta, args.gamma)
        params_repr = {"alpha": str(p.alpha), "beta": str(p.beta),
                       "r": str(p.r)}
        at = args.x
        values = lambda top: s_exp_values(p, at, top)
        rows = lambda top: _value_sweep(p.stirling(), 1, top, _s_ratio)
    else:  # euler
        p = EulerParams(args.lam, args.alpha, args.beta)
        params_repr = {"lambda": p.lam, "alpha": str(p.alpha),
                       "beta": str(p.beta)}
        at = args.gamma
        values = lambda top: euler_values(p, at, top)
        # every row streams from one gamma-polynomial build at the top n
        rows = lambda top: ((e.num, e.den) for e in _gamma_polynomial_rows(p, top))

    if at is None:
        return ["n", "coeffs"], params_repr, (
            {"n": n, "coeffs": _coeff_cells(num, den)}
            for n, (num, den) in enumerate(rows(ns[-1])) if n in ns)
    params_repr["gamma" if fam == "euler" else "x"] = str(at)
    # every value is read from one sweep at the top n
    column = values(ns[-1])
    return ["n", "value"], params_repr, ({"n": n, "value": column[n]} for n in ns)


def _signed(rows):
    """(-1)^n times each (row, den) pair, on the numerators: den stays > 0."""
    for n, (row, den) in enumerate(rows):
        yield ([-t for t in row] if n % 2 else row), den


def _stirling_records(table: StirlingParams, ns: range, k: int | None):
    """The cells S(n, k) of table for n in ns, every k <= n or the one k
    (0 past n), from the triangle rows of one unit-ratio sweep at x = 1:
    S(n, k) = T(n, k) / d^(n-k)."""
    d = _scaled_params(table)[0]
    dpow = [1]
    for row, _ in _value_sweep(table, 1, ns[-1], _unit_ratio):
        n = len(row) - 1
        if n in ns:
            for j in (range(n + 1) if k is None else (k,)):
                yield {"n": n, "k": j,
                       "value": _rational(row[j], dpow[n - j]) if j <= n else "0"}
        dpow.append(dpow[-1] * d)


def cmd_verify(args) -> int:
    if args.grid is not None:
        try:
            with open(args.grid) as fh:
                spec = GridSpec.from_json(fh.read())
        except (OSError, ValueError) as e:
            return _fail(f"bad grid file {args.grid}: {e}")
    else:
        spec = default_grid()
    if args.select is not None:
        spec = replace(spec, select=tuple(args.select))
    try:
        # counterexamples are rendered while the suite runs
        with _full_digits():
            report = run_suite(spec)
            text = (report.to_json() + "\n" if args.format == "json"
                    else report.to_text())
    except ValueError as e:
        return _fail(str(e))
    return _write([text], args.out) or (0 if report.hard_pass else 1)


@_full_digits()
def cmd_oracle(args) -> int:
    try:
        cfg = BPAConfig(args.n, args.lam, args.alpha, args.beta,
                        args.gamma, args.x)
    except ValueError as e:
        return _fail(str(e))
    counted = count_bpa(cfg)
    exact = a_eval(PolyParams(cfg.lam, cfg.alpha, cfg.beta, cfg.gamma), cfg.n, cfg.x)
    verdict = "MATCH" if counted == exact else "MISMATCH"
    line = f"count={counted} explicit={exact} {verdict}\n"
    return _write([line], None) or (0 if verdict == "MATCH" else 1)


def cmd_asymptotic(args) -> int:
    if args.n > MAX_N:
        return _fail(f"--n {args.n} is past the cap of {MAX_N}")
    if args.s > MAX_S:
        return _fail(f"--s {args.s} is past the cap of {MAX_S}")
    try:
        _check_size(args.n, args)
        report = error_decay_report(args.alpha, args.beta, args.gamma,
                                    args.x, args.n, args.s, args.lambdas)
    except ValueError as e:
        return _fail(str(e))
    header = ["lambda", "exact", "predicted", "rel_error", "ratio"]
    records = [
        {"lambda": row.lam, "exact": row.exact, "predicted": row.predicted,
         "rel_error": format_sig(row.rel_error),
         "ratio": None if ratio is None else format_sig(ratio)}
        for row, ratio in zip(report.rows, report.ratios())
    ]
    return _table(header, records, args.format, args.out)


def _choice(dest: str, choices) -> tuple:
    """The (dest, parse, metavar) of a word that must be one of choices."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
        return text
    return dest, parse, "{" + ",".join(choices) + "}"


def _rationals(*names: str) -> dict:
    return {f"--{name}": (name, parse_rational, "P/Q") for name in names}


# command -> (run, summary, {flag: (dest, parse, metavar)}, required flags,
# defaults).  parse turns one word into the dest's value or raises ValueError;
# None marks --select, whose value is the list of words up to the next flag.
# A key without dashes is a positional, filled in order by the words that are
# not flags.  A dest that is not given and has no default is None.
_COMMANDS = {
    "compute": (cmd_compute, "tabulate a family", {
        "family": _choice("family_pos", FAMILIES),
        "--family": _choice("family_flag", FAMILIES),
        **_rationals("alpha", "beta", "gamma"),
        "--lambda": ("lam", int, "INT"),
        **_rationals("x"),
        "--n": ("n", parse_n_range, "N|LO..HI"),
        "--k": ("k", int, "INT"),
        "--format": _choice("format", ("csv", "jsonl")),
        "--out": ("out", str, "PATH"),
    }, (), {"format": "csv"}),
    "verify": (cmd_verify, "run the conformance suite", {
        "--grid": ("grid", str, "FILE"),
        "--select": ("select", None, "ID ..."),
        "--format": _choice("format", ("text", "json")),
        "--out": ("out", str, "PATH"),
    }, (), {"format": "text"}),
    "oracle": (cmd_oracle, "brute-force count vs polynomial", {
        f"--{name}": ("lam" if name == "lambda" else name, int, "INT")
        for name in ("n", "lambda", "alpha", "beta", "gamma", "x")
    }, ("--n", "--lambda", "--alpha", "--beta", "--gamma", "--x"), {}),
    "asymptotic": (cmd_asymptotic, "error-decay table", {
        **_rationals("alpha", "beta", "gamma", "x"),
        "--n": ("n", int, "INT"),
        "--s": ("s", int, "INT"),
        "--lambdas": ("lambdas", parse_lambda_list, "L,L,..."),
        "--format": _choice("format", ("csv", "jsonl")),
        "--out": ("out", str, "PATH"),
    }, ("--n", "--s", "--lambdas"), {"format": "csv"}),
}
_HELP = ("-h", "--help")


def _usage_error(message: str):
    raise SystemExit(_fail(message))


def _help(command: str | None):
    """Print the help text of command, or of the program, and exit 0."""
    if command is None:
        head = ["usage: geomstir COMMAND [flags]", "",
                "exact tables and identity checks for geometric polynomial families",
                "", "geomstir COMMAND -h lists the flags of one command:"]
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, summary, flags, required, defaults = _COMMANDS[command]
        slots = "".join(f" [{key}]" for key in flags if not key.startswith("-"))
        head = [f"usage: geomstir {command}{slots} [flags]", "", summary, ""]
        rows = [(f"{key} {metavar}", "required" if key in required
                 else f"default {defaults[dest]}" if dest in defaults else "")
                for key, (dest, _, metavar) in flags.items()]
        rows.append((", ".join(_HELP), "print this help"))
    width = min(22, max(len(left) for left, _ in rows))  # a long choice list overflows
    print("\n".join(head + [f"  {left:<{width}}  {right}".rstrip()
                            for left, right in rows]))
    raise SystemExit(0)


def _resolve(name: str, names) -> str:
    """The flag that name stands for: itself, or the one flag it begins."""
    if name in names:
        return name
    hits = [flag for flag in names if flag.startswith(name)]
    if len(hits) == 1:
        return hits[0]
    _usage_error(f"ambiguous flag {name}: could be {', '.join(hits)}" if hits
                 else f"unknown flag {name}")


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command argv names and its values, read against _COMMANDS.

    A flag is written "--name value" or "--name=value", where name may be
    cut to any prefix that begins no other flag of the command; the value is
    the next word whatever it starts with, and the last of a repeated flag
    wins.  The other words fill the positionals; after a bare "--" every
    word does.  A usage error prints one error: line and raises
    SystemExit(2); -h or --help prints the help text and raises SystemExit(0).
    """
    if not argv:
        _usage_error(f"a command is needed: {', '.join(_COMMANDS)}")
    command, words = argv[0], argv[1:]
    if command not in _COMMANDS:
        if command in _HELP or command.startswith("--") and _resolve(command, _HELP):
            _help(None)
        _usage_error(f"unknown command {command!r}; the commands are "
                     f"{', '.join(_COMMANDS)}")
    _, _, flags, required, defaults = _COMMANDS[command]
    names = [*(key for key in flags if key.startswith("-")), *_HELP]
    slots = [key for key in flags if not key.startswith("-")]
    values = {dest: None for dest, _, _ in flags.values()} | defaults
    i, ended = 0, False
    while i < len(words):
        word = words[i]
        i += 1
        if word == "--" and not ended:
            ended = True
            continue
        if ended or not word.startswith("-") or word == "-":
            if not slots:
                _usage_error(f"unexpected argument {word!r}")
            key, value = slots.pop(0), word
        else:
            name, eq, value = word.partition("=")
            key = _resolve(name, names)
            if key in _HELP:
                _help(command)
            if flags[key][1] is None:  # --select: a list of words
                end = i
                while not eq and end < len(words) and not words[end].startswith("-"):
                    end += 1
                values[flags[key][0]] = [value] if eq else words[i:end]
                i = end
                continue
            if not eq:
                if i == len(words):
                    _usage_error(f"{key} needs a value")
                value = words[i]
                i += 1
        dest, parse, _ = flags[key]
        try:
            values[dest] = parse(value)
        except ValueError as e:
            _usage_error(f"{key}: {e}")
    missing = [key for key in required if values[flags[key][0]] is None]
    if missing:
        _usage_error(f"{command} needs {', '.join(missing)}")
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    if command == "compute":
        if args.family_pos is not None and args.family_flag is not None \
                and args.family_pos != args.family_flag:
            return _fail("conflicting positional family and --family")
        args.family = args.family_pos or args.family_flag
    elif command == "asymptotic":
        for name in ("alpha", "beta", "gamma", "x"):
            if getattr(args, name) is None:
                return _fail(f"asymptotic needs --{name}")
    return _COMMANDS[command][0](args)


if __name__ == "__main__":
    sys.exit(main())
