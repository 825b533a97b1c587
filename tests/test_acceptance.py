"""Release gate: ten end-to-end criteria, one visible PASS/FAIL line each.

Every criterion re-derives its expectations from scratch (independent
routes, brute-force counts, frozen constants) and carries a wall-clock
budget.  The verdict lines are echoed in a terminal-summary section by
conftest.py so they show up even under pytest's output capture.
"""

import time
from fractions import Fraction as Q

from geomstir.asymptotics import error_decay_report
from geomstir.euler import (
    EulerParams,
    euler_egf,
    euler_explicit,
    euler_polynomial,
    euler_via_a,
)
from geomstir.geom import PolyParams, a_egf, a_eval, a_explicit, a_recurrence
from geomstir.harness import default_grid, run_suite
from geomstir.oracle import BPAConfig, count_bpa
from geomstir.stirling import StirlingParams, stirling_explicit, stirling_rec
from references import check_integral_rep, closed_form_w_check


ACCEPTANCE_VERDICTS: list[str] = []


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    line = (f"criterion {num:02d} {label}: {status}"
            f" ({elapsed:.2f}s, budget {budget:.0f}s)")
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {num:02d} {label}"
    assert elapsed <= budget, f"criterion {num:02d} took {elapsed:.2f}s"


TRIPLES = (
    (Q(0), Q(1), Q(0)),
    (Q(1), Q(1), Q(0)),
    (Q(0), Q(1), Q(2)),
    (Q(1), Q(2), Q(3)),
    (Q(-1), Q(1), Q(1)),
    (Q(1, 2), Q(1), Q(0)),
    (Q(1, 3), Q(2, 3), Q(1)),
    (Q(2), Q(-1), Q(1, 2)),
    (Q(-1, 2), Q(3, 2), Q(-2)),
    (Q(1), Q(1, 4), Q(5, 2)),
)


def test_criterion_01_stirling_routes():
    t0 = time.perf_counter()
    ok = True
    for alpha, beta, gamma in TRIPLES:
        sp = StirlingParams(alpha, beta, gamma)
        for n in range(17):
            for k in range(n + 1):
                ok = ok and stirling_explicit(sp, n, k) == stirling_rec(sp, n, k)
    _verdict(1, "stirling closed form vs recurrence", ok,
             time.perf_counter() - t0, 10.0)


def test_criterion_02_orthogonality():
    t0 = time.perf_counter()
    ok = True
    for alpha, beta, gamma in TRIPLES[:6]:
        sp = StirlingParams(alpha, beta, gamma)
        dual = sp.dual()
        for n in range(13):
            for m in range(13):
                total = sum(
                    stirling_rec(sp, n, k) * stirling_rec(dual, k, m)
                    for k in range(m, n + 1)
                )
                ok = ok and total == (1 if n == m else 0)
    _verdict(2, "triangle orthogonality", ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_polynomial_routes():
    t0 = time.perf_counter()
    points = (
        (1, Q(0), Q(1), Q(0)),
        (1, Q(1), Q(1), Q(1)),
        (2, Q(1), Q(2), Q(-1)),
        (2, Q(1, 2), Q(1), Q(3, 2)),
        (3, Q(-1), Q(1), Q(2)),
        (0, Q(1), Q(2), Q(1)),
        (1, Q(-1, 2), Q(3, 2), Q(0)),
        (4, Q(0), Q(1), Q(3)),
        (2, Q(0), Q(2, 3), Q(1, 3)),
        (3, Q(2), Q(1, 2), Q(-2)),
    )
    top = 16
    ok = True
    for lam, alpha, beta, gamma in points:
        p = PolyParams(lam, alpha, beta, gamma)
        series = a_egf(p, top).values
        for n in range(top + 1):
            explicit = a_explicit(p, n)
            ok = ok and explicit == series[n] == a_recurrence(p, n)
    _verdict(3, "three polynomial routes agree", ok,
             time.perf_counter() - t0, 30.0)


def test_criterion_04_oracle_pins():
    t0 = time.perf_counter()
    fubini = [count_bpa(BPAConfig(n, 1, 0, 1, 0, 1)) for n in range(6)]
    shifted = [count_bpa(BPAConfig(n, 1, 0, 1, 2, 1)) for n in range(3)]
    ok = fubini == [1, 1, 3, 13, 75, 541] and shifted == [1, 3, 11]
    for n, value in enumerate(fubini):
        ok = ok and value == a_eval(PolyParams(1, Q(0), Q(1), Q(0)), n, Q(1))
    for n, value in enumerate(shifted):
        ok = ok and value == a_eval(PolyParams(1, Q(0), Q(1), Q(2)), n, Q(1))
    _verdict(4, "pinned counting sequences", ok, time.perf_counter() - t0, 60.0)


def test_criterion_05_oracle_full_grid():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(7):
        for lam in range(4):
            for alpha in range(3):
                for beta in range(3):
                    for gamma in range(3):
                        for x in range(3):
                            try:
                                cfg = BPAConfig(n, lam, alpha, beta, gamma, x)
                            except ValueError:
                                continue
                            exact = a_eval(
                                PolyParams(lam, Q(alpha), Q(beta), Q(gamma)),
                                n, Q(x),
                            )
                            ok = ok and count_bpa(cfg) == exact
                            checked += 1
    ok = ok and checked >= 1000
    _verdict(5, "brute-force count vs polynomial", ok,
             time.perf_counter() - t0, 120.0)


def test_criterion_06_hard_identities():
    t0 = time.perf_counter()
    report = run_suite(default_grid())
    hard = [ir for ir in report.identities if ir.kind == "hard"]
    ok = (
        report.hard_failures() == []
        and len(hard) > 0
        and all(ir.points > 0 for ir in hard)
        and all(r.failed == 0 and r.passed == ir.points
                for ir in hard for r in ir.readings)
    )
    _verdict(6, "hard identity suite 100%", ok, time.perf_counter() - t0, 120.0)


def test_criterion_07_euler_routes():
    t0 = time.perf_counter()
    points = (
        (1, Q(0), Q(1)),
        (1, Q(1), Q(1)),
        (2, Q(1), Q(2)),
        (3, Q(1, 2), Q(1)),
        (2, Q(-1), Q(1)),
        (1, Q(1, 3), Q(2, 3)),
    )
    top = 12
    ok = True
    for lam, alpha, beta in points:
        p = EulerParams(lam, alpha, beta)
        for gamma in (Q(0), Q(1), Q(-1, 2)):
            egf = euler_egf(p, gamma, top)
            for n in range(top + 1):
                value = euler_via_a(p, gamma, n)
                f1, f2 = euler_explicit(p, gamma, n)
                ok = (
                    ok
                    and value == f1 == f2 == egf.egf_value(n)
                    and value == euler_polynomial(p, n)(gamma)
                )
    # classical first-order polynomial: gamma - 1/2
    classical = euler_polynomial(EulerParams(1, Q(0), Q(1)), 1)
    ok = ok and list(classical.coeffs) == [Q(-1, 2), Q(1)]
    _verdict(7, "euler routes agree", ok, time.perf_counter() - t0, 30.0)


def test_criterion_08_integral_representation():
    t0 = time.perf_counter()
    ok = True
    for lam in (1, 2, 3, 5):
        for alpha, beta, gamma in ((Q(1), Q(1), Q(0)), (Q(0), Q(1), Q(1))):
            p = PolyParams(lam, alpha, beta, gamma)
            for x in (1.0, -0.5):
                for n in range(9):
                    quad, exact = check_integral_rep(p, x, n)
                    scale = abs(exact) if exact != 0 else 1.0
                    ok = ok and abs(quad - exact) <= 1e-8 * scale
    _verdict(8, "quadrature route within 1e-8", ok,
             time.perf_counter() - t0, 5.0)


def test_criterion_09_asymptotic_expansion():
    t0 = time.perf_counter()
    points = (
        (Q(1), Q(1), Q(0), Q(1)),
        (Q(1), Q(1), Q(1), Q(1)),
        (Q(1, 2), Q(1), Q(3, 2), Q(2)),
        (Q(0), Q(1), Q(2), Q(-1)),
    )
    ok = True
    for alpha, beta, gamma, x in points:
        for n in range(4, 9):
            ok = ok and closed_form_w_check(alpha, beta, gamma, x, n)
            ok = ok and closed_form_w_check(alpha, beta, Q(0), x, n)
    decay = error_decay_report(Q(1), Q(1), Q(0), Q(1), 4, 1, [64, 128, 256])
    ratios = decay.ratios()
    ok = ok and ratios[0] is None
    # doubling lambda should shrink the error by about 4x
    ok = ok and all(r is not None and Q(1, 8) <= r <= Q(1, 2)
                    for r in ratios[1:])
    exact_small = error_decay_report(Q(1), Q(1), Q(0), Q(1), 1, 1, [8, 16])
    ok = ok and all(row.rel_error == 0 for row in exact_small.rows)
    _verdict(9, "expansion coefficients and decay", ok,
             time.perf_counter() - t0, 30.0)


def test_criterion_10_recorded_outcomes():
    t0 = time.perf_counter()
    report = run_suite(default_grid())
    ok = report.to_json() == run_suite(default_grid()).to_json()
    recorded = [ir for ir in report.identities if ir.kind == "recorded"]
    ok = ok and len(recorded) > 0
    some_reading_failed = False
    for ir in recorded:
        for r in ir.readings:
            ok = ok and r.passed + r.failed == ir.points
            if r.failed:
                some_reading_failed = True
                cex = r.first_counterexample
                ok = ok and cex is not None and set(cex) == {
                    "point", "lhs", "rhs",
                }
            else:
                ok = ok and r.first_counterexample is None
        if ir.id != "shift-inverse":
            ok = ok and any(r.failed == 0 for r in ir.readings)
    # recorded failures exist yet the gate above still reports a clean build
    ok = ok and some_reading_failed and report.hard_failures() == []
    _verdict(10, "recorded readings reported, build unaffected", ok,
             time.perf_counter() - t0, 60.0)
