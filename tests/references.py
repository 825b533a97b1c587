"""Independent reference routes the tests compare the package against.

Each one reaches a value the package computes by a different road: the
weighted integral of the exponential polynomials (floating-point
Gauss-Laguerre quadrature), the hand-expanded W(n, 0..2) closed forms, the
column generating series of the Stirling triangle and the Euler explicit
sums term by term over S(n, k).  They read only
public package routes (names in geomstir.__all__ and their methods), so a
change to the package internals cannot bend a reference to agree with it.

build_parser is the argparse parser the command line used to be read with;
the command line's own parser must read every argv it accepts to the same
values.  It reads the public value parsers and family names of geomstir.cli.
"""

import argparse
import math
from fractions import Fraction

from geomstir import (
    ExpPolyParams,
    PolyParams,
    Series,
    StirlingParams,
    a_coefficients,
    a_eval,
    binomial_series,
    gff,
    lam_binom,
    s_exp_explicit,
    stirling_rec,
    w_coefficient,
    XPolynomial,
)
from geomstir.cli import FAMILIES, parse_lambda_list, parse_n_range, parse_rational


def _laguerre(n: int, alpha: float, z: float) -> tuple[float, float, float]:
    """L_n^(alpha)(z), L_(n-1)^(alpha)(z) and the derivative of L_n^(alpha)
    at z, from the three-term recurrence."""
    p1, p2 = 1.0, 0.0
    for j in range(1, n + 1):
        p1, p2 = ((2 * j - 1 + alpha - z) * p1 - (j - 1 + alpha) * p2) / j, p1
    return p1, p2, (n * p1 - (n + alpha) * p2) / z


def _gauss_laguerre(n: int, alpha: float) -> tuple[list[float], list[float]]:
    """Nodes and weights of the n-point Gauss rule for the weight
    z^alpha e^-z / Gamma(alpha+1) on (0, inf), whose moments are
    Gamma(alpha+k+1) / Gamma(alpha+1).

    Each node is a root of L_n^(alpha), found by Newton's method from the
    starting guesses of Press et al., Numerical Recipes, section 4.6
    (gaulag).  The weight at node z is
    -Gamma(n+alpha) / (Gamma(alpha+1) n! L_n'(z) L_(n-1)(z)), the Gamma
    ratio formed in log space with math.lgamma, so it stays finite where
    Gamma(n+alpha) alone overflows a float (n + alpha past 171).  Raises
    ArithmeticError if Newton's method stalls.
    """
    nodes: list[float] = []
    weights: list[float] = []
    scale = math.exp(math.lgamma(alpha + n) - math.lgamma(n) - math.lgamma(alpha + 1))
    for i in range(n):
        if i == 0:
            z = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
        elif i == 1:
            z += (15 + 6.25 * alpha) / (1 + 0.9 * alpha + 2.5 * n)
        else:
            ai = i - 1
            z += ((1 + 2.55 * ai) / (1.9 * ai) + 1.26 * ai * alpha / (1 + 3.5 * ai)
                  ) * (z - nodes[i - 2]) / (1 + 0.3 * alpha)
        # Newton squares the error each step, so after a step of 1e-10
        # relative the node is at roundoff; a tighter test can stall on
        # the recurrence's own noise (about 4e-14 relative at n = 80)
        for _ in range(100):
            p1, _, dp = _laguerre(n, alpha, z)
            step = p1 / dp
            z -= step
            if abs(step) <= 1e-10 * z:
                break
        else:
            raise ArithmeticError(
                f"Gauss-Laguerre node {i} of {n} did not converge (alpha={alpha})")
        _, p2, dp = _laguerre(n, alpha, z)
        nodes.append(z)
        weights.append(-scale / (n * dp * p2))
    return nodes, weights


def check_integral_rep(params: PolyParams, x: float, n: int) -> tuple[float, float]:
    """Weighted-integral route to the geometric family:

    A_n(x) = (-1)^n / (lam-1)! * integral_0^inf z^(lam-1) e^-z
             S_n(-beta x z; alpha, -beta, -gamma) dz

    evaluated with generalized Gauss-Laguerre nodes (weight z^(lam-1) e^-z,
    with the 1/(lam-1)! folded into the weights), max(n+2, 16) of them, so
    the degree-n integrand is integrated exactly up to roundoff; the nodes
    come from Newton's method on the Laguerre recurrence.  Returns
    (quadrature value, exact value as float).
    """
    if params.lam < 1:
        raise ValueError("integral route needs lam >= 1")
    nodes, weights = _gauss_laguerre(max(n + 2, 16), params.lam - 1)
    inner = ExpPolyParams(params.alpha, -params.beta, -params.gamma)
    sn = s_exp_explicit(inner, n)
    scale = -float(params.beta) * x
    total = 0.0
    for z, w in zip(nodes, weights):
        total += w * sn(scale * z)
    quad = (-1.0) ** n * total
    # a_eval reads the float as its exact binary value
    exact = float(a_eval(params, n, x))
    return quad, exact


def closed_form_w_check(alpha, beta, gamma, x, n: int) -> bool:
    """Compare w_coefficient against the hand-expanded W(n,0..2) forms.

    Needs n >= 4 so none of the closed forms degenerate.  When gamma = 0
    the shorter gamma-free instantiations are checked as well.
    """
    if n < 4:
        raise ValueError("closed forms need n >= 4")
    al, b, g, x = Fraction(alpha), Fraction(beta), Fraction(gamma), Fraction(x)
    a = a_coefficients(al, b, g, x, n)

    a1 = g + b * x
    a2 = (gff(g, -al, 2) + b * (b + 2 * g + al) * x + 2 * b**2 * x**2) / 2
    a3 = (
        gff(g, -al, 3)
        + b * (gff(-g, al, 2) + (b + g + 2 * al) * (b + 2 * g + al)) * x
        + 6 * b**2 * (b + al + g) * x**2
        + 6 * b**3 * x**3
    ) / 6
    w0 = a1**n / math.factorial(n)
    w1 = a1 ** (n - 2) * a2 / math.factorial(n - 2)
    w2 = (
        a1 ** (n - 3) * a3 / math.factorial(n - 3)
        + a1 ** (n - 4) * a2**2 / (2 * math.factorial(n - 4))
    )
    ok = (
        w_coefficient(a, n, 0) == w0
        and w_coefficient(a, n, 1) == w1
        and w_coefficient(a, n, 2) == w2
    )

    if ok and g == 0:
        a1z = b * x
        a2z = b * (b + al) * x / 2 + b**2 * x**2
        a3z = (
            b * (b + al) * (b + 2 * al) * x
            + 6 * b**2 * (b + al) * x**2
            + 6 * b**3 * x**3
        ) / 6
        ok = (
            w_coefficient(a, n, 0) == a1z**n / math.factorial(n)
            and w_coefficient(a, n, 1)
            == a1z ** (n - 2) * a2z / math.factorial(n - 2)
            and w_coefficient(a, n, 2)
            == a1z ** (n - 3) * a3z / math.factorial(n - 3)
            + a1z ** (n - 4) * a2z**2 / (2 * math.factorial(n - 4))
        )
    return ok


def stirling_egf_check(params: StirlingParams, k: int, order: int) -> Series:
    """Column generating series whose EGF value at n is k! * S(n, k):

    (1 + alpha t)^(gamma/alpha) * [((1 + alpha t)^(beta/alpha) - 1)/beta]^k
    """
    if params.beta == 0:
        raise ValueError("column series needs beta != 0")
    base = binomial_series(params.alpha, params.beta, order) - 1
    bracket = base * (1 / params.beta)
    column = binomial_series(params.alpha, params.gamma, order)
    for _ in range(k):
        column = column * bracket
    return column


def ref_poly_of_series(poly: XPolynomial, arg: Series) -> Series:
    """Horner evaluation of a polynomial at a series argument, one series
    product and one constant sum per coefficient."""
    acc = Series((Fraction(0),) * (arg.order + 1))
    for c in reversed(poly.coeffs):
        acc = acc * arg + c
    return acc


def ref_euler_explicit(p, gamma, n):
    """euler_explicit's two Stirling sums as plain Fraction sums over
    stirling_rec, each weight written out term by term."""
    gamma = Fraction(gamma)
    s_plus = StirlingParams(p.alpha, p.beta, gamma)
    s_minus = StirlingParams(p.alpha, -p.beta, gamma - p.beta * p.lam)
    f1 = sum(
        (
            stirling_rec(s_plus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * (-p.beta) ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    f2 = sum(
        (
            stirling_rec(s_minus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * p.beta ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    return f1, f2


def build_parser() -> argparse.ArgumentParser:
    """The four commands and their flags as argparse reads them: a value
    parser's ValueError is a usage error (SystemExit(2)), and parse_args
    returns the command and every dest, absent ones None or defaulted."""
    top = argparse.ArgumentParser(prog="geomstir")
    sub = top.add_subparsers(dest="command", required=True)

    def add_rationals(p, names):
        for name in names:
            dest = "lam" if name == "lambda" else name
            p.add_argument(f"--{name}", dest=dest, type=parse_rational
                           if name != "lambda" else int, default=None)

    comp = sub.add_parser("compute")
    comp.add_argument("family_pos", nargs="?", choices=FAMILIES, default=None,
                      metavar="family")
    comp.add_argument("--family", dest="family_flag", choices=FAMILIES,
                      default=None)
    add_rationals(comp, ["alpha", "beta", "gamma", "lambda", "x"])
    comp.add_argument("--n", type=parse_n_range, default=None)
    comp.add_argument("--k", type=int, default=None)
    comp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    comp.add_argument("--out", default=None)

    ver = sub.add_parser("verify")
    ver.add_argument("--grid", default=None)
    ver.add_argument("--select", nargs="*", default=None)
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", default=None)

    orc = sub.add_parser("oracle")
    for name in ("n", "lambda", "alpha", "beta", "gamma", "x"):
        orc.add_argument(f"--{name}", dest="lam" if name == "lambda" else name,
                         type=int, required=True)

    asy = sub.add_parser("asymptotic")
    add_rationals(asy, ["alpha", "beta", "gamma", "x"])
    asy.add_argument("--n", type=int, required=True)
    asy.add_argument("--s", type=int, required=True)
    asy.add_argument("--lambdas", type=parse_lambda_list, required=True)
    asy.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    asy.add_argument("--out", default=None)
    return top
