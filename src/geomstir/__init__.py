"""Exact arithmetic for generalized Stirling triangles, higher-order
geometric polynomial families, exponential (Bell-type) polynomials, and
higher-order Euler polynomials, with a brute-force counting oracle, an
identity conformance harness, and an asymptotic error-decay engine.

Everything except the asymptotic display columns (format_sig) is computed
over Fraction coefficients.
"""

from .asymptotics import (
    DecayReport,
    DecayRow,
    a_coefficients,
    error_decay_report,
    format_sig,
    hsu_expansion,
    w_coefficient,
    w_row,
)
from .euler import (
    EulerParams,
    euler_egf,
    euler_explicit,
    euler_polynomial,
    euler_values,
    euler_via_a,
)
from .exppoly import (
    ExpPolyParams,
    lemma34_sides,
    s_exp_egf,
    s_exp_eval,
    s_exp_explicit,
    s_exp_values,
)
from .geom import (
    ASequence,
    PolyParams,
    a_egf,
    a_eval,
    a_explicit,
    a_recurrence,
    a_values,
    lam_binom,
)
from .harness import (
    ConformanceReport,
    GridSpec,
    IdentityReport,
    ReadingReport,
    counterexample_minimize,
    default_grid,
    run_suite,
)
from .oracle import (
    MAX_ORACLE_N,
    BPAConfig,
    count_bpa,
    count_gamma_cell,
    count_m_sections,
    partitions_with_parts,
    section_poly_value,
)
from .series import Series, binomial_series, falling, gff, rising
from .stirling import (
    StirlingParams,
    param_swap_rhs,
    stirling_explicit,
    stirling_rec,
    stirling_row,
)
from .xpoly import XPolynomial

__version__ = "0.1.0"

__all__ = [
    "ASequence",
    "BPAConfig",
    "ConformanceReport",
    "DecayReport",
    "DecayRow",
    "EulerParams",
    "ExpPolyParams",
    "GridSpec",
    "IdentityReport",
    "MAX_ORACLE_N",
    "PolyParams",
    "ReadingReport",
    "Series",
    "StirlingParams",
    "XPolynomial",
    "a_coefficients",
    "a_egf",
    "a_eval",
    "a_explicit",
    "a_recurrence",
    "a_values",
    "binomial_series",
    "count_bpa",
    "count_gamma_cell",
    "count_m_sections",
    "counterexample_minimize",
    "default_grid",
    "error_decay_report",
    "euler_egf",
    "euler_explicit",
    "euler_polynomial",
    "euler_values",
    "euler_via_a",
    "falling",
    "format_sig",
    "gff",
    "hsu_expansion",
    "lam_binom",
    "lemma34_sides",
    "param_swap_rhs",
    "partitions_with_parts",
    "rising",
    "run_suite",
    "s_exp_egf",
    "s_exp_eval",
    "s_exp_explicit",
    "s_exp_values",
    "section_poly_value",
    "stirling_explicit",
    "stirling_rec",
    "stirling_row",
    "w_coefficient",
    "w_row",
]
