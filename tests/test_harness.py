import hashlib
import inspect
import json
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (GridSpec, a_egf, counterexample_minimize, default_grid,
                      euler_egf, run_suite, s_exp_egf)
from geomstir import harness
from geomstir.euler import EulerParams, _gamma_polynomials
from geomstir.harness import REGISTRY
from geomstir.oracle import MAX_ORACLE_N
from geomstir.series import MAX_LAMBDA_BITS, MAX_N_BITS
from references import ref_euler_explicit

Q = Fraction

GRID = default_grid()
REPORT = run_suite(GRID)
BY_ID = {ident.id: ident for ident in REGISTRY}


def test_default_report_bytes_are_pinned():
    # the regression oracle: any refactor of an identity, a route or the
    # report format that moves a single byte of the default report fails here
    digest = hashlib.sha256(REPORT.to_json().encode()).hexdigest()
    assert digest == "6429ce54eaed1f7b3d2112b8374bab61daa32b7578a60b99ce6e791c0af03137"


def test_n_max_12_report_bytes_are_pinned():
    # the second oracle: past the default n_max the series routes read
    # orders 9..12 from the same one-per-parameter-set builds
    wide = run_suite(replace(GRID, n_max=12)).to_json()
    digest = hashlib.sha256(wide.encode()).hexdigest()
    assert digest == "0039414bd9171c28100b127cffb3488066e0453c720b5b956c4216cad64f9012"


# the benchmark's verify-wide grid at seed 517: unlike the default grid it
# has negative half-integer parameters and negative betas
SEED_517_GRID = """{"n_max": 12, "oracle_n_max": 5, "shift_ms": [0, 1, 2],
 "poly_points": [[1, "0", "-2", "0"], [1, "-1", "-1", "-2"], [2, "1", "-2", "-2"],
                 [2, "-1/2", "-1", "3/2"], [3, "2", "1", "-1"], [0, "1", "2", "-1"]],
 "pair_points": [[1, "0", 1, "0", "0", "-2"], [1, "1", 2, "-2", "1", "-1"],
                 [2, "1/2", 1, "3/2", "-2", "1"], [0, "-1", 2, "0", "-2", "2"]],
 "exp_points": [["0", "-2", "0"], ["1", "2", "-2"], ["-1", "-1", "-2"],
                ["1/2", "-2", "-1/2"]],
 "euler_points": [[1, "0", "-1", "0"], [1, "2", "-1", "2"], [2, "-2", "-1", "1"],
                  [3, "1/2", "2", "3/2"]],
 "x_values": ["-2", "1", "3/2"], "select": null}"""


def test_seed_517_report_bytes_are_pinned():
    report = run_suite(GridSpec.from_json(SEED_517_GRID)).to_json()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == "a9a90425373d75805d04e53c166ec4826ac78fa36583fba27e2eebd661270310"


def test_series_routes_build_once_per_parameter_set():
    for route in (s_exp_egf, euler_egf, _gamma_polynomials, a_egf):
        route.cache_clear()
    run_suite(replace(GRID, select=("routes-a", "routes-exp", "routes-euler")))
    # routes-exp: one build per (alpha, beta, r, x); routes-euler: one egf
    # and one gamma-polynomial build per row; routes-a: one a_egf per row
    exp_sets = len(GRID.exp_points) * len(GRID.x_values)
    assert s_exp_egf.cache_info().misses == exp_sets
    assert euler_egf.cache_info().misses == len(GRID.euler_points)
    assert _gamma_polynomials.cache_info().misses == len(GRID.euler_points)
    assert a_egf.cache_info().misses == len(GRID.poly_points)
    assert a_egf.cache_info().hits == len(GRID.poly_points) * GRID.n_max


# the per-row set-up memos, each with its distinct keys on a grid
def _setup_keys(grid):
    poly = [harness.PolyParams(*row) for row in grid.poly_points]
    shiftable = [p for p in poly if p.lam >= 1 and p.beta != 0]
    euler = [harness.PolyParams(*row) for row in grid.euler_points
             if row[0] >= 1 and row[2] != 0]
    return {
        harness._lifts: set(poly),
        harness._eq6_column: {(p, sign) for p in poly for sign in (1, -1)},
        harness._shift_setup: {(p, m) for p in shiftable for m in grid.shift_ms},
        harness._euler_rec_setup: {(p, m) for p in euler for m in grid.shift_ms},
        harness._pair_setup: {harness._pair_params(
            dict(zip(("lam1", "gamma1", "lam2", "gamma2", "alpha", "beta"), row)))
            for row in grid.pair_points},
        harness._spivey_setup: {(harness.ExpPolyParams(*row), m) for row in grid.exp_points
                                for m in range(min(3, grid.n_max) + 1)},
    }


def test_row_setup_is_built_once_per_key():
    keys = _setup_keys(GRID)
    for memo in keys:
        memo.cache_clear()
    run_suite(GRID)
    for memo, distinct in keys.items():
        assert memo.cache_info().misses == len(distinct), memo.__name__
        assert memo.cache_info().currsize == len(distinct), memo.__name__


def test_seed_517_run_builds_few_records(monkeypatch):
    # the records and dataclasses.replace calls of one cold seed-517 run: the
    # per-point set-up built 12 393 records and made 2106 replace calls
    from geomstir import euler, exppoly, geom, oracle, stirling

    grid = GridSpec.from_json(SEED_517_GRID)
    for memo in (*_setup_keys(grid), stirling._table, geom.a_explicit, geom.a_egf,
                 exppoly.s_exp_explicit, exppoly.s_exp_egf, euler.euler_egf,
                 euler._gamma_polynomials, euler._euler_column, oracle.section_poly_value):
        memo.cache_clear()
    built = []
    for cls in (geom.PolyParams, stirling.StirlingParams, euler.EulerParams,
                exppoly.ExpPolyParams):
        def counted(self, post=cls.__post_init__):
            built.append(type(self))
            post(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    replaced = []
    real_replace = harness.replace

    def counted_replace(*args, **kwargs):
        replaced.append(args)
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(harness, "replace", counted_replace)
    run_suite(grid)
    assert len(built) <= 6000 and len(replaced) <= 200, (len(built), len(replaced))


def test_an_evaluator_that_raises_fails_the_evaluates_reading(monkeypatch):
    ident = BY_ID["thm6"]

    def broken(pt):
        if pt["n"] >= 3:
            raise ArithmeticError(f"no A_{pt['n'] + 1}")
        return ident.evaluate(pt)

    patched = replace(ident, evaluate=broken)
    monkeypatch.setattr(harness, "REGISTRY",
                        tuple(patched if i is ident else i for i in REGISTRY))
    monkeypatch.setitem(harness._BY_ID, "thm6", patched)
    rep = run_suite(replace(GRID, select=("thm6",)))
    (entry,) = rep.identities
    rows = len(GRID.poly_points)
    assert [r.name for r in entry.readings] == ["main", harness.EVALUATES]
    main, evaluates = entry.readings
    # n = 0, 1, 2 return their sides on every row; n = 3..n_max raise
    assert (main.passed, main.failed) == (3 * rows, 0)
    assert (evaluates.passed, evaluates.failed) == (3 * rows, (GRID.n_max - 2) * rows)
    lam, a, b, g = GRID.poly_points[0]
    assert evaluates.first_counterexample == {
        "point": {"alpha": str(a), "beta": str(b), "gamma": str(g), "lam": lam, "n": 3},
        "lhs": "ArithmeticError: no A_4",
        "rhs": "no exception",
    }
    assert rep.hard_failures() == [("thm6", "evaluates")] and rep.verdict() == "FAIL"
    assert "        lhs: ArithmeticError: no A_4\n" in rep.to_text()
    # the shrinker mirrors the tally: a raise fails evaluates, never main
    start = _pt(3, 1, 1, 2, 7)
    assert counterexample_minimize("thm6", harness.EVALUATES, start)["n"] == 3
    with pytest.raises(ValueError, match="does not fail"):
        counterexample_minimize("thm6", "main", start)


@pytest.fixture
def fresh_rows():
    """Clears the Stirling tables and every memo built from their rows before
    and after the test, so no row read under a patch outlives it."""
    from geomstir import exppoly, geom, stirling

    memos = (stirling._table, geom.a_explicit, exppoly.s_exp_explicit, *_setup_keys(GRID))
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_a_sweep_fault_fails_the_hard_stirling_identities(monkeypatch, fresh_rows):
    # the Stirling table is the unit-ratio sweep kept as it is read, so a
    # fault in _value_sweep (here each row's last entry doubled from n = 5 on)
    # reaches the hard routes-stirling and orthogonality readings
    from geomstir import stirling

    sweep = stirling._value_sweep

    def doubled(*args):
        for n, (row, den) in enumerate(sweep(*args)):
            yield ([*row[:-1], 2 * row[-1]] if n >= 5 else row), den

    monkeypatch.setattr(stirling, "_value_sweep", doubled)
    rep = run_suite(replace(GRID, select=("routes-stirling", "orthogonality")))
    assert rep.verdict() == "FAIL"


def test_euler_identities_build_no_a_polynomial():
    # euler-rec and euler-conv read each E_n from the explicit Stirling sum,
    # not from a whole A_n polynomial read at x = -1/2
    from geomstir.geom import a_explicit

    a_explicit.cache_clear()
    report = run_suite(replace(GRID, select=("euler-rec", "euler-conv")))
    assert all(ident.points for ident in report.identities)
    assert a_explicit.cache_info().misses == 0


def test_only_the_series_routes_carry_an_order():
    with_order = {"routes-a", "routes-exp", "routes-euler", "lemma34"}
    for ident in REGISTRY:
        pts = ident.points(GRID)
        carries = {"order" in pt for pt in pts}
        assert carries == {ident.id in with_order}, ident.id
        if ident.id in with_order:
            assert {pt["order"] for pt in pts} == {GRID.n_max}


def test_hard_identities_all_pass():
    assert REPORT.hard_failures() == []
    assert '"hard_pass": true' in REPORT.to_json()


def test_every_point_is_tallied():
    for ident in REPORT.identities:
        assert ident.points > 0
        for reading in ident.readings:
            assert reading.passed + reading.failed == ident.points


def test_recorded_identities_have_a_passing_reading():
    # shift-inverse is the one identity where no reading survives the full
    # grid: the solved-for form breaks at m = 2 for every argument shift
    for ident in REPORT.identities:
        if ident.kind != "recorded" or ident.id == "shift-inverse":
            continue
        assert any(r.failed == 0 for r in ident.readings), ident.id
    inverse = next(i for i in REPORT.identities if i.id == "shift-inverse")
    assert all(r.failed > 0 for r in inverse.readings)


def test_failing_readings_carry_counterexamples():
    seen_failure = False
    for ident in REPORT.identities:
        for r in ident.readings:
            if r.failed:
                seen_failure = True
                cex = r.first_counterexample
                assert set(cex) == {"point", "lhs", "rhs"}
                assert cex["lhs"] != cex["rhs"]
            else:
                assert r.first_counterexample is None
    assert seen_failure  # the recorded block is not vacuous


def test_report_is_deterministic():
    again = run_suite(GRID)
    assert again.to_json() == REPORT.to_json()
    assert again.to_text() == REPORT.to_text()


def test_report_schema_and_shape():
    data = json.loads(REPORT.to_json())
    assert data["schema"] == "geomstir-conformance/1"
    assert data["hard_pass"] is True
    assert len(data["identities"]) == len(REGISTRY)
    ids = [e["id"] for e in data["identities"]]
    assert ids == [ident.id for ident in REGISTRY]


def test_text_report_mentions_verdict():
    text = REPORT.to_text()
    assert text.endswith("hard identities: PASS\n")
    assert "routes-a" in text and "euler-rec" in text


def test_selector_subsets_in_registry_order():
    rep = run_suite(replace(GRID, select=("eq7", "thm6")))
    assert [i.id for i in rep.identities] == ["thm6", "eq7"]


def test_empty_selector_empty_report():
    rep = run_suite(replace(GRID, select=()))
    assert rep.identities == ()
    assert rep.hard_failures() == []
    # nothing was checked, so the run does not pass
    assert rep.verdict() == "EMPTY" and rep.hard_pass is False
    assert rep.to_text().endswith("hard identities: EMPTY\n")
    assert json.loads(rep.to_json())["hard_pass"] is False


def test_report_on_empty_point_lists_is_empty():
    bare = replace(GRID, poly_points=(), pair_points=(), exp_points=(),
                   euler_points=(), x_values=())
    rep = run_suite(bare)
    by_id = {i.id: i.points for i in rep.identities}
    assert by_id["routes-a"] == 0 and by_id["oracle"] > 0
    assert rep.verdict() == "EMPTY" and rep.hard_pass is False


def test_recorded_only_selection_checks_no_hard_identity():
    rep = run_suite(replace(GRID, n_max=2, select=("eq6-printed",)))
    assert rep.identities[0].points > 0
    assert rep.verdict() == "EMPTY" and rep.hard_pass is False


def test_fail_outranks_empty():
    bare = replace(GRID, poly_points=(), n_max=3)
    rep = run_suite(bare)
    assert rep.verdict() == "EMPTY"
    broken = replace(rep, identities=tuple(
        replace(i, readings=(replace(i.readings[0], failed=1),))
        if i.id == "oracle" else i for i in rep.identities))
    assert broken.verdict() == "FAIL" and broken.hard_pass is False


def test_unknown_selector_raises():
    with pytest.raises(ValueError):
        run_suite(replace(GRID, select=("thm6", "nonsense")))


def test_grid_json_round_trip():
    assert GridSpec.from_json(GRID.to_json()) == GRID
    picky = replace(GRID, select=("thm6",), n_max=4)
    assert GridSpec.from_json(picky.to_json()) == picky


def test_grid_json_partial_file_keeps_defaults():
    # a file that only overrides n_max should still carry the default points
    sparse = GridSpec.from_json('{"n_max": 4}')
    assert sparse.n_max == 4
    assert sparse.poly_points == GRID.poly_points
    assert sparse.x_values == GRID.x_values
    # an explicit empty list is honored, not silently refilled
    assert GridSpec.from_json('{"poly_points": []}').poly_points == ()


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n_max=-1)


@pytest.mark.parametrize("bad", [
    {"poly_points": ((1.5, Q(0), Q(1), Q(0)),)},     # fractional order
    {"poly_points": ((1, 0.1, 1, 0),)},              # binary float parameter
    {"poly_points": ((True, 0, 1, 0),)},             # bool order
    {"poly_points": ((1, 0, 1),)},                   # short row
    {"pair_points": ((1, 0, 1, 0, False, 1),)},      # bool parameter
    {"euler_points": ((-1, 0, 1, 0),)},              # negative order
    {"exp_points": ((Q(1), "1/2", Q(1)),)},          # a string, not a number
    {"x_values": (0.5,)},
    {"shift_ms": (1.0,)},
    {"n_max": True},
    {"oracle_n_max": 2.0},
    {"oracle_n_max": MAX_ORACLE_N + 1},              # past what the oracle counts
    {"select": "eq6"},                               # not ("e", "q", "6")
    {"select": ("eq6", 7)},
    {"x_values": 3},                                 # not a sequence at all
    {"poly_points": 5},
    {"shift_ms": None},
])
def test_grid_rejects_inexact_values(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_grid_keeps_exact_values_exact():
    spec = GridSpec(poly_points=((1, 1, Q(1, 2), -3),), x_values=(2,))
    assert spec.poly_points == ((1, Q(1), Q(1, 2), Q(-3)),)
    assert [type(v) for v in spec.poly_points[0]] == [int, Q, Q, Q]
    assert spec.x_values == (Q(2),) and type(spec.x_values[0]) is Q


def test_grid_caps_rational_sizes():
    # compute's rule at the grid's top index, n_max + max(shift_ms) + 1 = 15
    # here: 15 * 136 bits is within MAX_N_BITS, 15 * 137 is past it, and a
    # denominator counts as much as a numerator
    assert 15 * 136 <= MAX_N_BITS < 15 * 137
    at, past = Q(1, 1 << 135), Q(-(1 << 136), 3)
    rows = {"x_values": lambda q: q,
            "poly_points": lambda q: (1, q, Q(1), Q(0)),
            "pair_points": lambda q: (1, Q(0), 1, Q(0), Q(1), q),
            "exp_points": lambda q: (Q(1), Q(1), q),
            "euler_points": lambda q: (1, Q(1), Q(1), q)}
    for key, row in rows.items():
        assert GridSpec(n_max=12, **{key: (row(at),)}).n_max == 12
        with pytest.raises(ValueError, match=str(MAX_N_BITS)):
            GridSpec(n_max=12, **{key: (row(past),)})


def test_grid_caps_lambda_sizes():
    # 15 * 1120 bits is MAX_LAMBDA_BITS; a pair row counts lam1 + lam2, so two
    # lambdas each within the cap can sum past it
    assert 15 * 1120 == MAX_LAMBDA_BITS
    at, past = 1 << 1119, 1 << 1120
    for key in ("poly_points", "euler_points"):
        assert GridSpec(n_max=12, **{key: ((at, Q(1), Q(1), Q(0)),)}).n_max == 12
        with pytest.raises(ValueError, match=str(MAX_LAMBDA_BITS)):
            GridSpec(n_max=12, **{key: ((past, Q(1), Q(1), Q(0)),)})
    half = at >> 1
    GridSpec(n_max=12, pair_points=((half, Q(0), half, Q(0), Q(1), Q(1)),))
    with pytest.raises(ValueError, match=str(MAX_LAMBDA_BITS)):
        GridSpec(n_max=12, pair_points=((at, Q(0), at, Q(0), Q(1), Q(1)),))


def test_grid_file_rejects_unknown_keys():
    for text in ('{"n-max": 3}', '{"n_max": 3, "extra": null}', '{"N_MAX": [3]}'):
        with pytest.raises(ValueError, match="unknown grid key"):
            GridSpec.from_json(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3) | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-3/4", "1/0", "0.5", "2", " 7 ", "1/-2"]),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
GRID_KEYS = ("n_max", "oracle_n_max", "shift_ms", "poly_points", "pair_points",
             "exp_points", "euler_points", "x_values", "select")


@settings(max_examples=400, deadline=None)
@given(st.builds(lambda key, value: {key: value},
                 st.sampled_from(GRID_KEYS), json_values) | json_values)
def test_grid_parser_returns_grid_or_value_error(raw):
    # one field at a time, so a bad value is not hidden behind an earlier one
    text = json.dumps(raw)
    try:
        spec = GridSpec.from_json(text)
    except ValueError:
        return
    assert isinstance(spec, GridSpec)
    # whatever got in is exact: orders are ints, parameters Fractions
    for row in (spec.poly_points + spec.euler_points + spec.pair_points
                + spec.exp_points):
        assert all(type(v) in (int, Fraction) for v in row)
    assert all(type(x) is Fraction for x in spec.x_values)
    assert all(type(v) is int for v in (spec.n_max, spec.oracle_n_max, *spec.shift_ms))


def test_point_generators_stay_in_domain():
    # the registry keeps an identity off its domain gaps by never generating
    # such points, not by raising when they are evaluated; the widened grid
    # adds beta == 0 rows and an order-0 Euler row for the filter to drop
    wide = replace(
        GRID, n_max=2,
        poly_points=GRID.poly_points + ((1, Q(1), Q(0), Q(1)),),
        exp_points=GRID.exp_points + ((Q(1), Q(0), Q(1)),),
        euler_points=GRID.euler_points + ((0, Q(1), Q(1), Q(0)),
                                          (1, Q(1), Q(0), Q(1))),
    )
    for grid in (GRID, wide):
        for ident_id, need_lam in (
            ("shift-raise", True), ("shift-inverse", True), ("euler-rec", True),
            ("lemma34", False), ("routes-exp", False), ("routes-stirling", False),
        ):
            pts = BY_ID[ident_id].points(grid)
            assert pts, ident_id
            for pt in pts:
                assert pt["beta"] != 0, (ident_id, pt)
                if need_lam:
                    assert pt["lam"] >= 1, (ident_id, pt)
    # identities without those gaps still see every row
    assert any(pt["beta"] == 0 for pt in BY_ID["routes-a"].points(wide))
    assert any(pt["lam"] == 0 for pt in BY_ID["routes-euler"].points(wide))
    assert any(pt["beta"] == 0 for pt in BY_ID["spivey"].points(wide))


def test_minimized_points_stay_in_domain():
    # the recorded failures of euler-rec and shift-inverse, shrunk
    seen = 0
    for ident in REPORT.identities:
        if ident.id not in ("euler-rec", "shift-inverse"):
            continue
        for r in ident.readings:
            if not r.failed:
                continue
            seed = {k: v if isinstance(v, int) else Q(v)
                    for k, v in r.first_counterexample["point"].items()}
            small = counterexample_minimize(ident.id, r.name, seed)
            assert small["lam"] >= 1 and small["beta"] != 0, (ident.id, r.name, small)
            seen += 1
    assert seen >= 4


@pytest.mark.parametrize("ident_id", ["euler-rec", "shift-raise", "shift-inverse"])
def test_minimizer_rejects_candidates_outside_domain(monkeypatch, ident_id):
    # a reading that fails everywhere shrinks as far as the domain allows
    ident = BY_ID[ident_id]
    monkeypatch.setitem(harness._BY_ID, ident_id,
                        replace(ident, evaluate=lambda pt: {"broken": (0, 1)}))
    start = _pt(3, Q(3, 2), Q(-2), Q(5, 2), 4, m=2)
    small = counterexample_minimize(ident_id, "broken", start)
    assert small["lam"] == 1 and small["beta"] in (1, -1), small
    assert small["n"] == small["m"] == 0
    assert small["alpha"] == small["gamma"] == 0
    # a start outside the domain is not a counterexample of the identity
    with pytest.raises(ValueError):
        counterexample_minimize(ident_id, "broken", {**start, "lam": 0})


def _pt(lam, a, b, g, n, **extra):
    out = {"lam": lam, "alpha": Q(a), "beta": Q(b), "gamma": Q(g), "n": n}
    out.update(extra)
    return out


def test_minimize_requires_failing_point():
    with pytest.raises(ValueError):
        counterexample_minimize("thm6", "main", _pt(1, 0, 1, 0, 2))
    with pytest.raises(ValueError):
        counterexample_minimize("no-such-id", "main", _pt(1, 0, 1, 0, 2))


def test_minimize_shrinks_n_first_then_magnitudes():
    big = _pt(3, 1, 1, 2, 7)
    small = counterexample_minimize("eq6-printed", "printed", big)
    # still failing
    lhs, rhs = BY_ID["eq6-printed"].evaluate(small)["printed"]
    assert lhs != rhs
    assert small["n"] <= 2
    assert abs(small["alpha"]) <= 1 and abs(small["gamma"]) <= 2


def test_minimize_keeps_already_minimal_point():
    seed = counterexample_minimize("eq6-printed", "printed", _pt(1, 1, 1, 1, 2))
    again = counterexample_minimize("eq6-printed", "printed", dict(seed))
    assert again == seed


def _lowered_recursive(lam, a, b, theta, n, steps):
    """The recursive rec3-derived lowering the evaluator replaced (2^steps
    calls), kept as the reference for its values."""
    if steps == 0:
        return ref_euler_explicit(EulerParams(lam, a, b), theta, n)[0]
    prev = lam + steps - 1
    return (2 / (prev * b)) * (
        (theta + a - b) * _lowered_recursive(lam, a, b, theta - b, n, steps - 1)
        - _lowered_recursive(lam, a, b, theta - b + a, n + 1, steps - 1))


def test_euler_rec_lowering_matches_recursive_form():
    ident = BY_ID["euler-rec"]
    pts = ident.points(replace(GRID, n_max=2, shift_ms=(0, 1, 2, 3, 4, 5)))
    assert {pt["m"] for pt in pts} == set(range(6))
    for pt in pts:
        want = _lowered_recursive(pt["lam"], pt["alpha"], pt["beta"], -pt["gamma"],
                                  pt["n"], pt["m"])
        assert ident.evaluate(pt)["rec3-derived"][1] == want, pt


def test_euler_rec_deep_shift_runs_without_recursion():
    # m = 90 lowering steps: the recursive form needed 90 frames and 2^90
    # calls; with only 60 frames to spare this must be built bottom-up
    pt = {"lam": 1, "alpha": Q(1), "beta": Q(1), "gamma": Q(1), "n": 0, "m": 90}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        lhs, rhs = BY_ID["euler-rec"].evaluate(pt)["rec3-derived"]
    finally:
        sys.setrecursionlimit(limit)
    assert lhs == rhs
