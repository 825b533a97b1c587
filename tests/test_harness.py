import json
from dataclasses import replace
from fractions import Fraction

import pytest

from geomstir import (
    EulerParams,
    ExpPolyParams,
    GridSpec,
    PolyParams,
    check_convolutions,
    check_eq6,
    check_euler_convolutions,
    check_euler_recurrences,
    check_shift_theorem,
    check_spivey,
    check_symmetry_37,
    check_thm2,
    check_thm6,
    counterexample_minimize,
    default_grid,
    run_suite,
)
from geomstir.harness import REGISTRY

Q = Fraction

GRID = default_grid()
REPORT = run_suite(GRID)
BY_ID = {ident.id: ident for ident in REGISTRY}


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


def _pt(lam, a, b, g, n, **extra):
    out = {"lam": lam, "alpha": Q(a), "beta": Q(b), "gamma": Q(g), "n": n}
    out.update(extra)
    return out


def test_harness_agrees_with_check_functions():
    # the registry evaluators re-derive both sides independently of the
    # check_* helpers; any transcription drift shows up as disagreement here
    points = [
        _pt(1, 0, 1, 0, 3), _pt(1, 1, 1, 1, 3),
        _pt(2, 1, 2, -1, 4), _pt(3, "-1", 1, 2, 2),
    ]
    for pt in points:
        params = PolyParams(pt["lam"], pt["alpha"], pt["beta"], pt["gamma"])
        n = pt["n"]

        res = BY_ID["thm6"].evaluate(pt)["main"]
        assert (res[0] == res[1]) == check_thm6(params, n)

        t2 = check_thm2(params, n)
        res = BY_ID["thm2"].evaluate(pt)
        assert (res["statement"][0] == res["statement"][1]) == t2.statement
        assert (res["proof"][0] == res["proof"][1]) == t2.proof

        e6 = check_eq6(params, n)
        lhs, rhs = BY_ID["eq6"].evaluate(pt)["reflected"]
        assert (lhs == rhs) == e6.reflected
        lhs, rhs = BY_ID["eq6-printed"].evaluate(pt)["printed"]
        assert (lhs == rhs) == e6.printed

        s37 = check_symmetry_37(params, n)
        res = BY_ID["eq37"].evaluate(pt)
        assert (res["pair"][0] == res["pair"][1]) == s37.pair
        res = BY_ID["eq37-printed"].evaluate(pt)["third-printed"]
        assert (res[0] == res[1]) == s37.third_printed

        shift_pt = dict(pt, m=2)
        sh = check_shift_theorem(params, n, 2)
        res = BY_ID["shift-raise"].evaluate(shift_pt)["main"]
        assert (res[0] == res[1]) == sh.raise_ok
        res = BY_ID["shift-inverse"].evaluate(shift_pt)
        assert (res["printed"][0] == res["printed"][1]) == sh.inverse_printed
        assert (res["rowwise"][0] == res["rowwise"][1]) == sh.inverse_rowwise

        euler_pt = dict(pt, m=1)
        er = check_euler_recurrences(
            EulerParams(pt["lam"], pt["alpha"], pt["beta"]), pt["gamma"], n, 1
        )
        res = BY_ID["euler-rec"].evaluate(euler_pt)
        for name, flag in (
            ("rec1-printed", er.rec1_printed), ("rec1-lifted", er.rec1_lifted),
            ("rec2-printed", er.rec2_printed), ("rec2-lifted", er.rec2_lifted),
            ("rec2-derived", er.rec2_derived), ("rec3-printed", er.rec3_printed),
            ("rec3-derived", er.rec3_derived),
        ):
            assert (res[name][0] == res[name][1]) == flag, name


def test_harness_pair_identities_agree_with_checks():
    pair_pt = {"lam1": 1, "gamma1": Q(1), "lam2": 2, "gamma2": Q(-1),
               "alpha": Q(1), "beta": Q(1), "n": 3}
    p1 = PolyParams(1, Q(1), Q(1), Q(1))
    p2 = PolyParams(2, Q(1), Q(1), Q(-1))
    conv = check_convolutions(p1, p2, 3)
    res = BY_ID["teo2"].evaluate(pair_pt)["main"]
    assert (res[0] == res[1]) == conv.teo2
    res = BY_ID["teo1"].evaluate(pair_pt)
    assert (res["printed"][0] == res["printed"][1]) == conv.teo1_printed
    assert (res["shifted"][0] == res["shifted"][1]) == conv.teo1_shifted

    ec = check_euler_convolutions(
        EulerParams(1, Q(1), Q(1)), EulerParams(2, Q(1), Q(1)), Q(1), Q(-1), 3
    )
    res = BY_ID["euler-conv"].evaluate(pair_pt)
    for name, flag in (
        ("conv1-printed", ec.conv1_printed), ("conv1-shifted", ec.conv1_shifted),
        ("conv2", ec.conv2), ("conv3-lam2", ec.conv3_lam2),
        ("conv3-lam1", ec.conv3_lam1),
    ):
        assert (res[name][0] == res[name][1]) == flag, name


def test_harness_spivey_agrees_with_check():
    pt = {"alpha": Q(1), "beta": Q(1), "r": Q(1), "x": Q(2), "n": 2, "m": 2}
    sp = check_spivey(ExpPolyParams(Q(1), Q(1), Q(1)), Q(2), 2, 2)
    res = BY_ID["spivey"].evaluate(pt)
    assert (res["printed"][0] == res["printed"][1]) == sp.printed
    assert (res["classical"][0] == res["classical"][1]) == sp.classical


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
