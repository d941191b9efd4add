"""Decay fits, perturbation sweeps, convergence, and the algebra report."""

from __future__ import annotations

import json
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from dil import (AlgebraReport, ConvergenceReport, EigenReport, FitWindowError,
                 GridSpec, IndexParams, ModelSpec, PairingReport, SweepRow,
                 WittenIndexReport, algebra_check, build_operator_set,
                 build_susy_quartet, convergence_study, fit_gaussian_decay,
                 gaussian, pairing_check, perturbation_sweep, sample,
                 witten_index)
from dil import analysis
from dil.analysis import ALGEBRA_RELATIONS


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------

def test_fit_recovers_exact_sampled_gaussian(desk_grid):
    f = sample(desk_grid, gaussian(1))
    fit = fit_gaussian_decay(f)
    assert fit.alpha == pytest.approx(1.0, abs=1e-6)
    assert fit.r_squared >= 0.999999
    assert fit.n_nodes >= 30


def test_fit_recovers_scaled_two_component_gaussian(desk_grid):
    # component mix is radius-independent, so the profile stays a pure gaussian
    pair = sample(desk_grid, [gaussian("0.8", {(0, 0): "0.9"}), gaussian("0.8")])
    fit = fit_gaussian_decay(pair)
    assert fit.alpha == pytest.approx(0.8, abs=1e-6)


def test_fit_window_too_small():
    # on GridSpec(5, 8) the annulus 0.5 <= |z| <= 2.5 holds 12 nodes, fewer
    # than the fit's 30
    f = sample(GridSpec(5.0, 8), gaussian(1))
    with pytest.raises(FitWindowError, match="only 12 usable nodes .* at least 30"):
        fit_gaussian_decay(f)


def test_fit_computed_zero_mode_unperturbed(desk_index):
    mode = desk_index.minus_report.vectors[0]
    fit = fit_gaussian_decay(mode)
    assert fit.alpha == pytest.approx(1.0, rel=0.02)


def test_fit_computed_zero_mode_perturbed(perturbed_index):
    mode = perturbed_index.minus_report.vectors[0]
    fit = fit_gaussian_decay(mode)
    assert fit.alpha == pytest.approx(0.9, rel=0.02)


# --------------------------------------------------------------------------
# perturbation sweep
# --------------------------------------------------------------------------

def test_sweep_rows_carry_index_and_decay(desk_grid):
    rows = perturbation_sweep([0.0, 0.36], desk_grid, params=IndexParams(k=6))
    assert [r.error for r in rows] == [None, None]
    assert [r.delta for r in rows] == [1, 1]
    assert [r.winding for r in rows] == [1, 1]
    assert rows[0].alpha_predicted == pytest.approx(1.0, abs=0)
    assert rows[1].alpha_predicted == pytest.approx(0.8, abs=1e-12)
    for r in rows:
        assert r.alpha_fit == pytest.approx(r.alpha_predicted, rel=0.02)
        assert abs(r.lambda_min) < 0.05


def test_sweep_captures_per_row_errors(desk_grid):
    rows = perturbation_sweep([0.3, 1.5], desk_grid, params=IndexParams(k=4))
    assert rows[0].error is None and rows[0].delta == 1
    assert rows[1].error is not None and "ModelError" in rows[1].error
    assert rows[1].delta is None


def test_sweep_row_order_follows_input(desk_grid):
    rows = perturbation_sweep([0.2, 0.0], desk_grid, params=IndexParams(k=4))
    assert [r.c for r in rows] == [0.2, 0.0]


# --------------------------------------------------------------------------
# convergence
# --------------------------------------------------------------------------

def test_convergence_study_second_order():
    grids = [GridSpec(4.0, n) for n in (21, 31, 41)]
    report = convergence_study(grids, params=IndexParams(k=3))
    assert 1.7 <= report.order_second <= 2.3
    assert report.monotone_smallest
    assert report.monotone_second
    hs = [r.h for r in report.rows]
    assert hs == sorted(hs, reverse=True)


def test_convergence_warns_when_errors_rise_under_refinement(monkeypatch):
    # a low_spectrum double whose errors grow as h shrinks
    def rising(mat, k, *, grid, matrix_id, seed):
        err = 1e-3 / grid.h
        return SimpleNamespace(eigenvalues=[err, 1.0 + err])

    monkeypatch.setattr(analysis, "low_spectrum", rising)
    grids = [GridSpec(4.0, n) for n in (9, 13, 17)]
    with pytest.warns(UserWarning, match="do not decrease monotonically"):
        report = convergence_study(grids)
    assert not report.monotone_smallest and not report.monotone_second
    assert report.order_smallest == pytest.approx(-1.0)


def test_convergence_rejects_degenerate_grid_list():
    g = GridSpec(4.0, 21)
    with pytest.raises(ValueError):
        convergence_study([g, g, g])


# --------------------------------------------------------------------------
# algebra check
# --------------------------------------------------------------------------

def test_algebra_check_residuals(desk_quartet):
    report = algebra_check(desk_quartet)
    assert set(report.residuals) == set(ALGEBRA_RELATIONS)
    assert report.passed
    assert report.residuals["W^2-I"] == 0.0


def test_algebra_check_detects_corruption(desk_set):
    quartet = build_susy_quartet(desk_set.D_mat)
    bad_q = quartet.Q.tolil()
    bad_q[0, bad_q.shape[1] // 2 + 3] += 0.5
    corrupted = type(quartet)(Q=bad_q.tocsr(), Q_dag=quartet.Q_dag,
                              Ham=quartet.Ham, W=quartet.W)
    report = algebra_check(corrupted)
    assert report.residuals["{Q,Qdag}-H"] > 1e-6
    assert not report.passed


@pytest.mark.parametrize("relative, passed", [(5e-12, False), (1e-14, True)])
def test_algebra_check_fails_just_above_its_tolerance(relative, passed):
    # one entry of Q moved by 5e-12 max|Q| reads about 4.9e-12 in
    # {Q,Qdag}-H on GridSpec(5, 24): above ALGEBRA_TOL = 1e-12, where a
    # tolerance of 1e-6 would pass it; 1e-14 max|Q| stays below
    quartet = build_susy_quartet(build_operator_set(ModelSpec(), GridSpec(5.0, 24)).D_mat)
    bad_q = quartet.Q.tolil()
    bad_q[0, bad_q.shape[1] // 2 + 3] += relative * analysis.max_abs(quartet.Q)
    report = algebra_check(type(quartet)(Q=bad_q.tocsr(), Q_dag=quartet.Q_dag,
                                         Ham=quartet.Ham, W=quartet.W))
    assert 0.5 * relative <= report.residuals["{Q,Qdag}-H"] <= 2 * relative
    assert report.passed is passed


def test_algebra_residuals_do_not_depend_on_grid_size():
    reports = []
    for n in (12, 24):
        op_set = build_operator_set(ModelSpec(), GridSpec(4.0, n))
        reports.append(algebra_check(build_susy_quartet(op_set.D_mat)))
    for name in ALGEBRA_RELATIONS:
        assert reports[0].residuals[name] <= 1e-12
        assert reports[1].residuals[name] <= 1e-12


# --------------------------------------------------------------------------
# report payloads
# --------------------------------------------------------------------------

# each report's payload holds its repr'd fields plus these keys
_PAYLOAD_EXTRAS = {
    EigenReport: {"schema_version"},
    WittenIndexReport: {"schema_version"},
    PairingReport: {"all_matched"},
    ConvergenceReport: set(),
    AlgebraReport: {"max_residual"},
    SweepRow: set(),
}


@pytest.fixture(scope="module")
def small_reports():
    """One computed instance of each report class, at n = 24 and epsilon = 0.3."""
    grid = GridSpec(5.0, 24)
    op_set = build_operator_set(ModelSpec(epsilon="0.3"), grid)
    index = witten_index(op_set, grid, IndexParams(k=6))
    return {
        EigenReport: index.minus_report,
        WittenIndexReport: index,
        PairingReport: pairing_check(index.minus_report, index.plus_report, 4.0),
        ConvergenceReport: convergence_study([GridSpec(5.0, n) for n in (25, 33, 49)]),
        AlgebraReport: algebra_check(build_susy_quartet(op_set.D_mat)),
        SweepRow: perturbation_sweep([0.3], grid, params=IndexParams(k=6))[0],
    }


@pytest.mark.parametrize("cls", list(_PAYLOAD_EXTRAS), ids=lambda c: c.__name__)
def test_report_payload_is_its_repr_fields(small_reports, cls):
    report = small_reports[cls]
    payload = report.to_json_dict()
    shown = {f.name for f in fields(cls) if f.repr}
    hidden = {f.name for f in fields(cls) if not f.repr}
    assert set(payload) == shown | _PAYLOAD_EXTRAS[cls]
    assert not hidden & set(payload)
    # plain JSON already: nothing is coerced on the way through
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    if cls is EigenReport:
        assert hidden == {"vectors"} and report.vectors
        assert "vectors" not in repr(report) and "Field(" not in repr(report)
