"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts.  Shared heavyweight solves live in module-scoped
fixtures so the suite stays within desk-scale runtimes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from dil import (BlockOperator, GradedVector, GridSpec, IndexParams,
                 ModelSpec, Parity, adjoint, algebra_check, build_operator_set,
                 compose, convergence_study, crat, fit_gaussian_decay,
                 graded_apply, localization_fraction, monomial,
                 parity_classify, perturbation_sweep, project, witten_index)
from dil.opcalc import D, DBAR, Z, ZBAR, ZERO
from dil.selftest import random_block

SWEEP_CS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _record(num: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"acceptance criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def sweep_rows(desk_grid):
    return perturbation_sweep(SWEEP_CS, desk_grid, params=IndexParams(k=6))


@pytest.fixture(scope="module")
def strong_perturbation_report():
    # c = 0.9: gap and localization radius both self-calibrate
    grid = GridSpec(5.0, 96)
    spec = ModelSpec(epsilon="0.9", f1_value=1)
    op_set = build_operator_set(spec, grid)
    return witten_index(op_set, grid, IndexParams(k=6))


def test_criterion_01_susy_algebra_residuals(desk_quartet):
    report = algebra_check(desk_quartet)
    _record(1, f"N=2 algebra residuals <= 1e-12 (max {report.max_residual:.2e})",
            report.max_residual <= 1e-12)


def test_criterion_02_witten_index_grid_invariant():
    outcomes = []
    for L, n in ((4.0, 64), (5.0, 96), (6.0, 128)):
        grid = GridSpec(L, n)
        op_set = build_operator_set(ModelSpec(), grid)
        rep = witten_index(op_set, grid, IndexParams(k=6))
        outcomes.append((rep.n_minus, rep.n_plus, rep.delta))
    ok = all(o == (1, 0, 1) for o in outcomes)
    _record(2, f"delta=1 with n-=1, n+=0 on three grids {outcomes}", ok)


def test_criterion_03_oscillator_spectrum(desk_index):
    m = desk_index.eigenvalues_minus[:3]
    p = desk_index.eigenvalues_plus[:2]
    ok = (abs(m[0] - 0.0) <= 0.05 and abs(m[1] - 1.0) <= 0.05
          and abs(m[2] - 1.0) <= 0.05
          and abs(p[0] - 1.0) <= 0.05 and abs(p[1] - 1.0) <= 0.05)
    _record(3, f"H- three smallest {np.round(m, 4)} ~ (0,1,1); "
               f"H+ two smallest {np.round(p, 4)} ~ (1,1), all within 0.05", ok)


def test_criterion_04_zero_mode_profile(desk_index):
    mode = desk_index.minus_report.vectors[0]
    fit = fit_gaussian_decay(mode)
    frac = localization_fraction(mode, 2.0)
    ok = abs(fit.alpha - 1.0) <= 0.02 and frac >= 0.999
    _record(4, f"zero mode: alpha={fit.alpha:.4f} (1.00 +/- 2%), "
               f"localization(R=2)={frac:.5f} >= 0.999", ok)


def test_criterion_05_compact_perturbation_invariance(sweep_rows, desk_grid):
    ok = True
    for row in sweep_rows:
        ok &= row.error is None and row.delta == 1
        ok &= row.alpha_fit is not None and abs(
            row.alpha_fit - row.alpha_predicted) <= 0.02 * row.alpha_predicted
    # higher-order multiplier series: same invariance, shifted alpha
    spec = ModelSpec(epsilon="0.3", f1_value=1,
                     f1_series=(Fraction(1, 2), Fraction(1, 4)))
    op_set = build_operator_set(spec, desk_grid)
    rep = witten_index(op_set, desk_grid, IndexParams(k=6))
    alpha_pred = spec.predicted_alpha()
    fit = fit_gaussian_decay(rep.minus_report.vectors[0])
    ok &= rep.delta == 1
    ok &= abs(fit.alpha - alpha_pred) <= 0.02 * alpha_pred
    _record(5, "delta=1 and |alpha_fit - sqrt(1-c)| <= 2% for c in "
               f"{list(SWEEP_CS)} and for the higher-order series "
               f"(c_eff={float(spec.mass_defect()):.5f})", ok)


def test_criterion_06_topological_cross_check(sweep_rows,
                                              strong_perturbation_report):
    ok = all(row.winding == row.delta == 1 for row in sweep_rows)
    rep = strong_perturbation_report
    ok &= rep.delta == rep.winding == 1
    _record(6, "winding == delta at every sweep point and at c = 0.9 "
               f"(c=0.9: delta={rep.delta}, winding={rep.winding})", ok)


def test_criterion_07_susy_pairing(desk_index):
    from dil import pairing_check
    report = pairing_check(desk_index.minus_report, desk_index.plus_report,
                           cutoff=2.5, gap_threshold=0.5)
    ok = report.tol == 0.05 and report.all_matched and len(report.pairs) >= 6
    worst = max((abs(a - b) for a, b in report.pairs), default=0.0)
    _record(7, f"every H- eigenvalue in (0.5, 2.5) pairs with H+ within 0.05 "
               f"({len(report.pairs)} pairs, worst gap {worst:.4f})", ok)


def test_criterion_08_symbolic_exactness():
    defect = BlockOperator.from_rows([[D, ZBAR], [Z, DBAR]])
    core = monomial(-1, pow_d=1, pow_dbar=1) + monomial(1, 1, 1, 0, 0)
    h_minus = BlockOperator.from_rows([[core, monomial(-1)], [monomial(-1), core]])
    h_plus = BlockOperator.from_rows([[core, ZERO], [ZERO, core]])
    ok = compose(adjoint(defect), defect) == h_minus
    ok &= compose(defect, adjoint(defect)) == h_plus

    rng = random.Random(97)
    for _ in range(100):
        a, b = random_block(rng), random_block(rng)
        ok &= adjoint(adjoint(a)) == a
        ok &= adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))
    _record(8, "closed forms of both partner Hamiltonians exact; adjoint "
               "involutive and anti-multiplicative on 100 random operators", ok)


def test_criterion_09_convergence_order():
    grids = [GridSpec(5.0, n) for n in (49, 97, 193)]
    report = convergence_study(grids, params=IndexParams(k=3))
    ok = 1.7 <= report.order_second <= 2.3 and report.monotone_smallest
    _record(9, f"second-eigenvalue error order p={report.order_second:.2f} "
               f"in [1.7, 2.3]; smallest-eigenvalue error monotone", ok)


def test_criterion_10_graded_module_table():
    rng = np.random.default_rng(123)
    grid = GridSpec(4.0, 8)
    m = 2
    half = m * grid.num_nodes
    w = np.diag(np.concatenate([np.ones(half), -np.ones(half)]))
    ok = True
    worst_leak = 0.0
    for _ in range(200):
        b = (rng.standard_normal((2 * half, 2 * half))
             + 1j * rng.standard_normal((2 * half, 2 * half)))
        mat = 0.5 * (b + w @ b @ w) if rng.random() < 0.5 else 0.5 * (b - w @ b @ w)
        parity = parity_classify(mat)  # at PARITY_TOL = 1e-12
        ok &= parity in (Parity.EVEN, Parity.ODD)
        vec = (rng.standard_normal(2 * half) + 1j * rng.standard_normal(2 * half))
        v = GradedVector.from_vector(grid, m, vec)
        pure = project(v, +1) if rng.random() < 0.5 else project(v, -1)
        out = graded_apply(mat, pure)  # raises on leakage above 1e-12
        in_plus = np.any(pure.plus.values)
        out_plus = bool(np.any(out.plus.values))
        expect_plus = in_plus == (parity is Parity.EVEN)
        forbidden = out.minus if expect_plus else out.plus
        allowed = out.plus if expect_plus else out.minus
        leak = np.linalg.norm(forbidden.values)
        denom = max(np.linalg.norm(allowed.values), 1e-300)
        worst_leak = max(worst_leak, leak / denom)
        ok &= leak <= 1e-12 * denom
    _record(10, "200 random even/odd operators respect the sector table "
                f"(worst relative leakage {worst_leak:.2e} <= 1e-12)", ok)
