"""Spectra, zero-mode counting, winding, and the Witten index."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (AmbiguousGapWarning, BlockOperator, ContourError,
                 EigenReport, GridSpec, IndexParams, ModelSpec, SolverError,
                 build_operator_set, count_zero_modes, low_spectrum, monomial,
                 operator_set_from_block, pairing_check, winding_number,
                 witten_index)
from dil.opcalc import D, DBAR, ONE, Z, ZBAR, ZERO
from dil.spectral import DENSE_CUTOFF

OSCILLATOR_TOL = 0.05


# --------------------------------------------------------------------------
# low_spectrum
# --------------------------------------------------------------------------

def test_identity_matrix_spectrum():
    g = GridSpec(4.0, 8)
    eye = sp.identity(2 * g.num_nodes, dtype=complex, format="csr")
    rep = low_spectrum(eye, 3, grid=g, matrix_id="identity")
    assert rep.eigenvalues == pytest.approx([1.0, 1.0, 1.0], abs=0)
    assert rep.residuals == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert rep.method == "dense"


def test_h_minus_oscillator_oracle(desk_index):
    # continuum: (-1/4 Lap + r^2) (x) I2 - sigma_x has levels {0, 1, 1, 2, ...}
    vals = desk_index.eigenvalues_minus
    assert vals[0] == pytest.approx(0.0, abs=OSCILLATOR_TOL)
    assert vals[1] == pytest.approx(1.0, abs=OSCILLATOR_TOL)
    assert vals[2] == pytest.approx(1.0, abs=OSCILLATOR_TOL)


def test_h_plus_oscillator_oracle(desk_index):
    vals = desk_index.eigenvalues_plus
    assert vals[0] == pytest.approx(1.0, abs=OSCILLATOR_TOL)
    assert vals[1] == pytest.approx(1.0, abs=OSCILLATOR_TOL)


def test_low_spectrum_is_deterministic(desk_set, desk_grid):
    rep1 = low_spectrum(desk_set.H_minus_mat, 3, grid=desk_grid, seed=42)
    rep2 = low_spectrum(desk_set.H_minus_mat, 3, grid=desk_grid, seed=42)
    assert rep1.eigenvalues == rep2.eigenvalues
    for v1, v2 in zip(rep1.vectors, rep2.vectors):
        assert np.array_equal(v1.values, v2.values)


def test_low_spectrum_residuals_within_bound(desk_index):
    for rep in (desk_index.minus_report, desk_index.plus_report):
        assert max(rep.residuals) <= rep.residual_bound
        assert rep.hermiticity_defect <= 1e-12
        assert rep.eigenvalues == sorted(rep.eigenvalues)


def test_low_spectrum_nonconvergence_raises(desk_set, desk_grid, monkeypatch):
    import dil.spectral as spectral_mod

    def fake_eigsh(*args, **kwargs):
        raise spectral_mod.spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spectral_mod.spla, "eigsh", fake_eigsh)
    with pytest.raises(SolverError) as exc_info:
        low_spectrum(desk_set.H_minus_mat, 4, grid=desk_grid, maxiter=7)
    assert exc_info.value.maxiter == 7
    assert exc_info.value.converged == 0


def test_real_matrix_above_dense_cutoff_gets_exact_spectrum():
    # a real matrix makes ARPACK iterate in real arithmetic; a complex solve
    # would be cast back to real with a ComplexWarning
    g = GridSpec(4.0, 64)
    dim = g.num_nodes
    assert dim > DENSE_CUTOFF
    diagonal = np.random.default_rng(3).permutation(np.arange(1.0, dim + 1.0))
    a = sp.diags(diagonal, format="csr")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = low_spectrum(a, 4, grid=g, matrix_id="diagonal")
    assert rep.method == "shift-invert"
    assert rep.eigenvalues == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-12, abs=0)
    assert rep.ordering == "MMD_AT_PLUS_A"
    assert rep.lu_fill == 2 * dim  # SuperLU stores the unit diagonal of L
    assert rep.n_solves >= 4


_SMALL = GridSpec(5.0, 24)


@pytest.mark.parametrize("op_set", [
    build_operator_set(ModelSpec(epsilon="0.3", f1_value=1), _SMALL),
    operator_set_from_block(BlockOperator.from_rows([[D, Z], [ZBAR, DBAR]]), _SMALL),
], ids=["vortex-c0.3", "anti-vortex"])
@pytest.mark.parametrize("name", ["H_minus_mat", "H_plus_mat"])
def test_sparse_and_dense_paths_agree(op_set, name):
    # k = 8, the default solver.k; the anti-vortex H_minus has a fourfold
    # level at 1.93 that a window of k = 6 cuts, and there shift-invert
    # Lanczos can return three copies and the next level in place of the
    # fourth, depending on the start vector
    mat = getattr(op_set, name)
    assert mat.shape[0] <= DENSE_CUTOFF
    dense = low_spectrum(mat, 8, grid=_SMALL, matrix_id=name)
    sparse = low_spectrum(mat, 8, grid=_SMALL, matrix_id=name, dense_cutoff=0)
    assert dense.method == "dense"
    assert (dense.ordering, dense.lu_fill, dense.n_solves) == (None, 0, 0)
    assert sparse.method == "shift-invert"
    assert sparse.ordering == "MMD_AT_PLUS_A"
    assert sparse.lu_fill > 0
    assert sparse.n_solves >= 8
    assert np.max(np.abs(np.subtract(sparse.eigenvalues, dense.eigenvalues))) \
        <= sparse.residual_bound
    payload = sparse.to_json_dict()
    assert (payload["ordering"], payload["lu_fill"], payload["n_solves"]) == \
        (sparse.ordering, sparse.lu_fill, sparse.n_solves)


_HEAP_PROBE = """
import os
import numpy as np
import scipy.sparse as sp
from dil import GridSpec, low_spectrum

def resident_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

# freeing the mapped 16 MB array raises glibc's mmap threshold to 16 MB, so
# the 8 MB array comes from the heap and stays resident once freed
big = np.ones(2**21)
del big
mid = np.ones(2**20)
del mid
before = resident_mb()
low_spectrum(sp.identity(64, format="csr"), 2, grid=GridSpec(4.0, 8),
             dense_cutoff=0)
print(before - resident_mb())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="needs glibc's malloc and /proc/self/statm")
def test_sparse_solve_releases_free_heap_pages():
    # a fresh interpreter, so that the heap holds exactly the freed 8 MB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) > 6.0


# --------------------------------------------------------------------------
# zero-mode counting
# --------------------------------------------------------------------------

def test_count_zero_modes_unperturbed(desk_index, desk_grid):
    assert count_zero_modes(desk_index.minus_report, desk_grid) == 1
    assert count_zero_modes(desk_index.plus_report, desk_grid) == 0


def test_count_zero_modes_empty_report(desk_grid):
    empty = EigenReport(matrix_id="empty", grid=desk_grid, eigenvalues=[],
                        vectors=[], residuals=[], residual_bound=0.0,
                        hermiticity_defect=0.0, method="dense", tol=0.0)
    assert count_zero_modes(empty, desk_grid) == 0


def test_count_zero_modes_stable_on_threshold_plateau(desk_index, desk_grid):
    counts = {count_zero_modes(desk_index.minus_report, desk_grid, gap_threshold=t)
              for t in (0.3, 0.4, 0.5, 0.6, 0.7)}
    assert counts == {1}


def test_count_zero_modes_monotone_in_threshold(desk_index, desk_grid):
    import warnings as _warnings
    counts = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", AmbiguousGapWarning)
        for t in (0.1, 0.5, 1.2, 2.1):
            counts.append(count_zero_modes(desk_index.minus_report, desk_grid,
                                           gap_threshold=t, loc_min=0.0))
    assert counts == sorted(counts)


def test_count_zero_modes_warns_near_threshold(desk_index, desk_grid):
    # second eigenvalue sits at ~1.0; a threshold of 0.97 is within 10%
    with pytest.warns(AmbiguousGapWarning):
        count_zero_modes(desk_index.minus_report, desk_grid, gap_threshold=0.97)


def test_count_zero_modes_rejects_bad_threshold(desk_index, desk_grid):
    with pytest.raises(ValueError):
        count_zero_modes(desk_index.minus_report, desk_grid, gap_threshold=0.0)


# --------------------------------------------------------------------------
# winding number
# --------------------------------------------------------------------------

def test_winding_of_coordinate_entry():
    assert winding_number(Z, radius=1.0) == 1


def test_winding_invariant_under_positive_scaling():
    scaled = Z.scale("0.5")  # z*(1 - eps f1) with eps f1 = 0.5
    assert winding_number(scaled, radius=1.0) == 1
    base = np.exp(2j * np.pi * np.arange(257) / 256)
    from dil.opcalc import evaluate_multiplication
    phases = np.angle(evaluate_multiplication(scaled, base)
                      / evaluate_multiplication(Z, base))
    assert np.max(np.abs(phases)) <= 1e-12


def test_winding_of_constant_entry():
    assert winding_number(ONE, radius=1.0) == 0


def test_winding_zero_on_contour():
    with pytest.raises(ContourError):
        winding_number(ZERO, radius=1.0)
    # z - 1 vanishes at the contour point z = 1
    with pytest.raises(ContourError):
        winding_number(Z - ONE, radius=1.0)


def test_winding_sample_floor():
    with pytest.raises(ValueError):
        winding_number(Z, radius=1.0, samples=16)


def test_winding_rejects_derivative_expressions():
    from dil.opcalc import D
    with pytest.raises(ValueError):
        winding_number(D, radius=1.0)


def test_winding_degree_two_zero():
    z_squared = monomial(1, 2, 0, 0, 0)
    assert winding_number(z_squared, radius=1.0) == 2


# --------------------------------------------------------------------------
# witten index
# --------------------------------------------------------------------------

def test_witten_index_unperturbed(desk_index):
    assert desk_index.n_minus == 1
    assert desk_index.n_plus == 0
    assert desk_index.delta == 1
    assert desk_index.winding == 1
    assert desk_index.winding_matches is True
    assert not desk_index.ambiguous
    assert all(f >= 0.95 for f in desk_index.localization_fractions["minus"])


def test_witten_index_gap_self_calibration(desk_index):
    # auto threshold: half the smallest H_plus eigenvalue, capped at 0.5
    assert desk_index.gap_threshold == pytest.approx(
        min(0.5, desk_index.eigenvalues_plus[0] / 2), abs=0)


def test_witten_index_perturbed(perturbed_index):
    assert perturbed_index.delta == 1
    assert perturbed_index.winding == 1


def test_witten_index_of_invertible_operator():
    # an operator with no kernel on either side has index zero
    g = GridSpec(4.0, 10)
    op_set = operator_set_from_block(BlockOperator.identity(2), g)
    report = witten_index(op_set, g, IndexParams(k=4))
    assert report.delta == 0
    assert report.n_minus == report.n_plus == 0
    assert report.winding is None  # mass entry is identically zero
    assert report.winding_matches is None


def test_witten_index_json_schema_fields(desk_index):
    payload = desk_index.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["delta"] == payload["n_minus"] - payload["n_plus"]
    assert payload["grid"] == {"L": 5.0, "n": 96}
    assert payload["model"]["epsilon"] == 0.0


# --------------------------------------------------------------------------
# pairing
# --------------------------------------------------------------------------

def test_pairing_of_unperturbed_partners(desk_index):
    report = pairing_check(desk_index.minus_report, desk_index.plus_report,
                           cutoff=2.5, tol=0.05)
    assert report.all_matched
    assert len(report.pairs) >= 6  # {1, 1} and the four copies of 2
    for lam, mu in report.pairs:
        assert abs(lam - mu) <= 0.05


def test_pairing_empty_spectra(desk_grid):
    empty = EigenReport(matrix_id="empty", grid=desk_grid, eigenvalues=[],
                        vectors=[], residuals=[], residual_bound=0.0,
                        hermiticity_defect=0.0, method="dense", tol=0.0)
    report = pairing_check(empty, empty, cutoff=2.5)
    assert report.all_matched
    assert report.pairs == []


def test_pairing_perturbed_partners(perturbed_index):
    gap = perturbed_index.gap_threshold
    report = pairing_check(perturbed_index.minus_report,
                           perturbed_index.plus_report,
                           cutoff=2.0, tol=0.05, gap_threshold=gap)
    assert report.all_matched


def test_pairing_reports_mismatches(desk_index, desk_grid):
    shifted = EigenReport(matrix_id="shifted", grid=desk_grid,
                          eigenvalues=[v + 0.3 for v in desk_index.eigenvalues_plus],
                          vectors=[], residuals=[], residual_bound=0.0,
                          hermiticity_defect=0.0, method="dense", tol=0.0)
    report = pairing_check(desk_index.minus_report, shifted, cutoff=1.5, tol=0.05)
    assert not report.all_matched
    assert report.unmatched_minus
