"""Spectra, zero-mode counting, winding, and the Witten index."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (BlockOperator, ContourError,
                 EigenReport, GridSpec, IndexParams, ModelSpec, SolverError,
                 build_operator_set, low_spectrum, mode_census, monomial,
                 operator_set_from_block, pairing_check, winding_number,
                 witten_index)
from dil.opcalc import D, DBAR, ONE, Z, ZBAR, ZERO, crat
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
    assert (payload["ordering"], payload["lu_fill"], payload["n_solves"],
            payload["arithmetic"]) == \
        (sparse.ordering, sparse.lu_fill, sparse.n_solves, sparse.arithmetic)


def _defect(upper, lower):
    """[[d, upper], [lower, db]]: lower z^N (N > 0) or zb^|N| sets the winding."""
    return BlockOperator.from_rows([[D, upper], [lower, DBAR]])


def _block_set(upper, lower):
    return lambda grid: operator_set_from_block(_defect(upper, lower), grid)


_REAL_FORM_CASES = {
    "vortex-c0": (lambda grid: build_operator_set(ModelSpec(), grid), "real"),
    "vortex-c0.3": (lambda grid: build_operator_set(ModelSpec(epsilon="0.3"), grid),
                    "real"),
    "anti-vortex-m1": (_block_set(Z, ZBAR), "real"),
    "anti-vortex-m41/20": (_block_set(Z * Fraction(41, 20), ZBAR), "real"),
    "N=2-m5/2": (_block_set(monomial(Fraction(5, 2), pow_zbar=2),
                            monomial(1, pow_z=2)), "real"),
    "anti-vortex-m1+2i": (_block_set(Z * crat(1, 2), ZBAR), "complex"),
}


@pytest.mark.parametrize("name", ["H_minus_mat", "H_plus_mat"])
@pytest.mark.parametrize("case", list(_REAL_FORM_CASES))
@pytest.mark.parametrize("n", [24, 25])
def test_real_arithmetic_matches_the_complex_spectrum(n, case, name):
    # real coefficients make the matrix symmetric under the reflection
    # y -> -y with complex conjugation, so it is solved as a real symmetric
    # matrix: as it stands when it has no imaginary entry (c = 0, m = 1),
    # in the mirror-pair basis otherwise, where odd n adds the self-mirror
    # row y = 0.  The reference is the dense spectrum of the complex
    # Hermitian matrix itself.
    build, arithmetic = _REAL_FORM_CASES[case]
    grid = GridSpec(5.0, n)
    mat = getattr(build(grid), name)
    assert np.iscomplexobj(mat)
    exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
    for seed in range(3):
        rep = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=seed,
                           dense_cutoff=0)
        assert rep.arithmetic == arithmetic
        assert rep.to_json_dict()["arithmetic"] == arithmetic
        assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
        assert max(rep.residuals) <= rep.residual_bound
    assert low_spectrum(mat, 8, grid=grid).arithmetic == arithmetic


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

def _count(report, grid, gap_threshold=0.5, loc_min=0.95):
    return mode_census(report, grid, gap_threshold, grid.L / 2, loc_min)[0]


def test_count_zero_modes_unperturbed(desk_index, desk_grid):
    assert _count(desk_index.minus_report, desk_grid) == 1
    assert _count(desk_index.plus_report, desk_grid) == 0


def test_count_zero_modes_empty_report(desk_grid):
    empty = EigenReport(matrix_id="empty", grid=desk_grid, eigenvalues=[],
                        vectors=[], residuals=[], residual_bound=0.0,
                        hermiticity_defect=0.0, method="dense", tol=0.0)
    assert mode_census(empty, desk_grid, 0.5, desk_grid.L / 2, 0.95) == (0, [], False)


def test_count_zero_modes_stable_on_threshold_plateau(desk_index, desk_grid):
    counts = {_count(desk_index.minus_report, desk_grid, gap_threshold=t)
              for t in (0.3, 0.4, 0.5, 0.6, 0.7)}
    assert counts == {1}


def test_count_zero_modes_monotone_in_threshold(desk_index, desk_grid):
    counts = [_count(desk_index.minus_report, desk_grid, gap_threshold=t, loc_min=0.0)
              for t in (0.1, 0.5, 1.2, 2.1)]
    assert counts == sorted(counts)


def test_count_zero_modes_warns_near_threshold(desk_index, desk_grid):
    # second eigenvalue sits at ~1.0; a threshold of 0.97 is within 10%
    census = mode_census(desk_index.minus_report, desk_grid, 0.97, desk_grid.L / 2, 0.95)
    assert census[2] is True
    assert mode_census(desk_index.minus_report, desk_grid, 0.5, desk_grid.L / 2,
                       0.95)[2] is False


def test_count_zero_modes_rejects_bad_threshold(desk_index, desk_grid):
    with pytest.raises(ValueError):
        _count(desk_index.minus_report, desk_grid, gap_threshold=0.0)


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


def test_winding_refuses_to_alias():
    # z^40 turns 40 * 2pi / 64 per step at 64 samples: it would read -24
    with pytest.raises(ContourError, match="alias"):
        winding_number(monomial(1, pow_z=40), 1.0, 64)
    assert winding_number(monomial(1, pow_z=40), 1.0, 256) == 40


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


@pytest.mark.parametrize("upper, lower, counts", [
    (Z, ZBAR, (0, 1, -1, -1)),
    (Z * 2, ZBAR, (0, 1, -1, -1)),
    (monomial(Fraction(3, 2), pow_z=2), monomial(1, pow_zbar=2), (0, 2, -2, -2)),
], ids=["anti-vortex-m1", "anti-vortex-m2", "N=-2-m3/2"])
def test_negative_winding_puts_the_kernel_in_h_plus(upper, lower, counts):
    # (n_minus, n_plus, delta, winding): the n_plus > 0 side of the census
    grid = GridSpec(5.0, 48)
    op_set = operator_set_from_block(_defect(upper, lower), grid)
    report = witten_index(op_set, grid, IndexParams(k=8))
    assert (report.n_minus, report.n_plus, report.delta, report.winding) == counts


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
