"""Spectra, zero-mode counting, winding, and the Witten index."""

from __future__ import annotations

import dataclasses
import os
import platform
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (BlockOperator, ContourError, adjoint,
                 EigenReport, GridSpec, IndexParams, ModelSpec, SolverError,
                 build_operator_set, low_spectrum, mode_census, monomial,
                 operator_set_from_block, pairing_check, winding_number,
                 witten_index)
from dil import spectral
from dil.opcalc import D, DBAR, ONE, Z, ZBAR, ZERO, crat

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
        low_spectrum(desk_set.H_minus_mat, 4, grid=desk_grid)
    assert exc_info.value.converged == 0


def test_real_matrix_gets_exact_spectrum():
    # a real matrix makes ARPACK iterate in real arithmetic; a complex solve
    # would be cast back to real with a ComplexWarning
    g = GridSpec(4.0, 64)
    dim = g.num_nodes
    diagonal = np.random.default_rng(3).permutation(np.arange(1.0, dim + 1.0))
    a = sp.diags(diagonal, format="csr")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = low_spectrum(a, 4, grid=g, matrix_id="diagonal")
    assert rep.eigenvalues == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-12, abs=0)
    assert rep.ordering == "MMD_AT_PLUS_A"
    assert rep.lu_fill == 2 * dim  # SuperLU stores the unit diagonal of L
    assert rep.n_solves >= 4


def test_eigenvalue_at_the_shift_raises_solver_error():
    # an eigenvalue exactly at sigma = -0.5 makes the shifted matrix exactly
    # singular: the factorization is refused, and the error names the check
    g = GridSpec(4.0, 8)
    diagonal = np.arange(1.0, g.num_nodes + 1.0)
    diagonal[10] = -0.5
    with pytest.raises(SolverError, match="exactly singular") as exc_info:
        low_spectrum(sp.diags(diagonal, format="csr"), 4, grid=g, matrix_id="diagonal")
    assert exc_info.value.matrix_id == "diagonal"


_SMALL = GridSpec(5.0, 24)


@pytest.mark.parametrize("op_set", [
    build_operator_set(ModelSpec(epsilon="0.3", f1_value=1), _SMALL),
    operator_set_from_block(BlockOperator.from_rows([[D, Z], [ZBAR, DBAR]]), _SMALL),
    # N = 2 on the n = 8 grid: H_minus has a double level at -0.6166, below
    # sigma, so the shifted matrix it factors without pivoting is indefinite
    operator_set_from_block(BlockOperator.from_rows(
        [[D, monomial(1, pow_zbar=2)], [monomial(1, pow_z=2), DBAR]]), GridSpec(5.0, 8)),
], ids=["vortex-c0.3", "anti-vortex", "N=2-n8"])
@pytest.mark.parametrize("name", ["H_minus_mat", "H_plus_mat"])
def test_sparse_and_dense_paths_agree(op_set, name):
    # k = 8, the default solver.k; the reference is the dense spectrum
    mat = getattr(op_set, name)
    dense = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
    sparse = low_spectrum(mat, 8, grid=op_set.grid, matrix_id=name)
    assert sparse.ordering == "MMD_AT_PLUS_A"
    assert sparse.lu_fill > 0
    assert sparse.n_solves >= 8
    assert np.max(np.abs(np.subtract(sparse.eigenvalues, dense))) \
        <= sparse.residual_bound
    payload = sparse.to_json_dict()
    assert (payload["ordering"], payload["lu_fill"], payload["n_solves"],
            payload["arithmetic"]) == \
        (sparse.ordering, sparse.lu_fill, sparse.n_solves, sparse.arithmetic)


def test_eigen_report_payload_version_and_keys():
    g = GridSpec(4.0, 8)
    eye = sp.identity(2 * g.num_nodes, dtype=complex, format="csr")
    payload = low_spectrum(eye, 3, grid=g, matrix_id="identity").to_json_dict()
    assert payload["schema_version"] == 7
    assert set(payload) == {
        "schema_version", "matrix_id", "grid", "eigenvalues", "residuals",
        "residual_bound", "hermiticity_defect", "ordering", "lu_fill",
        "n_solves", "arithmetic", "sector_offset", "sector_pairs"}
    # the identity is [[I, 0], [0, I]]: two identical sectors (offset 0.0),
    # solved once for ceil(3/2) pairs
    assert (payload["sector_offset"], payload["sector_pairs"]) == (0.0, [2])
    assert str(payload["sector_offset"]) == "0.0"  # not -0.0


def _defect(upper, lower):
    """[[d, upper], [lower, db]]: lower z^N (N > 0) or zb^|N| sets the winding."""
    return BlockOperator.from_rows([[D, upper], [lower, DBAR]])


def _block_set(upper, lower):
    return lambda grid: operator_set_from_block(_defect(upper, lower), grid)


_REAL_FORM_CASES = {
    # builder, arithmetic, and whether both partners split into two sectors
    "vortex-c0": (lambda grid: build_operator_set(ModelSpec(), grid), "real", True),
    "vortex-c0.3": (lambda grid: build_operator_set(ModelSpec(epsilon="0.3"), grid),
                    "real", False),
    "anti-vortex-m1": (_block_set(Z, ZBAR), "real", True),
    "anti-vortex-m41/20": (_block_set(Z * Fraction(41, 20), ZBAR), "real", False),
    "N=2-m5/2": (_block_set(monomial(Fraction(5, 2), pow_zbar=2),
                            monomial(1, pow_z=2)), "real", False),
    "anti-vortex-m1+2i": (_block_set(Z * crat(1, 2), ZBAR), "complex", False),
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
    # Hermitian matrix itself.  Only the partners with a unit mass
    # multiplier (c = 0, m = 1) commute with the swap of the spinor
    # components and split into two sectors.
    build, arithmetic, split = _REAL_FORM_CASES[case]
    grid = GridSpec(5.0, n)
    mat = getattr(build(grid), name)
    assert np.iscomplexobj(mat)
    exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
    for seed in range(3):
        rep = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=seed)
        assert rep.arithmetic == arithmetic
        assert rep.to_json_dict()["arithmetic"] == arithmetic
        assert (rep.to_json_dict()["sector_offset"] is not None) == split
        assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
        assert max(rep.residuals) <= rep.residual_bound
    assert low_spectrum(mat, 8, grid=grid).arithmetic == arithmetic


_SWAP_CASES = {
    # builder, then the sector offset -2 beta of H_minus and of H_plus
    # (None: one sector; 0.0: two identical sectors)
    "vortex-t1": (lambda grid: build_operator_set(ModelSpec(), grid), 2.0, 0.0),
    "vortex-t2": (lambda grid: build_operator_set(ModelSpec(t=2), grid), 4.0, 0.0),
    "anti-vortex-m1": (_block_set(Z, ZBAR), 0.0, -2.0),
    "N=2-m1": (_block_set(monomial(1, pow_zbar=2), monomial(1, pow_z=2)), None, 0.0),
    "N=-2-m1": (_block_set(monomial(1, pow_z=2), monomial(1, pow_zbar=2)), 0.0, None),
}


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("case", list(_SWAP_CASES))
def test_swap_sectors_match_the_dense_spectrum(case, n):
    # a partner [[A, B], [B*, A]] with B = B* commutes with the swap of its
    # spinor components and is solved as A + B and A - B, or once as A when
    # B = 0; the merged spectrum is the dense one, every copy of a
    # degenerate level included, from every start vector, and the returned
    # vectors are orthonormal
    build, *offsets = _SWAP_CASES[case]
    grid = GridSpec(5.0, n)
    op_set = build(grid)
    for name, offset in zip(("H_minus_mat", "H_plus_mat"), offsets):
        mat = getattr(op_set, name)
        exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
        for seed in range(8):
            rep = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=seed)
            assert rep.sector_offset == offset
            assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
            assert max(rep.residuals) <= rep.residual_bound
            vecs = np.array([f.values.ravel() for f in rep.vectors]) * grid.h
            assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(8))) <= 1e-9


_SWAP_PROBE = """
from dil import GridSpec, ModelSpec, build_operator_set, low_spectrum
grid = GridSpec(5.0, 96)
mat = build_operator_set(ModelSpec(), grid).H_plus_mat
rep = low_spectrum(mat, 8, grid=grid, seed=622435680)
print(sum(abs(v - 1.995835) < 1e-6 for v in rep.eigenvalues))
"""


def test_swap_split_keeps_every_copy_of_a_degenerate_level():
    # the vortex H_plus is [[A, 0], [0, A]]; at this start seed and one BLAS
    # thread, one Lanczos run over the coupled matrix returned its fourfold
    # level 1.995835 three times and 2.993057 in place of the fourth, where
    # the default thread pool found all four; a fresh interpreter, so that
    # the thread count holds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               **{f"{lib}_NUM_THREADS": "1" for lib in ("OMP", "OPENBLAS", "MKL")})
    out = subprocess.run([sys.executable, "-c", _SWAP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) == 4


def _sectors(grid, coupling=1):
    """The vortex H_minus [[A, B], [B, A]] (B = -1 on the grid) with its
    coupling scaled, [[A, cB], [cB, A]], and the dense spectra of its
    sectors A + cB, which is solved, and A - cB."""
    n2 = grid.num_nodes
    herm = build_operator_set(ModelSpec(), grid).H_minus_mat
    herm = ((herm + herm.getH()) * 0.5).tocsr()
    upper, b = herm[:n2, :n2], coupling * herm[:n2, n2:]
    mat = sp.bmat([[upper, b], [b, upper]], format="csr")
    return mat, [np.linalg.eigvalsh((upper + sign * b).toarray().real) for sign in (1, -1)]


def _count_factorizations(monkeypatch):
    """Wrap ``spectral._factor``; the returned list grows by one per call."""
    calls, factor = [], spectral._factor

    def counted(form, shift):
        calls.append(shift)
        return factor(form, shift)

    monkeypatch.setattr(spectral, "_factor", counted)
    return calls


@pytest.mark.parametrize("matrix, counted", [
    ([[0.0, 1.0], [1.0, 0.0]], None),      # zero pivot: SuperLU leaves the diagonal
    ([[1e-20, 1.0], [1.0, 1e-20]], None),  # tiny pivot: unstable, large backward error
    ([[1.0, 1.0], [1.0, 1.0]], None),      # exactly singular
    ([[2.0, 1.0], [1.0, -3.0]], 1),
])
def test_count_refuses_a_factorization_it_cannot_trust(matrix, counted):
    # a refused factor comes with the check it failed; the indefinite matrix
    # is factored, and its negative pivots count its negative eigenvalues
    lu, failed = spectral._factor(sp.csr_matrix(matrix), 0.0)
    if counted is None:
        assert lu is None
        assert re.search("zero pivot|singular|backward error", failed)
    else:
        assert failed == ""
        assert np.count_nonzero(lu.U.diagonal() < 0) == counted


@pytest.mark.parametrize("coupling, k, from_second", [
    (1, 3, 0),               # the vortex H_minus itself: A + B holds the 3 lowest
    (Fraction(1, 8), 3, 1),   # a second sector slightly above the first
    (Fraction(-1, 8), 3, 2),  # slightly below
    (-1, 8, 7),              # the second sector holds the kernel
])
def test_scalar_coupling_is_solved_once(monkeypatch, coupling, k, from_second):
    # [[A, beta], [beta, A]] has the sectors A + beta and A - beta, the first
    # shifted by -2 beta: A + beta is factored and solved once for k pairs,
    # each pair also gives the antisymmetric vector of the second sector,
    # and the k lowest of both are the dense ones, orthonormal, with each
    # antisymmetric vector's eigenvalue from the second sector
    grid = GridSpec(5.0, 20)
    n2 = grid.num_nodes
    mat, (first, second) = _sectors(grid, float(coupling))
    beta = mat[0, n2].real
    exact = np.sort(np.concatenate((first, second)))[:k]
    calls = _count_factorizations(monkeypatch)
    for seed in range(3):
        rep = low_spectrum(mat, k, grid=grid, seed=seed)
        assert len(calls) == seed + 1
        assert (rep.sector_pairs, rep.sector_offset) == ([k], -2 * beta)
        assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
        assert max(rep.residuals) <= rep.residual_bound
        vecs = np.array([f.values.ravel() for f in rep.vectors]) * grid.h
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(k))) <= 1e-9
        odd = [lam for lam, v in zip(rep.eigenvalues, vecs)
               if np.array_equal(v[n2:], -v[:n2])]
        even = [lam for lam, v in zip(rep.eigenvalues, vecs)
                if np.array_equal(v[n2:], v[:n2])]
        assert (len(odd), len(even)) == (from_second, k - from_second)
        assert np.max(np.abs(np.subtract(odd, second[:from_second])), initial=0) <= 1e-9
        assert np.max(np.abs(np.subtract(even, first[:k - from_second])), initial=0) <= 1e-9


def test_non_scalar_coupling_is_one_sector(monkeypatch):
    # [[A, B], [B, A]] with B a real diagonal that varies commutes with the
    # spinor swap too, but its sectors A + B and A - B are not one matrix
    # shifted, so it is solved whole, with one factorization
    grid = GridSpec(5.0, 20)
    n2 = grid.num_nodes
    upper = _sectors(grid)[0][:n2, :n2]
    b = sp.diags(np.linspace(-1.0, 0.5, n2), format="csr")
    mat = sp.bmat([[upper, b], [b, upper]], format="csr")
    exact = np.linalg.eigvalsh(mat.toarray())[:8]
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(mat, 8, grid=grid, seed=1)
    assert (rep.sector_offset, rep.sector_pairs, len(calls)) == (None, [8], 1)
    assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
    assert max(rep.residuals) <= rep.residual_bound


def test_pivot_free_fill_does_not_grow_with_the_mass():
    # the anti-vortex [[d, m z], [zb, db]] at n = 96: partial pivoting left
    # the symmetric ordering at m = 16 and stored 83 M and 120 M entries
    # (79 s and 125 s); without pivoting each partner stores what m = 4 does
    grid = GridSpec(5.0, 96)
    fills = {}
    start = time.perf_counter()
    for m in (4, 16):
        op_set = _block_set(Z * m, ZBAR)(grid)
        for name in ("H_minus_mat", "H_plus_mat"):
            fills[m, name] = low_spectrum(getattr(op_set, name), 8, grid=grid).lu_fill
    assert time.perf_counter() - start < 60.0
    for name in ("H_minus_mat", "H_plus_mat"):
        assert fills[16, name] <= 1.5 * fills[4, name]


def test_unperturbed_h_minus_solves_one_sector(monkeypatch):
    # the solve budget of the refinement study: at n = 49 and k = 3 the
    # coupling is -t = -1, so A - 1 is factored and solved once, and A + 1
    # is that sector shifted by +2
    grid = GridSpec(5.0, 49)
    exact = np.sort(np.concatenate(_sectors(grid)[1]))[:3]
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(build_operator_set(ModelSpec(), grid).H_minus_mat, 3, grid=grid)
    assert (rep.sector_pairs, rep.sector_offset, len(calls)) == ([3], 2.0, 1)
    assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9


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
low_spectrum(sp.identity(64, format="csr"), 2, grid=GridSpec(4.0, 8))
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
                        hermiticity_defect=0.0)
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


def test_winding_rejects_derivative_expressions():
    from dil.opcalc import D
    with pytest.raises(ValueError):
        winding_number(D, radius=1.0)


def test_winding_degree_two_zero():
    z_squared = monomial(1, 2, 0, 0, 0)
    assert winding_number(z_squared, radius=1.0) == 2


def test_winding_refuses_to_alias():
    # z^40 turns 40 * 2pi / 64 per step at 64 samples, where it would read
    # -24: the samples double until every step is below pi/2
    assert winding_number(monomial(1, pow_z=40), radius=1.0) == 40


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_winding_near_a_zero_raises_at_the_sample_cap(offset):
    # a zero 1e-9 off the unit contour turns the phase by about pi between
    # any two samples the cap allows: no count is returned
    zero = complex((1.0 + offset) * np.exp(1j))
    near = Z - ONE * crat(Fraction(zero.real), Fraction(zero.imag))
    with pytest.raises(ContourError, match="too close to a zero"):
        winding_number(near, radius=1.0)


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


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("mixed, delta", [(False, 2), (True, 0)],
                         ids=["(z-a)(z+a)", "(z-a)(zb+a)"])
def test_multi_defect_winding_is_taken_on_the_grid_contour(a, mixed, delta):
    # the lower entry (z - a)(z + a) has index 2, (z - a)(zb + a) index 0;
    # the contour |z| = L encloses both zeros, which the unit circle does
    # not for a = 3/2 and 5/2; n = 32 under-resolves the a = 5/2 modes
    grid = GridSpec(10.0, 48)
    second = (ZBAR if mixed else Z) + ONE * a
    lower = (Z - ONE * a) * second
    op_set = operator_set_from_block(_defect(adjoint(lower), lower), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", spectral.AmbiguousGapWarning)
        report = witten_index(op_set, grid, IndexParams(k=8))
    assert (report.delta, report.winding, report.winding_matches) == (delta, delta, True)


def test_winding_mismatch_warns(monkeypatch):
    # an index that disagrees with the winding warns and reports the mismatch
    grid = GridSpec(5.0, 24)
    monkeypatch.setattr(spectral, "winding_number", lambda multiplier, radius: 0)
    with pytest.warns(spectral.AmbiguousGapWarning, match="disagrees"):
        report = witten_index(build_operator_set(ModelSpec(), grid), grid, IndexParams(k=6))
    assert (report.delta, report.winding, report.winding_matches) == (1, 0, False)


@pytest.mark.parametrize("bad", [dict(k=0)])
def test_index_params_refuse_what_the_config_refuses(bad):
    # k = 0 went on to ARPACK's bare "k must be greater than 0"
    with pytest.raises(ValueError, match=next(iter(bad))):
        IndexParams(**bad)
    IndexParams(k=1)


def test_index_params_hold_only_the_solver_settings():
    # the census calibrates from the data and has no setting
    assert [f.name for f in dataclasses.fields(IndexParams)] == ["k", "seed"]


def test_witten_index_json_schema_fields(desk_index):
    payload = desk_index.to_json_dict()
    assert payload["schema_version"] == 2
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
                        hermiticity_defect=0.0)
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
                          hermiticity_defect=0.0)
    report = pairing_check(desk_index.minus_report, shifted, cutoff=1.5, tol=0.05)
    assert not report.all_matched
    assert report.unmatched_minus
