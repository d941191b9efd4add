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
from dil.errors import ShapeError
from dil.lattice import Field
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


def test_low_spectrum_nonconvergence_raises(monkeypatch):
    # the perturbed H_minus is not a Kronecker sum, so it reaches eigsh
    import dil.spectral as spectral_mod
    grid = GridSpec(5.0, 24)
    mat = build_operator_set(ModelSpec(epsilon="0.3"), grid).H_minus_mat

    def fake_eigsh(*args, **kwargs):
        raise spectral_mod.spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spectral_mod.spla, "eigsh", fake_eigsh)
    with pytest.raises(SolverError) as exc_info:
        low_spectrum(mat, 4, grid=grid)
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


@pytest.mark.parametrize("k", [0, 2.5, 3.0, True])
def test_low_spectrum_refuses_a_k_that_is_no_positive_integer(k):
    # k = 3.0 crashed ARPACK with a SystemError, k = True returned one pair
    # from the Kronecker path, and k = 0 raised a different scipy message on
    # each path: k is checked once, before either path, as IndexParams does
    grid = GridSpec(5.0, 8)
    kron = build_operator_set(ModelSpec(), grid).H_minus_mat
    lanczos = build_operator_set(ModelSpec(epsilon="0.3"), grid).H_minus_mat
    assert low_spectrum(kron, 3, grid=grid).kron_defect is not None
    assert low_spectrum(lanczos, 3, grid=grid).ordering == spectral.ORDERING
    for mat in (kron, lanczos):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer of at least 1, "
                                                       f"got {k!r}")):
            low_spectrum(mat, k, grid=grid)
    with pytest.raises(ValueError, match="k must be an integer of at least 1"):
        IndexParams(k=k)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_low_spectrum_refuses_a_seed_that_is_no_non_negative_integer(seed):
    # the Lanczos path handed these to np.random.default_rng, which raised a
    # bare TypeError (2.5) or "expected non-negative integer" (-1); the
    # Kronecker path ignored them
    grid = GridSpec(5.0, 8)
    for eps in (0.0, "0.3"):
        mat = build_operator_set(ModelSpec(epsilon=eps), grid).H_minus_mat
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer of at least 0, "
                                                       f"got {seed!r}")):
            low_spectrum(mat, 3, grid=grid, seed=seed)
    assert IndexParams(seed=np.int64(3)).seed == 3


def test_a_residual_above_the_bound_raises_solver_error(monkeypatch):
    # one planted vector that is no eigenvector: the Rayleigh pass measures
    # its residual, and the bound refuses the whole report
    grid = GridSpec(5.0, 24)
    mat = build_operator_set(ModelSpec(), grid).H_minus_mat
    kron_solve = spectral._kron_solve

    def planted(ty, tx, k):
        vals, vecs = kron_solve(ty, tx, k)
        vecs[:, 0] = np.random.default_rng(0).standard_normal(vecs.shape[0])
        return vals, vecs

    monkeypatch.setattr(spectral, "_kron_solve", planted)
    with pytest.raises(SolverError, match="H_minus: eigenpair residual .* exceeds the bound") \
            as exc_info:
        low_spectrum(mat, 6, grid=grid, matrix_id="H_minus")
    assert (exc_info.value.matrix_id, exc_info.value.requested) == ("H_minus", 6)


def test_low_spectrum_refuses_a_matrix_that_is_not_on_the_grid():
    grid = GridSpec(5.0, 8)
    with pytest.raises(ShapeError, match=r"square, got \(64, 63\)"):
        low_spectrum(sp.random(64, 63, density=0.1, format="csr", random_state=0), 2, grid=grid)
    with pytest.raises(ShapeError, match="dimension 65 is not a multiple of n\\^2 = 64"):
        low_spectrum(sp.identity(65, format="csr"), 2, grid=grid)


def test_grid_mismatches_are_refused():
    grid, other = GridSpec(5.0, 8), GridSpec(5.0, 9)
    rep = low_spectrum(sp.identity(grid.num_nodes, format="csr"), 2, grid=grid)
    far = low_spectrum(sp.identity(other.num_nodes, format="csr"), 2, grid=other)
    with pytest.raises(ShapeError, match="report grid does not match"):
        mode_census(rep, other, 0.5, other.L / 2, spectral.LOC_MIN)
    with pytest.raises(ShapeError, match="discretized on a different grid"):
        witten_index(build_operator_set(ModelSpec(), grid), other)
    with pytest.raises(ShapeError, match="spectra from the same grid"):
        pairing_check(rep, far, cutoff=2.5)


_SMALL = GridSpec(5.0, 24)


@pytest.mark.parametrize("op_set", [
    build_operator_set(ModelSpec(epsilon="0.3", f1_value=1), _SMALL),
    # m = 2: the unit mass would make both partners Kronecker sums
    operator_set_from_block(BlockOperator.from_rows([[D, Z * 2], [ZBAR, DBAR]]), _SMALL),
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
    assert payload["schema_version"] == 9
    assert set(payload) == {
        "schema_version", "matrix_id", "grid", "eigenvalues", "residuals",
        "residual_bound", "hermiticity_defect", "ordering", "lu_fill",
        "n_solves", "arithmetic", "sector_offset", "sector_pairs", "kron_defect",
        "inversion_phase"}
    # the identity is [[I, 0], [0, I]]: two identical sectors (offset 0.0),
    # solved once for ceil(3/2) pairs, each the Kronecker sum 0 (x) I + I (x) I
    assert (payload["sector_offset"], payload["sector_pairs"]) == (0.0, [2])
    assert str(payload["sector_offset"]) == "0.0"  # not -0.0
    assert (payload["kron_defect"], payload["ordering"], payload["lu_fill"],
            payload["n_solves"], payload["arithmetic"]) == (0.0, None, 0, 0, "real")
    assert payload["inversion_phase"] is None  # no Lanczos sector to split
    # a matrix that is not a Kronecker sum records no defect; its diagonal is
    # not symmetric under the inversion either, so it is one solve
    diagonal = sp.diags(np.arange(1.0, g.num_nodes + 1.0) ** 2, format="csr")
    payload = low_spectrum(diagonal, 3, grid=g).to_json_dict()
    assert (payload["kron_defect"], payload["ordering"]) == (None, "MMD_AT_PLUS_A")
    assert (payload["inversion_phase"], payload["sector_pairs"]) == (None, [3])


def test_residual_bound_is_taken_from_the_summed_entries():
    # diag(1..64) with each entry stored twice, as 1e6 and d - 1e6: the bound
    # and the defect are those of the summed matrix (a bound from the stored
    # 1e6 would be 15 600 times looser), and the caller's matrix keeps its
    # duplicates
    g = GridSpec(4.0, 8)
    d = np.arange(1.0, g.num_nodes + 1.0)
    stored = np.column_stack((np.full(d.size, 1e6), d - 1e6)).ravel()
    twice = sp.csr_matrix((stored, np.repeat(np.arange(d.size), 2),
                           np.arange(0, 2 * d.size + 1, 2)), shape=(d.size, d.size))
    rep = low_spectrum(twice, 3, grid=g)
    assert rep.residual_bound == low_spectrum(sp.diags(d, format="csr"), 3,
                                              grid=g).residual_bound \
        == pytest.approx(6.4e-10, rel=1e-12)
    assert (rep.eigenvalues, rep.hermiticity_defect) == ([1.0, 2.0, 3.0], 0.0)
    assert twice.nnz == 2 * d.size and np.array_equal(twice.data, stored)


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
    # matrix: as it stands when it has no imaginary entry (c = 0, m = 1,
    # which discretize stores as float64), in the mirror-pair basis
    # otherwise, where odd n adds the self-mirror row y = 0.  The reference
    # is the dense spectrum of the complex Hermitian matrix.  Only the
    # partners with a unit mass multiplier (c = 0, m = 1) commute with the
    # swap of the spinor components and split into two sectors.
    build, arithmetic, split = _REAL_FORM_CASES[case]
    grid = GridSpec(5.0, n)
    mat = getattr(build(grid), name)
    assert mat.dtype == (np.float64 if case in ("vortex-c0", "anti-vortex-m1")
                         else np.complex128)
    herm = mat.astype(complex)
    exact = np.linalg.eigvalsh(((herm + herm.getH()) * 0.5).toarray())[:8]
    for seed in range(3):
        rep = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=seed)
        assert rep.arithmetic == arithmetic
        assert rep.to_json_dict()["arithmetic"] == arithmetic
        assert (rep.to_json_dict()["sector_offset"] is not None) == split
        assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
        assert max(rep.residuals) <= rep.residual_bound
    assert low_spectrum(mat, 8, grid=grid).arithmetic == arithmetic


@pytest.mark.parametrize("case", ["vortex-c0", "anti-vortex-m1", "N=2-m1"])
@pytest.mark.parametrize("n", [24, 25])
def test_a_float64_matrix_solves_as_its_complex_cast(monkeypatch, case, n):
    # the partners with no imaginary entry are stored as float64, and every
    # decision of low_spectrum is read from the data, so their complex128
    # cast takes the same path: the unperturbed Kronecker sums, and the
    # N = 2 H_plus, whose |z|^4 diagonal takes the inversion split and
    # Lanczos.  The float64 matrix is never upcast on the way to the
    # Kronecker test or the factorization.  Both are exactly symmetric: the
    # z zb round-off is gone
    build = (_block_set(monomial(1, pow_zbar=2), monomial(1, pow_z=2)) if case == "N=2-m1"
             else _REAL_FORM_CASES[case][0])
    grid = GridSpec(5.0, n)
    op_set = build(grid)
    names = ("H_plus_mat",) if case == "N=2-m1" else ("H_minus_mat", "H_plus_mat")
    for name in names:
        mat = getattr(op_set, name)
        assert mat.dtype == np.float64
        seen, kron_sum, factor = [], spectral._kron_sum, spectral._factor
        monkeypatch.setattr(spectral, "_kron_sum",
                            lambda sector, grid: seen.append(sector.dtype) or kron_sum(sector, grid))
        monkeypatch.setattr(spectral, "_factor",
                            lambda form, shift: seen.append(form.dtype) or factor(form, shift))
        real = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=1)
        assert seen and set(seen) == {np.dtype(np.float64)}
        monkeypatch.undo()
        cast = low_spectrum(mat.astype(complex), 8, grid=grid, matrix_id=name, seed=1)
        for key in ("arithmetic", "sector_offset", "sector_pairs", "kron_defect",
                    "inversion_phase", "ordering"):
            assert getattr(real, key) == getattr(cast, key), key
        assert real.arithmetic == "real"
        assert (real.kron_defect is None) == (case == "N=2-m1")
        assert real.hermiticity_defect == cast.hermiticity_defect == 0.0
        assert np.max(np.abs(np.subtract(real.eigenvalues, cast.eigenvalues))) \
            <= real.residual_bound
        assert max(real.residuals) <= real.residual_bound


def test_the_unperturbed_desk_partners_are_exactly_hermitian(desk_index):
    # n = 96: no z zb round-off is left to make A differ from A*
    for rep in (desk_index.minus_report, desk_index.plus_report):
        assert rep.hermiticity_defect == 0.0


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


@dataclasses.dataclass
class _KronPartners:
    """S = conj(T) (x) I + I (x) T on the grid for one 1-D Hermitian T, as
    one component (``H_minus_mat``) and swap-coupled as [[S, I/2], [I/2, S]]
    (``H_plus_mat``)."""

    grid: GridSpec
    H_minus_mat: sp.csr_matrix
    H_plus_mat: sp.csr_matrix

    @classmethod
    def of(cls, grid, centre, hops):
        # T = centre + x^2 - sum_d hops[d] (shift by d + 1) + its adjoint
        n = grid.n
        diags = [np.full(n - d - 1, -c, dtype=complex) for d, c in enumerate(hops)]
        t = sp.diags(diags + [np.conj(c) for c in diags] + [centre + grid.axis() ** 2 + 0j],
                     [d + 1 for d in range(len(hops))]
                     + [-d - 1 for d in range(len(hops))] + [0])
        eye = sp.identity(n, format="csr")
        s = (sp.kron(t.conj(), eye) + sp.kron(eye, t)).tocsr()
        half = sp.identity(n * n, format="csr") * 0.5
        return cls(grid, s, sp.bmat([[s, half], [half, s]], format="csr"))


def _fourth_order(grid):
    """A bandwidth-2 T: the five-point stencil of d^4/dx^4, times 1/16."""
    h4 = 16.0 * grid.h ** 4
    return _KronPartners.of(grid, 6.0 / h4, [4.0 / h4, -1.0 / h4])


def _complex_hops(grid):
    """A complex Hermitian T: -d^2/dx^2 / 4 with a phase on each hop."""
    h2 = 4.0 * grid.h ** 2
    return _KronPartners.of(grid, 2.0 / h2, [np.exp(0.7j) / h2])


_KRON_CASES = {
    # builder of the partners on the n-node grid, and k
    "vortex-t1": (lambda n: build_operator_set(ModelSpec(), GridSpec(5.0, n)), 8),
    "vortex-t2": (lambda n: build_operator_set(ModelSpec(t=2), GridSpec(5.0, n)), 8),
    "anti-vortex-m1": (lambda n: _block_set(Z, ZBAR)(GridSpec(5.0, n)), 8),
    "bandwidth-2": (lambda n: _fourth_order(GridSpec(5.0, n)), 8),
    "complex-hops": (lambda n: _complex_hops(GridSpec(5.0, n)), 8),
    # n = 8 and 9 nodes per side, fewer than k: every 1-D level is solved
    "k>n": (lambda n: build_operator_set(ModelSpec(), GridSpec(5.0, n - 16)), 12),
}


@pytest.mark.parametrize("name", ["H_minus_mat", "H_plus_mat"])
@pytest.mark.parametrize("case", list(_KRON_CASES))
@pytest.mark.parametrize("n", [24, 25])
def test_kronecker_sum_sectors_match_the_dense_spectrum(n, case, name, monkeypatch):
    # the swap sectors of the unit-mass partners are T_y (x) I + I (x) T_x:
    # solved from the eigenpairs of T_x and T_y, with no factorization and
    # no start vector, they give the dense spectrum within the residual
    # bound, every copy of each double level mu_i + mu_j, and orthonormal
    # vectors; so do 1-D blocks of bandwidth 2 or with complex hops, and a
    # k above the n levels each 1-D block has
    build, k = _KRON_CASES[case]
    op_set = build(n)
    grid, mat = op_set.grid, getattr(op_set, name)
    herm = (mat + mat.getH()) * 0.5
    exact = np.linalg.eigvalsh(herm.toarray())[:k]
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(mat, k, grid=grid, matrix_id=name)
    arithmetic = "complex" if herm.data.imag.any() else "real"
    assert calls == []
    assert (rep.ordering, rep.lu_fill, rep.n_solves, rep.arithmetic) == (None, 0, 0, arithmetic)
    assert 0.0 <= rep.kron_defect <= rep.residual_bound
    assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= rep.residual_bound
    assert max(rep.residuals) <= rep.residual_bound
    assert [_copies(rep.eigenvalues, lam) for lam in exact] == \
        [_copies(exact, lam) for lam in exact]
    assert max(_copies(exact, lam) for lam in exact) >= 2
    vecs = np.array([f.values.ravel() for f in rep.vectors]) * grid.h
    assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(k))) <= 1e-9
    assert low_spectrum(mat, k, grid=grid, seed=5).eigenvalues == rep.eigenvalues


def _copies(vals, lam):
    """How many of vals lie within 1e-8 of lam."""
    return int(np.sum(np.abs(np.subtract(vals, lam)) <= 1e-8))


def _scalar_with_hop(hop, **how):
    """The vortex H_minus with a hop added to A, or cut from it (``_sectors``)."""
    return lambda grid: _sectors(grid, hop=hop(grid), **how)[0]


_NO_KRON_CASES = {
    # builder, what the Kronecker test of its sector gives ("untested" for
    # a sector of two components, "no sum" for an off-diagonal entry that
    # fails it, "over the bound" for a diagonal remainder above it), and the
    # factorizations: 2 where the sector commutes with the inversion, 1
    # where the added hop breaks it
    "vortex-c0.3": (lambda grid: build_operator_set(ModelSpec(epsilon="0.3"), grid).H_minus_mat,
                    "untested", 2),
    "diagonal-hop": (_scalar_with_hop(lambda grid: grid.n + 1), "no sum", 1),
    "one-row-x-hop": (_scalar_with_hop(lambda grid: 2), "no sum", 1),
    # the centre grid row lacks an x-hop that grid row 0 has
    "cut-x-hop": (_scalar_with_hop(lambda grid: 1, cut=True), "no sum", 1),
    # stored on one side only: A and A* have two patterns
    "one-sided-hop": (_scalar_with_hop(lambda grid: grid.n + 1, one_sided=True), "no sum", 1),
    "N=2-m1-H_plus": (lambda grid: _block_set(monomial(1, pow_zbar=2),
                                              monomial(1, pow_z=2))(grid).H_plus_mat,
                      "over the bound", 2),
    # the c = 0.3 H_minus with hops that break the inversion but keep the
    # mirror-conjugation: one factorization, real in the T-invariant basis
    "mirror-hops": (lambda grid: _with_mirror_hops(
        build_operator_set(ModelSpec(epsilon="0.3"), grid).H_minus_mat, grid), "untested", 1),
}


def _with_mirror_hops(mat, grid):
    """mat with real hops of 1/8 from node 1 to node 4 of grid rows 2 and
    n - 3 (the mirror images of each other), stored both ways; the
    inversion maps them to nodes n - 2 and n - 5 of the other row."""
    n = grid.n
    ends = [(row * n + 1, row * n + 4) for row in (2, n - 3)]
    rows = [u for u, v in ends] + [v for u, v in ends]
    cols = [v for u, v in ends] + [u for u, v in ends]
    return (mat + sp.csr_matrix(([0.125] * 4, (rows, cols)), shape=mat.shape)).tocsr()


@pytest.mark.parametrize("case", list(_NO_KRON_CASES))
def test_a_sector_that_is_no_kronecker_sum_takes_lanczos(monkeypatch, case):
    # a diagonal hop (stored on both sides or on one), an x-hop that grid
    # row 0 lacks, a grid row that lacks an x-hop of row 0, or the |z|^4
    # diagonal of the N = 2 H_plus, whose remainder max|E| exceeds the
    # residual bound, sends the sector to the factorization and Lanczos, as
    # does a sector of two components, which is not tested at all; the
    # hermiticity defect is max|A - A*| over the largest entry
    build, verdict, factors = _NO_KRON_CASES[case]
    grid = GridSpec(5.0, 24)
    mat = build(grid)
    defect = spectral.max_abs(mat - mat.getH()) / spectral.max_abs(mat)
    tested, kron_sum = [], spectral._kron_sum
    monkeypatch.setattr(spectral, "_kron_sum",
                        lambda sector, grid: tested.append(kron_sum(sector, grid)) or tested[-1])
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(mat, 8, grid=grid)
    assert (rep.ordering, rep.kron_defect, rep.arithmetic, len(calls)) == \
        ("MMD_AT_PLUS_A", None, "real", factors)
    assert len(rep.sector_pairs) == factors
    assert rep.lu_fill > 0 and rep.n_solves >= 8
    assert rep.hermiticity_defect == defect
    if case == "one-sided-hop":
        assert defect == 0.25 / spectral.max_abs(mat)
    exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
    assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
    if verdict == "untested":
        assert tested == []
    elif verdict == "no sum":
        assert tested == [None]
    else:
        assert len(tested) == 1 and tested[0][2] > rep.residual_bound


def test_a_remainder_just_above_the_bound_takes_lanczos(monkeypatch):
    # -Lap/4 + |z|^2 on the grid is T (x) I + I (x) T up to rounding, solved
    # from T; a diagonal remainder of 100 residual bounds at one node puts
    # max|E| over the bound, so the sector is factored and solved by Lanczos
    # and its levels are the dense ones, not those of the Kronecker sum
    grid = GridSpec(5.0, 24)
    n, h2 = grid.n, 4.0 * grid.h ** 2
    t = sp.diags([np.full(n - 1, -1.0 / h2), 2.0 / h2 + grid.axis() ** 2,
                  np.full(n - 1, -1.0 / h2)], [-1, 0, 1])
    base = sp.kronsum(t, t, format="csr")
    plain = low_spectrum(base, 8, grid=grid)
    assert plain.ordering is None and plain.kron_defect <= plain.residual_bound
    bound, centre = plain.residual_bound, n // 2 * (n + 1)
    mat = (base + sp.csr_matrix(([100.0 * bound], ([centre], [centre])), shape=base.shape)
           ).tocsr()
    assert spectral._kron_sum(mat, grid)[2] == pytest.approx(100.0 * bound, rel=1e-6)
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(mat, 8, grid=grid)
    assert (rep.kron_defect, rep.ordering, rep.residual_bound) == (None, "MMD_AT_PLUS_A", bound)
    assert len(calls) == 1
    exact = np.linalg.eigvalsh(mat.toarray())[:8]
    assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-11
    assert np.max(np.abs(np.subtract(plain.eigenvalues, exact))) > 1e-11


_INVERSION_CASES = {
    # builder, then the inversion phases of the sector H_minus and H_plus
    # solve: (1, (-1)^(N-1)) on the two components, [1] on a scalar sector
    "vortex-c0.3": (lambda grid: build_operator_set(ModelSpec(epsilon="0.3"), grid),
                    [1, 1], [1, 1]),
    "anti-vortex-m41/20": (_block_set(Z * Fraction(41, 20), ZBAR), [1, 1], [1, 1]),
    "N=2-m5/2": (_block_set(monomial(Fraction(5, 2), pow_zbar=2), monomial(1, pow_z=2)),
                 [1, -1], [1, -1]),
    "N=-2-m5/2": (_block_set(monomial(Fraction(5, 2), pow_z=2), monomial(1, pow_zbar=2)),
                  [1, -1], [1, -1]),
    # H_plus is [[A, 0], [0, A]], solved as its scalar sector A, whose |z|^4
    # diagonal is no Kronecker sum; its levels are exactly double
    "N=2-m1": (_block_set(monomial(1, pow_zbar=2), monomial(1, pow_z=2)), [1, -1], [1]),
    "anti-vortex-m1+2i": (_block_set(Z * crat(1, 2), ZBAR), [1, 1], [1, 1]),
    # three components: the phase 1 on each
    "three-components": (lambda grid: operator_set_from_block(BlockOperator.from_rows(
        [[D, ZBAR, ZERO], [Z, DBAR, ZERO], [ZERO, ZERO, D]]), grid), [1, 1, 1], [1, 1, 1]),
}


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("case", list(_INVERSION_CASES))
def test_inversion_sectors_match_the_dense_spectrum(monkeypatch, case, n):
    # every partner of a defect on the grid's centre commutes with z -> -z:
    # its even and odd sectors are factored and solved each as its own
    # matrix, and the 8 lowest of both are the dense spectrum, with every
    # copy of a degenerate level, from every start vector, and orthonormal
    # vectors; odd n puts the centre node on the inversion's fixed point
    build, *phases = _INVERSION_CASES[case]
    grid = GridSpec(5.0, n)
    op_set = build(grid)
    calls = _count_factorizations(monkeypatch)
    for name, phase in zip(("H_minus_mat", "H_plus_mat"), phases):
        mat = getattr(op_set, name)
        exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
        if case == "N=2-m1" and name == "H_plus_mat":  # a double level of A, twice
            assert max(_copies(exact, lam) for lam in exact) == 4
        for seed in range(3):
            del calls[:]
            rep = low_spectrum(mat, 8, grid=grid, matrix_id=name, seed=seed)
            assert rep.inversion_phase == rep.to_json_dict()["inversion_phase"] == phase
            assert len(rep.sector_pairs) == len(calls) == 2
            assert rep.arithmetic == ("complex" if case == "anti-vortex-m1+2i" else "real")
            assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
            assert [_copies(rep.eigenvalues, lam) for lam in exact] == \
                [_copies(exact, lam) for lam in exact]
            assert max(rep.residuals) <= rep.residual_bound
            vecs = np.array([f.values.ravel() for f in rep.vectors]) * grid.h
            assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(8))) <= 1e-9


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("case", list(_INVERSION_CASES))
def test_inversion_sectors_keep_every_copy_at_every_k(case, n):
    # the odd form is asked only for its share of the k lowest and ARPACK
    # sizes its own Krylov space, at every k where that share is smaller
    # than k: neither may drop a copy of a degenerate level
    grid = GridSpec(5.0, n)
    op_set = _INVERSION_CASES[case][0](grid)
    for name in ("H_minus_mat", "H_plus_mat"):
        mat = getattr(op_set, name)
        dense = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())
        for k in range(4, 8):
            exact = dense[:k]
            for seed in range(2):
                rep = low_spectrum(mat, k, grid=grid, matrix_id=name, seed=seed)
                assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
                assert [_copies(rep.eigenvalues, lam) for lam in exact] == \
                    [_copies(exact, lam) for lam in exact]


def _laplacian_plus_inversion(grid, c):
    """A scalar grid Laplacian plus c J, J the inversion of the nodes: a sum
    over the pairs (l, Jl) of c (e_l e_Jl^T + e_Jl e_l^T), and c on the
    centre node of an odd grid.  It moves every J-odd level by -c and every
    J-even one by +c.  No entry of J is a grid hop, so the sector takes
    Lanczos, split by the inversion with the phase 1."""
    n, n2 = grid.n, grid.num_nodes
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / (4 * grid.h ** 2)
    node = np.arange(n2)
    return (sp.kronsum(t, t) + sp.csr_matrix((np.full(n2, c), (node, n2 - 1 - node)))).tocsr()


@pytest.mark.parametrize("n", [24, 25])
def test_a_short_odd_budget_is_solved_again_from_its_factor(monkeypatch, n):
    # the odd form is asked for 5 of the 8 pairs.  With c = 0.1 it holds 6
    # of the 8 lowest levels, so its fifth lies below the union's eighth, the
    # budget is refused, and the odd form is solved again for 8 pairs from
    # the factor it has; with c = -0.1 it holds at most 4 and the 5 stand
    grid = GridSpec(5.0, n)
    calls = _count_factorizations(monkeypatch)
    solves = {}
    for c, pairs in ((0.1, [8, 8]), (-0.1, [8, 5])):
        mat = _laplacian_plus_inversion(grid, c)
        exact = np.linalg.eigvalsh(mat.toarray())[:8]
        odd = np.linalg.eigvalsh(spectral._parity_forms(mat, grid)[0][1][0].toarray())
        held = np.count_nonzero(odd <= exact[-1] + 1e-12)
        assert held >= 6 if c > 0 else held <= 4
        for seed in range(2):
            del calls[:]
            rep = low_spectrum(mat, 8, grid=grid, seed=seed)
            assert (rep.sector_pairs, rep.inversion_phase, len(calls)) == (pairs, [1], 2)
            assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9
            assert [_copies(rep.eigenvalues, lam) for lam in exact] == \
                [_copies(exact, lam) for lam in exact]
            solves[c, seed] = rep.n_solves
    assert all(solves[0.1, seed] > solves[-0.1, seed] for seed in range(2))


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("case", list(_INVERSION_CASES) + ["off-centre"])
def test_parity_forms_are_unitary_reductions(case, n):
    # each form is Q* S Q for the orthonormal columns Q of its basis, and
    # the forms together hold the whole spectrum of S, dense, on a
    # grid small enough to hold every level; the off-centre defect keeps only
    # the mirror-conjugation, and is one real form
    grid = GridSpec(5.0, n)
    if case == "off-centre":
        lower = Z - ONE * Fraction(1, 2)
        op_set = operator_set_from_block(_defect(adjoint(lower) * 2, lower), grid)
    else:
        op_set = _INVERSION_CASES[case][0](grid)
    for name in ("H_minus_mat", "H_plus_mat"):
        mat = getattr(op_set, name)
        herm = ((mat + mat.getH()) * 0.5).tocsr()
        forms, phases = spectral._parity_forms(herm, grid)
        assert len(forms) == (1 if case == "off-centre" else 2)
        assert (phases is None) == (case == "off-centre")
        levels = []
        for form, basis in forms:
            q = basis.toarray()
            assert np.max(np.abs(q.conj().T @ q - np.eye(form.shape[0]))) <= 1e-14
            reduced = q.conj().T @ herm.toarray() @ q
            assert np.max(np.abs(reduced - form.toarray())) <= 1e-14 * spectral.max_abs(herm)
            assert np.iscomplexobj(form) == (case == "anti-vortex-m1+2i")
            levels.append(np.linalg.eigvalsh(form.toarray()))
        assert np.max(np.abs(np.sort(np.concatenate(levels))
                             - np.linalg.eigvalsh(herm.toarray()))) <= 1e-13 * spectral.max_abs(herm)


@pytest.mark.parametrize("scale, factors", [(1, 0), (2, 1)])
def test_an_off_centre_defect_is_solved_whole(monkeypatch, scale, factors):
    # the lower entry z - 1/2 has its zero off the grid's centre, so no
    # partner commutes with the inversion.  With the conjugate above, both
    # partners are swap-coupled Kronecker sums and take no factorization;
    # with twice the conjugate, each is one sector, factored once as a
    # whole, and still real by the mirror-conjugation T
    grid = GridSpec(5.0, 24)
    lower = Z - ONE * Fraction(1, 2)
    op_set = operator_set_from_block(_defect(adjoint(lower) * scale, lower), grid)
    calls = _count_factorizations(monkeypatch)
    for name in ("H_minus_mat", "H_plus_mat"):
        mat = getattr(op_set, name)
        del calls[:]
        rep = low_spectrum(mat, 8, grid=grid, matrix_id=name)
        assert (rep.inversion_phase, len(calls), rep.arithmetic) == (None, factors, "real")
        if factors:
            assert rep.sector_pairs == [8]
        exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
        assert np.max(np.abs(np.subtract(rep.eigenvalues, exact))) <= 1e-9


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


def _sectors(grid, coupling=1, hop=0, one_sided=False, cut=False):
    """The vortex H_minus [[A, B], [B, A]] (B = -1 on the grid) with its
    coupling scaled, [[A, cB], [cB, A]], and the dense spectra of its
    sectors A + cB, which is solved, and A - cB.  A nonzero ``hop`` adds
    0.25 to A between the centre node and the node ``hop`` after it: with
    hop = n + 1, a hop along a grid diagonal, A + cB is no Kronecker sum
    and takes Lanczos.  ``one_sided`` stores it from the centre node only;
    the spectra are those of the symmetrized sectors.  ``cut`` removes the
    hop A holds there instead."""
    n2 = grid.num_nodes
    herm = build_operator_set(ModelSpec(), grid).H_minus_mat
    herm = ((herm + herm.getH()) * 0.5).tocsr()
    upper, b = herm[:n2, :n2], coupling * herm[:n2, n2:]
    if hop:
        a = grid.n // 2 * (grid.n + 1)
        ends = [a, a + hop][:1 if one_sided else 2]
        weight = -upper[a, a + hop] if cut else 0.25
        upper = (upper + sp.csr_matrix(([weight] * len(ends), (ends, [a + hop, a][:len(ends)])),
                                       shape=(n2, n2))).tocsr()
    mat = sp.bmat([[upper, b], [b, upper]], format="csr")
    upper = (upper + upper.getH()) * 0.5
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


def test_factor_refuses_a_backward_error_just_above_its_bound():
    # 20 blocks [[delta - 1/2, 1], [1, delta - 1/2]] less sigma = -1/2: the
    # pivot-free factor takes the pivot delta = 1e-7, and one solve leaves a
    # backward error near 1e-10, above the gate's 1e-11 and far below 1e-5;
    # at delta = 1/10 the same blocks are factored and kept
    def blocks(delta):
        return sp.block_diag([[[delta - 0.5, 1.0], [1.0, delta - 0.5]]] * 20, format="csr")

    lu, failed = spectral._factor(blocks(1e-7), -0.5)
    assert lu is None
    backward = float(re.fullmatch(r"backward error (\S+) of one solve exceeds 1e-11",
                                  failed).group(1))
    assert 1e-11 < backward < 1e-5
    lu, failed = spectral._factor(blocks(0.1), -0.5)
    assert lu is not None and failed == ""


@pytest.mark.parametrize("coupling, k, from_second", [
    (1, 3, 0),               # the vortex H_minus itself: A + B holds the 3 lowest
    (Fraction(1, 8), 3, 1),   # a second sector slightly above the first
    (Fraction(-1, 8), 3, 2),  # slightly below
    (-1, 8, 7),              # the second sector holds the kernel
])
def test_scalar_coupling_is_solved_once(monkeypatch, coupling, k, from_second):
    # [[A, beta], [beta, A]] has the sectors A + beta and A - beta, the first
    # shifted by -2 beta (A with a diagonal hop, so that no sector is a
    # Kronecker sum): A + beta is factored and solved once for k pairs,
    # each pair also gives the antisymmetric vector of the second sector,
    # and the k lowest of both are the dense ones, orthonormal, with each
    # antisymmetric vector's eigenvalue from the second sector
    grid = GridSpec(5.0, 20)
    n2 = grid.num_nodes
    mat, (first, second) = _sectors(grid, float(coupling), hop=grid.n + 1)
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


def _coupling(n2, case):
    """A coupling B of the vortex H_minus that is not beta I: -I with a
    Hermitian pair 1/4 at (0, 1) and (1, 0); -I with row 5's entry moved to
    (4, 5), so row 4 holds two entries and row 5 none; or -I with rows 4
    and 5 holding theirs at (4, 5) and (5, 4), one entry per row."""
    rows, cols = list(range(n2)), list(range(n2))
    if case == "pair":
        rows, cols = rows + [0, 1], cols + [1, 0]
    elif case == "moved":
        rows[5] = 4
    else:
        cols[4], cols[5] = 5, 4
    values = [-1.0] * n2 + [0.25] * (len(rows) - n2)
    return sp.csr_matrix((values, (rows, cols)), shape=(n2, n2))


@pytest.mark.parametrize("case", ["pair", "moved", "crossed"])
def test_a_coupling_off_the_diagonal_is_one_sector(case):
    # [[A, B], [B*, A]] with B = -I but for one pattern change: a pair of
    # entries added (a row with two), an entry moved to another row (two in
    # one row, none in the next), or two entries moved across the diagonal
    # (one in each row, in the wrong column): no swap split, and the dense
    # spectrum
    grid = GridSpec(5.0, 24)
    n2 = grid.num_nodes
    upper = _sectors(grid)[0][:n2, :n2]
    b = _coupling(n2, case)
    assert b.nnz == {"pair": n2 + 2, "moved": n2, "crossed": n2}[case]
    mat = sp.bmat([[upper, b], [b.getH(), upper]], format="csr")
    exact = np.linalg.eigvalsh(((mat + mat.getH()) * 0.5).toarray())[:8]
    rep = low_spectrum(mat, 8, grid=grid)
    assert rep.sector_offset is None
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
    # the solve budget of the refinement study at n = 49 and k = 3, on the
    # unperturbed H_minus with one diagonal hop in A, so that its sector
    # takes Lanczos: the coupling is -t = -1, so A - 1 is factored and
    # solved once, and A + 1 is that sector shifted by +2
    grid = GridSpec(5.0, 49)
    mat, spectra = _sectors(grid, hop=grid.n + 1)
    exact = np.sort(np.concatenate(spectra))[:3]
    calls = _count_factorizations(monkeypatch)
    rep = low_spectrum(mat, 3, grid=grid)
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

# a diagonal that is no sum of an x and a y part takes the sparse solve; a
# first call loads what the solve touches, so the second one frees only heap
mat = sp.diags(np.arange(1.0, 65.0) ** 2, format="csr")
low_spectrum(mat, 2, grid=GridSpec(4.0, 8))
# freeing the mapped 16 MB array raises glibc's mmap threshold to 16 MB, so
# the 8 MB array comes from the heap and stays resident once freed
big = np.ones(2**21)
del big
mid = np.ones(2**20)
del mid
before = resident_mb()
low_spectrum(mat, 2, grid=GridSpec(4.0, 8))
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


def test_ambiguous_band_is_ten_percent_of_the_threshold(desk_grid):
    # an eigenvalue within 10 % of the threshold is flagged, one beyond is
    # not; a census with a wider band would flag 0.555 and 0.575 too
    vec = Field(desk_grid, 2, np.ones(2 * desk_grid.num_nodes))
    for lam, ambiguous in ((0.5 * 1.09, True), (0.5 * 1.11, False), (0.575, False)):
        rep = EigenReport(matrix_id="hand", grid=desk_grid, eigenvalues=[lam],
                          vectors=[vec], residuals=[0.0], residual_bound=0.0,
                          hermiticity_defect=0.0)
        assert mode_census(rep, desk_grid, 0.5, 2.5, 0.95) == (0, [], ambiguous)


@pytest.mark.parametrize("t, radius", [(Fraction(1, 4), 0.7 * 5.0), (4, 5.0 / 2)])
def test_census_disk_is_clipped_to_half_and_seven_tenths_of_l(t, radius):
    # sqrt(4/alpha) is 4 at t = 1/4, clipped to 0.7 L = 3.5, and 1 at t = 4,
    # raised to L/2
    grid = GridSpec(5.0, 24)
    report = witten_index(build_operator_set(ModelSpec(t=t), grid), grid, IndexParams(k=6))
    assert report.loc_radius == radius
    assert report.delta == report.winding == 1


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
    from dil.lattice import evaluate
    phases = np.angle(evaluate(scaled, base) / evaluate(Z, base))
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


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0, 0.0, True, "1"])
def test_winding_refuses_a_radius_before_the_first_sample(monkeypatch, radius):
    # nan doubled its samples to the cap and blamed a zero near the contour,
    # inf warned, and -1.0 and True returned a count
    def sampled(multiplier, zs):
        raise AssertionError("the contour was sampled")
    monkeypatch.setattr(spectral, "evaluate", sampled)
    with pytest.raises(ValueError, match="contour radius"):
        winding_number(Z, radius)


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
        warnings.simplefilter("error", spectral.WindingMismatchWarning)
        report = witten_index(op_set, grid, IndexParams(k=8))
    assert (report.delta, report.winding, report.winding_matches) == (delta, delta, True)


def test_winding_mismatch_warns(monkeypatch):
    # an index that disagrees with the winding warns and reports the mismatch
    grid = GridSpec(5.0, 24)
    monkeypatch.setattr(spectral, "winding_number", lambda multiplier, radius: 0)
    with pytest.warns(spectral.WindingMismatchWarning, match="disagrees"):
        report = witten_index(build_operator_set(ModelSpec(), grid), grid, IndexParams(k=6))
    assert (report.delta, report.winding, report.winding_matches) == (1, 0, False)


@pytest.mark.parametrize("bad", [dict(k=0), dict(seed=-1), dict(seed=2.5), dict(seed=True)])
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
