"""Low-lying spectra, zero-mode counting, and the Witten index.

The index is computed two independent ways.  Analytically: n_minus and
n_plus count localized sub-gap eigenmodes of the discretized partner
Hamiltonians and delta = n_minus - n_plus.  Topologically: the phase of the
holomorphic mass entry is accumulated around a contour enclosing the defect,
giving the vortex winding number.  For vortex-type first-order operators the
two must agree, which is what makes the pair a useful cross-check: square
grids alone cannot prove an integer, and a winding count alone cannot see
the spectral gap.  The index of a multi-vortex is its total winding
(Weinberg, Phys. Rev. D 24, 2669 (1981); Callias, Commun. Math. Phys. 62,
213 (1978)), so the contour encloses every zero the grid holds: it is the
largest circle inside the grid, |z| = L, sampled as finely as the entry's
phase needs.

The census calibrates its constants from the data, with no setting.  The
sub-gap threshold is half the smallest eigenvalue of H_plus (capped at the
unperturbed half-gap 0.5, and 0.5 when that eigenvalue is not positive):
supersymmetry pairs the nonzero spectra of the two partners, so
when H_plus has no kernel that eigenvalue IS the spectral gap.  This
matters for strong perturbations, where the gap collapses roughly like
(1 - c) and a fixed 0.5 threshold would start swallowing paired excited
states near c ~ 0.5.  For a negative winding H_plus holds the kernel and
the threshold is wrong (see ROADMAP.md, item 4).

Every defect on the grid's centre commutes with the inversion J, z -> -z,
which maps node k to n^2 - 1 - k (the grid and every stencil are symmetric
under the rotation by pi), with the spinor phases (1, (-1)^(N-1)): the mass
entry z^N or zb^|N| turns by (-1)^N.  A matrix of any other number of
components is tested for the phase 1 on every component.  A Hermitian H
that commutes with J is block diagonal in the J-even and J-odd
combinations of the pairs (k, n^2 - 1 - k) (Fassler & Stiefel, Group
Theoretical Methods and Their Applications (1992)).  Each block, on half
the unknowns, is factored and solved as its own matrix: its factor stores
less fill than the whole one, and a solve with it costs half as much.  The
union keeps only the k lowest, so the second block is asked only for its
share, ceil(k/2) + 1 pairs (one more than an even split).  The share is
certified from the levels: it stands when the largest level it returned is
at least the k-th lowest of the union, as no level it did not return can
then enter the k kept.  Otherwise the second block is solved again for k
pairs from the factor it has.  ARPACK sizes its own Krylov space (Lehoucq,
Sorensen & Yang, ARPACK Users' Guide (1998)).

Every operator with real coefficients also commutes with the antiunitary
T = R_y K, the mirror y -> -y followed by complex conjugation (T^2 = 1):
T d T = d and T z T = z, and the grid and stencils are mirror symmetric.  On
the grid, R_y is the permutation P that maps node row j to row n-1-j in
every spinor component, and T-symmetry of a matrix H reads
P conj(H) P = H.  T commutes with J, so it maps each J block to itself, and
such a block is real symmetric in a basis of T-invariant vectors built from
mirror pairs (Wigner): its spectrum comes from a real factorization and
real symmetric Lanczos, at half the storage and a fraction of the
arithmetic of the complex ones.  A matrix with no imaginary entry is real
symmetric as it stands: the unperturbed partners come from
:func:`dil.lattice.discretize` as float64, and every pass over them, from
the symmetrization to the residual check, runs in float64; a complex128
matrix with no imaginary entry is solved in the same real arithmetic.

``low_spectrum`` decides both symmetries from the data exactly, entry by
entry, with no threshold, and only for a sector that takes Lanczos.  A
defect off the centre fails J and is solved whole; complex coefficients
(the multiplier 1 + 2i) fail T and are solved in complex arithmetic.

A two-component Hamiltonian [[A, beta I], [beta I, A]] with beta real
commutes with the on-site swap sigma_x of its two spinor components, so it
is block diagonal in the basis (u + v, u - v)/sqrt(2), as A + beta and
A - beta: one Hermitian matrix on the scalar grid and the same matrix
shifted by -2 beta.  Both partners of the unperturbed defect have this
form (the mass term couples the components by -t, and not at all in the
vortex H_plus), and ``low_spectrum`` decides it from the data exactly,
entry by entry, with no threshold.  A + beta is solved once (a factor of
it stores a quarter of the coupled matrix's fill), and each of its
eigenpairs gives one of each sector, so a level the two sectors share is
found in both, where one Lanczos run over the coupled matrix could return
too few copies of it.  The sector then takes the J and T choices above.
Any other coupling leaves the matrix whole.

The scalar sectors of the unperturbed defect are 2-D oscillators on the
tensor grid: with node iy n + ix, S = T_y (x) I + I (x) T_x, every hop along
a grid row or column, the same in every row and column, and a diagonal that
is a sum of an x part and a y part up to round-off.  ``low_spectrum``
decides this from the data, and the spectrum of such a sector follows from
two n x n eigenproblems (the fast-diagonalization method of Lynch, Rice &
Thomas, Numer. Math. 6, 185 (1964)): the levels are the sums mu_i + nu_j,
with vectors v_j (x) u_i, every copy of a degenerate level included.  Only
the min(k, n) lowest levels of T_x and of T_y are computed, by LAPACK's
selected band solver (?sbevx / ?hbevx; Anderson et al., LAPACK Users'
Guide, 3rd ed. (1999)) at the bandwidth of their entries, 1 for every
stencil built here: none of the k lowest sums needs a higher one.  No
factorization and no Lanczos run is made.  Any other sector is solved as
below.

Every factorization is one checked pivot-free SuperLU factorization in
symmetric mode (``_factor``; X. S. Li, ACM TOMS 31, 302 (2005)).  Partial
pivoting leaves the symmetric ordering where the mass blocks dominate, and
its fill explodes.
"""

from __future__ import annotations

import ctypes
import numbers
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContourError, ShapeError, SolverError
from .lattice import Field, GridSpec, evaluate, json_payload, localization_fraction, max_abs
from .opcalc import OperatorExpression
from .susy import DefectOperatorSet, ModelSpec

SHIFT = -0.5
ORDERING = "MMD_AT_PLUS_A"
CONTOUR_SAMPLES_CAP = 2 ** 16
LOC_MIN = 0.95  # least share of a counted mode's mass inside the census disk
# relative residual figure, 1e-11 to one ulp above: the residual bound is it
# times the largest summed entry magnitude (at least 1), _factor's gate is it
RESIDUAL_REL = 100.0 * 1e-13
PAIRING_TOL = 0.05  # largest gap between two partner levels that pairing_check matches

# glibc raises its mmap threshold to the size of each mapped block that is
# freed, up to 32 MiB, so after a few solves the factorization's arrays (a
# few MB to tens of MB) come from the heap, and the holes earlier calls left
# there stay resident.  Whether a factorization reuses them or grows the
# heap depends on the order of earlier allocations: identical index runs on
# the desk grid peaked at 156-165 MB or at 180-188 MB.  malloc_trim(0) before
# each factorization drops the resident pages of every free hole, so the
# peak is what is live.  A no-op where the C library has no malloc_trim.
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    def _MALLOC_TRIM(pad):
        return 0


class WindingMismatchWarning(UserWarning):
    """The analytic index disagrees with the winding number.  Issued only
    then: an eigenvalue near the counting threshold sets the report's
    ``ambiguous`` and warns of nothing."""


@dataclass
class EigenReport:
    """Smallest eigenpairs of one Hermitian matrix."""

    matrix_id: str
    grid: GridSpec
    eigenvalues: list[float]
    vectors: list[Field] = dc_field(repr=False)
    residuals: list[float]
    residual_bound: float
    hermiticity_defect: float
    ordering: Optional[str] = None
    lu_fill: int = 0
    n_solves: int = 0
    arithmetic: str = "complex"
    sector_offset: Optional[float] = None
    sector_pairs: list[int] = dc_field(default_factory=list)
    kron_defect: Optional[float] = None
    inversion_phase: Optional[list[int]] = None

    def to_json_dict(self) -> dict:
        # version 2 added ordering, lu_fill, n_solves and arithmetic;
        # version 3 added sectors and identical_sectors; version 4 dropped tol;
        # version 5 added count_shift and sector_pairs; version 6 replaced
        # count_shift with sector_offset; version 7 dropped method, sectors and
        # identical_sectors (sector_offset null is one sector, 0.0 two identical);
        # version 8 added kron_defect (null when Lanczos ran); version 9 added
        # inversion_phase (null when the sector was not split) and lists one
        # sector_pairs entry per solve
        return {"schema_version": 9, **json_payload(self)}


def low_spectrum(a: sp.spmatrix, k: int, *, grid: GridSpec, matrix_id: str = "",
                 seed: int = 0) -> EigenReport:
    """k smallest eigenpairs of a Hermitian matrix on the grid, k an integer
    of at least 1 and seed a non-negative integer (neither a bool;
    ValueError otherwise).

    The matrix is first brought to canonical form (sorted indices, every
    duplicate entry summed; on a copy, so the caller's matrix is left as it
    is).  It is symmetrized as (A + A*)/2 and the defect max|A - A*| relative
    to its largest summed entry is recorded; when A and A* share one pattern
    both are taken entry by entry over their data arrays.  A real matrix
    that is exactly Hermitian (one pattern, data equal to A*'s entry by
    entry) and holds no stored zero is its own symmetrization bit for bit,
    as (x + x)/2 = x (short of x + x overflowing, which this also avoids):
    it is used as it stands, with the defect 0.0, and nothing is added,
    halved, eliminated or copied.  The caller's matrix is never written, as
    every later step slices, permutes or multiplies it.  A complex matrix
    always takes the sum, where the complex product with 0.5 can flip the
    sign of a zero real or imaginary part.  The spectrum of
    a sector that is a Kronecker sum on the grid comes from two 1-D
    eigenproblems (below).  Any other comes from shift-invert Lanczos
    (ARPACK's Arnoldi for the complex matrices that have to stay complex,
    see below) at sigma = -0.5 with a seeded start vector, which makes
    repeated runs reproducible at a fixed BLAS thread count.  ARPACK runs to
    machine precision; a post-hoc check refuses any residual above 1e-11
    times the largest summed entry magnitude (at least 1).  Each eigenvalue
    is reported as the Rayleigh quotient of its returned vector against the
    symmetrized matrix, from one product of that matrix with all vectors.

    A two-component matrix [[A, B], [B*, C]] with A == C and B = beta I,
    beta real, entry by entry (each decided by one comparison of the stored
    arrays, ``_swap_sector``), commutes with the swap of its spinor components
    (module docstring); A, B and C are the slices [:n2, :n2], [:n2, n2:]
    and [n2:, n2:] of the symmetrized matrix.  Its sectors are A + beta and
    A - beta, the first shifted by -2 beta, so only A + beta is solved: for
    k pairs, or for ceil(k/2) when beta = 0 and the two sectors are the same
    matrix.  Each pair (lambda, w) gives the candidates lambda with
    (w, w)/sqrt(2) and lambda - 2 beta with (w, -w)/sqrt(2), and the k
    lowest are kept; at an exact tie either copy may be kept.  Every other
    matrix, a two-component one with any other coupling included, is one
    sector, solved as it is.
    ``sector_offset`` in the report is -2 beta, 0.0 for two identical
    sectors and null for one sector, and ``sector_pairs`` lists the pairs
    returned by each solve of it (below).  The residuals and their bound are
    those of the full matrix.

    A sector on the scalar grid (A + beta, or a one-component matrix) is
    first tested for the Kronecker-sum form, from its entries alone (module
    docstring).  With node iy n + ix it passes when every off-diagonal entry
    is an x-hop (same iy) or a y-hop (same ix), bitwise equal to its
    counterpart in grid row 0 or grid column 0, every grid row holds every
    x-hop of row 0 and every grid column every y-hop of column 0, and the
    diagonal remainder E[iy, ix] = d[iy, ix] - d[iy, 0] - d[0, ix] + d[0, 0]
    has max|E| at most the residual bound.  By Weyl's inequality every
    eigenvalue of the sector then lies within max|E| of one of the sums
    mu_i + nu_j of the eigenvalues of T_x (the iy = 0 block) and T_y (the
    ix = 0 block less d[0, 0]), so no copy of a degenerate level is lost,
    and each vector v_j (x) u_i has a residual of at most max|E|.  The
    min(k, n) lowest eigenpairs of T_x and of T_y, from LAPACK's selected
    band solver at the bandwidth of their entries, and a stable argsort of
    their sums give the pairs (``_kron_solve``); the seed is not used.  The
    report records max|E| as ``kron_defect``, with no ``ordering``, zero
    ``lu_fill`` and ``n_solves``, and ``arithmetic`` "real" when the sector
    has no imaginary entry.  Every other sector, one whose max|E| exceeds
    the bound included, is solved as below, and its ``kron_defect`` is
    null.

    A sector that takes Lanczos is first split by its symmetries, decided
    by exact comparison (module docstring, ``_parity_forms``).  When it
    commutes with the inversion J, with the phase 1 on every component, or
    1 on the first and -1 on the second of two, its J-even and J-odd
    sectors are solved each as its own matrix, one after the other, and the
    k lowest pairs of the union are kept in a stable order (ceil(k/2) in
    place of k here and below for two identical swap sectors).  The even
    sector is asked for min(k, dim - 2) pairs of its own dimension, the odd
    one only for min(k, ceil(k/2) + 1, dim - 2).  That budget stands when
    the odd sector returned every pair it could, or when its largest
    returned eigenvalue is at least the k-th lowest of the union: every
    level it did not return is then at least as large, so none enters the
    k kept.  Otherwise the odd sector is solved again, for min(k, dim - 2)
    pairs, from the same factor and start vector (``_shift_invert``).
    One Lanczos run over the two blocks together could return too few
    copies of a level they share.  A sector without J (a defect off the
    grid's centre, say) is solved whole, for min(k, dim - 2) pairs.
    ``inversion_phase`` in the report is the phases of the solved sector's
    components ([1] for a scalar sector), null when it was not split, and
    ``sector_pairs`` holds one entry per solved matrix: the pairs its last
    Lanczos run returned.

    Each matrix solved, minus sigma, is factored once by ``_factor``:
    SuperLU without pivoting, in symmetric mode, with the minimum-degree
    ordering on the pattern of A^T + A, in the matrix's own dtype.  Every shift-invert
    step is a solve with that factor, and the factor is freed before the
    next sector is factored.  ARPACK sizes its own Krylov space, ``eigsh``'s
    default of min(dim, max(2 k + 1, 20)) vectors for a run asked for k
    pairs.  A factor that fails a check (a zero pivot, an exactly singular
    matrix, as with an eigenvalue at sigma, or an unstable solve) raises
    SolverError naming it.  The report records the ordering, and the L+U
    entries SuperLU stores (``lu_fill``) and the solves, each summed over
    the matrices solved; the solves of a run made again are included.

    The matrix is worked on in the dtype it is given: a float64 matrix
    (``discretize`` gives one for an operator with no imaginary entry) is
    symmetrized, split, tested and multiplied in float64, with no upcast.  A
    complex symmetrized matrix with no imaginary entry is replaced by its
    real part once, so every later pass, the residual check included, runs
    in float64 too.  Each matrix is solved in real arithmetic when it allows
    it: as it stands when it is real, and in a basis of T-invariant
    vectors when P conj(S) P equals S bitwise, P the mirror of node rows.
    The eigenvectors are mapped back through that basis.  A matrix with no
    imaginary entry does not take the T basis: there it splits exactly into
    mirror-even and mirror-odd columns, and shift-invert Lanczos on that
    returned too few copies of a degenerate level (the n = 24 vortex
    H_plus, at three of eight start vectors), where the plain real solve
    returns them all.  ``arithmetic`` in the report is "real" when the
    solves ran in real arithmetic.
    """
    _check_k(k)
    _check_seed(seed)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    dim = a.shape[0]
    n2 = grid.num_nodes
    if dim % n2 != 0:
        raise ShapeError(f"matrix dimension {dim} is not a multiple of n^2 = {n2}")
    components = dim // n2

    a = a.tocsr()
    if not a.has_canonical_format:  # summed on a copy: the caller's matrix stays
        a = a.copy()
        a.sum_duplicates()
    adj = a.T.tocsr()
    np.conjugate(adj.data, out=adj.data)
    scale = max(max_abs(a), 1e-300)
    same_pattern = np.array_equal(a.indptr, adj.indptr) and np.array_equal(a.indices, adj.indices)
    if (same_pattern and a.dtype.kind == "f" and np.array_equal(a.data, adj.data)
            and a.data.all()):
        herm, defect = a, 0.0  # its own symmetrization, bit for bit: read, never written
    else:
        if same_pattern:
            defect = max_abs(a.data - adj.data) / scale
            adj.data += a.data
            herm = adj
        else:  # a one-sided entry: the union of both patterns
            defect = max_abs(a - adj) / scale
            herm = a + adj
        herm.data *= 0.5
        herm.eliminate_zeros()
    if np.iscomplexobj(herm) and not herm.data.imag.any():
        herm = herm.real  # real symmetric as it stands, so solved in float64
    del a, adj

    sector, offset = herm, None
    if components == 2:
        swap = _swap_sector(herm, n2)
        if swap is not None:
            sector, offset = swap

    residual_bound = RESIDUAL_REL * max(scale, 1.0)
    wanted = -(-k // 2) if offset == 0.0 else k
    kron = _kron_sum(sector, grid) if sector.shape[0] == n2 else None
    phases = None
    if kron is not None and kron[2] <= residual_bound:
        ty, tx, kron_defect = kron
        vals, vecs = _kron_solve(ty, tx, wanted)
        ordering, lu_fill, n_solves = None, 0, 0
        sector_pairs = [vals.size]
        real = not np.iscomplexobj(vecs)
    else:
        rng = np.random.default_rng(seed)
        forms, phases = _parity_forms(sector, grid)
        del sector, kron
        vals, vecs, sector_pairs = [], [], []
        lu_fill = n_solves = 0
        real = True
        for form, basis in forms:
            real = real and not np.iscomplexobj(form)
            f_vals, f_vecs, fill, solves = _shift_invert(
                form, wanted, rng, matrix_id, np.concatenate(vals) if vals else None)
            vals.append(f_vals)
            vecs.append(f_vecs if basis is None else basis @ f_vecs)
            sector_pairs.append(f_vals.size)
            lu_fill += fill
            n_solves += solves
        vals, vecs = np.concatenate(vals), np.hstack(vecs)
        ordering, kron_defect = ORDERING, None
    if offset is not None:
        vals = np.concatenate((vals, vals + offset))
        vecs = np.block([[vecs, vecs], [vecs, -vecs]]) * np.sqrt(0.5)
    vecs = vecs[:, np.argsort(vals, kind="stable")[:k]]

    # one product for all columns, each column contiguous as a matvec gives it
    hvecs = np.asfortranarray(herm @ vecs.astype(np.result_type(herm.dtype, vecs.dtype)))
    pairs = []
    for i in range(vecs.shape[1]):
        v, hv = vecs[:, i], hvecs[:, i]
        nrm = np.linalg.norm(v)
        u = v.astype(hv.dtype, copy=False)  # one dot product kernel for both
        lam = float(np.vdot(u, hv).real / np.vdot(u, u).real)
        res = float(np.linalg.norm(hv - lam * v) / nrm)
        pairs.append((lam, Field(grid, components, v / (nrm * grid.h)), res))
    pairs.sort(key=lambda pair: pair[0])
    eigenvalues = [lam for lam, _, _ in pairs]
    fields = [field for _, field, _ in pairs]
    residuals = [res for _, _, res in pairs]
    worst = max(residuals, default=0.0)
    if worst > residual_bound:
        raise SolverError(
            f"{matrix_id or 'matrix'}: eigenpair residual {worst:.3e} exceeds "
            f"the bound {residual_bound:.3e}",
            matrix_id=matrix_id, requested=k, converged=len(eigenvalues))
    return EigenReport(matrix_id=matrix_id, grid=grid, eigenvalues=eigenvalues,
                       vectors=fields, residuals=residuals, residual_bound=residual_bound,
                       hermiticity_defect=float(defect), ordering=ordering,
                       lu_fill=lu_fill, n_solves=n_solves,
                       arithmetic="real" if real else "complex",
                       sector_offset=offset, sector_pairs=sector_pairs,
                       inversion_phase=phases, kron_defect=kron_defect)


def _swap_sector(herm: sp.csr_matrix, n2: int) -> Optional[tuple[sp.csr_matrix, float]]:
    """The sector A + beta and the offset -2 beta of a two-component
    herm = [[A, B], [B*, C]] with C == A and B = beta I, beta real, entry by
    entry, or None for any other coupling.

    A, B and C are the slices herm[:n2, :n2], herm[:n2, n2:] and
    herm[n2:, n2:].  Each test is one ``_same`` comparison: C with A, and a
    nonempty B with beta I, beta the real part of B's first entry, so an
    entry of B off the diagonal, a diagonal entry missing or unequal, or an
    imaginary part fails it.  An empty B is beta = 0.
    """
    a, b = herm[:n2, :n2], herm[:n2, n2:]
    beta = float(b.data[0].real) if b.nnz else 0.0
    shift = beta * sp.identity(n2, dtype=herm.dtype, format="csr")
    if not (_same(a, herm[n2:, n2:]) and (not b.nnz or _same(b, shift))):
        return None
    return (a + shift if beta else a), 0.0 - 2.0 * beta  # 0.0, not -0.0, when beta = 0


def _same(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Whether two CSR matrices store the same arrays, entry by entry."""
    return (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def _kron_sum(sector: sp.csr_matrix, grid: GridSpec
              ) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
    """T_y, T_x and max|E| of a scalar grid sector S = T_y (x) I + I (x) T_x
    + diag(E), or None when an off-diagonal entry of S is not an x-hop or a
    y-hop equal to the one of grid row 0 or grid column 0, or a grid row or
    column lacks one of those.

    Read from the index arrays of S (no explicit zeros): every entry's grid
    row and column give its hop, looked up in T_x, the block of grid row 0,
    or in T_y, the block of grid column 0; with every entry found there,
    n times as many x-hops (y-hops) as grid row 0 (column 0) holds means
    every grid row (column) holds all of them.  T_y is returned less
    d[0, 0]; both are dense, in S's dtype.
    """
    n = grid.n
    rows = np.repeat(np.arange(n * n, dtype=sector.indices.dtype), np.diff(sector.indptr))
    ry, rx = np.divmod(rows, n)
    cy, cx = np.divmod(sector.indices, n)
    x_hop, y_hop = ry == cy, rx == cx
    if not (x_hop | y_hop).all():
        return None
    on_diag = x_hop & y_hop
    x_hop ^= on_diag
    y_hop ^= on_diag
    in_tx, in_ty = (ry == 0) & (cy == 0), (rx == 0) & (cx == 0)
    tx, ty = np.zeros((n, n), dtype=sector.dtype), np.zeros((n, n), dtype=sector.dtype)
    tx[rx[in_tx], cx[in_tx]] = sector.data[in_tx]
    ty[ry[in_ty], cy[in_ty]] = sector.data[in_ty]
    if (np.count_nonzero(x_hop) != n * np.count_nonzero(x_hop & in_tx)
            or np.count_nonzero(y_hop) != n * np.count_nonzero(y_hop & in_ty)
            or (sector.data[x_hop] != np.take(tx, (rx * n + cx)[x_hop])).any()
            or (sector.data[y_hop] != np.take(ty, (ry * n + cy)[y_hop])).any()):
        return None
    d = np.zeros(n * n)
    d[rows[on_diag]] = sector.data[on_diag].real
    d = d.reshape(n, n)
    defect = float(np.abs(d - d[:, :1] - d[:1, :] + d[0, 0]).max())
    return ty - d[0, 0] * np.eye(n), tx, defect


def _kron_solve(ty: np.ndarray, tx: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of T_y (x) I + I (x) T_x from the min(k, n)
    lowest eigenpairs (nu_j, v_j) of T_y and (mu_i, u_i) of T_x: the sums
    nu_j + mu_i in a stable order, with the vectors v_j (x) u_i as columns.

    That is enough, as no sum among the k lowest has i >= k or j >= k: for
    i >= k the k sums nu_j + mu_0, ..., nu_j + mu_(k-1) are each at most
    nu_j + mu_i and precede it in the stable order of (j, i), and the same
    holds for j.  So the pairs kept are those the full n x n spectra give,
    ties included.
    """
    nu, v = _lowest_levels(ty, k)
    mu, u = _lowest_levels(tx, k)
    order = np.argsort((nu[:, None] + mu[None, :]).ravel(), kind="stable")[:k]
    j, i = np.divmod(order, mu.size)
    return nu[j] + mu[i], (v[:, j][:, None, :] * u[:, i][None, :, :]).reshape(-1, order.size)


def _lowest_levels(t: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, n) lowest eigenpairs of a Hermitian n x n matrix, in
    ascending order, by LAPACK's selected band solver (?sbevx, ?hbevx) at
    the bandwidth of its entries: bisection and inverse iteration for the
    selected levels only.  At n = 193 and bandwidth 1, three levels take
    about a tenth of the time of a dense eigh."""
    n = t.shape[0]
    i, j = np.nonzero(t)
    width = int(np.max(j - i, initial=0))
    band = np.zeros((width + 1, n), dtype=t.dtype)
    for d in range(width + 1):  # the upper band, one diagonal per row
        band[width - d, d:] = t.diagonal(d)
    return sla.eig_banded(band, select="i", select_range=(0, min(k, n) - 1))


def _shift_invert(form: sp.csr_matrix, k: int, rng: np.random.Generator, matrix_id: str,
                  solved: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """min(k, dim - 2) lowest eigenpairs of one Hermitian sector form (one
    that ``_parity_forms`` gives) by shift-invert Lanczos, or, given the
    levels ``solved`` of the sector's other form, as many as the k lowest of
    the union need.

    With ``solved``, the form is asked first for min(k, ceil(k/2) + 1)
    pairs, one more than an even split of the k.  That budget stands when
    the form returned every pair it could, or when its largest returned
    eigenvalue is at least the k-th lowest of the union of ``solved`` and
    the returned levels: every level it did not return is then at least as
    large, so none enters the k kept (at an exact tie either copy may be
    kept).  Otherwise the same factor and start vector solve the form again
    for min(k, dim - 2) pairs.  ARPACK sizes its own Krylov space
    (``eigsh``'s default, min(dim, max(2 k + 1, 20)) vectors).

    Returns the eigenvalues and eigenvectors, as columns in the form's own
    basis, of its last Lanczos run, the L+U fill and the number of solves
    of both runs.  The factor is local, so it is freed before the next
    sector is factored.
    """
    dim = form.shape[0]
    k_eff = min(k, dim - 2)
    v0 = rng.standard_normal(dim)
    lu, failed = _factor(form, SHIFT)
    if lu is None:
        raise SolverError(f"{matrix_id or 'matrix'}: the pivot-free factorization at "
                          f"sigma = {SHIFT} failed its check: {failed}",
                          matrix_id=matrix_id, requested=k_eff)
    n_solves = 0

    def solve(x):
        nonlocal n_solves
        n_solves += 1
        return lu.solve(x)

    op_inv = spla.LinearOperator((dim, dim), matvec=solve, dtype=form.dtype)

    def lanczos(pairs):
        try:
            return spla.eigsh(form, k=pairs, sigma=SHIFT, which="LM", v0=v0, OPinv=op_inv)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge on {matrix_id or 'matrix'}: "
                f"{len(exc.eigenvalues)}/{pairs} pairs",
                matrix_id=matrix_id, requested=pairs,
                converged=len(exc.eigenvalues)) from exc

    budget = k_eff if solved is None else min(k_eff, -(-k // 2) + 1)
    vals, vecs = lanczos(budget)
    if budget < k_eff:
        union = np.sort(np.concatenate((solved, vals)))
        if union.size < k or vals.max() < union[k - 1]:
            vals, vecs = lanczos(k_eff)
    return vals, vecs, int(lu.nnz), n_solves


def _factor(form: sp.csr_matrix, shift: float) -> tuple[Optional[spla.SuperLU], str]:
    """Checked pivot-free SuperLU factor of a Hermitian sector minus shift.

    The sector S, in the form ``_parity_forms`` gives, minus shift is
    factored in symmetric mode with a zero pivot threshold and the solve's
    ordering, after free heap pages are handed back.  Returns the factor and
    "", or None and the check it failed: a zero pivot left the diagonal (the
    row and column permutations differ), S - shift is exactly singular, or
    the residual of one solve, with a fixed random right-hand side b,
    exceeds RESIDUAL_REL (1e-11, the relative figure of the residual bound) times
    (|S|_inf + |shift|) |x|_inf + |b|_inf.
    """
    dim = form.shape[0]
    _MALLOC_TRIM(0)
    try:
        lu = spla.splu(
            (form - shift * sp.identity(dim, dtype=form.dtype, format="csr")).tocsc(),
            permc_spec=ORDERING, diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        return None, str(exc)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, "a zero pivot left the diagonal"
    b = np.random.default_rng(0).standard_normal(dim)
    x = lu.solve(b)
    backward = np.abs(form @ x - shift * x - b).max() / (
        (spla.norm(form, np.inf) + abs(shift)) * np.abs(x).max() + np.abs(b).max())
    if not backward <= RESIDUAL_REL:
        return None, f"backward error {backward:.1e} of one solve exceeds {RESIDUAL_REL:g}"
    return lu, ""


def _parity_forms(sector: sp.csr_matrix, grid: GridSpec
                  ) -> tuple[list[tuple[sp.csr_matrix, Optional[sp.csr_matrix]]],
                             Optional[list[int]]]:
    """The matrices Lanczos solves for a Hermitian grid sector S, each with
    its basis Q, which maps its vectors back as v = Q w, at most two entries
    per row (None: the sector's own basis), and the inversion phases of S's
    components (None: no split).

    Both symmetries are read from S's data bitwise (module docstring).  The
    inversion J maps unknown c n^2 + k to c n^2 + n^2 - 1 - k, with the
    phase 1 on every component, or, for two components, 1 on the first and
    -1 on the second: S commutes with J when S[Ju, Jv] s_u s_v == S[u, v]
    for every entry.  The mirror P maps node row j to n - 1 - j, and S
    commutes with T = P K when conj(S[Pu, Pv]) == S[u, v].  Each is decided
    by comparing S with one permuted copy, S[perm][:, perm] with its indices
    sorted, array by array (``_same``), so a pattern that the map does not
    keep is no symmetry; for the phase -1 the copy's coupling blocks are
    negated first.  T is checked for every complex sector, whether J holds
    or not (``low_spectrum`` hands on a sector with no imaginary entry as
    float64); a real sector takes no T basis.

    With J, S splits into the even and the odd sector, one form each.  Its
    basis holds (e_l + p s_l e_Jl)/sqrt(2) for every lead l < Jl, p the
    sector's parity, and e_f for a fixed unknown f = Jf (the centre node of
    an odd grid) with s_f = p.  With T, each sector (S itself when J fails)
    takes the T-invariant basis: where T b_l = t b_m, l < m, the columns
    (b_l + t b_m)/sqrt(2) and i (b_l - t b_m)/sqrt(2) side by side, which
    keeps the fill low, and b_l or i b_l where T b_l = +b_l or -b_l; the
    form is then real symmetric.  Q, the columns above, has at most two
    entries per row.  Each form F = Q* S Q is one sparse product, read by
    the pivot rule: row j of F is S[r_j, :] Q / Q[r_j, j], r_j the first head
    of column j's block and Q[r_j, j] read from the basis just built, and in
    the T basis the real part of that.  It holds as S Q = Q F, and row r_j
    of Q holds only the columns of j's block, whose two pivots differ by a
    factor of +-i, so the other column adds an imaginary multiple of a real
    row.  Without J and T, S is solved as it is, in real arithmetic when it
    is real.
    """
    dim = sector.shape[0]
    n, n2 = grid.n, grid.num_nodes
    unknown = np.arange(dim)
    comp, node = np.divmod(unknown, n2)

    def permuted(perm):  # S[perm u, perm v] at (u, v)
        copy = sector[perm][:, perm]
        copy.sort_indices()
        return copy

    inverted = comp * n2 + (n2 - 1 - node)
    image = permuted(inverted)
    phases = None
    if _same(image, sector):
        phases = [1] * (dim // n2)
    elif dim // n2 == 2:  # -1 on the coupling blocks, which hold the components' ends
        image.data[(image.indices >= n2) != (np.arange(image.nnz) >= image.indptr[n2])] *= -1
        if _same(image, sector):
            phases = [1, -1]
    iy, ix = np.divmod(node, n)
    mirror = comp * n2 + (n - 1 - iy) * n + ix
    if not (np.iscomplexobj(sector) and _same(permuted(mirror).conj(), sector)):
        mirror = None
    if phases is None and mirror is None:
        return [(sector, None)], None

    sign = np.asarray(phases, dtype=float)[comp] if phases else np.ones(dim)
    partner = inverted if phases else unknown
    lead = np.minimum(unknown, partner)
    paired = partner != unknown
    weight = np.where(paired, np.sqrt(0.5), 1.0)
    forms = []
    for parity in ((1, -1) if phases else (1,)):
        kept = paired | (sign == parity)  # a fixed unknown of the other parity drops out
        j_coef = np.where(unknown == lead, weight, parity * sign * weight) * kept
        heads = np.flatnonzero(kept & (unknown == lead))
        if mirror is None:
            twin, t = heads, np.ones(heads.size)
        else:  # T b_l = t b_twin
            twin = lead[mirror[heads]]
            t = np.where(mirror[heads] == twin, 1.0, parity * sign[heads])
        first, two = heads <= twin, twin != heads
        # by unknown: the first column of the head's block, whether it has a
        # second, and the head's coefficient on each
        start = np.zeros(dim, dtype=np.intp)
        start[heads[first]] = np.cumsum(1 + two[first]) - 1 - two[first]
        start[heads] = start[np.minimum(heads, twin)]
        wide = np.zeros(dim, dtype=np.intp)
        wide[heads] = two
        on = np.zeros((2, dim), dtype=complex)
        on[0, heads] = np.where(two, np.where(first, 1.0, t) * np.sqrt(0.5),
                                np.where(t > 0, 1.0, 1j))
        on[1, heads] = np.where(two, np.where(first, 1.0, -t) * 1j * np.sqrt(0.5), 0.0)
        col = np.stack((start[lead], start[lead] + wide[lead]))
        coef = j_coef * on[:, lead]
        if mirror is None:
            col, coef = col[:1], coef[:1].real
        basis = sp.csr_matrix((coef.T.ravel(), col.T.ravel(),
                               np.arange(0, col.size + 1, col.shape[0])), shape=(dim, heads.size))
        basis.eliminate_zeros()
        # row j: S's row r_j, the first head of column j's block, times Q over Q[r_j, j]
        rows = np.repeat(heads[first], 1 + two[first])
        form = sector[rows] @ basis
        form.data *= np.repeat(1.0 / basis[rows].diagonal(), np.diff(form.indptr))
        if mirror is not None:
            form = form.real
        form.eliminate_zeros()
        form.sort_indices()
        forms.append((form, basis))
    return forms, phases


def mode_census(report: EigenReport, gap_threshold: float, loc_radius: float,
                loc_min: float) -> tuple[int, list[float], bool]:
    """Count localized sub-gap modes; also return their localization fractions
    and whether any eigenvalue sits ambiguously close to the threshold."""
    if gap_threshold <= 0:
        raise ValueError(f"gap threshold must be positive, got {gap_threshold}")
    count = 0
    fractions = []
    ambiguous = False
    for lam, vec in zip(report.eigenvalues, report.vectors):
        if abs(lam - gap_threshold) <= 0.1 * gap_threshold:
            ambiguous = True
        if lam < gap_threshold:
            frac = localization_fraction(vec, loc_radius)
            fractions.append(frac)
            if frac >= loc_min:
                count += 1
    return count, fractions, ambiguous


def winding_number(multiplier: OperatorExpression, radius: float) -> int:
    """Phase winding of a multiplication operator around |z| = radius.

    Accumulates the phase increments between neighbouring samples of the
    closed contour.  An increment is only known modulo 2 pi, so the count
    starts at 64 samples and doubles them until no increment exceeds pi/2
    in magnitude and one more doubling gives the same count.  An entry that
    vanishes on the contour, or one that needs more than 2^16 samples (a
    zero passes too close to the contour), raises ContourError rather than
    returning an aliased count.  A radius that is not a finite positive
    real (a bool is none) raises ValueError before the first sample.
    """
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real) or not 0 < radius < np.inf:
        raise ValueError(f"contour radius must be finite and positive, got {radius!r}")
    samples, count = 64, None
    while samples <= CONTOUR_SAMPLES_CAP:
        zs = radius * np.exp(2j * np.pi * np.arange(samples + 1) / samples)
        vals = evaluate(multiplier, zs)
        if np.min(np.abs(vals)) < 1e-12:
            raise ContourError(
                f"mass entry vanishes on the contour |z| = {radius}; winding undefined")
        increments = np.angle(vals[1:] / vals[:-1])
        resolved = np.max(np.abs(increments)) <= np.pi / 2
        last, count = count, (int(np.rint(np.sum(increments) / (2.0 * np.pi)))
                              if resolved else None)
        if count is not None and count == last:
            return count
        samples *= 2
    raise ContourError(
        f"the winding around |z| = {radius} does not settle within "
        f"{CONTOUR_SAMPLES_CAP} samples: the contour passes too close to a zero")


@dataclass(frozen=True)
class IndexParams:
    """Solver settings for the index computation.

    k and seed go to low_spectrum for each partner, which always solves to
    machine precision.  The census has no setting: it always calibrates
    the threshold from half the smallest H_plus eigenvalue (capped at 0.5;
    wrong when H_plus holds the kernel, see ROADMAP.md item 4) and the disk
    radius from the predicted Gaussian decay rate (clipped to [L/2, 0.7L]),
    so the counted disk always holds the 1 - e^-8 mass fraction of the
    expected mode, and counts a mode with at least LOC_MIN of its mass in
    that disk.  The winding cross-check takes the contour |z| = L of the
    grid itself.
    """

    k: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_k(self.k)  # the limits the config keys solver.k and seed check
        _check_seed(self.seed)


def _check_k(k) -> None:
    """Refuse a k that is not an integer of at least 1; a bool is no k."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer, the start vectors'
    np.random.default_rng seed; a bool is no seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer of at least 0, got {seed!r}")


@dataclass
class WittenIndexReport:
    """Zero-mode counts, their difference, and the topological cross-check."""

    n_minus: int
    n_plus: int
    delta: int
    gap_threshold: float
    loc_radius: float
    loc_min: float
    localization_fractions: dict[str, list[float]]
    winding: Optional[int]
    winding_matches: Optional[bool]
    ambiguous: bool
    grid: GridSpec
    model: Optional[ModelSpec]
    eigenvalues_minus: list[float]
    eigenvalues_plus: list[float]
    max_residual: float
    minus_report: EigenReport = dc_field(repr=False, compare=False, default=None)
    plus_report: EigenReport = dc_field(repr=False, compare=False, default=None)

    def to_json_dict(self) -> dict:
        # version 2: the model lists only the couplings that enter the operator
        return {"schema_version": 2, **json_payload(self)}


def witten_index(op_set: DefectOperatorSet, grid: GridSpec,
                 params: IndexParams = IndexParams()) -> WittenIndexReport:
    """Witten index of a defect operator set discretized on the grid."""
    if op_set.grid != grid:
        raise ShapeError("operator set was discretized on a different grid")

    rm = low_spectrum(op_set.H_minus_mat, params.k, grid=grid,
                      matrix_id="H_minus", seed=params.seed)
    rp = low_spectrum(op_set.H_plus_mat, params.k, grid=grid,
                      matrix_id="H_plus", seed=params.seed)

    lead = rp.eigenvalues[0] if rp.eigenvalues else 0.0
    gap = min(0.5, lead / 2.0) if lead > 0 else 0.5

    loc_radius = grid.L / 2
    if op_set.model is not None:
        alpha = op_set.model.predicted_alpha()
        if alpha > 0:
            loc_radius = max(grid.L / 2, min(0.7 * grid.L, float(np.sqrt(4.0 / alpha))))

    n_minus, frac_minus, amb_m = mode_census(rm, gap, loc_radius, LOC_MIN)
    n_plus, frac_plus, amb_p = mode_census(rp, gap, loc_radius, LOC_MIN)

    try:
        winding = winding_number(op_set.mass_entry, grid.L)
    except (ContourError, ValueError):  # a mass entry with derivatives has none
        winding = None
    delta = n_minus - n_plus
    matches = (winding == delta) if winding is not None else None
    if matches is False:
        warnings.warn(
            f"analytic index {delta} disagrees with winding number {winding}",
            WindingMismatchWarning, stacklevel=2)

    return WittenIndexReport(
        n_minus=n_minus, n_plus=n_plus, delta=delta,
        gap_threshold=float(gap), loc_radius=float(loc_radius), loc_min=LOC_MIN,
        localization_fractions={"minus": frac_minus, "plus": frac_plus},
        winding=winding, winding_matches=matches,
        ambiguous=amb_m or amb_p,
        grid=grid, model=op_set.model,
        eigenvalues_minus=rm.eigenvalues, eigenvalues_plus=rp.eigenvalues,
        max_residual=float(max(rm.residuals + rp.residuals, default=0.0)),
        minus_report=rm, plus_report=rp)


@dataclass
class PairingReport:
    """Supersymmetric pairing of partner spectra inside an energy window."""

    window: tuple[float, float]
    tol: float
    pairs: list[tuple[float, float]]
    unmatched_minus: list[float]
    unmatched_plus: list[float]

    @property
    def all_matched(self) -> bool:
        return not self.unmatched_minus

    def to_json_dict(self) -> dict:
        return {**json_payload(self), "all_matched": self.all_matched}


def pairing_check(rm: EigenReport, rp: EigenReport, cutoff: float,
                  gap_threshold: float = 0.5) -> PairingReport:
    """Match every H_minus eigenvalue in (gap_threshold, cutoff) to H_plus.

    Greedy nearest-neighbour matching in ascending order, within PAIRING_TOL
    (absolute); each H_plus eigenvalue is used at most once.  Mismatches are
    report content, not errors.
    """
    if rm.grid != rp.grid:
        raise ShapeError("pairing requires spectra from the same grid")
    minus_vals = [v for v in rm.eigenvalues if gap_threshold < v < cutoff]
    plus_pool = [v for v in rp.eigenvalues if v < cutoff]
    used = [False] * len(plus_pool)
    pairs, unmatched = [], []
    for lam in minus_vals:
        best, best_gap = -1, PAIRING_TOL
        for i, mu in enumerate(plus_pool):
            if used[i]:
                continue
            gapv = abs(mu - lam)
            if gapv <= best_gap:
                best, best_gap = i, gapv
        if best >= 0:
            used[best] = True
            pairs.append((lam, plus_pool[best]))
        else:
            unmatched.append(lam)
    leftovers = [v for i, v in enumerate(plus_pool)
                 if not used[i] and gap_threshold < v]
    return PairingReport(window=(gap_threshold, cutoff), tol=PAIRING_TOL, pairs=pairs,
                         unmatched_minus=unmatched, unmatched_plus=leftovers)
