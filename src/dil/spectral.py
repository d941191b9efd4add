"""Low-lying spectra, zero-mode counting, and the Witten index.

The index is computed two independent ways.  Analytically: n_minus and
n_plus count localized sub-gap eigenmodes of the discretized partner
Hamiltonians and delta = n_minus - n_plus.  Topologically: the phase of the
holomorphic mass entry is accumulated around a contour enclosing the defect,
giving the vortex winding number.  For vortex-type first-order operators the
two must agree, which is what makes the pair a useful cross-check: square
grids alone cannot prove an integer, and a winding count alone cannot see
the spectral gap.

The sub-gap threshold can be given explicitly or left to self-calibrate.
Self-calibration uses half the smallest eigenvalue of the kernel-free
partner (capped at the unperturbed half-gap 0.5): supersymmetry pairs the
nonzero spectra of the two partners, so that eigenvalue IS the spectral gap.
This matters for strong perturbations, where the gap collapses roughly like
(1 - c) and a fixed 0.5 threshold would start swallowing paired excited
states near c ~ 0.5.

Every operator with real coefficients commutes with the antiunitary
T = R_y K, the mirror y -> -y followed by complex conjugation (T^2 = 1):
T d T = d and T z T = z, and the grid and stencils are mirror symmetric.
On the grid, R_y is the permutation P that maps node row j to row n-1-j in
every spinor component, and T-symmetry of a matrix H reads
P conj(H) P = H.  Such a Hermitian H is real symmetric in a basis of
T-invariant vectors built from mirror pairs (Wigner), so its spectrum comes
from a real factorization and real symmetric Lanczos, at half the storage
and a fraction of the arithmetic of the complex ones.  ``low_spectrum``
decides this from the data exactly, with no threshold: a matrix with no
imaginary entry (the unperturbed model) is real symmetric as it stands, and
any other one is compared with P conj(H) P entry by entry.  Operators with
complex coefficients (the multiplier 1 + 2i) fail the comparison and are
solved in complex arithmetic.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContourError, ShapeError, SolverError
from .lattice import Field, GridSpec, localization_fraction, max_abs
from .opcalc import OperatorExpression, evaluate_multiplication
from .susy import DefectOperatorSet, ModelSpec

DENSE_CUTOFF = 4000
SHIFT = -0.5
ORDERING = "MMD_AT_PLUS_A"

# glibc raises its mmap threshold to the size of each mapped block that is
# freed, up to 32 MiB, so after a few solves the factorization's arrays (a
# few MB to tens of MB) come from the heap, and the holes earlier calls left
# there stay resident.  Whether a factorization reuses them or grows the
# heap depends on the order of earlier allocations: identical index runs on
# the desk grid peaked at 156-165 MB or at 180-188 MB.  malloc_trim(0) before
# each factorization drops the resident pages of every free hole, so the
# peak is what is live.  None where the C library has no malloc_trim.
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


class AmbiguousGapWarning(UserWarning):
    """An eigenvalue sits within 10% of the counting threshold."""


@dataclass
class EigenReport:
    """Smallest eigenpairs of one Hermitian matrix."""

    matrix_id: str
    grid: GridSpec
    eigenvalues: list[float]
    vectors: list[Field]
    residuals: list[float]
    residual_bound: float
    hermiticity_defect: float
    method: str
    tol: float
    ordering: Optional[str] = None
    lu_fill: int = 0
    n_solves: int = 0
    arithmetic: str = "complex"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "matrix_id": self.matrix_id,
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "eigenvalues": list(self.eigenvalues),
            "residuals": list(self.residuals),
            "residual_bound": self.residual_bound,
            "hermiticity_defect": self.hermiticity_defect,
            "method": self.method,
            "tol": self.tol,
            "ordering": self.ordering,
            "lu_fill": self.lu_fill,
            "n_solves": self.n_solves,
            "arithmetic": self.arithmetic,
        }


def low_spectrum(a: sp.spmatrix, k: int, tol: float = 0.0, *,
                 grid: GridSpec, matrix_id: str = "", seed: int = 0,
                 maxiter: Optional[int] = None,
                 dense_cutoff: int = DENSE_CUTOFF) -> EigenReport:
    """k smallest eigenpairs of a Hermitian matrix on the grid.

    The matrix is symmetrized as (A + A*)/2 and the relative defect is
    recorded.  Below ``dense_cutoff`` unknowns a dense solve is used;
    otherwise shift-invert Lanczos (ARPACK's Arnoldi for the complex
    matrices that have to stay complex, see below)
    at sigma = -0.5 with a seeded start vector, which makes repeated runs
    reproducible.  tol = 0 requests machine precision; a post-hoc residual
    bound check refuses eigenpairs that a loose tolerance left inaccurate.

    The shifted matrix A + 0.5 I is factored once, explicitly, by SuperLU
    with the minimum-degree ordering on the pattern of A^T + A, and every
    shift-invert step is a solve with that factorization.  The stencils
    give a structurally symmetric pattern, for which this ordering stores
    about half the L+U entries of SuperLU's default column ordering
    (COLAMD) from the desk grid (n = 96) up, so both the factorization and
    each of the solves are cheaper.  The factorization is made in the
    matrix's own dtype, the one ARPACK iterates in, so a real matrix never
    meets a complex solve.  The report records the ordering, the number of
    entries SuperLU stores for L and U (``lu_fill``) and the number of
    solves.  Free C-heap pages are handed back to the system before the
    factorization, so that the peak memory of a run does not depend on the
    order of its earlier allocations.

    A complex matrix is solved in real arithmetic when the symmetrized A
    allows it, decided by exact comparison (module docstring).  With no
    imaginary entry, A is solved as the real matrix it is.  Otherwise A must
    be T-symmetric: P conj(A) P must equal A bitwise, where P maps node row
    j to row n-1-j in every component.  Then the unitary Q whose columns
    are (e_a + e_Pa)/sqrt(2) and i(e_a - e_Pa)/sqrt(2) for each mirror pair
    a < Pa, side by side, and e_f for each node f = Pf on the y = 0 row of
    an odd grid, gives the real symmetric R = Re(Q* A Q) with the spectrum
    of A.  R takes the place of A in the dense and the sparse solve alike,
    the eigenvectors are mapped back as v = Q w, and the residuals and
    their bound are those of the complex A.  Keeping the two columns of a
    pair side by side keeps the fill of the factorization low.  A matrix
    with no imaginary entry does not take this basis: there R splits
    exactly into the mirror-even and mirror-odd columns, and shift-invert
    Lanczos on it returned too few copies of a degenerate level (the n = 24
    vortex H_plus, at three of eight start vectors), where the plain real
    solve returns them all.  ``arithmetic`` in the report says which
    arithmetic the solve ran in; a real matrix is solved as it is.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if tol < 0:
        raise ValueError(f"solver tolerance must be non-negative, got {tol}")
    dim = a.shape[0]
    n2 = grid.num_nodes
    if dim % n2 != 0:
        raise ShapeError(f"matrix dimension {dim} is not a multiple of n^2 = {n2}")
    components = dim // n2

    a = a.tocsr()
    a_dag = a.getH().tocsr()
    scale = max(max_abs(a), 1e-300)
    defect = max_abs(a - a_dag) / scale
    herm = ((a + a_dag) * 0.5).tocsr()
    solve_mat, basis = herm, None
    if np.iscomplexobj(herm):
        if not herm.data.imag.any():
            solve_mat = herm.real
        else:
            mirror = _mirror(grid, components)
            if (herm.conj()[mirror][:, mirror] != herm).nnz == 0:
                solve_mat, basis = _real_form(herm, mirror)

    ordering, lu_fill, n_solves = None, 0, 0
    if dim <= dense_cutoff:
        vals, vecs = np.linalg.eigh(solve_mat.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        method = "dense"
    else:
        k_eff = min(k, dim - 2)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        ncv = min(dim, max(4 * k_eff, 40))
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        shifted = solve_mat - SHIFT * sp.identity(dim, dtype=solve_mat.dtype,
                                                  format="csr")
        lu = spla.splu(shifted.tocsc(), permc_spec=ORDERING)
        ordering, lu_fill = ORDERING, int(lu.nnz)

        def solve(x):
            nonlocal n_solves
            n_solves += 1
            return lu.solve(x)

        op_inv = spla.LinearOperator((dim, dim), matvec=solve, dtype=solve_mat.dtype)
        try:
            vals, vecs = spla.eigsh(solve_mat, k=k_eff, sigma=SHIFT, which="LM",
                                    v0=v0, tol=tol, ncv=ncv, maxiter=maxiter,
                                    OPinv=op_inv)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge on {matrix_id or 'matrix'}: "
                f"{len(exc.eigenvalues)}/{k_eff} pairs after "
                f"{maxiter if maxiter is not None else 'default'} iterations",
                matrix_id=matrix_id, requested=k_eff,
                converged=len(exc.eigenvalues), maxiter=maxiter) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        method = "shift-invert"
    if basis is not None:
        vecs = basis @ vecs

    residual_bound = 100.0 * max(tol, 1e-13) * max(scale, 1.0)
    eigenvalues, fields, residuals = [], [], []
    for i in range(vals.shape[0]):
        v = vecs[:, i]
        nrm = np.linalg.norm(v)
        res = float(np.linalg.norm(herm @ v - vals[i] * v) / nrm)
        eigenvalues.append(float(vals[i].real))
        fields.append(Field(grid, components, v / (nrm * grid.h)))
        residuals.append(res)
    worst = max(residuals, default=0.0)
    if worst > residual_bound:
        raise SolverError(
            f"{matrix_id or 'matrix'}: eigenpair residual {worst:.3e} exceeds "
            f"the bound {residual_bound:.3e}",
            matrix_id=matrix_id, requested=k, converged=len(eigenvalues),
            maxiter=maxiter)
    return EigenReport(matrix_id=matrix_id, grid=grid, eigenvalues=eigenvalues,
                       vectors=fields, residuals=residuals,
                       residual_bound=residual_bound,
                       hermiticity_defect=float(defect), method=method, tol=tol,
                       ordering=ordering, lu_fill=lu_fill, n_solves=n_solves,
                       arithmetic="complex" if np.iscomplexobj(solve_mat) else "real")


def _mirror(grid: GridSpec, components: int) -> np.ndarray:
    """Index of the mirror image under y -> -y of every unknown."""
    n2 = grid.num_nodes
    node = np.arange(n2).reshape(grid.n, grid.n)[::-1].ravel()
    return (np.arange(components)[:, None] * n2 + node[None, :]).ravel()


def _real_form(herm: sp.csr_matrix, mirror: np.ndarray
               ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Real symmetric R = Re(Q* herm Q) and the unitary Q of T-invariant columns.

    Columns follow each pair's lead a: a pair a < Pa gives
    (e_a + e_Pa)/sqrt(2) and i(e_a - e_Pa)/sqrt(2) side by side, a fixed
    unknown f = Pf gives e_f.
    """
    dim = mirror.size
    lead = np.flatnonzero(np.arange(dim) <= mirror)
    paired = mirror[lead] != lead
    first = np.cumsum(1 + paired) - (1 + paired)
    a, col = lead[paired], first[paired]
    fixed = lead[~paired]
    s = np.full(a.size, np.sqrt(0.5))
    rows = np.concatenate((a, mirror[a], a, mirror[a], fixed))
    cols = np.concatenate((col, col, col + 1, col + 1, first[~paired]))
    vals = np.concatenate((s, s, 1j * s, -1j * s, np.ones(fixed.size)))
    basis = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    real = (basis.getH() @ herm @ basis).real.tocsr()
    real.eliminate_zeros()
    return real, basis

def mode_census(report: EigenReport, grid: GridSpec, gap_threshold: float,
                loc_radius: float, loc_min: float) -> tuple[int, list[float], bool]:
    """Count localized sub-gap modes; also return their localization fractions
    and whether any eigenvalue sits ambiguously close to the threshold."""
    if gap_threshold <= 0:
        raise ValueError(f"gap threshold must be positive, got {gap_threshold}")
    if report.grid != grid:
        raise ShapeError("report grid does not match the requested grid")
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


def winding_number(multiplier: OperatorExpression, radius: float,
                   samples: int = 256) -> int:
    """Phase winding of a multiplication operator around |z| = radius.

    Accumulates the phase increments between neighbouring samples of the
    closed contour.  An increment is only known modulo 2 pi, so each must
    stay well below pi in magnitude; any above pi/2 means the sampling is
    too coarse for the entry (z^40 needs more than 64 samples) and raises
    ContourError rather than returning an aliased count.
    """
    if samples < 64:
        raise ValueError(f"need at least 64 contour samples, got {samples}")
    theta = 2.0 * np.pi * np.arange(samples + 1) / samples
    zs = radius * np.exp(1j * theta)
    vals = evaluate_multiplication(multiplier, zs)
    if np.min(np.abs(vals)) < 1e-12:
        raise ContourError(
            f"mass entry vanishes on the contour |z| = {radius}; winding undefined")
    increments = np.angle(vals[1:] / vals[:-1])
    worst = float(np.max(np.abs(increments)))
    if worst > np.pi / 2:
        raise ContourError(
            f"phase step {worst:.3f} rad between contour samples exceeds pi/2 at "
            f"{samples} samples; the winding would alias")
    total = float(np.sum(increments)) / (2.0 * np.pi)
    return int(np.rint(total))


@dataclass(frozen=True)
class IndexParams:
    """Solver and counting knobs for the index computation.

    gap_threshold and loc_radius default to None, meaning self-calibrate:
    the threshold from half the smallest kernel-free partner eigenvalue
    (capped at 0.5) and the radius from the predicted Gaussian decay rate
    (clipped to [L/2, 0.7L]), so the counted disk always holds the 1 - e^-8
    mass fraction of the expected mode.
    """

    k: int = 8
    tol: float = 0.0
    seed: int = 0
    maxiter: Optional[int] = None
    gap_threshold: Optional[float] = None
    loc_radius: Optional[float] = None
    loc_min: float = 0.95
    winding_radius: float = 1.0
    winding_samples: int = 256
    dense_cutoff: int = DENSE_CUTOFF


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
        return {
            "schema_version": 1,
            "n_minus": self.n_minus,
            "n_plus": self.n_plus,
            "delta": self.delta,
            "gap_threshold": self.gap_threshold,
            "loc_radius": self.loc_radius,
            "loc_min": self.loc_min,
            "localization_fractions": self.localization_fractions,
            "winding": self.winding,
            "winding_matches": self.winding_matches,
            "ambiguous": self.ambiguous,
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "model": self.model.to_json_dict() if self.model is not None else None,
            "eigenvalues_minus": list(self.eigenvalues_minus),
            "eigenvalues_plus": list(self.eigenvalues_plus),
            "max_residual": self.max_residual,
        }


def witten_index(op_set: DefectOperatorSet, grid: GridSpec,
                 params: IndexParams = IndexParams()) -> WittenIndexReport:
    """Witten index of a defect operator set discretized on the grid."""
    if op_set.grid != grid:
        raise ShapeError("operator set was discretized on a different grid")

    rm = low_spectrum(op_set.H_minus_mat, params.k, params.tol, grid=grid,
                      matrix_id="H_minus", seed=params.seed,
                      maxiter=params.maxiter, dense_cutoff=params.dense_cutoff)
    rp = low_spectrum(op_set.H_plus_mat, params.k, params.tol, grid=grid,
                      matrix_id="H_plus", seed=params.seed,
                      maxiter=params.maxiter, dense_cutoff=params.dense_cutoff)

    gap = params.gap_threshold
    if gap is None:
        lead = rp.eigenvalues[0] if rp.eigenvalues else 0.0
        gap = min(0.5, lead / 2.0) if lead > 0 else 0.5

    loc_radius = params.loc_radius
    if loc_radius is None:
        loc_radius = grid.L / 2
        if op_set.model is not None:
            alpha = op_set.model.predicted_alpha()
            if alpha > 0:
                loc_radius = max(grid.L / 2,
                                 min(0.7 * grid.L, float(np.sqrt(4.0 / alpha))))

    n_minus, frac_minus, amb_m = mode_census(rm, grid, gap, loc_radius, params.loc_min)
    n_plus, frac_plus, amb_p = mode_census(rp, grid, gap, loc_radius, params.loc_min)

    try:
        winding = winding_number(op_set.mass_entry, params.winding_radius,
                                 params.winding_samples)
    except (ContourError, ValueError):
        winding = None
    delta = n_minus - n_plus
    matches = (winding == delta) if winding is not None else None
    if matches is False:
        warnings.warn(
            f"analytic index {delta} disagrees with winding number {winding}",
            AmbiguousGapWarning, stacklevel=2)

    return WittenIndexReport(
        n_minus=n_minus, n_plus=n_plus, delta=delta,
        gap_threshold=float(gap), loc_radius=float(loc_radius),
        loc_min=params.loc_min,
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
        return {
            "window": list(self.window),
            "tol": self.tol,
            "pairs": [list(p) for p in self.pairs],
            "unmatched_minus": list(self.unmatched_minus),
            "unmatched_plus": list(self.unmatched_plus),
            "all_matched": self.all_matched,
        }


def pairing_check(rm: EigenReport, rp: EigenReport, cutoff: float,
                  tol: float = 0.05, gap_threshold: float = 0.5) -> PairingReport:
    """Match every H_minus eigenvalue in (gap_threshold, cutoff) to H_plus.

    Greedy nearest-neighbour matching in ascending order; each H_plus
    eigenvalue is used at most once.  Mismatches are report content, not
    errors.
    """
    if rm.grid != rp.grid:
        raise ShapeError("pairing requires spectra from the same grid")
    minus_vals = [v for v in rm.eigenvalues if gap_threshold < v < cutoff]
    plus_pool = [v for v in rp.eigenvalues if v < cutoff]
    used = [False] * len(plus_pool)
    pairs, unmatched = [], []
    for lam in minus_vals:
        best, best_gap = -1, tol
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
    return PairingReport(window=(gap_threshold, cutoff), tol=tol, pairs=pairs,
                         unmatched_minus=unmatched, unmatched_plus=leftovers)
