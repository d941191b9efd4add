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

A two-component Hamiltonian [[A, beta I], [beta I, A]] with beta real
commutes with the on-site swap sigma_x of its two spinor components, so it
is block diagonal in the basis (u + v, u - v)/sqrt(2), as A + beta and
A - beta: one Hermitian matrix on the scalar grid and the same matrix
shifted by -2 beta.  Both partners of the unperturbed defect have this
form (the mass term couples the components by -t, and not at all in the
vortex H_plus), and ``low_spectrum`` decides it from the data exactly,
entry by entry, with no threshold.  A + beta is factored and solved once,
which stores a quarter of the coupled matrix's fill, and each of its
eigenpairs gives one of each sector, so a level the two sectors share is
found in both, where one Lanczos run over the coupled matrix could return
too few copies of it.  The sector then takes the real-arithmetic choice
above.  Any other coupling leaves the matrix whole.

Every factorization is one checked pivot-free SuperLU factorization in
symmetric mode (``_factor``; X. S. Li, ACM TOMS 31, 302 (2005)).  Partial
pivoting leaves the symmetric ordering where the mass blocks dominate, and
its fill explodes.
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

SHIFT = -0.5
ORDERING = "MMD_AT_PLUS_A"
CONTOUR_SAMPLES_CAP = 2 ** 16
LOC_MIN = 0.95  # least share of a counted mode's mass inside the census disk

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


class AmbiguousGapWarning(UserWarning):
    """The analytic index disagrees with the winding number (an eigenvalue
    near the counting threshold only sets the report's ``ambiguous``)."""


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
    ordering: Optional[str] = None
    lu_fill: int = 0
    n_solves: int = 0
    arithmetic: str = "complex"
    sector_offset: Optional[float] = None
    sector_pairs: list[int] = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        # version 2 added ordering, lu_fill, n_solves and arithmetic;
        # version 3 added sectors and identical_sectors; version 4 dropped tol;
        # version 5 added count_shift and sector_pairs; version 6 replaced
        # count_shift with sector_offset; version 7 dropped method, sectors and
        # identical_sectors (sector_offset null is one sector, 0.0 two identical)
        return {
            "schema_version": 7,
            "matrix_id": self.matrix_id,
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "eigenvalues": list(self.eigenvalues),
            "residuals": list(self.residuals),
            "residual_bound": self.residual_bound,
            "hermiticity_defect": self.hermiticity_defect,
            "ordering": self.ordering,
            "lu_fill": self.lu_fill,
            "n_solves": self.n_solves,
            "arithmetic": self.arithmetic,
            "sector_offset": self.sector_offset,
            "sector_pairs": list(self.sector_pairs),
        }


def low_spectrum(a: sp.spmatrix, k: int, *, grid: GridSpec, matrix_id: str = "",
                 seed: int = 0) -> EigenReport:
    """k smallest eigenpairs of a Hermitian matrix on the grid.

    The matrix is symmetrized as (A + A*)/2 and the relative defect is
    recorded.  The spectrum comes from shift-invert Lanczos (ARPACK's
    Arnoldi for the complex matrices that have to stay complex, see below)
    at sigma = -0.5 with a seeded start vector, which makes repeated runs
    reproducible at a fixed BLAS thread count.  ARPACK runs to machine
    precision; a post-hoc check refuses any residual above 1e-11 times the
    largest entry magnitude (at least 1).
    Each eigenvalue is reported as the Rayleigh quotient of its returned
    vector against the symmetrized matrix.

    A two-component matrix [[A, B], [B*, C]] with A == C and B = beta I,
    beta real, entry by entry (every diagonal entry of B equal, none off it,
    no imaginary part), commutes with the swap of its spinor components
    (module docstring).  Its sectors are A + beta and A - beta, the first
    shifted by -2 beta, so only A + beta is solved: for k pairs, or for
    ceil(k/2) when beta = 0 and the two sectors are the same matrix.  Each
    pair (lambda, w) gives the candidates lambda with (w, w)/sqrt(2) and
    lambda - 2 beta with (w, -w)/sqrt(2), and the k lowest are kept; at an
    exact tie either copy may be kept.  Every other matrix, a two-component
    one with any other coupling included, is one sector, solved as it is.
    ``sector_offset`` in the report is -2 beta, 0.0 for two identical
    sectors and null for one sector, and ``sector_pairs`` lists the pairs
    returned by the one solve.  The residuals and their bound are those of
    the full matrix.

    The sector minus sigma is factored once by ``_factor``: SuperLU without
    pivoting, in symmetric mode, with the minimum-degree ordering on the
    pattern of A^T + A, in the sector's own dtype.  Every shift-invert step
    is a solve with that factor.  A factor that fails a check (a zero pivot,
    an exactly singular matrix, as with an eigenvalue at sigma, or an
    unstable solve) raises SolverError naming it.  The report records the
    ordering, the L+U entries SuperLU stores (``lu_fill``) and the solves.

    A complex sector is solved in real arithmetic when it allows it,
    decided by exact comparison (module docstring).  With no imaginary
    entry, it is solved as the real matrix it is.  Otherwise it must be
    T-symmetric: P conj(S) P must equal S bitwise, where P maps node row j
    to row n-1-j in every component.  Then the unitary Q whose columns are
    (e_a + e_Pa)/sqrt(2) and i(e_a - e_Pa)/sqrt(2) for each mirror pair
    a < Pa, side by side, and e_f for each node f = Pf on the y = 0 row of
    an odd grid, gives the real symmetric R = Re(Q* S Q) with the spectrum
    of S.  R takes the place of S in the solve and the eigenvectors are
    mapped back as v = Q w.  Keeping the two columns of a pair side by side
    keeps the fill of the factorization low.  A sector with no imaginary
    entry does not take this basis: there R splits exactly into the
    mirror-even and mirror-odd columns, and shift-invert Lanczos on it
    returned too few copies of a degenerate level (the n = 24 vortex
    H_plus, at three of eight start vectors), where the plain real solve
    returns them all.  ``arithmetic`` in the report is "real" when the
    solve ran in real arithmetic.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
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
    del a_dag

    sector, offset = herm, None
    if components == 2:
        upper, coupling = herm[:n2, :n2], herm[:n2, n2:]
        diag = coupling.diagonal()
        if ((upper != herm[n2:, n2:]).nnz == 0 and not diag.imag.any()
                and (diag == diag[0]).all()
                and (coupling != sp.diags(diag, format="csr")).nnz == 0):
            sector = upper + coupling
            offset = 0.0 - 2.0 * float(diag[0].real)  # 0.0, not -0.0, when beta = 0
        del upper, coupling

    rng = np.random.default_rng(seed)
    ncv = max(4 * min(k, dim - 2), 40)
    residual_bound = 100.0 * 1e-13 * max(scale, 1.0)
    vals, vecs, lu_fill, n_solves, real = _shift_invert(
        *_solve_form(sector, grid), -(-k // 2) if offset == 0.0 else k, rng, ncv, matrix_id)
    del sector
    sector_pairs = [vals.size]
    if offset is not None:
        vals = np.concatenate((vals, vals + offset))
        vecs = np.block([[vecs, vecs], [vecs, -vecs]]) * np.sqrt(0.5)
    vecs = vecs[:, np.argsort(vals, kind="stable")[:k]]

    pairs = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        hv = herm @ v
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
                       hermiticity_defect=float(defect), ordering=ORDERING,
                       lu_fill=lu_fill, n_solves=n_solves,
                       arithmetic="real" if real else "complex",
                       sector_offset=offset, sector_pairs=sector_pairs)


def _shift_invert(solve_mat: sp.csr_matrix, basis: Optional[sp.csr_matrix], k: int,
                  rng: np.random.Generator, ncv: int, matrix_id: str
                  ) -> tuple[np.ndarray, np.ndarray, int, int, bool]:
    """k lowest eigenpairs of one Hermitian sector by shift-invert Lanczos.

    Takes the sector in the form ``_solve_form`` gives.  Returns the
    eigenvalues, the eigenvectors as columns in the sector's own basis, the
    L+U fill, the number of solves and whether the solve ran in real
    arithmetic.
    """
    dim = solve_mat.shape[0]
    k_eff = min(k, dim - 2)
    v0 = rng.standard_normal(dim)
    ncv = min(dim, ncv)
    lu, failed = _factor(solve_mat, SHIFT)
    if lu is None:
        raise SolverError(f"{matrix_id or 'matrix'}: the pivot-free factorization at "
                          f"sigma = {SHIFT} failed its check: {failed}",
                          matrix_id=matrix_id, requested=k_eff)
    n_solves = 0

    def solve(x):
        nonlocal n_solves
        n_solves += 1
        return lu.solve(x)

    op_inv = spla.LinearOperator((dim, dim), matvec=solve, dtype=solve_mat.dtype)
    try:
        vals, vecs = spla.eigsh(solve_mat, k=k_eff, sigma=SHIFT, which="LM",
                                v0=v0, ncv=ncv, OPinv=op_inv)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"eigensolver did not converge on {matrix_id or 'matrix'}: "
            f"{len(exc.eigenvalues)}/{k_eff} pairs",
            matrix_id=matrix_id, requested=k_eff,
            converged=len(exc.eigenvalues)) from exc
    if basis is not None:
        vecs = basis @ vecs
    return vals, vecs, int(lu.nnz), n_solves, not np.iscomplexobj(solve_mat)


def _solve_form(mat: sp.csr_matrix, grid: GridSpec
                ) -> tuple[sp.csr_matrix, Optional[sp.csr_matrix]]:
    """The matrix factored for a Hermitian sector, and the basis Q that maps
    its eigenvectors back (None when it is the sector's own basis): the real
    matrix of a sector with no imaginary entry, the mirror-pair form of a
    T-symmetric one, or else the complex sector itself."""
    if np.iscomplexobj(mat):
        if not mat.data.imag.any():
            return mat.real, None
        mirror = _mirror(grid, mat.shape[0] // grid.num_nodes)
        if (mat.conj()[mirror][:, mirror] != mat).nnz == 0:
            return _real_form(mat, mirror)
    return mat, None


def _factor(form: sp.csr_matrix, shift: float) -> tuple[Optional[spla.SuperLU], str]:
    """Checked pivot-free SuperLU factor of a Hermitian sector minus shift.

    The sector S, in the form ``_solve_form`` gives, minus shift is factored
    in symmetric mode with a zero pivot threshold and the solve's ordering,
    after free heap pages are handed back.  Returns the factor and "", or
    None and the check it failed: a zero pivot left the diagonal (the row
    and column permutations differ), S - shift is exactly singular, or the
    residual of one solve, with a fixed random right-hand side b, exceeds
    1e-11 (the relative figure of the residual bound) times
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
    if not backward <= 1e-11:
        return None, f"backward error {backward:.1e} of one solve exceeds 1e-11"
    return lu, ""


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


def winding_number(multiplier: OperatorExpression, radius: float) -> int:
    """Phase winding of a multiplication operator around |z| = radius.

    Accumulates the phase increments between neighbouring samples of the
    closed contour.  An increment is only known modulo 2 pi, so the count
    starts at 64 samples and doubles them until no increment exceeds pi/2
    in magnitude and one more doubling gives the same count.  An entry that
    vanishes on the contour, or one that needs more than 2^16 samples (a
    zero passes too close to the contour), raises ContourError rather than
    returning an aliased count.
    """
    samples, count = 64, None
    while samples <= CONTOUR_SAMPLES_CAP:
        zs = radius * np.exp(2j * np.pi * np.arange(samples + 1) / samples)
        vals = evaluate_multiplication(multiplier, zs)
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
        # the limit the config key solver.k checks
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


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
        return {
            "schema_version": 2,
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

    n_minus, frac_minus, amb_m = mode_census(rm, grid, gap, loc_radius, LOC_MIN)
    n_plus, frac_plus, amb_p = mode_census(rp, grid, gap, loc_radius, LOC_MIN)

    try:
        winding = winding_number(op_set.mass_entry, grid.L)
    except (ContourError, ValueError):  # a mass entry with derivatives has none
        winding = None
    delta = n_minus - n_plus
    matches = (winding == delta) if winding is not None else None
    if matches is False:
        warnings.warn(
            f"analytic index {delta} disagrees with winding number {winding}",
            AmbiguousGapWarning, stacklevel=2)

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
