"""Defect operator family and its supersymmetric quantum mechanics layer.

The first-order defect operator acting on a two-component fermion pair is

    D = [[d,  t*(1-c)*zb],
         [t*z,  db      ]]

with mass defect c built from the metric perturbation strength: at linear
order c = eps*f1, and with higher-order multiplier coefficients
c = eps*f1 + eps^2*f1_series[0] + eps^3*f1_series[1] + ...  The unperturbed
operator (c = 0) annihilates the pair (1, 1)*exp(-|z|^2); for general c the
pair (alpha, 1)*exp(-alpha*|z|^2) with alpha^2 = t^2*(1-c) lies in the
kernel, which is checked exactly in the tests.

On the doubled state space H+ (+) H- the discrete quartet

    Q = [[0, Dm], [0, 0]],  Qdag = Q*,  Ham = diag(Dm Dm*, Dm* Dm),
    W = diag(I, -I)

satisfies the N=2 algebra {Q, Qdag} = Ham, Q^2 = Qdag^2 = 0 structurally,
and W grades vectors into even (plus) and odd (minus) sectors.  Even
operators preserve the sectors, odd operators swap them; ``graded_apply``
enforces that multiplication table on its output.

For spectra the partner Hamiltonians are discretized from their symbolic
compositions adjoint(D) @ D and D @ adjoint(D), never as products of the
discrete matrix with its conjugate transpose: the latter pair is unitarily
similar, so its two zero-mode counts always cancel and the index would be
erased.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ModelError, ParityError, ShapeError
from .lattice import Field, GridSpec, discretize
from .opcalc import (BlockOperator, D, DBAR, OperatorExpression, Z, ZBAR,
                     adjoint, as_fraction, compose)


@dataclass(frozen=True)
class ModelSpec:
    """Couplings of the defect model, stored as exact rationals.

    f1_series lists higher-order multiplier coefficients: entry k pairs with
    eps^(k+2), continuing the linear eps*f1 term.  f2 is recorded for
    completeness but never enters the reduced operator.
    """

    t: Fraction = Fraction(1)
    epsilon: Fraction = Fraction(0)
    f1_value: Fraction = Fraction(1)
    f1_series: tuple[Fraction, ...] = ()
    f2_value: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "t", as_fraction(self.t))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "f1_value", as_fraction(self.f1_value))
        object.__setattr__(self, "f1_series",
                           tuple(as_fraction(v) for v in self.f1_series))
        object.__setattr__(self, "f2_value", as_fraction(self.f2_value))
        if self.t <= 0:
            raise ModelError(f"coupling t must be positive, got {self.t}")
        if self.epsilon < 0:
            raise ModelError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.epsilon * self.f1_value >= 1:
            raise ModelError(
                f"eps*f1 = {self.epsilon * self.f1_value} >= 1 makes the mass "
                "multiplier non-positive and the zero mode non-normalizable")
        if self.mass_defect() >= 1:
            raise ModelError(
                f"total mass defect {self.mass_defect()} >= 1 with the "
                "higher-order series included")

    def mass_defect(self) -> Fraction:
        """Total multiplier defect c: the mass entry carries (1 - c)."""
        c = self.epsilon * self.f1_value
        for k, coeff in enumerate(self.f1_series):
            c += self.epsilon ** (k + 2) * coeff
        return c

    def predicted_alpha(self) -> float:
        """Gaussian decay rate of the kernel pair: alpha = t*sqrt(1-c)."""
        return float(self.t) * float(np.sqrt(float(1 - self.mass_defect())))

    def to_json_dict(self) -> dict:
        return {
            "t": float(self.t),
            "epsilon": float(self.epsilon),
            "f1": float(self.f1_value),
            "f1_series": [float(v) for v in self.f1_series],
            "f2": float(self.f2_value),
            "mass_defect": float(self.mass_defect()),
        }


def build_defect_operator(spec: ModelSpec) -> BlockOperator:
    """First-order block operator of the (possibly perturbed) defect model."""
    multiplier = spec.t * (1 - spec.mass_defect())
    return BlockOperator.from_rows([
        [D, ZBAR.scale(multiplier)],
        [Z.scale(spec.t), DBAR],
    ])


def compact_perturbation(spec: ModelSpec) -> BlockOperator:
    """Strictly upper-triangular difference D(eps) - D(0)."""
    unperturbed = ModelSpec(t=spec.t)
    return build_defect_operator(spec) - build_defect_operator(unperturbed)


@dataclass(frozen=True)
class DefectOperatorSet:
    """Symbolic defect operators plus their matrices on one grid.

    Each matrix is discretized on first read and kept: an index run reads
    only the two partner Hamiltonians, a convergence study only H_minus.
    """

    model: Optional[ModelSpec]
    grid: GridSpec
    D: BlockOperator
    D_adj: BlockOperator
    K: BlockOperator
    H_minus: BlockOperator
    H_plus: BlockOperator

    @property
    def mass_entry(self) -> OperatorExpression:
        """Holomorphic mass term (lower-left entry), used for winding."""
        return self.D.entry(1, 0)

    @cached_property
    def D_mat(self) -> sp.csr_matrix:
        return discretize(self.D, self.grid)

    @cached_property
    def K_mat(self) -> sp.csr_matrix:
        return discretize(self.K, self.grid)

    @cached_property
    def H_minus_mat(self) -> sp.csr_matrix:
        return discretize(self.H_minus, self.grid)

    @cached_property
    def H_plus_mat(self) -> sp.csr_matrix:
        return discretize(self.H_plus, self.grid)


def _operator_set(model: Optional[ModelSpec], grid: GridSpec,
                  dop: BlockOperator, k_op: BlockOperator) -> DefectOperatorSet:
    dadj = adjoint(dop)
    return DefectOperatorSet(model=model, grid=grid, D=dop, D_adj=dadj, K=k_op,
                             H_minus=compose(dadj, dop), H_plus=compose(dop, dadj))


def build_operator_set(spec: ModelSpec, grid: GridSpec) -> DefectOperatorSet:
    dop = build_defect_operator(spec)
    k_op = compact_perturbation(spec)
    if any(not k_op.entry(i, j).is_zero
           for i in range(k_op.rows) for j in range(k_op.cols) if i >= j):
        raise ModelError("perturbation block is not strictly upper-triangular")
    return _operator_set(spec, grid, dop, k_op)


def operator_set_from_block(block: BlockOperator, grid: GridSpec,
                            model: Optional[ModelSpec] = None) -> DefectOperatorSet:
    """Operator set for a user-supplied square block (no perturbation split)."""
    if block.rows != block.cols:
        raise ShapeError("index computation needs a square block operator")
    zero = BlockOperator(block.rows, block.cols,
                         tuple(OperatorExpression() for _ in block.entries))
    return _operator_set(model, grid, block, zero)


# ---------------------------------------------------------------------------
# Discrete SUSY quartet on the doubled space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SusyQuartet:
    """Q, Qdag, Ham, W on the doubled space H+ (+) H-."""

    Q: sp.csr_matrix
    Q_dag: sp.csr_matrix
    Ham: sp.csr_matrix
    W: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


def build_susy_quartet(d_disc: sp.spmatrix) -> SusyQuartet:
    if d_disc.shape[0] != d_disc.shape[1]:
        raise ShapeError(f"defect matrix must be square, got {d_disc.shape}")
    n = d_disc.shape[0]
    d_csr = d_disc.tocsr()
    d_dag = d_csr.getH().tocsr()
    zero = sp.csr_matrix((n, n), dtype=complex)
    q = sp.bmat([[zero, d_csr], [zero, zero]], format="csr")
    q_dag = sp.bmat([[zero, zero], [d_dag, zero]], format="csr")
    ham = sp.bmat([[d_csr @ d_dag, zero], [zero, d_dag @ d_csr]], format="csr")
    w = sp.diags(np.concatenate([np.ones(n), -np.ones(n)])).tocsr()
    return SusyQuartet(Q=q, Q_dag=q_dag, Ham=ham, W=w)


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    INDEFINITE = "indefinite"


def _max_abs(mat) -> float:
    if sp.issparse(mat):
        return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0
    arr = np.asarray(mat)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def parity_classify(a, w, tol: float = 1e-10) -> Parity:
    """Even if a commutes with the grading, odd if it anticommutes."""
    if a.shape != w.shape:
        raise ShapeError(f"operator shape {a.shape} does not match grading {w.shape}")
    scale = _max_abs(a)
    if scale == 0.0:
        return Parity.EVEN
    wa = w @ a
    aw = a @ w
    if _max_abs(wa - aw) <= tol * scale:
        return Parity.EVEN
    if _max_abs(wa + aw) <= tol * scale:
        return Parity.ODD
    return Parity.INDEFINITE


@dataclass(frozen=True)
class GradedOperator:
    """Matrix on the doubled space tagged with its Witten parity."""

    matrix: sp.spmatrix | np.ndarray
    parity: Parity

    @staticmethod
    def classify(matrix, w, tol: float = 1e-10) -> "GradedOperator":
        return GradedOperator(matrix, parity_classify(matrix, w, tol))


@dataclass(frozen=True)
class GradedVector:
    """Pair of fields in the even (plus) and odd (minus) sectors."""

    plus: Field
    minus: Field

    def __post_init__(self):
        if self.plus.grid != self.minus.grid or self.plus.components != self.minus.components:
            raise ShapeError("sector fields must share grid and component count")

    @property
    def grid(self) -> GridSpec:
        return self.plus.grid

    @property
    def components(self) -> int:
        return self.plus.components

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.plus.values, self.minus.values])

    @staticmethod
    def from_vector(grid: GridSpec, components: int, vec: np.ndarray) -> "GradedVector":
        half = components * grid.num_nodes
        if vec.shape != (2 * half,):
            raise ShapeError(f"expected doubled vector of length {2 * half}")
        return GradedVector(Field(grid, components, vec[:half]),
                            Field(grid, components, vec[half:]))

    def norm(self) -> float:
        return float(np.hypot(self.plus.norm(), self.minus.norm()))


def project(v: GradedVector, sign: int) -> GradedVector:
    """Apply the parity projector (I + sign*W)/2."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if sign == +1:
        return GradedVector(v.plus, Field.zeros(v.grid, v.components))
    return GradedVector(Field.zeros(v.grid, v.components), v.minus)


def physical_state_embed(pair: Field) -> GradedVector:
    """Place a two-component fermion pair in the odd sector."""
    if pair.components != 2:
        raise ShapeError(f"fermion pair needs 2 components, got {pair.components}")
    return GradedVector(Field.zeros(pair.grid, 2), pair)


def graded_apply(a: GradedOperator, v: GradedVector,
                 leak_tol: float = 1e-12) -> GradedVector:
    """Apply a graded operator, enforcing the sector multiplication table.

    Even operators map each sector to itself, odd operators swap sectors.
    Each input sector is pushed through separately and any output leaking
    into the forbidden sector (relative to the output size) raises.
    """
    if a.parity is Parity.INDEFINITE:
        raise ParityError("cannot apply an operator of indefinite parity")
    grid, m = v.grid, v.components
    half = m * grid.num_nodes
    mat = a.matrix
    if mat.shape != (2 * half, 2 * half):
        raise ShapeError(f"operator shape {mat.shape} does not match vector")

    out_plus = np.zeros(half, dtype=complex)
    out_minus = np.zeros(half, dtype=complex)
    worst_leak = 0.0
    scale = 0.0

    for sector, part in (("plus", v.plus.values), ("minus", v.minus.values)):
        if not np.any(part):
            continue
        emb = np.zeros(2 * half, dtype=complex)
        if sector == "plus":
            emb[:half] = part
        else:
            emb[half:] = part
        img = np.asarray(mat @ emb).ravel()
        goes_plus = (sector == "plus") == (a.parity is Parity.EVEN)
        keep, leak = (img[:half], img[half:]) if goes_plus else (img[half:], img[:half])
        keep_norm = float(np.linalg.norm(keep))
        leak_norm = float(np.linalg.norm(leak))
        scale = max(scale, keep_norm, leak_norm)
        worst_leak = max(worst_leak, leak_norm)
        if goes_plus:
            out_plus += keep
        else:
            out_minus += keep

    if scale > 0.0 and worst_leak > leak_tol * scale:
        raise ParityError(
            f"{a.parity.value} operator leaked {worst_leak / scale:.3e} of its "
            f"output into the forbidden sector (tolerance {leak_tol:g})")
    return GradedVector(Field(grid, m, out_plus), Field(grid, m, out_minus))
