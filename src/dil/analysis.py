"""Higher-level experiments on the defect model.

Covers the Gaussian decay fit of computed zero modes, perturbation sweeps
over the mass defect c (the index must stay put while the decay rate moves
as sqrt(1-c)), grid-refinement convergence studies, and the consolidated
residual report for the supersymmetry algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import FitWindowError, ModelError
from .lattice import Field, GridSpec, json_payload, max_abs
from .spectral import IndexParams, low_spectrum, witten_index
from .susy import ModelSpec, SusyQuartet, build_operator_set


@dataclass(frozen=True)
class DecayFit:
    """Gaussian decay rate fitted from a mode profile over an annulus."""

    alpha: float
    r_squared: float
    window: tuple[float, float]
    n_nodes: int


def fit_gaussian_decay(mode: Field, r_min: float = 0.5, r_max: float = 2.5,
                       min_nodes: int = 30) -> DecayFit:
    """Weighted least-squares slope of log|mode| against -|z|^2.

    Nodes inside the annulus r_min <= |z| <= r_max enter with weight equal
    to the squared pointwise magnitude, which suppresses the noise-dominated
    far tail without hiding it.
    """
    r = np.abs(mode.grid.nodes())
    amp2 = mode.pointwise_abs2()
    keep = (r >= r_min) & (r <= r_max) & (amp2 > 0)
    if int(keep.sum()) < min_nodes:
        raise FitWindowError(
            f"only {int(keep.sum())} usable nodes in the annulus "
            f"[{r_min}, {r_max}]; need at least {min_nodes}")
    x = -(r[keep] ** 2)
    y = 0.5 * np.log(amp2[keep])
    w = amp2[keep]
    wsum = w.sum()
    xm = float((w * x).sum() / wsum)
    ym = float((w * y).sum() / wsum)
    sxx = float((w * (x - xm) ** 2).sum())
    sxy = float((w * (x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    resid = y - (ym + slope * (x - xm))
    ss_res = float((w * resid ** 2).sum())
    ss_tot = float((w * (y - ym) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(alpha=float(slope), r_squared=r2,
                    window=(r_min, r_max), n_nodes=int(keep.sum()))


@dataclass
class SweepRow:
    """One perturbation-sweep point; failures are data, not aborts."""

    c: float
    c_effective: float
    delta: Optional[int] = None
    winding: Optional[int] = None
    alpha_fit: Optional[float] = None
    alpha_predicted: float = 1.0
    lambda_min: Optional[float] = None
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return json_payload(self)


def perturbation_sweep(c_values: Sequence[float], grid: GridSpec, *,
                       model: ModelSpec = ModelSpec(),
                       params: IndexParams = IndexParams()) -> list[SweepRow]:
    """Index and decay-rate scan over mass defects c = eps*f1.

    Each point is ``model`` with epsilon = c and unit f1, keeping its
    coupling t and higher-order multiplier series; it recomputes the index
    with the winding cross-check and refits the zero-mode decay rate.  Rows
    keep their input order and a failing point records its error instead of
    voiding the scan.
    """
    rows = []
    for c in c_values:
        row = SweepRow(c=float(c), c_effective=float(c))
        try:
            spec = replace(model, epsilon=c, f1_value=1)
            row.c_effective = float(spec.mass_defect())
            row.alpha_predicted = spec.predicted_alpha()
            op_set = build_operator_set(spec, grid)
            report = witten_index(op_set, grid, params)
            row.delta = report.delta
            row.winding = report.winding
            row.lambda_min = report.eigenvalues_minus[0]
            if report.n_minus >= 1:
                row.alpha_fit = fit_gaussian_decay(report.minus_report.vectors[0]).alpha
        except Exception as exc:  # noqa: BLE001 - per-row capture is the contract
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


@dataclass
class ConvergenceRow:
    h: float
    n: int
    lambda0_error: float
    lambda1_error: float


@dataclass
class ConvergenceReport:
    """Observed discretization orders from a grid-refinement series."""

    rows: list[ConvergenceRow]
    order_smallest: float
    order_second: float
    monotone_smallest: bool
    monotone_second: bool

    def to_json_dict(self) -> dict:
        return json_payload(self)


def convergence_study(grids: Sequence[GridSpec],
                      model: ModelSpec = ModelSpec(),
                      params: IndexParams = IndexParams(k=3)) -> ConvergenceReport:
    """Fit eigenvalue errors of H_minus against h^p over a set of grids.

    The smallest eigenvalue is compared against 0 and the second against
    the unit gap.  Those are the levels of the unperturbed t = 1 oscillator
    only, so any other model raises ModelError.  Requires at least three
    distinct spacings.  Each grid's low spectrum is solved for
    max(params.k, 3) levels.
    """
    if model.t != 1 or model.mass_defect() != 0:
        raise ModelError(
            f"the convergence reference levels 0 and 1 hold only for the "
            f"unperturbed t = 1 model, got t = {model.t}, mass defect "
            f"{model.mass_defect()}")
    hs = [g.h for g in grids]
    if len(set(hs)) < 3:
        raise ValueError("need at least three grids with distinct spacings")
    rows = []
    for g in sorted(grids, key=lambda g: -g.h):
        op_set = build_operator_set(model, g)
        rep = low_spectrum(op_set.H_minus_mat, max(params.k, 3), grid=g,
                           matrix_id=f"H_minus[n={g.n}]", seed=params.seed)
        rows.append(ConvergenceRow(
            h=g.h, n=g.n,
            lambda0_error=abs(rep.eigenvalues[0] - 0.0),
            lambda1_error=abs(rep.eigenvalues[1] - 1.0)))

    def fitted_order(errors: list[float]) -> float:
        logs_h = np.log([r.h for r in rows])
        logs_e = np.log(np.maximum(errors, 1e-300))
        return float(np.polyfit(logs_h, logs_e, 1)[0])

    e0 = [r.lambda0_error for r in rows]
    e1 = [r.lambda1_error for r in rows]
    mono0 = all(a > b for a, b in zip(e0, e0[1:]))
    mono1 = all(a > b for a, b in zip(e1, e1[1:]))
    if not (mono0 and mono1):
        warnings.warn("eigenvalue errors do not decrease monotonically under "
                      "refinement; the fitted order may be unreliable",
                      UserWarning, stacklevel=2)
    return ConvergenceReport(rows=rows, order_smallest=fitted_order(e0),
                             order_second=fitted_order(e1),
                             monotone_smallest=mono0, monotone_second=mono1)


ALGEBRA_RELATIONS = ("Q^2", "Qdag^2", "{Q,Qdag}-H", "[W,H]", "{W,Q}",
                     "{W,Qdag}", "W^2-I")


@dataclass
class AlgebraReport:
    """Relative max-norm residuals of the N=2 algebra relations."""

    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_residual <= tol

    def to_json_dict(self) -> dict:
        return {**json_payload(self), "max_residual": self.max_residual}


def algebra_check(q: SusyQuartet) -> AlgebraReport:
    """Evaluate every algebra relation on the discrete quartet."""
    eye = sp.identity(q.dim, dtype=complex, format="csr")
    nq = max(max_abs(q.Q), 1e-300)
    nh = max(max_abs(q.Ham), 1e-300)
    residuals = {
        "Q^2": max_abs(q.Q @ q.Q) / nq ** 2,
        "Qdag^2": max_abs(q.Q_dag @ q.Q_dag) / nq ** 2,
        "{Q,Qdag}-H": max_abs(q.Q @ q.Q_dag + q.Q_dag @ q.Q - q.Ham) / max(nq ** 2, nh),
        "[W,H]": max_abs(q.W @ q.Ham - q.Ham @ q.W) / nh,
        "{W,Q}": max_abs(q.W @ q.Q + q.Q @ q.W) / nq,
        "{W,Qdag}": max_abs(q.W @ q.Q_dag + q.Q_dag @ q.W) / nq,
        "W^2-I": max_abs(q.W @ q.W - eye),
    }
    return AlgebraReport(residuals={k: float(v) for k, v in residuals.items()})
