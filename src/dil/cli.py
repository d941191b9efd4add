"""Configuration-driven command line front end.

Reads a flat-key config file (``section.key = value`` lines, JSON-style
values, ``#`` comment lines), applies ``DIL_``-prefixed environment
overrides, runs one subcommand, and emits a JSON run report.  Exit codes:
0 the run's pass criterion held, 1 it failed, 2 configuration problem,
3 eigensolver non-convergence.

With ``--out`` the JSON report is written to the given path and delimited
side files (sweep rows, spectra, exported modes) are placed next to it;
without ``--out`` the report goes to stdout.  ``--serial`` pins the report
bytes: timings are nulled so identical config + seed reproduce the file
bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from . import __version__, module_versions
from .analysis import (CONVERGENCE_CSV_HEADER, SWEEP_CSV_HEADER, algebra_check,
                       convergence_study, fit_gaussian_decay,
                       perturbation_sweep, sweep_row_values)
from .errors import ConfigError, DilError, ModelError, SolverError
from .lattice import GridSpec, field_to_csv
from .opcalc import render_block
from .spectral import (IndexParams, count_zero_modes, low_spectrum,
                       winding_number, witten_index)
from .susy import ModelSpec, build_operator_set, build_susy_quartet
from . import selftest

ENV_PREFIX = "DIL_"

SUBCOMMANDS = ("algebra-check", "index", "zero-modes", "sweep", "convergence",
               "winding", "opcalc-selftest")


def _parse_number(x: Any, key: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {x!r}")
    return float(x)


def _parse_int(x: Any, key: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{key}: expected an integer, got {x!r}")
    return x


def _parse_number_list(x: Any, key: str) -> list[float]:
    if not isinstance(x, list):
        raise ConfigError(f"{key}: expected a list, got {x!r}")
    return [_parse_number(v, key) for v in x]


def _parse_auto_or_number(x: Any, key: str) -> Optional[float]:
    if x == "auto" or x is None:
        return None
    return _parse_number(x, key)


def _parse_optional_int(x: Any, key: str) -> Optional[int]:
    if x is None:
        return None
    return _parse_int(x, key)


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration with every module constraint checked."""

    grid_L: float = 5.0
    grid_n: int = 96
    model_t: float = 1.0
    model_epsilon: float = 0.0
    model_f1: float = 1.0
    model_f1_series: list[float] = field(default_factory=list)
    model_f2: float = 0.0
    solver_tol: float = 0.0
    solver_k: int = 8
    solver_maxiter: Optional[int] = None
    index_gap_threshold: Optional[float] = None
    index_loc_radius: Optional[float] = None
    index_loc_min: float = 0.95
    sweep_c_values: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    convergence_n_values: list[float] = field(default_factory=lambda: [49, 97, 193])
    winding_radius: float = 1.0
    winding_samples: int = 256
    seed: int = 0

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_L, self.grid_n)

    def model(self) -> ModelSpec:
        return ModelSpec(t=self.model_t, epsilon=self.model_epsilon,
                         f1_value=self.model_f1,
                         f1_series=tuple(self.model_f1_series),
                         f2_value=self.model_f2)

    def index_params(self) -> IndexParams:
        return IndexParams(k=self.solver_k, tol=self.solver_tol, seed=self.seed,
                           maxiter=self.solver_maxiter,
                           gap_threshold=self.index_gap_threshold,
                           loc_radius=self.index_loc_radius,
                           loc_min=self.index_loc_min,
                           winding_radius=self.winding_radius,
                           winding_samples=self.winding_samples)

    def to_flat_dict(self) -> dict[str, Any]:
        return {
            "grid.L": self.grid_L,
            "grid.n": self.grid_n,
            "model.t": self.model_t,
            "model.epsilon": self.model_epsilon,
            "model.f1": self.model_f1,
            "model.f1_series": list(self.model_f1_series),
            "model.f2": self.model_f2,
            "solver.tol": self.solver_tol,
            "solver.k": self.solver_k,
            "solver.maxiter": self.solver_maxiter,
            "index.gap_threshold": "auto" if self.index_gap_threshold is None else self.index_gap_threshold,
            "index.loc_radius": "auto" if self.index_loc_radius is None else self.index_loc_radius,
            "index.loc_min": self.index_loc_min,
            "sweep.c_values": list(self.sweep_c_values),
            "convergence.n_values": list(self.convergence_n_values),
            "winding.radius": self.winding_radius,
            "winding.samples": self.winding_samples,
            "seed": self.seed,
        }


_KEY_SETTERS: dict[str, tuple[str, Callable[[Any, str], Any]]] = {
    "grid.L": ("grid_L", _parse_number),
    "grid.n": ("grid_n", _parse_int),
    "model.t": ("model_t", _parse_number),
    "model.epsilon": ("model_epsilon", _parse_number),
    "model.f1": ("model_f1", _parse_number),
    "model.f1_series": ("model_f1_series", _parse_number_list),
    "model.f2": ("model_f2", _parse_number),
    "solver.tol": ("solver_tol", _parse_number),
    "solver.k": ("solver_k", _parse_int),
    "solver.maxiter": ("solver_maxiter", _parse_optional_int),
    "index.gap_threshold": ("index_gap_threshold", _parse_auto_or_number),
    "index.loc_radius": ("index_loc_radius", _parse_auto_or_number),
    "index.loc_min": ("index_loc_min", _parse_number),
    "sweep.c_values": ("sweep_c_values", _parse_number_list),
    "convergence.n_values": ("convergence_n_values", _parse_number_list),
    "winding.radius": ("winding_radius", _parse_number),
    "winding.samples": ("winding_samples", _parse_int),
    "seed": ("seed", _parse_int),
}


def _read_flat_file(path: Path) -> dict[str, Any]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: value for {key!r} is not valid JSON: {value!r}") from exc
    return out


def _env_overrides() -> dict[str, Any]:
    """DIL_GRID_N=128 style overrides; names map onto config keys."""
    by_env = {ENV_PREFIX + k.upper().replace(".", "_"): k for k in _KEY_SETTERS}
    out: dict[str, Any] = {}
    for name, raw in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = by_env.get(name)
        if key is None:
            raise ConfigError(f"unknown environment override {name}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name}: not valid JSON: {raw!r}") from exc
    return out


def load_config(path: Optional[str], seed_flag: Optional[int] = None) -> ExperimentConfig:
    """Parse, override, and validate the experiment configuration."""
    flat: dict[str, Any] = {}
    if path is not None:
        flat.update(_read_flat_file(Path(path)))
    flat.update(_env_overrides())

    cfg = ExperimentConfig()
    unknown = [k for k in flat if k not in _KEY_SETTERS]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    for key, value in flat.items():
        attr, caster = _KEY_SETTERS[key]
        setattr(cfg, attr, caster(value, key))
    if seed_flag is not None:
        cfg.seed = seed_flag

    # re-validate every module constraint here so errors carry the config key
    if cfg.grid_L <= 0:
        raise ConfigError(f"grid.L must be positive, got {cfg.grid_L}")
    if cfg.grid_n < 8:
        raise ConfigError(f"grid.n must be at least 8, got {cfg.grid_n}")
    if cfg.solver_tol < 0:
        raise ConfigError(f"solver.tol must be non-negative (0 = machine precision), "
                          f"got {cfg.solver_tol}")
    if cfg.solver_k < 1:
        raise ConfigError(f"solver.k must be at least 1, got {cfg.solver_k}")
    if cfg.solver_maxiter is not None and cfg.solver_maxiter < 1:
        raise ConfigError(f"solver.maxiter must be at least 1, got {cfg.solver_maxiter}")
    if cfg.index_gap_threshold is not None and cfg.index_gap_threshold <= 0:
        raise ConfigError(f"index.gap_threshold must be positive or 'auto', "
                          f"got {cfg.index_gap_threshold}")
    if cfg.index_loc_radius is not None and not (
            0 < cfg.index_loc_radius <= cfg.grid_L):
        raise ConfigError(f"index.loc_radius must lie in (0, grid.L] or be "
                          f"'auto', got {cfg.index_loc_radius}")
    if not 0 < cfg.index_loc_min <= 1:
        raise ConfigError(f"index.loc_min must lie in (0, 1], got {cfg.index_loc_min}")
    if any(c >= 1 for c in cfg.sweep_c_values):
        raise ConfigError("sweep.c_values must all be below 1")
    if len(cfg.convergence_n_values) < 3:
        raise ConfigError("convergence.n_values needs at least three grid sizes")
    if any(int(n) != n or n < 8 for n in cfg.convergence_n_values):
        raise ConfigError("convergence.n_values must be integers >= 8")
    if cfg.winding_radius <= 0:
        raise ConfigError(f"winding.radius must be positive, got {cfg.winding_radius}")
    if cfg.winding_samples < 64:
        raise ConfigError(f"winding.samples must be at least 64, got {cfg.winding_samples}")
    try:
        cfg.model()
    except ModelError as exc:
        raise ConfigError(f"model.*: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (results dict, passed, side files)
# ---------------------------------------------------------------------------

SideFiles = list[tuple[str, Callable[[Path], None]]]


def _run_algebra_check(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    op_set = build_operator_set(cfg.model(), cfg.grid())
    quartet = build_susy_quartet(op_set.D_mat)
    report = algebra_check(quartet)
    results = report.to_json_dict()
    results["tolerance"] = 1e-12
    return results, report.passed(1e-12), []


def _run_index(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    op_set = build_operator_set(cfg.model(), cfg.grid())
    report = witten_index(op_set, cfg.grid(), cfg.index_params())
    passed = report.winding_matches is not False and not report.ambiguous

    def write_minus(path: Path) -> None:
        _spectrum_csv(path, report.eigenvalues_minus, report.minus_report.residuals)

    def write_plus(path: Path) -> None:
        _spectrum_csv(path, report.eigenvalues_plus, report.plus_report.residuals)

    side: SideFiles = [("spectrum_minus.csv", write_minus),
                       ("spectrum_plus.csv", write_plus)]
    return report.to_json_dict(), passed, side


def _spectrum_csv(path: Path, eigenvalues: list[float], residuals: list[float]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "eigenvalue", "residual"])
        for i, (lam, res) in enumerate(zip(eigenvalues, residuals)):
            w.writerow([i, repr(lam), repr(res)])


def _run_zero_modes(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    grid = cfg.grid()
    op_set = build_operator_set(cfg.model(), grid)
    params = cfg.index_params()
    rep = low_spectrum(op_set.H_minus_mat, params.k, params.tol, grid=grid,
                       matrix_id="H_minus", seed=params.seed,
                       maxiter=params.maxiter)
    gap = params.gap_threshold if params.gap_threshold is not None else 0.5
    loc_radius = params.loc_radius if params.loc_radius is not None else grid.L / 2
    count = count_zero_modes(rep, grid, gap, loc_radius, params.loc_min)
    results: dict[str, Any] = {
        "count": count,
        "gap_threshold": gap,
        "loc_radius": loc_radius,
        "loc_min": params.loc_min,
        "eigenvalues": rep.eigenvalues,
        "residuals": rep.residuals,
        "modes": [],
    }
    side: SideFiles = [("spectrum_minus.csv",
                        lambda p: _spectrum_csv(p, rep.eigenvalues, rep.residuals))]
    ok = True
    from .lattice import localization_fraction  # local import avoids cycle at top
    for i, (lam, vec) in enumerate(zip(rep.eigenvalues, rep.vectors)):
        if lam >= gap:
            continue
        frac = localization_fraction(vec, loc_radius)
        fit = fit_gaussian_decay(vec)
        results["modes"].append({
            "eigenvalue": lam,
            "localization_fraction": frac,
            "alpha_fit": fit.alpha,
            "alpha_predicted": cfg.model().predicted_alpha(),
            "fit_r_squared": fit.r_squared,
        })
        ok = ok and frac >= params.loc_min
        side.append((f"mode{i}.csv", lambda p, v=vec: field_to_csv(v, p)))
    return results, ok, side


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    rows = perturbation_sweep(cfg.sweep_c_values, cfg.grid(),
                              f1_series=cfg.model_f1_series,
                              params=cfg.index_params())
    ok = all(r.error is None and r.delta is not None and r.delta == r.winding
             for r in rows)
    results = {"rows": [r.to_json_dict() for r in rows]}

    def write_rows(path: Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SWEEP_CSV_HEADER)
            for r in rows:
                w.writerow(sweep_row_values(r))

    return results, ok, [("sweep.csv", write_rows)]


def _run_convergence(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    grids = [GridSpec(cfg.grid_L, int(n)) for n in cfg.convergence_n_values]
    report = convergence_study(grids, cfg.model(),
                               IndexParams(k=max(3, cfg.solver_k), tol=cfg.solver_tol,
                                           seed=cfg.seed, maxiter=cfg.solver_maxiter))
    ok = 1.7 <= report.order_second <= 2.3 and report.monotone_smallest

    def write_rows(path: Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CONVERGENCE_CSV_HEADER)
            for r in report.rows:
                w.writerow([repr(r.h), r.n, repr(r.lambda0_error), repr(r.lambda1_error)])

    return report.to_json_dict(), ok, [("convergence.csv", write_rows)]


def _run_winding(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    op_set = build_operator_set(cfg.model(), cfg.grid())
    w1 = winding_number(op_set.mass_entry, cfg.winding_radius, cfg.winding_samples)
    w2 = winding_number(op_set.mass_entry, cfg.winding_radius, 2 * cfg.winding_samples)
    results = {
        "winding": w1,
        "winding_refined": w2,
        "radius": cfg.winding_radius,
        "samples": cfg.winding_samples,
        "mass_entry": render_block(op_set.D)[1][0],
    }
    return results, w1 == w2, []


def _run_opcalc_selftest(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    report = selftest.run_selftest(seed=cfg.seed)
    return report, bool(report["all_passed"]), []


_HANDLERS = {
    "algebra-check": _run_algebra_check,
    "index": _run_index,
    "zero-modes": _run_zero_modes,
    "sweep": _run_sweep,
    "convergence": _run_convergence,
    "winding": _run_winding,
    "opcalc-selftest": _run_opcalc_selftest,
}


def _emit(report: dict, out: Optional[str], side: SideFiles) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text + "\n")
    stem = out_path.name[:-5] if out_path.name.endswith(".json") else out_path.name
    for suffix, writer in side:
        writer(out_path.parent / f"{stem}_{suffix}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dil",
        description="Defect operator toolkit: SUSY algebra checks, zero-mode "
                    "counting, and Witten index computation.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat-key config file")
    parser.add_argument("--out", help="write the JSON report to this path "
                        "(delimited side files go next to it)")
    parser.add_argument("--serial", action="store_true",
                        help="null the timings so that identical config and "
                        "seed give identical report bytes")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_flag=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        results, passed, side = _HANDLERS[args.subcommand](cfg)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

    report = {
        "schema_version": 1,
        "package_version": __version__,
        "module_versions": module_versions(),
        "subcommand": args.subcommand,
        "seed": cfg.seed,
        "serial": bool(args.serial),
        "config": cfg.to_flat_dict(),
        "results": results,
        "status": "pass" if passed else "fail",
        "timings": None if args.serial else {"total_seconds": elapsed},
    }
    _emit(report, args.out, side)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
