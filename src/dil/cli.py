"""Configuration-driven command line front end.

Reads a flat-key config file (``section.key = value`` lines, JSON-style
values, ``#`` comment lines), applies ``DIL_``-prefixed environment
overrides, runs one subcommand, and emits a JSON run report.  Exit codes:
0 the run's pass criterion held, 1 it failed, 2 configuration problem,
3 eigensolver failure (no convergence, or a refused factorization).

With ``--out`` the JSON report is written to the given path and delimited
side files (sweep rows, spectra, exported modes) are placed next to it;
without ``--out`` the report goes to stdout.  ``--serial`` pins the report
bytes: timings are nulled so identical config + seed reproduce the file
bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

from . import __version__
from .analysis import (ConvergenceRow, SweepRow, algebra_check, convergence_study,
                       fit_gaussian_decay, perturbation_sweep)
from .errors import ConfigError, DilError, ModelError, SolverError
from .lattice import GridSpec, field_to_csv, write_csv
from .opcalc import render_expression
from .spectral import (EigenReport, IndexParams, WittenIndexReport, winding_number,
                       witten_index)
from .susy import ModelSpec, build_operator_set, build_susy_quartet
from . import selftest

ENV_PREFIX = "DIL_"

def _parse_number(x: Any, key: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{key}: expected a finite number, got an integer "
                          f"too large for a double") from None


def _parse_int(x: Any, key: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{key}: expected an integer, got {x!r}")
    return x


def _parse_number_list(x: Any, key: str) -> list[float]:
    if not isinstance(x, list):
        raise ConfigError(f"{key}: expected a list, got {x!r}")
    return [_parse_number(v, key) for v in x]


def _key(default: Any, parse: Callable[[Any, str], Any],
         rule: Optional[tuple] = None) -> Any:
    """One config key: its default, its parser and an optional (check, text)
    rule on the parsed value."""
    meta = {"parse": parse, "rule": rule}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration with every module constraint checked.

    The fields are the config keys: field ``a_b`` is key ``a.b``.
    """

    grid_L: float = _key(5.0, _parse_number, _POSITIVE)
    grid_n: int = _key(96, _parse_int, (lambda v: v >= 8, "must be at least 8"))
    model_t: float = _key(1.0, _parse_number)
    model_epsilon: float = _key(0.0, _parse_number)
    model_f1: float = _key(1.0, _parse_number)
    model_f1_series: list[float] = _key([], _parse_number_list)
    solver_k: int = _key(8, _parse_int, _AT_LEAST_ONE)
    sweep_c_values: list[float] = _key([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], _parse_number_list, (
        lambda v: all(c < 1 for c in v), "must all be below 1"))
    convergence_n_values: list[float] = _key([49, 97, 193], _parse_number_list, (
        lambda v: len(v) >= 3 and all(int(n) == n and n >= 8 for n in v),
        "needs at least three grid sizes, all integers >= 8"))
    seed: int = _key(0, _parse_int)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_L, self.grid_n)

    def model(self) -> ModelSpec:
        return ModelSpec(t=self.model_t, epsilon=self.model_epsilon,
                         f1_value=self.model_f1,
                         f1_series=tuple(self.model_f1_series))

    def index_params(self) -> IndexParams:
        return IndexParams(k=self.solver_k, seed=self.seed)

    def to_flat_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, f in CONFIG_KEYS.items():
            value = getattr(self, f.name)
            out[key] = list(value) if isinstance(value, list) else value
        return out


CONFIG_KEYS: dict[str, Field] = {f.name.replace("_", ".", 1): f
                                 for f in fields(ExperimentConfig)}


def _read_flat_file(path: Path) -> dict[str, Any]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, Any] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: value for {key!r} is not valid JSON: {value!r}") from exc
    return out


def _env_overrides() -> dict[str, Any]:
    """DIL_GRID_N=128 style overrides; names map onto config keys."""
    by_env = {ENV_PREFIX + k.upper().replace(".", "_"): k for k in CONFIG_KEYS}
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

    unknown = [k for k in flat if k not in CONFIG_KEYS]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    cfg = ExperimentConfig(**{CONFIG_KEYS[k].name: CONFIG_KEYS[k].metadata["parse"](v, k)
                              for k, v in flat.items()})
    if seed_flag is not None:
        cfg.seed = seed_flag

    # errors carry the config key, not the module that would reject the value
    for key, f in CONFIG_KEYS.items():
        value, rule = getattr(cfg, f.name), f.metadata["rule"]
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{key} {rule[1]}, got {value!r}")
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


def _csv(header: list[str], rows: list[dict]) -> Callable[[Path], None]:
    """Side-file writer: a header line, then the header's values of each row dict."""
    return lambda path: write_csv(path, header, ([row[k] for k in header] for row in rows))


def _spectrum_writer(rep: EigenReport) -> Callable[[Path], None]:
    return _csv(["index", "eigenvalue", "residual"],
                [{"index": i, "eigenvalue": lam, "residual": res}
                 for i, (lam, res) in enumerate(zip(rep.eigenvalues, rep.residuals))])


def _index_passed(report: WittenIndexReport) -> bool:
    """The index's pass criterion: it agrees with the winding, where there is
    one, and no eigenvalue sits near the counting threshold."""
    return report.winding_matches is not False and not report.ambiguous


def _run_index(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    op_set = build_operator_set(cfg.model(), cfg.grid())
    report = witten_index(op_set, cfg.grid(), cfg.index_params())
    passed = _index_passed(report)
    side: SideFiles = [("spectrum_minus.csv", _spectrum_writer(report.minus_report)),
                       ("spectrum_plus.csv", _spectrum_writer(report.plus_report))]
    return report.to_json_dict(), passed, side


def _run_zero_modes(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    """The H_minus modes of the index census, each with its decay fit."""
    grid = cfg.grid()
    model = cfg.model()
    report = witten_index(build_operator_set(model, grid), grid, cfg.index_params())
    rep = report.minus_report
    fractions = report.localization_fractions["minus"]
    results: dict[str, Any] = {
        "count": report.n_minus,
        "gap_threshold": report.gap_threshold,
        "loc_radius": report.loc_radius,
        "loc_min": report.loc_min,
        "eigenvalues": rep.eigenvalues,
        "residuals": rep.residuals,
        "modes": [],
    }
    side: SideFiles = [("spectrum_minus.csv", _spectrum_writer(rep))]
    # eigenvalues ascend, so the census's sub-gap fractions are those of the
    # leading eigenpairs
    for i, (lam, vec, frac) in enumerate(zip(rep.eigenvalues, rep.vectors, fractions)):
        fit = fit_gaussian_decay(vec)
        results["modes"].append({
            "eigenvalue": lam,
            "localization_fraction": frac,
            "alpha_fit": fit.alpha,
            "alpha_predicted": model.predicted_alpha(),
            "fit_r_squared": fit.r_squared,
        })
        side.append((f"mode{i}.csv", lambda p, v=vec: field_to_csv(v, p)))
    # the index's criterion, and every listed sub-gap mode counted as localized
    passed = _index_passed(report) and all(f >= report.loc_min for f in fractions)
    return results, passed, side


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    rows = perturbation_sweep(cfg.sweep_c_values, cfg.grid(),
                              f1_series=cfg.model_f1_series,
                              params=cfg.index_params())
    ok = all(r.error is None and r.delta is not None and r.delta == r.winding
             for r in rows)
    results = {"rows": [r.to_json_dict() for r in rows]}
    header = [f.name for f in fields(SweepRow)]
    return results, ok, [("sweep.csv", _csv(header, results["rows"]))]


def _run_convergence(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    grids = [GridSpec(cfg.grid_L, int(n)) for n in cfg.convergence_n_values]
    report = convergence_study(grids, cfg.model(),
                               IndexParams(k=max(3, cfg.solver_k), seed=cfg.seed))
    ok = 1.7 <= report.order_second <= 2.3 and report.monotone_smallest
    results = report.to_json_dict()
    header = [f.name for f in fields(ConvergenceRow)]
    return results, ok, [("convergence.csv", _csv(header, results["rows"]))]


def _run_winding(cfg: ExperimentConfig) -> tuple[dict, bool, SideFiles]:
    """Winding of the mass entry around the grid's contour |z| = L, the
    contour of the index cross-check."""
    op_set = build_operator_set(cfg.model(), cfg.grid())
    results = {
        "winding": winding_number(op_set.mass_entry, cfg.grid_L),
        "radius": cfg.grid_L,
        "mass_entry": render_expression(op_set.mass_entry),
    }
    return results, True, []


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
    parser.add_argument("subcommand", choices=list(_HANDLERS))
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
        t0 = time.perf_counter()
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
        "schema_version": 5,
        "package_version": __version__,
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
