"""Checks of each operation's answer, made apart from the program.

Every function returns a list of problems; an empty list means the answer
holds.  Expected values come from how the benchmark built its inputs (the
winding N of a block operator, the mass defect c of a vortex model) or from
properties the method must have (supersymmetric pairing, second-order
convergence, exact identities), never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Optional, Sequence

import jsonschema
import numpy as np

PAIRING_TOL = 0.03          # relative; partner levels differ by ~1 % at n = 96
OVERLAP_MIN = 0.999
ALPHA_FIT_TOL = 0.02        # relative, as in the acceptance suite
OSCILLATOR_TOL = 0.05
ORDER_RANGE = (1.7, 2.3)    # observed order per halving of h


def check_index_counts(report: dict, winding: int) -> list[str]:
    """delta = winding = N and the zero modes sit in one partner only."""
    problems = []
    n_minus, n_plus, delta = report["n_minus"], report["n_plus"], report["delta"]
    if delta != winding:
        problems.append(f"delta {delta} != N {winding}")
    if report["winding"] != winding:
        problems.append(f"winding {report['winding']} != N {winding}")
    if delta != n_minus - n_plus:
        problems.append(f"delta {delta} != n_minus - n_plus = {n_minus - n_plus}")
    expected = (winding, 0) if winding > 0 else (0, -winding)
    if (n_minus, n_plus) != expected:
        problems.append(f"(n_minus, n_plus) = {(n_minus, n_plus)}, expected {expected}")
    if report.get("ambiguous"):
        problems.append("an eigenvalue sits within 10 % of the gap threshold")
    return problems


def check_pairing(minus: Sequence[float], plus: Sequence[float], winding: int,
                  tol: float = PAIRING_TOL) -> list[str]:
    """Nonzero levels of the two partners match one to one.

    The |N| lowest levels of the partner that holds the kernel are dropped;
    every remaining level of either partner below the window top must find
    a distinct level of the other within ``tol`` (relative).  The window
    stops short of the highest computed level on either side, so a pair cut
    off by the eigensolver's k does not count as unmatched.
    """
    minus, plus = sorted(minus), sorted(plus)
    if winding > 0:
        minus = minus[winding:]
    else:
        plus = plus[-winding:]
    if not minus or not plus:
        return ["no nonzero levels to pair"]
    top = min(minus[-1], plus[-1]) * (1.0 - 2.0 * tol)
    problems = []
    for side, own, other in (("H_minus", minus, plus), ("H_plus", plus, minus)):
        free = list(other)
        for lam in (v for v in own if v < top):
            best = min(range(len(free)), key=lambda i: abs(free[i] - lam), default=None)
            if best is None or abs(free[best] - lam) > tol * max(1.0, lam):
                problems.append(f"{side} level {lam:.5f} has no partner")
            else:
                free.pop(best)
    if not any(v < top for v in minus):
        problems.append("pairing window is empty")
    return problems


def analytic_kernel(nodes: np.ndarray, alpha: float) -> np.ndarray:
    """The pair (alpha, 1) * exp(-alpha |z|^2) sampled component-major."""
    envelope = np.exp(-alpha * np.abs(nodes) ** 2)
    return np.concatenate([alpha * envelope, envelope]).astype(complex)


def kernel_overlap(mode: np.ndarray, nodes: np.ndarray, alpha: float) -> float:
    """|<mode, kernel>| / (|mode| |kernel|) on the grid."""
    kernel = analytic_kernel(nodes, alpha)
    return float(abs(np.vdot(kernel, mode))
                 / (np.linalg.norm(kernel) * np.linalg.norm(mode)))


def check_vortex_mode(mode: np.ndarray, nodes: np.ndarray, c: float,
                      alpha_fit: Optional[float]) -> list[str]:
    """The counted mode is the analytic kernel with alpha = sqrt(1 - c)."""
    alpha = math.sqrt(1.0 - c)
    problems = []
    overlap = kernel_overlap(mode, nodes, alpha)
    if not overlap >= OVERLAP_MIN:
        problems.append(f"kernel overlap {overlap:.6f} < {OVERLAP_MIN}")
    if alpha_fit is None or not abs(alpha_fit - alpha) <= ALPHA_FIT_TOL * alpha:
        problems.append(f"fitted decay rate {alpha_fit} is not {alpha:.5f} within 2 %")
    return problems


def check_oscillator(minus: Sequence[float], plus: Sequence[float]) -> list[str]:
    """At c = 0 the partners are shifted 2-D oscillators: {0,1,1} and {1,1}."""
    got_m, got_p = sorted(minus)[:3], sorted(plus)[:2]
    bad = any(abs(a - b) > OSCILLATOR_TOL for a, b in zip(got_m + got_p, [0, 1, 1, 1, 1]))
    if bad or len(got_m) < 3 or len(got_p) < 2:
        return [f"oscillator levels {got_m} / {got_p}, expected [0,1,1] / [1,1]"]
    return []


def check_schema(report: dict, schema: dict) -> list[str]:
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report does not validate: {exc.message}"]
    return []


def check_cli_status(exit_code: int, report: dict) -> list[str]:
    if exit_code != 0 or report.get("status") != "pass":
        return [f"CLI exit code {exit_code}, status {report.get('status')!r}"]
    return []


def check_side_file(path: Path, column: str, expected: Sequence[float]) -> list[str]:
    """A CSV side file carries the same numbers as the JSON report."""
    if not path.is_file():
        return [f"missing side file {path.name}"]
    with open(path, newline="") as fh:
        got = [float(row[column]) for row in csv.DictReader(fh)]
    if got != [float(v) for v in expected]:
        return [f"{path.name} column {column} disagrees with the report"]
    return []


def check_convergence_rows(rows: Sequence[dict], n_values: Sequence[int],
                           L: float) -> list[str]:
    """Errors of lambda0 -> 0 and lambda1 -> 1 shrink ~4x per halving of h."""
    problems = []
    if [r["n"] for r in rows] != list(n_values):
        return [f"rows cover n = {[r['n'] for r in rows]}, expected {list(n_values)}"]
    for r in rows:
        if not math.isclose(r["h"], 2.0 * L / (r["n"] - 1), rel_tol=1e-12):
            problems.append(f"row n={r['n']} has h={r['h']}")
    lo, hi = ORDER_RANGE
    for key in ("lambda0_error", "lambda1_error"):
        for coarse, fine in zip(rows, rows[1:]):
            ratio = coarse[key] / fine[key] if fine[key] > 0 else math.inf
            order = math.log(ratio, coarse["h"] / fine["h"]) if ratio > 0 else -math.inf
            if not lo <= order <= hi:
                problems.append(f"{key} n={coarse['n']}->{fine['n']}: shrinks "
                                f"{ratio:.3f}x (order {order:.3f}), expected ~4x")
    return problems


def check_identities(pairs: dict) -> list[str]:
    """Each (left, right) pair must be exactly equal."""
    return [f"identity {name} broken" for name, (left, right) in pairs.items()
            if left != right]
