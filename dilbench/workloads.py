"""The three workloads: how each one's inputs are drawn and checked.

A workload hands out passes: lists of operations with the same make-up in
every pass, so that the share of failed operations is the same in every run
however long it is.  Inputs come only from the seed.  Every call into
``dil`` goes through a module attribute looked up at call time, so a span
wrapper installed by the tracer sees it.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import checks

DESK_L, DESK_N, DESK_K = 5.0, 96, 8
REFINE_N_VALUES = (49, 97, 193)
REFINE_K = 3
# Real multipliers m = k/20 of the block operators, k in 12..80.  Every k in
# 10..80 was run for each family (README): k = 10 and 11 meet the gap
# calibration fault, which the fixed m = 1/2 request of every pass measures.
MULTIPLIER_TWENTIETHS = (12, 80)


@dataclass
class Operation:
    """One request: ``run`` is timed, ``check`` is not.

    ``known_fault`` is, for a request that a fault of the program gets wrong
    today, the exact list of problems its check reports for that fault.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known_fault: Optional[list[str]] = None


class Tally:
    """Attempted and failed operations, and whether the answers hold.

    An operation fails when it raises or its check finds a problem.  Only a
    failure whose problems are exactly the operation's known fault keeps
    ``correct`` true; any other problem on that request, an exception
    included, is a failure like any other.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            known = problems == op.known_fault
            if not known:
                self.correct = False
            tag = "known fault" if known else "FAILED"
            print(f"dilbench: {op.kind}: {tag}: {'; '.join(problems)}", file=sys.stderr)


def execute(op, tracer=None):
    """Run one operation; return (seconds, result, error).

    ``error`` is None, or the exception's last line when it raised: an
    exception fails this operation, not the run.
    """
    t0 = time.perf_counter()
    try:
        result = tracer.span(op.kind, op.run) if tracer else op.run()
    except Exception:  # noqa: BLE001 - any error is this operation's failure
        return time.perf_counter() - t0, None, _last_line()
    return time.perf_counter() - t0, result, None


def verify(op, result, error) -> list[str]:
    """Problems with an operation's answer; empty when it holds."""
    if error is not None:
        return [f"raised {error}"]
    try:
        return op.check(result)
    except Exception:  # noqa: BLE001 - an answer the check cannot read is wrong
        return [f"check raised {_last_line()}"]


def _last_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


class Workload:
    name = ""

    def __init__(self, dil, seed: int, workdir: Path):
        self.dil = dil
        self.rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir
        self.schema = json.loads(
            (Path(dil.__file__).parent / "schemas" / "run_report.schema.json").read_text())

    def warmup(self) -> Operation:
        raise NotImplementedError

    def next_pass(self) -> list[Operation]:
        raise NotImplementedError

    def _config(self, stem: str, lines: list[str]) -> Path:
        path = self.workdir / f"{stem}.cfg"
        path.write_text("".join(line + "\n" for line in lines))
        return path


def _twentieths(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(*MULTIPLIER_TWENTIETHS), 20)


class Desk(Workload):
    """Witten-index requests on the desk grid (L = 5, n = 96, k = 8).

    A pass holds six requests: the unperturbed vortex and a perturbed one
    through the CLI (each followed by the decay fit of its zero mode), a
    real anti-vortex, a real |N| = 2 operator, and two fixed anti-vortices
    that the gap calibration gets wrong today, m = 1+2i and m = 1/2, which
    are counted failed as long as they fail in exactly that way.
    """

    name = "desk"

    def __init__(self, dil, seed: int, workdir: Path):
        super().__init__(dil, seed, workdir)
        self.grid = dil.GridSpec(DESK_L, DESK_N)
        self.nodes = self.grid.nodes()
        self.captured: list = []
        self._install_capture()
        self._count = 0

    def _install_capture(self) -> None:
        # the CLI report carries no eigenvectors; keep the library report
        cli = self.dil.cli
        inner = cli.witten_index

        def capture(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.captured.append(report)
            return report

        cli.witten_index = capture

    def warmup(self) -> Operation:
        return self._vortex(self._draw_defect())

    def next_pass(self) -> list[Operation]:
        rng, crat = self.rng, self.dil.opcalc.crat
        sign = rng.choice((1, -1))
        return [
            self._vortex((Fraction(0), ())),
            self._vortex(self._draw_defect()),
            self._block("anti-vortex", crat(_twentieths(rng)), 1, -1),
            self._block(f"N={2 * sign:+d}", crat(_twentieths(rng)), 2, 2 * sign),
            # the zero mode of H_plus sets the gap: no mode counted
            self._block("anti-vortex", crat(1, 2), 1, -1,
                        fault={"delta": 0, "winding": -1, "n_minus": 0, "n_plus": 0}),
            # fallback gap 0.5 counts the paired excited level at 0.456
            self._block("anti-vortex", crat(Fraction(1, 2)), 1, -1,
                        fault={"delta": -1, "winding": -1, "n_minus": 1, "n_plus": 2,
                               "ambiguous": True}),
        ]

    def _draw_defect(self) -> tuple[Fraction, tuple[Fraction, ...]]:
        # c = eps + eps^2 * s stays in [0, 0.6)
        rng = self.rng
        eps = Fraction(rng.randrange(0, 5000), 10000)
        series = (Fraction(rng.randrange(0, 4001), 10000),) if rng.random() < 0.5 else ()
        return eps, series

    def _vortex(self, defect) -> Operation:
        eps, series = defect
        c = float(eps) + sum(float(s) * float(eps) ** (k + 2) for k, s in enumerate(series))
        start_seed = self.rng.randrange(2 ** 31)
        # a pass draws both vortex requests before either runs: two file sets
        self._count += 1
        stem = f"index{self._count % 2}"
        config = self._config(stem, [
            f"grid.L = {DESK_L}", f"grid.n = {DESK_N}", f"solver.k = {DESK_K}",
            f"model.epsilon = {float(eps)!r}",
            f"model.f1_series = {json.dumps([float(s) for s in series])}",
        ])
        out = self.workdir / f"{stem}.json"
        dil = self.dil

        def run():
            self.captured.clear()
            code = dil.cli.main(["index", "--config", str(config), "--out", str(out),
                                 "--seed", str(start_seed)])
            report = self.captured[-1]
            fit = (dil.analysis.fit_gaussian_decay(report.minus_report.vectors[0])
                   if report.n_minus >= 1 else None)
            return code, report, fit

        def check(result) -> list[str]:
            code, report, fit = result
            data = json.loads(out.read_text())
            problems = checks.check_cli_status(code, data) + checks.check_schema(data, self.schema)
            res = data["results"]
            problems += checks.check_index_counts(res, 1)
            problems += checks.check_pairing(res["eigenvalues_minus"], res["eigenvalues_plus"], 1)
            problems += checks.check_vortex_mode(report.minus_report.vectors[0].values,
                                                 self.nodes, c,
                                                 fit.alpha if fit is not None else None)
            if c == 0.0:
                problems += checks.check_oscillator(res["eigenvalues_minus"],
                                                    res["eigenvalues_plus"])
            for side in ("minus", "plus"):
                problems += checks.check_side_file(
                    self.workdir / f"{stem}_spectrum_{side}.csv", "eigenvalue",
                    res[f"eigenvalues_{side}"])
            return problems

        return Operation(f"vortex(c={c:.4f})", run, check)

    def _block(self, kind: str, m, degree: int, winding: int,
               fault: Optional[dict] = None) -> Operation:
        """[[d, m*w], [v, db]] with lower-left v = z^N (N > 0) or zb^|N|.

        ``fault`` holds the index fields a known fault reports instead of
        the right ones; only the problems they give are excused.
        """
        opcalc = self.dil.opcalc
        hol = opcalc.monomial(1, pow_z=degree)
        anti = opcalc.monomial(1, pow_zbar=degree)
        lower, upper = (hol, anti) if winding > 0 else (anti, hol)
        block = opcalc.BlockOperator.from_rows([[opcalc.D, upper.scale(m)],
                                                [lower, opcalc.DBAR]])
        params = self.dil.IndexParams(k=DESK_K, seed=self.rng.randrange(2 ** 31))
        dil, grid = self.dil, self.grid

        def run():
            op_set = dil.susy.operator_set_from_block(block, grid)
            return dil.spectral.witten_index(op_set, grid, params)

        def check(report) -> list[str]:
            res = report.to_json_dict()
            return (checks.check_index_counts(res, winding)
                    + checks.check_pairing(res["eigenvalues_minus"],
                                           res["eigenvalues_plus"], winding))

        known = checks.check_index_counts(fault, winding) if fault else None
        return Operation(f"{kind}(m={m})", run, check, known)


class Refine(Workload):
    """``dil convergence``: n in {49, 97, 193}, k = 3, unperturbed model."""

    name = "refine"

    def warmup(self) -> Operation:
        return self._convergence()

    def next_pass(self) -> list[Operation]:
        # two studies per pass, so that every run times at least two
        return [self._convergence(), self._convergence()]

    def _convergence(self) -> Operation:
        config = self._config("convergence", [
            f"grid.L = {DESK_L}", f"solver.k = {REFINE_K}",
            f"convergence.n_values = {json.dumps(list(REFINE_N_VALUES))}",
        ])
        out = self.workdir / "convergence.json"
        dil = self.dil

        def run():
            return dil.cli.main(["convergence", "--config", str(config), "--out", str(out),
                                 "--seed", str(self.seed)])

        def check(code) -> list[str]:
            data = json.loads(out.read_text())
            problems = checks.check_cli_status(code, data) + checks.check_schema(data, self.schema)
            rows = data["results"]["rows"]
            problems += checks.check_convergence_rows(rows, REFINE_N_VALUES, DESK_L)
            problems += checks.check_side_file(
                self.workdir / "convergence_convergence.csv", "lambda1_error",
                [r["lambda1_error"] for r in rows])
            return problems

        return Operation("convergence", run, check)


class Exact(Workload):
    """Exact identities on seeded random 2x2 Wirtinger block triples."""

    name = "exact"
    TERMS, MAX_POW = 3, 2

    def warmup(self) -> Operation:
        return self._triple()

    def next_pass(self) -> list[Operation]:
        return [self._triple()]

    def _coeff(self):
        rng = self.rng
        return self.dil.opcalc.crat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def _expression(self):
        opcalc, rng = self.dil.opcalc, self.rng
        return opcalc.OperatorExpression.from_terms(
            opcalc.OperatorTerm(self._coeff(), *(rng.randint(0, self.MAX_POW) for _ in range(4)))
            for _ in range(self.TERMS))

    def _block(self):
        return self.dil.opcalc.BlockOperator.from_rows(
            [[self._expression() for _ in range(2)] for _ in range(2)])

    def _gaussian(self, alpha: Fraction):
        rng = self.rng
        poly = {(rng.randint(0, 2), rng.randint(0, 2)): self._coeff() for _ in range(3)}
        poly[(0, 0)] = self.dil.opcalc.crat(1)
        return self.dil.opcalc.gaussian(alpha, poly)

    def _triple(self) -> Operation:
        rng = self.rng
        a, b, c = self._block(), self._block(), self._block()
        e1, e2 = self._expression(), self._expression()
        alpha_f = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        f, g = self._gaussian(alpha_f), self._gaussian(alpha_f)
        q = rng.randint(2, 9)
        alpha = Fraction(rng.randint(1, q), q)      # rational, alpha^2 = 1 - c
        defect = 1 - alpha * alpha
        dil = self.dil

        def run() -> dict:
            o = dil.opcalc
            ab = o.compose(a, b)
            pairs = {
                "adjoint_involution": (o.adjoint(o.adjoint(a)), a),
                "adjoint_anti_multiplicative": (o.adjoint(ab),
                                                o.compose(o.adjoint(b), o.adjoint(a))),
                "compose_associative": (o.compose(ab, c), o.compose(a, o.compose(b, c))),
                "gaussian_linear": (o.gaussian_apply(e1, f + g),
                                    o.gaussian_apply(e1, f) + o.gaussian_apply(e1, g)),
                "gaussian_chain_rule": (o.gaussian_apply(e1 * e2, f),
                                        o.gaussian_apply(e1, o.gaussian_apply(e2, f))),
            }
            for i, e in enumerate(ab.entries):
                pairs[f"render_round_trip[{i}]"] = (
                    o.parse_expression(o.render_expression(e)), e)
            op = dil.susy.build_defect_operator(dil.ModelSpec(epsilon=defect, f1_value=1))
            kernel = o.block_gaussian_apply(op, [o.gaussian(alpha, {(0, 0): alpha}),
                                                 o.gaussian(alpha)])
            pairs["kernel_annihilation"] = ([k.is_zero for k in kernel], [True, True])
            return pairs

        return Operation(f"triple(alpha={alpha})", run, checks.check_identities)


WORKLOADS = {cls.name: cls for cls in (Desk, Refine, Exact)}
