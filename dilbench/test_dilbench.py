"""Tests of the benchmark's own checks: each one must reject a wrong answer.

Run with ``python -m pytest dilbench`` from the repository root.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dil  # noqa: E402
import dil.cli  # noqa: E402
from dil.opcalc import D, DBAR, Z, ZBAR, BlockOperator, compose  # noqa: E402

import checks  # noqa: E402
from hostref import HostReference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Desk, Exact, Operation, Tally, execute, verify  # noqa: E402

SECOND_ORDER_ROWS = [
    {"h": 10 / 48, "n": 49, "lambda0_error": 5.455e-3, "lambda1_error": 1.643e-2},
    {"h": 10 / 96, "n": 97, "lambda0_error": 1.358e-3, "lambda1_error": 4.078e-3},
    {"h": 10 / 192, "n": 193, "lambda0_error": 3.392e-4, "lambda1_error": 1.018e-3},
]


def _report(n_minus, n_plus, delta, winding, ambiguous=False):
    return {"n_minus": n_minus, "n_plus": n_plus, "delta": delta,
            "winding": winding, "ambiguous": ambiguous}


@pytest.mark.parametrize("winding, counts", [(1, (1, 0)), (-1, (0, 1)), (2, (2, 0)),
                                             (-2, (0, 2))])
def test_index_counts_accept_the_right_answer(winding, counts):
    assert checks.check_index_counts(_report(*counts, winding, winding), winding) == []


@pytest.mark.parametrize("delta", [0, 2])
def test_delta_off_by_one_is_rejected(delta):
    assert checks.check_index_counts(_report(1, 0, delta, 1), 1)
    assert checks.check_index_counts(_report(delta, 0, delta, 1), 1)


@pytest.mark.parametrize("winding, swapped", [(1, (0, 1)), (-1, (1, 0)), (2, (0, 2))])
def test_swapped_counts_are_rejected(winding, swapped):
    assert checks.check_index_counts(_report(*swapped, winding, winding), winding)


def test_ambiguous_count_is_rejected():
    assert checks.check_index_counts(_report(1, 0, 1, 1, ambiguous=True), 1)


def test_pairing_accepts_partner_spectra_and_rejects_a_lost_level():
    minus = [-0.001, 0.999, 0.999, 1.996, 1.996, 1.996, 1.996, 2.99]
    plus = [0.996, 0.996, 1.99, 1.99, 1.993, 1.999, 2.982, 2.99]
    assert checks.check_pairing(minus, plus, 1) == []
    assert checks.check_pairing(plus, minus, -1) == []
    shifted = list(plus)
    shifted[1] = 1.2
    assert checks.check_pairing(minus, shifted, 1)


def test_vortex_mode_check_rejects_wrong_decay():
    grid = dil.GridSpec(5.0, 48)
    nodes = grid.nodes()
    c = 0.19
    mode = checks.analytic_kernel(nodes, math.sqrt(1 - c))
    assert checks.check_vortex_mode(mode, nodes, c, 0.9) == []
    assert checks.check_vortex_mode(checks.analytic_kernel(nodes, 1.0), nodes, c, 0.9)
    assert checks.check_vortex_mode(mode, nodes, c, 1.0)
    assert checks.check_vortex_mode(mode, nodes, c, None)


def test_oscillator_check_rejects_shifted_levels():
    assert checks.check_oscillator([0.001, 0.998, 0.998], [0.997, 0.997]) == []
    assert checks.check_oscillator([0.001, 0.9, 0.998], [0.997, 0.997])


def test_convergence_rows_reject_first_order_decay():
    assert checks.check_convergence_rows(SECOND_ORDER_ROWS, (49, 97, 193), 5.0) == []
    first_order = [dict(r, lambda1_error=r["lambda1_error"] * 2 ** i)
                   for i, r in enumerate(SECOND_ORDER_ROWS)]
    assert checks.check_convergence_rows(first_order, (49, 97, 193), 5.0)
    assert checks.check_convergence_rows(SECOND_ORDER_ROWS[:2], (49, 97, 193), 5.0)


def test_schema_check_rejects_an_incomplete_report():
    schema = {"type": "object", "required": ["status"]}
    assert checks.check_schema({"status": "pass"}, schema) == []
    assert checks.check_schema({}, schema)


def test_side_file_must_match_the_report(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("index,eigenvalue,residual\n0,0.5,1e-14\n1,1.25,1e-14\n")
    assert checks.check_side_file(path, "eigenvalue", [0.5, 1.25]) == []
    assert checks.check_side_file(path, "eigenvalue", [0.5, 1.0])
    assert checks.check_side_file(tmp_path / "missing.csv", "eigenvalue", [])


def test_broken_identity_is_rejected(tmp_path, monkeypatch):
    defect = BlockOperator.from_rows([[D, ZBAR], [Z, DBAR]])
    flipped = BlockOperator.from_rows([[DBAR, Z], [ZBAR, D]])
    assert checks.check_identities({"commute": (compose(defect, flipped),
                                                compose(flipped, defect))})
    exact = Exact(dil, 5, tmp_path)
    op = exact.next_pass()[0]
    assert verify(op, *execute(op)[1:]) == []
    op = exact.next_pass()[0]
    monkeypatch.setattr(dil.opcalc, "adjoint", lambda a: a)
    problems = verify(op, *execute(op)[1:])
    assert any("adjoint" in p for p in problems)


@pytest.mark.filterwarnings("ignore:analytic index")
def test_known_fault_is_attempted_and_failed_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setattr(dil.cli, "witten_index", dil.cli.witten_index)
    desk = Desk(dil, 0, tmp_path)
    fault = [op for op in desk.next_pass() if op.known_fault]
    assert [op.kind for op in fault] == ["anti-vortex(m=(1+2i))",
                                       "anti-vortex(m=(1/2+0i))"]
    tally = Tally()
    for op in fault:
        tally.record(op, verify(op, *execute(op)[1:]))
    assert (tally.attempted, tally.failed, tally.correct) == (2, 2, True)


def test_known_fault_excuses_only_its_own_problems():
    known = checks.check_index_counts(_report(0, 0, 0, -1), -1)

    def boom():
        raise ValueError("solver blew up")

    op = Operation("anti-vortex", boom, lambda result: [], known)
    for problems in (known, known + ["H_plus level 0.99 has no partner"],
                     checks.check_index_counts(_report(1, 0, 1, -1), -1),
                     verify(op, *execute(op)[1:])):
        tally = Tally()
        tally.record(op, problems)
        assert (tally.attempted, tally.failed) == (1, 1)
        assert tally.correct == (problems == known)


def test_raising_operation_fails_without_stopping_the_run():
    def boom():
        raise ValueError("solver blew up")

    op = Operation("boom", boom, lambda result: [])
    seconds, result, error = execute(op)
    assert result is None and "solver blew up" in error
    tally = Tally()
    tally.record(op, verify(op, result, error))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.span("outer", lambda: tracer.span("inner", sum, range(10 ** 5)))
    assert inner == sum(range(10 ** 5))
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    outer_self = tracer.self_seconds("outer")
    assert 0 <= outer_self < tracer.inclusive_seconds("outer")
    assert math.isclose(outer_self + tracer.inclusive_seconds("inner"),
                        tracer.inclusive_seconds("outer"))


def test_host_reference_runs_and_checks_itself():
    ref = HostReference()
    assert ref.run() > 0
    ref.rhs = np.full_like(ref.rhs, np.nan)
    with pytest.raises(RuntimeError):
        ref.run()
