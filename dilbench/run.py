"""Benchmark of the dil toolkit: one workload per run, one JSON line of results.

Usage (from the root of a checkout):

    python3 dilbench/run.py --workload desk|refine|exact --seed N \
        --seconds S --trace 0|1

The run imports ``dil`` from ``src/`` of the same checkout, draws the
workload's inputs from the seed, finishes one untimed warm-up operation and
then runs whole passes of operations until ``--seconds`` have gone by.  Each
operation is bracketed by the host-reference kernel (``hostref.py``) and
checked after it ends.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs (CLI reports, side files, spans, the result) go to ``.dilbench/``.
See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread in every BLAS/OpenMP pool; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".dilbench"
REFERENCE_SHARE = 0.2

# (span name, module, function) for every layer boundary the trace records
LAYERS = (
    ("spectral.low_spectrum", "dil.spectral", "low_spectrum"),
    ("spectral.witten_index", "dil.spectral", "witten_index"),
    ("spectral.winding_number", "dil.spectral", "winding_number"),
    ("lattice.localization_fraction", "dil.lattice", "localization_fraction"),
    ("lattice.discretize", "dil.lattice", "discretize"),
    ("analysis.fit_gaussian_decay", "dil.analysis", "fit_gaussian_decay"),
    ("analysis.convergence_study", "dil.analysis", "convergence_study"),
    ("susy.operator_set", "dil.susy", "build_operator_set"),
    ("susy.operator_set", "dil.susy", "operator_set_from_block"),
    ("opcalc.compose", "dil.opcalc", "compose"),
    ("opcalc.adjoint", "dil.opcalc", "adjoint"),
    ("opcalc.gaussian_apply", "dil.opcalc", "gaussian_apply"),
    ("opcalc.render_parse", "dil.opcalc", "render_expression"),
    ("opcalc.render_parse", "dil.opcalc", "parse_expression"),
    ("cli", "dil.cli", "main"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="dilbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk", "refine", "exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_dil():
    """Import dil from this checkout's src/, or exit if it is not there."""
    if not (SRC / "dil" / "__init__.py").is_file():
        sys.exit(f"dilbench: no dil package at {SRC / 'dil'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    dil = importlib.import_module("dil")
    importlib.import_module("dil.cli")
    if Path(dil.__file__).resolve().parent != SRC / "dil":
        sys.exit(f"dilbench: imported dil from {dil.__file__}, not from {SRC}")
    return dil


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer figures per operation, from the spans of the timed loop."""
    ms = lambda seconds: 1e3 * seconds / ops  # noqa: E731
    values = {
        "host.ref_ms": (1e3 * tracer.median_seconds("host.ref"), "ms"),
        "spectral.low_spectrum_ms": (ms(tracer.inclusive_seconds("spectral.low_spectrum")), "ms"),
        "spectral.low_spectrum_calls": (tracer.calls("spectral.low_spectrum") / ops, "count"),
        "spectral.witten_index_self_ms": (ms(tracer.self_seconds("spectral.witten_index")), "ms"),
        "spectral.winding_number_ms": (ms(tracer.inclusive_seconds("spectral.winding_number")), "ms"),
        "lattice.localization_fraction_ms": (
            ms(tracer.inclusive_seconds("lattice.localization_fraction")), "ms"),
        "analysis.fit_gaussian_decay_ms": (
            ms(tracer.inclusive_seconds("analysis.fit_gaussian_decay")), "ms"),
        "lattice.discretize_ms": (ms(tracer.inclusive_seconds("lattice.discretize")), "ms"),
        "lattice.discretize_calls": (tracer.calls("lattice.discretize") / ops, "count"),
        "susy.operator_set_self_ms": (ms(tracer.self_seconds("susy.operator_set")), "ms"),
        "opcalc.compose_ms": (ms(tracer.inclusive_seconds("opcalc.compose")), "ms"),
        "opcalc.adjoint_ms": (ms(tracer.inclusive_seconds("opcalc.adjoint")), "ms"),
        "opcalc.gaussian_apply_ms": (ms(tracer.inclusive_seconds("opcalc.gaussian_apply")), "ms"),
        "opcalc.render_parse_ms": (ms(tracer.inclusive_seconds("opcalc.render_parse")), "ms"),
        "opcalc.terms_per_compose": (tracer.terms_per_call("opcalc.compose"), "count"),
        "analysis.convergence_study_self_ms": (
            ms(tracer.self_seconds("analysis.convergence_study")), "ms"),
        "cli.self_ms": (ms(tracer.self_seconds("cli")), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # the known faults warn on every pass; problems are reported per operation
    warnings.simplefilter("ignore")
    t_import = time.perf_counter()
    dil = import_dil()
    import_seconds = time.perf_counter() - t_import

    from hostref import HostReference
    from spans import Tracer
    from workloads import WORKLOADS, Tally, execute, verify

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        for span_name, module, attr in LAYERS:
            if tracer.wrap_function(module, attr, span_name,
                                    count_terms=span_name == "opcalc.compose") == 0:
                sys.exit(f"dilbench: {module}.{attr} is bound nowhere")

    tally = Tally()
    t_setup = time.perf_counter()
    workload = WORKLOADS[args.workload](dil, args.seed, workdir)
    warm = workload.warmup()
    inputs_seconds = time.perf_counter() - t_setup
    warm_seconds, result, error = execute(warm)
    setup_s = import_seconds + inputs_seconds + warm_seconds
    problems = verify(warm, result, error)
    if problems:
        tally.correct = False
        print(f"dilbench: warm-up {warm.kind}: {'; '.join(problems)}", file=sys.stderr)

    ref = HostReference()
    ref.run()
    if tracer:
        tracer.spans.clear()

    def reference(op_seconds: float) -> list[float]:
        """Kernel runs filling about a fifth of the operation they follow."""
        runs: list[float] = []
        while not runs or sum(runs) < REFERENCE_SHARE * op_seconds:
            runs.append(tracer.span("host.ref", ref.run) if tracer else ref.run())
        return runs

    records = []
    start = time.perf_counter()
    kernel_runs = reference(warm_seconds)
    while True:
        for op in workload.next_pass():
            if tracer:
                tracer.op = tally.attempted
            op_seconds, result, error = execute(op, tracer)
            if tracer:
                tracer.op = None
            kernel_runs += reference(op_seconds)
            problems = verify(op, result, error)
            tally.record(op, problems)
            records.append({"kind": op.kind, "seconds": op_seconds, "raised": error is not None,
                            "problems": problems})
        if time.perf_counter() - start >= args.seconds:
            break

    timed = [r["seconds"] for r in records if not r["raised"]]
    if not timed:
        sys.exit("dilbench: every operation raised; nothing to time")
    # One 40 ms kernel run lands in one of the host's fast or slow spells,
    # which a 0.3-8 s operation averages over, so dividing each operation by
    # its own neighbours adds noise; the mean of all kernel runs around the
    # run's operations follows the host's slower drift.
    op_ref = statistics.median(timed) / statistics.fmean(kernel_runs)
    if tracer:
        tracer.restore()
        metrics = layer_metrics(tracer, tally.attempted)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    else:
        metrics = {
            "op_ref": {"value": op_ref, "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"ops_{stem}.json").write_text(json.dumps(records) + "\n")
    print(f"dilbench: {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed; op_ref {op_ref:.4f}, "
          f"median {statistics.median(timed):.4f} s per operation, "
          f"set-up {setup_s:.3f} s")
    line = json.dumps(result)
    (OUT / f"run_{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
