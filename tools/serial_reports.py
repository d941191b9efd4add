"""Write every subcommand's ``--serial`` report and side files into one directory.

    python3 tools/serial_reports.py OUT_DIR

Runs ``dil`` from ``src/`` of the checkout this script sits in, one process
per run, with every BLAS/OpenMP pool pinned to one thread and no ``DIL_``
override but the run's own.  The runs are every subcommand of the CLI at
the default config, and the small configs of the CI packaging job.  Run ``NAME``
of subcommand ``SUB`` writes ``OUT_DIR/NAME_SUB.json`` and its side files
next to it.  Two directories made from code that gives the same answers
compare equal under ``diff -r``, byte for byte.

Exits 1, naming the run, when a run exits with a status other than 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from dil.cli import _HANDLERS  # noqa: E402  (the CLI's table of subcommands)

SUBCOMMANDS = tuple(_HANDLERS)
SMALL = {"DIL_GRID_N": "24", "DIL_SOLVER_K": "6"}
# (name, DIL_ overrides, subcommands): the default config, then the packaging job's
RUNS = [
    ("default", {}, SUBCOMMANDS),
    ("n24", SMALL, ("index", "zero-modes", "sweep")),
    ("n24_eps0.3", {**SMALL, "DIL_MODEL_EPSILON": "0.3"}, ("index",)),
    ("n25_eps0.3", {**SMALL, "DIL_GRID_N": "25", "DIL_MODEL_EPSILON": "0.3"}, ("index",)),
    ("n25_49_97", {"DIL_CONVERGENCE_N_VALUES": "[25, 49, 97]"}, ("convergence",)),
]
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {k: v for k, v in os.environ.items() if not k.startswith("DIL_")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), base.get("PYTHONPATH"))))
    failed = []
    for name, overrides, subcommands in RUNS:
        for sub in subcommands:
            out = out_dir / f"{name}_{sub}.json"
            status = subprocess.run(
                [sys.executable, "-m", "dil.cli", sub, "--serial", "--out", str(out)],
                env={**base, **ONE_THREAD, **overrides}).returncode
            print(f"{out.name}: exit {status}")
            if status != 0:
                failed.append(out.name)
    if failed:
        print("runs that did not exit 0: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
