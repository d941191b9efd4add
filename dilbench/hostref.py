"""Fixed host-reference kernel: the unit that ``op_ref`` is measured in.

The kernel uses no ``dil`` code.  It has two parts, chosen to track the two
kinds of work the workloads do: a pure-Python loop of exact ``Fraction``
additions (the interpreter-bound side, like the symbolic calculus) and a
SuperLU factorization and solve of a fixed 2-D Dirichlet Laplacian (the
sparse-direct side, like the shift-invert eigensolver).  The benchmark runs
it before and after every operation and divides the median operation time
by the mean kernel time, which cancels the host's speed drift: on a shared
machine that moves raw seconds by 10-20 % over minutes.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LOOP_TERMS = 6000
LAPLACIAN_SIDE = 72


def laplacian_2d(side: int) -> sp.csc_matrix:
    """Five-point Dirichlet Laplacian on a side x side grid."""
    one_d = sp.diags([-np.ones(side - 1), 2.0 * np.ones(side), -np.ones(side - 1)],
                     [-1, 0, 1])
    eye = sp.identity(side)
    return (sp.kron(eye, one_d) + sp.kron(one_d, eye)).tocsc()


class HostReference:
    """The reference kernel with its fixed inputs, built once."""

    def __init__(self):
        self.matrix = laplacian_2d(LAPLACIAN_SIDE)
        self.rhs = np.linspace(1.0, 2.0, LAPLACIAN_SIDE * LAPLACIAN_SIDE)

    def run(self) -> float:
        """Run the kernel once and return its wall time in seconds.

        Raises RuntimeError when either part gives a wrong answer, so a
        broken host library cannot pass as a fast one.
        """
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, LOOP_TERMS + 1):
            total += Fraction(1, k * (k + 1))
        x = spla.splu(self.matrix).solve(self.rhs)
        elapsed = time.perf_counter() - t0
        # the sum telescopes to n/(n+1)
        if total != Fraction(LOOP_TERMS, LOOP_TERMS + 1):
            raise RuntimeError(f"reference loop gave {total}")
        residual = np.linalg.norm(self.matrix @ x - self.rhs) / np.linalg.norm(self.rhs)
        if not residual < 1e-10:
            raise RuntimeError(f"reference solve residual {residual:.3e}")
        return elapsed
