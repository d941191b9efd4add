"""Square-lattice discretization of the complex plane.

The grid covers the box [-L, L]^2 with n points per axis; node k (row-major,
x fastest) sits at z = x + i*y with x = h*((k mod n) - (n-1)/2) and
y = h*(floor(k/n) - (n-1)/2).  The axis is built from offsets about its
centre, so it is exactly antisymmetric: the rows j and n-1-j are bitwise
mirror images under y -> -y, which :mod:`dil.spectral` relies on to find
the reflection-conjugation symmetry of a discretized operator exactly.

Block operators from :mod:`dil.opcalc` are turned into sparse matrices with
second-order central stencils and homogeneous Dirichlet boundary values
(ghost nodes outside the box are zero), which is accurate here because
every mode of interest decays like exp(-|z|^2).

A monomial z^a zb^b d^c db^d becomes

    diag(z^a zb^b) @ W(c, d)

where W(c, d) realizes the Wirtinger power d^c db^d.  W is expanded exactly
into per-axis derivatives (d/dx)^p (d/dy)^q via the binomial theorem, and
each axis power is realized with the minimal-bandwidth central stencil:
even powers as powers of the compact 3-point second difference, odd powers
with one extra central first difference.  In particular W(1, 0) and W(0, 1)
are the familiar D_z = (D_x - i D_y)/2 and D_zb = (D_x + i D_y)/2, and
W(1, 1) is the compact -(1/4) discrete Laplacian with no spurious
high-frequency null modes.  Realizing d*db as D_z @ D_zb instead would
square the wide first-difference stencil, whose sawtooth conjugation
symmetry (S D1 S = -D1 with S = diag((-1)^k)) makes every low eigenvalue of
the partner Hamiltonians exactly doubly degenerate per axis; the compact
expansion is what keeps the zero-mode count physical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, ZeroFieldError
from .opcalc import BlockOperator, GaussianAnsatz, OperatorExpression


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n grid on the box [-L, L]^2."""

    L: float
    n: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"grid half-width must be positive, got {self.L}")
        if not isinstance(self.n, int) or self.n < 8:
            raise ValueError(f"grid needs at least 8 points per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def num_nodes(self) -> int:
        return self.n * self.n

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis; axis[n-1-j] == -axis[j] exactly."""
        return self.h * (np.arange(self.n) - (self.n - 1) / 2)

    def nodes(self) -> np.ndarray:
        """Complex coordinates of all n^2 nodes in row-major order."""
        x = self.axis()
        return (x[None, :] + 1j * x[:, None]).ravel()


@dataclass(frozen=True)
class Field:
    """Complex multi-component function sampled on a grid.

    Values are stored component-major: component c occupies the slice
    [c*n^2, (c+1)*n^2).  Norms and inner products carry the cell weight h^2.
    """

    grid: GridSpec
    components: int
    values: np.ndarray

    def __post_init__(self):
        if self.components < 1:
            raise ShapeError("field needs at least one component")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.components * self.grid.num_nodes,):
            raise ShapeError(
                f"expected {self.components * self.grid.num_nodes} values, "
                f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zeros(grid: GridSpec, components: int = 1) -> "Field":
        return Field(grid, components, np.zeros(components * grid.num_nodes, dtype=complex))

    def component(self, c: int) -> np.ndarray:
        n2 = self.grid.num_nodes
        return self.values[c * n2:(c + 1) * n2]

    def pointwise_abs2(self) -> np.ndarray:
        """Per-node squared magnitude summed over components."""
        n2 = self.grid.num_nodes
        return (np.abs(self.values.reshape(self.components, n2)) ** 2).sum(axis=0)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.h ** 2 * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "Field") -> complex:
        if other.grid != self.grid or other.components != self.components:
            raise ShapeError("fields live on different spaces")
        return complex(self.grid.h ** 2 * np.vdot(self.values, other.values))


def sample(grid: GridSpec,
           f: Union[GaussianAnsatz, Callable[[np.ndarray], np.ndarray],
                    Sequence[Union[GaussianAnsatz, Callable]]],
           components: int = 1) -> Field:
    """Pointwise evaluation at the grid nodes.

    ``f`` may be a GaussianAnsatz, a vectorized closure of the complex
    coordinate, or a sequence of those (one per component).
    """
    zs = grid.nodes()

    def one(fi) -> np.ndarray:
        if isinstance(fi, GaussianAnsatz):
            return np.asarray(fi.evaluate(zs), dtype=complex)
        return np.asarray(fi(zs), dtype=complex) * np.ones_like(zs)

    if isinstance(f, GaussianAnsatz) or callable(f):
        parts = [one(f) for _ in range(components)]
    else:
        parts = [one(fi) for fi in f]
        if len(parts) != components:
            raise ShapeError(f"{components} components requested, {len(parts)} samplers given")
    return Field(grid, components, np.concatenate(parts))


def localization_fraction(fld: Field, radius: float) -> float:
    """Share of the squared L2 mass inside the open disk |z| < radius."""
    if not 0 < radius <= fld.grid.L:
        raise ValueError(f"radius must lie in (0, L], got {radius}")
    mass = fld.pointwise_abs2()
    total = mass.sum()
    if total <= 0.0:
        raise ZeroFieldError("localization fraction of a zero field is undefined")
    inside = np.abs(fld.grid.nodes()) < radius
    return float(mass[inside].sum() / total)


# ---------------------------------------------------------------------------
# Stencil construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axis_first(grid: GridSpec) -> sp.csr_matrix:
    n, h = grid.n, grid.h
    e = np.ones(n - 1) / (2.0 * h)
    return sp.diags([e, -e], [1, -1], format="csr")


@lru_cache(maxsize=None)
def _axis_second(grid: GridSpec) -> sp.csr_matrix:
    n, h = grid.n, grid.h
    e = np.ones(n - 1)
    return (sp.diags([e, -2.0 * np.ones(n), e], [1, 0, -1]) / h ** 2).tocsr()


@lru_cache(maxsize=None)
def _axis_power(grid: GridSpec, p: int) -> sp.csr_matrix:
    """Minimal-bandwidth O(h^2) central stencil for the p-th axis derivative."""
    if p == 0:
        return sp.identity(grid.n, format="csr")
    m = _axis_second(grid) if p % 2 == 0 else _axis_first(grid)
    for _ in range(p // 2 - (1 if p % 2 == 0 else 0)):
        m = m @ _axis_second(grid)
    return m.tocsr()


@lru_cache(maxsize=None)
def _wirtinger_matrix(grid: GridSpec, pow_d: int, pow_dbar: int) -> sp.csr_matrix:
    """Sparse realization of d^c db^d on the n^2 nodes."""
    n = grid.n
    eye = sp.identity(n, format="csr")
    total = sp.csr_matrix((grid.num_nodes, grid.num_nodes), dtype=complex)
    scale = 0.5 ** (pow_d + pow_dbar)
    for j in range(pow_d + 1):
        for l in range(pow_dbar + 1):
            coeff = (math.comb(pow_d, j) * math.comb(pow_dbar, l)
                     * (-1j) ** (pow_d - j) * (1j) ** (pow_dbar - l)) * scale
            px = j + l
            py = (pow_d - j) + (pow_dbar - l)
            total = total + coeff * sp.kron(_axis_power(grid, py),
                                            _axis_power(grid, px), format="csr")
    total = total.tocsr()
    total.sort_indices()
    return total


def discretize_expression(e: OperatorExpression, grid: GridSpec) -> sp.csr_matrix:
    """Sparse matrix of one scalar operator expression on the grid."""
    n2 = grid.num_nodes
    zs = grid.nodes()
    out = sp.csr_matrix((n2, n2), dtype=complex)
    for t in e.terms:
        mat = _wirtinger_matrix(grid, t.pow_d, t.pow_dbar)
        if t.pow_z or t.pow_zbar:
            mult = zs ** t.pow_z * np.conj(zs) ** t.pow_zbar
            mat = sp.diags(mult).tocsr() @ mat
        out = out + complex(t.coeff) * mat
    out = out.tocsr()
    out.sort_indices()
    return out


def max_abs(m) -> float:
    """Largest entry magnitude of a sparse or dense matrix, 0.0 if it has none."""
    if sp.issparse(m):
        return float(np.max(np.abs(m.data))) if m.nnz else 0.0
    arr = np.asarray(m)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def discretize(op: BlockOperator, grid: GridSpec) -> sp.csr_matrix:
    """Sparse matrix of a block operator; blocks are assembled row-major."""
    blocks = [[discretize_expression(op.entry(i, j), grid)
               for j in range(op.cols)] for i in range(op.rows)]
    out = sp.bmat(blocks, format="csr")
    out.sort_indices()
    return out


# ---------------------------------------------------------------------------
# Delimited serialization (binary-free)
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row.

    Build numeric rows with ``.tolist()``: csv writes a numpy scalar as its
    repr, ``np.float64(...)`` under numpy 2.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path, header: Sequence[str]) -> list[list[str]]:
    """The rows after the header, which must be ``header``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"unexpected CSV header in {path}: {found}")
        return list(reader)


_MATRIX_HEADER = ("row", "col", "re", "im")
_FIELD_HEADER = ("index", "re", "im")


def matrix_to_csv(mat: sp.spmatrix, path) -> None:
    """Write a sparse matrix as (row, col, re, im) triplets with a header."""
    coo = mat.tocoo()
    data = coo.data.astype(complex)
    write_csv(path, _MATRIX_HEADER, zip(coo.row.tolist(), coo.col.tolist(),
                                        data.real.tolist(), data.imag.tolist()))


def matrix_from_csv(path, shape: tuple[int, int]) -> sp.csr_matrix:
    cells = _read_csv(path, _MATRIX_HEADER)
    vals = [complex(float(re_s), float(im_s)) for _, _, re_s, im_s in cells]
    ij = ([int(row[0]) for row in cells], [int(row[1]) for row in cells])
    return sp.coo_matrix((vals, ij), shape=shape).tocsr()


def field_to_csv(fld: Field, path) -> None:
    """Write a field as (index, re, im) rows with a header."""
    vals = fld.values
    write_csv(path, _FIELD_HEADER,
              zip(range(vals.size), vals.real.tolist(), vals.imag.tolist()))


def field_from_csv(path, grid: GridSpec, components: int) -> Field:
    """Read a field back; every index 0..N-1 must appear exactly once."""
    size = components * grid.num_nodes
    cells = _read_csv(path, _FIELD_HEADER)
    idx = [int(row[0]) for row in cells]
    if sorted(idx) != list(range(size)):
        raise ValueError(f"{path} does not list each index 0..{size - 1} exactly once")
    vals = np.empty(size, dtype=complex)
    vals[idx] = [complex(float(re_s), float(im_s)) for _, re_s, im_s in cells]
    return Field(grid, components, vals)
