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

W(c, c) and the multiplier of z^a zb^a, formed as (x^2 + y^2)^a, are real
with no round-off imaginary part, so an operator whose every term is real
is stored as a float64 matrix, and every later sparse pass over it moves
half the bytes of a complex one.

This is the one module where an exact expression becomes floating-point
numbers.  ``evaluate`` (the values of a derivative-free expression or of a
Gaussian ansatz at points) and ``discretize`` share ``_multiplier``, the one
formula for z^a zb^b, and both walk the stored form (den, {signature: (a, b)})
of :class:`dil.opcalc.OperatorExpression` in sorted signature order, taking
each coefficient as complex(a / den, b / den).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
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
        if (isinstance(self.L, bool) or not isinstance(self.L, numbers.Real)
                or not 0 < self.L < np.inf):
            raise ValueError(f"grid half-width must be finite and positive, got {self.L!r}")
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral)
                or self.n < 8):
            raise ValueError(f"grid needs at least 8 points per axis, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

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


def evaluate(f: Union[OperatorExpression, GaussianAnsatz], zs) -> np.ndarray:
    """Values at complex points (scalar or ndarray) of a derivative-free
    expression, or of a Gaussian ansatz with its Gaussian.

    Every term is its coefficient times ``_multiplier``, summed in sorted
    signature order.  An expression with a derivative is no function and
    raises ValueError.
    """
    zs = np.asarray(zs, dtype=complex)
    if isinstance(f, GaussianAnsatz):
        return evaluate(f.factor, zs) * np.exp(-float(f.alpha) * np.abs(zs) ** 2)
    if any(pd or pdb for _, _, pd, pdb in f._num):
        raise ValueError("expression contains derivatives; not a multiplication operator")
    den = f._den
    return sum((complex(a / den, b / den) * _multiplier(zs, pz, pzb)
                for (pz, pzb, _, _), (a, b) in sorted(f._num.items())), np.zeros_like(zs))


def sample(grid: GridSpec,
           f: Union[GaussianAnsatz, Callable[[np.ndarray], np.ndarray],
                    Sequence[Union[GaussianAnsatz, Callable]]]) -> Field:
    """Pointwise evaluation at the grid nodes.

    ``f`` is a GaussianAnsatz or a vectorized closure of the complex
    coordinate, which gives one component, or a sequence of those, one
    component per entry; an empty sequence is refused as a field with no
    component.
    """
    zs = grid.nodes()
    parts = [f] if isinstance(f, GaussianAnsatz) or callable(f) else list(f)
    return Field(grid, len(parts), np.ravel([
        evaluate(fi, zs) if isinstance(fi, GaussianAnsatz)
        else np.asarray(fi(zs), dtype=complex) * np.ones_like(zs) for fi in parts]))


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
def _axis_power(grid: GridSpec, p: int) -> sp.csr_matrix:
    """Minimal-bandwidth O(h^2) central stencil for the p-th axis derivative:
    the central first difference (p = 1) or the compact second difference
    (p = 2), times the second difference for every further two powers."""
    n, h = grid.n, grid.h
    if p == 0:
        return sp.identity(n, format="csr")
    if p == 1:
        e = np.ones(n - 1) / (2.0 * h)
        return sp.diags([e, -e], [1, -1], format="csr")
    if p == 2:
        e = np.ones(n - 1)
        return (sp.diags([e, -2.0 * np.ones(n), e], [1, 0, -1]) / h ** 2).tocsr()
    return (_axis_power(grid, p - 2) @ _axis_power(grid, 2)).tocsr()


@lru_cache(maxsize=None)
def _wirtinger_matrix(grid: GridSpec, pow_d: int, pow_dbar: int) -> sp.csr_matrix:
    """Sparse realization of d^c db^d on the n^2 nodes.

    Stored as float64 when none of its entries is imaginary (d^c db^c, a
    power of the Laplacian, whose imaginary binomial terms cancel exactly),
    as complex128 otherwise.
    """
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
    if not total.data.imag.any():
        total = total.real
    total.sort_indices()
    return total


def _multiplier(zs: np.ndarray, pow_z: int, pow_zbar: int) -> np.ndarray:
    """z^a zb^b at the nodes zs, as (x^2 + y^2)^min(a, b) times the leftover
    power of z or zb: float64, with no round-off imaginary part, when a == b."""
    common = min(pow_z, pow_zbar)
    mult = (zs.real ** 2 + zs.imag ** 2) ** common
    if pow_z > common:
        return mult * zs ** (pow_z - common)
    if pow_zbar > common:
        return mult * np.conj(zs) ** (pow_zbar - common)
    return mult


def discretize_expression(e: OperatorExpression, grid: GridSpec) -> sp.csr_matrix:
    """Sparse matrix of one scalar operator expression on the grid.

    Each term of the stored form, in sorted signature order, is its
    Wirtinger stencil with every row scaled by the multiplier at its node
    (``_multiplier``) and by the coefficient complex(a / den, b / den),
    taken as a float when its imaginary part is zero.  The terms are summed
    from the first one, so the matrix is float64 when every term is real
    and complex128 otherwise; an expression with no term gives an empty
    float64 matrix.
    """
    zs = grid.nodes()
    out = sp.csr_matrix((grid.num_nodes, grid.num_nodes))
    den = e._den
    for i, ((pz, pzb, pd, pdb), (a, b)) in enumerate(sorted(e._num.items())):
        mat = _wirtinger_matrix(grid, pd, pdb)
        if pz or pzb:  # each row times the multiplier at its node
            mult = _multiplier(zs, pz, pzb)
            mat = sp.csr_matrix((mat.data * np.repeat(mult, np.diff(mat.indptr)),
                                 mat.indices, mat.indptr), shape=mat.shape)
        coeff = complex(a / den, b / den)
        term = (coeff if coeff.imag else coeff.real) * mat
        out = out + term if i else term
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
    """Sparse matrix of a block operator; blocks are assembled row-major.

    The dtype is decided by the terms, with no setting: float64 when every
    term of every block is real (the unperturbed partners, say), so that no
    entry is imaginary, and complex128 when any term is not (a Wirtinger
    stencil d^c db^d with c != d, a coefficient with an imaginary part or a
    multiplier z^a zb^b with a != b, as in every entry of D).
    """
    blocks = [[discretize_expression(op.entry(i, j), grid)
               for j in range(op.cols)] for i in range(op.rows)]
    out = sp.bmat(blocks, format="csr")
    out.sort_indices()
    return out


# ---------------------------------------------------------------------------
# Delimited serialization (binary-free) and JSON payloads
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


def field_to_csv(fld: Field, path) -> None:
    """Write a field as (index, re, im) rows with a header."""
    vals = fld.values
    write_csv(path, ("index", "re", "im"),
              zip(range(vals.size), vals.real.tolist(), vals.imag.tolist()))


def json_payload(obj) -> dict:
    """Every field of a dataclass that its repr shows, by name.

    A value with its own ``to_json_dict`` goes through that method, any other
    dataclass through its fields, lists and tuples element by element and
    dicts value by value.
    """
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj) if f.repr}


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return json_payload(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value
