"""Grid, sampling, discretization, and serialization checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (BlockOperator, Field, GridSpec, ZeroFieldError, adjoint,
                 crat, discretize, field_from_csv, field_to_csv, gaussian,
                 gaussian_apply, localization_fraction, matrix_from_csv,
                 matrix_to_csv, monomial, sample)
from dil.lattice import discretize_expression, max_abs
from dil.opcalc import D, DBAR, Z, ZBAR, OperatorExpression, OperatorTerm

DEFECT = BlockOperator.from_rows([[D, ZBAR], [Z, DBAR]])


def _block1(e):
    return BlockOperator(1, 1, (e,))


# --------------------------------------------------------------------------
# grid and fields
# --------------------------------------------------------------------------

def test_grid_node_layout():
    g = GridSpec(4.0, 9)
    assert g.h == pytest.approx(1.0)
    zs = g.nodes()
    n = g.n
    for k in (0, 5, 13, 80):
        assert zs[k] == pytest.approx((-4.0 + (k % n) * g.h) + 1j * (-4.0 + (k // n) * g.h))
    assert len(zs) == g.num_nodes


@pytest.mark.parametrize("n", [24, 25, 96, 97])
def test_grid_axis_is_exactly_antisymmetric(n):
    # rows j and n-1-j must be bitwise mirror images: the spectral solver's
    # reflection-conjugation check compares matrix entries exactly
    x = GridSpec(5.0, n).axis()
    assert np.array_equal(x[::-1], -x)
    assert x[0] == pytest.approx(-5.0, abs=1e-14)
    assert x[-1] == pytest.approx(5.0, abs=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(5.0, 4)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 16)


def test_field_requires_finite_values():
    g = GridSpec(4.0, 8)
    bad = np.full(g.num_nodes, np.nan, dtype=complex)
    with pytest.raises(ValueError):
        Field(g, 1, bad)


def test_sample_constant_and_gaussian_point_values():
    g = GridSpec(4.0, 9)
    ones = sample(g, lambda z: np.ones_like(z))
    assert np.all(ones.values == 1.0)
    f = sample(g, gaussian(1))
    zs = g.nodes()
    at_origin = int(np.argmin(np.abs(zs)))
    at_two = int(np.argmin(np.abs(zs - 2.0)))
    assert f.values[at_origin] == pytest.approx(1.0)
    assert f.values[at_two] == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_sample_norm_matches_gaussian_integral():
    # integral of exp(-2|z|^2) over the plane is pi/2
    for grid in (GridSpec(4.0, 64), GridSpec(5.0, 96)):
        f = sample(grid, gaussian(1))
        assert f.norm() ** 2 == pytest.approx(math.pi / 2, rel=0.01)


# --------------------------------------------------------------------------
# localization fraction
# --------------------------------------------------------------------------

def test_localization_uniform_field_area_ratio():
    g = GridSpec(5.0, 96)
    uniform = sample(g, lambda z: np.ones_like(z))
    frac = localization_fraction(uniform, g.L)
    # independent oracle: direct node count
    zs = g.nodes()
    assert frac == pytest.approx(np.count_nonzero(np.abs(zs) < g.L) / g.num_nodes, abs=0)
    # inscribed-disk area ratio, up to the boundary ring of width ~h
    expected = math.pi * g.L ** 2 / (4.0 * g.L ** 2)
    assert frac == pytest.approx(expected, rel=2.5 * g.h / g.L)


def test_localization_gaussian_disk_mass():
    g = GridSpec(5.0, 96)
    f = sample(g, gaussian(1))
    expected = 1.0 - math.exp(-2.0 * 2.0 ** 2)  # radial mass of exp(-2 r^2)
    assert localization_fraction(f, 2.0) == pytest.approx(expected, abs=1e-3)


def test_localization_fully_supported_inside():
    g = GridSpec(5.0, 32)
    zs = g.nodes()
    vals = np.where(np.abs(zs) < 1.0, 1.0 + 0j, 0.0 + 0j)
    f = Field(g, 1, vals)
    assert localization_fraction(f, g.L) == pytest.approx(1.0, abs=0)


def test_localization_zero_field_raises():
    g = GridSpec(5.0, 16)
    with pytest.raises(ZeroFieldError):
        localization_fraction(Field.zeros(g, 2), 2.0)


def test_localization_radius_validation():
    g = GridSpec(5.0, 16)
    f = sample(g, gaussian(1))
    with pytest.raises(ValueError):
        localization_fraction(f, 6.0)


# --------------------------------------------------------------------------
# discretization
# --------------------------------------------------------------------------

def test_discretize_multiplication_is_diagonal():
    g = GridSpec(4.0, 16)
    mat = discretize(_block1(Z), g)
    expected = sp.diags(g.nodes()).tocsr()
    assert (mat - expected).nnz == 0


def test_discretize_identity_two_components():
    g = GridSpec(4.0, 16)
    mat = discretize(BlockOperator.identity(2), g)
    assert (mat - sp.identity(2 * g.num_nodes, format="csr")).nnz == 0


def test_discretize_wirtinger_derivative_converges_at_order_two():
    # || D_z sample(f) - sample(-zb f) ||_inf = O(h^2) for f = exp(-|z|^2)
    errs, hs = [], []
    for n in (49, 97, 193):
        g = GridSpec(5.0, n)
        mat = discretize_expression(D, g)
        f = sample(g, gaussian(1))
        target = sample(g, gaussian_apply(D, gaussian(1)))
        errs.append(np.max(np.abs(mat @ f.values - target.values)))
        hs.append(g.h)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.3)


def test_discretize_is_linear():
    g = GridSpec(4.0, 12)
    rng = random.Random(13)
    # disjoint monomials: assembly is float-exact either way
    a = monomial(crat(Fraction(1, 3)), 1, 0, 1, 0)
    b = monomial(crat(0, Fraction(2, 7)), 0, 1, 0, 1)
    lhs = discretize(_block1(a + b), g)
    rhs = discretize(_block1(a), g) + discretize(_block1(b), g)
    assert (lhs - rhs).nnz == 0
    # overlapping monomials up to roundoff
    for _ in range(10):
        t1 = OperatorTerm(crat(rng.randint(-3, 3), rng.randint(-3, 3)),
                          rng.randint(0, 2), rng.randint(0, 2),
                          rng.randint(0, 1), rng.randint(0, 1))
        t2 = OperatorTerm(crat(rng.randint(-3, 3), rng.randint(-3, 3)), *t1.signature)
        e1 = OperatorExpression.from_terms([t1])
        e2 = OperatorExpression.from_terms([t2])
        lhs = discretize(_block1(e1 + e2), g)
        rhs = discretize(_block1(e1), g) + discretize(_block1(e2), g)
        diff = lhs - rhs
        scale = max(np.max(np.abs(lhs.data)) if lhs.nnz else 0.0, 1.0)
        if diff.nnz:
            assert np.max(np.abs(diff.data)) <= 1e-14 * scale


def test_discrete_adjoint_matches_symbolic_adjoint_row_by_row():
    g = GridSpec(4.0, 24)
    lhs = discretize(DEFECT, g).getH().tocsr()
    rhs = discretize(adjoint(DEFECT), g)
    diff = (lhs - rhs).tocsr()
    n = g.n
    interior = []
    for block in range(2):
        for k in range(g.num_nodes):
            ix, iy = k % n, k // n
            if 0 < ix < n - 1 and 0 < iy < n - 1:
                interior.append(block * g.num_nodes + k)
    for row in interior:
        sl = diff[row]
        assert sl.nnz == 0, f"interior row {row} differs"
    # for the first-order defect operator even boundary rows agree exactly
    assert diff.nnz == 0


def test_discretization_bridges_to_symbolic_application_at_order_two():
    # ops of derivative order <= 2 applied to a well-contained gaussian
    ops = [D, DBAR, D * DBAR, Z * D, monomial(1, 0, 0, 2, 0) + ZBAR * DBAR]
    f = gaussian(1, {(0, 0): crat(1), (1, 0): crat(1, 2)})
    for e in ops:
        errs, hs = [], []
        target_sym = gaussian_apply(e, f)
        for n in (33, 65, 129):
            g = GridSpec(4.0, n)  # alpha * L^2 = 16 >= 9
            mat = discretize_expression(e, g)
            err = np.max(np.abs(mat @ sample(g, f).values
                                - sample(g, target_sym).values))
            errs.append(err)
            hs.append(g.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.6 <= order <= 2.6, f"{e}: fitted order {order:.2f}"


def test_norms_invariant_under_quarter_rotation():
    g = GridSpec(5.0, 64)
    f = sample(g, gaussian(1, {(1, 1): crat(1), (0, 0): crat(2)}))
    rotated = sample(g, lambda z: gaussian(
        1, {(1, 1): crat(1), (0, 0): crat(2)}).evaluate(1j * z))
    assert abs(f.norm() - rotated.norm()) <= 1e-12
    assert abs(f.norm() ** 2 - abs(f.inner(f))) <= 1e-12


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    g = GridSpec(4.0, 12)
    mat = discretize(DEFECT, g)
    path = tmp_path / "defect.csv"
    matrix_to_csv(mat, path)
    back = matrix_from_csv(path, mat.shape)
    assert (mat - back).nnz == 0


def test_field_csv_round_trip(tmp_path):
    g = GridSpec(4.0, 12)
    f = sample(g, [gaussian(1), gaussian(2)], components=2)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    back = field_from_csv(path, g, 2)
    assert np.array_equal(f.values, back.values)


def test_zero_matrix_csv_is_header_only_and_reads_back(tmp_path):
    path = tmp_path / "zero.csv"
    matrix_to_csv(sp.csr_matrix((5, 5), dtype=complex), path)
    assert path.read_bytes() == b"row,col,re,im\r\n"
    back = matrix_from_csv(path, (5, 5))
    assert back.shape == (5, 5) and back.nnz == 0


def test_csv_readers_check_the_header(tmp_path):
    g = GridSpec(4.0, 12)
    path = tmp_path / "field.csv"
    field_to_csv(sample(g, gaussian(1)), path)
    with pytest.raises(ValueError, match="header"):
        matrix_from_csv(path, (g.num_nodes, g.num_nodes))


@pytest.mark.parametrize("damage", ["truncated", "duplicated", "out_of_range"])
def test_field_csv_must_list_every_index_once(tmp_path, damage):
    g = GridSpec(4.0, 12)
    path = tmp_path / "field.csv"
    field_to_csv(sample(g, gaussian(1)), path)
    lines = path.read_text().splitlines(keepends=True)
    if damage == "truncated":
        lines = lines[:-10]
    elif damage == "duplicated":
        lines[-1] = lines[-2]
    else:
        lines[-1] = f"{g.num_nodes},1.0,0.0\r\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="exactly once"):
        field_from_csv(path, g, 1)


def test_max_abs_dense_and_sparse():
    dense = np.array([[0.0, -2.0], [2.0 + 2.0j, 1.0]])
    assert max_abs(dense) == max_abs(sp.csr_matrix(dense)) == abs(2.0 + 2.0j)
    assert max_abs(sp.csr_matrix((3, 3))) == 0.0
    assert max_abs(np.zeros((0, 0))) == 0.0
