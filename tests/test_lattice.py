"""Grid, sampling, discretization, and serialization checks."""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (BlockOperator, Field, GridSpec, ModelSpec, ShapeError, ZeroFieldError,
                 adjoint, build_operator_set, crat, discretize, field_to_csv, gaussian,
                 gaussian_apply, localization_fraction, monomial,
                 operator_set_from_block, sample)
from dil.lattice import (_axis_power, _multiplier, _wirtinger_matrix,
                         discretize_expression, evaluate, max_abs)
from dil.opcalc import D, DBAR, ONE, Z, ZBAR, OperatorExpression, OperatorTerm

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
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            GridSpec(bad, 16)


def test_grid_refuses_a_half_width_that_is_no_real_number():
    # True passed as L = 1, and "5" raised a bare TypeError from the comparison
    for bad in (True, "5"):
        with pytest.raises(ValueError, match="half-width"):
            GridSpec(bad, 16)


def test_grid_accepts_numpy_integers():
    # the stencil caches key on the grid, so it must equal and hash alike
    g = GridSpec(5.0, np.int64(96))
    assert type(g.n) is int
    assert g == GridSpec(5.0, 96) and hash(g) == hash(GridSpec(5.0, 96))
    for bad in (True, 96.0, np.float64(96), "96"):
        with pytest.raises(ValueError):
            GridSpec(5.0, bad)


def test_field_requires_finite_values():
    g = GridSpec(4.0, 8)
    bad = np.full(g.num_nodes, np.nan, dtype=complex)
    with pytest.raises(ValueError):
        Field(g, 1, bad)


def test_field_refuses_a_bad_shape():
    g = GridSpec(4.0, 8)
    with pytest.raises(ShapeError, match="at least one component"):
        Field(g, 0, np.zeros(0))
    with pytest.raises(ShapeError, match="expected 64 values"):
        Field(g, 1, np.zeros(63))
    # the same number of nodes on another box
    with pytest.raises(ShapeError, match="different spaces"):
        Field.zeros(g).inner(Field.zeros(GridSpec(5.0, 8)))


def test_evaluate_takes_every_power_through_the_multiplier():
    g = GridSpec(4.0, 9)
    zs = g.nodes()
    e = Z * ZBAR * crat(2) + Z * Z * ZBAR + ONE
    assert np.array_equal(evaluate(Z * ZBAR, zs), _multiplier(zs, 1, 1))
    assert not evaluate(Z * ZBAR, zs).imag.any()
    assert np.array_equal(evaluate(e, zs), 1 + 2 * _multiplier(zs, 1, 1) + _multiplier(zs, 2, 1))
    f = gaussian("1/2", {(2, 1): 1, (1, 1): 2, (0, 0): 1})
    assert np.array_equal(evaluate(f, zs), evaluate(e, zs) * np.exp(-0.5 * np.abs(zs) ** 2))
    assert evaluate(f, 0.0) == 1.0
    with pytest.raises(ValueError, match="derivatives"):
        evaluate(Z * D, zs)


def test_sample_takes_one_component_per_entry():
    g = GridSpec(4.0, 9)
    assert sample(g, gaussian(1)).components == sample(g, np.exp).components == 1
    three = sample(g, [gaussian(1), np.exp, gaussian(2)])
    assert three.components == 3
    assert np.array_equal(three.values[:g.num_nodes], sample(g, gaussian(1)).values)
    assert np.array_equal(three.values[2 * g.num_nodes:], sample(g, gaussian(2)).values)
    with pytest.raises(ShapeError, match="at least one component"):
        sample(g, [])


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


def _complex_reference(op, grid):
    """The matrix of op assembled in complex arithmetic throughout, each
    multiplier z^a zb^b formed as the product of the powers z^a and zb^b."""
    zs = grid.nodes()
    blocks = []
    for i in range(op.rows):
        row = []
        for j in range(op.cols):
            out = sp.csr_matrix((grid.num_nodes, grid.num_nodes), dtype=complex)
            for t in op.entry(i, j).terms:
                mult = zs ** t.pow_z * np.conj(zs) ** t.pow_zbar
                stencil = _wirtinger_matrix(grid, t.pow_d, t.pow_dbar).astype(complex)
                out = out + complex(t.coeff) * (sp.diags(mult) @ stencil)
            row.append(out)
        blocks.append(row)
    return sp.bmat(blocks, format="csr")


_DTYPE_CASES = {
    # operator of a grid, and whether discretize stores it as float64
    "vortex-c0 H_minus": (lambda g: build_operator_set(ModelSpec(), g).H_minus, True),
    "vortex-c0 H_plus": (lambda g: build_operator_set(ModelSpec(), g).H_plus, True),
    "anti-vortex-m1 H_minus": (lambda g: operator_set_from_block(
        BlockOperator.from_rows([[D, Z], [ZBAR, DBAR]]), g).H_minus, True),
    "anti-vortex-m1 H_plus": (lambda g: operator_set_from_block(
        BlockOperator.from_rows([[D, Z], [ZBAR, DBAR]]), g).H_plus, True),
    "z^2 zb^2": (lambda g: _block1(monomial(1, pow_z=2, pow_zbar=2)), True),
    "vortex-c0 D": (lambda g: build_operator_set(ModelSpec(), g).D, False),
    "vortex-c0.3 H_minus": (
        lambda g: build_operator_set(ModelSpec(epsilon="0.3"), g).H_minus, False),
    "vortex-c0.3 H_plus": (
        lambda g: build_operator_set(ModelSpec(epsilon="0.3"), g).H_plus, False),
    "z d": (lambda g: _block1(Z * D), False),
    "(1+2i) d db": (lambda g: _block1(D * DBAR * crat(1, 2)), False),
}


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("case", list(_DTYPE_CASES))
def test_discretize_is_real_exactly_when_no_entry_is_imaginary(case, n):
    # a block operator whose every term is real (d^c db^c stencils, real
    # coefficients, z^a zb^a multipliers) is stored as float64, any other as
    # complex128; every entry is that of the complex build, whose imaginary
    # parts are round-off in the real cases, to a few ulps of the largest
    build, real = _DTYPE_CASES[case]
    grid = GridSpec(5.0, n)
    op = build(grid)
    mat, ref = discretize(op, grid), _complex_reference(op, grid)
    assert mat.dtype == (np.float64 if real else np.complex128)
    scale = max_abs(ref)
    ulps = 4.0 * np.finfo(float).eps * scale
    assert (max_abs(ref.imag) > ulps) != real
    assert max_abs(mat - ref) <= ulps
    assert mat.has_sorted_indices


@pytest.mark.parametrize("power", [1, 2, 3])
def test_the_multiplier_of_z_a_zb_a_is_real(power):
    # (x^2 + y^2)^a, with no round-off imaginary part, where z^a * zb^a
    # leaves one; a leftover power of z or zb stays complex
    zs = GridSpec(5.0, 25).nodes()
    mult = _multiplier(zs, power, power)
    product = zs ** power * np.conj(zs) ** power
    assert mult.dtype == np.float64
    assert np.abs(mult - product).max() <= 4.0 * np.finfo(float).eps * np.abs(product).max()
    for a, b in ((power + 1, power), (power, power + 2)):
        mixed = _multiplier(zs, a, b)
        assert mixed.dtype == np.complex128
        exact = zs ** a * np.conj(zs) ** b
        assert np.abs(mixed - exact).max() <= 8.0 * np.finfo(float).eps * np.abs(exact).max()


def test_wirtinger_stencils_are_real_exactly_when_c_equals_d():
    # d^c db^c is (Laplacian / 4)^c: its imaginary binomial terms cancel
    # exactly, and d db is the sum of the two axis second differences / 4
    g = GridSpec(5.0, 24)
    for c in range(3):
        for d in range(3):
            assert _wirtinger_matrix(g, c, d).dtype == (np.float64 if c == d
                                                        else np.complex128)
    eye = sp.identity(g.n, format="csr")
    laplacian = (sp.kron(eye, _axis_power(g, 2)) + sp.kron(_axis_power(g, 2), eye)) * 0.25
    assert (_wirtinger_matrix(g, 1, 1) != laplacian).nnz == 0


def test_norms_invariant_under_quarter_rotation():
    g = GridSpec(5.0, 64)
    f = sample(g, gaussian(1, {(1, 1): crat(1), (0, 0): crat(2)}))
    rotated = sample(g, lambda z: evaluate(gaussian(
        1, {(1, 1): crat(1), (0, 0): crat(2)}), 1j * z))
    assert abs(f.norm() - rotated.norm()) <= 1e-12
    assert abs(f.norm() ** 2 - abs(f.inner(f))) <= 1e-12


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_field_csv_round_trip(tmp_path):
    # the one CSV writer: a header, then every value exactly, read back by csv
    g = GridSpec(4.0, 12)
    f = sample(g, [gaussian(1), gaussian(2)])
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "re", "im"]
    assert [int(r[0]) for r in rows[1:]] == list(range(f.values.size))
    back = np.array([complex(float(re), float(im)) for _, re, im in rows[1:]])
    assert np.array_equal(f.values, back)


def test_max_abs_dense_and_sparse():
    dense = np.array([[0.0, -2.0], [2.0 + 2.0j, 1.0]])
    assert max_abs(dense) == max_abs(sp.csr_matrix(dense)) == abs(2.0 + 2.0j)
    assert max_abs(sp.csr_matrix((3, 3))) == 0.0
    assert max_abs(np.zeros((0, 0))) == 0.0
