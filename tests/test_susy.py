"""Defect operator construction, quartet algebra, and the graded layer."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dil import (BlockOperator, Field, GradedOperator, GradedVector,
                 GridSpec, ModelError, ModelSpec, Parity, ParityError,
                 ShapeError, block_gaussian_apply, build_defect_operator,
                 build_operator_set, build_susy_quartet,
                 compact_perturbation, compose, crat, discretize, gaussian,
                 graded_apply, monomial, operator_set_from_block,
                 parity_classify, physical_state_embed, project, sample)
from dil.opcalc import D, DBAR, Z, ZBAR, ZERO

SMALL = GridSpec(4.0, 12)


def _dense_w(half: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(half), -np.ones(half)]))


# --------------------------------------------------------------------------
# model spec and operator construction
# --------------------------------------------------------------------------

def test_model_spec_rejects_bad_couplings():
    with pytest.raises(ModelError):
        ModelSpec(epsilon=2, f1_value=1)  # eps*f1 >= 1
    with pytest.raises(ModelError):
        ModelSpec(epsilon=-1)
    with pytest.raises(ModelError):
        ModelSpec(t=0)
    with pytest.raises(ModelError):
        # linear part fine, series pushes the defect past 1
        ModelSpec(epsilon="0.9", f1_value=1, f1_series=("0.5",))


def test_model_spec_exact_decimal_coercion():
    spec = ModelSpec(epsilon=0.19, f1_value=1)
    assert spec.mass_defect() == Fraction(19, 100)


def test_model_spec_payload_lists_only_what_enters_the_operator():
    assert ModelSpec(epsilon="0.3").to_json_dict() == {
        "t": 1.0, "epsilon": 0.3, "f1": 1.0, "f1_series": [], "mass_defect": 0.3}


def test_unperturbed_defect_operator():
    assert build_defect_operator(ModelSpec()) == BlockOperator.from_rows(
        [[D, ZBAR], [Z, DBAR]])


def test_perturbed_defect_operator_multiplier():
    spec = ModelSpec(epsilon=0.3, f1_value=1)
    expected = BlockOperator.from_rows(
        [[D, ZBAR.scale(Fraction(7, 10))], [Z, DBAR]])
    assert build_defect_operator(spec) == expected


def test_defect_split_into_compact_perturbation():
    spec = ModelSpec(epsilon=0.3, f1_value=1)
    k_op = compact_perturbation(spec)
    assert build_defect_operator(spec) - build_defect_operator(ModelSpec()) == k_op
    # strictly upper triangular: only the (0, 1) block entry survives
    assert k_op.entry(0, 0) == ZERO
    assert k_op.entry(1, 0) == ZERO
    assert k_op.entry(1, 1) == ZERO
    assert k_op.entry(0, 1) == ZBAR.scale(Fraction(-3, 10))


def test_higher_order_multiplier_series():
    # c = eps*f1 + eps^2*s0 + eps^3*s1, all exact
    spec = ModelSpec(epsilon="0.5", f1_value="0.5",
                     f1_series=(Fraction(1, 4), Fraction(1, 2)))
    expected = Fraction(1, 4) + Fraction(1, 4) ** 2 + Fraction(1, 2) * Fraction(1, 8)
    assert spec.mass_defect() == expected
    op = build_defect_operator(spec)
    assert op.entry(0, 1) == ZBAR.scale(1 - expected)


def test_symbolic_partner_hamiltonians():
    op_set = build_operator_set(ModelSpec(), SMALL)
    core = monomial(-1, pow_d=1, pow_dbar=1) + monomial(1, 1, 1, 0, 0)
    assert op_set.H_minus == BlockOperator.from_rows(
        [[core, monomial(-1)], [monomial(-1), core]])
    assert op_set.H_plus == BlockOperator.from_rows([[core, ZERO], [ZERO, core]])
    assert op_set.H_minus == compose(op_set.D_adj, op_set.D)
    assert op_set.H_plus == compose(op_set.D, op_set.D_adj)


def test_operator_set_discretizes_each_matrix_on_first_read(monkeypatch):
    import dil.susy as susy_mod

    calls = []

    def counting_discretize(op, grid):
        calls.append(op)
        return discretize(op, grid)

    monkeypatch.setattr(susy_mod, "discretize", counting_discretize)
    op_set = build_operator_set(ModelSpec(), SMALL)
    assert calls == []
    first = op_set.H_minus_mat
    assert op_set.H_minus_mat is first
    assert calls == [op_set.H_minus]
    assert (first != discretize(op_set.H_minus, SMALL)).nnz == 0


def test_kernel_pair_alpha_is_exact_square_root():
    # gaussian_apply(D(spec), (alpha, 1) e^{-alpha|z|^2}) = 0 iff alpha^2 = 1 - c
    spec = ModelSpec(epsilon=0.19, f1_value=1)
    alpha = Fraction(9, 10)
    assert alpha ** 2 == 1 - spec.mass_defect()
    pair = [gaussian(alpha, {(0, 0): crat(alpha)}), gaussian(alpha)]
    out = block_gaussian_apply(build_defect_operator(spec), pair)
    assert all(g.is_zero for g in out)


# --------------------------------------------------------------------------
# quartet
# --------------------------------------------------------------------------

def test_quartet_block_structure_identities(desk_quartet):
    q = desk_quartet
    # structural nilpotency and the anticommutator are exact, not approximate
    assert (q.Q @ q.Q).nnz == 0
    assert (q.Q_dag @ q.Q_dag).nnz == 0
    assert (q.Q @ q.Q_dag + q.Q_dag @ q.Q - q.Ham).nnz == 0
    w2 = (q.W @ q.W - sp.identity(q.dim, dtype=complex, format="csr"))
    assert w2.nnz == 0


def test_quartet_parities(desk_quartet):
    q = desk_quartet
    assert parity_classify(q.Ham, q.W) is Parity.EVEN
    assert parity_classify(q.Q, q.W) is Parity.ODD
    assert parity_classify(q.Q_dag, q.W) is Parity.ODD


def test_quartet_requires_square_matrix():
    with pytest.raises(ShapeError):
        build_susy_quartet(sp.csr_matrix((4, 6), dtype=complex))


def test_doubled_compact_perturbation_is_odd():
    k_mat = discretize(compact_perturbation(ModelSpec(epsilon=0.3, f1_value=1)), SMALL)
    n = k_mat.shape[0]
    zero = sp.csr_matrix((n, n), dtype=complex)
    doubled = sp.bmat([[zero, k_mat], [zero, zero]], format="csr")
    w = sp.diags(np.concatenate([np.ones(n), -np.ones(n)])).tocsr()
    assert parity_classify(doubled, w) is Parity.ODD


def test_parity_classify_indefinite():
    rng = np.random.default_rng(0)
    half = 6
    w = _dense_w(half)
    b = rng.standard_normal((2 * half, 2 * half))
    assert parity_classify(b, w) is Parity.INDEFINITE


def test_parity_classify_refuses_a_shape_mismatch_and_calls_zero_even():
    with pytest.raises(ShapeError, match="does not match grading"):
        parity_classify(np.eye(4), _dense_w(3))
    assert parity_classify(np.zeros((6, 6)), _dense_w(3)) is Parity.EVEN
    assert parity_classify(sp.csr_matrix((6, 6)), sp.csr_matrix(_dense_w(3))) is Parity.EVEN


def test_operator_set_needs_a_square_block():
    with pytest.raises(ShapeError, match="square"):
        operator_set_from_block(BlockOperator.from_rows([[D, ZBAR]]), SMALL)


# --------------------------------------------------------------------------
# graded vectors and operators
# --------------------------------------------------------------------------

def _random_graded_vector(rng, grid, m=2) -> GradedVector:
    half = m * grid.num_nodes
    vec = rng.standard_normal(2 * half) + 1j * rng.standard_normal(2 * half)
    return GradedVector.from_vector(grid, m, vec)


def test_project_parity_eigenstates():
    rng = np.random.default_rng(1)
    g = GridSpec(4.0, 8)
    v = _random_graded_vector(rng, g)
    plus = project(v, +1)
    minus = project(v, -1)
    assert np.all(plus.minus.values == 0)
    assert np.all(minus.plus.values == 0)
    # P+ of a pure-plus state is the state; P- of it is zero
    assert np.array_equal(project(plus, +1).to_vector(), plus.to_vector())
    assert np.all(project(plus, -1).to_vector() == 0)
    # resolution of identity
    assert np.array_equal(plus.to_vector() + minus.to_vector(), v.to_vector())


def test_graded_vector_refuses_mismatched_sectors():
    g = GridSpec(4.0, 8)
    with pytest.raises(ShapeError, match="share grid"):
        GradedVector(Field.zeros(g, 1), Field.zeros(GridSpec(5.0, 8), 1))
    with pytest.raises(ShapeError, match="doubled vector"):
        GradedVector.from_vector(g, 1, np.zeros(2 * g.num_nodes + 1, dtype=complex))


def test_project_refuses_a_sign_that_is_not_one():
    v = GradedVector.from_vector(SMALL, 1, np.ones(2 * SMALL.num_nodes, dtype=complex))
    with pytest.raises(ValueError, match="sign"):
        project(v, 0)


def test_physical_state_embedding():
    g = GridSpec(4.0, 16)
    pair = sample(g, [gaussian(1), gaussian(1)])
    psi = physical_state_embed(pair)
    assert np.all(psi.plus.values == 0)
    assert np.array_equal(psi.minus.values, pair.values)
    # W eigenvalue -1 on the embedded state
    half = 2 * g.num_nodes
    w = sp.diags(np.concatenate([np.ones(half), -np.ones(half)]))
    assert np.array_equal(np.asarray(w @ psi.to_vector()), -psi.to_vector())
    # embed then project(-) is the identity on the pair
    assert np.array_equal(project(psi, -1).minus.values, pair.values)
    # zero field embeds to the zero graded vector
    zero = physical_state_embed(Field.zeros(g, 2))
    assert zero.norm() == 0.0


def test_physical_state_embed_needs_two_components():
    g = GridSpec(4.0, 8)
    with pytest.raises(ShapeError):
        physical_state_embed(Field.zeros(g, 1))


def _random_even_odd(rng, half):
    w = _dense_w(half)
    b = rng.standard_normal((2 * half, 2 * half)) + 1j * rng.standard_normal((2 * half, 2 * half))
    even = 0.5 * (b + w @ b @ w)
    odd = 0.5 * (b - w @ b @ w)
    return even, odd, w


def test_graded_apply_module_table():
    rng = np.random.default_rng(2)
    g = GridSpec(4.0, 8)
    m = 2
    half = m * g.num_nodes
    even, odd, w = _random_even_odd(rng, half)
    a_even = GradedOperator.classify(even, w)
    a_odd = GradedOperator.classify(odd, w)
    assert a_even.parity is Parity.EVEN
    assert a_odd.parity is Parity.ODD

    v = project(_random_graded_vector(rng, g, m), +1)  # pure plus
    out_even = graded_apply(a_even, v)
    assert np.all(out_even.minus.values == 0)
    assert np.any(out_even.plus.values != 0)

    out_odd = graded_apply(a_odd, v)
    assert np.all(out_odd.plus.values == 0)
    assert np.any(out_odd.minus.values != 0)


def test_odd_times_odd_classifies_even():
    rng = np.random.default_rng(3)
    _, odd, w = _random_even_odd(rng, 32)
    assert parity_classify(odd @ odd, w) is Parity.EVEN


def test_graded_apply_rejects_indefinite_and_leaky_operators():
    rng = np.random.default_rng(4)
    g = GridSpec(4.0, 8)
    half = 2 * g.num_nodes
    even, odd, w = _random_even_odd(rng, half)
    v = _random_graded_vector(rng, g)
    mixed = GradedOperator(even + odd, Parity.INDEFINITE)
    with pytest.raises(ParityError):
        graded_apply(mixed, v)
    # operator tagged even but carrying an odd part leaks across sectors
    mislabeled = GradedOperator(even + 0.1 * odd, Parity.EVEN)
    with pytest.raises(ParityError):
        graded_apply(mislabeled, v)


def test_graded_apply_refuses_a_shape_mismatch():
    rng = np.random.default_rng(6)
    g = GridSpec(4.0, 8)
    even, _, w = _random_even_odd(rng, 3)
    with pytest.raises(ShapeError, match="does not match vector"):
        graded_apply(GradedOperator.classify(even, w), _random_graded_vector(rng, g))


def test_graded_apply_matches_plain_matvec():
    rng = np.random.default_rng(5)
    g = GridSpec(4.0, 8)
    half = 2 * g.num_nodes
    even, _, w = _random_even_odd(rng, half)
    a = GradedOperator.classify(even, w)
    v = _random_graded_vector(rng, g)
    out = graded_apply(a, v)
    direct = even @ v.to_vector()
    assert np.allclose(out.to_vector(), direct, atol=1e-12)
