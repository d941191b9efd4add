"""Exact checks of the normal-ordered operator calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from dil import (BlockOperator, GridSpec, ShapeError, adjoint,
                 block_gaussian_apply, compose, crat, gaussian,
                 gaussian_apply, gaussian_inner, monomial, normal_order,
                 parse_expression, render_expression, sample)
from dil.opcalc import (D, DBAR, ONE, OperatorExpression, OperatorTerm, Z,
                        ZBAR, ZERO)
from dil.selftest import random_block, random_expression, random_gaussian

DEFECT = BlockOperator.from_rows([[D, ZBAR], [Z, DBAR]])
CORE = monomial(-1, pow_d=1, pow_dbar=1) + monomial(1, 1, 1, 0, 0)
H_MINUS_CLOSED = BlockOperator.from_rows([[CORE, monomial(-1)], [monomial(-1), CORE]])
H_PLUS_CLOSED = BlockOperator.from_rows([[CORE, ZERO], [ZERO, CORE]])


# --------------------------------------------------------------------------
# normal ordering
# --------------------------------------------------------------------------

def test_normal_order_defining_commutator():
    # d z = z d + 1
    assert D * Z == monomial(1, 1, 0, 1, 0) + ONE


def test_normal_order_leaves_ordered_product_alone():
    assert Z * D == monomial(1, 1, 0, 1, 0)


def test_normal_order_returns_raw_terms_one_per_signature():
    # d^2 db z^2 zb = (z^2 d^2 + 4 z d + 2)(zb db + 1), one term per (k, l)
    terms = normal_order(OperatorTerm(crat(1), 0, 0, 2, 1),
                         OperatorTerm(crat(1), 2, 1, 0, 0))
    assert len({t.signature for t in terms}) == len(terms) == 6
    assert OperatorExpression.from_terms(terms) == (
        monomial(1, 2, 1, 2, 1) + monomial(1, 2, 0, 2, 0) + monomial(4, 1, 1, 1, 1)
        + monomial(4, 1, 0, 1, 0) + monomial(2, 0, 1, 0, 1) + monomial(2))


def _apply_term_to_poly(term: OperatorTerm, poly: dict) -> dict:
    """Independent oracle: act on a plain (z, zb) polynomial coefficient dict."""
    out = dict(poly)
    for _ in range(term.pow_d):
        nxt = {}
        for (i, j), c in out.items():
            if i > 0:
                nxt[(i - 1, j)] = nxt.get((i - 1, j), 0) + c * i
        out = nxt
    for _ in range(term.pow_dbar):
        nxt = {}
        for (i, j), c in out.items():
            if j > 0:
                nxt[(i, j - 1)] = nxt.get((i, j - 1), 0) + c * j
        out = nxt
    shifted = {}
    for (i, j), c in out.items():
        shifted[(i + term.pow_z, j + term.pow_zbar)] = c * complex(term.coeff)
    return {k: v for k, v in shifted.items() if v != 0}


def _apply_expression_to_poly(e: OperatorExpression, poly: dict) -> dict:
    acc: dict = {}
    for t in e.terms:
        for k, v in _apply_term_to_poly(t, poly).items():
            acc[k] = acc.get(k, 0) + v
    return {k: v for k, v in acc.items() if v != 0}


def test_normal_order_dbar_zbar_squared_against_polynomial_oracle():
    # db zb^2 should equal zb^2 db + 2 zb when applied to zb^k, k = 0..3
    product = DBAR * monomial(1, pow_zbar=2)
    claimed = monomial(1, 0, 2, 0, 1) + monomial(2, 0, 1, 0, 0)
    assert product == claimed
    zb2 = OperatorTerm(crat(1), 0, 2, 0, 0)
    db = OperatorTerm(crat(1), 0, 0, 0, 1)
    for k in range(4):
        test_poly = {(0, k): 1.0}
        sequential = _apply_term_to_poly(db, _apply_term_to_poly(zb2, test_poly))
        composed = _apply_expression_to_poly(product, test_poly)
        assert sequential == composed


def test_normal_order_random_against_polynomial_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a = random_expression(rng)
        b = random_expression(rng)
        poly = {(rng.randint(0, 2), rng.randint(0, 2)): 1.0 + 0.5j}
        sequential = _apply_expression_to_poly(a, _apply_expression_to_poly(b, poly))
        composed = _apply_expression_to_poly(a * b, poly)
        assert set(sequential) == set(composed)
        for key in sequential:
            assert sequential[key] == pytest.approx(composed[key], abs=1e-12)


def test_canonicalization_is_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        e = random_expression(rng)
        assert OperatorExpression.from_terms(e.terms) == e


def test_one_canonicalization_per_product(monkeypatch):
    # every result entry is canonicalized once, from all of its raw terms
    rng = random.Random(3)
    a, b = random_block(rng), random_block(rng)
    calls = []
    canonical = OperatorExpression.from_terms

    def counted(terms):
        calls.append(1)
        return canonical(terms)

    monkeypatch.setattr(OperatorExpression, "from_terms", staticmethod(counted))
    counts = []
    for product in (lambda: compose(a, b), lambda: adjoint(a),
                    lambda: a.entry(0, 0) * b.entry(0, 0)):
        calls.clear()
        product()
        counts.append(len(calls))
    assert counts == [4, 4, 1]


def test_canonical_form_merges_and_drops_zeros():
    t = OperatorTerm(crat(2), 1, 0, 0, 0)
    u = OperatorTerm(crat(-2), 1, 0, 0, 0)
    assert OperatorExpression.from_terms([t, u]) == ZERO
    assert (Z + Z) == monomial(2, 1, 0, 0, 0)


# --------------------------------------------------------------------------
# composition
# --------------------------------------------------------------------------

def test_compose_identity_law():
    eye = BlockOperator.identity(2)
    assert compose(eye, DEFECT) == DEFECT
    assert compose(DEFECT, eye) == DEFECT


def test_compose_partner_hamiltonian_closed_forms():
    assert compose(adjoint(DEFECT), DEFECT) == H_MINUS_CLOSED
    assert compose(DEFECT, adjoint(DEFECT)) == H_PLUS_CLOSED


def test_closed_forms_against_gaussian_oracle():
    # the symbolic products must act like sequential application
    rng = random.Random(3)
    for _ in range(5):
        top = random_gaussian(rng)
        fs = [top, gaussian(top.alpha, {(1, 1): crat(1), (0, 0): crat(1, 1)})]
        once = block_gaussian_apply(H_MINUS_CLOSED, fs)
        twice = block_gaussian_apply(adjoint(DEFECT), block_gaussian_apply(DEFECT, fs))
        assert once == twice
        once_p = block_gaussian_apply(H_PLUS_CLOSED, fs)
        twice_p = block_gaussian_apply(DEFECT, block_gaussian_apply(adjoint(DEFECT), fs))
        assert once_p == twice_p


def test_compose_associative_on_random_triples():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = random_block(rng), random_block(rng), random_block(rng)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_dimension_mismatch():
    tall = BlockOperator.from_rows([[Z], [D]])
    with pytest.raises(ShapeError):
        compose(tall, tall)


# --------------------------------------------------------------------------
# adjoint
# --------------------------------------------------------------------------

def test_adjoint_of_defect_operator():
    expected = BlockOperator.from_rows([[-1 * DBAR, ZBAR], [Z, -1 * D]])
    assert adjoint(DEFECT) == expected


def test_adjoint_is_involutive():
    assert adjoint(adjoint(DEFECT)) == DEFECT


def test_adjoint_of_compact_perturbation_block():
    c = Fraction(19, 100)
    k_block = BlockOperator.from_rows([[ZERO, ZBAR.scale(c)], [ZERO, ZERO]])
    expected = BlockOperator.from_rows([[ZERO, ZERO], [Z.scale(c), ZERO]])
    assert adjoint(k_block) == expected


def test_adjoint_anti_homomorphism_and_involution_on_100_random_operators():
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_block(rng), random_block(rng)
        assert adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))
        assert adjoint(adjoint(a)) == a


def test_adjoint_exact_inner_product_identity():
    # <adjoint(A) u, v> == <u, A v> via exact Gaussian moment integrals
    rng = random.Random(23)
    for _ in range(30):
        a = random_expression(rng)
        u, v = random_gaussian(rng), random_gaussian(rng)
        lhs = gaussian_inner(gaussian_apply(adjoint(a), u), v)
        rhs = gaussian_inner(u, gaussian_apply(a, v))
        assert lhs == rhs


def test_adjoint_integration_by_parts_on_grid():
    # numeric quadrature oracle: Riemann sums of the symbolically applied
    # pair must agree to well below 1e-6 on a large grid
    grid = GridSpec(6.0, 128)
    h2 = grid.h ** 2
    rng = random.Random(29)
    for _ in range(5):
        a = random_expression(rng)
        u, v = random_gaussian(rng), random_gaussian(rng)
        au = sample(grid, gaussian_apply(adjoint(a), u))
        av = sample(grid, gaussian_apply(a, v))
        us = sample(grid, u)
        vs = sample(grid, v)
        lhs = h2 * np.vdot(au.values, vs.values)
        rhs = h2 * np.vdot(us.values, av.values)
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(rhs))


# --------------------------------------------------------------------------
# gaussian application
# --------------------------------------------------------------------------

def test_gaussian_chain_rule():
    assert gaussian_apply(D, gaussian(1)) == gaussian(1, {(0, 1): crat(-1)})


def test_defect_annihilates_unperturbed_gaussian_pair():
    pair = [gaussian(1), gaussian(1)]
    assert all(g.is_zero for g in block_gaussian_apply(DEFECT, pair))


def test_perturbed_defect_annihilates_scaled_pair_exactly():
    # alpha^2 = 1 - c with c = 19/100 gives alpha = 9/10, exactly rational
    c = Fraction(19, 100)
    alpha = Fraction(9, 10)
    assert alpha ** 2 == 1 - c
    d_eps = BlockOperator.from_rows([[D, ZBAR.scale(1 - c)], [Z, DBAR]])
    pair = [gaussian(alpha, {(0, 0): crat(alpha)}), gaussian(alpha)]
    assert all(g.is_zero for g in block_gaussian_apply(d_eps, pair))
    # a detuned decay rate must not be annihilated
    bad = [gaussian(1, {(0, 0): crat(1)}), gaussian(1)]
    assert not all(g.is_zero for g in block_gaussian_apply(d_eps, bad))


def test_gaussian_apply_is_linear():
    rng = random.Random(31)
    for _ in range(30):
        e = random_expression(rng)
        f = random_gaussian(rng)
        g = gaussian(f.alpha, {(0, 1): crat(2), (1, 0): crat(-1, 1)})
        assert gaussian_apply(e, f + g) == gaussian_apply(e, f) + gaussian_apply(e, g)


def test_gaussian_apply_consistent_with_compose():
    rng = random.Random(37)
    for _ in range(30):
        a, b = random_expression(rng), random_expression(rng)
        f = random_gaussian(rng)
        assert gaussian_apply(a * b, f) == gaussian_apply(a, gaussian_apply(b, f))


def test_gaussian_inner_norm_value():
    assert gaussian_inner(gaussian(1), gaussian(1)) == crat(Fraction(1, 2))


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def test_render_matches_documented_format():
    e = monomial(-1, pow_zbar=1)
    assert render_expression(e) == "(-1+0i)*z^0*zb^1*d^0*db^0"
    assert render_expression(ZERO) == "0"


def test_render_round_trips_through_parser():
    rng = random.Random(41)
    for _ in range(100):
        e = random_expression(rng)
        assert parse_expression(render_expression(e)) == e


def test_render_fractional_complex_coefficients():
    e = monomial(crat(Fraction(7, 10), Fraction(-1, 3)), 2, 1, 1, 0)
    text = render_expression(e)
    assert text == "(7/10-1/3i)*z^2*zb^1*d^1*db^0"
    assert parse_expression(text) == e


@pytest.mark.parametrize("half", [0.5, "1/2", Fraction(1, 2), crat(Fraction(1, 2))])
def test_every_scalar_route_takes_the_same_scalars(half):
    expected = monomial(Fraction(1, 2), pow_z=1)
    assert Z.scale(half) == Z * half == half * Z == monomial(half, pow_z=1) == expected
    assert render_expression(Z * half) == "(1/2+0i)*z^1*zb^0*d^0*db^0"
    assert gaussian(1).scale(half) == gaussian(1, {(0, 0): half})
    assert DEFECT.scale(half).entry(1, 0) == expected


@pytest.mark.parametrize("bad", [True, None, 1j, object()])
def test_scalar_coercion_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        Z.scale(bad)
    with pytest.raises(TypeError):
        Z * bad
    with pytest.raises(TypeError):
        gaussian(1).scale(bad)
    with pytest.raises(TypeError):
        monomial(bad)


def test_parser_rejects_garbage():
    for text in ("(1+0i)*z^1*zb", "(1/0+0i)*z^0*zb^0*d^0*db^0",
                 "(1-1/00i)*z^0*zb^0*d^0*db^0"):
        with pytest.raises(ValueError):
            parse_expression(text)
