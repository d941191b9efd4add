"""Exact checks of the normal-ordered operator calculus."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dil import opcalc
from dil import (BlockOperator, GridSpec, ModelSpec, ShapeError, adjoint,
                 block_gaussian_apply, compose, crat, gaussian,
                 gaussian_apply, gaussian_inner, monomial, normal_order,
                 parse_expression, render_expression, sample)
from dil.opcalc import (D, DBAR, ONE, ComplexRational, GaussianAnsatz, OperatorExpression,
                        OperatorTerm, Z, ZBAR, ZERO, as_fraction, render_block)
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
    # every result entry is one call of the product kernel, which reduces
    # each signature once; no product goes through from_terms
    rng = random.Random(3)
    a, b = random_block(rng), random_block(rng)
    kernel_calls, from_terms_calls = [], []
    kernel, canonical = opcalc._products, OperatorExpression.from_terms

    def counted_kernel(pairs):
        kernel_calls.append(1)
        return kernel(pairs)

    def counted_from_terms(terms):
        from_terms_calls.append(1)
        return canonical(terms)

    monkeypatch.setattr(opcalc, "_products", counted_kernel)
    monkeypatch.setattr(OperatorExpression, "from_terms", staticmethod(counted_from_terms))
    counts = []
    for product in (lambda: compose(a, b), lambda: adjoint(a),
                    lambda: a.entry(0, 0) * b.entry(0, 0)):
        kernel_calls.clear()
        product()
        counts.append(len(kernel_calls))
    assert counts == [4, 4, 1]
    assert not from_terms_calls


# --------------------------------------------------------------------------
# term-by-term reference for the product kernel: each raw term of each pair
# is built with ComplexRational arithmetic, then the sum is canonicalized
# --------------------------------------------------------------------------

def _reference_contractions(m: int, n: int) -> list[tuple[int, int]]:
    return [(k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
            for k in range(min(m, n) + 1)]


def _reference_normal_order(left: OperatorTerm, right: OperatorTerm) -> list[OperatorTerm]:
    base = left.coeff * right.coeff
    pz, pzb = left.pow_z + right.pow_z, left.pow_zbar + right.pow_zbar
    pd, pdb = left.pow_d + right.pow_d, left.pow_dbar + right.pow_dbar
    return [OperatorTerm(base * (ck * cl), pz - k, pzb - l, pd - k, pdb - l)
            for k, ck in _reference_contractions(left.pow_d, right.pow_z)
            for l, cl in _reference_contractions(left.pow_dbar, right.pow_zbar)]


def _reference_product(x: OperatorExpression, y: OperatorExpression) -> OperatorExpression:
    return OperatorExpression.from_terms(
        t for u in x.terms for v in y.terms for t in _reference_normal_order(u, v))


def _reference_compose(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    return BlockOperator(a.rows, b.cols, tuple(
        OperatorExpression.from_terms(
            t for k in range(a.cols)
            for u in a.entry(i, k).terms for v in b.entry(k, j).terms
            for t in _reference_normal_order(u, v))
        for i in range(a.rows) for j in range(b.cols)))


def _reference_adjoint(a: BlockOperator) -> BlockOperator:
    def entry(e: OperatorExpression) -> OperatorExpression:
        return OperatorExpression.from_terms(
            t for u in e.terms for t in _reference_normal_order(
                OperatorTerm(u.coeff.conjugate() * (-1) ** (u.pow_d + u.pow_dbar),
                             0, 0, u.pow_dbar, u.pow_d),
                OperatorTerm(crat(1), u.pow_zbar, u.pow_z, 0, 0)))
    return BlockOperator(a.cols, a.rows, tuple(
        entry(a.entry(i, j)) for j in range(a.cols) for i in range(a.rows)))


def _reference_entry(rng: random.Random) -> OperatorExpression:
    """ZERO, a quarter-and-ninth pair, or up to four terms with powers up to 3."""
    powers = lambda: [rng.randint(0, 3) for _ in range(4)]  # noqa: E731
    draw = rng.random()
    if draw < 0.15:
        return ZERO
    if draw < 0.35:
        return (monomial(crat(Fraction(rng.choice((-3, -1, 1, 3)), 4)), *powers())
                + monomial(crat(0, Fraction(rng.choice((-2, -1, 1, 2)), 9)), *powers()))
    return OperatorExpression.from_terms(
        OperatorTerm(crat(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6, 9))),
                          Fraction(rng.randint(-5, 5), rng.choice((1, 2, 4, 9)))),
                     *powers())
        for _ in range(rng.randint(1, 4)))


def _reference_block(rng: random.Random) -> BlockOperator:
    if rng.random() < 0.1:
        return BlockOperator.identity(2)
    return BlockOperator.from_rows([[_reference_entry(rng) for _ in range(2)] for _ in range(2)])


def _assert_same(got, expected):
    assert got == expected
    if isinstance(got, BlockOperator):
        assert render_block(got) == render_block(expected)
    else:
        assert render_expression(got) == render_expression(expected)


def test_product_kernel_matches_term_by_term_reference_on_edge_cases():
    half = monomial(Fraction(1, 2))
    # z d - z d cancels to ZERO; 1/2 + 1/2 reduces to 1; d z - z d is 1
    a = BlockOperator.from_rows([[Z, Z], [half, half]])
    b = BlockOperator.from_rows([[D, ONE], [-1 * D, ONE]])
    assert compose(a, b).entry(0, 0) == ZERO
    assert compose(a, b).entry(1, 1) == ONE
    commutator = compose(BlockOperator.from_rows([[D, Z]]),
                         BlockOperator.from_rows([[Z], [-1 * D]]))
    assert commutator.entry(0, 0) == ONE
    quarter_ninth = monomial(Fraction(1, 4), pow_z=3) + monomial(crat(0, Fraction(1, 9)), 0, 3, 3, 1)
    c = BlockOperator.from_rows([[quarter_ninth, ZERO], [ZERO, quarter_ninth]])
    eye = BlockOperator.identity(2)
    for x, y in ((a, b), (b, a), (eye, c), (c, eye), (c, c), (eye, eye),
                 (BlockOperator.from_rows([[D, Z]]), BlockOperator.from_rows([[Z], [-1 * D]]))):
        _assert_same(compose(x, y), _reference_compose(x, y))
        _assert_same(adjoint(x), _reference_adjoint(x))
    for x in (ZERO, ONE, half + half, quarter_ninth, D - D):
        for y in (ZERO, ONE, quarter_ninth, Z + ZBAR):
            _assert_same(x * y, _reference_product(x, y))


def test_product_kernel_matches_term_by_term_reference_on_random_blocks():
    rng = random.Random(47)
    kinds = {"zero": 0, "identity": 0, "quarter_ninth": 0, "power_3": 0}
    for _ in range(120):
        a, b = _reference_block(rng), _reference_block(rng)
        _assert_same(compose(a, b), _reference_compose(a, b))
        _assert_same(adjoint(a), _reference_adjoint(a))
        i, j, k, m = (rng.randint(0, 1) for _ in range(4))
        _assert_same(a.entry(i, j) * b.entry(k, m), _reference_product(a.entry(i, j), b.entry(k, m)))
        for block in (a, b):
            kinds["identity"] += block == BlockOperator.identity(2)
            for e in block.entries:
                kinds["zero"] += e.is_zero
                denominators = {t.coeff.re.denominator for t in e.terms} | {
                    t.coeff.im.denominator for t in e.terms}
                kinds["quarter_ninth"] += {4, 9} <= denominators
                kinds["power_3"] += any(3 in t.signature for t in e.terms)
    assert all(kinds.values()), kinds


def _one_form(values):
    # equal values of one stored form: equal, one hash, one repr and one terms
    first = values[0]
    for v in values:
        assert v == first
        assert hash(v) == hash(first)
        assert repr(v) == repr(first)
        assert v.terms == first.terms
    assert len(set(values)) == 1


def test_every_route_to_an_expression_reaches_one_form():
    quarter, third = Fraction(1, 4), Fraction(1, 3)
    e = monomial(Fraction(1, 2), pow_z=1) + monomial(crat(0, third), 0, 1, 1, 0)
    tail = OperatorTerm(crat(0, third), 0, 1, 1, 0)
    # z/4 (1 + d/4) + z/4 (1 - d/4): 1/4 + 1/4 over the common denominator 16
    over_16 = compose(
        BlockOperator.from_rows([[monomial(quarter, pow_z=1), monomial(quarter, pow_z=1)]]),
        BlockOperator.from_rows([[ONE + monomial(quarter, pow_d=1)],
                                 [ONE - monomial(quarter, pow_d=1)]])).entry(0, 0)
    assert over_16 == monomial(Fraction(1, 2), pow_z=1)
    # the stored form itself: without the kernel's gcd it would be 8/16
    assert (over_16._den, over_16._num) == (2, {(1, 0, 0, 0): (1, 0)})
    half_e = monomial(quarter, pow_z=1) + monomial(crat(0, Fraction(1, 6)), 0, 1, 1, 0)
    _one_form([
        e,
        OperatorExpression.from_terms([OperatorTerm(crat(quarter), 1, 0, 0, 0), tail,
                                       OperatorTerm(crat(quarter), 1, 0, 0, 0)]),
        OperatorExpression([tail, OperatorTerm(crat(Fraction(1, 2)), 1, 0, 0, 0)]),
        parse_expression(render_expression(e)),
        half_e * monomial(2),
        monomial(2) * half_e,
        half_e.scale(crat(1, 1)).scale(crat(1, -1)),
        2 * half_e,
        adjoint(adjoint(e)),
        compose(BlockOperator.from_rows([[e]]), BlockOperator.identity(1)).entry(0, 0),
        over_16 + monomial(crat(0, third), 0, 1, 1, 0),
        (e + e) - e,
        -(-e),
        e - ZERO,
        ZERO + e,
    ])
    _one_form([
        ZERO,
        OperatorExpression(),
        OperatorExpression.from_terms([]),
        OperatorExpression.from_terms([tail, OperatorTerm(-tail.coeff, *tail.signature)]),
        parse_expression("0"),
        monomial(0, pow_z=2),
        e - e,
        e + (-e),
        e.scale(0),
        0 * e,
        ZERO * e,
        e * ZERO,
        adjoint(ZERO),
        compose(BlockOperator.from_rows([[Z, Z]]),
                BlockOperator.from_rows([[D], [-1 * D]])).entry(0, 0),
    ])
    assert (ZERO._den, ZERO._num) == (1, {})
    assert ZERO.is_zero and not e.is_zero


def test_product_repr_and_terms_match_an_eager_build():
    # terms is built on each read; it must be what from_terms over the
    # term-by-term reference holds: the same sorted tuple of reduced coefficients
    assert repr(D * Z) == (
        "OperatorExpression(terms=(OperatorTerm(coeff=ComplexRational(re=Fraction(1, 1), "
        "im=Fraction(0, 1)), pow_z=0, pow_zbar=0, pow_d=0, pow_dbar=0), "
        "OperatorTerm(coeff=ComplexRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
        "pow_z=1, pow_zbar=0, pow_d=1, pow_dbar=0)))")
    assert repr(ZERO) == "OperatorExpression(terms=())"
    rng = random.Random(53)
    for _ in range(40):
        a, b = _reference_block(rng), _reference_block(rng)
        x, y = a.entry(0, 0), b.entry(1, 1)
        for got, eager in ((x * y, _reference_product(x, y)),
                           (compose(a, b).entry(0, 1), _reference_compose(a, b).entry(0, 1)),
                           (adjoint(a).entry(1, 0), _reference_adjoint(a).entry(1, 0))):
            assert got.terms == eager.terms
            assert repr(got) == repr(eager)
            assert [t.signature for t in got.terms] == sorted(t.signature for t in got.terms)
            for t in got.terms:
                c = t.coeff
                assert type(t) is OperatorTerm and not c.is_zero
                assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1


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
    with pytest.raises(TypeError):
        adjoint(object())


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


def test_every_route_to_an_ansatz_reaches_one_form():
    # the ansatz holds its polynomial as an expression, so equal functions
    # hold equal ints, whatever route built them
    quarter, eighth, sixteenth = Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)
    target = gaussian(1, {(0, 1): eighth, (2, 0): crat(0, Fraction(1, 3))})
    # zb/4 (1/4) - d (1/4 e^{-|z|^2}) = (1/16 + 1/16) zb: 1/4 * 1/4 twice over
    # the common denominator 16
    over_16 = gaussian_apply(monomial(quarter, pow_zbar=1) - monomial(quarter, pow_d=1),
                             gaussian(1, {(0, 0): quarter}))
    assert over_16 == gaussian(1, {(0, 1): eighth})
    # the stored form itself: without gaussian_apply's gcd it would be 2/16
    assert (over_16.factor._den, over_16.factor._num) == (8, {(0, 1, 0, 0): (1, 0)})
    twice = gaussian_apply(2 * D, gaussian(Fraction(1, 2)))
    assert (twice.factor._den, twice.factor._num) == (1, {(0, 1, 0, 0): (-1, 0)})
    third = gaussian(1, {(2, 0): crat(0, Fraction(1, 3))})
    routes = [
        target,
        gaussian("1", {(2, 0): crat(0, Fraction(2, 6)), (0, 1): "1/8", (3, 3): 0}),
        GaussianAnsatz(Fraction(1), monomial(eighth, pow_zbar=1) + monomial(crat(0, "1/3"), 2)),
        gaussian(1, {(0, 1): sixteenth, (2, 0): crat(0, Fraction(1, 6))})
        + gaussian(1, {(0, 1): sixteenth, (2, 0): crat(0, Fraction(1, 6))}),
        over_16 + third,
        gaussian(1, {(0, 1): crat(1, 1), (2, 0): crat(Fraction(-8, 3), Fraction(8, 3))})
        .scale(crat(sixteenth, -sixteenth)),
        gaussian(1, {(0, 1): 1, (2, 0): crat(0, Fraction(8, 3))}).scale(eighth),
        gaussian_apply(ONE, target),
        gaussian_apply(monomial(quarter) + monomial(3 * quarter), target),
    ]
    for f in routes:
        assert f == target and hash(f) == hash(target)
        assert f.poly == (((0, 1), crat(eighth)), ((2, 0), crat(0, Fraction(1, 3))))
    assert len(set(routes)) == 1
    assert gaussian(1, {(0, 0): 0}).is_zero and gaussian(1, {}) == target.scale(0)
    assert target != gaussian(2, {(0, 1): eighth, (2, 0): crat(0, Fraction(1, 3))})


def test_an_ansatz_refuses_a_derivative_or_a_decay_rate_that_is_not_positive():
    for factor in (D, Z + DBAR, monomial(1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="derivatives"):
            GaussianAnsatz(Fraction(1), factor)
    for alpha in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            GaussianAnsatz(Fraction(alpha), ONE)
        with pytest.raises(ValueError, match="positive"):
            gaussian(alpha)


@pytest.mark.parametrize("bad", [1.5, True, -1])
def test_gaussian_refuses_a_power_that_is_no_non_negative_int(bad):
    # a power is checked as OperatorTerm checks it, not cast: 1.5 must not
    # become 1, nor True 1, and a power of -1 would make gaussian_apply(D, .)
    # return z^-2 and z^-1 zb terms
    for key in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match="non-negative integer"):
            gaussian(1, {key: 1})


def test_an_ansatz_takes_its_decay_rate_through_as_fraction():
    # a float rate was stored as a float, and gaussian_apply then failed on
    # its missing numerator
    f = GaussianAnsatz(0.5, ONE)
    assert type(f.alpha) is Fraction and f == gaussian(Fraction(1, 2))
    assert gaussian_apply(D, f) == gaussian_apply(D, gaussian(Fraction(1, 2))) == (
        gaussian(Fraction(1, 2), {(0, 1): Fraction(-1, 2)}))


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
    assert crat(1) * half == half * crat(1) == crat(Fraction(1, 2))


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
    with pytest.raises(TypeError):
        ComplexRational(bad)
    with pytest.raises(TypeError):
        crat(1) * bad
    with pytest.raises(TypeError):
        bad * crat(1)


def test_numpy_integers_are_exact_integers():
    # GridSpec takes numpy integers for n, and so do the exact scalars; a
    # numpy bool is refused like a bool
    two = np.int64(2)
    assert as_fraction(two) == 2 and type(as_fraction(two).numerator) is int
    assert ModelSpec(t=two) == ModelSpec(t=2)
    assert hash(ModelSpec(t=two)) == hash(ModelSpec(t=2))
    assert crat(np.int32(3), np.uint8(2)) == crat(3, 2)
    assert Z * two == Z.scale(2)
    for bad in (True, np.bool_(True)):
        with pytest.raises(TypeError):
            as_fraction(bad)
        with pytest.raises(TypeError):
            ModelSpec(t=bad)


def test_parser_rejects_garbage():
    for text in ("(1+0i)*z^1*zb", "(1/0+0i)*z^0*zb^0*d^0*db^0",
                 "(1-1/00i)*z^0*zb^0*d^0*db^0"):
        with pytest.raises(ValueError):
            parse_expression(text)


# --------------------------------------------------------------------------
# public term contract and coefficient representation
# --------------------------------------------------------------------------

@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [-1, 1.0, "1", None, True, False])
def test_operator_term_rejects_bad_powers(position, bad):
    powers = [0, 1, 2, 0]
    powers[position] = bad
    with pytest.raises(ValueError):
        OperatorTerm(crat(1), *powers)


@pytest.mark.parametrize("coeff", [1, Fraction(1, 2), 0.5])
def test_operator_term_takes_its_coefficient_through_as_scalar(coeff):
    # an int coefficient was stored as an int, and from_terms then failed
    t = OperatorTerm(coeff, 1, 0, 0, 0)
    assert t == OperatorTerm(crat(coeff), 1, 0, 0, 0)
    assert type(t.coeff) is ComplexRational
    assert OperatorExpression.from_terms([t]) == monomial(crat(coeff), pow_z=1)
    with pytest.raises(TypeError):
        OperatorTerm(None, 1, 0, 0, 0)


def test_operator_term_takes_numpy_integer_powers_as_ints():
    # numpy integers are integers here as for every exact scalar; a numpy
    # bool, a numpy float and a negative numpy integer are refused
    for p in (np.int64(2), np.int32(2)):
        t = OperatorTerm(crat(1), p, p, p, p)
        assert all(type(q) is int for q in t.signature)
        assert t == OperatorTerm(crat(1), 2, 2, 2, 2)
        assert hash(t) == hash(OperatorTerm(crat(1), 2, 2, 2, 2))
    assert monomial(1, np.int64(1)) == Z
    assert gaussian(1, {(np.int32(1), 0): 1}) == gaussian(1, {(1, 0): 1})
    for bad in (np.bool_(True), np.float64(1.0), np.int64(-1)):
        with pytest.raises(ValueError, match="non-negative integer"):
            OperatorTerm(crat(1), 0, bad)


@pytest.mark.parametrize("field, value", [("coeff", 1), ("pow_z", -1), ("pow_zbar", 2),
                                          ("pow_d", 1), ("pow_dbar", 1)])
def test_operator_term_is_immutable(field, value):
    # a field set after the checked constructor would reach from_terms unchecked
    t = OperatorTerm(crat(1), 1)
    with pytest.raises(AttributeError):
        setattr(t, field, value)
    assert t == OperatorTerm(crat(1), 1) and OperatorExpression.from_terms([t]) == Z


# --------------------------------------------------------------------------
# refusal paths of blocks, ansatz vectors and expressions
# --------------------------------------------------------------------------

def test_block_operator_refuses_a_bad_shape():
    with pytest.raises(ShapeError, match="positive"):
        BlockOperator(0, 1, ())
    with pytest.raises(ShapeError, match="expected 4 entries"):
        BlockOperator(2, 2, (Z, D, Z))
    # six entries in three rows of two, but ragged
    with pytest.raises(ShapeError, match="ragged"):
        BlockOperator.from_rows([[Z, D], [Z], [D, Z, ONE]])
    with pytest.raises(ShapeError, match="shapes differ"):
        BlockOperator.from_rows([[Z, D]]) + BlockOperator.from_rows([[Z], [D]])


def test_block_gaussian_apply_refuses_a_bad_vector():
    with pytest.raises(ShapeError, match="columns"):
        block_gaussian_apply(DEFECT, [gaussian(1)])
    with pytest.raises(ValueError, match="share one decay rate"):
        block_gaussian_apply(DEFECT, [gaussian(1), gaussian(2)])
    with pytest.raises(ValueError, match="different decay rates"):
        gaussian(1) + gaussian(2)


def test_expression_equals_only_an_expression_and_prints_its_rendering():
    e = Z * D + ONE.scale(crat(Fraction(1, 2), -3))
    assert (e == 1) is False and (ONE == 1) is False
    assert str(e) == render_expression(e)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 36))


def test_complex_rational_agrees_with_a_fraction_pair_reference():
    rng = random.Random(43)
    for _ in range(400):
        p, q, r, s = (_random_fraction(rng) for _ in range(4))
        x, y = crat(p, q), crat(r, s)
        n = rng.randint(-12, 12)
        for value, (re, im) in (
                (x + y, (p + r, q + s)),
                (x - y, (p - r, q - s)),
                (x * y, (p * r - q * s, p * s + q * r)),
                (-x, (-p, -q)),
                (x.conjugate(), (p, -q)),
                (x * n, (p * n, q * n)),
                (n * x, (p * n, q * n)),
                (x * r, (p * r, q * r)),
                (r * x, (p * r, q * r))):
            assert (value.re, value.im) == (re, im)
            assert value == ComplexRational(re, im) == crat(re, im)
            assert hash(value) == hash((re, im))
            assert value.is_zero == (re == 0 and im == 0)
            for part in (value.re, value.im):
                assert type(part) is Fraction
                assert part.denominator > 0
                assert math.gcd(part.numerator, part.denominator) == 1
            sign = "+" if im >= 0 else "-"
            assert str(value) == f"({re}{sign}{abs(im)}i)"
            assert repr(value) == f"ComplexRational(re={re!r}, im={im!r})"
            assert complex(value) == complex(float(re), float(im))


def test_equal_values_share_one_representation():
    half = crat(Fraction(1, 2), 0)
    assert crat(Fraction(2, 4), 0) == half
    assert hash(crat(Fraction(2, 4), 0)) == hash(half)
    assert crat(Fraction(1, 4)) + crat(Fraction(1, 4)) == half
    assert hash(crat(Fraction(1, 4)) + crat(Fraction(1, 4))) == hash(half)
    assert crat(Fraction(3, 2), Fraction(1, 2)) - crat(1, Fraction(1, 2)) == half
    assert crat(1, 1) * crat(1, -1) == crat(2) == 2 * crat(1)
    assert crat(3, 4) + crat(-3, -4) == ComplexRational() == crat(0)
    assert str(ComplexRational()) == "(0+0i)"
    assert repr(crat(Fraction(-6, 4), 2)) == \
        "ComplexRational(re=Fraction(-3, 2), im=Fraction(2, 1))"
    assert crat(1) != 1 and crat(1) != Fraction(1)
    # floats take their shortest decimal repr, not the binary expansion
    assert ComplexRational(0.1) == crat("0.1") == crat(Fraction(1, 10))


def _render_gaussian(f) -> str:
    return f"{f.alpha}|" + " + ".join(f"{c}*z^{i}*zb^{j}" for (i, j), c in f.poly)


# sha256 of the corpus below; a change means the golden-fixture format moved
RENDERED_CORPUS_SHA256 = "c7a2eda6825095d80a389add343063c84f2889acd91c6eb9d29975bb047ee48b"


def test_rendered_outputs_are_pinned():
    rng = random.Random(2029)
    lines = []
    for _ in range(30):
        a, b = random_block(rng), random_block(rng)
        e1, e2 = random_expression(rng), random_expression(rng)
        f = random_gaussian(rng)
        g = gaussian(f.alpha, dict(random_gaussian(rng).poly))
        lines += [" | ".join(row) for row in render_block(compose(a, b))]
        lines += [" | ".join(row) for row in render_block(adjoint(a))]
        lines.append(render_expression(e1 * e2))
        lines.append(_render_gaussian(gaussian_apply(e1, f)))
        lines += [_render_gaussian(h) for h in block_gaussian_apply(a, [f, g])]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == RENDERED_CORPUS_SHA256
