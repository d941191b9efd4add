"""Seeded exact self-test of the operator calculus.

Every check here is decided with exact rational equality; a single failure
names the identity that broke.  The random operators are drawn from a
seeded generator so the CLI run is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .opcalc import (BlockOperator, D, DBAR, GaussianAnsatz,
                     OperatorExpression, OperatorTerm, Z, ZBAR, adjoint,
                     block_gaussian_apply, compose, crat, gaussian,
                     gaussian_apply, monomial, parse_expression,
                     render_expression)
from .susy import ModelSpec, build_defect_operator


def random_expression(rng: random.Random) -> OperatorExpression:
    """1 to 3 monomials with small rational coefficients and powers up to 2."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = crat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        terms.append(OperatorTerm(coeff, rng.randint(0, 2), rng.randint(0, 2),
                                  rng.randint(0, 2), rng.randint(0, 2)))
    return OperatorExpression.from_terms(terms)


def random_block(rng: random.Random) -> BlockOperator:
    """2x2 block of random expressions, drawn row by row."""
    return BlockOperator.from_rows(
        [[random_expression(rng) for _ in range(2)] for _ in range(2)])


def random_gaussian(rng: random.Random) -> GaussianAnsatz:
    """Ansatz with a rational decay rate and a polynomial part with constant 1."""
    alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    poly = {(rng.randint(0, 2), rng.randint(0, 2)):
            crat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
    poly[(0, 0)] = crat(1)  # keep it nonzero
    return gaussian(alpha, poly)


def run_selftest(seed: int = 0) -> dict:
    """Exercise the exact identities on 100 random operator triples; returns a
    JSON-ready summary."""
    trials = 100
    rng = random.Random(seed)
    checks: dict[str, bool] = {}

    defect = build_defect_operator(ModelSpec())
    defect_adj = adjoint(defect)

    core = monomial(-1, pow_d=1, pow_dbar=1) + monomial(1, 1, 1, 0, 0)
    h_minus_expected = BlockOperator.from_rows([[core, monomial(-1)],
                                                [monomial(-1), core]])
    h_plus_expected = BlockOperator.from_rows([[core, monomial(0)],
                                               [monomial(0), core]])
    checks["h_minus_closed_form"] = compose(defect_adj, defect) == h_minus_expected
    checks["h_plus_closed_form"] = compose(defect, defect_adj) == h_plus_expected
    checks["adjoint_of_defect"] = defect_adj == BlockOperator.from_rows(
        [[-1 * DBAR, ZBAR], [Z, -1 * D]])

    ok_inv = ok_anti = ok_assoc = ok_render = True
    for _ in range(trials):
        a, b, c = random_block(rng), random_block(rng), random_block(rng)
        ok_inv &= adjoint(adjoint(a)) == a
        ok_anti &= adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))
        ok_assoc &= compose(compose(a, b), c) == compose(a, compose(b, c))
        e = random_expression(rng)
        ok_render &= parse_expression(render_expression(e)) == e
    checks["adjoint_involutive"] = ok_inv
    checks["adjoint_anti_multiplicative"] = ok_anti
    checks["compose_associative"] = ok_assoc
    checks["render_round_trip"] = ok_render

    ok_linear = ok_chain = True
    for _ in range(trials // 4):
        e1, e2 = random_expression(rng), random_expression(rng)
        f = random_gaussian(rng)
        g = gaussian(f.alpha, {(1, 0): crat(1)})
        ok_linear &= gaussian_apply(e1, f + g) == (
            gaussian_apply(e1, f) + gaussian_apply(e1, g))
        ok_chain &= gaussian_apply(e1 * e2, f) == gaussian_apply(
            e1, gaussian_apply(e2, f))
    checks["gaussian_apply_linear"] = ok_linear
    checks["gaussian_apply_compose_consistent"] = ok_chain

    zero_pair = [gaussian(1), gaussian(1)]
    checks["defect_annihilates_gaussian_pair"] = all(
        g.is_zero for g in block_gaussian_apply(defect, zero_pair))

    identity = BlockOperator.identity(2)
    checks["identity_law"] = (compose(identity, defect) == defect
                              and compose(defect, identity) == defect)

    return {
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "all_passed": all(checks.values()),
    }
