"""Exact calculus for normal-ordered Wirtinger differential operators.

Every operator handled here is a finite sum of monomials

    coeff * z^a * zb^b * d^c * db^d

in one complex coordinate z, where ``d`` and ``db`` are the Wirtinger
derivatives d/dz and d/dzbar and all multiplication factors stand to the
left of all differentiations (normal order).  Products are reduced with the
commutation rules

    [d, z] = 1,    [db, zb] = 1,    [d, zb] = [db, z] = 0,

and coefficients are exact complex rationals, so operator identities such as
the closed forms of the partner Hamiltonians or the involutivity of the
formal adjoint are decided by equality instead of by a floating tolerance.

The formal adjoint is the L2 one: z -> zb (as multiplication), d -> -db,
db -> -d, coefficients conjugated, factor order reversed.

Monomials applied to Gaussian ansatz functions poly(z, zb) * exp(-a*|z|^2)
stay inside that family; ``gaussian_apply`` performs the application exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ShapeError

RationalLike = Union[int, str, Fraction, float]


def as_fraction(x: RationalLike) -> Fraction:
    """Exact rational from an int, Fraction, string, or decimal float.

    Floats go through their shortest decimal repr, so ``as_fraction(0.19)``
    is 19/100 rather than the binary expansion of the double.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return ComplexRational(self.re * other.re - self.im * other.im,
                                   self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return ComplexRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def crat(re: RationalLike = 0, im: RationalLike = 0) -> ComplexRational:
    """Convenience constructor for exact complex rationals."""
    return ComplexRational(as_fraction(re), as_fraction(im))


C_ZERO = ComplexRational()
C_ONE = ComplexRational(Fraction(1))


def as_scalar(x: RationalLike | ComplexRational) -> ComplexRational:
    """Exact complex scalar from a ComplexRational or any ``as_fraction`` input.

    The one coercion behind every scalar argument: ``scale``, ``*`` with an
    expression, ``monomial`` and the ``gaussian`` coefficients.
    """
    return x if isinstance(x, ComplexRational) else crat(x)


@dataclass(frozen=True)
class OperatorTerm:
    """One normal-ordered monomial coeff * z^a * zb^b * d^c * db^d."""

    coeff: ComplexRational
    pow_z: int = 0
    pow_zbar: int = 0
    pow_d: int = 0
    pow_dbar: int = 0

    def __post_init__(self):
        for name in ("pow_z", "pow_zbar", "pow_d", "pow_dbar"):
            p = getattr(self, name)
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {p!r}")

    @property
    def signature(self) -> tuple[int, int, int, int]:
        return (self.pow_z, self.pow_zbar, self.pow_d, self.pow_dbar)

    @property
    def derivative_order(self) -> int:
        return self.pow_d + self.pow_dbar


@dataclass(frozen=True)
class OperatorExpression:
    """Canonical sum of normal-ordered monomials.

    Terms are sorted by power signature, signatures are unique, and no term
    has a zero coefficient, so ``==`` decides operator equality.  Build
    instances through :meth:`from_terms` (or the arithmetic operators), which
    canonicalize; the raw constructor trusts its input.
    """

    terms: tuple[OperatorTerm, ...] = ()

    @staticmethod
    def from_terms(terms: Iterable[OperatorTerm]) -> "OperatorExpression":
        acc: dict[tuple[int, int, int, int], ComplexRational] = {}
        for t in terms:
            sig = t.signature
            acc[sig] = acc.get(sig, C_ZERO) + t.coeff
        return OperatorExpression(tuple(
            OperatorTerm(c, *sig) for sig, c in sorted(acc.items()) if not c.is_zero))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def derivative_order(self) -> int:
        return max((t.derivative_order for t in self.terms), default=0)

    @property
    def is_multiplication(self) -> bool:
        """True when the expression contains no derivatives at all."""
        return all(t.derivative_order == 0 for t in self.terms)

    def scale(self, c) -> "OperatorExpression":
        c = as_scalar(c)
        if c.is_zero:
            return OperatorExpression()
        return OperatorExpression(tuple(
            OperatorTerm(t.coeff * c, *t.signature) for t in self.terms))

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        return OperatorExpression.from_terms(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpression") -> "OperatorExpression":
        return self + (-other)

    def __neg__(self) -> "OperatorExpression":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, OperatorExpression):
            return OperatorExpression.from_terms(
                t for a in self.terms for b in other.terms
                for t in normal_order(a, b))
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    # only a scalar reaches __rmul__, and scalars commute with everything
    __rmul__ = __mul__

    def __str__(self) -> str:
        return render_expression(self)


def monomial(coeff: RationalLike | ComplexRational = 1, pow_z: int = 0,
             pow_zbar: int = 0, pow_d: int = 0, pow_dbar: int = 0) -> OperatorExpression:
    c = as_scalar(coeff)
    if c.is_zero:
        return OperatorExpression()
    return OperatorExpression((OperatorTerm(c, pow_z, pow_zbar, pow_d, pow_dbar),))


ZERO = OperatorExpression()
ONE = monomial(1)
Z = monomial(1, pow_z=1)
ZBAR = monomial(1, pow_zbar=1)
D = monomial(1, pow_d=1)
DBAR = monomial(1, pow_dbar=1)


def normal_order(left: OperatorTerm, right: OperatorTerm) -> list[OperatorTerm]:
    """Normal-ordered terms of the operator product ``left @ right``.

    Uses d^m z^n = sum_k k! C(m,k) C(n,k) z^(n-k) d^(m-k) in each Wirtinger
    sector; the (z, d) and (zb, db) sectors commute with each other.  Each
    signature appears once; callers canonicalize a whole result with ``from_terms``.
    """
    base = left.coeff * right.coeff
    out = []
    for k in range(min(left.pow_d, right.pow_z) + 1):
        ck = math.comb(left.pow_d, k) * math.comb(right.pow_z, k) * math.factorial(k)
        for l in range(min(left.pow_dbar, right.pow_zbar) + 1):
            cl = math.comb(left.pow_dbar, l) * math.comb(right.pow_zbar, l) * math.factorial(l)
            out.append(OperatorTerm(
                base * (ck * cl),
                left.pow_z + right.pow_z - k,
                left.pow_zbar + right.pow_zbar - l,
                left.pow_d + right.pow_d - k,
                left.pow_dbar + right.pow_dbar - l))
    return out


def expression_adjoint(e: OperatorExpression) -> OperatorExpression:
    """Formal L2 adjoint of an expression, normal-ordered.

    (c z^a zb^b d^p db^q)+  =  conj(c) (-db)^p (-d)^q zb^a z^b,
    reversed and reduced back to normal order term by term.
    """
    return OperatorExpression.from_terms(
        t for u in e.terms for t in normal_order(
            OperatorTerm(u.coeff.conjugate() * (-1) ** u.derivative_order,
                         0, 0, u.pow_dbar, u.pow_d),
            OperatorTerm(C_ONE, u.pow_zbar, u.pow_z, 0, 0)))


@dataclass(frozen=True)
class BlockOperator:
    """Rectangular matrix of operator expressions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[OperatorExpression, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError("block dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[OperatorExpression]]) -> "BlockOperator":
        nr = len(rows)
        nc = len(rows[0])
        if any(len(r) != nc for r in rows):
            raise ShapeError("ragged block rows")
        return BlockOperator(nr, nc, tuple(e for r in rows for e in r))

    @staticmethod
    def identity(n: int) -> "BlockOperator":
        return BlockOperator(n, n, tuple(
            ONE if i == j else ZERO for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> OperatorExpression:
        return self.entries[i * self.cols + j]

    def scale(self, c) -> "BlockOperator":
        return BlockOperator(self.rows, self.cols,
                             tuple(e.scale(c) for e in self.entries))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("block shapes differ")
        return BlockOperator(self.rows, self.cols, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + other.scale(-1)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        return compose(self, other)


def compose(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    """Block matrix product with every scalar product normal-ordered."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    return BlockOperator(a.rows, b.cols, tuple(
        OperatorExpression.from_terms(
            t for k in range(a.cols)
            for x in a.entry(i, k).terms for y in b.entry(k, j).terms
            for t in normal_order(x, y))
        for i in range(a.rows) for j in range(b.cols)))


def adjoint(a):
    """Formal L2 adjoint of an expression or a block operator.

    Blocks are conjugate-transposed entrywise; each entry picks up the sign
    flips d -> -db, db -> -d required by integration by parts.
    """
    if isinstance(a, OperatorExpression):
        return expression_adjoint(a)
    if isinstance(a, BlockOperator):
        entries = tuple(expression_adjoint(a.entry(i, j))
                        for j in range(a.cols) for i in range(a.rows))
        return BlockOperator(a.cols, a.rows, entries)
    raise TypeError(f"adjoint expects an expression or block operator, got {type(a)!r}")


# ---------------------------------------------------------------------------
# Gaussian ansatz family: poly(z, zb) * exp(-alpha |z|^2)
# ---------------------------------------------------------------------------

PolyDict = dict[tuple[int, int], ComplexRational]


@dataclass(frozen=True)
class GaussianAnsatz:
    """poly(z, zb) * exp(-alpha*|z|^2) with exact rational data.

    alpha must be a positive rational; poly is stored as a sorted tuple of
    ((pow_z, pow_zbar), coeff) pairs with zero coefficients dropped, so
    dataclass equality is semantic equality.
    """

    alpha: Fraction
    poly: tuple[tuple[tuple[int, int], ComplexRational], ...]

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("gaussian decay rate must be positive")

    @property
    def poly_dict(self) -> PolyDict:
        return dict(self.poly)

    @property
    def is_zero(self) -> bool:
        return not self.poly

    def scale(self, c) -> "GaussianAnsatz":
        c = as_scalar(c)
        return gaussian(self.alpha, {k: v * c for k, v in self.poly})

    def __add__(self, other: "GaussianAnsatz") -> "GaussianAnsatz":
        if self.alpha != other.alpha:
            raise ValueError("cannot add ansatz functions with different decay rates")
        acc = self.poly_dict
        for k, v in other.poly:
            acc[k] = acc.get(k, C_ZERO) + v
        return gaussian(self.alpha, acc)

    def __sub__(self, other: "GaussianAnsatz") -> "GaussianAnsatz":
        return self + other.scale(-1)

    def evaluate(self, zs):
        """Numeric values at complex points (scalar or ndarray)."""
        zs = np.asarray(zs, dtype=complex)
        out = np.zeros_like(zs)
        for (i, j), c in self.poly:
            out = out + complex(c) * zs ** i * np.conj(zs) ** j
        return out * np.exp(-float(self.alpha) * np.abs(zs) ** 2)


def gaussian(alpha: RationalLike,
             poly: Mapping[tuple[int, int], ComplexRational | RationalLike] | None = None
             ) -> GaussianAnsatz:
    """Build a GaussianAnsatz; default polynomial part is the constant 1."""
    if poly is None:
        poly = {(0, 0): C_ONE}
    items = []
    for key, val in poly.items():
        c = as_scalar(val)
        if not c.is_zero:
            items.append(((int(key[0]), int(key[1])), c))
    items.sort(key=lambda kv: kv[0])
    return GaussianAnsatz(as_fraction(alpha), tuple(items))


def _poly_wirtinger(p: PolyDict, alpha: Fraction, axis: int) -> PolyDict:
    # d(p e^{-a z zb}) = (dp - a zb p) e^{-a z zb} for axis 0; axis 1 (db)
    # swaps the roles of z and zb
    down = (1, 0) if axis == 0 else (0, 1)
    out: PolyDict = {}
    for (i, j), c in p.items():
        power = (i, j)[axis]
        if power > 0:
            key = (i - down[0], j - down[1])
            out[key] = out.get(key, C_ZERO) + c * power
        key = (i + down[1], j + down[0])
        out[key] = out.get(key, C_ZERO) + c * (-alpha)
    return {k: v for k, v in out.items() if not v.is_zero}


def gaussian_apply(a: OperatorExpression, f: GaussianAnsatz) -> GaussianAnsatz:
    """Exact application of a normal-ordered expression to a Gaussian ansatz."""
    acc: PolyDict = {}
    for t in a.terms:
        p = f.poly_dict
        for axis, power in ((0, t.pow_d), (1, t.pow_dbar)):
            for _ in range(power):
                p = _poly_wirtinger(p, f.alpha, axis)
        for (i, j), v in p.items():
            key = (i + t.pow_z, j + t.pow_zbar)
            acc[key] = acc.get(key, C_ZERO) + v * t.coeff
    return gaussian(f.alpha, acc)


def block_gaussian_apply(a: BlockOperator,
                         fs: Sequence[GaussianAnsatz]) -> list[GaussianAnsatz]:
    """Apply a block operator to a vector of ansatz functions (same alpha)."""
    if len(fs) != a.cols:
        raise ShapeError(f"operator has {a.cols} columns, vector has {len(fs)}")
    alphas = {f.alpha for f in fs}
    if len(alphas) != 1:
        raise ValueError("ansatz components must share one decay rate")
    out = []
    for i in range(a.rows):
        row = gaussian(fs[0].alpha, {})
        for j in range(a.cols):
            row = row + gaussian_apply(a.entry(i, j), fs[j])
        out.append(row)
    return out


def gaussian_inner(f: GaussianAnsatz, g: GaussianAnsatz) -> ComplexRational:
    """Exact L2 inner product <f, g> over the plane, divided by pi.

    Uses the moment integral over the plane: the integral of
    z^m zb^n exp(-s|z|^2) vanishes unless m = n, where it equals
    pi * m! / s^(m+1).  The result is an exact complex rational because
    both decay rates are rational.
    """
    s = f.alpha + g.alpha
    total = C_ZERO
    for (a, b), cf in f.poly:
        for (c, dd), cg in g.poly:
            m = b + c
            if m != a + dd:
                continue
            total = total + cf.conjugate() * cg * (Fraction(math.factorial(m)) / s ** (m + 1))
    return total


def evaluate_multiplication(e: OperatorExpression, zs):
    """Numeric values of a derivative-free expression at complex points."""
    if not e.is_multiplication:
        raise ValueError("expression contains derivatives; not a multiplication operator")
    zs = np.asarray(zs, dtype=complex)
    out = np.zeros_like(zs)
    for t in e.terms:
        out = out + complex(t.coeff) * zs ** t.pow_z * np.conj(zs) ** t.pow_zbar
    return out


# ---------------------------------------------------------------------------
# Canonical plain-text rendering, round-trippable for golden fixtures
# ---------------------------------------------------------------------------

def render_expression(e: OperatorExpression) -> str:
    if e.is_zero:
        return "0"
    return " + ".join(f"{t.coeff}*z^{t.pow_z}*zb^{t.pow_zbar}*d^{t.pow_d}*db^{t.pow_dbar}"
                      for t in e.terms)


def render_block(a: BlockOperator) -> list[list[str]]:
    return [[render_expression(a.entry(i, j)) for j in range(a.cols)]
            for i in range(a.rows)]


# denominators are nonzero, so a bad fraction fails the match, not Fraction()
_TERM_RE = re.compile(
    r"^\((-?\d+(?:/0*[1-9]\d*)?)([+-]\d+(?:/0*[1-9]\d*)?)i\)"
    r"\*z\^(\d+)\*zb\^(\d+)\*d\^(\d+)\*db\^(\d+)$")


def parse_expression(text: str) -> OperatorExpression:
    """Inverse of :func:`render_expression` on canonical output."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms = []
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"unparseable operator term: {chunk!r}")
        re_s, im_s, pz, pzb, pd, pdb = m.groups()
        coeff = ComplexRational(Fraction(re_s), Fraction(im_s))
        terms.append(OperatorTerm(coeff, int(pz), int(pzb), int(pd), int(pdb)))
    return OperatorExpression.from_terms(terms)
