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

A coefficient is three ints: a Gaussian-integer numerator a + b*i over one
denominator d > 0 with gcd(a, b, d) = 1 (Knuth, TAOCP vol. 2, 4.5.1).  An
expression is stored the same way, as one denominator den > 0 and a dict
{signature: (a, b)} of Gaussian-integer numerators with no zero entry and
gcd(den, every a, every b) = 1, so equal operators have equal ints.  Every
product (``compose``, ``*``, ``adjoint`` and ``normal_order``) runs through one
kernel, ``_products``: it reads each factor's stored form, adds every
contraction of every (left, right) pair of a result entry as plain ints over
one common denominator, and divides the sum through by one gcd, so there is
one gcd per product entry and no sort.  Rendering reads the stored ints
too; :mod:`dil.lattice` turns them into floating-point numbers.  Every
``OperatorTerm`` passes its one constructor, which checks and coerces its
coefficient and powers, and is immutable; ``terms`` is a view, the sorted
tuple of terms with reduced coefficients, built through that constructor on
each read.

The formal adjoint is the L2 one: z -> zb (as multiplication), d -> -db,
db -> -d, coefficients conjugated, factor order reversed.

A Gaussian ansatz function poly(z, zb) * exp(-a*|z|^2) holds its polynomial
as a derivative-free expression in the same stored form, so its sums, scaling
and equality are the expression's.  Monomials applied to it stay inside that
family; ``gaussian_apply`` performs the application exactly, carrying the
polynomial's Gaussian-integer numerators through every Wirtinger step over one
denominator and dividing the result through by one gcd.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ShapeError

RationalLike = Union[int, str, Fraction, float]


def as_fraction(x: RationalLike) -> Fraction:
    """Exact rational from a non-bool Integral, Fraction, string, or float.

    Floats go through their shortest decimal repr, so ``as_fraction(0.19)``
    is 19/100 rather than the binary expansion of the double.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, numbers.Integral):
        x = int(x)
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class ComplexRational:
    """Exact complex number with rational real and imaginary parts.

    Stored as private ints (a, b, d), meaning (a + b*i)/d with d > 0 and
    gcd(a, b, d) = 1, so each value has one form.  Immutable by convention.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        re, im = as_fraction(re), as_fraction(im)
        return _reduced(re.numerator * im.denominator, im.numerator * re.denominator,
                        re.denominator * im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return self + -other

    def __neg__(self) -> "ComplexRational":
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            n = other.numerator
            return _reduced(self._a * n, self._b * n, self._d * other.denominator)
        if type(other) is not ComplexRational:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexRational":
        return _reduced(self._a, -self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __eq__(self, other):
        if type(other) is not ComplexRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        sign = "+" if self._b >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _reduced(a: int, b: int, d: int) -> ComplexRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    c = object.__new__(ComplexRational)
    c._a, c._b, c._d = a, b, d
    return c


crat = ComplexRational

C_ZERO = ComplexRational()
C_ONE = ComplexRational(1)


def as_scalar(x: RationalLike | ComplexRational) -> ComplexRational:
    """Exact complex scalar from a ComplexRational or any ``as_fraction`` input.

    The one coercion behind every scalar argument: ``scale``, ``*`` with an
    expression, and the coefficient of every ``OperatorTerm``.
    """
    return x if isinstance(x, ComplexRational) else ComplexRational(x)


_TERM_FIELDS = ("coeff", "pow_z", "pow_zbar", "pow_d", "pow_dbar")
_term_values = attrgetter(*("_" + name for name in _TERM_FIELDS))


def _power(name: str, p) -> int:
    """A power of a term as an int: a non-negative int or numpy integer."""
    if type(p) is not int and isinstance(p, np.integer):
        p = int(p)
    if type(p) is not int or p < 0:  # a bool is no power
        raise ValueError(f"{name} must be a non-negative integer, got {p!r}")
    return p


class OperatorTerm:
    """Normal-ordered monomial coeff * z^a * zb^b * d^c * db^d; immutable.

    Every term passes this one constructor: ``coeff`` goes through
    ``as_scalar``, and each power must be a non-negative int or numpy
    integer (not a bool), and is stored as an int.  The fields are
    read-only properties over private slots.
    """

    __slots__ = tuple("_" + name for name in _TERM_FIELDS)

    def __init__(self, coeff: RationalLike | ComplexRational, pow_z: int = 0,
                 pow_zbar: int = 0, pow_d: int = 0, pow_dbar: int = 0):
        self._coeff = as_scalar(coeff)
        self._pow_z = _power("pow_z", pow_z)
        self._pow_zbar = _power("pow_zbar", pow_zbar)
        self._pow_d = _power("pow_d", pow_d)
        self._pow_dbar = _power("pow_dbar", pow_dbar)

    coeff, pow_z, pow_zbar, pow_d, pow_dbar = (
        property(attrgetter("_" + name)) for name in _TERM_FIELDS)
    signature = property(attrgetter("_pow_z", "_pow_zbar", "_pow_d", "_pow_dbar"))

    def __eq__(self, other):
        if type(other) is not OperatorTerm:
            return NotImplemented
        return _term_values(self) == _term_values(other)

    def __hash__(self) -> int:
        return hash(_term_values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, _TERM_FIELDS, _term_values(self))
        return f"OperatorTerm({', '.join(fields)})"


# Gaussian-integer numerators over one denominator: (den, {(pow_z, pow_zbar,
# pow_d, pow_dbar): (a, b)}) is the sum of (a + b*i)/den * z^.. zb^.. d^.. db^..
# An expression's stored form is one, reduced; the product kernel also takes
# unreduced ones
Signature = tuple[int, int, int, int]
IntegerForm = tuple[int, Mapping[Signature, tuple[int, int]]]


class OperatorExpression:
    """Canonical sum of normal-ordered monomials.

    Stored as ints ``(den, {signature: (a, b)})``: den > 0, no entry is
    zero and gcd(den, every a, every b) = 1.  Each operator has one such
    form, so ``==`` and ``hash`` compare ints.  ``terms`` is a view: the
    sorted tuple of ``OperatorTerm``s with reduced coefficients, built on
    each read.  Immutable by convention; ``OperatorExpression(terms)``
    canonicalizes like :meth:`from_terms`.
    """

    __slots__ = ("_den", "_num")

    def __new__(cls, terms: Iterable[OperatorTerm] = ()):
        return cls.from_terms(terms)

    @staticmethod
    def from_terms(terms: Iterable[OperatorTerm]) -> "OperatorExpression":
        """Terms summed as Gaussian-integer numerators over the lcm of their
        denominators, then canonicalized."""
        coeffs = [(t._coeff, t.signature) for t in terms]
        den = math.lcm(*(c._d for c, _ in coeffs))
        acc: dict[Signature, list[int]] = {}
        for c, sig in coeffs:
            s = den // c._d
            v = acc.setdefault(sig, [0, 0])
            v[0] += c._a * s
            v[1] += c._b * s
        return _canonical(den, acc)

    @property
    def terms(self) -> tuple[OperatorTerm, ...]:
        den = self._den
        return tuple(OperatorTerm(_reduced(a, b, den), *sig)
                     for sig, (a, b) in sorted(self._num.items()))

    @property
    def is_zero(self) -> bool:
        return not self._num

    def scale(self, c) -> "OperatorExpression":
        c = as_scalar(c)
        x, y = c._a, c._b
        return _canonical(self._den * c._d, {sig: (a * x - b * y, a * y + b * x)
                                             for sig, (a, b) in self._num.items()})

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        acc = {sig: (a * s, b * s) for sig, (a, b) in self._num.items()}
        for sig, (a, b) in other._num.items():
            c, e = acc.get(sig, (0, 0))
            acc[sig] = (c + a * t, e + b * t)
        return _canonical(den, acc)

    def __sub__(self, other: "OperatorExpression") -> "OperatorExpression":
        return self + (-other)

    def __neg__(self) -> "OperatorExpression":
        return _expression(self._den, {sig: (-a, -b) for sig, (a, b) in self._num.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorExpression):
            return _products((((self._den, self._num), (other._den, other._num)),))
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    # only a scalar reaches __rmul__, and scalars commute with everything
    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not OperatorExpression:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"OperatorExpression(terms={self.terms!r})"

    def __str__(self) -> str:
        return render_expression(self)


def _expression(den: int, num: dict[Signature, tuple[int, int]]) -> OperatorExpression:
    """OperatorExpression whose form (den, num) is canonical by construction."""
    e = object.__new__(OperatorExpression)
    e._den, e._num = den, num
    return e


def _canonical(den: int, acc: Mapping[Signature, Sequence[int]]) -> OperatorExpression:
    """The expression sum acc[sig]/den: zero entries dropped, then divided
    through by one gcd of den and every numerator."""
    g = den
    for a, b in acc.values():
        if g == 1:
            break
        g = math.gcd(g, a, b)
    if g == 1:
        return _expression(den, {sig: (a, b) for sig, (a, b) in acc.items() if a or b})
    return _expression(den // g, {sig: (a // g, b // g) for sig, (a, b) in acc.items() if a or b})


def monomial(coeff: RationalLike | ComplexRational = 1, pow_z: int = 0,
             pow_zbar: int = 0, pow_d: int = 0, pow_dbar: int = 0) -> OperatorExpression:
    return OperatorExpression.from_terms((OperatorTerm(coeff, pow_z, pow_zbar, pow_d, pow_dbar),))


ZERO = OperatorExpression()
ONE = monomial(1)
Z = monomial(1, pow_z=1)
ZBAR = monomial(1, pow_zbar=1)
D = monomial(1, pow_d=1)
DBAR = monomial(1, pow_dbar=1)


def normal_order(left: OperatorTerm, right: OperatorTerm) -> list[OperatorTerm]:
    """Normal-ordered terms of the operator product ``left @ right``.

    One call of the product kernel on the pair: the terms come back
    canonical, sorted by signature with one term per signature and no zero
    coefficient.
    """
    return list((OperatorExpression((left,)) * OperatorExpression((right,))).terms)


def _products(pairs: Iterable[tuple[IntegerForm, IntegerForm]]) -> OperatorExpression:
    """Canonical sum of the normal-ordered products ``left @ right`` over ``pairs``.

    Uses d^m z^n = sum_k k! C(m,k) C(n,k) z^(n-k) d^(m-k) in each Wirtinger
    sector; the (z, d) and (zb, db) sectors commute with each other.  All
    contractions of all pairs are added as ints over one common denominator,
    and the sum is divided through by one gcd: no sort and no term object.
    """
    pairs = [(left, right) for left, right in pairs if left[1] and right[1]]
    den = math.lcm(*(left[0] * right[0] for left, right in pairs))
    acc: dict[Signature, list[int]] = {}
    for (dl, left), (dr, right) in pairs:
        s = den // (dl * dr)
        for (pz, pzb, pd, pdb), (a, b) in left.items():
            a, b = a * s, b * s
            for (qz, qzb, qd, qdb), (c, e) in right.items():
                re, im = a * c - b * e, a * e + b * c
                z, zb, d, db = pz + qz, pzb + qzb, pd + qd, pdb + qdb
                for k, l, m in _contractions(pd, qz, pdb, qzb):
                    key = (z - k, zb - l, d - k, db - l)
                    v = acc.get(key)
                    if v is None:
                        acc[key] = [re * m, im * m]
                    else:
                        v[0] += re * m
                        v[1] += im * m
    return _canonical(den, acc)


@functools.lru_cache(maxsize=4096)
def _contractions(m: int, n: int, p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    # (k, l, k! C(m,k) C(n,k) * l! C(p,l) C(q,l)) for every number k of
    # contracted (d, z) pairs and l of contracted (db, zb) pairs
    def sector(m, n):
        return [(k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
                for k in range(min(m, n) + 1)]
    return tuple((k, l, ck * cl) for k, ck in sector(m, n) for l, cl in sector(p, q))


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
        nc = len(rows[0])
        if any(len(r) != nc for r in rows):
            raise ShapeError("ragged block rows")
        return BlockOperator(len(rows), nc, tuple(e for r in rows for e in r))

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


def compose(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    """Block matrix product with every scalar product normal-ordered."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    left = [(e._den, e._num) for e in a.entries]
    right = [(e._den, e._num) for e in b.entries]
    return BlockOperator(a.rows, b.cols, tuple(
        _products((left[i * a.cols + k], right[k * b.cols + j]) for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def adjoint(a):
    """Formal L2 adjoint of an expression or a block operator, normal-ordered.

    (c z^a zb^b d^p db^q)+  =  conj(c) (-db)^p (-d)^q zb^a z^b: each term is one
    (derivative, multiplication) pair of the product kernel, so an expression
    is normal-ordered in one kernel call; a block is conjugate-transposed.
    """
    if isinstance(a, BlockOperator):
        return BlockOperator(a.cols, a.rows, tuple(
            adjoint(a.entry(i, j)) for j in range(a.cols) for i in range(a.rows)))
    if not isinstance(a, OperatorExpression):
        raise TypeError(f"adjoint expects an expression or block operator, got {type(a)!r}")
    return _products(
        ((a._den, {(0, 0, db, d): (x * (-1) ** (d + db), -y * (-1) ** (d + db))}),
         (1, {(zb, z, 0, 0): (1, 0)}))
        for (z, zb, d, db), (x, y) in a._num.items())


# ---------------------------------------------------------------------------
# Gaussian ansatz family: poly(z, zb) * exp(-alpha |z|^2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianAnsatz:
    """factor(z, zb) * exp(-alpha*|z|^2) with exact rational data.

    alpha must be a positive rational, and goes through ``as_fraction``;
    factor is the polynomial as a derivative-free OperatorExpression, so
    equality, hash, sums and scaling are the expression's and equal
    functions hold equal ints.
    """

    alpha: Fraction
    factor: OperatorExpression

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("gaussian decay rate must be positive")
        if any(pd or pdb for _, _, pd, pdb in self.factor._num):
            raise ValueError("the polynomial of an ansatz must not hold derivatives")

    @property
    def poly(self) -> tuple[tuple[tuple[int, int], ComplexRational], ...]:
        """((pow_z, pow_zbar), coeff) pairs, sorted, each coefficient reduced."""
        return tuple(((t.pow_z, t.pow_zbar), t.coeff) for t in self.factor.terms)

    @property
    def is_zero(self) -> bool:
        return self.factor.is_zero

    def scale(self, c) -> "GaussianAnsatz":
        return GaussianAnsatz(self.alpha, self.factor.scale(c))

    def __add__(self, other: "GaussianAnsatz") -> "GaussianAnsatz":
        if self.alpha != other.alpha:
            raise ValueError("cannot add ansatz functions with different decay rates")
        return GaussianAnsatz(self.alpha, self.factor + other.factor)


def gaussian(alpha: RationalLike,
             poly: Mapping[tuple[int, int], ComplexRational | RationalLike] | None = None
             ) -> GaussianAnsatz:
    """Build a GaussianAnsatz; default polynomial part is the constant 1.

    alpha takes ``GaussianAnsatz``'s check and each (coefficient, powers)
    entry ``OperatorTerm``'s: a power is a non-negative int or numpy integer.
    """
    if poly is None:
        poly = {(0, 0): C_ONE}
    return GaussianAnsatz(alpha, OperatorExpression.from_terms(
        OperatorTerm(v, i, j) for (i, j), v in poly.items()))


def gaussian_apply(a: OperatorExpression, f: GaussianAnsatz) -> GaussianAnsatz:
    """Exact application of a normal-ordered expression to a Gaussian ansatz.

    d (p e^{-alpha z zb}) = (dp - alpha zb p) e^{-alpha z zb}, and db the
    same with z and zb swapped.  The polynomial is carried through the
    Wirtinger steps as the Gaussian-integer numerators of ``f.factor`` over
    its denominator: with alpha = u/w, a step multiplies the numerators of
    dp by w and those of zb p by -u, and the denominator by w.  Each
    derivative power of the expression is taken once, from the power one
    step below it; all terms are added as ints over one common denominator,
    and the sum is divided through by one gcd.
    """
    u, w = f.alpha.numerator, f.alpha.denominator
    derived = {(0, 0): f.factor._num}

    def derivative(pd: int, pdb: int) -> Mapping[Signature, tuple[int, int]]:
        # d^pd db^pdb p, over f.factor._den * w^(pd + pdb)
        p = derived.get((pd, pdb))
        if p is None:
            dz, dzb = (0, 1) if pdb else (1, 0)  # the last step: d, or db
            acc: dict[Signature, list[int]] = {}
            for (i, j, _, _), (re, im) in derivative(pd - dz, pdb - dzb).items():
                # the step lowers the power it differentiates, and its decay
                # factor raises the other one
                for key, m in (((i - dz, j - dzb, 0, 0), (i * dz + j * dzb) * w),
                               ((i + dzb, j + dz, 0, 0), -u)):
                    if m:
                        v = acc.setdefault(key, [0, 0])
                        v[0] += re * m
                        v[1] += im * m
            p = derived[pd, pdb] = {key: (re, im) for key, (re, im) in acc.items() if re or im}
        return p

    # every term of the expression is over a._den; its derivative over
    # f.factor._den * w^(pd + pdb) is brought to the deepest one,
    # f.factor._den * w^top
    top = max((pd + pdb for _, _, pd, pdb in a._num), default=0)
    acc: dict[Signature, list[int]] = {}
    for (pz, pzb, pd, pdb), (ca, cb) in a._num.items():
        s = w ** (top - pd - pdb)
        ca, cb = ca * s, cb * s
        for (i, j, _, _), (re, im) in derivative(pd, pdb).items():
            v = acc.setdefault((i + pz, j + pzb, 0, 0), [0, 0])
            v[0] += re * ca - im * cb
            v[1] += re * cb + im * ca
    return GaussianAnsatz(f.alpha, _canonical(f.factor._den * a._den * w ** top, acc))


def block_gaussian_apply(a: BlockOperator,
                         fs: Sequence[GaussianAnsatz]) -> list[GaussianAnsatz]:
    """Apply a block operator to a vector of ansatz functions (same alpha)."""
    if len(fs) != a.cols:
        raise ShapeError(f"operator has {a.cols} columns, vector has {len(fs)}")
    if len({f.alpha for f in fs}) != 1:
        raise ValueError("ansatz components must share one decay rate")
    zero = gaussian(fs[0].alpha, {})
    return [sum((gaussian_apply(a.entry(i, j), fs[j]) for j in range(a.cols)), zero)
            for i in range(a.rows)]


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
            if m == a + dd:
                total = total + cf.conjugate() * cg * (math.factorial(m) / s ** (m + 1))
    return total


# ---------------------------------------------------------------------------
# Canonical plain-text rendering, round-trippable for golden fixtures
# ---------------------------------------------------------------------------

def render_expression(e: OperatorExpression) -> str:
    if e.is_zero:
        return "0"
    den = e._den
    return " + ".join(f"{_reduced(a, b, den)}*z^{z}*zb^{zb}*d^{d}*db^{db}"
                      for (z, zb, d, db), (a, b) in sorted(e._num.items()))


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
        terms.append(OperatorTerm(crat(re_s, im_s), int(pz), int(pzb), int(pd), int(pdb)))
    return OperatorExpression.from_terms(terms)
