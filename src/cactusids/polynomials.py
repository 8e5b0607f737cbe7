"""Exact univariate polynomials over the integers, and reduced rational functions.

Polynomials are immutable ascending coefficient tuples with no trailing zeros,
and support +, - and *. Rational functions have no arithmetic: each is built
once from a numerator and a denominator and reduces on construction
(polynomial gcd via the primitive PRS, joint integer content, sign
normalisation), so equal functions compare equal structurally, and expand
only to an integer power series, which needs a denominator constant term of
1. One integer long division serves both exact division and the gcd's
remainders. Everything here is pure and safe to share across threads.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from math import gcd
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Sequence, Union


class Polynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self) -> "Polynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return Polynomial(v // c for v in self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial((other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def signed_sum(terms: Iterable[tuple[int, str]], times: str = "") -> str:
    """Render (coefficient, body) pairs as a sum like ``2x - x^2``: a zero
    coefficient is skipped, a unit one is left out, any other is joined to a
    nonempty body by ``times``, and a sum with no nonzero term is ``0``."""
    parts: list[str] = []
    for c, body in terms:
        if c == 0:
            continue
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}{times}{body}"
        if parts:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
        else:
            parts.append(f"-{text}" if c < 0 else text)
    return " ".join(parts) or "0"


def format_poly(p: Polynomial) -> str:
    """Render ascending-power text like ``1 - 3x - x^2 - 2x^3``."""
    return signed_sum(
        (c, "" if k == 0 else "x" if k == 1 else f"x^{k}") for k, c in enumerate(p.coeffs)
    )


# -- division helpers ------------------------------------------------


def _pseudo_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, int]:
    """Integer long division: ``(q, r, s)`` with s·a = q·b + r, deg r < deg b.

    The remainder, and the quotient built so far, are scaled up by the least
    factor only at a step whose quotient coefficient would not otherwise be
    an integer, so s = 1 exactly when every step divided evenly.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lb = b.degree, b.leading()
    quo = [0] * (len(rem) - db)
    s = 1
    for i in range(len(rem) - 1, db - 1, -1):
        scale = abs(lb) // gcd(rem[i], lb)
        if scale != 1:
            rem = [c * scale for c in rem]
            quo = [c * scale for c in quo]
            s *= scale
        q = quo[i - db] = rem[i] // lb
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] -= q * bc
    return Polynomial(quo), Polynomial(rem[:db]), s


def poly_divmod_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Divide ``a`` by ``b`` when the division is exact over the integers.

    Raises ArithmeticError if ``b`` does not divide ``a`` exactly; used after
    gcd computations and inside Bareiss elimination, where exactness is a
    structural guarantee.
    """
    q, r, s = _pseudo_divmod(a, b)
    if s != 1 or r:
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor via the primitive PRS.

    Result is primitive with positive leading coefficient, scaled by the gcd
    of the two contents. gcd(0, 0) = 0.
    """
    cont = gcd(a.content(), b.content())
    a, b = a.primitive_part(), b.primitive_part()
    while not b.is_zero:
        a, b = b, _pseudo_divmod(a, b)[1].primitive_part()
    # a[a.degree] is the leading coefficient, or 0 for gcd(0, 0)
    return -a * cont if a[a.degree] < 0 else a * cont


PolyLike = Union[Polynomial, Sequence[int], int]


def as_poly(value: PolyLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial((value,))
    return Polynomial(value)


class RationalGF:
    """Ratio of integer polynomials, canonically reduced on construction.

    Canonical form: numerator and denominator share no polynomial factor and
    no integer content, and the denominator's lowest nonzero coefficient is
    positive. By Fatou's lemma (P. Fatou, Acta Math. 30, 1906) a rational
    series with integer coefficients is P/Q with Q(0) = 1, so a canonical GF
    is an integer series if and only if its denominator's constant term is 1.
    :func:`series` refuses every other GF; construction does not, so any
    Cramer quotient det(M_i)/det(M) can be held.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: PolyLike, denominator: PolyLike = 1):
        num, den = as_poly(numerator), as_poly(denominator)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        # g is the primitive gcd times the joint content, so by Gauss's lemma
        # the quotients share neither a factor nor content (0/den is 0/1)
        g = poly_gcd(num, den)
        num, den = poly_divmod_exact(num, g), poly_divmod_exact(den, g)
        if next(c for c in den.coeffs if c != 0) < 0:
            num, den = -num, -den
        self.numerator = num
        self.denominator = den

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def __eq__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash(("RationalGF", self.numerator.coeffs, self.denominator.coeffs))

    def __repr__(self):
        return (
            f"RationalGF({list(self.numerator.coeffs)!r}, "
            f"{list(self.denominator.coeffs)!r})"
        )

    def __str__(self):
        return format_gf(self)

    def series(self, upto: int) -> list[int]:
        """Power-series coefficients 0..upto, exact.

        Refuses, with ``ValueError``, a denominator whose constant term d0 is
        not 1: in canonical form that is exactly a GF whose series is not an
        integer sequence (Fatou 1906), and with d0 = 0 there is no power
        series at all. Entry n is p_n plus the sum of c_i s_(n-i) over the
        nonzero c_i = -d_i, with s_(n-i) = 0 for i > n: one
        :func:`linear_combination` of iterators over the output itself, each
        led by i zeros, which :func:`extend_exactly` appends in one C loop, at
        the big-int cost per entry that the combination states. A negative
        ``upto`` gives no coefficients.
        """
        d0 = self.denominator[0]
        if d0 != 1:
            raise ValueError(
                f"denominator constant term is {d0}, not 1: no integer power series"
            )
        out: list[int] = []
        # s_(n-i) for n = 0, 1, ...: each reader sees out grow
        recursion = linear_combination([
            (-d, chain(repeat(0, i), out))
            for i, d in enumerate(self.denominator.coeffs) if i and d
        ])
        # the numerator's map stops at its own end, before drawing from recursion
        terms = chain(map(add, self.numerator.coeffs, recursion), recursion)
        return extend_exactly(out, terms, max(upto + 1, 0))


def linear_combination(pairs: Sequence[tuple[int, Iterator[int]]]) -> Iterator[int]:
    """The lazy sum, term by term, of c s over (c, s) pairs of an int and an
    iterator of ints; zeros for no pairs. A chain of ``map`` and ``repeat``,
    so a term costs no interpreter loop. It starts from its first pair, which
    takes no big-int work at c = 1 (the operand itself is passed on) and one
    negation or product otherwise; each later pair takes one addition or
    subtraction at c = +-1, and a product and an addition otherwise."""
    if not pairs:
        return repeat(0)
    (c, acc), *rest = pairs
    if c != 1:
        acc = map(neg, acc) if c == -1 else map(mul, repeat(c), acc)
    for c, s in rest:
        if c == 1:
            acc = map(add, acc, s)
        elif c == -1:
            acc = map(sub, acc, s)
        else:
            acc = map(add, acc, map(mul, repeat(c), s))
    return acc


def extend_exactly(out: list, terms: Iterator, size: int) -> list:
    """``out``, extended in place to ``size`` items drawn from ``terms`` by one
    ``list.extend``, which publishes each item as it appends it. So ``terms``
    may read ``out`` itself, through list iterators that stay behind its end.
    Raises ``RuntimeError`` if ``terms`` runs out first: a reader that met the
    end would stop for good, and a short prefix is never returned."""
    out.extend(islice(terms, size - len(out)))
    if len(out) != size:
        raise RuntimeError(f"the terms ran out at {len(out)} of {size} items")
    return out


def format_gf(gf: RationalGF) -> str:
    """Render like ``(1 - x + 2x^2)/(1 - 3x - x^2 - 2x^3)``."""
    num = format_poly(gf.numerator)
    den = format_poly(gf.denominator)
    num_terms = sum(1 for c in gf.numerator.coeffs if c)
    den_terms = sum(1 for c in gf.denominator.coeffs if c)
    num_txt = f"({num})" if num_terms > 1 else num
    den_txt = f"({den})" if den_terms > 1 else den
    if gf.denominator == Polynomial.one():
        return num_txt
    return f"{num_txt}/{den_txt}"


def gf_to_json_dict(gf: RationalGF) -> dict:
    return {"num": list(gf.numerator.coeffs), "den": list(gf.denominator.coeffs)}
