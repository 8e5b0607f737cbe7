from fractions import Fraction
from itertools import islice
from math import gcd as int_gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cactusids.polynomials import (
    Polynomial,
    RationalGF,
    _pseudo_divmod,
    extend_exactly,
    format_gf,
    format_poly,
    linear_combination,
    poly_divmod_exact,
    poly_gcd,
    signed_sum,
)


def P(*coeffs):
    return Polynomial(coeffs)


def _series_reference(gf, upto):
    """Quadratic Fraction recursion: d0 a(n) = num(n) - sum_i d_i a(n-i)."""
    d = gf.denominator
    out = []
    for n in range(upto + 1):
        acc = Fraction(gf.numerator[n])
        for i in range(1, n + 1):
            acc -= d[i] * out[n - i]
        out.append(acc / d[0])
    return out


class TestPolynomial:
    def test_canonical_trim(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert Polynomial().is_zero

    def test_arith_examples(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)
        assert P(1, -1, -1) + P(0, 1, 1) == P(1)
        assert Polynomial() * P(3, 7) == Polynomial()
        assert P(1, 2) - P(1, 2) == Polynomial()

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((1.5,))
        with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
            Polynomial().leading()

    def test_eval_and_degree(self):
        p = P(1, -1, -1)
        assert p.degree == 2
        assert p(2) == 1 - 2 - 4
        assert p(Fraction(1, 2)) == Fraction(1, 4)

    def test_divmod_exact(self):
        q = poly_divmod_exact(P(1, 0, -1), P(1, 1))
        assert q == P(1, -1)
        with pytest.raises(ArithmeticError):
            poly_divmod_exact(P(1, 0, 1), P(1, 1))
        with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
            poly_divmod_exact(P(1, 1), P(1, 2))
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            poly_divmod_exact(P(1, 1), Polynomial())

    @given(
        st.lists(st.integers(-20, 20), max_size=7),
        st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any),
    )
    @example([0, 0, 2], [1, 4])  # scaled twice, s = 2 * 4
    @example([], [3])  # zero dividend
    @example([1, 2], [0, 0, 5])  # deg a < deg b: no step
    @settings(max_examples=200, deadline=None)
    def test_one_division(self, ca, cb):
        a, b = Polynomial(ca), Polynomial(cb)
        q, r, s = _pseudo_divmod(a, b)
        assert s >= 1
        assert a * s == q * b + r
        assert r.degree < b.degree
        assert poly_divmod_exact(a * b, b) == a
        if s == 1 and r.is_zero:
            assert poly_divmod_exact(a, b) == q
        else:
            with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
                poly_divmod_exact(a, b)

    def test_format(self):
        assert format_poly(P(1, -3, -1, -2)) == "1 - 3x - x^2 - 2x^3"
        assert format_poly(P(0, 3, 2)) == "3x + 2x^2"
        assert format_poly(Polynomial()) == "0"
        assert format_poly(P(-1, 0, 1)) == "-1 + x^2"
        assert signed_sum([(0, "a"), (-1, "a"), (2, "b"), (-3, "")], "*") == "-a + 2*b - 3"
        assert signed_sum([(0, "a"), (0, "")]) == "0"


class TestGcd:
    def test_knuth_classic(self):
        a = P(-5, 2, 8, -3, -3, 0, 1, 0, 1)
        b = P(21, -9, -4, 0, 5, 0, 3)
        assert poly_gcd(a, b) == P(1)

    def test_common_factor(self):
        f = P(1, 0, 1)
        assert poly_gcd(f * P(-3, 1), f * P(4, 1)) == f

    def test_zero_cases(self):
        assert poly_gcd(Polynomial(), Polynomial()) == Polynomial()
        assert poly_gcd(Polynomial(), P(-2, 4)) == P(2, -4) * -1

    @given(
        st.lists(st.integers(-8, 8), min_size=1, max_size=5),
        st.lists(st.integers(-8, 8), min_size=1, max_size=5),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @example([2, 3], [-1, 5], [1, 2])  # (2x+1)(3x+2), (2x+1)(5x-1): the remainder scales
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_euclid(self, ca, cb, cm):
        a, b, m = Polynomial(ca), Polynomial(cb), Polynomial(cm)
        a, b = a * m, b * m
        got = poly_gcd(a, b)
        want = _euclid_gcd(a, b)
        if a.is_zero and b.is_zero:
            assert got.is_zero
            return
        # both divide and match up to the content convention
        assert got.primitive_part() == want
        assert got.content() == int_gcd(a.content(), b.content())
        if not a.is_zero:
            poly_divmod_exact(a * got.content(), got * int_gcd(1, 1))

    def test_remainder_scales_by_the_least_factor(self):
        # 8 * 2x^2 = (4x - 1)(4x + 1) + 1, and 8 is the least multiplier whose
        # long division by 4x + 1 keeps integer quotient coefficients
        assert _pseudo_divmod(P(0, 0, 2), P(1, 4)) == (P(-1, 4), P(1), 8)

    def test_divides_both(self):
        a = P(2, 4) * P(1, 0, 1)
        b = P(6, 2) * P(1, 0, 1)
        g = poly_gcd(a, b)
        poly_divmod_exact(a, g)
        poly_divmod_exact(b, g)


def _euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference gcd over the rationals, primitive with positive lead."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    fa, fb = trim(fa), trim(fb)
    while fb:
        while len(fa) >= len(fb):
            factor = fa[-1] / fb[-1]
            off = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[off + i] -= factor * c
            fa = trim(fa)
            if not fa:
                break
        fa, fb = fb, fa
    if not fa:
        return Polynomial()
    den = 1
    for c in fa:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in fa]
    g = 0
    for c in ints:
        g = int_gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return Polynomial(ints)


class TestRationalGF:
    def test_reduction_cancels_polynomial_factor(self):
        gf = RationalGF(P(0, 1, 1), P(0, 0, 1))  # (x + x^2)/x^2
        assert gf.numerator == P(1, 1)
        assert gf.denominator == P(0, 1)

    def test_reduction_joint_content_and_sign(self):
        gf = RationalGF(P(0, 2, 2), P(-4, 2))
        c = int_gcd(gf.numerator.content(), gf.denominator.content())
        assert c == 1
        assert next(v for v in gf.denominator.coeffs if v) > 0

    def test_zero_numerator(self):
        gf = RationalGF(Polynomial(), P(3, 1))
        assert gf.is_zero
        assert gf.denominator == P(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalGF(P(1), Polynomial())

    def test_equal_values_hash_alike_and_mix_with_ints(self):
        # 2(1 + x) / 2(1 - x^2) and 1/(1 - x); 1 + 2x with and without a zero
        gf, same_gf = RationalGF(P(2, 2), P(2, 0, -2)), RationalGF(P(1), P(1, -1))
        p, same_p = P(1, 2, 0), Polynomial([1, 2])
        assert hash(gf) == hash(same_gf) and hash(p) == hash(same_p)
        assert {gf: "geometric"}[same_gf] == "geometric"
        assert {p: "linear"}[same_p] == "linear"
        assert 1 - p == P(0, -2)
        assert P(1) == 1 and 1 == P(1) and p != 1
        # other operand types are left to Python, which refuses them
        assert p != "1 + 2x" and gf != 1
        for op in (lambda: p + 1.5, lambda: p - 1.5, lambda: 1.5 - p, lambda: p * 1.5):
            with pytest.raises(TypeError):
                op()

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_canonical_invariants(self, cn, cd):
        den = Polynomial(cd)
        if den.is_zero:
            return
        gf = RationalGF(Polynomial(cn), den)
        if gf.is_zero:
            assert gf.denominator == P(1)
            return
        assert poly_gcd(gf.numerator, gf.denominator).degree == 0
        assert int_gcd(gf.numerator.content(), gf.denominator.content()) == 1
        assert next(v for v in gf.denominator.coeffs if v) > 0

    def test_series_geometric(self):
        assert RationalGF(P(1), P(1, -2)).series(4) == [1, 2, 4, 8, 16]

    def test_series_requires_constant(self):
        gf = RationalGF(P(1, 1), P(0, 1))
        with pytest.raises(ValueError):
            gf.series(3)

    _NON_INTEGER = "^denominator constant term is 2, not 1: no integer power series$"

    def test_series_can_be_fractional(self):
        # 1/(2 - x) = 1/2 + x/4 + ... is not an integer series: refused
        with pytest.raises(ValueError, match=self._NON_INTEGER):
            RationalGF(P(1), P(2, -1)).series(0)

    def test_series_d0_two_mixes_ints_and_fractions(self):
        # (2 + x^2)/(2 - 2x) = 1 + x + 3/2 x^2 + ...: refused even though its
        # first two coefficients are integers
        gf = RationalGF(P(2, 0, 1), P(2, -2))
        for upto in (0, 1, 4):
            with pytest.raises(ValueError, match=self._NON_INTEGER):
                gf.series(upto)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        st.sampled_from((1, 1, 0, 2, -3)),
        st.lists(st.integers(-6, 6), max_size=4),
        st.integers(-3, 40),
    )
    # d0 = 1 with a numerator longer than the prefix: ints only, no division
    @example([3, -1, 4, 1, -5, 9, -2, 6, 5, -3, 5, 8, -9, 7, 9, -3], 1, [-2, 0, 3, -2], 12)
    @example([1, 2], 3, [-1, 2], 12)  # d0 = 3: refused
    @example([1, 1], 0, [1], 12)  # d0 = 0: no power series at all
    # 1 - x^3: prefixes that end before the first denominator term, and one past it
    @example([1], 1, [0, 0, -1], 0)
    @example([1], 1, [0, 0, -1], 2)
    @example([1], 1, [0, 0, -1], 3)  # upto = deg Q: the x^3 reader first passes its zeros
    @example([1], 1, [0, 0, -1], 4)  # and deg Q + 1
    @example([1], 1, [0, 0, -1], 12)
    @example([2, 1], 1, [1, -1], 12)  # 1 + x - x^2: a first coefficient -1, then +1
    @example([3, -1, 4, 1, -5], 1, [], 12)  # denominator 1: the numerator, then zeros
    @example([2, 1], 1, [1, -1], -1)  # a negative upto: no coefficients
    @example([2, 1], 1, [1, -1], -2)
    @settings(max_examples=150, deadline=None)
    def test_series_matches_fraction_reference(self, cn, c0, tail, upto):
        den = Polynomial([c0, *tail])
        if den.is_zero:
            return
        gf = RationalGF(Polynomial(cn), den)
        d0 = gf.denominator[0]
        if d0 != 1:
            with pytest.raises(ValueError, match=f"^denominator constant term is {d0}, not 1"):
                gf.series(upto)
            return
        got = gf.series(upto)
        assert got == _series_reference(gf, upto)
        assert all(type(v) is int for v in got)

    def test_format(self):
        assert format_gf(RationalGF(P(1, -1, 2), P(1, -3, -1, -2))) == (
            "(1 - x + 2x^2)/(1 - 3x - x^2 - 2x^3)"
        )
        assert format_gf(RationalGF(P(1), P(1, -2))) == "1/(1 - 2x)"
        assert format_gf(RationalGF(P(0, 2), P(1, -2))) == "2x/(1 - 2x)"
        assert format_gf(RationalGF(P(5), P(1))) == "5"


def test_a_short_prefix_is_refused():
    # a reader that meets the end of the list it reads stops for good, so the
    # terms run out before the size asked for
    out = [1]
    with pytest.raises(RuntimeError, match="^the terms ran out at 1 of 3 items$"):
        extend_exactly(out, linear_combination([(1, islice(out, 1, None))]), 3)
    assert extend_exactly([1], linear_combination([(2, iter((5, 7)))]), 3) == [1, 10, 14]
