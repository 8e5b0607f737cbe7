"""Polynomial linear systems and growth rates.

Covers two jobs:

* an exact solver for square linear systems with polynomial entries, given
  as plain tables whose shape it checks (Cramer's rule, Bareiss determinants);
* dominant growth rate of a recurrence, from its largest root modulus,
  bracketed in exact rational arithmetic: each rational is an integer
  numerator over a positive integer denominator, so neither ``fractions``
  nor ``decimal`` is imported.

Nothing here names a chain family: the published systems are transcribed in
``paper`` as coefficient tables, which the solver reads as they are.
Conversions between generating functions, recurrences and runs of terms,
and the reader of a far coefficient, are in ``recurrences``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .polynomials import PolyLike, Polynomial, RationalGF, as_poly, poly_divmod_exact, poly_gcd
from .recurrences import LinearRecurrence, eval_recurrence


class SingularSystemError(ValueError):
    """The generating-function system matrix is singular."""


class NoRealDominantRootError(ValueError):
    """The dominant characteristic roots form a complex pair."""


def _det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant by Bareiss fraction-free elimination, 0 when singular.

    Every intermediate entry is an integer polynomial (each division is
    exact), and the last pivot is the determinant up to the row-swap sign.
    """
    m = [list(row) for row in rows]
    k, sign, prev = len(m), 1, Polynomial.one()
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if m[r][col]), None)
        if pivot_row is None:
            return Polynomial.zero()
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                m[r][c] = poly_divmod_exact(pivot * m[r][c] - m[r][col] * m[col][c], prev)
        prev = pivot
    return prev * sign


def solve_gf_system(
    matrix: Sequence[Sequence[PolyLike]], rhs: Sequence[PolyLike]
) -> list[RationalGF]:
    """Exact solution of matrix . F = rhs, each entry read by ``as_poly``, by
    Cramer's rule: unknown i is det(M_i)/det(M), M_i being M with column i
    replaced by the rhs, both determinants Bareiss (fraction-free). Refuses,
    with ``ValueError``, a matrix not square with one rhs entry per row."""
    rows = [tuple(map(as_poly, row)) for row in matrix]
    b = tuple(map(as_poly, rhs))
    if len(rows) != len(b) or any(len(row) != len(b) for row in rows):
        raise ValueError("system must be square with matching rhs")
    den = _det(rows)
    if den.is_zero:
        raise SingularSystemError("zero determinant")
    nums = (
        _det([row[:i] + (v,) + row[i + 1:] for row, v in zip(rows, b)])
        for i in range(len(b))
    )
    return [RationalGF(num, den) for num in nums]


# -- dominant growth rate ---------------------------------------------------


class GrowthEstimate(NamedTuple):
    dominant_root: float
    empirical_ratio: float
    ratio_index: int


def dominant_growth_rate(rec: LinearRecurrence) -> GrowthEstimate:
    """Largest-modulus real characteristic root plus the empirical ratio
    a(51)/a(50).

    The largest root modulus M of the characteristic polynomial's square-free
    part is bracketed, lo <= M < hi with hi - lo < 2^-64, by halving [0, Cauchy
    bound] with a Schur-Cohn test. A sign change on [lo, hi] (tried first, so
    +M wins a tie) or on [-hi, -lo] marks a real root of modulus M to within
    the bracket; its nearest float seeds a bisection to relative tolerance
    1e-12, and is the result if another root in the bisection's window draws
    it away. Raises NoRealDominantRootError when the dominant roots are a
    complex pair.

    Every rational is exact, held as an integer numerator over a positive
    integer denominator: the bracket's ends over 2^j after j halvings, since
    the square-free part is monic. Each float is one int true division,
    which CPython rounds correctly.
    """
    char = Polynomial(tuple(-c for c in reversed(rec.coefficients)) + (1,))
    derivative = Polynomial(i * c for i, c in enumerate(char.coeffs) if i)
    # monic: char is, and the gcd's leading coefficient is positive and divides 1
    squarefree = poly_divmod_exact(char, poly_gcd(char, derivative))
    lo, hi, den = 0, 1 + max(map(abs, squarefree.coeffs[:-1])), 1
    for _ in range(64 + hi.bit_length()):
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        lo, hi = (lo, mid) if _roots_inside(squarefree, mid, den) else (mid, hi)
    for sign in (1, -1):
        at_lo, at_hi = (_scaled_value(squarefree, sign * x, den) for x in (lo, hi))
        if at_lo * at_hi <= 0:
            seed = sign * ((lo + hi) / (2 * den))
            break
    else:
        raise NoRealDominantRootError(
            f"dominant characteristic roots are a complex pair of magnitude {hi / den:.12g}"
        )
    root = _polish_real_root(squarefree, seed)
    if abs(root - seed) > 1e-12 * max(abs(seed), 1):
        root = seed

    a = eval_recurrence(rec, 50)
    b = eval_recurrence(rec, 51)
    if a == 0:
        raise ValueError("sequence value at index 50 is zero")
    # 0 / -1 is -0.0 in int true division; the exact ratio 0 rounds to 0.0
    return GrowthEstimate(root, b / a if b else 0.0, 50)


def _roots_inside(poly: Polynomial, s: int, t: int) -> bool:
    """Schur-Cohn test: whether every root of ``poly`` has modulus below s/t, t > 0.

    For p(s z / t), scaled to integer coefficients a_0..a_n, that needs |a_0| <
    |a_n|, and then holds just when it holds for (a_n p - a_0 p*)/z, p* = p
    reversed. A factor that s and t share scales every a_k alike, and the
    first ``primitive_part`` removes it."""
    n = poly.degree
    p = Polynomial(c * s**k * t ** (n - k) for k, c in enumerate(poly.coeffs))
    while p.degree > 0:
        a0, an = p[0], p.leading()
        if abs(a0) >= abs(an):
            return False
        high, low = p.coeffs[1:], reversed(p.coeffs[:-1])
        p = Polynomial(an * x - a0 * y for x, y in zip(high, low)).primitive_part()
    return True


def _scaled_value(poly: Polynomial, x: int, d: int) -> int:
    """d^n p(x/d) for p of degree n: p's value at x/d times d^n, which for
    d > 0 has its sign."""
    acc, scale = 0, 1
    for c in reversed(poly.coeffs):
        acc = acc * x + c * scale
        scale *= d
    return acc


def _limit_denominator(x: float, max_denominator: int) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(max_denominator)`` as (numerator,
    denominator): the fraction nearest x whose denominator is at most
    max_denominator, the last convergent on a tie, from x's continued fraction."""
    n, d = x.as_integer_ratio()
    if d <= max_denominator:
        return n, d
    den, p0, q0, p1, q1 = d, 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    # p1/q1 is d/(q1 den) from x, and (p0 + k p1)/(q0 + k q1) is on x's other side
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _polish_real_root(poly: Polynomial, approx: float) -> float:
    """Bisection of a sign change of ``poly`` in approx +- max(|approx|, 1)/10^6,
    to relative width 1e-12; approx itself when the window has none. The
    window's ends and each midpoint are integers over one denominator."""
    p, q = _limit_denominator(approx, 10**15)
    sp, sq = _limit_denominator(max(abs(approx), 1.0), 10**6)
    # x0 = p/q and step = sp/(sq 10^6), over their common denominator
    den, centre = q * sq * 10**6, p * sq * 10**6
    lo, hi = centre - sp * q, centre + sp * q
    flo = _scaled_value(poly, lo, den)
    if (flo < 0) == (_scaled_value(poly, hi, den) < 0):
        return approx
    tn, td = _limit_denominator(1e-12, 10**18)
    while (hi - lo) * td > tn * max(abs(hi), den):
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        fm = _scaled_value(poly, mid, den)
        if fm == 0:
            return mid / den
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / (2 * den)
