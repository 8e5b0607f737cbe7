"""Polynomial linear systems and growth rates.

Covers two jobs:

* an exact solver for square linear systems with polynomial entries, given
  as plain tables whose shape it checks (Cramer's rule, Bareiss determinants);
* dominant growth rate of a recurrence, from its largest root modulus.

Nothing here names a chain family: the published systems are transcribed in
``paper`` as coefficient tables, which the solver reads as they are.
Conversions between generating functions, recurrences and runs of terms,
and the reader of a far coefficient, are in ``recurrences``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .polynomials import PolyLike, Polynomial, RationalGF, as_poly, poly_divmod_exact, poly_gcd
from .recurrences import LinearRecurrence, eval_recurrence

if TYPE_CHECKING:
    from fractions import Fraction


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
    """
    from fractions import Fraction

    char = Polynomial(tuple(-c for c in reversed(rec.coefficients)) + (1,))
    derivative = Polynomial(i * c for i, c in enumerate(char.coeffs) if i)
    squarefree = poly_divmod_exact(char, poly_gcd(char, derivative))
    lo, hi = 0, 1 + Fraction(max(map(abs, squarefree.coeffs[:-1])), squarefree.leading())
    for _ in range(64 + int(hi).bit_length()):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _roots_inside(squarefree, mid) else (mid, hi)
    for sign in (1, -1):
        if squarefree(sign * lo) * squarefree(sign * hi) <= 0:
            seed = sign * float((lo + hi) / 2)
            break
    else:
        raise NoRealDominantRootError(
            f"dominant characteristic roots are a complex pair of magnitude {float(hi):.12g}"
        )
    root = _polish_real_root(squarefree, seed)
    if abs(root - seed) > 1e-12 * max(abs(seed), 1):
        root = seed

    a = eval_recurrence(rec, 50)
    b = eval_recurrence(rec, 51)
    if a == 0:
        raise ValueError("sequence value at index 50 is zero")
    return GrowthEstimate(root, float(Fraction(b, a)), 50)


def _roots_inside(poly: Polynomial, radius: Fraction) -> bool:
    """Schur-Cohn test: whether every root of ``poly`` has modulus below ``radius``.

    For p(radius z), scaled to integer coefficients a_0..a_n, that needs |a_0| <
    |a_n|, and then holds just when it holds for (a_n p - a_0 p*)/z, p* = p reversed."""
    n, s, t = poly.degree, radius.numerator, radius.denominator
    p = Polynomial(c * s**k * t ** (n - k) for k, c in enumerate(poly.coeffs))
    while p.degree > 0:
        a0, an = p[0], p.leading()
        if abs(a0) >= abs(an):
            return False
        high, low = p.coeffs[1:], reversed(p.coeffs[:-1])
        p = Polynomial(an * x - a0 * y for x, y in zip(high, low)).primitive_part()
    return True


def _polish_real_root(poly: Polynomial, approx: float) -> float:
    from fractions import Fraction

    x0 = Fraction(approx).limit_denominator(10**15)
    step = Fraction(max(abs(approx), 1.0)).limit_denominator(10**6) * Fraction(1, 10**6)
    lo, hi = x0 - step, x0 + step
    if (poly(lo) < 0) == (poly(hi) < 0):
        return approx
    flo = poly(lo)
    while (hi - lo) > Fraction(1e-12).limit_denominator(10**18) * max(abs(hi), Fraction(1)):
        mid = (lo + hi) / 2
        fm = poly(mid)
        if fm == 0:
            return float(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float((lo + hi) / 2)
