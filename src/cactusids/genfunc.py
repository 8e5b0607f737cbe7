"""Rational generating functions for the chain-count sequences.

Covers four jobs:

* exact solution of linear systems over the rational function field
  (Bareiss fraction-free forward elimination, rational back-substitution
  with gcd normalisation at every step);
* conversion between generating functions and linear recurrences;
* a claims store holding the published generating functions verbatim,
  including the erroneous ones, plus systems re-derived from the transfer
  matrices (the corrected versions);
* dominant growth rate of a recurrence, from its largest root modulus.

Series index convention: physical chain lengths start at n = 1; coefficient
0 of a claimed generating function is compared only against a printed formal
seed, never against a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .chains import Family
from .polynomials import (
    Polynomial,
    RationalGF,
    as_poly,
    poly_divmod_exact,
    poly_gcd,
)
from .recurrences import (
    LinearRecurrence,
    TransferSystem,
    eval_recurrence,
    paper_transfer_system,
)


class SingularSystemError(ValueError):
    """The generating-function system matrix is singular."""


class NoRealDominantRootError(ValueError):
    """The dominant characteristic roots form a complex pair."""


@dataclass(frozen=True)
class GFLinearSystem:
    """Square linear system with polynomial entries, one unknown per state."""

    matrix: tuple[tuple[Polynomial, ...], ...]
    rhs: tuple[Polynomial, ...]
    unknowns: tuple[str, ...]

    def __post_init__(self):
        k = len(self.rhs)
        if len(self.matrix) != k or any(len(r) != k for r in self.matrix):
            raise ValueError("system must be square with matching rhs")
        if len(self.unknowns) != k:
            raise ValueError("one unknown name per equation required")


def _system(rows: Sequence[Sequence], rhs: Sequence, unknowns: Sequence[str]) -> GFLinearSystem:
    return GFLinearSystem(
        tuple(tuple(as_poly(e) for e in row) for row in rows),
        tuple(as_poly(e) for e in rhs),
        tuple(unknowns),
    )


def solve_gf_system(system: GFLinearSystem) -> list[RationalGF]:
    """Exact solution over the rational function field.

    Forward elimination is fraction-free (Bareiss), so intermediate entries
    stay integer polynomials; back-substitution works in reduced rational
    functions.
    """
    k = len(system.rhs)
    m: list[list[Polynomial]] = [
        list(system.matrix[i]) + [system.rhs[i]] for i in range(k)
    ]
    prev = Polynomial.one()
    for col in range(k):
        pivot_row = next(
            (r for r in range(col, k) if not m[r][col].is_zero), None
        )
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for r in range(col + 1, k):
            for c in range(col + 1, k + 1):
                m[r][c] = poly_divmod_exact(
                    pivot * m[r][c] - m[r][col] * m[col][c], prev
                )
            m[r][col] = Polynomial.zero()
        prev = pivot
    if m[k - 1][k - 1].is_zero:
        raise SingularSystemError("zero determinant")

    solution: list[Optional[RationalGF]] = [None] * k
    for i in range(k - 1, -1, -1):
        acc = RationalGF(m[i][k], 1)
        for j in range(i + 1, k):
            acc = acc - RationalGF(m[i][j], 1) * solution[j]
        solution[i] = acc / RationalGF(m[i][i], 1)
    return solution  # type: ignore[return-value]


def gf_from_recurrence(rec: LinearRecurrence, first_index: int) -> RationalGF:
    """The unique rational function whose expansion starts at ``first_index``
    with the recurrence's initial terms and obeys the recurrence onward.

    Coefficients below ``first_index`` are zero; the denominator is
    1 - sum c_i x^i.
    """
    k = rec.order
    initial = rec.initial_map
    for i in range(first_index, first_index + k):
        if i not in initial:
            raise ValueError(
                f"initial terms must cover indices {first_index}.."
                f"{first_index + k - 1}; missing {i}"
            )
    den = Polynomial([1] + [-c for c in rec.coefficients])
    top = first_index + k - 1

    def series_at(j: int) -> int:
        return initial[j] if j >= first_index else 0

    num = [
        sum(den[i] * series_at(j - i) for i in range(0, min(j, k) + 1))
        for j in range(top + 1)
    ]
    return RationalGF(Polynomial(num), den)


def recurrence_from_gf(gf: RationalGF) -> LinearRecurrence:
    """Read the recurrence off a reduced rational generating function.

    Coefficients come from the denominator, validity starts one past the
    numerator degree, and the initial terms are the series coefficients up
    to that point.
    """
    den = gf.denominator
    d0 = den[0]
    if d0 == 0:
        raise ValueError("denominator constant term is zero")
    coeffs = []
    for i in range(1, den.degree + 1):
        q, r = divmod(-den[i], d0)
        if r:
            raise ValueError("denominator does not normalise to integer coefficients")
        coeffs.append(q)
    if not coeffs:
        raise ValueError("polynomial (finite) series has no recurrence order")
    valid_from = max(gf.numerator.degree + 1, 1)
    series = gf.series(max(valid_from - 1, len(coeffs) - 1, 0))
    initial = []
    for idx, value in enumerate(series):
        if not isinstance(value, int):
            raise ValueError("series has non-integer coefficients")
        initial.append((idx, value))
    return LinearRecurrence(tuple(coeffs), tuple(initial), valid_from)


# -- claims store: published generating functions --------------------------

_PAPER_GF = {
    Family.TRIANGULAR: ((0, 1, 1), (1, -1, -1)),
    Family.SQUARE_PARA: ((1, 0, 1), (1, -2, 1, -1)),
    Family.SQUARE_ORTHO: ((1,), (1, -2)),
    Family.HEX_ORTHO: ((1, 2, 1), (1, -3, -3)),
    Family.HEX_META: ((1, -1, 2), (1, -3, -1, -2)),
    Family.HEX_PARA: ((1, -1, 0, -5, 1), (1, -6, 9, -6, 1)),
}

# Published per-state generating functions in (contains, avoids[, extendable])
# order. Coefficient k of a state series is the state count at length k+1.
# The ortho-square section prints none.
_PAPER_STATE_GF = {
    Family.TRIANGULAR: (
        ((0, 1), (1, -1, -1)),
        ((1,), (1, -1, -1)),
    ),
    Family.SQUARE_PARA: (
        ((1, 0, 1), (1, -2, 1, -1)),
        ((1,), (1, -2, 1, -1)),
        ((1, -1, 1), (1, -2, 1, -1)),
    ),
    Family.HEX_ORTHO: (
        ((2, 2), (1, -3, -3)),
        ((3, 2), (1, -3, -3)),
        ((1, 1), (1, -3, -3)),
    ),
    Family.HEX_META: (
        ((1, 1, 2), (1, -3, -1, -2)),
        ((1, 2), (1, -3, -1, -2)),
        ((1, -2), (1, -3, -1, -2)),
    ),
    Family.HEX_PARA: (
        ((2, -4, -3, 1), (1, -6, 9, -6, 1)),
        ((3, -5, 4, -1), (1, -6, 9, -6, 1)),
        ((1, -2, 2), (1, -6, 9, -6, 1)),
    ),
}

# Published linear systems for the per-state series, transcribed verbatim
# (including their wrong right-hand sides where the source slipped).
_X = Polynomial.x()
_PAPER_GF_SYSTEM: dict[Family, GFLinearSystem] = {
    Family.TRIANGULAR: _system(
        [[as_poly((1, -1)), -_X], [-_X, 1]],
        [1, 0],
        ("avoids-terminal", "contains-terminal"),
    ),
    Family.SQUARE_PARA: _system(
        [
            [as_poly((1, -1)), -_X, 0],
            [0, as_poly((1, -1)), -_X],
            [-_X, 0, 1],
        ],
        [1, 1, 1],
        ("contains-terminal", "avoids-terminal", "extendable"),
    ),
    Family.HEX_ORTHO: _system(
        [
            [1, as_poly((0, -2)), as_poly((0, -2))],
            [as_poly((0, -2)), as_poly((1, -2)), -_X],
            [0, -_X, as_poly((1, -1))],
        ],
        [2, 3, 1],
        ("contains-terminal", "avoids-terminal", "extendable"),
    ),
    Family.HEX_META: _system(
        [
            [as_poly((1, -1, -1)), as_poly((0, -2))],
            [as_poly((0, -1, -2)), as_poly((1, -2))],
        ],
        [as_poly((1, 1)), as_poly((1, 2))],
        ("contains-terminal", "avoids-terminal"),
    ),
    Family.HEX_PARA: _system(
        [
            [as_poly((1, -1)), -_X, -_X],
            [-_X, as_poly((1, -3)), as_poly((0, -2))],
            [0, -_X, as_poly((1, -1))],
        ],
        [2, 3, 1],
        ("contains-terminal", "avoids-terminal", "extendable"),
    ),
}


def paper_gf(family: Family) -> RationalGF:
    """Verbatim transcription of the published generating function.

    This is a claims store: known-wrong functions are stored as printed so
    the verifier can refute them.
    """
    if family not in _PAPER_GF:
        raise ValueError(f"no published generating function for {family.value}")
    num, den = _PAPER_GF[family]
    return RationalGF(Polynomial(num), Polynomial(den))


def paper_state_gfs(family: Family) -> Optional[tuple[RationalGF, ...]]:
    """Published per-state generating functions, or None where none printed."""
    data = _PAPER_STATE_GF.get(family)
    if data is None:
        return None
    return tuple(RationalGF(Polynomial(n), Polynomial(d)) for n, d in data)


def paper_gf_system(family: Family) -> Optional[GFLinearSystem]:
    """Published linear system for the per-state series, or None."""
    return _PAPER_GF_SYSTEM.get(family)


# -- derived (corrected) generating functions ------------------------------


def transfer_gf_system(system: TransferSystem) -> GFLinearSystem:
    """(I - xA) F = seeds, with F_i the series of state i shifted by one.

    Coefficient k of F_i is the state-i count at length k+1, so the family
    series is x times the weighted sum of the solution.
    """
    k = len(system.initial_vector)
    x = Polynomial.x()
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            entry = -x * system.update_matrix[i][j]
            if i == j:
                entry = entry + 1
            row.append(entry)
        rows.append(row)
    rhs = [as_poly(v) for v in system.initial_vector]
    return GFLinearSystem(
        tuple(tuple(r) for r in rows), tuple(rhs), system.state_names
    )


@lru_cache(maxsize=None)
def derived_state_gfs(family: Family) -> tuple[RationalGF, ...]:
    """Per-state series solved from the oracle-seeded transfer system."""
    system = transfer_gf_system(paper_transfer_system(family))
    return tuple(solve_gf_system(system))


@lru_cache(maxsize=None)
def derived_gf(family: Family) -> RationalGF:
    """Corrected family generating function from the transfer system.

    Physical convention: coefficient n is the count at length n >= 1 and
    coefficient 0 is zero.
    """
    ts = paper_transfer_system(family)
    states = derived_state_gfs(family)
    total = RationalGF(0, 1)
    for weight, gf in zip(ts.output_weights, states):
        if weight:
            total = total + gf * weight
    return total * RationalGF(Polynomial.x(), 1)


@lru_cache(maxsize=None)
def derived_recurrence(family: Family) -> LinearRecurrence:
    """Corrected closed recurrence read off the derived generating function."""
    return recurrence_from_gf(derived_gf(family))


# -- dominant growth rate ---------------------------------------------------


class GrowthEstimate(NamedTuple):
    dominant_root: float
    empirical_ratio: float
    ratio_index: int


def characteristic_polynomial(rec: LinearRecurrence) -> Polynomial:
    """x^k - c_1 x^(k-1) - ... - c_k for a(n) = sum c_i a(n-i)."""
    return Polynomial(tuple(-c for c in reversed(rec.coefficients)) + (1,))


def dominant_growth_rate(rec: LinearRecurrence, ratio_index: int = 50) -> GrowthEstimate:
    """Largest-modulus real characteristic root plus an empirical ratio.

    The largest root modulus M of the characteristic polynomial's square-free
    part is bracketed, lo <= M < hi with hi - lo < 2^-64, by halving [0, Cauchy
    bound] with a Schur-Cohn test. A sign change on [lo, hi] (tried first, so
    +M wins a tie) or on [-hi, -lo] marks a real root of modulus M to within
    the bracket; its nearest float seeds a bisection to relative tolerance
    1e-12, and is the result if another root in the bisection's window draws
    it away. Raises NoRealDominantRootError when the dominant roots are a
    complex pair.
    """
    char = characteristic_polynomial(rec)
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

    a = eval_recurrence(rec, ratio_index)
    b = eval_recurrence(rec, ratio_index + 1)
    if a == 0:
        raise ValueError(f"sequence value at index {ratio_index} is zero")
    ratio = float(Fraction(b, a))
    return GrowthEstimate(root, ratio, ratio_index)


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


def _polish_real_root(poly: Polynomial, approx: float, rel_tol: float = 1e-12) -> float:
    x0 = Fraction(approx).limit_denominator(10**15)
    step = Fraction(max(abs(approx), 1.0)).limit_denominator(10**6) * Fraction(1, 10**6)
    lo, hi = x0 - step, x0 + step
    if (poly(lo) < 0) == (poly(hi) < 0):
        return approx
    flo = poly(lo)
    while (hi - lo) > Fraction(rel_tol).limit_denominator(10**18) * max(abs(hi), Fraction(1)):
        mid = (lo + hi) / 2
        fm = poly(mid)
        if fm == 0:
            return float(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float((lo + hi) / 2)
