"""Integer transfer systems and linear recurrences, each read as one GF.

A transfer system is a small integer state-update matrix with a seed vector
and output weights, read as its count series :func:`transfer_gf`; a
recurrence is a coefficient vector with one run of consecutive initial
terms, read as :func:`gf_from_recurrence`. :func:`gf_term` is the one reader
of a far coefficient, in O(log n) polynomial squarings (Fiduccia's method),
the last one a Hankel quadratic form (Bostan and Mori). Each squaring squares
large ints and multiplies none by another: CPython 3.11 squares a 20k-200k bit
int in about 0.7 of the time of a product of two. Berlekamp-Massey is the one
code that finds a linear relation, called only by :func:`series_gf`, the one
step from terms to a GF. Nothing here names a family: the published systems
and recurrences are transcribed in ``paper``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from operator import mul
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, RationalGF, extend_exactly, linear_combination


class _TransferSystemFields(NamedTuple):
    update_matrix: tuple[tuple[int, ...], ...]
    initial_vector: tuple[int, ...]
    output_weights: tuple[int, ...]


class TransferSystem(_TransferSystemFields):
    """Integer state-update system: v(n+1) = A v(n), count = weights . v(n).

    ``update_matrix[i][j]`` is the multiplicity with which state j at length
    n feeds state i at length n+1. ``output_weights`` select the two genuine
    count states (contains + avoids); the extendable state is bookkeeping.
    The state count is the seed's length; construction refuses, with
    ``ValueError``, no states and a matrix or weight vector whose shape does
    not match it, and with ``TypeError`` an entry that is not an int. Entries
    may be negative: the arithmetic is exact over the integers, so a printed
    system with a negative entry is judged.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        k = len(self.initial_vector)
        if k == 0:
            raise ValueError("transfer system needs at least one state")
        if len(self.update_matrix) != k or any(len(r) != k for r in self.update_matrix):
            raise ValueError("update matrix shape does not match state count")
        if len(self.output_weights) != k:
            raise ValueError("vector lengths do not match state count")
        for row in (*self.update_matrix, self.initial_vector, self.output_weights):
            for c in row:
                if not isinstance(c, int):
                    raise TypeError(f"integer entry required, got {c!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks its fields too

    def count(self, vec: tuple[int, ...]) -> int:
        """The count a state vector stands for: its weighted sum."""
        return sum(w * v for w, v in zip(self.output_weights, vec))


def _berlekamp_massey(terms: Sequence[int]) -> tuple[int, ...]:
    """(c_1, ..., c_L) of the shortest relation s_n + c_1 s_(n-1) + ... +
    c_L s_(n-L) = 0 that ``terms`` obey from n = L on (Massey 1969); empty for
    the zero sequence. Fraction-free: where Massey subtracts d/b times the last
    shorter relation, this scales the current one by b, and divides by the
    leading coefficient once at the end. Refuses, with ``ValueError``, an
    order above half the terms, which they do not fix, and a relation with
    non-integer coefficients.
    """
    c, prev = [1], [1]  # the current relation and the last shorter one
    order, shift, prev_d = 0, 1, 1
    for n in range(len(terms)):
        d = sum(map(mul, c, terms[n::-1]))
        if d:
            new = [prev_d * v for v in c] + [0] * (len(prev) + shift - len(c))
            for i, v in enumerate(prev, shift):
                new[i] -= d * v
            if 2 * order <= n:
                prev, prev_d, order, shift = c, d, n + 1 - order, 0
            c = new
        shift += 1
    if 2 * order > len(terms):
        raise ValueError(f"{len(terms)} terms do not fix a relation of order {order}")
    if any(v % c[0] for v in c):
        raise ValueError("the shortest relation has non-integer coefficients")
    return tuple(v // c[0] for v in (c + [0] * order)[1:order + 1])


def _x_pow_mod(e: int, c: tuple[int, ...]) -> list[int]:
    """Coefficients r_0..r_(k-1) of x^e mod x^k + c_1 x^(k-1) + ... + c_k.

    Left-to-right binary powering: a squaring takes k(k+1)/2 squarings of
    large coefficients and no product of two of them, as each cross term
    2 r_i r_j (i < j) is (r_i + r_j)^2 - r_i^2 - r_j^2 with the k squares
    r_i^2 reused (a large squaring takes about 0.7 of the time of a large
    product). A multiplication by x is a shift, and reduction by the monic
    modulus multiplies large coefficients only by the small c_i. The one
    caller, :func:`_nth_term`, asks for x^(e >> 1): its last squaring is a
    Hankel quadratic form.
    """
    k = len(c)
    r = [1] + [0] * (k - 1)
    for bit in bin(e)[2:]:
        squares = [ri * ri for ri in r]
        sq = [0] * (2 * k - 1)
        sq[::2] = squares
        for i in range(k):
            for j in range(i + 1, k):
                s = r[i] + r[j]
                sq[i + j] += s * s - squares[i] - squares[j]
        if bit == "1":
            sq.insert(0, 0)
        for d in range(len(sq) - 1, k - 1, -1):
            top = sq[d]
            if top:
                for i, ci in enumerate(c, 1):
                    sq[d - i] -= ci * top
        r = sq[:k]
    return r


def _nth_term(head: Sequence[int], c: tuple[int, ...], e: int) -> int:
    """Term e of a sequence s that x^k + c_1 x^(k-1) + ... + c_k annihilates,
    from its first 2k terms ``head``: the Hankel form sum_ij r_i s_(i+j+b) r_j,
    with r = x^(e >> 1) mod that polynomial and b = e & 1. Exact, as
    x^e = r^2 x^b modulo it and x^m -> s_m vanishes on its multiples. The last
    squaring so takes at most k large squarings (:func:`_quadratic_form`), not
    k(k+1)/2. The empty relation (k = 0) annihilates only the zero sequence."""
    if not c:
        return 0
    r, b = _x_pow_mod(e >> 1, c), e & 1
    return _quadratic_form([head[i + b:i + b + len(c)] for i in range(len(c))], r)


def _quadratic_form(h: Sequence[Sequence[int]], r: Sequence[int]) -> int:
    """sum_i r_i sum_j h_ij r_j for a symmetric integer matrix h with small
    entries and large r, by fraction-free symmetric elimination: with
    p = h_00 != 0, p Q(r) = (h_0 . r)^2 + Q'(r_1..), where Q' has the integer
    matrix p h_ij - h_0i h_0j (i, j >= 1), so the division by p is exact. Each
    row so takes one large squaring, in about 0.7 of the time of a large
    product; from a zero pivot on, the rows are summed as products."""
    p, top = h[0][0], h[0]
    if not p:
        return sum(ri * sum(map(mul, row, r)) for ri, row in zip(r, h))
    if len(r) == 1:
        return p * (r[0] * r[0])
    lead = sum(map(mul, top, r))
    rest = [[p * v - t * w for v, w in zip(row[1:], top[1:])] for t, row in zip(top[1:], h[1:])]
    return (lead * lead + _quadratic_form(rest, r[1:])) // p


def state_trajectory(system: TransferSystem, n: int) -> list[tuple[int, ...]]:
    """State vectors for lengths 1..n. They grow as one interleaved list,
    whose entry t k + j is state j at length t + 1: state i of each next
    length is the :func:`linear_combination` of the states j at its nonzero
    entries a_ij, each read through islice(flat, j, None, k), and ``zip`` over
    the k rows yields one length at a time, appended by :func:`extend_exactly`
    in one C loop."""
    if n < 1:
        raise ValueError("length must be at least 1")
    k = len(system.initial_vector)
    flat = list(system.initial_vector)
    rows = [
        linear_combination([(c, islice(flat, j, None, k)) for j, c in enumerate(row) if c])
        for row in system.update_matrix
    ]
    extend_exactly(flat, chain.from_iterable(zip(*rows)), n * k)
    return list(zip(*[iter(flat)] * k))


@lru_cache
def transfer_gf(system: TransferSystem) -> RationalGF:
    """The count series, 0 at n = 0: by Cayley-Hamilton the counts obey a
    relation of order at most k, so those at lengths 1..2k fix it. Cached:
    every :func:`run_transfer` and the CLI's transfer route read it."""
    trajectory = state_trajectory(system, 2 * len(system.initial_vector))
    return series_gf(tuple(map(system.count, trajectory)), 1)


def run_transfer(system: TransferSystem, n: int) -> int:
    """Count at length n, coefficient n of :func:`transfer_gf`, so no state
    vector past length 2k is formed."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return gf_term(transfer_gf(system), n)


class _LinearRecurrenceFields(NamedTuple):
    coefficients: tuple[int, ...]
    initial_terms: tuple[tuple[int, int], ...]
    valid_from: int


class LinearRecurrence(_LinearRecurrenceFields):
    """Constant-coefficient recurrence a(n) = sum c_i * a(n-i).

    ``initial_terms`` holds (index, value) pairs for one run of consecutive
    indices, at least ``order`` of them; the relation gives every index past
    the run. The indices are series coefficients, so none is negative.
    ``valid_from`` is the first index at which the relation is claimed to
    hold. Construction refuses, with ``ValueError``, an empty coefficient
    tuple, a repeated or negative initial index, and any other set of
    initial terms: a gap among the indices, or fewer terms than the order.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.coefficients:
            raise ValueError("recurrence needs at least one coefficient")
        idx = sorted(i for i, _ in self.initial_terms)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate initial indices")
        if idx and idx[0] < 0:
            raise ValueError("negative initial index")
        if len(idx) < self.order or idx[-1] - idx[0] != len(idx) - 1:
            raise ValueError(f"need a run of at least {self.order} consecutive initial indices")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks its fields too

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def initial_map(self) -> dict[int, int]:
        return dict(self.initial_terms)

    @property
    def min_index(self) -> int:
        return min(i for i, _ in self.initial_terms)


def eval_recurrence(rec: LinearRecurrence, n: int) -> int:
    """Value at index n: coefficient n of :func:`gf_from_recurrence`."""
    if n < rec.min_index:
        raise ValueError(f"index {n} below the smallest initial index {rec.min_index}")
    return gf_term(gf_from_recurrence(rec), n)


@lru_cache
def gf_from_recurrence(rec: LinearRecurrence) -> RationalGF:
    """The rational function whose expansion is zero below the run of
    initial terms, equals it along the run, and follows the relation past it.

    With D = 1 - sum c_i x^i and P = sum a_i x^i over the supplied terms, the
    numerator is D P cut after the last supplied index: D times the series
    agrees with D P through that index and vanishes beyond it. Cached: every
    :func:`eval_recurrence` reads it.
    """
    den = Polynomial([1] + [-c for c in rec.coefficients])
    terms = [0] * rec.min_index + [v for _, v in sorted(rec.initial_terms)]
    return RationalGF(Polynomial((den * Polynomial(terms)).coeffs[: len(terms)]), den)


def recurrence_from_gf(gf: RationalGF) -> LinearRecurrence:
    """Read the recurrence off a reduced rational generating function.

    The series comes first, so a GF that is not an integer series is refused
    there; its denominator then starts with 1, and coefficient i of the
    recurrence is minus the denominator's coefficient i. Validity starts one
    past the numerator degree, and the initial terms are the series
    coefficients up to that point.
    """
    den, valid_from = gf.denominator, max(gf.numerator.degree + 1, 1)
    series = gf.series(max(valid_from - 1, den.degree - 1))
    coeffs = tuple(-den[i] for i in range(1, den.degree + 1))
    if not coeffs:
        raise ValueError("polynomial (finite) series has no recurrence order")
    return LinearRecurrence(coeffs, tuple(enumerate(series)), valid_from)


def gf_term(gf: RationalGF, n: int) -> int:
    """Coefficient n of an integer series P/Q = P/(1 + c_1 x + ... + c_k x^k).
    From b = max(deg P + 1 - k, 0) on the coefficients obey the relation c,
    so the first b + 2k are read off the series, and each later one by
    :func:`_nth_term` from the 2k at b on. Refuses, with ``ValueError``, what
    ``RationalGF.series`` refuses, and a negative n."""
    if n < 0:
        raise ValueError(f"coefficient index {n} is negative")
    c = gf.denominator.coeffs[1:]
    b = max(gf.numerator.degree + 1 - len(c), 0)
    head = gf.series(min(n, b + 2 * len(c) - 1))
    return head[n] if n < len(head) else _nth_term(head[b:], c, n - b)


def series_gf(terms: Sequence[int], first_index: int) -> RationalGF:
    """The series that is ``terms`` from coefficient ``first_index`` on and
    then follows their shortest relation; zero for a run of zeros."""
    # a run of zeros has the empty relation, and obeys s_n = 0 s_(n-1) too
    coefficients = tuple(-c for c in _berlekamp_massey(terms)) or (0,)
    initial = tuple(enumerate(terms, first_index))
    return gf_from_recurrence(LinearRecurrence(coefficients, initial, first_index + len(terms)))
