"""Integer transfer systems and constant-coefficient linear recurrences.

A transfer system is a small integer state-update matrix with a seed vector
and output weights; a recurrence is a coefficient vector with one run of
consecutive initial terms. Both are evaluated exactly over Python ints, a
single term in O(log n) polynomial squarings (Fiduccia's method), the last
one a Hankel quadratic form of k large products (Bostan and Mori). State
vectors are stepped one length at a time; a run of terms is the series of
``genfunc.gf_from_recurrence``. Berlekamp-Massey is the one code that finds a
linear relation: a system's, from its first 2k counts, and every other
through ``genfunc.series_gf``. Nothing here
names a chain family: the published systems and recurrences are transcribed
in ``paper``. Evaluations at different lengths are independent and safe to
run concurrently.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence


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
    ``ValueError``, a matrix or weight vector whose shape does not match it.
    Entries may be negative: the arithmetic is exact over the integers, so a
    printed system with a negative entry is judged.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        k = len(self.initial_vector)
        if len(self.update_matrix) != k or any(len(r) != k for r in self.update_matrix):
            raise ValueError("update matrix shape does not match state count")
        if len(self.output_weights) != k:
            raise ValueError("vector lengths do not match state count")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks its fields too

    def count(self, vec: tuple[int, ...]) -> int:
        """The count a state vector stands for: its weighted sum."""
        return sum(w * v for w, v in zip(self.output_weights, vec))


Matrix = tuple[tuple[int, ...], ...]
# A matrix as, per row, the (column, entry) pairs of its nonzero entries.
Rows = tuple[tuple[tuple[int, int], ...], ...]


def _nonzero_rows(matrix: Matrix) -> Rows:
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in matrix)


def _step(rows: Rows, vec: tuple[int, ...]) -> tuple[int, ...]:
    """A v, visiting only the nonzero entries of A (``rows`` from
    :func:`_nonzero_rows`) and adding, not multiplying, at unit entries."""
    out = []
    for row in rows:
        acc = 0
        for j, c in row:
            if c == 1:
                acc += vec[j]
            else:
                acc += c * vec[j]
        out.append(acc)
    return tuple(out)


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

    Left-to-right binary powering: a squaring takes k(k+1)/2 products of
    large coefficients (r_i^2 once, 2 r_i r_j for i < j), a multiplication by
    x is a shift, and reduction by the monic modulus multiplies large
    coefficients only by the small c_i. The one caller, :func:`_nth_term`,
    asks for x^(e >> 1): its last squaring is a Hankel quadratic form.
    """
    k = len(c)
    r = [1] + [0] * (k - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * k - 1)
        for i, ri in enumerate(r):
            if ri:
                sq[2 * i] += ri * ri
                twice = 2 * ri
                for j in range(i + 1, k):
                    sq[i + j] += twice * r[j]
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
    from its first 2k terms ``head``: sum_i r_i sum_j s_(i+j+b) r_j, with
    r = x^(e >> 1) mod that polynomial and b = e & 1. Exact, as x^e = r^2 x^b
    modulo it and x^m -> s_m vanishes on its multiples. The last squaring so
    takes k large products, not k(k+1)/2; the inner sums are small x large.
    The empty relation (k = 0) annihilates only the zero sequence."""
    if not c:
        return 0
    r, b = _x_pow_mod(e >> 1, c), e & 1
    return sum(ri * sum(map(mul, r, head[i + b:])) for i, ri in enumerate(r))


def state_trajectory(system: TransferSystem, n: int) -> list[tuple[int, ...]]:
    """State vectors for lengths 1..n, by n-1 single steps of :func:`_step`,
    which visits only the nonzero entries of the update matrix (tabled once
    per call)."""
    if n < 1:
        raise ValueError("length must be at least 1")
    rows = _nonzero_rows(system.update_matrix)
    vec = system.initial_vector
    out = [vec]
    for _ in range(n - 1):
        vec = _step(rows, vec)
        out.append(vec)
    return out


@lru_cache
def _transfer_head(system: TransferSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Counts at lengths 1..2k and their shortest relation. By Cayley-Hamilton
    it has order at most k, so the 2k counts fix it. Cached: every
    :func:`run_transfer` and the CLI's transfer route read it."""
    head = tuple(map(system.count, state_trajectory(system, 2 * len(system.initial_vector))))
    return head, _berlekamp_massey(head)


def run_transfer(system: TransferSystem, n: int) -> int:
    """Count at length n, by :func:`_nth_term` from the counts at lengths
    1..2k and their shortest relation, so no state vector is formed."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return _nth_term(*_transfer_head(system), n - 1)


class _LinearRecurrenceFields(NamedTuple):
    coefficients: tuple[int, ...]
    initial_terms: tuple[tuple[int, int], ...]
    valid_from: int


class LinearRecurrence(_LinearRecurrenceFields):
    """Constant-coefficient recurrence a(n) = sum c_i * a(n-i).

    ``initial_terms`` holds (index, value) pairs for one run of consecutive
    indices, at least ``order`` of them; the relation gives every index past
    the run. ``valid_from`` is the first index at which the relation is
    claimed to hold. Construction refuses, with ``ValueError``, an empty
    coefficient tuple, a repeated initial index, and any other set of
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
    """Value at index n: the supplied term, or past the run, by :func:`_nth_term`
    from the run's last k terms, stepped k more times with small ints."""
    values = rec.initial_map
    if n in values:
        return values[n]
    if n < rec.min_index:
        raise ValueError(f"index {n} below the smallest initial index {rec.min_index}")
    base = max(values) - rec.order + 1
    head = [values[base + i] for i in range(rec.order)]
    for _ in range(rec.order):
        head.append(sum(map(mul, rec.coefficients, reversed(head))))
    return _nth_term(head, tuple(-c for c in rec.coefficients), n - base)
