"""Transfer systems and closed linear recurrences for the chain families.

Each linear family carries a small integer state system: state vectors count
independent dominating sets (and near-misses) classified by their behaviour
at the chain's terminal vertex. The published systems omit the length-1 seed
of every "extendable" state; those seeds are measured on the length-1 chain
with the brute-force oracle rather than guessed, which also validates the
state semantics.

All arithmetic is exact over Python ints; evaluations at different lengths
are independent and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import ChainSpec, Family, LINEAR_FAMILIES, build_chain
from .graphs import count_boundary_classes

STATE_CONTAINS = 0
STATE_AVOIDS = 1

STATE_NAMES_2 = ("contains-terminal", "avoids-terminal")
STATE_NAMES_3 = ("contains-terminal", "avoids-terminal", "extendable")


@dataclass(frozen=True)
class TransferSystem:
    """Integer state-update system: v(n+1) = A v(n), count = weights . v(n).

    ``update_matrix[i][j]`` is the multiplicity with which state j at length
    n feeds state i at length n+1. ``output_weights`` select the two genuine
    count states (contains + avoids); the extendable state is bookkeeping.
    """

    family: Family
    state_names: tuple[str, ...]
    update_matrix: tuple[tuple[int, ...], ...]
    initial_vector: tuple[int, ...]
    output_weights: tuple[int, ...]

    def __post_init__(self):
        k = len(self.state_names)
        if len(self.update_matrix) != k or any(len(r) != k for r in self.update_matrix):
            raise ValueError("update matrix shape does not match state count")
        if len(self.initial_vector) != k or len(self.output_weights) != k:
            raise ValueError("vector lengths do not match state count")
        if any(c < 0 for row in self.update_matrix for c in row):
            raise ValueError("update matrix entries must be nonnegative")

    def count(self, vec: tuple[int, ...]) -> int:
        """The count a state vector stands for: its weighted sum."""
        return sum(w * v for w, v in zip(self.output_weights, vec))


# Published state systems, transcribed row by row. None marks the length-1
# seed the source never states; it is filled by oracle measurement.
_SYSTEM_DATA: dict[Family, tuple[tuple[tuple[int, ...], ...], tuple]] = {
    Family.TRIANGULAR: (
        ((0, 1), (1, 1)),
        (1, 2),
    ),
    Family.SQUARE_PARA: (
        ((1, 1, 0), (0, 1, 1), (1, 0, 0)),
        (1, 1, 1),
    ),
    Family.SQUARE_ORTHO: (
        ((0, 1, 1), (1, 1, 0), (0, 1, 1)),
        (1, 1, None),
    ),
    Family.HEX_ORTHO: (
        ((0, 2, 2), (2, 2, 1), (0, 1, 1)),
        (2, 3, None),
    ),
    Family.HEX_META: (
        ((1, 2, 1), (1, 2, 2), (1, 0, 0)),
        (2, 3, None),
    ),
    Family.HEX_PARA: (
        ((1, 1, 1), (1, 3, 2), (0, 1, 1)),
        (2, 3, None),
    ),
}


@lru_cache(maxsize=None)
def measured_extendable_seed(family: Family) -> int:
    """Oracle count of extendable sets on the length-1 chain."""
    chain = build_chain(ChainSpec(family, length=1))
    return count_boundary_classes(chain.graph, chain.terminal_vertex).extendable_count


@lru_cache(maxsize=None)
def paper_transfer_system(family: Family) -> TransferSystem:
    """The published transfer system for a linear family, oracle-seeded.

    Seeds printed in the source are used verbatim; the missing extendable
    seeds are measured with :func:`measured_extendable_seed`.
    """
    if family not in LINEAR_FAMILIES:
        raise ValueError(f"no transfer system for family {family.value}")
    matrix, seeds = _SYSTEM_DATA[family]
    init = tuple(
        measured_extendable_seed(family) if s is None else s for s in seeds
    )
    k = len(init)
    names = STATE_NAMES_2 if k == 2 else STATE_NAMES_3
    weights = (1, 1) if k == 2 else (1, 1, 0)
    return TransferSystem(family, names, matrix, init, weights)


Matrix = tuple[tuple[int, ...], ...]


def _step(matrix: Matrix, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


@lru_cache
def _charpoly(matrix: Matrix) -> tuple[int, ...]:
    """(c_1, ..., c_k) with det(xI - A) = x^k + c_1 x^(k-1) + ... + c_k, by
    Faddeev-LeVerrier: M_i = A M_(i-1) + c_(i-1) I and c_i = -tr(A M_i) / i.

    The c_i are integers, so every division by i is exact. Matrices are held
    as columns, so each product with A is k calls of :func:`_step`. Cached:
    its k^2 steps would cost more than a short power itself, and the audit
    powers the same few matrices to many small exponents.
    """
    k = len(matrix)
    a_m = [(0,) * k] * k  # columns of A M_0 = 0
    coeffs, c = [], 1
    for i in range(1, k + 1):
        m = [tuple(v + c * (r == j) for r, v in enumerate(col)) for j, col in enumerate(a_m)]
        a_m = [_step(matrix, col) for col in m]
        c = -sum(col[j] for j, col in enumerate(a_m)) // i
        coeffs.append(c)
    return tuple(coeffs)


def _x_pow_mod(e: int, c: tuple[int, ...]) -> list[int]:
    """Coefficients r_0..r_(k-1) of x^e mod x^k + c_1 x^(k-1) + ... + c_k.

    Left-to-right binary powering: a squaring takes k(k+1)/2 products of
    large coefficients (r_i^2 once, 2 r_i r_j for i < j), a multiplication by
    x is a shift, and reduction by the monic modulus multiplies large
    coefficients only by the small c_i.
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


def mat_pow_vec(matrix: Matrix, e: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    """A^e v exactly, as r(A) v with r = x^e mod the characteristic polynomial
    of A (Fiduccia's method): O(log e) polynomial squarings of k(k+1)/2 large
    products each, then at most k - 1 single steps for the A^i v.

    By Cayley-Hamilton A^e = r(A), so A^e v = sum r_i A^i v.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    r = _x_pow_mod(e, _charpoly(matrix))
    while len(r) > 1 and not r[-1]:
        r.pop()  # so a short power, r = x^e with e < k, takes e steps, not k - 1
    out = [0] * len(vec)
    power = tuple(vec)
    for i, ri in enumerate(r):
        if i:
            power = _step(matrix, power)
        if ri:
            out = [o + ri * p for o, p in zip(out, power)]
    return tuple(out)


def state_trajectory(system: TransferSystem, n: int) -> list[tuple[int, ...]]:
    """State vectors for lengths 1..n, by n-1 single steps."""
    if n < 1:
        raise ValueError("length must be at least 1")
    vec = system.initial_vector
    out = [vec]
    for _ in range(n - 1):
        vec = _step(system.update_matrix, vec)
        out.append(vec)
    return out


def transfer_state(system: TransferSystem, n: int) -> tuple[int, ...]:
    """State vector at length n: A^(n-1) v(1), by :func:`mat_pow_vec` in
    O(log n) polynomial squarings."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return mat_pow_vec(system.update_matrix, n - 1, system.initial_vector)


def run_transfer(system: TransferSystem, n: int) -> int:
    """Count at length n: the weighted sum of the state vector at length n."""
    return system.count(transfer_state(system, n))


@dataclass(frozen=True)
class LinearRecurrence:
    """Constant-coefficient recurrence a(n) = sum c_i * a(n-i).

    ``initial_terms`` holds (index, value) pairs; ``formal_indices`` marks
    seeds that correspond to no actual graph (used purely to start the
    recurrence). ``valid_from`` is the first index at which the relation is
    claimed to hold.
    """

    coefficients: tuple[int, ...]
    initial_terms: tuple[tuple[int, int], ...]
    valid_from: int
    formal_indices: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("recurrence needs at least one coefficient")
        idx = [i for i, _ in self.initial_terms]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate initial indices")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def initial_map(self) -> dict[int, int]:
        return dict(self.initial_terms)

    @property
    def min_index(self) -> int:
        return min(i for i, _ in self.initial_terms)


_RECURRENCE_DATA = {
    Family.TRIANGULAR: ((1, 1), ((0, 2), (1, 3)), 3, (0,)),
    Family.SQUARE_PARA: ((2, -1, 1), ((1, 2), (2, 4), (3, 7)), 4, ()),
    Family.SQUARE_ORTHO: ((2,), ((0, 1),), 1, (0,)),
    Family.HEX_ORTHO: ((3, 3), ((1, 5), (2, 19)), 3, ()),
    Family.HEX_META: ((3, 1, 2), ((0, 1), (1, 5), (2, 19)), 3, (0,)),
    Family.HEX_PARA: ((6, -9, 6, -1), ((0, 4), (1, 5), (2, 19), (3, 76)), 4, (0,)),
}


def paper_recurrence(family: Family) -> LinearRecurrence:
    """The published closed recurrence with all printed initial terms.

    Formal index-0 seeds are stored verbatim and flagged; they correspond to
    no graph and are excluded from oracle comparison.
    """
    if family not in _RECURRENCE_DATA:
        raise ValueError(f"no published recurrence for family {family.value}")
    coeffs, initials, valid_from, formal = _RECURRENCE_DATA[family]
    return LinearRecurrence(coeffs, initials, valid_from, frozenset(formal))


def _companion(coefficients: tuple[int, ...]) -> Matrix:
    """Shift matrix taking (a(t), ..., a(t-k+1)) to (a(t+1), ..., a(t-k+2))."""
    k = len(coefficients)
    shift = tuple(tuple(int(j == i) for j in range(k)) for i in range(k - 1))
    return (tuple(coefficients),) + shift


def recurrence_values(rec: LinearRecurrence, first: int, last: int) -> list[int]:
    """Values at indices first..last in one pass of k products per term,
    starting after the contiguous window of initial terms; a term supplied
    beyond that window overrides the relation."""
    values, base = rec.initial_map, rec.min_index
    if first < base:
        raise ValueError(f"index {first} below the smallest initial index {base}")
    terms: list[int] = []
    for i in range(base, last + 1):
        if i in values:
            terms.append(values[i])
        elif i < base + rec.order:
            raise ValueError(f"initial terms do not cover index {i}")
        else:
            terms.append(sum(c * terms[-j] for j, c in enumerate(rec.coefficients, 1)))
    return terms[first - base:]


def eval_recurrence(rec: LinearRecurrence, n: int) -> int:
    """Value at index n as :func:`recurrence_values` gives it: stepped up to
    the last supplied term, then advanced by a power of the companion matrix,
    whose characteristic polynomial is the recurrence's own, in O(log n)
    polynomial squarings."""
    values = rec.initial_map
    if n in values:
        return values[n]
    top = max(max(values), rec.min_index + rec.order - 1)
    if n <= top:
        return recurrence_values(rec, n, n)[0]
    window = tuple(reversed(recurrence_values(rec, top - rec.order + 1, top)))
    return mat_pow_vec(_companion(rec.coefficients), n - top, window)[0]
