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


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_pow_vec(matrix: Matrix, e: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    """A^e v exactly, by repeated squaring: O(log e) matrix products.

    Left-to-right binary powering, so each step squares the partial power and
    at most multiplies it by ``matrix`` itself, whose entries stay small.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return tuple(vec)
    power = matrix
    for bit in bin(e)[3:]:
        power = _mat_mul(power, power)
        if bit == "1":
            power = _mat_mul(power, matrix)
    return _step(power, vec)


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
    """State vector at length n: A^(n-1) v(1), with O(log n) matrix products."""
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


def eval_recurrence(rec: LinearRecurrence, n: int) -> int:
    """Value at index n: an initial term if supplied, else advanced exactly.

    Advancing starts right after the contiguous window of initial terms, so
    gaps between a printed validity index and the first computable term are
    bridged by the recurrence itself. A term supplied beyond that window
    overrides the relation: the window is advanced by companion-matrix powers
    up to it, restarted from it, and so on up to n, with O(log n) matrix
    products and memory for k terms.
    """
    values = rec.initial_map
    if n in values:
        return values[n]
    base = rec.min_index
    if n < base:
        raise ValueError(f"index {n} below the smallest initial index {base}")
    k = rec.order
    for i in range(base, base + k):
        if i not in values:
            raise ValueError(f"initial terms do not cover index {i}")
    companion = _companion(rec.coefficients)
    top = base + k - 1  # window = (a(top), a(top-1), ..., a(top-k+1))
    window = tuple(values[top - j] for j in range(k))
    for i in sorted(i for i in values if top < i < n):
        window = (values[i],) + mat_pow_vec(companion, i - 1 - top, window)[:-1]
        top = i
    return mat_pow_vec(companion, n - top, window)[0]
