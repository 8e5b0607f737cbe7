"""The paper's statements, transcribed as printed: state systems and their
seeds, closed recurrences, generating functions and the linear systems for
the per-state series, the domination-number and defect formulas, and the
sentences of the remaining claims. Known-wrong statements are kept as
printed, so that the verifier can refute them. A printed a(0) is kept too:
no chain has length 0, so it is a formal seed of its recurrence.

This is the only module that holds a transcription. ``recurrences``
computes with any matrix, recurrence or series and never names a family,
and the Bareiss solver reads a printed linear system as the coefficient
table kept here; ``verify`` judges what is here. The values computed for
one family live here too: its transfer system, whose unprinted seeds are
measured on the built length-1 chain; the derived series, which
``recurrences.series_gf`` reads off the oracle's boundary classes on the
built chains of lengths 1..6, all read in one prefix pass over the length-6
chain, reading no transcription; and the defect
formulas, whose far terms ``recurrences.gf_term`` reads off the square
chains' derived series.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .chains import ChainSpec, Family, LINEAR_FAMILIES, build_chain
from .graphs import _COUNT, BoundaryCounts, _prefix_classes
from .polynomials import Polynomial, RationalGF
from .recurrences import (
    LinearRecurrence, TransferSystem, gf_term, recurrence_from_gf, series_gf,
)

STATE_CONTAINS = 0
STATE_AVOIDS = 1

STATE_NAMES_2 = ("contains-terminal", "avoids-terminal")
STATE_NAMES_3 = ("contains-terminal", "avoids-terminal", "extendable")

FAMILY_TITLE = {
    Family.TRIANGULAR: "triangular chains",
    Family.SQUARE_PARA: "para-chains of squares",
    Family.SQUARE_ORTHO: "ortho-chains of squares",
    Family.HEX_ORTHO: "ortho-chains of hexagons",
    Family.HEX_META: "meta-chains of hexagons",
    Family.HEX_PARA: "para-chains of hexagons",
}

# -- state systems -----------------------------------------------------------

# Published state systems, transcribed row by row, with their length-1
# seeds. None marks a seed the source never states; it is measured instead.
_SYSTEM_DATA: dict[Family, tuple[tuple[tuple[int, ...], ...], tuple]] = {
    Family.TRIANGULAR: (((0, 1), (1, 1)), (1, 2)),
    Family.SQUARE_PARA: (((1, 1, 0), (0, 1, 1), (1, 0, 0)), (1, 1, 1)),
    Family.SQUARE_ORTHO: (((0, 1, 1), (1, 1, 0), (0, 1, 1)), (1, 1, None)),
    Family.HEX_ORTHO: (((0, 2, 2), (2, 2, 1), (0, 1, 1)), (2, 3, None)),
    Family.HEX_META: (((1, 2, 1), (1, 2, 2), (1, 0, 0)), (2, 3, None)),
    Family.HEX_PARA: (((1, 1, 1), (1, 3, 2), (0, 1, 1)), (2, 3, None)),
}


def printed_seed_flags(family: Family) -> tuple[bool, ...]:
    """Whether the source prints each length-1 seed of the family's system."""
    return tuple(seed is not None for seed in _SYSTEM_DATA[family][1])


def _prefix_reads(spec: ChainSpec, mode: tuple = _COUNT) -> list:
    """The oracle's reads after each block of the spec's chain, from one DP
    pass over the built chain: the boundary classes at the terminal vertex
    of every block prefix (``_COUNT``), or its least maximal independent set
    (``_MIN``). Each prefix is itself a built chain, since blocks are
    numbered left to right; the last is the whole chain."""
    chain = build_chain(spec)
    terminals = chain.cut_vertices + (chain.terminal_vertex,)
    cuts = [(block[-1] + 1, v) for block, v in zip(chain.blocks, terminals)]
    return _prefix_classes(chain.graph, cuts, mode)


@lru_cache(maxsize=None)
def _oracle_profile(family: Family, n: int) -> tuple[BoundaryCounts, ...]:
    """Boundary classes at the terminal vertex of the chains of lengths 1..n,
    read in one pass over the length-n chain; the one cache."""
    return tuple(_prefix_reads(ChainSpec(family, length=n)))


@lru_cache(maxsize=None)
def measured_extendable_seed(family: Family) -> int:
    """Oracle count of extendable sets on the length-1 chain."""
    return _oracle_profile(family, 1)[0].extendable_count


@lru_cache(maxsize=None)
def paper_transfer_system(family: Family) -> TransferSystem:
    """The published transfer system for a linear family. Seeds printed in
    the source are used verbatim; the missing extendable seeds are measured
    with :func:`measured_extendable_seed`."""
    if family not in LINEAR_FAMILIES:
        raise ValueError(f"no transfer system for family {family.value}")
    matrix, seeds = _SYSTEM_DATA[family]
    init = tuple(
        measured_extendable_seed(family) if s is None else s for s in seeds
    )
    weights = (1, 1) if len(init) == 2 else (1, 1, 0)
    return TransferSystem(matrix, init, weights)


# -- closed recurrences ------------------------------------------------------

# (coefficients, printed initial terms, first index the relation is claimed
# from). A printed a(0) is a formal seed: no chain has length 0.
_RECURRENCE_DATA = {
    Family.TRIANGULAR: ((1, 1), ((0, 2), (1, 3)), 3),
    Family.SQUARE_PARA: ((2, -1, 1), ((1, 2), (2, 4), (3, 7)), 4),
    Family.SQUARE_ORTHO: ((2,), ((0, 1),), 1),
    Family.HEX_ORTHO: ((3, 3), ((1, 5), (2, 19)), 3),
    Family.HEX_META: ((3, 1, 2), ((0, 1), (1, 5), (2, 19)), 3),
    Family.HEX_PARA: ((6, -9, 6, -1), ((0, 4), (1, 5), (2, 19), (3, 76)), 4),
}


def paper_recurrence(family: Family) -> LinearRecurrence:
    """The published closed recurrence with all printed initial terms, a
    formal a(0) included."""
    if family not in _RECURRENCE_DATA:
        raise ValueError(f"no published recurrence for family {family.value}")
    return LinearRecurrence(*_RECURRENCE_DATA[family])


# -- generating functions ----------------------------------------------------

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
# (including their wrong right-hand sides where the source slipped): the
# matrix rows, the right-hand side and the unknowns, each entry a polynomial's
# coefficients.
_PAPER_GF_SYSTEM = {
    Family.TRIANGULAR: (
        (((1, -1), (0, -1)), ((0, -1), (1,))),
        ((1,), (0,)),
        ("avoids-terminal", "contains-terminal"),
    ),
    Family.SQUARE_PARA: (
        (((1, -1), (0, -1), (0,)), ((0,), (1, -1), (0, -1)), ((0, -1), (0,), (1,))),
        ((1,), (1,), (1,)),
        STATE_NAMES_3,
    ),
    Family.HEX_ORTHO: (
        (((1,), (0, -2), (0, -2)), ((0, -2), (1, -2), (0, -1)), ((0,), (0, -1), (1, -1))),
        ((2,), (3,), (1,)),
        STATE_NAMES_3,
    ),
    Family.HEX_META: (
        (((1, -1, -1), (0, -2)), ((0, -1, -2), (1, -2))),
        ((1, 1), (1, 2)),
        STATE_NAMES_2,
    ),
    Family.HEX_PARA: (
        (((1, -1), (0, -1), (0, -1)), ((0, -1), (1, -3), (0, -2)), ((0,), (0, -1), (1, -1))),
        ((2,), (3,), (1,)),
        STATE_NAMES_3,
    ),
}


def paper_gf(family: Family) -> RationalGF:
    """The published generating function, as printed."""
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


def paper_gf_system(family: Family) -> Optional[tuple]:
    """Published linear system for the per-state series as transcribed, or
    None: (matrix rows, right-hand side, unknown names), each polynomial a
    coefficient tuple, as the Bareiss solver takes them."""
    return _PAPER_GF_SYSTEM.get(family)


# -- derived (corrected) generating functions --------------------------------

# A length-n chain is an n-fold product of one 3x3 operator on its terminal
# vertex's classes (contains, avoids, extendable), Telle & Proskurowski's DP
# folded per block. So each class, and the count, obeys a relation of order at
# most 3, fixed by lengths 1..6 (Massey 1969); hexagons at 6 have 31 vertices.
_DERIVED_MAX = 6


@lru_cache(maxsize=None)
def derived_state_gfs(family: Family) -> tuple[RationalGF, ...]:
    """Per-class series of the built chains: coefficient k of series i is the
    oracle's count of boundary class i at length k+1. A class that is empty
    at every length, the triangle chains' extendable one, is left out."""
    classes = zip(*_oracle_profile(family, _DERIVED_MAX))
    return tuple(series_gf(terms, 0) for terms in classes if any(terms))


@lru_cache(maxsize=None)
def derived_gf(family: Family) -> RationalGF:
    """Corrected family generating function, from the oracle's counts.

    Physical convention: coefficient n is the count at length n >= 1 and
    coefficient 0 is zero.
    """
    counts = [sum(profile[:2]) for profile in _oracle_profile(family, _DERIVED_MAX)]
    return series_gf(counts, 1)


@lru_cache(maxsize=None)
def derived_recurrence(family: Family) -> LinearRecurrence:
    """Corrected closed recurrence read off the derived generating function."""
    return recurrence_from_gf(derived_gf(family))


# -- formulas and sentences --------------------------------------------------

# the published independence domination numbers: (value at length n, text)
GAMMA_FORMULA: dict[Family, tuple[Callable[[int], int], str]] = {
    Family.TRIANGULAR: (lambda n: (n + 1) // 2, "gamma_i(length n) = floor((n+1)/2)"),
    Family.HEX_ORTHO: (lambda n: (3 * n + 1) // 2, "gamma_i(length n) = ceil(3n/2)"),
    Family.HEX_META: (lambda n: (3 * n + 1) // 2, "gamma_i(length n) = ceil(3n/2)"),
}

# the published defect composition formulas: (kind, location, statement)
DEFECT_FORMULA = {
    Family.PARA_CHAIN_ORTHO_DEFECT: (
        "ortho-defect",
        "square-chain defect examples: ortho defect in a para-chain",
        "p({m},{n}) = q(m)*avoids(n+1) + q(n)*avoids(m+1), with q and "
        "avoids taken from the para-square system",
    ),
    Family.ORTHO_CHAIN_PARA_DEFECT: (
        "para-defect",
        "square-chain defect examples: para defect in an ortho-chain",
        "s({m},{n}) = s(m)*s(n) + 2*s(m-1)*s(n-1), with s(k) the "
        "ortho-square counts and s(0) = 1",
    ),
}


def defect_formula_value(family: Family, m: int, n: int) -> int:
    """Evaluate a defect family's published composition formula from the
    square chains' derived series."""
    if family not in DEFECT_FORMULA:
        raise ValueError(f"no defect formula is published for {family.value}")
    if m < 1 or n < 1:
        raise ValueError("defect parameters must be at least 1")
    if family is Family.PARA_CHAIN_ORTHO_DEFECT:
        q = derived_gf(Family.SQUARE_PARA)
        # coefficient k of the avoids series is avoids(k+1)
        avoids = derived_state_gfs(Family.SQUARE_PARA)[STATE_AVOIDS]
        return gf_term(q, m) * gf_term(avoids, n) + gf_term(q, n) * gf_term(avoids, m)
    gf = derived_gf(Family.SQUARE_ORTHO)

    def s(k: int) -> int:
        return 1 if k == 0 else gf_term(gf, k)

    return s(n) * s(m) + 2 * s(m - 1) * s(n - 1)


# Printed statements about one family that no table above holds, by claim id
# suffix: (family, kind, location, statement).
PRINTED_STATEMENTS = {
    "extendable-identity": (
        Family.HEX_META, "recurrence", "extendable-state identity",
        "extendable(n) = contains(n-1) for n >= 2",
    ),
    "growth-rate": (
        Family.TRIANGULAR, "asymptotic", "Fibonacci growth rate",
        "counts grow like r^n with r = (1+sqrt(5))/2",
    ),
    "asymptotic-form": (
        Family.TRIANGULAR, "asymptotic", "closed approximation",
        "a(n) is approximately r^n/sqrt(5), r = (1+sqrt(5))/2",
    ),
}
