"""Constructors for the eight chain cactus families.

A chain cactus is a sequence of cycle blocks in which consecutive blocks
share exactly one cut vertex, so every chain is a word over letters (c, d):
a c-cycle whose exit cut vertex sits d steps around the cycle from its entry
cut vertex. ``_LETTER`` gives each linear family its letter, and its chains
repeat it: tri = (3,1)^n; the square chains (4,2)^n (para) and (4,1)^n
(ortho); the hexagon chains (6,1)^n, (6,2)^n and (6,3)^n (ortho, meta,
para). A defect chain is a square chain whose block m+1 uses the other
square letter: p-defect = (4,2)^m (4,1) (4,2)^n and s-defect =
(4,1)^m (4,2) (4,1)^n. One loop builds every word.

Canonical numbering: blocks left to right; within a block, vertices are
numbered consecutively starting from the entry cut vertex and walking the
cycle, so constructions are reproducible and stable for golden tests.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .graphs import Graph


class Family(str, Enum):
    TRIANGULAR = "tri"
    SQUARE_PARA = "sq-para"
    SQUARE_ORTHO = "sq-ortho"
    HEX_ORTHO = "hex-ortho"
    HEX_META = "hex-meta"
    HEX_PARA = "hex-para"
    PARA_CHAIN_ORTHO_DEFECT = "p-defect"
    ORTHO_CHAIN_PARA_DEFECT = "s-defect"


LINEAR_FAMILIES = (
    Family.TRIANGULAR,
    Family.SQUARE_PARA,
    Family.SQUARE_ORTHO,
    Family.HEX_ORTHO,
    Family.HEX_META,
    Family.HEX_PARA,
)

DEFECT_FAMILIES = (Family.PARA_CHAIN_ORTHO_DEFECT, Family.ORTHO_CHAIN_PARA_DEFECT)

Letter = tuple[int, int]

# each linear family's letter: (cycle length, entry-to-exit cycle distance)
_LETTER: dict[Family, Letter] = {
    Family.TRIANGULAR: (3, 1),
    Family.SQUARE_PARA: (4, 2),
    Family.SQUARE_ORTHO: (4, 1),
    Family.HEX_ORTHO: (6, 1),
    Family.HEX_META: (6, 2),
    Family.HEX_PARA: (6, 3),
}


class _ChainSpecFields(NamedTuple):
    family: Family
    length: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None


class ChainSpec(_ChainSpecFields):
    """Identifies one constructible chain: a family plus its length parameters.

    Linear families take ``length``; defect families take ``m`` and ``n``
    (m + n + 1 blocks, the defect at block m + 1). Construction refuses any
    other combination with ``ValueError``, and a parameter that is not an int
    with ``TypeError``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        linear = self.family in LINEAR_FAMILIES
        if linear and (self.length is None or self.m is not None or self.n is not None):
            raise ValueError(f"{self.family.value} takes a single length")
        if not linear and (self.m is None or self.n is None or self.length is not None):
            raise ValueError(f"{self.family.value} takes m and n")
        for name, value in self.params.items():
            if not isinstance(value, int):
                raise TypeError(f"integer {name} required, got {value!r}")
        if linear and self.length < 1:
            raise ValueError("length must be at least 1")
        if not linear and (self.m < 1 or self.n < 1):
            raise ValueError("defect parameters m, n must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks its fields too

    @property
    def runs(self) -> tuple[tuple[Letter, int], ...]:
        """The chain's blocks, left to right, as (letter, count) runs of equal
        letters: sizes read off them cost nothing however long the chain."""
        if self.family in LINEAR_FAMILIES:
            return ((_LETTER[self.family], self.length),)  # type: ignore[return-value]
        arm, defect = _LETTER[Family.SQUARE_PARA], _LETTER[Family.SQUARE_ORTHO]
        if self.family is Family.ORTHO_CHAIN_PARA_DEFECT:
            arm, defect = defect, arm
        return ((arm, self.m), (defect, 1), (arm, self.n))  # type: ignore[return-value]

    @property
    def word(self) -> tuple[Letter, ...]:
        """The chain's blocks, left to right, as letters."""
        return sum(((letter,) * count for letter, count in self.runs), ())

    @property
    def params(self) -> dict[str, int]:
        """The length parameters by name, as the writers print them."""
        if self.family in LINEAR_FAMILIES:
            return {"length": self.length}  # type: ignore[dict-item]
        return {"m": self.m, "n": self.n}  # type: ignore[dict-item]


class LabeledChain(NamedTuple):
    """A built chain: graph plus block structure and the terminal vertex.

    ``terminal_vertex`` is the vertex of the last block at the position where
    block n+1 would attach; the recurrence states classify sets by their
    behaviour there.
    """

    graph: Graph
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    terminal_vertex: int


def _build_word(word: Sequence[Letter]) -> LabeledChain:
    """Construct the chain whose blocks, left to right, are the letters of
    ``word``; each block is numbered walking its cycle from the entry vertex.

    Each cycle's edges are ORed straight into the adjacency masks. Its
    vertices are in range and distinct (every letter has c >= 3), so the
    checks of ``Graph.from_edges``, the entry for edges from outside, are
    not needed here.
    """
    adjacency = [0]
    blocks: list[tuple[int, ...]] = []
    entry = 0
    for c, d in word:
        first = len(adjacency)
        cycle = (entry, *range(first, first + c - 1))
        adjacency += [0] * (c - 1)
        prev = cycle[-1]
        for v in cycle:
            adjacency[v] |= 1 << prev
            adjacency[prev] |= 1 << v
            prev = v
        blocks.append(cycle)
        entry = cycle[d]
    graph = Graph(tuple(adjacency))
    return LabeledChain(graph, tuple(blocks), tuple(b[0] for b in blocks[1:]), entry)


def build_chain(spec: ChainSpec) -> LabeledChain:
    """Construct the labeled chain for ``spec``."""
    return _build_word(spec.word)


def expected_vertex_count(spec: ChainSpec) -> int:
    """Closed-form vertex count the construction must produce: each block
    adds c - 1 vertices to the first block's entry vertex."""
    return 1 + sum(count * (c - 1) for (c, _), count in spec.runs)


def to_edge_list_text(spec: ChainSpec, chain: LabeledChain) -> str:
    """Plain edge list: '#' header comments then one 'u v' line per edge."""
    lines = [
        f"# family={spec.family.value}",
        "# " + " ".join(f"{k}={v}" for k, v in spec.params.items()),
        f"# vertices={chain.graph.n_vertices}",
    ]
    lines.extend(f"{u} {v}" for u, v in chain.graph.edges())
    return "\n".join(lines)


def to_json_dict(spec: ChainSpec, chain: LabeledChain) -> dict:
    return {
        "family": spec.family.value,
        "n_vertices": chain.graph.n_vertices,
        "edges": [list(e) for e in chain.graph.edges()],
        "blocks": [list(b) for b in chain.blocks],
        "cut_vertices": list(chain.cut_vertices),
        "terminal_vertex": chain.terminal_vertex,
        **spec.params,
    }
