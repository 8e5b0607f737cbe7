"""Constructors for the eight chain cactus families.

A chain cactus is a sequence of cycle blocks in which consecutive blocks
share exactly one cut vertex. The entry and exit cut vertices of an internal
block sit at cycle distance 1 (ortho), 2 (meta) or 3 (para); triangles admit
only distance 1. Defect chains are square chains whose block m+1 uses the
opposite attachment style.

Canonical numbering: blocks left to right; within a block, vertices are
numbered consecutively starting from the entry cut vertex and walking the
cycle, so constructions are reproducible and stable for golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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

_CYCLE_LEN = {
    Family.TRIANGULAR: 3,
    Family.SQUARE_PARA: 4,
    Family.SQUARE_ORTHO: 4,
    Family.HEX_ORTHO: 6,
    Family.HEX_META: 6,
    Family.HEX_PARA: 6,
    Family.PARA_CHAIN_ORTHO_DEFECT: 4,
    Family.ORTHO_CHAIN_PARA_DEFECT: 4,
}

# cycle distance from a block's entry cut vertex to its exit cut vertex
_EXIT_OFFSET = {
    Family.TRIANGULAR: 1,
    Family.SQUARE_PARA: 2,
    Family.SQUARE_ORTHO: 1,
    Family.HEX_ORTHO: 1,
    Family.HEX_META: 2,
    Family.HEX_PARA: 3,
}


@dataclass(frozen=True)
class ChainSpec:
    """Identifies one constructible chain: a family plus its length parameters.

    Linear families take ``length``; defect families take ``m`` and ``n``
    (m + n + 1 blocks, the defect at block m + 1).
    """

    family: Family
    length: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.family in LINEAR_FAMILIES:
            if self.length is None or self.m is not None or self.n is not None:
                raise ValueError(f"{self.family.value} takes a single length")
            if self.length < 1:
                raise ValueError("length must be at least 1")
        else:
            if self.m is None or self.n is None or self.length is not None:
                raise ValueError(f"{self.family.value} takes m and n")
            if self.m < 1 or self.n < 1:
                raise ValueError("defect parameters m, n must be at least 1")

    @property
    def n_blocks(self) -> int:
        if self.family in LINEAR_FAMILIES:
            return self.length  # type: ignore[return-value]
        return self.m + self.n + 1  # type: ignore[operator]


@dataclass(frozen=True)
class LabeledChain:
    """A built chain: graph plus block structure and the terminal vertex.

    ``terminal_vertex`` is the vertex of the last block at the position where
    block n+1 would attach; the recurrence states classify sets by their
    behaviour there.
    """

    graph: Graph
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    terminal_vertex: int


def _exit_offsets(spec: ChainSpec) -> list[int]:
    fam = spec.family
    if fam in LINEAR_FAMILIES:
        return [_EXIT_OFFSET[fam]] * spec.length
    if fam is Family.PARA_CHAIN_ORTHO_DEFECT:
        offsets = [_EXIT_OFFSET[Family.SQUARE_PARA]] * spec.n_blocks
        offsets[spec.m] = _EXIT_OFFSET[Family.SQUARE_ORTHO]  # block m+1, 0-based index m
        return offsets
    offsets = [_EXIT_OFFSET[Family.SQUARE_ORTHO]] * spec.n_blocks
    offsets[spec.m] = _EXIT_OFFSET[Family.SQUARE_PARA]
    return offsets


def build_chain(spec: ChainSpec) -> LabeledChain:
    """Construct the labeled chain for ``spec``."""
    cycle_len = _CYCLE_LEN[spec.family]
    offsets = _exit_offsets(spec)
    n_blocks = spec.n_blocks

    edges: list[tuple[int, int]] = []
    blocks: list[tuple[int, ...]] = []
    cut_vertices: list[int] = []
    entry = 0
    next_id = 1 if n_blocks else 0
    for k in range(n_blocks):
        cycle = [entry] + list(range(next_id, next_id + cycle_len - 1))
        next_id += cycle_len - 1
        for i in range(cycle_len):
            edges.append((cycle[i], cycle[(i + 1) % cycle_len]))
        blocks.append(tuple(cycle))
        exit_vertex = cycle[offsets[k]]
        if k < n_blocks - 1:
            cut_vertices.append(exit_vertex)
            entry = exit_vertex
        else:
            terminal = exit_vertex
    graph = Graph.from_edges(next_id, edges)
    return LabeledChain(graph, tuple(blocks), tuple(cut_vertices), terminal)


def expected_vertex_count(spec: ChainSpec) -> int:
    """Closed-form vertex count the construction must produce."""
    c = _CYCLE_LEN[spec.family]
    return c + (spec.n_blocks - 1) * (c - 1)


def to_edge_list_text(spec: ChainSpec, chain: LabeledChain) -> str:
    """Plain edge list: '#' header comments then one 'u v' line per edge."""
    lines = [f"# family={spec.family.value}"]
    if spec.family in LINEAR_FAMILIES:
        lines.append(f"# length={spec.length}")
    else:
        lines.append(f"# m={spec.m} n={spec.n}")
    lines.append(f"# vertices={chain.graph.n_vertices}")
    for u, v in sorted(chain.graph.edges()):
        lines.append(f"{u} {v}")
    return "\n".join(lines)


def to_json_dict(spec: ChainSpec, chain: LabeledChain) -> dict:
    doc = {
        "family": spec.family.value,
        "n_vertices": chain.graph.n_vertices,
        "edges": [list(e) for e in sorted(chain.graph.edges())],
        "blocks": [list(b) for b in chain.blocks],
        "cut_vertices": list(chain.cut_vertices),
        "terminal_vertex": chain.terminal_vertex,
    }
    if spec.family in LINEAR_FAMILIES:
        doc["length"] = spec.length
    else:
        doc["m"] = spec.m
        doc["n"] = spec.n
    return doc
