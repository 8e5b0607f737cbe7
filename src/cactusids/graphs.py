"""Bitset graphs and the brute-force oracle for maximal independent sets.

A maximal independent set is exactly an independent dominating set, so the
oracle doubles as ground truth for every counting claim in the package. It
reads nothing but the graph, so it stays independent of the transfer
systems and formulas it judges.

The four public oracle functions (``count_ids``, ``count_boundary_classes``,
``independent_domination_number``, ``enumerate_mis``) share one engine,
``_dp_states``: a frontier DP over the vertices in id order (Telle &
Proskurowski 1997). Each live vertex is in the set, dominated, or waiting to
be dominated; one loop counts, minimises and lists the sets. Every chain
family keeps at most 3 vertices live at once, so the work is linear in the
number of vertices (and, when listing, in the number of sets). A graph above
``DEFAULT_MAX_VERTICES`` vertices, or whose id order keeps more than
``DP_MAX_WIDTH`` vertices live, is refused, so the cost bound documented at
``DP_MAX_WIDTH`` holds for every public call.

Two reference engines stay here for the tests, reached by no public call:
``_scan_counts`` checks the definition over all 2^n vertex subsets, and
``_mis_masks_pivot`` lists the maximal independent sets by maximal-clique
enumeration on the complement graph with Tomita-style pivoting. Vertex sets
are plain ints used as bitmasks (bit i = vertex i). All functions are pure;
shared graphs are safe to use concurrently.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple

DEFAULT_MAX_VERTICES = 40  # hard resource cap for every oracle call
# Widest id-order frontier the oracle accepts; wider graphs are refused. A
# live vertex is in the set, dominated or waiting, so a frontier of w
# vertices has at most 3^w states, and a graph of V vertices costs at most
# V * 3^w state updates: 40 * 3^10, about 2.4M, at the vertex cap.
DP_MAX_WIDTH = 10


class OracleLimitError(RuntimeError):
    """Raised when a graph exceeds the oracle's vertex ceiling or frontier width."""


class Graph(NamedTuple):
    """Immutable simple undirected graph over vertex ids 0..n_vertices-1."""

    n_vertices: int
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbours of v

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n_vertices < 0:
            raise ValueError("negative vertex count")
        adj = [0] * n_vertices
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range 0..{n_vertices - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n_vertices, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n_vertices):
            m = self.adjacency[u] >> (u + 1)
            base = u + 1
            while m:
                b = m & -m
                out.append((u, base + b.bit_length() - 1))
                m ^= b
        return out


class BoundaryCounts(NamedTuple):
    in_count: int          # maximal independent sets containing v
    out_count: int         # maximal independent sets avoiding v
    extendable_count: int  # independent sets dominating exactly V minus v, v excluded


def _retire_masks(g: Graph, keep: int | None) -> list[int]:
    """retire[v]: the vertices the frontier DP drops after processing v.

    A vertex leaves once it and all its neighbours are processed, i.e. at its
    own id or its highest neighbour's, whichever is larger; ``keep`` never
    leaves.
    """
    retire = [0] * g.n_vertices
    for u, a in enumerate(g.adjacency):
        if u != keep:
            retire[max(u, a.bit_length() - 1)] |= 1 << u
    return retire


def _frontier_width(retire: list[int]) -> int:
    """Most vertices the frontier DP keeps live at once, given its retire masks."""
    live = width = 0
    for v, gone in enumerate(retire):
        live = (live | 1 << v) & ~gone
        width = max(width, live.bit_count())
    return width


# Modes of the engines, ``(start, join, combine)``: the value of the empty
# set, the value once the vertices of the bitmask ``members`` join it, and
# the merge of two values that reach one state.
_COUNT = (1, lambda value, members: value, operator.add)
_MIN = (0, lambda value, members: value + members.bit_count(), min)


def _sets_mode() -> tuple:
    """The listing mode, built on every call: its lists are merged in place,
    so no list may be shared between calls."""
    return [0], lambda value, members: [m | members for m in value], operator.iadd


def _dp_states(g: Graph, retire: list[int], mode: tuple = _COUNT) -> dict:
    """Frontier DP over the vertices in id order (Telle & Proskurowski 1997).

    A state is ``(in_set, undominated)``, two masks over the live vertices.
    Its value depends on the mode: the number of independent sets of the
    processed vertices that reach it (``_COUNT``), the least size of such a
    set (``_MIN``), or the list of those sets as bitsets (``_sets_mode()``;
    each list belongs to one state, so merging extends it in place).
    ``retire`` is ``_retire_masks(g, keep)``. A vertex that leaves the
    frontier undominated ends its states, so once every vertex is processed
    only ``keep``'s bits are left: the states say whether ``keep`` is in the
    set, out and dominated, or out and not.
    """
    start, join, combine = mode
    states = {(0, 0): start}
    for v, gone in enumerate(retire):
        vbit = 1 << v
        earlier = g.adjacency[v] & (vbit - 1)
        nxt: dict = {}
        for (ins, undom), value in states.items():
            if ins & earlier:  # v is out, dominated by an earlier neighbour
                choices = ((ins, undom, value),)
            else:  # v joins and dominates its earlier neighbours, or is out and waits
                choices = (
                    (ins | vbit, undom & ~earlier, join(value, vbit)),
                    (ins, undom | vbit, value),
                )
            for ins2, undom2, value2 in choices:
                if undom2 & gone:
                    continue
                key = (ins2 & ~gone, undom2)
                old = nxt.get(key)
                nxt[key] = value2 if old is None else combine(old, value2)
        states = nxt
    return states


def _fold(listed: Iterable[tuple[tuple[int, int], int]], mode: tuple) -> dict:
    """The DP's final states from whole sets: each ``(key, mask)`` pair adds
    the set ``mask`` to state ``key``, valued ``join(start, mask)``."""
    start, join, combine = mode
    states: dict = {}
    for key, mask in listed:
        value = join(start, mask)
        old = states.get(key)
        states[key] = value if old is None else combine(old, value)
    return states


def _independent_subsets(g: Graph) -> Iterator[tuple[int, int]]:
    """Literal scan over all 2^n subsets: each independent one, with its
    closed neighbourhood."""
    adj = g.adjacency
    for mask in range(1 << g.n_vertices):
        closed = mask
        m = mask
        while m:
            b = m & -m
            a = adj[b.bit_length() - 1]
            if a & mask:
                break
            closed |= a
            m ^= b
        else:
            yield mask, closed


def _scan_counts(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
    """The DP's final states by the definition, over all 2^n subsets.

    An independent set that dominates every vertex goes to ``(in_set, 0)``,
    with ``in_set`` its ``keep`` bit; one that dominates every vertex but
    ``keep`` goes to ``(0, keep bit)``.
    """
    kbit = 0 if keep is None else 1 << keep
    full = g.full_mask
    listed = (
        ((mask & kbit, 0) if closed == full else (0, kbit), mask)
        for mask, closed in _independent_subsets(g)
        if closed | kbit == full
    )
    return _fold(listed, mode)


def _mis_masks_pivot(adjacency: tuple[int, ...], allowed: int) -> list[int]:
    """All maximal independent sets of the subgraph induced by ``allowed``.

    Maximal cliques of the complement graph, enumerated with deterministic
    pivot selection; result sorted ascending by mask value.
    """
    comp = {}
    m = allowed
    while m:
        b = m & -m
        v = b.bit_length() - 1
        comp[v] = ~adjacency[v] & allowed & ~b
        m ^= b
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        best_u, best = -1, -1
        m = p | x
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            c = (comp[u] & p).bit_count()
            if c > best:
                best, best_u = c, u
        cand = p & ~comp[best_u]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            expand(r | b, p & comp[v], x & comp[v])
            p &= ~b
            x |= b

    expand(0, allowed, 0)
    del expand  # the closure refers to itself; without this, out waits for the cyclic GC
    out.sort()
    return out


def _oracle_states(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
    """The final states of g from the DP; refused above
    ``DEFAULT_MAX_VERTICES`` vertices or ``DP_MAX_WIDTH`` live ones."""
    if g.n_vertices > DEFAULT_MAX_VERTICES:
        raise OracleLimitError(
            f"graph has {g.n_vertices} vertices, above the oracle ceiling "
            f"{DEFAULT_MAX_VERTICES}"
        )
    retire = _retire_masks(g, keep)
    width = _frontier_width(retire)
    if width > DP_MAX_WIDTH:
        raise OracleLimitError(
            f"graph keeps {width} vertices live in id order, above the "
            f"frontier limit {DP_MAX_WIDTH}"
        )
    return _dp_states(g, retire, mode)


def enumerate_mis(g: Graph) -> Iterator[int]:
    """Every maximal independent set once, ascending by bitset value."""
    # with no kept vertex, (0, 0) is the one final state
    masks = _oracle_states(g, mode=_sets_mode())[(0, 0)]
    masks.sort()
    return iter(masks)


def count_ids(g: Graph) -> int:
    """Exact number of independent dominating (= maximal independent) sets.

    The empty graph counts 1 (the empty set is vacuously maximal); no chain
    family ever exercises that case.
    """
    return _oracle_states(g)[(0, 0)]


def independent_domination_number(g: Graph) -> int:
    """Minimum cardinality over all maximal independent sets."""
    if g.n_vertices == 0:
        raise ValueError("empty graph has no dominating set")
    return _oracle_states(g, mode=_MIN)[(0, 0)]


def count_boundary_classes(g: Graph, v: int) -> BoundaryCounts:
    """Counts of MIS containing v, MIS avoiding v, and extendable sets at v.

    An extendable set is independent, excludes v, and dominates every vertex
    except v; attaching another block at v can complete it.
    """
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    vbit = 1 << v
    states = _oracle_states(g, keep=v)
    return BoundaryCounts(
        states.get((vbit, 0), 0), states.get((0, 0), 0), states.get((0, vbit), 0)
    )
