"""Bitset graphs and the brute-force oracle for maximal independent sets.

A maximal independent set is exactly an independent dominating set, so the
oracle doubles as ground truth for every counting claim in the package. It
reads nothing but the graph, so it stays independent of the transfer
systems and formulas it judges.

The four public oracle functions (``count_ids``, ``count_boundary_classes``,
``independent_domination_number``, ``enumerate_mis``) take no engine choice:
each refuses a graph above ``DEFAULT_MAX_VERTICES`` and lets the graph pick
one of three private engines. All three share one signature, ``(g,
keep=None, mode=_COUNT) -> final states``, and return equal states:

* ``_dp_states``    - a frontier DP over the vertices in id order (Telle &
  Proskurowski 1997): each live vertex is in the set, dominated, or waiting
  to be dominated. One loop counts, minimises and lists the sets. It runs
  whenever the id order keeps at most ``DP_MAX_WIDTH`` vertices live at
  once; every chain family keeps at most 3, so the work is linear in the
  number of vertices (and, when listing, in the number of sets);
* ``_pivot_states`` - maximal-clique enumeration on the complement graph
  with Tomita-style pivoting; it runs when the frontier is wider;
* ``_scan_counts``  - literal subset scan over all 2^n vertex subsets,
  checking the definition (independent, closed neighbourhood covers
  everything). No public call reaches it; tests use it as the cross-check.

Since no caller can force an engine, the cost bound documented at
``DP_MAX_WIDTH`` holds for every public call. Vertex sets are plain ints
used as bitmasks (bit i = vertex i). All functions are pure; shared graphs
are safe to use concurrently.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

DEFAULT_MAX_VERTICES = 40  # hard resource cap for every oracle call
# Widest id-order frontier at which the oracle runs the DP rather than
# pivoting. A live vertex is in the set, dominated or waiting, so a frontier
# of w vertices has at most 3^w states. At 10, a 40-vertex graph costs at
# most 40 * 3^10 (about 2.4M) state updates, on the order of the pivot
# engine's own worst case there (up to 3^(40/3), about 2.3M, maximal
# independent sets). The 2^n scan is never public, so this bound holds for
# every oracle call.
DP_MAX_WIDTH = 10


class OracleLimitError(RuntimeError):
    """Raised when a graph exceeds the configured oracle ceiling."""


@dataclass(frozen=True)
class Graph:
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

    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

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


def vertex_set(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    mask = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into sorted vertex ids."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _check_mask(g: Graph, s: int) -> None:
    if s < 0 or s >> g.n_vertices:
        raise ValueError(f"vertex set {bin(s)} out of range for {g.n_vertices} vertices")


def closed_neighborhood(g: Graph, s: int) -> int:
    """Union of s with every neighbourhood of a member of s."""
    _check_mask(g, s)
    closed = s
    m = s
    while m:
        b = m & -m
        closed |= g.adjacency[b.bit_length() - 1]
        m ^= b
    return closed


def is_independent(g: Graph, s: int) -> bool:
    """True iff no edge joins two members of s."""
    _check_mask(g, s)
    m = s
    while m:
        b = m & -m
        if g.adjacency[b.bit_length() - 1] & s:
            return False
        m ^= b
    return True


def is_independent_dominating(g: Graph, s: int) -> bool:
    """True iff s is independent and its closed neighbourhood is everything.

    Equivalent to "independent and not extendable by any vertex", i.e. a
    maximal independent set.
    """
    _check_mask(g, s)
    return is_independent(g, s) and closed_neighborhood(g, s) == g.full_mask


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


def _frontier_width(g: Graph, keep: int | None = None) -> int:
    """Most vertices the frontier DP keeps live at once, in id order."""
    live = width = 0
    for v, gone in enumerate(_retire_masks(g, keep)):
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


def _dp_states(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
    """Frontier DP over the vertices in id order (Telle & Proskurowski 1997).

    A state is ``(in_set, undominated)``, two masks over the live vertices.
    Its value depends on the mode: the number of independent sets of the
    processed vertices that reach it (``_COUNT``), the least size of such a
    set (``_MIN``), or the list of those sets as bitsets (``_sets_mode()``;
    each list belongs to one state, so merging extends it in place). A
    vertex that leaves the frontier undominated ends its states, so once
    every vertex is processed only ``keep``'s bits are left: the states say
    whether ``keep`` is in the set, out and dominated, or out and not.
    """
    start, join, combine = mode
    states = {(0, 0): start}
    for v, gone in enumerate(_retire_masks(g, keep)):
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


def _pivot_states(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
    """The DP's final states from the pivot engine's sets.

    Each maximal independent set goes to ``(in_set, 0)``, with ``in_set`` its
    ``keep`` bit. The maximal independent sets of g minus ``keep`` with no
    member next to ``keep`` are the sets that dominate all but ``keep``; they
    go to ``(0, keep bit)``.
    """
    kbit = 0 if keep is None else 1 << keep
    full = g.full_mask
    listed = (((mask & kbit, 0), mask) for mask in _mis_masks_pivot(g.adjacency, full))
    if keep is not None:
        near = g.adjacency[keep]
        listed = itertools.chain(listed, (
            ((0, kbit), mask)
            for mask in _mis_masks_pivot(g.adjacency, full ^ kbit)
            if not mask & near
        ))
    return _fold(listed, mode)


def _oracle_states(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
    """The final states of g: refused above ``DEFAULT_MAX_VERTICES``, from the
    DP when the id-order frontier is at most ``DP_MAX_WIDTH`` wide and from
    the pivot engine when it is wider."""
    if g.n_vertices > DEFAULT_MAX_VERTICES:
        raise OracleLimitError(
            f"graph has {g.n_vertices} vertices, above the oracle ceiling "
            f"{DEFAULT_MAX_VERTICES}"
        )
    engine = _dp_states if _frontier_width(g, keep) <= DP_MAX_WIDTH else _pivot_states
    return engine(g, keep, mode)


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


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test; fine for the small graphs used here."""
    if g1.n_vertices != g2.n_vertices:
        return False
    n = g1.n_vertices
    deg1 = [g1.degree(v) for v in range(n)]
    deg2 = [g2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False

    # process g1 vertices in an order that stays connected to the mapped part
    order: list[int] = []
    seen = 0
    remaining = set(range(n))
    while remaining:
        candidates = [v for v in remaining if g1.adjacency[v] & seen]
        if not candidates:
            candidates = list(remaining)
        v = max(candidates, key=lambda u: (deg1[u], -u))
        order.append(v)
        seen |= 1 << v
        remaining.remove(v)

    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        for c in range(n):
            if used[c] or deg2[c] != deg1[u]:
                continue
            ok = True
            for w in order[:idx]:
                adj_in_1 = bool(g1.adjacency[u] & (1 << w))
                adj_in_2 = bool(g2.adjacency[c] & (1 << mapping[w]))
                if adj_in_1 != adj_in_2:
                    ok = False
                    break
            if ok:
                mapping[u] = c
                used[c] = True
                if extend(idx + 1):
                    return True
                used[c] = False
                mapping[u] = -1
        return False

    return extend(0)
