"""Bitset graphs and the brute-force oracle for maximal independent sets.

A maximal independent set is exactly an independent dominating set, so the
oracle doubles as ground truth for every counting claim in the package. It
reads nothing but the graph, so it stays independent of the transfer
systems and formulas it judges.

The four public oracle functions (``count_ids``, ``count_boundary_classes``,
``independent_domination_number``, ``enumerate_mis``) share one engine,
``_dp_states``: a frontier DP over the vertices in id order (Telle &
Proskurowski 1997). Each live vertex is in the set, dominated, or waiting to
be dominated; one loop counts, minimises and lists the sets. A graph whose
id order keeps more than ``DP_MAX_WIDTH`` vertices live is refused, so the
work bound documented there holds for every public call; every chain family
keeps at most 3 vertices live at once. A listing runs the loop in two halves
and builds each set as heads × tails, one OR per listed set. Its output grows
exponentially with the vertices, so a listing alone is also refused above
``DEFAULT_MAX_VERTICES`` vertices. A call walks the vertices once to build
the retire masks and once more to count the frontier width; the DP then reads
those masks and branches each state inline into its successors.
``_prefix_classes`` reads one DP run at several prefixes of a graph, so one
pass over a chain gives every shorter chain of its family, each a prefix of
it.

Two reference engines stay here for the tests, reached by no public call:
``_scan_counts`` checks the definition over all 2^n vertex subsets, and
``_mis_masks_pivot`` lists the maximal independent sets by maximal-clique
enumeration on the complement graph with Tomita-style pivoting. Vertex sets
are plain ints used as bitmasks (bit i = vertex i). All functions are pure;
shared graphs are safe to use concurrently.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

# Largest graph that ``enumerate_mis`` lists, the one call bounded by its
# vertices: it returns every maximal independent set, and their number grows
# exponentially with V. It stays at 40 or more, the chains of at most 40
# vertices whose sets the tests and the benchmark list.
DEFAULT_MAX_VERTICES = 40
# Widest id-order frontier the oracle accepts; wider graphs are refused. A
# live vertex is in the set, dominated or waiting, so a frontier of w
# vertices has at most 3^w states, and a graph of V vertices costs at most
# V * 3^w state updates, each a few operations on V-bit masks. Every chain
# keeps w <= 3, so it costs at most 27 V updates: counting the 10,001-vertex
# hex-para chain of length 2000 took 0.17 s in-process (Python 3.11.7, 2-CPU
# Xeon).
DP_MAX_WIDTH = 10


class OracleLimitError(RuntimeError):
    """Raised when a graph exceeds the oracle's frontier width, or a listing
    its vertex ceiling."""


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

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v, in ascending order."""
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

    @property
    def count(self) -> int:
        """The maximal independent sets: those containing v plus those avoiding it."""
        return self.in_count + self.out_count


def _retire_masks(g: Graph, keep: int | None) -> list[int]:
    """retire[v]: the vertices the frontier DP drops after processing v.

    A vertex leaves once it and all its neighbours are processed, i.e. at its
    own id or its highest neighbour's, whichever is larger; ``keep`` never
    leaves.
    """
    retire = [0] * g.n_vertices
    for u, a in enumerate(g.adjacency):
        if u != keep:
            last = a.bit_length() - 1
            retire[last if last > u else u] |= 1 << u
    return retire


# Modes of the engines, ``(start, join, combine)``: the value of the empty
# set, the value once the vertices of the bitmask ``members`` join it, and
# the merge of two values that reach one state.
_COUNT = (1, lambda value, members: value, operator.add)
_MIN = (0, lambda value, members: value + members.bit_count(), min)


def _sets_mode() -> tuple:
    """The listing mode, built on every call. Its lists are merged in place, so
    none is shared between calls, and each head state's tag list is fresh."""
    return [0], lambda value, members: [m | members for m in value], operator.iadd


def _dp_states(g: Graph, retire: list[int], mode: tuple = _COUNT,
               states: dict | None = None, first: int = 0) -> dict:
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

    Each state branches inline into its one or two successors, and a
    successor is joined (``join``) only if it survives, so a state costs a
    few mask operations and one or two dict merges.

    A prefix of ``retire`` stops the DP early; ``states`` and ``first`` resume
    it from the states such a run ended with and the first vertex it left
    (by default, the empty set's one state and vertex 0).
    """
    start, join, combine = mode
    if states is None:
        states = {(0, 0): start}
    adjacency = g.adjacency
    for v, gone in enumerate(retire[first:], first):
        vbit = 1 << v
        earlier = adjacency[v] & (vbit - 1)
        stays, covered = ~gone, ~earlier
        nxt: dict = {}
        get = nxt.get
        for (ins, undom), value in states.items():
            if ins & earlier:  # v is out, dominated by an earlier neighbour
                if not undom & gone:
                    key = (ins & stays, undom)
                    old = get(key)
                    nxt[key] = value if old is None else combine(old, value)
                continue
            # v joins and dominates its earlier neighbours
            undom2 = undom & covered
            if not undom2 & gone:
                key = ((ins | vbit) & stays, undom2)
                old, joined = get(key), join(value, vbit)
                nxt[key] = joined if old is None else combine(old, joined)
            # or v is out and waits
            undom2 = undom | vbit
            if not undom2 & gone:
                key = (ins & stays, undom2)
                old = get(key)
                nxt[key] = value if old is None else combine(old, value)
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


def _checked_retire(g: Graph, keep: int | None = None) -> list[int]:
    """``_retire_masks(g, keep)``; refused above the frontier width.

    The frontier width, the most vertices the DP keeps live at once, is
    counted in one walk over the retire masks: each vertex retires once, at
    or after its own step, so step v leaves the live count up by 1 less the
    vertices retiring there.
    """
    retire = _retire_masks(g, keep)
    live = width = 0
    for gone in retire:
        live += 1 - gone.bit_count()
        if live > width:
            width = live
    if width > DP_MAX_WIDTH:
        raise OracleLimitError(
            f"graph keeps {width} vertices live in id order, above the "
            f"frontier limit {DP_MAX_WIDTH}"
        )
    return retire


def _oracle_states(g: Graph, mode: tuple = _COUNT) -> dict:
    """The final states of g from the DP, within the oracle's limits."""
    return _dp_states(g, _checked_retire(g), mode)


def enumerate_mis(g: Graph) -> Iterator[int]:
    """Every maximal independent set once, ascending by bitset value.

    Meet in the middle (Horowitz & Sahni 1974): the DP lists the first half's
    sets (heads) by state, then resumes from each head state ``i`` with the
    one set ``i << n``, a tag above the vertex bits, and lists each tail once
    per head state it completes. Each set is one ``head | tail``. Refused above
    ``DEFAULT_MAX_VERTICES`` vertices, before any mask is built.
    """
    if g.n_vertices > DEFAULT_MAX_VERTICES:
        raise OracleLimitError(
            f"graph has {g.n_vertices} vertices, above the oracle ceiling "
            f"{DEFAULT_MAX_VERTICES}"
        )
    retire = _checked_retire(g)
    n, full, mode = g.n_vertices, g.full_mask, _sets_mode()
    heads = _dp_states(g, retire[: n // 2], mode)
    tagged = {key: [i << n] for i, key in enumerate(heads)}
    # with no kept vertex, (0, 0) is the one final state
    tails = _dp_states(g, retire, mode, tagged, n // 2)[(0, 0)]
    groups = [sorted(masks) for masks in heads.values()]
    # sorted heads and tails leave the final sort little to do
    pairs = sorted((tail & full, tail >> n) for tail in tails)
    masks = [head | tail for tail, i in pairs for head in groups[i]]
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
    return _oracle_states(g, _MIN)[(0, 0)]


def count_boundary_classes(g: Graph, v: int) -> BoundaryCounts:
    """Counts of MIS containing v, MIS avoiding v, and extendable sets at v.

    An extendable set is independent, excludes v, and dominates every vertex
    except v; attaching another block at v can complete it.
    """
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    return _prefix_classes(g, [(g.n_vertices, v)])[0]


def _prefix_classes(g: Graph, cuts: Sequence[tuple[int, int]], mode: tuple = _COUNT) -> list:
    """The oracle's reads on prefixes of g, all from one DP run.

    ``cuts`` holds ``(end, v)`` pairs by ascending ``end``: once vertices
    0..end-1 are processed, v is the only one of them with a neighbour at or
    above ``end`` (a chain's terminal vertex after a block), or ``end`` is
    g's vertex count. The last v is kept, so that it stays live to the end.
    The DP's states at the cut are then those of the prefix graph on
    0..end-1 with v kept, and the cut reads as that graph's ``BoundaryCounts``
    at v (``_COUNT``) or its least maximal independent set (``_MIN``).
    """
    retire = _checked_retire(g, cuts[-1][1])
    states, first, reads = None, 0, []
    for end, v in cuts:
        states = _dp_states(g, retire[:end], mode, states, first)
        first, vbit = end, 1 << v
        inside, out, waiting = (states.get(key) for key in ((vbit, 0), (0, 0), (0, vbit)))
        if mode is _MIN:
            reads.append(min(x for x in (inside, out) if x is not None))
        else:
            reads.append(BoundaryCounts(inside or 0, out or 0, waiting or 0))
    return reads
