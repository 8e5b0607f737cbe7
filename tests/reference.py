"""Reference implementations the tests judge the package against.

None of these is reachable from the package: the oracle runs only the
frontier DP, and no command checks isomorphism or the cactus property.

* ``pivot_states`` - the DP's final states from the pivot engine's maximal
  independent sets, a second oracle independent of the DP;
* ``is_isomorphic`` - backtracking isomorphism test for small graphs;
* ``is_cactus``     - every edge lies in at most one cycle.
"""

from __future__ import annotations

import itertools

from cactusids.graphs import _COUNT, Graph, _fold, _mis_masks_pivot


def pivot_states(g: Graph, keep: int | None = None, mode: tuple = _COUNT) -> dict:
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


def is_cactus(g: Graph) -> bool:
    """True iff every edge lies in at most one cycle.

    Equivalently, every biconnected component is a single edge or a cycle.
    """
    n = g.n_vertices
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    components: list[list[tuple[int, int]]] = []

    def neighbors(u):
        m = g.adjacency[u]
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, neighbors(root))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent:
                    # simple graph: at most one edge back to the parent
                    parent = -1
                    stack[-1] = (u, -1, it)
                    continue
                if disc[v] == -1:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, neighbors(v)))
                    advanced = True
                    break
                if disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                pu = stack[-1][0]
                low[pu] = min(low[pu], low[u])
                if low[u] >= disc[pu]:
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == (pu, u):
                            break
                    components.append(comp)

    for comp in components:
        vertices = set()
        for u, v in comp:
            vertices.add(u)
            vertices.add(v)
        if len(comp) != 1 and len(comp) != len(vertices):
            return False
    return True
