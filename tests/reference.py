"""Reference implementations the tests judge the package against.

None of these is reachable from the package: the oracle runs only the
frontier DP, and no command checks isomorphism or the cactus property.

* ``path_graph``, ``cycle_graph``, ``complete_graph``, ``n_edges`` and
  ``degree`` - small named graphs to count on, and the edge count of a graph
  and the degree of its vertex;
* ``vertex_set``, ``vertices_of``, ``closed_neighborhood``,
  ``is_independent`` and ``is_independent_dominating`` - bitmask vertex
  sets and the definition of an independent dominating set, checked one
  set at a time;
* ``all_claims`` - every registered claim, in registry order;
* ``pivot_states`` - the DP's final states from the pivot engine's maximal
  independent sets, a second oracle independent of the DP;
* ``frontier_width`` - the most vertices the DP keeps live at once, walked
  with the live-vertex mask itself, against which the oracle's one-walk
  count is judged;
* ``is_isomorphic`` - backtracking isomorphism test for small graphs;
* ``is_cactus``     - every edge lies in at most one cycle;
* ``compile_letter`` / ``run_word`` - a chain's boundary classes from its
  block word, one 3x3 operator per letter (c, d), compiled by enumerating
  the c - 1 new vertices of the block; a second route to the oracle's
  classes that never builds the whole graph;
* ``fraction_growth_rate`` / ``fraction_polish`` - the growth-rate
  bracket and the root polish in ``fractions.Fraction`` arithmetic, against
  which the package's integer numerators over integer denominators are judged.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable

from cactusids.chains import DEFECT_FAMILIES, LINEAR_FAMILIES
from cactusids.genfunc import GrowthEstimate, NoRealDominantRootError, _roots_inside
from cactusids.graphs import _COUNT, Graph, _fold, _mis_masks_pivot
from cactusids.polynomials import Polynomial, poly_divmod_exact, poly_gcd
from cactusids.recurrences import LinearRecurrence, eval_recurrence
from cactusids.verify import DEFECT_GRID, Claim, claims_for_family, defect_claim


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def n_edges(g: Graph) -> int:
    return sum(a.bit_count() for a in g.adjacency) // 2


def degree(g: Graph, v: int) -> int:
    return g.adjacency[v].bit_count()


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


def all_claims() -> tuple[Claim, ...]:
    claims: list[Claim] = []
    for family in LINEAR_FAMILIES:
        claims.extend(claims_for_family(family))
    for family in DEFECT_FAMILIES:
        for m, n in DEFECT_GRID:
            claims.append(defect_claim(family, m, n))
    return tuple(claims)


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


def frontier_width(retire: list[int]) -> int:
    """Most vertices the frontier DP keeps live at once, given its retire masks."""
    live = width = 0
    for v, gone in enumerate(retire):
        live = (live | 1 << v) & ~gone
        width = max(width, live.bit_count())
    return width


# Semirings for the block operators, ``(zero, add, mul, weight, start)``:
# ``weight(k)`` is the value of k new vertices joining the set, and ``start``
# is a chain of no blocks, its first entry vertex alone: in the set,
# dominated (impossible) or waiting. (+, x) counts the sets, (min, +) finds
# the least size. Vectors are (contains, avoids, extendable), the order of
# ``BoundaryCounts``.
PLUS_TIMES = (0, operator.add, operator.mul, lambda k: 1, (1, 0, 1))
MIN_PLUS = (math.inf, min, operator.add, lambda k: k, (1, math.inf, 0))


def compile_letter(c: int, d: int, semiring: tuple) -> tuple[tuple, ...]:
    """The 3x3 operator of one block (c, d): entry ``[x][e]`` combines every
    way to choose the block's c - 1 new vertices when its entry vertex 0 is in
    class e (in the set, dominated, waiting to be dominated) and its exit
    vertex d ends in class x. Every new vertex but the exit must end
    dominated, and a waiting entry must be dominated by the block."""
    zero, add, _, weight, _ = semiring
    op = [[zero] * 3 for _ in range(3)]
    new = range(1, c)

    def dominated(v, members):
        return any(u % c in members for u in (v - 1, v, v + 1))

    for entry in range(3):
        for size in range(c):
            for chosen in itertools.combinations(new, size):
                members = set(chosen) | ({0} if entry == 0 else set())
                if any((v + 1) % c in members for v in members):
                    continue  # not independent
                if any(not dominated(v, members) for v in new if v != d):
                    continue
                if entry == 2 and not dominated(0, members):
                    continue
                exit_class = 0 if d in members else 1 if dominated(d, members) else 2
                op[exit_class][entry] = add(op[exit_class][entry], weight(size))
    return tuple(map(tuple, op))


def run_word(word, semiring: tuple) -> tuple:
    """The boundary classes at the exit of the word's last block."""
    zero, add, mul, _, vec = semiring
    for c, d in word:
        vec = tuple(
            functools.reduce(add, (mul(a, v) for a, v in zip(row, vec)), zero)
            for row in compile_letter(c, d, semiring)
        )
    return vec


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test; fine for the small graphs used here."""
    if g1.n_vertices != g2.n_vertices:
        return False
    n = g1.n_vertices
    deg1 = [degree(g1, v) for v in range(n)]
    deg2 = [degree(g2, v) for v in range(n)]
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


def fraction_growth_rate(rec: LinearRecurrence) -> GrowthEstimate:
    """``genfunc.dominant_growth_rate`` with every rational a ``Fraction``: the
    same Cauchy bound, Schur-Cohn halvings, sign test, polish and ratio."""
    char = Polynomial(tuple(-c for c in reversed(rec.coefficients)) + (1,))
    derivative = Polynomial(i * c for i, c in enumerate(char.coeffs) if i)
    squarefree = poly_divmod_exact(char, poly_gcd(char, derivative))
    lo, hi = 0, 1 + Fraction(max(map(abs, squarefree.coeffs[:-1])), squarefree.leading())
    for _ in range(64 + int(hi).bit_length()):
        mid = (lo + hi) / 2
        inside = _roots_inside(squarefree, mid.numerator, mid.denominator)
        lo, hi = (lo, mid) if inside else (mid, hi)
    for sign in (1, -1):
        if squarefree(sign * lo) * squarefree(sign * hi) <= 0:
            seed = sign * float((lo + hi) / 2)
            break
    else:
        raise NoRealDominantRootError(
            f"dominant characteristic roots are a complex pair of magnitude {float(hi):.12g}"
        )
    root = fraction_polish(squarefree, seed)
    if abs(root - seed) > 1e-12 * max(abs(seed), 1):
        root = seed
    a = eval_recurrence(rec, 50)
    b = eval_recurrence(rec, 51)
    if a == 0:
        raise ValueError("sequence value at index 50 is zero")
    return GrowthEstimate(root, float(Fraction(b, a)), 50)


def fraction_polish(poly: Polynomial, approx: float) -> float:
    """``genfunc._polish_real_root`` in ``Fraction`` arithmetic."""
    x0 = Fraction(approx).limit_denominator(10**15)
    step = Fraction(max(abs(approx), 1.0)).limit_denominator(10**6) * Fraction(1, 10**6)
    lo, hi = x0 - step, x0 + step
    if (poly(lo) < 0) == (poly(hi) < 0):
        return approx
    flo = poly(lo)
    while (hi - lo) > Fraction(1e-12).limit_denominator(10**18) * max(abs(hi), Fraction(1)):
        mid = (lo + hi) / 2
        fm = poly(mid)
        if fm == 0:
            return float(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float((lo + hi) / 2)
