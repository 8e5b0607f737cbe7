import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cactusids import graphs as graphs_module, paper
from cactusids.chains import (
    DEFECT_FAMILIES,
    LINEAR_FAMILIES,
    ChainSpec,
    Family,
    build_chain,
    expected_vertex_count,
)
from cactusids.graphs import (
    DEFAULT_MAX_VERTICES,
    DP_MAX_WIDTH,
    BoundaryCounts,
    Graph,
    OracleLimitError,
    count_boundary_classes,
    count_ids,
    enumerate_mis,
    independent_domination_number,
)
from reference import (
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    frontier_width as reference_width,
    is_independent,
    is_independent_dominating,
    is_isomorphic,
    n_edges,
    path_graph,
    pivot_states,
    retire_masks,
    vertex_set,
    vertices_of,
)


def dp_states(g: Graph, keep=None, mode: tuple = graphs_module._COUNT) -> dict:
    """The DP engine with the ``(g, keep, mode)`` signature of the others."""
    return graphs_module._dp_states(g, retire_masks(g, keep), mode)


def frontier_width(g: Graph, keep=None) -> int:
    return reference_width(retire_masks(g, keep))


ENGINES = (dp_states, pivot_states, graphs_module._scan_counts)

K3 = complete_graph(3)
C4 = cycle_graph(4)
C6 = cycle_graph(6)
P3 = path_graph(3)


def random_graph(rng: random.Random, n: int, p: float = 0.3) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete_bipartite(w: int) -> Graph:
    return Graph.from_edges(2 * w, [(i, w + j) for i in range(w) for j in range(w)])


def states(engine, g: Graph, keep=None) -> tuple:
    """An engine's final states in every mode, listed sets sorted."""
    listed = engine(g, keep, graphs_module._sets_mode())
    return (
        engine(g, keep, graphs_module._COUNT),
        engine(g, keep, graphs_module._MIN),
        {key: sorted(masks) for key, masks in listed.items()},
    )


def padovan(n: int) -> int:
    """Padovan's a(n) = a(n - 2) + a(n - 3), with a(1..3) = 1, 2, 2."""
    a = [None, 1, 2, 2]
    while len(a) <= n:
        a.append(a[-2] + a[-3])
    return a[n]


def oracle_calls(g: Graph) -> list:
    """Each public oracle call on g, with the vertex it keeps: the count and
    the minimum keep the last one."""
    last = g.n_vertices - 1
    return [
        (last, lambda: count_ids(g)),
        (last, lambda: independent_domination_number(g)),
        (None, lambda: list(enumerate_mis(g))),
    ] + [(v, lambda v=v: count_boundary_classes(g, v)) for v in range(g.n_vertices)]


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (mask >> k) & 1:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def every_graph(n: int):
    """Every labelled graph on vertices 0..n-1, one for each set of edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


class TestGraphBasics:
    def test_from_edges_validates(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range 0\.\.2$"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range 0\.\.2$"):
            Graph.from_edges(3, [(-1, 2)])
        with pytest.raises(ValueError, match="^loop at vertex 1 not allowed$"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="^negative vertex count$"):
            Graph.from_edges(-1, [])

    def test_the_vertex_count_is_the_adjacency_length(self):
        assert Graph._fields == ("adjacency",)
        assert Graph((0b10, 0b01)).n_vertices == 2
        assert Graph.from_edges(3, [(0, 1)]) == Graph((0b10, 0b01, 0))

    def test_a_neighbour_past_the_last_vertex_is_refused(self):
        # the one walk reads each vertex's highest neighbour, so an adjacency
        # that names a vertex it does not hold is refused before the DP runs
        g = Graph((0b100, 0))
        for _, call in oracle_calls(g):
            with pytest.raises(
                ValueError, match=r"^vertex 0 has neighbour 2, past the last vertex 1$"
            ):
                call()

    def test_symmetric_irreflexive(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        for v in range(4):
            assert not g.adjacency[v] & (1 << v)
            for u in vertices_of(g.adjacency[v]):
                assert g.adjacency[u] & (1 << v)

    def test_edges_roundtrip(self):
        g = Graph.from_edges(5, [(0, 3), (1, 2), (3, 4)])
        assert g.edges() == [(0, 3), (1, 2), (3, 4)]
        assert n_edges(g) == 3
        # ascending whatever the input order, so the chain exports need no sort
        assert Graph.from_edges(5, [(4, 3), (2, 1), (3, 0)]).edges() == g.edges()

    def test_vertex_set_helpers(self):
        assert vertex_set([0, 2]) == 0b101
        assert vertices_of(0b1010) == (1, 3)


class TestClosedNeighborhood:
    def test_empty_set(self):
        assert closed_neighborhood(K3, 0) == 0

    def test_triangle_vertex(self):
        assert closed_neighborhood(K3, vertex_set([0])) == vertex_set([0, 1, 2])

    def test_path_endpoint(self):
        assert closed_neighborhood(P3, vertex_set([0])) == vertex_set([0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_neighborhood(P3, 1 << 5)


class TestIndependence:
    def test_examples(self):
        assert not is_independent(K3, vertex_set([0, 1]))
        assert is_independent(K3, vertex_set([0]))
        assert is_independent(C4, vertex_set([0, 2]))

    def test_dominating_examples(self):
        assert is_independent_dominating(C4, vertex_set([0, 2]))
        assert not is_independent_dominating(C4, vertex_set([0]))
        assert is_independent_dominating(C6, vertex_set([0, 3]))

    @given(graphs(max_n=8), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_maximality_equivalence(self, g, raw):
        # independent dominating == independent and not extendable by any vertex
        s = raw & g.full_mask
        by_domination = is_independent_dominating(g, s)
        if not is_independent(g, s):
            assert not by_domination
            return
        extendable = any(
            is_independent(g, s | (1 << v))
            for v in range(g.n_vertices)
            if not s & (1 << v)
        )
        assert by_domination == (not extendable)


class TestCounting:
    def test_small_counts(self):
        assert count_ids(K3) == 3
        assert count_ids(C4) == 2
        assert count_ids(C6) == 5

    def test_empty_graph_convention(self):
        assert count_ids(Graph.from_edges(0, [])) == 1

    def test_enumeration_order(self):
        assert [vertices_of(m) for m in enumerate_mis(K3)] == [(0,), (1,), (2,)]
        assert [vertices_of(m) for m in enumerate_mis(C4)] == [(0, 2), (1, 3)]
        assert [vertices_of(m) for m in enumerate_mis(P3)] == [(1,), (0, 2)]

    def test_enumeration_matches_count(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12))
            masks = list(enumerate_mis(g))
            assert len(masks) == count_ids(g)
            assert masks == sorted(masks)
            for m in masks:
                assert is_independent_dominating(g, m)

    def test_determinism(self):
        rng = random.Random(5)
        g = random_graph(rng, 12)
        assert list(enumerate_mis(g)) == list(enumerate_mis(g))
        assert count_ids(g) == count_ids(g)

    def test_gamma(self):
        assert independent_domination_number(K3) == 1
        assert independent_domination_number(C6) == 2

    def test_oracle_limit(self):
        # the DP is bounded by its frontier width, not by the vertex count: the
        # 41-vertex path keeps 2 vertices live and is counted, classified and
        # minimised; only the listing, whose output grows exponentially with
        # the vertices, is refused above the ceiling
        big = path_graph(41)
        assert count_ids(big) == padovan(41)
        assert sum(count_boundary_classes(big, 0)[:2]) == padovan(41)
        assert independent_domination_number(big) == 14
        with pytest.raises(OracleLimitError, match="41 vertices, above the oracle ceiling 40"):
            enumerate_mis(big)

    @pytest.mark.parametrize("n", [*range(1, 13), 41, 1000, 3000])
    def test_path_counts_are_padovan(self, n):
        # a reference that needs no chain family: the path P_n has Padovan's
        # a(n) maximal independent sets, and the least of them has ceil(n/3)
        # vertices; the literal scan confirms both for n <= 12
        g = path_graph(n)
        assert count_ids(g) == padovan(n)
        assert independent_domination_number(g) == -(-n // 3)
        if n <= 12:
            count, least, _ = states(graphs_module._scan_counts, g)
            assert (count[(0, 0)], least[(0, 0)]) == (padovan(n), -(-n // 3))

    def test_strategies_agree(self):
        # the public functions against the literal definition
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 13))
            count, least, listed = states(graphs_module._scan_counts, g)
            assert count_ids(g) == count[(0, 0)]
            assert independent_domination_number(g) == least[(0, 0)]
            assert list(enumerate_mis(g)) == listed[(0, 0)]

    def test_strategies_agree_at_20_vertices(self):
        # scan is the literal-definition cross-check, compared here with
        # pivot and dp on a 20-vertex graph (2^20 subsets)
        rng = random.Random(41)
        g = random_graph(rng, 20, p=0.15)
        scan = graphs_module._scan_counts(g)
        assert scan == pivot_states(g) == dp_states(g)

    def test_pivot_leaves_no_reference_cycle(self):
        g = build_chain(ChainSpec(Family.HEX_PARA, length=7)).graph
        gc.collect()
        gc.disable()
        try:
            assert pivot_states(g) == {(0, 0): 20969}
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_public_call_scans(self, monkeypatch):
        # no public call reaches either reference engine: each runs the DP,
        # or refuses a graph whose frontier is wider than DP_MAX_WIDTH
        def no_reference(*args, **kwargs):
            raise AssertionError("a public oracle call ran a reference engine")

        monkeypatch.setattr(graphs_module, "_scan_counts", no_reference)
        monkeypatch.setattr(graphs_module, "_independent_subsets", no_reference)
        monkeypatch.setattr(graphs_module, "_mis_masks_pivot", no_reference)
        rng = random.Random(29)
        for g in [random_graph(rng, rng.randint(1, 16)) for _ in range(20)]:
            for keep, call in oracle_calls(g):
                if frontier_width(g, keep) > DP_MAX_WIDTH:
                    with pytest.raises(OracleLimitError, match="frontier limit"):
                        call()
                else:
                    call()

    @given(graphs(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_count_at_least_one(self, g):
        # deleting edges never makes the count undefined; it stays >= 1
        assert count_ids(g) >= 1
        edges = g.edges()
        if edges:
            g2 = Graph.from_edges(g.n_vertices, edges[1:])
            assert count_ids(g2) >= 1


class TestBoundaryClasses:
    def test_c4(self):
        assert count_boundary_classes(C4, 0) == BoundaryCounts(1, 1, 1)

    def test_k3(self):
        assert count_boundary_classes(K3, 0) == BoundaryCounts(1, 2, 0)

    def test_c6(self):
        assert count_boundary_classes(C6, 0) == BoundaryCounts(2, 3, 1)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            count_boundary_classes(C4, 7)

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_partition_invariant(self, g):
        v = 0
        counts = count_boundary_classes(g, v)
        assert counts.in_count + counts.out_count == count_ids(g)
        assert counts.count == count_ids(g)

    def test_extendable_definition(self):
        # brute-force the definition directly on C6
        g = C6
        v = 0
        expected = 0
        for mask in range(1 << g.n_vertices):
            if mask & 1:
                continue
            if not is_independent(g, mask):
                continue
            if closed_neighborhood(g, mask) == g.full_mask ^ 1:
                expected += 1
        assert count_boundary_classes(g, v).extendable_count == expected

    def test_strategies_agree(self):
        # the public classes against the literal definition
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12))
            v = rng.randrange(g.n_vertices)
            scan = graphs_module._scan_counts(g, v)
            assert count_boundary_classes(g, v) == BoundaryCounts(
                scan.get((1 << v, 0), 0), scan.get((0, 0), 0), scan.get((0, 1 << v), 0)
            )


class TestIsomorphism:
    def test_relabeled_cycle(self):
        other = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert is_isomorphic(C4, other)

    def test_distinguishes(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_isomorphic(C6, two_triangles)
        assert not is_isomorphic(C4, path_graph(4))

    def test_size_mismatch(self):
        assert not is_isomorphic(C4, C6)


def _largest_length(family: Family) -> int:
    n = 1
    while expected_vertex_count(ChainSpec(family, length=n + 1)) <= DEFAULT_MAX_VERTICES:
        n += 1
    return n


class TestFrontierDP:
    @given(graphs(max_n=12))
    @example(Graph.from_edges(1, []))
    @example(Graph.from_edges(5, []))
    @example(Graph.from_edges(7, [(1, 4), (4, 6)]))
    @example(Graph.from_edges(6, [(0, 5), (2, 5)]))
    @settings(max_examples=80, deadline=None)
    def test_strategies_agree(self, g):
        # every engine gives the same final states for every kept vertex and
        # mode; isolated vertices must join every set, and vertex 3 of the
        # third example is isolated in the middle of the id order
        for keep in (None, *range(g.n_vertices)):
            dp, pivot, scan = (states(engine, g, keep) for engine in ENGINES)
            assert dp == pivot == scan, keep

    def test_every_small_graph_matches_the_scan(self):
        # coverage that draws nothing: the DP against the literal definition on
        # every labelled graph of at most 6 vertices, and with every kept vertex
        # on those of at most 5, counting and minimising
        checks = 0
        for n in range(7):
            keeps = (None, *range(n)) if n <= 5 else (None,)
            for g in every_graph(n):
                for keep in keeps:
                    for mode in (graphs_module._COUNT, graphs_module._MIN):
                        scan = graphs_module._scan_counts(g, keep, mode)
                        assert dp_states(g, keep, mode) == scan, (g, keep, mode)
                        checks += 1
        # 33,868 graphs with no kept vertex and 5,405 (graph, kept vertex) pairs
        assert checks == 2 * (33_868 + 5_405)

    def test_empty_graph(self):
        empty = Graph.from_edges(0, [])
        for engine in ENGINES:
            assert states(engine, empty) == ({(0, 0): 1}, {(0, 0): 0}, {(0, 0): [0]})
        assert count_ids(empty) == 1
        assert list(enumerate_mis(empty)) == [0]
        with pytest.raises(ValueError):
            independent_domination_number(empty)

    def test_edgeless_graph(self):
        g = Graph.from_edges(4, [])
        assert count_ids(g) == 1
        assert list(enumerate_mis(g)) == [0b1111]
        assert independent_domination_number(g) == 4
        assert count_boundary_classes(g, 2) == BoundaryCounts(1, 0, 1)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_linear_chains_at_the_ceiling(self, family):
        chain = build_chain(ChainSpec(family, length=_largest_length(family)))
        g = chain.graph
        assert g.n_vertices <= DEFAULT_MAX_VERTICES
        pivot = states(pivot_states, g)
        assert states(dp_states, g) == pivot
        assert list(enumerate_mis(g)) == pivot[2][(0, 0)]  # content and order
        t = chain.terminal_vertex
        assert dp_states(g, t) == pivot_states(g, t)

    @pytest.mark.parametrize("family", DEFECT_FAMILIES, ids=lambda f: f.value)
    def test_defect_chains_at_arm_total_12(self, family):
        for m in range(1, 12):
            chain = build_chain(ChainSpec(family, m=m, n=12 - m))
            g, t = chain.graph, chain.terminal_vertex
            assert g.n_vertices == DEFAULT_MAX_VERTICES
            assert dp_states(g, t) == pivot_states(g, t), m
            assert states(dp_states, g) == states(pivot_states, g), m

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_auto_picks_dp_for_every_chain(self, family, monkeypatch):
        # every chain keeps at most 3 vertices live, with or without its
        # terminal kept: the six families at lengths 1-40 and 2000, the
        # defect families at every m, n <= 12
        if family in LINEAR_FAMILIES:
            specs = [ChainSpec(family, length=n) for n in (*range(1, 41), 2000)]
            largest = ChainSpec(family, length=_largest_length(family))
        else:
            specs = [ChainSpec(family, m=m, n=n) for m in range(1, 13) for n in range(1, 13)]
            largest = ChainSpec(family, m=6, n=6)
        for spec in specs:
            chain = build_chain(spec)
            for keep in (None, chain.terminal_vertex):
                assert frontier_width(chain.graph, keep) <= 3, (spec, keep)

        # so the public calls at the ceiling run the DP, never the pivot engine
        chain = build_chain(largest)
        g, t = chain.graph, chain.terminal_vertex
        expected = graphs_module._mis_masks_pivot(g.adjacency, g.full_mask)

        def no_pivot(*args):
            raise AssertionError("a public oracle call pivoted on a chain")

        monkeypatch.setattr(graphs_module, "_mis_masks_pivot", no_pivot)
        assert list(enumerate_mis(g)) == expected
        assert count_ids(g) == len(expected)
        assert independent_domination_number(g) == min(m.bit_count() for m in expected)
        assert sum(count_boundary_classes(g, t)[:2]) == len(expected)

    def test_wide_frontier_is_refused(self):
        # complete bipartite K(w, w): the first side stays live until the last
        # vertex, so the id-order frontier is w wide
        w = DP_MAX_WIDTH + 2
        g = complete_bipartite(w)
        for keep, call in oracle_calls(g):
            width = frontier_width(g, keep)
            assert width > DP_MAX_WIDTH
            with pytest.raises(
                OracleLimitError,
                match=f"keeps {width} vertices live in id order, "
                f"above the frontier limit {DP_MAX_WIDTH}",
            ):
                call()
        assert dp_states(g, 0) == {(1, 0): 1, (0, 0): 1, (0, 1): 1}

    @given(graphs(max_n=14))
    # a last vertex next to all others keeps them live: widths 10, 11 and 13
    @example(Graph.from_edges(11, [(i, 10) for i in range(10)]))
    @example(Graph.from_edges(12, [(i, 11) for i in range(11)]))
    @example(Graph.from_edges(14, [(i, 13) for i in range(13)]))
    @settings(max_examples=150, deadline=None)
    def test_width_check_matches_the_live_mask_walk(self, g):
        # the one-walk count refuses exactly where the reference walk, which
        # keeps the live vertices as a mask, exceeds the limit, and says so
        # in the same words
        for keep in (None, *range(g.n_vertices)):
            retire = retire_masks(g, keep)
            width = reference_width(retire)
            if width > DP_MAX_WIDTH:
                message = (
                    f"graph keeps {width} vertices live in id order, above the "
                    f"frontier limit {DP_MAX_WIDTH}"
                )
                with pytest.raises(OracleLimitError) as refused:
                    graphs_module._checked_retire(g, keep)
                assert str(refused.value) == message
            else:
                assert graphs_module._checked_retire(g, keep) == retire

    def test_vertex_cap_before_any_mask_walk(self, monkeypatch):
        # the listing alone is bounded by the vertex count, and refuses before
        # any retire mask is built; the width check and the counts are not
        def no_walk(*args):
            raise AssertionError("retire masks built above the vertex cap")

        big = Graph.from_edges(DEFAULT_MAX_VERTICES + 1, [])
        with monkeypatch.context() as patched:
            patched.setattr(graphs_module, "_checked_retire", no_walk)
            with pytest.raises(OracleLimitError, match="41 vertices, above the oracle ceiling"):
                enumerate_mis(big)
        assert graphs_module._checked_retire(big) == retire_masks(big)
        assert count_ids(big) == 1 and independent_domination_number(big) == 41

    def test_one_mask_walk_per_call(self, monkeypatch):
        # one walk builds the retire masks and checks the width, and the DP
        # reads those masks
        built = []
        checked_retire = graphs_module._checked_retire

        def counted(g, keep=None):
            built.append(keep)
            return checked_retire(g, keep)

        monkeypatch.setattr(graphs_module, "_checked_retire", counted)
        g = build_chain(ChainSpec(Family.HEX_PARA, length=3)).graph
        for keep, call in oracle_calls(g):
            built.clear()
            call()
            assert built == [keep]

    def test_enumerate_by_dp(self):
        listed = dp_states(C4, mode=graphs_module._sets_mode())
        assert sorted(listed[(0, 0)]) == [0b0101, 0b1010]


class TestPrefixPass:
    """One DP pass over a chain reads every shorter chain of its family, each
    a prefix of it, since blocks are numbered left to right."""

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_every_prefix_equals_the_per_chain_oracle(self, family):
        n = _largest_length(family)
        spec = ChainSpec(family, length=n)
        classes = paper._prefix_reads(spec)
        minima = paper._prefix_reads(spec, graphs_module._MIN)
        assert len(classes) == len(minima) == n
        for k in range(1, n + 1):
            chain = build_chain(ChainSpec(family, length=k))
            g, t = chain.graph, chain.terminal_vertex
            assert classes[k - 1] == count_boundary_classes(g, t), k
            assert minima[k - 1] == independent_domination_number(g), k

    @pytest.mark.parametrize("family", DEFECT_FAMILIES, ids=lambda f: f.value)
    def test_every_defect_arm_equals_the_per_chain_oracle(self, family):
        # the (m, 12 - m) chains have 40 vertices; its blocks m + 2..m + n + 1
        # end the (m, n) chains, whose count is the sets containing the kept
        # terminal vertex plus those avoiding it
        for m in range(1, 12):
            chains = (build_chain(ChainSpec(family, m=m, n=n)) for n in range(1, 13 - m))
            counts = tuple(count_ids(chain.graph) for chain in chains)
            arms = paper._prefix_reads(ChainSpec(family, m=m, n=12 - m))[m + 1:]
            assert tuple(profile.count for profile in arms) == counts, m


def pivot_listing(g: Graph) -> list[int]:
    return graphs_module._mis_masks_pivot(g.adjacency, g.full_mask)


class TestListing:
    """``enumerate_mis`` lists heads and tails, and ORs each pair once."""

    @pytest.mark.parametrize("family", DEFECT_FAMILIES, ids=lambda f: f.value)
    @pytest.mark.parametrize("total", (10, 11, 12))
    def test_defect_chains_at_every_arm_split(self, family, total):
        for m in range(1, total):
            g = build_chain(ChainSpec(family, m=m, n=total - m)).graph
            assert list(enumerate_mis(g)) == pivot_listing(g), m

    @given(graphs(max_n=12))
    @example(Graph.from_edges(0, []))
    @example(Graph.from_edges(1, []))
    @example(Graph.from_edges(2, []))
    @example(Graph.from_edges(2, [(0, 1)]))
    @example(Graph.from_edges(5, [(0, 1), (3, 4), (1, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_pivot(self, g):
        # 0 or 1 vertices leave the first half empty, odd sizes split off the
        # shorter half first, and the last example's isolated middle vertex 2
        # joins every set from the second half
        if frontier_width(g) > DP_MAX_WIDTH:
            with pytest.raises(OracleLimitError, match="frontier limit"):
                enumerate_mis(g)
        else:
            assert list(enumerate_mis(g)) == pivot_listing(g)

    def test_one_tail_completes_several_head_states(self, monkeypatch):
        # on hex-para 7, 186 distinct tails form 449 (tail, head state) pairs:
        # some tail completes heads from several states, so the groups of
        # heads it meets interleave until the final sort
        finals = []
        dp = graphs_module._dp_states

        def recorded(*args):
            finals.append(dp(*args))
            return finals[-1]

        monkeypatch.setattr(graphs_module, "_dp_states", recorded)
        g = build_chain(ChainSpec(Family.HEX_PARA, length=7)).graph
        assert list(enumerate_mis(g)) == pivot_listing(g)
        tails = finals[-1][(0, 0)]
        assert (len({tail & g.full_mask for tail in tails}), len(tails)) == (186, 449)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_copies_under_a_third_of_the_listed_sets(self, family, monkeypatch):
        # the listing mode's join copies every set it extends; building each
        # listed set as one head | tail keeps those copies to heads and tails
        copied = []
        sets_mode = graphs_module._sets_mode

        def counting_mode():
            start, join, combine = sets_mode()

            def counted(value, members):
                copied.append(len(value))
                return join(value, members)

            return start, counted, combine

        monkeypatch.setattr(graphs_module, "_sets_mode", counting_mode)
        g = build_chain(ChainSpec(family, length=_largest_length(family))).graph
        listed = len(list(enumerate_mis(g)))
        assert 3 * sum(copied) < listed, (sum(copied), listed)
