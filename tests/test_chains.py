import json

import pytest
from hypothesis import given, settings, strategies as st

from cactusids.chains import (
    _LETTER,
    ChainSpec,
    Family,
    LINEAR_FAMILIES,
    _build_word,
    build_chain,
    expected_vertex_count,
    to_edge_list_text,
    to_json_dict,
)
from cactusids.graphs import (
    DEFAULT_MAX_VERTICES,
    Graph,
    count_boundary_classes,
    count_ids,
    independent_domination_number,
)
from cactusids.paper import _SYSTEM_DATA, paper_transfer_system
from reference import (
    MIN_PLUS,
    PLUS_TIMES,
    compile_letter,
    complete_graph,
    cycle_graph,
    is_cactus,
    is_isomorphic,
    run_word,
    vertices_of,
)


def linear(family, n):
    return build_chain(ChainSpec(family, length=n))


class TestSpecValidation:
    def test_linear_requires_length(self):
        with pytest.raises(ValueError):
            ChainSpec(Family.TRIANGULAR)
        with pytest.raises(ValueError):
            ChainSpec(Family.TRIANGULAR, length=0)
        with pytest.raises(ValueError):
            ChainSpec(Family.TRIANGULAR, length=2, m=1)

    def test_defect_requires_m_n(self):
        with pytest.raises(ValueError):
            ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, length=3)
        with pytest.raises(ValueError):
            ChainSpec(Family.ORTHO_CHAIN_PARA_DEFECT, m=0, n=1)

    @pytest.mark.parametrize("args, message", [
        ((Family.TRIANGULAR,), "tri takes a single length"),
        ((Family.HEX_PARA, 0), "length must be at least 1"),
        ((Family.TRIANGULAR, 2, 1), "tri takes a single length"),
        ((Family.PARA_CHAIN_ORTHO_DEFECT, 3), "p-defect takes m and n"),
        ((Family.ORTHO_CHAIN_PARA_DEFECT, None, 0, 1),
         "defect parameters m, n must be at least 1"),
        # a parameter that is not an int: a float length has no chain, and
        # would give a float vertex count
        ((Family.TRIANGULAR, 2.5), "integer length required, got 2.5"),
        ((Family.PARA_CHAIN_ORTHO_DEFECT, None, 1.0, 2), "integer m required, got 1.0"),
        ((Family.ORTHO_CHAIN_PARA_DEFECT, None, 2, "3"), "integer n required, got '3'"),
    ])
    def test_refusals_by_position_and_keyword(self, args, message):
        error = TypeError if message.startswith("integer ") else ValueError
        fields = dict(zip(ChainSpec._fields, args + (None,) * (4 - len(args))))
        valid = ChainSpec(Family.TRIANGULAR, length=1)
        for make in (lambda: ChainSpec(*args), lambda: ChainSpec(**fields),
                     lambda: valid._replace(**fields)):
            with pytest.raises(error, match=f"^{message}$"):
                make()

    def test_positional_and_keyword_specs_agree(self):
        assert ChainSpec(Family.TRIANGULAR, 4) == ChainSpec(family=Family.TRIANGULAR, length=4)
        assert ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, None, 2, 3) == ChainSpec(
            Family.PARA_CHAIN_ORTHO_DEFECT, m=2, n=3
        )


class TestVertexCounts:
    def test_closed_forms(self):
        assert expected_vertex_count(ChainSpec(Family.TRIANGULAR, length=4)) == 9
        assert expected_vertex_count(ChainSpec(Family.SQUARE_ORTHO, length=3)) == 10
        assert expected_vertex_count(
            ChainSpec(Family.ORTHO_CHAIN_PARA_DEFECT, m=2, n=2)
        ) == 16

    def test_single_blocks(self):
        assert linear(Family.TRIANGULAR, 1).graph.n_vertices == 3
        assert is_isomorphic(linear(Family.TRIANGULAR, 1).graph, complete_graph(3))
        hex2 = linear(Family.HEX_PARA, 2)
        assert hex2.graph.n_vertices == 11

    def test_constructions_match_expected(self):
        for family in LINEAR_FAMILIES:
            for n in range(1, 5):
                spec = ChainSpec(family, length=n)
                chain = build_chain(spec)
                assert chain.graph.n_vertices == expected_vertex_count(spec)
                assert len(chain.blocks) == len(spec.word)
                assert is_cactus(chain.graph)
        for m in (1, 2):
            for n in (1, 2):
                for family in (
                    Family.PARA_CHAIN_ORTHO_DEFECT,
                    Family.ORTHO_CHAIN_PARA_DEFECT,
                ):
                    spec = ChainSpec(family, m=m, n=n)
                    chain = build_chain(spec)
                    assert chain.graph.n_vertices == expected_vertex_count(spec)
                    assert len(chain.blocks) == len(spec.word)
                    assert is_cactus(chain.graph)


class TestBlockStructure:
    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_blocks_partition_edges(self, family):
        chain = linear(family, 4)
        seen = set()
        for block in chain.blocks:
            k = len(block)
            for i in range(k):
                e = tuple(sorted((block[i], block[(i + 1) % k])))
                assert e not in seen
                seen.add(e)
        assert seen == set(chain.graph.edges())

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_consecutive_blocks_share_cut_vertex(self, family):
        chain = linear(family, 5)
        blocks = [set(b) for b in chain.blocks]
        for i in range(len(blocks) - 1):
            shared = blocks[i] & blocks[i + 1]
            assert shared == {chain.cut_vertices[i]}
        for i in range(len(blocks)):
            for j in range(i + 2, len(blocks)):
                assert not blocks[i] & blocks[j]

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_masks_match_from_edges(self, family):
        # the builder ORs each cycle straight into the masks; Graph.from_edges,
        # the checked entry, builds the same graph from the blocks' cycle edges
        # (every linear length up to the oracle's vertex cap, defect arms 1..6)
        if family in LINEAR_FAMILIES:
            specs = [ChainSpec(family, length=n) for n in range(1, DEFAULT_MAX_VERTICES)]
            specs = [s for s in specs if expected_vertex_count(s) <= DEFAULT_MAX_VERTICES]
        else:
            specs = [ChainSpec(family, m=m, n=n) for m in range(1, 7) for n in range(1, 7)]
        for spec in specs:
            chain = build_chain(spec)
            g = chain.graph
            edges = [(b[i - 1], b[i]) for b in chain.blocks for i in range(len(b))]
            assert g == Graph.from_edges(expected_vertex_count(spec), edges), spec
            for v, a in enumerate(g.adjacency):
                assert not a >> v & 1, (spec, v)
                assert all(g.adjacency[u] >> v & 1 for u in vertices_of(a)), (spec, v)

    def test_terminal_vertex_in_last_block(self):
        for family in LINEAR_FAMILIES:
            chain = linear(family, 3)
            assert chain.terminal_vertex in chain.blocks[-1]
            assert chain.terminal_vertex not in chain.cut_vertices

    def test_connected(self):
        chain = linear(Family.HEX_META, 4)
        g = chain.graph
        seen = 1
        frontier = [0]
        while frontier:
            v = frontier.pop()
            m = g.adjacency[v] & ~seen
            while m:
                b = m & -m
                seen |= b
                frontier.append(b.bit_length() - 1)
                m ^= b
        assert seen == g.full_mask


class TestIsCactus:
    def test_examples(self):
        assert is_cactus(cycle_graph(6))
        assert not is_cactus(complete_graph(4))
        assert is_cactus(linear(Family.HEX_META, 3).graph)

    def test_trees_are_cacti(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert is_cactus(star)

    def test_theta_graph_is_not(self):
        # two vertices joined by three internally disjoint paths
        theta = Graph.from_edges(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        assert not is_cactus(theta)

    def test_disconnected(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert is_cactus(g)


class TestIsomorphismCollapse:
    def test_hexagonal_families_at_short_lengths(self):
        for n in (1, 2):
            a = linear(Family.HEX_ORTHO, n).graph
            b = linear(Family.HEX_META, n).graph
            c = linear(Family.HEX_PARA, n).graph
            assert is_isomorphic(a, b)
            assert is_isomorphic(b, c)
            assert count_ids(a) == count_ids(b) == count_ids(c)

    def test_square_families_at_short_lengths(self):
        for n in (1, 2):
            a = linear(Family.SQUARE_PARA, n).graph
            b = linear(Family.SQUARE_ORTHO, n).graph
            assert is_isomorphic(a, b)

    def test_families_differ_at_length_three(self):
        assert not is_isomorphic(
            linear(Family.HEX_ORTHO, 3).graph, linear(Family.HEX_PARA, 3).graph
        )


class TestDefectChains:
    def test_lone_ortho_defect_equals_ortho_chain(self):
        p11 = build_chain(ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, m=1, n=1))
        s3 = linear(Family.SQUARE_ORTHO, 3)
        assert is_isomorphic(p11.graph, s3.graph)

    def test_lone_para_defect_equals_para_chain(self):
        s11 = build_chain(ChainSpec(Family.ORTHO_CHAIN_PARA_DEFECT, m=1, n=1))
        q3 = linear(Family.SQUARE_PARA, 3)
        assert is_isomorphic(s11.graph, q3.graph)

    def test_defect_block_position(self):
        chain = build_chain(ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, m=2, n=1))
        assert len(chain.blocks) == 4
        # blocks 2 and 3 are internal; block 3 is the ortho defect, so its
        # entry and exit cut vertices are adjacent
        entry, exit_ = chain.cut_vertices[1], chain.cut_vertices[2]
        assert chain.graph.adjacency[entry] & (1 << exit_)
        # block 2 is regular para: entry and exit are opposite
        entry, exit_ = chain.cut_vertices[0], chain.cut_vertices[1]
        assert not chain.graph.adjacency[entry] & (1 << exit_)


class TestExports:
    def test_edge_list_text(self):
        spec = ChainSpec(Family.TRIANGULAR, length=2)
        text = to_edge_list_text(spec, build_chain(spec))
        lines = text.splitlines()
        assert lines[0] == "# family=tri"
        assert lines[1] == "# length=2"
        assert lines[2] == "# vertices=5"
        body = [tuple(map(int, ln.split())) for ln in lines[3:]]
        assert body == sorted(build_chain(spec).graph.edges())

    def test_json_dict(self):
        spec = ChainSpec(Family.ORTHO_CHAIN_PARA_DEFECT, m=1, n=2)
        chain = build_chain(spec)
        doc = to_json_dict(spec, chain)
        assert doc["family"] == "s-defect"
        assert doc["m"] == 1 and doc["n"] == 2
        assert doc["n_vertices"] == chain.graph.n_vertices
        assert doc["terminal_vertex"] == chain.terminal_vertex
        assert len(doc["blocks"]) == 4
        json.dumps(doc)  # serialisable

    def test_json_roundtrip_graph(self):
        spec = ChainSpec(Family.HEX_ORTHO, length=2)
        chain = build_chain(spec)
        doc = to_json_dict(spec, chain)
        rebuilt = Graph.from_edges(doc["n_vertices"], [tuple(e) for e in doc["edges"]])
        assert rebuilt == chain.graph
        assert set(vertices_of(chain.graph.full_mask)) == set(range(doc["n_vertices"]))


@st.composite
def words(draw):
    """Words over the letters (c, d), c = 3..8 and 1 <= d <= c/2, cut to the
    longest prefix of at most DEFAULT_MAX_VERTICES vertices."""
    letter = st.integers(3, 8).flatmap(lambda c: st.tuples(st.just(c), st.integers(1, c // 2)))
    word, vertices = [], 1
    for c, d in draw(st.lists(letter, min_size=1, max_size=20)):
        if vertices + c - 1 > DEFAULT_MAX_VERTICES:
            break
        word.append((c, d))
        vertices += c - 1
    return tuple(word)


class TestBlockWords:
    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_compiled_operator_is_the_printed_system(self, family):
        # the (+, x) operator compiled from the family's letter is its printed
        # update matrix
        op = compile_letter(*_LETTER[family], PLUS_TIMES)
        matrix, _ = _SYSTEM_DATA[family]
        k = len(matrix)
        assert tuple(row[:k] for row in op[:k]) == matrix
        if k == 2:  # tri prints two states, and no tri set is extendable
            assert op[2] == (0, 0, 0)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_one_block_gives_the_seeds(self, family):
        seeds = paper_transfer_system(family).initial_vector
        assert run_word(ChainSpec(family, length=1).word, PLUS_TIMES)[: len(seeds)] == seeds

    @given(words())
    @settings(max_examples=150, deadline=None)
    def test_words_against_the_oracle(self, word):
        chain = _build_word(word)
        g = chain.graph
        assert g.n_vertices == 1 + sum(c - 1 for c, _ in word)
        assert is_cactus(g)
        assert tuple(count_boundary_classes(g, chain.terminal_vertex)) == run_word(
            word, PLUS_TIMES
        )
        least = run_word(word, MIN_PLUS)
        assert independent_domination_number(g) == min(least[:2])
