import pytest
from hypothesis import example, given, settings, strategies as st

from cactusids.chains import ChainSpec, Family, LINEAR_FAMILIES, build_chain
from cactusids.genfunc import characteristic_polynomial, derived_recurrence
from cactusids.graphs import count_boundary_classes, count_ids
from cactusids.recurrences import (
    LinearRecurrence,
    _charpoly,
    _companion,
    _step,
    eval_recurrence,
    mat_pow_vec,
    measured_extendable_seed,
    paper_recurrence,
    paper_transfer_system,
    recurrence_values,
    run_transfer,
    state_trajectory,
    transfer_state,
)


class TestTransferSystems:
    def test_triangular_transcription(self):
        ts = paper_transfer_system(Family.TRIANGULAR)
        assert ts.update_matrix == ((0, 1), (1, 1))
        assert ts.initial_vector == (1, 2)
        assert ts.output_weights == (1, 1)

    def test_square_ortho_transcription(self):
        ts = paper_transfer_system(Family.SQUARE_ORTHO)
        assert ts.update_matrix == ((0, 1, 1), (1, 1, 0), (0, 1, 1))
        assert ts.initial_vector == (1, 1, 1)  # third seed measured on C4

    def test_hex_ortho_transcription(self):
        ts = paper_transfer_system(Family.HEX_ORTHO)
        assert ts.update_matrix == ((0, 2, 2), (2, 2, 1), (0, 1, 1))
        assert ts.initial_vector == (2, 3, 1)  # third seed measured on C6

    def test_measured_seeds(self):
        for family in LINEAR_FAMILIES:
            if family is Family.TRIANGULAR:
                continue
            assert measured_extendable_seed(family) == 1

    def test_defect_family_rejected(self):
        with pytest.raises(ValueError):
            paper_transfer_system(Family.PARA_CHAIN_ORTHO_DEFECT)


class TestRunTransfer:
    def test_examples(self):
        tri = paper_transfer_system(Family.TRIANGULAR)
        assert run_transfer(tri, 1) == 3
        assert run_transfer(tri, 2) == 5
        assert run_transfer(paper_transfer_system(Family.SQUARE_PARA), 3) == 7

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            run_transfer(paper_transfer_system(Family.TRIANGULAR), 0)
        with pytest.raises(ValueError):
            transfer_state(paper_transfer_system(Family.TRIANGULAR), -3)

    def test_trajectories(self):
        assert state_trajectory(paper_transfer_system(Family.SQUARE_PARA), 2) == [
            (1, 1, 1),
            (2, 2, 1),
        ]
        assert state_trajectory(paper_transfer_system(Family.TRIANGULAR), 3) == [
            (1, 2),
            (2, 3),
            (3, 5),
        ]
        assert state_trajectory(paper_transfer_system(Family.SQUARE_ORTHO), 2) == [
            (1, 1, 1),
            (2, 2, 2),
        ]

    def test_matrix_power_consistency(self):
        for family in LINEAR_FAMILIES:
            ts = paper_transfer_system(family)
            n = 9
            traj = state_trajectory(ts, n)
            power = _mat_power(ts.update_matrix, n - 1)
            direct = tuple(
                sum(power[i][j] * ts.initial_vector[j] for j in range(len(power)))
                for i in range(len(power))
            )
            assert traj[n - 1] == direct

    def test_output_weights_select_count_states(self):
        for family in LINEAR_FAMILIES:
            ts = paper_transfer_system(family)
            assert ts.output_weights[:2] == (1, 1)
            assert all(w == 0 for w in ts.output_weights[2:])


@st.composite
def _matrix_and_vector(draw):
    k = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    matrix = tuple(tuple(draw(entry) for _ in range(k)) for _ in range(k))
    return matrix, tuple(draw(st.integers(-50, 50)) for _ in range(k))


class TestMatrixPowerEngine:
    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_powering_matches_stepping(self, family):
        ts = paper_transfer_system(family)
        traj = state_trajectory(ts, 5003)
        lengths = list(range(1, 301)) + [4096, 4097, 5000, 5003]
        for n in lengths:
            assert transfer_state(ts, n) == traj[n - 1], n
            assert run_transfer(ts, n) == sum(
                w * v for w, v in zip(ts.output_weights, traj[n - 1])
            )

    def test_exponent_edge_cases(self):
        assert mat_pow_vec(((2, 0), (0, 3)), 0, (5, 7)) == (5, 7)
        assert mat_pow_vec(((2, 0), (0, 3)), 5, (1, 1)) == (32, 243)
        with pytest.raises(ValueError):
            mat_pow_vec(((1,),), -1, (1,))

    @given(_matrix_and_vector(), st.integers(0, 300))
    @example((((0,),), (-4,)), 0)
    @example((((0,),), (-4,)), 3)
    @example((((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3)), 2)  # nilpotent
    @example((((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3)), 3)
    @example((((1, 2), (2, 4)), (-1, 1)), 9)  # singular
    @example((((-3, 3, 0, 1), (2, -1, 3, -3), (0, 0, -2, 1), (3, -3, 1, 0)), (-7, 0, 5, 2)), 300)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_stepping(self, system, e):
        matrix, vec = system
        expected = vec
        for _ in range(e):
            expected = _step(matrix, expected)
        assert mat_pow_vec(matrix, e, vec) == expected


def _stepped(rec, n):
    """Reference: advance the relation one term at a time, keeping every
    supplied term, including those beyond the starting window."""
    values = rec.initial_map
    for i in range(rec.min_index + rec.order, n + 1):
        if i not in values:
            values[i] = sum(c * values[i - j - 1] for j, c in enumerate(rec.coefficients))
    return values[n]


_ALL_RECURRENCES = [
    pytest.param(build(family), id=f"{kind}-{family.value}")
    for family in LINEAR_FAMILIES
    for kind, build in (("paper", paper_recurrence), ("derived", derived_recurrence))
]


class TestEvalRecurrenceAgainstStepping:
    @pytest.mark.parametrize("rec", _ALL_RECURRENCES)
    def test_matches_reference(self, rec):
        for n in list(range(rec.min_index, 200)) + [1000, 1001]:
            assert eval_recurrence(rec, n) == _stepped(rec, n), n

    def test_supplied_terms_beyond_the_window(self):
        tri = derived_recurrence(Family.TRIANGULAR)
        assert tri.order == 2 and dict(tri.initial_terms)[0] == 0
        # the relation alone would give a(2) = 3 + 0 and a(3) = 3 + 3
        assert [eval_recurrence(tri, n) for n in (2, 3, 4)] == [5, 8, 13]
        meta = derived_recurrence(Family.HEX_META)
        assert meta.order == 3
        assert [eval_recurrence(meta, n) for n in (3, 4)] == [64, 3 * 64 + 19 + 2 * 5]

    def test_restarts_at_every_supplied_index(self):
        rec = LinearRecurrence((1, 1), ((0, 1), (1, 1), (5, 100), (7, -4)), 2)
        got = [eval_recurrence(rec, n) for n in range(12)]
        assert got == [1, 1, 2, 3, 5, 100, 105, -4, 101, 97, 198, 295]
        assert got == [_stepped(rec, n) for n in range(12)]
        assert recurrence_values(rec, 0, 11) == got
        assert recurrence_values(rec, 6, 9) == got[6:10]

    @pytest.mark.parametrize("rec", _ALL_RECURRENCES)
    def test_values_in_one_pass(self, rec):
        lengths = range(1, 401)
        values = recurrence_values(rec, 1, 400)
        assert values == [eval_recurrence(rec, n) for n in lengths]
        assert values == [_stepped(rec, n) for n in lengths]
        assert recurrence_values(rec, rec.min_index, 3) == [
            eval_recurrence(rec, n) for n in range(rec.min_index, 4)
        ]

    def test_negative_coefficients(self):
        for family in (Family.SQUARE_PARA, Family.HEX_PARA):
            rec = paper_recurrence(family)
            assert any(c < 0 for c in rec.coefficients)
            assert eval_recurrence(rec, 2500) == _stepped(rec, 2500)


def _mat_power(matrix, e):
    k = len(matrix)
    result = [[int(i == j) for j in range(k)] for i in range(k)]
    base = [list(r) for r in matrix]
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


def _mat_mul(a, b):
    k = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)
    ]


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("rec", _ALL_RECURRENCES)
    def test_companion_gives_the_recurrences_polynomial(self, rec):
        c = _charpoly(_companion(rec.coefficients))
        assert tuple(reversed(c)) + (1,) == characteristic_polynomial(rec).coeffs

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_cayley_hamilton(self, family):
        a = paper_transfer_system(family).update_matrix
        k = len(a)
        total = [[0] * k for _ in range(k)]
        for i, c in enumerate((1,) + _charpoly(a)):
            power = _mat_power(a, k - i)
            total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
        assert total == [[0] * k for _ in range(k)]


class TestAgainstOracle:
    ORACLE_RANGE = {
        Family.TRIANGULAR: 7,
        Family.SQUARE_PARA: 5,
        Family.SQUARE_ORTHO: 5,
        Family.HEX_ORTHO: 3,
        Family.HEX_META: 3,
        Family.HEX_PARA: 3,
    }

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_counts_match(self, family):
        ts = paper_transfer_system(family)
        for n in range(1, self.ORACLE_RANGE[family] + 1):
            chain = build_chain(ChainSpec(family, length=n))
            assert run_transfer(ts, n) == count_ids(chain.graph)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_boundary_classes_match_states(self, family):
        ts = paper_transfer_system(family)
        k = len(ts.state_names)
        traj = state_trajectory(ts, self.ORACLE_RANGE[family])
        for n in range(1, self.ORACLE_RANGE[family] + 1):
            chain = build_chain(ChainSpec(family, length=n))
            observed = count_boundary_classes(chain.graph, chain.terminal_vertex)
            assert tuple(observed)[:k] == traj[n - 1]


class TestPaperRecurrences:
    def test_transcriptions(self):
        hex_ortho = paper_recurrence(Family.HEX_ORTHO)
        assert hex_ortho.coefficients == (3, 3)
        assert dict(hex_ortho.initial_terms) == {1: 5, 2: 19}

        hex_para = paper_recurrence(Family.HEX_PARA)
        assert hex_para.coefficients == (6, -9, 6, -1)
        assert dict(hex_para.initial_terms) == {0: 4, 1: 5, 2: 19, 3: 76}
        assert hex_para.formal_indices == frozenset({0})

        sq_ortho = paper_recurrence(Family.SQUARE_ORTHO)
        assert sq_ortho.coefficients == (2,)
        assert dict(sq_ortho.initial_terms) == {0: 1}
        assert sq_ortho.valid_from == 1

    def test_eval_examples(self):
        assert eval_recurrence(paper_recurrence(Family.TRIANGULAR), 4) == 13
        assert eval_recurrence(paper_recurrence(Family.SQUARE_ORTHO), 5) == 32
        # printed order-4 recurrence continues differently from the true counts
        assert eval_recurrence(paper_recurrence(Family.HEX_PARA), 4) == 311

    def test_initial_lookup_and_errors(self):
        rec = paper_recurrence(Family.TRIANGULAR)
        assert eval_recurrence(rec, 0) == 2
        assert eval_recurrence(rec, 1) == 3
        assert eval_recurrence(rec, 2) == 5  # bridged by the recurrence itself
        with pytest.raises(ValueError):
            eval_recurrence(rec, -1)
        with pytest.raises(ValueError):
            recurrence_values(rec, -1, 3)

    def test_incomplete_initials(self):
        rec = LinearRecurrence((1, 1), ((0, 1),), 2)
        with pytest.raises(ValueError):
            eval_recurrence(rec, 3)
        with pytest.raises(ValueError):
            recurrence_values(rec, 0, 3)

    def test_duplicate_initials_rejected(self):
        with pytest.raises(ValueError):
            LinearRecurrence((1,), ((0, 1), (0, 2)), 1)
