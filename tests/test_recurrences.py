import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cactusids import cli, paper, recurrences
from cactusids.chains import ChainSpec, Family, LINEAR_FAMILIES, build_chain
from cactusids.graphs import count_boundary_classes, count_ids
from cactusids.paper import (
    derived_recurrence,
    measured_extendable_seed,
    paper_recurrence,
    paper_transfer_system,
)
from cactusids.polynomials import Polynomial, RationalGF
from cactusids.recurrences import (
    LinearRecurrence,
    TransferSystem,
    _berlekamp_massey,
    _nth_term,
    _quadratic_form,
    eval_recurrence,
    gf_from_recurrence,
    gf_term,
    run_transfer,
    series_gf,
    state_trajectory,
    transfer_gf,
)
from cactusids.verify import verify_all


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
        for read, message in [
            (paper_transfer_system, "no transfer system for family p-defect"),
            (paper_recurrence, "no published recurrence for family p-defect"),
            (paper.paper_gf, "no published generating function for p-defect"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                read(Family.PARA_CHAIN_ORTHO_DEFECT)


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
            run_transfer(paper_transfer_system(Family.TRIANGULAR), -3)
        with pytest.raises(ValueError, match="^length must be at least 1$"):
            state_trajectory(paper_transfer_system(Family.TRIANGULAR), 0)

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


def _dense_step(matrix, vec):
    """Reference A v over every entry of A, zeros and ones included."""
    k = len(vec)
    return tuple(sum(row[j] * vec[j] for j in range(k)) for row in matrix)


def _system(matrix, seed):
    k = len(matrix)
    return TransferSystem(matrix, seed, (1,) * k)


def _unit_weights(system):
    k = len(system.initial_vector)
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def _states(system, n):
    """The state vector at length n, one state's count under its unit weights
    at a time."""
    return tuple(
        run_transfer(system._replace(output_weights=unit), n) for unit in _unit_weights(system)
    )


@st.composite
def _transfer_systems(draw):
    k = draw(st.integers(1, 4))
    matrix = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(k))
    return _system(matrix, tuple(draw(st.integers(-50, 50)) for _ in range(k)))


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
            assert _states(ts, n) == traj[n - 1], n
            assert run_transfer(ts, n) == sum(
                w * v for w, v in zip(ts.output_weights, traj[n - 1])
            )

    def test_exponent_edge_cases(self):
        assert _states(_system(((2, 0), (0, 3)), (5, 7)), 1) == (5, 7)
        assert _states(_system(((2, 0), (0, 3)), (1, 1)), 6) == (32, 243)

    @given(_matrix_and_vector(), st.integers(0, 300))
    @example((((0,),), (-4,)), 0)
    @example((((0,),), (-4,)), 3)
    @example((((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3)), 2)  # nilpotent
    @example((((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3)), 3)
    @example((((1, 2), (2, 4)), (-1, 1)), 9)  # singular
    @example(
        (((-3, 3, 0, 1), (2, -1, 3, -3), (0, 0, -2, 1), (3, -3, 1, 0)), (-7, 0, 5, 2)), 300
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_stepping(self, system, e):
        matrix, vec = system
        expected = vec
        for _ in range(e):
            expected = _dense_step(matrix, expected)
        assert _states(_system(matrix, vec), e + 1) == expected

    @given(_transfer_systems())
    @example(_system(((0,),), (-50,)))
    @example(_system(((0, 0, 0), (1, 2, 3), (0, 0, 0)), (5, -7, 2)))  # zero rows
    @example(_system(((0, 1, 3), (0, 2, 0), (0, 3, 1)), (50, -1, 4)))  # zero column
    @example(_system(((1,) * 4,) * 4, (-50, 50, 1, -1)))  # all ones
    @example(_system(((0, -1, 0), (2, 0, 1), (1, -1, 3)), (7, -3, 2)))  # a lone -1
    @example(_system(((1, 2), (0, 0)), (4, -9)))  # an all-zero row
    @example(_system(((0, 0, 3), (0, -2, 1), (-1, 0, 0)), (5, 1, -6)))  # first entry off col 0
    @settings(max_examples=150, deadline=None)
    def test_trajectory_matches_dense_stepping(self, system):
        dense = [system.initial_vector]
        for _ in range(199):
            dense.append(_dense_step(system.update_matrix, dense[-1]))
        for n in [*range(1, 61), 200]:
            assert state_trajectory(system, n) == dense[:n], n

    @given(_transfer_systems())
    @example(_system(((3,),), (-50,)))  # 1 x 1
    @example(_system(((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3)))  # nilpotent
    @example(_system(((0, 1, 3), (0, 2, 0), (0, 3, 1)), (50, -1, 4)))  # zero column
    @example(_system(((1, 2), (3, 4)), (0, 0)))  # zero counts
    @example(TransferSystem(  # negative entries, seeds and weights
        ((-3, 3, 0, 1), (2, -1, 3, -3), (0, 0, -2, 1), (3, -3, 1, 0)),
        (-7, 0, 5, 2),
        (1, -2, 0, 3),
    ))
    @settings(max_examples=100, deadline=None)
    def test_run_transfer_matches_dense_stepping(self, system):
        # n - 1 of both parities, below and above 2k
        vec, counts = system.initial_vector, []
        for _ in range(4097):
            counts.append(system.count(vec))
            vec = _dense_step(system.update_matrix, vec)
        gf = transfer_gf(system)  # the GF that the CLI's transfer route reads
        for n in list(range(1, 61)) + [4097]:
            assert run_transfer(system, n) == gf_term(gf, n) == counts[n - 1], n


def _counting_int():
    """An int subclass, and a list that gains one entry per +, - or * (either
    side) and per negation on one of its values. Each result is of the
    subclass again, so the count follows the values through a kernel."""
    ops = []

    class Counted(int):
        pass

    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "neg"):
        name = f"__{name}__"
        def op(self, *other, _int_op=getattr(int, name)):
            ops.append(name)
            return Counted(_int_op(self, *other))
        setattr(Counted, name, op)
    return Counted, ops


# big-int operations per term of the derived GF's series, and per transfer step
_OPS_PER_TERM = {
    Family.TRIANGULAR: (1, 1),
    Family.SQUARE_PARA: (3, 2),
    Family.SQUARE_ORTHO: (1, 3),
    Family.HEX_ORTHO: (3, 8),
    Family.HEX_META: (4, 7),
    Family.HEX_PARA: (4, 7),
}


@pytest.mark.parametrize("family", LINEAR_FAMILIES)
def test_big_int_operations_per_term(family):
    # each term starts from its first nonzero coefficient, passing the operand
    # on at 1, adds or subtracts at a later +-1, and multiplies only elsewhere
    Counted, ops = _counting_int()
    gf = paper.derived_gf(family)
    counted_gf = RationalGF.__new__(RationalGF)  # the GF's own coefficients, counted
    counted_gf.numerator = Polynomial(map(Counted, gf.numerator.coeffs))
    counted_gf.denominator = gf.denominator
    ts = paper_transfer_system(family)
    counted_ts = ts._replace(initial_vector=tuple(map(Counted, ts.initial_vector)))
    per_term = []
    # each reader gives the last term, or state vector, of the prefix through n
    for read in (
        lambda n: counted_gf.series(n)[-1:],
        lambda n: state_trajectory(counted_ts, n)[-1],
    ):
        counts = []
        for n in (60, 100):
            ops.clear()
            last = read(n)
            counts.append(len(ops))
        per_term.append((counts[1] - counts[0]) / 40)
        assert all(type(v) is Counted for v in last)  # no operation escaped the count
    assert tuple(per_term) == _OPS_PER_TERM[family]


@st.composite
def _symmetric_forms(draw):
    k = draw(st.integers(1, 4))
    h = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            h[i][j] = h[j][i] = draw(st.integers(-9, 9))
    return h, draw(st.lists(st.integers(-(2**3000), 2**3000), min_size=k, max_size=k))


class TestQuadraticForm:
    @given(_symmetric_forms())
    @example(([[0, 3], [3, 5]], [7**900, -(5**1000)]))  # zero leading pivot
    @example(([[0] * 3] * 3, [3**2000, -1, 5**1500]))  # all-zero matrix
    @example(([[4]], [2**49999]))  # k = 1: sq-ortho's 2x/(1 - 2x) at n = 10^5
    # singular, b = 1 and c_k = 0: counts 0, 3, 15, 75, ... at n = 10^5, whose
    # second pivot 3 * 75 - 15^2 is zero
    @example(([[3, 15], [15, 75]], [0, 5**49998]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_product_sum(self, form):
        h, r = form
        assert _quadratic_form(h, r) == sum(
            ri * sum(hij * rj for hij, rj in zip(row, r)) for ri, row in zip(r, h)
        )


class TestHankelLastStep:
    """A far term powers x once, to half its exponent; the count GF that
    run_transfer reads is built once per system, and the audit builds each
    oracle profile once."""

    @pytest.fixture
    def exponents(self, monkeypatch):
        seen, power = [], recurrences._x_pow_mod

        def recording(e, c):
            seen.append(e)
            return power(e, c)

        monkeypatch.setattr(recurrences, "_x_pow_mod", recording)
        return seen

    def test_run_transfer_powers_to_half(self, exponents):
        run_transfer(paper_transfer_system(Family.HEX_PARA), 20000)
        assert exponents == [19999 >> 1]

    def test_eval_recurrence_powers_to_half(self, exponents):
        rec = paper_recurrence(Family.HEX_PARA)
        base = max(rec.initial_map) - rec.order + 1
        eval_recurrence(rec, 20000)
        assert exponents == [(20000 - base) >> 1]

    def test_each_head_is_built_once(self):
        # every family's system, under its count weights and each state's
        # unit weights, at short and far lengths, twice over
        _clear_package_caches()
        systems = [
            system._replace(output_weights=weights)
            for system in map(paper_transfer_system, LINEAR_FAMILIES)
            for weights in [system.output_weights] + _unit_weights(system)
        ]
        for _ in range(2):
            for system in systems:
                for n in (1, 2, 7, 300, 4097):
                    run_transfer(system, n)
        info = recurrences.transfer_gf.cache_info()
        assert info.hits == 9 * len(systems)
        assert info.misses == info.currsize == len(systems) == 23

    def test_berlekamp_massey_runs_once_per_system(self, monkeypatch, capsys):
        # the CLI's transfer route and run_transfer read one cached GF
        calls, relation = [], recurrences._berlekamp_massey

        def counted(terms):
            calls.append(terms)
            return relation(terms)

        monkeypatch.setattr(recurrences, "_berlekamp_massey", counted)
        _clear_package_caches()
        family = Family.HEX_PARA
        assert cli.main(["count", "--family", family.value, "--n", "5000"]) == 0
        assert int(capsys.readouterr().out) == run_transfer(paper_transfer_system(family), 5000)
        run_transfer(paper_transfer_system(family), 7)
        assert len(calls) == 1

    def test_audit_builds_each_oracle_profile_once(self):
        _clear_package_caches()
        verify_all()
        info = paper._oracle_profile.cache_info()
        assert info.hits > 0
        assert info.misses == info.currsize
        for cache in (paper._oracle_gamma, paper._oracle_defect_count):
            info = cache.cache_info()
            assert info.currsize > 0, cache
            assert info.misses == info.currsize, cache


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("cactusids"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _stepped(rec, n):
    """Reference: advance the relation one term at a time past the run of
    supplied terms."""
    values = rec.initial_map
    for i in range(max(values) + 1, n + 1):
        values[i] = sum(c * values[i - j - 1] for j, c in enumerate(rec.coefficients))
    return values[n]


@st.composite
def _recurrence_and_index(draw):
    """Order 1-4, coefficients -3..3 (a zero last one included), a run of k
    to k + 2 initial terms, and an index from the run's start up to 300."""
    k = draw(st.integers(1, 4))
    coefficients = tuple(draw(st.integers(-3, 3)) for _ in range(k))
    base = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k + 2))
    rec = LinearRecurrence(coefficients, tuple(enumerate(values, base)), base + k)
    return rec, draw(st.integers(base, 300))


# (kind, family) cases, each recurrence built inside its test, so an engine
# fault fails the cases it reaches instead of the whole file's collection
_ALL_RECURRENCES = [
    pytest.param(kind, family, id=f"{kind}-{family.value}")
    for family in LINEAR_FAMILIES
    for kind in ("paper", "derived")
]
_BUILD = {"paper": paper_recurrence, "derived": derived_recurrence}


class TestGfTerm:
    def test_finite_and_zero_series(self):
        # a polynomial is zero past its degree, and the zero GF is zero
        finite = RationalGF((0, 2, 1, 3))
        assert [gf_term(finite, n) for n in range(7)] == [0, 2, 1, 3, 0, 0, 0]
        assert gf_term(finite, 10**5) == 0
        assert [gf_term(RationalGF(0), n) for n in (0, 1, 10**5)] == [0, 0, 0]

    def test_refuses_a_negative_index(self):
        with pytest.raises(ValueError, match="^coefficient index -1 is negative$"):
            gf_term(RationalGF((1,), (1, -1)), -1)

    @given(
        st.lists(st.integers(-5, 5), max_size=8),
        st.lists(st.integers(-3, 3), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_series(self, num, tail):
        # numerators of every degree against denominators of order 0-4,
        # reducible ones and a zero last coefficient included
        gf = RationalGF(Polynomial(num), Polynomial([1] + tail))
        assert [gf_term(gf, n) for n in range(41)] == gf.series(40)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    @pytest.mark.parametrize("read", [paper.derived_gf, paper.paper_gf],
                             ids=["derived", "paper"])
    def test_matches_the_series_through_the_prefix_lengths(self, family, read):
        # every family's GFs, far past their heads and through the 1450 to 1550
        # terms that perfbench's prefix group reads
        gf = read(family)
        series = gf.series(1550)
        for n in [*range(50), 97, 500, 1023, 1449, 1450, 1499, 1500, 1549, 1550]:
            assert gf_term(gf, n) == series[n], n


class TestEvalRecurrenceAgainstStepping:
    @pytest.mark.parametrize("kind, family", _ALL_RECURRENCES)
    def test_matches_reference(self, kind, family):
        rec = _BUILD[kind](family)
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

    def test_a_run_longer_than_the_order(self):
        rec = LinearRecurrence((1, 1), ((0, 1), (1, 1), (2, 100), (3, -4)), 2)
        got = [eval_recurrence(rec, n) for n in range(9)]
        assert got == [1, 1, 100, -4, 96, 92, 188, 280, 468]
        assert got == [_stepped(rec, n) for n in range(9)]
        assert gf_from_recurrence(rec).series(8) == got

    @pytest.mark.parametrize("kind, family", _ALL_RECURRENCES)
    def test_series_in_one_pass(self, kind, family):
        rec = _BUILD[kind](family)
        lengths = range(1, 401)
        values = gf_from_recurrence(rec).series(400)[1:]
        assert values == [eval_recurrence(rec, n) for n in lengths]
        assert values == [_stepped(rec, n) for n in lengths]

    @given(_recurrence_and_index())
    @example((LinearRecurrence((1, 0), ((0, 1), (1, 2)), 2), 300))
    @example((LinearRecurrence((2, -1, 0), ((3, 1), (4, 0), (5, -2), (6, 7)), 6), 9))
    @example((LinearRecurrence((0, 0, 0, 0), ((0, 5), (1, 6), (2, 7), (3, 8), (4, 1)), 4), 7))
    @settings(max_examples=300, deadline=None)
    def test_random_recurrences_match_stepping(self, case):
        rec, n = case
        assert eval_recurrence(rec, n) == _stepped(rec, n)
        series = gf_from_recurrence(rec).series(n)
        assert series[rec.min_index:] == [_stepped(rec, i) for i in range(rec.min_index, n + 1)]

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


def _follows(terms, relation):
    """Whether every term from the relation's order on obeys it."""
    return all(
        terms[n] == -sum(c * terms[n - i] for i, c in enumerate(relation, 1))
        for n in range(len(relation), len(terms))
    )


class TestBerlekampMassey:
    @pytest.mark.parametrize("kind, family", _ALL_RECURRENCES)
    def test_reads_back_each_recurrence(self, kind, family):
        # from the first index the relation reaches back to, 2 * order terms
        # fix a relation that continues the series through n = 200
        rec = _BUILD[kind](family)
        base = max(rec.initial_map) - rec.order + 1
        terms = [eval_recurrence(rec, n) for n in range(base, 201)]
        relation = _berlekamp_massey(terms[: 2 * rec.order])
        assert _follows(terms, relation)
        assert len(relation) <= rec.order
        if len(relation) == rec.order:
            assert relation == tuple(-c for c in rec.coefficients)

    def test_zero_sequence(self):
        assert _berlekamp_massey((0,) * 6) == ()
        assert _berlekamp_massey(()) == ()
        assert series_gf((0,) * 4, 1) == RationalGF(0)
        system = _system(((1, 2), (3, 4)), (0, 0))
        assert [run_transfer(system, n) for n in (1, 2, 5, 4097)] == [0, 0, 0, 0]
        unweighted = TransferSystem(((1, 1), (1, 0)), (1, 2), (0, 0))
        assert run_transfer(unweighted, 300) == 0

    def test_nilpotent_system(self):
        # counts 2, 1, 3 and then zeros: the relation is three zeros
        system = _system(((0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, -2, 3))
        assert transfer_gf(system) == RationalGF((0, 2, 1, 3))
        assert [run_transfer(system, n) for n in range(1, 9)] == [2, 1, 3, 0, 0, 0, 0, 0]

    def test_zero_last_coefficient(self):
        # a singular matrix: its counts 0, 3, 15, 75, ... obey s(n) = 5 s(n-1)
        # only from n = 2, a relation of order 2 with c_2 = 0
        system = _system(((1, 2), (2, 4)), (-1, 1))
        assert _berlekamp_massey((0, 3, 15, 75)) == (-5, 0)
        assert transfer_gf(system) == RationalGF((0, 0, 3), (1, -5))
        assert run_transfer(system, 301) == 3 * 5**299
        # the unreduced relation x^2 - 5x at n = 10^5 (odd shift b = 1): its
        # Hankel form has pivots 3 and 3 * 75 - 15^2 = 0
        assert _nth_term((0, 3, 15, 75), (-5, 0), 10**5 - 1) == 3 * 5 ** (10**5 - 2)

    def test_final_division(self):
        # fraction-free, the relations end as 5 + 0x and 4 - 12x + 8x^2: the
        # division by the leading coefficient is exact
        assert _berlekamp_massey((5, 0, 0, 0)) == (0,)
        assert _berlekamp_massey((2, 3, 5, 9, 17, 33)) == (-3, 2)
        # 2, 1 obeys s(n) = s(n-1) / 2 alone
        with pytest.raises(ValueError, match="^the shortest relation has non-integer"):
            _berlekamp_massey((2, 1))

    @pytest.mark.parametrize("terms, order", [
        ((0, 0, 0, 1), 4),
        ((1, 1, 2), 2),
        ((1, 2, 4, 8, 16, 33), 5),
    ])
    def test_refuses_a_relation_the_terms_do_not_fix(self, terms, order):
        message = f"^{len(terms)} terms do not fix a relation of order {order}$"
        with pytest.raises(ValueError, match=message):
            _berlekamp_massey(terms)


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
        k = len(ts.initial_vector)
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

    def test_duplicate_initials_rejected(self):
        with pytest.raises(ValueError):
            LinearRecurrence((1,), ((0, 1), (0, 2)), 1)

    @pytest.mark.parametrize("args, message", [
        (((), ((0, 1),), 1), "recurrence needs at least one coefficient"),
        (((1,), ((0, 1), (0, 2)), 1), "duplicate initial indices"),
        # fewer terms than the order
        (((1, 1), ((0, 1),), 2), "need a run of at least 2 consecutive initial indices"),
        (((1,), (), 1), "need a run of at least 1 consecutive initial indices"),
        # gapped runs
        (((1, 1), ((0, 1), (1, 1), (5, 100), (7, -4)), 2),
         "need a run of at least 2 consecutive initial indices"),
        (((2, -1, 0), ((3, 1), (4, 0), (5, -2), (9, 7)), 6),
         "need a run of at least 3 consecutive initial indices"),
        (((0, 0, 0, 0), ((0, 5), (1, 6), (2, 7), (3, 8), (6, 1)), 4),
         "need a run of at least 4 consecutive initial indices"),
        (((1, 1), ((0, 1), (2, 1)), 2), "need a run of at least 2 consecutive initial indices"),
        (((1,), ((-1, 1), (0, 2)), 1), "negative initial index"),
    ])
    def test_refusals_by_position_and_keyword(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LinearRecurrence(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            LinearRecurrence(**dict(zip(LinearRecurrence._fields, args)))
        valid = LinearRecurrence((1,), ((0, 1),), 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            valid._replace(**dict(zip(LinearRecurrence._fields, args)))


@pytest.mark.parametrize("args, message", [
    ((((1, 2),), (1,), (1,)), "update matrix shape does not match state count"),
    ((((1, 0),), (1, 1), (1, 1)), "update matrix shape does not match state count"),
    ((((1,),), (1, 2), (1, 2)), "update matrix shape does not match state count"),
    ((((1,),), (1,), ()), "vector lengths do not match state count"),
    # a system with no states has no count at any length
    (((), (), ()), "transfer system needs at least one state"),
    # the arithmetic is exact over the integers, so a float is refused
    ((((0.5,),), (1,), (1,)), "integer entry required, got 0.5"),
    ((((1,),), (1.0,), (1,)), "integer entry required, got 1.0"),
    ((((1,),), (1,), (None,)), "integer entry required, got None"),
])
def test_transfer_system_refusals_by_position_and_keyword(args, message):
    error = TypeError if message.startswith("integer ") else ValueError
    fields = dict(zip(TransferSystem._fields, args))
    valid = TransferSystem(((1,),), (1,), (1,))
    for make in (lambda: TransferSystem(*args), lambda: TransferSystem(**fields),
                 lambda: valid._replace(**fields)):
        with pytest.raises(error, match=f"^{message}$"):
            make()


def test_transfer_system_takes_negative_entries():
    # a printed entry may be a transcription slip of any sign: the audit judges
    # the system it builds, so construction accepts a negative entry
    system = _system(((-1, 1, 0), (1, -2, 3), (0, 2, -1)), (1, 2, 1))
    dense = [system.initial_vector]
    for _ in range(29):
        dense.append(_dense_step(system.update_matrix, dense[-1]))
    assert state_trajectory(system, 30) == dense
    assert any(v < 0 for vec in dense for v in vec)
