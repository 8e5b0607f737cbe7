import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cactusids import genfunc
from cactusids.chains import Family, LINEAR_FAMILIES
from cactusids.genfunc import (
    NoRealDominantRootError,
    SingularSystemError,
    dominant_growth_rate,
    solve_gf_system,
)
from cactusids.paper import (
    derived_gf,
    derived_recurrence,
    derived_state_gfs,
    paper_gf,
    paper_gf_system,
    paper_recurrence,
    paper_state_gfs,
    paper_transfer_system,
)
from cactusids.polynomials import Polynomial, RationalGF, format_gf, poly_divmod_exact
from cactusids.recurrences import (
    LinearRecurrence,
    eval_recurrence,
    gf_from_recurrence,
    gf_term,
    recurrence_from_gf,
    state_trajectory,
)
from reference import fraction_growth_rate, fraction_polish

PHI = (1 + math.sqrt(5)) / 2


def P(*coeffs):
    return Polynomial(coeffs)


def _transfer_gf_system(ts):
    """(I - xA) F = v, with F_i the series of state i shifted by one: the
    linear system the derived generating functions are checked against."""
    k = len(ts.initial_vector)
    rows = tuple(
        tuple(P(int(i == j), -ts.update_matrix[i][j]) for j in range(k)) for i in range(k)
    )
    return rows, ts.initial_vector


_SMALL_POLY = st.lists(st.integers(-3, 3), max_size=3).map(Polynomial)


class TestSolveSystem:
    def test_printed_triangular_system(self):
        rows, rhs, unknowns = paper_gf_system(Family.TRIANGULAR)
        assert unknowns == ("avoids-terminal", "contains-terminal")
        avoids, contains = solve_gf_system(rows, rhs)
        assert contains == RationalGF(P(0, 1), P(1, -1, -1))
        assert avoids == RationalGF(P(1), P(1, -1, -1))

    def test_printed_square_para_system(self):
        solution = solve_gf_system(*paper_gf_system(Family.SQUARE_PARA)[:2])
        printed = paper_state_gfs(Family.SQUARE_PARA)
        assert tuple(solution) == printed
        # the middle unknown is the published 1/((1-x)^2 - x^3)
        assert solution[1] == RationalGF(P(1), P(1, -2, 1, -1))

    def test_identity_system(self):
        rhs = P(3, 1)
        assert solve_gf_system(((P(1),),), (rhs,)) == [RationalGF(rhs, P(1))]
        # entries are read as RationalGF reads them: ints and coefficient tuples
        assert solve_gf_system(((1,),), ((3, 1),)) == [RationalGF(rhs, P(1))]

    @pytest.mark.parametrize("args, message", [
        ((((P(1),),), (P(1), P(1))), "system must be square with matching rhs"),
        ((((P(1), P(0)),), (P(1),)), "system must be square with matching rhs"),
    ])
    def test_refusals_by_position_and_keyword(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_gf_system(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_gf_system(**dict(zip(("matrix", "rhs"), args)))

    def test_singular(self):
        with pytest.raises(SingularSystemError):
            solve_gf_system(((P(1), P(1)), (P(1), P(1))), (P(1), P(0)))

    def test_printed_hex_systems(self):
        # the ortho and meta systems solve to their printed solutions;
        # the para system does not (its printed solutions are wrong) and
        # instead solves to the transfer-derived corrected series
        assert tuple(solve_gf_system(*paper_gf_system(Family.HEX_ORTHO)[:2])) == (
            paper_state_gfs(Family.HEX_ORTHO)
        )
        assert tuple(solve_gf_system(*paper_gf_system(Family.HEX_META)[:2])) == (
            paper_state_gfs(Family.HEX_META)[:2]
        )
        solved = tuple(solve_gf_system(*paper_gf_system(Family.HEX_PARA)[:2]))
        assert solved != paper_state_gfs(Family.HEX_PARA)
        assert solved == derived_state_gfs(Family.HEX_PARA)

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(_SMALL_POLY, min_size=k, max_size=k), min_size=k, max_size=k),
                st.lists(_SMALL_POLY, min_size=k, max_size=k),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_systems_solve_exactly(self, data):
        rows, rhs = data
        k = len(rhs)
        # Leibniz determinant, independent of the solver's elimination
        det = Polynomial()
        for perm in permutations(range(k)):
            inversions = sum(perm[i] > perm[j] for j in range(k) for i in range(j))
            term = P((-1) ** inversions)
            for i, j in enumerate(perm):
                term = term * rows[i][j]
            det = det + term
        if det.is_zero:
            with pytest.raises(SingularSystemError):
                solve_gf_system(rows, rhs)
            return
        solution = solve_gf_system(rows, rhs)
        for t in (Fraction(1, 7), Fraction(-2, 3), Fraction(5)):
            if det(t) == 0:
                continue
            values = [gf.numerator(t) / gf.denominator(t) for gf in solution]
            for row, b in zip(rows, rhs):
                assert sum(m(t) * v for m, v in zip(row, values)) == b(t)


class TestCoefficients:
    def test_examples(self):
        assert paper_gf(Family.SQUARE_ORTHO).series(4) == [1, 2, 4, 8, 16]
        assert paper_gf(Family.SQUARE_PARA).series(3) == [1, 2, 4, 7]
        # the printed triangular expansion contradicts the real counts
        assert paper_gf(Family.TRIANGULAR).series(3) == [0, 1, 2, 3]

    def test_zero_den_constant(self):
        with pytest.raises(ValueError):
            RationalGF(P(1), P(0, 1)).series(2)


class TestConversions:
    def test_gf_from_recurrence_examples(self):
        corrected = gf_from_recurrence(LinearRecurrence((1, 1), ((1, 3), (2, 5)), 3))
        assert corrected == RationalGF(P(0, 3, 2), P(1, -1, -1))
        geometric = gf_from_recurrence(LinearRecurrence((2,), ((1, 2),), 1))
        assert geometric == RationalGF(P(0, 2), P(1, -2))
        hex_ortho = gf_from_recurrence(LinearRecurrence((3, 3), ((1, 5), (2, 19)), 3))
        assert hex_ortho == RationalGF(P(0, 5, 4), P(1, -3, -3))

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_gf_from_recurrence_keeps_every_supplied_term(self, family):
        # a derived recurrence supplies terms past its order up to valid_from
        assert gf_from_recurrence(derived_recurrence(family)) == derived_gf(family)

    def test_gf_from_recurrence_is_zero_below_the_run(self):
        rec = LinearRecurrence((1, 1), ((3, 1), (4, 1), (5, 100), (6, -4)), 5)
        assert gf_from_recurrence(rec).series(9) == [0, 0, 0, 1, 1, 100, -4, 96, 92, 188]

    def test_gf_from_recurrence_requires_window(self):
        with pytest.raises(ValueError):
            gf_from_recurrence(LinearRecurrence((1, 1), ((1, 3),), 3))

    def test_recurrence_from_gf_examples(self):
        rec_o = recurrence_from_gf(paper_gf(Family.HEX_ORTHO))
        assert rec_o.coefficients == (3, 3)
        assert rec_o.valid_from == 3
        rec_l = recurrence_from_gf(paper_gf(Family.HEX_PARA))
        assert rec_l.coefficients == (6, -9, 6, -1)
        assert rec_l.valid_from == 5  # printed numerator degree forces n >= 5
        rec_s = recurrence_from_gf(RationalGF(P(1), P(1, -2)))
        assert rec_s.coefficients == (2,)
        assert rec_s.valid_from == 1

    # (1 + x)/x has no power series; (1 + x)/(2 - x) = 1/2 + 3x/4 + ... is not integer
    @pytest.mark.parametrize("den, d0", [((0, 1), 0), ((2, -1), 2)])
    def test_non_integer_series_have_no_recurrence(self, den, d0):
        gf = RationalGF(P(1, 1), P(*den))
        message = f"^denominator constant term is {d0}, not 1: no integer power series$"
        with pytest.raises(ValueError, match=message):
            recurrence_from_gf(gf)
        with pytest.raises(ValueError, match=message):
            gf_term(gf, 40)

    def test_polynomial_has_no_recurrence(self):
        with pytest.raises(ValueError, match="^polynomial .finite. series has no recurrence"):
            recurrence_from_gf(RationalGF(P(1, 2, 3)))

    def test_round_trip_spec_suite(self):
        rng = random.Random(20240)
        exact = 0
        attempts = 0
        while exact < 100:
            attempts += 1
            assert attempts < 3000, "too many degenerate random recurrences"
            order = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-4, 4) for _ in range(order))
            if coeffs[-1] == 0:
                continue
            initials = tuple((i, rng.randint(-9, 9)) for i in range(1, order + 1))
            rec = LinearRecurrence(coeffs, initials, order + 1)
            gf = gf_from_recurrence(rec)
            # sequence-level equality holds even for reducible cases
            series = gf.series(14)
            for n in range(1, 15):
                assert series[n] == eval_recurrence(rec, n)
            if gf.denominator.degree != order:
                continue  # reducible generating function; coefficients collapse
            back = recurrence_from_gf(gf)
            assert back.coefficients == coeffs
            exact += 1


class TestDerived:
    def test_corrected_family_gfs(self):
        assert format_gf(derived_gf(Family.TRIANGULAR)) == "(3x + 2x^2)/(1 - x - x^2)"
        assert format_gf(derived_gf(Family.HEX_META)) == (
            "(5x + 4x^2 + 2x^3)/(1 - 3x - x^2 - 2x^3)"
        )
        assert format_gf(derived_gf(Family.HEX_PARA)) == (
            "(5x - 6x^2 + x^3)/(1 - 5x + 4x^2 - x^3)"
        )
        assert derived_gf(Family.SQUARE_ORTHO) == RationalGF(P(0, 2), P(1, -2))

    def test_derived_states_match_trajectories(self):
        for family in LINEAR_FAMILIES:
            traj = state_trajectory(paper_transfer_system(family), 30)
            for i, gf in enumerate(derived_state_gfs(family)):
                series = gf.series(29)
                assert all(series[k] == traj[k][i] for k in range(30))

    def test_derived_recurrence_hex_para(self):
        rec = derived_recurrence(Family.HEX_PARA)
        assert rec.coefficients == (5, -4, 1)
        assert rec.valid_from == 4

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_cramer_route_agrees(self, family):
        ts = paper_transfer_system(family)
        states = solve_gf_system(*_transfer_gf_system(ts))
        assert tuple(states) == derived_state_gfs(family)
        # x * sum w_i F_i over the product of the reduced denominators
        den = Polynomial.one()
        for gf in states:
            den = den * gf.denominator
        total = Polynomial()
        for w, gf in zip(ts.output_weights, states):
            total = total + gf.numerator * poly_divmod_exact(den, gf.denominator) * w
        assert RationalGF(P(0, 1) * total, den) == derived_gf(family)

    def test_derivation_solves_no_system(self, monkeypatch):
        expected = {f: (derived_gf(f), derived_state_gfs(f)) for f in LINEAR_FAMILIES}

        def refuse(*args):
            raise AssertionError("a linear system was solved")

        monkeypatch.setattr(genfunc, "_det", refuse)
        monkeypatch.setattr(genfunc, "solve_gf_system", refuse)
        derived_gf.cache_clear()
        derived_state_gfs.cache_clear()
        try:
            for family in LINEAR_FAMILIES:
                assert (derived_gf(family), derived_state_gfs(family)) == expected[family]
        finally:
            derived_gf.cache_clear()
            derived_state_gfs.cache_clear()

    def test_self_consistent_printed_gfs_match_derived_from_n1(self):
        # Q, S, O printed expansions agree with the derived ones at n >= 1
        for family in (Family.SQUARE_PARA, Family.SQUARE_ORTHO, Family.HEX_ORTHO):
            printed = paper_gf(family).series(25)
            corrected = derived_gf(family).series(25)
            assert printed[1:] == corrected[1:]


# (monic factors of a characteristic polynomial, ascending coefficients; its
# dominant real root)
KNOWN_ROOTS = [
    ([(-4, 0, 1)], 2.0),  # a(n) = 4a(n-2): roots +2 and -2, +2 wins the tie
    ([(2, 1), (-2, 1), (-3, 0, 1)], 2.0),  # +-2 beats +-sqrt(3)
    ([(3, 1), (3, 1), (-1, 1)], -3.0),  # repeated negative root
    ([(-5, 1)], 5.0),  # degree 1
    ([(3, 1)], -3.0),
    ([(-8, 0, 0, 1)], 2.0),  # x^3 - 8: 2 and a complex pair, all of modulus 2
    # roots a millionth apart share the polishing bisection's first window
    ([(-10**6, 1), (-10**6 - 1, 1)], 10**6 + 1.0),
    ([(-3 * 10**6 - d, 1) for d in range(3)], 3 * 10**6 + 2.0),
    ([(-10**7, 1), (10**14 - 2, -2 * 10**7, 1)], 10**7 + 2**0.5),
]


class TestGrowthRate:
    def test_triangular_is_golden_ratio(self):
        estimate = dominant_growth_rate(paper_recurrence(Family.TRIANGULAR))
        assert abs(estimate.dominant_root - PHI) <= 1e-9 * PHI
        assert abs(estimate.empirical_ratio - PHI) <= 1e-9 * PHI

    def test_doubling(self):
        estimate = dominant_growth_rate(paper_recurrence(Family.SQUARE_ORTHO))
        assert abs(estimate.dominant_root - 2.0) <= 1e-12
        assert estimate.empirical_ratio == 2.0

    def test_hex_ortho_quadratic_root(self):
        estimate = dominant_growth_rate(paper_recurrence(Family.HEX_ORTHO))
        want = (3 + math.sqrt(21)) / 2
        assert abs(estimate.dominant_root - want) <= 1e-9

    def test_empirical_ratio_near_root_for_all_families(self):
        for family in LINEAR_FAMILIES:
            estimate = dominant_growth_rate(paper_recurrence(family))
            assert abs(estimate.empirical_ratio - estimate.dominant_root) < (
                1e-9 * estimate.dominant_root
            )

    def test_complex_dominant_reported(self):
        rec = LinearRecurrence((0, -1), ((1, 1), (2, 1)), 3)
        with pytest.raises(NoRealDominantRootError):
            dominant_growth_rate(rec)
        # a(n) = a(n-1) from a(0) = 0: root 1, but no ratio a(51)/a(50)
        with pytest.raises(ValueError, match="^sequence value at index 50 is zero$"):
            dominant_growth_rate(LinearRecurrence((1,), ((0, 0),), 1))

    def test_even_multiplicity_root(self):
        # (x - 2)^2 has no sign change, but its square-free part x - 2 has
        rec = LinearRecurrence((4, -4), ((1, 2), (2, 8)), 3)
        estimate = dominant_growth_rate(rec)
        assert abs(estimate.dominant_root - 2.0) <= 1e-9

    @pytest.mark.parametrize("factors, root", KNOWN_ROOTS)
    def test_known_roots(self, factors, root):
        estimate = dominant_growth_rate(_recurrence_with_roots(factors))
        assert abs(estimate.dominant_root - root) <= 1e-9

    @given(
        st.lists(
            st.one_of(
                st.integers(-12, 12).map(lambda a: ((-a, 1), a)),
                st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(
                    lambda ab: ((ab[0] ** 2 + ab[1] ** 2, -2 * ab[0], 1), None)
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_roots_of_known_factors(self, factors):
        # integer roots a and complex pairs a +- bi, b >= 1, of modulus^2 a^2 + b^2
        rec = _recurrence_with_roots([f for f, _ in factors])
        assume(eval_recurrence(rec, 50) != 0)
        largest = max(c[0] if r is None else r * r for c, r in factors)
        real = [r for _, r in factors if r is not None and r * r == largest]
        if not real:
            with pytest.raises(NoRealDominantRootError):
                dominant_growth_rate(rec)
            return
        estimate = dominant_growth_rate(rec)
        assert abs(estimate.dominant_root - max(real)) <= 1e-9


def _outcome(growth, rec):
    """What a growth-rate routine makes of rec: the estimate with its repr,
    or the exception's type with its message."""
    try:
        estimate = growth(rec)
    except Exception as error:  # noqa: BLE001  (any exception must match too)
        return type(error), str(error)
    return estimate, repr(estimate)


# order 1..5, coefficients and initial terms -9..9, a nonzero last coefficient
DRAWN_RECURRENCES = st.integers(1, 5).flatmap(lambda k: st.builds(
    lambda head, last, seeds: LinearRecurrence(head + (last,), tuple(enumerate(seeds)), k),
    st.tuples(*[st.integers(-9, 9)] * (k - 1)),
    st.integers(-9, 9).filter(bool),
    st.lists(st.integers(-9, 9), min_size=k, max_size=k),
))


class TestIntegerGrowthArithmetic:
    """The growth rate holds each rational as an integer numerator over an
    integer denominator; ``reference`` holds the same steps in Fractions, so
    every field, float bit and message must agree."""

    @given(DRAWN_RECURRENCES)
    # a(51)/a(50) = 0/-1, whose int true division alone gives -0.0
    @example(LinearRecurrence((0, 0, 1), ((0, 0), (1, 0), (2, -1)), 3))
    @settings(max_examples=300, deadline=None)
    def test_drawn_recurrences_match_the_fraction_reference(self, rec):
        assert _outcome(dominant_growth_rate, rec) == _outcome(fraction_growth_rate, rec)

    @pytest.mark.parametrize("factors", [factors for factors, _ in KNOWN_ROOTS])
    def test_known_roots_match_the_fraction_reference(self, factors):
        rec = _recurrence_with_roots(factors)
        assert _outcome(dominant_growth_rate, rec) == _outcome(fraction_growth_rate, rec)

    def test_family_recurrences_match_the_fraction_reference(self):
        for family in LINEAR_FAMILIES:
            rec = paper_recurrence(family)
            assert _outcome(dominant_growth_rate, rec) == _outcome(fraction_growth_rate, rec)

    @given(
        st.lists(st.integers(-9, 9), max_size=3),
        st.integers(2, 99),
        st.floats(-1e-6, 1e-6),
        st.floats(-20, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_polish_matches_the_fraction_reference(self, cofactor, a, eps, far):
        # a seed near the root sqrt(a) bisects; a far one mostly finds no sign change
        poly = Polynomial((-a, 0, 1)) * Polynomial(tuple(cofactor) + (1,))
        for approx in (math.sqrt(a) * (1 + eps), far):
            got = genfunc._polish_real_root(poly, approx)
            assert repr(got) == repr(fraction_polish(poly, approx))

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from((1, 7, 10**6, 10**15, 10**18)),
    )
    @example(0.5, 1)  # halfway between two candidates: the convergent wins
    @example(-2.5, 1)
    @example(7.5, 1)
    @settings(max_examples=500)
    def test_limit_denominator_matches_fraction(self, x, max_denominator):
        want = Fraction(x).limit_denominator(max_denominator)
        got = genfunc._limit_denominator(x, max_denominator)
        assert got == (want.numerator, want.denominator)


def _recurrence_with_roots(factors):
    """Recurrence whose characteristic polynomial is the product of the given
    monic factors (ascending coefficients), seeded with 1, 2, ..., k."""
    char = Polynomial((1,))
    for f in factors:
        char = char * Polynomial(f)
    k = char.degree
    coefficients = tuple(-char[k - i] for i in range(1, k + 1))
    return LinearRecurrence(coefficients, tuple((i, i) for i in range(1, k + 1)), k + 1)
