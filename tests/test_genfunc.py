import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cactusids.chains import Family, LINEAR_FAMILIES
from cactusids.genfunc import (
    GFLinearSystem,
    NoRealDominantRootError,
    SingularSystemError,
    derived_gf,
    derived_recurrence,
    derived_state_gfs,
    dominant_growth_rate,
    gf_from_recurrence,
    paper_gf,
    paper_gf_system,
    paper_state_gfs,
    recurrence_from_gf,
    solve_gf_system,
    transfer_gf_system,
)
from cactusids.polynomials import Polynomial, RationalGF, format_gf
from cactusids.recurrences import (
    LinearRecurrence,
    eval_recurrence,
    paper_recurrence,
    paper_transfer_system,
    state_trajectory,
)

PHI = (1 + math.sqrt(5)) / 2


def P(*coeffs):
    return Polynomial(coeffs)


class TestSolveSystem:
    def test_printed_triangular_system(self):
        system = paper_gf_system(Family.TRIANGULAR)
        assert system.unknowns == ("avoids-terminal", "contains-terminal")
        avoids, contains = solve_gf_system(system)
        assert contains == RationalGF(P(0, 1), P(1, -1, -1))
        assert avoids == RationalGF(P(1), P(1, -1, -1))

    def test_printed_square_para_system(self):
        solution = solve_gf_system(paper_gf_system(Family.SQUARE_PARA))
        printed = paper_state_gfs(Family.SQUARE_PARA)
        assert tuple(solution) == printed
        # the middle unknown is the published 1/((1-x)^2 - x^3)
        assert solution[1] == RationalGF(P(1), P(1, -2, 1, -1))

    def test_identity_system(self):
        rhs = P(3, 1)
        system = GFLinearSystem(((P(1),),), (rhs,), ("only",))
        assert solve_gf_system(system) == [RationalGF(rhs, P(1))]

    def test_singular(self):
        system = GFLinearSystem(
            ((P(1), P(1)), (P(1), P(1))), (P(1), P(0)), ("a", "b")
        )
        with pytest.raises(SingularSystemError):
            solve_gf_system(system)

    def test_printed_hex_systems(self):
        # the ortho and meta systems solve to their printed solutions;
        # the para system does not (its printed solutions are wrong) and
        # instead solves to the transfer-derived corrected series
        assert tuple(solve_gf_system(paper_gf_system(Family.HEX_ORTHO))) == (
            paper_state_gfs(Family.HEX_ORTHO)
        )
        assert tuple(solve_gf_system(paper_gf_system(Family.HEX_META))) == (
            paper_state_gfs(Family.HEX_META)[:2]
        )
        solved = tuple(solve_gf_system(paper_gf_system(Family.HEX_PARA)))
        assert solved != paper_state_gfs(Family.HEX_PARA)
        assert solved == derived_state_gfs(Family.HEX_PARA)


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
        corrected = gf_from_recurrence(LinearRecurrence((1, 1), ((1, 3), (2, 5)), 3), 1)
        assert corrected == RationalGF(P(0, 3, 2), P(1, -1, -1))
        geometric = gf_from_recurrence(LinearRecurrence((2,), ((1, 2),), 1), 1)
        assert geometric == RationalGF(P(0, 2), P(1, -2))
        hex_ortho = gf_from_recurrence(
            LinearRecurrence((3, 3), ((1, 5), (2, 19)), 3), 1
        )
        assert hex_ortho == RationalGF(P(0, 5, 4), P(1, -3, -3))

    def test_gf_from_recurrence_requires_window(self):
        with pytest.raises(ValueError):
            gf_from_recurrence(LinearRecurrence((1, 1), ((1, 3),), 3), 1)

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
            gf = gf_from_recurrence(rec, 1)
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

    def test_transfer_system_shape(self):
        system = transfer_gf_system(paper_transfer_system(Family.TRIANGULAR))
        assert system.unknowns == ("contains-terminal", "avoids-terminal")
        assert system.rhs == (P(1), P(2))

    def test_self_consistent_printed_gfs_match_derived_from_n1(self):
        # Q, S, O printed expansions agree with the derived ones at n >= 1
        for family in (Family.SQUARE_PARA, Family.SQUARE_ORTHO, Family.HEX_ORTHO):
            printed = paper_gf(family).series(25)
            corrected = derived_gf(family).series(25)
            assert printed[1:] == corrected[1:]


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
            estimate = dominant_growth_rate(paper_recurrence(family), ratio_index=50)
            assert abs(estimate.empirical_ratio - estimate.dominant_root) < (
                1e-9 * estimate.dominant_root
            )

    def test_complex_dominant_reported(self):
        rec = LinearRecurrence((0, -1), ((1, 1), (2, 1)), 3)
        with pytest.raises(NoRealDominantRootError):
            dominant_growth_rate(rec)

    def test_even_multiplicity_root(self):
        # (x - 2)^2 has no sign change, but its square-free part x - 2 has
        rec = LinearRecurrence((4, -4), ((1, 2), (2, 8)), 3)
        estimate = dominant_growth_rate(rec, ratio_index=30)
        assert abs(estimate.dominant_root - 2.0) <= 1e-9

    @pytest.mark.parametrize(
        "factors, root",
        [
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
        ],
    )
    def test_known_roots(self, factors, root):
        estimate = dominant_growth_rate(_recurrence_with_roots(factors), ratio_index=30)
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
        assume(eval_recurrence(rec, 30) != 0)
        largest = max(c[0] if r is None else r * r for c, r in factors)
        real = [r for _, r in factors if r is not None and r * r == largest]
        if not real:
            with pytest.raises(NoRealDominantRootError):
                dominant_growth_rate(rec, ratio_index=30)
            return
        estimate = dominant_growth_rate(rec, ratio_index=30)
        assert abs(estimate.dominant_root - max(real)) <= 1e-9


def _recurrence_with_roots(factors):
    """Recurrence whose characteristic polynomial is the product of the given
    monic factors (ascending coefficients), seeded with 1, 2, ..., k."""
    char = Polynomial((1,))
    for f in factors:
        char = char * Polynomial(f)
    k = char.degree
    coefficients = tuple(-char[k - i] for i in range(1, k + 1))
    return LinearRecurrence(coefficients, tuple((i, i) for i in range(1, k + 1)), k + 1)
