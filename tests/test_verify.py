import json
import sys
from contextlib import contextmanager

import pytest

from cactusids import paper, recurrences, verify
from cactusids.cli import MAX_BUILD_LENGTH
from cactusids.chains import (
    DEFECT_FAMILIES,
    ChainSpec,
    Family,
    LINEAR_FAMILIES,
    build_chain,
    expected_vertex_count,
)
from cactusids.graphs import DEFAULT_MAX_VERTICES, count_ids
from cactusids.paper import (
    GAMMA_FORMULA,
    defect_formula_value,
    derived_gf,
    derived_state_gfs,
)
from cactusids.polynomials import RationalGF
from cactusids.recurrences import (
    LinearRecurrence,
    TransferSystem,
    run_transfer,
    state_trajectory,
)
from cactusids.verify import (
    DEFECT_GRID,
    VerificationReport,
    check_defect_formula,
    check_gamma_formula,
    claims_for_family,
    cross_check_family,
    errata_report,
    gamma_rows,
    max_length_within,
    render_recurrence,
    render_system,
    verify_all,
)
from reference import all_claims


def status_map(report):
    return {s.claim.id: s for s in report.statuses}


def ceiling_through(family, n):
    """The oracle ceiling whose longest chain of the family has length n."""
    return expected_vertex_count(ChainSpec(family, length=n))


@contextmanager
def audit_through(family, n):
    """The audit's oracle range cut to the family's lengths 1..n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "AUDIT_CEILING", ceiling_through(family, n))
        yield


def checked_through(family, n):
    """cross_check_family with the oracle judging the family's lengths 1..n."""
    with audit_through(family, n):
        return cross_check_family(family)


@pytest.fixture(scope="module")
def full_run():
    return verify_all()


class TestRegistry:
    def test_ids_unique(self):
        ids = [c.id for c in all_claims()]
        assert len(ids) == len(set(ids))

    def test_full_run_covers_registry(self, full_run):
        reported = sorted(s.claim.id for r in full_run for s in r.statuses)
        registered = sorted(c.id for c in all_claims())
        assert reported == registered
        for family, report in zip(LINEAR_FAMILIES, full_run):
            assert [s.claim.id for s in report.statuses] == [
                c.id for c in claims_for_family(family)
            ]

    def test_kinds_are_valid(self):
        allowed = {
            "gf",
            "recurrence",
            "initial-term",
            "gamma-formula",
            "defect-formula",
            "asymptotic",
        }
        assert {c.kind for c in all_claims()} <= allowed


class TestCrossCheckFamily:
    def test_square_para_all_confirmed(self):
        report = checked_through(Family.SQUARE_PARA, 5)
        assert not report.refuted()
        assert report.summary()["refuted"] == 0

    def test_triangular_gf_refuted_with_minimal_witness(self):
        report = checked_through(Family.TRIANGULAR, 6)
        by_id = status_map(report)
        gf = by_id["tri-gf"]
        assert gf.verdict == "refuted"
        assert gf.witness == 1
        assert gf.claimed_value == 1
        assert gf.oracle_value == 3
        assert gf.reference == "oracle"
        assert gf.corrected == "(3x + 2x^2)/(1 - x - x^2)"
        assert by_id["tri-recurrence"].verdict == "confirmed"

    def test_hex_ortho_all_confirmed(self):
        report = checked_through(Family.HEX_ORTHO, 4)
        assert not report.refuted()

    def test_hex_meta_gf_witness(self, full_run):
        by_id = status_map(full_run[4])
        assert full_run[4].scope == "hex-meta"
        gf = by_id["hex-meta-gf"]
        assert gf.verdict == "refuted"
        assert (gf.witness, gf.claimed_value, gf.oracle_value) == (1, 2, 5)

    def test_hex_para_gf_flags_formal_seed(self, full_run):
        by_id = status_map(full_run[5])
        gf = by_id["hex-para-gf"]
        assert gf.verdict == "refuted"
        assert (gf.witness, gf.claimed_value, gf.oracle_value) == (2, 21, 19)
        assert any("a(0) = 4" in d for d in gf.details)

    def test_hex_para_recurrence_refuted_at_four(self, full_run):
        by_id = status_map(full_run[5])
        rec = by_id["hex-para-recurrence"]
        assert rec.verdict == "refuted"
        assert (rec.witness, rec.claimed_value, rec.oracle_value) == (4, 311, 309)
        assert "n >= 4" in rec.corrected

    def test_formal_seeds_are_formal_only(self, full_run):
        statuses = {s.claim.id: s for r in full_run for s in r.statuses}
        for claim_id in (
            "tri-initial-0", "sq-ortho-initial-0", "hex-meta-initial-0", "hex-para-initial-0"
        ):
            assert statuses[claim_id].verdict == "formal-only"
        assert any(
            "inconsistent" in d for d in statuses["hex-para-initial-0"].details
        )
        assert any("agrees" in d for d in statuses["tri-initial-0"].details)

    def test_self_consistent_gfs_never_refuted(self, full_run):
        # regression guard: refuting Q, S or O would be an artifact bug
        statuses = {s.claim.id: s for r in full_run for s in r.statuses}
        for claim_id in ("sq-para-gf", "sq-ortho-gf", "hex-ortho-gf"):
            assert statuses[claim_id].verdict == "confirmed"

    def test_witness_independent_of_range(self):
        small = status_map(checked_through(Family.TRIANGULAR, 3))
        large = status_map(checked_through(Family.TRIANGULAR, 8))
        assert small["tri-gf"].witness == large["tri-gf"].witness == 1

    def test_every_oracle_range_from_21_to_the_cap_judges_alike(self, full_run, monkeypatch):
        # the README's claim: any AUDIT_CEILING from 21 vertices to 40
        # gives every claim the verdict and values it has at 26; only the
        # details, which name the lengths checked, may move
        def judged(reports):
            return [s._replace(details=()) for r in reports for s in r.statuses]

        expected = judged(full_run)
        assert len(expected) == 67
        for ceiling in range(21, DEFAULT_MAX_VERTICES + 1):
            monkeypatch.setattr(verify, "AUDIT_CEILING", ceiling)
            assert judged(verify_all()) == expected, ceiling

    def test_refuted_carry_witness_and_values(self, full_run):
        for report in full_run:
            for status in report.refuted():
                assert status.witness is not None
                assert status.claimed_value is not None
                assert status.oracle_value is not None

    def test_rejects_defect_family(self):
        with pytest.raises(ValueError):
            cross_check_family(Family.PARA_CHAIN_ORTHO_DEFECT)

    def test_corrected_gfs_match_oracle_everywhere(self):
        # the derived GFs' premise, that series read from n = 1..6 hold at
        # every length, put to the graph at every n up to the CLI's build cap
        # in one prefix pass per family: the count, and coefficient n - 1 of
        # each state series as that boundary class at length n; tri's absent
        # extendable class must be 0
        limit = MAX_BUILD_LENGTH
        for family in LINEAR_FAMILIES:
            profile = paper._prefix_reads(ChainSpec(family, length=limit))
            series = derived_gf(family).series(limit)
            states = [gf.series(limit - 1) for gf in derived_state_gfs(family)]
            for n, classes in enumerate(profile, 1):
                assert series[n] == classes.in_count + classes.out_count, (family, n)
                derived = tuple(s[n - 1] for s in states) + (0,) * (3 - len(states))
                assert tuple(classes) == derived, (family, n)
            assert n == limit


class TestGamma:
    def test_examples(self):
        for family, n in ((Family.TRIANGULAR, 8), (Family.HEX_ORTHO, 1), (Family.HEX_META, 4)):
            with audit_through(family, n):
                status = check_gamma_formula(family)
            assert status.verdict == "confirmed"
            assert status.details == (f"formula matches the oracle minimum for n = 1..{n}",)

    def test_no_formula_for_squares(self):
        with pytest.raises(ValueError, match="no gamma formula is published for sq-para"):
            check_gamma_formula(Family.SQUARE_PARA)
        with pytest.raises(ValueError, match="no gamma formula is published for s-defect"):
            gamma_rows(Family.ORTHO_CHAIN_PARA_DEFECT)

    @pytest.mark.parametrize("family", list(GAMMA_FORMULA), ids=lambda f: f.value)
    def test_one_judge(self, family):
        by_id = status_map(cross_check_family(family))
        assert check_gamma_formula(family) == by_id[f"{family.value}-gamma"]

    def test_rows_need_no_registry(self, monkeypatch):
        def no_registry(family):
            raise AssertionError("gamma_rows built the claim registry")

        monkeypatch.setattr(verify, "_registry", no_registry)
        for family in GAMMA_FORMULA:
            rows = gamma_rows(family, 3)
            assert [(n, f) for n, f, _ in rows] == [
                (n, GAMMA_FORMULA[family][0](n)) for n in (1, 2, 3)
            ]


class TestDefects:
    def test_ortho_defect_confirmed_at_1_1(self):
        status = check_defect_formula(Family.PARA_CHAIN_ORTHO_DEFECT, 1, 1)
        assert status.verdict == "confirmed"
        assert status.claimed_value == 8
        assert status.oracle_value == 8

    def test_ortho_defect_2_1(self):
        status = check_defect_formula(Family.PARA_CHAIN_ORTHO_DEFECT, 2, 1)
        assert status.claimed_value == 14
        assert status.verdict == "confirmed"

    def test_para_defect_discrepancy_presented_not_silenced(self):
        status = check_defect_formula(Family.ORTHO_CHAIN_PARA_DEFECT, 1, 1)
        assert status.verdict == "refuted"
        assert status.claimed_value == 6  # the formula value stays as printed
        assert status.oracle_value == 7
        assert status.witness == (1, 1)
        assert status.corrected is not None
        assert any("no single index shift" in d for d in status.details)

    def test_para_defect_correction_reconciles_grid(self):
        for m, n in DEFECT_GRID:
            status = check_defect_formula(Family.ORTHO_CHAIN_PARA_DEFECT, m, n)
            assert status.verdict == "refuted"
            assert any("reconciles the formula" in d for d in status.details)

    def test_formula_values(self):
        assert defect_formula_value(Family.PARA_CHAIN_ORTHO_DEFECT, 1, 1) == 8
        assert defect_formula_value(Family.PARA_CHAIN_ORTHO_DEFECT, 2, 1) == 14
        assert defect_formula_value(Family.ORTHO_CHAIN_PARA_DEFECT, 1, 1) == 6
        assert defect_formula_value(Family.ORTHO_CHAIN_PARA_DEFECT, 2, 2) == 24
        with pytest.raises(ValueError, match="^defect parameters must be at least 1$"):
            defect_formula_value(Family.PARA_CHAIN_ORTHO_DEFECT, 0, 1)

    def test_formulas_at_far_arms(self):
        # the reference reads the states of the printed square systems off one
        # trajectory each, by position: (contains, avoids, extendable)
        arms = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(4097, 2), (2, 4096)]
        para = paper.paper_transfer_system(Family.SQUARE_PARA)
        ortho = paper.paper_transfer_system(Family.SQUARE_ORTHO)
        para_states = state_trajectory(para, 4098)
        ortho_states = state_trajectory(ortho, 4097)
        # index k is length k, and s(0) = 1
        q = [None] + [para.count(v) for v in para_states]
        avoids = [None] + [v[1] for v in para_states]
        s = [1] + [ortho.count(v) for v in ortho_states]
        contains = [None] + [v[0] for v in ortho_states]
        for m, n in arms:
            p_value = q[m] * avoids[n + 1] + q[n] * avoids[m + 1]
            s_value = s[m] * s[n] + 2 * s[m - 1] * s[n - 1]
            assert defect_formula_value(Family.PARA_CHAIN_ORTHO_DEFECT, m, n) == p_value, (m, n)
            assert defect_formula_value(Family.ORTHO_CHAIN_PARA_DEFECT, m, n) == s_value, (m, n)
            corrected = s_value + contains[m] * contains[n]
            assert verify.corrected_para_defect_value(m, n) == corrected, (m, n)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_non_defect_family(self, family):
        with pytest.raises(ValueError, match="no defect formula"):
            check_defect_formula(family, 1, 1)
        with pytest.raises(ValueError, match="no defect formula"):
            defect_formula_value(family, 1, 1)

    def test_ceiling(self):
        # no vertex ceiling: the (6,7) chain has 3(6 + 7 + 1) + 1 = 43
        # vertices, above the 40 the listing alone is bounded by, and is judged
        # on the built graph, whose count the corrected formula gives
        spec = ChainSpec(Family.ORTHO_CHAIN_PARA_DEFECT, m=6, n=7)
        assert expected_vertex_count(spec) == 43 > DEFAULT_MAX_VERTICES == 40
        status = check_defect_formula(Family.ORTHO_CHAIN_PARA_DEFECT, 6, 7)
        assert status.verdict == "refuted"
        assert status.oracle_value == count_ids(build_chain(spec).graph)
        assert status.oracle_value == verify.corrected_para_defect_value(6, 7)


def _spec_at(family, k):
    """The family's chain of length k, or its defect chain (k, 1)."""
    if family in LINEAR_FAMILIES:
        return ChainSpec(family, length=k)
    return ChainSpec(family, m=k, n=1)


@pytest.mark.parametrize(
    "family", LINEAR_FAMILIES + DEFECT_FAMILIES, ids=lambda f: f.value
)
def test_oracle_fit_is_the_dp_cap(family):
    # the DP's one bound is its frontier width, not the vertex count: the
    # chain a block longer than the longest of at most 40 vertices is built
    # with the vertices it expects and counted as the transfer route (or, for
    # a defect chain, the corrected formula) counts it
    k = max(k for k in range(1, 41) if expected_vertex_count(_spec_at(family, k)) <= 40)
    if family in LINEAR_FAMILIES:
        assert k == max_length_within(family, DEFAULT_MAX_VERTICES)
        expected = run_transfer(paper.paper_transfer_system(family), k + 1)
    elif family is Family.PARA_CHAIN_ORTHO_DEFECT:
        expected = defect_formula_value(family, k + 1, 1)
    else:
        expected = verify.corrected_para_defect_value(k + 1, 1)
    longer = _spec_at(family, k + 1)
    assert expected_vertex_count(longer) > DEFAULT_MAX_VERTICES
    chain = build_chain(longer)
    assert chain.graph.n_vertices == expected_vertex_count(longer)
    assert count_ids(chain.graph) == expected


def _records():
    """One instance of each record type of the package, by name."""
    spec = ChainSpec(Family.TRIANGULAR, length=2)
    chain = build_chain(spec)
    system = paper.paper_transfer_system(Family.TRIANGULAR)
    report = checked_through(Family.TRIANGULAR, 2)
    return {
        "Graph": chain.graph,
        "ChainSpec": spec,
        "LabeledChain": chain,
        "TransferSystem": system,
        "LinearRecurrence": paper.paper_recurrence(Family.TRIANGULAR),
        "Claim": report.statuses[0].claim,
        "ClaimStatus": report.statuses[0],
        "VerificationReport": report,
        "_Context": verify._Context(Family.TRIANGULAR, 1, system, []),
    }


@pytest.mark.parametrize("name", [
    "Graph", "ChainSpec", "LabeledChain", "TransferSystem", "LinearRecurrence",
    "Claim", "ClaimStatus", "VerificationReport", "_Context",
])
def test_records_refuse_attribute_assignment(name):
    record = _records()[name]
    assert type(record).__name__ == name
    # a field, and a new name: a record subclass without __slots__ would take it
    for attr in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)


def test_validating_records_check_replaced_fields():
    cases = [
        (ChainSpec(Family.TRIANGULAR, length=2), {"length": 0}),
        (paper.paper_transfer_system(Family.TRIANGULAR), {"initial_vector": (1,)}),
        (paper.paper_recurrence(Family.TRIANGULAR), {"coefficients": ()}),
    ]
    for record, change in cases:
        with pytest.raises(ValueError):
            record._replace(**change)


class TestReports:
    def test_empty_input(self):
        doc = json.loads(errata_report([], "json"))
        assert doc["claims"] == []
        assert doc["summary"] == {
            "confirmed": 0,
            "refuted": 0,
            "formal_only": 0,
            "unchecked": 0,
        }

    def test_confirmed_only_report(self):
        report = checked_through(Family.SQUARE_PARA, 4)
        text = errata_report([report], "markdown")
        assert "## Errata (0)" in text
        assert "No refuted claims." in text
        assert "sq-para-gf" in text

    def test_json_schema(self, full_run):
        doc = json.loads(errata_report(full_run, "json"))
        assert set(doc) == {"oracle_ceiling", "summary", "claims"}
        assert doc["oracle_ceiling"] == 26
        ids = [c["id"] for c in doc["claims"]]
        assert ids == sorted(ids)
        for claim in doc["claims"]:
            for key in (
                "id",
                "location",
                "quote",
                "verdict",
                "witness",
                "oracle_value",
                "claimed_value",
                "corrected",
            ):
                assert key in claim
        by_id = {c["id"]: c for c in doc["claims"]}
        assert by_id["s-defect-1-1"]["witness"] == [1, 1]
        assert by_id["tri-gf"]["verdict"] == "refuted"

    def test_markdown_lists_all_errata(self, full_run):
        text = errata_report(full_run, "markdown")
        assert "### tri-gf" in text
        assert "### hex-meta-gf" in text
        assert "### hex-para-gf" in text
        assert "### s-defect-1-1" in text

    def test_determinism(self, full_run):
        again = verify_all()
        assert errata_report(full_run, "json") == errata_report(again, "json")
        assert errata_report(full_run, "markdown") == errata_report(again, "markdown")

    def test_unknown_format(self, full_run):
        with pytest.raises(ValueError):
            errata_report(full_run, "xml")

    def test_report_summaries(self, full_run):
        total = {"confirmed": 0, "refuted": 0, "formal_only": 0, "unchecked": 0}
        for report in full_run:
            assert isinstance(report, VerificationReport)
            for key, value in report.summary().items():
                total[key] += value
        assert total["refuted"] == 17
        assert total["formal_only"] == 4
        assert total["unchecked"] == 0
        assert sum(total.values()) == len(all_claims())


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("cactusids"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def patched(monkeypatch):
    """monkeypatch, with every package cache emptied before and after, so a
    patched datum neither meets stale cached values nor leaks into other tests."""
    _clear_package_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_package_caches()


def steer_oracle(patched, family, steer):
    """Patch the one oracle-profile cache, where the audit and the derived
    series read it, so that the family's classes at length n are
    steer(counts, n) in every pass that reads length n."""
    profile = paper._oracle_profile

    def steered(f, n):
        passed = profile(f, n)
        if f is not family:
            return passed
        return tuple(steer(counts, k) for k, counts in enumerate(passed, 1))

    patched.setattr(paper, "_oracle_profile", steered)
    patched.setattr(verify, "_oracle_profile", steered)


class TestRendering:
    """Signed sums that only mutated data reaches: zero and negative terms."""

    def test_recurrence_with_zero_coefficients(self):
        rec = LinearRecurrence((0, 1), ((0, 2), (1, 3)), 3)
        assert render_recurrence(rec) == "a(n) = a(n-2) for n >= 3, with a(0) = 2, a(1) = 3"
        assert render_recurrence(rec._replace(coefficients=(0, 0))) == (
            "a(n) = 0 for n >= 3, with a(0) = 2, a(1) = 3"
        )

    def test_system_with_zero_row(self, patched):
        matrix, seeds = paper._SYSTEM_DATA[Family.SQUARE_PARA]
        patched.setitem(
            paper._SYSTEM_DATA, Family.SQUARE_PARA, (matrix[:2] + ((0, 0, 0),), seeds)
        )
        assert render_system(Family.SQUARE_PARA).endswith("; extendable(n+1) = 0")

    def test_system_with_negative_entry(self, patched):
        patched.setitem(paper._SYSTEM_DATA, Family.TRIANGULAR, (((-1, 1), (1, 1)), (1, 2)))
        assert render_system(Family.TRIANGULAR).startswith(
            "contains(n+1) = -contains(n) + avoids(n); "
        )


class TestRefutedBranches:
    """Branches no published claim reaches, driven by a patched datum."""

    def test_system_state_vector(self, patched):
        # contains(n+1) = avoids(n), avoids(n+1) = contains(n) + 2*avoids(n)
        patched.setitem(paper._SYSTEM_DATA, Family.TRIANGULAR, (((0, 1), (1, 2)), (1, 2)))
        by_id = status_map(checked_through(Family.TRIANGULAR, 4))
        status = by_id["tri-system"]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (
            2, "(2, 5)", "(2, 3)"
        )
        assert status.reference == "oracle"
        assert by_id["tri-state-seeds"].verdict == "confirmed"

    def test_system_two_states_with_extendable_sets(self, patched):
        # an oracle that finds one extendable set at every triangle chain's
        # terminal vertex; the two-state system claims there is none
        steer_oracle(
            patched, Family.TRIANGULAR, lambda counts, n: counts._replace(extendable_count=1)
        )
        report = checked_through(Family.TRIANGULAR, 4)
        status = status_map(report)["tri-system"]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (
            1, "extendable state absent", "1"
        )
        assert status.reference == "oracle"
        assert status.details == ("two-state system but extendable sets exist",)
        # the derived series read the same oracle: a third, extendable series
        assert derived_state_gfs(Family.TRIANGULAR)[2] == RationalGF(1, (1, -1))

    def test_recurrence_correction_that_reads_a0(self, patched):
        # an oracle whose para-square classes follow contains(n+1) =
        # 2*contains(n) + avoids(n): the derived recurrence holds from n = 3 =
        # its order, so its statement keeps a(0) = 0
        system = TransferSystem(((2, 1, 0), (0, 1, 1), (1, 0, 0)), (1, 1, 1), (1, 1, 0))
        states = state_trajectory(system, 8)
        steer_oracle(patched, Family.SQUARE_PARA, lambda counts, n: counts._make(states[n - 1]))
        report = cross_check_family(Family.SQUARE_PARA)
        status = status_map(report)["sq-para-recurrence"]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (2, 4, 5)
        assert status.corrected == (
            "a(n) = 3a(n-1) - 2a(n-2) + a(n-3) for n >= 3, with a(0) = 0, a(1) = 2, a(2) = 5"
        )
        assert status.details == ("corrected recurrence has order 3 and is valid from n >= 3",)

    def test_state_seeds(self, patched):
        patched.setitem(paper._SYSTEM_DATA, Family.TRIANGULAR, (((0, 1), (1, 1)), (1, 3)))
        status = status_map(checked_through(Family.TRIANGULAR, 4))[
            "tri-state-seeds"
        ]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (1, 3, 2)
        assert status.reference == "oracle"
        assert status.details == ("printed avoids(1) disagrees with the oracle",)

    @pytest.mark.parametrize("oracle_length, source", [(4, "oracle"), (2, "transfer")])
    def test_initial_term(self, patched, oracle_length, source):
        patched.setitem(
            paper._RECURRENCE_DATA,
            Family.HEX_PARA,
            ((6, -9, 6, -1), ((0, 4), (1, 5), (2, 19), (3, 75)), 4),
        )
        status = status_map(checked_through(Family.HEX_PARA, oracle_length))[
            "hex-para-initial-3"
        ]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (3, 75, 76)
        assert status.reference == source

    def test_gf_formal_seed_only(self, patched):
        # the printed series 1/(1 - 2x) stays right for n >= 1; only a(0) clashes
        patched.setitem(
            paper._RECURRENCE_DATA, Family.SQUARE_ORTHO, ((2,), ((0, 2),), 1)
        )
        status = status_map(checked_through(Family.SQUARE_ORTHO, 4))[
            "sq-ortho-gf"
        ]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (0, 1, 2)
        assert status.reference == "printed formal seed"

    # the hexagon has 5 independent dominating sets, 2 of them containing its terminal vertex
    @pytest.mark.parametrize("table, datum, claim_id, expected", [
        ("_PAPER_GF", ((1, 2, 1), (0, -3, -3)), "hex-ortho-gf", 5),
        ("_PAPER_STATE_GF",
         (((2, 2), (0, -3, -3)),) + paper._PAPER_STATE_GF[Family.HEX_ORTHO][1:],
         "hex-ortho-state-gf-contains", 2),
    ])
    def test_gf_without_power_series(self, patched, table, datum, claim_id, expected):
        # a denominator with constant term 0 has no power series to compare
        patched.setitem(getattr(paper, table), Family.HEX_ORTHO, datum)
        report = checked_through(Family.HEX_ORTHO, 3)
        status = status_map(report)[claim_id]
        assert status.verdict == "refuted"
        assert (
            status.witness, status.claimed_value, status.oracle_value, status.reference
        ) == (
            1, "no integer power series", expected, "oracle"
        )
        assert status.details[0] == "denominator constant term is 0, not 1: no integer series"
        assert status.corrected is not None
        doc = json.loads(errata_report([report], "json"))
        claimed = {c["id"]: c for c in doc["claims"]}[claim_id]["claimed_value"]
        assert claimed == "no integer power series"
        assert f"(claimed no integer power series, oracle {expected})" in errata_report(
            [report], "markdown"
        )

    def test_non_integer_gf_refuted_at_length_one(self, patched):
        # a denominator with constant term 2 expands to x/2 + ..., which counts no sets
        patched.setitem(paper._PAPER_GF, Family.TRIANGULAR, ((0, 1, 1), (2, -1, -1)))
        report = checked_through(Family.TRIANGULAR, 4)
        doc = json.loads(errata_report([report], "json"))
        status = {c["id"]: c for c in doc["claims"]}["tri-gf"]
        assert (status["verdict"], status["witness"], status["claimed_value"]) == (
            "refuted", 1, "no integer power series"
        )
        assert status["details"][0] == (
            "denominator constant term is 2, not 1: no integer series"
        )
        assert "(claimed no integer power series, oracle 3)" in errata_report(
            [report], "markdown"
        )

    def test_gf_that_leaves_the_integers_past_the_transfer_range(self, patched):
        # 1/(1 - 2x) + x^31/(2 - x): coefficients 0..30 are the true counts and
        # coefficient 31 is off by 1/2, one past SYMBOLIC_MAX, so only the
        # denominator's constant term 2 shows that this is no count series
        num = (2, -1) + (0,) * 29 + (1, -2)
        patched.setitem(paper._PAPER_GF, Family.SQUARE_ORTHO, (num, (2, -5, 2)))
        status = status_map(cross_check_family(Family.SQUARE_ORTHO))["sq-ortho-gf"]
        assert verify.SYMBOLIC_MAX == 30
        assert status.verdict == "refuted"
        assert (
            status.witness, status.claimed_value, status.oracle_value, status.reference
        ) == (
            1, "no integer power series", 2, "oracle"
        )
        assert status.details[0] == "denominator constant term is 2, not 1: no integer series"

    # each printed series is the true one plus x^j times its denominator
    # (j = 31 for the GF, 30 for the state series, whose coefficient n - 1 is
    # length n): off by one only at length 31, past SYMBOLIC_MAX, so only a
    # scan through max(deg P, deg Q) + k transfer states reaches it
    @pytest.mark.parametrize("table, family, datum, claim_id, witness", [
        ("_PAPER_GF", Family.SQUARE_ORTHO, ((1,) + (0,) * 30 + (1, -2), (1, -2)),
         "sq-ortho-gf", 31),
        ("_PAPER_STATE_GF", Family.HEX_ORTHO,
         (((2, 2) + (0,) * 28 + (1, -3, -3), (1, -3, -3)),)
         + paper._PAPER_STATE_GF[Family.HEX_ORTHO][1:],
         "hex-ortho-state-gf-contains", 31),
    ])
    def test_series_off_past_the_transfer_range(
        self, patched, table, family, datum, claim_id, witness
    ):
        patched.setitem(getattr(paper, table), family, datum)
        status = status_map(cross_check_family(family))[claim_id]
        assert verify.SYMBOLIC_MAX == 30
        assert status.verdict == "refuted"
        assert (status.witness, status.reference) == (witness, "transfer")
        assert status.claimed_value == status.oracle_value + 1

    def test_gamma(self, patched):
        formula, text = GAMMA_FORMULA[Family.TRIANGULAR]
        patched.setitem(
            GAMMA_FORMULA, Family.TRIANGULAR, (lambda n: formula(n) + (n == 3), text)
        )
        with audit_through(Family.TRIANGULAR, 5):
            status = check_gamma_formula(Family.TRIANGULAR)
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (3, 3, 2)
        assert status.reference == "oracle"

    def test_meta_identity_transfer_half(self, patched):
        # extendable(n+1) = contains(n) + avoids(n) instead of contains(n)
        patched.setitem(
            paper._SYSTEM_DATA,
            Family.HEX_META,
            (((1, 2, 1), (1, 2, 2), (1, 1, 0)), (2, 3, None)),
        )
        status = status_map(checked_through(Family.HEX_META, 3))[
            "hex-meta-extendable-identity"
        ]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (2, "2", "5")
        assert status.reference == "transfer"

    def test_meta_identity_oracle_half(self, patched):
        # the identity reads no transcribed datum on its oracle side, so the
        # oracle's boundary classes are patched: one extra extendable set at n = 3
        profile = verify._oracle_profile

        def shifted(family, n):
            passed = profile(family, n)
            if family is Family.HEX_META and n >= 3:
                counts = passed[2]
                counts = counts._replace(extendable_count=counts.extendable_count + 1)
                return passed[:2] + (counts,) + passed[3:]
            return passed

        patched.setattr(verify, "_oracle_profile", shifted)
        contains_2 = profile(Family.HEX_META, 2)[1].in_count
        extendable_3 = profile(Family.HEX_META, 3)[2].extendable_count + 1
        status = status_map(checked_through(Family.HEX_META, 3))[
            "hex-meta-extendable-identity"
        ]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (
            3, contains_2, extendable_3
        )
        assert status.reference == "oracle"

    def test_growth_rate(self, patched):
        # a(n) = 2a(n-1) grows like 2^n, not like the golden ratio
        patched.setitem(paper._RECURRENCE_DATA, Family.TRIANGULAR, ((2,), ((0, 1),), 1))
        status = status_map(checked_through(Family.TRIANGULAR, 4))["tri-growth-rate"]
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == (
            50, "(1+sqrt(5))/2", 2.0
        )
        assert status.reference == "characteristic root"

    def test_asymptotic_form_confirmed(self, patched):
        # an oracle that counts round(r^n/sqrt(5)) makes the printed form exact
        phi, sqrt5 = (1 + 5**0.5) / 2, 5**0.5

        def fibonacci_like(counts, n):
            return counts._replace(in_count=round(phi**n / sqrt5) - counts.out_count)

        steer_oracle(patched, Family.TRIANGULAR, fibonacci_like)
        status = status_map(checked_through(Family.TRIANGULAR, 12))["tri-asymptotic-form"]
        assert status.verdict == "confirmed"
        assert (status.witness, status.corrected) == (None, None)
        assert status.details == (
            "oracle/claimed ratio at n = 12 is 0.999990, tending to r^3 = 4.236068, not 1",
            "corrected closed form FAILED",
        )

    def test_defect_index_shift(self, patched):
        formula = verify.defect_formula_value
        patched.setattr(
            verify, "defect_formula_value", lambda family, m, n: formula(family, m + 1, n)
        )
        status = check_defect_formula(Family.PARA_CHAIN_ORTHO_DEFECT, 2, 1)
        assert status.verdict == "refuted"
        assert (status.witness, status.reference) == ((2, 1), "oracle")
        chain = build_chain(ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, m=2, n=1))
        assert status.oracle_value == count_ids(chain.graph) != status.claimed_value
        assert status.details == (
            "index shift(s) (1,1) would reconcile the formula (possible transcription slip)",
        )

    @pytest.mark.parametrize("m, n", [(2, 5), (3, 3)])
    def test_defect_shift_in_one_index_or_both_ways(self, m, n):
        # no audit point reaches these shifts: the oracle here is the formula
        # at (2, 4)'s neighbour (m, n), whose value no other neighbour shares
        family = Family.PARA_CHAIN_ORTHO_DEFECT
        formula, oracle = defect_formula_value(family, 2, 4), defect_formula_value(family, m, n)
        assert verify._defect_correction(family, 2, 4, formula, oracle) == (None, [
            f"index shift(s) ({m},{n}) would reconcile the formula"
            " (possible transcription slip)"
        ])

    def test_para_defect_correction_that_does_not_reconcile(self, patched):
        corrected = verify.corrected_para_defect_value
        patched.setattr(
            verify, "corrected_para_defect_value", lambda m, n: corrected(m, n) + 1
        )
        status = check_defect_formula(Family.ORTHO_CHAIN_PARA_DEFECT, 1, 2)
        assert status.verdict == "refuted"
        assert (status.witness, status.claimed_value, status.oracle_value) == ((1, 2), 12, 14)
        assert status.corrected is None
        assert status.details == (
            "no single index shift (m+-1, n+-1) reconciles the formula",
            "boundary-class correction attempt did not reconcile",
        )


def _int_paths(value, path=()):
    """The paths to every int inside a nested tuple; a None is skipped."""
    if isinstance(value, int):
        yield path
    elif value is not None:
        for i, item in enumerate(value):
            yield from _int_paths(item, path + (i,))


def _moved(value, path, delta):
    """A copy of a nested tuple with the int at path moved by delta."""
    if not path:
        return value + delta
    i = path[0]
    return value[:i] + (_moved(value[i], path[1:], delta),) + value[i + 1:]


def _transcription_mutants():
    """(table name, family, path, claim id) for every printed integer behind
    a judged claim: the state-system entries and printed seeds, the GF and
    state-GF coefficients, and the recurrence coefficients and term values;
    indices and valid_from are left alone."""
    for family, (matrix, seeds) in paper._SYSTEM_DATA.items():
        for path in _int_paths(matrix):
            yield "_SYSTEM_DATA", family, (0, *path), f"{family.value}-system"
        for path in _int_paths(seeds):
            yield "_SYSTEM_DATA", family, (1, *path), f"{family.value}-state-seeds"
    for family, entry in paper._PAPER_GF.items():
        for path in _int_paths(entry):
            yield "_PAPER_GF", family, path, f"{family.value}-gf"
    for family, entry in paper._PAPER_STATE_GF.items():
        for path in _int_paths(entry):
            short = verify._STATE_SHORT[path[0]]
            yield "_PAPER_STATE_GF", family, path, f"{family.value}-state-gf-{short}"
    for family, (coefficients, terms, _) in paper._RECURRENCE_DATA.items():
        for j in range(len(coefficients)):
            yield "_RECURRENCE_DATA", family, (0, j), f"{family.value}-recurrence"
        for j, (idx, _) in enumerate(terms):
            # a formal a(0) is judged through the recurrence it seeds
            suffix = "recurrence" if idx == 0 else f"initial-{idx}"
            yield "_RECURRENCE_DATA", family, (1, j, 1), f"{family.value}-{suffix}"


# the one mutant that turns a refuted claim into a confirmed one: tri's
# contains-state numerator x -> 1 + x is the true contains series
_MUTANTS_THAT_CORRECT = {("_PAPER_STATE_GF", Family.TRIANGULAR, (0, 0, 0), 1)}


# the caches that read a transcription, and the derived series, which must
# not: a mutant that reached them would show; the oracle caches read the graph
_TRANSCRIPTION_CACHES = (
    verify._registry,
    paper.paper_transfer_system,
    paper.derived_gf,
    paper.derived_state_gfs,
    paper.derived_recurrence,
)


def test_every_printed_integer_moved_by_one_is_caught(patched):
    baseline = {
        family: {s.claim.id: s.verdict for s in cross_check_family(family).statuses}
        for family in LINEAR_FAMILIES
    }
    problems, mutants = [], 0
    for table, family, path, claim_id in _transcription_mutants():
        data = getattr(paper, table)
        original = data[family]
        for delta in (1, -1):
            mutated = _moved(original, path, delta)
            mutants += 1
            patched.setitem(data, family, mutated)
            for cache in _TRANSCRIPTION_CACHES:
                cache.cache_clear()
            case = (table, family, path, delta)
            try:
                report = cross_check_family(family)
                errata_report([report], "json")
                errata_report([report], "markdown")
            except Exception as error:  # every raise is a finding, reported below
                problems.append((case, repr(error)))
                continue
            verdict = status_map(report)[claim_id].verdict
            expected = "confirmed" if case in _MUTANTS_THAT_CORRECT else "refuted"
            if verdict != expected:
                problems.append((case, claim_id, baseline[family][claim_id], verdict))
        patched.setitem(data, family, original)
    for cache in _TRANSCRIPTION_CACHES:
        cache.cache_clear()
    assert mutants == 438  # a system entry moved from 0 to -1 included
    assert problems == []


def _rendered(report):
    """The report, after rendering it both ways: a mutant may not raise there."""
    errata_report([report], "json")
    errata_report([report], "markdown")
    return report


def test_every_gamma_value_moved_by_one_is_caught(patched):
    mutants = 0
    for family, (formula, text) in list(GAMMA_FORMULA.items()):
        for n in range(1, max_length_within(family, verify.AUDIT_CEILING) + 1):
            for delta in (1, -1):
                mutants += 1
                moved = (lambda k, f=formula, n=n, d=delta: f(k) + d * (k == n), text)
                patched.setitem(GAMMA_FORMULA, family, moved)
                status = status_map(_rendered(cross_check_family(family)))[
                    f"{family.value}-gamma"
                ]
                assert (status.verdict, status.witness) == ("refuted", n)
                assert status.claimed_value == formula(n) + delta
                assert check_gamma_formula(family) == status
        patched.setitem(GAMMA_FORMULA, family, (formula, text))
    assert mutants == 44  # tri through n = 12, the hexagon chains through 5


# the one defect mutant that reaches the oracle: s(1,1) = 6 + 1 is its 7
_DEFECT_MUTANTS_THAT_CORRECT = {(Family.ORTHO_CHAIN_PARA_DEFECT, (1, 1), 1)}


def test_every_defect_value_moved_by_one_is_caught(patched):
    original, mutants = verify.defect_formula_value, 0
    for family in DEFECT_FAMILIES:
        for point in DEFECT_GRID:
            for delta in (1, -1):
                mutants += 1

                def moved(f, m, n, family=family, point=point, delta=delta):
                    return original(f, m, n) + delta * ((f, (m, n)) == (family, point))

                patched.setattr(verify, "defect_formula_value", moved)
                report = _rendered(verify.check_defect_grid())
                status = status_map(report)[f"{family.value}-{point[0]}-{point[1]}"]
                assert status.claimed_value == original(family, *point) + delta
                if (family, point, delta) in _DEFECT_MUTANTS_THAT_CORRECT:
                    assert status.verdict == "confirmed"
                else:
                    assert (status.verdict, status.witness) == ("refuted", point)
    assert mutants == 16


def test_square_system_slips_leave_the_defect_grid_alone(patched):
    baseline = {s.claim.id: s.verdict for s in verify.check_defect_grid().statuses}
    moved, mutants = [], 0
    for table, family, path, _ in _transcription_mutants():
        if table != "_SYSTEM_DATA" or family not in (Family.SQUARE_PARA, Family.SQUARE_ORTHO):
            continue
        original = paper._SYSTEM_DATA[family]
        for delta in (1, -1):
            mutants += 1
            patched.setitem(paper._SYSTEM_DATA, family, _moved(original, path, delta))
            for cache in _TRANSCRIPTION_CACHES:
                cache.cache_clear()
            verdicts = {s.claim.id: s.verdict for s in verify.check_defect_grid().statuses}
            if verdicts != baseline:
                moved.append((family, path, delta))
        patched.setitem(paper._SYSTEM_DATA, family, original)
    for cache in _TRANSCRIPTION_CACHES:
        cache.cache_clear()
    assert mutants == 46
    assert moved == []


class TestOneReferencePass:
    """Each family's transfer references are read off one trajectory."""

    def test_terms_past_the_range_read_the_trajectory(self, patched):
        def no_gf(system):
            raise AssertionError("transfer count by run_transfer")

        # every far transfer term, a count or one state's count under its unit
        # weights and from any module, reads the one state trajectory, never
        # transfer_gf, the GF that run_transfer reads
        patched.setattr(recurrences, "transfer_gf", no_gf)
        patched.setattr(verify, "AUDIT_CEILING", 16)
        reports = {family: cross_check_family(family) for family in LINEAR_FAMILIES}
        # hex-para's formal seed a(0) is judged at n = 4, past the oracle's n = 3
        status = status_map(reports[Family.HEX_PARA])["hex-para-initial-0"]
        assert status.verdict == "formal-only"
        assert "a(4) = 311 vs transfer 309" in status.details[0]
