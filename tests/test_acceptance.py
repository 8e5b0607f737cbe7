"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time

import pytest

from cactusids.chains import ChainSpec, Family, build_chain
from cactusids.cli import main as cli_main
from cactusids.genfunc import solve_gf_system, dominant_growth_rate
from cactusids.graphs import (
    Graph,
    _scan_counts,
    count_ids,
    independent_domination_number,
)
from cactusids.paper import (
    derived_gf,
    paper_gf,
    paper_gf_system,
    paper_recurrence,
    paper_state_gfs,
    paper_transfer_system,
)
from cactusids.recurrences import (
    LinearRecurrence,
    eval_recurrence,
    gf_from_recurrence,
    recurrence_from_gf,
    run_transfer,
)
from cactusids.verify import (
    check_defect_formula,
    max_length_within,
    verify_all,
)
from reference import is_isomorphic, pivot_states

PHI = (1 + math.sqrt(5)) / 2


def _report(line: str) -> None:
    print(line, flush=True)


def oracle_count(family: Family, n: int) -> int:
    """The oracle's count of the built length-n chain."""
    return count_ids(build_chain(ChainSpec(family, length=n)).graph)


@pytest.fixture(scope="module")
def full_verify():
    return {s.claim.id: s for r in verify_all() for s in r.statuses}


def test_criterion_1_oracle_transfer_equivalence():
    ranges = {
        Family.TRIANGULAR: 10,
        Family.SQUARE_PARA: 8,
        Family.SQUARE_ORTHO: 8,
        Family.HEX_ORTHO: 4,
        Family.HEX_META: 4,
        Family.HEX_PARA: 4,
    }
    start = time.monotonic()
    try:
        for family, top in ranges.items():
            system = paper_transfer_system(family)
            for n in range(1, top + 1):
                chain = build_chain(ChainSpec(family, length=n))
                assert count_ids(chain.graph) == run_transfer(system, n), (family, n)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"criterion allows 60 s, took {elapsed:.1f}"
    except AssertionError:
        _report("FAIL criterion 1: oracle/transfer equivalence")
        raise
    _report(f"PASS criterion 1: oracle == transfer on all stated ranges ({elapsed:.1f}s)")


def test_criterion_2_published_number_reproduction():
    try:
        assert oracle_count(Family.TRIANGULAR, 1) == 3
        assert [oracle_count(Family.SQUARE_PARA, n) for n in (1, 2, 3)] == [2, 4, 7]
        for n in range(1, 7):
            assert oracle_count(Family.SQUARE_ORTHO, n) == 2**n
        assert oracle_count(Family.HEX_ORTHO, 1) == 5
        assert oracle_count(Family.HEX_ORTHO, 2) == 19
        for n in range(1, 11):
            chain = build_chain(ChainSpec(Family.TRIANGULAR, length=n))
            assert independent_domination_number(chain.graph) == (n + 1) // 2, n
        for family in (Family.HEX_ORTHO, Family.HEX_META):
            for n in range(1, 5):
                chain = build_chain(ChainSpec(family, length=n))
                assert independent_domination_number(chain.graph) == math.ceil(3 * n / 2)
    except AssertionError:
        _report("FAIL criterion 2: published-number reproduction")
        raise
    _report("PASS criterion 2: all published numbers reproduced exactly")


def test_criterion_3_self_consistent_gfs():
    try:
        for family in (Family.SQUARE_PARA, Family.SQUARE_ORTHO, Family.HEX_ORTHO):
            limit = max_length_within(family, 26)
            series = paper_gf(family).series(limit)
            for n in range(1, limit + 1):
                assert series[n] == oracle_count(family, n), (family, n)
    except AssertionError:
        _report("FAIL criterion 3: self-consistent generating functions")
        raise
    _report("PASS criterion 3: printed Q/S/O expansions match the oracle exactly")


def test_criterion_4_errata_detection(full_verify, capsys):
    try:
        tri = full_verify["tri-gf"]
        assert tri.verdict == "refuted"
        assert (tri.witness, tri.claimed_value, tri.oracle_value) == (1, 1, 3)

        meta = full_verify["hex-meta-gf"]
        assert meta.verdict == "refuted"
        assert (meta.witness, meta.claimed_value, meta.oracle_value) == (1, 2, 5)

        para = full_verify["hex-para-gf"]
        assert para.verdict == "refuted"
        assert any("constant term 1" in d and "a(0) = 4" in d for d in para.details)

        for family in (Family.TRIANGULAR, Family.HEX_META, Family.HEX_PARA):
            limit = max_length_within(family, 26)
            corrected = derived_gf(family).series(limit)
            for n in range(1, limit + 1):
                assert corrected[n] == oracle_count(family, n), (family, n)

        code = cli_main(["verify", "--report", "json"])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["summary"]["refuted"] >= 3
    except AssertionError:
        _report("FAIL criterion 4: errata detection")
        raise
    _report(
        "PASS criterion 4: T/M/L refuted with stated witnesses, corrections "
        "verified, verify exits 3"
    )


def test_criterion_5_fibonacci_asymptotic():
    try:
        rec = paper_recurrence(Family.TRIANGULAR)
        estimate = dominant_growth_rate(rec)
        assert abs(estimate.dominant_root - PHI) <= 1e-9 * PHI
        ratio = eval_recurrence(rec, 51) / eval_recurrence(rec, 50)
        assert abs(ratio - PHI) <= 1e-9 * PHI
        assert abs(estimate.empirical_ratio - PHI) <= 1e-9 * PHI
    except AssertionError:
        _report("FAIL criterion 5: Fibonacci asymptotic")
        raise
    _report("PASS criterion 5: dominant root and a(51)/a(50) within 1e-9 of (1+sqrt 5)/2")


def test_criterion_6_defect_formulas(full_verify):
    try:
        p11 = check_defect_formula(Family.PARA_CHAIN_ORTHO_DEFECT, 1, 1)
        assert p11.claimed_value == 8 and p11.oracle_value == 8
        chain_p11 = build_chain(ChainSpec(Family.PARA_CHAIN_ORTHO_DEFECT, m=1, n=1))
        chain_s3 = build_chain(ChainSpec(Family.SQUARE_ORTHO, length=3))
        assert is_isomorphic(chain_p11.graph, chain_s3.graph)
        assert count_ids(chain_s3.graph) == 8 == run_transfer(
            paper_transfer_system(Family.SQUARE_ORTHO), 3
        )

        for family in (Family.PARA_CHAIN_ORTHO_DEFECT, Family.ORTHO_CHAIN_PARA_DEFECT):
            for m in (1, 2):
                for n in (1, 2):
                    status = full_verify[f"{family.value}-{m}-{n}"]
                    assert status.verdict in ("confirmed", "refuted")
                    assert status.witness == (m, n)
                    assert status.claimed_value is not None
                    assert status.oracle_value is not None

        s11 = full_verify["s-defect-1-1"]
        assert s11.verdict == "refuted"
        assert (s11.claimed_value, s11.oracle_value) == (6, 7)
    except AssertionError:
        _report("FAIL criterion 6: defect formulas")
        raise
    _report(
        "PASS criterion 6: p(1,1) = 8 by formula, oracle and isomorphism; "
        "grid verdicts recorded; s(1,1) discrepancy 6 vs 7 presented"
    )


def test_criterion_7_symbolic_pipeline():
    try:
        avoids, contains = solve_gf_system(*paper_gf_system(Family.TRIANGULAR)[:2])
        printed_contains, printed_avoids = paper_state_gfs(Family.TRIANGULAR)
        assert contains == printed_contains
        assert avoids == printed_avoids
        solution = solve_gf_system(*paper_gf_system(Family.SQUARE_PARA)[:2])
        assert tuple(solution) == paper_state_gfs(Family.SQUARE_PARA)
    except AssertionError:
        _report("FAIL criterion 7: symbolic pipeline")
        raise
    _report("PASS criterion 7: solved systems reproduce the printed per-state series")


def test_criterion_8_property_suites():
    try:
        rng = random.Random(77)
        exact = 0
        attempts = 0
        while exact < 100:
            attempts += 1
            assert attempts < 3000
            order = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-4, 4) for _ in range(order))
            if coeffs[-1] == 0:
                continue
            initials = tuple((i, rng.randint(-9, 9)) for i in range(1, order + 1))
            rec = LinearRecurrence(coeffs, initials, order + 1)
            gf = gf_from_recurrence(rec)
            series = gf.series(12)
            assert all(series[n] == eval_recurrence(rec, n) for n in range(1, 13))
            if gf.denominator.degree != order:
                continue
            assert recurrence_from_gf(gf).coefficients == coeffs
            exact += 1

        agreements = 0
        for _ in range(50):
            n = rng.randint(4, 18)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            g = Graph.from_edges(n, edges)
            assert _scan_counts(g) == pivot_states(g)
            agreements += 1
        assert agreements == 50

        for n in (1, 2):
            hexes = [
                build_chain(ChainSpec(f, length=n)).graph
                for f in (Family.HEX_ORTHO, Family.HEX_META, Family.HEX_PARA)
            ]
            assert is_isomorphic(hexes[0], hexes[1])
            assert is_isomorphic(hexes[1], hexes[2])
            assert len({count_ids(g) for g in hexes}) == 1
            squares = [
                build_chain(ChainSpec(f, length=n)).graph
                for f in (Family.SQUARE_PARA, Family.SQUARE_ORTHO)
            ]
            assert is_isomorphic(squares[0], squares[1])
    except AssertionError:
        _report("FAIL criterion 8: property suites")
        raise
    _report(
        "PASS criterion 8: 100 recurrence round-trips, 50 dual-oracle "
        "agreements, isomorphism collapse at short lengths"
    )
