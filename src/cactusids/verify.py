"""Cross-checking engine: oracle vs transfer systems vs recurrences vs GFs.

Every quantitative statement bundled with the package (generating functions,
per-state series, state systems and seeds, closed recurrences, printed
initial terms, domination-number formulas, defect-composition formulas, the
Fibonacci asymptotic) is registered as a claim with a stable id. Checks
compare each claim against the most trusted available source, in the order

    brute-force oracle > transfer system > closed recurrence > printed GF,

and every mismatch is reported with its smallest witness; nothing is
silently reconciled. Refuted claims carry a corrected statement derived from
the transfer system.

Formal index-0 seeds correspond to no graph: they get verdict "formal-only"
and are checked only for arithmetic consistency with the recurrence they
seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

from .chains import (
    ChainSpec,
    Family,
    LINEAR_FAMILIES,
    build_chain,
    expected_vertex_count,
)
from .genfunc import (
    derived_gf,
    derived_recurrence,
    derived_state_gfs,
    dominant_growth_rate,
    gf_coefficients,
    paper_gf,
    paper_state_gfs,
)
from .graphs import (
    DEFAULT_MAX_VERTICES,
    BoundaryCounts,
    OracleLimitError,
    count_boundary_classes,
    independent_domination_number,
)
from .polynomials import format_gf
from .recurrences import (
    STATE_AVOIDS,
    STATE_CONTAINS,
    LinearRecurrence,
    eval_recurrence,
    paper_recurrence,
    paper_transfer_system,
    run_transfer,
    state_trajectory,
    transfer_state,
)

DEFAULT_ORACLE_CEILING = 26
DEFAULT_SYMBOLIC_MAX = 30

CONFIRMED = "confirmed"
REFUTED = "refuted"
FORMAL_ONLY = "formal-only"
UNCHECKED = "unchecked"

Witness = Union[int, tuple[int, int], None]

_STATE_SHORT = ("contains", "avoids", "extendable")

_FAMILY_TITLE = {
    Family.TRIANGULAR: "triangular chains",
    Family.SQUARE_PARA: "para-chains of squares",
    Family.SQUARE_ORTHO: "ortho-chains of squares",
    Family.HEX_ORTHO: "ortho-chains of hexagons",
    Family.HEX_META: "meta-chains of hexagons",
    Family.HEX_PARA: "para-chains of hexagons",
}


@dataclass(frozen=True)
class Claim:
    """One registered quantitative statement with a stable id."""

    id: str
    family: Optional[Family]
    kind: str  # gf | recurrence | initial-term | gamma-formula | defect-formula | asymptotic
    location: str
    statement: str


@dataclass
class ClaimStatus:
    """Verdict for one claim, with witness and evidence where applicable."""

    claim: Claim
    verdict: str
    witness: Witness = None
    claimed_value: Union[int, float, str, None] = None
    oracle_value: Union[int, float, str, None] = None
    reference: Optional[str] = None  # which trusted source the values came from
    corrected: Optional[str] = None
    details: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        witness: Union[int, list, None]
        if isinstance(self.witness, tuple):
            witness = list(self.witness)
        else:
            witness = self.witness
        return {
            "id": self.claim.id,
            "family": self.claim.family.value if self.claim.family else None,
            "kind": self.claim.kind,
            "location": self.claim.location,
            "quote": self.claim.statement,
            "verdict": self.verdict,
            "witness": witness,
            "oracle_value": self.oracle_value,
            "claimed_value": self.claimed_value,
            "reference": self.reference,
            "corrected": self.corrected,
            "details": list(self.details),
        }


@dataclass
class VerificationReport:
    """Statuses for one verification scope (a family, or the defect grid)."""

    scope: str
    oracle_ceiling: int
    n_max_symbolic: int
    statuses: list[ClaimStatus] = field(default_factory=list)

    def summary(self) -> dict:
        out = {"confirmed": 0, "refuted": 0, "formal_only": 0, "unchecked": 0}
        for status in self.statuses:
            out[status.verdict.replace("-", "_")] += 1
        return out

    def refuted(self) -> list[ClaimStatus]:
        return [s for s in self.statuses if s.verdict == REFUTED]


# -- statement rendering -----------------------------------------------------


def _seq_term(coeff: int, lag: int, first: bool) -> str:
    mag = abs(coeff)
    body = f"a(n-{lag})" if mag == 1 else f"{mag}a(n-{lag})"
    if first:
        return body if coeff > 0 else f"-{body}"
    return f"+ {body}" if coeff > 0 else f"- {body}"


def render_recurrence(rec: LinearRecurrence, with_initials: bool = True) -> str:
    terms = [
        _seq_term(c, i + 1, i == 0)
        for i, c in enumerate(rec.coefficients)
        if c != 0
    ]
    text = f"a(n) = {' '.join(terms)} for n >= {rec.valid_from}"
    if with_initials and rec.initial_terms:
        seeds = ", ".join(f"a({i}) = {v}" for i, v in sorted(rec.initial_terms))
        text += f", with {seeds}"
    return text


def render_system(family: Family) -> str:
    ts = paper_transfer_system(family)
    short = _STATE_SHORT[: len(ts.state_names)]
    eqs = []
    for i, row in enumerate(ts.update_matrix):
        terms = []
        for j, c in enumerate(row):
            if c == 0:
                continue
            body = f"{short[j]}(n)" if c == 1 else f"{c}*{short[j]}(n)"
            terms.append(body)
        eqs.append(f"{short[i]}(n+1) = {' + '.join(terms)}")
    return "; ".join(eqs)


def _printed_seed_text(family: Family) -> str:
    ts = paper_transfer_system(family)
    printed = _printed_seed_flags(family)
    parts = [
        f"{_STATE_SHORT[i]}(1) = {v}"
        for i, (v, is_printed) in enumerate(zip(ts.initial_vector, printed))
        if is_printed
    ]
    return ", ".join(parts)


def _printed_seed_flags(family: Family) -> tuple[bool, ...]:
    # the extendable seed is never printed for the 3-state families except
    # the para-square chain, whose three seeds are all stated
    ts = paper_transfer_system(family)
    if len(ts.state_names) == 2 or family is Family.SQUARE_PARA:
        return tuple(True for _ in ts.state_names)
    return (True, True, False)


# -- claim registry ----------------------------------------------------------


_GAMMA_FAMILIES = (Family.TRIANGULAR, Family.HEX_ORTHO, Family.HEX_META)


def _gamma_formula(family: Family, n: int) -> int:
    if family is Family.TRIANGULAR:
        return (n + 1) // 2
    return math.ceil(3 * n / 2)


def _gamma_formula_text(family: Family) -> str:
    if family is Family.TRIANGULAR:
        return "gamma_i(length n) = floor((n+1)/2)"
    return "gamma_i(length n) = ceil(3n/2)"


@lru_cache(maxsize=None)
def claims_for_family(family: Family) -> tuple[Claim, ...]:
    if family not in LINEAR_FAMILIES:
        raise ValueError(f"{family.value} has no per-family claims")
    key = family.value
    title = _FAMILY_TITLE[family]
    claims: list[Claim] = []

    claims.append(
        Claim(
            id=f"{key}-gf",
            family=family,
            kind="gf",
            location=f"{title}: published generating function",
            statement=f"G(x) = {format_gf(paper_gf(family))}; "
            "coefficient n is the count at length n",
        )
    )
    states = paper_state_gfs(family)
    if states is not None:
        for i, gf in enumerate(states):
            short = _STATE_SHORT[i]
            claims.append(
                Claim(
                    id=f"{key}-state-gf-{short}",
                    family=family,
                    kind="gf",
                    location=f"{title}: solved series for the {short} state",
                    statement=f"{short} series = {format_gf(gf)}; "
                    "coefficient k is the state count at length k+1",
                )
            )
    claims.append(
        Claim(
            id=f"{key}-system",
            family=family,
            kind="recurrence",
            location=f"{title}: state recurrence system",
            statement=render_system(family),
        )
    )
    claims.append(
        Claim(
            id=f"{key}-state-seeds",
            family=family,
            kind="initial-term",
            location=f"{title}: stated length-1 state counts",
            statement=_printed_seed_text(family),
        )
    )
    rec = paper_recurrence(family)
    claims.append(
        Claim(
            id=f"{key}-recurrence",
            family=family,
            kind="recurrence",
            location=f"{title}: published closed recurrence",
            statement=render_recurrence(rec),
        )
    )
    for idx, value in sorted(rec.initial_terms):
        formal = idx in rec.formal_indices
        suffix = " (formal seed, no graph)" if formal else ""
        claims.append(
            Claim(
                id=f"{key}-initial-{idx}",
                family=family,
                kind="initial-term",
                location=f"{title}: stated initial term at index {idx}",
                statement=f"a({idx}) = {value}{suffix}",
            )
        )
    if family in _GAMMA_FAMILIES:
        claims.append(
            Claim(
                id=f"{key}-gamma",
                family=family,
                kind="gamma-formula",
                location=f"{title}: independence domination number",
                statement=_gamma_formula_text(family),
            )
        )
    if family is Family.HEX_META:
        claims.append(
            Claim(
                id=f"{key}-extendable-identity",
                family=family,
                kind="recurrence",
                location=f"{title}: extendable-state identity",
                statement="extendable(n) = contains(n-1) for n >= 2",
            )
        )
    if family is Family.TRIANGULAR:
        claims.append(
            Claim(
                id=f"{key}-growth-rate",
                family=family,
                kind="asymptotic",
                location=f"{title}: Fibonacci growth rate",
                statement="counts grow like r^n with r = (1+sqrt(5))/2",
            )
        )
        claims.append(
            Claim(
                id=f"{key}-asymptotic-form",
                family=family,
                kind="asymptotic",
                location=f"{title}: closed approximation",
                statement="a(n) is approximately r^n/sqrt(5), r = (1+sqrt(5))/2",
            )
        )
    return tuple(claims)


def defect_claim(kind: str, m: int, n: int) -> Claim:
    if kind == "ortho-defect":
        return Claim(
            id=f"p-defect-{m}-{n}",
            family=Family.PARA_CHAIN_ORTHO_DEFECT,
            kind="defect-formula",
            location="square-chain defect examples: ortho defect in a para-chain",
            statement=(
                f"p({m},{n}) = q(m)*avoids(n+1) + q(n)*avoids(m+1), with q and "
                "avoids taken from the para-square system"
            ),
        )
    if kind == "para-defect":
        return Claim(
            id=f"s-defect-{m}-{n}",
            family=Family.ORTHO_CHAIN_PARA_DEFECT,
            kind="defect-formula",
            location="square-chain defect examples: para defect in an ortho-chain",
            statement=(
                f"s({m},{n}) = s(m)*s(n) + 2*s(m-1)*s(n-1), with s(k) the "
                "ortho-square counts and s(0) = 1"
            ),
        )
    raise ValueError(f"unknown defect kind {kind!r}")


DEFECT_GRID = ((1, 1), (1, 2), (2, 1), (2, 2))


def all_claims(defect_grid: Sequence[tuple[int, int]] = DEFECT_GRID) -> tuple[Claim, ...]:
    claims: list[Claim] = []
    for family in LINEAR_FAMILIES:
        claims.extend(claims_for_family(family))
    for kind in ("ortho-defect", "para-defect"):
        for m, n in defect_grid:
            claims.append(defect_claim(kind, m, n))
    return tuple(claims)


# -- oracle access with caching ---------------------------------------------


def max_length_within(family: Family, ceiling_vertices: int) -> int:
    """Largest chain length whose vertex count fits under the ceiling."""
    cycle = expected_vertex_count(ChainSpec(family, length=1))
    per_block = cycle - 1
    n = (ceiling_vertices - cycle) // per_block + 1
    return max(n, 0)


@lru_cache(maxsize=None)
def _oracle_profile(family: Family, n: int) -> BoundaryCounts:
    chain = build_chain(ChainSpec(family, length=n))
    return count_boundary_classes(chain.graph, chain.terminal_vertex)


def oracle_count(family: Family, n: int) -> int:
    profile = _oracle_profile(family, n)
    return profile.in_count + profile.out_count


@lru_cache(maxsize=None)
def _oracle_gamma(family: Family, n: int) -> int:
    chain = build_chain(ChainSpec(family, length=n))
    return independent_domination_number(chain.graph)


@lru_cache(maxsize=None)
def _oracle_defect_count(family: Family, m: int, n: int) -> int:
    from .graphs import count_ids

    chain = build_chain(ChainSpec(family, m=m, n=n))
    return count_ids(chain.graph)


# -- per-claim checkers ------------------------------------------------------


def _claim_by_id(family: Family, claim_id: str) -> Claim:
    for claim in claims_for_family(family):
        if claim.id == claim_id:
            return claim
    raise KeyError(claim_id)


def _reference(family: Family, n: int, n_max_oracle: int) -> tuple[int, str]:
    if n <= n_max_oracle:
        return oracle_count(family, n), "oracle"
    return run_transfer(paper_transfer_system(family), n), "transfer"


def _formal_seed(family: Family) -> Optional[int]:
    rec = paper_recurrence(family)
    for idx, value in rec.initial_terms:
        if idx == 0 and idx in rec.formal_indices:
            return value
    return None


def _check_family_gf(family, key, n_max_oracle, n_max_symbolic) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-gf")
    series = gf_coefficients(paper_gf(family), n_max_symbolic)
    details: list[str] = []

    formal = _formal_seed(family)
    formal_mismatch = None
    if formal is None:
        details.append(
            f"no printed length-0 value; constant term {series[0]} is formal only"
        )
    elif series[0] == formal:
        details.append(f"constant term {series[0]} matches the printed formal seed a(0) = {formal}")
    else:
        formal_mismatch = (series[0], formal)
        details.append(
            f"constant term {series[0]} contradicts the printed formal seed a(0) = {formal}"
        )

    first_physical = None
    for n in range(1, n_max_symbolic + 1):
        ref, source = _reference(family, n, n_max_oracle)
        if series[n] != ref:
            first_physical = (n, series[n], ref, source)
            break
    if first_physical is None and formal_mismatch is None:
        details.append(
            f"expansion matches brute force for n = 1..{n_max_oracle} "
            f"and the transfer system through n = {n_max_symbolic}"
        )
        return ClaimStatus(claim, CONFIRMED, details=tuple(details))

    corrected_gf = derived_gf(family)
    corrected = format_gf(corrected_gf)
    corr_series = gf_coefficients(corrected_gf, n_max_oracle)
    ok = all(corr_series[n] == oracle_count(family, n) for n in range(1, n_max_oracle + 1))
    details.append(
        f"corrected expansion matches brute force for n = 1..{n_max_oracle}"
        if ok
        else "corrected expansion FAILED to match brute force (artifact bug)"
    )
    if first_physical is not None:
        n, claimed, ref, source = first_physical
        return ClaimStatus(
            claim,
            REFUTED,
            witness=n,
            claimed_value=claimed,
            oracle_value=ref,
            reference=source,
            corrected=corrected,
            details=tuple(details),
        )
    claimed0, formal_value = formal_mismatch
    return ClaimStatus(
        claim,
        REFUTED,
        witness=0,
        claimed_value=claimed0,
        oracle_value=formal_value,
        reference="printed formal seed",
        corrected=corrected,
        details=tuple(details),
    )


def _check_state_gfs(family, key, n_max_oracle, n_max_symbolic) -> list[ClaimStatus]:
    printed = paper_state_gfs(family)
    if printed is None:
        return []
    traj = state_trajectory(paper_transfer_system(family), n_max_symbolic)
    out = []
    for i, gf in enumerate(printed):
        short = _STATE_SHORT[i]
        claim = _claim_by_id(family, f"{key}-state-gf-{short}")
        series = gf_coefficients(gf, n_max_symbolic - 1)
        mismatch = None
        for n in range(1, n_max_symbolic + 1):
            claimed = series[n - 1]
            if n <= n_max_oracle:
                ref, source = _oracle_profile(family, n)[i], "oracle"
            else:
                ref, source = traj[n - 1][i], "transfer"
            if claimed != ref:
                mismatch = (n, claimed, ref, source)
                break
        if mismatch is None:
            out.append(
                ClaimStatus(
                    claim,
                    CONFIRMED,
                    details=(
                        f"matches oracle boundary classes for n = 1..{n_max_oracle} "
                        f"and the transfer states through n = {n_max_symbolic}",
                    ),
                )
            )
            continue
        n, claimed, ref, source = mismatch
        corrected = format_gf(derived_state_gfs(family)[i])
        out.append(
            ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value=claimed,
                oracle_value=ref,
                reference=source,
                corrected=corrected,
                details=(f"corrected {short} series: {corrected}",),
            )
        )
    return out


def _check_system(family, key, n_max_oracle, n_max_symbolic) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-system")
    ts = paper_transfer_system(family)
    traj = state_trajectory(ts, n_max_symbolic)
    k = len(ts.state_names)
    for n in range(1, n_max_oracle + 1):
        profile = _oracle_profile(family, n)
        observed = tuple(profile)[:k]
        if traj[n - 1] != observed:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value=str(traj[n - 1]),
                oracle_value=str(observed),
                reference="oracle",
                details=("state vector disagrees with brute-force boundary classes",),
            )
        if k == 2 and profile.extendable_count != 0:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value="extendable state absent",
                oracle_value=str(profile.extendable_count),
                reference="oracle",
                details=("two-state system but extendable sets exist",),
            )
    details = [
        f"state vectors match brute-force boundary classes for n = 1..{n_max_oracle}"
    ]
    if k == 2:
        details.append("oracle confirms the extendable class is empty for triangles")
    return ClaimStatus(claim, CONFIRMED, details=tuple(details))


def _check_state_seeds(family, key) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-state-seeds")
    ts = paper_transfer_system(family)
    printed = _printed_seed_flags(family)
    profile = _oracle_profile(family, 1)
    details = []
    for i, (value, is_printed) in enumerate(zip(ts.initial_vector, printed)):
        observed = profile[i]
        if not is_printed:
            details.append(
                f"{_STATE_SHORT[i]}(1) not printed; oracle measures {observed}"
            )
            continue
        if value != observed:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=1,
                claimed_value=value,
                oracle_value=observed,
                reference="oracle",
                details=(f"printed {_STATE_SHORT[i]}(1) disagrees with the oracle",),
            )
    details.insert(0, "printed length-1 state counts match the oracle")
    return ClaimStatus(claim, CONFIRMED, details=tuple(details))


def _check_recurrence(family, key, n_max_oracle, n_max_symbolic) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-recurrence")
    rec = paper_recurrence(family)
    mismatch = None
    for n in range(1, n_max_symbolic + 1):
        value = eval_recurrence(rec, n)
        ref, source = _reference(family, n, n_max_oracle)
        if value != ref:
            mismatch = (n, value, ref, source)
            break
    if mismatch is None:
        return ClaimStatus(
            claim,
            CONFIRMED,
            details=(
                f"values match brute force for n = 1..{n_max_oracle} "
                f"and the transfer system through n = {n_max_symbolic}",
            ),
        )
    n, value, ref, source = mismatch
    corrected_rec = derived_recurrence(family)
    corrected = render_recurrence(_strip_zero_seed(corrected_rec))
    return ClaimStatus(
        claim,
        REFUTED,
        witness=n,
        claimed_value=value,
        oracle_value=ref,
        reference=source,
        corrected=corrected,
        details=(
            f"corrected recurrence has order {corrected_rec.order} and is valid "
            f"from n >= {corrected_rec.valid_from}",
        ),
    )


def _strip_zero_seed(rec: LinearRecurrence) -> LinearRecurrence:
    """Drop a leading a(0) = 0 seed from derived recurrences for display."""
    initials = tuple((i, v) for i, v in rec.initial_terms if not (i == 0 and v == 0))
    return LinearRecurrence(rec.coefficients, initials, rec.valid_from, rec.formal_indices)


def _check_initials(family, key, n_max_oracle) -> list[ClaimStatus]:
    rec = paper_recurrence(family)
    out = []
    for idx, value in sorted(rec.initial_terms):
        claim = _claim_by_id(family, f"{key}-initial-{idx}")
        if idx in rec.formal_indices:
            n0 = idx + rec.order
            predicted = eval_recurrence(rec, n0)
            ref, source = _reference(family, n0, n_max_oracle)
            if predicted == ref:
                detail = (
                    f"formal seed; first dependent term a({n0}) = {predicted} "
                    f"agrees with the {source}"
                )
            else:
                detail = (
                    f"formal seed feeding an inconsistent recurrence: a({n0}) = "
                    f"{predicted} vs {source} {ref} (see {key}-recurrence)"
                )
            out.append(
                ClaimStatus(
                    claim,
                    FORMAL_ONLY,
                    claimed_value=value,
                    details=(detail,),
                )
            )
            continue
        ref, source = _reference(family, idx, n_max_oracle)
        if value == ref:
            out.append(
                ClaimStatus(
                    claim,
                    CONFIRMED,
                    claimed_value=value,
                    oracle_value=ref,
                    reference=source,
                )
            )
        else:
            out.append(
                ClaimStatus(
                    claim,
                    REFUTED,
                    witness=idx,
                    claimed_value=value,
                    oracle_value=ref,
                    reference=source,
                )
            )
    return out


def check_gamma_formula(
    family: Family,
    n_max: Optional[int] = None,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> ClaimStatus:
    """Compare the published domination-number formula against the oracle."""
    if family not in _GAMMA_FAMILIES:
        raise ValueError(f"no gamma formula is published for {family.value}")
    claim = _claim_by_id(family, f"{family.value}-gamma")
    limit = max_length_within(family, min(oracle_ceiling, DEFAULT_MAX_VERTICES))
    if n_max is None:
        n_max = limit
    if n_max > limit:
        raise OracleLimitError(
            f"gamma check at n = {n_max} exceeds the oracle ceiling ({limit})"
        )
    if n_max < 1:
        return ClaimStatus(
            claim, UNCHECKED, details=("oracle ceiling below the length-1 chain",)
        )
    for n in range(1, n_max + 1):
        expected = _gamma_formula(family, n)
        observed = _oracle_gamma(family, n)
        if expected != observed:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value=expected,
                oracle_value=observed,
                reference="oracle",
            )
    return ClaimStatus(
        claim,
        CONFIRMED,
        details=(f"formula matches the oracle minimum for n = 1..{n_max}",),
    )


def _check_meta_identity(family, key, n_max_oracle, n_max_symbolic) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-extendable-identity")
    traj = state_trajectory(paper_transfer_system(family), n_max_symbolic)
    for n in range(2, n_max_symbolic + 1):
        if traj[n - 1][2] != traj[n - 2][0]:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value=str(traj[n - 2][0]),
                oracle_value=str(traj[n - 1][2]),
                reference="transfer",
            )
    for n in range(2, n_max_oracle + 1):
        ext = _oracle_profile(family, n).extendable_count
        prev_contains = _oracle_profile(family, n - 1).in_count
        if ext != prev_contains:
            return ClaimStatus(
                claim,
                REFUTED,
                witness=n,
                claimed_value=prev_contains,
                oracle_value=ext,
                reference="oracle",
            )
    return ClaimStatus(
        claim,
        CONFIRMED,
        details=(
            f"identity holds in the transfer states (n <= {n_max_symbolic}) and "
            f"against oracle boundary classes (n <= {n_max_oracle})",
        ),
    )


_PHI_TEXT = "(1+sqrt(5))/2"


def _check_growth_rate(family, key) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-growth-rate")
    estimate = dominant_growth_rate(paper_recurrence(family), ratio_index=50)
    phi = (1 + math.sqrt(5)) / 2
    root_ok = abs(estimate.dominant_root - phi) <= 1e-9 * phi
    ratio_ok = abs(estimate.empirical_ratio - phi) <= 1e-9 * phi
    details = (
        f"dominant real root {estimate.dominant_root!r}",
        f"empirical ratio a(51)/a(50) = {estimate.empirical_ratio!r}",
    )
    if root_ok and ratio_ok:
        return ClaimStatus(
            claim,
            CONFIRMED,
            claimed_value=_PHI_TEXT,
            oracle_value=estimate.dominant_root,
            reference="characteristic root",
            details=details,
        )
    return ClaimStatus(
        claim,
        REFUTED,
        witness=50,
        claimed_value=_PHI_TEXT,
        oracle_value=estimate.dominant_root,
        reference="characteristic root",
        details=details,
    )


def _check_asymptotic_form(family, key, n_max_oracle) -> ClaimStatus:
    claim = _claim_by_id(family, f"{key}-asymptotic-form")
    phi = (1 + math.sqrt(5)) / 2
    sqrt5 = math.sqrt(5)
    witness = None
    for n in range(1, n_max_oracle + 1):
        approx = phi**n / sqrt5
        actual = oracle_count(family, n)
        if round(approx) != actual:
            witness = (n, approx, actual)
            break
    corrected = (
        "a(n) = nearest integer to r^(n+3)/sqrt(5), r = (1+sqrt(5))/2 "
        "(the counts are the Fibonacci numbers shifted by three)"
    )
    corrected_ok = all(
        round(phi ** (n + 3) / sqrt5) == oracle_count(family, n)
        for n in range(1, n_max_oracle + 1)
    )
    ratio = oracle_count(family, n_max_oracle) / (phi**n_max_oracle / sqrt5)
    details = (
        f"oracle/claimed ratio at n = {n_max_oracle} is {ratio:.6f}, tending to "
        f"r^3 = {phi**3:.6f}, not 1",
        "corrected closed form matches the oracle for n = 1.."
        f"{n_max_oracle}" if corrected_ok else "corrected closed form FAILED",
    )
    if witness is None:
        return ClaimStatus(claim, CONFIRMED, details=details)
    n, approx, actual = witness
    return ClaimStatus(
        claim,
        REFUTED,
        witness=n,
        claimed_value=f"{approx:.4f}",
        oracle_value=actual,
        reference="oracle",
        corrected=corrected,
        details=details,
    )


# -- orchestration -----------------------------------------------------------


def cross_check_family(
    family: Family,
    n_max_oracle: Optional[int] = None,
    n_max_symbolic: int = DEFAULT_SYMBOLIC_MAX,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> VerificationReport:
    """Run every registered check for one linear family."""
    if family not in LINEAR_FAMILIES:
        raise ValueError(f"cross_check_family needs a linear family, not {family.value}")
    ceiling = min(oracle_ceiling, DEFAULT_MAX_VERTICES)
    limit = max_length_within(family, ceiling)
    if n_max_oracle is None:
        n_max_oracle = limit
    elif n_max_oracle > limit:
        raise OracleLimitError(
            f"n_max_oracle = {n_max_oracle} needs "
            f"{expected_vertex_count(ChainSpec(family, length=n_max_oracle))} vertices, "
            f"above the ceiling {ceiling}"
        )
    if n_max_oracle < 1:
        raise OracleLimitError("oracle ceiling below the length-1 chain")
    n_max_symbolic = max(n_max_symbolic, n_max_oracle)

    key = family.value
    statuses = [_check_family_gf(family, key, n_max_oracle, n_max_symbolic)]
    statuses.extend(_check_state_gfs(family, key, n_max_oracle, n_max_symbolic))
    statuses.append(_check_system(family, key, n_max_oracle, n_max_symbolic))
    statuses.append(_check_state_seeds(family, key))
    statuses.append(_check_recurrence(family, key, n_max_oracle, n_max_symbolic))
    statuses.extend(_check_initials(family, key, n_max_oracle))
    if family in _GAMMA_FAMILIES:
        statuses.append(
            check_gamma_formula(family, n_max=None, oracle_ceiling=oracle_ceiling)
        )
    if family is Family.HEX_META:
        statuses.append(_check_meta_identity(family, key, n_max_oracle, n_max_symbolic))
    if family is Family.TRIANGULAR:
        statuses.append(_check_growth_rate(family, key))
        statuses.append(_check_asymptotic_form(family, key, n_max_oracle))
    return VerificationReport(
        scope=key,
        oracle_ceiling=ceiling,
        n_max_symbolic=n_max_symbolic,
        statuses=statuses,
    )


def _defect_family(kind: str) -> Family:
    if kind == "ortho-defect":
        return Family.PARA_CHAIN_ORTHO_DEFECT
    if kind == "para-defect":
        return Family.ORTHO_CHAIN_PARA_DEFECT
    raise ValueError(f"unknown defect kind {kind!r} (ortho-defect or para-defect)")


def defect_formula_value(kind: str, m: int, n: int) -> int:
    """Evaluate the published composition formula from transfer trajectories."""
    if m < 1 or n < 1:
        raise ValueError("defect parameters must be at least 1")
    if kind == "ortho-defect":
        system = paper_transfer_system(Family.SQUARE_PARA)

        def total(k: int) -> int:
            return run_transfer(system, k)

        def avoids(k: int) -> int:
            return transfer_state(system, k)[STATE_AVOIDS]

        return total(m) * avoids(n + 1) + total(n) * avoids(m + 1)
    _defect_family(kind)
    system = paper_transfer_system(Family.SQUARE_ORTHO)

    def s(k: int) -> int:
        return 1 if k == 0 else run_transfer(system, k)

    return s(n) * s(m) + 2 * s(m - 1) * s(n - 1)


def ortho_square_contains(k: int) -> int:
    """s'(k): sets of the length-k ortho-square chain containing its terminal
    vertex. The published para-defect formula omits s'(m)*s'(n), the sets
    containing both cut vertices of the defect square."""
    return transfer_state(paper_transfer_system(Family.SQUARE_ORTHO), k)[STATE_CONTAINS]


def check_defect_formula(
    kind: str,
    m: int,
    n: int,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> ClaimStatus:
    """Compare a defect composition formula against the oracle at (m, n)."""
    family = _defect_family(kind)
    claim = defect_claim(kind, m, n)
    vertices = expected_vertex_count(ChainSpec(family, m=m, n=n))
    ceiling = min(oracle_ceiling, DEFAULT_MAX_VERTICES)
    if vertices > ceiling:
        raise OracleLimitError(
            f"defect chain ({m},{n}) has {vertices} vertices, above ceiling {ceiling}"
        )
    formula = defect_formula_value(kind, m, n)
    oracle = _oracle_defect_count(family, m, n)
    if formula == oracle:
        return ClaimStatus(
            claim,
            CONFIRMED,
            witness=(m, n),
            claimed_value=formula,
            oracle_value=oracle,
            reference="oracle",
        )

    details = []
    shifts = []
    for dm in (-1, 0, 1):
        for dn in (-1, 0, 1):
            if (dm, dn) == (0, 0):
                continue
            m2, n2 = m + dm, n + dn
            if m2 < 1 or n2 < 1:
                continue
            if defect_formula_value(kind, m2, n2) == oracle:
                shifts.append((m2, n2))
    if shifts:
        listed = ", ".join(f"({a},{b})" for a, b in sorted(shifts))
        details.append(
            f"index shift(s) {listed} would reconcile the formula "
            "(possible transcription slip)"
        )
    else:
        details.append("no single index shift (m+-1, n+-1) reconciles the formula")

    corrected = None
    if kind == "para-defect":
        cm, cn = ortho_square_contains(m), ortho_square_contains(n)
        candidate = formula + cm * cn
        if candidate == oracle:
            corrected = (
                "s(m)*s(n) + 2*s(m-1)*s(n-1) + s'(m)*s'(n), where s'(k) counts the "
                "length-k sets containing the terminal vertex; the extra product "
                "counts the sets containing both cut vertices of the defect "
                "square, possible because a para defect attaches them at "
                "opposite corners"
            )
            details.append(
                "adding the contains-both-cut-vertices case reconciles the "
                f"formula: {formula} + {cm}*{cn} = {candidate}"
            )
        else:
            details.append("boundary-class correction attempt did not reconcile")
    return ClaimStatus(
        claim,
        REFUTED,
        witness=(m, n),
        claimed_value=formula,
        oracle_value=oracle,
        reference="oracle",
        corrected=corrected,
        details=tuple(details),
    )


def check_defect_grid(
    grid: Sequence[tuple[int, int]] = DEFECT_GRID,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
    n_max_symbolic: int = DEFAULT_SYMBOLIC_MAX,
) -> VerificationReport:
    statuses = [
        check_defect_formula(kind, m, n, oracle_ceiling=oracle_ceiling)
        for kind in ("ortho-defect", "para-defect")
        for m, n in grid
    ]
    return VerificationReport(
        scope="defects",
        oracle_ceiling=min(oracle_ceiling, DEFAULT_MAX_VERTICES),
        n_max_symbolic=n_max_symbolic,
        statuses=statuses,
    )


def verify_all(
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
    n_max_symbolic: int = DEFAULT_SYMBOLIC_MAX,
    defect_grid: Sequence[tuple[int, int]] = DEFECT_GRID,
) -> list[VerificationReport]:
    """Run every registered claim check; returns one report per scope."""
    reports = [
        cross_check_family(
            family, n_max_symbolic=n_max_symbolic, oracle_ceiling=oracle_ceiling
        )
        for family in LINEAR_FAMILIES
    ]
    reports.append(
        check_defect_grid(
            defect_grid, oracle_ceiling=oracle_ceiling, n_max_symbolic=n_max_symbolic
        )
    )
    return reports


# -- report rendering --------------------------------------------------------


def _merged_statuses(reports: Sequence[VerificationReport]) -> list[ClaimStatus]:
    statuses = [s for report in reports for s in report.statuses]
    return sorted(statuses, key=lambda s: s.claim.id)


def _merged_summary(statuses: Sequence[ClaimStatus]) -> dict:
    out = {"confirmed": 0, "refuted": 0, "formal_only": 0, "unchecked": 0}
    for status in statuses:
        out[status.verdict.replace("-", "_")] += 1
    return out


def errata_report(reports: Sequence[VerificationReport], format: str = "markdown") -> str:
    """Deterministic document listing every claim status, errata first."""
    statuses = _merged_statuses(reports)
    summary = _merged_summary(statuses)
    ceiling = max((r.oracle_ceiling for r in reports), default=0)
    if format == "json":
        doc = {
            "oracle_ceiling": ceiling,
            "summary": summary,
            "claims": [s.to_json_dict() for s in statuses],
        }
        return json.dumps(doc, indent=2)
    if format != "markdown":
        raise ValueError(f"unknown report format {format!r}")

    lines = ["# Claim verification report", ""]
    lines.append(f"Oracle ceiling: {ceiling} vertices.")
    lines.append(
        "Verdicts: "
        + ", ".join(f"{k.replace('_', '-')} {v}" for k, v in summary.items())
        + "."
    )
    lines.append("")
    refuted = [s for s in statuses if s.verdict == REFUTED]
    lines.append(f"## Errata ({len(refuted)})")
    lines.append("")
    if not refuted:
        lines.append("No refuted claims.")
        lines.append("")
    for s in refuted:
        lines.append(f"### {s.claim.id}")
        lines.append("")
        lines.append(f"- location: {s.claim.location}")
        lines.append(f"- claimed: {s.claim.statement}")
        witness = (
            f"({s.witness[0]},{s.witness[1]})"
            if isinstance(s.witness, tuple)
            else s.witness
        )
        lines.append(
            f"- witness: n = {witness} "
            f"(claimed {s.claimed_value}, {s.reference} {s.oracle_value})"
        )
        if s.corrected:
            lines.append(f"- corrected: {s.corrected}")
        for d in s.details:
            lines.append(f"- note: {d}")
        lines.append("")
    lines.append("## All claims")
    lines.append("")
    lines.append("| claim | kind | verdict | witness |")
    lines.append("|---|---|---|---|")
    for s in statuses:
        witness = (
            f"({s.witness[0]},{s.witness[1]})"
            if isinstance(s.witness, tuple)
            else ("" if s.witness is None else str(s.witness))
        )
        lines.append(f"| {s.claim.id} | {s.claim.kind} | {s.verdict} | {witness} |")
    lines.append("")
    return "\n".join(lines)
