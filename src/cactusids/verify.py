"""Cross-checking engine: every printed claim against the oracle and the transfer systems.

Every quantitative statement transcribed in ``paper`` (generating functions,
per-state series, state systems and seeds, closed recurrences, printed
initial terms, domination-number formulas, defect-composition formulas, the
Fibonacci asymptotic) is registered as a claim with a stable id, and judged
at each length against the most trusted source there: the brute-force
oracle through the fixed ``AUDIT_CEILING``, the transfer system beyond it
through ``SYMBOLIC_MAX`` (further for a printed series whose degree needs
it), so a verdict depends only on the claim.
Every mismatch is reported with its smallest witness; nothing is silently
reconciled.

One constructor, ``_judge``, makes every refuted verdict: a claim is
refuted at its first mismatch, and only then is its corrected statement
derived, from the built graph. ``_judge`` also makes the confirmed verdicts,
except three that record the compared values on the status: a printed
initial term (``_check_initial``), the growth rate (``_check_growth_rate``)
and a defect formula at one point (``check_defect_formula``) build theirs
directly. One judge, ``_check_series``,
serves every rational claim as a printed series: the family GF, the
per-state series, and the closed recurrence as ``gf_from_recurrence``
turns it, with every printed term, into a GF. One judge,
``check_gamma_formula``, reads the rows of ``gamma_rows``, the table the CLI
prints, for each domination-number claim.

A printed a(0) is a formal seed, since no chain has length 0: it gets
verdict "formal-only" and is checked only for arithmetic consistency with the
recurrence it seeds.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .chains import (
    ChainSpec,
    DEFECT_FAMILIES,
    Family,
    LINEAR_FAMILIES,
    expected_vertex_count,
)
from .genfunc import dominant_growth_rate
from .graphs import _MIN, DEFAULT_MAX_VERTICES, BoundaryCounts, OracleLimitError
from .paper import (
    DEFECT_FORMULA,
    FAMILY_TITLE,
    GAMMA_FORMULA,
    PRINTED_STATEMENTS,
    STATE_CONTAINS,
    _oracle_profile,
    _prefix_reads,
    defect_formula_value,
    derived_gf,
    derived_recurrence,
    derived_state_gfs,
    paper_gf,
    paper_recurrence,
    paper_state_gfs,
    paper_transfer_system,
    printed_seed_flags,
)
from .polynomials import RationalGF, format_gf, signed_sum
from .recurrences import (
    LinearRecurrence,
    TransferSystem,
    eval_recurrence,
    gf_from_recurrence,
    gf_term,
    state_trajectory,
)

# The oracle judges every chain of at most AUDIT_CEILING vertices: triangle
# chains through n = 12, squares through 8 and hexagons through 5. Any value
# from 21 (hexagons through n = 4, hex-para's recurrence witness) to the cap
# gives the same verdicts, witnesses and values; 26 is the range the report
# has always printed, and another would move only its "n = 1..k" texts.
AUDIT_CEILING = 26
# The transfer states reach n = 30 for every family, past every oracle length
# (tri's longest is 19, at the 40-vertex cap) and every formal seed, judged at
# n = order <= 4. A printed series is judged through 30 or through its degree
# bound (see ``_check_series``), whichever is larger; for every real claim the
# bound is at most 8.
SYMBOLIC_MAX = 30

CONFIRMED = "confirmed"
REFUTED = "refuted"
FORMAL_ONLY = "formal-only"

Witness = Union[int, tuple[int, int], None]

_STATE_SHORT = ("contains", "avoids", "extendable")


class Claim(NamedTuple):
    """One registered quantitative statement with a stable id."""

    id: str
    family: Optional[Family]
    kind: str  # gf | recurrence | initial-term | gamma-formula | defect-formula | asymptotic
    location: str
    statement: str


class ClaimStatus(NamedTuple):
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
        """JSON fields: a pair witness becomes a list."""
        witness = list(self.witness) if isinstance(self.witness, tuple) else self.witness
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


class VerificationReport(NamedTuple):
    """Statuses for one verification scope (a family, or the defect grid)."""

    scope: str
    statuses: list[ClaimStatus]

    def summary(self) -> dict:
        return _summary(self.statuses)

    def refuted(self) -> list[ClaimStatus]:
        return [s for s in self.statuses if s.verdict == REFUTED]


# -- statement rendering -----------------------------------------------------


def render_recurrence(rec: LinearRecurrence) -> str:
    relation = signed_sum((c, f"a(n-{lag})") for lag, c in enumerate(rec.coefficients, 1))
    text = f"a(n) = {relation} for n >= {rec.valid_from}"
    if rec.initial_terms:
        seeds = ", ".join(f"a({i}) = {v}" for i, v in sorted(rec.initial_terms))
        text += f", with {seeds}"
    return text


def render_system(family: Family) -> str:
    matrix = paper_transfer_system(family).update_matrix
    return "; ".join(
        f"{_STATE_SHORT[i]}(n+1) = "
        + signed_sum(((c, f"{_STATE_SHORT[j]}(n)") for j, c in enumerate(row)), "*")
        for i, row in enumerate(matrix)
    )


def _printed_seed_text(family: Family) -> str:
    ts = paper_transfer_system(family)
    printed = printed_seed_flags(family)
    parts = [
        f"{_STATE_SHORT[i]}(1) = {v}"
        for i, (v, is_printed) in enumerate(zip(ts.initial_vector, printed))
        if is_printed
    ]
    return ", ".join(parts)


# -- claim registry ----------------------------------------------------------


Check = Callable[[Claim, "_Context"], ClaimStatus]


@lru_cache(maxsize=None)
def _registry(family: Family) -> dict[str, tuple[Claim, Check]]:
    """Every claim of a linear family with the check that judges it, by id in
    report order. The one place that decides which claims a family has."""
    if family not in LINEAR_FAMILIES:
        raise ValueError(f"{family.value} has no per-family claims")
    key = family.value
    title = FAMILY_TITLE[family]
    registry: dict[str, tuple[Claim, Check]] = {}

    def add(suffix: str, kind: str, location: str, statement: str, check: Check) -> None:
        claim = Claim(f"{key}-{suffix}", family, kind, f"{title}: {location}", statement)
        registry[claim.id] = (claim, check)

    add(
        "gf", "gf", "published generating function",
        f"G(x) = {format_gf(paper_gf(family))}; coefficient n is the count at length n",
        _check_family_gf,
    )
    for i, gf in enumerate(paper_state_gfs(family) or ()):
        short = _STATE_SHORT[i]
        add(
            f"state-gf-{short}", "gf", f"solved series for the {short} state",
            f"{short} series = {format_gf(gf)}; "
            "coefficient k is the state count at length k+1",
            partial(_check_state_gf, i=i, gf=gf),
        )
    add("system", "recurrence", "state recurrence system", render_system(family),
        _check_system)
    add("state-seeds", "initial-term", "stated length-1 state counts",
        _printed_seed_text(family), _check_state_seeds)
    rec = paper_recurrence(family)
    add("recurrence", "recurrence", "published closed recurrence", render_recurrence(rec),
        _check_recurrence)
    for idx, value in sorted(rec.initial_terms):
        suffix = " (formal seed, no graph)" if idx == 0 else ""
        add(
            f"initial-{idx}", "initial-term", f"stated initial term at index {idx}",
            f"a({idx}) = {value}{suffix}",
            partial(_check_initial, idx=idx, value=value),
        )
    if family in GAMMA_FORMULA:
        add("gamma", "gamma-formula", "independence domination number",
            GAMMA_FORMULA[family][1], lambda claim, ctx: check_gamma_formula(family))
    for suffix, (owner, kind, location, statement) in PRINTED_STATEMENTS.items():
        if owner is family:
            add(suffix, kind, location, statement, _STATEMENT_CHECKS[suffix])
    return registry


def claims_for_family(family: Family) -> tuple[Claim, ...]:
    return tuple(claim for claim, _ in _registry(family).values())


def defect_claim(family: Family, m: int, n: int) -> Claim:
    if family not in DEFECT_FORMULA:
        raise ValueError(f"no defect formula is published for {family.value}")
    _, location, statement = DEFECT_FORMULA[family]
    return Claim(f"{family.value}-{m}-{n}", family, "defect-formula", location,
                 statement.format(m=m, n=n))


DEFECT_GRID = ((1, 1), (1, 2), (2, 1), (2, 2))


# -- oracle access with caching ---------------------------------------------


def max_length_within(family: Family, ceiling_vertices: int) -> int:
    """Largest chain length n whose 1 + n(c - 1) vertices fit under a positive
    ceiling, with c - 1 the vertices one block adds, as the length-1 chain has c."""
    per_block = expected_vertex_count(ChainSpec(family, length=1)) - 1
    return (ceiling_vertices - 1) // per_block


def _chain_name(spec: ChainSpec) -> str:
    if spec.family in LINEAR_FAMILIES:
        return f"length-{spec.length} {spec.family.value} chain"
    return f"{spec.family.value} chain ({spec.m},{spec.n})"


def require_oracle_fit(spec: ChainSpec) -> None:
    """Refuse, before anything is built, a chain with more vertices than the
    oracle's DEFAULT_MAX_VERTICES: the one check made before every oracle run
    of the verifier and the CLI."""
    vertices = expected_vertex_count(spec)
    if vertices > DEFAULT_MAX_VERTICES:
        raise OracleLimitError(
            f"the {_chain_name(spec)} has {vertices} vertices, "
            f"above the oracle ceiling {DEFAULT_MAX_VERTICES}"
        )


def oracle_count(family: Family, n: int) -> int:
    profile = _oracle_profile(family, n)[n - 1]
    return profile.in_count + profile.out_count


@lru_cache(maxsize=None)
def _oracle_gamma(family: Family, n: int) -> tuple[int, ...]:
    """The oracle minimum at lengths 1..n, read in one pass over the length-n chain."""
    return tuple(_prefix_reads(ChainSpec(family, length=n), _MIN))


def gamma_rows(family: Family, n_max: Optional[int] = None) -> list[tuple[int, int, int]]:
    """(n, formula value, oracle minimum) at lengths 1..n_max of a family with
    a published domination-number formula, refused as by require_oracle_fit;
    n_max defaults to the lengths under AUDIT_CEILING, which the <f>-gamma
    claim is judged at."""
    if family not in GAMMA_FORMULA:
        raise ValueError(f"no gamma formula is published for {family.value}")
    if n_max is None:
        n_max = max_length_within(family, AUDIT_CEILING)
    require_oracle_fit(ChainSpec(family, length=n_max))
    formula = GAMMA_FORMULA[family][0]
    return [(n, formula(n), gamma) for n, gamma in enumerate(_oracle_gamma(family, n_max), 1)]


@lru_cache(maxsize=None)
def _oracle_defect_count(family: Family, m: int, n: int) -> tuple[int, ...]:
    """The oracle's counts of the (m, 1..n) chains, read in one pass over the
    (m, n) chain, after its blocks m + 2..m + n + 1: the count is the sets
    containing the kept terminal vertex plus those avoiding it."""
    arms = _prefix_reads(ChainSpec(family, m=m, n=n))[m + 1:]
    return tuple(profile.in_count + profile.out_count for profile in arms)


# -- the first-mismatch loop and the one verdict constructor -------------------


Mismatch = tuple[Witness, Any, Any, str]  # (n, claimed, reference, source)


def _first_mismatch(
    ns: Iterable[int],
    claimed: Callable[[int], Any],
    reference: Callable[[int], tuple[Any, str]],
) -> Optional[Mismatch]:
    """The first n in ns where the claimed value differs from the reference,
    as (n, claimed, reference, source); None when they agree throughout."""
    for n in ns:
        value = claimed(n)
        ref, source = reference(n)
        if value != ref:
            return n, value, ref, source
    return None


def _judge(
    claim: Claim,
    mismatch: Optional[Mismatch],
    confirmed_details: Sequence[str] = (),
    refuted: Optional[Callable[[], tuple[Optional[str], Sequence[str]]]] = None,
) -> ClaimStatus:
    """Confirmed, with confirmed_details, when there is no mismatch; refuted
    at the mismatch otherwise, with the (corrected, details) that refuted()
    returns, so a correction is derived only for a refuted claim."""
    if mismatch is None:
        return ClaimStatus(claim, CONFIRMED, details=tuple(confirmed_details))
    corrected, details = refuted() if refuted else (None, ())
    return ClaimStatus(claim, REFUTED, *mismatch, corrected, tuple(details))


class _Context(NamedTuple):
    """The lengths one family check covers and the trusted values at them:
    the oracle up to n_max_oracle, the transfer states beyond."""

    family: Family
    n_max_oracle: int
    system: TransferSystem
    trajectory: list  # three-state vectors for lengths 1..SYMBOLIC_MAX or more

    @property
    def lengths(self) -> range:
        return range(1, len(self.trajectory) + 1)

    def through(self, n: int) -> "_Context":
        """This context, with the transfer states reaching at least length n."""
        if n <= len(self.trajectory):
            return self
        return self._replace(trajectory=_trajectory(self.system, n))

    @property
    def oracle_range(self) -> range:
        return range(1, self.n_max_oracle + 1)

    def profile(self, n: int) -> BoundaryCounts:
        """The oracle's boundary classes at length n, read, with every other
        length of the oracle range, in one pass over its longest chain."""
        return _oracle_profile(self.family, self.n_max_oracle)[n - 1]

    def value(self, n: int, state: Optional[int] = None) -> tuple[int, str]:
        """The count at length n, or the count of one state, with its source."""
        if n <= self.n_max_oracle:
            profile = self.profile(n)
            if state is None:
                return profile.in_count + profile.out_count, "oracle"
            return profile[state], "oracle"
        vec = self.trajectory[n - 1]
        return (self.system.count(vec) if state is None else vec[state]), "transfer"


# -- per-claim checkers ------------------------------------------------------


def _check_series(
    claim: Claim,
    ctx: _Context,
    gf: RationalGF,
    matches: str,
    refuted: Callable[[], tuple[str, Sequence[str]]],
    state: Optional[int] = None,
    seed: Optional[Mismatch] = None,
    notes: tuple[str, ...] = (),
) -> ClaimStatus:
    """Judge a printed series at every length of ctx: coefficient n is the
    count at length n or, for a state, coefficient n - 1 is that state's
    count. A seed mismatch, the printed formal a(0) against the constant
    term, counts only where every length agrees; notes lead the details of
    a confirmed claim. A GF whose denominator constant term is not 1 has no
    integer power series (Fatou 1906), so it counts no sets: it is refuted
    at length 1.

    The scan runs through SYMBOLIC_MAX, or further for a GF P/Q of high
    degree: through B = max(deg P, deg Q) + k, where k is the number of
    transfer states, plus one for a state series. The true series is
    R/S with deg R, deg S <= k, so the difference of the two has a
    numerator of degree at most B; once its coefficients 1..B (0..B for a
    state series, which has no formal a(0)) vanish, the two agree at every
    length."""
    shift = 0 if state is None else 1
    d0 = gf.denominator[0]
    if d0 != 1:
        corrected, details = refuted()
        why = f"denominator constant term is {d0}, not 1: no integer series"
        return _judge(claim, (1, "no integer power series", *ctx.value(1, state)),
                      refuted=lambda: (corrected, (why, *details)))
    degree = max(gf.numerator.degree, gf.denominator.degree)
    ctx = ctx.through(degree + len(ctx.system.initial_vector) + shift)
    limit = len(ctx.trajectory)
    series = gf.series(limit - shift)
    mismatch = _first_mismatch(
        ctx.lengths, lambda n: series[n - shift], lambda n: ctx.value(n, state)
    )
    source = "transfer system" if state is None else "transfer states"
    confirmed = (
        f"{matches} for n = 1..{ctx.n_max_oracle} and the {source} through n = {limit}"
    )
    return _judge(claim, mismatch or seed, notes + (confirmed,), refuted)


def _check_family_gf(claim: Claim, ctx: _Context) -> ClaimStatus:
    gf, n_max_oracle = paper_gf(ctx.family), ctx.n_max_oracle
    formal, seed, notes = paper_recurrence(ctx.family).initial_map.get(0), None, ()
    if gf.denominator[0] == 1:  # else there is no integer series, and no constant term
        constant = gf.series(0)[0]
        if formal is None:
            note = f"no printed length-0 value; constant term {constant} is formal only"
        else:
            verb = "matches" if constant == formal else "contradicts"
            note = f"constant term {constant} {verb} the printed formal seed a(0) = {formal}"
            seed = None if constant == formal else (0, constant, formal, "printed formal seed")
        notes = (note,)

    def refuted() -> tuple[str, Sequence[str]]:
        corrected = derived_gf(ctx.family)
        series = corrected.series(n_max_oracle)
        if _first_mismatch(ctx.oracle_range, series.__getitem__, ctx.value) is None:
            checked = f"corrected expansion matches brute force for n = 1..{n_max_oracle}"
        else:
            checked = "corrected expansion FAILED to match brute force (artifact bug)"
        return format_gf(corrected), (*notes, checked)

    return _check_series(
        claim, ctx, gf, "expansion matches brute force", refuted, seed=seed, notes=notes
    )


def _check_state_gf(claim: Claim, ctx: _Context, i: int, gf: RationalGF) -> ClaimStatus:
    def refuted() -> tuple[str, Sequence[str]]:
        corrected = format_gf(derived_state_gfs(ctx.family)[i])
        return corrected, (f"corrected {_STATE_SHORT[i]} series: {corrected}",)

    return _check_series(claim, ctx, gf, "matches oracle boundary classes", refuted, state=i)


def _check_recurrence(claim: Claim, ctx: _Context) -> ClaimStatus:
    rec = paper_recurrence(ctx.family)

    def refuted() -> tuple[str, Sequence[str]]:
        corrected = derived_recurrence(ctx.family)
        seeds = corrected.initial_terms
        if corrected.valid_from > corrected.order:  # the relation never reads a(0) = 0
            seeds = tuple(term for term in seeds if term != (0, 0))
        return render_recurrence(corrected._replace(initial_terms=seeds)), (
            f"corrected recurrence has order {corrected.order} and is valid "
            f"from n >= {corrected.valid_from}",
        )

    gf = gf_from_recurrence(rec)
    return _check_series(claim, ctx, gf, "values match brute force", refuted)


def _check_system(claim: Claim, ctx: _Context) -> ClaimStatus:
    k = len(ctx.system.initial_vector)
    mismatch = _first_mismatch(
        ctx.oracle_range,
        lambda n: ctx.trajectory[n - 1],
        lambda n: (tuple(ctx.profile(n)), "oracle"),
    )
    detail = "two-state system but extendable sets exist"
    if mismatch is not None:
        n, claimed, observed, source = mismatch
        if claimed[:k] != observed[:k]:
            mismatch = (n, str(claimed[:k]), str(observed[:k]), source)
            detail = "state vector disagrees with brute-force boundary classes"
        else:
            mismatch = (n, "extendable state absent", str(observed[2]), source)
    confirmed = [
        f"state vectors match brute-force boundary classes for n = 1..{ctx.n_max_oracle}"
    ]
    if k == 2:
        confirmed.append("oracle confirms the extendable class is empty for triangles")
    return _judge(claim, mismatch, confirmed, lambda: (None, (detail,)))


def _check_state_seeds(claim: Claim, ctx: _Context) -> ClaimStatus:
    printed = printed_seed_flags(ctx.family)
    seeds, profile = ctx.system.initial_vector, ctx.profile(1)
    wrong = next((i for i, p in enumerate(printed) if p and seeds[i] != profile[i]), None)
    mismatch = None if wrong is None else (1, seeds[wrong], profile[wrong], "oracle")
    unprinted = [
        f"{_STATE_SHORT[i]}(1) not printed; oracle measures {profile[i]}"
        for i, p in enumerate(printed) if not p
    ]
    return _judge(
        claim,
        mismatch,
        ["printed length-1 state counts match the oracle", *unprinted],
        lambda: (None, (f"printed {_STATE_SHORT[wrong]}(1) disagrees with the oracle",)),
    )


def _check_initial(claim: Claim, ctx: _Context, idx: int, value: int) -> ClaimStatus:
    rec = paper_recurrence(ctx.family)
    # a printed a(0), a formal seed since no chain has length 0, is judged at
    # the first term that depends on it
    n0 = idx + rec.order if idx == 0 else idx
    ref, source = ctx.value(n0)
    if n0 != idx:
        predicted = eval_recurrence(rec, n0)
        if predicted == ref:
            detail = (
                f"formal seed; first dependent term a({n0}) = {predicted} "
                f"agrees with the {source}"
            )
        else:
            detail = (
                f"formal seed feeding an inconsistent recurrence: a({n0}) = "
                f"{predicted} vs {source} {ref} (see {ctx.family.value}-recurrence)"
            )
        return ClaimStatus(claim, FORMAL_ONLY, claimed_value=value, details=(detail,))
    if value == ref:
        return ClaimStatus(claim, CONFIRMED, None, value, ref, source)
    return _judge(claim, (idx, value, ref, source))


def check_gamma_formula(family: Family) -> ClaimStatus:
    """The one judge of the <f>-gamma claim: the published domination-number
    formula against the oracle minimum in every row of gamma_rows(family)."""
    rows = gamma_rows(family)
    mismatch = _first_mismatch(
        range(1, len(rows) + 1),
        lambda n: rows[n - 1][1],
        lambda n: (rows[n - 1][2], "oracle"),
    )
    claim = _registry(family)[f"{family.value}-gamma"][0]
    confirmed = f"formula matches the oracle minimum for n = 1..{len(rows)}"
    return _judge(claim, mismatch, (confirmed,))


def _check_meta_identity(claim: Claim, ctx: _Context) -> ClaimStatus:
    traj = ctx.trajectory
    mismatch = _first_mismatch(
        range(2, SYMBOLIC_MAX + 1),
        lambda n: str(traj[n - 2][0]),
        lambda n: (str(traj[n - 1][2]), "transfer"),
    ) or _first_mismatch(
        range(2, ctx.n_max_oracle + 1),
        lambda n: ctx.profile(n - 1).in_count,
        lambda n: (ctx.profile(n).extendable_count, "oracle"),
    )
    return _judge(claim, mismatch, (
        f"identity holds in the transfer states (n <= {SYMBOLIC_MAX}) and "
        f"against oracle boundary classes (n <= {ctx.n_max_oracle})",
    ))


_PHI_TEXT, _ROOT = "(1+sqrt(5))/2", "characteristic root"


def _check_growth_rate(claim: Claim, ctx: _Context) -> ClaimStatus:
    estimate = dominant_growth_rate(paper_recurrence(ctx.family))
    root, i = estimate.dominant_root, estimate.ratio_index
    phi = (1 + math.sqrt(5)) / 2
    details = (
        f"dominant real root {root!r}",
        f"empirical ratio a({i + 1})/a({i}) = {estimate.empirical_ratio!r}",
    )
    if abs(root - phi) <= 1e-9 * phi and abs(estimate.empirical_ratio - phi) <= 1e-9 * phi:
        return ClaimStatus(claim, CONFIRMED, None, _PHI_TEXT, root, _ROOT, details=details)
    return _judge(claim, (i, _PHI_TEXT, root, _ROOT), refuted=lambda: (None, details))


def _check_asymptotic_form(claim: Claim, ctx: _Context) -> ClaimStatus:
    phi, sqrt5, n_max_oracle = (1 + math.sqrt(5)) / 2, math.sqrt(5), ctx.n_max_oracle

    def nearest(shift: int) -> Optional[Mismatch]:  # round(r^(n + shift)/sqrt(5))
        return _first_mismatch(
            ctx.oracle_range, lambda n: round(phi ** (n + shift) / sqrt5), ctx.value
        )

    mismatch = nearest(0)
    if mismatch is not None:
        n, _, actual, source = mismatch
        mismatch = (n, f"{phi**n / sqrt5:.4f}", actual, source)
    ratio = ctx.value(n_max_oracle)[0] / (phi**n_max_oracle / sqrt5)
    details = (
        f"oracle/claimed ratio at n = {n_max_oracle} is {ratio:.6f}, tending to "
        f"r^3 = {phi**3:.6f}, not 1",
        "corrected closed form matches the oracle for n = 1.."
        f"{n_max_oracle}" if nearest(3) is None else "corrected closed form FAILED",
    )
    corrected = (
        "a(n) = nearest integer to r^(n+3)/sqrt(5), r = (1+sqrt(5))/2 "
        "(the counts are the Fibonacci numbers shifted by three)"
    )
    return _judge(claim, mismatch, details, lambda: (corrected, details))


_STATEMENT_CHECKS: dict[str, Check] = {
    "extendable-identity": _check_meta_identity,
    "growth-rate": _check_growth_rate,
    "asymptotic-form": _check_asymptotic_form,
}


# -- orchestration -----------------------------------------------------------


def _trajectory(system: TransferSystem, n: int) -> list:
    """The system's three-state vectors at lengths 1..n; a two-state system
    claims that no set is extendable."""
    pad = (0,) * (3 - len(system.initial_vector))
    return [vec + pad for vec in state_trajectory(system, n)]


def cross_check_family(family: Family) -> VerificationReport:
    """Run every registered check for one linear family: against the oracle
    at every length under AUDIT_CEILING, against the transfer system beyond."""
    registry = _registry(family)
    n_max_oracle = max_length_within(family, AUDIT_CEILING)
    system = paper_transfer_system(family)
    ctx = _Context(family, n_max_oracle, system, _trajectory(system, SYMBOLIC_MAX))
    return VerificationReport(
        scope=family.value,
        statuses=[check(claim, ctx) for claim, check in registry.values()],
    )


def ortho_square_contains(k: int) -> int:
    """s'(k): sets of the length-k ortho-square chain containing its terminal
    vertex, coefficient k - 1 of the chain's derived contains series."""
    contains = derived_state_gfs(Family.SQUARE_ORTHO)[STATE_CONTAINS]
    return gf_term(contains, k - 1)


def corrected_para_defect_value(m: int, n: int) -> int:
    """The para-defect formula plus s'(m)*s'(n), the sets containing both cut
    vertices of the defect square, which the published formula omits."""
    contains_both = ortho_square_contains(m) * ortho_square_contains(n)
    return defect_formula_value(Family.ORTHO_CHAIN_PARA_DEFECT, m, n) + contains_both


def check_defect_formula(
    family: Family, m: int, n: int, *, arms: Optional[int] = None
) -> ClaimStatus:
    """Compare a defect family's composition formula against the oracle at
    (m, n). The oracle reads the arms 1..arms (default n, and at least n) of
    the (m, *) chains in one pass, so one pass serves several n."""
    claim = defect_claim(family, m, n)
    arms = max(n, arms or n)
    require_oracle_fit(ChainSpec(family, m=m, n=arms))
    formula = defect_formula_value(family, m, n)
    oracle = _oracle_defect_count(family, m, arms)[n - 1]
    point = ((m, n), formula, oracle, "oracle")
    if formula == oracle:
        return ClaimStatus(claim, CONFIRMED, *point)
    return _judge(
        claim, point, refuted=lambda: _defect_correction(family, m, n, formula, oracle)
    )


def _defect_correction(
    family: Family, m: int, n: int, formula: int, oracle: int
) -> tuple[Optional[str], list[str]]:
    """The corrected statement, if any, and the notes of a refuted defect formula."""
    shifts = [
        (m + dm, n + dn)
        for dm in (-1, 0, 1)
        for dn in (-1, 0, 1)
        if (dm, dn) != (0, 0) and m + dm >= 1 and n + dn >= 1
        and defect_formula_value(family, m + dm, n + dn) == oracle
    ]
    if shifts:
        listed = ", ".join(f"({a},{b})" for a, b in shifts)
        details = [
            f"index shift(s) {listed} would reconcile the formula (possible transcription slip)"
        ]
    else:
        details = ["no single index shift (m+-1, n+-1) reconciles the formula"]
    if family is not Family.ORTHO_CHAIN_PARA_DEFECT:
        return None, details
    candidate = corrected_para_defect_value(m, n)
    if candidate != oracle:
        return None, details + ["boundary-class correction attempt did not reconcile"]
    return (
        "s(m)*s(n) + 2*s(m-1)*s(n-1) + s'(m)*s'(n), where s'(k) counts the "
        "length-k sets containing the terminal vertex; the extra product "
        "counts the sets containing both cut vertices of the defect "
        "square, possible because a para defect attaches them at "
        "opposite corners"
    ), details + [
        "adding the contains-both-cut-vertices case reconciles the "
        f"formula: {formula} + {ortho_square_contains(m)}*"
        f"{ortho_square_contains(n)} = {candidate}"
    ]


def check_defect_grid() -> VerificationReport:
    """Both defect formulas at every DEFECT_GRID point; the oracle reads each
    m's arms in one pass."""
    arms = max(n for _, n in DEFECT_GRID)
    statuses = [
        check_defect_formula(family, m, n, arms=arms)
        for family in DEFECT_FAMILIES for m, n in DEFECT_GRID
    ]
    return VerificationReport(scope="defects", statuses=statuses)


def verify_all() -> list[VerificationReport]:
    """Run every registered claim check; returns one report per family and
    one for the defect grid."""
    reports = [cross_check_family(family) for family in LINEAR_FAMILIES]
    reports.append(check_defect_grid())
    return reports


# -- report rendering --------------------------------------------------------


def _summary(statuses: Sequence[ClaimStatus]) -> dict:
    # no verdict is "unchecked" any more; the key stays, since the benchmark's
    # goldens and verdict pattern read it
    out = {"confirmed": 0, "refuted": 0, "formal_only": 0, "unchecked": 0}
    for status in statuses:
        out[status.verdict.replace("-", "_")] += 1
    return out


def _witness_text(witness: Witness) -> str:
    if isinstance(witness, tuple):
        return f"({witness[0]},{witness[1]})"
    return "" if witness is None else str(witness)


def errata_report(reports: Sequence[VerificationReport], format: str = "markdown") -> str:
    """Deterministic document listing every claim status, errata first."""
    statuses = sorted((s for r in reports for s in r.statuses), key=lambda s: s.claim.id)
    summary = _summary(statuses)
    if format == "json":
        import json

        doc = {
            "oracle_ceiling": AUDIT_CEILING,
            "summary": summary,
            "claims": [s.to_json_dict() for s in statuses],
        }
        return json.dumps(doc, indent=2)
    if format != "markdown":
        raise ValueError(f"unknown report format {format!r}")

    lines = ["# Claim verification report", ""]
    lines.append(f"Oracle ceiling: {AUDIT_CEILING} vertices.")
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
        lines.append(
            f"- witness: n = {_witness_text(s.witness)} "
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
        lines.append(
            f"| {s.claim.id} | {s.claim.kind} | {s.verdict} | {_witness_text(s.witness)} |"
        )
    lines.append("")
    return "\n".join(lines)
