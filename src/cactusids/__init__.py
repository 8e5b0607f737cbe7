"""Exact counting and verification of independent dominating sets in cactus chains.

Three routes compute every count: a brute-force oracle over the built graphs,
integer transfer systems, and rational generating functions. Only the oracle
reads the graph; the derived generating functions and recurrences are read
off the transfer systems (their characteristic polynomial and first terms),
so they cross-check that arithmetic, not the systems. The paper module holds
every published statement as printed; the verify module judges each against
the routes and reports every discrepancy with a witness.
"""

from .chains import (
    ChainSpec,
    Family,
    LabeledChain,
    build_chain,
    expected_vertex_count,
)
from .genfunc import (
    GFLinearSystem,
    GrowthEstimate,
    NoRealDominantRootError,
    SingularSystemError,
    dominant_growth_rate,
    gf_from_recurrence,
    recurrence_from_gf,
    solve_gf_system,
)
from .graphs import (
    BoundaryCounts,
    Graph,
    OracleLimitError,
    count_boundary_classes,
    count_ids,
    enumerate_mis,
    independent_domination_number,
)
from .paper import (
    derived_gf,
    derived_recurrence,
    derived_state_gfs,
    paper_gf,
    paper_gf_system,
    paper_recurrence,
    paper_state_gfs,
    paper_transfer_system,
)
from .polynomials import Polynomial, RationalGF, format_gf, poly_gcd
from .recurrences import (
    LinearRecurrence,
    TransferSystem,
    eval_recurrence,
    run_transfer,
    state_trajectory,
    transfer_state,
)
from .verify import (
    Claim,
    ClaimStatus,
    VerificationReport,
    check_defect_formula,
    check_gamma_formula,
    cross_check_family,
    errata_report,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCounts",
    "ChainSpec",
    "Claim",
    "ClaimStatus",
    "Family",
    "GFLinearSystem",
    "Graph",
    "GrowthEstimate",
    "LabeledChain",
    "LinearRecurrence",
    "NoRealDominantRootError",
    "OracleLimitError",
    "Polynomial",
    "RationalGF",
    "SingularSystemError",
    "TransferSystem",
    "VerificationReport",
    "build_chain",
    "check_defect_formula",
    "check_gamma_formula",
    "count_boundary_classes",
    "count_ids",
    "cross_check_family",
    "derived_gf",
    "derived_recurrence",
    "derived_state_gfs",
    "dominant_growth_rate",
    "enumerate_mis",
    "errata_report",
    "eval_recurrence",
    "expected_vertex_count",
    "format_gf",
    "gf_from_recurrence",
    "independent_domination_number",
    "paper_gf",
    "paper_gf_system",
    "paper_recurrence",
    "paper_state_gfs",
    "paper_transfer_system",
    "poly_gcd",
    "recurrence_from_gf",
    "run_transfer",
    "solve_gf_system",
    "state_trajectory",
    "transfer_state",
    "verify_all",
]
