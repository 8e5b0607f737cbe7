"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 resource limit (a length above its
route's cap: MAX_LENGTH for ``count --n``/``--m`` on a closed-form route,
MAX_BUILD_LENGTH for every other length; or a graph wider than the oracle's
frontier limit, which no chain is), 3 when ``verify`` finds refuted claims
(so CI can gate on consistency), 141 (128 + SIGPIPE) when the reader closes
stdout early, as ``| head`` does. Every ``--m``, ``--n`` and ``--max-n`` is
checked in one place, right after parsing: below 1 is a usage error, above
its route's cap a resource limit. The same check refuses ``--gf-source
paper`` with any method but gf as a usage error. Every linear-family route
but the oracle reads one generating function: ``count`` its term n,
``sequence`` its prefix, and ``gf`` prints it. ``verify`` takes no scope
option: the oracle judges every chain under the fixed
``verify.AUDIT_CEILING``. Output is deterministic: identical invocations
produce byte-identical output, and every count is printed exactly, however
many digits it has.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Optional

from .chains import (
    ChainSpec,
    DEFECT_FAMILIES,
    Family,
    LINEAR_FAMILIES,
    build_chain,
    to_edge_list_text,
    to_json_dict,
)
from .graphs import OracleLimitError, count_ids
from .paper import (
    DEFECT_FORMULA,
    GAMMA_FORMULA,
    _oracle_profile,
    defect_formula_value,
    derived_gf,
    paper_gf,
    paper_recurrence,
    paper_transfer_system,
)
from .polynomials import RationalGF, format_gf, gf_to_json_dict
from .recurrences import gf_from_recurrence, gf_term, transfer_gf
from .verify import (
    check_defect_formula,
    corrected_para_defect_value,
    defect_claim,
    errata_report,
    gamma_rows,
    verify_all,
)

# Largest --n (and --m) of ``count``'s closed-form routes, every route but
# the oracle, each of which takes O(log n) polynomial squarings. At n = 10^5
# a count has up to about 62k digits, and computing plus printing
# hex-para's took 0.08 s by transfer and 0.16 s by recurrence (which also
# runs the transfer as its errata check and prints its value in the
# warning), in-process on Python 3.11.7 and a 2-CPU machine; the count itself
# took 0.010 s, the rest is decimal conversion. At 10^6 the transfer took
# 0.40 s and the decimal conversion of its 611k digits 5.4 s.
MAX_LENGTH = 100_000
# Largest length of every other route: ``count``'s oracle, ``sequence``,
# ``build``, ``gamma`` and ``defect``. A route that builds a chain keeps one
# int per vertex as wide as its highest neighbour id, so memory grows as n^2:
# ``build`` of hex-para peaked at 31, 38 and 61 MB RSS at n = 1000, 2000 and
# 4000; the oracle's work per vertex is bounded by ``graphs.DP_MAX_WIDTH``,
# and every oracle route at 2000 takes well under a second. ``sequence``
# prints the decimal text of every count up to its length: hex-para's is
# 1.2 MB at 2000, in about 18 ms in-process, of which about 14 ms is decimal
# conversion and 0.8 ms the series (Python 3.11.7, 2-CPU machine).
MAX_BUILD_LENGTH = 2_000


class LengthLimitError(RuntimeError):
    """Raised when a requested length is above the documented cap."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cactusids", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    linear_flags = sorted(f.value for f in LINEAR_FAMILIES)
    all_flags = sorted(f.value for f in Family)
    defect_flags = sorted(f.value for f in DEFECT_FAMILIES)

    p = sub.add_parser("count", help="count independent dominating sets")
    p.add_argument("--family", required=True, choices=all_flags)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="first arm length (defect families)")
    p.add_argument(
        "--method",
        default="transfer",
        choices=["oracle", "transfer", "recurrence", "gf", "formula"],
    )
    p.add_argument("--gf-source", default="derived", choices=["derived", "paper"])
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("sequence", help="print the count sequence up to a length")
    p.add_argument("--family", required=True, choices=linear_flags)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--method", default="transfer", choices=["oracle", "transfer", "recurrence", "gf"]
    )
    p.add_argument("--gf-source", default="derived", choices=["derived", "paper"])
    p.add_argument("--format", default="csv", choices=["csv", "json"])

    p = sub.add_parser("gf", help="print a generating function")
    p.add_argument("--family", required=True, choices=linear_flags)
    p.add_argument("--source", default="derived", choices=["derived", "paper"])
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("build", help="emit a chain graph as edge list or JSON")
    p.add_argument("--family", required=True, choices=all_flags)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--format", default="edges", choices=["edges", "json"])

    p = sub.add_parser("gamma", help="independence domination numbers vs formula")
    p.add_argument("--family", required=True, choices=[f.value for f in GAMMA_FORMULA])
    p.add_argument("--max-n", type=int)
    p.add_argument("--format", default="table", choices=["table", "json"])

    p = sub.add_parser("defect", help="evaluate a defect formula against the oracle")
    p.add_argument("--family", required=True, choices=defect_flags)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="table", choices=["table", "json"])

    p = sub.add_parser("verify", help="run the full claim verification suite")
    p.add_argument("--report", default="markdown", choices=["markdown", "json"])
    return parser


def _parse_spec(parser, args) -> ChainSpec:
    family = Family(args.family)
    m = getattr(args, "m", None)
    if family in LINEAR_FAMILIES and m is not None:
        parser.error(f"--m is only valid for defect families, not {args.family}")
    if family not in LINEAR_FAMILIES and m is None:
        parser.error(f"{args.family} requires --m and --n")
    if family in LINEAR_FAMILIES:
        return ChainSpec(family, length=args.n)
    return ChainSpec(family, m=m, n=args.n)


def _warn_of_erratum(method: str, value, reference: str, claim_id: str) -> None:
    print(
        f"warning: {method} value {value} differs from {reference}; the printed "
        f"statement is a known erratum (claim {claim_id})",
        file=sys.stderr,
    )


def _print_json(doc: dict) -> None:
    import json

    print(json.dumps(doc, indent=2))


def _refuse_bad_args(parser, args) -> None:
    """``--gf-source paper`` with a method other than gf, which would not read
    it, is a usage error. Every length flag: below 1 a usage error, above its
    route's cap a resource limit: MAX_LENGTH for ``count``'s closed-form
    routes, MAX_BUILD_LENGTH for every other."""
    if getattr(args, "gf_source", None) == "paper" and args.method != "gf":
        parser.error(f"--gf-source paper applies only to --method gf, not {args.method}")
    lengths = [(flag, getattr(args, flag[2:].replace("-", "_"), None))
               for flag in ("--m", "--n", "--max-n")]
    lengths = [(flag, value) for flag, value in lengths if value is not None]
    for flag, value in lengths:
        if value < 1:
            parser.error(f"{flag} must be at least 1")
    closed_form = args.command == "count" and args.method != "oracle"
    cap = MAX_LENGTH if closed_form else MAX_BUILD_LENGTH
    for flag, value in lengths:
        if value > cap:
            raise LengthLimitError(f"{flag} {value} is above the cap {cap}")


def _route_gf(family: Family, method: str, gf_source: str) -> tuple[RationalGF, Optional[str]]:
    """The generating function a linear route reads, whose coefficient n is
    the count at length n (a printed recurrence's formal a(0) is coefficient
    0), and the id of the printed claim it reads, which may be an erratum, or
    None when the route reads no printed claim."""
    if method == "transfer":
        return transfer_gf(paper_transfer_system(family)), None
    if method == "recurrence":
        return gf_from_recurrence(paper_recurrence(family)), f"{family.value}-recurrence"
    if gf_source == "paper":
        return paper_gf(family), f"{family.value}-gf"
    return derived_gf(family), None


def _route_counts(family: Family, args, lengths, read) -> list:
    """The counts at ``lengths`` that ``read`` takes from the route's GF: ints
    for JSON output, else their decimal text, converted once (a far count's
    conversion costs more than the count). A route that reads a printed
    claim warns at each length where it differs from the transfer GF, read
    the same way."""
    gf, claim_id = _route_gf(family, args.method, args.gf_source)
    counts = read(gf)
    shown = counts if args.format == "json" else [str(c) for c in counts]
    if claim_id is not None:
        reference = read(_route_gf(family, "transfer", args.gf_source)[0])
        for n, value, text, expected in zip(lengths, counts, shown, reference):
            if value != expected:
                reference_text = f"the transfer system value {expected} at n = {n}"
                _warn_of_erratum(args.method, text, reference_text, claim_id)
    return shown


def _cmd_count(parser, args) -> int:
    spec = _parse_spec(parser, args)
    family = spec.family
    if family in LINEAR_FAMILIES and args.method == "formula":
        parser.error("--method formula applies only to defect families")
    if family not in LINEAR_FAMILIES and args.method not in ("oracle", "formula"):
        parser.error(
            f"defect families support --method oracle or formula, not {args.method}"
        )
    if args.method == "oracle":
        value = count_ids(build_chain(spec).graph)
    elif args.method == "formula":
        value = defect_formula_value(family, spec.m, spec.n)
        if family is Family.ORTHO_CHAIN_PARA_DEFECT:
            corrected = corrected_para_defect_value(spec.m, spec.n)
            _warn_of_erratum(
                "formula", value,
                f"the corrected value {corrected}, which adds the sets containing both "
                "cut vertices of the defect square",
                defect_claim(family, spec.m, spec.n).id,
            )
    else:
        [value] = _route_counts(family, args, [args.n], lambda gf: [gf_term(gf, args.n)])
    if args.format == "json":
        doc = {"family": args.family, "method": args.method, "count": value}
        if family in LINEAR_FAMILIES:
            doc["n"] = args.n
            if args.method == "gf":
                doc["gf_source"] = args.gf_source
        else:
            doc["m"], doc["n"] = spec.m, spec.n
        _print_json(doc)
    else:
        print(value)
    return 0


def _cmd_sequence(parser, args) -> int:
    family = Family(args.family)
    lengths = range(1, args.max_n + 1)
    if args.method == "oracle":
        # one pass over the longest chain: its prefixes are the shorter ones
        counts = [p.count for p in _oracle_profile(family, args.max_n)]
    else:
        counts = _route_counts(family, args, lengths, lambda gf: gf.series(args.max_n)[1:])
    if args.format == "json":
        doc = {
            "family": args.family,
            "method": args.method,
            "counts": [{"n": n, "count": c} for n, c in zip(lengths, counts)],
        }
        _print_json(doc)
    else:
        print("n,count")
        for n, count in zip(lengths, counts):
            print(f"{n},{count}")
    return 0


def _cmd_gf(parser, args) -> int:
    gf, _ = _route_gf(Family(args.family), "gf", args.source)
    if args.format == "json":
        doc = {"family": args.family, "source": args.source, "text": format_gf(gf)}
        doc.update(gf_to_json_dict(gf))
        _print_json(doc)
    else:
        print(format_gf(gf))
    return 0


def _cmd_build(parser, args) -> int:
    spec = _parse_spec(parser, args)
    chain = build_chain(spec)
    if args.format == "json":
        _print_json(to_json_dict(spec, chain))
    else:
        print(to_edge_list_text(spec, chain))
    return 0


def _cmd_gamma(parser, args) -> int:
    rows = gamma_rows(Family(args.family), args.max_n)
    if args.format == "json":
        doc = {
            "family": args.family,
            "rows": [
                {"n": n, "formula_value": f, "oracle_value": o, "match": f == o}
                for n, f, o in rows
            ],
        }
        _print_json(doc)
    else:
        print("n,formula,oracle,match")
        for n, f, o in rows:
            print(f"{n},{f},{o},{'yes' if f == o else 'NO'}")
    return 0


def _cmd_defect(parser, args) -> int:
    family = Family(args.family)
    status = check_defect_formula(family, args.m, args.n)
    if args.format == "json":
        _print_json(status.to_json_dict())
    else:
        print(f"kind: {DEFECT_FORMULA[family][0]}")
        print(f"m: {args.m}")
        print(f"n: {args.n}")
        print(f"formula: {status.claimed_value}")
        print(f"oracle: {status.oracle_value}")
        print(f"verdict: {status.verdict}")
        if status.corrected:
            print(f"corrected: {status.corrected}")
        for note in status.details:
            print(f"note: {note}")
    return 0


def _cmd_verify(parser, args) -> int:
    reports = verify_all()
    print(errata_report(reports, format=args.report))
    refuted = sum(len(r.refuted()) for r in reports)
    return 3 if refuted else 0


_HANDLERS = {
    "count": _cmd_count,
    "sequence": _cmd_sequence,
    "gf": _cmd_gf,
    "build": _cmd_build,
    "gamma": _cmd_gamma,
    "defect": _cmd_defect,
    "verify": _cmd_verify,
}


@contextmanager
def _exact_int_text():
    """Lift the interpreter's int-to-str digit limit (4300 digits by default,
    absent before Python 3.10.7) for the call, so counts print exactly."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_bad_args(parser, args)
        with _exact_int_text():
            return _HANDLERS[args.command](parser, args)
    except SystemExit as exc:
        # argparse paths: usage errors exit 1 (see _Parser), --help exits 0
        return exc.code if isinstance(exc.code, int) else 1
    except (OracleLimitError, LengthLimitError) as exc:
        print(f"cactusids: resource limit: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the flush at shutdown
        # finds nothing to complain about, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
