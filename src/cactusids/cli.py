"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 resource limit (an oracle chain above
the oracle's 40-vertex cap, a ``count --n``/``--m`` above MAX_LENGTH, a
``build --n``/``--m`` above MAX_BUILD_LENGTH, or a ``sequence --max-n`` above
MAX_SEQUENCE_LENGTH), 3 when ``verify`` finds refuted claims (so CI can gate
on consistency), 141 (128 + SIGPIPE) when the reader closes stdout early, as
``| head`` does. ``verify`` takes no scope option: the oracle judges every
chain under the fixed ``verify.AUDIT_CEILING``. Output is deterministic:
identical invocations produce byte-identical output, and every count is
printed exactly, however many digits it has.
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
from .genfunc import gf_from_recurrence, recurrence_from_gf
from .graphs import OracleLimitError, count_ids
from .paper import (
    DEFECT_FORMULA,
    GAMMA_FORMULA,
    defect_formula_value,
    derived_gf,
    paper_gf,
    paper_recurrence,
    paper_transfer_system,
)
from .polynomials import format_gf, gf_to_json_dict
from .recurrences import eval_recurrence, run_transfer, state_trajectory
from .verify import (
    check_defect_formula,
    corrected_para_defect_value,
    defect_claim,
    errata_report,
    gamma_rows,
    require_oracle_fit,
    verify_all,
)

# Largest --n (and --m) that ``count`` accepts. Every count route other than
# the oracle takes O(log n) polynomial squarings. At n = 10^5 a count has up to
# about 62k digits, and computing plus printing hex-para's took 0.07 s by
# transfer and 0.22 s by recurrence (which also runs the transfer as its
# errata check), in-process on Python 3.11 and a 2-CPU Xeon. At 10^6 the
# transfer took 0.7 s and the decimal conversion of its 611k digits 5.2 s.
MAX_LENGTH = 100_000
# Largest ``sequence --max-n``. It keeps every count up to that length:
# hex-para prints 1.2 MB at 2000.
MAX_SEQUENCE_LENGTH = 2_000
# Largest --n (and --m) that ``build`` accepts. The bitset graph keeps one
# int per vertex as wide as its highest neighbour id, so memory grows as n^2:
# hex-para peaked at 31, 38 and 61 MB RSS at n = 1000, 2000 and 4000.
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
    for flag, value in (("--m", m), ("--n", args.n)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be at least 1")
    if family in LINEAR_FAMILIES:
        return ChainSpec(family, length=args.n)
    return ChainSpec(family, m=m, n=args.n)


def _warn_if_errata(family: Family, method: str, value: int, n: int, expected: int) -> None:
    if value != expected:
        claim = f"{family.value}-recurrence" if method == "recurrence" else f"{family.value}-gf"
        print(
            f"warning: {method} value {value} differs from the transfer system "
            f"value {expected} at n = {n}; the printed statement is a known "
            f"erratum (claim {claim})",
            file=sys.stderr,
        )


def _warn_if_defect_erratum(family: Family, m: int, n: int, value: int) -> None:
    if family is not Family.ORTHO_CHAIN_PARA_DEFECT:
        return
    corrected = corrected_para_defect_value(m, n)
    print(
        f"warning: formula value {value} differs from the corrected value "
        f"{corrected}, which adds the sets containing both cut vertices of the "
        f"defect square; the printed statement is a known erratum "
        f"(claim {defect_claim(family, m, n).id})",
        file=sys.stderr,
    )


def _print_json(doc: dict) -> None:
    import json

    print(json.dumps(doc, indent=2))


def _check_length(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise LengthLimitError(f"{flag} {value} is above the cap {cap}")


def _oracle_count(spec: ChainSpec) -> int:
    # refuse before building: a long chain's bitset graph alone can exhaust memory
    require_oracle_fit(spec)
    return count_ids(build_chain(spec).graph)


def _prints_errata(method: str, gf_source: str) -> bool:
    """Whether a route reads a published statement that may be an erratum."""
    return method == "recurrence" or (method == "gf" and gf_source == "paper")


def _linear_count(family: Family, n: int, method: str, gf_source: str) -> int:
    if method == "oracle":
        return _oracle_count(ChainSpec(family, length=n))
    if method == "transfer":
        return run_transfer(paper_transfer_system(family), n)
    if method == "recurrence":
        value = eval_recurrence(paper_recurrence(family), n)
    else:
        gf = paper_gf(family) if gf_source == "paper" else derived_gf(family)
        # coefficient n in O(log n) polynomial squarings, from the recurrence
        # the GF's denominator defines and the GF's own leading coefficients
        value = eval_recurrence(recurrence_from_gf(gf), n)
    if _prints_errata(method, gf_source):
        expected = run_transfer(paper_transfer_system(family), n)
        _warn_if_errata(family, method, value, n, expected)
    return value


def _cmd_count(parser, args) -> int:
    spec = _parse_spec(parser, args)
    family = spec.family
    if family in LINEAR_FAMILIES:
        if args.method == "formula":
            parser.error("--method formula applies only to defect families")
        _check_length("--n", args.n, MAX_LENGTH)
        value = _linear_count(family, args.n, args.method, args.gf_source)
    else:
        if args.method not in ("oracle", "formula"):
            parser.error(
                "defect families support --method oracle or formula, "
                f"not {args.method}"
            )
        _check_length("--m", spec.m, MAX_LENGTH)
        _check_length("--n", spec.n, MAX_LENGTH)
        if args.method == "oracle":
            value = _oracle_count(spec)
        else:
            value = defect_formula_value(family, spec.m, spec.n)
            _warn_if_defect_erratum(family, spec.m, spec.n, value)
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


def _transfer_counts(family: Family, max_n: int) -> list[int]:
    """Counts at lengths 1..max_n by stepping the family's transfer system."""
    system = paper_transfer_system(family)
    return [system.count(v) for v in state_trajectory(system, max_n)]


def _cmd_sequence(parser, args) -> int:
    family = Family(args.family)
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")
    _check_length("--max-n", args.max_n, MAX_SEQUENCE_LENGTH)
    lengths = range(1, args.max_n + 1)
    if args.method == "oracle":
        # refuse the longest chain before building any shorter one
        require_oracle_fit(ChainSpec(family, length=args.max_n))
        counts = [_oracle_count(ChainSpec(family, length=n)) for n in lengths]
    elif args.method == "transfer":
        counts = _transfer_counts(family, args.max_n)
    elif args.method == "recurrence":
        counts = gf_from_recurrence(paper_recurrence(family)).series(args.max_n)[1:]
    else:
        gf = paper_gf(family) if args.gf_source == "paper" else derived_gf(family)
        counts = gf.series(args.max_n)[1:]
    if _prints_errata(args.method, args.gf_source):
        reference = _transfer_counts(family, args.max_n)
        for n, value, expected in zip(lengths, counts, reference):
            _warn_if_errata(family, args.method, value, n, expected)
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
    family = Family(args.family)
    gf = paper_gf(family) if args.source == "paper" else derived_gf(family)
    if args.format == "json":
        doc = {"family": args.family, "source": args.source, "text": format_gf(gf)}
        doc.update(gf_to_json_dict(gf))
        _print_json(doc)
    else:
        print(format_gf(gf))
    return 0


def _cmd_build(parser, args) -> int:
    spec = _parse_spec(parser, args)
    _check_length("--n", args.n, MAX_BUILD_LENGTH)
    if args.m is not None:
        _check_length("--m", args.m, MAX_BUILD_LENGTH)
    chain = build_chain(spec)
    if args.format == "json":
        _print_json(to_json_dict(spec, chain))
    else:
        print(to_edge_list_text(spec, chain))
    return 0


def _cmd_gamma(parser, args) -> int:
    family = Family(args.family)
    if args.max_n is not None and args.max_n < 1:
        parser.error("--max-n must be at least 1")
    rows = gamma_rows(family, args.max_n)
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
    if args.m < 1 or args.n < 1:
        parser.error("--m and --n must be at least 1")
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
    refuted = sum(1 for r in reports for s in r.statuses if s.verdict == "refuted")
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
