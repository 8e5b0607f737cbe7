"""The benchmark's three workloads: their ops, input draws, goldens and set-up.

Each workload is a list of ops, split into two groups ("a" and "b") whose
times are reported separately, and into batches (one request each) whose
latencies give the tail. The seed draws the input sizes from the stated
ranges and shuffles the op order; the program only ever sees the generated
inputs.

* ``cli`` - fresh-process ``cactusids`` calls. Group a: the full claim audit
  (``verify --report json|markdown``, default ceiling 26 and symbolic max
  30). Group b: the README command tour at small sizes. Most audit time is
  the 2^n subset scan (``auto`` scans up to 20 vertices); most tour time is
  interpreter start and ``import cactusids``.
* ``oracle-large`` - in-process oracle calls on chains of 21 to 40
  vertices, so ``auto`` always picks the pivot oracle and the scan never
  runs. Group a counts (``count_ids``, ``count_boundary_classes``); group b
  enumerates (``enumerate_mis``, ``independent_domination_number``).
* ``long-chain`` - in-process exact counting far above the oracle ceiling;
  the oracle is never called. Group a computes one count per op at n from
  5000 to 20000 (``run_transfer``, ``eval_recurrence`` on the paper and the
  derived recurrence); group b keeps every term up to about 1500
  (``state_trajectory``, ``RationalGF.series`` of the paper and derived GFs).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("cli", "oracle-large", "long-chain")

LINEAR = ("tri", "sq-para", "sq-ortho", "hex-ortho", "hex-meta", "hex-para")
DEFECTS = ("p-defect", "s-defect")

# oracle-large: the largest linear length with at most 40 vertices, and the
# defect arm totals m + n giving 34, 37 and 40 vertices
ORACLE_LENGTH = {"tri": 19, "sq-para": 13, "sq-ortho": 13,
                 "hex-ortho": 7, "hex-meta": 7, "hex-para": 7}
DEFECT_ARM_TOTALS = (10, 11, 12)

# long-chain point group: every n lies on this grid, so goldens cover every
# draw. Each family gets a pair n1, n2 with n1^2 + n2^2 = 5000^2 + 20000^2:
# the cost of a count grows about as n^2, so the work of a pass hardly
# depends on the seed. n1 is drawn from 5000..10000, which keeps n2 within
# 18028..20000 and so the peak memory (all terms up to n2) steady too.
POINT_MIN, POINT_MAX, POINT_STEP = 5000, 20000, 250
# long-chain prefix group: N terms, N drawn from this grid
PREFIX_MIN, PREFIX_MAX, PREFIX_STEP = 1450, 1550, 10

VERDICT_KEY = "verdicts"


# -- digests ------------------------------------------------------------------


def _text(value) -> str:
    if isinstance(value, int):
        return format(value, "x")
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    if isinstance(value, tuple):
        return "(" + ",".join(_text(v) for v in value) + ")"
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(values) -> str:
    """128-bit sha256 prefix of the hex rendering of a value or sequence."""
    h = hashlib.sha256()
    if isinstance(values, list):
        for v in values:
            h.update(_text(v).encode())
            h.update(b",")
    else:
        h.update(_text(values).encode())
    return h.hexdigest()[:32]


# -- ops ------------------------------------------------------------------------


@dataclass
class Op:
    """One call into the program plus what its result must equal.

    ``facets`` turns the result into named strings. Each facet named in
    ``golden`` must equal that golden entry; each facet in ``refs`` must equal
    a value computed, untimed, by another route. Ops that share a golden key
    assert a cross-route identity.
    """

    key: str
    group: str  # "a" or "b"
    batch: str  # the request this op belongs to
    call: Callable[[], object]
    facets: Callable[[object], dict]
    golden: dict
    refs: dict = field(default_factory=dict)
    fresh: bool = False  # clear the package caches first, as a new process would


def _package():
    """The cactusids package; ops look functions up on it at call time, so a
    traced run sees the tracer's wrappers."""
    import cactusids

    return cactusids


def _family(flag: str):
    return _package().Family(flag)


# -- cli --------------------------------------------------------------------------

VERIFY_ARGV = (("verify", "--report", "json"), ("verify", "--report", "markdown"))

# README command tour, each template with the parameter ranges a seed draws from
TOUR = {
    "count": lambda f, n: ("count", "--family", f, "--n", str(n), "--method", "transfer"),
    "count-oracle": lambda n: ("count", "--family", "tri", "--n", str(n), "--method", "oracle"),
    "sequence": lambda f, n: ("sequence", "--family", f, "--max-n", str(n), "--format", "csv"),
    "gf": lambda f, s: ("gf", "--family", f, "--source", s),
    "build": lambda m, n: ("build", "--family", "p-defect", "--m", str(m), "--n", str(n),
                           "--format", "json"),
    "gamma": lambda f, n: ("gamma", "--family", f, "--max-n", str(n)),
    "defect": lambda f, m, n: ("defect", "--family", f, "--m", str(m), "--n", str(n)),
}
TOUR_PARAMS = {
    "count": (LINEAR, range(1, 13)),
    "count-oracle": (range(4, 8),),
    "sequence": (LINEAR, range(4, 9)),
    "gf": (LINEAR, ("paper", "derived")),
    "build": (range(1, 4), range(1, 4)),
    "gamma": (("tri", "hex-ortho", "hex-meta"), range(2, 5)),
    "defect": (DEFECTS, range(1, 3), range(1, 3)),
}
TOUR_REPEATS = 2  # each template this often per pass; the seed draws the parameters

_VERDICTS_MD = re.compile(
    r"Verdicts: confirmed (\d+), refuted (\d+), formal-only (\d+), unchecked (\d+)\.")


def _verdicts(stdout: bytes, report: str) -> str:
    text = stdout.decode()
    if report == "json":
        s = json.loads(text)["summary"]
        counts = (s["confirmed"], s["refuted"], s["formal_only"], s["unchecked"])
    else:
        match = _VERDICTS_MD.search(text)
        counts = match.groups() if match else ("?",) * 4
    return "/".join(str(c) for c in counts)


def cli_env(src: str) -> dict:
    """The caller's environment with only the checkout's package importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    return env


def _fresh_cli(argv, src):
    def call():
        proc = subprocess.run([sys.executable, "-m", "cactusids.cli", *argv],
                              capture_output=True, env=cli_env(src), timeout=170)
        return proc.stdout, proc.returncode
    return call


def _inproc_cli(argv):
    def call():
        from cactusids import cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return out.getvalue().encode(), code
    return call


def _cli_op(argv, group, inproc, src) -> Op:
    """A command whose stdout must hash, with its exit code, to the golden."""
    key = " ".join(argv)
    golden = {"value": key}
    if argv[0] == "verify":
        golden[VERDICT_KEY] = VERDICT_KEY

    def facets(result):
        stdout, code = result
        out = {"value": f"{hashlib.sha256(stdout).hexdigest()}/{code}"}
        if argv[0] == "verify":
            out[VERDICT_KEY] = _verdicts(stdout, argv[2])
        return out

    call = _inproc_cli(argv) if inproc else _fresh_cli(argv, src)
    return Op(key, group, key, call, facets, golden, fresh=inproc)


def _all_tour_argv():
    import itertools

    for name, params in TOUR_PARAMS.items():
        for combo in itertools.product(*params):
            yield TOUR[name](*combo)


def _cli_ops(rng, inproc, src):
    tour = [TOUR[name](*(rng.choice(list(p)) for p in TOUR_PARAMS[name]))
            for name in TOUR for _ in range(TOUR_REPEATS)]
    ops = [_cli_op(a, "a", inproc, src) for a in VERIFY_ARGV]
    ops += [_cli_op(a, "b", inproc, src) for a in tour]
    return ops, {"verify": [" ".join(a) for a in VERIFY_ARGV], "tour": [" ".join(a) for a in tour]}


# -- oracle-large -------------------------------------------------------------------


def _oracle_ops(spec_args, fam):
    """Count and enumeration ops on one chain of 21..40 vertices."""
    pkg = _package()
    spec = pkg.ChainSpec(_family(fam), **spec_args)
    tag = "/".join([fam] + [str(v) for v in spec_args.values()])
    count_key = f"count/{tag}"

    def boundary():
        chain = pkg.build_chain(spec)
        return pkg.count_boundary_classes(chain.graph, chain.terminal_vertex)

    ops = [
        Op(f"count_ids/{tag}", "a", f"count/{fam}",
           lambda: pkg.count_ids(pkg.build_chain(spec).graph),
           lambda c: {"count": str(c)}, {"count": count_key}),
        Op(f"count_boundary_classes/{tag}", "a", f"count/{fam}", boundary,
           lambda b: {"value": f"{b.in_count},{b.out_count},{b.extendable_count}",
                      "count": str(b.in_count + b.out_count)},
           {"value": f"boundary/{tag}", "count": count_key}),
    ]
    if "length" in spec_args:
        # cross-route: the oracle count of a linear chain equals its transfer count
        ops[0].refs["count"] = str(pkg.run_transfer(pkg.paper_transfer_system(spec.family),
                                                    spec.length))
        ops += [
            Op(f"enumerate_mis/{tag}", "b", f"enum/{fam}",
               lambda: list(pkg.enumerate_mis(pkg.build_chain(spec).graph)),
               lambda masks: {"value": digest(masks), "count": str(len(masks))},
               {"value": f"mis/{tag}", "count": count_key}),
            Op(f"independent_domination_number/{tag}", "b", f"enum/{fam}",
               lambda: pkg.independent_domination_number(pkg.build_chain(spec).graph),
               lambda g: {"value": str(g)}, {"value": f"gamma/{tag}"}),
        ]
    return ops


def _oracle_large_ops(rng, all_sizes=False):
    ops, sizes = [], {}
    for fam in LINEAR:
        ops += _oracle_ops({"length": ORACLE_LENGTH[fam]}, fam)
        sizes[fam] = ORACLE_LENGTH[fam]
    for fam in DEFECTS:
        sizes[fam] = []
        for total in DEFECT_ARM_TOTALS:
            arms = range(1, total) if all_sizes else [rng.randint(1, total - 1)]
            for m in arms:
                ops += _oracle_ops({"m": m, "n": total - m}, fam)
                sizes[fam].append([m, total - m])
    return ops, sizes


# -- long-chain ----------------------------------------------------------------------


def _snap(value, lo, hi, step) -> int:
    return min(hi, max(lo, lo + round((value - lo) / step) * step))


def point_pair(rng) -> tuple[int, int]:
    """n1 uniform in [5000, 10000]; n2 in [18028, 20000] completes the sum of squares."""
    total = POINT_MIN ** 2 + POINT_MAX ** 2
    n1 = rng.uniform(POINT_MIN, 2 * POINT_MIN)
    n2 = math.sqrt(total - n1 * n1)
    return (_snap(n1, POINT_MIN, POINT_MAX, POINT_STEP),
            _snap(n2, POINT_MIN, POINT_MAX, POINT_STEP))


def _point_ops(fam, n):
    pkg = _package()
    family = _family(fam)
    count = lambda v: {"count": digest(v)}  # noqa: E731
    tag = f"{fam}/{n}"
    batch = f"point/{fam}"
    return [
        Op(f"run_transfer/{tag}", "a", batch,
           lambda: pkg.run_transfer(pkg.paper_transfer_system(family), n), count,
           {"count": f"count/{tag}"}),
        # cross-route: the derived recurrence must give the transfer count
        Op(f"eval_recurrence/derived/{tag}", "a", batch,
           lambda: pkg.eval_recurrence(pkg.derived_recurrence(family), n), count,
           {"count": f"count/{tag}"}),
        Op(f"eval_recurrence/paper/{tag}", "a", batch,
           lambda: pkg.eval_recurrence(pkg.paper_recurrence(family), n),
           lambda v: {"value": digest(v)}, {"value": f"paper-rec/{tag}"}),
    ]


def _prefix_ops(fam, n_terms):
    pkg = _package()
    family = _family(fam)
    tag = f"{fam}/{n_terms}"
    batch = f"prefix/{fam}"

    def trajectory_facets(states):
        weights = pkg.paper_transfer_system(family).output_weights
        counts = [0] + [sum(w * v for w, v in zip(weights, s)) for s in states]
        return {"value": digest(states), "counts": digest(counts)}

    return [
        # cross-route: weighted transfer states equal the derived GF coefficients
        Op(f"state_trajectory/{tag}", "b", batch,
           lambda: pkg.state_trajectory(pkg.paper_transfer_system(family), n_terms),
           trajectory_facets, {"value": f"trajectory/{tag}", "counts": f"series/{tag}"}),
        Op(f"series/derived/{tag}", "b", batch,
           lambda: pkg.derived_gf(family).series(n_terms),
           lambda s: {"counts": digest(s)}, {"counts": f"series/{tag}"}),
        Op(f"series/paper/{tag}", "b", batch,
           lambda: pkg.paper_gf(family).series(n_terms),
           lambda s: {"value": digest(s)}, {"value": f"paper-series/{tag}"}),
    ]


def _long_chain_ops(rng, all_sizes=False):
    ops, sizes = [], {}
    for fam in LINEAR:
        if all_sizes:
            points = range(POINT_MIN, POINT_MAX + 1, POINT_STEP)
            prefixes = range(PREFIX_MIN, PREFIX_MAX + 1, PREFIX_STEP)
        else:
            points = point_pair(rng)
            prefixes = [_snap(rng.uniform(PREFIX_MIN, PREFIX_MAX),
                              PREFIX_MIN, PREFIX_MAX, PREFIX_STEP)]
        for n in points:
            ops += _point_ops(fam, n)
        for n_terms in prefixes:
            ops += _prefix_ops(fam, n_terms)
        sizes[fam] = {"point_n": list(points), "prefix_terms": list(prefixes)}
    return ops, sizes


# -- entry points -----------------------------------------------------------------------


def build_ops(workload: str, rng, inproc: bool, src: str):
    """The ops of one run and the sizes drawn for it."""
    if workload == "cli":
        return _cli_ops(rng, inproc, src)
    if workload == "oracle-large":
        return _oracle_large_ops(rng)
    if workload == "long-chain":
        return _long_chain_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def all_ops(workload: str, src: str):
    """Every op any seed can draw, for capturing goldens."""
    if workload == "cli":
        argvs = list(VERIFY_ARGV) + list(_all_tour_argv())
        return [_cli_op(a, "a" if a[0] == "verify" else "b", False, src) for a in argvs]
    if workload == "oracle-large":
        return _oracle_large_ops(None, all_sizes=True)[0]
    return _long_chain_ops(None, all_sizes=True)[0]


# Per workload, the Python source that imports the package and fills the lazy
# caches a user pays for once. It uses only the package, so a fresh
# interpreter running it times the program's set-up and none of the benchmark.
WARM_UP = {
    "cli": "import cactusids.cli",
    "oracle-large": "import cactusids",
    "long-chain": (
        f"import cactusids\nfor flag in {LINEAR!r}:\n"
        "    family = cactusids.Family(flag)\n"
        "    cactusids.paper_transfer_system(family)\n"
        "    cactusids.derived_recurrence(family)\n"
        "    cactusids.derived_gf(family)\n"
    ),
}


def warm_up(workload: str) -> None:
    exec(WARM_UP[workload], {})


def package_caches() -> dict:
    """Every lru_cache of the package, by function name."""
    import cactusids.cli  # noqa: F401

    caches = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("cactusids."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    caches[attr] = value
    return caches
