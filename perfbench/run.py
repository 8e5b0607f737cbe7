"""Benchmark for cactusids: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run imports the package from ``src/`` of the same checkout, draws its
inputs from ``--seed``, repeats the workload's op list (one pass) until
``--seconds`` have elapsed, checks every op result against
``perfbench/goldens.json`` and prints one line per metric, then a JSON
object as the last line of stdout. Load is a closed loop: one client in one
process, no threads, at most one child process at a time.

With ``--trace 0`` the JSON holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a separate traced run (see tracing.py).
Spans and a stamped result file go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

SETUP_RUNS = 9
IMPORT_RUNS = 3
# peak_rss_mb is read after this many passes: with the program's normal
# garbage collection, a run of more passes would report a higher peak.
PEAK_PASSES = 2

# The machine's speed drifts by tens of percent over seconds (shared cores), so
# every end-to-end time is reported at a reference speed: wall time times
# CAL_REF_S over the calibration loop's time measured next to it.
CAL_REF_S = 0.0035
CAL_INTERVAL_S = 0.1

# End-to-end metrics. The group and tail metrics have one name for every
# workload; ALIASES gives what each one measures on each workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "group_a_s": "s",
    "group_b_s": "s",
    "tail_s": "s",
}
ALIASES = {
    "cli": {"group_a_s": "verify_s", "group_b_s": "cli_p50_s", "tail_s": "cli_tail_s"},
    "oracle-large": {"group_a_s": "oracle_count_s", "group_b_s": "oracle_enum_s",
                     "tail_s": "oracle_slowest_batch_s"},
    "long-chain": {"group_a_s": "count_at_n_s", "group_b_s": "sequence_s",
                   "tail_s": "long_chain_slowest_batch_s"},
}

SPAN_LAYERS = (
    "cli.main", "verify.verify_all", "verify.cross_check_family", "verify.check_defect_grid",
    "verify.errata_report", "graphs.scan", "graphs.pivot", "graphs.count_ids",
    "graphs.count_boundary_classes", "graphs.enumerate_mis",
    "graphs.independent_domination_number", "chains.build_chain", "recurrences.run_transfer",
    "recurrences.eval_recurrence", "recurrences.state_trajectory", "polynomials.series",
    "polynomials.poly_gcd", "genfunc.solve_gf_system",
)
# per-layer metric -> (unit, better)
PER_LAYER = {"cli.import_s": ("s", "lower")}
for _span in SPAN_LAYERS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "genfunc.dominant_growth_rate.self_s": ("s", "lower"),
    "verify.claims_checked": ("count", "higher"),
    "graphs.scan.subsets": ("count", "lower"),
    "graphs.pivot.mis": ("count", "lower"),
    "graphs.mis_per_s": ("1/s", "higher"),
    "chains.vertices_built": ("count", "lower"),
    "recurrences.transfer_steps": ("count", "lower"),
    "recurrences.recurrence_terms": ("count", "lower"),
    "recurrences.eval_recurrence.peak_alloc_mb": ("MB", "lower"),
    "polynomials.series.terms": ("count", "lower"),
    "polynomials.RationalGF.calls": ("count", "lower"),
})
# hit ratio metric -> lru_cache function name
CACHES = {
    "cache.paper_transfer_system.hit_ratio": "paper_transfer_system",
    "cache.measured_extendable_seed.hit_ratio": "measured_extendable_seed",
    "cache.derived_gf.hit_ratio": "derived_gf",
    "cache.derived_recurrence.hit_ratio": "derived_recurrence",
    "cache.oracle_profile.hit_ratio": "_oracle_profile",
    "cache.oracle_gamma.hit_ratio": "_oracle_gamma",
    "cache.oracle_defect_count.hit_ratio": "_oracle_defect_count",
}
PER_LAYER.update({name: ("ratio", "higher") for name in CACHES})
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import cactusids from this checkout's src/, never from anywhere else."""
    if not (SRC / "cactusids" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'cactusids'}")
    sys.path.insert(0, str(SRC))
    import cactusids

    if Path(cactusids.__file__).resolve().parent != (SRC / "cactusids").resolve():
        raise BenchError(f"imported cactusids from {cactusids.__file__}, not {SRC}")
    return cactusids


def load_goldens(path=GOLDENS) -> dict:
    with open(path) as f:
        return json.load(f)


# -- statistics ---------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (the maximum if n <= 10)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def calibrate() -> float:
    """Mean time of three runs of a fixed interpreter and big-integer loop (about 4 ms).

    The mean, not the minimum: the core switches between a fast and a slow
    state within milliseconds, and the share of slow time is what drifts.
    """
    start = perf_counter()
    for _ in range(3):
        acc = 0
        for i in range(20000):
            acc += i * i
        x = y = 7 ** 14000
        for _ in range(400):
            x = x + 3 * y
    return (perf_counter() - start) / 3


# -- child processes -----------------------------------------------------------


def setup_seconds(workload: str, runs: int) -> list[float]:
    """Reference-speed wall times of fresh interpreters importing and warming up."""
    code = workloads.WARM_UP[workload]
    out = []
    for _ in range(runs):
        before = calibrate()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=170,
                       env=workloads.cli_env(str(SRC)), stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        out.append(elapsed * CAL_REF_S / ((before + calibrate()) / 2))
    return out


def import_seconds(runs: int) -> list[float]:
    code = ("import time; t = time.perf_counter(); import cactusids.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=170,
                              env=workloads.cli_env(str(SRC)), capture_output=True, text=True)
        out.append(float(proc.stdout))
    return out


def stamp(workload, seed, seconds, trace, sizes) -> dict:
    """Where and on what a result was measured."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cactusids").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


# -- running ops ------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, and each op's result facets."""

    def __init__(self, ops, goldens):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facets: dict[str, dict] = {}
        self.checks = {}
        for op in ops:
            checks = [(f, goldens.get(key), f"golden {key!r}") for f, key in op.golden.items()]
            checks += [(f, ref, "cross-route reference") for f, ref in op.refs.items()]
            self.checks[op.key] = checks

    def record(self, op, value, error) -> None:
        self.attempted += 1
        problem = error
        if problem is None:
            try:
                facets = op.facets(value)
            except Exception as exc:  # an unreadable result is a wrong result
                facets, problem = {}, f"unreadable result: {exc!r}"
            self.facets.setdefault(op.key, facets)
            for facet, expected, source in self.checks[op.key]:
                if expected is None:
                    problem = f"{source} missing"
                elif facets.get(facet) != expected:
                    problem = f"{facet} = {facets.get(facet)!r}, {source} = {expected!r}"
                if problem:
                    break
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.key}: {problem}")


def run_pass(ops, rng, tally, caches, cache_totals=None) -> list[tuple]:
    """Run every op once in a shuffled order.

    Returns (op, reference-speed seconds, wall seconds) triples. The
    calibration loop runs outside the timed calls, before an op whenever
    CAL_INTERVAL_S have passed since the last one; an op is scaled by the
    mean of the calibrations around it.
    """
    order = list(ops)
    rng.shuffle(order)
    timings = []
    cals = [calibrate()]
    since = perf_counter()
    for op in order:
        if perf_counter() - since > CAL_INTERVAL_S:
            cals.append(calibrate())
            since = perf_counter()
        if op.fresh:
            for cache in caches.values():
                cache.cache_clear()
        if cache_totals is not None:
            before = {name: caches[name].cache_info() for name in CACHES.values()}
        error = value = None
        start = perf_counter()
        try:
            value = op.call()
        except Exception:  # an op that raises is a failed op; the run goes on
            error = traceback.format_exc(limit=3).strip().replace("\n", " | ")
        elapsed = perf_counter() - start
        if cache_totals is not None:
            for name, info in before.items():
                after = caches[name].cache_info()
                cache_totals[name][0] += after.hits - info.hits
                cache_totals[name][1] += after.misses - info.misses
        tally.record(op, value, error)
        timings.append((op, elapsed, len(cals) - 1))
    cals.append(calibrate())
    return [(op, t * CAL_REF_S / ((cals[i] + cals[i + 1]) / 2), t) for op, t, i in timings]


def _timed_passes(ops, rng, tally, caches, seconds, rusage_who):
    """The timed passes, and the peak RSS in KiB after the first PEAK_PASSES."""
    passes, peak_kb = [], None
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops, rng, tally, caches))
        if len(passes) == PEAK_PASSES:
            peak_kb = resource.getrusage(rusage_who).ru_maxrss
    if peak_kb is None:
        peak_kb = resource.getrusage(rusage_who).ru_maxrss
    return passes, peak_kb


def end_to_end(workload, passes, setup, peak_kb) -> tuple[dict, list[str]]:
    """End-to-end metrics and their report lines."""
    samples, wall = {}, {}
    if workload == "cli":
        for group in ("a", "b"):
            samples[f"group_{group}_s"] = [t for p in passes for op, t, _ in p if op.group == group]
            wall[f"group_{group}_s"] = [w for p in passes for op, _, w in p if op.group == group]
        tail_value, tail_pct, tail_n = tail(samples["group_b_s"])
        tail_detail = f"p{tail_pct:.1f} of {tail_n} tour commands"
    else:
        batches: dict[str, list[float]] = {}
        for group in ("a", "b"):
            samples[f"group_{group}_s"] = [sum(t for op, t, _ in p if op.group == group)
                                           for p in passes]
            wall[f"group_{group}_s"] = [sum(w for op, _, w in p if op.group == group)
                                        for p in passes]
        for p in passes:
            for key in {op.batch for op, _, _ in p}:
                batches.setdefault(key, []).append(sum(t for op, t, _ in p if op.batch == key))
        # Batches differ in size by design, so a percentile over them would
        # just pick a batch type; the slowest type's median is the tail.
        slowest = max(batches, key=lambda key: statistics.median(batches[key]))
        tail_value = statistics.median(batches[slowest])
        tail_detail = f"slowest batch {slowest}, median of {len(batches[slowest])}"
    samples["setup_s"] = setup
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["tail_s"] = tail_value
    metrics["peak_rss_mb"] = peak_kb / 1024.0

    alias = ALIASES[workload]
    lines = []
    for name, unit in END_TO_END.items():
        label = f"{name} ({alias[name]})" if name in alias else name
        if name == "tail_s":
            detail = tail_detail
        elif name in samples:
            q1, med, q3 = quartiles(samples[name])
            detail = f"median of {len(samples[name])}, quartiles {q1:.4f} .. {q3:.4f}"
            if name in wall:
                detail += f", wall median {statistics.median(wall[name]):.4f}"
        else:
            detail = ("peak over child processes" if workload == "cli" else
                      "peak of this process") + f", after {min(PEAK_PASSES, len(passes))} passes"
        lines.append(f"{label:36s} {metrics[name]:12.4f} {unit:3s}  {detail}")
    return {k: metrics[k] for k in END_TO_END}, lines


def per_layer(tracer, n_passes, cache_totals, overhead, import_s, peaks) -> dict:
    metrics = {"cli.import_s": import_s}
    for span in SPAN_LAYERS + ("genfunc.dominant_growth_rate",):
        calls, self_s = tracer.stats.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = calls / n_passes
        metrics[f"{span}.self_s"] = self_s / n_passes
    for name, value in tracer.counters.items():
        metrics[name] = value / n_passes
    pivot_s = tracer.stats.get("graphs.pivot", (0, 0.0))[1]
    metrics["graphs.mis_per_s"] = tracer.counters["graphs.pivot.mis"] / pivot_s if pivot_s else 0.0
    metrics["recurrences.eval_recurrence.peak_alloc_mb"] = max(peaks, default=0) / 2**20
    for metric, cache in CACHES.items():
        hits, misses = cache_totals[cache]
        metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_frac"] = overhead
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def run_workload(workload, seed, seconds, trace, goldens=None, setup_runs=SETUP_RUNS,
                 out_dir=OUT_DIR) -> dict:
    """One benchmark run; returns the result document."""
    import_package()
    goldens = load_goldens() if goldens is None else goldens
    rng = random.Random(seed)
    inproc = bool(trace) or workload != "cli"
    ops, sizes = workloads.build_ops(workload, rng, inproc, str(SRC))
    tally = Tally(ops, goldens[workload])
    result = {"stamp": stamp(workload, seed, seconds, trace, sizes)}
    # One CPU for this process and its children, so the calibration loop and
    # the timed work run on the same core (the cores' speeds drift apart).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    result["stamp"]["pinned_cpu"] = min(cpus)
    try:
        _measure(workload, seed, seconds, trace, ops, rng, tally, setup_runs, Path(out_dir),
                 result)
    finally:
        os.sched_setaffinity(0, cpus)
    name = f"result-{workload}-seed{seed}-trace{int(bool(trace))}.json"
    with open(Path(out_dir) / name, "w") as f:
        json.dump({k: v for k, v in result.items() if k != "facets"}, f, indent=1)
    return result


def _measure(workload, seed, seconds, trace, ops, rng, tally, setup_runs, out_dir, result):
    from tracing import Tracer, alloc_probe

    workloads.warm_up(workload)
    caches = workloads.package_caches()
    out_dir.mkdir(parents=True, exist_ok=True)

    if not trace:
        setup = setup_seconds(workload, setup_runs)
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        passes, peak_kb = _timed_passes(ops, rng, tally, caches, seconds, who)
        metrics, lines = end_to_end(workload, passes, setup, peak_kb)
        result["passes"] = len(passes)
    else:
        tracer = Tracer()
        cache_totals = {name: [0, 0] for name in CACHES.values()}
        times = {False: [], True: []}
        start = perf_counter()
        while not times[True] or perf_counter() - start < seconds:
            # alternate which side of a pair runs first, so drift cancels
            for traced in (False, True) if len(times[True]) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    timings = run_pass(ops, rng, tally, caches, cache_totals if traced else None)
                finally:
                    tracer.uninstall()
                times[traced].append(sum(t for _, t, _ in timings))
        peaks = []
        if tracer.stats.get("recurrences.eval_recurrence", (0,))[0]:
            patcher, peaks = alloc_probe()
            try:
                run_pass(ops, rng, tally, caches)
            finally:
                patcher.restore()
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        import_s = statistics.median(import_seconds(IMPORT_RUNS))
        metrics = per_layer(tracer, len(times[True]), cache_totals, overhead, import_s, peaks)
        lines = [f"{name:48s} {value:14.6g} {PER_LAYER[name][0]}"
                 for name, value in metrics.items()]
        result["passes"] = len(times[True])
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    result.update({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "metrics": metrics,
        "lines": lines,
        "facets": tally.facets,
    })


def report(workload, result) -> None:
    s = result["stamp"]
    print(f"# perfbench workload={workload} seed={s['seed']} seconds={s['seconds']} "
          f"trace={s['trace']} passes={result['passes']}")
    print("# stamp " + json.dumps({k: v for k, v in s.items() if k != "sizes"}))
    print("# sizes " + json.dumps(s["sizes"]))
    for line in result["lines"]:
        print(line)
    print(f"{'failed_frac':36s} {result['failed_frac']:12.4f} ratio  "
          f"{result['failed']} of {result['attempted']} ops")
    verdicts = {f.get(workloads.VERDICT_KEY) for f in result["facets"].values()} - {None}
    for v in sorted(verdicts):
        print("verdicts confirmed/refuted/formal-only/unchecked = " + v)
    for failure in result["failures"]:
        print("FAILED " + failure, file=sys.stderr)


def last_line(result) -> str:
    units = END_TO_END if not result["stamp"]["trace"] else {
        k: v[0] for k, v in PER_LAYER.items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def run_all(seed, seconds, trace) -> int:
    """Every workload, each in its own child process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"# {workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        summary["correct"] &= doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for name, metric in doc["metrics"].items():
            summary["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result)
    print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
