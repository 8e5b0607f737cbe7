"""Spans and work counters around calls into the cactusids modules.

The tracer patches module attributes at run time; no source file of the
package changes. Each wrapped function records a span (name, start, end,
parent span) and adds its duration to the parent's child time, so a layer's
self time is its span minus the spans it caused. Spans stay in memory until
:meth:`Tracer.write` is called at exit.

Wrapping replaces every attribute in every ``cactusids`` module that refers
to the original function, so names imported into other modules (for
example ``verify.count_boundary_classes``) are traced too.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "cactusids" or name.startswith("cactusids."))
    ]


class Patcher:
    """Replaces a function everywhere the package refers to it, and restores it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, orig, new) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)

    def replace_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# (module, attribute, span name); the two private graphs functions are the
# scan and pivot oracles that the public graphs functions dispatch to.
TRACED = (
    ("cli", "main", "cli.main"),
    ("verify", "verify_all", "verify.verify_all"),
    ("verify", "cross_check_family", "verify.cross_check_family"),
    ("verify", "check_defect_grid", "verify.check_defect_grid"),
    ("verify", "check_defect_formula", "verify.check_defect_formula"),
    ("verify", "check_gamma_formula", "verify.check_gamma_formula"),
    ("verify", "errata_report", "verify.errata_report"),
    ("graphs", "count_ids", "graphs.count_ids"),
    ("graphs", "count_boundary_classes", "graphs.count_boundary_classes"),
    ("graphs", "independent_domination_number", "graphs.independent_domination_number"),
    ("graphs", "_scan_counts", "graphs.scan"),
    ("graphs", "_mis_masks_pivot", "graphs.pivot"),
    ("chains", "build_chain", "chains.build_chain"),
    ("recurrences", "run_transfer", "recurrences.run_transfer"),
    ("recurrences", "eval_recurrence", "recurrences.eval_recurrence"),
    ("recurrences", "state_trajectory", "recurrences.state_trajectory"),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("genfunc", "solve_gf_system", "genfunc.solve_gf_system"),
    ("genfunc", "dominant_growth_rate", "genfunc.dominant_growth_rate"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _recurrence_terms(args, kwargs, result) -> int:
    rec, n = _arg(args, kwargs, 0, "rec"), _arg(args, kwargs, 1, "n")
    return 0 if n in rec.initial_map else n - rec.min_index + 1


# span name -> (counter, work done by one call, from its arguments and result).
# transfer_steps (n - 1) and recurrence_terms are computed from the arguments
# alone, as the linear methods of the seed code would do them: they measure the
# input size, and a faster method (repeated squaring, a sliding window) leaves
# them where they are.
COUNTERS = {
    "graphs.scan": ("graphs.scan.subsets", lambda a, k, r: 1 << a[0].n_vertices),
    "graphs.pivot": ("graphs.pivot.mis", lambda a, k, r: len(r)),
    "chains.build_chain": ("chains.vertices_built", lambda a, k, r: r.graph.n_vertices),
    "recurrences.run_transfer": (
        "recurrences.transfer_steps", lambda a, k, r: _arg(a, k, 1, "n") - 1),
    "recurrences.eval_recurrence": ("recurrences.recurrence_terms", _recurrence_terms),
    "polynomials.series": ("polynomials.series.terms", lambda a, k, r: _arg(a, k, 1, "upto") + 1),
    "verify.verify_all": (
        "verify.claims_checked", lambda a, k, r: sum(len(x.statuses) for x in r)),
}


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [index, child seconds]
        self._patcher = Patcher()

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent)
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] += counter[1](args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, args, kwargs)

    def install(self) -> None:
        """Patch every traced function of the already imported package."""
        import cactusids.cli  # noqa: F401  (the cli module is not imported by the package)
        from cactusids import graphs, polynomials

        for mod_name, attr, span in TRACED:
            orig = getattr(sys.modules[f"cactusids.{mod_name}"], attr, None)
            if orig is None:  # renamed or removed: its metrics read 0
                print(f"perfbench: cactusids.{mod_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            self._patcher.replace(orig, self.wrap(span, orig))

        orig_enum = graphs.enumerate_mis
        resolve = getattr(graphs, "_resolve_strategy", lambda g, strategy: strategy)

        def enumerate_mis(g, *args, **kwargs):
            # The scan strategy runs inline in this generator; consume it here
            # so its work lands in a "graphs.scan" span like _scan_counts.
            strategy = kwargs.get("strategy", args[0] if args else "auto")
            masks = self.call("graphs.enumerate_mis", self._enumerate,
                              (orig_enum, resolve, g, args, kwargs, strategy), {})
            return iter(masks)

        self._patcher.replace(orig_enum, enumerate_mis)

        series = polynomials.RationalGF.series
        self._patcher.replace_attr(
            polynomials.RationalGF, "series",
            lambda gf, *args, **kwargs: self.call("polynomials.series", series, (gf, *args), kwargs))
        init = polynomials.RationalGF.__init__

        def counted_init(gf, *args, **kwargs):
            self.counters["polynomials.RationalGF.calls"] += 1
            init(gf, *args, **kwargs)

        self._patcher.replace_attr(polynomials.RationalGF, "__init__", counted_init)

    def _enumerate(self, orig, resolve, g, args, kwargs, strategy):
        try:
            scan = resolve(g, strategy) == "scan"
        except ValueError:
            scan = False  # the original call raises the same error below
        if not scan:
            return list(orig(g, *args, **kwargs))
        return self.call("graphs.scan", lambda graph: list(orig(graph, *args, **kwargs)), (g,), {})

    def uninstall(self) -> None:
        self._patcher.restore()

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent id."""
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def alloc_probe():
    """Patch eval_recurrence to record its tracemalloc peak; returns (patcher, peaks)."""
    from cactusids import recurrences

    orig = recurrences.eval_recurrence
    peaks: list[int] = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    patcher = Patcher()
    patcher.replace(orig, measured)
    return patcher, peaks
