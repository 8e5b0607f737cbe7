"""Capture perfbench/goldens.json from the package in this checkout's src/.

    python3 perfbench/make_goldens.py

Recaptures every workload, so the stamp in ``captured_on`` holds for the
whole file. Runs every op any seed can draw and stores each golden facet.
Ops that share a golden key must agree (a cross-route identity), and every
cross-route reference must hold, or nothing is written. Run it only on a
commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def capture(workload: str) -> dict:
    run.import_package()
    workloads.warm_up(workload)
    goldens: dict[str, str] = {}
    for op in workloads.all_ops(workload, str(run.SRC)):
        facets = op.facets(op.call())
        for facet, ref in op.refs.items():
            if facets[facet] != ref:
                raise SystemExit(f"{op.key}: {facet} {facets[facet]!r} != reference {ref!r}")
        for facet, key in op.golden.items():
            if goldens.setdefault(key, facets[facet]) != facets[facet]:
                raise SystemExit(f"{op.key}: {facet} {facets[facet]!r} != {key} {goldens[key]!r}")
    return dict(sorted(goldens.items()))


def main() -> int:
    doc = {}
    for workload in workloads.WORKLOADS:
        doc[workload] = capture(workload)
        print(f"{workload}: {len(doc[workload])} goldens", file=sys.stderr)
    doc["captured_on"] = {k: v for k, v in run.stamp("all", None, None, None, None).items()
                          if k in ("git_commit", "src_sha256", "python", "numpy")}
    with open(run.GOLDENS, "w") as f:
        json.dump(doc, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
