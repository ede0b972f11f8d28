"""Compare two sweep files, one row per workload and end-to-end metric.

    python3 bench/compare.py bench/BENCH_baseline.json .bench_out/sweep.json

For each metric: the base and change quartiles and medians, and the ratio
change / base of the medians.  The verdict is
  regression  the change's median is worse than the base's by more than the bound;
  unresolved  either side's quartile spread is wider than the bound, and not
              every change run beats every base run;
  missing     a workload or metric is absent on one side;
  ok          otherwise.
No row is dropped.  Exits 1 when any row is a regression or missing, and
refuses (exit 2) two files whose runs had different lengths.  Sweeps made
on different machines are compared with a warning.
"""

from __future__ import annotations

import argparse
import sys

from stats import load, metric_values, quartiles, spec, spread


def verdict(base, change, bound, lower_is_better):
    if not base or not change:
        return "missing"
    b, c = quartiles(base)[1], quartiles(change)[1]
    worse = (c - b) / b if lower_is_better else (b - c) / b
    if lower_is_better:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if worse > bound:
        return "regression"
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    return "ok"


def cell(values):
    if not values:
        return f"{'-':>30}"
    q1, med, q3 = quartiles(values)
    return f"{q1:10.4g}{med:10.4g}{q3:10.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    bench = spec()
    base_doc, change_doc = load(args.base), load(args.change)
    if base_doc["seconds"] != change_doc["seconds"]:
        print(f"runs of {base_doc['seconds']} s and {change_doc['seconds']} s "
              "cannot be compared", file=sys.stderr)
        return 2
    if base_doc["machine"] != change_doc["machine"]:
        print(f"warning: the sweeps ran on different machines: {base_doc['machine']} "
              f"and {change_doc['machine']}", file=sys.stderr)
    base, change = base_doc["runs"], change_doc["runs"]
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in {**base, **change} if w not in workloads]
    print(f"{'workload':18} {'metric':12} {'base q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'ratio':>7}  verdict")
    bad = 0
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = metric_values(base.get(w, []), name)
            cv = metric_values(change.get(w, []), name)
            v = verdict(bv, cv, m["bound"], m["better"] == "lower")
            bad += v in ("regression", "missing")

            ratio = (f"{quartiles(cv)[1] / quartiles(bv)[1]:7.3f}"
                     if bv and cv and quartiles(bv)[1] else f"{'-':>7}")
            print(f"{w:18} {name:12} {cell(bv)} {cell(cv)} {ratio}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
