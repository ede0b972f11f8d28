"""Run the benchmark over several seeds and keep every result in one file.

    python3 bench/sweep.py --out .bench_out/sweep.json --seeds 10
    python3 bench/sweep.py --out .bench_out/cli.json --workloads cli-mix --seeds 5

Each run is `python3 bench/run.py --workload W --seed S --seconds T --trace 0`
with T the run_seconds of BENCHMARK.json and S = 1 .. --seeds.
Prints, per workload and end-to-end metric, the median, the quartiles and
the spread (quartile distance over median), marked "wide" when it exceeds
a third of the metric's bound.  The file is the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from stats import ROOT, metric_values, quartiles, spec, spread


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "system": platform.system(), "machine": platform.machine()}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(doc, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    print(f"{'workload':18} {'metric':12} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>7} {'bound/3':>7}")
    for workload, runs in doc["runs"].items():
        bad = sum(r["result"]["failed"] for r in runs)
        for name, m in bounds.items():
            values = metric_values(runs, name)
            if not values:
                print(f"{workload:18} {name:12} missing")
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "" if name == "setup_s" or s < m["bound"] / 3 else "  wide"
            print(f"{workload:18} {name:12} {q1:10.4g} {med:10.4g} {q3:10.4g} "
                  f"{s:7.3f} {m['bound'] / 3:7.3f}{flag}")
        print(f"{workload:18} failed operations: {bad} in {len(runs)} runs")


def main():
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    doc = {"machine": machine(), "seconds": seconds, "runs": {}}
    for workload in args.workloads.split(","):
        doc["runs"][workload] = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, seconds)
            doc["runs"][workload].append({"seed": seed, "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    report(doc, bench)


if __name__ == "__main__":
    main()
