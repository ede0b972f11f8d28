"""Seeded benchmark of newtoncert: one workload, one closed-loop caller.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from its ``src``
directory only.  Operations run one after another in this process (or,
for cli-mix, one child process at a time) until their summed latency
reaches --seconds and at least MIN_OPS have run.  Every answer is checked
by the benchmark's own oracles or golden files; a raised exception, a
wrong exit code or a rejected answer counts as a failed operation.

Every time reported is scaled to a fixed reference speed (see speed.py),
because the shared machine changes speed by itself.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the schedule
untraced for half the time, then replays exactly those operations, each
once untraced and once with every layer wrapped; it prints the per-layer
metrics and writes the spans to .bench_out/.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100
SETUP_REPEATS = 9  # set-ups measured per run (this process plus fresh children)
IMPORT_REPEATS = 5

import speed  # noqa: E402  (the benchmark's own modules, not the program)
import workloads  # noqa: E402


class Program:
    """The newtoncert modules, imported from this checkout's src only."""

    @staticmethod
    def require():
        if not (SRC / "newtoncert" / "__init__.py").is_file():
            raise SystemExit(f"newtoncert sources not found under {SRC}")

    def __init__(self):
        self.require()
        sys.path.insert(0, str(SRC))
        self.src = SRC
        self.package = importlib.import_module("newtoncert")
        origin = Path(self.package.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise SystemExit(f"newtoncert imported from {origin}, not from {SRC}")
        for name in ("polytope", "stencil", "poly", "kouchnirenko", "morse", "lp", "cli"):
            setattr(self, name, importlib.import_module(f"newtoncert.{name}"))


def set_up(workload, inputs):
    """Import the program and build its objects from the drawn inputs.

    Only this is set-up time: drawing the inputs is the benchmark's own
    work and happens before, untimed.  The time is scaled to the reference
    speed by a reading of the reference task taken just before.
    """
    reading = speed.reference()
    start = perf_counter()
    prog = Program()
    strata = workload.build(prog, inputs)
    return prog, strata, (perf_counter() - start) * speed.NOMINAL_S / reading


def child_setup_seconds(workload, inputs):
    """Set-up time in a fresh process, which gets the drawn inputs on stdin."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", "0", "--setup-only"],
        cwd=ROOT, input=pickle.dumps(inputs), capture_output=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def child_import_ms():
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import newtoncert.cli; "
            "print(1000 * (time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


class Run:
    """Latencies and failures of one loop over the schedule, and its items
    if they are to be replayed.  Latencies are scaled to the reference
    speed by `clock` and sit in a flat array of doubles (8 bytes an
    operation), so that the bookkeeping does not show in the peak memory
    however many operations run; `busy` sums them as measured."""

    def __init__(self, clock, keep_items=False):
        self.clock = clock
        self.items = [] if keep_items else None
        self.latency = array("d")
        self.busy = 0.0
        self.failed = 0
        self.errors = []

    def record(self, label, item, seconds, errors):
        if self.items is not None:
            self.items.append((label, item))
        self.latency.append(self.clock.scale(seconds))
        self.busy += seconds
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {errors[0]}")


def timed(op, check, label, item, run, tracer=None):
    if tracer is not None:
        tracer.op = len(run.latency)
    start = perf_counter()
    try:
        result = op(item)
        errors = None
    except Exception as exc:  # a raising operation is a failed operation
        errors = [f"raised {type(exc).__name__}: {exc}"]
    seconds = perf_counter() - start
    if errors is None:
        errors = check(item, result)
    run.record(label, item, seconds, errors)


def loop(op, check, items, seconds, wall_cap, clock, keep_items=False):
    """Closed loop until the summed measured latency reaches `seconds` (and
    MIN_OPS ran)."""
    run = Run(clock, keep_items)
    wall_start = perf_counter()
    for label, item in items:
        if (run.busy >= seconds and len(run.latency) >= MIN_OPS) or \
                perf_counter() - wall_start > wall_cap:
            break
        timed(op, check, label, item, run)
    return run


def own_peak_kb():
    """Peak resident set of this process since exec (VmHWM).

    Not ru_maxrss, which also holds the peak of whatever process exec'd us.
    """
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, prog, schedule, args, inputs, setup_first):
    """The untraced run: end-to-end metrics."""
    clock = speed.Speed()
    run = loop(lambda item: wl.run(prog, item), wl.check, schedule, args.seconds,
               wall_cap(args.seconds), clock)
    # read before the percentiles below copy and sort the latencies
    rss_mb = (wl.peak_kb if wl.name == "cli-mix" else own_peak_kb()) / 1024
    setups = [setup_first] + [child_setup_seconds(wl.name, inputs)
                              for _ in range(SETUP_REPEATS - 1)]
    lat = run.latency
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"as measured: {len(lat) / run.busy:.4g} ops/s; reference speed factor "
          f"{clock.median_factor():.3f} (median of {len(clock.readings)} readings)",
          file=sys.stderr)
    return metrics, [run]


def per_layer(wl, prog, schedule, args):
    """Untraced for half the time, then the same operations again, each run
    once untraced and once traced, the side going first alternating, so
    that warm-up and drift in machine speed fall on both sides alike."""
    from spans import Tracer

    op = lambda item: wl.run(prog, item)  # noqa: E731
    clock = speed.Speed()
    plain = loop(op, wl.check, schedule, args.seconds / 2, wall_cap(args.seconds), clock,
                 keep_items=True)
    if wl.name == "cli-mix":
        # a request's per-layer view is its cli.run in this process
        op = lambda item: wl.run_in_process(prog, item)  # noqa: E731
    tracer = Tracer(prog.package)
    base, traced = Run(clock), Run(clock, keep_items=True)
    for k, (label, item) in enumerate(plain.items):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    timed(op, wl.check, label, item, traced, tracer)
            else:
                timed(op, wl.check, label, item, base)
    runs = [plain, base, traced]
    startup = 0.0
    if wl.name == "cli-mix":
        startup = statistics.median(a - b for a, b in zip(plain.latency, base.latency))
    ops = len(traced.latency)
    # span times are as measured: scale them by the run's median reading
    factor = clock.median_factor()
    metrics = {k: (v * factor if u in ("ms/op", "ms") else v, u)
               for k, (v, u) in tracer.metrics(ops).items()}
    metrics["cli.startup_ms"] = (1000 * startup, "ms")
    metrics["cli.import_ms"] = (factor * statistics.median(
        child_import_ms() for _ in range(IMPORT_REPEATS)), "ms")
    metrics["trace.overhead"] = (sum(traced.latency) / sum(base.latency) - 1, "ratio")

    shares = tracer.layer_shares()
    inclusive = tracer.inclusive_shares(traced.busy)
    summary = {
        "workload": wl.name, "seed": args.seed, "ops": ops,
        "startup_share": startup / statistics.median(plain.latency),
        "layer_self_share": dict(shares),
        "function_inclusive_share": dict(inclusive),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "regions": tracer.regions,
        "op_ms": [[label, 1000 * s] for (label, _), s in zip(traced.items, traced.latency)],
    }
    tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json", summary)
    if wl.name == "cli-mix":
        print(f"interpreter start-up and import: {summary['startup_share']:.0%} of the "
              "median request", file=sys.stderr)
    print("self time by layer: " + ", ".join(f"{k} {v:.0%}" for k, v in shares),
          file=sys.stderr)
    print("inclusive time by function: " + ", ".join(
        f"{k} {v:.0%}" for k, v in inclusive[:8]), file=sys.stderr)
    return metrics, runs


def wall_cap(seconds):
    return 3 * seconds + 30


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="read drawn inputs from stdin, print the set-up time "
                             "of this fresh process and exit")
    args = parser.parse_args(argv)
    os.environ.pop("NEWTON_CERTIFY_SEED", None)
    Program.require()
    wl = workloads.WORKLOADS[args.workload]()

    if args.setup_only:
        inputs = pickle.load(sys.stdin.buffer)
        print(set_up(wl, inputs)[2])
        return 0
    inputs = wl.inputs(args.seed)
    prog, strata, setup_first = set_up(wl, inputs)

    schedule = workloads.schedule(strata, random.Random(f"order:{args.seed}"))
    if args.trace:
        metrics, runs = per_layer(wl, prog, schedule, args)
    else:
        metrics, runs = end_to_end(wl, prog, schedule, args, inputs, setup_first)

    attempted = sum(len(r.latency) for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    if hasattr(wl, "probe"):
        attempted += 1
        if wl.probe(prog) != workloads.load_golden("sample_stream.json")["sha256"]:
            failed += 1
            errors.append("sample stream digest differs from golden/sample_stream.json")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
