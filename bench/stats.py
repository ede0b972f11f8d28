"""Quartiles, spreads and the reading of BENCHMARK.json, shared by sweep and compare."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"].get("metrics", {})]


def load(path):
    with open(path) as fh:
        return json.load(fh)
