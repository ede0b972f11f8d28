"""The machine's speed, read from a fixed reference task of the benchmark's own.

The shared machine the benchmark runs on changes speed by itself: a fixed
pure-Python loop runs up to 1.8 times slower for tens of seconds at a
time, and the program's operations slow down with it.  So every timing
the benchmark reports is scaled to a fixed reference speed:

    scaled = measured * NOMINAL_S / reference

where ``reference`` is the time of the reference task measured next to
the operation and NOMINAL_S is about that task's time on the machine
the baseline was made on.  The reference task is exact rational
elimination, seeded sampling, integer determinants and a matching like
the program's own work, written here and never changed by a change to
the program, so a slower program still reads slower.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

# About the reference time on the baseline machine (2 vCPUs, Python
# 3.11.7), between its slow and fast phases; it only fixes the scale.
NOMINAL_S = 0.0015

# Seconds of measured work between two readings of the reference.
EVERY_S = 0.1

# Readings whose median sets the scale: half a second of work, shorter
# than the machine's swings in speed.
SMOOTH = 5

_rng = random.Random("reference-task")
_FRACTIONS = [[Fraction(_rng.randint(-9, 9)) for _ in range(7)] for _ in range(6)]
_INTEGERS = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
_BITS = [[int(_rng.random() < 0.4 or i == (3 * j + 1) % 10) for j in range(10)]
         for i in range(10)]


def _eliminate(rows):
    """Gauss-Jordan elimination over the rationals."""
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows


def _bareiss(rows):
    """Fraction-free determinant over the integers."""
    m = [row[:] for row in rows]
    n, prev, sign = len(m), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _sample(bits, seed):
    """Seeded random entries on the 1-positions of a 0/1 pattern."""
    rnd = random.Random(seed)
    return [[rnd.randint(1, 10**6) * (-1) ** rnd.randint(0, 1) if b else 0 for b in row]
            for row in bits]


def _matching(bits):
    n = len(bits)
    match = [-1] * n

    def augment(r, seen):
        for c in range(n):
            if bits[r][c] and c not in seen:
                seen.add(c)
                if match[c] < 0 or augment(match[c], seen):
                    match[c] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(n))


def task():
    """The reference task: one fixed unit of the kinds of interpreter work
    the program does, about half rational elimination and half seeded
    sampling with integer determinants, then a matching."""
    _eliminate(_FRACTIONS)
    for seed in range(3):
        _bareiss(_sample(_BITS, seed))
    _bareiss(_INTEGERS)
    return _matching(_BITS)


def reference():
    """Seconds of one reference task: the fastest of three, collector off,
    so that a preemption or the program's garbage does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            task()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scale factors NOMINAL_S / reference, the reference read again after
    every EVERY_S seconds of measured work."""

    def __init__(self):
        self.readings = []
        self.due = 0.0
        self.read()

    def read(self):
        self.readings.append(reference())
        self.due = EVERY_S

    def factor(self):
        return NOMINAL_S / statistics.median(self.readings[-SMOOTH:])

    def scale(self, seconds):
        """Scale one measured time by the recent readings, and read the
        reference again once enough measured work has passed."""
        scaled = seconds * self.factor()
        self.due -= seconds
        if self.due <= 0:
            self.read()
        return scaled

    def median_factor(self):
        return NOMINAL_S / statistics.median(self.readings)
