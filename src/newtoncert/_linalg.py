"""Small exact linear-algebra helpers over Fraction (Gaussian elimination)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _echelon(rows):
    """Row-reduce in place; return the list of pivot column indices."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(rows) -> int:
    work = [[Fraction(v) for v in row] for row in rows]
    return len(_echelon(work))


def solve_unique(rows, rhs):
    """Solve A x = b when A has full column rank.

    Returns the solution vector, or None if the system is inconsistent.
    Raises ValueError when the solution would not be unique.
    """
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    work = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _echelon(work)
    if ncols in pivots:
        return None  # a pivot in the rhs column: inconsistent
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = work[r][ncols]
    return x


def nullspace_vector(rows, ncols):
    """A primitive integer kernel vector when the kernel is 1-dimensional.

    Returns None when the kernel dimension differs from 1.
    """
    work = [[Fraction(v) for v in row] for row in rows] or [[Fraction(0)] * ncols]
    pivots = _echelon(work)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -work[r][fc]
    # scale to a primitive integer vector
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)
