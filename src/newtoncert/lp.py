"""Exact feasibility of  {x >= 0 : A x = b}  with Farkas certificates.

Phase-1 simplex with Bland's anti-cycling rule.  Rows are scaled to
integers up front and every pivot is a fraction-free integer update
(row_i <- row_i * pivot - entry * pivot_row, then gcd-normalised), so the
whole run is exact; Fractions appear only when reading the answer out.

On success returns a nonnegative rational solution x.  On infeasibility
returns y with  y.A <= 0 componentwise and y.b > 0  (duality for the
phase-1 optimum), verified by substitution before it is returned.  y is
read off the final objective row, which the pivots keep up to a positive
scale: artificial column i holds the reduced cost 1 - u_i, where u are the
multipliers of the final basis on the scaled system, so
y_i = (1 - obj[n+i] / scale) * s_i with s_i the scale of row i.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Union

from ._record import Record


class Feasible(Record):
    __match_args__ = ("x",)


class FarkasInfeasible(Record):
    __match_args__ = ("y",)


LPResult = Union[Feasible, FarkasInfeasible]


def _normalize(row: List[int]):
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g


def solve_eq_nonneg(rows: Sequence[Sequence], rhs: Sequence) -> LPResult:
    """Decide feasibility of A x = b, x >= 0 (entries int or Fraction)."""
    m = len(rows)
    if m == 0 or m != len(rhs):
        raise ValueError("system must have at least one row and matching rhs")
    n = len(rows[0])

    # integerise: row i scaled by s_i (lcm of denominators, negated if b < 0)
    tableau: List[List[int]] = []
    scales: List[int] = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged system")
        s = 1
        for v in row:
            d = v.denominator
            s = s * d // gcd(s, d)
        d = b.denominator
        s = s * d // gcd(s, d)
        bi = b * s
        if bi < 0:
            s = -s
            bi = -bi
        trow = [int(v * s) for v in row]
        trow.append(int(bi))
        tableau.append(trow)
        scales.append(s)

    # columns: 0..n-1 structural, n..n+m-1 artificial, last = rhs
    for i, trow in enumerate(tableau):
        art = [0] * m
        art[i] = 1
        trow[n:n] = art
    width = n + m + 1
    basis = [n + i for i in range(m)]

    # phase-1 reduced costs: c_j - sum of basic rows in column j, times
    # the positive scale kept in the last entry
    obj = [0] * (n + m) + [1]
    for j in range(n):
        obj[j] = -sum(tableau[i][j] for i in range(m))

    while True:
        enter = next((j for j in range(n) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        lb = lt = 0  # numerator/denominator of current best ratio
        for i in range(m):
            t = tableau[i][enter]
            if t <= 0:
                continue
            b = tableau[i][width - 1]
            if leave is None or b * lt < lb * t or (
                b * lt == lb * t and basis[i] < basis[leave]
            ):
                leave, lb, lt = i, b, t
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        piv_row = tableau[leave]
        pv = piv_row[enter]
        for i in range(m):
            if i == leave:
                continue
            row = tableau[i]
            f = row[enter]
            if f:
                for j in range(width):
                    row[j] = row[j] * pv - f * piv_row[j]
                _normalize(row)
        f = obj[enter]
        for j in range(n + m):
            obj[j] = obj[j] * pv - f * piv_row[j]
        obj[n + m] *= pv
        _normalize(obj)
        _normalize(piv_row)
        basis[leave] = enter

    infeasible = any(
        basis[i] >= n and tableau[i][width - 1] != 0 for i in range(m)
    )

    if not infeasible:
        x = [Fraction(0)] * n
        for i in range(m):
            j = basis[i]
            if j < n:
                x[j] = Fraction(tableau[i][width - 1], tableau[i][j])
        if any(v < 0 for v in x):
            raise RuntimeError("simplex produced a negative variable")
        for row, b in zip(rows, rhs):
            if sum(Fraction(v) * xv for v, xv in zip(row, x)) != b:
                raise RuntimeError("simplex produced an invalid solution")
        return Feasible(tuple(x))

    scale = obj[n + m]
    y = tuple(Fraction(scale - obj[n + i], scale) * scales[i] for i in range(m))

    for j in range(n):
        if sum(y[i] * rows[i][j] for i in range(m)) > 0:
            raise RuntimeError("invalid Farkas certificate (column test)")
    if sum(y[i] * rhs[i] for i in range(m)) <= 0:
        raise RuntimeError("invalid Farkas certificate (rhs test)")
    return FarkasInfeasible(y)
