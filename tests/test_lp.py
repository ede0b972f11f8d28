"""Exact simplex feasibility: solutions, Farkas certificates, determinism."""

import json
import random
from fractions import Fraction
from pathlib import Path

from newtoncert.lp import Feasible, FarkasInfeasible, solve_eq_nonneg


def test_simple_feasible():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    res = solve_eq_nonneg([[1, 1], [1, -1]], [1, 0])
    assert isinstance(res, Feasible)
    assert res.x == (Fraction(1, 2), Fraction(1, 2))


def test_simple_infeasible_farkas():
    # x1 + x2 = -1 with x >= 0 is infeasible
    res = solve_eq_nonneg([[1, 1]], [-1])
    assert isinstance(res, FarkasInfeasible)
    y = res.y
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


def test_inconsistent_equalities():
    # x1 = 1 and x1 = 2
    res = solve_eq_nonneg([[1], [1]], [1, 2])
    assert isinstance(res, FarkasInfeasible)
    assert res.y[0] + res.y[1] <= 0
    assert res.y[0] + 2 * res.y[1] > 0


def test_rational_input():
    res = solve_eq_nonneg([[Fraction(1, 3), Fraction(2, 3)]], [Fraction(1, 2)])
    assert isinstance(res, Feasible)
    x = res.x
    assert Fraction(1, 3) * x[0] + Fraction(2, 3) * x[1] == Fraction(1, 2)


def test_redundant_rows():
    res = solve_eq_nonneg([[1, 1], [2, 2]], [1, 2])
    assert isinstance(res, Feasible)


def test_degenerate_zero_rhs():
    res = solve_eq_nonneg([[1, -1], [0, 0]], [0, 0])
    assert isinstance(res, Feasible)


def test_no_structural_columns():
    assert isinstance(solve_eq_nonneg([[], []], [0, 0]), Feasible)
    assert isinstance(solve_eq_nonneg([[], []], [1, 0]), FarkasInfeasible)


def test_determinism():
    rows = [[1, 2, 3, 0], [0, 1, 1, 1]]
    rhs = [3, 2]
    first = solve_eq_nonneg(rows, rhs)
    for _ in range(3):
        assert solve_eq_nonneg(rows, rhs) == first


def test_random_systems_self_verify():
    # the solver verifies its own output; this just exercises many paths
    rng = random.Random(5150)
    feas = infeas = 0
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(0, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        res = solve_eq_nonneg(rows, rhs)
        if isinstance(res, Feasible):
            feas += 1
            assert all(v >= 0 for v in res.x)
        else:
            infeas += 1
    assert feas and infeas


def test_pinned_answers():
    """Exact x or Farkas y on 300 seeded systems, m = 1..6, n = 0..9.

    Pins the answers themselves, not only their signs: `contains-o`
    prints y.  The table in lp_table.json was written by:

        rng = random.Random(4104)
        def entry():
            v = rng.randint(-4, 4)
            return Fraction(v, rng.randint(2, 3)) if rng.random() < 0.25 else v
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(0, 9)
            rows = [[entry() for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.35:  # b = A x0 with x0 >= 0: feasible
                x0 = [rng.choice((0, 1, 2, Fraction(1, 2))) for _ in range(n)]
                rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
            else:
                rhs = [entry() for _ in range(m)]
            if m > 1 and rng.random() < 0.2:  # a zero row
                rows[-1], rhs[-1] = [0] * n, rng.choice((0, 0, 1))
            if m > 1 and rng.random() < 0.2:  # a redundant row
                k = rng.choice((-2, 1, Fraction(1, 2)))
                rows[1], rhs[1] = [k * v for v in rows[0]], k * rhs[0]
            res = solve_eq_nonneg(rows, rhs)
            # record rows, rhs and res.x or res.y, every number as str
    """
    with open(Path(__file__).with_name("lp_table.json")) as fh:
        table = json.load(fh)
    feas = infeas = 0
    for case in table:
        rows = [[Fraction(v) for v in row] for row in case["rows"]]
        rhs = [Fraction(b) for b in case["rhs"]]
        res = solve_eq_nonneg(rows, rhs)
        if "x" in case:
            feas += 1
            assert isinstance(res, Feasible)
            assert [str(v) for v in res.x] == case["x"]
            assert all(v >= 0 for v in res.x)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, res.x)) == b
        else:
            infeas += 1
            assert isinstance(res, FarkasInfeasible)
            y = res.y
            assert [str(v) for v in y] == case["y"]
            for j in range(len(rows[0])):
                assert sum(y[i] * row[j] for i, row in enumerate(rows)) <= 0
            assert sum(yi * b for yi, b in zip(y, rhs)) > 0
    assert (feas, infeas) == (185, 115)
